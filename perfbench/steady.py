"""Steadiness of the benchmark: run workloads repeatedly and report the spread.

    python3 perfbench/steady.py --seeds 1-10 [--workloads fit-ws,detect]

Runs perfbench/run.py once per (workload, seed) on every workload of
BENCHMARK.json (or the ones named), for its run_seconds, one process at a
time, from the repository root.  For every end-to-end metric it prints the
median, the first and third quartiles (statistics.quantiles, n=4), the
spread (q3 - q1) / median and the metric's bound from BENCHMARK.json; a
spread at or above a third of the bound is flagged.  It also prints the
share of failed operations of each run and how long the runs took, start to
exit.  Raw results go to perfbench/results/steady-<workload>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = time.perf_counter() - t0
    return result


def summarize(workload, results, metrics):
    print(f"\n{workload}: {len(results)} runs")
    print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        flag = "" if spread < m["bound"] / 3 else "  <- at or above bound/3"
        print(f"  {m['name']:<20} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
              f"{m['bound']:>6}{flag}")
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"  failed share per run: {shares}; attempted {[r['attempted'] for r in results]}")
    run_s = [r["run_s"] for r in results]
    print(f"  run time: mean {statistics.fmean(run_s):.1f} s, longest {max(run_s):.1f} s")


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"), help="e.g. 1-10")
    p.add_argument("--workloads", help="comma-separated names; default: all")
    args = p.parse_args(argv)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    for workload in names:
        results = []
        for seed in args.seeds:
            results.append(run_once(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: done", file=sys.stderr, flush=True)
        (out_dir / f"steady-{workload}.json").write_text(json.dumps(results) + "\n")
        summarize(workload, results, spec["end_to_end"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
