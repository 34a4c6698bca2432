"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fit-ws --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is imported from ./src.  The run
imports the program, then sets up SETUPS times: builds its inputs and warms
up with one operation (setup_s is the import time, from the first line of
this file, plus the median set-up).  Then it repeats whole rounds of timed
operations for about --seconds, checking every output.  With --trace 0 it
prints the end-to-end metrics; with --trace 1 it alternates untraced and
traced rounds and prints the per-layer metrics, each layer's self time and
the tracing overhead, and writes the spans to perfbench/results/.  The last
line of stdout is one JSON object.  The exit code is 0 only when every check
passed.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent

# span names whose total time per scene is a per-layer metric
LAYER_SPANS = (
    "fit.fit_ws", "losses.weak_residuals", "losses.width_loss",
    "scenes.make_scene", "scenes.perturb_pitch", "calibration.calibrate_pitch",
    "anchors.encode_gt", "anchors.decode", "anchors.nms", "metrics.evaluate",
    "laneio.dump", "laneio.load",
    "cli.synth", "cli.calibrate", "cli.encode", "cli.fit", "cli.nms", "cli.eval",
)
LAYER_COUNTS = ("fit.n_steps", "fit.n_evals", "calibration.iterations", "anchors.nms_suppressed")
SETUPS = 3  # set-ups per run; setup_s takes their median
MODULES = ("bench", "scenes", "calibration", "anchors", "fit", "losses", "metrics", "laneio", "cli")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def timed_loop(workload, items, api_plain, tracer, api_traced, seconds):
    """Repeat whole rounds for about `seconds`; with a tracer, odd rounds are traced.

    A round holds many distinct scenes, so a few rounds fill a run.  The loop
    stops after the round that brings the time nearest to `seconds`: once
    the time left is less than half a round's mean duration.  At least one
    round runs, two (one of each kind) with a tracer.
    """
    stats = {"wall": [], "cpu": [], "traced_wall": [], "attempted": 0, "failed": 0, "errors": []}
    outs = []
    rounds = 0
    t0 = time.perf_counter()
    while True:
        traced = tracer is not None and rounds % 2 == 1
        api = api_traced if traced else api_plain
        outs = []
        for index, item in enumerate(items):
            if traced:
                tracer.scene = f"{rounds}.{index}"
            out = None
            c0, w0 = time.process_time(), time.perf_counter()
            try:
                with api.span("bench.scene"):
                    out = workload.run(item, api)
            except Exception:  # an operation that raises counts as failed
                stats["failed"] += 1
                traceback.print_exc(file=sys.stderr)
            w1, c1 = time.perf_counter(), time.process_time()
            stats["attempted"] += 1
            stats["traced_wall" if traced else "wall"].append(w1 - w0)
            if not traced:
                stats["cpu"].append(c1 - c0)
            if out is not None:
                stats["errors"] += workload.check(item, out)
                if traced:
                    workload.trace_extra(item, out, api)
            outs.append(out)
        stats["errors"] += workload.check_round(items, outs)
        rounds += 1
        elapsed = time.perf_counter() - t0
        if elapsed + (elapsed / rounds) / 2 >= seconds and (tracer is None or rounds % 2 == 0):
            break
    stats["rounds"] = rounds
    return stats, outs


def end_to_end(setup_s, peak_kb, stats, accuracy):
    wall = stats["wall"]
    values = {
        "setup_s": (setup_s, "s"),
        "scenes_per_s": (len(wall) / sum(wall), "1/s"),
        "scene_ms_p50": (1e3 * statistics.median(wall), "ms"),
        "scene_ms_p90": (1e3 * statistics.quantiles(wall, n=10)[-1], "ms"),
        "cpu_ms_per_scene": (1e3 * sum(stats["cpu"]) / len(stats["cpu"]), "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "z_rms_straight_m": (accuracy["z_rms_straight_m"], "m"),
        "z_rms_bend_m": (accuracy["z_rms_bend_m"], "m"),
        "pitch_err_deg": (accuracy["pitch_err_deg"], "deg"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def per_layer(tracer, stats):
    n = len(stats["traced_wall"])
    total, self_time = tracer.totals()
    values = {f"{name}_ms": (1e3 * total.get(name, 0.0) / n, "ms") for name in LAYER_SPANS}
    values.update({name: (tracer.counts.get(name, 0.0) / n, "count") for name in LAYER_COUNTS})
    evals = tracer.counts.get("fit.n_evals", 0.0)
    values["fit.ms_per_eval"] = (1e3 * total.get("fit.fit_ws", 0.0) / evals if evals else 0.0, "ms")
    values["laneio.bytes_per_scene"] = (tracer.counts.get("laneio.bytes", 0.0) / n, "B")
    values.update({f"self.{m}_ms": (1e3 * self_time.get(m, 0.0) / n, "ms") for m in MODULES})
    plain = statistics.fmean(stats["wall"])
    traced = statistics.fmean(stats["traced_wall"])
    values["trace.overhead_ms"] = (1e3 * (traced - plain), "ms")
    values["trace.overhead_pct"] = (100.0 * (traced - plain) / plain, "%")
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import the program from {HERE.parent / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 64
    workload = workloads.WORKLOADS[args.workload](args.seed)
    api_plain = workloads.Api()
    import_s = time.perf_counter() - T_START
    try:
        setups = []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            items = workload.setup(api_plain)
            workload.run(items[0], api_plain)  # warm-up: first-call costs
            setups.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setups)
        tracer = Tracer() if args.trace else None
        api_traced = workloads.Api(tracer) if tracer else None
        stats, outs = timed_loop(workload, items, api_plain, tracer, api_traced, args.seconds)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # this workload's own peak
        stats["errors"] += workload.finish(items, outs, api_plain)
        if tracer:
            metrics = per_layer(tracer, stats)
            out_dir = HERE / "results"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
        else:
            metrics = end_to_end(setup_s, peak_kb, stats, workloads.accuracy_pass())
    finally:
        workload.close()

    for name, m in metrics.items():
        print(f"{args.workload:>12}  {name:<28} {m['value']:>14.6g} {m['unit']}")
    print(f"{args.workload:>12}  import {import_s:.3f} s, set-ups "
          + ", ".join(f"{t:.3f}" for t in setups) + " s")
    print(f"{args.workload:>12}  rounds {stats['rounds']}, operations attempted "
          f"{stats['attempted']}, failed {stats['failed']}")
    for err in stats["errors"][:20]:
        print(f"check failed: {err}", file=sys.stderr)
    correct = not stats["errors"]
    print(json.dumps({
        "correct": correct,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
