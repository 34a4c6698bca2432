"""SHA-256 of every CLI command's output over the scene corpus.

The corpus is 6 profiles x seeds 0-19 x {default, `--crown 0.02`,
`--jitter-px 0.5`}: 360 scenes.  Each scene runs the chain

    synth -> calibrate --out -> encode -> fit -> nms -> eval --out

in process through `bevlane.cli.main`, inside a temporary directory with
relative file names, so no absolute path reaches stdout.  For each command
the tool hashes, scene by scene, the exit code, the stdout and the bytes of
every file the command wrote, and prints one digest per command and one over
all of them.  Two checkouts whose lines agree produce identical bytes; a
change that claims to leave a command's output alone shows it here.

Run from any directory; the tool imports the program from the `src` beside
it.  The corpus took 17 s on a 2-core machine:

    python3 tools/corpus_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bevlane.cli import main  # noqa: E402
from bevlane.scenes import PROFILES  # noqa: E402

SEEDS = range(20)
VARIANTS = {"default": [], "crown": ["--crown", "0.02"], "jitter": ["--jitter-px", "0.5"]}
# (command, argv after the command, files it writes); synth's argv depends on the scene
CHAIN = (
    ("synth", None, ("scene.json",)),
    ("calibrate", ["--in", "scene.json", "--out", "calib.json"], ("calib.json",)),
    ("encode", ["--in", "scene.json", "--out", "encoded.json"], ("encoded.json",)),
    ("fit", ["--in", "scene.json", "--out", "fitted.json"], ("fitted.json",)),
    ("nms", ["--in", "encoded.json", "--out", "deduped.json"], ("deduped.json",)),
    ("eval", ["--pred", "fitted.json", "--gt", "scene.json", "--out", "eval.json"], ("eval.json",)),
)


def run_cli(argv) -> tuple[int, str]:
    """(exit code, stdout) of one in-process `bevlane` call; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def run_corpus(hashes, failures) -> None:
    """Run every scene's chain in the current directory, feeding each command's hash."""
    for profile in PROFILES:
        for seed in SEEDS:
            for variant, flags in VARIANTS.items():
                synth = ["--profile", profile, "--seed", str(seed), *flags, "--out", "scene.json"]
                for cmd, args, files in CHAIN:
                    for name in files:
                        Path(name).unlink(missing_ok=True)
                    code, stdout = run_cli([cmd, *(synth if args is None else args)])
                    h = hashes[cmd]
                    h.update(f"{profile} {seed} {variant} exit {code}\n{stdout}".encode())
                    for name in files:
                        if os.path.exists(name):
                            h.update(f"file {name}\n".encode() + Path(name).read_bytes())
                    failures[cmd] += code != 0


def main_digest() -> int:
    hashes = {cmd: hashlib.sha256() for cmd, _, _ in CHAIN}
    failures = dict.fromkeys(hashes, 0)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            run_corpus(hashes, failures)
        finally:
            os.chdir(cwd)
    n_scenes = len(PROFILES) * len(SEEDS) * len(VARIANTS)
    for cmd, h in hashes.items():
        print(f"{cmd:<10} {h.hexdigest()}  ({n_scenes} runs, {failures[cmd]} non-zero exits)")
    everything = hashlib.sha256("".join(h.hexdigest() for h in hashes.values()).encode())
    print(f"{'all':<10} {everything.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())
