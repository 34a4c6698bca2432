"""The benchmark's workloads, its traced calls into the program, and the accuracy pass.

A workload builds one round of inputs from the seed (`setup`), runs one
closed-loop operation per input (`run`, the timed part) and checks each
output against truth computed apart from the program (`check`,
`check_round`, `finish`).  Every run repeats whole rounds of the same
inputs, so the share of failed operations does not depend on run length.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import shutil
from pathlib import Path

import numpy as np

import bevlane.cli
from bevlane import AnchorGridSpec, EvalConfig, NmsConfig, SceneSpec, height_loss, width_loss
from bevlane.scenes import PROFILES

import oracles

GRID = AnchorGridSpec.default()
JITTER_PX = 0.3
PERTURB_DEG = 3.0
STRAIGHT_ROADS = ("flat", "uphill", "downhill")

# function -> span name; the function lives in the module the span is named
# after (laneio.load is read_lane_file, laneio.dump is write_lane_file)
CALLS = {
    "make_scene": "scenes.make_scene",
    "perturb_pitch": "scenes.perturb_pitch",
    "calibrate_pitch": "calibration.calibrate_pitch",
    "encode_gt": "anchors.encode_gt",
    "decode": "anchors.decode",
    "nms": "anchors.nms",
    "fit_ws": "fit.fit_ws",
    "weak_residuals": "losses.weak_residuals",
    "width_loss": "losses.width_loss",
    "evaluate": "metrics.evaluate",
    "read_lane_file": "laneio.load",
    "write_lane_file": "laneio.dump",
}


def _count(tracer, attr, args, out):
    if attr == "fit_ws":
        tracer.count("fit.n_steps", out[1].n_steps)
        tracer.count("fit.n_evals", out[1].n_evals)
    elif attr == "calibrate_pitch":
        tracer.count("calibration.iterations", out.iterations)
    elif attr == "nms":
        dropped = (args[0].prob[:, 0] > 0) & (out.prob[:, 0] == 0)
        tracer.count("anchors.nms_suppressed", int(dropped.sum()))
    elif attr == "write_lane_file":
        tracer.count("laneio.bytes", os.path.getsize(args[0]))


def _traced(tracer, attr, span, fn):
    def call(*args, **kwargs):
        with tracer.span(span):
            out = fn(*args, **kwargs)
        _count(tracer, attr, args, out)
        return out

    return call


class Api:
    """The program's functions as the workloads call them.

    Without a tracer they are the program's own functions; with one, each
    call records a span and its counts.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        for attr, span in CALLS.items():
            fn = getattr(importlib.import_module(f"bevlane.{span.split('.')[0]}"), attr)
            setattr(self, attr, fn if tracer is None else _traced(tracer, attr, span, fn))

    @contextlib.contextmanager
    def in_cli(self):
        """Route bevlane.cli's own calls through this Api while traced."""
        if self.tracer is None:
            yield
            return
        saved = {a: getattr(bevlane.cli, a) for a in CALLS if hasattr(bevlane.cli, a)}
        try:
            for attr in saved:
                setattr(bevlane.cli, attr, getattr(self, attr))
            yield
        finally:
            for attr, fn in saved.items():
                setattr(bevlane.cli, attr, fn)

    def span(self, name):
        return contextlib.nullcontext() if self.tracer is None else self.tracer.span(name)


def scene_seeds(seed, salt, n):
    """n generator seeds drawn from the benchmark seed; `salt` separates workloads."""
    rng = np.random.default_rng([seed, salt])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


def layer1_gate(tensor):
    """(anchors, steps) mask of active, visible layer-1 entries."""
    return (tensor.prob[:, 0] >= 0.5)[:, None] & (tensor.vis[:, 0] >= 0.5)


def fit_accuracy(sample, encoded, fitted, report):
    """(scene z RMS, largest per-lane z RMS) against gauge-mapped generator truth."""
    h = sample.pose.height_m
    z_true = oracles.true_step_heights(sample.resolved.grade, h, GRID.y_steps_array())
    return oracles.gauge_z_rms(fitted.z[:, 0], layer1_gate(encoded), z_true, report.pinned_step, h)


def weak_l1(tensor, pose):
    return width_loss(tensor, pose)[0] + height_loss(tensor)[0]


class Workload:
    name = ""

    def __init__(self, seed):
        self.seed = seed

    def setup(self, api):
        """Build one round of inputs."""
        raise NotImplementedError

    def run(self, item, api):
        """The timed operation on one input."""
        raise NotImplementedError

    def check(self, item, out):
        return []

    def check_round(self, items, outs):
        return []

    def trace_extra(self, item, out, api):
        """Calls made only in traced rounds, outside the timed operation."""

    def finish(self, items, outs, api):
        """Checks made once, after the timed loop."""
        return []

    def close(self):
        pass


class FitWs(Workload):
    """Height recovery from flat-ground labels on uphill, downhill and bend scenes."""

    name = "fit-ws"
    PROFILES = ("uphill", "downhill", "bend")
    PER_PROFILE = 20

    def setup(self, api):
        seeds = scene_seeds(self.seed, 1, len(self.PROFILES) * self.PER_PROFILE)
        profiles = [p for p in self.PROFILES for _ in range(self.PER_PROFILE)]
        return [api.make_scene(SceneSpec(profile=p, seed=s)) for p, s in zip(profiles, seeds)]

    def run(self, sample, api):
        encoded = api.encode_gt(sample.lanes_bev, GRID)
        start = encoded.copy()
        start.z[:] = 0.0
        fitted, report = api.fit_ws(start, sample.pose)
        result = api.evaluate(api.decode(fitted, sample.pose), sample.lanes3d)
        return encoded, start, fitted, report, result

    def check(self, sample, out):
        encoded, start, fitted, report, result = out
        _, worst_lane = fit_accuracy(sample, encoded, fitted, report)
        return oracles.check_fit(
            sample.resolved.profile, worst_lane, fitted.z,
            weak_l1(fitted, sample.pose), weak_l1(start, sample.pose), result.f1,
        )

    def trace_extra(self, sample, out, api):
        start = out[1]
        free = np.zeros(start.z.shape, dtype=bool)
        free[:, 0] = layer1_gate(start)
        api.weak_residuals(start, sample.pose, free)
        api.width_loss(start, sample.pose)


class PitchCalib(Workload):
    """Pitch self-calibration on all six profiles with sub-pixel jitter."""

    name = "pitch-calib"
    PER_PROFILE = 16
    NOISELESS_FLAT = 4

    def setup(self, api):
        n = len(PROFILES) * self.PER_PROFILE + self.NOISELESS_FLAT
        seeds = scene_seeds(self.seed, 2, 2 * n)
        items = [(p, JITTER_PX) for p in PROFILES for _ in range(self.PER_PROFILE)]
        items += [("flat", 0.0)] * self.NOISELESS_FLAT
        return [(p, j, seeds[2 * i], seeds[2 * i + 1]) for i, (p, j) in enumerate(items)]

    def run(self, item, api):
        profile, jitter, seed, perturb_seed = item
        sample = api.make_scene(SceneSpec(profile=profile, seed=seed, pixel_jitter_px=jitter))
        moved = api.perturb_pitch(sample, PERTURB_DEG, perturb_seed)
        result = api.calibrate_pitch(moved.lanes_2d, moved.intrinsics, moved.pose.height_m)
        return abs(math.degrees(result.pitch_rad - moved.pose.pitch_rad))

    def check(self, item, err_deg):
        return oracles.check_noiseless_pitch(err_deg) if item[1] == 0 else []

    def check_round(self, items, outs):
        errs = [e for (p, j, _, _), e in zip(items, outs) if j > 0 and p in STRAIGHT_ROADS and e is not None]
        return oracles.check_mean_pitch(errs, "jittered flat, uphill and downhill scenes")


def plant_candidates(encoded, sample, rng, d_thresh):
    """A detector-like candidate tensor built on a ground-truth encoding.

    Every true lane gets a probability in [0.6, 1).  Each layer-1 lane gets a
    less confident near-duplicate on a free neighbouring anchor, laterally
    within d_thresh / 2 of it at every step.  Spurious candidates sit half a
    lane gap beside every layer-1 lane (midway between neighbours, and
    outside the outermost ones); one that would come within the evaluator's
    match distance of any true lane at any visible step is not planted, so
    it can never be matched.  Returns (tensor, true slots, duplicate anchors).
    """
    t = encoded.copy()
    n = GRID.n_anchors
    centers = GRID.x_centers_array()
    abs_x = t.abs_x()
    seen = t.vis >= 0.5
    true_slots = [(i, k + 1) for i in range(n) for k in (0, 1) if t.prob[i, k] >= 0.5]
    for i, layer in true_slots:
        t.prob[i, layer - 1] = rng.uniform(0.6, 1.0)
    lanes = sorted((i for i, layer in true_slots if layer == 1), key=lambda i: abs_x[i, 0, 0])
    used = set(lanes)

    def free_anchor_near(x_ref):
        for j in np.argsort(np.abs(centers - x_ref), kind="stable"):
            if int(j) not in used:
                used.add(int(j))
                return int(j)
        raise ValueError("no free anchor left")

    def place(j, x, z, vis, prob):
        t.prob[j, 0] = prob
        t.x_offsets[j, 0] = np.where(vis, x - centers[j], 0.0)
        t.z[j, 0] = np.where(vis, z, 0.0)
        t.vis[j, 0] = vis

    duplicates = []
    for i in lanes:
        side = 1 if rng.random() < 0.5 else -1
        j = next((a for a in (i + side, i - side) if 0 <= a < n and a not in used), None)
        if j is None:
            continue
        used.add(j)
        shift = rng.uniform(-0.5, 0.5) * d_thresh
        place(j, abs_x[i, 0] + shift, t.z[i, 0], t.vis[i, 0], t.prob[i, 0] * rng.uniform(0.85, 0.99))
        duplicates.append(j)

    match_dist = EvalConfig().match_dist_m
    spots = []
    for a, b in zip(lanes[:-1], lanes[1:]):
        both = seen[a, 0] & seen[b, 0]
        spots.append((0.5 * (abs_x[a, 0] + abs_x[b, 0]), 0.5 * (t.z[a, 0] + t.z[b, 0]), both))
    if len(lanes) >= 2:
        for edge, inner in ((lanes[0], lanes[1]), (lanes[-1], lanes[-2])):
            both = seen[edge, 0] & seen[inner, 0]
            x = abs_x[edge, 0] + 0.5 * (abs_x[edge, 0] - abs_x[inner, 0])
            spots.append((x, t.z[edge, 0], both))
    for x, z, vis in spots:
        near = any(
            np.any(np.abs(x - abs_x[i, layer - 1])[vis & seen[i, layer - 1]] < match_dist)
            for i, layer in true_slots
        )
        if near or vis.sum() < 2:
            continue
        ref = float(np.interp(GRID.y_ref, GRID.y_steps_array(), x))
        place(free_anchor_near(ref), x, z, vis.astype(float), rng.uniform(0.5, 0.95))
    return t, true_slots, duplicates


def decoded_slots(tensor):
    """(anchor, layer) of each lane `decode` returns, in its order."""
    enough = (tensor.vis >= 0.5).sum(axis=2) >= 2
    return [
        (i, k + 1)
        for i in range(tensor.grid.n_anchors)
        for k in (0, 1)
        if tensor.prob[i, k] >= 0.5 and enough[i, k]
    ]


def _fields(tensor):
    return tensor.prob, tensor.x_offsets, tensor.z, tensor.vis


class Detect(Workload):
    """NMS, decoding and AP evaluation of planted candidate tensors."""

    name = "detect"
    PER_PROFILE = 16

    def setup(self, api):
        cfg = NmsConfig()
        seeds = scene_seeds(self.seed, 3, 2 * len(PROFILES) * self.PER_PROFILE)
        items = []
        for i, profile in enumerate(p for p in PROFILES for _ in range(self.PER_PROFILE)):
            sample = api.make_scene(SceneSpec(profile=profile, seed=seeds[2 * i]))
            encoded = api.encode_gt(sample.lanes_bev, GRID)
            rng = np.random.default_rng(seeds[2 * i + 1])
            items.append((sample, *plant_candidates(encoded, sample, rng, cfg.d_thresh)))
        return items

    def run(self, item, api):
        sample, tensor, _, _ = item
        kept = api.nms(tensor)
        probs = [float(kept.prob[i, layer - 1]) for i, layer in decoded_slots(kept)]
        result = api.evaluate(api.decode(kept, sample.pose), sample.lanes3d, pred_probs=probs)
        return kept, probs, result

    def check(self, item, out):
        sample, tensor, true_slots, duplicates = item
        kept, probs, result = out
        survivors = oracles.reference_nms(
            tensor.prob[:, 0], tensor.abs_x()[:, 0], tensor.vis[:, 0], NmsConfig().d_thresh
        )
        errors = oracles.check_nms(_fields(tensor), _fields(kept), survivors, duplicates, true_slots)
        labels = [slot in true_slots for slot in decoded_slots(kept)]
        return errors + oracles.check_detection(result, probs, labels, len(sample.lanes3d))


def call_cli(argv):
    """(exit code, stdout) of one in-process `bevlane` call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = bevlane.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()


class CliPipeline(Workload):
    """The user's path: synth, calibrate, encode, fit, nms and eval through the CLI."""

    name = "cli-pipeline"
    # scenes per profile in a round: bends are 16 of 23, so the median and the
    # 90th percentile both fall among the bend chains (see README.md)
    COUNTS = {"flat": 1, "uphill": 2, "downhill": 2, "bend": 16, "fork": 1, "curb": 1}
    ARTIFACTS = ("scene.json", "encoded.json", "fitted.json", "deduped.json")

    def __init__(self, seed):
        super().__init__(seed)
        self.root = Path(__file__).resolve().parent / "results" / f"cli-{os.getpid()}"

    def setup(self, api):
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        profiles = [p for p in PROFILES for _ in range(self.COUNTS[p])]
        seeds = scene_seeds(self.seed, 4, 2 * len(profiles))
        return [(i, p, seeds[2 * i], seeds[2 * i + 1]) for i, p in enumerate(profiles)]

    def chain(self, item):
        i, profile, seed, perturb_seed = item
        d = self.root / f"scene{i:02d}"
        d.mkdir(exist_ok=True)
        f = {name: str(d / name) for name in self.ARTIFACTS}
        return [
            ("synth", ["synth", "--profile", profile, "--seed", str(seed),
                       "--jitter-px", str(JITTER_PX), "--perturb-pitch-deg", str(PERTURB_DEG),
                       "--perturb-seed", str(perturb_seed), "--out", f["scene.json"]]),
            ("calibrate", ["calibrate", "--in", f["scene.json"]]),
            ("encode", ["encode", "--in", f["scene.json"], "--out", f["encoded.json"]]),
            ("fit", ["fit", "--in", f["scene.json"], "--out", f["fitted.json"]]),
            ("nms", ["nms", "--in", f["encoded.json"], "--out", f["deduped.json"]]),
            ("eval", ["eval", "--pred", f["fitted.json"], "--gt", f["scene.json"]]),
        ]

    def run(self, item, api):
        codes, stdout = {}, {}
        with api.in_cli():
            for cmd, argv in self.chain(item):
                with api.span(f"cli.{cmd}"):
                    codes[cmd], stdout[cmd] = call_cli(argv)
                if codes[cmd] != 0:
                    break
        return codes, stdout

    def check(self, item, out):
        codes, stdout = out
        errors = oracles.check_exit_codes(codes)
        if errors:
            return errors
        docs = {cmd: json.loads(text) for cmd, text in stdout.items()}
        return oracles.check_cli_chain(docs["fit"], docs["eval"], docs["nms"])

    def check_round(self, items, outs):
        errs = []
        for (_, profile, _, _), out in zip(items, outs):
            if out is None or profile not in STRAIGHT_ROADS or "calibrate" not in out[1]:
                continue
            true_deg = json.loads(out[1]["synth"])["pitch_deg"]
            errs.append(abs(json.loads(out[1]["calibrate"])["pitch_deg"] - true_deg))
        return oracles.check_mean_pitch(errs, "CLI calibration on straight roads") if errs else []

    def snapshot(self, item, stdout):
        d = self.root / f"scene{item[0]:02d}"
        files = {name: (d / name).read_bytes() for name in self.ARTIFACTS}
        return {**files, **{f"stdout of {cmd}": text.encode() for cmd, text in stdout.items()}}

    def finish(self, items, outs, api):
        """Run the first scene's chain again; stdout and artifacts must not change by a byte."""
        if outs[0] is None:
            return ["first CLI chain failed; nothing to repeat"]
        first = self.snapshot(items[0], outs[0][1])
        codes, stdout = self.run(items[0], api)
        errors = oracles.check_exit_codes(codes)
        return errors or oracles.check_same_bytes(first, self.snapshot(items[0], stdout))

    def close(self):
        shutil.rmtree(self.root, ignore_errors=True)


WORKLOADS = {w.name: w for w in (FitWs, PitchCalib, CliPipeline, Detect)}

# Fixed reference scenes of the accuracy pass.  They do not depend on the
# benchmark seed, so each accuracy metric reads the same on every run of a
# commit and a change in it is a change in the program, never seed noise.
ACCURACY_STRAIGHT = (("uphill", 0), ("downhill", 0))
ACCURACY_BEND = (("bend", 1),)
ACCURACY_PITCH_SEEDS = range(5)


def accuracy_pass():
    """The three accuracy metrics, computed on the fixed reference scenes.

    z_rms_straight_m and z_rms_bend_m are the largest per-scene z RMS of
    fit_ws against gauge-mapped generator truth; pitch_err_deg is the mean
    absolute calibrate_pitch error over all six profiles with 0.3 px jitter
    and a pitch perturbed by up to 3 degrees.
    """
    api = Api()
    fit = FitWs(0)

    def worst(scenes):
        out = []
        for profile, seed in scenes:
            sample = api.make_scene(SceneSpec(profile=profile, seed=seed))
            encoded, _, fitted, report, _ = fit.run(sample, api)
            out.append(fit_accuracy(sample, encoded, fitted, report)[0])
        return max(out)

    calib = PitchCalib(0)
    errs = [
        calib.run((profile, JITTER_PX, seed, seed), api)
        for profile in PROFILES
        for seed in ACCURACY_PITCH_SEEDS
    ]
    return {
        "z_rms_straight_m": worst(ACCURACY_STRAIGHT),
        "z_rms_bend_m": worst(ACCURACY_BEND),
        "pitch_err_deg": float(np.mean(errs)),
    }
