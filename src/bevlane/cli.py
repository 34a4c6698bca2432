"""Command-line front end for the lane geometry toolkit.

Subcommands cover the full pipeline: generate a scene, self-calibrate pitch
from its 2D labels, rasterize lanes onto anchors, evaluate losses, recover
heights by direct optimization, deduplicate candidates, score predictions,
and render an SVG.

Exit codes: 0 on success, 2 for invalid inputs or geometry, 3 for numerical
failures (ill-conditioned or diverged), 64 for command-line usage errors.
All outputs are deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import logging
import math
import sys

import numpy as np

from .anchors import (
    PROB_ACTIVE_THRESHOLD,
    VIS_DECODE_THRESHOLD,
    AnchorGridSpec,
    NmsConfig,
    associate,
    decode,
    encode_gt,
    nms,
)
from .calibration import CalibConfig, calibrate_pitch
from .errors import InvalidInputError, LaneError, NumericError
from .fit import FitConfig, first_pinnable_step, fit_sup, fit_ws
from .laneio import LaneFile, dumps_json, lane_file_from_sample, read_lane_file, write_lane_file
from .losses import LossWeights, second_layer_mask, total_sup, total_ws
from .metrics import EvalConfig, evaluate
from .plot import write_svg
from .scenes import PROFILES, SceneSpec, make_scene, perturb_pitch

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 64

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; 2 means invalid data here, so
    usage problems leave through 64 instead."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _print_json(obj) -> None:
    print(dumps_json(obj))


def _write_json(path, obj) -> None:
    text = dumps_json(obj) + "\n"  # before opening: a refused number leaves no file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _weights_arg(text: str) -> dict[str, float]:
    """Parse 'bev=1,width=2' style overrides of the loss weights.

    `cmd_loss` builds the LossWeights: argparse would report its range error
    as a usage error (64) rather than as invalid input (2)."""
    fields = {}
    if text:
        for part in text.split(","):
            if "=" not in part:
                raise argparse.ArgumentTypeError(f"expected name=value, got {part!r}")
            name, _, value = part.partition("=")
            name = name.strip()
            if name not in ("bev", "width", "height", "z", "pitch"):
                raise argparse.ArgumentTypeError(f"unknown weight {name!r}")
            try:
                fields[name] = float(value)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(f"bad value for {name!r}: {value!r}") from exc
    return fields


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidInputError(message)


def _require_pose(lf: LaneFile):
    _require(lf.pose is not None, "input file carries no camera pose")
    return lf.pose


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    spec = SceneSpec(
        profile=args.profile,
        lane_count=args.lanes,
        lane_width_m=args.lane_width,
        grade=tuple(args.grade) if args.grade is not None else None,
        bend_radius_m=args.bend_radius,
        bend_direction=args.bend_direction,
        gap_m=args.gap,
        crown_slope=args.crown,
        pitch_rad=math.radians(args.pitch_deg),
        height_m=args.height,
        y_start=args.y_start,
        y_end=args.y_end,
        point_spacing_m=args.spacing,
        pixel_jitter_px=args.jitter_px,
        seed=args.seed,
    )
    sample = make_scene(spec)
    if args.perturb_pitch_deg != 0:  # 0 skips; anything else meets perturb_pitch's range check
        sample = perturb_pitch(sample, args.perturb_pitch_deg, args.perturb_seed)
    write_lane_file(args.out, lane_file_from_sample(sample))
    _print_json(
        {
            "out": str(args.out),
            "profile": sample.resolved.profile,
            "n_lanes": len(sample.lanes3d),
            "pitch_deg": math.degrees(sample.pose.pitch_rad),
        }
    )
    return EXIT_OK


def cmd_calibrate(args) -> int:
    lf = read_lane_file(args.input)
    _require(len(lf.lanes_image) >= 2, "calibration needs at least two 2D lanes")
    _require(lf.intrinsics is not None, "input file carries no intrinsics")
    pose = _require_pose(lf)
    cfg = CalibConfig(y_close_m=args.y_close, max_iters=args.iters, tol_rad=args.tol)
    result = calibrate_pitch(lf.lanes_image, lf.intrinsics, pose.height_m, cfg)
    doc = {
        "pitch_deg": result.pitch_deg,
        "pitch_rad": result.pitch_rad,
        "n_lines": len(result.lines),
        "stderr_deg": math.degrees(result.stderr_rad),
        "iterations": result.iterations,
        "converged": result.converged,
    }
    if lf.true_pitch_deg is not None:
        doc["true_pitch_deg"] = lf.true_pitch_deg
        doc["abs_error_deg"] = abs(result.pitch_deg - lf.true_pitch_deg)
    if args.out:
        _write_json(args.out, doc)
    _print_json(doc)
    return EXIT_OK


def cmd_encode(args) -> int:
    lf = read_lane_file(args.input)
    _require(len(lf.lanes_bev) >= 1, "no flat-ground lanes to encode")
    grid = AnchorGridSpec.default()
    assignment = associate(lf.lanes_bev, grid)
    tensor = encode_gt(lf.lanes_bev, grid)
    lf.anchors = tensor
    write_lane_file(args.out, lf)
    _print_json(
        {
            "out": str(args.out),
            "active_layer1": int((tensor.prob[:, 0] >= PROB_ACTIVE_THRESHOLD).sum()),
            "active_layer2": int((tensor.prob[:, 1] >= PROB_ACTIVE_THRESHOLD).sum()),
            "dropped": [{"lane": i, "reason": r} for i, r in assignment.dropped],
        }
    )
    return EXIT_OK


def cmd_loss(args) -> int:
    weights = LossWeights(**args.weights)
    pred_lf = read_lane_file(args.pred)
    gt_lf = read_lane_file(args.gt)
    _require(pred_lf.anchors is not None, "prediction file carries no anchors")
    _require(gt_lf.anchors is not None, "ground-truth file carries no anchors")
    pitch_pair = {}
    if args.pred_pitch_deg is not None or args.calib_pitch_deg is not None:
        _require(
            args.pred_pitch_deg is not None and args.calib_pitch_deg is not None,
            "provide both --pred-pitch-deg and --calib-pitch-deg or neither",
        )
        pitch_pair = {
            "pred_pitch_rad": math.radians(args.pred_pitch_deg),
            "calib_pitch_rad": math.radians(args.calib_pitch_deg),
        }
    if args.mode == "weak":
        pose = _require_pose(gt_lf)
        breakdown = total_ws(
            pred_lf.anchors, gt_lf.anchors, pose, weights, normalize=args.normalize, **pitch_pair
        )
    else:
        breakdown = total_sup(
            pred_lf.anchors, gt_lf.anchors, weights, normalize=args.normalize, **pitch_pair
        )
    _print_json(breakdown.as_dict())
    return EXIT_OK


def cmd_fit(args) -> int:
    lf = read_lane_file(args.input)
    _require(len(lf.lanes_bev) >= 2, "height fitting needs at least two flat-ground lanes")
    pose = _require_pose(lf)
    grid = AnchorGridSpec.default()
    reference = encode_gt(lf.lanes_bev, grid)
    start = reference.copy()
    start.z[:] = 0.0
    cfg = FitConfig(
        max_steps=args.steps,
        tol=args.tol,
        include_first_step=args.include_first_step,
    )
    if args.mode == "weak":
        mask = second_layer_mask(reference)
        pin_step = args.pin_step
        if pin_step is None:
            pin_step = first_pinnable_step(start, pose, mask)
        pin_z = 0.0 if args.pin == "zero" else None
        fitted, report = fit_ws(start, pose, cfg, pin_step=pin_step, pin_z=pin_z, mask=mask)
    else:
        fitted, report = fit_sup(start, reference, cfg)
    gate = (reference.prob >= PROB_ACTIVE_THRESHOLD)[:, :, None] & (
        reference.vis >= VIS_DECODE_THRESHOLD
    )
    dz = fitted.z[gate] - reference.z[gate]
    rmse = float(np.sqrt(np.mean(dz * dz))) if dz.size else 0.0
    out_lf = LaneFile(
        intrinsics=lf.intrinsics,
        pose=pose,
        true_pitch_deg=lf.true_pitch_deg,
        lanes3d=decode(fitted, pose),
        anchors=fitted,
        meta=dict(lf.meta),
    )
    write_lane_file(args.out, out_lf)
    _print_json(
        {
            "out": str(args.out),
            "mode": args.mode,
            "initial_loss": report.initial_loss,
            "final_loss": report.final_loss,
            "n_steps": report.n_steps,
            "n_evals": report.n_evals,
            "converged": report.converged,
            "stop_reason": report.stop_reason,
            "pinned_step": report.pinned_step,
            "z_rmse_m": rmse,
        }
    )
    return EXIT_OK


def cmd_nms(args) -> int:
    lf = read_lane_file(args.input)
    _require(lf.anchors is not None, "input file carries no anchors")
    before = int((lf.anchors.prob[:, 0] >= PROB_ACTIVE_THRESHOLD).sum())
    lf.anchors = nms(lf.anchors, NmsConfig(d_thresh=args.d_thresh, prob_floor=args.prob_floor))
    after = int((lf.anchors.prob[:, 0] >= PROB_ACTIVE_THRESHOLD).sum())
    write_lane_file(args.out, lf)
    _print_json({"out": str(args.out), "before": before, "after": after, "suppressed": before - after})
    return EXIT_OK


def cmd_eval(args) -> int:
    pred_lf = read_lane_file(args.pred)
    gt_lf = read_lane_file(args.gt)
    cfg = EvalConfig(
        y_min=args.y_min,
        y_max=args.y_max,
        y_step=args.y_step,
        match_dist_m=args.match_dist,
        match_frac=args.match_frac,
        near_far_split_m=args.split,
    )
    result = evaluate(pred_lf.lanes3d, gt_lf.lanes3d, cfg=cfg)
    doc = result.as_dict()
    if args.out:
        _write_json(args.out, doc)
    _print_json(doc)
    return EXIT_OK


def cmd_plot(args) -> int:
    lf = read_lane_file(args.input)
    pred = read_lane_file(args.pred) if args.pred else None
    write_svg(args.out, lf, pred)
    _print_json({"out": str(args.out)})
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built on the first call and shared after it:
    parsing keeps no state in the parser, and building it costs more than
    parsing."""
    parser = _Parser(prog="bevlane", description=__doc__.splitlines()[0])
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene file")
    p.add_argument("--profile", choices=PROFILES, default="flat")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lanes", type=int, default=4)
    p.add_argument("--lane-width", type=float, default=3.7)
    p.add_argument("--grade", type=float, nargs=3, default=None, metavar=("C0", "C1", "C2"))
    p.add_argument("--bend-radius", type=float, default=None)
    p.add_argument("--bend-direction", type=int, choices=(-1, 1), default=None)
    p.add_argument("--gap", type=float, default=None)
    p.add_argument("--crown", type=float, default=0.0)
    p.add_argument("--pitch-deg", type=float, default=0.0)
    p.add_argument("--height", type=float, default=1.5)
    p.add_argument("--y-start", type=float, default=2.0)
    p.add_argument("--y-end", type=float, default=100.0)
    p.add_argument("--spacing", type=float, default=0.5)
    p.add_argument("--jitter-px", type=float, default=0.0)
    p.add_argument("--perturb-pitch-deg", type=float, default=0.0)
    p.add_argument("--perturb-seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("calibrate", help="estimate camera pitch from 2D lanes")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--y-close", type=float, default=10.0)
    p.add_argument("--iters", type=int, default=1)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("encode", help="rasterize flat-ground lanes onto anchors")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("loss", help="loss breakdown between two anchor files")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--mode", choices=("weak", "sup"), default="weak")
    p.add_argument("--weights", type=_weights_arg, default={})
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--pred-pitch-deg", type=float, default=None)
    p.add_argument("--calib-pitch-deg", type=float, default=None)
    p.set_defaults(func=cmd_loss)

    p = sub.add_parser("fit", help="recover heights from flat-ground labels")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("weak", "sup"), default="weak")
    p.add_argument("--steps", type=int, default=12000)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--pin", choices=("zero", "keep"), default="zero")
    p.add_argument("--pin-step", type=int, default=None)
    p.add_argument("--include-first-step", action="store_true")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("nms", help="suppress near-duplicate anchor candidates")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--d-thresh", type=float, default=0.05)
    p.add_argument("--prob-floor", type=float, default=0.0)
    p.set_defaults(func=cmd_nms)

    p = sub.add_parser("eval", help="score predicted 3D lanes against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--y-min", type=float, default=0.0)
    p.add_argument("--y-max", type=float, default=100.0)
    p.add_argument("--y-step", type=float, default=1.0)
    p.add_argument("--match-dist", type=float, default=1.5)
    p.add_argument("--match-frac", type=float, default=0.75)
    p.add_argument("--split", type=float, default=40.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("plot", help="render a scene (and optional prediction) to SVG")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--pred", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except LaneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
