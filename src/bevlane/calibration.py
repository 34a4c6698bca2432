"""Camera pitch self-calibration from 2D lane labels on near-straight road.

Back-project the labelled lane pixels onto the ground plane assuming some
pitch.  If the assumption is wrong by an angle, straight parallel lanes come
out as straight but non-parallel lines: a lane at lateral position x maps to

    x_flat = (x * sin(err) / h) * y_flat + x * cos(err)

so slope and intercept of any two fitted lines give the error back as

    err = atan(h * (k2 - k1) / (c2 - c1)).

Only the near field (y_flat below y_close) is used: there the straight-lane
assumption holds best on real roads.  One iteration is exact for straight
lanes; further iterations refine noisy fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IllConditionedError, InsufficientPointsError, InvalidInputError, require_finite
from .geometry import CameraPose, Intrinsics, flat_from_image_points

MIN_INTERCEPT_GAP_M = 0.2


@dataclass(frozen=True)
class CalibConfig:
    """Near-field window, iteration count, and convergence tolerance."""

    y_close_m: float = 10.0
    max_iters: int = 1
    tol_rad: float = 1e-9

    def __post_init__(self):
        require_finite(self, ("y_close_m", "max_iters", "tol_rad"))
        if self.y_close_m <= 0:
            raise InvalidInputError("y_close must be positive")
        if self.max_iters < 1:
            raise InvalidInputError("need at least one iteration")
        if self.tol_rad < 0:
            raise InvalidInputError("tol_rad must be >= 0")


@dataclass(frozen=True)
class FittedLine:
    """Least-squares line x_flat = k * y_flat + c over the near field."""

    k: float
    c: float
    n_points: int
    residual: float  # RMS, meters


@dataclass(frozen=True)
class PairEstimate:
    """Pitch implied by one adjacent pair of fitted lines."""

    left: FittedLine
    right: FittedLine
    pitch_rad: float
    weight: float


@dataclass
class CalibrationResult:
    pitch_rad: float
    pairs: list[PairEstimate] = field(default_factory=list)
    dispersion_rad: float = 0.0
    iterations: int = 0
    converged: bool = False

    @property
    def pitch_deg(self) -> float:
        return math.degrees(self.pitch_rad)


def _fit_line(x: np.ndarray, y: np.ndarray) -> FittedLine:
    if x.size < 2:
        raise InsufficientPointsError(f"line fit needs >= 2 points, got {x.size}")
    k, c = np.polyfit(y, x, 1)
    residual = float(np.sqrt(np.mean((k * y + c - x) ** 2)))
    return FittedLine(float(k), float(c), int(x.size), residual)


def _pair_pitch(left: FittedLine, right: FittedLine, h: float) -> float:
    return math.atan(h * (right.k - left.k) / (right.c - left.c))


def _iterate_once(lanes_2d, intr, h, assumed_pitch, cfg) -> tuple[float, list[PairEstimate]]:
    pose = CameraPose(pitch_rad=assumed_pitch, height_m=h)
    lines: list[FittedLine] = []
    for uv in lanes_2d:
        uv = np.asarray(uv, dtype=float)
        if uv.ndim != 2 or uv.shape[1] != 2:
            raise InvalidInputError("each 2D lane must be an (N, 2) pixel array")
        flat, ok = flat_from_image_points(uv, intr, pose)
        near = ok & (flat[:, 1] < cfg.y_close_m)
        if near.sum() < 2:
            continue
        lines.append(_fit_line(flat[near, 0], flat[near, 1]))
    if len(lines) < 2:
        raise InsufficientPointsError(
            f"only {len(lines)} lanes have >= 2 near points; calibration needs >= 2"
        )
    lines.sort(key=lambda f: f.c)
    pairs: list[PairEstimate] = []
    for left, right in zip(lines[:-1], lines[1:]):
        if abs(right.c - left.c) < MIN_INTERCEPT_GAP_M:
            continue
        weight = (left.n_points + right.n_points) / (1.0 + left.residual + right.residual)
        pairs.append(PairEstimate(left, right, _pair_pitch(left, right, h), weight))
    if not pairs:
        raise IllConditionedError(
            f"all lane pairs are closer than {MIN_INTERCEPT_GAP_M} m in intercept; "
            "cannot separate slope from offset"
        )
    delta = sum(p.pitch_rad * p.weight for p in pairs) / sum(p.weight for p in pairs)
    return delta, pairs


def calibrate_pitch(
    lanes_2d,
    intr: Intrinsics,
    h: float,
    cfg: CalibConfig = CalibConfig(),
) -> CalibrationResult:
    """Estimate camera pitch (nose-down positive, radians) from 2D lane labels.

    Pairs are weighted by point count over (1 + fit residual); the aggregate
    always lies between the per-pair extremes.  Diagnostics report the last
    iteration's per-pair totals and their dispersion.
    """
    if h <= 0:
        raise InvalidInputError("camera height must be positive")
    pitch = 0.0
    pairs: list[PairEstimate] = []
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        delta, raw_pairs = _iterate_once(lanes_2d, intr, h, pitch, cfg)
        # report per-pair totals, not per-iteration corrections
        pairs = [
            PairEstimate(p.left, p.right, pitch + p.pitch_rad, p.weight) for p in raw_pairs
        ]
        pitch += delta
        if abs(delta) < cfg.tol_rad:
            converged = True
            break
    estimates = np.array([p.pitch_rad for p in pairs])
    dispersion = float(estimates.std()) if estimates.size > 1 else 0.0
    return CalibrationResult(
        pitch_rad=float(pitch),
        pairs=pairs,
        dispersion_rad=dispersion,
        iterations=iterations,
        converged=converged,
    )
