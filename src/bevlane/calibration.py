"""Camera pitch self-calibration from 2D lane labels on near-straight road.

Back-project the labelled lane pixels onto the ground plane assuming some
pitch.  If the assumption is wrong by an angle, straight parallel lanes come
out as straight but non-parallel lines: a lane at lateral position x maps to

    x_flat = (x * sin(err) / h) * y_flat + x * cos(err)

so the fitted slopes k and intercepts c of all lanes lie on one line
k = k0 + c * tan(err) / h (the vanishing-point view of the error), and the
slope b of a weighted least-squares fit through them gives err = atan(h * b).

Only the near field (y_flat below y_close) is used: there the straight-lane
assumption holds best on real roads.  One iteration is exact for straight
lanes; further iterations refine noisy fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedError, InsufficientPointsError, InvalidInputError, require_finite
from .geometry import CameraPose, Intrinsics, flat_from_image_points

MIN_INTERCEPT_GAP_M = 0.2
_K_VAR_FLOOR = 1e-30  # exact, noiseless lines get equal finite weights


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
    k_var: float  # variance of k from the residuals, floored at _K_VAR_FLOOR


@dataclass
class CalibrationResult:
    pitch_rad: float
    lines: list[FittedLine]  # the last pass's lines
    stderr_rad: float  # standard error of the last pass's correction
    iterations: int
    converged: bool

    @property
    def pitch_deg(self) -> float:
        return math.degrees(self.pitch_rad)


def _fit_line(x: np.ndarray, y: np.ndarray) -> FittedLine:
    if x.size < 3 or y.min() == y.max():
        raise InsufficientPointsError(f"line fit needs >= 3 points at distinct y, got {x.size}")
    x_mean, y_mean = float(x.mean()), float(y.mean())
    dx, dy = x - x_mean, y - y_mean
    s_yy = float(dy @ dy)
    k = float(dy @ dx) / s_yy
    res = dx - k * dy
    k_var = max(float(res @ res) / (x.size - 2) / s_yy, _K_VAR_FLOOR)
    return FittedLine(k, x_mean - k * y_mean, int(x.size), k_var)


def _iterate_once(lanes_2d, intr, h, assumed_pitch, cfg) -> tuple[float, float, list[FittedLine]]:
    """(pitch correction, its standard error, the lines fitted) at one assumed pitch."""
    pose = CameraPose(pitch_rad=assumed_pitch, height_m=h)
    lines: list[FittedLine] = []
    for uv in lanes_2d:
        uv = np.asarray(uv, dtype=float)
        if uv.ndim != 2 or uv.shape[1] != 2:
            raise InvalidInputError("each 2D lane must be an (N, 2) pixel array")
        flat, ok = flat_from_image_points(uv, intr, pose)
        near = ok & (flat[:, 1] < cfg.y_close_m)
        try:
            lines.append(_fit_line(flat[near, 0], flat[near, 1]))
        except InsufficientPointsError:
            continue  # its slope has no variance to weigh it by
    if len(lines) < 2:
        raise InsufficientPointsError(
            f"only {len(lines)} lanes have >= 3 near points; calibration needs >= 2"
        )
    return (*_pitch_from_lines(lines, h), lines)


def _pitch_from_lines(lines: list[FittedLine], h: float) -> tuple[float, float]:
    """(atan(h b), its standard error) for the weighted least-squares fit k = a + b c."""
    k, c, k_var = np.array([(f.k, f.c, f.k_var) for f in lines]).T
    if c.max() - c.min() < MIN_INTERCEPT_GAP_M:
        raise IllConditionedError(
            f"lane intercepts span < {MIN_INTERCEPT_GAP_M} m; cannot separate slope from offset"
        )
    w = 1.0 / k_var
    dc, dk = c - (w @ c) / w.sum(), k - (w @ k) / w.sum()
    s_cc = float(w @ (dc * dc))
    b = float(w @ (dc * dk)) / s_cc
    # var(b) = 1 / s_cc, and d atan(h b) / db = h / (1 + (h b)^2)
    return math.atan(h * b), h / math.sqrt(s_cc) / (1.0 + (h * b) ** 2)


def calibrate_pitch(
    lanes_2d,
    intr: Intrinsics,
    h: float,
    cfg: CalibConfig = CalibConfig(),
) -> CalibrationResult:
    """Estimate camera pitch (nose-down positive, radians) from 2D lane labels.

    Each pass back-projects the labels at the current pitch, fits a line
    x = k y + c to every lane's near points (a lane with fewer than 3, or
    with all at one distance, is skipped), and fits k = a + b c by least
    squares over those lines, each weighted by the inverse variance of its
    slope.  The correction is atan(h b).  The result reports the last pass's
    lines and the standard error of its correction; `converged` needs a
    correction below `tol_rad`, so a single pass never confirms its own
    fixpoint.
    """
    if h <= 0:
        raise InvalidInputError("camera height must be positive")
    pitch = 0.0
    converged = False
    for iterations in range(1, cfg.max_iters + 1):
        delta, stderr, lines = _iterate_once(lanes_2d, intr, h, pitch, cfg)
        pitch += delta
        if abs(delta) < cfg.tol_rad:
            converged = True
            break
    return CalibrationResult(
        float(pitch), lines=lines, stderr_rad=stderr, iterations=iterations, converged=converged
    )
