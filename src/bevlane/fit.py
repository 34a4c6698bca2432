"""Height recovery from flat-ground labels, by closed form and by direct minimization.

The point being demonstrated: the z channel never appears in the 2D labels,
yet minimizing the width- and height-consistency terms over z (everything else
frozen) recovers the true elevation profile.  The losses only see z through
the lift x = x' * (h - z) / h, so a one-parameter scale family of profiles is
loss-equivalent; pinning the height at a single step removes it.

`closed_form_z` is the non-iterative version of the same fact for straight
constant-width roads: measured row gaps W'_j satisfy W'_j (h - z_j) = const,
so declaring the height z_ref at one reference step determines every other
step as z_j = h - (h - z_ref) * W'_ref / W'_j.  It doubles as an independent
oracle for the iterative fit.

`fit_ws` starts from that closed form, which is exact on straight roads and
close on bends.  The exact L1 objective over the residual vector behind the
two terms (width differences and height gaps, with their Jacobian in z) is
then minimized by sequential linear programming: each step minimizes the L1
norm of the linearized residuals inside a trust region, and a step whose
predicted decrease is at most `tol` certifies a first-order L1 stationary
point.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .anchors import AnchorTensor, PROB_ACTIVE_THRESHOLD, VIS_DECODE_THRESHOLD
from .errors import DivergedError, InvalidInputError, NumericError, require_finite
from .geometry import CameraPose
from .losses import (
    LossWeights,
    _check_same_grid,
    _pairs,
    _widths,
    second_layer_mask,
    weak_residuals,
)

log = logging.getLogger(__name__)

# first trust radius of the sequential LP, in metres of height.  From the
# closed form, the first LP of a plain bend (seeds 0-19) moves the heights by
# 0.04-0.07 m, which 0.05 clipped.  Every radius tried from 0.1 to 5 gave the
# same LP counts there: at most 5 per fit, mean 4.45; 0.05 needed up to 8,
# mean 5.55
_RADIUS0 = 0.2
# a fit stalls when its loss fell by less than this fraction over its last
# window of accepted steps; rejected steps only shrink the trust radius and
# are left out of the window.  The LPs approach minima that are not vertices
# (crowned roads) this slowly; vertex minima end as stationary long before
_WINDOW = 10
_MIN_PROGRESS = 1e-2
# how a fit may stop; only the first two mean it converged
STOP_REASONS = ("target", "stationary", "stalled", "max_steps")


@dataclass(frozen=True)
class FitConfig:
    """Budget and objective of the fits.

    The objective is the weighted sum of the residual magnitudes (exact L1),
    minimized by sequential LP; `max_steps` bounds the LP solves.  A fit
    converges once the loss is at most `tol` ("target"), or once no step is
    predicted to lower it by more than `tol` ("stationary"); otherwise it
    ends "stalled" or at "max_steps".
    """

    max_steps: int = 12000
    tol: float = 1e-12
    weights: LossWeights = LossWeights()
    include_first_step: bool = False

    def __post_init__(self):
        require_finite(self, ("max_steps", "tol"))
        if self.max_steps < 1:
            raise InvalidInputError("max_steps must be positive")
        if self.tol < 0:
            raise InvalidInputError("tol must be >= 0")


@dataclass
class FitReport:
    """Outcome of a fit, scored on the exact L1 objective throughout.

    `history` holds the loss of the start, then the loss after each LP
    solved (unchanged after a rejected step); `stop_reason` is one of
    STOP_REASONS, and `converged` is True only for "target" and
    "stationary".
    """

    initial_loss: float
    final_loss: float
    n_steps: int
    n_evals: int
    converged: bool
    pinned_step: int | None
    stop_reason: str
    history: list[float] = field(default_factory=list)


def bev_row_widths(tensor: AnchorTensor, mask: np.ndarray | None = None):
    """Per-step lateral gaps between laterally adjacent active layer-1 lanes.

    Gaps are plain differences of flat-ground x at the same step, the quantity
    the closed form needs; both anchors must be visible at the step.  The
    pairs are the weak losses' pairs: none touches a masked lane.  Returns
    (widths (P, Y), valid (P, Y), pairs) like the 3D width profile.
    """
    if mask is None:
        mask = second_layer_mask(tensor)
    prev, cur = _pairs(tensor, mask)
    if prev.size == 0:
        raise InvalidInputError("need two adjacent active unmasked lanes")
    abs_x = tensor.abs_x()
    vis = tensor.vis >= VIS_DECODE_THRESHOLD
    widths = np.abs(abs_x[cur, 0] - abs_x[prev, 0])
    valid = vis[prev, 0] & vis[cur, 0]
    return widths, valid, list(zip(prev.tolist(), cur.tolist()))


def closed_form_z(
    widths: np.ndarray,
    height_m: float,
    ref_index: int | None = None,
    ref_z: float = 0.0,
):
    """z_j = h - (h - z_ref) * W_ref / W_j for a per-step width sequence.

    Scaling every camera-to-road distance (h - z_j) by a common factor leaves
    all width ratios unchanged, so the profile is determined only once one
    step's height is declared; `ref_z` is that declaration (default 0, the
    same gauge the iterative fit pins).  Non-finite or non-positive widths
    are treated as missing.  The reference defaults to the first usable step.
    Returns (z, valid, ref_index).
    """
    w = np.asarray(widths, dtype=float)
    if w.ndim != 1:
        raise InvalidInputError("widths must be one-dimensional")
    if not np.isfinite(ref_z) or ref_z >= height_m:
        raise InvalidInputError("ref_z must be finite and below the camera height")
    usable = np.isfinite(w) & (w > 0)
    if ref_index is None:
        idx = np.flatnonzero(usable)
        if idx.size == 0:
            raise InvalidInputError("no usable widths")
        ref_index = int(idx[0])
    if not usable[ref_index]:
        raise InvalidInputError(f"reference step {ref_index} has no usable width")
    z = np.full(w.shape, np.nan)
    z[usable] = height_m - (height_m - ref_z) * (w[ref_index] / w[usable])
    return z, usable, ref_index


def closed_form_z_profile(
    tensor: AnchorTensor,
    pose: CameraPose,
    mask: np.ndarray | None = None,
    *,
    ref_index: int | None = None,
    ref_z: float = 0.0,
):
    """Closed-form height per anchor step from the mean flat-ground row gap.

    Valid on straight constant-width scenes, where every lane pair measures
    the same gap and the true width is constant; the mean then loses nothing.
    Returns (z (Y,), valid (Y,), ref_index).
    """
    widths, valid, _ = bev_row_widths(tensor, mask)
    any_valid = valid.any(axis=0)
    mean_w = np.full(tensor.grid.n_steps, np.nan)
    for j in np.flatnonzero(any_valid):
        mean_w[j] = widths[valid[:, j], j].mean()
    return closed_form_z(mean_w, pose.height_m, ref_index=ref_index, ref_z=ref_z)


def _require_finite(loss, jac, history):
    if not np.isfinite(loss) or not np.all(np.isfinite(jac)):
        raise DivergedError("loss or its derivative became non-finite", trace=history[-50:])


def _stalled(accepted):
    """True when the loss fell by at most _MIN_PROGRESS of itself over the last
    _WINDOW accepted steps."""
    if len(accepted) <= _WINDOW:
        return False
    before = accepted[-1 - _WINDOW]
    return before - accepted[-1] <= _MIN_PROGRESS * before


def _sequential_lp(p, evaluate, *, max_steps, target):
    """Exact-L1 minimization of sum(scale * |r|) by sequential linear programming.

    Each step linearizes r(p + d) ~ r + J d and solves
    min sum(scale * |r + J d|) subject to |d|_inf <= radius, as the LP
    r + J d = t+ - t-, t+/- >= 0 (l1 SLP: Osborne & Watson 1971; Fletcher,
    Practical Methods of Optimization, ch. 14).  The ratio of actual to
    predicted decrease halves or doubles the trust radius; only steps that
    lower the loss are taken, and only those count toward a stall.  The
    model is convex, so a predicted decrease of at most `target` certifies
    a first-order stationary point.  Returns (p, losses, n_evals, reason);
    each LP solved is a step, and losses holds the start's loss, then the
    loss after each step.
    """
    r, scale, jac = evaluate(p)
    loss = float(scale @ np.abs(r))
    losses = [loss]
    _require_finite(loss, jac, losses)
    if loss <= target:
        return p, losses, 1, "target"
    if p.size == 0:
        log.warning("nothing to optimize: no free z entries")
        return p, losses, 1, "stationary"
    from scipy.optimize import linprog

    n, m = p.size, r.size
    cost = np.concatenate([np.zeros(n), scale, scale])
    bounds = np.zeros((n + 2 * m, 2))
    bounds[n:, 1] = np.inf
    eye = np.eye(m)
    radius = _RADIUS0
    accepted = [loss]
    n_evals = 1
    reason = "max_steps"
    for step in range(max_steps):
        # heights no residual depends on stay where they are
        bounds[:n, 1] = np.where(np.any(jac != 0, axis=0), radius, 0.0)
        bounds[:n, 0] = -bounds[:n, 1]
        # presolve took 15-25% of the time of each of these LPs, a few hundred
        # dense columns (captured plain bend LPs, timed with and without)
        lp = linprog(
            cost, A_eq=np.hstack([jac, -eye, eye]), b_eq=-r, bounds=bounds, method="highs",
            options={"presolve": False},
        )
        if lp.status != 0:
            raise NumericError(f"LP step {step} failed: {lp.message}")
        d = lp.x[:n]
        predicted = loss - float(scale @ np.abs(r + jac @ d))
        if predicted <= target:
            losses.append(loss)
            reason = "stationary"
            break
        r_c, _, jac_c = evaluate(p + d)
        f_c = float(scale @ np.abs(r_c))
        n_evals += 1
        _require_finite(f_c, jac_c, losses + [f_c])
        length = float(np.abs(d).max())
        ratio = (loss - f_c) / predicted
        if ratio < 0.25:
            radius = 0.5 * length
        elif ratio > 0.75:
            radius = max(radius, 2.0 * length)
        if f_c < loss:
            p, r, jac, loss = p + d, r_c, jac_c, f_c
            accepted.append(loss)
        losses.append(loss)
        if loss <= target:
            reason = "target"
            break
        if _stalled(accepted):
            reason = "stalled"
            break
    return p, losses, n_evals, reason


def _solve(work, free, residuals, cfg: FitConfig, pin_step):
    """Minimize the exact L1 objective over work.z[free] and write the result back.

    residuals(p) returns (r, scale, jac) at heights p.  Returns (work, FitReport).
    """
    p, history, n_evals, reason = _sequential_lp(
        work.z[free], residuals, max_steps=cfg.max_steps, target=cfg.tol
    )
    n_steps = len(history) - 1
    if reason not in ("target", "stationary"):
        log.info("fit stopped %s after %d steps", reason, n_steps)
    work.z[free] = p
    return work, FitReport(
        initial_loss=history[0], final_loss=history[-1], n_steps=n_steps, n_evals=n_evals,
        converged=reason in ("target", "stationary"), pinned_step=pin_step,
        stop_reason=reason, history=history,
    )


def _closed_form_start(work, pose, mask, free, pin_step, pin_value):
    """Set the free heights to the closed form in the gauge of the pinned height.

    Heights where the closed form has no value start at 0.  Leaves the
    tensor as it is when the closed form has no value at the pin step, or
    the pinned height is at or above the camera.
    """
    try:
        z, valid, _ = closed_form_z_profile(work, pose, mask, ref_index=pin_step, ref_z=pin_value)
    except InvalidInputError:
        return
    work.z[free] = np.broadcast_to(np.where(valid, z, 0.0), work.z.shape)[free]


def _solve_weak(work, pose, cfg: FitConfig, free, mask, pin_step):
    """fit_ws's solve from the heights already in `work`."""

    def residuals(p):
        work.z[free] = p
        return weak_residuals(
            work, pose, free, mask, include_first_step=cfg.include_first_step, weights=cfg.weights,
        )

    return _solve(work, free, residuals, cfg, pin_step)


def _free_z_mask(tensor: AnchorTensor, mask: np.ndarray) -> np.ndarray:
    """Entries of z that the weak losses can actually see."""
    free = np.zeros(tensor.z.shape, dtype=bool)
    active = (tensor.prob[:, 0] >= PROB_ACTIVE_THRESHOLD) & ~mask
    free[active, 0, :] = tensor.vis[active, 0, :] >= VIS_DECODE_THRESHOLD
    return free


def first_pinnable_step(tensor: AnchorTensor, pose: CameraPose, mask: np.ndarray | None = None) -> int:
    """First anchor step that a width measures directly.

    The pin must sit where a width column reads the lane position itself, not
    merely its chord; a chord-only step constrains the scale family so weakly
    that the fit's flattest mode drifts.  Gauge-sensitive comparisons against
    the closed form should reference this same step.
    """
    if mask is None:
        mask = second_layer_mask(tensor)
    valid = _widths(tensor, pose, *_pairs(tensor, mask))[1]
    cols = np.flatnonzero(valid.any(axis=0))
    if cols.size == 0:
        raise InvalidInputError("no step has a valid width pair; nothing to pin")
    return int(cols[0])


def fit_ws(
    tensor: AnchorTensor,
    pose: CameraPose,
    cfg: FitConfig = FitConfig(),
    pin_step: int | None = None,
    pin_z: float | np.ndarray | None = 0.0,
    mask: np.ndarray | None = None,
):
    """Recover the z channel by minimizing the width and height terms alone.

    Everything except z is frozen; the z column at `pin_step` (default: the
    first step with a valid width pair) is set to `pin_z` and held fixed to
    remove the scale freedom.  The default pin of 0 declares the road flat at
    the nearest measured step, the same gauge `closed_form_z` uses; pass
    pin_z=None to keep the values already in the tensor instead.  The free
    heights start at `closed_form_z_profile` in the gauge of the pin; the
    heights in the tensor are the start only when the pinned heights differ
    between lanes or the closed form has no value at the pin.  Returns a new
    tensor and a FitReport; the input is not modified.
    """
    if mask is None:
        mask = second_layer_mask(tensor)
    if pin_step is None:
        pin_step = first_pinnable_step(tensor, pose, mask)
    if not (0 <= pin_step < tensor.grid.n_steps):
        raise InvalidInputError(f"pin_step {pin_step} out of range")
    work = tensor.copy()
    if pin_z is not None:
        work.z[:, :, pin_step] = pin_z
    free = _free_z_mask(work, mask)
    pinned = np.unique(work.z[:, :, pin_step][free[:, :, pin_step]])
    free[:, :, pin_step] = False
    if pinned.size == 1:
        _closed_form_start(work, pose, mask, free, pin_step, float(pinned[0]))
    return _solve_weak(work, pose, cfg, free, mask, pin_step)


def fit_sup(
    tensor: AnchorTensor,
    gt: AnchorTensor,
    cfg: FitConfig = FitConfig(),
):
    """Supervised counterpart: minimize the direct z regression loss instead.

    Exists to compare against the weak route on equal footing, through the
    same solver; the residual is z - z_gt with an identity Jacobian, so the
    minimizer is the ground-truth z itself and no pin is needed.
    """
    _check_same_grid(tensor, gt)
    work = tensor.copy()
    free = (gt.prob >= PROB_ACTIVE_THRESHOLD)[:, :, None] & (gt.vis >= VIS_DECODE_THRESHOLD)
    gate = gt.prob[:, :, None] * gt.vis
    seen = gate > 0
    scale = cfg.weights.z * gate[seen]
    jac = np.eye(scale.size)[:, free[seen]]

    def residuals(p):
        work.z[free] = p
        return work.z[seen] - gt.z[seen], scale, jac

    return _solve(work, free, residuals, cfg, None)
