"""Geometric losses over anchor tensors, with exact analytic gradients.

The two weak terms encode road priors instead of 3D labels: lane width stays
constant along the road, and adjacent lanes sit at equal height.  Width is
measured in 3D between points reconstructed from the flat-ground lateral
position and the height estimate, so its gradient flows into the heights; that
coupling is what lets purely 2D supervision pin down z.

Width at step j of a lane against its left neighbour is the distance to the
neighbour's chord, approximated as

    W_j = |P_j - A_j| * |A_j - B_j|_{x=0} / |A_j - B_j|

with A the neighbour's point at the same step, B its point one step closer
(one step farther for j = 0, where no closer point exists), and |.|_{x=0} the
norm with the lateral component zeroed.  When the cross-lane vector is purely
lateral this equals the exact point-to-line distance.

All L1 terms use the subgradient convention sign(0) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .anchors import PROB_ACTIVE_THRESHOLD, VIS_DECODE_THRESHOLD, AnchorTensor
from .errors import DegenerateSegmentError, InvalidInputError
from .geometry import CameraPose

_BCE_EPS = 1e-7
_TINY = 1e-15


@dataclass(frozen=True)
class LossWeights:
    """Per-term weights for the combined objectives; defaults are all 1."""

    bev: float = 1.0
    width: float = 1.0
    height: float = 1.0
    z: float = 1.0
    pitch: float = 1.0


class LossGrads:
    """Gradients of a scalar loss with respect to one tensor's fields."""

    def __init__(self, tensor: AnchorTensor):
        self.d_x_offsets = np.zeros_like(tensor.x_offsets)
        self.d_z = np.zeros_like(tensor.z)
        self.d_vis = np.zeros_like(tensor.vis)
        self.d_prob = np.zeros_like(tensor.prob)

    def add_scaled(self, other: "LossGrads", weight: float) -> None:
        self.d_x_offsets += weight * other.d_x_offsets
        self.d_z += weight * other.d_z
        self.d_vis += weight * other.d_vis
        self.d_prob += weight * other.d_prob

    def scale(self, factor: float) -> None:
        self.d_x_offsets *= factor
        self.d_z *= factor
        self.d_vis *= factor
        self.d_prob *= factor


@dataclass
class LossBreakdown:
    """Individual terms, their weighted total, and gradients for the predicted tensor."""

    l_bev: float = 0.0
    l_width: float = 0.0
    l_height: float = 0.0
    l_z: float = 0.0
    l_pitch: float = 0.0
    total: float = 0.0
    grads: LossGrads | None = None

    def as_dict(self) -> dict[str, float]:
        return {
            "l_bev": self.l_bev,
            "l_width": self.l_width,
            "l_height": self.l_height,
            "l_z": self.l_z,
            "l_pitch": self.l_pitch,
            "total": self.total,
        }


@dataclass
class WidthProfile:
    """Per adjacent-lane-pair, per-step 3D widths with validity flags."""

    widths: np.ndarray  # (n_pairs, n_steps)
    valid: np.ndarray  # (n_pairs, n_steps) bool
    pairs: list[tuple[int, int]] = field(default_factory=list)  # (left anchor, right anchor)


def second_layer_mask(tensor: AnchorTensor, threshold: float = PROB_ACTIVE_THRESHOLD) -> np.ndarray:
    """Per-anchor flag: True where the second layer is active.

    Near-coincident lines break the constant-width and equal-height priors, so
    weak-loss pairs touching such an anchor are dropped.
    """
    return tensor.prob[:, 1] >= threshold


def ordered_active_layer1(tensor: AnchorTensor) -> list[int]:
    """Indices of anchors with an active first layer, left to right at y_ref."""
    active = np.where(tensor.prob[:, 0] >= PROB_ACTIVE_THRESHOLD)[0]
    y_steps = tensor.grid.y_steps_array()
    abs_x = tensor.abs_x()
    keyed = [(float(np.interp(tensor.grid.y_ref, y_steps, abs_x[i, 0])), int(i)) for i in active]
    return [i for _, i in sorted(keyed)]


def _l1(value: np.ndarray, smooth_delta: float | None):
    """|value| or its smooth variant; returns (loss, dloss/dvalue) elementwise."""
    if smooth_delta is None:
        return np.abs(value), np.sign(value)
    d = smooth_delta
    small = np.abs(value) < d
    loss = np.where(small, value * value / (2 * d), np.abs(value) - d / 2)
    grad = np.where(small, value / d, np.sign(value))
    return loss, grad


def _chord_index(n_steps: int) -> np.ndarray:
    """Step of the neighbour chord endpoint B for each step: the previous one, the next at j=0."""
    return np.concatenate([[1], np.arange(0, n_steps - 1)])


def _pair_width_terms(tensor: AnchorTensor, pose: CameraPose, cur: int, prev: int):
    """Widths of lane `cur` against left neighbour `prev`, with parameter jacobians.

    Returns (widths, valid, chain, dz) where chain maps dLoss/dW coefficients
    into gradient arrays and dz = (dW/dz_cur, dW/dz_prev, dW/dz_prev[chord])
    holds, per step j, the partials in the three heights W_j touches: the
    lane's own at j, the neighbour's at j and the neighbour's at
    _chord_index(n_steps)[j].  Points are reconstructed from the flat-ground
    lateral position u and height z as (u*(h-z)/h, y*(h-z)/h, z).
    """
    grid = tensor.grid
    h = pose.height_m
    y_row = grid.y_steps_array()
    abs_x = tensor.abs_x()
    u_c, z_c = abs_x[cur, 0], tensor.z[cur, 0]
    u_p, z_p = abs_x[prev, 0], tensor.z[prev, 0]
    b_idx = _chord_index(grid.n_steps)

    def lift(u, z, rows):
        s = (h - z) / h
        return np.stack([u * s, rows * s, z], axis=-1)

    p = lift(u_c, z_c, y_row)
    a = lift(u_p, z_p, y_row)
    b = p_b = lift(u_p[b_idx], z_p[b_idx], y_row[b_idx])

    vis_c = tensor.vis[cur, 0] >= VIS_DECODE_THRESHOLD
    vis_p = tensor.vis[prev, 0] >= VIS_DECODE_THRESHOLD
    valid = vis_c & vis_p & vis_p[b_idx]

    pa = p - a
    n = np.linalg.norm(pa, axis=1)
    dvec = a - b
    d = np.linalg.norm(dvec, axis=1)
    if np.any(valid & (d < 1e-12)):
        raise DegenerateSegmentError("neighbour lane has coincident consecutive points")
    m = np.hypot(dvec[:, 1], dvec[:, 2])

    d_safe = np.where(d > _TINY, d, 1.0)
    n_safe = np.where(n > _TINY, n, 1.0)
    m_safe = np.where(m > _TINY, m, 1.0)
    widths = np.where(valid, n * m / d_safe, 0.0)

    # dW/dP, dW/dA, dW/dB for W = n*m/d; terms with vanishing norms get the
    # zero-subgradient convention.
    g_p = (m / d_safe)[:, None] * pa / n_safe[:, None]
    g_p[n <= _TINY] = 0.0
    yz_unit = np.stack([np.zeros_like(m), dvec[:, 1], dvec[:, 2]], axis=-1) / m_safe[:, None]
    yz_unit[m <= _TINY] = 0.0
    radial = (n * m / (d_safe * d_safe))[:, None] * dvec / d_safe[:, None]
    g_a = -g_p + (n / d_safe)[:, None] * yz_unit - radial
    g_b = -(n / d_safe)[:, None] * yz_unit + radial

    def chain(g, u, z, rows):
        du = g[:, 0] * (h - z) / h
        dz = -g[:, 0] * u / h - g[:, 1] * rows / h + g[:, 2]
        return du, dz

    du_p, dz_pt = chain(g_p, u_c, z_c, y_row)
    du_a, dz_a = chain(g_a, u_p, z_p, y_row)
    du_b, dz_b = chain(g_b, u_p[b_idx], z_p[b_idx], y_row[b_idx])

    def accumulate(coeff: np.ndarray, grads: LossGrads) -> None:
        grads.d_x_offsets[cur, 0] += coeff * du_p
        grads.d_z[cur, 0] += coeff * dz_pt
        grads.d_x_offsets[prev, 0] += coeff * du_a
        grads.d_z[prev, 0] += coeff * dz_a
        np.add.at(grads.d_x_offsets[prev, 0], b_idx, coeff * du_b)
        np.add.at(grads.d_z[prev, 0], b_idx, coeff * dz_b)

    return widths, valid, accumulate, (dz_pt, dz_a, dz_b)


def lane_width(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Width of a lane point p against the neighbour chord a -> b (3D points)."""
    p, a, b = (np.asarray(v, dtype=float) for v in (p, a, b))
    d = a - b
    norm = np.linalg.norm(d)
    if norm < 1e-12:
        raise DegenerateSegmentError("chord endpoints coincide")
    return float(np.linalg.norm(p - a) * math.hypot(d[1], d[2]) / norm)


def width_profile_3d(tensor: AnchorTensor, pose: CameraPose) -> WidthProfile:
    """3D widths between each adjacent pair of active layer-1 lanes.

    Entries are valid only where the lane point and both chord endpoints are
    visible.  Requires at least two active lanes.
    """
    order = ordered_active_layer1(tensor)
    if len(order) < 2:
        raise InvalidInputError("width profile needs at least two active lanes")
    widths, valid, pairs = [], [], []
    for prev, cur in zip(order[:-1], order[1:]):
        w, ok, _, _ = _pair_width_terms(tensor, pose, cur, prev)
        widths.append(w)
        valid.append(ok)
        pairs.append((prev, cur))
    return WidthProfile(np.stack(widths), np.stack(valid), pairs)


def width_loss(
    tensor: AnchorTensor,
    pose: CameraPose,
    mask: np.ndarray | None = None,
    *,
    normalize: bool = False,
    smooth_delta: float | None = None,
):
    """Sum of |W_j - W_{j-1}| over adjacent active lanes and consecutive steps.

    Pairs touching an anchor whose second layer is active are dropped (mask
    defaults to the tensor's own second-layer activity).  Returns the scalar
    and its gradients with respect to x_offsets and z.
    """
    if mask is None:
        mask = second_layer_mask(tensor)
    grads = LossGrads(tensor)
    order = ordered_active_layer1(tensor)
    total = 0.0
    n_terms = 0
    for prev, cur in zip(order[:-1], order[1:]):
        if mask[prev] or mask[cur]:
            continue
        w, ok, accumulate, _ = _pair_width_terms(tensor, pose, cur, prev)
        pair_ok = ok[1:] & ok[:-1]
        if not np.any(pair_ok):
            continue
        diff = np.where(pair_ok, w[1:] - w[:-1], 0.0)
        loss, dloss = _l1(diff, smooth_delta)
        total += float(loss[pair_ok].sum())
        n_terms += int(pair_ok.sum())
        coeff = np.zeros(tensor.grid.n_steps)
        coeff[1:] += np.where(pair_ok, dloss, 0.0)
        coeff[:-1] -= np.where(pair_ok, dloss, 0.0)
        accumulate(coeff, grads)
    if normalize and n_terms:
        total /= n_terms
        grads.scale(1.0 / n_terms)
    return total, grads


def height_loss(
    tensor: AnchorTensor,
    mask: np.ndarray | None = None,
    *,
    include_first_step: bool = False,
    normalize: bool = False,
    smooth_delta: float | None = None,
):
    """Sum of |z_cur - z_prev| across adjacent active lanes at mutually visible steps.

    The first step is excluded by default and can be included with a flag.
    Masking matches width_loss.
    """
    if mask is None:
        mask = second_layer_mask(tensor)
    grads = LossGrads(tensor)
    order = ordered_active_layer1(tensor)
    j0 = 0 if include_first_step else 1
    total = 0.0
    n_terms = 0
    for prev, cur in zip(order[:-1], order[1:]):
        if mask[prev] or mask[cur]:
            continue
        both = (tensor.vis[cur, 0] >= VIS_DECODE_THRESHOLD) & (
            tensor.vis[prev, 0] >= VIS_DECODE_THRESHOLD
        )
        both[:j0] = False
        if not np.any(both):
            continue
        diff = np.where(both, tensor.z[cur, 0] - tensor.z[prev, 0], 0.0)
        loss, dloss = _l1(diff, smooth_delta)
        total += float(loss[both].sum())
        n_terms += int(both.sum())
        step = np.where(both, dloss, 0.0)
        grads.d_z[cur, 0] += step
        grads.d_z[prev, 0] -= step
    if normalize and n_terms:
        total /= n_terms
        grads.scale(1.0 / n_terms)
    return total, grads


def weak_residuals(
    tensor: AnchorTensor,
    pose: CameraPose,
    free: np.ndarray,
    mask: np.ndarray | None = None,
    *,
    include_first_step: bool = False,
    weights: LossWeights = LossWeights(),
):
    """Residuals of the width and height terms, with their Jacobian in z[free].

    Rows are the width differences W_j - W_{j-1} and the height gaps
    z_cur - z_prev over exactly the pairs and steps that width_loss and
    height_loss sum, so sum(scale * |r|) is the weighted total of the two
    terms.  Each width touches three heights (see _pair_width_terms); heights
    outside the boolean (N, 2, Y) mask `free` are held fixed.  Returns
    (r, scale, jac) with jac of shape (r.size, free.sum()).
    """
    if mask is None:
        mask = second_layer_mask(tensor)
    n_steps = tensor.grid.n_steps
    n_free = int(free.sum())
    # column of each layer-1 height in the Jacobian; fixed heights go to an
    # extra column that is dropped at the end
    col = np.full(tensor.z.shape, n_free)
    col[free] = np.arange(n_free)
    col = col[:, 0]
    steps = np.arange(n_steps)
    chord = _chord_index(n_steps)
    vis = tensor.vis[:, 0] >= VIS_DECODE_THRESHOLD
    j0 = 0 if include_first_step else 1
    res, scale, jac = [np.empty(0)], [np.empty(0)], [np.empty((0, n_free + 1))]
    order = ordered_active_layer1(tensor)
    for prev, cur in zip(order[:-1], order[1:]):
        if mask[prev] or mask[cur]:
            continue
        w, ok, _, (dz_cur, dz_prev, dz_chord) = _pair_width_terms(tensor, pose, cur, prev)
        dw = np.zeros((n_steps, n_free + 1))
        dw[steps, col[cur]] += dz_cur
        dw[steps, col[prev]] += dz_prev
        dw[steps, col[prev, chord]] += dz_chord
        j = np.flatnonzero(ok[1:] & ok[:-1]) + 1
        res.append(w[j] - w[j - 1])
        scale.append(np.full(j.size, weights.width))
        jac.append(dw[j] - dw[j - 1])

        both = vis[cur] & vis[prev]
        both[:j0] = False
        j = np.flatnonzero(both)
        rows = np.arange(j.size)
        dh = np.zeros((j.size, n_free + 1))
        dh[rows, col[cur, j]] += 1.0
        dh[rows, col[prev, j]] -= 1.0
        res.append(tensor.z[cur, 0, j] - tensor.z[prev, 0, j])
        scale.append(np.full(j.size, weights.height))
        jac.append(dh)
    return np.concatenate(res), np.concatenate(scale), np.vstack(jac)[:, :n_free]


def _check_same_grid(pred: AnchorTensor, gt: AnchorTensor) -> None:
    if not pred.same_grid(gt):
        raise InvalidInputError("prediction and ground truth use different anchor grids")


def bev_loss(pred: AnchorTensor, gt: AnchorTensor, *, eps: float = _BCE_EPS, normalize: bool = False):
    """Flat-ground supervision: presence cross-entropy plus gated L1 terms.

    Cross-entropy on probabilities (clamped to [eps, 1-eps]) over every slot,
    then, gated by ground-truth presence, L1 on visibility-gated lateral error
    and L1 on the visibility flags themselves.
    """
    _check_same_grid(pred, gt)
    grads = LossGrads(pred)
    p = np.clip(pred.prob, eps, 1.0 - eps)
    p_hat = gt.prob
    bce = -(p_hat * np.log(p) + (1.0 - p_hat) * np.log(1.0 - p))
    interior = (pred.prob > eps) & (pred.prob < 1.0 - eps)
    grads.d_prob = np.where(interior, -p_hat / p + (1.0 - p_hat) / (1.0 - p), 0.0)

    gate = p_hat[:, :, None]
    dx = pred.x_offsets - gt.x_offsets
    x_term = gate * gt.vis * np.abs(dx)
    grads.d_x_offsets = gate * gt.vis * np.sign(dx)

    dv = pred.vis - gt.vis
    v_term = gate * np.abs(dv)
    grads.d_vis = gate * np.sign(dv)

    parts = [float(bce.sum()), float(x_term.sum()), float(v_term.sum())]
    if normalize:
        counts = [bce.size, max(1, int((gate * gt.vis > 0).sum())), max(1, int((gate > 0).sum()))]
        parts = [p / c for p, c in zip(parts, counts)]
        grads.d_prob /= counts[0]
        grads.d_x_offsets /= counts[1]
        grads.d_vis /= counts[2]
    return sum(parts), grads


def z_loss(
    pred: AnchorTensor,
    gt: AnchorTensor,
    *,
    normalize: bool = False,
    smooth_delta: float | None = None,
):
    """Full supervision on heights: presence- and visibility-gated L1 on z."""
    _check_same_grid(pred, gt)
    grads = LossGrads(pred)
    gate = gt.prob[:, :, None] * gt.vis
    per, dper = _l1(pred.z - gt.z, smooth_delta)
    total = float((gate * per).sum())
    grads.d_z = gate * dper
    if normalize:
        count = max(1, int((gate > 0).sum()))
        total /= count
        grads.scale(1.0 / count)
    return total, grads


def pitch_loss(pred_pitch_rad: float, calib_pitch_rad: float) -> float:
    """Absolute difference between predicted and self-calibrated pitch, radians."""
    return abs(float(pred_pitch_rad) - float(calib_pitch_rad))


def _combine(terms: dict[str, tuple[float, LossGrads | None, float]], tensor: AnchorTensor) -> LossBreakdown:
    out = LossBreakdown(grads=LossGrads(tensor))
    total = 0.0
    for name, (value, grads, weight) in terms.items():
        setattr(out, name, value)
        total += weight * value
        if grads is not None:
            out.grads.add_scaled(grads, weight)
    out.total = total
    return out


def total_ws(
    pred: AnchorTensor,
    gt: AnchorTensor,
    pose: CameraPose,
    weights: LossWeights = LossWeights(),
    *,
    pred_pitch_rad: float | None = None,
    calib_pitch_rad: float | None = None,
    mask: np.ndarray | None = None,
    normalize: bool = False,
    smooth_delta: float | None = None,
) -> LossBreakdown:
    """Weakly supervised objective: flat-ground supervision plus the two road priors.

    The pitch term participates only when both pitch values are given.
    """
    if mask is None:
        mask = second_layer_mask(gt)
    l_bev, g_bev = bev_loss(pred, gt, normalize=normalize)
    l_w, g_w = width_loss(pred, pose, mask, normalize=normalize, smooth_delta=smooth_delta)
    l_h, g_h = height_loss(pred, mask, normalize=normalize, smooth_delta=smooth_delta)
    l_p = _optional_pitch(pred_pitch_rad, calib_pitch_rad)
    return _combine(
        {
            "l_bev": (l_bev, g_bev, weights.bev),
            "l_width": (l_w, g_w, weights.width),
            "l_height": (l_h, g_h, weights.height),
            "l_pitch": (l_p, None, weights.pitch),
        },
        pred,
    )


def total_sup(
    pred: AnchorTensor,
    gt: AnchorTensor,
    weights: LossWeights = LossWeights(),
    *,
    pred_pitch_rad: float | None = None,
    calib_pitch_rad: float | None = None,
    normalize: bool = False,
) -> LossBreakdown:
    """Fully supervised objective: flat-ground supervision plus direct height L1."""
    l_bev, g_bev = bev_loss(pred, gt, normalize=normalize)
    l_z, g_z = z_loss(pred, gt, normalize=normalize)
    l_p = _optional_pitch(pred_pitch_rad, calib_pitch_rad)
    return _combine(
        {
            "l_bev": (l_bev, g_bev, weights.bev),
            "l_z": (l_z, g_z, weights.z),
            "l_pitch": (l_p, None, weights.pitch),
        },
        pred,
    )


def _optional_pitch(pred_pitch_rad, calib_pitch_rad) -> float:
    if (pred_pitch_rad is None) != (calib_pitch_rad is None):
        raise InvalidInputError("provide both pitch values or neither")
    if pred_pitch_rad is None:
        return 0.0
    return pitch_loss(pred_pitch_rad, calib_pitch_rad)


def finite_difference_gradient(f, x0: np.ndarray, step: float = 1e-6, indices=None) -> np.ndarray:
    """Central-difference gradient of scalar f at x0 over the given flat indices."""
    x0 = np.asarray(x0, dtype=float)
    flat = x0.ravel()
    indices = list(range(flat.size)) if indices is None else list(indices)
    grad = np.zeros(len(indices))
    for out_i, i in enumerate(indices):
        bumped = flat.copy()
        bumped[i] += step
        up = f(bumped.reshape(x0.shape))
        bumped[i] -= 2 * step
        down = f(bumped.reshape(x0.shape))
        grad[out_i] = (up - down) / (2 * step)
    return grad
