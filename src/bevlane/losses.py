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
from dataclasses import dataclass

import numpy as np

from .anchors import PROB_ACTIVE_THRESHOLD, VIS_DECODE_THRESHOLD, AnchorTensor
from .errors import DegenerateSegmentError, InvalidInputError, require_within
from .geometry import CameraPose, masked_row_sums

_BCE_EPS = 1e-7
_TINY = 1e-15


@dataclass(frozen=True)
class LossWeights:
    """Per-term weights for the combined objectives; defaults are all 1.

    Each weight lies in [0, 1e6]: 0 switches a term off, and 1e6 lets one
    term outweigh another by six orders of magnitude without overflowing
    the weighted gradients.
    """

    bev: float = 1.0
    width: float = 1.0
    height: float = 1.0
    z: float = 1.0
    pitch: float = 1.0

    def __post_init__(self):
        require_within(self, dict.fromkeys(("bev", "width", "height", "z", "pitch"), (0.0, 1e6)))


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
    if not (math.isfinite(d) and d > 0):
        raise InvalidInputError(f"smooth_delta must be positive and finite, got {d!r}")
    small = np.abs(value) < d
    loss = np.where(small, value * value / (2 * d), np.abs(value) - d / 2)
    grad = np.where(small, value / d, np.sign(value))
    return loss, grad


def _chord_index(n_steps: int) -> np.ndarray:
    """Step of the neighbour chord endpoint B for each step: the previous one, the next at j=0."""
    return np.concatenate([[1], np.arange(0, n_steps - 1)])


def _pairs(tensor: AnchorTensor, mask: np.ndarray | None = None):
    """Left and right anchors (P,) of laterally adjacent active layer-1 lanes.

    Pairs run left to right; with a mask, pairs touching a masked anchor are
    dropped.
    """
    order = np.array(ordered_active_layer1(tensor), dtype=int)
    prev, cur = order[:-1], order[1:]
    if mask is None:
        return prev, cur
    mask = np.asarray(mask)
    keep = ~np.logical_or(mask[prev], mask[cur])
    return prev[keep], cur[keep]


def _widths(tensor: AnchorTensor, pose: CameraPose, prev: np.ndarray, cur: np.ndarray):
    """Widths of lanes `cur` against their left neighbours `prev`, all pairs at once.

    Returns (widths, valid, partials).  widths and valid are (P, Y).  W_j
    touches three points: the lane's own at step j, the neighbour's at j and
    the neighbour's at _chord_index(Y)[j].  partials = (points, du, dz):
    points = (lanes (3, P, 1), steps (3, 1, Y)) names them, and du, dz
    (3, P, Y) hold the partials of W_j in the flat-ground lateral position u
    and the height z there.
    Points are reconstructed from u and z as (u*(h-z)/h, y*(h-z)/h, z).
    """
    h = pose.height_m
    step = np.arange(tensor.grid.n_steps)
    lanes = np.stack([cur, prev, prev])[:, :, None]
    steps = np.stack([step, step, _chord_index(step.size)])[:, None, :]
    u = tensor.abs_x()[lanes, 0, steps]
    z = tensor.z[lanes, 0, steps]
    y = tensor.grid.y_steps_array()[steps]
    vis = tensor.vis[lanes, 0, steps] >= VIS_DECODE_THRESHOLD
    valid = vis[0] & vis[1] & vis[2]

    s = (h - z) / h
    p, a, b = np.stack([u * s, y * s, z], axis=-1)
    pa = p - a
    n = np.linalg.norm(pa, axis=-1)
    dvec = a - b
    d = np.linalg.norm(dvec, axis=-1)
    if np.any(valid & (d < 1e-12)):
        raise DegenerateSegmentError("neighbour lane has coincident consecutive points")
    m = np.hypot(dvec[..., 1], dvec[..., 2])

    d_safe = np.where(d > _TINY, d, 1.0)
    n_safe = np.where(n > _TINY, n, 1.0)
    m_safe = np.where(m > _TINY, m, 1.0)
    widths = np.where(valid, n * m / d_safe, 0.0)

    # dW/dP, dW/dA, dW/dB for W = n*m/d; terms with vanishing norms get the
    # zero-subgradient convention.
    g_p = (m / d_safe)[..., None] * pa / n_safe[..., None]
    g_p[n <= _TINY] = 0.0
    yz_unit = np.stack([np.zeros_like(m), dvec[..., 1], dvec[..., 2]], axis=-1) / m_safe[..., None]
    yz_unit[m <= _TINY] = 0.0
    radial = (n * m / (d_safe * d_safe))[..., None] * dvec / d_safe[..., None]
    g_a = -g_p + (n / d_safe)[..., None] * yz_unit - radial
    g_b = -(n / d_safe)[..., None] * yz_unit + radial

    g = np.stack([g_p, g_a, g_b])
    du = g[..., 0] * (h - z) / h
    dz = -g[..., 0] * u / h - g[..., 1] * y / h + g[..., 2]
    return widths, valid, ((lanes, steps), du, dz)


def _width_rows(widths: np.ndarray, valid: np.ndarray):
    """Rows W_j - W_{j-1} (P, Y) and where they count: both widths valid, j >= 1."""
    keep = np.zeros_like(valid)
    keep[:, 1:] = valid[:, 1:] & valid[:, :-1]
    return np.diff(widths, prepend=0.0), keep


def _height_rows(tensor: AnchorTensor, prev: np.ndarray, cur: np.ndarray, include_first_step: bool):
    """Rows z_cur - z_prev (P, Y) and where they count: both lanes visible, and
    past the first step unless it is included."""
    vis = tensor.vis[:, 0] >= VIS_DECODE_THRESHOLD
    keep = vis[cur] & vis[prev]
    keep[:, : 0 if include_first_step else 1] = False
    return tensor.z[cur, 0] - tensor.z[prev, 0], keep


def _pairwise_total(terms: np.ndarray, keep: np.ndarray) -> float:
    """Sum of terms (P, Y) over keep: per pair, then the pair sums left to right.

    Summing each pair on its own keeps a loss equal to the sum of its pairs'
    losses bit for bit, however many pairs share the batch.
    """
    if keep.shape[0] == 0:
        return 0.0
    return float(masked_row_sums(terms, keep).cumsum()[-1])


def _l1_loss(tensor, value, keep, partials, smooth_delta, normalize, spread=None):
    """Sum of the L1 (or smoothed) terms of value (P, Y) over keep, with LossGrads.

    The tensor enters value through quantities q (P, Y) whose partials =
    (points, du, dz), du and dz (K, P, Y), hold dq in the layer-1 lateral
    positions and heights at points = (lanes, steps); du None means none in
    the positions.  spread maps dloss/dvalue to dloss/dq (default: value is q).
    """
    points, du, dz = partials
    loss, dloss = _l1(np.where(keep, value, 0.0), smooth_delta)
    total, n_terms = _pairwise_total(loss, keep), int(keep.sum())
    coeff = dloss if spread is None else spread(dloss)
    grads = LossGrads(tensor)
    if du is not None:
        np.add.at(grads.d_x_offsets[:, 0], points, coeff * du)
    np.add.at(grads.d_z[:, 0], points, coeff * dz)
    if normalize and n_terms:
        total /= n_terms
        grads.scale(1.0 / n_terms)
    return total, grads


def _spread_rows(coeff: np.ndarray) -> np.ndarray:
    """dloss/dW_j from dloss per row: W_j enters row j with + and row j + 1 with -."""
    out = coeff.copy()
    out[:, :-1] -= coeff[:, 1:]
    return out


def lane_width(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Width of a lane point p against the neighbour chord a -> b (3D points)."""
    p, a, b = (np.asarray(v, dtype=float) for v in (p, a, b))
    d = a - b
    norm = np.linalg.norm(d)
    if norm < 1e-12:
        raise DegenerateSegmentError("chord endpoints coincide")
    return float(np.linalg.norm(p - a) * math.hypot(d[1], d[2]) / norm)


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
    widths, valid, partials = _widths(tensor, pose, *_pairs(tensor, mask))
    value, keep = _width_rows(widths, valid)
    return _l1_loss(tensor, value, keep, partials, smooth_delta, normalize, _spread_rows)


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
    prev, cur = _pairs(tensor, mask)
    value, keep = _height_rows(tensor, prev, cur, include_first_step)
    points = (np.stack([cur, prev])[:, :, None], np.arange(tensor.grid.n_steps))
    partials = (points, None, np.array([1.0, -1.0])[:, None, None])
    return _l1_loss(tensor, value, keep, partials, smooth_delta, normalize)


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
    terms.  They run pair by pair, left to right, each pair's width rows
    before its height rows.  Each width touches three heights (see _widths);
    heights outside the boolean (N, 2, Y) mask `free` are held fixed.
    Returns (r, scale, jac) with jac of shape (r.size, free.sum()).
    """
    if mask is None:
        mask = second_layer_mask(tensor)
    prev, cur = _pairs(tensor, mask)
    widths, valid, (points, _, dz) = _widths(tensor, pose, prev, cur)
    w_value, w_keep = _width_rows(widths, valid)
    h_value, h_keep = _height_rows(tensor, prev, cur, include_first_step)
    keep = np.stack([w_keep, h_keep], axis=1)
    row = np.cumsum(keep).reshape(keep.shape) - 1
    r = np.stack([w_value, h_value], axis=1)[keep]
    scale = np.array([weights.width, weights.height], dtype=float)[np.nonzero(keep)[1]]

    n_free = int(free.sum())
    # column of each layer-1 height in the Jacobian; fixed heights go to an
    # extra column that is dropped at the end
    col = np.full(tensor.z.shape, n_free)
    col[free] = np.arange(n_free)
    col = col[:, 0]
    jac = np.zeros((r.size, n_free + 1))
    # row j takes +dW_j and -dW_{j-1}; a cell gets at most one of each, so
    # adding every + before any - rounds it as the difference of the two
    ok = w_keep[:, 1:]
    w_rows = row[:, 0, 1:][ok]
    cols = col[points]
    np.add.at(jac, (w_rows, cols[..., 1:][:, ok]), dz[..., 1:][:, ok])
    np.add.at(jac, (w_rows, cols[..., :-1][:, ok]), -dz[..., :-1][:, ok])
    h_rows = row[:, 1][h_keep]
    jac[h_rows, col[cur][h_keep]] += 1.0
    jac[h_rows, col[prev][h_keep]] -= 1.0
    return r, scale, jac[:, :n_free]


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
    if not (math.isfinite(pred_pitch_rad) and math.isfinite(calib_pitch_rad)):
        raise InvalidInputError("pitch values must be finite")
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

