"""Lane-level evaluation: assignment, F-score, AP, localization error, chamfer.

Lanes are compared after resampling onto a fixed forward-distance grid, once
per lane; a prediction matches a ground-truth lane when at least 75 percent of
the points on their mutual span lie within 1.5 m (x-z distance at equal y).
One-to-one assignment on one cost matrix over all pairs picks the cheapest
consistent pairing.  Localization errors are
pooled per point over matched pairs and split at 40 m into a near and a far
band.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, require_finite
from .geometry import Lane3D, masked_row_sums, resample_lane3d_xz

_FORBIDDEN = 1e9  # large finite cost; keeps the assignment solver happy
# (y_max - y_min) / y_step above this is refused; the default grid has 101 steps
_MAX_GRID_SAMPLES = 100_000


@dataclass(frozen=True)
class EvalConfig:
    y_min: float = 0.0
    y_max: float = 100.0
    y_step: float = 1.0
    match_dist_m: float = 1.5
    match_frac: float = 0.75
    min_overlap_points: int = 2
    near_far_split_m: float = 40.0

    def __post_init__(self):
        require_finite(self, ("y_min", "y_max", "y_step", "match_dist_m", "match_frac",
                              "min_overlap_points", "near_far_split_m"))
        if not (0 <= self.y_min < self.y_max):
            raise InvalidInputError("require 0 <= y_min < y_max")
        if self.y_step <= 0 or self.match_dist_m <= 0:
            raise InvalidInputError("y_step and match_dist_m must be positive")
        if (self.y_max - self.y_min) / self.y_step > _MAX_GRID_SAMPLES:
            raise InvalidInputError(f"(y_max - y_min) / y_step exceeds {_MAX_GRID_SAMPLES} samples")
        if not (0 < self.match_frac <= 1):
            raise InvalidInputError("match_frac must lie in (0, 1]")
        if self.min_overlap_points < 1:
            raise InvalidInputError("min_overlap_points must be at least 1")

    def y_grid(self) -> np.ndarray:
        return np.arange(self.y_min, self.y_max + 1e-9, self.y_step)


@dataclass
class LaneMatch:
    gt_index: int
    pred_index: int
    cost: float  # mean x-z distance over the mutual span
    n_overlap: int


@dataclass
class EvalResult:
    precision: float  # percent
    recall: float
    f1: float
    ap: float
    x_near: float  # meters, pooled mean absolute lateral error up to the split
    x_far: float
    z_near: float
    z_far: float
    chamfer_m: float
    n_gt: int
    n_pred: int
    matches: list[LaneMatch] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "ap": self.ap,
            "x_near": self.x_near,
            "x_far": self.x_far,
            "z_near": self.z_near,
            "z_far": self.z_far,
            "chamfer_m": self.chamfer_m,
            "n_gt": self.n_gt,
            "n_pred": self.n_pred,
            "n_matched": len(self.matches),
        }


def _resampled(lanes: list[Lane3D], grid: np.ndarray):
    """(x, z, visible), each (L, Y): every lane resampled once onto the grid."""
    x = np.empty((len(lanes), grid.size))
    z = np.empty_like(x)
    visible = np.empty(x.shape, dtype=bool)
    for k, lane in enumerate(lanes):
        x[k], z[k], visible[k] = resample_lane3d_xz(lane, grid)
    return x, z, visible


def _cost_matrix(pred_s, gt_s, cfg: EvalConfig):
    """(assignment cost, overlap count), both (P, G); cost is _FORBIDDEN when unmatchable.

    A pair is matchable with at least min_overlap_points mutually visible
    steps, match_frac of them within match_dist_m; its cost is the mean x-z
    distance over those steps.
    """
    xp, zp, vp = pred_s
    xg, zg, vg = gt_s
    mutual = vp[:, None] & vg[None]
    dist = np.hypot(xp[:, None] - xg[None], zp[:, None] - zg[None])
    overlap = mutual.sum(axis=-1)
    close = (mutual & (dist <= cfg.match_dist_m)).sum(axis=-1)
    ok = overlap >= cfg.min_overlap_points
    ok[ok] = close[ok] / overlap[ok] >= cfg.match_frac
    cost = np.full(overlap.shape, _FORBIDDEN)
    cost[ok] = masked_row_sums(dist[ok], mutual[ok]) / overlap[ok]
    return cost, overlap


def _assign(cost: np.ndarray):
    """(rows, cols) of the matchable pairs in a minimum-cost one-to-one assignment."""
    # imported here: scipy.optimize is most of `import bevlane` otherwise
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    keep = cost[rows, cols] < _FORBIDDEN
    return rows[keep], cols[keep]


def _matches(cost: np.ndarray, overlap: np.ndarray) -> list[LaneMatch]:
    rows, cols = _assign(cost)
    matches = [
        LaneMatch(gt_index=int(j), pred_index=int(i), cost=float(cost[i, j]), n_overlap=int(overlap[i, j]))
        for i, j in zip(rows, cols)
    ]
    matches.sort(key=lambda m: m.gt_index)
    return matches


def chamfer_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric mean nearest-neighbour distance between two 3D point sets."""
    a = np.asarray(a, dtype=float).reshape(-1, 3)
    b = np.asarray(b, dtype=float).reshape(-1, 3)
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise InvalidInputError("chamfer distance needs non-empty point sets")
    # squared distances summed coordinate by coordinate, in the order
    # scipy's cdist sums them; sqrt is monotone, so it can follow the min
    d2 = (a[:, None, 0] - b[None, :, 0]) ** 2
    d2 += (a[:, None, 1] - b[None, :, 1]) ** 2
    d2 += (a[:, None, 2] - b[None, :, 2]) ** 2
    near_a, near_b = np.sqrt(d2.min(axis=1)), np.sqrt(d2.min(axis=0))
    return 0.5 * (float(near_a.mean()) + float(near_b.mean()))


def _lane_points(lanes_s, k: int, grid: np.ndarray) -> np.ndarray:
    x, z, v = (a[k] for a in lanes_s)
    return np.stack([x[v], grid[v], z[v]], axis=-1)


def _pooled_errors(matches, pred_s, gt_s, grid, cfg):
    rows = [m.pred_index for m in matches]
    cols = [m.gt_index for m in matches]
    xp, zp, vp = (a[rows] for a in pred_s)
    xg, zg, vg = (a[cols] for a in gt_s)
    mutual = vp & vg
    near = grid <= cfg.near_far_split_m
    dx = np.abs(xp - xg)
    dz = np.abs(zp - zg)

    def pooled(err, band):
        flat = err[mutual & band]  # match by match, as the matches are listed
        return float(flat.mean()) if flat.size else 0.0

    return {
        f"{axis}_{band}": pooled(err, keep)
        for axis, err in (("x", dx), ("z", dz))
        for band, keep in (("near", near), ("far", ~near))
    }


def _counts_to_pr(tp: int, n_pred: int, n_gt: int) -> tuple[float, float, float]:
    precision = 100.0 * tp / n_pred if n_pred else 100.0
    recall = 100.0 * tp / n_gt if n_gt else 100.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def _average_precision(cost: np.ndarray, probs: list[float]) -> float:
    """AP from one assignment per distinct probability, on row subsets of `cost`."""
    n_pred, n_gt = cost.shape
    if not n_gt:
        return 100.0 if not n_pred else 0.0
    if not n_pred:
        return 0.0
    ap = 0.0
    recall_prev = 0.0
    for t in sorted(set(probs), reverse=True):
        rows = [i for i, p in enumerate(probs) if p >= t]
        tp = len(_assign(cost[rows])[0])
        precision = tp / len(rows) if rows else 0.0
        recall = tp / n_gt
        ap += (recall - recall_prev) * precision
        recall_prev = recall
    return 100.0 * ap


def evaluate(
    preds: list[Lane3D],
    gts: list[Lane3D],
    pred_probs: list[float] | None = None,
    cfg: EvalConfig = EvalConfig(),
) -> EvalResult:
    """Full evaluation of predicted against ground-truth 3D lanes."""
    if pred_probs is None:
        pred_probs = [1.0] * len(preds)
    if len(pred_probs) != len(preds):
        raise InvalidInputError("pred_probs must align with preds")
    grid = cfg.y_grid()
    pred_s, gt_s = _resampled(preds, grid), _resampled(gts, grid)
    cost, overlap = _cost_matrix(pred_s, gt_s, cfg)
    matches = _matches(cost, overlap)
    precision, recall, f1 = _counts_to_pr(len(matches), len(preds), len(gts))
    ap = _average_precision(cost, list(pred_probs))
    errors = _pooled_errors(matches, pred_s, gt_s, grid, cfg)
    chamfers = [
        chamfer_distance(_lane_points(pred_s, m.pred_index, grid), _lane_points(gt_s, m.gt_index, grid))
        for m in matches
    ]
    chamfer = float(np.mean(chamfers)) if matches else 0.0
    return EvalResult(
        precision=precision,
        recall=recall,
        f1=f1,
        ap=ap,
        chamfer_m=chamfer,
        n_gt=len(gts),
        n_pred=len(preds),
        matches=matches,
        **errors,
    )
