"""Lane-level evaluation: assignment, F-score, AP, localization error, chamfer.

Lanes are compared after resampling onto a fixed forward-distance grid; a
prediction matches a ground-truth lane when at least 75 percent of the points
on their mutual span lie within 1.5 m (x-z distance at equal y).  One-to-one
assignment picks the cheapest consistent pairing.  Localization errors are
pooled per point over matched pairs and split at 40 m into a near and a far
band.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .geometry import Lane3D, resample_lane3d_xz

_FORBIDDEN = 1e9  # large finite cost; keeps the assignment solver happy


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
        if not (0 <= self.y_min < self.y_max):
            raise InvalidInputError("require 0 <= y_min < y_max")
        if self.y_step <= 0 or self.match_dist_m <= 0:
            raise InvalidInputError("y_step and match_dist_m must be positive")
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


def _sampled(lanes: list[Lane3D], grid: np.ndarray):
    return [resample_lane3d_xz(lane, grid) for lane in lanes]


def _pair_cost(pred_s, gt_s, cfg: EvalConfig) -> tuple[float, int]:
    """(assignment cost, overlap count); cost is _FORBIDDEN when unmatchable."""
    xp, zp, vp = pred_s
    xg, zg, vg = gt_s
    mutual = vp & vg
    n = int(mutual.sum())
    if n < cfg.min_overlap_points:
        return _FORBIDDEN, n
    dist = np.hypot(xp[mutual] - xg[mutual], zp[mutual] - zg[mutual])
    if (dist <= cfg.match_dist_m).mean() < cfg.match_frac:
        return _FORBIDDEN, n
    return float(dist.mean()), n


def match_lanes(
    preds: list[Lane3D], gts: list[Lane3D], cfg: EvalConfig = EvalConfig()
) -> list[LaneMatch]:
    """One-to-one minimum-cost assignment between predictions and ground truth."""
    # imported here: scipy.optimize is most of `import bevlane` otherwise
    from scipy.optimize import linear_sum_assignment

    if not preds or not gts:
        return []
    grid = cfg.y_grid()
    pred_s = _sampled(preds, grid)
    gt_s = _sampled(gts, grid)
    cost = np.empty((len(preds), len(gts)))
    overlap = np.empty((len(preds), len(gts)), dtype=int)
    for i, ps in enumerate(pred_s):
        for j, gs in enumerate(gt_s):
            cost[i, j], overlap[i, j] = _pair_cost(ps, gs, cfg)
    rows, cols = linear_sum_assignment(cost)
    matches = [
        LaneMatch(gt_index=int(j), pred_index=int(i), cost=float(cost[i, j]), n_overlap=int(overlap[i, j]))
        for i, j in zip(rows, cols)
        if cost[i, j] < _FORBIDDEN
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


def _lane_points(lane_s, grid: np.ndarray) -> np.ndarray:
    x, z, v = lane_s
    return np.stack([x[v], grid[v], z[v]], axis=-1)


def _pooled_errors(matches, pred_s, gt_s, grid, cfg):
    near = grid <= cfg.near_far_split_m
    bins = {"x_near": [], "x_far": [], "z_near": [], "z_far": []}
    for m in matches:
        xp, zp, vp = pred_s[m.pred_index]
        xg, zg, vg = gt_s[m.gt_index]
        mutual = vp & vg
        dx = np.abs(xp - xg)
        dz = np.abs(zp - zg)
        bins["x_near"].append(dx[mutual & near])
        bins["x_far"].append(dx[mutual & ~near])
        bins["z_near"].append(dz[mutual & near])
        bins["z_far"].append(dz[mutual & ~near])

    def pooled(chunks):
        flat = np.concatenate(chunks) if chunks else np.empty(0)
        return float(flat.mean()) if flat.size else 0.0

    return {k: pooled(v) for k, v in bins.items()}


def _counts_to_pr(tp: int, n_pred: int, n_gt: int) -> tuple[float, float, float]:
    precision = 100.0 * tp / n_pred if n_pred else 100.0
    recall = 100.0 * tp / n_gt if n_gt else 100.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def _average_precision(preds, gts, probs, cfg) -> float:
    if not gts:
        return 100.0 if not preds else 0.0
    if not preds:
        return 0.0
    ap = 0.0
    recall_prev = 0.0
    for t in sorted(set(probs), reverse=True):
        kept = [lane for lane, p in zip(preds, probs) if p >= t]
        tp = len(match_lanes(kept, gts, cfg))
        precision = tp / len(kept) if kept else 0.0
        recall = tp / len(gts)
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
    matches = match_lanes(preds, gts, cfg)
    precision, recall, f1 = _counts_to_pr(len(matches), len(preds), len(gts))
    ap = _average_precision(preds, gts, list(pred_probs), cfg)

    pred_s = _sampled(preds, grid)
    gt_s = _sampled(gts, grid)
    errors = _pooled_errors(matches, pred_s, gt_s, grid, cfg)
    if matches:
        chamfer = float(
            np.mean(
                [
                    chamfer_distance(
                        _lane_points(pred_s[m.pred_index], grid),
                        _lane_points(gt_s[m.gt_index], grid),
                    )
                    for m in matches
                ]
            )
        )
    else:
        chamfer = 0.0
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
