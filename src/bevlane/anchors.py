"""Column-anchor lane representation with a second layer for near-coincident lines.

Each anchor is a fixed lateral position on the flat ground.  Per anchor the
tensor holds two candidate lanes ("layers"): ordinary lanes occupy layer 1,
and when two lines collapse onto the same anchor (a fork just after the split,
a curb hugging a lane line) the right one moves to layer 2 instead of being
lost.  Suppression compares layer-1 candidates only; layer 2 is exempt because
its whole purpose is to keep an almost-duplicate alive.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, InvalidLaneError, InvalidSpecError, require_finite
from .geometry import CameraPose, Lane3D, LaneBEV, masked_row_sums, resample_at_y, resample_bev_with_z

log = logging.getLogger(__name__)

# Forward distances (meters) at which anchors hold samples: dense where lanes
# are wide in the image, sparser far out.
DEFAULT_Y_STEPS = (
    0.0, 2.5, 5.0, 7.5, 10.0, 12.5, 15.0, 17.5, 20.0, 25.0,
    30.0, 35.0, 40.0, 45.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0,
)
DEFAULT_X_SPACING = 0.8
DEFAULT_Y_REF = 5.0
PROB_ACTIVE_THRESHOLD = 0.5
VIS_DECODE_THRESHOLD = 0.5


@dataclass(frozen=True)
class AnchorGridSpec:
    """Lateral anchor positions plus the shared forward sampling grid."""

    x_centers: tuple[float, ...]
    y_steps: tuple[float, ...] = DEFAULT_Y_STEPS
    y_ref: float = DEFAULT_Y_REF
    x_range: tuple[float, float] = (-10.0, 10.0)
    y_range: tuple[float, float] = (0.0, 100.0)

    def __post_init__(self):
        xc = np.asarray(self.x_centers, dtype=float)
        ys = np.asarray(self.y_steps, dtype=float)
        if xc.size < 1 or np.any(np.diff(xc) <= 0):
            raise InvalidSpecError("x_centers must be non-empty and strictly increasing")
        if ys.size < 2 or np.any(np.diff(ys) <= 0):
            raise InvalidSpecError("y_steps must be strictly increasing with >= 2 entries")
        if not (ys[0] <= self.y_ref <= ys[-1]):
            raise InvalidSpecError("y_ref must lie inside the y_steps span")
        if self.x_range[0] >= self.x_range[1] or self.y_range[0] >= self.y_range[1]:
            raise InvalidSpecError("ranges must be (low, high) with low < high")

    @classmethod
    def default(cls) -> "AnchorGridSpec":
        n = int(round(20.0 / DEFAULT_X_SPACING)) + 1
        # round(12) snaps linspace noise to clean decimals so the grid
        # survives 9-significant-digit serialization bit for bit
        centers = np.linspace(-10.0, 10.0, n).round(12)
        return cls(x_centers=tuple(float(c) for c in centers))

    @property
    def n_anchors(self) -> int:
        return len(self.x_centers)

    @property
    def n_steps(self) -> int:
        return len(self.y_steps)

    def x_centers_array(self) -> np.ndarray:
        return np.asarray(self.x_centers, dtype=float)

    def y_steps_array(self) -> np.ndarray:
        return np.asarray(self.y_steps, dtype=float)


class AnchorTensor:
    """Dense anchor state: per (anchor, layer) a probability and per-step fields.

    Layout: prob (N, 2); x_offsets, z, vis (N, 2, Y).  Offsets are meters
    relative to the anchor's x_center on the flat ground; vis is a soft flag
    thresholded at 0.5 when decoding.
    """

    def __init__(self, grid: AnchorGridSpec, prob=None, x_offsets=None, z=None, vis=None):
        n, y = grid.n_anchors, grid.n_steps
        self.grid = grid
        self.prob = self._init_field(prob, (n, 2), "prob")
        self.x_offsets = self._init_field(x_offsets, (n, 2, y), "x_offsets")
        self.z = self._init_field(z, (n, 2, y), "z")
        self.vis = self._init_field(vis, (n, 2, y), "vis")
        if np.any(self.prob < 0) or np.any(self.prob > 1):
            raise InvalidInputError("prob entries must lie in [0, 1]")
        if np.any(self.vis < 0) or np.any(self.vis > 1):
            raise InvalidInputError("vis entries must lie in [0, 1]")

    @staticmethod
    def _init_field(value, shape, name) -> np.ndarray:
        if value is None:
            return np.zeros(shape)
        arr = np.array(value, dtype=float)
        if arr.shape != shape:
            raise InvalidInputError(f"{name} must have shape {shape}, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError(f"{name} contains non-finite values")
        return arr

    @classmethod
    def empty(cls, grid: AnchorGridSpec) -> "AnchorTensor":
        return cls(grid)

    def copy(self) -> "AnchorTensor":
        """An independent copy of the four arrays; the grid is shared.

        Skips the checks in __init__, which the source already passed.
        """
        out = object.__new__(type(self))
        out.grid = self.grid
        out.prob, out.x_offsets = self.prob.copy(), self.x_offsets.copy()
        out.z, out.vis = self.z.copy(), self.vis.copy()
        return out

    def abs_x(self) -> np.ndarray:
        """Absolute flat-ground lateral position per (anchor, layer, step)."""
        return self.grid.x_centers_array()[:, None, None] + self.x_offsets

    def same_grid(self, other: "AnchorTensor") -> bool:
        g, o = self.grid, other.grid
        return (
            g.x_centers == o.x_centers
            and g.y_steps == o.y_steps
            and g.y_ref == o.y_ref
        )


@dataclass(frozen=True)
class NmsConfig:
    """Suppression settings; d_thresh is the mean lateral distance in meters."""

    d_thresh: float = 0.05
    prob_floor: float = 0.0

    def __post_init__(self):
        require_finite(self, ("d_thresh", "prob_floor"))
        if self.d_thresh < 0:
            raise InvalidInputError("d_thresh must be >= 0")
        if not 0 <= self.prob_floor <= 1:
            raise InvalidInputError("prob_floor must lie in [0, 1]")


@dataclass
class AssignedLane:
    lane_index: int
    anchor_index: int
    layer: int
    x_at_ref: float


@dataclass
class AnchorAssignment:
    entries: list[AssignedLane] = field(default_factory=list)
    dropped: list[tuple[int, str]] = field(default_factory=list)


def _x_at_ref(lane, grid: AnchorGridSpec) -> float:
    value, _ = resample_at_y(lane, np.array([grid.y_ref]))
    return float(value[0])


def associate(lanes, grid: AnchorGridSpec) -> AnchorAssignment:
    """Assign each lane to its nearest anchor at the reference distance.

    Lanes whose lateral position at y_ref falls outside the grid's x_range are
    dropped.  When several lanes collide on one anchor, the leftmost takes
    layer 1 and the next one layer 2; any further lanes are dropped with a
    warning.  Ties in center distance go to the smaller anchor index.
    """
    centers = grid.x_centers_array()
    out = AnchorAssignment()
    by_anchor: dict[int, list[tuple[float, int]]] = {}
    for idx, lane in enumerate(lanes):
        x_ref = _x_at_ref(lane, grid)
        if not (grid.x_range[0] <= x_ref <= grid.x_range[1]):
            out.dropped.append((idx, "outside_x_range"))
            log.warning("lane %d at x=%.3f m is outside the anchor range; dropped", idx, x_ref)
            continue
        dist = np.abs(centers - x_ref)
        anchor = int(np.argmin(dist))  # argmin takes the smaller index on ties
        by_anchor.setdefault(anchor, []).append((x_ref, idx))
    for anchor in sorted(by_anchor):
        group = sorted(by_anchor[anchor])  # left to right at y_ref
        for layer, (x_ref, idx) in enumerate(group[:2], start=1):
            out.entries.append(AssignedLane(idx, anchor, layer, x_ref))
        for x_ref, idx in group[2:]:
            out.dropped.append((idx, "anchor_overflow"))
            log.warning(
                "anchor %d already holds two lanes; lane %d at x=%.3f m dropped", anchor, idx, x_ref
            )
    out.entries.sort(key=lambda e: (e.anchor_index, e.layer))
    return out


def encode_gt(lanes, grid: AnchorGridSpec) -> AnchorTensor:
    """Rasterize ground-truth BEV lanes (with heights when known) onto anchors.

    Occupied slots get prob 1 and per-step offsets / heights / visibility from
    linear resampling; a second lane on the same anchor activates layer 2 with
    probability 1 as well.  Empty slots stay all zero.
    """
    return _rasterize(lanes, associate(lanes, grid), grid)


def _rasterize(lanes, assignment: AnchorAssignment, grid: AnchorGridSpec) -> AnchorTensor:
    """`encode_gt` for lanes already assigned to anchors by `associate`."""
    tensor = AnchorTensor.empty(grid)
    y_steps = grid.y_steps_array()
    centers = grid.x_centers_array()
    for entry in assignment.entries:
        lane = lanes[entry.lane_index]
        if isinstance(lane, LaneBEV):
            x, z, visible = resample_bev_with_z(lane, y_steps)
        else:
            raise InvalidLaneError("encode_gt expects LaneBEV inputs")
        k = entry.layer - 1
        tensor.prob[entry.anchor_index, k] = 1.0
        tensor.x_offsets[entry.anchor_index, k] = np.where(
            visible, x - centers[entry.anchor_index], 0.0
        )
        tensor.z[entry.anchor_index, k] = np.where(visible, z, 0.0)
        tensor.vis[entry.anchor_index, k] = visible.astype(float)
    return tensor


def decode(tensor: AnchorTensor, pose: CameraPose, prob_threshold: float = PROB_ACTIVE_THRESHOLD):
    """Turn active anchor slots back into 3D lanes.

    Steps with vis below 0.5 are skipped; slots with fewer than two visible
    steps cannot form a polyline and are dropped with a warning.  Lanes come
    out ordered by (anchor, layer).
    """
    h = pose.height_m
    lanes: list[Lane3D] = []
    y_steps = tensor.grid.y_steps_array()
    abs_x = tensor.abs_x()
    for anchor in range(tensor.grid.n_anchors):
        for k in (0, 1):
            if tensor.prob[anchor, k] < prob_threshold:
                continue
            visible = tensor.vis[anchor, k] >= VIS_DECODE_THRESHOLD
            if visible.sum() < 2:
                log.warning("anchor %d layer %d has < 2 visible steps; skipped", anchor, k + 1)
                continue
            x_flat = abs_x[anchor, k][visible]
            y_flat = y_steps[visible]
            z = tensor.z[anchor, k][visible]
            scale = (h - z) / h
            pts = np.stack([x_flat * scale, y_flat * scale, z], axis=-1)
            lanes.append(Lane3D(pts))
    return lanes


def _lateral_distances(tensor: AnchorTensor, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mean |x_a - x_b| of layer-1 anchors a[p] and b[p] over their mutually visible steps.

    inf where none is, which makes the pair immune to suppression.
    """
    x = tensor.abs_x()[:, 0]
    seen = tensor.vis[:, 0] >= VIS_DECODE_THRESHOLD
    both = seen[a] & seen[b]
    n = both.sum(axis=1)
    total = masked_row_sums(np.abs(x[a] - x[b]), both)
    return np.divide(total, n, out=np.full(n.shape, np.inf), where=n > 0)


def nms(tensor: AnchorTensor, cfg: NmsConfig = NmsConfig()) -> AnchorTensor:
    """Suppress near-duplicate layer-1 candidates, keeping the most confident.

    Candidates are visited in descending probability (anchor index breaks
    ties); each survivor zeroes the probability of any strictly less confident
    candidate whose mean lateral distance to it falls below d_thresh.  A
    suppressed candidate suppresses nothing itself.  Offsets, heights,
    visibility, and every layer-2 entry pass through untouched.
    """
    out = tensor.copy()
    candidates = np.flatnonzero(out.prob[:, 0] > cfg.prob_floor)
    prob = out.prob[candidates, 0]
    # near[i, k]: i may suppress k, which is strictly less confident and close
    i, k = np.nonzero(prob[:, None] > prob[None, :])
    if i.size == 0:
        return out  # equally confident candidates never suppress each other
    near = np.zeros((prob.size, prob.size), dtype=bool)
    near[i, k] = _lateral_distances(out, candidates[i], candidates[k]) < cfg.d_thresh
    suppressed = np.zeros(prob.size, dtype=bool)
    for c in sorted(range(prob.size), key=lambda c: (-prob[c], candidates[c])):
        if not suppressed[c]:
            suppressed |= near[c]
    out.prob[candidates[suppressed], 0] = 0.0
    return out
