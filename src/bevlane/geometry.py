"""Exact 3D -> flat-ground projection, pinhole camera mapping, and lane polylines.

COORDINATE SYSTEM CONVENTIONS
    World frame (right-handed):
        origin at the vertical projection of the camera onto the local ground
        x   right, meters
        y   forward, meters
        z   up, meters
    Camera:
        optical center at (0, 0, height_m); pitched nose-down by pitch_rad
        (positive pitch looks toward the ground), zero roll and yaw.
        Camera frame is the usual computer-vision one: X right, Y down,
        Z forward along the optical axis.
    Image frame:
        u right, v down, pixels, origin at the top-left corner.

The flat-ground (bird's-eye view) image of a 3D point is the intersection of
the camera ray through that point with the plane z = 0.  For a point at height
z this scales both ground coordinates by h / (h - z), which is what makes
uphill lanes look wider and downhill lanes narrower from above.  All angles are
radians internally; degrees appear only in files and command-line flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BehindCameraError,
    DegenerateProjectionError,
    InvalidInputError,
    InvalidLaneError,
)


@dataclass(frozen=True)
class CameraPose:
    """Camera extrinsics reduced to the two quantities the ground geometry needs."""

    pitch_rad: float
    height_m: float

    def __post_init__(self):
        if not math.isfinite(self.pitch_rad) or abs(self.pitch_rad) >= math.pi / 2:
            raise InvalidInputError(f"pitch must lie in (-pi/2, pi/2), got {self.pitch_rad}")
        if not math.isfinite(self.height_m) or self.height_m <= 0:
            raise InvalidInputError(f"camera height must be positive, got {self.height_m}")

    def rotation_world_to_cam(self) -> np.ndarray:
        """Rows are the camera axes (right, down, forward) in world coordinates."""
        s, c = math.sin(self.pitch_rad), math.cos(self.pitch_rad)
        return np.array([[1.0, 0.0, 0.0], [0.0, -s, -c], [0.0, c, -s]])

    def center(self) -> np.ndarray:
        return np.array([0.0, 0.0, self.height_m])


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsics; skew-free."""

    fx: float
    fy: float
    cx: float
    cy: float
    image_w: int = 480
    image_h: int = 360

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise InvalidInputError("focal lengths must be positive")
        if self.image_w <= 0 or self.image_h <= 0:
            raise InvalidInputError("image size must be positive")


DEFAULT_INTRINSICS = Intrinsics(fx=500.0, fy=500.0, cx=240.0, cy=180.0, image_w=480, image_h=360)


def _as_polyline(points, width: int, name: str) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != width:
        raise InvalidLaneError(f"{name} expects an (N, {width}) array, got shape {pts.shape}")
    if pts.shape[0] < 2:
        raise InvalidLaneError(f"{name} needs at least 2 points, got {pts.shape[0]}")
    if not np.all(np.isfinite(pts)):
        raise InvalidLaneError(f"{name} contains non-finite values")
    return pts


class Lane3D:
    """Ordered 3D polyline of one lane line; y must be strictly increasing."""

    def __init__(self, points):
        pts = _as_polyline(points, 3, "Lane3D")
        if not np.all(np.diff(pts[:, 1]) > 0):
            raise InvalidLaneError("Lane3D points must have strictly increasing y")
        self.points = pts

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def x(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.points[:, 1]

    @property
    def z(self) -> np.ndarray:
        return self.points[:, 2]


class LaneBEV:
    """Flat-ground polyline with per-point visibility and, when known, source height.

    y_flat must be strictly increasing.  z is optional: projections of 3D lanes
    carry the height of each source point, while lanes lifted from 2D labels
    do not know it (that is exactly what the weak losses recover).
    """

    def __init__(self, points, visibility=None, z=None):
        pts = _as_polyline(points, 2, "LaneBEV")
        if not np.all(np.diff(pts[:, 1]) > 0):
            raise InvalidLaneError("LaneBEV points must have strictly increasing y_flat")
        n = pts.shape[0]
        if visibility is None:
            vis = np.ones(n, dtype=bool)
        else:
            vis = np.asarray(visibility, dtype=bool)
            if vis.shape != (n,):
                raise InvalidLaneError("visibility must have one flag per point")
        if z is not None:
            z = np.asarray(z, dtype=float)
            if z.shape != (n,):
                raise InvalidLaneError("z must have one value per point")
            if not np.all(np.isfinite(z)):
                raise InvalidLaneError("z contains non-finite values")
        self.points = pts
        self.visibility = vis
        self.z = z

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def x_flat(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def y_flat(self) -> np.ndarray:
        return self.points[:, 1]


# ---------------------------------------------------------------------------
# flat-ground projection


def flat_from_points3(xyz: np.ndarray, h: float) -> np.ndarray:
    """Flat-ground projection of an (N, 3) array: x and y scale by h / (h - z)."""
    if not h > 0:
        raise InvalidInputError("camera height must be positive")
    xyz = np.asarray(xyz, dtype=float)
    if np.any(xyz[..., 2] >= h):
        raise DegenerateProjectionError("point height >= camera height")
    s = h / (h - xyz[..., 2])
    return np.stack([xyz[..., 0] * s, xyz[..., 1] * s], axis=-1)


def lane_bev_from_lane3d(lane: Lane3D, h: float) -> LaneBEV:
    """Project a 3D lane to the flat ground, keeping each point's height."""
    xy = flat_from_points3(lane.points, h)
    return LaneBEV(xy, visibility=np.ones(len(lane), dtype=bool), z=lane.z.copy())


# ---------------------------------------------------------------------------
# pinhole camera


def project_points3_to_image(xyz: np.ndarray, intr: Intrinsics, pose: CameraPose) -> np.ndarray:
    """Project (N, 3) world points to (N, 2) pixels; all must be in front of the camera."""
    xyz = np.asarray(xyz, dtype=float)
    cam = (xyz - pose.center()) @ pose.rotation_world_to_cam().T
    z_cam = cam[..., 2]
    if np.any(z_cam <= 1e-12):
        raise BehindCameraError("point at or behind the camera plane")
    u = intr.fx * cam[..., 0] / z_cam + intr.cx
    v = intr.fy * cam[..., 1] / z_cam + intr.cy
    return np.stack([u, v], axis=-1)


def flat_from_image_points(uv: np.ndarray, intr: Intrinsics, pose: CameraPose):
    """Vectorized back-projection of (N, 2) pixels.

    Returns ((N, 2) flat-ground coordinates, (N,) bool mask of rays that do hit
    the ground in front of the camera).  Invalid rows hold NaN.
    """
    uv = np.asarray(uv, dtype=float)
    d_cam = np.stack(
        [(uv[:, 0] - intr.cx) / intr.fx, (uv[:, 1] - intr.cy) / intr.fy, np.ones(uv.shape[0])],
        axis=-1,
    )
    d_world = d_cam @ pose.rotation_world_to_cam()  # (R^T d) rows
    ok = d_world[:, 2] < -1e-12
    out = np.full((uv.shape[0], 2), np.nan)
    t = np.where(ok, pose.height_m / -np.where(ok, d_world[:, 2], -1.0), np.nan)
    out[ok, 0] = (t * d_world[:, 0])[ok]
    out[ok, 1] = (t * d_world[:, 1])[ok]
    ok = ok & (out[:, 1] > 0)
    return out, ok


# ---------------------------------------------------------------------------
# resampling


_SPAN_EPS = 1e-9  # metres; queries this close to the span ends count as inside


def _interp_with_visibility(t_knots, v_knots, vis_knots, t_query):
    """Piecewise-linear interpolation plus a visibility verdict per query.

    A query is visible when it falls inside the knot span and both bracketing
    knots are visible.  Out-of-span queries return the clamped endpoint value
    with visibility False.  Span membership tolerates float round-off: a
    polyline that ends exactly on a sample row must keep covering that row
    after a projection round trip perturbs its endpoint by an ulp.
    """
    t_knots = np.asarray(t_knots, dtype=float)
    v_knots = np.asarray(v_knots, dtype=float)
    vis_knots = np.asarray(vis_knots, dtype=bool)
    t_query = np.asarray(t_query, dtype=float)
    values = np.interp(t_query, t_knots, v_knots)
    inside = (t_query >= t_knots[0] - _SPAN_EPS) & (t_query <= t_knots[-1] + _SPAN_EPS)
    left = np.clip(np.searchsorted(t_knots, t_query, side="right") - 1, 0, len(t_knots) - 2)
    visible = inside & vis_knots[left] & vis_knots[left + 1]
    return values, visible


def resample_at_y(lane, y_grid):
    """Sample a lane's lateral coordinate on a y grid.

    Works on Lane3D (x over 3D y) and LaneBEV (x_flat over y_flat).  Returns
    (values, visible); values outside the lane's span are endpoint-clamped and
    flagged invisible.
    """
    y_grid = np.asarray(y_grid, dtype=float)
    if y_grid.ndim != 1 or y_grid.size == 0:
        raise InvalidInputError("y_grid must be a non-empty 1-D array")
    if np.any(np.diff(y_grid) <= 0):
        raise InvalidInputError("y_grid must be strictly increasing")
    if isinstance(lane, Lane3D):
        return _interp_with_visibility(lane.y, lane.x, np.ones(len(lane), bool), y_grid)
    if isinstance(lane, LaneBEV):
        return _interp_with_visibility(lane.y_flat, lane.x_flat, lane.visibility, y_grid)
    raise InvalidInputError(f"cannot resample object of type {type(lane).__name__}")


def resample_bev_with_z(lane: LaneBEV, y_grid):
    """Sample x_flat and height (when carried) of a BEV lane on a y_flat grid.

    Returns (x, z, visible); z is all zeros when the lane carries no heights,
    which is the correct starting point for weak supervision.
    """
    x, visible = resample_at_y(lane, y_grid)
    if lane.z is None:
        z = np.zeros_like(np.asarray(y_grid, dtype=float))
    else:
        z, _ = _interp_with_visibility(lane.y_flat, lane.z, lane.visibility, y_grid)
        z = np.where(visible, z, 0.0)
    return x, z, visible


def resample_lane3d_xz(lane: Lane3D, y_grid):
    """Sample x and z of a 3D lane over 3D y.  Returns (x, z, visible)."""
    x, visible = resample_at_y(lane, y_grid)
    z = np.interp(np.asarray(y_grid, dtype=float), lane.y, lane.z)
    return x, np.where(visible, z, 0.0), visible


def masked_row_sums(values: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Per-row sums (R,) of values (R, Y) over keep (R, Y).

    Each row's kept entries are summed on their own, led by the 0.0 that
    ndarray.sum starts from, so row r equals values[r][keep[r]].sum() bit for
    bit; a row with nothing kept sums to 0.0.
    """
    n_rows, n_cols = keep.shape
    segment = np.ones((n_rows, n_cols + 1), dtype=bool)
    segment[:, 1:] = keep
    padded = np.zeros(segment.shape)
    padded[:, 1:] = values
    counts = segment.sum(axis=1)
    return np.add.reduceat(padded[segment], np.cumsum(counts) - counts)
