"""Deterministic synthetic road scenes with exact 3D / flat-ground / image labels.

Lanes are exact parallel curves of a centerline (concentric arcs stay
concentric, straights stay offset straights), so the true lane width is
constant by construction, and the elevation profile depends on forward
distance only, so adjacent lanes sit at equal height.  The generator therefore
produces data on which the width- and height-consistency priors hold exactly,
up to the documented chord effect on bends.

Two deliberate violations are available for testing: a crowned road
(crown_slope > 0 tilts the surface away from the road center) and the fork /
curb profiles, which add a line so close to a lane that it lands on the same
anchor.

Sampling detail that matters for exactness: each lane is sampled on a fine
grid plus the exact pre-images of the anchor y-steps under the flat-ground
projection, so resampling at those steps involves no interpolation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .anchors import AnchorGridSpec
from .errors import BehindCameraError, InvalidSpecError, require_within
from .geometry import (
    DEFAULT_INTRINSICS,
    CameraPose,
    Intrinsics,
    Lane3D,
    LaneBEV,
    lane_bev_from_lane3d,
    project_points3_to_image,
)

PROFILES = ("flat", "uphill", "downhill", "bend", "fork", "curb")
_SNAP_JITTER_M = 0.05
_MAX_PERTURB_DEG = 5.0
# (y_end - y_start) / point_spacing_m above this is refused: the fine grid of
# every lane would hold more samples than any scene needs (the default is 196)
_MAX_LANE_SAMPLES = 100_000
# lane_count above this is refused: at a 3.5 m lane width sixteen lines span
# 52 m, far past the anchor grid's 20 m, and the default is 4
_MAX_LANES = 16


@dataclass(frozen=True)
class SceneSpec:
    """Knobs of one synthetic scene; None means profile-default drawn from seed.

    Each numeric field must lie in its closed range in `_SPEC_RANGES`, units
    as below (lane_width_m [0.5, 10] m, crown_slope [0, 0.5], ...);
    `make_scene` raises InvalidSpecError naming the first field outside it.
    """

    profile: str = "flat"
    lane_count: int = 4
    lane_width_m: float = 3.7
    grade: tuple[float, float, float] | None = None  # z(y) = c0 + c1*y + c2*y^2
    bend_radius_m: float | None = None
    bend_direction: int | None = None  # +1 curves right, -1 left
    bend_arc_deg: float = 15.0
    gap_m: float | None = None  # fork/curb lateral gap at the split
    fork_divergence: float = 0.012  # extra gap per meter forward, fork only
    crown_slope: float = 0.0  # m of drop per m of |x|; violates equal height
    pitch_rad: float = 0.0
    height_m: float = 1.5
    intrinsics: Intrinsics = DEFAULT_INTRINSICS
    y_start: float = 2.0
    y_end: float = 100.0
    point_spacing_m: float = 0.5
    pixel_jitter_px: float = 0.0
    seed: int = 0
    anchor_grid: AnchorGridSpec | None = None


# the physical range of each numeric field, closed at both ends; a value
# outside it, NaN and inf included, raises InvalidSpecError naming the field.
# The upper ends keep the scene's arithmetic finite: numbers like 1e308
# would overflow on the way and fail late, naming no field
_SPEC_RANGES = {
    "lane_width_m": (0.5, 10.0),
    "grade": (-1.0, 1.0),  # each of c0 (m), c1 (m/m, 1 is a 45 degree grade), c2 (1/m)
    "bend_radius_m": (30.0, 1e5),  # below 30 m is outside the supported regime
    "bend_arc_deg": (0.1, 88.0),  # near 90 degrees the road runs across the view
    "gap_m": (0.01, 10.0),
    "fork_divergence": (0.0, 0.1),  # m of extra gap per m forward
    "crown_slope": (0.0, 0.5),  # m of drop per m of |x|
    "pitch_rad": (-0.5, 0.5),
    "height_m": (0.1, 10.0),
    "y_start": (0.1, 1000.0),
    "y_end": (0.1, 1000.0),
    "point_spacing_m": (1e-3, 10.0),
    "pixel_jitter_px": (0.0, 100.0),
}


@dataclass
class ResolvedScene:
    """Seed-resolved parameters actually used to build the lanes."""

    profile: str
    lane_offsets: np.ndarray
    grade: tuple[float, float, float]
    bend_radius: float | None
    bend_direction: int
    bend_arc_rad: float
    gap_m: float | None
    branch_of: int | None
    lateral_shift: float


@dataclass
class SceneSample:
    """One generated scene in all three label representations."""

    spec: SceneSpec
    resolved: ResolvedScene
    pose: CameraPose
    intrinsics: Intrinsics
    lanes3d: list[Lane3D]
    lanes_bev: list[LaneBEV]
    lanes_2d: list[np.ndarray]


def _validate_spec(spec: SceneSpec) -> None:
    if spec.profile not in PROFILES:
        raise InvalidSpecError(f"unknown profile {spec.profile!r}; choose from {PROFILES}")
    if not (2 <= spec.lane_count <= _MAX_LANES):
        raise InvalidSpecError(f"lane_count must lie in [2, {_MAX_LANES}]")
    require_within(spec, _SPEC_RANGES, InvalidSpecError)  # None keeps the profile default
    if not spec.y_start < spec.y_end:
        raise InvalidSpecError("require y_start < y_end")
    if (spec.y_end - spec.y_start) / spec.point_spacing_m > _MAX_LANE_SAMPLES:
        raise InvalidSpecError(
            f"(y_end - y_start) / point_spacing_m exceeds {_MAX_LANE_SAMPLES} samples per lane"
        )
    if spec.seed < 0:
        raise InvalidSpecError("seed must be >= 0")


def _resolve(spec: SceneSpec, rng: np.random.Generator) -> ResolvedScene:
    n = spec.lane_count
    offsets = (np.arange(n) - (n - 1) / 2.0) * spec.lane_width_m

    grade = spec.grade
    if grade is None:
        if spec.profile == "uphill":
            grade = (0.0, 0.0, float(rng.uniform(5e-5, 1.2e-4)))
        elif spec.profile == "downhill":
            grade = (0.0, 0.0, float(-rng.uniform(5e-5, 1.2e-4)))
        elif spec.profile == "bend":
            grade = (0.0, 0.0, float(rng.uniform(-8e-5, 8e-5)))
        else:
            grade = (0.0, 0.0, 0.0)

    bend_radius = None
    direction = 1
    if spec.profile == "bend":
        bend_radius = spec.bend_radius_m or float(rng.uniform(80.0, 300.0))
        direction = spec.bend_direction or int(rng.choice([-1, 1]))

    gap = spec.gap_m
    branch_of = None
    if spec.profile in ("fork", "curb"):
        if gap is None:
            gap = 0.12 if spec.profile == "fork" else 0.25
        branch_of = int(rng.integers(0, n))

    if spec.profile in ("fork", "curb"):
        shift = 0.0  # replaced by the anchor snap below
    else:
        shift = float(rng.uniform(-0.3, 0.3))

    return ResolvedScene(
        profile=spec.profile,
        lane_offsets=offsets + shift,
        grade=grade,
        bend_radius=bend_radius,
        bend_direction=direction,
        bend_arc_rad=math.radians(spec.bend_arc_deg),
        gap_m=gap,
        branch_of=branch_of,
        lateral_shift=shift,
    )


def _lateral_fn(resolved: ResolvedScene, offset: float):
    """x(y) of the lane line whose offset from the road center is `offset`."""
    if resolved.bend_radius is None:
        return lambda y: np.full_like(np.asarray(y, dtype=float), offset)
    big_r = resolved.bend_radius
    s = float(resolved.bend_direction)
    rho = big_r - s * offset
    if rho < 20:
        raise InvalidSpecError("lane radius too small for this bend")
    phi = resolved.bend_arc_rad
    y_arc = rho * math.sin(phi)

    def x_of_y(y):
        y = np.asarray(y, dtype=float)
        arc = s * (big_r - np.sqrt(np.maximum(rho * rho - np.minimum(y, y_arc) ** 2, 0.0)))
        tau = (y - y_arc) / math.cos(phi)
        straight = s * (big_r - rho * math.cos(phi)) + tau * s * math.sin(phi)
        return np.where(y <= y_arc, arc, straight)

    return x_of_y


def _grade_fn(grade: tuple[float, float, float]):
    c0, c1, c2 = grade

    def z_of_y(y):
        y = np.asarray(y, dtype=float)
        return c0 + c1 * y + c2 * y * y

    return z_of_y


def _flat_y(y, z, h):
    return y * h / (h - z)


def _preimages_of_flat_y(targets, z_of_y, h: float, lo: float, hi: float) -> np.ndarray:
    """Solve y * h / (h - z(y)) = t for every target t in [lo, hi] by bisection.

    All targets are bisected together from the full [lo, hi] bracket;
    targets outside the span come back NaN.  The loop stops at the float
    fixpoint, the first round that would move no bracket end: every later
    round would repeat the same midpoints, so the result equals that of
    running all 90 rounds, which stay the hard bound.
    """
    t = np.asarray(targets, dtype=float)
    lo = np.full(t.shape, lo)
    hi = np.full(t.shape, hi)

    def f(y):
        return _flat_y(y, z_of_y(y), h) - t

    outside = (f(lo) > 0) | (f(hi) < 0)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        below = f(mid) < 0
        if (np.where(below, lo, hi) == mid).all():  # no bracket end would move
            break
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.where(outside, np.nan, 0.5 * (lo + hi))


def _sample_nodes(spec: SceneSpec, grid: AnchorGridSpec, z_of_y, h: float) -> np.ndarray:
    fine = np.arange(spec.y_start, spec.y_end, spec.point_spacing_m)
    rows = _preimages_of_flat_y(grid.y_steps_array(), z_of_y, h, spec.y_start, spec.y_end)
    return np.unique(np.concatenate([fine, [spec.y_end], rows[~np.isnan(rows)]]))


def _build_lane(spec: SceneSpec, grid, x_of_y, z_of_y, crown: float, h: float, nodes) -> Lane3D:
    """One lane; `nodes` are the y samples shared by every uncrowned lane, None when crowned."""

    def surface_z(y):
        z = z_of_y(y)
        if crown > 0:
            z = z - crown * np.abs(x_of_y(y))
        return z

    y = _sample_nodes(spec, grid, surface_z, h) if nodes is None else nodes
    x = x_of_y(y)
    z = np.asarray(surface_z(y), dtype=float)
    if np.any(z >= h):
        raise InvalidSpecError(
            f"lane reaches height {z.max():.3f} m >= camera height {h} m; "
            "it would project behind the camera"
        )
    y_flat = _flat_y(y, z, h)
    if np.any(np.diff(y_flat) <= 0):
        raise InvalidSpecError("flat-ground distance is not monotone along the lane; grade too steep")
    return Lane3D(np.stack([x, np.broadcast_to(y, x.shape), z], axis=-1))


def _snap_shift_for_branch(
    base_x_ref_flat: float, grid: AnchorGridSpec, scale_ref: float, rng: np.random.Generator
) -> float:
    """World-frame lateral shift that parks the branch's base lane on an anchor."""
    centers = grid.x_centers_array()
    target = centers[int(np.argmin(np.abs(centers - base_x_ref_flat)))]
    jitter = float(rng.uniform(-_SNAP_JITTER_M, _SNAP_JITTER_M))
    return (target + jitter - base_x_ref_flat) / scale_ref


def make_scene(spec: SceneSpec = SceneSpec()) -> SceneSample:
    """Generate one scene; identical spec (including seed) gives identical output."""
    _validate_spec(spec)
    rng = np.random.default_rng(spec.seed)
    resolved = _resolve(spec, rng)
    pose = CameraPose(pitch_rad=spec.pitch_rad, height_m=spec.height_m)
    grid = spec.anchor_grid or AnchorGridSpec.default()
    h = spec.height_m
    z_of_y = _grade_fn(resolved.grade)

    if resolved.branch_of is not None:
        # park the branching lane on an anchor center so both lines of the
        # split always collide on the same anchor at the reference distance
        base_offset = resolved.lane_offsets[resolved.branch_of]
        y_ref_pre = float(_preimages_of_flat_y(grid.y_ref, z_of_y, h, spec.y_start, spec.y_end))
        if math.isnan(y_ref_pre):
            raise InvalidSpecError("reference distance lies outside the lane span")
        z_ref = float(z_of_y(y_ref_pre))
        scale_ref = h / (h - z_ref)
        base_x_flat = float(_lateral_fn(resolved, base_offset)(np.array([y_ref_pre]))[0]) * scale_ref
        shift = _snap_shift_for_branch(base_x_flat, grid, scale_ref, rng)
        resolved.lane_offsets = resolved.lane_offsets + shift
        resolved.lateral_shift += shift

    # without a crown every lane lies on the one surface z(y), so its anchor
    # rows have the same pre-images: bisect them once for the whole scene
    nodes = None if spec.crown_slope > 0 else _sample_nodes(spec, grid, z_of_y, h)
    lanes3d: list[Lane3D] = []
    for offset in resolved.lane_offsets:
        x_of_y = _lateral_fn(resolved, float(offset))
        lanes3d.append(_build_lane(spec, grid, x_of_y, z_of_y, spec.crown_slope, h, nodes))

    if resolved.branch_of is not None:
        base_fn = _lateral_fn(resolved, float(resolved.lane_offsets[resolved.branch_of]))
        div = spec.fork_divergence if spec.profile == "fork" else 0.0

        def branch_x(y):
            y = np.asarray(y, dtype=float)
            return base_fn(y) + resolved.gap_m + div * (y - spec.y_start)

        lanes3d.append(_build_lane(spec, grid, branch_x, z_of_y, spec.crown_slope, h, nodes))

    lanes_bev = [lane_bev_from_lane3d(lane, h) for lane in lanes3d]
    lanes_2d = _render_image_lanes(lanes3d, spec.intrinsics, pose, spec.pixel_jitter_px, rng)
    return SceneSample(
        spec=spec,
        resolved=resolved,
        pose=pose,
        intrinsics=spec.intrinsics,
        lanes3d=lanes3d,
        lanes_bev=lanes_bev,
        lanes_2d=lanes_2d,
    )


def _render_image_lanes(lanes3d, intr, pose, jitter_px, rng) -> list[np.ndarray]:
    out = []
    for lane in lanes3d:
        try:
            uv = project_points3_to_image(lane.points, intr, pose)
        except BehindCameraError as exc:
            raise InvalidSpecError(f"lane projects behind the camera: {exc}") from exc
        if jitter_px > 0:
            uv = uv + rng.normal(0.0, jitter_px, uv.shape)
        out.append(uv)
    return out


def perturb_pitch(sample: SceneSample, range_deg: float, seed: int) -> SceneSample:
    """Re-render the image labels under a pitch disturbed by U(-range, +range) degrees.

    The world (3D lanes, flat-ground lanes) is untouched; only the camera
    moves.  The returned sample's pose records the true perturbed pitch, which
    is what calibration should recover.  A zero range reproduces the input
    rendering exactly.
    """
    if not (0 <= range_deg <= _MAX_PERTURB_DEG):
        raise InvalidSpecError(f"perturbation range must lie in [0, {_MAX_PERTURB_DEG}] degrees")
    if seed < 0:
        raise InvalidSpecError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    delta = math.radians(float(rng.uniform(-range_deg, range_deg))) if range_deg > 0 else 0.0
    new_pose = CameraPose(pitch_rad=sample.pose.pitch_rad + delta, height_m=sample.pose.height_m)
    lanes_2d = _render_image_lanes(
        sample.lanes3d, sample.intrinsics, new_pose, sample.spec.pixel_jitter_px, rng
    )
    return SceneSample(
        spec=sample.spec,
        resolved=sample.resolved,
        pose=new_pose,
        intrinsics=sample.intrinsics,
        lanes3d=sample.lanes3d,
        lanes_bev=sample.lanes_bev,
        lanes_2d=lanes_2d,
    )
