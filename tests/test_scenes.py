import math

import numpy as np
import pytest

from bevlane import (
    AnchorGridSpec,
    SceneSpec,
    make_scene,
    perturb_pitch,
    project_points3_to_image,
)
from bevlane import scenes
from bevlane.errors import InvalidSpecError

PROFILES = ("flat", "uphill", "downhill", "bend", "fork", "curb")


@pytest.mark.parametrize("profile", PROFILES)
def test_bitwise_deterministic(profile):
    spec = SceneSpec(profile=profile, seed=17)
    a = make_scene(spec)
    b = make_scene(spec)
    for la, lb in zip(a.lanes3d, b.lanes3d):
        np.testing.assert_array_equal(la.points, lb.points)
    for la, lb in zip(a.lanes_2d, b.lanes_2d):
        np.testing.assert_array_equal(la, lb)
    for la, lb in zip(a.lanes_bev, b.lanes_bev):
        np.testing.assert_array_equal(la.points, lb.points)


@pytest.mark.parametrize("profile", PROFILES)
def test_bev_is_flat_projection_of_3d(profile):
    sample = make_scene(SceneSpec(profile=profile, seed=3))
    h = sample.pose.height_m
    for l3, lb in zip(sample.lanes3d, sample.lanes_bev):
        scale = h / (h - l3.z)
        np.testing.assert_allclose(lb.x_flat, l3.x * scale, atol=1e-9)
        np.testing.assert_allclose(lb.y_flat, l3.y * scale, atol=1e-9)
        np.testing.assert_allclose(lb.z, l3.z, atol=0)


def test_image_labels_are_pinhole_projections(uphill_scene):
    for l3, uv in zip(uphill_scene.lanes3d, uphill_scene.lanes_2d):
        ref = project_points3_to_image(l3.points, uphill_scene.intrinsics, uphill_scene.pose)
        np.testing.assert_array_equal(uv, ref)


def test_pixel_jitter_perturbs_but_stays_seeded():
    spec = SceneSpec(profile="flat", pixel_jitter_px=0.5, seed=21)
    a = make_scene(spec)
    b = make_scene(spec)
    clean = make_scene(SceneSpec(profile="flat", seed=21))
    for la, lb in zip(a.lanes_2d, b.lanes_2d):
        np.testing.assert_array_equal(la, lb)
    deltas = [np.abs(la - lc).max() for la, lc in zip(a.lanes_2d, clean.lanes_2d)]
    assert max(deltas) > 0.01


def test_lane_heights_follow_ground_profile(downhill_scene):
    c0, c1, c2 = downhill_scene.resolved.grade
    for lane in downhill_scene.lanes3d:
        np.testing.assert_allclose(lane.z, c0 + c1 * lane.y + c2 * lane.y * lane.y, atol=1e-12)


def test_flat_profile_is_straight_and_level(flat_scene):
    assert flat_scene.resolved.grade == (0.0, 0.0, 0.0)
    assert len(flat_scene.lanes3d) == 4
    for lane in flat_scene.lanes3d:
        assert np.ptp(lane.x) == 0.0
        assert np.all(lane.z == 0.0)
    offsets = sorted(float(lane.x[0]) for lane in flat_scene.lanes3d)
    np.testing.assert_allclose(np.diff(offsets), 3.7, atol=1e-12)
    assert abs(offsets[0] + offsets[-1]) / 2 <= 0.3  # common shift is bounded


def test_uphill_downhill_grades():
    up = make_scene(SceneSpec(profile="uphill", seed=2))
    down = make_scene(SceneSpec(profile="downhill", seed=2))
    assert 5e-5 <= up.resolved.grade[2] <= 1.2e-4
    assert -1.2e-4 <= down.resolved.grade[2] <= -5e-5
    for lane in up.lanes3d:
        assert np.all(np.diff(lane.z) > 0)
    for lane in down.lanes3d:
        assert np.all(np.diff(lane.z) < 0)


def test_bend_resolved_parameters(bend_scene):
    r = bend_scene.resolved.bend_radius
    assert 80.0 <= r <= 300.0
    assert bend_scene.resolved.bend_direction in (-1, 1)
    # inside the arc the lanes really curve
    lane = bend_scene.lanes3d[0]
    assert np.ptp(lane.x) > 0.5


def test_bend_lanes_are_parallel_curves():
    sample = make_scene(SceneSpec(profile="bend", bend_radius_m=100.0,
                                  bend_direction=1, seed=0))
    # each lane is a circular arc about the common center (s*R, 0) while
    # y <= its arc end; check the innermost portion shared by all lanes
    center_x = 100.0
    for lane, offset in zip(sample.lanes3d, sample.resolved.lane_offsets):
        rho = 100.0 - offset
        sel = lane.y <= 0.8 * rho * math.sin(sample.resolved.bend_arc_rad)
        radii = np.hypot(lane.x[sel] - center_x, lane.y[sel])
        np.testing.assert_allclose(radii, rho, atol=1e-9)


@pytest.mark.parametrize("profile,gap", [("fork", 0.12), ("curb", 0.25)])
def test_branch_profiles_add_a_lane(profile, gap):
    sample = make_scene(SceneSpec(profile=profile, seed=8))
    assert len(sample.lanes3d) == 5  # lane_count + the branch
    base = sample.lanes3d[sample.resolved.branch_of]
    branch = sample.lanes3d[-1]
    assert sample.resolved.gap_m == gap
    # at the start of the road the branch sits exactly gap to the right
    x0_base = np.interp(2.0, base.y, base.x)
    x0_branch = np.interp(2.0, branch.y, branch.x)
    assert x0_branch - x0_base == pytest.approx(gap, abs=1e-9)
    if profile == "fork":
        x50_base = np.interp(50.0, base.y, base.x)
        x50_branch = np.interp(50.0, branch.y, branch.x)
        assert x50_branch - x50_base == pytest.approx(gap + 0.012 * 48.0, abs=1e-9)


@pytest.mark.parametrize("profile", ["fork", "curb"])
def test_branch_pair_shares_an_anchor_at_ref(profile):
    grid = AnchorGridSpec.default()
    sample = make_scene(SceneSpec(profile=profile, seed=31))
    h = sample.pose.height_m
    base = sample.lanes_bev[sample.resolved.branch_of]
    branch = sample.lanes_bev[-1]
    centers = grid.x_centers_array()
    for lane in (base, branch):
        x_ref = np.interp(grid.y_ref, lane.y_flat, lane.x_flat)
        nearest = centers[np.argmin(np.abs(centers - x_ref))]
        base_ref = np.interp(grid.y_ref, base.y_flat, base.x_flat)
        assert nearest == centers[np.argmin(np.abs(centers - base_ref))]


def test_anchor_row_preimages_are_vertices(uphill_scene):
    grid = AnchorGridSpec.default()
    for lane in uphill_scene.lanes_bev:
        for step in grid.y_steps:
            if lane.y_flat[0] <= step <= lane.y_flat[-1]:
                assert np.min(np.abs(lane.y_flat - step)) < 1e-9


def _reference_preimages(targets, z_of_y, h, lo, hi):
    """The bisection as it was before the fixpoint exit: always 90 rounds."""
    t = np.asarray(targets, dtype=float)
    lo = np.full(t.shape, lo)
    hi = np.full(t.shape, hi)

    def f(y):
        return y * h / (h - z_of_y(y)) - t

    outside = (f(lo) > 0) | (f(hi) < 0)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        below = f(mid) < 0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.where(outside, np.nan, 0.5 * (lo + hi))


def _record_bisections(monkeypatch):
    """Record (arguments, result) of every pre-image bisection make_scene runs."""
    calls = []
    bisect = scenes._preimages_of_flat_y

    def spy(*args):
        out = bisect(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(scenes, "_preimages_of_flat_y", spy)
    return calls


@pytest.mark.parametrize("crown", [0.0, 0.02])
@pytest.mark.parametrize("profile", PROFILES)
def test_preimages_equal_90_round_reference(monkeypatch, profile, crown):
    calls = _record_bisections(monkeypatch)
    for seed in (0, 7):
        make_scene(SceneSpec(profile=profile, crown_slope=crown, seed=seed))
    rows = [out for args, out in calls if np.ndim(args[0]) == 1]
    assert rows and all(np.isnan(out).any() for out in rows)  # step 0 lies before y_start
    for args, out in calls:
        np.testing.assert_array_equal(out, _reference_preimages(*args), strict=True)


@pytest.mark.parametrize("profile", PROFILES)
def test_anchor_rows_are_bisected_once_per_surface(monkeypatch, profile):
    calls = _record_bisections(monkeypatch)
    plain = make_scene(SceneSpec(profile=profile, seed=5))
    # a fork's or curb's reference distance rides along with the anchor rows
    assert len(calls) == 1 and np.ndim(calls[0][0][0]) == 1
    calls.clear()
    crowned = make_scene(SceneSpec(profile=profile, crown_slope=0.02, seed=5))
    assert sum(np.ndim(args[0]) == 1 for args, _ in calls) == len(crowned.lanes3d)
    assert len(crowned.lanes3d) == len(plain.lanes3d)
    # each crowned lane sits on its own surface, so its own pre-images are its vertices
    steps = AnchorGridSpec.default().y_steps_array()
    for lane in crowned.lanes_bev:
        inside = steps[(steps >= lane.y_flat[0]) & (steps <= lane.y_flat[-1])]
        assert inside.size > 10
        assert np.abs(lane.y_flat[:, None] - inside).min(axis=0).max() < 1e-9


def test_too_tall_ground_raises():
    with pytest.raises(InvalidSpecError):
        make_scene(SceneSpec(profile="uphill", grade=(0.0, 0.02, 0.0), seed=0))


def test_non_monotone_flat_distance_raises():
    with pytest.raises(InvalidSpecError):
        make_scene(SceneSpec(profile="downhill", grade=(0.0, 0.0, -2e-3), seed=0))


def test_sharp_bend_raises():
    with pytest.raises(InvalidSpecError):
        make_scene(SceneSpec(profile="bend", bend_radius_m=20.0, seed=0))
    with pytest.raises(InvalidSpecError):
        # outer lane line of a wide road dips under the minimum lane radius
        make_scene(SceneSpec(profile="bend", bend_radius_m=30.0, lane_count=8, seed=0))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"profile": "spiral"},
        {"lane_count": 1},
        {"lane_width_m": 0.0},
        {"y_start": 0.0},
        {"y_start": 50.0, "y_end": 10.0},
        {"point_spacing_m": 0.0},
        {"bend_arc_deg": 0.0},
        {"bend_arc_deg": 90.0},
        {"profile": "fork", "gap_m": -0.1},
        {"crown_slope": -0.01},
        {"crown_slope": math.nan},
        {"crown_slope": math.inf},
        {"y_end": math.inf},
        {"y_start": math.nan},
        {"point_spacing_m": math.nan},
        {"point_spacing_m": math.inf},
        {"point_spacing_m": 1e-9},  # a 1e11-sample lane, below the spacing's range
        {"y_end": 1e6},
        {"pixel_jitter_px": math.nan},
        {"pixel_jitter_px": -1.0},
        {"lane_width_m": math.nan},
        {"grade": (0.0, math.nan, 0.0)},
        {"height_m": math.nan},
        {"height_m": 0.0},
        {"pitch_rad": math.inf},
        {"profile": "bend", "bend_radius_m": math.inf},
        {"bend_radius_m": math.nan},
        {"bend_arc_deg": math.nan},
        {"profile": "fork", "gap_m": math.inf},
        {"profile": "fork", "fork_divergence": math.nan},
        {"seed": -1},
        {"lane_count": 17},  # past the lane cap
        {"lane_count": 100_000},
        {"y_end": 1000.0, "point_spacing_m": 0.005},  # in range, past the sample cap
        # finite but outside the field's physical range
        {"lane_width_m": 1e308},
        {"grade": (0.0, 0.0, 1e308)},
        {"profile": "bend", "bend_radius_m": 1e308},
        {"bend_arc_deg": 89.0},
        {"profile": "fork", "gap_m": 1e308},
        {"profile": "fork", "fork_divergence": -0.01},
        {"crown_slope": 1e308},
        {"pitch_rad": 1e308},
        {"height_m": 1e308},
        {"y_start": 1e308},
        {"point_spacing_m": 1e308},
        {"pixel_jitter_px": 1e308},
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(InvalidSpecError, match=list(kwargs)[-1]):  # the error names the field
        make_scene(SceneSpec(**kwargs))


def test_perturb_pitch_moves_only_the_camera(flat_scene):
    out = perturb_pitch(flat_scene, 3.0, 12)
    assert out.pose.height_m == flat_scene.pose.height_m
    delta = out.pose.pitch_rad - flat_scene.pose.pitch_rad
    assert 0 < abs(delta) <= math.radians(3.0)
    assert out.lanes3d is flat_scene.lanes3d
    assert out.lanes_bev is flat_scene.lanes_bev
    changed = [np.abs(a - b).max() for a, b in zip(out.lanes_2d, flat_scene.lanes_2d)]
    assert min(changed) > 0.1


def test_perturb_pitch_seeded_and_validated(flat_scene):
    a = perturb_pitch(flat_scene, 2.0, 5)
    b = perturb_pitch(flat_scene, 2.0, 5)
    assert a.pose.pitch_rad == b.pose.pitch_rad
    for la, lb in zip(a.lanes_2d, b.lanes_2d):
        np.testing.assert_array_equal(la, lb)
    zero = perturb_pitch(flat_scene, 0.0, 5)
    for la, lb in zip(zero.lanes_2d, flat_scene.lanes_2d):
        np.testing.assert_array_equal(la, lb)
    with pytest.raises(InvalidSpecError):
        perturb_pitch(flat_scene, -1.0, 0)
    with pytest.raises(InvalidSpecError):
        perturb_pitch(flat_scene, 5.5, 0)
    with pytest.raises(InvalidSpecError):
        perturb_pitch(flat_scene, 1.0, -1)
