import math

import numpy as np
import pytest

from bevlane import (
    CalibConfig,
    CameraPose,
    DEFAULT_INTRINSICS,
    SceneSpec,
    calibrate_pitch,
    flat_from_image_points,
    make_scene,
    perturb_pitch,
    project_points3_to_image,
)
from bevlane.calibration import _fit_line, _pitch_from_lines, FittedLine
from bevlane.errors import (
    IllConditionedError,
    InsufficientPointsError,
    InvalidInputError,
)


def straight_lane_pixels(x, pitch_rad, n=30):
    y = np.linspace(2.0, 9.5, n)
    pts = np.stack([np.full(n, x), y, np.zeros(n)], axis=-1)
    return project_points3_to_image(pts, DEFAULT_INTRINSICS, CameraPose(pitch_rad, 1.5))


def test_two_lines_give_the_pair_pitch_for_any_weights():
    # a line through two points does not depend on their weights
    expected = math.atan(1.5 * 0.02 / 3.7)
    assert math.degrees(expected) == pytest.approx(0.46455, abs=5e-6)
    for k_vars in ((1e-30, 1e-30), (1e-8, 1e-2), (4.0, 1e-12)):
        left = FittedLine(k=0.0, c=0.0, n_points=10, k_var=k_vars[0])
        right = FittedLine(k=0.02, c=3.7, n_points=10, k_var=k_vars[1])
        for lines in ([left, right], [right, left]):
            pitch, stderr = _pitch_from_lines(lines, 1.5)
            assert pitch == pytest.approx(expected, rel=1e-14)
            assert stderr > 0


def test_fit_line_matches_normal_equations():
    rng = np.random.default_rng(3)
    y = rng.uniform(2.0, 10.0, 40)
    x = 0.03 * y + 1.7 + rng.normal(0.0, 0.01, 40)
    line = _fit_line(x, y)
    a = np.stack([y, np.ones_like(y)], axis=-1)
    k_ref, c_ref = np.linalg.solve(a.T @ a, a.T @ x)
    assert line.k == pytest.approx(k_ref, abs=1e-12)
    assert line.c == pytest.approx(c_ref, abs=1e-12)
    assert line.n_points == 40
    # the slope's variance: residual variance times the (k, k) entry of (A^T A)^-1
    res = k_ref * y + c_ref - x
    k_var_ref = (res @ res) / (40 - 2) * np.linalg.inv(a.T @ a)[0, 0]
    assert line.k_var == pytest.approx(k_var_ref, rel=1e-9)


def test_fit_line_needs_two_points():
    with pytest.raises(InsufficientPointsError):
        _fit_line(np.array([1.0]), np.array([2.0]))


def beyond_y_close(uv, pitch_rad, y_close_m, h=1.5):
    """Rows of uv that back-project past y_close (or miss the ground) at the assumed pitch."""
    flat, ok = flat_from_image_points(uv, DEFAULT_INTRINSICS, CameraPose(pitch_rad, h))
    return ~ok | (flat[:, 1] >= y_close_m)


def test_calibration_ignores_points_beyond_y_close():
    for profile, seed, y_close_m in (("flat", 1, 10.0), ("uphill", 3, 10.0), ("bend", 4, 15.0)):
        scene = make_scene(SceneSpec(profile=profile, seed=seed, pixel_jitter_px=0.3))
        sample = perturb_pitch(scene, 3.0, seed)
        cfg = CalibConfig(y_close_m=y_close_m)
        clean = calibrate_pitch(sample.lanes_2d, sample.intrinsics, 1.5, cfg)
        rng = np.random.default_rng(seed)
        corrupted, n_near = [], []
        for uv in sample.lanes_2d:
            far = beyond_y_close(uv, 0.0, y_close_m)  # one iteration back-projects at pitch 0
            assert far.any() and not far.all()
            bad = uv.copy()
            # y_flat depends on v alone, and a smaller v lies farther out: the
            # corrupted points stay beyond y_close
            bad[far, 0] += rng.normal(0.0, 50.0, far.sum())
            bad[far, 1] -= rng.uniform(0.0, 20.0, far.sum())
            assert beyond_y_close(bad, 0.0, y_close_m).tolist() == far.tolist()
            corrupted.append(bad)
            n_near.append(int((~far).sum()))
        result = calibrate_pitch(corrupted, sample.intrinsics, 1.5, cfg)
        assert result.pitch_rad == clean.pitch_rad  # bit for bit
        assert result.lines == clean.lines
        assert sorted(line.n_points for line in result.lines) == sorted(n_near)


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_recovers_pitch_exactly_on_straight_lanes(flat_scene, seed):
    sample = perturb_pitch(flat_scene, 3.0, seed)
    result = calibrate_pitch(sample.lanes_2d, sample.intrinsics, sample.pose.height_m)
    assert abs(result.pitch_rad - sample.pose.pitch_rad) < 1e-10
    assert result.iterations == 1
    assert len(result.lines) == len(sample.lanes3d)
    assert result.stderr_rad < 1e-12


def test_two_iterations_confirm_convergence(flat_scene):
    sample = perturb_pitch(flat_scene, 3.0, 5)
    one = calibrate_pitch(sample.lanes_2d, sample.intrinsics, 1.5)
    assert not one.converged  # a single pass cannot confirm its own fixpoint
    two = calibrate_pitch(sample.lanes_2d, sample.intrinsics, 1.5, CalibConfig(max_iters=2))
    assert two.converged
    assert two.iterations == 2
    assert abs(two.pitch_rad - sample.pose.pitch_rad) < 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_curb_pitch_within_005_deg(seed):
    # the curb lane sits about 0.25 m from its neighbour, too close to tell
    # the pitch from those two lanes alone; the 3.7 m gaps must carry it
    scene = make_scene(SceneSpec(profile="curb", seed=seed, pixel_jitter_px=0.3))
    sample = perturb_pitch(scene, 3.0, seed)
    result = calibrate_pitch(sample.lanes_2d, sample.intrinsics, sample.pose.height_m)
    assert abs(math.degrees(result.pitch_rad - sample.pose.pitch_rad)) <= 0.05


def test_stderr_is_the_scale_of_the_error_on_flat_roads():
    # on a flat road the error is pixel noise, which the slopes' variances
    # measure; on graded roads the straight-road model's bias adds to it
    z = []
    for seed in range(20):
        scene = make_scene(SceneSpec(profile="flat", seed=seed, pixel_jitter_px=0.3))
        sample = perturb_pitch(scene, 3.0, seed)
        result = calibrate_pitch(sample.lanes_2d, sample.intrinsics, 1.5, CalibConfig(max_iters=3))
        z.append((result.pitch_rad - sample.pose.pitch_rad) / result.stderr_rad)
    assert 0.5 <= float(np.sqrt(np.mean(np.square(z)))) <= 2.5


def test_insufficient_lanes_raise():
    uv = straight_lane_pixels(0.0, 0.01)
    with pytest.raises(InsufficientPointsError):
        calibrate_pitch([uv], DEFAULT_INTRINSICS, 1.5)


def test_fit_near_line_insufficient():
    # the near-field line fit of calibrate_pitch needs three points with y_flat < y_close
    good = straight_lane_pixels(0.0, 0.01)
    far_only = np.stack([np.full(5, 200.0), np.linspace(181.0, 183.0, 5)], axis=-1)
    # one or two points below v = 255 (10 m at pitch 0), the rest beyond y_close
    one_near = np.stack([np.full(5, 400.0), [300.0, 200.0, 195.0, 190.0, 185.0]], axis=-1)
    two_near = np.stack([np.full(5, 400.0), [300.0, 280.0, 195.0, 190.0, 185.0]], axis=-1)
    for lane, n_near in ((far_only, 0), (one_near, 1), (two_near, 2)):
        assert (~beyond_y_close(lane, 0.0, 10.0)).sum() == n_near
        # too few near points to fit a line: one usable lane is left
        with pytest.raises(InsufficientPointsError):
            calibrate_pitch([good, lane], DEFAULT_INTRINSICS, 1.5)


def test_lane_without_near_points_is_skipped():
    good = straight_lane_pixels(0.0, 0.01)
    far_only = np.stack([np.full(5, 200.0), np.linspace(181.0, 183.0, 5)], axis=-1)
    one_near = np.stack([np.full(5, 400.0), [300.0, 200.0, 195.0, 190.0, 185.0]], axis=-1)
    two_near = np.stack([np.full(5, 400.0), [300.0, 280.0, 195.0, 190.0, 185.0]], axis=-1)
    # near, but all at one distance: the slope is undefined
    one_row = np.stack([np.linspace(300.0, 400.0, 5), np.full(5, 300.0)], axis=-1)
    # the far-only lane back-projects beyond y_close, leaving one usable lane
    with pytest.raises(InsufficientPointsError):
        calibrate_pitch([good, far_only], DEFAULT_INTRINSICS, 1.5)
    right = straight_lane_pixels(3.7, 0.01)
    two = calibrate_pitch([good, right], DEFAULT_INTRINSICS, 1.5)
    for lane in (far_only, one_near, two_near, one_row):
        three = calibrate_pitch([good, lane, right], DEFAULT_INTRINSICS, 1.5)
        assert three.pitch_rad == two.pitch_rad
        assert three.lines == two.lines


def test_close_intercepts_are_ill_conditioned():
    a = straight_lane_pixels(0.0, 0.01)
    b = straight_lane_pixels(0.1, 0.01)  # 0.1 m apart: below the 0.2 m floor
    with pytest.raises(IllConditionedError):
        calibrate_pitch([a, b], DEFAULT_INTRINSICS, 1.5)


def test_validation():
    with pytest.raises(InvalidInputError):
        CalibConfig(y_close_m=0.0)
    with pytest.raises(InvalidInputError):
        CalibConfig(max_iters=0)
    for name in ("y_close_m", "tol_rad"):
        for bad in (math.nan, math.inf):
            with pytest.raises(InvalidInputError, match=name):
                CalibConfig(**{name: bad})
    CalibConfig(tol_rad=0.0)
    with pytest.raises(InvalidInputError):
        CalibConfig(tol_rad=-1e-9)
    uv = straight_lane_pixels(0.0, 0.0)
    with pytest.raises(InvalidInputError):
        calibrate_pitch([uv, uv], DEFAULT_INTRINSICS, -1.0)
    with pytest.raises(InvalidInputError):
        calibrate_pitch([np.zeros((4, 3))], DEFAULT_INTRINSICS, 1.5)
