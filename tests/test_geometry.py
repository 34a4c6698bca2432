import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevlane import (
    CameraPose,
    DEFAULT_INTRINSICS,
    Intrinsics,
    Lane3D,
    LaneBEV,
    calibrate_pitch,
    flat_from_image_points,
    flat_from_points3,
    lane_bev_from_lane3d,
    project_points3_to_image,
    resample_at_y,
    resample_bev_with_z,
    resample_lane3d_xz,
)
from bevlane.errors import (
    BehindCameraError,
    DegenerateProjectionError,
    InsufficientPointsError,
    InvalidInputError,
    InvalidLaneError,
)


def lift(flat, z, h):
    """Flat-ground point back to 3D given its true height: the inverse of the projection."""
    return (h - z) / h * np.asarray(flat, dtype=float)


def test_flat_projection_frozen_example():
    # h=1.5, z=0.3: scale h/(h-z) = 1.25 exactly
    flat = flat_from_points3(np.array([[2.0, 10.0, 0.3]]), 1.5)
    np.testing.assert_allclose(flat, [[2.5, 12.5]], atol=1e-12)


def test_lift_is_exact_inverse_frozen():
    back = lift([2.5, 12.5], 0.3, 1.5)
    np.testing.assert_allclose(back, [2.0, 10.0], atol=1e-12)
    again = flat_from_points3(np.array([[back[0], back[1], 0.3]]), 1.5)
    np.testing.assert_allclose(again, [[2.5, 12.5]], atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    x=st.floats(-50, 50),
    y=st.floats(-50, 50),
    z=st.floats(-5, 1.4),
)
def test_project_lift_round_trip(x, y, z):
    h = 1.5
    flat = flat_from_points3(np.array([[x, y, z]]), h)
    back = lift(flat[0], z, h)
    assert back[0] == pytest.approx(x, abs=1e-9)
    assert back[1] == pytest.approx(y, abs=1e-9)


def test_projection_rejects_point_at_camera_height():
    with pytest.raises(DegenerateProjectionError):
        flat_from_points3(np.array([[0.0, 10.0, 1.5]]), 1.5)
    with pytest.raises(DegenerateProjectionError):  # one row above the camera fails the batch
        flat_from_points3(np.array([[0.0, 5.0, 0.0], [0.0, 10.0, 2.0]]), 1.5)


def test_projection_rejects_bad_height():
    for h in (0.0, -1.0, float("nan")):
        with pytest.raises(InvalidInputError):
            flat_from_points3(np.array([[0.0, 1.0, 0.0]]), h)


def test_pinhole_frozen_example():
    # pitch 0, h=1.5: ground point 10 m ahead lands fy*h/y = 75 px below center
    uv = project_points3_to_image(
        np.array([[0.0, 10.0, 0.0]]), DEFAULT_INTRINSICS, CameraPose(0.0, 1.5)
    )
    np.testing.assert_allclose(uv[0], [240.0, 255.0], atol=1e-12)


def test_point_behind_camera_raises():
    with pytest.raises(BehindCameraError):
        project_points3_to_image(
            np.array([[0.0, -1.0, 0.0]]), DEFAULT_INTRINSICS, CameraPose(0.0, 1.5)
        )
    with pytest.raises(BehindCameraError):  # the ground point under the camera
        project_points3_to_image(
            np.array([[0.0, 0.0, 0.0]]), DEFAULT_INTRINSICS, CameraPose(0.0, 1.5)
        )


@settings(max_examples=150, deadline=None)
@given(
    pitch=st.floats(-0.2, 0.2),
    x=st.floats(-10, 10),
    y=st.floats(2, 80),
)
def test_image_flat_round_trip(pitch, x, y):
    intr = DEFAULT_INTRINSICS
    pose = CameraPose(pitch, 1.5)
    uv = project_points3_to_image(np.array([[x, y, 0.0]]), intr, pose)
    flat, ok = flat_from_image_points(uv, intr, pose)
    assert ok.tolist() == [True]
    assert flat[0, 0] == pytest.approx(x, abs=1e-9)
    assert flat[0, 1] == pytest.approx(y, abs=1e-9)


def test_pixel_above_horizon_raises():
    intr = DEFAULT_INTRINSICS
    pose = CameraPose(0.0, 1.5)
    # at pitch 0 the horizon sits exactly at v = cy: rows on it or above never meet the ground
    horizon = np.array([[240.0, intr.cy], [240.0, intr.cy - 5.0]])
    flat, ok = flat_from_image_points(horizon, intr, pose)
    assert ok.tolist() == [False, False]
    assert np.all(np.isnan(flat))
    # a lane drawn on or above the horizon gives calibration no ground points
    ground = project_points3_to_image(
        np.stack([np.zeros(10), np.linspace(2.0, 9.5, 10), np.zeros(10)], axis=-1), intr, pose
    )
    sky = np.stack([np.full(5, 300.0), np.linspace(intr.cy - 20.0, intr.cy, 5)], axis=-1)
    with pytest.raises(InsufficientPointsError):
        calibrate_pitch([ground, sky], intr, pose.height_m)


def test_flat_from_image_points_masks_horizon_rows():
    intr = DEFAULT_INTRINSICS
    pose = CameraPose(0.0, 1.5)
    uv = np.array([[240.0, 255.0], [240.0, 170.0], [240.0, 181.0]])
    flat, ok = flat_from_image_points(uv, intr, pose)
    assert ok.tolist() == [True, False, True]
    np.testing.assert_allclose(flat[0], [0.0, 10.0], atol=1e-9)
    assert np.all(np.isnan(flat[1]))


def test_camera_pose_validation():
    with pytest.raises(InvalidInputError):
        CameraPose(math.pi / 2, 1.5)
    with pytest.raises(InvalidInputError):
        CameraPose(0.0, -1.0)
    with pytest.raises(InvalidInputError):
        CameraPose(float("nan"), 1.5)


def test_intrinsics_validation():
    with pytest.raises(InvalidInputError):
        Intrinsics(fx=-1.0, fy=500.0, cx=0.0, cy=0.0)
    with pytest.raises(InvalidInputError):
        Intrinsics(fx=500.0, fy=500.0, cx=0.0, cy=0.0, image_w=0)


def test_lane3d_validation():
    with pytest.raises(InvalidLaneError):
        Lane3D([[0.0, 0.0, 0.0]])  # too short
    with pytest.raises(InvalidLaneError):
        Lane3D([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])  # y not increasing
    with pytest.raises(InvalidLaneError):
        Lane3D([[0.0, 0.0, 0.0], [0.0, float("inf"), 0.0]])
    with pytest.raises(InvalidLaneError):
        Lane3D(np.zeros((3, 2)))


def test_lane_bev_validation():
    with pytest.raises(InvalidLaneError):
        LaneBEV([[0.0, 2.0], [0.0, 1.0]])
    with pytest.raises(InvalidLaneError):
        LaneBEV([[0.0, 1.0], [0.0, 2.0]], visibility=[True])
    with pytest.raises(InvalidLaneError):
        LaneBEV([[0.0, 1.0], [0.0, 2.0]], z=[0.0])


def test_resample_interior_and_clamping():
    lane = Lane3D([[0.0, 0.0, 0.0], [1.0, 1.0, 0.1], [4.0, 2.0, 0.2]])
    x, visible = resample_at_y(lane, np.array([0.5, 1.5, 3.0]))
    np.testing.assert_allclose(x, [0.5, 2.5, 4.0], atol=1e-12)
    assert visible.tolist() == [True, True, False]  # 3.0 is clamped past the end


def test_resample_respects_bev_visibility():
    lane = LaneBEV(
        [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], visibility=[True, True, False]
    )
    _, visible = resample_at_y(lane, np.array([0.5, 1.5]))
    assert visible.tolist() == [True, False]


def test_resample_bev_with_z_defaults_to_zero_heights():
    lane = LaneBEV([[0.0, 1.0], [1.0, 2.0]])
    x, z, visible = resample_bev_with_z(lane, np.array([1.0, 1.5, 2.0]))
    np.testing.assert_allclose(z, 0.0)
    assert visible.all()


def test_resample_lane3d_xz_zeroes_invisible_heights():
    lane = Lane3D([[0.0, 1.0, 0.5], [1.0, 2.0, 0.7]])
    x, z, visible = resample_lane3d_xz(lane, np.array([1.5, 5.0]))
    assert z[0] == pytest.approx(0.6, abs=1e-12)
    assert z[1] == 0.0 and not visible[1]


def test_resample_rejects_bad_grid():
    lane = LaneBEV([[0.0, 1.0], [1.0, 2.0]])
    with pytest.raises(InvalidInputError):
        resample_at_y(lane, np.array([2.0, 1.0]))
    with pytest.raises(InvalidInputError):
        resample_at_y(lane, np.array([]))
    with pytest.raises(InvalidInputError):
        resample_at_y(object(), np.array([1.0]))


def test_lane_bev_from_lane3d_carries_heights():
    lane = Lane3D([[1.0, 10.0, 0.3], [2.0, 20.0, 0.3]])
    bev = lane_bev_from_lane3d(lane, 1.5)
    np.testing.assert_allclose(bev.x_flat, [1.25, 2.5], atol=1e-12)
    np.testing.assert_allclose(bev.z, [0.3, 0.3], atol=1e-15)


def point_line_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Exact distance from point p to the infinite 3D line through a and b."""
    p, a, b = (np.asarray(v, dtype=float) for v in (p, a, b))
    d = b - a
    norm = np.linalg.norm(d)
    if norm < 1e-15:
        raise InvalidInputError("line through coincident points is undefined")
    return float(np.linalg.norm(np.cross(p - a, d)) / norm)


def test_point_line_distance_frozen():
    assert point_line_distance([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]) == pytest.approx(1.0)
    assert point_line_distance([0.0, 5.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(InvalidInputError):
        point_line_distance([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
