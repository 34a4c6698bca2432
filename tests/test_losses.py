import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevlane import (
    AnchorGridSpec,
    AnchorTensor,
    CameraPose,
    LossWeights,
    bev_loss,
    height_loss,
    lane_width,
    total_sup,
    total_ws,
    width_loss,
    z_loss,
)
from bevlane.errors import DegenerateSegmentError, InvalidInputError
from bevlane.losses import _pairs, _widths, ordered_active_layer1, second_layer_mask
from test_gradients import finite_difference_gradient

POSE = CameraPose(0.0, 1.5)


def two_lane_grid(y_steps=(0.0, 5.0, 10.0)):
    return AnchorGridSpec(x_centers=(0.0, 4.0), y_steps=y_steps, y_ref=5.0,
                          x_range=(-1.0, 5.0), y_range=(0.0, y_steps[-1]))


def two_lane_tensor(right_abs_x, left_z=0.0, right_z=0.0, y_steps=(0.0, 5.0, 10.0)):
    grid = two_lane_grid(y_steps)
    t = AnchorTensor.empty(grid)
    t.prob[:, 0] = 1.0
    t.vis[:, 0] = 1.0
    t.x_offsets[1, 0] = np.asarray(right_abs_x, dtype=float) - 4.0
    t.z[0, 0] = left_z
    t.z[1, 0] = right_z
    return t


def test_width_loss_frozen_tv():
    # flat left lane at x=0, right lane widths [3.7, 3.8, 3.7]:
    # total variation |0.1| + |-0.1| = 0.2
    t = two_lane_tensor([3.7, 3.8, 3.7])
    total, grads = width_loss(t, POSE)
    assert total == pytest.approx(0.2, abs=1e-12)
    # z = 0 makes dW/du = +-1 exactly; TV coefficients are [-1, 2, -1]
    np.testing.assert_allclose(grads.d_x_offsets[1, 0], [-1.0, 2.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(grads.d_x_offsets[0, 0], [1.0, -2.0, 1.0], atol=1e-12)
    assert grads.d_prob.sum() == 0.0 and grads.d_vis.sum() == 0.0


def test_width_loss_zero_on_parallel_lanes():
    t = two_lane_tensor([3.7, 3.7, 3.7])
    total, grads = width_loss(t, POSE)
    assert total == 0.0
    assert np.all(grads.d_x_offsets == 0.0)
    assert np.all(grads.d_z == 0.0)


def test_width_loss_lateral_translation_invariance():
    base = two_lane_tensor([3.7, 3.81, 3.64])
    ref, _ = width_loss(base, POSE)
    shifted = base.copy()
    shifted.x_offsets[:, 0] += 0.37
    got, _ = width_loss(shifted, POSE)
    assert got == pytest.approx(ref, rel=1e-12)


def test_width_loss_masked_pair_silent():
    t = two_lane_tensor([3.7, 3.9, 3.6])
    total, grads = width_loss(t, POSE, mask=np.array([True, False]))
    assert total == 0.0
    assert np.all(grads.d_x_offsets == 0.0) and np.all(grads.d_z == 0.0)


def test_width_loss_skips_pairs_touching_second_layer():
    t = two_lane_tensor([3.7, 3.9, 3.6])
    t.prob[1, 1] = 1.0  # activates the default mask at the right anchor
    total, _ = width_loss(t, POSE)
    assert total == 0.0


def test_width_loss_normalize_divides_by_terms():
    t = two_lane_tensor([3.7, 3.8, 3.7])
    raw, _ = width_loss(t, POSE)
    norm, _ = width_loss(t, POSE, normalize=True)
    assert norm == pytest.approx(raw / 2.0)


def test_width_loss_smooth_delta_regions():
    t = two_lane_tensor([3.7, 3.75, 3.7])  # diffs +-0.05
    exact, _ = width_loss(t, POSE)
    assert exact == pytest.approx(0.1, abs=1e-12)
    quad, gq = width_loss(t, POSE, smooth_delta=0.1)  # |v| < delta: v^2/(2 delta)
    assert quad == pytest.approx(2 * (0.05 ** 2) / 0.2, abs=1e-12)
    np.testing.assert_allclose(gq.d_x_offsets[1, 0], [-0.5, 1.0, -0.5], atol=1e-12)
    lin, gl = width_loss(t, POSE, smooth_delta=0.01)  # |v| >= delta: |v| - delta/2
    assert lin == pytest.approx(0.1 - 0.01, abs=1e-12)
    np.testing.assert_allclose(gl.d_x_offsets[1, 0], [-1.0, 2.0, -1.0], atol=1e-12)


def test_smooth_l1_continuous_at_kink():
    from bevlane.losses import _l1

    delta = 0.05
    below, _ = _l1(np.array([delta * (1 - 1e-9)]), delta)
    above, _ = _l1(np.array([delta * (1 + 1e-9)]), delta)
    # both branches meet at delta/2; the only gap is the slope-1 crossing
    assert float(below[0]) == pytest.approx(delta / 2, rel=1e-8)
    assert float(above[0]) == pytest.approx(delta / 2, rel=1e-8)


def test_degenerate_neighbour_chord_raises():
    # z = h collapses lifted points onto the camera axis: consecutive
    # neighbour samples coincide and no chord direction exists
    t = two_lane_tensor([3.7, 3.8, 3.7], left_z=[1.5, 1.5, 0.0])
    with pytest.raises(DegenerateSegmentError):
        width_loss(t, POSE)


def test_height_loss_frozen():
    t = two_lane_tensor([3.7, 3.7, 3.7], right_z=[0.02, 0.05, 0.0])
    total, grads = height_loss(t)
    # first step excluded by default: |0.05| + |0.0|
    assert total == pytest.approx(0.05, abs=1e-15)
    np.testing.assert_array_equal(grads.d_z[1, 0], [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(grads.d_z[0, 0], [0.0, -1.0, 0.0])
    with_first, _ = height_loss(t, include_first_step=True)
    assert with_first == pytest.approx(0.07, abs=1e-15)


def test_height_loss_requires_mutual_visibility():
    t = two_lane_tensor([3.7, 3.7, 3.7], right_z=[0.0, 0.4, 0.4])
    t.vis[0, 0, 1] = 0.0
    total, _ = height_loss(t)
    assert total == pytest.approx(0.4)


@given(offset=st.floats(-0.4, 0.4, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_height_loss_invariant_to_common_z_offset(offset):
    t = two_lane_tensor([3.7, 3.7, 3.7], left_z=[0.0, 0.01, 0.03], right_z=[0.0, 0.02, 0.01])
    ref, _ = height_loss(t)
    shifted = t.copy()
    shifted.z[:, 0] += offset
    got, _ = height_loss(shifted)
    assert got == pytest.approx(ref, abs=1e-12)


def test_bev_loss_frozen():
    grid = AnchorGridSpec(x_centers=(0.0,), y_steps=(0.0, 5.0), y_ref=5.0,
                          x_range=(-1.0, 1.0), y_range=(0.0, 5.0))
    gt = AnchorTensor.empty(grid)
    gt.prob[0, 0] = 1.0
    gt.vis[0, 0] = [1.0, 0.0]
    pred = gt.copy()
    pred.prob[0, 0] = 0.5
    pred.x_offsets[0, 0] = [0.3, 9.9]  # second step hidden in gt: not penalized
    total, grads = bev_loss(pred, gt)
    expected = -math.log(0.5) - math.log1p(-1e-7) + 0.3
    assert total == pytest.approx(expected, rel=1e-12)
    assert grads.d_prob[0, 0] == pytest.approx(-2.0)
    assert grads.d_prob[0, 1] == 0.0  # clamped slot: zero subgradient
    np.testing.assert_array_equal(grads.d_x_offsets[0, 0], [1.0, 0.0])
    np.testing.assert_array_equal(grads.d_vis[0, 0], [0.0, 0.0])


def test_bev_loss_zero_at_ground_truth(flat_encoded):
    total, grads = bev_loss(flat_encoded, flat_encoded)
    # gt probabilities are exactly 0 or 1: clamping leaves a bounded eps residue
    assert total <= 60 * 1e-7
    assert np.all(grads.d_x_offsets == 0.0)


def test_bev_loss_rejects_grid_mismatch(flat_encoded):
    other = AnchorTensor.empty(two_lane_grid())
    with pytest.raises(InvalidInputError):
        bev_loss(other, flat_encoded)


def test_z_loss_gated_sum():
    t = two_lane_tensor([3.7, 3.7, 3.7])
    gt = t.copy()
    pred = t.copy()
    pred.z[0, 0] = [0.1, -0.2, 0.3]
    gt.vis[0, 0, 2] = 0.0  # hidden step drops out of the sum
    total, grads = z_loss(pred, gt)
    assert total == pytest.approx(0.3)
    np.testing.assert_array_equal(grads.d_z[0, 0], [1.0, -1.0, 0.0])
    norm_total, _ = z_loss(pred, gt, normalize=True)
    assert norm_total == pytest.approx(0.3 / 5.0)  # 5 gated entries remain


def test_width_profile_parallel_lanes():
    t = two_lane_tensor([3.7, 3.7, 3.7])
    prev, cur = _pairs(t)
    assert list(zip(prev.tolist(), cur.tolist())) == [(0, 1)]
    widths, valid, _ = _widths(t, POSE, prev, cur)
    np.testing.assert_allclose(widths[0], 3.7, atol=1e-12)
    assert valid.all()


def test_width_profile_needs_two_lanes():
    grid = two_lane_grid()
    t = AnchorTensor.empty(grid)
    t.prob[0, 0] = 1.0
    t.vis[0, 0] = 1.0
    prev, cur = _pairs(t)
    assert prev.size == cur.size == 0
    widths, valid, _ = _widths(t, POSE, prev, cur)
    assert widths.shape == valid.shape == (0, grid.n_steps)
    loss, grads = width_loss(t, POSE)
    assert loss == 0.0
    assert not grads.d_x_offsets.any() and not grads.d_z.any()


def test_lane_width_matches_perpendicular_on_lateral_chord():
    w = lane_width([3.7, 5.0, 0.0], [0.0, 5.0, 0.0], [0.0, 2.5, 0.0])
    assert w == pytest.approx(3.7, abs=1e-15)


def test_lane_width_degenerate_chord_raises():
    with pytest.raises(DegenerateSegmentError):
        lane_width([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])


def test_ordered_active_layer1_sorts_by_position_at_ref():
    grid = AnchorGridSpec(x_centers=(0.0, 0.8, 1.6, 2.4), y_steps=(0.0, 5.0, 10.0),
                          y_ref=5.0, x_range=(-4.0, 7.0), y_range=(0.0, 10.0))
    t = AnchorTensor.empty(grid)
    t.prob[[0, 3], 0] = 1.0
    t.vis[[0, 3], 0] = 1.0
    t.x_offsets[0, 0] = 3.0  # abs 3.0
    t.x_offsets[3, 0] = -2.0  # abs 0.4
    assert ordered_active_layer1(t) == [3, 0]


def test_second_layer_mask():
    t = two_lane_tensor([3.7, 3.7, 3.7])
    t.prob[0, 1] = 0.9
    np.testing.assert_array_equal(second_layer_mask(t), [True, False])


def test_total_ws_combines_terms():
    pred = two_lane_tensor([3.7, 3.8, 3.7], right_z=[0.0, 0.05, 0.0])
    gt = two_lane_tensor([3.7, 3.8, 3.7])
    out = total_ws(pred, gt, POSE, LossWeights(width=2.0))
    w, _ = width_loss(pred, POSE)
    hgt, _ = height_loss(pred)
    b, _ = bev_loss(pred, gt)
    assert out.l_width == pytest.approx(w)
    assert out.l_height == pytest.approx(hgt)
    assert out.total == pytest.approx(b + 2.0 * w + hgt)
    assert out.l_pitch == 0.0


def test_total_ws_pitch_term():
    pred = two_lane_tensor([3.7, 3.7, 3.7])
    out = total_ws(pred, pred, POSE, pred_pitch_rad=0.02, calib_pitch_rad=0.005)
    assert out.l_pitch == pytest.approx(0.015)
    with pytest.raises(InvalidInputError):
        total_ws(pred, pred, POSE, pred_pitch_rad=0.02)
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidInputError):
            total_ws(pred, pred, POSE, pred_pitch_rad=bad, calib_pitch_rad=0.0)
        with pytest.raises(InvalidInputError):
            total_sup(pred, pred, pred_pitch_rad=0.0, calib_pitch_rad=bad)


def test_loss_weights_validation():
    LossWeights(bev=0.0, width=0.0, height=0.0, z=0.0, pitch=0.0)  # zero switches a term off
    for name in ("bev", "width", "height", "z", "pitch"):
        for bad in (-1.0, math.nan, math.inf, 1e308, 1.000001e6):
            with pytest.raises(InvalidInputError, match=name):
                LossWeights(**{name: bad})
    LossWeights(bev=1e6)  # the upper edge is accepted


@pytest.mark.parametrize("delta", [0.0, -1.0, math.nan, math.inf])
def test_smooth_delta_must_be_positive_and_finite(delta):
    t = two_lane_tensor([3.7, 3.8, 3.7], right_z=[0.0, 0.05, 0.0])
    for loss in (lambda: width_loss(t, POSE, smooth_delta=delta),
                 lambda: height_loss(t, smooth_delta=delta),
                 lambda: z_loss(t, t, smooth_delta=delta)):
        with pytest.raises(InvalidInputError):
            loss()


def test_total_sup_combines_terms():
    gt = two_lane_tensor([3.7, 3.7, 3.7], right_z=[0.0, 0.1, 0.0])
    pred = gt.copy()
    pred.z[:] = 0.0
    out = total_sup(pred, gt)
    assert out.l_z == pytest.approx(0.1)
    assert out.l_bev == pytest.approx(bev_loss(pred, gt)[0])
    assert out.total == pytest.approx(out.l_bev + out.l_z)


def test_finite_difference_gradient_quadratic():
    f = lambda x: float((x ** 2).sum())
    x0 = np.array([1.0, -2.0, 0.5])
    grad = finite_difference_gradient(f, x0, step=1e-6)
    np.testing.assert_allclose(grad, 2 * x0, atol=1e-8)
    partial = finite_difference_gradient(f, x0, step=1e-6, indices=[2])
    np.testing.assert_allclose(partial, [1.0], atol=1e-8)
