import numpy as np
import pytest

from bevlane import (
    AnchorGridSpec,
    AnchorTensor,
    CameraPose,
    FitConfig,
    SceneSpec,
    closed_form_z,
    closed_form_z_profile,
    encode_gt,
    fit_sup,
    fit_ws,
    height_loss,
    make_scene,
    width_loss,
)
from bevlane.errors import DivergedError, InvalidInputError
from bevlane.fit import STOP_REASONS, _free_z_mask, _solve_weak, bev_row_widths, first_pinnable_step
from bevlane.losses import ordered_active_layer1, second_layer_mask, weak_residuals
from conftest import gauge_transform

POSE = CameraPose(0.0, 1.5)


def weak_start(encoded):
    start = encoded.copy()
    start.z[:] = 0.0
    return start


def encoded_scene(profile, seed, **kw):
    sample = make_scene(SceneSpec(profile=profile, seed=seed, **kw))
    return sample, encode_gt(sample.lanes_bev, AnchorGridSpec.default())


def weak_l1(tensor, pose):
    return width_loss(tensor, pose)[0] + height_loss(tensor)[0]


def straight_rms_vs_closed_form(encoded, pose, fitted, pin_step):
    """Acceptance test 2's straight-road figure: fitted heights against the closed form."""
    z_cf, valid, _ = closed_form_z_profile(encoded, pose, ref_index=pin_step)
    free = (encoded.prob[:, :, None] >= 0.5) & (encoded.vis >= 0.5)
    free[:, 1, :] = False
    diffs = [
        fitted.z[i, k, j] - z_cf[j]
        for i, k, j in zip(*np.nonzero(free))
        if valid[j] and j != pin_step
    ]
    return np.sqrt(np.mean(np.square(diffs)))


def closed_form_start(encoded, pose, pin_step):
    """fit_ws's start: free heights at the closed form in the pin's gauge, 0 where it has none."""
    z_cf, valid, _ = closed_form_z_profile(encoded, pose, ref_index=pin_step)
    start = weak_start(encoded)
    seen = (encoded.prob[:, 0, None] >= 0.5) & (encoded.vis[:, 0] >= 0.5)
    seen[:, pin_step] = False
    start.z[:, 0][seen] = np.broadcast_to(np.where(valid, z_cf, 0.0), seen.shape)[seen]
    return start


def true_z_rows(encoded):
    """(z (Y,), visible (Y,)) from the first active layer-1 slot."""
    i = int(np.flatnonzero(encoded.prob[:, 0] >= 0.5)[0])
    return encoded.z[i, 0], encoded.vis[i, 0] >= 0.5


def test_closed_form_z_frozen():
    z, usable, ref = closed_form_z(np.array([3.7, 3.8085]), 1.5)
    assert ref == 0
    assert usable.all()
    assert z[0] == 0.0
    assert z[1] == pytest.approx(1.5 * (1 - 3.7 / 3.8085), abs=1e-15)


def test_closed_form_z_skips_bad_widths():
    w = np.array([np.nan, 3.7, -1.0, 3.8])
    z, usable, ref = closed_form_z(w, 1.5)
    assert ref == 1  # first usable entry becomes the reference
    np.testing.assert_array_equal(usable, [False, True, False, True])
    assert z[1] == 0.0
    assert np.isnan(z[0]) and np.isnan(z[2])


def test_closed_form_z_ref_z_is_the_gauge_knob():
    w = np.array([3.7, 3.75, 3.82])
    base, _, _ = closed_form_z(w, 1.5, ref_z=0.0)
    lifted, _, _ = closed_form_z(w, 1.5, ref_z=0.2)
    # same family member: renormalizing the lifted profile so its reference
    # entry (value 0.2) maps to zero must land exactly on the base profile
    np.testing.assert_allclose(gauge_transform(lifted, 1.5, 0.2), base, atol=1e-12)


def test_closed_form_z_validation():
    with pytest.raises(InvalidInputError):
        closed_form_z(np.zeros((2, 2)), 1.5)
    with pytest.raises(InvalidInputError):
        closed_form_z(np.array([3.7, 3.8]), 1.5, ref_z=1.5)
    with pytest.raises(InvalidInputError):
        closed_form_z(np.array([np.nan, np.nan]), 1.5)
    with pytest.raises(InvalidInputError):
        closed_form_z(np.array([np.nan, 3.7]), 1.5, ref_index=0)


def test_closed_form_profile_matches_generator_truth(uphill_encoded, uphill_scene):
    z_cf, valid, ref = closed_form_z_profile(uphill_encoded, uphill_scene.pose)
    z_true, vis = true_z_rows(uphill_encoded)
    expected = gauge_transform(z_true, 1.5, float(z_true[ref]))
    sel = valid & vis
    assert sel.sum() >= 15
    np.testing.assert_allclose(z_cf[sel], expected[sel], atol=1e-9)


def test_bev_row_widths_frozen(flat_encoded):
    widths, valid, pairs = bev_row_widths(flat_encoded)
    assert len(pairs) == 3
    sel = valid.all(axis=0)
    assert sel.sum() >= 15
    np.testing.assert_allclose(widths[:, sel], 3.7, atol=1e-9)


def test_bev_row_widths_needs_two_lanes(flat_encoded):
    mask = np.ones(flat_encoded.grid.n_anchors, dtype=bool)
    with pytest.raises(InvalidInputError):
        bev_row_widths(flat_encoded, mask)


def test_bev_row_widths_skips_pairs_touching_a_masked_lane(flat_encoded):
    t = flat_encoded.copy()
    left, middle, right, last = ordered_active_layer1(t)
    mask = np.zeros(t.grid.n_anchors, dtype=bool)
    mask[middle] = True
    widths, valid, pairs = bev_row_widths(t, mask)
    assert pairs == [(right, last)]
    np.testing.assert_array_equal(widths[0], np.abs(t.abs_x()[last, 0] - t.abs_x()[right, 0]))
    # three active lanes, the middle one masked: no pair may straddle it
    t.prob[last, 0] = 0.0
    with pytest.raises(InvalidInputError):
        bev_row_widths(t, mask)


def test_first_pinnable_step_default_scenes(flat_encoded, uphill_encoded):
    # scenes start at y = 2 m: step 0 (y' = 0) is invisible, so the width at
    # step 1 lacks its chord partner and step 2 is the first measured one
    assert first_pinnable_step(flat_encoded, POSE) == 2
    assert first_pinnable_step(uphill_encoded, POSE) == 2


def test_fit_ws_flat_is_instant(flat_encoded):
    start = weak_start(flat_encoded)
    fitted, report = fit_ws(start, POSE)
    assert report.n_steps == 0
    assert report.final_loss == 0.0
    assert report.converged
    assert report.pinned_step == 2
    assert np.all(fitted.z == 0.0)


def test_fit_ws_recovers_uphill_profile(uphill_encoded, uphill_scene):
    start = weak_start(uphill_encoded)
    fitted, report = fit_ws(start, uphill_scene.pose)
    assert report.converged
    assert report.final_loss <= 1e-4
    assert straight_rms_vs_closed_form(uphill_encoded, uphill_scene.pose, fitted, report.pinned_step) <= 1e-3


@pytest.mark.parametrize(
    "profile,seed", [("uphill", 5), ("downhill", 0), ("downhill", 7), ("downhill", 2), ("downhill", 3)]
)
def test_fit_ws_cold_start_recovers_straight_profile(profile, seed):
    # fit_ws starts at the closed form, which already is the answer on
    # straight roads; the same solve from z = 0 must find it on its own
    sample, encoded = encoded_scene(profile, seed)
    work = weak_start(encoded)
    mask = second_layer_mask(work)
    pin = first_pinnable_step(work, sample.pose, mask)
    free = _free_z_mask(work, mask)
    free[:, :, pin] = False
    fitted, report = _solve_weak(work, sample.pose, FitConfig(), free, mask, pin)
    assert report.n_steps > 0
    assert report.converged
    assert straight_rms_vs_closed_form(encoded, sample.pose, fitted, pin) <= 1e-3


def test_fit_ws_touches_only_z(uphill_encoded):
    start = weak_start(uphill_encoded)
    before = start.copy()
    fitted, _ = fit_ws(start, POSE)
    np.testing.assert_array_equal(start.z, before.z)  # input untouched
    np.testing.assert_array_equal(start.prob, before.prob)
    np.testing.assert_array_equal(fitted.prob, start.prob)
    np.testing.assert_array_equal(fitted.x_offsets, start.x_offsets)
    np.testing.assert_array_equal(fitted.vis, start.vis)


def test_fit_ws_pin_keep_preserves_column(flat_encoded):
    start = weak_start(flat_encoded)
    start.z[:, :, 2] = 0.123
    fitted, report = fit_ws(start, POSE, pin_z=None)
    assert report.pinned_step == 2
    np.testing.assert_array_equal(fitted.z[:, :, 2], 0.123)
    # the flat scene in the 0.123 gauge is the constant profile 0.123
    free = (flat_encoded.prob[:, :, None] >= 0.5) & (flat_encoded.vis >= 0.5)
    free[:, 1, :] = False
    np.testing.assert_allclose(fitted.z[free], 0.123, atol=1e-3)


def test_fit_ws_pin_out_of_range(flat_encoded):
    with pytest.raises(InvalidInputError):
        fit_ws(weak_start(flat_encoded), POSE, pin_step=99)


def test_fit_ws_single_lane_rejected(flat_encoded):
    lone = AnchorTensor.empty(flat_encoded.grid)
    i = int(np.flatnonzero(flat_encoded.prob[:, 0] >= 0.5)[0])
    lone.prob[i, 0] = 1.0
    lone.vis[i, 0] = flat_encoded.vis[i, 0]
    with pytest.raises(InvalidInputError):
        fit_ws(lone, POSE)


def test_fit_ws_diverged_error_carries_trace(flat_encoded):
    start = weak_start(flat_encoded)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergedError) as exc_info:
            fit_ws(start, POSE, pin_z=1e308)  # lifted positions overflow
    assert len(exc_info.value.trace) >= 1


def test_fit_sup_recovers_exact_heights(uphill_encoded):
    start = weak_start(uphill_encoded)
    fitted, report = fit_sup(start, uphill_encoded)
    assert report.converged
    assert report.stop_reason == "target"
    gate = (uphill_encoded.prob[:, :, None] >= 0.5) & (uphill_encoded.vis >= 0.5)
    err = fitted.z[gate] - uphill_encoded.z[gate]
    assert np.sqrt(np.mean(np.square(err))) <= 1e-6
    assert report.final_loss <= 1e-5
    hist = np.array(report.history)
    assert np.all(np.diff(hist) <= 1e-15)  # accepted losses never increase


def test_fit_config_validation():
    FitConfig(max_steps=1, tol=0.0)  # edges accepted
    with pytest.raises(InvalidInputError):
        FitConfig(max_steps=0)
    with pytest.raises(InvalidInputError):
        FitConfig(tol=-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InvalidInputError, match="tol"):
            FitConfig(tol=bad)
    # the fit has one objective, exact L1, and no Huber knobs
    with pytest.raises(TypeError):
        FitConfig(smooth_delta=1e-9)
    with pytest.raises(TypeError):
        FitConfig(continuation_delta=1.0)


def test_fit_report_counts(bend_scene, default_grid):
    start = weak_start(encode_gt(bend_scene.lanes_bev, default_grid))
    # the bend needs about four LPs; two cannot reach its minimum
    _, report = fit_ws(start, bend_scene.pose, cfg=FitConfig(max_steps=2))
    assert not report.converged  # truncated budget cannot reach the target
    assert report.stop_reason == "max_steps"
    assert report.n_steps == 2
    assert report.n_evals >= report.n_steps
    assert len(report.history) >= report.n_steps


def test_fit_ws_plain_bends_lp_budget():
    # from the closed form, every plain bend reaches its vertex minimum within
    # five LPs; a first trust radius that holds back the first step needs more
    for seed in range(20):
        sample, encoded = encoded_scene("bend", seed)
        _, report = fit_ws(weak_start(encoded), sample.pose)
        assert report.stop_reason == "stationary", seed
        assert report.n_steps <= 5, (seed, report.n_steps)


def test_fit_ws_initial_loss_is_exact_l1_of_the_start(bend_scene, default_grid):
    encoded = encode_gt(bend_scene.lanes_bev, default_grid)
    fitted, report = fit_ws(weak_start(encoded), bend_scene.pose)
    start = closed_form_start(encoded, bend_scene.pose, report.pinned_step)
    assert report.initial_loss == pytest.approx(weak_l1(start, bend_scene.pose), rel=1e-12)
    assert report.final_loss == pytest.approx(weak_l1(fitted, bend_scene.pose), rel=1e-12)
    assert report.history[0] == report.initial_loss
    assert report.history[-1] == report.final_loss


def test_fit_ws_stop_reasons(uphill_encoded, uphill_scene, bend_scene, default_grid):
    # straight road: the closed-form start already meets tol
    _, report = fit_ws(weak_start(uphill_encoded), uphill_scene.pose)
    assert (report.stop_reason, report.n_steps, report.converged) == ("target", 0, True)
    # bend: positive minimum at a vertex, certified by an LP predicting no decrease
    _, report = fit_ws(weak_start(encode_gt(bend_scene.lanes_bev, default_grid)), bend_scene.pose)
    assert (report.stop_reason, report.converged) == ("stationary", True)
    assert report.final_loss > 1e-4
    # crowned road: the minimum is no vertex and the LPs only creep toward it
    sample, encoded = encoded_scene("uphill", 0, crown_slope=0.02)
    _, report = fit_ws(weak_start(encoded), sample.pose)
    assert (report.stop_reason, report.converged) == ("stalled", False)


@pytest.mark.parametrize("profile,seed,n_unseen", [("uphill", 0, 0), ("bend", 3, 1)])
def test_fit_ws_on_crowned_roads(profile, seed, n_unseen):
    # a crown breaks the equal-height prior, so the fit has no exact answer;
    # it must still end finite, no worse than its start and within budget
    sample, encoded = encoded_scene(profile, seed, crown_slope=0.02)
    cfg = FitConfig(max_steps=200)
    fitted, report = fit_ws(weak_start(encoded), sample.pose, cfg)
    assert np.all(np.isfinite(fitted.z))
    assert weak_l1(fitted, sample.pose) <= report.initial_loss
    assert report.stop_reason in STOP_REASONS
    assert report.converged == (report.stop_reason in ("target", "stationary"))
    assert report.n_steps <= cfg.max_steps
    # a visible height that no residual depends on keeps its start value
    free = _free_z_mask(encoded, second_layer_mask(encoded))
    free[:, :, report.pinned_step] = False
    _, _, jac = weak_residuals(fitted, sample.pose, free)
    unseen = ~np.any(jac != 0, axis=0)
    assert unseen.sum() == n_unseen
    start = closed_form_start(encoded, sample.pose, report.pinned_step)
    np.testing.assert_array_equal(fitted.z[free][unseen], start.z[free][unseen])


@pytest.mark.parametrize("seed", [11, 14])
def test_fit_ws_keeps_progressing_on_crowned_forks(seed):
    # here the first LPs from the closed form are all rejected while the trust
    # radius shrinks; only accepted steps may count toward a stall
    sample, encoded = encoded_scene("fork", seed, crown_slope=0.02)
    fitted, report = fit_ws(weak_start(encoded), sample.pose)
    start = closed_form_start(encoded, sample.pose, report.pinned_step)
    assert weak_l1(fitted, sample.pose) <= 0.85 * weak_l1(start, sample.pose)
