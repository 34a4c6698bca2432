import subprocess
import sys

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from bevlane import (
    EvalConfig,
    Lane3D,
    chamfer_distance,
    evaluate,
    match_lanes,
)
from bevlane.errors import InvalidInputError


def straight(x0, y0=0.0, y1=100.0, z=0.0):
    return Lane3D([[x0, y0, z], [x0, y1, z]])


def shifted(lane, dx):
    return Lane3D(lane.points + np.array([dx, 0.0, 0.0]))


def test_perfect_prediction_scores_perfectly(uphill_scene):
    lanes = uphill_scene.lanes3d
    r = evaluate(lanes, lanes)
    assert r.f1 == 100.0 and r.precision == 100.0 and r.recall == 100.0
    assert r.ap == 100.0
    assert r.x_near == 0.0 and r.x_far == 0.0
    assert r.z_near == 0.0 and r.z_far == 0.0
    assert r.chamfer_m == 0.0
    assert r.n_gt == r.n_pred == len(lanes)
    assert len(r.matches) == len(lanes)


def test_two_meter_shift_matches_nothing(uphill_scene):
    lanes = uphill_scene.lanes3d
    preds = [shifted(l, 2.0) for l in lanes]
    r = evaluate(preds, lanes)
    assert r.f1 == 0.0
    assert r.precision == 0.0 and r.recall == 0.0
    assert not r.matches


def test_parallel_offset_chamfer_is_the_offset():
    gt = [straight(0.0)]
    pred = [straight(0.1)]
    r = evaluate(pred, gt)
    assert r.f1 == 100.0
    assert r.chamfer_m == pytest.approx(0.1, abs=1e-9)
    assert r.x_near == pytest.approx(0.1, abs=1e-9)


def test_missing_lanes_cut_recall():
    gt = [straight(x) for x in (-3.7, 0.0, 3.7, 7.4)]
    r = evaluate(gt[:2], gt)
    assert r.precision == 100.0
    assert r.recall == 50.0
    assert r.f1 == pytest.approx(200.0 / 3.0)


def test_hallucinated_lane_cuts_precision():
    gt = [straight(0.0)]
    preds = [straight(0.0), straight(50.0)]
    r = evaluate(preds, gt)
    assert r.precision == 50.0
    assert r.recall == 100.0


def test_empty_both_is_vacuous_success():
    r = evaluate([], [])
    assert r.f1 == 100.0 and r.ap == 100.0
    assert r.chamfer_m == 0.0 and r.x_near == 0.0


def test_empty_predictions_fail_recall():
    r = evaluate([], [straight(0.0)])
    assert r.precision == 100.0
    assert r.recall == 0.0
    assert r.f1 == 0.0
    assert r.ap == 0.0


def test_near_far_error_split():
    gt = [straight(0.0)]
    pred = [Lane3D([[0.0, 0.0, 0.0], [0.0, 40.0, 0.0], [0.5, 41.0, 0.0], [0.5, 100.0, 0.0]])]
    r = evaluate(pred, gt)
    assert r.f1 == 100.0
    assert r.x_near == 0.0  # the error lives entirely beyond the 40 m split
    assert r.x_far == pytest.approx(0.5, abs=1e-12)
    assert r.z_near == 0.0 and r.z_far == 0.0


def test_partial_coverage_below_threshold_no_match():
    gt = [straight(0.0)]
    pred = [Lane3D([[0.0, 0.0, 0.0], [0.0, 70.0, 0.0], [2.0, 71.0, 0.0], [2.0, 100.0, 0.0]])]
    # only ~70 percent of the mutual span is within range: below match_frac
    r = evaluate(pred, gt)
    assert r.f1 == 0.0


def test_min_overlap_points():
    gt = [straight(0.0)]
    stub = Lane3D([[0.0, 0.0, 0.0], [0.0, 0.5, 0.0]])  # one grid point of overlap
    assert match_lanes([stub], gt) == []


def test_permutation_invariance(uphill_scene):
    lanes = uphill_scene.lanes3d
    preds = [shifted(l, 0.05) for l in lanes]
    a = evaluate(preds, lanes)
    b = evaluate(list(reversed(preds)), lanes)
    assert a.f1 == b.f1
    assert a.chamfer_m == pytest.approx(b.chamfer_m, abs=1e-12)
    assert a.x_near == pytest.approx(b.x_near, abs=1e-12)


def test_match_lanes_structure():
    gt = [straight(0.0), straight(3.7)]
    preds = [straight(3.8), straight(-0.1)]
    matches = match_lanes(preds, gt)
    assert [m.gt_index for m in matches] == [0, 1]
    assert matches[0].pred_index == 1
    assert matches[1].pred_index == 0
    assert matches[0].cost == pytest.approx(0.1, abs=1e-9)
    assert matches[0].n_overlap == 101


def test_ap_orders_by_confidence():
    gt = [straight(0.0)]
    good, fake = straight(0.0), straight(50.0)
    ranked = evaluate([good, fake], gt, pred_probs=[1.0, 0.4])
    assert ranked.ap == 100.0
    misranked = evaluate([good, fake], gt, pred_probs=[0.4, 1.0])
    assert misranked.ap == 50.0


def test_pred_probs_must_align():
    with pytest.raises(InvalidInputError):
        evaluate([straight(0.0)], [straight(0.0)], pred_probs=[1.0, 0.5])


def test_chamfer_frozen_and_symmetric():
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    assert chamfer_distance(a, b) == pytest.approx(1.5, abs=1e-12)
    assert chamfer_distance(b, a) == pytest.approx(1.5, abs=1e-12)
    with pytest.raises(InvalidInputError):
        chamfer_distance(np.empty((0, 3)), b)


def test_eval_config_validation():
    with pytest.raises(InvalidInputError):
        EvalConfig(y_min=-1.0)
    with pytest.raises(InvalidInputError):
        EvalConfig(y_min=50.0, y_max=10.0)
    with pytest.raises(InvalidInputError):
        EvalConfig(y_step=0.0)
    with pytest.raises(InvalidInputError):
        EvalConfig(match_frac=0.0)
    with pytest.raises(InvalidInputError):
        EvalConfig(min_overlap_points=0)


def test_import_bevlane_loads_no_scipy():
    code = "import sys, bevlane; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_chamfer_distance_equals_the_cdist_formula_bit_for_bit():
    rng = np.random.default_rng(11)
    for _ in range(500):
        a = rng.normal(size=(rng.integers(1, 30), 3)) * 10.0 ** rng.uniform(-3, 3)
        b = rng.normal(size=(rng.integers(1, 30), 3)) * 10.0 ** rng.uniform(-3, 3) + rng.normal(size=3)
        d = cdist(a, b)
        expected = 0.5 * (float(d.min(axis=1).mean()) + float(d.min(axis=0).mean()))
        assert chamfer_distance(a, b) == expected
