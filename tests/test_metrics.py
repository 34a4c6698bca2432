import dataclasses
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from bevlane import (
    AnchorGridSpec,
    EvalConfig,
    Lane3D,
    SceneSpec,
    chamfer_distance,
    decode,
    encode_gt,
    evaluate,
    make_scene,
)
from bevlane import metrics
from bevlane.errors import InvalidInputError
from bevlane.geometry import resample_lane3d_xz
from bevlane.metrics import EvalResult, LaneMatch, _counts_to_pr
from bevlane.scenes import PROFILES


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
    assert evaluate([stub], gt).matches == []


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
    matches = evaluate(preds, gt).matches
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
    for name in ("y_min", "y_max", "y_step", "match_dist_m", "match_frac", "near_far_split_m"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(InvalidInputError, match=name):
                EvalConfig(**{name: bad})
    EvalConfig(y_max=100_000.0)  # exactly at the sample cap
    with pytest.raises(InvalidInputError):
        EvalConfig(y_max=100_000.5)  # past the sample cap
    with pytest.raises(InvalidInputError):
        EvalConfig(y_step=1e-9)


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


# ---------------------------------------------------------------------------
# reference evaluator: the per-pair formulation evaluate replaced, kept to
# prove the batched one gives the same result bit for bit

_FORBIDDEN = 1e9


def _ref_pair_cost(pred_s, gt_s, cfg):
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


def ref_match_lanes(preds, gts, cfg=EvalConfig()):
    if not preds or not gts:
        return []
    grid = cfg.y_grid()
    pred_s = [resample_lane3d_xz(lane, grid) for lane in preds]
    gt_s = [resample_lane3d_xz(lane, grid) for lane in gts]
    cost = np.empty((len(preds), len(gts)))
    overlap = np.empty((len(preds), len(gts)), dtype=int)
    for i, ps in enumerate(pred_s):
        for j, gs in enumerate(gt_s):
            cost[i, j], overlap[i, j] = _ref_pair_cost(ps, gs, cfg)
    rows, cols = linear_sum_assignment(cost)
    matches = [
        LaneMatch(gt_index=int(j), pred_index=int(i), cost=float(cost[i, j]), n_overlap=int(overlap[i, j]))
        for i, j in zip(rows, cols)
        if cost[i, j] < _FORBIDDEN
    ]
    matches.sort(key=lambda m: m.gt_index)
    return matches


def ref_average_precision(preds, gts, probs, cfg):
    if not gts:
        return 100.0 if not preds else 0.0
    if not preds:
        return 0.0
    ap = 0.0
    recall_prev = 0.0
    for t in sorted(set(probs), reverse=True):
        kept = [lane for lane, p in zip(preds, probs) if p >= t]
        tp = len(ref_match_lanes(kept, gts, cfg))
        precision = tp / len(kept) if kept else 0.0
        recall = tp / len(gts)
        ap += (recall - recall_prev) * precision
        recall_prev = recall
    return 100.0 * ap


def ref_evaluate(preds, gts, pred_probs=None, cfg=EvalConfig()):
    if pred_probs is None:
        pred_probs = [1.0] * len(preds)
    grid = cfg.y_grid()
    matches = ref_match_lanes(preds, gts, cfg)
    precision, recall, f1 = _counts_to_pr(len(matches), len(preds), len(gts))
    ap = ref_average_precision(preds, gts, list(pred_probs), cfg)
    pred_s = [resample_lane3d_xz(lane, grid) for lane in preds]
    gt_s = [resample_lane3d_xz(lane, grid) for lane in gts]
    near = grid <= cfg.near_far_split_m
    bins = {"x_near": [], "x_far": [], "z_near": [], "z_far": []}
    points = []
    for m in matches:
        xp, zp, vp = pred_s[m.pred_index]
        xg, zg, vg = gt_s[m.gt_index]
        mutual = vp & vg
        dx, dz = np.abs(xp - xg), np.abs(zp - zg)
        bins["x_near"].append(dx[mutual & near])
        bins["x_far"].append(dx[mutual & ~near])
        bins["z_near"].append(dz[mutual & near])
        bins["z_far"].append(dz[mutual & ~near])
        points.append([np.stack([x[v], grid[v], z[v]], axis=-1) for x, z, v in (pred_s[m.pred_index], gt_s[m.gt_index])])

    def pooled(chunks):
        flat = np.concatenate(chunks) if chunks else np.empty(0)
        return float(flat.mean()) if flat.size else 0.0

    chamfer = float(np.mean([chamfer_distance(a, b) for a, b in points])) if matches else 0.0
    return EvalResult(
        precision=precision, recall=recall, f1=f1, ap=ap, chamfer_m=chamfer,
        n_gt=len(gts), n_pred=len(preds), matches=matches,
        **{k: pooled(v) for k, v in bins.items()},
    )


def candidate_cases(profile, seed):
    """(preds, gts, probs) cases built on a decoded ground-truth encoding."""
    sample = make_scene(SceneSpec(profile=profile, seed=seed))
    gts = sample.lanes3d
    decoded = decode(encode_gt(sample.lanes_bev, AnchorGridSpec.default()), sample.pose)
    rng = np.random.default_rng(seed)
    dups = [
        Lane3D(lane.points + np.column_stack([
            rng.uniform(-0.4, 0.4) + rng.normal(0.0, 0.2, len(lane)),
            np.zeros(len(lane)),
            rng.normal(0.0, 0.05, len(lane)),
        ]))
        for lane in decoded
    ]
    spurious = [shifted(lane, rng.choice([-1.0, 1.0]) * rng.uniform(1.2, 2.5)) for lane in decoded[:2]]
    # one mutual grid step with the first lane, below min_overlap_points
    y0 = float(np.ceil(gts[0].y[0]))
    stub = Lane3D([[gts[0].x[0], y0 - 0.5, 0.0], [gts[0].x[0], y0 + 0.5, 0.0]])
    preds = decoded + dups + spurious + [stub]
    probs = [float(p) for p in rng.uniform(0.3, 1.0, len(preds))]
    tied = [round(p, 1) for p in probs]
    return [
        (preds, gts, probs),
        (preds[len(decoded):], gts, probs[len(decoded):]),
        (preds, gts, tied),
        (preds[::-1], gts[::-1], tied[::-1]),
        (gts, preds, None),
        (preds, gts, None),
        ([], gts, []),
        (preds, [], probs),
        ([stub], gts, [0.9]),
    ]


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("profile", PROFILES)
def test_evaluate_matches_reference_bit_for_bit(profile, seed):
    for preds, gts, probs in candidate_cases(profile, seed):
        got = evaluate(preds, gts, probs)
        assert dataclasses.asdict(got) == dataclasses.asdict(ref_evaluate(preds, gts, probs))


def test_stub_lane_has_too_few_mutual_steps():
    preds, gts, _ = candidate_cases("flat", 0)[-1]
    assert len(preds) == 1
    grid = EvalConfig().y_grid()
    _, _, v_stub = resample_lane3d_xz(preds[0], grid)
    _, _, v_gt = resample_lane3d_xz(gts[0], grid)
    assert 0 < (v_stub & v_gt).sum() < EvalConfig().min_overlap_points


def test_evaluate_resamples_each_lane_once(monkeypatch):
    preds, gts, probs = candidate_cases("bend", 1)[0]
    assert len(set(probs)) > 5
    calls = []

    def counting(lane, grid):
        calls.append(id(lane))
        return resample_lane3d_xz(lane, grid)

    monkeypatch.setattr(metrics, "resample_lane3d_xz", counting)
    evaluate(preds, gts, probs)
    assert sorted(calls) == sorted(id(lane) for lane in preds + gts)
