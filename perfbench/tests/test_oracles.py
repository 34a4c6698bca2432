"""Each of the benchmark's checks accepts the program's real output and rejects a wrong one.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json

import numpy as np
import pytest

import oracles
import workloads
from bevlane import SceneSpec, encode_gt, make_scene

API = workloads.Api()


@pytest.mark.parametrize("profile", ["uphill", "downhill", "bend"])
def test_true_heights_match_the_generator_samples(profile):
    for seed in range(3):
        sample = make_scene(SceneSpec(profile=profile, seed=seed))
        encoded = encode_gt(sample.lanes_bev, workloads.GRID)
        gate = workloads.layer1_gate(encoded)
        z = oracles.true_step_heights(sample.resolved.grade, sample.pose.height_m,
                                      workloads.GRID.y_steps_array())
        truth = np.broadcast_to(z, gate.shape)
        np.testing.assert_allclose(encoded.z[:, 0][gate], truth[gate], rtol=0, atol=1e-12)


@pytest.fixture(scope="module")
def uphill_fit():
    sample = make_scene(SceneSpec(profile="uphill", seed=0))
    wl = workloads.FitWs(0)
    return wl, sample, wl.run(sample, API)


def test_fit_check_accepts_the_fit(uphill_fit):
    wl, sample, out = uphill_fit
    assert wl.check(sample, out) == []


def test_fit_check_rejects_heights_shifted_by_2mm_on_one_lane(uphill_fit):
    wl, sample, (encoded, start, fitted, report, result) = uphill_fit
    shifted = fitted.copy()
    lane = int(np.flatnonzero(encoded.prob[:, 0] >= 0.5)[1])
    shifted.z[lane, 0] += 0.002
    errors = wl.check(sample, (encoded, start, shifted, report, result))
    assert any("lane z rms" in e for e in errors)


def test_fit_check_rejects_non_finite_heights_and_lost_lanes(uphill_fit):
    wl, sample, (encoded, start, fitted, report, result) = uphill_fit
    z = fitted.z.copy()
    z[0, 0, 0] = np.nan
    assert any("not finite" in e for e in oracles.check_fit("uphill", 0.0, z, 0.0, 1.0, 100.0))
    assert any("F1" in e for e in oracles.check_fit("uphill", 0.0, fitted.z, 0.0, 1.0, 75.0))
    assert any("raised" in e for e in oracles.check_fit("uphill", 0.0, fitted.z, 2.0, 1.0, 100.0))


def test_pitch_checks_accept_calibration_and_reject_0_2_deg():
    wl = workloads.PitchCalib(0)
    err = wl.run(("flat", 0.0, 3, 4), API)
    assert wl.check(("flat", 0.0, 3, 4), err) == []
    assert wl.check(("flat", 0.0, 3, 4), err + 0.2) != []
    errs = [wl.run((p, workloads.JITTER_PX, s, s), API) for p in ("flat", "uphill", "downhill") for s in range(5)]
    assert oracles.check_mean_pitch(errs, "test") == []
    assert oracles.check_mean_pitch([e + 0.2 for e in errs], "test") != []


@pytest.fixture(scope="module")
def detections():
    wl = workloads.Detect(5)
    items = wl.setup(API)
    # one scene of each profile; fork and curb carry a layer-2 lane
    picked = items[:: wl.PER_PROFILE]
    return wl, [(item, wl.run(item, API)) for item in picked]


def test_detect_checks_accept_the_program(detections):
    wl, runs = detections
    for item, out in runs:
        assert wl.check(item, out) == []
        assert item[3], "every scene has planted duplicates"


def test_nms_check_rejects_a_kept_duplicate(detections):
    wl, runs = detections
    item, (kept, probs, result) = runs[0]
    tensor, dup = item[1], item[3][0]
    wrong = kept.copy()
    wrong.prob[dup, 0] = tensor.prob[dup, 0]
    errors = wl.check(item, (wrong, probs, result))
    assert any("duplicates kept" in e for e in errors)
    assert any("differs from the rule" in e for e in errors)


def test_reference_nms_follows_the_rule_on_a_chain():
    # b is suppressed by a; c, near b but far from a, survives because a
    # suppressed candidate suppresses nothing
    prob = np.array([0.9, 0.8, 0.7])
    abs_x = np.array([[0.0, 0.0], [0.04, 0.04], [0.08, 0.08]])
    vis = np.ones((3, 2))
    assert oracles.reference_nms(prob, abs_x, vis, 0.05).tolist() == [True, False, True]


def test_ap_check_rejects_one_flipped_label(detections):
    wl, runs = detections
    for item, (kept, probs, result) in runs:
        labels = [slot in item[2] for slot in workloads.decoded_slots(kept)]
        n_gt = len(item[0].lanes3d)
        assert oracles.check_detection(result, probs, labels, n_gt) == []
        for i in range(len(labels)):
            flipped = labels[:i] + [not labels[i]] + labels[i + 1:]
            assert any("AP" in e for e in oracles.check_detection(result, probs, flipped, n_gt))


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    wl = workloads.CliPipeline(0)
    wl.root = tmp_path_factory.mktemp("cli")
    items = wl.setup(API)
    item = next(i for i in items if i[1] == "curb")
    first = wl.run(item, API)
    snap = wl.snapshot(item, first[1])
    again = wl.run(item, API)
    return wl, item, first, snap, wl.snapshot(item, again[1])


def test_cli_checks_accept_the_program(cli_runs):
    wl, item, first, snap, again = cli_runs
    assert wl.check(item, first) == []
    assert oracles.check_same_bytes(snap, again) == []


def test_byte_check_rejects_one_changed_byte(cli_runs):
    wl, item, first, snap, again = cli_runs
    for name in ("fitted.json", "stdout of eval"):
        data = bytearray(again[name])
        data[len(data) // 2] ^= 1
        assert oracles.check_same_bytes(snap, {**again, name: bytes(data)}) == [
            f"repeated CLI chain: {name} differs"
        ]


def test_cli_chain_check_rejects_bad_outputs(cli_runs):
    wl, item, (codes, stdout), snap, again = cli_runs
    docs = {cmd: json.loads(text) for cmd, text in stdout.items()}
    assert oracles.check_exit_codes(codes) == []
    assert oracles.check_exit_codes({**codes, "fit": 2}) == ["`bevlane fit` exited 2"]
    short = {**docs["eval"], "n_matched": docs["eval"]["n_gt"] - 1}
    assert oracles.check_cli_chain(docs["fit"], short, docs["nms"]) != []
    far = {**docs["fit"], "z_rmse_m": 0.06}
    assert oracles.check_cli_chain(far, docs["eval"], docs["nms"]) != []
    dropped = {**docs["nms"], "suppressed": 1}
    assert oracles.check_cli_chain(docs["fit"], docs["eval"], dropped) != []
