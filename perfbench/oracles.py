"""The benchmark's own checks of the program's outputs.

Each check returns a list of error strings, empty when the output is right.
Truth comes from the scene generator's parameters, from this file's own
implementations of the documented rules (NMS, AP), or from properties the
method must have (finite heights, a fit that does not raise its loss, byte
reproducibility).  No check compares against a stored copy of an earlier
output.  The tolerances are those of the acceptance battery.
"""

from __future__ import annotations

import math

import numpy as np

STRAIGHT_Z_RMS_M = 1e-3
BEND_Z_RMS_M = 0.05
PITCH_TOL_DEG = 0.11
NOISELESS_PITCH_TOL_DEG = 1e-9
CLI_Z_RMSE_M = 0.05
AP_TOL = 1e-9


def true_step_heights(grade, h, y_flat):
    """Generator road height at each flat-ground forward distance.

    A road point at forward distance y and height z(y) = c0 + c1 y + c2 y^2
    lands on the flat ground at y h / (h - z).  Solving that for y gives the
    quadratic c2 t y^2 + (h + c1 t) y - t (h - c0) = 0 for flat distance t;
    its root near the flat-road answer is 2c / (-b - sqrt(b^2 - 4ac)).
    """
    c0, c1, c2 = grade
    t = np.asarray(y_flat, dtype=float)
    a, b, c = c2 * t, h + c1 * t, -t * (h - c0)
    with np.errstate(invalid="ignore"):  # NaN where the road never reaches t
        y = 2.0 * c / (-b - np.sqrt(b * b - 4.0 * a * c))
    return c0 + c1 * y + c2 * y * y


def gauge_z_rms(z_fit, gate, z_true, pin_step, h):
    """RMS of fitted heights against truth mapped into the fit's gauge.

    The weak losses see a height only through h - z, so the fit recovers
    z -> h - lam (h - z) with lam fixed by pinning one step to 0.  `z_fit` and
    `gate` are (lanes, steps); `z_true` is per step.  The pinned step itself
    is left out: it is 0 on both sides by construction.  Returns the RMS over
    the scene and the largest RMS of a single lane.
    """
    lam = h / (h - z_true[pin_step])
    keep = gate.copy()
    keep[:, pin_step] = False
    d2 = np.where(keep, np.square(z_fit - (h - lam * (h - z_true))), 0.0)
    lanes = keep.any(axis=1)
    per_lane = d2.sum(axis=1)[lanes] / keep.sum(axis=1)[lanes]
    return float(np.sqrt(d2[keep].mean())), float(np.sqrt(per_lane.max()))


def check_fit(profile, lane_z_rms, z_fit, loss_fit, loss_start, f1):
    """`lane_z_rms` is the largest per-lane RMS, so the scene RMS is within the limit too."""
    errors = []
    limit = BEND_Z_RMS_M if profile == "bend" else STRAIGHT_Z_RMS_M
    if not lane_z_rms <= limit:
        errors.append(f"{profile} lane z rms {lane_z_rms:.3e} m above {limit:g} m")
    if not np.all(np.isfinite(z_fit)):
        errors.append("fitted heights are not finite")
    if not loss_fit <= loss_start:
        errors.append(f"fit raised the weak loss from {loss_start:.6g} to {loss_fit:.6g}")
    if f1 != 100.0:
        errors.append(f"decoded fit scores F1 {f1:g}, not 100")
    return errors


def check_noiseless_pitch(err_deg):
    if err_deg <= NOISELESS_PITCH_TOL_DEG:
        return []
    return [f"noiseless flat scene: pitch error {err_deg:.3e} deg above {NOISELESS_PITCH_TOL_DEG:g}"]


def check_mean_pitch(errs_deg, what):
    mean = float(np.mean(errs_deg))
    if mean <= PITCH_TOL_DEG:
        return []
    return [f"{what}: mean pitch error {mean:.4f} deg above {PITCH_TOL_DEG} deg"]


def reference_nms(prob, abs_x, vis, d_thresh):
    """Layer-1 survivors under the documented suppression rule.

    Candidates of positive probability are visited in descending probability,
    lower anchor index first on ties.  A survivor suppresses every strictly
    less confident candidate whose mean |x| distance over mutually visible
    steps is below `d_thresh`; a suppressed candidate suppresses nothing.
    Arguments are the layer-1 slices: prob (N,), abs_x and vis (N, Y).
    """
    seen = vis >= 0.5
    order = sorted((i for i in range(prob.size) if prob[i] > 0), key=lambda i: (-prob[i], i))
    alive = {i: True for i in order}
    for i in order:
        if not alive[i]:
            continue
        for k in order:
            if k == i or not alive[k] or not prob[k] < prob[i]:
                continue
            both = seen[i] & seen[k]
            if both.any() and np.abs(abs_x[i, both] - abs_x[k, both]).mean() < d_thresh:
                alive[k] = False
    survivors = np.zeros(prob.size, dtype=bool)
    survivors[[i for i, ok in alive.items() if ok]] = True
    return survivors


def check_nms(before, after, survivors, duplicates, keep_slots):
    """Compare the program's NMS output with the reference survivors.

    `before` and `after` are (prob, x_offsets, z, vis) tuples of arrays,
    `survivors` the reference layer-1 survivors, `duplicates` the planted
    duplicate anchors, `keep_slots` the (anchor, layer) slots of true lanes.
    """
    errors = []
    prob0, prob1 = before[0], after[0]
    expect = np.where(survivors, prob0[:, 0], 0.0)
    if not np.array_equal(prob1[:, 0], expect):
        bad = np.flatnonzero(prob1[:, 0] != expect).tolist()
        errors.append(f"NMS layer-1 result differs from the rule at anchors {bad}")
    if not np.array_equal(prob1[:, 1], prob0[:, 1]):
        errors.append("NMS changed a layer-2 probability")
    for name, a, b in zip(("x_offsets", "z", "vis"), before[1:], after[1:]):
        if not np.array_equal(a, b):
            errors.append(f"NMS changed {name}")
    kept_dups = [i for i in duplicates if prob1[i, 0] > 0]
    if kept_dups:
        errors.append(f"planted duplicates kept at anchors {kept_dups}")
    lost = [(i, layer) for i, layer in keep_slots if not prob1[i, layer - 1] > 0]
    if lost:
        errors.append(f"true lanes suppressed at slots {lost}")
    return errors


def reference_ap(probs, labels, n_gt):
    """AP in percent: sum over descending thresholds of recall gain times precision.

    `labels[i]` says whether prediction i is a true lane; each true lane
    matches its own ground truth and nothing else matches.
    """
    ap = 0.0
    recall_prev = 0.0
    for t in sorted(set(probs), reverse=True):
        kept = [label for p, label in zip(probs, labels) if p >= t]
        tp = sum(kept)
        recall = tp / n_gt
        ap += (recall - recall_prev) * (tp / len(kept))
        recall_prev = recall
    return 100.0 * ap


def check_detection(result, probs, labels, n_gt):
    errors = []
    if result.recall != 100.0:
        errors.append(f"recall {result.recall:g}, not 100")
    precision = 100.0 * sum(labels) / len(labels)
    if not math.isclose(result.precision, precision, rel_tol=AP_TOL):
        errors.append(f"precision {result.precision:.6f}, expected {precision:.6f}")
    ap = reference_ap(probs, labels, n_gt)
    if not math.isclose(result.ap, ap, rel_tol=AP_TOL):
        errors.append(f"AP {result.ap:.9f}, expected {ap:.9f}")
    return errors


def check_exit_codes(codes):
    return [f"`bevlane {cmd}` exited {code}" for cmd, code in codes.items() if code != 0]


def check_cli_chain(fit_doc, eval_doc, nms_doc):
    """Checks on the JSON that `fit`, `eval` and `nms` print."""
    errors = []
    if eval_doc["n_matched"] != eval_doc["n_gt"] or eval_doc["f1"] != 100.0:
        errors.append(
            f"eval matched {eval_doc['n_matched']} of {eval_doc['n_gt']} lanes, F1 {eval_doc['f1']:g}"
        )
    if not fit_doc["z_rmse_m"] <= CLI_Z_RMSE_M:
        errors.append(f"fit z_rmse_m {fit_doc['z_rmse_m']:.3e} above {CLI_Z_RMSE_M}")
    if nms_doc["suppressed"] != 0:
        errors.append(f"nms suppressed {nms_doc['suppressed']} ground-truth lanes")
    return errors


def check_same_bytes(first, again):
    """Both are {name: bytes}; every name must hold identical bytes."""
    errors = []
    for name in sorted(set(first) | set(again)):
        if first.get(name) != again.get(name):
            errors.append(f"repeated CLI chain: {name} differs")
    return errors
