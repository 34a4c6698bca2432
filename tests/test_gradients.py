"""Central-difference validation of every analytic gradient.

Each check draws a random tensor, rejects draws that put any L1 argument
within 1e-4 of its kink (the subgradient there is a convention, not a
derivative), then compares the analytic gradient against central differences
with step 1e-6 componentwise.  Helpers are shared with the acceptance suite.
"""

import numpy as np
import pytest

from bevlane import (
    AnchorGridSpec,
    AnchorTensor,
    CameraPose,
    LossWeights,
    bev_loss,
    width_loss,
    z_loss,
)
from bevlane.losses import _pairs, _widths, height_loss, weak_residuals

POSE = CameraPose(0.0, 1.5)
FD_STEP = 1e-6
REL_TOL = 1e-5
KINK_MARGIN = 1e-4

GRID = AnchorGridSpec(
    x_centers=(0.0, 1.5, 3.0, 4.5, 6.0, 7.5),
    y_steps=(0.0, 2.5, 5.0, 10.0, 20.0),
    y_ref=5.0,
    x_range=(-1.0, 8.5),
    y_range=(0.0, 20.0),
)
ACTIVE = (0, 2, 4)


def finite_difference_gradient(f, x0: np.ndarray, step: float = 1e-6, indices=None) -> np.ndarray:
    """Central-difference gradient of scalar f at x0 over the given flat indices."""
    x0 = np.asarray(x0, dtype=float)
    flat = x0.ravel()
    indices = list(range(flat.size)) if indices is None else list(indices)
    grad = np.zeros(len(indices))
    for out_i, i in enumerate(indices):
        bumped = flat.copy()
        bumped[i] += step
        up = f(bumped.reshape(x0.shape))
        bumped[i] -= 2 * step
        down = f(bumped.reshape(x0.shape))
        grad[out_i] = (up - down) / (2 * step)
    return grad


def _rand_tensor(rng, active=ACTIVE):
    t = AnchorTensor.empty(GRID)
    for a in active:
        t.prob[a, 0] = 1.0
        t.vis[a, 0] = 1.0
        t.x_offsets[a, 0] = rng.uniform(-0.4, 0.4, GRID.n_steps)
        t.z[a, 0] = rng.uniform(-0.3, 0.3, GRID.n_steps)
    return t


# components below this magnitude sit at the central-difference noise floor;
# they are held to 1e-5 * DENOM_FLOOR = 1e-8 absolute instead of pure relative
DENOM_FLOOR = 1e-3


def _rel_err(analytic, fd):
    err = 0.0
    for a, f in zip(analytic, fd):
        err = max(err, abs(a - f) / max(abs(f), DENOM_FLOOR))
    return err


def _fd_on_field(t, field, loss_fn, indices):
    base = getattr(t, field).copy()

    def f(arr):
        work = t.copy()
        setattr(work, field, arr)
        return loss_fn(work)

    return finite_difference_gradient(f, base, step=FD_STEP, indices=indices)


def _lane_indices(t, field):
    flat = np.zeros_like(getattr(t, field))
    if field == "prob":
        flat[list(ACTIVE), :] = 1.0
    else:
        flat[list(ACTIVE), 0, :] = 1.0
    return list(np.flatnonzero(flat.ravel()))


def check_width_gradient(seed) -> float:
    rng = np.random.default_rng(seed)
    for _ in range(50):
        t = _rand_tensor(rng)
        widths, valid, _ = _widths(t, POSE, *_pairs(t))
        diffs = np.diff(widths, axis=1)[np.logical_and(valid[:, 1:], valid[:, :-1])]
        if diffs.size and np.min(np.abs(diffs)) > KINK_MARGIN:
            break
    else:
        raise RuntimeError("could not draw a kink-free width configuration")
    loss, grads = width_loss(t, POSE)
    err = 0.0
    for field, analytic in (("x_offsets", grads.d_x_offsets), ("z", grads.d_z)):
        idx = _lane_indices(t, field)
        fd = _fd_on_field(t, field, lambda w: width_loss(w, POSE)[0], idx)
        err = max(err, _rel_err(analytic.ravel()[idx], fd))
    return err


def check_height_gradient(seed) -> float:
    rng = np.random.default_rng(seed)
    for _ in range(50):
        t = _rand_tensor(rng)
        z = t.z[list(ACTIVE), 0, :]
        gaps = np.abs(np.diff(z, axis=0))[:, 1:]
        if np.min(gaps) > KINK_MARGIN:
            break
    else:
        raise RuntimeError("could not draw a kink-free height configuration")
    _, grads = height_loss(t)
    idx = _lane_indices(t, "z")
    fd = _fd_on_field(t, "z", lambda w: height_loss(w)[0], idx)
    return _rel_err(grads.d_z.ravel()[idx], fd)


def check_bev_gradient(seed) -> float:
    rng = np.random.default_rng(seed)
    gt = _rand_tensor(rng)
    for _ in range(50):
        pred = _rand_tensor(rng)
        for a in ACTIVE:
            pred.prob[a] = rng.uniform(0.05, 0.95, 2)  # interior of the clamp
            pred.vis[a, 0] = rng.uniform(0.05, 0.45, GRID.n_steps)
        dx = np.abs((pred.x_offsets - gt.x_offsets)[list(ACTIVE), 0, :])
        if np.min(dx) > KINK_MARGIN:
            break
    else:
        raise RuntimeError("could not draw a kink-free bev configuration")
    _, grads = bev_loss(pred, gt)
    err = 0.0
    for field, analytic in (
        ("prob", grads.d_prob),
        ("x_offsets", grads.d_x_offsets),
        ("vis", grads.d_vis),
    ):
        idx = _lane_indices(pred, field)
        fd = _fd_on_field(pred, field, lambda w: bev_loss(w, gt)[0], idx)
        err = max(err, _rel_err(analytic.ravel()[idx], fd))
    return err


def check_z_gradient(seed) -> float:
    rng = np.random.default_rng(seed)
    gt = _rand_tensor(rng)
    for _ in range(50):
        pred = _rand_tensor(rng)
        dz = np.abs((pred.z - gt.z)[list(ACTIVE), 0, :])
        if np.min(dz) > KINK_MARGIN:
            break
    else:
        raise RuntimeError("could not draw a kink-free z configuration")
    _, grads = z_loss(pred, gt)
    idx = _lane_indices(pred, "z")
    fd = _fd_on_field(pred, "z", lambda w: z_loss(w, gt)[0], idx)
    return _rel_err(grads.d_z.ravel()[idx], fd)


ALL_CHECKS = {
    "width": check_width_gradient,
    "height": check_height_gradient,
    "bev": check_bev_gradient,
    "z": check_z_gradient,
}


@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("name", sorted(ALL_CHECKS))
def test_gradient_matches_finite_difference(name, seed):
    err = ALL_CHECKS[name](seed)
    assert err <= REL_TOL, f"{name} gradient off by rel {err:.3e}"


def _residual_case(case):
    """Seeds 0-4: three lanes.  'masked_middle': four lanes, the second with
    an active second layer, so only the last pair counts.  'occlusion_gap':
    the middle of three lanes is hidden at step 2."""
    if case == "masked_middle":
        t = _rand_tensor(np.random.default_rng(5), active=(0, 2, 4, 5))
        t.prob[2, 1] = 1.0
    elif case == "occlusion_gap":
        t = _rand_tensor(np.random.default_rng(6))
        t.vis[2, 0, 2] = 0.0
    else:
        t = _rand_tensor(np.random.default_rng(case))
    return t


@pytest.mark.parametrize("case", [*range(5), "masked_middle", "occlusion_gap"])
def test_weak_residuals_match_losses_and_differences(case):
    t = _residual_case(case)
    free = np.zeros(t.z.shape, dtype=bool)
    free[t.prob[:, 0] > 0, 0, 1:] = True  # step 0 held fixed, as a pin would be
    weights = LossWeights(width=2.0, height=0.5)
    r, scale, jac = weak_residuals(t, POSE, free, weights=weights)
    total = 2.0 * width_loss(t, POSE)[0] + 0.5 * height_loss(t)[0]
    assert float(scale @ np.abs(r)) == pytest.approx(total, rel=1e-12)

    def residuals_at(p):
        work = t.copy()
        work.z[free] = p
        return weak_residuals(work, POSE, free, weights=weights)[0]

    p0 = t.z[free]
    fd = np.empty_like(jac)
    for k in range(p0.size):
        bump = np.zeros_like(p0)
        bump[k] = FD_STEP
        fd[:, k] = (residuals_at(p0 + bump) - residuals_at(p0 - bump)) / (2 * FD_STEP)
    assert jac.shape == (r.size, free.sum())
    assert _rel_err(jac.ravel(), fd.ravel()) <= REL_TOL
