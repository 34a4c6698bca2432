import numpy as np
import pytest

from bevlane import (
    AnchorGridSpec,
    AnchorTensor,
    CameraPose,
    LaneBEV,
    NmsConfig,
    associate,
    decode,
    encode_gt,
    lane_bev_from_lane3d,
    nms,
)
from bevlane.anchors import _lateral_distances
from bevlane.errors import InvalidInputError, InvalidSpecError
from bevlane.geometry import resample_lane3d_xz


def small_grid(n_anchors=8, y_steps=(0.0, 5.0, 10.0, 20.0)):
    centers = tuple(float(c) for c in np.arange(n_anchors) * 0.8)
    return AnchorGridSpec(x_centers=centers, y_steps=y_steps, y_ref=5.0,
                          x_range=(-1.0, centers[-1] + 1.0), y_range=(0.0, 20.0))


def test_nms_config_validation():
    NmsConfig(d_thresh=0.0, prob_floor=0.0)  # edges accepted
    NmsConfig(prob_floor=1.0)
    for kwargs in ({"d_thresh": -0.01}, {"prob_floor": -0.1}, {"prob_floor": 1.5}):
        with pytest.raises(InvalidInputError):
            NmsConfig(**kwargs)
    for name in ("d_thresh", "prob_floor"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(InvalidInputError, match=name):
                NmsConfig(**{name: bad})


def test_default_grid_shape():
    grid = AnchorGridSpec.default()
    assert grid.n_anchors == 26
    assert grid.n_steps == 20
    assert grid.x_centers[0] == -10.0 and grid.x_centers[-1] == 10.0
    assert grid.y_ref == 5.0


def test_grid_validation():
    with pytest.raises(InvalidSpecError):
        AnchorGridSpec(x_centers=(1.0, 0.0))
    with pytest.raises(InvalidSpecError):
        AnchorGridSpec(x_centers=(0.0,), y_steps=(0.0,))
    with pytest.raises(InvalidSpecError):
        AnchorGridSpec(x_centers=(0.0,), y_steps=(0.0, 1.0), y_ref=5.0)
    with pytest.raises(InvalidSpecError):
        AnchorGridSpec(x_centers=(0.0,), x_range=(1.0, -1.0))


def test_tensor_validation():
    grid = small_grid()
    with pytest.raises(InvalidInputError):
        AnchorTensor(grid, prob=np.full((grid.n_anchors, 2), 1.5))
    with pytest.raises(InvalidInputError):
        AnchorTensor(grid, z=np.zeros((3, 2, 2)))
    bad_vis = np.zeros((grid.n_anchors, 2, grid.n_steps))
    bad_vis[0, 0, 0] = -0.1
    with pytest.raises(InvalidInputError):
        AnchorTensor(grid, vis=bad_vis)


def test_tensor_copy_is_independent():
    grid = small_grid()
    rng = np.random.default_rng(0)
    shape = (grid.n_anchors, 2, grid.n_steps)
    t = AnchorTensor(grid, prob=rng.uniform(size=(grid.n_anchors, 2)), x_offsets=rng.normal(size=shape),
                     z=rng.normal(size=shape), vis=rng.uniform(size=shape))
    c = t.copy()
    assert type(c) is AnchorTensor and c.grid == t.grid
    fields = ("prob", "x_offsets", "z", "vis")
    before = {name: getattr(t, name).copy() for name in fields}
    for name in fields:
        np.testing.assert_array_equal(getattr(c, name), before[name])
        getattr(c, name)[...] = 0.5
    for name in fields:
        np.testing.assert_array_equal(getattr(t, name), before[name])


def test_associate_layers_and_drops():
    grid = small_grid()
    mk = lambda x: LaneBEV([[x, 0.0], [x, 10.0]])
    lanes = [mk(0.75), mk(0.85), mk(0.80), mk(50.0), mk(2.4)]
    out = associate(lanes, grid)
    # 0.75/0.80/0.85 all snap to center 0.8: leftmost takes layer 1
    entries = {(e.anchor_index, e.layer): e.lane_index for e in out.entries}
    assert entries[(1, 1)] == 0
    assert entries[(1, 2)] == 2  # 0.80 beats 0.85 for the second slot
    assert entries[(3, 1)] == 4
    reasons = dict(out.dropped)
    assert reasons[3] == "outside_x_range"
    assert reasons[1] == "anchor_overflow"


def test_encode_marks_only_covered_steps(default_grid):
    lane_a = LaneBEV([[0.0, 2.0], [0.0, 30.0]])
    lane_b = LaneBEV([[3.7, 2.0], [3.7, 30.0]])
    t = encode_gt([lane_a, lane_b], default_grid)
    active = np.flatnonzero(t.prob[:, 0] >= 0.5)
    assert active.size == 2
    y = default_grid.y_steps_array()
    covered = (y >= 2.0) & (y <= 30.0)
    for i in active:
        np.testing.assert_array_equal(t.vis[i, 0] >= 0.5, covered)


def test_encode_rejects_non_bev_lanes(default_grid):
    from bevlane import Lane3D
    from bevlane.errors import InvalidLaneError

    with pytest.raises(InvalidLaneError):
        encode_gt([Lane3D([[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]])], default_grid)


@pytest.mark.parametrize("scene_name", ["flat_scene", "uphill_scene", "bend_scene", "fork_scene"])
def test_encode_decode_round_trip(scene_name, default_grid, request):
    sample = request.getfixturevalue(scene_name)
    t = encode_gt(sample.lanes_bev, default_grid)
    lanes = decode(t, sample.pose)
    # decoded 3D points lie on the source lanes: the generator samples the
    # exact anchor-row pre-images, so resampling hits original vertices
    assert len(lanes) == len(sample.lanes3d)
    for got in lanes:
        errs = []
        for src in sample.lanes3d:
            inside = (got.y >= src.y[0]) & (got.y <= src.y[-1])
            if not inside.all():
                errs.append(np.inf)
                continue
            x, z, _ = resample_lane3d_xz(src, got.y)
            errs.append(np.max(np.abs(x - got.x)) + np.max(np.abs(z - got.z)))
        assert min(errs) < 1e-9
    # and re-encoding the re-projected decode reproduces the tensor exactly
    back = [lane_bev_from_lane3d(l, sample.pose.height_m) for l in lanes]
    t2 = encode_gt(back, default_grid)
    np.testing.assert_array_equal(t.prob, t2.prob)
    np.testing.assert_allclose(t.x_offsets, t2.x_offsets, atol=1e-9)
    np.testing.assert_allclose(t.z, t2.z, atol=1e-9)
    np.testing.assert_array_equal(t.vis, t2.vis)


def test_fork_activates_second_layer(fork_scene, default_grid):
    t = encode_gt(fork_scene.lanes_bev, default_grid)
    assert np.any(t.prob[:, 1] >= 0.5)
    lanes = decode(t, fork_scene.pose)
    assert len(lanes) == len(fork_scene.lanes3d)
    # the two layers of the forked anchor decode to distinct polylines
    slot = int(np.flatnonzero(t.prob[:, 1] >= 0.5)[0])
    both = (t.vis[slot, 0] >= 0.5) & (t.vis[slot, 1] >= 0.5)
    gap = np.abs(t.x_offsets[slot, 0][both] - t.x_offsets[slot, 1][both])
    assert gap.max() > 0.05


def test_decode_skips_sub_threshold_and_short_slots(default_grid):
    t = AnchorTensor.empty(default_grid)
    t.prob[3, 0] = 0.4  # below threshold
    t.prob[5, 0] = 1.0  # only one visible step: cannot form a polyline
    t.vis[5, 0, 0] = 1.0
    assert decode(t, CameraPose(0.0, 1.5)) == []


def test_decode_lifts_with_height(default_grid):
    t = AnchorTensor.empty(default_grid)
    t.prob[13, 0] = 1.0
    t.vis[13, 0, :2] = 1.0
    t.z[13, 0, :2] = 0.3
    t.x_offsets[13, 0, :2] = 0.5
    lane = decode(t, CameraPose(0.0, 1.5))[0]
    # x_center = 0.4, abs_x = 0.9, scaled by (h-z)/h = 0.8
    np.testing.assert_allclose(lane.x, [0.72, 0.72], atol=1e-12)
    np.testing.assert_allclose(lane.y, [0.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(lane.z, [0.3, 0.3], atol=1e-12)


def mean_lateral_distance(tensor, i, k):
    """Mean |x_i - x_k| of two layer-1 candidates over mutually visible steps, or inf."""
    return float(_lateral_distances(tensor, [i], [k])[0])


def test_mean_lateral_distance_requires_mutual_visibility():
    grid = small_grid()
    t = AnchorTensor.empty(grid)
    t.prob[[0, 1], 0] = 1.0
    t.vis[0, 0] = [1.0, 1.0, 0.0, 0.0]
    t.vis[1, 0] = [0.0, 0.0, 1.0, 1.0]
    assert mean_lateral_distance(t, 0, 1) == float("inf")
    t.vis[1, 0] = [1.0, 0.0, 1.0, 1.0]
    # only step 0 is mutually visible: distance is the center gap 0.8
    assert mean_lateral_distance(t, 0, 1) == pytest.approx(0.8)


@pytest.mark.parametrize("seed", range(5))
def test_lateral_distances_equal_per_pair_means_bit_for_bit(seed):
    grid = AnchorGridSpec.default()
    t = random_tensor(seed, grid)
    a, b = np.nonzero(np.ones((grid.n_anchors, grid.n_anchors), dtype=bool))
    got = _lateral_distances(t, a, b)
    x = t.abs_x()[:, 0]
    seen = t.vis[:, 0] >= 0.5
    for p in range(a.size):
        both = seen[a[p]] & seen[b[p]]
        want = np.abs(x[a[p]][both] - x[b[p]][both]).mean() if both.any() else np.inf
        assert got[p] == want


def random_tensor(seed, grid):
    """Random layer-1 candidates engineered to straddle the NMS threshold."""
    rng = np.random.default_rng(seed)
    t = AnchorTensor.empty(grid)
    n, y = grid.n_anchors, grid.n_steps
    t.prob[:, 0] = rng.random(n)
    t.prob[:, 1] = np.where(rng.random(n) < 0.2, 1.0, 0.0)
    base = rng.uniform(-0.45, 0.45, size=(n, 1))
    wobble = rng.uniform(-0.03, 0.03, size=(n, y))
    t.x_offsets[:, 0] = base + wobble
    # pull some adjacent pairs inside d_thresh of each other
    for i in rng.choice(n - 1, size=n // 3, replace=False):
        t.x_offsets[i + 1, 0] = t.x_offsets[i, 0] + (grid.x_centers[i] - grid.x_centers[i + 1]) \
            + rng.uniform(0.0, 0.08)
    t.vis[:, 0] = (rng.random((n, y)) < 0.8).astype(float)
    t.z[:, 0] = rng.uniform(-0.2, 0.2, size=(n, y))
    return t


def brute_force_nms(tensor, cfg):
    """Independent restatement of the suppression rule, scalar loops only."""
    probs = tensor.prob[:, 0].copy()
    order = sorted(
        [i for i in range(tensor.grid.n_anchors) if probs[i] > cfg.prob_floor],
        key=lambda i: (-probs[i], i),
    )
    abs_x = tensor.grid.x_centers_array()[:, None] + tensor.x_offsets[:, 0]
    alive = {i: True for i in order}
    for i in order:
        if not alive[i]:
            continue
        for k in order:
            if k == i or not alive[k] or not probs[k] < probs[i]:
                continue
            num = 0
            acc = 0.0
            for j in range(tensor.grid.n_steps):
                if tensor.vis[i, 0, j] >= 0.5 and tensor.vis[k, 0, j] >= 0.5:
                    acc += abs(abs_x[i, j] - abs_x[k, j])
                    num += 1
            if num and acc / num < cfg.d_thresh:
                alive[k] = False
    out = probs.copy()
    for i, ok in alive.items():
        if not ok:
            out[i] = 0.0
    return out


@pytest.mark.parametrize("seed", range(60))
def test_nms_matches_brute_force(seed):
    grid = small_grid()
    t = random_tensor(seed, grid)
    cfg = NmsConfig(d_thresh=0.05)
    got = nms(t, cfg)
    np.testing.assert_array_equal(got.prob[:, 0], brute_force_nms(t, cfg))
    # layer 2 and every non-prob field pass through untouched
    np.testing.assert_array_equal(got.prob[:, 1], t.prob[:, 1])
    np.testing.assert_array_equal(got.x_offsets, t.x_offsets)
    np.testing.assert_array_equal(got.z, t.z)
    np.testing.assert_array_equal(got.vis, t.vis)


def edge_case_tensor(seed, grid, case):
    """random_tensor with tied probabilities, or with candidates that share no visible step."""
    t = random_tensor(seed, grid)
    if case == "tied":
        t.prob[:, 0] = np.round(t.prob[:, 0] * 4) / 4
    elif case == "disjoint":
        # odd anchors sit exactly on their left neighbour where it is hidden
        x = t.abs_x()[:, 0]
        t.x_offsets[1::2, 0] = x[0:-1:2] - np.asarray(grid.x_centers[1::2])[:, None]
        t.vis[1::2, 0] = 1.0 - t.vis[0:-1:2, 0]
    return t


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("case", ["tied", "disjoint", "floor"])
def test_nms_edge_cases_match_brute_force(case, seed):
    grid = small_grid()
    t = edge_case_tensor(seed, grid, case)
    cfg = NmsConfig(d_thresh=0.05, prob_floor=0.5 if case == "floor" else 0.0)
    if case == "tied":
        assert len(set(t.prob[:, 0])) < grid.n_anchors
    elif case == "disjoint":
        assert all(mean_lateral_distance(t, i, i + 1) == float("inf") for i in range(0, grid.n_anchors - 1, 2))
    else:
        assert np.any((t.prob[:, 0] > 0) & (t.prob[:, 0] <= cfg.prob_floor))
    got = nms(t, cfg)
    np.testing.assert_array_equal(got.prob[:, 0], brute_force_nms(t, cfg))
    np.testing.assert_array_equal(got.prob[:, 1], t.prob[:, 1])


@pytest.mark.parametrize("seed", range(0, 60, 7))
def test_nms_idempotent(seed):
    grid = small_grid()
    t = random_tensor(seed, grid)
    once = nms(t)
    twice = nms(once)
    np.testing.assert_array_equal(once.prob, twice.prob)


def test_suppressed_candidate_loses_suppression_power():
    grid = small_grid(n_anchors=3)
    t = AnchorTensor.empty(grid)
    t.prob[:, 0] = [1.0, 0.9, 0.8]
    t.vis[:, 0] = 1.0
    # place 1 on top of 0, and 2 near 1 but just outside reach of 0
    t.x_offsets[1, 0] = -0.79  # abs 0.01: distance 0.01 to anchor 0
    t.x_offsets[2, 0] = -1.53  # abs 0.07: 0.06 from anchor 1, 0.07 from anchor 0
    out = nms(t, NmsConfig(d_thresh=0.065))
    # 1 dies to 0; 2 survives because dead 1 cannot suppress and 0 is 0.07 away
    assert out.prob[:, 0].tolist() == [1.0, 0.0, 0.8]
