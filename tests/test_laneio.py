import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from bevlane import (
    Lane3D,
    LaneBEV,
    LaneFile,
    SceneSpec,
    encode_gt,
    lane_file_from_sample,
    make_scene,
    read_lane_file,
    write_lane_file,
)
from bevlane import laneio
from bevlane.errors import InvalidInputError
from bevlane.laneio import dumps_json, dumps_lane_file, loads_lane_file
from bevlane.scenes import PROFILES


# ---------------------------------------------------------------------------
# reference serializer: the writer as it was before numeric arrays were
# formatted in bulk, one Python call per value and the pure-Python encoder


def _reference_round(x):
    if not math.isfinite(x):
        raise InvalidInputError("refusing to serialize a non-finite number")
    return float(f"{x:.9g}")


def _reference_canonical(obj):
    if isinstance(obj, dict):
        return {str(k): _reference_canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _reference_canonical(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _reference_round(float(obj))
    if obj is None or isinstance(obj, str):
        return obj
    raise InvalidInputError(f"cannot serialize value of type {type(obj).__name__}")


def reference_dumps_json(obj):
    return json.dumps(_reference_canonical(obj), indent=2, sort_keys=True)


def reference_dumps_lane_file(lf, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(laneio, "dumps_json", reference_dumps_json)
        return dumps_lane_file(lf)


SCENE_VARIANTS = [
    (profile, kw)
    for profile in PROFILES
    for kw in ({}, {"crown_slope": 0.02}, {"pixel_jitter_px": 0.5})
]


@pytest.mark.parametrize(("profile", "kw"), SCENE_VARIANTS)
def test_writer_matches_reference_on_scene_files(monkeypatch, default_grid, profile, kw):
    lf = lane_file_from_sample(make_scene(SceneSpec(profile=profile, seed=7, **kw)))
    assert dumps_lane_file(lf) == reference_dumps_lane_file(lf, monkeypatch)
    lf.anchors = encode_gt(lf.lanes_bev, default_grid)
    assert dumps_lane_file(lf) == reference_dumps_lane_file(lf, monkeypatch)


EDGE_VALUES = [
    np.array([-0.0, 0.0, 1e-5, -1e-5, 1.5e-7, 0.0001, 123456789.0, 99999999.95]),
    np.array([999999999.4, 999999999.5, 2.5e9, 1e16, 1e17, -1e17, 1.7976931348623157e308]),
    np.array([5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1.5e-35, 0.1, 1.0 / 3.0, -7.0]),
    np.float32([0.1, 1.0, 3.4e38]),
    np.arange(12).reshape(2, 3, 2),
    np.array([-(2**62), 0, 2**62], dtype=np.int64),
    np.array([7], dtype=np.uint8),
    np.array([[True, False], [False, True]]),
    np.zeros(0),
    np.zeros((3, 0)),
    np.zeros((0, 3)),
    np.array(2.5),
    np.array(["a", "b\"q"]),
    np.float64(123456789.0),
    np.int32(-4),
    np.bool_(True),
    [1, 2.5, None, "s\u00e9", True, {}, [], (3.0, -0.0)],
    {"b": {"z": 1e-5, 2: [np.arange(3.0)]}, "a": None},
    [],
    {},
]


@pytest.mark.parametrize("value", EDGE_VALUES, ids=lambda v: type(v).__name__)
def test_writer_matches_reference_on_edge_values(value):
    for wrapped in (value, {"v": value}, [{"v": [value]}]):
        assert dumps_json(wrapped) == reference_dumps_json(wrapped)


def test_writer_matches_reference_on_an_empty_lane_file(monkeypatch):
    assert dumps_lane_file(LaneFile()) == reference_dumps_lane_file(LaneFile(), monkeypatch)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    arrays(
        np.float64,
        array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    )
)
def test_writer_matches_reference_on_random_float_arrays(arr):
    assert dumps_json({"a": arr}) == reference_dumps_json({"a": arr})


@pytest.mark.parametrize(
    "value",
    [np.array([[np.inf]]), float("-inf"), np.array([1 + 2j])],
    ids=["array-inf", "scalar-inf", "complex"],
)
def test_writer_refuses_what_json_cannot_hold(value):
    with pytest.raises(InvalidInputError):
        dumps_json({"v": value})


def test_round_trip_is_byte_identical(uphill_scene):
    lf = lane_file_from_sample(uphill_scene)
    first = dumps_lane_file(lf)
    second = dumps_lane_file(loads_lane_file(first))
    assert first == second


def test_file_round_trip(tmp_path, bend_scene):
    lf = lane_file_from_sample(bend_scene)
    path = tmp_path / "scene.json"
    write_lane_file(path, lf)
    back = read_lane_file(path)
    assert dumps_lane_file(back) == path.read_text(encoding="utf-8")


def test_camera_and_meta_survive(uphill_scene):
    lf = lane_file_from_sample(uphill_scene)
    back = loads_lane_file(dumps_lane_file(lf))
    assert back.pose.height_m == pytest.approx(lf.pose.height_m)
    assert back.pose.pitch_rad == pytest.approx(lf.pose.pitch_rad, abs=1e-12)
    assert back.true_pitch_deg == pytest.approx(math.degrees(lf.pose.pitch_rad), abs=1e-9)
    assert back.intrinsics.fx == lf.intrinsics.fx
    assert back.intrinsics.image_w == lf.intrinsics.image_w
    assert back.meta["profile"] == "uphill"
    assert back.meta["seed"] == 5
    assert len(back.lanes3d) == len(lf.lanes3d)
    assert len(back.lanes_bev) == len(lf.lanes_bev)
    assert len(back.lanes_image) == len(lf.lanes_image)
    np.testing.assert_allclose(back.lanes3d[0].points, lf.lanes3d[0].points, rtol=1e-8, atol=1e-9)
    assert back.lanes_bev[0].z is not None


def test_anchor_block_round_trip(uphill_encoded, default_grid):
    lf = LaneFile(anchors=uphill_encoded)
    text = dumps_lane_file(lf)
    back = loads_lane_file(text)
    assert back.anchors.grid == default_grid
    np.testing.assert_array_equal(back.anchors.prob, uphill_encoded.prob)
    np.testing.assert_array_equal(back.anchors.vis, uphill_encoded.vis)
    np.testing.assert_allclose(back.anchors.x_offsets, uphill_encoded.x_offsets, rtol=1e-8, atol=1e-9)
    np.testing.assert_allclose(back.anchors.z, uphill_encoded.z, rtol=1e-8, atol=1e-9)
    assert dumps_lane_file(back) == text


def test_floats_rounded_to_nine_significant_digits():
    lf = LaneFile(lanes3d=[Lane3D([[0.123456789123, 1.0, 0.0], [0.0, 9.0, 0.0]])])
    text = dumps_lane_file(lf)
    assert "0.123456789" in text
    assert "0.123456789123" not in text


def test_bev_lane_without_z_and_default_visibility():
    lf = LaneFile(lanes_bev=[LaneBEV([[0.0, 0.0], [0.0, 5.0]])])
    back = loads_lane_file(dumps_lane_file(lf))
    assert back.lanes_bev[0].z is None
    text = '{"version": 1, "lanes": [{"kind": "bev", "points": [[0, 0], [0, 5]]}]}'
    parsed = loads_lane_file(text)
    assert parsed.lanes_bev[0].visibility.all()


def test_empty_file_round_trips():
    back = loads_lane_file(dumps_lane_file(LaneFile()))
    assert not back.lanes3d and not back.lanes_bev and not back.lanes_image
    assert back.anchors is None and back.pose is None


def test_rejects_wrong_version():
    with pytest.raises(InvalidInputError):
        loads_lane_file('{"version": 2, "lanes": []}')
    with pytest.raises(InvalidInputError):
        loads_lane_file('{"lanes": []}')


def test_rejects_malformed_documents():
    with pytest.raises(InvalidInputError):
        loads_lane_file("{not json")
    with pytest.raises(InvalidInputError):
        loads_lane_file("[1, 2]")
    with pytest.raises(InvalidInputError):
        loads_lane_file('{"version": 1, "lanes": [{"kind": "spline", "points": []}]}')
    with pytest.raises(InvalidInputError):
        loads_lane_file('{"version": 1, "lanes": [{"kind": "image", "points": [[1, 2, 3]]}]}')


def test_refuses_non_finite_values():
    lf = LaneFile(lanes_image=[np.array([[np.nan, 0.0], [1.0, 2.0]])])
    with pytest.raises(InvalidInputError):
        dumps_lane_file(lf)


def test_refuses_unserializable_meta():
    lf = LaneFile(meta={"bad": object()})
    with pytest.raises(InvalidInputError):
        dumps_lane_file(lf)


# ---------------------------------------------------------------------------
# reader: every fault is an InvalidInputError that names the JSON path


@pytest.fixture(scope="module")
def scene_doc(default_grid):
    lf = lane_file_from_sample(make_scene(SceneSpec(profile="flat", seed=3)))
    lf.anchors = encode_gt(lf.lanes_bev, default_grid)
    return json.loads(dumps_lane_file(lf))


def _without(block, key):
    return {k: v for k, v in block.items() if k != key}


MALFORMED = [
    ("camera.intrinsics.fx", lambda d: d["camera"].update(
        intrinsics=_without(d["camera"]["intrinsics"], "fx"))),
    ("lanes[0].points", lambda d: d["lanes"][0].update(points="abc")),
    ("lanes[1]", lambda d: d["lanes"].__setitem__(1, 5)),
    ("camera.pose.pitch_deg", lambda d: d["camera"]["pose"].update(pitch_deg="0.5")),
    ("lanes", lambda d: d.update(lanes=5)),
    ("camera", lambda d: d.update(camera=[])),
    ("camera.pose.height_m", lambda d: d["camera"]["pose"].update(height_m=True)),
    ("camera.pose", lambda d: d["camera"]["pose"].update(height_m=-1.0)),
    ("camera.intrinsics.image_w", lambda d: d["camera"]["intrinsics"].update(image_w=480.5)),
    ("camera.intrinsics.image_h", lambda d: d["camera"]["intrinsics"].update(image_h=2**70)),
    ("lanes[0].kind", lambda d: d["lanes"][0].update(kind="spline")),
    ("lanes[0].kind", lambda d: d["lanes"][0].update(kind=3)),
    ("lanes[0].points", lambda d: d["lanes"][0].update(points=[[0.0, 1.0]])),
    ("lanes[0].points", lambda d: d["lanes"][0].update(points=[[0.0, 1.0, 0.0], [0.0, 2.0]])),
    ("lanes[0].points", lambda d: d["lanes"][0]["points"][0].__setitem__(0, None)),
    ("lanes[0]", lambda d: d["lanes"][0].update(points=d["lanes"][0]["points"][::-1])),
    ("lanes[4].visibility", lambda d: d["lanes"][4].update(visibility=[1] * 3)),
    ("lanes[4].z", lambda d: d["lanes"][4].update(z=d["lanes"][4]["z"][:-1])),
    ("anchors.grid", lambda d: d["anchors"].update(grid=[])),
    ("anchors.grid.y_ref", lambda d: d["anchors"]["grid"].pop("y_ref")),
    ("anchors.grid", lambda d: d["anchors"]["grid"].update(y_ref=500.0)),
    ("anchors.prob", lambda d: d["anchors"].update(prob=d["anchors"]["prob"][:-1])),
    ("anchors.z", lambda d: d["anchors"]["z"][0][0].pop()),
    ("anchors.vis", lambda d: d["anchors"].update(vis="none")),
    ("anchors", lambda d: d["anchors"]["prob"][0].__setitem__(0, 2.0)),
    ("meta", lambda d: d.update(meta=[1, 2])),
    ("version", lambda d: d.update(version=True)),
]


@pytest.mark.parametrize(("path", "mutate"), MALFORMED, ids=[p for p, _ in MALFORMED])
def test_reader_names_the_faulty_path(scene_doc, path, mutate):
    doc = json.loads(json.dumps(scene_doc))
    mutate(doc)
    with pytest.raises(InvalidInputError, match=f"^{re.escape(path)}: "):
        loads_lane_file(json.dumps(doc))


def test_reader_message_gives_the_expected_shape(scene_doc):
    doc = json.loads(json.dumps(scene_doc))
    doc["anchors"]["z"] = [[row[:-1] for row in slot] for slot in doc["anchors"]["z"]]
    with pytest.raises(InvalidInputError) as exc:
        loads_lane_file(json.dumps(doc))
    assert str(exc.value) == "anchors.z: expected (N, 2, Y) finite numbers, N = 26, Y = 20; got shape (26, 2, 19)"


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_reader_rejects_non_finite_tokens(token):
    text = '{"version": 1, "lanes": [], "meta": {"x": %s}}' % token
    with pytest.raises(InvalidInputError, match=token):
        loads_lane_file(text)


@pytest.mark.parametrize("number", ["1e999", "-1e999", "1" + "0" * 400])
def test_reader_rejects_numbers_beyond_float_range(number):
    text = '{"version": 1, "camera": {"true_pitch_deg": %s}}' % number
    with pytest.raises(InvalidInputError, match=r"^camera\.true_pitch_deg: "):
        loads_lane_file(text)
    text = '{"version": 1, "lanes": [{"kind": "image", "points": [[%s, 0], [1, 2]]}]}' % number
    with pytest.raises(InvalidInputError, match=r"^lanes\[0\]\.points: "):
        loads_lane_file(text)


def test_reader_treats_null_as_absent():
    text = '{"version": 1, "lanes": [{"kind": "bev", "points": [[0, 0], [0, 5]], "z": null}], "camera": null}'
    lf = loads_lane_file(text)
    assert lf.lanes_bev[0].z is None and lf.intrinsics is None
