"""JSON interchange for scenes, lanes, and anchor tensors.

One file carries a camera block, lanes in any mix of the three
representations, and optionally an anchor tensor.  Serialization is
deterministic byte for byte: floats are rounded to 9 significant digits
(idempotent under re-reading), keys are sorted, lanes are emitted in the
canonical kind order 3d, bev, image.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .anchors import AnchorGridSpec, AnchorTensor
from .errors import InvalidInputError, LaneError
from .geometry import CameraPose, Intrinsics, Lane3D, LaneBEV
from .scenes import SceneSample

FORMAT_VERSION = 1


@dataclass
class LaneFile:
    """In-memory form of one lane file."""

    intrinsics: Intrinsics | None = None
    pose: CameraPose | None = None
    true_pitch_deg: float | None = None
    lanes3d: list[Lane3D] = field(default_factory=list)
    lanes_bev: list[LaneBEV] = field(default_factory=list)
    lanes_image: list[np.ndarray] = field(default_factory=list)
    anchors: AnchorTensor | None = None
    meta: dict = field(default_factory=dict)


def lane_file_from_sample(sample: SceneSample) -> LaneFile:
    """Package a generated scene; the pose block records the true pitch."""
    r = sample.resolved
    meta = {
        "profile": r.profile,
        "seed": sample.spec.seed,
        "grade": list(r.grade),
        "lateral_shift": r.lateral_shift,
    }
    if r.bend_radius is not None:
        meta["bend_radius_m"] = r.bend_radius
        meta["bend_direction"] = r.bend_direction
    if r.gap_m is not None:
        meta["gap_m"] = r.gap_m
        meta["branch_of"] = r.branch_of
    return LaneFile(
        intrinsics=sample.intrinsics,
        pose=sample.pose,
        true_pitch_deg=math.degrees(sample.pose.pitch_rad),
        lanes3d=list(sample.lanes3d),
        lanes_bev=list(sample.lanes_bev),
        lanes_image=[np.asarray(uv, dtype=float) for uv in sample.lanes_2d],
        meta=meta,
    )


def _round_sig(x: float) -> float:
    if not math.isfinite(x):
        raise InvalidInputError("refusing to serialize a non-finite number")
    return float(f"{x:.9g}")


# ---------------------------------------------------------------------------
# writer
#
# The text is exactly json.dumps(value, indent=2, sort_keys=True) of the
# value with every float rounded to 9 significant digits.  A numeric array
# skips the per-float Python path: one "%.9g" format renders all its values,
# and one "%" fills a template shaped like the array.  "%.9g" is repr() of
# the rounded float once integral tokens get their ".0", except from 1e9 up,
# where "%.9g" turns to exponent form ("e+") and repr does not, and for
# subnormals, which hold fewer than 9 digits (their tokens end "e-3xx");
# arrays holding such values take the per-float path.

_INDENT = "  "


def _array_template(shape: tuple, indent: str) -> str:
    if not shape:
        return "%s"
    if shape[0] == 0:
        return "[]"
    inner = indent + _INDENT
    item = _array_template(shape[1:], inner)
    return "[\n" + inner + (",\n" + inner).join([item] * shape[0]) + "\n" + indent + "]"


def _float_tokens(vals: list) -> list:
    text = ("%.9g\n" * len(vals)) % tuple(vals)
    if "e+" in text or "e-3" in text:
        return [repr(_round_sig(v)) for v in vals]
    tokens = text.split("\n")
    tokens.pop()
    return [t if "." in t or "e" in t else t + ".0" for t in tokens]


def _dump_array(arr: np.ndarray, indent: str, out: list) -> None:
    kind = arr.dtype.kind
    if kind not in "fbiu":
        _dump(arr.tolist(), indent, out)
        return
    if kind == "f" and not np.isfinite(arr).all():
        raise InvalidInputError("refusing to serialize a non-finite number")
    vals = arr.ravel().tolist()
    if kind == "f":
        vals = _float_tokens(vals)
    elif kind == "b":
        vals = ["true" if v else "false" for v in vals]
    out.append(_array_template(arr.shape, indent) % tuple(vals))


def _dump_entries(entries: list, brackets: str, indent: str, out: list) -> None:
    """A JSON object or array from (prefix, value) entries, one per line."""
    if not entries:
        out.append(brackets)
        return
    inner = indent + _INDENT
    sep = brackets[0] + "\n"
    for prefix, value in entries:
        out.append(sep + inner + prefix)
        _dump(value, inner, out)
        sep = ",\n"
    out.append("\n" + indent + brackets[1])


def _dump(obj, indent: str, out: list) -> None:
    if isinstance(obj, dict):
        items = {str(k): v for k, v in obj.items()}
        entries = [(json.dumps(k) + ": ", items[k]) for k in sorted(items)]
        _dump_entries(entries, "{}", indent, out)
    elif isinstance(obj, (list, tuple)):
        _dump_entries([("", v) for v in obj], "[]", indent, out)
    elif isinstance(obj, np.ndarray):
        _dump_array(obj, indent, out)
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(repr(_round_sig(float(obj))))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise InvalidInputError(f"cannot serialize value of type {type(obj).__name__}")


def dumps_json(obj) -> str:
    """Deterministic JSON text of `obj`: 2-space indent, sorted keys, floats
    rounded to 9 significant digits; numpy arrays and scalars are accepted.
    Raises InvalidInputError on non-finite numbers and unknown types."""
    out: list = []
    _dump(obj, "", out)
    return "".join(out)


def _intrinsics_doc(intr: Intrinsics) -> dict:
    return {
        "fx": intr.fx, "fy": intr.fy, "cx": intr.cx, "cy": intr.cy,
        "image_w": intr.image_w, "image_h": intr.image_h,
    }


def _grid_doc(grid: AnchorGridSpec) -> dict:
    return {
        "x_centers": list(grid.x_centers),
        "y_steps": list(grid.y_steps),
        "y_ref": grid.y_ref,
        "x_range": list(grid.x_range),
        "y_range": list(grid.y_range),
    }


def _lane_docs(lf: LaneFile) -> list[dict]:
    docs = []
    for lane in lf.lanes3d:
        docs.append({"kind": "3d", "points": lane.points})
    for lane in lf.lanes_bev:
        doc = {"kind": "bev", "points": lane.points, "visibility": lane.visibility}
        if lane.z is not None:
            doc["z"] = lane.z
        docs.append(doc)
    for uv in lf.lanes_image:
        docs.append({"kind": "image", "points": np.asarray(uv, dtype=float)})
    return docs


def dumps_lane_file(lf: LaneFile) -> str:
    doc: dict = {"version": FORMAT_VERSION, "lanes": _lane_docs(lf)}
    camera: dict = {}
    if lf.intrinsics is not None:
        camera["intrinsics"] = _intrinsics_doc(lf.intrinsics)
    if lf.pose is not None:
        camera["pose"] = {
            "pitch_deg": math.degrees(lf.pose.pitch_rad),
            "height_m": lf.pose.height_m,
        }
    if lf.true_pitch_deg is not None:
        camera["true_pitch_deg"] = lf.true_pitch_deg
    if camera:
        doc["camera"] = camera
    if lf.anchors is not None:
        doc["anchors"] = {
            "grid": _grid_doc(lf.anchors.grid),
            "prob": lf.anchors.prob,
            "x_offsets": lf.anchors.x_offsets,
            "z": lf.anchors.z,
            "vis": lf.anchors.vis,
        }
    if lf.meta:
        doc["meta"] = lf.meta
    return dumps_json(doc) + "\n"


def write_lane_file(path, lf: LaneFile) -> None:
    text = dumps_lane_file(lf)  # before opening: a refused number leaves no file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# reader
#
# Each block of a lane file is checked against a table of its fields:
# (key, type, required).  A type is a scalar name from _SCALARS, an _Array,
# or a nested table for an object.  Array shapes name sizes with letters
# that must agree within one scope: the whole document for the anchor block,
# one entry for a lane.  Every fault raises InvalidInputError naming the
# JSON path.  A field that is null counts as absent.


@dataclass(frozen=True)
class _Array:
    shape: tuple  # ints are fixed sizes, letters are sizes shared in a scope
    dtype: type = float  # float: finite numbers; bool: true or false

    def describe(self) -> str:
        dims = ", ".join(str(d) for d in self.shape) + ("," if len(self.shape) == 1 else "")
        return f"({dims}) " + ("booleans" if self.dtype is bool else "finite numbers")


# name: (types, largest magnitude or None, description)
_SCALARS = {
    "number": ((int, float), sys.float_info.max, "a finite number"),
    "integer": (int, 2**63 - 1, "a 64-bit integer"),
    "string": (str, None, "a string"),
    "list": (list, None, "a list"),
    "object": (dict, None, "an object"),
}

_INTRINSICS = (
    ("fx", "number", True),
    ("fy", "number", True),
    ("cx", "number", True),
    ("cy", "number", True),
    ("image_w", "integer", False),
    ("image_h", "integer", False),
)
_POSE = (("pitch_deg", "number", True), ("height_m", "number", True))
_CAMERA = (
    ("intrinsics", _INTRINSICS, False),
    ("pose", _POSE, False),
    ("true_pitch_deg", "number", False),
)
_GRID = (
    ("x_centers", _Array(("N",)), True),
    ("y_steps", _Array(("Y",)), True),
    ("y_ref", "number", True),
    ("x_range", _Array((2,)), True),
    ("y_range", _Array((2,)), True),
)
_ANCHORS = (
    ("grid", _GRID, True),  # first: the grid fixes N and Y for the tensors
    ("prob", _Array(("N", 2)), True),
    ("x_offsets", _Array(("N", 2, "Y")), True),
    ("z", _Array(("N", 2, "Y")), True),
    ("vis", _Array(("N", 2, "Y")), True),
)
_DOCUMENT = (
    ("camera", _CAMERA, False),
    ("lanes", "list", False),
    ("anchors", _ANCHORS, False),
    ("meta", "object", False),
)
_LANE_KIND = (("kind", "string", True),)
_LANES = {
    "3d": (("points", _Array(("N", 3)), True),),
    "bev": (
        ("points", _Array(("N", 2)), True),
        ("visibility", _Array(("N",), bool), False),
        ("z", _Array(("N",)), False),
    ),
    "image": (("points", _Array(("N", 2)), True),),
}


def _describe(kind) -> str:
    if isinstance(kind, _Array):
        return kind.describe()
    return "an object" if isinstance(kind, tuple) else _SCALARS[kind][2]


def _read_scalar(value, where: str, kind: str):
    types, limit, _ = _SCALARS[kind]
    if isinstance(value, types) and not isinstance(value, bool):
        if limit is None:
            return value
        if abs(value) <= limit:  # also false for NaN and infinities
            return float(value) if kind == "number" else value
    raise InvalidInputError(f"{where}: expected {_describe(kind)}")


def _read_array(value, where: str, spec: _Array, dims: dict) -> np.ndarray:
    arr = None
    if isinstance(value, list):
        try:
            # booleans must be JSON true/false; numbers convert as numpy does
            arr = np.asarray(value) if spec.dtype is bool else np.asarray(value, dtype=float)
        except (ValueError, TypeError, OverflowError):  # ragged, or entries that are not numbers
            pass
    valid = arr is not None and arr.ndim == len(spec.shape) and (
        arr.dtype.kind == "b" if spec.dtype is bool else np.isfinite(arr).all()
    )
    if not valid:
        raise InvalidInputError(f"{where}: expected {spec.describe()}")
    for dim, size in zip(spec.shape, arr.shape):
        if size != (dim if isinstance(dim, int) else dims.setdefault(dim, size)):
            known = "".join(f", {d} = {dims[d]}" for d in spec.shape if d in dims)
            raise InvalidInputError(
                f"{where}: expected {spec.describe()}{known}; got shape {arr.shape}"
            )
    return arr


def _read(block, where: str, fields: tuple, dims: dict) -> dict:
    """The fields of `block` present and valid by `fields`, keyed by name."""
    if not isinstance(block, dict):
        raise InvalidInputError(f"{where}: expected an object")
    out = {}
    for key, kind, required in fields:
        path = f"{where}.{key}" if where else key
        value = block.get(key)
        if value is None:
            if required:
                raise InvalidInputError(f"{path}: expected {_describe(kind)}")
        elif isinstance(kind, tuple):
            out[key] = _read(value, path, kind, dims)
        elif isinstance(kind, _Array):
            out[key] = _read_array(value, path, kind, dims)
        else:
            out[key] = _read_scalar(value, path, kind)
    return out


def _build(where: str, make, *args, **kwargs):
    """make(*args, **kwargs), with its validation errors prefixed by `where`."""
    try:
        return make(*args, **kwargs)
    except LaneError as exc:
        raise InvalidInputError(f"{where}: {exc}") from exc


def _read_lane(entry, where: str, lf: LaneFile) -> None:
    kind = _read(entry, where, _LANE_KIND, {})["kind"]
    if kind not in _LANES:
        raise InvalidInputError(f"{where}.kind: unknown lane kind {kind!r}")
    d = _read(entry, where, _LANES[kind], {})
    if kind == "3d":
        lf.lanes3d.append(_build(where, Lane3D, d["points"]))
    elif kind == "bev":
        lane = _build(where, LaneBEV, d["points"], visibility=d.get("visibility"), z=d.get("z"))
        lf.lanes_bev.append(lane)
    else:
        lf.lanes_image.append(d["points"])


def _reject_constant(name: str):
    raise InvalidInputError(f"{name} is not a finite number; lane files hold finite numbers only")


def loads_lane_file(text: str) -> LaneFile:
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InvalidInputError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidInputError("top level must be a JSON object")
    version = doc.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise InvalidInputError(f"version: unsupported file version {version!r}")
    d = _read(doc, "", _DOCUMENT, {})
    lf = LaneFile(meta=d.get("meta", {}))
    camera = d.get("camera", {})
    if "intrinsics" in camera:
        lf.intrinsics = _build("camera.intrinsics", Intrinsics, **camera["intrinsics"])
    if "pose" in camera:
        pose = camera["pose"]
        lf.pose = _build(
            "camera.pose",
            CameraPose,
            pitch_rad=math.radians(pose["pitch_deg"]),
            height_m=pose["height_m"],
        )
    lf.true_pitch_deg = camera.get("true_pitch_deg")
    for i, entry in enumerate(d.get("lanes", [])):
        _read_lane(entry, f"lanes[{i}]", lf)
    if "anchors" in d:
        block, g = d["anchors"], d["anchors"]["grid"]
        grid = _build(
            "anchors.grid",
            AnchorGridSpec,
            x_centers=tuple(g["x_centers"].tolist()),
            y_steps=tuple(g["y_steps"].tolist()),
            y_ref=g["y_ref"],
            x_range=tuple(g["x_range"].tolist()),
            y_range=tuple(g["y_range"].tolist()),
        )
        tensors = {k: block[k] for k in ("prob", "x_offsets", "z", "vis")}
        lf.anchors = _build("anchors", AnchorTensor, grid, **tensors)
    return lf


def read_lane_file(path) -> LaneFile:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_lane_file(fh.read())
