"""End-to-end checks of the command-line front end, run in process.

Every subcommand is run twice with identical inputs and must produce byte
identical files and stdout: determinism is part of the contract.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevlane import LaneFile, write_lane_file
from bevlane.cli import EXIT_INVALID, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from bevlane.geometry import CameraPose, DEFAULT_INTRINSICS, project_points3_to_image


def run(capsys, *args):
    code = main(list(args))
    return code, capsys.readouterr().out


def run_twice(capsys, tmp_path, *args, out_name="out.json"):
    """Run one subcommand twice with identical arguments; assert stdout and the
    output file agree byte for byte across runs."""
    out = tmp_path / out_name
    code, first_text = run(capsys, *args, "--out", str(out))
    assert code == EXIT_OK
    first_bytes = out.read_bytes()
    code, second_text = run(capsys, *args, "--out", str(out))
    assert code == EXIT_OK
    assert out.read_bytes() == first_bytes
    assert second_text == first_text
    return first_bytes, json.loads(first_text)


@pytest.fixture()
def scene_path(tmp_path, capsys):
    path = tmp_path / "scene.json"
    code, _ = run(capsys, "synth", "--profile", "flat", "--seed", "3", "--out", str(path))
    assert code == EXIT_OK
    return path


@pytest.fixture()
def encoded_path(tmp_path, capsys, scene_path):
    path = tmp_path / "encoded.json"
    code, _ = run(capsys, "encode", "--in", str(scene_path), "--out", str(path))
    assert code == EXIT_OK
    return path


def test_synth_reproducible(capsys, tmp_path):
    _, doc = run_twice(
        capsys, tmp_path, "synth", "--profile", "bend", "--seed", "11", out_name="scene.json"
    )
    assert doc["profile"] == "bend"
    assert doc["n_lanes"] == 4
    assert doc["pitch_deg"] == 0.0


def test_synth_perturbed_pitch_reproducible(capsys, tmp_path):
    _, doc = run_twice(
        capsys,
        tmp_path,
        "synth",
        "--profile",
        "flat",
        "--seed",
        "1",
        "--perturb-pitch-deg",
        "3.0",
        "--perturb-seed",
        "7",
        out_name="scene.json",
    )
    assert doc["pitch_deg"] != 0.0
    assert abs(doc["pitch_deg"]) <= 3.0


def test_calibrate_recovers_pitch(capsys, tmp_path):
    scene = tmp_path / "scene.json"
    run(capsys, "synth", "--profile", "flat", "--seed", "2", "--perturb-pitch-deg", "2.5",
        "--perturb-seed", "4", "--out", str(scene))
    capsys.readouterr()
    _, doc = run_twice(
        capsys, tmp_path, "calibrate", "--in", str(scene), "--iters", "5", out_name="calib.json"
    )
    assert doc["converged"] is True
    assert doc["n_lines"] == 4
    assert doc["abs_error_deg"] < 1e-6


def test_calibrate_out_file_matches_stdout(capsys, tmp_path, scene_path):
    out = tmp_path / "calib.json"
    code, text = run(capsys, "calibrate", "--in", str(scene_path), "--out", str(out))
    assert code == EXIT_OK
    assert out.read_text(encoding="utf-8") == text


def test_encode_reproducible(capsys, tmp_path, scene_path):
    _, doc = run_twice(
        capsys, tmp_path, "encode", "--in", str(scene_path), out_name="encoded.json"
    )
    assert doc["active_layer1"] == 4
    assert doc["active_layer2"] == 0
    assert doc["dropped"] == []


def test_loss_weak_reproducible(capsys, encoded_path):
    # loss has no --out; byte-compare the stdout of two runs
    texts = []
    for _ in range(2):
        code, text = run(
            capsys, "loss", "--pred", str(encoded_path), "--gt", str(encoded_path), "--normalize"
        )
        assert code == EXIT_OK
        texts.append(text)
    assert texts[0] == texts[1]
    doc = json.loads(texts[0])
    assert doc["l_width"] <= 1e-4  # serialization rounding keeps GT near, not at, zero
    assert doc["l_height"] <= 1e-4
    assert doc["l_z"] == 0.0


def test_loss_sup_and_weights(capsys, encoded_path):
    code, text = run(
        capsys, "loss", "--pred", str(encoded_path), "--gt", str(encoded_path), "--mode", "sup"
    )
    assert code == EXIT_OK
    base = json.loads(text)
    assert base["l_z"] == 0.0
    code, text = run(
        capsys, "loss", "--pred", str(encoded_path), "--gt", str(encoded_path),
        "--mode", "sup", "--weights", "bev=2.0",
    )
    assert code == EXIT_OK
    doubled = json.loads(text)
    # term fields stay raw; the weight shows up in the weighted total
    assert doubled["l_bev"] == pytest.approx(base["l_bev"], rel=1e-9)
    assert doubled["total"] == pytest.approx(base["total"] + base["l_bev"], rel=1e-6)


def test_loss_with_pitch_pair(capsys, encoded_path):
    code, text = run(
        capsys, "loss", "--pred", str(encoded_path), "--gt", str(encoded_path),
        "--pred-pitch-deg", "1.0", "--calib-pitch-deg", "0.5",
    )
    assert code == EXIT_OK
    assert json.loads(text)["l_pitch"] > 0.0


def test_loss_half_pitch_pair_rejected(capsys, encoded_path):
    code, _ = run(
        capsys, "loss", "--pred", str(encoded_path), "--gt", str(encoded_path),
        "--pred-pitch-deg", "1.0",
    )
    assert code == EXIT_INVALID


def test_fit_weak_flat_reproducible(capsys, tmp_path, scene_path):
    _, doc = run_twice(
        capsys, tmp_path, "fit", "--in", str(scene_path), out_name="fit.json"
    )
    assert doc["mode"] == "weak"
    assert doc["converged"] is True
    assert doc["stop_reason"] == "target"
    assert doc["n_steps"] == 0  # flat labels start at the optimum
    assert doc["z_rmse_m"] <= 1e-9


@pytest.mark.parametrize("profile, seed", [("uphill", 2), ("downhill", 1)])
def test_fit_reports_convergence_honestly(capsys, tmp_path, profile, seed):
    # the synthesized labels are not exactly consistent, so the fit runs LPs,
    # some of them rejected; those must not read as a stall
    scene, out = tmp_path / "scene.json", tmp_path / "fit.json"
    code, _ = run(capsys, "synth", "--profile", profile, "--seed", str(seed), "--out", str(scene))
    assert code == EXIT_OK
    code, text = run(capsys, "fit", "--in", str(scene), "--out", str(out))
    assert code == EXIT_OK
    doc = json.loads(text)
    assert (doc["stop_reason"], doc["converged"]) == ("stationary", True)


def test_fit_sup_flat_reproducible(capsys, tmp_path, scene_path):
    _, doc = run_twice(
        capsys, tmp_path, "fit", "--in", str(scene_path), "--mode", "sup", out_name="fit.json"
    )
    assert doc["converged"] is True
    assert doc["stop_reason"] == "target"
    assert doc["z_rmse_m"] <= 1e-9


def test_nms_reproducible(capsys, tmp_path, encoded_path):
    _, doc = run_twice(
        capsys, tmp_path, "nms", "--in", str(encoded_path), out_name="nms.json"
    )
    # encoded lanes sit a full lane width apart; nothing to suppress
    assert doc["before"] == 4 and doc["after"] == 4 and doc["suppressed"] == 0


def test_eval_reproducible(capsys, tmp_path, scene_path):
    fit_out = tmp_path / "fit.json"
    run(capsys, "fit", "--in", str(scene_path), "--out", str(fit_out))
    capsys.readouterr()
    _, doc = run_twice(
        capsys, tmp_path, "eval", "--pred", str(fit_out), "--gt", str(scene_path),
        out_name="eval.json",
    )
    assert doc["f1"] == 100.0
    assert doc["x_near"] <= 1e-9
    # decoded lanes start at the 2.5 m anchor row while the scene starts at
    # 2.0 m, so the chamfer picks up one endpoint overhang term
    assert doc["chamfer_m"] <= 0.02


def test_plot_reproducible(capsys, tmp_path, scene_path):
    svg, _ = run_twice(
        capsys, tmp_path, "plot", "--in", str(scene_path), out_name="plot.svg"
    )
    assert svg.startswith(b"<svg ")
    pred_svg = tmp_path / "pred.svg"
    code, _ = run(
        capsys, "plot", "--in", str(scene_path), "--pred", str(scene_path), "--out", str(pred_svg)
    )
    assert code == EXIT_OK
    assert pred_svg.read_bytes() != svg


def test_missing_file_exits_invalid(capsys, tmp_path):
    code, _ = run(capsys, "calibrate", "--in", str(tmp_path / "nope.json"))
    assert code == EXIT_INVALID


def test_malformed_json_exits_invalid(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _ = run(capsys, "encode", "--in", str(bad), "--out", str(tmp_path / "o.json"))
    assert code == EXIT_INVALID


def test_encode_without_bev_lanes_exits_invalid(capsys, tmp_path):
    empty = tmp_path / "empty.json"
    write_lane_file(empty, LaneFile())
    code, _ = run(capsys, "encode", "--in", str(empty), "--out", str(tmp_path / "o.json"))
    assert code == EXIT_INVALID


def test_coincident_lanes_exit_numeric(capsys, tmp_path):
    pose = CameraPose(pitch_rad=0.0, height_m=1.5)
    y = np.linspace(3.0, 20.0, 12)
    pts = np.stack([np.full_like(y, 1.85), y, np.zeros_like(y)], axis=1)
    uv = project_points3_to_image(pts, DEFAULT_INTRINSICS, pose)
    path = tmp_path / "twin.json"
    write_lane_file(
        path,
        LaneFile(intrinsics=DEFAULT_INTRINSICS, pose=pose, lanes_image=[uv, uv.copy()]),
    )
    code, _ = run(capsys, "calibrate", "--in", str(path))
    assert code == EXIT_NUMERIC


def test_usage_errors_exit_64(capsys, tmp_path):
    for argv in (
        ["synth", "--profile", "mountain", "--out", str(tmp_path / "o.json")],
        ["synth", "--seed", "notanint", "--out", str(tmp_path / "o.json")],
        ["fit", "--no-such-flag"],
        ["loss", "--pred", "a", "--gt", "b", "--weights", "bogus=1"],
        [],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags",
    [
        ["--y-end", "inf"],
        ["--spacing", "nan"],
        ["--spacing", "1e-9"],
        ["--jitter-px", "nan"],
        ["--jitter-px", "-1"],
        ["--crown", "nan"],
        ["--perturb-pitch-deg", "nan"],
        ["--perturb-pitch-deg", "-1"],
        ["--profile", "fork", "--gap", "inf"],
        ["--seed=-1"],
        ["--perturb-pitch-deg", "1", "--perturb-seed=-1"],
        ["--lanes", "17"],
        ["--lanes", "100000"],
        # finite but past the field's range: refused before any arithmetic
        # overflows, by an error that names the field
        ["--profile", "fork", "--gap", "1e308"],
        ["--jitter-px", "1e308"],
        ["--crown", "1e308"],
        ["--height", "1e308"],
        ["--grade", "0", "0", "1e308"],
    ],
)
@pytest.mark.filterwarnings("error")
def test_synth_rejects_bad_numbers(capsys, tmp_path, flags):
    out = tmp_path / "o.json"
    code = main(["synth", *flags, "--out", str(out)])
    assert code == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "serialize" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# the exit-code contract under malformed lane files


def _main_err(argv):
    """(exit code, stderr) of one in-process run; usage errors leave through SystemExit."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def _quiet_main(argv):
    return _main_err(argv)[0]


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A fork scene from `synth` and its `encode` output, as paths and as text."""
    root = tmp_path_factory.mktemp("valid")
    scene, encoded = root / "scene.json", root / "encoded.json"
    assert _quiet_main(["synth", "--profile", "fork", "--seed", "2", "--out", str(scene)]) == 0
    assert _quiet_main(["encode", "--in", str(scene), "--out", str(encoded)]) == 0
    return root, {"scene": scene.read_text(), "encoded": encoded.read_text()}


def _json_paths(node, path=()):
    """Every path into `node`; within a list only the first, second and last item."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _json_paths(value, path + (key,))
    elif isinstance(node, list):
        for i in sorted({0, 1, len(node) - 1} & set(range(len(node)))):
            yield from _json_paths(node[i], path + (i,))


def _mutate(doc, path, op, swap):
    """`doc` with one change at `path` (the root itself is only swapped)."""
    if not path:
        return swap
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    if op == "delete":
        del parent[key]
    elif op == "swap":
        parent[key] = swap
    elif op == "truncate":
        parent[key] = value[: len(value) // 2] if isinstance(value, (list, str)) else swap
    else:
        parent[key] = float(op)
    return doc


COMMANDS = {
    "calibrate": lambda bad, root: ["calibrate", "--in", bad],
    "encode": lambda bad, root: ["encode", "--in", bad, "--out", str(root / "out.json")],
    "fit": lambda bad, root: ["fit", "--in", bad, "--out", str(root / "out.json")],
    "nms": lambda bad, root: ["nms", "--in", bad, "--out", str(root / "out.json")],
    "eval": lambda bad, root: ["eval", "--pred", bad, "--gt", str(root / "scene.json")],
    "plot": lambda bad, root: ["plot", "--in", bad, "--out", str(root / "out.svg")],
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_lane_files_exit_0_2_or_3(valid_files, data):
    root, texts = valid_files
    source = data.draw(st.sampled_from(sorted(texts)), label="source")
    doc = json.loads(texts[source])
    path = data.draw(st.sampled_from(list(_json_paths(doc))), label="path")
    op = data.draw(st.sampled_from(["delete", "swap", "truncate", "nan", "inf", "-inf"]), label="op")
    swap = data.draw(st.sampled_from(["text", 7, 2.5, -1.0, True, None, [], {}, [1.0, 2.0]]))
    command = data.draw(st.sampled_from(sorted(COMMANDS)), label="command")
    bad = root / "bad.json"
    bad.write_text(json.dumps(_mutate(doc, path, op, swap)), encoding="utf-8")
    assert _quiet_main(COMMANDS[command](str(bad), root)) in (EXIT_OK, EXIT_INVALID, EXIT_NUMERIC)


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["camera"]["intrinsics"].pop("fx"),
        lambda d: d["lanes"][0].update(points="abc"),
        lambda d: d["lanes"].__setitem__(1, 5),
        lambda d: d["camera"]["pose"].update(pitch_deg="1.0"),
        lambda d: d.update(lanes=5),
        lambda d: d.update(camera=[]),
    ],
    ids=["missing-fx", "string-points", "lane-not-object", "string-pitch", "lanes-int", "camera-list"],
)
def test_eval_rejects_malformed_prediction(capsys, tmp_path, scene_path, edit):
    doc = json.loads(scene_path.read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, _ = run(capsys, "eval", "--pred", str(bad), "--gt", str(scene_path))
    assert code == EXIT_INVALID


# ---------------------------------------------------------------------------
# the exit-code contract under malformed numeric flags


@pytest.fixture(scope="module")
def valid_root(valid_files):
    return valid_files[0]


def _command(root, name):
    """argv of one subcommand on the valid files, writing to root/out.json where it writes."""
    scene, encoded, out = (str(root / f) for f in ("scene.json", "encoded.json", "out.json"))
    return {
        "synth": ["synth", "--profile", "fork", "--out", out],
        "calibrate": ["calibrate", "--in", scene, "--out", out],
        "loss": ["loss", "--pred", encoded, "--gt", encoded],
        "fit": ["fit", "--in", scene, "--out", out, "--steps", "20"],
        "nms": ["nms", "--in", encoded, "--out", out],
        "eval": ["eval", "--pred", scene, "--gt", scene, "--out", out],
    }[name]


# every float flag of each subcommand
NUMERIC_FLAGS = {
    "synth": ("--lane-width", "--grade", "--bend-radius", "--gap", "--crown", "--pitch-deg",
              "--height", "--y-start", "--y-end", "--spacing", "--jitter-px", "--perturb-pitch-deg"),
    "calibrate": ("--y-close", "--tol"),
    "loss": ("--pred-pitch-deg", "--calib-pitch-deg", "--weights"),
    "fit": ("--tol",),
    "nms": ("--d-thresh", "--prob-floor"),
    "eval": ("--y-min", "--y-max", "--y-step", "--match-dist", "--match-frac", "--split"),
}
PITCH_PAIR = {"--pred-pitch-deg": "--calib-pitch-deg", "--calib-pitch-deg": "--pred-pitch-deg"}
NON_FINITE = ("nan", "inf", "-inf")
# values past the sample caps, only for the flags that size arrays
PAST_CAP = {"--y-end": "1e9", "--spacing": "1e-9", "--y-max": "1e9", "--y-step": "1e-9"}


def _flag_argv(flag, value):
    """argv giving one flag one value; "flag=value" lets a value start with "-"."""
    if flag == "--grade":
        return ["--grade", "0", "0", value]
    if flag == "--weights":
        return [f"--weights=width={value}"]
    return [f"{flag}={value}"] + ([f"{PITCH_PAIR[flag]}=0"] if flag in PITCH_PAIR else [])


def _values(flag):
    values = [*NON_FINITE, "0", "-1", "1e308"]
    if flag in PAST_CAP:
        values.append(PAST_CAP[flag])
    if flag == "--grade":  # argparse reads "-inf" among three values as an option
        values.remove("-inf")
    return values


@pytest.mark.parametrize("name", sorted(NUMERIC_FLAGS))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_numeric_flags_hold_the_exit_code_contract(valid_root, name, data):
    flag = data.draw(st.sampled_from(NUMERIC_FLAGS[name]), label="flag")
    value = data.draw(st.sampled_from(_values(flag)), label="value")
    out = valid_root / "out.json"
    out.unlink(missing_ok=True)
    code, err = _main_err(_command(valid_root, name) + _flag_argv(flag, value))
    assert code in (EXIT_OK, EXIT_INVALID, EXIT_NUMERIC, EXIT_USAGE)
    if value in NON_FINITE:
        assert code == EXIT_INVALID
    if code in (EXIT_INVALID, EXIT_NUMERIC):
        assert len(err.splitlines()) == 1
        assert not out.exists()


# (subcommand, flags, exit code); a flag the subcommand lacks is a usage error
BAD_NUMBERS = [
    ("eval", ["--y-step", "nan"], EXIT_INVALID),
    ("eval", ["--y-step", "1e-9"], EXIT_INVALID),
    ("eval", ["--y-max", "1e9"], EXIT_INVALID),
    ("eval", ["--match-dist", "nan"], EXIT_INVALID),
    ("eval", ["--split", "inf"], EXIT_INVALID),
    ("nms", ["--d-thresh", "nan"], EXIT_INVALID),
    ("nms", ["--d-thresh", "-1"], EXIT_INVALID),
    ("nms", ["--d-thresh", "inf"], EXIT_INVALID),
    ("nms", ["--prob-floor", "nan"], EXIT_INVALID),
    ("nms", ["--prob-floor", "2"], EXIT_INVALID),
    ("fit", ["--tol", "nan"], EXIT_INVALID),
    ("fit", ["--tol", "inf"], EXIT_INVALID),
    ("fit", ["--smooth-delta", "1"], EXIT_USAGE),  # fit has one objective, exact L1
    ("calibrate", ["--y-close", "nan"], EXIT_INVALID),
    ("calibrate", ["--tol", "nan"], EXIT_INVALID),
    ("calibrate", ["--tol", "-1"], EXIT_INVALID),
    ("loss", ["--weights", "width=-1"], EXIT_INVALID),
    ("loss", ["--weights", "height=nan"], EXIT_INVALID),
    ("loss", ["--smooth-delta", "-1"], EXIT_USAGE),  # loss too: the Huber variant is gone
    ("loss", ["--smooth-delta", "nan"], EXIT_USAGE),
    ("loss", ["--pred-pitch-deg", "nan", "--calib-pitch-deg", "0"], EXIT_INVALID),
    ("loss", ["--weights", "width=1e308"], EXIT_INVALID),
]


@pytest.mark.parametrize(
    "name, flags, expected",
    BAD_NUMBERS,
    ids=[f"{name}-flags{i}" for i, (name, _, _) in enumerate(BAD_NUMBERS)],
)
def test_subcommands_reject_bad_numbers(valid_root, name, flags, expected):
    out = valid_root / "out.json"
    out.unlink(missing_ok=True)
    code, err = _main_err(_command(valid_root, name) + flags)
    assert code == expected
    if expected == EXIT_INVALID:
        assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not out.exists()
