import contextlib
import csv
import hashlib
import io
import json
import os
import struct
import sys
import tracemalloc

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harvestcell import cli, config, harvest, mechanism, perception
from harvestcell.config import default_config_path
from harvestcell.errors import ConfigError, ParseError, ValidationError
from harvestcell.perception import (DEPTH_MAGIC, load_depth_frame,
                                    load_detections, write_depth_frame)


def _shipped_raw():
    with open(default_config_path(), "r", encoding="utf-8") as fh:
        return yaml.safe_load(fh)


@pytest.fixture(scope="module")
def fast_config_path(tmp_path_factory):
    """Shipped config with a small swarm so CLI planning tests stay quick."""
    raw = _shipped_raw()
    raw.setdefault("pso", {}).update({"swarm_size": 12, "iterations": 40})
    path = tmp_path_factory.mktemp("config") / "fast.yaml"
    path.write_text(yaml.safe_dump(raw))
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_torque_curve_writes_rows(tmp_path):
    out = tmp_path / "curve.csv"
    code = cli.main(["--quiet", "--out", str(out), "torque-curve",
                     "--theta", "45", "--steps", "11"])
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["theta_deg", "force_N", "xi_deg", "dxi_dtheta",
                      "torque_single_Nmm", "torque_total_Nmm"]
    assert len(rows) == 11
    forces = np.array([float(r[1]) for r in rows])
    torques = np.array([float(r[4]) for r in rows])
    slope, intercept = np.polyfit(forces, torques, 1)
    fit = slope * forces + intercept
    assert np.abs(torques - fit).max() < 1e-9
    totals = np.array([float(r[5]) for r in rows])
    assert np.array_equal(totals, 6.0 * torques)


def test_torque_curve_theta_out_of_range(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = cli.main(["--quiet", "--out", str(out), "torque-curve",
                     "--theta", "200"])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "theta_range" in err and "120" in err


def _refuse(*args, **kwargs):
    raise AssertionError("a count past its bound reached the work it sizes")


def _peak_alloc_bytes(run) -> tuple[object, int]:
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("steps", [str(mechanism._MAX_FORCE_STEPS + 1),
                                   "100000000000000"])
def test_torque_curve_steps_past_bound(tmp_path, capsys, monkeypatch, steps):
    monkeypatch.setattr(mechanism, "torque_single_finger", _refuse)
    out = tmp_path / "curve.csv"
    code, peak = _peak_alloc_bytes(lambda: cli.main(
        ["--quiet", "--out", str(out), "torque-curve", "--theta", "45",
         "--steps", steps]))
    assert code == 1
    assert not out.exists()
    assert "steps must be <=" in _assert_one_line_error(capsys)
    assert peak < 4 << 20


@pytest.mark.parametrize("trials", [str(harvest._MAX_TRIALS + 1),
                                    "100000000000000"])
def test_pick_stats_trials_past_bound(tmp_path, capsys, monkeypatch,
                                      detection_fixture, trials):
    # refused before planning; the only sizeable allocation left is the
    # 3.7 MB depth frame
    monkeypatch.setattr(harvest, "plan_cycle", _refuse)
    det, depth = detection_fixture
    out = tmp_path / "stats.json"
    code, peak = _peak_alloc_bytes(lambda: cli.main(
        ["--quiet", "--out", str(out), "pick-stats", "--detections", str(det),
         "--depth", str(depth), "--trials", trials]))
    assert code == 1
    assert not out.exists()
    assert not (tmp_path / "stats.trials.csv").exists()
    assert "trials must be <=" in _assert_one_line_error(capsys)
    assert peak < 16 << 20


def test_pick_stats_negative_seed_fails_before_planning(tmp_path, capsys,
                                                       monkeypatch,
                                                       detection_fixture):
    monkeypatch.setattr(harvest, "plan_cycle", _refuse)
    det, depth = detection_fixture
    out = tmp_path / "stats.json"
    code = cli.main(["--quiet", "--seed", "-1", "--out", str(out),
                     "pick-stats", "--detections", str(det),
                     "--depth", str(depth)])
    assert code == 1
    assert not out.exists()
    assert "'seed' must be an integer >= 0" in _assert_one_line_error(
        capsys)


@pytest.mark.parametrize("depth_scale", [-1, 0])
def test_pick_stats_non_positive_depth_scale_names_the_key(tmp_path, capsys,
                                                           detection_fixture,
                                                           depth_scale):
    raw = _shipped_raw()
    raw["camera"]["depth_scale"] = depth_scale
    cfg = tmp_path / "scale.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    det, depth = detection_fixture
    out = tmp_path / "stats.json"
    code = cli.main(["--quiet", "--config", str(cfg), "--out", str(out),
                     "pick-stats", "--detections", str(det),
                     "--depth", str(depth)])
    assert code == 1
    assert not out.exists()
    assert not (tmp_path / "stats.trials.csv").exists()
    assert "'camera.depth_scale' must be finite and > 0" in (
        _assert_one_line_error(capsys))


def test_pick_stats_off_unit_camera_quaternion_fails_at_load(tmp_path, capsys,
                                                            detection_fixture):
    # |q| is within 1e-9 of 1, |q|^2 is not: the camera's rotation matrix
    # cannot be built, so the config must not load
    raw = _shipped_raw()
    raw["camera"]["extrinsics"]["quaternion_xyzw"] = [0.5, -0.5, 0.5, -0.5000000014]
    cfg = tmp_path / "quaternion.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    det, depth = detection_fixture
    out = tmp_path / "stats.json"
    code = cli.main(["--quiet", "--config", str(cfg), "--out", str(out),
                     "pick-stats", "--detections", str(det),
                     "--depth", str(depth)])
    assert code == 1
    assert not out.exists()
    assert not (tmp_path / "stats.trials.csv").exists()
    assert "'camera.extrinsics.quaternion_xyzw' must be a unit quaternion" in (
        _assert_one_line_error(capsys))


def test_plan_negative_seed_fails_before_planning(tmp_path, capsys,
                                                monkeypatch):
    monkeypatch.setattr(cli, "plan_trajectory", _refuse)
    out = tmp_path / "traj.json"
    code = cli.main(["--quiet", "--seed", "-1", "--out", str(out),
                     "plan", "--goal", "0.3,0.1,0.2,0.5,0.1"])
    assert code == 1
    assert not out.exists()
    assert "'seed' must be an integer >= 0" in _assert_one_line_error(
        capsys)


def test_solve_mechanism_sweep_residuals(tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli.main(["--quiet", "--out", str(out), "solve-mechanism",
                     "--step", "5"])
    assert code == 0
    header, rows = _read_csv(out)
    assert "gamma_diag_deg" in header
    assert all(r[-1] == "ok" for r in rows)
    residuals = [float(r[7]) for r in rows]
    assert max(residuals) < 1e-9


def test_solve_mechanism_mixed_assembly(tmp_path):
    # this linkage cannot close below ~41.4 deg, so a sweep over the full
    # declared range yields mixed-status rows and still exits 0
    config = {
        "mechanism": {"r": 20.0, "f": 40.0, "a": 10.0, "b": 5.0, "c": 5.0,
                      "d": 25.0, "e": 20.0, "theta_range_deg": [0.0, 120.0]},
        "arm": _shipped_raw()["arm"],
    }
    cfg_path = tmp_path / "partial.yaml"
    cfg_path.write_text(yaml.safe_dump(config))
    out = tmp_path / "sweep.csv"
    code = cli.main(["--quiet", "--config", str(cfg_path), "--out", str(out),
                     "solve-mechanism", "--step", "1"])
    assert code == 0
    header, rows = _read_csv(out)
    statuses = {r[-1] for r in rows}
    assert statuses == {"ok", "no_assembly"}
    for row in rows:
        if row[-1] == "no_assembly":
            assert row[1] == ""  # no solution fields emitted


def test_solve_mechanism_sweep_ends_at_end(tmp_path):
    # 0.2 + 1198 * 0.1 rounds above 120; the last angle is clamped to --end
    out = tmp_path / "sweep.csv"
    code = cli.main(["--quiet", "--out", str(out), "solve-mechanism",
                     "--start", "0.2", "--end", "120", "--step", "0.1"])
    assert code == 0
    _, rows = _read_csv(out)
    assert rows[-1][0] == "120.0"


def test_solve_mechanism_nan_step(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = cli.main(["--quiet", "--out", str(out), "solve-mechanism",
                     "--step", "nan"])
    assert code == 1
    assert not out.exists()
    assert "theta_step" in _assert_one_line_error(capsys)


@pytest.mark.parametrize("step", ["1e-320", "1e-300"])
def test_solve_mechanism_unbounded_step(tmp_path, capsys, step):
    out = tmp_path / "sweep.csv"
    code = cli.main(["--quiet", "--out", str(out), "solve-mechanism",
                     "--step", step])
    assert code == 1
    assert not out.exists()
    assert "theta_step" in _assert_one_line_error(capsys)


def test_solve_mechanism_empty_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = cli.main(["--quiet", "--out", str(out), "solve-mechanism",
                     "--start", "50", "--end", "40"])
    assert code == 1
    assert not out.exists()
    assert _assert_one_line_error(capsys) == (
        "harvestcell: the sweep [50, 40] deg holds no angle\n")


@pytest.mark.parametrize("flag, value", [
    pytest.param("--p-min", "nan", id="nan-p-min"),
    pytest.param("--p-max", "inf", id="inf-p-max"),
])
def test_torque_curve_non_finite_force(tmp_path, capsys, flag, value):
    out = tmp_path / "curve.csv"
    code = cli.main(["--quiet", "--out", str(out), "torque-curve",
                     "--theta", "45", flag, value])
    assert code == 1
    assert not out.exists()
    bound = flag[2:].replace("-", "_")
    assert f"harvestcell: {bound} must be finite" in _assert_one_line_error(capsys)


def test_invalid_yaml_fails_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("arm: [1")
    out = tmp_path / "curve.csv"
    code = cli.main(["--quiet", "--config", str(cfg), "--out", str(out),
                     "torque-curve", "--theta", "45"])
    assert code == 1
    assert not out.exists()
    err = _assert_one_line_error(capsys)
    assert str(cfg) in err and "line 1" in err


@pytest.mark.parametrize("depth", [500, 5000, 50000])
def test_deeply_nested_config_fails_with_one_line(tmp_path, capsys, depth):
    # libyaml composes by recursing in C: 50,000 levels would overflow the
    # C stack if they reached it
    cfg = tmp_path / "deep.yaml"
    cfg.write_text("a: " + "[" * depth + "]" * depth + "\n")
    out = tmp_path / "sweep.csv"
    code = cli.main(["--quiet", "--config", str(cfg), "--out", str(out),
                     "solve-mechanism"])
    assert code == 1
    assert not out.exists()
    err = _assert_one_line_error(capsys)
    assert (f"config {cfg} nests too deeply" in err if depth > 1000
            else "unknown key 'a'" in err)


@pytest.mark.parametrize("value", [
    pytest.param("[" * 500 + "]" * 500, id="500-levels"),
    pytest.param("[" * 900 + "]" * 900, id="900-levels"),
    pytest.param("x" * 5000, id="long-scalar"),
])
def test_wrong_typed_value_is_echoed_bounded(tmp_path, capsys, value):
    cfg = tmp_path / "wrong.yaml"
    cfg.write_text(f"arm: {value}\n")
    out = tmp_path / "sweep.csv"
    code = cli.main(["--quiet", "--config", str(cfg), "--out", str(out),
                     "solve-mechanism"])
    assert code == 1
    assert not out.exists()
    err = _assert_one_line_error(capsys)
    assert "'arm' must be a mapping" in err and len(err) < 200


def test_long_unknown_key_is_echoed_bounded(tmp_path, capsys):
    # libyaml refuses implicit keys over 1,024 characters; an explicit one
    # can be any length
    cfg = tmp_path / "key.yaml"
    cfg.write_text("mechanism:\n  ? " + "k" * 5000 + "\n  : 1\n")
    out = tmp_path / "sweep.csv"
    code = cli.main(["--quiet", "--config", str(cfg), "--out", str(out),
                     "solve-mechanism"])
    assert code == 1
    assert not out.exists()
    err = _assert_one_line_error(capsys)
    assert "unknown key 'mechanism.kkk" in err and len(err) < 200


@pytest.mark.parametrize("value", [
    pytest.param("1" * 5000, id="5000-digit-int"),
    pytest.param("2020-13-01", id="impossible-date"),
])
def test_unbuildable_yaml_scalar_fails_with_one_line(tmp_path, capsys, value):
    # the YAML constructor's own int() and date() calls raise ValueError
    cfg = tmp_path / "scalar.yaml"
    cfg.write_text(f"pso: {{seed: {value}}}\n")
    out = tmp_path / "sweep.csv"
    code = cli.main(["--quiet", "--config", str(cfg), "--out", str(out),
                     "solve-mechanism"])
    assert code == 1
    assert not out.exists()
    err = _assert_one_line_error(capsys)
    assert f"invalid value in {cfg}" in err and len(err) < 300


def test_recursion_error_becomes_one_line(tmp_path, capsys, monkeypatch):
    # the pure parser composes recursively in Python and runs out of
    # recursion long before 500 levels
    monkeypatch.setattr(config, "_LOADER", yaml.SafeLoader)
    cfg = tmp_path / "deep.yaml"
    cfg.write_text("a: " + "[" * 500 + "]" * 500 + "\n")
    out = tmp_path / "sweep.csv"
    code = cli.main(["--quiet", "--config", str(cfg), "--out", str(out),
                     "solve-mechanism"])
    assert code == 1
    assert not out.exists()
    assert f"config {cfg} nests too deeply" in _assert_one_line_error(capsys)


def test_non_utf8_config_fails_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "latin.yaml"
    cfg.write_bytes(b"pso: {seed: \xff}\n")
    out = tmp_path / "sweep.csv"
    code = cli.main(["--quiet", "--config", str(cfg), "--out", str(out),
                     "solve-mechanism"])
    assert code == 1
    assert not out.exists()
    assert f"cannot read config {cfg}: 'utf-8' codec" in _assert_one_line_error(
        capsys)


def test_plan_roundtrip_and_determinism(tmp_path, fast_config_path):
    out1 = tmp_path / "traj1.json"
    out2 = tmp_path / "traj2.json"
    goal = "0.3,0.1,0.2,0.5,0.1"
    for out in (out1, out2):
        code = cli.main(["--quiet", "--config", fast_config_path,
                         "--out", str(out), "--seed", "5",
                         "plan", "--goal", goal])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["feasible"] is True
    trace = doc["gbest_trace"]
    assert all(a >= b for a, b in zip(trace, trace[1:]))


def _assert_one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("harvestcell: ")
    assert "Traceback" not in err
    return err


def test_plan_goal_inside_obstacle(tmp_path, fast_config_path, capsys):
    out = tmp_path / "traj.json"
    # the shipped scene has a tomato sphere at (0.45, 0, 0.40); command the
    # tool straight into it
    code = cli.main(["--quiet", "--config", fast_config_path,
                     "--out", str(out), "plan",
                     "--goal", "0.0,0.7713,-0.4858,-1.8563,0.0"])
    assert code == 2
    assert not out.exists()
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("goal, expected", [
    pytest.param("0,0,0,3.0,0", 2, id="outside-limits"),
    pytest.param("nan,0,0,0,0", 1, id="nan"),
    pytest.param("0,inf,0,0,0", 1, id="inf"),
])
def test_plan_bad_goal_fails_fast(tmp_path, fast_config_path, capsys,
                                  goal, expected):
    out = tmp_path / "traj.json"
    code = cli.main(["--quiet", "--config", fast_config_path,
                     "--out", str(out), "plan", "--goal", goal])
    assert code == expected
    assert not out.exists()
    _assert_one_line_error(capsys)


def test_pick_stats_success(tmp_path, detection_fixture):
    det, depth = detection_fixture
    out = tmp_path / "stats.json"
    code = cli.main(["--quiet", "--out", str(out), "pick-stats",
                     "--detections", str(det), "--depth", str(depth),
                     "--trials", "50"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["trials"] == 50
    assert 0.0 <= doc["success_rate"] <= 1.0
    trials_csv = tmp_path / "stats.trials.csv"
    header, rows = _read_csv(trials_csv)
    assert len(rows) == 50
    assert header[0] == "trial" and header[1] == "outcome"


def test_pick_stats_bytes_pinned(tmp_path, detection_fixture):
    # SHA-256 of `pick-stats --seed 11 --trials 1000` on the fixture with
    # the shipped config, JSON and trials CSV, taken at commit 71b8fdd,
    # before monte_carlo built its reports column-wise (numpy 2.x, x86-64)
    det, depth = detection_fixture
    out = tmp_path / "stats.json"
    code = cli.main(["--quiet", "--seed", "11", "--out", str(out),
                     "pick-stats", "--detections", str(det),
                     "--depth", str(depth), "--trials", "1000"])
    assert code == 0
    digests = [hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (out, tmp_path / "stats.trials.csv")]
    assert digests == [
        "33596e5c367c178992aaeb233fb38ddfd393452969c6efff4ab12cd284835a4c",
        "c8980ba1272fae90dcba78291c912dd82b5137b65b8ff36945eba71e1326963e"]


def test_pick_stats_zero_noise_full_success(tmp_path, detection_fixture):
    det, depth = detection_fixture
    raw = _shipped_raw()
    raw.setdefault("pick_cycle", {})["pose_noise_sigma"] = 0.0
    cfg_path = tmp_path / "quietcfg.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    out = tmp_path / "stats.json"
    code = cli.main(["--quiet", "--config", str(cfg_path), "--out", str(out),
                     "pick-stats", "--detections", str(det),
                     "--depth", str(depth), "--trials", "20"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["success_rate"] == 1.0


def test_pick_stats_no_ripe_target(tmp_path, detection_fixture):
    _, depth = detection_fixture
    det = tmp_path / "unripe.json"
    det.write_text(json.dumps([{
        "class": "unripe", "score": 0.9, "bbox": [600, 300, 700, 400],
        "keypoints": {"center": [650, 350, 0.9], "pedicel": [650, 320, 0.9]},
    }]))
    out = tmp_path / "stats.json"
    code = cli.main(["--quiet", "--out", str(out), "pick-stats",
                     "--detections", str(det), "--depth", str(depth)])
    assert code == 4
    assert not out.exists()


def test_pick_stats_depth_frame_of_another_size(tmp_path, detection_fixture,
                                                capsys):
    det, _ = detection_fixture
    depth = tmp_path / "small.bin"
    write_depth_frame(depth, np.full((4, 4), 0.35, dtype=np.float32))
    out = tmp_path / "stats.json"
    code = cli.main(["--quiet", "--out", str(out), "pick-stats",
                     "--detections", str(det), "--depth", str(depth)])
    assert code == 1
    assert not out.exists() and not (tmp_path / "stats.trials.csv").exists()
    assert "4x4 frame does not match the 1280x720" in _assert_one_line_error(capsys)


def test_pick_stats_keypoint_outside_the_image(tmp_path, detection_fixture,
                                               capsys):
    _, depth = detection_fixture
    det = tmp_path / "outside.json"
    det.write_text(json.dumps([{
        "class": "ripe", "score": 0.9, "bbox": [600, 300, 700, 400],
        "keypoints": {"center": [1640.0, 360.0, 0.9], "pedicel": [650, 320, 0.9]},
    }]))
    out = tmp_path / "stats.json"
    code = cli.main(["--quiet", "--out", str(out), "pick-stats",
                     "--detections", str(det), "--depth", str(depth)])
    assert code == 1
    assert not out.exists()
    assert _assert_one_line_error(capsys) == (
        "harvestcell: '[0].keypoints.center' must be inside the 1280x720 image, "
        "got (1640.0, 360.0)\n")


def test_pick_stats_parse_error(tmp_path, detection_fixture):
    _, depth = detection_fixture
    det = tmp_path / "bad.json"
    det.write_text("{broken")
    code = cli.main(["--quiet", "pick-stats", "--detections", str(det),
                     "--depth", str(depth)])
    assert code == 1


def test_invalid_config_produces_no_output(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("mechanism:\n  bogus_key: 1\narm:\n  joints: []\n")
    out = tmp_path / "curve.csv"
    code = cli.main(["--quiet", "--config", str(cfg), "--out", str(out),
                     "torque-curve", "--theta", "45"])
    assert code == 1
    assert not out.exists()


@pytest.mark.parametrize("section, key, value, key_path", [
    pytest.param("scene", "spheres", 5, "scene.spheres", id="integer-spheres"),
    pytest.param("arm", "joints", [5], "arm.joints[0]", id="integer-joint"),
    pytest.param("scene", "capsules", [{"p0": [0, 0, 0], "p1": [0, 0, 1]}],
                 "scene.capsules[0].radius", id="no-capsule-radius"),
    pytest.param("scene", "workspace_bounds",
                 {"min": [-0.8, -0.8, 0.0], "max": [0.8, 0.8, 1.0]},
                 "unknown key 'scene.workspace_bounds'", id="workspace-bounds"),
    pytest.param("arm", "tool_offset", {"quaternion_xyzw": [1, 1, 0, 0]},
                 "'arm.tool_offset.quaternion_xyzw'", id="non-unit-quaternion"),
])
def test_malformed_config_fails_with_one_line(tmp_path, capsys, section, key,
                                              value, key_path):
    raw = _shipped_raw()
    raw[section][key] = value
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    out = tmp_path / "curve.csv"
    code = cli.main(["--quiet", "--config", str(cfg), "--out", str(out),
                     "torque-curve", "--theta", "45"])
    assert code == 1
    assert not out.exists()
    assert key_path in _assert_one_line_error(capsys)


def test_policy_choices_are_the_selection_policies(monkeypatch):
    # the parser reads perception's list, so a policy added there is offered
    monkeypatch.setattr(perception, "SELECTION_POLICIES",
                        (*perception.SELECTION_POLICIES, "nearest"))
    args = cli.build_parser().parse_args(
        ["pick-stats", "--detections", "d.json", "--depth", "d.bin",
         "--policy", "nearest"])
    assert args.policy == "nearest"


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["--help"])
    assert exc_info.value.code == 0
    out = capsys.readouterr().out
    for name in ("torque-curve", "solve-mechanism", "plan", "pick-stats"):
        assert name in out
    for flag in ("--config", "--seed", "--out", "--quiet"):
        assert flag in out


# --- fuzzed detection and depth files: the loaders raise only ParseError,
# ValidationError or ConfigError, and pick-stats turns a rejected file into exit 1 with one
# stderr line and no output file

_VALID_RECORD = {
    "class": "ripe", "score": 0.9, "bbox": [100.0, 100.0, 200.0, 200.0],
    "keypoints": {"center": [150.0, 150.0, 0.9], "pedicel": [150.0, 120.0, 0.8]},
    "mask": [[100.0, 100.0], [200.0, 200.0]],
}

_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(-10**400, 10**400),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=8),
    st.lists(st.one_of(st.integers(), st.floats(), st.text(max_size=3)), max_size=4),
    st.dictionaries(st.text(max_size=8), st.integers(), max_size=3))


def _containers(doc):
    """Every list and dict inside `doc`, `doc` first."""
    yield doc
    for value in (doc.values() if isinstance(doc, dict) else doc):
        if isinstance(value, (dict, list)):
            yield from _containers(value)


@st.composite
def _detection_files(draw):
    kind = draw(st.sampled_from(["bytes", "value", "key", "json"]))
    if kind == "bytes":  # not necessarily UTF-8 or JSON
        return draw(st.binary(max_size=64))
    if kind == "json":
        return json.dumps(draw(_VALUE)).encode()
    doc = [json.loads(json.dumps(_VALID_RECORD)) for _ in range(2)]
    parent = draw(st.sampled_from([c for c in _containers(doc) if c]))
    key = (draw(st.sampled_from(sorted(parent))) if isinstance(parent, dict)
           else draw(st.integers(0, len(parent) - 1)))
    if kind == "key" and isinstance(parent, dict):
        key = draw(st.text(max_size=8))
    parent[key] = draw(_VALUE)
    return json.dumps(doc).encode()


@st.composite
def _depth_files(draw):
    blob = bytearray(DEPTH_MAGIC + struct.pack("<III", 3, 2, 0)
                     + np.ones(6, dtype="<f4").tobytes())
    kind = draw(st.sampled_from(["bytes", "patch", "length"]))
    if kind == "bytes":
        return draw(st.binary(max_size=48))
    if kind == "patch":  # overwrite part of the header or the first sample
        at = draw(st.integers(0, 19))
        patch = draw(st.binary(min_size=1, max_size=4))
        blob[at:at + len(patch)] = patch
        return bytes(blob)
    size = draw(st.integers(0, 2 * len(blob)))
    return bytes(blob[:size]) + bytes(max(0, size - len(blob)))


def _assert_pick_stats_rejects(det, depth, out):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["--quiet", "--out", str(out), "pick-stats",
                         "--detections", str(det), "--depth", str(depth)])
    assert code == 1
    text = err.getvalue()
    assert text.count("\n") == 1 and text.startswith("harvestcell: ")
    assert not out.exists() and not out.with_suffix(".trials.csv").exists()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=120, deadline=None, derandomize=True)
@given(blob=_detection_files())
@example(blob=b"\xff\xfe[")
@example(blob=b"[" * 100_000)
@example(blob=b"[" + b"1" * 5000 + b"]")
@example(blob=b'[{"line\\nbreak": 1}]')
def test_fuzzed_detections_rejected_cleanly(fuzz_dir, detection_fixture, blob):
    det = fuzz_dir / "detections.json"
    det.write_bytes(blob)
    try:
        records = load_detections(det, (1280, 720))
    except (ParseError, ValidationError, ConfigError):
        _assert_pick_stats_rejects(det, detection_fixture[1], fuzz_dir / "stats.json")
    else:
        assert isinstance(records, list)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(blob=_depth_files())
def test_fuzzed_depth_frames_rejected_cleanly(fuzz_dir, detection_fixture, blob):
    depth = fuzz_dir / "depth.bin"
    depth.write_bytes(blob)
    try:
        frame = load_depth_frame(depth)
    except ParseError:
        _assert_pick_stats_rejects(detection_fixture[0], depth,
                                   fuzz_dir / "stats.json")
    else:
        assert frame.ndim == 2 and frame.dtype == np.float32


@pytest.mark.parametrize("argv", [
    pytest.param(["out.csv", "torque-curve", "--theta", "45"], id="bad-command"),
    pytest.param(["plan"], id="missing-goal"),
    pytest.param(["torque-curve", "--theta", "4 5"], id="bad-float"),
    pytest.param(["--config", "a\nb", "torque-curve", "--theta", "45"],
                 id="line-break-in-path"),
])
def test_rejected_argv_is_one_line_exit_1(tmp_path, capsys, monkeypatch, argv):
    # argparse prints its usage too and exits 2, the infeasible-endpoints
    # code; a path with a line break made a two-line message
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc_info:
        sys.exit(cli.main(["--quiet"] + argv))
    assert exc_info.value.code == 1
    _assert_one_line_error(capsys)
    assert not list(tmp_path.iterdir())


# --- fuzzed command lines: one argument of a known-good argv per subcommand
# is replaced, dropped or preceded by a hostile token; main ends in exit code
# 0-4 with at most one stderr line, no traceback and, when it fails, no
# output file (exit 3 writes its best-effort plan by design)

_GOOD_ARGV = {
    "torque-curve": ["--quiet", "--out", "out.csv", "torque-curve",
                     "--theta", "45", "--steps", "5", "--p-max", "10"],
    "solve-mechanism": ["--quiet", "--out", "out.csv", "solve-mechanism",
                        "--start", "30", "--end", "40", "--step", "5"],
    "plan": ["--quiet", "--config", "{config}", "--seed", "5", "--out",
             "out.json", "plan", "--goal", "0.3,0.1,0.2,0.5,0.1"],
    "pick-stats": ["--quiet", "--config", "{config}", "--seed", "11", "--out",
                   "out.json", "pick-stats", "--detections", "{det}",
                   "--depth", "{depth}", "--trials", "20",
                   "--policy", "highest-score"],
}

# no large integers: a count such as --trials is not bounded above
_TOKENS = ["", " ", "0", "-1", "2", "3.5", "nan", "inf", "-inf", "1e400",
           "1e-320", "0x10", "abc", "\u00e9", "a\nb", "-", "--", "--bogus",
           "--quiet", "plan", "1,2", "0,0,0,0,0,0", "0,0,0,3,0",
           "missing.json", "."]


@st.composite
def _mutated_argv(draw, command):
    argv = list(_GOOD_ARGV[command])
    at = draw(st.integers(0, len(argv) - 1))
    edit = draw(st.sampled_from(["replace", "drop", "insert"]))
    if edit == "drop":
        del argv[at]
    else:
        argv[at:at + (edit == "replace")] = [draw(st.sampled_from(_TOKENS))]
    return argv


def _assert_main_contained(argv, inputs, root):
    argv = [arg.format(**inputs) if arg.startswith("{") else arg
            for arg in argv]
    work = root / str(len(list(root.iterdir())))
    work.mkdir()
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)     # a mutated --out, or its default, lands in `work`
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:       # argparse: --help, or a rejected argv
        code = exc.code or 0
    finally:
        os.chdir(cwd)
    text = err.getvalue()
    assert 0 <= code <= 4, (argv, code, text)
    assert text.count("\n") <= 1 and "Traceback" not in text, (argv, text)
    if code not in (0, 3):
        assert not list(work.iterdir()), argv
    return code


@pytest.fixture(scope="module")
def argv_inputs(tmp_path_factory, fast_config_path, detection_fixture):
    det, depth = detection_fixture
    return ({"config": fast_config_path, "det": str(det), "depth": str(depth)},
            tmp_path_factory.mktemp("argv"))


@pytest.mark.parametrize("command, examples", [
    ("torque-curve", 25), ("solve-mechanism", 25), ("plan", 12),
    ("pick-stats", 12)])
def test_fuzzed_argv_fails_cleanly(argv_inputs, command, examples):
    inputs, root = argv_inputs

    @settings(max_examples=examples, deadline=None, derandomize=True)
    @given(argv=_mutated_argv(command))
    def check(argv):
        _assert_main_contained(argv, inputs, root)

    assert _assert_main_contained(_GOOD_ARGV[command], inputs, root) == 0
    check()
