import csv
import json

import numpy as np
import pytest
import yaml

from harvestcell import cli
from harvestcell.config import default_config_path


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
    pytest.param("scene", "workspace_bounds", {"min": [-0.8, -0.8, 0.0]},
                 "scene.workspace_bounds.max", id="no-bounds-max"),
    pytest.param("arm", "tool_offset", {"quaternion_xyzw": [1, 1, 0, 0]},
                 "'arm.tool_offset'", id="non-unit-quaternion"),
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


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["--help"])
    assert exc_info.value.code == 0
    out = capsys.readouterr().out
    for name in ("torque-curve", "solve-mechanism", "plan", "pick-stats"):
        assert name in out
    for flag in ("--config", "--seed", "--out", "--quiet"):
        assert flag in out
