"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Statistical criteria use fixed seeds and are fully reproducible.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from harvestcell import cli
from harvestcell.arm import forward_kinematics, inverse_kinematics, solve_ik_point
from harvestcell.errors import NoConvergence, NoFeasibleFound
from harvestcell.harvest import (STAGES, TOTAL_CYCLE_SECONDS, calibrate_noise,
                                 default_stage_means, monte_carlo,
                                 run_pick_cycle)
from harvestcell.mechanism import (closure_residual, force_torque_curve,
                                   solve_finger_position, sweep_positions,
                                   torque_single_finger, xi_derivative)
from harvestcell.perception import (CameraModel, TargetTomato, camera_to_pixel,
                                    pixel_to_camera)
from harvestcell.planner import Scene, plan_trajectory
from tests.test_harvest import _target, offset_gaussian_in_sphere


def _report(criterion, detail):
    print(f"[PASS] criterion {criterion}: {detail}")


def test_criterion_01_mechanism_closure(run_config):
    start = time.monotonic()
    params = run_config.mechanism
    lo, hi = params.theta_range
    worst = 0.0
    count = 0
    for theta, sol in sweep_positions(params, lo, hi, 0.1):
        assert sol is not None, f"assembly lost at theta={theta}"
        res = closure_residual(params, sol)
        worst = max(worst, abs(res[0]), abs(res[1]))
        count += 1
    elapsed = time.monotonic() - start
    assert worst < 1e-9
    assert elapsed < 1.0
    _report(1, f"{count} configurations, worst residual {worst:.2e} mm, "
               f"{elapsed:.2f}s")


def test_criterion_02_virtual_work_consistency(run_config):
    start = time.monotonic()
    params = run_config.mechanism
    lo, hi = params.theta_range
    h_rad = 1e-5
    h_deg = math.degrees(h_rad)
    rng = np.random.default_rng(42)
    worst_torque = 0.0
    worst_deriv = 0.0
    for _ in range(100):
        theta = float(rng.uniform(lo + 0.5, hi - 0.5))
        force = float(rng.uniform(0.5, 20.0))
        got = torque_single_finger(params, theta, force).torque_single
        x_plus = solve_finger_position(params, theta + h_deg).x_m
        x_minus = solve_finger_position(params, theta - h_deg).x_m
        oracle = -force * (x_plus - x_minus) / (2.0 * h_rad)
        worst_torque = max(worst_torque, abs(got - oracle) / abs(oracle))
        analytic = xi_derivative(params, theta, method="analytic")
        fd = xi_derivative(params, theta, method="finite-difference")
        worst_deriv = max(worst_deriv, abs(analytic - fd) / abs(fd))
    elapsed = time.monotonic() - start
    assert worst_torque < 1e-6
    assert worst_deriv < 1e-6
    assert elapsed < 1.0
    _report(2, f"torque rel err {worst_torque:.2e}, dxi/dtheta rel err "
               f"{worst_deriv:.2e}, {elapsed:.2f}s")


def test_criterion_03_six_finger_total(run_config):
    params = run_config.mechanism
    lo, hi = params.theta_range
    checked = 0
    for theta in np.arange(lo, hi + 1e-9, 1.0):
        result = torque_single_finger(params, float(theta), 5.0)
        assert result.torque_total == params.finger_count * result.torque_single
        checked += 1
    _report(3, f"torque_total == {params.finger_count} x torque_single "
               f"bitwise at {checked} angles")


def test_criterion_04_force_torque_linearity(run_config):
    params = run_config.mechanism
    curve = force_torque_curve(params, 45.0, 0.0, 20.0, 21)
    forces = np.array([r.force_p for r in curve])
    torques = np.array([r.torque_single for r in curve])
    slope, intercept = np.polyfit(forces, torques, 1)
    residual = np.abs(torques - (slope * forces + intercept)).max() \
        / np.abs(torques).max()
    assert residual < 1e-12
    doubled = torque_single_finger(params, 45.0, 10.0).torque_single
    base = torque_single_finger(params, 45.0, 5.0).torque_single
    assert doubled == 2.0 * base
    _report(4, f"linear fit relative residual {residual:.2e}; "
               f"P-scaling homogeneity exact")


def test_criterion_05_ik_round_trip(run_config):
    start = time.monotonic()
    chain = run_config.arm
    lo, hi = chain.limit_arrays()
    rng = np.random.default_rng(2024)
    failures = 0
    for _ in range(1000):
        q0 = rng.uniform(lo, hi)
        pose = forward_kinematics(chain, q0)
        seed = np.clip(q0 + rng.normal(0.0, 0.1, chain.n_joints), lo, hi)
        try:
            result = inverse_kinematics(chain, pose, seed)
        except NoConvergence:
            failures += 1
            continue
        # a returned solution must actually reach the pose: silent wrong
        # poses are forbidden
        check = forward_kinematics(chain, result)
        assert np.linalg.norm(check.position - pose.position) < 1e-6
        assert np.all(result >= lo) and np.all(result <= hi)
    elapsed = time.monotonic() - start
    assert failures <= 10, f"{failures}/1000 round trips failed"
    assert elapsed < 30.0
    _report(5, f"{1000 - failures}/1000 solved, 0 silent wrong poses, "
               f"{elapsed:.1f}s")


def test_criterion_06_pso_quality(run_config):
    start = time.monotonic()
    chain = run_config.arm
    scene = run_config.scene
    pso = run_config.pso

    # empty-scene benchmark: seed 42, 1 intermediate waypoint, swarm 30,
    # 200 iterations
    goal = chain.home_q + np.array([0.4, 0.2, -0.3, 0.2, 0.5])
    bench = replace(pso, seed=42, waypoints_per_particle=1, iterations=200,
                    swarm_size=30)
    empty = Scene()
    traj = plan_trajectory(chain, chain.home_q, goal, empty, bench)
    line = float(np.linalg.norm(goal - chain.home_q))
    assert traj.fitness <= 1.01 * line
    trace = np.asarray(traj.gbest_trace)
    assert np.all(np.diff(trace) <= 0.0)

    # shipped cluttered fixture: home to the harvest pre-grasp configuration
    pregrasp = solve_ik_point(chain, np.array([0.45, 0.0, 0.32]),
                              np.array([0.0, 0.0, 1.0]), chain.home_q)
    feasible = 0
    for seed in range(20):
        try:
            run = plan_trajectory(chain, chain.home_q, pregrasp, scene,
                                  replace(pso, seed=seed))
        except NoFeasibleFound as exc:
            run = exc.best_trajectory
        else:
            feasible += 1
        run_trace = np.asarray(run.gbest_trace)
        assert np.all(np.diff(run_trace) <= 0.0)
    elapsed = time.monotonic() - start
    assert feasible >= 18, f"only {feasible}/20 seeds feasible"
    assert elapsed < 60.0
    _report(6, f"empty-scene ratio {traj.fitness / line:.6f}; cluttered "
               f"{feasible}/20 feasible; traces monotone; {elapsed:.1f}s")


def test_criterion_07_projection_exactness():
    cam = CameraModel(fx=700.0, fy=700.0, cx=640.0, cy=360.0,
                      width=1280, height=720)
    us = np.linspace(0.0, 1279.0, 100)
    vs = np.linspace(0.0, 719.0, 100)
    worst = 0.0
    for u in us:
        for v in vs:
            z = 0.2 + 3.0 * (u + v) / 2000.0
            p = pixel_to_camera(cam, u, v, z)
            u2, v2 = camera_to_pixel(cam, p)
            p2 = pixel_to_camera(cam, u2, v2, p[2])
            worst = max(worst, float(np.linalg.norm(p2 - p)))
    assert worst < 1e-9
    principal = pixel_to_camera(cam, cam.cx, cam.cy, 1.25)
    assert principal[0] == 0.0 and principal[1] == 0.0 and principal[2] == 1.25
    _report(7, f"10^4-point grid round trip, worst error {worst:.2e} m; "
               f"principal point exact")


def test_criterion_08_cut_model_statistics(run_config):
    start = time.monotonic()
    cfg = replace(run_config.pick_cycle, pose_noise_sigma=0.005)
    center = np.array([0.45, 0.0, 0.40])
    delta = 0.005
    target = _target(center, center + np.array(
        [0.0, 0.0, cfg.cut_trigger_distance + delta]))
    trials = 100000
    summary = monte_carlo(target, run_config.arm, run_config.scene,
                          run_config.pso, cfg, trials, run_config.mechanism)
    analytic = offset_gaussian_in_sphere(delta, cfg.pose_noise_sigma,
                                         cfg.cut_zone_radius)
    band = 3.0 * math.sqrt(analytic * (1.0 - analytic) / trials)
    gap = abs(summary.success_rate - analytic)
    elapsed = time.monotonic() - start
    assert gap < band, f"|{summary.success_rate} - {analytic}| >= {band}"
    assert elapsed < 60.0
    _report(8, f"empirical {summary.success_rate:.4f} vs analytic "
               f"{analytic:.4f} (3-sigma band {band:.4f}), {elapsed:.1f}s")


def test_criterion_09_paper_success_rate(run_config, harvest_target,
                                         harvest_plans):
    start = time.monotonic()
    sigma = calibrate_noise(harvest_target, run_config.arm, run_config.scene,
                            run_config.pso, run_config.pick_cycle, 0.80,
                            trials_per_eval=1000, plans=harvest_plans)
    fresh = replace(run_config.pick_cycle, pose_noise_sigma=sigma,
                    seed=987654321)
    summary = monte_carlo(harvest_target, run_config.arm, run_config.scene,
                          run_config.pso, fresh, 1000, run_config.mechanism,
                          harvest_plans)
    elapsed = time.monotonic() - start
    assert 0.75 <= summary.success_rate <= 0.85
    assert elapsed < 120.0
    _report(9, f"calibrated sigma {sigma * 1000:.2f} mm -> fresh 1000-trial "
               f"success rate {summary.success_rate:.3f}, {elapsed:.1f}s")


def test_criterion_10_paper_cycle_time(run_config, harvest_target,
                                       harvest_plans):
    means = default_stage_means()
    assert sum(means.values()) == TOTAL_CYCLE_SECONDS

    crisp = replace(run_config.pick_cycle, pose_noise_sigma=0.0,
                    stage_time_stddev_frac=0.0)
    for trial in range(100):
        report = run_pick_cycle(harvest_target, run_config.arm,
                                run_config.scene, run_config.pso, crisp,
                                crisp.seed + trial, run_config.mechanism,
                                harvest_plans)
        assert report.outcome == "success"
        assert report.total_time == TOTAL_CYCLE_SECONDS

    noisy = replace(run_config.pick_cycle, pose_noise_sigma=0.0)
    summary = monte_carlo(harvest_target, run_config.arm, run_config.scene,
                          run_config.pso, noisy, 1000, run_config.mechanism,
                          harvest_plans)
    assert 23.5 <= summary.total_time_mean <= 25.2
    _report(10, f"means sum to {TOTAL_CYCLE_SECONDS}; zero-variance cycles "
                f"exact; noisy mean {summary.total_time_mean:.3f} s")


def test_criterion_11_cli_determinism(tmp_path, detection_fixture):
    det, depth = detection_fixture
    runs = {
        "torque-curve": ["torque-curve", "--theta", "45", "--steps", "21"],
        "solve-mechanism": ["solve-mechanism", "--step", "1"],
        "plan": ["plan", "--goal", "0.3,0.1,0.2,0.5,0.1"],
        "pick-stats": ["pick-stats", "--detections", str(det),
                       "--depth", str(depth), "--trials", "100"],
    }
    for name, argv in runs.items():
        suffix = ".json" if name in ("plan", "pick-stats") else ".csv"
        outputs = []
        for attempt in range(2):
            out = tmp_path / f"{name}-{attempt}{suffix}"
            code = cli.main(["--quiet", "--seed", "11", "--out", str(out)]
                            + argv)
            assert code == 0, f"{name} exited {code}"
            blob = out.read_bytes()
            if name == "pick-stats":
                from harvestcell.cli import _companion_csv_path
                blob += open(_companion_csv_path(str(out)), "rb").read()
            outputs.append(blob)
        assert outputs[0] == outputs[1], f"{name} output not byte-identical"
    _report(11, "all four subcommands byte-identical across reruns")
