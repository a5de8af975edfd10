"""Self-tests of the benchmark (kept out of the repository's default pytest
collection by their file name; they take about two minutes):

    python3 -m pytest -q harvestbench/selftest.py
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harvestcell as hc  # noqa: E402
import oracles  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


@pytest.fixture(scope="module")
def config():
    return hc.load_default_config()


def _run(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".harvestbench"
                         / f"record-{workload}-s{SEED}-t{trace}.json").read_text())
    return result, record


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload):
    plain, plain_record = _run(workload, 0)
    traced, traced_record = _run(workload, 1)
    for result, section in ((plain, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert plain_record["output_sha256"] == traced_record["output_sha256"]


def test_closed_form_matches_the_integral_criterion_08_uses():
    from scipy.integrate import quad
    radius = 0.010
    for delta, sigma in ((0.005, 0.005), (0.001, 0.0046), (0.02, 0.004), (0.0, 0.005)):
        def density(r):
            if delta == 0.0:
                return (math.sqrt(2.0 / math.pi) * r * r / sigma ** 3
                        * math.exp(-r * r / (2.0 * sigma ** 2)))
            return (r / (delta * sigma * math.sqrt(2.0 * math.pi))
                    * (math.exp(-((r - delta) ** 2) / (2.0 * sigma ** 2))
                       - math.exp(-((r + delta) ** 2) / (2.0 * sigma ** 2))))
        numeric, _ = quad(density, 0.0, radius, limit=200)
        closed = oracles.offset_gaussian_in_sphere(delta, sigma, radius)
        assert abs(numeric - closed) < 1e-9, (delta, sigma)


@pytest.mark.parametrize("sign", [1, -1])
def test_mc_oracle_rejects_a_rate_shifted_by_10_binomial_sigma(sign):
    trials = 1000
    p = oracles.offset_gaussian_in_sphere(0.005, 0.005, 0.010)
    sd = math.sqrt(p * (1.0 - p) / trials)
    assert oracles.check_mc_rate(round(p * trials), trials, p) is None
    shifted = round((p + sign * 10.0 * sd) * trials)
    assert oracles.check_mc_rate(shifted, trials, p) is not None


def test_ik_oracle_rejects_an_answer_moved_1_mm(config):
    chain = config.arm
    axis = np.array([0.0, 0.0, 1.0])
    target = np.array([0.45, 0.0, 0.32])
    q = hc.arm.solve_ik_point(chain, target, axis, chain.home_q)
    assert oracles.check_ik(hc, chain, q, target, axis) is None
    assert oracles.check_ik(hc, chain, q, target + np.array([0.001, 0.0, 0.0]),
                            axis) is not None


def test_plan_oracle_rejects_a_waypoint_inside_an_obstacle(config):
    chain, scene, pso = config.arm, config.scene, config.pso
    start = chain.home_q
    goal = start + np.array([0.05, 0.0, 0.0, 0.0, 0.05])
    # the grasp configuration puts the tool point at the target tomato's center
    inside = hc.arm.solve_ik_point(chain, np.array([0.45, 0.0, 0.40]),
                                   np.array([0.0, 0.0, 1.0]), start)
    assert hc.collision_check(chain, inside, scene).colliding

    def trajectory(middle):
        waypoints = np.vstack([start, middle, goal])
        return hc.Trajectory(waypoints=waypoints, feasible=True,
                             fitness=hc.fitness(waypoints, chain, scene, pso).score)

    clean = trajectory(0.5 * (start + goal))
    assert oracles.check_plan(hc, chain, scene, pso, clean, start, goal) is None
    assert oracles.check_plan(hc, chain, scene, pso, trajectory(inside),
                              start, goal) is not None
    misreported = hc.Trajectory(waypoints=clean.waypoints, feasible=True,
                                fitness=clean.fitness + 1.0)
    assert oracles.check_plan(hc, chain, scene, pso, misreported,
                              start, goal) is not None
