import sys
from dataclasses import replace

import numpy as np
import pytest

from harvestcell.arm import link_points, solve_ik_point
from harvestcell.errors import (ConfigError, DimensionMismatch,
                                InfeasibleEndpoints, NoFeasibleFound)
from harvestcell.geometry import segment_point_distance
from harvestcell.planner import (Aabb, Capsule, PsoConfig, Scene, Sphere,
                                 _clearance, _scene_arrays, collision_check,
                                 fitness, plan_trajectory, recheck_feasible)

BOUNDS = Aabb(np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.0, 1.0]))
EMPTY = Scene(workspace_bounds=BOUNDS)

# small swarm for unit tests; the shipped defaults run in test_acceptance
FAST_PSO = PsoConfig(swarm_size=12, iterations=40, seed=1)


@pytest.fixture
def chain(run_config):
    return run_config.arm


def test_scene_validation():
    with pytest.raises(ConfigError):
        Sphere(center=np.zeros(3), radius=0.0)
    with pytest.raises(ConfigError):
        Aabb(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ConfigError):
        PsoConfig(swarm_size=1)
    with pytest.raises(ConfigError):
        PsoConfig(inertia=1.5)


def test_collision_check_empty_scene(chain):
    result = collision_check(chain, chain.home_q, EMPTY)
    assert not result.colliding
    assert result.min_clearance == np.finfo(float).max


def test_collision_check_sphere_on_tool_point(chain):
    tool = link_points(chain, chain.home_q)[-1]
    scene = Scene(spheres=(Sphere(center=tool, radius=0.05),),
                  workspace_bounds=BOUNDS)
    result = collision_check(chain, chain.home_q, scene, clearance=0.0)
    assert result.colliding
    assert result.min_clearance == pytest.approx(-0.05, abs=1e-12)


def test_collision_min_clearance_matches_sampling_oracle(chain):
    # brute force: 1e4 point samples along every arm segment
    rng = np.random.default_rng(8)
    lo, hi = chain.limit_arrays()
    for trial in range(5):
        q = rng.uniform(lo, hi)
        spheres = tuple(Sphere(center=rng.uniform(-0.5, 0.5, 3),
                               radius=float(rng.uniform(0.02, 0.2)))
                        for _ in range(3))
        capsules = tuple(Capsule(p0=rng.uniform(-0.5, 0.5, 3),
                                 p1=rng.uniform(-0.5, 0.5, 3),
                                 radius=float(rng.uniform(0.02, 0.1)))
                         for _ in range(2))
        scene = Scene(spheres=spheres, capsules=capsules, workspace_bounds=BOUNDS)
        got = collision_check(chain, q, scene).min_clearance

        pts = link_points(chain, q)
        ts = np.linspace(0.0, 1.0, 10000)
        best = np.inf
        for a, b in zip(pts[:-1], pts[1:]):
            samples = a[None] + ts[:, None] * (b - a)[None]
            for s in spheres:
                d = np.linalg.norm(samples - s.center, axis=1).min() - s.radius
                best = min(best, float(d))
            for c in capsules:
                d = segment_point_distance(c.p0, c.p1, samples).min() - c.radius
                best = min(best, float(d))
        assert got == pytest.approx(best, abs=1e-3)
        assert got <= best + 1e-12


@pytest.mark.parametrize("threshold", [0.0, 0.015])
def test_broad_phase_flags_exactly_the_close_configurations(chain, threshold):
    # obstacles clustered in front of the arm, so the bounding-ball broad
    # phase prunes part of the segments; configurations cover the limits
    rng = np.random.default_rng(11)
    lo, hi = chain.limit_arrays()
    box = (np.array([0.1, -0.3, 0.1]), np.array([0.5, 0.3, 0.5]))
    pruned = 0
    for trial in range(5):
        spheres = tuple(Sphere(center=rng.uniform(*box),
                               radius=float(rng.uniform(0.04, 0.1)))
                        for _ in range(4))
        capsules = tuple(Capsule(p0=rng.uniform(*box), p1=rng.uniform(*box),
                                 radius=float(rng.uniform(0.01, 0.04)))
                         for _ in range(2))
        scene = Scene(spheres=spheres, capsules=capsules, workspace_bounds=BOUNDS)
        qs = rng.uniform(lo, hi, size=(200, chain.n_joints))
        got = _clearance(chain, qs, _scene_arrays(scene), threshold)
        exact = np.array([collision_check(chain, q, scene).min_clearance for q in qs])
        close = exact < threshold
        assert 0 < close.sum() < len(qs)
        assert np.array_equal(got < threshold, close)
        assert np.array_equal(got[close], exact[close])
        assert np.all(got[~close] <= exact[~close])
        pruned += int(np.sum(got[~close] < exact[~close]))
    assert pruned > 0, "broad phase never pruned; the test would be vacuous"


def _straight_trajectory(start, goal, n_inner=1):
    return np.linspace(start, goal, n_inner + 2)


def test_fitness_straight_line_empty_scene(chain):
    start = chain.home_q
    goal = start + 0.5
    waypoints = _straight_trajectory(start, goal, 1)
    result = fitness(waypoints, chain, EMPTY, FAST_PSO)
    assert result.score == pytest.approx(float(np.linalg.norm(goal - start)),
                                         abs=1e-12)
    assert result.collision_penalty == 0.0
    assert result.limit_penalty == 0.0


def test_fitness_detour_scores_worse(chain):
    start = chain.home_q
    goal = start + 0.5
    online = fitness(_straight_trajectory(start, goal), chain, EMPTY, FAST_PSO)
    bent = _straight_trajectory(start, goal)
    bent[1] = bent[1] + np.array([0.2, 0.0, 0.0, 0.0, -0.1])
    offline = fitness(bent, chain, EMPTY, FAST_PSO)
    assert offline.score > online.score


def test_fitness_counts_colliding_samples(chain, run_config):
    scene = run_config.scene
    start = chain.home_q
    goal = solve_ik_point(chain, np.array([0.45, 0.0, 0.40]),
                          np.array([0.0, 0.0, 1.0]), chain.home_q)
    waypoints = _straight_trajectory(start, goal, 3)
    result = fitness(waypoints, chain, scene, FAST_PSO)
    assert result.collision_penalty > 0.0

    # independent re-count: per-sample collision checks at the same clearance
    count = 0
    for a, b in zip(waypoints[:-1], waypoints[1:]):
        for j in range(20):
            t = (j + 1) / 20.0
            q = a + t * (b - a)
            if collision_check(chain, q, scene, FAST_PSO.clearance).colliding:
                count += 1
    assert result.colliding_samples == count
    assert result.collision_penalty == FAST_PSO.collision_penalty * count


def test_nan_configuration_collides(chain, run_config):
    scene = run_config.scene
    q = np.array([np.nan, 0.0, 0.0, 0.0, 0.0])
    result = collision_check(chain, q, scene, FAST_PSO.clearance)
    assert result.colliding
    assert np.isnan(result.min_clearance)
    # every sample of both segments next to a NaN waypoint is NaN
    waypoints = np.array([chain.home_q, q, chain.home_q])
    result = fitness(waypoints, chain, scene, FAST_PSO)
    assert result.colliding_samples == 2 * 20


def test_fitness_dimension_checks(chain):
    with pytest.raises(DimensionMismatch):
        fitness(np.zeros((3, 2)), chain, EMPTY, FAST_PSO)
    with pytest.raises(DimensionMismatch):
        fitness(np.zeros((1, chain.n_joints)), chain, EMPTY, FAST_PSO)


def test_plan_empty_scene_reaches_straight_line(chain):
    start = chain.home_q
    goal = start + np.array([0.4, 0.2, -0.3, 0.2, 0.5])
    config = replace(FAST_PSO, waypoints_per_particle=1, iterations=60,
                     swarm_size=20, seed=42)
    traj = plan_trajectory(chain, start, goal, EMPTY, config)
    line = float(np.linalg.norm(goal - start))
    assert traj.feasible
    assert traj.fitness <= line * 1.01
    assert traj.fitness >= line - 1e-12


def test_plan_start_equals_goal(chain):
    traj = plan_trajectory(chain, chain.home_q, chain.home_q, EMPTY, FAST_PSO)
    assert traj.fitness == 0.0
    assert traj.feasible


def test_plan_goal_inside_obstacle(chain):
    tool = link_points(chain, chain.home_q + 0.3)[-1]
    scene = Scene(spheres=(Sphere(center=tool, radius=0.05),),
                  workspace_bounds=BOUNDS)
    with pytest.raises(InfeasibleEndpoints):
        plan_trajectory(chain, chain.home_q, chain.home_q + 0.3, scene, FAST_PSO)


@pytest.mark.parametrize("which", ["start", "goal"])
@pytest.mark.parametrize("bad", [
    pytest.param(np.array([0.0, 0.0, 0.0, 3.0, 0.0]), id="outside-limits"),
    pytest.param(np.array([np.nan, 0.0, 0.0, 0.0, 0.0]), id="nan"),
    pytest.param(np.array([0.0, np.inf, 0.0, 0.0, 0.0]), id="inf"),
])
def test_plan_rejects_endpoint_outside_limits(chain, which, bad):
    ends = {"start": chain.home_q, "goal": chain.home_q + 0.3, which: bad}
    with pytest.raises(InfeasibleEndpoints, match=which):
        plan_trajectory(chain, ends["start"], ends["goal"], EMPTY, FAST_PSO)


def test_plan_deterministic(chain, run_config):
    goal = chain.home_q + np.array([0.4, 0.2, -0.3, 0.2, 0.5])
    config = replace(FAST_PSO, seed=77)
    first = plan_trajectory(chain, chain.home_q, goal, run_config.scene, config)
    second = plan_trajectory(chain, chain.home_q, goal, run_config.scene, config)
    assert np.array_equal(first.waypoints, second.waypoints)
    assert first.gbest_trace == second.gbest_trace
    assert first.fitness == second.fitness


def test_plan_trace_monotone_and_lower_bound(chain, run_config):
    goal = chain.home_q + np.array([0.4, 0.2, -0.3, 0.2, 0.5])
    traj = plan_trajectory(chain, chain.home_q, goal, run_config.scene,
                           replace(FAST_PSO, seed=3))
    trace = np.asarray(traj.gbest_trace)
    assert np.all(np.diff(trace) <= 0.0)
    assert traj.fitness >= float(np.linalg.norm(goal - chain.home_q)) - 1e-12


def test_plan_endpoints_fixed(chain, run_config):
    goal = chain.home_q + np.array([0.4, 0.2, -0.3, 0.2, 0.5])
    traj = plan_trajectory(chain, chain.home_q, goal, run_config.scene,
                           replace(FAST_PSO, seed=5))
    assert np.array_equal(traj.waypoints[0], chain.home_q)
    assert np.array_equal(traj.waypoints[-1], goal)
    lo, hi = chain.limit_arrays()
    assert np.all(traj.waypoints >= lo) and np.all(traj.waypoints <= hi)


def test_no_feasible_found_carries_best(chain):
    # a blocking sphere at the mid-path tool position, sized to just spare
    # both endpoints, with far too little optimization budget to route around
    goal = chain.home_q + np.array([0.0, 0.9, -0.9, 0.2, 0.0])
    mid_tool = link_points(chain, (chain.home_q + goal) / 2.0)[-1]
    margin = min(
        segment_point_distance(a, b, mid_tool)
        for pts in (link_points(chain, chain.home_q), link_points(chain, goal))
        for a, b in zip(pts[:-1], pts[1:])
    )
    scene = Scene(spheres=(Sphere(center=mid_tool, radius=float(margin) - 0.03),),
                  workspace_bounds=BOUNDS)
    config = replace(FAST_PSO, iterations=3, swarm_size=4, seed=0)
    start_ok = not collision_check(chain, chain.home_q, scene,
                                   config.clearance).colliding
    goal_ok = not collision_check(chain, goal, scene, config.clearance).colliding
    assert start_ok and goal_ok, "fixture endpoints must stay legal"
    with pytest.raises(NoFeasibleFound) as exc_info:
        plan_trajectory(chain, chain.home_q, goal, scene, config)
    best = exc_info.value.best_trajectory
    assert best.breakdown.collision_penalty > 0.0
    assert not best.feasible


def test_recheck_at_higher_resolution(chain, run_config):
    # property: feasible plans stay collision-free at 4x sampling in >= 90%
    # of seeded runs (full-scale evidence lives in the acceptance suite)
    scene = run_config.scene
    pso = run_config.pso
    goal = solve_ik_point(chain, np.array([0.45, 0.0, 0.32]),
                          np.array([0.0, 0.0, 1.0]), chain.home_q)
    checked = 0
    passed = 0
    for seed in range(4):
        try:
            traj = plan_trajectory(chain, chain.home_q, goal, scene,
                                   replace(pso, seed=seed))
        except NoFeasibleFound:
            continue
        checked += 1
        passed += recheck_feasible(traj, chain, scene, pso)
    assert checked > 0
    assert passed == checked
