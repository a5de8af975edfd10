import hashlib
import sys
from dataclasses import replace

import numpy as np
import pytest

from harvestcell import planner
from harvestcell.arm import Joint, link_points, solve_ik_point
from harvestcell.errors import (ConfigError, DimensionMismatch,
                                InfeasibleEndpoints, NoFeasibleFound)
from harvestcell.geometry import segment_point_distance, segment_segment_distance
from harvestcell.planner import (Capsule, PsoConfig, Scene, Sphere,
                                 _clearance, _scene_arrays, _score,
                                 collision_check, fitness, plan_trajectories,
                                 plan_trajectory)

EMPTY = Scene()

# small swarm for unit tests; the shipped defaults run in test_acceptance
FAST_PSO = PsoConfig(swarm_size=12, iterations=40, seed=1)
# the pinned plans' goal: the IK answer for tool point (0.45, 0, 0.32)
# pointing up, written out so that their digests pin the planner alone, not
# IK rounding
PINNED_GOAL = np.array([float.fromhex(x) for x in (
    "0x0.0p+0", "0x1.d78e2a5d92c20p-1", "-0x1.ba55f3bd2e759p-2",
    "-0x1.07a8a6c0e3dc7p+1", "0x0.0p+0")])
# the shipped target tomato, whose sphere leaves the scene once grasped
TARGET_CENTER = np.array([0.45, 0.0, 0.40])


@pytest.fixture
def chain(run_config):
    return run_config.arm


def test_scene_validation():
    with pytest.raises(ConfigError):
        Sphere(center=np.zeros(3), radius=0.0)
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
    scene = Scene(spheres=(Sphere(center=tool, radius=0.05),))
    result = collision_check(chain, chain.home_q, scene, clearance=0.0)
    assert result.colliding
    assert result.min_clearance == pytest.approx(-0.05, abs=1e-12)


def _random_scene(rng):
    spheres = tuple(Sphere(center=rng.uniform(-0.5, 0.5, 3),
                           radius=float(rng.uniform(0.02, 0.2)))
                    for _ in range(3))
    capsules = tuple(Capsule(p0=rng.uniform(-0.5, 0.5, 3),
                             p1=rng.uniform(-0.5, 0.5, 3),
                             radius=float(rng.uniform(0.02, 0.1)))
                     for _ in range(2))
    return Scene(spheres=spheres, capsules=capsules)


def test_collision_min_clearance_matches_sampling_oracle(chain):
    # brute force: 1e4 point samples along every arm segment
    rng = np.random.default_rng(8)
    lo, hi = chain.limit_arrays()
    for trial in range(5):
        q = rng.uniform(lo, hi)
        scene = _random_scene(rng)
        got = collision_check(chain, q, scene).min_clearance

        pts = link_points(chain, q)
        ts = np.linspace(0.0, 1.0, 10000)
        best = np.inf
        for a, b in zip(pts[:-1], pts[1:]):
            samples = a[None] + ts[:, None] * (b - a)[None]
            for s in scene.spheres:
                d = np.linalg.norm(samples - s.center, axis=1).min() - s.radius
                best = min(best, float(d))
            for c in scene.capsules:
                d = segment_point_distance(c.p0, c.p1, samples).min() - c.radius
                best = min(best, float(d))
        assert got == pytest.approx(best, abs=1e-3)
        assert got <= best + 1e-12


def _pairs_spy(monkeypatch):
    """Count the (segment, obstacle) pairs the planner sends to the exact
    distance kernels."""
    pairs = []
    for name in ("segment_point_distance", "segment_segment_distance"):
        kernel = getattr(planner, name)

        def spy(seg_a, *args, kernel=kernel):
            pairs.append(len(seg_a))
            return kernel(seg_a, *args)

        monkeypatch.setattr(planner, name, spy)
    return pairs


@pytest.mark.parametrize("threshold", [0.0, 0.015])
def test_broad_phase_flags_exactly_the_close_configurations(chain, threshold,
                                                            monkeypatch):
    # obstacles clustered in front of the arm, so the per-pair link-ball
    # bound culls part of the pairs; configurations cover the limits. The
    # last scene holds a long capsule, whose own bounding ball would reach
    # most links.
    rng = np.random.default_rng(11)
    lo, hi = chain.limit_arrays()
    box = (np.array([0.1, -0.3, 0.1]), np.array([0.5, 0.3, 0.5]))
    branch = Capsule(p0=np.array([0.33, -0.28, 0.30]),
                     p1=np.array([0.36, 0.28, 0.34]), radius=0.015)
    pruned = 0
    for trial in range(6):
        spheres = tuple(Sphere(center=rng.uniform(*box),
                               radius=float(rng.uniform(0.04, 0.1)))
                        for _ in range(4))
        capsules = tuple(Capsule(p0=rng.uniform(*box), p1=rng.uniform(*box),
                                 radius=float(rng.uniform(0.01, 0.04)))
                         for _ in range(2))
        if trial == 5:
            capsules = (branch,)
        scene = Scene(spheres=spheres, capsules=capsules)
        arrays = _scene_arrays(chain, scene)
        qs = rng.uniform(lo, hi, size=(200, chain.n_joints))
        got = _clearance(chain, qs, arrays, threshold)
        exact = np.array([collision_check(chain, q, scene).min_clearance for q in qs])
        close = exact < threshold
        assert 0 < close.sum() < len(qs)
        assert np.array_equal(got < threshold, close)
        assert np.array_equal(got[close], exact[close])
        assert np.all(got[~close] <= exact[~close])
        pruned += int(np.sum(got[~close] < exact[~close]))
        # a close configuration still gets exact distances, yet only on the
        # pairs its bound could not rule out
        all_pairs = arrays.reach.size
        counts = []
        for q in qs[close][:10]:
            pairs = _pairs_spy(monkeypatch)
            one = _clearance(chain, q[None], arrays, threshold)[0]
            monkeypatch.undo()
            assert one == collision_check(chain, q, scene).min_clearance
            counts.append(sum(pairs))
        assert 0 < min(counts) < all_pairs
    assert pruned > 0, "broad phase never pruned; the test would be vacuous"


def _reference_clearance(chain, q, scene):
    """Per-link minimum clearance from the scalar FK and the distance
    primitives, with no cull and no static links."""
    pts = link_points(chain, q)
    seg_a, seg_b = pts[:-1], pts[1:]
    per_link = [segment_point_distance(seg_a, seg_b, s.center) - s.radius
                for s in scene.spheres]
    per_link += [segment_segment_distance(seg_a, seg_b, c.p0, c.p1) - c.radius
                 for c in scene.capsules]
    return np.min(per_link, axis=0)


def _chain_variant(chain, name):
    joints = chain.joints
    if name == "two-z-joints":
        # a second joint about z, lifted along z: links 0 and 1 stay still
        lift = Joint(axis=np.array([0.0, 0.0, 1.0]),
                     offset=np.array([0.0, 0.0, 0.05]), limits=(-1.0, 1.0))
        joints = joints[:1] + (lift,) + joints[1:]
    elif name == "off-axis-offset":
        # joint 1 sits off joint 0's axis, so joint 0 swings it
        joints = joints[:1] + (replace(joints[1], offset=np.array(
            [0.03, 0.0, 0.04])),) + joints[2:]
    return replace(chain, joints=joints, home_q=None)


@pytest.mark.parametrize("variant, static", [
    ("shipped", 1), ("two-z-joints", 2), ("off-axis-offset", 0)])
def test_static_links_checked_once(chain, variant, static):
    chain = _chain_variant(chain, variant)
    # obstacles beside the base column, where static links run, and one
    # branch away from it
    scene = Scene(spheres=(Sphere(center=np.array([0.06, 0.0, 0.14]), radius=0.02),
                           Sphere(center=np.array([-0.05, 0.02, 0.19]),
                                  radius=0.02)),
                  capsules=(Capsule(p0=np.array([0.3, -0.3, 0.3]),
                                    p1=np.array([0.35, 0.3, 0.35]), radius=0.015),))
    arrays = _scene_arrays(chain, scene)
    assert chain.compiled.first_moving == static
    lo, hi = chain.limit_arrays()
    qs = np.random.default_rng(4).uniform(lo, hi, size=(300, chain.n_joints))
    qs[:3, 0] = [np.nan, np.inf, -np.inf]
    qs[3, -1] = np.nan
    got = _clearance(chain, qs, arrays, np.inf)
    cut = _clearance(chain, qs, arrays, 0.03)
    assert np.all(np.isnan(got[:4]))
    single = [collision_check(chain, q, scene).min_clearance for q in qs[4:]]
    assert np.array_equal(got[4:], single)
    per_link = np.array([_reference_clearance(chain, q, scene) for q in qs[4:]])
    np.testing.assert_allclose(got[4:], per_link.min(axis=1), rtol=0, atol=1e-12)
    if static:
        # the static links are the nearest ones in some configurations, so
        # dropping them would change the answer
        nearest = per_link[:, :static].min(axis=1)
        assert np.any(nearest < per_link[:, static:].min(axis=1))
    assert np.all(np.isnan(cut[:4]))
    close = got[4:] < 0.03
    assert 0 < close.sum() < len(close)
    assert np.array_equal(cut[4:][close], got[4:][close])
    assert np.all((0.03 <= cut[4:][~close]) & (cut[4:][~close] <= got[4:][~close]))


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


@pytest.mark.parametrize("shipped", [True, False], ids=["shipped", "empty"])
def test_nan_configuration_collides(chain, run_config, shipped):
    scene = run_config.scene if shipped else EMPTY
    for bad in (np.nan, np.inf):  # neither warns on the way to NaN
        q = np.array([bad, 0.0, 0.0, 0.0, 0.0])
        result = collision_check(chain, q, scene, FAST_PSO.clearance)
        assert result.colliding
        assert np.isnan(result.min_clearance)
    # every sample of both segments next to a NaN or inf waypoint is NaN
    for bad in (np.nan, np.inf):
        q = np.array([bad, 0.0, 0.0, 0.0, 0.0])
        waypoints = np.array([chain.home_q, q, chain.home_q])
        result = fitness(waypoints, chain, scene, FAST_PSO)
        assert result.colliding_samples == 2 * 20


def test_clearance_of_empty_batch(chain, run_config):
    arrays = _scene_arrays(chain, run_config.scene)
    for cutoff in (0.015, np.inf):
        got = _clearance(chain, np.empty((0, chain.n_joints)), arrays, cutoff)
        assert got.shape == (0,)


def test_lever_bound_is_sound(chain, run_config):
    # the swarm scorer's certificate: moving from q_ref to q lowers the
    # clearance by at most sum_i |q_i - q_ref_i| * levers[i]
    links = np.linalg.norm(chain.compiled.offsets[1:], axis=1)
    np.testing.assert_allclose(chain.compiled.levers,
                               [links[i:].sum() for i in range(len(links))])
    rng = np.random.default_rng(12)
    lo, hi = chain.limit_arrays()
    scenes = [run_config.scene] + [_random_scene(rng) for _ in range(4)]
    slack = []
    for scene in scenes:
        for _ in range(60):
            q_ref = rng.uniform(lo, hi)
            step = rng.normal(size=chain.n_joints) * 10.0 ** rng.uniform(-3, 0)
            if rng.random() < 0.5:  # one joint alone, where the bound is tightest
                step *= np.eye(chain.n_joints)[rng.integers(chain.n_joints)]
            q = q_ref + step
            bound = (collision_check(chain, q_ref, scene).min_clearance
                     - np.abs(step) @ chain.compiled.levers)
            got = collision_check(chain, q, scene).min_clearance
            assert got >= bound - 1e-12
            slack.append(got - bound)
    # some pairs come close to the bound, so a lever too short would fail
    assert np.quantile(slack, 0.05) < 0.2 * np.median(slack)


def test_certified_scores_equal_full_evaluation(chain, run_config, monkeypatch):
    # a swarm's batches: particles drift by small steps, with an occasional
    # jump, so some samples certify from their slot's last check and others
    # collide; the certified scorer must give the same scores and counts
    scene = run_config.scene
    arrays = _scene_arrays(chain, scene)
    goal = chain.home_q + np.array([0.0, 0.9, -0.9, 0.2, 0.0])
    rng = np.random.default_rng(5)
    batch, w, n = 8, 3, chain.n_joints
    inner = np.linspace(chain.home_q, goal, w + 2)[1:-1]
    inner = inner[None] + rng.normal(scale=0.3, size=(batch, w, n))
    inner[-1, 1, 0] = np.nan       # NaN and inf never certify
    inner[-2, 1, 2] = np.inf
    slots = batch * (w + 1) * 20
    refs = (np.zeros((slots, n)), np.full(slots, -np.inf))
    checked = []
    real = planner.link_points_batch

    def spy(chain, qs):
        checked.append(len(qs))
        return real(chain, qs)

    monkeypatch.setattr(planner, "link_points_batch", spy)
    margin = FAST_PSO.clearance + FAST_PSO.penalty_margin
    collided = 0
    for it in range(12):
        paths = np.concatenate([np.broadcast_to(chain.home_q, (batch, 1, n)),
                                inner, np.broadcast_to(goal, (batch, 1, n))],
                               axis=1)
        certified = _score(paths, chain, arrays, FAST_PSO, margin, refs=refs)
        full = _score(paths, chain, arrays, FAST_PSO, margin)
        for got, want in zip(certified, full):
            assert np.array_equal(got, want, equal_nan=True)
        collided += int(full[-1][:-2].sum())
        if it == 5:
            repeated = int(full[-1].sum())
            continue  # the same batch again: every free sample certifies
        inner = inner + rng.normal(scale=0.01, size=inner.shape)
        inner[it % batch] += rng.normal(scale=0.3, size=(w, n))
    assert collided > 0
    certified_calls = checked[0::2]
    assert certified_calls[0] == slots
    assert all(0 < c < slots for c in certified_calls[1:])
    assert certified_calls[6] == repeated  # only the colliding ones


def test_ceiling_skips_only_bounded_polylines(chain, run_config, monkeypatch):
    # a polyline whose path length + limit term reaches its ceiling is not
    # checked and reports that bound; every other one scores as in full
    arrays = _scene_arrays(chain, run_config.scene)
    goal = chain.home_q + np.array([0.0, 0.9, -0.9, 0.2, 0.0])
    rng = np.random.default_rng(8)
    batch, w, n = 9, 3, chain.n_joints
    inner = np.linspace(chain.home_q, goal, w + 2)[1:-1]
    inner = inner[None] + rng.normal(scale=0.4, size=(batch, w, n))
    inner[:3, 0, 1] = 2.5                       # past the joint-1 limit
    paths = np.concatenate([np.broadcast_to(chain.home_q, (batch, 1, n)),
                            inner, np.broadcast_to(goal, (batch, 1, n))], axis=1)
    margin = FAST_PSO.clearance + FAST_PSO.penalty_margin
    full = _score(paths, chain, arrays, FAST_PSO, margin)
    bound = full[1] + full[3]
    assert np.all(full[0] >= bound)
    assert full[-1].sum() > 0 and np.all(full[3][:3] > 0.0)
    # skipped: ceiling at or below the bound; live: just above it, or inf
    skipped = np.arange(batch) % 3 == 0
    ceiling = np.where(skipped, bound, np.nextafter(bound, np.inf))
    ceiling[3] *= 0.5
    ceiling[1::3] = np.inf
    slots = batch * (w + 1) * 20
    refs = (np.zeros((slots, n)), np.full(slots, -np.inf))
    checked = []
    real = planner.link_points_batch

    def spy(chain, qs):
        checked.append(len(qs))
        return real(chain, qs)

    monkeypatch.setattr(planner, "link_points_batch", spy)
    got = _score(paths, chain, arrays, FAST_PSO, margin, refs=refs,
                 ceiling=ceiling)
    for part, want in zip(got, full):
        assert np.array_equal(part[~skipped], want[~skipped])
    assert np.array_equal(got[0][skipped], bound[skipped])
    assert np.all(got[0][skipped] >= ceiling[skipped])
    assert not got[-1][skipped].any()
    assert checked == [(batch - skipped.sum()) * (w + 1) * 20]
    # a skipped polyline's slots keep their references
    per_slot = np.repeat(skipped, (w + 1) * 20)
    assert np.all(refs[1][per_slot] == -np.inf)
    assert np.all(np.isfinite(refs[1][~per_slot]))


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
    scene = Scene(spheres=(Sphere(center=tool, radius=0.05),))
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


def _plan_digest(traj) -> str:
    digest = hashlib.sha256()
    digest.update(traj.waypoints.tobytes())
    digest.update(np.float64(traj.fitness).tobytes())
    digest.update(np.array(traj.gbest_trace).tobytes())
    return digest.hexdigest()


def test_plan_trajectory_bytes_pinned(chain, run_config):
    # SHA-256 of a small-swarm approach plan on the shipped scene whose
    # first gbest still collides, taken before the per-pair cull; a change
    # that claims the same answers faster must keep it (numpy 2.x, x86-64)
    traj = plan_trajectory(chain, chain.home_q, PINNED_GOAL, run_config.scene,
                           FAST_PSO)
    assert traj.gbest_trace[0] > FAST_PSO.collision_penalty
    assert _plan_digest(traj) == (
        "eda36a5d5a8c3bc228cf5309782151fb285817874be5b48a073265b79df07fa2")


def test_swarm_bytes_pinned_full_size(chain, run_config):
    # SHA-256 of a shipped-default swarm (30 particles, at most 150
    # iterations) approach plan at seed 11, to the same goal, taken when
    # each problem first stopped once its feasible best stagnated (after 60
    # iterations here); it equals the plan of a run capped at 60 iterations
    # without that stop (numpy 2.x, x86-64)
    config = replace(run_config.pso, seed=11)
    assert (config.swarm_size, config.iterations) == (30, 150)
    traj = plan_trajectory(chain, chain.home_q, PINNED_GOAL, run_config.scene,
                           config)
    assert _plan_digest(traj) == (
        "6befb435cee61109702e1c36085286c6b4b0c7ffebeeba650b546eb768b90026")


def test_swarm_skips_particles_bounded_by_pbest(chain, run_config, monkeypatch):
    # the pinned FAST_PSO plan: after the first swarm call no call checks
    # the whole (particle x segment x sample) layout, and the plan checks
    # under half of the 19,197 configurations that commit 8b70dfa checked
    # for it (sample certificate only, every particle scored)
    checked = []
    real = planner.link_points_batch

    def spy(chain, qs):
        checked.append(len(qs))
        return real(chain, qs)

    monkeypatch.setattr(planner, "link_points_batch", spy)
    plan_trajectory(chain, chain.home_q, PINNED_GOAL, run_config.scene, FAST_PSO)
    layout = FAST_PSO.swarm_size * (FAST_PSO.waypoints_per_particle + 1) * 20
    # endpoints, first swarm call, one call per iteration, final breakdown
    assert len(checked) == FAST_PSO.iterations + 3
    assert checked[:2] == [2, layout]
    assert all(c < layout for c in checked[2:-1])
    assert sum(checked) < 19_197 // 2


@pytest.mark.parametrize("field, value", [
    ("collision_penalty", -1.0), ("limit_penalty", -5.0),
    ("collision_penalty", np.nan), ("limit_penalty", np.inf),
    ("penalty_margin", np.nan), ("clearance", np.nan), ("clearance", -np.inf),
])
def test_pso_config_rejects_what_breaks_the_score_bound(field, value):
    # a negative or non-finite penalty would let a colliding particle score
    # below its path length + limit term, the swarm's lower bound
    with pytest.raises(ConfigError, match=field):
        PsoConfig(**{field: value})


@pytest.mark.parametrize("seed", [-1, 1.5, True, "7"])
def test_pso_config_rejects_a_seed_default_rng_refuses(seed):
    with pytest.raises(ConfigError, match="seed"):
        PsoConfig(seed=seed)


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


def _blocked_problem(chain):
    # a blocking sphere at the mid-path tool position, sized to just spare
    # both endpoints
    goal = chain.home_q + np.array([0.0, 0.9, -0.9, 0.2, 0.0])
    mid_tool = link_points(chain, (chain.home_q + goal) / 2.0)[-1]
    margin = min(
        segment_point_distance(a, b, mid_tool)
        for pts in (link_points(chain, chain.home_q), link_points(chain, goal))
        for a, b in zip(pts[:-1], pts[1:])
    )
    blocked = Scene(spheres=(Sphere(center=mid_tool, radius=float(margin) - 0.03),))
    return chain.home_q, goal, blocked


def test_no_feasible_found_carries_best(chain):
    # the blocked problem, with far too little optimization budget to route
    # around
    _, goal, scene = _blocked_problem(chain)
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


def _refined(waypoints, factor):
    """The same polyline with each segment split into `factor` equal parts,
    so `fitness` samples it `factor` times as densely."""
    starts, deltas = waypoints[:-1], np.diff(waypoints, axis=0)
    parts = np.arange(factor) / factor
    inner = starts[:, None, :] + parts[None, :, None] * deltas[:, None, :]
    return np.vstack([inner.reshape(-1, waypoints.shape[1]), waypoints[-1:]])


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
        fine = _refined(traj.waypoints, 4)
        assert len(fine) == 4 * (len(traj.waypoints) - 1) + 1
        passed += fitness(fine, chain, scene, pso).colliding_samples == 0
    assert checked > 0
    assert passed == checked


def _assert_same_plan(got, want):
    assert type(got) is type(want)
    if isinstance(want, Exception):
        assert str(got) == str(want)
        if not isinstance(want, NoFeasibleFound):
            return
        got, want = got.best_trajectory, want.best_trajectory
    assert np.array_equal(got.waypoints, want.waypoints)
    assert got.fitness == want.fitness
    assert got.gbest_trace == want.gbest_trace
    assert got.breakdown == want.breakdown
    assert got.feasible == want.feasible


def _lone(chain, start, goal, scene, config):
    try:
        return plan_trajectory(chain, start, goal, scene, config)
    except (InfeasibleEndpoints, NoFeasibleFound) as exc:
        return exc


def _cycle_problems(chain, run_config):
    # a cycle's approach in the full scene and depart in the scene without
    # the grasped tomato, from the pinned pre-grasp to the punnet
    q_punnet = solve_ik_point(chain, np.array([0.10, -0.30, 0.30]),
                              np.array([0.0, 0.0, -1.0]), chain.home_q)
    after = run_config.scene.without_sphere_containing(TARGET_CENTER)
    assert len(after.spheres) == len(run_config.scene.spheres) - 1
    return [(chain.home_q, PINNED_GOAL, run_config.scene),
            (PINNED_GOAL, q_punnet, after)]


@pytest.mark.parametrize("seed", [1, 7])
def test_lockstep_plans_equal_lone_plans(chain, run_config, seed):
    config = replace(FAST_PSO, seed=seed)
    problems = _cycle_problems(chain, run_config)
    got = plan_trajectories(chain, problems, config)
    assert len(got) == 2
    for result, problem in zip(got, problems):
        _assert_same_plan(result, _lone(chain, *problem, config))


def test_depart_rows_ignore_the_hidden_target(chain, run_config):
    # rows of the depart problem read what the scene without the target
    # gives, rows of the approach problem what the full scene gives; near
    # the target the two differ
    scene = run_config.scene
    after = scene.without_sphere_containing(TARGET_CENTER)
    union = _scene_arrays(chain, scene, after)
    assert union.visible.shape == (len(scene.spheres) + len(scene.capsules), 2)
    assert union.visible.sum() == 2 * union.visible.shape[0] - 1
    rng = np.random.default_rng(16)
    qs = PINNED_GOAL + rng.normal(scale=0.15, size=(300, chain.n_joints))
    for cutoff in (np.inf, FAST_PSO.clearance + FAST_PSO.penalty_margin):
        full = _clearance(chain, qs, _scene_arrays(chain, scene), cutoff)
        alone = _clearance(chain, qs, _scene_arrays(chain, after), cutoff)
        for problem, want in ((0, full), (1, alone)):
            got = _clearance(chain, qs, union, cutoff,
                             np.full(len(qs), problem))
            assert np.array_equal(got >= cutoff, want >= cutoff)
            below = want < cutoff
            assert np.array_equal(got[below], want[below])
        assert np.any(alone[full < cutoff] > full[full < cutoff])
    # mixed rows in one call, exact everywhere
    problem = rng.integers(2, size=len(qs))
    mixed = _clearance(chain, qs, union, np.inf, problem)
    full, alone = (_clearance(chain, qs, _scene_arrays(chain, s), np.inf)
                   for s in (scene, after))
    assert np.array_equal(mixed, np.where(problem == 1, alone, full))


def test_problem_without_obstacles_reads_no_clearance(chain):
    # a sphere on the static base link: the problem that sees it reads its
    # clearance, including the static link's, the one that sees nothing
    # NO_OBSTACLE_CLEARANCE
    assert chain.compiled.first_moving == 1
    base_mid = chain.compiled.static_points.mean(axis=0)
    scene = Scene(spheres=(Sphere(center=base_mid + [0.04, 0.0, 0.0],
                                  radius=0.03),))
    union = _scene_arrays(chain, scene, EMPTY)
    qs = np.vstack([chain.home_q, PINNED_GOAL])
    got = _clearance(chain, np.vstack([qs, qs]), union, np.inf,
                     np.array([0, 0, 1, 1]))
    want = [collision_check(chain, q, scene).min_clearance for q in qs]
    assert got[:2].tolist() == want
    assert np.isclose(want[0], 0.01)
    assert np.all(got[2:] == planner.NO_OBSTACLE_CLEARANCE)


@pytest.mark.parametrize("bad", ["outside-limits", "colliding"])
def test_bad_endpoint_leaves_other_plan_alone(chain, run_config, bad):
    approach = (chain.home_q, PINNED_GOAL, run_config.scene)
    if bad == "outside-limits":
        goal = np.array([0.0, 0.0, 0.0, 3.0, 0.0])
        scene = EMPTY
    else:
        goal = chain.home_q + 0.3
        tool = link_points(chain, goal)[-1]
        scene = Scene(spheres=(Sphere(center=tool, radius=0.05),))
    got = plan_trajectories(chain, [(chain.home_q, goal, scene), approach],
                            FAST_PSO)
    assert isinstance(got[0], InfeasibleEndpoints)
    _assert_same_plan(got[0], _lone(chain, chain.home_q, goal, scene, FAST_PSO))
    _assert_same_plan(got[1], _lone(chain, *approach, FAST_PSO))


def test_no_feasible_found_leaves_other_plan_alone(chain):
    # the blocked problem of test_no_feasible_found_carries_best, batched
    # with an empty-scene problem that sees no obstacle of the union
    config = replace(FAST_PSO, iterations=3, swarm_size=4, seed=0)
    problems = [(chain.home_q, chain.home_q + np.array([0.4, 0.2, -0.3, 0.2, 0.5]),
                 EMPTY),
                _blocked_problem(chain)]
    got = plan_trajectories(chain, problems, config)
    assert got[0].feasible
    assert isinstance(got[1], NoFeasibleFound)
    for result, problem in zip(got, problems):
        _assert_same_plan(result, _lone(chain, *problem, config))
    # the blocked swarm never finds a collision-free best, so stopping at
    # the first one changes nothing for it; the empty-scene problem, free
    # from the start, stops at once
    fast = plan_trajectories(chain, problems, config, first_feasible=True)
    _assert_same_plan(fast[1], got[1])
    # whole plan: the one made alone (a run capped at its stop count of 0
    # cannot be configured, as iterations >= 1), and the full run's start
    alone, = plan_trajectories(chain, problems[:1], config, first_feasible=True)
    _assert_same_plan(fast[0], alone)
    assert fast[0].feasible
    assert fast[0].gbest_trace == got[0].gbest_trace[:1]
    assert fast[0].fitness == got[0].gbest_trace[0]
    assert fast[0].breakdown == fitness(fast[0], chain, EMPTY, config)


@pytest.mark.parametrize("point, match", [
    ([np.nan, 0.0, 0.0], "point must be finite"),
    ([0.45, 0.0, np.inf], "point must be finite"),
    ([0.45, 0.0], "point must be a 3-vector"),
    (np.zeros((1, 3)), "point must be a 3-vector"),
])
def test_without_sphere_containing_rejects_a_bad_point(run_config, point,
                                                       match):
    # a NaN point lies in no sphere by comparison, so it would drop them all
    with pytest.raises(ValueError, match=match):
        run_config.scene.without_sphere_containing(point)


def test_first_feasible_stops_at_the_first_collision_free_best(chain):
    # seed 5's global best first scores below the collision penalty after
    # two iterations; the empty-scene problem, free from the start, stops
    # at once
    config = replace(FAST_PSO, seed=5)
    problems = [_blocked_problem(chain),
                (chain.home_q, chain.home_q + np.array([0.4, 0.2, -0.3, 0.2, 0.5]),
                 EMPTY)]
    full = plan_trajectories(chain, problems, config)
    fast = plan_trajectories(chain, problems, config, first_feasible=True)
    trace = np.asarray(full[0].gbest_trace)
    first = int(np.flatnonzero(trace < config.collision_penalty)[0])
    assert first == 2
    for got, want, stop, (start, goal, scene) in zip(fast, full, (first, 0),
                                                     problems):
        assert want.feasible and got.feasible
        assert got.gbest_trace == want.gbest_trace[:stop + 1]
        assert np.array_equal(got.waypoints[0], start)
        assert np.array_equal(got.waypoints[-1], goal)
        assert got.breakdown == fitness(got, chain, scene, config)
    assert fast[1].gbest_trace[0] < config.collision_penalty


def test_first_feasible_never_stops_without_a_collision_penalty(chain,
                                                                run_config):
    config = replace(FAST_PSO, collision_penalty=0.0)
    problems = _cycle_problems(chain, run_config)
    full = plan_trajectories(chain, problems, config)
    for got, want in zip(plan_trajectories(chain, problems, config,
                                           first_feasible=True), full):
        _assert_same_plan(got, want)
        if isinstance(want, NoFeasibleFound):
            want = want.best_trajectory
        assert len(want.gbest_trace) == config.iterations + 1


def test_certificate_is_tight_for_a_worst_case_joint_move(chain):
    # turning joint 3 swings the tool point on a circle whose radius is the
    # joint's whole lever (0.166 m: the last two links lie along joint 4's
    # axis), toward a sphere on that circle, so the clearance falls by
    # nearly |dq| * levers[3]; a threshold just above the moved sample's
    # clearance makes a certificate with shorter levers count it free
    joint, dq = 3, 0.3
    step = dq * np.eye(chain.n_joints)[joint]
    q_ref = chain.home_q
    ahead = link_points(chain, q_ref + 1.5 * step)[-1]
    scene = Scene(spheres=(Sphere(center=ahead, radius=0.02),))
    ref_clear = collision_check(chain, q_ref, scene).min_clearance
    paths = np.array([[q_ref, q_ref + step]])
    moved = q_ref + (paths[0, 1] - q_ref)       # _score's last sample
    clear = collision_check(chain, moved, scene).min_clearance
    bound = dq * chain.compiled.levers[joint]
    assert ref_clear - clear > 0.9 * bound
    threshold = clear + 1e-6
    slots = planner.SAMPLES_PER_SEGMENT          # one segment
    refs = (np.tile(q_ref, (slots, 1)), np.full(slots, ref_clear))
    arrays = _scene_arrays(chain, scene)
    full = _score(paths, chain, arrays, FAST_PSO, threshold)
    certified = _score(paths, chain, arrays, FAST_PSO, threshold, refs=refs)
    assert full[-1][0] >= 1
    for got, want in zip(certified, full):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("first_feasible", [False, True])
def test_no_stop_while_the_best_collides_at_the_margin(chain, first_feasible):
    # a sphere just past the goal's tool point, along the last link: the
    # goal keeps clearance + penalty_margin / 2, free at `clearance` but
    # colliding at the swarm's margin, so every particle's last sample
    # collides there; the global best ends with exactly that one colliding
    # sample, and neither stop fires below 2 * collision_penalty
    config = FAST_PSO
    goal = chain.home_q + np.array([0.4, 0.2, -0.3, 0.2, 0.5])
    pts = link_points(chain, goal)
    out = (pts[-1] - pts[-2]) / np.linalg.norm(pts[-1] - pts[-2])
    gap = config.clearance + 0.5 * config.penalty_margin
    scene = Scene(spheres=(Sphere(center=pts[-1] + (0.03 + gap) * out,
                                  radius=0.03),))
    clear = collision_check(chain, goal, scene).min_clearance
    assert config.clearance <= clear < config.clearance + config.penalty_margin
    got, = plan_trajectories(chain, [(chain.home_q, goal, scene)], config,
                             first_feasible=first_feasible)
    assert got.feasible
    assert len(got.gbest_trace) == config.iterations + 1
    penalty = config.collision_penalty
    assert penalty <= got.gbest_trace[-1] < 2 * penalty


def test_stall_stops_each_problem_on_its_own(chain, run_config, monkeypatch):
    # at the shipped settings the approach stagnates before the depart;
    # each plan is the one planned alone, with no configuration checked
    # for a stopped problem, and the one a run without the stop gives when
    # capped at the iterations it ran
    config = run_config.pso
    problems = _cycle_problems(chain, run_config)
    checked = []
    real = planner.link_points_batch

    def spy(chain, qs):
        checked.append(len(qs))
        return real(chain, qs)

    monkeypatch.setattr(planner, "link_points_batch", spy)
    got = plan_trajectories(chain, problems, config)
    lockstep, checked[:] = sum(checked), []
    lone = [_lone(chain, *problem, config) for problem in problems]
    assert lockstep == sum(checked)
    ran = [len(plan.gbest_trace) - 1 for plan in got]
    assert ran[0] != ran[1] and max(ran) < config.iterations
    for plan in got:
        trace = plan.gbest_trace
        assert trace[-1] >= trace[-1 - planner.STALL_WINDOW] * (
            1.0 - planner.STALL_TOL)
    monkeypatch.setattr(planner, "STALL_WINDOW", config.iterations + 1)
    for plan, alone, problem, iterations in zip(got, lone, problems, ran):
        assert plan.feasible
        _assert_same_plan(plan, alone)
        _assert_same_plan(plan, plan_trajectory(
            chain, *problem, replace(config, iterations=iterations)))


@pytest.mark.parametrize("seed", range(11, 16))
def test_stall_keeps_plan_quality(chain, run_config, monkeypatch, seed):
    # the stopped plans against the full 150 iterations: as feasible, and
    # no more than 0.5 % longer
    config = replace(run_config.pso, seed=seed)
    problems = _cycle_problems(chain, run_config)
    with monkeypatch.context() as patch:
        patch.setattr(planner, "STALL_WINDOW", config.iterations + 1)
        full = plan_trajectories(chain, problems, config)
    for got, want in zip(plan_trajectories(chain, problems, config), full):
        assert got.feasible and want.feasible
        assert len(want.gbest_trace) == config.iterations + 1
        assert got.fitness <= want.fitness * 1.005
