"""Joint-space trajectory planning with particle swarm optimization.

Particles encode the intermediate waypoints of a trajectory between fixed
start and goal configurations. The fitness combines joint-space path length
with penalties for collision (arm body approximated by segments between
consecutive joint origins plus the tool point) and joint-limit violation.
Given a seed the whole optimization is deterministic.

One kernel, `_clearance`, answers every collision query: the signed
clearance of each configuration in a batch, exact wherever it is below a
`cutoff` and otherwise only known to be at least `cutoff`, because a
bounding-ball broad phase skipped the exact distances. `collision_check`
passes cutoff=inf, so its answer is exact; scoring passes its collision
threshold. One scorer, `_score`, interpolates and scores batches of
polylines for the swarm, `fitness` and `recheck_feasible`, and the scene is
compiled once per public call by `_scene_arrays`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .arm import KinematicChain, link_points_batch
from .errors import (ConfigError, DimensionMismatch, InfeasibleEndpoints,
                     NoFeasibleFound)
from .geometry import segment_point_distance, segment_segment_distance

NO_OBSTACLE_CLEARANCE = np.finfo(float).max
SAMPLES_PER_SEGMENT = 20


@dataclass(frozen=True)
class Sphere:
    center: np.ndarray
    radius: float
    tag: str = "other"  # "tomato" or "other"

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ConfigError("sphere radius must be > 0")


@dataclass(frozen=True)
class Capsule:
    p0: np.ndarray
    p1: np.ndarray
    radius: float
    tag: str = "branch"  # "stem" or "branch"

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ConfigError("capsule radius must be > 0")


@dataclass(frozen=True)
class Aabb:
    min_corner: np.ndarray
    max_corner: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.min_corner, dtype=float)
        hi = np.asarray(self.max_corner, dtype=float)
        if not np.all(lo < hi):
            raise ConfigError("workspace bounds must satisfy min < max per axis")


@dataclass(frozen=True)
class Scene:
    """Obstacle set the arm must avoid."""

    spheres: tuple[Sphere, ...] = ()
    capsules: tuple[Capsule, ...] = ()
    workspace_bounds: Aabb = field(default_factory=lambda: Aabb(
        np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.0, 1.0])))

    def without_sphere_containing(self, point: np.ndarray) -> "Scene":
        """Scene with any sphere that contains `point` removed (a grasped target)."""
        point = np.asarray(point, dtype=float)
        kept = tuple(
            s for s in self.spheres
            if np.linalg.norm(np.asarray(s.center, dtype=float) - point) > s.radius
        )
        return Scene(spheres=kept, capsules=self.capsules,
                     workspace_bounds=self.workspace_bounds)


@dataclass(frozen=True)
class PsoConfig:
    """Swarm hyperparameters; all runs are deterministic given `seed`.

    `penalty_margin` tightens the clearance used inside the optimization
    only, so solutions stand off obstacles instead of grazing them between
    interpolation samples; reported fitness and feasibility always use the
    plain `clearance`.
    """

    swarm_size: int = 30
    iterations: int = 150
    inertia: float = 0.7
    cognitive: float = 1.5
    social: float = 1.5
    waypoints_per_particle: int = 3
    seed: int = 42
    collision_penalty: float = 100.0
    limit_penalty: float = 100.0
    clearance: float = 0.01
    penalty_margin: float = 0.005

    def __post_init__(self):
        if self.swarm_size < 2:
            raise ConfigError("swarm_size must be >= 2")
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if not 0.0 <= self.inertia <= 1.0:
            raise ConfigError("inertia must lie in [0, 1]")
        if self.cognitive < 0.0 or self.social < 0.0:
            raise ConfigError("cognitive/social weights must be >= 0")
        if self.waypoints_per_particle < 1:
            raise ConfigError("waypoints_per_particle must be >= 1")
        if self.penalty_margin < 0.0:
            raise ConfigError("penalty_margin must be >= 0")


@dataclass(frozen=True)
class FitnessBreakdown:
    score: float
    path_length: float
    collision_penalty: float
    limit_penalty: float
    colliding_samples: int


@dataclass(frozen=True)
class Trajectory:
    """Ordered joint-space waypoints including the fixed start and goal."""

    waypoints: np.ndarray  # (n_waypoints, n_joints)
    fitness: float
    feasible: bool
    breakdown: FitnessBreakdown | None = None
    gbest_trace: tuple[float, ...] | None = None


@dataclass(frozen=True)
class CollisionResult:
    colliding: bool
    min_clearance: float


def _scene_arrays(scene: Scene):
    """(sphere centers, radii, capsule p0, p1, radii, ball center, ball
    radius) stacked for broadcast evaluation, with None for an absent kind
    and a ball containing every obstacle surface; None for an empty scene."""
    if not scene.spheres and not scene.capsules:
        return None
    columns = ([s.center for s in scene.spheres], [s.radius for s in scene.spheres],
               [c.p0 for c in scene.capsules], [c.p1 for c in scene.capsules],
               [c.radius for c in scene.capsules])
    arrays = tuple(np.array(v, dtype=float) if v else None for v in columns)
    ball_center = np.mean(columns[0] + columns[2] + columns[3], axis=0)
    surfaces = [(s.center, s.radius) for s in scene.spheres]
    surfaces += [(end, c.radius) for c in scene.capsules for end in (c.p0, c.p1)]
    ball_radius = max(
        float(np.linalg.norm(np.asarray(point, dtype=float) - ball_center)) + radius
        for point, radius in surfaces)
    return arrays + (ball_center, ball_radius)


def _clearance(chain: KinematicChain, qs: np.ndarray, arrays,
               cutoff: float) -> np.ndarray:
    """Signed clearance per configuration of a (B, N) batch: exact below
    `cutoff`, at least `cutoff` elsewhere; NO_OBSTACLE_CLEARANCE without
    obstacles. A link segment gets the exact distances only when its lower
    bound, the distance to the scene's bounding ball, is below `cutoff`."""
    if arrays is None:
        return np.full(qs.shape[0], NO_OBSTACLE_CLEARANCE)
    centers, radii, cap_p0, cap_p1, cap_radii, ball_center, ball_radius = arrays
    pts = link_points_batch(chain, qs)          # (B, P, 3)
    seg_a = pts[:, :-1, :]
    seg_b = pts[:, 1:, :]
    clear = segment_point_distance(seg_a, seg_b, ball_center) - ball_radius
    survivors = np.flatnonzero(clear < cutoff)
    rows, segs = np.divmod(survivors, clear.shape[1])
    sub_a = seg_a[rows, segs][:, None, :]       # (K, 1, 3)
    sub_b = seg_b[rows, segs][:, None, :]
    exact = np.full(rows.shape[0], np.inf)
    if centers is not None:
        dist = segment_point_distance(sub_a, sub_b, centers[None]) - radii
        exact = np.minimum(exact, dist.min(axis=1))
    if cap_p0 is not None:
        dist = segment_segment_distance(
            sub_a, sub_b, cap_p0[None], cap_p1[None]) - cap_radii
        exact = np.minimum(exact, dist.min(axis=1))
    clear.reshape(-1)[survivors] = exact
    # column by column: min(axis=1) over these short rows is ~10x slower
    return functools.reduce(np.minimum, clear.T)


def collision_check(chain: KinematicChain, q, scene: Scene,
                    clearance: float = 0.0) -> CollisionResult:
    """Check one configuration against the scene.

    The arm body is the polyline of consecutive joint origins plus the tool
    point; colliding means some link segment comes within `clearance` of an
    obstacle surface, or the clearance is NaN (a NaN configuration).
    min_clearance is signed (negative = penetration).
    """
    q = chain.check_q(q)
    clear = float(_clearance(chain, q[None, :], _scene_arrays(scene), np.inf)[0])
    return CollisionResult(colliding=not clear >= clearance, min_clearance=clear)


def _score(paths: np.ndarray, chain: KinematicChain, arrays, config: PsoConfig,
           clearance: float, samples_per_segment: int = SAMPLES_PER_SEGMENT):
    """Per-polyline (score, path length, collision term, limit term,
    colliding samples) of a (B, W, N) batch. Each segment is sampled at
    t = 1/S ... S/S with S = samples_per_segment, so waypoints count once and
    the first row not at all (its validity is the planner's precondition)."""
    batch = paths.shape[0]
    deltas = np.diff(paths, axis=1)
    path_len = np.linalg.norm(deltas, axis=2).sum(axis=1)
    lo, hi = chain.limit_arrays()
    limit_violation = (np.maximum(paths - hi, 0.0)
                       + np.maximum(lo - paths, 0.0)).sum(axis=(1, 2))
    fractions = (np.arange(samples_per_segment) + 1.0) / samples_per_segment
    samples = (paths[:, :-1, None, :]
               + fractions[None, None, :, None] * deltas[:, :, None, :])
    clear = _clearance(chain, samples.reshape(-1, paths.shape[2]), arrays, clearance)
    counts = (~(clear >= clearance)).reshape(batch, -1).sum(axis=1)  # NaN collides
    collision_term = config.collision_penalty * counts
    limit_term = config.limit_penalty * limit_violation
    return path_len + collision_term + limit_term, path_len, collision_term, \
        limit_term, counts


def fitness(candidate: Trajectory | np.ndarray, chain: KinematicChain,
            scene: Scene, config: PsoConfig) -> FitnessBreakdown:
    """Score one trajectory: path length + collision and limit penalties.

    Accepts a Trajectory or a raw (n_waypoints, n_joints) array whose first
    and last rows are the fixed start and goal. Lower is better.
    """
    waypoints = candidate.waypoints if isinstance(candidate, Trajectory) else candidate
    waypoints = np.asarray(waypoints, dtype=float)
    if waypoints.ndim != 2 or waypoints.shape[1] != chain.n_joints:
        raise DimensionMismatch(
            f"expected (n_waypoints, {chain.n_joints}) array, got {waypoints.shape}"
        )
    if waypoints.shape[0] < 2:
        raise DimensionMismatch("trajectory needs at least start and goal rows")
    return _breakdown(waypoints, chain, _scene_arrays(scene), config)


def _breakdown(waypoints: np.ndarray, chain: KinematicChain, arrays,
               config: PsoConfig) -> FitnessBreakdown:
    score, path_len, collision_term, limit_term, counts = _score(
        waypoints[None], chain, arrays, config, config.clearance)
    return FitnessBreakdown(
        score=float(score[0]),
        path_length=float(path_len[0]),
        collision_penalty=float(collision_term[0]),
        limit_penalty=float(limit_term[0]),
        colliding_samples=int(counts[0]),
    )


def recheck_feasible(trajectory: Trajectory, chain: KinematicChain, scene: Scene,
                     config: PsoConfig, resolution_factor: int = 4) -> bool:
    """Re-validate a trajectory at a finer interpolation resolution."""
    waypoints = np.asarray(trajectory.waypoints, dtype=float)
    counts = _score(waypoints[None], chain, _scene_arrays(scene), config,
                    config.clearance, SAMPLES_PER_SEGMENT * resolution_factor)[-1]
    return not bool(counts[0])


def plan_trajectory(chain: KinematicChain, start, goal, scene: Scene,
                    config: PsoConfig) -> Trajectory:
    """Global-best PSO over intermediate waypoints between start and goal.

    Particles are flattened waypoint vectors; the velocity update is
    v <- w*v + c1*r1*(pbest - x) + c2*r2*(gbest - x) with per-dimension
    uniform draws made in particle order, and positions are clamped to the
    joint limits, so results are reproducible bit-for-bit for a given seed.

    Raises InfeasibleEndpoints, before any swarm work, if start or goal is
    not finite, lies outside the joint limits or collides; and
    NoFeasibleFound (carrying the best trajectory) if the best particle
    still has colliding samples after the final iteration.
    """
    start = chain.check_q(start)
    goal = chain.check_q(goal)
    lo, hi = chain.limit_arrays()
    for name, q in (("start", start), ("goal", goal)):
        if not np.all((lo <= q) & (q <= hi)):  # also false for NaN
            raise InfeasibleEndpoints(
                f"{name} configuration {q.tolist()} is not finite or outside "
                f"the joint limits")
    arrays = _scene_arrays(scene)
    endpoint_clear = _clearance(chain, np.vstack([start, goal]), arrays, np.inf)
    for name, clear in zip(("start", "goal"), endpoint_clear):
        if clear < config.clearance:
            raise InfeasibleEndpoints(f"{name} configuration collides with the scene")

    n = chain.n_joints
    w = config.waypoints_per_particle
    dims = w * n
    margin = config.clearance + config.penalty_margin

    def swarm_scores(flat: np.ndarray) -> np.ndarray:
        batch = flat.shape[0]
        paths = np.concatenate([
            np.broadcast_to(start, (batch, 1, n)),
            flat.reshape(batch, w, n),
            np.broadcast_to(goal, (batch, 1, n)),
        ], axis=1)                              # (B, W+2, N)
        return _score(paths, chain, arrays, config, margin)[0]

    # sampling box: per-joint span of {start, goal} inflated by 20%, clipped to limits
    box_lo = np.minimum(start, goal)
    box_hi = np.maximum(start, goal)
    span = box_hi - box_lo
    box_lo = np.maximum(box_lo - 0.2 * span, lo)
    box_hi = np.minimum(box_hi + 0.2 * span, hi)

    rng = np.random.default_rng(config.seed)
    positions = rng.uniform(
        np.tile(box_lo, w), np.tile(box_hi, w), size=(config.swarm_size, dims))
    line = np.linspace(start, goal, w + 2)[1:-1]
    positions[0] = line.reshape(-1)
    velocities = np.zeros_like(positions)

    scores = swarm_scores(positions)
    pbest_pos = positions.copy()
    pbest_score = scores.copy()
    gbest_idx = int(np.argmin(scores))
    gbest_pos = positions[gbest_idx].copy()
    gbest_score = float(scores[gbest_idx])
    trace = [gbest_score]

    for _ in range(config.iterations):
        r1 = rng.random((config.swarm_size, dims))
        r2 = rng.random((config.swarm_size, dims))
        velocities = (config.inertia * velocities
                      + config.cognitive * r1 * (pbest_pos - positions)
                      + config.social * r2 * (gbest_pos[None, :] - positions))
        positions = np.clip(positions + velocities,
                            np.tile(lo, w), np.tile(hi, w))
        scores = swarm_scores(positions)
        improved = scores < pbest_score
        pbest_pos[improved] = positions[improved]
        pbest_score[improved] = scores[improved]
        best_idx = int(np.argmin(pbest_score))
        if float(pbest_score[best_idx]) < gbest_score:
            gbest_score = float(pbest_score[best_idx])
            gbest_pos = pbest_pos[best_idx].copy()
        trace.append(gbest_score)

    waypoints = np.vstack([start, gbest_pos.reshape(w, n), goal])
    breakdown = _breakdown(waypoints, chain, arrays, config)
    feasible = breakdown.colliding_samples == 0 and breakdown.limit_penalty == 0.0
    result = Trajectory(
        waypoints=waypoints,
        fitness=breakdown.score,
        feasible=feasible,
        breakdown=breakdown,
        gbest_trace=tuple(trace),
    )
    if not feasible:
        raise NoFeasibleFound(result)
    return result
