"""Joint-space trajectory planning with particle swarm optimization.

Particles encode the intermediate waypoints of a trajectory between fixed
start and goal configurations. The fitness combines joint-space path length
with penalties for collision (arm body approximated by segments between
consecutive joint origins plus the tool point) and joint-limit violation.
Given a seed the whole optimization is deterministic.

One kernel, `_clearance`, answers every collision query: the signed
clearance of each configuration in a batch, exact wherever it is below a
`cutoff` and otherwise only known to be at least `cutoff`. Each (link,
obstacle) pair is first bounded by the link's own bounding ball (midpoint,
half-length) against the obstacle's core segment, and only pairs whose
bound falls short of `cutoff` get exact distances (Ericson, Real-Time
Collision Detection, 2004, ch. 4). `collision_check` passes cutoff=inf, so
its answer is exact; scoring passes its collision threshold. One scorer,
`_score`, interpolates and scores batches of polylines for the swarm,
`fitness` and `recheck_feasible`. Link points come from `arm`'s one
forward-kinematics kernel, `link_points_batch`, and the link vectors and
the fixed end points of the leading links that do not move with q from the
chain's compiled form. `_scene_arrays` compiles the scene once per public
call against those: link half-lengths, and the exact clearance of the
static links, measured once per call instead of once per configuration.

The swarm scores its fixed batch layout (particle x segment x sample) every
iteration, and a particle moves little between iterations. So for each
sample slot `plan_trajectory` keeps the configuration last checked there
and its clearance, and a new sample is counted free without a check when
that clearance minus sum_i |dq_i| * levers[i] still clears the threshold:
turning joint i by dq_i moves no body point farther than |dq_i| times the
link lengths from joint i out to the tool (`chain.compiled.levers`). The
counts, and so the swarm's bytes, are those of checking every sample;
`fitness`, `recheck_feasible` and `collision_check` still check every one.

Above the samples, the swarm skips whole particles, in the manner of lazy
collision checking (Bohlin & Kavraki, ICRA 2000). After its first call the
update reads a particle's score only through `score < pbest_score`, and the
path length plus limit term, which needs no FK, is a lower bound on the
score: the collision term is >= 0 and rounded addition is monotone. So a
particle whose bound already reaches its personal best is not sampled or
checked, and its slots keep their references, which stay valid. The
swarm's bytes are those of scoring every particle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .arm import KinematicChain, link_points_batch
from .errors import (ConfigError, DimensionMismatch, InfeasibleEndpoints,
                     NoFeasibleFound)
from .geometry import segment_point_distance, segment_segment_distance

NO_OBSTACLE_CLEARANCE = np.finfo(float).max
SAMPLES_PER_SEGMENT = 20
# covers rounding in the lower bounds: a link's computed end points against
# its half-length, and the swarm's lever-arm certificate
_BOUND_SLACK = 1e-9


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
        # the swarm's lower bound on a score, path length + limit term, holds
        # only for penalties >= 0
        for name in ("collision_penalty", "limit_penalty", "penalty_margin"):
            value = getattr(self, name)
            if not 0.0 <= value < np.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {value!r}")
        if not np.isfinite(self.clearance):
            raise ConfigError(f"clearance must be finite, got {self.clearance!r}")


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


class _SceneArrays(NamedTuple):
    """One public call's scene and chain constants. Obstacle m has the core
    segment core_a[m]-core_b[m] (a sphere's core is its center twice;
    spheres come first) and radius radii[m]. `reach[m, k]` is radii[m] plus
    the half-length of moving link k plus a rounding slack."""

    core_a: np.ndarray          # (M, 3)
    core_b: np.ndarray          # (M, 3)
    radii: np.ndarray           # (M,)
    n_spheres: int
    reach: np.ndarray           # (M, L)
    static_clearance: float     # exact, over the static links; inf if none


def _scene_arrays(chain: KinematicChain, scene: Scene) -> _SceneArrays | None:
    """Compile `scene` against `chain` for `_clearance`; None for an empty
    scene. The static leading links are measured here, once."""
    if not scene.spheres and not scene.capsules:
        return None
    centers = [np.asarray(s.center, dtype=float) for s in scene.spheres]
    core_a = np.array(centers + [c.p0 for c in scene.capsules], dtype=float)
    core_b = np.array(centers + [c.p1 for c in scene.capsules], dtype=float)
    radii = np.array([s.radius for s in scene.spheres]
                     + [c.radius for c in scene.capsules], dtype=float)
    compiled = chain.compiled
    half = 0.5 * np.linalg.norm(compiled.offsets[1:], axis=1)  # link vectors
    reach = radii[:, None] + half[None, :] + _BOUND_SLACK
    first_moving = compiled.first_moving
    arrays = _SceneArrays(core_a, core_b, radii, len(scene.spheres),
                          reach[:, first_moving:], np.inf)
    if first_moving:
        static = _link_clearance(compiled.static_points[None],
                                 reach[:, :first_moving], arrays, np.inf)
        arrays = arrays._replace(static_clearance=float(static.min()))
    return arrays


def _link_clearance(pts: np.ndarray, reach: np.ndarray, arrays: _SceneArrays,
                    cutoff: float) -> np.ndarray:
    """(M*L, B) signed clearance of each (obstacle, link) pair, for the L
    links of a (B, L+1, 3) polyline batch: exact, or, where a cheaper lower
    bound already reaches `cutoff`, that bound. The bound is the distance
    from the link's midpoint to the obstacle's core minus `reach` (M, L),
    since no point of the link lies farther than its half-length from the
    midpoint."""
    batch = pts.shape[0]
    core_a = arrays.core_a
    caps = slice(arrays.n_spheres, None)
    # midpoints as (3, L*B): with the batch axis last, every broadcast
    # below runs over long rows
    ends = pts.transpose(2, 1, 0)
    mid = np.add(ends[:, :-1], ends[:, 1:], order="C").reshape(3, -1)
    mid *= 0.5
    # midpoint-to-core distances in the expanded dot-product form of
    # geometry.segment_point_distance, the dot products as two matmuls; a
    # sphere's core is a point, so only capsules clamp a projection
    dist_sq = ((mid * mid).sum(axis=0) - 2.0 * (core_a @ mid)
               + np.einsum("ij,ij->i", core_a, core_a)[:, None])
    d = arrays.core_b[caps] - core_a[caps]
    dd = np.einsum("ij,ij->i", d, d)[:, None]
    wd = d @ mid - np.einsum("ij,ij->i", core_a[caps], d)[:, None]
    t = np.clip(wd * np.divide(1.0, dd, out=np.zeros_like(dd), where=dd > 0.0),
                0.0, 1.0)
    dist_sq[caps] -= t * (2.0 * wd - t * dd)
    dist = np.sqrt(np.maximum(dist_sq, 0.0))
    clear = dist.reshape(reach.shape + (batch,)) - reach[:, :, None]
    pairs = np.flatnonzero(~(clear >= cutoff))  # NaN bounds too
    cols, rows = np.divmod(pairs, clear[0].size)
    links, configs = np.divmod(rows, batch)
    seg_a = pts[configs, links]
    seg_b = pts[configs, links + 1]
    flat = clear.reshape(-1)
    sphere = cols < arrays.n_spheres
    on, at = sphere, cols[sphere]
    flat[pairs[on]] = segment_point_distance(
        seg_a[on], seg_b[on], core_a[at]) - arrays.radii[at]
    on, at = ~sphere, cols[~sphere]
    flat[pairs[on]] = segment_segment_distance(
        seg_a[on], seg_b[on], core_a[at], arrays.core_b[at]) - arrays.radii[at]
    return clear.reshape(reach.size, batch)


def _clearance(chain: KinematicChain, qs: np.ndarray, arrays: _SceneArrays | None,
               cutoff: float) -> np.ndarray:
    """Signed clearance per configuration of a (B, N) batch: exact below
    `cutoff`, at least `cutoff` elsewhere; NaN for a row that is not all
    finite, and NO_OBSTACLE_CLEARANCE for the others when there are no
    obstacles. Only the links that move with q are measured here; the
    static ones were measured when the scene was compiled."""
    finite = np.isfinite(qs).all(axis=1)
    if arrays is None:
        return np.where(finite, NO_OBSTACLE_CLEARANCE, np.nan)
    pts = link_points_batch(chain, qs)          # (B, N+1, 3)
    clear = _link_clearance(pts[:, chain.compiled.first_moving:], arrays.reach,
                            arrays, cutoff)
    # row by row: min(axis=0) over these short columns is ~10x slower
    least = functools.reduce(np.minimum, clear,
                             np.full(qs.shape[0], arrays.static_clearance))
    return np.where(finite, least, np.nan)


def collision_check(chain: KinematicChain, q, scene: Scene,
                    clearance: float = 0.0) -> CollisionResult:
    """Check one configuration against the scene.

    The arm body is the polyline of consecutive joint origins plus the tool
    point; colliding means some link segment comes within `clearance` of an
    obstacle surface, or the clearance is NaN (a NaN configuration).
    min_clearance is signed (negative = penetration).
    """
    q = chain.check_q(q)
    clear = float(_clearance(chain, q[None, :], _scene_arrays(chain, scene), np.inf)[0])
    return CollisionResult(colliding=not clear >= clearance, min_clearance=clear)


def _score(paths: np.ndarray, chain: KinematicChain, arrays, config: PsoConfig,
           clearance: float, samples_per_segment: int = SAMPLES_PER_SEGMENT,
           refs: tuple[np.ndarray, np.ndarray] | None = None, ceiling=None):
    """Per-polyline (score, path length, collision term, limit term,
    colliding samples) of a (B, W, N) batch. Each segment is sampled at
    t = 1/S ... S/S with S = samples_per_segment, so waypoints count once and
    the first row not at all (its validity is the planner's precondition).

    `refs`, a pair of (R, N) configurations and (R,) clearances, holds for
    each of the batch's R sample slots (polyline-major) the configuration
    last checked there and the lower bound `_clearance` gave for it. A
    sample whose bound from its slot's reference already clears the
    threshold counts as free, which is what checking it gives; the samples
    that are checked become their slots' references, in place.

    `ceiling`, a scalar or (B,) array, skips the polylines whose lower
    bound fl(path length + limit term) is not below it: the collision term
    is >= 0 and rounded addition is monotone, so their score could not be
    below it either. A skipped polyline is not sampled or checked, and its
    slots keep their references. It reports no colliding samples and that
    bound as its score: a value >= the ceiling that is NOT its score. With
    no ceiling every polyline is scored."""
    batch, _, n = paths.shape
    lo, hi = chain.limit_arrays()
    # inf waypoints make NaN deltas and samples
    with np.errstate(invalid="ignore"):
        deltas = np.diff(paths, axis=1)
    per = deltas.shape[1] * samples_per_segment    # sample slots per polyline
    path_len = np.linalg.norm(deltas, axis=2).sum(axis=1)
    limit_violation = (np.maximum(paths - hi, 0.0)
                       + np.maximum(lo - paths, 0.0)).sum(axis=(1, 2))
    limit_term = config.limit_penalty * limit_violation
    if ceiling is None:
        live = np.arange(batch)
    else:
        live = np.flatnonzero(~(path_len + limit_term >= ceiling))
    fractions = (np.arange(samples_per_segment) + 1.0) / samples_per_segment
    with np.errstate(invalid="ignore"):
        samples = (paths[live, :-1, None, :]
                   + fractions[None, None, :, None] * deltas[live, :, None, :]
                   ).reshape(-1, n)
    if refs is None:
        clear = _clearance(chain, samples, arrays, clearance)
    else:
        slot = (live[:, None] * per + np.arange(per)).reshape(-1)
        ref_q, ref_clear = refs
        # joint i moves no body point farther than |dq_i| * levers[i], so
        # the clearance falls by at most the weighted sum (Lipschitz bound)
        with np.errstate(invalid="ignore"):
            clear = (ref_clear[slot]
                     - np.abs(samples - ref_q[slot]) @ chain.compiled.levers)
        # a NaN bound never certifies
        check = np.flatnonzero(~(clear >= clearance + _BOUND_SLACK))
        checked = slot[check]
        clear[check] = ref_clear[checked] = _clearance(chain, samples[check],
                                                       arrays, clearance)
        ref_q[checked] = samples[check]
    counts = np.zeros(batch, dtype=int)
    counts[live] = (~(clear >= clearance)).reshape(-1, per).sum(axis=1)  # NaN collides
    collision_term = config.collision_penalty * counts
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
    return _breakdown(waypoints, chain, _scene_arrays(chain, scene), config)


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
    counts = _score(waypoints[None], chain, _scene_arrays(chain, scene), config,
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
    arrays = _scene_arrays(chain, scene)
    endpoint_clear = _clearance(chain, np.vstack([start, goal]), arrays, np.inf)
    for name, clear in zip(("start", "goal"), endpoint_clear):
        if clear < config.clearance:
            raise InfeasibleEndpoints(f"{name} configuration collides with the scene")

    n = chain.n_joints
    w = config.waypoints_per_particle
    dims = w * n
    margin = config.clearance + config.penalty_margin
    slots = config.swarm_size * (w + 1) * SAMPLES_PER_SEGMENT
    refs = (np.zeros((slots, n)), np.full(slots, -np.inf))  # none checked yet

    def swarm_scores(flat: np.ndarray, ceiling) -> np.ndarray:
        # `ceiling` is the personal best: a particle whose lower bound
        # reaches it gets that bound, not its score, which is all that
        # `scores < pbest_score` needs
        batch = flat.shape[0]
        paths = np.concatenate([
            np.broadcast_to(start, (batch, 1, n)),
            flat.reshape(batch, w, n),
            np.broadcast_to(goal, (batch, 1, n)),
        ], axis=1)                              # (B, W+2, N)
        return _score(paths, chain, arrays, config, margin, refs=refs,
                      ceiling=ceiling)[0]

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

    scores = swarm_scores(positions, np.inf)    # no personal best yet
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
        scores = swarm_scores(positions, pbest_score)
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
