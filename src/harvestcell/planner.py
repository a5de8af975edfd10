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
`_score`, interpolates and scores batches of polylines for the swarm and
`fitness`. Link points come from `arm`'s one forward-kinematics kernel,
`link_points_batch`, and the link vectors and the fixed end points of the
leading links that do not move with q from the chain's compiled form.
`_scene_arrays` compiles the scene once per public call against those:
link half-lengths, and the exact clearance of the static links, measured
once per call instead of once per configuration.

`plan_trajectories` plans P problems, each a (start, goal, scene), in one
swarm loop, and `plan_trajectory` is its batch of one. Every iteration
makes one `_score` call over all P x S particles, so the fixed cost of a
call is paid once for all problems. `_scene_arrays` compiles the union of
the problems' obstacles, the same object counted once, with a visibility
mask per problem and each problem's own static clearance; `_link_clearance`
reads a pair whose obstacle the row's problem does not see as inf before
the narrow phase. The least pair is exact, so every row reads the
clearance its own scene gives. Each problem draws from its own generator
in the order a lone plan would, so every plan is bit-for-bit the one
planned alone, and one problem's bad endpoint or failed search does not
touch the others.

The swarm scores its fixed batch layout (problem x particle x segment x
sample) every iteration, and a particle moves little between iterations.
So for each sample slot the swarm keeps the configuration last checked
there and its clearance, and a new sample is counted free without a check
when that clearance minus sum_i |dq_i| * levers[i] still clears the
threshold: turning joint i by dq_i moves no body point farther than |dq_i|
times the link lengths from joint i out to the tool
(`chain.compiled.levers`). The counts, and so the swarm's bytes, are those
of checking every sample; `fitness` and `collision_check` still check
every one.

Above the samples, the swarm skips whole particles, in the manner of lazy
collision checking (Bohlin & Kavraki, ICRA 2000). After its first call the
update reads a particle's score only through `score < pbest_score`, and the
path length plus limit term, which needs no FK, is a lower bound on the
score: the collision term is >= 0 and rounded addition is monotone. So a
particle whose bound already reaches its personal best is not sampled or
checked, and its slots keep their references, which stay valid. The
swarm's bytes are those of scoring every particle.

Each problem stops on its own, before an iteration k, once its global best
is feasible (it scores below `collision_penalty` inside the joint limits)
and either the caller passed `first_feasible` or the best has stagnated:
k >= STALL_WINDOW and gbest[k] >= gbest[k - STALL_WINDOW] * (1 - STALL_TOL),
a stagnation rule of the kind Zielinski & Laur study ("Stopping criteria
for a constrained single-objective particle swarm optimization algorithm",
Informatica 31, 2007). A feasible global best stays feasible, so every
"does it plan?" answer is that of the run to the iteration cap,
`PsoConfig.iterations`. A stopped problem is skipped by the lazy bound and
draws nothing more, so every plan is still the one planned alone
(`plan_trajectories`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Annotated, Literal, NamedTuple

import numpy as np

from .arm import KinematicChain, link_points_batch
from .domains import (Checked, Count, Finite, Fraction, Interval, Natural,
                      NonNegative, Positive, Vec3)
from .errors import DimensionMismatch, InfeasibleEndpoints, NoFeasibleFound
from .geometry import segment_point_distance, segment_segment_distance

NO_OBSTACLE_CLEARANCE = np.finfo(float).max
SAMPLES_PER_SEGMENT = 20
# a problem whose feasible global best improved by less than STALL_TOL
# (relative) over the last STALL_WINDOW iterations stops
STALL_WINDOW = 20
STALL_TOL = 1e-3
# covers rounding in the lower bounds: a link's computed end points against
# its half-length, and the swarm's lever-arm certificate
_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class Sphere(Checked):
    center: Vec3
    radius: Positive
    tag: Literal["tomato", "other"] = "other"


@dataclass(frozen=True)
class Capsule(Checked):
    p0: Vec3
    p1: Vec3
    radius: Positive
    tag: Literal["stem", "branch"] = "branch"


@dataclass(frozen=True)
class Scene(Checked):
    """Obstacle set the arm must avoid."""

    spheres: tuple[Sphere, ...] = ()
    capsules: tuple[Capsule, ...] = ()

    def without_sphere_containing(self, point: np.ndarray) -> "Scene":
        """Scene with any sphere that contains `point` removed (a grasped
        target). ValueError unless `point` is a finite 3-vector: a NaN
        point would compare as lying inside no sphere and drop them all."""
        point = np.asarray(point, dtype=float)
        if point.shape != (3,):
            raise ValueError(f"point must be a 3-vector, got shape {point.shape}")
        if not np.isfinite(point).all():
            raise ValueError(f"point must be finite, got {point.tolist()}")
        kept = tuple(
            s for s in self.spheres
            if np.linalg.norm(s.center - point) > s.radius
        )
        return Scene(spheres=kept, capsules=self.capsules)


@dataclass(frozen=True)
class PsoConfig(Checked):
    """Swarm hyperparameters; all runs are deterministic given `seed`.

    `penalty_margin` tightens the clearance used inside the optimization
    only, so solutions stand off obstacles instead of grazing them between
    interpolation samples; reported fitness and feasibility always use the
    plain `clearance`.

    `iterations` is a cap: each problem's swarm stops earlier once its
    feasible global best stagnates (see the module docstring).
    """

    swarm_size: Annotated[int, Interval(2, integer=True)] = 30
    iterations: Count = 150
    inertia: Fraction = 0.7
    cognitive: NonNegative = 1.5
    social: NonNegative = 1.5
    waypoints_per_particle: Count = 3
    seed: Natural = 42
    # the swarm's lower bound on a score, path length + limit term, holds
    # only for penalties >= 0
    collision_penalty: NonNegative = 100.0
    limit_penalty: NonNegative = 100.0
    clearance: Finite = 0.01
    penalty_margin: NonNegative = 0.005


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
    """One public call's scene and chain constants, compiled once for the
    union of the obstacles of P problem scenes. Obstacle m has the core
    segment core_a[m]-core_b[m] (a sphere's core is its center twice;
    spheres come first) and radius radii[m]. `reach[m, k]` is radii[m] plus
    the half-length of moving link k plus a rounding slack. Problem p sees
    obstacle m when visible[m, p]; `partial` lists the obstacles that some
    problem does not see."""

    core_a: np.ndarray          # (M, 3)
    core_b: np.ndarray          # (M, 3)
    radii: np.ndarray           # (M,)
    n_spheres: int
    reach: np.ndarray           # (M, L)
    visible: np.ndarray         # (M, P) bool
    partial: np.ndarray         # obstacle indices
    # (P,) exact, over the static links (inf if none); NO_OBSTACLE_CLEARANCE
    # for a problem that sees no obstacle
    static_clearance: np.ndarray


def _distinct(items) -> list:
    """`items` without repeats of the same object, in first-seen order."""
    return list({id(item): item for item in items}.values())


def _scene_arrays(chain: KinematicChain, *scenes: Scene) -> _SceneArrays | None:
    """Compile the union of the obstacles of `scenes` (one per problem, by
    object identity) against `chain` for `_clearance`; None when there are
    none. The static leading links are measured here, once, and each
    problem's static clearance is the least over the obstacles it sees; a
    problem that sees none gets NO_OBSTACLE_CLEARANCE."""
    spheres = _distinct(s for scene in scenes for s in scene.spheres)
    capsules = _distinct(c for scene in scenes for c in scene.capsules)
    if not spheres and not capsules:
        return None
    centers = [s.center for s in spheres]
    core_a = np.array(centers + [c.p0 for c in capsules])
    core_b = np.array(centers + [c.p1 for c in capsules])
    radii = np.array([s.radius for s in spheres]
                     + [c.radius for c in capsules], dtype=float)
    seen = [{id(o) for o in (*scene.spheres, *scene.capsules)} for scene in scenes]
    visible = np.array([[id(o) in ids for ids in seen]
                        for o in spheres + capsules])
    compiled = chain.compiled
    half = 0.5 * np.linalg.norm(compiled.offsets[1:], axis=1)  # link vectors
    reach = radii[:, None] + half[None, :] + _BOUND_SLACK
    first_moving = compiled.first_moving
    arrays = _SceneArrays(core_a, core_b, radii, len(spheres),
                          reach[:, first_moving:], visible,
                          np.flatnonzero(~visible.all(axis=1)), None)
    least = np.full(len(radii), np.inf)         # per obstacle, static links
    if first_moving:
        least = _link_clearance(compiled.static_points[None],
                                reach[:, :first_moving], arrays, np.inf
                                ).reshape(len(radii), first_moving).min(axis=1)
    static = np.where(visible, least[:, None], np.inf).min(axis=0)
    static[~visible.any(axis=0)] = NO_OBSTACLE_CLEARANCE
    return arrays._replace(static_clearance=static)


def _link_clearance(pts: np.ndarray, reach: np.ndarray, arrays: _SceneArrays,
                    cutoff: float, problem: np.ndarray | None = None
                    ) -> np.ndarray:
    """(M*L, B) signed clearance of each (obstacle, link) pair, for the L
    links of a (B, L+1, 3) polyline batch: exact, or, where a cheaper lower
    bound already reaches `cutoff`, that bound. The bound is the distance
    from the link's midpoint to the obstacle's core minus `reach` (M, L),
    since no point of the link lies farther than its half-length from the
    midpoint. With `problem`, the (B,) problem of each polyline, a pair
    whose obstacle that problem does not see reads inf and is not
    measured."""
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
    if problem is not None:
        for m in arrays.partial:
            clear[m][:, ~arrays.visible[m, problem]] = np.inf
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
               cutoff: float, problem: np.ndarray | None = None) -> np.ndarray:
    """Signed clearance per configuration of a (B, N) batch, each row in the
    scene of its problem (`problem`, (B,) indices; None: all in problem 0):
    exact below `cutoff`, at least `cutoff` elsewhere; NaN for a row that
    is not all finite, and NO_OBSTACLE_CLEARANCE for the others when their
    problem sees no obstacle. Only the links that move with q are measured
    here; the static ones were measured when the scene was compiled. The
    least pair is exact, so a row reads what its own scene alone gives."""
    finite = np.isfinite(qs).all(axis=1)
    if arrays is None:
        return np.where(finite, NO_OBSTACLE_CLEARANCE, np.nan)
    if problem is None:
        problem = np.zeros(qs.shape[0], dtype=np.intp)
    pts = link_points_batch(chain, qs)          # (B, N+1, 3)
    clear = _link_clearance(pts[:, chain.compiled.first_moving:], arrays.reach,
                            arrays, cutoff, problem)
    # row by row: min(axis=0) over these short columns is ~10x slower
    least = functools.reduce(np.minimum, clear,
                             arrays.static_clearance[problem])
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
           clearance: float, refs: tuple[np.ndarray, np.ndarray] | None = None,
           ceiling=None, problem: np.ndarray | None = None):
    """Per-polyline (score, path length, collision term, limit term,
    colliding samples) of a (B, W, N) batch. Each segment is sampled at
    t = 1/S ... S/S with S = SAMPLES_PER_SEGMENT, so waypoints count once and
    the first row not at all (its validity is the planner's precondition).
    `problem`, (B,) indices into the problems `arrays` was compiled for,
    scores each polyline in its own problem's scene (None: problem 0).

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
    per = deltas.shape[1] * SAMPLES_PER_SEGMENT    # sample slots per polyline
    path_len = np.linalg.norm(deltas, axis=2).sum(axis=1)
    limit_violation = (np.maximum(paths - hi, 0.0)
                       + np.maximum(lo - paths, 0.0)).sum(axis=(1, 2))
    limit_term = config.limit_penalty * limit_violation
    if ceiling is None:
        live = np.arange(batch)
    else:
        live = np.flatnonzero(~(path_len + limit_term >= ceiling))
    owner = np.zeros(batch, dtype=np.intp) if problem is None else problem
    rows = np.repeat(owner[live], per)          # each sample's problem
    fractions = (np.arange(SAMPLES_PER_SEGMENT) + 1.0) / SAMPLES_PER_SEGMENT
    with np.errstate(invalid="ignore"):
        samples = (paths[live, :-1, None, :]
                   + fractions[None, None, :, None] * deltas[live, :, None, :]
                   ).reshape(-1, n)
    if refs is None:
        clear = _clearance(chain, samples, arrays, clearance, rows)
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
        clear[check] = ref_clear[checked] = _clearance(
            chain, samples[check], arrays, clearance, rows[check])
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
    return _breakdowns(waypoints[None], chain, _scene_arrays(chain, scene),
                       config)[0]


def _breakdowns(paths: np.ndarray, chain: KinematicChain, arrays,
                config: PsoConfig, problem: np.ndarray | None = None
                ) -> list[FitnessBreakdown]:
    """A FitnessBreakdown per polyline of a (B, W, N) batch, each in its
    problem's scene, at the plain `clearance`."""
    parts = _score(paths, chain, arrays, config, config.clearance,
                   problem=problem)
    return [FitnessBreakdown(score=score, path_length=path_len,
                             collision_penalty=collision_term,
                             limit_penalty=limit_term, colliding_samples=count)
            for score, path_len, collision_term, limit_term, count
            in zip(*(part.tolist() for part in parts))]


def plan_trajectory(chain: KinematicChain, start, goal, scene: Scene,
                    config: PsoConfig) -> Trajectory:
    """Global-best PSO over intermediate waypoints between start and goal:
    `plan_trajectories` on one problem.

    Raises InfeasibleEndpoints, before any swarm work, if start or goal is
    not finite, lies outside the joint limits or collides; and
    NoFeasibleFound (carrying the best trajectory) if the best particle
    still has colliding samples after the final iteration.
    """
    result, = plan_trajectories(chain, [(start, goal, scene)], config)
    if isinstance(result, Exception):
        raise result
    return result


def plan_trajectories(chain: KinematicChain, problems, config: PsoConfig, *,
                      first_feasible: bool = False
                      ) -> list[Trajectory | InfeasibleEndpoints | NoFeasibleFound]:
    """Plan a sequence of P problems, each a (start, goal, scene), in one
    swarm loop.

    Particles are flattened waypoint vectors; the velocity update is
    v <- w*v + c1*r1*(pbest - x) + c2*r2*(gbest - x) with per-dimension
    uniform draws made in particle order, and positions are clamped to the
    joint limits. Each problem draws from its own default_rng(config.seed)
    in the order a lone plan would, and every row is scored in its own
    problem's scene, so each plan is bit-for-bit the one planned alone;
    the problems only share one `_score` call per iteration.

    Returns one entry per problem: its Trajectory, or the exception planning
    it alone raises. InfeasibleEndpoints, before any swarm work, when start
    or goal is not finite, lies outside the joint limits or collides;
    NoFeasibleFound (carrying the best trajectory) when the best particle
    still has colliding samples after the final iteration. Neither stops or
    perturbs the other problems.

    Each problem runs at most `config.iterations` iterations and stops
    before iteration k once its global best is feasible (below
    `collision_penalty`, inside the joint limits) and has stagnated: k >=
    STALL_WINDOW and gbest[k] >= gbest[k - STALL_WINDOW] * (1 - STALL_TOL).
    With `first_feasible` it stops at its first feasible global best. Such
    a best has no colliding sample at the margin, since one would add the
    whole penalty to a score whose other terms are >= 0, so it is feasible
    at `clearance`; the global best never rises and every later candidate
    is clipped into the limits, so the capped run's final best is feasible
    too: each problem ends feasible or NoFeasibleFound exactly as it would
    at the cap. A problem never stops while its best is infeasible (always,
    when `collision_penalty` is 0). A stopped problem is skipped by the
    lazy bound, leaves the personal-best update and draws nothing more, so
    its plan is the one a run capped at its stop count gives, and its
    `gbest_trace` ends there. A trajectory returned under `first_feasible`
    is feasible but not optimized; it is for callers that only read
    whether planning succeeded. The loop ends once every problem stopped.
    """
    n = chain.n_joints
    lo, hi = chain.limit_arrays()
    results: list = [None] * len(problems)
    ends = []
    for p, (start, goal, _) in enumerate(problems):
        ends.append((chain.check_q(start), chain.check_q(goal)))
        for name, q in zip(("start", "goal"), ends[p]):
            if not np.all((lo <= q) & (q <= hi)):  # also false for NaN
                results[p] = InfeasibleEndpoints(
                    f"{name} configuration {q.tolist()} is not finite or "
                    f"outside the joint limits")
                break
    live = [p for p in range(len(problems)) if results[p] is None]
    if not live:
        return results
    arrays = _scene_arrays(chain, *(scene for _, _, scene in problems))
    endpoints = np.array([ends[p] for p in live]).reshape(-1, n)
    endpoint_clear = _clearance(chain, endpoints, arrays, np.inf,
                                np.repeat(live, 2))
    for p, pair in zip(live, endpoint_clear.reshape(-1, 2)):
        for name, clear in zip(("start", "goal"), pair):
            if clear < config.clearance:
                results[p] = InfeasibleEndpoints(
                    f"{name} configuration collides with the scene")
                break
    live = np.array([p for p in live if results[p] is None], dtype=np.intp)
    if not live.size:
        return results

    count, size = len(live), config.swarm_size
    w = config.waypoints_per_particle
    dims = w * n
    starts = np.array([ends[p][0] for p in live])
    goals = np.array([ends[p][1] for p in live])
    owner = np.repeat(live, size)               # each particle's problem
    margin = config.clearance + config.penalty_margin
    slots = count * size * (w + 1) * SAMPLES_PER_SEGMENT
    refs = (np.zeros((slots, n)), np.full(slots, -np.inf))  # none checked yet

    def swarm_scores(positions: np.ndarray, ceiling) -> np.ndarray:
        # `ceiling` is the personal best: a particle whose lower bound
        # reaches it gets that bound, not its score, which is all that
        # `scores < pbest_score` needs
        paths = np.concatenate([
            np.broadcast_to(starts[:, None, None], (count, size, 1, n)),
            positions.reshape(count, size, w, n),
            np.broadcast_to(goals[:, None, None], (count, size, 1, n)),
        ], axis=2).reshape(count * size, w + 2, n)
        return _score(paths, chain, arrays, config, margin, refs=refs,
                      ceiling=ceiling, problem=owner)[0].reshape(count, size)

    # sampling box: per-joint span of {start, goal} inflated by 20%, clipped to limits
    box_lo = np.minimum(starts, goals)
    box_hi = np.maximum(starts, goals)
    span = box_hi - box_lo
    box_lo = np.maximum(box_lo - 0.2 * span, lo)
    box_hi = np.minimum(box_hi + 0.2 * span, hi)

    rngs = [np.random.default_rng(config.seed) for _ in live]
    positions = np.array([
        rng.uniform(np.tile(b_lo, w), np.tile(b_hi, w), size=(size, dims))
        for rng, b_lo, b_hi in zip(rngs, box_lo, box_hi)])   # (P, S, dims)
    for k in range(count):
        positions[k, 0] = np.linspace(starts[k], goals[k], w + 2)[1:-1].reshape(-1)
    velocities = np.zeros_like(positions)
    q_lo, q_hi = np.tile(lo, w), np.tile(hi, w)
    each = np.arange(count)

    scores = swarm_scores(positions, np.inf)    # no personal best yet
    pbest_pos = positions.copy()
    pbest_score = scores.copy()
    best_idx = np.argmin(scores, axis=1)
    gbest_pos = positions[each, best_idx]       # (P, dims) copy
    gbest_score = scores[each, best_idx]
    trace = [gbest_score.copy()]
    stops = np.full(count, config.iterations)  # iterations each problem ran
    active = np.ones(count, dtype=bool)

    for k in range(config.iterations):
        # the initial draws are not clipped, so a best's zero limit term is
        # checked here rather than assumed
        feasible = ((gbest_score < config.collision_penalty)
                    & ((q_lo <= gbest_pos) & (gbest_pos <= q_hi)).all(axis=1))
        settled = first_feasible or (k >= STALL_WINDOW and gbest_score
                                     >= trace[k - STALL_WINDOW] * (1.0 - STALL_TOL))
        stopping = active & feasible & settled
        stops[stopping] = k
        active &= ~stopping
        if not active.any():
            break
        on = np.flatnonzero(active)
        r1, r2 = np.array([(rngs[i].random((size, dims)),
                            rngs[i].random((size, dims))) for i in on]
                          ).transpose(1, 0, 2, 3)
        moving = positions[on]
        velocities[on] = (config.inertia * velocities[on]
                          + config.cognitive * r1 * (pbest_pos[on] - moving)
                          + config.social * r2 * (gbest_pos[on, None] - moving))
        positions[on] = np.clip(moving + velocities[on], q_lo, q_hi)
        # a stopped problem's ceiling -inf skips its particles unsampled
        ceiling = np.where(active[:, None], pbest_score, -np.inf)
        scores = swarm_scores(positions, ceiling.reshape(-1))
        improved = (scores < pbest_score) & active[:, None]
        pbest_pos[improved] = positions[improved]
        pbest_score[improved] = scores[improved]
        best_idx = np.argmin(pbest_score, axis=1)
        best = pbest_score[each, best_idx]
        better = best < gbest_score
        gbest_score[better] = best[better]
        gbest_pos[better] = pbest_pos[better, best_idx[better]]
        trace.append(gbest_score.copy())

    waypoints = np.concatenate([starts[:, None], gbest_pos.reshape(count, w, n),
                                goals[:, None]], axis=1)
    traces = np.array(trace).T.tolist()
    for k, (p, breakdown) in enumerate(zip(
            live, _breakdowns(waypoints, chain, arrays, config, live))):
        feasible = breakdown.colliding_samples == 0 and breakdown.limit_penalty == 0.0
        result = Trajectory(
            waypoints=waypoints[k],
            fitness=breakdown.score,
            feasible=feasible,
            breakdown=breakdown,
            gbest_trace=tuple(traces[k][:stops[k] + 1]),
        )
        results[p] = result if feasible else NoFeasibleFound(result)
    return results
