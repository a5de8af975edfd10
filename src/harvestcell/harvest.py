"""Six-stage pick-cycle state machine with Monte Carlo evaluation.

One cycle runs approach -> separate -> cut -> grasp -> depart -> release.
Approach and depart are planned with the PSO planner; the cut succeeds when
the pedicel falls inside the spherical cut zone around the cutter keypoint
after the gripper pose is perturbed by seeded isotropic Gaussian noise.
Stage durations are truncated-Gaussian draws around configurable means.

Trials run as one array batch. Its seed spawns a duration stream and a
pose-noise stream; trial i is row i of a (trials, 6) duration block and of
a (trials, 3) noise block, and `run_pick_cycle` is a batch of one. The
noise block never depends on sigma, so the success count is monotone in
sigma whenever the systematic cut offset lies inside the cut zone, and
`calibrate_noise` reads the calibrated sigma off one order statistic.

Trials read only the plans' failure stage and outcome and the nominal cut
center. So when `monte_carlo` or `calibrate_noise` plans for itself, it asks
`plan_cycle` for `first_feasible` plans: each swarm stops at its first
global best that scores below the collision penalty inside the joint
limits. Such a best has no colliding sample, and the full run's final best
could only score lower, so it is collision-free too; every IK answer, the
cut center and the failure, if any, are those of the full plans. A caller
that passes `plans` gets exactly the trials those plans give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Annotated, NamedTuple

import numpy as np

from . import mechanism
from .arm import IkOptions, KinematicChain, solve_ik_point
from .domains import Checked, Finite, Interval, Natural, Vec3
from .errors import CalibrationFailed, ConfigError, NoConvergence
from .mechanism import MechanismParams
from .perception import TargetTomato
# plan_trajectory is not called here; harvestbench's traced run wraps
# `harvest.plan_trajectory` by name, so the name stays importable
from .planner import (PsoConfig, Scene, Trajectory,  # noqa: F401
                      plan_trajectories, plan_trajectory)

STAGES = ("approach", "separate", "cut", "grasp", "depart", "release")
# the stages a trial executes, by their number: always a prefix of STAGES
_STAGE_PREFIXES = tuple(STAGES[:n] for n in range(len(STAGES) + 1))
OUTCOMES = ("success", "fail_cut_missed", "fail_no_plan", "fail_unreachable")
# Most trials one batch may ask for: its per-trial arrays take about 0.25 KB
# a trial, and a report list several times that.
_MAX_TRIALS = 1_000_000
# Largest stage mean (s), length or pose-noise sigma (m) and grasp force (N)
# a cycle accepts: sums of squared deviations of its draws over a whole
# batch then stay far inside the float range.
_MAX_MAGNITUDE = 1e100
Magnitude = Annotated[float, Interval(0.0, _MAX_MAGNITUDE)]
PositiveMagnitude = Annotated[float, Interval(0.0, _MAX_MAGNITUDE, lo_open=True)]


def default_stage_means() -> dict[str, float]:
    """Shipped per-stage duration means (seconds); they sum to 24.34 s."""
    return {
        "approach": 6.0,
        "separate": 3.5,
        "cut": 2.5,
        "grasp": 3.0,
        "depart": 6.0,
        "release": 3.34,
    }


TOTAL_CYCLE_SECONDS = sum(default_stage_means().values())


@dataclass(frozen=True)
class PickCycleConfig(Checked):
    """Timing, noise and cut-geometry settings of one pick cycle.

    cut_trigger_distance is the depth threshold that fires the cutter: at
    fire time the cutter keypoint sits that far from the tomato center
    along the center-to-pedicel direction. Matching it to the actual
    pedicel offset gives zero systematic cut error.
    """

    stage_time_means: dict[str, PositiveMagnitude] = field(
        default_factory=default_stage_means)
    stage_time_stddev_frac: Annotated[float, Interval(0.0, 1.0, hi_open=True)] = 0.1
    pose_noise_sigma: Magnitude = 0.0046
    cut_zone_radius: PositiveMagnitude = 0.010
    cut_trigger_distance: PositiveMagnitude = 0.020
    insertion_depth: PositiveMagnitude = 0.080
    grasp_force: Magnitude = 5.0
    grasp_theta_deg: Finite = 60.0
    punnet_position: Vec3 = field(
        default_factory=lambda: np.array([0.10, -0.30, 0.30]))
    seed: Natural = 1234

    def __post_init__(self):
        super().__post_init__()
        if set(self.stage_time_means) != set(STAGES):
            raise ConfigError(
                f"stage_time_means must have exactly the stages {STAGES}")


class PickCycleReport(NamedTuple):
    """Outcome of one simulated cycle; timings cover executed stages only.

    A NamedTuple: immutable, it compares like the tuple of its five fields
    (and equals that plain tuple), and `report._replace(...)` stands in for
    `dataclasses.replace`.
    """

    stage_timings: dict[str, float]
    total_time: float
    outcome: str
    pedicel_miss_distance: float | None
    holding_torque_total: float | None


@dataclass(frozen=True)
class MonteCarloSummary:
    trials: int
    success_rate: float
    outcome_counts: dict[str, int]
    total_time_mean: float
    total_time_std: float
    stage_time_mean: dict[str, float]
    stage_time_std: dict[str, float]


@dataclass(frozen=True)
class CyclePlans:
    """Deterministic per-target planning results shared by all trials."""

    q_pregrasp: np.ndarray | None = None
    q_grasp: np.ndarray | None = None
    q_punnet: np.ndarray | None = None
    approach_trajectory: Trajectory | None = None
    depart_trajectory: Trajectory | None = None
    nominal_cut_center: np.ndarray | None = None
    failure_stage: str | None = None
    failure_outcome: str | None = None


def plan_cycle(target: TargetTomato, chain: KinematicChain, scene: Scene,
               planner_config: PsoConfig, cycle_config: PickCycleConfig, *,
               first_feasible: bool = False) -> CyclePlans:
    """Plan the kinematic skeleton of a cycle (no randomness involved).

    Solves the pre-grasp, grasp and punnet IK first: their seeds are
    home_q and q_pregrasp, never a plan. Then it plans the approach
    (home_q -> q_pregrasp, full scene) and the depart (q_pregrasp ->
    q_punnet, the scene without the grasped tomato) in one swarm loop, each
    plan bit-for-bit the one planned alone; the depart is planned only when
    both IK solves it needs succeed. Also computes the nominal cut-zone
    center.

    Failures are recorded as (failure_stage, failure_outcome) rather than
    raised, so Monte Carlo trials can account them as cycle outcomes. The
    first that applies, in cycle order, is reported: pre-grasp IK
    (approach, fail_unreachable; nothing is planned), the approach plan
    (approach, fail_no_plan), grasp IK (separate, fail_unreachable), punnet
    IK (depart, fail_unreachable), the depart plan (depart, fail_no_plan).
    Each failure keeps what the cycle had reached before it; a depart
    failure keeps the cut center, because the cut runs before depart.

    Each swarm stops on its own once its feasible global best stagnates,
    at most after `planner_config.iterations` (`plan_trajectories`). With
    `first_feasible`, each stops at its first collision-free global best
    instead: the failure stage and outcome, the cut center and every IK
    answer are those of the default, but the trajectories are feasible,
    not optimized, and their `gbest_trace` is shorter. It suits callers
    that read only the decision.
    """
    if chain.home_q is None:
        raise ConfigError("chain has no home_q; harvest cycles need one")
    center = np.asarray(target.center_3d, dtype=float)
    pedicel = np.asarray(target.pedicel_3d, dtype=float)
    toward_pedicel = pedicel - center
    length = float(np.linalg.norm(toward_pedicel))
    toward_pedicel /= length
    pregrasp_pos = center - cycle_config.insertion_depth * toward_pedicel
    nominal_cut_center = center + cycle_config.cut_trigger_distance * toward_pedicel

    ik_opts = IkOptions()

    def solve(position, axis, seed_q):
        try:
            return solve_ik_point(chain, position, axis, seed_q, ik_opts)
        except NoConvergence:
            return None

    reached = {}  # what the cycle has reached; each failure keeps it

    def failed(stage, outcome):
        return CyclePlans(**reached, failure_stage=stage, failure_outcome=outcome)

    q_pregrasp = solve(pregrasp_pos, toward_pedicel, chain.home_q)
    if q_pregrasp is None:
        return failed("approach", "fail_unreachable")
    reached["q_pregrasp"] = q_pregrasp
    # separate: advance by insertion_depth so the gripper center reaches the tomato
    q_grasp = solve(center, toward_pedicel, q_pregrasp)
    q_punnet = solve(cycle_config.punnet_position, np.array([0.0, 0.0, -1.0]),
                     chain.home_q)

    problems = [(chain.home_q, q_pregrasp, scene)]
    if q_grasp is not None and q_punnet is not None:
        # depart: the grasped tomato leaves the scene; retract to pre-grasp and go
        problems.append((q_pregrasp, q_punnet,
                         scene.without_sphere_containing(center)))
    planned = plan_trajectories(chain, problems, planner_config,
                                first_feasible=first_feasible)

    if isinstance(planned[0], Exception):
        return failed("approach", "fail_no_plan")
    reached["approach_trajectory"] = planned[0]
    if q_grasp is None:
        return failed("separate", "fail_unreachable")
    reached.update(q_grasp=q_grasp, nominal_cut_center=nominal_cut_center)
    if q_punnet is None:
        return failed("depart", "fail_unreachable")
    reached["q_punnet"] = q_punnet
    if isinstance(planned[1], Exception):
        return failed("depart", "fail_no_plan")
    return CyclePlans(**reached, depart_trajectory=planned[1])


def _streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """The (duration, pose-noise) generators of one batch seed."""
    time_ss, noise_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(time_ss), np.random.default_rng(noise_ss)


def _durations(rng: np.random.Generator, cycle_config: PickCycleConfig,
               trials: int) -> np.ndarray:
    """(trials, 6) truncated-at-zero Gaussian stage durations, columns in
    STAGES order; non-positive draws are redrawn in row-major order."""
    means = np.array([cycle_config.stage_time_means[s] for s in STAGES])
    frac = cycle_config.stage_time_stddev_frac
    durations = means + frac * means * rng.standard_normal((trials, len(STAGES)))
    redraw = durations <= 0.0
    while redraw.any():
        mean = np.broadcast_to(means, durations.shape)[redraw]
        durations[redraw] = mean + frac * mean * rng.standard_normal(mean.size)
        redraw = durations <= 0.0
    return durations


def run_pick_cycle(target: TargetTomato, chain: KinematicChain, scene: Scene,
                   planner_config: PsoConfig, cycle_config: PickCycleConfig,
                   trial_seed: int,
                   mechanism_params: MechanismParams | None = None,
                   plans: CyclePlans | None = None) -> PickCycleReport:
    """Simulate one pick cycle: the report of a one-trial `monte_carlo`
    batch seeded with trial_seed, so it is fully deterministic given it."""
    _, reports = monte_carlo(target, chain, scene, planner_config,
                             replace(cycle_config, seed=trial_seed), 1,
                             mechanism_params, plans, collect_reports=True)
    return reports[0]


def monte_carlo(target: TargetTomato, chain: KinematicChain, scene: Scene,
                planner_config: PsoConfig, cycle_config: PickCycleConfig,
                trials: int,
                mechanism_params: MechanismParams | None = None,
                plans: CyclePlans | None = None,
                collect_reports: bool = False):
    """Simulate `trials` pick cycles at once from the batch seed
    cycle_config.seed.

    Planning is deterministic per target, so it runs once and is shared by
    all trials. The seed spawns a duration stream, drawn as one (trials, 6)
    block in STAGES order, and a pose-noise stream, drawn as one (trials, 3)
    block of standard normals scaled by pose_noise_sigma. Neither block
    depends on sigma or on the other, so changing the noise level keeps
    every draw (common random numbers). Trial i is row i of both blocks.

    A planning failure at approach or separate ends every trial there. A
    trial whose pedicel lies outside the displaced cut zone ends as
    fail_cut_missed; otherwise it grasps, records the holding torque and
    then fails at depart or succeeds. Timings and total_time cover executed
    stages only. Returns a MonteCarloSummary, or (summary, reports) when
    collect_reports is set; the report list is built column-wise, one list
    per field zipped into `PickCycleReport` tuples. Time statistics cover
    successful trials only: a mean and a sample std over them, both 0.0
    without a success and the std 0.0 with one.
    `trials` lies in [1, _MAX_TRIALS] and grasp_theta_deg in the
    mechanism's theta_range; both are checked before any planning.
    Without `plans` it plans the cycle with `first_feasible` set: trials
    never read the trajectories, and the decision they do read is the full
    plans' (see `plan_cycle`), so the result is the same as with them.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if trials > _MAX_TRIALS:
        raise ConfigError(f"trials must be <= {_MAX_TRIALS}, got {trials}")
    if mechanism_params is None:
        mechanism_params = MechanismParams()
    lo, hi = mechanism_params.theta_range
    if not lo <= cycle_config.grasp_theta_deg <= hi:
        raise ConfigError(
            f"grasp_theta_deg {cycle_config.grasp_theta_deg!r} lies outside the "
            f"mechanism's theta_range [{lo:g}, {hi:g}] deg")
    if plans is None:
        plans = plan_cycle(target, chain, scene, planner_config, cycle_config,
                           first_feasible=True)
    time_rng, noise_rng = _streams(cycle_config.seed)
    noise = noise_rng.standard_normal((trials, 3))
    durations = _durations(time_rng, cycle_config, trials)

    # executed stages are a prefix of STAGES: failed_at of them after a cut
    # inside the zone, up to and including the cut after a miss
    failed_at = (STAGES.index(plans.failure_stage) if plans.failure_stage
                 else len(STAGES))
    cut = STAGES.index("cut")
    hit = np.zeros(trials, dtype=bool)
    miss = None
    if failed_at > cut:
        achieved = (np.asarray(plans.nominal_cut_center, dtype=float)
                    + cycle_config.pose_noise_sigma * noise)
        miss = np.linalg.norm(
            np.asarray(target.pedicel_3d, dtype=float) - achieved, axis=1)
        hit = miss <= cycle_config.cut_zone_radius
    hit_outcome = plans.failure_outcome or "success"
    miss_outcome = plans.failure_outcome if miss is None else "fail_cut_missed"
    executed = np.where(hit, failed_at, min(failed_at, cut + 1))
    timings = np.where(np.arange(len(STAGES)) < executed[:, None], durations, 0.0)
    total = timings.cumsum(axis=1)[:, -1]  # stage by stage, in STAGES order
    torque = None
    if hit.any():
        torque = mechanism.torque_single_finger(
            mechanism_params, cycle_config.grasp_theta_deg,
            cycle_config.grasp_force).torque_total

    hits = int(hit.sum())
    counts = {outcome: 0 for outcome in OUTCOMES}
    counts[hit_outcome] += hits
    counts[miss_outcome] += trials - hits
    # total time and the six stage durations of the successful trials, one
    # C-contiguous row each: a row reduces like the 1-D array it copies
    n_success = counts["success"]
    block = np.empty((1 + len(STAGES), n_success))
    if n_success:  # then every hit succeeds
        block[0] = total[hit]
        block[1:] = durations[hit].T
    means = block.mean(axis=1).tolist() if n_success else [0.0] * len(block)
    stds = (block.std(axis=1, ddof=1).tolist() if n_success > 1
            else [0.0] * len(block))
    summary = MonteCarloSummary(
        trials=trials,
        success_rate=n_success / trials,
        outcome_counts=counts,
        total_time_mean=means[0],
        total_time_std=stds[0],
        stage_time_mean=dict(zip(STAGES, means[1:])),
        stage_time_std=dict(zip(STAGES, stds[1:])),
    )
    if not collect_reports:
        return summary
    hit_list = hit.tolist()
    stage_timings = [dict(zip(_STAGE_PREFIXES[n], row))
                     for n, row in zip(executed.tolist(), durations.tolist())]
    outcomes = [hit_outcome if h else miss_outcome for h in hit_list]
    torques = [torque if h else None for h in hit_list]
    misses = miss.tolist() if miss is not None else [None] * trials
    reports = list(map(PickCycleReport._make, zip(
        stage_timings, total.tolist(), outcomes, misses, torques)))
    return summary, reports


def calibrate_noise(target: TargetTomato, chain: KinematicChain, scene: Scene,
                    planner_config: PsoConfig, cycle_config: PickCycleConfig,
                    target_rate: float, trials_per_eval: int = 500,
                    tolerance: float = 0.02,
                    plans: CyclePlans | None = None) -> float:
    """The pose-noise sigma at which `monte_carlo` with cycle_config.seed and
    trials_per_eval trials succeeds at target_rate, to within
    1 / trials_per_eval.

    With d = pedicel - nominal cut center and R = cut_zone_radius, trial i
    hits when |d - sigma z_i| <= R for its noise row z_i. If |d| <= R that
    holds exactly for sigma <= s_i, the non-negative root of
    |d - s_i z_i| = R, so the success count falls monotonically in sigma
    and the answer is the midpoint between two neighbouring order
    statistics of s. Raises CalibrationFailed when the plans fail, when
    |d| > R (success is then not monotone in sigma), when no count out of
    trials_per_eval lies within tolerance of target_rate, or when the sigma
    needed exceeds 5 * R. Like `monte_carlo`, it plans the cycle only when
    the caller passes no `plans`, after checking target_rate, tolerance
    (finite, >= 0) and trials_per_eval (in [1, _MAX_TRIALS]), and then with
    `first_feasible` set: it reads only the failure and the cut center,
    which are those of the full plans, so sigma is the same as with them.
    """
    if not 0.0 < target_rate < 1.0:
        raise ConfigError("target_rate must lie strictly between 0 and 1")
    if not 1 <= trials_per_eval <= _MAX_TRIALS:
        raise ConfigError(f"trials_per_eval must lie in [1, {_MAX_TRIALS}], "
                          f"got {trials_per_eval}")
    if not 0.0 <= tolerance < math.inf:
        raise ConfigError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    if plans is None:
        plans = plan_cycle(target, chain, scene, planner_config, cycle_config,
                           first_feasible=True)
    if plans.failure_stage is not None:
        raise CalibrationFailed(
            f"cycle fails at {plans.failure_stage} at every sigma")
    radius = cycle_config.cut_zone_radius
    offset = np.asarray(target.pedicel_3d, dtype=float) - plans.nominal_cut_center
    c = offset @ offset - radius * radius
    if not c <= 0.0:
        raise CalibrationFailed(
            f"systematic cut offset {np.linalg.norm(offset):.4g} m exceeds the "
            f"cut zone radius {radius:.4g} m")
    successes = round(target_rate * trials_per_eval)
    if abs(successes / trials_per_eval - target_rate) > tolerance:
        raise CalibrationFailed(
            f"{trials_per_eval} trials cannot resolve target {target_rate:.3f} "
            f"within {tolerance}")

    _, noise_rng = _streams(cycle_config.seed)
    z = noise_rng.standard_normal((trials_per_eval, 3))
    # s^2 |z|^2 - 2 s (z . d) + c = 0 with c = |d|^2 - R^2 <= 0
    zd = z @ offset
    zz = np.einsum("ij,ij->i", z, z)
    roots = np.sort((zd + np.sqrt(zd * zd - zz * c)) / zz)
    # exactly `successes` roots lie at or above any sigma in (lower, upper]
    bounds = np.concatenate(([0.0], roots, [np.inf]))
    lower = bounds[trials_per_eval - successes]
    upper = min(bounds[trials_per_eval - successes + 1], 5.0 * radius)
    if not lower < upper:
        raise CalibrationFailed(
            f"target {target_rate:.3f} needs sigma above {lower:.4g} m, beyond "
            f"5 x cut_zone_radius")
    return float(0.5 * (lower + upper))
