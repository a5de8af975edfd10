import hashlib
import math
import re
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import harvestcell.harvest as harvest
import harvestcell.mechanism as mechanism
from harvestcell.errors import (CalibrationFailed, ConfigError,
                                InfeasibleEndpoints, NoConvergence)
from harvestcell.harvest import (STAGES, MonteCarloSummary, PickCycleConfig,
                                 TOTAL_CYCLE_SECONDS, calibrate_noise,
                                 default_stage_means, monte_carlo, plan_cycle,
                                 run_pick_cycle)
from harvestcell.perception import TargetTomato, DetectionRecord, Keypoint
from harvestcell.planner import fitness, plan_trajectory


def _dummy_record():
    return DetectionRecord(label="ripe", score=0.9,
                           bbox=(0.0, 0.0, 10.0, 10.0),
                           center=Keypoint(5.0, 5.0, 0.9),
                           pedicel=Keypoint(5.0, 3.0, 0.9))


def _target(center, pedicel):
    return TargetTomato(center_3d=np.asarray(center, dtype=float),
                        pedicel_3d=np.asarray(pedicel, dtype=float),
                        ripeness="ripe", estimated_radius=0.035,
                        source=_dummy_record())


def offset_gaussian_in_sphere(delta: float, sigma: float, radius: float) -> float:
    """P(|d + sigma Z| <= R) for Z ~ N(0, I3), offset magnitude d = delta.

    Integrates the radial density of a 3-D isotropic Gaussian centred a
    distance delta from the origin; the central case falls back to the
    chi(3) distribution.
    """
    if sigma == 0.0:
        return 1.0 if delta <= radius else 0.0
    if delta == 0.0:
        x = radius / sigma
        return math.erf(x / math.sqrt(2.0)) \
            - math.sqrt(2.0 / math.pi) * x * math.exp(-x * x / 2.0)

    def density(r):
        return (r / (delta * sigma * math.sqrt(2.0 * math.pi))
                * (math.exp(-((r - delta) ** 2) / (2.0 * sigma ** 2))
                   - math.exp(-((r + delta) ** 2) / (2.0 * sigma ** 2))))

    value, _ = quad(density, 0.0, radius, limit=200)
    return value


def test_default_stage_means_sum_exactly():
    means = default_stage_means()
    assert set(means) == set(STAGES)
    assert all(m > 0.0 for m in means.values())
    assert sum(means.values()) == TOTAL_CYCLE_SECONDS
    assert TOTAL_CYCLE_SECONDS == 24.34  # the paper's cycle time


def test_pick_cycle_config_validation():
    with pytest.raises(ConfigError):
        PickCycleConfig(stage_time_stddev_frac=1.5)
    with pytest.raises(ConfigError):
        PickCycleConfig(cut_zone_radius=0.0)
    with pytest.raises(ConfigError):
        PickCycleConfig(stage_time_means={"approach": 1.0})


@pytest.mark.parametrize("field, value", [
    ("stage_time_means", {**default_stage_means(), "cut": math.inf}),
    ("stage_time_stddev_frac", math.nan),
    ("pose_noise_sigma", 1e300),
    ("cut_zone_radius", math.inf),
    ("cut_trigger_distance", math.inf),
    ("insertion_depth", math.inf),
    ("grasp_force", 1e300),
    ("grasp_theta_deg", math.nan),
    ("punnet_position", np.array([math.nan, -0.30, 0.30])),
    ("punnet_position", np.array([0.10, -0.30])),
    ("seed", -1),
    ("seed", 1.5),
    ("seed", True),
])
def test_pick_cycle_config_rejects_what_breaks_a_cycle(field, value):
    name = (re.escape("'stage_time_means.cut' must be in (0, 1e+100]")
            if field == "stage_time_means" else field)
    with pytest.raises(ConfigError, match=name):
        PickCycleConfig(**{field: value})


_CYCLE_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e300, math.nan, 1e100, math.inf, sys.float_info.max,
                     -1.0, 1e101, -math.inf, 5e-324, -0.0]))
_CYCLE_FIELDS = ("stage_time_means", "stage_time_stddev_frac",
                 "pose_noise_sigma", "cut_zone_radius", "cut_trigger_distance",
                 "insertion_depth", "grasp_force", "grasp_theta_deg",
                 "punnet_position", "seed")


@st.composite
def _cycle_override(draw):
    """(field, value) with the value drawn for that field's type."""
    field = draw(st.sampled_from(_CYCLE_FIELDS))
    if field == "seed":
        return field, draw(st.integers())
    value = draw(_CYCLE_FLOATS)
    if field == "stage_time_means":
        return field, {**default_stage_means(),
                       draw(st.sampled_from(STAGES)): value}
    if field == "punnet_position":
        punnet = np.array([0.10, -0.30, 0.30])
        punnet[draw(st.integers(0, 2))] = value
        return field, punnet
    return field, value


@settings(max_examples=200, deadline=None, derandomize=True)
@given(overrides=st.lists(_cycle_override(), min_size=1, max_size=2))
@example(overrides=[("stage_time_means",
                     {**default_stage_means(), "cut": 1e300})])
@example(overrides=[("stage_time_means",
                     {**default_stage_means(), "cut": 1e100}),
                    ("grasp_force", 1e100)])
def test_fuzzed_cycle_settings_rejected_or_finite(run_config, harvest_target,
                                                  harvest_plans, overrides):
    # a RuntimeWarning fails the test (pytest filterwarnings)
    try:
        cfg = replace(run_config.pick_cycle, **dict(overrides))
    except ConfigError as exc:
        assert "\n" not in str(exc)
        return
    args = (harvest_target, run_config.arm, run_config.scene, run_config.pso,
            cfg, 100, run_config.mechanism, harvest_plans)
    lo, hi = run_config.mechanism.theta_range
    if not lo <= cfg.grasp_theta_deg <= hi:
        with pytest.raises(ConfigError, match="grasp_theta_deg"):
            monte_carlo(*args)
        return
    summary, reports = monte_carlo(*args, collect_reports=True)
    stats = [summary.success_rate, summary.total_time_mean,
             summary.total_time_std, *summary.stage_time_mean.values(),
             *summary.stage_time_std.values()]
    stats += [r.total_time for r in reports]
    stats += [r.holding_torque_total for r in reports
              if r.holding_torque_total is not None]
    assert all(map(math.isfinite, stats))


def test_zero_noise_pedicel_at_cut_center(run_config, harvest_target,
                                          harvest_plans):
    # fixture geometry puts the pedicel at the nominal cut-zone center up to
    # float32 depth quantization
    cfg = replace(run_config.pick_cycle, pose_noise_sigma=0.0)
    report = run_pick_cycle(harvest_target, run_config.arm, run_config.scene,
                            run_config.pso, cfg, 0,
                            run_config.mechanism, harvest_plans)
    assert report.outcome == "success"
    assert report.pedicel_miss_distance < 1e-9
    assert report.holding_torque_total is not None


def test_zero_noise_exact_miss_geometry(run_config):
    # pedicel exactly on the commanded cut-zone center: miss is exactly zero
    cfg = replace(run_config.pick_cycle, pose_noise_sigma=0.0)
    center = np.array([0.45, 0.0, 0.40])
    ctd = cfg.cut_trigger_distance
    on_center = _target(center, center + np.array([0.0, 0.0, ctd]))
    report = run_pick_cycle(on_center, run_config.arm, run_config.scene,
                            run_config.pso, cfg, 0, run_config.mechanism)
    assert report.outcome == "success"
    assert report.pedicel_miss_distance == 0.0

    # pedicel placed cut_zone_radius + 0.01 beyond the zone center: miss
    off = ctd + cfg.cut_zone_radius + 0.01
    missed = _target(center, center + np.array([0.0, 0.0, off]))
    report = run_pick_cycle(missed, run_config.arm, run_config.scene,
                            run_config.pso, cfg, 0, run_config.mechanism)
    assert report.outcome == "fail_cut_missed"
    assert report.pedicel_miss_distance == pytest.approx(
        cfg.cut_zone_radius + 0.01, abs=1e-12)


def test_total_time_is_sum_of_executed_stages(run_config, harvest_target,
                                              harvest_plans):
    for seed in range(20):
        report = run_pick_cycle(harvest_target, run_config.arm,
                                run_config.scene, run_config.pso,
                                run_config.pick_cycle, seed,
                                run_config.mechanism, harvest_plans)
        total = sum(report.stage_timings[s] for s in STAGES
                    if s in report.stage_timings)
        assert abs(report.total_time - total) < 1e-12
        if report.outcome == "fail_cut_missed":
            assert set(report.stage_timings) == {"approach", "separate", "cut"}
        elif report.outcome == "success":
            assert set(report.stage_timings) == set(STAGES)


def test_run_pick_cycle_deterministic(run_config, harvest_target, harvest_plans):
    args = (harvest_target, run_config.arm, run_config.scene, run_config.pso,
            run_config.pick_cycle, 1234, run_config.mechanism, harvest_plans)
    first = run_pick_cycle(*args)
    second = run_pick_cycle(*args)
    assert first.stage_timings == second.stage_timings
    assert first.total_time == second.total_time
    assert first.outcome == second.outcome
    assert first.pedicel_miss_distance == second.pedicel_miss_distance


def test_monte_carlo_zero_noise_full_success(run_config, harvest_target,
                                             harvest_plans):
    cfg = replace(run_config.pick_cycle, pose_noise_sigma=0.0)
    summary = monte_carlo(harvest_target, run_config.arm, run_config.scene,
                          run_config.pso, cfg, 200, run_config.mechanism,
                          harvest_plans)
    assert summary.success_rate == 1.0
    assert summary.outcome_counts["success"] == 200


def test_monte_carlo_counts_partition(run_config, harvest_target, harvest_plans):
    summary = monte_carlo(harvest_target, run_config.arm, run_config.scene,
                          run_config.pso, run_config.pick_cycle, 500,
                          run_config.mechanism, harvest_plans)
    assert sum(summary.outcome_counts.values()) == summary.trials == 500
    assert summary.success_rate == summary.outcome_counts["success"] / 500


def test_monte_carlo_deterministic(run_config, harvest_target, harvest_plans):
    args = (harvest_target, run_config.arm, run_config.scene, run_config.pso,
            run_config.pick_cycle, 300, run_config.mechanism, harvest_plans)
    assert monte_carlo(*args) == monte_carlo(*args)


def test_monte_carlo_zero_time_variance_total(run_config, harvest_target,
                                              harvest_plans):
    cfg = replace(run_config.pick_cycle, pose_noise_sigma=0.0,
                  stage_time_stddev_frac=0.0)
    summary, reports = monte_carlo(harvest_target, run_config.arm,
                                   run_config.scene, run_config.pso, cfg, 50,
                                   run_config.mechanism, harvest_plans,
                                   collect_reports=True)
    assert all(r.total_time == TOTAL_CYCLE_SECONDS for r in reports)
    assert summary.total_time_mean == pytest.approx(TOTAL_CYCLE_SECONDS,
                                                    abs=1e-12)
    assert summary.total_time_std < 1e-12


def test_success_rate_monotone_in_sigma(run_config, harvest_target,
                                        harvest_plans):
    rates = []
    for sigma in (0.0, 0.002, 0.004, 0.008, 0.016):
        cfg = replace(run_config.pick_cycle, pose_noise_sigma=sigma)
        summary = monte_carlo(harvest_target, run_config.arm, run_config.scene,
                              run_config.pso, cfg, 2000, run_config.mechanism,
                              harvest_plans)
        rates.append(summary.success_rate)
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert rates[0] == 1.0


def test_cut_statistics_match_offset_gaussian(run_config):
    # noncentral case: pedicel 4 mm beyond the commanded cut center
    cfg = replace(run_config.pick_cycle, pose_noise_sigma=0.005)
    center = np.array([0.45, 0.0, 0.40])
    delta = 0.004
    target = _target(center, center + np.array(
        [0.0, 0.0, cfg.cut_trigger_distance + delta]))
    trials = 20000
    summary = monte_carlo(target, run_config.arm, run_config.scene,
                          run_config.pso, cfg, trials, run_config.mechanism)
    analytic = offset_gaussian_in_sphere(delta, cfg.pose_noise_sigma,
                                         cfg.cut_zone_radius)
    band = 3.0 * math.sqrt(analytic * (1.0 - analytic) / trials)
    assert abs(summary.success_rate - analytic) < band


def test_calibrate_noise_reaches_target(run_config, harvest_target,
                                        harvest_plans):
    sigma = calibrate_noise(harvest_target, run_config.arm, run_config.scene,
                            run_config.pso, run_config.pick_cycle, 0.80,
                            trials_per_eval=800)
    cfg = replace(run_config.pick_cycle, pose_noise_sigma=sigma, seed=20260810)
    summary = monte_carlo(harvest_target, run_config.arm, run_config.scene,
                          run_config.pso, cfg, 1000, run_config.mechanism,
                          harvest_plans)
    assert 0.75 <= summary.success_rate <= 0.85


def test_calibrate_noise_extreme_target_gives_small_sigma(run_config,
                                                          harvest_target,
                                                          harvest_plans):
    sigma = calibrate_noise(harvest_target, run_config.arm, run_config.scene,
                            run_config.pso, run_config.pick_cycle, 0.999,
                            trials_per_eval=200, tolerance=0.005)
    assert sigma < run_config.pick_cycle.cut_zone_radius / 2.0


def test_calibrate_noise_bracket_failure(run_config, harvest_target,
                                         harvest_plans):
    # even the largest sigma (5x the zone radius) keeps ~0.2% of cuts inside
    # the zone, which stays above a tiny enough target rate
    with pytest.raises(CalibrationFailed):
        calibrate_noise(harvest_target, run_config.arm, run_config.scene,
                        run_config.pso, run_config.pick_cycle, 0.0005,
                        trials_per_eval=5000)


def _refuse(*args, **kwargs):
    raise AssertionError("a checked argument reached planning")


def test_monte_carlo_rejects_trials_past_bound(monkeypatch, run_config,
                                               harvest_target):
    # refused before planning, and before the (trials, 3) noise block
    monkeypatch.setattr(harvest, "plan_cycle", _refuse)
    for trials in (harvest._MAX_TRIALS + 1, 10**14):
        with pytest.raises(ConfigError, match=f"trials must be <= "
                                              f"{harvest._MAX_TRIALS}, got {trials}"):
            monte_carlo(harvest_target, run_config.arm, run_config.scene,
                        run_config.pso, run_config.pick_cycle, trials)


@pytest.mark.parametrize("theta, sigma", [(120.5, 0.0046), (-1.0, 0.5)])
def test_monte_carlo_rejects_grasp_angle_outside_mechanism(
        monkeypatch, run_config, harvest_target, theta, sigma):
    # refused before planning, also when no trial would reach the grasp
    monkeypatch.setattr(harvest, "plan_cycle", _refuse)
    cfg = replace(run_config.pick_cycle, grasp_theta_deg=theta,
                  pose_noise_sigma=sigma)
    with pytest.raises(ConfigError, match="grasp_theta_deg"):
        monte_carlo(harvest_target, run_config.arm, run_config.scene,
                    run_config.pso, cfg, 10, run_config.mechanism)


@pytest.mark.parametrize("field, value", [
    ("tolerance", math.nan),
    ("tolerance", -1.0),
    ("tolerance", math.inf),
    ("trials_per_eval", harvest._MAX_TRIALS + 1),
    ("trials_per_eval", 10**13),
])
def test_calibrate_noise_checks_arguments_before_planning(
        monkeypatch, run_config, harvest_target, field, value):
    monkeypatch.setattr(harvest, "plan_cycle", _refuse)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=field):
            calibrate_noise(harvest_target, run_config.arm, run_config.scene,
                            run_config.pso, run_config.pick_cycle, 0.80,
                            **{field: value})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # no trial-sized block


def test_plan_cycle_bytes_pinned(harvest_plans):
    # SHA-256 of the shipped target's cycle plans (IK answers, both plans'
    # waypoints and fitness) at the shipped PSO seed, as each swarm stops
    # once its feasible best stagnated (approach after 57 iterations, depart
    # after 69) (numpy 2.x, x86-64). Taken when IK moved onto Python floats:
    # the IK answers moved by rounding (under 1e-15 rad) and the plans
    # between them with them, at the same stop iterations.
    digest = hashlib.sha256()
    for array in (harvest_plans.q_pregrasp, harvest_plans.q_grasp,
                  harvest_plans.q_punnet,
                  harvest_plans.approach_trajectory.waypoints,
                  harvest_plans.depart_trajectory.waypoints):
        digest.update(np.asarray(array).tobytes())
    for trajectory in (harvest_plans.approach_trajectory,
                       harvest_plans.depart_trajectory):
        digest.update(np.float64(trajectory.fitness).tobytes())
    assert digest.hexdigest() == (
        "90e16a833a7112211f70e38e41ad3ba85d388b6ee1f1bb7a4a34c9908c0a7be1")


def _failing_ik(monkeypatch, fails):
    """Make solve_ik_point raise NoConvergence where fails(position)."""
    real = harvest.solve_ik_point

    def solve(chain, position, *args):
        if fails(np.asarray(position)):
            raise NoConvergence(None, 1.0, 1.0, ())
        return real(chain, position, *args)

    monkeypatch.setattr(harvest, "solve_ik_point", solve)


def test_approach_plan_failure_precedes_grasp_ik_failure(
        monkeypatch, run_config, harvest_target):
    # grasp IK fails and the approach plan fails: the approach is reported
    _failing_ik(monkeypatch,
                lambda p: np.array_equal(p, harvest_target.center_3d))
    batches = []

    def blocked(chain, problems, config, **kwargs):
        batches.append(len(problems))
        return [InfeasibleEndpoints("blocked")] * len(problems)

    monkeypatch.setattr(harvest, "plan_trajectories", blocked)
    plans = plan_cycle(harvest_target, run_config.arm, run_config.scene,
                       run_config.pso, run_config.pick_cycle)
    assert (plans.failure_stage, plans.failure_outcome) == ("approach",
                                                            "fail_no_plan")
    assert plans.q_pregrasp is not None
    assert plans.q_grasp is None and plans.approach_trajectory is None
    assert batches == [1]  # no depart without a grasp


@pytest.mark.parametrize("ik_fails, plan_fails, stage, outcome", [
    ("grasp", (), "separate", "fail_unreachable"),
    ("grasp", (1,), "separate", "fail_unreachable"),
    ("punnet", (), "depart", "fail_unreachable"),
    (None, (1,), "depart", "fail_no_plan"),
    (None, (0, 1), "approach", "fail_no_plan"),
    (None, (), None, None),
])
def test_plan_cycle_reports_first_failure_in_cycle_order(
        monkeypatch, run_config, harvest_target, ik_fails, plan_fails, stage,
        outcome):
    cycle = run_config.pick_cycle
    where = {"grasp": harvest_target.center_3d, "punnet": cycle.punnet_position}
    _failing_ik(monkeypatch, lambda p: ik_fails is not None
                and np.array_equal(p, where[ik_fails]))
    plans_made = []

    def planner(chain, problems, config, **kwargs):
        plans_made.append(len(problems))
        return [InfeasibleEndpoints("blocked") if k in plan_fails else object()
                for k in range(len(problems))]

    monkeypatch.setattr(harvest, "plan_trajectories", planner)
    plans = plan_cycle(harvest_target, run_config.arm, run_config.scene,
                       run_config.pso, cycle)
    assert (plans.failure_stage, plans.failure_outcome) == (stage, outcome)
    assert plans_made == [1 if ik_fails else 2]
    assert (plans.approach_trajectory is None) == (0 in plan_fails)
    assert (plans.depart_trajectory is None) == (stage is not None)
    # the cut runs before depart, so a depart failure keeps its center
    assert (plans.nominal_cut_center is None) == (stage in ("approach",
                                                            "separate"))


def test_punnet_ik_failure_keeps_lone_approach_plan(monkeypatch, run_config,
                                                    harvest_target):
    cycle = run_config.pick_cycle
    pso = replace(run_config.pso, swarm_size=12, iterations=40)
    _failing_ik(monkeypatch,
                lambda p: np.array_equal(p, cycle.punnet_position))
    plans = plan_cycle(harvest_target, run_config.arm, run_config.scene, pso,
                       cycle)
    assert (plans.failure_stage, plans.failure_outcome) == ("depart",
                                                            "fail_unreachable")
    assert plans.q_grasp is not None and plans.q_punnet is None
    assert plans.depart_trajectory is None
    assert plans.nominal_cut_center is not None
    lone = plan_trajectory(run_config.arm, run_config.arm.home_q,
                           plans.q_pregrasp, run_config.scene, pso)
    assert np.array_equal(plans.approach_trajectory.waypoints, lone.waypoints)
    assert plans.approach_trajectory.fitness == lone.fitness
    assert plans.approach_trajectory.gbest_trace == lone.gbest_trace


def test_unreachable_target_counts_as_unreachable(run_config):
    target = _target([2.0, 0.0, 0.4], [2.0, 0.0, 0.42])
    summary = monte_carlo(target, run_config.arm, run_config.scene,
                          run_config.pso, run_config.pick_cycle, 5,
                          run_config.mechanism)
    assert summary.outcome_counts["fail_unreachable"] == 5
    assert summary.success_rate == 0.0
    assert summary.total_time_mean == 0.0


def _report_fields(report):
    return (report.stage_timings, report.total_time, report.outcome,
            report.pedicel_miss_distance, report.holding_torque_total)


@pytest.mark.parametrize("seed", [0, 1234, 2**40 + 7])
def test_run_pick_cycle_is_a_batch_of_one(run_config, harvest_target,
                                          harvest_plans, seed):
    cfg = replace(run_config.pick_cycle, pose_noise_sigma=0.006)
    report = run_pick_cycle(harvest_target, run_config.arm, run_config.scene,
                            run_config.pso, cfg, seed, run_config.mechanism,
                            harvest_plans)
    _, rows = monte_carlo(harvest_target, run_config.arm, run_config.scene,
                          run_config.pso, replace(cfg, seed=seed), 1,
                          run_config.mechanism, harvest_plans,
                          collect_reports=True)
    assert _report_fields(report) == _report_fields(rows[0])


def _reference_cycle(plans, target, cfg, durations, noise):
    """The per-trial state machine that the batch kernel replaced, fed one
    row of the duration block and one row of the noise block."""
    timings = {}

    def run(stage):
        timings[stage] = durations[STAGES.index(stage)]

    if plans.failure_stage == "approach":
        return timings, plans.failure_outcome, None
    run("approach")
    if plans.failure_stage == "separate":
        return timings, plans.failure_outcome, None
    run("separate")
    run("cut")
    achieved = plans.nominal_cut_center + cfg.pose_noise_sigma * noise
    miss = float(np.linalg.norm(target.pedicel_3d - achieved))
    if miss > cfg.cut_zone_radius:
        return timings, "fail_cut_missed", miss
    run("grasp")
    if plans.failure_stage == "depart":
        return timings, plans.failure_outcome, miss
    run("depart")
    run("release")
    return timings, "success", miss


@pytest.mark.parametrize("failure_stage, failure_outcome", [
    (None, None),
    ("approach", "fail_unreachable"),
    ("separate", "fail_unreachable"),
    ("depart", "fail_no_plan"),
])
def test_batch_matches_per_trial_state_machine(run_config, harvest_target,
                                               harvest_plans, failure_stage,
                                               failure_outcome):
    plans = replace(harvest_plans, failure_stage=failure_stage,
                    failure_outcome=failure_outcome)
    cfg = replace(run_config.pick_cycle, pose_noise_sigma=0.006, seed=77)
    trials = 300
    summary, reports = monte_carlo(harvest_target, run_config.arm,
                                   run_config.scene, run_config.pso, cfg,
                                   trials, run_config.mechanism, plans,
                                   collect_reports=True)
    # the stream contract: one (trials, 6) duration block, one (trials, 3)
    # noise block, spawned from the batch seed
    time_ss, noise_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    means = np.array([cfg.stage_time_means[s] for s in STAGES])
    frac = cfg.stage_time_stddev_frac
    durations = means + frac * means * np.random.default_rng(
        time_ss).standard_normal((trials, len(STAGES)))
    assert np.all(durations > 0.0)  # no redraws at this spread
    noise = np.random.default_rng(noise_ss).standard_normal((trials, 3))

    counts = {}
    for report, row, z in zip(reports, durations, noise):
        timings, outcome, miss = _reference_cycle(plans, harvest_target, cfg,
                                                  row, z)
        assert report.stage_timings == timings
        assert report.outcome == outcome
        if miss is None:
            assert report.pedicel_miss_distance is None
        else:
            assert report.pedicel_miss_distance == pytest.approx(
                miss, rel=1e-14, abs=1e-18)
        assert (report.holding_torque_total is not None) == ("grasp" in timings)
        total = 0.0
        for stage in STAGES:
            total += timings.get(stage, 0.0)
        assert report.total_time == total
        counts[outcome] = counts.get(outcome, 0) + 1
    assert {k: v for k, v in summary.outcome_counts.items() if v} == counts
    if failure_stage is None:
        assert 0 < counts["success"] < trials
    elif failure_stage == "depart":
        assert 0 < counts["fail_no_plan"] < trials
    else:
        assert counts == {failure_outcome: trials}


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("sigma, failure_stage, expected_calls", [
    (0.0046, None, 1),
    (0.0, None, 1),
    (0.0046, "approach", 0),
])
def test_monte_carlo_computes_torque_at_most_once(
        monkeypatch, run_config, harvest_target, harvest_plans, sigma,
        failure_stage, expected_calls):
    plans = replace(harvest_plans, failure_stage=failure_stage,
                    failure_outcome=failure_stage and "fail_unreachable")
    calls = _counting(monkeypatch, mechanism, "torque_single_finger")
    cfg = replace(run_config.pick_cycle, pose_noise_sigma=sigma)
    _, reports = monte_carlo(harvest_target, run_config.arm, run_config.scene,
                             run_config.pso, cfg, 500, run_config.mechanism,
                             plans, collect_reports=True)
    assert len(calls) == expected_calls
    torques = {r.holding_torque_total for r in reports} - {None}
    assert len(torques) == expected_calls


@pytest.mark.parametrize("offset, rate, trials", [
    (0.0, 0.80, 1000),
    (0.0, 0.35, 777),
    (0.004, 0.80, 500),
    (0.009, 0.20, 1000),
])
def test_calibrated_sigma_reproduces_order_statistic_count(
        monkeypatch, run_config, harvest_target, harvest_plans, offset, rate,
        trials):
    # plans for the shipped target, with the pedicel moved along the
    # approach axis: a systematic cut offset of `offset` metres
    axis = harvest_target.pedicel_3d - harvest_target.center_3d
    target = replace(harvest_target, pedicel_3d=harvest_target.pedicel_3d
                     + offset * axis / np.linalg.norm(axis))
    monkeypatch.setattr(harvest, "plan_cycle", lambda *args, **kwargs: harvest_plans)
    mc_calls = _counting(monkeypatch, harvest, "monte_carlo")
    cfg = replace(run_config.pick_cycle, seed=4242)
    sigma = calibrate_noise(target, run_config.arm, run_config.scene,
                            run_config.pso, cfg, rate, trials_per_eval=trials)
    assert mc_calls == []
    summary = monte_carlo(target, run_config.arm, run_config.scene,
                          run_config.pso, replace(cfg, pose_noise_sigma=sigma),
                          trials, run_config.mechanism, harvest_plans)
    assert summary.outcome_counts["success"] == round(rate * trials)


def test_calibrate_noise_reuses_given_plans(monkeypatch, run_config,
                                            harvest_target, harvest_plans):
    plan_calls = _counting(monkeypatch, harvest, "plan_cycle")
    sigma = calibrate_noise(harvest_target, run_config.arm, run_config.scene,
                            run_config.pso, run_config.pick_cycle, 0.80,
                            trials_per_eval=1000, plans=harvest_plans)
    assert plan_calls == []
    monkeypatch.setattr(harvest, "plan_cycle", lambda *args, **kwargs: harvest_plans)
    assert sigma == calibrate_noise(harvest_target, run_config.arm,
                                    run_config.scene, run_config.pso,
                                    run_config.pick_cycle, 0.80,
                                    trials_per_eval=1000)


def test_calibrate_noise_rejects_offset_outside_cut_zone(monkeypatch,
                                                         run_config,
                                                         harvest_target,
                                                         harvest_plans):
    # |d| > R: the success rate is no longer monotone in sigma
    radius = run_config.pick_cycle.cut_zone_radius
    axis = harvest_target.pedicel_3d - harvest_target.center_3d
    target = replace(harvest_target, pedicel_3d=harvest_target.pedicel_3d
                     + 1.2 * radius * axis / np.linalg.norm(axis))
    monkeypatch.setattr(harvest, "plan_cycle", lambda *args, **kwargs: harvest_plans)
    with pytest.raises(CalibrationFailed, match="offset"):
        calibrate_noise(target, run_config.arm, run_config.scene,
                        run_config.pso, run_config.pick_cycle, 0.05)


def test_monte_carlo_bytes_pinned(run_config, harvest_target, harvest_plans):
    # SHA-256 over repr of every summary field and every report field for
    # a grid of sigma x trials x systematic cut offset x plans, taken at
    # commit 71b8fdd, before reports were built column-wise and the stage
    # statistics were taken in one pass (numpy 2.x, x86-64)
    axis = harvest_target.pedicel_3d - harvest_target.center_3d
    axis = axis / np.linalg.norm(axis)
    plan_variants = (harvest_plans,
                     replace(harvest_plans, failure_stage="depart",
                             failure_outcome="fail_no_plan"),
                     replace(harvest_plans, failure_stage="approach",
                             failure_outcome="fail_unreachable"))
    digest = hashlib.sha256()
    successes = set()
    seed = 11
    for offset in (0.0, 0.005):  # 0.005: criterion 08's offset
        target = replace(harvest_target,
                         pedicel_3d=harvest_target.pedicel_3d + offset * axis)
        for plans in plan_variants:
            for sigma in (0.0, 0.0046, 0.05):
                for trials in (1, 2, 1000):
                    seed += 1
                    cfg = replace(run_config.pick_cycle,
                                  pose_noise_sigma=sigma, seed=seed)
                    summary, reports = monte_carlo(
                        target, run_config.arm, run_config.scene,
                        run_config.pso, cfg, trials, run_config.mechanism,
                        plans, collect_reports=True)
                    successes.add(min(summary.outcome_counts["success"], 2))
                    for name in MonteCarloSummary.__dataclass_fields__:
                        digest.update(repr(getattr(summary, name)).encode())
                    for report in reports:
                        for value in _report_fields(report):
                            digest.update(repr(value).encode())
    assert successes == {0, 1, 2}  # no, one and many successful trials
    assert digest.hexdigest() == (
        "c4a5202100783e824ab4c4b717acb9816b3db3989bced040d4defd0f30695790")


@pytest.mark.parametrize("pso_seed", range(11, 16))
def test_first_feasible_cycle_keeps_every_decision(run_config, harvest_target,
                                                   pso_seed):
    chain, scene = run_config.arm, run_config.scene
    pso = replace(run_config.pso, seed=pso_seed)
    args = (harvest_target, chain, scene, pso, run_config.pick_cycle)
    full = plan_cycle(*args)
    fast = plan_cycle(*args, first_feasible=True)
    assert (fast.failure_stage, fast.failure_outcome) == (
        full.failure_stage, full.failure_outcome)
    for name in ("nominal_cut_center", "q_pregrasp", "q_grasp", "q_punnet"):
        assert np.array_equal(getattr(fast, name), getattr(full, name))
    after = scene.without_sphere_containing(harvest_target.center_3d)
    for trajectory, start, goal, seen in (
            (fast.approach_trajectory, chain.home_q, fast.q_pregrasp, scene),
            (fast.depart_trajectory, fast.q_pregrasp, fast.q_punnet, after)):
        assert np.array_equal(trajectory.waypoints[0], start)
        assert np.array_equal(trajectory.waypoints[-1], goal)
        breakdown = fitness(trajectory, chain, seen, pso)
        assert breakdown.colliding_samples == 0
        assert breakdown.limit_penalty == 0.0
    # the shipped cell's swarms start with a collision-free global best
    assert len(fast.approach_trajectory.gbest_trace) == 1


@pytest.mark.parametrize("batch_seed", [7, 2024])
def test_monte_carlo_without_plans_matches_full_plans(
        monkeypatch, run_config, harvest_target, harvest_plans, batch_seed):
    calls = _counting(monkeypatch, harvest, "plan_trajectories")
    for sigma in (0.0, 0.0046, 0.05):
        cfg = replace(run_config.pick_cycle, pose_noise_sigma=sigma,
                      seed=batch_seed)
        args = (harvest_target, run_config.arm, run_config.scene,
                run_config.pso, cfg, 1000, run_config.mechanism)
        assert (monte_carlo(*args, collect_reports=True)
                == monte_carlo(*args, harvest_plans, collect_reports=True))
    # planned on every call, nothing cached
    assert calls == [{"first_feasible": True}] * 3


def test_calibrate_noise_without_plans_matches_full_plans(
        monkeypatch, run_config, harvest_target, harvest_plans):
    calls = _counting(monkeypatch, harvest, "plan_trajectories")
    args = (harvest_target, run_config.arm, run_config.scene, run_config.pso,
            run_config.pick_cycle, 0.80)
    assert (calibrate_noise(*args, trials_per_eval=1000)
            == calibrate_noise(*args, trials_per_eval=1000,
                               plans=harvest_plans))
    assert calls == [{"first_feasible": True}]
