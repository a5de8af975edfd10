import math
from dataclasses import replace

import numpy as np
import pytest

import harvestcell.mechanism as mechanism
from harvestcell.errors import (ConfigError, DegenerateGeometry, NearSingular,
                                NoAssembly)
from harvestcell.mechanism import (BRANCHES, FingerSolution, MechanismParams,
                                   closure_residual, contact_point,
                                   force_torque_curve,
                                   solve_finger_position, sweep_positions,
                                   torque_single_finger, xi_derivative)

# Frozen oracle values for the default parameters at theta = 0, elbow_up.
# beta/xi from a 1e-4-degree grid scan over beta minimizing the closure
# violation |hypot(A - e cos(beta), B + e sin(beta)) - d|; the grid located
# the minimum at beta = 9.3808 deg, xi = 58.96229 deg.
ORACLE_BETA_DEG = 9.3808
ORACLE_XI_DEG = 58.96229
GRID_RESOLUTION_DEG = 1e-4

# Frozen high-precision evaluation (50-digit arithmetic) of the contact
# point at theta = 30 deg, elbow_up, default parameters.
ORACLE_X_M_30 = 51.868601262251289
ORACLE_Y_M_30 = 65.532358095347329


def test_solution_matches_grid_scan_oracle(params):
    sol = solve_finger_position(params, 0.0, "elbow_up")
    assert sol.beta == pytest.approx(ORACLE_BETA_DEG, abs=2 * GRID_RESOLUTION_DEG)
    assert sol.xi == pytest.approx(ORACLE_XI_DEG, abs=2 * GRID_RESOLUTION_DEG)
    res = closure_residual(params, sol)
    assert abs(res[0]) < 1e-9 and abs(res[1]) < 1e-9


@pytest.mark.parametrize("branch", BRANCHES)
def test_closure_residual_over_sweep(params, branch):
    lo, hi = params.theta_range
    for theta in np.arange(lo, hi + 1e-9, 1.0):
        sol = solve_finger_position(params, float(theta), branch)
        res = closure_residual(params, sol)
        assert abs(res[0]) < 1e-9 and abs(res[1]) < 1e-9


def test_no_assembly_when_rocker_too_long(params):
    sol = solve_finger_position(params, 0.0)
    too_long = replace(params, d=sol.k + params.e + 10.0)
    with pytest.raises(NoAssembly):
        solve_finger_position(too_long, 0.0)


def test_theta_outside_range_rejected(params):
    with pytest.raises(ValueError, match="theta_range"):
        solve_finger_position(params, 200.0)


def test_degenerate_diagonal():
    # b = c and r cos(0) + f - a = 0 collapse the diagonal at theta = 0
    params = MechanismParams(r=20.0, f=10.0, a=30.0, b=5.0, c=5.0,
                             d=30.0, e=35.0, theta_range=(0.0, 120.0))
    with pytest.raises(DegenerateGeometry):
        solve_finger_position(params, 0.0)


def test_param_invariants():
    with pytest.raises(ConfigError):
        MechanismParams(r=-1.0)
    with pytest.raises(ConfigError):
        MechanismParams(theta_range=(90.0, 10.0))
    with pytest.raises(ConfigError):
        MechanismParams(finger_count=0)


def test_contact_point_special_angles(params):
    x, y = contact_point(params, 90.0, 90.0)
    assert x == pytest.approx(params.l_s, abs=1e-12)
    assert y == pytest.approx(params.l_p + params.l_dm, abs=1e-12)
    x, y = contact_point(params, 0.0, 0.0)
    assert x == pytest.approx(params.r + params.l_s + params.l_dm, abs=1e-12)
    assert y == pytest.approx(params.l_p, abs=1e-12)


def test_contact_point_matches_high_precision_oracle(params):
    sol = solve_finger_position(params, 30.0, "elbow_up")
    assert sol.x_m == pytest.approx(ORACLE_X_M_30, abs=1e-9)
    assert sol.y_m == pytest.approx(ORACLE_Y_M_30, abs=1e-9)


def test_xi_derivative_analytic_vs_finite_difference(params):
    analytic = xi_derivative(params, 45.0, method="analytic")
    fd = xi_derivative(params, 45.0, method="finite-difference")
    assert abs(analytic - fd) / abs(fd) < 1e-6


def test_xi_derivative_scale_invariant(params):
    base = xi_derivative(params, 45.0)
    doubled = xi_derivative(params.scaled(2.0), 45.0)
    assert doubled == pytest.approx(base, abs=1e-14)


def test_near_singular_at_assembly_boundary():
    # With b = c the diagonal angle is zero and k = r cos(theta) + f - a;
    # choosing e + d = k at theta = acos(0.75) puts the acos argument at 1.
    params = MechanismParams(r=20.0, f=40.0, a=10.0, b=5.0, c=5.0,
                             d=25.0, e=20.0, theta_range=(0.0, 120.0))
    theta = math.degrees(math.acos(0.75))
    sol = solve_finger_position(params, theta)
    res = closure_residual(params, sol)
    assert abs(res[0]) < 1e-9 and abs(res[1]) < 1e-9
    with pytest.raises(NearSingular):
        xi_derivative(params, theta)


def test_torque_zero_force(params):
    result = torque_single_finger(params, 45.0, 0.0)
    assert result.torque_single == 0.0
    assert result.torque_total == 0.0


def test_torque_at_zero_theta_has_no_crank_term(params):
    result = torque_single_finger(params, 0.0, 5.0)
    sol = solve_finger_position(params, 0.0)
    dxi = xi_derivative(params, 0.0)
    expected = 5.0 * params.l_dm * math.sin(math.radians(sol.xi)) * dxi
    assert result.torque_single == pytest.approx(expected, rel=1e-15)


def _virtual_work_torque(params, theta_deg, force_p, branch="elbow_up"):
    """Oracle: T = -P dx_m/dtheta by central difference, in radians."""
    h_rad = 1e-5
    h_deg = math.degrees(h_rad)
    x_plus = solve_finger_position(params, theta_deg + h_deg, branch).x_m
    x_minus = solve_finger_position(params, theta_deg - h_deg, branch).x_m
    return -force_p * (x_plus - x_minus) / (2.0 * h_rad)


def test_torque_matches_virtual_work_oracle(params):
    got = torque_single_finger(params, 45.0, 5.0).torque_single
    oracle = _virtual_work_torque(params, 45.0, 5.0)
    assert abs(got - oracle) / abs(oracle) < 1e-6


def test_torque_oracle_at_random_samples(params):
    rng = np.random.default_rng(7)
    lo, hi = params.theta_range
    for _ in range(50):
        theta = float(rng.uniform(lo + 1.0, hi - 1.0))
        force = float(rng.uniform(0.5, 20.0))
        got = torque_single_finger(params, theta, force).torque_single
        oracle = _virtual_work_torque(params, theta, force)
        assert abs(got - oracle) / abs(oracle) < 1e-6


def test_torque_total_is_finger_count_times_single(params):
    for theta in np.arange(*params.theta_range, 5.0):
        result = torque_single_finger(params, float(theta), 3.0)
        assert result.torque_total == params.finger_count * result.torque_single


def test_torque_homogeneous_in_force(params):
    base = torque_single_finger(params, 37.0, 4.0).torque_single
    doubled = torque_single_finger(params, 37.0, 8.0).torque_single
    assert doubled == 2.0 * base


def test_torque_scales_with_length(params):
    base = torque_single_finger(params, 50.0, 5.0).torque_single
    doubled = torque_single_finger(params.scaled(2.0), 50.0, 5.0).torque_single
    assert doubled == pytest.approx(2.0 * base, rel=1e-14)
    tripled = torque_single_finger(params.scaled(3.0), 50.0, 5.0).torque_single
    assert tripled == pytest.approx(3.0 * base, rel=1e-12)


def test_full_virtual_work_variant_differs(params):
    printed = torque_single_finger(params, 45.0, 5.0)
    full = torque_single_finger(params, 45.0, 5.0, include_vertical_term=True)
    dxi = printed.dxi_dtheta
    sol = solve_finger_position(params, 45.0)
    extra = -5.0 * params.l_dm * math.cos(math.radians(sol.xi)) * dxi
    assert full.torque_single == pytest.approx(
        printed.torque_single + extra, rel=1e-12)


def test_force_torque_curve_linearity(params):
    curve = force_torque_curve(params, 45.0, 0.0, 20.0, 21)
    forces = np.array([r.force_p for r in curve])
    torques = np.array([r.torque_single for r in curve])
    slope, intercept = np.polyfit(forces, torques, 1)
    fit = slope * forces + intercept
    residual = np.abs(torques - fit).max() / np.abs(torques).max()
    assert residual < 1e-12
    assert abs(intercept) < 1e-9
    unit = torque_single_finger(params, 45.0, 1.0).torque_single
    assert slope == pytest.approx(unit, rel=1e-12)


def test_force_torque_curve_constant_when_pmin_equals_pmax(params):
    curve = force_torque_curve(params, 30.0, 5.0, 5.0, 4)
    assert len(curve) == 4
    assert all(r.torque_single == curve[0].torque_single for r in curve)


def test_closure_residual_perturbation(params):
    sol = solve_finger_position(params, 20.0)
    perturbed = replace(sol, beta=sol.beta + 1.0)
    res = closure_residual(params, perturbed)
    assert math.hypot(*res) > 1e-3


def test_closure_residual_locally_linear(params):
    sol = solve_finger_position(params, 20.0)
    norms = []
    for delta in (0.01, 0.005):
        res = closure_residual(params, replace(sol, beta=sol.beta + delta))
        norms.append(math.hypot(*res))
    ratio = norms[1] / norms[0]
    assert abs(ratio - 0.5) < 0.05


def test_branch_continuity_over_fine_sweep(params):
    lo, hi = params.theta_range
    betas = [sol.beta for _, sol in sweep_positions(params, lo, hi, 0.1)
             if sol is not None]
    assert len(betas) == 1201
    jumps = np.abs(np.diff(betas))
    assert jumps.max() < 5.0


def test_sweep_crossing_assembly_boundary():
    # same geometry as the near-singular test: theta below ~41.4 deg cannot
    # close, above it can
    params = MechanismParams(r=20.0, f=40.0, a=10.0, b=5.0, c=5.0,
                             d=25.0, e=20.0, theta_range=(0.0, 120.0))
    rows = list(sweep_positions(params, 0.0, 120.0, 1.0))
    missing = [theta for theta, sol in rows if sol is None]
    solved = [theta for theta, sol in rows if sol is not None]
    assert missing and solved
    assert max(missing) < min(solved)


def _reference_solve(params, theta_deg, branch):
    """Position solution as written before the loop closure had one home."""
    sign = 1.0 if branch == "elbow_up" else -1.0
    th = math.radians(theta_deg)
    big_a, big_b = params.r * math.cos(th) + params.f - params.a, params.c - params.b
    k = math.hypot(big_a, big_b)
    if k < 1e-12:
        raise DegenerateGeometry(
            f"linkage diagonal collapses at theta={theta_deg:.6g} deg"
        )
    u = math.atan2(big_b, big_a)
    arg = (k * k + params.e * params.e - params.d * params.d) / (2.0 * params.e * k)
    if abs(arg) > 1.0 + 1e-12:
        raise NoAssembly(theta_deg, arg)
    arg = max(-1.0, min(1.0, arg))
    beta = -u + sign * math.acos(arg)
    xi = math.atan2(big_b + params.e * math.sin(beta),
                    big_a - params.e * math.cos(beta))
    x_m, y_m = contact_point(params, theta_deg, math.degrees(xi))
    return FingerSolution(theta=theta_deg, beta=math.degrees(beta),
                          xi=math.degrees(xi), k=k, u=math.degrees(u),
                          x_m=x_m, y_m=y_m, branch=branch)


def _reference_dxi(params, theta_deg, branch):
    """Analytic d(xi)/d(theta) as written before the loop closure had one home."""
    sign = 1.0 if branch == "elbow_up" else -1.0
    th = math.radians(theta_deg)
    big_a, big_b = params.r * math.cos(th) + params.f - params.a, params.c - params.b
    k = math.hypot(big_a, big_b)
    if k < 1e-12:
        raise DegenerateGeometry(
            f"linkage diagonal collapses at theta={theta_deg:.6g} deg"
        )
    arg = (k * k + params.e * params.e - params.d * params.d) / (2.0 * params.e * k)
    if abs(arg) > 1.0 + 1e-12:
        raise NoAssembly(theta_deg, arg)
    if 1.0 - abs(arg) <= 1e-9:
        raise NearSingular(theta_deg, arg)
    da = -params.r * math.sin(th)
    dk = big_a * da / k
    du = -big_b * da / (k * k)
    darg = dk * (k * k - params.e * params.e + params.d * params.d) \
        / (2.0 * params.e * k * k)
    dbeta = -du - sign * darg / math.sqrt(1.0 - arg * arg)
    beta = -math.atan2(big_b, big_a) + sign * math.acos(max(-1.0, min(1.0, arg)))
    num = big_b + params.e * math.sin(beta)
    den = big_a - params.e * math.cos(beta)
    dnum = params.e * math.cos(beta) * dbeta
    dden = da + params.e * math.sin(beta) * dbeta
    return (dnum * den - num * dden) / (params.d * params.d)


def _reference_torque(params, theta_deg, force_p, branch):
    xi = math.radians(_reference_solve(params, theta_deg, branch).xi)
    dxi = _reference_dxi(params, theta_deg, branch)
    return (force_p * params.l_dm * math.sin(xi) * dxi
            + force_p * params.r * math.sin(math.radians(theta_deg)))


def _outcome(fn, *args):
    """A call's value, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (DegenerateGeometry, NoAssembly, NearSingular) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("params", [
    pytest.param(MechanismParams(), id="defaults"),
    pytest.param(MechanismParams().scaled(2.0), id="scaled"),
    pytest.param(MechanismParams(r=20.0, f=40.0, a=10.0, b=5.0, c=5.0, d=25.0,
                                 e=20.0, theta_range=(0.0, 120.0)),
                 id="assembly-boundary"),
])
def test_closure_matches_reference_formulas(params):
    """The one closure solve reproduces the former solver, derivative and
    torque bit for bit, raises included."""
    for branch in BRANCHES:
        for theta in np.arange(0.0, 120.0 + 1e-9, 0.5):
            theta = float(theta)
            assert _outcome(solve_finger_position, params, theta, branch) \
                == _outcome(_reference_solve, params, theta, branch)
            assert _outcome(xi_derivative, params, theta, branch) \
                == _outcome(_reference_dxi, params, theta, branch)
            assert _outcome(lambda: torque_single_finger(
                params, theta, 5.0, branch).torque_single) \
                == _outcome(_reference_torque, params, theta, 5.0, branch)


@pytest.mark.parametrize("force", [math.nan, math.inf, -1.0])
def test_torque_rejects_non_finite_or_negative_force(params, force):
    with pytest.raises(ValueError, match="force_p"):
        torque_single_finger(params, 45.0, force)


@pytest.mark.parametrize("step", [0.0, -1.0, math.nan])
def test_sweep_rejects_step_not_positive(params, step):
    with pytest.raises(ValueError, match="theta_step"):
        list(sweep_positions(params, 0.0, 120.0, step))


@pytest.mark.parametrize("step", [1e-320, 1e-300, 1e-4])
def test_sweep_rejects_unbounded_grid(params, step):
    # 1e-320: (end - start) / step overflows; 1e-4: 1.2e6 angles
    with pytest.raises(ValueError, match="theta_step"):
        next(sweep_positions(params, 0.0, 120.0, step))


@pytest.mark.parametrize("p_min, p_max, name", [
    (math.nan, 20.0, "p_min"),
    (-1.0, 20.0, "p_min"),
    (0.0, math.inf, "p_max"),
    (0.0, math.nan, "p_max"),
])
def test_force_torque_curve_rejects_bad_bound(params, p_min, p_max, name):
    with pytest.raises(ValueError, match=f"^{name} "):
        force_torque_curve(params, 45.0, p_min, p_max, 5)


def test_force_torque_curve_rejects_steps_past_bound(params, monkeypatch):
    def refuse(*args):
        raise AssertionError("steps past the bound reached a torque solve")

    monkeypatch.setattr(mechanism, "torque_single_finger", refuse)
    for steps in (mechanism._MAX_FORCE_STEPS + 1, 10**14):
        with pytest.raises(ValueError, match=f"^steps must be <= "
                                             f"{mechanism._MAX_FORCE_STEPS}, "
                                             f"got {steps}$"):
            force_torque_curve(params, 45.0, 0.0, 20.0, steps)


def test_sweep_ends_exactly_at_end(params):
    thetas = [theta for theta, _ in sweep_positions(params, 0.2, 120.0, 0.1)]
    assert len(thetas) == 1199
    assert thetas[-1] == 120.0
