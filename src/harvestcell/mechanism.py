"""Closed-chain finger linkage of the gripper: position solution and
virtual-work torque model.

The gripper drives six fingers through a scotch-yoke crank (angle theta).
Each finger is a closed four-bar-style loop; solving the loop closure gives
the coupler angle beta and the contact-arm angle xi, from which the contact
point (x_m, y_m) and the motor torque for a prescribed grasp force follow.
`_closure` is the one evaluation of the loop closure, behind the position
solution, the derivative and the assembly check; `_angles` is the one
crank-angle grid, behind the sweep and the assembly check.

Public angles are degrees, lengths millimetres, forces Newton, torque N*mm.
All trigonometry and derivatives are evaluated in radians internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Annotated

from .domains import Checked, Count, Interval, Positive
from .errors import ConfigError, DegenerateGeometry, NearSingular, NoAssembly

BRANCHES = ("elbow_up", "elbow_down")

# Tolerance for acos-argument roundoff at the exact assembly boundary.
_ARG_CLIP = 1e-12
# |acos argument| closer than this to 1 makes dxi/dtheta blow up.
_SINGULAR_TOL = 1e-9
# Central-difference step, radians.
FD_STEP_RAD = 1e-5
# Largest crank-angle grid a sweep may ask for.
_MAX_ANGLES = 1_000_000
# Most force samples a torque curve may ask for: each is one torque
# solve and one result object, so a million already takes seconds.
_MAX_FORCE_STEPS = 1_000_000
Degrees = Annotated[float, Interval(0.0, 360.0, hi_open=True)]


@dataclass(frozen=True)
class MechanismParams(Checked):
    """Link lengths and offsets of one finger linkage (mm / deg).

    r: crank radius; f: slider-to-ground horizontal offset; a, b: ground
    pivot offsets; c: coupler base vertical offset; d: rocker length;
    e: coupler length; l_s, l_p: contact-chain offsets; l_dm: joint-D to
    contact-point distance. theta_range bounds the crank angle in degrees.
    """

    r: Positive = 20.0
    f: Positive = 40.0
    a: Positive = 10.0
    b: Positive = 5.0
    c: Positive = 25.0
    d: Positive = 30.0
    e: Positive = 35.0
    l_s: Positive = 15.0
    l_p: Positive = 25.0
    l_dm: Positive = 45.0
    theta_range: tuple[Degrees, Degrees] = field(
        default=(0.0, 120.0), metadata={"key": "theta_range_deg"})
    finger_count: Count = 6

    def __post_init__(self):
        super().__post_init__()
        lo, hi = self.theta_range
        if not (lo < hi):
            raise ConfigError("theta_range must satisfy min < max")

    def scaled(self, s: float) -> "MechanismParams":
        """All length parameters multiplied by s (angles untouched)."""
        return replace(
            self, r=self.r * s, f=self.f * s, a=self.a * s, b=self.b * s,
            c=self.c * s, d=self.d * s, e=self.e * s, l_s=self.l_s * s,
            l_p=self.l_p * s, l_dm=self.l_dm * s,
        )


@dataclass(frozen=True)
class FingerSolution:
    """Solved finger configuration at one crank angle (degrees / mm)."""

    theta: float
    beta: float
    xi: float
    k: float
    u: float
    x_m: float
    y_m: float
    branch: str


@dataclass(frozen=True)
class TorqueResult:
    """Motor torque required for grasp force P at crank angle theta."""

    theta: float
    force_p: float
    torque_single: float
    torque_total: float
    dxi_dtheta: float


def _check_branch(branch: str) -> float:
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}, got {branch!r}")
    return 1.0 if branch == "elbow_up" else -1.0


def _check_theta_in_range(params: MechanismParams, theta_deg: float) -> None:
    lo, hi = params.theta_range
    if not (lo <= theta_deg <= hi):
        raise ValueError(
            f"theta={theta_deg:.6g} deg outside theta_range [{lo:.6g}, {hi:.6g}] deg"
        )


def _closure(params: MechanismParams, theta_deg: float, branch: str):
    """(sign, th, A, B, k, u, arg, beta, num, den) at theta on one branch,
    without the theta_range check: angles in radians, arg the unclamped acos
    argument, xi = atan2(num, den). Formulas and raises: solve_finger_position."""
    sign = _check_branch(branch)
    th = math.radians(theta_deg)
    big_a = params.r * math.cos(th) + params.f - params.a
    big_b = params.c - params.b
    k = math.hypot(big_a, big_b)
    if k < 1e-12:
        raise DegenerateGeometry(
            f"linkage diagonal collapses at theta={theta_deg:.6g} deg")
    u = math.atan2(big_b, big_a)
    arg = (k * k + params.e * params.e - params.d * params.d) / (2.0 * params.e * k)
    if abs(arg) > 1.0 + _ARG_CLIP:
        raise NoAssembly(theta_deg, arg)
    beta = -u + sign * math.acos(max(-1.0, min(1.0, arg)))
    return (sign, th, big_a, big_b, k, u, arg, beta,
            big_b + params.e * math.sin(beta), big_a - params.e * math.cos(beta))


def _solve_unchecked(params: MechanismParams, theta_deg: float,
                     branch: str) -> FingerSolution:
    """Position solution without the theta_range check, for finite
    differences straddling the range boundary."""
    _, _, _, _, k, u, _, beta, num, den = _closure(params, theta_deg, branch)
    xi = math.degrees(math.atan2(num, den))
    x_m, y_m = contact_point(params, theta_deg, xi)
    return FingerSolution(theta=theta_deg, beta=math.degrees(beta), xi=xi, k=k,
                          u=math.degrees(u), x_m=x_m, y_m=y_m, branch=branch)


def solve_finger_position(params: MechanismParams, theta_deg: float,
                          branch: str = "elbow_up") -> FingerSolution:
    """Solve the finger loop closure at crank angle theta.

    The two closure equations

        r cos(th) + f = a + e cos(beta) + d cos(xi)
        c + e sin(beta) = b + d sin(xi)

    are solved in closed form: with A = r cos(th) + f - a and B = c - b,
    the diagonal is k = hypot(A, B) at angle u = atan2(B, A), the coupler
    angle is beta = -u +/- acos((k^2 + e^2 - d^2) / (2 e k)) (sign picked by
    the assembly branch), and xi follows from the closure equations via the
    full-quadrant arctangent. The solution satisfies both closure residual
    components to machine precision.

    Raises NoAssembly when the triangle inequality fails at this theta and
    DegenerateGeometry when the diagonal collapses (u undefined).
    """
    _check_theta_in_range(params, theta_deg)
    return _solve_unchecked(params, theta_deg, branch)


def contact_point(params: MechanismParams, theta_deg: float,
                  xi_deg: float) -> tuple[float, float]:
    """Contact point M of the finger: (r cos(th) + l_s + l_dm cos(xi), l_p + l_dm sin(xi))."""
    th = math.radians(theta_deg)
    xi = math.radians(xi_deg)
    return (params.r * math.cos(th) + params.l_s + params.l_dm * math.cos(xi),
            params.l_p + params.l_dm * math.sin(xi))


def closure_residual(params: MechanismParams,
                     solution: FingerSolution) -> tuple[float, float]:
    """Both components of the loop-closure equations at a candidate solution (mm)."""
    th = math.radians(solution.theta)
    beta = math.radians(solution.beta)
    xi = math.radians(solution.xi)
    res_x = (params.r * math.cos(th) + params.f - params.a
             - params.e * math.cos(beta) - params.d * math.cos(xi))
    res_y = (params.c + params.e * math.sin(beta)
             - params.b - params.d * math.sin(xi))
    return res_x, res_y


def _xi_derivative_analytic(params: MechanismParams, theta_deg: float,
                            branch: str) -> float:
    sign, th, big_a, big_b, k, _, arg, beta, num, den = _closure(
        params, theta_deg, branch)
    if 1.0 - abs(arg) <= _SINGULAR_TOL:
        raise NearSingular(theta_deg, arg)

    # chain rule through k(th), u(th), beta(th), xi(th), all in radians
    da = -params.r * math.sin(th)
    dk = big_a * da / k
    du = -big_b * da / (k * k)
    darg = dk * (k * k - params.e * params.e + params.d * params.d) \
        / (2.0 * params.e * k * k)
    dbeta = -du - sign * darg / math.sqrt(1.0 - arg * arg)
    dnum = params.e * math.cos(beta) * dbeta
    dden = da + params.e * math.sin(beta) * dbeta
    return (dnum * den - num * dden) / (params.d * params.d)


def xi_derivative(params: MechanismParams, theta_deg: float,
                  branch: str = "elbow_up", method: str = "analytic") -> float:
    """d(xi)/d(theta) in rad/rad at the given crank angle.

    method="analytic" differentiates the closed-form solution chain;
    method="finite-difference" uses a central difference with step
    FD_STEP_RAD. Raises NearSingular when the acos argument is within
    1e-9 of +/-1 (derivative unbounded there).
    """
    _check_theta_in_range(params, theta_deg)
    if method == "analytic":
        return _xi_derivative_analytic(params, theta_deg, branch)
    if method == "finite-difference":
        h_deg = math.degrees(FD_STEP_RAD)
        xi_plus = _solve_unchecked(params, theta_deg + h_deg, branch).xi
        xi_minus = _solve_unchecked(params, theta_deg - h_deg, branch).xi
        return math.radians(xi_plus - xi_minus) / (2.0 * FD_STEP_RAD)
    raise ValueError(f"unknown method {method!r}")


def torque_single_finger(params: MechanismParams, theta_deg: float,
                         force_p: float, branch: str = "elbow_up") -> TorqueResult:
    """Motor torque balancing grasp force P at the contact point.

    Virtual work on the contact point's horizontal travel gives

        T = P * l_dm * sin(xi) * (dxi/dtheta) + P * r * sin(theta)

    in N*mm with the derivative in rad/rad. The contact point's vertical
    travel is not counted.
    """
    if not 0.0 <= force_p < math.inf:
        raise ValueError(f"force_p must be finite and >= 0, got {force_p!r}")
    _check_theta_in_range(params, theta_deg)
    sol = _solve_unchecked(params, theta_deg, branch)
    dxi = _xi_derivative_analytic(params, theta_deg, branch)
    th = math.radians(theta_deg)
    xi = math.radians(sol.xi)
    torque = (force_p * params.l_dm * math.sin(xi) * dxi
              + force_p * params.r * math.sin(th))
    return TorqueResult(
        theta=theta_deg,
        force_p=force_p,
        torque_single=torque,
        torque_total=params.finger_count * torque,
        dxi_dtheta=dxi,
    )


def force_torque_curve(params: MechanismParams, theta_deg: float,
                       p_min: float, p_max: float, steps: int,
                       branch: str = "elbow_up") -> list[TorqueResult]:
    """Torque over evenly spaced grasp forces at fixed theta (linear in P),
    at 2 to _MAX_FORCE_STEPS forces."""
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if steps > _MAX_FORCE_STEPS:
        raise ValueError(f"steps must be <= {_MAX_FORCE_STEPS}, got {steps}")
    for name, bound in (("p_min", p_min), ("p_max", p_max)):
        if not 0.0 <= bound < math.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {bound!r}")
    if p_min > p_max:
        raise ValueError("p_min must be <= p_max")
    forces = [p_min + (p_max - p_min) * i / (steps - 1) for i in range(steps)]
    return [torque_single_finger(params, theta_deg, p, branch) for p in forces]


def _angles(start: float, end: float, step: float):
    """Crank angles start + i * step up to end, each clamped to end, so a grid
    whose last step rounds past end still ends on it. At most _MAX_ANGLES."""
    if not step > 0.0:
        raise ValueError(f"theta_step must be > 0, got {step!r}")
    steps = (end - start) / step + 1e-9
    if not steps < _MAX_ANGLES:  # also NaN and inf
        raise ValueError(
            f"theta_step {step!r} asks for more than {_MAX_ANGLES} crank angles "
            f"from {start!r} to {end!r} deg")
    for i in range(math.floor(steps) + 1 if steps >= 0.0 else 0):  # -inf too
        yield min(start + i * step, end)


def sweep_positions(params: MechanismParams, theta_start: float,
                    theta_end: float, theta_step: float,
                    branch: str = "elbow_up"):
    """Solve positions over a theta grid, keeping the assembly branch by continuity.

    The requested branch tag selects the solution at the first angle that
    assembles; from then on, at each angle the branch whose beta is closest
    to the previous solution's beta is kept, so the mechanism never flips
    assembly mode mid-sweep. Yields (theta_deg, FingerSolution | None);
    None marks angles where the linkage cannot close, on either branch alike.
    """
    _check_branch(branch)
    prev_beta = None
    for theta in _angles(theta_start, theta_end, theta_step):
        try:
            sols = [solve_finger_position(params, theta, tag) for tag in BRANCHES]
        except (NoAssembly, DegenerateGeometry):
            yield theta, None
            continue
        if prev_beta is None:
            sol = sols[BRANCHES.index(branch)]
        else:
            sol = min(sols, key=lambda s: abs(
                (s.beta - prev_beta + 180.0) % 360.0 - 180.0))
        prev_beta = sol.beta
        yield theta, sol


def check_assembly_range(params: MechanismParams, step_deg: float = 1.0) -> None:
    """Raise ConfigError unless the linkage assembles over all of theta_range."""
    for theta in _angles(*params.theta_range, step_deg):
        try:
            _closure(params, theta, "elbow_up")
        except (NoAssembly, DegenerateGeometry) as exc:
            raise ConfigError(
                f"mechanism parameters do not assemble at theta={theta:.6g} deg: {exc}"
            ) from exc
