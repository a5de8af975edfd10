"""Correctness oracles for every benchmark op.

Each check returns None when the result is right and a one-line reason
when it is not. They call only public harvestcell functions and run after
the timed loop with tracing removed, so they add nothing to the measured
time or to the per-layer counts.
"""

from __future__ import annotations

import math

import numpy as np

IK_POSITION_TOL = 1e-6      # m, criterion 05
MC_BAND_SIGMAS = 5.0        # binomial standard deviations
MC_BAND_SLACK = 5           # extra trials, for rare outcomes the normal
                            # approximation of the binomial understates
CALIBRATED_RATE_BAND = (0.75, 0.85)   # criterion 09
INTERPOLATION_FACTOR = 4    # finer than the planner's own sampling
FITNESS_REL_TOL = 1e-9


def offset_gaussian_in_sphere(delta: float, sigma: float, radius: float) -> float:
    """P(|d + sigma Z| <= R) for Z ~ N(0, I3) and |d| = delta.

    Closed form of the integral criterion 08 evaluates numerically: the
    radial density r / (delta sigma sqrt(2 pi)) [phi((r - delta)/sigma) -
    phi((r + delta)/sigma)] integrates to normal CDFs and Gaussians.
    """
    if sigma == 0.0:
        return 1.0 if delta <= radius else 0.0

    def cdf(x):
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    if delta == 0.0:
        x = radius / sigma
        return math.erf(x / math.sqrt(2.0)) \
            - math.sqrt(2.0 / math.pi) * x * math.exp(-x * x / 2.0)
    lo = (radius - delta) / sigma
    hi = (radius + delta) / sigma
    return (cdf(lo) + cdf(hi) - 1.0
            - sigma / (delta * math.sqrt(2.0 * math.pi))
            * (math.exp(-lo * lo / 2.0) - math.exp(-hi * hi / 2.0)))


def check_mc_rate(successes: int, trials: int, expected: float) -> str | None:
    """Success count inside a binomial band around the analytic probability."""
    band = (MC_BAND_SIGMAS * math.sqrt(expected * (1.0 - expected) / trials)
            + MC_BAND_SLACK / trials)
    rate = successes / trials
    if abs(rate - expected) > band + 1e-12:
        return (f"MC success rate {rate:.4f} outside {expected:.4f} +- "
                f"{band:.4f} over {trials} trials")
    return None


def check_calibrated_rate(rate: float) -> str | None:
    lo, hi = CALIBRATED_RATE_BAND
    if not lo <= rate <= hi:
        return f"fresh rate {rate:.4f} at the calibrated sigma outside [{lo}, {hi}]"
    return None


def check_ik(hc, chain, q, position, approach_axis=None) -> str | None:
    """A returned IK answer reaches the target and respects the joint limits."""
    q = np.asarray(q, dtype=float)
    lo, hi = chain.limit_arrays()
    if not (np.all(np.isfinite(q)) and np.all(q >= lo) and np.all(q <= hi)):
        return f"IK answer {q.tolist()} outside the joint limits"
    pose = hc.arm.forward_kinematics(chain, q)
    miss = float(np.linalg.norm(pose.position - np.asarray(position, dtype=float)))
    if not miss < IK_POSITION_TOL:
        return f"IK answer misses the target by {miss:.3e} m"
    if approach_axis is not None:
        got = hc.arm.target_approach_axis(pose, chain)
        angle = math.acos(min(1.0, float(np.dot(got, approach_axis))))
        if not angle < hc.IkOptions().tol_rot:
            return f"IK answer approach axis off by {angle:.3e} rad"
    return None


def check_no_convergence(exc, opts) -> str | None:
    """A NoConvergence must carry a residual that really misses tolerance."""
    if exc.pos_residual < opts.tol_pos and exc.rot_residual < opts.tol_rot:
        return "NoConvergence raised with residuals inside tolerance"
    return None


def check_plan(hc, chain, scene, pso, trajectory, start, goal) -> str | None:
    """A feasible plan: endpoints as requested, inside the joint limits,
    collision-free at 4x the planner's interpolation, and re-scoring it
    with `fitness` reproduces the reported score."""
    waypoints = np.asarray(trajectory.waypoints, dtype=float)
    if not (np.array_equal(waypoints[0], start) and np.array_equal(waypoints[-1], goal)):
        return "plan does not run from the requested start to the requested goal"
    lo, hi = chain.limit_arrays()
    if np.any(waypoints < lo) or np.any(waypoints > hi):
        return "plan waypoint outside the joint limits"
    n = hc.planner.SAMPLES_PER_SEGMENT * INTERPOLATION_FACTOR
    fractions = (np.arange(n + 1)) / n
    for a, b in zip(waypoints[:-1], waypoints[1:]):
        for f in fractions:
            result = hc.collision_check(chain, a + f * (b - a), scene, pso.clearance)
            if result.colliding:
                return (f"plan collides between waypoints: clearance "
                        f"{result.min_clearance:.4f} m < {pso.clearance} m")
    rescored = hc.fitness(trajectory, chain, scene, pso).score
    if not math.isclose(rescored, trajectory.fitness, rel_tol=FITNESS_REL_TOL):
        return f"re-scored fitness {rescored!r} != reported {trajectory.fitness!r}"
    return None
