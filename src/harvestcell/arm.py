"""Serial-chain arm kinematics: forward kinematics, geometric Jacobian and
damped-least-squares inverse kinematics.

The chain is purely data-driven: each revolute joint has a rotation axis and
an origin offset expressed in its parent frame. Units are metres and radians.
A 5-DOF arm cannot track full 6-DOF poses, so IK tracks position plus the
direction of a tool "approach axis" (two orientation DOF); the roll about
that axis is left free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionMismatch, NoConvergence

_UNIT_TOL = 1e-12


# --- small rotation / quaternion helpers (scalar-last convention x,y,z,w) --

def rotation_about_axis(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix about a unit axis."""
    x, y, z = axis
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    x, y, z, w = q
    n = x * x + y * y + z * z + w * w
    if abs(n - 1.0) > 1e-9:
        raise ConfigError(f"quaternion must have unit norm, got |q|^2={float(n)!r}")
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def matrix_to_quat(m: np.ndarray) -> np.ndarray:
    """Rotation matrix to unit quaternion (x, y, z, w), w >= 0."""
    t = np.trace(m)
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        q = np.array([(m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s,
                      (m[1, 0] - m[0, 1]) / s, 0.25 * s])
    else:
        i = int(np.argmax(np.diag(m)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = math.sqrt(m[i, i] - m[j, j] - m[k, k] + 1.0) * 2.0
        q = np.empty(4)
        q[i] = 0.25 * s
        q[j] = (m[j, i] + m[i, j]) / s
        q[k] = (m[k, i] + m[i, k]) / s
        q[3] = (m[k, j] - m[j, k]) / s
    if q[3] < 0.0:
        q = -q
    return q / np.linalg.norm(q)


@dataclass(frozen=True)
class RigidTransform:
    """Rotation (unit quaternion, x,y,z,w) plus translation (m)."""

    translation: np.ndarray = field(
        default_factory=lambda: np.zeros(3))
    quaternion: np.ndarray = field(
        default_factory=lambda: np.array([0.0, 0.0, 0.0, 1.0]))

    def __post_init__(self):
        with np.errstate(over="ignore"):  # an overflowing norm fails the test
            self.matrix()

    def matrix(self) -> np.ndarray:
        return quat_to_matrix(np.asarray(self.quaternion, dtype=float))


@dataclass(frozen=True)
class Pose:
    """End-effector frame: position (m) and orientation quaternion (x,y,z,w)."""

    position: np.ndarray
    orientation: np.ndarray

    def __post_init__(self):
        n = float(np.linalg.norm(self.orientation))
        if abs(n - 1.0) > 1e-9:
            raise ConfigError(f"pose quaternion norm {n!r} not within 1e-9 of 1")


@dataclass(frozen=True)
class Joint:
    """One revolute joint: unit rotation axis and origin offset in the parent frame."""

    axis: np.ndarray
    offset: np.ndarray
    limits: tuple[float, float]

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=float)
        if abs(np.linalg.norm(axis) - 1.0) > _UNIT_TOL:
            raise ConfigError(f"joint axis must be unit norm, got {axis.tolist()}")
        lo, hi = self.limits
        if not lo < hi:
            raise ConfigError("joint limits must satisfy min < max")


@dataclass(frozen=True)
class KinematicChain:
    """Serial revolute chain: base frame, joints, tool offset, approach axis.

    approach_axis is the tool-frame direction the gripper points along;
    home_q is the resting configuration used as the default IK seed and
    the start of harvest cycles.
    """

    joints: tuple[Joint, ...]
    base_frame: RigidTransform = field(default_factory=RigidTransform)
    tool_offset: RigidTransform = field(default_factory=RigidTransform)
    approach_axis: np.ndarray = field(
        default_factory=lambda: np.array([1.0, 0.0, 0.0]))
    home_q: np.ndarray | None = None

    def __post_init__(self):
        if len(self.joints) < 1:
            raise ConfigError("chain needs at least one joint")
        axis = np.asarray(self.approach_axis, dtype=float)
        if abs(np.linalg.norm(axis) - 1.0) > _UNIT_TOL:
            raise ConfigError("approach_axis must be unit norm")
        if self.home_q is not None:
            q = self.check_q(self.home_q)
            lo, hi = self.limit_arrays()
            if np.any(q < lo) or np.any(q > hi):
                raise ConfigError("home_q violates joint limits")

    @property
    def n_joints(self) -> int:
        return len(self.joints)

    def limit_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        lims = np.array([j.limits for j in self.joints], dtype=float)
        return lims[:, 0], lims[:, 1]

    def check_q(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if q.shape != (self.n_joints,):
            raise DimensionMismatch(
                f"expected {self.n_joints} joint values, got shape {q.shape}"
            )
        return q


def _fk_frames(chain: KinematicChain, q: np.ndarray):
    """Accumulate frames along the chain.

    Returns (joint origins (N,3), joint axes in base frame (N,3),
    tool position (3,), tool rotation (3,3)).
    """
    rot = chain.base_frame.matrix()
    pos = np.asarray(chain.base_frame.translation, dtype=float).copy()
    origins = np.empty((chain.n_joints, 3))
    axes = np.empty((chain.n_joints, 3))
    for i, joint in enumerate(chain.joints):
        pos = pos + rot @ np.asarray(joint.offset, dtype=float)
        origins[i] = pos
        axes[i] = rot @ np.asarray(joint.axis, dtype=float)
        rot = rot @ rotation_about_axis(np.asarray(joint.axis, dtype=float), q[i])
    tool_pos = pos + rot @ np.asarray(chain.tool_offset.translation, dtype=float)
    tool_rot = rot @ chain.tool_offset.matrix()
    return origins, axes, tool_pos, tool_rot


def forward_kinematics(chain: KinematicChain, q) -> Pose:
    """Tool pose for the given joint vector (rad)."""
    q = chain.check_q(q)
    _, _, tool_pos, tool_rot = _fk_frames(chain, q)
    return Pose(position=tool_pos, orientation=matrix_to_quat(tool_rot))


def link_points(chain: KinematicChain, q) -> np.ndarray:
    """Polyline approximating the arm body: joint origins then the tool point."""
    q = chain.check_q(q)
    origins, _, tool_pos, _ = _fk_frames(chain, q)
    return np.vstack([origins, tool_pos])


def link_points_batch(chain: KinematicChain, qs: np.ndarray) -> np.ndarray:
    """Vectorized link_points for a (B, N) batch of joint vectors -> (B, N+1, 3).

    The per-joint rotation update R <- R (I + sin(q) K + (1-cos(q)) K^2)
    is expanded so each step is a single (3B x 3)(3 x 3) matrix product
    instead of B tiny matmuls.
    """
    qs = np.asarray(qs, dtype=float)
    if qs.ndim != 2 or qs.shape[1] != chain.n_joints:
        raise DimensionMismatch(
            f"expected (B, {chain.n_joints}) joint batch, got shape {qs.shape}"
        )
    batch = qs.shape[0]
    rot = np.broadcast_to(chain.base_frame.matrix(), (batch, 3, 3)).copy()
    pos = np.broadcast_to(
        np.asarray(chain.base_frame.translation, dtype=float), (batch, 3)).copy()
    points = np.empty((batch, chain.n_joints + 1, 3))
    for i, joint in enumerate(chain.joints):
        offset = np.asarray(joint.offset, dtype=float)
        pos = pos + rot.reshape(-1, 3).dot(offset).reshape(batch, 3)
        points[:, i] = pos
        x, y, z = np.asarray(joint.axis, dtype=float)
        k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
        rot_k = rot.reshape(-1, 3).dot(k).reshape(batch, 3, 3)
        rot_k2 = rot.reshape(-1, 3).dot(k @ k).reshape(batch, 3, 3)
        s = np.sin(qs[:, i])[:, None, None]
        c = (1.0 - np.cos(qs[:, i]))[:, None, None]
        rot = rot + s * rot_k + c * rot_k2
    tool_t = np.asarray(chain.tool_offset.translation, dtype=float)
    points[:, -1] = pos + rot.reshape(-1, 3).dot(tool_t).reshape(batch, 3)
    return points


def _frames_jacobian(origins, axes, tool_pos) -> np.ndarray:
    """Geometric Jacobian from the frames `_fk_frames` returns."""
    jac = np.empty((6, axes.shape[0]))
    jac[:3] = np.cross(axes, tool_pos - origins).T
    jac[3:] = axes.T
    return jac


def jacobian(chain: KinematicChain, q) -> np.ndarray:
    """Geometric Jacobian (6 x N): linear velocity rows then angular rows.

    Column i for a revolute joint is (z_i x (p_tool - p_i), z_i) expressed
    in the base frame.
    """
    q = chain.check_q(q)
    origins, axes, tool_pos, _ = _fk_frames(chain, q)
    return _frames_jacobian(origins, axes, tool_pos)


@dataclass(frozen=True)
class IkOptions:
    """Damped-least-squares iteration settings.

    `damping` is the floor of the effective damping factor; far from the
    target the factor grows with the residual norm, which keeps steps tame
    when the seed is poor without slowing final convergence.
    """

    max_iters: int = 200
    tol_pos: float = 1e-6
    tol_rot: float = 1e-4
    damping: float = 0.005
    orientation_mode: str = "approach"  # or "position"


def _approach_error(tool_rot: np.ndarray, chain: KinematicChain,
                    target_axis: np.ndarray) -> np.ndarray:
    """Axis-angle rotation aligning the current approach axis with the target's.

    The aligning rotation is perpendicular to both axes, so the roll about
    the approach axis is excluded by construction: this is the projection
    of the orientation error onto the subspace a 5-DOF arm can control.
    """
    current = tool_rot @ np.asarray(chain.approach_axis, dtype=float)
    cross = np.cross(current, target_axis)
    s = float(np.linalg.norm(cross))
    angle = math.atan2(s, float(np.clip(np.dot(current, target_axis), -1.0, 1.0)))
    if s < 1e-12:
        # parallel or antiparallel; antiparallel has no unique axis, pick one
        if angle < 1e-12:
            return np.zeros(3)
        helper = np.array([1.0, 0.0, 0.0])
        if abs(current[0]) > 0.9:
            helper = np.array([0.0, 1.0, 0.0])
        axis = np.cross(current, helper)
        return axis / np.linalg.norm(axis) * angle
    return cross / s * angle


def target_approach_axis(target: Pose, chain: KinematicChain) -> np.ndarray:
    """The target pose's approach direction in the base frame."""
    return quat_to_matrix(np.asarray(target.orientation, dtype=float)) \
        @ np.asarray(chain.approach_axis, dtype=float)


def inverse_kinematics(chain: KinematicChain, target: Pose, seed_q,
                       opts: IkOptions = IkOptions()) -> np.ndarray:
    """Damped-least-squares IK towards a target pose.

    Iterates q <- q + (J^T J + lambda^2 I)^-1 J^T e with
    lambda = max(opts.damping, 0.5 * |e|), clamping to joint limits each
    step and halving the step whenever the residual norm would grow, so the
    residual trace is non-increasing. Converged when position error <
    tol_pos and (in "approach" mode) the approach-axis misalignment
    < tol_rot.

    Raises NoConvergence carrying the best iterate; an unreachable target
    is not distinguished from slow convergence.
    """
    q = chain.check_q(seed_q).copy()
    lo, hi = chain.limit_arrays()
    q = np.clip(q, lo, hi)
    target_pos = np.asarray(target.position, dtype=float)
    track_orientation = opts.orientation_mode == "approach"
    if opts.orientation_mode not in ("approach", "position"):
        raise ValueError(f"unknown orientation_mode {opts.orientation_mode!r}")
    target_axis = target_approach_axis(target, chain) if track_orientation else None

    def residual(qv: np.ndarray):
        origins, axes, tool_pos, tool_rot = _fk_frames(chain, qv)
        jac_full = _frames_jacobian(origins, axes, tool_pos)
        err_pos = target_pos - tool_pos
        if track_orientation:
            err_rot = _approach_error(tool_rot, chain, target_axis)
            return jac_full, np.concatenate([err_pos, err_rot])
        return jac_full[:3], err_pos

    jac_cur, err = residual(q)
    trace = [float(np.linalg.norm(err))]
    eye = np.eye(chain.n_joints)

    def split_norms(e: np.ndarray) -> tuple[float, float]:
        pos = float(np.linalg.norm(e[:3]))
        rot = float(np.linalg.norm(e[3:])) if e.shape[0] > 3 else 0.0
        return pos, rot

    for _ in range(opts.max_iters):
        pos_err, rot_err = split_norms(err)
        if pos_err < opts.tol_pos and rot_err < opts.tol_rot:
            return q
        lam = max(opts.damping, 0.5 * float(np.linalg.norm(err)))
        dq = np.linalg.solve(jac_cur.T @ jac_cur + lam * lam * eye,
                             jac_cur.T @ err)
        step = 1.0
        improved = False
        for _ in range(12):
            q_new = np.clip(q + step * dq, lo, hi)
            jac_new, err_new = residual(q_new)
            if np.linalg.norm(err_new) < np.linalg.norm(err):
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        q, jac_cur, err = q_new, jac_new, err_new
        trace.append(float(np.linalg.norm(err)))

    pos_err, rot_err = split_norms(err)
    if pos_err < opts.tol_pos and rot_err < opts.tol_rot:
        return q
    raise NoConvergence(q, pos_err, rot_err, trace)


def solve_ik_point(chain: KinematicChain, position, approach_axis, seed_q,
                   opts: IkOptions = IkOptions()) -> np.ndarray:
    """IK helper taking a position and desired approach direction directly."""
    axis = np.asarray(approach_axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    # orientation quaternion rotating the chain's approach axis onto `axis`
    base_axis = np.asarray(chain.approach_axis, dtype=float)
    cross = np.cross(base_axis, axis)
    s = float(np.linalg.norm(cross))
    c = float(np.clip(np.dot(base_axis, axis), -1.0, 1.0))
    if s < 1e-12:
        rot = np.eye(3) if c > 0.0 else rotation_about_axis(
            _any_perpendicular(base_axis), math.pi)
    else:
        rot = rotation_about_axis(cross / s, math.atan2(s, c))
    target = Pose(position=np.asarray(position, dtype=float),
                  orientation=matrix_to_quat(rot))
    return inverse_kinematics(chain, target, seed_q, opts)


def _any_perpendicular(v: np.ndarray) -> np.ndarray:
    helper = np.array([1.0, 0.0, 0.0]) if abs(v[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    perp = np.cross(v, helper)
    return perp / np.linalg.norm(perp)
