"""Serial-chain arm kinematics: forward kinematics, geometric Jacobian and
damped-least-squares inverse kinematics.

The chain is purely data-driven: each revolute joint has a rotation axis and
an origin offset expressed in its parent frame. Units are metres and radians.
Every FK result, for one configuration or a batch, comes from one batched
kernel, `_frames`, over the chain's `compiled` arrays. A 5-DOF arm cannot
track full 6-DOF poses, so IK has one target form, solved by one loop
(`_solve`): a position plus the base-frame direction of the tool "approach
axis"; the roll about it is left free. `inverse_kinematics` reads that axis
off a `Pose`, `solve_ik_point` takes it as given.

IK works on batches of one, where numpy's per-call overhead, not the
arithmetic, sets the cost. So `_frames` writes every product into buffers
made once per call, cross products are formed by components (`_cross`)
instead of `np.cross`, and each IK iterate's residual norm is computed once.
These keep every floating-point operation and its order, so the answers are
the same to the bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Annotated, NamedTuple

import numpy as np

from .domains import (UNIT_QUATERNION, Checked, Finite, Natural, NonNegative,
                      Positive, Quaternion, Vec3, Vector, shown)
from .errors import ConfigError, DimensionMismatch, DomainError, NoConvergence

_DIRECTION = Vector(3, direction=True)
Direction3 = Annotated[np.ndarray, _DIRECTION]


# --- small rotation / quaternion helpers (scalar-last convention x,y,z,w) --

def quat_to_matrix(q) -> np.ndarray:
    unit = UNIT_QUATERNION.canon(q)
    if unit is None:
        raise DomainError("quaternion", str(UNIT_QUATERNION), shown(q))
    x, y, z, w = unit
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
class RigidTransform(Checked):
    """Rotation (unit quaternion, x,y,z,w) plus translation (m)."""

    translation: Vec3 = field(
        default_factory=lambda: np.zeros(3))
    quaternion: Quaternion = field(
        default_factory=lambda: np.array([0.0, 0.0, 0.0, 1.0]),
        metadata={"key": "quaternion_xyzw"})

    def matrix(self) -> np.ndarray:
        return quat_to_matrix(self.quaternion)


@dataclass(frozen=True)
class Pose(Checked):
    """End-effector frame: position (m) and orientation quaternion (x,y,z,w).
    IK checks the position of a target pose."""

    position: np.ndarray
    orientation: Quaternion


@dataclass(frozen=True)
class Joint(Checked):
    """One revolute joint: rotation axis (stored unit length) and origin
    offset in the parent frame."""

    axis: Direction3
    offset: Vec3
    limits: tuple[Finite, Finite]

    def __post_init__(self):
        super().__post_init__()
        lo, hi = self.limits
        if not lo < hi:
            raise ConfigError("joint limits must satisfy min < max")


@dataclass(frozen=True)
class KinematicChain(Checked):
    """Serial revolute chain: base frame, joints, tool offset, approach axis.

    approach_axis is the tool-frame direction the gripper points along;
    home_q is the resting configuration used as the default IK seed and
    the start of harvest cycles.
    """

    joints: tuple[Joint, ...]
    base_frame: RigidTransform = field(default_factory=RigidTransform)
    tool_offset: RigidTransform = field(default_factory=RigidTransform)
    approach_axis: Direction3 = field(
        default_factory=lambda: np.array([1.0, 0.0, 0.0]))
    home_q: np.ndarray | None = None

    def __post_init__(self):
        super().__post_init__()
        if len(self.joints) < 1:
            raise ConfigError("chain needs at least one joint")
        if self.home_q is not None:
            # its domain depends on the joints: their count and limits
            q = Vector(self.n_joints).canon(self.home_q)
            lo, hi = self.limit_arrays()
            if q is None or not np.all((lo <= q) & (q <= hi)):
                raise DomainError(
                    "home_q", f"a finite {self.n_joints}-vector within the joint limits",
                    shown(self.home_q))
            object.__setattr__(self, "home_q", q)

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

    @functools.cached_property
    def compiled(self) -> CompiledChain:
        """The chain as stacked arrays, built on first use and kept on the
        instance (the ndarray fields make the chain unhashable, so no
        lru_cache can key on it); its arrays must not change after that."""
        axes = np.array([j.axis for j in self.joints], dtype=float)
        k = np.array([[[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]]
                      for x, y, z in axes])
        offsets = np.array([j.offset for j in self.joints]
                           + [self.tool_offset.translation], dtype=float)
        first_moving = _static_link_count(axes, offsets[1:])
        levers = np.cumsum(np.linalg.norm(offsets[1:], axis=1)[::-1])[::-1]
        compiled = CompiledChain(
            offsets, axes, k, np.array([m @ m for m in k]), self.base_frame.matrix(),
            self.base_frame.translation, self.tool_offset.matrix(), first_moving,
            static_points=None, levers=levers, approach=self.approach_axis)
        # the static points are the same at every q, so take them at q = 0
        points = _frames(compiled, np.zeros((1, self.n_joints)))[0][0]
        return compiled._replace(static_points=points[:first_moving + 1])


class CompiledChain(NamedTuple):
    """A chain's constants, stacked per joint for `_frames`. Link i runs from
    joint origin i to the next point (the tool point for the last link); in
    joint i's rotated frame it is offsets[i + 1], the link vectors offsets[1:]."""

    offsets: np.ndarray         # (N+1, 3) joint offsets, then the tool's
    axes: np.ndarray            # (N, 3) unit joint axes, parent frame
    k: np.ndarray               # (N, 3, 3) cross-product matrix of each axis
    k2: np.ndarray              # (N, 3, 3) its square
    base_rot: np.ndarray        # (3, 3)
    base_pos: np.ndarray        # (3,)
    tool_rot: np.ndarray        # (3, 3)
    first_moving: int           # links before this one do not move with q
    static_points: np.ndarray   # (first_moving + 1, 3) their end points
    levers: np.ndarray          # (N,) link lengths from joint i out to the tool
    approach: np.ndarray        # (3,) tool-frame approach axis


def _static_link_count(axes: np.ndarray, links: np.ndarray) -> int:
    """Leading links whose end points do not move with q. Point 0 never
    moves; point i+1 keeps still while every joint up to i turns about
    joint 0's axis and link i is exactly parallel to that axis (cross
    products exactly zero), since a rotation about the axis leaves both
    unchanged."""
    still = ~(np.cross(axes, axes[0]).any(1) | np.cross(links, axes[0]).any(1))
    return int(np.cumprod(still).sum())


def _frames(compiled: CompiledChain, qs: np.ndarray):
    """The one forward-kinematics kernel. For a (B, N) batch of joint
    vectors it returns the points (B, N+1, 3), joint origins then the tool
    point, the joint axes in the base frame (B, N, 3) and the tool rotations
    (B, 3, 3). The rotation update R <- R (I + sin(q) K + (1-cos(q)) K^2) is
    expanded to R + sin(q) RK + (1-cos(q)) RK^2, a few (3B x 3)(3 x 3)
    products per joint instead of B tiny matmuls. Every product is written
    into a buffer made once per call; the points and axes are filled joint
    by joint and returned as (B, ...) views of joint-major buffers. A row
    that is not all finite comes out NaN, without a warning."""
    batch, n = qs.shape
    with np.errstate(invalid="ignore"):  # sin(inf) is NaN
        sin = np.sin(qs)[:, :, None, None]
        vers = (1.0 - np.cos(qs))[:, :, None, None]
    rot = np.empty((batch, 3, 3))
    rot[:] = compiled.base_rot
    flat = rot.reshape(-1, 3)        # a view: rot only changes in place
    # R K and R K^2 both come from the R before this joint's update
    rot_k = np.empty((batch, 3, 3))
    rot_k2 = np.empty((batch, 3, 3))
    flat_k, flat_k2 = rot_k.reshape(-1, 3), rot_k2.reshape(-1, 3)
    step = np.empty((batch, 3))
    flat_step = step.reshape(-1)
    points = np.empty((n + 1, batch, 3))
    axes = np.empty((n, batch, 3))
    flat_axes = axes.reshape(n, -1)
    pos = compiled.base_pos
    for i in range(n):
        flat.dot(compiled.offsets[i], flat_step)
        pos = np.add(pos, step, out=points[i])
        flat.dot(compiled.axes[i], flat_axes[i])
        flat.dot(compiled.k[i], flat_k)
        flat.dot(compiled.k2[i], flat_k2)
        rot += np.multiply(rot_k, sin[:, i], out=rot_k)
        rot += np.multiply(rot_k2, vers[:, i], out=rot_k2)
    flat.dot(compiled.offsets[n], flat_step)
    np.add(pos, step, out=points[n])
    return (points.transpose(1, 0, 2), axes.transpose(1, 0, 2),
            flat.dot(compiled.tool_rot).reshape(batch, 3, 3))


def _finite_q(chain: KinematicChain, q) -> np.ndarray:
    """`q` as a batch of one, checked for length and finiteness."""
    q = chain.check_q(q)
    if not np.isfinite(q).all():
        raise ValueError(f"q must be finite, got {q.tolist()}")
    return q[None]


def forward_kinematics(chain: KinematicChain, q) -> Pose:
    """Tool pose for the given joint vector (rad), which must be finite."""
    points, _, tool_rot = _frames(chain.compiled, _finite_q(chain, q))
    return Pose(position=points[0, -1], orientation=matrix_to_quat(tool_rot[0]))


def link_points(chain: KinematicChain, q) -> np.ndarray:
    """Polyline approximating the arm body: joint origins then the tool
    point, for a finite joint vector (rad)."""
    return _frames(chain.compiled, _finite_q(chain, q))[0][0]


def link_points_batch(chain: KinematicChain, qs: np.ndarray) -> np.ndarray:
    """link_points for a (B, N) batch of joint vectors -> (B, N+1, 3); a
    row that is not finite gives NaN points, which the planner counts as
    colliding."""
    qs = np.asarray(qs, dtype=float)
    if qs.ndim != 2 or qs.shape[1] != chain.n_joints:
        raise DimensionMismatch(
            f"expected (B, {chain.n_joints}) joint batch, got shape {qs.shape}"
        )
    return _frames(chain.compiled, qs)[0]


# rows (1, 2, 0) and (2, 0, 1) of a (3, ...) array: a x b is
# a[_NEXT] * b[_PREV] - a[_PREV] * b[_NEXT], numpy.cross's own formula and
# so its bits, without its per-call axis handling
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products along the first axis of two (3, ...) arrays."""
    return a[_NEXT] * b[_PREV] - a[_PREV] * b[_NEXT]


def _frames_jacobian(points: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """Geometric Jacobian from one configuration's `_frames` output: the
    (N+1, 3) joint origins and tool point, and the (N, 3) joint axes."""
    jac = np.empty((6, axes.shape[0]))
    jac[:3] = _cross(axes.T, (points[-1] - points[:-1]).T)
    jac[3:] = axes.T
    return jac


def jacobian(chain: KinematicChain, q) -> np.ndarray:
    """Geometric Jacobian (6 x N): linear velocity rows then angular rows.

    Column i for a revolute joint is (z_i x (p_tool - p_i), z_i) expressed
    in the base frame. `q` must be finite.
    """
    points, axes, _ = _frames(chain.compiled, _finite_q(chain, q))
    return _frames_jacobian(points[0], axes[0])


@dataclass(frozen=True)
class IkOptions(Checked):
    """Damped-least-squares iteration settings.

    `damping` is the floor of the effective damping factor; far from the
    target the factor grows with the residual norm, which keeps steps tame
    when the seed is poor without slowing final convergence.
    """

    max_iters: Natural = 200
    tol_pos: Positive = 1e-6
    tol_rot: Positive = 1e-4
    damping: NonNegative = 0.005


def _approach_error(tool_rot: np.ndarray, approach: np.ndarray,
                    target_axis: np.ndarray) -> np.ndarray:
    """Axis-angle rotation aligning the current approach axis (the chain's
    tool-frame `approach` turned by `tool_rot`) with the target's.

    The aligning rotation is perpendicular to both axes, so the roll about
    the approach axis is excluded by construction: this is the projection
    of the orientation error onto the subspace a 5-DOF arm can control.
    """
    current = tool_rot @ approach
    cross = _cross(current, target_axis)
    s = float(np.linalg.norm(cross))
    angle = math.atan2(s, min(max(float(np.dot(current, target_axis)), -1.0), 1.0))
    if s < 1e-12:
        # parallel or antiparallel; antiparallel has no unique axis, pick one
        return np.zeros(3) if angle < 1e-12 else _any_perpendicular(current) * angle
    return cross / s * angle


def target_approach_axis(target: Pose, chain: KinematicChain) -> np.ndarray:
    """The target pose's approach direction in the base frame."""
    return quat_to_matrix(target.orientation) @ chain.compiled.approach


def inverse_kinematics(chain: KinematicChain, target: Pose, seed_q,
                       opts: IkOptions = IkOptions()) -> np.ndarray:
    """IK towards a target pose: its position and its approach axis
    (`target_approach_axis`); the roll about that axis is left free."""
    return _solve(chain, target.position, target_approach_axis(target, chain),
                  seed_q, opts)


def solve_ik_point(chain: KinematicChain, position, approach_axis, seed_q,
                   opts: IkOptions = IkOptions()) -> np.ndarray:
    """IK towards a position and an approach direction of any non-zero
    length, given directly."""
    unit_axis = _DIRECTION.canon(approach_axis)
    if unit_axis is None:
        raise ValueError(
            f"approach_axis must be {_DIRECTION}, got {shown(approach_axis)}")
    return _solve(chain, position, unit_axis, seed_q, opts)


def _solve(chain: KinematicChain, position, unit_axis: np.ndarray, seed_q,
           opts: IkOptions) -> np.ndarray:
    """Damped-least-squares IK (Buss 2004) towards a tool position and a
    unit approach axis in the base frame.

    Iterates q <- q + (J^T J + lambda^2 I)^-1 J^T e with
    lambda = max(opts.damping, 0.5 * |e|), clamping to joint limits each
    step and halving the step whenever the residual norm would grow, so the
    residual trace is non-increasing. Converged when the position error is
    below tol_pos and the approach-axis misalignment below tol_rot.

    Raises ValueError for a non-finite position or seed, and NoConvergence
    carrying the best iterate; an unreachable target is not distinguished
    from slow convergence.
    """
    target_pos = np.asarray(position, dtype=float)
    if target_pos.shape != (3,) or not np.isfinite(target_pos).all():
        raise ValueError(
            f"position must be a finite 3-vector, got {target_pos.tolist()}")
    seed = chain.check_q(seed_q)
    if not np.isfinite(seed).all():
        raise ValueError(f"seed_q must be finite, got {seed.tolist()}")
    compiled = chain.compiled
    lo, hi = chain.limit_arrays()
    q = np.clip(seed, lo, hi)

    def residual(qv: np.ndarray):
        points, axes, tool_rot = _frames(compiled, qv[None])
        err_rot = _approach_error(tool_rot[0], compiled.approach, unit_axis)
        return (_frames_jacobian(points[0], axes[0]),
                np.concatenate([target_pos - points[0, -1], err_rot]))

    jac_cur, err = residual(q)
    trace = [float(np.linalg.norm(err))]   # trace[-1] is always |err|
    eye = np.eye(chain.n_joints)

    for iteration in range(opts.max_iters + 1):
        pos_err = float(np.linalg.norm(err[:3]))
        rot_err = float(np.linalg.norm(err[3:]))
        if pos_err < opts.tol_pos and rot_err < opts.tol_rot:
            return q
        if iteration == opts.max_iters:
            break
        lam = max(opts.damping, 0.5 * trace[-1])
        dq = np.linalg.solve(jac_cur.T @ jac_cur + lam * lam * eye,
                             jac_cur.T @ err)
        step = 1.0
        for _ in range(12):
            q_new = np.clip(q + step * dq, lo, hi)
            jac_new, err_new = residual(q_new)
            norm_new = float(np.linalg.norm(err_new))
            if norm_new < trace[-1]:
                break
            step *= 0.5
        else:  # no step shrank the residual
            break
        q, jac_cur, err = q_new, jac_new, err_new
        trace.append(norm_new)
    raise NoConvergence(q, pos_err, rot_err, trace)


def _any_perpendicular(v: np.ndarray) -> np.ndarray:
    helper = np.array([1.0, 0.0, 0.0]) if abs(v[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    perp = _cross(v, helper)
    return perp / np.linalg.norm(perp)
