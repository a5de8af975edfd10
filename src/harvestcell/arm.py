"""Serial-chain arm kinematics: forward kinematics, geometric Jacobian and
damped-least-squares inverse kinematics.

The chain is purely data-driven: each revolute joint has a rotation axis and
an origin offset expressed in its parent frame. Units are metres and radians.
FK has two kernels over the chain's `compiled` constants: `_frames` for a
batch of configurations (the planner's, on numpy arrays) and `_one` for one
configuration (FK, the Jacobian, link points and every IK iterate, on Python
floats, where numpy's per-call overhead would cost more than the
arithmetic). `_one` takes `_frames`' steps in the same order, and on the
shipped arm the two agree to the bit.

A 5-DOF arm cannot track full 6-DOF poses, so IK has one target form,
solved by one loop (`_solve`): a position plus the base-frame direction of
the tool "approach axis"; the roll about it is left free.
`inverse_kinematics` reads that axis off a `Pose`, `solve_ik_point` takes
it as given. Each step solves (J^T J + lambda^2 I) dq = J^T e by Cholesky:
the damping lambda is at least half the residual norm, so it is positive at
every iterate that has not converged, and the matrix is symmetric positive
definite.
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
        """The chain as stacked arrays and as float tuples, built on first
        use and kept on the instance (the ndarray fields make the chain
        unhashable, so no lru_cache can key on it); its arrays must not
        change after that."""
        axes = np.array([j.axis for j in self.joints], dtype=float)
        k = np.array([[[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]]
                      for x, y, z in axes])
        k2 = np.array([m @ m for m in k])
        offsets = np.array([j.offset for j in self.joints]
                           + [self.tool_offset.translation], dtype=float)
        first_moving = _static_link_count(axes, offsets[1:])
        levers = np.cumsum(np.linalg.norm(offsets[1:], axis=1)[::-1])[::-1]
        base_rot, tool_rot = self.base_frame.matrix(), self.tool_offset.matrix()
        lo, hi = self.limit_arrays()
        compiled = CompiledChain(
            offsets, axes, k, k2, base_rot, self.base_frame.translation, tool_rot,
            first_moving, static_points=None, levers=levers,
            approach=self.approach_axis,
            joint_floats=tuple(map(_floats, offsets[:-1], axes, k, k2)),
            base_floats=_floats(base_rot, self.base_frame.translation),
            tool_floats=_floats(offsets[-1], tool_rot),
            approach_floats=_floats(self.approach_axis),
            lo=_floats(lo), hi=_floats(hi))
        # the static points are the same at every q, so take them at q = 0
        points = _frames(compiled, np.zeros((1, self.n_joints)))[0][0]
        return compiled._replace(static_points=points[:first_moving + 1])


class CompiledChain(NamedTuple):
    """A chain's constants, stacked per joint for `_frames` and as Python
    floats for `_one`. Link i runs from joint origin i to the next point
    (the tool point for the last link); in joint i's rotated frame it is
    offsets[i + 1], the link vectors offsets[1:]."""

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
    # the same constants as floats, each matrix by rows
    joint_floats: tuple         # per joint: offset, axis, K, K^2 (24 floats)
    base_floats: tuple          # base rotation, then base position (12)
    tool_floats: tuple          # tool offset, then tool rotation (12)
    approach_floats: tuple      # (3)
    lo: tuple                   # (N) joint limits
    hi: tuple                   # (N)


def _floats(*arrays: np.ndarray) -> tuple[float, ...]:
    """The arrays' entries, each in row order, as one tuple of floats."""
    return tuple(np.concatenate([np.ravel(a) for a in arrays]).tolist())


def _static_link_count(axes: np.ndarray, links: np.ndarray) -> int:
    """Leading links whose end points do not move with q. Point 0 never
    moves; point i+1 keeps still while every joint up to i turns about
    joint 0's axis and link i is exactly parallel to that axis (cross
    products exactly zero), since a rotation about the axis leaves both
    unchanged."""
    still = ~(np.cross(axes, axes[0]).any(1) | np.cross(links, axes[0]).any(1))
    return int(np.cumprod(still).sum())


def _frames(compiled: CompiledChain, qs: np.ndarray):
    """The batch forward-kinematics kernel. For a (B, N) batch of joint
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


def _one(compiled: CompiledChain, q):
    """`_frames` for one finite configuration, a sequence of floats, on
    Python floats: the points, joint origins then the tool point, and the
    base-frame joint axes as lists of (x, y, z) tuples, and the tool
    rotation as a 9-tuple by rows. It takes `_frames`' steps in its order:
    each matrix product summed in row order (a product by K, K^2 or the tool
    rotation from +0, as OpenBLAS's matrix-matrix kernel starts it, which
    decides the sign of a zero sum), then R += (R K) sin q and
    R += (R K^2) (1 - cos q). OpenBLAS fuses some of those products into
    multiply-adds, which round once where `_one` rounds twice. On the
    shipped arm no fused step rounds differently, so the two kernels agree
    to the bit, also between base and tool rotations that permute axes; on
    a chain with oblique axes or offsets they may differ in the last bits."""
    r00, r01, r02, r10, r11, r12, r20, r21, r22, px, py, pz = compiled.base_floats
    points, axes = [], []
    for (ox, oy, oz, ax, ay, az, k00, k01, k02, k10, k11, k12, k20, k21, k22,
         m00, m01, m02, m10, m11, m12, m20, m21, m22), qi in zip(
            compiled.joint_floats, q):
        px = px + (r00 * ox + r01 * oy + r02 * oz)
        py = py + (r10 * ox + r11 * oy + r12 * oz)
        pz = pz + (r20 * ox + r21 * oy + r22 * oz)
        points.append((px, py, pz))
        axes.append((r00 * ax + r01 * ay + r02 * az,
                     r10 * ax + r11 * ay + r12 * az,
                     r20 * ax + r21 * ay + r22 * az))
        s, v = math.sin(qi), 1.0 - math.cos(qi)
        r00, r01, r02 = (
            r00 + (0.0 + r00 * k00 + r01 * k10 + r02 * k20) * s
            + (0.0 + r00 * m00 + r01 * m10 + r02 * m20) * v,
            r01 + (0.0 + r00 * k01 + r01 * k11 + r02 * k21) * s
            + (0.0 + r00 * m01 + r01 * m11 + r02 * m21) * v,
            r02 + (0.0 + r00 * k02 + r01 * k12 + r02 * k22) * s
            + (0.0 + r00 * m02 + r01 * m12 + r02 * m22) * v)
        r10, r11, r12 = (
            r10 + (0.0 + r10 * k00 + r11 * k10 + r12 * k20) * s
            + (0.0 + r10 * m00 + r11 * m10 + r12 * m20) * v,
            r11 + (0.0 + r10 * k01 + r11 * k11 + r12 * k21) * s
            + (0.0 + r10 * m01 + r11 * m11 + r12 * m21) * v,
            r12 + (0.0 + r10 * k02 + r11 * k12 + r12 * k22) * s
            + (0.0 + r10 * m02 + r11 * m12 + r12 * m22) * v)
        r20, r21, r22 = (
            r20 + (0.0 + r20 * k00 + r21 * k10 + r22 * k20) * s
            + (0.0 + r20 * m00 + r21 * m10 + r22 * m20) * v,
            r21 + (0.0 + r20 * k01 + r21 * k11 + r22 * k21) * s
            + (0.0 + r20 * m01 + r21 * m11 + r22 * m21) * v,
            r22 + (0.0 + r20 * k02 + r21 * k12 + r22 * k22) * s
            + (0.0 + r20 * m02 + r21 * m12 + r22 * m22) * v)
    ox, oy, oz, t00, t01, t02, t10, t11, t12, t20, t21, t22 = compiled.tool_floats
    points.append((px + (r00 * ox + r01 * oy + r02 * oz),
                   py + (r10 * ox + r11 * oy + r12 * oz),
                   pz + (r20 * ox + r21 * oy + r22 * oz)))
    return points, axes, (
        0.0 + r00 * t00 + r01 * t10 + r02 * t20,
        0.0 + r00 * t01 + r01 * t11 + r02 * t21,
        0.0 + r00 * t02 + r01 * t12 + r02 * t22,
        0.0 + r10 * t00 + r11 * t10 + r12 * t20,
        0.0 + r10 * t01 + r11 * t11 + r12 * t21,
        0.0 + r10 * t02 + r11 * t12 + r12 * t22,
        0.0 + r20 * t00 + r21 * t10 + r22 * t20,
        0.0 + r20 * t01 + r21 * t11 + r22 * t21,
        0.0 + r20 * t02 + r21 * t12 + r22 * t22)


def _finite_q(chain: KinematicChain, q) -> list[float]:
    """`q` as floats, checked for length and finiteness."""
    values = chain.check_q(q).tolist()
    if not all(map(math.isfinite, values)):
        raise ValueError(f"q must be finite, got {values}")
    return values


def forward_kinematics(chain: KinematicChain, q) -> Pose:
    """Tool pose for the given joint vector (rad), which must be finite."""
    points, _, tool_rot = _one(chain.compiled, _finite_q(chain, q))
    return Pose(position=np.array(points[-1]),
                orientation=matrix_to_quat(np.reshape(tool_rot, (3, 3))))


def link_points(chain: KinematicChain, q) -> np.ndarray:
    """Polyline approximating the arm body: joint origins then the tool
    point, for a finite joint vector (rad)."""
    return np.array(_one(chain.compiled, _finite_q(chain, q))[0])


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


def _jacobian_columns(points, axes) -> list[tuple[float, ...]]:
    """The geometric Jacobian's columns from one configuration's `_one`
    output: (z_i x (p_tool - p_i), z_i), the cross product by components as
    numpy's `cross` forms it."""
    px, py, pz = points[-1]
    return [(ay * (pz - oz) - az * (py - oy), az * (px - ox) - ax * (pz - oz),
             ax * (py - oy) - ay * (px - ox), ax, ay, az)
            for (ox, oy, oz), (ax, ay, az) in zip(points, axes)]


def jacobian(chain: KinematicChain, q) -> np.ndarray:
    """Geometric Jacobian (6 x N): linear velocity rows then angular rows.

    Column i for a revolute joint is (z_i x (p_tool - p_i), z_i) expressed
    in the base frame. `q` must be finite.
    """
    points, axes, _ = _one(chain.compiled, _finite_q(chain, q))
    return np.array(_jacobian_columns(points, axes)).T.copy()


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


def _approach_error(tool_rot, approach, target_axis) -> tuple[float, float, float]:
    """Axis-angle rotation aligning the current approach axis (the chain's
    tool-frame `approach` turned by `tool_rot`, a 9-tuple by rows) with the
    target's, all on floats.

    The aligning rotation is perpendicular to both axes, so the roll about
    the approach axis is excluded by construction: this is the projection
    of the orientation error onto the subspace a 5-DOF arm can control.
    """
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = tool_rot
    a0, a1, a2 = approach
    t0, t1, t2 = target_axis
    c0 = r00 * a0 + r01 * a1 + r02 * a2
    c1 = r10 * a0 + r11 * a1 + r12 * a2
    c2 = r20 * a0 + r21 * a1 + r22 * a2
    x0, x1, x2 = c1 * t2 - c2 * t1, c2 * t0 - c0 * t2, c0 * t1 - c1 * t0
    s = math.sqrt(x0 * x0 + x1 * x1 + x2 * x2)
    angle = math.atan2(s, min(max(c0 * t0 + c1 * t1 + c2 * t2, -1.0), 1.0))
    if s < 1e-12:
        # parallel or antiparallel; antiparallel has no unique axis, pick one
        if angle < 1e-12:
            return 0.0, 0.0, 0.0
        x0, x1, x2 = _any_perpendicular(c0, c1, c2)
        return x0 * angle, x1 * angle, x2 * angle
    return x0 / s * angle, x1 / s * angle, x2 / s * angle


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

    One configuration at a time, so the loop runs on Python floats (`_one`,
    sums and `math`), where numpy's per-call overhead would cost more than
    the arithmetic. At an iterate that has not converged |e| > 0, so
    lambda > 0 and J^T J + lambda^2 I is symmetric positive definite; the
    step solves it by Cholesky. Should rounding still leave a pivot that is
    not positive (lambda^2 lost against J^T J), the iteration ends as when
    no step shrinks the residual.

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
    lo, hi, approach = compiled.lo, compiled.hi, compiled.approach_floats
    tx, ty, tz = target_pos.tolist()
    axis = unit_axis.tolist()

    def residual(qv):
        points, axes, tool_rot = _one(compiled, qv)
        px, py, pz = points[-1]
        return (_jacobian_columns(points, axes),
                (tx - px, ty - py, tz - pz,
                 *_approach_error(tool_rot, approach, axis)))

    q = [min(max(x, a), b) for x, a, b in zip(seed.tolist(), lo, hi)]
    cols, err = residual(q)
    trace = [math.hypot(*err)]   # trace[-1] is always |err|

    for iteration in range(opts.max_iters + 1):
        pos_err, rot_err = math.hypot(*err[:3]), math.hypot(*err[3:])
        if pos_err < opts.tol_pos and rot_err < opts.tol_rot:
            return np.array(q)
        if iteration == opts.max_iters:
            break
        lam = max(opts.damping, 0.5 * trace[-1])
        dq = _damped_step(cols, err, lam * lam)
        if dq is None:
            break
        step = 1.0
        for _ in range(12):
            q_new = [min(max(x + step * d, a), b)
                     for x, d, a, b in zip(q, dq, lo, hi)]
            cols_new, err_new = residual(q_new)
            norm_new = math.hypot(*err_new)
            if norm_new < trace[-1]:
                break
            step *= 0.5
        else:  # no step shrank the residual
            break
        q, cols, err = q_new, cols_new, err_new
        trace.append(norm_new)
    raise NoConvergence(np.array(q), pos_err, rot_err, trace)


def _damped_step(cols, err, mu: float) -> list[float] | None:
    """dq solving (J^T J + mu I) dq = J^T e, for J's columns `cols` and
    mu > 0: the matrix's Cholesky factor L (L L^T = J^T J + mu I) row by
    row, then L y = J^T e and L^T dq = y. None when a pivot is not
    positive."""
    e0, e1, e2, e3, e4, e5 = err
    low, y = [], []   # L's rows, y
    for a0, a1, a2, a3, a4, a5 in cols:
        row = []
        for lj, (b0, b1, b2, b3, b4, b5) in zip(low, cols):
            v = a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3 + a4 * b4 + a5 * b5
            for lk, rk in zip(lj, row):
                v -= rk * lk
            row.append(v / lj[-1])
        v = a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3 + a4 * a4 + a5 * a5 + mu
        r = a0 * e0 + a1 * e1 + a2 * e2 + a3 * e3 + a4 * e4 + a5 * e5
        for rk, yk in zip(row, y):
            v -= rk * rk
            r -= rk * yk
        if not v > 0.0:
            return None
        v = math.sqrt(v)
        row.append(v)
        low.append(row)
        y.append(r / v)
    dq = []   # from the last joint back
    for i in range(len(low) - 1, -1, -1):
        v = y[i]
        for lk, xk in zip(reversed(low), dq):
            v -= lk[i] * xk
        dq.append(v / low[i][i])
    dq.reverse()
    return dq


def _any_perpendicular(x: float, y: float, z: float) -> tuple[float, float, float]:
    """A unit vector perpendicular to (x, y, z)."""
    # (x, y, z) cross (1, 0, 0), or cross (0, 1, 0) when x is large
    px, py, pz = (0.0, z, -y) if abs(x) < 0.9 else (-z, 0.0, x)
    n = math.sqrt(px * px + py * py + pz * pz)
    return px / n, py / n, pz / n
