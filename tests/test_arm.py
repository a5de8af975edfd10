import hashlib
import math

import numpy as np
import pytest

from harvestcell.arm import (IkOptions, Joint, KinematicChain, Pose,
                             RigidTransform, _frames, _one, forward_kinematics,
                             inverse_kinematics, jacobian, link_points,
                             link_points_batch, matrix_to_quat, quat_to_matrix,
                             solve_ik_point, target_approach_axis)
from harvestcell.errors import ConfigError, DimensionMismatch, NoConvergence


def _single_z_chain(offset=(0.0, 0.0, 0.0), tool=(1.0, 0.0, 0.0)):
    return KinematicChain(
        joints=(Joint(axis=np.array([0.0, 0.0, 1.0]),
                      offset=np.array(offset, dtype=float),
                      limits=(-np.pi, np.pi)),),
        tool_offset=RigidTransform(translation=np.array(tool, dtype=float)),
    )


def _rotation_about_axis(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix about a unit axis."""
    x, y, z = axis
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def test_quaternion_matrix_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(100):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        m = quat_to_matrix(q)
        assert np.allclose(m @ m.T, np.eye(3), atol=1e-12)
        q2 = matrix_to_quat(m)
        assert np.allclose(quat_to_matrix(q2), m, atol=1e-12)


def test_pose_requires_unit_quaternion():
    with pytest.raises(ConfigError):
        Pose(position=np.zeros(3), orientation=np.array([0.0, 0.0, 0.0, 1.1]))


NAN_QUAT = np.array([np.nan, 0.0, 0.0, 1.0])
NAN_AXIS = np.array([np.nan, 0.0, 0.0])


@pytest.mark.parametrize("make", [
    pytest.param(lambda: quat_to_matrix(NAN_QUAT), id="quat_to_matrix"),
    pytest.param(lambda: Pose(position=np.zeros(3), orientation=np.full(4, np.nan)),
                 id="pose"),
    pytest.param(lambda: RigidTransform(quaternion=NAN_QUAT), id="rigid-transform"),
    pytest.param(lambda: Joint(axis=NAN_AXIS, offset=np.zeros(3), limits=(-1.0, 1.0)),
                 id="joint-axis"),
    pytest.param(lambda: KinematicChain(joints=_single_z_chain().joints,
                                        approach_axis=NAN_AXIS), id="approach-axis"),
])
def test_unit_norm_checks_reject_nan(make):
    with pytest.raises(ConfigError):
        make()


def test_fk_zero_q_composes_static_offsets(run_config):
    chain = run_config.arm
    pose = forward_kinematics(chain, np.zeros(chain.n_joints))
    expected = sum((np.asarray(j.offset, dtype=float) for j in chain.joints),
                   np.asarray(chain.base_frame.translation, dtype=float))
    expected = expected + np.asarray(chain.tool_offset.translation, dtype=float)
    assert np.allclose(pose.position, expected, atol=1e-12)
    assert np.allclose(pose.orientation, [0.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_fk_single_revolute_half_turn():
    chain = _single_z_chain()
    pose = forward_kinematics(chain, [np.pi])
    assert np.allclose(pose.position, [-1.0, 0.0, 0.0], atol=1e-12)


def test_fk_matches_homogeneous_matrix_oracle(run_config):
    # independent route: explicit 4x4 homogeneous products
    chain = run_config.arm
    rng = np.random.default_rng(3)
    lo, hi = chain.limit_arrays()
    for _ in range(25):
        q = rng.uniform(lo, hi)
        T = np.eye(4)
        T[:3, :3] = chain.base_frame.matrix()
        T[:3, 3] = chain.base_frame.translation
        for joint, qi in zip(chain.joints, q):
            step = np.eye(4)
            step[:3, 3] = joint.offset
            rot = np.eye(4)
            rot[:3, :3] = _rotation_about_axis(np.asarray(joint.axis, float), qi)
            T = T @ step @ rot
        tool = np.eye(4)
        tool[:3, :3] = chain.tool_offset.matrix()
        tool[:3, 3] = chain.tool_offset.translation
        T = T @ tool
        pose = forward_kinematics(chain, q)
        assert np.allclose(pose.position, T[:3, 3], atol=1e-12)
        assert np.allclose(quat_to_matrix(pose.orientation), T[:3, :3], atol=1e-12)


def test_fk_dimension_mismatch(run_config):
    with pytest.raises(DimensionMismatch):
        forward_kinematics(run_config.arm, np.zeros(3))


def test_jacobian_linear_part_matches_finite_difference(run_config):
    chain = run_config.arm
    rng = np.random.default_rng(5)
    lo, hi = chain.limit_arrays()
    h = 1e-6
    for _ in range(10):
        q = rng.uniform(lo + 0.1, hi - 0.1)
        jac = jacobian(chain, q)
        for i in range(chain.n_joints):
            dq = np.zeros(chain.n_joints)
            dq[i] = h
            p_plus = forward_kinematics(chain, q + dq).position
            p_minus = forward_kinematics(chain, q - dq).position
            fd = (p_plus - p_minus) / (2 * h)
            assert np.allclose(jac[:3, i], fd, atol=1e-6)


def test_jacobian_equals_per_joint_loop(run_config):
    # reference: column i built on its own as (z_i x (p_tool - p_i), z_i)
    chain = run_config.arm
    rng = np.random.default_rng(6)
    lo, hi = chain.limit_arrays()
    for _ in range(10):
        q = rng.uniform(lo, hi)
        points, axes, _ = _frames(chain.compiled, q[None])
        ref = np.empty((6, chain.n_joints))
        for i in range(chain.n_joints):
            ref[:3, i] = np.cross(axes[0, i], points[0, -1] - points[0, i])
            ref[3:, i] = axes[0, i]
        assert np.array_equal(jacobian(chain, q), ref)


def test_jacobian_rank_deficient_at_colinear_posture():
    # two z-axis joints at the same origin produce identical columns
    joints = (
        Joint(axis=np.array([0.0, 0.0, 1.0]), offset=np.zeros(3),
              limits=(-np.pi, np.pi)),
        Joint(axis=np.array([0.0, 0.0, 1.0]), offset=np.zeros(3),
              limits=(-np.pi, np.pi)),
        Joint(axis=np.array([0.0, 1.0, 0.0]), offset=np.array([0.3, 0.0, 0.0]),
              limits=(-np.pi, np.pi)),
    )
    chain = KinematicChain(joints=joints, tool_offset=RigidTransform(
        translation=np.array([0.2, 0.0, 0.0])))
    jac = jacobian(chain, np.zeros(3))
    sigma = np.linalg.svd(jac, compute_uv=False)
    assert sigma[-1] < 1e-9


def test_jacobian_zero_length_tool_column():
    chain = _single_z_chain(tool=(0.0, 0.0, 0.0))
    jac = jacobian(chain, [0.3])
    assert np.allclose(jac[:3, 0], 0.0, atol=1e-15)
    assert np.allclose(jac[3:, 0], [0.0, 0.0, 1.0], atol=1e-15)


def test_link_points_batch_matches_scalar(run_config):
    chain = run_config.arm
    rng = np.random.default_rng(11)
    lo, hi = chain.limit_arrays()
    for batch in (1, 2, 7, 2400):
        qs = rng.uniform(lo, hi, (batch, chain.n_joints))
        frames = _frames(chain.compiled, qs)
        assert np.array_equal(link_points_batch(chain, qs), frames[0])
        for i in range(batch):
            # one kernel serves every batch size, so all three outputs agree
            # with a batch of one bit for bit
            row = _frames(chain.compiled, qs[i:i + 1])
            for out, out_row in zip(frames, row):
                assert np.array_equal(out[i], out_row[0])
    for q in qs[:40]:
        assert np.array_equal(forward_kinematics(chain, q).position,
                              link_points(chain, q)[-1])


def _rotated_chain(chain, oblique=False):
    """`chain`'s joints between a base turned a third of a turn about
    (1, 1, 1) and a tool turned half a turn about z. Both rotation matrices
    permute axes, so every product that OpenBLAS fuses into a multiply-add
    stays exact. With `oblique`, every joint axis and offset is tilted off
    the frame axes instead, and that no longer holds."""
    joints = chain.joints
    if oblique:
        rng = np.random.default_rng(41)
        joints = tuple(Joint(axis=j.axis + rng.normal(0.0, 0.3, 3),
                             offset=j.offset + rng.normal(0.0, 0.05, 3),
                             limits=j.limits) for j in joints)
    return KinematicChain(
        joints=joints,
        base_frame=RigidTransform(translation=np.array([0.1, -0.2, 0.3]),
                                  quaternion=np.array([0.5, 0.5, 0.5, 0.5])),
        tool_offset=RigidTransform(translation=np.array([0.0, 0.0, 0.12]),
                                   quaternion=np.array([0.0, 0.0, 1.0, 0.0])))


def _kernel_pairs(chain, rng):
    """(`_one`, `_frames`) outputs, points, axes then tool rotation, at
    random in-limit configurations and at ones made of 0, -0, 1, pi/2 and
    3.14, where products and sums of exact zeros decide signs."""
    lo, hi = chain.limit_arrays()
    qs = np.concatenate([rng.uniform(lo, hi, (400, chain.n_joints)),
                         rng.choice([0.0, -0.0, 1.0, np.pi / 2, 3.14],
                                    (200, chain.n_joints))])
    for q in qs:
        points, axes, tool_rot = _one(chain.compiled, q.tolist())
        ref = _frames(chain.compiled, q[None])
        yield from zip((np.array(points), np.array(axes),
                        np.reshape(tool_rot, (3, 3))), (out[0] for out in ref))


@pytest.mark.parametrize("rotated", [False, True], ids=["shipped", "rotated"])
def test_one_equals_frames_bit_for_bit(run_config, rotated):
    chain = _rotated_chain(run_config.arm) if rotated else run_config.arm
    for got, want in _kernel_pairs(chain, np.random.default_rng(31)):
        assert got.tobytes() == want.tobytes()


def test_one_equals_frames_to_rounding_on_an_oblique_chain(run_config):
    # OpenBLAS's fused multiply-adds round once where `_one` rounds twice
    chain = _rotated_chain(run_config.arm, oblique=True)
    for got, want in _kernel_pairs(chain, np.random.default_rng(37)):
        assert np.allclose(got, want, rtol=0.0, atol=1e-14)


def _numpy_solve(chain, position, unit_axis, seed, opts=IkOptions()):
    """`arm._solve`'s damped-least-squares loop on numpy arrays: `_frames`
    for the residual, np.cross, np.linalg.norm, np.linalg.solve (LAPACK's
    LU) and np.clip. The answer, or None where the loop ends without
    converging."""
    compiled = chain.compiled
    lo, hi = chain.limit_arrays()

    def residual(q):
        points, axes, tool_rot = (out[0] for out in _frames(compiled, q[None]))
        current = tool_rot @ compiled.approach
        cross = np.cross(current, unit_axis)
        s = np.linalg.norm(cross)
        angle = math.atan2(s, min(max(float(current @ unit_axis), -1.0), 1.0))
        assert s >= 1e-12 or angle < 1e-12  # no antiparallel axes here
        err_rot = np.zeros(3) if s < 1e-12 else cross / s * angle
        jac = np.vstack([np.cross(axes, points[-1] - points[:-1]).T, axes.T])
        return jac, np.concatenate([position - points[-1], err_rot])

    q = np.clip(seed, lo, hi)
    jac, err = residual(q)
    trace = [np.linalg.norm(err)]
    for iteration in range(opts.max_iters + 1):
        if (np.linalg.norm(err[:3]) < opts.tol_pos
                and np.linalg.norm(err[3:]) < opts.tol_rot):
            return q
        if iteration == opts.max_iters:
            return None
        lam = max(opts.damping, 0.5 * trace[-1])
        dq = np.linalg.solve(jac.T @ jac + lam * lam * np.eye(q.size),
                             jac.T @ err)
        for step in 0.5 ** np.arange(12.0):
            q_new = np.clip(q + step * dq, lo, hi)
            jac_new, err_new = residual(q_new)
            if np.linalg.norm(err_new) < trace[-1]:
                break
        else:
            return None
        q, jac, err = q_new, jac_new, err_new
        trace.append(np.linalg.norm(err))


def test_float_loop_matches_the_numpy_loop_on_criterion_05(run_config):
    # the criterion-05 sample: the same convergence status for every round
    # trip, and answers that differ only by rounding (BLAS dot products and
    # LAPACK's LU against float sums and a Cholesky solve)
    chain = run_config.arm
    lo, hi = chain.limit_arrays()
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        q0 = rng.uniform(lo, hi)
        pose = forward_kinematics(chain, q0)
        seed = np.clip(q0 + rng.normal(0.0, 0.1, chain.n_joints), lo, hi)
        want = _numpy_solve(chain, pose.position,
                            target_approach_axis(pose, chain), seed)
        try:
            got = inverse_kinematics(chain, pose, seed)
        except NoConvergence:
            got = None
        assert (got is None) == (want is None)
        if got is not None:
            assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("opts", [
    pytest.param(IkOptions(damping=0.0), id="default-tolerances"),
    # tolerances no float residual reaches: near the answer lambda^2 is
    # lost in rounding against J^T J, whose smallest eigenvalue is ~0 here
    pytest.param(IkOptions(damping=0.0, tol_pos=1e-300, tol_rot=1e-300),
                 id="unreachable-tolerances"),
])
def test_undamped_solve_at_a_straight_arm_ends_cleanly(run_config, opts):
    # elbow straight: the upper arm (0.25, 0, 0) turned along the shoulder
    # link (0.05, 0, 0.25), where J loses rank; a round trip from nearby
    # seeds ends in an answer or NoConvergence, never in an error from the
    # Cholesky solve
    chain = run_config.arm
    q_straight = np.array([0.0, 0.0, -math.atan2(0.25, 0.05), 0.0, 0.0])
    assert np.linalg.svd(jacobian(chain, q_straight), compute_uv=False)[-1] < 1e-12
    pose = forward_kinematics(chain, q_straight)
    rng = np.random.default_rng(43)
    outcomes = set()
    for _ in range(20):
        seed = q_straight + rng.normal(0.0, 0.05, chain.n_joints)
        try:
            result = inverse_kinematics(chain, pose, seed, opts)
        except NoConvergence as exc:
            outcomes.add("no-convergence")
            assert np.all(np.isfinite(exc.best_q))
        else:
            outcomes.add("answer")
            check = forward_kinematics(chain, result)
            assert np.linalg.norm(check.position - pose.position) < opts.tol_pos
    assert outcomes == ({"answer"} if opts.tol_pos == 1e-6 else {"no-convergence"})


def test_ik_fixed_point(run_config):
    chain = run_config.arm
    q0 = chain.home_q
    target = forward_kinematics(chain, q0)
    result = inverse_kinematics(chain, target, q0)
    assert np.allclose(result, q0, atol=1e-12)


def test_ik_converges_from_nearby_seed(run_config):
    chain = run_config.arm
    rng = np.random.default_rng(13)
    lo, hi = chain.limit_arrays()
    q0 = rng.uniform(lo + 0.2, hi - 0.2)
    target = forward_kinematics(chain, q0 + 0.02)
    result = inverse_kinematics(chain, target, q0)
    pose = forward_kinematics(chain, result)
    assert np.linalg.norm(pose.position - target.position) < 1e-6
    assert np.all(result >= lo) and np.all(result <= hi)


def test_ik_unreachable_reports_no_convergence(run_config):
    chain = run_config.arm
    target = Pose(position=np.array([10.0, 0.0, 0.0]),
                  orientation=np.array([0.0, 0.0, 0.0, 1.0]))
    with pytest.raises(NoConvergence) as exc_info:
        inverse_kinematics(chain, target, chain.home_q)
    err = exc_info.value
    trace = np.asarray(err.residual_trace)
    # a step is taken only when it shrinks the residual
    assert np.all(np.diff(trace) < 0.0)
    lo, hi = chain.limit_arrays()
    assert np.all(err.best_q >= lo) and np.all(err.best_q <= hi)


def test_ik_takes_no_step_the_joint_limit_clips_away():
    # the target lies past the joint's upper limit and the seed sits on it:
    # every step clips back to the seed, which leaves the residual as it
    # is, so none is taken
    chain = KinematicChain(
        joints=(Joint(axis=np.array([0.0, 0.0, 1.0]), offset=np.zeros(3),
                      limits=(0.0, 0.5)),),
        tool_offset=RigidTransform(translation=np.array([1.0, 0.0, 0.0])))
    target = forward_kinematics(chain, [1.0])
    with pytest.raises(NoConvergence) as exc_info:
        inverse_kinematics(chain, target, [0.5])
    assert len(exc_info.value.residual_trace) == 1
    assert exc_info.value.best_q.tolist() == [0.5]


def test_ik_round_trip_sample(run_config):
    chain = run_config.arm
    rng = np.random.default_rng(17)
    lo, hi = chain.limit_arrays()
    failures = 0
    for _ in range(100):
        q0 = rng.uniform(lo, hi)
        pose = forward_kinematics(chain, q0)
        seed = np.clip(q0 + rng.normal(0.0, 0.1, chain.n_joints), lo, hi)
        try:
            result = inverse_kinematics(chain, pose, seed)
        except NoConvergence:
            failures += 1
            continue
        check = forward_kinematics(chain, result)
        assert np.linalg.norm(check.position - pose.position) < 1e-6
        assert np.all(result >= lo) and np.all(result <= hi)
    assert failures <= 1


def test_solve_ik_point_tracks_approach_axis(run_config):
    chain = run_config.arm
    q = solve_ik_point(chain, np.array([0.45, 0.0, 0.32]),
                       np.array([0.0, 0.0, 1.0]), chain.home_q)
    pose = forward_kinematics(chain, q)
    axis = quat_to_matrix(pose.orientation) @ chain.approach_axis
    assert np.linalg.norm(pose.position - [0.45, 0.0, 0.32]) < 1e-6
    assert np.arccos(np.clip(axis @ [0.0, 0.0, 1.0], -1, 1)) < 1e-4


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["position", "seed_q"])
def test_ik_rejects_non_finite_input(run_config, where, bad):
    chain = run_config.arm
    position = np.array([0.45, 0.0, 0.32])
    seed = chain.home_q.copy()
    (position if where == "position" else seed)[1] = bad
    target = Pose(position=position, orientation=np.array([0.0, 0.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match=where):
        inverse_kinematics(chain, target, seed)
    with pytest.raises(ValueError, match=where):
        solve_ik_point(chain, position, np.array([0.0, 0.0, 1.0]), seed)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fk_rejects_non_finite_q(run_config, bad):
    chain = run_config.arm
    q = np.zeros(chain.n_joints)
    q[0] = bad
    for kinematics in (forward_kinematics, jacobian, link_points):
        with pytest.raises(ValueError, match="q must be finite"):
            kinematics(chain, q)
    # the planner's batch keeps its NaN rows (past the fixed base point),
    # which collide
    points = link_points_batch(chain, np.stack([q, np.zeros(chain.n_joints)]))
    assert np.isnan(points[0, 1:]).all() and np.isfinite(points[1]).all()


def test_chain_rejects_nan_home_q():
    joints = _single_z_chain().joints
    with pytest.raises(ConfigError, match="home_q"):
        KinematicChain(joints=joints, home_q=np.array([np.nan]))


def test_target_approach_axis(run_config):
    chain = run_config.arm
    pose = forward_kinematics(chain, chain.home_q)
    axis = target_approach_axis(pose, chain)
    assert abs(np.linalg.norm(axis) - 1.0) < 1e-12


def test_ik_answers_bytes_pinned(run_config, harvest_target):
    # SHA-256 of 40 criterion-05 round trips and 40 solve_ik_point calls
    # around the shipped tomato cluster (every 8th moved out of reach), with
    # the best iterate, residuals and trace of every NoConvergence; a change
    # that claims the same answers faster must keep it (numpy 2.x, x86-64).
    # Taken when the loop moved onto Python floats: its float sums and
    # Cholesky solve round differently from the BLAS products and LAPACK
    # solve before it, so the answers moved by about 1e-14 rad and every
    # solve kept its convergence status.
    chain = run_config.arm
    lo, hi = chain.limit_arrays()
    rng = np.random.default_rng(29)
    tomatoes = [np.asarray(s.center, dtype=float)
                for s in run_config.scene.spheres if s.tag == "tomato"]
    axis = harvest_target.pedicel_3d - harvest_target.center_3d
    axis = axis / np.linalg.norm(axis)
    depth = run_config.pick_cycle.insertion_depth
    digest = hashlib.sha256()
    failures = 0
    for i in range(40):
        q0 = rng.uniform(lo, hi)
        seed = np.clip(q0 + rng.normal(0.0, 0.1, chain.n_joints), lo, hi)
        point = tomatoes[i % len(tomatoes)] + rng.uniform(-0.03, 0.03, 3)
        if i % 2:
            point = point - depth * axis
        if i % 8 == 7:
            point = 3.0 * point
        for solve in (
                lambda: inverse_kinematics(chain, forward_kinematics(chain, q0), seed),
                lambda: solve_ik_point(chain, point, axis, chain.home_q)):
            try:
                digest.update(solve().tobytes())
            except NoConvergence as exc:
                failures += 1
                digest.update(np.concatenate([
                    exc.best_q, [exc.pos_residual, exc.rot_residual],
                    exc.residual_trace]).tobytes())
    assert failures == 5
    assert digest.hexdigest() == (
        "6ad1dad92df969809715f26d71855e83b4331817d91cea2797bc7aff3eb57b76")


@pytest.mark.parametrize("field, value", [
    ("max_iters", -3),
    ("tol_pos", float("nan")),
    ("tol_pos", 0.0),
    ("tol_rot", float("inf")),
    ("damping", -0.1),
    ("damping", float("nan")),
])
def test_ik_options_reject_bad_values(field, value):
    with pytest.raises(ConfigError, match=field):
        IkOptions(**{field: value})


@pytest.mark.parametrize("axis", [
    pytest.param([0.0, 0.0, 0.0], id="zero"),
    pytest.param([np.nan, 0.0, 1.0], id="nan"),
    pytest.param([np.inf, 0.0, 1.0], id="inf"),
    pytest.param([0.0, 1.0], id="short"),
    pytest.param([1e300, 1e300, 0.0], id="overflowing-norm"),
])
def test_solve_ik_point_rejects_bad_approach_axis(run_config, axis):
    chain = run_config.arm
    with pytest.raises(ValueError, match="approach_axis"):
        solve_ik_point(chain, np.array([0.45, 0.0, 0.32]), np.array(axis),
                       chain.home_q)
