import numpy as np
import pytest

from harvestcell.arm import (IkOptions, Joint, KinematicChain, Pose,
                             RigidTransform, _frames, forward_kinematics,
                             inverse_kinematics, jacobian, link_points,
                             link_points_batch, matrix_to_quat, quat_to_matrix,
                             rotation_about_axis, solve_ik_point,
                             target_approach_axis)
from harvestcell.errors import ConfigError, DimensionMismatch, NoConvergence


def _single_z_chain(offset=(0.0, 0.0, 0.0), tool=(1.0, 0.0, 0.0)):
    return KinematicChain(
        joints=(Joint(axis=np.array([0.0, 0.0, 1.0]),
                      offset=np.array(offset, dtype=float),
                      limits=(-np.pi, np.pi)),),
        tool_offset=RigidTransform(translation=np.array(tool, dtype=float)),
    )


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
            rot[:3, :3] = rotation_about_axis(np.asarray(joint.axis, float), qi)
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
    qs = rng.uniform(lo, hi, (40, chain.n_joints))
    batch = link_points_batch(chain, qs)
    for i in range(qs.shape[0]):
        # one kernel serves every batch size, so the rows agree bit for bit
        assert np.array_equal(batch[i], link_points(chain, qs[i]))
        assert np.array_equal(forward_kinematics(chain, qs[i]).position,
                              link_points(chain, qs[i])[-1])


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
    assert np.all(np.diff(trace) <= 0.0)
    lo, hi = chain.limit_arrays()
    assert np.all(err.best_q >= lo) and np.all(err.best_q <= hi)


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


def test_target_approach_axis(run_config):
    chain = run_config.arm
    pose = forward_kinematics(chain, chain.home_q)
    axis = target_approach_axis(pose, chain)
    assert abs(np.linalg.norm(axis) - 1.0) < 1e-12


def test_ik_position_only_mode(run_config):
    chain = run_config.arm
    target = forward_kinematics(chain, chain.home_q + 0.05)
    opts = IkOptions(orientation_mode="position")
    result = inverse_kinematics(chain, target, chain.home_q, opts)
    pose = forward_kinematics(chain, result)
    assert np.linalg.norm(pose.position - target.position) < 1e-6
