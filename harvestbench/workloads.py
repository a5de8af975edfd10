"""The three benchmark workloads: set-up, seeded op lists, ops and oracles.

Every workload starts from the same cell: the shipped configuration, and
detection + depth files generated from the workload seed, written with
`save_detections` / `write_depth_frame` and read back through
`load_detections` / `load_depth_frame`. The files always contain the
shipped target (a ripe tomato on the optical axis at 0.35 m, which the
shipped extrinsics lift to (0.45, 0, 0.40) in the base frame) among
seeded distractors that `select_target` must reject, so every workload
plans against the same target while its other inputs vary with the seed.

A workload's op list is fixed by the seed and by --seconds: its length is
--seconds divided by the op's cost measured at the commit that defined the
benchmark, so one run lasts about --seconds there and every later commit
runs the same list.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, replace

import numpy as np

import oracles

TARGET_DEPTH = 0.35          # m, depth of the shipped target's region
TARGET_REGION_PX = 90        # shipped-target disk kept at TARGET_DEPTH
FAR_DEPTH = (1.0, 1.6)       # m, seeded background
IK_CLUSTER_JITTER = 0.03     # m, per axis, around a cluster tomato


class SetupError(Exception):
    """The generated cell is not the one the benchmark expects."""


@dataclass
class Cell:
    hc: object
    config: object
    target: object
    scene_after: object       # the scene with the target tomato removed
    plans: object = None      # pick-mc only: the shipped plan_cycle result


def _shipped_record(hc):
    DetectionRecord, Keypoint = hc.perception.DetectionRecord, hc.perception.Keypoint
    return DetectionRecord(label="ripe", score=0.92, bbox=(570, 290, 710, 430),
                           center=Keypoint(640, 360, 0.95),
                           pedicel=Keypoint(640, 320, 0.90))


def _distractors(hc, rng, camera):
    """Seeded records select_target must skip: unripe ones, ripe ones with a
    low-confidence keypoint, ripe ones over invalid depth, and ripe ones
    farther from the base than the shipped target."""
    DetectionRecord, Keypoint = hc.perception.DetectionRecord, hc.perception.Keypoint
    records, regions = [], []
    kinds = ["unripe", "low_confidence", "no_depth", "far"]
    for i in range(int(rng.integers(4, 9))):
        kind = kinds[i % len(kinds)] if i < len(kinds) else kinds[int(rng.integers(4))]
        while True:
            u = float(rng.uniform(60, camera.width - 60))
            v = float(rng.uniform(60, camera.height - 60))
            if np.hypot(u - 640, v - 340) > TARGET_REGION_PX + 60 and all(
                    np.hypot(u - a, v - b) > 50 for a, b, _ in regions):
                break
        half = float(rng.uniform(15, 40))
        conf = float(rng.uniform(0.6, 0.99))
        low = float(rng.uniform(0.05, 0.45)) if kind == "low_confidence" else conf
        records.append(DetectionRecord(
            label="unripe" if kind == "unripe" else "ripe",
            score=float(rng.uniform(0.5, 0.99)),
            bbox=(u - half, v - half, u + half, v + half),
            center=Keypoint(u, v, conf), pedicel=Keypoint(u, v - 0.6 * half, low)))
        depth = {"no_depth": 0.0, "far": float(rng.uniform(0.8, 0.95))}.get(kind)
        regions.append((u, v, depth))
    return records, regions


def _fill_disk(depth, u, v, radius, value):
    """Set the pixels within `radius` of (u, v) to `value`, in place."""
    r0, c0 = max(0, int(v) - radius), max(0, int(u) - radius)
    rows, cols = np.ogrid[r0:int(v) + radius + 1, c0:int(u) + radius + 1]
    window = depth[r0:r0 + rows.shape[0], c0:c0 + cols.shape[1]]
    window[np.hypot(cols - u, rows - v) < radius] = value


def write_inputs(hc, workdir, seed, camera):
    """Detection JSON and depth frame for one seed; returns their paths."""
    rng = np.random.default_rng([seed, 0x5EED])
    records, regions = _distractors(hc, rng, camera)
    order = rng.permutation(len(records) + 1)
    records.append(_shipped_record(hc))
    records = [records[i] for i in order]
    depth = rng.uniform(*FAR_DEPTH, size=(camera.height, camera.width))
    depth[rng.random(depth.shape) < 0.01] = np.nan   # scattered invalid pixels
    for u, v, value in regions:
        if value is not None:
            _fill_disk(depth, u, v, 30, value)
    _fill_disk(depth, 640, 340, TARGET_REGION_PX, TARGET_DEPTH)
    det_path = workdir / "detections.json"
    depth_path = workdir / "depth.bin"
    hc.perception.save_detections(det_path, records)
    hc.perception.write_depth_frame(depth_path, depth)
    return det_path, depth_path


def expected_target(camera):
    """The shipped target lifted by hand from the stored float32 depth."""
    z = float(np.float32(TARGET_DEPTH))
    rot = camera.rotation_matrix()
    t = np.asarray(camera.extrinsic_translation, dtype=float)
    center = rot @ np.array([0.0, 0.0, z]) + t
    pedicel = rot @ np.array([0.0, (320 - camera.cy) * z / camera.fy, z]) + t
    return center, pedicel


def set_up_cell(hc, workdir, seed, with_plans) -> Cell:
    config = hc.config.load_default_config()
    camera = config.camera
    det_path, depth_path = write_inputs(hc, workdir, seed, camera)
    records = hc.perception.load_detections(det_path, (camera.width, camera.height))
    depth = hc.perception.load_depth_frame(depth_path)
    target = hc.perception.select_target(records, camera, depth)
    center, pedicel = expected_target(camera)
    if not (np.allclose(target.center_3d, center, rtol=0, atol=1e-9)
            and np.allclose(target.pedicel_3d, pedicel, rtol=0, atol=1e-9)):
        raise SetupError(f"select_target lifted {target.center_3d.tolist()}, "
                         f"expected the shipped target at {center.tolist()}")
    chain = config.arm
    # every cycle starts at home_q, and every grasp commands the holding torque
    if hc.collision_check(chain, chain.home_q, config.scene,
                          config.pso.clearance).colliding:
        raise SetupError("home_q collides with the shipped scene")
    cycle = config.pick_cycle
    if not hc.mechanism.torque_single_finger(
            config.mechanism, cycle.grasp_theta_deg, cycle.grasp_force).torque_total > 0:
        raise SetupError("grasp holding torque is not positive")
    cell = Cell(hc=hc, config=config, target=target,
                scene_after=config.scene.without_sphere_containing(target.center_3d))
    if with_plans:
        cell.plans = hc.harvest.plan_cycle(target, chain, config.scene,
                                           config.pso, cycle)
        if cell.plans.failure_stage is not None:
            raise SetupError(f"shipped plan_cycle failed at {cell.plans.failure_stage}")
    return cell


def _floats(*values) -> bytes:
    parts = []
    for v in values:
        parts.append(b"-" if v is None else np.asarray(v, dtype="<f8").tobytes())
    return b"|".join(parts)


def _op_count(seconds, cost_s) -> int:
    return max(1, round(seconds / cost_s))


def _approach_axis(cell):
    direction = cell.target.pedicel_3d - cell.target.center_3d
    return direction / np.linalg.norm(direction)


def check_cycle_plans(cell, plans) -> str | None:
    """Oracle for one plan_cycle result: every IK answer and every plan it returns."""
    hc, cfg = cell.hc, cell.config
    chain, cycle = cfg.arm, cfg.pick_cycle
    axis = _approach_axis(cell)
    center = np.asarray(cell.target.center_3d, dtype=float)
    checks = [
        (plans.q_pregrasp, center - cycle.insertion_depth * axis, axis),
        (plans.q_grasp, center, axis),
        (plans.q_punnet, cycle.punnet_position, np.array([0.0, 0.0, -1.0])),
    ]
    for q, position, approach in checks:
        if q is not None:
            reason = oracles.check_ik(hc, chain, q, position, approach)
            if reason:
                return reason
    if plans.approach_trajectory is not None:
        reason = oracles.check_plan(hc, chain, cfg.scene, cfg.pso,
                                    plans.approach_trajectory, chain.home_q,
                                    plans.q_pregrasp)
        if reason:
            return "approach: " + reason
    if plans.depart_trajectory is not None:
        reason = oracles.check_plan(hc, chain, cell.scene_after, cfg.pso,
                                    plans.depart_trajectory, plans.q_pregrasp,
                                    plans.q_punnet)
        if reason:
            return "depart: " + reason
    if plans.failure_stage is None and plans.depart_trajectory is None:
        return "plan_cycle reported no failure but returned no depart plan"
    return None


def _plans_bytes(plans) -> bytes:
    traj = [t.waypoints if t is not None else None
            for t in (plans.approach_trajectory, plans.depart_trajectory)]
    fit = [t.fitness if t is not None else None
           for t in (plans.approach_trajectory, plans.depart_trajectory)]
    return (str(plans.failure_stage).encode()
            + _floats(plans.q_pregrasp, plans.q_grasp, plans.q_punnet,
                      *traj, *fit))


class PlanCycle:
    """One op = harvest.plan_cycle for the shipped target on the shipped
    cluttered scene, with PSO seed = workload seed + op index."""

    name = "plan-cycle"
    op_cost_s = 3.8
    needs_plans = False

    def ops(self, cell, seed, seconds):
        return [(seed + i) % 2**32 for i in range(_op_count(seconds, self.op_cost_s))]

    def run(self, cell, pso_seed):
        cfg = cell.config
        return cell.hc.harvest.plan_cycle(cell.target, cfg.arm, cfg.scene,
                                          replace(cfg.pso, seed=pso_seed),
                                          cfg.pick_cycle)

    def summarize(self, cell, pso_seed, plans):
        """(kept for the oracle, digest bytes, op succeeded)"""
        return plans, _plans_bytes(plans), plans.failure_stage is None

    def check(self, cell, pso_seed, plans):
        return check_cycle_plans(cell, plans)


# (pose-noise sigma m, systematic cut offset m, collect per-trial reports)
MC_SCHEDULE = (
    (0.0, 0.0, False),        # every trial takes the success path + torque
    (0.0046, 0.0, True),      # shipped calibrated sigma, pick-stats shaped
    (0.005, 0.005, False),    # criterion 08
    (0.0047, 0.0, False),     # near the calibrated sigma
    (0.05, 0.0, False),       # sigma >> cut radius: most trials return early
)
MC_TRIALS = 1000
CALIBRATION_TRIALS_PER_EVAL = 1000   # criterion 09
CALIBRATION_CHECK_TRIALS = 4000


class PickMc:
    """Ops = one calibrate_noise(..., 0.80) and monte_carlo batches over
    MC_SCHEDULE on the plans made once in set-up."""

    name = "pick-mc"
    calibration_cost_s = 4.0
    batch_cost_s = 0.105
    needs_plans = True

    def ops(self, cell, seed, seconds):
        rng = np.random.default_rng([seed, 2])
        batches = max(len(MC_SCHEDULE),
                      round(max(seconds - self.calibration_cost_s, 0.0)
                            / self.batch_cost_s))
        bases = rng.integers(0, 2**31, batches + 1)
        ops = [("calibrate", int(bases[0]))]
        for i in range(batches):
            ops.append(("batch", i % len(MC_SCHEDULE), int(bases[i + 1])))
        return ops

    def _batch_target(self, cell, offset):
        target = cell.target
        axis = _approach_axis(cell)
        return replace(target, pedicel_3d=target.pedicel_3d + offset * axis)

    def run(self, cell, op):
        hc, cfg = cell.hc, cell.config
        if op[0] == "calibrate":
            return hc.harvest.calibrate_noise(
                cell.target, cfg.arm, cfg.scene, cfg.pso, cfg.pick_cycle, 0.80,
                trials_per_eval=CALIBRATION_TRIALS_PER_EVAL)
        sigma, offset, reports = MC_SCHEDULE[op[1]]
        cycle = replace(cfg.pick_cycle, pose_noise_sigma=sigma, seed=op[2])
        return hc.harvest.monte_carlo(
            self._batch_target(cell, offset), cfg.arm, cfg.scene, cfg.pso,
            cycle, MC_TRIALS, cfg.mechanism, cell.plans, collect_reports=reports)

    def summarize(self, cell, op, out):
        if op[0] == "calibrate":
            return out, _floats(out), True
        summary, reports = out if isinstance(out, tuple) else (out, None)
        counts = summary.outcome_counts
        kept = {"counts": dict(counts), "trials": summary.trials}
        blob = repr(sorted(counts.items())).encode() + _floats(
            summary.total_time_mean, summary.total_time_std)
        if reports is not None:
            outcomes = [r.outcome for r in reports]
            kept["report_counts"] = {o: outcomes.count(o) for o in counts}
            kept["report_trials"] = len(reports)
            blob += "".join(o[0] for o in outcomes).encode() + _floats(
                [r.total_time for r in reports])
        return kept, blob, True

    def check(self, cell, op, kept):
        hc, cfg = cell.hc, cell.config
        if op[0] == "calibrate":
            sigma = kept
            fresh = replace(cfg.pick_cycle, pose_noise_sigma=sigma, seed=op[1])
            summary = hc.harvest.monte_carlo(
                cell.target, cfg.arm, cfg.scene, cfg.pso, fresh,
                CALIBRATION_CHECK_TRIALS, cfg.mechanism, cell.plans)
            return oracles.check_calibrated_rate(summary.success_rate)
        sigma, offset, _ = MC_SCHEDULE[op[1]]
        counts, trials = kept["counts"], kept["trials"]
        if sum(counts.values()) != trials or trials != MC_TRIALS:
            return f"outcome counts {counts} do not add up to {MC_TRIALS} trials"
        if counts["success"] + counts["fail_cut_missed"] != trials:
            return f"planning outcomes on feasible plans: {counts}"
        if "report_counts" in kept and (kept["report_counts"] != counts
                                        or kept["report_trials"] != trials):
            return "per-trial reports disagree with the summary counts"
        miss = float(np.linalg.norm(self._batch_target(cell, offset).pedicel_3d
                                    - cell.plans.nominal_cut_center))
        expected = oracles.offset_gaussian_in_sphere(
            miss, sigma, cfg.pick_cycle.cut_zone_radius)
        return oracles.check_mc_rate(counts["success"], trials, expected)


class IkRoundtrip:
    """One op = one criterion-05 round trip (random in-limit q, FK pose,
    inverse_kinematics from a seed perturbed by 0.1 rad) and one
    solve_ik_point from home_q to a point around the shipped tomato cluster
    with the cycle's approach axis, as plan_cycle issues them.

    Pairing the two solves in one op keeps the op latency unimodal: as
    separate ops, the fast round trips and the slower far-seed solves
    split 50/50, and the median fell in the gap between them.
    """

    name = "ik-roundtrip"
    op_cost_s = 0.0097
    needs_plans = False

    def ops(self, cell, seed, seconds):
        rng = np.random.default_rng([seed, 3])
        chain = cell.config.arm
        lo, hi = chain.limit_arrays()
        tomatoes = [np.asarray(s.center, dtype=float)
                    for s in cell.config.scene.spheres if s.tag == "tomato"]
        depth = cell.config.pick_cycle.insertion_depth
        axis = _approach_axis(cell)
        ops = []
        for _ in range(_op_count(seconds, self.op_cost_s)):
            q0 = rng.uniform(lo, hi)
            seed_q = np.clip(q0 + rng.normal(0.0, 0.1, chain.n_joints), lo, hi)
            point = tomatoes[int(rng.integers(len(tomatoes)))] + rng.uniform(
                -IK_CLUSTER_JITTER, IK_CLUSTER_JITTER, 3)
            if rng.random() < 0.5:
                point = point - depth * axis      # the pre-grasp point
            ops.append((q0, seed_q, point, axis))
        return ops

    def run(self, cell, op):
        """(round-trip answer, its target pose, point answer); an answer is
        the NoConvergence raised instead where IK did not converge."""
        arm = cell.hc.arm
        chain = cell.config.arm
        q0, seed_q, point, axis = op
        pose = arm.forward_kinematics(chain, q0)
        answers = []
        for solve in (lambda: arm.inverse_kinematics(chain, pose, seed_q),
                      lambda: arm.solve_ik_point(chain, point, axis, chain.home_q)):
            try:
                answers.append(solve())
            except cell.hc.errors.NoConvergence as exc:
                answers.append(exc)
        return answers[0], pose, answers[1]

    def summarize(self, cell, op, out):
        blob, success = b"", True
        for answer in (out[0], out[2]):
            if isinstance(answer, Exception):
                blob += b"x" + _floats(answer.best_q, answer.pos_residual,
                                       answer.rot_residual)
                success = False
            else:
                blob += _floats(answer)
        return out, blob, success

    def check(self, cell, op, out):
        hc, chain = cell.hc, cell.config.arm
        roundtrip, pose, point_answer = out
        targets = ((roundtrip, pose.position, hc.arm.target_approach_axis(pose, chain)),
                   (point_answer, op[2], op[3]))
        for answer, position, axis in targets:
            if isinstance(answer, Exception):
                reason = oracles.check_no_convergence(answer, hc.IkOptions())
            else:
                reason = oracles.check_ik(hc, chain, answer, position, axis)
            if reason:
                return reason
        return None


WORKLOADS = {w.name: w for w in (PlanCycle(), PickMc(), IkRoundtrip())}


def digest_of(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(struct.pack("<Q", len(chunk)))
        h.update(chunk)
    return h.hexdigest()
