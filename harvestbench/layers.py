"""Per-layer metrics derived from the span tree of a traced run."""

from __future__ import annotations

import statistics

from spans import COUNT, ERROR, NAME, SpanTree

GEOMETRY = ("geometry.segment_segment_distance", "geometry.segment_point_distance")
PROFILE = ("arm.link_points_batch",) + GEOMETRY


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, op_roots, setup_roots) -> tuple[dict, dict]:
    """(per-layer metric values, plan_trajectory profile split).

    op_roots are the benchmark's own spans around each traced op, and
    setup_roots those around each set-up repetition. A layer's share is its
    time over the total time of the traced ops. Undefined ratios (a layer
    that did no work in this workload) read 0.
    """
    tree = SpanTree(spans)
    dur = tree.duration
    op_ns = sum(dur(r) for r in op_roots)

    def below(name, within=None):
        # every traced call happens inside an op or a set-up span
        return tree.named(name) if within is None else tree.within(within, name)

    def total(indices):
        return sum(dur(i) for i in indices)

    def counted(indices, part=None):
        if part is None:
            return sum(spans[i][COUNT] for i in indices)
        return sum(spans[i][COUNT][part] for i in indices)

    m = {}
    plans = below("planner.plan_trajectory")
    approach, depart = [], []
    for cycle in below("harvest.plan_cycle"):
        children = [c for c in tree.children[cycle]
                    if spans[c][NAME] == "planner.plan_trajectory"]
        approach += [dur(c) for c in children[:1]]
        depart += [dur(c) for c in children[1:2]]
    plan_ns = total(plans)
    plan_lpb = below("arm.link_points_batch", plans)
    configs = counted(plan_lpb)
    broad = sum(counted(below(g, plans), 1) for g in GEOMETRY)
    # both narrow-phase kernels get the same surviving segments; a scene
    # without spheres or without capsules calls only one of them
    narrow = max(counted(below(g, plans), 2) for g in GEOMETRY)
    m["planner.plan_trajectory.approach_ms"] = _median(approach) / 1e6
    m["planner.plan_trajectory.depart_ms"] = _median(depart) / 1e6
    m["planner.us_per_config"] = _ratio(plan_ns / 1e3, configs)
    m["planner.configs_checked"] = _ratio(configs, len(plans))
    m["planner.broadphase_survival"] = _ratio(narrow, broad)
    m["planner.self_share"] = _ratio(sum(tree.self_time(p) for p in plans), plan_ns)
    m["planner.criterion06_estimate_s"] = 20 * m["planner.plan_trajectory.approach_ms"] / 1e3

    geometry_ns = 0
    for name in GEOMETRY:
        calls = below(name)
        ns = total(calls)
        pairs = counted(calls, 0)
        geometry_ns += ns
        m[f"{name}.pairs"] = pairs
        m[f"{name}.ns_per_pair"] = _ratio(ns, pairs)
    m["geometry.share"] = _ratio(geometry_ns, op_ns)

    lpb = below("arm.link_points_batch")
    m["arm.link_points_batch.configs"] = counted(lpb)
    m["arm.link_points_batch.ns_per_config"] = _ratio(total(lpb), counted(lpb))
    m["arm.link_points_batch.share"] = _ratio(total(lpb), op_ns)

    ik = below("arm.inverse_kinematics")
    m["arm.inverse_kinematics.us_per_call"] = _ratio(total(ik) / 1e3, len(ik))
    m["arm.inverse_kinematics.fail_frac"] = _ratio(
        sum(spans[i][ERROR] == "NoConvergence" for i in ik), len(ik))
    point = below("arm.solve_ik_point")
    m["arm.solve_ik_point.us_per_call"] = _ratio(total(point) / 1e3, len(point))

    mc = below("harvest.monte_carlo")
    m["harvest.monte_carlo.us_per_trial"] = _ratio(total(mc) / 1e3, counted(mc))
    m["harvest.run_pick_cycle.calls"] = len(below("harvest.run_pick_cycle"))
    torque = below("mechanism.torque_single_finger")
    m["mechanism.torque_single_finger.calls"] = len(torque)
    m["mechanism.torque_single_finger.us_per_call"] = _ratio(total(torque) / 1e3,
                                                             len(torque))

    calib = below("harvest.calibrate_noise")
    m["harvest.calibrate_noise.self_ms"] = _median(
        [tree.self_time(c, {"harvest.plan_cycle"}) for c in calib]) / 1e6
    m["harvest.calibrate_noise.mc_evals"] = _median(
        [sum(spans[c][NAME] == "harvest.monte_carlo" for c in tree.children[i])
         for i in calib])
    m["harvest.plan_cycle.ms"] = _median([dur(c) for c in below("harvest.plan_cycle")]) / 1e6

    for name in ("perception.load_detections", "perception.load_depth_frame",
                 "perception.select_target", "config.load_default_config"):
        m[f"{name}.ms"] = _median([dur(c) for c in below(name, setup_roots)]) / 1e6

    profile = {name: _ratio(total(below(name, plans)), plan_ns) for name in PROFILE}
    profile["rest"] = 1.0 - sum(profile.values()) if plans else 0.0
    return m, profile
