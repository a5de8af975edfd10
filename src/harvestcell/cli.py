"""Command-line entry point.

Subcommands: torque-curve, solve-mechanism, plan, pick-stats. All output is
deterministic given the config and seed: reruns produce byte-identical
files. Files are only written after the whole run has succeeded, so an
invalid configuration never leaves partial output behind.

Exit codes: 0 ok, 1 config/IO/argument error (including non-finite joint
values and a command line argparse rejects), 2 infeasible endpoints (a
start or goal that collides or lies outside the joint limits), 3 no
feasible plan (best-effort trajectory still written), 4 no ripe target.
Every error is one stderr line.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import replace

import numpy as np

from . import mechanism, perception
from .config import RunConfig, load_config, load_default_config
from .errors import (HarvestCellError, InfeasibleEndpoints, NoFeasibleFound,
                     NoRipeTarget)
from .harvest import STAGES, monte_carlo
from .mechanism import closure_residual, force_torque_curve, sweep_positions
from .perception import load_depth_frame, load_detections, select_target
from .planner import Trajectory, plan_trajectory

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE_ENDPOINTS = 2
EXIT_NO_FEASIBLE_PLAN = 3
EXIT_NO_RIPE_TARGET = 4


def _error_line(message: str) -> str:
    """`message` as one stderr line: paths and argv tokens may hold breaks."""
    return "harvestcell: " + " ".join(message.splitlines()) + "\n"


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a rejected command line as one line and exit code 1 (argparse
    prints the usage too and exits 2, the infeasible-endpoints code)."""

    def error(self, message):
        self.exit(EXIT_CONFIG, _error_line(message))


def _fmt(x: float) -> str:
    """Shortest round-trip decimal representation; bit-stable across runs."""
    return repr(float(x))


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _trajectory_json(trajectory: Trajectory) -> dict:
    breakdown = trajectory.breakdown
    return {
        "waypoints": [[float(v) for v in row] for row in trajectory.waypoints],
        "fitness": float(trajectory.fitness),
        "feasible": bool(trajectory.feasible),
        "breakdown": {
            "score": float(breakdown.score),
            "path_length": float(breakdown.path_length),
            "collision_penalty": float(breakdown.collision_penalty),
            "limit_penalty": float(breakdown.limit_penalty),
            "colliding_samples": int(breakdown.colliding_samples),
        },
        "gbest_trace": [float(v) for v in trajectory.gbest_trace or ()],
    }


def cmd_torque_curve(config: RunConfig, args, out_path, say) -> int:
    params = config.mechanism
    results = force_torque_curve(params, args.theta, args.p_min, args.p_max,
                                 args.steps, args.branch)
    xi = mechanism.solve_finger_position(params, args.theta, args.branch).xi
    rows = []
    for res in results:
        rows.append([_fmt(res.theta), _fmt(res.force_p), _fmt(xi),
                     _fmt(res.dxi_dtheta), _fmt(res.torque_single),
                     _fmt(res.torque_total)])
    text = _csv_text(["theta_deg", "force_N", "xi_deg", "dxi_dtheta",
                      "torque_single_Nmm", "torque_total_Nmm"], rows)
    _write_text(out_path, text)
    say(f"wrote {len(rows)} rows to {out_path}")
    return EXIT_OK


def cmd_solve_mechanism(config: RunConfig, args, out_path, say) -> int:
    params = config.mechanism
    lo, hi = params.theta_range
    start = args.start if args.start is not None else lo
    end = args.end if args.end is not None else hi
    if not (lo <= start <= hi and lo <= end <= hi):
        raise ValueError(
            f"sweep [{start:.6g}, {end:.6g}] deg outside theta_range "
            f"[{lo:.6g}, {hi:.6g}] deg"
        )
    rows = []
    solved = 0
    for theta, sol in sweep_positions(params, start, end, args.step, args.branch):
        if sol is None:
            rows.append([_fmt(theta)] + [""] * 8 + ["no_assembly"])
            continue
        solved += 1
        res = closure_residual(params, sol)
        residual_norm = float(np.hypot(res[0], res[1]))
        gamma_diag = 180.0 - sol.beta - sol.xi
        rows.append([_fmt(theta), _fmt(sol.beta), _fmt(sol.xi), _fmt(sol.k),
                     _fmt(sol.u), _fmt(sol.x_m), _fmt(sol.y_m),
                     _fmt(residual_norm), _fmt(gamma_diag), "ok"])
    if not rows:
        say(f"the sweep [{start:.6g}, {end:.6g}] deg holds no angle",
            error=True)
        return EXIT_CONFIG
    if solved == 0:
        say("no angle in the sweep assembles", error=True)
        return EXIT_CONFIG
    text = _csv_text(["theta_deg", "beta_deg", "xi_deg", "k_mm", "u_deg",
                      "x_m_mm", "y_m_mm", "residual_norm_mm",
                      "gamma_diag_deg", "status"], rows)
    _write_text(out_path, text)
    say(f"wrote {len(rows)} rows to {out_path} ({solved} assembled)")
    return EXIT_OK


def _parse_joint_vector(raw: str, n: int, name: str) -> np.ndarray:
    try:
        values = [float(tok) for tok in raw.split(",")]
    except ValueError as exc:
        raise ValueError(f"--{name} must be comma-separated numbers") from exc
    if len(values) != n:
        raise ValueError(f"--{name} needs {n} joint values, got {len(values)}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"--{name} joint values must be finite")
    return np.array(values)


def cmd_plan(config: RunConfig, args, out_path, say) -> int:
    chain = config.arm
    pso = config.pso
    if args.seed is not None:
        pso = replace(pso, seed=args.seed)
    if args.start is not None:
        start = _parse_joint_vector(args.start, chain.n_joints, "start")
    elif chain.home_q is not None:
        start = chain.home_q
    else:
        raise ValueError("--start required (config arm section has no home_q)")
    goal = _parse_joint_vector(args.goal, chain.n_joints, "goal")
    try:
        trajectory = plan_trajectory(chain, start, goal, config.scene, pso)
    except NoFeasibleFound as exc:
        _write_text(out_path, _json_text(_trajectory_json(exc.best_trajectory)))
        say(f"no feasible plan; best-effort trajectory written to {out_path}",
            error=True)
        return EXIT_NO_FEASIBLE_PLAN
    _write_text(out_path, _json_text(_trajectory_json(trajectory)))
    say(f"wrote trajectory (fitness {trajectory.fitness:.6g}) to {out_path}")
    return EXIT_OK


def cmd_pick_stats(config: RunConfig, args, out_path, say) -> int:
    cycle = config.pick_cycle
    if args.seed is not None:
        cycle = replace(cycle, seed=args.seed)
    records = load_detections(args.detections,
                              (config.camera.width, config.camera.height))
    depth = load_depth_frame(args.depth)
    target = select_target(records, config.camera, depth, args.policy)
    summary, reports = monte_carlo(
        target, config.arm, config.scene, config.pso, cycle, args.trials,
        mechanism_params=config.mechanism, collect_reports=True)

    summary_obj = {
        "trials": summary.trials,
        "success_rate": summary.success_rate,
        "outcome_counts": summary.outcome_counts,
        "total_time_mean_s": summary.total_time_mean,
        "total_time_std_s": summary.total_time_std,
        "stage_time_mean_s": summary.stage_time_mean,
        "stage_time_std_s": summary.stage_time_std,
        "target": {
            "center_3d_m": [float(v) for v in target.center_3d],
            "pedicel_3d_m": [float(v) for v in target.pedicel_3d],
            "estimated_radius_m": float(target.estimated_radius),
            "ripeness": target.ripeness,
        },
    }
    rows = []
    for i, report in enumerate(reports):
        row = [str(i), report.outcome]
        for stage in STAGES:
            timing = report.stage_timings.get(stage)
            row.append(_fmt(timing) if timing is not None else "")
        row.append(_fmt(report.total_time))
        row.append(_fmt(report.pedicel_miss_distance)
                   if report.pedicel_miss_distance is not None else "")
        rows.append(row)
    trials_text = _csv_text(
        ["trial", "outcome"] + [f"{s}_s" for s in STAGES]
        + ["total_s", "miss_distance_m"], rows)

    trials_path = _companion_csv_path(out_path)
    _write_text(out_path, _json_text(summary_obj))
    _write_text(trials_path, trials_text)
    say(f"success rate {summary.success_rate:.3f} over {summary.trials} trials; "
        f"wrote {out_path} and {trials_path}")
    return EXIT_OK


def _companion_csv_path(out_path: str) -> str:
    if out_path.endswith(".json"):
        return out_path[:-5] + ".trials.csv"
    return out_path + ".trials.csv"


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="harvestcell",
        description="Tomato-harvesting cell simulator: gripper torque curves, "
                    "arm trajectory planning and Monte Carlo pick statistics.",
    )
    parser.add_argument("--config", default=None,
                        help="YAML config file (default: shipped configuration)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the relevant module seed")
    parser.add_argument("--out", default=None,
                        help="output file path (default depends on subcommand)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress messages")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("torque-curve",
                       help="CSV of motor torque vs grasp force at fixed crank angle")
    p.add_argument("--theta", type=float, required=True, help="crank angle, deg")
    p.add_argument("--p-min", dest="p_min", type=float, default=0.0,
                   help="minimum grasp force, N")
    p.add_argument("--p-max", dest="p_max", type=float, default=20.0,
                   help="maximum grasp force, N")
    p.add_argument("--steps", type=int, default=21, help="number of force samples")
    p.add_argument("--branch", choices=mechanism.BRANCHES, default="elbow_up")
    p.set_defaults(run=cmd_torque_curve, default_out="torque_curve.csv")

    p = sub.add_parser("solve-mechanism",
                       help="CSV sweep of the finger linkage position solution")
    p.add_argument("--start", type=float, default=None, help="sweep start, deg")
    p.add_argument("--end", type=float, default=None, help="sweep end, deg")
    p.add_argument("--step", type=float, default=1.0, help="sweep step, deg")
    p.add_argument("--branch", choices=mechanism.BRANCHES, default="elbow_up")
    p.set_defaults(run=cmd_solve_mechanism, default_out="mechanism_sweep.csv")

    p = sub.add_parser("plan", help="PSO trajectory plan between joint vectors")
    p.add_argument("--start", default=None,
                   help="comma-separated joint values, rad (default: home_q)")
    p.add_argument("--goal", required=True,
                   help="comma-separated joint values, rad")
    p.set_defaults(run=cmd_plan, default_out="trajectory.json")

    p = sub.add_parser("pick-stats",
                       help="Monte Carlo pick-cycle statistics from detection files")
    p.add_argument("--detections", required=True, help="detection-record JSON file")
    p.add_argument("--depth", required=True, help="binary depth frame file")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--policy", choices=perception.SELECTION_POLICIES,
                   default="ripest-nearest")
    p.set_defaults(run=cmd_pick_stats, default_out="pick_stats.json")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    def say(message: str, error: bool = False) -> None:
        if error:
            sys.stderr.write(_error_line(message))
        elif not args.quiet:
            print(message)

    out_path = args.out or args.default_out
    try:
        config = load_config(args.config) if args.config else load_default_config()
        return args.run(config, args, out_path, say)
    except InfeasibleEndpoints as exc:
        say(str(exc), error=True)
        return EXIT_INFEASIBLE_ENDPOINTS
    except NoRipeTarget as exc:
        say(str(exc), error=True)
        return EXIT_NO_RIPE_TARGET
    except (HarvestCellError, ValueError, OSError) as exc:
        say(str(exc), error=True)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
