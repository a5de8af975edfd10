"""Sweep of the swarm's stagnation stop over PSO seeds (not collected by
pytest: the file name does not match test_*.py; a full sweep takes a few
minutes):

    python tests/stop_sweep.py [--seeds 0:300]

For each PSO seed it plans the shipped target's cycle with `plan_cycle`
twice: as shipped, and with `planner.STALL_WINDOW` patched past
`PsoConfig.iterations`, so no problem stops before the cap. Every plan
made with the stop goes through harvestbench's oracle
(`workloads.check_cycle_plans`: IK answers, endpoints, limits, clearance at
4x interpolation, re-scored fitness). It reports the oracle failures, the
worst relative fitness gap of a stopped plan against the full run, the
least clearance of each side's plans at DENSE samples per segment, the
iterations each stopped plan ran, and the CPU time of both sides.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "harvestbench"), str(ROOT / "src")]

import harvestcell as hc  # noqa: E402
import workloads  # noqa: E402
from harvestcell import planner  # noqa: E402

DENSE = 400     # samples per segment for the clearance check
CELL_SEED = 11  # harvestbench input files; the target is the shipped one


def dense_clearance(chain, trajectory, scene) -> float:
    """Least exact clearance over DENSE samples per segment."""
    waypoints = trajectory.waypoints
    fractions = np.arange(DENSE + 1)[:, None] / DENSE
    samples = np.concatenate([a + fractions * (b - a)
                              for a, b in zip(waypoints[:-1], waypoints[1:])])
    return float(planner._clearance(chain, samples,
                                    planner._scene_arrays(chain, scene),
                                    np.inf).min())


def plan(cell, pso):
    cfg = cell.config
    start = time.process_time()
    plans = hc.harvest.plan_cycle(cell.target, cfg.arm, cfg.scene, pso,
                                  cfg.pick_cycle)
    return plans, time.process_time() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0:300",
                        help="PSO seeds as first:stop (default 0:300)")
    args = parser.parse_args(argv)
    first, stop = (int(x) for x in args.seeds.split(":"))
    with tempfile.TemporaryDirectory() as workdir:
        cell = workloads.set_up_cell(hc, Path(workdir), CELL_SEED,
                                     with_plans=False)
    cfg = cell.config
    sides = (("approach", cfg.scene), ("depart", cell.scene_after))
    failures, gaps, cpu = [], [], {"stop": 0.0, "full": 0.0}
    clearance = {"stop": np.inf, "full": np.inf}
    ran = {name: [] for name, _ in sides}
    window = planner.STALL_WINDOW
    for seed in range(first, stop):
        pso = replace(cfg.pso, seed=seed)
        got, cpu_s = plan(cell, pso)
        cpu["stop"] += cpu_s
        planner.STALL_WINDOW = pso.iterations + 1
        try:
            full, cpu_s = plan(cell, pso)
        finally:
            planner.STALL_WINDOW = window
        cpu["full"] += cpu_s
        reason = workloads.check_cycle_plans(cell, got)
        if reason or got.failure_stage != full.failure_stage:
            failures.append((seed, reason or "failure stage differs"))
            continue
        for name, scene in sides:
            mine = getattr(got, f"{name}_trajectory")
            theirs = getattr(full, f"{name}_trajectory")
            if mine is None:
                continue
            ran[name].append(len(mine.gbest_trace) - 1)
            gaps.append((mine.fitness / theirs.fitness - 1.0, seed, name))
            for side, trajectory in (("stop", mine), ("full", theirs)):
                clearance[side] = min(clearance[side], dense_clearance(
                    cfg.arm, trajectory, scene))
    print(f"PSO seeds {first}-{stop - 1}: {stop - first} cycles, "
          f"{len(failures)} oracle failures")
    for seed, reason in failures:
        print(f"  seed {seed}: {reason}")
    if gaps:
        gap, seed, name = max(gaps)
        print(f"worst fitness gap: {100 * gap:+.3f} % ({name}, seed {seed})")
    print(f"least dense clearance ({DENSE} samples per segment): "
          f"{1e3 * clearance['stop']:.2f} mm with the stop, "
          f"{1e3 * clearance['full']:.2f} mm without")
    for name, counts in ran.items():
        if counts:
            print(f"{name} iterations: {min(counts)}-{max(counts)} "
                  f"(median {int(np.median(counts))}) of {cfg.pso.iterations}")
    print(f"plan_cycle CPU: {cpu['stop']:.1f} s with the stop, "
          f"{cpu['full']:.1f} s without")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
