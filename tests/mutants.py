"""Mutation gate for the bounds and equivalences the package's speed rests
on (not collected by pytest: the file name does not match test_*.py):

    python tests/mutants.py [NAME ...]

Each mutant weakens one bound: it replaces an exact text, which must occur
once, in one source file. For each mutant the script copies src/, tests/
and harvestbench/ into a temporary directory, applies the mutant there and
runs the tests listed as its killers with pytest (-x). The mutant is killed
when they fail. Before the mutants, the same tests run once on the
unmutated copy, where they must pass. The script exits 1 when a mutant
survives, its text does not occur exactly once, or a test run errs. NAME
restricts it to the named mutants.

Equivalent mutants, left out of the list because no input tells them apart
from the code:
- `plan_trajectories` stopping without its joint-limit check. The first
  draws lie in the sampling box, which is clipped to the limits, particle 0
  lies between in-limit endpoints, and every update is clipped, so a
  global best never leaves the limits; only a `uniform` draw rounding an
  ulp past a limit could.
- routing spheres through `segment_segment_distance`: a sphere's core is a
  zero-length segment, for which it gives the same distance as
  `segment_point_distance`.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "harvestbench", "pyproject.toml")
PLANNER = "src/harvestcell/planner.py"
ARM = "src/harvestcell/arm.py"
PERCEPTION = "src/harvestcell/perception.py"
TP, TA, TPE = ("tests/test_planner.py::", "tests/test_arm.py::",
               "tests/test_perception.py::")


class Mutant(NamedTuple):
    name: str
    file: str                 # relative to the repository root
    old: str                  # exact text, found once
    new: str
    bound: str                # what the mutant weakens
    tests: tuple[str, ...]    # pytest node ids expected to kill it


MUTANTS = (
    # --- the broad phase and the static links (planner._scene_arrays,
    # _link_clearance and _clearance; arm._static_link_count)
    Mutant("reach-without-half-length", PLANNER,
           "reach = radii[:, None] + half[None, :] + _BOUND_SLACK",
           "reach = radii[:, None] + 0.0 * half[None, :] + _BOUND_SLACK",
           "the link ball: a link lies within its half-length of its midpoint",
           (TP + "test_broad_phase_flags_exactly_the_close_configurations",)),
    Mutant("half-length-x0.9", PLANNER,
           "half = 0.5 * np.linalg.norm(compiled.offsets[1:], axis=1)",
           "half = 0.45 * np.linalg.norm(compiled.offsets[1:], axis=1)",
           "the link ball's radius",
           (TP + "test_broad_phase_flags_exactly_the_close_configurations",)),
    Mutant("static-clearance-dropped", PLANNER,
           "least = functools.reduce(np.minimum, clear,\n"
           "                             arrays.static_clearance[problem])",
           "least = functools.reduce(np.minimum, clear)",
           "the static links, measured once per scene, count in every row",
           (TP + "test_static_links_checked_once",)),
    Mutant("cull-disabled", PLANNER,
           "pairs = np.flatnonzero(~(clear >= cutoff))",
           "pairs = np.flatnonzero(~(clear >= np.inf))",
           "the broad phase measures only the pairs its bound cannot clear",
           (TP + "test_broad_phase_flags_exactly_the_close_configurations",)),
    Mutant("one-static-link-too-many", ARM,
           "return int(np.cumprod(still).sum())",
           "return int(np.cumprod(still).sum()) + 1",
           "a link counts as static only while no joint can move it",
           (TP + "test_static_links_checked_once",)),
    Mutant("static-without-offset-check", ARM,
           "still = ~(np.cross(axes, axes[0]).any(1) "
           "| np.cross(links, axes[0]).any(1))",
           "still = ~np.cross(axes, axes[0]).any(1)",
           "a static link also lies along joint 0's axis",
           (TP + "test_static_links_checked_once",)),
    # --- the lever certificate (planner._score)
    Mutant("certify-at-minus-1mm", PLANNER,
           "check = np.flatnonzero(~(clear >= clearance + _BOUND_SLACK))",
           "check = np.flatnonzero(~(clear >= clearance - 1e-3))",
           "a sample counts as free only when its bound clears the threshold",
           (TP + "test_certified_scores_equal_full_evaluation",)),
    Mutant("levers-x0.8", PLANNER,
           "- np.abs(samples - ref_q[slot]) @ chain.compiled.levers)",
           "- np.abs(samples - ref_q[slot]) @ (0.8 * chain.compiled.levers))",
           "the Lipschitz bound: joint i moves no point farther than "
           "|dq_i| levers[i]",
           (TP + "test_certificate_is_tight_for_a_worst_case_joint_move",)),
    # --- the lazy ceiling (planner._score)
    Mutant("ceiling-lowered-0.05", PLANNER,
           "live = np.flatnonzero(~(path_len + limit_term >= ceiling))",
           "live = np.flatnonzero(~(path_len + limit_term >= ceiling - 0.05))",
           "a polyline is skipped only when its lower bound reaches the ceiling",
           (TP + "test_ceiling_skips_only_bounded_polylines",)),
    Mutant("lazy-bound-1.02-path", PLANNER,
           "live = np.flatnonzero(~(path_len + limit_term >= ceiling))",
           "live = np.flatnonzero(~(1.02 * path_len + limit_term >= ceiling))",
           "the lazy bound is path length plus limit term, no more",
           (TP + "test_ceiling_skips_only_bounded_polylines",)),
    # --- the lockstep problems (planner._link_clearance, _clearance and
    # plan_trajectories)
    Mutant("hidden-obstacles-visible", PLANNER,
           "clear[m][:, ~arrays.visible[m, problem]] = np.inf",
           "clear[m][:, ~arrays.visible[m, problem]] += 0.0",
           "a row reads only the obstacles its own problem's scene holds",
           (TP + "test_depart_rows_ignore_the_hidden_target",)),
    Mutant("static-clearance-of-problem-0", PLANNER,
           "arrays.static_clearance[problem])",
           "arrays.static_clearance[0 * problem])",
           "each row reads its own problem's static clearance",
           (TP + "test_problem_without_obstacles_reads_no_clearance",)),
    Mutant("one-shared-generator", PLANNER,
           "rngs = [np.random.default_rng(config.seed) for _ in live]",
           "rngs = [np.random.default_rng(config.seed)] * len(live)",
           "each problem draws from its own generator, as planned alone",
           (TP + "test_lockstep_plans_equal_lone_plans",)),
    Mutant("gbest-across-problems", PLANNER,
           "better = best < gbest_score\n",
           "better = best < gbest_score.min()\n",
           "each problem's global best is its own",
           (TP + "test_lockstep_plans_equal_lone_plans",)),
    # --- the per-problem stop (planner.plan_trajectories)
    Mutant("stop-below-2x-penalty", PLANNER,
           "feasible = ((gbest_score < config.collision_penalty)",
           "feasible = ((gbest_score < 2 * config.collision_penalty)",
           "a best below the penalty has no colliding sample",
           (TP + "test_no_stop_while_the_best_collides_at_the_margin",)),
    Mutant("stop-without-feasibility", PLANNER,
           "stopping = active & feasible & settled",
           "stopping = active & settled",
           "a problem stops only at a feasible best",
           (TP + "test_no_feasible_found_leaves_other_plan_alone",
            TP + "test_first_feasible_never_stops_without_a_collision_penalty",)),
    Mutant("stopped-problem-updates-pbest", PLANNER,
           "improved = (scores < pbest_score) & active[:, None]",
           "improved = scores < pbest_score",
           "a stopped problem leaves the personal-best update",
           (TP + "test_stall_stops_each_problem_on_its_own",)),
    Mutant("stopped-problem-scored", PLANNER,
           "ceiling = np.where(active[:, None], pbest_score, -np.inf)",
           "ceiling = pbest_score",
           "a stopped problem is not scored, so it costs no FK",
           (TP + "test_stall_stops_each_problem_on_its_own",)),
    Mutant("stall-tol-2e-3", PLANNER,
           "STALL_TOL = 1e-3", "STALL_TOL = 2e-3",
           "the stagnation test's relative tolerance",
           (TP + "test_swarm_bytes_pinned_full_size",)),
    Mutant("stall-window-late", PLANNER,
           "trace[k - STALL_WINDOW] * (1.0 - STALL_TOL)",
           "trace[k - STALL_WINDOW + 1] * (1.0 - STALL_TOL)",
           "the stagnation test compares with the best STALL_WINDOW "
           "iterations back",
           (TP + "test_stall_stops_each_problem_on_its_own",)),
    # --- one pixel rule for detections (perception._pixel)
    Mutant("pixel-by-truncation", PERCEPTION,
           "col, row = round(u), round(v)",
           "col, row = int(u), int(v)",
           "the loader and the depth sampler round a keypoint alike",
           (TPE + "test_load_rejects_a_keypoint_that_rounds_past_the_image",)),
    # --- the damped-least-squares loop (arm._solve, arm._damped_step)
    Mutant("ik-accepts-equal-residual", ARM,
           "if norm_new < trace[-1]:",
           "if norm_new <= trace[-1]:",
           "a step is taken only when it shrinks the residual",
           (TA + "test_ik_takes_no_step_the_joint_limit_clips_away",)),
    Mutant("ik-damping-floor-dropped", ARM,
           "lam = max(opts.damping, 0.5 * trace[-1])",
           "lam = 0.5 * trace[-1]",
           "the damping factor never falls below opts.damping",
           (TA + "test_float_loop_matches_the_numpy_loop_on_criterion_05",)),
    Mutant("ik-step-unclipped", ARM,
           "q_new = [min(max(x + step * d, a), b)\n"
           "                     for x, d, a, b in zip(q, dq, lo, hi)]",
           "q_new = [x + step * d for x, d in zip(q, dq)]",
           "every iterate lies inside the joint limits",
           (TA + "test_float_loop_matches_the_numpy_loop_on_criterion_05",)),
    Mutant("ik-pivot-unchecked", ARM,
           "        if not v > 0.0:\n            return None\n",
           "",
           "the Cholesky solve meets no pivot <= 0",
           (TA + "test_undamped_solve_at_a_straight_arm_ends_cleanly",)),
)


def run_tests(copy: Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests], cwd=copy, env=env, capture_output=True, text=True)


def fresh_copy(workdir: Path, name: str) -> Path:
    copy = workdir / name
    copy.mkdir()
    for part in COPIED:
        source = ROOT / part
        if source.is_dir():
            shutil.copytree(source, copy / part, ignore=shutil.ignore_patterns(
                "__pycache__", ".hypothesis", "*.pyc"))
        else:
            shutil.copy(source, copy / part)
    return copy


def last_line(proc: subprocess.CompletedProcess) -> str:
    lines = (proc.stdout + proc.stderr).strip().splitlines()
    return lines[-1] if lines else f"pytest exit {proc.returncode}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="run only these mutants")
    args = parser.parse_args(argv)
    known = {m.name for m in MUTANTS}
    if set(args.names) - known:
        parser.error(f"unknown mutants: {sorted(set(args.names) - known)}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    start = time.monotonic()
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        tests = sorted({t for m in chosen for t in m.tests})
        proc = run_tests(fresh_copy(workdir, "unmutated"), tests)
        if proc.returncode != 0:
            print(f"the killing tests fail without a mutant: {last_line(proc)}")
            return 1
        for mutant in chosen:
            copy = fresh_copy(workdir, mutant.name)
            path = copy / mutant.file
            text = path.read_text()
            found = text.count(mutant.old)
            if found != 1:
                verdict = f"DOES NOT APPLY (old text found {found} times)"
            else:
                path.write_text(text.replace(mutant.old, mutant.new))
                proc = run_tests(copy, mutant.tests)
                verdict = {0: "SURVIVED", 1: "killed"}.get(
                    proc.returncode, f"ERROR ({last_line(proc)})")
                if proc.returncode == 1:
                    verdict += f" by {_first_failure(proc)}"
            if not verdict.startswith("killed"):
                bad.append(mutant.name)
            print(f"{mutant.name}: {verdict}  [{mutant.bound}]", flush=True)
    print(f"{len(chosen) - len(bad)}/{len(chosen)} mutants killed in "
          f"{time.monotonic() - start:.0f} s")
    return 1 if bad else 0


def _first_failure(proc: subprocess.CompletedProcess) -> str:
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split()[1]
    return "a failing test"


if __name__ == "__main__":
    sys.exit(main())
