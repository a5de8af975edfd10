"""harvestcell benchmark: one closed-loop caller, one workload per process.

    python3 harvestbench/run.py --workload plan-cycle --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; harvestcell is imported from its
`src/` directory. With --trace 0 the last stdout line is a JSON object
holding the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of a separate traced run of the same op list. Every op's result is
checked by an oracle after the timed loop. A run record (environment,
seed, output digest, failures) is written under `.harvestbench/`, and in
traced runs the spans as well. See harvestbench/README.md.
"""

import argparse
import contextlib
import gzip
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_MIN_REPEATS = 3   # set up at least this often, and until SETUP_MIN_S
SETUP_MIN_S = 1.0       # has passed (at most SETUP_MAX_REPEATS times)
SETUP_MAX_REPEATS = 25
REFERENCE_EVERY = 4     # traced runs also time every 4th op untraced,
                        # starting after the first op has warmed the caches
TAIL_PERCENTILE = 90
TAIL_BEYOND = 10
# Set-up and ops are timed in process CPU time: the load is one thread, so
# on an idle machine this equals wall time, and it leaves out the time a
# shared host steals from the VM, which made wall times of one op list vary
# by 30 % from run to run. Wall time is still recorded.
clock = time.process_time


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def import_harvestcell():
    """harvestcell from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    if not (src / "harvestcell" / "__init__.py").is_file():
        raise SystemExit(f"error: no harvestcell sources under {src}")
    sys.path.insert(0, str(src))
    import harvestcell
    if Path(harvestcell.__file__).resolve().parent != src / "harvestcell":
        raise SystemExit(f"error: imported harvestcell from {harvestcell.__file__}")
    return harvestcell


def tail(latencies, percentile=None):
    """(value, percentile, ops beyond) of the op latencies.

    With a percentile, its nearest-rank value when at least TAIL_BEYOND ops
    lie beyond it; without one, the highest percentile that has TAIL_BEYOND
    ops beyond it. When there are too few ops, the slowest op.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1
    if percentile is not None:
        k = math.ceil(percentile / 100.0 * n) - 1
    if k < 0 or n - k - 1 < TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[k], 100.0 * (k + 1) / n, n - k - 1


def git_commit():
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(np):
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
    }


@dataclass
class Loop:
    """What the timed op loop leaves for the oracles and the report."""

    latencies: list = field(default_factory=list)
    kept: list = field(default_factory=list)        # per op, for its oracle
    chunks: list = field(default_factory=list)      # per op, for the digest
    succeeded: list = field(default_factory=list)
    failures: list = field(default_factory=list)    # (op index or None, reason)
    pairs: list = field(default_factory=list)       # (untraced s, traced s)
    mismatched: int = 0
    cpu_s: float = 0.0
    wall_s: float = 0.0


class Bench:
    def __init__(self, hc, wl, workload, seed, traced):
        from spans import Recorder, traced_functions
        self.hc, self.wl, self.workload = hc, wl, workload
        self.seed, self.traced = seed, traced
        self.recorder = Recorder(traced_functions(hc))
        self.setup_roots, self.op_roots = [], []

    @contextlib.contextmanager
    def span(self, name, roots):
        """A traced span around benchmark code; nothing when untraced."""
        if not self.traced:
            yield
            return
        with self.recorder.installed(), self.recorder.span(name) as index:
            roots.append(index)
            yield

    def set_up(self, inputs):
        """(cell, set-up times): set up again until the repeat rule is met."""
        times = []
        while len(times) < SETUP_MIN_REPEATS or (
                sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPEATS):
            start = clock()
            with self.span("bench.setup", self.setup_roots):
                cell = self.wl.set_up_cell(self.hc, inputs, self.seed,
                                           self.workload.needs_plans)
            times.append(clock() - start)
        return cell, times

    def _run_op(self, cell, loop, i, op):
        start = clock()
        try:
            out = self.workload.run(cell, op)
        except Exception as exc:   # an unexpected error is a failed op
            loop.failures.append((i, f"{type(exc).__name__}: {exc}"))
            traceback.print_exc(file=sys.stderr)
            out = None
        return out, clock() - start

    def run_ops(self, cell, ops) -> Loop:
        workload, loop = self.workload, Loop()
        start, wall_start = clock(), time.perf_counter()
        for i, op in enumerate(ops):
            paired = self.traced and i % REFERENCE_EVERY == REFERENCE_EVERY - 1
            untraced_first = (i // REFERENCE_EVERY) % 2 == 0
            if paired and untraced_first:
                reference = self._run_op(cell, loop, i, op)
            with self.span("bench.op", self.op_roots):
                out, latency = self._run_op(cell, loop, i, op)
            if paired and not untraced_first:
                reference = self._run_op(cell, loop, i, op)
            loop.latencies.append(latency)
            result, blob, success = (None, b"error", False) if out is None \
                else workload.summarize(cell, op, out)
            loop.kept.append(result)
            loop.chunks.append(blob)
            loop.succeeded.append(success)
            if paired:
                loop.pairs.append((reference[1], latency))
                if reference[0] is None or \
                        workload.summarize(cell, op, reference[0])[1] != blob:
                    loop.mismatched += 1
        loop.cpu_s = clock() - start
        loop.wall_s = time.perf_counter() - wall_start
        return loop

    def check(self, cell, ops, loop):
        for i, (op, result) in enumerate(zip(ops, loop.kept)):
            if result is not None:
                reason = self.workload.check(cell, op, result)
                if reason:
                    loop.failures.append((i, reason))
        if loop.mismatched:
            loop.failures.append(
                (None, f"{loop.mismatched} traced ops differ from their untraced run"))


def main(argv=None):
    sys.path.insert(0, str(BENCH_DIR))
    import workloads as wl
    args = parse_args(argv, wl.WORKLOADS)
    hc = import_harvestcell()
    import numpy as np
    from layers import layer_metrics

    workload = wl.WORKLOADS[args.workload]
    bench = Bench(hc, wl, workload, args.seed, bool(args.trace))
    out_dir = ROOT / ".harvestbench"
    inputs = out_dir / f"inputs-{args.workload}-{os.getpid()}"
    inputs.mkdir(parents=True, exist_ok=True)
    try:
        cell, setup_times = bench.set_up(inputs)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    ops = workload.ops(cell, args.seed, args.seconds)
    loop = bench.run_ops(cell, ops)
    bench.check(cell, ops, loop)

    n = len(ops)
    failed_ops = {i for i, _ in loop.failures if i is not None}
    ok = sum(s and i not in failed_ops for i, s in enumerate(loop.succeeded))
    digest = wl.digest_of(loop.chunks)
    tail_s, tail_pct, tail_beyond = tail(loop.latencies, TAIL_PERCENTILE)
    top_s, top_pct, top_beyond = tail(loop.latencies)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(np),
        "attempted": n, "ok": ok, "failed": len(failed_ops),
        "failures": loop.failures[:20], "output_sha256": digest,
        "op_tail": {"percentile": tail_pct, "ops_beyond": tail_beyond},
        "op_highest_tail": {"ms": top_s * 1e3, "percentile": top_pct,
                            "ops_beyond": top_beyond},
        "setup_s_each": setup_times,
        "wall_s": loop.wall_s,
    }
    print(f"{args.workload} seed {args.seed}: ok_frac {ok}/{n}, failed (error or "
          f"oracle) {len(failed_ops)}/{n}, outputs sha256 {digest}")
    if bench.traced:
        metrics, profile = layer_metrics(bench.recorder.spans, bench.op_roots,
                                         bench.setup_roots)
        untraced = sum(p[0] for p in loop.pairs)
        # a run too short to pair an op has no overhead measurement
        metrics["trace.overhead_frac"] = (
            sum(p[1] for p in loop.pairs) / untraced - 1.0 if loop.pairs else 0.0)
        record["plan_trajectory_profile"] = profile
        record["overhead_pairs"] = len(loop.pairs)
        print("plan_trajectory profile: " + ", ".join(
            f"{k} {v:.1%}" for k, v in profile.items()))
        print(f"trace.overhead_frac {metrics['trace.overhead_frac']:+.4f} "
              f"over {len(loop.pairs)} paired ops")
        with gzip.open(out_dir / f"spans-{args.workload}.jsonl.gz", "wt",
                       encoding="utf-8") as fh:
            bench.recorder.write_jsonl(fh)
        section = "per_layer"
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "cpu_s": loop.cpu_s,
            "op_cpu_p50_ms": statistics.median(loop.latencies) * 1e3,
            "op_cpu_tail_ms": tail_s * 1e3,
            "ok_frac": ok / n,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(f"op_cpu_tail_ms is p{tail_pct:.2f}, {tail_beyond} of {n} ops beyond "
              f"it; the highest percentile with {TAIL_BEYOND} beyond, "
              f"p{top_pct:.2f}, reads {top_s * 1e3:.3f} ms; wall time of the op "
              f"list {loop.wall_s:.3f} s")
        section = "end_to_end"
    record["metrics"] = metrics
    name = f"record-{args.workload}-s{args.seed}-t{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=2, default=str) + "\n")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": n,
        "failed": len(failed_ops),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec},
    }))
    return 0


if __name__ == "__main__":
    # one caller, one thread: pin the BLAS pools before numpy is first imported
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
