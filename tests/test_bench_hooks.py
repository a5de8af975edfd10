import runpy
from pathlib import Path

import harvestcell as hc

BENCH = Path(__file__).resolve().parents[1] / "harvestbench"
SPANS = BENCH / "spans.py"


def test_bench_patch_points_exist():
    # harvestbench's traced run replaces these module attributes; a refactor
    # that drops or renames one should fail here, not in the traced run
    targets = runpy.run_path(str(SPANS))["traced_functions"](hc)
    assert targets
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in targets
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_bench_workloads_run_one_op_each(tmp_path, monkeypatch):
    # the benchmark's own set-up, and the first op of each workload through
    # its run, summarize and check: a refactor that drops or renames a name
    # the benchmark calls should fail here, not in the benchmark run
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports oracles
    wl = runpy.run_path(str(BENCH / "workloads.py"))
    cell = wl["set_up_cell"](hc, tmp_path, 11, with_plans=True)
    for name, workload in wl["WORKLOADS"].items():
        op = workload.ops(cell, 11, 0.0)[0]
        kept, blob, ok = workload.summarize(cell, op, workload.run(cell, op))
        assert ok and blob, name
        assert workload.check(cell, op, kept) is None, name
