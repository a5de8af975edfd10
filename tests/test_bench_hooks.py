import runpy
from pathlib import Path

import harvestcell as hc

SPANS = Path(__file__).resolve().parents[1] / "harvestbench" / "spans.py"


def test_bench_patch_points_exist():
    # harvestbench's traced run replaces these module attributes; a refactor
    # that drops or renames one should fail here, not in the traced run
    targets = runpy.run_path(str(SPANS))["traced_functions"](hc)
    assert targets
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in targets
               if not callable(getattr(module, attr, None))]
    assert missing == []
