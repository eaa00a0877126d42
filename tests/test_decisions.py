"""The benchmark's decisions, pinned in the tier-1 suite.

``bench/run.py`` checks that a detector change leaves every removal of its
defended workloads as it was; this test runs one pass of each at the
benchmark's default seed and compares the decision digests, so that such a
change fails here too, not only in the benchmark.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.workloads import configs, load_modules, run_pass  # noqa: E402

# seed 7, the benchmark's default
DIGESTS = {"defend_c5": "250c97f9099bdc43", "defend_long": "bff2f2a4002b726f"}
# defend_long with the history cut by truncate_history, a path no workload
# runs. (defend_c5 removes only at rounds 1 and 2, and its digest reads the
# same with the history truncated, so it would not tell the paths apart.)
TRUNCATED = {
    "static": ({"variant": "static"}, "242ec4bbfdab96ae"),
    "window2": ({"history_window": 2}, "751b6d8eb413d753"),
}


@pytest.mark.parametrize("workload", DIGESTS)
def test_benchmark_decisions_are_pinned(workload):
    modules = load_modules()
    result = run_pass(modules, workload, configs(modules, workload, seed=7), keep=False)
    assert result.digest == DIGESTS[workload]


@pytest.mark.parametrize("case", TRUNCATED)
def test_truncated_history_decisions_are_pinned(case):
    overrides, digest = TRUNCATED[case]
    modules = load_modules()
    cfgs = [dataclasses.replace(c, **overrides) for c in configs(modules, "defend_long", seed=7)]
    assert run_pass(modules, "defend_long", cfgs, keep=False).digest == digest
