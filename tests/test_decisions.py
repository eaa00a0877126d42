"""The benchmark's decisions, pinned in the tier-1 suite.

``bench/run.py`` checks that a detector change leaves every removal of its
defended workloads as it was; this test runs one pass of each at the
benchmark's default seed and compares the decision digests, so that such a
change fails here too, not only in the benchmark.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.workloads import configs, load_modules, run_pass  # noqa: E402

# seed 7, the benchmark's default
DIGESTS = {"defend_c5": "250c97f9099bdc43", "defend_long": "bff2f2a4002b726f"}


@pytest.mark.parametrize("workload", DIGESTS)
def test_benchmark_decisions_are_pinned(workload):
    modules = load_modules()
    result = run_pass(modules, workload, configs(modules, workload, seed=7), keep=False)
    assert result.digest == DIGESTS[workload]
