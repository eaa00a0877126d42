"""Quick tests of the benchmark itself: the tail rule, the checks and BENCHMARK.json."""

from __future__ import annotations

import copy
import dataclasses
import json
import re
from pathlib import Path

import pytest

from bench import checks, stats, workloads
from bench.hostclock import HostClock
from bench.tracing import LAYER_METRICS, Patches

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_tail_value_and_median():
    values = list(range(1, 101))
    assert stats.tail(values) == (90.0, 90)
    assert stats.tail(values[:39]) is None
    assert stats.percentile([3, 1, 2], 50) == 2
    assert stats.median([4, 1, 3, 2]) == 2.5


def test_reference_seconds_integrate_the_nearest_calibration():
    host = HostClock(enabled=False)
    assert host.reference_s(1.0, 3.5) == 2.5  # no calibration: wall time
    host.times, host.speeds = [0.0, 2.0, 4.0], [1.0, 0.5, 2.0]
    # Speed 1 until 1.0, 0.5 until 3.0, then 2.
    assert host.reference_s(0.0, 1.0) == pytest.approx(1.0)
    assert host.reference_s(0.5, 3.5) == pytest.approx(0.5 + 1.0 + 1.0)
    assert host.reference_s(-1.0, 6.0) == pytest.approx(2.0 + 1.0 + 6.0)
    host.calibrate()  # disabled: records nothing
    assert len(host.speeds) == 3


@pytest.fixture(scope="module")
def defended():
    """Two agent_targeted episodes of defend_c5, with every inference captured."""
    m = workloads.load_modules()
    cfg = dataclasses.replace(workloads.configs(m, "defend_c5", 7)[1], n_tasks=2)
    capture = checks.ScoreCapture()
    patches = Patches()
    capture.install(patches, m.pipeline)
    try:
        _, logs = m.harness.run_experiment(cfg)
    finally:
        patches.restore()
    return logs, capture.rounds


def _removal(logs):
    return next((log, rec) for log in logs for rec in log.rounds if rec.removed is not None)


def test_defended_outputs_pass_every_check(defended):
    logs, captured = defended
    assert checks.check_scores(captured, logs) == []
    assert checks.check_decisions(logs) == []
    assert checks.check_detection("agent_targeted", logs) == []


def test_perturbed_score_fails_the_reference_check(defended):
    logs, captured = defended
    bad = copy.deepcopy(logs)
    _, rec = _removal(bad)
    rec.scores[0] += 1e-6
    assert checks.check_scores(captured, bad)


def test_swapped_removal_fails_the_decision_check(defended):
    bad = copy.deepcopy(defended[0])
    _, rec = _removal(bad)
    rec.removed = next(a for a in rec.agents if a != rec.removed)
    assert any("top score" in p for p in checks.check_decisions(bad))


def test_removal_at_consensus_and_wrong_call_count_fail(defended):
    bad = copy.deepcopy(defended[0])
    log, rec = _removal(bad)
    rec.answers = [rec.answers[0]] * len(rec.answers)
    log.api_calls += 1
    problems = checks.check_decisions(bad)
    assert any("consensus" in p for p in problems)
    assert any("api_calls" in p for p in problems)


def test_reappearing_agent_fails_the_decision_check(defended):
    bad = copy.deepcopy(defended[0])
    log = next(log for log in bad if log.rounds[0].removed is not None and len(log.rounds) > 1)
    log.rounds[1].agents = log.rounds[0].agents
    assert any("reappear" in p for p in checks.check_decisions(bad))


def test_missed_detections_fail_the_bars(defended):
    bad = copy.deepcopy(defended[0])
    for log in bad:
        log.ground_truth.h = [[False] * len(row) for row in log.ground_truth.h]
        log.ground_truth.err = [[False] * len(row) for row in log.ground_truth.err]
    assert checks.check_detection("agent_targeted", bad)


@pytest.fixture(scope="module")
def replayed():
    m = workloads.load_modules()
    cfgs = [dataclasses.replace(c, n_tasks=3) for c in workloads.configs(m, "replay", 7)]
    result = workloads.run_pass(m, "replay", cfgs, keep=True)
    return m, result


def test_replay_outputs_pass_every_check(replayed):
    m, result = replayed
    assert result.episodes == 9 and result.artifact_bytes > 0
    for run in result.runs:
        assert checks.check_replay(run, m.harness.episode_to_json) == []


def test_corrupted_replay_outputs_fail(replayed):
    m, result = replayed
    run = result.runs[0]

    def broken(**changes):
        return checks.check_replay(dataclasses.replace(copy.deepcopy(run), **changes), m.harness.episode_to_json)

    texts = list(run.texts)
    texts[0] = texts[0].replace('"api_calls": 16', '"api_calls": 15')
    assert any("round-trip" in p for p in broken(texts=texts))
    report = dataclasses.replace(run.report, accuracy=1.0 - run.report.accuracy)
    assert any("recomputed" in p for p in broken(recomputed=report))
    exports = list(run.exports)
    as_json, as_dot = exports[0]
    exports[0] = (as_json, "\n".join(line for line in as_dot.splitlines() if '"r1_a0" [' not in line))
    assert any("dot export" in p for p in broken(exports=exports))
    logs = copy.deepcopy(run.logs)
    logs[0].ground_truth.h[-1] = [False] * len(logs[0].ground_truth.h[-1])
    logs[0].ground_truth.h[0] = [True] * len(logs[0].ground_truth.h[0])
    assert any("decrease" in p for p in broken(logs=logs))


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_form():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "bench/run.py"]
    assert doc["paths"] == ["bench"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    e2e = {m["name"]: m for m in doc["end_to_end"]}
    assert {n: m["unit"] for n, m in e2e.items()} == workloads.E2E_METRICS
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["better"] in ("higher", "lower") and 0 < m["bound"] <= 0.25
    assert e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == LAYER_METRICS
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and m["better"] in ("higher", "lower")
    names = [m["name"] for m in doc["workloads"] + doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
