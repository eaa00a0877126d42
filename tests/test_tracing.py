"""The benchmark's tracer must install on the package as it is.

``bench/run.py --trace 1`` wraps the functions it times by name; a rename in
``guardian`` would make it fail. These tests install the tracer, run one
short fit through the wrapped names and check that every wrapper is gone
afterwards, and run one defended episode through ``harness.run_experiment``
with the round clock installed too, so that a run loop that bypasses the
wrapped names fails here instead of emptying the benchmark's round metrics.
One more defended episode runs under the benchmark's score capture, whose
``infer`` takes exactly three positional arguments, and its tracer, whose
``fit`` span reads ``epochs`` as a keyword: a round must still build one
history and bind one pass for both.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.checks import ScoreCapture  # noqa: E402
from bench.hostclock import HostClock  # noqa: E402
from bench.tracing import Patches, RoundClock, Tracer  # noqa: E402
from bench.workloads import load_modules  # noqa: E402
from guardian.detector import DetectorConfig, init_params  # noqa: E402
from guardian.graph import HistoryBatch, Snapshot  # noqa: E402
from guardian.numerics import Tensor2D  # noqa: E402


def _batch(rng, rounds: int, k: int) -> HistoryBatch:
    snaps = [
        Snapshot(
            round=t,
            agents=[0, 1, 2],
            features=Tensor2D(rng.normal(size=(3, k))),
            adjacency=~np.eye(3, dtype=bool) if t > 1 else np.zeros((3, 3), dtype=bool),
            response_texts=["r"] * 3,
        )
        for t in range(1, rounds + 1)
    ]
    return HistoryBatch.of(snaps)


def test_tracer_installs_on_the_package_and_restores_it():
    modules = load_modules()
    # numerics loads its compiled Adam step and runner into module globals
    # on their first use; load both before the snapshot
    modules.numerics.adam_step(modules.numerics.ParamStore({"w": [[0.0]]}), lr=0.1)
    modules.numerics.program(())
    owners = [vars(m) for m in vars(modules).values()]
    owners += [vars(modules.numerics.Tensor2D), vars(modules.pipeline.PipelineState)]
    before = [dict(owner) for owner in owners]

    patches, tracer = Patches(), Tracer()
    tracer.install(patches, modules)
    try:
        cfg = DetectorConfig(k=6, d=4)
        rng = np.random.default_rng(0)
        params = init_params(cfg, rng)
        modules.pipeline.fit(_batch(rng, 3, cfg.k), cfg, params, rng, epochs=2)
    finally:
        patches.restore()

    assert [dict(owner) for owner in owners] == before
    # the kernel's stages run through the names the tracer wraps
    for name in ("detector.fit", "detector.gcn", "detector.temporal_fuse", "numerics.adam_step"):
        assert name in tracer.names, name
    assert tracer.names.count("detector.gcn") == 2


def test_a_traced_fit_records_every_stage_of_every_epoch():
    # A pass that called stage functions it had bound before the tracer was
    # installed would record none of these spans, and the per-layer metrics
    # would read 0.
    modules = load_modules()
    cfg = DetectorConfig(k=6, d=4)
    rng = np.random.default_rng(5)
    epochs = 7
    for rounds, fused in ((3, epochs), (1, 0)):
        params = init_params(cfg, rng)
        patches, tracer = Patches(), Tracer()
        tracer.install(patches, modules)
        try:
            modules.pipeline.fit(_batch(rng, rounds, cfg.k), cfg, params, rng, epochs=epochs)
        finally:
            patches.restore()
        counts = {name: tracer.names.count(name) for name in set(tracer.names)}
        assert counts.get("detector.temporal_fuse", 0) == fused, rounds
        assert counts["detector.gcn"] == counts["numerics.adam_step"] == epochs, rounds
        assert counts["detector.bottleneck"] == counts["detector.decoders"] == 2 * epochs, rounds
        (fit,) = [i for i, name in enumerate(tracer.names) if name == "detector.fit"]
        assert all(parent == fit for parent in tracer.parents[fit + 1 :]), rounds


def test_round_clock_and_tracer_see_every_round_of_a_defended_run():
    modules = load_modules()
    cfg = modules.harness.ExperimentConfig(
        n_tasks=1, min_rounds=3, attack="hallucination", epochs_initial=2, epochs_incremental=1
    )
    patches, tracer = Patches(), Tracer()
    clock = RoundClock(HostClock(enabled=False))
    clock.install(patches, modules.simulator, modules.harness)
    tracer.install(patches, modules)
    try:
        _, logs = modules.harness.run_experiment(cfg)
    finally:
        patches.restore()
    clock.close_pass()

    rounds = len(logs[0].rounds)
    assert rounds == 3
    assert tracer.names.count("simulator.run_episode") == 1
    assert tracer.names.count("pipeline.ingest_round") == rounds
    steps = [i for i, name in enumerate(tracer.names) if name == "simulator.step_round"]
    assert len(steps) == rounds
    assert all(tracer.names[tracer.parents[i]] == "simulator.run_episode" for i in steps)
    assert (len(clock.first), len(clock.later)) == (1, rounds - 1)


def test_a_round_builds_one_history_under_the_benchmarks_wrappers(monkeypatch):
    modules = load_modules()
    built = []

    class CountingHistory(modules.detector._History):
        def __init__(self, batch, cfg):
            built.append(batch.snapshots[-1].round)
            super().__init__(batch, cfg)

    monkeypatch.setattr(modules.detector, "_History", CountingHistory)
    cfg = modules.harness.ExperimentConfig(
        n_tasks=1, min_rounds=3, attack="hallucination", epochs_initial=2, epochs_incremental=1
    )
    patches, tracer, capture = Patches(), Tracer(), ScoreCapture()
    tracer.install(patches, modules)
    capture.install(patches, modules.pipeline)
    try:
        _, logs = modules.harness.run_experiment(cfg)
    finally:
        patches.restore()

    rounds = [rec.t for rec in logs[0].rounds]
    assert len(rounds) == len(capture.rounds) == 3
    assert tracer.names.count("detector.fit") == tracer.names.count("detector.infer") == 3
    assert tracer.names.count("graph.normalized_adjacency") == 3
    assert built == rounds


def test_a_round_binds_one_pass_under_the_benchmarks_wrappers(monkeypatch):
    # the round's infer runs on the pass its fit bound
    modules = load_modules()
    bound = []

    class CountingPass(modules.detector._Pass):
        def __init__(self, h, w):
            bound.append(h)
            super().__init__(h, w)

    monkeypatch.setattr(modules.detector, "_Pass", CountingPass)
    cfg = modules.harness.ExperimentConfig(
        n_tasks=1, min_rounds=3, attack="hallucination", epochs_initial=2, epochs_incremental=1
    )
    patches, tracer, capture = Patches(), Tracer(), ScoreCapture()
    tracer.install(patches, modules)
    capture.install(patches, modules.pipeline)
    try:
        _, logs = modules.harness.run_experiment(cfg)
    finally:
        patches.restore()

    assert len(logs[0].rounds) == len(capture.rounds) == 3
    assert tracer.names.count("detector.fit") == tracer.names.count("detector.infer") == 3
    assert len(bound) == 3 and len({id(h) for h in bound}) == 3
