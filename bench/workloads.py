"""The workloads, their inputs and one pass of each.

A run repeats whole passes, and every pass of a run does the same work on
the same inputs, so outputs and the share of failed episodes do not depend
on how many passes fit in the run.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

# gamma = lambda / (1 + lambda * beta) = 0.005 exactly, as in criterion 5.
BENCH_LAMBDA = 1.0 / 199.0
ATTACKS = (("hallucination", 1), ("agent_targeted", 1), ("comm_targeted", 3))
C5_TASKS = 20  # criterion 5's detection bars hold on this prefix of the corpus
LONG_TASKS = 6
REPLAY_TASKS = 100

WORKLOADS = {
    "defend_c5": "criterion 5's short debates: every episode pays a fresh 50-epoch fit, "
    "so the detector's per-epoch fixed cost dominates",
    "defend_long": "8 agents for 10 rounds with the detector carried across the stream: "
    "the history grows to 10 snapshots, so temporal attention dominates",
    "replay": "undefended simulate, encode, decode back and export in memory: "
    "the artifact path, which never touches the embedder or the detector",
}

E2E_METRICS = {
    "episodes_per_s": "1/s",
    "first_round_ms_p50": "ms",
    "round_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "api_calls_per_episode": "count",
}


def load_modules() -> SimpleNamespace:
    from guardian import detector, embedder, harness, numerics, pipeline, seeding, simulator

    return SimpleNamespace(
        detector=detector,
        embedder=embedder,
        harness=harness,
        numerics=numerics,
        pipeline=pipeline,
        seeding=seeding,
        simulator=simulator,
    )


def configs(m: SimpleNamespace, workload: str, seed: int) -> list:
    """One ExperimentConfig per run_experiment call of a pass."""
    config = m.harness.ExperimentConfig
    if workload == "defend_c5":
        return [
            config(
                attack=attack,
                min_rounds=min_rounds,
                n_tasks=C5_TASKS,
                seed=seed,
                lambda_=BENCH_LAMBDA,
                carry_params=False,
            )
            for attack, min_rounds in ATTACKS
        ]
    if workload == "defend_long":
        return [
            config(
                n_agents=8,
                max_rounds=10,
                min_rounds=10,
                topology=0.5,
                attack="agent_targeted",
                n_tasks=LONG_TASKS,
                seed=seed,
                lambda_=BENCH_LAMBDA,
                carry_params=True,
            )
        ]
    if workload == "replay":
        return [
            config(
                n_agents=4,
                max_rounds=4,
                min_rounds=4,
                topology=0.5,
                attack=attack,
                p_correct=0.8,
                p_follow=0.7,
                n_tasks=REPLAY_TASKS,
                seed=seed,
                defense=False,
            )
            for attack, _ in ATTACKS
        ]
    raise ValueError(f"unknown workload {workload!r}")


def setup(workload: str, seed: int) -> tuple[SimpleNamespace, list]:
    """What a process does before its first episode: imports, corpus, pipeline, detector."""
    m = load_modules()
    cfgs = configs(m, workload, seed)
    m.harness.make_corpus(cfgs[0].n_tasks, seed)
    if cfgs[0].defense:
        m.harness.build_pipeline(cfgs[0], m.seeding.derive_seed(seed, "trial", 0))
    return m, cfgs


@dataclass
class ReplayRun:
    """What one run_experiment call of a replay pass encoded and read back."""

    cfg: object
    report: object
    logs: list
    texts: list[str]
    read_logs: list
    recomputed: object
    exports: list[tuple[str, str]]  # (json, dot) per episode


@dataclass
class PassResult:
    episodes: int = 0
    digest: str = ""
    # Kept for the checks, on request: every episode log, and per
    # run_experiment call either (cfg, logs) or a ReplayRun.
    logs: list = field(default_factory=list)
    runs: list = field(default_factory=list)
    artifact_bytes: int = 0


def run_pass(
    m: SimpleNamespace,
    workload: str,
    cfgs: list,
    keep: bool,
    tick: Callable[[], None] = lambda: None,
) -> PassResult:
    """One pass of the workload. `keep` holds on to what the checks need.

    `replay` calls `tick` between the episodes it encodes and reads back,
    where the host clock may calibrate; the defended workloads spend their
    time in debate rounds, where the round clock calibrates.
    """
    if workload == "replay":
        return _replay_pass(m, cfgs, keep, tick)
    digest = hashlib.sha256()
    result = PassResult()
    for cfg in cfgs:
        _, logs = m.harness.run_experiment(cfg)
        result.episodes += len(logs)
        for log in logs:
            for rec in log.rounds:
                digest.update(f"{cfg.attack} {log.task.id} {rec.t} {rec.removed}\n".encode())
        if keep:
            result.runs.append((cfg, logs))
            result.logs += logs
    result.digest = digest.hexdigest()[:16]
    return result


def _replay_pass(m: SimpleNamespace, cfgs: list, keep: bool, tick: Callable[[], None]) -> PassResult:
    """The artifact path without the file system.

    Episode JSON and the metrics CSV are encoded as `run_experiment(cfg,
    out_dir)` writes them, and graph exports as `guardian export` prints
    them without `--out`, but all stay in memory: on this benchmark's disk
    (ext4 mounted with `discard`) one file open took 0.1-0.5 ms, and the
    same 300 writes and reads took from 33 to 152 ms in consecutive
    batches, which no calibration of the processor can follow.
    """
    h = m.harness
    digest = hashlib.sha256()
    result = PassResult()
    for cfg in cfgs:
        report, logs = h.run_experiment(cfg)
        texts = []
        for log in logs:
            tick()
            texts.append(h.episode_to_json(log))
        csv = h.metrics_csv(cfg, report)
        read_logs, exports = [], []
        for text in texts:
            tick()
            log = h.episode_from_json(text)
            as_json = h.export_episode_graph(log, fmt="json")
            as_dot = h.export_episode_graph(log, fmt="dot")
            digest.update(text.encode())
            read_logs.append(log)
            exports.append((as_json, as_dot))
        recomputed = h.compute_metrics(
            read_logs, decay=cfg.decay, decay_lambda=cfg.decay_lambda, pooling=cfg.pooling
        )
        result.episodes += len(logs)
        if keep:
            result.runs.append(ReplayRun(cfg, report, logs, texts, read_logs, recomputed, exports))
            result.logs += logs
            artifacts = texts + [csv] + [a + b for a, b in exports]
            result.artifact_bytes += sum(len(a.encode()) for a in artifacts)
    result.digest = digest.hexdigest()[:16]
    return result


def warm_up(m: SimpleNamespace, workload: str, cfgs: list) -> None:
    """One task of every config, untimed, so lazy set-up is done before timing."""
    small = [dataclasses.replace(cfg, n_tasks=1) for cfg in cfgs]
    run_pass(m, workload, small, keep=False)
