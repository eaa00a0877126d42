"""Experiment runner, metrics, and all file formats.

This is the user-facing surface: it builds task corpora, drives the
simulator (with or without the defense pipeline attached), aggregates
accuracy / weighted detection rate / FDR / API-call metrics, and writes
the episode JSON, metrics CSV, and graph JSON/DOT exports.

Reproducibility contract: everything written to disk is a deterministic
function of (config, master seed). Wall-clock runtime is therefore only
recorded when timing is explicitly enabled; by default the CSV column
holds 0.0 so reruns are byte-identical.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass
from itertools import chain, groupby
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .anomaly import DetectionPolicy, PolicyError
from .detector import DetectorConfig, DetectorError
from .pipeline import PipelineState
from .embedder import EmbeddingConfig, EmbeddingError, make_embedder, remote_embed
from .seeding import derive_rng, derive_seed
from .simulator import (
    AgentSpec,
    AttackPlan,
    EpisodeLog,
    GroundTruth,
    RemoteAgentConfig,
    RoundRecord,
    SimulatorError,
    Task,
    run_episode,
)

__all__ = [
    "HarnessError",
    "ExperimentConfig",
    "MetricsReport",
    "make_corpus",
    "load_corpus",
    "compute_metrics",
    "run_trials",
    "run_experiment",
    "episode_to_json",
    "episode_from_json",
    "validate_episode_json",
    "export_episode_graph",
    "metrics_csv",
    "write_artifact",
]

TOPOLOGY_FRACTIONS = (0.25, 0.5, 0.75, 1.0)
ATTACK_ALIASES = {
    "none": "none",
    "hallucination": "hallucination",
    "agent": "agent_targeted",
    "agent_targeted": "agent_targeted",
    "comm": "comm_targeted",
    "comm_targeted": "comm_targeted",
}


class HarnessError(ValueError):
    pass


# DetectorConfig's fields that ExperimentConfig holds too: all but the per-stream seed.
_DETECTOR_FIELDS = [f.name for f in dataclasses.fields(DetectorConfig) if f.name != "seed"]


@dataclass(frozen=True)
class ExperimentConfig:
    n_agents: int = 4
    max_rounds: int = 3
    min_rounds: int = 1
    topology: float = 1.0
    attack: str = "none"
    trials: int = 1
    seed: int = 0
    decay: str = "exponential"
    decay_lambda: float = 0.5
    pooling: str = "pooled"
    variant: str = DetectorConfig.variant
    defense: bool = True
    p_correct: float = 1.0
    p_follow: float = 1.0
    persuasion: float | None = None
    corpus: str | None = None
    n_tasks: int = 20
    carry_params: bool = True
    history_window: int | None = None
    k: int = DetectorConfig.k
    d: int = DetectorConfig.d
    alpha: float = DetectorConfig.alpha
    beta: float = DetectorConfig.beta
    lambda_: float = DetectorConfig.lambda_
    lr: float = DetectorConfig.lr
    epochs_initial: int = DetectorConfig.epochs_initial
    epochs_incremental: int = DetectorConfig.epochs_incremental
    policy: str = DetectionPolicy.mode
    tau: float = DetectionPolicy.tau
    timing: bool = False

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise HarnessError(f"trials must be >= 1, got {self.trials}")
        if self.topology not in TOPOLOGY_FRACTIONS:
            raise HarnessError(
                f"topology must be one of {TOPOLOGY_FRACTIONS}, got {self.topology}"
            )
        if self.attack not in ATTACK_ALIASES:
            raise HarnessError(f"unknown attack {self.attack!r}")
        object.__setattr__(self, "attack", ATTACK_ALIASES[self.attack])
        if self.decay not in ("exponential", "linear"):
            raise HarnessError(f"unknown decay {self.decay!r}")
        if self.pooling not in ("pooled", "per_episode"):
            raise HarnessError(f"unknown pooling {self.pooling!r}")
        for name in ("n_agents", "max_rounds", "min_rounds", "n_tasks"):
            if getattr(self, name) < 1:
                raise HarnessError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.min_rounds > self.max_rounds:
            raise HarnessError("min_rounds cannot exceed max_rounds")
        if self.history_window is not None and self.history_window < 1:
            raise HarnessError(f"history_window must be >= 1, got {self.history_window}")
        for name in ("p_correct", "p_follow"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise HarnessError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        if self.persuasion is not None and not self.persuasion >= 0.0:
            raise HarnessError(f"persuasion must be >= 0, got {self.persuasion}")
        if not 0.0 < self.decay_lambda <= 1.0:
            raise HarnessError(f"decay_lambda must be in (0, 1], got {self.decay_lambda}")
        try:
            self.detector_config(seed=0)
            self.detection_policy()
        except (DetectorError, PolicyError) as err:
            raise HarnessError(str(err)) from None

    def detector_config(self, seed: int) -> DetectorConfig:
        shared = {name: getattr(self, name) for name in _DETECTOR_FIELDS}
        return DetectorConfig(seed=seed, **shared)

    def detection_policy(self) -> DetectionPolicy:
        return DetectionPolicy(mode=self.policy, tau=self.tau)

    def config_hash(self) -> str:
        doc = dataclasses.asdict(self)
        doc["timing"] = False  # timing changes no result, so it must not change the hash
        text = "\n".join(f"{k}={doc[k]}" for k in sorted(doc))
        return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()

    @classmethod
    def from_sources(cls, file_kv: Mapping[str, object] | None = None, **overrides) -> "ExperimentConfig":
        """``parse_config_file``'s values first, overrides that are not None on
        top, defaults underneath."""
        merged = dict(file_kv or {})
        merged.update((key, value) for key, value in overrides.items() if value is not None)
        return cls(**merged)


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
_KEY_ALIASES = {"lambda": "lambda_"}


def _canonical_key(key: str) -> str:
    key = key.strip()
    key = _KEY_ALIASES.get(key, key)
    if key not in _FIELD_TYPES:
        raise HarnessError(f"unknown config key {key!r}")
    return key


_NUMBER_KINDS = {"int": int, "int | None": int, "float": float, "float | None": float}


def _parse_field(key: str, raw: str):
    """The value of a config field from its text; field types are annotation strings."""
    raw = raw.strip()
    kind = _FIELD_TYPES[key]
    if kind.endswith("| None") and raw.lower() in ("none", "null", ""):
        return None
    if kind == "bool":
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise HarnessError(f"config key {key!r}: cannot parse bool from {raw!r}")
    number = _NUMBER_KINDS.get(kind)
    if number is None:
        return raw
    try:
        return number(raw)
    except ValueError:
        raise HarnessError(f"config key {key!r}: cannot parse {number.__name__} from {raw!r}") from None


def parse_config_file(path: str | Path) -> dict[str, object]:
    """Flat `key = value` lines; '#' starts a comment. Returns each field's
    parsed value; a bad line, key or value raises HarnessError naming the
    file and line."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise HarnessError(f"cannot read config {path}: {err}") from err
    result: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise HarnessError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        try:
            key = _canonical_key(key)
            result[key] = _parse_field(key, value)
        except HarnessError as err:
            raise HarnessError(f"{path}:{lineno}: {err}") from err
    return result


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    detection_rate: float | None
    fdr: float | None
    api_calls_mean: float
    runtime_seconds: float = 0.0

    def __post_init__(self) -> None:
        for name in ("accuracy", "detection_rate", "fdr"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise HarnessError(f"{name}={value} outside [0, 1]")


def make_corpus(n_tasks: int, seed: int) -> list[Task]:
    """Deterministic arithmetic multiple-choice tasks."""
    rng = derive_rng(seed, "corpus")
    tasks = []
    for i in range(n_tasks):
        a = int(rng.integers(2, 60))
        b = int(rng.integers(2, 60))
        correct = a + b
        candidates = {correct}
        while len(candidates) < 4:
            candidates.add(int(rng.integers(4, 140)))
        space = sorted(candidates)
        rng.shuffle(space)
        tasks.append(
            Task(
                id=f"task-{i:03d}",
                question=f"What is {a} plus {b}?",
                answer_space=tuple(str(v) for v in space),
                correct=str(correct),
            )
        )
    return tasks


def load_corpus(path: str | Path) -> list[Task]:
    """Tab-separated: id, question, |-separated answers, correct index.

    Task ids name the episode files (``trial{NN}_{id}.json``), so an id must
    be unique and a plain file name: not empty, not ``.`` or ``..``, and
    without ``/``, ``\\`` or NUL.
    """
    tasks = []
    first_line: dict[str, int] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise HarnessError(f"cannot read corpus {path}: {err}") from err
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise HarnessError(f"{path}:{lineno}: expected 4 tab-separated fields, got {len(parts)}")
        task_id, question, answers_raw, index_raw = parts
        if task_id in ("", ".", "..") or any(c in task_id for c in "/\\\0"):
            raise HarnessError(f"{path}:{lineno}: task id {task_id!r} is not a plain file name")
        if task_id in first_line:
            raise HarnessError(
                f"{path}:{lineno}: task id {task_id!r} repeats line {first_line[task_id]}"
            )
        first_line[task_id] = lineno
        answers = tuple(answers_raw.split("|"))
        try:
            index = int(index_raw)
        except ValueError as err:
            raise HarnessError(f"{path}:{lineno}: bad correct-answer index {index_raw!r}") from err
        if not 0 <= index < len(answers):
            raise HarnessError(
                f"{path}:{lineno}: bad correct-answer index {index_raw!r} "
                f"for {len(answers)} answers"
            )
        try:
            task = Task(id=task_id, question=question, answer_space=answers, correct=answers[index])
        except SimulatorError as err:
            raise HarnessError(f"{path}:{lineno}: {err}") from err
        tasks.append(task)
    if not tasks:
        raise HarnessError(f"{path}: corpus is empty")
    return tasks


def _decay_weight(decay: str, decay_lambda: float, t: int, total_rounds: int) -> float:
    if decay == "exponential":
        return decay_lambda ** (t - 1)
    return (total_rounds - t + 1) / total_rounds


def compute_metrics(
    logs: Sequence[EpisodeLog],
    decay: str = "exponential",
    decay_lambda: float = 0.5,
    pooling: str = "pooled",
) -> MetricsReport:
    """Aggregate accuracy, weighted detection rate, FDR and API calls.

    A removal is a hit when the removed agent carried an h or err label in
    the round it was removed. Rounds without a removal contribute to
    neither numerator nor denominator. Detection fields are None when no
    ground truth or no removals exist.
    """
    if not logs:
        raise HarnessError("compute_metrics requires at least one episode log")
    accuracy = sum(log.final_answer == log.task.correct for log in logs) / len(logs)
    api_mean = sum(log.api_calls for log in logs) / len(logs)
    if any(log.ground_truth is None for log in logs):
        return MetricsReport(accuracy, None, None, api_mean)

    hits = removals = 0
    pooled_num = pooled_den = 0.0
    per_episode_rates: list[float] = []
    for log in logs:
        gt, ep_num, ep_den = log.ground_truth, 0.0, 0.0
        for r, rec in enumerate(log.rounds):
            if rec.removed is None:
                continue
            i = rec.agents.index(rec.removed)
            hit = gt.h[r][i] or gt.err[r][i]
            w = _decay_weight(decay, decay_lambda, rec.t, len(log.rounds))
            hits += hit
            removals += 1
            ep_num += w * hit
            ep_den += w
        if ep_den > 0.0:
            per_episode_rates.append(ep_num / ep_den)
            pooled_num += ep_num
            pooled_den += ep_den

    fdr = (removals - hits) / removals if removals else 0.0
    if pooled_den == 0.0:
        detection_rate = None
    elif pooling == "pooled":
        detection_rate = pooled_num / pooled_den
    else:
        detection_rate = sum(per_episode_rates) / len(per_episode_rates)
    return MetricsReport(accuracy, detection_rate, fdr, api_mean)


def _embed_fn(cfg: ExperimentConfig):
    """Hashing embedder by default; GUARDIAN_EMBEDDER_URL swaps in a service."""
    url = os.environ.get("GUARDIAN_EMBEDDER_URL")
    if url:
        # one fixed text first, so that a bad service fails before any agent is called
        remote_embed(url, "probe", dim=cfg.k)
        return lambda text: remote_embed(url, text, dim=cfg.k)
    try:
        return make_embedder(EmbeddingConfig(dim=cfg.k))
    except EmbeddingError as err:
        raise HarnessError(f"k = {cfg.k} is too small for the hashing embedder: {err}") from None


def _check_adjacency_fits(cfg: ExperimentConfig) -> None:
    """Raise unless the largest matrix a defended round builds, the
    history's dense float64 adjacency, can be allocated."""
    snapshots = min(cfg.max_rounds, cfg.history_window or cfg.max_rounds)
    if cfg.variant == "static":
        snapshots = 1
    nodes = cfg.n_agents * snapshots
    try:
        np.empty((nodes, nodes))
    except MemoryError:
        raise HarnessError(
            f"n_agents = {cfg.n_agents}: not enough memory for the {nodes} x {nodes} "
            f"adjacency of a {snapshots}-round history"
        ) from None


def build_pipeline(cfg: ExperimentConfig, stream_seed: int) -> PipelineState:
    det_cfg = cfg.detector_config(seed=derive_seed(stream_seed, "detector"))
    policy, embed_fn = cfg.detection_policy(), _embed_fn(cfg)
    return PipelineState(det_cfg, policy, embed_fn, history_window=cfg.history_window)


def run_trials(cfg: ExperimentConfig) -> tuple[list[EpisodeLog], PipelineState | None]:
    """Run the corpus once per trial; every trial has its own seeds and,
    when defended, its own pipeline. This loop is where the carry policy is
    read: with ``carry_params`` each episode's detector carries on from the
    trial's previous episode, else ``begin_episode(index)`` restarts it, so
    that a carry-off episode depends only on the config, the trial seed
    and its index.

    Returns the episode logs in trial order and the last trial's pipeline
    (None without defense).
    """
    tasks = load_corpus(cfg.corpus) if cfg.corpus else make_corpus(cfg.n_tasks, cfg.seed)
    # With a remote endpoint configured, every agent is driven over HTTP
    # (ground-truth labels are then unavailable; see simulator docs).
    remote = RemoteAgentConfig.from_env()
    if cfg.defense:  # before the specs, which take memory in proportion to n_agents
        _check_adjacency_fits(cfg)
    specs = [
        AgentSpec(id=i, p_correct=cfg.p_correct, p_follow=cfg.p_follow)
        for i in range(cfg.n_agents)
    ]
    logs: list[EpisodeLog] = []
    state = None
    for trial in range(cfg.trials):
        trial_seed = derive_seed(cfg.seed, "trial", trial)
        plan = AttackPlan(
            kind=cfg.attack,
            seed=derive_seed(trial_seed, "attack"),
            persuasion=cfg.persuasion,
        )
        state = build_pipeline(cfg, trial_seed) if cfg.defense else None
        for index, task in enumerate(tasks):
            if state is not None:
                try:  # where the episode's parameters are drawn
                    state.begin_episode(None if cfg.carry_params else index)
                except MemoryError:
                    raise HarnessError(
                        f"k = {cfg.k} and d = {cfg.d}: "
                        "not enough memory for the detector's parameters"
                    ) from None
            log = run_episode(
                task,
                specs,
                cfg.topology,
                plan,
                pipeline=state,
                max_rounds=cfg.max_rounds,
                min_rounds=cfg.min_rounds,
                seed=derive_seed(trial_seed, "episode", task.id),
                remote=remote,
            )
            logs.append(log)
    return logs, state


def run_experiment(
    cfg: ExperimentConfig, out_dir: str | Path | None = None
) -> tuple[MetricsReport, list[EpisodeLog]]:
    """Run trials x corpus episodes and (optionally) write all artifacts."""
    started = time.perf_counter()
    logs, _ = run_trials(cfg)
    report = compute_metrics(
        logs, decay=cfg.decay, decay_lambda=cfg.decay_lambda, pooling=cfg.pooling
    )
    if cfg.timing:
        report = dataclasses.replace(report, runtime_seconds=time.perf_counter() - started)

    if out_dir is not None:
        out = Path(out_dir)
        per_trial = len(logs) // cfg.trials
        for i, log in enumerate(logs):
            trial = i // per_trial
            name = f"trial{trial:02d}_{log.task.id}.json"
            write_artifact(out / "episodes" / name, episode_to_json(log))
        write_artifact(out / "metrics.csv", metrics_csv(cfg, report))
    return report, logs


def write_artifact(path: Path, text: str) -> None:
    """Write `text` to `path`, creating its directory; an OS failure is a
    HarnessError naming the path."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as err:
        raise HarnessError(f"cannot write to {path}: {err}") from err


# ---------------------------------------------------------------------------
# JSON text
# ---------------------------------------------------------------------------
# Each artifact's text is ``json.dumps(doc, sort_keys=True, indent=2) + "\n"``
# of its document, byte for byte, written straight from the log: the keys of
# the fixed schemas are baked into the templates below in sorted order.
# Strings go through json's C ``encode_basestring_ascii``, scores through
# ``_float_text``.

_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    """A score as json writes it; a score read back from a file may be an int."""
    if type(value) is int:
        return int.__repr__(value)
    text = float.__repr__(value)
    return _NONFINITE.get(text, text)


def _array(items: list[str], indent: str) -> str:
    """A JSON array of written items; `indent` is the newline and indentation
    of the line the array opens on."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[" + inner + ("," + inner).join(items) + indent + "]"


# ---------------------------------------------------------------------------
# Episode JSON (stable schema)
# ---------------------------------------------------------------------------

_EPISODE = (
    '{\n  "api_calls": %d,\n  "final_answer": %s,\n  "ground_truth": %s,\n  "rounds": %s,'
    '\n  "task": %s\n}\n'
)
_TASK = '{\n    "answer_space": %s,\n    "correct": %s,\n    "id": %s,\n    "question": %s\n  }'
_ROUND = (
    '{\n      "agents": %s,\n      "answers": %s,\n      "edges": %s,\n      "removed": %s,'
    '\n      "responses": %s,\n      "scores": %s,\n      "t": %d\n    }'
)
_ROUND_EDGE = "[\n          %d,\n          %d\n        ]"
_TRUTH = '{\n    "corrupted_edges": %s,\n    "err": %s,\n    "h": %s\n  }'
_CORRUPTED_EDGE = "[\n        %d,\n        %d,\n        %d,\n        %d\n      ]"


def _label_rows(rows: list[list[bool]]) -> str:
    texts = [_array(["true" if label else "false" for label in row], "\n      ") for row in rows]
    return _array(texts, "\n    ")


def episode_to_json(log: EpisodeLog) -> str:
    task, gt, text = log.task, log.ground_truth, encode_basestring_ascii
    key = "\n      "  # the newline and indentation of a round's keys
    rounds = [
        _ROUND
        % (
            _array(list(map(str, rec.agents)), key),
            _array(list(map(text, rec.answers)), key),
            _array([_ROUND_EDGE % (src, dst) for src, dst in rec.edges], key),
            "null" if rec.removed is None else str(rec.removed),
            _array(list(map(text, rec.responses)), key),
            "null" if rec.scores is None else _array(list(map(_float_text, rec.scores)), key),
            rec.t,
        )
        for rec in log.rounds
    ]
    truth = "null"
    if gt is not None:
        corrupted = [_CORRUPTED_EDGE % tuple(e) for e in gt.corrupted_edges]
        truth = _TRUTH % (_array(corrupted, "\n    "), _label_rows(gt.err), _label_rows(gt.h))
    task_text = _TASK % (
        _array(list(map(text, task.answer_space)), "\n    "),
        text(task.correct),
        text(task.id),
        text(task.question),
    )
    rounds_text = _array(rounds, "\n  ")
    return _EPISODE % (log.api_calls, text(log.final_answer), truth, rounds_text, task_text)


def episode_from_json(text: str) -> EpisodeLog:
    """Parse one episode JSON; malformed text raises HarnessError."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as err:
        raise HarnessError(f"episode JSON invalid: {err}") from err
    return _episode_from_doc(doc)


def validate_episode_json(doc) -> None:
    """Check a parsed episode JSON against the stable schema, down to the
    type of every element; raises HarnessError naming the first deviation."""
    _episode_from_doc(doc)


# The checks below compare exact types: JSON true/false load as bool, which
# isinstance would accept as an int.


def _is_list_of(value, kind, length: int | None = None) -> bool:
    return (
        type(value) is list
        and (length is None or len(value) == length)
        and set(map(type, value)) <= {kind}
    )


def _is_int_rows(value, width: int) -> bool:
    """A list of lists of `width` ints each, as edges are written."""
    return (
        type(value) is list
        and set(map(type, value)) <= {list}
        and set(map(len, value)) <= {width}
        and set(map(type, chain.from_iterable(value))) <= {int}
    )


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise HarnessError(f"episode JSON invalid: {msg}")


def _episode_from_doc(doc) -> EpisodeLog:
    """The episode a parsed episode JSON holds, each value checked where it
    is read. The parsed lists become the log's lists; pairs become tuples.

    The rounds must form the temporal graph a run records: numbered 1, 2,
    ... in order, no agent twice in a round, each round listing the agents
    of the one before less the agent it removed (as
    ``TemporalGraph.append_snapshot`` requires), and each edge joining two
    distinct agents of its round, which for round 1 means no edges. Each
    corrupted edge ``(s, src, s + 1, dst)`` must be the edge ``(src, dst)``
    of round s + 1."""
    _need(type(doc) is dict, "top level must be an object")
    _need(set(doc) == {"task", "rounds", "ground_truth", "final_answer", "api_calls"}, "bad keys")
    t = doc["task"]
    _need(type(t) is dict and {"id", "question", "answer_space", "correct"} <= set(t), "bad task")
    _need(
        all(type(t[key]) is str for key in ("id", "question", "correct")),
        "task id, question and correct must be strings",
    )
    _need(_is_list_of(t["answer_space"], str), "task answer_space must be a list of strings")
    try:
        task = Task(t["id"], t["question"], tuple(t["answer_space"]), t["correct"])
    except SimulatorError as err:
        raise HarnessError(f"episode JSON invalid: {err}") from err
    _need(type(doc["final_answer"]) is str, "final_answer must be a string")
    api_calls = doc["api_calls"]
    _need(type(api_calls) is int and api_calls >= 0, "api_calls must be an int >= 0")
    _need(type(doc["rounds"]) is list, "rounds must be a list")
    rounds = []
    staying = None  # the agents the next round must list: agents only leave
    for position, rec in enumerate(doc["rounds"], start=1):
        _need(
            type(rec) is dict
            and set(rec) == {"t", "agents", "responses", "answers", "edges", "removed", "scores"},
            "each round must be an object with the round keys",
        )
        _need(
            type(rec["t"]) is int and rec["t"] == position,
            f"round {position} has t = {rec['t']!r}; rounds are numbered 1, 2, ... in order",
        )
        agents, removed, scores = rec["agents"], rec["removed"], rec["scores"]
        _need(_is_list_of(agents, int), "agents must be a list of ints")
        n, members = len(agents), set(agents)
        _need(len(members) == n, f"round {position} lists an agent twice")
        _need(
            staying is None or members == staying,
            f"round {position} must list the agents of round {position - 1}"
            " less the one it removed",
        )
        _need(
            _is_list_of(rec["responses"], str, n) and _is_list_of(rec["answers"], str, n),
            "responses and answers must be one string per agent",
        )
        _need(_is_int_rows(rec["edges"], 2), "edges must be [int, int] pairs")
        _need(position > 1 or not rec["edges"], "round 1 cannot have edges")
        _need(
            all(src != dst and src in members and dst in members for src, dst in rec["edges"]),
            f"each edge of round {position} must join two distinct agents of the round",
        )
        _need(
            removed is None or (type(removed) is int and removed in members),
            "removed must be null or one of the round's agents",
        )
        _need(
            scores is None
            or (type(scores) is list and len(scores) == n and set(map(type, scores)) <= {float, int}),
            "scores must be null or one number per agent",
        )
        staying = members - {removed}
        edges = list(map(tuple, rec["edges"]))
        rounds.append(
            RoundRecord(position, agents, rec["responses"], rec["answers"], edges, removed, scores)
        )
    gt = doc["ground_truth"]
    if gt is not None:
        _need(type(gt) is dict and set(gt) == {"h", "err", "corrupted_edges"}, "bad ground_truth keys")
        for key in ("h", "err"):
            rows = gt[key]
            _need(type(rows) is list and len(rows) == len(rounds), f"{key} must have one row per round")
            _need(
                all(_is_list_of(row, bool, len(rec.agents)) for row, rec in zip(rows, rounds)),
                f"{key} rows must be one bool per agent",
            )
        _need(_is_int_rows(gt["corrupted_edges"], 4), "corrupted_edges must be lists of 4 ints")
        for edge in gt["corrupted_edges"]:
            src_t, src, dst_t, dst = edge
            _need(
                1 <= src_t and dst_t == src_t + 1 <= len(rounds)
                and (src, dst) in rounds[dst_t - 1].edges,
                f"corrupted edge {edge} must name a communication edge of the log",
            )
        gt = GroundTruth(gt["h"], gt["err"], list(map(tuple, gt["corrupted_edges"])))
    return EpisodeLog(task, rounds, gt, doc["final_answer"], api_calls)


def metrics_csv(cfg: ExperimentConfig, report: MetricsReport) -> str:
    def fmt(value: float | None) -> str:
        return "" if value is None else f"{value:.6f}"

    header = "config_hash,trials,accuracy,detection_rate,fdr,api_calls_mean,runtime_seconds"
    row = ",".join(
        [
            cfg.config_hash(),
            str(cfg.trials),
            fmt(report.accuracy),
            fmt(report.detection_rate),
            fmt(report.fdr),
            fmt(report.api_calls_mean),
            fmt(report.runtime_seconds),
        ]
    )
    return header + "\n" + row + "\n"


# ---------------------------------------------------------------------------
# Graph export (JSON + DOT)
# ---------------------------------------------------------------------------


_GRAPH = '{\n  "edges": %s,\n  "nodes": %s\n}\n'
_NODE = '{\n      "agent": %d,\n      "removed": %s,\n      "round": %d,\n      "score": %s\n    }'
_EDGE = (
    '{\n      "corrupted": %s,\n      "dst_agent": %d,\n      "dst_round": %d,\n      "kind": "%s",'
    '\n      "src_agent": %d,\n      "src_round": %d\n    }'
)
_DOT_EDGE_ATTRS = {
    ("comm", False): "",
    ("comm", True): ' [color=red, label="corrupted"]',
    ("continuity", False): " [style=dotted, arrowhead=none]",
}


def _render_graph_dot(nodes: list[tuple], edges: list[tuple]) -> str:
    lines = ["digraph guardian {", "  rankdir=LR;"]
    # Nodes come in log order, and a log numbers its rounds 1, 2, ... in order.
    for t, group in groupby(nodes, key=itemgetter(0)):
        lines.append(f"  subgraph cluster_round_{t} {{")
        lines.append(f'    label="round {t}";')
        lines += [
            '    "r%d_a%d" [label="agent %d%s"%s];'
            % (
                t,
                agent,
                agent,
                "" if score is None else "\\ns=%.3f" % score,
                ", color=red, style=dashed" if removed else "",
            )
            for _, agent, score, removed in group
        ]
        lines.append("  }")
    lines += [
        '  "r%d_a%d" -> "r%d_a%d"%s;' % (src_t, src, dst_t, dst, _DOT_EDGE_ATTRS[kind, corrupted])
        for src_t, src, dst_t, dst, kind, corrupted in edges
    ]
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_episode_graph(log: EpisodeLog, fmt: str = "json") -> str:
    """Graph export rebuilt from an episode log (no re-embedding needed).

    A node is marked removed when its round's ``removed`` names its agent.
    The log's rounds must be numbered 1, 2, ... in order, as ``run_episode``
    writes them and the episode reader requires.
    """
    # Records are tuples: (round, agent, score, removed) for a node and
    # (src_round, src_agent, dst_round, dst_agent, kind, corrupted) for an edge.
    nodes = [
        (rec.t, agent, None if rec.scores is None else rec.scores[i], agent == rec.removed)
        for rec in log.rounds
        for i, agent in enumerate(rec.agents)
    ]
    corrupted = set(map(tuple, log.ground_truth.corrupted_edges)) if log.ground_truth else set()
    edges = []
    for prev, cur in zip(log.rounds, log.rounds[1:]):
        s, t = prev.t, cur.t
        edges += [(s, src, t, dst, "comm", (s, src, t, dst) in corrupted) for src, dst in cur.edges]
        edges += [(s, a, t, a, "continuity", False) for a in prev.agents if a in cur.agents]
    edges.sort(key=itemgetter(0, 1, 3, 4))
    if fmt == "json":
        edge_texts = [
            _EDGE % ("true" if bad else "false", dst, dst_t, kind, src, src_t)
            for src_t, src, dst_t, dst, kind, bad in edges
        ]
        node_texts = [
            _NODE
            % (agent, "true" if gone else "false", t, "null" if score is None else _float_text(score))
            for t, agent, score, gone in nodes
        ]
        return _GRAPH % (_array(edge_texts, "\n  "), _array(node_texts, "\n  "))
    if fmt == "dot":
        return _render_graph_dot(nodes, edges)
    raise HarnessError(f"unknown export format {fmt!r}")
