from __future__ import annotations

import dataclasses
import hashlib
import json
import re

import artifacts
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guardian.anomaly import POLICY_MODES
from guardian.cli import main
from guardian.harness import (
    ATTACK_ALIASES,
    TOPOLOGY_FRACTIONS,
    ExperimentConfig,
    HarnessError,
    MetricsReport,
    build_pipeline,
    compute_metrics,
    episode_from_json,
    episode_to_json,
    export_episode_graph,
    load_corpus,
    make_corpus,
    metrics_csv,
    parse_config_file,
    run_experiment,
    run_trials,
    validate_episode_json,
)
from guardian.seeding import derive_seed
from guardian.simulator import (
    AgentSpec,
    AttackPlan,
    EpisodeLog,
    GroundTruth,
    RoundRecord,
    Task,
    run_episode,
)

TASK = Task(id="m0", question="q", answer_space=("8", "57"), correct="8")


def _log(removals, hits, total_rounds=3, final="8", api=12, n_agents=4):
    """Synthetic episode: `removals` maps round -> agent, `hits` says whether
    that agent was truly anomalous at that round. A removed agent leaves the
    later rounds; each later round has one edge, between its first two agents."""
    rounds = []
    h = []
    err = []
    active = list(range(n_agents))
    for t in range(1, total_rounds + 1):
        agents = list(active)
        n = len(agents)
        removed = removals.get(t)
        rounds.append(
            RoundRecord(
                t=t,
                agents=agents,
                responses=[f"Answer: 8. Reasoning: solver {t}"] * n,
                answers=["8"] * n,
                edges=[] if t == 1 else [(agents[0], agents[1])],
                removed=removed,
                scores=[0.1] * n,
            )
        )
        h.append([False] * n)
        err_row = [False] * n
        if removed is not None:
            err_row[agents.index(removed)] = hits.get(t, False)
            active.remove(removed)
        err.append(err_row)
    return EpisodeLog(
        task=TASK,
        rounds=rounds,
        ground_truth=GroundTruth(h=h, err=err, corrupted_edges=[]),
        final_answer=final,
        api_calls=api,
    )


def _episode(rounds):
    return EpisodeLog(task=TASK, rounds=rounds, ground_truth=None, final_answer="8", api_calls=0)


def test_metrics_all_removals_correct():
    logs = [_log({1: 2}, {1: True}), _log({2: 1}, {2: True})]
    report = compute_metrics(logs)
    assert report.fdr == 0.0
    assert report.detection_rate == 1.0


def test_metrics_weighted_hand_example():
    # removals at rounds 1 and 2, hits (1, 0), exponential lambda 0.5:
    # (1*1 + 0.5*0) / 1.5 = 2/3
    log = _log({1: 2, 2: 3}, {1: True, 2: False})
    report = compute_metrics([log])
    assert abs(report.detection_rate - 2.0 / 3.0) < 1e-12
    assert report.fdr == 0.5


def test_metrics_fdr_quarter():
    logs = [
        _log({1: 0}, {1: True}),
        _log({1: 1}, {1: True}),
        _log({1: 2}, {1: True}),
        _log({1: 3}, {1: False}),
    ]
    assert compute_metrics(logs).fdr == 0.25


def test_metrics_linear_decay():
    # 3-round episode, removals at rounds 1 and 3, hits (0, 1):
    # weights 3/3 and 1/3 -> rate = (1/3) / (4/3) = 0.25
    log = _log({1: 0, 3: 1}, {1: False, 3: True})
    report = compute_metrics([log], decay="linear")
    assert abs(report.detection_rate - 0.25) < 1e-12


def test_metrics_no_removals():
    report = compute_metrics([_log({}, {})])
    assert report.fdr == 0.0
    assert report.detection_rate is None


def test_metrics_accuracy_and_api_mean():
    logs = [_log({}, {}, final="8", api=10), _log({}, {}, final="57", api=14)]
    report = compute_metrics(logs)
    assert report.accuracy == 0.5
    assert report.api_calls_mean == 12.0


def test_metrics_without_ground_truth_marks_unavailable():
    log = _log({1: 0}, {1: True})
    log.ground_truth = None
    report = compute_metrics([log])
    assert report.detection_rate is None
    assert report.fdr is None


def test_metrics_permutation_invariant():
    logs = [
        _log({1: 0}, {1: True}),
        _log({2: 1}, {2: False}),
        _log({3: 2}, {3: True}),
    ]
    a = compute_metrics(logs)
    b = compute_metrics(list(reversed(logs)))
    assert a == b


def test_metrics_fdr_zero_iff_all_hits():
    rng_cases = [
        [_log({1: 0}, {1: True}), _log({2: 3}, {2: True})],
        [_log({1: 0}, {1: True}), _log({2: 3}, {2: False})],
    ]
    for logs in rng_cases:
        report = compute_metrics(logs)
        all_hits = report.detection_rate == 1.0 if report.detection_rate is not None else True
        assert (report.fdr == 0.0) == all_hits


def test_metrics_pooling_flag():
    # Episode A: one removal, hit (rate 1). Episode B: removals at rounds
    # 1 and 2, hits (0, 0) (rate 0). Pooled: 1/2.5; per-episode: 0.5.
    log_a = _log({1: 0}, {1: True})
    log_b = _log({1: 1, 2: 2}, {1: False, 2: False})
    pooled = compute_metrics([log_a, log_b], pooling="pooled")
    per_ep = compute_metrics([log_a, log_b], pooling="per_episode")
    assert abs(pooled.detection_rate - 1.0 / 2.5) < 1e-12
    assert abs(per_ep.detection_rate - 0.5) < 1e-12


def test_metrics_requires_logs():
    with pytest.raises(HarnessError):
        compute_metrics([])


def _reference_metrics(logs, decay, decay_lambda, pooling):
    """README "Metrics", written out. A removal scores 1 when the removed
    agent carried an h or err label that round, else 0, weighted by
    ``decay_lambda ** (t - 1)`` or, linear, by ``(R - t + 1) / R`` in an
    R-round episode. Sums run in round order within an episode, then in
    episode order."""
    accuracy = sum(log.final_answer == log.task.correct for log in logs) / len(logs)
    api_calls_mean = sum(log.api_calls for log in logs) / len(logs)
    if any(log.ground_truth is None for log in logs):
        return MetricsReport(accuracy, None, None, api_calls_mean)
    wrong = total = 0
    episodes = []  # (weighted score sum, weight sum) of each episode with a removal
    for log in logs:
        scored = weights = 0.0
        for r, rec in enumerate(log.rounds):
            if rec.removed is None:
                continue
            i = rec.agents.index(rec.removed)
            score = 1.0 if log.ground_truth.h[r][i] or log.ground_truth.err[r][i] else 0.0
            if decay == "exponential":
                weight = decay_lambda ** (rec.t - 1)
            else:
                weight = (len(log.rounds) - rec.t + 1) / len(log.rounds)
            scored += weight * score
            weights += weight
            wrong += score == 0.0
            total += 1
        if weights > 0.0:
            episodes.append((scored, weights))
    rate = None
    if episodes and pooling == "pooled":
        pooled_scored = pooled_weights = 0.0
        for scored, weights in episodes:
            pooled_scored += scored
            pooled_weights += weights
        rate = pooled_scored / pooled_weights
    elif episodes:
        rate = sum(scored / weights for scored, weights in episodes) / len(episodes)
    return MetricsReport(accuracy, rate, wrong / total if total else 0.0, api_calls_mean)


@st.composite
def _metric_inputs(draw):
    """Up to four labelled episode logs, one of them sometimes unlabelled."""
    logs = draw(st.lists(_episode_logs(labelled=True), min_size=1, max_size=4))
    if draw(st.integers(0, 3)) == 0:
        logs[draw(st.integers(0, len(logs) - 1))].ground_truth = None
    return logs


@settings(max_examples=60, deadline=None)
@given(
    _metric_inputs(),
    st.sampled_from(["exponential", "linear"]),
    st.floats(0.01, 1.0),
    st.sampled_from(["pooled", "per_episode"]),
)
def test_metrics_equal_the_readme_definition_exactly(logs, decay, decay_lambda, pooling):
    report = compute_metrics(logs, decay=decay, decay_lambda=decay_lambda, pooling=pooling)
    assert report == _reference_metrics(logs, decay, decay_lambda, pooling)


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def test_make_corpus_deterministic():
    a = make_corpus(10, seed=3)
    b = make_corpus(10, seed=3)
    assert a == b
    assert all(t.correct in t.answer_space for t in a)


def test_corpus_tsv_roundtrip(tmp_path):
    tasks = make_corpus(5, seed=1)
    path = tmp_path / "corpus.tsv"
    lines = [
        f"{t.id}\t{t.question}\t{'|'.join(t.answer_space)}\t{t.answer_space.index(t.correct)}"
        for t in tasks
    ]
    path.write_text("\n".join(lines) + "\n")
    assert load_corpus(path) == tasks


def test_corpus_load_reports_line(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("t0\tq\t8|9\t0\nt1\tq only two fields\n")
    with pytest.raises(HarnessError, match=r"bad\.tsv:2"):
        load_corpus(path)


def test_corpus_bad_index_reported(tmp_path):
    path = tmp_path / "bad2.tsv"
    path.write_text("t0\tq\t8|9\t7\n")
    with pytest.raises(HarnessError, match="index"):
        load_corpus(path)


@pytest.mark.parametrize("task_id", ["", ".", "..", "a/b", "..\\up", "nul\0id"])
def test_corpus_rejects_task_ids_unsafe_as_file_names(tmp_path, task_id):
    path = tmp_path / "ids.tsv"
    path.write_text(f"t0\tq\t8|9\t0\n{task_id}\tq\t8|9\t0\n")
    with pytest.raises(HarnessError, match=r"ids\.tsv:2: task id"):
        load_corpus(path)


def test_corpus_rejects_duplicate_task_ids(tmp_path):
    path = tmp_path / "dup.tsv"
    path.write_text("t0\tq\t8|9\t0\nt1\tq\t8|9\t0\nt0\tq2\t8|9\t1\n")
    with pytest.raises(HarnessError, match=r"dup\.tsv:3: task id 't0' repeats line 1"):
        load_corpus(path)


@pytest.mark.parametrize(
    "answers_and_index",
    ["8|9\t-1", "8|9|10\t-3", "8\t0"],
    ids=["negative index", "index wrapping to the first answer", "one answer"],
)
def test_corpus_rejects_answer_fields_no_task_can_hold(tmp_path, answers_and_index):
    path = tmp_path / "answers.tsv"
    path.write_text(f"t0\tq\t8|9\t0\nt1\tq\t{answers_and_index}\n")
    with pytest.raises(HarnessError, match=r"answers\.tsv:2: "):
        load_corpus(path)


def test_corpus_missing_file():
    with pytest.raises(HarnessError, match="cannot read"):
        load_corpus("/nonexistent/corpus.tsv")


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_config_file_parse_and_overrides(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# experiment\nn_agents = 5\ntopology = 0.5\nattack = agent\nlambda = 0.02\n"
        "carry_params = false\n"
    )
    cfg = ExperimentConfig.from_sources(parse_config_file(path), seed=9, n_agents=6)
    assert cfg.n_agents == 6  # CLI override wins
    assert cfg.topology == 0.5
    assert cfg.attack == "agent_targeted"
    assert cfg.lambda_ == 0.02
    assert cfg.carry_params is False
    assert cfg.seed == 9


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("frobnicate = 3\n")
    with pytest.raises(HarnessError, match="frobnicate"):
        ExperimentConfig.from_sources(parse_config_file(path))


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_NAMES = st.text("abcdefghijklmnopqrstuvwxyz0123456789_./-", min_size=1, max_size=12)
# Fields whose values ExperimentConfig constrains, or that are text; the rest
# take any value of their annotated type (tau is constrained with the policy).
_FIELD_VALUES = {
    "topology": st.sampled_from(TOPOLOGY_FRACTIONS),
    "attack": st.sampled_from(sorted(set(ATTACK_ALIASES.values()))),
    "trials": st.integers(1, 10**6),
    "decay": st.sampled_from(["exponential", "linear"]),
    "pooling": st.sampled_from(["pooled", "per_episode"]),
    "variant": st.sampled_from(["temporal", "static"]),
    "policy": st.sampled_from(sorted(POLICY_MODES)),
    # 'none' and 'null' are how the format writes None
    "corpus": st.none() | _NAMES.filter(lambda s: s not in ("none", "null")),
    "n_agents": st.integers(1, 10**12),
    "max_rounds": st.integers(1, 10**12),
    "min_rounds": st.integers(1, 10**12),
    "n_tasks": st.integers(1, 10**12),
    "history_window": st.none() | st.integers(1, 10**12),
    "p_correct": st.floats(0.0, 1.0),
    "p_follow": st.floats(0.0, 1.0),
    "decay_lambda": st.floats(0.0, 1.0, exclude_min=True),
    "persuasion": st.none() | st.floats(0.0, allow_infinity=False),
    "k": st.integers(1, 10**12),
    "d": st.integers(1, 10**12),
    "alpha": st.floats(0.0, 1.0),
    "beta": st.floats(0.0, exclude_min=True, allow_infinity=False),
    "lambda_": st.floats(0.0, allow_infinity=False),
    "lr": st.floats(0.0, exclude_min=True, allow_infinity=False),
    "epochs_initial": st.integers(0, 10**12),
    "epochs_incremental": st.integers(0, 10**12),
}
_KIND_VALUES = {
    "int": st.integers(-(10**12), 10**12),
    "float": _FLOATS,
    "bool": st.booleans(),
    "float | None": st.none() | _FLOATS,
    "int | None": st.none() | st.integers(-(10**12), 10**12),
}


@st.composite
def _experiment_configs(draw):
    values = {
        f.name: draw(_FIELD_VALUES[f.name] if f.name in _FIELD_VALUES else _KIND_VALUES[f.type])
        for f in dataclasses.fields(ExperimentConfig)
    }
    values["min_rounds"], values["max_rounds"] = sorted((values["min_rounds"], values["max_rounds"]))
    if values["policy"] == "threshold":
        values["tau"] = abs(values["tau"])
    return ExperimentConfig(**values)


def _config_line(key: str, value) -> str:
    if value is None:
        text = "none"
    elif isinstance(value, bool):
        text = str(value).lower()
    else:
        text = repr(value) if isinstance(value, float) else str(value)
    return f"{'lambda' if key == 'lambda_' else key} = {text}"


@settings(max_examples=150, deadline=None)
@given(cfg=_experiment_configs(), data=st.data())
def test_config_file_round_trip_is_identity(tmp_path_factory, cfg, data):
    lines = [_config_line(k, v) for k, v in dataclasses.asdict(cfg).items()]
    lines = data.draw(st.permutations(lines)) + ["# a comment", ""]
    path = tmp_path_factory.mktemp("cfg") / "exp.cfg"
    path.write_text("\n".join(lines) + "\n")
    assert ExperimentConfig.from_sources(parse_config_file(path)) == cfg


_BAD_VALUES = {
    "int": ["abc", "1.5", "none", "", "1e3", "--2"],
    "float": ["abc", "none", "", "1..2", "0,5"],
    "bool": ["abc", "none", "", "2", "truthy"],
}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_config_file_malformed_value_names_key_and_line(tmp_path_factory, data):
    fields = [f for f in dataclasses.fields(ExperimentConfig) if f.type in _BAD_VALUES]
    field = data.draw(st.sampled_from(fields))
    bad = data.draw(st.sampled_from(_BAD_VALUES[field.type]))
    before = data.draw(st.lists(st.sampled_from(["# note", "", "seed = 4", "alpha = 0.5"])))
    key = "lambda" if field.name == "lambda_" else field.name
    path = tmp_path_factory.mktemp("cfg") / "bad.cfg"
    path.write_text("\n".join([*before, f"{key} = {bad}  # bad", "trials = 2"]) + "\n")
    with pytest.raises(HarnessError) as info:
        parse_config_file(path)
    assert str(info.value).startswith(f"{path}:{len(before) + 1}: config key {field.name!r}: ")


def test_config_file_missing_is_a_harness_error(tmp_path):
    with pytest.raises(HarnessError, match="cannot read config"):
        parse_config_file(tmp_path / "missing.cfg")


def test_config_validates_topology_and_trials():
    with pytest.raises(HarnessError):
        ExperimentConfig(topology=0.6)
    with pytest.raises(HarnessError):
        ExperimentConfig(trials=0)


def test_config_hash_stable_and_sensitive():
    a = ExperimentConfig(seed=1)
    b = ExperimentConfig(seed=1)
    c = ExperimentConfig(seed=2)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    # timing changes no result, so it leaves the hash alone
    assert ExperimentConfig().config_hash() == "b52dde71bc054b75"
    assert ExperimentConfig(timing=True).config_hash() == "b52dde71bc054b75"


# ---------------------------------------------------------------------------
# episode JSON
# ---------------------------------------------------------------------------


def _fast_cfg(**kw):
    defaults = dict(
        n_tasks=3,
        trials=1,
        seed=5,
        epochs_initial=5,
        epochs_incremental=2,
        defense=True,
        attack="hallucination",
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_episode_json_roundtrip_and_schema(tmp_path):
    report, logs = run_experiment(_fast_cfg(), out_dir=tmp_path)
    files = sorted((tmp_path / "episodes").glob("*.json"))
    assert len(files) == 3
    for f in files:
        doc = json.loads(f.read_text())
        validate_episode_json(doc)
        log = episode_from_json(f.read_text())
        assert episode_to_json(log) == f.read_text()


def test_validate_rejects_malformed_docs():
    log = _log({1: 0}, {1: True})
    doc = json.loads(episode_to_json(log))
    validate_episode_json(doc)

    bad = json.loads(episode_to_json(log))
    del bad["api_calls"]
    with pytest.raises(HarnessError):
        validate_episode_json(bad)

    bad = json.loads(episode_to_json(log))
    bad["rounds"][0]["scores"] = [1.0]  # wrong arity
    with pytest.raises(HarnessError):
        validate_episode_json(bad)

    bad = json.loads(episode_to_json(log))
    bad["ground_truth"]["h"] = bad["ground_truth"]["h"][:-1]
    with pytest.raises(HarnessError):
        validate_episode_json(bad)


_EPISODE_TEXT = episode_to_json(_log({1: 0}, {1: True}))


def _episode_doc(**changes):
    """A valid episode document with the values at some paths replaced; a
    path joins keys and list indices with ``__``, as in ``rounds__0__agents``."""
    doc = json.loads(_EPISODE_TEXT)
    for path, value in changes.items():
        *parents, last = path.split("__")
        node = doc
        for key in parents:
            node = node[int(key)] if isinstance(node, list) else node[key]
        node[int(last) if isinstance(node, list) else last] = value
    return doc


_MALFORMED = {
    "round is a number": _episode_doc(rounds__0=5),
    "rounds is an object": _episode_doc(rounds={}),
    "agents is a number": _episode_doc(rounds__0__agents=3),
    "agent is a bool": _episode_doc(rounds__0__agents__0=True),
    "responses is a string": _episode_doc(rounds__0__responses="abcd"),
    "answer is a number": _episode_doc(rounds__0__answers__0=8),
    "edge is a number": _episode_doc(rounds__1__edges=[7]),
    "edge holds strings": _episode_doc(rounds__1__edges=[["0", "1"]]),
    "edge has three ends": _episode_doc(rounds__1__edges=[[0, 1, 2]]),
    "score is a string": _episode_doc(rounds__0__scores__0="0.1"),
    "score is a bool": _episode_doc(rounds__0__scores__0=False),
    "removed is not an agent": _episode_doc(rounds__0__removed=9),
    "label row is a number": _episode_doc(ground_truth__h__0=1),
    "label is a number": _episode_doc(ground_truth__err__0__0=0),
    "corrupted edge holds a string": _episode_doc(ground_truth__corrupted_edges=[[1, 0, 2, "1"]]),
    "corrupted edge names no edge": _episode_doc(ground_truth__corrupted_edges=[[9, 9, 9, 9]]),
    "corrupted edge runs backwards": _episode_doc(ground_truth__corrupted_edges=[[2, 0, 1, 5]]),
    "task is a list": _episode_doc(task=[]),
    "answer_space is a string": _episode_doc(task__answer_space="8|57"),
    "api_calls is a bool": _episode_doc(api_calls=True),
    "one candidate answer": _episode_doc(task__answer_space=["8"]),
    "correct answer not a candidate": _episode_doc(task__correct="9"),
    "top level is a list": [],
    "round numbered out of place": _episode_doc(rounds__1__t=5),
    "round number is a bool": _episode_doc(rounds__0__t=True),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_episode_from_json_rejects_malformed_docs(case):
    with pytest.raises(HarnessError, match="episode JSON invalid"):
        episode_from_json(json.dumps(_MALFORMED[case]))
    with pytest.raises(HarnessError, match="episode JSON invalid"):
        validate_episode_json(_MALFORMED[case])


@pytest.mark.parametrize(
    "text",
    ["", "{", "not json", "[" * 100_000, _EPISODE_TEXT[: len(_EPISODE_TEXT) // 2]],
    ids=["empty", "brace", "words", "nested too deep", "truncated file"],
)
def test_episode_from_json_rejects_text_that_is_not_json(text):
    with pytest.raises(HarnessError, match="episode JSON invalid"):
        episode_from_json(text)


# ---------------------------------------------------------------------------
# JSON text: the writers against the reference documents, and the round trip
# ---------------------------------------------------------------------------


_ANY_CHAR = st.characters(exclude_categories=())  # control characters and lone surrogates too
_WORDS = st.text(_ANY_CHAR, max_size=5)
_AGENT = st.integers(-2, 40)


@st.composite
def _episode_logs(draw, labelled: bool | None = None, nan: bool = False) -> EpisodeLog:
    """A log the episode reader accepts: rounds numbered 1, 2, ..., agents
    that only leave, in any order, and edges between two distinct agents of
    a round after the first, some of them marked corrupted in the ground
    truth. With ground truth when `labelled`, or drawn
    either way when it is None. Scores are floats, infinities and -0.0
    included, or ints (a score read from a file may be one); NaN only with `nan`."""
    answers = draw(st.lists(_WORDS, min_size=2, max_size=4, unique=True))
    task = Task(
        id=draw(_WORDS),
        question=draw(_WORDS),
        answer_space=tuple(answers),
        correct=draw(st.sampled_from(answers)),
    )
    scores = st.floats(allow_nan=nan) | st.integers(-(2**70), 2**70)
    rounds, h, err, comm = [], [], [], []
    agents = draw(st.lists(_AGENT, max_size=4, unique=True))
    for t in range(1, draw(st.integers(0, 3)) + 1):
        n = len(agents)
        words = st.lists(_WORDS, min_size=n, max_size=n)
        pairs = st.permutations(agents).map(lambda order: (order[0], order[1]))
        edges = draw(st.lists(pairs, max_size=4)) if t > 1 and n > 1 else []
        removed = draw(st.none() | st.sampled_from(agents)) if agents else None
        rounds.append(
            RoundRecord(
                t=t,
                agents=agents,
                responses=draw(words),
                answers=draw(words),
                edges=edges,
                removed=removed,
                scores=draw(st.none() | st.lists(scores, min_size=n, max_size=n)),
            )
        )
        h.append(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        err.append(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        comm += [(t - 1, src, t, dst) for src, dst in edges]
        agents = draw(st.permutations([a for a in agents if a != removed]))
    ground_truth = None
    if draw(st.booleans()) if labelled is None else labelled:
        corrupted = draw(st.lists(st.sampled_from(comm), max_size=3)) if comm else []
        ground_truth = GroundTruth(h, err, corrupted)
    return EpisodeLog(
        task=task,
        rounds=rounds,
        ground_truth=ground_truth,
        final_answer=draw(_WORDS),
        api_calls=draw(st.integers(0, 10**6)),
    )


def _edge_case_log() -> EpisodeLog:
    """Escapes, non-finite and int scores, negative ids, an empty edge list,
    a corrupted edge and agents listed out of order."""
    text = "caf\u00e9 \x00\x1f\u2028 \"quoted\" \\ \ud800"
    non_finite = [float("nan"), float("inf"), -float("inf")]
    rounds = [
        RoundRecord(1, [-2, 0, 7], [text, "", "b"], [text, "8", "8"], [], -2, non_finite),
        RoundRecord(2, [7, 0], ["x", "y"], ["8", text], [(0, 7), (7, 0)], None, [3, -0.0]),
        RoundRecord(3, [0, 7], ["x", "y"], ["8", "8"], [], 7, [1e-320, 1e300]),
    ]
    h = [[True, False, False], [False, True], [False, False]]
    err = [[False, False, False], [True, True], [True, False]]
    truth = GroundTruth(h, err, [(1, 0, 2, 7)])
    return EpisodeLog(Task(text, text, (text, "8"), "8"), rounds, truth, text, 7)


_SPARSE_LOGS = [
    _edge_case_log(),
    _episode([]),  # no rounds, no ground truth
    # the only agent leaves, and the next round is empty
    _episode([RoundRecord(1, [5], ["a"], ["8"], [], 5, [0.5]), RoundRecord(2, [], [], [], [])]),
]


@settings(max_examples=100, deadline=None)
@given(_episode_logs(nan=True))
def test_episode_json_is_json_dumps_of_the_reference_document(log):
    assert episode_to_json(log) == artifacts.json_text(artifacts.episode_doc(log))


@settings(max_examples=100, deadline=None)
@given(_episode_logs(nan=True))
def test_graph_exports_equal_the_reference_renderings(log):
    doc = artifacts.graph_doc(log)
    assert export_episode_graph(log, fmt="json") == artifacts.json_text(doc)
    assert export_episode_graph(log, fmt="dot") == artifacts.graph_dot(doc)


def _json_texts(log: EpisodeLog) -> list[str]:
    return [episode_to_json(log), export_episode_graph(log, fmt="json")]


@settings(max_examples=100, deadline=None)
@given(_episode_logs(nan=True))
def test_dumps_indent2_matches_stdlib(log):
    """Without the reference documents: each JSON artifact is what
    ``json.dumps(sort_keys=True, indent=2)`` writes of the document it holds."""
    for text in _json_texts(log):
        assert text == artifacts.json_text(json.loads(text))


def test_dumps_indent2_matches_stdlib_on_edge_cases():
    for log in _SPARSE_LOGS:
        episode, graph = _json_texts(log)
        assert episode == artifacts.json_text(artifacts.episode_doc(log))
        doc = artifacts.graph_doc(log)
        assert graph == artifacts.json_text(doc)
        assert export_episode_graph(log, fmt="dot") == artifacts.graph_dot(doc)


def _scored(score) -> EpisodeLog:
    """The edge-case log with `score` as the first score of its first round."""
    log = _edge_case_log()
    log.rounds[0].scores[0] = score
    return log


# a score json cannot write: no artifact either
@pytest.mark.parametrize(
    "score", [np.int64(3), np.bool_(True), {1, 2}, object()], ids=["numpy int", "numpy bool", "set", "object"]
)
def test_dumps_indent2_raises_what_stdlib_raises(score):
    log = _scored(score)
    for doc in (artifacts.episode_doc(log), artifacts.graph_doc(log)):
        with pytest.raises(TypeError):
            artifacts.json_text(doc)
    with pytest.raises(TypeError):
        episode_to_json(log)
    with pytest.raises(TypeError):
        export_episode_graph(log, fmt="json")


# json writes these, but a score is an exact int or a float
@pytest.mark.parametrize("score", [(1, 2), True], ids=["tuple", "int subclass"])
def test_dumps_indent2_rejects_what_is_not_an_exact_json_type(score):
    log = _scored(score)
    artifacts.json_text(artifacts.episode_doc(log))
    artifacts.json_text(artifacts.graph_doc(log))
    with pytest.raises(TypeError):
        episode_to_json(log)
    with pytest.raises(TypeError):
        export_episode_graph(log, fmt="json")


@settings(max_examples=60, deadline=None)
@given(_episode_logs())
def test_episode_json_round_trip_is_identity(log):
    text = episode_to_json(log)
    assert episode_from_json(text) == log
    assert episode_to_json(episode_from_json(text)) == text


def _rounds_text(*rounds) -> str:
    """Episode JSON of an unlabelled log whose rounds are (agents, edges,
    removed) triples; the writer takes any log."""
    records = [
        RoundRecord(t, agents, ["r"] * len(agents), ["8"] * len(agents), edges, removed)
        for t, (agents, edges, removed) in enumerate(rounds, start=1)
    ]
    return episode_to_json(_episode(records))


_LEAVE = "round 2 must list the agents of round 1 less the one it removed"
_EDGE = "each edge of round 2 must join two distinct agents"


@pytest.mark.parametrize(
    "rounds, message",
    [
        ([([0, 1], [], 0), ([0, 1], [(1, 0)], 0)], _LEAVE),
        ([([0, 1], [], None), ([1], [], None)], _LEAVE),
        ([([0, 0], [], None)], "round 1 lists an agent twice"),
        ([([0, 1], [(0, 1)], None)], "round 1 cannot have edges"),
        ([([0, 1], [], None), ([0, 1], [(9, 9)], None)], _EDGE),
        ([([0, 1], [], None), ([0, 1], [(1, 1)], None)], _EDGE),
    ],
    ids=[
        "agent back after its removal",
        "agent gone without a removal",
        "agent twice in a round",
        "edge in round 1",
        "edge between agents outside the round",
        "edge from an agent to itself",
    ],
)
def test_episode_reader_rejects_logs_that_break_the_graph_invariants(rounds, message):
    with pytest.raises(HarnessError, match=re.escape(f"episode JSON invalid: {message}")):
        episode_from_json(_rounds_text(*rounds))


# sha256 of what `_artifact_digests` writes, recorded before the indent-2
# writer replaced json.dumps. A change that alters any artifact byte fails here.
_PINNED_ARTIFACTS = {
    "simulate-hallucination": "97c08ea7507a8cc140a1b0681a4539538972d2ca13cca857ca16395d3e2732f9",
    "simulate-agent": "3c5d8bfd8fbc970147fdedcae3bcbcf7869e47ad76876d139802d52dae900054",
    "simulate-comm": "873ba8932505409cee52d9b6f475c160d5973b37dcd9fc42643f158323cd42f7",
    "defend-hallucination": "36e0b205855a472394ad1b07b37059269c15eb875df8d2e4d7fe374dd107da0c",
    "defend-agent": "91af88cc3b7028dde84068edc89fde552ffbb231a664a80da92d55bf494c08d1",
    "defend-comm": "f2bc7adc7928e9880a27145d24928d8f2259accdf63c928b9a4832a04ff31607",
    "graph.json": "0b221cc45b8d5d980c012d1e43e22f6e19a1aeb1e88053fff587f4e2f4d55692",
    "graph.dot": "26cf09c17d86c1a7f50dd326288ab2f0456780f9dd02d674d0fd5182b82c9103",
    # two trials: a fresh pipeline and fresh seeds per trial, and the trial01_ file names
    "defend-agent-trials2": "e51a9bc795e7eebca5aa4cf3783f8d2e6b41b444edb4173e9d05a82db6cced48",
}


def _artifact_digests(root) -> dict[str, str]:
    """One digest per `run_experiment` output directory (every file name and
    its bytes; the last run has two trials), and one per graph export of a
    defended comm-attack episode with a removal, scores and corrupted edges."""
    digests = {}

    def run(name, **kw):
        run_dir = root / name
        _, logs = run_experiment(_fast_cfg(n_tasks=4, min_rounds=2, **kw), out_dir=run_dir)
        h = hashlib.sha256()
        for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
            h.update(path.relative_to(run_dir).as_posix().encode() + b"\0")
            h.update(path.read_bytes() + b"\0")
        digests[name] = h.hexdigest()
        return logs

    for defense in (False, True):
        for attack in ("hallucination", "agent", "comm"):
            name = f"{'defend' if defense else 'simulate'}-{attack}"
            logs = run(name, defense=defense, attack=attack)
    log = logs[0]
    assert log.ground_truth.corrupted_edges and any(rec.removed is not None for rec in log.rounds)
    for fmt in ("json", "dot"):
        digests[f"graph.{fmt}"] = hashlib.sha256(export_episode_graph(log, fmt).encode()).hexdigest()
    run("defend-agent-trials2", attack="agent", trials=2)
    assert len(list((root / "defend-agent-trials2" / "episodes").glob("trial01_*.json"))) == 4
    return digests


def test_artifact_bytes_are_pinned(tmp_path):
    assert _artifact_digests(tmp_path) == _PINNED_ARTIFACTS


# sha256 of the checkpoint `guardian train --tasks 2 --seed 3` writes,
# recorded while the parameter store was still laid out in name order: the
# records stay in name order whatever the layout.
_PINNED_CHECKPOINT = "1b5d7d615581073feaa775b73b58adec9cf8d2182c326a4bdf36c1386fa74ccd"


def test_checkpoint_bytes_are_pinned(tmp_path, capsys):
    assert main(["train", "--tasks", "2", "--seed", "3", "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "guardian.ckpt").read_bytes()).hexdigest()
    assert digest == _PINNED_CHECKPOINT


def test_run_experiment_clean_accuracy_one(tmp_path):
    cfg = _fast_cfg(attack="none", defense=False)
    report, logs = run_experiment(cfg)
    assert report.accuracy == 1.0
    assert all(len(log.rounds) == 1 for log in logs)
    assert report.api_calls_mean == 4.0


def test_run_experiment_byte_identical(tmp_path):
    cfg_args = dict(attack="agent", seed=11)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    run_experiment(_fast_cfg(**cfg_args), out_dir=dir_a)
    run_experiment(_fast_cfg(**cfg_args), out_dir=dir_b)
    files_a = sorted(p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (dir_a / rel).read_bytes() == (dir_b / rel).read_bytes(), rel


def test_metrics_csv_format():
    cfg = _fast_cfg()
    report, _ = run_experiment(cfg)
    csv = metrics_csv(cfg, report)
    lines = csv.strip().split("\n")
    assert lines[0] == "config_hash,trials,accuracy,detection_rate,fdr,api_calls_mean,runtime_seconds"
    cells = lines[1].split(",")
    assert cells[0] == cfg.config_hash()
    assert cells[1] == "1"
    assert cells[6] == "0.000000"  # timing off -> deterministic zero


def test_run_trials_matches_build_pipeline_episodes():
    # A defended stream is one pipeline per trial, begun before each task's episode.
    cfg = _fast_cfg(n_tasks=2, min_rounds=2, attack="agent")
    logs, state = run_trials(cfg)
    trial_seed = derive_seed(cfg.seed, "trial", 0)
    manual = build_pipeline(cfg, trial_seed)
    plan = AttackPlan(kind=cfg.attack, seed=derive_seed(trial_seed, "attack"))
    specs = [AgentSpec(id=i) for i in range(cfg.n_agents)]
    expected = []
    for task in make_corpus(cfg.n_tasks, cfg.seed):
        manual.begin_episode()
        expected.append(
            run_episode(
                task,
                specs,
                cfg.topology,
                plan,
                pipeline=manual,
                max_rounds=cfg.max_rounds,
                min_rounds=cfg.min_rounds,
                seed=derive_seed(trial_seed, "episode", task.id),
            )
        )
    assert len(logs) == 2 and logs == expected
    assert state.decisions == manual.decisions
    for name, value in state.params.entries():
        assert np.array_equal(value, manual.params.value(name)), name


@settings(max_examples=10, deadline=None)
@given(index=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_a_carry_off_episode_is_addressed_by_its_index(index, seed):
    # a carry-off episode depends only on the config, the trial seed and its index
    cfg = _fast_cfg(seed=seed, carry_params=False)
    logs, state = run_trials(cfg)
    trial_seed = derive_seed(cfg.seed, "trial", 0)
    task = make_corpus(cfg.n_tasks, cfg.seed)[index]
    manual = build_pipeline(cfg, trial_seed)
    manual.begin_episode(index)
    log = run_episode(
        task,
        [AgentSpec(id=i) for i in range(cfg.n_agents)],
        cfg.topology,
        AttackPlan(kind=cfg.attack, seed=derive_seed(trial_seed, "attack")),
        pipeline=manual,
        max_rounds=cfg.max_rounds,
        min_rounds=cfg.min_rounds,
        seed=derive_seed(trial_seed, "episode", task.id),
    )
    assert log == logs[index]
    start = sum(len(earlier.rounds) for earlier in logs[:index])
    assert manual.decisions == state.decisions[start : start + len(log.rounds)]


def test_trials_multiply_episodes():
    report, logs = run_experiment(_fast_cfg(trials=2, attack="none", defense=False))
    assert len(logs) == 6


# ---------------------------------------------------------------------------
# graph export
# ---------------------------------------------------------------------------

_DOT_EDGE = re.compile(r'^\s*"r\d+_a\d+" -> "r\d+_a\d+"( \[[^\]]*\])?;$')
_DOT_NODE = re.compile(r'^\s*"r\d+_a\d+" \[[^\]]*\];$')


def _assert_dot_wellformed(text: str) -> None:
    lines = text.strip().split("\n")
    assert lines[0] == "digraph guardian {"
    assert lines[-1] == "}"
    depth = 0
    for line in lines:
        depth += line.count("{") - line.count("}")
        assert depth >= 0
        stripped = line.strip()
        if "->" in stripped:
            assert _DOT_EDGE.match(line), line
        elif stripped.startswith('"'):
            assert _DOT_NODE.match(line), line
    assert depth == 0


def _round(t, edges, scores=None):
    return RoundRecord(
        t=t, agents=[0, 1], responses=["a", "b"], answers=["8", "8"], edges=edges, scores=scores
    )


def test_export_empty_graph():
    doc = json.loads(export_episode_graph(_episode([]), fmt="json"))
    assert doc == {"nodes": [], "edges": []}
    _assert_dot_wellformed(export_episode_graph(_episode([]), fmt="dot"))


def test_export_two_rounds_two_agents_counts():
    # 2 rounds x 2 agents, full topology: 4 node records; 2 communication
    # edges plus 2 per-agent continuity edges = 4 edge records.
    log = _episode([_round(1, []), _round(2, [(0, 1), (1, 0)], scores=[0.25, 0.75])])
    doc = json.loads(export_episode_graph(log, fmt="json"))
    assert len(doc["nodes"]) == 4
    assert len(doc["edges"]) == 4
    kinds = sorted(e["kind"] for e in doc["edges"])
    assert kinds == ["comm", "comm", "continuity", "continuity"]
    assert all(e["dst_round"] == e["src_round"] + 1 for e in doc["edges"])
    scored = [n for n in doc["nodes"] if n["score"] is not None]
    assert scored == [
        {"round": 2, "agent": 0, "score": 0.25, "removed": False},
        {"round": 2, "agent": 1, "score": 0.75, "removed": False},
    ]
    _assert_dot_wellformed(export_episode_graph(log, fmt="dot"))


def test_export_episode_graph_marks_corruption_and_removal(tmp_path):
    cfg = _fast_cfg(attack="comm", min_rounds=3, n_tasks=2)
    _, logs = run_experiment(cfg)
    log = logs[0]
    doc = json.loads(export_episode_graph(log, fmt="json"))
    corrupted = [e for e in doc["edges"] if e["corrupted"]]
    assert corrupted, "communication attack must mark corrupted edges"
    assert all(e["kind"] == "comm" for e in corrupted)
    removed_nodes = [n for n in doc["nodes"] if n["removed"]]
    removed_rounds = [rec.t for rec in log.rounds if rec.removed is not None]
    assert len(removed_nodes) == len(removed_rounds)
    _assert_dot_wellformed(export_episode_graph(log, fmt="dot"))


_DOT_CLUSTER = re.compile(r"^  subgraph cluster_round_(-?\d+) \{$")
_DOT_NODE_ID = re.compile(r'^    "r(-?\d+)_a(-?\d+)" \[(.*)\];$')


@settings(max_examples=60, deadline=None)
@given(_episode_logs())
def test_export_dot_clusters_each_round_once_in_order_and_marks_exactly_the_removals(log):
    clusters, nodes, marked = [], [], set()
    for line in export_episode_graph(log, fmt="dot").split("\n"):
        if cluster := _DOT_CLUSTER.match(line):
            clusters.append(int(cluster[1]))
        elif node := _DOT_NODE_ID.match(line):
            t, agent = int(node[1]), int(node[2])
            assert t == clusters[-1]
            nodes.append((t, agent))
            if "style=dashed" in node[3]:
                marked.add((t, agent))
    assert clusters == [rec.t for rec in log.rounds if rec.agents]
    assert nodes == [(rec.t, agent) for rec in log.rounds for agent in rec.agents]
    assert marked == {(rec.t, rec.removed) for rec in log.rounds if rec.removed is not None}
    doc = json.loads(export_episode_graph(log, fmt="json"))
    assert [(n["round"], n["agent"]) for n in doc["nodes"]] == nodes
    assert {(n["round"], n["agent"]) for n in doc["nodes"] if n["removed"]} == marked


def test_export_marks_every_round_that_removes_the_agent():
    first, second = _round(1, []), _round(2, [(0, 1)])
    first.removed = second.removed = 0
    doc = json.loads(export_episode_graph(_episode([first, second]), fmt="json"))
    assert [(n["round"], n["agent"]) for n in doc["nodes"] if n["removed"]] == [(1, 0), (2, 0)]


def test_export_rejects_unknown_format():
    with pytest.raises(HarnessError, match="svg"):
        export_episode_graph(_episode([]), fmt="svg")
