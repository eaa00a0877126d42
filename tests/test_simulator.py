from __future__ import annotations

import dataclasses
import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guardian.anomaly import AnomalyScore, DetectionPolicy
from guardian.detector import DetectorConfig, compose_losses
from guardian.embedder import EmbeddingConfig, make_embedder
from guardian.pipeline import Decision, PipelineState
from guardian.simulator import (
    AgentSpec,
    AttackPlan,
    COMM_ATTACK_ROUND,
    NO_CONSENSUS,
    RemoteAgentConfig,
    RemoteAgentError,
    SimulatorError,
    Task,
    apply_attack,
    check_consensus,
    parse_answer,
    render_response,
    run_episode,
)
from guardian.seeding import derive_rng

TASK = Task(id="t0", question="What is 3 plus 5?", answer_space=("8", "15", "21", "4"), correct="8")
TWO_ANSWERS = Task(id="t1", question="pick", answer_space=("A", "B"), correct="A")


def _specs(n, **kw):
    return [AgentSpec(id=i, **kw) for i in range(n)]


def _victim(plan, task, n):
    """The agent that `run_episode` attacks under `plan` among agents 0..n-1."""
    return apply_attack(plan, task, list(range(n)), derive_rng(plan.seed, "attack", task.id)).victim


def test_task_validation():
    with pytest.raises(SimulatorError):
        Task(id="bad", question="q", answer_space=("only",), correct="only")
    with pytest.raises(SimulatorError):
        Task(id="bad", question="q", answer_space=("a", "b"), correct="c")


def test_attack_plan_validation():
    with pytest.raises(SimulatorError):
        AttackPlan(kind="meteor")
    with pytest.raises(TypeError):  # the victim is always drawn
        AttackPlan(kind="agent_targeted", target_agents=(0,))


def test_render_and_parse_roundtrip():
    spec = AgentSpec(id=0, role_prompt="careful solver")
    text = render_response("8", spec, 2)
    assert text == "Answer: 8. Reasoning: careful solver 2"
    assert parse_answer(text) == "8"
    assert parse_answer("no structure here") == "no structure here"


def test_check_consensus():
    assert check_consensus(["8", "8", "8"]) == "8"
    assert check_consensus(["8", "9"]) is None
    assert check_consensus(["8"]) == "8"
    with pytest.raises(SimulatorError):
        check_consensus([])


def test_single_perfect_agent_answers_correctly():
    log = run_episode(TASK, _specs(1), 1.0, AttackPlan(), max_rounds=3, seed=0)
    assert log.final_answer == "8"
    assert len(log.rounds) == 1  # single agent reaches consensus immediately
    assert log.api_calls == 1


def test_clean_four_agents_consensus_round_one():
    log = run_episode(TASK, _specs(4), 1.0, AttackPlan(), max_rounds=3, seed=1)
    assert log.final_answer == "8"
    assert len(log.rounds) == 1
    assert log.api_calls == 4
    gt = log.ground_truth
    assert not any(any(row) for row in gt.h)
    assert not any(any(row) for row in gt.err)
    assert gt.corrupted_edges == []


def test_majority_adoption_untilted():
    # Three hold A, one holds B (an honest mistake, so no persuasion
    # weighting): next round everyone holds A.
    specs = _specs(3) + [AgentSpec(id=3, p_correct=0.0)]
    log = run_episode(TWO_ANSWERS, specs, 1.0, AttackPlan(), max_rounds=3, min_rounds=1, seed=5)
    assert log.rounds[0].answers == ["A", "A", "A", "B"]
    assert log.rounds[1].answers == ["A", "A", "A", "A"]
    assert log.final_answer == "A"


def test_agent_targeted_err_counts_1_4_4():
    # Adversary holds one agent; with persuasion weight n=4 its answer
    # out-votes the two honest messages each other agent sees, so the
    # infection is total by round 2 and absorbing afterwards.
    plan = AttackPlan(kind="agent_targeted", seed=3)
    victim = _victim(plan, TASK, 4)
    log = run_episode(TASK, _specs(4), 1.0, plan, max_rounds=3, min_rounds=3, seed=7)
    err_counts = [sum(row) for row in log.ground_truth.err]
    assert err_counts == [1, 4, 4] and log.ground_truth.err[0][victim]
    h_counts = [sum(row) for row in log.ground_truth.h]
    assert h_counts == [0, 0, 0]
    assert log.final_answer != TASK.correct


def test_hallucination_source_and_adopters_labeled():
    plan = AttackPlan(kind="hallucination", seed=4)
    victim = _victim(plan, TASK, 4)
    log = run_episode(TASK, _specs(4), 1.0, plan, max_rounds=3, min_rounds=3, seed=8)
    h = log.ground_truth.h
    assert sum(h[0]) == 1 and h[0][victim]  # only the seeded agent at round 1
    counts = [sum(row) for row in h]
    assert counts == sorted(counts)  # nondecreasing
    assert counts[-1] == 4
    assert [sum(r) for r in log.ground_truth.err] == [0, 0, 0]


def test_comm_attack_corrupts_exactly_victims_inedges():
    plan = AttackPlan(kind="comm_targeted", seed=5)
    victim = _victim(plan, TASK, 4)
    log = run_episode(TASK, _specs(4), 1.0, plan, max_rounds=3, min_rounds=3, seed=9)
    edges = log.ground_truth.corrupted_edges
    assert len(edges) == 3  # full topology: all three in-edges of the victim
    for src_round, src, dst_round, dst in edges:
        assert (src_round, dst_round, dst) == (1, 2, victim)
        assert src != victim
    err = log.ground_truth.err
    assert sum(err[0]) == 0  # nothing anomalous before the perturbation
    assert err[1][victim]  # victim adopts the substituted answer at round 2


def test_attack_none_ground_truth_all_false():
    log = run_episode(TASK, _specs(4), 1.0, AttackPlan(kind="none"), max_rounds=3, seed=2)
    assert not any(any(r) for r in log.ground_truth.h)
    assert not any(any(r) for r in log.ground_truth.err)


def test_attack_victim_is_drawn_from_the_active_agents():
    agents = [1, 4, 6]
    for kind in ("hallucination", "agent_targeted", "comm_targeted"):
        victims = {
            apply_attack(AttackPlan(kind=kind), TASK, agents, derive_rng(seed)).victim
            for seed in range(40)
        }
        assert victims == set(agents), kind
    assert apply_attack(AttackPlan(), TASK, agents, derive_rng(0)).victim is None


def test_sparse_topology_visibility():
    # 25% sparsity: each agent has exactly one in-edge per round.
    plan = AttackPlan(kind="none")
    log = run_episode(
        TASK, _specs(4, p_correct=0.5), 0.25, plan, max_rounds=3, min_rounds=3, seed=11
    )
    for rec in log.rounds[1:]:
        in_degree = {a: 0 for a in rec.agents}
        for _, dst in rec.edges:
            in_degree[dst] += 1
        assert all(v == 1 for v in in_degree.values())


def test_visibility_non_neighbor_perturbation_is_invisible():
    # Under 25% sparsity agent 0 hears exactly one peer. Forcing some
    # non-neighbor to answer differently must not change what agent 0 does.
    base = run_episode(
        TASK, _specs(4), 0.25, AttackPlan(), max_rounds=2, min_rounds=2, seed=13
    )
    src_of_0 = [src for src, dst in base.rounds[1].edges if dst == 0]
    non_neighbors = [a for a in (1, 2, 3) if a not in src_of_0]
    flipped = non_neighbors[0]
    specs = [AgentSpec(id=i) if i != flipped else AgentSpec(id=i, p_correct=0.0) for i in range(4)]
    perturbed = run_episode(
        TASK, specs, 0.25, AttackPlan(), max_rounds=2, min_rounds=2, seed=13
    )
    assert perturbed.rounds[0].answers[flipped] != base.rounds[0].answers[flipped]
    idx = base.rounds[1].agents.index(0)
    assert perturbed.rounds[1].answers[idx] == base.rounds[1].answers[idx]
    assert perturbed.rounds[1].responses[idx] == base.rounds[1].responses[idx]


def test_propagation_monotone_undefended():
    # No defense: tainted agents never re-decide, so per-round label sums
    # cannot decrease, whatever the follow/correct probabilities are.
    for kind in ("hallucination", "agent_targeted", "comm_targeted"):
        for seed in range(40):
            plan = AttackPlan(kind=kind, seed=seed)
            log = run_episode(
                TASK,
                _specs(4, p_correct=0.8, p_follow=0.7),
                0.5,
                plan,
                max_rounds=4,
                min_rounds=4,
                seed=seed,
            )
            for series in (log.ground_truth.h, log.ground_truth.err):
                counts = [sum(row) for row in series]
                assert counts == sorted(counts), (kind, seed, counts)


def test_api_calls_equal_total_invocations():
    log = run_episode(
        TASK, _specs(4, p_correct=0.5), 1.0, AttackPlan(), max_rounds=3, min_rounds=3, seed=17
    )
    assert log.api_calls == sum(len(rec.agents) for rec in log.rounds)


class _StubPipeline:
    """Duck-typed defense that prunes a fixed agent after round 1."""

    def __init__(self, victim):
        self.victim = victim

    def ingest_round(self, responses, topology, consensus_reached):
        agents = [a for a, _ in responses]
        round_ = 1 if len(agents) == 4 else 2  # only used for bookkeeping
        scores = [AnomalyScore(agent=a, value=float(a == self.victim)) for a in agents]
        removed = self.victim if self.victim in agents and len(agents) == 4 else None
        return Decision(
            round=round_,
            removed=removed,
            scores=scores,
            losses=compose_losses(0.0, 0.0, 0.0, 0.4, 0.0),
        )


def test_defended_api_call_counting():
    # Prune one of four agents after round 1 with three forced rounds:
    # n + 2*(n-1) = 10 calls.
    log = run_episode(
        TASK,
        _specs(4),
        1.0,
        AttackPlan(),
        pipeline=_StubPipeline(victim=2),
        max_rounds=3,
        min_rounds=3,
        seed=19,
    )
    assert log.api_calls == 4 + 2 * 3
    assert log.rounds[0].removed == 2
    assert log.rounds[1].agents == [0, 1, 3]


def test_fixed_seed_episodes_identical():
    plan = AttackPlan(kind="hallucination", seed=23)
    kw = dict(max_rounds=3, min_rounds=3, seed=23)
    a = run_episode(TASK, _specs(4, p_correct=0.6, p_follow=0.5), 0.5, plan, **kw)
    b = run_episode(TASK, _specs(4, p_correct=0.6, p_follow=0.5), 0.5, plan, **kw)
    assert a == b


def test_all_agents_pruned_yields_no_consensus():
    class _PruneAll:
        def ingest_round(self, responses, topology, consensus_reached):
            agents = [a for a, _ in responses]
            return Decision(
                round=0,
                removed=agents[0],
                scores=[AnomalyScore(agent=a, value=0.0) for a in agents],
                losses=compose_losses(0.0, 0.0, 0.0, 0.4, 0.0),
            )

    log = run_episode(
        TWO_ANSWERS,
        _specs(1),
        1.0,
        AttackPlan(),
        pipeline=_PruneAll(),
        max_rounds=3,
        min_rounds=3,
        seed=29,
    )
    assert log.final_answer == NO_CONSENSUS


# ---------------------------------------------------------------------------
# properties over random debates
# ---------------------------------------------------------------------------

_DEBATES = st.fixed_dictionaries(
    {
        "n_agents": st.integers(1, 8),
        "fraction": st.sampled_from([0.25, 0.5, 0.75, 1.0]),
        "kind": st.sampled_from(["none", "hallucination", "agent_targeted", "comm_targeted"]),
        "p_correct": st.floats(0.0, 1.0),
        "p_follow": st.floats(0.0, 1.0),
        "max_rounds": st.integers(1, 4),
        "persuasion": st.none() | st.floats(0.0, 16.0),
        "attack_seed": st.integers(0, 2**32),
        "seed": st.integers(0, 2**32),
    }
)


_PICKS = st.lists(st.none() | st.integers(0, 7), max_size=4)


def _debate(d, pipeline=None):
    """Run the episode that a `_DEBATES` draw describes, all rounds forced."""
    return run_episode(
        TASK,
        _specs(d["n_agents"], p_correct=d["p_correct"], p_follow=d["p_follow"]),
        d["fraction"],
        AttackPlan(kind=d["kind"], seed=d["attack_seed"], persuasion=d["persuasion"]),
        pipeline=pipeline,
        max_rounds=d["max_rounds"],
        min_rounds=d["max_rounds"],
        seed=d["seed"],
    )


class _PickPruner:
    """Duck-typed defense that removes, each round, the active agent at the
    next of `picks` (modulo the active count), or nobody for None."""

    def __init__(self, picks):
        self.picks = iter(picks)

    def ingest_round(self, responses, topology, consensus_reached):
        agents = [a for a, _ in responses]
        pick = next(self.picks, None)
        return Decision(
            round=0,
            removed=None if pick is None else agents[pick % len(agents)],
            scores=[AnomalyScore(agent=a, value=0.0) for a in agents],
            losses=compose_losses(0.0, 0.0, 0.0, 0.4, 0.0),
        )


@settings(max_examples=60, deadline=None)
@given(_DEBATES, _PICKS)
def test_api_calls_count_every_active_agent_and_removed_agents_stay_silent(d, picks):
    log = _debate(d, _PickPruner(picks))
    assert log.api_calls == sum(len(rec.agents) for rec in log.rounds)
    gone: set[int] = set()
    for rec in log.rounds:
        assert len(rec.responses) == len(rec.answers) == len(rec.agents)
        assert gone.isdisjoint(rec.agents)
        if rec.removed is not None:
            gone.add(rec.removed)


@settings(max_examples=60, deadline=None)
@given(_DEBATES)
def test_undefended_label_counts_never_decrease(d):
    log = _debate(d)
    for series in (log.ground_truth.h, log.ground_truth.err):
        counts = [sum(row) for row in series]
        assert counts == sorted(counts), counts


def _rounds_seen(log):
    """Per round: its record, and each agent's answer and label (h, err or None)."""
    gt = log.ground_truth
    for rec, h, err in zip(log.rounds, gt.h, gt.err):
        labels = ["h" if is_h else "err" if is_err else None for is_h, is_err in zip(h, err)]
        yield rec, dict(zip(rec.agents, rec.answers)), dict(zip(rec.agents, labels))


def _debate_victim(d):
    return _victim(AttackPlan(kind=d["kind"], seed=d["attack_seed"]), TASK, d["n_agents"])


@settings(max_examples=60, deadline=None)
@given(_DEBATES, _PICKS)
def test_an_agent_gains_a_label_only_as_victim_or_from_a_labelled_in_neighbour(d, picks):
    log, victim = _debate(d, _PickPruner(picks)), _debate_victim(d)
    answers_before, labels_before = {}, {}
    for rec, answers, labels in _rounds_seen(log):
        for agent, label in labels.items():
            if label is None or label == labels_before.get(agent) or agent == victim:
                continue
            # the adopted answer arrived from an in-neighbour that carried this label
            assert any(
                dst == agent and labels_before[src] == label and answers_before[src] == answers[agent]
                for src, dst in rec.edges
            ), (rec.t, agent)
        answers_before, labels_before = answers, labels


@settings(max_examples=60, deadline=None)
@given(_DEBATES, _PICKS)
def test_corrupted_edges_are_the_comm_victims_round_2_in_edges(d, picks):
    log, victim = _debate(d, _PickPruner(picks)), _debate_victim(d)
    expected = []
    if d["kind"] == "comm_targeted" and len(log.rounds) >= COMM_ATTACK_ROUND:
        rec = log.rounds[COMM_ATTACK_ROUND - 1]
        expected = [
            (COMM_ATTACK_ROUND - 1, src, COMM_ATTACK_ROUND, dst) for src, dst in rec.edges if dst == victim
        ]
    assert log.ground_truth.corrupted_edges == expected


@settings(max_examples=60, deadline=None)
@given(_DEBATES, _PICKS)
def test_a_tainted_agent_keeps_answer_and_label_while_a_taint_source_is_active(d, picks):
    log, victim = _debate(d, _PickPruner(picks)), _debate_victim(d)
    sources: dict[int, set[int]] = {}  # agent -> the agents its current taint came from
    answers_before, labels_before = {}, {}
    for rec, answers, labels in _rounds_seen(log):
        for agent in rec.agents:
            if not sources.get(agent, set()).isdisjoint(rec.agents):
                assert answers[agent] == answers_before[agent], (rec.t, agent)
                assert labels[agent] == labels_before[agent], (rec.t, agent)
            elif labels[agent] is None:
                sources.pop(agent, None)
            elif (answers[agent], labels[agent]) != (answers_before.get(agent), labels_before.get(agent)):
                # A new taint. A released agent that catches the same one again
                # looks unchanged; its old sources are gone for good, so it is
                # only checked less, never wrongly.
                if agent == victim and d["kind"] != "comm_targeted":
                    sources[agent] = {agent}
                else:
                    corrupted = agent == victim and rec.t == COMM_ATTACK_ROUND
                    sources[agent] = {
                        src
                        for src, dst in rec.edges
                        if dst == agent
                        and (
                            corrupted
                            or labels_before[src] is not None and answers_before[src] == answers[agent]
                        )
                    }
        answers_before, labels_before = answers, labels


_SMALL_DETECTOR = DetectorConfig(k=8, d=4, epochs_initial=1, epochs_incremental=1)
_NEVER_REMOVE = DetectionPolicy(mode="threshold", tau=1e9)


@settings(max_examples=25, deadline=None)
@given(_DEBATES)
def test_a_defense_that_removes_nobody_changes_nothing_but_the_scores(d):
    state = PipelineState(
        _SMALL_DETECTOR, _NEVER_REMOVE, make_embedder(EmbeddingConfig(dim=_SMALL_DETECTOR.k))
    )
    state.begin_episode()
    defended, undefended = _debate(d, state), _debate(d)
    for rec in defended.rounds:
        assert len(rec.scores) == len(rec.agents) and max(rec.scores) < _NEVER_REMOVE.tau
        assert rec.removed is None
    stripped = [dataclasses.replace(rec, scores=None) for rec in defended.rounds]
    assert dataclasses.replace(defended, rounds=stripped) == undefended


# ---------------------------------------------------------------------------
# remote agents
# ---------------------------------------------------------------------------


class _RemoteHandler(BaseHTTPRequestHandler):
    fail = False
    seen: list[dict] = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        _RemoteHandler.seen.append(
            {"body": body, "auth": self.headers.get("Authorization")}
        )
        if _RemoteHandler.fail:
            self.send_response(500)
            self.end_headers()
            return
        reply = {"response": f"Answer: 8. Reasoning: remote agent round {body['round']}"}
        payload = json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def remote_server():
    _RemoteHandler.fail = False
    _RemoteHandler.seen = []
    server = HTTPServer(("127.0.0.1", 0), _RemoteHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/agent"
    server.shutdown()


def test_remote_agent_protocol(remote_server):
    remote = RemoteAgentConfig(url=remote_server, token="sekrit")
    log = run_episode(
        TASK, _specs(3), 1.0, AttackPlan(), max_rounds=2, min_rounds=2, seed=31, remote=remote
    )
    assert log.final_answer == "8"
    assert log.ground_truth is None  # labels unavailable in remote mode
    seen = _RemoteHandler.seen
    # every agent is remote: one request per agent per round
    assert [(r["body"]["round"], r["body"]["agent_id"]) for r in seen] == [
        (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)
    ]
    assert log.api_calls == len(seen)
    for request in seen:
        assert request["auth"] == "Bearer sekrit"
        assert set(request["body"]) == {"agent_id", "round", "prompt", "question", "context"}
        assert request["body"]["question"] == TASK.question
    assert [r["body"]["context"] for r in seen[:3]] == [[], [], []]
    assert all(len(r["body"]["context"]) == 2 for r in seen[3:])  # full topology


def test_remote_agent_failure_aborts_episode(remote_server):
    _RemoteHandler.fail = True
    remote = RemoteAgentConfig(url=remote_server)
    with pytest.raises(RemoteAgentError):
        run_episode(TASK, _specs(2), 1.0, AttackPlan(), max_rounds=2, seed=31, remote=remote)


def test_remote_config_from_env(monkeypatch):
    monkeypatch.delenv("GUARDIAN_REMOTE_AGENT_URL", raising=False)
    assert RemoteAgentConfig.from_env() is None
    monkeypatch.setenv("GUARDIAN_REMOTE_AGENT_URL", "http://example/agent")
    monkeypatch.setenv("GUARDIAN_REMOTE_AGENT_TOKEN", "tok")
    cfg = RemoteAgentConfig.from_env()
    assert cfg.url == "http://example/agent"
    assert cfg.token == "tok"
