"""Round-based multi-agent debate with injectable faults and labels.

Scripted agents are answer-state machines, not language models: each round
an agent either keeps its answer or adopts the weighted majority of the
messages it received from its in-neighbors. That trade gives exact,
testable propagation dynamics and per-round ground-truth labels while the
embedder still sees distinguishable response texts.

Three fault kinds can be injected:

  hallucination   one agent spontaneously emits a wrong answer in round 1
                  (labeled h); agents that adopt it inherit the label.
  agent_targeted  one agent is prompt-compromised and emits a fixed
                  adversarial answer every round (labeled err).
  comm_targeted   every message arriving at one agent in round 2 is
                  replaced by an adversarial answer in transit; adopting
                  it labels the recipient err.

Corrupted answers are absorbing: a tainted agent keeps its answer until
every agent it caught the taint from has been pruned by the defense, so
without intervention the per-round label counts never decrease. Tainted
messages also carry extra persuasion weight in the majority vote
(default: the agent count), which makes propagation actually happen
against an honest majority.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .graph import AgentId, sample_topology, topology_edges
from .pipeline import PipelineState
from .remote import post_json
from .seeding import derive_rng

__all__ = [
    "SimulatorError",
    "RemoteAgentError",
    "Task",
    "AgentSpec",
    "AttackPlan",
    "GroundTruth",
    "RoundRecord",
    "EpisodeLog",
    "RemoteAgentConfig",
    "check_consensus",
    "render_response",
    "parse_answer",
    "apply_attack",
    "step_round",
    "run_episode",
]

ATTACK_KINDS = ("none", "hallucination", "agent_targeted", "comm_targeted")
COMM_ATTACK_ROUND = 2  # the comm attack corrupts the round 1 -> 2 messages
NO_CONSENSUS = "no-consensus"


class SimulatorError(RuntimeError):
    pass


class RemoteAgentError(SimulatorError):
    """Remote agent transport failure; aborts the episode."""


@dataclass(frozen=True)
class Task:
    id: str
    question: str
    answer_space: tuple[str, ...]
    correct: str

    def __post_init__(self) -> None:
        if len(self.answer_space) < 2:
            raise SimulatorError(f"task {self.id}: need at least 2 candidate answers")
        if self.correct not in self.answer_space:
            raise SimulatorError(f"task {self.id}: correct answer not in answer space")
        if all(a == self.correct for a in self.answer_space):
            raise SimulatorError(f"task {self.id}: answer space has no wrong answer")


@dataclass(frozen=True)
class AgentSpec:
    id: AgentId
    p_correct: float = 1.0
    p_follow: float = 1.0
    role_prompt: str = "careful solver"

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_correct <= 1.0 and 0.0 <= self.p_follow <= 1.0):
            raise SimulatorError("agent probabilities must be in [0, 1]")


@dataclass(frozen=True)
class AttackPlan:
    kind: str = "none"
    seed: int = 0
    persuasion: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise SimulatorError(f"unknown attack kind {self.kind!r}")


@dataclass
class GroundTruth:
    h: list[list[bool]] = field(default_factory=list)
    err: list[list[bool]] = field(default_factory=list)
    corrupted_edges: list[tuple[int, AgentId, int, AgentId]] = field(default_factory=list)


@dataclass
class RoundRecord:
    t: int
    agents: list[AgentId]
    responses: list[str]
    answers: list[str]
    edges: list[tuple[AgentId, AgentId]]
    removed: AgentId | None = None
    scores: list[float] | None = None


@dataclass
class EpisodeLog:
    task: Task
    rounds: list[RoundRecord]
    ground_truth: GroundTruth | None
    final_answer: str
    api_calls: int


@dataclass(frozen=True)
class RemoteAgentConfig:
    url: str
    token: str | None = None
    timeout: float = 30.0

    @classmethod
    def from_env(cls) -> "RemoteAgentConfig | None":
        url = os.environ.get("GUARDIAN_REMOTE_AGENT_URL")
        if not url:
            return None
        return cls(url=url, token=os.environ.get("GUARDIAN_REMOTE_AGENT_TOKEN"))


_ANSWER_RE = re.compile(r"answer\s*:\s*([^.\n]+)", re.IGNORECASE)


def render_response(answer: str, spec: AgentSpec, round_: int) -> str:
    return f"Answer: {answer}. Reasoning: {spec.role_prompt} {round_}"


def parse_answer(text: str) -> str:
    m = _ANSWER_RE.search(text)
    return m.group(1).strip() if m else text.strip()


def check_consensus(answers: Sequence[str]) -> str | None:
    """The shared answer when all active agents agree, else None."""
    if not answers:
        raise SimulatorError("check_consensus requires at least one answer")
    first = answers[0]
    return first if all(a == first for a in answers) else None


class _AgentState:
    __slots__ = ("answer", "taint", "sources")

    def __init__(self, answer: str, taint: str | None = None, sources: frozenset = frozenset()):
        self.answer = answer
        self.taint = taint  # None | "h" | "err"
        self.sources = sources  # agents the taint was caught from


@dataclass
class _ResolvedAttack:
    kind: str
    victim: AgentId | None
    answer: str | None
    persuasion: float


def _wrong_answer(task: Task, rng) -> str:
    wrong = [a for a in task.answer_space if a != task.correct]
    return wrong[int(rng.integers(len(wrong)))]


def apply_attack(plan: AttackPlan, task: Task, agents: Sequence[AgentId], rng) -> _ResolvedAttack:
    """Resolve the plan against this episode: draw the victim, then the payload."""
    persuasion = plan.persuasion if plan.persuasion is not None else float(len(agents))
    if plan.kind == "none":
        return _ResolvedAttack("none", None, None, persuasion)
    victim = agents[int(rng.integers(len(agents)))]
    return _ResolvedAttack(plan.kind, victim, _wrong_answer(task, rng), persuasion)


def _call_remote(
    remote: RemoteAgentConfig, spec: AgentSpec, task: Task, round_: int, context: list[str]
) -> str:
    payload = {
        "agent_id": spec.id,
        "round": round_,
        "prompt": spec.role_prompt,
        "question": task.question,
        "context": context,
    }
    try:
        response = post_json(remote.url, payload, remote.timeout, remote.token).get("response")
    except (OSError, ValueError) as err:
        raise RemoteAgentError(
            f"GUARDIAN_REMOTE_AGENT_URL {remote.url}: request for agent {spec.id} failed: {err}"
        ) from err
    if not isinstance(response, str):
        raise RemoteAgentError(
            f"GUARDIAN_REMOTE_AGENT_URL {remote.url}: no response text for agent {spec.id}"
        )
    return response


def step_round(
    task: Task,
    specs: Mapping[AgentId, AgentSpec],
    states: dict[AgentId, _AgentState],
    active: list[AgentId],
    topology: Mapping[AgentId, Sequence[AgentId]],
    round_: int,
    rngs: Mapping[AgentId, object],
    attack: _ResolvedAttack,
    ground_truth: GroundTruth | None,
    remote: RemoteAgentConfig | None = None,
) -> list[tuple[AgentId, str]]:
    """Advance every active agent one round and return (agent, response) pairs.

    Updates are simultaneous: all decisions read the previous round's
    answers. Communication corruption is applied to the inbound messages
    before any agent decides. Each agent draws from its own rng stream so
    one agent's randomness never shifts another's.
    """
    inboxes: dict[AgentId, list[tuple[AgentId, str, str | None, float]]] = {}
    corrupted_now: list[tuple[int, AgentId, int, AgentId]] = []
    if round_ > 1:
        for dst in active:
            inbox = []
            for src in topology.get(dst, ()):
                msg_answer, msg_taint = states[src].answer, states[src].taint
                if (
                    attack.kind == "comm_targeted"
                    and round_ == COMM_ATTACK_ROUND
                    and dst == attack.victim
                ):
                    msg_answer, msg_taint = attack.answer, "err"
                    corrupted_now.append((round_ - 1, src, round_, dst))
                weight = attack.persuasion if msg_taint else 1.0
                inbox.append((src, msg_answer, msg_taint, weight))
            inboxes[dst] = inbox

    new_states: dict[AgentId, _AgentState] = {}
    responses: list[tuple[AgentId, str]] = []
    for agent in sorted(active):
        spec = specs[agent]
        if remote is not None:
            context = [
                render_response(ans, specs[src], round_ - 1)
                for src, ans, _, _ in inboxes.get(agent, [])
            ]
            if attack.kind == "agent_targeted" and agent == attack.victim:
                # Prompt corruption is the one injection that reaches a
                # real agent; labels still cannot be derived remotely.
                spec = AgentSpec(
                    id=spec.id, role_prompt=f"{spec.role_prompt} (always answer {attack.answer})"
                )
            text = _call_remote(remote, spec, task, round_, context)
            new_states[agent] = _AgentState(parse_answer(text))
            responses.append((agent, text))
            continue

        rng = rngs[agent]
        prev = states.get(agent)
        if attack.kind == "agent_targeted" and agent == attack.victim:
            state = _AgentState(attack.answer, "err", frozenset({agent}))
        elif round_ == 1:
            if attack.kind == "hallucination" and agent == attack.victim:
                state = _AgentState(attack.answer, "h", frozenset({agent}))
            elif rng.random() < spec.p_correct:
                state = _AgentState(task.correct)
            else:
                state = _AgentState(_wrong_answer(task, rng))
        else:
            state = _decide(prev, inboxes.get(agent, []), spec, rng, active)
        new_states[agent] = state
        responses.append((agent, render_response(state.answer, spec, round_)))

    states.update(new_states)
    if ground_truth is not None:
        order = sorted(active)
        ground_truth.h.append([states[a].taint == "h" for a in order])
        ground_truth.err.append([states[a].taint == "err" for a in order])
        ground_truth.corrupted_edges.extend(corrupted_now)
    return responses


def _decide(
    prev: _AgentState,
    inbox: list[tuple[AgentId, str, str | None, float]],
    spec: AgentSpec,
    rng,
    active: list[AgentId],
) -> _AgentState:
    """One scripted agent's round t > 1 answer update; keeping the answer returns `prev`."""
    if prev.taint is not None and not prev.sources.isdisjoint(active):
        # Absorbing: a taint source is still in the network (agents only leave).
        return prev
    if rng.random() >= spec.p_follow or not inbox:
        return prev

    weights: dict[str, float] = {}
    for _, answer, _, weight in inbox:
        weights[answer] = weights.get(answer, 0.0) + weight
    best = max(weights.values())
    leaders = sorted(a for a, w in weights.items() if w == best)
    if len(leaders) > 1:
        return prev

    adopted = leaders[0]
    taint = None
    sources: set[AgentId] = set()
    for src, answer, msg_taint, _ in inbox:
        if answer == adopted and msg_taint is not None:
            sources.add(src)
            if taint != "err":
                taint = msg_taint
    if taint is None and adopted == prev.answer:
        return prev
    return _AgentState(adopted, taint, frozenset(sources))


def run_episode(
    task: Task,
    specs: Sequence[AgentSpec],
    topology_fraction: float,
    plan: AttackPlan,
    pipeline: PipelineState | None = None,
    max_rounds: int = 3,
    min_rounds: int = 1,
    seed: int = 0,
    remote: RemoteAgentConfig | None = None,
) -> EpisodeLog:
    """Debate until consensus (not before min_rounds) or max_rounds.

    With a pipeline attached, each round is ingested after responses are
    collected and any pruning takes effect before the next round. Every
    agent response counts as one API call. With a ``remote`` endpoint every
    agent answers over HTTP, and the episode carries no ground truth.
    """
    if max_rounds < 1 or min_rounds < 1:
        raise SimulatorError("max_rounds and min_rounds must be >= 1")
    spec_map = {s.id: s for s in specs}
    if len(spec_map) != len(specs):
        raise SimulatorError("duplicate agent ids in specs")
    active = sorted(spec_map)
    if not active:
        raise SimulatorError("run_episode requires at least one agent")

    agent_rngs = {a: derive_rng(seed, "agent", task.id, a) for a in active}
    attack = apply_attack(plan, task, active, derive_rng(plan.seed, "attack", task.id))
    ground_truth = None if remote else GroundTruth()

    states: dict[AgentId, _AgentState] = {}
    rounds: list[RoundRecord] = []
    api_calls = 0
    final_answer: str | None = None

    for t in range(1, max_rounds + 1):
        if not active:
            break
        topo = (
            {}
            if t == 1
            else sample_topology(active, topology_fraction, derive_rng(seed, "topology", task.id, t))
        )
        responses = step_round(
            task, spec_map, states, active, topo, t, agent_rngs, attack, ground_truth, remote
        )
        api_calls += len(responses)
        order = [a for a, _ in responses]
        answers = [states[a].answer for a in order]
        consensus = check_consensus(answers)

        record = RoundRecord(
            t=t,
            agents=order,
            responses=[text for _, text in responses],
            answers=answers,
            edges=topology_edges(topo),
        )
        if pipeline is not None:
            decision = pipeline.ingest_round(responses, topo, consensus_reached=consensus is not None)
            record.scores = [s.value for s in decision.scores]
            record.removed = decision.removed
            if decision.removed is not None:
                active = [a for a in active if a != decision.removed]
        rounds.append(record)

        if consensus is not None and t >= min_rounds:
            final_answer = consensus
            break

    if final_answer is None:
        final_answer = _majority_vote(states, active)

    return EpisodeLog(
        task=task,
        rounds=rounds,
        ground_truth=ground_truth,
        final_answer=final_answer,
        api_calls=api_calls,
    )


def _majority_vote(states: dict[AgentId, _AgentState], active: list[AgentId]) -> str:
    """Majority over surviving agents' final answers; exact tie -> no consensus."""
    if not active:
        return NO_CONSENSUS
    counts: dict[str, int] = {}
    for a in active:
        counts[states[a].answer] = counts.get(states[a].answer, 0) + 1
    best = max(counts.values())
    leaders = [a for a, c in counts.items() if c == best]
    return leaders[0] if len(leaders) == 1 else NO_CONSENSUS
