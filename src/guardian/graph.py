"""Discrete-time temporal attributed graph over debating agents.

One ``Snapshot`` per round holds the active agents, their response
embeddings and an agent-level adjacency: ``adjacency[i][j]`` is true when
agent j consumed agent i's previous-round output this round. Round 1 has
no incoming communication, so its adjacency is empty until self-loops are
added during normalization.

Node removal is permanent and forward-only: history before the removal
round is preserved, later rounds never see the agent again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .numerics import Tensor2D

__all__ = [
    "AgentId",
    "GraphError",
    "Snapshot",
    "TemporalGraph",
    "HistoryBatch",
    "sample_topology",
    "topology_edges",
    "build_snapshot",
    "normalized_adjacency",
    "self_looped_adjacency",
    "merge_history",
    "truncate_history",
]

AgentId = int


class GraphError(ValueError):
    """Violation of a temporal-graph precondition."""


@dataclass
class Snapshot:
    round: int
    agents: list[AgentId]
    features: Tensor2D  # |V_t| x k, one row per agent in `agents` order
    adjacency: np.ndarray  # |V_t| x |V_t| bool, diagonal false
    response_texts: list[str]

    def __post_init__(self) -> None:
        n = len(self.agents)
        if len(set(self.agents)) != n:
            raise GraphError(f"duplicate agent ids in round {self.round}")
        if self.features.shape[0] != n:
            raise GraphError(
                f"round {self.round}: {self.features.shape[0]} feature rows for {n} agents"
            )
        if self.adjacency.shape != (n, n):
            raise GraphError(f"round {self.round}: adjacency shape {self.adjacency.shape}")
        if n and bool(np.any(np.diag(self.adjacency))):
            raise GraphError(f"round {self.round}: adjacency diagonal must be false")
        if len(self.response_texts) != n:
            raise GraphError(f"round {self.round}: response/agent count mismatch")


@dataclass
class HistoryBatch:
    """Filtered snapshots 1..upto plus per-agent presence masks."""

    snapshots: list[Snapshot]
    presence: dict[AgentId, list[bool]]

    @classmethod
    def of(cls, snapshots: list[Snapshot]) -> "HistoryBatch":
        """The batch of `snapshots`, with a mask for every agent they contain."""
        agents = sorted({a for s in snapshots for a in s.agents})
        return cls(snapshots, {a: [a in s.agents for s in snapshots] for a in agents})

    @property
    def adjacency(self) -> np.ndarray:
        """The snapshots' adjacencies as one block-diagonal matrix, in snapshot order."""
        sizes = [len(s.agents) for s in self.snapshots]
        out = np.zeros((sum(sizes), sum(sizes)), dtype=bool)
        offset = 0
        for s, n in zip(self.snapshots, sizes):
            out[offset : offset + n, offset : offset + n] = s.adjacency
            offset += n
        return out


class TemporalGraph:
    def __init__(self) -> None:
        self.snapshots: list[Snapshot] = []
        self.removed: dict[AgentId, int] = {}  # agent -> round after which gone

    @property
    def latest_round(self) -> int:
        return self.snapshots[-1].round if self.snapshots else 0

    def snapshot_at(self, round_: int) -> Snapshot:
        for s in self.snapshots:
            if s.round == round_:
                return s
        raise GraphError(f"no snapshot for round {round_}")

    def active_agents(self, round_: int) -> list[AgentId]:
        return list(self.snapshot_at(round_).agents)

    def append_snapshot(self, s: Snapshot) -> None:
        if self.snapshots and s.round <= self.snapshots[-1].round:
            raise GraphError(
                f"snapshot rounds must increase: got {s.round} after {self.snapshots[-1].round}"
            )
        for a in s.agents:
            if a in self.removed and s.round > self.removed[a]:
                raise GraphError(f"agent {a} was removed after round {self.removed[a]}")
        if self.snapshots:
            prev = self.snapshots[-1]
            for src, sends in zip(s.agents, s.adjacency.any(axis=1)):
                if sends and src not in prev.agents:
                    raise GraphError(f"edge source {src} was not active at round {prev.round}")
        elif bool(s.adjacency.any()):
            raise GraphError("round-1 snapshot cannot have incoming communication")
        self.snapshots.append(s)

    def remove_node(self, agent: AgentId, from_round: int) -> None:
        """Exclude `agent` from every round after `from_round`.

        Idempotent: repeating a removal is a no-op. The agent must have
        been active at `from_round`.
        """
        if agent in self.removed:
            return
        if agent not in self.snapshot_at(from_round).agents:
            raise GraphError(f"agent {agent} is not active at round {from_round}")
        self.removed[agent] = from_round
        for idx, s in enumerate(self.snapshots):
            if s.round > from_round and agent in s.agents:
                self.snapshots[idx] = _drop_agent(s, agent)


def _drop_agent(s: Snapshot, agent: AgentId) -> Snapshot:
    keep = [i for i, a in enumerate(s.agents) if a != agent]
    return Snapshot(
        round=s.round,
        agents=[s.agents[i] for i in keep],
        features=Tensor2D(s.features.data[keep, :].copy()),
        adjacency=s.adjacency[np.ix_(keep, keep)].copy(),
        response_texts=[s.response_texts[i] for i in keep],
    )


def sample_topology(
    active: Sequence[AgentId], fraction: float, rng: np.random.Generator
) -> dict[AgentId, tuple[AgentId, ...]]:
    """Receiver -> senders map where every agent gets ceil(fraction*(n-1)) in-edges.

    Built from random distinct cyclic shifts over the active ordering, so
    out-degrees match in-degrees exactly and no agent feeds itself.
    fraction=1.0 reproduces the fully connected (all off-diagonal) case.
    """
    if not 0.0 < fraction <= 1.0:
        raise GraphError(f"topology fraction must be in (0, 1], got {fraction}")
    agents = sorted(active)
    n = len(agents)
    if n <= 1:
        return {a: () for a in agents}
    m = math.ceil(fraction * (n - 1))
    shifts = sorted(rng.choice(np.arange(1, n), size=m, replace=False).tolist())
    topo: dict[AgentId, tuple[AgentId, ...]] = {}
    for j, dst in enumerate(agents):
        topo[dst] = tuple(sorted(agents[(j - s) % n] for s in shifts))
    return topo


def topology_edges(topology: Mapping[AgentId, Sequence[AgentId]]) -> list[tuple[AgentId, AgentId]]:
    """Flatten a receiver->senders map into sorted (src, dst) pairs."""
    pairs = [(src, dst) for dst, senders in topology.items() for src in senders]
    return sorted(pairs)


def build_snapshot(
    round_: int,
    responses: Sequence[tuple[AgentId, str]],
    topology: Mapping[AgentId, Sequence[AgentId]] | None,
    embed_fn: Callable[[str], np.ndarray],
) -> Snapshot:
    """Embed each response and project communication onto agent adjacency."""
    if not responses:
        raise GraphError("build_snapshot requires at least one response")
    ids = [a for a, _ in responses]
    if len(set(ids)) != len(ids):
        raise GraphError(f"duplicate agent ids in responses for round {round_}")
    order = sorted(range(len(ids)), key=lambda i: ids[i])
    agents = [ids[i] for i in order]
    texts = [responses[i][1] for i in order]

    rows = [np.asarray(embed_fn(t), dtype=np.float64).reshape(-1) for t in texts]
    k = rows[0].size
    for r in rows:
        if r.size != k:
            raise GraphError("embedder returned inconsistent dimensions")
    features = Tensor2D(np.vstack(rows))

    n = len(agents)
    adjacency = np.zeros((n, n), dtype=bool)
    if round_ > 1 and topology:
        pos = {a: i for i, a in enumerate(agents)}
        for dst, senders in topology.items():
            if dst not in pos:
                continue
            for src in senders:
                if src in pos and src != dst:
                    adjacency[pos[src], pos[dst]] = True
    return Snapshot(
        round=round_, agents=agents, features=features, adjacency=adjacency, response_texts=texts
    )


def normalized_adjacency(s: Snapshot | HistoryBatch) -> Tensor2D:
    """Symmetric renormalized adjacency with self-loops: D^-1/2 (A_sym + I) D^-1/2.

    Of a batch it is block-diagonal, one snapshot's normalized adjacency
    per block, because no edge crosses a snapshot.
    """
    a_hat = (s.adjacency | s.adjacency.T).astype(np.float64) + np.eye(len(s.adjacency))
    d_inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1))
    return Tensor2D(a_hat * d_inv_sqrt[:, None] * d_inv_sqrt[None, :])


def self_looped_adjacency(s: Snapshot) -> np.ndarray:
    """Binary symmetrized adjacency with the diagonal set, as a float matrix."""
    n = len(s.agents)
    return ((s.adjacency | s.adjacency.T) | np.eye(n, dtype=bool)).astype(np.float64)


def truncate_history(batch: HistoryBatch, window: int) -> HistoryBatch:
    """Keep only the trailing `window` snapshots, recomputing presence masks."""
    if window <= 0:
        raise GraphError(f"history window must be positive, got {window}")
    return HistoryBatch.of(batch.snapshots[-window:])


def merge_history(g: TemporalGraph, upto: int) -> HistoryBatch:
    """Snapshots 1..upto; removed agents are already absent after their round.

    An agent removed after round r stays in snapshots up to and including
    r (history is preserved): ``remove_node`` drops it from later stored
    snapshots and ``append_snapshot`` refuses it in new ones. The presence
    mask records, per agent ever seen, which of the returned snapshots
    contain it; temporal attention aligns on it.
    """
    if upto > g.latest_round:
        raise GraphError(f"merge_history upto={upto} exceeds latest round {g.latest_round}")
    return HistoryBatch.of([s for s in g.snapshots if s.round <= upto])
