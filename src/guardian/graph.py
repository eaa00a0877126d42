"""Discrete-time temporal attributed graph over debating agents.

One ``Snapshot`` per round holds the active agents, their response
embeddings and an agent-level adjacency: ``adjacency[i][j]`` is true when
agent j consumed agent i's previous-round output this round. Round 1 has
no incoming communication, so its adjacency is empty until self-loops are
added during normalization.

Agents only leave. ``TemporalGraph`` holds one invariant: each round holds
exactly the previous round's agents minus those removed after it (the
pipeline removes at most one), and a removal takes effect after the
latest round. Stored snapshots are never rewritten, so every final-round
agent is present in every earlier round.
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
    "merge_history",
    "truncate_history",
]

AgentId = int


class GraphError(ValueError):
    """Violation of a temporal-graph precondition."""


@dataclass(frozen=True)
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


@dataclass(frozen=True, eq=False)
class HistoryBatch:
    """Snapshots of one history plus per-agent presence masks; equal and hashed by identity."""

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
    """One episode's snapshots, appended round by round, and its removals."""

    def __init__(self) -> None:
        self.snapshots: list[Snapshot] = []
        self.removed: dict[AgentId, int] = {}  # agent -> round after which gone

    @property
    def latest_round(self) -> int:
        return self.snapshots[-1].round if self.snapshots else 0

    def append_snapshot(self, s: Snapshot) -> None:
        """Store the next round, whose agents must be the active set after the latest."""
        if self.snapshots:
            prev = self.snapshots[-1]
            if s.round <= prev.round:
                raise GraphError(
                    f"snapshot rounds must increase: got {s.round} after {prev.round}"
                )
            active = sorted(a for a in prev.agents if a not in self.removed)
            if sorted(s.agents) != active:
                raise GraphError(
                    f"round {s.round} agents {sorted(s.agents)} do not match active set {active}"
                )
        elif bool(s.adjacency.any()):
            raise GraphError("round-1 snapshot cannot have incoming communication")
        self.snapshots.append(s)

    def remove_node(self, agent: AgentId) -> None:
        """Exclude `agent`, active at the latest round, from every later round.

        Idempotent: repeating a removal is a no-op.
        """
        if agent in self.removed:
            return
        if not self.snapshots or agent not in self.snapshots[-1].agents:
            raise GraphError(f"agent {agent} is not active at round {self.latest_round}")
        self.removed[agent] = self.latest_round


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
    adjacency = s.adjacency  # a batch builds it on every read
    # A_sym as 0.0 and 1.0, the maximum of the two directions, and + I
    a_hat = np.maximum(adjacency, adjacency.T, dtype=np.float64)
    a_hat.reshape(-1)[:: len(a_hat) + 1] += 1.0
    d_inv_sqrt = np.divide(1.0, np.sqrt(np.add.reduce(a_hat, 1)))
    np.multiply(a_hat, d_inv_sqrt[:, None], out=a_hat)
    np.multiply(a_hat, d_inv_sqrt, out=a_hat)
    return Tensor2D(a_hat)


def truncate_history(batch: HistoryBatch, window: int) -> HistoryBatch:
    """The trailing `window` snapshots, as stored."""
    if window <= 0:
        raise GraphError(f"history window must be positive, got {window}")
    return HistoryBatch.of(batch.snapshots[-window:])


def merge_history(g: TemporalGraph, upto: int) -> HistoryBatch:
    """Snapshots 1..upto, as stored.

    An agent removed after round r is in snapshots 1..r and in none after,
    so every agent of the last returned snapshot is in all of them.
    """
    if upto > g.latest_round:
        raise GraphError(f"merge_history upto={upto} exceeds latest round {g.latest_round}")
    return HistoryBatch.of([s for s in g.snapshots if s.round <= upto])
