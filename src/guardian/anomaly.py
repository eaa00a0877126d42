"""Reconstruction residuals -> per-node scores -> pruning decisions.

A node's score mixes its attribute and structure residual row norms with
the same alpha that weights the training loss. Selection is conservative:
at most one agent per round in every policy mode, ties broken by lowest
agent id for reproducibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import Reconstruction
from .graph import AgentId, TemporalGraph

__all__ = ["AnomalyScore", "DetectionPolicy", "PolicyError", "score_nodes", "select_anomalies", "prune"]

POLICY_MODES = ("top1_on_no_consensus", "top1_always", "threshold")


class PolicyError(ValueError):
    pass


@dataclass(frozen=True)
class AnomalyScore:
    agent: AgentId
    value: float


@dataclass(frozen=True)
class DetectionPolicy:
    mode: str = "top1_on_no_consensus"
    tau: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in POLICY_MODES:
            raise PolicyError(f"unknown policy mode {self.mode!r}")
        if self.mode == "threshold" and not 0.0 <= self.tau < math.inf:
            raise PolicyError(f"tau must be finite and >= 0 in threshold mode, got {self.tau}")


def score_nodes(recon: Reconstruction, alpha: float) -> list[AnomalyScore]:
    """s_i = alpha * ||attribute residual row i|| + (1-alpha) * ||structure residual row i||."""
    att = np.linalg.norm(recon.r_x, axis=1)
    stru = np.linalg.norm(recon.r_e, axis=1)
    values = alpha * att + (1.0 - alpha) * stru
    return [AnomalyScore(agent=a, value=float(v)) for a, v in zip(recon.agents, values)]


def select_anomalies(
    scores: list[AnomalyScore], policy: DetectionPolicy, consensus_reached: bool
) -> AgentId | None:
    """The agent to prune, or None. Ties go to the lowest agent id."""
    if not scores:
        raise PolicyError("select_anomalies requires at least one score")
    if policy.mode == "top1_on_no_consensus" and consensus_reached:
        return None
    candidates = scores
    if policy.mode == "threshold":
        candidates = [s for s in scores if s.value > policy.tau]
        if not candidates:
            return None
    return max(candidates, key=lambda s: (s.value, -s.agent)).agent


def prune(g: TemporalGraph, agent: AgentId | None) -> None:
    """Remove `agent`, when there is one, from all rounds after the latest."""
    if agent is not None:
        g.remove_node(agent)
