"""Per-round detect-and-prune loop with incremental training.

A ``PipelineState`` owns the detector parameters for one stream of
episodes. Within an episode each round is ingested as a snapshot, the
detector is fine-tuned on the merged history (minus previously pruned
agents), the current round is reconstructed and scored, and at most one
agent is pruned. Parameters persist across rounds and across episodes,
unless an episode is begun with its index, which restarts the detector;
the graph is rebuilt fresh per episode.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .anomaly import AnomalyScore, DetectionPolicy, prune, score_nodes, select_anomalies
from .detector import (
    DetectorConfig,
    LossBreakdown,
    fit,
    infer,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .graph import (
    AgentId,
    GraphError,
    HistoryBatch,
    TemporalGraph,
    build_snapshot,
    merge_history,
    truncate_history,
)
from .numerics import ParamStore
from .seeding import derive_rng

__all__ = ["PipelineError", "EpisodeExhausted", "Decision", "PipelineState"]


class PipelineError(RuntimeError):
    pass


class EpisodeExhausted(PipelineError):
    """All agents were pruned; the episode cannot continue."""


@dataclass(frozen=True)
class Decision:
    round: int
    removed: AgentId | None
    scores: list[AnomalyScore]
    losses: LossBreakdown


class PipelineState:
    def __init__(
        self,
        det_cfg: DetectorConfig,
        policy: DetectionPolicy,
        embed_fn: Callable[[str], np.ndarray],
        seed: int | None = None,
        history_window: int | None = None,
    ) -> None:
        self.det_cfg = det_cfg
        self.policy = policy
        self.embed_fn = embed_fn
        self.seed = det_cfg.seed if seed is None else seed
        self.history_window = history_window
        # the detector's start, drawn when first needed (``_draw_start``), so
        # that a state started from a checkpoint or an indexed episode never
        # draws the seed's own
        self._params: ParamStore | None = None
        self._noise_rng: np.random.Generator | None = None
        self.graph = TemporalGraph()
        self.decisions: list[Decision] = []
        self._fitted_once = False
        self._loaded: ParamStore | None = None  # a checkpoint's parameters, kept pristine

    @property
    def params(self) -> ParamStore:
        """The detector's parameters; the seed's own draw until something replaces them."""
        if self._params is None:
            self._draw_start()
        return self._params

    @property
    def noise_rng(self) -> np.random.Generator:
        """The generator a fit samples from; the seed's own until an indexed
        episode's replaces it."""
        if self._noise_rng is None:
            self._draw_start()
        return self._noise_rng

    def _draw_start(self) -> None:
        """Draw the seed's own parameters and noise, where nothing has set them."""
        if self._params is None:
            self._params = init_params(self.det_cfg, derive_rng(self.seed, "init"))
        if self._noise_rng is None:
            self._noise_rng = derive_rng(self.seed, "noise")

    def save(self, path) -> None:
        """Checkpoint the detector at a stream boundary."""
        save_checkpoint(path, self.det_cfg, self.params)

    @classmethod
    def from_checkpoint(
        cls,
        path,
        policy: DetectionPolicy,
        embed_fn: Callable[[str], np.ndarray],
        seed: int | None = None,
        history_window: int | None = None,
    ) -> "PipelineState":
        det_cfg, params = load_checkpoint(path)
        state = cls(det_cfg, policy, embed_fn, seed=seed, history_window=history_window)
        state._params = params
        state._loaded = copy.copy(params)
        state._fitted_once = True
        return state

    def begin_episode(self, index: int | None = None) -> None:
        """Fresh graph; without an index the detector carries on.

        With the episode's index the detector restarts: from the
        checkpoint's parameters, still fitted, when the state was loaded
        from one, else from episode ``index``'s fresh initialisation. The
        noise is episode ``index``'s either way. Without one, a state that
        has not started draws the seed's own start here, before any round.
        """
        self.graph = TemporalGraph()
        if index is None:
            self._draw_start()
            return
        if self._loaded is not None:
            self._params = copy.copy(self._loaded)
        else:
            self._params = init_params(self.det_cfg, derive_rng(self.seed, "init", index))
        self._fitted_once = self._loaded is not None
        self._noise_rng = derive_rng(self.seed, "noise", index)

    def _assemble_batch(self) -> HistoryBatch:
        batch = merge_history(self.graph, self.graph.latest_round)
        if self.det_cfg.variant == "static":
            return truncate_history(batch, 1)
        if self.history_window is not None:
            return truncate_history(batch, self.history_window)
        return batch

    def ingest_round(
        self,
        responses: Sequence[tuple[AgentId, str]],
        topology: Mapping[AgentId, Sequence[AgentId]] | None,
        consensus_reached: bool,
    ) -> Decision:
        """Snapshot, fine-tune, score, and possibly prune one agent.

        `responses` must cover exactly the agents still active; an empty
        round signals an exhausted episode.
        """
        round_ = self.graph.latest_round + 1
        if not responses:
            raise EpisodeExhausted(f"no active agents at round {round_}")
        try:
            self.graph.append_snapshot(build_snapshot(round_, responses, topology, self.embed_fn))
        except GraphError as err:
            raise PipelineError(str(err)) from err

        batch = self._assemble_batch()
        epochs = (
            self.det_cfg.epochs_incremental if self._fitted_once else self.det_cfg.epochs_initial
        )
        trace = fit(batch, self.det_cfg, self.params, self.noise_rng, epochs=epochs)
        self._fitted_once = True

        recon, losses = infer(batch, self.det_cfg, self.params)
        scores = score_nodes(recon, self.det_cfg.alpha)
        removed = select_anomalies(scores, self.policy, consensus_reached)
        prune(self.graph, removed)

        decision = Decision(
            round=round_,
            removed=removed,
            scores=scores,
            losses=trace[-1] if trace else losses,
        )
        self.decisions.append(decision)
        return decision
