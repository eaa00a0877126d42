"""GUARDIAN: anomaly detection and pruning for multi-agent collaboration.

Models a round-based debate as a discrete-time temporal attributed graph,
trains an unsupervised graph autoencoder with an information-compression
penalty on it incrementally, and prunes the highest-scoring anomalous
agent per round. Ships with a scripted debate simulator that injects
labeled faults and a harness that measures accuracy, weighted detection
rate, false discovery rate and API-call cost.
"""

from .anomaly import AnomalyScore, DetectionPolicy, score_nodes, select_anomalies
from .detector import (
    DetectorConfig,
    LossBreakdown,
    Reconstruction,
    fit,
    gib_gamma,
    infer,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .embedder import EmbeddingConfig, embed, make_embedder
from .graph import Snapshot, TemporalGraph, build_snapshot, merge_history, normalized_adjacency
from .harness import (
    ExperimentConfig,
    MetricsReport,
    compute_metrics,
    make_corpus,
    run_experiment,
)
from .numerics import ParamStore, Tensor2D, adam_step, grad_check
from .pipeline import PipelineState
from .simulator import AgentSpec, AttackPlan, EpisodeLog, Task, run_episode

__version__ = "0.1.0"

__all__ = [
    "AnomalyScore",
    "DetectionPolicy",
    "score_nodes",
    "select_anomalies",
    "DetectorConfig",
    "LossBreakdown",
    "Reconstruction",
    "fit",
    "gib_gamma",
    "infer",
    "init_params",
    "load_checkpoint",
    "save_checkpoint",
    "EmbeddingConfig",
    "embed",
    "make_embedder",
    "Snapshot",
    "TemporalGraph",
    "build_snapshot",
    "merge_history",
    "normalized_adjacency",
    "ExperimentConfig",
    "MetricsReport",
    "compute_metrics",
    "make_corpus",
    "run_experiment",
    "ParamStore",
    "Tensor2D",
    "adam_step",
    "grad_check",
    "PipelineState",
    "AgentSpec",
    "AttackPlan",
    "EpisodeLog",
    "Task",
    "run_episode",
    "__version__",
]
