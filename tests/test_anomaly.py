from __future__ import annotations

import numpy as np
import pytest

from guardian.anomaly import (
    AnomalyScore,
    DetectionPolicy,
    PolicyError,
    prune,
    score_nodes,
    select_anomalies,
)
from guardian.detector import Reconstruction
from guardian.graph import Snapshot, TemporalGraph
from guardian.numerics import Tensor2D


def _recon(r_x: np.ndarray, r_e: np.ndarray) -> Reconstruction:
    return Reconstruction(agents=list(range(r_x.shape[0])), r_x=r_x, r_e=r_e)


def _scores(values):
    return [AnomalyScore(agent=i, value=v) for i, v in enumerate(values)]


def test_scores_zero_for_perfect_reconstruction():
    recon = _recon(np.zeros((3, 4)), np.zeros((3, 3)))
    assert all(s.value == 0.0 for s in score_nodes(recon, alpha=0.4))


def test_scores_weighted_sum_hand_example():
    # attribute residual row norm 2, structure row norm 0, alpha 0.4 -> 0.8
    r_x = np.zeros((2, 4))
    r_x[0, 0] = 2.0
    recon = _recon(r_x, np.zeros((2, 2)))
    scores = score_nodes(recon, alpha=0.4)
    assert abs(scores[0].value - 0.8) < 1e-12
    assert scores[1].value == 0.0


def test_scores_positive_scaling_keeps_argmax():
    rng = np.random.default_rng(0)
    r_x = rng.normal(size=(4, 5))
    r_e = rng.normal(size=(4, 4))
    base = score_nodes(_recon(r_x, r_e), alpha=0.4)
    scaled = score_nodes(_recon(3.7 * r_x, 3.7 * r_e), alpha=0.4)
    argmax = max(range(4), key=lambda i: base[i].value)
    argmax_scaled = max(range(4), key=lambda i: scaled[i].value)
    assert argmax == argmax_scaled
    for b, s in zip(base, scaled):
        assert abs(s.value - 3.7 * b.value) < 1e-9


def test_select_gate_closed_on_consensus():
    policy = DetectionPolicy(mode="top1_on_no_consensus")
    assert select_anomalies(_scores([0.5, 0.9]), policy, consensus_reached=True) is None
    assert select_anomalies(_scores([0.5, 0.9]), policy, consensus_reached=False) == 1


def test_select_top1_always_argmax():
    policy = DetectionPolicy(mode="top1_always")
    scores = _scores([0.1, 0.9, 0.3, 0.2])
    assert select_anomalies(scores, policy, consensus_reached=True) == 1


def test_select_threshold_mode():
    policy = DetectionPolicy(mode="threshold", tau=1.0)
    assert select_anomalies(_scores([0.2, 0.9]), policy, False) is None
    assert select_anomalies(_scores([0.2, 1.4, 1.2]), policy, False) == 1


def test_select_tie_breaks_lowest_id():
    policy = DetectionPolicy(mode="top1_always")
    assert select_anomalies(_scores([0.7, 0.7, 0.7]), policy, False) == 0


def test_select_at_most_one_every_mode():
    rng = np.random.default_rng(1)
    for mode, tau in (("top1_on_no_consensus", 0.0), ("top1_always", 0.0), ("threshold", 0.3)):
        policy = DetectionPolicy(mode=mode, tau=tau)
        for _ in range(50):
            scores = _scores(rng.uniform(0, 1, size=rng.integers(1, 6)).tolist())
            selected = select_anomalies(scores, policy, False)
            assert selected is None or selected in range(len(scores))


def test_select_requires_scores():
    with pytest.raises(PolicyError):
        select_anomalies([], DetectionPolicy(), False)


def test_policy_validation():
    with pytest.raises(PolicyError):
        DetectionPolicy(mode="everything")
    with pytest.raises(PolicyError):
        DetectionPolicy(mode="threshold", tau=-1.0)
    for tau in (float("nan"), float("inf")):
        with pytest.raises(PolicyError, match="tau must be finite"):
            DetectionPolicy(mode="threshold", tau=tau)


def _round(t, agents):
    n = len(agents)
    return Snapshot(
        round=t,
        agents=agents,
        features=Tensor2D(np.zeros((n, 4))),
        adjacency=np.zeros((n, n), dtype=bool) if t == 1 else ~np.eye(n, dtype=bool),
        response_texts=["x"] * n,
    )


def _graph_with_rounds():
    g = TemporalGraph()
    for t in (1, 2):
        g.append_snapshot(_round(t, [0, 1, 2]))
    return g


def test_prune_empty_selection_no_change():
    g = _graph_with_rounds()
    prune(g, None)
    assert g.removed == {}


def test_prune_drops_active_count():
    g = _graph_with_rounds()
    prune(g, 1)
    assert g.removed == {1: 2}
    assert [s.agents for s in g.snapshots] == [[0, 1, 2], [0, 1, 2]]  # history kept
    g.append_snapshot(_round(3, [0, 2]))
    assert g.snapshots[-1].agents == [0, 2]
