from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guardian.embedder import EmbeddingConfig, make_embedder
from guardian.graph import (
    GraphError,
    Snapshot,
    TemporalGraph,
    build_snapshot,
    merge_history,
    normalized_adjacency,
    sample_topology,
    self_looped_adjacency,
    topology_edges,
    truncate_history,
)
from guardian.numerics import Tensor2D

EMBED = make_embedder(EmbeddingConfig(dim=16))


def _full_topology(agents):
    return {dst: tuple(a for a in agents if a != dst) for dst in agents}


def _snapshot(round_, agents, topo=None, texts=None):
    texts = texts or [f"Answer: {a}. Reasoning: solver {round_}" for a in agents]
    return build_snapshot(round_, list(zip(agents, texts)), topo, EMBED)


def test_build_snapshot_single_agent():
    s = _snapshot(1, [0])
    assert s.features.shape == (1, 16)
    assert s.adjacency.shape == (1, 1)
    assert not s.adjacency.any()


def test_build_snapshot_full_topology_off_diagonal():
    agents = [0, 1, 2, 3]
    s = _snapshot(2, agents, _full_topology(agents))
    expected = ~np.eye(4, dtype=bool)
    assert np.array_equal(s.adjacency, expected)


def test_build_snapshot_rejects_duplicate_ids():
    with pytest.raises(GraphError, match="duplicate"):
        build_snapshot(1, [(0, "a"), (0, "b")], None, EMBED)


def test_build_snapshot_orders_agents():
    s = build_snapshot(1, [(2, "two"), (0, "zero"), (1, "one")], None, EMBED)
    assert s.agents == [0, 1, 2]
    assert s.response_texts == ["zero", "one", "two"]


def test_sample_topology_half_sparsity_exact_degrees():
    # 4 agents at 50%: ceil(0.5 * 3) = 2 in-edges and 2 out-edges each
    agents = [0, 1, 2, 3]
    topo = sample_topology(agents, 0.5, np.random.default_rng(5))
    s = _snapshot(2, agents, topo)
    assert np.array_equal(np.diag(s.adjacency), np.zeros(4, dtype=bool))
    assert list(s.adjacency.sum(axis=1)) == [2, 2, 2, 2]  # out-degrees (rows)
    assert list(s.adjacency.sum(axis=0)) == [2, 2, 2, 2]  # in-degrees (columns)


def test_sample_topology_quarter_sparsity_single_in_edge():
    topo = sample_topology([0, 1, 2, 3], 0.25, np.random.default_rng(9))
    assert all(len(senders) == 1 for senders in topo.values())


def test_sample_topology_full_is_all_pairs():
    topo = sample_topology([0, 1, 2], 1.0, np.random.default_rng(0))
    assert topology_edges(topo) == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]


def test_sample_topology_single_agent_empty():
    assert sample_topology([7], 1.0, np.random.default_rng(0)) == {7: ()}


def test_normalized_adjacency_single_node():
    s = _snapshot(1, [0])
    assert normalized_adjacency(s).data.tolist() == [[1.0]]


def test_normalized_adjacency_two_node_hand_value():
    # A_sym + I = [[1,1],[1,1]], D = diag(2,2) -> every entry 0.5
    adjacency = np.array([[False, True], [False, False]])
    s = Snapshot(
        round=2,
        agents=[0, 1],
        features=Tensor2D(np.zeros((2, 4))),
        adjacency=adjacency,
        response_texts=["a", "b"],
    )
    out = normalized_adjacency(s)
    assert np.allclose(out.data, [[0.5, 0.5], [0.5, 0.5]])


def test_normalized_adjacency_isolated_nodes_identity():
    s = _snapshot(1, [0, 1, 2, 3, 4])
    assert np.array_equal(normalized_adjacency(s).data, np.eye(5))


def test_normalized_adjacency_symmetric_entries_bounded():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        agents = list(range(n))
        topo = sample_topology(agents, 0.5, rng)
        out = normalized_adjacency(_snapshot(2, agents, topo)).data
        assert np.allclose(out, out.T)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)


def test_self_looped_adjacency_is_binary_symmetric():
    agents = [0, 1, 2, 3]
    s = _snapshot(2, agents, _full_topology(agents))
    target = self_looped_adjacency(s)
    assert np.array_equal(target, np.ones((4, 4)))


def _three_round_graph(agents=(0, 1, 2, 3)):
    g = TemporalGraph()
    agents = list(agents)
    g.append_snapshot(_snapshot(1, agents))
    for t in (2, 3):
        active = [a for a in agents if a not in g.removed]
        g.append_snapshot(_snapshot(t, active, _full_topology(active)))
    return g


def test_append_snapshot_requires_increasing_rounds():
    g = TemporalGraph()
    g.append_snapshot(_snapshot(1, [0, 1]))
    with pytest.raises(GraphError, match="increase"):
        g.append_snapshot(_snapshot(1, [0, 1]))


def test_remove_node_preserves_history():
    g = _three_round_graph()
    g.remove_node(1, from_round=1)
    assert 1 in g.snapshot_at(1).agents
    assert 1 not in g.snapshot_at(2).agents
    assert 1 not in g.snapshot_at(3).agents


def test_remove_node_rejects_inactive():
    g = TemporalGraph()
    g.append_snapshot(_snapshot(1, [0, 1]))
    with pytest.raises(GraphError, match="not active"):
        g.remove_node(5, from_round=1)


def test_remove_node_idempotent_flagged():
    g = _three_round_graph()
    g.remove_node(2, from_round=2)
    before = [s.agents for s in g.snapshots]
    g.remove_node(2, from_round=3)
    assert [s.agents for s in g.snapshots] == before
    assert g.removed == {2: 2}


def test_remove_sole_agent_empties_future_rounds():
    g = TemporalGraph()
    g.append_snapshot(_snapshot(1, [0]))
    g.remove_node(0, from_round=1)
    assert g.removed == {0: 1}
    # the runner sees an empty active set and terminates the episode
    assert [a for a in g.snapshot_at(1).agents if a not in g.removed] == []


def test_removal_monotone_under_repeats():
    g = _three_round_graph()
    g.remove_node(3, from_round=1)
    sizes_first = [len(s.agents) for s in g.snapshots]
    g.remove_node(3, from_round=2)  # duplicate, no-op
    g.remove_node(0, from_round=2)
    sizes_second = [len(s.agents) for s in g.snapshots]
    assert all(b <= a for a, b in zip(sizes_first, sizes_second))


def test_merge_history_no_removals_verbatim():
    g = _three_round_graph()
    batch = merge_history(g, 3)
    assert [s.round for s in batch.snapshots] == [1, 2, 3]
    assert all(batch.presence[a] == [True, True, True] for a in (0, 1, 2, 3))


def test_merge_history_filters_removed_agent():
    g = TemporalGraph()
    g.append_snapshot(_snapshot(1, [0, 1, 2, 3]))
    g.remove_node(1, from_round=1)
    active = [0, 2, 3]
    g.append_snapshot(_snapshot(2, active, _full_topology(active)))
    batch = merge_history(g, 2)
    assert batch.snapshots[0].agents == [0, 1, 2, 3]  # history preserved
    assert batch.snapshots[1].agents == [0, 2, 3]
    assert batch.presence[1] == [True, False]


def test_merge_history_upto_one_is_singleton():
    g = _three_round_graph()
    batch = merge_history(g, 1)
    assert len(batch.snapshots) == 1
    assert batch.snapshots[0].round == 1


def test_merge_history_prefix_consistent():
    g = _three_round_graph()
    g.remove_node(0, from_round=2)
    first = merge_history(g, 3)
    second = merge_history(g, 3)
    assert [s.agents for s in first.snapshots] == [s.agents for s in second.snapshots]
    assert first.presence == second.presence
    assert all(
        np.array_equal(a.features.data, b.features.data)
        for a, b in zip(first.snapshots, second.snapshots)
    )


def test_merge_history_rejects_future_round():
    g = _three_round_graph()
    with pytest.raises(GraphError):
        merge_history(g, 9)


def test_truncate_history_window_one():
    g = _three_round_graph()
    batch = truncate_history(merge_history(g, 3), 1)
    assert [s.round for s in batch.snapshots] == [3]
    assert batch.presence[0] == [True]


# ---------------------------------------------------------------------------
# properties over random rounds and removals
# ---------------------------------------------------------------------------

AGENTS = st.integers(1, 5)
# One entry per round: -1 keeps every agent, k >= 0 then removes the k-th
# active agent (modulo the active count).
PICKS = st.lists(st.integers(-1, 4), min_size=1, max_size=5)


def _grow_with_removals(n_agents, picks):
    g = TemporalGraph()
    active = list(range(n_agents))
    for t, pick in enumerate(picks, start=1):
        if not active:
            break
        g.append_snapshot(_snapshot(t, active, _full_topology(active)))
        if pick >= 0:
            g.remove_node(active[pick % len(active)], from_round=t)
            active = [a for a in active if a not in g.removed]
    return g


@settings(max_examples=50, deadline=None)
@given(AGENTS, PICKS, st.integers(1, 6))
def test_history_presence_masks_match_snapshots(n_agents, picks, window):
    g = _grow_with_removals(n_agents, picks)
    for upto in range(1, g.latest_round + 1):
        merged = merge_history(g, upto)
        assert [s.round for s in merged.snapshots] == list(range(1, upto + 1))
        truncated = truncate_history(merged, window)
        assert truncated.snapshots == merged.snapshots[-window:]
        for batch in (merged, truncated):
            seen = sorted({a for s in batch.snapshots for a in s.agents})
            assert batch.presence == {a: [a in s.agents for s in batch.snapshots] for a in seen}


@settings(max_examples=50, deadline=None)
@given(AGENTS, PICKS, st.lists(st.tuples(st.integers(0, 4), st.integers(1, 5)), max_size=4))
def test_removal_is_forward_only(n_agents, picks, later_removals):
    g = _grow_with_removals(n_agents, picks)
    for agent, from_round in later_removals:
        from_round = min(from_round, g.latest_round)
        if agent not in g.removed and agent not in g.snapshot_at(from_round).agents:
            with pytest.raises(GraphError, match="not active"):
                g.remove_node(agent, from_round)
            continue
        before = [(s.round, list(s.agents), s.features.data.copy()) for s in g.snapshots]
        removed_before = dict(g.removed)
        g.remove_node(agent, from_round)
        cut = removed_before.get(agent, from_round)  # a repeat keeps the first removal
        assert g.removed == {**removed_before, agent: cut}
        for (t, agents, features), s in zip(before, g.snapshots):
            keep = [i for i, a in enumerate(agents) if a != agent or t <= cut]
            assert s.agents == [agents[i] for i in keep]
            assert np.array_equal(s.features.data, features[keep])
    for agent, cut in g.removed.items():
        assert all(agent not in s.agents for s in g.snapshots if s.round > cut)
