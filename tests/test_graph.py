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


def _three_round_graph(remove_after=None):
    """Rounds 1-3 over agents 0-3; ``remove_after[t]`` is removed after round t."""
    g = TemporalGraph()
    for t in (1, 2, 3):
        active = [a for a in range(4) if a not in g.removed]
        g.append_snapshot(_snapshot(t, active, _full_topology(active)))
        if remove_after and t in remove_after:
            g.remove_node(remove_after[t])
    return g


def _snapshot_bytes(s):
    return (
        s.round,
        tuple(s.agents),
        s.features.data.tobytes(),
        s.adjacency.tobytes(),
        tuple(s.response_texts),
    )


def test_append_snapshot_requires_increasing_rounds():
    g = TemporalGraph()
    g.append_snapshot(_snapshot(1, [0, 1]))
    with pytest.raises(GraphError, match="increase"):
        g.append_snapshot(_snapshot(1, [0, 1]))


def test_remove_node_preserves_history():
    g = _three_round_graph()
    before = [_snapshot_bytes(s) for s in g.snapshots]
    g.remove_node(1)
    assert g.removed == {1: 3}
    assert [_snapshot_bytes(s) for s in g.snapshots] == before
    with pytest.raises(GraphError, match="active set"):
        g.append_snapshot(_snapshot(4, [0, 1, 2, 3], _full_topology([0, 1, 2, 3])))
    g.append_snapshot(_snapshot(4, [0, 2, 3], _full_topology([0, 2, 3])))


def test_remove_node_rejects_inactive():
    with pytest.raises(GraphError, match="not active"):
        TemporalGraph().remove_node(0)
    g = TemporalGraph()
    g.append_snapshot(_snapshot(1, [0, 1]))
    with pytest.raises(GraphError, match="not active"):
        g.remove_node(5)


def test_remove_node_idempotent_flagged():
    g = _three_round_graph({2: 2})
    before = [_snapshot_bytes(s) for s in g.snapshots]
    g.remove_node(2)  # absent from round 3, but already removed: a no-op
    assert [_snapshot_bytes(s) for s in g.snapshots] == before
    assert g.removed == {2: 2}


def test_remove_sole_agent_empties_future_rounds():
    g = TemporalGraph()
    g.append_snapshot(_snapshot(1, [0]))
    g.remove_node(0)
    assert g.removed == {0: 1}
    # the runner sees an empty active set and terminates the episode
    assert [a for a in g.snapshots[-1].agents if a not in g.removed] == []


def test_removal_monotone_under_repeats():
    g = TemporalGraph()
    g.append_snapshot(_snapshot(1, [0, 1, 2, 3]))
    g.remove_node(3)
    g.append_snapshot(_snapshot(2, [0, 1, 2], _full_topology([0, 1, 2])))
    g.remove_node(3)  # duplicate, no-op
    g.remove_node(0)
    g.append_snapshot(_snapshot(3, [1, 2], _full_topology([1, 2])))
    assert g.removed == {3: 1, 0: 2}
    sizes = [len(s.agents) for s in g.snapshots]
    assert sizes == [4, 3, 2]


def test_merge_history_no_removals_verbatim():
    g = _three_round_graph()
    batch = merge_history(g, 3)
    assert [s.round for s in batch.snapshots] == [1, 2, 3]
    assert all(batch.presence[a] == [True, True, True] for a in (0, 1, 2, 3))


def test_merge_history_filters_removed_agent():
    g = TemporalGraph()
    g.append_snapshot(_snapshot(1, [0, 1, 2, 3]))
    g.remove_node(1)
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
    g = _three_round_graph({2: 0})
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
            g.remove_node(active[pick % len(active)])
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
            # agents only leave: every final agent is in every snapshot
            assert all(all(batch.presence[a]) for a in batch.snapshots[-1].agents)


@settings(max_examples=50, deadline=None)
@given(AGENTS, PICKS)
def test_removal_is_forward_only(n_agents, picks):
    g = TemporalGraph()
    active = list(range(n_agents))
    for t, pick in enumerate(picks, start=1):
        if not active:
            break
        # after round 1, a round refuses a removed agent, a late joiner and a
        # silent departure
        wrong = [sorted(active + [gone]) for gone in g.removed]
        if t > 1:
            wrong += [active + [n_agents], active[1:]]
        for agents in filter(None, wrong):  # an empty round is the runner's to end
            with pytest.raises(GraphError, match="active set"):
                g.append_snapshot(_snapshot(t, agents, _full_topology(agents)))
        g.append_snapshot(_snapshot(t, active, _full_topology(active)))
        if pick >= 0:
            agent = active.pop(pick % len(active))
            before = [_snapshot_bytes(s) for s in g.snapshots]
            g.remove_node(agent)
            g.remove_node(agent)  # a repeat is a no-op
            assert g.removed[agent] == t
            assert [_snapshot_bytes(s) for s in g.snapshots] == before
    for agent, cut in g.removed.items():
        assert all(agent not in s.agents for s in g.snapshots if s.round > cut)
