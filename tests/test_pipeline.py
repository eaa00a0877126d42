from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import guardian.pipeline as pipeline_mod
from guardian.anomaly import DetectionPolicy
from guardian.detector import DetectorConfig, load_checkpoint
from guardian.embedder import EmbeddingConfig, make_embedder
from guardian.harness import ExperimentConfig, run_trials
from guardian.graph import sample_topology
from guardian.pipeline import EpisodeExhausted, PipelineError, PipelineState
from guardian.seeding import derive_rng
from guardian.simulator import AgentSpec, AttackPlan, Task, run_episode

EMBED = make_embedder(EmbeddingConfig(dim=64))
NEVER_REMOVE = DetectionPolicy(mode="threshold", tau=1e9)


def _cfg(**kw):
    defaults = dict(k=64, d=32, lr=0.02, epochs_initial=50, epochs_incremental=10, seed=0)
    defaults.update(kw)
    return DetectorConfig(**defaults)


def _responses(round_, answers):
    return [
        (a, f"Answer: {ans}. Reasoning: careful solver {round_}") for a, ans in answers.items()
    ]


def _topo(agents, round_, seed=0):
    if round_ == 1:
        return {}
    return sample_topology(agents, 1.0, derive_rng(seed, "topo", round_))


def test_first_round_consensus_gate_updates_params_without_removal():
    state = PipelineState(_cfg(), DetectionPolicy(), EMBED, seed=1)
    state.begin_episode()
    before = {n: v.copy() for n, v in state.params.entries()}
    decision = state.ingest_round(
        _responses(1, {a: "8" for a in range(4)}), {}, consensus_reached=True
    )
    assert decision.removed is None
    changed = any(not np.array_equal(before[n], v) for n, v in state.params.entries())
    assert changed  # fit ran even though the gate was closed


def test_ingest_requires_matching_active_set():
    state = PipelineState(_cfg(), DetectionPolicy(), EMBED, seed=2)
    state.begin_episode()
    state.ingest_round(_responses(1, {a: "8" for a in range(4)}), {}, True)
    with pytest.raises(PipelineError, match="active set"):
        state.ingest_round(_responses(2, {0: "8", 1: "8"}), _topo([0, 1], 2), True)


def _no_fit(*args, **kwargs):
    raise AssertionError("a rejected round reached fit")


def test_mismatched_round_is_rejected_before_any_fit(monkeypatch):
    state = PipelineState(_cfg(epochs_initial=2), DetectionPolicy(), EMBED, seed=2)
    state.begin_episode()
    state.ingest_round(_responses(1, {a: "8" for a in range(4)}), {}, True)
    monkeypatch.setattr(pipeline_mod, "fit", _no_fit)
    with pytest.raises(PipelineError, match="active set"):
        state.ingest_round(_responses(2, {a: "8" for a in range(5)}), _topo(range(5), 2), True)
    assert state.graph.latest_round == 1


@pytest.mark.parametrize("round_", [1, 2])
def test_duplicate_agent_ids_are_a_pipeline_error_in_every_round(round_):
    state = PipelineState(_cfg(epochs_initial=2), DetectionPolicy(), EMBED, seed=2)
    state.begin_episode()
    if round_ == 2:
        state.ingest_round(_responses(1, {a: "8" for a in range(3)}), {}, True)
    responses = _responses(round_, {a: "8" for a in range(3)}) + [(0, "Answer: 9.")]
    with pytest.raises(PipelineError, match="duplicate"):
        state.ingest_round(responses, _topo(range(3), round_), True)


def test_ingest_empty_responses_signals_exhausted():
    state = PipelineState(_cfg(), DetectionPolicy(), EMBED, seed=3)
    state.begin_episode()
    with pytest.raises(EpisodeExhausted):
        state.ingest_round([], {}, False)


def test_static_variant_fits_single_snapshot_batches(monkeypatch):
    lengths = []
    real_fit = pipeline_mod.fit

    def spy(batch, cfg, params, rng, epochs=None):
        lengths.append(len(batch.snapshots))
        return real_fit(batch, cfg, params, rng, epochs=epochs)

    monkeypatch.setattr(pipeline_mod, "fit", spy)
    state = PipelineState(_cfg(variant="static"), NEVER_REMOVE, EMBED, seed=4)
    state.begin_episode()
    agents = list(range(3))
    for t in (1, 2, 3):
        state.ingest_round(_responses(t, {a: "8" for a in agents}), _topo(agents, t), False)
    assert lengths == [1, 1, 1]


def test_temporal_variant_batches_grow(monkeypatch):
    lengths = []
    real_fit = pipeline_mod.fit

    def spy(batch, cfg, params, rng, epochs=None):
        lengths.append(len(batch.snapshots))
        return real_fit(batch, cfg, params, rng, epochs=epochs)

    monkeypatch.setattr(pipeline_mod, "fit", spy)
    state = PipelineState(_cfg(), NEVER_REMOVE, EMBED, seed=5)
    state.begin_episode()
    agents = list(range(3))
    for t in (1, 2, 3):
        state.ingest_round(_responses(t, {a: "8" for a in agents}), _topo(agents, t), False)
    assert lengths == [1, 2, 3]


def test_warmup_epochs_only_on_first_ingest_of_stream(monkeypatch):
    seen = []
    real_fit = pipeline_mod.fit

    def spy(batch, cfg, params, rng, epochs=None):
        seen.append(epochs)
        return real_fit(batch, cfg, params, rng, epochs=epochs)

    monkeypatch.setattr(pipeline_mod, "fit", spy)
    cfg = _cfg(epochs_initial=7, epochs_incremental=2)
    state = PipelineState(cfg, NEVER_REMOVE, EMBED, seed=6)
    for _ in range(2):  # two episodes in one stream
        state.begin_episode()
        for t in (1, 2):
            state.ingest_round(_responses(t, {a: "8" for a in range(3)}), _topo(range(3), t), False)
    assert seen == [7, 2, 2, 2]


def test_batch_excludes_pruned_agents():
    state = PipelineState(_cfg(epochs_initial=5, epochs_incremental=2), DetectionPolicy(), EMBED, seed=7)
    state.begin_episode()
    answers = {0: "8", 1: "8", 2: "57", 3: "8"}
    d1 = state.ingest_round(_responses(1, answers), {}, consensus_reached=False)
    assert d1.removed is not None
    survivors = [a for a in range(4) if a != d1.removed]
    state.ingest_round(
        _responses(2, {a: "8" for a in survivors}), _topo(survivors, 2), False
    )
    batch = state._assemble_batch()
    assert d1.removed in batch.snapshots[0].agents  # history preserved
    assert d1.removed not in batch.snapshots[1].agents


def test_decision_sequence_deterministic():
    def run():
        state = PipelineState(_cfg(epochs_initial=10, epochs_incremental=3), DetectionPolicy(), EMBED, seed=8)
        state.begin_episode()
        decisions = []
        agents = list(range(4))
        answers = {0: "8", 1: "8", 2: "57", 3: "8"}
        for t in (1, 2, 3):
            active = [a for a in agents if a not in state.graph.removed]
            decisions.append(
                state.ingest_round(
                    _responses(t, {a: answers[a] for a in active}), _topo(active, t), False
                )
            )
            answers = {a: "8" for a in agents}
        return [(d.round, d.removed, [s.value for s in d.scores]) for d in decisions]

    assert run() == run()


def test_outlier_agent_is_argmax_at_later_rounds():
    # One agent's responses embed far from the others from round 1 on; it
    # must be the argmax-scored node at round >= 2 in at least 90/100 trials.
    hits = 0
    for seed in range(100):
        state = PipelineState(_cfg(seed=seed), NEVER_REMOVE, EMBED, seed=seed)
        state.begin_episode()
        agents = list(range(4))
        argmax_by_round = []
        for t in (1, 2):
            answers = {a: ("57" if a == 3 else "8") for a in agents}
            d = state.ingest_round(
                _responses(t, answers), _topo(agents, t, seed=seed), consensus_reached=False
            )
            argmax_by_round.append(max(d.scores, key=lambda s: s.value).agent)
        if argmax_by_round[-1] == 3:
            hits += 1
    assert hits >= 90, f"outlier argmax hit only {hits}/100 at round 2"


def test_params_carry_across_episodes_and_losses_improve():
    # A 20-task clean stream: knowledge accumulates, so the mean per-round
    # training loss in the last episode beats the first episode's.
    tasks = [
        Task(id=f"s{i}", question=f"q{i}", answer_space=("8", "57"), correct="8")
        for i in range(20)
    ]
    specs = [AgentSpec(id=i) for i in range(4)]
    plan = AttackPlan(kind="none")
    state = PipelineState(
        _cfg(epochs_initial=30, epochs_incremental=5), NEVER_REMOVE, EMBED, seed=11
    )
    param_obj = state.params
    per_episode_losses = []
    for task in tasks:
        state.begin_episode()
        start = len(state.decisions)
        run_episode(task, specs, 1.0, plan, pipeline=state, max_rounds=2, min_rounds=2, seed=42)
        rounds = state.decisions[start:]
        per_episode_losses.append(sum(d.losses.l_total for d in rounds) / len(rounds))
    assert state.params is param_obj  # never reinitialized mid-stream
    assert per_episode_losses[19] < per_episode_losses[0]


def test_carry_off_reinitializes_per_episode():
    state = PipelineState(_cfg(), DetectionPolicy(), EMBED, seed=12)
    state.begin_episode(0)
    first = state.params
    state.begin_episode(1)
    assert state.params is not first


def test_checkpoint_roundtrip_at_stream_boundary(tmp_path):
    state = PipelineState(
        _cfg(epochs_initial=5, epochs_incremental=2), DetectionPolicy(), EMBED, seed=13
    )
    state.begin_episode()
    state.ingest_round(_responses(1, {a: "8" for a in range(3)}), {}, True)
    path = tmp_path / "stream.ckpt"
    state.save(path)
    restored = PipelineState.from_checkpoint(path, DetectionPolicy(), EMBED, seed=13)
    assert restored.det_cfg == state.det_cfg
    for name, value in state.params.entries():
        assert np.array_equal(restored.params.value(name), value)
    # A loaded detector is already fitted: its first round runs the incremental epochs.
    restored.begin_episode()
    restored.ingest_round(_responses(1, {a: "8" for a in range(3)}), {}, True)
    assert restored.params.step == restored.det_cfg.epochs_incremental


def test_carry_off_restarts_every_episode_from_the_checkpoint(tmp_path):
    state = PipelineState(
        _cfg(epochs_initial=5, epochs_incremental=2), DetectionPolicy(), EMBED, seed=14
    )
    state.begin_episode()
    state.ingest_round(_responses(1, {a: "8" for a in range(3)}), {}, True)
    path = tmp_path / "stream.ckpt"
    state.save(path)
    saved = {name: value.copy() for name, value in state.params.entries()}

    restored = PipelineState.from_checkpoint(path, DetectionPolicy(), EMBED, seed=14)
    for index in range(2):
        restored.begin_episode(index)
        for name, value in restored.params.entries():
            assert np.array_equal(value, saved[name])
        restored.ingest_round(_responses(1, {a: "8" for a in range(3)}), {}, True)
        # still treated as fitted: the first round runs the incremental epochs
        assert restored.params.step == restored.det_cfg.epochs_incremental


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    state = PipelineState(
        _cfg(epochs_initial=5, epochs_incremental=2), DetectionPolicy(), EMBED, seed=15
    )
    state.begin_episode()
    state.ingest_round(_responses(1, {a: "8" for a in range(3)}), {}, True)
    path = tmp_path_factory.mktemp("stream") / "stream.ckpt"
    state.save(path)
    return path


def _record_draws(monkeypatch):
    """The labels of every derive_rng call the pipeline makes, and the
    init_params calls among them, tagged "params"."""
    draws = []
    real_rng, real_init = pipeline_mod.derive_rng, pipeline_mod.init_params

    def derive_rng(seed, *labels):
        draws.append(labels)
        return real_rng(seed, *labels)

    def init_params(cfg, rng):
        draws.append("params")
        return real_init(cfg, rng)

    monkeypatch.setattr(pipeline_mod, "derive_rng", derive_rng)
    monkeypatch.setattr(pipeline_mod, "init_params", init_params)
    return draws


def test_a_state_draws_only_the_start_it_uses(trained_checkpoint, monkeypatch):
    draws = _record_draws(monkeypatch)
    # a loaded state, carried on and then restarted at an index, draws no parameters
    restored = PipelineState.from_checkpoint(trained_checkpoint, DetectionPolicy(), EMBED, seed=15)
    for index in (None, 4):
        restored.begin_episode(index)
        restored.ingest_round(_responses(1, {a: "8" for a in range(3)}), {}, True)
    assert draws == [("noise",), ("noise", 4)]

    # a carry-off stream draws each episode's start and nothing else
    draws.clear()
    logs, _ = run_trials(
        ExperimentConfig(n_tasks=3, epochs_initial=2, epochs_incremental=1, carry_params=False)
    )
    assert len(logs) == 3
    assert draws == [step for i in range(3) for step in (("init", i), "params", ("noise", i))]

    # a carried stream draws the seed's own start once, before its first round
    draws.clear()
    run_trials(ExperimentConfig(n_tasks=3, epochs_initial=2, epochs_incremental=1))
    assert draws == [("init",), "params", ("noise",)]


@settings(max_examples=15, deadline=None)
@given(
    index=st.integers(0, 40),
    earlier=st.lists(st.one_of(st.none(), st.integers(0, 40)), max_size=3),
)
def test_a_loaded_indexed_begin_restarts_from_the_checkpoint(trained_checkpoint, index, earlier):
    # whatever episodes ran before, an indexed begin puts back the store a fresh load gives
    restored = PipelineState.from_checkpoint(trained_checkpoint, DetectionPolicy(), EMBED, seed=15)
    for begun in earlier:
        restored.begin_episode(begun)
        restored.ingest_round(_responses(1, {a: "8" for a in range(3)}), {}, True)
        restored.ingest_round(_responses(2, {0: "57", 1: "8", 2: "8"}), _topo([0, 1, 2], 2), False)
    with mock.patch.object(pipeline_mod, "init_params", side_effect=AssertionError("drew params")):
        restored.begin_episode(index)
    _, fresh = load_checkpoint(trained_checkpoint)
    assert restored.params.layout == fresh.layout
    assert restored.params._block.tobytes() == fresh._block.tobytes()
    assert restored.params.step == fresh.step
    assert restored.noise_rng.bit_generator.state == derive_rng(15, "noise", index).bit_generator.state
    # still fitted: the episode's first round runs the incremental epochs
    restored.ingest_round(_responses(1, {a: "8" for a in range(3)}), {}, True)
    assert restored.params.step == restored.det_cfg.epochs_incremental
