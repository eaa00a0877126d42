from __future__ import annotations

import copy
import dataclasses
import json
import math
import re
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import allocating
import tape
from guardian import detector, harness, numerics, pipeline
from guardian.detector import (
    CHECKPOINT_MAGIC,
    LOGVAR_MAX,
    DetectorConfig,
    DetectorError,
    TrainingDiverged,
    _History,
    _Pass,
    compose_losses,
    decode_attributes,
    decode_structure,
    fit,
    gcn_forward,
    gib_gamma,
    infer,
    init_params,
    kl_term,
    load_checkpoint,
    positional_encoding,
    reparameterize,
    run_forward,
    save_checkpoint,
    split_latent,
)
from guardian.graph import HistoryBatch, Snapshot, normalized_adjacency
from guardian.numerics import NonFiniteError, ParamStore, Tensor2D, adam_step, grad_check
from tape import Tensor, temporal_fuse


def _snapshot(round_, agents, features, adjacency=None):
    n = len(agents)
    if adjacency is None:
        adjacency = np.zeros((n, n), dtype=bool)
    return Snapshot(
        round=round_,
        agents=list(agents),
        features=Tensor2D(np.asarray(features, dtype=np.float64)),
        adjacency=adjacency,
        response_texts=[f"text {a}" for a in agents],
    )


def _random_batch(rng, n_agents, rounds, k, normalize=False):
    snaps = []
    for t in range(1, rounds + 1):
        if t == 1:
            adjacency = np.zeros((n_agents, n_agents), dtype=bool)
        else:
            adjacency = ~np.eye(n_agents, dtype=bool)
        x = rng.normal(size=(n_agents, k))
        if normalize:
            x /= np.linalg.norm(x, axis=1, keepdims=True)
        snaps.append(_snapshot(t, list(range(n_agents)), x, adjacency))
    return HistoryBatch.of(snaps)


# ---------------------------------------------------------------------------
# gcn_forward
# ---------------------------------------------------------------------------


def _gcn(x, a_hat, w0, w1):
    """The encoder output of the kernel's graph convolution stage."""
    return gcn_forward(a_hat, a_hat @ x, w0, w1)[2]


def test_gcn_zero_features_zero_output():
    out = _gcn(np.zeros((4, 3)), np.eye(4), np.eye(3), np.eye(3))
    assert np.array_equal(out, np.zeros((4, 3)))


def test_gcn_two_node_hand_propagation():
    # A_hat = [[.5,.5],[.5,.5]], X = [1;3], W0 = W1 = [1]:
    # H1 = ReLU(A X) = [2;2]; H2 = A H1 = [2;2]
    adj = np.array([[0.5, 0.5], [0.5, 0.5]])
    out = _gcn(np.array([[1.0], [3.0]]), adj, np.ones((1, 1)), np.ones((1, 1)))
    assert np.allclose(out, [[2.0], [2.0]])


def test_gcn_permutation_equivariance():
    rng = np.random.default_rng(4)
    cfg = DetectorConfig(k=5, d=3)
    params = init_params(cfg, rng)
    x = rng.normal(size=(4, 5))
    a_sym = np.array(
        [
            [0.5, 0.2, 0.0, 0.3],
            [0.2, 0.4, 0.4, 0.0],
            [0.0, 0.4, 0.6, 0.0],
            [0.3, 0.0, 0.0, 0.7],
        ]
    )
    perm = [2, 0, 3, 1]
    p_mat = np.eye(4)[perm]
    w0, w1 = params.value("gcn.w0"), params.value("gcn.w1")
    out = _gcn(x, a_sym, w0, w1)
    out_perm = _gcn(p_mat @ x, p_mat @ a_sym @ p_mat.T, w0, w1)
    assert np.allclose(out_perm, p_mat @ out)


def test_gcn_shape_validation():
    params = ParamStore({"gcn.w0": np.eye(3), "gcn.w1": np.eye(3)})
    with pytest.raises(DetectorError):
        tape.gcn_forward(Tensor(np.zeros((4, 2))), Tensor(np.eye(4)), params)
    with pytest.raises(DetectorError):
        tape.gcn_forward(Tensor(np.zeros((4, 3))), Tensor(np.eye(3)), params)
    # the kernel checks the feature width once per history
    batch = _random_batch(np.random.default_rng(0), 2, 1, 5)
    with pytest.raises(DetectorError, match="feature dim 5"):
        _History(batch, DetectorConfig(k=3, d=2))


# ---------------------------------------------------------------------------
# reparameterize / kl_term
# ---------------------------------------------------------------------------


def test_kl_zero_at_prior():
    mean = Tensor2D(np.zeros((3, 4)))
    logvar = Tensor2D(np.zeros((3, 4)))
    assert kl_term(mean, logvar).item() == 0.0


def test_kl_hand_computed_row():
    # row [1, 0], logvar 0: 0.5 * ((1 + 1 - 1 - 0) + (1 + 0 - 1 - 0)) = 0.5
    mean = Tensor2D([[1.0, 0.0]])
    logvar = Tensor2D([[0.0, 0.0]])
    assert abs(kl_term(mean, logvar).item() - 0.5) < 1e-12


def test_kl_nonnegative_random():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        mean = Tensor2D(rng.normal(size=(2, 3)) * 3)
        logvar = Tensor2D(rng.uniform(-6, 6, size=(2, 3)))
        assert kl_term(mean, logvar).item() >= 0.0


def test_reparameterize_inference_returns_mean():
    mean = np.array([[1.0, -2.0]])
    logvar = np.array([[0.3, 0.3]])
    assert reparameterize(mean, logvar, None)[0] is mean
    assert tape.reparameterize(Tensor(mean), Tensor(logvar), None).data is mean


def test_reparameterize_training_statistics():
    rng = np.random.default_rng(1)
    mean = np.full((1, 2), 5.0)
    logvar = np.zeros((1, 2))  # std = 1
    draws = np.array(
        [reparameterize(mean, logvar, rng.standard_normal((1, 2)))[0][0] for _ in range(4000)]
    )
    assert np.allclose(draws.mean(axis=0), 5.0, atol=0.1)
    assert np.allclose(draws.std(axis=0), 1.0, atol=0.1)


def test_split_latent_clamps_log_variance():
    hidden = np.array([[0.0, 1.0, -50.0, 50.0]])
    mean, raw, logvar = split_latent(hidden, 2)
    assert mean.tolist() == [[0.0, 1.0]]
    assert raw.tolist() == [[-50.0, 50.0]]
    assert logvar.tolist() == [[-10.0, 10.0]]
    mean, logvar = tape.split_latent(Tensor(hidden), 2)
    assert mean.tolist() == [[0.0, 1.0]]
    assert logvar.tolist() == [[-10.0, 10.0]]


# ---------------------------------------------------------------------------
# temporal_fuse
# ---------------------------------------------------------------------------


def _attn_params(d, rng=None, wq=None, wk=None, wv=None):
    rng = rng or np.random.default_rng(0)
    return ParamStore(
        {
            "attn.wq": wq if wq is not None else rng.normal(size=(d, d)),
            "attn.wk": wk if wk is not None else rng.normal(size=(d, d)),
            "attn.wv": wv if wv is not None else rng.normal(size=(d, d)),
        }
    )


def test_fuse_single_round_is_value_projection():
    rng = np.random.default_rng(2)
    d = 3
    params = _attn_params(d, rng)
    z = rng.normal(size=(4, d))
    batch = HistoryBatch.of([_snapshot(1, [0, 1, 2, 3], np.zeros((4, 2)))])
    fused = temporal_fuse([Tensor(z)], batch, params, d, positional=False)
    assert np.allclose(fused.data, z @ params.value("attn.wv"))


def test_fuse_identical_latents_half_half_weights():
    rng = np.random.default_rng(3)
    d = 4
    params = _attn_params(d, rng)
    z = rng.normal(size=(2, d))
    batch = HistoryBatch.of(
        [_snapshot(1, [0, 1], np.zeros((2, 2))), _snapshot(2, [0, 1], np.zeros((2, 2)))]
    )
    weights: list[np.ndarray] = []
    temporal_fuse(
        [Tensor(z), Tensor(z)], batch, params, d, positional=False, collect_weights=weights
    )
    for w in weights:
        assert np.allclose(w, 0.5)


def test_fuse_two_position_matches_numpy_oracle():
    # Independent oracle: softmax(Q K^T / sqrt(d)) V in plain numpy.
    d = 2
    wq = np.array([[0.6, -0.2], [0.1, 0.5]])
    wk = np.array([[0.3, 0.4], [-0.5, 0.2]])
    wv = np.array([[1.0, 0.0], [0.3, -0.7]])
    params = _attn_params(d, wq=wq, wk=wk, wv=wv)
    z1 = np.array([[0.2, -1.1], [0.4, 0.9]])
    z2 = np.array([[1.3, 0.5], [-0.6, 0.1]])
    batch = HistoryBatch.of(
        [_snapshot(1, [0, 1], np.zeros((2, 2))), _snapshot(2, [0, 1], np.zeros((2, 2)))]
    )
    fused = temporal_fuse([Tensor(z1), Tensor(z2)], batch, params, d, positional=True)

    pe = positional_encoding([1, 2], d)
    for i in range(2):
        seq = np.vstack([z1[i], z2[i]]) + pe
        q, k, v = seq @ wq, seq @ wk, seq @ wv
        logits = q @ k.T / math.sqrt(d)
        expw = np.exp(logits - logits.max(axis=1, keepdims=True))
        attn = expw / expw.sum(axis=1, keepdims=True)
        expected = (attn @ v)[-1]
        assert np.allclose(fused.data[i], expected, atol=1e-12)


def _positional_encoding_loop(rounds, d):
    pe = np.zeros((len(rounds), d), dtype=np.float64)
    for r_idx, t in enumerate(rounds):
        for j in range(d):
            angle = t / (10000.0 ** (2 * (j // 2) / d))
            pe[r_idx, j] = math.sin(angle) if j % 2 == 0 else math.cos(angle)
    return pe


@pytest.mark.parametrize("d", [1, 7, 8, 16, 32, 64])
def test_positional_encoding_equals_scalar_loop(d):
    # Same divisors and the same division as the per-entry loop, so the
    # vectorised table must agree bit for bit, not within a tolerance.
    for rounds in (list(range(1, 201)), [3, 7, 9], [1], []):
        table = positional_encoding(rounds, d)
        assert table.shape == (len(rounds), d)
        assert np.array_equal(table, _positional_encoding_loop(rounds, d))


def test_fuse_excludes_absent_rounds():
    rng = np.random.default_rng(8)
    d = 2
    params = _attn_params(d, rng)
    s1 = _snapshot(1, [0, 1], np.zeros((2, 2)))
    s2 = _snapshot(2, [1], np.zeros((1, 2)))
    batch = HistoryBatch.of([s1, s2])
    z1, z2 = Tensor(rng.normal(size=(2, d))), Tensor(rng.normal(size=(1, d)))
    fused = temporal_fuse([z1, z2], batch, params, d)
    assert fused.shape == (1, d)  # only agent 1 is active at the final round


# ---------------------------------------------------------------------------
# decoders
# ---------------------------------------------------------------------------


def _decoder_params(d, k, fill=None, rng=None):
    if fill is not None:
        weights = {"dec.w0": np.full((d, d), fill), "dec.w1": np.full((d, k), fill)}
    else:
        rng = rng or np.random.default_rng(0)
        weights = {"dec.w0": rng.normal(size=(d, d)), "dec.w1": rng.normal(size=(d, k))}
    return ParamStore({**weights, "dec.b0": np.zeros((1, d)), "dec.b1": np.zeros((1, k))})


def _decode(z, params):
    """The x_hat of the kernel's attribute decoder stage."""
    names = ("dec.w0", "dec.b0", "dec.w1", "dec.b1")
    return decode_attributes(z, *(params.value(n) for n in names))[2]


def test_decode_attributes_zero_input_zero_output():
    params = _decoder_params(3, 5, rng=np.random.default_rng(1))
    out = _decode(np.zeros((2, 3)), params)
    assert np.array_equal(out, np.zeros((2, 5)))


def test_decode_attributes_identity_chain():
    # d = k = 1, all weights 1, zero biases: 2 -> relu(2) -> 2
    params = _decoder_params(1, 1, fill=1.0)
    out = _decode(np.array([[2.0]]), params)
    assert out.tolist() == [[2.0]]


def test_decode_attributes_shape_contract():
    params = _decoder_params(4, 7, rng=np.random.default_rng(2))
    out = _decode(np.random.default_rng(0).normal(size=(6, 4)), params)
    assert out.shape == (6, 7)


def test_decode_structure_zero_latents():
    probs = decode_structure(np.zeros((3, 4)))
    assert np.allclose(probs, 0.5)


def test_decode_structure_orthogonal_unit_rows():
    z = np.eye(3)
    probs = decode_structure(z)
    sig1 = 1.0 / (1.0 + math.exp(-1.0))
    assert np.allclose(np.diag(probs), sig1)
    off = probs[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 0.5)


def test_decode_structure_symmetric():
    z = np.random.default_rng(5).normal(size=(4, 3))
    probs = decode_structure(z)
    assert np.allclose(probs, probs.T)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def _losses(x, x_hat, adjacency, edge_probs, alpha=0.4):
    """The training losses of one reconstruction, through the tape's loss functions."""
    target = tape.self_looped_target(_snapshot(1, range(len(x)), x, adjacency))
    l_att = tape.attribute_loss(Tensor(x), Tensor(x_hat)).item()
    l_stru = tape.structure_loss(target, Tensor(edge_probs)).item()
    return compose_losses(l_att, l_stru, 0.0, alpha, 0.0)


def test_losses_perfect_attribute_reconstruction():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 4))
    out = _losses(x, x.copy(), np.zeros((3, 3), dtype=bool), np.full((3, 3), 0.5))
    assert out.l_att == 0.0


def test_losses_half_probs_give_ln2():
    x = np.zeros((4, 3))
    for adjacency in (np.zeros((4, 4), dtype=bool), ~np.eye(4, dtype=bool)):
        out = _losses(x, x.copy(), adjacency, np.full((4, 4), 0.5))
        assert abs(out.l_stru - math.log(2.0)) < 1e-9


def test_losses_alpha_endpoints():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 4))
    x_hat = x + rng.normal(size=(3, 4))
    adjacency = np.zeros((3, 3), dtype=bool)
    at1 = _losses(x, x_hat, adjacency, np.full((3, 3), 0.4), alpha=1.0)
    at0 = _losses(x, x_hat, adjacency, np.full((3, 3), 0.4), alpha=0.0)
    assert at1.l_rec == at1.l_att
    assert at0.l_rec == at0.l_stru


def test_loss_breakdown_identities_random():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        l_att = float(rng.uniform(0, 5))
        l_stru = float(rng.uniform(0, 5))
        kl = float(rng.uniform(0, 5))
        alpha = float(rng.uniform(0, 1))
        lam = float(rng.uniform(0, 2))
        beta = float(rng.uniform(0.1, 3))
        gamma = gib_gamma(lam, beta)
        b = compose_losses(l_att, l_stru, kl, alpha, gamma)
        assert abs(b.l_rec - (alpha * b.l_att + (1 - alpha) * b.l_stru)) <= 1e-12
        assert abs(b.l_total - (b.l_rec + gamma * b.kl)) <= 1e-12
        assert abs(gamma - lam / (1 + lam * beta)) <= 1e-15


def test_gib_gamma_values():
    assert gib_gamma(0.0, 1.0) == 0.0
    assert abs(gib_gamma(0.01, 1.0) - 0.01 / 1.01) < 1e-15
    assert gib_gamma(0.7, 0.0) == 0.7


def test_gib_gamma_rejects_negative():
    with pytest.raises(DetectorError):
        gib_gamma(-0.1, 1.0)


def test_config_gamma_tracks_fields():
    cfg = DetectorConfig(lambda_=0.01, beta=1.0)
    assert abs(cfg.gamma - 0.01 / 1.01) < 1e-15
    cfg = dataclasses.replace(cfg, lambda_=1.0 / 199.0)
    assert abs(cfg.gamma - 0.005) < 1e-15


def _frozen_values():
    snapshot = _snapshot(1, [0, 1], np.zeros((2, 3)))
    batch = HistoryBatch.of([snapshot])
    return [DetectorConfig(), harness.ExperimentConfig(), snapshot, batch]


@pytest.mark.parametrize("value", _frozen_values(), ids=lambda v: type(v).__name__)
def test_validated_values_cannot_be_assigned(value):
    for f in dataclasses.fields(value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, f.name, getattr(value, f.name))


def test_a_history_batch_is_equal_and_hashed_by_identity():
    batch = _frozen_values()[-1]
    twin = HistoryBatch.of(batch.snapshots)
    assert batch == batch and batch != twin
    assert hash(batch) == object.__hash__(batch)


# ---------------------------------------------------------------------------
# forward / fit / infer
# ---------------------------------------------------------------------------


def _small_cfg(**kw):
    defaults = dict(k=6, d=4, lr=0.02, epochs_initial=50, epochs_incremental=10)
    defaults.update(kw)
    return DetectorConfig(**defaults)


def test_forward_breakdown_matches_reporting_path():
    rng = np.random.default_rng(6)
    cfg = _small_cfg()
    params = init_params(cfg, rng)
    batch = _random_batch(rng, 4, 2, cfg.k)
    result = tape.run_forward(batch, cfg, params, rng=None)
    recon, breakdown = infer(batch, cfg, params)

    # Independent oracle: the loss terms of the residuals in plain numpy.
    final = batch.snapshots[-1]
    n = len(final.agents)
    l_att = (recon.r_x**2).sum() / n
    target = (final.adjacency | final.adjacency.T | np.eye(n, dtype=bool)).astype(float)
    p = target - recon.r_e
    l_stru = -(target * np.log(p) + (1.0 - target) * np.log(1.0 - p)).sum() / (n * n)
    l_total = cfg.alpha * l_att + (1.0 - cfg.alpha) * l_stru + cfg.gamma * result.kl.item()
    assert abs(l_att - breakdown.l_att) < 1e-12
    assert abs(l_stru - breakdown.l_stru) < 1e-12
    assert abs(l_total - breakdown.l_total) < 1e-12


@pytest.mark.parametrize("entry", ["fit", "infer", "run_forward"])
def test_final_agent_absent_from_an_earlier_round_is_rejected(entry):
    # agent 2 joins at round 2, which a debate never does
    rng = np.random.default_rng(4)
    cfg = _small_cfg()
    params = init_params(cfg, rng)
    batch = HistoryBatch.of(
        [
            _snapshot(1, [0, 1], rng.normal(size=(2, cfg.k))),
            _snapshot(2, [0, 1, 2], rng.normal(size=(3, cfg.k)), ~np.eye(3, dtype=bool)),
        ]
    )
    calls = {
        "fit": lambda: fit(batch, cfg, params, rng, epochs=1),
        "infer": lambda: infer(batch, cfg, params),
        "run_forward": lambda: run_forward(batch, cfg, params, None),
    }
    with pytest.raises(DetectorError, match="final agent 2 is absent from round 1"):
        calls[entry]()


def test_fit_zero_epochs_no_change():
    rng = np.random.default_rng(7)
    cfg = _small_cfg()
    params = init_params(cfg, rng)
    before = {n: v.copy() for n, v in params.entries()}
    trace = fit(_random_batch(rng, 3, 2, cfg.k), cfg, params, rng, epochs=0)
    assert trace == []
    assert all(np.array_equal(before[n], v) for n, v in params.entries())


def test_fit_deterministic_given_seed():
    cfg = _small_cfg()

    def run():
        rng = np.random.default_rng(123)
        params = init_params(cfg, np.random.default_rng(9))
        batch = _random_batch(np.random.default_rng(5), 4, 2, cfg.k)
        return fit(batch, cfg, params, rng, epochs=8)

    assert run() == run()


def test_fit_converges_on_small_fixture():
    # Unit-norm feature rows, like the hashing embedder produces.
    rng = np.random.default_rng(21)
    cfg = _small_cfg()
    params = init_params(cfg, np.random.default_rng(33))
    batch = _random_batch(rng, 4, 3, cfg.k, normalize=True)
    trace = fit(batch, cfg, params, np.random.default_rng(1), epochs=50)
    assert trace[-1].l_total < 0.5 * trace[0].l_total


def test_infer_deterministic():
    rng = np.random.default_rng(10)
    cfg = _small_cfg()
    params = init_params(cfg, rng)
    batch = _random_batch(rng, 3, 2, cfg.k)
    r1, b1 = infer(batch, cfg, params)
    r2, b2 = infer(batch, cfg, params)
    assert np.array_equal(r1.r_x, r2.r_x) and np.array_equal(r1.r_e, r2.r_e)
    assert b1 == b2


def test_infer_residual_definitions():
    rng = np.random.default_rng(11)
    cfg = _small_cfg()
    params = init_params(cfg, rng)
    batch = _random_batch(rng, 3, 1, cfg.k)
    recon, _ = infer(batch, cfg, params)
    final = batch.snapshots[-1]
    reference = tape.run_forward(batch, cfg, params, rng=None)
    # plain residual arrays, one row per final agent
    assert type(recon.r_x) is np.ndarray and type(recon.r_e) is np.ndarray
    assert recon.agents == list(final.agents)
    assert np.allclose(recon.r_x, final.features.data - reference.x_hat.data)
    target = tape.self_looped_target(final)
    assert np.allclose(recon.r_e, target - reference.edge_probs.data)
    edge_probs = target - recon.r_e
    assert np.all(edge_probs > 0.0) and np.all(edge_probs < 1.0)


def test_static_batch_consumes_single_snapshot():
    rng = np.random.default_rng(12)
    cfg = _small_cfg(variant="static")
    params = init_params(cfg, rng)
    batch = _random_batch(rng, 3, 1, cfg.k)
    result = tape.run_forward(batch, cfg, params, rng=None)
    assert len(result.latents) == 1


# ---------------------------------------------------------------------------
# gradient fidelity
# ---------------------------------------------------------------------------


def _loss_fn(forward, batch, cfg, term, noise_seed=None):
    def fn(params: ParamStore):
        rng = None if noise_seed is None else np.random.default_rng(noise_seed)
        result = forward(batch, cfg, params, rng)
        return {
            "total": result.loss_total,
            "att": result.l_att,
            "stru": result.l_stru,
            "kl": result.kl,
        }[term]

    return fn


@pytest.mark.parametrize("term", ["total", "att", "stru", "kl"])
def test_grad_check_each_loss_term(term):
    rng = np.random.default_rng(17)
    cfg = DetectorConfig(k=5, d=3, lambda_=0.05)
    params = init_params(cfg, rng)
    batch = _random_batch(rng, 4, 2, cfg.k)
    for forward in (run_forward, tape.run_forward):
        err = grad_check(
            _loss_fn(forward, batch, cfg, term),
            params,
            eps=1e-4,
            rng=np.random.default_rng(0),
            max_coords_per_param=10,
        )
        assert err < 1e-4, f"{forward.__module__} term {term}: relative error {err}"


def test_grad_check_with_sampling_frozen():
    rng = np.random.default_rng(19)
    cfg = DetectorConfig(k=4, d=3, lambda_=0.1)
    params = init_params(cfg, rng)
    batch = _random_batch(rng, 3, 3, cfg.k)
    for forward in (run_forward, tape.run_forward):
        err = grad_check(
            _loss_fn(forward, batch, cfg, "total", noise_seed=42),
            params,
            eps=1e-4,
            rng=np.random.default_rng(1),
            max_coords_per_param=8,
        )
        assert err < 1e-4, f"{forward.__module__}: relative error {err}"


# ---------------------------------------------------------------------------
# the fused kernel that fit and infer run, against the tape
# ---------------------------------------------------------------------------


def _history_with_gaps(rng, n_agents, rounds, k):
    """Random rounds in which agents leave for good, so that earlier rounds
    hold agents the final one lacks; agent 0 stays throughout."""
    leave = np.where(rng.random(n_agents) < 0.6, rounds, rng.integers(1, rounds + 1, n_agents))
    leave[0] = rounds
    snaps = []
    for t in range(1, rounds + 1):
        agents = [a for a in range(n_agents) if t <= leave[a]]
        n = len(agents)
        adjacency = rng.random((n, n)) < 0.5 if t > 1 else np.zeros((n, n), dtype=bool)
        np.fill_diagonal(adjacency, False)
        snaps.append(_snapshot(t, agents, rng.normal(size=(n, k)), adjacency))
    return HistoryBatch.of(snaps)


def _kernel(batch, cfg, params, noise_seed):
    """The kernel's breakdown and gradients, with the tape's noise when sampling."""
    history = _History(batch, cfg)
    noise = None
    if noise_seed is not None:
        noise = np.random.default_rng(noise_seed).standard_normal((history.rows, cfg.d))
    step, grads = _pass_and_grads(history, dict(params.entries()), noise, cfg)
    return step.breakdown, grads


def _assert_relative(actual, expected, bound, what):
    scale = np.max(np.abs(expected))
    err = np.max(np.abs(actual - expected))
    assert err <= bound * scale if scale else err == 0.0, f"{what}: {err:.3g} of {scale:.3g}"


@pytest.mark.parametrize("sampling", [False, True])
@pytest.mark.parametrize(
    "seed, rounds",
    [pytest.param(seed, None, id=str(seed)) for seed in range(12)]
    + [pytest.param(seed, 1, id=f"{seed}-rounds1") for seed in range(12, 16)],
)
def test_kernel_matches_tape_loss_and_every_gradient(seed, rounds, sampling):
    """``rounds`` None draws the history length; 1 takes the single-snapshot form."""
    rng = np.random.default_rng(seed)
    n_agents, drawn = int(rng.integers(1, 9)), int(rng.integers(1, 11))
    rounds = drawn if rounds is None else rounds
    cfg = DetectorConfig(
        k=int(rng.integers(2, 9)),
        d=int(rng.integers(1, 9)),
        alpha=float(rng.uniform(0.0, 1.0)),
        lambda_=float(rng.uniform(0.0, 0.5)),
    )
    params = init_params(cfg, rng)
    batch = _history_with_gaps(rng, n_agents, rounds, cfg.k)
    noise_seed = 100 + seed if sampling else None

    breakdown, grads = _kernel(batch, cfg, params, noise_seed)
    params.zero_grads()

    def noise_rng():
        return None if noise_seed is None else np.random.default_rng(noise_seed)

    reference = tape.run_forward(batch, cfg, params, noise_rng())
    reference.loss_total.backward()
    for field in ("l_att", "l_stru", "kl", "l_total"):
        _assert_relative(getattr(breakdown, field), getattr(reference.breakdown, field), 1e-10, field)
    for name in params.names():
        _assert_relative(grads[name], params.grad(name), 1e-10, name)

    # each term alone, as run_forward's tensors write it
    for term in ("l_att", "l_stru", "kl", "loss_total"):
        params.zero_grads()
        getattr(tape.run_forward(batch, cfg, params, noise_rng()), term).backward()
        expected = {name: params.grad(name).copy() for name in params.names()}
        params.grad("gcn.w0")[:] = np.nan  # backward overwrites every gradient
        getattr(run_forward(batch, cfg, params, noise_rng()), term).backward()
        for name in params.names():
            _assert_relative(params.grad(name), expected[name], 1e-10, f"{term} {name}")


@pytest.mark.parametrize("sampling", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_single_snapshot_closed_form_equals_temporal_fuse(seed, sampling):
    rng = np.random.default_rng(40 + seed)
    cfg = DetectorConfig(
        k=int(rng.integers(2, 9)),
        d=int(rng.integers(1, 9)),
        alpha=float(rng.uniform(0.0, 1.0)),
        lambda_=float(rng.uniform(0.0, 0.5)),
    )
    params = init_params(cfg, rng)
    batch = _history_with_gaps(rng, int(rng.integers(1, 9)), 1, cfg.k)
    history = _History(batch, cfg)
    assert history.single
    noise = rng.standard_normal((history.rows, cfg.d)) if sampling else None
    values = dict(params.entries())

    passes, grads = [], []
    for single in (True, False):  # False: the same history through temporal_fuse
        history.single = single
        step, g = _pass_and_grads(history, values, noise, cfg)
        passes.append(step)
        grads.append(g)
    closed, general = passes
    assert np.array_equal(closed.fused, general.fused)
    assert closed.breakdown == general.breakdown
    for name in values:
        assert np.array_equal(grads[0][name], grads[1][name]), name
    assert not grads[0]["attn.wq"].any() and not grads[0]["attn.wk"].any()

    _, kernel_grads = _kernel(batch, cfg, params, 7 if sampling else None)
    for name, g in kernel_grads.items():
        assert not np.isnan(g).any(), f"{name} not overwritten"


@pytest.mark.parametrize("sampling", [False, True])
def test_kernel_matches_tape_where_log_variance_clamps(sampling):
    rng = np.random.default_rng(25)
    cfg = DetectorConfig(k=6, d=4, lambda_=0.3)
    params = init_params(cfg, rng)
    params.value("gcn.w1")[:, cfg.d :] *= 40.0
    batch = _history_with_gaps(rng, 6, 4, cfg.k)
    step, _ = _pass_and_grads(_History(batch, cfg), dict(params.entries()), None)
    log_var = step.log_var_raw
    assert (np.abs(log_var) > LOGVAR_MAX).any() and (np.abs(log_var) < LOGVAR_MAX).any()

    breakdown, grads = _kernel(batch, cfg, params, 7 if sampling else None)
    reference = tape.run_forward(batch, cfg, params, np.random.default_rng(7) if sampling else None)
    reference.loss_total.backward()
    _assert_relative(breakdown.l_total, reference.breakdown.l_total, 1e-10, "l_total")
    for name in params.names():
        _assert_relative(grads[name], params.grad(name), 1e-10, name)


def test_fit_first_epoch_is_the_tapes_sampled_pass():
    # one noise draw per epoch for all snapshots equals the tape's per-snapshot draws
    rng = np.random.default_rng(22)
    cfg = _small_cfg(lambda_=0.2)
    params = init_params(cfg, rng)
    reference = copy.copy(params)
    batch = _history_with_gaps(rng, 5, 4, cfg.k)
    trace = fit(batch, cfg, params, np.random.default_rng(3), epochs=1)
    on_tape = tape.run_forward(batch, cfg, reference, np.random.default_rng(3))
    on_tape.loss_total.backward()
    _assert_relative(trace[0].l_total, on_tape.breakdown.l_total, 1e-10, "l_total")
    for name in params.names():
        _assert_relative(params.grad(name), reference.grad(name), 1e-10, name)


def _reference_fit(batch, cfg, params, rng, epochs):
    """``fit`` as a plain loop: one noise draw per epoch and the full Adam
    step. It stops at the first non-finite loss, the last of its trace,
    where ``fit`` raises TrainingDiverged."""
    history = _History(batch, cfg)
    values = dict(params.entries())
    trace = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            noise = rng.standard_normal((history.rows, cfg.d))
            step, grads = _pass_and_grads(history, values, noise, cfg)
            trace.append(step.breakdown)
            if not math.isfinite(step.breakdown.l_total):
                break
            for name, grad in grads.items():
                params.grad(name)[...] = grad
            adam_step(params, lr=cfg.lr)
    return trace


def _assert_same_bits(got: ParamStore, expected: ParamStore):
    for buffer in ("_value", "_grad", "_m", "_v"):
        assert getattr(got, buffer).tobytes() == getattr(expected, buffer).tobytes(), buffer
    assert got.step == expected.step


def _record_stepped(monkeypatch):
    """Per Adam step, the shape of each entry it updated, by name."""
    stepped = []
    original = numerics.adam_step

    def recording(store, lr):
        stepped.append({name: value.shape for name, value in store.entries()})
        original(store, lr)

    monkeypatch.setattr(numerics, "adam_step", recording)
    return stepped


def _shapes(store: ParamStore, leave_out=()) -> dict:
    return {name: v.shape for name, v in store.entries() if name not in leave_out}


def test_attention_query_and_key_lead_the_parameter_layout():
    cfg = _small_cfg(d=3)
    store = init_params(cfg, np.random.default_rng(0))
    assert store.names()[:2] == ["attn.wk", "attn.wq"]
    assert store.value("attn.wk").size + store.value("attn.wq").size == 2 * cfg.d * cfg.d


def test_fit_rejects_a_store_not_laid_out_as_the_detector_says():
    # at the defaults gcn.w0 and gcn.w1 are both 64 x 64, so a store laid
    # out in name order has every shape right and gcn.w1 where fit packs
    # the rows of gcn.w0
    cfg = DetectorConfig()
    params = init_params(cfg, np.random.default_rng(0))
    assert params.names()[-1] == "gcn.w0"
    sorted_store = ParamStore({name: params.value(name) for name in sorted(params.names())})
    assert sorted_store.value("gcn.w0").shape == sorted_store.value("gcn.w1").shape
    before = sorted_store._value.copy()
    batch = _history_with_gaps(np.random.default_rng(1), 4, 1, cfg.k)
    with pytest.raises(DetectorError, match="laid out"):
        fit(batch, cfg, sorted_store, np.random.default_rng(2), epochs=1)
    assert sorted_store._value.tobytes() == before.tobytes() and sorted_store.step == 0


@pytest.mark.parametrize("epochs", [0, 1, 12, 70])
@pytest.mark.parametrize("rounds", [1, 3])
def test_fit_equals_a_loop_drawing_noise_per_epoch_with_full_adam_steps(
    monkeypatch, rounds, epochs
):
    rng = np.random.default_rng(30 + rounds)
    cfg = _small_cfg(lambda_=0.2)
    params = init_params(cfg, rng)
    reference = copy.copy(params)
    batch = _history_with_gaps(rng, 5, rounds, cfg.k)
    got_rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    stepped = _record_stepped(monkeypatch)
    trace = fit(batch, cfg, params, got_rng, epochs=epochs)
    monkeypatch.undo()
    assert trace == _reference_fit(batch, cfg, reference, ref_rng, epochs)
    _assert_same_bits(params, reference)
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state
    # a fresh one-snapshot fit leaves the idle query and key out of every
    # step; every feature column is filled, so every other entry moves
    idle = ("attn.wk", "attn.wq") if rounds == 1 else ()
    assert stepped == [_shapes(params, leave_out=idle)] * epochs


def test_a_one_snapshot_fit_after_a_longer_one_still_moves_the_query_and_key(monkeypatch):
    # a carried detector, as in defend_long: the moments a multi-snapshot fit
    # left move attn.wq and attn.wk although their gradients are now zero
    rng = np.random.default_rng(33)
    cfg = _small_cfg()
    params = init_params(cfg, rng)
    reference = copy.copy(params)
    longer, single = _history_with_gaps(rng, 4, 3, cfg.k), _history_with_gaps(rng, 4, 1, cfg.k)
    fit(longer, cfg, params, np.random.default_rng(5), epochs=5)
    _reference_fit(longer, cfg, reference, np.random.default_rng(5), 5)
    before = {name: params.value(name).copy() for name in ("attn.wk", "attn.wq")}
    stepped = _record_stepped(monkeypatch)
    trace = fit(single, cfg, params, np.random.default_rng(6), epochs=5)
    monkeypatch.undo()
    assert trace == _reference_fit(single, cfg, reference, np.random.default_rng(6), 5)
    _assert_same_bits(params, reference)
    assert stepped == [_shapes(params)] * 5
    for name, value in before.items():
        assert not np.array_equal(params.value(name), value), name


def _sparse_history(rng, rounds, k):
    """A history of 2-5 agents whose features fill only some columns, as the
    hashing embedder fills a few of its buckets; none at all, now and then."""
    batch = _history_with_gaps(rng, int(rng.integers(2, 6)), rounds, k)
    filled = rng.random(k) < rng.choice([0.0, 0.3, 0.6, 1.0])
    for snapshot in batch.snapshots:
        snapshot.features.data[:, ~filled] = 0.0
    return batch


# Each example runs a fit and the reference loop on copies of one store.
# An optional earlier fit, on another history whose filled columns differ,
# leaves moments through which rows of gcn.w0 (and attn.wk, attn.wq) can
# move although their gradients are now zero.
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rounds=st.sampled_from([1, 3]),
    earlier_rounds=st.sampled_from([None, 1, 3]),
    epochs=st.sampled_from([0, 1, 12, 70]),
)
def test_fit_stepping_what_can_move_equals_the_full_step(seed, rounds, earlier_rounds, epochs):
    rng = np.random.default_rng(seed)
    cfg = _small_cfg(k=8, lambda_=0.2)
    params = init_params(cfg, rng)
    if earlier_rounds is not None:
        fit(_sparse_history(rng, earlier_rounds, cfg.k), cfg, params, rng, epochs=3)
    # whatever gradient another backward left, a fit ends with the reference's
    params._grad[:] = rng.normal(size=params._grad.size)
    reference = copy.copy(params)
    batch = _sparse_history(rng, rounds, cfg.k)
    noise_seed = int(rng.integers(2**32))
    got_rng, ref_rng = np.random.default_rng(noise_seed), np.random.default_rng(noise_seed)
    trace = fit(batch, cfg, params, got_rng, epochs=epochs)
    assert trace == _reference_fit(batch, cfg, reference, ref_rng, epochs)
    _assert_same_bits(params, reference)
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


def _huge_moment(entry, row):
    """A moment so large that the first update of `entry` overflows."""

    def push(cfg, params, batch):
        params._m[params._spans[entry]].reshape(params.value(entry).shape)[row, 1] = 1e308
        return cfg

    return push


def _empty_buckets_and_overflowing_backward(cfg, params, batch):
    # with every bucket empty gcn.w1 does not reach the loss, but backward
    # multiplies by it: d_h1 is 0 * inf, and every row of gcn.w0 turns NaN
    batch.snapshots[0].features.data[:] = 0.0
    params.value("gcn.w1")[:] = 1.5e308
    return cfg


# case -> (the entry named diverged, or None where the loss overflows an
# epoch later, and what pushes the fit there)
_DIVERGING = {
    "query, moving through its moment": ("attn.wk", _huge_moment("attn.wk", 1)),
    "empty bucket, moving through its moment": ("gcn.w0", _huge_moment("gcn.w0", 0)),
    "whole entry": ("dec.w1", _huge_moment("dec.w1", 2)),
    "no bucket filled, overflowing backward": ("gcn.w0", _empty_buckets_and_overflowing_backward),
    "step size": (None, lambda cfg, params, batch: dataclasses.replace(cfg, lr=1e300)),
}


@pytest.mark.parametrize("case", list(_DIVERGING))
def test_fit_diverges_where_the_full_step_does(case):
    rng = np.random.default_rng(41)
    cfg = _small_cfg(k=8)
    params = init_params(cfg, rng)
    batch = _history_with_gaps(rng, 4, 1, cfg.k)
    batch.snapshots[0].features.data[:, 0] = 0.0  # bucket 0 is empty
    entry, push = _DIVERGING[case]
    cfg = push(cfg, params, batch)
    reference = copy.copy(params)
    with pytest.raises((NonFiniteError, TrainingDiverged)) as info:
        fit(batch, cfg, params, np.random.default_rng(2), epochs=12)
    if entry is None:
        trace = _reference_fit(batch, cfg, reference, np.random.default_rng(2), 12)
        assert type(info.value) is TrainingDiverged and not math.isfinite(trace[-1].l_total)
        assert info.value.epoch == len(trace) - 1 > 0
        assert info.value.breakdown == trace[-2]
    else:
        with pytest.raises(NonFiniteError) as expected:
            _reference_fit(batch, cfg, reference, np.random.default_rng(2), 12)
        assert type(info.value) is NonFiniteError
        assert str(info.value) == str(expected.value)
        assert str(info.value) == f"parameter {entry!r} diverged during adam_step"
    _assert_same_bits(params, reference)


class _FirstFitDone(Exception):
    pass


def test_a_real_first_round_fit_leaves_out_the_rows_of_empty_buckets(monkeypatch):
    # the first episode of the defend_c5 benchmark workload on seed 7: its
    # round-1 fit is a one-snapshot fit from fresh moments on hashed texts
    cfg = harness.ExperimentConfig(
        attack="hallucination", min_rounds=1, n_tasks=20, seed=7, lambda_=1.0 / 199.0,
        carry_params=False,
    )
    seen = {}
    stepped = _record_stepped(monkeypatch)
    real_fit = pipeline.fit

    def first_fit(batch, det_cfg, params, rng, epochs):
        before = params.value("gcn.w0").copy()
        real_fit(batch, det_cfg, params, rng, epochs=epochs)
        seen.update(batch=batch, before=before, params=params, epochs=epochs)
        raise _FirstFitDone

    monkeypatch.setattr(pipeline, "fit", first_fit)
    with pytest.raises(_FirstFitDone):
        harness.run_experiment(cfg)
    (snapshot,) = seen["batch"].snapshots
    filled = snapshot.features.data.any(axis=0)
    assert 0 < filled.sum() < cfg.k
    # every step updates the rows of the filled buckets, and only those
    params = seen["params"]
    moved = (params.value("gcn.w0") != seen["before"]).any(axis=1)
    assert np.array_equal(moved, filled)
    shapes = _shapes(params, leave_out=("attn.wk", "attn.wq"))
    shapes["gcn.w0"] = (filled.sum(), 2 * cfg.d)
    assert stepped == [shapes] * seen["epochs"]
    assert sum(math.prod(shape) for shape in shapes.values()) < params._value.size == 14432


def _arrays(step: _Pass) -> dict[str, bytes]:
    """The bits of every array a pass holds, but the noise and standard
    deviation of an unsampled pass, which it never writes."""
    unwritten = () if step.sampled else ("noise", "std")
    return {
        name: value.tobytes()
        for name, value in vars(step).items()
        if isinstance(value, np.ndarray) and name not in unwritten
    }


def _pass_and_grads(history, values, noise, cfg=None):
    """A pass over `history`, given the whole entries `values`, run as
    ``run_forward`` runs one: over a copy of the rows of gcn.w0 of filled
    buckets, sampling with `noise` unless it is None. With `cfg`, also its
    l_total's gradients, one whole array per entry of `values`, with +0.0
    in the rows of gcn.w0 of empty buckets; without, None."""
    with np.errstate(all="ignore"):
        step = _Pass(history, {**values, "gcn.w0": values["gcn.w0"][history.filled]})
        if noise is not None:
            step.noise[...] = noise
        step.forward(noise is not None)
        if cfg is None:
            return step, None
        grads = {name: np.full_like(value, np.nan) for name, value in step.w.items()}
        step.backward(grads, cfg.alpha, 1.0 - cfg.alpha, cfg.gamma)
    whole = np.zeros_like(values["gcn.w0"])
    whole[history.filled] = grads["gcn.w0"]
    grads["gcn.w0"] = whole
    return step, grads


# Each example draws an edge-free history of 1-3 snapshots (1-5 agents, so
# a one-node history too) and weights at one scale, some of them +-0.0,
# and compares the pass that skips the identity's products with one that
# multiplies by np.eye.
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rounds=st.integers(1, 3),
    scale=st.sampled_from([1e-300, 1e-3, 1.0, 30.0, 1e150]),
    sampling=st.booleans(),
)
def test_an_edge_free_pass_skipping_the_identity_equals_the_dense_product(
    seed, rounds, scale, sampling
):
    rng = np.random.default_rng(seed)
    cfg = _small_cfg(k=int(rng.integers(1, 9)), d=int(rng.integers(1, 6)), lambda_=0.2)
    params = init_params(cfg, rng)
    for _, value in params.entries():
        value *= scale
        zeros = rng.random(value.shape) < 0.2
        value[zeros] = rng.choice([0.0, -0.0], size=np.count_nonzero(zeros))
    batch = _history_with_gaps(rng, int(rng.integers(1, 6)), rounds, cfg.k)
    for snapshot in batch.snapshots:
        snapshot.adjacency[:] = False
    skipping = _History(batch, cfg)
    assert skipping.a_hat is None
    dense = _History(batch, cfg)
    dense.a_hat = np.eye(dense.rows)
    assert normalized_adjacency(batch).data.tobytes() == dense.a_hat.tobytes()
    noise = rng.standard_normal((dense.rows, cfg.d)) if sampling else None
    values = dict(params.entries())
    got, got_grads = _pass_and_grads(skipping, values, noise, cfg)
    expected, expected_grads = _pass_and_grads(dense, values, noise, cfg)
    if not math.isfinite(expected.breakdown.l_total):
        # an inf that I @ would spread as NaN stays in its row; the loss overflows either way
        assert not math.isfinite(got.breakdown.l_total)
        return
    assert got.breakdown == expected.breakdown
    assert _arrays(got) == _arrays(expected)
    for name, grad in expected_grads.items():
        assert got_grads[name].tobytes() == grad.tobytes(), name


# Each example packs a store as fit does, after an optional earlier fit on
# another history whose filled buckets differ, so that rows of empty
# buckets move through their moments, and compares a pass over the packed
# rows, as fit hands them, with one over the rows infer and run_forward
# gather from the whole entry, at widths 2d that are and are not multiples
# of 8; then run_forward's gradient of the whole entry.
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rounds=st.sampled_from([1, 3]),
    earlier_rounds=st.sampled_from([None, 1, 3]),
    d=st.integers(1, 6),
)
def test_a_pass_over_the_packed_rows_of_filled_buckets_equals_one_over_the_whole_entry(
    seed, rounds, earlier_rounds, d
):
    rng = np.random.default_rng(seed)
    cfg = _small_cfg(k=8, d=d, lambda_=0.2)
    params = init_params(cfg, rng)
    if earlier_rounds is not None:
        fit(_sparse_history(rng, earlier_rounds, cfg.k), cfg, params, rng, epochs=3)
    batch = _sparse_history(rng, rounds, cfg.k)
    history = _History(batch, cfg)
    noise_seed = int(rng.integers(2**32))
    noise = np.random.default_rng(noise_seed).standard_normal((history.rows, cfg.d))
    gathered, _ = _pass_and_grads(history, dict(params.entries()), noise)

    first, order, moving = detector._movable(history, params)
    filled = len(history.filled)
    # the rows of filled buckets lead, then the other rows that can move
    assert order[:filled].tolist() == history.filled.tolist()
    can_move = ~history.unfilled | ~params.moments_are_zero("gcn.w0")
    assert sorted(order[:moving]) == np.flatnonzero(can_move).tolist()
    packed = copy.copy(params)
    packed.permute_rows("gcn.w0", order)
    values = dict(packed.entries())
    values["gcn.w0"] = packed.value("gcn.w0")[:filled]
    with np.errstate(all="ignore"):
        step = _Pass(history, values)
        step.noise[...] = noise
        step.forward(True)
        grads = {name: np.full_like(value, np.nan) for name, value in values.items()}
        step.backward(grads, cfg.alpha, 1.0 - cfg.alpha, cfg.gamma)
    assert step.breakdown == gathered.breakdown
    assert _arrays(step) == _arrays(gathered)

    params._grad[:] = np.nan
    with np.errstate(all="ignore"):
        terms = run_forward(batch, cfg, params, np.random.default_rng(noise_seed))
        terms.loss_total.backward()
    assert terms.breakdown == step.breakdown
    assert params.grad("gcn.w0")[history.filled].tobytes() == grads["gcn.w0"].tobytes()
    # the rows of empty buckets get +0.0 bit for bit
    assert not params.grad("gcn.w0")[history.unfilled].view(np.uint64).any()
    for name in grads.keys() - {"gcn.w0"}:
        assert params.grad(name).tobytes() == grads[name].tobytes(), name


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rounds=st.sampled_from([1, 3]))
def test_at_the_default_width_the_filled_rows_give_the_products_over_every_bucket(seed, rounds):
    # The products over every bucket, empty ones included, equal those over
    # the filled buckets at the default 2d = 64. At some other widths (2d
    # mod 8 in 1..4 with this numpy's OpenBLAS), and in one-node histories,
    # BLAS sums them in another order, so their last bits can differ.
    rng = np.random.default_rng(seed)
    cfg = DetectorConfig(k=64, d=32)
    w0 = init_params(cfg, rng).value("gcn.w0")
    batch = _sparse_history(rng, rounds, cfg.k)
    history = _History(batch, cfg)
    every = normalized_adjacency(batch).data @ np.vstack([s.features.data for s in batch.snapshots])
    h1_pre = history.a_hat_x @ w0[history.filled]
    h1_every = every @ w0
    # only a zero's sign can differ, which the activation and its mask drop
    assert np.maximum(h1_pre, 0.0).tobytes() == np.maximum(h1_every, 0.0).tobytes()
    assert np.array_equal(h1_pre > 0.0, h1_every > 0.0)
    d_h1 = rng.standard_normal(h1_pre.shape)
    grad_every = np.dot(every.T, d_h1)
    assert np.dot(history.a_hat_x.T, d_h1).tobytes() == grad_every[history.filled].tobytes()
    assert not grad_every[history.unfilled].any()


# ---------------------------------------------------------------------------
# the pass's preallocated arrays, against the allocating pass
# ---------------------------------------------------------------------------


def _outcome(run):
    """What a call returned, or the divergence it raised."""
    try:
        return run(), None
    except (TrainingDiverged, NonFiniteError) as err:
        return None, err


def _assert_same_outcome(got, expected):
    (value, err), (expected_value, expected_err) = got, expected
    assert type(err) is type(expected_err) and str(err) == str(expected_err)
    if isinstance(err, TrainingDiverged):
        assert (err.epoch, err.breakdown) == (expected_err.epoch, expected_err.breakdown)
    assert value == expected_value


def _recon_bits(result):
    recon, breakdown = result
    return recon.agents, recon.r_x.tobytes(), recon.r_e.tobytes(), breakdown


# Each example fits copies of one store, after an optional earlier fit on a
# longer history that leaves moments and query and key gradients, then
# infers: once through the detector and once through tests/allocating.py.
# Weights at 1e150 overflow the first loss, and a step size of 1e300 a
# later one or Adam; at +-0.0 every product is a signed zero.
@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 8),
    d=st.sampled_from([1, 2, 3, 4, 5, 6, 32]),
    agents=st.integers(1, 5),
    rounds=st.integers(1, 3),
    edges=st.booleans(),
    scale=st.sampled_from([0.0, -0.0, 1e-300, 1.0, 30.0, 1e150]),
    epochs=st.sampled_from([0, 1, 3, 12]),
    earlier=st.booleans(),
    lr=st.sampled_from([0.02, 1e300]),
)
def test_fit_and_infer_equal_the_allocating_pass_bit_for_bit(
    seed, k, d, agents, rounds, edges, scale, epochs, earlier, lr
):
    rng = np.random.default_rng(seed)
    cfg = _small_cfg(k=k, d=d, lambda_=0.2)
    params = init_params(cfg, rng)
    if earlier:
        fit(_history_with_gaps(rng, 3, 3, k), cfg, params, rng, epochs=2)
    cfg = dataclasses.replace(cfg, lr=lr)
    for _, value in params.entries():
        value *= scale
        zeros = rng.random(value.shape) < 0.2
        value[zeros] = rng.choice([0.0, -0.0], size=np.count_nonzero(zeros))
    batch = _history_with_gaps(rng, agents, rounds, k)
    filled = rng.random(k) < rng.choice([0.0, 0.5, 1.0])
    for snapshot in batch.snapshots:
        snapshot.features.data[:, ~filled] = 0.0
        if not edges:
            snapshot.adjacency[:] = False
    reference = copy.copy(params)
    noise_seed = int(rng.integers(2**32))
    got_rng, ref_rng = np.random.default_rng(noise_seed), np.random.default_rng(noise_seed)

    _assert_same_outcome(
        _outcome(lambda: fit(batch, cfg, params, got_rng, epochs=epochs)),
        _outcome(lambda: allocating.fit(batch, cfg, reference, ref_rng, epochs)),
    )
    _assert_same_bits(params, reference)
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state
    with np.errstate(all="ignore"):
        got, expected = _outcome(lambda: infer(batch, cfg, params)), _outcome(
            lambda: allocating.infer(batch, cfg, reference)
        )
    assert (got[1] is None) == (expected[1] is None)
    if got[1] is None:
        assert _recon_bits(got[0]) == _recon_bits(expected[0])
    else:
        assert str(got[1]) == str(expected[1])


# Each example fits and infers twice from one seed: through the compiled
# runner and, with it forced off, through the programs' Python loop.
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([1, 3, 32]),
    rounds=st.integers(1, 3),
    edges=st.booleans(),
    scale=st.sampled_from([-0.0, 1e-300, 1.0, 1e150]),
    epochs=st.sampled_from([0, 1, 4]),
)
def test_fit_and_infer_on_the_python_loop_equal_the_compiled_runner(
    seed, d, rounds, edges, scale, epochs
):
    numerics.program(())
    runner = numerics._runner
    if runner is None:
        pytest.skip("no compiled runner: programs run in a Python loop")
    runs = []
    for handle in (runner, None):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(numerics, "_runner", handle)
            rng = np.random.default_rng(seed)
            cfg = _small_cfg(k=5, d=d, lambda_=0.2)
            params = init_params(cfg, rng)
            for _, value in params.entries():
                value *= scale
            batch = _history_with_gaps(rng, 4, rounds, cfg.k)
            if not edges:
                for snapshot in batch.snapshots:
                    snapshot.adjacency[:] = False
            trace = _outcome(lambda: fit(batch, cfg, params, rng, epochs=epochs))
            with np.errstate(all="ignore"):
                inferred = _outcome(lambda: infer(batch, cfg, params))
        runs.append(
            (
                repr(trace),
                params._block.tobytes(),
                params.step,
                repr(inferred[1]),
                None if inferred[0] is None else _recon_bits(inferred[0]),
            )
        )
    assert runs[0] == runs[1]


def _fit_bits(outcome):
    """A fit's trace as bytes, or the type, message, epoch and last losses of its error."""
    trace, err = outcome
    if err is None:
        return np.array(trace).reshape(-1).tobytes()
    breakdown = getattr(err, "breakdown", None)
    return type(err), str(err), getattr(err, "epoch", None), np.array(breakdown or ()).tobytes()


def _pushed(push, cfg, params, batch):
    """The config of a fit that ``push`` drives to diverge: its first loss
    overflows ("loss"), a later one does ("step size"), or its first Adam
    update leaves a value that is not finite ("moment")."""
    if push == "loss":
        params.value("dec.b1")[:] = 1e200
    elif push == "step size":
        return dataclasses.replace(cfg, lr=1e300)
    elif push == "moment":
        return _huge_moment("dec.w1", 0)(cfg, params, batch)
    elif push == "signed zeros":
        for _, value in params.entries():
            value *= -0.0
    return cfg


# Each example fits one store twice from one seed: through the runner's
# epoch loop and, with one stage function wrapped, so that the fit calls it
# every epoch, through the Python loop.
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([1, 2, 5, 32]),
    agents=st.integers(1, 5),
    rounds=st.integers(1, 3),
    epochs=st.sampled_from([0, 1, 3, 12]),
    earlier=st.booleans(),
    push=st.sampled_from([None, "loss", "step size", "moment", "signed zeros"]),
)
def test_the_runners_epoch_loop_equals_the_python_loop(seed, d, agents, rounds, epochs, earlier, push):
    numerics.program(())
    if numerics._runner is None:
        pytest.skip("no compiled runner: a fit runs its Python loop")
    runs, loops = [], []
    for wrapped in (False, True):
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            original_loop = numerics.fit_epochs
            patch.setattr(numerics, "fit_epochs", lambda *a: calls.append("runner") or original_loop(*a))
            if wrapped:
                original = detector.decode_structure

                def decode_structure(*args, **kwargs):
                    calls.append("stage")
                    return original(*args, **kwargs)

                patch.setattr(detector, "decode_structure", decode_structure)
            rng = np.random.default_rng(seed)
            cfg = _small_cfg(k=5, d=d, lambda_=0.2)
            params = init_params(cfg, rng)
            if earlier:  # moments, and the query's and key's gradients
                fit(_history_with_gaps(rng, 3, 3, cfg.k), cfg, params, rng, epochs=2)
            batch = _history_with_gaps(rng, agents, rounds, cfg.k)
            cfg = _pushed(push, cfg, params, batch)
            calls.clear()
            outcome = _outcome(lambda: fit(batch, cfg, params, rng, epochs=epochs))
        loops.append(set(calls))
        runs.append((_fit_bits(outcome), params._block.tobytes(), params.step, rng.bit_generator.state))
    assert loops[0] == {"runner"} and loops[1] <= {"stage"}
    assert runs[0] == runs[1]
    if push in ("loss", "step size") and epochs > 1:
        assert runs[0][0][0] is TrainingDiverged
    if push == "moment" and epochs > 0:
        assert runs[0][0][:2] == (NonFiniteError, "parameter 'dec.w1' diverged during adam_step")


def test_a_fits_epochs_make_no_python_call_inside_the_runner():
    numerics.program(())
    if numerics._runner is None:
        pytest.skip("no compiled runner: a fit runs its Python loop")
    rng = np.random.default_rng(14)
    cfg = _small_cfg(lambda_=0.2)
    params = init_params(cfg, rng)
    events = []

    def profile(frame, event, arg):
        events.append((event, arg.__name__ if event.startswith("c_") else frame.f_code.co_name))

    for rounds in (1, 3):  # attention's steps stay numpy calls
        batch = _history_with_gaps(rng, 4, rounds, cfg.k)
        events.clear()
        sys.setprofile(profile)
        try:
            fit(batch, cfg, params, rng, epochs=5)
        finally:
            sys.setprofile(None)
        start = events.index(("c_call", "fit_epochs"))
        assert events[start + 1] == ("c_return", "fit_epochs")
        assert events.count(("c_call", "fit_epochs")) == 1


@pytest.mark.parametrize("rounds", [1, 3])
def test_on_a_numpy_the_runner_was_not_checked_against_no_step_is_lowered_and_the_bits_hold(
    rounds,
):
    numerics.program(())
    if numerics._runner is None:
        pytest.skip("no compiled runner: programs run in a Python loop")
    runs = []
    for version in (np.__version__, "2.5.0"):
        programs = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np, "__version__", version)
            original = numerics.program

            def recording(steps):
                programs.append(original(steps))
                return programs[-1]

            patch.setattr(numerics, "program", recording)
            rng = np.random.default_rng(31 + rounds)
            cfg = _small_cfg(k=5, d=3, lambda_=0.2)
            params = init_params(cfg, rng)
            batch = _history_with_gaps(rng, 4, rounds, cfg.k)
            trace = _outcome(lambda: fit(batch, cfg, params, rng, epochs=4))
            inferred = _outcome(lambda: infer(batch, cfg, params))
        lowered = sum(program.lowered for program in programs)
        runs.append((repr(trace), params._block.tobytes(), params.step, _inference_bits(inferred)))
        if version in numerics.VERIFIED_NUMPY:
            assert lowered > 0
        else:
            assert lowered == 0 and len(programs) > 0
    assert runs[0] == runs[1]


def test_a_pass_lowers_its_elementwise_steps_over_contiguous_arrays():
    numerics.program(())
    runner = numerics._runner
    if runner is None:
        pytest.skip("no compiled runner: programs run in a Python loop")
    probe = np.ones((2, 3))
    if runner.lower([(probe.dot, (np.ones((3, 2)), np.empty((2, 2))))]).lowered == 0:
        pytest.skip("the runner found no BLAS in numpy: products stay numpy calls")
    rng = np.random.default_rng(9)
    cfg = _small_cfg(lambda_=0.2)
    params = init_params(cfg, rng)
    structure = detector._bind_decode_structure(rng.normal(size=(5, cfg.d)))[0]
    # z.dot(z.T) is numpy's syrk; the clamp and the sigmoid are six loops
    assert (len(structure.steps), structure.lowered) == (7, 7)
    # what a fit's pass leaves to numpy: over one snapshot, nothing; over
    # three, attention's three reductions along its rows, its take, its 3-D
    # products and the latents' scatter
    left_to_numpy = {
        1: [],
        3: ["__setitem__"] + ["matmul"] * 4 + ["reduce"] * 3 + ["take"],
    }
    for rounds, left in left_to_numpy.items():
        history = _History(_history_with_gaps(rng, 5, rounds, cfg.k), cfg)
        step, _ = _pass_and_grads(history, dict(params.entries()), None)
        grads = {name: np.empty_like(value) for name, value in step.w.items()}
        if history.single:  # as fit leaves them out
            del grads["attn.wk"], grads["attn.wq"]
        backward = step.bound_backward(grads, cfg.alpha, 1.0 - cfg.alpha, cfg.gamma, True)
        programs = [*step.programs, backward]
        steps = [s for p in programs for s in p.steps]
        assert len(steps) - sum(p.lowered for p in programs) == len(left)
        assert sorted(s[0].__name__ for s in steps if runner.lower([s]).lowered == 0) == left


def test_a_passs_programs_hold_its_arrays_but_not_the_pass():
    # a program that held the pass would keep every array of it alive as
    # long as a call bound from it
    rng = np.random.default_rng(12)
    cfg = _small_cfg(lambda_=0.2)
    params = init_params(cfg, rng)
    history = _History(_history_with_gaps(rng, 4, 3, cfg.k), cfg)
    noise = rng.standard_normal((history.rows, cfg.d))
    step, _ = _pass_and_grads(history, dict(params.entries()), noise)
    grads = {name: np.empty_like(value) for name, value in step.w.items()}
    forward, backward = step._forward, step.bound_backward(grads, 0.4, 0.6, 0.01, True)
    expected = step.breakdown
    step.backward(grads, 0.4, 0.6, 0.01)
    expected_grads = {name: grad.tobytes() for name, grad in grads.items()}
    gone = weakref.ref(step)
    del step
    assert gone() is None
    assert forward(True) == expected
    backward()
    assert {name: grad.tobytes() for name, grad in grads.items()} == expected_grads


def _numpy_data() -> list:
    """The traced numpy array data alive now."""
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    )
    return snapshot.traces


def _data_made_after_the_first_epoch(monkeypatch, fit_fn, batch, cfg, params) -> list[str]:
    """Where a three-epoch fit holds numpy array data that was not alive
    when its second epoch began; empty when it holds none.

    Memory is traced from the end of the first epoch, and the traced
    array data is looked at before every bytecode instruction run after
    it, so a temporary shows while it is on the stack. What one numpy call
    allocates and frees again inside itself is not seen."""
    made = []

    def watch(frame, event, arg):
        if made:
            return None
        if event == "call":
            frame.f_trace_opcodes = True
        elif event == "opcode" and _numpy_data():
            made.append(f"{frame.f_code.co_filename}:{frame.f_lineno}")
        return watch

    original, steps = numerics.adam_step, []

    def adam_step(store, lr):
        original(store, lr)
        steps.append(lr)
        if len(steps) == 1:  # the end of the first epoch: watch the frames called from here on
            tracemalloc.start()
            sys.settrace(watch)
        elif len(steps) == 3:  # the end of the last: what follows is the fit's write-back
            sys.settrace(None)

    monkeypatch.setattr(numerics, "adam_step", adam_step)
    try:
        fit_fn(batch, cfg, params, np.random.default_rng(1), 3)
    finally:
        sys.settrace(None)
        tracemalloc.stop()
    assert len(steps) == 3
    return made


@pytest.mark.parametrize("rounds", [1, 4])
def test_no_epoch_after_the_first_allocates_array_data(monkeypatch, rounds):
    rng = np.random.default_rng(rounds)
    cfg = _small_cfg(lambda_=0.2)
    batch = _history_with_gaps(rng, 5, rounds, cfg.k)
    params = init_params(cfg, rng)
    # the probe sees the allocating pass's arrays
    assert _data_made_after_the_first_epoch(monkeypatch, allocating.fit, batch, cfg, copy.copy(params))
    assert _data_made_after_the_first_epoch(monkeypatch, fit, batch, cfg, params) == []


def test_one_pass_writes_each_terms_gradient_whatever_came_before():
    # one pass, its terms' backward() in turn, each as a fresh pass writes it
    rng = np.random.default_rng(80)
    cfg = _small_cfg(lambda_=0.2)
    params = init_params(cfg, rng)
    batch = _history_with_gaps(rng, 4, 3, cfg.k)
    terms = run_forward(batch, cfg, params, np.random.default_rng(81))
    for term in ("kl", "loss_total", "l_att", "kl", "l_stru"):
        getattr(run_forward(batch, cfg, params, np.random.default_rng(81)), term).backward()
        expected = params._grad.copy()
        params._grad[:] = np.nan
        getattr(terms, term).backward()
        assert params._grad.tobytes() == expected.tobytes(), term


def _count_histories(monkeypatch):
    """The final round of every history built from here on."""
    built = []

    class CountingHistory(detector._History):
        def __init__(self, batch, cfg):
            built.append(batch.snapshots[-1].round)
            super().__init__(batch, cfg)

    monkeypatch.setattr(detector, "_History", CountingHistory)
    detector._history.cache_clear()
    return built


def test_a_grad_check_through_run_forward_builds_one_history(monkeypatch):
    built = _count_histories(monkeypatch)
    rng = np.random.default_rng(17)
    cfg = DetectorConfig(k=5, d=3, lambda_=0.05)
    params = init_params(cfg, rng)
    batch = _random_batch(rng, 4, 2, cfg.k)
    err = grad_check(
        _loss_fn(run_forward, batch, cfg, "total"),
        params,
        eps=1e-4,
        rng=np.random.default_rng(0),
        max_coords_per_param=10,
    )
    assert err < 1e-4
    assert built == [2]


def test_infer_after_another_batchs_fit_rebuilds_the_history_it_needs(monkeypatch):
    built = _count_histories(monkeypatch)
    rng = np.random.default_rng(90)
    cfg = _small_cfg(lambda_=0.2)
    first, second = _history_with_gaps(rng, 5, 3, cfg.k), _history_with_gaps(rng, 4, 2, cfg.k)
    params = init_params(cfg, rng)
    fit(first, cfg, params, np.random.default_rng(91), epochs=5)
    fit(second, cfg, params, np.random.default_rng(92), epochs=5)
    cached = _recon_bits(infer(first, cfg, params))
    assert built == [3, 2, 3]
    detector._history.cache_clear()
    assert _recon_bits(infer(first, cfg, params)) == cached
    assert built == [3, 2, 3, 3]


def _fit_and_infer(batch, cfg, params, seed, epochs):
    trace = fit(batch, cfg, params, np.random.default_rng(seed), epochs=epochs)
    return trace, _recon_bits(infer(batch, cfg, params))


def test_two_threads_fitting_two_stores_on_one_batch_equal_the_fits_one_after_the_other():
    # Both threads read the one cached history of the shared batch; each
    # also fits a one-snapshot batch of its own in between, which replaces
    # that cache while the other thread may still be using it.
    rng = np.random.default_rng(50)
    cfg = _small_cfg(k=8, lambda_=0.2)
    shared = _history_with_gaps(rng, 5, 3, cfg.k)
    own = [_history_with_gaps(rng, 4, 1, cfg.k) for _ in range(2)]
    stores = [init_params(cfg, np.random.default_rng(seed)) for seed in (51, 52)]
    sequential = [copy.copy(store) for store in stores]

    def work(i, store):
        return [
            _fit_and_infer(batch, cfg, store, 60 + 10 * i + j, epochs=100)
            for j, batch in enumerate((shared, own[i], shared))
        ]

    expected = [work(i, store) for i, store in enumerate(sequential)]
    results = [None, None]
    start = threading.Barrier(2, timeout=60)

    def worker(i):
        start.wait()
        results[i] = work(i, stores[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == expected
    for store, reference in zip(stores, sequential):
        _assert_same_bits(store, reference)


def test_a_reconstruction_and_a_trace_keep_their_bytes_after_later_fits_and_inferences():
    rng = np.random.default_rng(70)
    cfg = _small_cfg(lambda_=0.2)
    params = init_params(cfg, rng)
    first, other = _history_with_gaps(rng, 4, 1, cfg.k), _history_with_gaps(rng, 4, 1, cfg.k)
    trace = fit(first, cfg, params, rng, epochs=5)
    recon, breakdown = infer(first, cfg, params)
    kept = (list(trace), _recon_bits((recon, breakdown)))
    # the same batch again, then another of the same shapes
    for batch in (first, other):
        fit(batch, cfg, params, rng, epochs=5)
        infer(batch, cfg, params)
    assert (trace, _recon_bits((recon, breakdown))) == kept


def _inference_bits(outcome):
    """An inference's reconstruction and loss bytes, or its error."""
    result, err = outcome
    if err is not None:
        return type(err), str(err)
    recon, breakdown = result
    return recon.agents, recon.r_x.tobytes(), recon.r_e.tobytes(), np.array(breakdown).tobytes()


# Each example fits a store, then infers through the pass the fit left and
# through a history and pass built afresh: as fitted; with the store written
# in between; on another store or another batch, which bind their own pass;
# and after a fit that diverged.
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    agents=st.integers(1, 6),
    rounds=st.integers(1, 4),
    d=st.sampled_from([2, 5, 6, 32]),
    epochs=st.sampled_from([0, 1, 4]),
    case=st.sampled_from(["as fitted", "store written", "another store", "another batch", "diverged"]),
)
def test_infer_after_fit_equals_an_infer_that_binds_its_own_pass(seed, agents, rounds, d, epochs, case):
    rng = np.random.default_rng(seed)
    cfg = _small_cfg(k=8, d=d, lambda_=0.2)
    if case == "diverged":
        cfg, epochs = dataclasses.replace(cfg, lr=1e300), 12
    params = init_params(cfg, rng)
    batch = _history_with_gaps(rng, agents, rounds, cfg.k)
    fitted = _outcome(lambda: fit(batch, cfg, params, rng, epochs=epochs))
    assert (fitted[1] is not None) == (case == "diverged")
    if case == "diverged":
        assert isinstance(fitted[1], TrainingDiverged)
    history, store, step = detector._fitted["pass"]
    assert history is detector._history(batch, cfg) and store is params
    infer_batch, infer_params = batch, params
    if case == "store written":
        for name in ("gcn.w0", "dec.w1"):
            params.value(name)[...] = rng.normal(size=params.value(name).shape)
    elif case == "another store":
        infer_params = copy.copy(params)
    elif case == "another batch":
        infer_batch = _history_with_gaps(rng, agents, rounds, cfg.k)
    with np.errstate(all="ignore"):
        got = _outcome(lambda: infer(infer_batch, cfg, infer_params))
    # an inference on the fit's history and store runs on its pass, and no other does
    reused = got[0] is not None and got[0][0].r_x is step.r_x
    assert reused == (case in ("as fitted", "store written") or case == "diverged" and got[1] is None)
    assert "pass" not in detector._fitted
    detector._history.cache_clear()
    with np.errstate(all="ignore"):
        expected = _outcome(lambda: infer(infer_batch, cfg, infer_params))
    assert _inference_bits(got) == _inference_bits(expected)


@pytest.mark.parametrize("sampling", [False, True])
def test_kernel_gradients_match_finite_differences(sampling):
    # criterion 1's configurations and bound, on the kernel's l_total
    config_rng = np.random.default_rng(1001)
    worst = 0.0
    for i in range(10):
        n = int(config_rng.integers(2, 6))
        rounds = int(config_rng.integers(1, 4))
        d = int(config_rng.integers(2, 9))
        k = int(config_rng.integers(3, 9))
        cfg = DetectorConfig(
            k=k,
            d=d,
            alpha=float(config_rng.uniform(0.2, 0.8)),
            lambda_=float(config_rng.uniform(0.01, 0.5)),
        )
        params = init_params(cfg, np.random.default_rng(2000 + i))
        batch = _random_batch(np.random.default_rng(3000 + i), n, rounds, k, normalize=True)
        history = _History(batch, cfg)
        noise = None
        if sampling:
            noise = np.random.default_rng(5000 + i).standard_normal((history.rows, d))
        values = dict(params.entries())
        _, grads = _pass_and_grads(history, values, noise, cfg)

        def loss():
            return _pass_and_grads(history, values, noise)[0].breakdown.l_total

        coord_rng = np.random.default_rng(4000 + i)
        eps = 1e-4
        for name, value in values.items():
            flat = value.reshape(-1)
            for c in coord_rng.choice(flat.size, size=min(6, flat.size), replace=False):
                orig = flat[c]
                flat[c] = orig + eps
                up = loss()
                flat[c] = orig - eps
                down = loss()
                flat[c] = orig
                numeric = (up - down) / (2.0 * eps)
                analytic = grads[name].reshape(-1)[c]
                worst = max(worst, abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1.0))
    assert worst < 1e-4


def test_fit_overflowing_loss_diverges_at_epoch_zero():
    rng = np.random.default_rng(23)
    cfg = _small_cfg()
    params = init_params(cfg, rng)
    params.value("dec.b1")[:] = 1e200  # squared residuals overflow
    with pytest.raises(TrainingDiverged) as info:
        fit(_random_batch(rng, 3, 2, cfg.k), cfg, params, rng, epochs=10)
    assert info.value.epoch == 0
    assert info.value.breakdown is None


# "loss" overflows the first loss; "step size" takes Adam steps of 1e300,
# so that a later loss overflows
@pytest.mark.parametrize("push", ["loss", "step size"])
def test_a_diverged_fit_leaves_the_generator_after_one_draw_per_epoch_run(push):
    rng = np.random.default_rng(26)
    cfg = _small_cfg()
    params = init_params(cfg, rng)
    batch = _history_with_gaps(rng, 4, 2, cfg.k)
    if push == "loss":
        params.value("dec.b1")[:] = 1e200
    else:
        cfg = dataclasses.replace(cfg, lr=1e300)
    got = np.random.default_rng(27)
    with pytest.raises(TrainingDiverged) as info:
        fit(batch, cfg, params, got, epochs=12)
    epoch = info.value.epoch
    assert (epoch == 0) == (push == "loss") and epoch < 11
    expected = np.random.default_rng(27)
    for _ in range(epoch + 1):
        expected.standard_normal((_History(batch, cfg).rows, cfg.d))
    assert got.bit_generator.state == expected.bit_generator.state


def test_fit_builds_no_tape(monkeypatch):
    rng = np.random.default_rng(24)
    cfg = _small_cfg()
    params = init_params(cfg, rng)
    batch = _random_batch(rng, 4, 3, cfg.k)
    built = []
    original = Tensor2D.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Tensor2D, "__init__", counting)
    fit(batch, cfg, params, rng, epochs=10)
    # one: the batch's block-diagonal adjacency as graph.normalized_adjacency returns it
    assert len(built) == 1


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(20)
    cfg = _small_cfg(lambda_=0.3, alpha=0.7)
    params = init_params(cfg, rng)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, params)
    assert path.read_text().startswith(CHECKPOINT_MAGIC + "\n")
    cfg2, params2 = load_checkpoint(path)
    assert cfg2 == cfg
    assert params2.names() == params.names()
    for name, value in params.entries():
        assert np.array_equal(params2.value(name), value)
    # the loaded store trains like a fresh one
    fit(_random_batch(rng, 3, 2, cfg.k), cfg, params2, np.random.default_rng(1), epochs=2)
    assert params2.step == 2


def test_checkpoint_lists_names_in_order_and_loads_in_layout_order(tmp_path):
    cfg = _small_cfg()
    params = init_params(cfg, np.random.default_rng(20))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, params)
    header, _, body = path.read_text().partition("\n")
    doc = json.loads(body)
    names = [rec["name"] for rec in doc["params"]]
    assert names == sorted(params.names()) != params.names()
    doc["params"].reverse()
    path.write_text(header + "\n" + json.dumps(doc) + "\n")
    _, loaded = load_checkpoint(path)
    assert loaded.names() == params.names()
    assert loaded._value.tobytes() == params._value.tobytes()


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("NOT-A-CKPT\n{}")
    with pytest.raises(DetectorError, match="magic"):
        load_checkpoint(path)


def _write_checkpoint_doc(path, edit):
    cfg = _small_cfg()
    save_checkpoint(path, cfg, init_params(cfg, np.random.default_rng(21)))
    header, _, body = path.read_text().partition("\n")
    doc = json.loads(body)
    edit(doc)
    path.write_text(header + "\n" + json.dumps(doc) + "\n")


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda doc: doc["config"].update(gcn_layers=2), "gcn_layers"),
        (lambda doc: doc["config"].pop("epochs_initial"), "epochs_initial"),
    ],
)
def test_checkpoint_rejects_unknown_or_missing_config_key(tmp_path, edit, key):
    path = tmp_path / "model.ckpt"
    _write_checkpoint_doc(path, edit)
    with pytest.raises(DetectorError, match=key):
        load_checkpoint(path)


def _rename_param(doc, old, new):
    next(rec for rec in doc["params"] if rec["name"] == old)["name"] = new


def _shrink_param(doc, name):
    rec = next(rec for rec in doc["params"] if rec["name"] == name)
    rec["rows"], rec["values"] = rec["rows"] - 1, rec["values"][rec["cols"] :]


@pytest.mark.parametrize(
    "edit, name",
    [
        (lambda doc: _rename_param(doc, "gcn.w1", "gcn.w2"), "gcn.w1"),
        (lambda doc: _shrink_param(doc, "dec.w0"), "dec.w0"),
        (lambda doc: doc["params"][0]["values"].pop(), "attn.wk"),
    ],
)
def test_checkpoint_rejects_params_not_matching_config(tmp_path, edit, name):
    path = tmp_path / "model.ckpt"
    _write_checkpoint_doc(path, edit)
    with pytest.raises(DetectorError, match=name):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "body",
    [
        lambda text: text[: len(text) // 2].encode(),
        lambda text: (CHECKPOINT_MAGIC + "\n[1, 2]\n").encode(),
        lambda text: text.encode()[:-40] + b"\xff\xfe\n",
        lambda text: (CHECKPOINT_MAGIC + "\n" + json.dumps({"config": {}, "params": 3}) + "\n").encode(),
        lambda text: (CHECKPOINT_MAGIC + "\n" + json.dumps({"config": []}) + "\n").encode(),
    ],
    ids=["truncated body", "JSON array body", "not UTF-8", "params not a list", "config not an object"],
)
def test_checkpoint_malformed_file_fails_naming_its_path(tmp_path, body):
    path = tmp_path / "model.ckpt"
    cfg = _small_cfg()
    save_checkpoint(path, cfg, init_params(cfg, np.random.default_rng(21)))
    path.write_bytes(body(path.read_text()))
    with pytest.raises(DetectorError, match=re.escape(f"checkpoint {path}: ")):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc["params"][0].pop("rows"),
        lambda doc: doc["params"][0].update(values="many"),
        lambda doc: doc["params"][0]["values"].__setitem__(0, "x"),
        lambda doc: doc["params"][0]["values"].__setitem__(0, float("nan")),
        lambda doc: doc["config"].update(k="64"),
    ],
    ids=["param record missing a key", "values not a list", "a value not a number", "a NaN value", "k a string"],
)
def test_checkpoint_malformed_record_fails_naming_its_path(tmp_path, edit):
    path = tmp_path / "model.ckpt"
    _write_checkpoint_doc(path, edit)
    with pytest.raises(DetectorError, match=re.escape(f"checkpoint {path}: ")):
        load_checkpoint(path)


def _no_detector(*args, **kwargs):
    raise AssertionError("loading a checkpoint must not build a detector")


def test_checkpoint_shapes_are_checked_against_the_config_without_building_a_detector(
    tmp_path, monkeypatch
):
    # At d = 100000, attn.wk alone is 74.5 GiB; the loader compares the file's
    # shapes with the config's and allocates none of them.
    path = tmp_path / "model.ckpt"
    _write_checkpoint_doc(path, lambda doc: doc["config"].update(d=100_000))
    monkeypatch.setattr(detector, "init_params", _no_detector)
    with pytest.raises(DetectorError, match=re.escape(f"checkpoint {path}: parameter 'attn.wk'")):
        load_checkpoint(path)


def test_checkpoint_missing_file_fails_naming_its_path(tmp_path):
    path = tmp_path / "absent.ckpt"
    with pytest.raises(DetectorError, match=re.escape(f"checkpoint {path}: ")):
        load_checkpoint(path)
