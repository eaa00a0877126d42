"""Reference model for the tests: the detector's pass as it allocated its arrays.

``guardian.detector`` runs a fit's epochs through one pass whose arrays are
allocated once and overwritten in place. Here every stage returns new
arrays, products go through ``@`` and the constants broadcast, as each
epoch once did; ``fit`` and ``infer`` are the detector's, over this pass.
The tests hold the detector to these, bit for bit.

The pass reads the same ``detector._History``, whose constants are now
stored at the latents' shape: ``kl_weight`` multiplies the same values as
its one column did, and the encodings are read back from ``pe_rows``. Like
the detector's, it takes the rows of gcn.w0 of filled buckets and writes
their gradient only.
"""

from __future__ import annotations

import math

import numpy as np

from guardian import numerics as nm
from guardian.detector import (
    LOGVAR_MAX,
    LOGVAR_MIN,
    SIGMOID_CLAMP,
    DetectorError,
    Reconstruction,
    TrainingDiverged,
    _History,
    _layout,
    _movable,
    compose_losses,
)
from guardian.numerics import NonFiniteError

def gcn_forward(a_hat, a_hat_x, w0, w1):
    h1_pre = a_hat_x @ w0
    h1 = np.maximum(h1_pre, 0.0)
    a_hat_h1 = h1 if a_hat is None else a_hat @ h1
    return h1_pre, a_hat_h1, a_hat_h1 @ w1


def split_latent(hidden, d):
    log_var_raw = hidden[:, d:]
    return hidden[:, :d], log_var_raw, np.minimum(np.maximum(log_var_raw, LOGVAR_MIN), LOGVAR_MAX)


def reparameterize(mean, log_var, noise):
    if noise is None:
        return mean, None
    std = np.exp(log_var * 0.5)
    return mean + std * noise, std


def _pe(h):
    """One encoding per round: the rows of final agent 0."""
    return h.pe_rows[h.gather[0]]


def temporal_fuse(z, h, wq, wk, wv):
    seq = z[h.gather] + _pe(h)
    q = seq[:, -1] @ wq
    u = q @ wk.T
    logits = (seq @ u[:, :, None])[:, :, 0] * h.inv_sqrt_d
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    attn = e / e.sum(axis=1, keepdims=True)
    context = (attn[:, None, :] @ seq)[:, 0]
    return seq, q, u, attn, context, context @ wv


def decode_attributes(z, w0, b0, w1, b1):
    pre = z @ w0 + b0
    hidden = np.maximum(pre, 0.0)
    return pre, hidden, hidden @ w1 + b1


def decode_structure(z):
    clamped = np.minimum(np.maximum(z @ z.T, -SIGMOID_CLAMP), SIGMOID_CLAMP)
    return 1.0 / (1.0 + np.exp(-clamped))


class Pass:
    """One forward pass over a whole history and its backward pass, every
    intermediate a new array. ``w["gcn.w0"]`` and ``g["gcn.w0"]`` are the
    rows of filled buckets."""

    def __init__(self, h: _History, w: dict[str, np.ndarray], noise: np.ndarray | None):
        self.h, self.w, self.noise = h, w, noise
        self.h1_pre, self.a_hat_h1, hidden = gcn_forward(
            h.a_hat, h.a_hat_x, w["gcn.w0"], w["gcn.w1"]
        )
        self.mean, self.log_var_raw, self.log_var = split_latent(hidden, h.d)
        self.var = np.exp(self.log_var)
        z, self.std = reparameterize(self.mean, self.log_var, noise)
        kl = float(((self.var + self.mean * self.mean - 1.0 - self.log_var) * h.kl_weight).sum())

        if h.single:
            self.context = z + _pe(h)
            self.fused = self.context @ w["attn.wv"]
        else:
            self.seq, self.q, self.u, self.attn, self.context, self.fused = temporal_fuse(
                z, h, w["attn.wq"], w["attn.wk"], w["attn.wv"]
            )
        self.dec_pre, self.dec_h, self.x_hat = decode_attributes(
            self.fused, w["dec.w0"], w["dec.b0"], w["dec.w1"], w["dec.b1"]
        )
        self.edge_probs = decode_structure(self.fused)

        n = len(h.features)
        self.r_x = h.features - self.x_hat
        l_att = float((self.r_x * self.r_x).sum()) * (1.0 / n)
        likelihood = np.where(h.edge, self.edge_probs, 1.0 - self.edge_probs)
        l_stru = float(np.log(likelihood).sum()) * (-1.0 / (n * n))
        self.breakdown = compose_losses(l_att, l_stru, kl, h.alpha, h.gamma)

    def backward(self, g: dict[str, np.ndarray], c_att: float, c_stru: float, c_kl: float) -> None:
        h, w = self.h, self.w
        n, d = len(h.features), h.d
        d_x_hat = self.r_x * (-2.0 * c_att / n)
        d_logits = (self.edge_probs - h.target) * (c_stru / (n * n))

        np.dot(self.dec_h.T, d_x_hat, out=g["dec.w1"])
        g["dec.b1"][:] = d_x_hat.sum(axis=0)
        d_dec = (d_x_hat @ w["dec.w1"].T) * (self.dec_pre > 0.0)
        np.dot(self.fused.T, d_dec, out=g["dec.w0"])
        g["dec.b0"][:] = d_dec.sum(axis=0)
        d_fused = d_dec @ w["dec.w0"].T + (d_logits + d_logits.T) @ self.fused

        np.dot(self.context.T, d_fused, out=g["attn.wv"])
        d_context = d_fused @ w["attn.wv"].T
        if h.single:
            g["attn.wk"].fill(0.0)
            g["attn.wq"].fill(0.0)
            d_z = d_context
        else:
            d_attn = (self.seq @ d_context[:, :, None])[:, :, 0]
            inner = (self.attn * d_attn).sum(axis=1, keepdims=True)
            d_scores = self.attn * (d_attn - inner) * h.inv_sqrt_d
            d_seq = self.attn[:, :, None] * d_context[:, None, :]
            d_seq += d_scores[:, :, None] * self.u[:, None, :]
            d_u = (d_scores[:, None, :] @ self.seq)[:, 0]
            d_q = d_u @ w["attn.wk"]
            np.dot(d_u.T, self.q, out=g["attn.wk"])
            np.dot(self.seq[:, -1].T, d_q, out=g["attn.wq"])
            d_seq[:, -1] += d_q @ w["attn.wq"].T
            d_z = np.zeros((h.rows, d))
            d_z[h.gather] = d_seq

        d_hidden = np.empty((h.rows, 2 * d))
        d_hidden[:, :d] = d_z + (2.0 * c_kl) * h.kl_weight * self.mean
        d_log_var = c_kl * h.kl_weight * (self.var - 1.0)
        if self.noise is not None:
            d_log_var += d_z * self.noise * self.std * 0.5
        d_hidden[:, d:] = d_log_var * (self.log_var == self.log_var_raw)

        np.dot(self.a_hat_h1.T, d_hidden, out=g["gcn.w1"])
        d_h1 = d_hidden @ w["gcn.w1"].T
        if h.a_hat is not None:
            d_h1 = h.a_hat.T @ d_h1
        d_h1 *= self.h1_pre > 0.0
        np.dot(h.a_hat_x.T, d_h1, out=g["gcn.w0"])


def fit(batch, cfg, params, rng, epochs):
    """``detector.fit`` over ``Pass``: the packed Adam steps, one new pass per epoch."""
    history = _History(batch, cfg)
    if params.layout != _layout(cfg.k, cfg.d):
        raise DetectorError(f"fit needs the parameters laid out as {list(_layout(cfg.k, cfg.d))}")
    coefficients = (cfg.alpha, 1.0 - cfg.alpha, cfg.gamma)
    first, order, moving = _movable(history, params)
    stepped = params.tail(first, moving)
    n_filled = len(history.filled)
    packed_grad = params.grad("gcn.w0")[:moving]
    values = dict(params.entries())
    grads = {name: params.grad(name) for name in values}
    values["gcn.w0"], grads["gcn.w0"] = params.value("gcn.w0")[:n_filled], packed_grad[:n_filled]
    trace = []
    params.permute_rows("gcn.w0", order)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(epochs):
                step = Pass(history, values, rng.standard_normal((history.rows, cfg.d)))
                if not math.isfinite(step.breakdown.l_total):
                    raise TrainingDiverged(
                        epoch, trace[-1] if trace else None, f"non-finite loss {step.breakdown}"
                    )
                trace.append(step.breakdown)
                step.backward(grads, *coefficients)
                if epoch == 0:
                    packed_grad[n_filled:] = 0.0
                nm.adam_step(stepped, lr=cfg.lr)
    finally:
        params.step = stepped.step
        params.permute_rows("gcn.w0", np.argsort(order))
        if trace:
            params.grad("gcn.w0")[history.unfilled] = 0.0
    return trace


def infer(batch, cfg, params):
    """``detector.infer`` over ``Pass``."""
    history = _History(batch, cfg)
    values = dict(params.entries())
    values["gcn.w0"] = params.value("gcn.w0")[history.filled]
    with np.errstate(over="ignore", invalid="ignore"):
        result = Pass(history, values, noise=None)
    if not math.isfinite(result.breakdown.l_total):
        raise NonFiniteError(f"non-finite loss at inference: {result.breakdown}")
    recon = Reconstruction(
        agents=list(batch.snapshots[-1].agents),
        r_x=result.r_x,
        r_e=history.target - result.edge_probs,
    )
    return recon, result.breakdown
