"""Unsupervised detector over temporal agent graphs.

Per round the pipeline feeds a batch of snapshots through:

  1. a shared two-layer graph convolution producing, per node, a mean and
     a log-variance (encoder output width 2d, split in half),
  2. a diagonal-Gaussian reparameterization whose KL to a standard normal
     prior is the information-compression penalty,
  3. per-agent self-attention across rounds that fuses the latent
     trajectory into one embedding per currently active agent,
  4. two decoders: a 2-layer perceptron rebuilding node attributes and an
     inner-product decoder rebuilding the (self-looped, symmetrized)
     adjacency.

Training minimizes  l_total = alpha*l_att + (1-alpha)*l_stru + gamma*kl
by full-batch Adam; inference disables sampling and hands the
reconstruction residuals to the scoring module.

The model is one pass in batched numpy over the whole history
(``_Pass``): the stage functions ``gcn_forward`` through
``decode_structure`` run it forward, and its hand-written backward pass
gives the gradient of any weighted sum of l_att, l_stru and kl. The pass
writes into arrays it allocates once and binds every operand once, as
programs of numpy calls that each run as one call (``numerics.program``),
so ``fit`` runs every epoch in one workspace, its noise drawn into the
pass's own array; ``infer`` runs it once, and ``run_forward`` exposes one
pass's loss terms as 1x1 tensors whose ``backward()`` writes that term's
gradient. A round's fit and infer share one history (``_history``) and
one pass: the pass owns its rows of gcn.w0, which a sampled forward first
copies from the rows it was handed (in a fit, the store's packed rows that
Adam steps), and ``infer`` on the history and store of the last fit
(``_fitted``) gathers the store's current rows into that pass and runs it
once, unsampled, where any other call binds a pass of its own.

An epoch is one noise draw, seven or eight program calls forward, one
backward and one compiled Adam step, with no dict lookup, per-epoch view
or new array (``tests/test_detector.py`` traces numpy's allocations to
check it). The compiled runner runs a program's ufunc steps as numpy's
own inner loops and its ``a.dot`` of two matrices as numpy's gemm or syrk
call, bit for bit; a row's, a column's (one agent, say) or ``a.T.dot(a)``
stays a numpy call. Of a round-1 fit's 69 steps on seed-7 ``defend_c5``
it runs 63 so, all but the five reductions and ``putmask``. Of a
two-snapshot fit's 99 it runs 81: attention adds 12 numpy calls, three
reductions, its ``take``, four 3-D ``np.matmul`` calls, two products over
the strided last rows of ``seq`` (numpy copies them first) and the fill and
scatter of the latents' gradient. The pass's results are bit for bit those
of the allocating pass that ``tests/allocating.py`` keeps as the reference.

Every pass skips the products whose operands are exact zeros or the
identity: the first layer multiplies only the rows of gcn.w0 of filled
embedder buckets (``_History.filled``), the only rows a pass is handed,
and a history with no edge, such as every first round, skips both
products with its identity adjacency. At the default width (d = 32) the
scores are bit for bit those of the full products. At some other widths
(2d mod 8 in 1..4, with the OpenBLAS numpy ships) and in a one-node
history, BLAS sums the shorter products in another order, so the last
bits of a score can differ.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import numerics as nm
from .graph import HistoryBatch, normalized_adjacency
from .numerics import NonFiniteError, ParamStore, Tensor2D

__all__ = [
    "DetectorError",
    "TrainingDiverged",
    "DetectorConfig",
    "Reconstruction",
    "LossBreakdown",
    "gib_gamma",
    "init_params",
    "gcn_forward",
    "split_latent",
    "reparameterize",
    "kl_term",
    "positional_encoding",
    "temporal_fuse",
    "decode_attributes",
    "decode_structure",
    "compose_losses",
    "LossTerms",
    "run_forward",
    "fit",
    "infer",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_MAGIC",
]

CHECKPOINT_MAGIC = "GUARDIAN-CKPT-1"

LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0
# Edge logits are clamped here so the structure loss stays finite for saturated logits.
SIGMOID_CLAMP = 30.0


class DetectorError(ValueError):
    pass


class TrainingDiverged(RuntimeError):
    """Raised when a loss goes non-finite; carries epoch and last breakdown."""

    def __init__(self, epoch: int, breakdown: "LossBreakdown | None", cause: str):
        self.epoch = epoch
        self.breakdown = breakdown
        super().__init__(
            f"training diverged at epoch {epoch}: {cause}; last finite losses: {breakdown}"
        )


def gib_gamma(lambda_: float, beta: float) -> float:
    """Effective weight of the compression term: lambda / (1 + lambda*beta)."""
    if lambda_ < 0.0 or beta < 0.0:
        raise DetectorError("gib_gamma requires lambda >= 0 and beta >= 0")
    return lambda_ / (1.0 + lambda_ * beta)


@dataclass(frozen=True)
class DetectorConfig:
    k: int = 64
    d: int = 32
    alpha: float = 0.4
    beta: float = 1.0
    lambda_: float = 0.01
    lr: float = 0.02
    epochs_initial: int = 50
    epochs_incremental: int = 10
    seed: int = 0
    variant: str = "temporal"

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise DetectorError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 < self.beta < math.inf:
            raise DetectorError(f"beta must be finite and > 0, got {self.beta}")
        if not 0.0 <= self.lambda_ < math.inf:
            raise DetectorError(f"lambda must be finite and >= 0, got {self.lambda_}")
        if not 0.0 < self.lr < math.inf:
            raise DetectorError(f"lr must be finite and > 0, got {self.lr}")
        for name in ("k", "d"):
            if getattr(self, name) < 1:
                raise DetectorError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("epochs_initial", "epochs_incremental"):
            if getattr(self, name) < 0:
                raise DetectorError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.variant not in ("temporal", "static"):
            raise DetectorError(f"unknown variant {self.variant!r}")

    @property
    def gamma(self) -> float:
        return gib_gamma(self.lambda_, self.beta)


@dataclass
class Reconstruction:
    """The final snapshot's residuals, one row per agent of ``agents``."""

    agents: list[int]
    r_x: np.ndarray  # observed attributes minus the decoded ones
    r_e: np.ndarray  # observed (self-looped symmetrized) adjacency minus the edge probabilities


class LossBreakdown(NamedTuple):
    l_att: float
    l_stru: float
    l_rec: float
    kl: float
    l_total: float


def compose_losses(
    l_att: float, l_stru: float, kl: float, alpha: float, gamma: float
) -> LossBreakdown:
    l_rec = alpha * l_att + (1.0 - alpha) * l_stru
    l_total = l_rec + gamma * kl
    return LossBreakdown(l_att, l_stru, l_rec, kl, l_total)


def _param_shapes(cfg: DetectorConfig) -> dict[str, tuple[int, int]]:
    """Every parameter's (rows, cols), in the order of the store's layout;
    ``.b*`` names are biases.

    What a fit can freeze lies at the two ends (see ``_movable``): the
    attention query and key first, gcn.w0 last, so that Adam steps one
    contiguous span of the store.
    """
    k, d = cfg.k, cfg.d
    return {
        "attn.wk": (d, d),
        "attn.wq": (d, d),
        "attn.wv": (d, d),
        "dec.b0": (1, d),
        "dec.b1": (1, k),
        "dec.w0": (d, d),
        "dec.w1": (d, k),
        "gcn.w1": (2 * d, 2 * d),
        "gcn.w0": (k, 2 * d),
    }


def init_params(cfg: DetectorConfig, rng: np.random.Generator) -> ParamStore:
    """Glorot-uniform weights, zero biases. Draw order is fixed by name:
    each weight is drawn and copied into a store laid out once."""
    params = nm.zero_store(_layout(cfg.k, cfg.d))
    for name, shape in sorted(params.layout):
        if ".b" not in name:
            bound = math.sqrt(6.0 / sum(shape))
            params.value(name)[...] = rng.uniform(-bound, bound, size=shape)
    return params


# Constant operands as 0-d arrays: numpy converts a Python float anew in every call.
_ZERO, _HALF, _ONE = np.array(0.0), np.array(0.5), np.array(1.0)
_LOGVAR_MIN, _LOGVAR_MAX = np.array(LOGVAR_MIN), np.array(LOGVAR_MAX)
_CLAMP_LOW, _CLAMP_HIGH = np.array(-SIGMOID_CLAMP), np.array(SIGMOID_CLAMP)


def _product(a: np.ndarray):
    """``a @ b`` of 2-D arrays into ``out``, bit for bit, as the call ``(b, out)``.

    ``a.dot`` costs least per call and gives the bits of ``np.dot``, which
    equal those of ``@`` except over an inner dimension of 1: there it
    scales instead of summing products, so that a -0.0 product stays -0.0
    and inf * 0.0 can give 0.0, not NaN. Those products go through
    ``np.matmul``. A program runs ``a.dot`` of two matrices as numpy's
    gemm or syrk call, and any other product as the numpy call it is.
    """
    return a.dot if a.shape[1] != 1 else functools.partial(np.matmul, a)


# Each stage function runs one stage of the pass. ``bound`` is the stage as
# its ``_bind_*`` function binds it once to its operands and to arrays it
# writes in place: a program of the stage's numpy calls (``nm.program``),
# run as one call, and the stage's result, the same tuple of those arrays
# every time. None binds it to new arrays. np.maximum and np.minimum take
# their output as out=: numpy deprecates a third positional argument to them.


def gcn_forward(
    a_hat: np.ndarray | None, a_hat_x: np.ndarray, w0: np.ndarray, w1: np.ndarray, bound=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two rounds of propagate-and-transform; the last layer stays linear
    so the downstream mean/log-variance split is sign-unconstrained.

    ``a_hat_x`` is ``a_hat @ features``, which a fit holds fixed, in the
    columns of the filled buckets (``_History.filled``), and ``w0`` the
    rows of gcn.w0 that meet them.
    ``a_hat`` None stands for the identity, the normalized adjacency of a
    history with no edge: the first layer's finite outputs are >= +0.0,
    so ``I @`` them gives them back bit for bit, and the product is
    skipped. Returns the first layer's pre-activation, ``a_hat`` times its
    output, and the encoder output.
    """
    run, result = bound or _bind_gcn(a_hat, a_hat_x, w0, w1)
    run()
    return result


def _bind_gcn(a_hat, a_hat_x, w0, w1):
    steps, result = _gcn_steps(a_hat, a_hat_x, w0, w1)
    return nm.program(steps), result


def _gcn_steps(a_hat, a_hat_x, w0, w1):
    shape = (len(a_hat_x), w0.shape[1])
    h1_pre, h1 = np.empty(shape), np.empty(shape)
    a_hat_h1 = h1 if a_hat is None else np.empty(shape)
    hidden = np.empty((len(a_hat_x), w1.shape[1]))
    steps = [(_product(a_hat_x), (w0, h1_pre)), (np.maximum, (h1_pre, _ZERO), {"out": h1})]
    if a_hat is not None:
        steps.append((_product(a_hat), (h1, a_hat_h1)))
    steps.append((_product(a_hat_h1), (w1, hidden)))
    return steps, (h1_pre, a_hat_h1, hidden)


def split_latent(
    hidden: np.ndarray, d: int, bound=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Encoder output's mean half, its log-variance half, and that half
    clamped to [LOGVAR_MIN, LOGVAR_MAX]."""
    run, result = bound or _bind_split_latent(hidden, d)
    run()
    return result


def _bind_split_latent(hidden, d):
    log_var_raw = hidden[:, d:]
    log_var = np.empty(log_var_raw.shape)
    # np.minimum/np.maximum clamp like np.clip, at a fraction of its call overhead
    steps = [
        (np.maximum, (log_var_raw, _LOGVAR_MIN), {"out": log_var}),
        (np.minimum, (log_var, _LOGVAR_MAX), {"out": log_var}),
    ]
    return nm.program(steps), (hidden[:, :d], log_var_raw, log_var)


def reparameterize(
    mean: np.ndarray, log_var: np.ndarray, noise: np.ndarray | None, bound=None
) -> tuple[np.ndarray, np.ndarray | None]:
    """The sample mean + exp(log_var / 2) * noise and that standard
    deviation; the mean and None when noise is None (inference). The bound
    stage samples with the noise array it was bound to."""
    if noise is None:
        return mean, None
    run, result = bound or _bind_reparameterize(mean, log_var, noise)
    run()
    return result


def _bind_reparameterize(mean, log_var, noise):
    std, sample = np.empty(log_var.shape), np.empty(log_var.shape)
    steps = [
        (np.multiply, (log_var, _HALF, std)),
        (np.exp, (std, std)),
        (np.multiply, (std, noise, sample)),
        (np.add, (mean, sample, sample)),
    ]
    return nm.program(steps), (sample, std)


def kl_term(mean: Tensor2D, log_variance: Tensor2D) -> Tensor2D:
    """Per-node average KL( N(mean, exp(logvar)) || N(0, I) ), a 1x1 tensor."""
    if mean.shape != log_variance.shape:
        raise DetectorError("mean and log-variance shapes differ")
    m, log_var = mean.data, log_variance.data
    inner = np.exp(log_var) + m * m - 1.0 - log_var
    return Tensor2D([[inner.sum() * (0.5 / len(m))]])


@functools.cache
def _pe_divisors(d: int) -> np.ndarray:
    divisors = np.array([10000.0 ** (2 * (j // 2) / d) for j in range(d)])
    divisors.flags.writeable = False
    return divisors


def positional_encoding(rounds: list[int], d: int) -> np.ndarray:
    """Sinusoidal encodings of absolute round numbers, one row per round:
    sin in even columns, cos in odd ones, of ``t / 10000 ** (2 * (j // 2) / d)``."""
    return _pe_table(tuple(rounds), d).copy()


@functools.lru_cache(maxsize=64)  # every episode's histories encode the same rounds
def _pe_table(rounds: tuple[int, ...], d: int) -> np.ndarray:
    angles = np.asarray(rounds, dtype=np.float64)[:, None] / _pe_divisors(d)
    pe = np.cos(angles)
    pe[:, 0::2] = np.sin(angles[:, 0::2])
    pe.flags.writeable = False
    return pe


def temporal_fuse(
    z: np.ndarray,
    h: _History,
    wq: np.ndarray,
    wk: np.ndarray,
    wv: np.ndarray,
    bound=None,
) -> tuple[np.ndarray, ...]:
    """Fuse each final-round agent's latent trajectory with self-attention.

    Only the last attention position feeds the decoders, so each final
    agent's fused row is its last query attending, in one softmax, over
    every round of the history: an agent active at the final round was
    active in all earlier ones. With a single round this is the value
    projection of that round's latent row. Returns the position-encoded
    sequences, the last queries, ``u`` = query @ wk.T, the attention
    weights, the attended contexts and the fused rows. The bound stage
    reads the ``z`` it was bound to.
    """
    run, result = bound or _bind_temporal_fuse(z, h, wq, wk, wv)
    run()
    return result


def _bind_temporal_fuse(z, h, wq, wk, wv):
    (n, t), d = h.gather.shape, h.d
    encoded, seq = np.empty(h.pe_rows.shape), np.empty((n, t, d))
    q, u, scores, peak = np.empty((n, d)), np.empty((n, d)), np.empty((n, t, 1)), np.empty((n, 1))
    attn, total, context = np.empty((n, t)), np.empty((n, 1)), np.empty((n, 1, d))
    fused, context_rows, logits = np.empty((n, wv.shape[1])), context[:, 0], scores[:, :, 0]
    steps = [
        # each node's round's encoding added before the gather: the same sums
        (np.add, (z, h.pe_rows, encoded)),
        (encoded.take, (h.gather, 0, seq, "clip")),  # gather is in range
        (_product(seq[:, -1]), (wq, q)),
        (_product(q), (wk.T, u)),  # q . (seq_t wk) == seq_t . u
        (np.matmul, (seq, u[:, :, None], scores)),
        (np.multiply, (logits, np.array(h.inv_sqrt_d), logits)),
        (np.maximum.reduce, (logits, 1, None, peak.reshape(-1))),
        (np.subtract, (logits, peak, attn)),
        (np.exp, (attn, attn)),
        (np.add.reduce, (attn, 1, None, total.reshape(-1))),
        (np.divide, (attn, total, attn)),
        (np.matmul, (attn[:, None, :], seq, context)),
        (_product(context_rows), (wv, fused)),
    ]
    return nm.program(steps), (seq, q, u, attn, context_rows, fused)


def decode_attributes(
    z: np.ndarray,
    w0: np.ndarray,
    b0: np.ndarray,
    w1: np.ndarray,
    b1: np.ndarray,
    bound=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The attribute decoder's hidden pre-activation, hidden layer and output."""
    run, result = bound or _bind_decode_attributes(z, w0, b0, w1, b1)
    run()
    return result


def _bind_decode_attributes(z, w0, b0, w1, b1):
    pre, hidden = np.empty((len(z), w0.shape[1])), np.empty((len(z), w0.shape[1]))
    x_hat = np.empty((len(z), w1.shape[1]))
    steps = [
        (_product(z), (w0, pre)),
        (np.add, (pre, b0, pre)),
        (np.maximum, (pre, _ZERO), {"out": hidden}),
        (_product(hidden), (w1, x_hat)),
        (np.add, (x_hat, b1, x_hat)),
    ]
    return nm.program(steps), (pre, hidden, x_hat)


def decode_structure(z: np.ndarray, bound=None) -> np.ndarray:
    """Edge probabilities sigmoid(z_i . z_j) over all ordered pairs, the
    logits clamped to +-SIGMOID_CLAMP so that both logs of the loss stay finite."""
    run, probs = bound or _bind_decode_structure(z)
    run()
    return probs


def _bind_decode_structure(z):
    probs = np.empty((len(z), len(z)))
    steps = [
        (_product(z), (z.T, probs)),  # z.dot(z.T) is one symmetric rank-k update
        (np.maximum, (probs, _CLAMP_LOW), {"out": probs}),
        (np.minimum, (probs, _CLAMP_HIGH), {"out": probs}),
        (np.negative, (probs, probs)),
        (np.exp, (probs, probs)),
        (np.add, (probs, _ONE, probs)),
        (np.divide, (_ONE, probs, probs)),
    ]
    return nm.program(steps), probs


@dataclass(frozen=True)
class LossTerms:
    """One pass's loss terms as 1x1 tensors. ``backward()`` on any of them
    overwrites the store's gradients with that term's gradient."""

    l_att: Tensor2D
    l_stru: Tensor2D
    kl: Tensor2D
    loss_total: Tensor2D
    breakdown: LossBreakdown


def run_forward(
    batch: HistoryBatch,
    cfg: DetectorConfig,
    params: ParamStore,
    rng: np.random.Generator | None,
) -> LossTerms:
    """One pass of the model, as ``fit`` runs it; rng=None disables sampling (inference).

    The pass multiplies a copy of the rows of gcn.w0 of filled buckets; a
    term's ``backward()`` writes their gradient into the whole entry, and
    +0.0 into the rows of empty buckets.
    """
    history = _history(batch, cfg)
    values = dict(params.entries())
    values["gcn.w0"] = params.value("gcn.w0")[history.filled]
    step = _Pass(history, values)
    if rng is not None:
        rng.standard_normal(out=step.noise)
    b = step.forward(rng is not None)
    grads = {name: params.grad(name) for name in params.names()}
    g_w0, packed = grads["gcn.w0"], np.empty(values["gcn.w0"].shape)
    grads["gcn.w0"] = packed

    def backward(*coefficients: float) -> None:
        step.backward(grads, *coefficients)
        g_w0[history.unfilled] = 0.0
        g_w0[history.filled] = packed

    def term(value: float, *coefficients: float) -> Tensor2D:
        return Tensor2D([[value]], backward=lambda: backward(*coefficients))

    return LossTerms(
        l_att=term(b.l_att, 1.0, 0.0, 0.0),
        l_stru=term(b.l_stru, 0.0, 1.0, 0.0),
        kl=term(b.kl, 0.0, 0.0, 1.0),
        loss_total=term(b.l_total, cfg.alpha, 1.0 - cfg.alpha, cfg.gamma),
        breakdown=b,
    )


class _History:
    """What one fit or inference holds fixed over its epochs.

    The snapshots are stacked row-wise into ``rows`` nodes, so each graph
    convolution is one product with the batch's block-diagonal normalized
    adjacency. ``gather[i, t]`` is the row of final agent i in snapshot t;
    a final agent missing from an earlier snapshot is a DetectorError.
    """

    def __init__(self, batch: HistoryBatch, cfg: DetectorConfig):
        snapshots = batch.snapshots
        if not snapshots:
            raise DetectorError("empty snapshot batch")
        final = snapshots[-1]
        if not final.agents:
            raise DetectorError("no active agents at the final round")
        features = np.concatenate([s.features.data for s in snapshots])
        if features.shape[1] != cfg.k:
            raise DetectorError(
                f"feature dim {features.shape[1]} does not match encoder input {cfg.k}"
            )
        sizes = [len(s.agents) for s in snapshots]
        self.rows, n = len(features), sizes[-1]
        a_hat = normalized_adjacency(batch).data
        # Its diagonal is positive and an entry off it is non-zero exactly
        # where an edge is (snapshots have no self-loop), so with no edge
        # a_hat is exactly the identity, whose products _Pass skips. The
        # final block's non-zero entries are the final snapshot's
        # self-looped, symmetrized adjacency: the structure target.
        self.a_hat = a_hat if np.count_nonzero(a_hat) > self.rows else None
        self.edge = a_hat[-n:, -n:] > 0.0
        self.target = self.edge.astype(np.float64)
        a_hat_x = a_hat @ features
        # The buckets the embedder filled: the rows of gcn.w0 that meet a
        # non-zero column of a_hat_x. The others add only exact zeros to
        # the first layer and get a zero gradient, so the passes leave them
        # out. With none filled every row is kept, so that a non-finite
        # d_h1 still reaches every row's gradient, as 0 * inf is NaN.
        filled = a_hat_x.any(axis=0)
        if not filled.any():
            filled[:] = True
        self.filled, self.unfilled = np.flatnonzero(filled), ~filled
        self.a_hat_x = a_hat_x.take(self.filled, 1)
        self.gather = _gather(snapshots)
        # kl is the mean over snapshots of the per-node average KL; this
        # constant and the positional rows below are stored at the latents'
        # shape, so that a pass multiplies and adds them without broadcasting
        weights = np.repeat([0.5 / (size * len(sizes)) for size in sizes], sizes)
        self.kl_weight = np.repeat(weights[:, None], cfg.d, axis=1)
        # attention over one snapshot is the identity, which _Pass skips
        self.single = len(snapshots) == 1
        pe = positional_encoding([s.round for s in snapshots], cfg.d)
        self.pe_rows = np.repeat(pe, sizes, axis=0)  # each node's round's encoding
        self.d, self.alpha, self.gamma = cfg.d, cfg.alpha, cfg.gamma
        self.inv_sqrt_d = 1.0 / math.sqrt(cfg.d)
        self.features = final.features.data


def _gather(snapshots: list) -> np.ndarray:
    """``gather[i, t]``, the row of the final snapshot's agent i in snapshot
    t, the snapshots stacked row-wise; a final agent missing from an
    earlier snapshot is a DetectorError."""
    final, offset, rows = snapshots[-1].agents, 0, []
    for s in snapshots:
        row_of = dict(zip(s.agents, range(offset, offset + len(s.agents))))
        try:
            rows.append([row_of[agent] for agent in final])
        except KeyError:
            agent = next(a for a in final if a not in row_of)
            raise DetectorError(f"final agent {agent} is absent from round {s.round}") from None
        offset += len(s.agents)
    return np.array(rows, dtype=np.intp).T.copy()


@functools.lru_cache(maxsize=1)
def _history(batch: HistoryBatch, cfg: DetectorConfig) -> _History:
    """The last history built, so that a round's fit and infer share one.

    Keyed by the batch's identity and the config's value: both are frozen,
    and the cache's reference keeps the batch's identity from being reused.
    """
    return _History(batch, cfg)


class _Pass:
    """One forward pass over a whole history, through the stage functions,
    and its hand-written backward pass, bound to the weights ``w``.

    Building a pass binds, once, every operand its forward pass touches:
    the weights' views, which Adam steps in place, so that they hold for a
    whole fit; the transposes and views it multiplies or reduces; the
    constants; and, per product, the call that gives the bits of ``@``
    (``_product``). Each stage, and the KL and loss segments between them,
    is a program of numpy calls into arrays the pass allocated when it was
    built (``nm.program``), run as one call, so that ``fit`` runs all its
    epochs through one pass and no epoch allocates an array.
    ``bound_backward`` binds the backward pass the same way, as one
    program, to the gradients it writes and the loss's coefficients. The
    programs hold the arrays and calls they run, never the pass. The stage
    functions are looked up at every call, so that they can be wrapped by
    name. A pass writes only its own arrays and the gradients it is bound
    to.

    ``w["gcn.w0"]`` is the rows of gcn.w0 of filled buckets, in
    ``h.filled`` order: ``fit`` hands the rows it packed, ``infer`` and
    ``run_forward`` a copy gathered from the whole entry. The first layer
    multiplies the pass's own copy of them, ``w0``, which a sampled
    forward refreshes from ``w["gcn.w0"]`` first and an unsampled one reads
    as it stands, so that ``infer`` can gather other rows into it. A
    sampled forward reads the pass's own ``noise`` array, one
    standard-normal row per node, which its caller draws into first. The
    latent ``z`` the decoders read is one array too: the sample, or at
    inference a copy of the mean.
    """

    def __init__(self, h: _History, w: dict[str, np.ndarray]):
        self.h, self.w, self.sampled = h, w, False
        rows, d = h.rows, h.d
        n = len(h.features)
        a_hat, a_hat_x = h.a_hat, h.a_hat_x
        rows_in, w1 = w["gcn.w0"], w["gcn.w1"]
        w0 = self.w0 = np.array(rows_in)
        wq, wk, wv = w["attn.wq"], w["attn.wk"], w["attn.wv"]
        dec_w0, dec_b0, dec_w1, dec_b1 = w["dec.w0"], w["dec.b0"], w["dec.w1"], w["dec.b1"]

        gcn_steps, gcn_result = _gcn_steps(a_hat, a_hat_x, w0, w1)
        gcn = nm.program(gcn_steps), gcn_result
        # A sampled forward first copies the rows it was handed into w0, in
        # one more step at the head of the stage's program: in a fit they
        # are the store's packed rows, which Adam steps in place. An
        # unsampled one multiplies w0 as it stands (see ``infer``).
        refreshing = nm.program([(np.positive, (rows_in, w0)), *gcn_steps]), gcn_result
        self.h1_pre, self.a_hat_h1, hidden = gcn_result
        latent = _bind_split_latent(hidden, d)
        mean, self.log_var_raw, log_var = latent[1]
        self.mean, self.log_var = mean, log_var
        noise = self.noise = np.empty((rows, d))
        sample = _bind_reparameterize(mean, log_var, noise)
        z, self.std = sample[1]
        var, kl_terms = self.var, self._kl = np.empty((rows, d)), np.empty((rows, d))
        # what the three sums of the loss reduce into: kl, the squared
        # residuals and the log-likelihoods
        sums = np.empty(3)
        add_reduce = np.add.reduce
        kl_steps = [
            (np.exp, (log_var, var)),
            (np.multiply, (mean, mean, kl_terms)),
            (np.add, (kl_terms, var, kl_terms)),
            (np.subtract, (kl_terms, _ONE, kl_terms)),
            (np.subtract, (kl_terms, log_var, kl_terms)),
            (np.multiply, (kl_terms, h.kl_weight, kl_terms)),
            (add_reduce, (kl_terms.reshape(-1), 0, None, sums[0, ...])),
        ]
        if h.single:
            # One snapshot: each agent's last query attends over its one
            # round, with the weight exp(0) / 1 == 1.0 exactly, and
            # 1.0 * x == x, so the context is the position-encoded latent
            # and this equals temporal_fuse bit for bit. It ends the KL
            # segment's program.
            fuse = None
            context, fused = self.context, self.fused = np.empty((n, d)), np.empty((n, wv.shape[1]))
            kl_steps += [(np.add, (z, h.pe_rows, context)), (_product(context), (wv, fused))]
        else:
            fuse = _bind_temporal_fuse(z, h, wq, wk, wv)
            self.seq, self.q, self.u, self.attn, self.context, fused = fuse[1]
            self.fused = fused
        kl = nm.program(kl_steps)
        decode = _bind_decode_attributes(fused, dec_w0, dec_b0, dec_w1, dec_b1)
        self.dec_pre, self.dec_h, x_hat = decode[1]
        self.x_hat = x_hat
        structure = _bind_decode_structure(fused)
        edge_probs = self.edge_probs = structure[1]
        r_x, squares = self.r_x, self._squares = np.empty(x_hat.shape), np.empty(x_hat.shape)
        likelihood = self._likelihood = np.empty((n, n))
        loss = nm.program(
            [
                (np.subtract, (h.features, x_hat, r_x)),
                (np.multiply, (r_x, r_x, squares)),
                (add_reduce, (squares.reshape(-1), 0, None, sums[1, ...])),
                # the target is 0/1, so a log p + (1 - a) log(1 - p) is one of the two logs
                (np.subtract, (_ONE, edge_probs, likelihood)),
                (np.putmask, (likelihood, h.edge, edge_probs)),
                (np.log, (likelihood, likelihood)),
                (add_reduce, (likelihood.reshape(-1), 0, None, sums[2, ...])),
            ]
        )
        alpha, gamma, per_node, per_pair = h.alpha, h.gamma, 1.0 / n, -1.0 / (n * n)
        copy = np.copyto

        def forward(sampled: bool) -> LossBreakdown:
            gcn_forward(a_hat, a_hat_x, w0, w1, refreshing if sampled else gcn)
            split_latent(hidden, d, latent)
            if not sampled:
                copy(z, mean)  # inference: the latent is the mean
            reparameterize(mean, log_var, noise if sampled else None, sample)
            kl()
            if fuse is not None:
                temporal_fuse(z, h, wq, wk, wv, fuse)
            decode_attributes(fused, dec_w0, dec_b0, dec_w1, dec_b1, decode)
            decode_structure(fused, structure)
            loss()
            kl_sum, squared, likelihoods = sums.tolist()
            return compose_losses(squared * per_node, likelihoods * per_pair, kl_sum, alpha, gamma)

        # bound here and called through forward(), so that it holds no reference to the pass
        self._forward = forward

    def forward(self, sampled: bool) -> LossBreakdown:
        """The pass, sampling with ``noise`` if ``sampled`` (else inference);
        returns and sets ``breakdown``."""
        self.sampled = sampled
        self.breakdown = breakdown = self._forward(sampled)
        return breakdown

    def backward(self, g: dict[str, np.ndarray], c_att: float, c_stru: float, c_kl: float) -> None:
        """Run ``bound_backward`` once, after the last ``forward``, as it sampled or not."""
        self.bound_backward(g, c_att, c_stru, c_kl, self.sampled)()

    def bound_backward(
        self, g: dict[str, np.ndarray], c_att: float, c_stru: float, c_kl: float, sampled: bool
    ) -> Callable[[], None]:
        """The call that writes d (c_att*l_att + c_stru*l_stru + c_kl*kl) /
        d parameter into each array of `g`, overwriting it, after the last
        ``forward``, which sampled if ``sampled``. ``g["gcn.w0"]``, like
        ``w["gcn.w0"]``, is the rows of filled buckets. Over one snapshot
        ``g`` may leave out attn.wk and attn.wq, whose gradients are zero.
        The arrays it writes between the gradients are its own."""
        h, w = self.h, self.w
        rows, d, (n, k) = h.rows, h.d, h.features.shape
        new = np.empty
        d_x_hat, d_logits, d_sym = new((n, k)), new((n, n)), new((n, n))
        d_dec, dec_live = new((n, d)), new((n, d), dtype=bool)
        d_fused, fused_part, d_context = new((n, d)), new((n, d)), new((n, d))
        # the gradients of the mean's and the log-variance's KL terms per unit
        kl_mean, kl_log_var = np.multiply(2.0 * c_kl, h.kl_weight), np.multiply(c_kl, h.kl_weight)
        fused, add_reduce = self.fused, np.add.reduce
        steps = [
            (np.multiply, (self.r_x, np.array(-2.0 * c_att / n), d_x_hat)),
            # cross-entropy through the sigmoid; the clamp passes gradient straight through
            (np.subtract, (self.edge_probs, h.target, d_logits)),
            (np.multiply, (d_logits, np.array(c_stru / (n * n)), d_logits)),
            (self.dec_h.T.dot, (d_x_hat, g["dec.w1"])),
            (add_reduce, (d_x_hat, 0, None, g["dec.b1"].reshape(-1))),
            (_product(d_x_hat), (w["dec.w1"].T, d_dec)),
            (np.greater, (self.dec_pre, _ZERO, dec_live)),
            (np.multiply, (d_dec, dec_live, d_dec)),
            (fused.T.dot, (d_dec, g["dec.w0"])),
            (add_reduce, (d_dec, 0, None, g["dec.b0"].reshape(-1))),
            (_product(d_dec), (w["dec.w0"].T, d_fused)),
            (np.add, (d_logits, d_logits.T, d_sym)),
            (_product(d_sym), (fused, fused_part)),
            (np.add, (d_fused, fused_part, d_fused)),
            (self.context.T.dot, (d_fused, g["attn.wv"])),
            (_product(d_fused), (w["attn.wv"].T, d_context)),
        ]
        if h.single:
            # With the weight 1.0, d_attn - inner == 0 exactly: the scores,
            # and through them the query and key, get no gradient, and the
            # context's gradient is the latent's.
            d_z = d_context
            steps += [(g[name].fill, (0.0,)) for name in ("attn.wk", "attn.wq") if name in g]
        else:
            fuse_steps, d_z = self._bind_fuse_backward(g, d_context)
            steps += fuse_steps
        d_hidden, d_log_var = new((rows, 2 * d)), new((rows, d))
        d_mean, d_log_var_in = d_hidden[:, :d], d_hidden[:, d:]
        steps += [
            (np.multiply, (kl_mean, self.mean, d_log_var)),
            (np.add, (d_z, d_log_var, d_mean)),
            (np.subtract, (self.var, _ONE, d_log_var)),
            (np.multiply, (d_log_var, kl_log_var, d_log_var)),
        ]
        if sampled:
            noise_part = new((rows, d))
            steps += [
                (np.multiply, (d_z, self.noise, noise_part)),
                (np.multiply, (noise_part, self.std, noise_part)),
                (np.multiply, (noise_part, _HALF, noise_part)),
                (np.add, (d_log_var, noise_part, d_log_var)),
            ]
        unclamped, d_h1 = new((rows, d), dtype=bool), new((rows, 2 * d))
        steps += [
            (np.equal, (self.log_var, self.log_var_raw, unclamped)),
            (np.multiply, (d_log_var, unclamped, d_log_var_in)),
            (self.a_hat_h1.T.dot, (d_hidden, g["gcn.w1"])),
            (_product(d_hidden), (w["gcn.w1"].T, d_h1)),
        ]
        if h.a_hat is not None:
            d_h1_spread = new((rows, 2 * d))
            steps.append((_product(h.a_hat.T), (d_h1, d_h1_spread)))
            d_h1 = d_h1_spread
        h1_live = new((rows, 2 * d), dtype=bool)
        steps += [
            (np.greater, (self.h1_pre, _ZERO, h1_live)),
            (np.multiply, (d_h1, h1_live, d_h1)),
            (h.a_hat_x.T.dot, (d_h1, g["gcn.w0"])),
        ]
        return nm.program(steps)

    def _bind_fuse_backward(
        self, g: dict[str, np.ndarray], d_context: np.ndarray
    ) -> tuple[list[tuple], np.ndarray]:
        """Backward through ``temporal_fuse``: the steps that write the
        query's and key's gradients and the latents', and the latents'."""
        h, w = self.h, self.w
        (n, t), d = h.gather.shape, h.d
        new = np.empty
        d_attn3, weighted, inner, d_scores = new((n, t, 1)), new((n, t)), new((n, 1)), new((n, t))
        d_seq, d_seq_part, d_u3 = new((n, t, d)), new((n, t, d)), new((n, 1, d))
        d_q, d_last, d_z = new((n, d)), new((n, d)), new((h.rows, d))
        seq, attn, u, q = self.seq, self.attn, self.u, self.q
        d_attn, d_u, d_seq_last = d_attn3[:, :, 0], d_u3[:, 0], d_seq[:, -1]
        steps = [
            (np.matmul, (seq, d_context[:, :, None], d_attn3)),
            (np.multiply, (attn, d_attn, weighted)),
            (np.add.reduce, (weighted, 1, None, inner.reshape(-1))),
            (np.subtract, (d_attn, inner, d_scores)),
            (np.multiply, (d_scores, attn, d_scores)),
            (np.multiply, (d_scores, np.array(h.inv_sqrt_d), d_scores)),
            (np.multiply, (attn[:, :, None], d_context[:, None, :], d_seq)),
            (np.multiply, (d_scores[:, :, None], u[:, None, :], d_seq_part)),
            (np.add, (d_seq, d_seq_part, d_seq)),
            (np.matmul, (d_scores[:, None, :], seq, d_u3)),
            (_product(d_u), (w["attn.wk"], d_q)),
            (d_u.T.dot, (q, g["attn.wk"])),
            (seq[:, -1].T.dot, (d_q, g["attn.wq"])),
            (_product(d_q), (w["attn.wq"].T, d_last)),
            (np.add, (d_seq_last, d_last, d_seq_last)),
            (d_z.fill, (0.0,)),
            (d_z.__setitem__, (h.gather, d_seq)),
        ]
        return steps, d_z


def _movable(history: _History, params: ParamStore) -> tuple[str, np.ndarray, int]:
    """The first entry a fit over ``history`` can change, in layout order;
    the order it packs the rows of gcn.w0 in, for ``permute_rows``; and
    how many rows, from the front of that order, it can change.

    An entry whose gradient is +-0.0 in every epoch and whose moments are
    +0.0 keeps its value and moments under Adam bit for bit, so the fit
    leaves it out. That holds of attn.wk and attn.wq in a one-snapshot
    fit, whose gradients are zero, while their moments are
    zero; and of the rows of gcn.w0 of empty buckets (not in
    ``history.filled``) while their moments are zero.

    The order puts the rows of filled buckets first, then the other rows
    that can move, then the rest, each part in row order.
    """
    first = "attn.wk"
    if (
        history.single
        and params.moments_are_zero("attn.wk").all()
        and params.moments_are_zero("attn.wq").all()
    ):
        first = "attn.wv"
    idle = history.unfilled & params.moments_are_zero("gcn.w0")
    order = np.argsort(history.unfilled.view(np.int8) + idle, kind="stable")
    moving = len(order) - np.count_nonzero(idle)
    return first, order, moving


@functools.cache
def _layout(k: int, d: int) -> tuple:
    return tuple(_param_shapes(DetectorConfig(k=k, d=d)).items())


# One slot: the last fit's history, store and pass, which ``infer`` takes
# on that history and store. It holds one tuple under one key, set whole by
# ``fit`` and taken whole by ``infer`` in one atomic pop, so that a thread
# never sees the parts of two fits and no two inferences share a pass.
_fitted: dict[str, tuple[_History, ParamStore, _Pass]] = {}


def fit(
    batch: HistoryBatch,
    cfg: DetectorConfig,
    params: ParamStore,
    rng: np.random.Generator,
    epochs: int,
) -> list[LossBreakdown]:
    """Full-batch Adam on l_total for `epochs` epochs; returns per-epoch losses.

    Each epoch samples with one standard-normal row per node, snapshot
    after snapshot, as ``run_forward`` does: it draws one ``(rows, d)``
    block from ``rng`` straight into the pass's noise array. So a fit
    that raises in epoch e, TrainingDiverged included, leaves ``rng``
    after e + 1 draws.

    Adam steps only what can move (``_movable``), in place: the fit packs
    the rows of gcn.w0, the last entry of the layout, in ``_movable``'s
    order, and steps the span of the store from the first entry that can
    move to the last row that can. The passes multiply the packed rows of
    filled buckets where they lie and write their gradient there; the
    other rows that move get a zero gradient, as do attn.wk and attn.wq
    over one snapshot, written once. Every epoch runs through one
    ``_Pass``, allocated and bound when the fit starts, whose sampled
    forward first copies the packed rows into the pass's own. When the fit
    ends it restores the row order, gradient included, and zeroes the
    gradient of the rows of empty buckets if a backward pass ran, so the
    store ends bit for bit as full steps would leave it, also when it
    raises. The pass stays in ``_fitted`` for the round's ``infer``: a
    round's fit and infer share one history and one pass.
    """
    history = _history(batch, cfg)
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
    # zero in every epoch, so written in the first only: the rows that move
    # only through their moments and, over one snapshot, the query and key
    zeroed = [packed_grad[n_filled:]]
    if history.single:
        zeroed += [grads.pop("attn.wk"), grads.pop("attn.wq")]
    step = _Pass(history, values)
    _fitted["pass"] = (history, params, step)
    forward, backward, lr = step.forward, step.bound_backward(grads, *coefficients, True), cfg.lr
    draw, noise = rng.standard_normal, step.noise
    trace: list[LossBreakdown] = []
    params.permute_rows("gcn.w0", order)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # the loss check below reports it
            for _ in range(epochs):
                draw(out=noise)
                breakdown = forward(True)
                if not math.isfinite(breakdown.l_total):
                    raise TrainingDiverged(
                        len(trace), trace[-1] if trace else None, f"non-finite loss {breakdown}"
                    )
                trace.append(breakdown)
                backward()
                for grad in zeroed:
                    grad.fill(0.0)
                zeroed = ()
                nm.adam_step(stepped, lr)
    finally:
        params.step = stepped.step
        params.permute_rows("gcn.w0", np.argsort(order))
        if trace:  # a backward pass ran
            params.grad("gcn.w0")[history.unfilled] = 0.0
    return trace


def infer(
    batch: HistoryBatch, cfg: DetectorConfig, params: ParamStore
) -> tuple[Reconstruction, LossBreakdown]:
    """Deterministic reconstruction of the final snapshot (no sampling).

    The pass multiplies a copy of the rows of gcn.w0 of filled buckets, as
    the store holds them when it is called. The first call after a fit
    takes that fit's pass (``_fitted``): on the fit's history and store it
    gathers the rows into it, so a round's fit and infer share one history
    and one pass. Every other call binds a pass of its own; the bits are
    the same. A finite l_total is a finite sum of squared attribute
    residuals and of logs of clamped edge probabilities, so both residuals
    are finite too.
    """
    history, fitted = _history(batch, cfg), _fitted.pop("pass", None)
    if fitted is not None and fitted[0] is history and fitted[1] is params:
        result = fitted[2]
        params.value("gcn.w0").take(history.filled, 0, result.w0)
    else:
        values = dict(params.entries())
        values["gcn.w0"] = params.value("gcn.w0")[history.filled]
        result = _Pass(history, values)
    with np.errstate(over="ignore", invalid="ignore"):  # the loss check below reports it
        result.forward(False)
    if not math.isfinite(result.breakdown.l_total):
        raise NonFiniteError(f"non-finite loss at inference: {result.breakdown}")
    recon = Reconstruction(
        agents=list(batch.snapshots[-1].agents),
        r_x=result.r_x,
        r_e=history.target - result.edge_probs,
    )
    return recon, result.breakdown


def _config_to_doc(cfg: DetectorConfig) -> dict:
    doc = dataclasses.asdict(cfg)
    doc["lambda"] = doc.pop("lambda_")
    return doc


def _config_from_doc(doc: dict) -> DetectorConfig:
    expected = _config_to_doc(DetectorConfig()).keys()
    unknown, missing = sorted(doc.keys() - expected), sorted(expected - doc.keys())
    if unknown or missing:
        raise DetectorError(f"config has unknown keys {unknown} and missing keys {missing}")
    doc = dict(doc)
    doc["lambda_"] = doc.pop("lambda")
    return DetectorConfig(**doc)


def save_checkpoint(path: str | Path, cfg: DetectorConfig, params: ParamStore) -> None:
    """Write the config and parameters to ``path``, one record per
    parameter in name order, whatever the store's layout."""
    doc = {
        "config": _config_to_doc(cfg),
        "params": [
            {
                "name": name,
                "rows": value.shape[0],
                "cols": value.shape[1],
                "values": value.ravel().tolist(),
            }
            for name, value in sorted(params.entries(), key=lambda entry: entry[0])
        ],
    }
    Path(path).write_text(CHECKPOINT_MAGIC + "\n" + json.dumps(doc, sort_keys=True) + "\n")


def load_checkpoint(path: str | Path) -> tuple[DetectorConfig, ParamStore]:
    """The config and parameters `save_checkpoint` wrote to `path`, laid
    out as ``_param_shapes`` says whatever order the file lists them in. A
    file that cannot be read as a checkpoint is a DetectorError naming `path`."""
    try:
        header, _, body = Path(path).read_text(encoding="utf-8").partition("\n")
        if header != CHECKPOINT_MAGIC:
            raise DetectorError(f"not a checkpoint file (bad magic {header!r})")
        return _checkpoint_from_doc(json.loads(body))
    except (OSError, ValueError, TypeError) as err:  # DetectorError and JSON/UTF-8 errors are ValueErrors
        raise DetectorError(f"checkpoint {path}: {err}") from err


_PARAM_KEYS = {"name", "rows", "cols", "values"}


def _checkpoint_from_doc(doc) -> tuple[DetectorConfig, ParamStore]:
    if not (
        type(doc) is dict
        and type(doc.get("config")) is dict
        and type(doc.get("params")) is list
        and all(type(rec) is dict and rec.keys() == _PARAM_KEYS for rec in doc["params"])
    ):
        raise DetectorError(
            f"expected a config object and a params list of objects with keys {sorted(_PARAM_KEYS)}"
        )
    cfg = _config_from_doc(doc["config"])
    shapes = {rec["name"]: (rec["rows"], rec["cols"]) for rec in doc["params"]}
    expected = _param_shapes(cfg)
    for name in sorted(shapes.keys() | expected.keys()):
        if shapes.get(name) != expected.get(name):
            raise DetectorError(
                f"parameter {name!r}: file has shape {shapes.get(name)}, "
                f"its config needs {expected.get(name)}"
            )
    values = {}
    for rec in doc["params"]:
        if rec["name"] in values:
            raise DetectorError(f"parameter {rec['name']!r} appears twice")
        if len(rec["values"]) != rec["rows"] * rec["cols"]:
            raise DetectorError(
                f"parameter {rec['name']!r}: {len(rec['values'])} values "
                f"for shape {(rec['rows'], rec['cols'])}"
            )
        values[rec["name"]] = np.asarray(rec["values"], dtype=np.float64).reshape(
            rec["rows"], rec["cols"]
        )
    return cfg, ParamStore({name: values[name] for name in expected})
