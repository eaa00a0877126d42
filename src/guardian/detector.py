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

``fit`` and ``infer`` run one hand-written forward and backward pass over
the whole history in batched numpy (``_Pass``). The per-stage functions
and ``run_forward`` build the same computation on the ``numerics``
gradient tape; the tests hold the hand-written pass to them.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import numerics as nm
from .graph import HistoryBatch, normalized_adjacency, self_looped_adjacency
from .numerics import NonFiniteError, ParamStore, Tensor2D

__all__ = [
    "DetectorError",
    "TrainingDiverged",
    "DetectorConfig",
    "LatentState",
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


@dataclass
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
        if self.beta <= 0.0:
            raise DetectorError(f"beta must be > 0, got {self.beta}")
        if self.lambda_ < 0.0:
            raise DetectorError(f"lambda must be >= 0, got {self.lambda_}")
        if self.k < 1 or self.d < 1:
            raise DetectorError("k and d must be positive")
        if self.variant not in ("temporal", "static"):
            raise DetectorError(f"unknown variant {self.variant!r}")

    @property
    def gamma(self) -> float:
        return gib_gamma(self.lambda_, self.beta)


@dataclass
class LatentState:
    mean: Tensor2D
    log_variance: Tensor2D
    sample: Tensor2D


@dataclass
class Reconstruction:
    round: int
    agents: list[int]
    x_hat: Tensor2D
    edge_probs: Tensor2D
    r_x: Tensor2D  # observed attributes minus x_hat
    r_e: Tensor2D  # observed (self-looped symmetrized) adjacency minus edge_probs


@dataclass(frozen=True)
class LossBreakdown:
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
    return LossBreakdown(l_att=l_att, l_stru=l_stru, l_rec=l_rec, kl=kl, l_total=l_total)


def init_params(cfg: DetectorConfig, rng: np.random.Generator) -> ParamStore:
    """Glorot-uniform weights, zero biases. Draw order is fixed by name."""

    def glorot(fan_in: int, fan_out: int) -> np.ndarray:
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_in, fan_out))

    store = ParamStore()
    store.add("attn.wk", glorot(cfg.d, cfg.d))
    store.add("attn.wq", glorot(cfg.d, cfg.d))
    store.add("attn.wv", glorot(cfg.d, cfg.d))
    store.add("dec.b0", np.zeros((1, cfg.d)))
    store.add("dec.b1", np.zeros((1, cfg.k)))
    store.add("dec.w0", glorot(cfg.d, cfg.d))
    store.add("dec.w1", glorot(cfg.d, cfg.k))
    store.add("gcn.w0", glorot(cfg.k, 2 * cfg.d))
    store.add("gcn.w1", glorot(2 * cfg.d, 2 * cfg.d))
    return store


def gcn_forward(features: Tensor2D, norm_adj: Tensor2D, params: ParamStore) -> Tensor2D:
    """Two rounds of propagate-and-transform; the last layer stays linear
    so the downstream mean/log-variance split is sign-unconstrained."""
    w0 = params.leaf("gcn.w0")
    w1 = params.leaf("gcn.w1")
    if norm_adj.rows != norm_adj.cols or norm_adj.rows != features.rows:
        raise DetectorError(
            f"adjacency {norm_adj.shape} incompatible with features {features.shape}"
        )
    if features.cols != w0.rows:
        raise DetectorError(
            f"feature dim {features.cols} does not match encoder input {w0.rows}"
        )
    h1 = nm.relu(nm.matmul(nm.matmul(norm_adj, features), w0))
    return nm.matmul(nm.matmul(norm_adj, h1), w1)


def split_latent(hidden: Tensor2D, d: int) -> tuple[Tensor2D, Tensor2D]:
    """Split encoder output into mean and clamped log-variance halves."""
    if hidden.cols != 2 * d:
        raise DetectorError(f"encoder output width {hidden.cols} != 2*d ({2 * d})")
    mean = nm.slice_cols(hidden, 0, d)
    log_variance = nm.clamp(nm.slice_cols(hidden, d, 2 * d), LOGVAR_MIN, LOGVAR_MAX)
    return mean, log_variance


def reparameterize(
    mean: Tensor2D, log_variance: Tensor2D, rng: np.random.Generator | None
) -> Tensor2D:
    """mean + exp(log_variance / 2) * standard normal; mean when rng is None."""
    if mean.shape != log_variance.shape:
        raise DetectorError("mean and log-variance shapes differ")
    if rng is None:
        return mean
    noise = Tensor2D(rng.standard_normal(mean.shape))
    std = nm.exp(nm.scale(log_variance, 0.5))
    return nm.add(mean, nm.mul(std, noise))


def kl_term(mean: Tensor2D, log_variance: Tensor2D) -> Tensor2D:
    """Per-node average KL( N(mean, exp(logvar)) || N(0, I) ), a 1x1 tensor."""
    if mean.shape != log_variance.shape:
        raise DetectorError("mean and log-variance shapes differ")
    var = nm.exp(log_variance)
    sq = nm.mul(mean, mean)
    inner = nm.sub(nm.add_const(nm.add(var, sq), -1.0), log_variance)
    return nm.scale(nm.sum_all(inner), 0.5 / mean.rows)


def positional_encoding(rounds: list[int], d: int) -> np.ndarray:
    """Sinusoidal encodings of absolute round numbers, one row per round:
    sin in even columns, cos in odd ones, of ``t / 10000 ** (2 * (j // 2) / d)``."""
    divisors = np.array([10000.0 ** (2 * (j // 2) / d) for j in range(d)])
    angles = np.asarray(rounds, dtype=np.float64)[:, None] / divisors
    pe = np.cos(angles)
    pe[:, 0::2] = np.sin(angles[:, 0::2])
    return pe


def temporal_fuse(
    samples: list[Tensor2D],
    batch: HistoryBatch,
    params: ParamStore,
    d: int,
    positional: bool = True,
    collect_weights: list | None = None,
) -> Tensor2D:
    """Fuse each final-round agent's latent trajectory with self-attention.

    The attention sequence contains only rounds where the agent is present
    (absent rounds never enter the softmax); the output at the last
    position is the fused embedding. With a single round this degenerates
    to the value projection of that round's latent row.
    """
    snapshots = batch.snapshots
    if len(samples) != len(snapshots):
        raise DetectorError("one latent sample per snapshot required")
    final = snapshots[-1]
    if not final.agents:
        raise DetectorError("no active agents at the final round")
    wq = params.leaf("attn.wq")
    wk = params.leaf("attn.wk")
    wv = params.leaf("attn.wv")
    inv_sqrt_d = 1.0 / math.sqrt(d)

    fused_rows: list[Tensor2D] = []
    for agent in final.agents:
        present = [ti for ti in range(len(snapshots)) if batch.presence[agent][ti]]
        seq = nm.vstack(
            [nm.row(samples[ti], snapshots[ti].agents.index(agent)) for ti in present]
        )
        if positional:
            pe = positional_encoding([snapshots[ti].round for ti in present], d)
            seq = nm.add(seq, Tensor2D(pe))
        q = nm.matmul(seq, wq)
        k = nm.matmul(seq, wk)
        v = nm.matmul(seq, wv)
        attn = nm.softmax_rows(nm.scale(nm.matmul(q, nm.transpose(k)), inv_sqrt_d))
        if collect_weights is not None:
            collect_weights.append(attn.data.copy())
        out = nm.matmul(attn, v)
        fused_rows.append(nm.row(out, out.rows - 1))
    return nm.vstack(fused_rows)


def decode_attributes(z: Tensor2D, params: ParamStore) -> Tensor2D:
    w0 = params.leaf("dec.w0")
    b0 = params.leaf("dec.b0")
    w1 = params.leaf("dec.w1")
    b1 = params.leaf("dec.b1")
    if z.cols != w0.rows:
        raise DetectorError(f"latent dim {z.cols} does not match decoder input {w0.rows}")
    hidden = nm.relu(nm.add_rowvec(nm.matmul(z, w0), b0))
    return nm.add_rowvec(nm.matmul(hidden, w1), b1)


def decode_structure(z: Tensor2D) -> Tensor2D:
    """Edge probabilities sigmoid(z_i . z_j) over all ordered pairs."""
    return nm.sigmoid(nm.matmul(z, nm.transpose(z)))


def _attribute_loss(features: Tensor2D, x_hat: Tensor2D) -> Tensor2D:
    r = nm.sub(features, x_hat)
    return nm.scale(nm.sum_all(nm.mul(r, r)), 1.0 / features.rows)


def _structure_loss(adj_target: np.ndarray, edge_probs: Tensor2D) -> Tensor2D:
    n = edge_probs.rows
    pos = Tensor2D(adj_target)
    neg = Tensor2D(1.0 - adj_target)
    ll = nm.add(
        nm.mul(pos, nm.log(edge_probs)),
        nm.mul(neg, nm.log(nm.rsub_const(1.0, edge_probs))),
    )
    return nm.scale(nm.sum_all(ll), -1.0 / (n * n))


@dataclass
class ForwardResult:
    latents: list[LatentState]
    fused: Tensor2D
    x_hat: Tensor2D
    edge_probs: Tensor2D
    kl: Tensor2D
    l_att: Tensor2D
    l_stru: Tensor2D
    loss_total: Tensor2D
    breakdown: LossBreakdown


def run_forward(
    batch: HistoryBatch,
    cfg: DetectorConfig,
    params: ParamStore,
    rng: np.random.Generator | None,
) -> ForwardResult:
    """One full differentiable pass; rng=None disables sampling (inference)."""
    if not batch.snapshots:
        raise DetectorError("empty snapshot batch")
    latents: list[LatentState] = []
    kl_parts: list[Tensor2D] = []
    for snap in batch.snapshots:
        hidden = gcn_forward(snap.features, normalized_adjacency(snap), params)
        mean, log_variance = split_latent(hidden, cfg.d)
        sample = reparameterize(mean, log_variance, rng)
        latents.append(LatentState(mean=mean, log_variance=log_variance, sample=sample))
        kl_parts.append(kl_term(mean, log_variance))

    kl = kl_parts[0]
    for part in kl_parts[1:]:
        kl = nm.add(kl, part)
    kl = nm.scale(kl, 1.0 / len(kl_parts))

    fused = temporal_fuse([ls.sample for ls in latents], batch, params, cfg.d)
    x_hat = decode_attributes(fused, params)
    edge_probs = decode_structure(fused)

    final = batch.snapshots[-1]
    l_att = _attribute_loss(final.features, x_hat)
    l_stru = _structure_loss(self_looped_adjacency(final), edge_probs)
    l_rec = nm.add(nm.scale(l_att, cfg.alpha), nm.scale(l_stru, 1.0 - cfg.alpha))
    loss_total = nm.add(l_rec, nm.scale(kl, cfg.gamma))
    breakdown = compose_losses(
        l_att.item(), l_stru.item(), kl.item(), cfg.alpha, cfg.gamma
    )
    return ForwardResult(
        latents=latents,
        fused=fused,
        x_hat=x_hat,
        edge_probs=edge_probs,
        kl=kl,
        l_att=l_att,
        l_stru=l_stru,
        loss_total=loss_total,
        breakdown=breakdown,
    )


class _History:
    """What one fit or inference holds fixed over its epochs.

    The snapshots are stacked row-wise into ``rows`` nodes, so each graph
    convolution is one product with the batch's block-diagonal normalized
    adjacency. ``gather[i, t]`` is the row of final agent i in snapshot t
    and ``present[i, t]`` says whether that row exists; absent entries
    point at row 0 and are masked out of the attention.
    """

    def __init__(self, batch: HistoryBatch, cfg: DetectorConfig):
        snapshots = batch.snapshots
        if not snapshots:
            raise DetectorError("empty snapshot batch")
        final = snapshots[-1]
        if not final.agents:
            raise DetectorError("no active agents at the final round")
        features = np.vstack([s.features.data for s in snapshots])
        if features.shape[1] != cfg.k:
            raise DetectorError(
                f"feature dim {features.shape[1]} does not match encoder input {cfg.k}"
            )
        self.a_hat = normalized_adjacency(batch).data
        self.a_hat_x = self.a_hat @ features
        sizes = [len(s.agents) for s in snapshots]
        self.rows = sum(sizes)
        # kl is the mean over snapshots of the per-node average KL
        self.kl_weight = np.repeat([0.5 / (n * len(sizes)) for n in sizes], sizes)[:, None]
        self.gather = np.zeros((len(final.agents), len(snapshots)), dtype=np.intp)
        self.present = np.zeros(self.gather.shape, dtype=bool)
        offset = 0
        for t, s in enumerate(snapshots):
            row_of = {a: offset + i for i, a in enumerate(s.agents)}
            for i, agent in enumerate(final.agents):
                if batch.presence[agent][t]:
                    self.gather[i, t] = row_of[agent]
                    self.present[i, t] = True
            offset += len(s.agents)
        self.present_rows = self.gather[self.present]
        self.pe = positional_encoding([s.round for s in snapshots], cfg.d)
        self.d, self.alpha, self.gamma = cfg.d, cfg.alpha, cfg.gamma
        self.inv_sqrt_d = 1.0 / math.sqrt(cfg.d)
        self.features = final.features.data
        self.target = self_looped_adjacency(final)
        self.edge = self.target > 0.0


class _Pass:
    """The forward pass of ``run_forward`` over a whole history, without the tape,
    and its hand-written backward pass.

    Only the last attention position feeds the decoders, so each final
    agent's fused row is its last query attending, in one masked softmax,
    over the rounds it is present in. ``noise`` is None at inference.
    """

    def __init__(self, h: _History, w: dict[str, np.ndarray], noise: np.ndarray | None):
        self.h, self.w, self.noise = h, w, noise
        d = h.d
        self.h1_pre = h.a_hat_x @ w["gcn.w0"]
        self.h1 = np.maximum(self.h1_pre, 0.0)
        self.a_hat_h1 = h.a_hat @ self.h1
        hidden = self.a_hat_h1 @ w["gcn.w1"]
        self.mean = hidden[:, :d]
        self.log_var_raw = hidden[:, d:]
        # np.minimum/np.maximum clamp like np.clip, at a fraction of its call overhead
        self.log_var = np.minimum(np.maximum(self.log_var_raw, LOGVAR_MIN), LOGVAR_MAX)
        self.var = np.exp(self.log_var)
        if noise is None:
            z = self.mean
        else:
            self.std = np.exp(self.log_var * 0.5)
            z = self.mean + self.std * noise
        kl = float(((self.var + self.mean * self.mean - 1.0 - self.log_var) * h.kl_weight).sum())

        self.seq = z[h.gather] + h.pe
        self.q = self.seq[:, -1] @ w["attn.wq"]
        self.u = self.q @ w["attn.wk"].T  # q . (seq_t wk) == seq_t . u
        logits = (self.seq @ self.u[:, :, None])[:, :, 0] * h.inv_sqrt_d
        logits = np.where(h.present, logits, -np.inf)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        self.attn = e / e.sum(axis=1, keepdims=True)
        self.context = (self.attn[:, None, :] @ self.seq)[:, 0]
        self.fused = self.context @ w["attn.wv"]

        self.dec_pre = self.fused @ w["dec.w0"] + w["dec.b0"]
        self.dec_h = np.maximum(self.dec_pre, 0.0)
        self.x_hat = self.dec_h @ w["dec.w1"] + w["dec.b1"]
        clamp = nm.SIGMOID_CLAMP
        clamped = np.minimum(np.maximum(self.fused @ self.fused.T, -clamp), clamp)
        self.edge_probs = 1.0 / (1.0 + np.exp(-clamped))

        n = len(h.features)
        self.r_x = h.features - self.x_hat
        l_att = float((self.r_x * self.r_x).sum()) * (1.0 / n)
        # the target is 0/1, so a log p + (1 - a) log(1 - p) is one of the two logs
        likelihood = np.where(h.edge, self.edge_probs, 1.0 - self.edge_probs)
        l_stru = float(np.log(likelihood).sum()) * (-1.0 / (n * n))
        self.breakdown = compose_losses(l_att, l_stru, kl, h.alpha, h.gamma)

    def backward(self, g: dict[str, np.ndarray]) -> None:
        """Write d l_total / d parameter into each array of `g`, overwriting it."""
        h, w = self.h, self.w
        n, d = len(h.features), h.d
        d_x_hat = self.r_x * (-2.0 * h.alpha / n)
        # cross-entropy through the sigmoid; as on the tape, the clamp passes gradient
        d_logits = (self.edge_probs - h.target) * ((1.0 - h.alpha) / (n * n))

        np.matmul(self.dec_h.T, d_x_hat, out=g["dec.w1"])
        g["dec.b1"][:] = d_x_hat.sum(axis=0)
        d_dec = (d_x_hat @ w["dec.w1"].T) * (self.dec_pre > 0.0)
        np.matmul(self.fused.T, d_dec, out=g["dec.w0"])
        g["dec.b0"][:] = d_dec.sum(axis=0)
        d_fused = d_dec @ w["dec.w0"].T + (d_logits + d_logits.T) @ self.fused

        np.matmul(self.context.T, d_fused, out=g["attn.wv"])
        d_context = d_fused @ w["attn.wv"].T
        d_attn = (self.seq @ d_context[:, :, None])[:, :, 0]
        inner = (self.attn * d_attn).sum(axis=1, keepdims=True)
        d_scores = self.attn * (d_attn - inner) * h.inv_sqrt_d
        d_seq = self.attn[:, :, None] * d_context[:, None, :]
        d_seq += d_scores[:, :, None] * self.u[:, None, :]
        d_u = (d_scores[:, None, :] @ self.seq)[:, 0]
        d_q = d_u @ w["attn.wk"]
        np.matmul(d_u.T, self.q, out=g["attn.wk"])
        np.matmul(self.seq[:, -1].T, d_q, out=g["attn.wq"])
        d_seq[:, -1] += d_q @ w["attn.wq"].T
        d_z = np.zeros((h.rows, d))
        d_z[h.present_rows] = d_seq[h.present]

        d_hidden = np.empty((h.rows, 2 * d))
        d_hidden[:, :d] = d_z + (2.0 * h.gamma) * h.kl_weight * self.mean
        d_log_var = h.gamma * h.kl_weight * (self.var - 1.0)
        if self.noise is not None:
            d_log_var += d_z * self.noise * self.std * 0.5
        d_hidden[:, d:] = d_log_var * (self.log_var == self.log_var_raw)  # not clamped

        np.matmul(self.a_hat_h1.T, d_hidden, out=g["gcn.w1"])
        d_h1 = h.a_hat.T @ (d_hidden @ w["gcn.w1"].T)
        d_h1 *= self.h1_pre > 0.0
        np.matmul(h.a_hat_x.T, d_h1, out=g["gcn.w0"])


def fit(
    batch: HistoryBatch,
    cfg: DetectorConfig,
    params: ParamStore,
    rng: np.random.Generator,
    epochs: int | None = None,
) -> list[LossBreakdown]:
    """Full-batch Adam on l_total; returns per-epoch losses.

    Each epoch draws one standard-normal row per node in snapshot order,
    which is the stream ``run_forward`` draws snapshot by snapshot.
    """
    if epochs is None:
        epochs = cfg.epochs_initial
    history = _History(batch, cfg)
    values = dict(params.entries())
    grads = {name: params.grad(name) for name in values}
    trace: list[LossBreakdown] = []
    with np.errstate(over="ignore", invalid="ignore"):  # the loss check below reports it
        for epoch in range(epochs):
            step = _Pass(history, values, rng.standard_normal((history.rows, cfg.d)))
            if not math.isfinite(step.breakdown.l_total):
                raise TrainingDiverged(
                    epoch, trace[-1] if trace else None, f"non-finite loss {step.breakdown}"
                )
            trace.append(step.breakdown)
            step.backward(grads)
            nm.adam_step(params, lr=cfg.lr)
    return trace


def infer(
    batch: HistoryBatch, cfg: DetectorConfig, params: ParamStore
) -> tuple[Reconstruction, LossBreakdown]:
    """Deterministic reconstruction of the final snapshot (no sampling)."""
    history = _History(batch, cfg)
    with np.errstate(over="ignore", invalid="ignore"):  # the loss check below reports it
        result = _Pass(history, dict(params.entries()), noise=None)
    if not math.isfinite(result.breakdown.l_total):
        raise NonFiniteError(f"non-finite loss at inference: {result.breakdown}")
    final = batch.snapshots[-1]
    recon = Reconstruction(
        round=final.round,
        agents=list(final.agents),
        x_hat=Tensor2D(result.x_hat),
        edge_probs=Tensor2D(result.edge_probs),
        r_x=Tensor2D(result.r_x),
        r_e=Tensor2D(history.target - result.edge_probs),
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
        raise DetectorError(
            f"checkpoint config has unknown keys {unknown} and missing keys {missing}"
        )
    doc = dict(doc)
    doc["lambda_"] = doc.pop("lambda")
    return DetectorConfig(**doc)


def save_checkpoint(path: str | Path, cfg: DetectorConfig, params: ParamStore) -> None:
    doc = {
        "config": _config_to_doc(cfg),
        "params": [
            {
                "name": name,
                "rows": value.shape[0],
                "cols": value.shape[1],
                "values": value.ravel().tolist(),
            }
            for name, value in params.entries()
        ],
    }
    Path(path).write_text(CHECKPOINT_MAGIC + "\n" + json.dumps(doc, sort_keys=True) + "\n")


def load_checkpoint(path: str | Path) -> tuple[DetectorConfig, ParamStore]:
    text = Path(path).read_text()
    header, _, body = text.partition("\n")
    if header != CHECKPOINT_MAGIC:
        raise DetectorError(f"not a checkpoint file (bad magic {header!r})")
    doc = json.loads(body)
    cfg = _config_from_doc(doc["config"])
    shapes = {rec["name"]: (rec["rows"], rec["cols"]) for rec in doc["params"]}
    expected = {name: v.shape for name, v in init_params(cfg, np.random.default_rng(0)).entries()}
    for name in sorted(shapes.keys() | expected.keys()):
        if shapes.get(name) != expected.get(name):
            raise DetectorError(
                f"checkpoint parameter {name!r}: file has shape {shapes.get(name)}, "
                f"its config needs {expected.get(name)}"
            )
    params = ParamStore()
    for rec in doc["params"]:
        if len(rec["values"]) != rec["rows"] * rec["cols"]:
            raise DetectorError(
                f"checkpoint parameter {rec['name']!r}: {len(rec['values'])} values "
                f"for shape {(rec['rows'], rec['cols'])}"
            )
        values = np.asarray(rec["values"], dtype=np.float64).reshape(rec["rows"], rec["cols"])
        params.add(rec["name"], values)
    return cfg, params
