"""Reference model for the tests: the detector on a recorded reverse-mode tape.

Each op returns a new ``Tensor`` that remembers its inputs and how to push
gradients back to them; ``backward()`` on a scalar result walks the
recorded graph once in reverse topological order. The stage functions at
the bottom build GUARDIAN's forward pass snapshot by snapshot on this
tape. They share no arithmetic with ``guardian.detector``'s batched pass,
so the tests hold that pass's losses and gradients to these.

There is deliberately no broadcasting beyond row vectors, no batching and
no sparse storage; the graphs here have at most a handful of nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from guardian.detector import (
    LOGVAR_MAX,
    LOGVAR_MIN,
    SIGMOID_CLAMP,
    DetectorConfig,
    DetectorError,
    LossBreakdown,
    compose_losses,
    positional_encoding,
)
from guardian.graph import HistoryBatch, normalized_adjacency, self_looped_adjacency
from guardian.numerics import NonFiniteError, NumericsError, ParamStore, Tensor2D


class Tensor(Tensor2D):
    """A rows x cols float64 matrix node in the gradient tape.

    ``data`` is row-major (numpy C order). ``grad`` is allocated lazily
    during ``backward()`` except for parameter leaves, whose grad buffer is
    aliased to their ``ParamStore`` entry so accumulation lands in the store.
    """

    __slots__ = ("grad", "_parents", "_push")

    def __init__(self, data, parents: tuple = ()):
        super().__init__(data)
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._push: Callable[[np.ndarray], None] | None = None

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def values(self) -> list[float]:
        """Flat row-major copy of the contents."""
        return self.data.ravel().tolist()

    def tolist(self) -> list[list[float]]:
        return self.data.tolist()

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar result through the recorded ops."""
        if self.data.size != 1:
            raise NumericsError(f"backward() requires a scalar, got shape {self.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        _accumulate(self, np.ones_like(self.data))
        for node in reversed(order):
            if node._push is not None and node.grad is not None:
                node._push(node.grad)

    # Light operator sugar; the module-level functions are the real API.
    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    def __rmul__(self, other):
        return scale(self, float(other))

    def __repr__(self) -> str:
        return f"Tensor({self.rows}x{self.cols})"


def _accumulate(node: Tensor, g: np.ndarray) -> None:
    if node.grad is None:
        node.grad = np.zeros_like(node.data)
    node.grad += g


def _op(data: np.ndarray, parents: tuple, push: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(data, parents=parents)
    out._push = push
    return out


def leaf(store: ParamStore, name: str) -> Tensor:
    """A tape leaf whose value and grad buffers are the stored ones."""
    t = Tensor(store.value(name))
    t.data = store.value(name)  # share storage so optimizer updates are seen
    t.grad = store.grad(name)
    return t


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; rejects mismatched inner dimensions with both shapes."""
    if a.cols != b.rows:
        raise NumericsError(
            f"matmul dimension mismatch: ({a.rows}x{a.cols}) @ ({b.rows}x{b.cols})"
        )

    def bw(g: np.ndarray) -> None:
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _op(a.data @ b.data, (a, b), bw)


def _require_same_shape(a: Tensor, b: Tensor, name: str) -> None:
    if a.shape != b.shape:
        raise NumericsError(f"{name} shape mismatch: {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "add")

    def bw(g: np.ndarray) -> None:
        _accumulate(a, g)
        _accumulate(b, g)

    return _op(a.data + b.data, (a, b), bw)


def add_rowvec(m: Tensor, v: Tensor) -> Tensor:
    """Add a 1 x cols row vector to every row (bias broadcast)."""
    if v.rows != 1 or v.cols != m.cols:
        raise NumericsError(f"add_rowvec expects 1x{m.cols} vector, got {v.shape}")

    def bw(g: np.ndarray) -> None:
        _accumulate(m, g)
        _accumulate(v, g.sum(axis=0, keepdims=True))

    return _op(m.data + v.data, (m, v), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "sub")

    def bw(g: np.ndarray) -> None:
        _accumulate(a, g)
        _accumulate(b, -g)

    return _op(a.data - b.data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product. a and b may be the same node (squaring)."""
    _require_same_shape(a, b, "mul")

    def bw(g: np.ndarray) -> None:
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _op(a.data * b.data, (a, b), bw)


def scale(a: Tensor, c: float) -> Tensor:
    def bw(g: np.ndarray) -> None:
        _accumulate(a, g * c)

    return _op(a.data * c, (a,), bw)


def add_const(a: Tensor, c: float) -> Tensor:
    def bw(g: np.ndarray) -> None:
        _accumulate(a, g)

    return _op(a.data + c, (a,), bw)


def rsub_const(c: float, a: Tensor) -> Tensor:
    """c - a, elementwise."""

    def bw(g: np.ndarray) -> None:
        _accumulate(a, -g)

    return _op(c - a.data, (a,), bw)


def transpose(a: Tensor) -> Tensor:
    def bw(g: np.ndarray) -> None:
        _accumulate(a, g.T)

    return _op(a.data.T.copy(), (a,), bw)


def relu(m: Tensor) -> Tensor:
    mask = m.data > 0.0

    def bw(g: np.ndarray) -> None:
        _accumulate(m, g * mask)

    return _op(np.where(mask, m.data, 0.0), (m,), bw)


def sigmoid(m: Tensor) -> Tensor:
    """Logistic function with inputs clamped to +-SIGMOID_CLAMP.

    Output therefore lives strictly inside (0, 1), keeping log(p) and
    log(1-p) finite downstream.
    """
    x = np.clip(m.data, -SIGMOID_CLAMP, SIGMOID_CLAMP)
    y = 1.0 / (1.0 + np.exp(-x))

    def bw(g: np.ndarray) -> None:
        _accumulate(m, g * y * (1.0 - y))

    return _op(y, (m,), bw)


def activation(kind: str, m: Tensor) -> Tensor:
    if kind == "relu":
        return relu(m)
    if kind == "sigmoid":
        return sigmoid(m)
    raise NumericsError(f"unknown activation kind: {kind!r}")


def exp(m: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # overflow becomes inf, rejected below
        y = np.exp(m.data)

    def bw(g: np.ndarray) -> None:
        _accumulate(m, g * y)

    return _op(y, (m,), bw)


def log(m: Tensor) -> Tensor:
    with np.errstate(divide="raise", invalid="raise"):
        try:
            y = np.log(m.data)
        except FloatingPointError as err:
            raise NonFiniteError("log of non-positive value") from err

    def bw(g: np.ndarray) -> None:
        _accumulate(m, g / m.data)

    return _op(y, (m,), bw)


def clamp(m: Tensor, lo: float, hi: float) -> Tensor:
    mask = (m.data >= lo) & (m.data <= hi)

    def bw(g: np.ndarray) -> None:
        _accumulate(m, g * mask)

    return _op(np.clip(m.data, lo, hi), (m,), bw)


def softmax_rows(m: Tensor) -> Tensor:
    """Row-wise softmax with row-max subtraction for overflow safety."""
    shifted = m.data - m.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def bw(g: np.ndarray) -> None:
        inner = (g * y).sum(axis=1, keepdims=True)
        _accumulate(m, y * (g - inner))

    return _op(y, (m,), bw)


def sum_all(m: Tensor) -> Tensor:
    def bw(g: np.ndarray) -> None:
        _accumulate(m, np.full_like(m.data, g[0, 0]))

    return _op(np.array([[m.data.sum()]]), (m,), bw)


def row(m: Tensor, i: int) -> Tensor:
    if not 0 <= i < m.rows:
        raise NumericsError(f"row index {i} out of range for {m.rows} rows")

    def bw(g: np.ndarray) -> None:
        full = np.zeros_like(m.data)
        full[i, :] = g[0, :]
        _accumulate(m, full)

    return _op(m.data[i : i + 1, :].copy(), (m,), bw)


def slice_cols(m: Tensor, j0: int, j1: int) -> Tensor:
    if not 0 <= j0 < j1 <= m.cols:
        raise NumericsError(f"column slice [{j0}:{j1}] out of range for {m.cols} cols")

    def bw(g: np.ndarray) -> None:
        full = np.zeros_like(m.data)
        full[:, j0:j1] = g
        _accumulate(m, full)

    return _op(m.data[:, j0:j1].copy(), (m,), bw)


def vstack(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise NumericsError("vstack of zero tensors")
    cols = parts[0].cols
    for p in parts:
        if p.cols != cols:
            raise NumericsError("vstack column mismatch")
    offsets = np.cumsum([0] + [p.rows for p in parts])

    def bw(g: np.ndarray) -> None:
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accumulate(p, g[lo:hi, :])

    return _op(np.vstack([p.data for p in parts]), tuple(parts), bw)


# ---------------------------------------------------------------------------
# the detector's forward pass, one snapshot at a time
# ---------------------------------------------------------------------------


@dataclass
class LatentState:
    mean: Tensor
    log_variance: Tensor
    sample: Tensor


def gcn_forward(features: Tensor, norm_adj: Tensor, params: ParamStore) -> Tensor:
    """Two rounds of propagate-and-transform; the last layer stays linear
    so the downstream mean/log-variance split is sign-unconstrained."""
    w0 = leaf(params, "gcn.w0")
    w1 = leaf(params, "gcn.w1")
    if norm_adj.rows != norm_adj.cols or norm_adj.rows != features.rows:
        raise DetectorError(
            f"adjacency {norm_adj.shape} incompatible with features {features.shape}"
        )
    if features.cols != w0.rows:
        raise DetectorError(
            f"feature dim {features.cols} does not match encoder input {w0.rows}"
        )
    h1 = relu(matmul(matmul(norm_adj, features), w0))
    return matmul(matmul(norm_adj, h1), w1)


def split_latent(hidden: Tensor, d: int) -> tuple[Tensor, Tensor]:
    """Split encoder output into mean and clamped log-variance halves."""
    if hidden.cols != 2 * d:
        raise DetectorError(f"encoder output width {hidden.cols} != 2*d ({2 * d})")
    mean = slice_cols(hidden, 0, d)
    log_variance = clamp(slice_cols(hidden, d, 2 * d), LOGVAR_MIN, LOGVAR_MAX)
    return mean, log_variance


def reparameterize(mean: Tensor, log_variance: Tensor, rng: np.random.Generator | None) -> Tensor:
    """mean + exp(log_variance / 2) * standard normal; mean when rng is None."""
    if mean.shape != log_variance.shape:
        raise DetectorError("mean and log-variance shapes differ")
    if rng is None:
        return mean
    noise = Tensor(rng.standard_normal(mean.shape))
    std = exp(scale(log_variance, 0.5))
    return add(mean, mul(std, noise))


def kl_term(mean: Tensor, log_variance: Tensor) -> Tensor:
    """Per-node average KL( N(mean, exp(logvar)) || N(0, I) ), a 1x1 tensor."""
    if mean.shape != log_variance.shape:
        raise DetectorError("mean and log-variance shapes differ")
    var = exp(log_variance)
    sq = mul(mean, mean)
    inner = sub(add_const(add(var, sq), -1.0), log_variance)
    return scale(sum_all(inner), 0.5 / mean.rows)


def temporal_fuse(
    samples: list[Tensor],
    batch: HistoryBatch,
    params: ParamStore,
    d: int,
    positional: bool = True,
    collect_weights: list | None = None,
) -> Tensor:
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
    wq = leaf(params, "attn.wq")
    wk = leaf(params, "attn.wk")
    wv = leaf(params, "attn.wv")
    inv_sqrt_d = 1.0 / math.sqrt(d)

    fused_rows: list[Tensor] = []
    for agent in final.agents:
        present = [ti for ti in range(len(snapshots)) if batch.presence[agent][ti]]
        seq = vstack([row(samples[ti], snapshots[ti].agents.index(agent)) for ti in present])
        if positional:
            pe = positional_encoding([snapshots[ti].round for ti in present], d)
            seq = add(seq, Tensor(pe))
        q = matmul(seq, wq)
        k = matmul(seq, wk)
        v = matmul(seq, wv)
        attn = softmax_rows(scale(matmul(q, transpose(k)), inv_sqrt_d))
        if collect_weights is not None:
            collect_weights.append(attn.data.copy())
        out = matmul(attn, v)
        fused_rows.append(row(out, out.rows - 1))
    return vstack(fused_rows)


def decode_attributes(z: Tensor, params: ParamStore) -> Tensor:
    w0 = leaf(params, "dec.w0")
    b0 = leaf(params, "dec.b0")
    w1 = leaf(params, "dec.w1")
    b1 = leaf(params, "dec.b1")
    if z.cols != w0.rows:
        raise DetectorError(f"latent dim {z.cols} does not match decoder input {w0.rows}")
    hidden = relu(add_rowvec(matmul(z, w0), b0))
    return add_rowvec(matmul(hidden, w1), b1)


def decode_structure(z: Tensor) -> Tensor:
    """Edge probabilities sigmoid(z_i . z_j) over all ordered pairs."""
    return sigmoid(matmul(z, transpose(z)))


def attribute_loss(features: Tensor, x_hat: Tensor) -> Tensor:
    r = sub(features, x_hat)
    return scale(sum_all(mul(r, r)), 1.0 / features.rows)


def structure_loss(adj_target: np.ndarray, edge_probs: Tensor) -> Tensor:
    n = edge_probs.rows
    pos = Tensor(adj_target)
    neg = Tensor(1.0 - adj_target)
    ll = add(
        mul(pos, log(edge_probs)),
        mul(neg, log(rsub_const(1.0, edge_probs))),
    )
    return scale(sum_all(ll), -1.0 / (n * n))


@dataclass
class ForwardResult:
    latents: list[LatentState]
    fused: Tensor
    x_hat: Tensor
    edge_probs: Tensor
    kl: Tensor
    l_att: Tensor
    l_stru: Tensor
    loss_total: Tensor
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
    kl_parts: list[Tensor] = []
    for snap in batch.snapshots:
        features = Tensor(snap.features.data)
        hidden = gcn_forward(features, Tensor(normalized_adjacency(snap).data), params)
        mean, log_variance = split_latent(hidden, cfg.d)
        sample = reparameterize(mean, log_variance, rng)
        latents.append(LatentState(mean=mean, log_variance=log_variance, sample=sample))
        kl_parts.append(kl_term(mean, log_variance))

    kl = kl_parts[0]
    for part in kl_parts[1:]:
        kl = add(kl, part)
    kl = scale(kl, 1.0 / len(kl_parts))

    fused = temporal_fuse([ls.sample for ls in latents], batch, params, cfg.d)
    x_hat = decode_attributes(fused, params)
    edge_probs = decode_structure(fused)

    final = batch.snapshots[-1]
    l_att = attribute_loss(Tensor(final.features.data), x_hat)
    l_stru = structure_loss(self_looped_adjacency(final), edge_probs)
    l_rec = add(scale(l_att, cfg.alpha), scale(l_stru, 1.0 - cfg.alpha))
    loss_total = add(l_rec, scale(kl, cfg.gamma))
    breakdown = compose_losses(l_att.item(), l_stru.item(), kl.item(), cfg.alpha, cfg.gamma)
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
