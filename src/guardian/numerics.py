"""Dense 2-D tensors with recorded reverse-mode gradients.

Everything the detector trains on is a small float64 matrix, so the whole
substrate is plain numpy plus a per-forward operation tape: each public op
returns a new ``Tensor2D`` that remembers its inputs and how to push
gradients back to them. Calling ``backward()`` on a scalar result walks the
recorded graph once in reverse topological order.

There is deliberately no broadcasting beyond row vectors, no batching and
no sparse storage; the graphs here have at most a handful of nodes.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "NumericsError",
    "NonFiniteError",
    "Tensor2D",
    "ParamStore",
    "matmul",
    "add",
    "add_rowvec",
    "sub",
    "mul",
    "scale",
    "add_const",
    "rsub_const",
    "transpose",
    "relu",
    "sigmoid",
    "activation",
    "exp",
    "log",
    "clamp",
    "softmax_rows",
    "sum_all",
    "row",
    "slice_cols",
    "vstack",
    "adam_step",
    "grad_check",
]

# Sigmoid inputs are clamped here so BCE stays finite for saturated logits.
SIGMOID_CLAMP = 30.0


class NumericsError(ValueError):
    """Shape or domain violation in a tensor operation."""


class NonFiniteError(NumericsError):
    """A public operation produced NaN or infinity."""


class Tensor2D:
    """A rows x cols float64 matrix node in the gradient tape.

    ``data`` is row-major (numpy C order). ``grad`` is allocated lazily
    during ``backward()`` except for parameter leaves, whose grad buffer is
    aliased to their ``ParamStore`` entry so accumulation lands in the store.
    """

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents: tuple = ()):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise NumericsError(f"Tensor2D requires 2-D data, got ndim={arr.ndim}")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("Tensor2D contains non-finite values")
        self.data = arr
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def values(self) -> list[float]:
        """Flat row-major copy of the contents."""
        return self.data.ravel().tolist()

    def item(self) -> float:
        if self.data.size != 1:
            raise NumericsError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data[0, 0])

    def tolist(self) -> list[list[float]]:
        return self.data.tolist()

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar result through the recorded ops."""
        if self.data.size != 1:
            raise NumericsError(f"backward() requires a scalar, got shape {self.shape}")
        order: list[Tensor2D] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor2D, bool]] = [(self, False)]
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
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # Light operator sugar; the module-level functions are the real API.
    def __matmul__(self, other: "Tensor2D") -> "Tensor2D":
        return matmul(self, other)

    def __add__(self, other: "Tensor2D") -> "Tensor2D":
        return add(self, other)

    def __sub__(self, other: "Tensor2D") -> "Tensor2D":
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, Tensor2D):
            return mul(self, other)
        return scale(self, float(other))

    def __rmul__(self, other):
        return scale(self, float(other))

    def __repr__(self) -> str:
        return f"Tensor2D({self.rows}x{self.cols})"


def _accumulate(node: Tensor2D, g: np.ndarray) -> None:
    if node.grad is None:
        node.grad = np.zeros_like(node.data)
    node.grad += g


def _op(data: np.ndarray, parents: tuple, backward: Callable[[np.ndarray], None]) -> Tensor2D:
    out = Tensor2D(data, parents=parents)
    out._backward = backward
    return out


def matmul(a: Tensor2D, b: Tensor2D) -> Tensor2D:
    """Matrix product; rejects mismatched inner dimensions with both shapes."""
    if a.cols != b.rows:
        raise NumericsError(
            f"matmul dimension mismatch: ({a.rows}x{a.cols}) @ ({b.rows}x{b.cols})"
        )

    def bw(g: np.ndarray) -> None:
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _op(a.data @ b.data, (a, b), bw)


def _require_same_shape(a: Tensor2D, b: Tensor2D, name: str) -> None:
    if a.shape != b.shape:
        raise NumericsError(f"{name} shape mismatch: {a.shape} vs {b.shape}")


def add(a: Tensor2D, b: Tensor2D) -> Tensor2D:
    _require_same_shape(a, b, "add")

    def bw(g: np.ndarray) -> None:
        _accumulate(a, g)
        _accumulate(b, g)

    return _op(a.data + b.data, (a, b), bw)


def add_rowvec(m: Tensor2D, v: Tensor2D) -> Tensor2D:
    """Add a 1 x cols row vector to every row (bias broadcast)."""
    if v.rows != 1 or v.cols != m.cols:
        raise NumericsError(f"add_rowvec expects 1x{m.cols} vector, got {v.shape}")

    def bw(g: np.ndarray) -> None:
        _accumulate(m, g)
        _accumulate(v, g.sum(axis=0, keepdims=True))

    return _op(m.data + v.data, (m, v), bw)


def sub(a: Tensor2D, b: Tensor2D) -> Tensor2D:
    _require_same_shape(a, b, "sub")

    def bw(g: np.ndarray) -> None:
        _accumulate(a, g)
        _accumulate(b, -g)

    return _op(a.data - b.data, (a, b), bw)


def mul(a: Tensor2D, b: Tensor2D) -> Tensor2D:
    """Elementwise product. a and b may be the same node (squaring)."""
    _require_same_shape(a, b, "mul")

    def bw(g: np.ndarray) -> None:
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _op(a.data * b.data, (a, b), bw)


def scale(a: Tensor2D, c: float) -> Tensor2D:
    def bw(g: np.ndarray) -> None:
        _accumulate(a, g * c)

    return _op(a.data * c, (a,), bw)


def add_const(a: Tensor2D, c: float) -> Tensor2D:
    def bw(g: np.ndarray) -> None:
        _accumulate(a, g)

    return _op(a.data + c, (a,), bw)


def rsub_const(c: float, a: Tensor2D) -> Tensor2D:
    """c - a, elementwise."""

    def bw(g: np.ndarray) -> None:
        _accumulate(a, -g)

    return _op(c - a.data, (a,), bw)


def transpose(a: Tensor2D) -> Tensor2D:
    def bw(g: np.ndarray) -> None:
        _accumulate(a, g.T)

    return _op(a.data.T.copy(), (a,), bw)


def relu(m: Tensor2D) -> Tensor2D:
    mask = m.data > 0.0

    def bw(g: np.ndarray) -> None:
        _accumulate(m, g * mask)

    return _op(np.where(mask, m.data, 0.0), (m,), bw)


def sigmoid(m: Tensor2D) -> Tensor2D:
    """Logistic function with inputs clamped to +-SIGMOID_CLAMP.

    Output therefore lives strictly inside (0, 1), keeping log(p) and
    log(1-p) finite downstream.
    """
    x = np.clip(m.data, -SIGMOID_CLAMP, SIGMOID_CLAMP)
    y = 1.0 / (1.0 + np.exp(-x))

    def bw(g: np.ndarray) -> None:
        _accumulate(m, g * y * (1.0 - y))

    return _op(y, (m,), bw)


def activation(kind: str, m: Tensor2D) -> Tensor2D:
    if kind == "relu":
        return relu(m)
    if kind == "sigmoid":
        return sigmoid(m)
    raise NumericsError(f"unknown activation kind: {kind!r}")


def exp(m: Tensor2D) -> Tensor2D:
    with np.errstate(over="ignore"):  # overflow becomes inf, rejected below
        y = np.exp(m.data)

    def bw(g: np.ndarray) -> None:
        _accumulate(m, g * y)

    return _op(y, (m,), bw)


def log(m: Tensor2D) -> Tensor2D:
    with np.errstate(divide="raise", invalid="raise"):
        try:
            y = np.log(m.data)
        except FloatingPointError as err:
            raise NonFiniteError("log of non-positive value") from err

    def bw(g: np.ndarray) -> None:
        _accumulate(m, g / m.data)

    return _op(y, (m,), bw)


def clamp(m: Tensor2D, lo: float, hi: float) -> Tensor2D:
    mask = (m.data >= lo) & (m.data <= hi)

    def bw(g: np.ndarray) -> None:
        _accumulate(m, g * mask)

    return _op(np.clip(m.data, lo, hi), (m,), bw)


def softmax_rows(m: Tensor2D) -> Tensor2D:
    """Row-wise softmax with row-max subtraction for overflow safety."""
    shifted = m.data - m.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def bw(g: np.ndarray) -> None:
        inner = (g * y).sum(axis=1, keepdims=True)
        _accumulate(m, y * (g - inner))

    return _op(y, (m,), bw)


def sum_all(m: Tensor2D) -> Tensor2D:
    def bw(g: np.ndarray) -> None:
        _accumulate(m, np.full_like(m.data, g[0, 0]))

    return _op(np.array([[m.data.sum()]]), (m,), bw)


def row(m: Tensor2D, i: int) -> Tensor2D:
    if not 0 <= i < m.rows:
        raise NumericsError(f"row index {i} out of range for {m.rows} rows")

    def bw(g: np.ndarray) -> None:
        full = np.zeros_like(m.data)
        full[i, :] = g[0, :]
        _accumulate(m, full)

    return _op(m.data[i : i + 1, :].copy(), (m,), bw)


def slice_cols(m: Tensor2D, j0: int, j1: int) -> Tensor2D:
    if not 0 <= j0 < j1 <= m.cols:
        raise NumericsError(f"column slice [{j0}:{j1}] out of range for {m.cols} cols")

    def bw(g: np.ndarray) -> None:
        full = np.zeros_like(m.data)
        full[:, j0:j1] = g
        _accumulate(m, full)

    return _op(m.data[:, j0:j1].copy(), (m,), bw)


def vstack(parts: Sequence[Tensor2D]) -> Tensor2D:
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


class _ParamEntry:
    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray, grad: np.ndarray):
        self.value = value
        self.grad = grad


class ParamStore:
    """Named trainable matrices with gradient and Adam moment buffers.

    Values, gradients and both Adam moments are each one flat float64
    buffer; an entry's arrays are reshaped views into them, so an optimizer
    step is one vectorised update over every parameter. Adding an entry
    reallocates the buffers, so views taken before an ``add`` are detached;
    entries can only be added before the first optimizer step, which every
    entry then shares.
    """

    def __init__(self) -> None:
        self._entries: dict[str, _ParamEntry] = {}
        self._value = np.zeros(0)
        self._grad = np.zeros(0)
        self._m = np.zeros(0)
        self._v = np.zeros(0)
        self._step = 0

    def add(self, name: str, value) -> None:
        if name in self._entries:
            raise NumericsError(f"duplicate parameter {name!r}")
        if self._step:
            raise NumericsError(f"cannot add parameter {name!r} after an optimizer step")
        arr = np.array(value, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise NumericsError(f"parameter {name!r} must be 2-D")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError(f"parameter {name!r} contains non-finite values")
        shapes = {n: e.value.shape for n, e in self._entries.items()}
        shapes[name] = arr.shape
        self._value = np.concatenate([self._value, arr.ravel()])
        self._grad = np.concatenate([self._grad, np.zeros(arr.size)])
        # no optimizer step has run, so both moments are still zero
        self._m = np.zeros_like(self._value)
        self._v = np.zeros_like(self._value)
        offset = 0
        for n, shape in shapes.items():
            end = offset + shape[0] * shape[1]
            self._entries[n] = _ParamEntry(
                self._value[offset:end].reshape(shape), self._grad[offset:end].reshape(shape)
            )
            offset = end

    def names(self) -> list[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def value(self, name: str) -> np.ndarray:
        return self._entries[name].value

    def grad(self, name: str) -> np.ndarray:
        return self._entries[name].grad

    def step_count(self, name: str) -> int:
        if name not in self._entries:
            raise KeyError(name)
        return self._step

    def leaf(self, name: str) -> Tensor2D:
        """A tape leaf whose grad buffer aliases the stored gradient."""
        entry = self._entries[name]
        t = Tensor2D(entry.value)
        t.data = entry.value  # share storage so optimizer updates are seen
        t.grad = entry.grad
        return t

    def zero_grads(self) -> None:
        self._grad[:] = 0.0

    def clone(self) -> "ParamStore":
        other = ParamStore()
        for name in self.names():
            other.add(name, self._entries[name].value.copy())
        return other

    def entries(self) -> Iterable[tuple[str, np.ndarray]]:
        for name in self.names():
            yield name, self._entries[name].value

    def total_size(self) -> int:
        return self._value.size


def adam_step(
    store: ParamStore,
    lr: float = 1e-3,
    b1: float = 0.9,
    b2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update of every entry, vectorised over the store.

    Elementwise it is the textbook per-entry update, in the same order of
    operations, so the result is bit-identical to updating entry by entry.
    Gradients are left untouched; the caller decides when to zero them.
    """
    store._step += 1
    value, g, m, v = store._value, store._grad, store._m, store._v
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * (g * g)
    update = m / (1.0 - b1**store._step)
    update *= lr
    denom = v / (1.0 - b2**store._step)
    np.sqrt(denom, out=denom)
    denom += eps
    update /= denom
    value -= update
    if not np.all(np.isfinite(value)):
        name = next(n for n, e in store.entries() if not np.all(np.isfinite(e)))
        raise NonFiniteError(f"parameter {name!r} diverged during adam_step")


def grad_check(
    loss_fn: Callable[[ParamStore], Tensor2D],
    store: ParamStore,
    eps: float,
    rng: np.random.Generator | None = None,
    max_coords_per_param: int = 16,
) -> float:
    """Worst relative error between tape gradients and central differences.

    ``loss_fn`` must be deterministic in the store contents (freeze any
    sampling before calling). A random subset of coordinates per parameter
    is probed; relative error uses max(|analytic|, |numeric|, 1) as the
    denominator so near-zero gradients do not blow up the ratio.
    """
    if eps <= 0.0:
        raise NumericsError("grad_check requires eps > 0")
    if rng is None:
        rng = np.random.default_rng(0)

    loss = loss_fn(store)
    if not np.all(np.isfinite(loss.data)):
        raise NonFiniteError("loss is non-finite at the evaluation point")
    store.zero_grads()
    loss.backward()
    analytic = {name: store.grad(name).copy() for name in store.names()}

    worst = 0.0
    for name in store.names():
        value = store.value(name)
        flat = value.reshape(-1)
        n = flat.size
        if n <= max_coords_per_param:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=max_coords_per_param, replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            up = loss_fn(store).item()
            flat[c] = orig - eps
            down = loss_fn(store).item()
            flat[c] = orig
            numeric = (up - down) / (2.0 * eps)
            a = analytic[name].reshape(-1)[c]
            denom = max(abs(a), abs(numeric), 1.0)
            worst = max(worst, abs(a - numeric) / denom)
    return worst
