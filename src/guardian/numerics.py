"""Dense float64 matrices and the optimizer the detector trains with.

``Tensor2D`` holds one finite 2-D float64 matrix: snapshot features,
adjacencies, reconstructions and loss values. A 1x1 loss may carry a
``backward`` hook that writes its gradient into the ``ParamStore`` it was
computed from; the detector's hand-written backward pass supplies it, and
``grad_check`` holds it to central differences.

``adam_step``, ``program``, ``fit_epochs`` and ``ParamStore.permute_rows``
run on one compiled module, the runner in ``runner.c``. The host's gcc builds it
against the headers of this Python and numpy on the first use of any of
them, never at import, and it is cached in the ``__pycache__`` directory
beside this module (``_load_runner``). Its
``adam_step`` runs the update as one C loop over a store's block; where
``fma`` is one instruction (avx512f, or avx2 with fma, on x86-64 glibc;
builds that define ``__FP_FAST_FMA``), it divides by the two bias
corrections as reciprocal products corrected by ``fma`` to the correctly
rounded quotient, in each 16-entry chunk whose new moments are +-0 or lie
in [2^-968, 2^1000), and divides elsewhere, with the same bits. Its
``program`` lowers each ufunc call over float64 or bool arrays to the
calls of the ufunc's own inner loop that numpy would make, each
``a.dot(b, out)`` of two matrices to numpy's own gemm or syrk call, from
the BLAS numpy loaded, each ``np.add.reduce`` of a whole vector or along
axis 0 of a matrix that numpy reduces in one chunk to the calls of
``np.add``'s loop numpy's reduction makes, and ``np.putmask`` to numpy's
copies; a row, a column, ``a.T.dot(a)`` and, without that BLAS, every
product stay numpy calls, as every step does on a numpy not in
``VERIFIED_NUMPY``. Its ``fit_epochs`` runs a fit's epochs, each a noise
draw, programs, a loss check and an Adam step, without returning to
Python between them. Its ``permute_rows`` moves a permutation's rows in
place. Where the runner cannot be built or loaded (no gcc, no Python
headers, a failed build), Adam runs as numpy passes, programs as a Python
loop, a fit's epochs in detector's Python loop and permutations as numpy
gathers, with the same arguments and bits;
after the first use ``_runner`` tells which ran, None for numpy. No flag,
environment variable or config key chooses the path.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import shutil
import tempfile
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

__all__ = [
    "NumericsError",
    "NonFiniteError",
    "Tensor2D",
    "ParamStore",
    "zero_store",
    "adam_step",
    "compiled",
    "fit_epochs",
    "grad_check",
    "program",
]


class NumericsError(ValueError):
    """Shape or domain violation in a tensor operation."""


class NonFiniteError(NumericsError):
    """A tensor or parameter would hold NaN or infinity."""


class Tensor2D:
    """A finite rows x cols float64 matrix, row-major (numpy C order).

    ``backward``, when given, is called by ``backward()`` to write the
    gradient of this tensor's value into the parameters it came from.
    """

    __slots__ = ("data", "_backward")

    def __init__(self, data, backward: Callable[[], None] | None = None):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise NumericsError(f"Tensor2D requires 2-D data, got ndim={arr.ndim}")
        # a finite sum has no inf or NaN term; finite values whose sum
        # overflows fall through to the elementwise scan
        if not (math.isfinite(np.add.reduce(arr, None)) or np.isfinite(arr).all()):
            raise NonFiniteError("Tensor2D contains non-finite values")
        self.data = arr
        self._backward = backward

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise NumericsError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data[0, 0])

    def backward(self) -> None:
        """Write the gradient of this loss into its parameter store's gradients."""
        if self._backward is None:
            raise NumericsError(f"backward() on a {self.shape} tensor that carries no gradient")
        self._backward()


class ParamStore:
    """Named trainable matrices with their gradients and Adam moments.

    ``ParamStore(entries)`` copies a name -> 2-D matrix mapping into one
    ``(4, n)`` float64 block, laid out in the mapping's order, whose rows
    hold the values, the gradients and the first and second moments. An
    entry's value and gradient are reshaped views into their rows, so an
    optimizer step is one vectorised update over every parameter. The
    layout is fixed at construction. ``step`` counts the Adam updates
    applied to the store. ``copy.copy`` and pickle rebuild a store over its
    own copy of the block.
    """

    def __init__(self, entries: Mapping[str, object]) -> None:
        arrays = {name: np.asarray(value, dtype=np.float64) for name, value in entries.items()}
        for name, arr in arrays.items():
            if arr.ndim != 2:
                raise NumericsError(f"parameter {name!r} must be 2-D, got ndim={arr.ndim}")
        total = sum(arr.size for arr in arrays.values())
        self._lay_out({name: arr.shape for name, arr in arrays.items()}, np.zeros((4, total)))
        for name, arr in arrays.items():
            self._values[name][...] = arr
        if not np.all(np.isfinite(self._value)):
            name = next(n for n, v in self._values.items() if not np.all(np.isfinite(v)))
            raise NonFiniteError(f"parameter {name!r} contains non-finite values")

    def _lay_out(self, shapes: Mapping[str, tuple[int, int]], block: np.ndarray) -> None:
        """Lay entries of these shapes out, in this order, over the leading
        columns of a ``(4, n)`` block of values, gradients and both moments;
        a layout wider than the block raises ``NumericsError``. The entries'
        views are made on first use."""
        self.layout = tuple(shapes.items())
        self._spans, offset = _spans_of(self.layout)
        if block.shape[1] < offset:
            raise NumericsError(f"a block of {block.shape[1]} columns cannot hold {offset} entries")
        self._block = block[:, :offset]
        self._value, self._grad, self._m, self._v = self._block
        self.step = 0

    def _views(self, row: np.ndarray) -> dict[str, np.ndarray]:
        return {name: row[self._spans[name]].reshape(shape) for name, shape in self.layout}

    @functools.cached_property
    def _values(self) -> dict[str, np.ndarray]:
        return self._views(self._value)

    @functools.cached_property
    def _grads(self) -> dict[str, np.ndarray]:
        return self._views(self._grad)

    @functools.cached_property
    def _moment_bits(self) -> np.ndarray:
        """Both moments' rows as the bits of their values."""
        return self._block[2:].view(np.uint64)

    @functools.cached_property
    def _scratch(self) -> np.ndarray:
        """The numpy passes' two temporaries, made where they first run."""
        return np.empty((2, self._block.shape[1]))

    def names(self) -> list[str]:
        return list(self._spans)

    def value(self, name: str) -> np.ndarray:
        return self._values[name]

    def grad(self, name: str) -> np.ndarray:
        return self._grads[name]

    def zero_grads(self) -> None:
        self._grad[:] = 0.0

    def moments_are_zero(self, name: str) -> np.ndarray:
        """Per row of entry ``name``, whether both Adam moments hold +0.0,
        bit for bit, in every column."""
        rows, cols = self._values[name].shape
        bits = self._moment_bits[:, self._spans[name]]
        if not np.count_nonzero(bits):  # as in a fresh store: no row to reduce
            return np.ones(rows, dtype=bool)
        return np.bitwise_or.reduce(bits.reshape(2, rows, cols), axis=(0, 2)) == 0

    def tail(self, first: str, rows: int) -> "ParamStore":
        """A store over this one's own block: the entries from ``first`` to
        the last in layout order, the last cut to its leading ``rows`` rows.

        It starts at this store's step, and ``adam_step`` on it updates what
        it views in place; the caller copies its step back. A row count
        outside the last entry's raises ``NumericsError``.
        """
        names = self.names()
        last, (whole, cols) = self.layout[-1]
        if not 0 <= rows <= whole:
            raise NumericsError(f"a tail holds 0 to {whole} rows of {last!r}, not {rows}")
        shapes = dict(self.layout[names.index(first) :])
        shapes[last] = (rows, cols)
        part = ParamStore.__new__(ParamStore)
        part._lay_out(shapes, self._block[:, self._spans[first].start :])
        part.step = self.step
        return part

    def permute_rows(self, name: str, order: np.ndarray) -> None:
        """Reorder the rows of entry ``name`` in its value, gradient and both
        moments: row i takes what row ``order[i]`` held. The runner
        (``_loaded_runner``) moves a permutation's rows in place, each row
        that moves copied once; numpy gathers any other order, and every
        order where there is no runner."""
        rows, cols = self._values[name].shape
        entry = self._block[:, self._spans[name]].reshape(4, rows, cols)
        runner = _loaded_runner()
        if runner is None or not runner.permute_rows(entry, np.asarray(order, dtype=np.intp)):
            entry[:] = entry.take(order, axis=1)

    def __reduce__(self):
        # copies and pickles are rebuilt over their own block: a copy of the
        # attributes would share the block, and the cached views, with its source
        return _rebuilt, (self.layout, self._block, self.step)

    def entries(self) -> Iterable[tuple[str, np.ndarray]]:
        return self._values.items()


@functools.lru_cache(maxsize=256)  # a fit lays out a tail of one of a few layouts
def _spans_of(layout: tuple) -> tuple[dict[str, slice], int]:
    """Each entry's columns in a block laid out as ``layout``, and their
    total; the dict is shared, never written."""
    spans, offset = {}, 0
    for name, (rows, cols) in layout:
        spans[name] = slice(offset, offset + rows * cols)
        offset += rows * cols
    return spans, offset


def _rebuilt(layout, block: np.ndarray, step: int) -> ParamStore:
    """A store of this layout over a copy of this block, at this step."""
    store = ParamStore.__new__(ParamStore)
    store._lay_out(dict(layout), np.array(block))
    store.step = step
    return store


def zero_store(layout: Iterable[tuple[str, tuple[int, int]]]) -> ParamStore:
    """A store laid out as ``layout``, (name, (rows, cols)) pairs in order,
    whose values, gradients and moments are all +0.0, at step 0: what a
    caller draws its values straight into."""
    shapes = dict(layout)
    store = ParamStore.__new__(ParamStore)
    store._lay_out(shapes, np.zeros((4, sum(rows * cols for rows, cols in shapes.values()))))
    return store


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


# The runner reads numpy's ufunc objects, so its build is keyed by this
# Python's extension ABI and numpy's version as well as by its source and
# flags. Its Adam loop needs -ffp-contract=off, and the build must never take
# -ffast-math, -Ofast or -funsafe-math-optimizations (runner.c says why).
# Adam's constants reach it as -D definitions, so they are stated only here.
# It needs no -ldl: the dl* calls it makes to find numpy's BLAS resolve, as it
# loads, to those of the process that loaded numpy.
_RUNNER_SOURCE = Path(__file__).with_name("runner.c")
_RUNNER_CFLAGS = (
    "-O3", "-shared", "-fPIC", "-fno-strict-aliasing", "-ffp-contract=off", "-fno-math-errno", "-lm",
    f"-DADAM_BETA1={ADAM_BETA1!r}", f"-DADAM_BETA2={ADAM_BETA2!r}", f"-DADAM_EPS={ADAM_EPS!r}",
)
_COMPILE_TIMEOUT_S = 60.0

# The numpy versions the runner's lowering mirrors: their ufunc loops, fast
# path and iterator flags, and the BLAS symbols their module links. The
# properties in tests/test_numerics.py hold lowered steps to numpy's own calls
# bit for bit on these only. On any other numpy, program() lowers no step:
# each stays the numpy call it is, with that numpy's bits, and runs slower.
# Adam's loop and the row permutation use no numpy internals and stay compiled.
VERIFIED_NUMPY = ("2.4.6",)

# What program() and adam_step run on: _UNLOADED until the first use of
# either, then the compiled runner module, or None where none could be built
# or loaded.
_UNLOADED = object()
_runner: object = _UNLOADED


def _runner_path(source: str) -> Path:
    """Where the runner built from ``source`` is cached:
    ``__pycache__/guardian_runner-{key}.so``, the key a digest of the source,
    the flags, this Python's extension suffix and numpy's version."""
    import sysconfig

    parts = (source, *_RUNNER_CFLAGS, sysconfig.get_config_var("EXT_SUFFIX") or "", np.__version__)
    key = hashlib.sha256("\0".join(parts).encode()).hexdigest()
    return Path(__file__).with_name("__pycache__") / f"guardian_runner-{key[:16]}.so"


def _runner_includes() -> list[str]:
    """The header directories of this Python and of numpy."""
    import sysconfig

    paths = sysconfig.get_paths()
    return list(dict.fromkeys([paths["include"], paths["platinclude"], np.get_include()]))


def _build(gcc: str, target: Path, source: str, flags: Iterable[str]) -> bool:
    """Compile ``source`` with ``flags`` to a temporary file beside
    ``target`` and publish it there with one rename, so that a concurrent
    build or load never sees half a file; then remove the other builds of
    its name beside it (``{name}-*.so``, built from other source or flags).
    Raises OSError when that directory cannot be written."""
    import subprocess  # imported here: only a first use on a host may compile

    handle, temporary = tempfile.mkstemp(prefix=f".{target.name}.", dir=target.parent)
    os.close(handle)
    try:
        done = subprocess.run(
            [gcc, *flags, "-x", "c", "-", "-o", temporary],
            input=source,
            capture_output=True,
            text=True,
            timeout=_COMPILE_TIMEOUT_S,
        )
        if done.returncode != 0:
            return False
        os.chmod(temporary, 0o755)  # mkstemp made it private to this user
        os.replace(temporary, target)
        name = target.name.rpartition("-")[0]
        for stale in target.parent.glob(f"{name}-*.so"):
            if stale != target:
                try:
                    stale.unlink()
                except OSError:
                    pass
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(temporary):
            os.unlink(temporary)


def _import_runner(path: Path):
    """The runner module in the shared object at ``path``; None if it does not load."""
    import importlib.machinery
    import importlib.util

    loader = importlib.machinery.ExtensionFileLoader("guardian_runner", str(path))
    spec = importlib.util.spec_from_file_location("guardian_runner", path, loader=loader)
    try:
        module = importlib.util.module_from_spec(spec)
        loader.exec_module(module)
    except ImportError:
        return None
    return module


def _load_runner():
    """The runner module: from the cache at ``_runner_path``, else built into
    it with the host's gcc against the headers of this Python and numpy,
    else, where the cache is read-only, built in a temporary directory of
    this process. None when its source is missing, there is no gcc, the
    build fails or the module does not load."""
    try:
        source = _RUNNER_SOURCE.read_text()
    except OSError:
        return None
    cached = _runner_path(source)
    if not cached.exists():
        gcc = shutil.which("gcc")
        if gcc is None:
            return None
        flags = (*_RUNNER_CFLAGS, *(f"-I{directory}" for directory in _runner_includes()))
        try:
            cached.parent.mkdir(exist_ok=True)
            built = _build(gcc, cached, source, flags)
        except OSError:
            with tempfile.TemporaryDirectory() as private:
                own = Path(private, cached.name)
                # the loaded library outlives its file
                return _import_runner(own) if _build(gcc, own, source, flags) else None
        if not built:
            return None
    return _import_runner(cached)


def _loaded_runner():
    """``_runner``, loaded by the first call (``_load_runner``)."""
    global _runner
    if _runner is _UNLOADED:
        _runner = _load_runner()
    return _runner


def _run_steps(steps: tuple) -> None:
    """The steps of a program, run in a Python loop."""
    for step in steps:
        if len(step) == 2:
            step[0](*step[1])
        else:
            step[0](*step[1], **step[2])


def program(steps: Iterable[tuple]) -> Callable[[], None]:
    """A call that runs ``steps`` in order and returns None; each step is a
    ``(callable, args)`` pair or a ``(callable, args, kwargs)`` triple, run
    as ``callable(*args, **kwargs)``. The call holds the steps, and through
    them their callables and arguments, which must not change.

    The first call loads the compiled runner (``_load_runner``), which
    runs each ufunc step over float64 or bool arrays as the calls numpy
    would make of the ufunc's own inner loop, broadcast, strided and
    transposed operands and a bool times a float64 included; each
    ``a.dot(b, out)`` of two matrices as numpy's gemm or syrk call; each
    ``np.add.reduce(x, 0, None, out)`` of a contiguous vector of at most
    8,192 entries into a 0-d ``out``, or of the rows of a C-contiguous
    matrix of 2 to 8,192 columns, as numpy's reduction runs it: ``out`` set
    to +0.0, then ``np.add``'s loop pairwise over the vector or row by row;
    and each ``np.putmask`` over C-contiguous arrays of one size as numpy's
    copies. Every other step (other reductions, ``np.matmul``, other
    methods, products of a row, a column or ``a.T.dot(a)``, steps numpy
    would copy an operand for or buffer) runs as the call it is, as every
    step does on a numpy not in ``VERIFIED_NUMPY``. A lowered step gives numpy's bits and warns of
    nothing; without the runner, the steps run in a Python loop.
    """
    runner = _loaded_runner()
    if runner is None:
        return functools.partial(_run_steps, tuple(steps))
    return runner.lower(steps, np.__version__ in VERIFIED_NUMPY)


def _adam_step_numpy(store: ParamStore, lr: float, bias1: float, bias2: float) -> bool:
    """The compiled step in numpy passes; whether every new value is finite."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    value, g, m, v = store._block
    update, denom = store._scratch
    m *= b1
    np.multiply(g, 1.0 - b1, out=update)
    m += update
    v *= b2
    np.multiply(g, g, out=update)
    update *= 1.0 - b2
    v += update
    np.divide(m, bias1, out=update)
    update *= lr
    np.divide(v, bias2, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    update /= denom
    value -= update
    # A sum is finite only if every element is; finite values whose sum
    # overflows fall through to the elementwise scan, which clears them.
    return math.isfinite(np.add.reduce(value)) or bool(np.all(np.isfinite(value)))


def _biases(step: int) -> tuple[float, float]:
    """Adam's two bias corrections at this step, 1 - beta ** step."""
    return 1.0 - ADAM_BETA1**step, 1.0 - ADAM_BETA2**step


def _diverged(store: ParamStore) -> NonFiniteError:
    name = next(n for n, e in store.entries() if not np.all(np.isfinite(e)))
    return NonFiniteError(f"parameter {name!r} diverged during adam_step")


def adam_step(store: ParamStore, lr: float) -> None:
    """One bias-corrected Adam update of every entry of the store, in place.

    Elementwise it is the textbook per-entry update with ``ADAM_BETA1``,
    ``ADAM_BETA2`` and ``ADAM_EPS``, in the same order of operations, so the
    result is bit-identical to updating entry by entry. An entry whose
    gradient is +-0.0 and whose moments are +0.0 gets the update 0 and keeps
    its moments, so stepping a ``tail`` that leaves such entries and rows
    out equals the full step bit for bit (``moments_are_zero`` checks the
    moments). The first call loads the runner (``_loaded_runner``), whose
    C loop steps the store's block; without it, the numpy passes do. Where
    the CPU has fused multiply-add, the loop turns ``m / bias1`` and
    ``v / bias2`` into products by ``1 / bias``, each corrected by ``fma``
    to the correctly rounded quotient; a 16-entry chunk with a new moment
    that is neither +-0 nor of magnitude in [2^-968, 2^1000) (a subnormal,
    inf or NaN, say) divides, so the bits are the numpy passes' either way.
    Gradients are left untouched; the caller decides when to zero them.
    """
    runner = _loaded_runner()
    store.step += 1
    bias1, bias2 = _biases(store.step)
    if runner is None:
        finite = _adam_step_numpy(store, lr, bias1, bias2)
    else:
        finite = runner.adam_step(store._block, lr, bias1, bias2)
    if not finite:
        raise _diverged(store)


def compiled() -> bool:
    """Whether the runner is loaded (``_loaded_runner``), so that
    ``fit_epochs`` can run."""
    return _loaded_runner() is not None


def fit_epochs(
    store: ParamStore,
    lr: float,
    draw: Callable,
    noise: np.ndarray,
    forward: tuple,
    sums: np.ndarray,
    scales: tuple[float, float, float, float],
    backward: Callable[[], None],
    zeroed: tuple,
    out: np.ndarray,
    progress: np.ndarray,
) -> bool:
    """Run a fit's epochs in the runner, one per row of ``out``, with no
    return to Python between them; True where it stopped at a loss that is
    not finite. Needs the runner (``compiled``).

    Each epoch calls ``draw(out=noise)``, then each call of ``forward``,
    which leaves the loss's three sums (kl, the squared residuals and the
    log-likelihoods) in ``sums``. It copies them into the epoch's row of
    ``out`` and stops there if the total loss composed from them with
    ``scales`` = (per_node, per_pair, alpha, gamma), in the order of
    operations of ``detector.compose_losses``, is not finite. Then it calls
    ``backward``, sets each array of ``zeroed`` to +0.0 after the first,
    and takes ``adam_step(store, lr)``'s update with the bias corrections
    Python computes for each step. ``progress`` gets the number of finite
    losses and of Adam steps, also when a call raises, and ``store.step``
    counts the steps. An update that leaves a value not finite raises
    ``NonFiniteError`` naming the entry, as ``adam_step`` does.
    """
    start = store.step
    biases = np.array([_biases(step) for step in range(start + 1, start + 1 + len(out))])
    try:
        status = _loaded_runner().fit_epochs(
            draw, noise, forward, sums, scales, backward, zeroed, store._block, lr, biases, out, progress
        )
    finally:
        store.step = start + int(progress[1])
    if status == 2:
        raise _diverged(store)
    return status == 1


def grad_check(
    loss_fn: Callable[[ParamStore], Tensor2D],
    store: ParamStore,
    eps: float,
    rng: np.random.Generator | None = None,
    max_coords_per_param: int = 16,
) -> float:
    """Worst relative error between the gradients ``backward()`` writes into
    the store and central differences.

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
