from __future__ import annotations

import copy
import ctypes
import ctypes.util
import math
import os
import pickle
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tape
from guardian import cli, numerics
from guardian.harness import ExperimentConfig, episode_to_json, run_experiment
from guardian.numerics import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    NonFiniteError,
    NumericsError,
    ParamStore,
    Tensor2D,
    adam_step,
    grad_check,
)


def test_tensor_values_row_major():
    t = Tensor2D([[1.0, 2.0], [3.0, 4.0]])
    assert t.shape == (2, 2)
    assert t.data.ravel().tolist() == [1.0, 2.0, 3.0, 4.0]
    with pytest.raises(NumericsError, match="2-D"):
        Tensor2D([5.0, 6.0])


def test_tensor_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        Tensor2D([[1.0, float("nan")]])
    with pytest.raises(NonFiniteError):
        Tensor2D([[float("inf")]])


def test_matmul_identity():
    m = tape.Tensor([[2.0, -3.0], [0.5, 7.0]])
    eye = tape.Tensor(np.eye(2))
    assert np.allclose(tape.matmul(eye, m).data, m.data)


def test_matmul_hand_example():
    # [[1,2],[3,4]] @ [[5],[6]] = [[1*5+2*6],[3*5+4*6]] = [[17],[39]]
    a = tape.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = tape.Tensor([[5.0], [6.0]])
    assert tape.matmul(a, b).tolist() == [[17.0], [39.0]]


def test_matmul_zero_annihilates():
    z = tape.Tensor(np.zeros((2, 2)))
    m = tape.Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert tape.matmul(z, m).tolist() == [[0.0, 0.0], [0.0, 0.0]]


def test_matmul_shape_mismatch_reports_shapes():
    a = tape.Tensor(np.ones((2, 3)))
    b = tape.Tensor(np.ones((2, 3)))
    with pytest.raises(NumericsError, match=r"2x3.*2x3"):
        tape.matmul(a, b)


def test_relu_sign_split():
    out = tape.activation("relu", tape.Tensor([[-1.0, 2.0]]))
    assert out.tolist() == [[0.0, 2.0]]


def test_sigmoid_symmetry_point():
    assert tape.activation("sigmoid", tape.Tensor([[0.0]])).item() == 0.5


def test_sigmoid_closed_form():
    # sigmoid(ln 3) = 1 / (1 + 1/3) = 0.75
    out = tape.sigmoid(tape.Tensor([[math.log(3.0)]]))
    assert abs(out.item() - 0.75) < 1e-12


def test_sigmoid_saturated_stays_open_interval():
    out = tape.sigmoid(tape.Tensor([[-1e6, 1e6]]))
    assert 0.0 < out.data[0, 0] < out.data[0, 1] < 1.0


def test_activation_unknown_kind():
    with pytest.raises(NumericsError):
        tape.activation("tanh", tape.Tensor([[0.0]]))


def test_softmax_uniform():
    out = tape.softmax_rows(tape.Tensor([[0.0, 0.0, 0.0]]))
    assert np.allclose(out.data, 1.0 / 3.0)


def test_softmax_hand_example():
    # exp(ln 1), exp(ln 2), exp(ln 3) normalize to 1/6, 2/6, 3/6
    out = tape.softmax_rows(tape.Tensor([[math.log(1), math.log(2), math.log(3)]]))
    assert np.allclose(out.data, [[1 / 6, 2 / 6, 3 / 6]], atol=1e-12)


def test_softmax_shift_invariance_no_overflow():
    out = tape.softmax_rows(tape.Tensor([[1000.0, 1000.0]]))
    assert np.allclose(out.data, [[0.5, 0.5]])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=5),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_softmax_rows_sum_to_one(rows):
    out = tape.softmax_rows(tape.Tensor(np.array(rows)))
    sums = out.data.sum(axis=1)
    assert np.all(np.abs(sums - 1.0) <= 1e-9)
    assert np.all(out.data >= 0.0)


def test_adam_zero_gradient_keeps_values():
    store = ParamStore({"w": [[1.5, -2.0]]})
    adam_step(store, lr=0.1)
    assert store.value("w").tolist() == [[1.5, -2.0]]


def test_adam_first_step_hand_computed():
    # grad = 1: m_hat = 1, v_hat = 1, step = lr * 1 / (1 + eps) ~= lr
    store = ParamStore({"w": [[0.0]]})
    store.grad("w")[:] = 1.0
    adam_step(store, lr=0.1)
    assert abs(store.value("w")[0, 0] + 0.1) < 1e-8
    assert store.step == 1


def test_adam_identical_entries_stay_identical():
    store = ParamStore({"a": [[0.3, -0.7]], "b": [[0.3, -0.7]]})
    store.grad("a")[:] = [[0.2, -0.1]]
    store.grad("b")[:] = [[0.2, -0.1]]
    for _ in range(5):
        adam_step(store, lr=0.05)
    assert store.value("a").tolist() == store.value("b").tolist()


def test_adam_deterministic():
    def run():
        store = ParamStore({"w": [[1.0, 2.0]]})
        store.grad("w")[:] = [[0.5, -0.25]]
        for _ in range(3):
            adam_step(store, lr=0.01)
        return store.value("w").copy()

    assert np.array_equal(run(), run())


def _adam_per_entry(values, grads, steps, lr):
    """The textbook update, one entry at a time, as the reference."""
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    values = {n: v.copy() for n, v in values.items()}
    m = {n: np.zeros_like(v) for n, v in values.items()}
    v2 = {n: np.zeros_like(v) for n, v in values.items()}
    for step in range(1, steps + 1):
        for n in sorted(values):
            g = grads[step - 1][n]
            m[n] = b1 * m[n] + (1.0 - b1) * g
            v2[n] = b2 * v2[n] + (1.0 - b2) * (g * g)
            m_hat = m[n] / (1.0 - b1**step)
            v_hat = v2[n] / (1.0 - b2**step)
            values[n] = values[n] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return values


def test_adam_flat_store_bit_identical_to_per_entry_update():
    rng = np.random.default_rng(5)
    shapes = {"w": (3, 4), "b": (1, 4), "u": (4, 2)}
    values = {n: rng.normal(size=s) for n, s in shapes.items()}
    grads = [
        {n: rng.normal(size=s) * 10.0 ** rng.integers(-6, 3) for n, s in shapes.items()}
        for _ in range(7)
    ]
    store = ParamStore(values)
    for g in grads:
        for n in shapes:
            store.grad(n)[:] = g[n]
        adam_step(store, lr=0.02)
    expected = _adam_per_entry(values, grads, len(grads), lr=0.02)
    for n in shapes:
        assert store.value(n).tobytes() == expected[n].tobytes()
    assert store.step == len(grads)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.integers(1, 8),
    st.floats(1e-4, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_adam_skipping_an_idle_leading_span_equals_the_full_step(idle_rows, rows, steps, lr, seed):
    # entries whose gradients and moments are zero, as attn.wk and attn.wq
    # are in a one-snapshot fit from fresh moments and the rows of gcn.w0
    # for empty embedder buckets: stepping the tail of the store that
    # leaves them out, the idle rows of the last entry permuted behind the
    # moving ones, and permuting them back, equals the full step
    rng = np.random.default_rng(seed)
    values = {
        "a": rng.normal(size=(idle_rows, 3)),
        "b": rng.normal(size=(rows, 2)),
        "c": rng.normal(size=(rows + 2, 2)),
    }
    values["a"][0, 0] = values["c"][0, 0] = -0.0  # x - 0.0 keeps the sign of a zero
    live = rng.random(rows + 2) < 0.5
    live[rng.integers(rows + 2)] = True
    order = np.argsort(~live, kind="stable")
    moving = order[: live.sum()]
    partial, full = ParamStore(values), ParamStore(values)
    assert partial.moments_are_zero("a").all() and partial.moments_are_zero("c").all()
    partial.permute_rows("c", order)
    part = partial.tail("b", len(moving))
    assert part.names() == ["b", "c"] and part.value("c").shape == (len(moving), 2)
    for _ in range(steps):
        g = {}
        for name in ("b", "c"):
            shape = values[name].shape
            g[name] = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3, size=shape)
            g[name][rng.random(shape) < 0.2] = 0.0
        g["c"][~live] = 0.0
        for name in g:
            full.grad(name)[:] = g[name]
        part.grad("b")[:] = g["b"]
        part.grad("c")[:] = g["c"][moving]
        adam_step(part, lr=lr)
        adam_step(full, lr=lr)
    partial.step = part.step
    partial.permute_rows("c", np.argsort(order))
    # the tail held no gradient of the rows left out
    partial.grad("c")[:] = full.grad("c")
    for buffer in ("_value", "_grad", "_m", "_v"):
        assert getattr(partial, buffer).tobytes() == getattr(full, buffer).tobytes(), buffer
    assert partial.step == full.step == steps
    assert partial.moments_are_zero("a").all()


def test_moments_are_zero_compares_bits():
    store = ParamStore({"a": [[1.0, 2.0], [3.0, 4.0]], "b": [[3.0]]})
    assert store.moments_are_zero("a").tolist() == [True, True]
    assert store.moments_are_zero("b").tolist() == [True]
    store.grad("b")[:] = 1.0
    store.grad("a")[1, 1] = 1.0
    adam_step(store, lr=0.1)
    assert store.moments_are_zero("a").tolist() == [True, False]
    assert store.moments_are_zero("b").tolist() == [False]
    store._m[0] = -0.0  # a full step would turn it into +0.0
    assert store.moments_are_zero("a").tolist() == [False, False]


def test_tail_views_the_entries_from_first_and_permute_rows_reorders_them():
    rng = np.random.default_rng(8)
    shapes = {"a": (2, 3), "b": (1, 2), "d": (2, 2), "c": (4, 2)}
    store = ParamStore({name: rng.normal(size=shape) for name, shape in shapes.items()})
    store._block[1:] = rng.normal(size=(3, 20))
    store.step = 7
    before = store._block.copy()
    part = store.tail("b", 3)
    assert part.names() == ["b", "d", "c"] and part.step == 7
    assert part.value("c").shape == part.grad("c").shape == (3, 2)
    # the tail views this store's block from b's first column to c's third row
    assert np.shares_memory(part._block, store._block)
    assert part._block.tobytes() == store._block[:, 6:18].tobytes()
    part._block[:] = rng.normal(size=(4, 12))
    assert store._block[:, 6:18].tobytes() == part._block.tobytes()
    # what the tail leaves out is untouched: a, and c's last row
    assert store._block[:, :6].tobytes() == before[:, :6].tobytes()
    assert store._block[:, 18:].tobytes() == before[:, 18:].tobytes()

    before = store._block.copy()
    order = np.array([2, 0, 3, 1])
    store.permute_rows("c", order)
    # the rows move in the values, the gradients and both moments alike
    assert store._block[:, -8:].tobytes() == before[:, -8:].reshape(4, 4, 2)[:, order].tobytes()
    assert store._block[:, :-8].tobytes() == before[:, :-8].tobytes()
    store.permute_rows("c", np.argsort(order))
    assert store._block.tobytes() == before.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    rows=st.integers(1, 12),
    cols=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    order=st.sampled_from(["permutation", "fixed points", "repeats", "out of range"]),
)
def test_the_runner_permutes_rows_in_place_as_numpy_gathers_them(rows, cols, seed, order):
    numerics.program(())
    runner = numerics._runner
    if runner is None:
        pytest.skip("no compiled runner: numpy gathers every order")
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(4, rows, cols))
    values[rng.random(values.shape) < 0.2] = rng.choice([-0.0, np.nan, np.inf])
    index = {
        "permutation": rng.permutation(rows),
        "fixed points": np.where(rng.random(rows) < 0.5, np.arange(rows), np.arange(rows)[::-1]),
        "repeats": rng.integers(0, rows, rows),
        "out of range": np.append(rng.permutation(rows)[1:], rows),
    }[order]
    is_permutation = sorted(index.tolist()) == list(range(rows))
    # an entry as a store lays it out: each matrix a run of one row of the block
    store = ParamStore({"a": np.ones((1, 3)), "e": np.zeros((rows, cols))})
    store._block[:, 3:] = values.reshape(4, -1)
    entry = store._block[:, 3:].reshape(4, rows, cols)
    before = store._block.copy()
    assert runner.permute_rows(entry, index.astype(np.intp)) is is_permutation
    if is_permutation:
        assert entry.tobytes() == values[:, index].tobytes()
        assert store._block[:, :3].tobytes() == before[:, :3].tobytes()
    else:
        assert store._block.tobytes() == before.tobytes()
    # the store gathers what the runner does not permute, as numpy does
    store._block[:, 3:] = values.reshape(4, -1)
    if order == "out of range":
        with pytest.raises(IndexError):
            store.permute_rows("e", index)
    else:
        store.permute_rows("e", index)
        assert entry.tobytes() == values[:, index].tobytes()


def test_a_tail_holds_zero_to_all_rows_of_the_last_entry():
    # adam_step steps the whole of a tail's block, so it is as wide as the tail's entries
    store = ParamStore({"a": np.ones((2, 3)), "b": np.ones((4, 2))})
    assert store.tail("b", 0)._block.shape == (4, 0) and store.tail("a", 4)._block.shape == (4, 14)
    for rows in (-1, 5, 4000):
        with pytest.raises(NumericsError, match=f"0 to 4 rows of 'b', not {rows}"):
            store.tail("b", rows)


def test_a_layout_wider_than_its_block_is_rejected():
    store = ParamStore.__new__(ParamStore)
    with pytest.raises(NumericsError, match="block of 8 columns cannot hold 9 entries"):
        store._lay_out({"a": (1, 2), "b": (7, 1)}, np.zeros((4, 8)))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=4),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_a_store_hands_the_kernel_its_block_and_permutes_all_four_rows(shapes, seed, data):
    # adam_step is handed the block: for a store, a tail of it and their
    # copies, it is as wide as the entries, and its rows are the values, the
    # gradients and both moments
    rng = np.random.default_rng(seed)
    store = ParamStore({f"e{i}": rng.normal(size=shape) for i, shape in enumerate(shapes)})
    store._block[1:] = rng.normal(size=(3, store._block.shape[1]))
    first = data.draw(st.sampled_from(store.names()))
    part = store.tail(first, data.draw(st.integers(0, shapes[-1][0])))
    start = store._spans[first].start
    assert [row.ctypes.data for row in part._block] == [row[start:].ctypes.data for row in store._block]
    copies = copy.copy(store), copy.copy(part), pickle.loads(pickle.dumps(part))
    for twin in copies:
        assert not np.shares_memory(twin._block, store._block)
    for view in (store, part, *copies):
        width = view._block.shape[1]
        assert width == sum(r * c for _, (r, c) in view.layout)
        for row, named in zip(view._block, (view._value, view._grad, view._m, view._v)):
            assert named.shape == (width,) and named.ctypes.data == row.ctypes.data
        name = data.draw(st.sampled_from(view.names()))
        rows, cols = view.value(name).shape
        order = rng.permutation(rows)
        before = view._block.copy()
        view.permute_rows(name, order)
        span = view._spans[name]
        moved = before[:, span].reshape(4, rows, cols)[:, order]
        assert view._block[:, span].tobytes() == moved.tobytes()
        view.permute_rows(name, np.argsort(order))
        assert view._block.tobytes() == before.tobytes()


def test_param_store_entries_are_views_of_its_block():
    store = ParamStore({"a": [[1.0, 2.0]], "b": [[3.0], [4.0]]})
    assert store._block.shape == (4, 4)
    for name in store.names():
        assert np.shares_memory(store.value(name), store._block[0])
        assert np.shares_memory(store.grad(name), store._block[1])
    leaf = tape.leaf(store, "b")
    assert leaf.data is store.value("b") and leaf.grad is store.grad("b")
    tape.sum_all(tape.scale(leaf, 2.0)).backward()
    assert store.grad("b").tolist() == [[2.0], [2.0]]
    store.grad("a")[:] = 1.0
    adam_step(store, lr=0.5)
    assert leaf.data.tolist() != [[3.0], [4.0]]  # the leaf sees the update
    store.zero_grads()
    assert not store.grad("a").any() and not store.grad("b").any()


def test_param_store_from_mapping_equals_entries_added_one_by_one():
    rng = np.random.default_rng(8)
    values = {"w": rng.normal(size=(3, 4)), "b": [[0.5, -1.0]], "u": rng.normal(size=(4, 2))}
    built = ParamStore(values)
    singles = {name: ParamStore({name: value}) for name, value in values.items()}
    assert built.names() == ["w", "b", "u"]
    # the layout is the one-entry stores laid one after another in the mapping's order
    assert built._value.tobytes() == b"".join(singles[n]._value.tobytes() for n in built.names())
    assert built._block.shape == (4, 12 + 2 + 8)
    for name in values:
        assert built.value(name).tobytes() == singles[name].value(name).tobytes()
    assert built.value("b").shape == (1, 2)
    reordered = ParamStore({n: values[n] for n in ["u", "w", "b"]})
    assert reordered.names() == ["u", "w", "b"]
    assert reordered._value.tobytes() == b"".join(singles[n]._value.tobytes() for n in ["u", "w", "b"])
    values["w"][0, 0] = 99.0  # the store holds a copy
    assert built.value("w")[0, 0] != 99.0


def test_param_store_from_mapping_rejects_what_add_rejects():
    # a bad entry among good ones is rejected as it is on its own
    for name, value in {"c": np.zeros((1, 1, 1)), "b": [0.5, -1.0]}.items():
        for entries in ({name: value}, {"a": [[1.0]], name: value}):
            with pytest.raises(NumericsError, match=f"'{name}' must be 2-D"):
                ParamStore(entries)
    for entries in ({"b": [[0.0, float("inf")]]}, {"a": [[1.0]], "b": [[0.0, float("inf")]]}):
        with pytest.raises(NonFiniteError, match="'b' contains non-finite"):
            ParamStore(entries)


@pytest.mark.parametrize(
    "duplicate", [copy.copy, copy.deepcopy, lambda store: pickle.loads(pickle.dumps(store))]
)
def test_a_copied_or_unpickled_store_steps_its_own_buffers(duplicate):
    # adam_step writes the store's block in place: a copy must have its
    # own block, or stepping it would change its source
    source = ParamStore({"a": [[1.0, 2.0]], "b": [[3.0], [-4.0]]})
    for name in source.names():
        source.grad(name)[:] = 0.5
    adam_step(source, lr=0.1)
    part = source.tail("b", 1)
    for store in (source, part):
        before = store._block.copy()
        twin = duplicate(store)
        assert twin.layout == store.layout and twin.step == store.step
        assert twin._block.tobytes() == before.tobytes()
        adam_step(twin, lr=0.1)
        assert store._block.tobytes() == before.tobytes()
        adam_step(store, lr=0.1)
        assert twin._block.tobytes() == store._block.tobytes()
        assert np.shares_memory(twin.value(twin.names()[-1]), twin._block)


def test_the_numpy_passes_make_their_temporaries_once_per_store(monkeypatch):
    store = ParamStore({"a": [[1.0, 2.0]], "b": [[3.0], [-4.0]]})
    store.grad("b")[:] = 0.5
    part = store.tail("b", 1)
    monkeypatch.setattr(numerics, "_runner", None)
    assert "_scratch" not in vars(store) and "_scratch" not in vars(part)
    adam_step(part, lr=0.1)
    scratch = part._scratch
    assert scratch.shape == (2, 1) and "_scratch" not in vars(store)
    adam_step(part, lr=0.1)
    assert part._scratch is scratch


def test_adam_steps_a_finite_store_whose_sum_overflows():
    store = ParamStore({"a": [[1e308]], "b": [[1e308]]})
    with np.errstate(over="ignore"):  # the finite check's sum overflows to inf
        adam_step(store, lr=0.1)
    assert store.value("a").tolist() == [[1e308]] and store.value("b").tolist() == [[1e308]]


def test_adam_names_the_parameter_a_nan_reaches():
    store = ParamStore({"a": [[0.0, 1.0]], "b": [[2.0]], "c": [[3.0]]})
    store.grad("b")[:] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError, match="'b' diverged"):
        adam_step(store, lr=0.1)


def test_adam_names_the_diverged_parameter():
    store = ParamStore({"a": [[0.0]], "b": [[1e308]]})
    store.grad("b")[:] = -1.0
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="'b' diverged"):
        adam_step(store, lr=1e308)


def _compiled_runner():
    """The runner adam_step and program() run on, loaded as their first use loads it."""
    numerics.program(())
    if numerics._runner is None:
        assert shutil.which("gcc") is None, "gcc is on PATH, but the runner did not build"
        pytest.skip("no gcc on PATH: Adam runs its numpy passes and programs a Python loop")
    return numerics._runner


def _runner_name() -> str:
    return numerics._runner_path(numerics._RUNNER_SOURCE.read_text()).name


def _step_outcome(store, lr, runner):
    """The message adam_step raises with, None when it does not, on this runner."""
    with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
        patch.setattr(numerics, "_runner", runner)
        try:
            adam_step(store, lr)
        except NonFiniteError as err:
            return str(err)
    return None


# gradients a diverging fit can hand Adam: signed zeros, the smallest
# subnormal, values whose square underflows or overflows, infinities, NaN
_EDGE_GRADIENTS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e200, -1e200, math.inf, -math.inf, math.nan
]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 9),
    st.integers(0, 120),
    st.integers(0, 80),
    st.integers(0, 40),
    st.one_of(st.floats(1e-3, 1.0), st.floats(1.0, 1e308)),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_compiled_adam_step_equals_the_numpy_step_bit_for_bit(
    lead, cols, rows, step, lr, seed, data
):
    # the compiled step and the numpy passes, over a tail that starts `lead`
    # entries into its store (odd offsets included) and spans 0 to 200
    # entries (every vector remainder), agree in every bit of the values and
    # both moments, in the step count, and in which step raises and how
    runner = _compiled_runner()
    rng = np.random.default_rng(seed)
    values = {
        "lead": rng.normal(size=(1, lead)),
        "a": rng.normal(size=(1, cols)),
        "b": rng.normal(size=(rows + 3, 1)),
    }
    compiled, reference = ParamStore(values), ParamStore(values)
    compiled.step = reference.step = step
    parts = compiled.tail("a", rows), reference.tail("a", rows)
    size = cols + rows
    for _ in range(data.draw(st.integers(1, 4))):
        grad = rng.normal(size=size) * 10.0 ** rng.integers(-8, 4, size=size)
        edges = data.draw(st.lists(st.sampled_from(_EDGE_GRADIENTS), max_size=3 if size else 0))
        grad[rng.integers(0, size, size=len(edges))] = edges
        for part in parts:
            part._grad[:] = grad
        outcomes = _step_outcome(parts[0], lr, runner), _step_outcome(parts[1], lr, None)
        assert outcomes[0] == outcomes[1]
        assert compiled._block.tobytes() == reference._block.tobytes()
        assert parts[0].step == parts[1].step
        if outcomes[0] is not None:
            break


# values, gradients and moments around the range where the runner divides by
# the biases as corrected products (+-0 or 2^-968 <= |a| < 2^1000): the edge
# gradients, more subnormals, the bounds and their neighbours, the extremes
_EDGE_MAGNITUDES = [
    *_EDGE_GRADIENTS, -2e-323, 1e-310, 2.0**-1022, 2.0**-969, -(2.0**-969), 2.0**-968,
    -(2.0**-968), 2.0**999, -(2.0**999), 2.0**1000, -(2.0**1000), 1e300, -1e300,
    1.7976931348623157e308,
]


def _twin_stores(block: np.ndarray) -> tuple[ParamStore, ParamStore]:
    """Two stores of one (1, n) entry whose blocks both hold ``block``."""
    stores = tuple(ParamStore({"w": np.zeros((1, block.shape[1]))}) for _ in range(2))
    for store in stores:
        store._block[:] = block
    return stores


@settings(max_examples=150, deadline=None)
@given(
    st.integers(48, 130),
    st.one_of(st.integers(1, 40_000), st.sampled_from([1, 2, 37_411, 37_412, 40_000])),
    st.one_of(st.floats(1e-3, 1.0), st.floats(1.0, 1e308)),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_compiled_adam_step_equals_the_numpy_step_at_every_magnitude(size, step, lr, seed, data):
    # the runner divides by bias1 and bias2 as corrected products in each
    # 16-entry chunk whose new moments all lie in that range, and divides in
    # every other chunk and in the tail. The first chunk here holds random
    # magnitudes and one entry whose value, gradient and first moment are
    # -0.0 (its update keeps the sign of -0.0 / bias1), so it takes the
    # products; a first moment at the smallest subnormal with a zero
    # gradient sends a later chunk to the division; the rest of the block
    # draws from the edge set. Steps reach past 37,412, from where bias2 is 1.0.
    runner = _compiled_runner()
    rng = np.random.default_rng(seed)
    block = rng.normal(size=(4, size)) * 10.0 ** rng.integers(-8, 4, size=(4, size))
    block[3] = np.abs(block[3])
    block[:3, rng.integers(16)] = -0.0
    for row in block:
        edges = data.draw(st.lists(st.sampled_from(_EDGE_MAGNITUDES), max_size=size - 16))
        row[rng.integers(16, size, size=len(edges))] = edges
    guarded = data.draw(st.integers(16, size - 1))
    block[1:3, guarded] = 0.0, 5e-324
    compiled, reference = _twin_stores(block)
    compiled.step = reference.step = step - 1
    outcomes = _step_outcome(compiled, lr, runner), _step_outcome(reference, lr, None)
    assert outcomes[0] == outcomes[1]
    assert compiled._block.tobytes() == reference._block.tobytes()
    assert compiled.step == reference.step == step


def test_compiled_adam_step_equals_the_numpy_step_at_the_subnormal_fixed_point():
    # m * 0.9 rounds back to m for the four smallest positive subnormals, so
    # with zero gradients those first moments never change and the entries
    # keep being stepped; their chunks divide, beside chunks of normal moments
    # that take the corrected products
    runner = _compiled_runner()
    rng = np.random.default_rng(11)
    block = rng.normal(size=(4, 64))
    block[3] = np.abs(block[3])
    fixed = np.resize(np.array([1.0, 2.0, 3.0, 4.0, -1.0]) * 5e-324, 32)
    block[1, :32], block[2, :32] = 0.0, fixed
    compiled, reference = _twin_stores(block)
    compiled.step = reference.step = 5_000
    for _ in range(20):
        assert _step_outcome(compiled, 0.01, runner) is _step_outcome(reference, 0.01, None) is None
        assert compiled._block.tobytes() == reference._block.tobytes()
    assert compiled._m[:32].tobytes() == fixed.tobytes()


@pytest.mark.parametrize("biases", [(0.1, 0.0), (1e-300, 0.5), (-0.5, 2.0), (0.5, 2.0**-10)])
def test_compiled_adam_step_equals_the_numpy_step_for_any_biases(biases):
    # adam_step's biases lie in [0.001, 1]; the runner takes the corrected
    # products only for biases in [2^-10, 1] (the last case is on its lower
    # bound), and divides by any others
    runner = _compiled_runner()
    block = np.random.default_rng(5).normal(size=(4, 48))
    block[3] = np.abs(block[3])
    compiled, reference = _twin_stores(block)
    with np.errstate(all="ignore"):
        finite = numerics._adam_step_numpy(reference, 0.01, *biases)
    assert runner.adam_step(compiled._block, 0.01, *biases) is finite
    assert compiled._block.tobytes() == reference._block.tobytes()


def test_no_build_of_the_adam_loop_calls_a_library_fma():
    # the corrected products pay off only where fma() is one instruction, so
    # the loops built for a CPU without fma divide and never call libm's fma
    runner = _compiled_runner()
    nm = shutil.which("nm")
    if nm is None:
        pytest.skip("no nm on PATH")
    symbols = subprocess.run(
        [nm, "-D", "--undefined-only", runner.__file__], capture_output=True, text=True, check=True
    ).stdout.split()
    assert not [name for name in symbols if name.split("@")[0] in ("fma", "fmaf", "fmal")]


def _read_only(block: np.ndarray) -> np.ndarray:
    block.flags.writeable = False
    return block


# Blocks the compiled step must reject before it writes: a (4, n) float64
# array is all it can step, and it steps rows of n contiguous entries that
# do not overlap.
_BAD_BLOCKS = {
    "3 rows": lambda: np.ones((3, 6)),
    "float32": lambda: np.ones((4, 6), dtype=np.float32),
    "int64": lambda: np.ones((4, 6), dtype=np.int64),
    "byte-swapped": lambda: np.ones((4, 6), dtype=">f8"),
    "Fortran-ordered": lambda: np.asfortranarray(np.ones((4, 6))),
    "column-strided": lambda: np.ones((4, 12))[:, ::2],
    "read-only": lambda: _read_only(np.ones((4, 6))),
    "overlapping rows": lambda: np.lib.stride_tricks.as_strided(np.ones(9), (4, 6), (8, 8)),
}


@pytest.mark.parametrize("case", sorted(_BAD_BLOCKS))
def test_the_compiled_step_rejects_any_other_block_before_writing(case):
    runner = _compiled_runner()
    block = _BAD_BLOCKS[case]()
    before = bytes(np.ascontiguousarray(block).data)
    with pytest.raises(ValueError, match="^adam_step takes a "):
        runner.adam_step(block, 0.1, 0.1, 0.001)
    assert bytes(np.ascontiguousarray(block).data) == before


_DEFEND_C5_ATTACKS = (("hallucination", 1), ("agent_targeted", 1), ("comm_targeted", 3))


def test_defend_c5_episodes_write_the_same_json_on_both_steps(monkeypatch):
    # the benchmark's defend_c5 configurations at seed 7, two tasks each
    runner = _compiled_runner()
    texts = []
    for handle in (runner, None):
        monkeypatch.setattr(numerics, "_runner", handle)
        texts.append([])
        for attack, min_rounds in _DEFEND_C5_ATTACKS:
            cfg = ExperimentConfig(
                attack=attack,
                min_rounds=min_rounds,
                n_tasks=2,
                seed=7,
                lambda_=1.0 / 199.0,
                carry_params=False,
            )
            texts[-1] += [episode_to_json(log) for log in run_experiment(cfg)[1]]
    assert len(texts[0]) == 6 and texts[0] == texts[1]


def _package_copy(tmp_path: Path) -> Path:
    """A directory holding a copy of the guardian package, with no runner cached."""
    root = tmp_path / "src"
    package = Path(numerics.__file__).parent
    shutil.copytree(package, root / "guardian", ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _left_in_cache(root: Path) -> list[str]:
    cache = root / "guardian" / "__pycache__"
    return sorted(p.name for p in cache.iterdir() if p.suffix != ".pyc") if cache.exists() else []


def test_without_gcc_defend_prints_the_same_and_builds_nothing(tmp_path, monkeypatch, capsys):
    for variable in ("GUARDIAN_REMOTE_AGENT_URL", "GUARDIAN_EMBEDDER_URL"):
        monkeypatch.delenv(variable, raising=False)
    argv = ["defend", "--tasks", "2", "--attack", "agent", "--seed", "3", "--out", "run"]
    (tmp_path / "in_tree").mkdir()
    monkeypatch.chdir(tmp_path / "in_tree")
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    root = _package_copy(tmp_path)
    (tmp_path / "bin").mkdir()
    (tmp_path / "bare").mkdir()
    code = (
        "import sys; from guardian import cli, numerics; code = cli.main(sys.argv[1:]); "
        "sys.stderr.write(f'{numerics.__file__} {numerics._runner}'); sys.exit(code)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        cwd=tmp_path / "bare",
        env={**os.environ, "PATH": str(tmp_path / "bin"), "PYTHONPATH": str(root)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == f"{root / 'guardian' / 'numerics.py'} None"
    assert done.stdout == printed
    episodes = sorted((tmp_path / "in_tree" / "run").rglob("*.json"))
    assert episodes
    for path in episodes:
        twin = tmp_path / "bare" / path.relative_to(tmp_path / "in_tree")
        assert twin.read_bytes() == path.read_bytes()
    assert _left_in_cache(root) == []


def test_two_processes_building_the_runner_at_once_both_load_it(tmp_path):
    _compiled_runner()
    root = _package_copy(tmp_path)
    code = (
        "from guardian import numerics as n; s = n.ParamStore({'w': [[1.0, 2.0]]}); "
        "s.grad('w')[:] = 1.0; n.adam_step(s, 0.5); n.program(()); "
        "print(n.__file__, n._runner is not None)"
    )
    env = {**os.environ, "PYTHONPATH": str(root)}
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        for _ in range(2)
    ]
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert out == f"{root / 'guardian' / 'numerics.py'} True\n"
    # one runner, readable by every user, and no temporary file of either build
    assert _left_in_cache(root) == [_runner_name()]
    runner = root / "guardian" / "__pycache__" / _runner_name()
    assert runner.stat().st_mode & 0o444 == 0o444


# every elementwise ufunc a detector pass calls, by its loop signature:
# d->d, dd->d and dd->?
_UNARY_UFUNCS = (np.exp, np.log, np.negative)
_BINARY_UFUNCS = (np.add, np.subtract, np.multiply, np.divide, np.maximum, np.minimum)
_COMPARISONS = (np.greater, np.equal)
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308, math.inf, -math.inf, math.nan, -math.nan]


def _edge_floats(rng, shape) -> np.ndarray:
    """float64 over the whole exponent range, about a tenth of it +-0,
    subnormal, +-inf or NaN."""
    with np.errstate(over="ignore"):
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-320, 309, size=shape)
    values = np.asarray(values, dtype=np.float64)
    special = rng.random(shape) < 0.1
    values[special] = rng.choice(_EDGE_VALUES, size=np.count_nonzero(special))
    return values


@settings(max_examples=300, deadline=None)
@given(
    ufunc=st.sampled_from(_UNARY_UFUNCS + _BINARY_UFUNCS + _COMPARISONS),
    shape=st.one_of(
        st.just(()), st.tuples(st.integers(1, 300)), st.tuples(st.integers(1, 20), st.integers(1, 15))
    ),
    zero_d=st.sampled_from([None, 0, 1]),
    in_place=st.booleans(),
    keyword_out=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_lowered_step_gives_the_bits_of_the_numpy_call(
    ufunc, shape, zero_d, in_place, keyword_out, seed
):
    runner = _compiled_runner()
    comparison = ufunc in _COMPARISONS

    def operands():
        rng = np.random.default_rng(seed)
        inputs = [_edge_floats(rng, shape) for _ in range(ufunc.nin)]
        if zero_d is not None and zero_d < ufunc.nin:
            inputs[zero_d] = np.array(_edge_floats(rng, ()))
        if in_place and not comparison and inputs[0].shape == shape:
            return inputs, inputs[0]
        return inputs, np.empty(shape, dtype=bool if comparison else np.float64)

    inputs, out = operands()
    step = (ufunc, tuple(inputs), {"out": out}) if keyword_out else (ufunc, (*inputs, out))
    program = runner.lower([step])
    assert program.lowered == 1
    assert program() is None
    expected_inputs, expected = operands()
    with np.errstate(all="ignore"):
        ufunc(*expected_inputs, out=expected)
    assert out.tobytes() == expected.tobytes()
    for got, want in zip(inputs, expected_inputs):
        assert got.tobytes() == want.tobytes()


def _lowers_products(runner) -> bool:
    """Whether the runner found numpy's BLAS: it lowers a 2x3 . 3x2 probe."""
    a = np.ones((2, 3))
    return runner.lower([(a.dot, (np.ones((3, 2)), np.empty((2, 2))))]).lowered == 1


def _skip_without_numpy_blas(runner) -> None:
    if not _lowers_products(runner):
        pytest.skip("the runner found no BLAS in numpy: products stay numpy calls")


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 90),
    k=st.integers(2, 90),
    n=st.integers(1, 90),
    a_layout=st.sampled_from(["C", "transposed"]),
    b_layout=st.sampled_from(["C", "transposed", "a.T"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_lowered_product_gives_the_bits_of_ndarray_dot(m, k, n, a_layout, b_layout, seed):
    # gemm over C-order and transposed operands and syrk for a.dot(a.T); a
    # row, a column and a.T.dot(a) are left to numpy, with the same bits
    runner = _compiled_runner()
    _skip_without_numpy_blas(runner)
    if b_layout == "a.T":
        n = m

    def operands():
        rng = np.random.default_rng(seed)
        a = _edge_floats(rng, (m, k)) if a_layout == "C" else _edge_floats(rng, (k, m)).T
        if b_layout == "a.T":
            b = a.T
        else:
            b = _edge_floats(rng, (k, n)) if b_layout == "C" else _edge_floats(rng, (n, k)).T
        return a, b, np.full((m, n), np.nan)

    a, b, out = operands()
    program = runner.lower([(a.dot, (b, out))])
    assert program.lowered == (m > 1 and n > 1 and (a_layout, b_layout) != ("transposed", "a.T"))
    with np.errstate(all="ignore"):  # a product left to numpy warns as numpy's does
        program()
    expected_a, expected_b, expected = operands()
    with np.errstate(all="ignore"):
        expected_a.dot(expected_b, expected)
    assert out.tobytes() == expected.tobytes()
    assert (a.tobytes(), b.tobytes()) == (expected_a.tobytes(), expected_b.tobytes())


_LAYOUTS = ("C", "transposed", "half", "broadcast", "0-d")


def _laid_out(rng, layout: str, shape: tuple, broadcast: int, dtype=np.float64) -> np.ndarray:
    """Values of ``shape`` as the pass lays its operands out: an array of
    their own, a transposed view, the right half of an array twice as wide
    (as the log-variance is of the encoder output), the shape with the axes
    in the bits of ``broadcast`` cut to 1 (a bias row), or 0-d."""

    def values(size):
        if dtype == bool:  # any non-zero byte is True
            return rng.integers(0, 3, size, dtype=np.uint8).view(bool)
        return _edge_floats(rng, size)

    if layout == "0-d":
        return np.array(values(()))
    if layout == "transposed":
        return values(shape[::-1]).T
    if layout == "half":
        return values((*shape[:-1], 2 * shape[-1]))[..., shape[-1] :]
    if layout == "broadcast":
        return values(tuple(1 if broadcast >> i & 1 else size for i, size in enumerate(shape)))
    return values(shape)


def _run_twice_against_numpy(runner, ufunc, operands, keyword_out):
    """Lower the ufunc's step over ``operands()``, run it, refill its inputs
    in place and run it again; after each run, the step's bits are numpy's
    over operands made alike."""
    inputs, out = operands()
    step = (ufunc, tuple(inputs), {"out": out}) if keyword_out else (ufunc, (*inputs, out))
    program = runner.lower([step])
    assert program.lowered == 1
    expected_inputs, expected = operands()
    for run in range(2):
        if run:
            for arrays in (inputs, expected_inputs):
                rng = np.random.default_rng(run)
                for array in arrays:
                    mask = array.dtype == bool
                    array[...] = rng.random(array.shape) < 0.5 if mask else _edge_floats(rng, array.shape)
        assert program() is None
        with np.errstate(all="ignore"):
            ufunc(*expected_inputs, out=expected)
        assert out.tobytes() == expected.tobytes()
        for got, want in zip(inputs, expected_inputs):
            assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    ufunc=st.sampled_from(_UNARY_UFUNCS + _BINARY_UFUNCS + _COMPARISONS),
    shape=st.one_of(st.tuples(st.integers(1, 12), st.integers(1, 40)), st.tuples(*[st.integers(1, 5)] * 3)),
    layouts=st.lists(st.sampled_from(_LAYOUTS), min_size=2, max_size=2),
    out_layout=st.sampled_from(("C", "transposed", "half")),
    broadcast=st.lists(st.integers(1, 7), min_size=2, max_size=2),
    in_place=st.booleans(),
    keyword_out=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_lowered_step_over_broadcast_or_strided_operands_gives_numpys_bits(
    ufunc, shape, layouts, out_layout, broadcast, in_place, keyword_out, seed
):
    # broadcast rows and columns (stride 0), transposed views and strided
    # halves, as inputs and as outputs, through numpy's own iterator
    runner = _compiled_runner()
    comparison = ufunc in _COMPARISONS
    in_place = in_place and not comparison and layouts[0] in ("C", "transposed", "half")

    def operands():
        rng = np.random.default_rng(seed)
        inputs = [_laid_out(rng, layouts[i], shape, broadcast[i]) for i in range(ufunc.nin)]
        if in_place:
            return inputs, inputs[0]
        out = _laid_out(rng, out_layout, shape, 0, dtype=bool if comparison else np.float64)
        return inputs, out

    _run_twice_against_numpy(runner, ufunc, operands, keyword_out)


@settings(max_examples=200, deadline=None)
@given(
    shape=st.one_of(st.tuples(st.integers(1, 12), st.integers(1, 40)), st.tuples(*[st.integers(1, 5)] * 3)),
    mask_layout=st.sampled_from(("C", "transposed", "half", "broadcast")),
    float_layout=st.sampled_from(_LAYOUTS),
    out_layout=st.sampled_from(("C", "transposed", "half")),
    broadcast=st.lists(st.integers(1, 7), min_size=2, max_size=2),
    mask_first=st.booleans(),
    in_place=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_lowered_bool_mask_product_gives_numpys_bits(
    shape, mask_layout, float_layout, out_layout, broadcast, mask_first, in_place, seed
):
    # numpy casts the mask to exact 0.0 and 1.0 (any non-zero byte is True)
    # and multiplies by dd->d
    runner = _compiled_runner()
    in_place = in_place and float_layout in ("C", "transposed", "half")

    def operands():
        rng = np.random.default_rng(seed)
        mask = _laid_out(rng, mask_layout, shape, broadcast[0], dtype=bool)
        values = _laid_out(rng, float_layout, shape, broadcast[1])
        inputs = [mask, values] if mask_first else [values, mask]
        return inputs, values if in_place else _laid_out(rng, out_layout, shape, 0)

    _run_twice_against_numpy(runner, np.multiply, operands, keyword_out=False)


def _summed_values(rng, shape, kind: str) -> np.ndarray:
    """float64 of ``shape``: normal values, whose sums round by the order
    they are added in; the same with +-0.0, NaN of either sign and +-inf
    among them; only signed zeros; or values over the whole exponent range."""
    if kind == "edge":
        return _edge_floats(rng, shape)
    if kind == "signed zeros":
        return rng.choice([0.0, -0.0], size=shape)
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    if kind == "specials":
        special = rng.random(shape) < 0.05
        specials = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]
        values[special] = rng.choice(specials, size=np.count_nonzero(special))
    return values


# numpy reduces a vector of at most 8,192 entries in one call of its loop
# and sums a matrix's rows one by one; longer rows it chunks at its buffer,
# and a single column it sums as a vector: those steps stay numpy calls.
_SIZES = st.one_of(st.integers(1, 2), st.integers(3, 300), st.integers(8185, 8200), st.just(20000))


@settings(max_examples=300, deadline=None)
@given(
    axis_0_of=st.one_of(st.none(), st.integers(1, 12)),
    size=_SIZES,
    kind=st.sampled_from(["normal", "specials", "signed zeros", "edge"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_lowered_add_reduce_gives_the_bits_of_numpys(axis_0_of, size, kind, seed):
    # a whole vector into a 0-d array, or axis 0 of axis_0_of rows into a vector
    runner = _compiled_runner()

    def operands():
        rng = np.random.default_rng(seed)
        if axis_0_of is None:
            return _summed_values(rng, (size,), kind), np.full((), np.nan)
        return _summed_values(rng, (axis_0_of, size), kind), np.full(size, np.nan)

    values, out = operands()
    program = runner.lower([(np.add.reduce, (values, 0, None, out))])
    assert program.lowered == (size <= 8192 and (axis_0_of is None or size > 1))
    expected_values, expected = operands()
    for _ in range(2):  # each run starts again from the identity
        with np.errstate(all="ignore"):  # a step left to numpy warns as numpy's does
            program()
            np.add.reduce(expected_values, 0, None, expected)
        assert out.tobytes() == expected.tobytes()
    assert values.tobytes() == expected_values.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 3),
    size=_SIZES,
    overlapping=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_lowered_putmask_gives_the_bits_of_numpys(rows, size, overlapping, seed):
    # values copied as bytes where the mask has any non-zero byte; values
    # one entry on in the destination's own memory (which they then share
    # unless there is one entry) are left to numpy
    runner = _compiled_runner()

    def operands():
        rng = np.random.default_rng(seed)
        memory = _edge_floats(rng, rows * size + 1)
        mask = rng.integers(0, 3, (rows, size), dtype=np.uint8).view(bool)
        values = memory[1:] if overlapping else _edge_floats(rng, rows * size)
        return memory, memory[:-1].reshape(rows, size), mask, values.reshape(rows, size)

    memory, dest, mask, values = operands()
    program = runner.lower([(np.putmask, (dest, mask, values))])
    assert program.lowered == (not overlapping or rows * size == 1)
    program()
    expected_memory, expected_dest, expected_mask, expected_values = operands()
    np.putmask(expected_dest, expected_mask, expected_values)
    assert memory.tobytes() == expected_memory.tobytes()
    assert (mask.tobytes(), values.tobytes()) == (expected_mask.tobytes(), expected_values.tobytes())


# Steps over column views, a broadcast row and a bool mask, each made over
# the array it is given: the runner lowers them through numpy's iterator.
_LOWERED_OVER_VIEWS = {
    "column views": lambda a: (np.add, (a[:, :3], a[:, 3:], np.empty((4, 3))), {}),
    "broadcast row": lambda a: (np.add, (a, a[:1], np.empty((4, 6))), {}),
    "bool times float": lambda a: (np.multiply, (a, a > 0, np.empty((4, 6))), {}),
}


@pytest.mark.parametrize("case", sorted(_LOWERED_OVER_VIEWS))
def test_a_lowered_step_over_views_gives_numpys_bits(case):
    runner = _compiled_runner()
    a = np.arange(24.0).reshape(4, 6) - 7.5
    call, args, kwargs = _LOWERED_OVER_VIEWS[case](a)
    program = runner.lower([(call, args, kwargs)])
    assert program.lowered == 1
    assert program() is None
    b = np.arange(24.0).reshape(4, 6) - 7.5
    expected_call, expected_args, expected_kwargs = _LOWERED_OVER_VIEWS[case](b)
    expected_call(*expected_args, **expected_kwargs)
    assert [x.tobytes() for x in (a, *args)] == [x.tobytes() for x in (b, *expected_args)]


def _into_an_operand(a):
    part = a.reshape(-1)[:16].reshape(4, 4)
    return part.dot, (np.eye(4) * 2.0, part), {}


# Steps the runner must leave to numpy: each makes the step's callable,
# arguments and keywords over the array it is given.
_NOT_LOWERED = {
    "strided input": lambda a: (np.add, (a[:, ::-1], a, np.empty((4, 6))), {}),
    "bool plus float": lambda a: (np.add, (a, a > 0, np.empty((4, 6))), {}),
    "float32 operand": lambda a: (np.add, (a, a.astype(np.float32), np.empty((4, 6))), {}),
    "byte-swapped operand": lambda a: (np.add, (a, a.astype(">f8"), np.empty((4, 6))), {}),
    "overlapping output": lambda a: (np.negative, (a.reshape(-1)[:-1], a.reshape(-1)[1:]), {}),
    "0-d input at the output": lambda a: (np.add, (a.reshape(-1)[0, ...], a, a), {}),
    "tuple out": lambda a: (np.exp, (a,), {"out": (a,)}),
    "another keyword": lambda a: (np.add, (a, a), {"out": a, "where": a > 0}),
    "Python float": lambda a: (np.add, (a, 1.0, np.empty((4, 6))), {}),
    "reduction": lambda a: (np.add.reduce, (a, 1, None, np.empty(4)), {}),
    "method": lambda a: (a.take, ([0, 2], 0, np.empty((2, 6))), {}),
    "inner dimension 1": lambda a: (a[:, :1].copy().dot, (a[:1].copy(), np.empty((4, 6))), {}),
    "row times column": lambda a: (a[:1].dot, (a[:1].T.copy(), np.empty((1, 1))), {}),
    "row times a matrix": lambda a: (a[:1].dot, (a.T.copy(), np.empty((1, 4))), {}),
    "matrix times a column": lambda a: (a.dot, (a[:1].T.copy(), np.empty((4, 1))), {}),
    "a transposed matrix times the matrix": lambda a: (a.T.dot, (a, np.empty((6, 6))), {}),
    "product over a copied operand": lambda a: (a[:, ::2].dot, (a[:3, :2].copy(), np.empty((4, 2))), {}),
    "product into an operand": _into_an_operand,
    "3-D matmul": lambda a: (np.matmul, (a.reshape(2, 2, 6), a.reshape(2, 6, 2), np.empty((2, 2, 2))), {}),
}


def _arrays_in(*values) -> list[bytes]:
    found = []
    for value in values:
        if isinstance(value, (tuple, list)):
            found += _arrays_in(*value)
        elif isinstance(value, np.ndarray):
            found.append(value.tobytes())
    return found


@pytest.mark.parametrize("case", sorted(_NOT_LOWERED))
def test_a_step_the_runner_cannot_lower_is_the_call_it_is(case):
    runner = _compiled_runner()
    a = np.arange(24.0).reshape(4, 6) - 7.5
    call, args, kwargs = _NOT_LOWERED[case](a)
    program = runner.lower([(call, args, kwargs)])
    assert program.lowered == 0
    program()
    b = np.arange(24.0).reshape(4, 6) - 7.5
    expected_call, expected_args, expected_kwargs = _NOT_LOWERED[case](b)
    expected_call(*expected_args, **expected_kwargs)
    expected_arrays = _arrays_in(b, expected_args, expected_kwargs.values())
    assert _arrays_in(a, args, kwargs.values()) == expected_arrays


def test_a_program_runs_its_steps_in_order_on_both_paths(monkeypatch):
    compiled = _compiled_runner()
    made = []
    for runner in (compiled, None):
        monkeypatch.setattr(numerics, "_runner", runner)
        x, calls = np.array([1.0, -2.0, 3.0]), []
        steps = [
            (np.multiply, (x, np.array(2.0), x)),
            (calls.append, ("appended",)),
            (np.maximum, (x, np.array(0.0)), {"out": x}),
            (np.add.reduce, (x, 0, None, x[0, ...])),
        ]
        program = numerics.program(steps)
        assert program() is None and program() is None
        made.append((x.tolist(), calls))
    assert made[0] == made[1] == ([28.0, 0.0, 12.0], ["appended", "appended"])
    with pytest.raises(TypeError, match="step 1"):
        compiled.lower([(np.exp, (x, x)), (np.exp, [x])])


def test_a_failing_step_raises_and_stops_the_program():
    runner = _compiled_runner()
    x, after = np.zeros(3), []
    program = runner.lower([(np.exp, (x, x)), (x.reshape, (5,)), (after.append, (1,))])
    with pytest.raises(ValueError):
        program()
    assert x.tolist() == [1.0, 1.0, 1.0] and after == []


def test_lowered_steps_warn_of_nothing_and_leave_no_floating_point_status():
    runner = _compiled_runner()
    big, out, total = np.array([1000.0, -1.0]), np.empty(2), np.empty(())
    # a reduction along rows, which stays numpy's call
    reduction = (np.add.reduce, (big.reshape(1, 2), 1, None, total.reshape(1)))
    overflowing = runner.lower([(np.exp, (big, out))])
    then_reduced = runner.lower([(np.exp, (big, out)), reduction])
    with np.errstate(all="raise"):
        overflowing()
        then_reduced()  # numpy's own check after the reduction sees no overflow
        np.multiply(np.array([2.0]), 3.0)
    assert out[0] == math.inf and total == 999.0
    # a broadcast step and a product, each overflowing, then numpy's own check
    rows, bias, summed = np.full((3, 2), 1e308), np.full((1, 2), 1e308), np.empty((3, 2))
    huge, product = np.full((2, 3), 1e300), np.empty((2, 2))
    steps = [(np.add, (rows, bias, summed)), reduction]
    if _lowers_products(runner):
        steps.insert(1, (huge.dot, (huge.T.copy(), product)))
    overflowing_then_reduced = runner.lower(steps)
    assert overflowing_then_reduced.lowered == len(steps) - 1
    with np.errstate(all="raise"):
        overflowing_then_reduced()
        np.multiply(np.array([2.0]), 3.0)
    assert (summed == math.inf).all() and total == 999.0
    assert len(steps) == 2 or (product == math.inf).all()
    with pytest.raises(FloatingPointError), np.errstate(over="raise"):
        runner.lower([(np.exp, (big,), {})])()  # a step left to numpy still checks


@pytest.mark.skipif(
    sys.platform != "linux" or platform.machine() != "x86_64", reason="x86-64 <fenv.h> flag values"
)
def test_a_program_returns_with_the_floating_point_status_clear():
    runner = _compiled_runner()
    fetestexcept = ctypes.CDLL(ctypes.util.find_library("m")).fetestexcept
    invalid, divbyzero, overflow, underflow = 0x01, 0x04, 0x08, 0x10
    x, out = np.array([1000.0, -1.0, 0.0, -745.5]), np.empty(4)
    runner.lower([(np.exp, (x, out)), (np.log, (x, out))])()
    assert fetestexcept(invalid | divbyzero | overflow | underflow) == 0
    # exp overflows and underflows; log of -1 is invalid and of 0 divides by zero
    assert out[0] == math.log(1000.0) and math.isnan(out[1]) and out[2] == -math.inf


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/maps")
def test_lowered_products_run_on_the_one_blas_numpy_loaded():
    runner = _compiled_runner()
    _skip_without_numpy_blas(runner)
    a = np.arange(6.0).reshape(2, 3)
    program = runner.lower([(a.dot, (a.T.copy(), np.empty((2, 2))))])
    assert program.lowered == 1
    program()
    maps = Path("/proc/self/maps").read_text().splitlines()
    assert len({line.split()[-1] for line in maps if "libscipy_openblas" in line}) == 1


def test_the_runner_is_built_without_fast_math():
    # Adam's loop needs its multiplies and adds unfused, and gcc links
    # crtfastmath.o into a shared object built with any of the others: loading
    # it flushes subnormals to zero in the whole process
    assert "-ffp-contract=off" in numerics._RUNNER_CFLAGS
    assert not {"-ffast-math", "-Ofast", "-funsafe-math-optimizations"} & set(numerics._RUNNER_CFLAGS)
    _compiled_runner()
    assert (np.array([5e-324]) * np.array([1.0]))[0] == 5e-324


def test_publishing_a_build_removes_stale_builds_of_its_own_kind_only(tmp_path):
    _compiled_runner()
    root = _package_copy(tmp_path)
    cache = root / "guardian" / "__pycache__"
    cache.mkdir()
    # a build of other source goes; what earlier versions built under
    # another name stays, and so does a concurrent build's temporary, which
    # that build publishes or removes
    kept = ["guardian_adam-0000000000000000.so", f".{_runner_name()}.0build"]
    for name in [*kept, "guardian_runner-0000000000000000.so"]:
        (cache / name).write_bytes(b"stale")
    code = (
        "from guardian import numerics as n; s = n.ParamStore({'w': [[1.0]]}); "
        "n.adam_step(s, 0.5); print(n._runner is not None)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(root)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True\n"
    assert _left_in_cache(root) == sorted([*kept, _runner_name()])


def test_a_failed_build_leaves_adam_on_the_numpy_passes_and_programs_on_the_python_loop(tmp_path):
    _compiled_runner()
    root = _package_copy(tmp_path)
    code = (
        "import numpy as np; from guardian import numerics as n, detector as d, graph as g; "
        f"n._runner_includes = lambda: [{str(tmp_path / 'missing')!r}]; "
        "cfg = d.DetectorConfig(k=6, d=4); rng = np.random.default_rng(3); "
        "params = d.init_params(cfg, rng); "
        "snaps = [g.Snapshot(round=t, agents=[0, 1, 2], features=n.Tensor2D(rng.normal(size=(3, 6))), "
        "adjacency=np.zeros((3, 3), dtype=bool), response_texts=['r'] * 3) for t in (1, 2)]; "
        "trace = d.fit(g.HistoryBatch.of(snaps), cfg, params, rng, 3); "
        "print(n._runner is None, [b.l_total.hex() for b in trace], params._block.tobytes().hex())"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(root)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    compiled = subprocess.run(
        [sys.executable, "-c", code.replace("n._runner_includes = ", "unused = ")],
        env={**os.environ, "PYTHONPATH": str(Path(numerics.__file__).parents[1])},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert compiled.returncode == 0, compiled.stderr
    no_runner, *trace_and_block = done.stdout.split()
    assert no_runner == "True" and compiled.stdout.split()[0] == "False"
    assert trace_and_block == compiled.stdout.split()[1:]
    assert _left_in_cache(root) == []


def test_a_cache_that_cannot_be_written_builds_the_runner_for_this_process(tmp_path, monkeypatch):
    _compiled_runner()
    (tmp_path / "file").write_text("")
    unwritable = tmp_path / "file" / "__pycache__" / "guardian_runner-0.so"
    monkeypatch.setattr(numerics, "_runner_path", lambda source: unwritable)
    runner = numerics._load_runner()
    assert runner is not None
    x = np.array([1.0, -2.0])
    assert runner.lower([(np.negative, (x, x))]).lowered == 1
    stores = [ParamStore({"w": [[1.0, -2.0, 3.0]]}) for _ in range(2)]
    for store in stores:
        store.grad("w")[:] = [[0.5, 5e-324, -1e3]]
    for store, handle in zip(stores, (runner, None)):
        assert _step_outcome(store, 0.1, handle) is None
    assert stores[0]._value.tobytes() == stores[1]._value.tobytes()


def test_grad_check_quadratic_is_tight():
    rng = np.random.default_rng(3)
    store = ParamStore({"w": rng.normal(size=(3, 4)), "b": rng.normal(size=(1, 4))})

    def loss(s: ParamStore) -> Tensor2D:
        w, b = tape.leaf(s, "w"), tape.leaf(s, "b")
        return tape.add(tape.sum_all(tape.mul(w, w)), tape.sum_all(tape.mul(b, b)))

    assert grad_check(loss, store, eps=1e-4, rng=np.random.default_rng(0)) < 1e-7


def test_grad_check_constant_loss():
    store = ParamStore({"w": [[1.0, 2.0]]})

    def loss(s: ParamStore) -> Tensor2D:
        return Tensor2D([[4.2]], backward=lambda: None)

    assert grad_check(loss, store, eps=1e-4) < 1e-12


def test_grad_check_rejects_non_finite_loss():
    store = ParamStore({"w": [[1.0]]})

    def loss(s: ParamStore) -> Tensor2D:
        return tape.log(tape.add_const(tape.leaf(s, "w"), -10.0))  # log of negative

    with pytest.raises(NonFiniteError):
        grad_check(loss, store, eps=1e-4)


def test_grad_check_all_ops_composite():
    """Every op participates in one loss; tape grads must match differences."""
    rng = np.random.default_rng(11)
    store = ParamStore(
        {
            "w1": rng.normal(size=(3, 3)) * 0.6,
            "w2": rng.normal(size=(3, 2)) * 0.6,
            "bias": rng.normal(size=(1, 2)) * 0.3,
        }
    )
    x = tape.Tensor(rng.normal(size=(4, 3)))

    def loss(s: ParamStore) -> Tensor2D:
        h = tape.relu(tape.matmul(x, tape.leaf(s, "w1")))
        h = tape.softmax_rows(h)
        z = tape.add_rowvec(tape.matmul(h, tape.leaf(s, "w2")), tape.leaf(s, "bias"))
        z = tape.clamp(z, -5.0, 5.0)
        p = tape.sigmoid(tape.matmul(z, tape.transpose(z)))
        bce = tape.add(tape.log(p), tape.log(tape.rsub_const(1.0, p)))
        pieces = tape.vstack([tape.row(z, 0), tape.row(z, 2)])
        extra = tape.sum_all(tape.mul(pieces, pieces))
        ex = tape.sum_all(tape.exp(tape.scale(tape.slice_cols(z, 0, 1), 0.5)))
        total = tape.add(tape.scale(tape.sum_all(bce), -0.01), tape.add(extra, ex))
        return tape.add_const(tape.sub(total, tape.sum_all(z)), 1.0)

    err = grad_check(loss, store, eps=1e-5, rng=np.random.default_rng(1), max_coords_per_param=30)
    assert err < 1e-6


def test_backward_requires_scalar():
    with pytest.raises(NumericsError, match="carries no gradient"):
        Tensor2D([[1.0]]).backward()
    with pytest.raises(NumericsError, match="requires a scalar"):
        tape.Tensor([[1.0, 2.0]]).backward()


def test_param_store_rejects_duplicates_and_bad_values():
    # one array under two names gives two entries, not one aliased twice
    shared = np.array([[1.0]])
    store = ParamStore({"w": shared, "v": shared})
    store.value("w")[:] = 2.0
    assert store.value("v").tolist() == [[1.0]] and shared.tolist() == [[1.0]]
    with pytest.raises(NonFiniteError, match="'bad' contains non-finite"):
        ParamStore({"w": [[1.0]], "bad": [[float("nan")]]})


def test_ops_preserve_finiteness():
    m = tape.Tensor([[800.0, -800.0]])
    # exp(800) overflows float64; the constructor must reject the result
    with pytest.raises(NonFiniteError):
        tape.exp(m)
