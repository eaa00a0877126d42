"""Every file reader, fed valid bytes with random mutations, either loads
the file or raises its own error: a HarnessError for episodes, corpora and
config files, a DetectorError for checkpoints. Anything else escaping a
reader is a traceback where the CLI promises an ``error: ...`` line."""

from __future__ import annotations

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from guardian.cli import _read_episode
from guardian.detector import DetectorConfig, DetectorError, init_params, load_checkpoint, save_checkpoint
from guardian.harness import (
    ExperimentConfig,
    HarnessError,
    episode_to_json,
    load_corpus,
    parse_config_file,
    run_trials,
)

# Bytes a mutation inserts: each format's delimiters, JSON's literals,
# numbers at the edges of float64, and bytes that are not UTF-8.
_TOKENS = [
    b"\t", b"\n", b"\r", b" ", b"=", b"#", b"|", b'"', b"\\", b"[", b"]", b"{", b"}", b",", b":",
    b"-", b"0", b"-0.0", b"1e999", b"NaN", b"Infinity", b"null", b"true", b"[[[[", b"\x00",
    b"\xff", b"\xc3", b"\xe2\x82",
]  # fmt: skip


_ASCII = b"0123456789-+.eE\"'[]{},: \t\n=#|_abnrtuxz"


@st.composite
def _mutations(draw, valid: bytes) -> bytes:
    """`valid` with one to four edits: a character or any byte replaced,
    characters or a token inserted, a span deleted or repeated, or the rest
    cut off. Most edits keep the text UTF-8, so that they reach the checks
    past decoding."""
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["char", "byte", "insert", "token", "delete", "repeat", "cut"]))
        if kind == "char" and at < len(data):
            data[at] = draw(st.sampled_from(_ASCII))
        elif kind == "byte" and at < len(data):
            data[at] = draw(st.integers(0, 255))
        elif kind == "insert":
            data[at:at] = bytes(draw(st.lists(st.sampled_from(_ASCII), min_size=1, max_size=6)))
        elif kind == "token":
            data[at:at] = draw(st.sampled_from(_TOKENS))
        elif kind == "delete":
            del data[at : at + draw(st.integers(1, 16))]
        elif kind == "repeat":
            data[at:at] = data[at : at + draw(st.integers(1, 32))]
        elif kind == "cut":
            del data[at:]
    return bytes(data)


@functools.cache
def _episode_bytes() -> bytes:
    """A defended episode of three rounds with corrupted messages, as
    ``guardian defend`` writes it."""
    cfg = ExperimentConfig(attack="comm_targeted", min_rounds=3, n_tasks=1, seed=3, k=8, d=4)
    logs, _ = run_trials(cfg)
    return episode_to_json(logs[0]).encode()


@functools.cache
def _checkpoint_bytes(directory) -> bytes:
    cfg = DetectorConfig(k=3, d=2)
    path = directory / "valid.ckpt"
    save_checkpoint(path, cfg, init_params(cfg, np.random.default_rng(0)))
    return path.read_bytes()


_CORPUS = b"t1\tWhat is 2 plus 3?\t4|5|6\t1\nt-2\tpick one\ta|b\t0\n\nt3\t\xc3\xa9t\xc3\xa9\tx|y|z\t2\n"
_CONFIG = (
    b"# a run\nseed = 4\nattack = comm\ntopology = 0.5\nmin_rounds = 2\nlambda = 0.01\n"
    b"history_window = none\ndefense = yes  # on\nk = 16\n"
)


def _file(tmp_path_factory, name: str, content: bytes):
    path = tmp_path_factory.getbasetemp() / name
    path.write_bytes(content)
    return path


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_mutated_episode_file_loads_or_raises_a_harness_error(tmp_path_factory, data):
    path = _file(tmp_path_factory, "mutated_episode.json", data.draw(_mutations(_episode_bytes())))
    try:
        _read_episode(path)
    except HarnessError:
        pass


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_mutated_checkpoint_loads_or_raises_a_detector_error(tmp_path_factory, data):
    valid = _checkpoint_bytes(tmp_path_factory.getbasetemp())
    path = _file(tmp_path_factory, "mutated.ckpt", data.draw(_mutations(valid)))
    try:
        load_checkpoint(path)
    except DetectorError:
        pass


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_mutated_corpus_loads_or_raises_a_harness_error(tmp_path_factory, data):
    path = _file(tmp_path_factory, "mutated_corpus.tsv", data.draw(_mutations(_CORPUS)))
    try:
        load_corpus(path)
    except HarnessError:
        pass


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_mutated_config_file_loads_or_raises_a_harness_error(tmp_path_factory, data):
    path = _file(tmp_path_factory, "mutated.cfg", data.draw(_mutations(_CONFIG)))
    try:
        ExperimentConfig.from_sources(parse_config_file(path))
    except HarnessError:
        pass


def test_the_valid_files_load(tmp_path_factory):
    # each property starts from bytes its reader accepts
    directory = tmp_path_factory.getbasetemp()
    assert len(_read_episode(_file(tmp_path_factory, "episode.json", _episode_bytes())).rounds) == 3
    cfg, _ = load_checkpoint(_file(tmp_path_factory, "valid.ckpt", _checkpoint_bytes(directory)))
    assert (cfg.k, cfg.d) == (3, 2)
    tasks = load_corpus(_file(tmp_path_factory, "corpus.tsv", _CORPUS))
    assert [t.id for t in tasks] == ["t1", "t-2", "t3"]
    cfg = ExperimentConfig.from_sources(parse_config_file(_file(tmp_path_factory, "run.cfg", _CONFIG)))
    assert (cfg.seed, cfg.attack, cfg.topology, cfg.k) == (4, "comm_targeted", 0.5, 16)
