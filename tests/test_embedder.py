from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from guardian.embedder import EmbeddingConfig, EmbeddingError, embed, make_embedder, remote_embed

CFG = EmbeddingConfig(dim=64)


def test_empty_text_is_zero_vector():
    assert np.array_equal(embed(CFG, ""), np.zeros(64))
    assert np.array_equal(embed(CFG, " .,;!?"), np.zeros(64))


def test_repeated_calls_bit_identical():
    a = embed(CFG, "the cat sat on the mat")
    b = embed(CFG, "the cat sat on the mat")
    assert np.array_equal(a, b)


def test_bag_of_tokens_commutativity_with_lowercase():
    a = embed(CFG, "alpha beta")
    b = embed(CFG, "beta  ALPHA")
    assert np.array_equal(a, b)


def test_norm_zero_or_one():
    rng = np.random.default_rng(7)
    words = ["solve", "answer", "42", "graph", "debate", "agent", "round"]
    for _ in range(200):
        text = " ".join(rng.choice(words, size=rng.integers(0, 6)))
        norm = float(np.linalg.norm(embed(CFG, text)))
        assert norm == 0.0 or abs(norm - 1.0) < 1e-9


def test_template_answers_are_separable():
    # The simulator's response template with distinct answers must give
    # distinguishable vectors (cosine < 0.99), or scoring cannot work.
    answers = [str(v) for v in (8, 15, 21, 4, 33, 57, 102, 64)]
    texts = [f"Answer: {a}. Reasoning: careful solver 1" for a in answers]
    vectors = [embed(CFG, t) for t in texts]
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            cos = float(np.dot(vectors[i], vectors[j]))
            assert cos < 0.99, (answers[i], answers[j], cos)


def test_dim_floor_enforced():
    with pytest.raises(EmbeddingError):
        EmbeddingConfig(dim=4)


def test_make_embedder_binds_config():
    fn = make_embedder(CFG)
    assert np.array_equal(fn("hello world"), embed(CFG, "hello world"))


class _EmbedHandler(BaseHTTPRequestHandler):
    behavior = "ok"

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if self.behavior == "ok":
            vec = [float(len(body["text"]))] + [0.0] * 63
            payload = json.dumps({"vector": vec}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.end_headers()
            self.wfile.write(payload)
        elif self.behavior == "short":
            self.send_response(200)
            self.end_headers()
            self.wfile.write(json.dumps({"vector": [1.0, 2.0]}).encode())
        else:
            self.send_response(500)
            self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture()
def embed_server():
    server = HTTPServer(("127.0.0.1", 0), _EmbedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/embed"
    server.shutdown()


def test_remote_embed_roundtrip(embed_server):
    _EmbedHandler.behavior = "ok"
    vec = remote_embed(embed_server, "hello", dim=64)
    assert vec.shape == (64,)
    assert vec[0] == 5.0


def test_remote_embed_bad_dimension(embed_server):
    _EmbedHandler.behavior = "short"
    with pytest.raises(EmbeddingError, match="bad vector"):
        remote_embed(embed_server, "hello", dim=64)


def test_remote_embed_server_error(embed_server):
    _EmbedHandler.behavior = "fail"
    with pytest.raises(EmbeddingError):
        remote_embed(embed_server, "hello", dim=64)


def test_remote_embed_unreachable():
    with pytest.raises(EmbeddingError):
        remote_embed("http://127.0.0.1:9/none", "hello", dim=64, timeout=0.2)
