"""End-to-end run with both external services swapped in via env vars."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from guardian.cli import main
from guardian.harness import ExperimentConfig, run_experiment


class _ServiceHandler(BaseHTTPRequestHandler):
    embed_calls = 0
    agent_calls = 0
    width = 64  # numbers per embedding; the default k is 64

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if self.path == "/embed":
            _ServiceHandler.embed_calls += 1
            rng = np.random.default_rng(abs(hash(body["text"])) % (2**32))
            vec = rng.normal(size=_ServiceHandler.width)
            vec /= np.linalg.norm(vec)
            reply = {"vector": vec.tolist()}
        else:
            _ServiceHandler.agent_calls += 1
            reply = {"response": f"Answer: 13. Reasoning: remote {body['round']}"}
        payload = json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def services(monkeypatch):
    _ServiceHandler.embed_calls = 0
    _ServiceHandler.agent_calls = 0
    _ServiceHandler.width = 64
    server = HTTPServer(("127.0.0.1", 0), _ServiceHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_port}"
    monkeypatch.setenv("GUARDIAN_REMOTE_AGENT_URL", f"{base}/agent")
    monkeypatch.setenv("GUARDIAN_REMOTE_AGENT_TOKEN", "token123")
    monkeypatch.setenv("GUARDIAN_EMBEDDER_URL", f"{base}/embed")
    yield server
    server.shutdown()


def test_remote_experiment_end_to_end(services):
    cfg = ExperimentConfig(
        n_tasks=1,
        trials=1,
        seed=4,
        n_agents=3,
        epochs_initial=3,
        epochs_incremental=1,
        defense=True,
    )
    report, logs = run_experiment(cfg)
    # every agent response came over HTTP, every embedding too
    assert _ServiceHandler.agent_calls == logs[0].api_calls
    assert _ServiceHandler.embed_calls >= logs[0].api_calls
    # detection metrics are unavailable without labels; cost metrics remain
    assert logs[0].ground_truth is None
    assert report.detection_rate is None
    assert report.fdr is None
    assert report.api_calls_mean == logs[0].api_calls
    # remote agents all answered 13, which is not this task's correct answer
    assert logs[0].final_answer == "13"


def test_bad_embedder_fails_before_any_agent_is_called(services, capsys):
    _ServiceHandler.width = 63
    assert main(["defend", "--tasks", "1", "--agents", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: GUARDIAN_EMBEDDER_URL http://127.0.0.1:") and "64 finite numbers" in err, err
    assert (_ServiceHandler.embed_calls, _ServiceHandler.agent_calls) == (1, 0)
