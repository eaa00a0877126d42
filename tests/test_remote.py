"""Malformed replies reach both remote endpoints through the one transport,
and each endpoint turns every one of them into its own error naming the URL."""

from __future__ import annotations

import re
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from guardian.embedder import EmbeddingError, remote_embed
from guardian.simulator import (
    AgentSpec,
    AttackPlan,
    RemoteAgentConfig,
    RemoteAgentError,
    Task,
    run_episode,
)

TASK = Task(id="t0", question="What is 4 + 4?", answer_space=("7", "8", "9"), correct="8")


class _ReplyHandler(BaseHTTPRequestHandler):
    status: int | None = 200  # None: answer with bytes that are not HTTP
    body = b""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        if self.status is not None:
            self.send_response(self.status)
            self.send_header("Content-Length", str(len(self.body)))
            self.end_headers()
        self.wfile.write(self.body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def reply_server():
    server = HTTPServer(("127.0.0.1", 0), _ReplyHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/endpoint"
    server.shutdown()
    server.server_close()


def _ask_agent(url):
    remote = RemoteAgentConfig(url=url, timeout=5.0)
    run_episode(TASK, [AgentSpec(id=0)], 1.0, AttackPlan(), remote=remote)


def _ask_embedder(url):
    remote_embed(url, "hello", dim=2, timeout=5.0)


_ENDPOINTS = {"agent": (_ask_agent, RemoteAgentError), "embedder": (_ask_embedder, EmbeddingError)}

_BOTH = {
    "json array": (200, b"[1.0, 2.0]"),
    "not utf-8": (200, b'{"response": "\xff", "vector": "\xff"}'),
    "http 204": (204, b""),
    "not http": (None, b"garbage\r\n\r\n"),
}
_EMBEDDER_ONLY = {
    "string entry": (200, b'{"vector": ["a", "b"]}'),
    "nested lists": (200, b'{"vector": [[1.0], [2.0]]}'),
    "bool entry": (200, b'{"vector": [true, 1.0]}'),
    "int beyond the float range": (200, b'{"vector": [1' + b"0" * 400 + b", 1.0]}"),
    "non-finite entry": (200, b'{"vector": [NaN, 1.0]}'),
}
_CASES = [(endpoint, case) for case in _BOTH for endpoint in _ENDPOINTS] + [
    ("embedder", case) for case in _EMBEDDER_ONLY
]


@pytest.mark.parametrize("endpoint, case", _CASES, ids=[f"{e}-{c}" for e, c in _CASES])
def test_malformed_reply_raises_the_endpoints_error_naming_the_url(reply_server, endpoint, case):
    _ReplyHandler.status, _ReplyHandler.body = {**_BOTH, **_EMBEDDER_ONLY}[case]
    ask, error = _ENDPOINTS[endpoint]
    with pytest.raises(error, match=re.escape(reply_server)):
        ask(reply_server)
