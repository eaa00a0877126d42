"""JSON over HTTP: the one client that both remote endpoints (agents, encoder) use."""

from __future__ import annotations

import json

__all__ = ["post_json"]


def post_json(url: str, payload: dict, timeout: float, token: str | None = None) -> dict:
    """POST `payload` as JSON, with `token` as a Bearer header when given.

    Only an HTTP 200 reply whose UTF-8 JSON body is an object is returned; a
    failed call or another status raises OSError, any other body ValueError.
    """
    # Imported here: they pull in email and ssl, which only remote runs need.
    import http.client
    import urllib.request

    headers = {"Content-Type": "application/json"}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    req = urllib.request.Request(url, json.dumps(payload).encode("utf-8"), headers, method="POST")
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            status, body = resp.status, resp.read()
    except http.client.HTTPException as err:  # bytes that are not an HTTP reply
        raise OSError(f"malformed HTTP reply: {err!r}") from err
    if status != 200:
        raise OSError(f"HTTP {status}")
    reply = json.loads(body.decode("utf-8"))
    if not isinstance(reply, dict):
        raise ValueError(f"reply is a JSON {type(reply).__name__}, not an object")
    return reply
