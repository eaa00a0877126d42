"""Deterministic text featurization via signed feature hashing.

Stands in for a heavyweight sentence encoder: every token is hashed to a
bucket with a +-1 sign and the result is L2-normalized. The only property
the detection pipeline needs is that different response texts map to
different, stable vectors, which hashing provides without any model files.

Any ``text -> vector`` callable can be substituted; ``remote_embed`` speaks
a small HTTP protocol for plugging in a real encoder service.
"""

from __future__ import annotations

import hashlib
import json
import re
import urllib.error
import urllib.request
from dataclasses import dataclass

import numpy as np

__all__ = ["EmbeddingConfig", "EmbeddingError", "embed", "make_embedder", "remote_embed"]

_TOKEN_RE = re.compile(r"[0-9A-Za-z]+")
_HASH_KEY = (0x5EED).to_bytes(8, "little")


class EmbeddingError(RuntimeError):
    """Embedding could not be produced (bad config or remote failure)."""


@dataclass(frozen=True)
class EmbeddingConfig:
    dim: int = 64

    def __post_init__(self) -> None:
        if self.dim < 8:
            raise EmbeddingError(f"embedding dim must be >= 8, got {self.dim}")


def embed(cfg: EmbeddingConfig, text: str) -> np.ndarray:
    """Hash a text into a unit-norm vector of length cfg.dim.

    Tokens are maximal alphanumeric runs of the lower-cased text; each
    contributes +-1 to one bucket (bucket from the keyed hash body, sign
    from a separate hash byte). The empty token set yields the zero vector.
    """
    vec = np.zeros(cfg.dim, dtype=np.float64)
    for token in _TOKEN_RE.findall(text.lower()):
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=9, key=_HASH_KEY).digest()
        bucket = int.from_bytes(digest[:8], "little") % cfg.dim
        sign = 1.0 if digest[8] & 1 else -1.0
        vec[bucket] += sign
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec


def make_embedder(cfg: EmbeddingConfig):
    """Bind a config into the plain ``text -> vector`` shape callers expect."""

    def fn(text: str) -> np.ndarray:
        return embed(cfg, text)

    return fn


def remote_embed(url: str, text: str, dim: int, timeout: float = 30.0) -> np.ndarray:
    """POST {"text": ...} to an encoder service, expect {"vector": [floats]}.

    Timeouts, non-200 responses and malformed bodies all raise
    EmbeddingError so the episode runner can abort with a diagnostic.
    """
    body = json.dumps({"text": text}).encode("utf-8")
    req = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}, method="POST"
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            if resp.status != 200:
                raise EmbeddingError(f"embedder at {url} returned HTTP {resp.status}")
            payload = json.loads(resp.read().decode("utf-8"))
    except (urllib.error.URLError, TimeoutError, json.JSONDecodeError, OSError) as err:
        raise EmbeddingError(f"embedder request to {url} failed: {err}") from err
    vector = payload.get("vector")
    if not isinstance(vector, list) or len(vector) != dim:
        raise EmbeddingError(
            f"embedder at {url} returned a bad vector (expected {dim} floats)"
        )
    arr = np.asarray(vector, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise EmbeddingError(f"embedder at {url} returned non-finite values")
    return arr
