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
import re
import sys
from dataclasses import dataclass

import numpy as np

from .remote import post_json

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
    """POST {"text": ...} to an encoder service, expect {"vector": [dim numbers]}.

    A failed call, any reply but HTTP 200 with a JSON object, and a vector
    that is not `dim` finite numbers all raise EmbeddingError naming `url`
    and GUARDIAN_EMBEDDER_URL, the variable the command line reads it from.
    """
    try:
        vector = post_json(url, {"text": text}, timeout).get("vector")
    except (OSError, ValueError) as err:
        raise EmbeddingError(f"GUARDIAN_EMBEDDER_URL {url}: request failed: {err}") from err
    # type() rejects bools; an int compares with a float exactly, so a huge one cannot overflow
    if not isinstance(vector, list) or len(vector) != dim or not all(
        type(v) in (int, float) and abs(v) <= sys.float_info.max for v in vector
    ):
        raise EmbeddingError(
            f"GUARDIAN_EMBEDDER_URL {url}: returned a bad vector (expected {dim} finite numbers)"
        )
    return np.array(vector, dtype=np.float64)
