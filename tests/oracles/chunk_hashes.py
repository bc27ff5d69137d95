"""Chunk digests hashed one ``bytes`` chunk at a time.

:func:`hash_bytes_many` is the batched form of ``repro._util.hash_bytes``
that the fingerprint scan used before it hashed gathered rows
(``hash_rows_sha1``); tests keep it as a second statement of the
truncated digest.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np


def hash_bytes_many(chunks: Iterable[bytes], bits: int = 64) -> np.ndarray:
    """One truncated SHA-1 digest per chunk, as uint64:
    ``[hash_bytes(c, bits) for c in chunks]`` for any ``bits <= 64``.
    Truncating the little-endian digest to ``bits <= 64`` bits reads
    only its first 8 bytes, so each is read as one ``<u8`` word."""
    if not 1 <= bits <= 64:
        raise ValueError(f"bits must be in [1, 64], got {bits}")
    words = np.frombuffer(
        b"".join(hashlib.sha1(chunk).digest()[:8] for chunk in chunks), dtype="<u8"
    )
    if bits == 64:
        return words.copy()
    return words & np.uint64((1 << bits) - 1)
