"""Shared low-level helpers: stable seeding, deterministic RNGs, units.

Every stochastic choice in the reproduction flows through
:func:`stable_seed` so that a given configuration replays byte-identically
across runs and platforms (Python's built-in ``hash`` is salted per
process and is never used for seeding).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Generic, Hashable, Iterable, TypeVar

import numpy as np

#: Bytes per simulated OS page.  4 KiB matches x86-64 and the paper.
PAGE_SIZE = 4096

KIB = 1024
MIB = 1024 * 1024
GIB = 1024 * 1024 * 1024


def stable_seed(*parts: object) -> int:
    """Derive a stable 64-bit seed from arbitrary hashable parts.

    The derivation uses SHA-256 over the ``repr`` of each part, so it is
    independent of interpreter hash randomization and stable across runs.
    """
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x1f")
    return int.from_bytes(digest.digest()[:8], "little")


def rng_for(*parts: object) -> np.random.Generator:
    """Return a numpy Generator deterministically seeded from ``parts``."""
    return np.random.Generator(np.random.PCG64(stable_seed(*parts)))


def hash_bytes(data: bytes, bits: int = 64) -> int:
    """SHA-1 digest of ``data`` truncated to ``bits`` bits.

    The paper uses SHA-1 for chunk hashes; ``bits`` lets experiments model
    smaller fingerprint tables (and hence hash collisions, Section 7.8).
    """
    if not 1 <= bits <= 160:
        raise ValueError(f"bits must be in [1, 160], got {bits}")
    full = int.from_bytes(hashlib.sha1(data).digest(), "little")
    return full & ((1 << bits) - 1)


def hash_bytes_many(chunks: Iterable[bytes], bits: int = 64) -> np.ndarray:
    """Batched :func:`hash_bytes`: one truncated SHA-1 digest per chunk.

    Returns a uint64 array whose elements equal
    ``[hash_bytes(c, bits) for c in chunks]`` for any ``bits <= 64``:
    truncating the little-endian 160-bit digest integer to ``bits`` bits
    only ever consumes the first 8 digest bytes, so each digest is read
    as a single ``<u8`` word and masked vectorised.  Hot-path helper for
    the fingerprint scan, which hashes every sampled chunk of an image
    in one call instead of a Python-level loop of big-int conversions.
    ``bits > 64`` does not fit the array dtype; callers needing the full
    digest width fall back to :func:`hash_bytes`.
    """
    if not 1 <= bits <= 64:
        raise ValueError(f"bits must be in [1, 64], got {bits}")
    sha1 = hashlib.sha1
    words = np.frombuffer(
        b"".join(sha1(chunk).digest()[:8] for chunk in chunks), dtype="<u8"
    )
    if bits == 64:
        return words.copy()
    return words & np.uint64((1 << bits) - 1)


def gather_chunks(data: np.ndarray, starts: np.ndarray, chunk_size: int) -> np.ndarray:
    """Gather ``chunk_size``-byte chunks of ``data`` at ``starts``.

    One numpy gather builds the ``(len(starts), chunk_size)`` uint8
    matrix that the batched chunk-hash kernels consume — replacing a
    Python-level loop of ``data[s : s + chunk_size]`` slice objects on
    the fingerprint hot path.  The gather fancy-indexes a zero-copy
    sliding-window *view* along its first axis only, which avoids
    materializing the ``(chunks, chunk_size)`` int64 index matrix a
    broadcast ``starts[:, None] + arange`` gather would build (8x the
    output's size in indices alone).  ``starts`` must satisfy
    ``0 <= s <= len(data) - chunk_size`` (unchecked beyond numpy's own
    bounds errors).
    """
    if data.dtype != np.uint8:
        raise ValueError("expected uint8 data")
    starts = np.asarray(starts, dtype=np.int64)
    if starts.size == 0:
        return np.empty((0, chunk_size), dtype=np.uint8)
    windows = np.lib.stride_tricks.sliding_window_view(np.ascontiguousarray(data), chunk_size)
    return np.ascontiguousarray(windows[starts])


def hash_rows_sha1(matrix: np.ndarray, bits: int = 64) -> np.ndarray:
    """Truncated SHA-1 digest of every row of a uint8 chunk matrix.

    Row ``i``'s value equals ``hash_bytes(matrix[i].tobytes(), bits)``
    for any ``bits <= 64``.  The rows are hashed straight from the
    C-contiguous matrix (hashlib accepts the row views' buffers), so no
    per-chunk ``bytes`` object is ever materialized — pair with
    :func:`gather_chunks` for the slice-free fingerprint hash path.
    """
    if not 1 <= bits <= 64:
        raise ValueError(f"bits must be in [1, 64], got {bits}")
    matrix = np.ascontiguousarray(matrix)
    sha1 = hashlib.sha1
    words = np.frombuffer(
        b"".join(sha1(row).digest()[:8] for row in matrix), dtype="<u8"
    )
    if bits == 64:
        return words.copy()
    return words & np.uint64((1 << bits) - 1)


#: Odd multiplier of the vectorised polynomial chunk hash (the golden-
#: ratio constant of splitmix64 — odd, so multiplication is a bijection
#: on Z/2^64).
_POLY_R = np.uint64(0x9E3779B97F4A7C15)


def _fmix64(h: np.ndarray) -> np.ndarray:
    """Murmur3's 64-bit finalizer, vectorised (avalanches every bit)."""
    h = h ^ (h >> np.uint64(33))
    h = h * np.uint64(0xFF51AFD7ED558CCD)
    h = h ^ (h >> np.uint64(33))
    h = h * np.uint64(0xC4CEB9FE1A85EC53)
    return h ^ (h >> np.uint64(33))


def poly_hash_bytes(data: bytes, bits: int = 64) -> int:
    """Scalar reference of :func:`poly_hash_rows` for one chunk.

    Pure-Python big-int evaluation (Horner + the same finalizer), kept
    deliberately independent of the vectorised kernel so equivalence
    properties test two implementations, not one against itself.
    """
    if not 1 <= bits <= 64:
        raise ValueError(f"bits must be in [1, 64], got {bits}")
    mask64 = (1 << 64) - 1
    r = int(_POLY_R)
    h = 0
    for byte in data:
        h = (h * r + byte) & mask64
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & mask64
    h ^= h >> 33
    h = (h * 0xC4CEB9FE1A85EC53) & mask64
    h ^= h >> 33
    return h & ((1 << bits) - 1)


def poly_hash_rows(matrix: np.ndarray, bits: int = 64) -> np.ndarray:
    """Fully vectorised polynomial digest of every row of a chunk matrix.

    Each row's bytes are evaluated as a polynomial in ``_POLY_R`` over
    Z/2^64 — one integer matmul for the whole matrix, no per-chunk
    Python work at all — then passed through a murmur-style finalizer so
    truncation to small ``bits`` keeps well-mixed bits.  This is the
    non-cryptographic ``hash_kind`` of the fingerprint scan: unlike the
    SHA-1 path it is trivially invertible (content-designable
    collisions), so it is an opt-in throughput/collision trade-off, not
    a default.  Deterministic across platforms and runs.
    """
    if not 1 <= bits <= 64:
        raise ValueError(f"bits must be in [1, 64], got {bits}")
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("expected a (chunks, chunk_size) matrix")
    if matrix.shape[0] == 0:
        return np.empty(0, dtype=np.uint64)
    chunk_size = matrix.shape[1]
    # powers[j] = R ** (chunk_size - 1 - j) mod 2**64, so earlier bytes
    # get higher powers (a conventional polynomial evaluation).
    powers = np.empty(chunk_size, dtype=np.uint64)
    acc = 1  # Python ints: no numpy scalar-overflow warnings
    r = int(_POLY_R)
    for j in range(chunk_size - 1, -1, -1):
        powers[j] = acc
        acc = (acc * r) & ((1 << 64) - 1)
    mixed = _fmix64(matrix.astype(np.uint64) @ powers)
    if bits == 64:
        return mixed
    return mixed & np.uint64((1 << bits) - 1)


_K = TypeVar("_K", bound=Hashable)
_V = TypeVar("_V")


class LruCache(Generic[_K, _V]):
    """A small bounded mapping with least-recently-used eviction.

    Used by the dedup agent to keep decoded base pages hot across ops on
    a node (the same base pages are re-read constantly).  ``get`` marks
    an entry most-recently-used; inserting past ``capacity`` evicts the
    oldest entry.  Hit/miss counters support overhead reporting.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict[_K, _V] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: _K) -> _V | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: _K, value: _V) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    __setitem__ = put

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: _K) -> bool:
        return key in self._entries


def round_up(value: int, multiple: int) -> int:
    """Round ``value`` up to the nearest multiple of ``multiple``."""
    if multiple <= 0:
        raise ValueError("multiple must be positive")
    return ((value + multiple - 1) // multiple) * multiple


def percentile(values: Iterable[float], pct: float) -> float:
    """Percentile (0..100) of ``values`` using linear interpolation.

    Accepts numpy arrays without copying (the array-backed timelines
    pass column views directly).  Returns ``nan`` for an empty input
    rather than raising, which keeps report rendering robust for
    functions that received no requests.
    """
    if isinstance(values, np.ndarray):
        arr = values.astype(np.float64, copy=False)
    else:
        arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return float("nan")
    return float(np.percentile(arr, pct))


def fmt_bytes(n: float) -> str:
    """Human-readable byte count (e.g. ``'12.3MB'``)."""
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(n) < 1024.0 or unit == "TB":
            return f"{n:.1f}{unit}" if unit != "B" else f"{int(n)}B"
        n /= 1024.0
    raise AssertionError("unreachable")


def fmt_ms(ms: float) -> str:
    """Human-readable duration from milliseconds."""
    if ms < 1.0:
        return f"{ms * 1000:.0f}us"
    if ms < 1000.0:
        return f"{ms:.1f}ms"
    return f"{ms / 1000:.2f}s"
