"""Shared low-level helpers: stable seeding, deterministic RNGs, units.

Every stochastic choice in the reproduction flows through
:func:`stable_seed` so that a given configuration replays byte-identically
across runs and platforms (Python's built-in ``hash`` is salted per
process and is never used for seeding).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Generic, Hashable, Iterable, Sequence, TypeVar

import numpy as np

#: Bytes per simulated OS page.  4 KiB matches x86-64 and the paper.
PAGE_SIZE = 4096

KIB = 1024
MIB = 1024 * 1024
GIB = 1024 * 1024 * 1024


_NUMPY_SCALARS = (np.integer, np.floating, np.str_, np.bool_)


def stable_seed(*parts: object) -> int:
    """Derive a stable 64-bit seed from arbitrary hashable parts.

    The derivation uses SHA-256 over the ``repr`` of each part, so it is
    independent of interpreter hash randomization and stable across runs.
    NumPy scalars hash as the Python value they hold: their own ``repr``
    changed between NumPy 1 and 2 (``5`` became ``np.int64(5)``), and a
    seed must not depend on the installed NumPy.
    """
    text = "".join(
        [
            repr(part.item() if isinstance(part, _NUMPY_SCALARS) else part) + "\x1f"
            for part in parts
        ]
    )
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "little")


def rng_for(*parts: object) -> np.random.Generator:
    """Return a numpy Generator deterministically seeded from ``parts``."""
    return np.random.Generator(np.random.PCG64(stable_seed(*parts)))


# ------------------------------------------------ batched generator seeding
#
# ``np.random.PCG64(seed)`` spends ~10 us turning one integer into a
# generator state: a ``SeedSequence`` object, its entropy pool, four
# output words, a bit generator.  The arithmetic behind it is a fixed
# sequence of uint32 multiply/xor/shift steps (``SeedSequence``, from
# O'Neill's ``seed_seq_fe``) followed by two steps of PCG64's 128-bit
# LCG, and it is the same sequence for every seed below 2**128 — so it
# runs over an array of seeds at once.  NumPy guarantees the stream of
# both pieces (NEP 19); ``tests/test_util.py`` compares this kernel with
# ``np.random.PCG64`` itself and is the alarm should that ever change.


def _uint32_chain(start: int, multiplier: int, length: int) -> tuple[np.uint32, ...]:
    """``start * multiplier**k mod 2**32`` for ``k = 0..length``."""
    chain = [start]
    for _ in range(length):
        chain.append((chain[-1] * multiplier) & 0xFFFFFFFF)
    return tuple(np.uint32(value) for value in chain)


#: ``SeedSequence``'s two running hash constants: every ``hashmix`` step
#: xors with one element and multiplies by the next.  Seeding makes 16
#: steps on the first chain (4 pool words + 12 cross-mixes) and 8 on the
#: second (the 8 output words).
_SEED_HASH_A = _uint32_chain(0x43B0D7E5, 0x931E8875, 16)
_SEED_HASH_B = _uint32_chain(0x8B51F9DD, 0x58F38DED, 8)
_SEED_MIX_L = np.uint32(0xCA01F9DD)
_SEED_MIX_R = np.uint32(0x4973F715)
_SEED_XSHIFT = np.uint32(16)
#: PCG64's default 128-bit LCG multiplier, as two uint64 halves.
_PCG_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_PCG_MULT_LO = np.uint64(0x4385DF649FCCF645)
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _pcg_multiply(hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(hi, lo) * multiplier mod 2**128`` on uint64 arrays.

    uint64 products wrap, which is the reduction wanted everywhere but
    in the carry of ``lo * MULT_LO`` into the high half; that one comes
    from the four 32-bit partial products.
    """
    a0, a1 = lo & _LOW32, lo >> _SHIFT32
    b0, b1 = _PCG_MULT_LO & _LOW32, _PCG_MULT_LO >> _SHIFT32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    middle = (p00 >> _SHIFT32) + (p01 & _LOW32) + (p10 & _LOW32)
    carry = a1 * b1 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (middle >> _SHIFT32)
    return carry + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO, lo * _PCG_MULT_LO


def pcg64_seed_states(seeds: np.ndarray) -> np.ndarray:
    """The state ``np.random.PCG64(seed)`` starts from, for many seeds.

    ``seeds`` is an array of integers in ``[0, 2**64)`` (what
    :func:`stable_seed` returns).  Row ``i`` of the ``(n, 4)``
    little-endian uint64 result is ``(state_lo, state_hi, inc_lo,
    inc_hi)``: exactly ``np.random.PCG64(seeds[i]).state["state"]``
    with each 128-bit integer split in two.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    step = 0

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal step
        value = (value ^ _SEED_HASH_A[step]) * _SEED_HASH_A[step + 1]
        step += 1
        return value ^ (value >> _SEED_XSHIFT)

    # The entropy pool: a seed is one or two uint32 words, and
    # SeedSequence hashes absent words as zeros.
    zero = np.zeros(seeds.shape, dtype=np.uint32)
    pool = [
        hashmix(word)
        for word in (
            (seeds & _LOW32).astype(np.uint32),
            (seeds >> _SHIFT32).astype(np.uint32),
            zero,
            zero,
        )
    ]
    for source in range(4):
        for target in range(4):
            if source != target:
                mixed = _SEED_MIX_L * pool[target] - _SEED_MIX_R * hashmix(pool[source])
                pool[target] = mixed ^ (mixed >> _SEED_XSHIFT)
    # generate_state(4, uint64): eight uint32 words, paired low-first.
    words = []
    for index in range(8):
        value = (pool[index % 4] ^ _SEED_HASH_B[index]) * _SEED_HASH_B[index + 1]
        words.append((value ^ (value >> _SEED_XSHIFT)).astype(np.uint64))
    init_hi, init_lo, seq_hi, seq_lo = (
        words[2 * pair] | (words[2 * pair + 1] << _SHIFT32) for pair in range(4)
    )
    # pcg64_srandom_r: inc = (seq << 1) | 1, then from a zero state
    # step, add the initial state, step: state = (inc + init) * M + inc.
    one = np.uint64(1)
    inc_hi = (seq_hi << one) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << one) | one
    lo = inc_lo + init_lo
    hi = inc_hi + init_hi + (lo < inc_lo)
    hi, lo = _pcg_multiply(hi, lo)
    states = np.empty(seeds.shape + (4,), dtype="<u8")
    states[..., 0] = lo + inc_lo
    states[..., 1] = hi + inc_hi + (states[..., 0] < lo)
    states[..., 2] = inc_lo
    states[..., 3] = inc_hi
    return states


class SeededLognormal:
    """``rng_for(*label, *key).lognormal(mean, sigma)`` for many keys,
    bit for bit, without building a generator per key.

    :meth:`prime` seeds a batch of keys in one :func:`pcg64_seed_states`
    call; :meth:`draw` loads a key's state into the one ``PCG64`` this
    object owns and makes the draw with numpy's own ``lognormal`` (whose
    ziggurat tables are numpy-internal — nothing about the distribution
    is restated here).  A key that was not primed is seeded on the spot
    by the same kernel, as a batch of one.  Only the latest batch stays
    primed, as 32 bytes a key.
    """

    def __init__(self, *label: object):
        self._label = label
        self._bit_generator = np.random.PCG64(0)
        self._lognormal = np.random.Generator(self._bit_generator).lognormal
        self._state = self._bit_generator.state
        self._rows: dict[tuple, int] = {}
        self._states = b""

    def _seed(self, keys: Sequence[tuple]) -> bytes:
        label = self._label
        seeds = np.fromiter(
            (stable_seed(*label, *key) for key in keys), dtype=np.uint64, count=len(keys)
        )
        return pcg64_seed_states(seeds).tobytes()

    def prime(self, keys: Sequence[tuple]) -> None:
        """Seed ``keys`` (tuples of the parts after the label) at once,
        replacing the previous batch."""
        self._states = self._seed(keys)
        self._rows = {key: row for row, key in enumerate(keys)}

    def draw(self, key: tuple, mean: float, sigma: float) -> float:
        """One lognormal draw from the fresh generator of ``key``."""
        row = self._rows.get(key)
        if row is None:
            states, offset = self._seed((key,)), 0
        else:
            states, offset = self._states, 32 * row
        words = self._state["state"]
        words["state"] = int.from_bytes(states[offset : offset + 16], "little")
        words["inc"] = int.from_bytes(states[offset + 16 : offset + 32], "little")
        self._bit_generator.state = self._state
        return self._lognormal(mean, sigma)


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


def concat_ranges(range_starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Indices ``[s0, s0+1, ..), (s1, ..), ...`` concatenated, vectorised.

    The CSR expansion: range ``i`` contributes ``lengths[i]`` consecutive
    indices from ``range_starts[i]``."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.repeat(range_starts - (np.cumsum(lengths) - lengths), lengths)
    return np.arange(total, dtype=np.int64) + offsets


def run_starts(values: np.ndarray) -> np.ndarray:
    """Index of the first element of every run of equal ``values``."""
    change = np.empty(len(values), dtype=bool)
    change[:1] = True
    np.not_equal(values[1:], values[:-1], out=change[1:])
    return np.flatnonzero(change)


def run_lengths(starts: np.ndarray, total: int) -> np.ndarray:
    """Lengths of the runs beginning at ``starts`` in ``total`` elements."""
    lengths = np.empty_like(starts)
    lengths[:-1] = starts[1:]
    lengths[-1:] = total
    lengths -= starts
    return lengths


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
