"""Shared low-level helpers: stable seeding, deterministic RNGs, units.

Every stochastic choice in the reproduction flows through
:func:`stable_seed` so that a given configuration replays byte-identically
across runs and platforms (Python's built-in ``hash`` is salted per
process and is never used for seeding).
"""

from __future__ import annotations

import functools
import hashlib
import math
from collections import OrderedDict
from typing import Callable, Generic, Hashable, Iterable, Sequence, TypeVar

import numpy as np

#: Bytes per simulated OS page.  4 KiB matches x86-64 and the paper.
PAGE_SIZE = 4096

KIB = 1024
MIB = 1024 * 1024
GIB = 1024 * 1024 * 1024


_NUMPY_SCALARS = (np.integer, np.floating, np.str_, np.bool_)


def _seed_part(part: object) -> str:
    """The text :func:`stable_seed` hashes for one part."""
    return repr(part.item() if isinstance(part, _NUMPY_SCALARS) else part) + "\x1f"


def stable_seed(*parts: object) -> int:
    """Derive a stable 64-bit seed from arbitrary hashable parts.

    The derivation uses SHA-256 over the ``repr`` of each part, so it is
    independent of interpreter hash randomization and stable across runs.
    NumPy scalars hash as the Python value they hold: their own ``repr``
    changed between NumPy 1 and 2 (``5`` became ``np.int64(5)``), and a
    seed must not depend on the installed NumPy.
    """
    text = "".join([_seed_part(part) for part in parts])
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


def _pcg_step(
    hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(hi, lo) * multiplier + (inc_hi, inc_lo) mod 2**128``: one LCG
    step on uint64 arrays.  Products and sums wrap, which is the
    reduction wanted everywhere but in the carries into the high half:
    that of ``lo * MULT_LO`` comes from the four 32-bit partial
    products, that of ``+ inc_lo`` from the low half wrapping below it.
    """
    a0, a1 = lo & _LOW32, lo >> _SHIFT32
    b0, b1 = _PCG_MULT_LO & _LOW32, _PCG_MULT_LO >> _SHIFT32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    middle = (p00 >> _SHIFT32) + (p01 & _LOW32) + (p10 & _LOW32)
    carry = a1 * b1 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (middle >> _SHIFT32)
    hi, lo = carry + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO, lo * _PCG_MULT_LO + inc_lo
    return hi + inc_hi + (lo < inc_lo), lo


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
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    return np.stack((lo, hi, inc_lo, inc_hi), axis=-1).astype("<u8", copy=False)


def pcg64_first_words(states: np.ndarray) -> np.ndarray:
    """``PCG64.random_raw()`` from each row: an LCG step, then XSL-RR."""
    lo, hi, inc_lo, inc_hi = states.T
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    rot, value = hi >> np.uint64(58), hi ^ lo
    return (value >> rot) | (value << ((np.uint64(64) - rot) & np.uint64(63)))


# ------------------------------------------------ the one-word normal draw
#
# numpy's normal is a ziggurat: word r gives the layer r & 0xff, the sign
# r >> 8 & 1 and the magnitude r >> 9 (52 bits); under its layer's k the
# draw is ±magnitude * w[layer], from r alone (98.5 % of draws).  w and k
# are private to numpy's C source, so they are read back, not copied.

_PCG_MULT = int(_PCG_MULT_HI) << 64 | int(_PCG_MULT_LO)
_Probe = Callable[[int], tuple[float, bool]]


def _crafted_normal() -> _Probe:
    """numpy's normal on the words ``word``, 0, and whether it read one:
    the states after a step are ``word`` (high half 0: XSL-RR puts out
    ``word``) and ``pad * (2**64 + 1)`` (``pad`` makes the increment odd)."""
    bit_generator = np.random.PCG64(0)
    normal = np.random.Generator(bit_generator).standard_normal
    state, inverse = bit_generator.state, pow(_PCG_MULT, -1, 1 << 128)

    def draw(word: int) -> tuple[float, bool]:
        pad = ~word & 1
        inc = ((pad << 64 | pad) - word * _PCG_MULT) % (1 << 128)
        state["state"] = {"state": (word - inc) * inverse % (1 << 128), "inc": inc}
        bit_generator.state = state
        return normal(), bit_generator.state["state"]["state"] == word

    return draw


def _read_one_word_tables(normal_of: _Probe) -> tuple[np.ndarray, np.ndarray]:
    """``(w, bound)``: ``w[i]`` is the draw at layer ``i``, magnitude 1;
    bound ``i``, ``⌊2**52 w[i-1] / w[i]⌋ - 1`` (``w[255]`` above layer 0;
    numpy's ``k`` is 1 or 2 higher), stands if the draw at ``bound - 1``
    reads one word and is ``±(bound - 1) w[i]``, else it is 0 (layer 1)."""
    widths = np.array([normal_of(layer | 1 << 9)[0] for layer in range(256)])
    estimates = np.floor(2.0**52 * np.roll(widths, 1) / widths)
    bounds = np.zeros(256, dtype=np.uint64)
    for layer in range(256):
        magnitude, sign = min(int(estimates[layer]) - 1, 1 << 52) - 1, layer & 1
        if magnitude >= 0:
            value, one_word = normal_of(layer | sign << 8 | magnitude << 9)
            if one_word and value == (-1.0) ** sign * (magnitude * widths[layer]):
                bounds[layer] = magnitude + 1
    return widths, bounds


_one_word_tables = functools.cache(lambda: _read_one_word_tables(_crafted_normal()))


def _one_word_lognormals(
    states: np.ndarray, means: Sequence[float], sigmas: Sequence[float]
) -> tuple[list[float], list[int]]:
    """``exp(mean + sigma * x)`` where numpy settles ``x`` on the first word
    (``math.exp`` is libm's, as numpy's; ``np.exp`` differs), and the rows
    left to numpy: the rest, an ``exp`` past 709 and a sigma numpy rejects."""
    widths, bounds = _one_word_tables()
    word = pcg64_first_words(states)
    layer = (word & np.uint64(0xFF)).astype(np.intp)
    magnitude = (word >> np.uint64(9)) & np.uint64(2**52 - 1)
    x = magnitude * widths[layer]
    np.negative(x, out=x, where=(word & np.uint64(0x100)).astype(bool))
    sigmas = np.asarray(sigmas, dtype=np.float64)
    args = np.asarray(means, dtype=np.float64) + sigmas * x
    settled = (magnitude < bounds[layer]) & (args < 709.0) & ~np.signbit(sigmas)
    values = list(map(math.exp, np.where(settled, args, 0.0).tolist()))
    return values, np.flatnonzero(~settled).tolist()


#: ``hashlib``'s digest method, to map over a batch of hash objects.
_SHA256_DIGEST = type(hashlib.sha256()).digest


class SeededLognormal:
    """``rng_for(*label, *key).lognormal(mean, sigma)`` for many keys,
    bit for bit, without building a generator per key.

    :meth:`prime` draws a whole batch of keys at once.  It builds every
    key's seed text — the exact text :func:`stable_seed` hashes, with
    the text of each distinct string part cached — hashes the batch and
    seeds it in one :func:`pcg64_seed_states` call.
    :func:`_one_word_lognormals` settles every key whose first word
    decides numpy's normal; each key it leaves is loaded into the one
    ``PCG64`` this object owns and drawn with numpy's own ``lognormal``.
    :meth:`draw` pops a primed key's value, so only undrawn keys stay
    primed; a key no batch holds is drawn on the spot, as a batch of one.
    """

    def __init__(self, *label: object):
        self._label = "".join([_seed_part(part) for part in label])
        self._texts: dict[str, str] = {}
        self._bit_generator = np.random.PCG64(0)
        self._lognormal = np.random.Generator(self._bit_generator).lognormal
        self._state = self._bit_generator.state
        self._drawn: dict[tuple, float] = {}

    def _column_texts(self, column: tuple) -> list[str]:
        """The seed text of every part in one column of keys."""
        kinds = set(map(type, column))
        if kinds == {int}:
            return [f"{part!r}\x1f" for part in column]
        if kinds <= {str, np.str_}:
            texts = self._texts
            for part in set(column).difference(texts):
                texts[part] = _seed_part(part)
            return [texts[part] for part in column]
        return [_seed_part(part) for part in column]

    def _draw_many(
        self, keys: Sequence[tuple], means: Sequence[float], sigmas: Sequence[float]
    ) -> list[float]:
        columns = [self._column_texts(column) for column in zip(*keys)]
        texts = [self._label + "".join(parts) for parts in zip(*columns)]
        # stable_seed reads the first 8 bytes of each 32-byte digest.
        digests = b"".join(map(_SHA256_DIGEST, map(hashlib.sha256, map(str.encode, texts))))
        states = pcg64_seed_states(np.frombuffer(digests, dtype="<u8")[::4])
        values, rows = _one_word_lognormals(states, means, sigmas)
        bit_generator, state, lognormal = self._bit_generator, self._state, self._lognormal
        words = state["state"]
        for row in rows:
            lo, hi, inc_lo, inc_hi = states[row].tolist()
            words["state"] = hi << 64 | lo
            words["inc"] = inc_hi << 64 | inc_lo
            bit_generator.state = state
            values[row] = lognormal(means[row], sigmas[row])
        return values

    def prime(
        self, keys: Sequence[tuple], means: Sequence[float], sigmas: Sequence[float]
    ) -> None:
        """Draw ``keys`` (tuples of the parts after the label, all of one
        length), key ``i`` with ``means[i]`` and ``sigmas[i]``, beside the
        keys earlier batches primed and :meth:`draw` has not read yet."""
        self._drawn.update(zip(keys, self._draw_many(keys, means, sigmas)))

    def draw(self, key: tuple, mean: float, sigma: float) -> float:
        """One lognormal draw from the fresh generator of ``key``.  A
        primed key returns the value :meth:`prime` drew for it, with the
        parameters given there, and is forgotten."""
        value = self._drawn.pop(key, None)
        if value is None:
            value = self._draw_many((key,), (mean,), (sigma,))[0]
        return value


def hash_bytes(data: bytes, bits: int = 64) -> int:
    """SHA-1 digest of ``data`` truncated to ``bits`` bits.

    The paper uses SHA-1 for chunk hashes; ``bits`` lets experiments model
    smaller fingerprint tables (and hence hash collisions, Section 7.8).
    """
    if not 1 <= bits <= 160:
        raise ValueError(f"bits must be in [1, 160], got {bits}")
    full = int.from_bytes(hashlib.sha1(data).digest(), "little")
    return full & ((1 << bits) - 1)


def concat_ranges(range_starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Indices ``[s0, s0+1, ..), (s1, ..), ...`` concatenated, vectorised.

    The CSR expansion: range ``i`` contributes ``lengths[i]`` consecutive
    indices from ``range_starts[i]``."""
    ends = lengths.cumsum()
    if not len(ends) or not ends[-1]:
        return np.empty(0, dtype=np.int64)
    return np.arange(ends[-1], dtype=np.int64) + (range_starts - ends + lengths).repeat(lengths)


def run_starts(values: np.ndarray) -> np.ndarray:
    """Index of the first element of every run of equal ``values``."""
    change = np.empty(len(values), dtype=bool)
    change[:1] = True
    np.not_equal(values[1:], values[:-1], out=change[1:])
    return change.nonzero()[0]


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
    matrix that the batched chunk-hash kernels consume.  It
    fancy-indexes a strided view with a window at every byte offset
    along its first axis only, so no ``(chunks, chunk_size)`` index
    matrix is built.  ``starts`` must satisfy ``0 <= s <= len(data) -
    chunk_size`` (unchecked beyond numpy's own bounds errors).
    """
    if data.dtype != np.uint8:
        raise ValueError("expected uint8 data")
    data = np.ascontiguousarray(data)
    windows = np.ndarray(
        (max(len(data) - chunk_size + 1, 0), chunk_size), np.uint8, data, strides=(1, 1)
    )
    return windows[np.asarray(starts, dtype=np.int64)]


def hash_rows_sha1(matrix: np.ndarray, bits: int = 64) -> np.ndarray:
    """Truncated SHA-1 digest of every row of a uint8 chunk matrix.

    Row ``i``'s value equals ``hash_bytes(matrix[i].tobytes(), bits)``
    for any ``bits <= 64``.  The rows are hashed as ``memoryview``
    slices of one ``bytes`` copy of the matrix and each digest's first
    8 bytes read through one strided view of the joined digests — pair
    with :func:`gather_chunks` for the slice-free fingerprint hash path.
    """
    if not 1 <= bits <= 64:
        raise ValueError(f"bits must be in [1, 64], got {bits}")
    rows, width = matrix.shape
    flat = memoryview(matrix.tobytes())
    sha1 = hashlib.sha1
    digests = b"".join(
        [sha1(flat[at : at + width]).digest() for at in range(0, rows * width, width)]
    )
    words = np.ndarray((rows,), dtype="<u8", buffer=digests, strides=(20,))
    if bits == 64:
        return words.copy()
    return words & np.uint64((1 << bits) - 1)


_K = TypeVar("_K", bound=Hashable)
_V = TypeVar("_V")


class LruCache(Generic[_K, _V]):
    """A small bounded mapping with least-recently-used eviction.

    Used by the checkpoint store to keep base pages hot across dedup
    ops (the same base pages are re-read constantly).  ``get`` marks
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

    def drop_prefix(self, head: object) -> None:
        """Drop every entry whose key is a tuple starting with ``head``."""
        for key in [key for key in self._entries if key[0] == head]:  # type: ignore[index]
            del self._entries[key]

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
