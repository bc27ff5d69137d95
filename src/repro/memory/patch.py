"""Binary delta codec (the reproduction's stand-in for xdelta3).

A patch expresses a *target* buffer as a sequence of COPY ops (byte
ranges of a *base* buffer) and INSERT ops (literal bytes).  For similar
pages the patch is far smaller than the page; for unrelated pages it
degenerates to one big INSERT, which the dedup agent detects and stores
as a unique page instead.  A :class:`Patch` is its wire encoding: the
encoders pack the ops straight into bytes and :func:`apply_patch_into`
decodes them, so a kept patch is one object and one ``bytes``.

Two matching strategies are combined:

* an *aligned* fast path for equal-sized buffers (the overwhelmingly
  common page-vs-base-page case), fully vectorised with numpy; and
* an *anchor-hash* path (greedy, xdelta-style) that finds shifted
  matches, used when the aligned diff is poor — e.g. stack pages whose
  content ASLR shifted by a non-page amount.

``level`` mirrors xdelta3's compression levels loosely: the paper runs
level 1 to keep restores fast, which here maps to a sparser anchor index
and a larger minimum match.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro._util import run_starts

#: The wire format: a header, then each op — an INSERT's literal bytes
#: follow its record.
_HEADER = struct.Struct("<2sBBIII")  # magic, version, flags, target_len, base_len, op_count
_COPY = struct.Struct("<BII")  # tag, src_off, length
_INSERT_HDR = struct.Struct("<BI")  # tag, length
MAGIC = b"MP"
VERSION = 1
TAG_COPY = 0x01
TAG_INSERT = 0x02

#: Minimum run of equal bytes worth a COPY op on the aligned path.  A COPY
#: costs 9 bytes of op encoding, so shorter runs are cheaper as literals.
MIN_COPY_RUN = 12
#: Anchor width for the shifted-match index.
ANCHOR_SIZE = 16
#: Minimum shifted match worth emitting.
MIN_ANCHOR_MATCH = 24
#: If the aligned patch exceeds this fraction of the target, try anchors.
ALIGNED_FALLBACK_RATIO = 0.25
#: Rows per :func:`_patch_stack` call: bounds a large batch's transient stacks.
STACK_ROWS = 64

#: Whole 8-byte-aligned target words inside every anchor COPY: a COPY
#: holds an anchor and is at least ``MIN_ANCHOR_MATCH`` long, and at most
#: 7 of its leading bytes precede the first aligned word in it.
_COPY_MIN_WORDS = (max(MIN_ANCHOR_MATCH, ANCHOR_SIZE) - 7) // 8
#: What the COPYs drawing on one run of windows copy on top of 8 bytes
#: per window.  The COPYs whose whole words lie in one maximal run of
#: ``w`` base-resident words are disjoint and reach less than 8 bytes
#: past either end of it, so they total at most ``8 * w + 14`` bytes,
#: and the run holds ``w - _COPY_MIN_WORDS + 1`` windows of
#: ``_COPY_MIN_WORDS`` consecutive words.
_COPY_RUN_SLACK = 8 * (_COPY_MIN_WORDS - 1) + 14


def _header(blob: bytes) -> tuple[int, int, int]:
    """``(target_len, base_len, op_count)`` of a patch blob's header."""
    if len(blob) < _HEADER.size:
        raise ValueError("patch blob truncated: missing header")
    magic, version, flags, target_len, base_len, op_count = _HEADER.unpack_from(blob)
    if magic != MAGIC or version != VERSION or flags:
        raise ValueError("not a valid patch blob")
    return target_len, base_len, op_count


class Patch:
    """A delta from a base buffer to a target buffer, as its wire bytes.

    ``blob`` is the header, then the ops in target order.  Its length is
    ``size_bytes``, the memory cost of keeping a page deduped.
    """

    __slots__ = ("blob",)

    def __init__(self, blob: bytes):
        self.blob = blob

    @property
    def size_bytes(self) -> int:
        return len(self.blob)

    @property
    def target_len(self) -> int:
        return _header(self.blob)[0]

    @property
    def copied_bytes(self) -> int:
        """Bytes sourced from the base buffer (the deduplicated volume)."""
        blob = self.blob
        copied, pos = 0, _HEADER.size
        for _ in range(_header(blob)[2]):
            if blob[pos] == TAG_COPY:
                copied += _COPY.unpack_from(blob, pos)[2]
                pos += _COPY.size
            else:
                pos += _INSERT_HDR.size + _INSERT_HDR.unpack_from(blob, pos)[1]
        return copied

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Patch) and self.blob == other.blob

    def __repr__(self) -> str:
        return f"Patch({self.size_bytes} B)"


def _seal(parts: list[bytes], target_len: int, base_len: int, op_count: int) -> Patch:
    """The patch of the op records ``parts[1:]``; ``parts[0]`` holds the header's place."""
    parts[0] = _HEADER.pack(MAGIC, VERSION, 0, target_len, base_len, op_count)
    return Patch(b"".join(parts))


def _as_array(buf: bytes | np.ndarray) -> np.ndarray:
    if isinstance(buf, np.ndarray):
        if buf.dtype != np.uint8:
            raise ValueError("expected uint8 array")
        return buf
    return np.frombuffer(buf, dtype=np.uint8)


def _patch_from_runs(target_bytes: bytes, first_unequal: bool, bounds: list[int]) -> Patch:
    """The aligned patch from precomputed equal/unequal run boundaries.

    Runs strictly alternate equal/unequal, so only the first run's kind
    is needed.  Pending literal runs are contiguous between COPY
    emissions, so they flush as one slice of the target bytes.
    """
    pack_copy, pack_insert = _COPY.pack, _INSERT_HDR.pack
    parts = [b""]
    ops = 0
    pend_start = -1
    pend_end = 0
    run_equal = not first_unequal
    for start, end in zip(bounds[:-1], bounds[1:]):
        if run_equal and end - start >= MIN_COPY_RUN:
            if pend_start >= 0:
                parts += (
                    pack_insert(TAG_INSERT, pend_end - pend_start),
                    target_bytes[pend_start:pend_end],
                )
                pend_start = -1
                ops += 1
            parts.append(pack_copy(TAG_COPY, start, end - start))
            ops += 1
        else:
            if pend_start < 0:
                pend_start = start
            pend_end = end
        run_equal = not run_equal
    if pend_start >= 0:
        parts += (pack_insert(TAG_INSERT, pend_end - pend_start), target_bytes[pend_start:pend_end])
        ops += 1
    n = len(target_bytes)
    return _seal(parts, n, n, ops)


def _aligned_patch(target: np.ndarray, base: np.ndarray) -> Patch:
    """Patch of equal-length buffers from a vectorised same-offset diff."""
    n = len(target)
    if n == 0:
        return _seal([b""], 0, 0, 0)
    neq = target != base
    # Boundaries of equal/unequal runs.
    change = np.flatnonzero(np.diff(neq.astype(np.int8)))
    bounds = [0, *(change + 1).tolist(), n]
    return _patch_from_runs(target.tobytes(), bool(neq[0]), bounds)


def _batch_aligned_runs(neq: np.ndarray) -> list[tuple[bool, list[int]]]:
    """Equal/unequal run boundaries for many equal-length pairs at once.

    ``neq`` is the ``(k, n)`` boolean ``targets != bases``; row ``j``'s
    ``(first_unequal, bounds)`` describes the same alternating runs that
    :func:`_aligned_patch` derives, but the run-boundary extraction happens
    once over the whole stack.
    """
    k, n = neq.shape
    # Flat positions of the boolean XOR of adjacent columns (no int8
    # widening as in ``np.diff``; a 2-D ``np.nonzero`` costs ten times
    # the flat one).  Row j's changes start at flat offset j * (n - 1).
    flat = (neq[:, 1:] != neq[:, :-1]).ravel().nonzero()[0]
    changes = (flat % (n - 1) + 1).tolist()
    ends = flat.searchsorted(np.arange(1, k + 1) * (n - 1)).tolist()
    first_unequal = neq[:, 0].tolist()
    return [
        (first_unequal[j], [0, *changes[start:end], n])
        for j, (start, end) in enumerate(zip([0, *ends], ends))
    ]


#: Bytes of the first slice a prefix comparison looks at — a page, so
#: what is left of a page is compared in one piece: three slices cost a
#: page pair 8 µs where one costs 3 — and the factor each further slice
#: grows by.  The matcher's probe windows grow the same way, so a page
#: is probed in one window too.
_MATCH_FIRST_SLICE = 4096
_MATCH_SLICE_GROWTH = 4


def _match_len(a: np.ndarray, b: np.ndarray) -> int:
    """Length of the common prefix of ``a`` and ``b``.

    Compared in geometrically growing slices, stopping at the first that
    holds a mismatch: the buffers are whatever is left of a page or of a
    template region (up to hundreds of KiB) while most matches end
    within a few hundred bytes, and one whole-region comparison per
    anchor hit costs time in the region, not in the match.
    """
    n = min(len(a), len(b))
    start, width = 0, _MATCH_FIRST_SLICE
    while start < n:
        stop = min(start + width, n)
        neq = (a[start:stop] != b[start:stop]).nonzero()[0]
        if neq.size:
            return start + int(neq[0])
        start, width = stop, width * _MATCH_SLICE_GROWTH
    return n


def _back_match_len(target: np.ndarray, base: np.ndarray, i: int, src: int, limit: int) -> int:
    """Length of the common suffix of ``target[:i]`` and ``base[:src]``, capped.

    ``limit`` additionally bounds the extension (the greedy scan must not
    back up into bytes already consumed by earlier ops).
    Compared in the slices of :func:`_match_len`, growing backwards from
    the match point: ``limit`` is the whole pending literal — hundreds of
    KiB on a template region — and most extensions end within a few
    bytes.
    """
    m = min(limit, src)
    done, width = 0, _MATCH_FIRST_SLICE
    while done < m:
        step = min(width, m - done)
        neq = (
            target[i - done - step : i - done] != base[src - done - step : src - done]
        ).nonzero()[0]
        if neq.size:
            return done + step - (int(neq[-1]) + 1)
        done, width = done + step, width * _MATCH_SLICE_GROWTH
    return m


def _window_values(target_bytes: bytes) -> np.ndarray:
    """Little-endian u64 window value at every byte offset (length n-7).

    Eight strided writes from the eight aligned ``frombuffer`` views —
    one pass over the buffer instead of one view per probe residue.
    """
    n = len(target_bytes)
    vals = np.empty(n - 7, dtype="<u8")
    for r in range(8):
        part = np.frombuffer(target_bytes, dtype="<u8", offset=r, count=(n - r) // 8)
        vals[r::8] = part[: len(range(r, n - 7, 8))]
    return vals


_EMPTY_I64 = np.empty(0, dtype=np.int64)

#: Smallest ``seen`` table.  A table has 8 slots per index entry, rounded
#: up to a power of two and never below this floor, so at most one slot
#: in eight is set however large the base.  Measured fill: level-1 page
#: index (511 entries, 4096 slots) 11.5 %, level-2 page index (1021,
#: 8192) 11.7 %, template segments of 8-688 KiB (836-20k entries) 6-11 %.
_MIN_SEEN_SLOTS = 4096


def _seen_slots(a: np.ndarray, slots: int) -> np.ndarray:
    """Slots of a ``slots``-entry table for u64 keys ``a``: xor-folded low bits."""
    folded = a ^ (a >> np.uint64(17)) ^ (a >> np.uint64(41))
    return folded & np.uint64(slots - 1)


def _table_slots(entries: int) -> int:
    """Membership-table size for ``entries`` keys (see :data:`_MIN_SEEN_SLOTS`)."""
    return max(_MIN_SEEN_SLOTS, 1 << (8 * entries - 1).bit_length())


#: Multipliers the one-key anchor layout tries, in order: an indexed
#: window's key is ``a * M ^ b`` (uint64) for the first ``M`` under which
#: no two distinct windows of the base share a key.
_KEY_MULTIPLIERS = (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0xD6E8FEB86659FD93)


@dataclass(frozen=True)
class SortedAnchors:
    """The half of an :class:`AnchorIndex` a probe searches.

    Each indexed window's 16 bytes are two little-endian uint64 halves
    (``a``, ``b``), keyed as one u64 ``a * multiplier ^ b``; entries are
    sorted by key, and ``multiplier`` makes the key one-to-one on the
    base's windows (see :func:`build_anchor_index`), so a key and its
    ``a`` pin the window.  Duplicate windows collapse to their smallest
    base offset — a leftmost binary search therefore reproduces the
    first-offset-wins semantics of a dict built with ``setdefault``.
    When no multiplier is one-to-one, ``shared_keys`` is set and a key's
    entries are sorted by ``a``.
    """

    keys: np.ndarray
    a: np.ndarray
    srcs: np.ndarray
    multiplier: np.uint64
    #: Membership table over the keys' high bits, sized to the index
    #: (see :data:`_MIN_SEEN_SLOTS`) — a probe whose slot is unset
    #: cannot match, and the fill stays at or below one in eight, so at
    #: least seven in eight missing positions are dropped before the
    #: binary search runs.
    seen: np.ndarray
    #: ``64 - log2(len(seen))``: a key's slot is ``key >> seen_shift``.
    seen_shift: np.uint64
    shared_keys: bool = False


class AnchorIndex:
    """Anchor index over one base buffer, in two halves built on first use.

    The *word table* (:meth:`word_table`, 8 KiB for a page) answers the
    copy-saving bound and is built by the first bound; the *sorted
    anchors* (:meth:`sorted_anchors`, ≈16 KiB for a page) serve
    :meth:`probe` and are built by the first probe, through
    :func:`build_anchor_index`.  Both depend only on the base bytes and
    the level, so callers patching many targets against one base keep
    the handle as long as the base lives (see :func:`cached_anchor_index`)
    — and a base whose pages are only ever bounded, the common case
    under a discard cutoff, never pays for the sort.

    The handle outlives the call that made it, so it holds bytes nobody
    can change under it: ``bytes`` and read-only arrays are shared as
    they are, a writable array (a caller's scratch buffer, say) is
    copied once.
    """

    __slots__ = ("base", "base_len", "level", "anchors", "word_bits")

    def __init__(self, base: bytes | np.ndarray, level: int):
        if not isinstance(base, bytes):
            arr = _as_array(base)
            base = arr.tobytes() if arr.flags.writeable or not arr.flags.c_contiguous else arr
        self.base = base
        self.base_len = len(base)
        self.level = level
        self.anchors: SortedAnchors | None = None
        #: Packed membership bits over the base's u64 word at *every*
        #: byte offset.
        self.word_bits: np.ndarray | None = None

    def sorted_anchors(self) -> SortedAnchors:
        anchors = self.anchors
        if anchors is None:
            # Through the module-level builder: that is where tracing
            # and tests count index builds.
            anchors = self.anchors = build_anchor_index(self.base, self.level).anchors
        return anchors

    def word_table(self) -> np.ndarray:
        bits = self.word_bits
        if bits is None:
            bits = self.word_bits = _build_word_bits(self.base)
        return bits

    def copy_bound(self, target: np.ndarray) -> int:
        """:func:`_copy_bounds` of one target against this base."""
        return _copy_bounds(target[None, :], [self])[0]

    def probe(
        self, target_bytes: bytes, start: int, stride: int, stop: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Indexed windows of the target at ``start, start + stride, …``.

        Returns ``(positions, base offsets)`` in position order: every
        hit of the unbounded sweep at a position below ``stop`` (no
        bound when ``None``).  With ``stride`` 8 (the level-1 residue
        sweep) one zero-copy u64 view at byte offset ``start`` holds
        both halves of every probed window, as its elements ``k`` and
        ``k + 1``; with ``stride`` 1 (the dense level-2 sweep) one
        window-value pass over the probed slice covers every position.
        Each window is keyed as the index keys its own; past the
        ``seen`` filter the work is one searchsorted over the surviving
        keys and one exact compare — no per-candidate Python.
        """
        count = (len(target_bytes) - ANCHOR_SIZE - start) // stride + 1
        if stop is not None:
            count = min(count, (stop - start + stride - 1) // stride)
        if count <= 0 or self.base_len < ANCHOR_SIZE:
            return _EMPTY_I64, _EMPTY_I64
        index = self.sorted_anchors()
        if stride == 8:
            u = np.frombuffer(target_bytes, dtype="<u8", offset=start, count=count + 1)
        else:
            # Both halves of the last probed window: count + 15 bytes.
            u = _window_values(memoryview(target_bytes)[start : start + count + 15])
        ta = u[:count]
        keys = ta * index.multiplier ^ u[8 // stride :][:count]
        sel = index.seen[keys >> index.seen_shift].nonzero()[0]
        if not sel.size:
            return _EMPTY_I64, _EMPTY_I64
        keys = keys[sel]
        loc = np.searchsorted(index.keys, keys)
        ta = ta[sel]
        if index.shared_keys:  # find ``a`` within each shared key's run
            end = np.searchsorted(index.keys, keys, side="right")
            for j in np.flatnonzero(end - loc > 1).tolist():
                loc[j] += np.searchsorted(index.a[loc[j] : end[j]], ta[j])
        np.minimum(loc, len(index.keys) - 1, out=loc)
        # With ``a``, the key pins ``b``: a window is indexed iff both
        # match at ``loc``.
        hit = ((index.keys[loc] == keys) & (index.a[loc] == ta)).nonzero()[0]
        return start + stride * sel[hit], index.srcs[loc[hit]]


def _build_word_bits(base: bytes | np.ndarray) -> np.ndarray:
    """Packed table of ``base``'s u64 word at every byte offset.

    Sized for two entries a word, so 16 bits per word: 8 KiB for a 4 KiB
    page and at most one bit in sixteen set, half the false hits of a
    ``seen``-sized table.
    """
    vals = _window_values(base)
    table = np.zeros(_table_slots(2 * len(vals)), dtype=bool)
    table[_seen_slots(vals, len(table))] = True
    return np.packbits(table, bitorder="little")


def _copy_bounds(targets: np.ndarray, indexes: "list[AnchorIndex]") -> list[int]:
    """Upper bound on the bytes any anchor patch of each target row saves.

    A patch's saving is ``n + _HEADER.size`` less its size: what its
    COPYs copy, net of their records and of its INSERT headers.
    ``targets`` is a C-contiguous ``(k, n)`` stack and ``indexes[r]``
    the index of row ``r``'s base, every base ``n`` bytes long.  Sound
    for every level and never looks at the sorted anchors: each COPY
    contains ``_COPY_MIN_WORDS`` consecutive aligned target words, and
    each of those occurs somewhere in the base (the bytes it was copied
    from).  So with ``P`` windows of that many consecutive words found
    in the base's word table and ``R`` runs of such windows, the COPYs
    drawing on a run of ``p`` windows copy at most ``8 * p +
    _COPY_RUN_SLACK`` bytes (see :data:`_COPY_RUN_SLACK`) and pay at
    least one COPY record.  Neighbouring runs are at least one unfound
    word apart, so the COPYs drawing on them either leave a literal
    between them, which pays an INSERT header, or meet inside that word
    and copy at least 6 bytes less than the two runs' slack.  No patch saves
    more than ``8 * P + (_COPY_RUN_SLACK - _COPY.size) * R -
    _INSERT_HDR.size * (R - 1)``; a run no COPY draws on only lowers
    it, and false positives of the table only loosen it.  One pass for
    the stack: the rows' word tables stacked, one slot computation over
    all aligned words, one gather.
    """
    k, n = targets.shape
    if n < ANCHOR_SIZE:  # bases shorter than an anchor: nothing to copy
        return [0] * k
    tables = np.concatenate([index.word_table() for index in indexes])
    bits = 8 * (len(tables) // k)  # every base is n bytes: one table size
    whole = targets if n % 8 == 0 else np.ascontiguousarray(targets[:, : n - n % 8])
    # Row r's slots are bits r * bits onwards (``bits`` is a power of two).
    slot = _seen_slots(whole.view("<u8"), bits) | (
        np.arange(k, dtype=np.uint64) * np.uint64(bits)
    )[:, None]
    found = (tables[slot >> np.uint64(3)] >> (slot & np.uint64(7)).astype(np.uint8)) & np.uint8(1)
    windows = found
    for w in range(1, _COPY_MIN_WORDS):
        windows = windows[:, :-1] & found[:, w:]
    counts = np.add.reduce(windows, axis=1, dtype=np.int64).tolist()
    # n >= ANCHOR_SIZE leaves every row at least one window.
    runs = windows[:, 0] + np.add.reduce(windows[:, 1:] > windows[:, :-1], axis=1, dtype=np.int64)
    return [
        8 * count + (_COPY_RUN_SLACK - _COPY.size) * run - _INSERT_HDR.size * max(run - 1, 0)
        for count, run in zip(counts, runs.tolist())
    ]


def build_anchor_index(base: bytes | np.ndarray, level: int = 1) -> AnchorIndex:
    """An :class:`AnchorIndex` of ``base`` with its sorted anchors built.

    One stable sort on the key per multiplier tried: offsets are
    increasing, so a run of equal keys starts at its smallest offset and
    collapses to it.  A run of two distinct windows (a key collision)
    moves the build to the next of :data:`_KEY_MULTIPLIERS`; should all
    collide, the last one's entries are sorted by key and then ``a``, and
    probes search a shared key's run by ``a``, so every window stays
    indexed at its smallest offset.
    """
    index = AnchorIndex(base, level)
    step = max(1, ANCHOR_SIZE // 2) if level <= 1 else max(1, ANCHOR_SIZE // 4)
    m = index.base_len - ANCHOR_SIZE + 1
    offs = np.arange(0, max(m, 0), step, dtype=np.int64)
    # One window-value pass serves both halves (offs + 8 is at most the
    # last window start, m - 1 + 8 <= len - 8).
    vals = _window_values(index.base) if m > 0 else np.empty(0, dtype="<u8")
    a, b = vals[offs], vals[offs + 8]
    for multiplier in map(np.uint64, _KEY_MULTIPLIERS):
        keys = a * multiplier ^ b
        order = np.argsort(keys, kind="stable")
        keys, a_sorted = keys[order], a[order]
        # Equal keys and equal ``a`` pin equal ``b``: the same window.
        same = keys[1:] == keys[:-1]
        if (a_sorted[1:][same] == a_sorted[:-1][same]).all():
            shared = False
            break
    else:
        keys = a * multiplier ^ b
        order = np.lexsort((a, keys))  # stable: a window's run starts at its first offset
        keys, a_sorted, shared = keys[order], a[order], True
    first = run_starts(keys) if not shared else np.flatnonzero(
        np.r_[True, (keys[1:] != keys[:-1]) | (a_sorted[1:] != a_sorted[:-1])]
    )
    seen = np.zeros(_table_slots(len(first)), dtype=bool)
    seen_shift = np.uint64(64 - (len(seen).bit_length() - 1))
    seen[keys[first] >> seen_shift] = True
    index.anchors = SortedAnchors(
        keys=keys[first],
        a=a_sorted[first],
        srcs=offs[order][first],
        multiplier=multiplier,
        seen=seen,
        seen_shift=seen_shift,
        shared_keys=shared,
    )
    return index


def cached_anchor_index(cache, key: tuple, base: bytes | np.ndarray, level: int) -> AnchorIndex:
    """The index of ``base`` held in ``cache``, made on first use.

    ``cache`` is any mapping with ``get`` and item assignment (a dict
    that lives as long as the base, or an ``LruCache``); ``key`` names
    the base's content and the entry is always keyed on ``level`` too,
    so one cache can serve agents of different patch levels.  A new
    entry has neither half built (see :class:`AnchorIndex`).
    """
    key = (*key, level)
    index = cache.get(key)
    if index is None:
        index = cache[key] = AnchorIndex(base, level)
    return index


def _usable_index(index: AnchorIndex | None, base: np.ndarray, level: int) -> AnchorIndex:
    """``index`` if it fits ``base`` and ``level``, else a fresh one."""
    if index is None or index.level != level or index.base_len != len(base):
        return AnchorIndex(base, level)
    return index


def _anchor_patch(
    target: np.ndarray,
    base: np.ndarray,
    level: int,
    index: AnchorIndex | None = None,
) -> Patch:
    """Greedy xdelta-style patch using an anchor-hash index over the base.

    ``level`` trades patch size for speed, like xdelta3's compression
    levels: level 1 (the paper's choice, for fast restores) probes the
    target sparsely (every ``probe_step`` bytes) against a half-anchor-
    spaced base index; level >= 2 probes every byte.  Backward extension
    of each hit recovers bytes a sparse probe skipped over.

    The probe is vectorised: a probe from position ``p`` only ever lands
    on positions ``p + k * probe_step``, so candidate matches are
    computed per position-residue class and the greedy scan jumps
    straight to the next hit with a binary search instead of hashing
    window by window.  Each residue is probed lazily, in windows that
    start where the scan is: ``_MATCH_FIRST_SLICE`` bytes wide, growing
    by ``_MATCH_SLICE_GROWTH`` each time a window runs out of hits under
    the scan, and back to the first width when the scan has jumped past
    the window (a COPY ran over it).  A page fits one window; a template
    region mostly COPYs, so most of it is never probed.  The scan
    position never decreases and a window's hits are exactly the full
    sweep's hits inside it, so the first hit at or after the scan is the
    same as with whole sweeps and the ops are byte-identical to the
    scalar scan's.  A prebuilt ``index`` skips re-hashing the base; a
    stale one (wrong level or base length) is ignored and rebuilt.
    """
    index = _usable_index(index, base, level)
    probe_step = 8 if level <= 1 else 1
    n = len(target)
    last = n - ANCHOR_SIZE  # last position a window fits at
    target_bytes = target.tobytes()
    parts = [b""]
    ops = 0
    pending_start = 0

    # Per residue: the end of its probed positions, the last window's
    # hits and that window's width.
    windows: dict[int, tuple[int, np.ndarray, np.ndarray, int]] = {}
    unprobed = (0, _EMPTY_I64, _EMPTY_I64, 0)

    i = 0
    while True:
        # Probe forward from i for the next match >= MIN_ANCHOR_MATCH.
        accepted = None
        while True:
            residue = i % probe_step
            hi, cpos, csrcs, width = windows.get(residue, unprobed)
            j = np.searchsorted(cpos, i)
            while j == len(cpos) and max(i, hi) <= last:
                # No hit at or after i below hi: probe the next window.
                # It starts at or after i, so its first hit is the next.
                if i < hi:
                    start, width = hi, width * _MATCH_SLICE_GROWTH
                else:
                    start, width = i, _MATCH_FIRST_SLICE
                hi = start + width
                cpos, csrcs = index.probe(target_bytes, start, probe_step, hi)
                windows[residue] = (hi, cpos, csrcs, width)
                j = 0
            if j == len(cpos):
                break
            c, src = int(cpos[j]), int(csrcs[j])
            fwd = ANCHOR_SIZE + _match_len(target[c + ANCHOR_SIZE :], base[src + ANCHOR_SIZE :])
            back = _back_match_len(target, base, c, src, c - pending_start)
            if fwd + back >= MIN_ANCHOR_MATCH:
                accepted = (c, src, fwd + back, back)
                break
            i = c + probe_step
        if accepted is None:
            break
        c, src, length, back = accepted
        lit_end = c - back
        if lit_end > pending_start:
            parts += (
                _INSERT_HDR.pack(TAG_INSERT, lit_end - pending_start),
                target_bytes[pending_start:lit_end],
            )
            ops += 1
        parts.append(_COPY.pack(TAG_COPY, src - back, length))
        ops += 1
        i = lit_end + length
        pending_start = i
    if pending_start < n:
        parts += (_INSERT_HDR.pack(TAG_INSERT, n - pending_start), target_bytes[pending_start:])
        ops += 1
    return _seal(parts, n, len(base), ops)


def compute_patch(
    target: bytes | np.ndarray,
    base: bytes | np.ndarray,
    *,
    level: int = 1,
    anchor_index: AnchorIndex | None = None,
) -> Patch:
    """Compute a delta expressing ``target`` in terms of ``base``.

    Always correct (round-trips byte-exactly); strives for small patches
    on similar inputs.  Equal-length inputs take the vectorised aligned
    path and fall back to anchor matching only when the aligned patch is
    poor; unequal lengths always use anchor matching.  ``anchor_index``
    supplies a prebuilt index of ``base`` (see :func:`build_anchor_index`)
    so repeat patches against one base skip re-indexing; a stale index
    (wrong level or base length) is ignored and rebuilt.
    """
    t = _as_array(target)
    b = _as_array(base)
    if len(t) == len(b):
        patch = _aligned_patch(t, b)
        if patch.size_bytes <= max(64, int(len(t) * ALIGNED_FALLBACK_RATIO)):
            return patch
        alt = _anchor_patch(t, b, level, index=anchor_index)
        return alt if alt.size_bytes < patch.size_bytes else patch
    return _anchor_patch(t, b, level, index=anchor_index)


def _patch_stack(
    targets: np.ndarray,
    bases: np.ndarray,
    index_for,
    level: int,
    max_size: int | None,
) -> list[Patch]:
    """:func:`compute_patches` for one ``(k, n)`` stack of equal-length pairs.

    ``n > 0`` and ``index_for(row)`` is the caller's provider by stack
    row.  Rows are triaged on their count of differing bytes before any
    run is extracted:

    * *identical* (none): the single-COPY patch;
    * *dense* (``max_size`` given and header + one INSERT header + the
      differing bytes already reach both the fallback threshold and the
      cutoff): every differing byte travels in an INSERT and there is at
      least one, so that sum is a floor on the aligned patch — the row
      falls back and its aligned patch is discarded, both settled
      without sizing a run;
    * *sparse* (the rest): runs extracted, aligned patch built.

    Every row that falls back — all dense ones, the sparse ones over the
    threshold — takes its copy-saving bound in one :func:`_copy_bounds`
    pass; a dense row the bound cannot dismiss goes to the matcher with
    no aligned patch, which would be no smaller than the cutoff: the
    anchor patch is returned, kept or not.  The provider is consulted
    once per fallback row, in row order.
    """
    n = targets.shape[1]
    threshold = max(64, int(n * ALIGNED_FALLBACK_RATIO))
    neq = targets != bases
    # The smallest accumulator that holds n: a uint64 one halves the speed.
    differing = np.add.reduce(neq.view(np.uint8), axis=1, dtype=np.min_scalar_type(n)).tolist()
    # A dense row differs in at least this many bytes (none without a cutoff).
    dense_from = n + 1
    if max_size is not None:
        dense_from = max(threshold + 1, max_size) - _HEADER.size - _INSERT_HDR.size

    # Each row's aligned patch, where it has been diffed, until a better
    # candidate replaces it; the identical rows share one single-COPY patch.
    single_copy = _seal([b"", _COPY.pack(TAG_COPY, 0, n)], n, n, 1)
    patches = [None if d or n < MIN_COPY_RUN else single_copy for d in differing]
    sparse = [r for r, d in enumerate(differing) if d < dense_from and patches[r] is None]
    if sparse:
        for r, (first_unequal, bounds) in zip(sparse, _batch_aligned_runs(neq[sparse])):
            patches[r] = _patch_from_runs(targets[r].tobytes(), first_unequal, bounds)
    # Dense rows (no patch yet) and rows with a poor aligned patch fall back.
    fallback = [r for r, p in enumerate(patches) if p is None or p.size_bytes > threshold]
    indexes = {r: index_for(r) for r in fallback}
    to_matcher = fallback
    if max_size is not None and fallback:
        indexes = {r: _usable_index(index, bases[r], level) for r, index in indexes.items()}
        bounds = _copy_bounds(targets[fallback], list(indexes.values()))
        to_matcher = []
        for r, bound in zip(fallback, bounds):
            # A dense row's aligned patch is no smaller than the cutoff.
            size = max_size if patches[r] is None else patches[r].size_bytes
            # Header plus the target less what COPYs could save: can an
            # anchor patch beat the aligned one and the cutoff?
            if n + _HEADER.size - bound < min(size, max_size):
                to_matcher.append(r)
            elif size >= max_size:
                # Discarded whichever candidate wins, and the literal is
                # no smaller than the cutoff either:
                # max_size <= n + _HEADER.size - bound <= n + _HEADER.size.
                patches[r] = _seal(
                    [b"", _INSERT_HDR.pack(TAG_INSERT, n), targets[r].tobytes()], n, n, 1
                )
    for r in to_matcher:
        alt = _anchor_patch(targets[r], bases[r], level, index=indexes[r])
        if patches[r] is None or alt.size_bytes < patches[r].size_bytes:
            patches[r] = alt
    return patches  # type: ignore[return-value]


def compute_patches(
    targets: "list[bytes | np.ndarray] | np.ndarray",
    bases: "list[bytes | np.ndarray] | np.ndarray",
    *,
    level: int = 1,
    index_provider=None,
    max_size: int | None = None,
) -> list[Patch]:
    """Batched :func:`compute_patch` over pairwise ``targets``/``bases``.

    With ``max_size=None`` produces exactly ``[compute_patch(t, b) for
    t, b in zip(...)]``, but equal-length pairs (the page-vs-base-page
    common case) are grouped by length and diffed in 2-D numpy passes of
    up to ``STACK_ROWS`` rows (:func:`_patch_stack`), so the per-pair
    dispatch overhead of the aligned path is paid once per block.  Only
    pairs whose aligned patch is poor proceed to anchor matching.  A
    ``(pairs, length)`` uint8 target stack (the agent's image rows) is
    diffed block by block against each block's bases joined once: uint8
    arrays each as long as a row, or a stack of its shape (else ValueError).

    ``max_size`` is the caller's discard cutoff — "I keep only patches
    smaller than this" (the dedup agent's unique-page cap).  Then
    ``result[j].size_bytes < max_size`` implies ``result[j]`` is
    byte-identical to ``compute_patch(targets[j], bases[j])``, and
    otherwise that patch is ``>= max_size`` too: ``result[j]`` is still a
    valid patch of the pair, but may be the one-INSERT literal.  What
    this buys: an equal-length pair that reaches the anchor fallback
    first asks the copy-saving bound (:func:`_copy_bounds`) whether
    any anchor patch could come in under ``min(aligned size,
    max_size)``, and skips the matcher when none can; a pair that is
    discarded whatever it is patched with skips sizing its runs and
    encoding them.

    ``index_provider(j)`` may return an :class:`AnchorIndex` for pair
    ``j`` (or ``None``); it is only consulted for pairs that reach the
    anchor fallback, so callers can make/cache indexes lazily.  A pair
    with no (or a stale) index gets one on the spot, as
    :func:`compute_patch` does; whatever half the pair builds hangs on
    the index it used, so only a provided, cached index keeps it.
    """
    if len(targets) != len(bases):
        raise ValueError("targets/bases length mismatch")
    _index_for = index_provider or (lambda j: None)
    patches: list[Patch | None] = [None] * len(targets)
    for block, target_rows, base_rows in _equal_length_blocks(targets, bases):
        if target_rows.shape[1] == 0:
            stack = [_seal([b""], 0, 0, 0)] * len(block)
        else:
            stack = _patch_stack(
                target_rows,
                base_rows,
                lambda r, block=block: _index_for(block[r]),
                level,
                max_size,
            )
        for j, patch in zip(block, stack):
            patches[j] = patch
    for j, patch in enumerate(patches):
        if patch is None:  # unequal lengths: anchor matching only
            patches[j] = compute_patch(
                targets[j], bases[j], level=level, anchor_index=_index_for(j)
            )
    return patches  # type: ignore[return-value]


def _equal_length_blocks(targets, bases):
    """``(pair indices, target stack, base stack)`` per block of at most
    :data:`STACK_ROWS` equal-length pairs.  A ``(pairs, length)`` target
    stack is cut into slices as it is, and each block's bases — a stack
    of the same shape, or one array per pair — are sliced or joined; a
    list of pairs is grouped by length and each block's rows joined.
    Only one block's joined rows are alive at a time."""
    if isinstance(targets, np.ndarray):
        targets = _as_array(targets)
        if targets.ndim != 2:
            raise ValueError("expected a (pairs, length) target stack")
        for at in range(0, len(targets), STACK_ROWS):
            block = range(at, min(at + STACK_ROWS, len(targets)))
            stack, rows = targets[at : block.stop], bases[at : block.stop]
            if not isinstance(rows, np.ndarray):
                if set(map(len, rows)) != {stack.shape[1]}:
                    raise ValueError("every base must be as long as a target row")
                rows = np.concatenate(rows).reshape(stack.shape)
            elif rows.shape != stack.shape:
                raise ValueError("base stack must match the target stack's shape")
            yield block, stack, _as_array(rows)
        return
    t_arrs = [_as_array(t) for t in targets]
    b_arrs = [_as_array(b) for b in bases]
    by_len: dict[int, list[int]] = {}
    for j, (t, b) in enumerate(zip(t_arrs, b_arrs)):
        if len(t) == len(b):
            by_len.setdefault(len(t), []).append(j)
    for n, idxs in by_len.items():
        for at in range(0, len(idxs), STACK_ROWS):
            block = idxs[at : at + STACK_ROWS]
            yield (
                block,
                np.concatenate([t_arrs[j] for j in block]).reshape(len(block), n),
                np.concatenate([b_arrs[j] for j in block]).reshape(len(block), n),
            )


def apply_patch(patch: Patch, base: bytes | np.ndarray) -> bytes:
    """Reconstruct the target buffer from ``patch`` and ``base``."""
    out = np.empty(patch.target_len, dtype=np.uint8)
    apply_patch_into(patch, base, out)
    return out.tobytes()


def apply_patch_into(patch: Patch, base: bytes | np.ndarray, out: np.ndarray) -> None:
    """Decode ``patch`` against ``base``, writing the target into ``out``.

    ``out`` must be a uint8 array of exactly ``patch.target_len`` bytes —
    typically a view into the image being reconstructed, so a page is
    written in place with no intermediate ``bytes`` object.  Any blob the
    encoders could not have written — bad header, truncated or unknown
    op, a COPY outside the base, ops that do not produce exactly
    ``target_len`` bytes, bytes past the last op — raises
    :class:`ValueError`; no write lands outside ``out`` and no read
    outside ``base``.
    """
    blob = patch.blob
    target_len, base_len, op_count = _header(blob)
    b = _as_array(base)
    if len(b) != base_len:
        raise ValueError(f"base length {len(b)} != patch base_len {base_len}")
    if len(out) != target_len:
        raise ValueError(f"out length {len(out)} != patch target_len {target_len}")
    src, dst, wire = memoryview(b), memoryview(out), memoryview(blob)
    end = len(blob)
    pos, cursor = _HEADER.size, 0
    for _ in range(op_count):
        if pos >= end:
            raise ValueError("patch blob truncated: missing op tag")
        tag = blob[pos]
        if tag == TAG_COPY:
            if pos + _COPY.size > end:
                raise ValueError("patch blob truncated: partial COPY op")
            _, src_off, length = _COPY.unpack_from(blob, pos)
            pos += _COPY.size
            if src_off + length > base_len:
                raise ValueError("COPY op out of base bounds")
            chunk = src[src_off : src_off + length]
        elif tag == TAG_INSERT:
            if pos + _INSERT_HDR.size > end:
                raise ValueError("patch blob truncated: partial INSERT header")
            length = _INSERT_HDR.unpack_from(blob, pos)[1]
            pos += _INSERT_HDR.size
            if pos + length > end:
                raise ValueError("patch blob truncated: partial INSERT data")
            chunk = wire[pos : pos + length]
            pos += length
        else:
            raise ValueError(f"unknown op tag {tag:#x}")
        if cursor + length > target_len:
            raise ValueError(f"ops produce more than target_len {target_len} bytes")
        dst[cursor : cursor + length] = chunk
        cursor += length
    if pos != end:
        raise ValueError(f"patch blob has {end - pos} bytes past its last op")
    if cursor != target_len:
        raise ValueError(f"ops produce {cursor} bytes, target is {target_len}")
