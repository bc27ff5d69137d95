"""Binary delta codec (the reproduction's stand-in for xdelta3).

A patch expresses a *target* buffer as a sequence of COPY ops (byte
ranges of a *base* buffer) and INSERT ops (literal bytes).  For similar
pages the patch is far smaller than the page; for unrelated pages it
degenerates to one big INSERT, which the dedup agent detects and stores
as a unique page instead.

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
from dataclasses import dataclass, field

import numpy as np

_MAGIC = b"MP"
_VERSION = 1
_HEADER = struct.Struct("<2sBBIII")  # magic, version, flags, target_len, base_len, op_count
_COPY = struct.Struct("<BII")  # tag, src_off, length
_INSERT_HDR = struct.Struct("<BI")  # tag, length
_TAG_COPY = 0x01
_TAG_INSERT = 0x02

#: Minimum run of equal bytes worth a COPY op on the aligned path.  A COPY
#: costs 9 bytes of op encoding, so shorter runs are cheaper as literals.
MIN_COPY_RUN = 12
#: Anchor width for the shifted-match index.
ANCHOR_SIZE = 16
#: Minimum shifted match worth emitting.
MIN_ANCHOR_MATCH = 24
#: If the aligned patch exceeds this fraction of the target, try anchors.
ALIGNED_FALLBACK_RATIO = 0.25

#: Whole 8-byte-aligned target words inside every anchor COPY: a COPY
#: holds an anchor and is at least ``MIN_ANCHOR_MATCH`` long, and at most
#: 7 of its leading bytes precede the first aligned word in it.
_COPY_MIN_WORDS = (max(MIN_ANCHOR_MATCH, ANCHOR_SIZE) - 7) // 8
#: What :meth:`AnchorIndex.copy_bound` grants each run of windows on top
#: of 8 bytes per window.  The COPYs whose whole words lie in one maximal
#: run of ``w`` base-resident words are disjoint and reach less than 8
#: bytes past either end of it, so they total at most ``8 * w + 14``
#: bytes, and the run holds ``w - _COPY_MIN_WORDS + 1`` windows of
#: ``_COPY_MIN_WORDS`` consecutive words.
_COPY_RUN_SLACK = 8 * (_COPY_MIN_WORDS - 1) + 14


@dataclass(frozen=True)
class CopyOp:
    """Copy ``length`` bytes from ``src_off`` in the base buffer."""

    src_off: int
    length: int


@dataclass(frozen=True)
class InsertOp:
    """Insert literal bytes."""

    data: bytes

    @property
    def length(self) -> int:
        return len(self.data)


@dataclass(frozen=True)
class Patch:
    """A delta from a base buffer to a target buffer."""

    ops: tuple[CopyOp | InsertOp, ...]
    target_len: int
    base_len: int
    #: Encoded patch size — the memory cost of keeping this page deduped.
    #: Derived from the (immutable) ops at construction; the dedup agent
    #: reads it repeatedly (fallback checks, unique-page cutoffs,
    #: retained-bytes accounting), so it is a plain attribute.
    size_bytes: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        produced = 0
        size = _HEADER.size
        for op in self.ops:
            if isinstance(op, CopyOp):
                produced += op.length
                size += _COPY.size
            else:
                produced += len(op.data)
                size += _INSERT_HDR.size + len(op.data)
        if produced != self.target_len:
            raise ValueError(f"ops produce {produced} bytes, target is {self.target_len}")
        object.__setattr__(self, "size_bytes", size)

    @property
    def copied_bytes(self) -> int:
        """Bytes sourced from the base buffer (the deduplicated volume)."""
        return sum(op.length for op in self.ops if isinstance(op, CopyOp))

    @property
    def literal_bytes(self) -> int:
        """Bytes carried literally inside the patch."""
        return sum(op.length for op in self.ops if isinstance(op, InsertOp))

    def serialize(self) -> bytes:
        """Encode to the on-wire/in-memory byte format."""
        parts = [_HEADER.pack(_MAGIC, _VERSION, 0, self.target_len, self.base_len, len(self.ops))]
        for op in self.ops:
            if isinstance(op, CopyOp):
                parts.append(_COPY.pack(_TAG_COPY, op.src_off, op.length))
            else:
                parts.append(_INSERT_HDR.pack(_TAG_INSERT, op.length))
                parts.append(op.data)
        return b"".join(parts)

    @classmethod
    def deserialize(cls, blob: bytes) -> "Patch":
        """Decode a patch previously produced by :meth:`serialize`.

        Raises :class:`ValueError` for any malformed input — truncation at
        any boundary, a bad magic/version, an unknown op tag, or ops that
        do not reconstruct ``target_len`` bytes — never ``IndexError`` or
        ``struct.error``.
        """
        if len(blob) < _HEADER.size:
            raise ValueError("patch blob truncated: missing header")
        magic, version, _flags, target_len, base_len, op_count = _HEADER.unpack_from(blob, 0)
        if magic != _MAGIC or version != _VERSION:
            raise ValueError("not a valid patch blob")
        pos = _HEADER.size
        ops: list[CopyOp | InsertOp] = []
        for _ in range(op_count):
            if pos >= len(blob):
                raise ValueError("patch blob truncated: missing op tag")
            tag = blob[pos]
            if tag == _TAG_COPY:
                if pos + _COPY.size > len(blob):
                    raise ValueError("patch blob truncated: partial COPY op")
                _, src_off, length = _COPY.unpack_from(blob, pos)
                ops.append(CopyOp(src_off=src_off, length=length))
                pos += _COPY.size
            elif tag == _TAG_INSERT:
                if pos + _INSERT_HDR.size > len(blob):
                    raise ValueError("patch blob truncated: partial INSERT header")
                _, length = _INSERT_HDR.unpack_from(blob, pos)
                pos += _INSERT_HDR.size
                if pos + length > len(blob):
                    raise ValueError("patch blob truncated: partial INSERT data")
                ops.append(InsertOp(data=bytes(blob[pos : pos + length])))
                pos += length
            else:
                raise ValueError(f"unknown op tag {tag:#x}")
        try:
            patch = cls(ops=tuple(ops), target_len=target_len, base_len=base_len)
        except ValueError as exc:
            raise ValueError(f"inconsistent patch blob: {exc}") from exc
        return patch


def _as_array(buf: bytes | np.ndarray) -> np.ndarray:
    if isinstance(buf, np.ndarray):
        if buf.dtype != np.uint8:
            raise ValueError("expected uint8 array")
        return buf
    return np.frombuffer(buf, dtype=np.uint8)


def _ops_from_aligned_runs(
    target_bytes: bytes, first_unequal: bool, bounds: list[int]
) -> list[CopyOp | InsertOp]:
    """Build aligned ops from precomputed equal/unequal run boundaries.

    Runs strictly alternate equal/unequal, so only the first run's kind
    is needed.  Pending literal runs are contiguous between COPY
    emissions, so they flush as one slice of the target bytes.
    """
    ops: list[CopyOp | InsertOp] = []
    pend_start = -1
    pend_end = 0
    run_equal = not first_unequal
    for start, end in zip(bounds[:-1], bounds[1:]):
        if run_equal and end - start >= MIN_COPY_RUN:
            if pend_start >= 0:
                ops.append(InsertOp(data=target_bytes[pend_start:pend_end]))
                pend_start = -1
            ops.append(CopyOp(src_off=start, length=end - start))
        else:
            if pend_start < 0:
                pend_start = start
            pend_end = end
        run_equal = not run_equal
    if pend_start >= 0:
        ops.append(InsertOp(data=target_bytes[pend_start:pend_end]))
    return ops


def _aligned_ops(target: np.ndarray, base: np.ndarray) -> list[CopyOp | InsertOp]:
    """Ops for equal-length buffers using a vectorised same-offset diff."""
    n = len(target)
    if n == 0:
        return []
    neq = target != base
    # Boundaries of equal/unequal runs.
    change = np.flatnonzero(np.diff(neq.astype(np.int8)))
    bounds = [0, *(change + 1).tolist(), n]
    return _ops_from_aligned_runs(target.tobytes(), bool(neq[0]), bounds)


def _batch_aligned_runs(neq: np.ndarray) -> list[tuple[bool, list[int]]]:
    """Equal/unequal run boundaries for many equal-length pairs at once.

    ``neq`` is the ``(k, n)`` boolean ``targets != bases``; row ``j``'s
    ``(first_unequal, bounds)`` describes the same alternating runs that
    :func:`_aligned_ops` derives, but the run-boundary extraction happens
    once over the whole stack.
    """
    k, n = neq.shape
    # Flat positions of the boolean XOR of adjacent columns (no int8
    # widening as in ``np.diff``; a 2-D ``np.nonzero`` costs ten times
    # the flat one).
    rows, cols = np.divmod(np.flatnonzero(neq[:, 1:] != neq[:, :-1]), n - 1)
    changes = (cols + 1).tolist()
    ends = np.cumsum(np.bincount(rows, minlength=k)).tolist()
    first_unequal = neq[:, 0].tolist()
    return [
        (first_unequal[j], [0, *changes[start:end], n])
        for j, (start, end) in enumerate(zip([0, *ends], ends))
    ]


#: Bytes of the first slice a prefix comparison looks at — a page, so
#: what is left of a page is compared in one piece: three slices cost a
#: page pair 8 µs where one costs 3 — and the factor each further slice
#: grows by.
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
        neq = np.flatnonzero(a[start:stop] != b[start:stop])
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
        neq = np.flatnonzero(
            target[i - done - step : i - done] != base[src - done - step : src - done]
        )
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


@dataclass(frozen=True)
class SortedAnchors:
    """The half of an :class:`AnchorIndex` a probe searches.

    Each indexed window is keyed by its exact 16 bytes, packed as two
    little-endian uint64 halves (``a``, ``b``) so lookups are native
    integer searchsorted instead of byte-string hashing.  Entries are
    sorted by ``(a, b)`` with duplicate windows collapsed to their
    smallest base offset — a leftmost binary search therefore reproduces
    the first-offset-wins semantics of a dict built with ``setdefault``.
    """

    a: np.ndarray
    b: np.ndarray
    srcs: np.ndarray
    has_dup_a: bool
    #: Right boundary of the run of equal ``a`` values starting at each
    #: position (a leftmost search always lands on a run start, so this
    #: replaces the ``side="right"`` search at query time).
    aend: np.ndarray
    #: Membership table over mixed bits of ``a``, sized to the index
    #: (see :data:`_MIN_SEEN_SLOTS`) — a probe whose slot is unset
    #: cannot match, and the fill stays at or below one in eight, so at
    #: least seven in eight missing positions are dropped before any
    #: binary search runs.
    seen: np.ndarray


class AnchorIndex:
    """Anchor index over one base buffer, in two halves built on first use.

    The *word table* (:meth:`word_table`, 4 KiB for a page) answers the
    copy-coverage bound and is built by the first bound; the *sorted
    anchors* (:meth:`sorted_anchors`, ≈16 KiB for a page) serve
    :meth:`probe` and are built by the first probe, through
    :func:`build_anchor_index`.  Both depend only on the base bytes and
    the level, so callers patching many targets against one base keep
    the handle as long as the base lives (see :func:`cached_anchor_index`)
    — and a base whose pages are only ever bounded, the common case
    under a discard cutoff, never pays for the sort.

    The handle outlives the call that made it, so it holds bytes nobody
    can change or unmap under it: ``bytes`` and read-only arrays are
    shared as they are, a writable array (a page of a shared-memory
    arena, say) is copied once.
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
        self, target_bytes: bytes, start: int, stride: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Indexed windows of the target at ``start, start + stride, …``.

        Returns ``(positions, base offsets)`` in position order.  With
        ``stride`` 8 (the level-1 residue sweep) one zero-copy u64 view
        at byte offset ``start`` holds both key halves of every probed
        window, as its elements ``k`` and ``k + 1``; with ``stride`` 1
        (the dense level-2 sweep) one window-value pass covers every
        position.  The work past the ``seen`` filter is one searchsorted
        over the surviving positions plus, where the index repeats an
        ``a`` half, a lock-step bisection of ``b`` inside each run — no
        per-candidate Python.
        """
        count = (len(target_bytes) - ANCHOR_SIZE - start) // stride + 1
        if count <= 0 or self.base_len < ANCHOR_SIZE:
            return _EMPTY_I64, _EMPTY_I64
        index = self.sorted_anchors()
        if stride == 8:
            u = np.frombuffer(target_bytes, dtype="<u8", offset=start, count=count + 1)
        else:
            u = _window_values(target_bytes)[start:]
        ta = u[:count]
        sel = index.seen[_seen_slots(ta, len(index.seen))].nonzero()[0]
        if not sel.size:
            return _EMPTY_I64, _EMPTY_I64
        ta = ta[sel]
        tb = u[sel + 8 // stride]
        lo = np.searchsorted(index.a, ta)
        last = len(index.a) - 1
        if index.has_dup_a:
            # Leftmost ``b >= tb`` inside each run ``[lo, aend[lo])`` of
            # the matched ``a``: every candidate halves its own run each
            # round, so the loop runs log2(longest run) times however
            # many candidates there are.
            keep = (index.a[np.minimum(lo, last)] == ta).nonzero()[0]
            sel, ta, tb, lo = sel[keep], ta[keep], tb[keep], lo[keep]
            hi = index.aend[lo]
            while True:
                todo = lo < hi
                if not todo.any():
                    break
                mid = (lo + hi) >> 1
                right = todo & (index.b[np.minimum(mid, last)] < tb)
                lo = np.where(right, mid + 1, lo)
                hi = np.where(todo & ~right, mid, hi)
        # ``lo`` past its run lands on another ``a`` (or, clamped, on a
        # smaller ``b``), so one exact compare settles every candidate.
        loc = np.minimum(lo, last)
        hit = ((index.a[loc] == ta) & (index.b[loc] == tb)).nonzero()[0]
        return start + stride * sel[hit], index.srcs[loc[hit]]


def _build_word_bits(base: bytes | np.ndarray) -> np.ndarray:
    """Packed table of ``base``'s u64 word at every byte offset.

    Sized like ``seen`` — 8 bits per word, so 4 KiB for a 4 KiB page and
    at most one bit in eight set.
    """
    vals = _window_values(base)
    table = np.zeros(_table_slots(len(vals)), dtype=bool)
    table[_seen_slots(vals, len(table))] = True
    return np.packbits(table, bitorder="little")


def _copy_bounds(targets: np.ndarray, indexes: "list[AnchorIndex]") -> list[int]:
    """Upper bound on the bytes any anchor patch of each target row COPYs.

    ``targets`` is a C-contiguous ``(k, n)`` stack and ``indexes[r]``
    the index of row ``r``'s base, every base ``n`` bytes long.  Exact
    for every level and never looks at the sorted anchors: each COPY
    contains ``_COPY_MIN_WORDS`` consecutive aligned target words, and
    each of those occurs somewhere in the base (the bytes it was copied
    from), so with ``P`` windows of that many consecutive words found in
    the base's word table and ``R`` runs of such windows, no set of
    COPYs covers more than ``8 * P + _COPY_RUN_SLACK * R`` bytes (see
    :data:`_COPY_RUN_SLACK`).  False positives of the table only loosen
    the bound.  One pass for the stack: the rows' word tables stacked,
    one slot computation over all aligned words, one gather.
    """
    k, n = targets.shape
    if n < ANCHOR_SIZE:  # bases shorter than an anchor: nothing to copy
        return [0] * k
    tables = np.stack([index.word_table() for index in indexes])
    whole = targets if n % 8 == 0 else np.ascontiguousarray(targets[:, : n - n % 8])
    slot = _seen_slots(whole.view("<u8"), 8 * tables.shape[1])
    # Row r's bits live at flat offset r * table bytes.
    at = (slot >> np.uint64(3)).astype(np.intp)
    at += (np.arange(k, dtype=np.intp) * tables.shape[1])[:, None]
    found = (tables.reshape(-1)[at] >> (slot & np.uint64(7)).astype(np.uint8)) & np.uint8(1)
    windows = found
    for w in range(1, _COPY_MIN_WORDS):
        windows = windows[:, :-1] & found[:, w:]
    count = np.count_nonzero(windows, axis=1)
    runs = windows[:, :1].sum(axis=1) + np.count_nonzero(
        windows[:, 1:] > windows[:, :-1], axis=1
    )
    return (8 * count + _COPY_RUN_SLACK * runs).tolist()


def build_anchor_index(base: bytes | np.ndarray, level: int = 1) -> AnchorIndex:
    """An :class:`AnchorIndex` of ``base`` with its sorted anchors built."""
    index = AnchorIndex(base, level)
    step = max(1, ANCHOR_SIZE // 2) if level <= 1 else max(1, ANCHOR_SIZE // 4)
    m = index.base_len - ANCHOR_SIZE + 1
    if m <= 0:
        empty = np.empty(0, dtype=np.uint64)
        index.anchors = SortedAnchors(
            a=empty,
            b=empty,
            srcs=_EMPTY_I64,
            has_dup_a=False,
            aend=_EMPTY_I64,
            seen=np.zeros(_MIN_SEEN_SLOTS, dtype=bool),
        )
        return index
    offs = np.arange(0, m, step, dtype=np.int64)
    # One window-value pass serves both key halves (offs + 8 is at most
    # the last window start, m - 1 + 8 <= len - 8).
    vals = _window_values(index.base)
    a = vals[offs]
    b = vals[offs + 8]
    order = np.lexsort((offs, b, a))
    a, b, offs = a[order], b[order], offs[order]
    if len(a) > 1:
        keep = np.concatenate(([True], (a[1:] != a[:-1]) | (b[1:] != b[:-1])))
        a, b, offs = a[keep], b[keep], offs[keep]
    has_dup_a = bool((a[1:] == a[:-1]).any()) if len(a) > 1 else False
    aend = np.searchsorted(a, a, side="right")
    seen = np.zeros(_table_slots(len(a)), dtype=bool)
    seen[_seen_slots(a, len(seen))] = True
    index.anchors = SortedAnchors(a=a, b=b, srcs=offs, has_dup_a=has_dup_a, aend=aend, seen=seen)
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


def _anchor_ops(
    target: np.ndarray,
    base: np.ndarray,
    level: int,
    index: AnchorIndex | None = None,
) -> list[CopyOp | InsertOp]:
    """Greedy xdelta-style ops using an anchor-hash index over the base.

    ``level`` trades patch size for speed, like xdelta3's compression
    levels: level 1 (the paper's choice, for fast restores) probes the
    target sparsely (every ``probe_step`` bytes) against a half-anchor-
    spaced base index; level >= 2 probes every byte.  Backward extension
    of each hit recovers bytes a sparse probe skipped over.

    The probe is vectorised: a probe from position ``p`` only ever lands
    on positions ``p + k * probe_step``, so candidate matches are
    computed per position-residue class (lazily, one
    :meth:`AnchorIndex.probe` sweep for each residue the scan actually
    visits) and the greedy scan jumps straight to the next hit with a
    binary search instead of hashing window by window.  The resulting
    ops are byte-identical to the scalar scan's.  A prebuilt ``index``
    skips re-hashing the base; a stale one (wrong level or base length)
    is ignored and rebuilt.
    """
    index = _usable_index(index, base, level)
    probe_step = 8 if level <= 1 else 1
    n = len(target)
    target_bytes = target.tobytes()
    ops: list[CopyOp | InsertOp] = []
    pending_start = 0

    chains: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def chain(residue: int) -> tuple[np.ndarray, np.ndarray]:
        cached = chains.get(residue)
        if cached is None:
            cached = chains[residue] = index.probe(target_bytes, residue, probe_step)
        return cached

    i = 0
    while True:
        # Probe forward from i for the next match >= MIN_ANCHOR_MATCH.
        accepted = None
        while True:
            cpos, csrcs = chain(i % probe_step)
            j = np.searchsorted(cpos, i)
            if j >= len(cpos):
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
            ops.append(InsertOp(data=target_bytes[pending_start:lit_end]))
        ops.append(CopyOp(src_off=src - back, length=length))
        i = lit_end + length
        pending_start = i
    if pending_start < n:
        ops.append(InsertOp(data=target_bytes[pending_start:]))
    return ops


def _anchor_ops_scalar(
    target: np.ndarray, base: np.ndarray, level: int
) -> list[CopyOp | InsertOp]:
    """Reference anchor matcher: the straightforward window-by-window scan.

    This is the original page-at-a-time implementation — a dict of base
    windows probed one target window at a time — kept verbatim as the
    behavioural oracle for :func:`_anchor_ops` (the vectorised scan must
    produce byte-identical ops) and as the honest baseline the batch
    pipeline's throughput is measured against.
    """
    step = max(1, ANCHOR_SIZE // 2) if level <= 1 else max(1, ANCHOR_SIZE // 4)
    probe_step = 8 if level <= 1 else 1
    base_bytes = base.tobytes()
    index: dict[bytes, int] = {}
    for off in range(0, len(base_bytes) - ANCHOR_SIZE + 1, step):
        index.setdefault(base_bytes[off : off + ANCHOR_SIZE], off)

    target_bytes = target.tobytes()
    ops: list[CopyOp | InsertOp] = []
    pending_start = 0
    i = 0
    n = len(target_bytes)
    while i <= n - ANCHOR_SIZE:
        src = index.get(target_bytes[i : i + ANCHOR_SIZE])
        if src is None:
            i += probe_step
            continue
        # Extend forward from the anchor.
        fwd = ANCHOR_SIZE + _match_len(target[i + ANCHOR_SIZE :], base[src + ANCHOR_SIZE :])
        # Extend backward into the pending literal run.
        back = 0
        while (
            i - back > pending_start
            and src - back > 0
            and target_bytes[i - back - 1] == base_bytes[src - back - 1]
        ):
            back += 1
        length = fwd + back
        if length < MIN_ANCHOR_MATCH:
            i += probe_step
            continue
        lit_end = i - back
        if lit_end > pending_start:
            ops.append(InsertOp(data=target_bytes[pending_start:lit_end]))
        ops.append(CopyOp(src_off=src - back, length=length))
        i = i - back + length
        pending_start = i
    if pending_start < n:
        ops.append(InsertOp(data=target_bytes[pending_start:]))
    return ops


def compute_patch_reference(
    target: bytes | np.ndarray,
    base: bytes | np.ndarray,
    *,
    level: int = 1,
) -> Patch:
    """Reference :func:`compute_patch`: one page at a time, no indexes.

    Same fallback policy and byte-identical output, but anchor matching
    uses the scalar window-by-window scan.  The per-page dedup path uses
    this so batch-vs-reference comparisons measure the vectorised
    pipeline against the unoptimised original, not against itself.
    """
    t = _as_array(target)
    b = _as_array(base)
    if len(t) == len(b):
        ops = _aligned_ops(t, b)
        patch = Patch(ops=tuple(ops), target_len=len(t), base_len=len(b))
        if patch.size_bytes <= max(64, int(len(t) * ALIGNED_FALLBACK_RATIO)):
            return patch
        alt = Patch(
            ops=tuple(_anchor_ops_scalar(t, b, level)),
            target_len=len(t),
            base_len=len(b),
        )
        return alt if alt.size_bytes < patch.size_bytes else patch
    ops = _anchor_ops_scalar(t, b, level)
    return Patch(ops=tuple(ops), target_len=len(t), base_len=len(b))


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
        ops = _aligned_ops(t, b)
        patch = Patch(ops=tuple(ops), target_len=len(t), base_len=len(b))
        if patch.size_bytes <= max(64, int(len(t) * ALIGNED_FALLBACK_RATIO)):
            return patch
        alt = Patch(
            ops=tuple(_anchor_ops(t, b, level, index=anchor_index)),
            target_len=len(t),
            base_len=len(b),
        )
        return alt if alt.size_bytes < patch.size_bytes else patch
    ops = _anchor_ops(t, b, level, index=anchor_index)
    return Patch(ops=tuple(ops), target_len=len(t), base_len=len(b))


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
    threshold — takes its copy-coverage bound in one
    :func:`_copy_bounds` pass; a dense row the bound cannot dismiss has
    its runs extracted after all and goes to the matcher like a sparse
    one.  The provider is consulted once per fallback row, in row order.
    """
    k, n = targets.shape
    threshold = max(64, int(n * ALIGNED_FALLBACK_RATIO))
    neq = targets != bases
    # Row by row: a 1-D count is SIMD-fast, the axis-wise one is not.
    differing = [np.count_nonzero(row) for row in neq]
    identical = [n >= MIN_COPY_RUN and not d for d in differing]
    if max_size is None:
        dense = [False] * k
    else:
        dense_from = max(threshold + 1, max_size) - _HEADER.size - _INSERT_HDR.size
        dense = [d >= dense_from for d in differing]

    def diff_rows(rows: list[int]) -> None:
        if rows:
            for r, (first_unequal, bounds) in zip(rows, _batch_aligned_runs(neq[rows])):
                ops = _ops_from_aligned_runs(targets[r].tobytes(), first_unequal, bounds)
                patches[r] = Patch(ops=tuple(ops), target_len=n, base_len=n)

    def aligned_size(r: int, undiffed: int) -> int:
        return undiffed if patches[r] is None else patches[r].size_bytes

    # Each row's aligned patch, where it has been diffed, until a better
    # candidate replaces it.
    patches: list[Patch | None] = [
        Patch(ops=(CopyOp(src_off=0, length=n),), target_len=n, base_len=n) if same else None
        for same in identical
    ]
    diff_rows([r for r in range(k) if not (identical[r] or dense[r])])
    fallback = [r for r in range(k) if dense[r] or aligned_size(r, 0) > threshold]
    indexes = {r: index_for(r) for r in fallback}
    to_matcher = fallback
    if max_size is not None and fallback:
        indexes = {r: _usable_index(index, bases[r], level) for r, index in indexes.items()}
        bounds = _copy_bounds(targets[fallback], list(indexes.values()))
        to_matcher = []
        for r, bound in zip(fallback, bounds):
            # A dense row's aligned patch is no smaller than the cutoff.
            size = aligned_size(r, max_size)
            # Header plus the literals no COPY can cover: can an anchor
            # patch beat the aligned one and the cutoff?
            if n + _HEADER.size - bound < min(size, max_size):
                to_matcher.append(r)
            elif size >= max_size:
                # Discarded whichever candidate wins, and the literal is
                # no smaller than the cutoff either:
                # max_size <= n + _HEADER.size - bound <= n + _HEADER.size.
                patches[r] = Patch(
                    ops=(InsertOp(data=targets[r].tobytes()),), target_len=n, base_len=n
                )
        diff_rows([r for r in to_matcher if patches[r] is None])
    for r in to_matcher:
        alt = Patch(
            ops=tuple(_anchor_ops(targets[r], bases[r], level, index=indexes[r])),
            target_len=n,
            base_len=n,
        )
        if alt.size_bytes < patches[r].size_bytes:
            patches[r] = alt
    return patches  # type: ignore[return-value]


def compute_patches(
    targets: "list[bytes | np.ndarray]",
    bases: "list[bytes | np.ndarray]",
    *,
    level: int = 1,
    index_provider=None,
    max_size: int | None = None,
) -> list[Patch]:
    """Batched :func:`compute_patch` over pairwise ``targets``/``bases``.

    With ``max_size=None`` produces exactly ``[compute_patch(t, b) for
    t, b in zip(...)]``, but equal-length pairs (the page-vs-base-page
    common case) are grouped by length and diffed in one 2-D numpy pass
    (:func:`_patch_stack`), so the per-pair dispatch overhead of the
    aligned path is paid once per batch.  Only pairs whose aligned patch
    is poor proceed to anchor matching.

    ``max_size`` is the caller's discard cutoff — "I keep only patches
    smaller than this" (the dedup agent's unique-page cap).  Then
    ``result[j].size_bytes < max_size`` implies ``result[j]`` is
    byte-identical to ``compute_patch(targets[j], bases[j])``, and
    otherwise that patch is ``>= max_size`` too: ``result[j]`` is still a
    valid patch of the pair, but may be the one-INSERT literal.  What
    this buys: an equal-length pair that reaches the anchor fallback
    first asks the copy-coverage bound (:func:`_copy_bounds`) whether
    any anchor patch could come in under ``min(aligned size,
    max_size)``, and skips the matcher — and, for a discarded pair,
    sizing its runs and materialising any ops — when none can.

    ``index_provider(j)`` may return an :class:`AnchorIndex` for pair
    ``j`` (or ``None``); it is only consulted for pairs that reach the
    anchor fallback, so callers can make/cache indexes lazily.  A pair
    with no (or a stale) index gets one on the spot, as
    :func:`compute_patch` does; whatever half the pair builds hangs on
    the index it used, so only a provided, cached index keeps it.
    """
    if len(targets) != len(bases):
        raise ValueError("targets/bases length mismatch")
    t_arrs = [_as_array(t) for t in targets]
    b_arrs = [_as_array(b) for b in bases]
    patches: list[Patch | None] = [None] * len(t_arrs)

    def _index_for(j: int) -> AnchorIndex | None:
        return index_provider(j) if index_provider is not None else None

    by_len: dict[int, list[int]] = {}
    for j, (t, b) in enumerate(zip(t_arrs, b_arrs)):
        if len(t) == len(b):
            by_len.setdefault(len(t), []).append(j)
    for n, idxs in by_len.items():
        if n == 0:
            for j in idxs:
                patches[j] = Patch(ops=(), target_len=0, base_len=0)
            continue
        stack = _patch_stack(
            np.concatenate([t_arrs[j] for j in idxs]).reshape(len(idxs), n),
            np.concatenate([b_arrs[j] for j in idxs]).reshape(len(idxs), n),
            lambda r, idxs=idxs: _index_for(idxs[r]),
            level,
            max_size,
        )
        for j, patch in zip(idxs, stack):
            patches[j] = patch
    for j, patch in enumerate(patches):
        if patch is None:  # unequal lengths: anchor matching only
            patches[j] = compute_patch(
                t_arrs[j], b_arrs[j], level=level, anchor_index=_index_for(j)
            )
    return patches  # type: ignore[return-value]


def apply_patch(patch: Patch, base: bytes | np.ndarray) -> bytes:
    """Reconstruct the target buffer from ``patch`` and ``base``."""
    b = _as_array(base)
    if len(b) != patch.base_len:
        raise ValueError(f"base length {len(b)} != patch base_len {patch.base_len}")
    out = bytearray()
    for op in patch.ops:
        if isinstance(op, CopyOp):
            if op.src_off + op.length > len(b):
                raise ValueError("COPY op out of base bounds")
            out += b[op.src_off : op.src_off + op.length].tobytes()
        else:
            out += op.data
    if len(out) != patch.target_len:
        raise AssertionError("patch application produced wrong length")
    return bytes(out)


def apply_patch_into(patch: Patch, base: bytes | np.ndarray, out: np.ndarray) -> None:
    """:func:`apply_patch`, writing the target into a caller-owned buffer.

    ``out`` must be a uint8 array of exactly ``patch.target_len`` bytes —
    typically a view into a restore op's shared-memory output region, so
    worker processes reconstruct pages in place with no intermediate
    ``bytes`` object crossing the process boundary.
    """
    b = _as_array(base)
    if len(b) != patch.base_len:
        raise ValueError(f"base length {len(b)} != patch base_len {patch.base_len}")
    if len(out) != patch.target_len:
        raise ValueError(f"out length {len(out)} != patch target_len {patch.target_len}")
    cursor = 0
    for op in patch.ops:
        if isinstance(op, CopyOp):
            if op.src_off + op.length > len(b):
                raise ValueError("COPY op out of base bounds")
            out[cursor : cursor + op.length] = b[op.src_off : op.src_off + op.length]
        else:
            out[cursor : cursor + op.length] = np.frombuffer(op.data, dtype=np.uint8)
        cursor += op.length
