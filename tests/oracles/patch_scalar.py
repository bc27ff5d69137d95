"""The anchor matcher window by window, and the codec on top of it.

:func:`_anchor_ops_scalar` is the original page-at-a-time matcher — a
dict of base windows probed one target window at a time — kept as the
behavioural oracle for ``repro.memory.patch._anchor_patch`` (the
vectorised, windowed scan must produce byte-identical patches).
:func:`_aligned_ops_scalar` is the same-offset diff, one equal run at a
time.  :func:`compute_patch_reference` is ``compute_patch`` built from
these two and encoded by the wire oracle: same fallback policy,
byte-identical output, no indexes.  The per-page dedup oracle
(:mod:`tests.oracles.dedup_scalar`) patches with it, so batch-vs-reference
comparisons measure the vectorised pipeline against the unoptimised
original, not against itself.

Constants and helpers are read from the codec module at call time: a
test that patches ``MIN_ANCHOR_MATCH`` moves the oracle with the matcher.
"""

from __future__ import annotations

import numpy as np

from repro.memory import patch as codec
from repro.memory.patch import Patch
from tests.oracles.patch_wire import CopyOp, InsertOp, OpPatch, serialize


def _aligned_ops_scalar(target: np.ndarray, base: np.ndarray) -> list[CopyOp | InsertOp]:
    """Reference aligned diff: every equal run of at least ``MIN_COPY_RUN``
    bytes is a COPY, the bytes between COPYs one INSERT."""
    target_bytes = target.tobytes()
    edges = np.diff(np.concatenate(([0], (target == base).astype(np.int8), [0])))
    starts, ends = np.flatnonzero(edges == 1).tolist(), np.flatnonzero(edges == -1).tolist()
    ops: list[CopyOp | InsertOp] = []
    pending = 0
    for start, end in zip(starts, ends):
        if end - start >= codec.MIN_COPY_RUN:
            if start > pending:
                ops.append(InsertOp(data=target_bytes[pending:start]))
            ops.append(CopyOp(src_off=start, length=end - start))
            pending = end
    if pending < len(target_bytes):
        ops.append(InsertOp(data=target_bytes[pending:]))
    return ops


def _encode(ops: list[CopyOp | InsertOp], target_len: int, base_len: int) -> Patch:
    return Patch(serialize(OpPatch(ops=tuple(ops), target_len=target_len, base_len=base_len)))


def _anchor_ops_scalar(
    target: np.ndarray, base: np.ndarray, level: int
) -> list[CopyOp | InsertOp]:
    """Reference anchor matcher: the straightforward window-by-window scan."""
    anchor = codec.ANCHOR_SIZE
    step = max(1, anchor // 2) if level <= 1 else max(1, anchor // 4)
    probe_step = 8 if level <= 1 else 1
    base_bytes = base.tobytes()
    index: dict[bytes, int] = {}
    for off in range(0, len(base_bytes) - anchor + 1, step):
        index.setdefault(base_bytes[off : off + anchor], off)

    target_bytes = target.tobytes()
    ops: list[CopyOp | InsertOp] = []
    pending_start = 0
    i = 0
    n = len(target_bytes)
    while i <= n - anchor:
        src = index.get(target_bytes[i : i + anchor])
        if src is None:
            i += probe_step
            continue
        # Extend forward from the anchor.
        fwd = anchor + codec._match_len(target[i + anchor :], base[src + anchor :])
        # Extend backward into the pending literal run.
        back = 0
        while (
            i - back > pending_start
            and src - back > 0
            and target_bytes[i - back - 1] == base_bytes[src - back - 1]
        ):
            back += 1
        length = fwd + back
        if length < codec.MIN_ANCHOR_MATCH:
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
    """Reference ``compute_patch``: one page at a time, no indexes."""
    t = codec._as_array(target)
    b = codec._as_array(base)
    if len(t) == len(b):
        patch = _encode(_aligned_ops_scalar(t, b), len(t), len(b))
        if patch.size_bytes <= max(64, int(len(t) * codec.ALIGNED_FALLBACK_RATIO)):
            return patch
        alt = _encode(_anchor_ops_scalar(t, b, level), len(t), len(b))
        return alt if alt.size_bytes < patch.size_bytes else patch
    return _encode(_anchor_ops_scalar(t, b, level), len(t), len(b))
