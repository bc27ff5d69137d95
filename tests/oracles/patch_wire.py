"""The patch wire format that ``Patch.size_bytes`` counts, byte for byte.

The simulation never moves patches as bytes, so the encoding lives here,
as the reference ``size_bytes`` is checked against, in the codec's own
header and op layouts.
"""

from __future__ import annotations

from repro.memory.patch import _COPY, _HEADER, _INSERT_HDR, CopyOp, InsertOp, Patch

MAGIC = b"MP"
VERSION = 1
TAG_COPY = 0x01
TAG_INSERT = 0x02


def serialize(patch: Patch) -> bytes:
    """Encode ``patch``: header, then each op (INSERTs carry their bytes)."""
    parts = [_HEADER.pack(MAGIC, VERSION, 0, patch.target_len, patch.base_len, len(patch.ops))]
    for op in patch.ops:
        if isinstance(op, CopyOp):
            parts.append(_COPY.pack(TAG_COPY, op.src_off, op.length))
        else:
            parts.append(_INSERT_HDR.pack(TAG_INSERT, op.length))
            parts.append(op.data)
    return b"".join(parts)


def deserialize(blob: bytes) -> Patch:
    """Decode a blob :func:`serialize` wrote; any other blob, one with
    bytes past its last op included, raises :class:`ValueError`, never
    ``IndexError`` or ``struct.error``."""
    if len(blob) < _HEADER.size:
        raise ValueError("patch blob truncated: missing header")
    magic, version, flags, target_len, base_len, op_count = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC or version != VERSION or flags != 0:
        raise ValueError("not a valid patch blob")
    pos = _HEADER.size
    ops: list[CopyOp | InsertOp] = []
    for _ in range(op_count):
        if pos >= len(blob):
            raise ValueError("patch blob truncated: missing op tag")
        tag = blob[pos]
        if tag == TAG_COPY:
            if pos + _COPY.size > len(blob):
                raise ValueError("patch blob truncated: partial COPY op")
            _, src_off, length = _COPY.unpack_from(blob, pos)
            ops.append(CopyOp(src_off=src_off, length=length))
            pos += _COPY.size
        elif tag == TAG_INSERT:
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
    if pos != len(blob):
        raise ValueError(f"patch blob has {len(blob) - pos} bytes past its last op")
    try:
        return Patch(ops=tuple(ops), target_len=target_len, base_len=base_len)
    except ValueError as exc:
        raise ValueError(f"inconsistent patch blob: {exc}") from exc
