"""The patch wire format, op by op: the reference the codec is checked against.

``repro.memory.patch`` keeps a patch as its encoded bytes and decodes
them in place.  This module writes the same format out independently —
its own layouts, its own op types, its own produced-length check — so a
test can compare the codec's bytes and writes with a decoder that shares
no code with it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

HEADER = struct.Struct("<2sBBIII")  # magic, version, flags, target_len, base_len, op_count
COPY = struct.Struct("<BII")  # tag, src_off, length
INSERT_HDR = struct.Struct("<BI")  # tag, length
MAGIC = b"MP"
VERSION = 1
TAG_COPY = 0x01
TAG_INSERT = 0x02


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
class OpPatch:
    """A patch as its op list; the ops must produce ``target_len`` bytes."""

    ops: tuple[CopyOp | InsertOp, ...]
    target_len: int
    base_len: int

    def __post_init__(self) -> None:
        produced = sum(op.length for op in self.ops)
        if produced != self.target_len:
            raise ValueError(f"ops produce {produced} bytes, target is {self.target_len}")


def serialize(patch: OpPatch) -> bytes:
    """Encode ``patch``: header, then each op (INSERTs carry their bytes)."""
    parts = [HEADER.pack(MAGIC, VERSION, 0, patch.target_len, patch.base_len, len(patch.ops))]
    for op in patch.ops:
        if isinstance(op, CopyOp):
            parts.append(COPY.pack(TAG_COPY, op.src_off, op.length))
        else:
            parts.append(INSERT_HDR.pack(TAG_INSERT, op.length))
            parts.append(op.data)
    return b"".join(parts)


def deserialize(blob: bytes) -> OpPatch:
    """Decode a blob :func:`serialize` wrote; any other blob, one with
    bytes past its last op included, raises :class:`ValueError`, never
    ``IndexError`` or ``struct.error``."""
    if len(blob) < HEADER.size:
        raise ValueError("patch blob truncated: missing header")
    magic, version, flags, target_len, base_len, op_count = HEADER.unpack_from(blob, 0)
    if magic != MAGIC or version != VERSION or flags != 0:
        raise ValueError("not a valid patch blob")
    pos = HEADER.size
    ops: list[CopyOp | InsertOp] = []
    for _ in range(op_count):
        if pos >= len(blob):
            raise ValueError("patch blob truncated: missing op tag")
        tag = blob[pos]
        if tag == TAG_COPY:
            if pos + COPY.size > len(blob):
                raise ValueError("patch blob truncated: partial COPY op")
            _, src_off, length = COPY.unpack_from(blob, pos)
            ops.append(CopyOp(src_off=src_off, length=length))
            pos += COPY.size
        elif tag == TAG_INSERT:
            if pos + INSERT_HDR.size > len(blob):
                raise ValueError("patch blob truncated: partial INSERT header")
            _, length = INSERT_HDR.unpack_from(blob, pos)
            pos += INSERT_HDR.size
            if pos + length > len(blob):
                raise ValueError("patch blob truncated: partial INSERT data")
            ops.append(InsertOp(data=bytes(blob[pos : pos + length])))
            pos += length
        else:
            raise ValueError(f"unknown op tag {tag:#x}")
    if pos != len(blob):
        raise ValueError(f"patch blob has {len(blob) - pos} bytes past its last op")
    try:
        return OpPatch(ops=tuple(ops), target_len=target_len, base_len=base_len)
    except ValueError as exc:
        raise ValueError(f"inconsistent patch blob: {exc}") from exc


def apply_ops(patch: OpPatch, base: bytes) -> bytes:
    """The target ``patch`` rebuilds from ``base``, one op at a time;
    a base of the wrong length or a COPY past its end raises
    :class:`ValueError`."""
    if len(base) != patch.base_len:
        raise ValueError(f"base length {len(base)} != patch base_len {patch.base_len}")
    out = bytearray()
    for op in patch.ops:
        if isinstance(op, CopyOp):
            if op.src_off + op.length > len(base):
                raise ValueError("COPY op out of base bounds")
            out += base[op.src_off : op.src_off + op.length]
        else:
            out += op.data
    return bytes(out)
