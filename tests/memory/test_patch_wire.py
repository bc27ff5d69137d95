"""Adversarial bytes against the patch wire decoders.

For any blob, the oracle's ``deserialize`` either returns a patch that
re-serializes to exactly that blob or raises ``ValueError`` — never
``IndexError`` or ``struct.error``, and never a patch that silently
dropped bytes of its input.

The codec's own decoder, ``apply_patch_into``, accepts a blob exactly
when the oracle does (and the oracle's op-level apply accepts the base
and the output length), writes exactly the oracle's bytes when it does,
and otherwise raises ``ValueError``.  Its output is a window of a larger
buffer and its base a prefix of one, so a write past ``out`` shows in
the guard bytes and a read past the base changes what is written.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.memory.patch import Patch, apply_patch_into
from tests.oracles.patch_wire import (
    COPY,
    HEADER,
    INSERT_HDR,
    MAGIC,
    TAG_COPY,
    TAG_INSERT,
    VERSION,
    CopyOp,
    InsertOp,
    OpPatch,
    apply_ops,
    deserialize,
    serialize,
)

U32 = 2**32 - 1
#: The bases are prefixes of this buffer; the bytes past ``BASE_LEN_MAX``
#: are never part of one.
BASE_BUFFER = np.random.default_rng(40).integers(0, 256, 160, dtype=np.uint8)
BASE_LEN_MAX = 128
#: Outputs longer than this are never allocated: the decoder is then
#: handed a shorter ``out`` and must reject on length alone.
OUT_MAX = 4096
GUARD = 16
CANARY = 0xA5


def decodes_canonically_or_rejects(blob: bytes) -> None:
    try:
        patch = deserialize(blob)
    except ValueError:
        patch = None
    else:
        assert serialize(patch) == blob
    decodes_like_the_oracle(blob, patch)


def decodes_like_the_oracle(blob: bytes, patch: OpPatch | None) -> None:
    """``apply_patch_into`` on ``blob`` against the oracle's decode ``patch``
    (``None`` if it rejected the blob)."""
    target_len, base_len = (0, 0) if len(blob) < HEADER.size else HEADER.unpack_from(blob)[3:5]
    base = BASE_BUFFER[: min(base_len, BASE_LEN_MAX)]
    n = min(target_len, OUT_MAX)
    buffer = np.full(n + 2 * GUARD, CANARY, dtype=np.uint8)
    out = buffer[GUARD : GUARD + n]
    expected = None
    if patch is not None and n == target_len:
        try:
            expected = apply_ops(patch, base.tobytes())
        except ValueError:
            pass
    if expected is None:
        with pytest.raises(ValueError):
            apply_patch_into(Patch(blob), base, out)
    else:
        apply_patch_into(Patch(blob), base, out)
        assert out.tobytes() == expected
    assert (buffer[:GUARD] == CANARY).all() and (buffer[GUARD + n :] == CANARY).all()


offsets = st.one_of(st.integers(0, BASE_LEN_MAX + 8), st.integers(0, U32))
lengths = st.one_of(st.integers(0, BASE_LEN_MAX + 8), st.integers(0, 2**20))
base_lens = st.one_of(st.integers(0, BASE_LEN_MAX), st.integers(0, U32))
inserts = st.builds(InsertOp, data=st.binary(max_size=24))


def copies_inside(base_len: int):
    """COPYs inside a ``base_len``-byte base (or of nothing, past it)."""
    end = min(base_len, BASE_LEN_MAX)
    return st.integers(0, end).flatmap(
        lambda off: st.builds(CopyOp, src_off=st.just(off), length=st.integers(0, end - off))
    )


@st.composite
def patches(draw) -> OpPatch:
    """Half the patches fit a base; the rest have any base length and
    COPYs anywhere."""
    wild = draw(st.booleans())
    base_len = draw(base_lens if wild else st.integers(0, BASE_LEN_MAX))
    op = st.one_of(copies_inside(base_len), inserts)
    if wild:
        op |= st.builds(CopyOp, src_off=offsets, length=lengths)
    drawn = tuple(draw(st.lists(op, max_size=8)))
    target_len = sum(op.length for op in drawn)
    return OpPatch(ops=drawn, target_len=target_len, base_len=base_len)


#: One op record: a COPY, an INSERT whose length may not match the bytes
#: that follow it, or stray bytes.
records = st.one_of(
    st.builds(lambda off, n: COPY.pack(TAG_COPY, off, n), offsets, lengths),
    st.builds(
        lambda n, data: INSERT_HDR.pack(TAG_INSERT, n) + data,
        st.integers(0, 32),
        st.binary(max_size=24),
    ),
    st.binary(max_size=8),
)


@st.composite
def headed_blobs(draw) -> bytes:
    """A valid header (any lengths and op count) over random op bytes or
    a random stream of op records."""
    header = HEADER.pack(
        MAGIC,
        VERSION,
        draw(st.sampled_from([0, 0, 1])),
        draw(st.integers(0, 64)),
        draw(base_lens),
        draw(st.integers(0, 4)),
    )
    body = draw(st.one_of(st.binary(max_size=64), st.lists(records, max_size=5).map(b"".join)))
    return header + body


@given(st.binary(max_size=96))
def test_random_blobs(blob):
    decodes_canonically_or_rejects(blob)


@given(headed_blobs())
def test_random_ops_under_a_valid_header(blob):
    decodes_canonically_or_rejects(blob)


@given(patches(), st.data())
def test_truncated_patches(patch, data):
    blob = serialize(patch)
    cut = data.draw(st.integers(0, len(blob) - 1))
    with pytest.raises(ValueError):
        deserialize(blob[:cut])
    decodes_like_the_oracle(blob[:cut], None)


@given(patches(), st.binary(min_size=1, max_size=16))
@example(OpPatch(ops=(InsertOp(data=b"ab"),), target_len=2, base_len=0), b"\x00junk")
def test_extended_patches(patch, tail):
    with pytest.raises(ValueError):
        deserialize(serialize(patch) + tail)
    decodes_like_the_oracle(serialize(patch) + tail, None)


@given(patches(), st.data())
def test_patches_with_one_byte_flipped(patch, data):
    blob = bytearray(serialize(patch))
    at = data.draw(st.integers(0, len(blob) - 1))
    blob[at] ^= data.draw(st.integers(1, 255))
    decodes_canonically_or_rejects(bytes(blob))


@given(patches())
def test_serialized_patches_decode_like_the_oracle(patch):
    decodes_canonically_or_rejects(serialize(patch))
