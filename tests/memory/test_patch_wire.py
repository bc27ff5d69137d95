"""Adversarial bytes against the patch wire decoder.

For any blob, ``deserialize`` either returns a ``Patch`` that
re-serializes to exactly that blob or raises ``ValueError`` — never
``IndexError`` or ``struct.error``, and never a patch that silently
dropped bytes of its input.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.memory.patch import _HEADER, CopyOp, InsertOp, Patch
from tests.oracles.patch_wire import MAGIC, VERSION, deserialize, serialize

U32 = 2**32 - 1


def decodes_canonically_or_rejects(blob: bytes) -> None:
    try:
        patch = deserialize(blob)
    except ValueError:
        return
    assert serialize(patch) == blob


ops = st.lists(
    st.one_of(
        st.builds(CopyOp, src_off=st.integers(0, U32), length=st.integers(0, 2**20)),
        st.builds(InsertOp, data=st.binary(max_size=24)),
    ),
    max_size=8,
)


@st.composite
def patches(draw) -> Patch:
    drawn = tuple(draw(ops))
    target_len = sum(op.length for op in drawn)
    return Patch(ops=drawn, target_len=target_len, base_len=draw(st.integers(0, U32)))


@st.composite
def headed_blobs(draw) -> bytes:
    """A valid header (any lengths and op count) over random op bytes."""
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        draw(st.sampled_from([0, 0, 1])),
        draw(st.integers(0, 64)),
        draw(st.integers(0, U32)),
        draw(st.integers(0, 4)),
    )
    return header + draw(st.binary(max_size=64))


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


@given(patches(), st.binary(min_size=1, max_size=16))
@example(Patch(ops=(InsertOp(data=b"ab"),), target_len=2, base_len=0), b"\x00junk")
def test_extended_patches(patch, tail):
    with pytest.raises(ValueError):
        deserialize(serialize(patch) + tail)


@given(patches(), st.data())
def test_patches_with_one_byte_flipped(patch, data):
    blob = bytearray(serialize(patch))
    at = data.draw(st.integers(0, len(blob) - 1))
    blob[at] ^= data.draw(st.integers(1, 255))
    decodes_canonically_or_rejects(bytes(blob))
