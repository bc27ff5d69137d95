"""Tests for the binary delta codec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._util import rng_for
from repro.memory.patch import (
    _MATCH_FIRST_SLICE,
    _MATCH_SLICE_GROWTH,
    CopyOp,
    InsertOp,
    Patch,
    _back_match_len,
    _match_len,
    apply_patch,
    compute_patch,
)


def random_bytes(tag: str, n: int) -> bytes:
    return rng_for("patch-test", tag).integers(0, 256, size=n, dtype=np.uint8).tobytes()


class TestRoundTrip:
    def test_identical_buffers(self):
        base = random_bytes("a", 4096)
        patch = compute_patch(base, base)
        assert apply_patch(patch, base) == base
        assert patch.size_bytes < 64

    def test_single_byte_change(self):
        base = bytearray(random_bytes("b", 4096))
        target = bytes(base)
        base[100] ^= 0xFF
        patch = compute_patch(target, bytes(base))
        assert apply_patch(patch, bytes(base)) == target
        assert patch.size_bytes < 128

    def test_unrelated_buffers(self):
        base = random_bytes("c", 4096)
        target = random_bytes("d", 4096)
        patch = compute_patch(target, base)
        assert apply_patch(patch, base) == target
        # Degenerates to roughly one big insert.
        assert patch.size_bytes >= 4096

    def test_shifted_content_found_by_anchors(self):
        base = random_bytes("e", 4096)
        target = base[128:] + base[:128]  # rotation
        patch = compute_patch(target, base)
        assert apply_patch(patch, base) == target
        assert patch.size_bytes < 1024

    def test_different_lengths(self):
        base = random_bytes("f", 4096)
        target = base[:1000] + random_bytes("g", 200) + base[2000:]
        patch = compute_patch(target, base)
        assert apply_patch(patch, base) == target
        assert patch.size_bytes < len(target) // 2

    def test_empty_target(self):
        base = random_bytes("h", 512)
        patch = compute_patch(b"", base)
        assert apply_patch(patch, base) == b""

    def test_empty_base(self):
        target = random_bytes("i", 512)
        patch = compute_patch(target, b"")
        assert apply_patch(patch, b"") == target

    def test_numpy_inputs(self):
        base = np.frombuffer(random_bytes("j", 2048), dtype=np.uint8)
        target = base.copy()
        target.setflags(write=True)
        target[10:20] = 0
        patch = compute_patch(target, base)
        assert apply_patch(patch, base) == target.tobytes()

    @given(st.data())
    def test_property_roundtrip(self, data):
        base = data.draw(st.binary(min_size=0, max_size=2048))
        strategy = data.draw(st.sampled_from(["mutate", "unrelated", "subset"]))
        if strategy == "mutate" and base:
            target = bytearray(base)
            for _ in range(data.draw(st.integers(0, 10))):
                pos = data.draw(st.integers(0, len(base) - 1))
                target[pos] = data.draw(st.integers(0, 255))
            target = bytes(target)
        elif strategy == "subset" and len(base) > 10:
            lo = data.draw(st.integers(0, len(base) // 2))
            hi = data.draw(st.integers(lo, len(base)))
            target = base[lo:hi] * 2
        else:
            target = data.draw(st.binary(min_size=0, max_size=2048))
        patch = compute_patch(target, base)
        assert apply_patch(patch, base) == target


class TestSerialization:
    def _sample_patch(self) -> tuple[Patch, bytes]:
        base = random_bytes("s", 4096)
        target = bytearray(base)
        target[500:600] = random_bytes("t", 100)
        patch = compute_patch(bytes(target), base)
        return patch, base

    def test_serialize_roundtrip(self):
        patch, base = self._sample_patch()
        decoded = Patch.deserialize(patch.serialize())
        assert decoded == patch
        assert apply_patch(decoded, base) == apply_patch(patch, base)

    def test_size_bytes_matches_encoding(self):
        patch, _ = self._sample_patch()
        assert patch.size_bytes == len(patch.serialize())

    def test_size_bytes_is_set_at_construction_and_ignored_by_eq(self):
        patch, _ = self._sample_patch()
        assert vars(patch)["size_bytes"] == len(patch.serialize())
        rebuilt = Patch(ops=patch.ops, target_len=patch.target_len, base_len=patch.base_len)
        assert rebuilt == patch and rebuilt.size_bytes == patch.size_bytes
        assert "size_bytes" not in repr(patch)
        assert Patch(ops=(), target_len=0, base_len=7).size_bytes == len(
            Patch(ops=(), target_len=0, base_len=7).serialize()
        )

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            Patch.deserialize(b"garbage-bytes-here")

    def test_copied_plus_literal_equals_target(self):
        patch, _ = self._sample_patch()
        assert patch.copied_bytes + patch.literal_bytes == patch.target_len


class TestDeserializeHardening:
    """Malformed blobs must raise ValueError, never struct.error/IndexError."""

    def _multi_op_blob(self) -> bytes:
        patch = Patch(
            ops=(
                CopyOp(src_off=0, length=100),
                InsertOp(data=b"x" * 40),
                CopyOp(src_off=200, length=60),
            ),
            target_len=200,
            base_len=4096,
        )
        return patch.serialize()

    def test_truncation_at_every_boundary(self):
        blob = self._multi_op_blob()
        assert Patch.deserialize(blob).target_len == 200  # sanity
        for cut in range(len(blob)):
            with pytest.raises(ValueError):
                Patch.deserialize(blob[:cut])

    def test_bad_magic(self):
        blob = bytearray(self._multi_op_blob())
        blob[0] ^= 0xFF
        with pytest.raises(ValueError, match="not a valid patch blob"):
            Patch.deserialize(bytes(blob))

    def test_bad_version(self):
        blob = bytearray(self._multi_op_blob())
        blob[2] += 1  # version byte follows the 2-byte magic
        with pytest.raises(ValueError, match="not a valid patch blob"):
            Patch.deserialize(bytes(blob))

    def test_unknown_op_tag(self):
        from repro.memory.patch import _HEADER

        blob = bytearray(self._multi_op_blob())
        blob[_HEADER.size] = 0x7F  # first op's tag byte
        with pytest.raises(ValueError, match="unknown op tag"):
            Patch.deserialize(bytes(blob))

    def test_inconsistent_target_len(self):
        from repro.memory.patch import _HEADER, _MAGIC, _VERSION

        blob = _HEADER.pack(_MAGIC, _VERSION, 0, 999, 0, 0)
        with pytest.raises(ValueError, match="inconsistent patch blob"):
            Patch.deserialize(blob)

    def test_trailing_garbage_ignored_ops_still_validated(self):
        # Extra bytes past the declared op list do not crash the decoder.
        blob = self._multi_op_blob() + b"\x00\x01\x02"
        assert Patch.deserialize(blob[: len(blob) - 3]).target_len == 200


class TestValidation:
    def test_ops_must_produce_target_len(self):
        with pytest.raises(ValueError):
            Patch(ops=(InsertOp(data=b"abc"),), target_len=5, base_len=0)

    def test_apply_rejects_wrong_base_length(self):
        patch = Patch(ops=(CopyOp(src_off=0, length=4),), target_len=4, base_len=4)
        with pytest.raises(ValueError, match="base length"):
            apply_patch(patch, b"too-long-base")

    def test_apply_rejects_out_of_bounds_copy(self):
        patch = Patch(ops=(CopyOp(src_off=2, length=4),), target_len=4, base_len=4)
        with pytest.raises(ValueError, match="bounds"):
            apply_patch(patch, b"abcd")

    def test_compute_rejects_non_uint8_array(self):
        with pytest.raises(ValueError):
            compute_patch(np.zeros(4, dtype=np.int32), b"abcd")


class TestPatchQuality:
    def test_similar_pages_much_smaller_than_page(self, linalg_profile):
        """The dedup premise: same-function pages patch down to ~nothing."""
        a = linalg_profile.synthesize(1, content_scale=1 / 256)
        b = linalg_profile.synthesize(2, content_scale=1 / 256)
        sizes = []
        for i in range(min(a.num_pages, b.num_pages)):
            patch = compute_patch(b.page(i), a.page(i))
            assert apply_patch(patch, a.page(i)) == b.page_bytes(i)
            sizes.append(patch.size_bytes)
        assert np.mean(sizes) < 0.2 * a.page_size

    def test_level_two_at_least_as_small_on_shifts(self):
        base = random_bytes("lvl", 4096)
        target = base[40:] + base[:40]  # awkward non-multiple-of-8 shift
        level1 = compute_patch(target, base, level=1)
        level2 = compute_patch(target, base, level=2)
        assert apply_patch(level2, base) == target
        assert level2.size_bytes <= level1.size_bytes


class TestMatchLen:
    """``_match_len`` compares in growing slices; the scalar oracle of
    the equivalence properties shares it, so it is pinned here against
    the definition itself."""

    def test_mismatch_at_every_slice_boundary(self):
        size = 100_000
        a = np.frombuffer(random_bytes("match-len", size), dtype=np.uint8)
        boundaries, edge, width = [], 0, _MATCH_FIRST_SLICE
        while edge + width < size:
            edge, width = edge + width, width * _MATCH_SLICE_GROWTH
            boundaries.append(edge)
        assert len(boundaries) >= 3  # 4096, 20480, 86016
        for at in {0, 1, size - 1, *(b + d for b in boundaries for d in (-1, 0, 1))}:
            b = a.copy()
            b[at] ^= 0x01
            assert _match_len(a, b) == at
            # A later mismatch must not hide the first one.
            b[size - 1] ^= 0x02
            assert _match_len(a, b) == at

    def test_common_prefix_is_capped_by_the_shorter_buffer(self):
        a = np.frombuffer(random_bytes("match-len", 30_000), dtype=np.uint8)
        assert _match_len(a, a.copy()) == len(a)
        for shorter in (0, 1, 4095, 4096, 4097, 20_480, 29_999):
            assert _match_len(a, a[:shorter]) == shorter
            assert _match_len(a[:shorter], a) == shorter


class TestBackMatchLen:
    """``_back_match_len`` walks the same slices backwards from the match
    point; pinned against the definition (a byte-by-byte suffix scan)."""

    @staticmethod
    def _suffix_len(target, base, i, src, limit):
        back = 0
        while back < min(limit, src) and target[i - back - 1] == base[src - back - 1]:
            back += 1
        return back

    def test_mismatch_at_every_slice_boundary(self):
        size = 100_000
        a = np.frombuffer(random_bytes("back-match-len", size), dtype=np.uint8)
        boundaries, edge, width = [], 0, _MATCH_FIRST_SLICE
        while edge + width < size:
            edge, width = edge + width, width * _MATCH_SLICE_GROWTH
            boundaries.append(edge)
        assert len(boundaries) >= 3
        # ``back`` equal bytes before the match point, then a mismatch.
        for back in {0, 1, size - 1, *(b + d for b in boundaries for d in (-1, 0, 1))}:
            b = a.copy()
            b[size - 1 - back] ^= 0x01
            assert _back_match_len(a, b, size, size, size) == back
            # An earlier mismatch must not hide the nearest one.
            b[0] ^= 0x02
            assert _back_match_len(a, b, size, size, size) == back

    def test_extension_is_capped_by_limit_and_by_the_base_start(self):
        a = np.frombuffer(random_bytes("back-match-len", 30_000), dtype=np.uint8)
        same = a.copy()
        for cap in (0, 1, 4095, 4096, 4097, 20_480, 29_999, 30_000):
            assert _back_match_len(a, same, 30_000, 30_000, cap) == cap  # limit binds
            assert _back_match_len(a, same[30_000 - cap :], 30_000, cap, 30_000) == cap  # src binds

    def test_matches_the_definition_at_unequal_offsets(self):
        rng = rng_for("patch-test", "back-match-offsets")
        base = rng.integers(0, 4, size=20_000, dtype=np.uint8)
        target = np.concatenate([rng.integers(0, 4, size=37, dtype=np.uint8), base[:19_000]])
        for i, src, limit in ((19_037, 19_000, 19_037), (9_000, 8_963, 5_000), (5_000, 4_000, 300)):
            assert _back_match_len(target, base, i, src, limit) == self._suffix_len(
                target, base, i, src, limit
            )
