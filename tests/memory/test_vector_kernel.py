"""Equivalence properties of the vectorized fingerprint/anchor kernels.

Every batch kernel of the VectorCDC-style rewrite is pinned against its
scalar oracle here: segmented greedy thinning vs ``enforce_spacing``,
gathered chunk hashing vs ``page_fingerprint``, and the batched anchor
fallback vs ``compute_patch_reference`` (duplicate-heavy page- and
region-sized inputs included) — across page sizes, marker densities,
ASLR'd synthetic images and sampling strategies.  Digests wider than
the registry's ``uint64`` column are refused by the config itself.
The copy-saving bound that lets
``compute_patches(max_size=...)`` skip the anchor matcher is pinned
against the scalar matcher's actual patches, and the matcher's windowed
probes against the window-by-window scan on template-region-sized pairs.
The scalar oracles live in ``tests/oracles/patch_scalar.py``.
"""

from __future__ import annotations

import struct
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro._util import MIB, gather_chunks, hash_bytes, hash_rows_sha1
from repro.memory.chunks import (
    MARKER_MASK,
    MARKER_VALUE,
    batch_enforce_spacing,
    batch_marker_ends,
    enforce_spacing,
    marker_positions,
)
from repro.memory.fingerprint import (
    DEFAULT_CARDINALITY,
    FingerprintConfig,
    SamplingStrategy,
    batch_fingerprint_arrays,
    batch_page_fingerprints,
    fingerprints_from_arrays,
    page_fingerprint,
)
from repro.memory.image import synthesize_image
from repro.memory import patch as patch_module
from repro.memory.layout import standard_layout
from repro.memory.patch import (
    ANCHOR_SIZE,
    MIN_ANCHOR_MATCH,
    AnchorIndex,
    Patch,
    apply_patch,
    build_anchor_index,
    compute_patches,
)
from tests.oracles.patch_scalar import (
    _aligned_ops_scalar,
    _anchor_ops_scalar,
    compute_patch_reference,
)
from tests.oracles.patch_wire import CopyOp, InsertOp, OpPatch, deserialize, serialize


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


@st.composite
def page_buffers(draw) -> tuple[int, np.ndarray]:
    """A flat multi-page buffer with tunable marker density."""
    page_size = draw(st.sampled_from([64, 128, 256, 512]))
    num_pages = draw(st.integers(min_value=0, max_value=6))
    seed = draw(st.integers(0, 2**32 - 1))
    marker_rich = draw(st.booleans())
    rng = _rng(seed)
    if marker_rich:
        # Heavy marker density (runs of the marker byte included), so spacing and
        # cardinality caps actually bind.
        alphabet = np.array([0, 1, MARKER_VALUE, MARKER_VALUE], dtype=np.uint8)
        data = rng.choice(alphabet, size=page_size * num_pages)
    else:
        data = rng.integers(0, 256, size=page_size * num_pages, dtype=np.uint8)
    return page_size, data


@st.composite
def fp_configs(draw) -> FingerprintConfig:
    return FingerprintConfig(
        chunk_size=draw(st.sampled_from([8, 16, 64])),
        cardinality=draw(st.sampled_from([1, 3, DEFAULT_CARDINALITY])),
        digest_bits=draw(st.sampled_from([16, 64])),
        strategy=draw(st.sampled_from(list(SamplingStrategy))),
    )


class TestMarkerScan:
    @given(page_buffers(), st.integers(min_value=1, max_value=70))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_page_scan(self, buf, min_position):
        page_size, data = buf
        got = batch_marker_ends(data, page_size, min_position=min_position)
        expected = [
            base
            + marker_positions(
                data[base : base + page_size],
                mask=MARKER_MASK,
                value=MARKER_VALUE,
                min_position=min_position,
            )
            for base in range(0, len(data), page_size)
        ]
        np.testing.assert_array_equal(
            got, np.concatenate(expected) if expected else np.empty(0, dtype=np.int64)
        )

    def test_rejects_page_start(self):
        with pytest.raises(ValueError, match="min_position"):
            batch_marker_ends(np.zeros(64, dtype=np.uint8), 64, min_position=0)


def _marked(page_size: int, num_pages: int, *offsets: int) -> tuple[int, np.ndarray]:
    """A zeroed buffer with a marker byte at each absolute offset."""
    data = np.zeros(page_size * num_pages, dtype=np.uint8)
    data[list(offsets)] = MARKER_VALUE
    return page_size, data


class TestSegmentedThinning:
    @given(
        page_buffers(),
        st.integers(min_value=1, max_value=6),
        st.sampled_from([4, 8, 16, 64]),
    )
    @settings(max_examples=80, deadline=None)
    # Hits exactly ``spacing`` apart: each is its predecessor's successor.
    @example(_marked(64, 1, 10, 18, 26, 34), 5, 8)
    # The first hit's ``+ spacing`` lands on the next page: no successor.
    @example(_marked(64, 2, 60, 84, 100), 5, 16)
    # More hits on one page than ``cap``.
    @example(_marked(64, 1, 8, 16, 24, 32, 40, 48, 56), 3, 8)
    # Empty pages between the pages with hits.
    @example(_marked(64, 4, 20, 40, 200, 230), 2, 16)
    # A single hit in the whole buffer.
    @example(_marked(128, 3, 130), 5, 4)
    # A hit at the last legal offset, after one within ``spacing`` of it.
    @example(_marked(64, 2, 60, 63, 127), 5, 4)
    def test_matches_per_page_enforce_spacing(self, buf, cap, spacing):
        page_size, data = buf
        num_pages = len(data) // page_size
        hits = batch_marker_ends(data, page_size, min_position=spacing - 1)
        kept = batch_enforce_spacing(hits, page_size, spacing, cap=cap)
        pages = hits // page_size
        expected = [
            enforce_spacing(hits[pages == page], spacing, cap=cap) for page in range(num_pages)
        ]
        flat = (
            np.concatenate(expected) if expected else np.empty(0, dtype=np.int64)
        )
        np.testing.assert_array_equal(kept, flat)

    def test_rejects_bad_args(self):
        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(ValueError):
            batch_enforce_spacing(empty, 64, 0, cap=5)
        with pytest.raises(ValueError):
            batch_enforce_spacing(empty, 64, 8, cap=0)


class TestBatchFingerprintEquivalence:
    @given(page_buffers(), fp_configs())
    @settings(max_examples=80, deadline=None)
    def test_matches_page_oracle(self, buf, cfg):
        page_size, data = buf
        got = batch_page_fingerprints(data, page_size, cfg)
        pages = data.reshape(-1, page_size)
        expected = [page_fingerprint(page, cfg) for page in pages]
        assert got == expected

    @given(page_buffers(), fp_configs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_page_subset_matches_full(self, buf, cfg, seed):
        page_size, data = buf
        num_pages = len(data) // page_size
        mask = _rng(seed).random(num_pages) < 0.5
        subset = np.flatnonzero(mask)
        got = batch_page_fingerprints(data, page_size, cfg, pages=subset)
        full = batch_page_fingerprints(data, page_size, cfg)
        assert got == [full[i] for i in subset.tolist()]

    def test_flat_arrays_round_trip(self):
        data = _rng(11).integers(0, 256, size=8 * 4096, dtype=np.uint8)
        digests, offsets, counts = batch_fingerprint_arrays(data, 4096)
        assert digests.dtype == np.uint64
        assert int(counts.sum()) == len(digests) == len(offsets)
        assert fingerprints_from_arrays(digests, offsets, counts) == (
            batch_page_fingerprints(data, 4096)
        )

    def test_flat_arrays_reject_wide_digests(self):
        # The arrays are uint64: a wider config cannot be built at all.
        with pytest.raises(ValueError, match="digest_bits"):
            FingerprintConfig(digest_bits=65)

    @pytest.mark.parametrize("aslr", [False, True])
    def test_synthetic_image_matches_oracle(self, aslr):
        layout = standard_layout("LinAlg", ("numpy",), 32 * MIB)
        image = synthesize_image(layout, 128 * 1024, instance_seed=3, aslr=aslr)
        cfg = FingerprintConfig()
        got = batch_page_fingerprints(image.data, image.page_size, cfg)
        expected = [page_fingerprint(page, cfg) for _, page in image.iter_pages()]
        assert got == expected


class TestGatheredChunkDigests:
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 8, 63, 64]))
    @settings(max_examples=40, deadline=None)
    def test_gathered_rows_match_scalar_digests(self, seed, bits):
        # Overlapping, unaligned chunks at arbitrary starts: the gather
        # plus row hash is the per-chunk truncated SHA-1 at every width.
        rng = _rng(seed)
        data = rng.integers(0, 256, size=1024, dtype=np.uint8)
        chunk_size = 16
        starts = np.sort(rng.integers(0, len(data) - chunk_size + 1, size=40))
        got = hash_rows_sha1(gather_chunks(data, starts, chunk_size), bits)
        raw = data.tobytes()
        assert got.tolist() == [
            hash_bytes(raw[off : off + chunk_size], bits) for off in starts.tolist()
        ]


class TestBatchedAnchorProbes:
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]))
    @settings(max_examples=25, deadline=None)
    def test_fallback_patches_match_reference(self, seed, level):
        # A batch mixing aligned-good pairs with shifted pairs that force
        # the anchor fallback must stay byte-identical to the scalar
        # per-pair reference.
        rng = _rng(seed)
        n = 512
        base = rng.integers(0, 256, size=n, dtype=np.uint8)
        shift = int(rng.integers(1, 64))
        shifted = np.roll(base, shift)
        near = base.copy()
        near[10:20] = rng.integers(0, 256, size=10, dtype=np.uint8)
        unrelated = rng.integers(0, 256, size=n, dtype=np.uint8)
        targets = [shifted, near, unrelated, base.copy()]
        bases = [base, base, base, base]
        got = compute_patches(targets, bases, level=level)
        expected = [
            compute_patch_reference(t, b, level=level)
            for t, b in zip(targets, bases)
        ]
        assert got == expected


@st.composite
def duplicate_heavy_pairs(
    draw, sizes=(4096, 8192, 20480, 49152)
) -> tuple[np.ndarray, np.ndarray]:
    """A (target, base) pair whose anchor index repeats key halves.

    Bases are periodic (period 1-40), drawn from a <=2-symbol alphabet,
    or random with long zero runs, at page size and at template-region
    sizes; the target is the base under two different shifts with a few
    bytes overwritten, optionally of another length.
    """
    n = draw(st.sampled_from(sizes))
    rng = _rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["periodic", "two_symbol", "zero_runs"]))
    if kind == "periodic":
        period = draw(st.integers(min_value=1, max_value=40))
        motif = rng.integers(0, 256, size=period, dtype=np.uint8)
        base = np.tile(motif, n // period + 1)[:n].copy()
        # Break the period in a few places, or every window is one key.
        for at in rng.integers(0, n, size=draw(st.integers(0, 12))).tolist():
            base[at] ^= 0x5A
    elif kind == "two_symbol":
        symbols = rng.integers(0, 256, size=draw(st.integers(1, 2)), dtype=np.uint8)
        base = rng.choice(symbols, size=n)
        # Long single-symbol stretches make the repeated windows.
        for at in rng.integers(0, n, size=8).tolist():
            base[at : at + int(rng.integers(16, 400))] = symbols[0]
    else:
        base = rng.integers(0, 256, size=n, dtype=np.uint8)
        for at in rng.integers(0, n, size=12).tolist():
            base[at : at + int(rng.integers(8, 600))] = 0
    split = int(rng.integers(n // 4, 3 * n // 4))
    first, second = (int(x) for x in rng.integers(1, 97, size=2))
    target = np.concatenate(
        [np.roll(base, first)[:split], np.roll(base, -second)[split:]]
    )
    for at in rng.integers(0, n, size=draw(st.integers(0, 6))).tolist():
        target[at : at + 5] = rng.integers(0, 256, size=len(target[at : at + 5]))
    if draw(st.booleans()):  # unequal lengths: anchor matching only
        target = target[: n - int(rng.integers(1, 300))]
    return target, base


def _first_one_to_one(windows, multipliers) -> int:
    """The first of ``multipliers`` under which no two distinct windows
    share a key ``a * M ^ b`` (uint64), else the last one."""
    for multiplier in multipliers:
        keys: dict[int, bytes] = {}
        for window in windows:
            a, b = (int.from_bytes(half, "little") for half in (window[:8], window[8:]))
            if keys.setdefault(a * multiplier % 2**64 ^ b, window) != window:
                break
        else:
            return multiplier
    return multipliers[-1]


class TestDuplicateHeavyAnchorMatching:
    @given(duplicate_heavy_pairs(), st.sampled_from([1, 2]))
    @settings(max_examples=60, deadline=None)
    def test_patches_match_reference_and_round_trip(self, pair, level):
        target, base = pair
        # Indexed and index-free: a prebuilt index must change nothing.
        index = build_anchor_index(base, level)
        for provider in (None, lambda j: index):
            (got,) = compute_patches(
                [target], [base], level=level, index_provider=provider
            )
            assert got == compute_patch_reference(target, base, level=level)
            assert apply_patch(got, base) == target.tobytes()

    @pytest.mark.parametrize("level", [1, 2])
    def test_probe_sweep_search_count_is_independent_of_hits(self, level):
        """Tripwire for the per-candidate ``searchsorted`` loop.

        One probe sweep over a 32 KiB low-entropy pair whose index
        repeats ``a`` halves must make exactly one ``searchsorted``
        call whether it returns a handful of candidates or thousands.
        """
        rng = _rng(3)
        n = 32768
        base = rng.choice(np.array([0, 0, 0, 7], dtype=np.uint8), size=n)
        index = build_anchor_index(base, level)
        halves = index.anchors.a
        assert len(np.unique(halves)) < len(halves)  # the index's ``a`` halves repeat
        stride = 8 if level == 1 else 1
        rich = np.roll(base, 24).tobytes()  # every probed window is indexed
        poor = rng.integers(0, 256, size=n, dtype=np.uint8)
        poor[1000:1400] = base[200:600]
        poor = poor.tobytes()

        searches = []

        def profiler(frame, event, arg):
            # ``np.searchsorted`` bottoms out in the ndarray method, so
            # C-call events see both spellings.
            if event == "c_call" and arg.__name__ == "searchsorted":
                searches.append(arg)

        counts = {}
        for name, target_bytes in (("rich", rich), ("poor", poor)):
            del searches[:]
            sys.setprofile(profiler)
            try:
                positions, _ = index.probe(target_bytes, 0, stride)
            finally:
                sys.setprofile(None)
            counts[name] = (len(searches), len(positions))
        assert counts["rich"][1] > 20 * max(1, counts["poor"][1])
        assert counts["rich"][1] > 1000
        assert counts["rich"][0] == counts["poor"][0] == 1, counts

    @given(duplicate_heavy_pairs(), st.sampled_from([1, 2]))
    @settings(max_examples=30, deadline=None)
    def test_a_key_collision_moves_the_index_to_the_next_multiplier(self, pair, level):
        """With a first multiplier of 0 every window is keyed by its
        ``b`` half alone, so two windows with equal ``b`` and different
        ``a`` collide: the index takes the next multiplier, and its
        probes and patches are the scalar oracle's.  With 0 the only
        multiplier, the colliding windows keep their first: what is
        indexed probes exactly and every patch still round-trips."""
        target, base = pair
        step, stride = (8, 8) if level == 1 else (4, 1)
        base_bytes, target_bytes = base.tobytes(), target.tobytes()
        windows: dict[bytes, int] = {}
        for off in range(0, len(base_bytes) - ANCHOR_SIZE + 1, step):
            windows.setdefault(base_bytes[off : off + ANCHOR_SIZE], off)
        halves = {}
        for window in windows:
            halves.setdefault(window[8:], set()).add(window[:8])
        assume(max(map(len, halves.values())) > 1)  # ``b`` alone collides
        expected = [
            (at, windows[target_bytes[at : at + ANCHOR_SIZE]])
            for at in range(0, len(target_bytes) - ANCHOR_SIZE + 1, stride)
            if target_bytes[at : at + ANCHOR_SIZE] in windows
        ]
        multipliers = patch_module._KEY_MULTIPLIERS
        for first_only in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(
                    patch_module, "_KEY_MULTIPLIERS", (0,) if first_only else (0, *multipliers)
                )
                index = build_anchor_index(base, level)
                positions, srcs = index.probe(target_bytes, 0, stride)
                (got,) = compute_patches(
                    [target], [base], level=level, index_provider=lambda j: index
                )
            hits = list(zip(positions.tolist(), srcs.tolist()))
            assert apply_patch(got, base) == target.tobytes()
            if first_only:
                assert set(hits) <= set(expected)
            else:
                assert int(index.anchors.multiplier) == _first_one_to_one(
                    windows, (0, *multipliers)
                )
                assert hits == expected
                assert got == compute_patch_reference(target, base, level=level)


#: Buffer sizes the copy-coverage bound is exercised at (one of them
#: not a whole number of 8-byte words).
BOUND_SIZES = (1024, 2048, 4096, 4100, 8192)


@st.composite
def planted_copy_pairs(draw) -> tuple[np.ndarray, np.ndarray]:
    """A random target with stretches of a random base planted in it.

    Lengths straddle the matcher's minimum and both offsets are
    arbitrary, so COPYs start at every residue mod 8 — the worst case
    for a bound counted in aligned words.
    """
    n = draw(st.sampled_from(BOUND_SIZES))
    rng = _rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.integers(0, 256, size=n, dtype=np.uint8)
    target = rng.integers(0, 256, size=n, dtype=np.uint8)
    for _ in range(draw(st.integers(0, 12))):
        length = int(rng.integers(ANCHOR_SIZE, 300))
        src, dst = (int(x) for x in rng.integers(0, n - length, size=2))
        target[dst : dst + length] = base[src : src + length]
    return target, base


@st.composite
def spliced_pairs(draw) -> tuple[np.ndarray, np.ndarray]:
    """A target spliced end to end from stretches of a random base.

    Neighbouring COPYs meet inside a word with no literal between them:
    the case in which the bound's INSERT header per pair of neighbouring
    runs is closest to what the patch pays.
    """
    n = draw(st.sampled_from(BOUND_SIZES))
    rng = _rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.integers(0, 256, size=n, dtype=np.uint8)
    target = np.empty(n, dtype=np.uint8)
    at = 0
    while at < n:
        length = min(int(rng.integers(MIN_ANCHOR_MATCH, 64)), n - at)
        src = int(rng.integers(0, n - length + 1))
        target[at : at + length] = base[src : src + length]
        at += length
    return target, base


bound_pairs = st.one_of(
    duplicate_heavy_pairs(sizes=BOUND_SIZES), planted_copy_pairs(), spliced_pairs()
)


def _scalar_anchor_patch(target: np.ndarray, base: np.ndarray, level: int) -> Patch:
    ops = _anchor_ops_scalar(target, base, level)
    return Patch(serialize(OpPatch(ops=tuple(ops), target_len=len(target), base_len=len(base))))


#: Wire bytes of a COPY record (tag, source offset, length) and of an
#: INSERT header (tag, length).
COPY_RECORD = struct.calcsize("<BII")
INSERT_HEADER = struct.calcsize("<BI")


def _copy_bound_constants(min_match: int) -> tuple[int, int]:
    """The bound's constants as the module must derive them."""
    words = (max(min_match, ANCHOR_SIZE) - 7) // 8
    return words, 8 * (words - 1) + 14


def _saving(patch: Patch) -> int:
    """What a one-COPY patch saves, as the bound counts it: the bytes it
    copies less its COPY record."""
    ops = deserialize(patch.blob).ops
    assert sum(isinstance(op, CopyOp) for op in ops) == 1
    return patch.copied_bytes - COPY_RECORD


class TestCopyCoverageBound:
    @given(bound_pairs, st.sampled_from([1, 2]))
    @settings(max_examples=120, deadline=None)
    def test_bound_covers_the_scalar_matchers_copies(self, pair, level):
        """The bound is on what a patch saves against the bare target: no
        patch the scalar matcher writes is under the floor it sets."""
        target, base = pair
        scalar = _scalar_anchor_patch(target, base, level)
        bound = build_anchor_index(base, level).copy_bound(target)
        assert len(target) + patch_module._HEADER.size - bound <= scalar.size_bytes

    def test_constants_are_derived_from_the_matchers(self):
        words, slack = _copy_bound_constants(MIN_ANCHOR_MATCH)
        assert words >= 1, "a COPY must contain a whole aligned word"
        assert (patch_module._COPY_MIN_WORDS, patch_module._COPY_RUN_SLACK) == (words, slack)
        assert (patch_module._COPY.size, patch_module._INSERT_HDR.size) == (
            COPY_RECORD,
            INSERT_HEADER,
        )

    @pytest.mark.parametrize("min_match", [ANCHOR_SIZE, MIN_ANCHOR_MATCH, 32, 41])
    def test_shortest_copy_is_covered_wherever_it_starts(self, monkeypatch, min_match):
        """The bound must follow ``MIN_ANCHOR_MATCH`` and the COPY record.

        At every target residue mod 8, the shortest COPY the matcher can
        emit is planted mid-target, and the longest one with no more
        whole aligned words at the target's end, which lies 7 bytes past
        its last whole word (7 bytes either side of the words is the
        bound's tight case).  The target's other bytes are one value the
        base never holds, so the scalar matcher copies exactly the plant
        and no other target word is in the base (only a false hit of the
        word table could find one).  The bound covers
        what each saves — for the shipped constant and for lowered/raised
        ones once the bound's constants are re-derived.  With the matcher
        lowered and the bound's constants left behind, the same pairs
        break the bound; so does a bound that charges a COPY record more
        than its ``COPY_RECORD`` bytes.
        """
        shipped = (patch_module._COPY_MIN_WORDS, patch_module._COPY_RUN_SLACK)
        monkeypatch.setattr(patch_module, "MIN_ANCHOR_MATCH", min_match)
        shortest = max(min_match, ANCHOR_SIZE)
        words, slack = _copy_bound_constants(min_match)
        rng = _rng(min_match)
        n = 1023
        pairs = []
        for residue in range(8):
            longest = (-residue) % 8 + 8 * words + 7
            for length, dst in ((shortest, 200 + residue), (longest, n - longest)):
                if length >= shortest:
                    base = rng.integers(0, 0xFF, size=n, dtype=np.uint8)
                    target = np.full(n, 0xFF, dtype=np.uint8)
                    target[dst : dst + length] = base[512 : 512 + length]
                    pairs.append((target, base, length))

        def room() -> list[int]:
            """The bound less what the scalar matcher saves, by pair."""
            left = []
            for target, base, length in pairs:
                scalar = _scalar_anchor_patch(target, base, 2)
                assert scalar.copied_bytes == length
                left.append(build_anchor_index(base, 2).copy_bound(target) - _saving(scalar))
            return left

        monkeypatch.setattr(patch_module, "_COPY_MIN_WORDS", words)
        monkeypatch.setattr(patch_module, "_COPY_RUN_SLACK", slack)
        assert min(room()) == 0  # covered, and tight at residue 1
        if (words, slack) < shipped:
            monkeypatch.setattr(patch_module, "_COPY_MIN_WORDS", shipped[0])
            monkeypatch.setattr(patch_module, "_COPY_RUN_SLACK", shipped[1])
            assert min(room()) < 0

    @given(bound_pairs, st.sampled_from([1, 2]))
    @settings(max_examples=80, deadline=None)
    def test_kept_patches_are_unchanged_by_the_cutoff(self, pair, level):
        target, base = pair
        n = len(target)
        reference = compute_patch_reference(target, base, level=level)
        index = build_anchor_index(base, level)
        for provider in (None, lambda j: index):
            (uncut,) = compute_patches([target], [base], level=level, index_provider=provider)
            assert uncut == reference
            # Below the aligned-fallback threshold, mid-page, the agent's
            # unique cap, and above the one-INSERT literal's n + 21.
            for cutoff in (n // 10, n // 2, 3 * n // 4, n + 22):
                (got,) = compute_patches(
                    [target], [base], level=level, index_provider=provider, max_size=cutoff
                )
                assert apply_patch(got, base) == target.tobytes()
                if len(target) != len(base) or got.size_bytes < cutoff:
                    assert got == reference
                else:
                    assert reference.size_bytes >= cutoff

    def test_discarded_page_is_never_probed_and_filter_is_built_once(
        self, monkeypatch, codec_calls
    ):
        rng = _rng(9)
        base = rng.integers(0, 256, size=4096, dtype=np.uint8)
        index = AnchorIndex(base, 1)  # as a cache hands it out: no half built
        probes = []
        real_probe = AnchorIndex.probe
        monkeypatch.setattr(
            AnchorIndex, "probe", lambda self, *a: probes.append(a) or real_probe(self, *a)
        )
        for _ in range(2):  # two ops against one cached base
            unrelated = rng.integers(0, 256, size=4096, dtype=np.uint8)
            (got,) = compute_patches(
                [unrelated], [base], level=1, index_provider=lambda j: index, max_size=3072
            )
            assert got.size_bytes >= 3072
            assert apply_patch(got, base) == unrelated.tobytes()
        assert not probes
        # Dense rows: dismissed on their differing-byte count and the
        # bound, so no run is extracted and the base is never sorted.
        assert codec_calls == {
            "run_rows": 0, "bound": 2, "matcher": 0, "word_bits": 1, "sorted_halves": 0,
            "probed": 0,
        }
        assert index.anchors is None and index.word_bits is not None
        # The same page without a cutoff does go through the matcher.
        compute_patches([unrelated], [base], level=1, index_provider=lambda j: index)
        assert probes
        # One window holds the page: residue 0 at every position a
        # window fits, and no hit sends the scan to another residue.
        assert codec_calls == {
            "run_rows": 1, "bound": 2, "matcher": 1, "word_bits": 1, "sorted_halves": 1,
            "probed": (4096 - ANCHOR_SIZE) // 8 + 1,
        }


#: Row lengths the triage is exercised at: below an anchor, not a whole
#: number of words, a page, a page and a word, two pages.
TRIAGE_SIZES = (16, 24, 4096, 4104, 8192)


def _triage_row(rng, base: np.ndarray, kind: str) -> np.ndarray:
    """A target of ``base`` in one of the triage's row classes (roughly)."""
    n = len(base)
    target = base.copy()
    if kind == "sparse":  # a few short rewrites
        for at in rng.integers(0, n, size=int(rng.integers(1, 5))).tolist():
            target[at : at + 6] = rng.integers(0, 256, size=len(target[at : at + 6]))
    elif kind == "half":  # over the fallback threshold, under most cutoffs
        target[: n // 2] = rng.integers(0, 256, size=n // 2)
    elif kind == "shifted":  # dense by its byte count, yet an anchor patch is small
        target = np.roll(base, int(rng.integers(1, 40)))
    elif kind == "dense":
        target = rng.integers(0, 256, size=n, dtype=np.uint8)
    return target


@st.composite
def triage_batches(draw):
    n = draw(st.sampled_from(TRIAGE_SIZES))
    k = draw(st.integers(1, 64))
    rng = _rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(
        st.lists(
            st.sampled_from(["identical", "sparse", "half", "shifted", "dense"]),
            min_size=k,
            max_size=k,
        )
    )
    bases = [rng.integers(0, 256, size=n, dtype=np.uint8) for _ in range(k)]
    targets = [_triage_row(rng, base, kind) for base, kind in zip(bases, kinds)]
    return n, targets, bases


class TestRowTriage:
    """``compute_patches`` sorts rows by their count of differing bytes
    before it diffs them; the contract it keeps is today's."""

    @given(
        triage_batches(),
        st.sampled_from([1, 2]),
        st.sampled_from(["none", "fresh", "stale-level", "stale-length"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_batches_obey_the_per_pair_contract(self, batch, level, provider_kind):
        n, targets, bases = batch
        if provider_kind == "none":
            provider = None
        else:
            made = {}

            def provider(j):
                if j not in made:
                    if provider_kind == "fresh":
                        made[j] = AnchorIndex(bases[j], level)
                    elif provider_kind == "stale-level":
                        made[j] = AnchorIndex(bases[j], 3 - level)
                    else:
                        made[j] = AnchorIndex(bases[j][: n - 1], level)
                return made[j]

        reference = [
            patch_module.compute_patch(t, b, level=level) for t, b in zip(targets, bases)
        ]
        for cutoff in (None, n // 10, n // 2, 3 * n // 4, n + 22):
            got = compute_patches(
                targets, bases, level=level, index_provider=provider, max_size=cutoff
            )
            for patch, ref, target, base in zip(got, reference, targets, bases):
                assert apply_patch(patch, base) == target.tobytes()
                if cutoff is None or patch.size_bytes < cutoff:
                    assert patch == ref
                else:
                    assert ref.size_bytes >= cutoff

    @given(
        triage_batches(),
        st.sampled_from([1, 2]),
        st.sampled_from([3, None]),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_a_target_stack_patches_as_its_rows_do(
        self, batch, level, block_rows, base_stack, cut
    ):
        # The dedup agent hands its image rows as one (pairs, length)
        # stack and its bases as per-pair views (or a stack); blocks of 3
        # rows cross block edges inside one batch.
        n, targets, bases = batch
        cutoff = n // 2 if cut else None
        reference = compute_patches(targets, bases, level=level, max_size=cutoff)
        rows = np.stack(bases) if base_stack else bases
        with mock.patch.object(
            patch_module, "STACK_ROWS", block_rows or patch_module.STACK_ROWS
        ):
            got = compute_patches(np.stack(targets), rows, level=level, max_size=cutoff)
        assert got == reference

    def test_a_target_stack_refuses_bases_of_another_length(self):
        stack = np.zeros((2, 16), dtype=np.uint8)
        wrong = (
            [stack[0], stack[1, :8]],
            # 8 + 24 bytes join to the stack's 32: still refused.
            [stack[0, :8], np.zeros(24, dtype=np.uint8)],
            np.zeros((2, 8), dtype=np.uint8),
            np.zeros(32, dtype=np.uint8),
        )
        for bases in wrong:
            with pytest.raises(ValueError):
                compute_patches(stack, bases)

    @given(st.sampled_from(TRIAGE_SIZES), st.integers(0, 2**32 - 1), st.sampled_from([0, 1, 2]))
    @settings(max_examples=120, deadline=None)
    def test_differing_byte_floor_is_under_the_aligned_patch(self, n, seed, shape):
        rng = _rng(seed)
        base = rng.integers(0, 256, size=n, dtype=np.uint8)
        if shape == 0:  # random rewrites of random lengths
            target = base.copy()
            for at in rng.integers(0, n, size=int(rng.integers(1, 30))).tolist():
                width = int(rng.integers(1, 200))
                target[at : at + width] = rng.integers(0, 256, size=len(target[at : at + width]))
        elif shape == 1:  # periodic: equal runs just under and over MIN_COPY_RUN
            period = int(rng.integers(2, 40))
            target = base.copy()
            target[::period] ^= 0xFF
        else:  # a single differing byte
            target = base.copy()
            target[int(rng.integers(0, n))] ^= 0x01
        differing = int(np.count_nonzero(target != base))
        if not differing:
            return
        aligned = patch_module._aligned_patch(target, base)
        assert deserialize(aligned.blob).ops == tuple(_aligned_ops_scalar(target, base))
        floor = patch_module._HEADER.size + patch_module._INSERT_HDR.size + differing
        assert floor <= aligned.size_bytes

    @given(triage_batches())
    @settings(max_examples=40, deadline=None)
    def test_batched_bound_is_the_one_row_bound(self, batch):
        _n, targets, bases = batch
        indexes = [AnchorIndex(base, 1) for base in bases]
        batched = patch_module._copy_bounds(np.stack(targets), indexes)
        assert batched == [
            index.copy_bound(target) for index, target in zip(indexes, targets)
        ]

    def test_discarded_fallback_rows_extract_no_runs_and_sort_nothing(self, codec_calls):
        rng = _rng(11)
        n = 4096
        bases = [rng.integers(0, 256, size=n, dtype=np.uint8) for _ in range(12)]
        kinds = ["identical", "sparse", "dense"] * 4
        targets = [_triage_row(rng, base, kind) for base, kind in zip(bases, kinds)]
        indexes = [AnchorIndex(base, 1) for base in bases]
        got = compute_patches(
            targets, bases, level=1, index_provider=lambda j: indexes[j], max_size=3072
        )
        # Only the sparse rows were diffed; the dense ones were bounded,
        # dismissed and returned as literals without a run or a sort.
        assert codec_calls == {
            "run_rows": 4, "bound": 4, "matcher": 0, "word_bits": 4, "sorted_halves": 0,
            "probed": 0,
        }
        for patch, kind, index in zip(got, kinds, indexes):
            assert (index.word_bits is not None) == (kind == "dense")
            assert index.anchors is None
            assert (patch.size_bytes >= 3072) == (kind == "dense")

    def test_saving_bound_dismisses_unprobed_and_dense_rows_skip_the_aligned_encode(
        self, codec_calls
    ):
        """A fixed dense batch of pages at the agent's cutoff.

        A ``planted`` row is unrelated bytes with 40 shortest COPYs of
        its base planted 96 bytes apart, each holding one window: the
        words they cover would let a bound that charges no COPY record
        pass the row to the matcher (its floor 4112 - 40 * 30 is under
        the cutoff), but what they save does not.  A ``shifted`` row is
        its base rolled: dense by its differing bytes, yet its anchor
        patch is small.  The planted rows are dismissed without a probe
        (their indexes never sort), and the shifted ones reach the
        matcher without their runs extracted.
        """
        rng = _rng(14)
        n, cutoff = 4096, 3072
        kinds = ["planted", "shifted"] * 4
        bases = [rng.integers(0, 256, size=n, dtype=np.uint8) for _ in kinds]
        targets = []
        for kind, base in zip(kinds, bases):
            if kind == "planted":
                target = rng.integers(0, 256, size=n, dtype=np.uint8)
                for dst in range(1, 40 * 96, 96):
                    src = int(rng.integers(0, n - MIN_ANCHOR_MATCH))
                    target[dst : dst + MIN_ANCHOR_MATCH] = base[src : src + MIN_ANCHOR_MATCH]
            else:
                target = np.roll(base, 8 * int(rng.integers(1, 5)))  # on the level-1 grid
            targets.append(target)
        indexes = [AnchorIndex(base, 1) for base in bases]
        got = compute_patches(
            targets, bases, level=1, index_provider=lambda j: indexes[j], max_size=cutoff
        )
        assert codec_calls["run_rows"] == 0
        assert codec_calls["matcher"] == kinds.count("shifted")
        for patch, kind, index, target, base in zip(got, kinds, indexes, targets, bases):
            assert apply_patch(patch, base) == target.tobytes()
            assert (index.anchors is not None) == (kind == "shifted")
            reference = patch_module.compute_patch(target, base)
            if kind == "shifted":
                assert patch == reference and patch.size_bytes < cutoff
            else:
                assert reference.size_bytes >= cutoff

    @pytest.mark.parametrize("cutoff", [None, 3072])
    def test_identical_rows_never_enter_run_extraction(self, codec_calls, cutoff):
        rng = _rng(12)
        bases = [rng.integers(0, 256, size=4096, dtype=np.uint8) for _ in range(5)]
        got = compute_patches([b.copy() for b in bases], bases, max_size=cutoff)
        assert codec_calls["run_rows"] == 0
        for patch, base in zip(got, bases):
            assert patch == patch_module.compute_patch(base, base)
            assert deserialize(patch.blob).ops == (CopyOp(src_off=0, length=4096),)

    @pytest.mark.parametrize("cutoff", [None, 3072])
    def test_blocks_change_no_patch_and_no_provider_order(self, monkeypatch, cutoff):
        # triage_batches draws at most 64 rows, one block: cross blocks here.
        rng = _rng(13)
        kinds = ["identical", "sparse", "half", "shifted", "dense"] * 10
        bases = [rng.integers(0, 256, size=4096, dtype=np.uint8) for _ in kinds]
        targets = [_triage_row(rng, base, kind) for base, kind in zip(bases, kinds)]
        indexes = [AnchorIndex(base, 1) for base in bases]

        def run() -> tuple[list[Patch], list[int]]:
            asked: list[int] = []

            def provider(j):
                asked.append(j)
                return indexes[j]

            got = compute_patches(
                targets, bases, level=1, index_provider=provider, max_size=cutoff
            )
            return got, asked

        whole, whole_asked = run()
        monkeypatch.setattr(patch_module, "STACK_ROWS", 3)
        blocked, blocked_asked = run()
        assert blocked == whole
        assert blocked_asked == whole_asked == sorted(set(whole_asked))
        assert whole_asked  # some rows fell back

    def test_rows_shorter_than_a_copy_run_stay_literal_when_identical(self):
        short = np.arange(8, dtype=np.uint8)
        (got,) = compute_patches([short], [short.copy()])
        assert got == patch_module.compute_patch(short, short)
        assert isinstance(deserialize(got.blob).ops[0], InsertOp)


#: Where the windows of a residue first probed at position 0 end while
#: the scan finds nothing: the first window, then each next one four
#: times wider (``_MATCH_FIRST_SLICE``, ``_MATCH_SLICE_GROWTH``).
WINDOW_EDGES = (4096, 20480, 86016)


@st.composite
def windowed_pairs(draw) -> tuple[np.ndarray, np.ndarray]:
    """A (target, base) pair of 8-96 KiB, the sizes of template regions.

    ``planted``: stretches of a random base planted in a random target
    across the window edges, so a COPY's anchor and its start or end sit
    in different windows; ``rolled``: the base rolled by 16·u bytes (FINE
    ASLR) with a few pages rewritten, so the scan jumps past windows and
    grows new ones through the rewritten pages; ``duplicate``: a
    duplicate-heavy pair.  Some targets are cut or extended to another
    length than the base's.
    """
    kind = draw(st.sampled_from(["planted", "rolled", "duplicate"]))
    if kind == "duplicate":
        return draw(duplicate_heavy_pairs(sizes=(8192, 20488, 49152, 98304)))
    n = draw(st.integers(8 * 1024, 96 * 1024))
    rng = _rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.integers(0, 256, size=n, dtype=np.uint8)
    if kind == "planted":
        target = rng.integers(0, 256, size=n, dtype=np.uint8)
        edges = [edge for edge in WINDOW_EDGES if edge < n - 600]
        others = rng.integers(600, n - 600, size=draw(st.integers(0, 6))).tolist()
        for at in edges + others:
            length = int(rng.integers(MIN_ANCHOR_MATCH, 600))
            src = int(rng.integers(2 * length + 32, n - length))
            if draw(st.booleans()):
                # Starts at ``at``, and the base repeats the stretch from
                # its 2nd and from its 9th byte on at lower offsets: a
                # scan whose next window began one probe past ``at``
                # (at either level) would copy from a repeat.
                dst = at
                src -= (src - dst) % 8
                step = 8 * (length // 8 + 1)
                low = 8 * int(rng.integers(0, (src - 2 * step) // 8))
                for skip, dup in ((1, low), (8, low + step)):
                    base[dup : dup + length - skip] = base[src + skip : src + length]
            else:
                dst = at - int(rng.integers(1, length))
                if draw(st.booleans()):  # on the probe grid of a level-1 scan
                    src -= (src - dst) % 8
            target[dst : dst + length] = base[src : src + length]
    else:
        target = np.roll(base, 16 * draw(st.integers(1, 127)))
        for page in rng.integers(0, n // 4096, size=draw(st.integers(0, 6))).tolist():
            target[page * 4096 : (page + 1) * 4096] = rng.integers(0, 256, size=4096)
    change = draw(st.sampled_from(["equal", "cut", "extended"]))
    if change == "cut":
        target = target[: n - int(rng.integers(1, 5000))]
    elif change == "extended":
        extra = rng.integers(0, 256, size=int(rng.integers(1, 5000)), dtype=np.uint8)
        target = np.concatenate([target, extra])
    return target, base


class TestWindowedProbes:
    """The matcher probes each residue in growing windows from the scan
    position; its ops must be the window-by-window scan's."""

    @given(windowed_pairs(), st.sampled_from([1, 2]))
    @settings(max_examples=60, deadline=None)
    def test_windowed_matcher_matches_the_scalar_scan(self, pair, level):
        target, base = pair
        got = patch_module._anchor_patch(target, base, level)
        assert deserialize(got.blob).ops == tuple(_anchor_ops_scalar(target, base, level))

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 8]), st.booleans(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_bounded_probe_is_a_prefix_of_the_sweep(self, seed, stride, low_entropy, data):
        rng = _rng(seed)
        n = data.draw(st.integers(ANCHOR_SIZE, 12288))
        high = 2 if low_entropy else 256  # low entropy: duplicate keys, many hits
        base = rng.integers(0, high, size=n, dtype=np.uint8)
        target = np.roll(base, data.draw(st.integers(0, 64)))
        target[rng.integers(0, n, size=n // 64)] ^= 0x11
        target_bytes = target.tobytes()
        index = build_anchor_index(base, 1 if stride == 8 else 2)
        start = data.draw(st.integers(0, n))
        stop = data.draw(st.integers(start - 16, n + 64))
        positions, srcs = index.probe(target_bytes, start, stride)
        got_positions, got_srcs = index.probe(target_bytes, start, stride, stop)
        keep = positions < stop
        np.testing.assert_array_equal(got_positions, positions[keep])
        np.testing.assert_array_equal(got_srcs, srcs[keep])

    @pytest.mark.parametrize("level", [1, 2])
    def test_rolled_region_probes_at_most_two_first_windows(self, codec_calls, level):
        """Tripwire for whole-residue sweeps.

        A 224 KiB region rolled by a FINE-ASLR shift is two COPYs, both
        anchored in the first window the scan probes; a whole-residue
        sweep probes every position of the residue (28,671 at level 1).
        """
        rng = _rng(21)
        n = 224 * 1024
        base = rng.integers(0, 256, size=n, dtype=np.uint8)
        target = np.roll(base, 16 * 37)
        (patch,) = compute_patches([target], [base], level=level)
        assert [type(op) for op in deserialize(patch.blob).ops] == [CopyOp] * 2
        assert codec_calls["matcher"] == 1
        stride = 8 if level == 1 else 1
        assert 0 < codec_calls["probed"] <= 2 * patch_module._MATCH_FIRST_SLICE // stride
