"""Equivalence properties of the vectorized fingerprint/anchor kernels.

Every batch kernel of the VectorCDC-style rewrite is pinned against its
scalar oracle here: segmented greedy thinning vs ``enforce_spacing``,
gathered chunk hashing vs ``page_fingerprint``, the vectorised
polynomial digest vs its pure-Python reference, and the batched anchor
fallback vs ``compute_patch_reference`` (duplicate-heavy page- and
region-sized inputs included) — across page sizes, marker configs,
ASLR'd synthetic images and sampling strategies.  Digests wider than
the registry's ``uint64`` column are refused by the config itself.
The copy-coverage bound that lets
``compute_patches(max_size=...)`` skip the anchor matcher is pinned
against the scalar matcher's actual COPYs.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import MIB, hash_bytes, poly_hash_bytes, poly_hash_rows
from repro.memory.chunks import (
    batch_enforce_spacing,
    batch_marker_ends,
    enforce_spacing,
    fixed_offset_digests,
    split_positions_by_page,
)
from repro.memory.fingerprint import (
    DEFAULT_CARDINALITY,
    FingerprintConfig,
    HashKind,
    SamplingStrategy,
    batch_fingerprint_arrays,
    batch_page_fingerprints,
    batch_sample_chunk_offsets,
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
    _anchor_ops_scalar,
    apply_patch,
    build_anchor_index,
    compute_patch_reference,
    compute_patches,
)

MARKER_BYTE = 0x77


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
        # Heavy marker density (runs of 0x77 included), so spacing and
        # cardinality caps actually bind.
        alphabet = np.array([0, 1, MARKER_BYTE, MARKER_BYTE], dtype=np.uint8)
        data = rng.choice(alphabet, size=page_size * num_pages)
    else:
        data = rng.integers(0, 256, size=page_size * num_pages, dtype=np.uint8)
    return page_size, data


@st.composite
def fp_configs(draw) -> FingerprintConfig:
    strategy = draw(st.sampled_from(list(SamplingStrategy)))
    hash_kind = draw(st.sampled_from(list(HashKind)))
    digest_bits = draw(st.sampled_from([16, 64]))
    marker_mask, marker_value = draw(
        st.sampled_from([(0x00FF, 0x0077), (0x0003, 0x0001), (0xFFFF, 0x7777)])
    )
    return FingerprintConfig(
        chunk_size=draw(st.sampled_from([8, 16, 64])),
        cardinality=draw(st.sampled_from([1, 3, DEFAULT_CARDINALITY])),
        digest_bits=digest_bits,
        marker_mask=marker_mask,
        marker_value=marker_value,
        strategy=strategy,
        hash_kind=hash_kind,
    )


class TestSegmentedThinning:
    @given(
        page_buffers(),
        st.integers(min_value=1, max_value=6),
        st.sampled_from([4, 8, 16, 64]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_per_page_enforce_spacing(self, buf, cap, spacing):
        page_size, data = buf
        num_pages = len(data) // page_size
        hits = batch_marker_ends(
            data, page_size, mask=0x00FF, value=MARKER_BYTE, min_position=spacing - 1
        )
        kept = batch_enforce_spacing(hits, page_size, spacing, cap=cap)
        parts = split_positions_by_page(hits, page_size, num_pages)
        expected = [enforce_spacing(part, spacing, cap=cap) for part in parts]
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


class TestPolyHash:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(min_value=1, max_value=8),
        st.sampled_from([8, 64]),
        st.sampled_from([16, 32, 64]),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_match_scalar(self, seed, rows, chunk, bits):
        matrix = _rng(seed).integers(0, 256, size=(rows, chunk), dtype=np.uint8)
        vec = poly_hash_rows(matrix, bits).tolist()
        assert vec == [poly_hash_bytes(row.tobytes(), bits) for row in matrix]

    def test_poly_config_rejects_wide_digests(self):
        with pytest.raises(ValueError, match="digest_bits"):
            FingerprintConfig(hash_kind=HashKind.POLY64, digest_bits=128)

    def test_disjoint_from_sha1(self):
        data = _rng(5).integers(0, 256, size=2 * 4096, dtype=np.uint8)
        sha = batch_page_fingerprints(data, 4096, FingerprintConfig())
        poly = batch_page_fingerprints(
            data, 4096, FingerprintConfig(hash_kind=HashKind.POLY64)
        )
        assert [fp.offsets for fp in sha] == [fp.offsets for fp in poly]
        assert all(a.digests != b.digests for a, b in zip(sha, poly))


class TestFixedOffsetRegressions:
    def test_offset_lists_are_independent(self):
        # Regression: the FIXED_OFFSETS batch path used to return the
        # *same* list object for every page ([offsets] * num_pages).
        cfg = FingerprintConfig(strategy=SamplingStrategy.FIXED_OFFSETS)
        data = np.zeros(3 * 4096, dtype=np.uint8)
        out = batch_sample_chunk_offsets(data, 4096, cfg)
        assert out[0] == out[1] == out[2]
        assert out[0] is not out[1]
        out[0].append(-1)
        assert len(out[1]) == cfg.cardinality
        assert out[1] == out[2]

    @given(st.integers(0, 2**32 - 1), st.sampled_from([8, 64, 128]))
    @settings(max_examples=40, deadline=None)
    def test_fixed_offset_digests_match_scalar(self, seed, bits):
        data = _rng(seed).integers(0, 256, size=1024, dtype=np.uint8)
        chunk_size, stride = 16, 24
        got = fixed_offset_digests(data, chunk_size, stride, bits)
        raw = data.tobytes()
        assert got == [
            (off, hash_bytes(raw[off : off + chunk_size], bits))
            for off in range(0, len(raw) - chunk_size + 1, stride)
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
        repeats ``a`` halves must make the same small number of
        ``searchsorted`` calls whether it returns a handful of
        candidates or thousands.
        """
        rng = _rng(3)
        n = 32768
        base = rng.choice(np.array([0, 0, 0, 7], dtype=np.uint8), size=n)
        index = build_anchor_index(base, level)
        assert index.anchors.has_dup_a
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
        assert 1 <= counts["rich"][0] == counts["poor"][0] <= 2, counts


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


bound_pairs = st.one_of(duplicate_heavy_pairs(sizes=BOUND_SIZES), planted_copy_pairs())


def _scalar_anchor_patch(target: np.ndarray, base: np.ndarray, level: int) -> Patch:
    ops = _anchor_ops_scalar(target, base, level)
    return Patch(ops=tuple(ops), target_len=len(target), base_len=len(base))


def _copy_bound_constants(min_match: int) -> tuple[int, int]:
    """The bound's constants as the module must derive them."""
    words = (max(min_match, ANCHOR_SIZE) - 7) // 8
    return words, 8 * (words - 1) + 14


class TestCopyCoverageBound:
    @given(bound_pairs, st.sampled_from([1, 2]))
    @settings(max_examples=120, deadline=None)
    def test_bound_covers_the_scalar_matchers_copies(self, pair, level):
        target, base = pair
        scalar = _scalar_anchor_patch(target, base, level)
        bound = build_anchor_index(base, level).copy_bound(target)
        assert bound >= scalar.copied_bytes
        assert len(target) + patch_module._HEADER.size - bound <= scalar.size_bytes

    def test_constants_are_derived_from_the_matchers(self):
        words, slack = _copy_bound_constants(MIN_ANCHOR_MATCH)
        assert words >= 1, "a COPY must contain a whole aligned word"
        assert (patch_module._COPY_MIN_WORDS, patch_module._COPY_RUN_SLACK) == (words, slack)

    @pytest.mark.parametrize("min_match", [ANCHOR_SIZE, MIN_ANCHOR_MATCH, 32, 41])
    def test_shortest_copy_is_covered_wherever_it_starts(self, monkeypatch, min_match):
        """The bound must follow ``MIN_ANCHOR_MATCH``.

        The shortest COPY the matcher can emit, planted at every target
        residue mod 8 in unrelated bytes, is found by the scalar matcher
        and covered by the bound — for the shipped constant and for
        lowered/raised ones once the bound's constants are re-derived.
        With the matcher lowered and the bound's constants left behind,
        the same pairs break the bound.
        """
        shipped = (patch_module._COPY_MIN_WORDS, patch_module._COPY_RUN_SLACK)
        monkeypatch.setattr(patch_module, "MIN_ANCHOR_MATCH", min_match)
        shortest = max(min_match, ANCHOR_SIZE)
        rng = _rng(min_match)
        n = 1024
        pairs = []
        for dst in range(200, 208):
            base = rng.integers(0, 256, size=n, dtype=np.uint8)
            target = rng.integers(0, 256, size=n, dtype=np.uint8)
            target[dst : dst + shortest] = base[512 : 512 + shortest]
            pairs.append((target, base))

        def violations() -> int:
            count = 0
            for target, base in pairs:
                copied = _scalar_anchor_patch(target, base, 2).copied_bytes
                assert copied >= shortest
                count += build_anchor_index(base, 2).copy_bound(target) < copied
            return count

        words, slack = _copy_bound_constants(min_match)
        monkeypatch.setattr(patch_module, "_COPY_MIN_WORDS", words)
        monkeypatch.setattr(patch_module, "_COPY_RUN_SLACK", slack)
        assert violations() == 0
        if (words, slack) < shipped:
            monkeypatch.setattr(patch_module, "_COPY_MIN_WORDS", shipped[0])
            monkeypatch.setattr(patch_module, "_COPY_RUN_SLACK", shipped[1])
            assert violations() > 0

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
            "run_rows": 0, "bound": 2, "matcher": 0, "word_bits": 1, "sorted_halves": 0
        }
        assert index.anchors is None and index.word_bits is not None
        # The same page without a cutoff does go through the matcher.
        compute_patches([unrelated], [base], level=1, index_provider=lambda j: index)
        assert probes
        assert codec_calls == {
            "run_rows": 1, "bound": 2, "matcher": 1, "word_bits": 1, "sorted_halves": 1
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
                    assert patch.serialize() == ref.serialize()
                else:
                    assert ref.size_bytes >= cutoff

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
        aligned = Patch(
            ops=tuple(patch_module._aligned_ops(target, base)), target_len=n, base_len=n
        )
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
            "run_rows": 4, "bound": 4, "matcher": 0, "word_bits": 4, "sorted_halves": 0
        }
        for patch, kind, index in zip(got, kinds, indexes):
            assert (index.word_bits is not None) == (kind == "dense")
            assert index.anchors is None
            assert (patch.size_bytes >= 3072) == (kind == "dense")

    @pytest.mark.parametrize("cutoff", [None, 3072])
    def test_identical_rows_never_enter_run_extraction(self, codec_calls, cutoff):
        rng = _rng(12)
        bases = [rng.integers(0, 256, size=4096, dtype=np.uint8) for _ in range(5)]
        got = compute_patches([b.copy() for b in bases], bases, max_size=cutoff)
        assert codec_calls["run_rows"] == 0
        for patch, base in zip(got, bases):
            assert patch == patch_module.compute_patch(base, base)
            assert patch.ops == (patch_module.CopyOp(src_off=0, length=4096),)

    def test_rows_shorter_than_a_copy_run_stay_literal_when_identical(self):
        short = np.arange(8, dtype=np.uint8)
        (got,) = compute_patches([short], [short.copy()])
        assert got == patch_module.compute_patch(short, short)
        assert isinstance(got.ops[0], patch_module.InsertOp)
