"""The dirty-page kernel draws what numpy would have drawn, byte for byte.

``memory/synth.py`` decodes a region's dirty pages from one
``random_raw`` call.  Three layers of evidence, each resting on the one
below:

1. ``tests/oracles/pcg64_draws.WordStream`` — numpy's three routines in
   straight-line Python — equals a live ``Generator`` on real seeds;
2. the kernel equals the per-call definition
   (``tests/oracles/synth_scalar``) on real streams: arbitrary regions,
   and every region of every FunctionBench profile;
3. on crafted words, where a real stream would take 2**26 draws to
   reject a pool index, the decoder equals the transcription of (1).

Should a numpy release change how ``Generator`` consumes the PCG64
stream (NEP 19 does not freeze it), (1) and (2) fail together.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import synth
from repro.memory.layout import PlacedRegion, RegionSpec, SharingScope
from repro.memory.synth import DIRTY_PAGE_BYTES, POOL_BLOCKS
from tests.oracles import synth_scalar
from tests.oracles.pcg64_draws import WordStream

SEEDS = st.integers(min_value=0, max_value=2**64 - 1)


def region(content_key: str, dirty_page_rate: float) -> RegionSpec:
    return RegionSpec(
        name="r",
        scope=SharingScope.FUNCTION,
        content_key=content_key,
        fraction=1.0,
        dirty_page_rate=dirty_page_rate,
    )


# ------------------------------------------- 1. transcription vs Generator


class TestTranscriptionMatchesGenerator:
    @given(
        seed=SEEDS,
        calls=st.lists(
            st.tuples(st.sampled_from(["bytes", "doubles", "bounded"]), st.integers(0, 9)),
            max_size=12,
        ),
    )
    def test_interleaved_draws(self, seed, calls):
        """Any interleaving of the three calls, odd counts included, so the
        32-bit buffer is left full, taken by the next call, and passed by."""
        live = np.random.Generator(np.random.PCG64(seed))
        stream = WordStream(np.random.PCG64(seed).random_raw(64 * (len(calls) + 1)))
        for kind, count in calls:
            if kind == "bytes":
                expected = live.integers(0, 256, size=4 * count, dtype=np.uint8).tobytes()
                assert stream.uint8_fill(4 * count) == expected
            elif kind == "doubles":
                expected = live.random(count).tolist()
                assert [stream.next_double() for _ in range(count)] == expected
            else:
                expected = live.integers(0, POOL_BLOCKS, size=count).tolist()
                assert [stream.bounded_lemire_uint32(POOL_BLOCKS) for _ in range(count)] == expected
            assert stream.has_uint32 == bool(live.bit_generator.state["has_uint32"])

    @given(seed=SEEDS, count=st.integers(1, 40))
    def test_lemire_rejection(self, seed, count):
        """A range that rejects almost every other draw (``2**32 % (2**31 +
        1)`` is ``2**31 - 1``), where ``POOL_BLOCKS`` rejects one in 2**26."""
        rng_excl = 2**31 + 1
        live = np.random.Generator(np.random.PCG64(seed))
        stream = WordStream(np.random.PCG64(seed).random_raw(4096))
        live.integers(0, POOL_BLOCKS, size=seed % 2)  # enter with and without a half-word
        [stream.bounded_lemire_uint32(POOL_BLOCKS) for _ in range(seed % 2)]
        expected = live.integers(0, rng_excl, size=count).tolist()
        assert [stream.bounded_lemire_uint32(rng_excl) for _ in range(count)] == expected
        assert stream.has_uint32 == bool(live.bit_generator.state["has_uint32"])
        assert count < 8 or sum(stream.rejected.values()) > 0

    def test_dirty_page_through_the_transcription(self):
        for seed in range(6):
            live = np.random.Generator(np.random.PCG64(seed))
            stream = WordStream(np.random.PCG64(seed).random_raw(4 * 600))
            for _ in range(4):
                expected = synth_scalar._dirty_page_content(live).tobytes()
                assert synth_scalar.dirty_page_from_stream(stream) == expected


# ------------------------------------------------ 2. kernel vs definition


def test_kernel_matches_the_per_call_definition():
    """Arbitrary regions, with tripwires so it cannot pass vacuously.

    Now and then the pool share is moved (in the kernel and the oracle
    alike) to where a page draws no pool index at all — once in a
    million pages at 0.35 — or one for nearly every block.
    """
    seen: Counter[str] = Counter()
    real_page = synth_scalar._dirty_page_content

    def watched_page(rng):
        entry = rng.bit_generator.state
        page = real_page(rng)
        replay = np.random.Generator(np.random.PCG64(0))
        replay.bit_generator.state = entry
        replay.integers(0, 256, size=DIRTY_PAGE_BYTES, dtype=np.uint8)
        k = int((replay.random(32) < synth_scalar.DIRTY_POOL_SHARE).sum())
        seen["pending on entry" if entry["has_uint32"] else "none pending on entry"] += 1
        seen[f"k={k}"] += 1
        if entry["has_uint32"] and seen["last k"] == 0 and seen["last pending"]:
            seen["stray half-word"] += 1
        seen["last k"], seen["last pending"] = k, entry["has_uint32"]
        return page

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        npages=st.integers(0, 96),
        tail=st.sampled_from([0, 0, 1, 100, DIRTY_PAGE_BYTES - 1]),
        rate=st.one_of(
            st.sampled_from([0.0, 1e-3, 1.0]), st.floats(min_value=0.05, max_value=0.6)
        ),
        share=st.sampled_from([synth.DIRTY_POOL_SHARE] * 4 + [0.02, 0.97]),
        instance_seed=st.integers(0, 2**32),
        content_key=st.sampled_from(["runtime:cpython", "heap:LinAlg", "lib:torch", "k"]),
    )
    def check(npages, tail, rate, share, instance_seed, content_key):
        spec = region(content_key, rate)
        size = npages * DIRTY_PAGE_BYTES + tail
        before = np.arange(size, dtype=np.uint32).astype(np.uint8)
        expected, got = before.copy(), before.copy()
        seen["last k"], seen["last pending"] = -1, 0
        with (
            mock.patch.object(synth_scalar, "DIRTY_POOL_SHARE", share),
            mock.patch.object(synth, "_POOL_CHOICE_LIMIT", synth._pool_choice_limit(share)),
            mock.patch.object(synth_scalar, "_dirty_page_content", watched_page),
        ):
            synth_scalar._apply_dirty_pages(expected, spec, instance_seed)
            synth._apply_dirty_pages(got, (PlacedRegion(spec, 0, size),), instance_seed)
        assert got.tobytes() == expected.tobytes()
        pages = size // DIRTY_PAGE_BYTES
        untouched = [
            page
            for page in range(pages)
            if (expected == before)[page * DIRTY_PAGE_BYTES :][:DIRTY_PAGE_BYTES].all()
        ]
        if pages:
            seen["d=0"] += len(untouched) == pages and rate > 0
            seen["d=npages"] += not untouched
        seen["partial last page"] += bool(tail and pages)

    check()
    for tripwire in (
        "pending on entry",
        "none pending on entry",
        "stray half-word",
        "k=0",
        "k=32",
        "d=0",
        "d=npages",
        "partial last page",
    ):
        assert seen[tripwire], (tripwire, seen)


@pytest.mark.parametrize("aslr", [False, True])
@pytest.mark.parametrize("executed", [False, True])
@pytest.mark.parametrize("scale", [256, 64, 32])
def test_every_functionbench_image(suite, scale, executed, aslr):
    """Regions decoded together, in place, are the regions built one by one."""
    for profile in suite.profiles:
        image = profile.synthesize(11, content_scale=1.0 / scale, aslr=aslr, executed=executed)
        expected = np.zeros(image.nbytes, dtype=np.uint8)  # guard pages stay zero
        for placed in image.regions:
            expected[placed.offset : placed.end] = synth_scalar.build_region(
                placed.spec, placed.size, 11, aslr=aslr, executed=executed
            )
        assert image.checksum() == hashlib.sha1(expected).hexdigest(), profile.name


# ------------------------------------------------- 3. decoder on raw words

#: Half-words a draw from ``[0, 96)`` rejects: ``h * 96 mod 2**32 < 64``
#: is ``3h mod 2**27 < 2``, and ``3 * 44739243 == 2**27 + 1``.
REJECTED_HALVES = [top << 27 | low for top in (0, 5, 31) for low in (0, 44739243)]
#: Half-words numpy looks at twice and keeps: ``64 <= h * 96 mod 2**32 < 96``.
KEPT_HALVES = [top << 27 | 2 * 44739243 for top in (0, 9, 31)]


def pages_by_transcription(words, spans):
    pages, streams, start = [], [], 0
    for ndirty, nwords in spans:
        stream = WordStream(words[start : start + nwords].tolist())
        start += nwords
        pages += [synth_scalar.dirty_page_from_stream(stream) for _ in range(ndirty)]
        streams.append(stream)
    return b"".join(pages), streams


def crafted_words(seed: int, nwords: int, rejecting_share: float, pool_share: float):
    """Real words with some halves replaced by ones Lemire rejects and
    some words by the least and greatest block choice."""
    rng = np.random.default_rng(seed)
    words = rng.bit_generator.random_raw(nwords)
    halves = words.view("<u4")
    hit = rng.random(halves.size) < rejecting_share
    halves[hit] = rng.choice(REJECTED_HALVES + KEPT_HALVES[:1], size=int(hit.sum()))
    force = rng.random(nwords)
    words[force < pool_share] = 0
    words[force > 1 - pool_share] = 2**64 - 1
    return words


class TestDecoderOnCraftedWords:
    def test_the_rejected_halves_are_rejected(self):
        threshold = 2**32 % POOL_BLOCKS
        assert all((half * POOL_BLOCKS) % 2**32 < threshold for half in REJECTED_HALVES)
        assert all(threshold <= (half * POOL_BLOCKS) % 2**32 < POOL_BLOCKS for half in KEPT_HALVES)

    @pytest.mark.parametrize("share", [synth.DIRTY_POOL_SHARE, 0.02, 0.25, 0.5, 0.97])
    def test_block_choice_on_the_word_is_the_comparison_on_the_double(self, share):
        limit = int(synth._pool_choice_limit(share))
        edge = 2**11  # the bits ``random`` drops
        for word in (0, limit - edge, limit - 1, limit, limit + edge - 1, limit + edge, 2**64 - 1):
            assert (WordStream([word]).next_double() < share) == (word < limit), word

    def test_a_draw_numpy_looks_at_twice_and_keeps(self):
        words = np.random.PCG64(4).random_raw(2 * synth._WORDS_PER_DIRTY_PAGE)
        words[512:544] = 0
        words.view("<u4")[2 * 544 : 2 * 544 + 6] = KEPT_HALVES + REJECTED_HALVES[:3]
        spans = [(1, len(words))]
        expected, (stream,) = pages_by_transcription(words, spans)
        assert stream.rejected == {True: 2, False: 1}
        assert synth._dirty_pages_from_words(words, spans).tobytes() == expected

    @pytest.mark.parametrize("pending", [False, True])
    def test_one_rejected_pool_index(self, pending):
        """One rejecting half-word exactly where a pool index is drawn: the
        first draw of a page entered without (page 0) and with (page 1) a
        half-word pending — then that draw *is* the pending half-word."""
        words = np.random.PCG64(3).random_raw(3 * synth._WORDS_PER_DIRTY_PAGE)
        halves = words.view("<u4")
        words[512:544] = 2**64 - 1  # page 0 picks the pool for
        words[512:515] = 0  # three blocks: an odd count leaves a half-word,
        page1 = 544 + 2  # so page 1 starts here, four bytes off the grid
        words[page1 + 512 : page1 + 544] = 0
        halves[2 * (page1 + 511) + 1 if pending else 2 * 544] = REJECTED_HALVES[1]
        spans = [(2, len(words))]
        expected, (stream,) = pages_by_transcription(words, spans)
        assert stream.rejected == {pending: 1, (not pending): 0}
        assert synth._dirty_pages_from_words(words, spans).tobytes() == expected

    @given(
        seed=st.integers(0, 2**32),
        spans=st.lists(st.integers(1, 5), min_size=1, max_size=3),
        rejecting_share=st.sampled_from([0.0, 0.02, 0.3]),
        pool_share=st.sampled_from([0.0, 0.05, 0.45]),
    )
    @settings(max_examples=60, deadline=None)
    def test_many_rejections_several_generators(self, seed, spans, rejecting_share, pool_share):
        spans = [(ndirty, 2 * ndirty * synth._WORDS_PER_DIRTY_PAGE) for ndirty in spans]
        words = crafted_words(seed, sum(n for _, n in spans), rejecting_share, pool_share)
        expected, _ = pages_by_transcription(words, spans)
        assert synth._dirty_pages_from_words(words, spans).tobytes() == expected

    def test_rejections_in_both_buffer_states_were_exercised(self):
        words = crafted_words(1, 40 * synth._WORDS_PER_DIRTY_PAGE, 0.3, 0.05)
        spans = [(20, len(words))]
        expected, (stream,) = pages_by_transcription(words, spans)
        assert min(stream.rejected.values()) > 10
        assert synth._dirty_pages_from_words(words, spans).tobytes() == expected

    def test_too_few_words_is_reported_not_decoded(self):
        """Every block from the pool and a rejected draw: one word more
        than the allowance, which ``_apply_dirty_pages`` answers by
        starting over with twice the words."""
        words = np.random.PCG64(5).random_raw(2 * synth._WORDS_PER_DIRTY_PAGE)
        words[512:544] = 0
        words.view("<u4")[2 * 544 + 7] = REJECTED_HALVES[0]
        short = words[: synth._WORDS_PER_DIRTY_PAGE]
        assert synth._dirty_pages_from_words(short, [(1, len(short))]) is None
        expected, _ = pages_by_transcription(words, [(1, len(words))])
        assert synth._dirty_pages_from_words(words, [(1, len(words))]).tobytes() == expected

    def test_apply_starts_over_when_the_words_run_out(self):
        spec = region("heap:LinAlg", 1.0)
        size = 6 * DIRTY_PAGE_BYTES
        expected, got = np.zeros(size, np.uint8), np.zeros(size, np.uint8)
        synth_scalar._apply_dirty_pages(expected, spec, 9)
        real = synth._dirty_pages_from_words
        offered = []

        def starved_once(words, spans):
            offered.append(len(words))
            return real(words, spans) if len(offered) > 1 else None

        with mock.patch.object(synth, "_dirty_pages_from_words", starved_once):
            synth._apply_dirty_pages(got, (PlacedRegion(spec, 0, size),), 9)
        assert offered == [6 * synth._WORDS_PER_DIRTY_PAGE, 12 * synth._WORDS_PER_DIRTY_PAGE]
        assert got.tobytes() == expected.tobytes()

