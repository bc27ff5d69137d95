"""Tests for repro._util helpers."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import _util
from repro._util import (
    SeededLognormal,
    fmt_bytes,
    fmt_ms,
    hash_bytes,
    pcg64_first_words,
    pcg64_seed_states,
    percentile,
    rng_for,
    round_up,
    stable_seed,
)
from tests.oracles.chunk_hashes import hash_bytes_many


class TestStableSeed:
    def test_deterministic(self):
        assert stable_seed("a", 1) == stable_seed("a", 1)

    def test_distinct_parts_distinct_seeds(self):
        assert stable_seed("a", 1) != stable_seed("a", 2)
        assert stable_seed("a") != stable_seed("b")

    def test_order_matters(self):
        assert stable_seed("a", "b") != stable_seed("b", "a")

    def test_no_concatenation_ambiguity(self):
        # ("ab", "c") must differ from ("a", "bc").
        assert stable_seed("ab", "c") != stable_seed("a", "bc")

    def test_64_bit_range(self):
        seed = stable_seed("anything")
        assert 0 <= seed < 2**64

    def test_derivation_is_pinned(self):
        """Every replay's numbers hang off these bytes: SHA-256 over each
        part's ``repr`` followed by a unit separator."""
        digest = hashlib.sha256()
        for part in ("exec-time", 7, "LinAlg~2", 1.5, None, ("t", 3)):
            digest.update(repr(part).encode("utf-8"))
            digest.update(b"\x1f")
        assert stable_seed("exec-time", 7, "LinAlg~2", 1.5, None, ("t", 3)) == (
            int.from_bytes(digest.digest()[:8], "little")
        )

    def test_numpy_scalars_hash_as_python_values(self):
        """NumPy 2 changed scalar reprs (``np.int64(5)``, was ``5``); a
        seed must not depend on the installed NumPy."""
        assert stable_seed(np.int64(5), np.float64(1.5)) == stable_seed(5, 1.5)
        assert stable_seed(np.uint8(5), np.str_("fn"), np.bool_(True)) == stable_seed(
            5, "fn", True
        )


class TestRngFor:
    def test_same_parts_same_stream(self):
        a = rng_for("x", 3).integers(0, 1000, 10)
        b = rng_for("x", 3).integers(0, 1000, 10)
        assert list(a) == list(b)

    def test_different_parts_different_stream(self):
        a = rng_for("x", 3).integers(0, 1000, 10)
        b = rng_for("x", 4).integers(0, 1000, 10)
        assert list(a) != list(b)


EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1)


def _numpy_state(seed: int) -> tuple[int, int]:
    state = np.random.PCG64(seed).state["state"]
    return state["state"], state["inc"]


def _kernel_states(seeds) -> list[tuple[int, int]]:
    raw = pcg64_seed_states(np.array(seeds, dtype=np.uint64)).tobytes()
    return [
        (
            int.from_bytes(raw[at : at + 16], "little"),
            int.from_bytes(raw[at + 16 : at + 32], "little"),
        )
        for at in range(0, len(raw), 32)
    ]


class TestBatchedSeeding:
    """The vectorised re-statement of ``SeedSequence`` + PCG64 seeding
    against numpy itself.  NumPy promises both streams (NEP 19); should
    a release ever change one, this is what fails."""

    def test_edge_seeds(self):
        assert _kernel_states(EDGE_SEEDS) == [_numpy_state(s) for s in EDGE_SEEDS]

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_states_equal_numpys(self, seeds):
        assert _kernel_states(seeds) == [_numpy_state(s) for s in seeds]

    def test_shape_and_empty_batch(self):
        assert pcg64_seed_states(np.zeros(0, dtype=np.uint64)).shape == (0, 4)
        assert pcg64_seed_states(np.arange(5, dtype=np.uint64)).shape == (5, 4)

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    @example(list(EDGE_SEEDS))
    def test_first_words_equal_numpys(self, seeds):
        words = pcg64_first_words(pcg64_seed_states(np.array(seeds, dtype=np.uint64)))
        assert words.tolist() == [int(np.random.PCG64(s).random_raw()) for s in seeds]


def _reference_draw(request_id, function, sigma) -> float:
    rng = rng_for("exec-time", request_id, function)
    return float(rng.lognormal(mean=-0.5 * sigma * sigma, sigma=sigma))


#: Ids as Python ints (past 64 bits too) and as NumPy ints; names with
#: quotes, backslashes and non-ASCII characters, whose ``repr`` escapes
#: or keeps them.
request_ids = st.one_of(
    st.integers(-(2**70), 2**70),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 2**32 - 1).map(np.uint32),
)
names = st.one_of(
    st.text(max_size=12),
    st.text(max_size=6).map(np.str_),
    st.sampled_from(["Vanilla", "it's", 'say "hi"', "both'\"", "back\\slash", "naïve", "λ→∞", "\x1f"]),
)
request_keys = st.tuples(request_ids, names)
sigmas = st.floats(min_value=1e-6, max_value=3.0, allow_nan=False)


def _prime(sampler, keys, sigma) -> None:
    sampler.prime(keys, [-0.5 * sigma * sigma] * len(keys), [sigma] * len(keys))


#: ``("exec-time", i, "Vanilla")`` keys whose first word falls on layer 1
#: (159), in layer 0's tail (10347), on layer 0 under its bound (241),
#: and in layer 11's wedge (112); found by searching ids 0-200,000.
PINNED_IDS = (159, 10347, 241, 112)

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _first_word_split(keys) -> tuple[np.ndarray, np.ndarray]:
    """Layer and magnitude of each ``exec-time`` key's first word."""
    seeds = np.array([stable_seed("exec-time", *key) for key in keys], dtype=np.uint64)
    words = pcg64_first_words(pcg64_seed_states(seeds))
    return (words & np.uint64(0xFF)).astype(int), (words >> np.uint64(9)) & np.uint64(2**52 - 1)


def _state_putting_out(word: int, inc: int = 0xDA3E39CB94B95BDB) -> tuple[int, int, int, int]:
    """A ``(lo, hi, inc_lo, inc_hi)`` state whose first output is
    ``word``: after one step it is ``word`` itself (XSL-RR of a state
    with a zero high half is its low half)."""
    state = (word - inc) * pow(_PCG_MULT, -1, 2**128) % 2**128
    mask = 2**64 - 1
    return state & mask, state >> 64, inc & mask, inc >> 64


def _generator_at(row) -> np.random.Generator:
    lo, hi, inc_lo, inc_hi = (int(v) for v in row)
    bit_generator = np.random.PCG64(0)
    state = bit_generator.state
    state["state"] = {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo}
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def _lognormal_from(row, mean, sigma) -> float:
    return float(_generator_at(row).lognormal(mean, sigma))


def _normal_from(row) -> float:
    return float(_generator_at(row).standard_normal())


def _numpy_k(layer: int) -> int:
    """The least magnitude numpy does not settle on one word at ``layer``."""
    normal = _util._crafted_normal()
    low, high = 0, 2**52
    while low < high:
        middle = (low + high) // 2
        if normal(layer | middle << 9)[1]:
            low = middle + 1
        else:
            high = middle
    return low


class TestSeededLognormal:
    @given(
        st.lists(request_keys, min_size=1, max_size=12, unique=True),
        st.lists(request_keys, max_size=12, unique=True),
        st.lists(request_keys, max_size=6, unique=True),
        sigmas,
    )
    @example([(0, "Vanilla")], [(1, "Vanilla~3")], [(2, "it's")], 0.08)
    @example([(np.int64(7), 'say "hi"'), (8, "naïve")], [(np.int64(9), "back\\slash")], [], 0.3)
    @example([(159, "Vanilla")], [(10347, "Vanilla"), (241, "Vanilla")], [(112, "Vanilla")], 0.3)
    @settings(max_examples=100, deadline=None)
    def test_draws_equal_rng_for(self, first_chunk, second_chunk, never_primed, sigma):
        """Keys of the primed chunk, keys never primed, and keys of an
        earlier chunk: every draw is the one a fresh ``rng_for``
        generator makes."""
        never_primed = [k for k in never_primed if k not in first_chunk + second_chunk]
        sampler = SeededLognormal("exec-time")
        mean = -0.5 * sigma * sigma

        def assert_reference(keys):
            for key in keys:
                assert sampler.draw(key, mean, sigma) == _reference_draw(*key, sigma)

        assert_reference(never_primed)
        _prime(sampler, first_chunk, sigma)
        assert_reference(first_chunk + never_primed)
        _prime(sampler, second_chunk, sigma)  # the chunk boundary
        assert_reference(second_chunk + first_chunk + never_primed)

    @given(
        st.lists(request_keys, min_size=16, max_size=80, unique=True),
        st.lists(sigmas, min_size=1, max_size=4),
    )
    @example([(i, "Vanilla") for i in PINNED_IDS], [0.3])
    @example([(i, "Vanilla") for i in PINNED_IDS], [1e-6, 3.0, 0.08])
    @settings(max_examples=60, deadline=None)
    def test_array_path_draws_equal_rng_for(self, keys, sigma_cycle):
        """Batches large enough to hold fallback keys, each key with its
        own sigma: settled and fallback keys alike draw numpy's value."""
        key_sigmas = [sigma_cycle[i % len(sigma_cycle)] for i in range(len(keys))]
        sampler = SeededLognormal("exec-time")
        sampler.prime(keys, [-0.5 * s * s for s in key_sigmas], key_sigmas)
        for key, sigma in zip(keys, key_sigmas):
            assert sampler.draw(key, -0.5 * sigma * sigma, sigma) == _reference_draw(*key, sigma)

    def test_pinned_ids_reach_every_fallback(self):
        """What :data:`PINNED_IDS` stand for: their first words fall on
        layer 1, layer 0's tail, a wedge, and one settled key of layer 0."""
        widths, bounds = _util._one_word_tables()
        layer, magnitude = _first_word_split([(i, "Vanilla") for i in PINNED_IDS])
        settled = magnitude < bounds[layer]
        assert layer.tolist()[:3] == [1, 0, 0] and layer[3] > 1
        assert settled.tolist() == [False, False, True, False]

    def test_a_magnitude_between_bound_and_k_goes_to_numpy(self):
        """Between a layer's bound and numpy's ``k`` numpy reads one
        word, but no real seed lands there in a test's lifetime: crafted
        states take each layer's magnitudes around its bound, both signs,
        through the array passes and through numpy."""
        widths, bounds = _util._one_word_tables()
        normal = _util._crafted_normal()
        words, expect_numpy = [], []
        for layer in (0, 1, 2, 3, 127, 254, 255):
            bound = int(bounds[layer])
            for magnitude in {0, 1, max(bound - 1, 0), bound, bound + 1, 2**52 - 1}:
                for sign in (0, 1):
                    words.append(layer | sign << 8 | magnitude << 9)
                    expect_numpy.append(magnitude >= bound)
            if bound:
                assert normal(layer | bound << 9)[1]  # one word: inside [bound, k)
        states = np.array([_state_putting_out(word) for word in words], dtype="<u8")
        means, sigma_list = [-0.02] * len(words), [0.2] * len(words)
        values, rows = _util._one_word_lognormals(states, means, sigma_list)
        assert rows == [row for row, fallback in enumerate(expect_numpy) if fallback]
        for row in set(range(len(words))) - set(rows):
            assert values[row] == _lognormal_from(states[row], -0.02, 0.2)

    def test_tables_are_numpys(self):
        """``w[i]`` is numpy's draw at magnitude 1 on a stream crafted
        here, apart from the kernel's; every bound is at most numpy's
        ``k`` (found by bisection) and at most 2 below it."""
        widths, bounds = _util._one_word_tables()
        fresh = _util._read_one_word_tables(_util._crafted_normal())
        assert np.array_equal(fresh[0], widths) and np.array_equal(fresh[1], bounds)
        for layer in range(256):
            assert _normal_from(_state_putting_out(layer | 1 << 9)) == widths[layer]
            k = _numpy_k(layer)
            assert k - 2 <= int(bounds[layer]) <= k

    def test_a_layer_failing_its_check_is_left_to_numpy(self, monkeypatch):
        """A proof draw that reads a second word (or returns another
        value) zeroes its layer's bound; that layer's keys still draw
        numpy's value."""
        keys = [(i, "Vanilla") for i in range(1024)]
        layers, _ = _first_word_split(keys)
        failing = int(layers[0])  # layer 91, with 8 of the keys
        normal = _util._crafted_normal()

        def broken(word):
            value, one_word = normal(word)
            if word & 0xFF == failing and word >> 9 > 1:
                return value, False
            return value, one_word

        widths, bounds = _util._read_one_word_tables(broken)
        _, honest = _util._one_word_tables()
        assert bounds[failing] == 0 and honest[failing] > 0
        assert np.array_equal(np.delete(bounds, failing), np.delete(honest, failing))
        monkeypatch.setattr(_util, "_one_word_tables", lambda: (widths, bounds))
        sampler = SeededLognormal("exec-time")
        _prime(sampler, keys, 0.3)
        for key in keys:
            assert sampler.draw(key, -0.045, 0.3) == _reference_draw(*key, 0.3)

    def test_prime_keeps_undrawn_keys_and_draw_pops(self, monkeypatch):
        """A key primed in an earlier batch is read, not drawn again,
        and each read forgets it: only a key never primed (or drawn
        twice) is drawn on its own."""
        sampler = SeededLognormal("exec-time")
        batches = []
        draw_many = sampler._draw_many
        monkeypatch.setattr(
            sampler,
            "_draw_many",
            lambda keys, *rest: batches.append(len(keys)) or draw_many(keys, *rest),
        )
        first = [(i, "f") for i in range(20)]
        second = [(i, "f") for i in range(20, 40)]
        _prime(sampler, first, 0.2)
        _prime(sampler, second, 0.2)
        values = [sampler.draw(key, -0.02, 0.2) for key in first + second]
        assert batches == [20, 20] and not sampler._drawn
        assert sampler.draw(first[0], -0.02, 0.2) == values[0]
        assert batches == [20, 20, 1]

    def test_each_key_drawn_with_its_own_parameters(self):
        keys = [(i, f"f{i % 3}") for i in range(9)]
        sigmas = [0.05 * (1 + i % 3) for i in range(9)]
        sampler = SeededLognormal("exec-time")
        sampler.prime(keys, [-0.5 * s * s for s in sigmas], sigmas)
        for key, sigma in zip(keys, sigmas):
            assert sampler.draw(key, -0.5 * sigma * sigma, sigma) == _reference_draw(*key, sigma)

    def test_draws_do_not_depend_on_order_or_repetition(self):
        keys = [(i, "LinAlg") for i in range(6)]
        sampler = SeededLognormal("exec-time")
        sampler.prime(keys, [0.0] * 6, [0.2] * 6)
        forward = [sampler.draw(key, 0.0, 0.2) for key in keys]
        backward = [sampler.draw(key, 0.0, 0.2) for key in reversed(keys)]
        assert forward == backward[::-1]
        assert len(set(forward)) == len(keys)

    def test_label_is_part_of_the_seed(self):
        a = SeededLognormal("exec-time").draw((1, "f"), 0.0, 0.2)
        b = SeededLognormal("other").draw((1, "f"), 0.0, 0.2)
        assert a == float(rng_for("exec-time", 1, "f").lognormal(0.0, 0.2)) != b


class TestHashBytes:
    def test_deterministic(self):
        assert hash_bytes(b"hello") == hash_bytes(b"hello")

    def test_truncation_bits(self):
        for bits in (8, 16, 40, 64):
            assert hash_bytes(b"data", bits) < 2**bits

    def test_truncation_is_prefix_consistent(self):
        full = hash_bytes(b"data", 64)
        assert hash_bytes(b"data", 16) == full & 0xFFFF

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            hash_bytes(b"x", 0)
        with pytest.raises(ValueError):
            hash_bytes(b"x", 161)

    @given(st.binary(max_size=64), st.binary(max_size=64))
    def test_distinct_inputs_rarely_collide_at_64_bits(self, a, b):
        if a != b:
            # Not a collision proof, just a sanity property on samples.
            assert hash_bytes(a) != hash_bytes(b) or len(a) + len(b) > 0

    def test_hash_bytes_many_matches_scalar(self):
        chunks = [bytes([i] * 64) for i in range(20)] + [b"", b"x"]
        for bits in (8, 32, 63, 64):
            batched = hash_bytes_many(chunks, bits)
            assert batched.dtype == np.uint64
            assert batched.tolist() == [hash_bytes(c, bits) for c in chunks]
        with pytest.raises(ValueError):
            hash_bytes_many(chunks, 65)
        with pytest.raises(ValueError):
            hash_bytes_many(chunks, 0)


class TestRoundUp:
    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=10**6))
    def test_result_is_multiple_and_minimal(self, value, multiple):
        result = round_up(value, multiple)
        assert result % multiple == 0
        assert result >= value
        assert result - value < multiple

    def test_rejects_non_positive_multiple(self):
        with pytest.raises(ValueError):
            round_up(5, 0)


class TestPercentile:
    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 50))

    def test_single_value(self):
        assert percentile([7.0], 99) == 7.0

    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    def test_within_min_max(self, values):
        p = percentile(values, 90)
        assert min(values) - 1e-9 <= p <= max(values) + 1e-9


class TestFormatting:
    def test_fmt_bytes(self):
        assert fmt_bytes(512) == "512B"
        assert fmt_bytes(2048) == "2.0KB"
        assert fmt_bytes(3 * 1024 * 1024) == "3.0MB"

    def test_fmt_ms(self):
        assert fmt_ms(0.5) == "500us"
        assert fmt_ms(12.34) == "12.3ms"
        assert fmt_ms(2500) == "2.50s"
