"""Tests for repro._util helpers."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro._util import (
    SeededLognormal,
    fmt_bytes,
    fmt_ms,
    hash_bytes,
    pcg64_seed_states,
    percentile,
    rng_for,
    round_up,
    stable_seed,
)


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


def _reference_draw(request_id, function, sigma) -> float:
    rng = rng_for("exec-time", request_id, function)
    return float(rng.lognormal(mean=-0.5 * sigma * sigma, sigma=sigma))


request_keys = st.tuples(
    st.integers(-(2**70), 2**70), st.text(max_size=12)
)
sigmas = st.floats(min_value=1e-6, max_value=3.0, allow_nan=False)


class TestSeededLognormal:
    @given(
        st.lists(request_keys, min_size=1, max_size=12, unique=True),
        st.lists(request_keys, max_size=12, unique=True),
        sigmas,
    )
    @example([(0, "Vanilla")], [(1, "Vanilla~3")], 0.08)
    @settings(max_examples=100, deadline=None)
    def test_draws_equal_rng_for(self, first_chunk, second_chunk, sigma):
        """Primed, never primed, and primed a chunk ago: every draw is
        the one a fresh ``rng_for`` generator makes."""
        sampler = SeededLognormal("exec-time")
        mean = -0.5 * sigma * sigma
        assert sampler.draw(first_chunk[0], mean, sigma) == _reference_draw(
            *first_chunk[0], sigma
        )
        sampler.prime(first_chunk)
        for key in first_chunk:
            assert sampler.draw(key, mean, sigma) == _reference_draw(*key, sigma)
        sampler.prime(second_chunk)  # the chunk boundary: first_chunk is gone
        for key in first_chunk + second_chunk:
            assert sampler.draw(key, mean, sigma) == _reference_draw(*key, sigma)

    def test_draws_do_not_depend_on_order_or_repetition(self):
        keys = [(i, "LinAlg") for i in range(6)]
        sampler = SeededLognormal("exec-time")
        sampler.prime(keys)
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
