"""numpy's draw routines on PCG64 output words, transcribed line for line.

``Generator.integers(0, 256, dtype=uint8)``, ``Generator.random`` and
``Generator.integers(0, n)`` for ``n <= 2**32`` are fixed arithmetic on
the 64-bit words a PCG64 puts out.  :class:`WordStream` is that
arithmetic in straight-line Python, one method per C routine
(``numpy/random/src/pcg64/pcg64.h``,
``numpy/random/src/distributions/distributions.c``), fed from any
sequence of words — a live generator's ``random_raw`` or words crafted
to reach a branch no real seed reaches in a test's lifetime.
``tests/memory/test_synth_kernel.py`` checks it against a live
``Generator`` and then uses it to judge ``memory/synth.py``'s decoder.
"""

from __future__ import annotations

from typing import Iterable


class WordStream:
    """A PCG64 reduced to its output words and its one-slot 32-bit buffer."""

    def __init__(self, words: Iterable[int]) -> None:
        self._words = iter(words)
        self.has_uint32 = False
        self._uinteger = 0
        #: Lemire draws rejected so far, split by whether a half-word was
        #: buffered when the rejected draw was taken.
        self.rejected = {True: 0, False: 0}

    def next_uint64(self) -> int:
        """``pcg64_next64``: the next word; the 32-bit buffer is not touched."""
        return int(next(self._words))

    def next_uint32(self) -> int:
        """``pcg64_next32``: low half of a fresh word, then its high half."""
        if self.has_uint32:
            self.has_uint32 = False
            return self._uinteger
        word = self.next_uint64()
        self.has_uint32 = True
        self._uinteger = word >> 32
        return word & 0xFFFFFFFF

    def next_double(self) -> float:
        """``next_double``: 53 bits of a word, scaled into ``[0, 1)``."""
        return (self.next_uint64() >> 11) * (1.0 / 9007199254740992.0)

    def uint8_fill(self, count: int) -> bytes:
        """``random_bounded_uint8_fill`` over the full range (``rng == 0xFF``).

        ``buffered_uint8``: four bytes out of every 32-bit draw, lowest
        first; the byte buffer lives and dies with the call.
        """
        out = bytearray()
        buf = bcnt = 0
        for _ in range(count):
            if not bcnt:
                buf = self.next_uint32()
                bcnt = 3
            else:
                buf >>= 8
                bcnt -= 1
            out.append(buf & 0xFF)
        return bytes(out)

    def bounded_lemire_uint32(self, rng_excl: int) -> int:
        """``buffered_bounded_lemire_uint32`` for the range ``[0, rng_excl)``."""
        buffered = self.has_uint32
        m = self.next_uint32() * rng_excl
        leftover = m & 0xFFFFFFFF
        if leftover < rng_excl:
            threshold = (0x100000000 - rng_excl) % rng_excl
            while leftover < threshold:
                self.rejected[buffered] += 1
                buffered = self.has_uint32
                m = self.next_uint32() * rng_excl
                leftover = m & 0xFFFFFFFF
        return m >> 32
