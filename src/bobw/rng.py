"""Deterministic 64-bit randomness for every sampling routine in the package.

The generator is SplitMix64: a single 64-bit counter advanced by a fixed odd
constant, with the output mixed through two xor-multiply rounds.  It is chosen
because the full state transition is integer arithmetic mod 2**64, so streams
are bit-identical across platforms and Python versions.  Bounded draws use
rejection sampling, which makes every probability in the package exact: an
event with rational probability p/q is decided by one uniform draw below q.
A bound past 2**64 draws as many 64-bit words per try as it needs.

Replica streams (for repeated sampling at a base seed) are derived by mixing
seed XOR replica-index through the output function, never by reusing the raw
seed arithmetic, so neighbouring replicas are statistically unrelated.
"""

from __future__ import annotations

from fractions import Fraction

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """SplitMix64 output mixer on a 64-bit value."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Independent per-replica seed: mix(seed XOR index)."""
    return mix64((seed ^ index) & _MASK64)


class SplitMix64:
    """Seeded generator; all draws are deterministic functions of the seed."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return mix64(self._state)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection sampling, exactly uniform."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        # Each try joins as many 64-bit words as n needs, high word first (one
        # word for every n <= 2**64), into a draw below span = 2**(64 * words),
        # and keeps draws below the largest multiple of n under span, at least
        # half of them.
        span = 1 << 64
        while span < n:
            span <<= 64
        limit = span - span % n
        while True:
            r, width = self.next64(), 1 << 64
            while width < span:
                r, width = r << 64 | self.next64(), width << 64
            if r < limit:
                return r % n

    def event(self, p: Fraction) -> bool:
        """True with probability exactly p (0 <= p <= 1).  The range check
        compares p's numerator and (positive) denominator as ints."""
        num, den = p.numerator, p.denominator
        if num < 0 or num > den:
            raise ValueError("probability out of range")
        if den == 1:
            return num == 1
        return self.below(den) < num

    def permutation(self, n: int) -> tuple[int, ...]:
        """Fisher-Yates shuffle of range(n)."""
        items = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return tuple(items)
