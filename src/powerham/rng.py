"""Deterministic 64-bit RNG used everywhere randomness is needed.

The generator is SplitMix64: state advances by the additive constant
0x9E3779B97F4A7C15 modulo 2**64, and each output mixes the new state with

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

All arithmetic is modulo 2**64.  The algorithm is stated here in full so a
port in any language reproduces identical graphs and pipeline runs from the
same seed; `test_rng.py` pins reference output words that any port must
match.

Derived conveniences and their exact contracts:

* ``below(m)``: ``next_u64() % m`` (one word; the modulo bias is irrelevant
  for shuffling and sampling, and keeping the rule trivial aids porting).
* ``chance(p)``: draws one word ``u`` and accepts iff ``u * q < p_num *
  2**64`` where ``p = p_num / q`` in lowest terms; exact for rational ``p``.
* ``words(count)``: the words and end state of ``count`` ``next_u64()``
  calls, mixed at once in 128-bit lanes of one int; O(count) memory a call.
* ``shuffle``: Fisher-Yates from the top index down, partner ``w % (i + 1)``
  (``below(i + 1)``'s rule), the words w from one ``words(len - 1)`` call.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

# (cap, ones, low, steps): cap 128-bit lanes of 1, of 2**64 - 1 and, top
# lane down, of t * gamma for t = 1..cap (word t mixes state + t * gamma)
_lanes = (0, 0, 0, 0)


def _lane_constants(count: int) -> list[int]:
    global _lanes
    cap, *lanes = _lanes   # read once: another thread may swap in a smaller cap
    if count > cap:
        cap = max(count, 2 * cap)
        ones = int.from_bytes((1).to_bytes(16, "little") * cap, "little")
        steps = b"".join((t * _GAMMA).to_bytes(16, "little")
                         for t in range(cap, 0, -1))
        lanes = [ones, ones * _MASK64, int.from_bytes(steps, "little")]
        _lanes = (cap, *lanes)
    return [lane >> 128 * (cap - count) for lane in lanes]


class SplitMix64:
    """Counter-based 64-bit generator with a tiny, portable state."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def words(self, count: int) -> array:
        """The next ``count`` words; lane i of ``z`` holds word count - i,
        masked to 64 bits before each multiply so no carry crosses lanes."""
        if count < 0:
            raise ValueError("words() needs a count >= 0")
        ones, low, steps = _lane_constants(count)
        z = (self.state * ones + steps) & low
        z = (((z ^ (z >> 30)) & low) * _MIX1) & low
        z = (((z ^ (z >> 27)) & low) * _MIX2) & low
        z ^= z >> 31
        self.state = (self.state + count * _GAMMA) & _MASK64
        out = array("Q", z.to_bytes(16 * count, "little"))
        if sys.byteorder == "big":
            out.byteswap()
        return out[-2::-2]

    def below(self, m: int) -> int:
        """Uniform-ish integer in [0, m); m must be positive."""
        if m <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % m

    def chance(self, p: Fraction) -> bool:
        """True with probability exactly p (rational in [0, 1])."""
        if p < 0 or p > 1:
            raise ValueError("probability out of [0, 1]")
        u = self.next_u64()
        return u * p.denominator < p.numerator << 64

    def shuffle(self, items: list) -> None:
        top = len(items) - 1
        for i, w in zip(range(top, 0, -1), self.words(max(top, 0))):
            j = w % (i + 1)
            items[i], items[j] = items[j], items[i]


DEFAULT_SEED = 1729
