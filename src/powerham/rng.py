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
* ``shuffle``: Fisher-Yates from the top index down, partner drawn with
  ``below(i + 1)``.
"""

from __future__ import annotations

from fractions import Fraction

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


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
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


DEFAULT_SEED = 1729
