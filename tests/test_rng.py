"""Reference vectors and exactness checks for the seeded generator."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerham import rng
from powerham.rng import SplitMix64

import oracles

# Any port of the generator must reproduce these words verbatim.
REFERENCE_WORDS = {
    0: [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
        0xF88BB8A8724C81EC],
    1: [0x910A2DEC89025CC1, 0xBEEB8DA1658EEC67, 0xF893A2EEFB32555E,
        0x71C18690EE42C90B],
    0x123456789ABCDEF: [0x157A3807A48FAA9D, 0xD573529B34A1D093,
                        0x2F90B72E996DCCBE, 0xA2D419334C4667EC],
    1729: [0xC027D2A98BBA7194, 0x4E4D58FAA87007D9, 0x95CC471323C889A6,
           0x8F3124A006C536DC],
}

# ... and shuffle list(range(10)) into these permutations.
REFERENCE_SHUFFLES = {
    0: [6, 3, 2, 9, 8, 1, 4, 7, 0, 5],
    1729: [3, 5, 0, 1, 2, 4, 8, 9, 7, 6],
}


def test_reference_vectors():
    for seed, words in REFERENCE_WORDS.items():
        r = SplitMix64(seed)
        assert [r.next_u64() for _ in range(len(words))] == words


def test_streams_are_reproducible():
    a = SplitMix64(99)
    b = SplitMix64(99)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_below_range_and_determinism():
    r = SplitMix64(42)
    draws = [r.below(10) for _ in range(200)]
    assert all(0 <= d < 10 for d in draws)
    r2 = SplitMix64(42)
    assert draws == [r2.below(10) for _ in range(200)]


def test_chance_is_exact_at_endpoints():
    r = SplitMix64(7)
    assert all(r.chance(Fraction(1)) for _ in range(100))
    assert not any(r.chance(Fraction(0)) for _ in range(100))


def test_chance_frequency_sane():
    r = SplitMix64(42)
    hits = sum(r.chance(Fraction(1, 3)) for _ in range(3000))
    # mean 1000, sd ~ 25.8; allow 5 sd
    assert abs(hits - 1000) < 130


def test_shuffle_permutation_and_determinism():
    r = SplitMix64(3)
    items = list(range(30))
    r.shuffle(items)
    assert sorted(items) == list(range(30))
    r2 = SplitMix64(3)
    again = list(range(30))
    r2.shuffle(again)
    assert items == again


def test_guard_rails():
    r = SplitMix64(1)
    with pytest.raises(ValueError):
        r.below(0)
    with pytest.raises(ValueError):
        r.chance(Fraction(3, 2))


def test_reference_shuffles():
    for seed, perm in REFERENCE_SHUFFLES.items():
        items = list(range(10))
        SplitMix64(seed).shuffle(items)
        assert items == perm


def assert_words_match(seed, count):
    bulk, single = SplitMix64(seed), SplitMix64(seed)
    assert list(bulk.words(count)) == [single.next_u64() for _ in range(count)]
    assert bulk.state == single.state


@pytest.mark.parametrize("seed", [0, 1729, 2 ** 64 - 1, 2 ** 70 + 3])
@pytest.mark.parametrize("count", [0, 1, 2, 63, 64, 65, 1000])
def test_words_match_next_u64(seed, count):
    assert_words_match(seed, count)


def test_words_grow_the_lane_cache(monkeypatch):
    monkeypatch.setattr(rng, "_lanes", (0, 0, 0, 0))
    assert_words_match(5, 3)
    assert_words_match(5, 700)
    assert rng._lanes[0] >= 700
    assert_words_match(5, 2)


def test_words_interleave_with_single_draws():
    bulk, single = SplitMix64(77), SplitMix64(77)
    got, want = [], []
    for count in (3, 0, 1, 40, 7):
        got.append(bulk.next_u64())
        got.extend(bulk.words(count))
        got.append(bulk.below(1000))
        want.append(single.next_u64())
        want.extend(single.next_u64() for _ in range(count))
        want.append(single.below(1000))
    assert got == want
    assert bulk.state == single.state


def test_words_rejects_a_negative_count():
    with pytest.raises(ValueError):
        SplitMix64(1).words(-1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 80), st.integers(0, 300))
def test_words_match_next_u64_for_any_seed(seed, count):
    assert_words_match(seed, count)


@pytest.mark.parametrize("length", [0, 1, 2, 3, 60, 300, 601])
def test_shuffle_matches_per_word_oracle(length):
    for seed in (0, 1, 1729, 2 ** 64 - 1):
        items, want = list(range(length)), list(range(length))
        a, b = SplitMix64(seed), SplitMix64(seed)
        a.shuffle(items)
        oracles.per_word_shuffle(b, want)
        assert items == want
        assert a.state == b.state
