import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerham.constants import (MAX_K, MIN_MU, FactoredRational,
                                absorber_constants, connector_constants,
                                exact_json, fmin, main_constants,
                                path_constants)
from powerham.errors import InputError, SizeError

FR = FactoredRational


# ---------------------------------------------------------------- rationals

small_fracs = st.fractions(min_value=Fraction(-50), max_value=Fraction(50),
                           max_denominator=60)


@settings(max_examples=150, deadline=None)
@given(small_fracs, small_fracs)
def test_factored_mul_div_matches_fraction(a, b):
    fa, fb = FR.from_fraction(a), FR.from_fraction(b)
    assert (fa * fb).to_fraction() == a * b
    if b != 0:
        assert (fa / fb).to_fraction() == a / b
        assert ((fa < fb) == (a < b)) and ((fa == fb) == (a == b))


@settings(max_examples=60, deadline=None)
@given(small_fracs, st.integers(-6, 6))
def test_factored_pow_matches_fraction(a, e):
    if a == 0 and e <= 0:
        return
    assert (FR.from_fraction(a) ** e).to_fraction() == a ** e


def test_factored_huge_exponents():
    big = FR.from_fraction(2) ** (10 ** 9)
    assert (big / big).to_fraction() == 1
    other = FR.from_fraction(3) ** 600_000_000
    # 10^9 log10(2) = 3.01e8 beats 6e8 log10(3) = 2.86e8
    assert big > other
    with pytest.raises(SizeError):
        big.to_fraction()


def test_factored_rejects_unfactorable():
    with pytest.raises(InputError):
        FR.from_fraction(Fraction(2 ** 89 - 1))  # Mersenne prime, way too big
    # a cofactor past Python's int-to-str digit limit is still reported
    with pytest.raises(InputError, match="bit cofactor"):
        FR.from_fraction(Fraction(1, 1_000_003 ** 720))
    # but a moderately large prime is fine
    assert FR.from_fraction(1_000_003).to_fraction() == 1_000_003


def test_fmin_mixes_fractions_and_factored():
    tiny = FR.from_fraction(2) ** (-10 ** 7)
    assert fmin(Fraction(1, 3), tiny, 5) == tiny
    assert fmin(Fraction(1, 3), Fraction(1, 4)).to_fraction() == Fraction(1, 4)


def test_factored_json_forms():
    assert FR.from_fraction(Fraction(-3, 8)).to_json() == "-3/8"
    j = (FR.from_fraction(2) ** (-10 ** 9) * FR.from_fraction(3)).to_json()
    assert j["factors"] == {"2": -(10 ** 9), "3": 1}
    assert j["sign"] == 1 and j["log10"] < -2 * 10 ** 8


# ----------------------------------------------------------- the schedules

def test_path_constants_fixture():
    pc = path_constants(Fraction(1, 2), 2)
    assert pc.rho == Fraction(1, 96)
    assert pc.zeta == Fraction(1, 72)


def test_connector_constants_fixture():
    cc = connector_constants(Fraction(1, 2), Fraction(1, 2), Fraction(1, 4), 2)
    assert cc.L == 16
    assert cc.M == 36
    # xi0 = zeta^2 c / (L+1) with c = 1/(192 * 12^16 * 2^72)
    assert cc.xi0 == Fraction(1, 2 ** 114 * 3 ** 17 * 17)
    # closed form by hand: xi = (1/64)^((3^18-1)/2) * xi0^(3^18) / 2
    e = 3 ** 18
    expect = (FR.from_fraction(Fraction(1, 64)) ** ((e - 1) // 2)
              * FR.from_fraction(cc.xi0) ** e) / 2
    assert cc.xi == expect
    assert cc.rho == FR.from_fraction(Fraction(1, 64)) * cc.xi * cc.xi
    with pytest.raises(SizeError):
        cc.xi.to_fraction()


def test_connector_closed_form_matches_explicit_recursion():
    cc = connector_constants(Fraction(1, 2), Fraction(1, 2), Fraction(1, 4), 2)
    xi = FR.from_fraction(cc.xi0)
    b = FR.from_fraction(Fraction(1, 8))  # d^C(k,2) / (2 k!)
    half = FR.from_fraction(Fraction(1, 2))
    for _ in range(cc.L + 2):
        xi = b * (xi * half) ** 3
    assert cc.xi == xi * half


def test_connector_small_case_materializes():
    # mu=1, k=1 keeps everything small enough for Fractions end to end
    cc = connector_constants(Fraction(1, 2), Fraction(1), Fraction(1, 2), 1)
    assert cc.L == 8 and cc.M == 10
    xi = cc.xi0
    for _ in range(10):
        xi = Fraction(1, 2) * (xi / 2) ** 2
    assert cc.xi.to_fraction(max_digits=50000) == xi / 2
    assert cc.rho.to_fraction(max_digits=50000) == Fraction(1, 8) * (xi / 2) ** 2


def test_absorber_constants_fixture():
    ac = absorber_constants(Fraction(1, 2), Fraction(1, 2), 2)
    assert ac.zeta == Fraction(1, 2 ** 22)
    assert ac.M == 68  # connector at mu/2 = 1/4: L = 32, M = 34k
    assert ac.alpha == Fraction(1, 2592 * 2 ** 44)
    inner = connector_constants(Fraction(1, 2), Fraction(1, 4), ac.zeta / 2, 2)
    assert ac.rho == inner.rho / 4
    assert ac.rho < Fraction(1, 819200)  # the mu^2 cap never binds here


def test_main_constants_fixture():
    mc = main_constants(Fraction(1, 2), Fraction(1, 2), 2)
    assert mc.zeta == Fraction(1, 373248 * 2 ** 44)  # alpha_A zeta_P / 2
    assert mc.reservoir_rate == Fraction(1, 2592 * 2 ** 46)  # alpha_A / 4
    assert mc.connector.zeta == mc.zeta and mc.connector.mu == Fraction(1, 4)
    assert mc.rho == mc.connector.rho / 4
    assert mc.path.rho == Fraction(1, 96) and mc.absorber.M == 68


def test_constants_validate_inputs():
    with pytest.raises(InputError):
        path_constants(Fraction(0), 2)
    with pytest.raises(InputError):
        path_constants(Fraction(1, 2), 0)
    with pytest.raises(InputError):
        connector_constants(Fraction(1, 2), Fraction(3, 2), Fraction(1, 4), 2)
    with pytest.raises(InputError):
        absorber_constants(Fraction(1, 2), Fraction(1, 2), -1)


def test_constants_refuse_inputs_past_the_limits():
    below = MIN_MU * Fraction(99, 100)
    for call in (lambda: main_constants(Fraction(1, 2), below, 1),
                 lambda: absorber_constants(Fraction(1, 2), below, 1),
                 lambda: connector_constants(Fraction(1, 2), below / 2,
                                             Fraction(1, 4), 1),
                 lambda: path_constants(Fraction(1, 2), MAX_K + 1),
                 lambda: main_constants(Fraction(1, 2), Fraction(1, 2),
                                        MAX_K + 1)):
        with pytest.raises(SizeError):
            call()
    # the composed schedules evaluate the connector at mu/2
    assert main_constants(Fraction(1, 2), MIN_MU, 1).connector.mu == MIN_MU / 2
    assert connector_constants(Fraction(1, 2), MIN_MU / 2, Fraction(1, 4),
                               MAX_K).L == 2 * 8 / MIN_MU


def test_exact_json_falls_back_past_the_print_limit():
    assert exact_json(Fraction(-3, 8)) == "-3/8"
    j = exact_json(Fraction(1, 2 ** 20000))
    assert j == {"sign": 1, "log10": round(-20000 * math.log10(2), 6),
                 "factors": {"2": -20000}}


def test_json_shapes():
    mc = main_constants(Fraction(1, 2), Fraction(1, 2), 2)
    d = mc.to_json_dict()
    assert d["reservoir_rate"] == f"1/{2592 * 2 ** 46}"
    assert d["path"]["rho"] == "1/96"
    assert d["connector"]["xi"]["sign"] == 1
    assert isinstance(d["connector"]["xi"]["log10"], float)
