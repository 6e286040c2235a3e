"""Exact evaluation of the proof-grade constant schedule.

Every constant in the argument is a rational number and everything here is
computed exactly.  The catch is scale: the connection-count constant xi is
obtained by iterating xi_{i+1} = B * (xi_i / 2)^(k+1) for L+2 rounds, so
its reduced numerator and denominator already have around 10^10 digits at
the benign-looking point (d, mu, zeta, k) = (1/2, 1/2, 1/4, 2).  Such a
number cannot be materialized as a Fraction, but its prime factorization
stays tiny: every value produced here is a product of powers of the primes
appearing in the inputs.  FactoredRational stores exactly that (a sign and
a prime -> exponent map) with exact multiplication, division, integer
powers, and equality.  Order comparisons go through logarithms; distinct
values in this family differ by astronomical ratios, and exactly equal
ones are recognized before any float is touched, so the float never
decides a close call silently (a genuinely unresolvable comparison raises
instead).

The closed form used for the xi recursion: with B = d^C(k,2) / (2 k! 2^(k+1))
the iteration is xi_{i+1} = B * xi_i^(k+1), hence

    xi_i = B^(((k+1)^i - 1) / k) * xi_0^((k+1)^i)

which turns 10^10-digit arithmetic into exponent bookkeeping.

Values print through ``exact_json``, in factored form past Python's digit
limit.  Inputs past MIN_MU and MAX_K are refused before any evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from math import comb, factorial

from powerham.errors import InputError, PowerhamError, SizeError
from powerham.walks import delta_schedule

# Input limits: the schedule at mu/2 holds floor(16/mu) + 1 fractions of up
# to ~L^2/2 bits for _factor, and xi's exponents grow like (k+1)^(L+2).
MIN_MU = Fraction(1, 16)
MAX_K = 8

# Trial division bound: anything surviving it below _PRIME_CERT is prime.
_TRIAL_LIMIT = 10 ** 6
_PRIME_CERT = _TRIAL_LIMIT ** 2


def _factor(n: int) -> dict[int, int]:
    if n <= 0:
        raise InputError("can only factor positive integers")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 5
    while p <= _TRIAL_LIMIT and p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 2 if p % 3 == 2 else 4  # skip multiples of 2 and 3
    if n > 1:
        if n >= _PRIME_CERT:
            raise InputError("constant inputs must factor over small primes "
                             f"(stuck at a {n.bit_length()}-bit cofactor)")
        out[n] = out.get(n, 0) + 1
    return out


@dataclass(frozen=True)
class FactoredRational:
    """Exact rational as sign * prod(p^e); exponents may be huge."""

    sign: int
    powers: tuple[tuple[int, int], ...]  # sorted (prime, exponent), e != 0

    @staticmethod
    def _make(sign: int, factors: dict[int, int]) -> "FactoredRational":
        if sign == 0:
            return FactoredRational(0, ())
        return FactoredRational(sign, tuple(sorted(
            (p, e) for p, e in factors.items() if e != 0)))

    @classmethod
    def from_fraction(cls, q) -> "FactoredRational":
        q = Fraction(q)
        if q == 0:
            return cls(0, ())
        sign = 1 if q > 0 else -1
        factors = _factor(abs(q.numerator))
        for p, e in _factor(q.denominator).items():
            factors[p] = factors.get(p, 0) - e
        return cls._make(sign, factors)

    def log10(self) -> float:
        return math.fsum(e * math.log10(p) for p, e in self.powers)

    def _combine(self, other: "FactoredRational", flip: int) -> "FactoredRational":
        if self.sign == 0 or other.sign == 0:
            if flip < 0 and other.sign == 0:
                raise ZeroDivisionError("division by zero")
            return FactoredRational(0, ())
        factors = dict(self.powers)
        for p, e in other.powers:
            factors[p] = factors.get(p, 0) + flip * e
        return self._make(self.sign * other.sign, factors)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(other, 1)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(other, -1)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other._combine(self, -1)

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if self.sign == 0:
            if e <= 0:
                raise ZeroDivisionError("0 cannot be raised to a non-positive power")
            return self
        sign = -1 if (self.sign < 0 and e % 2) else 1
        return self._make(sign, {p: x * e for p, x in self.powers})

    def _cmp(self, other: "FactoredRational") -> int:
        if self.sign != other.sign:
            return -1 if self.sign < other.sign else 1
        if self.powers == other.powers:
            return 0
        # same sign, different value; compare magnitudes by log
        a, b = self.log10(), other.log10()
        scale = max(1.0, abs(a), abs(b))
        if abs(a - b) > 1e-9 * scale:
            mag = -1 if a < b else 1
        else:
            # logs collide: settle exactly if the quotient is small enough
            q = self._combine(other, -1)
            try:
                mag = -1 if q.to_fraction(max_digits=20000) < 1 else 1
            except SizeError:
                raise PowerhamError("cannot order nearly equal factored rationals")
        return mag * self.sign

    def __lt__(self, other):
        return self._cmp(_coerce_strict(other)) < 0

    def __le__(self, other):
        return self._cmp(_coerce_strict(other)) <= 0

    def __gt__(self, other):
        return self._cmp(_coerce_strict(other)) > 0

    def __ge__(self, other):
        return self._cmp(_coerce_strict(other)) >= 0

    def digits10(self) -> float:
        """Roughly max(decimal digits of numerator, of denominator)."""
        up = sum(e * math.log10(p) for p, e in self.powers if e > 0)
        down = -sum(e * math.log10(p) for p, e in self.powers if e < 0)
        return max(up, down)

    def to_fraction(self, max_digits: int = 10000) -> Fraction:
        if self.sign == 0:
            return Fraction(0)
        if self.digits10() > max_digits:
            raise SizeError(f"value needs ~10^{self.digits10():.3g} digits to materialize")
        num = den = 1
        for p, e in self.powers:
            if e > 0:
                num *= p ** e
            else:
                den *= p ** -e
        return Fraction(self.sign * num, den)

    def to_json(self):
        """Exact "p/q" when printable, else sign/log10/factor map."""
        try:
            return str(self.to_fraction(max_digits=400))
        except SizeError:
            return {"sign": self.sign, "log10": round(self.log10(), 6),
                    "factors": {str(p): e for p, e in self.powers}}

    def __str__(self):
        return exact_text(self)


def _coerce(x):
    if isinstance(x, FactoredRational):
        return x
    if isinstance(x, (int, Fraction)):
        return FactoredRational.from_fraction(Fraction(x))
    return None


def _coerce_strict(x) -> FactoredRational:
    fr = _coerce(x)
    if fr is None:
        raise TypeError(f"cannot compare FactoredRational with {type(x).__name__}")
    return fr


def fmin(*values) -> FactoredRational:
    best = None
    for v in values:
        fr = _coerce_strict(v)
        if best is None or fr < best:
            best = fr
    if best is None:
        raise InputError("fmin needs at least one value")
    return best


def exact_json(q):
    """"p/q", or the factored map past ``sys.get_int_max_str_digits()``."""
    if isinstance(q, FactoredRational):
        return q.to_json()
    try:
        return str(Fraction(q))       # "p/q", or "p" when q = 1
    except ValueError:
        return FactoredRational.from_fraction(q).to_json()


def exact_text(q) -> str:
    """``exact_json`` as text: the exact value, or ~10^x for the map."""
    j = exact_json(q)
    return j if isinstance(j, str) else f"~10^{j['log10']:.6g}"


def _check_inputs(d=None, mu=None, zeta=None, k=None, mu_min=MIN_MU):
    if d is not None and not 0 < Fraction(d) <= 1:
        raise InputError("d must be in (0, 1]")
    if mu is not None and not 0 < Fraction(mu) <= 1:
        raise InputError("mu must be in (0, 1]")
    if zeta is not None and not 0 < Fraction(zeta) <= 1:
        raise InputError("zeta must be in (0, 1]")
    if k is not None and (not isinstance(k, int) or k < 1):
        raise InputError("k must be a positive integer")
    if mu is not None and Fraction(mu) < mu_min:
        raise SizeError(f"mu must be at least {mu_min}")
    if k is not None and k > MAX_K:
        raise SizeError(f"k must be at most {MAX_K}")


class _Schedule:
    """JSON of a schedule: every field, exact values through exact_json."""

    def to_json_dict(self):
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = (v.to_json_dict() if isinstance(v, _Schedule)
                           else v if isinstance(v, int) else exact_json(v))
        return out


@dataclass(frozen=True)
class PathConstants(_Schedule):
    """Long-tight-path guarantee: threshold zeta and density slack rho."""
    d: Fraction
    k: int
    rho: Fraction
    zeta: Fraction


@dataclass(frozen=True)
class ConnectorConstants(_Schedule):
    """Connection-count guarantee: xi n^m paths of <= M inner vertices."""
    d: Fraction
    mu: Fraction
    zeta: Fraction
    k: int
    L: int
    M: int
    xi0: Fraction
    xi: FactoredRational
    rho: FactoredRational


@dataclass(frozen=True)
class AbsorberConstants(_Schedule):
    """Absorbing-path guarantee: absorbs any alpha*n leftover vertices."""
    d: Fraction
    mu: Fraction
    k: int
    zeta: Fraction
    M: int
    alpha: Fraction
    rho: FactoredRational


@dataclass(frozen=True)
class MainConstants(_Schedule):
    """Composed schedule for the full argument at (d, mu, k)."""
    d: Fraction
    mu: Fraction
    k: int
    path: PathConstants
    absorber: AbsorberConstants
    connector: ConnectorConstants  # evaluated at (d, mu/2, zeta, k)
    zeta: Fraction                 # connectable threshold fed to everything
    rho: FactoredRational
    reservoir_rate: Fraction


def path_constants(d, k: int) -> PathConstants:
    _check_inputs(d=d, k=k)
    d = Fraction(d)
    dd = d ** comb(k + 1, 2)
    return PathConstants(d, k, dd / (2 * k * (k + 1)), dd / (3 * (k + 1)))


def connector_constants(d, mu, zeta, k: int) -> ConnectorConstants:
    # the composed schedules evaluate the connector at mu/2
    _check_inputs(d=d, mu=mu, zeta=zeta, k=k, mu_min=MIN_MU / 2)
    d, mu, zeta = Fraction(d), Fraction(mu), Fraction(zeta)
    sched = delta_schedule(mu)
    L = sched.L
    xi0 = zeta ** 2 * sched.c / (L + 1)
    base = d ** comb(k, 2)
    b = base / (2 * factorial(k) * 2 ** (k + 1))
    reps = L + 2
    e = (k + 1) ** reps
    xi = (FactoredRational.from_fraction(b) ** ((e - 1) // k)
          * FactoredRational.from_fraction(xi0) ** e) / 2
    rho = FactoredRational.from_fraction(base / (8 * k * k)) * xi * xi
    return ConnectorConstants(d, mu, zeta, k, L, reps * k, xi0, xi, rho)


def absorber_constants(d, mu, k: int) -> AbsorberConstants:
    _check_inputs(d=d, mu=mu, k=k)
    d, mu = Fraction(d), Fraction(mu)
    zeta = d ** comb(2 * k + 1, 2) * mu ** (2 * k + 1) / 2 ** (2 * k + 3)
    inner = connector_constants(d, mu / 2, zeta / 2, k)
    alpha = zeta ** 2 / (24 * (10 * k ** 2 + inner.M))
    cap = d ** comb(2 * k + 1, 2) * mu ** 2 / (8 * (2 * k + 1) ** 2)
    rho = fmin(inner.rho / 4, cap)
    return AbsorberConstants(d, mu, k, zeta, inner.M, alpha, rho)


def main_constants(d, mu, k: int) -> MainConstants:
    _check_inputs(d=d, mu=mu, k=k)
    d, mu = Fraction(d), Fraction(mu)
    pa = path_constants(d, k)
    ab = absorber_constants(d, mu, k)
    zeta_c = min(ab.zeta / 2, ab.alpha * pa.zeta / 2)
    conn = connector_constants(d, mu / 2, zeta_c, k)
    rho = fmin(ab.rho, ab.alpha ** 2 * pa.rho / 4, conn.rho / 4)
    return MainConstants(d, mu, k, pa, ab, conn, zeta_c, rho, ab.alpha / 4)

