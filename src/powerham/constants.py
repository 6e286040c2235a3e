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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from powerham.errors import InputError, PowerhamError, SizeError
from powerham.walks import delta_schedule

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
            raise InputError(f"constant inputs must factor over small primes (stuck at {n})")
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

    @classmethod
    def from_int(cls, n: int) -> "FactoredRational":
        return cls.from_fraction(Fraction(n))

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
            return _frac_str(self.to_fraction(max_digits=400))
        except SizeError:
            return {"sign": self.sign, "log10": round(self.log10(), 6),
                    "factors": {str(p): e for p, e in self.powers}}

    def __str__(self):
        j = self.to_json()
        return j if isinstance(j, str) else f"~10^{j['log10']:.6g}"


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


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _check_inputs(d=None, mu=None, zeta=None, k=None):
    if d is not None and not 0 < Fraction(d) <= 1:
        raise InputError("d must be in (0, 1]")
    if mu is not None and not 0 < Fraction(mu) <= 1:
        raise InputError("mu must be in (0, 1]")
    if zeta is not None and not 0 < Fraction(zeta) <= 1:
        raise InputError("zeta must be in (0, 1]")
    if k is not None and (not isinstance(k, int) or k < 1):
        raise InputError("k must be a positive integer")


@dataclass(frozen=True)
class PathConstants:
    """Long-tight-path guarantee: threshold zeta and density slack rho."""
    d: Fraction
    k: int
    rho: Fraction
    zeta: Fraction

    def to_json_dict(self):
        return {"d": _frac_str(self.d), "k": self.k,
                "rho": _frac_str(self.rho), "zeta": _frac_str(self.zeta)}


@dataclass(frozen=True)
class ConnectorConstants:
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

    def to_json_dict(self):
        return {"d": _frac_str(self.d), "mu": _frac_str(self.mu),
                "zeta": _frac_str(self.zeta), "k": self.k,
                "L": self.L, "M": self.M, "xi0": _frac_str(self.xi0),
                "xi": self.xi.to_json(), "rho": self.rho.to_json()}


@dataclass(frozen=True)
class AbsorberConstants:
    """Absorbing-path guarantee: absorbs any alpha*n leftover vertices."""
    d: Fraction
    mu: Fraction
    k: int
    zeta: Fraction
    M: int
    alpha: Fraction
    rho: FactoredRational

    def sample_rate(self, n: int) -> Fraction:
        """Per-tuple inclusion probability for the random absorber family."""
        if n < 1:
            raise InputError("n must be positive")
        return self.zeta / (6 * (10 * self.k ** 2 + self.M) * n ** (2 * self.k - 1))

    def to_json_dict(self):
        return {"d": _frac_str(self.d), "mu": _frac_str(self.mu), "k": self.k,
                "zeta": _frac_str(self.zeta), "M": self.M,
                "alpha": _frac_str(self.alpha), "rho": self.rho.to_json()}


@dataclass(frozen=True)
class MainConstants:
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

    def to_json_dict(self):
        return {"d": _frac_str(self.d), "mu": _frac_str(self.mu), "k": self.k,
                "zeta": _frac_str(self.zeta), "rho": self.rho.to_json(),
                "reservoir_rate": _frac_str(self.reservoir_rate),
                "path": self.path.to_json_dict(),
                "absorber": self.absorber.to_json_dict(),
                "connector": self.connector.to_json_dict()}


def path_constants(d, k: int) -> PathConstants:
    _check_inputs(d=d, k=k)
    d = Fraction(d)
    dd = d ** comb(k + 1, 2)
    return PathConstants(d, k, dd / (2 * k * (k + 1)), dd / (3 * (k + 1)))


def connector_constants(d, mu, zeta, k: int) -> ConnectorConstants:
    _check_inputs(d=d, mu=mu, zeta=zeta, k=k)
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


@dataclass(frozen=True)
class Feasibility:
    """Whether the proof-grade thresholds mean anything at a concrete n."""
    n: int
    ok: bool
    reasons: tuple[str, ...]
    log10_min_n: float

    def to_json_dict(self):
        return {"n": self.n, "ok": self.ok, "reasons": list(self.reasons),
                "log10_min_n": round(self.log10_min_n, 6)}


def feasibility(mc: MainConstants, n: int) -> Feasibility:
    """Check the size-dependent preconditions of the schedule at n.

    Each failed reason reports the required magnitude.  The binding
    constraint is always the density slack rho*n^2 >= 1; its threshold is
    reported only as a log10 since the integer itself is unwritable.
    """
    if n < 1:
        raise InputError("n must be positive")
    ab, k = mc.absorber, mc.k
    reasons = []
    mins = []

    def log10_frac(q: Fraction) -> float:
        # math.log10 handles arbitrary-size ints; Fractions may overflow float
        return math.log10(q.numerator) - math.log10(q.denominator)

    need = 4 / ab.alpha  # expected reservoir reservoir_rate*n at least 1
    mins.append(log10_frac(need))
    if n < need:
        reasons.append(f"expected reservoir size alpha*n/4 < 1 (needs n >= {math.ceil(need)})")

    fam = 6 * (10 * k ** 2 + ab.M) / ab.zeta  # expected absorber family size
    mins.append(log10_frac(fam))
    if n < fam:
        reasons.append(f"expected absorber family is empty (needs n >= {math.ceil(fam)})")

    conn = 1 / mc.zeta  # ceil(zeta*n) >= 1 with room to spare
    mins.append(log10_frac(conn))
    if n < conn:
        reasons.append(f"connectable threshold zeta*n < 1 (needs n >= {math.ceil(conn)})")

    rho_min = -mc.rho.log10() / 2  # rho * n^2 >= 1
    mins.append(rho_min)
    if 2 * math.log10(n) < rho_min:
        reasons.append(f"density slack rho*n^2 < 1 (needs log10(n) >= {rho_min:.6g})")

    return Feasibility(n, not reasons, tuple(reasons), max(mins))
