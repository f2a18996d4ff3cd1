"""Exact real constants and rigorous interval enclosures.

Two layers cooperate here:

* exact field elements: rationals, quadratic surds a + b*sqrt(d), rational
  combinations of distinct surds, and elements of a fixed cubic number
  field.  Surds and cubics alike are integer numerators over one positive
  denominator, and every sign, floor and enclosure of them comes from
  integer bounds: one isqrt for a quadratic surd, isqrt bounds of each
  sqrt(d) at scale 2^-bits for a surd sum, and the field's integer bounds
  of beta and beta^2 for a cubic.  A surd sum with surviving surd terms,
  or a cubic element outside Q, is irrational, so refining its bounds
  always settles its floor and sign;

* ``IntervalValue`` enclosures for everything else (pi, e, roots of higher
  degree, mixed-field products): integer numerators over one denominator,
  never reduced, refinable to any requested precision with nested
  (monotone) refinement.  Roots of higher degree bisect on integer
  numerators too.

Floors of interval values are resolved only when the enclosure excludes the
neighbouring integers; equality with an integer can never be proven by an
interval alone, which is why the exact layer exists.

Every enclosure-based decision runs on one precision ladder, ``decide``,
and the mixed ``value_*`` operations combine exact and interval values.
Every rounding and comparison of a value is decided here: floor, sign,
nearest integer, fractional part, distance to the nearest integer and
compare (``value_*``, with ``exact_*`` twins for exact elements).
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, TypeVar, Union

import mpmath


class PrecisionExhausted(Exception):
    """An integer-part argument still straddles an integer at the maximum
    working precision.  Carries the offending description; never rounds."""

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail


class NeedsMoreBits(Exception):
    """Raised inside a ``decide`` callback when the enclosures at the current
    precision cannot settle the answer."""

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail


def default_max_bits() -> int:
    """The precision ceiling: ``NILSEQ_MAX_BITS``, 4096 when unset."""
    env = os.environ.get("NILSEQ_MAX_BITS")
    return int(env) if env else 4096


@dataclass(frozen=True)
class PrecisionPolicy:
    start_bits: int = 64
    max_bits: int = field(default_factory=default_max_bits)

    def __post_init__(self):
        if self.start_bits > self.max_bits:
            raise ValueError("start_bits must not exceed max_bits")
        if self.start_bits < 1:
            raise ValueError("start_bits must be positive")
        rungs, bits = [], self.start_bits
        while bits < self.max_bits:
            rungs.append(bits)
            bits *= 2
        # built once: exact floors and Z[beta] signs decide millions of times
        object.__setattr__(self, "_rungs", (*rungs, self.max_bits))

    def ladder(self) -> tuple[int, ...]:
        """start_bits, doubling, up to and including max_bits."""
        return self._rungs


def default_policy(start_bits: int = 64) -> PrecisionPolicy:
    """The policy of a site that starts at ``start_bits`` under the default
    ceiling (a ceiling below the start is one rung)."""
    return _capped_policy(start_bits, default_max_bits())


@functools.lru_cache(maxsize=None)
def _capped_policy(start_bits: int, max_bits: int) -> PrecisionPolicy:
    return PrecisionPolicy(min(start_bits, max_bits), max_bits)


T = TypeVar("T")


def decide(fn: Callable[[int], T], policy: Optional[PrecisionPolicy] = None) -> T:
    """fn(bits) on each rung of the policy's ladder until it returns without
    raising ``NeedsMoreBits``; ``PrecisionExhausted`` at the ceiling."""
    policy = policy or default_policy()
    for bits in policy.ladder():
        try:
            return fn(bits)
        except NeedsMoreBits as exc:
            # not the exception itself: its traceback would hold this frame
            # in a reference cycle, pinning the failed attempt's values
            message, detail = str(exc), exc.detail
    raise PrecisionExhausted(f"{message} at {policy.max_bits} bits", detail=detail)


# ---------------------------------------------------------------------------
# squarefree parts


_TRIAL_BOUND = 1 << 16


def _squarefree(n: int) -> tuple[int, int]:
    """Write n = s^2 * m with m squarefree; returns (s, m).

    Trial division stops at _TRIAL_BOUND.  What is left then has no prime
    factor below p; under p^3 it is 1, a prime, a product of two primes or
    the square of a prime, and isqrt tells the square apart.  A larger rest
    cannot be split, so the radicand is rejected.
    """
    if n <= 0:
        raise ValueError("expected a positive integer")
    s, m, rest, p = 1, 1, n, 2
    while p <= _TRIAL_BOUND and p * p <= rest:
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        s *= p ** (e // 2)
        m *= p ** (e % 2)
        p += 1
    if rest >= p * p * p:
        raise ValueError(f"cannot decide whether {n} is squarefree: trial "
                         f"division to {_TRIAL_BOUND} leaves a "
                         f"{rest.bit_length()}-bit cofactor")
    r = math.isqrt(rest)
    if r * r == rest:
        return s * r, m
    return s, m * rest


# ---------------------------------------------------------------------------
# interval values


class IntervalValue:
    """Closed enclosure [lo/den, hi/den] of a real number: integer numerators
    over one positive denominator, never reduced.  Sums align denominators
    by lcm, so repeated sums keep their size; products multiply them.
    ``lower`` and ``upper`` are the reduced endpoints, and ``==`` and
    ``hash`` compare values.  Immutable: caches share instances."""

    __slots__ = ("lo", "hi", "den", "precision_bits")

    def __init__(self, lower, upper, precision_bits: int):
        lower, upper = Fraction(lower), Fraction(upper)
        if lower > upper:
            raise ValueError("empty interval")
        m1, m2, self.den = _common(lower.denominator, upper.denominator)
        self.lo, self.hi = lower.numerator * m1, upper.numerator * m2
        self.precision_bits = precision_bits

    @classmethod
    def exactly(cls, x, bits: int = 0) -> "IntervalValue":
        if type(x) is not int:
            x = Fraction(x)
        return _interval(x.numerator, x.numerator, x.denominator, bits)

    @property
    def lower(self) -> Fraction:
        return Fraction(self.lo, self.den)

    @property
    def upper(self) -> Fraction:
        return Fraction(self.hi, self.den)

    @property
    def width(self) -> Fraction:
        return Fraction(self.hi - self.lo, self.den)

    def midpoint(self) -> Fraction:
        return Fraction(self.lo + self.hi, 2 * self.den)

    def contains(self, x) -> bool:
        return self.lower <= x <= self.upper

    def __eq__(self, other):
        return (isinstance(other, IntervalValue)
                and (self.lower, self.upper, self.precision_bits)
                == (other.lower, other.upper, other.precision_bits))

    def __hash__(self):
        return hash((self.lower, self.upper, self.precision_bits))

    def __repr__(self):
        return f"IntervalValue({self.lower}, {self.upper}, {self.precision_bits})"

    def __add__(self, other: "IntervalValue") -> "IntervalValue":
        p, q = self.precision_bits, other.precision_bits
        if self.den == other.den:
            return _interval(self.lo + other.lo, self.hi + other.hi, self.den,
                             p if p < q else q)
        m1, m2, den = _common(self.den, other.den)
        return _interval(self.lo * m1 + other.lo * m2,
                         self.hi * m1 + other.hi * m2, den, p if p < q else q)

    def __neg__(self) -> "IntervalValue":
        return _interval(-self.hi, -self.lo, self.den, self.precision_bits)

    def __sub__(self, other: "IntervalValue") -> "IntervalValue":
        return self + (-other)

    def __mul__(self, other: "IntervalValue") -> "IntervalValue":
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        if a == b or c == d or (a >= 0 and c >= 0):
            # a point or two nonnegative factors: a c and b d are the ends
            lo, hi = a * c, b * d
            if lo > hi:
                lo, hi = hi, lo
        else:
            products = (a * c, a * d, b * c, b * d)
            lo, hi = min(products), max(products)
        p, q = self.precision_bits, other.precision_bits
        return _interval(lo, hi, self.den * other.den, p if p < q else q)

    def intersect(self, other: "IntervalValue") -> "IntervalValue":
        m1, m2, den = _common(self.den, other.den)
        lo = max(self.lo * m1, other.lo * m2)
        hi = min(self.hi * m1, other.hi * m2)
        if lo > hi:
            raise ValueError("empty interval")
        return _interval(lo, hi, den,
                         max(self.precision_bits, other.precision_bits))

    def floor_resolved(self) -> Optional[int]:
        """The common floor of every point in the enclosure, if determined."""
        f = self.lo // self.den
        return f if f == self.hi // self.den else None

    def sign(self) -> Optional[int]:
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        if self.lo == 0 == self.hi:
            return 0
        return None

    def sqrt(self, bits: int) -> "IntervalValue":
        """Each reduced endpoint p/q widened outward to a multiple of
        1/(q 2^bits), as sqrt(p/q) = sqrt(p q)/q."""
        if self.hi < 0:
            raise ValueError("sqrt of a negative enclosure")
        lo, hi = Fraction(max(self.lo, 0), self.den), self.upper
        r_lo = math.isqrt(lo.numerator * lo.denominator << 2 * bits)
        s = hi.numerator * hi.denominator << 2 * bits
        r_hi = math.isqrt(s)
        r_hi += r_hi * r_hi < s
        return IntervalValue(Fraction(r_lo, lo.denominator << bits),
                             Fraction(r_hi, hi.denominator << bits),
                             min(self.precision_bits, bits))

    def to_float(self) -> float:
        return (self.lo + self.hi) / (2 * self.den)

    def nests_inside(self, other: "IntervalValue") -> bool:
        return (other.lo * self.den <= self.lo * other.den
                and self.hi * other.den <= other.hi * self.den)


_new = object.__new__


def _interval(lo: int, hi: int, den: int, bits: int) -> IntervalValue:
    """[lo/den, hi/den] at bits, unchecked: lo <= hi and den > 0."""
    iv = _new(IntervalValue)
    iv.lo, iv.hi, iv.den, iv.precision_bits = lo, hi, den, bits
    return iv


def _common(d1: int, d2: int) -> tuple[int, int, int]:
    """m1, m2 and lcm(d1, d2) = d1 m1 = d2 m2."""
    g = math.gcd(d1, d2)
    return d2 // g, d1 // g, d1 // g * d2


# ---------------------------------------------------------------------------
# quadratic surds and surd sums


class SurdSum:
    """(n0 + sum c_i * sqrt(d_i)) / den over distinct squarefree d_i >= 2:
    integer numerators over one positive denominator, each c_i != 0, the d_i
    ascending in ``surds`` = ((c_i, d_i), ...), and gcd(n0, c_i, den) = 1.

    Closed under ring operations (sqrt(d) * sqrt(d') folds into
    sqrt(squarefree part of d d')).  1 and the sqrt(d_i) are linearly
    independent over Q, so every SurdSum is irrational, and its sign, floor
    and enclosures come from integer isqrt bounds that always settle.  The
    ``exact_*`` operations return a Fraction, a ``QuadElem`` or a SurdSum of
    two or more terms by the number of surviving terms.
    """

    __slots__ = ("n0", "surds", "den")

    def __init__(self, n0: int, surds: tuple[tuple[int, int], ...], den: int):
        self.n0, self.surds, self.den = n0, surds, den

    @property
    def rat(self) -> Fraction:
        """The rational part."""
        return Fraction(self.n0, self.den)

    @property
    def terms(self) -> tuple[tuple[Fraction, int], ...]:
        """The (coefficient, d) pairs, d ascending."""
        return tuple((Fraction(c, self.den), d) for c, d in self.surds)

    def __eq__(self, other):
        return (isinstance(other, SurdSum)
                and (self.n0, self.surds, self.den)
                == (other.n0, other.surds, other.den))

    def __hash__(self):
        return hash((self.n0, self.surds, self.den))

    def __repr__(self):
        return f"{type(self).__name__}({self.n0}, {self.surds}, den={self.den})"


class QuadElem(SurdSum):
    """a + b*sqrt(d) with rational a, b != 0 and squarefree d >= 2: the
    one-term SurdSum (n0 + c*sqrt(d)) / den, whose floor is one isqrt and
    whose sign is one comparison of n0^2 with c^2 d."""

    __slots__ = ()

    a = SurdSum.rat

    @property
    def b(self) -> Fraction:
        return Fraction(self.surds[0][0], self.den)

    @property
    def d(self) -> int:
        return self.surds[0][1]


Exact = Union[Fraction, SurdSum, "CubicElem"]


def _surd(n0: int, coeffs: dict[int, int], den: int) -> Exact:
    """(n0 + sum c * sqrt(d)) / den from {d: c} with den > 0, normalised:
    zero terms dropped, the gcd divided out."""
    surds = tuple((coeffs[d], d) for d in sorted(coeffs) if coeffs[d])
    if not surds:
        return Fraction(n0, den)
    g = math.gcd(n0, den, *(c for c, _ in surds))
    if g > 1:
        n0, den = n0 // g, den // g
        surds = tuple((c // g, d) for c, d in surds)
    return (QuadElem if len(surds) == 1 else SurdSum)(n0, surds, den)


def make_quad(a, b, d: int) -> Exact:
    """Normalized a + b*sqrt(d); collapses to Fraction when possible."""
    a, b = Fraction(a), Fraction(b)
    if b == 0:
        return a
    s, m = _squarefree(d)
    if m == 1:
        return a + b * s
    den = math.lcm(a.denominator, b.denominator)
    return _surd(a.numerator * (den // a.denominator),
                 {m: b.numerator * s * (den // b.denominator)}, den)


def _surd_parts(x: Union[Fraction, SurdSum]) -> tuple[int, tuple, int]:
    if isinstance(x, Fraction):
        return x.numerator, (), x.denominator
    return x.n0, x.surds, x.den


def _surd_add(x: Union[Fraction, SurdSum], y: Union[Fraction, SurdSum]) -> Exact:
    xn, xs, xd = _surd_parts(x)
    yn, ys, yd = _surd_parts(y)
    coeffs = {d: c * yd for c, d in xs}
    for c, d in ys:
        coeffs[d] = coeffs.get(d, 0) + c * xd
    return _surd(xn * yd + yn * xd, coeffs, xd * yd)


def _surd_mul(x: Union[Fraction, SurdSum], y: Union[Fraction, SurdSum]) -> Exact:
    xn, xs, xd = _surd_parts(x)
    yn, ys, yd = _surd_parts(y)
    rat = xn * yn
    coeffs = {d: c * yn for c, d in xs}
    for c, d in ys:
        coeffs[d] = coeffs.get(d, 0) + c * xn
    for cx, dx in xs:
        for cy, dy in ys:
            # dx, dy squarefree: sqrt(dx dy) = g sqrt((dx/g)(dy/g)), g = gcd
            g = math.gcd(dx, dy)
            d = (dx // g) * (dy // g)
            if d == 1:
                rat += cx * cy * g
            else:
                coeffs[d] = coeffs.get(d, 0) + cx * cy * g
    return _surd(rat, coeffs, xd * yd)


def _quad_floor(x: QuadElem) -> int:
    """floor((n0 + r sqrt(d)) / den) = (n0 + floor(r sqrt(d))) // den, as
    floor(y / q) = floor(floor(y) / q) for an integer q > 0; r^2 d is not
    a square, so floor(r sqrt(d)) is one isqrt."""
    (r, d), = x.surds
    t = math.isqrt(r * r * d)
    return (x.n0 + (t if r > 0 else -t - 1)) // x.den


def _quad_sign(x: QuadElem) -> int:
    """Sign of n0 + r sqrt(d): that of r unless n0 has the other sign and
    the larger square (n0^2 != r^2 d, as d is squarefree)."""
    (r, d), = x.surds
    p = x.n0
    sign = 1 if r > 0 else -1
    return sign if p * r >= 0 or r * r * d > p * p else -sign


def _surd_bounds(x: SurdSum, bits: int) -> tuple[int, int, int]:
    """Integers lo, hi, scale with lo/scale <= x <= hi/scale, from
    isqrt(d 4^bits) <= sqrt(d) 2^bits < isqrt(d 4^bits) + 1."""
    lo = hi = x.n0 << bits
    for c, d in x.surds:
        s = math.isqrt(d << (2 * bits))
        if c > 0:
            lo, hi = lo + c * s, hi + c * (s + 1)
        else:
            lo, hi = lo + c * (s + 1), hi + c * s
    return lo, hi, x.den << bits


# ---------------------------------------------------------------------------
# cubic number fields


def _sign_at(coeffs: tuple[int, ...], x: int, den: int) -> int:
    """Sign of p(x/den), den > 0, by Horner on the integer
    den^deg p(x/den) = sum c_i x^(deg-i) den^i."""
    v, scale = coeffs[0], 1
    for c in coeffs[1:]:
        scale *= den
        v = v * x + c * scale
    return (v > 0) - (v < 0)


class _BisectRoot:
    """A designated simple root of an integer polynomial, isolated in
    [lo/den, hi/den] and refined by bisection with nested enclosures.  Each
    step doubles lo, hi and den, so that the midpoint (lo + hi) / (2 den)
    is the integer numerator lo + hi over the new den."""

    def __init__(self, coeffs, lo, hi):
        self.coeffs = tuple(int(c) for c in coeffs)
        iv = IntervalValue(lo, hi, 0)
        self._lo, self._hi, self._den = iv.lo, iv.hi, iv.den
        slo, shi = (_sign_at(self.coeffs, x, iv.den) for x in (iv.lo, iv.hi))
        if slo == 0 or shi == 0 or slo == shi:
            raise ValueError("interval endpoints must straddle a simple root")
        self._sign_lo = slo

    def refine(self, bits: int) -> tuple[int, int, int]:
        """Integers lo, hi, den with the root in [lo/den, hi/den] and
        hi - lo <= den 2^-bits."""
        lo, hi, den = self._lo, self._hi, self._den
        coeffs, sign_lo = self.coeffs, self._sign_lo
        while (hi - lo) << bits > den:
            mid = lo + hi
            lo, hi, den = lo << 1, hi << 1, den << 1
            sm = _sign_at(coeffs, mid, den)
            if sm == 0:
                raise ValueError("rational root hit: polynomial is reducible")
            if sm == sign_lo:
                lo = mid
            else:
                hi = mid
        self._lo, self._hi, self._den = lo, hi, den
        return lo, hi, den

    def enclosure(self, bits: int) -> IntervalValue:
        return _interval(*self.refine(bits), bits)


def _has_integer_root(a: int, b: int, c: int) -> bool:
    """Whether x^3 + a x^2 + b x + c has an integer root.

    The roots lie in (-bound, bound), and the cubic is monotone on each run
    of integers between the floors of its critical points (-a +- sqrt(d))/3,
    so bisection finds any integer root of a run in O(log bound) steps.
    """
    def p(x):
        return ((x + a) * x + b) * x + c

    bound = 1 + max(abs(a), abs(b), abs(c))
    cuts = {-bound - 1, bound}
    d = a * a - 3 * b
    if d > 0:
        r = math.isqrt(d)
        for f in ((-a - r - (r * r < d)) // 3, (-a + r) // 3):
            cuts.add(min(max(f, -bound - 1), bound))
    cuts = sorted(cuts)
    for lo, hi in zip(cuts, cuts[1:]):
        lo += 1  # the run is the integers lo..hi
        if p(lo) == 0 or p(hi) == 0:
            return True
        positive_lo = p(lo) > 0
        if positive_lo == (p(hi) > 0):
            continue
        while hi - lo > 1:
            mid = (lo + hi) // 2
            v = p(mid)
            if v == 0:
                return True
            if (v > 0) == positive_lo:
                lo = mid
            else:
                hi = mid
    return False


class CubicField(_BisectRoot):
    """Q(beta) for beta the designated real root of a monic integer cubic.

    The isolating interval certifies which root; bisection refines it with
    nested enclosures.  A cubic with a rational (hence integer) root is
    rejected, so nonconstant elements are irrational and signs and floors
    always resolve.  Two fields are equal when they share the cubic and the
    root.
    """

    def __init__(self, coeffs: tuple[int, int, int, int], lo, hi):
        if coeffs[0] != 1:
            raise ValueError("minimal polynomial must be monic")
        if _has_integer_root(*(int(c) for c in coeffs[1:])):
            raise ValueError("cubic has a rational root: polynomial is reducible")
        super().__init__(coeffs, lo, hi)
        self._bounds: dict[int, tuple[int, int, int, int, int]] = {}
        # read once per field: hot loops decide millions of signs on it
        self.policy = default_policy()

    def bounds(self, bits: int) -> tuple[int, int, int, int, int]:
        """Integers (one, b_lo, b_hi, s_lo, s_hi) with b_lo/one <= beta <=
        b_hi/one and s_lo/one <= beta^2 <= s_hi/one, read exactly off the
        enclosure of width at most 2^-bits (one is the square of its common
        denominator); cached per bits."""
        cached = self._bounds.get(bits)
        if cached is None:
            lo, hi, d = self.refine(bits)
            # beta^2 is smallest at 0 when the enclosure straddles it
            sq_lo = 0 if lo < 0 < hi else min(lo * lo, hi * hi)
            cached = (d * d, lo * d, hi * d, sq_lo, max(lo * lo, hi * hi))
            self._bounds[bits] = cached
        return cached

    def element(self, c0, c1=0, c2=0) -> "CubicElem":
        c = [Fraction(v) for v in (c0, c1, c2)]
        den = math.lcm(*(v.denominator for v in c))
        return CubicElem(self, *(v.numerator * (den // v.denominator) for v in c),
                         den)

    @property
    def beta(self) -> "CubicElem":
        return CubicElem(self, 0, 1, 0)

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, CubicField) or self.coeffs != other.coeffs:
            return False
        # distinct roots of a squarefree integer cubic lie more than
        # 1/(9 sum c_i^2) apart (Mahler), so enclosures narrower than half
        # that bound meet exactly when they hold the same root
        bits = (18 * sum(c * c for c in self.coeffs)).bit_length()
        lo, hi, d = self.refine(bits)
        other_lo, other_hi, other_d = other.refine(bits)
        return lo * other_d <= other_hi * d and other_lo * d <= hi * other_d

    def __hash__(self):
        return hash(self.coeffs)


class CubicElem:
    """(n0 + n1 beta + n2 beta^2) / den in Q(beta): integer numerators over a
    positive denominator, with gcd(n0, n1, n2, den) = 1."""

    __slots__ = ("field", "n0", "n1", "n2", "den")

    def __init__(self, field: CubicField, n0: int, n1: int = 0, n2: int = 0,
                 den: int = 1):
        if den != 1:
            if den < 0:
                n0, n1, n2, den = -n0, -n1, -n2, -den
            g = math.gcd(n0, n1, n2, den)
            if g > 1:
                n0, n1, n2, den = n0 // g, n1 // g, n2 // g, den // g
        self.field, self.n0, self.n1, self.n2, self.den = field, n0, n1, n2, den

    @property
    def c(self) -> tuple[Fraction, Fraction, Fraction]:
        """The coordinates on 1, beta, beta^2."""
        return (Fraction(self.n0, self.den), Fraction(self.n1, self.den),
                Fraction(self.n2, self.den))

    def is_zero(self) -> bool:
        return not (self.n0 or self.n1 or self.n2)

    def __eq__(self, other):
        return (isinstance(other, CubicElem)
                and (self.n0, self.n1, self.n2, self.den)
                == (other.n0, other.n1, other.n2, other.den)
                and self.field == other.field)

    def __hash__(self):
        return hash((self.n0, self.n1, self.n2, self.den, self.field))

    def __repr__(self):
        return f"CubicElem({self.n0}, {self.n1}, {self.n2}, den={self.den})"


def _cubic_add(x: CubicElem, y: CubicElem) -> CubicElem:
    if x.den == y.den:
        return CubicElem(x.field, x.n0 + y.n0, x.n1 + y.n1, x.n2 + y.n2, x.den)
    return CubicElem(x.field, x.n0 * y.den + y.n0 * x.den,
                     x.n1 * y.den + y.n1 * x.den,
                     x.n2 * y.den + y.n2 * x.den, x.den * y.den)


def _cubic_mul(x: CubicElem, y: CubicElem) -> CubicElem:
    _, c2, c1, c0 = x.field.coeffs
    a0, a1, a2 = x.n0, x.n1, x.n2
    b0, b1, b2 = y.n0, y.n1, y.n2
    # beta^4 = -c2 beta^3 - c1 beta^2 - c0 beta, beta^3 = -c2 beta^2 - c1 beta - c0
    p4 = a2 * b2
    p3 = a1 * b2 + a2 * b1 - c2 * p4
    return CubicElem(x.field, a0 * b0 - c0 * p3,
                     a0 * b1 + a1 * b0 - c0 * p4 - c1 * p3,
                     a0 * b2 + a1 * b1 + a2 * b0 - c1 * p4 - c2 * p3,
                     x.den * y.den)


def cubic_inverse(x: CubicElem) -> CubicElem:
    """1/x from the cofactors of the multiplication matrix M of x's numerator
    (column j holds numerator * beta^j): 1/x = den * adj(M) e_0 / det M."""
    beta = x.field.beta
    col1 = _cubic_mul(CubicElem(x.field, x.n0, x.n1, x.n2), beta)
    col2 = _cubic_mul(col1, beta)
    # the cofactors of row 0; det M = N(numerator) expands along that row
    y0 = col1.n1 * col2.n2 - col1.n2 * col2.n1
    y1 = x.n2 * col2.n1 - x.n1 * col2.n2
    y2 = x.n1 * col1.n2 - x.n2 * col1.n1
    det = x.n0 * y0 + col1.n0 * y1 + col2.n0 * y2
    if det == 0:
        raise ZeroDivisionError("inverse of zero in a cubic field")
    return CubicElem(x.field, y0 * x.den, y1 * x.den, y2 * x.den, det)


def _cubic_scale(x: CubicElem, r: Fraction) -> CubicElem:
    return CubicElem(x.field, x.n0 * r.numerator, x.n1 * r.numerator,
                     x.n2 * r.numerator, x.den * r.denominator)


def _cubic_bounds(x: CubicElem, bits: int) -> tuple[int, int, int]:
    """Integers lo, hi, scale with lo/scale <= x <= hi/scale, from the
    field's integer bounds of beta and beta^2 at bits: every cubic sign,
    floor and enclosure reads these."""
    one, b_lo, b_hi, s_lo, s_hi = x.field.bounds(bits)
    n1, n2 = x.n1, x.n2
    lo = hi = x.n0 * one
    if n1 >= 0:
        lo, hi = lo + n1 * b_lo, hi + n1 * b_hi
    else:
        lo, hi = lo + n1 * b_hi, hi + n1 * b_lo
    if n2 >= 0:
        lo, hi = lo + n2 * s_lo, hi + n2 * s_hi
    else:
        lo, hi = lo + n2 * s_hi, hi + n2 * s_lo
    return lo, hi, one * x.den


def _floor_of_bounds(lo: int, hi: int, scale: int) -> int:
    f = lo // scale
    if f != hi // scale:
        raise NeedsMoreBits("floor unresolved", detail=(lo, hi, scale))
    return f


def _sign_of_bounds(lo: int, hi: int, scale: int) -> int:
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    raise NeedsMoreBits("sign unresolved", detail=(lo, hi, scale))


def _bounds(x: Union[SurdSum, CubicElem], bits: int) -> tuple[int, int, int]:
    if isinstance(x, SurdSum):
        return _surd_bounds(x, bits)
    if isinstance(x, CubicElem):
        return _cubic_bounds(x, bits)
    raise TypeError(type(x))


def _decide_bounds(x: Union[SurdSum, CubicElem],
                   read: Callable[[int, int, int], int]) -> int:
    """read(lo, hi, scale) of x's bounds on the ladder, which starts at 32
    bits for a surd sum and follows the field's policy for a cubic; x is
    irrational, so the floor or sign settles."""
    policy = x.field.policy if isinstance(x, CubicElem) else default_policy(32)
    return decide(lambda bits: read(*_bounds(x, bits)), policy)


# ---------------------------------------------------------------------------
# generic exact operations (None signals "leave the exact path")


def exact_add(x: Exact, y: Exact) -> Optional[Exact]:
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return x + y
    if isinstance(x, CubicElem) or isinstance(y, CubicElem):
        if isinstance(x, Fraction):
            x = CubicElem(y.field, x.numerator, 0, 0, x.denominator)
        elif isinstance(y, Fraction):
            y = CubicElem(x.field, y.numerator, 0, 0, y.denominator)
        if (isinstance(x, CubicElem) and isinstance(y, CubicElem)
                and x.field == y.field):
            return _cubic_add(x, y)
        return None
    if isinstance(x, (Fraction, SurdSum)) and isinstance(y, (Fraction, SurdSum)):
        return _surd_add(x, y)
    return None


def exact_neg(x: Exact) -> Exact:
    if isinstance(x, Fraction):
        return -x
    if isinstance(x, SurdSum):
        return type(x)(-x.n0, tuple((-c, d) for c, d in x.surds), x.den)
    if isinstance(x, CubicElem):
        return CubicElem(x.field, -x.n0, -x.n1, -x.n2, x.den)
    raise TypeError(type(x))


def exact_mul(x: Exact, y: Exact) -> Optional[Exact]:
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return x * y
    if isinstance(x, CubicElem) or isinstance(y, CubicElem):
        if isinstance(x, Fraction):
            return _cubic_scale(y, x)
        if isinstance(y, Fraction):
            return _cubic_scale(x, y)
        if (isinstance(x, CubicElem) and isinstance(y, CubicElem)
                and x.field == y.field):
            return _cubic_mul(x, y)
        return None
    if isinstance(x, (Fraction, SurdSum)) and isinstance(y, (Fraction, SurdSum)):
        return _surd_mul(x, y)
    return None


def exact_floor(x: Exact) -> int:
    if isinstance(x, Fraction):
        return x.__floor__()
    if type(x) is QuadElem:
        return _quad_floor(x)
    if isinstance(x, CubicElem) and not (x.n1 or x.n2):
        return x.n0 // x.den
    return _decide_bounds(x, _floor_of_bounds)


def exact_sign(x: Exact) -> int:
    if isinstance(x, Fraction):
        return (x > 0) - (x < 0)
    if type(x) is QuadElem:
        return _quad_sign(x)
    if isinstance(x, CubicElem) and not (x.n1 or x.n2):
        return (x.n0 > 0) - (x.n0 < 0)
    return _decide_bounds(x, _sign_of_bounds)


def exact_compare(x: Exact, y: Exact) -> Optional[int]:
    """Sign of x - y, or None when the difference leaves the exact layer."""
    diff = exact_add(x, exact_neg(y))
    if diff is None:
        return None
    return exact_sign(diff)


def exact_abs(x: Exact) -> Exact:
    return x if exact_sign(x) >= 0 else exact_neg(x)


def exact_nearest(x: Exact) -> int:
    """<<x>> = floor(x + 1/2); ties round up."""
    return exact_floor(exact_add(x, Fraction(1, 2)))


def exact_dist(x: Exact) -> Exact:
    """||x|| = |x - <<x>>|, the distance to the nearest integer."""
    return exact_abs(exact_add(x, Fraction(-exact_nearest(x))))


def exact_enclosure(x: Exact, bits: int) -> IntervalValue:
    if isinstance(x, Fraction):
        return _interval(x.numerator, x.numerator, x.denominator, bits)
    return _interval(*_bounds(x, bits), bits)


def exact_ball(x: Union[SurdSum, CubicElem], bits: int) -> tuple[int, int, int]:
    """Integers mid, rad and scale = 2^bits with |x - mid/scale| <= rad/scale,
    read off x's bounds at bits: a midpoint-radius ball (van der Hoeven,
    "Ball arithmetic", 2009).  Balls of several elements at one bits share
    the scale, so integer combinations of them add midpoints exactly and
    radii by absolute value."""
    lo, hi, scale = _bounds(x, bits)
    lo, hi = (lo << bits) // scale, -((-hi << bits) // scale)
    mid = (lo + hi) >> 1
    return mid, hi - mid, 1 << bits


def exact_is_integer(x: Value) -> Optional[int]:
    """The integer x is, when the exact layer shows it; None otherwise (an
    enclosure never shows it)."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else None
    if isinstance(x, CubicElem) and not (x.n1 or x.n2) and x.den == 1:
        return x.n0
    return None  # surviving surd/cubic parts are irrational


# ---------------------------------------------------------------------------
# mixed exact-or-interval values (an exact operation that leaves the exact
# layer falls back to enclosures at the working precision)


Value = Union[Exact, IntervalValue]


def to_interval(x: Value, bits: int) -> IntervalValue:
    if isinstance(x, IntervalValue):
        return x
    return exact_enclosure(x, bits)


def value_add(x: Value, y: Value, bits: int) -> Value:
    if not isinstance(x, IntervalValue) and not isinstance(y, IntervalValue):
        s = exact_add(x, y)
        if s is not None:
            return s
    return to_interval(x, bits) + to_interval(y, bits)


def value_mul(x: Value, y: Value, bits: int) -> Value:
    if not isinstance(x, IntervalValue) and not isinstance(y, IntervalValue):
        p = exact_mul(x, y)
        if p is not None:
            return p
    return to_interval(x, bits) * to_interval(y, bits)


def value_floor(x: Value) -> int:
    """Exact floor, or the floor of an enclosure that excludes the
    neighbouring integers; ``NeedsMoreBits`` otherwise."""
    if not isinstance(x, IntervalValue):
        return exact_floor(x)
    f = x.floor_resolved()
    if f is None:
        raise NeedsMoreBits("floor argument straddles an integer", detail=x)
    return f


def value_sign(x: Value) -> int:
    if not isinstance(x, IntervalValue):
        return exact_sign(x)
    s = x.sign()
    if s is None:
        raise NeedsMoreBits("sign unresolved: the enclosure contains 0", detail=x)
    return s


def value_compare(x: Value, y: Value, bits: int) -> int:
    """Sign of x - y: exact when the difference stays in the exact layer,
    else from the enclosure [x.lower - y.upper, x.upper - y.lower]."""
    if not isinstance(x, IntervalValue) and not isinstance(y, IntervalValue):
        s = exact_compare(x, y)
        if s is not None:
            return s
    return value_sign(to_interval(x, bits) - to_interval(y, bits))


def value_nearest(x: Value, bits: int) -> int:
    """<<x>> = floor(x + 1/2), decided as ``value_floor`` decides."""
    return value_floor(value_add(x, Fraction(1, 2), bits))


def value_frac(x: Value, bits: int) -> Value:
    """{x} = x - floor(x)."""
    return value_add(x, Fraction(-value_floor(x)), bits)


def value_dist(x: Value, bits: int) -> Value:
    """||x|| = |x - <<x>>|.  An enclosure of x - <<x>> that contains 0
    gives [0, max(-lower, upper)]."""
    if not isinstance(x, IntervalValue):
        return exact_dist(x)
    y = value_add(x, Fraction(-value_nearest(x, bits)), bits)
    if y.lo >= 0:
        return y
    if y.hi <= 0:
        return -y
    return _interval(0, max(-y.lo, y.hi), y.den, y.precision_bits)


# ---------------------------------------------------------------------------
# named constants and roots


_named_cache: dict[tuple[str, int], IntervalValue] = {}


def _named_enclosure(name: str, bits: int) -> IntervalValue:
    key = (name, bits)
    if key not in _named_cache:
        old_prec = mpmath.iv.prec
        try:
            mpmath.iv.prec = bits + 16
            x = mpmath.iv.pi if name == "pi" else mpmath.iv.e
            # the raw endpoint tuples (sign, man, exp, bc): x.a and x.b
            # would round to mp.prec; the gmpy backend hands back mpz
            ends = [(sign, int(man), int(exp)) for sign, man, exp, _ in x._mpi_]
        finally:
            mpmath.iv.prec = old_prec
        # both endpoints over 2^k, widened by 2^-(bits+8) as a safety margin
        # beyond the library's own outward rounding
        k = max(bits + 8, *(-exp for _, _, exp in ends))
        lo, hi = ((-man if sign else man) << (k + exp) for sign, man, exp in ends)
        ulp = 1 << (k - bits - 8)
        _named_cache[key] = _interval(lo - ulp, hi + ulp, 1 << k, bits)
    return _named_cache[key]


class ExactReal:
    """A refinable real constant: exact field element where available,
    otherwise a certified enclosure generator with nested refinement."""

    def __init__(self, kind: str, payload=None):
        self.kind = kind
        self.payload = payload
        self._cached: Optional[IntervalValue] = None

    # -- constructors -------------------------------------------------

    @classmethod
    def rational(cls, p, q=1) -> "ExactReal":
        return cls("exact", Fraction(p, q))

    @classmethod
    def from_exact(cls, value: Union[int, Exact, "ExactReal"]) -> "ExactReal":
        """An exact element (or int) as a constant; a constant as is."""
        if isinstance(value, ExactReal):
            return value
        if isinstance(value, int):
            value = Fraction(value)
        return cls("exact", value)

    @classmethod
    def sqrt(cls, x) -> "ExactReal":
        f = Fraction(x)
        if f < 0:
            raise ValueError("sqrt of a negative constant")
        if f == 0:
            return cls.rational(0)
        return cls("exact", make_quad(0, Fraction(1, f.denominator),
                                      f.numerator * f.denominator))

    @classmethod
    def phi(cls) -> "ExactReal":
        return cls("exact", make_quad(Fraction(1, 2), Fraction(1, 2), 5))

    @classmethod
    def pi(cls) -> "ExactReal":
        return cls("pi")

    @classmethod
    def e(cls) -> "ExactReal":
        return cls("e")

    @classmethod
    def algebraic_root(cls, coeffs, lo, hi) -> "ExactReal":
        """The unique root of the integer polynomial inside [lo, hi].

        Degrees 1-3 land on the exact layer; higher degrees refine by
        bisection only.
        """
        coeffs = [int(c) for c in coeffs]
        while coeffs and coeffs[0] == 0:
            coeffs = coeffs[1:]
        deg = len(coeffs) - 1
        lo, hi = Fraction(lo), Fraction(hi)
        if deg < 1:
            raise ValueError("constant polynomial has no designated root")
        if deg == 1:
            a, b = coeffs
            return cls.rational(-b, a)
        if deg == 2:
            a, b, c = coeffs
            disc = b * b - 4 * a * c
            if disc < 0:
                raise ValueError("no real roots")
            for sgn in (1, -1):
                root = exact_add(Fraction(-b, 2 * a),
                                 exact_mul(make_quad(0, sgn, disc) if disc > 0
                                           else Fraction(0), Fraction(1, 2 * a)))
                if exact_compare(root, lo) >= 0 and exact_compare(root, hi) <= 0:
                    return cls("exact", root)
            raise ValueError("no root inside the isolating interval")
        if deg == 3 and coeffs[0] == 1:
            field = CubicField(tuple(coeffs), lo, hi)
            return cls("exact", field.beta)
        return cls("root", _BisectRoot(coeffs, lo, hi))

    # -- queries ------------------------------------------------------

    def exact(self) -> Optional[Exact]:
        return self.payload if self.kind == "exact" else None

    def value(self, bits: int) -> Value:
        """The exact element, or else the enclosure at bits."""
        return self.payload if self.kind == "exact" else self.enclosure(bits)

    def enclosure(self, bits: int) -> IntervalValue:
        if self.kind == "exact":
            iv = exact_enclosure(self.payload, bits)
        elif self.kind in ("pi", "e"):
            iv = _named_enclosure(self.kind, bits)
        elif self.kind == "root":
            iv = self.payload.enclosure(bits)
        else:
            raise ValueError(self.kind)
        if self._cached is not None:
            iv = iv.intersect(self._cached)
        self._cached = iv
        return iv

    def to_float(self) -> float:
        return self.enclosure(64).to_float()

    def __repr__(self):
        if self.kind == "exact":
            return f"ExactReal({self.payload!r})"
        return f"ExactReal<{self.kind}>"
