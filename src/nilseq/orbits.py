"""Skew-torus orbits and the explicit Heisenberg nilmanifold.

Coordinates are carried as exact field elements wherever the inputs allow
(quadratic surds and their sums, one cubic field) and as interval
enclosures otherwise; fractional parts always go through a decided floor,
so a hit/miss verdict is never the artifact of rounding.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .digits import DigitWord
from .exactreal import (
    ExactReal,
    IntervalValue,
    Value,
    decide,
    default_policy,
    exact_add,
    exact_compare,
    exact_is_integer,
    exact_mul,
    to_interval,
    value_add,
    value_compare,
    value_dist,
    value_floor,
    value_frac,
    value_mul,
)


# ---------------------------------------------------------------------------
# skew torus


@dataclass
class TorusSkewSystem:
    """Skew product on [0,1)^d: (x1, ..., xd) -> (x1 + a_d, x2 + x1 + a_{d-1},
    ..., xd + x_{d-1} + a_1), encoding floor(p(n)) via the last coordinate.

    ``coeffs`` are a_1..a_d from the binomial expansion p(x)/m = sum a_i
    C(x, i); ``a0`` is the constant term (the base point is (0,...,0,{a0})).
    """

    coeffs: tuple  # a_1 .. a_d, exact values or ExactReal
    a0: object = 0

    def __post_init__(self):
        self.coeffs = tuple(ExactReal.from_exact(c) for c in self.coeffs)

    @property
    def d(self) -> int:
        return len(self.coeffs)

    @classmethod
    def from_poly(cls, poly_coeffs: Sequence, m: int) -> "TorusSkewSystem":
        """Binomial-basis coefficients of p(x)/m by exact finite differences."""
        coeffs = [exact_mul(ExactReal.from_exact(c).value(64), Fraction(1, m))
                  for c in poly_coeffs]
        if None in coeffs:
            raise ValueError("from_poly needs exact coefficients in one field")
        deg = len(coeffs) - 1

        def p_at(x: int):
            acc = Fraction(0)
            for c in reversed(coeffs):
                acc = exact_add(exact_mul(acc, Fraction(x)), c)
            return acc

        values = [p_at(j) for j in range(deg + 1)]
        a = []
        for i in range(deg + 1):
            acc = Fraction(0)
            for j in range(i + 1):
                term = exact_mul(values[j],
                                 Fraction((-1) ** (i - j) * math.comb(i, j)))
                acc = exact_add(acc, term)
            a.append(acc)
        return cls(tuple(a[1:]), a[0])

    def base_point(self) -> tuple:
        return tuple([Fraction(0)] * (self.d - 1) + [self.a0])

    def step(self, point: tuple, bits: int = 64) -> tuple:
        """One application of the map to a point of values."""
        coeffs = [c.value(bits) for c in self.coeffs]
        out = []
        for j in range(self.d):
            acc = point[j]
            if j > 0:
                acc = value_add(acc, point[j - 1], bits)
            acc = value_add(acc, coeffs[self.d - 1 - j], bits)
            out.append(value_frac(acc, bits))
        return tuple(out)

    def iterate(self, z0: tuple, n: int, bits: int = 64) -> tuple:
        point = tuple(value_frac(ExactReal.from_exact(x).value(bits), bits)
                      for x in z0)
        for _ in range(n):
            point = self.step(point, bits)
        return point

    def closed_form(self, z0: tuple, n: int, bits: int = 64) -> tuple:
        """(T^n z)_j = z_j + sum_{k<j} C(n, j-k) z_k + sum_i a_{d-j+i} C(n,i),
        reduced mod 1."""
        vals = [ExactReal.from_exact(x).value(bits) for x in z0]
        coeffs = [c.value(bits) for c in self.coeffs]
        out = []
        for j in range(1, self.d + 1):
            acc = vals[j - 1]
            for k in range(1, j):
                acc = value_add(acc, value_mul(vals[k - 1],
                                               Fraction(math.comb(n, j - k)), bits),
                                bits)
            for i in range(1, j + 1):
                acc = value_add(acc, value_mul(coeffs[self.d - j + i - 1],
                                               Fraction(math.comb(n, i)), bits),
                                bits)
            out.append(value_frac(acc, bits))
        return tuple(out)


def skew_orbit_point(sys: TorusSkewSystem, z0: Optional[tuple], n: int,
                     check_iterate_up_to: int = 0) -> tuple:
    """Closed-form orbit point; optionally cross-checked against n-fold
    iteration (the two reduce to the same exact values)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    z0 = sys.base_point() if z0 is None else z0

    def run(bits):
        pt = sys.closed_form(z0, n, bits)
        if n <= check_iterate_up_to:
            it = sys.iterate(z0, n, bits)
            for a, b in zip(pt, it):
                if not values_agree(a, b):
                    raise AssertionError("closed form disagrees with iteration")
        return pt

    return decide(run)


def values_agree(a: Value, b: Value) -> bool:
    """Exact equality, or enclosures at 64 bits within 2^-40 of meeting."""
    if not isinstance(a, IntervalValue) and not isinstance(b, IntervalValue):
        return exact_compare(a, b) == 0
    tol = Fraction(1, 1 << 40)
    ia, ib = to_interval(a, 64), to_interval(b, 64)
    return not (ia.upper + tol < ib.lower or ib.upper + tol < ia.lower)


def residue_indicator(sys: TorusSkewSystem, z0: Optional[tuple], m: int,
                      r: int, n: int) -> int:
    """1 iff the last orbit coordinate lies in [r/m, (r+1)/m); equals
    floor(p(n)) = r (mod m) for the representing system."""
    if not 0 <= r < m:
        raise ValueError("need 0 <= r < m")
    if n < 0:
        raise ValueError("n must be non-negative")
    z0 = sys.base_point() if z0 is None else z0

    def at(bits):
        last = sys.closed_form(z0, n, bits)[-1]
        return 1 if value_floor(value_mul(last, Fraction(m), bits)) == r else 0

    return decide(at)


# ---------------------------------------------------------------------------
# Heisenberg nilmanifold


def heis_mul(g1: tuple, g2: tuple, bits: int = 64) -> tuple:
    """[x1,y1,z1][x2,y2,z2] = [x1+x2, y1+y2, z1+z2+x1*y2]."""
    x1, y1, z1 = g1
    x2, y2, z2 = g2
    return (value_add(x1, x2, bits), value_add(y1, y2, bits),
            value_add(value_add(z1, z2, bits), value_mul(x1, y2, bits), bits))


def heis_reduce(g: tuple, bits: int = 64) -> tuple[tuple, tuple[int, int, int]]:
    """Fractional representative {g} with all matrix coordinates in [0,1)
    and the integer lattice element gamma with {g} = g * gamma."""
    x, y, z = g
    p = -value_floor(x)
    q = -value_floor(y)
    x2 = value_add(x, Fraction(p), bits)
    y2 = value_add(y, Fraction(q), bits)
    z_shift = value_add(z, value_mul(x, Fraction(q), bits), bits)
    r = -value_floor(z_shift)
    z2 = value_add(z_shift, Fraction(r), bits)
    return (x2, y2, z2), (p, q, r)


def heisenberg_fracpart(alpha, beta, n: int, cross_check: bool = True) -> tuple:
    """Fractional part of g(n) = [-n alpha, n beta, 0].

    Computed both by the closed form [{-n alpha}, {n beta},
    {n alpha floor(n beta)}] and by explicit lattice reduction of the group
    element; the two must resolve identically.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    alpha, beta = ExactReal.from_exact(alpha), ExactReal.from_exact(beta)

    def run(bits):
        na = value_mul(alpha.value(bits), Fraction(n), bits)
        nb = value_mul(beta.value(bits), Fraction(n), bits)
        f1 = value_frac(value_mul(na, Fraction(-1), bits), bits)
        f2 = value_frac(nb, bits)
        f3 = value_frac(value_mul(na, Fraction(value_floor(nb)), bits), bits)
        closed = (f1, f2, f3)
        if cross_check:
            g = (value_mul(na, Fraction(-1), bits), nb, Fraction(0))
            reduced, _ = heis_reduce(g, bits)
            for u, v in zip(closed, reduced):
                if not values_agree(u, v):
                    raise AssertionError(
                        "closed-form and lattice-reduced fractional parts differ")
        return closed

    return decide(run)


# ---------------------------------------------------------------------------
# epsilon schedules and scans


@dataclass(frozen=True)
class EpsilonSchedule:
    """eps(n) = c * n^(-gamma) with rational c >= 0, gamma >= 0 (gamma = 0
    gives the constant schedule)."""

    c: Fraction
    gamma: Fraction = Fraction(0)

    def __post_init__(self):
        if self.c < 0 or self.gamma < 0:
            raise ValueError("schedule must be non-negative and non-increasing")

    @classmethod
    def constant(cls, c) -> "EpsilonSchedule":
        return cls(Fraction(c), Fraction(0))

    @classmethod
    def parse(cls, text: str) -> "EpsilonSchedule":
        text = text.strip().replace(" ", "")
        if "*n^-" in text:
            c_str, g_str = text.split("*n^-")
            return cls(Fraction(c_str), Fraction(g_str))
        return cls.constant(Fraction(text))

    def value_float(self, n: int) -> float:
        return float(self.c) * n ** (-float(self.gamma)) if n > 0 else float(self.c)

    def describe(self) -> str:
        if self.gamma == 0:
            return str(self.c)
        return f"{self.c}*n^-{self.gamma}"


def dist_lt_eps(dist: Value, n: int, eps: EpsilonSchedule, bits: int = 96) -> bool:
    """Exact strict comparison ||..|| < c * n^(-p/q): both sides nonnegative,
    so it squares to dist^q * n^p < c^q.  An enclosure that cannot decide
    raises ``NeedsMoreBits``."""
    if eps.c == 0:
        return False
    p, q = eps.gamma.numerator, eps.gamma.denominator
    lhs = dist
    for _ in range(q - 1):
        lhs = value_mul(lhs, dist, bits)
    lhs = value_mul(lhs, Fraction(n**p), bits)
    return value_compare(lhs, eps.c**q, bits) < 0


@dataclass
class HitCertificate:
    n: int
    dist_enclosure: IntervalValue
    eps_description: str
    eps_float: float


def suffix_hit_scan(alpha, beta, eps: EpsilonSchedule, base: int,
                    suffix: DigitWord, n_max: int) -> Optional[HitCertificate]:
    """First n <= n_max whose base-k expansion ends with the suffix and with
    ||n alpha floor(n beta)|| < eps(n); None when the scan is exhausted
    (a certificate only exists for hits)."""
    step = base ** len(suffix)
    first = suffix.value
    if first == 0 and len(suffix) > 0:
        first = step  # n = 0 has the empty expansion
    n = first if first > 0 else 1
    alpha, beta = ExactReal.from_exact(alpha), ExactReal.from_exact(beta)

    def hit_at(bits: int):
        nb = value_mul(beta.value(bits), Fraction(n), bits)
        x = value_mul(value_mul(alpha.value(bits), Fraction(n), bits),
                      Fraction(value_floor(nb)), bits)
        dist = value_dist(x, bits)
        return dist, dist_lt_eps(dist, n, eps, bits)

    policy = default_policy()
    while n <= n_max:
        dist, hit = decide(hit_at, policy)
        if hit:
            return HitCertificate(n, to_interval(dist, 96),
                                  eps.describe(), eps.value_float(n))
        n += step if len(suffix) > 0 else 1
    return None


# ---------------------------------------------------------------------------
# horizontal characters


@dataclass
class ProbeReport:
    best: tuple[int, int]
    value: Optional[IntervalValue]
    degenerate: bool
    l_bound: int
    above_threshold: Optional[bool]


def horizontal_character_probe(alpha, beta, t: int, l_bound: int,
                               threshold: Optional[Fraction] = None,
                               base: int = 2) -> ProbeReport:
    """Brute-force min of ||k^t (l1 alpha + l2 beta)|| over 0 < max(|l1|,|l2|)
    <= l_bound; an exact zero (rational dependence) is reported as
    degenerate instead of a minimum.  (l1, l2) and (-l1, -l2) have the same
    distance, so only the first of each pair, l1 < 0 or l1 = 0 > l2, is
    visited."""
    if l_bound < 1:
        raise ValueError("l_bound must be >= 1")
    scale = Fraction(base**t)
    alpha, beta = ExactReal.from_exact(alpha), ExactReal.from_exact(beta)
    best_pair = None
    best_val: Optional[Value] = None

    def dist_for(l1: int, l2: int, bits: int):
        comb = value_add(value_mul(alpha.value(bits), Fraction(l1), bits),
                         value_mul(beta.value(bits), Fraction(l2), bits), bits)
        return value_dist(value_mul(comb, scale, bits), bits)

    def closer(bits: int):
        """The current pair's distance, and whether it beats the best so
        far (recomputed at these bits: an enclosure may need more)."""
        val = dist_for(l1, l2, bits)
        if best_pair is None or exact_is_integer(val) == 0:
            return val, True
        return val, value_compare(val, dist_for(*best_pair, bits), bits) < 0

    policy = default_policy()
    for l1 in range(-l_bound, 1):
        for l2 in range(-l_bound, l_bound + 1 if l1 < 0 else 0):
            val, better = decide(closer, policy)
            if exact_is_integer(val) == 0:
                return ProbeReport((l1, l2), None, True, l_bound, None)
            if better:
                best_val = val
                best_pair = (l1, l2)
    above = None
    if threshold is not None:
        above = decide(lambda bits: value_compare(
            dist_for(*best_pair, bits), Fraction(threshold), bits) > 0, policy)
    return ProbeReport(best_pair, to_interval(best_val, 96), False, l_bound, above)


# ---------------------------------------------------------------------------
# densities along orbits


@dataclass
class OrbitDensityReport:
    n: int
    natural: float
    windows: list[tuple[int, float]]
    banach_max: float
    seed: int


def banach_density_scan(indicator: Callable[[int], int], n: int,
                        window_count: int = 6, seed: int = 20160517,
                        window_span: int = 1 << 20) -> OrbitDensityReport:
    """Windowed counting of an orbit-hit indicator (certificate-producing
    scans should be used for the heavy lifting; this is the density view)."""
    count = sum(1 for i in range(n) if indicator(i) == 1)
    rng = random.Random(seed)
    windows = []
    for _ in range(window_count):
        m0 = rng.randrange(window_span)
        c = sum(1 for i in range(m0, m0 + n) if indicator(i) == 1)
        windows.append((m0, c / n))
    return OrbitDensityReport(n, count / n, windows,
                              max(w for _, w in windows) if windows else 0.0,
                              seed)
