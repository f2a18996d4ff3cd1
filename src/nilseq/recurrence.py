"""Linear-recurrence constructions: quadratic (continued-fraction) sets and
the cubic-Pisot best-approximation set.

The quadratic side builds the predicate ||n*alpha|| < 1/(2n).  For a <= 7
its 1-set is the recurrence terms up to a finite head (Legendre direction
is unconditional, the tail direction kicks in once n*||n*alpha|| settles
below 1/2); for a >= 8 each 2*q_k is a member too (``nilseq fib --a 8
--horizon 100000``: head [2, 16, 130, 1056, 8578, 69680]; ROADMAP item 2
states the set for all n).  The cubic side certifies the root pattern of
x^3 - a x^2 - b x - 1, computes the skew norm attached to the complex pair,
brute-forces best approximations of theta = (1/beta, 1/beta^2), and builds
the closed-form predicate h(q)^2 < 1/g(q) that tracks them.

The cubic side computes in Q(beta) with exactreal's ``CubicElem`` (integer
numerators over one denominator; 1/beta = beta^2 - a beta - b lies in
Z[beta]), so every comparison is decided exactly: by a sign test of integer
bounds built from the field's bounds of beta and beta^2.  The two hot
loops, the best-approximation search and the closed-form predicate, decide
first on integer midpoint-radius balls read once per field, and build
exact elements for that sign test only where a ball cannot decide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exactreal import (
    CubicElem,
    CubicField,
    Exact,
    ExactReal,
    IntervalValue,
    PrecisionPolicy,
    cubic_inverse,
    exact_abs,
    exact_add,
    exact_ball,
    exact_compare,
    exact_dist,
    exact_enclosure,
    exact_mul,
    exact_neg,
    exact_nearest,
    exact_sign,
    make_quad,
)
from .genpoly import (
    VAR,
    Const,
    Indicator,
    gp_dist_to_int,
    gp_mul,
    indicator_window,
)


# ---------------------------------------------------------------------------
# quadratic constructions


@dataclass(frozen=True)
class QuadraticParams:
    """alpha = (a + sqrt(a^2+4))/2, the [a; a, a, ...] continued fraction."""

    a: int
    disc: int
    alpha: Exact

    @classmethod
    def of(cls, a: int) -> "QuadraticParams":
        if a < 1:
            raise ValueError("a must be >= 1")
        return cls(a, a * a + 4,
                   make_quad(Fraction(a, 2), Fraction(1, 2), a * a + 4))


def quadratic_terms(a: int, count: int) -> list[int]:
    """n0 = 0, n1 = 1, n_{i+2} = a n_{i+1} + n_i."""
    if count < 1:
        raise ValueError("count must be >= 1")
    terms = [0, 1]
    while len(terms) < count:
        terms.append(a * terms[-1] + terms[-2])
    return terms[:count]


def quadratic_member(a: int, n: int) -> bool:
    """Exact test ||n*alpha|| < 1/(2n) using only integer arithmetic.

    With alpha = (a + sqrt(D))/2 the condition reads |n sqrt(D) - c| < 1/n
    for the unique candidate c = 2m - an of the right parity next to
    n sqrt(D); both strict inequalities square to integer comparisons.
    """
    if n < 1:
        raise ValueError("membership is defined for n >= 1")
    disc = a * a + 4
    t = math.isqrt(n * n * disc)
    c = t if (t - a * n) % 2 == 0 else t + 1
    lhs = n**4 * disc
    return (c * n - 1) ** 2 < lhs < (c * n + 1) ** 2


def scan_quadratic_set(a: int, horizon: int) -> list[int]:
    """All n in [1, horizon] with ||n*alpha|| < 1/(2n)."""
    disc = a * a + 4
    out = []
    for n in range(1, horizon + 1):
        t = math.isqrt(n * n * disc)
        c = t if (t - a * n) % 2 == 0 else t + 1
        lhs = n**4 * disc
        if (c * n - 1) ** 2 < lhs < (c * n + 1) ** 2:
            out.append(n)
    return out


def quadratic_margin(a: int, n: int) -> Exact:
    """n * ||n*alpha|| as an exact quadratic surd (tends to 1/sqrt(a^2+4))."""
    params = QuadraticParams.of(a)
    return exact_mul(exact_dist(exact_mul(params.alpha, Fraction(n))), Fraction(n))


def fibonacci_like_set(a: int,
                       policy: Optional[PrecisionPolicy] = None) -> Indicator:
    """The predicate ||n*alpha|| < 1/(2n) in the generalised-polynomial basis.

    Formal route: with h(n) = 2n * ||n*alpha|| (h >= 0), membership is
    floor(h) = 0, wrapped by the window construction; the irrationality
    parameter sqrt(a^2+4) keeps the wrapper sound.  The semantic twin and
    the integer scanner must agree everywhere (n = 0 is excluded: the
    defining inequality has no meaning there).
    """
    params = QuadraticParams.of(a)
    h = gp_mul(2, VAR, gp_dist_to_int(gp_mul(Const(ExactReal.from_exact(params.alpha)), VAR)))
    ind = indicator_window(h, 0, 1, ExactReal.sqrt(params.disc), policy)
    inner_semantic = ind.semantic

    def semantic(n: int) -> int:
        if n < 1:
            return 0
        return inner_semantic(n)

    ind.semantic = semantic
    return ind


def variable_coefficient_terms(schedule: Sequence[int], count: int) -> list[int]:
    """Demo generator n_{i+2} = a_{i+2} n_{i+1} + n_i for a bounded schedule
    of coefficients a_i >= 2 (no finiteness guarantee claimed)."""
    if any(c < 2 for c in schedule):
        raise ValueError("schedule coefficients must be >= 2")
    terms = [0, 1]
    i = 2
    while len(terms) < count:
        c = schedule[(i - 2) % len(schedule)]
        terms.append(c * terms[-1] + terms[-2])
        i += 1
    return terms[:count]


# ---------------------------------------------------------------------------
# cubic Pisot data


class InvalidPisot(ValueError):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass
class PisotCubicParams:
    """Certified data for x^3 - a x^2 - b x - 1 with unique real root beta > 1.

    The norm form is N(x)^2 = A x1^2 + B x1 x2 + C x2^2 with A, B, C in
    Z[beta] (``norm_a``, ``norm_b``, ``norm_c``).
    """

    a: int
    b: int
    field: CubicField
    beta: CubicElem
    beta_inv: CubicElem
    beta_inv2: CubicElem
    alpha_re: CubicElem
    alpha_im_sq: CubicElem
    norm_a: CubicElem
    norm_b: CubicElem
    norm_c: CubicElem
    m1_sq: Optional[CubicElem] = None
    m1_point: tuple[int, int] = (0, 0)

    def __post_init__(self):
        # N(q theta - p)^2 = q^2 N(theta)^2 - q (p1 K1 + p2 K2)
        #                    + A p1^2 + B p1 p2 + C p2^2,
        # K1 = 2A/beta + B/beta^2, K2 = B/beta + 2C/beta^2, all in Z[beta]
        inv, inv2 = self.beta_inv, self.beta_inv2
        k1 = exact_add(exact_mul(self.norm_a, exact_mul(inv, Fraction(2))),
                       exact_mul(self.norm_b, inv2))
        k2 = exact_add(exact_mul(self.norm_b, inv),
                       exact_mul(self.norm_c, exact_mul(inv2, Fraction(2))))
        self.theta_norm_sq = self.norm_sq(inv, inv2)
        terms = (k1, k2, self.norm_a, self.norm_b, self.norm_c)
        # coordinate i of (K1, K2, A, B, C): the exact offsets of the box search
        self._box_terms = tuple(zip(*((e.n0, e.n1, e.n2) for e in terms)))
        # (mid, rad) of K1, K2, A, B, C and of N(theta)^2 at one scale, the
        # field's first rung: the box search's filter
        bits = self.field.policy.ladder()[0]
        self._balls = tuple(exact_ball(e, bits)[:2] for e in terms)
        self._theta_ball = exact_ball(self.theta_norm_sq, bits)[:2]
        self._beta_float = exact_enclosure(self.beta, 64).to_float()

    def zb_sign(self, x: CubicElem) -> int:
        """Exact sign of an element of Q(beta)."""
        return exact_sign(x)

    def norm_sq(self, x1: Exact, x2: Exact) -> CubicElem:
        """N((x1, x2))^2 for x1, x2 in Q(beta), exactly."""
        return exact_add(
            exact_add(exact_mul(self.norm_a, exact_mul(x1, x1)),
                      exact_mul(self.norm_b, exact_mul(x1, x2))),
            exact_mul(self.norm_c, exact_mul(x2, x2)))


def pisot_cubic_check(a: int, b: int) -> PisotCubicParams:
    """Validate (a, b), certify the root pattern, and assemble the field data.

    Raises InvalidPisot naming the failed condition.
    """
    if not ((a >= 0 and 0 <= b <= a + 1) or (a >= 2 and b == -1)):
        raise InvalidPisot("(a, b) outside (a>=0, 0<=b<=a+1) or (a>=2, b=-1)")
    if a + b == 0:
        raise InvalidPisot("p(1) = 0: polynomial reducible (rational root 1)")
    if b - a - 2 == 0:
        raise InvalidPisot("p(-1) = 0: polynomial reducible (rational root -1)")
    disc = -18 * a * b - 4 * a**3 + a * a * b * b + 4 * b**3 - 27
    if disc >= 0:
        raise InvalidPisot("three real roots: discriminant >= 0")
    if a + b < 0:
        raise InvalidPisot("p(1) > 0: the real root does not exceed 1")
    hi = a + abs(b) + 2
    field = CubicField((1, -a, -b, -1), 1, hi)
    beta = field.beta
    beta_inv = field.element(-b, -a, 1)  # beta^2 - a beta - b
    beta_inv2 = exact_mul(beta_inv, beta_inv)
    alpha_re = field.element(Fraction(a, 2), Fraction(-1, 2), 0)
    # |alpha|^2 = 1/beta
    alpha_im_sq = exact_add(beta_inv, exact_neg(exact_mul(alpha_re, alpha_re)))
    if exact_sign(alpha_im_sq) <= 0:
        raise InvalidPisot("complex pair degenerate: Im(alpha)^2 <= 0")

    # A = b(a - beta)/beta + b^2/beta^2 + 1/beta, B = (a-beta)/beta + 2b/beta^2,
    # C = 1/beta^2
    a_minus_beta = field.element(a, -1, 0)
    norm_a = exact_add(
        exact_add(exact_mul(exact_mul(a_minus_beta, Fraction(b)), beta_inv),
                  exact_mul(beta_inv2, Fraction(b * b))), beta_inv)
    norm_b = exact_add(exact_mul(a_minus_beta, beta_inv),
                       exact_mul(beta_inv2, Fraction(2 * b)))
    params = PisotCubicParams(a, b, field, beta, beta_inv, beta_inv2,
                              alpha_re, alpha_im_sq, norm_a, norm_b, beta_inv2)
    params.m1_sq, params.m1_point = _lattice_min(params, 1)
    return params


def _lattice_min(params: PisotCubicParams, q: int,
                 radius: int = 3) -> tuple[CubicElem, tuple[int, int]]:
    """min over a box of p in Z^2 of N(q theta - p)^2, plus the argmin.

    theta = (1/beta, 1/beta^2).  The box holds the (2 radius + 2)^2 points
    with p_i from floor(q theta_i) - radius to floor(q theta_i) + radius + 1;
    its size is fixed, not widened.  Points are compared through their
    offset N(q theta - p)^2 - N(q theta)^2 = A p1^2 + B p1 p2 + C p2^2
    - q (p1 K1 + p2 K2), an integer combination of five fixed elements of
    Z[beta], each read once as an integer ball (``exact_ball``).  The
    offset's midpoint is then an exact integer, stepped along each p2 row by
    the finite differences of the quadratic form, and its radius is at most
    one bound per q, taken from the largest |p1|, |p2| in the box.

    Points are walked in order and the first strict minimum wins.  The
    exact offset lies in its ball, so a point whose ball lies wholly below
    the best's is smaller and replaces it, and one whose ball lies at or
    above is not smaller and does not.  Only when the two balls overlap are
    both exact offsets built and their difference signed by
    ``params.zb_sign``.  Every decision is the exact one, so ties break as
    an all-exact walk breaks them.  The winner's norm is the one exact
    element built.
    """
    point = _box_min(params, q, radius)[0]
    return _norm_at(params, q, point), point


def _box_min(params: PisotCubicParams, q: int,
             radius: int) -> tuple[tuple[int, int], int, int]:
    """``_lattice_min``'s argmin p, and the ball (mid, rad) of its offset at
    the scale of ``params._balls``."""
    (k1, r1), (k2, r2), (fa, ra), (fb, rb), (fc, rc) = params._balls
    fc2 = 2 * fc
    lo1 = math.floor(q / params._beta_float) - radius
    lo2 = math.floor(q / (params._beta_float * params._beta_float)) - radius
    hi1, hi2 = lo1 + 2 * radius + 1, lo2 + 2 * radius + 1
    m1, m2 = max(-lo1, hi1), max(-lo2, hi2)
    rad = q * (m1 * r1 + m2 * r2) + m1 * m1 * ra + m1 * m2 * rb + m2 * m2 * rc
    gap = 2 * rad  # two balls of radius rad overlap within this distance
    best = best_p = None
    for p1 in range(lo1, hi1 + 1):
        val = p1 * (p1 * fa - q * k1) + lo2 * (lo2 * fc + p1 * fb - q * k2)
        step = p1 * fb - q * k2 + (2 * lo2 + 1) * fc
        for p2 in range(lo2, hi2 + 1):
            if best is None or val < below or (
                    val < above and _offset_below(params, q, (p1, p2), best_p)):
                best, best_p = val, (p1, p2)
                below, above = val - gap, val + gap
            val += step
            step += fc2
    return best_p, best, rad


def _offset(params: PisotCubicParams, q: int, p: tuple[int, int]) -> list[int]:
    """The Z[beta] numerators of N(q theta - p)^2 - N(q theta)^2."""
    p1, p2 = p
    u, v, w, x, y = -q * p1, -q * p2, p1 * p1, p1 * p2, p2 * p2
    return [u * k1 + v * k2 + w * fa + x * fb + y * fc
            for k1, k2, fa, fb, fc in params._box_terms]


def _offset_below(params: PisotCubicParams, q: int, p: tuple[int, int],
                  ref: tuple[int, int]) -> bool:
    """Whether p's offset is strictly below ref's, by one exact sign test."""
    off, ref_off = _offset(params, q, p), _offset(params, q, ref)
    return params.zb_sign(CubicElem(params.field,
                                    *(a - b for a, b in zip(off, ref_off)))) < 0


def _norm_at(params: PisotCubicParams, q: int, p: tuple[int, int]) -> CubicElem:
    """N(q theta - p)^2, exactly."""
    return exact_add(exact_mul(params.theta_norm_sq, Fraction(q * q)),
                     CubicElem(params.field, *_offset(params, q, p)))


# ---------------------------------------------------------------------------
# best approximations


@dataclass
class BestApproxRecord:
    q: int
    nearest: tuple[int, int]
    norm_sq: CubicElem

    def norm_enclosure(self, bits: int = 96) -> IntervalValue:
        return exact_enclosure(self.norm_sq, 2 * bits).sqrt(bits)


@dataclass
class BestApproxReport:
    q_max: int
    flagged: list[BestApproxRecord]

    @property
    def flagged_qs(self) -> list[int]:
        return [rec.q for rec in self.flagged]


def best_approximations(params: PisotCubicParams, q_max: int) -> BestApproxReport:
    """Running-minimum scan of N0(q theta) for q = 1..q_max.

    q is flagged best when its distance strictly beats every smaller q.
    Each q's box minimum comes with the ball of its offset (see
    ``_lattice_min``); adding q^2 times the ball of N(theta)^2 gives a ball
    of the minimum itself.  A ball wholly below the running minimum's flags
    q, and one at or above does not; only when they overlap is q's norm
    built and its difference to the running minimum signed by
    ``params.zb_sign``.  The norm is otherwise built for flagged q only.
    Every decision is the exact Z[beta] one, so ties resolve exactly (an
    equal minimum simply is not flagged).
    """
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    t_mid, t_rad = params._theta_ball
    flagged: list[BestApproxRecord] = []
    run_lo = run_hi = 0
    for q in range(1, q_max + 1):
        point, mid, rad = _box_min(params, q, radius=2)
        mid += q * q * t_mid
        rad += q * q * t_rad
        if flagged and mid - rad >= run_hi:
            continue
        val = _norm_at(params, q, point)
        if flagged and mid + rad >= run_lo and params.zb_sign(
                exact_add(val, exact_neg(flagged[-1].norm_sq))) >= 0:
            continue
        flagged.append(BestApproxRecord(q, point, val))
        run_lo, run_hi = mid - rad, mid + rad
    return BestApproxReport(q_max, flagged)


def cubic_terms(a: int, b: int, count: int) -> list[int]:
    """R_0 = 1, R_1 = a, R_2 = a^2 + b, R_n = a R_{n-1} + b R_{n-2} + R_{n-3}."""
    if count < 1:
        raise ValueError("count must be >= 1")
    terms = [1, a, a * a + b]
    while len(terms) < count:
        terms.append(a * terms[-1] + b * terms[-2] + terms[-3])
    return terms[:count]


def increasing_from(terms: Sequence[int]) -> int:
    """Smallest index from which the term list is strictly increasing."""
    idx = len(terms) - 1
    while idx >= 1 and terms[idx] > terms[idx - 1]:
        idx -= 1
    return idx


# ---------------------------------------------------------------------------
# the closed-form predicate


class PisotGpPredicate:
    """q-predicate h(q)^2 < 1/g(q) tracking the best approximations.

    g(q) is proportional to q + ((b beta + 1)/beta^2) <<q/beta>> +
    (1/beta) <<q/beta^2>>, and h(q) is the norm at the nearest-integer pair
    (p1, p2) obtained by resolving first the imaginary, then the real
    coordinate.  Along best approximations the product h^2 * g is exactly
    constant in the field (the records decay geometrically while g grows by
    the matching power), so the normalizing constant is calibrated from the
    records themselves and the threshold is set one factor of 2 above it.

    Membership is decided first on integer midpoint-radius balls, read once
    at the field's first rung (``exact_ball``): each nearest integer from
    the ball of its argument, the ball of g, and the ball of h^2 g compared
    with the threshold's, h^2 = N(q theta - p)^2 taken from the box search's
    balls (``params._balls``, ``params._theta_ball``).  Only when a ball
    straddles a half-integer, g's ball straddles 0, or h^2 g's ball overlaps
    the threshold's is the exact element built and its sign tested in the
    cubic field; the exact ties h^2 g = threshold always end there.  Every
    answer is the exact one.  An optional interval-only replay at a chosen
    precision guards against precision-tuned answers.
    """

    def __init__(self, params: PisotCubicParams):
        self.params = params
        # (b beta + 1)/beta^2
        self.c1 = exact_mul(params.field.element(1, params.b), params.beta_inv2)
        self.c2 = params.beta_inv
        # beta * Re(alpha + b/beta) = beta (a - beta)/2 + b
        self.beta_re = exact_add(exact_mul(params.beta, params.alpha_re),
                                 Fraction(params.b))
        self._record_const = self._calibrate()
        self.threshold = exact_mul(self._record_const, Fraction(2))
        # (mid, rad) of 1/beta, 1/beta^2, c1, c2, beta_re, E = beta_re/beta
        # + 1/beta^2 and the threshold, at the scale of params._balls (the
        # same exact_ball at the same rung): __call__'s filter
        e = exact_add(exact_mul(self.beta_re, params.beta_inv), params.beta_inv2)
        bits = params.field.policy.ladder()[0]
        balls = [exact_ball(x, bits) for x in (
            params.beta_inv, params.beta_inv2, self.c1, self.c2, self.beta_re,
            e, self.threshold)]
        self._scale = balls[0][2]
        self._balls = tuple(v for ball in balls for v in ball[:2])

    def _calibrate(self) -> CubicElem:
        flags: list[int] = []
        q_max = 400
        while q_max <= 1 << 22:
            flags = best_approximations(self.params, q_max).flagged_qs
            if len(flags) >= 6:
                break
            q_max *= 4
        if len(flags) < 6:
            raise InvalidPisot("too few best approximations to calibrate")
        tail = flags[-3:]
        values = [exact_mul(self._h_sq(t), self._g(t)) for t in map(self._terms, tail)]
        for v in values[1:]:
            if not exact_add(v, exact_neg(values[0])).is_zero():
                raise InvalidPisot("record product not constant; calibration failed")
        return values[0]

    def _terms(self, q: int) -> tuple[int, CubicElem, CubicElem, int]:
        """(q, q/beta, q/beta^2, <<q/beta>>): what g(q) and h(q) share."""
        p = self.params
        x1 = exact_mul(p.beta_inv, Fraction(q))
        return q, x1, exact_mul(p.beta_inv2, Fraction(q)), exact_nearest(x1)

    def _g(self, terms) -> CubicElem:
        q, _, y, p1 = terms
        p = self.params
        p2 = exact_nearest(y)
        acc = exact_add(p.field.element(q), exact_mul(self.c1, Fraction(p1)))
        acc = exact_add(acc, exact_mul(self.c2, Fraction(p2)))
        return acc  # this is g(q) * m1^2

    def _h_sq(self, terms) -> CubicElem:
        q, x1, y, p1 = terms
        p2 = exact_nearest(exact_add(
            exact_mul(self.beta_re, exact_add(x1, Fraction(-p1))), y))
        return _norm_at(self.params, q, (p1, p2))

    def g_value(self, q: int) -> CubicElem:
        return self._g(self._terms(q))

    def h_sq(self, q: int) -> CubicElem:
        return self._h_sq(self._terms(q))

    def __call__(self, q: int) -> int:
        """1 iff h(q)^2 < 1/g(q) for the calibrated normalization."""
        if q < 1:
            return 0
        (inv, r_inv, inv2, r_inv2, c1, r_c1, c2, r_c2, b_re, r_b_re, e, r_e,
         thr, r_thr) = self._balls
        s = self._scale
        p1 = _ball_nearest(q * inv, q * r_inv, s)
        p2g = _ball_nearest(q * inv2, q * r_inv2, s)
        if p1 is None or p2g is None:
            return self._decide_exactly(q)
        # h's p2 = <<beta_re (q/beta - p1) + q/beta^2>> = <<q E - p1 beta_re>>
        p2 = _ball_nearest(q * e - p1 * b_re, q * r_e + abs(p1) * r_b_re, s)
        g = q * s + p1 * c1 + p2g * c2
        g_rad = abs(p1) * r_c1 + abs(p2g) * r_c2
        if g + g_rad <= 0:
            return 0
        if p2 is None or g - g_rad <= 0:
            return self._decide_exactly(q)
        (k1, r1), (k2, r2), (fa, ra), (fb, rb), (fc, rc) = self.params._balls
        t_mid, t_rad = self.params._theta_ball
        h = q * (q * t_mid - p1 * k1 - p2 * k2) + p1 * (p1 * fa + p2 * fb) \
            + p2 * p2 * fc
        h_rad = q * (q * t_rad + abs(p1) * r1 + abs(p2) * r2) \
            + p1 * p1 * ra + abs(p1 * p2) * rb + p2 * p2 * rc
        # h^2 g and the threshold, both at scale s^2
        lhs, lhs_rad = h * g, abs(h) * g_rad + h_rad * (g + g_rad)
        if lhs + lhs_rad < (thr - r_thr) * s:
            return 1
        if lhs - lhs_rad >= (thr + r_thr) * s:
            return 0
        return self._decide_exactly(q)

    def _decide_exactly(self, q: int) -> int:
        """``__call__``'s answer from exact elements and sign tests."""
        terms = self._terms(q)
        gm = self._g(terms)
        if exact_sign(gm) <= 0:
            return 0
        lhs = exact_mul(self._h_sq(terms), gm)
        return 1 if exact_compare(lhs, self.threshold) < 0 else 0

    def interval_replay(self, q: int, bits: int) -> Optional[int]:
        """Same test from pure enclosures at a fixed precision; None when the
        enclosure cannot decide (never silently rounds)."""
        if q < 1:
            return 0
        terms = self._terms(q)
        gm = exact_enclosure(self._g(terms), bits)
        lhs = exact_enclosure(self._h_sq(terms), bits) * gm
        rhs = exact_enclosure(self.threshold, bits)
        if lhs.upper < rhs.lower:
            return 1
        if lhs.lower >= rhs.upper:
            return 0
        return None


def _ball_nearest(mid: int, rad: int, scale: int) -> Optional[int]:
    """<<x>> for every x within rad/scale of mid/scale, or None when that
    ball straddles a half-integer (ties round up, as ``exact_nearest``)."""
    half = scale >> 1
    lo = (mid - rad + half) // scale
    return lo if lo == (mid + rad + half) // scale else None


# ---------------------------------------------------------------------------
# nearest powers of beta


@dataclass
class NearestPowerReport:
    u_coeffs: tuple[Fraction, Fraction, Fraction]
    max_residual: float
    residual_from: int
    residual_ok: bool
    translation_ok: bool

    @property
    def ok(self) -> bool:
        return self.residual_ok and self.translation_ok


def leading_coefficient(params: PisotCubicParams) -> CubicElem:
    """u with R_n = u beta^n + o(1): u = G(beta)/p'(beta) for the generating
    numerator G and derivative p' of the minimal polynomial."""
    a, b = params.a, params.b
    r0, r1, r2 = 1, a, a * a + b
    g_beta = params.field.element(r2 - a * r1 - b * r0, r1 - a * r0, r0)
    p_prime = params.field.element(-b, -2 * a, 3)
    return exact_mul(g_beta, cubic_inverse(p_prime))


def nearest_power_set_equiv(params: PisotCubicParams) -> NearestPowerReport:
    """Check R_n = u beta^n + o(1) (|residual| < 10^-3 for 32 <= n <= 40)
    and, for 10 <= n <= 40, the translation criterion
    m = <<beta^n>> iff <<u m>> = R_n and ||u m|| < |u|/2."""
    residual_from = 32
    u = leading_coefficient(params)
    if u.is_zero():
        raise AssertionError("u = 0 would force the sequence to vanish")
    terms = cubic_terms(params.a, params.b, 41)
    beta_pow = params.field.element(1)
    max_res = 0.0
    translation_ok = True
    half_u = exact_mul(exact_abs(u), Fraction(1, 2))
    for n in range(41):
        if n > 0:
            beta_pow = exact_mul(beta_pow, params.beta)
        diff = exact_add(params.field.element(terms[n]),
                         exact_neg(exact_mul(u, beta_pow)))
        res = abs(exact_enclosure(diff, 96).to_float())
        if n >= residual_from:
            max_res = max(max_res, res)
        if n >= 10:
            um = exact_mul(u, Fraction(exact_nearest(beta_pow)))
            if (exact_nearest(um) != terms[n]
                    or exact_compare(exact_dist(um), half_u) >= 0):
                translation_ok = False
    return NearestPowerReport(u.c, max_res, residual_from, max_res < 1e-3,
                              translation_ok)
