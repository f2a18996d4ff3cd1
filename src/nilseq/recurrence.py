"""Linear-recurrence constructions: quadratic (continued-fraction) sets and
the cubic-Pisot best-approximation set.

The quadratic side builds the predicate ||n*alpha|| < 1/(2n) whose 1-set
agrees with the recurrence terms up to a finite head (Legendre direction is
unconditional, the tail direction kicks in once n*||n*alpha|| settles below
1/2).  The cubic side certifies the root pattern of x^3 - a x^2 - b x - 1,
computes the skew norm attached to the complex pair, brute-forces best
approximations of theta = (1/beta, 1/beta^2), and builds the closed-form
predicate h(q)^2 < 1/g(q) that tracks them.

Everything on the cubic side lives in Z[beta] (note 1/beta = beta^2 - a
beta - b), so all comparisons are exact integer-triple sign tests against a
refinable dyadic enclosure of beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .exactreal import (
    CubicElem,
    CubicField,
    Exact,
    ExactReal,
    IntervalValue,
    NeedsMoreBits,
    PrecisionPolicy,
    decide,
    default_policy,
    exact_add,
    exact_compare,
    exact_enclosure,
    exact_floor,
    exact_mul,
    exact_neg,
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


def scan_quadratic_set(a: int, horizon: int, start: int = 1) -> list[int]:
    """All n in [start, horizon] with ||n*alpha|| < 1/(2n)."""
    disc = a * a + 4
    out = []
    for n in range(max(start, 1), horizon + 1):
        t = math.isqrt(n * n * disc)
        c = t if (t - a * n) % 2 == 0 else t + 1
        lhs = n**4 * disc
        if (c * n - 1) ** 2 < lhs < (c * n + 1) ** 2:
            out.append(n)
    return out


def quadratic_margin(a: int, n: int) -> Exact:
    """n * ||n*alpha|| as an exact quadratic surd (tends to 1/sqrt(a^2+4))."""
    params = QuadraticParams.of(a)
    x = exact_mul(params.alpha, Fraction(n))
    m = exact_floor(exact_add(x, Fraction(1, 2)))
    diff = exact_add(x, Fraction(-m))
    if exact_sign(diff) < 0:
        diff = exact_neg(diff)
    return exact_mul(diff, Fraction(n))


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


def _zb_mul(x: tuple[int, int, int], y: tuple[int, int, int],
            a: int, b: int) -> tuple[int, int, int]:
    """Product in Z[beta], beta^3 = a beta^2 + b beta + 1."""
    x0, x1, x2 = x
    y0, y1, y2 = y
    c0 = x0 * y0
    c1 = x0 * y1 + x1 * y0
    c2 = x0 * y2 + x1 * y1 + x2 * y0
    c3 = x1 * y2 + x2 * y1
    c4 = x2 * y2
    # beta^4 = a beta^3 + b beta^2 + beta
    c2 += c4 * b + c3 * a + c4 * a * a
    c1 += c3 * b + c4 * a * b + c4
    c0 += c3 + c4 * a
    return (c0, c1, c2)


def _zb_add(x, y):
    return (x[0] + y[0], x[1] + y[1], x[2] + y[2])


def _zb_sub(x, y):
    return (x[0] - y[0], x[1] - y[1], x[2] - y[2])


def _zb_scale(x, c: int):
    return (x[0] * c, x[1] * c, x[2] * c)


@dataclass
class PisotCubicParams:
    """Certified data for x^3 - a x^2 - b x - 1 with unique real root beta > 1."""

    a: int
    b: int
    field: CubicField
    beta: CubicElem
    beta_inv: CubicElem
    beta_inv2: CubicElem
    alpha_re: CubicElem
    alpha_im_sq: CubicElem
    m1_sq: CubicElem
    m1_point: tuple[int, int]
    # integer-triple mirrors (Z[beta]) of the norm form N(x)^2 = A x1^2 + B x1 x2 + C x2^2
    norm_a: tuple[int, int, int]
    norm_b: tuple[int, int, int]
    norm_c: tuple[int, int, int]
    zb_inv: tuple[int, int, int]
    zb_inv2: tuple[int, int, int]

    # dyadic enclosure state for integer-triple sign tests
    def __post_init__(self):
        self._pows: dict[int, tuple[int, int, int, int, int]] = {}
        self._sign_policy = default_policy(96)

    def _beta_bounds(self, bits: int) -> tuple[int, int, int, int, int]:
        """1, beta and beta^2 scaled by 4^bits: the integer 4^bits and
        integer lower and upper bounds of the other two."""
        cached = self._pows.get(bits)
        if cached is None:
            lo, hi = self.field.refine(bits)
            scale = 1 << bits
            lo_i = math.floor(lo * scale)
            hi_i = math.ceil(hi * scale)
            cached = (scale * scale, lo_i * scale, hi_i * scale,
                      lo_i * lo_i, hi_i * hi_i)
            self._pows[bits] = cached
        return cached

    def zb_sign(self, z: tuple[int, int, int]) -> int:
        """Exact sign of z0 + z1 beta + z2 beta^2."""
        if z == (0, 0, 0):
            return 0

        def at(bits: int) -> int:
            one, b_lo, b_hi, b2_lo, b2_hi = self._beta_bounds(bits)
            lo = hi = z[0] * one
            for coef, plo, phi in ((z[1], b_lo, b_hi), (z[2], b2_lo, b2_hi)):
                if coef >= 0:
                    lo += coef * plo
                    hi += coef * phi
                else:
                    lo += coef * phi
                    hi += coef * plo
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            raise NeedsMoreBits("Z[beta] sign unresolved", detail=z)

        # beta is irrational of degree 3, so a nonzero z settles
        return decide(at, self._sign_policy)

    def zb_norm_sq(self, x1: tuple[int, int, int],
                   x2: tuple[int, int, int]) -> tuple[int, int, int]:
        a, b = self.a, self.b
        t = _zb_add(_zb_mul(self.norm_a, _zb_mul(x1, x1, a, b), a, b),
                    _zb_mul(self.norm_b, _zb_mul(x1, x2, a, b), a, b))
        return _zb_add(t, _zb_mul(self.norm_c, _zb_mul(x2, x2, a, b), a, b))

    def elem(self, z: tuple[int, int, int], den: int = 1) -> CubicElem:
        return self.field.element(Fraction(z[0], den), Fraction(z[1], den),
                                  Fraction(z[2], den))


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
    alpha_abs_sq = beta_inv
    alpha_im_sq = exact_add(alpha_abs_sq, exact_neg(exact_mul(alpha_re, alpha_re)))
    if exact_sign(alpha_im_sq) <= 0:
        raise InvalidPisot("complex pair degenerate: Im(alpha)^2 <= 0")

    zb_inv = (-b, -a, 1)
    zb_inv2 = _zb_mul(zb_inv, zb_inv, a, b)
    # N(x)^2 = A x1^2 + B x1 x2 + C x2^2 with
    # A = b(a - beta)/beta + b^2/beta^2 + 1/beta, B = (a-beta)/beta + 2b/beta^2,
    # C = 1/beta^2; all of these lie in Z[beta]
    a_minus_beta = (a, -1, 0)
    norm_a = _zb_add(_zb_add(_zb_mul(_zb_scale(a_minus_beta, b), zb_inv, a, b),
                             _zb_scale(zb_inv2, b * b)), zb_inv)
    norm_b = _zb_add(_zb_mul(a_minus_beta, zb_inv, a, b), _zb_scale(zb_inv2, 2 * b))
    norm_c = zb_inv2

    params = PisotCubicParams(a, b, field, beta, beta_inv, beta_inv2,
                              alpha_re, alpha_im_sq,
                              field.element(0), (0, 0),
                              norm_a, norm_b, norm_c, zb_inv, zb_inv2)
    m1_sq, point = _lattice_min(params, 1)
    params.m1_sq = params.elem(m1_sq)
    params.m1_point = point
    return params


def _lattice_min(params: PisotCubicParams, q: int,
                 radius: int = 3) -> tuple[tuple[int, int, int], tuple[int, int]]:
    """min over p in Z^2 of N(q theta - p)^2 as a Z[beta] triple, plus argmin.

    theta = (1/beta, 1/beta^2); the search box is centered on the real
    coordinates and widened until the boundary cannot beat the interior
    minimum (norm equivalence with the max norm).
    """
    t1 = _zb_scale(params.zb_inv, q)
    t2 = _zb_scale(params.zb_inv2, q)
    beta_f = _beta_float(params)
    c1 = q / beta_f
    c2 = q / (beta_f * beta_f)
    best = None
    best_p = None
    for p1 in range(math.floor(c1) - radius, math.floor(c1) + radius + 2):
        for p2 in range(math.floor(c2) - radius, math.floor(c2) + radius + 2):
            x1 = _zb_sub(t1, (p1, 0, 0))
            x2 = _zb_sub(t2, (p2, 0, 0))
            val = params.zb_norm_sq(x1, x2)
            if best is None or params.zb_sign(_zb_sub(val, best)) < 0:
                best = val
                best_p = (p1, p2)
    return best, best_p


def _beta_float(params: PisotCubicParams) -> float:
    lo, hi = params.field.refine(64)
    return float((lo + hi) / 2)


def rauzy_norm_sq(params: PisotCubicParams, x1: Fraction, x2: Fraction) -> CubicElem:
    """N(x)^2 for rational x, exactly in the cubic field."""
    x1, x2 = Fraction(x1), Fraction(x2)
    d = math.lcm(x1.denominator, x2.denominator)
    z1 = (x1.numerator * (d // x1.denominator), 0, 0)
    z2 = (x2.numerator * (d // x2.denominator), 0, 0)
    raw = params.zb_norm_sq(z1, z2)
    return params.elem(raw, d * d)


def rauzy_norm(params: PisotCubicParams, x1, x2) -> ExactReal:
    return ExactReal.sqrt_of_exact(rauzy_norm_sq(params, x1, x2))


# ---------------------------------------------------------------------------
# best approximations


@dataclass
class BestApproxRecord:
    q: int
    nearest: tuple[int, int]
    norm_sq: CubicElem
    is_best: bool

    def norm_enclosure(self, bits: int = 96) -> IntervalValue:
        return exact_enclosure(self.norm_sq, 2 * bits).sqrt(bits)


@dataclass
class BestApproxReport:
    q_max: int
    flagged: list[BestApproxRecord]
    norm_sq_of: dict[int, CubicElem]

    @property
    def flagged_qs(self) -> list[int]:
        return [rec.q for rec in self.flagged]


def best_approximations(params: PisotCubicParams, q_max: int,
                        track: Iterable[int] = ()) -> BestApproxReport:
    """Running-minimum scan of N0(q theta) for q = 1..q_max.

    q is flagged best when its distance strictly beats every smaller q.
    All comparisons are exact Z[beta] sign tests; ties therefore resolve
    exactly (an equal minimum simply is not flagged).
    """
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    track = set(track)
    flagged: list[BestApproxRecord] = []
    norm_sq_of: dict[int, CubicElem] = {}
    running: Optional[tuple[int, int, int]] = None
    for q in range(1, q_max + 1):
        val, point = _lattice_min(params, q, radius=2)
        if q in track:
            norm_sq_of[q] = params.elem(val)
        if running is None or params.zb_sign(_zb_sub(val, running)) < 0:
            flagged.append(BestApproxRecord(q, point, params.elem(val), True))
            running = val
    return BestApproxReport(q_max, flagged, norm_sq_of)


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


def _cubic_nearest(params: PisotCubicParams, x: CubicElem) -> int:
    """<<x>> = floor(x + 1/2), exact."""
    return exact_floor(exact_add(x, Fraction(1, 2)))


class PisotGpPredicate:
    """q-predicate h(q)^2 < 1/g(q) tracking the best approximations.

    g(q) is proportional to q + ((b beta + 1)/beta^2) <<q/beta>> +
    (1/beta) <<q/beta^2>>, and h(q) is the norm at the nearest-integer pair
    (p1, p2) obtained by resolving first the imaginary, then the real
    coordinate.  Along best approximations the product h^2 * g is exactly
    constant in the field (the records decay geometrically while g grows by
    the matching power), so the normalizing constant is calibrated from the
    records themselves and the threshold is set one factor of 2 above it;
    membership is then an exact sign test in the cubic field.  An optional
    interval-only replay at a chosen precision guards against
    precision-tuned answers.
    """

    def __init__(self, params: PisotCubicParams, calibration_qmax: int = 400):
        self.params = params
        f = params.field
        self.c1 = exact_mul(
            exact_add(exact_mul(f.element(params.b), params.beta), f.element(1)),
            params.beta_inv2)  # (b beta + 1)/beta^2
        self.c2 = params.beta_inv
        # beta * Re(alpha + b/beta) = beta (a - beta)/2 + b
        self.beta_re = exact_add(
            exact_mul(params.beta,
                      f.element(Fraction(params.a, 2), Fraction(-1, 2), 0)),
            f.element(params.b))
        self._record_const = self._calibrate(calibration_qmax)
        self.threshold = exact_mul(self._record_const, Fraction(2))

    def _calibrate(self, q_max: int) -> CubicElem:
        flags: list[int] = []
        while q_max <= 1 << 22:
            flags = best_approximations(self.params, q_max).flagged_qs
            if len(flags) >= 6:
                break
            q_max *= 4
        if len(flags) < 6:
            raise InvalidPisot("too few best approximations to calibrate")
        tail = flags[-3:]
        values = [exact_mul(self.h_sq(q), self.g_value(q)) for q in tail]
        for v in values[1:]:
            if not exact_add(v, exact_neg(values[0])).is_zero():
                raise InvalidPisot("record product not constant; calibration failed")
        return values[0]

    def g_value(self, q: int) -> CubicElem:
        p = self.params
        p1 = _cubic_nearest(p, exact_mul(p.beta_inv, Fraction(q)))
        p2 = _cubic_nearest(p, exact_mul(p.beta_inv2, Fraction(q)))
        acc = exact_add(p.field.element(q), exact_mul(self.c1, Fraction(p1)))
        acc = exact_add(acc, exact_mul(self.c2, Fraction(p2)))
        return acc  # this is g(q) * m1^2

    def h_sq(self, q: int) -> CubicElem:
        p = self.params
        x1 = exact_add(exact_mul(p.beta_inv, Fraction(q)), Fraction(0))
        p1 = _cubic_nearest(p, x1)
        x1 = exact_add(x1, Fraction(-p1))
        inner = exact_add(exact_mul(self.beta_re, x1),
                          exact_mul(p.beta_inv2, Fraction(q)))
        p2 = _cubic_nearest(p, inner)
        x2 = exact_add(exact_mul(p.beta_inv2, Fraction(q)), Fraction(-p2))
        # N((x1, x2))^2 via the exact quadratic form
        a_el = p.elem(p.norm_a)
        b_el = p.elem(p.norm_b)
        c_el = p.elem(p.norm_c)
        out = exact_add(
            exact_add(exact_mul(a_el, exact_mul(x1, x1)),
                      exact_mul(b_el, exact_mul(x1, x2))),
            exact_mul(c_el, exact_mul(x2, x2)))
        return out

    def __call__(self, q: int) -> int:
        """1 iff h(q)^2 < 1/g(q) for the calibrated normalization."""
        if q < 1:
            return 0
        gm = self.g_value(q)
        if exact_sign(gm) <= 0:
            return 0
        lhs = exact_mul(self.h_sq(q), gm)
        return 1 if exact_compare(lhs, self.threshold) < 0 else 0

    def interval_replay(self, q: int, bits: int) -> Optional[int]:
        """Same test from pure enclosures at a fixed precision; None when the
        enclosure cannot decide (never silently rounds)."""
        if q < 1:
            return 0
        gm = exact_enclosure(self.g_value(q), bits)
        lhs = exact_enclosure(self.h_sq(q), bits) * gm
        rhs = exact_enclosure(self.threshold, bits)
        if lhs.upper < rhs.lower:
            return 1
        if lhs.lower >= rhs.upper:
            return 0
        return None


def pisot_gp_set(params: PisotCubicParams) -> PisotGpPredicate:
    return PisotGpPredicate(params)


# ---------------------------------------------------------------------------
# nearest powers of beta


def _cubic_inverse(params: PisotCubicParams, x: CubicElem) -> CubicElem:
    """Inverse in Q(beta) by solving the 3x3 multiplication system."""
    f = params.field
    cols = []
    basis = [f.element(1), f.beta, exact_mul(f.beta, f.beta)]
    for e in basis:
        prod = exact_mul(x, e)
        cols.append(list(prod.c))
    # solve M y = (1, 0, 0)
    m = [[cols[j][i] for j in range(3)] for i in range(3)]
    rhs = [Fraction(1), Fraction(0), Fraction(0)]
    for col in range(3):
        piv = next(r for r in range(col, 3) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        rhs[col] = rhs[col] * inv
        for r in range(3):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
                rhs[r] = rhs[r] - factor * rhs[col]
    return f.element(rhs[0], rhs[1], rhs[2])


@dataclass
class NearestPowerReport:
    u_coeffs: tuple[Fraction, Fraction, Fraction]
    max_residual: float
    residual_from: int
    residual_ok: bool
    translation_checked: tuple[int, int]
    translation_ok: bool

    @property
    def ok(self) -> bool:
        return self.residual_ok and self.translation_ok


def leading_coefficient(params: PisotCubicParams) -> CubicElem:
    """u with R_n = u beta^n + o(1): u = G(beta)/p'(beta) for the generating
    numerator G and derivative p' of the minimal polynomial."""
    a, b = params.a, params.b
    r0, r1, r2 = 1, a, a * a + b
    f = params.field
    g_beta = exact_add(
        exact_add(exact_mul(f.element(r0), exact_mul(f.beta, f.beta)),
                  exact_mul(f.element(r1 - a * r0), f.beta)),
        f.element(r2 - a * r1 - b * r0))
    p_prime = exact_add(
        exact_add(exact_mul(f.element(3), exact_mul(f.beta, f.beta)),
                  exact_mul(f.element(-2 * a), f.beta)),
        f.element(-b))
    return exact_mul(g_beta, _cubic_inverse(params, p_prime))


def nearest_power_set_equiv(params: PisotCubicParams, horizon: int = 40,
                            residual_from: int = 32,
                            residual_tol: float = 1e-3,
                            translate_range: tuple[int, int] = (10, 40)
                            ) -> NearestPowerReport:
    """Check R_n = u beta^n + o(1) and the translation criterion
    m = <<beta^n>> iff <<u m>> = R_n and ||u m|| < |u|/2."""
    u = leading_coefficient(params)
    if u.is_zero():
        raise AssertionError("u = 0 would force the sequence to vanish")
    terms = cubic_terms(params.a, params.b, horizon + 1)
    beta_pow = params.field.element(1)
    max_res = 0.0
    translation_ok = True
    abs_u = u if exact_sign(u) > 0 else exact_neg(u)
    half_u = exact_mul(abs_u, Fraction(1, 2))
    lo_t, hi_t = translate_range
    for n in range(horizon + 1):
        if n > 0:
            beta_pow = exact_mul(beta_pow, params.beta)
        diff = exact_add(params.field.element(terms[n]),
                         exact_neg(exact_mul(u, beta_pow)))
        res = abs(exact_enclosure(diff, 96).to_float())
        if n >= residual_from:
            max_res = max(max_res, res)
        if lo_t <= n <= hi_t:
            s_n = exact_floor(exact_add(beta_pow, Fraction(1, 2)))
            um = exact_mul(u, Fraction(s_n))
            near = exact_floor(exact_add(um, Fraction(1, 2)))
            dist = exact_add(um, Fraction(-near))
            if exact_sign(dist) < 0:
                dist = exact_neg(dist)
            if near != terms[n] or exact_compare(dist, half_u) >= 0:
                translation_ok = False
    return NearestPowerReport(u.c, max_res, residual_from,
                              max_res < residual_tol,
                              translate_range, translation_ok)
