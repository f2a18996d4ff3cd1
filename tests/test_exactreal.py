import functools
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from nilseq.exactreal import (
    CubicElem,
    CubicField,
    ExactReal,
    IntervalValue,
    NeedsMoreBits,
    PrecisionExhausted,
    PrecisionPolicy,
    _interval,
    decide,
    exact_add,
    exact_ball,
    exact_compare,
    exact_enclosure,
    exact_floor,
    exact_is_integer,
    exact_mul,
    exact_neg,
    exact_sign,
    cubic_inverse,
    make_quad,
    value_compare,
    value_dist,
    value_frac,
    value_nearest,
)

SQRT2 = make_quad(0, 1, 2)
SQRT3 = make_quad(0, 1, 3)
PHI = make_quad(Fraction(1, 2), Fraction(1, 2), 5)


def test_quad_floor_against_math():
    for mult in range(-50, 50):
        x = exact_mul(SQRT2, Fraction(mult))
        assert exact_floor(x) == math.floor(mult * math.sqrt(2))
    assert exact_floor(exact_mul(SQRT2, Fraction(5))) == 7


def test_quad_collapses_to_rational():
    assert make_quad(1, 0, 2) == Fraction(1)
    assert make_quad(0, 1, 4) == Fraction(2)
    assert make_quad(0, 1, 8) == make_quad(0, 2, 2)


def test_surd_sum_arithmetic():
    mix = exact_add(SQRT2, SQRT3)
    assert exact_floor(mix) == 3
    sq = exact_mul(mix, mix)  # 5 + 2 sqrt(6)
    assert exact_floor(sq) == 9
    assert exact_compare(sq, Fraction(5)) > 0
    # (sqrt2 + sqrt3)(sqrt3 - sqrt2) = 1
    other = exact_add(SQRT3, exact_neg(SQRT2))
    assert exact_mul(mix, other) == Fraction(1)
    # sqrt6 sqrt10 folds through gcd 2 into 2 sqrt15
    six_ten = exact_mul(exact_add(SQRT2, make_quad(0, 1, 6)),
                        exact_add(SQRT3, make_quad(0, 1, 10)))
    want = exact_add(exact_add(make_quad(0, 1, 6), make_quad(0, 2, 5)),
                     exact_add(make_quad(0, 3, 2), make_quad(0, 2, 15)))
    assert exact_compare(six_ten, want) == 0


def test_sign_and_compare():
    assert exact_sign(exact_add(SQRT2, Fraction(-2))) == -1
    assert exact_sign(exact_add(SQRT2, Fraction(-1))) == 1
    assert exact_compare(PHI, Fraction(1618, 1000)) > 0
    assert exact_compare(PHI, Fraction(1619, 1000)) < 0


def test_mixed_fields_leave_exact_layer():
    field = CubicField((1, -1, 0, -1), 1, 2)
    assert exact_add(field.beta, SQRT2) is None
    assert exact_mul(field.beta, SQRT2) is None


def test_cubic_field_basics():
    field = CubicField((1, -1, 0, -1), 1, 2)  # x^3 - x^2 - 1
    beta = field.beta
    b2 = exact_mul(beta, beta)
    b3 = exact_mul(b2, beta)
    assert exact_add(b3, exact_neg(exact_add(b2, Fraction(1)))).is_zero()
    inv = exact_add(b2, exact_neg(beta))  # beta^2 - beta = 1/beta
    assert exact_mul(beta, inv) == field.element(1)
    assert exact_floor(exact_mul(b3, b2)) == 6  # beta^5 ~ 6.75


def test_cubic_fields_equal_only_on_the_same_root():
    # x^3 - 3x + 1 has roots near -1.88, 0.35 and 1.53
    small = CubicField((1, 0, -3, 1), -1, 1)
    large = CubicField((1, 0, -3, 1), 1, 2)
    assert small != large
    assert exact_add(small.beta, large.beta) is None
    # the same root of x^3 - x^2 - 1 under two isolating intervals
    wide = CubicField((1, -1, 0, -1), 1, 2)
    narrow = CubicField((1, -1, 0, -1), 1, Fraction(3, 2))
    assert wide == narrow and hash(wide) == hash(narrow)
    assert exact_add(wide.beta, exact_neg(narrow.beta)).is_zero()


def test_cubic_inverse_from_cofactors():
    field = CubicField((1, 0, -3, 1), -1, 1)
    for x in (field.beta, field.element(Fraction(2, 3), -5, Fraction(7, 4)),
              field.element(-1, 0, 1)):
        assert exact_mul(x, cubic_inverse(x)) == field.element(1)
    with pytest.raises(ZeroDivisionError):
        cubic_inverse(field.element(0))


# x^3 - x^2 - 1 on [1, 2], x^3 + 2 on [-2, -1] (a negative root), and
# x^3 - 3x + 1 on [-1, 1] and [-1/2, 1/2] (isolating intervals around 0)
CUBICS = [((1, -1, 0, -1), 1, 2), ((1, 0, 0, 2), -2, -1),
          ((1, 0, -3, 1), -1, 1), ((1, 0, -3, 1), Fraction(-1, 2), Fraction(1, 2))]


@functools.lru_cache(maxsize=None)
def _mp_root(coeffs, lo, hi):
    with mpmath.workprec(400):
        roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=400)
        return next(mpmath.re(r) for r in roots if abs(mpmath.im(r)) < 1e-100
                    and float(lo) <= mpmath.re(r) <= float(hi))


def test_cubic_bounds_enclose_beta_and_its_square():
    for coeffs, lo, hi in CUBICS:
        field = CubicField(coeffs, lo, hi)
        root = _mp_root(coeffs, lo, hi)
        with mpmath.workprec(400):
            for bits in (0, 1, 8, 64):
                one, b_lo, b_hi, s_lo, s_hi = field.bounds(bits)
                assert b_lo <= root * one <= b_hi
                assert s_lo <= root * root * one <= s_hi
    # [-1/2, 1/2] is already 2^0 wide: its bounds still straddle 0
    one, b_lo, b_hi, s_lo, s_hi = CubicField(*CUBICS[3]).bounds(0)
    assert b_lo < 0 < b_hi and s_lo == 0


@given(st.sampled_from(CUBICS),
       st.tuples(*[st.integers(-10**6, 10**6)] * 3), st.integers(1, 1000),
       st.tuples(*[st.integers(-1000, 1000)] * 3))
@settings(max_examples=300, deadline=None)
def test_cubic_floor_and_sign_match_mpmath(cubic, nums, den, other):
    coeffs, lo, hi = cubic
    field = CubicField(coeffs, lo, hi)
    x = CubicElem(field, *nums, den)
    y = exact_mul(x, CubicElem(field, *other))
    root = _mp_root(coeffs, lo, hi)
    with mpmath.workprec(400):
        for elem in (x, y):
            value = (elem.n0 + elem.n1 * root + elem.n2 * root**2) / elem.den
            assert exact_floor(elem) == int(mpmath.floor(value))
            assert exact_sign(elem) == (value > 0) - (value < 0)
            iv = exact_enclosure(elem, 96)
            assert (mpmath.mpf(iv.lower.numerator) / iv.lower.denominator <= value
                    <= mpmath.mpf(iv.upper.numerator) / iv.upper.denominator)


@given(st.sampled_from(CUBICS),
       st.tuples(*[st.integers(-10**6, 10**6)] * 3), st.integers(1, 1000),
       st.sampled_from([4, 64]))
@settings(max_examples=100, deadline=None)
def test_exact_ball_encloses_the_value(cubic, nums, den, bits):
    coeffs, lo, hi = cubic
    x = CubicElem(CubicField(coeffs, lo, hi), *nums, den)
    mid, rad, scale = exact_ball(x, bits)
    assert scale == 1 << bits
    root = _mp_root(coeffs, lo, hi)
    with mpmath.workprec(400):
        value = (x.n0 + x.n1 * root + x.n2 * root**2) / x.den
        assert mid - rad <= value * scale <= mid + rad
    # no wider than the enclosure at bits, up to rounding to the scale
    iv = exact_enclosure(x, bits)
    assert 2 * rad <= (iv.upper - iv.lower) * scale + 3


def test_cubic_rejects_reducible(wall_clock_limit):
    with pytest.raises(ValueError):
        CubicField((1, 0, 0, -8), 1, 3).refine(80)  # x^3 - 8 hits 2
    # x^3 - 2x: the designated root sqrt 2 is irrational, the root 0 is not
    with pytest.raises(ValueError):
        CubicField((1, 0, -2, 0), 1, 2)
    # (x - r)(x^2 - 2) with a 16-digit r: found without factoring 2r
    r = 10**15 + 37
    with wall_clock_limit(1.0), pytest.raises(ValueError):
        CubicField((1, -r, -2, 2 * r), 1, 2)


def test_squarefree_radicands(wall_clock_limit):
    assert ExactReal.sqrt(2 * 3 * 65537 * 65537).exact() == make_quad(0, 65537, 6)
    assert ExactReal.sqrt(65537 * 65539).exact() == make_quad(0, 1, 65537 * 65539)
    with wall_clock_limit(1.0), pytest.raises(ValueError):
        ExactReal.sqrt(1000000000000037 * 1000000000000091)


def test_decide_stops_at_the_ceiling():
    rungs = []

    def never_settles(bits):
        rungs.append(bits)
        raise NeedsMoreBits("never settles")

    with pytest.raises(PrecisionExhausted):
        decide(never_settles, PrecisionPolicy(start_bits=32, max_bits=256))
    assert rungs == [32, 64, 128, 256]
    assert list(PrecisionPolicy(start_bits=64, max_bits=96).ladder()) == [64, 96]
    with pytest.raises(ValueError):
        PrecisionPolicy(start_bits=0, max_bits=64)  # would never climb


def test_interval_ops():
    a = IntervalValue(Fraction(1), Fraction(2), 8)
    b = IntervalValue(Fraction(-1), Fraction(1, 2), 8)
    s = a + b
    assert (s.lower, s.upper) == (Fraction(0), Fraction(5, 2))
    p = a * b
    assert (p.lower, p.upper) == (Fraction(-2), Fraction(1))
    assert (-a).upper == Fraction(-1)
    assert a.floor_resolved() is None
    assert IntervalValue(Fraction(3, 2), Fraction(7, 4), 8).floor_resolved() == 1
    # a point over another denominator: 1/3 + [1, 2] = [4/3, 7/3] over 3
    s = IntervalValue.exactly(Fraction(1, 3), 8) + a
    assert (s.lo, s.hi, s.den) == (4, 7, 3)
    assert (s.lower, s.upper) == (Fraction(4, 3), Fraction(7, 3))
    # products multiply the denominators and never reduce; the endpoints
    # read back reduced, and the value decides == and hash
    p = IntervalValue.exactly(Fraction(1, 2)) * IntervalValue.exactly(2)
    assert (p.lo, p.hi, p.den) == (2, 2, 2)
    assert p.lower.denominator == 1 and p == IntervalValue.exactly(1)
    assert hash(p) == hash(IntervalValue.exactly(1))
    assert p != IntervalValue.exactly(1, 8)  # the precision is compared too
    assert (b * b).lower == Fraction(-1, 2) and (b * b).sign() is None
    with pytest.raises(ValueError, match="empty interval"):
        IntervalValue(Fraction(1), Fraction(1, 2), 8)
    with pytest.raises(ValueError, match="empty interval"):
        a.intersect(IntervalValue(Fraction(3), Fraction(4), 8))


@st.composite
def intervals(draw):
    """An IntervalValue over a drawn denominator, often with a common factor
    left in the numerators: points, intervals around 0, one-sided ones."""
    den = draw(st.sampled_from([1, 2, 3, 7, 12, 1 << 64, 3 << 70]))
    lo = draw(st.integers(-10**6, 10**6))
    hi = lo + draw(st.one_of(st.just(0), st.integers(0, 2 * 10**6)))
    k = draw(st.sampled_from([1, 1, 2, 6]))
    return _interval(lo * k, hi * k, den * k, draw(st.integers(0, 128)))


def _ends(iv: IntervalValue) -> tuple[Fraction, Fraction]:
    assert type(iv.lower) is type(iv.upper) is Fraction
    return iv.lower, iv.upper


@given(intervals(), intervals(), st.sampled_from([1, 5, 1 << 40]))
@settings(max_examples=400, deadline=None)
def test_interval_ops_match_fraction_endpoints(x, y, k):
    (a, b), (c, d) = _ends(x), _ends(y)
    bits = min(x.precision_bits, y.precision_bits)
    products = (a * c, a * d, b * c, b * d)
    for got, want in ((x + y, (a + c, b + d)), (x - y, (a - d, b - c)),
                      (x * y, (min(products), max(products))),
                      (-x, (-b, -a))):
        assert _ends(got) == want
        assert got.den > 0
    assert (x + y).precision_bits == (x * y).precision_bits == bits
    if max(a, c) <= min(b, d):
        meet = x.intersect(y)
        assert _ends(meet) == (max(a, c), min(b, d))
        assert meet.precision_bits == max(x.precision_bits, y.precision_bits)
    else:
        with pytest.raises(ValueError, match="empty interval"):
            x.intersect(y)
    for iv, lo, hi in ((x, a, b), (y, c, d)):
        fl, fu = math.floor(lo), math.floor(hi)
        assert iv.floor_resolved() == (fl if fl == fu else None)
        want = 1 if lo > 0 else -1 if hi < 0 else 0 if lo == hi == 0 else None
        assert iv.sign() == want
        assert iv.to_float() == float((lo + hi) / 2)
    assert x.nests_inside(y) == (c <= a and b <= d)
    assert (x == y) == ((a, b, x.precision_bits) == (c, d, y.precision_bits))
    # the same value over a k times larger denominator
    same = _interval(x.lo * k, x.hi * k, x.den * k, x.precision_bits)
    assert same == x and hash(same) == hash(x) and _ends(same) == (a, b)
    assert same.nests_inside(x) and x.nests_inside(same)
    assert _ends(same + y) == _ends(x + y) and _ends(same * y) == _ends(x * y)


def test_interval_sqrt_brackets():
    iv = IntervalValue(Fraction(2), Fraction(2), 64).sqrt(64)
    assert iv.lower**2 <= 2 <= iv.upper**2
    assert iv.width < Fraction(1, 1 << 60)


def _fraction_bisect(coeffs, lo: Fraction, hi: Fraction, bits: int):
    """The bisection on Fraction endpoints with Fraction Horner signs that
    the integer one replaced: the same midpoints, step for step."""
    def sign(x):
        v = Fraction(coeffs[0])
        for c in coeffs[1:]:
            v = v * x + c
        return (v > 0) - (v < 0)

    sign_lo = sign(lo)
    while hi - lo > Fraction(1, 1 << bits):
        mid = (lo + hi) / 2
        assert sign(mid) != 0
        if sign(mid) == sign_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


# roots in [1/3, 5/3]: 2^(1/4), x^5 - x - 1, 3^(1/6), x^6 - x - 1, 7^(1/5)
BISECTED = [(1, 0, 0, 0, -2), (1, 0, 0, 0, -1, -1), (1, 0, 0, 0, 0, 0, -3),
            (1, 0, 0, 0, 0, -1, -1), (1, 0, 0, 0, 0, -7)]


@given(st.sampled_from(BISECTED), st.integers(8, 512), st.integers(8, 512))
@settings(max_examples=60, deadline=None)
def test_integer_bisection_matches_fraction_bisection(coeffs, first, second):
    lo, hi = Fraction(1, 3), Fraction(5, 3)
    root = ExactReal.algebraic_root(coeffs, lo, hi).payload
    for bits in (first, second):  # refining further, or asking for less
        lo, hi = _fraction_bisect(coeffs, lo, hi, bits)
        iv = root.enclosure(bits)
        assert (iv.lower, iv.upper, iv.precision_bits) == (lo, hi, bits)


def test_bisection_stops_on_a_dyadic_root():
    root = ExactReal.algebraic_root([1, 0, 0, 0, 0, -32], 1, 3)  # hits 2
    with pytest.raises(ValueError, match="rational root hit"):
        root.enclosure(8)


def test_named_constants():
    pi = ExactReal.pi()
    iv64 = pi.enclosure(64)
    iv128 = pi.enclosure(128)
    assert iv128.nests_inside(iv64)
    assert iv64.floor_resolved() == 3
    e = ExactReal.e()
    assert e.enclosure(64).floor_resolved() == 2
    # refinement is monotone even when asked for fewer bits afterwards
    again = pi.enclosure(64)
    assert again.nests_inside(iv64)


def test_named_constants_contain_the_constant():
    # an enclosure narrowed to a double would give ...311599 and ...509079
    from nilseq.genpoly import eval_gp_int, parse_gp

    n = 10**20
    assert eval_gp_int(parse_gp("(floor (* pi n))"), n) == 314159265358979323846
    assert eval_gp_int(parse_gp("(floor (* e n))"), n) == 271828182845904523536


def test_algebraic_root_recognition():
    r = ExactReal.algebraic_root([1, 0, -2], 1, 2)
    assert r.exact() == SQRT2
    r3 = ExactReal.algebraic_root([1, -1, 0, -1], 1, 2)
    assert r3.exact() is not None
    quartic = ExactReal.algebraic_root([1, 0, 0, 0, -2], 1, 2)  # 2^(1/4)
    iv = quartic.enclosure(80)
    assert iv.lower**4 <= 2 <= iv.upper**4
    assert abs(iv.to_float() - 2 ** 0.25) < 1e-12
    assert quartic.enclosure(120).nests_inside(iv)


def test_sqrt_constructor_normalizes():
    assert ExactReal.sqrt(Fraction(9, 4)).exact() == Fraction(3, 2)
    assert ExactReal.sqrt(8).exact() == make_quad(0, 2, 2)


@given(st.fractions(min_value=-100, max_value=100),
       st.fractions(min_value=-100, max_value=100),
       st.sampled_from([2, 3, 5, 6, 7, 10]))
@settings(max_examples=200, deadline=None)
def test_quad_floor_matches_enclosure(a, b, d):
    x = make_quad(a, b, d)
    f = exact_floor(x)
    iv = exact_enclosure(x, 128)
    assert iv.lower >= f and iv.upper < f + 1 or iv.contains(f)
    # floor really is the integer part
    assert exact_compare(x, Fraction(f)) >= 0
    assert exact_compare(x, Fraction(f + 1)) < 0


@given(st.fractions(min_value=-50, max_value=50),
       st.fractions(min_value=-50, max_value=50))
@settings(max_examples=100, deadline=None)
def test_enclosure_contains_value(a, b):
    x = make_quad(a, b, 2)
    lo = exact_enclosure(x, 32)
    hi = exact_enclosure(x, 96)
    assert hi.nests_inside(lo)
    approx = float(a) + float(b) * math.sqrt(2)
    assert lo.lower - Fraction(1, 1000) <= Fraction(approx).limit_denominator(10**12) <= lo.upper + Fraction(1, 1000)


def test_exact_is_integer():
    assert exact_is_integer(Fraction(4)) == 4
    assert exact_is_integer(Fraction(1, 2)) is None
    assert exact_is_integer(SQRT2) is None
    prod = exact_mul(SQRT2, SQRT2)
    assert exact_is_integer(prod) == 2


# --- surds against mpmath ---------------------------------------------------

SQUAREFREE = [2, 3, 5, 6, 7, 10, 11, 13, 15, 30]
FRACS = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
NONZERO = FRACS.filter(bool)


def _mp(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def _surd_and_value(rat, terms):
    """rat + sum c sqrt(d) built by the library, and its value by mpmath
    from the same inputs (call inside ``mpmath.workprec``)."""
    x, v = rat, _mp(rat)
    for c, d in terms:
        x = exact_add(x, make_quad(0, c, d))
        v += _mp(c) * mpmath.sqrt(d)
    return x, v


def _isqrt_enclosure(x, bits: int) -> tuple[Fraction, Fraction]:
    """rat + sum c * [isqrt(d 4^bits), isqrt(d 4^bits) + 1] / 2^bits."""
    rat, terms = (x, ()) if isinstance(x, Fraction) else (x.rat, x.terms)
    lo = hi = rat
    for c, d in terms:
        s = math.isqrt(d * 4**bits)
        ends = (c * Fraction(s, 2**bits), c * Fraction(s + 1, 2**bits))
        lo, hi = lo + min(ends), hi + max(ends)
    return lo, hi


surd_terms = st.lists(st.tuples(NONZERO, st.sampled_from(SQUAREFREE)),
                      min_size=2, max_size=3, unique_by=lambda t: t[1])


@st.composite
def surds(draw):
    """(library value, mpmath value at 400 bits) of a quadratic surd, a
    2-3-term surd sum, a product of two sums, or -isqrt(2n^2) + n sqrt 2."""
    kind = draw(st.sampled_from(["quad", "sum", "product", "near"]))
    with mpmath.workprec(400):
        if kind == "near":
            n = draw(st.integers(1, 10**6))
            a = -math.isqrt(2 * n * n)
            return make_quad(a, n, 2), a + n * mpmath.sqrt(2)
        if kind == "quad":
            return _surd_and_value(draw(FRACS), [(draw(NONZERO),
                                                  draw(st.integers(2, 50)))])
        x, v = _surd_and_value(draw(FRACS), draw(surd_terms))
        if kind == "sum":
            return x, v
        y, w = _surd_and_value(draw(FRACS), draw(surd_terms))
        return exact_mul(x, y), v * w


@given(surds())
@settings(max_examples=400, deadline=None)
def test_surds_match_mpmath(case):
    x, v = case
    with mpmath.workprec(400):
        if isinstance(x, Fraction):
            # a product collapsed to Q: mpmath carries only rounding error
            assert abs(v - _mp(x)) < mpmath.mpf(2) ** -300
            return
        for y, w in ((x, v), (exact_neg(x), -v)):
            assert exact_floor(y) == int(mpmath.floor(w))
            assert exact_sign(y) == (1 if w > 0 else -1)
        for bits in (0, 1, 32, 96):
            iv = exact_enclosure(x, bits)
            assert (iv.lower, iv.upper) == _isqrt_enclosure(x, bits)
            assert iv.precision_bits == bits
            assert _mp(iv.lower) <= v <= _mp(iv.upper)



# --- the rounding vocabulary: exact values against their enclosures ----------


@st.composite
def exact_values(draw):
    """A quadratic surd, a surd sum or product (as ``surds`` draws them), or
    an element of one of the CUBICS fields."""
    if draw(st.booleans()):
        return draw(surds())[0]
    field = CubicField(*draw(st.sampled_from(CUBICS)))
    nums = draw(st.tuples(*[st.integers(-10**6, 10**6)] * 3))
    return CubicElem(field, *nums, draw(st.integers(1, 1000)))


def _encloses(iv: IntervalValue, x) -> bool:
    return exact_compare(x, iv.lower) >= 0 and exact_compare(x, iv.upper) <= 0


@given(exact_values(), st.sampled_from([0, 4, 16, 64]),
       st.one_of(st.none(), st.fractions(min_value=-10**3, max_value=10**3,
                                         max_denominator=100)))
# sqrt2 - 1.437 is about -0.023; at 4 bits x - <<x>> is enclosed in
# [-31/500, 1/2000], so the distance needs the lower end
@example(make_quad(Fraction(-1437, 1000), 1, 2), 4, None)
@settings(max_examples=300, deadline=None)
def test_rounding_exact_agrees_with_enclosure(x, bits, y):
    iv = exact_enclosure(x, bits)
    if y is None:  # near x, so that the comparison needs the exact layer
        y = exact_enclosure(x, 8).midpoint()
    dist = value_dist(x, bits)
    assert exact_compare(dist, Fraction(0)) >= 0
    assert exact_compare(dist, Fraction(1, 2)) <= 0
    checks = (
        (lambda v: value_nearest(v, bits), lambda a, b: a == b),
        (lambda v: value_frac(v, bits), lambda a, b: _encloses(b, a)),
        (lambda v: value_dist(v, bits),
         lambda a, b: _encloses(b, a) and b.lower >= 0),
        (lambda v: value_compare(v, y, bits), lambda a, b: a == b),
    )
    for call, agree in checks:
        exact = call(x)
        try:
            from_enclosure = call(iv)
        except NeedsMoreBits:
            continue
        assert agree(exact, from_enclosure)
