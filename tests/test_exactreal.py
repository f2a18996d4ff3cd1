import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilseq.exactreal import (
    CubicField,
    ExactReal,
    IntervalValue,
    NeedsMoreBits,
    PrecisionExhausted,
    PrecisionPolicy,
    decide,
    exact_add,
    exact_compare,
    exact_enclosure,
    exact_floor,
    exact_is_integer,
    exact_mul,
    exact_neg,
    exact_sign,
    make_quad,
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


def test_interval_sqrt_brackets():
    iv = IntervalValue(Fraction(2), Fraction(2), 64).sqrt(64)
    assert iv.lower**2 <= 2 <= iv.upper**2
    assert iv.width < Fraction(1, 1 << 60)


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
