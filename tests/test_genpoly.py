import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilseq.automaton import powers_acceptor, thue_morse
from nilseq.exactreal import ExactReal, PrecisionExhausted, make_quad
from nilseq.genpoly import (
    VAR,
    Const,
    Floor,
    PrecisionPolicy,
    Seq,
    coefficients,
    density_estimate,
    equidistribution_test,
    eval_gp,
    eval_gp_int,
    floor_poly_mod,
    fractional_part_value,
    gp_add,
    gp_ceil,
    gp_const,
    gp_dist_to_int,
    gp_fracpart,
    gp_mul,
    gp_nearest,
    gp_poly,
    gp_pow,
    indicator_window,
    indicator_zero_set,
    kernel_census,
    parse_gp,
    seq_from_dfao,
    set_compare,
    star_discrepancy,
    weak_periodicity_search,
)

WORKED = ("(+ (const 2) (* (sqrt 2) (pow (floor (+ (* (sqrt 3) (pow n 2))"
          " (/ 1 7))) 2)) (* n (floor (+ (pow n 3) pi))))")


def test_worked_example_n0():
    res = eval_gp(parse_gp(WORKED), 0)
    assert res.is_integer and res.integer_value == 2


def test_worked_example_n1():
    res = eval_gp(parse_gp(WORKED), 1)
    # 2 + sqrt2 * 1 + 1 * 4 = 6 + sqrt2
    assert res.exact == make_quad(6, 1, 2)
    assert abs(res.to_float() - 7.41421356237) < 1e-9


def test_floor_sqrt2_times_5():
    assert eval_gp_int(parse_gp("(floor (* (sqrt 2) n))"), 5) == 7


def test_roots_of_one_cubic():
    # two roots of x^3 - 3x + 1: 10 (0.347... + 1.532...) = 18.79...
    two = "(floor (* 10 (+ (root 1 0 -3 1 -1 1) (root 1 0 -3 1 1 2))))"
    assert eval_gp_int(parse_gp(two), 0) == 18
    # one root of x^3 - x^2 - 1 under two isolating intervals cancels exactly
    one = ("(floor (* 10 (+ (root 1 -1 0 -1 1 2)"
           " (* -1 (root 1 -1 0 -1 1 3/2)))))")
    assert eval_gp_int(parse_gp(one), 0) == 0


def test_derived_forms_exact_identities():
    # <<x>> = floor(x + 1/2), {x} = x - floor(x), ||x|| = |x - <<x>>|,
    # including the half-integer tie, which rounds up
    points = [Fraction(1, 2), Fraction(-1, 2), Fraction(0), Fraction(3, 10),
              Fraction(-3, 10), Fraction(7, 2), Fraction(22, 7), Fraction(-22, 7)]
    for x in points:
        nearest = eval_gp_int(gp_nearest(gp_const(x)), 0)
        assert nearest == math.floor(x + Fraction(1, 2))
        frac = eval_gp(gp_fracpart(gp_const(x)), 0).exact
        assert frac == x - math.floor(x)
        dist = eval_gp(gp_dist_to_int(gp_const(x)), 0).exact
        assert dist == abs(x - nearest)
        ceil = eval_gp_int(gp_ceil(gp_const(x)), 0)
        assert ceil == math.ceil(x)


def test_pow_expands_to_mul():
    e = gp_pow(VAR, 3)
    assert eval_gp(e, 5).exact == Fraction(125)
    assert eval_gp(gp_pow(VAR, 0), 9).exact == Fraction(1)


def test_precision_exhausted_on_exact_integer_interval_path():
    # floor(pi + (4 - pi)) straddles 4 forever on the interval path
    expr = Floor(gp_add(Const(ExactReal.pi()),
                        gp_add(4, gp_mul(-1, Const(ExactReal.pi())))))
    with pytest.raises(PrecisionExhausted):
        eval_gp(expr, 0, PrecisionPolicy(start_bits=32, max_bits=256))


def test_interval_path_nested_and_floor_stable():
    # interval soundness on a large random sample of (expr, n): doubling the
    # working precision nests the enclosures and never changes a floor
    rng = random.Random(42)
    consts = [ExactReal.sqrt(2), ExactReal.sqrt(3), ExactReal.pi(),
              ExactReal.rational(1, 7), ExactReal.phi()]
    for _ in range(2500):
        c1, c2 = rng.choice(consts), rng.choice(consts)
        n = rng.randrange(1, 50)
        expr = Floor(gp_add(gp_mul(Const(c1), VAR),
                            gp_mul(Const(c2), Fraction(rng.randrange(1, 9), 7))))
        lo_bits = PrecisionPolicy(start_bits=48, max_bits=2048)
        hi_bits = PrecisionPolicy(start_bits=96, max_bits=2048)
        r1 = eval_gp(expr, n, lo_bits, use_exact=False)
        r2 = eval_gp(expr, n, hi_bits, use_exact=False)
        r3 = eval_gp(expr, n)  # exact route
        assert r1.integer_value == r2.integer_value == r3.integer_value


def test_monotone_resolution_after_raising_ceiling():
    # an expression that needs ~140 bits: starved at 128, it resolves
    # identically for every budget beyond its resolution point
    with pytest.raises(PrecisionExhausted):
        eval_gp(Floor(gp_mul(Const(ExactReal.pi()), 10**40)), 0,
                PrecisionPolicy(start_bits=64, max_bits=96), use_exact=False)
    r128 = eval_gp(Floor(gp_mul(Const(ExactReal.pi()), 10**40)), 0,
                   PrecisionPolicy(start_bits=64, max_bits=128), use_exact=False)
    r512 = eval_gp(Floor(gp_mul(Const(ExactReal.pi()), 10**40)), 0,
                   PrecisionPolicy(start_bits=64, max_bits=512), use_exact=False)
    assert r128.integer_value == r512.integer_value is not None


def test_interval_enclosures_nest_without_floors():
    expr = gp_add(gp_mul(Const(ExactReal.pi()), VAR), Const(ExactReal.sqrt(2)))
    r48 = eval_gp(expr, 3, PrecisionPolicy(start_bits=48, max_bits=48),
                  use_exact=False)
    r96 = eval_gp(expr, 3, PrecisionPolicy(start_bits=96, max_bits=96),
                  use_exact=False)
    assert r96.enclosure.nests_inside(r48.enclosure)


ROOT5 = "(root 1 0 0 0 -1 -1 1 2)"  # the real root of x^5 - x - 1
ROOT6 = "(root 1 0 0 0 0 0 -32 1 2)"  # 2^(5/6), degree 6
MIXED = "(* (root 1 0 0 -2 1 2) (sqrt 2))"  # 2^(1/3) sqrt 2 = 2^(5/6)
PINNED_EXPRS = {
    "pi_n2": "(floor (* pi n n))",
    "e_n": "(floor (* e n))",
    "pi_n": "(floor (* pi n))",
    "root5_n": f"(floor (* {ROOT5} n))",
    "root6_n": f"(floor (* {ROOT6} n))",
    "mixed_n": f"(floor (* {MIXED} n))",
    "nested": f"(floor (* {ROOT5} n (floor (* e n))))",
    "mixsum": f"(floor (+ (* pi n) (* {MIXED} n) 1/3))",
}
# (expression, n, floor, bits_used) on the interval path, each expression
# parsed afresh, under the default ceiling: the rung that decides a floor
# is pinned along with the floor
PINNED = [
    ('pi_n2', 7, 153, 64),
    ('pi_n2', 1000000007, 3141592697572090542, 64),
    ('pi_n2', 100000000000000000, 31415926535897932384626433832795028, 128),
    ('pi_n2', 1000000000000000000, 3141592653589793238462643383279502884, 128),
    ('pi_n2', 10000000000000000000, 314159265358979323846264338327950288419, 128),
    ('pi_n2', 100000000000000000000, 31415926535897932384626433832795028841971, 128),
    ('pi_n2', 10000000000000000000000000, 314159265358979323846264338327950288419716939937510, 256),
    ('e_n', 7, 19, 64),
    ('e_n', 1000000007, 2718281847, 64),
    ('e_n', 100000000000000000, 271828182845904523, 64),
    ('e_n', 1000000000000000000, 2718281828459045235, 64),
    ('e_n', 10000000000000000000, 27182818284590452353, 64),
    ('e_n', 100000000000000000000, 271828182845904523536, 64),
    ('e_n', 10000000000000000000000000, 27182818284590452353602874, 128),
    ('pi_n', 7, 21, 64),
    ('pi_n', 1000000007, 3141592675, 64),
    ('pi_n', 100000000000000000, 314159265358979323, 64),
    ('pi_n', 1000000000000000000, 3141592653589793238, 64),
    ('pi_n', 10000000000000000000, 31415926535897932384, 64),
    ('pi_n', 100000000000000000000, 314159265358979323846, 64),
    ('pi_n', 10000000000000000000000000, 31415926535897932384626433, 128),
    ('root5_n', 7, 8, 64),
    ('root5_n', 1000000007, 1167303986, 64),
    ('root5_n', 100000000000000000, 116730397826141868, 64),
    ('root5_n', 1000000000000000000, 1167303978261418684, 64),
    ('root5_n', 10000000000000000000, 11673039782614186842, 64),
    ('root5_n', 100000000000000000000, 116730397826141868425, 128),
    ('root5_n', 10000000000000000000000000, 11673039782614186842560458, 128),
    ('root6_n', 7, 12, 64),
    ('root6_n', 1000000007, 1781797448, 64),
    ('root6_n', 100000000000000000, 178179743628067860, 64),
    ('root6_n', 1000000000000000000, 1781797436280678609, 64),
    ('root6_n', 10000000000000000000, 17817974362806786094, 128),
    ('root6_n', 100000000000000000000, 178179743628067860948, 128),
    ('root6_n', 10000000000000000000000000, 17817974362806786094804524, 128),
    ('mixed_n', 7, 12, 64),
    ('mixed_n', 1000000007, 1781797448, 64),
    ('mixed_n', 100000000000000000, 178179743628067860, 64),
    ('mixed_n', 1000000000000000000, 1781797436280678609, 64),
    ('mixed_n', 10000000000000000000, 17817974362806786094, 128),
    ('mixed_n', 100000000000000000000, 178179743628067860948, 128),
    ('mixed_n', 10000000000000000000000000, 17817974362806786094804524, 128),
    ('nested', 7, 155, 64),
    ('nested', 1000000007, 3173061236250325528, 64),
    ('nested', 100000000000000000, 31730611923959667660938072087499393, 128),
    ('nested', 1000000000000000000, 3173061192395966771930327100057032727, 128),
    ('nested', 10000000000000000000, 317306119239596677228051829353545833320, 256),
    ('nested', 100000000000000000000, 31730611923959667723505565322311434542624, 256),
    ('nested', 10000000000000000000000000, 317306119239596677235089201539449578599227541017080, 256),
    ('mixsum', 7, 34, 64),
    ('mixsum', 1000000007, 4923390124, 64),
    ('mixsum', 100000000000000000, 492339008987047185, 64),
    ('mixsum', 1000000000000000000, 4923390089870471848, 64),
    ('mixsum', 10000000000000000000, 49233900898704718479, 128),
    ('mixsum', 100000000000000000000, 492339008987047184794, 128),
    ('mixsum', 10000000000000000000000000, 49233900898704718479430958, 128),
]


@pytest.mark.parametrize("name,n,value,bits", PINNED)
def test_interval_path_pinned(name, n, value, bits):
    res = eval_gp(parse_gp(PINNED_EXPRS[name]), n)
    assert (res.integer_value, res.bits_used) == (value, bits)


# --- floor_poly_mod ----------------------------------------------------


def test_floor_poly_mod_periodic():
    s = floor_poly_mod([Fraction(0), Fraction(1, 2)], 2)
    assert [s(n) for n in range(6)] == [0, 0, 1, 1, 0, 0]


def test_floor_poly_mod_sqrt2():
    s = floor_poly_mod([0, ExactReal.sqrt(2)], 2)
    assert [s(n) for n in range(8)] == [0, 1, 0, 0, 1, 1, 0, 1]


def test_floor_poly_mod_constant_third():
    s = floor_poly_mod([Fraction(1, 3), 0, Fraction(0)], 5)
    assert all(s(n) == 0 for n in range(32))


# --- weak periodicity ---------------------------------------------------


def test_weak_periodicity_periodic_sequence():
    per = Seq(lambda n: n % 2)
    assert weak_periodicity_search(per, 4, 8, 200) == (1, 0, 2)


def test_weak_periodicity_thue_morse():
    s = Seq(thue_morse().eval)
    w = weak_periodicity_search(s, 8, 16, 4000)
    assert w == (4, 1, 2)
    # independent re-verification of the witness
    q, r, u = w
    assert all(s(q * n + r) == s(q * n + u) for n in range(900))


def test_weak_periodicity_finds_any_periodic():
    for period in (3, 5, 7):
        vals = [random.Random(period).randrange(3) for _ in range(period)]
        seq = Seq(lambda n, v=tuple(vals), p=period: v[n % p])
        w = weak_periodicity_search(seq, period + 1, 2 * period + 2,
                                    ((period + 1) * (2 * period + 2)) * 2)
        assert w is not None
        q, r, u = w
        horizon = ((period + 1) * (2 * period + 2)) * 2
        assert all(seq(q * n + r) == seq(q * n + u)
                   for n in range((horizon - u) // q))


def test_weak_periodicity_requires_budget():
    with pytest.raises(ValueError):
        weak_periodicity_search(Seq(lambda n: 0), 100, 100, 99)


# --- kernel census ------------------------------------------------------


def test_census_thue_morse():
    assert kernel_census(Seq(thue_morse().eval), 2, 6, 64) == 2


def test_census_constant():
    assert kernel_census(Seq(lambda n: 1), 2, 5, 32) == 1


def test_census_floor_sqrt2_grows():
    s = floor_poly_mod([0, ExactReal.sqrt(2)], 2)
    counts = [kernel_census(s, 2, t, 64) for t in range(1, 9)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert all(counts[t - 1] >= t for t in range(1, 9))


# --- density -------------------------------------------------------------


def test_density_constant_one():
    s = Seq(lambda n: 1, count_below=lambda b: b)
    rep = density_estimate(s, [1000, 4000], window_count=4)
    assert all(v == 1 for _, v in rep.natural)
    assert all(v == 1 for _, v in rep.banach)


def test_density_powers():
    s = seq_from_dfao(powers_acceptor(2))
    rep = density_estimate(s, [1 << 20], window_count=3)
    assert rep.natural[0][1] == Fraction(20, 1 << 20)


def test_density_dist_indicator():
    # ||n sqrt2|| < 0.1 has natural density 0.2
    alpha = make_quad(0, 1, 2)
    from nilseq.exactreal import exact_mul, exact_add, exact_floor, exact_sign, exact_neg

    def member(n):
        x = exact_mul(alpha, Fraction(n))
        m = exact_floor(exact_add(x, Fraction(1, 2)))
        d = exact_add(x, Fraction(-m))
        if exact_sign(d) < 0:
            d = exact_neg(d)
        from nilseq.exactreal import exact_compare
        return 1 if exact_compare(d, Fraction(1, 10)) < 0 else 0

    n_samples = 10**5
    count = sum(member(n) for n in range(n_samples))
    assert abs(count / n_samples - 0.2) < 0.01


# --- indicators -----------------------------------------------------------


def test_indicator_zero_set_example():
    h = gp_add(VAR, -3)
    ind = indicator_zero_set(h, ExactReal.sqrt(2))
    got_semantic = [ind.semantic(n) for n in range(8)]
    got_formal = [ind.formal_eval(n) for n in range(8)]
    assert got_semantic == got_formal == [0, 0, 0, 1, 0, 0, 0, 0]


def test_indicator_zero_set_trivial_h():
    ind = indicator_zero_set(gp_const(0), ExactReal.sqrt(2))
    assert ind.formal_eval(11) == 1 == ind.semantic(11)


def test_indicator_twins_agree_widely():
    h = gp_add(gp_pow(VAR, 2), gp_mul(-5, VAR), 6)  # zeros at 2, 3
    ind = indicator_zero_set(h, ExactReal.sqrt(3))
    for n in range(2000):
        assert ind.semantic(n) == ind.formal_eval(n)
    assert ind.semantic(2) == 1 and ind.semantic(3) == 1


def test_indicator_window():
    # 1 iff 0 <= sqrt2 * n < 1, i.e. n = 0
    h = gp_mul(Const(ExactReal.sqrt(2)), VAR)
    ind = indicator_window(h, 0, 1, ExactReal.sqrt(3))
    vals = [ind.semantic(n) for n in range(6)]
    assert vals == [1, 0, 0, 0, 0, 0]
    assert [ind.formal_eval(n) for n in range(6)] == vals


# --- equidistribution ------------------------------------------------------


def test_star_discrepancy_uniform_grid():
    xs = [(i + 0.5) / 100 for i in range(100)]
    assert star_discrepancy(xs) <= 0.011


def test_equidist_rotation():
    expr = gp_mul(Const(ExactReal.sqrt(2)), VAR)
    rep = equidistribution_test(expr, 1, Fraction(1), 10**4, 16)
    assert rep.star_discrepancy < 0.02


def test_equidist_rational_mass():
    expr = gp_mul(Fraction(1, 2), VAR)
    rep = equidistribution_test(expr, 1, Fraction(1), 1000, 10)
    nonzero = [i for i, c in enumerate(rep.histogram) if c > 0]
    assert nonzero == [0, 5]


def test_coefficients_collection():
    expr = parse_gp("(* (sqrt 2) n (floor (* (sqrt 3) n)))")
    consts = coefficients(expr)
    floats = sorted(c.to_float() for c in consts)
    assert len(floats) == 2
    assert abs(floats[0] - math.sqrt(2)) < 1e-9
    assert abs(floats[1] - math.sqrt(3)) < 1e-9


# --- set compare ------------------------------------------------------------


def test_set_compare_identical():
    s = Seq(lambda n: n % 3 == 0 and 1 or 0)
    rep = set_compare(s, s, 0, 500)
    assert rep.count == 0 and rep.examples == []


def test_set_compare_constants():
    rep = set_compare(lambda n: 0, lambda n: 1, 0, 50)
    assert rep.count == 50


# --- parser ------------------------------------------------------------------


def test_parser_rejects_garbage():
    with pytest.raises(ValueError):
        parse_gp("(frobnicate n)")
    with pytest.raises(ValueError):
        parse_gp("(+ n") if False else (_ for _ in ()).throw(ValueError())


def test_parser_atoms():
    assert eval_gp(parse_gp("7/4"), 0).exact == Fraction(7, 4)
    assert eval_gp(parse_gp("(- n 3)"), 10).exact == Fraction(7)
    assert eval_gp(parse_gp("(- n)"), 4).exact == Fraction(-4)
    assert eval_gp(parse_gp("(nearest (/ 1 2))"), 0).exact == Fraction(1)
    assert eval_gp(parse_gp("(dist (/ 9 10))"), 0).exact == Fraction(1, 10)
    assert eval_gp(parse_gp("phi"), 0).exact == make_quad(Fraction(1, 2), Fraction(1, 2), 5)


@given(st.integers(min_value=0, max_value=300))
@settings(max_examples=60, deadline=None)
def test_fracpart_in_unit_interval(n):
    expr = gp_fracpart(gp_mul(Const(ExactReal.sqrt(2)), VAR))
    v = eval_gp(expr, n).exact
    from nilseq.exactreal import exact_compare
    assert exact_compare(v, Fraction(0)) >= 0
    assert exact_compare(v, Fraction(1)) < 0
