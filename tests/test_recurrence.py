import functools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from nilseq import recurrence
from nilseq.exactreal import (
    exact_add,
    exact_ball,
    exact_compare,
    exact_enclosure,
    exact_mul,
    exact_neg,
    exact_sign,
)
from nilseq.genpoly import PrecisionPolicy
from nilseq.recurrence import (
    InvalidPisot,
    PisotCubicParams,
    PisotGpPredicate,
    _lattice_min,
    best_approximations,
    cubic_terms,
    fibonacci_like_set,
    increasing_from,
    leading_coefficient,
    nearest_power_set_equiv,
    pisot_cubic_check,
    quadratic_margin,
    quadratic_member,
    quadratic_terms,
    scan_quadratic_set,
    variable_coefficient_terms,
)


# --- quadratic ---------------------------------------------------------


def test_quadratic_terms_fibonacci():
    assert quadratic_terms(1, 8) == [0, 1, 1, 2, 3, 5, 8, 13]
    assert quadratic_terms(2, 6) == [0, 1, 2, 5, 12, 29]


def test_member_examples():
    for n in (1, 2, 3, 5, 8, 13):
        assert quadratic_member(1, n)
    assert not quadratic_member(1, 4)
    assert not quadratic_member(1, 6)


@pytest.mark.parametrize("a", [1, 2, 3])
def test_legendre_inclusion(a):
    # for a <= 7 every solution of ||n alpha|| < 1/(2n) below 10^6 is a
    # recurrence term; for a >= 8 each 2 q_k is one too (ROADMAP item 2)
    members = scan_quadratic_set(a, 10**6)
    terms = set(quadratic_terms(a, 64))
    assert all(m in terms for m in members)
    # and for a = 1..3 the head difference is in fact empty
    in_range = {t for t in terms if 1 <= t <= 10**6}
    assert set(members) == in_range


@pytest.mark.parametrize("a", [1, 2, 3])
def test_tail_inclusion_terms_only(a):
    # scan terms only (not all n) up to 10^12; find the index from which
    # membership holds and check it is stable under doubling the precision
    terms = [t for t in quadratic_terms(a, 80) if 0 < t <= 10**12]
    flags = [quadratic_member(a, t) for t in terms]
    first_always = len(flags)
    while first_always > 0 and flags[first_always - 1]:
        first_always -= 1
    assert all(flags[first_always:])
    assert first_always <= 2  # membership holds from the very start here


def test_margin_limit():
    # n_i ||n_i alpha|| -> 1/sqrt(a^2+4); the squared comparison is exact
    for a in (1, 2):
        terms = quadratic_terms(a, 34)
        m = quadratic_margin(a, terms[30])
        msq = exact_mul(m, m)
        diff = exact_add(msq, Fraction(-1, a * a + 4))
        if exact_sign(diff) < 0:
            diff = exact_neg(diff)
        assert exact_compare(diff, Fraction(1, 10**6)) < 0


def test_margin_fibonacci_window():
    # value within 1e-4 of 0.4472 for i in [20, 40]
    terms = quadratic_terms(1, 41)
    lo, hi = Fraction(4471, 10000), Fraction(4473, 10000)
    for i in range(20, 41):
        m = quadratic_margin(1, terms[i])
        assert exact_compare(m, lo) > 0 and exact_compare(m, hi) < 0


def test_fibonacci_like_set_indicator_matches_scanner():
    ind = fibonacci_like_set(1)
    members = set(scan_quadratic_set(1, 2000))
    for n in range(2000):
        want = 1 if n in members else 0
        assert ind.semantic(n) == want, n
    # the closed-form route agrees on a sample (n >= 1: the defining
    # inequality is vacuous at n = 0), at two precision ceilings
    for bits in (256, 1024):
        ind_b = fibonacci_like_set(1, PrecisionPolicy(start_bits=64, max_bits=bits))
        for n in list(range(1, 30)) + [55, 89, 144, 610, 987]:
            assert ind_b.formal_eval(n) == (1 if n in members else 0), (bits, n)


def test_variable_coefficient_demo():
    terms = variable_coefficient_terms([2, 3], 10)
    assert terms[:2] == [0, 1]
    assert all(terms[i + 2] in (2 * terms[i + 1] + terms[i],
                                3 * terms[i + 1] + terms[i])
               for i in range(len(terms) - 2))


# --- cubic validity ------------------------------------------------------


def test_cubic_terms_examples():
    assert cubic_terms(1, 0, 9) == [1, 1, 1, 2, 3, 4, 6, 9, 13]
    assert cubic_terms(2, -1, 6) == [1, 2, 3, 5, 9, 16]


def test_pisot_validity_table():
    assert abs(exact_enclosure(pisot_cubic_check(1, 0).beta, 64).to_float()
               - 1.46557) < 1e-4
    assert exact_enclosure(pisot_cubic_check(2, -1).beta, 64).to_float() > 1
    with pytest.raises(InvalidPisot):
        pisot_cubic_check(0, 2)   # b > a + 1
    with pytest.raises(InvalidPisot):
        pisot_cubic_check(0, 0)   # rational root 1
    with pytest.raises(InvalidPisot):
        pisot_cubic_check(1, -1)  # outside both branches


def test_root_identities():
    p = pisot_cubic_check(1, 0)
    # p(beta) = 0
    b = p.beta
    b2 = exact_mul(b, b)
    b3 = exact_mul(b2, b)
    residue = exact_add(b3, exact_neg(exact_add(b2, Fraction(1))))
    assert residue.is_zero()
    # beta * beta_inv = 1 and |alpha|^2 = 1/beta, checked to 200 bits
    assert exact_mul(b, p.beta_inv) == p.field.element(1)
    alpha_abs_sq = exact_add(exact_mul(p.alpha_re, p.alpha_re), p.alpha_im_sq)
    diff = exact_add(alpha_abs_sq, exact_neg(p.beta_inv))
    assert diff.is_zero()
    iv = exact_enclosure(p.alpha_im_sq, 200)
    assert iv.lower > 0
    # |alpha| < 1 (Pisot property): 1/beta < 1
    assert exact_compare(p.beta_inv, Fraction(1)) < 0


def test_rauzy_norm_examples():
    p = pisot_cubic_check(1, 0)
    zero, one = Fraction(0), Fraction(1)
    assert p.norm_sq(zero, zero).is_zero()
    # N((1,0))^2 = |alpha|^2 = 1/beta, N((0,1))^2 = 1/beta^2 for b = 0
    assert exact_add(p.norm_sq(one, zero), exact_neg(p.beta_inv)).is_zero()
    assert exact_add(p.norm_sq(zero, one), exact_neg(p.beta_inv2)).is_zero()


def test_recurrence_increasing_threshold():
    terms = cubic_terms(1, 0, 40)
    assert increasing_from(terms) <= 6
    terms2 = cubic_terms(2, -1, 40)
    assert increasing_from(terms2) <= 6


# --- best approximations ---------------------------------------------------


def test_q1_always_flagged():
    p = pisot_cubic_check(1, 0)
    rep = best_approximations(p, 1)
    assert rep.flagged_qs == [1]


def test_best_approx_matches_terms_up_to_finite():
    p = pisot_cubic_check(1, 0)
    rep = best_approximations(p, 2000)
    terms = {t for t in cubic_terms(1, 0, 32) if t <= 2000}
    diff = set(rep.flagged_qs) ^ terms
    assert len(diff) <= 3  # finite head, stable across the scan


def test_best_approx_scale_free():
    p = pisot_cubic_check(1, 0)
    small = best_approximations(p, 700)
    big = best_approximations(p, 1400)
    assert [q for q in big.flagged_qs if q <= 700] == small.flagged_qs


def test_m_ratio_along_best_sequence():
    # m_{q_n} = m1 |alpha|^n along the flagged sequence, checked exactly
    p = pisot_cubic_check(1, 0)
    rep = best_approximations(p, 1300)
    flagged = rep.flagged
    beta_pow = p.field.element(1)
    for j, rec in enumerate(flagged[:20]):
        if j > 0:
            beta_pow = exact_mul(beta_pow, p.beta)
        ratio_num = exact_mul(rec.norm_sq, beta_pow)
        lo = exact_mul(p.m1_sq, Fraction(9801, 10000))
        hi = exact_mul(p.m1_sq, Fraction(10201, 10000))
        assert exact_compare(ratio_num, lo) > 0
        assert exact_compare(ratio_num, hi) < 0


@functools.lru_cache(maxsize=None)
def _pisot(a, b):
    return pisot_cubic_check(a, b)


def _valid(a, b):
    try:
        _pisot(a, b)
    except InvalidPisot:
        return False
    return True


# the grid of scripts/pisot_survey.py
SURVEY_PARAMS = [(a, b) for a in range(4) for b in range(-1, a + 2) if _valid(a, b)]


def _exact_box_min(params, q, radius):
    """Every box point's N(q theta - p)^2 built exactly and compared with the
    best so far by exact_sign; the first strict minimum wins."""
    c1 = math.floor(q / params._beta_float)
    c2 = math.floor(q / (params._beta_float * params._beta_float))
    x1 = exact_mul(params.beta_inv, Fraction(q))
    x2 = exact_mul(params.beta_inv2, Fraction(q))
    best = best_p = None
    for p1 in range(c1 - radius, c1 + radius + 2):
        for p2 in range(c2 - radius, c2 + radius + 2):
            val = params.norm_sq(exact_add(x1, Fraction(-p1)),
                                 exact_add(x2, Fraction(-p2)))
            if best is None or exact_sign(exact_add(val, exact_neg(best))) < 0:
                best, best_p = val, (p1, p2)
    return best, best_p


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SURVEY_PARAMS), st.integers(1, 1 << 22))
@example((1, 0), 1)
@example((3, -1), 1 << 22)
def test_box_filter_matches_exact_box_min(ab, q):
    params = _pisot(*ab)
    assert _lattice_min(params, q, 2) == _exact_box_min(params, q, 2)


@pytest.mark.parametrize("a, b", [(1, 0), (3, -1)])
def test_box_filter_fallback_agrees(monkeypatch, a, b):
    # 4-bit balls overlap at almost every comparison, leaving it to zb_sign
    want = best_approximations(pisot_cubic_check(a, b), 1500).flagged
    signs = []
    zb_sign = PisotCubicParams.zb_sign

    def counted(self, x):
        signs.append(x)
        return zb_sign(self, x)

    monkeypatch.setattr(recurrence, "exact_ball", lambda x, bits: exact_ball(x, 4))
    monkeypatch.setattr(PisotCubicParams, "zb_sign", counted)
    params = pisot_cubic_check(a, b)
    signs.clear()
    assert best_approximations(params, 1500).flagged == want
    assert len(signs) > 1500


# --- the gp predicate -------------------------------------------------------


def test_gp_predicate_on_terms():
    p = pisot_cubic_check(1, 0)
    pred = PisotGpPredicate(p)
    terms = cubic_terms(1, 0, 26)
    for n in range(10, 26):
        assert pred(terms[n]) == 1
        assert pred(terms[n] + 1) == 0


def test_gp_predicate_vs_flags_small():
    p = pisot_cubic_check(1, 0)
    pred = PisotGpPredicate(p)
    rep = best_approximations(p, 1500)
    members = {q for q in range(1, 1501) if pred(q)}
    assert members == set(rep.flagged_qs)


def test_gp_predicate_precision_independent():
    p = pisot_cubic_check(1, 0)
    pred = PisotGpPredicate(p)
    probes = [1, 2, 9, 10, 60, 61, 406, 872, 1278, 1279]
    for q in probes:
        r256 = pred.interval_replay(q, 256)
        r1024 = pred.interval_replay(q, 1024)
        assert r256 == r1024 == pred(q)


@pytest.mark.parametrize("a, b, qs", [(1, 1, (3, 6, 11, 20, 37)),
                                      (3, -1, (2, 5, 14, 39, 108))])
def test_gp_predicate_exact_ties(a, b, qs):
    # h(q)^2 g(q) equals the threshold exactly: not a member, and no
    # enclosure can decide it
    pred = PisotGpPredicate(pisot_cubic_check(a, b))
    for q in qs:
        lhs = exact_mul(pred.h_sq(q), pred.g_value(q))
        assert exact_compare(lhs, pred.threshold) == 0
        assert pred(q) == 0
        assert pred.interval_replay(q, 256) is None
        assert pred.interval_replay(q, 1024) is None


@functools.lru_cache(maxsize=None)
def _predicate(a, b):
    return PisotGpPredicate(_pisot(a, b))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SURVEY_PARAMS), st.integers(1, 1 << 22))
@example((1, 0), 1873)  # a member
@example((1, 1), 1431)  # an exact tie: only the exact path decides it
@example((2, 0), 65501)  # another exact tie
@example((3, 1), 4194281)  # a ball that overlaps the threshold's
def test_gp_predicate_balls_match_exact(ab, q):
    pred = _predicate(*ab)
    assert pred(q) == pred._decide_exactly(q)


@pytest.mark.parametrize("bits", [4, 24])
@pytest.mark.parametrize("a, b", [(1, 0), (3, -1)])
def test_gp_predicate_fallback_agrees(monkeypatch, a, b, bits):
    # coarse balls leave many decisions to the exact path: at 4 bits all of
    # them, at 24 bits over half, so both paths decide some q
    want = [q for q in range(1, 1501) if _predicate(a, b)(q)]
    monkeypatch.setattr(recurrence, "exact_ball", lambda x, _: exact_ball(x, bits))
    pred = PisotGpPredicate(pisot_cubic_check(a, b))
    exact = []
    decide = pred._decide_exactly
    monkeypatch.setattr(pred, "_decide_exactly",
                        lambda q: exact.append(q) or decide(q))
    assert [q for q in range(1, 1501) if pred(q)] == want
    assert len(exact) > 500


def test_gp_predicate_other_family():
    p = pisot_cubic_check(2, -1)
    pred = PisotGpPredicate(p)
    rep = best_approximations(p, 800)
    members = {q for q in range(1, 801) if pred(q)}
    assert len(members ^ set(rep.flagged_qs)) <= 3


# --- nearest powers ----------------------------------------------------------


def test_nearest_power_equivalence():
    p = pisot_cubic_check(1, 0)
    rep = nearest_power_set_equiv(p)
    assert rep.residual_ok and rep.translation_ok
    u = leading_coefficient(p)
    assert not u.is_zero()
    assert exact_sign(u) > 0


def test_nearest_power_other_family():
    rep = nearest_power_set_equiv(pisot_cubic_check(2, -1))
    assert rep.ok
