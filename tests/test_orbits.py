import math
from fractions import Fraction

import pytest

from nilseq.digits import DigitWord
from nilseq.exactreal import (
    ExactReal,
    exact_add,
    exact_compare,
    exact_enclosure,
    exact_mul,
    make_quad,
)
from nilseq.genpoly import floor_poly_mod
from nilseq.orbits import (
    EpsilonSchedule,
    OrbitDensityReport,
    TorusSkewSystem,
    banach_density_scan,
    heis_mul,
    heis_reduce,
    heisenberg_fracpart,
    horizontal_character_probe,
    residue_indicator,
    skew_orbit_point,
    suffix_hit_scan,
    values_agree,
)

SQRT2 = make_quad(0, 1, 2)
SQRT3 = make_quad(0, 1, 3)


# --- skew torus -----------------------------------------------------------


def test_pure_rotation():
    sys_ = TorusSkewSystem((SQRT2,), 0)
    for n in (0, 1, 5, 12):
        pt = skew_orbit_point(sys_, None, n, check_iterate_up_to=20)
        want = (n * math.sqrt(2)) % 1.0
        assert abs(exact_enclosure(pt[0], 64).to_float() - want) < 1e-9


def test_skew_example_last_coordinate():
    # p(n) = sqrt2 n^2, m = 1, d = 2: last coordinate is {n^2 sqrt2}
    sys_ = TorusSkewSystem.from_poly([Fraction(0), Fraction(0), SQRT2], 1)
    pt = skew_orbit_point(sys_, None, 3, check_iterate_up_to=10)
    assert abs(exact_enclosure(pt[-1], 64).to_float() - (9 * math.sqrt(2)) % 1) < 1e-9


def test_n_zero_returns_base_point():
    sys_ = TorusSkewSystem.from_poly([Fraction(1, 3), Fraction(0), SQRT2], 2)
    pt = skew_orbit_point(sys_, None, 0)
    assert exact_compare(pt[0], Fraction(0)) == 0
    assert exact_compare(pt[-1], Fraction(1, 6)) == 0


def test_closed_form_equals_iteration_exactly():
    sys_ = TorusSkewSystem.from_poly([Fraction(0), Fraction(1, 3), SQRT2], 2)
    z0 = sys_.base_point()
    for n in (1, 7, 50, 300):
        closed = sys_.closed_form(z0, n)
        iterated = sys_.iterate(z0, n)
        for a, b in zip(closed, iterated):
            assert values_agree(a, b)
            assert exact_compare(a, b) == 0  # same exact field elements


def test_iterated_enclosure_keeps_its_denominator():
    # enclosures are integer numerators over one unreduced denominator; sums
    # align it by lcm, so 2,000 steps of a pi skew product from {1/3} keep
    # the last coordinate's denominator at the size it had after 20
    sys_ = TorusSkewSystem((ExactReal.pi(), ExactReal.pi()), Fraction(1, 3))
    z0 = sys_.base_point()
    early = sys_.iterate(z0, 20)[-1]
    late = sys_.iterate(z0, 2000)[-1]
    assert late.den.bit_length() == early.den.bit_length()
    assert late.den % 3 == 0
    assert values_agree(late, sys_.closed_form(z0, 2000)[-1])


def test_residue_indicator_matches_floor_mod():
    sys_ = TorusSkewSystem.from_poly([Fraction(0), Fraction(1, 3), SQRT2], 2)
    seq = floor_poly_mod([Fraction(0), Fraction(1, 3), ExactReal.sqrt(2)], 2)
    for n in range(500):
        want = seq(n)
        assert residue_indicator(sys_, None, 2, want, n) == 1
        assert residue_indicator(sys_, None, 2, 1 - want, n) == 0


def test_residue_indicator_three_polynomials():
    # cross-check against the floor evaluator on three polynomials
    # (exhaustive on a prefix, strided up to 1e5)
    cases = [
        ([Fraction(0), Fraction(1, 3), SQRT2], 2),
        ([Fraction(1, 7), SQRT3], 3),
        ([Fraction(0), SQRT2, Fraction(2, 5)], 4),
    ]
    for coeffs, m in cases:
        sys_ = TorusSkewSystem.from_poly(coeffs, m)
        seq_coeffs = [c if isinstance(c, Fraction) else ExactReal.from_exact(c)
                      for c in coeffs]
        seq = floor_poly_mod(seq_coeffs, m)
        for n in range(0, 2000):
            assert residue_indicator(sys_, None, m, seq(n), n) == 1
        for n in range(2000, 10**5, 997):
            assert residue_indicator(sys_, None, m, seq(n), n) == 1


def test_residue_partition():
    sys_ = TorusSkewSystem.from_poly([Fraction(0), SQRT3], 3)
    for n in range(100):
        hits = [residue_indicator(sys_, None, 3, r, n) for r in range(3)]
        assert sum(hits) == 1


def test_rational_poly_periodic_indicator():
    sys_ = TorusSkewSystem.from_poly([Fraction(0), Fraction(1, 2)], 2)
    seq = [residue_indicator(sys_, None, 2, 0, n) for n in range(40)]
    assert seq == seq[:4] * 10  # period 4 for floor(n/2) mod 2


# --- heisenberg -------------------------------------------------------------


def test_heisenberg_identity():
    f = heisenberg_fracpart(SQRT2, SQRT3, 0)
    assert all(exact_compare(x, Fraction(0)) == 0 for x in f)


def test_heisenberg_example_n1():
    f = heisenberg_fracpart(SQRT2, SQRT3, 1)
    # floor(beta) = 1, third coordinate {sqrt2} ~ 0.41421
    assert abs(exact_enclosure(f[2], 64).to_float() - (math.sqrt(2) % 1)) < 1e-9


def test_heisenberg_two_way_agreement_range():
    for n in range(400):
        heisenberg_fracpart(SQRT2, SQRT3, n)  # raises if the two ways differ


def test_group_law_matrix_model():
    import random
    rng = random.Random(5)
    for _ in range(100):
        g1 = tuple(Fraction(rng.randrange(-8, 8), rng.randrange(1, 5))
                   for _ in range(3))
        g2 = tuple(Fraction(rng.randrange(-8, 8), rng.randrange(1, 5))
                   for _ in range(3))
        x = heis_mul(g1, g2)
        # matrix multiplication oracle for upper unitriangular 3x3
        m1 = [[1, g1[0], g1[2]], [0, 1, g1[1]], [0, 0, 1]]
        m2 = [[1, g2[0], g2[2]], [0, 1, g2[1]], [0, 0, 1]]
        prod = [[sum(m1[i][k] * m2[k][j] for k in range(3)) for j in range(3)]
                for i in range(3)]
        assert (prod[0][1], prod[1][2], prod[0][2]) == x


def test_heis_reduce_in_unit_cube():
    g = (Fraction(-7, 3), Fraction(22, 7), Fraction(5, 11))
    reduced, gamma = heis_reduce(g)
    for coord in reduced:
        assert 0 <= coord < 1
    # g * gamma recovers the representative
    assert heis_mul(g, tuple(Fraction(x) for x in gamma)) == reduced


# --- scans -------------------------------------------------------------------


def test_suffix_scan_generous_eps():
    hit = suffix_hit_scan(SQRT2, SQRT3, EpsilonSchedule.constant(Fraction(2, 5)),
                          2, DigitWord(2, ()), 1000)
    assert hit is not None and hit.n <= 10
    assert hit.dist_enclosure.upper < Fraction(2, 5)


def test_suffix_scan_zero_eps_exhausts():
    assert suffix_hit_scan(SQRT2, SQRT3, EpsilonSchedule.constant(0),
                           2, DigitWord(2, ()), 300) is None


def test_suffix_scan_respects_suffix():
    hit = suffix_hit_scan(SQRT2, SQRT3, EpsilonSchedule.parse("1*n^-1/10"),
                          2, DigitWord.parse("11", 2), 10**6)
    assert hit is not None
    assert hit.n % 4 == 3


def test_eps_schedule_parse():
    s = EpsilonSchedule.parse("3/10*n^-1/2")
    assert s.c == Fraction(3, 10) and s.gamma == Fraction(1, 2)
    assert EpsilonSchedule.parse("0.25").c == Fraction(1, 4)
    with pytest.raises(ValueError):
        EpsilonSchedule(Fraction(-1), Fraction(0))


# --- probes -------------------------------------------------------------------


def test_probe_schmidt_regime():
    rep = horizontal_character_probe(SQRT2, SQRT3, 0, 100)
    assert not rep.degenerate
    assert rep.value.lower > Fraction(1, 10**6)


def test_probe_degenerate_dependence():
    rep = horizontal_character_probe(SQRT2, make_quad(0, -1, 2), 1, 10)
    assert rep.degenerate


def test_probe_scaling_consistency():
    # the reported value is the distance of the scaled combination itself
    rep3 = horizontal_character_probe(SQRT2, SQRT3, 3, 5)
    l1, l2 = rep3.best
    from nilseq.exactreal import exact_add, exact_mul, exact_floor, exact_neg, exact_sign

    comb = exact_mul(exact_add(exact_mul(SQRT2, Fraction(l1)),
                               exact_mul(SQRT3, Fraction(l2))), Fraction(8))
    near = exact_floor(exact_add(comb, Fraction(1, 2)))
    dist = exact_add(comb, Fraction(-near))
    if exact_sign(dist) < 0:
        dist = exact_neg(dist)
    iv = exact_enclosure(dist, 128)
    assert rep3.value.lower <= iv.upper and iv.lower <= rep3.value.upper


def test_probe_threshold_is_decided():
    # thresholds inside the reported enclosure: the answer comes from the
    # exact value, not from the enclosure's lower end
    rep = horizontal_character_probe(SQRT2, SQRT3, 0, 2)
    l1, l2 = rep.best
    comb = exact_add(exact_mul(SQRT2, Fraction(l1)), exact_mul(SQRT3, Fraction(l2)))
    dist = exact_add(comb, Fraction(-round(exact_enclosure(comb, 64).to_float())))
    if exact_compare(dist, Fraction(0)) < 0:
        dist = exact_mul(dist, Fraction(-1))
    for thr in (rep.value.lower + rep.value.width / 4,
                rep.value.upper - rep.value.width / 4):
        above = horizontal_character_probe(SQRT2, SQRT3, 0, 2, threshold=thr)
        assert above.above_threshold == (exact_compare(dist, thr) > 0)


def test_probe_enclosure_constant():
    # alpha = the real root of x^5 - x - 1 is enclosure-backed; the best pair
    # matches a 60-digit brute force over the same half of the pairs
    import mpmath

    alpha = ExactReal.algebraic_root([1, 0, 0, 0, -1, -1], 1, 2)
    with mpmath.workdps(60):
        a = mpmath.findroot(lambda x: x**5 - x - 1, 1.17)
        b = mpmath.sqrt(2)
        for t in (1, 2, 3):
            rep = horizontal_character_probe(alpha, SQRT2, t, 5)
            assert not rep.degenerate

            def dist(pair):
                x = 2**t * (pair[0] * a + pair[1] * b)
                return abs(x - mpmath.nint(x))

            pairs = [(l1, l2) for l1 in range(-5, 1) for l2 in range(-5, 6)
                     if l1 < 0 or l2 < 0]
            assert rep.best == min(pairs, key=dist)
            lo, hi = (mpmath.mpf(f.numerator) / f.denominator
                      for f in (rep.value.lower, rep.value.upper))
            assert lo <= dist(rep.best) <= hi


# --- densities -----------------------------------------------------------------


def test_banach_scan_rotation_arc():
    # rotation by sqrt2, arc [0, 0.3)
    from nilseq.exactreal import exact_floor, exact_add, exact_mul

    def indicator(n):
        x = exact_mul(SQRT2, Fraction(n))
        frac = exact_add(x, Fraction(-exact_floor(x)))
        return 1 if exact_compare(frac, Fraction(3, 10)) < 0 else 0

    rep = banach_density_scan(indicator, 20000, window_count=3,
                              window_span=1 << 16)
    assert abs(rep.natural - 0.3) < 0.02
    assert abs(rep.banach_max - 0.3) < 0.05


def test_banach_scan_full_target():
    rep = banach_density_scan(lambda n: 1, 1000, window_count=2)
    assert rep.natural == 1.0 and rep.banach_max == 1.0


def test_pair_equidistribution_2d():
    # ({n sqrt2}, {n sqrt3}) has small 2-D star discrepancy at N = 1e5
    from nilseq.exactreal import exact_floor, exact_mul

    n_samples = 10**5
    grid = 256
    counts = [[0] * grid for _ in range(grid)]
    s2, s3 = math.sqrt(2), math.sqrt(3)
    for n in range(n_samples):
        x = (n * s2) % 1.0
        y = (n * s3) % 1.0
        counts[min(int(x * grid), grid - 1)][min(int(y * grid), grid - 1)] += 1
    # prefix sums over the grid corners
    worst = 0.0
    pref = [[0] * (grid + 1) for _ in range(grid + 1)]
    for i in range(grid):
        row = pref[i + 1]
        prev = pref[i]
        run = 0
        for j in range(grid):
            run += counts[i][j]
            row[j + 1] = prev[j + 1] + run
    for i in range(0, grid + 1, 8):
        for j in range(0, grid + 1, 8):
            emp = pref[i][j] / n_samples
            worst = max(worst, abs(emp - (i / grid) * (j / grid)))
    assert worst + 2 / grid < 0.02
