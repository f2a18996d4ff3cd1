import math
import random
from dataclasses import replace

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from nilseq.automaton import (
    BudgetExceeded,
    Dfao,
    ReadingOrder,
    base_power,
    constant,
    count_accepted_below,
    equivalent,
    from_prohibited_patterns,
    is_zero_invariant,
    map_outputs,
    minimize,
    parity_acceptor,
    powers_acceptor,
    product,
    reach,
    reverse_reading,
    to_lsd,
    to_msd,
    word_to,
)
from nilseq.exactreal import PrecisionExhausted
from nilseq.fixtures import (
    contains_101_acceptor,
    eleven_free_acceptor,
    finite_set_acceptor,
    fixture_suite,
    rank1_tail_acceptor,
    rank2_acceptor,
)
from nilseq.ipsets import IpGenerators, finite_sums
from nilseq.sparsity import (
    BasicPattern,
    IpPlusWitness,
    IpsWitness,
    _entry_word,
    classify,
    decomposition_to_dfao,
    enumerate_members,
    factor_universality,
    factor_universality_report,
    growth_census,
    ip_plus_witness,
    ips_witness,
    make_decomposition,
    normalize_arith_progression,
    promising_states,
    prove_ip_plus,
    prove_ips,
    prove_normal_form,
    verify_ip_plus,
    verify_ips,
    very_sparse_decomposition,
    window_count,
)

RANK2 = make_decomposition(2, [[(1,), (0,), (1,), (0,), (1,)]])


# --- promising states ---------------------------------------------------


def test_promising_constant_automata(const0, const1):
    assert promising_states(const1) == frozenset({0})
    assert promising_states(const0) == frozenset()


def test_promising_powers(powers2):
    # start and seen-1 are promising, the dead state is not
    assert sorted(promising_states(powers2)) == [0, 1]


def test_promising_requires_binary(tm):
    bad = map_outputs(tm, lambda o: "ab"[o])
    with pytest.raises(ValueError):
        promising_states(bad)


# --- classification ------------------------------------------------------


def test_classify_powers_very_sparse(powers2):
    cls = classify(powers2)
    assert cls.variant == "very_sparse"
    assert cls.decomposition.rank == 1
    members = enumerate_members(cls.decomposition, 1 << 20)
    assert members == [1 << j for j in range(20)]


def test_classify_constant_zero(const0):
    cls = classify(const0)
    assert cls.variant == "very_sparse"
    assert cls.decomposition.basic_sets == ()


def test_classify_baum_sweet(bs):
    cls = classify(bs)
    assert cls.variant == "condition_i"
    w = cls.witness
    assert len(w.v1) == len(w.v2) and w.v1 != w.v2
    assert cls.lsd.run(w.state, w.v1) == w.state
    assert cls.lsd.run(w.state, w.v2) == w.state
    assert w.state in promising_states(cls.lsd)


def test_classify_ignores_unreachable_branching():
    # state 0 branches inside the cycle {0, 2}, but only states 4 and 3 are
    # reachable, and both output 0: the 1-set is empty
    dfao = Dfao(2, ((0, 2), (1, 2), (0, 3), (3, 3), (3, 4)), (1, 0, 1, 0, 0),
                4, ReadingOrder.LSD)
    cls = classify(dfao)
    assert cls.variant == "very_sparse"
    assert cls.decomposition.basic_sets == ()


@st.composite
def binary_automaton(draw):
    base = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 6 if base == 2 else 4))
    rows = tuple(tuple(draw(st.integers(0, n - 1)) for _ in range(base))
                 for _ in range(n))
    outputs = tuple(draw(st.integers(0, 1)) for _ in range(n))
    return Dfao(base, rows, outputs, draw(st.integers(0, n - 1)),
                draw(st.sampled_from(list(ReadingOrder))))


@given(binary_automaton())
@settings(max_examples=300, deadline=None)
def test_branching_witness_is_reachable(dfao):
    cls = classify(dfao)
    if cls.variant == "condition_i":
        assert cls.witness.state in cls.lsd.reachable_states()


@given(binary_automaton())
@settings(max_examples=300, deadline=None)
def test_answers_read_canonical_words(dfao):
    # the automata are not drawn zero invariant: every answer must still be
    # about eval, which reads each n as its word with no most-significant 0
    k = dfao.base
    bound = k**6
    values = [dfao.eval(n) for n in range(bound)]
    for n in sorted({*range(2 * k + 2), *(k**j + e for j in range(2, 6)
                                          for e in (-1, 0, 1)), bound}):
        assert count_accepted_below(dfao, n) == values[:n].count(1)
    b2 = base_power(dfao, 2)
    assert [b2.eval(n) for n in range(bound)] == values
    if classify(dfao).variant == "condition_i":
        verify_ips(ips_witness(dfao, horizon=100, depth=6), dfao.eval, 6)
    if factor_universality(dfao):
        verify_ip_plus(ip_plus_witness(dfao, depth=6), dfao.eval, 6)


def test_empty_set_is_very_sparse():
    # every canonical LSD word ends in the digit 1 and lands in state 0, so
    # eval(n) = 0 for every n, though state 1 outputs 1
    dfao = Dfao(2, ((1, 0), (1, 0)), (0, 1), 0, ReadingOrder.LSD)
    assert not any(dfao.eval(n) for n in range(1 << 10))
    assert classify(dfao).variant == "very_sparse"
    assert count_accepted_below(dfao, 1 << 20) == 0
    rep = growth_census(dfao, [2**j for j in range(4, 21, 4)])
    assert rep.regime[0] == "poly_log"


def test_classify_rejects_nonbinary(tm):
    bad = map_outputs(tm, lambda o: o + 5)
    with pytest.raises(ValueError):
        classify(bad)


def test_classify_dichotomy_exclusive_on_fixtures():
    for name, dfao in fixture_suite():
        cls = classify(dfao)
        assert cls.variant in ("very_sparse", "condition_i"), name
        if cls.variant == "very_sparse":
            assert cls.decomposition is not None and cls.witness is None
            # member counts below 2^L stay polynomial in L
            r = cls.decomposition.rank
            for lexp in (10, 16, 20):
                nu = count_accepted_below(dfao, 1 << lexp)
                bound = max(1, len(cls.decomposition.basic_sets)) * (lexp + 2) ** r
                assert nu <= bound, (name, nu, bound)
        else:
            assert cls.witness is not None and cls.decomposition is None
            # branching implies fast growth of accepted-word counts
            lsd = cls.lsd
            counts = [count_accepted_below(dfao, 1 << lexp)
                      for lexp in (12, 16, 20)]
            assert counts[-1] >= 16, name


def test_classify_base_power_consistency():
    for name, dfao in fixture_suite():
        v1 = classify(dfao).variant
        v2 = classify(base_power(to_msd(dfao), 2)).variant
        assert v1 == v2, name


# --- decomposition soundness ---------------------------------------------


def test_decomposition_roundtrip_equivalence():
    # decomposition -> value automaton == original acceptor, for all n
    for name, dfao in fixture_suite():
        cls = classify(dfao)
        if not cls.is_very_sparse:
            continue
        value_dfao = decomposition_to_dfao(cls.decomposition)
        assert is_zero_invariant(value_dfao)
        assert equivalent(minimize(value_dfao), minimize(to_msd(dfao))), name


def test_decomposition_membership_sampled():
    rng = random.Random(11)
    for name, dfao in [("powers", powers_acceptor(2)), ("rank2", rank2_acceptor())]:
        cls = classify(dfao)
        msd = to_msd(dfao)
        members = set(enumerate_members(cls.decomposition, 1 << 48))
        assert all(msd.eval(n) == 1 for n in members), name
        for n in range(1 << 12):
            assert (n in members) == (msd.eval(n) == 1), (name, n)
        for _ in range(10**3):
            n = rng.randrange(1 << 48)
            assert (n in members) == (msd.eval(n) == 1), (name, n)


def test_rank2_fixture_counts():
    members = enumerate_members(RANK2, 1 << 20)
    # |E cap [N]| grows like (log N)^2 / 2
    assert 100 <= len(members) <= 400
    dfao = decomposition_to_dfao(RANK2)
    assert count_accepted_below(dfao, 1 << 20) == len(members)


def accepted_below_power(dfao, length):
    """{n < k^length : eval(n) = 1} of a zero-invariant MSD automaton, read
    as every word of ``length`` digits in increasing order."""
    states = [dfao.initial]
    for _ in range(length):
        states = [dfao.step(s, d) for s in states for d in range(dfao.base)]
    return [n for n, s in enumerate(states) if dfao.outputs[s] == 1]


@st.composite
def decomposition(draw, max_patterns=2):
    base = draw(st.sampled_from([2, 3]))
    digits = st.integers(0, base - 1)
    patterns = []
    for _ in range(draw(st.integers(1, max_patterns))):
        rank = draw(st.integers(0, 2))
        parts = [tuple(draw(st.lists(digits, max_size=3)))]
        for _ in range(rank):
            parts.append(tuple(draw(st.lists(digits, min_size=1, max_size=3))))
            parts.append(tuple(draw(st.lists(digits, max_size=3))))
        patterns.append(parts)
    return make_decomposition(base, patterns)


def assert_round_trips(dfao, want):
    """classify(dfao) is very sparse and its decomposition's acceptor
    computes the same set as the MSD automaton ``want``."""
    cls = classify(dfao)
    assert cls.is_very_sparse
    assert equivalent(decomposition_to_dfao(cls.decomposition), minimize(want))


ADJACENT_PUMPS = make_decomposition(2, [[(1,), (0, 1), (), (1, 1), ()]])


@given(decomposition())
@example(ADJACENT_PUMPS)
@settings(max_examples=200, deadline=None)
def test_decomposition_acceptor_matches_members(decomp):
    dfao = decomposition_to_dfao(decomp)
    assert is_zero_invariant(dfao)
    bound = decomp.base**9
    assert accepted_below_power(dfao, 9) == enumerate_members(decomp, bound)
    assert_round_trips(dfao, dfao)
    assert_round_trips(reverse_reading(dfao), dfao)


@st.composite
def zero_invariant_automaton(draw):
    base = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 6 if base == 2 else 4))
    rows = [[draw(st.integers(0, n - 1)) for _ in range(base)] for _ in range(n)]
    rows[0][0] = 0  # the initial state absorbs leading zeros
    outputs = tuple(draw(st.integers(0, 1)) for _ in range(n))
    dfao = Dfao(base, tuple(map(tuple, rows)), outputs, 0, ReadingOrder.MSD)
    return reverse_reading(dfao) if draw(st.booleans()) else dfao


@given(zero_invariant_automaton())
@settings(max_examples=300, deadline=None)
def test_classification_is_usable_on_both_sides(dfao):
    cls = classify(dfao)
    if cls.is_very_sparse:
        assert_round_trips(dfao, to_msd(dfao))
    else:
        ips_witness(dfao, horizon=200, depth=6)


def test_finite_pattern_rank_zero():
    decomp = make_decomposition(2, [[(1, 0, 1)], [(1, 1, 1, 0)]])
    assert decomp.rank == 0
    assert enumerate_members(decomp, 100) == [5, 14]


def test_rank_collapse_rule():
    # u w u with u = w = "0" collapses: [1 0^a 0 0^b 0] = {1 0^(a+b+1) 0}
    decomp = make_decomposition(2, [[(1,), (0,), (0,), (0,), (0,)]])
    assert decomp.rank == 1
    members = enumerate_members(decomp, 1 << 12)
    assert members == [2**j for j in range(2, 12)]


def test_window_counts():
    cls = classify(powers_acceptor(2))
    count, cap = window_count(cls.decomposition, 10**6, 10**6)
    assert count == 1  # only 2^20
    assert count <= cap
    count0, _ = window_count(cls.decomposition, 10**6, 1)
    assert count0 in (0, 1)
    rng = random.Random(3)
    for _ in range(20):
        m0 = rng.randrange(1 << 30)
        c, cap = window_count(RANK2, m0, 1 << 20)
        assert c <= cap <= 10 * (21 + 2) ** 2


# --- growth census ---------------------------------------------------------


def test_growth_powers_polylog(powers2):
    grid = [2**j for j in range(4, 21, 4)]
    rep = growth_census(powers2, grid)
    assert rep.regime == ("poly_log", 1)
    assert [c for _, c in rep.samples] == [4, 8, 12, 16, 20]


def test_growth_constant_one_powerlaw(const1):
    rep = growth_census(const1, [2**j for j in range(4, 21, 4)])
    assert rep.regime[0] == "power_law"
    assert abs(rep.regime[1] - 1.0) < 1e-6


def test_growth_eleven_free_exponent(eleven_free):
    rep = growth_census(eleven_free, [2**j for j in range(6, 21, 2)])
    assert rep.regime[0] == "power_law"
    assert abs(rep.regime[1] - math.log2((1 + 5**0.5) / 2)) < 1e-9


def digits_at_multiples(m: int) -> Dfao:
    """The n whose binary digits are 0 off the positions = 0 (mod m), read
    LSD first by an m-cycle that branches at 0: 2^(L/m) members below 2^L."""
    rows = ((1, 1),) + tuple(((i + 1) % m, m) for i in range(1, m))
    return Dfao(2, rows + ((m, m),), (1,) * m + (0,), 0, ReadingOrder.LSD)


def test_growth_mod8_positions(wall_clock_limit):
    dfao = digits_at_multiples(8)
    assert classify(dfao).variant == "condition_i"
    with wall_clock_limit(1.0):
        rep = growth_census(dfao, [2**j for j in range(4, 65, 4)])
    assert rep.regime[0] == "power_law" and abs(rep.regime[1] - 1 / 8) < 1e-9
    assert [c for _, c in rep.samples] == [2**((j - 1) // 8 + 1)
                                           for j in range(4, 65, 4)]


def test_growth_enclosure_stops_at_the_ceiling(monkeypatch):
    # power iteration on a 32-cycle closes the bounds by cos(pi/32) a step,
    # so 2^-60 takes about 8,600 steps; one 64-bit rung runs 32 x 64
    monkeypatch.setenv("NILSEQ_MAX_BITS", "64")
    with pytest.raises(PrecisionExhausted):
        growth_census(digits_at_multiples(32), [])
    monkeypatch.setenv("NILSEQ_MAX_BITS", "256")
    assert abs(growth_census(digits_at_multiples(8), []).regime[1] - 1 / 8) < 1e-9


def _spectral_radius_oracle(dfao: Dfao) -> float:
    """The largest real root of the characteristic polynomial of the trim
    canonical MSD automaton's adjacency matrix, by sympy."""
    msd = to_msd(dfao)
    trim = sorted(promising_states(msd) & set(msd.reachable_states()))
    index = {s: i for i, s in enumerate(trim)}
    a = sympy.zeros(len(trim), len(trim))
    for s in trim:
        for _, t in msd.successors(s):
            if t in index:
                a[index[s], index[t]] += 1
    return float(max(sympy.Poly(a.charpoly().as_expr()).real_roots()))


@given(binary_automaton())
@settings(max_examples=200, deadline=None)
def test_growth_regime_matches_independent_oracles(dfao):
    # very sparse: nu(k^L) is a polynomial of degree r in L for L a
    # multiple of every cycle length, so nu(k^1440) / nu(k^720) ~ 2^r;
    # branching: nu(k^L) grows like rho^L, rho read off the trim automaton
    k = dfao.base
    regime = growth_census(dfao, []).regime
    if classify(dfao).is_very_sparse:
        lo, hi = (count_accepted_below(dfao, k**L) for L in (720, 1440))
        assert regime == ("poly_log", round(math.log2(hi / lo)) if lo else 0)
    else:
        assert regime[0] == "power_law"
        assert abs(regime[1] - math.log(_spectral_radius_oracle(dfao), k)) < 1e-9


# --- ips witnesses -----------------------------------------------------------


def test_ips_witness_baum_sweet(bs):
    w = ips_witness(bs, horizon=10**4, depth=10)
    k = w.base
    assert 0 <= w.p < k**w.l and w.l < w.m
    assert w.r1 % k**w.l == w.p and w.r2 % k**w.l == w.p and w.r1 != w.r2
    # witness data re-verifies independently
    for n in range(2000):
        v = bs.eval(k**w.l * n + w.p)
        assert bs.eval(k**w.m * n + w.r1) == v
        assert bs.eval(k**w.m * n + w.r2) == v
    assert any(bs.eval(k**w.l * n + w.p) == 1 for n in range(50))
    for _, _, value in w.members(10):
        assert bs.eval(value) == 1


def test_ips_witness_eleven_free(eleven_free):
    w = ips_witness(eleven_free, horizon=10**4, depth=10)
    for _, _, value in w.members(10):
        assert eleven_free.eval(value) == 1


def test_ips_witness_synthetic_branching():
    # two self-loops at an accepting state: a 2-cycle-branching fixture
    d = constant(2, 1)
    w = ips_witness(d, horizon=10**3, depth=12)
    for _, _, value in w.members(12):
        assert d.eval(value) == 1


def test_ips_witness_rejected_on_very_sparse(powers2):
    with pytest.raises(ValueError):
        ips_witness(powers2)


def test_ips_witness_horizon_costs_nothing(bs, wall_clock_limit):
    with wall_clock_limit(1):
        w = ips_witness(bs, horizon=10**9, depth=10)
    assert w.verified_horizon == 10**9


def test_witnesses_evaluate_nothing(monkeypatch, bs, const1):
    def no_eval(self, n):
        raise AssertionError("a witness was checked by evaluation")

    monkeypatch.setattr(Dfao, "eval", no_eval)
    ips_witness(bs, horizon=10**5, depth=10)
    ips_witness(const1, horizon=10**5, depth=10)
    ip_plus_witness(contains_101_acceptor(), depth=10)
    ip_plus_witness(const1, depth=10)


def identity_holds(dfao, w, n):
    k = w.base
    return (dfao.eval(k**w.l * n + w.p) == dfao.eval(k**w.m * n + w.r1)
            == dfao.eval(k**w.m * n + w.r2))


def named_n(exc):
    message = str(exc.value)
    assert message.startswith("ips identity failed at n=")
    return int(message.removeprefix("ips identity failed at n="))


def test_ips_proof_rejects_a_tampered_residue(bs):
    w = ips_witness(bs, horizon=10**3, depth=10)
    k = w.base
    others = [w.p + k**w.l * s for s in range(k**(w.m - w.l))
              if w.p + k**w.l * s not in (w.r1, w.r2)]
    assert others
    for r2 in others:
        tampered = replace(w, r2=r2)
        with pytest.raises(AssertionError) as exc:
            prove_ips(tampered, to_lsd(bs))
        assert not identity_holds(bs, tampered, named_n(exc))


def test_proofs_read_canonical_words_on_states_that_change_on_a_trailing_zero():
    # a(n) = 1 for n >= 1 and a(0) = 0; state 1 (last digit 1) outputs 1 and
    # reading 0 takes it to state 2, which outputs 0
    dfao = Dfao(2, ((0, 1), (2, 1), (2, 1)), (0, 1, 0), 0, ReadingOrder.LSD)
    assert not is_zero_invariant(dfao)
    # a(2n) = a(4n) = a(4n + 2) holds for every n >= 1 but not n = 0
    w = IpsWitness(2, 1, 2, 0, 0, 2, 1, (), (), 0, 0)
    with pytest.raises(AssertionError) as exc:
        prove_ips(w, dfao)
    assert named_n(exc) == 0 and not identity_holds(dfao, w, 0)
    assert all(identity_holds(dfao, w, n) for n in range(1, 200))
    # the constant-1 sequence read by a state that flips on a trailing 0:
    # its witness is proved although the automaton is not zero invariant
    flips = Dfao(2, ((1, 0), (1, 0)), (1, 0), 0, ReadingOrder.LSD)
    assert not is_zero_invariant(flips)
    w = ips_witness(flips, horizon=300, depth=6)
    verify_ips(w, flips.eval, 6)
    # 1 + sums of 2^(2i+1): the block word 10 of m = 1 ends in a 0 that no
    # member's own word reads last
    w = IpPlusWitness(2, 1, 1, 2, 1, 0, 0, (2, 8, 32, 128), 4)
    prove_ip_plus(w, flips)
    verify_ip_plus(w, flips.eval, 4)


def test_proofs_reject_a_family_off_their_words(bs):
    w = ips_witness(bs, horizon=10**3, depth=10)
    for tampered in (replace(w, shifts=w.shifts[:-1] + (w.shifts[-1] + 2,)),
                     replace(w, generators=w.generators[:-1])):
        with pytest.raises(AssertionError, match="generators and shifts"):
            prove_ips(tampered, to_lsd(bs))
    dfao = contains_101_acceptor()
    w = ip_plus_witness(dfao, depth=10)
    with pytest.raises(AssertionError, match="generators are not"):
        prove_ip_plus(replace(w, generators=w.generators[1:]), to_lsd(dfao))


# --- factor universality ------------------------------------------------------


def test_factor_universality_basic(const1, bs, eleven_free):
    assert factor_universality(const1)
    rep = factor_universality_report(bs)
    assert not rep.universal and rep.missing_factor == (1, 0, 1)
    rep2 = factor_universality_report(eleven_free)
    assert not rep2.universal and rep2.missing_factor == (1, 1)


def test_factor_universality_contains_101():
    assert factor_universality(contains_101_acceptor())


def test_ip_plus_witness_contains_101():
    dfao = contains_101_acceptor()
    w = ip_plus_witness(dfao, depth=10)
    sums = finite_sums(IpGenerators(w.generators), 10)
    for v in sums:
        assert dfao.eval(v + w.shift) == 1


def test_ip_plus_witness_constant_one(const1):
    w = ip_plus_witness(const1, depth=10)
    assert all(const1.eval(v + w.shift) == 1
               for v in finite_sums(IpGenerators(w.generators), 10))


def test_ip_plus_witness_long_pattern_is_fast(wall_clock_limit):
    # 11 LSD states; enumerating entry words instead of states took 10 s here
    dfao = map_outputs(from_prohibited_patterns(2, [(1, 0, 1, 1, 0, 1, 1, 1, 0, 1)]),
                       lambda o: 1 - o)
    with wall_clock_limit(2):
        w = ip_plus_witness(dfao, depth=10)
    verify_ip_plus(w, dfao.eval, 10)


def test_ip_plus_rejects_baum_sweet(bs):
    with pytest.raises(ValueError):
        ip_plus_witness(bs)


def test_ip_plus_proof_rejects_a_shifted_shift():
    dfao = contains_101_acceptor()
    w = ip_plus_witness(dfao, depth=10)
    k = w.base
    others = [shift for shift in range(k**w.h) if shift != w.shift]
    assert others
    for shift in others:
        with pytest.raises(AssertionError) as exc:
            prove_ip_plus(replace(w, shift=shift), to_lsd(dfao))
        value = int(str(exc.value).split()[2])
        assert value - shift in finite_sums(IpGenerators(w.generators), 10)
        assert dfao.eval(value) != 1


@given(zero_invariant_automaton())
@settings(max_examples=300, deadline=None)
def test_witnesses_replay_on_the_input_automaton(dfao):
    if classify(dfao).variant == "condition_i":
        verify_ips(ips_witness(dfao, horizon=300, depth=6), dfao.eval, 6)
    if factor_universality(dfao):
        verify_ip_plus(ip_plus_witness(dfao, depth=8), dfao.eval, 8)


@given(binary_automaton(), st.integers(0, 1 << 16))
@settings(max_examples=300, deadline=None)
def test_state_proofs_agree_with_evaluation(dfao, tamper):
    # any automaton, zero invariant or not: a proved witness replays on the
    # input automaton, and a witness with another residue or shift is
    # rejected exactly when evaluation breaks it, at the n or sum named
    lsd = to_lsd(dfao)
    try:
        w = ips_witness(dfao, horizon=300, depth=6)
    except ValueError:
        pass
    else:
        verify_ips(w, dfao.eval, 6)
        k = w.base
        tampered = replace(w, r2=w.p + k**w.l * (tamper % k**(w.m - w.l)))
        try:
            prove_ips(tampered, lsd)
        except AssertionError as exc:
            if str(exc).startswith("ips identity failed at n="):
                n = int(str(exc).removeprefix("ips identity failed at n="))
                assert not identity_holds(dfao, tampered, n)
            else:
                assert all(identity_holds(dfao, tampered, n) for n in range(300))
    try:
        w = ip_plus_witness(dfao, depth=8)
    except (ValueError, BudgetExceeded):
        return
    verify_ip_plus(w, dfao.eval, 8)
    tampered = replace(w, shift=tamper % w.base**w.h)
    try:
        prove_ip_plus(tampered, lsd)
    except AssertionError as exc:
        assert dfao.eval(int(str(exc).split()[2])) != 1
    else:
        verify_ip_plus(tampered, dfao.eval, 8)


# --- normal form ---------------------------------------------------------------


def test_normalize_powers():
    decomp = classify(powers_acceptor(2)).decomposition
    nf = normalize_arith_progression(decomp)
    assert nf.modulus == 2 and nf.residue == 0
    assert nf.branches == (((1,), (0,)),)
    assert nf.suffix == (0,)


def test_normalize_single_branch_fixed_point():
    # {[1 0^l 0]_2}: already in (v, w, u) shape
    decomp = make_decomposition(2, [[(1,), (0,), (0,)]])
    nf = normalize_arith_progression(decomp)
    assert nf.modulus == 2**len(nf.suffix)
    got = set(enumerate_members(nf.decomposition(), 1 << 36))
    want = {v for v in enumerate_members(decomp, 1 << 36)
            if v % nf.modulus == nf.residue}
    assert got == want


def test_normalize_rank2():
    nf = normalize_arith_progression(RANK2)
    # each surviving branch has a single pump
    for v, w in nf.branches:
        assert len(w) >= 1
    got = set(enumerate_members(nf.decomposition(), 1 << 40))
    want = {v for v in enumerate_members(RANK2, 1 << 40)
            if v % nf.modulus == nf.residue}
    assert got == want and got


def test_normalize_mixed_pump_lengths():
    # pumps "0" and "00": one base_power to K = 2^lcm(1, 2) = 4
    decomp = make_decomposition(2, [[(1,), (0,), (1,)],
                                    [(1, 1), (0, 0), (1, 1)]])
    nf = normalize_arith_progression(decomp)
    got = set(enumerate_members(nf.decomposition(), 1 << 34))
    want = {v for v in enumerate_members(decomp, 1 << 34)
            if v % nf.modulus == nf.residue}
    assert got == want


def test_normalize_adjacent_pumps():
    # members 1 (01)^a (11)^b: the two pump loops once shared a state, so
    # the acceptor took interleavings such as 29 = 0b11101 and the
    # intersection with the progression was not very sparse
    nf = normalize_arith_progression(ADJACENT_PUMPS)
    got = set(enumerate_members(nf.decomposition(), 1 << 34))
    want = {v for v in enumerate_members(ADJACENT_PUMPS, 1 << 34)
            if v % nf.modulus == nf.residue}
    assert got == want and got


def test_normalize_rejects_finite():
    decomp = make_decomposition(2, [[(1, 0, 1)]])
    with pytest.raises(ValueError):
        normalize_arith_progression(decomp)


def test_prove_normal_form_refuses_a_changed_branch():
    nf = normalize_arith_progression(RANK2)
    assert nf.block_base == 2
    dfao = decomposition_to_dfao(RANK2)
    lsd = to_lsd(dfao)
    prove_normal_form(nf, lsd)
    with pytest.raises(ValueError):
        prove_normal_form(nf, dfao)
    (v, w), *rest = nf.branches
    for branch in ((v + (1,), w), (v, (1,)), ((), w)):
        tampered = replace(nf, branches=(branch, *rest))
        with pytest.raises(AssertionError) as exc:
            prove_normal_form(tampered, lsd)
        n = int(str(exc.value).split("n=")[1])
        assert n % nf.modulus == nf.residue
        in_tampered = n in enumerate_members(tampered.decomposition(), n + 1)
        assert (dfao.eval(n) == 1) != in_tampered, (branch, n)


@given(decomposition(max_patterns=3).filter(lambda d: d.rank > 0))
@settings(max_examples=200, deadline=None)
def test_normal_form_matches_members_on_its_progression(decomp):
    bound = 1 << 24
    nf = normalize_arith_progression(decomp)
    want = [v for v in enumerate_members(decomp, bound)
            if v % nf.modulus == nf.residue]
    assert enumerate_members(nf.decomposition(), bound) == want


def test_powers_reduction_demo():
    from nilseq.sparsity import powers_reduction_demo

    cls = classify(powers_acceptor(2))
    rep = powers_reduction_demo(cls.decomposition, horizon=1 << 40)
    assert rep.ok
    assert [st.name for st in rep.stages] == [
        "A_cap_progression", "B_coefficient_powers", "C_unit_leading",
        "D_pure_powers"]
    # the terminal stage is exactly the even powers of the final base
    final = rep.stages[-1]
    assert final.sample[:4] == [rep.final_base ** (2 * l) for l in range(4)]

    rep2 = powers_reduction_demo(RANK2, horizon=1 << 40)
    assert rep2.ok


# --- breadth-first walk against the word searches it replaced -----------------


def reference_bfs_word(dfao, source, target, allowed=None):
    """Shortest word from source to target (restricted to allowed states)."""
    if source == target:
        return ()
    prev = {}
    queue = [source]
    seen = {source}
    while queue:
        s = queue.pop(0)
        for d in range(dfao.base):
            t = dfao.step(s, d)
            if allowed is not None and t not in allowed:
                continue
            if t not in seen:
                seen.add(t)
                prev[t] = (s, d)
                if t == target:
                    word = []
                    cur = t
                    while cur != source:
                        p, dd = prev[cur]
                        word.append(dd)
                        cur = p
                    return tuple(reversed(word))
                queue.append(t)
    return None


def reference_short_words_to(lsd, target):
    """Words from the initial state to target, shortest first, every path
    up to 4096 hits or length 2n + 3."""
    out = []
    if lsd.initial == target:
        out.append(())
    queue = [(lsd.initial, ())]
    seen_words = 0
    while queue and seen_words < 4096:
        s, word = queue.pop(0)
        if len(word) > 2 * lsd.n_states + 2:
            continue
        for d in range(lsd.base):
            t = lsd.step(s, d)
            w2 = word + (d,)
            if t == target:
                out.append(w2)
                seen_words += 1
            queue.append((t, w2))
    return out


@st.composite
def small_automaton(draw):
    base = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 5 if base == 2 else 3))
    rows = tuple(tuple(draw(st.integers(0, n - 1)) for _ in range(base))
                 for _ in range(n))
    allowed = frozenset(draw(st.sets(st.integers(0, n - 1))))
    return Dfao(base, rows, (0,) * n, draw(st.integers(0, n - 1)),
                ReadingOrder.LSD), allowed


@given(small_automaton())
@settings(max_examples=300, deadline=None)
def test_walk_words_match_reference_searches(case):
    dfao, allowed = case
    states = range(dfao.n_states)

    def inside(v):
        return ((d, t) for d, t in dfao.successors(v) if t in allowed)

    for source in states:
        links = reach([source], dfao.successors)
        inner = reach([source], inside)
        for target in states:
            assert (word_to(links, target) if target in links else None) == \
                reference_bfs_word(dfao, source, target)
            assert (word_to(inner, target) if target in inner else None) == \
                reference_bfs_word(dfao, source, target, allowed)
    from_initial = reach([dfao.initial], dfao.successors)
    for target in from_initial:
        want = next((w for w in reference_short_words_to(dfao, target)
                     if w == () or w[-1] != 0), None)
        assert _entry_word(dfao, from_initial, target) == want
