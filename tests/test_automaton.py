import random

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import digit_sum
from nilseq.automaton import (
    BudgetExceeded,
    Dfao,
    KernelReport,
    ReadingOrder,
    _moore_partition,
    base_power,
    baum_sweet,
    canonical,
    constant,
    count_accepted_below,
    equivalent,
    format_automaton,
    from_prohibited_patterns,
    is_zero_invariant,
    kernel,
    map_outputs,
    minimize,
    parity_acceptor,
    parse_automaton,
    powers_acceptor,
    product,
    pumping_witness,
    check_pumping_witness,
    reverse_reading,
    thue_morse,
    to_lsd,
)
from nilseq.digits import DigitWord, from_digits, to_digits


# --- eval ------------------------------------------------------------


def test_thue_morse_eval_oracle(tm):
    # t_n = parity of the binary digit sum
    for n in range(4096):
        assert tm.eval(n) == digit_sum(n) % 2
    assert tm.eval(0) == 0
    assert tm.eval(11) == 1
    assert tm.eval(3) == 0


def test_powers_acceptor_eval(powers2):
    accepted = {n for n in range(1 << 14) if powers2.eval(n) == 1}
    assert accepted == {1 << j for j in range(14)}


# --- kernel ----------------------------------------------------------


def test_kernel_sizes(tm, const0):
    assert kernel(tm).size == 2
    assert kernel(const0).size == 1
    assert kernel(parity_acceptor()).size == 3


def test_kernel_oracle_parity():
    # independent oracle: sampled prefixes of a(2^t n + r) for the parity
    # sequence give exactly three distinct subsequences
    par = parity_acceptor()
    prefixes = set()
    for t in range(6):
        for r in range(1 << t):
            prefixes.add(tuple(par.eval((1 << t) * n + r) for n in range(64)))
    assert len(prefixes) == 3


def test_kernel_index_map(tm):
    rep = kernel(tm)
    assert rep.index_map[(0, 0)] == 0
    # t(2n) = t(n): residue 0 at level 1 is the same class as the root
    assert rep.index_map[(1, 0)] == rep.index_map[(0, 0)]
    assert rep.index_map[(1, 1)] != rep.index_map[(0, 0)]


def test_kernel_minimize_consistency(tm, powers2, bs, eleven_free):
    for a in (tm, powers2, bs, eleven_free):
        assert kernel(minimize(a)).size == kernel(a).size


def _canonical_partition(dfao: Dfao, states: list[int]) -> dict[int, int]:
    """Partition of the reachable LSD states by equality of computed
    functions, ignoring the empty-word output (handled separately by the
    caller).

    Two states compute the same function on canonical LSD words ending in a
    nonzero digit iff they share this block; full function equality adds
    agreement of the states' own outputs.
    """
    def sig0(s):
        return tuple(dfao.outputs[dfao.step(s, d)] for d in range(1, dfao.base))

    return _moore_partition(dfao, states, sig0)


def per_residue_kernel(dfao, state_cap=10**6, map_entry_cap=4096):
    """Reference: the closure that keeps every residue r < k^t at every
    level, so its cost grows like k^depth, and that keys a class by the
    state's output and its agreement after every word ending in a nonzero
    digit.  ``kernel`` must agree with it exactly; keep the inputs small."""
    lsd = to_lsd(dfao, state_budget=state_cap)
    assert is_zero_invariant(lsd)
    if lsd.n_states > state_cap:
        raise BudgetExceeded("kernel state closure exceeded cap")
    block = _canonical_partition(lsd, lsd.reachable_states())
    k = lsd.base

    def class_key(s):
        return (lsd.outputs[s], block[s])

    class_ids: dict[tuple, int] = {}
    classes: list[tuple[int, int, int]] = []
    index_map: dict[tuple[int, int], int] = {}
    seen_states = {lsd.initial}
    level = {0: lsd.initial}  # residue -> state at current level
    t = 0
    storing = True
    while True:
        if storing and len(index_map) + len(level) <= map_entry_cap:
            for r, s in level.items():
                key = class_key(s)
                if key not in class_ids:
                    class_ids[key] = len(classes)
                    classes.append((t, r, s))
                index_map[(t, r)] = class_ids[key]
        else:
            storing = False
            for r, s in level.items():
                key = class_key(s)
                if key not in class_ids:
                    class_ids[key] = len(classes)
                    classes.append((t, r, s))
        new_states = False
        nxt = {}
        for r, s in level.items():
            for d in range(k):
                s2 = lsd.step(s, d)
                nxt[r + d * k**t] = s2
                if s2 not in seen_states:
                    seen_states.add(s2)
                    new_states = True
        if not new_states and t >= 1:
            # all reachable states met; every kernel class witnessed
            break
        level = nxt
        t += 1
    # count classes over the full reachable set, not only the explored map
    size = len({class_key(s) for s in seen_states})
    assert size == len(classes)
    return KernelReport(tuple(classes), index_map, size)


@st.composite
def small_kernel_input(draw):
    # The reference explores k^depth residues and depth <= LSD states, so
    # MSD inputs get at most 3 states with binary outputs (at most 8 LSD
    # states after reversal) and LSD inputs at most 5 states.
    base = draw(st.sampled_from([2, 3]))
    order = draw(st.sampled_from([ReadingOrder.MSD, ReadingOrder.LSD]))
    n = draw(st.integers(1, 3 if order is ReadingOrder.MSD else 5))
    outputs = [draw(st.integers(0, 1 if order is ReadingOrder.MSD else 2))
               for _ in range(n)]
    rows = [[draw(st.integers(0, n - 1)) for _ in range(base)]
            for _ in range(n)]
    if order is ReadingOrder.MSD:
        rows[0][0] = 0
    else:
        # a 0-successor with the state's own output keeps LSD zero invariance
        for s in range(n):
            rows[s][0] = draw(st.sampled_from(
                [u for u in range(n) if outputs[u] == outputs[s]]))
    return Dfao(base, tuple(map(tuple, rows)), tuple(outputs), 0, order)


@given(small_kernel_input(), st.sampled_from([1, 8, 4096]))
@settings(max_examples=300, deadline=None)
def test_kernel_matches_per_residue_reference(dfao, cap):
    # caps 1 and 8 stop the stored prefix early, so the per-state levels
    # and the switch to them both run
    want = per_residue_kernel(dfao, map_entry_cap=cap)
    got = kernel(dfao, map_entry_cap=cap)
    assert got.classes == want.classes
    assert got.index_map == want.index_map
    assert got.size == want.size


def residue_lsd(k: int, m: int, c: int) -> Dfao:
    """Indicator of n = c (mod m) read LSD first: states are pairs
    (residue so far, position mod the order of k mod m)."""
    period = 1
    while pow(k, period, m) != 1:
        period += 1
    rows, outputs = [], []
    for r in range(m):
        for t in range(period):
            w = pow(k, t, m)
            rows.append(tuple(((r + d * w) % m) * period + (t + 1) % period
                              for d in range(k)))
            outputs.append(int(r == c))
    return Dfao(k, tuple(rows), tuple(outputs), 0, ReadingOrder.LSD)


def test_kernel_of_deep_product_is_fast(wall_clock_limit):
    # 1,368 LSD states whose breadth-first closure is 26 levels deep: a
    # closure that keeps every residue r < 2^t per level builds a level of
    # 2^27 entries here, far beyond 2 GB
    no_111 = reverse_reading(from_prohibited_patterns(2, [(1, 1, 1)]))
    prod = product(residue_lsd(2, 19, 3), no_111, lambda x, y: x & y)
    with wall_clock_limit(5):
        size = kernel(prod).size
    assert size == kernel(minimize(prod)).size
    census = {tuple(prod.eval((1 << t) * n + r) for n in range(24))
              for t in range(9) for r in range(1 << t)}
    assert size >= len(census)


# --- reversal, base power, product ----------------------------------


def test_reverse_reading_thue_morse(tm):
    lsd = reverse_reading(tm)
    assert lsd.order is ReadingOrder.LSD
    for n in range(1 << 16):
        assert lsd.eval(n) == tm.eval(n)
    assert is_zero_invariant(lsd)


def test_reverse_reading_powers(powers2):
    lsd = reverse_reading(powers2)
    rng = random.Random(7)
    for n in range(1 << 12):
        assert lsd.eval(n) == powers2.eval(n)
    for _ in range(2000):
        n = rng.randrange(1 << 20)
        assert lsd.eval(n) == powers2.eval(n)


def test_reverse_single_state():
    c = constant(3, "x")
    rev = reverse_reading(c)
    assert rev.n_states == 1
    assert rev.eval(17) == "x"


def test_base_power_identity(tm):
    assert base_power(tm, 1) is tm


def test_base_power_thue_morse(tm):
    b4 = base_power(tm, 2)
    assert b4.base == 4
    for n in range(4**8):
        assert b4.eval(n) == tm.eval(n)


def test_base_power_powers_acceptor(powers2):
    b4 = base_power(powers2, 2)
    accepted = [n for n in range(4**6) if b4.eval(n) == 1]
    want = sorted({4**l for l in range(6)} | {2 * 4**l for l in range(6)})
    assert accepted == [n for n in want if n < 4**6]


def test_product_projection(tm, powers2):
    proj = product(tm, powers2, lambda a, b: a)
    for n in range(4096):
        assert proj.eval(n) == tm.eval(n)


def test_product_and_intersection(powers2, eleven_free):
    both = product(powers2, eleven_free, lambda a, b: a & b)
    for n in range(10**5):
        assert both.eval(n) == (powers2.eval(n) & eleven_free.eval(n))


def test_product_xor_self_constant_zero(tm):
    z = product(tm, tm, lambda a, b: a ^ b)
    assert equivalent(minimize(z), constant(2, 0))


def test_product_base_mismatch(tm):
    with pytest.raises(ValueError):
        product(tm, constant(3, 0), lambda a, b: a)


# --- minimize --------------------------------------------------------


def test_minimize_already_minimal(tm):
    assert minimize(tm).n_states == 2


def test_minimize_removes_unreachable():
    # extra state 2 is unreachable
    d = Dfao(2, ((0, 1), (1, 0), (2, 2)), (0, 1, 1))
    assert minimize(d).n_states == 2


def test_minimize_merges_duplicates():
    # states 1 and 2 have identical rows and outputs
    d = Dfao(2, ((1, 2), (1, 2), (1, 2)), (0, 1, 1))
    assert minimize(d).n_states == 2


def test_minimize_idempotent(bs, eleven_free):
    for a in (bs, eleven_free):
        m = minimize(a)
        assert minimize(m).n_states == m.n_states
        assert equivalent(m, a)


# --- pattern builders ------------------------------------------------


def brute_force_free(n: int, patterns, base=2) -> int:
    word = "".join(str(d) for d in to_digits(n, base))
    pats = ["".join(str(d) for d in p) for p in patterns]
    return 0 if any(p in word for p in pats) else 1


def assert_matches_brute_force(k, patterns, bound):
    d = from_prohibited_patterns(k, patterns)
    assert is_zero_invariant(d)
    for n in range(bound):
        assert d.eval(n) == brute_force_free(n, patterns, k), n


def test_prohibited_11_examples(eleven_free):
    assert eleven_free.eval(5) == 1   # 101
    assert eleven_free.eval(3) == 0   # 11
    assert eleven_free.eval(0) == 1   # empty word


def test_prohibited_empty_set_is_constant_one():
    d = from_prohibited_patterns(2, [])
    assert equivalent(minimize(d), constant(2, 1))


@pytest.mark.parametrize("patterns", [
    [(1, 1)],
    [(0, 0, 0)],
    [(1, 0, 1)],
    [(0, 1), (1, 1, 1)],
])
def test_prohibited_patterns_vs_brute_force(patterns):
    assert_matches_brute_force(2, patterns, 1 << 14)


@st.composite
def pattern_set(draw):
    k = draw(st.integers(2, 4))
    # leading-zero patterns such as (0,) and (0, 0, 1) included
    pattern = st.lists(st.integers(0, k - 1), min_size=1, max_size=4).map(tuple)
    return k, draw(st.lists(pattern, max_size=4))


@given(pattern_set())
@example((2, [(0,)]))
@example((3, [(0, 0, 1), (2,)]))
@settings(max_examples=150, deadline=None)
def test_prohibited_patterns_property(case):
    k, patterns = case
    assert_matches_brute_force(k, patterns, {2: 1 << 11, 3: 3**7, 4: 4**6}[k])


def test_prohibited_patterns_big_scan(eleven_free):
    # full-scale soundness check for the prohibited-pattern builder
    for n in range(10**6):
        word = bin(n)[2:]
        assert eleven_free.eval(n) == (0 if "11" in word else 1)


def test_prohibited_patterns_base3():
    d = from_prohibited_patterns(3, [(2, 2), (1, 0, 1)])
    for n in range(3**9):
        word = "".join(str(x) for x in to_digits(n, 3))
        want = 0 if ("22" in word or "101" in word) else 1
        assert d.eval(n) == want


def test_baum_sweet_examples(bs):
    assert bs.eval(0) == 1
    assert bs.eval(4) == 1
    assert bs.eval(2) == 1
    assert bs.eval(5) == 0
    assert bs.eval(9) == 1


def baum_sweet_oracle(n: int) -> int:
    # every maximal 0-block *between 1s* must have even length
    word = bin(n)[2:] if n else ""
    core = word.rstrip("0")
    runs = [len(x) for x in core.split("1") if x]
    return 1 if all(r % 2 == 0 for r in runs) else 0


def test_baum_sweet_brute_force(bs):
    first = [n for n in range(64) if bs.eval(n) == 1]
    want = [n for n in range(64) if baum_sweet_oracle(n) == 1]
    assert first == want
    assert first[:9] == [0, 1, 2, 3, 4, 6, 7, 8, 9]
    for n in range(1 << 14):
        assert bs.eval(n) == baum_sweet_oracle(n)


def test_baum_sweet_is_small(bs):
    assert bs.n_states <= 4


# --- pumping ---------------------------------------------------------


def test_pumping_powers(powers2):
    u0, v, u1 = pumping_witness(powers2, 1)
    assert len(v) >= 1
    for t in range(65):
        word = u0.digits + v.digits * t + u1.digits
        assert powers2.eval(from_digits(word, 2)) == 1


def test_pumping_constant_one(const1):
    triple = pumping_witness(const1, 1)
    assert check_pumping_witness(const1, triple, 1)


def test_pumping_thue_morse(tm):
    for value in (0, 1):
        triple = pumping_witness(tm, value)
        assert check_pumping_witness(tm, triple, value)


def test_pumping_position_constraint(tm):
    u0, v, u1 = pumping_witness(tm, 1, L=3)
    assert len(u0) >= 3


def test_pumping_unattained_value(const0):
    from nilseq.automaton import BudgetExceeded
    with pytest.raises(BudgetExceeded):
        pumping_witness(const0, 1)


def replay_pump(dfao, triple, value):
    """eval([u0 v^t u1]_k) = value for t <= 64, by evaluation."""
    u0, v, u1 = triple
    return len(v) > 0 and all(
        dfao.eval(from_digits(u0.digits + v.digits * t + u1.digits, dfao.base))
        == value for t in range(65))


def test_pump_walk_matches_the_evaluation_replay():
    # the walk's first failing t lies below the canonical state count, which
    # stays far below 64 here, so the two must agree
    rng = random.Random(2)
    outcomes = []
    for _ in range(250):
        base, n = rng.choice((2, 3)), rng.randint(1, 7)
        dfao = Dfao(base, tuple(tuple(rng.randrange(n) for _ in range(base))
                                for _ in range(n)),
                    tuple(rng.randrange(2) for _ in range(n)), 0,
                    rng.choice(list(ReadingOrder)))
        for value in (0, 1):
            try:
                u0, v, u1 = pumping_witness(dfao, value)
            except BudgetExceeded:
                continue
            # the witness, and one digit more on v or on u1
            triples = [(u0, v, u1)] + [
                (u0, DigitWord(base, v.digits + (d,)), u1) for d in range(base)] + [
                (u0, v, DigitWord(base, u1.digits + (d,))) for d in range(base)]
            for triple in triples:
                walk = check_pumping_witness(dfao, triple, value)
                assert walk == replay_pump(dfao, triple, value), (dfao, triple)
                outcomes.append(walk)
    assert True in outcomes and False in outcomes and len(outcomes) > 2000


# --- zero invariance -------------------------------------------------


def test_zero_invariance(tm, const1):
    assert is_zero_invariant(tm)
    assert is_zero_invariant(const1)
    lsd = to_lsd(tm)
    assert canonical(tm) is tm and canonical(lsd) is lsd


# delta(start, 0) leads to a state with different output: a(n) = 1 iff the
# binary word of n >= 1 has a 0
NOT_ZERO_INVARIANT = Dfao(2, ((1, 0), (1, 1)), (0, 1))


def test_zero_invariance_counterexample():
    d = NOT_ZERO_INVARIANT
    assert not is_zero_invariant(d)
    for c in (canonical(d), canonical(reverse_reading(d))):
        assert is_zero_invariant(c)
        assert all(c.eval(n) == d.eval(n) for n in range(512))
    assert to_lsd(d).eval_word((1, 1, 0)) == d.eval(3) == 0


def test_zero_invariance_ignores_unreachable_lsd_states():
    # state 1 changes its output on 0 but is unreachable from state 0
    d = Dfao(2, ((0, 0), (0, 1)), (1, 0), 0, ReadingOrder.LSD)
    assert is_zero_invariant(d) and canonical(d) is d
    assert not is_zero_invariant(Dfao(2, d.transitions, d.outputs, 1,
                                      ReadingOrder.LSD))


def test_base_power_reads_canonical_words():
    # padding the top block of n = 1, 7, 31 with a zero reads a 0 first
    d = NOT_ZERO_INVARIANT
    for e in (d, reverse_reading(d)):
        b2 = base_power(e, 2)
        assert all(b2.eval(n) == d.eval(n) for n in range(1024))


def test_pumping_reads_canonical_words():
    # every word 0w reads 1, though eval reads it as w
    d = NOT_ZERO_INVARIANT
    for e in (d, reverse_reading(d)):
        assert check_pumping_witness(d, pumping_witness(e, 1), 1)


def test_kernel_of_an_automaton_not_zero_invariant():
    # a(2^t n + r) for r < 2^t: n = 0 gives a(r), and n >= 1 has a 0 in its
    # word unless n = 2^j - 1, where the word of r decides
    rep = kernel(NOT_ZERO_INVARIANT)
    assert rep.size == kernel(reverse_reading(NOT_ZERO_INVARIANT)).size
    seqs = {tuple(NOT_ZERO_INVARIANT.eval(2**t * n + r) for n in range(64))
            for t in range(6) for r in range(2**t)}
    assert rep.size == len(seqs)


# --- text format ------------------------------------------------------


def test_format_roundtrip(tm, bs, powers2):
    for a in (tm, bs, powers2, to_lsd(tm)):
        text = format_automaton(a)
        b = parse_automaton(text)
        assert b.base == a.base and b.order == a.order
        for n in range(512):
            assert a.eval(n) == b.eval(n)


def test_parse_rejects_partial_rows():
    with pytest.raises(ValueError):
        parse_automaton("base 2\nstate 0 output 0 : 0->0\n")


# --- counting ---------------------------------------------------------


def test_count_accepted_below(powers2, tm, eleven_free):
    for bound in (1, 2, 37, 1024, 4097):
        want = sum(1 for n in range(bound) if powers2.eval(n) == 1)
        assert count_accepted_below(powers2, bound) == want
        want_tm = sum(1 for n in range(bound) if tm.eval(n) == 1)
        assert count_accepted_below(tm, bound) == want_tm
    assert count_accepted_below(eleven_free, 4096) == \
        sum(1 for n in range(4096) if eleven_free.eval(n) == 1)


# --- randomized transform equivalence --------------------------------


@st.composite
def random_dfao(draw):
    n_states = draw(st.integers(min_value=1, max_value=5))
    base = draw(st.sampled_from([2, 3]))
    transitions = tuple(
        tuple(draw(st.integers(min_value=0, max_value=n_states - 1))
              for _ in range(base))
        for _ in range(n_states))
    outputs = tuple(draw(st.integers(min_value=0, max_value=1))
                    for _ in range(n_states))
    # force leading-zero invariance in MSD order
    rows = [list(r) for r in transitions]
    rows[0][0] = 0
    return Dfao(base, tuple(tuple(r) for r in rows), outputs, 0,
                ReadingOrder.MSD)


@given(random_dfao())
@settings(max_examples=60, deadline=None)
def test_transforms_preserve_eval(dfao):
    rev = reverse_reading(dfao)
    mini = minimize(dfao)
    b2 = base_power(dfao, 2)
    for n in range(200):
        v = dfao.eval(n)
        assert rev.eval(n) == v
        assert mini.eval(n) == v
        assert b2.eval(n) == v


@given(random_dfao())
@settings(max_examples=40, deadline=None)
def test_kernel_invariant_under_minimize(dfao):
    assert kernel(minimize(dfao)).size == kernel(dfao).size
