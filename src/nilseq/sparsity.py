"""Structure of the 1-set of a {0,1}-valued automaton.

The central dichotomy: either some strongly connected component of the
promising subgraph branches (two distinct equal-length return words exist
at a promising state, from which shifted-finite-sums witnesses are built),
or the accepted words factor through a condensation of cycles and the set
is a finite union of digit patterns w0 u1^l1 w1 ... ur^lr wr with exact,
enumerable membership.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .automaton import (
    BudgetExceeded,
    Dfao,
    ReadingOrder,
    base_power,
    breadth_first,
    canonical,
    count_accepted_below,
    determinize,
    distinguishing_word,
    minimize,
    product,
    reach,
    to_lsd,
    to_msd,
    word_to,
)
from .digits import from_digits, from_digits_lsd, to_digits, to_digits_lsd
from .exactreal import NeedsMoreBits, decide
from .ipsets import IpGenerators, IpsFamily, finite_sums, shifted_finite_sums


# ---------------------------------------------------------------------------
# promising subgraph


def promising_states(dfao: Dfao) -> frozenset[int]:
    """States from which some word reaches an output-1 state (backward closure)."""
    if not dfao.is_binary():
        raise ValueError("promising states require {0,1} outputs")
    rev: dict[int, list[tuple[int, int]]] = {s: [] for s in range(dfao.n_states)}
    for s in range(dfao.n_states):
        for d, t in dfao.successors(s):
            rev[t].append((d, s))
    accepting = [s for s in range(dfao.n_states) if dfao.outputs[s] == 1]
    return frozenset(reach(accepting, rev.__getitem__))


def _tarjan_scc(vertices: Sequence[int], succ: Callable[[int], Iterable[int]]
                ) -> dict[int, int]:
    """The strongly connected component of each vertex, named by its root."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    comp_of: dict[int, int] = {}

    for root in vertices:
        if root in index:
            continue
        work = [(root, iter(succ(root)))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ(w))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp_of[w] = v
                    if w == v:
                        break
    return comp_of


@dataclass(frozen=True)
class PromisingGraph:
    """The promising states of an LSD automaton reachable from its initial
    state, with their strongly connected components: ``intra[s]`` and
    ``bridges[s]`` list the (digit, target) edges from s to promising
    states, digits ascending, that stay in s's component and that leave it.
    """

    vertices: frozenset[int]
    intra: dict[int, tuple[tuple[int, int], ...]]
    bridges: dict[int, tuple[tuple[int, int], ...]]


def promising_graph(lsd: Dfao) -> PromisingGraph:
    """The promising states reachable from the initial state: an LSD
    automaton is not trimmed, and an unreachable state says nothing about
    the 1-set."""
    verts = promising_states(lsd) & frozenset(lsd.reachable_states())
    out = {s: [(d, t) for d, t in lsd.successors(s) if t in verts] for s in verts}
    comp_of = _tarjan_scc(sorted(verts), lambda v: (t for _, t in out[v]))
    intra = {s: tuple((d, t) for d, t in out[s] if comp_of[t] == comp_of[s])
             for s in verts}
    bridges = {s: tuple((d, t) for d, t in out[s] if comp_of[t] != comp_of[s])
               for s in verts}
    return PromisingGraph(verts, intra, bridges)


# ---------------------------------------------------------------------------
# basic patterns and decompositions


@dataclass(frozen=True)
class BasicPattern:
    """MSD digit pattern w0 u1^l1 w1 ... ur^lr wr (parts alternate, odd count).

    Members are the integers [w0 u1^l1 w1 ... ur^lr wr]_k over all
    exponent choices l_i >= 0.
    """

    base: int
    parts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.parts) % 2 != 1:
            raise ValueError("parts must alternate connector/pump, odd count")

    @property
    def rank(self) -> int:
        return (len(self.parts) - 1) // 2

    @property
    def pumps(self) -> tuple[tuple[int, ...], ...]:
        return self.parts[1::2]

    def word(self, exponents: Sequence[int]) -> tuple[int, ...]:
        out: list[int] = []
        for i, part in enumerate(self.parts):
            if i % 2 == 0:
                out.extend(part)
            else:
                out.extend(part * exponents[i // 2])
        return tuple(out)


@dataclass(frozen=True)
class VerySparseDecomposition:
    base: int
    basic_sets: tuple[BasicPattern, ...]

    @property
    def rank(self) -> int:
        return max((p.rank for p in self.basic_sets), default=0)

    def to_jsonable(self) -> dict:
        return {"base": self.base,
                "basic_sets": [[list(part) for part in p.parts]
                               for p in self.basic_sets]}


def _strip_leading_zero_words(parts: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Value-preserving cleanup: drop empty pumps, zero pumps in the leading-
    zero region, and leading zeros of the first connector."""
    parts = list(parts)
    changed = True
    while changed:
        changed = False
        # drop empty pumps
        for j in range(1, len(parts), 2):
            if len(parts[j]) == 0:
                conn = parts[j - 1] + parts[j + 1]
                parts[j - 1:j + 2] = [conn]
                changed = True
                break
        if changed:
            continue
        # drop all-zero pumps that sit before any nonzero digit
        seen_nonzero = False
        for j, part in enumerate(parts):
            if j % 2 == 1 and not seen_nonzero and part and not any(part):
                conn = parts[j - 1] + parts[j + 1]
                parts[j - 1:j + 2] = [conn]
                changed = True
                break
            if any(part):
                seen_nonzero = True
        if changed:
            continue
        # strip leading zeros of the first connector
        w0 = parts[0]
        if w0 and w0[0] == 0:
            i = 0
            while i < len(w0) and w0[i] == 0:
                i += 1
            # keep zeros only if a pump precedes a nonzero (none does: this is w0)
            parts[0] = w0[i:]
            changed = True
    return parts


def _collapse_rank(parts: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Apply the u_j = w_j = u_{j+1} collapse until none remains."""
    parts = list(parts)
    changed = True
    while changed:
        changed = False
        for j in range(1, len(parts) - 2, 2):
            u, w, u2 = parts[j], parts[j + 1], parts[j + 2]
            if u and u == w == u2:
                # u^a u u^b w_next = u^c (u w_next), c >= 0
                parts[j + 1:j + 3] = []
                parts[j + 1] = u + parts[j + 1]
                changed = True
                break
    return parts


def normalize_pattern(p: BasicPattern) -> BasicPattern:
    parts = _strip_leading_zero_words(list(p.parts))
    parts = _collapse_rank(parts)
    parts = _strip_leading_zero_words(parts)
    return BasicPattern(p.base, tuple(parts))


def make_decomposition(base: int, raw_patterns: Iterable[Sequence[Sequence[int]]]
                       ) -> VerySparseDecomposition:
    pats = []
    seen = set()
    for raw in raw_patterns:
        p = normalize_pattern(BasicPattern(base, tuple(tuple(w) for w in raw)))
        if p.parts not in seen:
            seen.add(p.parts)
            pats.append(p)
    return VerySparseDecomposition(base, tuple(pats))


def enumerate_members(decomp: VerySparseDecomposition, bound: int) -> list[int]:
    """All members < bound, exactly, by bounded digit enumeration."""
    out: set[int] = set()
    for pat in decomp.basic_sets:
        _enumerate_pattern(pat, bound, out)
    return sorted(out)


def _enumerate_pattern(pat: BasicPattern, bound: int, out: set[int]):
    if bound <= 0:
        return
    k = pat.base
    parts = pat.parts

    def min_completion(prefix: list[int], idx: int) -> int:
        digits = list(prefix)
        for j in range(idx, len(parts)):
            if j % 2 == 0:
                digits.extend(parts[j])
        return from_digits(digits, k)

    def rec(idx: int, prefix: list[int]):
        if idx == len(parts):
            v = from_digits(prefix, k)
            if v < bound:
                out.add(v)
            return
        if idx % 2 == 0:
            rec(idx + 1, prefix + list(parts[idx]))
            return
        u = list(parts[idx])
        if not u:
            rec(idx + 1, prefix)
            return
        if not any(prefix) and not any(u):
            # pumping zeros before any nonzero digit repeats the same value
            rec(idx + 1, prefix)
            return
        cur = list(prefix)
        while True:
            if min_completion(cur, idx + 1) >= bound:
                # appending more digits can only grow the value here
                if any(cur) or any(u):
                    break
            rec(idx + 1, cur)
            cur = cur + u
            if len(cur) > len(prefix) + (len(u) * (bound.bit_length() + 8)):
                break

    rec(0, [])


def window_count(decomp: VerySparseDecomposition, m0: int, n_len: int
                 ) -> tuple[int, int]:
    """Exact |members cap [m0, m0+n_len)| plus the shape-derived cap
    C * (log n_len + 1)^r it is asserted against."""
    members = enumerate_members(decomp, m0 + n_len)
    count = sum(1 for v in members if v >= m0)
    r = decomp.rank
    k = decomp.base
    a = max((len(u) for p in decomp.basic_sets for u in p.pumps if u), default=1)
    log_n = max(1, math.ceil(math.log(max(n_len, 2), k)))
    cap = len(decomp.basic_sets) * (a ** max(r, 1)) * (k + 1) * (log_n + 2) ** r
    if count > cap:
        raise AssertionError(
            f"window count {count} exceeded the shape bound {cap}")
    return count, cap


# ---------------------------------------------------------------------------
# decomposition -> value acceptor


def decomposition_to_dfao(decomp: VerySparseDecomposition,
                          state_budget: int = 10**6) -> Dfao:
    """Zero-invariant MSD acceptor of the member set (value semantics)."""
    k = decomp.base
    # epsilon-NFA over pattern positions
    eps: list[list[int]] = []
    trans: list[dict[int, list[int]]] = []
    accepting: set[int] = set()

    def new_state() -> int:
        eps.append([])
        trans.append({})
        return len(eps) - 1

    starts = []
    for pat in decomp.basic_sets:
        cur = new_state()
        starts.append(cur)
        for idx, part in enumerate(pat.parts):
            if idx % 2 == 0:
                for d in part:
                    nxt = new_state()
                    trans[cur].setdefault(d, []).append(nxt)
                    cur = nxt
            elif part:
                # a fresh loop state, so pumps with an empty connector between
                # them do not share a loop and interleave
                loop = new_state()
                eps[cur].append(loop)
                inner = loop
                for d in part[:-1]:
                    nxt = new_state()
                    trans[inner].setdefault(d, []).append(nxt)
                    inner = nxt
                # closing the loop
                trans[inner].setdefault(part[-1], []).append(loop)
                cur = loop
        accepting.add(cur)

    def eps_closure(states: Iterable[int]) -> frozenset[int]:
        return frozenset(reach(states, lambda s: enumerate(eps[s])))

    init = eps_closure(starts)
    # leading-zero semantics: accept 0^j x whenever some 0^i x is a pattern
    # word, so the closure follows the 0-edges and the epsilon edges
    zclosure = reach(init, lambda s: ((0, t) for t in
                                      (*eps[s], *trans[s].get(0, ()))))
    pad = new_state()  # absorbs leading zeros
    trans[pad][0] = [pad]
    eps[pad].extend(sorted(zclosure))

    def successor_row(cur: frozenset[int]) -> list[frozenset[int]]:
        return [eps_closure({t for s in cur for t in trans[s].get(d, ())})
                for d in range(k)]

    subsets, table = determinize(eps_closure([pad]), successor_row, state_budget,
                                 "value-acceptor subset construction")
    outputs = tuple(1 if cur & accepting else 0 for cur in subsets)
    return minimize(Dfao(k, table, outputs, 0, ReadingOrder.MSD))


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class BranchWitness:
    """A promising state with two distinct equal-length return words."""

    state: int
    v1: tuple[int, ...]
    v2: tuple[int, ...]


@dataclass
class Classification:
    variant: str  # "very_sparse" | "condition_i"
    lsd: Dfao
    decomposition: Optional[VerySparseDecomposition] = None
    witness: Optional[BranchWitness] = None

    @property
    def is_very_sparse(self) -> bool:
        return self.variant == "very_sparse"


def classify(dfao: Dfao, state_budget: int = 10**6) -> Classification:
    """The structure dichotomy for the set {n : eval(n) = 1}.

    Reported branch condition: some SCC of the promising subgraph contains
    a vertex with >= 2 outgoing edges staying in its SCC; the two distinct
    cycles there yield the equal-length return words v1 = c1^{|c2|},
    v2 = c2^{|c1|}.  Otherwise every component is a cycle or trivial and the
    condensation-path enumeration emits the digit-pattern decomposition.
    """
    if not dfao.is_binary():
        raise ValueError("classification requires a {0,1} output alphabet")
    lsd = to_lsd(dfao, state_budget)
    graph = promising_graph(lsd)
    for s in sorted(graph.vertices):
        if len(graph.intra[s]) >= 2:
            (d1, t1), (d2, t2) = graph.intra[s][:2]
            c1 = (d1,) + word_to(reach([t1], graph.intra.__getitem__), s)
            c2 = (d2,) + word_to(reach([t2], graph.intra.__getitem__), s)
            v1 = c1 * len(c2)
            v2 = c2 * len(c1)
            assert len(v1) == len(v2) and v1 != v2
            assert lsd.run(s, v1) == s and lsd.run(s, v2) == s
            return Classification("condition_i", lsd,
                                  witness=BranchWitness(s, v1, v2))
    decomposition = _enumerate_condensation_paths(lsd, graph)
    return Classification("very_sparse", lsd, decomposition=decomposition)


def _enumerate_condensation_paths(lsd: Dfao, graph: PromisingGraph
                                  ) -> VerySparseDecomposition:
    k = lsd.base
    if lsd.initial not in graph.vertices:
        return VerySparseDecomposition(k, ())
    raw_patterns: list[list[tuple[int, ...]]] = []

    def comp_paths(entry: int):
        """(word_to_x, pump_at_x, x) choices inside the component of entry:
        a trivial one, or a cycle (one intra edge per vertex)."""
        if not graph.intra[entry]:
            yield ((), None, entry)
            return
        word: list[int] = []
        cycle = []
        v = entry
        while not cycle or v != entry:
            cycle.append(v)
            (d, v), = graph.intra[v]
            word.append(d)
        for i, x in enumerate(cycle):
            # the pump at x is the cycle word rotated to start at x
            yield (tuple(word[:i]), tuple(word[i:] + word[:i]), x)

    def rec(entry: int, acc: list):
        # acc: alternating [conn, pump, conn, pump, ...] starting with conn
        for word_to_x, pump, x in comp_paths(entry):
            # finalize here if x accepts
            if lsd.outputs[x] == 1:
                pattern = acc[:-1] + [acc[-1] + list(word_to_x)]
                if pump is not None:
                    pattern = pattern + [list(pump), []]
                raw_patterns.append([tuple(p) for p in pattern])
            for d, t in graph.bridges[x]:
                new_acc = acc[:-1] + [acc[-1] + list(word_to_x)]
                if pump is not None:
                    new_acc = new_acc + [list(pump)]
                else:
                    new_acc = new_acc + [[]]
                new_acc = new_acc + [[d]]
                rec(t, new_acc)

    rec(lsd.initial, [[]])

    # convert LSD patterns (alternating conn/pump/.../conn) to MSD basic sets
    msd_raw = []
    for pat in raw_patterns:
        rev = [tuple(reversed(part)) for part in reversed(pat)]
        msd_raw.append(rev)
    return make_decomposition(k, msd_raw)


def very_sparse_decomposition(dfao: Dfao) -> VerySparseDecomposition:
    cls = classify(dfao)
    if not cls.is_very_sparse:
        raise ValueError("automaton is on the branching side of the dichotomy")
    return cls.decomposition


# ---------------------------------------------------------------------------
# shifted-finite-sums witnesses


@dataclass
class IpsWitness:
    """Levels, residues, and the derived shifted-finite-sums family.

    Identities a(k^l n + p) = a(k^m n + r1) = a(k^m n + r2) hold for all n;
    members N_t + n_alpha realize iterated applications of the two digit
    substitutions and all lie inside the 1-set.  ``prove_ips`` proves both
    claims, for every n and at every depth, on the states of an LSD
    automaton; ``verify_ips`` only replays them on a sequence, the
    identities for n <= ``verified_horizon`` and the members up to a depth.
    """

    base: int
    l: int
    m: int
    p: int
    r1: int
    r2: int
    n0: int
    generators: tuple[int, ...]
    shifts: tuple[int, ...]
    verified_depth: int
    verified_horizon: int

    def members(self, depth: int) -> list[tuple[int, tuple[int, ...], int]]:
        fam = IpsFamily(IpGenerators(self.generators[:depth]),
                        self.shifts[:depth])
        return shifted_finite_sums(fam, depth)


def ips_witness(dfao: Dfao, horizon: int = 10**5, depth: int = 10) -> IpsWitness:
    """Convert a branching classification into explicit (l, m, p, r1, r2)
    data plus ``depth`` generators and shifts, every claim proved for all n
    and at every depth by ``prove_ips`` on the states of the classification's
    LSD automaton.  Nothing is evaluated: ``horizon`` is only recorded, as
    the horizon up to which ``verify_ips`` replays the identities."""
    cls = classify(dfao)
    if cls.is_very_sparse:
        raise ValueError("ips witness requires the branching classification")
    lsd, wit = cls.lsd, cls.witness
    k = lsd.base
    from_initial = reach([lsd.initial], lsd.successors)
    if wit.state not in from_initial:
        raise AssertionError("witness state unreachable; classification bug")
    entry = word_to(from_initial, wit.state)
    l = len(entry)
    m = l + len(wit.v1)
    p = from_digits_lsd(entry, k)
    s1, s2 = sorted((from_digits_lsd(wit.v1, k), from_digits_lsd(wit.v2, k)))
    r1 = p + k**l * s1
    r2 = p + k**l * s2
    # n0 from the shortest word to an accepting state, the lowest on ties
    from_state = reach([wit.state], lsd.successors)
    accept_words = [word_to(from_state, t) for t in sorted(from_state)
                    if lsd.outputs[t] == 1]
    if not accept_words:
        raise AssertionError("promising witness state cannot accept")
    n0 = from_digits_lsd(min(accept_words, key=len), k)
    witness = IpsWitness(k, l, m, p, r1, r2, n0,
                         *_ips_family(k, l, m, p, r1, r2, n0, depth),
                         depth, horizon)
    prove_ips(witness, lsd)
    return witness


def _ips_family(k: int, l: int, m: int, p: int, r1: int, r2: int, n0: int,
                depth: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The first ``depth`` generators and shifts of the members whose LSD
    words are the l-digit word of p, t blocks of d = m - l digits each the
    word of s1 = (r1 - p) / k^l or of s2 = (r2 - p) / k^l, and the word of
    n0: shift N_t has every block s1, generator i turns block i into s2."""
    d = m - l
    s1, s2 = (r1 - p) // k**l, (r2 - p) // k**l
    gens = tuple(k**l * (s2 - s1) * k**((i - 1) * d) for i in range(1, depth + 1))
    shifts = tuple(k**l * (k**(t * d) * n0 + s1 * ((k**(t * d) - 1) // (k**d - 1))) + p
                   for t in range(1, depth + 1))
    return gens, shifts


def _lsd_word(n: int, k: int, length: int) -> tuple[int, ...]:
    """The LSD word of 0 <= n < k^length, padded with zeros to ``length``."""
    word = to_digits_lsd(n, k)
    return word + (0,) * (length - len(word))


def _identity_break(lsd: Dfao, here: int, there: int) -> Optional[int]:
    """The least n of fewest digits whose LSD word leads the states ``here``
    and ``there`` of the canonical automaton ``lsd`` to different outputs,
    None when there is none.  Reading 0 keeps every output, so the least
    shortest distinguishing word never ends in 0: it is the word of n."""
    word = distinguishing_word(replace(lsd, initial=here),
                               replace(lsd, initial=there))
    return None if word is None else from_digits_lsd(word, lsd.base)


def prove_ips(w: IpsWitness, lsd: Dfao):
    """Prove the claims of ``w`` for all n and at every depth on the states
    of ``canonical(lsd)``, an LSD automaton, evaluating nothing.

    The LSD word of k^l n + p is the l-digit word of p, then the word of n
    (k^m n + r likewise), so the identities hold iff the runs of those
    words of p, r1 and r2 end in states that agree after every word.
    Member N_t + n_alpha is k^m n' + r1 or k^m n' + r2 for a member n' of
    depth t - 1 (n0 at depth 0), so the identities, n0 and the family's
    shape prove every member.  Raises ValueError on another order or base,
    or residues that do not extend p; AssertionError at the first failed
    claim, naming for an identity an n of fewest digits that breaks it.
    """
    k, l, m = w.base, w.l, w.m
    if lsd.order is not ReadingOrder.LSD or lsd.base != k:
        raise ValueError("a state proof needs an LSD automaton of the witness's base")
    if not (0 <= l < m and 0 <= w.p < k**l
            and all(0 <= r < k**m and r % k**l == w.p for r in (w.r1, w.r2))):
        raise ValueError("residues r1 and r2 do not extend p")
    lsd = canonical(lsd)
    here = lsd.run(lsd.initial, _lsd_word(w.p, k, l))
    for r in (w.r1, w.r2):
        n = _identity_break(lsd, here, lsd.run(lsd.initial, _lsd_word(r, k, m)))
        if n is not None:
            raise AssertionError(f"ips identity failed at n={n}")
    if lsd.eval_word(to_digits_lsd(k**l * w.n0 + w.p, k)) != 1:
        raise AssertionError("n0 does not witness membership")
    family = _ips_family(k, l, m, w.p, w.r1, w.r2, w.n0, len(w.generators))
    if (w.generators, w.shifts) != family:
        raise AssertionError("generators and shifts are not the family of "
                             "(l, m, p, r1, r2, n0)")


def verify_ips(w: IpsWitness, a: Callable[[int], int], depth: int):
    """Replay the claims of ``w`` on the sequence ``a``, a check independent
    of any automaton's states: the identities for n <= verified_horizon,
    n0, and the shifted finite sums up to ``depth``; raises AssertionError
    at the first that fails."""
    k = w.base
    for n in range(w.verified_horizon + 1):
        v0 = a(k**w.l * n + w.p)
        if a(k**w.m * n + w.r1) != v0 or a(k**w.m * n + w.r2) != v0:
            raise AssertionError(f"ips identity failed at n={n}")
    if a(k**w.l * w.n0 + w.p) != 1:
        raise AssertionError("n0 does not witness membership")
    for _, _, value in w.members(depth):
        if a(value) != 1:
            raise AssertionError(f"shifted finite sum {value} not a member")


# ---------------------------------------------------------------------------
# growth census


@dataclass
class GrowthReport:
    """Exact counts nu(N) = |{n < N : eval(n) = 1}| on a grid, and the
    growth of nu read off ``classify``: ("poly_log", r) for a very sparse
    set, r the rank of its decomposition, so nu(N) = Theta((log N)^r); else
    ("power_law", log_k rho), rho the largest spectral radius of a promising
    component, so nu(N) = N^(log_k rho + o(1))."""

    samples: list[tuple[int, int]]
    regime: tuple


def _spectral_radius(out: Sequence[Sequence[int]]) -> float:
    """The spectral radius of the adjacency matrix A of a strongly connected
    graph, ``out[i]`` listing the heads of the edges from i.

    B = A + I is primitive, so for every positive x the Collatz-Wielandt
    bounds min_i (Bx)_i / x_i <= rho(B) <= max_i (Bx)_i / x_i hold, and power
    iteration x <- Bx closes them, slowest on a long cycle, whose
    eigenvalues all lie near the circle of radius rho.  Each rung of the
    ladder keeps x in integers rescaled to ``bits`` bits and reads the
    bounds after each run of ``bits`` steps, one run per vertex at most,
    until they agree to 2^-60 relative; ``PrecisionExhausted`` at the
    ceiling."""
    def apply(x: list[int]) -> list[int]:
        return [xi + sum(x[j] for j in row) for xi, row in zip(x, out)]

    def attempt(bits: int) -> float:
        x = [1] * len(out)
        for _ in out:
            for _ in range(bits):
                y = apply(x)
                shift = max(max(y).bit_length() - bits, 0)
                x = [max(v >> shift, 1) for v in y]
            ratios = [Fraction(b, xi) for b, xi in zip(apply(x), x)]
            lo, hi = min(ratios), max(ratios)
            if (hi - lo) * 2**60 <= lo:
                return float((lo + hi) / 2 - 1)
        raise NeedsMoreBits("spectral radius unresolved")

    return decide(attempt)


def growth_census(dfao: Dfao, n_grid: Sequence[int]) -> GrowthReport:
    """The exact counts nu(N) for N in the grid, and the regime of nu
    decided by ``classify``; see ``GrowthReport``."""
    cls = classify(dfao)
    msd = to_msd(dfao)
    samples = [(n, count_accepted_below(msd, n)) for n in n_grid]
    if cls.is_very_sparse:
        return GrowthReport(samples, ("poly_log", cls.decomposition.rank))
    graph = promising_graph(cls.lsd)
    rho, seen = 0.0, set()
    for s in sorted(graph.vertices):
        if s not in seen:
            comp = list(reach([s], graph.intra.__getitem__))
            seen.update(comp)
            index = {v: i for i, v in enumerate(comp)}
            rho = max(rho, _spectral_radius(
                [[index[t] for _, t in graph.intra[v]] for v in comp]))
    return GrowthReport(samples, ("power_law", math.log(rho, cls.lsd.base)))


# ---------------------------------------------------------------------------
# factor universality and shifted IP witnesses


@dataclass
class FactorUniversality:
    universal: bool
    missing_factor: Optional[tuple[int, ...]]


def factor_universality(dfao: Dfao, subset_budget: int = 1 << 20) -> bool:
    return factor_universality_report(dfao, subset_budget).universal


def factor_universality_report(dfao: Dfao, subset_budget: int = 1 << 20
                               ) -> FactorUniversality:
    """Decide whether every digit word occurs as a factor of the canonical
    expansion of some accepted n, by subset tracking of possible factor
    positions (determinized factor closure + emptiness of the complement)."""
    msd = to_msd(dfao)
    if not msd.is_binary():
        raise ValueError("factor universality requires {0,1} outputs")
    promising = promising_states(msd)
    k = msd.base
    # states reachable via a nonempty canonical prefix (first digit nonzero)
    bare = frozenset(reach([msd.step(msd.initial, d) for d in range(1, k)],
                           msd.successors))
    full = bare | {msd.initial}
    if not full & promising:
        return FactorUniversality(False, ())

    def image(subset: frozenset[int], d: int) -> frozenset[int]:
        return frozenset(msd.step(s, d) for s in subset)

    def successors(subset: frozenset[int]):
        return ((d, image(subset, d)) for d in range(k))

    # each start subset stands for the first digit of the factor
    links: dict = {}
    for d in range(k):
        links.setdefault(image(full if d != 0 else bare, d), (None, d))
    for cur in breadth_first(links, successors):
        if not cur & promising:
            return FactorUniversality(False, word_to(links, cur))
        if len(links) > subset_budget:
            raise BudgetExceeded("factor-closure subset construction")
    return FactorUniversality(True, None)


@dataclass
class IpPlusWitness:
    """Shift N and generators m * k^(l(i-1)+h) realizing a shifted sums family:
    N plus every finite sum of the generators, at every depth, is a member.
    ``prove_ip_plus`` proves that on the states of an LSD automaton;
    ``verify_ip_plus`` only replays it on a sequence up to a depth."""

    base: int
    shift: int
    m_value: int
    l: int
    h: int
    state: int
    state_prime: int
    generators: tuple[int, ...]
    verified_depth: int


def ip_plus_witness(dfao: Dfao, depth: int = 10) -> IpPlusWitness:
    """States s, s' and words u = 0^l, v with the four-arrow diagram
    (s -u-> s', s -v-> s, s' -u-> s', s' -v-> s), turned into a shift and
    geometric generators; that every finite sum + shift is a member, at
    every depth, is proved by ``prove_ip_plus`` on the states of
    ``to_lsd(dfao)``, evaluating nothing."""
    report = factor_universality_report(dfao)
    if not report.universal:
        raise ValueError(
            f"hypothesis fails: word {report.missing_factor} is never a factor")
    lsd = to_lsd(dfao)
    k = lsd.base
    from_initial = reach([lsd.initial], lsd.successors)
    reachable = sorted(from_initial)
    stages = []
    for s in reachable:
        if lsd.outputs[s] != 1:
            continue
        # rho shape of the 0-chain from s
        chain = list(reach([s], lambda x: [(0, lsd.step(x, 0))]))
        tail = chain.index(lsd.step(chain[-1], 0))
        cycle = len(chain) - tail
        p_steps = cycle * max(1, -(-max(tail, 1) // cycle))  # lcm-ish multiple >= tail
        s_prime = chain[tail + ((p_steps - tail) % cycle)]
        # shortest word from s' back to s whose final digit is nonzero
        from_prime = reach([s_prime], lsd.successors)
        w = min((word_to(from_prime, x) + (d,) for x in reachable
                 if x in from_prime for d in range(1, k) if lsd.step(x, d) == s),
                key=len, default=None)
        if w is None:
            stages.append((s, "no return word with nonzero final digit"))
            continue
        v = ((0,) * p_steps + w) * p_steps
        l = p_steps * (p_steps + len(w))
        u = (0,) * l
        if not (lsd.run(s, u) == s_prime and lsd.run(s, v) == s
                and lsd.run(s_prime, u) == s_prime and lsd.run(s_prime, v) == s):
            stages.append((s, "diagram check failed"))
            continue
        m_value = from_digits_lsd(v, k)
        entry = _entry_word(lsd, from_initial, s)
        if entry is None:
            stages.append((s, "no canonical entry word"))
            continue
        n0 = from_digits_lsd(entry, k)
        h = len(to_digits(n0, k))
        witness = IpPlusWitness(k, n0, m_value, l, h, s, s_prime,
                                _ip_plus_generators(k, m_value, l, h, depth), depth)
        prove_ip_plus(witness, lsd)
        return witness
    raise BudgetExceeded(f"diagram search exhausted; stages: {stages}")


def _entry_word(lsd: Dfao, from_initial: dict, target: int
                ) -> Optional[tuple[int, ...]]:
    """Least shortest canonical LSD word from the initial state to target:
    empty, or ending in a nonzero digit.  ``from_initial`` holds the links of
    the walk from the initial state; the word is the least shortest word to
    a predecessor x followed by a digit d != 0, so its length is at most the
    number of states."""
    if target == lsd.initial:
        return ()
    words = [word_to(from_initial, x) + (d,) for x in from_initial
             for d in range(1, lsd.base) if lsd.step(x, d) == target]
    return min(words, key=lambda w: (len(w), w), default=None)


def _ip_plus_generators(k: int, m: int, l: int, h: int, depth: int
                        ) -> tuple[int, ...]:
    """The first ``depth`` generators m k^(l(i-1)+h)."""
    return tuple(m * k**(l * (i - 1) + h) for i in range(1, depth + 1))


def prove_ip_plus(w: IpPlusWitness, lsd: Dfao):
    """Prove that shift N plus every finite sum of the generators
    m k^(l(i-1)+h) is a member, at every depth, on the states of
    ``canonical(lsd)``, an LSD automaton, evaluating nothing.

    If generator t is the largest in the sum, the sum's LSD word is the
    h-digit word of N, blocks x_1 ... x_(t-1) (the l-digit word v of m
    where generator i is in the sum, u = 0^l elsewhere) and the word of m.
    So the claim holds iff every state that u and v reach from N's state
    goes to output 1 on the word of m; for the diagram of
    ``ip_plus_witness`` those states are s and s'.  Raises ValueError on
    another order or base, or a shift or m longer than its digit count;
    AssertionError naming a non-member of fewest blocks.
    """
    k, l, h = w.base, w.l, w.h
    if lsd.order is not ReadingOrder.LSD or lsd.base != k:
        raise ValueError("a state proof needs an LSD automaton of the witness's base")
    if not (0 <= w.shift < k**h and 0 < w.m_value < k**l):
        raise ValueError("shift or m exceeds its digit count")
    lsd = canonical(lsd)
    if w.generators != _ip_plus_generators(k, w.m_value, l, h, len(w.generators)):
        raise AssertionError("generators are not m k^(l(i-1)+h)")
    blocks = ((0,) * l, _lsd_word(w.m_value, k, l))
    links = reach([lsd.run(lsd.initial, _lsd_word(w.shift, k, h))],
                  lambda x: ((j, lsd.run(x, b)) for j, b in enumerate(blocks)))
    last = to_digits_lsd(w.m_value, k)
    for x in links:
        if lsd.outputs[lsd.run(x, last)] != 1:
            chosen = word_to(links, x) + (1,)
            gens = _ip_plus_generators(k, w.m_value, l, h, len(chosen))
            value = w.shift + sum(g for g, j in zip(gens, chosen) if j)
            raise AssertionError(f"shifted sum {value} not a member")


def verify_ip_plus(w: IpPlusWitness, a: Callable[[int], int], depth: int):
    """Replay the claim of ``w`` on the sequence ``a``, a check independent
    of any automaton's states: the shift plus every finite sum of the first
    ``depth`` generators; raises AssertionError at the first non-member."""
    for v in finite_sums(IpGenerators(w.generators[:depth]), depth):
        if a(v + w.shift) != 1:
            raise AssertionError(f"shifted sum {v + w.shift} not a member")


# ---------------------------------------------------------------------------
# arithmetic-progression normal form


@dataclass
class NormalForm:
    base: int
    block_base: int
    modulus: int
    residue: int
    suffix: tuple[int, ...]           # u in block-base digits
    branches: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]  # (v_i, w)

    def decomposition(self) -> VerySparseDecomposition:
        pats = [BasicPattern(self.block_base, (v, w, self.suffix))
                for v, w in self.branches]
        return VerySparseDecomposition(self.block_base, tuple(pats))


def normalize_arith_progression(decomp: VerySparseDecomposition,
                                verify_bound: int = 1 << 40) -> NormalForm:
    """Common-pump normal form of the members on one arithmetic progression,
    proved for all n by ``prove_normal_form``.

    With M the lcm of the pump lengths, the member set is K-automatic for
    K = k^M (Allouche-Shallit, *Automatic Sequences*, 6.6), so
    ``classify(base_power(decomposition_to_dfao(decomp), M))`` gives both
    its LSD value acceptor in base K and its block-base digit patterns.
    Every promising cycle of that acceptor is conjugate to a pump, so its
    length divides M and in base K it is a self-loop; this survives the
    product with the progression's acceptor.  The suffix is
    u = u1 w1 ... ur wr, read off the highest-rank block pattern
    w0 u1 w1 ... ur wr (the first on ties).  Reading u LSD-first follows
    that pattern's own path and stops on the self-loop state of its top
    pump, with digit d; another cycle past that state would give a pattern
    of higher rank.  So every member on K^|u| Z + [u]_K is [v d^l u]_K for
    v in a finite set: one attempt suffices, each pattern (v, (d,), u) of
    the intersection is the branch (v, (d,)), and the only rank-0 pattern
    is [u] itself (d = 0), kept last as the branch ((), (0,)).  The proof
    walk is the one check: a shape this argument missed fails there with
    an n that really differs.

    ``verify_bound`` is ignored; it stays for callers that still pass it.
    """
    if not decomp.basic_sets:
        raise ValueError("finite (empty) set has no progression normal form")
    pump_lengths = [len(u) for p in decomp.basic_sets for u in p.pumps if u]
    if not pump_lengths:
        raise ValueError("finite set input: no pumps to normalize")
    big_m = math.lcm(*pump_lengths)
    big_k = decomp.base**big_m
    cls = classify(base_power(decomposition_to_dfao(decomp), big_m))
    best = max(cls.decomposition.basic_sets, key=lambda p: p.rank)
    u = best.word([1] * best.rank)[len(best.parts[0]):]
    patterns = classify(_on_progression(cls.lsd, u)).decomposition.basic_sets
    branches = [pat.parts[:2] for pat in patterns if pat.rank]
    if len(branches) < len(patterns):
        branches.append(((), (0,)))
    nf = NormalForm(base=decomp.base, block_base=big_k, modulus=big_k**len(u),
                    residue=from_digits(u, big_k), suffix=u,
                    branches=tuple(branches))
    prove_normal_form(nf, cls.lsd)
    return nf


def _on_progression(lsd: Dfao, suffix: tuple[int, ...]) -> Dfao:
    """``lsd`` cut with the LSD acceptor of the values congruent to
    [suffix] mod base^len(suffix).  That acceptor is leading-zero invariant,
    so the product is whenever ``lsd`` is."""
    u = suffix[::-1]
    n, dead = len(u), len(u) + 1
    # state i < n: the first i digits of u read; n: all of u; dead: a mismatch
    table = [tuple(i + 1 if d == u[i] else dead for d in range(lsd.base))
             for i in range(n)] + [(n,) * lsd.base, (dead,) * lsd.base]
    outs = tuple(int(not any(u[i:])) for i in range(n)) + (1, 0)
    progression = Dfao(lsd.base, tuple(table), outs, 0, ReadingOrder.LSD)
    return product(lsd, progression, lambda a, b: a * b)


def prove_normal_form(nf: NormalForm, lsd: Dfao):
    """Prove for all n that ``nf`` lists exactly the members on its
    progression of the set that ``canonical(lsd)`` accepts, ``lsd`` an LSD
    automaton in base ``nf.block_base``, evaluating nothing.

    One equivalence walk between the canonical LSD automaton of
    ``nf.decomposition()`` and ``lsd`` cut with the progression.  Both are
    leading-zero invariant, so the least shortest distinguishing word never
    ends in 0: it is the word of an n in one set and not in the other.
    Raises ValueError on another order or base, or a progression that is
    not the suffix's residue class; AssertionError naming that n.
    """
    big_k = nf.block_base
    if lsd.order is not ReadingOrder.LSD or lsd.base != big_k:
        raise ValueError("a state proof needs an LSD automaton of the block base")
    if (nf.modulus, nf.residue) != (big_k**len(nf.suffix),
                                    from_digits(nf.suffix, big_k)):
        raise ValueError("the progression is not the residue class of the suffix")
    word = distinguishing_word(to_lsd(decomposition_to_dfao(nf.decomposition())),
                               _on_progression(canonical(lsd), nf.suffix))
    if word is not None:
        raise AssertionError(
            f"normal form differs at n={from_digits_lsd(word, big_k)}")


# ---------------------------------------------------------------------------
# the reduction pipeline to powers of the base


@dataclass
class ReductionStage:
    name: str
    description: str
    sample: list[int]
    ok: bool


@dataclass
class PowersReductionReport:
    stages: list[ReductionStage]
    final_base: int

    @property
    def ok(self) -> bool:
        return all(st.ok for st in self.stages)


def _geometric_below(starts: Iterable[int], ratio: int, bound: int) -> set[int]:
    """Every c * ratio^j below bound, for c in starts."""
    out = set()
    for c in starts:
        while c < bound:
            out.add(c)
            c *= ratio
    return out


def powers_reduction_demo(decomp: VerySparseDecomposition,
                          horizon: int = 1 << 40) -> PowersReductionReport:
    """Mechanically replay the set transformations that reduce an infinite
    digit-pattern set to the powers of a base: restrict to a progression
    (common-pump normal form), pull the branches back through the affine
    member map to coefficient-times-power sets, divide by the first
    coefficient, and cut with one more progression, landing on {K^(2l)}.

    The normal form itself is proved for all n; every stage, the first
    included, is replayed by enumeration up to the horizon, and nothing
    else is proven here.
    """
    stages: list[ReductionStage] = []
    nf = normalize_arith_progression(decomp)
    k0 = nf.block_base
    a_members = [v for v in enumerate_members(decomp, horizon)
                 if v % nf.modulus == nf.residue]
    stages.append(ReductionStage(
        "A_cap_progression",
        f"input members meeting {nf.modulus} Z + {nf.residue}",
        a_members[:8],
        set(a_members) == set(enumerate_members(nf.decomposition(), horizon))))

    u_val = from_digits(nf.suffix, k0)
    # branches whose member family actually grows (a constant branch would
    # have an all-zero pump behind an empty prefix; it stays behind as the
    # single member [u])
    branches = [(v, w) for v, w in nf.branches
                if any(w) or from_digits(v, k0) > 0]
    skipped = len(nf.branches) - len(branches)
    if not branches:
        raise ValueError("no growing branch to reduce")
    s_len = len(nf.suffix)
    t_len = len(branches[0][1])
    w_val = from_digits(branches[0][1], k0)
    coeffs = [w_val + (k0**t_len - 1) * from_digits(v, k0) for v, w in branches]

    # phi(x) = k0^s (x - [w])/(k0^t - 1) + [u] sends b_i k0^{t l} to the
    # branch member with exponent l; stage B pulls A back through phi
    b_set = set()
    pulled_ok = True
    for m in a_members:
        if skipped and m == u_val:
            continue
        num = (m - u_val) * (k0**t_len - 1)
        if num % k0**s_len:
            pulled_ok = False
            break
        b_set.add(num // k0**s_len + w_val)
    want_b = _geometric_below(coeffs, k0**t_len, max(b_set, default=0) + 1)
    stages.append(ReductionStage(
        "B_coefficient_powers", "pullback {b_i k^(t l)}",
        sorted(b_set)[:8], pulled_ok and b_set == want_b))

    # stage C: n such that b_1 n lands in B; the first coefficient becomes 1
    b1 = coeffs[0]
    c_set = {x // b1 for x in b_set if x % b1 == 0}
    c_coeffs = set()
    for b in coeffs:
        scaled = b
        for _ in range(64):
            if scaled % b1 == 0:
                c_coeffs.add(scaled // b1)
                break
            scaled *= k0**t_len
    c_bound = max(c_set, default=0) + 1
    want_c = _geometric_below(c_coeffs, k0**t_len, c_bound)
    stages.append(ReductionStage(
        "C_unit_leading", "divide by the first coefficient; c_1 = 1",
        sorted(c_set)[:8], 1 in c_coeffs and c_set == want_c))

    # stage D: enlarge the base so all coefficients sit below K^2, then keep
    # n = 1 mod (K^2 - 1); only the pure even powers of K survive
    m_exp = 1
    while any(c >= k0**(t_len * m_exp) for c in c_coeffs):
        m_exp += 1
    big_k = k0**(t_len * m_exp)
    modulus = big_k * big_k - 1
    d_set = {x for x in c_set if x % modulus == 1 % modulus}
    want_d = _geometric_below([1], big_k * big_k, c_bound) & c_set
    stages.append(ReductionStage(
        "D_pure_powers", f"cut with 1 mod {big_k}^2 - 1: exactly the K^(2l)",
        sorted(d_set)[:8], d_set == want_d and bool(d_set)))
    return PowersReductionReport(stages, big_k)
