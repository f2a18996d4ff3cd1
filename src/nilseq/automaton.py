"""Finite base-k automata with output (DFAOs).

A DFAO computes a sequence by reading the canonical base-k word of n (no
most-significant zero; most- or least-significant digit first) and applying
an output map to the final state.  This module provides evaluation, the
breadth-first walk that every automaton search and construction is built
on, the canonical (leading-zero invariant) form behind ``to_lsd`` and
``to_msd``, exact kernel computation, reading-order reversal, base-power
change, products, minimization, builders (a prohibited-pattern acceptor is
``determinize`` keyed by the longest suffix read that is a proper prefix
of a pattern), and pumping witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from itertools import accumulate
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .digits import DigitWord, to_digits, to_digits_lsd


class BudgetExceeded(Exception):
    """A construction exceeded its state/entry cap instead of silently truncating."""


class ReadingOrder(Enum):
    MSD = "msd"
    LSD = "lsd"


@dataclass(frozen=True)
class Dfao:
    """Deterministic finite automaton with output.

    ``transitions[s][d]`` is the successor of state ``s`` on digit ``d``;
    the map is total.  ``outputs[s]`` is an arbitrary hashable symbol.
    Instances are immutable and safe to share.
    """

    base: int
    transitions: tuple[tuple[int, ...], ...]
    outputs: tuple[Hashable, ...]
    initial: int = 0
    order: ReadingOrder = ReadingOrder.MSD

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("base must be >= 2")
        n = len(self.transitions)
        if len(self.outputs) != n:
            raise ValueError("one output per state required")
        if not 0 <= self.initial < n:
            raise ValueError("initial state out of range")
        for row in self.transitions:
            if len(row) != self.base:
                raise ValueError("transition rows must cover every digit")
            for t in row:
                if not 0 <= t < n:
                    raise ValueError("transition target out of range")

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    def step(self, state: int, digit: int) -> int:
        return self.transitions[state][digit]

    def run(self, state: int, word: Iterable[int]) -> int:
        for d in word:
            state = self.transitions[state][d]
        return state

    def digits_of(self, n: int) -> tuple[int, ...]:
        if self.order is ReadingOrder.MSD:
            return to_digits(n, self.base)
        return to_digits_lsd(n, self.base)

    def eval(self, n: int) -> Hashable:
        """Output at n; n = 0 feeds the empty word (initial state's output)."""
        if n < 0:
            raise ValueError("n must be non-negative")
        return self.outputs[self.run(self.initial, self.digits_of(n))]

    def eval_word(self, word: Iterable[int]) -> Hashable:
        return self.outputs[self.run(self.initial, word)]

    def successors(self, state: int) -> Iterable[tuple[int, int]]:
        """(digit, successor) pairs of a state, digits ascending."""
        return enumerate(self.transitions[state])

    def reachable_states(self) -> list[int]:
        return sorted(reach([self.initial], self.successors))

    def is_binary(self) -> bool:
        return set(self.outputs) <= {0, 1}


# ---------------------------------------------------------------------------
# breadth-first walk


def breadth_first(links: dict, successors: Callable) -> Iterator:
    """Visit the keys of ``links`` and every key reachable from them, first
    in first out, yielding each key as it is visited; the caller may stop.

    ``successors(key)`` yields ``(digit, next_key)`` pairs, digits
    ascending.  A key met for the first time is entered in ``links`` as
    ``next_key: (key, digit)``, so ``links`` lists the keys in discovery
    order and ``word_to(links, key)`` is the least shortest word to ``key``
    (shortest, then lexicographically least).  A start's link is None, or
    ``(None, digit)`` for a start that stands for one digit read before the
    walk.
    """
    queue = list(links)
    for key in queue:  # breadth-first: the list grows while it is walked
        yield key
        for d, nxt in successors(key):
            if nxt not in links:
                links[nxt] = (key, d)
                queue.append(nxt)


def reach(starts: Iterable, successors: Callable) -> dict:
    """Links of the complete walk from ``starts``: every reachable key."""
    links = dict.fromkeys(starts)
    for _ in breadth_first(links, successors):
        pass
    return links


def word_to(links: dict, key) -> tuple[int, ...]:
    """The digits along the links from a start of the walk to ``key``."""
    word = []
    link = links[key]
    while link is not None:
        key, d = link
        word.append(d)
        link = links.get(key)
    return tuple(reversed(word))


def determinize(start, successor_row: Callable, state_budget: float = math.inf,
                what: str = "") -> tuple[list, tuple[tuple[int, ...], ...]]:
    """Keys reachable from ``start`` in discovery order, and their transition
    rows over those numbers; ``successor_row(key)`` lists the successor of
    each digit.  Meeting more than ``state_budget`` keys raises
    ``BudgetExceeded(what)``."""
    targets = []  # the rows of successor keys, one after another

    def successors(key):
        row = successor_row(key)
        targets.extend(row)
        return enumerate(row)

    links = {start: None}
    for _ in breadth_first(links, successors):
        if len(links) > state_budget:
            raise BudgetExceeded(what)
    index = dict(zip(links, range(len(links))))
    numbers = map(index.__getitem__, targets)
    base = len(targets) // len(links)
    return list(links), tuple(zip(*[numbers] * base))  # rows of base numbers


# ---------------------------------------------------------------------------
# zero invariance


def is_zero_invariant(dfao: Dfao) -> bool:
    """Exact check of leading-zero invariance in the declared order.

    MSD: the initial state and its 0-successor must be full-word equivalent
    (at once when they are the same state).  LSD: every reachable state must
    keep its output on reading 0; the reachable states are walked only when
    some state does not.
    """
    if dfao.order is ReadingOrder.LSD:
        def keeps(s: int) -> bool:
            return dfao.outputs[dfao.step(s, 0)] == dfao.outputs[s]
        return (all(map(keeps, range(dfao.n_states)))
                or all(map(keeps, dfao.reachable_states())))
    zero = dfao.step(dfao.initial, 0)
    return zero == dfao.initial or equivalent(dfao, replace(dfao, initial=zero))


def canonical(dfao: Dfao) -> Dfao:
    """A leading-zero invariant automaton with the same eval: ``dfao`` itself
    exactly when it is zero invariant, so ``canonical(d) is d`` decides it.

    MSD: a fresh initial state with a 0-loop, the old initial state's
    nonzero transitions and its output, minimized.  LSD: the same on the
    reversed automaton, reversed back.
    """
    if is_zero_invariant(dfao):
        return dfao
    if dfao.order is ReadingOrder.LSD:
        return reverse_reading(canonical(reverse_reading(dfao)))
    lead = dfao.n_states
    row = (lead,) + dfao.transitions[dfao.initial][1:]
    return minimize(Dfao(dfao.base, dfao.transitions + (row,),
                         dfao.outputs + (dfao.outputs[dfao.initial],), lead))


# ---------------------------------------------------------------------------
# minimization and equivalence


def _moore_partition(dfao: Dfao, states: Sequence[int], initial_key) -> dict[int, int]:
    """Coarsest partition refining ``initial_key`` and closed under transitions."""
    block = {s: initial_key(s) for s in states}
    ids = {}
    for s in states:
        block[s] = ids.setdefault(block[s], len(ids))
    while True:
        ids = {}
        new = {}
        for s in states:
            key = (block[s], tuple(block[dfao.step(s, d)] for d in range(dfao.base)))
            new[s] = ids.setdefault(key, len(ids))
        if len(ids) == len(set(block.values())):
            return new
        block = new


def minimize(dfao: Dfao) -> Dfao:
    """Myhill-Nerode-minimal automaton with identical eval; idempotent."""
    states = dfao.reachable_states()
    block = _moore_partition(dfao, states, lambda s: dfao.outputs[s])
    rep = {}
    for s in states:
        rep.setdefault(block[s], s)
    # blocks numbered in discovery order, the initial block first
    order, transitions = determinize(
        block[dfao.initial],
        lambda b: [block[t] for t in dfao.transitions[rep[b]]])
    assert len(order) == len(rep)
    outputs = tuple(dfao.outputs[rep[b]] for b in order)
    return Dfao(dfao.base, transitions, outputs, 0, dfao.order)


def equivalent(d1: Dfao, d2: Dfao) -> bool:
    """Exact eval-equality of two automata over the same base and order:
    outputs agree on every reachable state pair."""
    return distinguishing_word(d1, d2) is None


def distinguishing_word(d1: Dfao, d2: Dfao) -> tuple[int, ...] | None:
    """The least shortest word on which the two automata (same base and
    order) output differently, read from their initial states; None when
    they agree on every word."""
    if d1.base != d2.base or d1.order != d2.order:
        raise ValueError("base/order mismatch")

    def successors(pair):
        return enumerate(zip(d1.transitions[pair[0]], d2.transitions[pair[1]]))

    links = {(d1.initial, d2.initial): None}
    for a, b in breadth_first(links, successors):
        if d1.outputs[a] != d2.outputs[b]:
            return word_to(links, (a, b))
    return None


# ---------------------------------------------------------------------------
# reading-order reversal


def reverse_reading(dfao: Dfao, state_budget: int = 10**6) -> Dfao:
    """Opposite-reading-order automaton computing the same sequence.

    States of the result are maps S -> outputs ("what would the source
    output if started anywhere and fed the digits read so far, in source
    order"); this is the digit-reversal subset construction, followed by
    minimization.  The result reads every word as the input reads it
    reversed, so it is exact on canonical words, and zero invariant when
    the input is.
    """
    columns = tuple(zip(*dfao.transitions))  # columns[d][s] = step(s, d)
    maps, table = determinize(
        tuple(dfao.outputs),
        lambda h: [tuple(map(h.__getitem__, col)) for col in columns],
        state_budget, "reversal subset construction exceeded budget")
    out = tuple(h[dfao.initial] for h in maps)
    order = ReadingOrder.LSD if dfao.order is ReadingOrder.MSD else ReadingOrder.MSD
    rev = Dfao(dfao.base, table, out, 0, order)
    return minimize(rev)


def to_lsd(dfao: Dfao, state_budget: int = 10**6) -> Dfao:
    """The canonical LSD automaton of the sequence."""
    dfao = canonical(dfao)
    return dfao if dfao.order is ReadingOrder.LSD else reverse_reading(dfao, state_budget)


def to_msd(dfao: Dfao, state_budget: int = 10**6) -> Dfao:
    """The canonical MSD automaton of the sequence."""
    if dfao.order is ReadingOrder.LSD:
        dfao = reverse_reading(dfao, state_budget)
    return canonical(dfao)


# ---------------------------------------------------------------------------
# base power and product


def base_power(dfao: Dfao, a: int) -> Dfao:
    """Automaton over base k^a computing the same sequence: digits of the
    new base are a-blocks of the digits of ``canonical(dfao)``."""
    if a < 1:
        raise ValueError("a must be >= 1")
    dfao = canonical(dfao)
    if a == 1:
        return dfao
    k = dfao.base
    # the a-digit word of each block, in reading order, built once
    words = []
    for block_value in range(k**a):
        digits = to_digits(block_value, k)
        digits = (0,) * (a - len(digits)) + digits
        words.append(digits[::-1] if dfao.order is ReadingOrder.LSD else digits)
    transitions = tuple(tuple(dfao.run(s, word) for word in words)
                        for s in range(dfao.n_states))
    return Dfao(k**a, transitions, dfao.outputs, dfao.initial, dfao.order)


def product(dfao1: Dfao, dfao2: Dfao, combiner: Callable) -> Dfao:
    """Reachable product automaton; eval = combiner(eval1, eval2) pointwise."""
    if dfao1.base != dfao2.base or dfao1.order != dfao2.order:
        raise ValueError("base/order mismatch")
    pairs, table = determinize(
        (dfao1.initial, dfao2.initial),
        lambda p: list(zip(dfao1.transitions[p[0]], dfao2.transitions[p[1]])))
    out = tuple(combiner(dfao1.outputs[a], dfao2.outputs[b]) for a, b in pairs)
    return Dfao(dfao1.base, table, out, 0, dfao1.order)


def map_outputs(dfao: Dfao, f: Callable) -> Dfao:
    return Dfao(dfao.base, dfao.transitions, tuple(f(o) for o in dfao.outputs),
                dfao.initial, dfao.order)


# ---------------------------------------------------------------------------
# kernel


@dataclass(frozen=True)
class KernelReport:
    """Exact census of the k-kernel of the computed sequence.

    ``classes`` maps class id -> (level, residue, lsd_state) of the first
    witness; ``index_map`` maps (level, residue) -> class id for every
    residue of each level, up to the first level that would take it past
    ``map_entry_cap`` entries, and holds no later level; ``size`` is the
    number of distinct subsequences n -> a(k^t n + r).
    """

    classes: tuple[tuple[int, int, int], ...]
    index_map: dict[tuple[int, int], int]
    size: int


def kernel(dfao: Dfao, state_cap: int = 10**6, map_entry_cap: int = 4096) -> KernelReport:
    """Kernel classes by breadth-first closure over the LSD states, level by
    level.

    Level t holds the residues r < k^t in enumeration order (those of level
    t - 1 in order, each followed by digits 0..k-1) with the LSD state that
    reads r.  Every residue is kept while the level still fits in
    ``index_map`` (at most ``map_entry_cap`` entries in all); after that a
    level keeps only the first residue of each state, at most one entry per
    LSD state, so the closure costs O(depth * states * k) rather than
    O(k^depth).  Class equality is decided exactly: two pairs (t, r),
    (t', r') give the same kernel element iff the corresponding LSD states
    compute identical functions.  Never decided from sampled prefixes.
    """
    lsd = to_lsd(dfao, state_budget=state_cap)
    if lsd.n_states > state_cap:
        raise BudgetExceeded("kernel state closure exceeded cap")
    block = _moore_partition(lsd, lsd.reachable_states(), lsd.outputs.__getitem__)
    k = lsd.base

    class_ids: dict[int, int] = {}
    classes: list[tuple[int, int, int]] = []
    index_map: dict[tuple[int, int], int] = {}
    seen_states = {lsd.initial}
    # (residue, state) pairs of level t in enumeration order: every residue
    # while the level is stored in index_map, else the first residue of
    # each state.  A state's first residue has the first residue of each of
    # its successors among its own successors, so dropping the repeats
    # changes no first witness and keeps the order of the rest.
    level = [(0, lsd.initial)]
    storing = len(level) <= map_entry_cap
    t = 0
    while True:
        for r, s in level:
            cid = class_ids.setdefault(block[s], len(classes))
            if cid == len(classes):
                classes.append((t, r, s))
            if storing:
                index_map[(t, r)] = cid
        # a stored level is complete, so the next one has k times its entries
        storing = storing and len(index_map) + k * len(level) <= map_entry_cap
        nxt = []
        met = set()
        kt = k**t
        for r, s in level:
            for d in range(k):
                s2 = lsd.step(s, d)
                if storing or s2 not in met:
                    met.add(s2)
                    nxt.append((r + d * kt, s2))
        if met <= seen_states and t >= 1:
            # all reachable states met; every kernel class witnessed
            break
        seen_states |= met
        level = nxt
        t += 1
    # count classes over the full reachable set, not only the explored map
    size = len({block[s] for s in seen_states})
    assert size == len(classes)
    return KernelReport(tuple(classes), index_map, size)


# ---------------------------------------------------------------------------
# builders


def thue_morse() -> Dfao:
    """Parity of the binary digit sum."""
    return Dfao(2, ((0, 1), (1, 0)), (0, 1), 0, ReadingOrder.MSD)


def constant(base: int, value: Hashable) -> Dfao:
    return Dfao(base, ((0,) * base,), (value,), 0, ReadingOrder.MSD)


def powers_acceptor(base: int = 2) -> Dfao:
    """Acceptor of {base^l : l >= 0}; MSD form accepts 1 0^l."""
    # state 0: leading zeros; 1: saw the single leading 1; 2: dead
    transitions = (
        tuple([0] + [1] + [2] * (base - 2)),
        tuple([1] + [2] * (base - 1)),
        tuple([2] * base),
    )
    return Dfao(base, transitions, (0, 1, 0), 0, ReadingOrder.MSD)


def parity_acceptor() -> Dfao:
    """Indicator of odd n, base 2 (LSD: the first digit decides)."""
    return Dfao(2, ((1, 2), (1, 1), (2, 2)), (0, 0, 1), 0, ReadingOrder.LSD)


def from_prohibited_patterns(k: int, patterns: Iterable[Sequence[int]]) -> Dfao:
    """Indicator of n whose base-k expansion contains no prohibited factor.

    Output 1 means the expansion is free of every pattern.  The states are
    the keys ``determinize`` meets reading MSD first: ``"lead"`` before the
    first nonzero digit (so padding never creates a match), ``None`` once a
    pattern has occurred, else the longest suffix read that is a proper
    prefix of a pattern.
    """
    pats = [tuple(p) for p in patterns]
    for p in pats:
        if len(p) == 0:
            raise ValueError("patterns must be nonempty")
        for d in p:
            if not 0 <= d < k:
                raise ValueError("pattern digit out of range")
    prefixes = {()} | {p[:i] for p in pats for i in range(1, len(p))}

    def step(key, d):
        if key is None or (key == "lead" and d == 0):
            return key
        w = (() if key == "lead" else key) + (d,)
        if any(w[-len(p):] == p for p in pats):
            return None
        while w not in prefixes:
            w = w[1:]
        return w

    keys, table = determinize("lead", lambda key: [step(key, d) for d in range(k)])
    outputs = tuple(0 if key is None else 1 for key in keys)
    return minimize(Dfao(k, table, outputs, 0, ReadingOrder.MSD))


def baum_sweet() -> Dfao:
    """Indicator that every maximal 0-block between 1s in (n)_2 has even length.

    Trailing zeros after the last 1 are not between 1s and do not count.
    """
    # states: 0 leading zeros, 1 even run since last 1, 2 odd run, 3 dead
    transitions = (
        (0, 1),
        (2, 1),
        (1, 3),
        (3, 3),
    )
    return Dfao(2, transitions, (1, 1, 1, 0), 0, ReadingOrder.MSD)


# ---------------------------------------------------------------------------
# pumping


def pumping_witness(dfao: Dfao, value: Hashable, L: int = 0
                    ) -> tuple[DigitWord, DigitWord, DigitWord]:
    """Words u0, v, u1 with v nonempty and eval([u0 v^t u1]_k) = value for all t.

    The pump is a repeated state at positions L..L+N of the least shortest
    word of length at least L + N that ``canonical(dfao)`` (N states) reads
    to ``value``, searched up to length L + 3N + 2.  The triple is proved
    for every t by ``check_pumping_witness``.
    """
    dfao = canonical(dfao)
    N = dfao.n_states
    longest = L + 3 * N + 2

    def successors(key):
        s, depth = key
        return () if depth == longest else (
            (d, (t, depth + 1)) for d, t in dfao.successors(s))

    links = reach([(dfao.initial, 0)], successors)
    target = next((key for key in links
                   if key[1] >= L + N and dfao.outputs[key[0]] == value), None)
    if target is None:
        raise BudgetExceeded(
            f"no pumping witness for value {value!r} within search budget")
    word = word_to(links, target)
    path = list(accumulate(word, dfao.step, initial=dfao.initial))
    seen_at = {}
    for j in range(L, L + N + 1):  # N + 1 positions meet at most N states
        i = seen_at.setdefault(path[j], j)
        if i < j:
            break
    triple = tuple(DigitWord(dfao.base, w)
                   for w in _msd_order(dfao, word[:i], word[i:j], word[j:]))
    if not check_pumping_witness(dfao, triple, value):
        raise AssertionError(f"pumping witness {triple} fails its proof")
    return triple


def _msd_order(dfao, u0, v, u1):
    # dfao's words <-> the MSD triple: LSD reverses each word and their order
    if dfao.order is ReadingOrder.MSD:
        return u0, v, u1
    return u1[::-1], v[::-1], u0[::-1]


def check_pumping_witness(dfao: Dfao, triple, value) -> bool:
    """Whether eval([u0 v^t u1]_k) = value for every t, v nonempty.  The
    states of ``canonical(dfao)`` after u0 v^t, in its own reading order,
    cycle from their first repeat on, so the outputs after u1 at the states
    met before it decide every t."""
    dfao = canonical(dfao)
    u0, v, u1 = _msd_order(dfao, *(w.digits for w in triple))
    state, met = dfao.run(dfao.initial, u0), set()
    while v and state not in met:
        if dfao.outputs[dfao.run(state, u1)] != value:
            return False
        met.add(state)
        state = dfao.run(state, v)
    return bool(v)


# ---------------------------------------------------------------------------
# text format

_ORDER_NAMES = {"msd": ReadingOrder.MSD, "lsd": ReadingOrder.LSD}


def parse_automaton(text: str) -> Dfao:
    """Parse the line-oriented automaton format.

    Header lines ``base k``, ``order msd|lsd``, ``initial i``, then one line
    per state: ``state i output o : d0->j0 d1->j1 ...``.
    """
    base = None
    order = ReadingOrder.MSD
    initial = 0
    rows: dict[int, tuple] = {}
    outs: dict[int, Hashable] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "base":
            base = int(parts[1])
        elif parts[0] == "order":
            order = _ORDER_NAMES[parts[1]]
        elif parts[0] == "initial":
            initial = int(parts[1])
        elif parts[0] == "state":
            if base is None:
                raise ValueError("base must precede state lines")
            i = int(parts[1])
            if parts[2] != "output" or ":" not in parts:
                raise ValueError(f"malformed state line: {line}")
            o: Hashable = parts[3]
            try:
                o = int(o)
            except ValueError:
                pass
            colon = parts.index(":")
            row = {}
            for arrow in parts[colon + 1:]:
                d, j = arrow.split("->")
                row[int(d)] = int(j)
            if sorted(row) != list(range(base)):
                raise ValueError(f"state {i}: transitions must cover digits 0..{base-1}")
            rows[i] = tuple(row[d] for d in range(base))
            outs[i] = o
        else:
            raise ValueError(f"unrecognized line: {line}")
    if base is None or not rows:
        raise ValueError("empty automaton description")
    n = max(rows) + 1
    if sorted(rows) != list(range(n)):
        raise ValueError("state indices must be 0..n-1")
    return Dfao(base, tuple(rows[i] for i in range(n)),
                tuple(outs[i] for i in range(n)), initial, order)


def format_automaton(dfao: Dfao) -> str:
    lines = [f"base {dfao.base}", f"order {dfao.order.value}", f"initial {dfao.initial}"]
    for i in range(dfao.n_states):
        arrows = " ".join(f"{d}->{dfao.transitions[i][d]}" for d in range(dfao.base))
        lines.append(f"state {i} output {dfao.outputs[i]} : {arrows}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# counting


def count_accepted_below(dfao: Dfao, bound: int) -> int:
    """Exact |{0 <= n < bound : eval(n) = 1}| by digit dynamic programming."""
    if bound <= 0:
        return 0
    msd = to_msd(dfao)
    digits = to_digits(bound - 1, msd.base)  # count n <= bound-1
    if not digits:
        return 1 if msd.outputs[msd.initial] == 1 else 0
    k = msd.base
    # every n <= bound-1 as a word of len(digits) digits
    free: dict[int, int] = {}
    count = 0
    tight_state = msd.initial
    for pos, dig in enumerate(digits):
        nfree: dict[int, int] = {}
        for s, c in free.items():
            for d in range(k):
                t = msd.step(s, d)
                nfree[t] = nfree.get(t, 0) + c
        for d in range(dig):
            t = msd.step(tight_state, d)
            nfree[t] = nfree.get(t, 0) + 1
        tight_state = msd.step(tight_state, dig)
        free = nfree
    count = sum(c for s, c in free.items() if msd.outputs[s] == 1)
    if msd.outputs[tight_state] == 1:
        count += 1
    return count
