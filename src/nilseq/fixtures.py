"""Named automaton fixtures used by the demos and the acceptance gate."""

from __future__ import annotations

from .automaton import (
    Dfao,
    baum_sweet,
    constant,
    from_prohibited_patterns,
    map_outputs,
    parity_acceptor,
    powers_acceptor,
)
from .digits import to_digits
from .sparsity import decomposition_to_dfao, make_decomposition


def rank2_acceptor() -> Dfao:
    """Acceptor of {[1 0^a 1 0^b 1]_2 : a, b >= 0}."""
    decomp = make_decomposition(2, [[(1,), (0,), (1,), (0,), (1,)]])
    return decomposition_to_dfao(decomp)


def rank1_tail_acceptor() -> Dfao:
    """Acceptor of {[1 0^l 1 1]_2 : l >= 0}."""
    decomp = make_decomposition(2, [[(1,), (0,), (1, 1)]])
    return decomposition_to_dfao(decomp)


def finite_set_acceptor(values=(3, 17, 29), base: int = 2) -> Dfao:
    decomp = make_decomposition(base, [[tuple(to_digits(v, base))] for v in values])
    return decomposition_to_dfao(decomp)


def contains_101_acceptor() -> Dfao:
    return map_outputs(from_prohibited_patterns(2, [(1, 0, 1)]), lambda o: 1 - o)


def eleven_free_acceptor() -> Dfao:
    return from_prohibited_patterns(2, [(1, 1)])


def fixture_suite() -> list[tuple[str, Dfao]]:
    """Ten {0,1}-valued automata spanning both sides of the dichotomy."""
    return [
        ("powers_of_2", powers_acceptor(2)),
        ("constant_0", constant(2, 0)),
        ("constant_1", constant(2, 1)),
        ("eleven_free", eleven_free_acceptor()),
        ("baum_sweet", baum_sweet()),
        ("rank2_pattern", rank2_acceptor()),
        ("finite_set", finite_set_acceptor()),
        ("contains_101", contains_101_acceptor()),
        ("odd_numbers", parity_acceptor()),
        ("rank1_tail", rank1_tail_acceptor()),
    ]
