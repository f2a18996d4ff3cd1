"""Generalised-polynomial expressions and their rigorous evaluation.

Expression trees are built from constants, the variable, addition,
multiplication, and the integer part.  Nearest-integer, fractional-part,
distance-to-nearest-integer, and ceiling are derived forms normalized to
that primitive basis at construction time.

Evaluation is hybrid: subtrees whose constants stay inside one exact field
(rationals, quadratic surds and their sums, one cubic field) are computed
exactly, so their floors are decided with no precision ladder; anything
else falls back to interval enclosures whose working precision doubles
until every floor resolves or the ceiling of the policy is hit, in which
case ``PrecisionExhausted`` is raised -- never a silent rounding.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .automaton import count_accepted_below
from .exactreal import (
    Exact,
    ExactReal,
    IntervalValue,
    PrecisionPolicy,
    decide,
    exact_enclosure,
    exact_is_integer,
    to_interval,
    value_add,
    value_floor,
    value_frac,
    value_mul,
    value_sign,
)


# ---------------------------------------------------------------------------
# expression nodes


class GpExpr:
    def __add__(self, other):
        return gp_add(self, _as_expr(other))

    def __radd__(self, other):
        return gp_add(_as_expr(other), self)

    def __mul__(self, other):
        return gp_mul(self, _as_expr(other))

    def __rmul__(self, other):
        return gp_mul(_as_expr(other), self)

    def __sub__(self, other):
        return gp_add(self, gp_neg(_as_expr(other)))

    def __rsub__(self, other):
        return gp_add(_as_expr(other), gp_neg(self))

    def __neg__(self):
        return gp_neg(self)


@dataclass(frozen=True, eq=False)
class Const(GpExpr):
    value: ExactReal


@dataclass(frozen=True, eq=False)
class Var(GpExpr):
    pass


@dataclass(frozen=True, eq=False)
class Add(GpExpr):
    terms: tuple[GpExpr, ...]


@dataclass(frozen=True, eq=False)
class Mul(GpExpr):
    factors: tuple[GpExpr, ...]


@dataclass(frozen=True, eq=False)
class Floor(GpExpr):
    arg: GpExpr


VAR = Var()


def _as_expr(x) -> GpExpr:
    if isinstance(x, GpExpr):
        return x
    if isinstance(x, (int, Fraction)):
        return Const(ExactReal.rational(Fraction(x)))
    if isinstance(x, ExactReal):
        return Const(x)
    raise TypeError(f"cannot coerce {x!r} to a GpExpr")


def gp_const(x) -> GpExpr:
    return _as_expr(x)


def gp_add(*terms) -> GpExpr:
    return Add(tuple(_as_expr(t) for t in terms))


def gp_mul(*factors) -> GpExpr:
    return Mul(tuple(_as_expr(f) for f in factors))


def gp_neg(x) -> GpExpr:
    return Mul((_as_expr(-1), _as_expr(x)))


def gp_nearest(x) -> GpExpr:
    """<<x>> = floor(x + 1/2); ties round up."""
    return Floor(gp_add(x, Fraction(1, 2)))


def gp_fracpart(x) -> GpExpr:
    """{x} = x - floor(x)."""
    x = _as_expr(x)
    return gp_add(x, gp_neg(Floor(x)))


def gp_ceil(x) -> GpExpr:
    return gp_neg(Floor(gp_neg(x)))


def gp_dist_to_int(x) -> GpExpr:
    """||x|| = |x - <<x>>|, written in the primitive basis.

    With y = x - <<x>> in [-1/2, 1/2), the sign is 2*floor(y + 1) - 1.
    """
    y = gp_add(x, gp_neg(gp_nearest(x)))
    sign = gp_add(gp_mul(2, Floor(gp_add(y, 1))), -1)
    return gp_mul(sign, y)


def gp_pow(x, k: int) -> GpExpr:
    if k < 0:
        raise ValueError("negative powers are not generalised polynomials")
    if k == 0:
        return _as_expr(1)
    x = _as_expr(x)
    return Mul((x,) * k)


def gp_poly(coeffs: Sequence) -> GpExpr:
    """Polynomial sum coeffs[i] * n^i in the variable."""
    terms = []
    for i, c in enumerate(coeffs):
        c = _as_expr(c)
        terms.append(c if i == 0 else gp_mul(c, gp_pow(VAR, i)))
    return Add(tuple(terms)) if terms else _as_expr(0)


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class EvalResult:
    """A resolved evaluation: every floor decided.  The value is ``exact``,
    or else ``interval``; ``enclosure`` is computed when read."""

    interval: Optional[IntervalValue]
    exact: Optional[Exact]
    is_integer: bool
    integer_value: Optional[int]
    bits_used: int

    @property
    def enclosure(self) -> IntervalValue:
        if self.exact is None:
            return self.interval
        return exact_enclosure(self.exact, max(self.bits_used, 64))

    def to_float(self) -> float:
        return self.enclosure.to_float()


def _eval_node(expr: GpExpr, n: int, bits: int, use_exact: bool):
    if isinstance(expr, Const):
        return expr.value.value(bits) if use_exact else expr.value.enclosure(bits)
    if isinstance(expr, Var):
        if use_exact:
            return Fraction(n)
        return IntervalValue.exactly(n, bits)
    if isinstance(expr, Add):
        acc = None
        for t in expr.terms:
            v = _eval_node(t, n, bits, use_exact)
            acc = v if acc is None else value_add(acc, v, bits)
        return acc if acc is not None else Fraction(0)
    if isinstance(expr, Mul):
        acc = None
        for f in expr.factors:
            v = _eval_node(f, n, bits, use_exact)
            acc = v if acc is None else value_mul(acc, v, bits)
        return acc if acc is not None else Fraction(1)
    if isinstance(expr, Floor):
        return Fraction(value_floor(_eval_node(expr.arg, n, bits, use_exact)))
    raise TypeError(f"unknown node {expr!r}")


def eval_gp(expr: GpExpr, n: int, policy: Optional[PrecisionPolicy] = None,
            use_exact: bool = True) -> EvalResult:
    """Evaluate at integer n with every floor rigorously decided."""

    def at(bits: int) -> EvalResult:
        v = _eval_node(expr, n, bits, use_exact)
        if isinstance(v, IntervalValue):
            return EvalResult(v, None, False, None, bits)
        k = exact_is_integer(v)
        return EvalResult(None, v, k is not None, k, bits)

    return decide(at, policy)


def eval_gp_int(expr: GpExpr, n: int,
                policy: Optional[PrecisionPolicy] = None) -> int:
    res = eval_gp(expr, n, policy)
    if res.integer_value is None:
        raise ValueError("expression did not evaluate to an exact integer")
    return res.integer_value


# ---------------------------------------------------------------------------
# sequence handles


class Seq:
    """Lazily evaluated, cached integer-indexed sequence."""

    def __init__(self, fn: Callable[[int], object],
                 count_below: Optional[Callable[[int], int]] = None):
        self.fn = fn
        self._cache: dict[int, object] = {}
        self._count_below = count_below

    def __call__(self, n: int):
        v = self._cache.get(n)
        if v is None and n not in self._cache:
            v = self.fn(n)
            self._cache[n] = v
        return v

    def values(self, lo: int, hi: int) -> list:
        return [self(n) for n in range(lo, hi)]

    def count_below(self, bound: int) -> int:
        if self._count_below is not None:
            return self._count_below(bound)
        return sum(1 for n in range(bound) if self(n) == 1)


def floor_poly_mod(coeffs: Sequence, m: int,
                   policy: Optional[PrecisionPolicy] = None) -> Seq:
    """The sequence n -> floor(p(n)) mod m for p with the given coefficients."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    expr = Floor(gp_poly(coeffs))

    def fn(n: int) -> int:
        return eval_gp_int(expr, n, policy) % m

    return Seq(fn)


def seq_from_dfao(dfao) -> Seq:
    return Seq(dfao.eval,
               count_below=lambda bound: count_accepted_below(dfao, bound))


# ---------------------------------------------------------------------------
# zero-set indicators


@dataclass
class Indicator:
    """A {0,1}-valued construction with a formal expression and a semantic twin.

    ``formal`` is the closed-form generalised polynomial (valid under the
    caller's irrationality obligation on theta); ``semantic`` decides the
    defining condition directly.  Tests compare the two.
    """

    formal: GpExpr
    semantic: Callable[[int], int]
    policy: Optional[PrecisionPolicy] = None

    def formal_eval(self, n: int) -> int:
        return eval_gp_int(self.formal, n, self.policy)

    def __call__(self, n: int) -> int:
        return self.semantic(n)


def indicator_zero_set(h: GpExpr, theta: ExactReal,
                       policy: Optional[PrecisionPolicy] = None) -> Indicator:
    """Indicator of {n : h(n) = 0} as 1 - ceil({theta * h(n)}).

    The caller guarantees theta * h(n) is irrational whenever h(n) != 0;
    only then does the formal expression agree with the semantic test.
    """
    formal = gp_add(1, gp_neg(gp_ceil(gp_fracpart(gp_mul(Const(theta), h)))))

    def semantic(n: int) -> int:
        return decide(lambda bits: int(value_sign(_eval_node(h, n, bits, True)) == 0),
                      policy)

    return Indicator(formal, semantic, policy)


def indicator_window(h: GpExpr, a, b, theta: ExactReal,
                     policy: Optional[PrecisionPolicy] = None) -> Indicator:
    """Indicator of {n : a <= h(n) < b} via floor((h - a)/(b - a)) = 0."""
    a, b = Fraction(a), Fraction(b)
    if not b > a:
        raise ValueError("need a < b")
    scaled = gp_mul(Fraction(1, 1) / (b - a), gp_add(h, -a))
    inner = Floor(scaled)
    formal = gp_add(1, gp_neg(gp_ceil(gp_fracpart(gp_mul(Const(theta), inner)))))

    def semantic(n: int) -> int:
        return 1 if eval_gp_int(inner, n, policy) == 0 else 0

    return Indicator(formal, semantic, policy)


# ---------------------------------------------------------------------------
# weak periodicity


def weak_periodicity_search(seq: Seq, q_max: int, offset_max: int,
                            horizon: int):
    """First witness (q, r, s), r < s, with seq(qn+r) = seq(qn+s) for every
    n in range, scanning q ascending, then the larger offset, then the
    smaller (this is the order that makes the canonical examples come out).

    Returns None when the search space is exhausted (evidence, not proof,
    of non-weak-periodicity).
    """
    if horizon < q_max * offset_max:
        raise ValueError("horizon must be at least q_max * offset_max")
    values = [seq(n) for n in range(horizon + 1)]
    for q in range(1, q_max + 1):
        # group offsets by a fixed-length signature; only equal-signature
        # pairs can be witnesses
        sig_len = min(48, (horizon - offset_max) // q + 1)
        groups: dict[tuple, list[int]] = {}
        for r in range(offset_max + 1):
            sig = tuple(values[q * n + r] for n in range(sig_len))
            groups.setdefault(sig, []).append(r)
        candidates = []
        for offs in groups.values():
            for i in range(len(offs)):
                for j in range(i + 1, len(offs)):
                    candidates.append((offs[j], offs[i]))  # (s, r)
        candidates.sort()
        for s, r in candidates:
            n_max = (horizon - s) // q
            if all(values[q * n + r] == values[q * n + s]
                   for n in range(n_max + 1)):
                return (q, r, s)
    return None


# ---------------------------------------------------------------------------
# kernel census


def kernel_census(seq: Seq, k: int, depth: int, prefix_len: int,
                  budget: int = 1 << 22) -> int:
    """Number of distinct length-``prefix_len`` prefixes among the
    subsequences n -> seq(k^t n + r), t <= depth; a lower bound for the
    k-kernel size."""
    if prefix_len * k**depth > budget:
        raise ValueError("census exceeds the evaluation budget")
    seen = set()
    for t in range(depth + 1):
        step = k**t
        for r in range(step):
            seen.add(tuple(seq(step * n + r) for n in range(prefix_len)))
    return len(seen)


# ---------------------------------------------------------------------------
# density estimates


@dataclass
class DensityReport:
    natural: list[tuple[int, Fraction]]
    banach: list[tuple[int, Fraction]]
    seed: int
    window_count: int


def density_estimate(seq: Seq, n_grid: Sequence[int], window_count: int = 8,
                     seed: int = 20160517, window_span: int = 1 << 31) -> DensityReport:
    """Natural-density samples |E cap [N]|/N on the grid and Banach-style
    samples: the max over seeded pseudorandom windows [M, M+N) of the
    window-relative count.  The seed is part of the report."""
    natural = []
    for n_val in n_grid:
        natural.append((n_val, Fraction(seq.count_below(n_val), n_val)))
    rng = random.Random(seed)
    banach = []
    for n_val in n_grid:
        best = Fraction(0)
        for _ in range(window_count):
            m0 = rng.randrange(window_span)
            if seq._count_below is not None:
                cnt = seq.count_below(m0 + n_val) - seq.count_below(m0)
            else:
                cnt = sum(1 for n in range(m0, m0 + n_val) if seq(n) == 1)
            best = max(best, Fraction(cnt, n_val))
        banach.append((n_val, best))
    return DensityReport(natural, banach, seed, window_count)


# ---------------------------------------------------------------------------
# equidistribution


@dataclass
class EquidistReport:
    n_samples: int
    bins: int
    histogram: list[int]
    star_discrepancy: float


def fractional_part_value(expr: GpExpr, n: int,
                          policy: Optional[PrecisionPolicy] = None,
                          scale: Fraction = Fraction(1)) -> Fraction:
    """{scale * expr(n)} as an exact or tightly enclosed rational."""

    def at(bits: int) -> Fraction:
        v = value_mul(_eval_node(expr, n, bits, True), Fraction(scale), bits)
        return to_interval(value_frac(v, bits), 64).midpoint()

    return decide(at, policy)


def star_discrepancy(samples: Sequence[float]) -> float:
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return 1.0
    worst = 0.0
    for i, x in enumerate(xs, start=1):
        worst = max(worst, i / n - x, x - (i - 1) / n)
    return worst


def equidistribution_test(expr: GpExpr, a: int, lam: Fraction, n_samples: int,
                          bins: int,
                          policy: Optional[PrecisionPolicy] = None) -> EquidistReport:
    """Histogram and star discrepancy of {lam * expr(a n)} for n < n_samples."""
    if bins < 2:
        raise ValueError("bins must be >= 2")
    lam = Fraction(lam)
    counts = [0] * bins
    samples = []
    for n in range(n_samples):
        frac = fractional_part_value(expr, a * n, policy, scale=lam)
        x = float(frac)
        if x >= 1.0:
            x = 0.0
        samples.append(x)
        counts[min(int(x * bins), bins - 1)] += 1
    return EquidistReport(n_samples, bins, counts, star_discrepancy(samples))


def coefficients(expr: GpExpr) -> list[ExactReal]:
    """Syntactic constant collection for the independence pre-screen:
    constants of sums/products union; a floor contributes its argument's
    constants.  Depends on the representation as given."""
    out: list[ExactReal] = []

    def walk(e: GpExpr):
        if isinstance(e, Const):
            out.append(e.value)
        elif isinstance(e, Add):
            for t in e.terms:
                walk(t)
        elif isinstance(e, Mul):
            for f in e.factors:
                walk(f)
        elif isinstance(e, Floor):
            walk(e.arg)

    walk(expr)
    return out


# ---------------------------------------------------------------------------
# set comparison


@dataclass
class CompareReport:
    lo: int
    hi: int
    count: int
    examples: list[int]
    truncated: bool


def set_compare(pred1: Callable[[int], int], pred2: Callable[[int], int],
                lo: int, hi: int) -> CompareReport:
    """Exact symmetric-difference report of two {0,1} predicates on [lo, hi);
    the first 10^4 disagreements are kept as examples."""
    examples = []
    count = 0
    for n in range(lo, hi):
        if pred1(n) != pred2(n):
            count += 1
            if len(examples) < 10**4:
                examples.append(n)
    return CompareReport(lo, hi, count, examples, count > len(examples))


# ---------------------------------------------------------------------------
# s-expression format


_TOKEN = re.compile(r"\(|\)|[^\s()]+")

CONST_NAMES = {
    "pi": ExactReal.pi,
    "e": ExactReal.e,
    "phi": ExactReal.phi,
}


def parse_gp(text: str) -> GpExpr:
    """Parse prefix s-expressions, e.g.
    ``(+ (const 2) (* (sqrt 2) (pow (floor (+ (* (sqrt 3) (pow n 2)) (/ 1 7))) 2)))``."""
    tokens = _TOKEN.findall(text)
    pos = 0

    def parse() -> GpExpr:
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            head = tokens[pos]
            pos += 1
            args = []
            while tokens[pos] != ")":
                args.append(parse_any())
            pos += 1
            return build(head, args)
        if tok == ")":
            raise ValueError("unbalanced parentheses")
        return atom(tok)

    def parse_any():
        nonlocal pos
        tok = tokens[pos]
        if tok == "(":
            return parse()
        pos += 1
        try:
            return int(tok)
        except ValueError:
            pass
        try:
            return Fraction(tok)
        except ValueError:
            pass
        return atom(tok)

    def atom(tok: str) -> GpExpr:
        if tok == "n":
            return VAR
        if tok in CONST_NAMES:
            return Const(CONST_NAMES[tok]())
        try:
            return _as_expr(Fraction(tok))
        except ValueError:
            raise ValueError(f"unknown atom {tok!r}")

    def build(head: str, args: list) -> GpExpr:
        def expr_args():
            return [a if isinstance(a, GpExpr) else _as_expr(a) for a in args]

        if head == "+":
            return gp_add(*expr_args())
        if head == "*":
            return gp_mul(*expr_args())
        if head == "-":
            ea = expr_args()
            if len(ea) == 1:
                return gp_neg(ea[0])
            acc = ea[0]
            for t in ea[1:]:
                acc = acc - t
            return acc
        if head == "/":
            if len(args) == 2 and all(isinstance(a, (int, Fraction)) for a in args):
                return _as_expr(Fraction(args[0]) / Fraction(args[1]))
            raise ValueError("(/ p q) expects numeric literals")
        if head == "floor":
            (a,) = expr_args()
            return Floor(a)
        if head == "ceil":
            (a,) = expr_args()
            return gp_ceil(a)
        if head == "nearest":
            (a,) = expr_args()
            return gp_nearest(a)
        if head == "frac":
            (a,) = expr_args()
            return gp_fracpart(a)
        if head == "dist":
            (a,) = expr_args()
            return gp_dist_to_int(a)
        if head == "pow":
            base_expr = args[0] if isinstance(args[0], GpExpr) else _as_expr(args[0])
            return gp_pow(base_expr, int(args[1]))
        if head == "sqrt":
            if len(args) == 1 and isinstance(args[0], (int, Fraction)):
                return Const(ExactReal.sqrt(args[0]))
            raise ValueError("(sqrt x) expects a numeric literal")
        if head == "const":
            if len(args) == 1 and isinstance(args[0], (int, Fraction)):
                return _as_expr(args[0])
            if len(args) == 1 and isinstance(args[0], GpExpr):
                return args[0]
            raise ValueError("(const x) expects a numeric literal")
        if head == "root":
            *coeffs, lo, hi = args
            return Const(ExactReal.algebraic_root(coeffs, Fraction(lo), Fraction(hi)))
        raise ValueError(f"unknown operator {head!r}")

    expr = parse()
    if pos != len(tokens):
        raise ValueError("trailing tokens")
    return expr
