"""Expected outputs of the benchmark workloads, computed apart from nilseq.

Nothing here imports the library.  Floors are decided by a certified
evaluator of our own: exact sums of square roots (integer ``math.isqrt``
bounds), pi and e from mpmath's ``mp`` context at K + 40 bits, algebraic
roots by mpmath root finding whose sign change is re-checked in integers.
Every value is an integer interval [lo, hi] at scale 2^-K or an exact
surd sum; a floor is taken only when the interval excludes the integers
next to it, otherwise K doubles.  Automata are checked against their
definitions (a digit-string search for prohibited patterns, n mod m for
residue classes), Pisot records against the recurrence R_n.

Run as a script to print the exact values at the pi/e fault points:
``python3 perfbench/oracle.py --fault-points`` (uses sympy).
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from fractions import Fraction

import mpmath

import workloads


class Undecided(Exception):
    """A floor argument still straddles an integer at scale 2^-K."""


# ---------------------------------------------------------------------------
# exact surd sums


def _squarefree(n: int) -> tuple[int, int]:
    s, m, p = 1, n, 2
    while p * p <= m:
        while m % (p * p) == 0:
            m //= p * p
            s *= p
        p += 1
    return s, m


class Surd:
    """Sum of c_d sqrt(d) over squarefree d (d = 1 is the rational part).
    1 and the sqrt(d) are linearly independent, so a Surd with a nonzero
    irrational term is irrational."""

    __slots__ = ("t",)

    def __init__(self, terms):
        self.t = {d: Fraction(c) for d, c in terms.items() if c}

    @classmethod
    def rational(cls, q) -> "Surd":
        return cls({1: Fraction(q)})

    @classmethod
    def sqrt(cls, q) -> "Surd":
        q = Fraction(q)
        s, m = _squarefree(q.numerator * q.denominator)
        return cls({m: Fraction(s, q.denominator)})

    def __add__(self, o: "Surd") -> "Surd":
        t = dict(self.t)
        for d, c in o.t.items():
            t[d] = t.get(d, 0) + c
        return Surd(t)

    def __neg__(self) -> "Surd":
        return Surd({d: -c for d, c in self.t.items()})

    def __sub__(self, o: "Surd") -> "Surd":
        return self + (-o)

    def __mul__(self, o: "Surd") -> "Surd":
        t: dict[int, Fraction] = {}
        for d1, c1 in self.t.items():
            for d2, c2 in o.t.items():
                s, m = _squarefree(d1 * d2)
                t[m] = t.get(m, 0) + c1 * c2 * s
        return Surd(t)

    def __eq__(self, o) -> bool:
        return isinstance(o, Surd) and self.t == o.t

    def is_rational(self) -> bool:
        return set(self.t) <= {1}

    def interval(self, k: int) -> tuple[int, int]:
        """[lo, hi] with lo <= x 2^k <= hi."""
        lo = hi = 0
        for d, c in self.t.items():
            if d == 1:
                a = b = c * (1 << k)
            else:
                r = math.isqrt(d << (2 * k))
                a, b = c * r, c * (r + 1)
                if c < 0:
                    a, b = b, a
            lo += math.floor(a)
            hi += math.ceil(b)
        return lo, hi

    def floor(self) -> int:
        if self.is_rational():
            return math.floor(self.t.get(1, 0))
        k = 64
        while True:
            lo, hi = self.interval(k)
            if lo >> k == hi >> k:
                return lo >> k
            k *= 2

    def sign(self) -> int:
        if not self.t:
            return 0
        if self.is_rational():
            return 1 if self.t[1] > 0 else -1
        k = 64
        while True:
            lo, hi = self.interval(k)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            k *= 2


def decode_surd(v) -> Surd | None:
    """A library value as encoded by the worker, if it is exact."""
    if isinstance(v, str):
        return Surd.rational(Fraction(v))
    if isinstance(v, dict) and "surd" in v:
        return Surd({int(d): Fraction(c) for d, c in v["surd"].items()})
    return None


# ---------------------------------------------------------------------------
# s-expressions and the certified evaluator


_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def parse(text: str):
    """Prefix s-expression as nested tuples; atoms are 'n', 'pi', 'e' or
    Fractions."""
    tokens = _TOKEN.findall(text)
    pos = 0

    def node():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok != "(":
            return tok if tok in ("n", "pi", "e") else Fraction(tok)
        head = tokens[pos]
        pos += 1
        args = []
        while tokens[pos] != ")":
            args.append(node())
        pos += 1
        return (head, *args)

    tree = node()
    if pos != len(tokens):
        raise ValueError("trailing tokens")
    return tree


class Evaluator:
    """Values are Surd (exact) or (lo, hi) integer intervals at scale 2^-K."""

    def __init__(self):
        self._consts: dict = {}

    def _named(self, name: str, k: int) -> tuple[int, int]:
        key = (name, k)
        if key not in self._consts:
            with mpmath.workprec(k + 40):
                v = mpmath.pi if name == "pi" else mpmath.e
                mid = int(mpmath.floor(mpmath.ldexp(v, k)))
            # mp constants are correctly rounded to k + 40 bits
            self._consts[key] = (mid - 1, mid + 2)
        return self._consts[key]

    def _root(self, coeffs, lo, hi, k: int) -> tuple[int, int]:
        key = (tuple(coeffs), lo, hi, k)
        if key not in self._consts:
            def sign(num: int) -> int:
                # sign of p(num / 2^k) scaled by 2^(k deg)
                deg = len(coeffs) - 1
                v = sum(c * num**(deg - i) * (1 << (k * i))
                        for i, c in enumerate(coeffs))
                return (v > 0) - (v < 0)

            with mpmath.workprec(k + 40):
                f = lambda x: mpmath.polyval([int(c) for c in coeffs], x)  # noqa: E731
                x = mpmath.findroot(f, (lo + hi) / 2)
                mid = int(mpmath.floor(mpmath.ldexp(x, k)))
            a, b = mid - 1, mid + 2
            if not (lo <= Fraction(a, 1 << k) and Fraction(b, 1 << k) <= hi
                    and sign(a) * sign(b) < 0):
                # fall back to integer bisection on the isolating interval
                a, b = math.floor(lo * (1 << k)), math.ceil(hi * (1 << k))
                sa = sign(a)
                while b - a > 1:
                    c = (a + b) // 2
                    if sign(c) == sa:
                        a = c
                    else:
                        b = c
            self._consts[key] = (a, b)
        return self._consts[key]

    def value(self, tree, n: int, k: int):
        if isinstance(tree, Fraction):
            return Surd.rational(tree)
        if tree == "n":
            return Surd.rational(n)
        if tree in ("pi", "e"):
            return self._named(tree, k)
        head, *args = tree
        if head == "sqrt":
            return Surd.sqrt(args[0])
        if head == "/":
            return Surd.rational(args[0] / args[1])
        if head == "root":
            *coeffs, lo, hi = args
            return self._root(coeffs, lo, hi, k)
        if head == "floor":
            return Surd.rational(self.floor_of(self.value(args[0], n, k), k))
        if head == "pow":
            base = self.value(args[0], n, k)
            acc = Surd.rational(1)
            for _ in range(int(args[1])):
                acc = mul(acc, base, k)
            return acc
        vals = [self.value(a, n, k) for a in args]
        op = add if head == "+" else mul
        acc = vals[0]
        for v in vals[1:]:
            acc = op(acc, v, k)
        return acc

    def floor_of(self, v, k: int) -> int:
        if isinstance(v, Surd):
            return v.floor()
        lo, hi = v
        if lo >> k != hi >> k:
            raise Undecided()
        return lo >> k

    def decide(self, fn, k: int = 128):
        """fn(k) with k doubled until every floor in it is decided."""
        while k <= 1 << 14:
            try:
                return fn(k)
            except Undecided:
                k *= 2
        raise Undecided("oracle precision cap reached")

    def floor(self, tree, n: int) -> int:
        return self.decide(lambda k: self.floor_of(self.value(tree, n, k), k))


def add(x, y, k):
    if isinstance(x, Surd) and isinstance(y, Surd):
        return x + y
    (a, b), (c, d) = interval(x, k), interval(y, k)
    return a + c, b + d


def mul(x, y, k):
    if isinstance(x, Surd) and isinstance(y, Surd):
        return x * y
    for u, v in ((x, y), (y, x)):
        if isinstance(u, Surd) and u.is_rational():
            r = u.t.get(1, Fraction(0))
            a, b = v[0] * r, v[1] * r
            a, b = min(a, b), max(a, b)
            return math.floor(a), math.ceil(b)
    (a, b), (c, d) = interval(x, k), interval(y, k)
    ps = (a * c, a * d, b * c, b * d)
    return min(ps) >> k, -((-max(ps)) >> k)


def interval(v, k: int) -> tuple[int, int]:
    """[lo, hi] with lo <= x 2^k <= hi for either kind of value."""
    return v.interval(k) if isinstance(v, Surd) else v


EVAL = Evaluator()


def frac_bin(tree, n: int, bins: int) -> int:
    """floor(bins * {x}) for x = tree(n)."""
    def at(k):
        v = EVAL.value(tree, n, k)
        return (EVAL.floor_of(mul(v, Surd.rational(bins), k), k)
                - bins * EVAL.floor_of(v, k))
    return EVAL.decide(at)


# ---------------------------------------------------------------------------
# GP and orbit phases


def poly_tree(coeffs: list[str]):
    c0, c1, c2 = (parse(c) for c in coeffs)
    return ("+", c0, ("*", c1, "n"), ("*", c2, ("pow", "n", Fraction(2))))


def sympy_floor(tree, n: int) -> int:
    """The expression's value at n from sympy's exact arithmetic."""
    import sympy

    def conv(t):
        if isinstance(t, Fraction):
            return sympy.Rational(t.numerator, t.denominator)
        if t in ("n", "pi", "e"):
            return {"n": sympy.Integer(n), "pi": sympy.pi, "e": sympy.E}[t]
        head, *args = t
        if head == "sqrt":
            return sympy.sqrt(conv(args[0]))
        if head == "floor":
            return sympy.floor(conv(args[0]))
        if head == "pow":
            return conv(args[0]) ** int(args[1])
        return (sympy.Add if head == "+" else sympy.Mul)(*map(conv, args))

    return int(conv(tree))


def weak_periodicity(values: list, q_max: int, offset_max: int):
    """First (q, r, s) in the documented order: q ascending, then s, then r."""
    horizon = len(values) - 1
    for q in range(1, q_max + 1):
        for s in range(offset_max + 1):
            for r in range(s):
                if all(values[q * n + r] == values[q * n + s]
                       for n in range((horizon - s) // q + 1)):
                    return [q, r, s]
    return None


def check_gp(inp: dict, items: dict, out: dict):
    gp = inp["gp"]
    for key in ("points", "large_points", "fault_points"):
        if key not in gp:
            continue
        trees = {}
        got = items[key]
        for (src, n), v in zip(gp[key], got):
            tree = trees.setdefault(src, parse(src))
            want = EVAL.floor(tree, n)
            if v != want:
                out.fail(key, 1, f"{src} at n={n}: got {v}, want {want}")
    # nested forms once more through sympy's exact floor
    nested = {}
    for (src, n), v in zip(gp["points"], items["points"]):
        if src.count("floor") == 2 and "root" not in src and \
                len(nested.setdefault(src, [])) < 2:
            nested[src].append(n)
            want = sympy_floor(parse(src), n)
            if v != want:
                out.fail("points", 1, f"{src} at n={n}: got {v}, sympy {want}")
    seqs = {}
    for name in ("seq_irrational", "seq_rational"):
        spec = gp[name]
        tree = poly_tree(spec["coeffs"])
        want = [EVAL.floor(tree, n) % spec["m"]
                for n in range(gp["weak"]["horizon"] + 1)]
        seqs[name] = want
        for n, (v, w) in enumerate(zip(items[name], want)):
            if v != w:
                out.fail(name, 1, f"n={n}: got {v}, want {w}")
        weak = weak_periodicity(want, gp["weak"]["q_max"],
                                gp["weak"]["offset_max"])
        if items[f"weak_{name}"] != weak:
            out.fail(f"weak_{name}", 1,
                     f"got {items[f'weak_{name}']}, want {weak}")
    c = gp["census"]
    vals = seqs["seq_irrational"]
    census = len({tuple(vals[c["k"]**t * n + r] for n in range(c["prefix_len"]))
                  for t in range(c["depth"] + 1) for r in range(c["k"]**t)})
    if items["census"] != census:
        out.fail("census", 1, f"got {items['census']}, want {census}")
    eq = gp["equidist"]
    tree = parse(eq["expr"])
    hist = [0] * eq["bins"]
    samples = []
    for n in range(eq["n_samples"]):
        hist[frac_bin(tree, n, eq["bins"])] += 1

        def approx(k):
            v = EVAL.value(tree, n, k)
            lo, hi = interval(v, k)
            return Fraction(lo + hi, 2 << k) - EVAL.floor_of(v, k)
        samples.append(float(EVAL.decide(approx)))
    xs = sorted(samples)
    star = max(max((i + 1) / len(xs) - x, x - i / len(xs))
               for i, x in enumerate(xs))
    got = items["equidist"]
    if (not isinstance(got, dict) or got["histogram"] != hist
            or abs(float(got["star"]) - star) > 1e-6):
        out.fail("equidist", eq["n_samples"], f"got {got}, want {hist} {star}")


def check_orbit(inp: dict, items: dict, out: dict):
    orb = inp["orbit"]
    alpha, beta = parse(orb["alpha"]), parse(orb["beta"])
    res = orb["residue"]
    m = res["m"]
    if "poly" in res:
        # floor(m {p(n)/m}) is floor(p(n)) mod m
        p_over_m = ("*", Fraction(1, m), poly_tree(res["poly"]))

        def x_of(n):
            return p_over_m
    else:
        a1, a2 = (parse(c) for c in res["coeffs"])

        def x_of(n):
            # last coordinate of the skew orbit: a0 + a1 C(n,1) + a2 C(n,2)
            return ("+", Fraction(res["a0"]), ("*", a1, Fraction(n)),
                    ("*", a2, Fraction(math.comb(n, 2))))
    for (n, r), v in zip(res["points"], items["residue"]):
        want = int(frac_bin(x_of(n), n, m) == r)
        if v != want:
            out.fail("residue", 1, f"n={n} r={r}: got {v}, want {want}")

    exact = isinstance(EVAL.value(alpha, 1, 64), Surd)
    for n, v in zip(orb["heisenberg"], items["heisenberg"]):
        na = ("*", alpha, Fraction(n))
        nb = ("*", beta, Fraction(n))
        parts = [("*", Fraction(-1), na), nb, ("*", na, ("floor", nb))]
        trees = [("+", p, ("*", Fraction(-1), ("floor", p))) for p in parts]
        if not (isinstance(v, list) and len(v) == 3):
            out.fail("heisenberg", 1, f"n={n}: got {v}")
            continue
        ok = True
        for tree, got in zip(trees, v):
            if exact:
                ok &= decode_surd(got) == EVAL.decide(
                    lambda k: EVAL.value(tree, n, k))
            else:
                ok &= _encloses(got, tree, n)
        if not ok:
            out.fail("heisenberg", 1, f"n={n}: got {v}")

    sc = orb["scan"]
    eps = Fraction(sc["eps"])
    step = sc["base"] ** len(sc["suffix"])
    first = int("".join(map(str, sc["suffix"])), sc["base"])
    hit = None
    for n in range(first, sc["n_max"] + 1, step):
        x = ("*", alpha, Fraction(n), ("floor", ("*", beta, Fraction(n))))
        # ||x|| < eps iff some integer lies in (x - eps, x + eps); x is
        # irrational, so that is floor(x + eps) != floor(x - eps)
        if EVAL.floor(("+", x, eps), 0) != EVAL.floor(("+", x, -eps), 0):
            hit = n
            break
    n_scanned = len(range(first, sc["n_max"] + 1, step))
    if items["scan"] != hit:
        out.fail("scan", n_scanned, f"got {items['scan']}, want {hit}")

    if "probe" in orb:
        pr = orb["probe"]
        a = EVAL.value(alpha, 0, 64)
        b = EVAL.value(beta, 0, 64)
        scale = Surd.rational(2 ** pr["t"])
        best = best_pair = None
        for l1 in range(-pr["l_bound"], pr["l_bound"] + 1):
            for l2 in range(-pr["l_bound"], pr["l_bound"] + 1):
                if l1 == 0 and l2 == 0:
                    continue
                y = (a * Surd.rational(l1) + b * Surd.rational(l2)) * scale
                d = y - Surd.rational((y + Surd.rational(Fraction(1, 2))).floor())
                if d.sign() < 0:
                    d = -d
                if best is None or (d - best).sign() < 0:
                    best, best_pair = d, [l1, l2]
        got = items["probe"]
        pairs = (2 * pr["l_bound"] + 1) ** 2 - 1
        if (not isinstance(got, dict) or got["best"] != best_pair
                or got["degenerate"] or not _surd_in(got["iv"], best)):
            out.fail("probe", pairs, f"got {got}, want {best_pair}")


def _surd_in(iv, x: Surd) -> bool:
    lo, hi = (Fraction(s) for s in iv["iv"])
    a, b = x.interval(256)
    return lo <= Fraction(a, 1 << 256) and Fraction(b, 1 << 256) <= hi


def _encloses(got, tree, n: int) -> bool:
    """The library's enclosure holds the true value and is tight."""
    if not (isinstance(got, dict) and "iv" in got):
        return False
    lo, hi = (Fraction(s) for s in got["iv"])
    k, (a, b) = EVAL.decide(
        lambda k: (k, interval(EVAL.value(tree, n, k), k)), 256)
    return (lo <= Fraction(a, 1 << k) and Fraction(b, 1 << k) <= hi
            and hi - lo < Fraction(1, 1 << 20))


# ---------------------------------------------------------------------------
# pisot-cubic

# q <= PISOT_HEAD may differ between records, predicate and recurrence
# (the finite head); beyond it the three must agree exactly
PISOT_HEAD = 10


def _beta(a: int, b: int):
    roots = mpmath.polyroots([1, -a, -b, -1], maxsteps=200, extraprec=300)
    return max(mpmath.re(r) for r in roots if abs(mpmath.im(r)) < 1e-50)


def recurrence_terms(a: int, b: int, limit: int) -> list[int]:
    """R_0 = 1, R_1 = a, R_2 = a^2 + b, R_n = a R_{n-1} + b R_{n-2} + R_{n-3},
    up to the first term above limit."""
    terms = [1, a, a * a + b]
    while terms[-1] <= limit or len(terms) < 8:
        terms.append(a * terms[-1] + b * terms[-2] + terms[-3])
    return terms


class PisotNumeric:
    """The cubic Pisot data of (a, b) in mpmath at 300 bits, from beta alone."""

    def __init__(self, a: int, b: int):
        mpmath.mp.prec = 300
        self.a, self.b = a, b
        beta = self.beta = _beta(a, b)
        # N(x)^2 = A x1^2 + B x1 x2 + C x2^2 for theta = (1/beta, 1/beta^2)
        self.A = b * (a - beta) / beta + b**2 / beta**2 + 1 / beta
        self.B = (a - beta) / beta + 2 * b / beta**2
        self.C = 1 / beta**2

    def norm_sq(self, q, p1, p2):
        x1, x2 = q / self.beta - p1, q / self.beta**2 - p2
        return self.A * x1**2 + self.B * x1 * x2 + self.C * x2**2

    def predicate_product(self, q: int):
        """h(q)^2 g(q) of the closed-form predicate, recomputed in floating
        point: g = q + ((b beta + 1)/beta^2) <<q/beta>> + (1/beta)
        <<q/beta^2>>, h the norm at the nearest pair resolved imaginary
        coordinate first."""
        a, b, beta = self.a, self.b, self.beta

        def nearest(x):
            return mpmath.floor(x + mpmath.mpf(1) / 2)

        p1 = nearest(q / beta)
        g = q + (b * beta + 1) / beta**2 * p1 + nearest(q / beta**2) / beta
        x1 = q / beta - p1
        inner = (beta * (mpmath.mpf(a) / 2 - beta / 2) + b) * x1 + q / beta**2
        return self.norm_sq(q, p1, nearest(inner)) * g


def check_pisot(inp: dict, items: dict, after: dict, out: dict):
    q_max = inp["q_max"]
    tiny = mpmath.mpf(2) ** -200
    for a, b in inp["params"]:
        key = f"{a},{b}"
        num = PisotNumeric(a, b)
        beta = num.beta
        terms = recurrence_terms(a, b, 4 * q_max)
        tail = {t for t in terms if PISOT_HEAD < t}
        # the threshold sits a factor 2 above the product on the records,
        # which is constant along them
        threshold = 2 * num.predicate_product(max(t for t in tail
                                                  if t <= q_max))

        def verdict(q):
            """1, 0, or None on an exact tie with the threshold."""
            v = num.predicate_product(q)
            if abs(v / threshold - 1) < tiny:
                return None
            return int(v < threshold)

        def expected(q):
            return q in tail

        members = items[f"pred {key}"]
        if not isinstance(members, list):
            out.fail(f"pred {key}", q_max, f"got {members}")
        else:
            got = set(members)
            for q in range(1, q_max + 1):
                if (q in got) != bool(verdict(q)) or (
                        q > PISOT_HEAD and (q in got) != expected(q)):
                    out.fail(f"pred {key}", 1, f"q={q}: member={q in got}")

        records = items[f"best {key}"]
        if not isinstance(records, list):
            out.fail(f"best {key}", q_max, f"got {records}")
        else:
            flagged = {r[0] for r in records}
            for q in range(PISOT_HEAD + 1, q_max + 1):
                if (q in flagged) != expected(q):
                    out.fail(f"best {key}", 1, f"q={q}: flagged={q in flagged}")
            prev = None
            for q, (p1, p2), ns in records:
                want = num.norm_sq(q, p1, p2)
                c0, c1, c2 = (mpmath.mpf(Fraction(c).numerator)
                              / Fraction(c).denominator for c in ns["cubic"])
                got_v = c0 + c1 * beta + c2 * beta**2
                # the nearest point is the minimiser over nearby p
                best = min(num.norm_sq(q, u, v)
                           for u in range(int(q / beta) - 2, int(q / beta) + 3)
                           for v in range(int(q / beta**2) - 2,
                                          int(q / beta**2) + 3))
                bad = abs(got_v / want - 1) > tiny or want > best * (1 + tiny)
                # N(q_n theta - p)^2 beta^n is constant along the records
                if prev is not None and q > PISOT_HEAD:
                    bad |= abs(want * beta / prev - 1) > tiny
                prev = want
                if bad:
                    out.fail(f"best {key}", 1, f"record q={q} norm")

        near = items[f"nearest {key}"]
        if not (isinstance(near, dict) and near.get("ok") ==
                _nearest_power_ok(a, b, beta, near)):
            out.fail(f"nearest {key}", 1, f"got {near}")

        for q, exact, r256, r1024 in after[key]:
            want = verdict(q)
            # an interval cannot decide an exact tie: the replay says None
            if exact != (want or 0) or r256 != want or r1024 != want:
                out.problem(f"replay {key} q={q}: exact {exact}, 256 bits "
                            f"{r256}, 1024 bits {r1024}, expected {want}")


def _nearest_power_ok(a: int, b: int, beta, near: dict) -> bool | None:
    """R_n = u beta^n + o(1): the residual stays below 1e-3 from n = 32 to
    40, and m = <<beta^n>> translates to <<u m>> = R_n with ||u m|| < |u|/2
    for 10 <= n <= 40 (the library's defaults).  None if u is off."""
    u = sum(mpmath.mpf(Fraction(c).numerator) / Fraction(c).denominator
            * beta**i for i, c in enumerate(near["u"]))
    terms = [1, a, a * a + b]
    while len(terms) < 41:
        terms.append(a * terms[-1] + b * terms[-2] + terms[-3])
    resid = [abs(terms[n] - u * beta**n) for n in range(41)]
    if abs(max(resid[near["residual_from"]:]) - float(near["max_residual"])) \
            > 1e-9:
        return None
    translation = True
    for n in range(10, 41):
        um = u * mpmath.nint(beta**n)
        near_um = mpmath.nint(um)
        translation &= near_um == terms[n] and abs(um - near_um) < abs(u) / 2
    return max(resid[32:]) < 1e-3 and translation


# ---------------------------------------------------------------------------
# automata


_BAUM_SWEET_BAD = re.compile(r"1(?:00)*01")


def definition(spec: dict, specs: dict):
    kind = spec["kind"]
    if kind == "patterns":
        k, pats = spec["k"], spec["patterns"]
        return lambda n: workloads.pattern_free(n, k, pats)
    if kind == "mod":
        m, c = spec["m"], spec["c"]
        return lambda n: n % m == c
    if kind == "and":
        f, g = (definition(specs[p], specs) for p in spec["parts"])
        return lambda n: f(n) and g(n)
    raise ValueError(kind)


FIXED = {
    "powers": (2, lambda n: n > 0 and n & (n - 1) == 0),
    "eleven_free": (2, lambda n: "11" not in bin(n)),
    "baum_sweet": (2, lambda n: not _BAUM_SWEET_BAD.search(bin(n)[2:])),
}


def run_table(t: dict, n: int):
    digits = [int(c, 36) for c in _digits(n, t["base"])]
    if t["order"] == "lsd":
        digits.reverse()
    s = t["initial"]
    for d in digits:
        s = t["transitions"][s][d]
    return t["outputs"][s]


def _digits(n: int, k: int) -> str:
    out = []
    while n:
        n, d = divmod(n, k)
        out.append("0123456789abcdefghijklmnopqrstuvwxyz"[d])
    return "".join(reversed(out))


def minimal_states(t: dict) -> int:
    """Moore partition refinement over the reachable states."""
    seen, stack = {t["initial"]}, [t["initial"]]
    while stack:
        for u in t["transitions"][stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    block = {s: t["outputs"][s] for s in seen}
    while True:
        sig = {s: (block[s], tuple(block[u] for u in t["transitions"][s]))
               for s in seen}
        ids = {v: i for i, v in enumerate(sorted(set(sig.values()), key=repr))}
        new = {s: ids[sig[s]] for s in seen}
        if len(set(new.values())) == len(set(block.values())):
            return len(ids)
        block = new


def _table_agrees(t, member, samples) -> bool:
    return isinstance(t, dict) and all(
        run_table(t, n) == int(member(n)) for n in samples)


def check_automata(inp: dict, items: dict, out: dict):
    import random
    rng = random.Random(f"automata-check:{inp['seed']}")
    specs = inp["automata"]
    members = {name: definition(spec, specs) for name, spec in specs.items()}
    bases = {name: spec["k"] for name, spec in specs.items()}
    samples = list(range(3000)) + [rng.randrange(10**12) for _ in range(200)]

    def expect(item, ok, detail=""):
        if not ok:
            out.fail(item, 1, f"got {items[item]!r:.200} {detail}")

    for name in specs:
        member = members[name]
        if name != "mod_and_b":
            for op in ("reverse", "minimize", "base_power"):
                t = items[f"{op} {name}"]
                ok = _table_agrees(t, member, samples)
                if ok and op == "base_power":
                    ok = t["base"] == bases[name] ** 2
                if ok and op in ("reverse", "minimize"):
                    ok = t["order"] == ("lsd" if op == "reverse" else "msd") \
                        and len(t["outputs"]) == minimal_states(t)
                expect(f"{op} {name}", ok)
        ratio = workloads.growth_ratio(bases[name], member,
                                       8 if bases[name] == 2 else 4)
        want = "condition_i" if ratio > workloads.ENTROPY_RATIO else \
            "very_sparse" if ratio < 6 else None
        expect(f"classify {name}", items[f"classify {name}"] == want,
               f"growth ratio {ratio:.1f}")
        bound = inp["count_bounds"][name]
        expect(f"count {name}", items[f"count {name}"] ==
               sum(1 for n in range(bound) if member(n)))
    expect("product mod_and_b",
           _table_agrees(items["product mod_and_b"], members["mod_and_b"],
                         samples))
    for name in ("patterns_b", "mod_and_b"):
        expect(f"kernel {name}", isinstance(items[f"kernel {name}"], int)
               and items[f"kernel {name}"] >= prefix_census(
                   members[name], 2, 6, 24))
    expect("classify powers", items["classify powers"] == "very_sparse"
           and workloads.growth_ratio(2, FIXED["powers"][1], 8) < 6)
    expect("count powers", items["count powers"] == inp["powers_exponent"])
    fib = [0, 1]
    while len(fib) < inp["eleven_free_exponent"] + 3:
        fib.append(fib[-1] + fib[-2])
    # n < 2^j without 11 in binary: words of length j with no 11, F(j + 2)
    expect("count eleven_free",
           items["count eleven_free"] == fib[inp["eleven_free_exponent"] + 2])
    big = inp["big_kernel"]
    if big is not None:
        pats = big["patterns"]
        big_member = lambda n: (n % big["m"] == big["c"]  # noqa: E731
                                and workloads.pattern_free(n, 2, pats))
        expect("reverse big_patterns", _table_agrees(
            items["reverse big_patterns"],
            lambda n: workloads.pattern_free(n, 2, pats), samples))
        expect("product big", _table_agrees(items["product big"], big_member,
                                            samples))
        expect("kernel big", isinstance(items["kernel big"], int)
               and items["kernel big"] >= prefix_census(big_member, 2, 8, 24))

    for name in ("baum_sweet", "patterns_b"):
        member = FIXED[name][1] if name in FIXED else members[name]
        expect(f"ips {name}", _ips_ok(items[f"ips {name}"], member,
                                      inp["ips_horizon"], inp["ips_depth"]))
    eleven = FIXED["eleven_free"][1]
    for name in ("fs_ok", "fs_bad"):
        expect(name, items[name] == finite_sums_check(eleven, inp[name]))
    grid = inp["growth_grid"]
    for name, member in (("patterns_b", members["patterns_b"]),
                         ("eleven_free", eleven)):
        got = items[f"growth {name}"]
        counts = []
        c = 0
        for n in range(max(grid)):
            if n in grid:
                counts.append([n, c])
            c += member(n)
        if max(grid) in grid:
            counts.append([max(grid), c])
        ok = isinstance(got, dict) and got["samples"] == counts
        if ok and name == "eleven_free":
            ok = got["regime"] == "power_law"
        expect(f"growth {name}", ok)
    bound = inp["normal_form_bound"]
    for i, shape in enumerate(inp["normal_forms"]):
        got = items[f"normal_form {i}"]
        ok = isinstance(got, dict)
        if ok:
            want = {v for v in pattern_members(2, shape, bound)
                    if v % got["modulus"] == got["residue"]}
            have = set()
            for parts in got["patterns"]:
                have |= pattern_members(got["block_base"], parts, bound)
            ok = bool(want) and want == have
        expect(f"normal_form {i}", ok)


def prefix_census(member, k: int, depth: int, prefix_len: int) -> int:
    """Distinct prefixes of n -> a(k^t n + r), t <= depth: a lower bound of
    the k-kernel size."""
    return len({tuple(int(member(k**t * n + r)) for n in range(prefix_len))
                for t in range(depth + 1) for r in range(k**t)})


def _ips_ok(w, member, horizon: int, depth: int) -> bool:
    if not isinstance(w, dict) or "error" in w:
        return False
    k = w["base"]
    for n in range(horizon + 1):
        v = member(k**w["l"] * n + w["p"])
        if member(k**w["m"] * n + w["r1"]) != v or \
                member(k**w["m"] * n + w["r2"]) != v:
            return False
    if not member(k**w["l"] * w["n0"] + w["p"]):
        return False
    gens, shifts = w["generators"], w["shifts"]
    for t in range(1, depth + 1):
        for size in range(1, t + 1):
            for alpha in itertools.combinations(range(t), size):
                if not member(sum(gens[i] for i in alpha) + shifts[t - 1]):
                    return False
    return True


def finite_sums_check(member, gens: list[int]) -> dict:
    """First subset (by size, then lexicographic) whose sum is outside."""
    for size in range(1, len(gens) + 1):
        for alpha in itertools.combinations(range(1, len(gens) + 1), size):
            v = sum(gens[i - 1] for i in alpha)
            if not member(v):
                return {"ok": False, "first_failure": list(alpha), "value": v}
    return {"ok": True, "first_failure": None, "value": None}


def pattern_members(k: int, parts, bound: int, cap: int = 48) -> set[int]:
    """Values below bound of the MSD words w0 u1^l1 w1 ... (l_i < cap)."""
    pumps = parts[1::2]
    out = set()
    for exps in itertools.product(range(cap), repeat=len(pumps)):
        digits = []
        for i, part in enumerate(parts):
            digits += list(part) * (exps[i // 2] if i % 2 else 1)
        v = 0
        for d in digits:
            v = v * k + d
        if v < bound:
            out.add(v)
    return out


# ---------------------------------------------------------------------------
# entry points


class Outcome:
    """Failed ops per item, and problems that are not tied to an op."""

    def __init__(self):
        self.failed: dict[str, int] = {}
        self.notes: list[str] = []
        self.problems: list[str] = []

    def fail(self, item: str, ops: int, note: str):
        self.failed[item] = self.failed.get(item, 0) + ops
        self.notes.append(f"{item}: {note}")

    def problem(self, note: str):
        self.problems.append(note)


def check(inputs: dict, items: dict, after) -> Outcome:
    out = Outcome()
    w = inputs["workload"]
    if w in ("surd-scan", "enclosure-scan"):
        check_gp(inputs, items, out)
        check_orbit(inputs, items, out)
    elif w == "pisot-cubic":
        check_pisot(inputs, items, after, out)
    else:
        check_automata(inputs, items, out)
    return out


def fault_point_values() -> list[tuple[str, int, int]]:
    """floor(c n) at the fault points from sympy's exact evaluation."""
    import sympy
    return [(c, n, int(sympy.floor({"pi": sympy.pi, "e": sympy.E}[c] * n)))
            for c, n in workloads.FAULT_POINTS]


if __name__ == "__main__":
    if sys.argv[1:] == ["--fault-points"]:
        for c, n, v in fault_point_values():
            print(f"floor({c} * 10^{len(str(n)) - 1}) = {v}")
    else:
        sys.exit("usage: oracle.py --fault-points")
