"""Seeded inputs of the four benchmark workloads.

Pure Python with no import of nilseq: the worker feeds these inputs to the
library and the oracle recomputes the expected outputs from the same
description, so both sides see exactly the same job.

Expressions are prefix s-expressions in the library's text format.  Every
other input is plain data (integers, fraction strings, digit tuples).
"""

from __future__ import annotations

import random

WORKLOADS = ("surd-scan", "enclosure-scan", "pisot-cubic", "automata")

# every precision policy of the job is PrecisionPolicy(START_BITS, MAX_BITS)
START_BITS = 64
MAX_BITS = 1024

SURDS = (2, 3, 5, 6, 7, 10, 11, 13)

PI = "pi"
E = "e"
ROOT5 = "(root 1 0 0 0 -1 -1 1 2)"        # real root of x^5 - x - 1
MIXED = "(* (root 1 0 0 -2 1 2) (sqrt 2))"  # cube root of 2 times sqrt 2
ROOT6 = "(root 1 0 0 0 0 0 -32 1 2)"       # the same number 2^(5/6), degree 6
ENCLOSURE_CONSTANTS = (PI, E, ROOT5, MIXED)

# floor(c n) for c = pi, e at n where n |c - fl(c)| > 1 (fl = nearest double):
# the library's enclosures of pi and e sit around fl(c), so these floors are
# wrong at every precision; kept as fixed points, counted as failed
FAULT_POINTS = tuple((c, 10**j) for c in (PI, E) for j in (17, 18, 19, 20))

PISOT_PARAMS = ((1, 0), (0, 1), (1, 1), (2, 1), (3, -1))


def _frac(rng: random.Random, num_hi: int, den_choices=(2, 3, 5, 7)) -> str:
    return f"{rng.randint(1, num_hi)}/{rng.choice(den_choices)}"


def _points(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    return [rng.randint(lo, hi) for _ in range(count)]


def _two_surds(rng: random.Random) -> tuple[int, int]:
    a, b = rng.sample(SURDS, 2)
    return a, b


# ---------------------------------------------------------------------------
# surd-scan and enclosure-scan: a GP phase and an orbit phase


def _surd_expressions(rng: random.Random) -> list[str]:
    out = []
    for _ in range(3):
        a, b = _two_surds(rng)
        p = _frac(rng, 9)
        out += [
            f"(floor (* (sqrt {a}) n (floor (* (sqrt {b}) n))))",
            f"(floor (+ (* (sqrt {a}) (pow n 2)) (* {p} n)))",
            f"(floor (* (+ (sqrt {a}) (sqrt {b})) n))",
            f"(floor (+ (* (sqrt {a}) n) (* (sqrt {b}) (floor (* {p} n)))))",
            f"(floor (* {p} n (floor (* {_frac(rng, 9)} n))))",
        ]
    return out


def _enclosure_expressions(rng: random.Random) -> list[str]:
    # every constant meets every other in a fixed pairing, so the mix of
    # cheap (pi, e) and costly (root, mixed) constants is the same on
    # every seed; the seed draws the rational coefficients and the points
    out = []
    for shift in (1, 2):
        for i, c in enumerate(ENCLOSURE_CONSTANTS):
            d = ENCLOSURE_CONSTANTS[(i + shift) % len(ENCLOSURE_CONSTANTS)]
            out += [
                f"(floor (* {c} n))",
                f"(floor (* {c} n (floor (* {d} n))))",
                f"(floor (+ (* {c} (pow n 2)) (* {_frac(rng, 9)} n)))",
            ]
    return out


def _gp_phase(rng: random.Random, exprs: list[str], irrational: str,
              equidist_expr: str, small: bool) -> dict:
    per_expr = 6 if small else 40
    points = [(e, n) for e in exprs for n in _points(rng, per_expr, 10, 10**4)]
    m_irr = rng.choice((2, 3, 5))
    m_rat = rng.choice((2, 3, 5))
    horizon = 160 if small else 600
    return {
        "points": points,
        # floor(p(n)) mod m for an irrational and a rational quadratic p
        "seq_irrational": {"coeffs": ["0", _frac(rng, 9), irrational],
                           "m": m_irr},
        "seq_rational": {"coeffs": [_frac(rng, 9), "0", _frac(rng, 9)],
                         "m": m_rat},
        "weak": {"q_max": 4, "offset_max": 40, "horizon": horizon},
        "census": {"k": 2, "depth": 3 if small else 5, "prefix_len": 16},
        "equidist": {"expr": equidist_expr, "n_samples": 60 if small else 400,
                     "bins": 10},
    }


def _orbit_phase(rng: random.Random, alpha: str, beta: str, residue: dict,
                 probe: bool, small: bool) -> dict:
    n_res = 20 if small else 150
    n_heis = 20 if small else 200
    suffix_len = rng.choice((1, 2))
    suffix = [1] + [rng.randrange(2) for _ in range(suffix_len - 1)]
    phase = {
        "alpha": alpha,
        "beta": beta,
        "residue": dict(residue, points=[
            (n, rng.randrange(residue["m"]))
            for n in _points(rng, n_res, 0, 10**5)]),
        "heisenberg": _points(rng, n_heis, 1, 10**5),
        # eps is far below any distance met up to n_max, so the scan runs
        # to exhaustion; the oracle confirms there is no hit
        "scan": {"eps": "1/1000000000000", "base": 2, "suffix": suffix,
                 "n_max": 2 * 2**suffix_len * (60 if small else 250)},
    }
    if probe:
        phase["probe"] = {"t": rng.randint(1, 3), "l_bound": 3 if small else 5}
    return phase


def surd_scan(seed: int, small: bool = False) -> dict:
    rng = random.Random(f"surd-scan:{seed}")
    a, b = _two_surds(rng)
    gp = _gp_phase(rng, _surd_expressions(rng), f"(sqrt {a})",
                   f"(* (sqrt {a}) n (floor (* (sqrt {b}) n)))", small)
    c, d = _two_surds(rng)
    m = rng.choice((3, 5, 7))
    residue = {"poly": [_frac(rng, 9), _frac(rng, 9), f"(sqrt {c})"], "m": m}
    orbit = _orbit_phase(rng, f"(* {_frac(rng, 5)} (sqrt {c}))",
                         f"(sqrt {d})", residue, probe=True, small=small)
    return {"workload": "surd-scan", "seed": seed, "gp": gp, "orbit": orbit}


def enclosure_scan(seed: int, small: bool = False) -> dict:
    rng = random.Random(f"enclosure-scan:{seed}")
    gp = _gp_phase(rng, _enclosure_expressions(rng), PI,
                   f"(* {ROOT5} n (floor (* {E} n)))", small)
    # large n: each point gets its own parse, so each starts cold at 64 bits
    # and has to climb the ladder
    gp["large_points"] = [(f"(floor (* {c} n))", n)
                          for c in (ROOT5, MIXED)
                          for n in _points(rng, 2 if small else 8,
                                           10**24, 10**26)]
    gp["fault_points"] = [(f"(floor (* {c} n))", n) for c, n in FAULT_POINTS]
    # the skew system takes constants, not expressions
    residue = {"a0": _frac(rng, 5), "coeffs": [PI, ROOT5],
               "m": rng.choice((3, 5, 7))}
    # the orbit constants avoid pi and e, whose enclosures exclude them
    orbit = _orbit_phase(rng, ROOT5, ROOT6, residue, probe=False, small=small)
    return {"workload": "enclosure-scan", "seed": seed, "gp": gp,
            "orbit": orbit}


# ---------------------------------------------------------------------------
# pisot-cubic


def pisot_cubic(seed: int, small: bool = False) -> dict:
    rng = random.Random(f"pisot-cubic:{seed}")
    params = list(PISOT_PARAMS)
    rng.shuffle(params)
    q_max = 40 if small else 150
    return {
        "workload": "pisot-cubic", "seed": seed,
        "params": params,
        "q_max": q_max,
        "replay_qs": {f"{a},{b}": sorted(rng.sample(range(1, 4 * q_max), 6))
                      for a, b in params},
    }


# ---------------------------------------------------------------------------
# automata


def growth_ratio(k: int, member, short: int | None = None) -> float:
    """Members with 2L digits over members with L digits, by brute force:
    about k^(hL) for a set of entropy h > 0, a small constant for a set
    with polynomially many members."""
    def count(length: int) -> int:
        return sum(1 for n in range(k**(length - 1), k**length) if member(n))
    if short is None:
        short = 6 if k == 2 else 3
    return count(2 * short) / max(count(short), 1)


# a set whose growth ratio exceeds this has positive entropy; polynomially
# sparse sets (powers, rank-2 patterns) stay below 6
ENTROPY_RATIO = 12


def digit_string(n: int, k: int) -> str:
    """Canonical MSD base-k expansion as a string of digit characters."""
    out = []
    while n:
        n, d = divmod(n, k)
        out.append(str(d))
    return "".join(reversed(out))


def pattern_free(n: int, k: int, patterns) -> bool:
    s = digit_string(n, k)
    return not any("".join(map(str, p)) in s for p in patterns)


def _pattern_set(rng: random.Random, k: int) -> list[tuple[int, ...]]:
    while True:
        pats = [tuple(rng.randrange(k) for _ in range(rng.randint(2, 4)))
                for _ in range(rng.randint(1, 3))]
        if all(any(p) for p in pats) and growth_ratio(
                k, lambda n: pattern_free(n, k, pats)) > ENTROPY_RATIO:
            return pats


# rank-2 digit patterns w0 u1^l1 w1 u2^l2 w2 (base 2) whose progression
# normal form the library reaches
NORMAL_FORM_SHAPES = (
    [(1,), (0,), (1,), (0,), (1,)],
    [(1, 1), (0,), (1,), (0, 0), (1,)],
    [(1,), (0, 0), (1,), (0,), (1, 1)],
    [(1, 0, 1), (0,), (1,), (0,), (1,)],
    [(1,), (0,), (1, 1), (0,), (1,)],
)


def automata(seed: int, small: bool = False) -> dict:
    rng = random.Random(f"automata:{seed}")
    k1, k2 = rng.choice((3, 4)), 2
    pat_a = _pattern_set(rng, k1)
    pat_b = _pattern_set(rng, k2)
    m = rng.choice((5, 7, 9, 11))
    mod = {"kind": "mod", "k": 2, "m": m, "c": rng.randrange(m)}
    auts = {
        "patterns_a": {"kind": "patterns", "k": k1, "patterns": pat_a},
        "patterns_b": {"kind": "patterns", "k": k2, "patterns": pat_b},
        "mod": mod,
        "mod_and_b": {"kind": "and", "k": 2, "parts": ["mod", "patterns_b"]},
    }
    # kernel keeps a per-residue map whose size grows like k^depth; this
    # fixed 1,012-state LSD product (n = 3 mod 23 read LSD first, and no
    # 111 in base 2) costs about 2 s and 160 MB.  It is not seeded, because
    # the depth, and so the cost, jumps with the residue modulus.
    big_kernel = None if small else {"m": 23, "c": 3, "patterns": [(1, 1, 1)]}
    shapes = rng.sample(NORMAL_FORM_SHAPES, 2)
    gens_ok = sorted(rng.sample(range(1, 40), 14 if not small else 8))
    gens_ok = [4**e for e in gens_ok]
    doubled = 2 * gens_ok[rng.randrange(len(gens_ok) - 1)]
    gens_bad = sorted(gens_ok[:-1] + [doubled])
    return {
        "workload": "automata", "seed": seed,
        "automata": auts,
        "big_kernel": big_kernel,
        "count_bounds": {name: rng.randint(2000, 8000) for name in auts},
        "powers_exponent": rng.randint(40, 200),
        "eleven_free_exponent": rng.randint(40, 200),
        "ips_horizon": 2000 if small else 20000,
        "ips_depth": 10,
        # sums of distinct powers of 4 have isolated 1 bits, so they avoid
        # 11; doubling one generator makes adjacent bits appear in a sum
        "fs_ok": gens_ok,
        "fs_bad": gens_bad,
        "growth_grid": [2**e for e in range(4, 15, 2)],
        "normal_forms": shapes,
        "normal_form_bound": 1 << 32,
    }


def build(workload: str, seed: int, small: bool = False) -> dict:
    makers = {"surd-scan": surd_scan, "enclosure-scan": enclosure_scan,
              "pisot-cubic": pisot_cubic, "automata": automata}
    if workload not in makers:
        raise SystemExit(f"unknown workload {workload!r}")
    return makers[workload](seed, small)
