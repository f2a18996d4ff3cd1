"""Runs one benchmark workload against nilseq's public API.

Started by run.py with PYTHONPATH=src and NILSEQ_MAX_BITS pinned.  The
worker imports the library, builds the seeded inputs (the set-up), prints
READY, then repeats the workload's fixed job in whole rounds until the run
length has passed.  It prints one JSON line: the outputs of the first
round, the ops of later rounds whose output differed from it, the time of
each round and phase, peak RSS, and, when traced, the per-layer counters.

Library functions are always called through their module (``G.eval_gp``),
so the tracing wrappers installed on those modules see every call.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# serialisation of library values


def encode(v):
    """Library values as JSON data: fractions as "p/q" strings, surd sums
    as {"surd": {d: coeff}} with d = 1 for the rational part."""
    from nilseq.exactreal import CubicElem, IntervalValue, QuadElem, SurdSum

    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, QuadElem):
        return {"surd": {"1": str(v.a), str(v.d): str(v.b)}}
    if isinstance(v, SurdSum):
        terms = {"1": str(v.rat)}
        terms.update({str(d): str(c) for c, d in v.terms})
        return {"surd": terms}
    if isinstance(v, CubicElem):
        return {"cubic": [str(c) for c in v.c]}
    if isinstance(v, IntervalValue):
        return {"iv": [str(v.lower), str(v.upper)]}
    if isinstance(v, (list, tuple)):
        return [encode(x) for x in v]
    raise TypeError(f"cannot encode {type(v).__name__}")


def table(dfao) -> dict:
    return {"base": dfao.base, "order": dfao.order.value,
            "initial": dfao.initial, "outputs": list(dfao.outputs),
            "transitions": [list(row) for row in dfao.transitions]}


class Round:
    """Outputs of one round: items of (id, ops, value), plus phase times."""

    def __init__(self):
        self.items: list[tuple[str, int, object]] = []
        self.phase_s: list[float] = []
        self.phase_ops: list[int] = []

    def op(self, item_id: str, ops: int, fn):
        try:
            value = fn()
        except Exception as exc:  # every failure is an output to check
            value = {"error": type(exc).__name__}
        self.items.append((item_id, ops, value))

    def each(self, item_id: str, args, fn):
        """One item covering len(args) ops; a raising op fails alone."""
        values = []
        for a in args:
            try:
                values.append(fn(a))
            except Exception as exc:
                values.append({"error": type(exc).__name__})
        self.items.append((item_id, len(args), values))


# ---------------------------------------------------------------------------
# the workloads


class ScanJob:
    """surd-scan and enclosure-scan: a GP phase, then an orbit phase."""

    def __init__(self, inputs):
        from nilseq import genpoly as G

        self.inp = inputs
        self.policy = G.PrecisionPolicy(start_bits=workloads.START_BITS,
                                        max_bits=workloads.MAX_BITS)

    def constant(self, src: str):
        from nilseq import genpoly as G
        from nilseq.exactreal import ExactReal

        expr = G.parse_gp(src)
        if isinstance(expr, G.Const):
            return expr.value
        return ExactReal.from_exact(G.eval_gp(expr, 0, self.policy).exact)

    def gp_phase(self, rnd: Round):
        from nilseq import genpoly as G

        gp = self.inp["gp"]
        policy = self.policy
        parsed = {}

        def point(src_n):
            src, n = src_n
            if src not in parsed:
                parsed[src] = G.parse_gp(src)
            return G.eval_gp(parsed[src], n, policy).integer_value

        def cold_point(src_n):
            src, n = src_n
            return G.eval_gp(G.parse_gp(src), n, policy).integer_value

        rnd.each("points", gp["points"], point)
        if "large_points" in gp:
            rnd.each("large_points", gp["large_points"], cold_point)
            rnd.each("fault_points", gp["fault_points"], cold_point)
        weak = gp["weak"]
        horizon = weak["horizon"]
        for name in ("seq_irrational", "seq_rational"):
            spec = gp[name]
            seq = G.floor_poly_mod([G.parse_gp(c) for c in spec["coeffs"]],
                                   spec["m"], policy)
            rnd.op(f"weak_{name}", 1, lambda: G.weak_periodicity_search(
                seq, weak["q_max"], weak["offset_max"], horizon))
            if name == "seq_irrational":
                c = gp["census"]
                rnd.op("census", 1, lambda: G.kernel_census(
                    seq, c["k"], c["depth"], c["prefix_len"]))
            # values are cached by the search; a point it never reached is
            # evaluated here
            rnd.each(name, range(horizon + 1), seq)
        eq = gp["equidist"]

        def equidist():
            rep = G.equidistribution_test(G.parse_gp(eq["expr"]), 1,
                                          Fraction(1), eq["n_samples"],
                                          eq["bins"], policy)
            return {"histogram": rep.histogram,
                    "star": repr(rep.star_discrepancy)}

        rnd.op("equidist", eq["n_samples"], equidist)

    def orbit_phase(self, rnd: Round):
        from nilseq import digits as D
        from nilseq import orbits as O

        orb = self.inp["orbit"]
        alpha = self.constant(orb["alpha"])
        beta = self.constant(orb["beta"])
        res = orb["residue"]
        if "poly" in res:
            system = O.TorusSkewSystem.from_poly(
                [self.constant(c) for c in res["poly"]], res["m"])
        else:
            system = O.TorusSkewSystem(
                tuple(self.constant(c) for c in res["coeffs"]),
                Fraction(res["a0"]))
        rnd.each("residue", res["points"],
                 lambda p: O.residue_indicator(system, None, res["m"], p[1],
                                               p[0]))
        rnd.each("heisenberg", orb["heisenberg"],
                 lambda n: encode(O.heisenberg_fracpart(alpha, beta, n,
                                                        cross_check=True)))
        sc = orb["scan"]
        suffix = D.DigitWord(sc["base"], tuple(sc["suffix"]))
        step = sc["base"] ** len(suffix)
        n_scanned = len(range(suffix.value, sc["n_max"] + 1, step))

        def scan():
            hit = O.suffix_hit_scan(alpha, beta,
                                    O.EpsilonSchedule.constant(Fraction(sc["eps"])),
                                    sc["base"], suffix, sc["n_max"])
            return None if hit is None else hit.n

        rnd.op("scan", n_scanned, scan)
        if "probe" in orb:
            pr = orb["probe"]
            pairs = (2 * pr["l_bound"] + 1) ** 2 - 1

            def probe():
                rep = O.horizontal_character_probe(alpha, beta, pr["t"],
                                                   pr["l_bound"])
                return {"best": list(rep.best), "iv": encode(rep.value),
                        "degenerate": rep.degenerate}

            rnd.op("probe", pairs, probe)

    phases = ("gp_phase", "orbit_phase")


class PisotJob:
    """pisot-cubic: the predicate over q <= Q, then best approximations and
    the nearest-power check, for each (a, b)."""

    def __init__(self, inputs):
        from nilseq import recurrence as R

        self.inp = inputs
        self.cases = []
        for a, b in inputs["params"]:
            params = R.pisot_cubic_check(a, b)
            self.cases.append((f"{a},{b}", params, R.PisotGpPredicate(params)))

    def predicate_phase(self, rnd: Round):
        q_max = self.inp["q_max"]
        for key, _, pred in self.cases:
            rnd.op(f"pred {key}", q_max,
                   lambda: [q for q in range(1, q_max + 1) if pred(q)])

    def bestapprox_phase(self, rnd: Round):
        from nilseq import recurrence as R

        q_max = self.inp["q_max"]
        for key, params, _ in self.cases:
            def best():
                rep = R.best_approximations(params, q_max)
                return [[r.q, list(r.nearest), encode(r.norm_sq)]
                        for r in rep.flagged]

            def nearest():
                rep = R.nearest_power_set_equiv(params)
                return {"u": encode(list(rep.u_coeffs)),
                        "max_residual": repr(rep.max_residual),
                        "residual_from": rep.residual_from,
                        "ok": rep.ok}

            rnd.op(f"best {key}", q_max, best)
            rnd.op(f"nearest {key}", 1, nearest)

    phases = ("predicate_phase", "bestapprox_phase")

    def after(self) -> dict:
        """interval_replay at 256 and 1024 bits beside the exact predicate,
        outside the timed rounds."""
        out = {}
        for key, _, pred in self.cases:
            out[key] = [[q, pred(q), pred.interval_replay(q, 256),
                         pred.interval_replay(q, 1024)]
                        for q in self.inp["replay_qs"][key]]
        return out


def residue_automaton(k: int, m: int, c: int, order: str):
    """n = c (mod m) in the library's text format: MSD states are residues,
    LSD states are (residue, k^t mod m)."""
    from nilseq import automaton as A

    lines = [f"base {k}", f"order {order}", "initial 0"]
    if order == "msd":
        for r in range(m):
            arrows = " ".join(f"{d}->{(r * k + d) % m}" for d in range(k))
            lines.append(f"state {r} output {int(r == c)} : {arrows}")
    else:
        period = 1
        while pow(k, period, m) != 1:
            period += 1
        for r in range(m):
            for t in range(period):
                w = pow(k, t, m)
                arrows = " ".join(
                    f"{d}->{((r + d * w) % m) * period + (t + 1) % period}"
                    for d in range(k))
                lines.append(f"state {r * period + t} output {int(r == c)} : "
                             f"{arrows}")
    return A.parse_automaton("\n".join(lines) + "\n")


def both(x, y):
    return x & y


class AutomataJob:
    """automata: the transform phase, then the evaluation-heavy witness
    phase."""

    def __init__(self, inputs):
        from nilseq import automaton as A

        self.inp = inputs
        self.auts = {}
        for name, spec in inputs["automata"].items():
            if spec["kind"] == "patterns":
                self.auts[name] = A.from_prohibited_patterns(
                    spec["k"], [tuple(p) for p in spec["patterns"]])
            elif spec["kind"] == "mod":
                self.auts[name] = residue_automaton(spec["k"], spec["m"],
                                                    spec["c"], "msd")
        self.powers = A.powers_acceptor(2)
        self.eleven_free = A.from_prohibited_patterns(2, [(1, 1)])
        self.baum_sweet = A.baum_sweet()
        big = inputs["big_kernel"]
        if big is not None:
            self.big_mod = residue_automaton(2, big["m"], big["c"], "lsd")
            self.big_patterns = A.from_prohibited_patterns(
                2, [tuple(p) for p in big["patterns"]])

    def transform_phase(self, rnd: Round):
        from nilseq import automaton as A
        from nilseq import sparsity as S

        inp = self.inp
        auts = dict(self.auts)
        rnd.op("product mod_and_b", 1, lambda: table(auts.setdefault(
            "mod_and_b", A.product(auts["mod"], auts["patterns_b"], both))))
        for name in ("patterns_a", "patterns_b", "mod", "mod_and_b"):
            d = auts.get(name)  # None if its product failed: its ops fail
            if name != "mod_and_b":
                rnd.op(f"reverse {name}", 1, lambda: table(A.reverse_reading(d)))
                rnd.op(f"minimize {name}", 1, lambda: table(A.minimize(d)))
                rnd.op(f"base_power {name}", 1, lambda: table(A.base_power(d, 2)))
            rnd.op(f"classify {name}", 1, lambda: S.classify(d).variant)
            rnd.op(f"count {name}", 1, lambda: A.count_accepted_below(
                d, inp["count_bounds"][name]))
        rnd.op("kernel patterns_b", 1, lambda: A.kernel(auts["patterns_b"]).size)
        rnd.op("kernel mod_and_b", 1, lambda: A.kernel(auts["mod_and_b"]).size)
        rnd.op("classify powers", 1, lambda: S.classify(self.powers).variant)
        rnd.op("count powers", 1, lambda: A.count_accepted_below(
            self.powers, 2 ** inp["powers_exponent"]))
        rnd.op("count eleven_free", 1, lambda: A.count_accepted_below(
            self.eleven_free, 2 ** inp["eleven_free_exponent"]))
        if inp["big_kernel"] is not None:
            big = {}
            rnd.op("reverse big_patterns", 1, lambda: table(big.setdefault(
                "rev", A.reverse_reading(self.big_patterns))))
            rnd.op("product big", 1, lambda: table(big.setdefault(
                "prod", A.product(self.big_mod, big["rev"], both))))
            rnd.op("kernel big", 1, lambda: A.kernel(big["prod"]).size)

    def witness_phase(self, rnd: Round):
        from nilseq import ipsets as I
        from nilseq import sparsity as S

        inp = self.inp
        for name, d in (("baum_sweet", self.baum_sweet),
                        ("patterns_b", self.auts["patterns_b"])):
            def ips():
                w = S.ips_witness(d, inp["ips_horizon"], inp["ips_depth"])
                return {f: getattr(w, f) for f in
                        ("base", "l", "m", "p", "r1", "r2", "n0")} | {
                    "generators": list(w.generators),
                    "shifts": list(w.shifts)}
            rnd.op(f"ips {name}", 1, ips)
        for name in ("fs_ok", "fs_bad"):
            gens = inp[name]

            def fs():
                chk = I.contains_fs(self.eleven_free.eval,
                                    I.IpGenerators(tuple(gens)), len(gens))
                return {"ok": chk.ok, "first_failure": chk.first_failure and
                        list(chk.first_failure), "value": chk.failure_value}
            rnd.op(name, 1, fs)
        for name, d in (("patterns_b", self.auts["patterns_b"]),
                        ("eleven_free", self.eleven_free)):
            def growth():
                rep = S.growth_census(d, inp["growth_grid"])
                return {"samples": [list(s) for s in rep.samples],
                        "regime": rep.regime[0]}
            rnd.op(f"growth {name}", 1, growth)
        for i, shape in enumerate(inp["normal_forms"]):
            def normal_form():
                decomp = S.make_decomposition(2, [[tuple(w) for w in shape]])
                nf = S.normalize_arith_progression(decomp, 1 << 40)
                return {"block_base": nf.block_base, "modulus": nf.modulus,
                        "residue": nf.residue,
                        "patterns": [[list(p) for p in pat.parts]
                                     for pat in nf.decomposition().basic_sets]}
            rnd.op(f"normal_form {i}", 1, normal_form)

    phases = ("transform_phase", "witness_phase")


JOBS = {"surd-scan": ScanJob, "enclosure-scan": ScanJob,
        "pisot-cubic": PisotJob, "automata": AutomataJob}


# ---------------------------------------------------------------------------
# the run


def run_round(job) -> Round:
    rnd = Round()
    for name in job.phases:
        t0 = time.perf_counter()
        getattr(job, name)(rnd)
        rnd.phase_s.append(time.perf_counter() - t0)
        rnd.phase_ops.append(sum(ops for _, ops, _ in rnd.items)
                             - sum(rnd.phase_ops))
    return rnd


def run_rounds(job, seconds: float, first: Round | None, record: dict):
    """Whole rounds until ``seconds`` have passed; each round's outputs are
    compared with the first round's."""
    deadline = time.perf_counter() + seconds
    while True:
        rnd = run_round(job)
        encoded = [json.dumps(v) for _, _, v in rnd.items]
        if first is None:
            first, record["first_encoded"] = rnd, encoded
        else:
            record["changed"].append(
                [i for i, (a, b) in enumerate(zip(encoded,
                                                  record["first_encoded"]))
                 if a != b])
        record["round_s"].append(sum(rnd.phase_s))
        record["phase_s"].append(rnd.phase_s)
        if time.perf_counter() >= deadline:
            return first


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import nilseq  # noqa: F401  (set-up starts with the library's import)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    inputs = workloads.build(args.workload, args.seed, args.small)
    job = JOBS[args.workload](inputs)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    record = {"round_s": [], "phase_s": [], "changed": []}
    result = {}
    if tracer is not None:
        setup_stats = tracer.take()
        tracer.uninstall()
        first = run_rounds(job, args.seconds / 2, None, record)
        untraced = list(record["round_s"])
        tracer.install()
        n_before = len(record["round_s"])
        run_rounds(job, args.seconds / 2, first, record)
        tracer.uninstall()
        traced_rounds = len(record["round_s"]) - n_before
        result["layers"] = tracer.metrics(tracer.take(), setup_stats,
                                          traced_rounds)
        result["layers"]["trace.untraced_run_s"] = statistics.median(untraced)
        traced = statistics.median(record["round_s"][n_before:])
        result["layers"]["trace.traced_run_s"] = traced
        result["layers"]["trace.overhead_ratio"] = (
            traced / result["layers"]["trace.untraced_run_s"] - 1)
    else:
        first = run_rounds(job, args.seconds, None, record)
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024)
    result["items"] = first.items
    result["phase_ops"] = first.phase_ops
    result["after"] = job.after() if hasattr(job, "after") else None
    result.update(round_s=record["round_s"], phase_s=record["phase_s"],
                  changed=record["changed"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
