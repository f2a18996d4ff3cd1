"""Per-layer spans recorded from the benchmark's side of the API.

``Tracer.install`` replaces library functions with timing wrappers: the
names a module imported from another layer (``nilseq.genpoly.exact_floor``)
and public methods (``IntervalValue.__add__``, ``Dfao.eval``, ...).  Spans
nest on a stack, so a span's self time excludes the time of the spans it
caused.  Spans are folded into per-key totals as they close (calls,
inclusive seconds, self seconds) rather than kept one by one: a round makes
about a million of them.  ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.stack: list[list] = []
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, incl, self
        self.counts = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def span(self, fn, key, after=None):
        """Wrap fn; key is a string or a function of the call's args."""
        stack, stats, clock = self.stack, self.stats, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, False, key]  # child seconds, enclosure floor seen
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                s = stats[key(args) if callable(key) else key]
                s[0] += 1
                s[1] += dt
                s[2] += dt - frame[0]
            if after is not None:
                after(args, result, frame)
            return result

        return wrapper

    def patch(self, owner, name: str, key, after=None):
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, self.span(original, key, after))

    def uninstall(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def take(self):
        stats, counts = dict(self.stats), dict(self.counts)
        self.stats.clear()
        self.counts.clear()
        return stats, counts

    # -- the layers ------------------------------------------------------

    def install(self):
        from nilseq import automaton, digits, exactreal, genpoly, ipsets
        from nilseq import orbits, recurrence, sparsity

        counts = self.counts
        X = exactreal

        def floor_kind(args):
            kind = {X.QuadElem: "quad", X.SurdSum: "surdsum",
                    X.CubicElem: "cubic"}.get(type(args[0]), "rational")
            return f"exactreal.floor.{kind}"

        for mod in (genpoly, orbits, recurrence):
            for name, key in (("exact_floor", floor_kind),
                              ("exact_sign", "exactreal.sign"),
                              ("exact_compare", "exactreal.sign"),
                              ("exact_add", "exactreal.arith"),
                              ("exact_mul", "exactreal.arith"),
                              ("exact_neg", "exactreal.arith"),
                              ("exact_enclosure", "exactreal.enclosure")):
                if hasattr(mod, name):
                    self.patch(mod, name, key)
        self.patch(X.ExactReal, "enclosure", "exactreal.enclosure")
        self.patch(X.IntervalValue, "__add__", "exactreal.interval")
        self.patch(X.IntervalValue, "__mul__", "exactreal.interval")

        def floor_resolved(args, result, frame):
            if result is not None:
                counts["interval.floor.resolved"] += 1
                # a floor genpoly decided from an enclosure, not one inside
                # the exact layer's own refinement
                if self.stack and self.stack[-1][2] == "genpoly.eval":
                    self.stack[-1][1] = True

        self.patch(X.IntervalValue, "floor_resolved", "exactreal.interval.floor",
                   floor_resolved)
        self.patch(X.CubicField, "refine", "exactreal.refine")

        def eval_done(args, result, frame):
            counts["eval.enclosure_decided" if frame[1]
                   else "eval.exact_decided"] += 1
            start = args[2].start_bits if len(args) > 2 else 64
            if result.bits_used > start:
                counts["eval.escalated"] += 1
            counts["eval.max_bits"] = max(counts["eval.max_bits"],
                                          result.bits_used)

        self.patch(genpoly, "eval_gp", "genpoly.eval", eval_done)
        self.patch(genpoly.Seq, "__call__", "genpoly.seq")
        seq_init = genpoly.Seq.__init__
        span = self.span

        def init(seq, fn, *args, **kwargs):
            seq_init(seq, span(fn, "genpoly.seq.fn"), *args, **kwargs)

        self._saved.append((genpoly.Seq, "__init__", seq_init))
        genpoly.Seq.__init__ = init

        self.patch(recurrence.PisotGpPredicate, "__call__", "recurrence.predicate")
        self.patch(recurrence.PisotGpPredicate, "_calibrate",
                   "recurrence.calibrate")
        self.patch(recurrence.PisotCubicParams, "zb_sign", "recurrence.zb_sign")

        def best_done(args, result, frame):
            counts["bestapprox.q"] += args[1]

        self.patch(recurrence, "best_approximations", "recurrence.bestapprox",
                   best_done)

        self.patch(orbits, "residue_indicator", "orbits.residue")
        self.patch(orbits, "heisenberg_fracpart", "orbits.heisenberg")

        def scan_done(args, result, frame):
            step = args[3] ** len(args[4])
            last = args[5] if result is None else result.n
            counts["scan.n"] += len(range(args[4].value, last + 1, step))

        self.patch(orbits, "suffix_hit_scan", "orbits.scan", scan_done)

        def probe_done(args, result, frame):
            counts["probe.pairs"] += (2 * args[3] + 1) ** 2 - 1

        self.patch(orbits, "horizontal_character_probe", "orbits.probe",
                   probe_done)

        def reverse_done(args, result, frame):
            counts["reverse.states_out"] += result.n_states

        self.patch(automaton, "reverse_reading", "automaton.reverse",
                   reverse_done)
        for mod in (automaton, sparsity):
            self.patch(mod, "minimize", "automaton.minimize")
            self.patch(mod, "product", "automaton.product")
            self.patch(mod, "count_accepted_below", "automaton.count_below")
        self.patch(automaton, "base_power", "automaton.base_power")
        self.patch(automaton, "kernel", "automaton.kernel")
        self.patch(automaton.Dfao, "eval", "automaton.eval")
        for mod in (digits, automaton, sparsity):
            self.patch(mod, "to_digits", "digits.to_digits")
        self.patch(sparsity, "classify", "sparsity.classify")
        self.patch(sparsity, "ips_witness", "sparsity.ips_witness")
        self.patch(sparsity, "growth_census", "sparsity.growth")
        self.patch(sparsity, "normalize_arith_progression", "sparsity.normalize")

        contains_fs = ipsets.contains_fs

        def counted_fs(pred, *args, **kwargs):
            def counted(n):
                counts["fs.sums"] += 1
                return pred(n)
            return contains_fs(counted, *args, **kwargs)

        self._saved.append((ipsets, "contains_fs", contains_fs))
        ipsets.contains_fs = self.span(counted_fs, "ipsets.contains_fs")

    # -- metrics ---------------------------------------------------------

    def metrics(self, taken, setup_taken, rounds: int) -> dict:
        """Per-layer metrics: counts and seconds per round, microseconds of
        self time per call, ratios with their base stated in the README."""
        stats, counts = taken
        setup_stats, _ = setup_taken

        def calls(key):
            return stats.get(key, [0, 0.0, 0.0])[0] / rounds

        def self_us(key):
            c, _, own = stats.get(key, [0, 0.0, 0.0])
            return own / c * 1e6 if c else 0.0

        def incl_s(key, source=stats, per=rounds):
            return source.get(key, [0, 0.0, 0.0])[1] / per

        def per_unit_us(key, unit):
            n = counts.get(unit, 0)
            return stats[key][1] / n * 1e6 if n else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        m = {}
        for kind in ("quad", "surdsum", "cubic"):
            m[f"exactreal.floor.{kind}.calls"] = calls(f"exactreal.floor.{kind}")
            m[f"exactreal.floor.{kind}.us"] = self_us(f"exactreal.floor.{kind}")
        m["exactreal.sign.us"] = self_us("exactreal.sign")
        m["exactreal.arith.calls"] = calls("exactreal.arith")
        m["exactreal.arith.us"] = self_us("exactreal.arith")
        m["exactreal.enclosure.calls"] = calls("exactreal.enclosure")
        m["exactreal.enclosure.us"] = self_us("exactreal.enclosure")
        m["exactreal.interval.ops"] = calls("exactreal.interval")
        m["exactreal.interval.us"] = self_us("exactreal.interval")
        attempts = stats.get("exactreal.interval.floor", [0])[0]
        m["exactreal.interval.floor.attempts"] = attempts / rounds
        m["exactreal.interval.floor.resolved_ratio"] = ratio(
            counts.get("interval.floor.resolved", 0), attempts)
        m["exactreal.refine.calls"] = calls("exactreal.refine")
        m["exactreal.refine.s"] = incl_s("exactreal.refine")
        m["genpoly.eval.points"] = calls("genpoly.eval")
        m["genpoly.eval.self_us"] = self_us("genpoly.eval")
        m["genpoly.eval.exact_decided"] = counts.get("eval.exact_decided", 0) / rounds
        m["genpoly.eval.enclosure_decided"] = (
            counts.get("eval.enclosure_decided", 0) / rounds)
        m["genpoly.ladder.escalated"] = counts.get("eval.escalated", 0) / rounds
        m["genpoly.ladder.max_bits"] = counts.get("eval.max_bits", 0)
        m["genpoly.seq.hit_ratio"] = 1 - ratio(
            stats.get("genpoly.seq.fn", [0])[0],
            stats.get("genpoly.seq", [0])[0]) if "genpoly.seq" in stats else 0.0
        m["recurrence.predicate.us"] = self_us("recurrence.predicate")
        m["recurrence.zb_sign.calls"] = calls("recurrence.zb_sign")
        m["recurrence.zb_sign.us"] = self_us("recurrence.zb_sign")
        m["recurrence.bestapprox.us_per_q"] = (
            per_unit_us("recurrence.bestapprox", "bestapprox.q"))
        m["recurrence.calibrate.s"] = incl_s("recurrence.calibrate",
                                             setup_stats, 1)
        m["orbits.residue.us"] = self_us("orbits.residue")
        m["orbits.heisenberg.us"] = self_us("orbits.heisenberg")
        m["orbits.scan.us_per_n"] = per_unit_us("orbits.scan", "scan.n")
        m["orbits.probe.us_per_pair"] = per_unit_us("orbits.probe",
                                                    "probe.pairs")
        m["automaton.reverse.s"] = incl_s("automaton.reverse")
        m["automaton.reverse.states_out"] = (
            counts.get("reverse.states_out", 0) / rounds)
        m["automaton.minimize.s"] = incl_s("automaton.minimize")
        m["automaton.product.s"] = incl_s("automaton.product")
        m["automaton.base_power.s"] = incl_s("automaton.base_power")
        m["automaton.kernel.s"] = incl_s("automaton.kernel")
        m["automaton.count_below.us"] = self_us("automaton.count_below")
        m["automaton.eval.calls"] = calls("automaton.eval")
        m["automaton.eval.us"] = self_us("automaton.eval")
        m["digits.to_digits.calls"] = calls("digits.to_digits")
        m["digits.to_digits.us"] = self_us("digits.to_digits")
        m["sparsity.classify.s"] = incl_s("sparsity.classify")
        m["sparsity.ips_witness.s"] = incl_s("sparsity.ips_witness")
        m["sparsity.growth.s"] = incl_s("sparsity.growth")
        m["sparsity.normalize.s"] = incl_s("sparsity.normalize")
        m["ipsets.contains_fs.s"] = incl_s("ipsets.contains_fs")
        m["ipsets.sums_checked"] = counts.get("fs.sums", 0) / rounds
        return m
