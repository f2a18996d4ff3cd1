"""Command-line front end: dispatch, reports, demos, and replay verification.

Reports are JSON on stdout (CSV for bulk numeric series).  Every claimed
witness carries the data needed to re-check it without re-running any
search; ``nilseq verify`` replays those checks.  Exit codes: 0 success,
1 usage error, 2 precision exhausted, 3 search/state budget exhausted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from typing import Optional

from . import __version__
from .automaton import (
    BudgetExceeded,
    Dfao,
    canonical,
    check_pumping_witness,
    count_accepted_below,
    format_automaton,
    kernel,
    minimize,
    parse_automaton,
    pumping_witness,
    reverse_reading,
    to_lsd,
)
from .digits import DigitWord
from .exactreal import (
    ExactReal,
    IntervalValue,
    PrecisionExhausted,
    PrecisionPolicy,
    default_max_bits,
    exact_enclosure,
    to_interval,
)
from .genpoly import (
    CONST_NAMES,
    equidistribution_test,
    eval_gp,
    parse_gp,
    set_compare,
)
from .ipsets import (
    IpGenerators,
    IpsFamily,
    contains_fs,
    finite_sums,
    geometric_generators,
    shifted_finite_sums,
)
from .orbits import (
    EpsilonSchedule,
    TorusSkewSystem,
    heisenberg_fracpart,
    horizontal_character_probe,
    residue_indicator,
    skew_orbit_point,
    suffix_hit_scan,
)
from .recurrence import (
    InvalidPisot,
    PisotGpPredicate,
    best_approximations,
    cubic_terms,
    nearest_power_set_equiv,
    pisot_cubic_check,
    quadratic_member,
    quadratic_terms,
    scan_quadratic_set,
)
from .sparsity import (
    IpsWitness,
    classify,
    growth_census,
    ips_witness,
    normalize_arith_progression,
    prove_ips,
    verify_ips,
    very_sparse_decomposition,
)
from . import fixtures


def _policy(args) -> PrecisionPolicy:
    max_bits = getattr(args, "max_bits", None) or default_max_bits()
    return PrecisionPolicy(start_bits=min(64, max_bits), max_bits=max_bits)


def _digest(*chunks: str) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c.encode())
        h.update(b"\x00")
    return h.hexdigest()


def _iv_json(iv: IntervalValue) -> dict:
    return {
        "decimal": f"{iv.to_float():.15g}",
        "lower": [str(iv.lower.numerator), str(iv.lower.denominator)],
        "upper": [str(iv.upper.numerator), str(iv.upper.denominator)],
        "precision_bits": iv.precision_bits,
    }


@dataclass
class RunConfig:
    """Echo of the run parameters; a fixed config yields byte-identical
    report payloads (every operation is pure and deterministic, none is
    seeded)."""

    subcommand: str
    output_format: str
    max_bits: int

    def to_jsonable(self) -> dict:
        return {"subcommand": self.subcommand, "format": self.output_format,
                "max_bits": self.max_bits}


@dataclass
class Report:
    command: list[str]
    inputs_digest: str
    results: dict = field(default_factory=dict)
    certificates: list = field(default_factory=list)
    config: Optional[RunConfig] = None
    version: str = __version__
    timing_seconds: float = 0.0

    def emit(self, stream=None) -> None:
        payload = {
            "artifact_version": self.version,
            "command": self.command,
            "config": self.config.to_jsonable() if self.config else None,
            "inputs_digest": self.inputs_digest,
            "results": self.results,
            "certificates": self.certificates,
            "timing_seconds": round(self.timing_seconds, 3),
        }
        json.dump(payload, stream or sys.stdout, indent=2, sort_keys=True)
        print(file=stream or sys.stdout)


def _load_automaton(path: str) -> tuple[Dfao, str]:
    with open(path) as fh:
        text = fh.read()
    return parse_automaton(text), text


def _report_rows(args, report: Report, key: str, columns: tuple, rows: list) -> None:
    """Bulk (x, value) rows: CSV on stdout, or a list of objects under ``key``."""
    if args.format == "csv":
        print(",".join(columns))
        for x, v in rows:
            print(f"{x},{v:.12g}")
        report.results["rows_emitted"] = len(rows)
    else:
        report.results[key] = [dict(zip(columns, row)) for row in rows]


def _const_expr(text: str):
    text = text.strip()
    if text in CONST_NAMES:
        return CONST_NAMES[text]()
    if text.startswith("sqrt(") and text.endswith(")"):
        return ExactReal.sqrt(Fraction(text[5:-1]))
    return ExactReal.rational(Fraction(text))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_automaton(args, report: Report) -> None:
    dfao, text = _load_automaton(args.file)
    report.inputs_digest = _digest(text)
    if args.action == "eval":
        if args.n is not None:
            report.results["value"] = dfao.eval(args.n)
        else:
            a, b = args.range
            report.results["values"] = [dfao.eval(n) for n in range(a, b)]
    elif args.action == "kernel":
        rep = kernel(dfao)
        report.results["kernel_size"] = rep.size
        report.results["classes"] = [
            {"level": t, "residue": r} for t, r, _ in rep.classes]
    elif args.action in ("reverse", "minimize"):
        out = (reverse_reading if args.action == "reverse" else minimize)(dfao)
        report.results["automaton"] = format_automaton(out)
        report.results["states"] = out.n_states
    elif args.action == "check":
        report.results["zero_invariant"] = canonical(dfao) is dfao
    elif args.action == "pump":
        u0, v, u1 = pumping_witness(dfao, args.value)
        cert = {"type": "pumping", "u0": str(u0), "v": str(v), "u1": str(u1),
                "value": args.value, "automaton": format_automaton(dfao)}
        report.certificates.append(cert)
        report.results["witness"] = {k: cert[k] for k in ("u0", "v", "u1")}


def _cmd_sparsity(args, report: Report) -> None:
    dfao, text = _load_automaton(args.file)
    report.inputs_digest = _digest(text)
    if args.action == "classify":
        cls = classify(dfao)
        report.results["variant"] = cls.variant
        if cls.is_very_sparse:
            report.results["decomposition"] = cls.decomposition.to_jsonable()
            report.results["rank"] = cls.decomposition.rank
        else:
            report.results["witness_state"] = cls.witness.state
            report.results["v1"] = list(cls.witness.v1)
            report.results["v2"] = list(cls.witness.v2)
    elif args.action == "growth":
        grid = [2**j for j in range(4, args.log2_max + 1, 2)]
        rep = growth_census(dfao, grid)
        report.results["samples"] = rep.samples
        report.results["regime"] = list(rep.regime)
    elif args.action == "ips":
        wit = ips_witness(dfao, horizon=args.horizon, depth=args.depth)
        cert = {"type": "ips_witness", "automaton": format_automaton(dfao),
                **asdict(wit), "claim": "for all n, on the states of to_lsd(automaton)"}
        report.certificates.append(cert)
        report.results["witness"] = {k: cert[k] for k in
                                     ("l", "m", "p", "r1", "r2", "n0")}
    elif args.action == "normalize":
        decomp = very_sparse_decomposition(dfao)
        nf = normalize_arith_progression(decomp)
        report.results["modulus"] = nf.modulus
        report.results["residue"] = nf.residue
        report.results["block_base"] = nf.block_base
        report.results["suffix"] = list(nf.suffix)
        report.results["branches"] = [
            {"v": list(v), "w": list(w)} for v, w in nf.branches]


# the point flag each gp action reads; the other one is refused
_GP_POINTS = {"eval": "n", "scan": "range", "compare": "range", "equidist": None}


def _cmd_gp(args, report: Report) -> None:
    reads = _GP_POINTS[args.action]
    for flag in ("n", "range"):
        if flag == reads and getattr(args, flag) is None:
            raise ValueError(f"gp {args.action} needs --{flag}")
        if flag != reads and getattr(args, flag) is not None:
            raise ValueError(f"gp {args.action} does not read --{flag}")
    with open(args.expr_file) as fh:
        text = fh.read()
    expr = parse_gp(text)
    report.inputs_digest = _digest(text)
    policy = _policy(args)
    if args.action == "eval":
        res = eval_gp(expr, args.n, policy)
        report.results["enclosure"] = _iv_json(res.enclosure)
        report.results["exact_integer"] = res.is_integer
        if res.integer_value is not None:
            report.results["value"] = res.integer_value
    elif args.action == "scan":
        _report_rows(args, report, "values", ("n", "value"), [
            (n, eval_gp(expr, n, policy).enclosure.to_float())
            for n in range(*args.range)])
    elif args.action == "equidist":
        rep = equidistribution_test(expr, args.a, Fraction(args.scale),
                                    args.samples, args.bins, policy)
        report.results["star_discrepancy"] = rep.star_discrepancy
        report.results["histogram"] = rep.histogram
        report.results["samples"] = rep.n_samples
    elif args.action == "compare":
        with open(args.expr2_file) as fh:
            text2 = fh.read()
        expr2 = parse_gp(text2)
        a, b = args.range
        pred1 = lambda n: eval_gp(expr, n, policy).integer_value
        pred2 = lambda n: eval_gp(expr2, n, policy).integer_value
        rep = set_compare(pred1, pred2, a, b)
        report.results["disagreements"] = rep.count
        report.results["examples"] = rep.examples[:100]


def _cmd_fib(args, report: Report) -> None:
    report.inputs_digest = _digest(str(args.a), str(args.horizon))
    members, head = _emit_quadratic_set(report, args.a, args.horizon)
    report.results["member_count"] = len(members)
    report.results["first_members"] = members[:20]
    report.results["head_difference"] = head


def _cmd_pisot(args, report: Report) -> None:
    report.inputs_digest = _digest(str(args.a), str(args.b), str(args.qmax))
    try:
        params = pisot_cubic_check(args.a, args.b)
    except InvalidPisot as exc:
        report.results["valid"] = False
        report.results["reason"] = exc.reason
        return
    report.results["valid"] = True
    report.results["beta"] = _iv_json(exact_enclosure(params.beta, 96))
    if args.action == "check":
        report.results["m1_sq"] = _iv_json(exact_enclosure(params.m1_sq, 96))
    elif args.action == "terms":
        report.results["terms"] = cubic_terms(args.a, args.b, args.count)
    elif args.action == "bestapprox":
        rep = best_approximations(params, args.qmax)
        _report_rows(args, report, "flagged", ("q", "norm"), [
            (rec.q, rec.norm_enclosure().to_float()) for rec in rep.flagged])
        terms = [t for t in cubic_terms(args.a, args.b, 64) if t <= args.qmax]
        diff = sorted(set(terms) ^ set(rep.flagged_qs))
        report.results["difference_vs_terms"] = diff
    elif args.action == "gpset":
        members, _, diff = _gpset_vs_best(params, args.qmax)
        report.certificates.append({
            "type": "pisot_gpset", "a": args.a, "b": args.b, "qmax": args.qmax,
            "members_first": members[:64], "difference_vs_best": diff})
        report.results["member_count"] = len(members)
        report.results["difference_vs_best"] = diff
    elif args.action == "powers":
        rep = nearest_power_set_equiv(params)
        report.results["residual_ok"] = rep.residual_ok
        report.results["translation_ok"] = rep.translation_ok
        report.results["max_residual"] = rep.max_residual


def _parse_pred(args):
    """The predicate and the certificate field that names it."""
    if args.pred_file:
        dfao, text = _load_automaton(args.pred_file)
        return dfao.eval, {"automaton": text}
    if args.pred_expr:
        expr = parse_gp(args.pred_expr)
        return (lambda n: eval_gp(expr, n).integer_value), {"pred": args.pred_expr}
    raise SystemExit("ip check requires --pred-file or --pred-expr")


def _cmd_ip(args, report: Report) -> None:
    if args.gens_file:
        with open(args.gens_file) as fh:
            gens_text = fh.read()
        values = tuple(int(tok) for tok in gens_text.split())
    else:
        values = tuple(int(x) for x in args.gens.split(","))
        gens_text = args.gens
    report.inputs_digest = _digest(gens_text, str(args.depth))
    gens = IpGenerators(values)
    if args.action == "fs":
        sums = finite_sums(gens, min(args.depth, len(values)))
        report.results["count"] = len(sums)
        report.results["first"] = sums[:64]
    elif args.action == "ips":
        shifts = tuple(int(x) for x in args.shifts.split(","))
        fam = IpsFamily(gens, shifts)
        rows = shifted_finite_sums(fam, min(args.depth, len(values), len(shifts)))
        report.results["count"] = len(rows)
        report.results["first"] = [v for _, _, v in rows[:64]]
    elif args.action == "check":
        pred, source = _parse_pred(args)
        chk = _emit_fs_containment(report, pred, gens, min(args.depth, len(values)),
                                   source)
        report.inputs_digest = _digest(gens_text, *source.values())
        report.results["contained"] = chk.ok
        if not chk.ok:
            report.results["first_failure"] = {
                "alpha": list(chk.first_failure), "value": chk.failure_value}


def _cmd_orbit(args, report: Report) -> None:
    report.inputs_digest = _digest(str(vars(args)))
    if args.action == "skew":
        coeffs = [_const_expr(c) for c in args.poly.split(",")]
        sys_ = TorusSkewSystem.from_poly(coeffs, args.m)
        pt = skew_orbit_point(sys_, None, args.n,
                              check_iterate_up_to=min(args.n, 1000))
        report.results["point"] = [_iv_json(to_interval(x, 96)) for x in pt]
        if args.residue is not None:
            report.results["indicator"] = residue_indicator(
                sys_, None, args.m, args.residue, args.n)
    elif args.action == "heis":
        alpha = _const_expr(args.alpha)
        beta = _const_expr(args.beta)
        f = heisenberg_fracpart(alpha, beta, args.n)
        report.results["fracpart"] = [_iv_json(to_interval(x, 96)) for x in f]
    elif args.action == "scan":
        hit = _emit_suffix_hit(report, args.alpha, args.beta, args.eps,
                               args.base, args.suffix, args.nmax)
        report.results["outcome"] = "hit" if hit else "exhausted"
        if hit:
            report.results["n"] = hit.n
            report.results["distance"] = _iv_json(hit.dist_enclosure)
    elif args.action == "probe":
        alpha = _const_expr(args.alpha)
        beta = _const_expr(args.beta)
        rep = horizontal_character_probe(alpha, beta, args.t, args.lbound,
                                         base=args.base)
        report.results["degenerate"] = rep.degenerate
        report.results["best"] = list(rep.best)
        if rep.value is not None:
            report.results["value"] = _iv_json(rep.value)


def _cmd_demo(args, report: Report) -> None:
    report.inputs_digest = _digest(args.name)
    if args.name == "fib":
        members, head = _emit_quadratic_set(report, 1, 10**6)
        report.results["head_difference"] = head
        report.results["member_count"] = len(members)
    elif args.name == "bfree":
        dfao = fixtures.eleven_free_acceptor()
        chk = _emit_fs_containment(report, dfao.eval, geometric_generators(4, 4, 16),
                                   16, {"automaton": format_automaton(dfao)})
        report.results["contained"] = chk.ok
    elif args.name == "pisot":
        _, flagged, diff = _gpset_vs_best(pisot_cubic_check(args.a, args.b), 10**4)
        report.results["difference_vs_best"] = diff
        report.results["flagged_count"] = len(flagged)
    elif args.name == "heisenberg":
        hit = _emit_suffix_hit(report, "sqrt(2)", "sqrt(3)", "1*n^-1/10", 2, "11",
                               10**7)
        report.results["outcome"] = "hit" if hit else "exhausted"
        if hit:
            report.results["n"] = hit.n
    elif args.name == "dichotomy":
        report.results["fixtures"] = [
            {"fixture": name, "variant": classify(dfao).variant,
             "count_2_20": count_accepted_below(dfao, 1 << 20)}
            for name, dfao in fixtures.fixture_suite()]


def _cmd_verify(args, report: Report) -> None:
    with open(args.report) as fh:
        payload = json.load(fh)
    report.inputs_digest = _digest(json.dumps(payload, sort_keys=True))
    outcomes = [_verify_certificate(cert) for cert in payload.get("certificates", [])]
    report.results["verified"] = all(o["ok"] for o in outcomes)
    report.results["outcomes"] = outcomes


# ---------------------------------------------------------------------------
# certificates: one emitter and one check per kind
#
# A kind that a subcommand and a demo both emit has one emitter here.  A
# check re-derives every claimed field from the certificate's inputs: it
# enters in ``checked`` what it checks before checking it, and raises
# AssertionError(reason) when a claim fails.


def _expect(cert: dict, **replayed) -> None:
    """Name the first claimed field that differs from its replay."""
    for name, value in replayed.items():
        if cert[name] != value:
            raise AssertionError(f"{name} differs from the replay")


def _check_pumping(cert: dict, checked: dict) -> None:
    dfao = parse_automaton(cert["automaton"])
    triple = tuple(DigitWord.parse(cert[k], dfao.base) for k in ("u0", "v", "u1"))
    checked["states_proof"] = check_pumping_witness(dfao, triple, cert["value"])
    if not checked["states_proof"]:
        raise AssertionError("the pump fails for some t")


def _check_ips_witness(cert: dict, checked: dict) -> None:
    dfao = parse_automaton(cert["automaton"])
    # JSON reads the tuple fields back as lists
    wit = IpsWitness(**{f.name: tuple(v) if isinstance(v := cert[f.name], list) else v
                        for f in fields(IpsWitness)})
    checked.update(states_proof=False, replay_horizon=wit.verified_horizon,
                   depth=wit.verified_depth)
    # the replay evaluates the input automaton itself, so a fault in to_lsd
    # cannot prove its own witness
    verify_ips(wit, dfao.eval, wit.verified_depth)
    prove_ips(wit, to_lsd(dfao))
    checked["states_proof"] = True


def _emit_fs_containment(report: Report, pred, gens: IpGenerators, depth: int,
                         source: dict):
    """``source`` names the predicate: {"automaton": text} or {"pred": text}."""
    chk = contains_fs(pred, gens, depth)
    report.certificates.append({
        "type": "fs_containment", "generators": list(gens.values),
        "depth": chk.depth, "ok": chk.ok, **source})
    return chk


def _check_fs_containment(cert: dict, checked: dict) -> None:
    if "automaton" in cert:
        pred = parse_automaton(cert["automaton"]).eval
    else:
        expr = parse_gp(cert["pred"])
        pred = lambda n: eval_gp(expr, n).integer_value
    checked["depth"] = cert["depth"]
    chk = contains_fs(pred, IpGenerators(tuple(cert["generators"])), cert["depth"])
    _expect(cert, ok=chk.ok)


def _quadratic_head(a: int, horizon: int, members: list[int]) -> list[int]:
    terms = [t for t in quadratic_terms(a, 96) if 1 <= t <= horizon]
    return sorted(set(terms) ^ set(members))


def _emit_quadratic_set(report: Report, a: int, horizon: int):
    members = scan_quadratic_set(a, horizon)
    head = _quadratic_head(a, horizon, members)
    report.certificates.append({
        "type": "quadratic_set", "a": a, "horizon": horizon,
        "members_first": members[:64], "head_difference": head})
    return members, head


def _check_quadratic_set(cert: dict, checked: dict) -> None:
    a, horizon = cert["a"], cert["horizon"]
    checked["replay_horizon"] = horizon
    members = [n for n in range(1, horizon + 1) if quadratic_member(a, n)]
    _expect(cert, members_first=members[:64],
            head_difference=_quadratic_head(a, horizon, members))


def _gpset_vs_best(params, qmax: int):
    """The GP-set members up to qmax, the flagged best approximations, and
    their symmetric difference."""
    pred = PisotGpPredicate(params)
    members = [q for q in range(1, qmax + 1) if pred(q)]
    flagged = best_approximations(params, qmax).flagged_qs
    return members, flagged, sorted(set(members) ^ set(flagged))


def _check_pisot_gpset(cert: dict, checked: dict) -> None:
    checked["replay_horizon"] = cert["qmax"]
    members, _, diff = _gpset_vs_best(pisot_cubic_check(cert["a"], cert["b"]),
                                      cert["qmax"])
    _expect(cert, members_first=members[:64], difference_vs_best=diff)


def _suffix_scan(alpha: str, beta: str, eps: str, base: int, suffix: str,
                 nmax: int):
    return suffix_hit_scan(_const_expr(alpha), _const_expr(beta),
                           EpsilonSchedule.parse(eps), base,
                           DigitWord.parse(suffix, base), nmax)


def _emit_suffix_hit(report: Report, alpha: str, beta: str, eps: str, base: int,
                     suffix: str, nmax: int):
    hit = _suffix_scan(alpha, beta, eps, base, suffix, nmax)
    if hit is not None:
        report.certificates.append({
            "type": "suffix_hit", "alpha": alpha, "beta": beta,
            "eps": hit.eps_description, "base": base, "suffix": suffix,
            "n": hit.n})
    return hit


def _check_suffix_hit(cert: dict, checked: dict) -> None:
    checked["replay_horizon"] = cert["n"]
    hit = _suffix_scan(cert["alpha"], cert["beta"], cert["eps"], cert["base"],
                       cert["suffix"], cert["n"])
    _expect(cert, n=hit.n if hit else None)


_CHECKS = {
    "pumping": _check_pumping,
    "ips_witness": _check_ips_witness,
    "fs_containment": _check_fs_containment,
    "quadratic_set": _check_quadratic_set,
    "pisot_gpset": _check_pisot_gpset,
    "suffix_hit": _check_suffix_hit,
}


def _verify_certificate(cert: dict) -> dict:
    kind = cert.get("type")
    outcome = {"type": kind, "ok": False, "checked": {}}
    try:
        if kind not in _CHECKS:
            raise AssertionError("unknown certificate type")
        _CHECKS[kind](cert, outcome["checked"])
        outcome["ok"] = True
    except AssertionError as exc:
        outcome["detail"] = str(exc)
    except (KeyError, TypeError, ValueError) as exc:  # a malformed certificate
        outcome["detail"] = repr(exc)
    return outcome


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="nilseq")
    top.add_argument("--format", choices=("json", "csv"), default="json")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("automaton")
    p.add_argument("action", choices=("eval", "kernel", "reverse", "minimize",
                                      "check", "pump"))
    p.add_argument("--file", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--range", type=int, nargs=2)
    p.add_argument("--value", type=int, default=1)

    p = sub.add_parser("sparsity")
    p.add_argument("action", choices=("classify", "growth", "ips", "normalize"))
    p.add_argument("--file", required=True)
    p.add_argument("--horizon", type=int, default=10**4)
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--log2-max", type=int, default=20)

    p = sub.add_parser("gp")
    p.add_argument("action", choices=("eval", "scan", "equidist", "compare"))
    p.add_argument("--expr-file", required=True)
    p.add_argument("--expr2-file")
    p.add_argument("--n", type=int)
    p.add_argument("--range", type=int, nargs=2)
    p.add_argument("--max-bits", type=int)
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--scale", default="1")
    p.add_argument("--samples", type=int, default=10**4)
    p.add_argument("--bins", type=int, default=20)

    p = sub.add_parser("fib")
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--horizon", type=int, default=10**6)

    p = sub.add_parser("pisot")
    p.add_argument("action", choices=("check", "terms", "bestapprox", "gpset",
                                      "powers"))
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--qmax", type=int, default=10**4)
    p.add_argument("--count", type=int, default=24)

    p = sub.add_parser("ip")
    p.add_argument("action", choices=("fs", "ips", "check"))
    p.add_argument("--gens", default="")
    p.add_argument("--gens-file")
    p.add_argument("--shifts", default="")
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--pred-file")
    p.add_argument("--pred-expr")

    p = sub.add_parser("orbit")
    p.add_argument("action", choices=("skew", "heis", "scan", "probe"))
    p.add_argument("--alpha", default="sqrt(2)")
    p.add_argument("--beta", default="sqrt(3)")
    p.add_argument("--eps", default="1/10")
    p.add_argument("--suffix", default="")
    p.add_argument("--base", type=int, default=2)
    p.add_argument("--nmax", type=int, default=10**6)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--t", type=int, default=0)
    p.add_argument("--lbound", type=int, default=100)
    p.add_argument("--poly", default="0,0,1")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--residue", type=int)

    p = sub.add_parser("demo")
    p.add_argument("name", choices=("fib", "pisot", "heisenberg", "bfree",
                                    "dichotomy"))
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--b", type=int, default=0)

    p = sub.add_parser("verify")
    p.add_argument("--report", required=True)

    return top


_HANDLERS = {
    "automaton": _cmd_automaton,
    "sparsity": _cmd_sparsity,
    "gp": _cmd_gp,
    "fib": _cmd_fib,
    "pisot": _cmd_pisot,
    "ip": _cmd_ip,
    "orbit": _cmd_orbit,
    "demo": _cmd_demo,
    "verify": _cmd_verify,
}


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    config = RunConfig(args.command, args.format,
                       getattr(args, "max_bits", None) or default_max_bits())
    report = Report(command=list(argv), inputs_digest="", config=config)
    start = time.time()
    code, results = 0, report.results
    try:
        _HANDLERS[args.command](args, report)
    except PrecisionExhausted as exc:
        code, results["error"] = 2, f"precision exhausted: {exc}"
    except BudgetExceeded as exc:
        code, results["error"] = 3, f"budget exhausted: {exc}"
    except InvalidPisot as exc:  # a ValueError, reported with its own prefix
        code, results["error"] = 1, f"invalid parameters: {exc}"
    except (OSError, ValueError, SystemExit) as exc:
        code, results["error"] = 1, str(exc)
    report.timing_seconds = time.time() - start
    report.emit()
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
