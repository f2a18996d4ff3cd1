import contextlib
import io
import json

import pytest

from nilseq.automaton import (
    Dfao,
    ReadingOrder,
    format_automaton,
    powers_acceptor,
    product,
    thue_morse,
)
from nilseq import cli
from nilseq.cli import run
from nilseq.exactreal import PrecisionExhausted
from nilseq.fixtures import eleven_free_acceptor


def invoke(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    out = buf.getvalue()
    payload = json.loads(out) if out.strip().startswith("{") else out
    return code, payload


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "powers2.aut").write_text(format_automaton(powers_acceptor(2)))
    (d / "tm.aut").write_text(format_automaton(thue_morse()))
    (d / "free11.aut").write_text(format_automaton(eleven_free_acceptor()))
    (d / "ex1.gp").write_text(
        "(+ (const 2) (* (sqrt 2) (pow (floor (+ (* (sqrt 3) (pow n 2))"
        " (/ 1 7))) 2)) (* n (floor (+ (pow n 3) pi))))")
    return d


def test_classify_powers(files):
    code, rep = invoke(["sparsity", "classify", "--file",
                        str(files / "powers2.aut")])
    assert code == 0
    assert rep["results"]["variant"] == "very_sparse"
    assert rep["results"]["rank"] == 1


def test_gp_eval_example(files):
    code, rep = invoke(["gp", "eval", "--expr-file", str(files / "ex1.gp"),
                        "--n", "0"])
    assert code == 0
    assert rep["results"]["value"] == 2


@pytest.mark.parametrize("action, point, other, results", [
    ("eval", ["--n", "3"], ["--range", "3", "4"], {"value": 4}),
    ("scan", ["--range", "2", "4"], ["--n", "3"],
     {"values": [{"n": 2, "value": 2.0}, {"n": 3, "value": 4.0}]}),
    ("compare", ["--range", "0", "40"], ["--n", "3"], {"disagreements": 0}),
    ("equidist", [], ["--range", "0", "4"], {"samples": 50}),
])
def test_gp_reads_only_its_point_flag(tmp_path, action, point, other, results):
    path = tmp_path / "sqrt2.gp"
    path.write_text("(floor (* (sqrt 2) n))")
    base = ["gp", action, "--expr-file", str(path), "--expr2-file", str(path),
            "--samples", "50"]
    code, rep = invoke(base + point)
    assert code == 0
    assert {k: rep["results"][k] for k in results} == results
    code, rep = invoke(base + point + other)
    assert code == 1
    assert rep["results"]["error"] == f"gp {action} does not read {other[0]}"
    if point:
        code, rep = invoke(base)
        assert code == 1
        assert rep["results"]["error"] == f"gp {action} needs {point[0]}"


def test_automaton_kernel(files):
    code, rep = invoke(["automaton", "kernel", "--file", str(files / "tm.aut")])
    assert code == 0 and rep["results"]["kernel_size"] == 2


def test_automaton_not_zero_invariant(files, tmp_path):
    # the initial state's 0-successor outputs 1, so a padded word of 1 reads 1
    path = tmp_path / "lead.aut"
    path.write_text(format_automaton(Dfao(2, ((1, 0), (1, 1)), (0, 1))))
    code, rep = invoke(["automaton", "check", "--file", str(path)])
    assert code == 0 and rep["results"] == {"zero_invariant": False}
    code, rep = invoke(["automaton", "check", "--file", str(files / "tm.aut")])
    assert code == 0 and rep["results"] == {"zero_invariant": True}
    code, rep = invoke(["automaton", "kernel", "--file", str(path)])
    assert code == 0 and rep["results"]["kernel_size"] == 3


def test_unknown_flag_exits_one(files):
    code, _ = invoke(["automaton", "eval", "--file", str(files / "tm.aut"),
                      "--definitely-not-a-flag"])
    assert code == 1


def test_missing_file_exits_one():
    code, rep = invoke(["automaton", "eval", "--file", "/nonexistent.aut",
                        "--n", "1"])
    assert code == 1


def test_ips_report_verifies(files, tmp_path):
    code, rep = invoke(["sparsity", "ips", "--file", str(files / "free11.aut"),
                        "--horizon", "500"])
    assert code == 0
    path = tmp_path / "ips.json"
    path.write_text(json.dumps(rep))
    code2, rep2 = invoke(["verify", "--report", str(path)])
    assert code2 == 0 and rep2["results"]["verified"] is True


def test_pump_report_verifies(files, tmp_path):
    code, rep = invoke(["automaton", "pump", "--file", str(files / "powers2.aut"),
                        "--value", "1"])
    assert code == 0
    path = tmp_path / "pump.json"
    path.write_text(json.dumps(rep))
    code2, rep2 = invoke(["verify", "--report", str(path)])
    assert code2 == 0 and rep2["results"]["verified"] is True


def test_tampered_report_fails_verification(files, tmp_path):
    code, rep = invoke(["sparsity", "ips", "--file", str(files / "free11.aut"),
                        "--horizon", "200"])
    cert = rep["certificates"][0]
    # 3 = 11_2 is not eleven-free, so this n0 cannot witness membership
    cert["n0"] = 3
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(rep))
    code2, rep2 = invoke(["verify", "--report", str(path)])
    assert rep2["results"]["verified"] is False


def test_certificate_missing_a_field_fails_verification(files, tmp_path):
    code, rep = invoke(["sparsity", "ips", "--file", str(files / "free11.aut"),
                        "--horizon", "200"])
    del rep["certificates"][0]["r2"]
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(rep))
    code2, rep2 = invoke(["verify", "--report", str(path)])
    outcome = rep2["results"]["outcomes"][0]
    assert code2 == 0 and outcome["ok"] is False
    assert "r2" in outcome["detail"]


def test_verification_keeps_library_exit_codes(files, tmp_path, monkeypatch):
    code, rep = invoke(["sparsity", "ips", "--file", str(files / "free11.aut"),
                        "--horizon", "200"])
    path = tmp_path / "ips.json"
    path.write_text(json.dumps(rep))

    def exhausted(*args):
        raise PrecisionExhausted("sign unresolved")

    monkeypatch.setattr(cli, "verify_ips", exhausted)
    code2, rep2 = invoke(["verify", "--report", str(path)])
    assert code2 == 2
    assert rep2["results"]["error"].startswith("precision exhausted")


ROUND_TRIPS = {
    # kind: (argv with {files}, what verify checked, a tampered field, and
    # the reason verify then gives)
    "pumping": (["automaton", "pump", "--file", "{files}/powers2.aut",
                 "--value", "1"], {"states_proof": True}, ("value", 0),
                "the pump fails for some t"),
    "ips_witness": (["sparsity", "ips", "--file", "{files}/free11.aut",
                     "--horizon", "200"],
                    {"states_proof": True, "replay_horizon": 200, "depth": 10},
                    ("n0", 3), "n0 does not witness membership"),
    "fs_containment/automaton": (["demo", "bfree"], {"depth": 16},
                                 ("ok", False), "ok differs from the replay"),
    "fs_containment/pred": (["ip", "check", "--gens", "1,2,4", "--depth", "3",
                             "--pred-expr", "(const 1)"], {"depth": 3},
                            ("ok", False), "ok differs from the replay"),
    "fs_containment/pred-file": (["ip", "check", "--gens", "4,16,64", "--depth",
                                  "3", "--pred-file", "{files}/free11.aut"],
                                 {"depth": 3}, ("ok", False),
                                 "ok differs from the replay"),
    "quadratic_set": (["fib", "--a", "8", "--horizon", "10000"],
                      {"replay_horizon": 10000}, ("head_difference", []),
                      "head_difference differs from the replay"),
    "pisot_gpset": (["pisot", "gpset", "--a", "1", "--b", "0", "--qmax", "2000"],
                    {"replay_horizon": 2000}, ("difference_vs_best", [7, 11]),
                    "difference_vs_best differs from the replay"),
    "suffix_hit": (["orbit", "scan", "--suffix", "11", "--nmax", "10000"],
                   {"replay_horizon": 43}, ("n", 44),
                   "n differs from the replay"),
}


@pytest.mark.parametrize("case", ROUND_TRIPS)
def test_certificate_round_trip(files, tmp_path, case):
    argv, checked, (name, bad), reason = ROUND_TRIPS[case]
    code, rep = invoke([a.format(files=files) for a in argv])
    assert code == 0 and len(rep["certificates"]) == 1
    path = tmp_path / "report.json"
    path.write_text(json.dumps(rep))
    _, rep2 = invoke(["verify", "--report", str(path)])
    assert rep2["results"]["outcomes"] == [
        {"type": case.split("/")[0], "ok": True, "checked": checked}]
    assert rep["certificates"][0][name] != bad
    rep["certificates"][0][name] = bad
    path.write_text(json.dumps(rep))
    _, rep3 = invoke(["verify", "--report", str(path)])
    outcome = rep3["results"]["outcomes"][0]
    assert rep3["results"]["verified"] is False and outcome["ok"] is False
    assert outcome["detail"] == reason


def test_unknown_certificate_type_fails_verification(tmp_path):
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps({"certificates": [{"type": "oracle"}]}))
    _, rep = invoke(["verify", "--report", str(path)])
    assert rep["results"]["outcomes"] == [
        {"type": "oracle", "ok": False, "checked": {},
         "detail": "unknown certificate type"}]


def cut_to_digits(dfao, digits):
    """The base-2 MSD automaton dfao restricted to n < 2^digits."""
    upto_k = Dfao(2, ((0, 1),) + tuple((i + 1, i + 1) for i in range(1, digits + 1))
                  + ((digits + 1, digits + 1),),
                  (1,) * (digits + 1) + (0,), 0, ReadingOrder.MSD)
    return product(dfao, upto_k, lambda x, y: x & y)


def test_ips_verify_covers_the_claimed_horizon(files, tmp_path):
    # cut the eleven-free acceptor to expansions of at most K digits: the
    # identities a(2^l n + p) = a(2^m n + r) then first break near
    # n = 2^(K - m) = 16384, past 10^4 but within the claimed horizon
    code, rep = invoke(["sparsity", "ips", "--file", str(files / "free11.aut"),
                        "--horizon", "200"])
    assert code == 0
    cert = rep["certificates"][0]
    l, m, p, r1, r2 = (cert[x] for x in ("l", "m", "p", "r1", "r2"))
    digits = m + 14
    cut = cut_to_digits(eleven_free_acceptor(), digits)
    assert all(cut.eval(n) == (n < 2**digits and eleven_free_acceptor().eval(n))
               for n in range(2**digits - 64, 2**digits + 64))
    first_break = next(n for n in range(10**5)
                       if not cut.eval(2**l * n + p) == cut.eval(2**m * n + r1)
                       == cut.eval(2**m * n + r2))
    assert 10**4 < first_break <= 2 * 10**4
    cert["automaton"] = format_automaton(cut)
    cert["verified_horizon"] = 2 * 10**4
    while max(cert["shifts"][:cert["verified_depth"]]) + sum(
            cert["generators"][:cert["verified_depth"]]) >= 2**digits:
        cert["verified_depth"] -= 1
    assert cert["verified_depth"] >= 2
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(rep))
    code2, rep2 = invoke(["verify", "--report", str(path)])
    assert code2 == 0 and rep2["results"]["verified"] is False
    assert rep2["results"]["outcomes"][0]["detail"] == (
        f"ips identity failed at n={first_break}")


def test_ips_verify_reports_what_it_checked(files, tmp_path):
    _, rep = invoke(["sparsity", "ips", "--file", str(files / "free11.aut"),
                        "--horizon", "500"])
    cert = rep["certificates"][0]
    assert cert["claim"] == "for all n, on the states of to_lsd(automaton)"
    path = tmp_path / "ips.json"
    path.write_text(json.dumps(rep))
    _, rep2 = invoke(["verify", "--report", str(path)])
    assert rep2["results"]["outcomes"][0]["checked"] == {
        "states_proof": True, "replay_horizon": 500,
        "depth": cert["verified_depth"]}


def test_ips_states_proof_reaches_past_the_replay_horizon(files, tmp_path):
    # the cut acceptor above breaks the identities only past n = 10^4, so a
    # replay to n = 10^3 passes; the state proof still finds a break
    _, rep = invoke(["sparsity", "ips", "--file", str(files / "free11.aut"),
                        "--horizon", "1000"])
    cert = rep["certificates"][0]
    l, m, p, r1, r2 = (cert[x] for x in ("l", "m", "p", "r1", "r2"))
    cut = cut_to_digits(eleven_free_acceptor(), m + 14)
    cert["automaton"] = format_automaton(cut)
    cert["verified_depth"] = 2
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(rep))
    _, rep2 = invoke(["verify", "--report", str(path)])
    outcome = rep2["results"]["outcomes"][0]
    assert outcome["ok"] is False
    assert outcome["checked"] == {"states_proof": False, "replay_horizon": 1000,
                                  "depth": 2}
    n = int(outcome["detail"].removeprefix("ips identity failed at n="))
    assert n > 1000
    assert not cut.eval(2**l * n + p) == cut.eval(2**m * n + r1) == cut.eval(
        2**m * n + r2)


def test_normalize_powers(files):
    code, rep = invoke(["sparsity", "normalize", "--file",
                        str(files / "powers2.aut")])
    assert code == 0
    assert rep["results"] == {"block_base": 2, "modulus": 2, "residue": 0,
                              "suffix": [0], "branches": [{"v": [1], "w": [0]}]}


def test_normalize_branching_input_exits_one(files):
    code, rep = invoke(["sparsity", "normalize", "--file",
                        str(files / "free11.aut")])
    assert code == 1
    assert rep["results"] == {
        "error": "automaton is on the branching side of the dichotomy"}


def test_determinism(files):
    argv = ["sparsity", "growth", "--file", str(files / "powers2.aut"),
            "--log2-max", "14"]
    _, rep1 = invoke(argv)
    _, rep2 = invoke(argv)
    rep1.pop("timing_seconds")
    rep2.pop("timing_seconds")
    assert rep1 == rep2
    assert rep1["results"]["regime"] == ["poly_log", 1]
    assert "seed" not in rep1 and "seed" not in rep1["config"]
    assert invoke(["--seed", "7"] + argv)[0] == 1


def test_fib_subcommand():
    code, rep = invoke(["fib", "--a", "1", "--horizon", "10000"])
    assert code == 0
    assert rep["results"]["head_difference"] == []


def test_ip_fs_subcommand():
    code, rep = invoke(["ip", "fs", "--gens", "1,2,4", "--depth", "3"])
    assert code == 0
    assert rep["results"]["first"] == [1, 2, 3, 4, 5, 6, 7]


def test_orbit_heis_subcommand():
    code, rep = invoke(["orbit", "heis", "--alpha", "sqrt(2)",
                        "--beta", "sqrt(3)", "--n", "5"])
    assert code == 0
    assert len(rep["results"]["fracpart"]) == 3


def test_pisot_invalid_params():
    code, rep = invoke(["pisot", "check", "--a", "0", "--b", "2"])
    assert code == 0
    assert rep["results"]["valid"] is False


def test_csv_output(files):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(["--format", "csv", "gp", "scan", "--expr-file",
                    str(files / "ex1.gp"), "--range", "0", "4"])
    assert code == 0
    assert buf.getvalue().startswith("n,value")


def test_demo_dichotomy():
    code, rep = invoke(["demo", "dichotomy"])
    assert code == 0
    rows = rep["results"]["fixtures"]
    assert len(rows) == 10
    variants = {r["fixture"]: r["variant"] for r in rows}
    assert variants["powers_of_2"] == "very_sparse"
    assert variants["baum_sweet"] == "condition_i"


@pytest.mark.parametrize("expr", [
    # x^3 - 2x is reducible (root 0); its root sqrt 2 squared is exactly 2
    "(floor (* (root 1 0 -2 0 1 2) (root 1 0 -2 0 1 2)))",
    # the product of two 16-digit primes: squarefreeness is not decidable
    # by bounded trial division
    "(floor (* (sqrt 1000000000000128000000000003367) n))",
])
def test_hostile_gp_input_fails_fast(tmp_path, wall_clock_limit, expr):
    path = tmp_path / "hostile.gp"
    path.write_text(expr)
    with wall_clock_limit(1.0):
        code, rep = invoke(["gp", "eval", "--expr-file", str(path), "--n", "3"])
    assert code == 1
    assert "error" in rep["results"]
