#!/usr/bin/env python3
"""nilseq benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload surd-scan --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout (the library is imported from
``src/``).  Set-up is timed in separate worker processes, run one at a
time; then one worker repeats the workload's job in whole rounds for
``--seconds`` and reports its outputs, which are checked here against
oracle.py, computed apart from the library.  The last line of stdout is
one JSON object: correct, attempted, failed and the metrics (end-to-end
with --trace 0, per-layer with --trace 1).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads  # noqa: E402

# set-up is timed this many times per run (the job's own worker included)
SETUP_SAMPLES = 5

# what each workload's two phases measure, for the printed summary
PHASES = {
    "surd-scan": ("GP phase", "orbit phase"),
    "enclosure-scan": ("GP phase", "orbit phase"),
    "pisot-cubic": ("predicate phase", "best-approximation phase"),
    "automata": ("transform phase", "witness phase"),
}


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env["NILSEQ_MAX_BITS"] = str(workloads.MAX_BITS)
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, extra: list[str]):
    """A worker, timed from its start until it has built the inputs."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=worker_env(), stdout=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise SystemExit(f"worker failed during set-up: {line!r}")
    return proc, setup_s


def finish(proc) -> str:
    out = proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return out


def run(args, small: bool = False) -> dict:
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, setup_s = start_worker(args, ["--setup-only"])
        finish(proc)
        setups.append(setup_s)
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if small:
        extra.append("--small")
    proc, setup_s = start_worker(args, extra)
    setups.append(setup_s)
    lines = finish(proc).strip().splitlines()
    result = json.loads(lines[-1])
    result["setup_s"] = setups
    return result


def evaluate(inputs: dict, result: dict) -> tuple[dict, list[str]]:
    """Failed and attempted ops over all rounds, and correctness."""
    items = {i: v for i, _, v in result["items"]}
    ops = [n for _, n, _ in result["items"]]
    outcome = oracle.check(inputs, items, result["after"])
    failed_item = [outcome.failed.get(i, 0) for i, _, _ in result["items"]]
    rounds = len(result["round_s"])
    failed = sum(failed_item) * rounds
    for changed in result["changed"]:
        # an output that differs from round 1 fails, unless it failed there
        failed += sum(ops[j] - failed_item[j] for j in changed)
    problems = list(outcome.problems)
    if result["changed"] and any(result["changed"]):
        problems.append("outputs changed between rounds")
    summary = {"correct": not problems, "attempted": sum(ops) * rounds,
               "failed": failed}
    return summary, outcome.notes + problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "nilseq", "__init__.py")):
        print("perfbench: run from the root of a nilseq source checkout "
              "(src/nilseq not found)", file=sys.stderr)
        return 2

    result = run(args)
    inputs = workloads.build(args.workload, args.seed)
    summary, notes = evaluate(inputs, result)
    for note in notes[:20]:
        print(f"check: {note}")

    rounds = result["round_s"]
    phases = list(zip(*result["phase_s"]))
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, value, unit in layer_metrics(result["layers"])}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(result["setup_s"]),
                        "unit": "s"},
            "run_s": {"value": statistics.median(rounds), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "phase1_s": {"value": statistics.median(phases[0]), "unit": "s"},
            "phase2_s": {"value": statistics.median(phases[1]), "unit": "s"},
        }
        for label, rate, unit in named_rates(args.workload,
                                             result["phase_ops"], phases):
            print(f"{label}: {rate:.6g} {unit}")
    print(f"rounds: {len(rounds)}; phases: "
          + ", ".join(f"{p} {statistics.median(t):.4f} s"
                      for p, t in zip(PHASES[args.workload], phases)))
    print(json.dumps({**summary, "metrics": metrics}))
    return 0


def named_rates(workload: str, phase_ops: list[int], phases: list):
    """The phase metrics by their user-facing names, for the summary."""
    (ops1, ops2), (t1, t2) = phase_ops, map(statistics.median, phases)
    if workload in ("surd-scan", "enclosure-scan"):
        return [("gp_points_per_s", ops1 / t1, "points/s"),
                ("orbit_points_per_s", ops2 / t2, "points/s")]
    if workload == "pisot-cubic":
        return [("pisot_q_per_s", ops1 / t1, "q/s"),
                ("bestapprox_and_nearest_q_per_s", ops2 / t2, "q/s")]
    return [("transform_s", t1, "s"), ("witness_s", t2, "s")]


UNITS = {"calls": "count", "ops": "count", "attempts": "count",
         "points": "count", "us": "us", "self_us": "us", "us_per_q": "us",
         "us_per_n": "us", "us_per_pair": "us", "s": "s", "run_s": "s",
         "untraced_run_s": "s", "traced_run_s": "s",
         "resolved_ratio": "ratio", "hit_ratio": "ratio",
         "exact_decided": "count", "enclosure_decided": "count",
         "escalated": "count", "max_bits": "bits", "states_out": "count",
         "sums_checked": "count", "overhead_ratio": "ratio"}


def layer_metrics(layers: dict):
    for name, value in layers.items():
        yield name, value, UNITS[name.rsplit(".", 1)[1]]


if __name__ == "__main__":
    sys.exit(main())
