#!/usr/bin/env python3
"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

For each workload: run the reduced job once, print its attempted and failed
ops (only the pi/e fault points may fail), then corrupt one output of every
kind and require the oracle to reject it, so that no check passes
vacuously.  Exits 1 on the first check that does not hold.
"""

from __future__ import annotations

import argparse
import copy
import sys
from fractions import Fraction

import run
import workloads


def bump(v):
    """A different value of the same shape."""
    if isinstance(v, bool):
        return not v
    if isinstance(v, int):
        return v + 1
    if isinstance(v, str):
        return str(Fraction(v) + 1)
    if isinstance(v, list):
        return [bump(v[0])] + v[1:]
    if isinstance(v, dict) and "surd" in v:
        d, c = next(iter(v["surd"].items()))
        return {"surd": {**v["surd"], d: bump(c)}}
    if isinstance(v, dict) and "iv" in v:
        return {"iv": bump(v["iv"])}
    raise TypeError(v)


def flip_output(t):
    outputs = list(t["outputs"])
    outputs[t["initial"]] = 1 - outputs[t["initial"]]
    return {**t, "outputs": outputs}


# item name (up to the first space) -> corruption of its value
CORRUPT = {
    "points": bump, "large_points": bump,
    "seq_irrational": bump, "seq_rational": bump,
    "weak_seq_irrational": lambda v: [1, 0, 1] if v is None else None,
    "weak_seq_rational": lambda v: [1, 0, 1] if v is None else None,
    "census": bump,
    "equidist": lambda v: {**v, "histogram": bump(v["histogram"])},
    "residue": lambda v: [1 - v[0]] + v[1:],
    "heisenberg": lambda v: [bump(v[0])] + v[1:],
    "scan": lambda v: 1 if v is None else None,
    "probe": lambda v: {**v, "best": bump(v["best"])},
    "pred": lambda v: v[:-1],
    "best": lambda v: v[:-1],
    "nearest": lambda v: {**v, "ok": not v["ok"]},
    "product": flip_output, "reverse": flip_output, "minimize": flip_output,
    "base_power": flip_output,
    "classify": lambda v: "very_sparse" if v == "condition_i" else "condition_i",
    "count": bump,
    "kernel": lambda v: 1,
    "ips": lambda v: {**v, "p": v["p"] + 1},
    "fs_ok": lambda v: {**v, "ok": False},
    "fs_bad": lambda v: {**v, "value": v["value"] + 1},
    "growth": lambda v: {**v, "samples": [v["samples"][0]] + [
        [v["samples"][1][0], v["samples"][1][1] + 1]] + v["samples"][2:]},
    "normal_form": lambda v: {**v, "residue": v["residue"] + 1},
}

# outputs that fail on every run: corrupting them shows nothing
ALWAYS_FAILING = {"fault_points"}


def fail(msg: str):
    print(f"SELFTEST FAIL: {msg}")
    sys.exit(1)


def main() -> int:
    for workload in workloads.WORKLOADS:
        args = argparse.Namespace(workload=workload, seed=7, seconds=0.1,
                                  trace=0)
        result = run.run(args, small=True)
        inputs = workloads.build(workload, args.seed, small=True)
        summary, notes = run.evaluate(inputs, result)
        rounds = len(result["round_s"])
        expected = (len(workloads.FAULT_POINTS) * rounds
                    if workload == "enclosure-scan" else 0)
        print(f"{workload}: {rounds} rounds, attempted {summary['attempted']},"
              f" failed {summary['failed']}")
        if not summary["correct"] or summary["failed"] != expected:
            fail(f"{workload}: {notes[:3]}")
        items = {i: v for i, _, v in result["items"]}
        seen = set()
        for item, value in items.items():
            kind = item.split(" ")[0]
            if kind in ALWAYS_FAILING or kind in seen:
                continue
            seen.add(kind)
            bad = dict(items)
            bad[item] = CORRUPT[kind](copy.deepcopy(value))
            outcome = run.oracle.check(inputs, bad, result["after"])
            if not outcome.failed.get(item):
                fail(f"{workload}: corrupted {item!r} was accepted")
        if result["after"]:
            after = copy.deepcopy(result["after"])
            key = next(iter(after))
            after[key][0][2] = 1 - after[key][0][1]
            if not run.oracle.check(inputs, items, after).problems:
                fail(f"{workload}: corrupted interval replay was accepted")
            seen.add("replay")
        print(f"  rejected one corrupted output of each kind: "
              f"{', '.join(sorted(seen))}")
    print("SELFTEST PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
