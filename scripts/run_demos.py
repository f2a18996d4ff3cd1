#!/usr/bin/env python3
"""Run every bundled demo through the CLI runner, collect the reports, and
run ``nilseq verify`` on each report that carries certificates.

Usage: python scripts/run_demos.py [OUT_DIR]   (default: demo_reports)
Exits 1 when a demo fails or a certificate does not verify.
"""

import json
import pathlib
import subprocess
import sys

DEMOS = [
    ["demo", "dichotomy"],
    ["demo", "bfree"],
    ["demo", "fib"],
    ["demo", "pisot", "--a", "1", "--b", "0"],
    ["demo", "heisenberg"],
]


def main() -> int:
    out_dir = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path("demo_reports")
    out_dir.mkdir(exist_ok=True)
    failures = 0
    for argv in DEMOS:
        name = argv[1]
        proc = _cli(*argv)
        path = out_dir / f"{name}.json"
        path.write_text(proc.stdout)
        status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
        print(f"{name:12s} {status:8s} -> {path}")
        if proc.returncode != 0:
            failures += 1
            continue
        if not json.loads(proc.stdout)["certificates"]:
            continue
        results = json.loads(_cli("verify", "--report", str(path)).stdout)["results"]
        for o in results.get("outcomes", []):
            print(f"    certificate: {o['type']} "
                  f"{'verified' if o['ok'] else 'FAILED: ' + o['detail']}")
        if results.get("verified") is not True:
            print(f"    not verified: {results.get('error', 'a certificate failed')}")
            failures += 1
    return 1 if failures else 0


def _cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "nilseq.cli", *argv],
                          capture_output=True, text=True)


if __name__ == "__main__":
    sys.exit(main())
