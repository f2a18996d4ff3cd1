import csv
import os
import subprocess
import sys
from pathlib import Path

from nilseq.fixtures import fixture_suite

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name)],
                          capture_output=True, text=True, env=env, timeout=120)


def test_growth_survey_reads_the_regime_off_the_dichotomy():
    proc = run_script("growth_survey.py")
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.DictReader(proc.stdout.splitlines()))
    assert [r["fixture"] for r in rows] == [name for name, _ in fixture_suite()]
    for r in rows:
        assert (r["regime"] == "power_law") == (r["variant"] == "condition_i")
