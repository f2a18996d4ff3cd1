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


# scripts/pisot_survey.py's whole output: validity, beta, the flag count and
# the two symmetric differences for every (a, b) of its grid
PISOT_SURVEY = """\
a,b,valid,beta,flags,terms_diff,gpset_diff
0,-1,no((a, b) outside (a>=0, 0<=b<=a+1) or (a>=2, b=-1)),,,,
0,0,no(p(1) = 0: polynomial reducible (rational root 1)),,,,
0,1,yes,1.324718,26,0,0
1,-1,no((a, b) outside (a>=0, 0<=b<=a+1) or (a>=2, b=-1)),,,,
1,0,yes,1.465571,20,0,0
1,1,yes,1.839287,13,0,0
1,2,yes,2.147899,20,10,0
2,-1,yes,1.754878,26,12,0
2,0,yes,2.205569,10,0,0
2,1,yes,2.546818,9,0,0
2,2,yes,2.831177,8,0,0
2,3,yes,3.079596,26,18,0
3,-1,yes,2.769292,8,0,0
3,0,yes,3.103803,7,0,0
3,1,yes,3.382976,7,0,0
3,2,yes,3.627365,7,0,0
3,3,yes,3.847322,6,0,0
3,4,no(three real roots: discriminant >= 0),,,,
"""


def test_pisot_survey_output_is_pinned():
    proc = run_script("pisot_survey.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == PISOT_SURVEY
