#!/usr/bin/env python3
"""Sweep small (a, b) cubic parameters: validity, best-approximation flags,
and agreement of the closed-form predicate, at a desk-scale horizon."""

import sys

from nilseq.exactreal import exact_enclosure
from nilseq.recurrence import (
    InvalidPisot,
    PisotGpPredicate,
    best_approximations,
    cubic_terms,
    pisot_cubic_check,
)

QMAX = 2000


def main() -> int:
    print("a,b,valid,beta,flags,terms_diff,gpset_diff")
    for a in range(0, 4):
        for b in range(-1, a + 2):
            try:
                params = pisot_cubic_check(a, b)
            except InvalidPisot as exc:
                print(f"{a},{b},no({exc.reason}),,,,")
                continue
            beta = exact_enclosure(params.beta, 64).to_float()
            rep = best_approximations(params, QMAX)
            flags = set(rep.flagged_qs)
            terms = {t for t in cubic_terms(a, b, 48) if 1 <= t <= QMAX}
            pred = PisotGpPredicate(params)
            members = {q for q in range(1, QMAX + 1) if pred(q)}
            print(f"{a},{b},yes,{beta:.6f},{len(flags)},"
                  f"{len(flags ^ terms)},{len(flags ^ members)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
