#!/usr/bin/env python3
"""Growth census over the fixture suite: exact counts, regimes, window stats.

Emits plot-ready CSV on stdout.
"""

import sys

from nilseq.fixtures import fixture_suite
from nilseq.sparsity import classify, growth_census


def main() -> int:
    grid = [2**j for j in range(4, 25, 2)]
    print("fixture,variant,regime,estimate," +
          ",".join(f"nu_2e{j}" for j in range(4, 25, 2)))
    for name, dfao in fixture_suite():
        cls = classify(dfao)
        rep = growth_census(dfao, grid)
        regime = rep.regime[0]
        est = f"{rep.regime[1]:.4f}" if len(rep.regime) > 1 else ""
        counts = ",".join(str(c) for _, c in rep.samples)
        print(f"{name},{cls.variant},{regime},{est},{counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
