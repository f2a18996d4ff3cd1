#!/usr/bin/env python3
"""Growth census over the fixture suite: the side of the dichotomy, the
growth regime read off it (poly-log degree or power-law exponent), and the
exact counts nu(2^j).

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
        rep = growth_census(dfao, grid)
        regime, estimate = rep.regime
        counts = ",".join(str(c) for _, c in rep.samples)
        print(f"{name},{classify(dfao).variant},{regime},{estimate:.4g},{counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
