#!/usr/bin/env python3
"""Nested-core growth diagnostic for the strip shift.

On a Poisson window the strip graph grows both its components and its
foils (evaporating behavior); on a thinned grid the components are rows
with singleton foils.  Prints the ladder CSV for both, plus the survival
profile on the Poisson window.
"""

import argparse

from foliate.foliation import ladder_diagnostic
from foliate.generators import GenSpec
from foliate.palm import Realization, evaporation_profile
from foliate.patterns import Domain


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--side", type=float, default=200.0)
    ap.add_argument("--buffer", type=float, default=10.0)
    ap.add_argument("--seed", type=int, default=400)
    ap.add_argument("--fractions", default="0.25,0.5,0.75,1.0")
    args = ap.parse_args()
    fractions = tuple(float(f) for f in args.fractions.split(","))
    dom = Domain.window(args.side, args.side, buffer=args.buffer)

    grid_spec = GenSpec("bernoulli_grid", dom, seed=args.seed, p=0.5)
    grid = Realization.from_spec(grid_spec, "strip")
    print("# strip on a thinned grid")
    print(ladder_diagnostic(grid.pattern, "strip", fractions, grid.foliation).csv())

    poisson_spec = GenSpec("poisson", dom, seed=args.seed + 1, intensity=1.0)
    real = Realization.from_spec(poisson_spec, "strip")
    print("# strip on poisson")
    print(ladder_diagnostic(real.pattern, "strip", fractions, real.foliation).csv())

    print("# survival profile (poisson)")
    print("n,survival_fraction")
    for rep in evaporation_profile(real, [1, 2, 3, 4, 5, 6, 7, 8]):
        if rep.name.startswith("survival_fraction"):
            print(f"{rep.n},{rep.mean!r}")


if __name__ == "__main__":
    main()
