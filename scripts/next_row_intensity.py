#!/usr/bin/env python3
"""Relative-intensity experiment for the next-row shift on grid tori.

Adjacent columns of a thinned grid have equal density, so the estimated
relative intensity of the senior foil should sit at 1 within Monte-Carlo
error.  Prints one row per batch size.
"""

import argparse

from foliate.generators import GenSpec
from foliate.palm import Realization, fold_reports, relative_intensity_report
from foliate.patterns import Domain


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--columns", type=int, default=50)
    ap.add_argument("--rows", type=int, default=200)
    ap.add_argument("--p", type=float, default=0.5)
    ap.add_argument("--realizations", type=int, default=100)
    ap.add_argument("--seed", type=int, default=600)
    args = ap.parse_args()

    domain = Domain.torus(args.columns, args.rows)
    rows = [
        [
            relative_intensity_report(
                Realization.from_spec(
                    GenSpec("bernoulli_grid", domain, seed=args.seed + i, p=args.p),
                    "next_row",
                ),
                mode="walk",
            )
        ]
        for i in range(args.realizations)
    ]
    print("realizations,mean,stderr")
    for count in (args.realizations // 4, args.realizations // 2, args.realizations):
        [rep] = fold_reports(rows[:count])
        print(f"{count},{rep.mean!r},{rep.stderr!r}")


if __name__ == "__main__":
    main()
