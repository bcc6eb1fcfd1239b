#!/usr/bin/env python3
"""Condenser mark statistics on a one-dimensional Poisson sample.

The ball count minus one of a point is Poisson with mean twice the
intensity, so the class fractions follow that law and adjacent class
intensities have ratio (2 lambda)/k.  Prints the observed fractions and
the walk-estimated relative intensities with their count-ratio
cross-checks, and how many realizations gave no walk estimate.
"""

import argparse
import math

import numpy as np

from foliate.generators import GenSpec, generate
from foliate.palm import Realization, condenser_intensity_reports, fold_reports
from foliate.patterns import Domain
from foliate.shifts import condenser_marks


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--length", type=float, default=10_000.0)
    ap.add_argument("--intensity", type=float, default=0.5)
    ap.add_argument("--realizations", type=int, default=100)
    ap.add_argument("--seed", type=int, default=5000)
    args = ap.parse_args()

    mean = 2.0 * args.intensity
    specs = [
        GenSpec(
            "poisson",
            Domain.window(args.length, buffer=2.0),
            seed=args.seed + i,
            intensity=args.intensity,
        )
        for i in range(args.realizations)
    ]

    print("k,observed_fraction,predicted_fraction")
    fracs = {k: [] for k in (1, 2, 3, 4)}
    for spec in specs:
        marks, mc = condenser_marks(generate(spec), 1.0)
        auth = ~mc
        n = int(auth.sum())
        if n == 0:  # no reliable mark: the realization has no class fractions
            continue
        for k in fracs:
            fracs[k].append(((marks == k) & auth).sum() / n)
    for k, vals in fracs.items():
        pred = math.exp(-mean) * mean ** (k - 1) / math.factorial(k - 1)
        print(f"{k},{float(np.mean(vals))!r},{pred!r}")

    ks = (1, 2, 3)
    reports = fold_reports(
        [
            condenser_intensity_reports(Realization.from_spec(spec, "condenser"), ks)
            for spec in specs
        ]
    )
    print("k,walk_mean,walk_stderr,walk_dropped,count_ratio_mean,target")
    for k, walk, ratio in zip(ks, reports[::2], reports[1::2]):
        print(f"{k},{walk.mean!r},{walk.stderr!r},{walk.dropped},{ratio.mean!r},{mean / k!r}")


if __name__ == "__main__":
    main()
