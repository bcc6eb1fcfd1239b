"""Palm estimators, exact counting identities, mass transport checks and
relative intensities.

On a torus with a total map the generation-counting identities are finite
combinatorial facts, so they are checked at tolerance 1e-12 and flagged
``exact``; window runs report the boundary discrepancy instead of claiming
exactness.  Every sum runs over (distinct value, count) pairs, which
``np.bincount`` gives for d_n and l_n (integers up to N) without a sort.
Integer-valued sums are compared in integer arithmetic: power sums are
exact Python ints over the distinct values.  Float sums, 1/l_n among them,
are correctly rounded (the float ``math.fsum`` gives) without a per-point
loop: count times integer mantissa is summed exactly per binary exponent,
and the total is rounded once.  Each order's tallies are made once.

Each statistic reports on one realization; ``fold_reports`` merges the
reports of many.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .foliation import FoliationResult, canonical, foliate, next_generation
from .generators import GenSpec, generate
from .patterns import TORUS, ConfigError, PointPattern, distances_to
from .shifts import ShiftKind, ShiftMap, condenser_marks, evaluate
from .stable import StableMaps, build_stable_maps, foil_cycles, senior_steps

EXACT_TOL = 1e-12


def _tally(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct values, counts) in ascending order, the pairs
    ``np.unique(values, return_counts=True)`` gives.  Nonnegative integers
    no larger than a few times their number, such as d_n and l_n, are
    counted by one ``np.bincount`` instead of sorted."""
    values = np.asarray(values)
    if values.dtype.kind in "iub" and values.size:
        lo, hi = int(values.min()), int(values.max())
        if lo >= 0 and hi <= 4 * values.size:
            counts = np.bincount(values.astype(np.int64, copy=False))
            u = np.flatnonzero(counts)
            return u, counts[u]
    return np.unique(values, return_counts=True)


def _fsum_pairs(u: np.ndarray, counts: np.ndarray) -> float:
    """The correctly rounded sum of ``counts[i]`` copies of each ``u[i]``,
    the float ``math.fsum`` gives, with no intermediate overflow.

    A small superaccumulator (R. M. Neal, arXiv 1505.05571): a finite float
    is an integer mantissa times 2^(e - 53), with ``frexp`` exponent
    e >= -1073.  Counts times mantissas are summed exactly in Python ints per
    distinct exponent, the groups are shifted into one integer, and a single
    correctly rounded division by 2^1126 gives the float.  A non-finite value
    raises ValueError.
    """
    u = np.asarray(u, dtype=float)
    if not np.isfinite(u).all():
        raise ValueError("exact_sum needs finite values")
    if not len(u):
        return 0.0
    m, e = np.frexp(u)
    by_exp = np.argsort(e, kind="stable")
    e = e[by_exp]
    terms = (m[by_exp] * 2.0**53).astype(np.int64).astype(object) * counts[by_exp]
    first = np.flatnonzero(np.r_[True, e[1:] != e[:-1]])
    groups = np.add.reduceat(terms, first).tolist()
    return sum(s << x for s, x in zip(groups, (e[first] + 1073).tolist())) / (1 << 1126)


def exact_sum(values: np.ndarray) -> float:
    """The correctly rounded sum of ``values``: ``_fsum_pairs`` of their
    ``_tally``.  Integers are summed exactly as Python ints and rounded
    once, which is the float ``math.fsum`` gives below 2^53."""
    u, counts = _tally(values)
    if u.dtype.kind in "iub":
        return float(_power_pairs(u, counts, (1,))[0])
    return _fsum_pairs(u, counts)


def _power_pairs(u: np.ndarray, counts: np.ndarray, powers: Sequence[int]) -> list[int]:
    """The exact sums of ``counts[i]`` copies of ``u[i] ** p`` for each p in
    ``powers``, in Python ints (no int64 overflow)."""
    pairs = list(zip(u.tolist(), counts.tolist()))
    return [sum(v**p * c for v, c in pairs) for p in powers]


@dataclass
class StatReport:
    """One named statistic: its value and censoring fraction on each
    realization it used, the points used and the realizations dropped.  The
    mean, stderr, exactness and censoring fraction are read off these."""

    name: str
    per_realization: list[float]
    exactable: bool = True
    n_points_used: int = 0
    censoring_values: list[float] = field(default_factory=list)
    n: int | None = None
    target: float | None = None
    dropped: int = 0

    @property
    def realizations(self) -> int:
        return len(self.per_realization)

    @property
    def mean(self) -> float:
        vals = self.per_realization
        return math.fsum(vals) / len(vals) if vals else float("nan")

    @property
    def stderr(self) -> float:
        vals, mean = self.per_realization, self.mean
        if len(vals) < 2:
            return 0.0 if vals else float("nan")
        return math.sqrt(math.fsum((v - mean) ** 2 for v in vals) / (len(vals) - 1) / len(vals))

    @property
    def exact(self) -> bool:
        vals, target = self.per_realization, self.target
        ok = self.exactable and target is not None and bool(vals)
        return ok and all(abs(v - target) < EXACT_TOL for v in vals)

    @property
    def censoring_fraction(self) -> float:
        cens = self.censoring_values
        return sum(cens) / len(cens) if cens else 0.0


def fold_reports(rows: Sequence[Sequence[StatReport]]) -> list[StatReport]:
    """Merge per-realization report lists into whole-run reports.

    ``rows`` holds one list per realization, in index order, each with the
    same report names in the same order, as made by the statistics below
    on that realization.  Values and censoring fractions are concatenated,
    points and drops summed, and a report is exactable when it is on every
    realization; the derived figures follow from these.  This is the only
    place realizations are merged.
    """
    return [
        replace(
            reps[0],
            per_realization=[v for rep in reps for v in rep.per_realization],
            exactable=all(rep.exactable for rep in reps),
            n_points_used=sum(rep.n_points_used for rep in reps),
            censoring_values=[c for rep in reps for c in rep.censoring_values],
            dropped=sum(rep.dropped for rep in reps),
        )
        for reps in zip(*rows)
    ]


@dataclass
class Realization:
    """One generated pattern with its evaluated shift and foliation.

    ``generation(n)`` gives the order-n descendant walk.  The walk is kept
    and stepped on one order at a time, only as far as the highest order
    asked for, so no order is computed twice."""

    pattern: PointPattern
    shift_map: ShiftMap
    foliation: FoliationResult
    _generations: list = field(default_factory=list, repr=False)
    _tallies: dict = field(default_factory=dict, repr=False)

    @classmethod
    def build(cls, pattern: PointPattern, kind: ShiftKind | str) -> "Realization":
        shift_map = evaluate(pattern, kind)
        return cls(pattern, shift_map, foliate(pattern, shift_map))

    @classmethod
    def from_spec(
        cls, gen_spec: GenSpec, kind: ShiftKind | str
    ) -> "Realization":
        return cls.build(generate(gen_spec), kind)

    @property
    def n_points(self) -> int:
        return len(self.pattern)

    @property
    def censoring_fraction(self) -> float:
        return self.shift_map.censoring_fraction

    @property
    def exactable(self) -> bool:
        """A torus with a total map: the counting identities are theorems."""
        return self.pattern.domain.kind == TORUS and self.shift_map.is_total

    def generation(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The n-fold images (-1 where undefined), d_n and l_n, as
        ``next_generation`` gives them.  Order 0, the identity, is not kept:
        no reduction reads it."""
        if n < 0:
            raise ConfigError(f"descendant order must be nonnegative, got {n}")
        if n == 0:
            ids = np.arange(self.n_points)
            return ids, np.ones_like(ids), np.ones_like(ids)
        gens = self._generations  # orders 1, 2, ...
        while len(gens) < n:
            images = gens[-1][0] if gens else np.arange(self.n_points)
            gens.append(next_generation(self.shift_map.image, images))
        return gens[n - 1]

    def tallies(self, n: int) -> tuple[tuple, tuple]:
        """The ``_tally`` of d_n over every point and of l_n over the points
        whose n-fold image is defined, made once per order."""
        if n not in self._tallies:
            images, d, l = self.generation(n)
            self._tallies[n] = (_tally(d), _tally(l[images >= 0]))
        return self._tallies[n]

    @cached_property
    def stable(self) -> StableMaps:
        """The whole pattern's stable maps, read by ``SeniorIntervalKernel``
        and the tests.  ``run`` never builds them: walk-mode
        ``relative_intensity`` orders only the two foils it walks."""
        return build_stable_maps(self.pattern, self.shift_map, self.foliation)


def _all_points(r: Realization) -> dict:
    """Report fields of a statistic taken over every point of ``r``."""
    return {
        "n_points_used": r.n_points,
        "censoring_values": [r.censoring_fraction],
        "exactable": r.exactable,
    }


def palm_mean(
    values: np.ndarray, r: Realization, name: str, defined: np.ndarray | None = None
) -> StatReport:
    """Average a per-point statistic over the non-censored points of ``r``
    where it is ``defined`` (default: where it is finite).  With no such
    point the realization is dropped."""
    v = np.asarray(values)
    mask = ~r.shift_map.censored
    if defined is not None:
        mask &= defined
    elif v.dtype.kind == "f":
        mask &= np.isfinite(v)
    k = int(mask.sum())
    if k == 0:
        return StatReport(name, [], dropped=1)
    mean = exact_sum(v[mask]) / k
    return StatReport(name, [mean], n_points_used=k, censoring_values=[r.censoring_fraction])


def _images_and_cousins(tallies: tuple, N: int) -> tuple[int, float]:
    """The number of distinct n-fold images (the points with d_n > 0) and
    the sum of 1/l_n over the points whose n-fold image is defined, read
    off the order's tallies."""
    (ud, cd), (ul, cl) = tallies
    return N - int(cd[ud == 0].sum()), _fsum_pairs(1.0 / ul, cl)


def _identity_values(tallies: tuple, N: int) -> dict[str, float]:
    (ud, cd), (ul, cl) = tallies
    if N == 0 or not len(ul):
        return {}
    n_pos, inv_l = _images_and_cousins(tallies, N)
    inv_l /= N
    sum_d, sum_d2, sum_d3 = _power_pairs(ud, cd, (1, 2, 3))
    sum_l, sum_l2 = _power_pairs(ul, cl, (1, 2))
    total = float(sum_d)
    cond = (total / n_pos) * inv_l
    return {
        "descendant_mean": total / N,
        "cousin_reciprocal": inv_l - float(n_pos) / N,
        "size_bias_identity": (sum_l - sum_d2) / N,
        "size_bias_square": (sum_l2 - sum_d3) / N,
        "conditional_product": cond - 1.0,
    }


_IDENTITY_TARGETS = {
    "descendant_mean": 1.0,
    "cousin_reciprocal": 0.0,
    "size_bias_identity": 0.0,
    "size_bias_square": 0.0,
    "conditional_product": 0.0,
}


def verify_identities(r: Realization, n_max: int) -> list[StatReport]:
    """The exact generation-counting identities for n = 1..n_max.

    Per order: mean d_n, the reciprocal-cousin identity against the n-fold
    image fraction, the two size-biasing identities (h = identity and
    h = square), and the conditional product.  All five hold with zero
    tolerance on a torus with a total map.
    """
    reports = []
    for n in range(1, n_max + 1):
        vals = _identity_values(r.tallies(n), r.n_points)
        for key, target in _IDENTITY_TARGETS.items():
            reports.append(
                StatReport(
                    f"{key}_n{n}",
                    [vals[key]] if vals else [],
                    target=target,
                    n=n,
                    **_all_points(r),
                )
            )
    return reports


class ShiftIterateKernel:
    """Indicator transport along the n-fold image: w(x, y) = [F^n(x) = y]."""

    def __init__(self, n: int):
        self.n = int(n)
        self.name = f"edge_indicator_n{self.n}"

    def plus(self, r: Realization) -> np.ndarray:
        return (r.generation(self.n)[0] >= 0).astype(np.int64)

    def minus(self, r: Realization) -> np.ndarray:
        return r.generation(self.n)[1]  # d_n


class SeniorIntervalKernel:
    """Transport sending unit mass from x to each senior-foil point lying
    between the image of x and the image of its foil successor.

    Out of x go delta(F(x), F(f_perp(x))) units.  Into z come the intervals
    covering it: each is a run of positions in the senior foil's cycle, so
    they are marked on a difference array over all foils' positions (split
    in two where a run wraps past its foil's end) and summed by one cumsum.
    """

    name = "senior_interval"

    def plus(self, r: Realization) -> np.ndarray:
        return senior_steps(r.shift_map, r.stable.foliation, r.stable)

    def minus(self, r: Realization) -> np.ndarray:
        st = r.stable
        fol = st.foliation
        n = r.n_points
        first = np.cumsum(fol.foil_size) - fol.foil_size
        slot = first[fol.foil_id] + st.foil_pos  # place in all foils' cycles
        x = np.flatnonzero(~r.shift_map.censored)
        u = r.shift_map.image[x]
        foil = fol.foil_id[u]
        start, end = first[foil], first[foil] + fol.foil_size[foil]
        lo = slot[u]
        hi = lo + senior_steps(r.shift_map, fol, st)[x]
        wrap = hi > end

        def marks(at: np.ndarray) -> np.ndarray:
            return np.bincount(at, minlength=n + 1)

        diff = marks(lo) - marks(np.minimum(hi, end))
        diff += marks(start[wrap]) - marks((start + hi - end)[wrap])
        return np.cumsum(diff)[slot]


def check_mass_transport(kernel, r: Realization) -> StatReport:
    """Total outgoing minus total incoming mass.

    Zero exactly on a torus; window runs report the boundary discrepancy.
    The two sides are computed by independent passes (row sums against
    column sums), so a nonzero value flags an implementation defect.
    """
    plus = kernel.plus(r)
    minus = kernel.minus(r)
    if np.any(plus < 0) or np.any(minus < 0):
        raise ConfigError("transport kernel must be nonnegative")
    return StatReport(
        getattr(kernel, "name", "kernel"),
        [exact_sum(plus) - exact_sum(minus)],
        target=0.0,
        **_all_points(r),
    )


def evaporation_profile(r: Realization, n_list: Sequence[int]) -> list[StatReport]:
    """Survival profile: the fraction of points still hit by the n-fold
    image, alongside the mean reciprocal cousin count.  The two sequences
    coincide exactly on a total map."""
    N = r.n_points
    reports = []
    for n in n_list:
        p_hat, inv_l = [], []
        if N:
            images, cousins = _images_and_cousins(r.tallies(n), N)
            p_hat, inv_l = [float(images) / N], [cousins / N]
        reports.append(
            StatReport(f"survival_fraction_n{n}", p_hat, n=n, exactable=False)
        )
        reports.append(
            StatReport(
                f"survival_vs_cousins_n{n}",
                [a - b for a, b in zip(p_hat, inv_l)],
                target=0.0,
                exactable=r.exactable,
                n=n,
            )
        )
    return reports


def typical_point(r: Realization) -> int | None:
    """The non-censored point nearest the domain center, the least id among
    equally near ones; None when every point is censored."""
    live = np.flatnonzero(~r.shift_map.censored)
    if live.size == 0:
        return None
    center = np.asarray(r.pattern.domain.extents) / 2.0
    d = distances_to(r.pattern.coords[live], center, r.pattern.domain)
    return int(live[np.argmin(d)])


def relative_intensity(
    r: Realization,
    x: int | None = None,
    n: int | None = None,
    mode: str = "auto",
) -> float | None:
    """Relative intensity of the senior foil seen from x's foil.

    ``mode="ratio"`` returns the finite-class value, the senior/junior foil
    size ratio.  ``mode="walk"`` walks n foil steps from x (at most once
    round the foil) averaging the senior-foil step count between
    consecutive images, the finite form of the limit estimator; None is
    returned when no step is taken.  ``auto`` takes the ratio on
    finite-class (non-censored) components and the walk on censored ones.
    """
    if mode not in ("auto", "ratio", "walk"):
        raise ConfigError("mode is auto, ratio or walk")
    if x is None:
        x = typical_point(r)
    if x is None:
        return None
    fol = r.foliation
    cyclic = fol.component_root[fol.component_id[x]] < 0
    if mode == "auto":
        mode = "ratio" if cyclic else "walk"
    if mode == "walk" and cyclic:
        fol = canonical(r.pattern, fol)  # the walk's foil cycles start at the anchor
    fid = int(fol.foil_id[x])
    senior = int(fol.senior_foil[fid])
    if senior < 0:
        return None
    if mode == "ratio":
        return float(fol.foil_size[senior]) / float(fol.foil_size[fid])
    m = int(fol.foil_size[fid])
    steps = m if n is None else min(int(n), m)
    if steps <= 0:
        return None
    # x has a senior foil, so no point of its foil is censored (a dead end
    # is alone in its foil) and every step of the walk is feasible; only the
    # two foils are put in cycle order
    ids = np.flatnonzero((fol.foil_id == fid) | (fol.foil_id == senior))
    f_perp, pos = foil_cycles(r.pattern, fol, ids)

    def pos_of(points):
        return pos[np.searchsorted(ids, points)]

    junior = ids[fol.foil_id[ids] == fid]
    walk = junior[np.argsort((pos_of(junior) - pos_of(x)) % m)[:steps]]
    image = r.shift_map.image
    succ = f_perp[np.searchsorted(ids, walk)]
    total = int(((pos_of(image[succ]) - pos_of(image[walk])) % fol.foil_size[senior]).sum())
    return total / steps


def relative_intensity_report(r: Realization, mode: str = "auto") -> StatReport:
    """The estimate at the typical point's foil; a realization without a
    feasible estimate is dropped and counted."""
    est = relative_intensity(r, mode=mode)
    return StatReport(
        "relative_intensity",
        [] if est is None else [est],
        dropped=int(est is None),
        **_all_points(r),
    )


def condenser_intensity_reports(
    r: Realization, ks: tuple[int, ...] = (1, 2, 3), ball_radius: float = 1.0
) -> list[StatReport]:
    """Per ball-count class k, in order: the walk estimate at the first
    non-censored class-k point of the largest component, and the plain
    class-count ratio (reliable marks only) it cross-checks against.  An
    estimate that cannot be made (no such point, no reliable class-k mark,
    or no point at all) is dropped and counted."""
    marks, marks_censored = condenser_marks(r.pattern, ball_radius)
    auth = ~marks_censored
    fol = r.foliation
    largest = np.argmax(fol.component_size) if fol.n_components else -1
    big = (fol.component_id == largest) & ~r.shift_map.censored
    reports = []
    for k in ks:
        members = np.flatnonzero(big & (marks == k))
        est = relative_intensity(r, int(members[0]), mode="walk") if members.size else None
        denom = int(((marks == k) & auth).sum())
        ratio = float(((marks == k + 1) & auth).sum()) / denom if denom else None
        for name, value in (("intensity", est), ("count_ratio", ratio)):
            reports.append(
                StatReport(
                    f"condenser_{name}_k{k}",
                    [] if value is None else [value],
                    n=k,
                    dropped=int(value is None),
                )
            )
    return reports


def reports_csv(reports: Sequence[StatReport]) -> str:
    """CSV rows (name, n, mean, stderr, exact, realizations,
    censoring_fraction); floats via repr for byte-stable output."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["name", "n", "mean", "stderr", "exact", "realizations", "censoring_fraction"]
    )
    for rep in reports:
        writer.writerow(
            [
                rep.name,
                "" if rep.n is None else rep.n,
                repr(rep.mean),
                repr(rep.stderr),
                str(rep.exact).lower(),
                rep.realizations,
                repr(rep.censoring_fraction),
            ]
        )
    return out.getvalue()


def reports_json(reports: Sequence[StatReport]) -> str:
    obj = {
        "schema_version": 1,
        "reports": [
            {
                "name": rep.name,
                "n": rep.n,
                "per_realization": rep.per_realization,
                "mean": rep.mean,
                "stderr": rep.stderr,
                "exact": rep.exact,
                "target": rep.target,
                "n_points_used": rep.n_points_used,
                "censoring_fraction": rep.censoring_fraction,
                "dropped": rep.dropped,
            }
            for rep in reports
        ],
    }
    return json.dumps(obj)
