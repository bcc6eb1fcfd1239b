"""Functional-graph structure of an evaluated shift: components, cycles,
foils, descendant counts, primeval points, and classification.

On a finite total map every undirected component carries exactly one
directed cycle; points in the same component share a foil exactly when
their iterated images coincide, which reduces to an arithmetic key
(cycle entry position minus depth, modulo cycle length).  Components whose
walks die at a censored point are trees hanging off that dead end; there
the key degenerates to the distance to the root and the foliation is
flagged non-authoritative.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .patterns import TORUS, ConfigError, PointPattern, crop
from .shifts import ShiftKind, ShiftMap, evaluate

CLASS_FF = "FF"
CLASS_IF = "IF_diagnostic"
CLASS_II = "II_diagnostic"
CLASS_UNKNOWN = "Unknown"


def _walk_structure(image: np.ndarray):
    """Label components by pointer chasing.

    Returns (comp, depth, entry, cycles, roots): per-point arrays plus, per
    component, its directed cycle (possibly empty) and its dead-end root
    (-1 when the component is cyclic).
    """
    n = len(image)
    comp = np.full(n, -1, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    entry = np.zeros(n, dtype=np.int64)
    state = np.zeros(n, dtype=np.int8)  # 0 new, 1 on path, 2 done
    pathpos = np.full(n, -1, dtype=np.int64)
    cycles: list[tuple[int, ...]] = []
    roots: list[int] = []

    for s in range(n):
        if state[s] != 0:
            continue
        path: list[int] = []
        x = s
        while True:
            if state[x] == 0:
                state[x] = 1
                pathpos[x] = len(path)
                path.append(x)
                nxt = int(image[x])
                if nxt < 0:
                    c = len(cycles)
                    cycles.append(())
                    roots.append(x)
                    last = len(path) - 1
                    for j, y in enumerate(path):
                        comp[y] = c
                        depth[y] = last - j
                        entry[y] = 0
                        state[y] = 2
                    break
                x = nxt
            elif state[x] == 1:
                i = int(pathpos[x])
                c = len(cycles)
                cycles.append(tuple(path[i:]))
                roots.append(-1)
                for k, y in enumerate(path[i:]):
                    comp[y] = c
                    depth[y] = 0
                    entry[y] = k
                    state[y] = 2
                for j in range(i - 1, -1, -1):
                    y = path[j]
                    comp[y] = c
                    depth[y] = i - j
                    entry[y] = 0
                    state[y] = 2
                break
            else:
                c = int(comp[x])
                bd = int(depth[x])
                be = int(entry[x])
                m = len(path)
                for j, y in enumerate(path):
                    comp[y] = c
                    depth[y] = bd + (m - j)
                    entry[y] = be
                    state[y] = 2
                break
    return comp, depth, entry, cycles, roots


def _canonical_cycle_anchor(cycle: tuple[int, ...], pattern: PointPattern) -> int:
    """Index within the cycle list to rotate to the front.

    On a window: the lexicographically least node.  On a torus absolute
    coordinates wrap under translation, so the anchor is chosen from the
    rotation-minimal sequence of step displacements, which is translation
    covariant; grid patterns use exact integer lattice displacements, and
    fully symmetric cycles (astronomically unlikely off hand-built inputs)
    fall back to the smallest id.
    """
    from .patterns import lattice_coords

    L = len(cycle)
    if L <= 1:
        return 0
    coords = pattern.coords
    if pattern.domain.kind != TORUS:
        rows = coords[list(cycle)]
        return int(np.lexsort(tuple(rows.T[::-1]))[0])
    lattice = lattice_coords(pattern)
    if lattice is not None:
        ext_i = np.asarray(pattern.domain.extents, dtype=np.int64)
        disp = [
            tuple((lattice[cycle[(i + 1) % L]] - lattice[cycle[i]]) % ext_i)
            for i in range(L)
        ]
    else:
        ext = np.asarray(pattern.domain.extents)
        disp = [
            tuple((coords[cycle[(i + 1) % L]] - coords[cycle[i]]) % ext)
            for i in range(L)
        ]
    candidates = list(range(L))
    for offset in range(L):
        vals = [disp[(c + offset) % L] for c in candidates]
        best = min(vals)
        candidates = [c for c, v in zip(candidates, vals) if v == best]
        if len(candidates) == 1:
            return candidates[0]
    return min(candidates, key=lambda c: cycle[c])


@dataclass(frozen=True)
class ComponentInfo:
    id: int
    size: int
    cycle: tuple[int, ...]
    root: int
    censored: bool
    n_foils: int

    @property
    def cycle_length(self) -> int:
        return len(self.cycle)


@dataclass(frozen=True)
class FoliationResult:
    """Components, foils and per-point walk data for one realization."""

    component_id: np.ndarray
    foil_id: np.ndarray
    depth_to_cycle: np.ndarray
    entry_position: np.ndarray
    components: tuple[ComponentInfo, ...]
    foil_component: np.ndarray
    foil_key: np.ndarray
    foil_size: np.ndarray
    senior_foil: np.ndarray

    @property
    def n_points(self) -> int:
        return len(self.component_id)

    @property
    def n_foils(self) -> int:
        return len(self.foil_size)

    def foil_members(self, f: int) -> np.ndarray:
        order = self._foil_order()
        lo = np.searchsorted(self.foil_id[order], f, side="left")
        hi = np.searchsorted(self.foil_id[order], f, side="right")
        return order[lo:hi]

    def component_members(self, c: int) -> np.ndarray:
        order = self._comp_order()
        lo = np.searchsorted(self.component_id[order], c, side="left")
        hi = np.searchsorted(self.component_id[order], c, side="right")
        return order[lo:hi]

    def _foil_order(self) -> np.ndarray:
        if not hasattr(self, "_foil_order_cache"):
            object.__setattr__(
                self, "_foil_order_cache", np.argsort(self.foil_id, kind="stable")
            )
        return self._foil_order_cache

    def _comp_order(self) -> np.ndarray:
        if not hasattr(self, "_comp_order_cache"):
            object.__setattr__(
                self, "_comp_order_cache", np.argsort(self.component_id, kind="stable")
            )
        return self._comp_order_cache

    def classes(self, ladder: "LadderReport | None" = None) -> tuple[str, ...]:
        return classify(self, ladder)

    def to_json(self) -> str:
        obj = {
            "schema_version": 1,
            "per_point": {
                "component": self.component_id.tolist(),
                "foil": self.foil_id.tolist(),
                "depth_to_cycle": self.depth_to_cycle.tolist(),
                "entry_position": self.entry_position.tolist(),
            },
            "components": [
                {
                    "id": c.id,
                    "size": c.size,
                    "cycle": list(c.cycle),
                    "cycle_length": c.cycle_length,
                    "root": c.root,
                    "censored": c.censored,
                    "n_foils": c.n_foils,
                    "class": cls,
                }
                for c, cls in zip(self.components, self.classes())
            ],
        }
        return json.dumps(obj)

    def components_csv(self, ladder: "LadderReport | None" = None) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["id", "size", "cycle_length", "n_foils", "class"])
        for comp, cls in zip(self.components, self.classes(ladder)):
            writer.writerow([comp.id, comp.size, comp.cycle_length, comp.n_foils, cls])
        return out.getvalue()


def foliate(pattern: PointPattern, shift_map: ShiftMap) -> FoliationResult:
    """Full foliation of one evaluated shift."""
    if len(pattern) != len(shift_map):
        raise ConfigError("pattern and shift map sizes differ")
    n = len(shift_map)
    comp, depth, entry, cycles, roots = _walk_structure(shift_map.image)

    # rotate every cycle to its canonical anchor so entry positions are
    # deterministic and, on a torus, translation covariant
    shifts = np.zeros(len(cycles), dtype=np.int64)
    lengths = np.zeros(len(cycles), dtype=np.int64)
    rotated: list[tuple[int, ...]] = []
    for c, cyc in enumerate(cycles):
        lengths[c] = len(cyc)
        if len(cyc) > 1:
            a = _canonical_cycle_anchor(cyc, pattern)
            shifts[c] = a
            rotated.append(cyc[a:] + cyc[:a])
        else:
            rotated.append(cyc)
    cyclic = lengths[comp] > 0
    if n:
        adj = np.zeros(n, dtype=np.int64)
        adj[cyclic] = (entry[cyclic] - shifts[comp[cyclic]]) % lengths[comp[cyclic]]
        entry = np.where(cyclic, adj, entry)

    key = np.where(
        cyclic,
        (entry - depth) % np.maximum(lengths[comp], 1),
        depth,
    )

    pairs = comp * (n + 1) + key  # key < n+1 always
    uniq, foil_id = np.unique(pairs, return_inverse=True)
    foil_component = (uniq // (n + 1)).astype(np.int64)
    foil_key = (uniq % (n + 1)).astype(np.int64)
    foil_size = np.bincount(foil_id, minlength=len(uniq)).astype(np.int64)

    lookup = {(int(c), int(k)): f for f, (c, k) in enumerate(zip(foil_component, foil_key))}
    senior = np.full(len(uniq), -1, dtype=np.int64)
    for f in range(len(uniq)):
        c = int(foil_component[f])
        k = int(foil_key[f])
        if lengths[c] > 0:
            senior[f] = lookup[(c, (k + 1) % int(lengths[c]))]
        elif k > 0:
            senior[f] = lookup[(c, k - 1)]

    comp_sizes = np.bincount(comp, minlength=len(cycles)) if n else np.zeros(0, int)
    comp_censored = np.zeros(len(cycles), dtype=bool)
    if n:
        np.logical_or.at(comp_censored, comp[shift_map.censored], True)
    foil_counts = np.bincount(foil_component, minlength=len(cycles))
    components = tuple(
        ComponentInfo(
            id=c,
            size=int(comp_sizes[c]),
            cycle=rotated[c],
            root=int(roots[c]),
            censored=bool(comp_censored[c]),
            n_foils=int(foil_counts[c]),
        )
        for c in range(len(cycles))
    )
    return FoliationResult(
        component_id=comp,
        foil_id=foil_id.astype(np.int64),
        depth_to_cycle=depth,
        entry_position=entry,
        components=components,
        foil_component=foil_component,
        foil_key=foil_key,
        foil_size=foil_size,
        senior_foil=senior,
    )


@dataclass(frozen=True)
class DescendantStats:
    """Per-point descendant and cousin counts up to a maximal order.

    ``d[n][x]`` counts the points whose n-fold image is x; ``l[n][x]`` is
    the size of x's order-n cousin set, d_n evaluated at F^n(x).  Row 0 is
    the identity.
    """

    max_order: int
    d: np.ndarray
    l: np.ndarray
    images: np.ndarray
    defined: np.ndarray


def descendant_stats(shift_map: ShiftMap, max_order: int) -> DescendantStats:
    n = len(shift_map)
    m = int(max_order)
    if m < 0:
        raise ConfigError("max_order must be nonnegative")
    d = np.zeros((m + 1, n), dtype=np.int64)
    l = np.zeros((m + 1, n), dtype=np.int64)
    images = np.full((m + 1, n), -1, dtype=np.int64)
    defined = np.zeros((m + 1, n), dtype=bool)
    images[0] = np.arange(n)
    defined[0] = True
    d[0] = 1
    l[0] = 1
    for k in range(1, m + 1):
        ok = defined[k - 1]
        nxt = np.full(n, -1, dtype=np.int64)
        nxt[ok] = shift_map.image[images[k - 1][ok]]
        images[k] = nxt
        defined[k] = nxt >= 0
        if defined[k].any():
            d[k] = np.bincount(images[k][defined[k]], minlength=n)
            l[k][defined[k]] = d[k][images[k][defined[k]]]
    return DescendantStats(max_order=m, d=d, l=l, images=images, defined=defined)


@dataclass(frozen=True)
class PrimevalSet:
    ids: np.ndarray
    order_used: int | None  # None when exact (cycle nodes of a total map)


def primeval_set(shift_map: ShiftMap, n_max: int | None = None) -> PrimevalSet:
    """Points surviving in every iterated image.

    Exact (the union of cycles) for a total map; under censoring it falls
    back to the n_max-fold image of the defined core and reports the order
    used.
    """
    if shift_map.is_total:
        _, _, _, cycles, _ = _walk_structure(shift_map.image)
        ids = np.array(sorted(x for cyc in cycles for x in cyc), dtype=np.int64)
        return PrimevalSet(ids=ids, order_used=None)
    if n_max is None:
        n_max = len(shift_map)
    imgs = shift_map.iterate(n_max)
    ids = np.unique(imgs[imgs >= 0])
    return PrimevalSet(ids=ids.astype(np.int64), order_used=int(n_max))


def classify(
    foliation: FoliationResult, ladder: "LadderReport | None" = None
) -> tuple[str, ...]:
    """Class per component: finite non-censored components are exactly FF;
    censored components take the ladder diagnosis when one is supplied and
    are Unknown otherwise."""
    out = []
    for comp in foliation.components:
        if not comp.censored:
            out.append(CLASS_FF)
        elif ladder is not None:
            out.append(ladder.class_)
        else:
            out.append(CLASS_UNKNOWN)
    return tuple(out)


@dataclass(frozen=True)
class LadderRung:
    fraction: float
    n_points: int
    n_components: int
    largest_component: int
    typical_foil_size: float
    n_foils: int


@dataclass(frozen=True)
class LadderReport:
    """Growth diagnostics over nested cores of one realization.

    Slopes are log-log regressions against the core scale factor; the class
    is diagnostic only (any finite realization is literally FF) and the
    thresholds are part of the artifact configuration.
    """

    rungs: tuple[LadderRung, ...]
    component_slope: float
    foil_slope: float
    class_: str
    component_threshold: float
    foil_threshold: float

    def csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            [
                "fraction",
                "n_points",
                "n_components",
                "largest_component",
                "typical_foil_size",
                "n_foils",
            ]
        )
        for r in self.rungs:
            writer.writerow(
                [
                    repr(r.fraction),
                    r.n_points,
                    r.n_components,
                    r.largest_component,
                    repr(r.typical_foil_size),
                    r.n_foils,
                ]
            )
        writer.writerow([])
        writer.writerow(["component_slope", repr(self.component_slope)])
        writer.writerow(["foil_slope", repr(self.foil_slope)])
        writer.writerow(["class", self.class_])
        return out.getvalue()


def ladder_diagnostic(
    pattern: PointPattern,
    kind: ShiftKind | str,
    fractions: tuple[float, ...],
    component_threshold: float = 0.5,
    foil_threshold: float = 0.1,
) -> LadderReport:
    """Analyze the same realization on nested centered cores and fit growth."""
    fr = tuple(float(f) for f in fractions)
    if len(fr) < 2 or any(b <= a for a, b in zip(fr, fr[1:])):
        raise ConfigError("fractions must be strictly increasing")
    if not all(0.0 < f <= 1.0 for f in fr):
        raise ConfigError("fractions must lie in (0, 1]")
    rungs = []
    for f in fr:
        sub = crop(pattern, f)
        fol = foliate(sub, evaluate(sub, kind))
        if fol.n_points == 0:
            rungs.append(LadderRung(f, 0, 0, 0, 0.0, 0))
            continue
        sizes = np.array([c.size for c in fol.components])
        typical = float(np.mean(fol.foil_size[fol.foil_id]))
        rungs.append(
            LadderRung(
                fraction=f,
                n_points=fol.n_points,
                n_components=len(fol.components),
                largest_component=int(sizes.max()),
                typical_foil_size=typical,
                n_foils=fol.n_foils,
            )
        )
    logf = np.log([r.fraction for r in rungs])
    comp_sizes = np.log([max(r.largest_component, 1) for r in rungs])
    foil_sizes = np.log([max(r.typical_foil_size, 1.0) for r in rungs])
    comp_slope = float(np.polyfit(logf, comp_sizes, 1)[0])
    foil_slope = float(np.polyfit(logf, foil_sizes, 1)[0])
    if comp_slope > component_threshold:
        class_ = CLASS_II if foil_slope > foil_threshold else CLASS_IF
    else:
        class_ = CLASS_FF
    return LadderReport(
        rungs=tuple(rungs),
        component_slope=comp_slope,
        foil_slope=foil_slope,
        class_=class_,
        component_threshold=component_threshold,
        foil_threshold=foil_threshold,
    )
