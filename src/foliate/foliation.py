"""Functional-graph structure of an evaluated shift: components, cycles,
foils, descendant counts, and classification.

On a finite total map every undirected component carries exactly one
directed cycle; points in the same component share a foil exactly when
their iterated images coincide, which reduces to an arithmetic key
(cycle entry position minus depth, modulo cycle length).  Components whose
walks die at a censored point are trees hanging off that dead end; there
the key degenerates to the distance to the root and the foliation is
flagged non-authoritative.

The structure comes from one whole-array pass of pointer jumping (Wyllie's
list ranking) in which a dead end is a fixed point, so trees and cyclic
components go through the same code.  Squaring the successor map finds the
cycle nodes; jumping with the cycle nodes as terminals gives each point's
depth and entry node; jumping round the cycles labels each by its least id;
and jumping to the cycle anchors gives the positions round each cycle.  No
Python loop runs over points, cycles or foils.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .patterns import TORUS, ConfigError, PointPattern, crop, displacement, row_ranks
from .shifts import ShiftKind, ShiftMap, evaluate

CLASS_FF = "FF"
CLASS_IF = "IF_diagnostic"
CLASS_II = "II_diagnostic"
CLASS_UNKNOWN = "Unknown"

# ladder slopes above which the components, and then the foils, count as
# growing with the core
COMPONENT_THRESHOLD = 0.5
FOIL_THRESHOLD = 0.1


def _jump(ptr: np.ndarray, val: np.ndarray, op, rounds: int):
    """Pointer jumping (Wyllie's list ranking), at most ``rounds`` doublings.

    Afterwards ``ptr[x]`` is the 2**rounds-th successor of x, or the terminal
    (``ptr[t] == t``) its walk stops at, and ``val[x]`` folds ``op`` over the
    values on the way (neutral at terminals).  A round whose ``ptr[ptr]``
    equals ``ptr`` finds every pointer at a fixed point, and the rounds left
    would fold only ``val`` there into ``val``, so the jump stops.  That
    changes nothing when the only cycles are terminals, whose ``val`` is
    neutral, or when ``ptr`` is a permutation (it is then the identity) and
    ``op`` is idempotent, as ``np.minimum`` round the cycles."""
    for _ in range(rounds):
        nxt = ptr[ptr]
        if np.array_equal(nxt, ptr):
            break
        val = op(val, val[ptr])
        ptr = nxt
    return ptr, val


def _trees(image: np.ndarray):
    """(succ, on_cycle, depth, entry) of a partial map: the successor map
    with dead ends as fixed points, whether each point lies on a cycle (a
    dead end is one), its steps to that cycle, and the node where it enters.

    The cycle nodes are the image of succ^(2^r) for 2^r > N."""
    n = len(image)
    ids = np.arange(n, dtype=np.int64)
    succ = np.where(image < 0, ids, image)
    far = succ
    for _ in range(n.bit_length()):
        far = far[far]
    on_cycle = np.zeros(n, dtype=bool)
    on_cycle[far] = True
    del far
    terminal = np.where(on_cycle, ids, succ)
    entry, depth = _jump(terminal, (~on_cycle).astype(np.int64), np.add, n.bit_length())
    return succ, on_cycle, depth, entry


def _step_rank(pattern: PointPattern, cyc: np.ndarray, succ: np.ndarray) -> np.ndarray:
    """Rank, in tuple order, of the row each cycle node is anchored by.

    On a window the row is the node's coordinates.  On a torus absolute
    coordinates wrap under translation, so it is the step displacement to
    the node's image: translation covariant, in exact lattice ints on grids.
    """
    if pattern.domain.kind != TORUS:
        rows = pattern.coords[cyc]
    else:
        rows = displacement(pattern, succ[cyc], cyc)
    return row_ranks(rows)


def _anchors(rank: np.ndarray, csucc: np.ndarray, group: np.ndarray, length: int):
    """Per cycle (``group``), the node whose sequence of ranks along ``csucc``
    is least, or the least-id one on a cycle whose rotations tie.

    Prefix doubling: round k ranks the windows of 2^k ranks read from each
    node, as the pair (own window, window of the 2^(k-1)-th successor).
    Windows of ``length`` (the longest cycle's) or more compare whole
    rotations, so ⌈log₂ length⌉ rounds suffice; they stop early once every
    cycle's least window is held by one node."""
    m = len(rank)
    jump = csucc
    rounds = max(length - 1, 0).bit_length()
    for k in range(rounds + 1):
        order = np.argsort(group * m + rank, kind="stable")
        first = _run_starts(group[order])
        tie = first[:-1] & ~first[1:] & (rank[order[1:]] == rank[order[:-1]])
        if k == rounds or not tie.any():
            return order[first]
        rank = np.unique(rank * m + rank[jump], return_inverse=True)[1]
        jump = jump[jump]


def _run_starts(g: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal values in ``g``."""
    return np.r_[True, g[1:] != g[:-1]][: len(g)]


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
    """Components, foils and per-point walk data for one realization.

    Components are held as columns indexed by component id.  ``cycle_nodes``
    lists every component's cycle from its anchor, in component order, with
    ``cycle_offsets`` bounding each; a tree whose walks die has its dead end
    there instead (a fixed point of the successor map) and cycle length 0.
    """

    component_id: np.ndarray
    foil_id: np.ndarray
    depth_to_cycle: np.ndarray
    entry_position: np.ndarray
    component_size: np.ndarray
    component_root: np.ndarray  # the dead end of a tree, -1 on a cycle
    component_foils: np.ndarray
    cycle_nodes: np.ndarray
    cycle_offsets: np.ndarray
    foil_component: np.ndarray
    foil_key: np.ndarray
    foil_size: np.ndarray
    senior_foil: np.ndarray

    @property
    def n_points(self) -> int:
        return len(self.component_id)

    @property
    def n_components(self) -> int:
        return len(self.component_size)

    @property
    def n_foils(self) -> int:
        return len(self.foil_size)

    @property
    def cycle_length(self) -> np.ndarray:
        return np.where(self.component_root >= 0, 0, np.diff(self.cycle_offsets))

    def _rows(self):
        """(id, size, cycle, root, foil count) per component, from the
        columns; a tree's cycle is empty."""
        nodes = self.cycle_nodes.tolist()
        bounds = zip(self.cycle_offsets[:-1].tolist(), self.cycle_length.tolist())
        cycles = [nodes[start : start + length] for start, length in bounds]
        return zip(
            range(self.n_components),
            self.component_size.tolist(),
            cycles,
            self.component_root.tolist(),
            self.component_foils.tolist(),
        )

    @functools.cached_property
    def components(self) -> tuple[ComponentInfo, ...]:
        """One record per component, built on first use.

        The program reads the columns; the benchmark tracer's component
        counter is the only reader of these records outside the tests."""
        return tuple(
            ComponentInfo(c, size, tuple(cycle), root, root >= 0, foils)
            for c, size, cycle, root, foils in self._rows()
        )

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
                    "id": c,
                    "size": size,
                    "cycle": cycle,
                    "cycle_length": len(cycle),
                    "root": root,
                    "censored": root >= 0,
                    "n_foils": foils,
                    "class": cls,
                }
                for (c, size, cycle, root, foils), cls in zip(self._rows(), classify(self))
            ],
        }
        return json.dumps(obj)

    def components_csv(self) -> str:
        """One row per component; the columns are ints and a class name,
        so one ``%`` format gives ``csv.writer``'s bytes."""
        n = self.n_components
        cells = itertools.chain.from_iterable(
            zip(
                range(n),
                self.component_size.tolist(),
                self.cycle_length.tolist(),
                self.component_foils.tolist(),
                classify(self),
            )
        )
        return "id,size,cycle_length,n_foils,class\n" + "%d,%d,%d,%d,%s\n" * n % tuple(cells)


def foliate(pattern: PointPattern, shift_map: ShiftMap) -> FoliationResult:
    """Full foliation of one evaluated shift."""
    if len(pattern) != len(shift_map):
        raise ConfigError("pattern and shift map sizes differ")
    n = len(shift_map)
    image = shift_map.image
    succ, on_cycle, depth, entry = _trees(image)

    # the cycle nodes (dead ends included) get local indices 0..m-1; each
    # cycle is labelled by its least id, and the components, found by the
    # cycle their points enter, are numbered by their least member
    cyc = np.flatnonzero(on_cycle)
    m = len(cyc)
    local = np.empty(n, dtype=np.int64)
    local[cyc] = np.arange(m)
    csucc = local[succ[cyc]]
    _, label = _jump(csucc, cyc, np.minimum, m.bit_length())
    _, first, comp = np.unique(label[local[entry]], return_index=True, return_inverse=True)
    comp = np.argsort(np.argsort(first))[comp.reshape(-1)]
    n_comp = len(first)
    ccomp = comp[cyc]
    dead = image[cyc] < 0
    lengths = np.bincount(ccomp[~dead], minlength=n_comp)
    roots = np.full(n_comp, -1, dtype=np.int64)
    roots[ccomp[dead]] = cyc[dead]

    # rotate every cycle to its canonical anchor so entry positions are
    # deterministic and, on a torus, translation covariant: a cycle node's
    # position is its number of steps from the anchor
    anchor = np.zeros(m, dtype=bool)
    rank = _step_rank(pattern, cyc, succ)
    anchor[_anchors(rank, csucc, ccomp, int(lengths.max(initial=0)))] = True
    terminal = np.where(anchor, np.arange(m), csucc)
    _, to_anchor = _jump(terminal, (~anchor).astype(np.int64), np.add, m.bit_length())
    clen = np.maximum(lengths[ccomp], 1)
    cpos = (clen - to_anchor) % clen
    entry = cpos[local[entry]]

    plen = lengths[comp]
    key = np.where(plen > 0, (entry - depth) % np.maximum(plen, 1), depth)
    pairs = comp * (n + 1) + key  # key < n+1 always
    uniq, foil_id = np.unique(pairs, return_inverse=True)
    foil_component = (uniq // (n + 1)).astype(np.int64)
    foil_key = (uniq % (n + 1)).astype(np.int64)
    foil_size = np.bincount(foil_id, minlength=len(uniq)).astype(np.int64)

    # the senior foil holds the images: the next key round a cycle, one
    # step nearer the root in a dead-end tree
    flen = lengths[foil_component]
    target = np.where(flen > 0, (foil_key + 1) % np.maximum(flen, 1), foil_key - 1)
    code = np.searchsorted(uniq, foil_component * (n + 1) + target)
    senior = np.where((flen > 0) | (foil_key > 0), code, -1)

    return FoliationResult(
        component_id=comp,
        foil_id=foil_id.astype(np.int64),
        depth_to_cycle=depth,
        entry_position=entry,
        component_size=np.bincount(comp, minlength=n_comp),
        component_root=roots,
        component_foils=np.bincount(foil_component, minlength=n_comp),
        cycle_nodes=cyc[np.lexsort((cpos, ccomp))],
        cycle_offsets=np.r_[0, np.cumsum(np.bincount(ccomp, minlength=n_comp))],
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


def classify(foliation: FoliationResult) -> tuple[str, ...]:
    """Class per component: finite non-censored components are exactly FF;
    censored components are Unknown (the ladder diagnoses growth
    separately, in ``ladder.csv``)."""
    return tuple(np.where(foliation.component_root >= 0, CLASS_UNKNOWN, CLASS_FF).tolist())


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
    is diagnostic only (any finite realization is literally FF).
    """

    rungs: tuple[LadderRung, ...]
    component_slope: float
    foil_slope: float
    class_: str

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


def check_fractions(fractions) -> tuple[float, ...]:
    """The nested-core fractions as floats: at least two, strictly
    increasing, each in (0, 1]."""
    fr = tuple(float(f) for f in fractions)
    if (
        len(fr) < 2
        or any(b <= a for a, b in zip(fr, fr[1:]))
        or not all(0.0 < f <= 1.0 for f in fr)
    ):
        raise ConfigError("fractions must be >= 2 strictly increasing values in (0, 1]")
    return fr


def ladder_diagnostic(
    pattern: PointPattern,
    kind: ShiftKind | str,
    fractions: tuple[float, ...],
    full: FoliationResult,
) -> LadderReport:
    """Analyze the same realization on nested centered cores and fit growth.

    ``full`` is the foliation of ``pattern`` itself: the core that is the
    whole window reads it instead of foliating the pattern again."""
    fr = check_fractions(fractions)
    if full.n_points != len(pattern):
        raise ConfigError("pattern and foliation sizes differ")
    rungs = []
    for f in fr:
        sub = crop(pattern, f)
        fol = full if sub is pattern else foliate(sub, evaluate(sub, kind))
        if fol.n_points == 0:
            rungs.append(LadderRung(f, 0, 0, 0, 0.0, 0))
            continue
        typical = float(np.mean(fol.foil_size[fol.foil_id]))
        rungs.append(
            LadderRung(
                fraction=f,
                n_points=fol.n_points,
                n_components=fol.n_components,
                largest_component=int(fol.component_size.max()),
                typical_foil_size=typical,
                n_foils=fol.n_foils,
            )
        )
    logf = np.log([r.fraction for r in rungs])
    comp_sizes = np.log([max(r.largest_component, 1) for r in rungs])
    foil_sizes = np.log([max(r.typical_foil_size, 1.0) for r in rungs])
    comp_slope = float(np.polyfit(logf, comp_sizes, 1)[0])
    foil_slope = float(np.polyfit(logf, foil_sizes, 1)[0])
    if comp_slope > COMPONENT_THRESHOLD:
        class_ = CLASS_II if foil_slope > FOIL_THRESHOLD else CLASS_IF
    else:
        class_ = CLASS_FF
    return LadderReport(
        rungs=tuple(rungs),
        component_slope=comp_slope,
        foil_slope=foil_slope,
        class_=class_,
    )
