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
depth and entry node; jumping round the cycles labels each by its least id,
which anchors it; and jumping to the anchors gives the positions round each
cycle.  Components and foils are numbered by counting, not sorting.  No
Python loop runs over points, cycles or foils.

None of the partition, the sizes or the counts depends on which node
anchors a cycle: the anchor only sets the entry positions, from which one
numbering pass (``_number``) numbers the foils.  Only the foliation file,
the stable maps and the walk estimate on a cycle read the anchor, and
``canonical`` numbers the foils again from translation-covariant anchors
for them.
"""

from __future__ import annotations

import csv
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


def _step_rank(pattern: PointPattern, cyc: np.ndarray, nxt: np.ndarray) -> np.ndarray:
    """Rank, in tuple order, of the row each cycle node ``cyc`` is anchored
    by; ``nxt`` holds their successors.

    On a window the row is the node's coordinates.  On a torus absolute
    coordinates wrap under translation, so it is the step displacement to
    the node's image: translation covariant, in exact lattice ints on grids.
    """
    if pattern.domain.kind != TORUS:
        rows = pattern.coords[cyc]
    else:
        rows = displacement(pattern, nxt, cyc)
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
class FoliationResult:
    """Components, foils and per-point walk data for one realization.

    Components are held as columns indexed by component id.  ``cycle_nodes``
    lists every component's cycle from its anchor, in component order, with
    ``cycle_offsets`` bounding each; a tree whose walks die has its dead end
    there instead (a fixed point of the successor map) and cycle length 0.
    The anchor is the cycle's least id as ``foliate`` gives it, or the
    canonical one after ``canonical``; it numbers the foils of its
    component by key and sets the entry positions.
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

    @property
    def components(self) -> range:
        """The component ids."""
        return range(self.n_components)

    def to_json(self, decimals: np.ndarray) -> str:
        """The per-point columns and one object per component, in the bytes
        ``json.dumps`` gives; the columns are joined from ``decimals``
        (``shifts.decimal_table`` of at least the point count)."""
        if len(decimals) <= self.n_points:
            raise ValueError("the decimal table is shorter than the columns")
        columns = {
            "component": self.component_id,
            "foil": self.foil_id,
            "depth_to_cycle": self.depth_to_cycle,
            "entry_position": self.entry_position,
        }
        per_point = ", ".join(
            f'"{key}": [{", ".join(decimals[col].tolist())}]' for key, col in columns.items()
        )
        nodes = self.cycle_nodes.tolist()
        bounds = zip(self.cycle_offsets[:-1].tolist(), self.cycle_length.tolist())
        rows = zip(
            self.components,
            self.component_size.tolist(),
            [nodes[start : start + length] for start, length in bounds],
            self.component_root.tolist(),
            self.component_foils.tolist(),
            classify(self),
        )
        objects = (
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
            for c, size, cycle, root, foils, cls in rows
        )
        # dumped a block of objects at a time, so that they are never all held
        blocks = iter(lambda: list(itertools.islice(objects, 4096)), [])
        components = ", ".join(json.dumps(block)[1:-1] for block in blocks)
        return (
            f'{{"schema_version": 1, "per_point": {{{per_point}}}, '
            f'"components": [{components}]}}'
        )

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
    """Full foliation of one evaluated shift, each cycle anchored at its
    least id.

    Nothing is sorted: every label is a point id or a position below its
    component's size, so a presence mask and a running count rank them.
    The foil partition, sizes, senior foils and component columns do not
    depend on the anchors; ``canonical`` numbers the foils again, by the
    same ``_number``, from the anchors that the foliation file and the
    stable maps read."""
    if len(pattern) != len(shift_map):
        raise ConfigError("pattern and shift map sizes differ")
    n = len(shift_map)
    image = shift_map.image
    ids = np.arange(n, dtype=np.int64)
    succ, on_cycle, depth, entry = _trees(image)

    # the cycle nodes (dead ends included) get local indices 0..m-1; each
    # cycle is labelled by its least id, which anchors it
    cyc = np.flatnonzero(on_cycle)
    del on_cycle
    m = len(cyc)
    local = np.empty(n, dtype=np.int64)
    local[cyc] = np.arange(m)
    csucc = local[succ[cyc]]
    del succ
    _, label = _jump(csucc, cyc, np.minimum, m.bit_length())
    anchor = cyc == label

    # the components, found by the cycle their points enter, are numbered
    # by their least member
    label = label[local[entry]]
    least = np.full(n, n, dtype=np.int64)
    np.minimum.at(least, label, ids)
    least = least[label]
    del label
    first = least == ids
    n_comp = int(first.sum())
    comp = (np.cumsum(first) - 1)[least]
    del first, least
    size = np.bincount(comp, minlength=n_comp)
    ccomp = comp[cyc]
    dead = image[cyc] < 0
    lengths = np.bincount(ccomp[~dead], minlength=n_comp)
    roots = np.full(n_comp, -1, dtype=np.int64)
    roots[ccomp[dead]] = cyc[dead]

    # a cycle node's position is its number of steps from the anchor
    terminal = np.where(anchor, np.arange(m), csucc)
    _, to_anchor = _jump(terminal, (~anchor).astype(np.int64), np.add, m.bit_length())
    del terminal, anchor, csucc, cyc, dead
    clen = np.maximum(lengths[ccomp], 1)
    entry = ((clen - to_anchor) % clen)[local[entry]]
    del local, to_anchor, clen, ccomp
    return _number(comp, size, lengths, roots, depth, entry)


def _number(comp, size, lengths, roots, depth, entry) -> FoliationResult:
    """The foliation of a structure (each point's component and depth,
    each component's size, cycle length and dead end) whose points enter
    their cycles at the positions ``entry``.  The positions only number
    the foils; the foils themselves are fixed by the structure.

    Nothing is sorted: a foil is a (component, key) pair, and a key is
    below its component's size, so component start + key is below N and a
    presence mask and a running count rank the foils densely in
    (component, key) order."""
    n = len(comp)
    plen = lengths[comp]
    key = np.where(plen > 0, (entry - depth) % np.maximum(plen, 1), depth)
    del plen
    start = np.cumsum(size) - size
    code = start[comp] + key
    present = np.zeros(n, dtype=bool)
    present[code] = True
    n_foils = int(present.sum())
    dense = np.cumsum(present) - 1
    del present
    foil_id = dense[code]
    del code
    foil_component = np.empty(n_foils, dtype=np.int64)
    foil_component[foil_id] = comp
    foil_key = np.empty(n_foils, dtype=np.int64)
    foil_key[foil_id] = key
    del key

    # the senior foil holds the images: the next key round a cycle, one
    # step nearer the root in a dead-end tree
    flen = lengths[foil_component]
    target = np.where(flen > 0, (foil_key + 1) % np.maximum(flen, 1), foil_key - 1)
    senior = np.where(target >= 0, dense[start[foil_component] + np.maximum(target, 0)], -1)
    del dense, flen, target

    # each cycle from its anchor, in component order; a dead end is its
    # tree's one node at depth 0
    cyc = np.flatnonzero(depth == 0)
    offsets = np.r_[0, np.cumsum(np.maximum(lengths, 1))]
    cycle_nodes = np.empty(len(cyc), dtype=np.int64)
    cycle_nodes[offsets[comp[cyc]] + entry[cyc]] = cyc

    return FoliationResult(
        component_id=comp,
        foil_id=foil_id,
        depth_to_cycle=depth,
        entry_position=entry,
        component_size=size,
        component_root=roots,
        component_foils=np.bincount(foil_component, minlength=len(size)),
        cycle_nodes=cycle_nodes,
        cycle_offsets=offsets,
        foil_component=foil_component,
        foil_key=foil_key,
        foil_size=np.bincount(foil_id, minlength=n_foils),
        senior_foil=senior,
    )


def canonical(pattern: PointPattern, fol: FoliationResult) -> FoliationResult:
    """``fol`` with every cycle anchored at its canonical node, as the
    foliation file, the stable maps and the walk estimate read it.

    The anchor is the node whose sequence of step rows round the cycle is
    lex least, the least id on a cycle whose rotations tie (``_step_rank``,
    ``_anchors``), so entry positions are deterministic and, on a torus,
    translation covariant.  A dead-end tree keeps its dead end.  Moving the
    anchor p steps on takes p from every entry position of its component,
    and ``_number`` numbers the foils from those positions as ``foliate``
    does; the partition, sizes and components are unchanged.  A canonical
    ``fol`` is returned as it is."""
    if len(pattern) != fol.n_points:
        raise ConfigError("pattern and foliation sizes differ")
    n = fol.n_points
    lengths = fol.cycle_length
    comp = fol.component_id
    pos = fol.entry_position  # a cycle node's own position

    # the nodes of the cycles in id order, so equal rotations go to the least id
    cyc = np.flatnonzero((fol.depth_to_cycle == 0) & (lengths[comp] > 0))
    ccomp = comp[cyc]
    clen = lengths[ccomp]
    nxt = fol.cycle_nodes[fol.cycle_offsets[ccomp] + (pos[cyc] + 1) % clen]
    local = np.empty(n, dtype=np.int64)
    local[cyc] = np.arange(len(cyc))
    rank = _step_rank(pattern, cyc, nxt)
    anchors = cyc[_anchors(rank, local[nxt], ccomp, int(clen.max(initial=0)))]
    del local, rank, nxt, cyc, ccomp, clen

    shift = np.zeros(fol.n_components, dtype=np.int64)
    shift[comp[anchors]] = pos[anchors]
    if not shift.any():
        return fol
    entry = (pos - shift[comp]) % np.maximum(lengths, 1)[comp]
    return _number(comp, fol.component_size, lengths, fol.component_root, fol.depth_to_cycle, entry)


def next_generation(
    image: np.ndarray, images: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One order on from the n-fold ``images`` (-1 where undefined): the
    (n+1)-fold images, d_{n+1} (how many points each is the (n+1)-fold
    image of) and l_{n+1} = d_{n+1} at each point's (n+1)-fold image, the
    size of its cousin set (0 where undefined)."""
    images = np.append(image, -1)[images]  # -1 reads the appended -1
    d = np.bincount(images + 1, minlength=len(image) + 1)[1:]
    return images, d, np.append(d, 0)[images]


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
