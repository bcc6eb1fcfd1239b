"""Order machinery on top of a foliation: the depth-first preorder of the
trees below the cycles, by Euler-tour list ranking with no per-node loop;
the royal-line total order per component; and the two canonical
foliation-preserving bijections (the foil-cyclic successor and the
component-cyclic successor).
Each point keeps its position in its foil's cycle, so the step count
between foil mates, and every sum of step counts over a foil, is whole-array
position arithmetic modulo the foil size.

All tie-breaking is lexicographic in coordinates taken relative to a
reference node of the component, so on a torus the constructions commute
with translations exactly; on a window relative and absolute orders agree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .foliation import FoliationResult, _jump, canonical
from .patterns import ConfigError, PointPattern, displacement
from .shifts import ShiftMap, json_rows


def _lex_keys(rel: np.ndarray) -> tuple[np.ndarray, ...]:
    """``np.lexsort`` keys ordering the rows of ``rel`` lexicographically."""
    return tuple(rel.T[::-1])


def _ordered_sons(
    pattern: PointPattern, image: np.ndarray, sons: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, sons) of the reversed map restricted to ``sons``: every
    node's sons in lex order of their coordinates relative to it."""
    fathers = image[sons]
    rel = displacement(pattern, sons, fathers)
    sons = sons[np.lexsort(_lex_keys(rel) + (fathers,))]
    indptr = np.zeros(len(image) + 1, dtype=np.int64)
    np.cumsum(np.bincount(fathers, minlength=len(image)), out=indptr[1:])
    return indptr, sons


def _preorder(roots: np.ndarray, indptr: np.ndarray, sons: np.ndarray) -> np.ndarray:
    """Preorder index of every node in the depth-first walk of the trees
    below ``roots``, taken in the given order, by Euler-tour list ranking.

    The tour has 2N events, "enter v" = v and "leave v" = N + v.  Enter v
    goes to enter(first son of v), or to leave v if v has no sons; leave v
    goes to enter(next sibling of v), or to leave(father of v) if there is
    none.  The roots are chained as siblings, so the tour ends at
    leave(last root).  Pointer jumping counts the enter events from each
    event to the end: the preorder index of v is N minus that count.

    Every node must be a root or a son exactly once and every event must
    reach the end; anything else means a cycle below or apart from the
    roots: a hard error.
    """
    n = len(indptr) - 1
    if np.any(np.bincount(np.r_[roots, sons], minlength=n) != 1):
        raise ConfigError("cycle reachable below root")
    ids = np.arange(n, dtype=np.int64)
    n_sons = np.diff(indptr)
    has_sons = n_sons > 0
    last = np.zeros(len(sons), dtype=bool)  # the last son of its father
    last[indptr[1:][has_sons] - 1] = True
    nxt = np.r_[n + ids, n + ids]
    nxt[ids[has_sons]] = sons[indptr[:-1][has_sons]]
    nxt[n + sons] = np.where(last, n + np.repeat(ids, n_sons), np.roll(sons, -1))
    nxt[n + roots[:-1]] = roots[1:]
    terminal = n + roots[-1] if len(roots) else -1
    weight = np.r_[np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64)]
    end, count = _jump(nxt, weight, np.add, (2 * n).bit_length())
    if np.any(end != terminal):
        raise ConfigError("cycle of sons not reachable from the roots")
    return n - count[:n]


@dataclass(frozen=True)
class RlsOrder:
    """Total order per component: rank[x] in 0..|C|-1.

    Cycle nodes come in cycle order from the component anchor, each followed
    by the depth-first preorder of its hanging trees; dead-end components
    are one preorder from the root."""

    rank: np.ndarray


def build_rls_order(
    pattern: PointPattern, shift_map: ShiftMap, foliation: FoliationResult
) -> RlsOrder:
    # the cycle nodes and dead ends are the preorder's roots, in (component,
    # cycle position) order, and never anyone's sons
    comp = foliation.component_id
    sons = np.flatnonzero(foliation.depth_to_cycle > 0)
    indptr, sons = _ordered_sons(pattern, shift_map.image, sons)
    pre = _preorder(foliation.cycle_nodes, indptr, sons)
    # the preorder runs through the components in id order
    first = np.cumsum(foliation.component_size) - foliation.component_size
    return RlsOrder(rank=pre - first[comp])


@dataclass(frozen=True)
class StableMaps:
    """The two canonical dense bijections of one foliation, with each
    point's position in its foil's cycle (``f_perp`` steps from the foil's
    first member) and in its component's (the royal-line rank), and the
    canonically anchored foliation they are built on."""

    f_perp: np.ndarray
    h_dense: np.ndarray
    rls: RlsOrder
    foil_pos: np.ndarray
    foliation: FoliationResult


def _cycles_through(order: np.ndarray, group: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(successor, position) of the cyclic orders that ``order`` lists group
    by group (``group`` is sorted along ``order``): each entry goes to the
    next of its group and the last to the first, and sits at its offset from
    the group's first entry."""
    n = len(order)
    succ = np.empty(n, dtype=np.int64)
    pos = np.empty(n, dtype=np.int64)
    if n == 0:
        return succ, pos
    first = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
    last = np.r_[first[1:], n] - 1
    nxt = np.roll(order, -1)
    nxt[last] = order[first]
    succ[order] = nxt
    pos[order] = np.arange(n) - np.repeat(first, last - first + 1)
    return succ, pos


def foil_cycles(
    pattern: PointPattern, foliation: FoliationResult, ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(f_perp, foil_pos) of the points ``ids``, which must be whole foils in
    ascending id order: each foil cycles through its members in lex order of
    their coordinates relative to the component reference (the cycle anchor
    or the dead end).  Entry i is the foil successor (a point id) and the
    cycle position of ``ids[i]``.

    The keys are taken point by point and the sort is stable, so any set of
    whole foils gets the cycles the whole pattern gives, ties included.
    """
    ids = np.asarray(ids, dtype=np.int64)
    foil = foliation.foil_id[ids]
    reference = foliation.cycle_nodes[foliation.cycle_offsets[:-1]]
    rel = displacement(pattern, ids, reference[foliation.component_id[ids]])
    order = np.lexsort(_lex_keys(rel) + (foil,))
    succ, pos = _cycles_through(order, foil[order])
    return ids[succ], pos


def build_h_dense(foliation: FoliationResult, rls: RlsOrder) -> np.ndarray:
    """Bijection whose orbits are exactly the components: the cyclic
    successor in royal-line rank.  The preorder index (component offset plus
    rank) is a permutation, so its inverse lists the points in that order."""
    comp = foliation.component_id
    first = np.cumsum(foliation.component_size) - foliation.component_size
    order = np.empty(len(comp), dtype=np.int64)
    order[first[comp] + rls.rank] = np.arange(len(comp))
    return _cycles_through(order, comp[order])[0]


def build_stable_maps(
    pattern: PointPattern, shift_map: ShiftMap, foliation: FoliationResult
) -> StableMaps:
    """The stable maps of ``foliation`` rotated to its canonical anchors."""
    foliation = canonical(pattern, foliation)
    rls = build_rls_order(pattern, shift_map, foliation)
    f_perp, foil_pos = foil_cycles(pattern, foliation, np.arange(foliation.n_points))
    return StableMaps(
        f_perp=f_perp,
        h_dense=build_h_dense(foliation, rls),
        rls=rls,
        foil_pos=foil_pos,
        foliation=foliation,
    )


def delta(stable: StableMaps, foliation: FoliationResult, x, y):
    """Number of f_perp steps from x to y inside their common foil, for
    scalar or array ids.

    Nonnegative, taken in the step direction; delta(x, y) and -delta(y, x)
    agree modulo the foil size.  Only the foils of ``foliation`` are read,
    so its cycles may be anchored either way.
    """
    foil = foliation.foil_id[x]
    if np.any(foil != foliation.foil_id[y]):
        raise ConfigError("points lie in different foils")
    return (stable.foil_pos[y] - stable.foil_pos[x]) % foliation.foil_size[foil]


def senior_steps(
    shift_map: ShiftMap, foliation: FoliationResult, stable: StableMaps
) -> np.ndarray:
    """Per point x, delta(F(x), F(f_perp(x))): the senior-foil steps from
    the image of x to the image of its foil successor; 0 where x is
    censored.  A censored point is a dead end, alone in its foil, so every
    other point's foil successor has an image too."""
    x = np.flatnonzero(~shift_map.censored)
    image = shift_map.image
    out = np.zeros(len(image), dtype=np.int64)
    out[x] = delta(stable, foliation, image[x], image[stable.f_perp[x]])
    return out


def stable_to_json(table: np.ndarray, role: str) -> str:
    """The rows ``{"id", "image", "censored": false, "role"}`` of a bijection."""
    return json_rows(table, f', "role": {json.dumps(role)}')


def foil_windings(
    shift_map: ShiftMap, foliation: FoliationResult, stable: StableMaps
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(foil ids, windings, senior sizes) of the foils with a senior foil.

    Walking a foil once along f_perp, the images advance through the senior
    foil's f_perp order; summing the forward step counts must wind exactly
    once around the senior foil (or not at all when every image coincides).
    This is the finite form of the order-preservation property: any
    backtracking inflates the winding beyond one lap.
    """
    steps = senior_steps(shift_map, foliation, stable)
    total = np.bincount(foliation.foil_id, weights=steps, minlength=foliation.n_foils)
    fids = np.flatnonzero(foliation.senior_foil >= 0)
    m_plus = foliation.foil_size[foliation.senior_foil[fids]]
    return fids, total[fids].astype(np.int64) // m_plus, m_plus
