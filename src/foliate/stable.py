"""Order machinery on top of a foliation: DFS preorder, the royal-line
total order per component, and the two canonical foliation-preserving
bijections (the foil-cyclic successor and the component-cyclic successor)
together with the signed step count between foil mates.

All tie-breaking is lexicographic in coordinates taken relative to a
reference node of the component, so on a torus the constructions commute
with translations exactly; on a window relative and absolute orders agree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .foliation import FoliationResult
from .patterns import TORUS, ConfigError, PointPattern, lattice_coords
from .shifts import ShiftMap


def _relative_coords(pattern: PointPattern, ids: np.ndarray, ref) -> np.ndarray:
    """Coordinates of points ``ids`` relative to ``ref`` (one node, or one
    node per id), taken modulo the extents on a torus.

    Grid patterns use exact integer lattice coordinates; equal displacements
    would otherwise carry position-dependent float noise.
    """
    lattice = lattice_coords(pattern)
    if lattice is not None:
        rel = lattice[ids] - lattice[ref]
        if pattern.domain.kind == TORUS:
            rel = rel % np.asarray(pattern.domain.extents, dtype=np.int64)
    else:
        rel = pattern.coords[ids] - pattern.coords[ref]
        if pattern.domain.kind == TORUS:
            rel = rel % np.asarray(pattern.domain.extents)
    return rel


def _lex_keys(rel: np.ndarray) -> tuple[np.ndarray, ...]:
    """``np.lexsort`` keys ordering the rows of ``rel`` lexicographically."""
    return tuple(rel.T[::-1])


def _ordered_sons(
    pattern: PointPattern, image: np.ndarray, sons: np.ndarray
) -> tuple[list[int], list[int]]:
    """CSR (indptr, sons) of the reversed map restricted to ``sons``: every
    node's sons in lex order of their coordinates relative to it."""
    fathers = image[sons]
    rel = _relative_coords(pattern, sons, fathers)
    sons = sons[np.lexsort(_lex_keys(rel) + (fathers,))]
    indptr = np.zeros(len(image) + 1, dtype=np.int64)
    np.cumsum(np.bincount(fathers, minlength=len(image)), out=indptr[1:])
    return indptr.tolist(), sons.tolist()


def _preorder(roots: list[int], indptr: list[int], sons: list[int]) -> list[int]:
    """DFS preorder of the trees below ``roots``, taken in the given order.

    Meeting a node twice means a cycle lies below a root: a hard error.
    """
    seen = bytearray(len(indptr) - 1)
    out: list[int] = []
    stack = roots[::-1]
    while stack:
        v = stack.pop()
        if seen[v]:
            raise ConfigError("cycle reachable below root")
        seen[v] = 1
        out.append(v)
        stack.extend(reversed(sons[indptr[v] : indptr[v + 1]]))
    return out


def dfs_preorder(pattern: PointPattern, shift_map: ShiftMap, root: int) -> list[int]:
    """Preorder over the descendants of ``root`` in the reversed map.

    Sons are visited lexicographically (relative to their father).  A cycle
    anywhere below the root is a hard error: descendant trees only.
    """
    n = len(shift_map)
    if not 0 <= root < n:
        raise ConfigError("root out of range")
    image = shift_map.image
    indptr, sons = _ordered_sons(pattern, image, np.flatnonzero(image >= 0))
    return _preorder([int(root)], indptr, sons)


@dataclass(frozen=True)
class RlsOrder:
    """Total order per component: rank[x] in 0..|C|-1.

    Cycle nodes come in cycle order from the component anchor, each followed
    by a DFS of its hanging trees; dead-end components are a single DFS from
    the root."""

    rank: np.ndarray


def build_rls_order(
    pattern: PointPattern, shift_map: ShiftMap, foliation: FoliationResult
) -> RlsOrder:
    # depth 0 marks the cycle nodes and the dead-end roots: they are the DFS
    # roots, in (component, cycle position) order, and never anyone's sons
    depth = foliation.depth_to_cycle
    comp = foliation.component_id
    indptr, sons = _ordered_sons(pattern, shift_map.image, np.flatnonzero(depth > 0))
    tops = np.flatnonzero(depth == 0)
    tops = tops[np.lexsort((foliation.entry_position[tops], comp[tops]))]
    pre = np.asarray(_preorder(tops.tolist(), indptr, sons), dtype=np.int64)
    # the preorder runs through the components in id order
    sizes = np.bincount(comp, minlength=len(foliation.components))
    first = np.cumsum(sizes) - sizes
    rank = np.empty(len(comp), dtype=np.int64)
    rank[pre] = np.arange(len(pre)) - first[comp[pre]]
    return RlsOrder(rank=rank)


@dataclass(frozen=True)
class StableMaps:
    """The two canonical dense bijections of one foliation."""

    f_perp: np.ndarray
    h_dense: np.ndarray
    rls: RlsOrder


def _component_reference(foliation: FoliationResult) -> np.ndarray:
    """Per component, its reference node: the cycle anchor, or the root of a
    dead-end tree (the one node at depth 0 and cycle position 0)."""
    top = np.flatnonzero(
        (foliation.depth_to_cycle == 0) & (foliation.entry_position == 0)
    )
    ref = np.empty(len(foliation.components), dtype=np.int64)
    ref[foliation.component_id[top]] = top
    return ref


def _cyclic_successor(order: np.ndarray, group: np.ndarray) -> np.ndarray:
    """Map sending each entry of ``order`` to the next one of its group and
    the last of a group to its first; ``group`` is sorted along ``order``."""
    n = len(order)
    succ = np.empty(n, dtype=np.int64)
    if n == 0:
        return succ
    first = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
    last = np.r_[first[1:], n] - 1
    nxt = np.roll(order, -1)
    nxt[last] = order[first]
    succ[order] = nxt
    return succ


def _foil_keys(
    pattern: PointPattern,
    foliation: FoliationResult,
    ids: np.ndarray,
    rls: RlsOrder | None = None,
    rls_components: frozenset[int] | set[int] = frozenset(),
) -> tuple[np.ndarray, ...]:
    """``np.lexsort`` keys of the cyclic order of points ``ids`` inside their
    foils: coordinates relative to the component reference (the cycle anchor
    or the root), or royal-line rank on the components in ``rls_components``."""
    comp = foliation.component_id[ids]
    rel = _relative_coords(pattern, ids, _component_reference(foliation)[comp])
    if rls is None or not rls_components:
        return _lex_keys(rel)
    by_rank = np.isin(comp, list(rls_components))
    rel[by_rank] = 0
    return _lex_keys(rel) + (np.where(by_rank, rls.rank[ids], 0),)


def foil_order(
    pattern: PointPattern,
    foliation: FoliationResult,
    f: int,
    rls: RlsOrder | None = None,
    use_rls: bool = False,
) -> np.ndarray:
    """Members of foil ``f`` in their cyclic order."""
    members = foliation.foil_members(f)
    if len(members) <= 1:
        return members
    comps = {int(foliation.foil_component[f])} if use_rls else frozenset()
    return members[np.lexsort(_foil_keys(pattern, foliation, members, rls, comps))]


def build_f_perp(
    pattern: PointPattern,
    foliation: FoliationResult,
    rls: RlsOrder | None = None,
    rls_components: frozenset[int] | set[int] = frozenset(),
) -> np.ndarray:
    """Bijection whose orbits are exactly the foils.

    Finite-class foils cycle through their members in (relative) lex order;
    components diagnosed as infinite-foil use the royal-line order instead.
    """
    foil = foliation.foil_id
    keys = _foil_keys(pattern, foliation, np.arange(len(foil)), rls, rls_components)
    order = np.lexsort(keys + (foil,))
    return _cyclic_successor(order, foil[order])


def build_h_dense(foliation: FoliationResult, rls: RlsOrder) -> np.ndarray:
    """Bijection whose orbits are exactly the components: the cyclic
    successor in royal-line rank."""
    comp = foliation.component_id
    order = np.lexsort((rls.rank, comp))
    return _cyclic_successor(order, comp[order])


def build_stable_maps(
    pattern: PointPattern,
    shift_map: ShiftMap,
    foliation: FoliationResult,
    rls_components: frozenset[int] | set[int] = frozenset(),
) -> StableMaps:
    rls = build_rls_order(pattern, shift_map, foliation)
    return StableMaps(
        f_perp=build_f_perp(pattern, foliation, rls, rls_components),
        h_dense=build_h_dense(foliation, rls),
        rls=rls,
    )


def delta(
    f_perp: np.ndarray, foliation: FoliationResult, x: int, y: int
) -> int:
    """Number of f_perp steps from x to y inside their common foil.

    Nonnegative, taken in the step direction; delta(x, y) and -delta(y, x)
    agree modulo the foil size.
    """
    if foliation.foil_id[x] != foliation.foil_id[y]:
        raise ConfigError("points lie in different foils")
    limit = int(foliation.foil_size[foliation.foil_id[x]])
    z = int(x)
    for k in range(limit):
        if z == int(y):
            return k
        z = int(f_perp[z])
    raise ConfigError("f_perp orbit does not reach the target")


def stable_to_json(table: np.ndarray, role: str) -> str:
    rows = [
        {"id": int(i), "image": int(table[i]), "censored": False, "role": role}
        for i in range(len(table))
    ]
    return json.dumps(rows)


def orbit(table: np.ndarray, start: int, expect: int | None = None) -> list[int]:
    """Cycle of ``table`` through ``start``; the table must be a permutation.

    With ``expect`` the cycle must have exactly that many points (the foil or
    component it is meant to cover).
    """
    limit = len(table) if expect is None else expect
    out = [int(start)]
    z = int(table[start])
    while z != start:
        if len(out) >= limit:
            raise ConfigError(f"orbit of {start} does not close within {limit} points")
        out.append(z)
        z = int(table[z])
    if expect is not None and len(out) != expect:
        raise ConfigError(f"orbit of {start} has {len(out)} points, expected {expect}")
    return out


def foil_windings(
    pattern: PointPattern,
    shift_map: ShiftMap,
    foliation: FoliationResult,
    stable: StableMaps,
) -> list[tuple[int, int, int]]:
    """Per foil: (foil id, winding, senior size) of the image sequence.

    Walking a foil once along f_perp, the images advance through the senior
    foil's f_perp order; summing the forward step counts must wind exactly
    once around the senior foil (or not at all when every image coincides).
    This is the finite form of the order-preservation property: any
    backtracking inflates the winding beyond one lap.
    """
    out: list[tuple[int, int, int]] = []
    for fid in range(foliation.n_foils):
        members = foliation.foil_members(fid)
        senior = int(foliation.senior_foil[fid])
        if senior < 0:
            continue
        if np.any(shift_map.censored[members]):
            continue
        start = int(members[0])
        seq = orbit(stable.f_perp, start, len(members))
        images = [int(shift_map.image[z]) for z in seq]
        senior_members = foliation.foil_members(senior)
        sorder = orbit(stable.f_perp, int(senior_members[0]), len(senior_members))
        pos = {z: i for i, z in enumerate(sorder)}
        m_plus = len(sorder)
        total = 0
        for a, b in zip(images, images[1:] + images[:1]):
            total += (pos[b] - pos[a]) % m_plus
        out.append((fid, total // m_plus if m_plus else 0, m_plus))
    return out


def check_order_preservation(
    pattern: PointPattern,
    shift_map: ShiftMap,
    foliation: FoliationResult,
    stable: StableMaps,
) -> bool:
    """True when no foil's image walk backtracks (winding 0 or 1 per foil)."""
    windings = foil_windings(pattern, shift_map, foliation, stable)
    return all(w in (0, 1) for _, w, _ in windings)
