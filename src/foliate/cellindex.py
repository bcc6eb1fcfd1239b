"""Batched neighbor queries on whole patterns, exact across torus seams.

Each call bins its targets once into a cell table: a counting sort, with the
coordinates in cell order, one contiguous array per axis (the linked-cell
layout).  The queries walk in cell order, a block at a time; a block's
(query, candidate) pairs, the targets in a ring of cells around each query's
cell, are expanded in one step, and their distances use the metric of
``patterns.distances_to``, so exact ties stay exact.  A query left open by
its ring widens it on the same table.
"""

from __future__ import annotations

import numpy as np

from .patterns import TORUS, Domain, PointPattern, distances_to

# queries per candidate expansion of 3^d cells (fewer on wider rings): about
# 10⁴ pairs, which stay in cache; larger blocks measured slower and raise
# peak memory
BLOCK = 1024


def _cells(x: np.ndarray, ext: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """Per-axis cells of the points ``x`` (one row per axis, none negative)."""
    return np.minimum((x / (ext / bins)[:, None]).astype(np.int64), (bins - 1)[:, None])


def _stable_order(flat: np.ndarray) -> np.ndarray:
    """The stable argsort of the cell keys ``flat``, from one sort of
    distinct keys (cell, then row), which needs no stable kind."""
    return np.argsort(flat * len(flat) + np.arange(len(flat)))


def _table(coords: np.ndarray, domain: Domain, r: float):
    """``(bins, order, first, count, ordered, cell)``: the rows of ``coords``
    in cells strictly wider than ``r``, at most about 4 cells per row.  Cell
    k holds ``order[first[k]:first[k] + count[k]]``; the extra cell
    ``prod(bins)`` is empty and stands for every cell off a window.
    ``ordered`` and ``cell`` are the coordinates and cells in cell order."""
    ext = np.asarray(domain.extents)
    limit = 4 * len(coords) + 4
    bins = np.maximum(np.floor(ext / max(r * (1 + 1e-9), float(ext.max()) / limit)), 1)
    while bins.prod() > limit:
        bins = np.maximum(np.floor(bins / 2), 1)
    bins = bins.astype(np.int64)
    cell = _cells(coords.T, ext, bins)
    flat = np.ravel_multi_index(tuple(cell), tuple(bins))
    order = _stable_order(flat)
    count = np.bincount(flat, minlength=int(bins.prod()) + 1)
    ordered = np.take(coords.T, order, axis=1)
    return bins, order, np.cumsum(count) - count, count, ordered, np.take(cell, order, axis=1)


def _pairs(domain: Domain, table, queries, ring: int, ahead: bool = False):
    """Yield ``(sl, start, cand, d, cover)`` per block ``sl`` of the queries
    ``(x, cell, pos)``: coordinates and cells in cell order, one row per
    axis, and the cell-order positions of queries that are table rows.

    Query i's candidates are the rows ``cand[start[i]:start[i + 1]]`` in the
    cells at most ``ring`` from its own along every axis, at distances ``d``
    (inf for its own row, and with ``ahead`` for a row not ahead in the
    first coordinate).  Every row within ``cover[i]`` that counts is a
    candidate: ring × cell width plus the query's gap to its own cell's
    faces, inf along an axis the ring spans, less a margin for rounding."""
    bins, order, first, count, ordered, _ = table
    qx, qc, pos = queries
    dim, cells = len(bins), int(bins.prod())
    ext = np.asarray(domain.extents)
    torus = domain.kind == TORUS
    near = np.arange(-ring, ring + 1)
    steps = [np.unique(near % b) if torus else near[np.abs(near) < b] for b in bins]
    offsets = np.stack(np.meshgrid(*steps, indexing="ij")).reshape(dim, -1)
    center = int(np.flatnonzero(~offsets.any(axis=0))[0])
    w = (ext / bins)[:, None]
    span = (2 * ring + 1 >= bins) if torus else np.zeros(dim, dtype=bool)
    step = max(1, BLOCK * 3**dim // offsets.shape[1])
    for lo in range(0, qx.shape[1], step):
        x, qcell = qx[:, lo : lo + step], qc[:, lo : lo + step]
        below = x - (qcell - ring) * w
        above = (qcell + ring + 1) * w - x
        if not torus:
            below[qcell - ring <= 0] = np.inf
            above[qcell + ring >= (bins - 1)[:, None]] = np.inf
            if ahead:  # on a window, rows in lower cells along the first axis are behind
                below[0] = np.inf
        cover = np.minimum(below, above)
        cover[span] = np.inf
        cover = cover.min(axis=0) - 1e-9 * float(ext.max())
        # the flat keys of each query's neighbor cells; a cell off a window
        # is the empty cell `cells`
        nb = qcell[:, :, None] + offsets[:, None, :]
        key = np.ravel_multi_index(tuple(nb), tuple(bins), mode="wrap" if torus else "clip")
        if not torus:
            key[((nb < 0) | (nb >= bins[:, None, None])).any(axis=0)] = cells
        # one run of cell-ordered rows per (query, neighbor cell)
        size = np.take(count, key)
        per = size.sum(axis=1)
        size = size.ravel()
        end = np.cumsum(size)
        at = np.repeat(np.take(first, key).ravel() - end + size, size) + np.arange(end[-1])
        xs = np.repeat(x, per, axis=1)
        ys = np.take(ordered, at, axis=1)
        d = distances_to(ys.T, xs.T, domain)
        if ahead:
            d[ys[0] <= xs[0]] = np.inf
        if pos is not None:
            run = (end - size).reshape(key.shape)[:, center]
            d[run + pos[lo : lo + step] - np.take(first, key[:, center])] = np.inf
        yield slice(lo, lo + x.shape[1]), np.cumsum(per) - per, np.take(order, at), d, cover


def nearest(
    pattern: PointPattern, targets=None, queries=None, ahead: bool = False, reach=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per query, the nearest target: ``(slot, dist, tied)``.

    ``targets`` and ``queries`` are point ids, all points by default;
    without ``queries`` the targets query themselves, each skipping itself.
    With ``ahead`` only targets of larger first coordinate count.  ``slot``
    indexes ``targets``; on an exact distance tie ``tied`` is set and the
    least tied slot wins.  With no target, or none within the query's
    ``reach``, slot is -1 and the distance inf.  Cells are as wide as the
    targets' mean spacing; rings 2, 4, ... of them serve what ring 1 leaves.
    """
    coords = pattern.coords if targets is None else pattern.coords[targets]
    nq = len(coords) if queries is None else len(queries)
    slot = np.full(nq, -1, dtype=np.int64)
    dist, tied = np.full(nq, np.inf), np.zeros(nq, dtype=bool)
    if len(coords) == 0 or nq == 0:
        return slot, dist, tied
    dom = pattern.domain
    table = _table(coords, dom, (dom.volume / len(coords)) ** (1.0 / dom.dimension))
    if queries is None:
        walk, qx, qc, pos = table[1], table[4], table[5], np.arange(nq)
    else:
        qx = pattern.coords[queries].T
        qc = _cells(qx, np.asarray(dom.extents), table[0])
        walk = _stable_order(np.ravel_multi_index(tuple(qc), tuple(table[0])))
        qx, qc, pos = np.take(qx, walk, axis=1), np.take(qc, walk, axis=1), None
    reach = np.broadcast_to(np.inf if reach is None else np.asarray(reach, dtype=float), nq)
    ring = 1
    while walk.size:
        left = []
        for sl, start, cand, d, cover in _pairs(dom, table, (qx, qc, pos), ring, ahead):
            q = walk[sl]
            size = np.diff(start, append=len(cand))
            # reduce the nonempty runs only: their starts ascend strictly
            nz = size > 0
            best = np.full(len(q), np.inf)
            best[nz] = np.minimum.reduceat(d, start[nz])
            done = (best <= cover) | (cover >= reach[q])
            left.append(sl.start + np.flatnonzero(~done))
            hit = done & (best <= reach[q]) & (best < np.inf)
            tie = d == np.repeat(best, size)
            wins = np.minimum.reduceat(np.where(tie, cand, len(coords)), start[nz])
            ties = np.add.reduceat(tie, start[nz], dtype=np.int64)
            slot[q[hit]] = wins[hit[nz]]
            dist[q[hit]] = best[hit]
            tied[q[hit]] = ties[hit[nz]] > 1
        keep = np.concatenate(left)
        walk, qx, qc = walk[keep], qx[:, keep], qc[:, keep]
        pos = None if pos is None else pos[keep]
        ring *= 2
    return slot, dist, tied


def ball(pattern: PointPattern, r: float) -> np.ndarray:
    """Closed-ball counts: per point, the points within distance ``r`` (the
    point itself included)."""
    counts = np.zeros(len(pattern), dtype=np.int64)
    table = _table(pattern.coords, pattern.domain, r)
    for sl, start, _, d, _ in _pairs(pattern.domain, table, (table[4], table[5], None), 1):
        counts[table[1][sl]] = np.add.reduceat(d <= r, start, dtype=np.int64)
    return counts
