"""Batched neighbor queries on whole patterns, exact across torus seams.

Points are binned into cells at least ``r`` wide, so every point within
distance ``r`` of a query sits in the 3^d block of cells around the query's
own cell (taken modulo the bin count on a torus, clipped on a window).  The
cells are a counting sort, and the coordinates are kept in cell order, one
contiguous array per axis (the linked-cell layout).  The queries are walked
in cell order, ``BLOCK`` at a time; each block's (query, candidate) pairs are
expanded in one step, one run of cell-ordered points per neighbor cell, and
their distances use the metric of ``patterns.distances_to``, so exact ties
stay exact.  ``nearest`` reduces each query's run, ``ball`` counts it.
"""

from __future__ import annotations

import numpy as np

from .patterns import TORUS, PointPattern, distances_to

# queries per candidate expansion: about 10⁴ pairs, which stay in cache;
# larger blocks measured slower and raise peak memory
BLOCK = 1024


def _pairs(pattern: PointPattern, r: float, queries: np.ndarray):
    """Yield ``(q, start, own, cand, d)`` per block of queries in cell order.

    ``q`` holds the block's query ids.  Query ``q[i]``'s candidates are the
    ids ``cand[start[i]:start[i + 1]]`` (the last run ends at the end), at
    distances ``d`` over the same slice.  Every point within ``r`` of a
    query is listed in its run exactly once, the query itself included (at
    position ``own[i]``), so no run is empty; farther points from the cell
    block may be listed too.
    """
    coords = pattern.coords
    n, dim = coords.shape
    ext = np.asarray(pattern.domain.extents)
    torus = pattern.domain.kind == TORUS
    # cells strictly wider than r, and at most about 4 cells per point
    limit = 4 * n + 4
    bins = np.maximum(np.floor(ext / max(r * (1 + 1e-9), float(ext.max()) / limit)), 1)
    while bins.prod() > limit:
        bins = np.maximum(np.floor(bins / 2), 1)
    bins = bins.astype(np.int64)
    cell = np.clip((coords / (ext / bins)).astype(np.int64), 0, bins - 1)
    cells = int(bins.prod())
    flat = np.ravel_multi_index(tuple(cell.T), tuple(bins))
    order = np.argsort(flat, kind="stable")
    # the points of cell k sit at first[k]:first[k] + count[k] in cell
    # order; the extra cell `cells` is empty and stands for every cell off
    # a window
    count = np.bincount(flat, minlength=cells + 1)
    first = np.cumsum(count) - count
    del flat
    # coordinates and per-axis cells in cell order, one contiguous row per axis
    ordered = np.take(coords.T, order, axis=1)
    ocell = np.take(cell.T, order, axis=1)
    del cell
    # per axis and cell index, the terms its neighbor cells add to a flat
    # key; off a window the term `cells` lifts the key past every real cell
    near = np.array([-1, 0, 1])
    steps = [np.unique(near % b) if torus else near for b in bins]
    strides = np.r_[np.cumprod(bins[::-1])[::-1][1:], 1]
    lift = []
    for b, s, stride in zip(bins, steps, strides):
        nb = np.arange(b)[:, None] + s
        on = (nb >= 0) & (nb < b)
        lift.append(nb % b * stride if torus else np.where(on, nb * stride, cells))
    # where each query's own cell sits in its 3^d block
    center = np.ravel_multi_index(
        [int(np.flatnonzero(s == 0)[0]) for s in steps], [len(s) for s in steps]
    )
    inside = np.zeros(n, dtype=bool)
    inside[queries] = True
    walk = np.flatnonzero(inside[order])
    for lo in range(0, walk.size, BLOCK):
        qpos = walk[lo : lo + BLOCK]
        qcell = np.take(ocell, qpos, axis=1)
        # the flat keys of each query's 3^d neighbor cells, from its per-axis cells
        key = np.zeros((len(qpos),) + (1,) * dim, dtype=np.int64)
        for k, table in enumerate(lift):
            shape = [len(qpos)] + [1] * dim
            shape[k + 1] = -1
            key = key + np.take(table, qcell[k], axis=0).reshape(shape)
        key = key.reshape(len(qpos), -1)
        if not torus:
            np.minimum(key, cells, out=key)
        # one run of cell-ordered points per (query, neighbor cell)
        begin = np.take(first, key)
        size = np.take(count, key)
        per = size.sum(axis=1)
        size = size.ravel()
        end = np.cumsum(size)
        run = end - size
        at = np.repeat(begin.ravel() - run, size) + np.arange(end[-1])
        own = run.reshape(key.shape)[:, center] + qpos - begin[:, center]
        d = distances_to(
            np.take(ordered, at, axis=1).T,
            np.repeat(np.take(ordered, qpos, axis=1), per, axis=1).T,
            pattern.domain,
        )
        yield np.take(order, qpos), np.cumsum(per) - per, own, np.take(order, at), d


def nearest(pattern: PointPattern) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest other point of every point.

    Returns (nn, dist, tied): on an exact distance tie ``tied`` is set and
    ``nn`` is the smallest tied id.  With no other point, nn is -1 and the
    distance infinite.
    """
    n = len(pattern)
    nn = np.full(n, -1, dtype=np.int64)
    dist = np.full(n, np.inf)
    tied = np.zeros(n, dtype=bool)
    if n < 2:
        return nn, dist, tied
    dom = pattern.domain
    half = np.asarray(dom.extents) / (2.0 if dom.kind == TORUS else 1.0)
    max_dist = float(np.sqrt((half**2).sum()))
    r = min(float((dom.volume / n) ** (1.0 / dom.dimension)), max_dist)
    todo = np.arange(n)
    while todo.size:
        left = []
        for q, start, own, cand, d in _pairs(pattern, r, todo):
            d[own] = np.inf
            size = np.diff(start, append=len(cand))
            best = np.minimum.reduceat(d, start)
            tie = d == np.repeat(best, size)
            # every point within r was a candidate, and at max_dist all points are
            done = (best <= r) | (r >= max_dist)
            nn[q[done]] = np.minimum.reduceat(np.where(tie, cand, n), start)[done]
            dist[q[done]] = best[done]
            tied[q[done]] = np.add.reduceat(tie, start, dtype=np.int64)[done] > 1
            left.append(q[~done])
        todo = np.concatenate(left)
        r = min(2.0 * r, max_dist)
    return nn, dist, tied


def ball(pattern: PointPattern, r: float) -> np.ndarray:
    """Closed-ball counts: per point, the points within distance ``r`` (the
    point itself included)."""
    counts = np.zeros(len(pattern), dtype=np.int64)
    for q, start, _, _, d in _pairs(pattern, r, np.arange(len(pattern))):
        counts[q] = np.add.reduceat(d <= r, start, dtype=np.int64)
    return counts
