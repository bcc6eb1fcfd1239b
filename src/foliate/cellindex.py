"""Batched neighbor queries on whole patterns, exact across torus seams.

Points are binned into cells at least ``r`` wide, so every point within
distance ``r`` of a query sits in the 3^d block of cells around the query's
own cell (taken modulo the bin count on a torus, clipped on a window).  The
cells are a counting sort, so one gather finds a cell's run of points.  The
block is visited one (offset, slot-in-cell) step at a time for all queries
at once; each step yields at most one candidate per query, and distances use
the metric of ``patterns.distances_to``, so exact ties stay exact.
"""

from __future__ import annotations

import itertools

import numpy as np

from .patterns import TORUS, PointPattern, distances_to


def _candidates(pattern: PointPattern, r: float, queries: np.ndarray):
    """Yield (query positions, candidate ids, distances) over the cell block.

    Positions index ``queries``.  Every candidate within ``r`` of a query is
    yielded exactly once; farther ones from the block may be too.
    """
    coords = pattern.coords
    ext = np.asarray(pattern.domain.extents)
    torus = pattern.domain.kind == TORUS
    # cells strictly wider than r, and at most about 4 cells per point
    limit = 4 * len(pattern) + 4
    bins = np.maximum(np.floor(ext / max(r * (1 + 1e-9), float(ext.max()) / limit)), 1)
    while bins.prod() > limit:
        bins = np.maximum(np.floor(bins / 2), 1)
    bins = bins.astype(np.int64)
    cell = np.clip((coords / (ext / bins)).astype(np.int64), 0, bins - 1)
    flat = np.ravel_multi_index(tuple(cell.T), tuple(bins))
    order = np.argsort(flat, kind="stable")
    # the points of cell k are order[first[k]:first[k + 1]]
    first = np.concatenate(([0], np.cumsum(np.bincount(flat, minlength=bins.prod()))))
    qcell = cell[queries]
    near = np.array([-1, 0, 1])
    steps = [np.unique(near % b) if torus else near for b in bins]
    for offset in itertools.product(*steps):
        nb = qcell + np.asarray(offset)
        if torus:
            nb %= bins
            pos = np.arange(len(queries))
        else:
            pos = np.flatnonzero(((nb >= 0) & (nb < bins)).all(axis=1))
            nb = nb[pos]
        key = np.ravel_multi_index(tuple(nb.T), tuple(bins))
        start = first[key]
        count = first[key + 1] - start
        for slot in range(int(count.max(initial=0))):
            live = count > slot
            pos, start, count = pos[live], start[live], count[live]
            cand = order[start + slot]
            yield pos, cand, distances_to(coords[cand], coords[queries[pos]], pattern.domain)


def nearest(pattern: PointPattern) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest other point of every point.

    Returns (nn, dist, tied): on an exact distance tie ``tied`` is set and
    ``nn`` is the smallest tied id.  With no other point, nn is -1 and the
    distance infinite.
    """
    n = len(pattern)
    nn = np.full(n, -1, dtype=np.int64)
    dist = np.full(n, np.inf)
    ties = np.zeros(n, dtype=np.int64)
    if n < 2:
        return nn, dist, ties > 1
    dom = pattern.domain
    half = np.asarray(dom.extents) / (2.0 if dom.kind == TORUS else 1.0)
    max_dist = float(np.sqrt((half**2).sum()))
    r = min(float((dom.volume / n) ** (1.0 / dom.dimension)), max_dist)
    todo = np.arange(n)
    while todo.size:
        best = np.full(todo.size, np.inf)
        arg = np.full(todo.size, -1, dtype=np.int64)
        cnt = np.zeros(todo.size, dtype=np.int64)
        for pos, cand, d in _candidates(pattern, r, todo):
            other = cand != todo[pos]
            pos, cand, d = pos[other], cand[other], d[other]
            b = best[pos]
            lt = d < b
            eq = d == b
            best[pos[lt]] = d[lt]
            arg[pos[lt]] = cand[lt]
            cnt[pos[lt]] = 1
            arg[pos[eq]] = np.minimum(arg[pos[eq]], cand[eq])
            cnt[pos[eq]] += 1
        # every point within r was a candidate, and at max_dist all points are
        done = (best <= r) | (r >= max_dist)
        nn[todo[done]] = arg[done]
        dist[todo[done]] = best[done]
        ties[todo[done]] = cnt[done]
        todo = todo[~done]
        r = min(2.0 * r, max_dist)
    return nn, dist, ties > 1


def ball(pattern: PointPattern, r: float) -> np.ndarray:
    """Closed-ball counts: per point, the points within distance ``r`` (the
    point itself included)."""
    n = len(pattern)
    counts = np.zeros(n, dtype=np.int64)
    for pos, _, d in _candidates(pattern, r, np.arange(n)):
        counts += np.bincount(pos[d <= r], minlength=n)
    return counts
