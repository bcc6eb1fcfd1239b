"""Independent brute-force oracles the tests check the fast paths against.

Everything here is deliberately naive: quadratic scans, explicit iterate
comparisons, dictionary bookkeeping.  None of it shares code with the
package implementations it validates.
"""

from __future__ import annotations

import math

import numpy as np

from foliate.patterns import Domain, PointPattern, distance


def iterate(image: list[int], x: int, k: int) -> int:
    """F^k(x) under a partial map (-1 once the walk leaves the domain)."""
    for _ in range(k):
        if x < 0:
            return -1
        x = image[x]
    return x


def brute_foils(image: list[int]) -> frozenset[frozenset[int]]:
    """Partition by eventual-iterate equality, tested up to 2N steps."""
    n = len(image)
    assigned = [-1] * n
    groups: list[list[int]] = []
    for x in range(n):
        if assigned[x] >= 0:
            continue
        g = len(groups)
        groups.append([x])
        assigned[x] = g
        for y in range(x + 1, n):
            if assigned[y] >= 0:
                continue
            for k in range(2 * n + 1):
                fx, fy = iterate(image, x, k), iterate(image, y, k)
                if fx >= 0 and fx == fy:
                    groups[g].append(y)
                    assigned[y] = g
                    break
    return frozenset(frozenset(g) for g in groups)


def brute_components(image: list[int]) -> frozenset[frozenset[int]]:
    """Undirected components of the functional graph, by flood fill."""
    n = len(image)
    adj: list[set[int]] = [set() for _ in range(n)]
    for x, y in enumerate(image):
        if y >= 0:
            adj[x].add(y)
            adj[y].add(x)
    seen = [False] * n
    out = []
    for s in range(n):
        if seen[s]:
            continue
        stack = [s]
        seen[s] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        out.append(frozenset(comp))
    return frozenset(out)


def brute_cycle(image: list[int], start: int) -> list[int]:
    """The directed cycle reached from ``start`` (empty if the walk dies)."""
    seen: dict[int, int] = {}
    x = start
    k = 0
    while x >= 0 and x not in seen:
        seen[x] = k
        x = image[x]
        k += 1
    if x < 0:
        return []
    walk = sorted(seen, key=seen.get)
    return walk[seen[x] :]


def brute_descendants(image: list[int], n: int) -> list[int]:
    """d_n per point by explicit counting."""
    N = len(image)
    out = [0] * N
    for y in range(N):
        z = iterate(image, y, n)
        if z >= 0:
            out[z] += 1
    return out


def _plain_distance(a, b, dom: Domain) -> float:
    """Distance by scalar float arithmetic, summing squares in axis order
    (the rounding of the package metric in two dimensions, so exact ties
    agree)."""
    total = 0.0
    for x, y, e in zip(a, b, dom.extents):
        t = abs(float(x) - float(y))
        if dom.kind == "torus":
            t = min(t % e, e - t % e)
        total += t * t
    return math.sqrt(total)


def brute_nn(pattern: PointPattern) -> tuple[list[int], list[float], list[bool]]:
    """Nearest neighbor per point by full quadratic scan: the smallest id at
    the minimal distance, that distance, and whether another id ties it."""
    n = len(pattern)
    ids = [-1] * n
    dists = [float("inf")] * n
    tied = [False] * n
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = _plain_distance(pattern.coords[i], pattern.coords[j], pattern.domain)
            if d < dists[i]:
                dists[i] = d
                ids[i] = j
                tied[i] = False
            elif d == dists[i]:
                tied[i] = True
    return ids, dists, tied


def brute_strip_image(pattern: PointPattern, i: int) -> int | None:
    """Leftmost point of the open half-band right of point i (lex ties)."""
    x1, x2 = pattern.coords[i]
    best = None
    for j in range(len(pattern)):
        y1, y2 = pattern.coords[j]
        if y1 > x1 and abs(y2 - x2) <= 0.5:
            key = (y1, y2)
            if best is None or key < best[0]:
                best = (key, j)
    return None if best is None else best[1]


def brute_condenser_marks(pattern: PointPattern, r: float = 1.0) -> list[int]:
    n = len(pattern)
    out = []
    for i in range(n):
        c = 0
        for j in range(n):
            if distance(pattern.coords[i], pattern.coords[j], pattern.domain) <= r:
                c += 1
        out.append(c)
    return out


def ks_statistic(values: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of a sample against Uniform(0, 1)."""
    u = np.sort(np.asarray(values, dtype=float))
    n = len(u)
    grid = np.arange(1, n + 1) / n
    return float(np.maximum(grid - u, u - (grid - 1.0 / n)).max())


def random_map_pattern(rng: np.random.Generator, n: int) -> PointPattern:
    """A synthetic 1-d window pattern to carry an abstract functional map."""
    coords = (np.arange(n, dtype=float) + 0.5).reshape(-1, 1)
    return PointPattern(Domain.window(float(n + 1)), coords)
