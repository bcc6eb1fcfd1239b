"""Independent brute-force oracles the tests check the fast paths against.

Everything here is deliberately naive: quadratic scans, explicit iterate
comparisons, dictionary bookkeeping.  None of it shares code with the
package implementations it validates.
"""

from __future__ import annotations

import math

import numpy as np

from foliate.patterns import TORUS, ConfigError, Domain, PointPattern


def distance(p, q, dom: Domain) -> float:
    """Metric distance between two points: quotient metric on a torus,
    Euclidean on a window."""
    a = np.asarray(p, dtype=float)
    b = np.asarray(q, dtype=float)
    if a.shape != (dom.dimension,) or b.shape != (dom.dimension,):
        raise ConfigError("dimension mismatch")
    d = np.abs(a - b)
    if dom.kind == TORUS:
        ext = np.asarray(dom.extents)
        d = d % ext
        d = np.minimum(d, ext - d)
    # squares summed in axis order as in patterns.distances_to, so on
    # coordinates inside the domain (where % ext is the identity) exact ties
    # agree bit for bit
    return float(np.sqrt((d * d).sum()))


def translate(pattern: PointPattern, t) -> PointPattern:
    """Translate a torus pattern by ``t`` (wrapping), keeping point ids.

    Grid metadata is shifted along so lattice row/column recovery stays
    exact after the move.
    """
    if pattern.domain.kind != TORUS:
        raise ConfigError("translation is only defined on torus domains")
    ext = np.asarray(pattern.domain.extents)
    tv = np.asarray(t, dtype=float)
    if tv.shape != (pattern.dimension,):
        raise ConfigError("dimension mismatch")
    coords = (pattern.coords + tv) % ext
    # float mod can land exactly on the upper face; wrap it home
    coords = np.where(coords >= ext, 0.0, coords)
    meta = dict(pattern.metadata)
    if "grid_shift" in meta:
        u = (np.asarray(meta["grid_shift"], dtype=float) + tv) % 1.0
        u = np.where(u >= 1.0, 0.0, u)
        meta["grid_shift"] = tuple(float(v) for v in u)
    return PointPattern(pattern.domain, coords, meta)


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


def _relative(pattern: PointPattern, x: int, ref: int) -> tuple:
    """Coordinates of x relative to ref as a tuple: lattice ints on a grid
    pattern, floats otherwise, reduced modulo the extents on a torus."""
    u = pattern.metadata.get("grid_shift")
    out = []
    for axis, e in enumerate(pattern.domain.extents):
        a = float(pattern.coords[x][axis])
        b = float(pattern.coords[ref][axis])
        if u is None:
            t = a - b
            out.append(t % e if pattern.domain.kind == "torus" else t)
        else:
            t = round(a - u[axis]) - round(b - u[axis])
            out.append(t % round(e) if pattern.domain.kind == "torus" else t)
    return tuple(out)


def _cycle_anchor(pattern: PointPattern, cycle: list[int]) -> int:
    """Canonical first node of a cycle: the lex-least node on a window; on a
    torus the rotation whose sequence of step displacements is least, then
    the smallest id."""
    if pattern.domain.kind != "torus":
        return min(cycle, key=lambda v: tuple(float(c) for c in pattern.coords[v]))
    L = len(cycle)
    steps = [_relative(pattern, cycle[(i + 1) % L], cycle[i]) for i in range(L)]
    best = min(range(L), key=lambda i: (steps[i:] + steps[:i], cycle[i]))
    return cycle[best]


def brute_structure(pattern: PointPattern, image: list[int]) -> dict:
    """The foliation's structure by definition, one walk per point.

    Per point: ``component`` (components numbered by least member),
    ``depth`` (steps to the cycle, or to the dead end), ``entry`` (position,
    from the canonical anchor, of the cycle node the walk enters; 0 in a
    tree whose walks die) and ``key`` (the position of F^(mL)(x) for a
    multiple mL >= N of the cycle length, or the depth in a dead-end tree).
    Per component: ``cycles`` (from the anchor) and ``roots`` (the dead end,
    or -1).  ``senior`` maps each foil (component, key) to the foil holding
    its members' images, or None at a root.
    """
    n = len(image)
    out: dict = {name: [0] * n for name in ("component", "depth", "entry", "key")}
    out.update(cycles=[], roots=[], senior={})
    for c, members in enumerate(sorted(brute_components(image), key=min)):
        cycle = brute_cycle(image, min(members))
        if cycle:
            a = cycle.index(_cycle_anchor(pattern, cycle))
            cycle = cycle[a:] + cycle[:a]
        out["cycles"].append(tuple(cycle))
        out["roots"].append(-1 if cycle else next(v for v in members if image[v] < 0))
        pos = {v: k for k, v in enumerate(cycle)}
        L = len(cycle)
        for v in members:
            x, d = v, 0
            while x not in pos and image[x] >= 0:
                x, d = image[x], d + 1
            out["component"][v] = c
            out["depth"][v] = d
            out["entry"][v] = pos.get(x, 0)
            out["key"][v] = pos[iterate(image, v, L * -(-n // L))] if L else d
        for v in members:
            foil = (c, out["key"][v])
            out["senior"][foil] = None if image[v] < 0 else (c, out["key"][image[v]])
    return out


def _components_with_tops(
    pattern: PointPattern, image: list[int]
) -> list[tuple[list[int], list[int]]]:
    """Per component: its members, and its cycle from the canonical anchor
    (or [root] of a tree whose walks die)."""
    out = []
    for comp in brute_components(image):
        members = sorted(comp)
        cycle = brute_cycle(image, members[0])
        if cycle:
            a = cycle.index(_cycle_anchor(pattern, cycle))
            out.append((members, cycle[a:] + cycle[:a]))
        else:
            out.append((members, [next(v for v in members if image[v] < 0)]))
    return out


def brute_rls_rank(pattern: PointPattern, image: list[int]) -> list[int]:
    """Royal-line rank per point: per component, the cycle nodes from the
    anchor (or the dead-end root), each followed by a depth-first walk of
    the trees hanging off it, sons in lex order relative to their father."""
    n = len(image)
    sons: list[list[int]] = [[] for _ in range(n)]
    for u, v in enumerate(image):
        if v >= 0:
            sons[v].append(u)
    rank = [-1] * n
    for _, top in _components_with_tops(pattern, image):
        on_top = set(top)
        counter = 0
        stack = top[::-1]
        while stack:
            v = stack.pop()
            rank[v] = counter
            counter += 1
            kids = [u for u in sons[v] if u not in on_top]
            kids.sort(key=lambda u: (_relative(pattern, u, v), u))
            stack.extend(kids[::-1])
    return rank


def brute_f_perp(pattern: PointPattern, image: list[int]) -> list[int]:
    """Foil successor: each foil cycles through its members in lex order of
    their coordinates relative to the component's anchor or root.

    Two points of a cyclic component share a foil when their N-fold
    iterates agree; in a tree whose walks die, when they are equally deep."""
    n = len(image)
    succ = list(range(n))
    for members, top in _components_with_tops(pattern, image):
        ref = top[0]
        foils: dict[int, list[int]] = {}
        for v in members:
            key = iterate(image, v, n) if image[ref] >= 0 else _depth(image, v)
            foils.setdefault(key, []).append(v)
        for foil in foils.values():
            foil.sort(key=lambda v: (_relative(pattern, v, ref), v))
            for a, b in zip(foil, foil[1:] + foil[:1]):
                succ[a] = b
    return succ


def brute_senior_interval(pattern: PointPattern, image: list[int]) -> dict:
    """The senior-interval transport by walking each foil along
    ``brute_f_perp``.

    ``pos`` is each point's step count from the first member met when its
    foil's cycle is walked (so x to y takes ``(pos[y] - pos[x]) % size``
    steps), ``size`` its foil's size.  ``plus[x]`` counts the steps from
    x's image to its foil successor's image, and ``minus[z]`` the points x
    whose walk from image to image passes z (z counted, the last image
    not); both are 0 at censored x.  ``winding`` maps the least member of
    each foil whose images are defined to (its plus total // the image
    foil's size, that size).
    """
    n = len(image)
    succ = brute_f_perp(pattern, image)
    cycles = []
    pos = [-1] * n
    size = [0] * n
    for s in range(n):
        if pos[s] >= 0:
            continue
        cycle = [s]
        while succ[cycle[-1]] != s:
            cycle.append(succ[cycle[-1]])
        cycles.append(cycle)
        for k, z in enumerate(cycle):
            pos[z] = k
            size[z] = len(cycle)
    plus = [0] * n
    minus = [0] * n
    for x in range(n):
        if image[x] < 0:
            continue
        z, stop = image[x], image[succ[x]]
        while z != stop:
            minus[z] += 1
            plus[x] += 1
            z = succ[z]
    winding = {}
    for cycle in cycles:
        if all(image[z] >= 0 for z in cycle):
            m = size[image[cycle[0]]]
            winding[min(cycle)] = (sum(plus[z] for z in cycle) // m, m)
    return {"pos": pos, "size": size, "plus": plus, "minus": minus, "winding": winding}


def groups(labels: np.ndarray, sizes: np.ndarray) -> list[np.ndarray]:
    """The points of each label 0, 1, ... in id order (a foliation's foils or
    components), from one stable argsort of ``labels`` cut at the
    cumulative label counts ``sizes``."""
    order = np.argsort(labels, kind="stable")
    ends = np.cumsum(sizes).tolist()
    return [order[a:b] for a, b in zip([0] + ends, ends)]


def _depth(image: list[int], v: int) -> int:
    """Steps from v until its walk dies."""
    d = 0
    while image[v] >= 0:
        v = image[v]
        d += 1
    return d


def _plain_distance(a, b, dom: Domain) -> float:
    """Distance by scalar float arithmetic, summing squares in axis order
    (the rounding of the package metric, so exact ties agree)."""
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


def brute_nearest(
    pattern: PointPattern, targets: list[int], queries: list[int] | None, ahead: bool, reach
) -> tuple[list[int], list[float], list[bool]]:
    """``cellindex.nearest`` by full scan: per query, the least slot of
    ``targets`` at the least distance among the targets that count (not the
    query itself when ``queries`` is None; with ``ahead``, larger first
    coordinate only), its distance and whether another slot ties it; -1,
    inf and False when none counts or the least distance exceeds the
    query's reach."""
    own = queries is None
    queries = targets if own else queries
    out: tuple[list, list, list] = ([], [], [])
    for k, i in enumerate(queries):
        p = pattern.coords[i]
        best, slot, tie = math.inf, -1, False
        for j, t in enumerate(targets):
            q = pattern.coords[t]
            if (own and t == i) or (ahead and not q[0] > p[0]):
                continue
            d = _plain_distance(p, q, pattern.domain)
            if d < best:
                best, slot, tie = d, j, False
            elif d == best:
                tie = True
        if best > reach[k]:
            best, slot, tie = math.inf, -1, False
        for col, v in zip(out, (slot, best, tie)):
            col.append(v)
    return out


def _strip_rule(
    points: list[tuple[float, float]], ids: list[int], width: float, height: float, buf: float
) -> dict[int, int | None]:
    """The strip rule among ``points`` (with their pattern ``ids``): per id,
    the image id, or None when censored.

    Censored: the band [x2 - 1/2, x2 + 1/2] leaves the window, or it holds
    no point right of x and x lies within the buffer of the right edge.  An
    empty band otherwise makes x a fixed point.
    """
    out: dict[int, int | None] = {}
    for x, i in zip(points, ids):
        x1, x2 = x
        if x2 - 0.5 < 0.0 or x2 + 0.5 > height:
            out[i] = None
            continue
        best = None
        for (y1, y2), j in zip(points, ids):
            if y1 > x1 and abs(y2 - x2) <= 0.5 and (best is None or (y1, y2) < best[0]):
                best = ((y1, y2), j)
        if best is not None:
            out[i] = best[1]
        elif width - x1 < buf:
            out[i] = None
        else:
            out[i] = i
    return out


def _plain_points(pattern: PointPattern) -> list[tuple[float, float]]:
    return [(float(a), float(b)) for a, b in pattern.coords.tolist()]


def brute_strip_map(pattern: PointPattern) -> tuple[list[int], list[bool]]:
    """Strip shift of a window pattern by full scan per point, in plain
    Python floats: (image with -1 where censored, censored)."""
    width, height = (float(e) for e in pattern.domain.extents)
    n = len(pattern)
    rule = _strip_rule(_plain_points(pattern), list(range(n)), width, height,
                       float(pattern.domain.buffer))
    return [-1 if rule[i] is None else rule[i] for i in range(n)], [
        rule[i] is None for i in range(n)
    ]


def brute_multitype_strip_map(pattern: PointPattern) -> tuple[list[int], list[bool]]:
    """Cluster shift by full scan: a child maps to its parent (censored when
    it has none); a parent runs the strip rule among the parents of its
    type.  (image with -1 where censored, censored)."""
    meta = pattern.metadata
    parent = [int(v) for v in meta["cluster_parent"]]
    ptype = [int(v) for v in meta["cluster_type"]]
    is_parent = [bool(v) for v in meta["cluster_is_parent"]]
    width, height = (float(e) for e in pattern.domain.extents)
    points = _plain_points(pattern)
    n = len(points)
    image: list[int | None] = [None if is_parent[i] or parent[i] < 0 else parent[i]
                               for i in range(n)]
    for t in sorted({ptype[i] for i in range(n) if is_parent[i]}):
        ids = [i for i in range(n) if is_parent[i] and ptype[i] == t]
        rule = _strip_rule([points[i] for i in ids], ids, width, height,
                           float(pattern.domain.buffer))
        for i in ids:
            image[i] = rule[i]
    return [-1 if v is None else v for v in image], [v is None for v in image]


def brute_next_row_image(pattern: PointPattern) -> list[int | None]:
    """Next-row image per point, None when censored, in plain Python ints.

    Lattice sites are the rounded ``coords - grid_shift``.  The image is the
    lowest row >= the source row (least id on equal sites) among the points
    whose column is the source column + 1 (modulo the first extent on a
    torus) and whose trailing coordinates match.  Past the top of that
    column a torus wraps to its lowest row and a window censors; an empty
    column censors.
    """
    shift = [float(v) for v in pattern.metadata["grid_shift"]]
    sites = [tuple(int(round(c - s)) for c, s in zip(row, shift))
             for row in pattern.coords.tolist()]
    torus = pattern.domain.kind == "torus"
    width = int(pattern.domain.extents[0])
    out: list[int | None] = []
    for c, r, *rest in sites:
        col = (c + 1) % width if torus else c + 1
        column = [(s[1], j) for j, s in enumerate(sites) if s[0] == col and list(s[2:]) == rest]
        above = [e for e in column if e[0] >= r]
        if above:
            out.append(min(above)[1])
        elif column and torus:
            out.append(min(column)[1])
        else:
            out.append(None)
    return out


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


def brute_condenser_image(
    pattern: PointPattern, r: float = 1.0, metric: str = "euclidean"
) -> tuple[list[int], list[bool]]:
    """Condenser shift of a window pattern by full scan per point, in plain
    Python floats: (image with -1 where censored, censored).

    A mark is the closed r-ball count, unreliable within r of a face.  x maps
    to the nearest reliably marked point with mark one more and a larger
    first coordinate (Euclidean distance, or the first-coordinate gap), the
    lexicographically least on a tie.  x is censored when its own mark is
    unreliable, when there is no such point, when (Euclidean only) the box
    x1 <= y1 <= x1 + d, |y_k - x_k| <= d around the winning distance d
    leaves the window, or when an unreliably marked point ahead of x lies
    within d.
    """
    dom = pattern.domain
    ext = [float(e) for e in dom.extents]
    points = [tuple(float(v) for v in row) for row in pattern.coords.tolist()]
    marks = [sum(_plain_distance(p, q, dom) <= r for q in points) for p in points]
    unreliable = [min(min(v, e - v) for v, e in zip(p, ext)) < r for p in points]

    def gap(p, q) -> float:
        return q[0] - p[0] if metric == "first_coordinate" else _plain_distance(p, q, dom)

    image = []
    for i, p in enumerate(points):
        best = None
        if not unreliable[i]:
            for j, q in enumerate(points):
                if q[0] > p[0] and not unreliable[j] and marks[j] == marks[i] + 1:
                    if best is None or (gap(p, q), q) < best[0]:
                        best = ((gap(p, q), q), j)
        if best is None:
            image.append(-1)
            continue
        d = best[0][0]
        observed = metric == "first_coordinate" or (
            p[0] + d <= ext[0]
            and all(v - d >= 0.0 and v + d <= e for v, e in zip(p[1:], ext[1:]))
        )
        interfered = any(
            unreliable[j] and q[0] > p[0] and gap(p, q) <= d for j, q in enumerate(points)
        )
        image.append(best[1] if observed and not interfered else -1)
    return image, [v < 0 for v in image]


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
