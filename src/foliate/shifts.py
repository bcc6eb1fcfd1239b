"""Point-shift evaluation on finite patterns.

Each evaluator restricts the corresponding translation-invariant shift to
one realization and returns a ShiftMap: per point, the id of its image,
or -1 (censored) when the image cannot be determined from the observed
window alone.  Censoring is conservative: whenever unseen points
outside the window could change the outcome, the point is flagged rather
than guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cellindex import ball, nearest
from .patterns import (
    TORUS,
    WINDOW,
    ConfigError,
    Domain,
    PointPattern,
    face_distances,
    lattice_coords,
    row_ranks,
)

SHIFT_NAMES = ("strip", "mnn", "next_row", "condenser", "multitype_strip")

STRIP_HALFWIDTH = 0.5


@dataclass(frozen=True)
class ShiftKind:
    """Shift selector plus its parameters (only the condenser has any)."""

    name: str
    ball_radius: float = 1.0
    condenser_metric: str = "euclidean"

    def __post_init__(self) -> None:
        if self.name not in SHIFT_NAMES:
            raise ConfigError(f"unknown shift {self.name!r}")
        if not (np.isfinite(self.ball_radius) and self.ball_radius > 0):
            raise ConfigError("ball radius must be positive and finite")
        if self.condenser_metric not in ("euclidean", "first_coordinate"):
            raise ConfigError("condenser metric is euclidean or first_coordinate")


@dataclass(frozen=True)
class ShiftMap:
    """Evaluated shift on one pattern, a partial map of its points: image id
    per point, -1 where censored; ``censored`` is ``image < 0``."""

    image: np.ndarray

    def __post_init__(self) -> None:
        img = np.array(self.image, dtype=np.int64, copy=True)
        if img.ndim != 1:
            raise ConfigError("the image must be a 1-d array")
        if np.any(img < -1) or np.any(img >= len(img)):
            raise ConfigError("image ids must lie in [-1, N)")
        img.setflags(write=False)
        object.__setattr__(self, "image", img)

    def __len__(self) -> int:
        return self.image.shape[0]

    @cached_property
    def censored(self) -> np.ndarray:
        censored = self.image < 0
        censored.setflags(write=False)
        return censored

    @property
    def is_total(self) -> bool:
        return not bool(self.censored.any())

    @property
    def censoring_fraction(self) -> float:
        n = len(self)
        return float(self.censored.sum() / n) if n else 0.0

    def to_json(self) -> str:
        """The rows ``{"id", "image" (null when censored), "censored"}``."""
        return json_rows(self.image)


def json_rows(image: np.ndarray, tail: str = "") -> str:
    """The rows ``{"id", "image", "censored"}`` plus the members ``tail``
    adds, in the bytes ``json.dumps`` gives; a negative image is censored
    (image null).  One f-string per row measured fastest; a censored row is
    written with image -1, then its members are replaced in the text."""
    end = f', "censored": false{tail}}}'
    rows = (f'{{"id": {i}, "image": {v}{end}' for i, v in enumerate(image.tolist()))
    text = "[" + ", ".join(rows) + "]"
    if (image < 0).any():
        text = text.replace('-1, "censored": false', 'null, "censored": true')
    return text


def eval_mnn(pattern: PointPattern) -> ShiftMap:
    """Mutual nearest neighbor shift: swap mutual pairs, fix everything else.

    Two points are mutual when each is the unique nearest neighbor of the
    other; distance ties disqualify a point, making it a fixed point.  On a
    window a point is censored when its own or its neighbor's deciding ball
    reaches past the observed boundary or into the buffer margin.
    """
    n = len(pattern)
    # a point without a neighbor (nn -1, at distance inf) is fixed, or censored on a window
    nn, nn_dist, tied = nearest(pattern)
    mutual = (~tied) & (~tied[nn]) & (nn[nn] == np.arange(n))
    image = np.where(mutual, nn, np.arange(n))
    if pattern.domain.kind == WINDOW:
        face = face_distances(pattern.coords, pattern.domain)
        unsafe = face < np.maximum(pattern.domain.buffer, nn_dist)
        # a tied point whose own ball is observed is a certain fixed point
        image[unsafe | (~tied & unsafe[nn])] = -1
    return ShiftMap(image)


def _descend(
    table0: np.ndarray,
    values: np.ndarray,
    slot: np.ndarray,
    x2_query: np.ndarray,
    upper: bool,
    levels: int,
) -> np.ndarray:
    """Per query, the first slot from ``slot`` on whose second coordinate
    passes the band's upper (``upper``) or lower side, if one lies within
    2^levels − 1 slots; found by skipping power-of-two blocks that all fail.

    ``table0`` holds the sorted points' ranks into ``values``.  A block's
    extreme is its range minimum (upper side) or maximum (lower side), one
    table per level, so the descent takes ``levels`` whole-array rounds.
    ``d = x2' − x2`` rounds monotonically in x2', so a block whose extreme
    fails holds no passing slot.  Past the end of the arrays a block is cut
    to the last full one, which still covers what is left of it.  Where no
    slot passes, the result is a slot that fails or lies beyond the last.

    The first slot (the last one when ``slot`` lies past it) is tested
    before the descent: every block read from ``slot`` on holds it, so when
    it passes no block is skipped and the query lands on ``slot``.  Only the
    queries whose first slot fails descend.
    """

    def fails(table, j, x2):
        d = values[table[np.minimum(j, len(table) - 1)]] - x2
        return d > STRIP_HALFWIDTH if upper else d < -STRIP_HALFWIDTH

    extreme = np.minimum if upper else np.maximum
    tables = [table0]
    while len(tables) < levels:
        h = 1 << (len(tables) - 1)
        tables.append(extreme(tables[-1][:-h], tables[-1][h:]))
    j = slot.copy()
    rest = np.flatnonzero(fails(table0, slot, x2_query))
    jr, x2 = j[rest], x2_query[rest]
    for k in reversed(range(levels)):
        jr += fails(tables.pop(), jr, x2) * (1 << k)
    j[rest] = jr
    return j


def _strip_sort(x1: np.ndarray, x2: np.ndarray):
    """``(order, code, buckets, bucket, ux2, r2)`` of the strip search.

    ``buckets`` are the distinct floor(x2) and ``ux2`` the distinct x2;
    ``bucket`` and ``r2`` index each point into them.  ``code`` is
    bucket·(N+1) + dense rank of x1.  ``order`` sorts the points by
    (floor(x2), x1, x2): the dense rank of code times N+1 plus r2 is an
    integer below (N+1)², unique because the points are simple, so one
    ``argsort`` of it gives the lexicographic order.
    """
    n = len(x1)
    ux2, r2 = np.unique(x2, return_inverse=True)
    rows = np.floor(ux2)
    new_row = np.r_[True, rows[1:] != rows[:-1]]
    bucket = (np.cumsum(new_row) - 1)[r2]
    code = bucket * (n + 1) + np.unique(x1, return_inverse=True)[1]
    order = np.argsort(np.unique(code, return_inverse=True)[1] * (n + 1) + r2)
    return order, code, rows[new_row], bucket, ux2, r2


def _strip_eval(coords: np.ndarray, domain: Domain) -> np.ndarray:
    """Strip images for one coordinate set; local ids, -1 where censored.

    **Sort key.**  The points are sorted by (bucket floor(x2), x1, x2) and
    coded exactly as bucket rank·(N+1) + dense rank of x1 (``_strip_sort``:
    one ``argsort`` of a unique integer key, no float ``lexsort``).

    **Band search.**  A query's band buckets floor(x2 ∓ ½) are its own
    bucket or the one next to it (both its own where rounding would skip
    it).  In its own bucket the first point right of the query is the slot
    past its run of equal codes; in the next one a ``searchsorted`` on
    ascending keys finds it.  ``_descend`` then finds the first slot inside
    the band in ⌈log₂(longest bucket)⌉ rounds, testing one side only: the
    lower side (d = x2' − x2 ≥ −½) in the lower bucket and the upper side
    (d ≤ ½) in the upper one.

    **Why the one-sided test is exact.**  A query has x2 ≥ ½.  Below 2⁵²
    both x2 ∓ ½ are exact, so every x2' in the lower bucket is below
    x2 + ½ and every x2' in the upper bucket above x2 − ½; monotone
    rounding then keeps d ≤ ½, or d ≥ −½, true throughout that bucket.
    From 2⁵² on x2 is an integer, the lower bucket holds nothing above x2
    and the upper bucket nothing below it (they are x2's own, which holds
    x2 alone, unless x2 = 2⁵² and the lower one is [2⁵² − 1, 2⁵²)).  So
    the slot found, when it is still in its bucket, is the first that the
    exact test |d| ≤ ½ accepts, and that test decides whether there is one.
    """
    n = len(coords)
    image = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return image
    width, height = domain.extents
    x1, x2 = coords[:, 0], coords[:, 1]
    order, code, buckets, bucket, ux2, r2 = _strip_sort(x1, x2)
    s_code, s_x2 = code[order], x2[order]
    s_r2 = r2[order].astype(np.min_scalar_type(len(ux2) - 1))
    sizes = np.bincount(bucket)
    bucket_end = np.cumsum(sizes)
    levels = max((int(sizes.max()) - 1).bit_length(), 1)
    # the slot past each slot's run of equal codes
    run = np.flatnonzero(np.r_[s_code[1:] != s_code[:-1], True]) + 1
    run_end = np.repeat(run, np.diff(run, prepend=0))

    # part of the band is unobserved; the image may be off-window.  Queries
    # go in sort order, so the keys into a next bucket ascend and the band
    # search reads memory in order.
    edge = (x2 - STRIP_HALFWIDTH < 0.0) | (x2 + STRIP_HALFWIDTH > height)
    at = np.flatnonzero(~edge[order])
    q, own = order[at], bucket[order[at]]
    sides = np.floor(x2[q] - STRIP_HALFWIDTH), np.floor(x2[q] + STRIP_HALFWIDTH)
    # an odd integer x2 in [2⁵², 2⁵³) rounds x2 ∓ ½ to x2 ∓ 1, past its own
    # bucket on both sides; its band holds x2 alone
    wide = sides[1] - sides[0] > 1
    sides = [np.where(wide, buckets[own], side) for side in sides]
    cands = []
    for upper, side in enumerate(sides):
        step = 2 * upper - 1
        mine = side == buckets[own]
        b = np.clip(np.where(mine, own, own + step), 0, len(buckets) - 1)
        ok = buckets[b] == side
        slot = np.where(mine, run_end[at], n)
        nxt = ok & ~mine
        slot[nxt] = np.searchsorted(s_code, s_code[at[nxt]] + step * (n + 1), side="right")
        slot = _descend(s_r2, ux2, slot, x2[q], bool(upper), levels)
        hit = ok & (slot < bucket_end[b])
        hit[hit] = np.abs(s_x2[slot[hit]] - x2[q[hit]]) <= STRIP_HALFWIDTH
        cands.append(np.where(hit, order[np.minimum(slot, n - 1)], -1))
    # lexicographic (x1, x2) minimum of the two buckets' candidates; when the
    # buckets coincide both are the same point.  A -1 reads the last point,
    # masked out by the sign tests.
    lo, hi = cands
    take_hi = (hi >= 0) & (
        (lo < 0) | (x1[hi] < x1[lo]) | ((x1[hi] == x1[lo]) & (x2[hi] < x2[lo]))
    )
    best = np.where(take_hi, hi, lo)

    image[q] = best
    # an empty observed band fixes the query, unless near the right edge
    fixed = q[(best < 0) & (width - x1[q] >= domain.buffer)]
    image[fixed] = fixed
    return image


def eval_strip(pattern: PointPattern) -> ShiftMap:
    """Strip shift: leftmost point of the half-open band to the right.

    The image of x is the point of minimal first coordinate in
    (x1, inf) x [x2 - 1/2, x2 + 1/2], ties broken lexicographically.  When
    the observed band is empty the point maps to itself unless it sits
    within the buffer of the right edge, in which case it is censored.
    """
    if pattern.domain.kind != WINDOW:
        raise ConfigError("strip shift runs on window domains only")
    if pattern.dimension != 2:
        raise ConfigError("strip shift is planar (dimension 2)")
    return ShiftMap(_strip_eval(pattern.coords, pattern.domain))


def eval_multitype_strip(pattern: PointPattern) -> ShiftMap:
    """Cluster shift: children map to their parent, parents run the strip
    rule restricted to parents of the same type (satellite count)."""
    if pattern.domain.kind != WINDOW:
        raise ConfigError("multitype strip runs on window domains only")
    if pattern.dimension != 2:
        raise ConfigError("multitype strip is planar (dimension 2)")
    meta = pattern.metadata
    n = len(pattern)
    keys = ("cluster_parent", "cluster_type", "cluster_is_parent")
    if any(np.shape(meta.get(key)) != (n,) for key in keys):
        raise ConfigError("multitype strip needs cluster annotations, one per point")
    parent = np.asarray(meta["cluster_parent"], dtype=np.int64)
    ptype = np.asarray(meta["cluster_type"], dtype=np.int64)
    is_parent = np.asarray(meta["cluster_is_parent"], dtype=np.int64).astype(bool)
    image = np.full(n, -1, dtype=np.int64)
    children = ~is_parent
    # an orphan (parent id negative) is censored
    image[children] = np.maximum(parent[children], -1)
    for t in np.unique(ptype[is_parent]):
        sub = np.flatnonzero(is_parent & (ptype == t))
        loc_img = _strip_eval(pattern.coords[sub], pattern.domain)
        ok = loc_img >= 0
        image[sub[ok]] = sub[loc_img[ok]]
    return ShiftMap(image)


def eval_next_row(pattern: PointPattern) -> ShiftMap:
    """Next-row shift on a Bernoulli grid.

    The image sits in the next column (first lattice coordinate + 1, modular
    on a torus) at the least row index >= the source row, wrapping rows
    cyclically on a torus.  Empty target columns censor the point; on a
    window so does a search running off the top.
    """
    if pattern.dimension < 2:
        raise ConfigError("next row shift needs dimension >= 2")
    lattice = lattice_coords(pattern)
    if lattice is None:
        raise ConfigError("next row shift needs a grid pattern (grid_shift metadata)")
    n = len(pattern)
    image = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return ShiftMap(image)
    torus = pattern.domain.kind == TORUS
    # column key: lattice column plus any trailing coordinates; the target
    # key is the next column, modular on a torus
    key = np.delete(lattice, 1, axis=1)
    target = key.copy()
    target[:, 0] += 1
    if torus:
        target[:, 0] %= int(pattern.domain.extents[0])
    column = row_ranks(np.vstack([key, target]))
    column, target = column[:n], column[n:]
    occupied = np.zeros(2 * n, dtype=bool)
    occupied[column] = True

    row = lattice[:, 1] - lattice[:, 1].min()
    height = int(row.max()) + 1
    code = column * height + row  # distinct, as the points are simple
    order = np.argsort(code)
    code = code[order]
    q = np.flatnonzero(occupied[target])  # an empty target column censors
    slot = np.searchsorted(code, target[q] * height + row[q], side="left")
    off_top = (slot == n) | (column[order[np.minimum(slot, n - 1)]] != target[q])
    if torus:
        # the search ran off the column's top: wrap to its lowest row
        slot[off_top] = np.searchsorted(code, target[q[off_top]] * height, side="left")
    else:
        q, slot = q[~off_top], slot[~off_top]
    image[q] = order[slot]
    return ShiftMap(image)


def condenser_marks(
    pattern: PointPattern, ball_radius: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-ball point counts (the point itself included) and a flag for
    marks whose counting ball reaches past the window boundary."""
    marks = ball(pattern, ball_radius)
    marks_censored = face_distances(pattern.coords, pattern.domain) < ball_radius
    return marks, marks_censored


def _ahead(
    pattern: PointPattern, targets: np.ndarray, queries: np.ndarray, metric: str, reach
) -> tuple[np.ndarray, np.ndarray]:
    """Per query, the slot in ``targets`` (ids in lexicographic order, so a
    tie goes to the least point) of its nearest target of larger first
    coordinate, and its distance; -1 and inf for none, or, for a Euclidean
    query in 2-D or 3-D, none within ``reach``.  Under ``first_coordinate``,
    and in 1-D, that is the first target ahead, from one ``searchsorted``."""
    if metric == "euclidean" and pattern.dimension > 1:
        return nearest(pattern, targets, queries, ahead=True, reach=reach)[:2]
    x1 = pattern.coords[:, 0]
    ahead = np.append(x1[targets], np.inf)
    slot = np.searchsorted(ahead[:-1], x1[queries], side="right")
    gap = ahead[slot] - x1[queries]
    # sqrt(gap²) rounds as the Euclidean metric does in 1-D
    gap = np.sqrt(gap * gap) if metric == "euclidean" else gap
    return np.where(slot < len(targets), slot, -1), gap


def eval_condenser(
    pattern: PointPattern,
    ball_radius: float = 1.0,
    metric: str = "euclidean",
) -> ShiftMap:
    """Condenser shift: from x to the closest point with a larger first
    coordinate whose ball count exceeds x's by exactly one.

    "Closest" is Euclidean by default; the first-coordinate reading of the
    rule is available via ``metric="first_coordinate"``.  Points whose own
    mark, or whose winning search region, touches unreliably-marked ground
    are censored.  Each mark class searches the class above it, in
    lexicographic order, so ties go to the lexicographically least point;
    the censoring test searches the unreliably-marked points.
    """
    if pattern.domain.kind != WINDOW:
        raise ConfigError("condenser shift runs on window domains only")
    if metric not in ("euclidean", "first_coordinate"):
        raise ConfigError("condenser metric is euclidean or first_coordinate")
    n = len(pattern)
    image = np.full(n, -1, dtype=np.int64)
    marks, marks_censored = condenser_marks(pattern, ball_radius)
    coords, ext = pattern.coords, np.asarray(pattern.domain.extents)
    auth = ~marks_censored
    lex = np.lexsort(coords.T[::-1])
    winner = np.full(n, -1, dtype=np.int64)
    dist = np.full(n, np.inf)
    for m in np.unique(marks[auth]):
        q = np.flatnonzero(auth & (marks == m))
        above = lex[(auth & (marks == m + 1))[lex]]
        slot, dist[q] = _ahead(pattern, above, q, metric, None)
        winner[q[slot >= 0]] = above[slot[slot >= 0]]
    q = np.flatnonzero(winner >= 0)
    x, d = coords[q], dist[q]
    if metric == "euclidean":
        # the winning region x1 <= y1 <= x1 + d, |y_k - x_k| <= d is observed
        lo = x - d[:, None]
        lo[:, 0] = x[:, 0]
        seen = ~((lo < 0.0) | (x + d[:, None] > ext)).any(axis=1)
        q, d = q[seen], d[seen]
    # a censored-mark point ahead within the distance could be the winner
    ok = _ahead(pattern, lex[marks_censored[lex]], q, metric, d)[1] > d
    image[q[ok]] = winner[q[ok]]
    return ShiftMap(image)


def evaluate(pattern: PointPattern, kind: ShiftKind | str) -> ShiftMap:
    """Evaluate a shift by kind on a pattern."""
    if isinstance(kind, str):
        kind = ShiftKind(kind)
    if kind.name == "strip":
        return eval_strip(pattern)
    if kind.name == "mnn":
        return eval_mnn(pattern)
    if kind.name == "next_row":
        return eval_next_row(pattern)
    if kind.name == "condenser":
        return eval_condenser(pattern, kind.ball_radius, kind.condenser_metric)
    return eval_multitype_strip(pattern)
