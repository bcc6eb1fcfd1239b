"""Point-shift evaluation on finite patterns.

Each evaluator restricts the corresponding translation-invariant shift to
one realization and returns a ShiftMap: per point, either the id of its
image or a censoring flag meaning the image cannot be determined from the
observed window alone.  Censoring is conservative: whenever unseen points
outside the window could change the outcome, the point is flagged rather
than guessed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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
        if self.ball_radius <= 0:
            raise ConfigError("ball radius must be positive")
        if self.condenser_metric not in ("euclidean", "first_coordinate"):
            raise ConfigError("condenser metric is euclidean or first_coordinate")


@dataclass(frozen=True)
class ShiftMap:
    """Evaluated shift on one pattern: image id per point, -1 when censored."""

    kind: str
    image: np.ndarray
    censored: np.ndarray

    def __post_init__(self) -> None:
        img = np.array(self.image, dtype=np.int64, copy=True)
        cen = np.array(self.censored, dtype=bool, copy=True)
        if img.shape != cen.shape or img.ndim != 1:
            raise ConfigError("image and censored must be matching 1-d arrays")
        if np.any((img < 0) != cen) or np.any(img >= len(img)):
            raise ConfigError("image ids must be valid exactly off the censored set")
        img.setflags(write=False)
        cen.setflags(write=False)
        object.__setattr__(self, "image", img)
        object.__setattr__(self, "censored", cen)

    def __len__(self) -> int:
        return self.image.shape[0]

    @property
    def is_total(self) -> bool:
        return not bool(self.censored.any())

    @property
    def censoring_fraction(self) -> float:
        n = len(self)
        return float(self.censored.sum() / n) if n else 0.0

    def iterate(self, n: int) -> np.ndarray:
        """n-fold composition; -1 wherever the walk hits a censored point."""
        fn = np.arange(len(self), dtype=np.int64)
        for _ in range(n):
            ok = fn >= 0
            nxt = np.full_like(fn, -1)
            nxt[ok] = self.image[fn[ok]]
            fn = nxt
        return fn

    def to_json(self) -> str:
        rows = [
            {
                "id": int(i),
                "image": (None if self.censored[i] else int(self.image[i])),
                "censored": bool(self.censored[i]),
            }
            for i in range(len(self))
        ]
        return json.dumps(rows)

    @classmethod
    def from_json(cls, text: str, kind: str = "unknown") -> "ShiftMap":
        rows = json.loads(text)
        n = len(rows)
        image = np.full(n, -1, dtype=np.int64)
        censored = np.zeros(n, dtype=bool)
        for row in rows:
            i = int(row["id"])
            censored[i] = bool(row["censored"])
            if row["image"] is not None:
                image[i] = int(row["image"])
        return cls(kind, image, censored)


def eval_mnn(pattern: PointPattern) -> ShiftMap:
    """Mutual nearest neighbor shift: swap mutual pairs, fix everything else.

    Two points are mutual when each is the unique nearest neighbor of the
    other; distance ties disqualify a point, making it a fixed point.  On a
    window a point is censored when its own or its neighbor's deciding ball
    reaches past the observed boundary or into the buffer margin.
    """
    n = len(pattern)
    image = np.arange(n, dtype=np.int64)
    censored = np.zeros(n, dtype=bool)
    if n == 0:
        return ShiftMap("mnn", image, censored)
    if n == 1:
        if pattern.domain.kind == WINDOW:
            return ShiftMap("mnn", np.full(1, -1, np.int64), np.ones(1, bool))
        return ShiftMap("mnn", image, censored)
    nn, nn_dist, tied = nearest(pattern)
    mutual = (~tied) & (~tied[nn]) & (nn[nn] == np.arange(n))
    image = np.where(mutual, nn, np.arange(n))
    if pattern.domain.kind == WINDOW:
        face = face_distances(pattern.coords, pattern.domain)
        unsafe = face < np.maximum(pattern.domain.buffer, nn_dist)
        # a tied point whose own ball is observed is a certain fixed point
        censored = unsafe | (~tied & unsafe[nn])
        image = np.where(censored, -1, image)
    return ShiftMap("mnn", image, censored)


def _band_buckets(coords: np.ndarray) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Points bucketed by floor of the second coordinate, lex-sorted inside."""
    rows = np.floor(coords[:, 1]).astype(np.int64)
    order = np.lexsort((coords[:, 1], coords[:, 0], rows))
    rs = rows[order]
    buckets: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    start = 0
    for stop in range(1, len(order) + 1):
        if stop == len(order) or rs[stop] != rs[start]:
            ids = order[start:stop]
            buckets[int(rs[start])] = (coords[ids, 0], coords[ids, 1], ids)
            start = stop
    return buckets


def _strip_eval(coords: np.ndarray, domain: Domain) -> tuple[np.ndarray, np.ndarray]:
    """Strip images for one coordinate set; local ids, -1 where censored."""
    n = len(coords)
    image = np.full(n, -1, dtype=np.int64)
    censored = np.zeros(n, dtype=bool)
    width, height = domain.extents
    buf = domain.buffer
    buckets = _band_buckets(coords) if n else {}
    for i in range(n):
        x1, x2 = coords[i]
        if x2 - STRIP_HALFWIDTH < 0.0 or x2 + STRIP_HALFWIDTH > height:
            # part of the band is unobserved; the image may be off-window
            censored[i] = True
            continue
        best: tuple[float, float, int] | None = None
        lo_b = int(np.floor(x2 - STRIP_HALFWIDTH))
        hi_b = int(np.floor(x2 + STRIP_HALFWIDTH))
        for b in {lo_b, hi_b}:
            entry = buckets.get(b)
            if entry is None:
                continue
            bx1, bx2, bids = entry
            j = int(np.searchsorted(bx1, x1, side="right"))
            while j < len(bx1):
                if abs(bx2[j] - x2) <= STRIP_HALFWIDTH:
                    cand = (float(bx1[j]), float(bx2[j]), int(bids[j]))
                    if best is None or cand[:2] < best[:2]:
                        best = cand
                    break
                j += 1
        if best is not None:
            image[i] = best[2]
        elif width - x1 < buf:
            censored[i] = True
        else:
            image[i] = i
    return image, censored


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
    image, censored = _strip_eval(pattern.coords, pattern.domain)
    return ShiftMap("strip", image, censored)


def eval_multitype_strip(pattern: PointPattern) -> ShiftMap:
    """Cluster shift: children map to their parent, parents run the strip
    rule restricted to parents of the same type (satellite count)."""
    if pattern.domain.kind != WINDOW:
        raise ConfigError("multitype strip runs on window domains only")
    if pattern.dimension != 2:
        raise ConfigError("multitype strip is planar (dimension 2)")
    meta = pattern.metadata
    if "cluster_parent" not in meta or "cluster_is_parent" not in meta:
        raise ConfigError("multitype strip needs cluster annotations")
    parent = np.asarray(meta["cluster_parent"], dtype=np.int64)
    ptype = np.asarray(meta["cluster_type"], dtype=np.int64)
    is_parent = np.asarray(meta["cluster_is_parent"], dtype=np.int64).astype(bool)
    n = len(pattern)
    image = np.full(n, -1, dtype=np.int64)
    censored = np.zeros(n, dtype=bool)
    children = ~is_parent
    orphan = children & (parent < 0)
    image[children] = parent[children]
    image[orphan] = -1
    censored[orphan] = True
    for t in np.unique(ptype[is_parent]):
        sub = np.flatnonzero(is_parent & (ptype == t))
        loc_img, loc_cen = _strip_eval(pattern.coords[sub], pattern.domain)
        ok = loc_img >= 0
        image[sub[ok]] = sub[loc_img[ok]]
        censored[sub[~ok]] = True
    return ShiftMap("multitype_strip", image, censored)


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
    censored = np.zeros(n, dtype=bool)
    torus = pattern.domain.kind == TORUS
    width = int(pattern.domain.extents[0]) if torus else 0

    columns: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
    keys = [
        (int(lattice[i, 0]),) + tuple(int(v) for v in lattice[i, 2:]) for i in range(n)
    ]
    by_key: dict[tuple[int, ...], list[int]] = {}
    for i, key in enumerate(keys):
        by_key.setdefault(key, []).append(i)
    for key, ids in by_key.items():
        ids_arr = np.asarray(ids, dtype=np.int64)
        rows = lattice[ids_arr, 1]
        order = np.argsort(rows, kind="stable")
        columns[key] = (rows[order], ids_arr[order])

    for i in range(n):
        c0 = int(lattice[i, 0]) + 1
        if torus:
            c0 %= width
        key = (c0,) + tuple(int(v) for v in lattice[i, 2:])
        entry = columns.get(key)
        if entry is None:
            censored[i] = True
            continue
        rows, ids_arr = entry
        j = int(np.searchsorted(rows, lattice[i, 1], side="left"))
        if j == len(rows):
            if torus:
                j = 0
            else:
                censored[i] = True
                continue
        image[i] = ids_arr[j]
    return ShiftMap("next_row", image, censored)


def condenser_marks(
    pattern: PointPattern, ball_radius: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-ball point counts (the point itself included) and a flag for
    marks whose counting ball reaches past the window boundary."""
    marks, _ = ball(pattern, ball_radius)
    marks_censored = face_distances(pattern.coords, pattern.domain) < ball_radius
    return marks, marks_censored


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
    are censored.
    """
    if pattern.domain.kind != WINDOW:
        raise ConfigError("condenser shift runs on window domains only")
    if metric not in ("euclidean", "first_coordinate"):
        raise ConfigError("condenser metric is euclidean or first_coordinate")
    n = len(pattern)
    image = np.full(n, -1, dtype=np.int64)
    censored = np.zeros(n, dtype=bool)
    if n == 0:
        return ShiftMap("condenser", image, censored)
    marks, marks_censored = condenser_marks(pattern, ball_radius)
    ext = np.asarray(pattern.domain.extents)
    auth = ~marks_censored
    bad_ids = np.flatnonzero(marks_censored)
    bad_coords = pattern.coords[bad_ids]

    groups: dict[int, np.ndarray] = {}
    for m in np.unique(marks[auth]):
        members = np.flatnonzero(auth & (marks == m))
        order = np.lexsort(tuple(pattern.coords[members].T[::-1]))
        groups[int(m)] = members[order]

    def interference(i: int, dist: float, first_only: bool) -> bool:
        if bad_ids.size == 0:
            return False
        x = pattern.coords[i]
        right = bad_coords[:, 0] > x[0]
        if first_only:
            return bool(np.any(right & (bad_coords[:, 0] - x[0] <= dist)))
        d = np.sqrt(((bad_coords - x) ** 2).sum(axis=1))
        return bool(np.any(right & (d <= dist)))

    for i in range(n):
        if marks_censored[i]:
            censored[i] = True
            continue
        cands = groups.get(int(marks[i]) + 1)
        if cands is None:
            censored[i] = True
            continue
        x = pattern.coords[i]
        cc = pattern.coords[cands]
        ahead = cc[:, 0] > x[0]
        if not ahead.any():
            censored[i] = True
            continue
        cand_ids = cands[ahead]
        cand_coords = cc[ahead]
        if metric == "first_coordinate":
            gaps = cand_coords[:, 0] - x[0]
            dist = float(gaps.min())
            at_min = np.flatnonzero(gaps == dist)
        else:
            d = np.sqrt(((cand_coords - x) ** 2).sum(axis=1))
            dist = float(d.min())
            at_min = np.flatnonzero(d == dist)
        if at_min.size > 1:
            rows = cand_coords[at_min]
            at_min = at_min[np.lexsort(tuple(rows.T[::-1]))[:1]]
        winner = int(cand_ids[at_min[0]])
        if metric == "euclidean":
            # winning region must be fully observed
            lo = x - dist
            hi = x + dist
            lo[0] = x[0]
            if np.any(lo < 0.0) or np.any(hi > ext):
                censored[i] = True
                continue
        if interference(i, dist, metric == "first_coordinate"):
            censored[i] = True
            continue
        image[i] = winner
    return ShiftMap("condenser", image, censored)


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
