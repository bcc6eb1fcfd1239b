"""Domains and finite point patterns.

Coordinates are plain model units.  A torus identifies opposite faces and
carries the quotient metric; a window is a closed axis-aligned box with an
inner censoring margin of width ``buffer`` along every face.  Patterns are
immutable after construction and are always simple: no two points share the
same coordinate tuple.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from typing import Any

import numpy as np

TORUS = "torus"
WINDOW = "window"

# how far a grid point may lie from its lattice site: generated grids and
# their crops are off by float rounding only, a few ulps of the extent (at
# most 5.7e-14 at extent 1000), so this sits seven orders of magnitude
# above that at extent 1000 and six below the lattice step of 1
LATTICE_TOLERANCE = 1e-6


class ConfigError(ValueError):
    """Invalid configuration or a violated operation precondition."""


class PatternError(ValueError):
    """Structurally invalid point data."""


@dataclass(frozen=True)
class Domain:
    """Observation domain: a flat torus or a buffered window."""

    kind: str
    extents: tuple[float, ...]
    buffer: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in (TORUS, WINDOW):
            raise ConfigError(f"unknown domain kind {self.kind!r}")
        ext = tuple(float(e) for e in self.extents)
        if not ext or any(not np.isfinite(e) or e <= 0.0 for e in ext):
            raise ConfigError("extents must be positive and finite")
        object.__setattr__(self, "extents", ext)
        buf = float(self.buffer)
        if self.kind == TORUS and buf != 0.0:
            raise ConfigError("a torus takes no censoring buffer")
        if not 0.0 <= buf < min(ext) / 2.0:
            raise ConfigError("buffer must satisfy 0 <= buffer < min(extent)/2")
        object.__setattr__(self, "buffer", buf)

    @classmethod
    def torus(cls, *extents: float) -> "Domain":
        return cls(TORUS, tuple(extents))

    @classmethod
    def window(cls, *extents: float, buffer: float = 0.0) -> "Domain":
        return cls(WINDOW, tuple(extents), buffer)

    @property
    def dimension(self) -> int:
        return len(self.extents)

    @property
    def volume(self) -> float:
        return float(np.prod(self.extents))


def distances_to(coords: np.ndarray, x: np.ndarray, dom: Domain) -> np.ndarray:
    """Distances between the rows of ``coords`` and of ``x``, which
    broadcast (a single point ``x`` serves every row).

    The metric is the quotient metric on a torus and Euclidean on a
    window.  The last axis is the coordinate axis, and the metric runs one
    axis at a time with the squares summed in axis order, so the transpose
    of a per-axis layout reads contiguous columns.  On a torus the gap is
    min(t, extent − t) with t = |a − b|, with no ``t % extent``: for
    coordinates in [0, extent), which every pattern and the domain center
    have, |a − b| is at most max(a, b) exactly, rounds to at most that
    representable value, and so stays below the extent, where ``% extent``
    is the identity.
    """
    total = None
    for k, e in enumerate(dom.extents):
        t = coords[..., k] - x[..., k]
        np.abs(t, out=t)
        if dom.kind == TORUS:
            np.minimum(t, e - t, out=t)
        t *= t
        total = t if total is None else np.add(total, t, out=total)
    return np.sqrt(total, out=total)


def face_distances(coords: np.ndarray, dom: Domain) -> np.ndarray:
    """Distance of each point to the nearest domain face (inf on a torus)."""
    if dom.kind == TORUS:
        return np.full(len(coords), np.inf)
    ext = np.asarray(dom.extents)
    return np.minimum(coords, ext - coords).min(axis=1)


def row_ranks(rows: np.ndarray) -> np.ndarray:
    """The dense rank of each row of a 2-D array in lexicographic order.

    Equal rows share a rank and the distinct rows take 0, 1, ... in order:
    the inverse index ``np.unique`` gives for rows, and ``0.0`` equals
    ``-0.0`` there too.

    One dense rank per column, packed after the ranks of the columns
    before it as ``rank * (max + 1) + r`` and ranked again, so every key is
    below N² and sorts as an integer.
    """
    rank = np.zeros(len(rows), dtype=np.int64)
    for j, col in enumerate(rows.T):
        values, r = np.unique(col, return_inverse=True)
        rank = rank * len(values) + r
        if j:
            rank = np.unique(rank, return_inverse=True)[1]
    return rank


def _is_simple(c: np.ndarray) -> bool:
    """Whether the rows of ``c`` are distinct.  Distinct first coordinates
    prove it with one sort of values; only a tie (a shared first coordinate,
    or ``-0.0`` next to ``0.0``) ranks the whole rows.  Grids prove it by
    their lattice sites instead (``_check_lattice``)."""
    first = np.sort(c[:, 0])
    if not (first[1:] == first[:-1]).any():
        return True
    return row_ranks(c).max() == len(c) - 1


def _check_lattice(c: np.ndarray, domain: Domain, shift) -> None:
    """Refuse grid coordinates ``c`` with ``PatternError`` unless each lies
    within ``LATTICE_TOLERANCE`` of a site of the lattice shifted by
    ``shift``, every site fits int64 (as ``lattice_coords`` casts them) and,
    on a torus, lies in [0, extent), and no two points share a site.
    Distinct sites prove the pattern simple."""
    sites = []
    for k, u in enumerate(shift):
        x = c[:, k] - u
        site = np.rint(x)
        if np.abs(x - site).max() > LATTICE_TOLERANCE:
            raise PatternError("grid points must lie on the lattice shifted by grid_shift")
        lo, hi = site.min(), site.max()
        if max(-lo, hi) >= 2.0**63:
            raise PatternError("grid lattice sites must fit 64-bit integers")
        if domain.kind == TORUS and (lo < 0.0 or hi >= domain.extents[k]):
            raise PatternError("grid lattice sites must lie in [0, extent) on a torus")
        sites.append(site)
    if row_ranks(np.stack(sites, axis=1)).max() != len(c) - 1:
        raise PatternError("two grid points share a lattice site")


@dataclass(frozen=True)
class PointPattern:
    """A finite simple point configuration on a domain.

    ``coords`` is an (N, d) float array; point ids are the row indices.
    ``metadata`` carries generator annotations (RNG id, grid shift, cluster
    parents/types) needed by shifts that rely on them.
    """

    domain: Domain
    coords: np.ndarray
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        c = np.array(self.coords, dtype=float, copy=True)
        if c.size == 0:
            c = c.reshape(0, self.domain.dimension)
        if c.ndim != 2 or c.shape[1] != self.domain.dimension:
            raise PatternError("coords must have shape (N, dimension)")
        if c.size and not np.all(np.isfinite(c)):
            raise PatternError("coordinates must be finite")
        ext = np.asarray(self.domain.extents)
        if c.size:
            if self.domain.kind == TORUS:
                if np.any(c < 0.0) or np.any(c >= ext):
                    raise PatternError("torus coordinates must lie in [0, extent)")
            else:
                if np.any(c < 0.0) or np.any(c > ext):
                    raise PatternError("window coordinates must lie in [0, extent]")
            if "grid_shift" in self.metadata:
                _check_lattice(c, self.domain, self.metadata["grid_shift"])
            elif not _is_simple(c):
                raise PatternError("pattern is not simple (duplicate coordinates)")
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    def __len__(self) -> int:
        return self.coords.shape[0]

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    def to_json(self) -> str:
        dom = {
            "kind": self.domain.kind,
            "extents": list(self.domain.extents),
            "buffer": self.domain.buffer,
        }
        obj: dict[str, Any] = {
            "dimension": self.dimension,
            "domain": dom,
            "points": self.coords.tolist(),
        }
        if self.metadata:
            obj["metadata"] = _jsonable_metadata(self.metadata)
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text: str) -> "PointPattern":
        obj = json.loads(text)
        dom = obj["domain"]
        domain = Domain(dom["kind"], tuple(dom["extents"]), dom.get("buffer", 0.0))
        points = obj.pop("points")
        flat = list(chain.from_iterable(points))
        # JSON numbers load as int or float; a bool, string, null or list is refused
        if not set(map(type, flat)) <= {int, float}:
            raise PatternError("points must be arrays of numbers")
        n, d = len(points), domain.dimension
        if not set(map(len, points)) <= {d}:
            raise PatternError(f"every point must have {d} coordinates")
        del points  # the row lists go before the array is built; flat holds the numbers
        coords = np.array(flat, dtype=float).reshape(n, d)
        meta = _metadata_from_jsonable(obj.get("metadata", {}), domain.dimension)
        return cls(domain, coords, meta)


_META_INT_ARRAYS = ("cluster_parent", "cluster_type", "cluster_is_parent")


def _jsonable_metadata(meta: dict[str, Any]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for key in sorted(meta):
        val = meta[key]
        if isinstance(val, np.ndarray):
            out[key] = val.tolist()
        elif isinstance(val, tuple):
            out[key] = list(val)
        elif isinstance(val, (np.integer,)):
            out[key] = int(val)
        elif isinstance(val, (np.floating,)):
            out[key] = float(val)
        else:
            out[key] = val
    return out


def _metadata_from_jsonable(meta: Any, dimension: int) -> dict[str, Any]:
    """A pattern file's metadata, refused with ``PatternError`` unless it
    is an object whose cluster arrays are flat lists of 64-bit integers and
    whose ``grid_shift`` is ``dimension`` numbers in [0, 1), the range that
    ``generate`` and ``crop`` keep it in."""
    if not isinstance(meta, dict):
        raise PatternError("metadata must be an object")
    out = dict(meta)
    for key in _META_INT_ARRAYS:
        if key in meta:
            val = meta[key]
            if not isinstance(val, list) or not all(
                type(v) is int and -(2**63) <= v < 2**63 for v in val
            ):
                raise PatternError(f"{key} must be a flat list of 64-bit integers")
            out[key] = np.array(val, dtype=np.int64)
    if "grid_shift" in meta:
        u = meta["grid_shift"]
        if not isinstance(u, list) or len(u) != dimension or not all(
            type(v) in (int, float) and 0.0 <= v < 1.0 for v in u
        ):
            raise PatternError(f"grid_shift must be {dimension} numbers in [0, 1)")
        out["grid_shift"] = tuple(float(v) for v in u)
    return out


def lattice_coords(pattern: PointPattern) -> np.ndarray | None:
    """Integer lattice coordinates of a grid pattern, None otherwise.

    Exact: recovered by subtracting the stored shift and rounding, so they
    are immune to the float noise of absolute positions.  The pattern has
    checked that they fit int64 and are distinct (``_check_lattice``).
    """
    if "grid_shift" not in pattern.metadata:
        return None
    u = np.asarray(pattern.metadata["grid_shift"], dtype=float)
    return np.rint(pattern.coords - u).astype(np.int64)


def displacement(pattern: PointPattern, ids: np.ndarray, ref) -> np.ndarray:
    """Coordinates of points ``ids`` relative to ``ref`` (one node, or one
    node per id), taken modulo the extents on a torus.

    Grid patterns use exact integer lattice coordinates; equal displacements
    would otherwise carry position-dependent float noise.
    """
    lattice = lattice_coords(pattern)
    p = pattern.coords if lattice is None else lattice
    rel = p[ids] - p[ref]
    if pattern.domain.kind == TORUS:
        rel = rel % np.asarray(pattern.domain.extents, dtype=p.dtype)
    return rel


def crop(pattern: PointPattern, fraction: float) -> PointPattern:
    """Centered sub-window of a window pattern, rescaled to the origin.

    Used by the nested-core ladder: the same realization restricted to a
    concentric box of ``fraction`` times the extents, same buffer.
    """
    if pattern.domain.kind != WINDOW:
        raise ConfigError("crop is only defined on window domains")
    if not 0.0 < fraction <= 1.0:
        raise ConfigError("fraction must lie in (0, 1]")
    if fraction == 1.0:
        return pattern
    ext = np.asarray(pattern.domain.extents)
    new_ext = ext * fraction
    offset = (ext - new_ext) / 2.0
    keep = np.all(
        (pattern.coords >= offset) & (pattern.coords <= offset + new_ext), axis=1
    )
    idx = np.flatnonzero(keep)
    coords = pattern.coords[idx] - offset
    coords = np.clip(coords, 0.0, new_ext)
    meta = dict(pattern.metadata)
    if "grid_shift" in meta:
        u = (np.asarray(meta["grid_shift"], dtype=float) - offset) % 1.0
        u = np.where(u >= 1.0, 0.0, u)
        meta["grid_shift"] = tuple(float(v) for v in u)
    if "cluster_parent" in meta:
        remap = np.full(len(pattern), -1, dtype=np.int64)
        remap[idx] = np.arange(len(idx))
        parent = np.asarray(meta["cluster_parent"], dtype=np.int64)[idx]
        meta["cluster_parent"] = np.where(parent >= 0, remap[parent], -1)
        meta["cluster_type"] = np.asarray(meta["cluster_type"], dtype=np.int64)[idx]
        meta["cluster_is_parent"] = np.asarray(
            meta["cluster_is_parent"], dtype=np.int64
        )[idx]
    domain = Domain(WINDOW, tuple(float(e) for e in new_ext), pattern.domain.buffer)
    return PointPattern(domain, coords, meta)
