"""Seeded generators for the supported point-process families.

All randomness comes from numpy's PCG64 stream so identical seeds give
bit-identical patterns; the algorithm name is recorded in the pattern
metadata to keep golden files portable.  Draw order is fixed per model and
must not change: counts first, then positions, then thinning/marks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .patterns import TORUS, ConfigError, Domain, PointPattern

RNG_ALGORITHM = "pcg64"

MODELS = ("poisson", "bernoulli_grid", "poisson_cluster")


@dataclass(frozen=True)
class GenSpec:
    """Which model to draw, on which domain, from which seed."""

    model: str
    domain: Domain
    seed: int = 0
    intensity: float = 1.0
    p: float = 0.5
    parent_intensity: float = 1.0
    mark_circle_radius: float = 1.0
    mark_intensity: float = 1.0

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}")
        seed = int(self.seed)
        if not 0 <= seed < 2**64:
            raise ConfigError("seed must be an unsigned 64-bit integer")
        object.__setattr__(self, "seed", seed)
        if self.model == "poisson":
            if not (np.isfinite(self.intensity) and self.intensity > 0):
                raise ConfigError("poisson intensity must be positive")
        elif self.model == "bernoulli_grid":
            if not 0.0 <= self.p <= 1.0:
                raise ConfigError("p must lie in [0, 1]")
            if self.domain.kind == TORUS and any(
                not float(e).is_integer() for e in self.domain.extents
            ):
                raise ConfigError("bernoulli grid on a torus needs integer extents")
        else:
            if not (np.isfinite(self.parent_intensity) and self.parent_intensity > 0):
                raise ConfigError("parent intensity must be positive")
            marks = (self.mark_circle_radius, self.mark_intensity)
            if not all(np.isfinite(v) and v > 0 for v in marks):
                raise ConfigError("mark circle radius and intensity must be positive and finite")
            if self.domain.dimension != 2:
                raise ConfigError("cluster model is planar (dimension 2)")

    def with_seed(self, seed: int) -> "GenSpec":
        return replace(self, seed=seed)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _clamp_torus(coords: np.ndarray, ext: np.ndarray) -> np.ndarray:
    # u*extent can round up to the extent itself at the last ulp
    return np.minimum(coords, np.nextafter(ext, 0.0))


def _poisson(spec: GenSpec) -> PointPattern:
    """Homogeneous Poisson sample: Poisson count, i.i.d. uniform positions."""
    rng = _rng(spec.seed)
    n = int(rng.poisson(spec.intensity * spec.domain.volume))
    ext = np.asarray(spec.domain.extents)
    coords = rng.random((n, spec.domain.dimension)) * ext
    if spec.domain.kind == TORUS:
        coords = _clamp_torus(coords, ext)
    meta = {
        "model": "poisson",
        "rng": RNG_ALGORITHM,
        "seed": spec.seed,
        "intensity": spec.intensity,
    }
    return PointPattern(spec.domain, coords, meta)


def _bernoulli_grid(spec: GenSpec) -> PointPattern:
    """Integer lattice, uniformly shifted, each site kept with probability p.

    The uniform shift is stored in the metadata so row/column membership can
    be recovered by subtracting it and rounding, instead of parsing floats.
    """
    rng = _rng(spec.seed)
    d = spec.domain.dimension
    ext = np.asarray(spec.domain.extents)
    u = rng.random(d)
    if spec.domain.kind == TORUS:
        counts = ext.astype(np.int64)
    else:
        counts = (np.floor(ext - u) + 1).astype(np.int64)
    axes = [np.arange(c) for c in counts]
    sites = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    keep = rng.random(len(sites)) < spec.p
    coords = sites[keep].astype(float) + u
    meta = {
        "model": "bernoulli_grid",
        "rng": RNG_ALGORITHM,
        "seed": spec.seed,
        "p": spec.p,
        "grid_shift": tuple(float(v) for v in u),
    }
    return PointPattern(spec.domain, coords, meta)


def _poisson_cluster(spec: GenSpec) -> PointPattern:
    """Poisson parents, each dressed with a Poisson number of satellites
    placed uniformly on a circle around it.

    Points are parents first, then surviving children.  Annotations give
    every point its parent id and its type (the generated satellite count of
    its cluster); children falling off a window are clipped, on a torus they
    wrap.
    """
    rng = _rng(spec.seed)
    ext = np.asarray(spec.domain.extents)
    n_parents = int(rng.poisson(spec.parent_intensity * spec.domain.volume))
    parents = rng.random((n_parents, 2)) * ext
    if spec.domain.kind == TORUS:
        parents = _clamp_torus(parents, ext)
    mean_children = 2.0 * math.pi * spec.mark_intensity * spec.mark_circle_radius
    counts = rng.poisson(mean_children, size=n_parents).astype(np.int64)
    total = int(counts.sum())
    angles = rng.random(total) * (2.0 * math.pi)
    offsets = spec.mark_circle_radius * np.column_stack(
        (np.cos(angles), np.sin(angles))
    )
    parent_of_child = np.repeat(np.arange(n_parents), counts)
    children = parents[parent_of_child] + offsets
    if spec.domain.kind == TORUS:
        children = _clamp_torus(children % ext, ext)
        child_keep = np.ones(total, dtype=bool)
    else:
        child_keep = np.all((children >= 0.0) & (children <= ext), axis=1)
    children = children[child_keep]
    parent_of_child = parent_of_child[child_keep]
    coords = np.vstack([parents, children]) if n_parents else parents.reshape(0, 2)
    parent_ids = np.concatenate([np.arange(n_parents), parent_of_child])
    meta = {
        "model": "poisson_cluster",
        "rng": RNG_ALGORITHM,
        "seed": spec.seed,
        "parent_intensity": spec.parent_intensity,
        "mark_circle_radius": spec.mark_circle_radius,
        "mark_intensity": spec.mark_intensity,
        "cluster_parent": parent_ids.astype(np.int64),
        "cluster_type": counts[parent_ids] if n_parents else np.empty(0, np.int64),
        "cluster_is_parent": np.concatenate(
            [np.ones(n_parents, np.int64), np.zeros(len(children), np.int64)]
        ),
    }
    return PointPattern(spec.domain, coords, meta)


_GENERATORS = {
    "poisson": _poisson,
    "bernoulli_grid": _bernoulli_grid,
    "poisson_cluster": _poisson_cluster,
}


def generate(spec: GenSpec) -> PointPattern:
    return _GENERATORS[spec.model](spec)
