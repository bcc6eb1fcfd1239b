"""The neighbor queries of ``cellindex`` against the quadratic oracles:
nearest neighbors with exact ties (smallest tied id) and closed-ball counts,
on tori with few bins, windows, 1-D and 3-D domains, and empty top cells."""

import numpy as np
import pytest

from oracles import brute_condenser_marks, brute_nn

from foliate import cellindex
from foliate.cellindex import ball, nearest
from foliate.generators import GenSpec, generate
from foliate.patterns import Domain, PointPattern


def poisson(domain, seed, intensity=0.6):
    return generate(GenSpec("poisson", domain, seed=seed, intensity=intensity))


# a cluster in one corner and one far point, whose neighbor lies beyond the
# first radius sqrt(area / n) ~ 30
SPARSE = [[0.2 * i, 0.3 * (i % 4)] for i in range(10)] + [[90.0, 90.0]]

PATTERNS = {
    # unit lattice points: many exact distance ties at 1 and sqrt(2)
    "grid_torus_ties": generate(
        GenSpec("bernoulli_grid", Domain.torus(12, 12), seed=40, p=0.5)
    ),
    # the first radius is 2, so each axis has one bin and the offsets repeat
    "torus_one_bin": PointPattern(
        Domain.torus(4, 4), [[0.5, 0.5], [1.5, 3.0], [3.5, 3.5], [2.0, 1.0]]
    ),
    # one bin across the short axis
    "torus_thin": poisson(Domain.torus(40, 1.5), 41, intensity=1.0),
    "window_2d": poisson(Domain.window(20, 20, buffer=2.0), 42, intensity=0.3),
    "window_1d": poisson(Domain.window(80.0), 43),
    "torus_1d": poisson(Domain.torus(80.0), 43),
    "torus_3d": poisson(Domain.torus(5, 5, 5), 44),
    "window_3d": poisson(Domain.window(5, 5, 5), 45),
    "sparse": PointPattern(Domain.window(100, 100), SPARSE),
    # 81 lattice points in a 10x10 window: 9 cells per axis of width 10/9,
    # and no point in the last row or column of cells
    "top_cells_empty": PointPattern(
        Domain.window(10, 10), [[0.5 + i, 0.5 + j] for i in range(9) for j in range(9)]
    ),
    # 8 points, 8 cells of width 1.25; the last cell is empty
    "top_cell_empty_1d": PointPattern(Domain.window(10.0), [[0.5 + i] for i in range(8)]),
}


# every pattern at the module's block size, and again in blocks of 7 queries,
# which split cell runs and tied groups across blocks
CASES = [pytest.param(name, cellindex.BLOCK, id=name) for name in sorted(PATTERNS)] + [
    pytest.param(name, 7, id=f"{name}-block7") for name in sorted(PATTERNS)
]


@pytest.mark.parametrize("name, block", CASES)
def test_nearest_matches_brute_force(name, block, monkeypatch):
    monkeypatch.setattr(cellindex, "BLOCK", block)
    pat = PATTERNS[name]
    nn, dist, tied = nearest(pat)
    ids, dists, ties = brute_nn(pat)
    assert nn.tolist() == ids
    assert dist.tolist() == dists
    assert tied.tolist() == ties


def test_grid_torus_has_ties():
    assert any(brute_nn(PATTERNS["grid_torus_ties"])[2])


@pytest.mark.parametrize("r", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("name, block", CASES)
def test_ball_matches_brute_force(name, r, block, monkeypatch):
    monkeypatch.setattr(cellindex, "BLOCK", block)
    pat = PATTERNS[name]
    assert ball(pat, r).tolist() == brute_condenser_marks(pat, r)


def test_sparse_pattern_takes_retry_rounds(monkeypatch):
    radii = []
    pairs = cellindex._pairs

    def spy(pattern, r, queries):
        radii.append((r, len(queries)))
        return pairs(pattern, r, queries)

    monkeypatch.setattr(cellindex, "_pairs", spy)
    nn, dist, _ = nearest(PATTERNS["sparse"])
    # the far point alone is retried at 2r, then capped at the window diagonal
    assert len(radii) > 1
    assert radii[1] == (2 * radii[0][0], 1)
    assert nn[-1] == 7 and dist[-1] > radii[1][0]


def test_fewer_than_two_points():
    nn, dist, tied = nearest(PointPattern(Domain.torus(4, 4), [[1.0, 1.0]]))
    assert nn.tolist() == [-1] and dist.tolist() == [np.inf] and tied.tolist() == [False]
    assert ball(PointPattern(Domain.window(4.0), np.zeros((0, 1))), 1.0).tolist() == []
