"""The neighbor queries of ``cellindex`` against the quadratic oracles:
nearest neighbors with exact ties (smallest tied id) and closed-ball counts,
on tori with few bins, windows, 1-D and 3-D domains, and empty top cells."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import brute_condenser_marks, brute_nearest, brute_nn

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
    # 7 points, 6 cells of width 2: ring 1 around 0.5 covers 2.5 on both
    # sides, so 3.25 at 2.75 is not yet known to be nearest, and the true
    # nearest is 9.875 at 2.625, two cells down across the seam
    "ring_edge_1d": PointPattern(
        Domain.torus(12.0), [[0.5], [3.25], [9.875], [5.5], [6.5], [7.5], [8.5]]
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


def test_sparse_pattern_widens_the_ring_on_one_table(monkeypatch):
    tables, rings = [], []
    table, pairs = cellindex._table, cellindex._pairs

    def table_spy(coords, domain, r):
        tables.append(len(coords))
        return table(coords, domain, r)

    def pairs_spy(domain, tab, queries, ring, ahead=False):
        rings.append((ring, queries[0].shape[1]))
        return pairs(domain, tab, queries, ring, ahead)

    monkeypatch.setattr(cellindex, "_table", table_spy)
    monkeypatch.setattr(cellindex, "_pairs", pairs_spy)
    nn, dist, _ = nearest(PATTERNS["sparse"])
    # one table of all 11 points; the far point alone retries, on ring 2,
    # which spans the 3 x 3 cells
    assert tables == [11]
    assert rings == [(1, 11), (2, 1)]
    assert nn[-1] == 7 and dist[-1] > 90.0


@st.composite
def neighbor_queries(draw):
    """Points on a quarter grid (exact ties) of a small torus or window in
    1-3 dimensions, some clustered in one corner so that rings widen; a
    target subset, and either the targets themselves or another subset as
    queries, with ``ahead`` and per-query reaches."""
    dim = draw(st.integers(min_value=1, max_value=3))
    ext = [draw(st.integers(min_value=1, max_value=12)) for _ in range(dim)]
    kind = draw(st.sampled_from(["torus", "window"]))
    cells = [st.integers(min_value=0, max_value=4 * e - (kind == "torus")) for e in ext]
    spread = draw(st.sets(st.tuples(*cells), min_size=1, max_size=25))
    corner = draw(st.sets(st.tuples(*(st.integers(0, 3) for _ in ext)), max_size=10))
    points = sorted(spread | corner)
    n = len(points)
    domain = Domain.torus(*ext) if kind == "torus" else Domain.window(*ext)
    pattern = PointPattern(domain, np.array(points, dtype=float).reshape(n, dim) / 4)
    # targets in the corner alone leave the first ring of far queries empty
    near = [i for i, p in enumerate(points) if p in corner]
    anywhere = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    targets = draw(st.just(near) | anywhere if near else anywhere)
    queries = draw(st.none() | st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    ahead = draw(st.booleans())
    nq = len(targets) if queries is None else len(queries)
    reach = draw(st.none() | st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5, np.inf]),
                                      min_size=nq, max_size=nq))
    return pattern, targets, queries, ahead, reach


# a query ahead of which ring 1 covers less than behind it: a target found
# in ring 1 lies farther than a target ahead of the ring
AHEAD_EDGE = (
    PointPattern(
        Domain.window(5, 9),
        np.array(
            [[0, 12], [1, 36], [2, 24], [3, 15], [4, 25], [6, 22], [6, 25], [6, 27],
             [8, 31], [10, 8], [10, 35], [12, 0], [12, 16], [14, 2], [14, 29], [15, 2],
             [15, 9], [15, 21], [15, 32], [16, 8], [17, 9], [17, 28], [18, 0], [19, 11],
             [19, 20], [19, 31], [20, 21], [20, 29]], dtype=float,
        ) / 4,
    ),
    [0, 1, 2, 4, 5, 10, 11, 14, 15, 16, 18, 19, 20, 21, 23, 24, 25, 26],
    [3, 6, 7, 8, 9, 12, 13, 17, 22, 27],
    True,
    None,
)


# on a torus a target ahead can be nearest through the seam, below the
# query's cell: 2.2 is 0.8 from 0, nearer than 1.3
AHEAD_SEAM = (
    PointPattern(Domain.torus(3), np.array([[0], [1.3], [1.35], [1.45], [2.2]])),
    [0, 1, 2, 3, 4], None, True, None,
)
# the tie of 1 and 2 (at distance 1 from 0, the latter through the seam)
AHEAD_SEAM_TIE = (
    PointPattern(Domain.torus(3), np.array([[0], [.25], [.5], [.75], [1], [1.25], [1.5], [2]])),
    [0, 4, 5, 6, 7], None, True, None,
)


@given(neighbor_queries(), st.sampled_from([1, 3, cellindex.BLOCK]))
@example(AHEAD_EDGE, cellindex.BLOCK)
@example(AHEAD_SEAM, 1)
@example(AHEAD_SEAM, cellindex.BLOCK)
@example(AHEAD_SEAM_TIE, 3)
@settings(max_examples=300, deadline=None)
def test_nearest_of_subsets_matches_brute_force(case, block):
    pattern, targets, queries, ahead, reach = case
    old = cellindex.BLOCK
    cellindex.BLOCK = block
    try:
        got = nearest(
            pattern, np.array(targets), None if queries is None else np.array(queries),
            ahead, reach,
        )
    finally:
        cellindex.BLOCK = old
    nq = len(targets) if queries is None else len(queries)
    want = brute_nearest(pattern, targets, queries, ahead, reach or [np.inf] * nq)
    assert [g.tolist() for g in got] == [list(w) for w in want]


def test_far_query_whose_first_ring_holds_no_target(monkeypatch):
    rings = []
    pairs = cellindex._pairs

    def spy(domain, tab, queries, ring, ahead=False):
        for block in pairs(domain, tab, queries, ring, ahead):
            rings.append((ring, np.diff(block[1], append=len(block[2])).tolist()))
            yield block

    monkeypatch.setattr(cellindex, "_pairs", spy)
    # the cluster's 3 x 3 cells; ring 1 around the far point holds none of it
    slot, dist, _ = nearest(PATTERNS["sparse"], np.arange(10), np.array([10]))
    assert rings == [(1, [0]), (2, [10])]
    assert slot.tolist() == [7] and dist[0] == brute_nn(PATTERNS["sparse"])[1][-1]


def test_fewer_than_two_points():
    nn, dist, tied = nearest(PointPattern(Domain.torus(4, 4), [[1.0, 1.0]]))
    assert nn.tolist() == [-1] and dist.tolist() == [np.inf] and tied.tolist() == [False]
    assert ball(PointPattern(Domain.window(4.0), np.zeros((0, 1))), 1.0).tolist() == []
