import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_condenser_image,
    brute_condenser_marks,
    brute_multitype_strip_map,
    brute_next_row_image,
    brute_nn,
    brute_strip_map,
    translate,
)

from foliate import shifts
from foliate.generators import GenSpec, generate
from foliate.patterns import ConfigError, Domain, PointPattern
from foliate.shifts import (
    ShiftKind,
    ShiftMap,
    condenser_marks,
    decimal_table,
    eval_condenser,
    eval_mnn,
    eval_multitype_strip,
    eval_next_row,
    eval_strip,
    evaluate,
    json_rows,
)


def window_pattern(points, extents=(10.0, 10.0), buffer=0.0):
    return PointPattern(Domain.window(*extents, buffer=buffer), points)


# ---------------------------------------------------------------- strip


def test_strip_picks_leftmost_in_band():
    pat = window_pattern([[1.0, 5.0], [2.0, 5.2], [3.0, 5.0]])
    sm = eval_strip(pat)
    assert sm.image[0] == 1


def test_strip_self_when_band_empty():
    pat = window_pattern([[1.0, 5.0], [6.0, 5.8]])
    sm = eval_strip(pat)
    assert sm.image[0] == 0
    assert not sm.censored[0]


def test_strip_tie_breaks_lexicographically():
    pat = window_pattern([[1.0, 5.0], [2.0, 4.7], [2.0, 5.3]])
    sm = eval_strip(pat)
    assert sm.image[0] == 1


def test_strip_censors_near_right_edge_without_candidate():
    pat = window_pattern([[9.5, 5.0], [1.0, 5.0]], buffer=1.0)
    sm = eval_strip(pat)
    assert sm.censored[0]
    assert sm.image[1] == 0


def test_strip_censors_band_leaving_window():
    pat = window_pattern([[1.0, 0.2], [2.0, 0.2]])
    sm = eval_strip(pat)
    assert sm.censored[0]


def test_strip_requires_window_2d():
    torus = PointPattern(Domain.torus(10, 10), [[1.0, 1.0]])
    with pytest.raises(ConfigError):
        eval_strip(torus)
    line = PointPattern(Domain.window(10.0), [[1.0]])
    with pytest.raises(ConfigError):
        eval_strip(line)


def test_strip_matches_brute_force():
    pat = generate(
        GenSpec("poisson", Domain.window(30, 30, buffer=2.0), seed=31, intensity=1.0)
    )
    sm = eval_strip(pat)
    image, censored = brute_strip_map(pat)
    assert sm.censored.any()
    assert sm.image.tolist() == image
    assert sm.censored.tolist() == censored


def quarter_grid(offset, seed, cols=12, rows=28, p=0.6, typed=False):
    """A thinned grid window whose x2 sit on quarter steps above ``offset``:
    every point lies on a bucket edge or on a band edge of others.  With
    ``typed`` every point is a cluster parent of type 0 or 1."""
    rng = np.random.default_rng(seed)
    x1, k = np.meshgrid(np.arange(cols) * 0.5, np.arange(rows), indexing="ij")
    pts = np.stack([x1.ravel(), offset + 0.25 * k.ravel()], axis=1)
    pts = np.unique(pts[rng.random(len(pts)) < p], axis=0)
    domain = Domain.window(cols * 0.5 + 1.0, offset + rows * 0.25 + 1.0, buffer=1.0)
    n = len(pts)
    meta = {
        "cluster_parent": np.arange(n),
        "cluster_type": rng.integers(0, 2, size=n),
        "cluster_is_parent": np.ones(n, dtype=np.int64),
    }
    return PointPattern(domain, pts, meta if typed else {})


# the pivot (1, 5.25) has band [4.75, 5.75] over buckets 4 and 5: the
# candidates at exactly |dx2| = 1/2 in both buckets tie on x1 and the lower
# x2 wins, and (1.5, 4.74) and (1.5, 5.76) lie just outside; (3, 5.25) sits
# exactly 1/2 from (2, 4.75) and (2, 5.75), and (9.5, 5.25) is in the buffer
# with an empty band
HALF_WIDTH_POINTS = [
    [1.0, 5.25], [2.0, 5.75], [2.0, 4.75], [1.5, 4.74], [1.5, 5.76], [3.0, 5.25],
    [9.5, 5.25], [4.0, 0.4], [4.0, 9.6],
]
# at 2**52 + 2 the halves round away, so floor(x2 - 1/2) == floor(x2 + 1/2)
BIG = 2.0**52 + 2.0
COINCIDING_POINTS = [[1.0, BIG], [2.0, BIG], [3.0, BIG + 1.0], [0.5, BIG], [7.5, BIG]]
# at the odd 2**52 + 1 the halves round to 2**52 and 2**52 + 2, skipping the
# point's own bucket on both sides; its band holds 2**52 + 1 alone
ODD = 2.0**52 + 1.0
ODD_POINTS = [[1.0, ODD], [2.0, ODD], [1.5, ODD - 1.0], [1.5, ODD + 1.0], [7.5, ODD]]


@pytest.mark.parametrize(
    "pat",
    [
        generate(GenSpec("bernoulli_grid", Domain.window(30, 30, buffer=2.0), seed=38, p=0.5)),
        window_pattern(HALF_WIDTH_POINTS, buffer=1.0),
        PointPattern(Domain.window(8.0, 2.0**53, buffer=1.0), COINCIDING_POINTS),
        PointPattern(Domain.window(8.0, 2.0**53, buffer=1.0), ODD_POINTS),
        *(quarter_grid(offset, seed) for offset in (0.0, 2.0**40, 2.0**51) for seed in (1, 2)),
        *(
            generate(GenSpec("poisson", Domain.window(25, 25, buffer=2.0), seed=s, intensity=2.0))
            for s in (41, 42)
        ),
    ],
    ids=["grid_x1_ties", "half_width", "coinciding_buckets", "odd_past_2_52",
         "quarter_0_a", "quarter_0_b", "quarter_2e40_a", "quarter_2e40_b", "quarter_2e51_a",
         "quarter_2e51_b", "poisson_a", "poisson_b"],
)
def test_strip_map_matches_brute_force(pat):
    sm = eval_strip(pat)
    image, censored = brute_strip_map(pat)
    assert sm.image.tolist() == image
    assert sm.censored.tolist() == censored


def test_strip_half_width_and_coinciding_cases():
    sm = eval_strip(window_pattern(HALF_WIDTH_POINTS, buffer=1.0))
    assert sm.image[:3].tolist() == [2, 5, 5]
    assert sm.censored[6:].all()  # right buffer, bottom edge, top edge
    big = PointPattern(Domain.window(8.0, 2.0**53, buffer=1.0), COINCIDING_POINTS)
    assert np.floor(BIG - 0.5) == np.floor(BIG + 0.5)
    sm = eval_strip(big)
    assert sm.image[:4].tolist() == [1, 4, 2, 0]
    assert sm.censored[4]
    sm = eval_strip(PointPattern(Domain.window(8.0, 2.0**53, buffer=1.0), ODD_POINTS))
    assert sm.image[:4].tolist() == [1, 4, 2, 3]


@pytest.mark.parametrize("seed", range(4))
def test_strip_sort_key_is_the_lexsort_order(seed):
    # equal x1 across rows and within a bucket, distinct x2 inside buckets
    rng = np.random.default_rng(seed)
    pts = np.stack([rng.integers(0, 4, 400) * 0.5, rng.integers(0, 40, 400) * 0.125], axis=1)
    pts = np.unique(pts, axis=0)
    x1, x2 = pts[:, 0], pts[:, 1]
    order, code, buckets, bucket, ux2, r2 = shifts._strip_sort(x1, x2)
    assert np.array_equal(order, np.lexsort((x2, x1, np.floor(x2))))
    assert np.array_equal(buckets[bucket], np.floor(x2)) and np.array_equal(ux2[r2], x2)
    assert np.all(np.diff(code[order]) >= 0)


# an x2 near a bucket or band edge: quarter steps, one ulp off them, tiny
# values and offsets where the halves round
EDGE_OFFSETS = [0.0, 1e6, 2.0**40, 2.0**51, 2.0**52 - 4.0, 2.0**52, 2.0**53]


@st.composite
def edge_windows(draw):
    offset = draw(st.sampled_from(EDGE_OFFSETS))
    n = draw(st.integers(min_value=1, max_value=40))
    pts = []
    for _ in range(n):
        y = offset + draw(st.integers(min_value=0, max_value=24)) * 0.25
        nudge = draw(st.sampled_from(["", "up", "down", "tiny"]))
        if nudge == "up":
            y = math.nextafter(y, math.inf)
        elif nudge == "down":
            y = math.nextafter(y, -math.inf)
        elif nudge == "tiny" and offset == 0.0:
            y = draw(st.sampled_from([5e-324, 1e-300, 2.0**-54]))
        pts.append([draw(st.integers(min_value=0, max_value=5)) * 0.5, max(y, 0.0)])
    pts = np.unique(np.array(pts), axis=0)
    return PointPattern(Domain.window(4.0, offset + 8.0, buffer=1.0), pts)


@given(edge_windows())
@settings(max_examples=300, deadline=None)
def test_strip_descent_lands_where_the_exact_test_holds(pat):
    # wherever the descent lands inside the searched bucket on a slot that
    # passes its one-sided test, the exact test |x2' - x2| <= 1/2 holds too,
    # so no scan has to resume from there; and the images are the oracle's
    landings = []

    def spy(table0, values, slot, x2_query, upper, levels):
        j = real(table0, values, slot, x2_query, upper, levels)
        landings.append((values[table0], j, x2_query, upper, levels))
        return j

    real = shifts._descend
    shifts._descend = spy
    try:
        sm = eval_strip(pat)
    finally:
        shifts._descend = real
    image, censored = brute_strip_map(pat)
    assert sm.image.tolist() == image
    assert sm.censored.tolist() == censored
    longest = int(np.unique(np.floor(pat.coords[:, 1]), return_counts=True)[1].max())
    for s_x2, j, x2q, upper, levels in landings:
        assert levels == max(math.ceil(math.log2(longest)), 1)
        lo, hi = np.floor(x2q - 0.5), np.floor(x2q + 0.5)
        side = np.where(hi - lo > 1, np.floor(x2q), hi if upper else lo)
        inside = j < len(s_x2)
        y, x, side = s_x2[j[inside]], x2q[inside], side[inside]
        d = y - x
        one_sided = (d <= 0.5) if upper else (d >= -0.5)
        landed = one_sided & (np.floor(y) == side)
        assert np.all(np.abs(d[landed]) <= 0.5)


# ---------------------------------------------------------------- mnn


def test_mnn_swaps_mutual_pair():
    pat = window_pattern([[1.0, 1.0], [2.0, 1.0]])
    sm = eval_mnn(pat)
    assert sm.image[0] == 1 and sm.image[1] == 0


def test_mnn_non_mutual_fixed():
    pat = window_pattern([[1.0, 1.0], [2.0, 1.0], [2.5, 1.0]])
    sm = eval_mnn(pat)
    assert sm.image[0] == 0
    assert sm.image[1] == 2 and sm.image[2] == 1


@pytest.mark.parametrize(
    "spec",
    [
        GenSpec("poisson", Domain.torus(20, 20), seed=32, intensity=1.0),
        GenSpec("bernoulli_grid", Domain.torus(12, 12), seed=32, p=0.5),
    ],
    ids=["poisson", "grid_ties"],
)
def test_mnn_involution_and_mutual_minimality(spec):
    pat = generate(spec)
    sm = eval_mnn(pat)
    idx = np.arange(len(pat))
    assert np.array_equal(sm.image[sm.image], idx)
    nn_ids, nn_d, tied = brute_nn(pat)
    if spec.model == "bernoulli_grid":
        assert any(tied)
    for i in idx:
        j = sm.image[i]
        if tied[i]:
            assert j == i
        if j != i:
            assert nn_ids[i] == j and nn_ids[j] == i
            assert not tied[i] and not tied[j]


def test_mnn_distance_tie_makes_fixed_points():
    # three collinear equidistant points: all ties, nobody pairs
    pat = window_pattern([[2.0, 5.0], [3.0, 5.0], [4.0, 5.0]])
    sm = eval_mnn(pat)
    assert sm.image[1] == 1


@pytest.mark.parametrize(
    "points", [[[2.0, 5.0], [1.0, 5.0], [3.0, 5.0]], [[2.0, 5.0], [3.0, 5.0], [1.0, 5.0]]]
)
def test_mnn_tied_point_with_observed_ball_is_fixed(points):
    # (2, 5) ties between its neighbors; its own unit ball is observed, so it
    # is a certain fixed point even though (1, 5) sits in the buffer
    pat = window_pattern(points, buffer=1.5)
    sm = eval_mnn(pat)
    assert not sm.censored[0] and sm.image[0] == 0


def test_mnn_singleton():
    sm = eval_mnn(PointPattern(Domain.torus(5, 5), [[1.0, 1.0]]))
    assert sm.image[0] == 0 and not sm.censored[0]


# ---------------------------------------------------------------- next row


def grid_pattern(sites, extents, kind="torus", shift=(0.25, 0.25), buffer=0.0):
    u = np.asarray(shift)
    coords = np.asarray(sites, dtype=float) + u
    if kind == "torus":
        dom = Domain.torus(*extents)
    else:
        dom = Domain.window(*extents, buffer=buffer)
    return PointPattern(dom, coords, {"grid_shift": tuple(shift)})


def test_next_row_examples():
    pat = grid_pattern([[0, 0], [1, 1], [1, 2], [2, 0]], (3, 3), shift=(0.0, 0.0))
    sm = eval_next_row(pat)
    assert sm.image[0] == 1  # min row >= 0 in column 1
    assert sm.image[2] == 3  # cyclic wrap, column 2 holds only row 0


def test_next_row_full_grid_is_row_translation():
    pat = generate(GenSpec("bernoulli_grid", Domain.torus(5, 5), seed=1, p=1.0))
    sm = eval_next_row(pat)
    u = np.asarray(pat.metadata["grid_shift"])
    lat = np.rint(pat.coords - u).astype(int)
    for i in range(len(pat)):
        j = sm.image[i]
        assert lat[j, 0] == (lat[i, 0] + 1) % 5
        assert lat[j, 1] == lat[i, 1]


def test_next_row_column_increment_always():
    pat = generate(GenSpec("bernoulli_grid", Domain.torus(12, 12), seed=13, p=0.4))
    sm = eval_next_row(pat)
    u = np.asarray(pat.metadata["grid_shift"])
    lat = np.rint(pat.coords - u).astype(int)
    for i in np.flatnonzero(~sm.censored):
        assert lat[sm.image[i], 0] == (lat[i, 0] + 1) % 12


def test_next_row_empty_column_censors():
    pat = grid_pattern([[0, 0], [2, 1]], (3, 3), shift=(0.0, 0.0))
    sm = eval_next_row(pat)
    assert sm.censored[0]  # column 1 is empty


def test_next_row_window_top_censors():
    pat = grid_pattern([[0, 2], [1, 1]], (4.0, 4.0), kind="window", shift=(0.5, 0.5))
    sm = eval_next_row(pat)
    assert sm.censored[0]  # no row >= 2 in column 1, no wrap on a window


@pytest.mark.parametrize(
    "spec",
    [
        GenSpec("bernoulli_grid", Domain.torus(24, 30), seed=39, p=0.5),
        GenSpec("bernoulli_grid", Domain.torus(30, 20), seed=39, p=0.05),
        GenSpec("bernoulli_grid", Domain.window(24, 30), seed=39, p=0.5),
        GenSpec("bernoulli_grid", Domain.window(30, 20), seed=39, p=0.05),
        GenSpec("bernoulli_grid", Domain.torus(6, 7, 5), seed=39, p=0.3),
    ],
    ids=["torus", "torus_sparse", "window", "window_sparse", "torus_3d"],
)
def test_next_row_matches_brute_force(spec):
    pat = generate(spec)
    sm = eval_next_row(pat)
    ref = brute_next_row_image(pat)
    assert sm.image.tolist() == [-1 if j is None else j for j in ref]
    assert sm.censored.tolist() == [j is None for j in ref]
    # the cases reach the row wrap (torus) and empty columns (sparse)
    if spec.domain.kind == "torus":
        lat = np.rint(pat.coords - np.asarray(pat.metadata["grid_shift"])).astype(int)
        ok = ~sm.censored
        assert np.any(lat[sm.image[ok], 1] < lat[ok, 1])
    if spec.p < 0.1:
        assert sm.censored.any()


def test_next_row_requires_grid():
    pat = PointPattern(Domain.torus(5, 5), [[1.0, 1.0]])
    with pytest.raises(ConfigError):
        eval_next_row(pat)


# ---------------------------------------------------------------- condenser


def test_condenser_marks_examples():
    pat = PointPattern(Domain.window(10.0), [[0.0], [0.5], [3.0]])
    marks, censored = condenser_marks(pat, 1.0)
    assert marks.tolist() == [2, 2, 1]
    sm = eval_condenser(pat)
    assert sm.censored[2]  # nobody with mark 2 to the right of 3.0


def test_condenser_isolated_mark():
    pat = PointPattern(Domain.window(100.0, 100.0), [[50.0, 50.0], [90.0, 90.0]])
    marks, _ = condenser_marks(pat, 1.0)
    assert marks.tolist() == [1, 1]


@pytest.mark.parametrize(
    "domain",
    [
        Domain.window(20, 20, buffer=2.0),
        Domain.window(60.0, buffer=2.0),
        Domain.torus(60.0),
        Domain.torus(20, 20),
    ],
    ids=["window_2d", "window_1d", "torus_1d", "torus_2d"],
)
def test_condenser_marks_match_brute_force(domain):
    pat = generate(GenSpec("poisson", domain, seed=33, intensity=0.8))
    marks, _ = condenser_marks(pat, 1.0)
    assert marks.tolist() == brute_condenser_marks(pat, 1.0)


# marks 1 (isolated), 2 (three pairs and the ends of a triple) and 3: the
# triple's middle point is alone in its class, and every mark-2 point
# searches it
ONE_POINT_ABOVE = window_pattern(
    [[3, 3], [5, 12], [9, 6], [14, 15], [16, 4], [11, 17]]
    + [[4, 8], [4.5, 8], [12, 10], [12.6, 10.3], [15, 9], [15, 9.7]]
    + [[7, 14], [7.8, 14], [8.6, 14]],
    extents=(20.0, 20.0),
    buffer=2.0,
)


@pytest.mark.parametrize("metric", ["euclidean", "first_coordinate"])
@pytest.mark.parametrize(
    "spec",
    [
        GenSpec("poisson", Domain.window(300.0, buffer=2.0), seed=35, intensity=0.8),
        GenSpec("poisson", Domain.window(16, 16, buffer=2.0), seed=36, intensity=1.0),
        # unit lattice: exact distance ties between marks and between candidates
        GenSpec("bernoulli_grid", Domain.window(20, 20, buffer=2.0), seed=37, p=0.6),
        GenSpec("poisson", Domain.window(7, 7, 7, buffer=2.0), seed=38, intensity=1.0),
        ONE_POINT_ABOVE,
    ],
    ids=["window_1d", "window_2d", "grid_window_2d", "window_3d", "one_point_above"],
)
def test_condenser_matches_brute_force(spec, metric):
    pat = spec if isinstance(spec, PointPattern) else generate(spec)
    sm = eval_condenser(pat, 1.0, metric)
    image, censored = brute_condenser_image(pat, 1.0, metric)
    assert (~sm.censored).any()
    assert sm.image.tolist() == image
    assert sm.censored.tolist() == censored


def test_one_point_above_is_alone_in_its_class():
    marks, censored = condenser_marks(ONE_POINT_ABOVE, 1.0)
    assert not censored.any()
    assert np.bincount(marks).tolist() == [0, 6, 8, 1]


def test_condenser_image_has_next_mark():
    pat = generate(
        GenSpec("poisson", Domain.window(1000.0, buffer=2.0), seed=34, intensity=0.5)
    )
    sm = eval_condenser(pat)
    marks, _ = condenser_marks(pat, 1.0)
    ok = ~sm.censored
    assert np.all(marks[sm.image[ok]] == marks[ok] + 1)
    assert np.all(pat.coords[sm.image[ok], 0] > pat.coords[ok, 0])


def test_condenser_first_coordinate_metric():
    # x is mark 1; the two mark-2 pairs sit at (6, 18)/(6.5, 18) and
    # (12, 10)/(12.5, 10): nearest ahead is (12, 10) in the plane but
    # (6, 18) by first coordinate
    pat = PointPattern(
        Domain.window(30.0, 30.0),
        [[5.0, 10.0], [6.0, 18.0], [6.5, 18.0], [12.0, 10.0], [12.5, 10.0]],
    )
    eu = eval_condenser(pat, 1.0, "euclidean")
    fc = eval_condenser(pat, 1.0, "first_coordinate")
    assert eu.image[0] == 3
    assert fc.image[0] == 1


def test_condenser_requires_window():
    pat = PointPattern(Domain.torus(10.0), [[1.0]])
    with pytest.raises(ConfigError):
        eval_condenser(pat)


# ------------------------------------------------------- multitype strip


def cluster_pattern(seed=21):
    spec = GenSpec(
        "poisson_cluster",
        Domain.window(30, 30, buffer=2.0),
        seed=seed,
        parent_intensity=0.05,
    )
    return generate(spec)


def test_multitype_children_map_to_parent():
    pat = cluster_pattern()
    sm = eval_multitype_strip(pat)
    parent = np.asarray(pat.metadata["cluster_parent"])
    is_parent = np.asarray(pat.metadata["cluster_is_parent"]).astype(bool)
    kids = ~is_parent & ~sm.censored
    assert np.array_equal(sm.image[kids], parent[kids])


def test_multitype_parents_strip_within_type():
    pat = cluster_pattern()
    sm = eval_multitype_strip(pat)
    ptype = np.asarray(pat.metadata["cluster_type"])
    is_parent = np.asarray(pat.metadata["cluster_is_parent"]).astype(bool)
    for i in np.flatnonzero(is_parent & ~sm.censored):
        j = sm.image[i]
        assert is_parent[j]
        assert ptype[j] == ptype[i]


def test_multitype_unique_type_parent_is_self_or_censored():
    pat = PointPattern(
        Domain.window(20, 20, buffer=1.0),
        [[5.0, 10.0], [5.5, 10.8]],
        {
            "cluster_parent": np.array([0, 0]),
            "cluster_type": np.array([1, 1]),
            "cluster_is_parent": np.array([1, 0]),
        },
    )
    sm = eval_multitype_strip(pat)
    assert sm.image[0] == 0 or sm.censored[0]
    assert sm.image[1] == 0


def test_multitype_strip_matches_brute_force():
    pat = cluster_pattern()
    sm = eval_multitype_strip(pat)
    image, censored = brute_multitype_strip_map(pat)
    assert sm.image.tolist() == image
    assert sm.censored.tolist() == censored


def test_multitype_strip_matches_brute_force_on_quarter_grid():
    # two types of parents on bucket and band edges, offset by 2**40
    pat = quarter_grid(2.0**40, 3, typed=True)
    sm = eval_multitype_strip(pat)
    image, censored = brute_multitype_strip_map(pat)
    assert sm.image.tolist() == image
    assert sm.censored.tolist() == censored


def test_multitype_requires_annotations():
    pat = PointPattern(Domain.window(10, 10), [[1.0, 1.0]])
    with pytest.raises(ConfigError):
        eval_multitype_strip(pat)


# ------------------------------------------------------- map invariants


def test_shiftmap_serialization_roundtrip():
    text = ShiftMap(np.array([1, 0, -1])).to_json(decimal_table(3))
    assert json.loads(text) == [
        {"id": 0, "image": 1, "censored": False},
        {"id": 1, "image": 0, "censored": False},
        {"id": 2, "image": None, "censored": True},
    ]


def _dict_rows_json(sm):
    return json.dumps(
        [
            {
                "id": int(i),
                "image": (None if sm.censored[i] else int(sm.image[i])),
                "censored": bool(sm.censored[i]),
            }
            for i in range(len(sm))
        ]
    )


WRITER_MAPS = [
    ShiftMap(np.zeros(0, np.int64)),
    ShiftMap(np.array([0])),
    ShiftMap(np.array([-1, -1, -1])),
    ShiftMap(np.array([3, -1, 1, 3, -1, 12, 0, 0, 9, 9, 2, 0, 11])),
]


@pytest.mark.parametrize("sm", WRITER_MAPS, ids=["empty", "fixed", "all_censored", "mixed"])
def test_shiftmap_json_bytes_and_shuffled_roundtrip(sm):
    assert sm.to_json(decimal_table(len(sm))) == _dict_rows_json(sm)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(0, 60),
    role=st.sampled_from([None, "f_perp", 'a "quoted" role']),
)
def test_json_rows_equals_dict_rows(data, n, role):
    """A random partial map's rows, with or without a role tail, are
    json.dumps of the dict rows, from a table of n or more."""
    image = data.draw(st.lists(st.integers(-1, n - 1), min_size=n, max_size=n))
    decimals = decimal_table(n + data.draw(st.integers(0, 3)))
    rows = [
        {"id": i, "image": None if v < 0 else v, "censored": v < 0} for i, v in enumerate(image)
    ]
    tail = ""
    if role is not None:
        tail = f', "role": {json.dumps(role)}'
        rows = [{**row, "role": role} for row in rows]
    assert json_rows(np.array(image, dtype=np.int64), decimals, tail) == json.dumps(rows)


def test_json_rows_refuses_a_short_table():
    with pytest.raises(ValueError):
        json_rows(np.array([1, 0]), decimal_table(1))


@pytest.mark.parametrize(
    "image", [[1, 0, -5], [1, 0, 3], [[1, 0], [0, 1]]], ids=["below_-1", "id_N", "2d"]
)
def test_shiftmap_rejects_a_malformed_image(image):
    with pytest.raises(ConfigError):
        ShiftMap(np.array(image))


def test_flow_adaptedness_on_torus():
    rng = np.random.default_rng(5)
    cases = [
        (GenSpec("poisson", Domain.torus(20, 20), seed=35, intensity=1.0), "mnn"),
        (GenSpec("bernoulli_grid", Domain.torus(15, 15), seed=36, p=0.5), "next_row"),
    ]
    for spec, kind in cases:
        pat = generate(spec)
        base = evaluate(pat, kind)
        for _ in range(4):
            t = rng.random(2) * np.asarray(pat.domain.extents)
            moved = evaluate(translate(pat, t), kind)
            assert np.array_equal(base.image, moved.image)
            assert np.array_equal(base.censored, moved.censored)


def test_censoring_monotone_in_buffer():
    base = generate(
        GenSpec("poisson", Domain.window(30, 30, buffer=1.0), seed=37, intensity=1.0)
    )
    for kind in ("strip", "mnn"):
        prev: set[int] = set()
        for buf in (1.0, 2.0, 4.0):
            pat = PointPattern(
                Domain.window(30, 30, buffer=buf), base.coords, dict(base.metadata)
            )
            sm = evaluate(pat, kind)
            cur = set(np.flatnonzero(sm.censored).tolist())
            assert prev <= cur
            prev = cur


def test_shift_kind_validation():
    with pytest.raises(ConfigError):
        ShiftKind("unknown")
    with pytest.raises(ConfigError):
        ShiftKind("condenser", ball_radius=-1.0)
    with pytest.raises(ConfigError):
        ShiftKind("condenser", condenser_metric="manhattan")
