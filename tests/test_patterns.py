import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import _plain_distance, _relative, distance, translate

from foliate.generators import GenSpec, generate
from foliate.patterns import (
    ConfigError,
    Domain,
    PatternError,
    PointPattern,
    crop,
    displacement,
    distances_to,
    lattice_coords,
    row_ranks,
)


def test_distance_identity():
    for dom in (Domain.torus(10, 10), Domain.window(10, 10)):
        assert distance((0.0, 0.0), (0.0, 0.0), dom) == 0.0


def test_distance_agrees_with_distances_to_on_grid_pairs():
    # exact ties must not depend on which metric function is asked
    pat = generate(GenSpec("bernoulli_grid", Domain.torus(20, 20), seed=0, p=0.5))
    coords = pat.coords
    for j in range(len(pat)):
        row = distances_to(coords, coords[j], pat.domain)
        assert [distance(c, coords[j], pat.domain) for c in coords] == row.tolist()


def _coordinate(e: float, torus: bool):
    """One coordinate in the domain: 0, one ulp below the extent, a lattice
    point, or any float inside (the extent itself too, on a window)."""
    return st.one_of(
        st.just(0.0),
        st.just(float(np.nextafter(e, 0.0))),
        st.integers(0, int(np.ceil(e)) - 1).map(float),
        st.floats(0.0, e, exclude_max=torus),
    )


@st.composite
def point_rows(draw):
    dim = draw(st.integers(1, 3))
    torus = draw(st.booleans())
    ext = draw(
        st.lists(
            st.one_of(st.sampled_from([1.0, 3.0, 4.0, 7.5]), st.floats(0.25, 1e6)),
            min_size=dim,
            max_size=dim,
        )
    )
    dom = Domain.torus(*ext) if torus else Domain.window(*ext)
    rows = draw(st.integers(1, 6))
    a, b = (
        [[draw(_coordinate(e, torus)) for e in ext] for _ in range(rows)] for _ in range(2)
    )
    return dom, np.array(a), np.array(b)


@settings(max_examples=300, deadline=None)
@given(point_rows())
def test_distances_to_is_the_plain_distance_bit_for_bit(case):
    # per axis, squares summed in axis order, and no `% extent` on a torus:
    # the scalar oracle's bits in one to three dimensions, so lattice ties
    # stay ties whichever of the metric functions is asked
    dom, a, b = case
    want = np.array([_plain_distance(x, y, dom) for x, y in zip(a, b)])
    assert distances_to(a, b, dom).tobytes() == want.tobytes()
    assert np.array([distance(x, y, dom) for x, y in zip(a, b)]).tobytes() == want.tobytes()
    # one point against every row, as the domain center is asked
    one = np.array([_plain_distance(x, b[0], dom) for x in a])
    assert distances_to(a, b[0], dom).tobytes() == one.tobytes()


def test_distance_torus_wraps():
    assert distance((0.0, 0.0), (9.0, 0.0), Domain.torus(10, 10)) == 1.0


def test_distance_window_euclidean():
    assert distance((0.0, 0.0), (3.0, 4.0), Domain.window(10, 10)) == 5.0


def test_distance_dimension_mismatch():
    with pytest.raises(ConfigError):
        distance((0.0, 0.0), (1.0,), Domain.torus(10, 10))


def test_domain_validation():
    with pytest.raises(ConfigError):
        Domain.window(10, 10, buffer=5.0)
    with pytest.raises(ConfigError):
        Domain.torus(-1.0)
    with pytest.raises(ConfigError):
        Domain("weird", (1.0,))


def test_triangle_inequality_bulk():
    rng = np.random.default_rng(42)
    for dom in (Domain.torus(7, 11, 5), Domain.window(7, 11, 5)):
        ext = np.asarray(dom.extents)
        pts = rng.random((10_000, 3, 3)) * ext
        for a, b, c in pts[:: len(pts) // 2000]:
            ab = distance(a, b, dom)
            bc = distance(b, c, dom)
            ac = distance(a, c, dom)
            assert ac <= ab + bc + 1e-9
    # vectorized full pass for the torus metric
    dom = Domain.torus(7, 11, 5)

    def dvec(p, q):
        d = np.abs(p - q) % ext
        d = np.minimum(d, ext - d)
        return np.sqrt((d * d).sum(axis=1))

    a, b, c = pts[:, 0], pts[:, 1], pts[:, 2]
    assert np.all(dvec(a, c) <= dvec(a, b) + dvec(b, c) + 1e-9)


def test_torus_distance_invariant_under_extent_shifts():
    dom = Domain.torus(6.0, 9.0)
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = rng.random(2) * np.array([6.0, 9.0])
        q = rng.random(2) * np.array([6.0, 9.0])
        base = distance(p, q, dom)
        shifted = p + np.array([6.0, 0.0])
        # lift outside the fundamental domain, metric must agree
        d = np.abs(shifted - q) % np.array([6.0, 9.0])
        d = np.minimum(d, np.array([6.0, 9.0]) - d)
        assert abs(np.sqrt((d * d).sum()) - base) < 1e-9


def test_pattern_rejects_duplicates():
    with pytest.raises(PatternError):
        PointPattern(Domain.window(5, 5), [[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(PatternError):
        PointPattern(Domain.window(5, 5), [[0.0, 1.0], [-0.0, 1.0]])


def test_grid_pattern_rejects_points_sharing_a_site():
    dom, meta = Domain.torus(100, 4), {"grid_shift": (0.5, 0.0)}
    assert len(PointPattern(dom, [[0.5, 1.0], [1.5, 1.0], [90.5, 1.0]], meta)) == 3
    with pytest.raises(PatternError):
        PointPattern(dom, [[0.5, 1.0], [0.5 + 1e-9, 1.0], [90.5, 1.0]], meta)


def test_row_ranks_match_unique_inverse():
    rng = np.random.default_rng(5)
    signs = rng.choice([-1.0, 1.0], size=(200, 2))
    cases = [
        rng.integers(0, 3, size=(200, 2)) * 0.5 * signs,  # ties, 0.0 and -0.0
        np.array([[0.0, 1.0], [-1.5, 2.0], [-0.0, 1.0], [0.0, -1.0]]),
        rng.integers(-4, 5, size=(300, 2)),  # int lattice rows
        rng.integers(0, 2, size=(100, 3)).astype(float),
        np.zeros((0, 2)),
    ]
    for rows in cases:
        expected = np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)
        assert np.array_equal(row_ranks(rows), expected)


@st.composite
def tied_rows(draw):
    """Rows over a few drawn values, so equal entries, equal rows and signed
    zeros are common."""
    pool = draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0]),
        min_size=1, max_size=4,
    ))
    n = draw(st.integers(min_value=0, max_value=40))
    d = draw(st.integers(min_value=1, max_value=4))
    cells = draw(st.lists(st.sampled_from(pool), min_size=n * d, max_size=n * d))
    return np.array(cells, dtype=float).reshape(n, d)


@given(tied_rows())
@settings(max_examples=300, deadline=None)
def test_row_ranks_match_unique_inverse_on_ties(rows):
    expected = np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)
    assert row_ranks(rows).tolist() == expected.tolist()
    ints = np.unique(rows, return_inverse=True)[1].reshape(rows.shape) - 2
    assert row_ranks(ints).tolist() == expected.tolist()


DISPLACEMENT_CASES = {
    "grid_torus": GenSpec("bernoulli_grid", Domain.torus(12, 9), seed=30, p=0.5),
    "poisson_torus": GenSpec("poisson", Domain.torus(10, 8), seed=31, intensity=1.0),
    "poisson_window": GenSpec(
        "poisson", Domain.window(10, 8, buffer=1.0), seed=32, intensity=1.0
    ),
    "grid_window": GenSpec("bernoulli_grid", Domain.window(12, 9), seed=33, p=0.5),
}


@pytest.mark.parametrize("case", sorted(DISPLACEMENT_CASES))
def test_displacement_matches_oracle(case):
    pat = generate(DISPLACEMENT_CASES[case])
    n = len(pat)
    assert n > 2
    ids = np.arange(n)
    per_id = np.random.default_rng(34).permutation(n)
    lattice = lattice_coords(pat)
    for ref in (0, n - 1, per_id):
        got = displacement(pat, ids, ref)
        refs = np.broadcast_to(ref, n)
        want = [list(_relative(pat, int(x), int(r))) for x, r in zip(ids, refs)]
        assert got.tolist() == want
        assert got.dtype == (np.float64 if lattice is None else np.int64)
    if case == "grid_torus":  # the exact ints wrap
        assert np.any(lattice[ids] < lattice[per_id])
        assert got.min() >= 0


def test_pattern_rejects_out_of_domain():
    with pytest.raises(PatternError):
        PointPattern(Domain.torus(5, 5), [[5.0, 1.0]])
    with pytest.raises(PatternError):
        PointPattern(Domain.window(5, 5), [[-0.1, 1.0]])


def test_pattern_point_accessors():
    pat = PointPattern(Domain.window(5, 5), [[1.0, 2.0], [3.0, 4.0]])
    assert len(pat) == 2


GOLDEN = (
    '{"dimension": 2, "domain": {"kind": "window", "extents": [5.0, 5.0], '
    '"buffer": 1.0}, "points": [[1.0, 2.0], [3.0, 4.5]]}'
)


def test_serialization_golden_bytes():
    pat = PointPattern(Domain.window(5, 5, buffer=1.0), [[1.0, 2.0], [3.0, 4.5]])
    assert pat.to_json() == GOLDEN
    again = PointPattern.from_json(GOLDEN)
    assert np.array_equal(again.coords, pat.coords)
    assert again.domain == pat.domain


def test_serialization_writes_each_coordinate_as_a_float():
    rng = np.random.default_rng(6)
    coords = np.r_[rng.random((50, 2)) * 5.0, [[-0.0, 0.1 + 0.2], [5.0, 1e-300]]]
    pat = PointPattern(Domain.window(5, 5), coords)
    points = json.dumps([[float(v) for v in row] for row in pat.coords])
    assert f'"points": {points}' in pat.to_json()
    assert np.array_equal(PointPattern.from_json(pat.to_json()).coords, pat.coords)


def test_integer_coordinates_load_as_floats_even_past_64_bits():
    text = GOLDEN.replace("[1.0, 2.0]", "[1, 2]").replace("5.0, 5.0", f"{2**70}, 5")
    text = text.replace("[3.0, 4.5]", f"[{2**64 + 2**12}, 4.5]")
    pat = PointPattern.from_json(text)
    assert pat.coords.dtype == float
    assert pat.coords.tolist() == [[1.0, 2.0], [float(2**64 + 2**12), 4.5]]


def test_serialization_field_order_is_fixed():
    pat = PointPattern(Domain.window(5, 5, buffer=1.0), [[1.0, 2.0]])
    keys = list(json.loads(pat.to_json()).keys())
    assert keys == ["dimension", "domain", "points"]


def test_serialization_roundtrip_metadata():
    meta = {"model": "bernoulli_grid", "grid_shift": (0.25, 0.75), "p": 0.5}
    pat = PointPattern(Domain.torus(4, 4), [[0.25, 0.75], [1.25, 2.75]], meta)
    again = PointPattern.from_json(pat.to_json())
    assert again.metadata["grid_shift"] == (0.25, 0.75)
    assert again.metadata["p"] == 0.5


def test_translate_wraps_and_updates_shift():
    meta = {"grid_shift": (0.25, 0.75)}
    pat = PointPattern(Domain.torus(4, 4), [[0.25, 3.75], [1.25, 2.75]], meta)
    moved = translate(pat, (3.0, 0.5))
    assert np.allclose(moved.coords[0], [3.25, 0.25])
    assert moved.metadata["grid_shift"] == (0.25, 0.25)
    with pytest.raises(ConfigError):
        translate(PointPattern(Domain.window(4, 4), [[1.0, 1.0]]), (1.0, 0.0))


def test_crop_recenters_and_remaps():
    pat = PointPattern(
        Domain.window(8, 8, buffer=1.0),
        [[1.0, 1.0], [4.0, 4.0], [3.0, 5.0]],
    )
    sub = crop(pat, 0.5)
    assert sub.domain.extents == (4.0, 4.0)
    assert len(sub) == 2
    assert np.allclose(sorted(sub.coords.tolist()), [[1.0, 3.0], [2.0, 2.0]])
