import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    brute_cycle,
    brute_f_perp,
    brute_rls_rank,
    brute_senior_interval,
    groups,
    random_map_pattern,
    translate,
)

from foliate.foliation import canonical, foliate
from foliate.generators import GenSpec, generate
from foliate.palm import Realization, SeniorIntervalKernel, relative_intensity
from foliate.patterns import ConfigError, Domain
from foliate.shifts import ShiftMap, decimal_table, evaluate
from foliate.stable import (
    _preorder,
    build_rls_order,
    build_stable_maps,
    delta,
    foil_cycles,
    foil_windings,
    stable_to_json,
)

ORACLE_CASES = {
    "grid_torus_next_row": (
        GenSpec("bernoulli_grid", Domain.torus(24, 30), seed=71, p=0.5),
        "next_row",
    ),
    "window_strip": (
        GenSpec("poisson", Domain.window(30, 30, buffer=3.0), seed=72, intensity=1.0),
        "strip",
    ),
    "window_condenser": (
        GenSpec("poisson", Domain.window(1200.0, buffer=2.0), seed=73, intensity=0.5),
        "condenser",
    ),
    "torus_mnn": (
        GenSpec("poisson", Domain.torus(25, 25), seed=74, intensity=1.0),
        "mnn",
    ),
    "window_mnn": (
        GenSpec("poisson", Domain.window(30, 30, buffer=3.0), seed=77, intensity=1.0),
        "mnn",
    ),
    # mnn foils are singletons; a random map on a Poisson torus exercises
    # float coordinates taken modulo the extents
    "torus_random_map": (
        GenSpec("poisson", Domain.torus(15, 15), seed=75, intensity=1.0),
        None,
    ),
    # a path of 300 nodes below a 2-cycle, and a star: deep and wide trees
    "torus_chain_and_star": (
        GenSpec("poisson", Domain.torus(25, 25), seed=76, intensity=1.0),
        "chain_and_star",
    ),
}


def chain_and_star(n):
    """0 <-> 1 a cycle, i -> i - 1 for i in 2..301, 302 a fixed point and
    every later node its son."""
    image = np.full(n, 302, dtype=np.int64)
    image[:302] = np.r_[1, np.arange(301)]
    return image


def oracle_case(case):
    spec, shift = ORACLE_CASES[case]
    pat = generate(spec)
    if shift is None:
        image = np.random.default_rng(75).integers(0, len(pat), len(pat))
    elif shift == "chain_and_star":
        image = chain_and_star(len(pat))
    else:
        return pat, evaluate(pat, shift)
    return pat, ShiftMap(image)

EX_IMAGE = [1, 2, 1, 1]  # a -> b, b -> c, c -> b, d -> b with lex a < b < c < d


def make_case(image):
    rng = np.random.default_rng(0)
    pat = random_map_pattern(rng, len(image))
    sm = ShiftMap(np.asarray(image, np.int64))
    return pat, sm, foliate(pat, sm)


# ------------------------------------------------------------------ rls


def test_rls_example_ranks():
    # cycle (b, c) anchored at b; b's hanging sons are a and d in lex order
    pat, sm, fol = make_case(EX_IMAGE)
    rls = build_rls_order(pat, sm, fol)
    assert rls.rank.tolist() == [1, 0, 3, 2]  # b=0, a=1, d=2, c=3


def test_rls_pure_cycle_follows_cycle_order():
    pat, sm, fol = make_case([1, 2, 0])
    rls = build_rls_order(pat, sm, fol)
    anchor = fol.cycle_nodes[fol.cycle_offsets[0]]
    assert rls.rank[anchor] == 0
    assert sorted(rls.rank.tolist()) == [0, 1, 2]


def test_rls_singleton():
    pat, sm, fol = make_case([0])
    rls = build_rls_order(pat, sm, fol)
    assert rls.rank.tolist() == [0]


def test_rls_empty_pattern():
    pat = generate(GenSpec("poisson", Domain.window(3.0), seed=1, intensity=0.01))
    sm = evaluate(pat, "condenser")
    st_maps = build_stable_maps(pat, sm, foliate(pat, sm))
    assert len(pat) == 0
    assert st_maps.rls.rank.tolist() == st_maps.f_perp.tolist() == []
    assert st_maps.h_dense.tolist() == []


@pytest.mark.parametrize(
    "roots, fathers",
    [
        # 2 and 3 are each other's son, 4 hangs below them: none is reachable
        ([0], [-1, 0, 3, 2, 3]),
        # the root 0 is also the son of 1
        ([0], [1, 0, 1]),
    ],
)
def test_preorder_rejects_cycles_of_sons(roots, fathers):
    fathers = np.asarray(fathers)
    sons = np.flatnonzero(fathers >= 0)
    sons = sons[np.argsort(fathers[sons], kind="stable")]
    indptr = np.r_[0, np.cumsum(np.bincount(fathers[sons], minlength=len(fathers)))]
    with pytest.raises(ConfigError):
        _preorder(np.asarray(roots), indptr, sons)


def test_rls_ranks_are_component_permutations():
    pat, sm, fol = make_case([1, 2, 1, 1, 5, 4, 4])
    rls = build_rls_order(pat, sm, fol)
    for members in groups(fol.component_id, fol.component_size):
        assert sorted(rls.rank[members].tolist()) == list(range(len(members)))


# ------------------------------------------------------------- f_perp


def test_f_perp_cycles_through_foil_in_lex_order():
    pat, sm, fol = make_case(EX_IMAGE)
    st_maps = build_stable_maps(pat, sm, fol)
    # foil {a, c, d} = ids {0, 2, 3}: 0 -> 2 -> 3 -> 0
    assert st_maps.f_perp[0] == 2
    assert st_maps.f_perp[2] == 3
    assert st_maps.f_perp[3] == 0
    assert st_maps.f_perp[1] == 1  # singleton foil


def test_delta_examples():
    pat, sm, fol = make_case(EX_IMAGE)
    st_maps = build_stable_maps(pat, sm, fol)
    assert delta(st_maps, fol, 0, 0) == 0
    assert delta(st_maps, fol, 0, 3) == 2
    assert delta(st_maps, fol, 3, 0) == 1
    with pytest.raises(ConfigError):
        delta(st_maps, fol, 0, 1)


def test_delta_sign_consistency_exhaustive():
    pat, sm, fol = make_case([1, 2, 1, 1, 1])
    st_maps = build_stable_maps(pat, sm, fol)
    for members in groups(fol.foil_id, fol.foil_size):
        m = len(members)
        for x in members:
            for y in members:
                dxy = delta(st_maps, fol, int(x), int(y))
                dyx = delta(st_maps, fol, int(y), int(x))
                assert (dxy + dyx) % m == 0


def test_h_dense_is_component_cycle():
    pat, sm, fol = make_case([1, 2, 1, 1])
    st_maps = build_stable_maps(pat, sm, fol)
    assert sorted(brute_cycle(st_maps.h_dense.tolist(), 0)) == [0, 1, 2, 3]
    # composing |C| times is the identity
    z = np.arange(4)
    for _ in range(4):
        z = st_maps.h_dense[z]
    assert np.array_equal(z, np.arange(4))


@st.composite
def functional_maps(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    return [draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(n)]


@given(functional_maps())
@settings(max_examples=200, deadline=None)
def test_stable_maps_orbit_properties(image):
    pat, sm, fol = make_case(image)
    st_maps = build_stable_maps(pat, sm, fol)
    n = len(image)
    assert np.array_equal(np.sort(st_maps.f_perp), np.arange(n))
    assert np.array_equal(np.sort(st_maps.h_dense), np.arange(n))
    foils = groups(fol.foil_id, fol.foil_size)
    comps = groups(fol.component_id, fol.component_size)
    f_perp, h_dense = st_maps.f_perp.tolist(), st_maps.h_dense.tolist()
    for x in range(n):
        assert set(brute_cycle(f_perp, x)) == set(foils[fol.foil_id[x]].tolist())
        assert set(brute_cycle(h_dense, x)) == set(comps[fol.component_id[x]].tolist())


@given(functional_maps())
@settings(max_examples=100, deadline=None)
def test_f_perp_delta_identity(image):
    pat, sm, fol = make_case(image)
    st_maps = build_stable_maps(pat, sm, fol)
    foils = groups(fol.foil_id, fol.foil_size)
    for x in range(len(image)):
        for y in foils[fol.foil_id[x]]:
            k = delta(st_maps, fol, x, int(y))
            z = x
            for _ in range(k):
                z = int(st_maps.f_perp[z])
            assert z == int(y)


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_stable_maps_match_brute_force(case):
    pat, sm = oracle_case(case)
    fol = foliate(pat, sm)
    image = sm.image.tolist()
    st_maps = build_stable_maps(pat, sm, fol)
    rank = brute_rls_rank(pat, image)
    assert st_maps.rls.rank.tolist() == rank
    assert st_maps.f_perp.tolist() == brute_f_perp(pat, image)
    h = list(range(len(image)))
    for members in groups(fol.component_id, fol.component_size):
        members = sorted(members.tolist(), key=rank.__getitem__)
        for a, b in zip(members, members[1:] + members[:1]):
            h[a] = b
    assert st_maps.h_dense.tolist() == h


@pytest.mark.parametrize("case", ["grid_torus_next_row", "window_strip"])
def test_foil_order_follows_f_perp(case):
    pat, sm = oracle_case(case)
    fol = foliate(pat, sm)
    st_maps = build_stable_maps(pat, sm, fol)
    for members in groups(fol.foil_id, fol.foil_size):
        pos = st_maps.foil_pos[members]
        assert sorted(pos.tolist()) == list(range(len(members)))
        ordered = members[np.argsort(pos)].tolist()
        assert brute_cycle(st_maps.f_perp.tolist(), ordered[0]) == ordered


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_foil_cycles_of_whole_foils_match_all_points(case):
    pat, sm = oracle_case(case)
    fol = canonical(pat, foliate(pat, sm))
    rng = np.random.default_rng(78)
    st_maps = build_stable_maps(pat, sm, fol)
    for picked in (
        np.arange(fol.n_foils),
        np.arange(0, fol.n_foils, 3),
        rng.choice(fol.n_foils, size=min(5, fol.n_foils), replace=False),
        np.zeros(0, dtype=np.int64),
    ):
        ids = np.flatnonzero(np.isin(fol.foil_id, picked))
        f_perp, pos = foil_cycles(pat, fol, ids)
        assert f_perp.tolist() == st_maps.f_perp[ids].tolist()
        assert pos.tolist() == st_maps.foil_pos[ids].tolist()


def whole_map_walk(r, st_maps, x, n=None):
    """The walk estimate read from the whole pattern's stable maps."""
    fol = r.foliation
    m = int(fol.foil_size[fol.foil_id[x]])
    steps = m if n is None else min(n, m)
    members = np.flatnonzero(fol.foil_id == fol.foil_id[x])
    walk = members[np.argsort((st_maps.foil_pos[members] - st_maps.foil_pos[x]) % m)[:steps]]
    image = r.shift_map.image
    return int(delta(st_maps, fol, image[walk], image[st_maps.f_perp[walk]]).sum()) / steps


@pytest.mark.parametrize("case", ["grid_torus_next_row", "window_strip", "window_mnn"])
def test_walk_on_two_foils_matches_whole_map_walk(case):
    pat, sm = oracle_case(case)
    r = Realization(pat, sm, foliate(pat, sm))
    st_maps = build_stable_maps(pat, sm, r.foliation)
    fol = r.foliation
    fids = np.flatnonzero(fol.senior_foil >= 0)
    assert fids.size
    if case == "window_mnn":  # a non-censored fixed point: its own senior foil
        assert np.any(fol.senior_foil[fids] == fids)
    foils = groups(fol.foil_id, fol.foil_size)
    for f in fids:
        members = foils[f]
        for x in {int(members[0]), int(members[-1])}:
            for n in (None, 1, 2):
                want = whole_map_walk(r, st_maps, x, n)
                assert relative_intensity(r, x, n=n, mode="walk") == want


# ----------------------------------------------------- senior interval


def check_senior_interval(pat, sm):
    """Kernel sides, windings, every pair's step count on foils of at most
    30 members, and walks shorter than the foil, against the oracle."""
    fol = foliate(pat, sm)
    r = Realization(pat, sm, fol)
    st_maps = r.stable
    want = brute_senior_interval(pat, sm.image.tolist())
    kernel = SeniorIntervalKernel()
    assert kernel.plus(r).tolist() == [float(v) for v in want["plus"]]
    assert kernel.minus(r).tolist() == [float(v) for v in want["minus"]]
    fids, windings, m_plus = foil_windings(sm, fol, st_maps)
    foils = groups(fol.foil_id, fol.foil_size)
    got = {int(foils[f][0]): (w, m) for f, w, m in zip(fids, windings, m_plus)}
    assert got == want["winding"]
    pos, size = want["pos"], want["size"]
    for f, members in enumerate(foils):
        if len(members) > 30:
            continue
        xs, ys = np.meshgrid(members, members)
        steps = [(pos[y] - pos[x]) % size[x] for x, y in zip(xs.flat, ys.flat)]
        assert delta(st_maps, fol, xs, ys).ravel().tolist() == steps
        x = int(members[-1])
        if fol.senior_foil[f] < 0:
            continue
        walk = sorted(members.tolist(), key=lambda z: (pos[z] - pos[x]) % size[x])
        for n in sorted({1, 2, len(members) - 1, len(members)} - {0}):
            mean = sum(want["plus"][z] for z in walk[:n]) / n
            assert relative_intensity(r, x, n=n, mode="walk") == mean


@pytest.mark.parametrize(
    "case", ["grid_torus_next_row", "window_strip", "window_condenser"]
)
def test_senior_interval_matches_brute_force(case):
    check_senior_interval(*oracle_case(case))


@st.composite
def partial_maps(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    return [draw(st.integers(min_value=-1, max_value=n - 1)) for _ in range(n)]


@given(partial_maps())
@example(EX_IMAGE)
@settings(max_examples=200, deadline=None)
def test_senior_interval_random_maps(image):
    pat, sm, _ = make_case(image)
    check_senior_interval(pat, sm)


def test_stable_maps_flow_adapted_on_torus():
    rng = np.random.default_rng(11)
    spec = GenSpec("bernoulli_grid", Domain.torus(12, 12), seed=61, p=0.5)
    pat = generate(spec)
    sm = evaluate(pat, "next_row")
    fol = foliate(pat, sm)
    st0 = build_stable_maps(pat, sm, fol)
    for _ in range(3):
        t = rng.random(2) * 12.0
        p1 = translate(pat, t)
        m1 = evaluate(p1, "next_row")
        f1 = foliate(p1, m1)
        st1 = build_stable_maps(p1, m1, f1)
        assert np.array_equal(st0.f_perp, st1.f_perp)
        assert np.array_equal(st0.h_dense, st1.h_dense)


def test_order_preservation_on_realizations(mnn_realizations, next_row_realizations):
    for r in (mnn_realizations[0], next_row_realizations[0]):
        assert (foil_windings(r.shift_map, r.foliation, r.stable)[1] <= 1).all()


def test_order_preservation_on_censored_condenser():
    spec = GenSpec("poisson", Domain.window(2000.0, buffer=2.0), seed=62, intensity=0.5)
    pat = generate(spec)
    sm = evaluate(pat, "condenser")
    fol = foliate(pat, sm)
    st_maps = build_stable_maps(pat, sm, fol)
    assert (foil_windings(sm, fol, st_maps)[1] <= 1).all()


def test_stable_serialization():
    pat, sm, fol = make_case(EX_IMAGE)
    st_maps = build_stable_maps(pat, sm, fol)
    rows = json.loads(stable_to_json(st_maps.f_perp, "f_perp", decimal_table(len(pat))))
    assert rows[0]["role"] == "f_perp"
    assert all(not row["censored"] for row in rows)


@pytest.mark.parametrize(
    "table, role",
    [([], "f_perp"), ([0], "h_dense"), ([2, 0, 1, 4, 3], "f_perp"), ([1, 0], 'a "quoted" role')],
    ids=["empty", "fixed", "permutation", "escaped_role"],
)
def test_stable_json_bytes(table, role):
    table = np.asarray(table, dtype=np.int64)
    rows = [
        {"id": int(i), "image": int(table[i]), "censored": False, "role": role}
        for i in range(len(table))
    ]
    assert stable_to_json(table, role, decimal_table(len(table))) == json.dumps(rows)


def test_foil_order_window_is_plain_lex():
    pat, sm, fol = make_case(EX_IMAGE)
    st_maps = build_stable_maps(pat, sm, fol)
    assert st_maps.foil_pos[[0, 2, 3]].tolist() == [0, 1, 2]
