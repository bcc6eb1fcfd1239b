import dataclasses
import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_components,
    brute_cycle,
    brute_descendants,
    brute_foils,
    brute_structure,
    groups,
    random_map_pattern,
)

from foliate import foliation, stable
from foliate.foliation import (
    CLASS_FF,
    CLASS_IF,
    CLASS_II,
    CLASS_UNKNOWN,
    canonical,
    classify,
    foliate,
    ladder_diagnostic,
)
from foliate.generators import GenSpec, generate
from foliate.patterns import ConfigError, Domain, PointPattern
from foliate.shifts import ShiftMap, decimal_table, evaluate

# the running example: a -> b, b -> c, c -> b, d -> b  (ids 0..3)
EX_IMAGE = [1, 2, 1, 1]


def make_map(image):
    return ShiftMap(np.asarray(image, dtype=np.int64))


def make_fol(image):
    rng = np.random.default_rng(0)
    pat = random_map_pattern(rng, len(image))
    return pat, foliate(pat, make_map(image))


def cycles(fol):
    """Each component's cycle from its anchor, read from the columns; a
    dead-end tree's is empty."""
    parts = np.split(fol.cycle_nodes, fol.cycle_offsets[1:-1])
    return [tuple(p.tolist()[:length]) for p, length in zip(parts, fol.cycle_length.tolist())]


def foil_sets(fol):
    return frozenset(frozenset(m.tolist()) for m in groups(fol.foil_id, fol.foil_size))


def component_sets(labels):
    out = {}
    for i, c in enumerate(labels):
        out.setdefault(int(c), set()).add(i)
    return frozenset(frozenset(s) for s in out.values())


def fol_components(image):
    _, fol = make_fol(image)
    return component_sets(fol.component_id)


def test_build_components_example():
    assert fol_components(EX_IMAGE) == brute_components(EX_IMAGE)
    assert fol_components(EX_IMAGE) == frozenset({frozenset({0, 1, 2, 3})})


def test_build_components_two_cycles():
    image = [1, 0, 3, 2]
    assert fol_components(image) == brute_components(image)
    assert fol_components(image) == frozenset({frozenset({0, 1}), frozenset({2, 3})})


def test_build_components_identity():
    assert fol_components([0, 1, 2]) == brute_components([0, 1, 2])
    assert len(fol_components([0, 1, 2])) == 3
    _, fol = make_fol([0, 1, 2])
    assert sorted(fol.cycle_nodes.tolist()) == [0, 1, 2]


def test_find_cycles_example():
    _, fol = make_fol(EX_IMAGE)
    assert set(cycles(fol)[0]) == {1, 2}
    assert sorted(fol.cycle_nodes.tolist()) == [1, 2]
    assert fol.cycle_length[0] == 2
    assert fol.depth_to_cycle[0] == 1
    assert fol.depth_to_cycle[3] == 1
    assert fol.depth_to_cycle[1] == 0


def test_find_cycles_pure_cycle_and_fixed_point():
    _, fol = make_fol([1, 2, 0])
    assert fol.cycle_length[0] == 3
    assert np.all(fol.depth_to_cycle == 0)
    _, fol2 = make_fol([0])
    assert fol2.cycle_length[0] == 1


def test_foils_example_against_oracle():
    _, fol = make_fol(EX_IMAGE)
    assert foil_sets(fol) == brute_foils(EX_IMAGE)
    assert foil_sets(fol) == frozenset({frozenset({0, 2, 3}), frozenset({1})})


def test_foils_pure_cycle_singletons():
    _, fol = make_fol([1, 2, 3, 0])
    assert foil_sets(fol) == frozenset(frozenset({i}) for i in range(4))


def test_foils_star_with_loop():
    # a -> r, b -> r, r -> r: the fixed point shares iterates with its sons,
    # so the whole star is one foil; the brute-force oracle is authoritative
    image = [2, 2, 2]
    _, fol = make_fol(image)
    assert foil_sets(fol) == brute_foils(image)
    assert foil_sets(fol) == frozenset({frozenset({0, 1, 2})})
    assert fol.component_foils[0] == fol.cycle_length[0] == 1


def walk(image, m):
    """Orders 0..m of the descendant walk on ``image``, stepped by
    ``next_generation``: the images, d and l, one row per order."""
    image = np.asarray(image, dtype=np.int64)
    ids = np.arange(len(image))
    gens = [(ids, np.ones_like(ids), np.ones_like(ids))]
    for _ in range(m):
        gens.append(foliation.next_generation(image, gens[-1][0]))
    return [np.array(rows) for rows in zip(*gens)]


def test_next_generation_example():
    _, d, l = walk(EX_IMAGE, 2)
    assert d[1].tolist() == brute_descendants(EX_IMAGE, 1) == [0, 3, 1, 0]
    assert l[1][0] == 3  # l_1(a) = d_1(b)
    _, d_cycle, l_cycle = walk([1, 2, 0], 3)
    assert np.all(d_cycle[1:] == 1)
    assert np.all(l_cycle[1:] == 1)
    _, d_star, l_star = walk([2, 2, 2], 1)
    assert d_star[1].tolist() == [0, 0, 3]
    assert l_star[1][0] == 3


def test_descendant_sum_counts_defined_points():
    image = [1, 2, -1, 1]
    _, d, _ = walk(image, 3)
    for n in range(1, 4):
        defined = sum(1 for x in range(4) if _iter_ok(image, x, n))
        assert d[n].sum() == defined


def _iter_ok(image, x, n):
    for _ in range(n):
        if x < 0:
            return False
        x = image[x]
    return x >= 0


@st.composite
def functional_maps(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    return [draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(n)]


@given(functional_maps())
@settings(max_examples=300, deadline=None)
def test_foils_match_brute_force(image):
    pat, fol = make_fol(image)
    assert foil_sets(fol) == brute_foils(image)
    assert component_sets(fol.component_id) == brute_components(image)
    assert np.array_equal(fol.component_foils, fol.cycle_length)
    for cycle in cycles(fol):
        assert set(cycle) == set(brute_cycle(image, cycle[0]))


def assert_structure_matches_brute(pattern, image):
    fol = canonical(pattern, foliate(pattern, make_map(image)))
    want = brute_structure(pattern, list(image))
    assert fol.component_id.tolist() == want["component"]
    assert fol.depth_to_cycle.tolist() == want["depth"]
    assert fol.entry_position.tolist() == want["entry"]
    assert cycles(fol) == want["cycles"]
    assert fol.component_root.tolist() == want["roots"]
    assert fol.foil_key[fol.foil_id].tolist() == want["key"]
    foils = list(zip(fol.foil_component.tolist(), fol.foil_key.tolist()))
    assert sorted(foils) == sorted(want["senior"])
    senior = [None if s < 0 else foils[s] for s in fol.senior_foil.tolist()]
    assert senior == [want["senior"][f] for f in foils]
    return fol


@st.composite
def partial_maps(draw):
    n = draw(st.integers(min_value=0, max_value=14))
    return [draw(st.integers(min_value=-1, max_value=n - 1)) for _ in range(n)]


@given(partial_maps())
@settings(max_examples=300, deadline=None)
def test_structure_matches_brute_force_on_partial_maps(image):
    pat = random_map_pattern(np.random.default_rng(0), len(image))
    assert_structure_matches_brute(pat, image)


def _jump_all_rounds(ptr, val, op, rounds):
    """``foliation._jump`` without the convergence stop."""
    for _ in range(rounds):
        val = op(val, val[ptr])
        ptr = ptr[ptr]
    return ptr, val


def test_jump_stops_once_every_pointer_is_a_terminal():
    calls = []

    def add(a, b):
        calls.append(1)
        return a + b

    ptr, val = foliation._jump(np.array([1, 2, 2]), np.array([1, 1, 0]), add, 10)
    assert ptr.tolist() == [2, 2, 2] and val.tolist() == [2, 1, 0]
    assert len(calls) == 1  # the second round finds ptr[ptr] == ptr


@st.composite
def long_partial_maps(draw):
    # tails into cycles and dead ends, long enough for several rounds
    n = draw(st.integers(min_value=0, max_value=60))
    return [draw(st.integers(min_value=-1, max_value=n - 1)) for _ in range(n)]


@given(long_partial_maps())
@settings(max_examples=200, deadline=None)
def test_jump_stop_matches_all_rounds(image):
    # every caller of _jump returns the same arrays as with all its rounds
    image = np.asarray(image, dtype=np.int64)
    pat = random_map_pattern(np.random.default_rng(0), len(image))
    sm = make_map(image)

    def outputs():
        fol = foliate(pat, sm)
        rank = stable.build_rls_order(pat, sm, fol).rank
        return [*dataclasses.astuple(fol), *foliation._trees(image), rank]

    fast = outputs()
    with mock.patch.object(foliation, "_jump", _jump_all_rounds), mock.patch.object(
        stable, "_jump", _jump_all_rounds
    ):
        slow = outputs()
    for a, b in zip(fast, slow, strict=True):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("image", [[], [0], [-1], [-1] * 5, [1, 2, 0, -1, 3]])
def test_structure_matches_brute_force_on_edge_maps(image):
    pat = random_map_pattern(np.random.default_rng(0), len(image))
    assert_structure_matches_brute(pat, image)


def test_structure_matches_brute_force_on_poisson_torus_maps():
    # float step displacements; permutations give long cycles, and some
    # maps carry censored points
    rng = np.random.default_rng(7)
    for seed in range(40):
        pat = generate(GenSpec("poisson", Domain.torus(6, 6), seed=seed, intensity=1.0))
        n = len(pat)
        image = rng.permutation(n) if seed % 2 else rng.integers(0, n, size=n)
        if seed % 3 == 0:
            image[rng.random(n) < 0.2] = -1
        assert_structure_matches_brute(pat, image.tolist())


def test_structure_matches_brute_force_on_full_grid_next_row():
    # every cycle of next_row on a full grid torus is symmetric under
    # rotation, so the least id is the anchor
    pat = generate(GenSpec("bernoulli_grid", Domain.torus(30, 20), seed=3, p=1.0))
    fol = assert_structure_matches_brute(pat, evaluate(pat, "next_row").image.tolist())
    assert (fol.cycle_length > 1).all()
    assert all(cycle[0] == min(cycle) for cycle in cycles(fol))


def test_structure_matches_brute_force_on_periodic_torus_cycles():
    # three cycles on an 18 x 12 torus whose step displacements repeat with
    # a shorter period: length 18 with period 2, length 9 with period 3 and
    # length 6 fully symmetric; two tree points hang off them
    a = [[k, 0 if k % 2 else 2] for k in range(18)]
    b = [[2 * k, 6 + (0, 1, 3)[k % 3]] for k in range(9)]
    c = [[3 * k, 4] for k in range(6)]
    pat = PointPattern(Domain.torus(18, 12), a + b + c + [[1, 10], [5, 11]])
    image = [(k + 1) % 18 for k in range(18)]
    image += [18 + (k + 1) % 9 for k in range(9)]
    image += [27 + (k + 1) % 6 for k in range(6)]
    fol = assert_structure_matches_brute(pat, image + [3, 20])
    assert sorted(fol.cycle_length.tolist()) == [6, 9, 18]


@st.composite
def ranked_cycles(draw):
    lengths = draw(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=5))
    period = [draw(st.integers(min_value=1, max_value=length)) for length in lengths]
    letters = draw(st.integers(min_value=1, max_value=3))
    return lengths, period, letters, draw(st.randoms())


@given(ranked_cycles())
@settings(max_examples=200, deadline=None)
def test_anchors_are_least_rotations(case):
    lengths, period, letters, rnd = case
    csucc, group, rank = [], [], []
    for g, (length, p) in enumerate(zip(lengths, period)):
        base = len(csucc)
        word = [rnd.randrange(letters) for _ in range(p)]
        csucc += [base + (i + 1) % length for i in range(length)]
        group += [g] * length
        rank += [word[i % p] for i in range(length)]
    want = []
    for g, length in enumerate(lengths):
        nodes = [v for v in range(len(group)) if group[v] == g]

        def window(v):
            out = []
            for _ in range(length):
                out.append(rank[v])
                v = csucc[v]
            return out

        want.append(min(nodes, key=lambda v: (window(v), v)))
    got = foliation._anchors(
        np.array(rank), np.array(csucc), np.array(group), max(lengths)
    )
    assert got.tolist() == want


def test_anchors_take_log_many_rounds_on_a_full_grid(monkeypatch):
    # every cycle of next_row on a full 200 x 200 grid torus is symmetric, so
    # no round separates its nodes: ⌈log₂ 200⌉ = 8 rounds, then least ids
    pat = generate(GenSpec("bernoulli_grid", Domain.torus(200, 200), seed=3, p=1.0))
    sm = evaluate(pat, "next_row")
    checks = []
    run_starts = foliation._run_starts

    def spy(g):
        checks.append(len(g))
        return run_starts(g)

    monkeypatch.setattr(foliation, "_run_starts", spy)
    fol = canonical(pat, foliate(pat, sm))
    # one check of the least windows before each round and one after the last
    assert 1 < len(checks) <= 8 + 1
    assert fol.n_components == 200
    least = np.unique(fol.component_id, return_index=True)[1]
    assert np.flatnonzero(fol.entry_position == 0).tolist() == least.tolist()


@given(functional_maps())
@settings(max_examples=200, deadline=None)
def test_counting_identities_random_total_maps(image):
    n = len(image)
    images, d, l = walk(image, 3)
    for k in range(1, 4):
        assert d[k].sum() == n
        # sum of 1/l equals the size of the k-fold image
        inv = sum(1.0 / l[k][x] for x in range(n))
        assert abs(inv - np.unique(images[k]).size) < 1e-9
        assert int(l[k].sum()) == int((d[k] ** 2).sum())
        assert int((l[k] ** 2).sum()) == int((d[k] ** 3).sum())


@given(functional_maps())
@settings(max_examples=100, deadline=None)
def test_cycle_restriction_is_bijection(image):
    _, fol = make_fol(image)
    for cycle in cycles(fol):
        cyc = set(cycle)
        images = {image[x] for x in cyc}
        assert images == cyc


def test_l_n_nondecreasing_on_total_maps():
    pat = generate(GenSpec("poisson", Domain.torus(15, 15), seed=42, intensity=1.0))
    _, _, l = walk(evaluate(pat, "mnn").image, 5)
    for n in range(1, 5):
        assert np.all(l[n + 1] >= l[n])


def test_censored_component_flag_and_unknown_class():
    image = [1, -1, 3, 3]
    _, fol = make_fol(image)
    classes = classify(fol)
    by_root = dict(zip(fol.component_root.tolist(), classes))
    assert by_root[1] == CLASS_UNKNOWN  # dead-end tree is censored
    assert by_root[-1] == CLASS_FF  # the 3 -> 3 loop with son 2


def test_censored_foils_split_by_distance_to_dead_end():
    image = [1, 2, -1, 2]  # chain 0 -> 1 -> 2(dead); 3 -> 2
    _, fol = make_fol(image)
    assert foil_sets(fol) == frozenset(
        {frozenset({0}), frozenset({1, 3}), frozenset({2})}
    )


def test_torus_realizations_are_all_ff(mnn_realizations):
    fol = mnn_realizations[0].foliation
    assert set(classify(fol)) == {CLASS_FF}
    assert sorted(fol.cycle_nodes.tolist()) == list(range(fol.n_points))


def test_next_row_foils_subset_of_columns(next_row_realizations):
    r = next_row_realizations[0]
    u = np.asarray(r.pattern.metadata["grid_shift"])
    lat = np.rint(r.pattern.coords - u).astype(int)
    for members in groups(r.foliation.foil_id, r.foliation.foil_size):
        cols = np.unique(lat[members, 0])
        assert cols.size == 1


def test_next_row_torus_winding_refines_columns():
    # a narrow tall torus lets the staircase wind the width several times:
    # the cycle length is a multiple of the width and each column splits
    # into that many foils, all still inside one column
    pat = generate(GenSpec("bernoulli_grid", Domain.torus(10, 100), seed=54, p=0.5))
    fol = foliate(pat, evaluate(pat, "next_row"))
    assert (fol.cycle_length % 10 == 0).all()
    assert np.array_equal(fol.component_foils, fol.cycle_length)


def strip_foliation(pattern):
    return foliate(pattern, evaluate(pattern, "strip"))


def test_ladder_classifications():
    poisson = generate(
        GenSpec("poisson", Domain.window(120, 120, buffer=8.0), seed=51, intensity=1.0)
    )
    fractions = (0.25, 0.5, 0.75, 1.0)
    rep = ladder_diagnostic(poisson, "strip", fractions, strip_foliation(poisson))
    assert rep.class_ == CLASS_II

    grid = generate(
        GenSpec(
            "bernoulli_grid", Domain.window(120, 120, buffer=8.0), seed=52, p=0.5
        )
    )
    rep2 = ladder_diagnostic(grid, "strip", fractions, strip_foliation(grid))
    assert rep2.class_ == CLASS_IF

    next_row = foliate(grid, evaluate(grid, "next_row"))
    rep3 = ladder_diagnostic(grid, "next_row", fractions, next_row)
    assert rep3.class_ == CLASS_II


def test_ladder_rejects_the_foliation_of_another_pattern():
    dom = Domain.window(30, 30, buffer=3.0)
    pat = generate(GenSpec("poisson", dom, seed=55, intensity=1.0))
    other = generate(GenSpec("poisson", dom, seed=56, intensity=1.0))
    assert len(pat) != len(other)
    with pytest.raises(ConfigError):
        ladder_diagnostic(pat, "strip", (0.5, 1.0), strip_foliation(other))


def test_foliation_json_and_csv():
    _, fol = make_fol(EX_IMAGE)
    obj = json.loads(fol.to_json(decimal_table(fol.n_points)))
    assert obj["per_point"]["component"] == [0, 0, 0, 0]
    assert obj["components"][0]["cycle_length"] == 2
    csv_text = fol.components_csv()
    assert csv_text.splitlines()[0] == "id,size,cycle_length,n_foils,class"
    assert "FF" in csv_text


def canonical_cases():
    """name -> [(pattern, image)]: the brute-force cases above, seeded
    partial maps with long cycles and dead ends, and next_row on half-filled
    grid tori."""
    rng = np.random.default_rng(7)
    poisson = []
    for seed in range(40):
        pat = generate(GenSpec("poisson", Domain.torus(6, 6), seed=seed, intensity=1.0))
        n = len(pat)
        image = rng.permutation(n) if seed % 2 else rng.integers(0, n, size=n)
        if seed % 3 == 0:
            image[rng.random(n) < 0.2] = -1
        poisson.append((pat, image))
    full = generate(GenSpec("bernoulli_grid", Domain.torus(30, 20), seed=3, p=1.0))
    a = [[k, 0 if k % 2 else 2] for k in range(18)]
    b = [[2 * k, 6 + (0, 1, 3)[k % 3]] for k in range(9)]
    c = [[3 * k, 4] for k in range(6)]
    periodic = PointPattern(Domain.torus(18, 12), a + b + c + [[1, 10], [5, 11]])
    image = [(k + 1) % 18 for k in range(18)]
    image += [18 + (k + 1) % 9 for k in range(9)]
    image += [27 + (k + 1) % 6 for k in range(6)]
    rng = np.random.default_rng(29)
    partial = []
    for n in rng.integers(0, 60, size=60):
        image_n = rng.integers(-1, n, size=n) if n % 2 else rng.permutation(n)
        partial.append((random_map_pattern(rng, n), image_n))
    grids = []
    for seed in range(4):
        pat = generate(GenSpec("bernoulli_grid", Domain.torus(24, 30), seed=seed, p=0.5))
        grids.append((pat, evaluate(pat, "next_row").image))
    edge = [[], [0], [-1], [-1] * 5, [1, 2, 0, -1, 3], EX_IMAGE]
    return {
        "edge_maps": [(random_map_pattern(np.random.default_rng(0), len(im)), im) for im in edge],
        "poisson_torus_maps": poisson,
        "full_grid_next_row": [(full, evaluate(full, "next_row").image)],
        "periodic_torus_cycles": [(periodic, image + [3, 20])],
        "seeded_partial_maps": partial,
        "half_grid_next_row": grids,
    }


# SHA-256 over every field of every case's foliation, as foliate gave them
# when it anchored each cycle canonically itself
PARENT_FIELD_DIGESTS = {
    "edge_maps": "db67315a6d458bf53f9fdad4db305569a674235ca80c1a46dbf59a54d7ec756b",
    "poisson_torus_maps": "9c53aeaf0eb78293abcf5ff85de1d8766c8c6aba827f1e63a6d9057b8f515023",
    "full_grid_next_row": "885e34b8d046f2a24e325e0ae62b80ccadb0e1458e570dac7e641bb0e7e0a68c",
    "periodic_torus_cycles": "ef43c215c0bc8def95307d83ef8d38794ca74abf04eedae34e909e22194f7cea",
    "seeded_partial_maps": "3bd69b472e4bc0663bbce8c40b16246f815e6e80dd0cc4673b112674d8a3b983",
    "half_grid_next_row": "4e6ddc9b2f4ce1b18a32a0287576d5feca2ff8815e0af282c4f4c883346b60dd",
}


def field_digest(results):
    h = hashlib.sha256()
    for fol in results:
        for f in dataclasses.fields(fol):
            value = getattr(fol, f.name)
            assert value.dtype == np.int64, f.name
            h.update(f.name.encode())
            h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


def test_canonical_equals_the_self_anchoring_foliate():
    for name, cases in canonical_cases().items():
        results = [canonical(pat, foliate(pat, make_map(image))) for pat, image in cases]
        assert field_digest(results) == PARENT_FIELD_DIGESTS[name], name


def dict_built_json(fol):
    """``json.dumps`` of the foliation file's object built from lists and
    dicts: the byte oracle of ``FoliationResult.to_json``."""
    nodes = fol.cycle_nodes.tolist()
    bounds = zip(fol.cycle_offsets[:-1].tolist(), fol.cycle_length.tolist())
    rows = zip(
        fol.components,
        fol.component_size.tolist(),
        [nodes[start : start + length] for start, length in bounds],
        fol.component_root.tolist(),
        fol.component_foils.tolist(),
        classify(fol),
    )
    obj = {
        "schema_version": 1,
        "per_point": {
            "component": fol.component_id.tolist(),
            "foil": fol.foil_id.tolist(),
            "depth_to_cycle": fol.depth_to_cycle.tolist(),
            "entry_position": fol.entry_position.tolist(),
        },
        "components": [
            {
                "id": c,
                "size": size,
                "cycle": cycle,
                "cycle_length": len(cycle),
                "root": root,
                "censored": root >= 0,
                "n_foils": foils,
                "class": cls,
            }
            for c, size, cycle, root, foils, cls in rows
        ],
    }
    return json.dumps(obj)


def test_foliation_json_equals_the_dict_built_json():
    """On every canonical case (the empty and one-point patterns, dead ends,
    several components), least-id and canonically anchored, from a table
    of the point count and from a longer one; and on 9000 fixed points and
    dead ends, whose components are dumped in three blocks."""
    n = 9000
    many = (random_map_pattern(np.random.default_rng(0), n), np.where(np.arange(n) % 3, -1, 0))
    many = [many, (many[0], np.arange(n))]
    def sha(text):  # a failure then prints two digests, not a diff of long texts
        return hashlib.sha256(text.encode()).hexdigest()

    for cases in [*canonical_cases().values(), many]:
        for pat, image in cases:
            fol = foliate(pat, make_map(image))
            for result in (fol, canonical(pat, fol)):
                want = sha(dict_built_json(result))
                assert sha(result.to_json(decimal_table(len(pat)))) == want
                assert sha(result.to_json(decimal_table(len(pat) + 2))) == want


def test_foliation_json_refuses_a_short_table():
    _, fol = make_fol(EX_IMAGE)
    with pytest.raises(ValueError):
        fol.to_json(decimal_table(3))


def test_canonical_returns_a_canonical_foliation_as_it_is():
    pat = generate(GenSpec("bernoulli_grid", Domain.torus(24, 30), seed=1, p=0.5))
    fol = canonical(pat, foliate(pat, evaluate(pat, "next_row")))
    assert canonical(pat, fol) is fol


def test_canonical_rejects_the_foliation_of_another_pattern():
    pat, fol = make_fol(EX_IMAGE)
    with pytest.raises(ConfigError):
        canonical(random_map_pattern(np.random.default_rng(0), 5), fol)


def assert_same_partition(cheap, canon):
    """Everything but the anchors agrees: foils as sets, every size, the
    senior foils, the component columns and the classes."""
    assert foil_sets(cheap) == foil_sets(canon)
    # the canonical id of each cheap foil, read through any member
    renum = np.empty(cheap.n_foils, dtype=np.int64)
    renum[cheap.foil_id] = canon.foil_id
    assert np.array_equal(renum[cheap.foil_id], canon.foil_id)
    assert np.array_equal(cheap.foil_size, canon.foil_size[renum])
    assert np.array_equal(cheap.foil_component, canon.foil_component[renum])
    senior = cheap.senior_foil
    assert np.array_equal(np.where(senior >= 0, renum[senior], -1), canon.senior_foil[renum])
    for name in (
        "component_id", "depth_to_cycle", "component_size", "component_root",
        "component_foils", "cycle_offsets", "cycle_length",
    ):
        assert np.array_equal(getattr(cheap, name), getattr(canon, name)), name
    for c in range(cheap.n_components):
        lo, hi = cheap.cycle_offsets[c], cheap.cycle_offsets[c + 1]
        assert set(cheap.cycle_nodes[lo:hi].tolist()) == set(canon.cycle_nodes[lo:hi].tolist())
    assert classify(cheap) == classify(canon)


@st.composite
def torus_maps(draw):
    # points scattered on a torus, so the canonical anchor is seldom the
    # least id; permutations give long cycles, the rest trees and dead ends
    n = draw(st.integers(min_value=0, max_value=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pat = PointPattern(Domain.torus(7, 5), rng.random((n, 2)) * [7, 5])
    if draw(st.booleans()):
        image = rng.permutation(n)
    else:
        image = np.asarray([draw(st.integers(-1, n - 1)) for _ in range(n)], dtype=np.int64)
    return pat, image


@given(torus_maps())
@settings(max_examples=200, deadline=None)
def test_cheap_and_canonical_foliations_agree_on_random_maps(case):
    pat, image = case
    cheap = foliate(pat, make_map(image))
    assert_same_partition(cheap, canonical(pat, cheap))


@given(st.integers(0, 2**16), st.sampled_from([0.3, 0.5, 0.8, 1.0]))
@settings(max_examples=30, deadline=None)
def test_cheap_and_canonical_foliations_agree_on_grid_tori(seed, p):
    pat = generate(GenSpec("bernoulli_grid", Domain.torus(16, 12), seed=seed, p=p))
    cheap = foliate(pat, evaluate(pat, "next_row"))
    assert_same_partition(cheap, canonical(pat, cheap))
