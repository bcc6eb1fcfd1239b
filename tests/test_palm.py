import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import brute_descendants, iterate, random_map_pattern

from foliate.foliation import foliate
from foliate.generators import GenSpec, generate
from foliate.palm import (
    EXACT_TOL,
    Realization,
    SeniorIntervalKernel,
    ShiftIterateKernel,
    StatReport,
    _power_pairs,
    _tally,
    check_mass_transport,
    condenser_intensity_reports,
    evaporation_profile,
    exact_sum,
    fold_reports,
    palm_mean,
    relative_intensity,
    relative_intensity_report,
    reports_csv,
    reports_json,
    typical_point,
    verify_identities,
)
from foliate.patterns import ConfigError, Domain
from foliate.shifts import ShiftMap

EX_IMAGE = [1, 2, 1, 1]


def example_realization():
    rng = np.random.default_rng(0)
    pat = random_map_pattern(rng, 4)
    sm = ShiftMap(np.asarray(EX_IMAGE, np.int64))
    return Realization(pat, sm, foliate(pat, sm))


def test_palm_mean_constant():
    r = example_realization()
    rep = palm_mean(np.ones(r.n_points), r, "one")
    assert rep.mean == 1.0
    assert rep.stderr == 0.0


def test_palm_mean_d1_is_one_on_total_maps(mnn_realizations):
    [rep] = fold_reports(
        [[palm_mean(r.generation(1)[1], r, "d1")] for r in mnn_realizations[:5]]
    )
    assert rep.realizations == 5
    assert all(abs(v - 1.0) < 1e-12 for v in rep.per_realization)


def test_palm_mean_inverse_cousins_example():
    r = example_realization()
    rep = palm_mean(1.0 / r.generation(1)[2], r, "inv_l1")
    assert abs(rep.mean - 0.5) < 1e-12  # equals |F(support)| / N = 2/4


def test_palm_mean_drops_unusable_realizations():
    rng = np.random.default_rng(1)
    pat = random_map_pattern(rng, 2)
    sm = ShiftMap(np.array([-1, -1]))
    r = Realization(pat, sm, foliate(pat, sm))
    rows = [[palm_mean(np.ones(x.n_points), x, "one")] for x in (r, example_realization())]
    [rep] = fold_reports(rows)
    assert rep.dropped == 1
    assert rep.realizations == 1


def test_identities_on_example_map():
    r = example_realization()
    reports = {rep.name: rep for rep in verify_identities(r, 1)}
    _, d, l = r.generation(1)
    assert l.mean() == 2.5
    assert float((d ** 2).mean()) == 2.5
    assert reports["size_bias_identity_n1"].per_realization == [0.0]
    assert reports["descendant_mean_n1"].mean == 1.0


def test_identities_exact_on_pure_cycle():
    rng = np.random.default_rng(2)
    pat = random_map_pattern(rng, 5)
    sm = ShiftMap(np.array([1, 2, 3, 4, 0]))
    r = Realization(pat, sm, foliate(pat, sm))
    for rep in verify_identities(r, 3):
        assert abs(rep.mean - rep.target) < 1e-12


def test_identities_not_exact_flagged_on_window():
    spec = GenSpec("poisson", Domain.window(40, 40, buffer=3.0), seed=71, intensity=1.0)
    r = Realization.from_spec(spec, "strip")
    reports = verify_identities(r, 2)
    assert all(not rep.exact for rep in reports)


def test_mass_transport_indicator_kernels(mnn_realizations):
    for n in (1, 3):
        rows = [[check_mass_transport(ShiftIterateKernel(n), r)] for r in mnn_realizations[:5]]
        [rep] = fold_reports(rows)
        assert rep.exact
        assert rep.per_realization == [0.0] * 5


def test_mass_transport_senior_interval_kernel(next_row_realizations):
    for r in next_row_realizations[:2]:
        assert check_mass_transport(SeniorIntervalKernel(), r).exact


def test_mass_transport_rejects_negative_kernel():
    class Negative:
        plus = minus = staticmethod(lambda r: -np.ones(r.n_points))

    with pytest.raises(ConfigError):
        check_mass_transport(Negative(), example_realization())


def test_negative_orders_are_refused():
    r = example_realization()
    r.generation(3)  # stored orders that a negative index would read
    with pytest.raises(ConfigError):
        evaporation_profile(r, [-1, 2])
    with pytest.raises(ConfigError):
        check_mass_transport(ShiftIterateKernel(-2), r)


@st.composite
def partial_maps_and_orders(draw):
    n = draw(st.integers(min_value=0, max_value=14))
    image = [draw(st.integers(min_value=-1, max_value=n - 1)) for _ in range(n)]
    return image, draw(st.lists(st.integers(0, 8), min_size=1, max_size=6))


@given(partial_maps_and_orders())
@example(([1, 2, -1, 1, 4], [4, 1, 6, 0]))
@settings(max_examples=200, deadline=None)
def test_generation_matches_brute_force_in_any_order(case):
    image, orders = case
    pat = random_map_pattern(np.random.default_rng(0), len(image))
    arr = np.asarray(image, dtype=np.int64)
    sm = ShiftMap(arr)
    r = Realization(pat, sm, foliate(pat, sm))
    for n in orders:
        images, d, l = r.generation(n)
        want_images = [iterate(image, x, n) for x in range(len(image))]
        want_d = brute_descendants(image, n)
        assert images.tolist() == want_images
        assert d.tolist() == want_d
        assert l.tolist() == [want_d[y] if y >= 0 else 0 for y in want_images]


def test_evaporation_identity_map():
    rng = np.random.default_rng(3)
    pat = random_map_pattern(rng, 4)
    sm = ShiftMap(np.arange(4))
    r = Realization(pat, sm, foliate(pat, sm))
    reps = evaporation_profile(r, [1, 2, 3])
    for rep in reps:
        if rep.name.startswith("survival_fraction"):
            assert rep.mean == 1.0


def test_evaporation_mnn_everything_survives(mnn_realizations):
    reps = evaporation_profile(mnn_realizations[0], [1, 4])
    for rep in reps:
        if rep.name.startswith("survival_fraction"):
            assert rep.mean == 1.0
        else:
            assert rep.exact


def test_evaporation_strip_decreases():
    spec = GenSpec(
        "poisson", Domain.window(120, 120, buffer=8.0), seed=72, intensity=1.0
    )
    r = Realization.from_spec(spec, "strip")
    reps = [
        rep
        for rep in evaporation_profile(r, [1, 2, 4, 8])
        if rep.name.startswith("survival_fraction")
    ]
    vals = [rep.mean for rep in reps]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_relative_intensity_finite_ratio():
    r = example_realization()
    # foil {a, c, d} has senior {b}: the finite-class value is 1/3 and auto
    # picks it; the raw walk degenerates to 0 here because every member has
    # the same image, which is exactly why finite foils use the ratio
    assert relative_intensity(r, 0, mode="ratio") == pytest.approx(1 / 3)
    assert relative_intensity(r, 0, mode="auto") == pytest.approx(1 / 3)
    assert relative_intensity(r, 0, mode="walk") == 0.0


def test_relative_intensity_next_row_matches_column_oracle(next_row_realizations):
    for r in next_row_realizations[:5]:
        x = typical_point(r)
        est = relative_intensity(r, x, mode="walk")
        fid = r.foliation.foil_id[x]
        senior = r.foliation.senior_foil[fid]
        ratio = r.foliation.foil_size[senior] / r.foliation.foil_size[fid]
        assert est == pytest.approx(ratio, abs=1e-12)


def test_relative_intensity_report_counts_drops():
    rng = np.random.default_rng(4)
    pat = random_map_pattern(rng, 1)
    sm = ShiftMap(np.array([-1]))
    degenerate = Realization(pat, sm, foliate(pat, sm))
    rows = [[relative_intensity_report(r)] for r in (degenerate, example_realization())]
    [rep] = fold_reports(rows)
    assert rep.dropped == 1
    assert rep.realizations == 1


def test_stderr_scaling_with_realizations():
    # doubling the realization count should shrink the standard error by
    # roughly 1/sqrt(2)
    def batch(count, base):
        rows = [
            [
                relative_intensity_report(
                    Realization.from_spec(
                        GenSpec("bernoulli_grid", Domain.torus(20, 100), seed=base + i, p=0.5),
                        "next_row",
                    ),
                    mode="walk",
                )
            ]
            for i in range(count)
        ]
        return fold_reports(rows)[0]

    r1 = batch(50, 7000)
    r2 = batch(100, 7000)
    ratio = r2.stderr / r1.stderr
    assert (1 / math.sqrt(2)) * 0.8 < ratio < (1 / math.sqrt(2)) * 1.25


def test_report_csv_and_json_shape():
    rep = StatReport("thing", [1.0, 1.0], n=2, target=1.0)
    text = reports_csv([rep])
    lines = text.splitlines()
    assert lines[0] == "name,n,mean,stderr,exact,realizations,censoring_fraction"
    assert lines[1].startswith("thing,2,1.0,0.0,true,2,")
    import json

    obj = json.loads(reports_json([rep]))
    assert obj["schema_version"] == 1
    assert obj["reports"][0]["name"] == "thing"


def _window_realizations():
    """Two strip windows around one whose points are all censored."""
    strip = [
        Realization.from_spec(
            GenSpec("poisson", Domain.window(30, 30, buffer=3.0), seed=s, intensity=1.0),
            "strip",
        )
        for s in (81, 82)
    ]
    pat = generate(GenSpec("poisson", Domain.window(10, 10, buffer=1.0), seed=83, intensity=0.5))
    n = len(pat)
    sm = ShiftMap(np.full(n, -1, np.int64))
    return [strip[0], Realization(pat, sm, foliate(pat, sm)), strip[1]]


def _reports(r):
    return [
        *verify_identities(r, 2),
        check_mass_transport(ShiftIterateKernel(2), r),
        palm_mean(r.generation(2)[1], r, "d2"),
        relative_intensity_report(r),
    ]


def test_fold_reports_merges_realizations(mnn_realizations):
    torus = mnn_realizations[:3]
    for rep in fold_reports([_reports(r) for r in torus]):
        if rep.target is not None:
            assert rep.exact and rep.realizations == 3

    windows = _window_realizations()
    # one window realization makes a report inexact on the whole run
    mixed = fold_reports([_reports(r) for r in (*torus, windows[0])])
    assert not any(rep.exact for rep in mixed)
    rows = [_reports(r) for r in windows]
    folded = {rep.name: rep for rep in fold_reports(rows)}
    live = [windows[0], windows[2]]  # the all-censored one has no usable point
    # a statistic over every point counts all three realizations ...
    mean_d = folded["descendant_mean_n1"]
    assert mean_d.n_points_used == sum(r.n_points for r in windows)
    assert mean_d.censoring_fraction == sum(r.censoring_fraction for r in windows) / 3
    assert mean_d.per_realization == [rows[0][0].mean, rows[2][0].mean]
    # ... a Palm mean only the ones it used, and it counts the drop
    d2 = folded["d2"]
    assert d2.dropped == 1
    assert d2.realizations == 2
    assert d2.n_points_used == sum(int((~r.shift_map.censored).sum()) for r in live)
    assert d2.censoring_fraction == sum(r.censoring_fraction for r in live) / 2
    assert folded["relative_intensity"].dropped >= 1
    assert not any(rep.exact for rep in folded.values())


def _figures(vals, cens, target, exactable):
    """Mean, stderr, exactness and censoring fraction of a whole-run report,
    by the formulas written out in full."""
    if vals:
        mean = math.fsum(vals) / len(vals)
        if len(vals) >= 2:
            var = math.fsum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
            stderr = math.sqrt(var / len(vals))
        else:
            stderr = 0.0
    else:
        mean = stderr = float("nan")
    exact = (
        exactable
        and target is not None
        and bool(vals)
        and all(abs(v - target) < EXACT_TOL for v in vals)
    )
    return mean, stderr, exact, (sum(cens) / len(cens) if cens else 0.0)


_report_value = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 1e-13, 1.0, 1.0 + 1e-13])


@given(
    st.lists(
        st.tuples(
            st.lists(_report_value, max_size=2),
            st.lists(st.floats(0.0, 1.0), max_size=1),
            st.integers(0, 10**6),
            st.integers(0, 1),
            st.booleans(),
        ),
        min_size=1,
        max_size=6,
    ),
    st.sampled_from([None, 0.0, 1.0]),
)
def test_fold_reports_figures_match_their_formulas(parts, target):
    rows = [
        [
            StatReport(
                "s", vals, exactable=flag, n_points_used=k, censoring_values=cens,
                target=target, dropped=d,
            )
        ]
        for vals, cens, k, d, flag in parts
    ]
    (folded,) = fold_reports(rows)
    vals = [v for p in parts for v in p[0]]
    cens = [c for p in parts for c in p[1]]
    exactable = all(p[4] for p in parts)
    got = (folded.mean, folded.stderr, folded.exact, folded.censoring_fraction)
    assert repr(got) == repr(_figures(vals, cens, target, exactable))
    assert folded.per_realization == vals and folded.realizations == len(vals)
    assert folded.n_points_used == sum(p[2] for p in parts)
    assert folded.dropped == sum(p[3] for p in parts)


def test_condenser_reports_on_a_realization_without_points():
    spec = GenSpec("poisson", Domain.window(3.0), seed=1, intensity=0.01)
    empty = Realization.from_spec(spec, "condenser")
    assert empty.n_points == 0
    reports = condenser_intensity_reports(empty)
    assert [rep.name for rep in reports] == [
        f"condenser_{name}_k{k}" for k in (1, 2, 3) for name in ("intensity", "count_ratio")
    ]
    assert all(rep.per_realization == [] and rep.dropped == 1 for rep in reports)
    live = Realization.from_spec(
        GenSpec("poisson", Domain.window(500.0, buffer=2.0), seed=5, intensity=0.5),
        "condenser",
    )
    folded = fold_reports([condenser_intensity_reports(live), reports])
    for rep, one in zip(folded, condenser_intensity_reports(live)):
        assert rep.per_realization == one.per_realization
        assert rep.dropped == one.dropped + 1


# ------------------------------------------------------------ exact sums


def with_repeats(elements):
    """Lists drawn from a small pool of ``elements``, so values repeat."""
    return st.lists(elements, min_size=1, max_size=12).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=60)
    )


FINITE = st.floats(-1e200, 1e200, allow_nan=False, allow_infinity=False)


@given(
    st.one_of(
        with_repeats(st.integers(-(2**53), 2**53).map(float)),
        with_repeats(st.integers(1, 10**6).map(lambda l: 1.0 / l)),
        with_repeats(FINITE),
        with_repeats(st.tuples(FINITE, st.integers(-60, 60)).map(lambda t: t[0] * 2.0 ** t[1])),
    )
)
def test_exact_sum_is_fsum(values):
    assert exact_sum(np.asarray(values, dtype=float)).hex() == math.fsum(values).hex()


def test_exact_sum_of_nothing():
    assert exact_sum(np.zeros(0)).hex() == (0.0).hex()


TINY = 5e-324
HUGE = sys.float_info.max


@pytest.mark.parametrize(
    "values",
    [
        [TINY] * 7 + [-3 * TINY, 2.5e-320, 2.2250738585072014e-308 / 3],
        [2.5e-320, 1e-310, -3e-315] * 1000,
        [HUGE, -HUGE, TINY],
        [1e308, -1.4e308, 1.5e308, -1e308, 1e292, 1.0],
        [HUGE, -0.75 * HUGE, 1e-300],
        [1.3e300, 1e307 / 3, -2e306] * 5,
        [1e16, 1.0, -1e16] * 5,
    ],
    ids=["subnormal", "subnormal_repeats", "max_cancels", "near_max", "max_and_tiny",
         "past_1e300", "cancellation"],
)
def test_exact_sum_at_the_float_range_ends(values):
    assert exact_sum(np.asarray(values)).hex() == math.fsum(values).hex()


@pytest.mark.parametrize("count", [1, 3, 10**3, 2**17 + 1, 10**6])
def test_exact_sum_with_large_counts(count):
    values = [0.1, 1 / 3, -2.7e-300, 1e200 / 7, 7.0, -(2.0**-30)]
    arr = np.repeat(np.asarray(values), count)
    assert exact_sum(arr).hex() == math.fsum(arr.tolist()).hex()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_exact_sum_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        exact_sum(np.asarray([1.0, bad]))


def test_exact_sum_has_no_intermediate_overflow():
    # fsum's partial sums overflow here; the exact sum is finite
    values = [HUGE, 0.75 * HUGE, -HUGE, -0.75 * HUGE, 1.0]
    with pytest.raises(OverflowError):
        math.fsum(values)
    assert exact_sum(np.asarray(values)) == 1.0
    assert exact_sum(np.asarray([HUGE, -HUGE] * 3 + [TINY])) == TINY


def test_exact_sum_past_the_float_range_raises():
    with pytest.raises(OverflowError):
        math.fsum([1e308, 1e308])
    with pytest.raises(OverflowError):
        exact_sum(np.asarray([1e308, 1e308]))


@given(
    st.one_of(
        with_repeats(st.integers(0, 60)),
        with_repeats(st.integers(-3, 60)),
        with_repeats(st.integers(0, 10**6)),
    )
)
def test_tally_is_unique_with_counts(values):
    # small nonnegative integers are counted by bincount, the rest sorted
    for arr in (np.asarray(values, dtype=np.int64), np.asarray(values) % 2 == 0):
        u, counts = _tally(arr)
        want_u, want_counts = np.unique(arr, return_counts=True)
        assert u.tolist() == want_u.tolist() and counts.tolist() == want_counts.tolist()


@given(with_repeats(st.integers(-(2**40), 2**40)))
def test_power_sums_are_object_sums(values):
    arr = np.asarray(values, dtype=np.int64)
    assert _power_pairs(*_tally(arr), (1, 2, 3)) == [
        int((arr.astype(object) ** p).sum()) for p in (1, 2, 3)
    ]


def test_power_sums_past_int64():
    arr = np.asarray([3_000_000, 3_000_000, -5, 2**40], dtype=np.int64)
    cubes = _power_pairs(*_tally(arr), (3,))[0]
    assert cubes == 2 * 3_000_000**3 - 125 + 2**120
    assert cubes > np.iinfo(np.int64).max
