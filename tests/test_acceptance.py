"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here: exact identities at 1e-12, Monte-Carlo bands at
three standard errors of the seeded experiment, structure checks exact.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np

from conftest import MNN_SEED, NEXT_ROW_SEED
from oracles import brute_cycle, brute_foils, groups, random_map_pattern

from foliate.cli import main
from foliate.foliation import (
    CLASS_IF,
    CLASS_II,
    foliate,
    ladder_diagnostic,
)
from foliate.generators import GenSpec, generate
from foliate.palm import (
    Realization,
    ShiftIterateKernel,
    check_mass_transport,
    condenser_intensity_reports,
    evaporation_profile,
    fold_reports,
    relative_intensity,
    relative_intensity_report,
    typical_point,
    verify_identities,
)
from foliate.patterns import Domain
from foliate.shifts import ShiftMap, condenser_marks
from foliate.stable import delta, foil_windings

EXACT = 1e-12


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def fresh_criterion_1_realizations():
    mnn = [
        Realization.from_spec(
            GenSpec("poisson", Domain.torus(50, 50), seed=MNN_SEED + i, intensity=1.0),
            "mnn",
        )
        for i in range(20)
    ]
    nr = [
        Realization.from_spec(
            GenSpec(
                "bernoulli_grid", Domain.torus(100, 100), seed=NEXT_ROW_SEED + i, p=0.5
            ),
            "next_row",
        )
        for i in range(20)
    ]
    return mnn, nr


def test_criterion_1_exact_palm_identities():
    t0 = time.monotonic()
    mnn, nr = fresh_criterion_1_realizations()
    worst = 0.0
    ok = True
    for reals in (mnn, nr):
        reports = fold_reports([verify_identities(r, 5) for r in reals])
        for rep in reports:
            disc = max(abs(v - rep.target) for v in rep.per_realization)
            worst = max(worst, disc)
            if not rep.exact or disc >= EXACT:
                ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    report(1, ok, f"identities n=1..5 worst discrepancy {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_2_mass_transport(mnn_realizations, next_row_realizations):
    t0 = time.monotonic()
    ok = True
    for reals in (mnn_realizations, next_row_realizations):
        for n in (1, 2, 3):
            [rep] = fold_reports(
                [[check_mass_transport(ShiftIterateKernel(n), r)] for r in reals]
            )
            if not rep.exact or any(v != 0.0 for v in rep.per_realization):
                ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10.0
    report(2, ok, f"edge-indicator kernels n=1..3 balance exactly, {elapsed:.1f}s")
    assert ok


def test_criterion_3_foil_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(3000)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        image = rng.integers(0, n, size=n)
        pat = random_map_pattern(rng, n)
        sm = ShiftMap(image)
        fol = foliate(pat, sm)
        mine = frozenset(frozenset(m.tolist()) for m in groups(fol.foil_id, fol.foil_size))
        if mine != brute_foils(image.tolist()):
            ok = False
        if not np.array_equal(fol.component_foils, fol.cycle_length):
            ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    report(3, ok, f"1000 random maps match brute force, {elapsed:.1f}s")
    assert ok


def test_criterion_4_structural_classification(
    mnn_realizations, next_row_realizations
):
    t0 = time.monotonic()
    ok_mnn = all(
        r.foliation.component_size.max(initial=0) <= 2
        and r.foliation.cycle_length.max(initial=0) <= 2
        for r in mnn_realizations
    )

    ok_columns = True
    for r in next_row_realizations:
        u = np.asarray(r.pattern.metadata["grid_shift"])
        cols = np.rint(r.pattern.coords[:, 0] - u[0]).astype(int)
        for members in groups(r.foliation.foil_id, r.foliation.foil_size):
            if np.unique(cols[members]).size > 1:
                ok_columns = False

    fractions = (0.25, 0.5, 0.75, 1.0)
    grid = generate(
        GenSpec("bernoulli_grid", Domain.window(200, 200, buffer=10.0), seed=400, p=0.5)
    )
    grid_real = Realization.build(grid, "strip")
    grid_ladder = ladder_diagnostic(grid, "strip", fractions, grid_real.foliation)
    ok_grid = grid_ladder.class_ == CLASS_IF and all(
        rung.typical_foil_size < 1.05 for rung in grid_ladder.rungs
    )

    poisson = generate(
        GenSpec("poisson", Domain.window(200, 200, buffer=10.0), seed=401, intensity=1.0)
    )
    strip_real = Realization.build(poisson, "strip")
    poisson_ladder = ladder_diagnostic(poisson, "strip", fractions, strip_real.foliation)
    ok_poisson = poisson_ladder.class_ == CLASS_II

    survival = [
        rep.mean
        for rep in evaporation_profile(strip_real, [1, 2, 3, 4, 5, 6, 7, 8])
        if rep.name.startswith("survival_fraction")
    ]
    ok_profile = all(b < a for a, b in zip(survival, survival[1:]))

    elapsed = time.monotonic() - t0
    ok = ok_mnn and ok_columns and ok_grid and ok_poisson and ok_profile
    ok = ok and elapsed < 120.0
    report(
        4,
        ok,
        "mnn pairs, next-row columns, ladders "
        f"{grid_ladder.class_}/{poisson_ladder.class_}, survival decreasing, "
        f"{elapsed:.1f}s",
    )
    assert ok


def test_criterion_5_condenser_marks():
    t0 = time.monotonic()
    fracs = {k: [] for k in (1, 2, 3, 4)}
    for i in range(100):
        spec = GenSpec(
            "poisson", Domain.window(10_000.0, buffer=2.0), seed=5000 + i, intensity=0.5
        )
        pat = generate(spec)
        marks, mc = condenser_marks(pat, 1.0)
        auth = ~mc
        n = int(auth.sum())
        for k in fracs:
            fracs[k].append(float(((marks == k) & auth).sum()) / n)
    ok = True
    details = []
    for k, vals in fracs.items():
        arr = np.asarray(vals)
        se = arr.std(ddof=1) / math.sqrt(len(arr))
        pred = math.exp(-1) / math.factorial(k - 1)
        good = abs(arr.mean() - pred) <= 3 * se
        ok = ok and good
        details.append(f"k{k} {arr.mean():.4f}~{pred:.4f}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    report(5, ok, "mark fractions within 3 SE: " + " ".join(details) + f", {elapsed:.1f}s")
    assert ok


def test_criterion_6_relative_intensity():
    t0 = time.monotonic()
    # (a) finite-foil example: senior/junior size ratio, exactly
    rng = np.random.default_rng(0)
    pat = random_map_pattern(rng, 4)
    sm = ShiftMap(np.array([1, 2, 1, 1]))
    r0 = Realization(pat, sm, foliate(pat, sm))
    ok_a = abs(relative_intensity(r0, 0, mode="ratio") - 1.0 / 3.0) < EXACT

    # (b) next-row on a tall grid torus: unit relative intensity
    nr_reals = [
        Realization.from_spec(
            GenSpec("bernoulli_grid", Domain.torus(50, 200), seed=600 + i, p=0.5),
            "next_row",
        )
        for i in range(100)
    ]
    [rep_b] = fold_reports([[relative_intensity_report(r, mode="walk")] for r in nr_reals])
    ok_b = abs(rep_b.mean - 1.0) <= 3 * rep_b.stderr
    # the walk at the typical point reproduces the direct point-count oracle
    # exactly: class sizes under N-fold iterate equality, computed from the
    # raw map alone (a finite torus can wind a column into several classes,
    # so the count goes per class, not per raw column)
    for r in nr_reals[:10]:
        x = typical_point(r)
        est = relative_intensity(r, x, mode="walk")
        n = r.n_points
        power = r.shift_map.image.copy()
        doublings = max(1, int(math.ceil(math.log2(max(n, 2)))))
        for _ in range(doublings):
            power = power[power]  # image composed to at least the n-th fold
        junior = int((power == power[x]).sum())
        senior = int((power == power[r.shift_map.image[x]]).sum())
        if abs(est - senior / junior) > EXACT:
            ok_b = False
        # classes stay inside single lattice columns
        u = np.asarray(r.pattern.metadata["grid_shift"])
        cols = np.rint(r.pattern.coords[:, 0] - u[0]).astype(int)
        if np.unique(cols[power == power[x]]).size != 1:
            ok_b = False

    # (c) condenser classes k -> k+1 at intensity 1/2: 1/k, cross-checked
    cond_reals = [
        Realization.from_spec(
            GenSpec(
                "poisson", Domain.window(10_000.0, buffer=2.0), seed=5000 + i, intensity=0.5
            ),
            "condenser",
        )
        for i in range(100)
    ]
    ks = (1, 2, 3)
    by_k = fold_reports([condenser_intensity_reports(r, ks) for r in cond_reals])
    ok_c = True
    details = []
    for k, walk, ratio in zip(ks, by_k[::2], by_k[1::2]):
        target = 1.0 / k
        good_t = abs(walk.mean - target) <= 3 * walk.stderr
        diffs = [a - b for a, b in zip(walk.per_realization, ratio.per_realization)]
        dm = float(np.mean(diffs))
        dse = float(np.std(diffs, ddof=1) / math.sqrt(len(diffs)))
        good_x = abs(dm) <= 3 * dse
        ok_c = ok_c and good_t and good_x
        details.append(f"k{k} {walk.mean:.4f}~{target:.4f}")
    elapsed = time.monotonic() - t0
    ok = ok_a and ok_b and ok_c and elapsed < 180.0
    report(
        6,
        ok,
        f"finite ratio exact, next-row {rep_b.mean:.4f}~1, "
        + " ".join(details)
        + f", {elapsed:.1f}s",
    )
    assert ok


def test_criterion_7_stable_map_properties(mnn_realizations, next_row_realizations):
    t0 = time.monotonic()
    ok = True
    for reals in (mnn_realizations, next_row_realizations):
        for r in reals:
            st = r.stable
            n = r.n_points
            idx = np.arange(n)
            if not (
                np.array_equal(np.sort(st.f_perp), idx)
                and np.array_equal(np.sort(st.h_dense), idx)
            ):
                ok = False
            fol = r.foliation
            f_perp, h_dense = st.f_perp.tolist(), st.h_dense.tolist()
            # orbits cover foils and components exactly
            for members in groups(fol.foil_id, fol.foil_size):
                seq = brute_cycle(f_perp, int(members[0]))
                if len(seq) != len(members) or set(seq) != {int(v) for v in members}:
                    ok = False
                if len(members) <= 50:
                    # exhaustive pair check of the step-count identity
                    pos = {z: i for i, z in enumerate(seq)}
                    m = len(seq)
                    for i, x in enumerate(seq):
                        for j, y in enumerate(seq):
                            if seq[(i + ((j - i) % m)) % m] != y:
                                ok = False
                    # the public step counter agrees on sampled pairs
                    for x in seq[:: max(1, m // 4)]:
                        for y in seq[:: max(1, m // 3)]:
                            k = delta(st, fol, x, y)
                            if (pos[x] + k) % m != pos[y]:
                                ok = False
            for members in groups(fol.component_id, fol.component_size):
                seq = brute_cycle(h_dense, int(members[0]))
                if len(seq) != len(members) or set(seq) != {int(v) for v in members}:
                    ok = False
            if not (foil_windings(r.shift_map, fol, st)[1] <= 1).all():
                ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    report(7, ok, f"permutations, orbits, step counts, order kept, {elapsed:.1f}s")
    assert ok


def test_criterion_8_determinism(tmp_path):
    args = [
        "run",
        "--model",
        "bernoulli_grid",
        "--p",
        "0.5",
        "--torus",
        "30x30",
        "--seed",
        "800",
        "--shift",
        "next_row",
        "--realizations",
        "5",
        "--n-max",
        "3",
        "--save-patterns",
    ]
    a = tmp_path / "a"
    b = tmp_path / "b"
    code_a = main(args + ["--out", str(a)])
    code_b = main(args + ["--out", str(b)])
    ok = code_a == 0 and code_b == 0
    names = [
        "verify.csv",
        "verify.json",
        "stats.csv",
        "stats.json",
        "components.csv",
        "pattern_0000.json",
    ]
    for name in names:
        if (a / name).read_bytes() != (b / name).read_bytes():
            ok = False
    report(8, ok, "repeated runs byte-identical across CSV and JSON outputs")
    assert ok
