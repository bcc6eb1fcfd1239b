import math

import numpy as np
import pytest

from oracles import distance, ks_statistic

from foliate.generators import GenSpec, generate
from foliate.patterns import ConfigError, Domain


def test_poisson_near_zero_intensity():
    spec = GenSpec("poisson", Domain.window(1.0, 1.0), seed=1, intensity=1e-9)
    assert len(generate(spec)) in (0, 1)


def test_poisson_mean_count():
    # lambda |W| = 100; over 10^4 seeds the mean is within 3 SE = 0.3
    dom = Domain.torus(10, 10)
    counts = [
        len(generate(GenSpec("poisson", dom, seed=s, intensity=1.0)))
        for s in range(10_000)
    ]
    assert abs(np.mean(counts) - 100.0) < 0.3


def test_poisson_deterministic():
    spec = GenSpec("poisson", Domain.torus(10, 10), seed=123, intensity=1.0)
    a = generate(spec)
    b = generate(spec)
    assert np.array_equal(a.coords, b.coords)
    assert a.to_json() == b.to_json()


def test_poisson_rejects_bad_intensity():
    with pytest.raises(ConfigError):
        GenSpec("poisson", Domain.torus(10, 10), seed=0, intensity=0.0)


def test_bernoulli_full_and_empty():
    dom = Domain.torus(5, 5)
    full = generate(GenSpec("bernoulli_grid", dom, seed=4, p=1.0))
    assert len(full) == 25
    empty = generate(GenSpec("bernoulli_grid", dom, seed=4, p=0.0))
    assert len(empty) == 0


def test_bernoulli_mean_count():
    # Binomial(100, 1/2): mean 50, 3 SE over 10^4 runs = 0.15
    dom = Domain.torus(10, 10)
    counts = [
        len(generate(GenSpec("bernoulli_grid", dom, seed=s, p=0.5)))
        for s in range(10_000)
    ]
    assert abs(np.mean(counts) - 50.0) < 0.15


def test_bernoulli_lattice_recovery():
    pat = generate(GenSpec("bernoulli_grid", Domain.torus(8, 8), seed=9, p=0.7))
    u = np.asarray(pat.metadata["grid_shift"])
    lat = pat.coords - u
    assert np.allclose(lat, np.rint(lat), atol=1e-9)


def test_bernoulli_torus_needs_integer_extents():
    with pytest.raises(ConfigError):
        GenSpec("bernoulli_grid", Domain.torus(8.5, 8.0), seed=0, p=0.5)


def test_bernoulli_window_fractional_extents():
    pat = generate(
        GenSpec("bernoulli_grid", Domain.window(8.5, 6.5, buffer=1.0), seed=2, p=1.0)
    )
    # shifted lattice restricted to the window: 8-9 sites per axis
    assert len(pat) in (8 * 6, 8 * 7, 9 * 6, 9 * 7)


def test_cluster_tiny_intensity():
    spec = GenSpec(
        "poisson_cluster", Domain.window(0.1, 0.1), seed=5, parent_intensity=1.0
    )
    pat = generate(spec)
    if len(pat):
        parent = np.asarray(pat.metadata["cluster_parent"])
        assert np.all(parent >= 0)
        assert len(parent) == len(pat)


def test_cluster_mean_size():
    # Poisson on a unit circle: mean 2*pi; 3 SE over ~10^4 parents
    spec = GenSpec(
        "poisson_cluster", Domain.torus(100, 100), seed=6, parent_intensity=1.0
    )
    pat = generate(spec)
    is_parent = np.asarray(pat.metadata["cluster_is_parent"]).astype(bool)
    types = np.asarray(pat.metadata["cluster_type"])[is_parent]
    n = len(types)
    se = math.sqrt(2 * math.pi / n)
    assert abs(types.mean() - 2 * math.pi) < 3 * se


def test_cluster_children_on_circle():
    spec = GenSpec(
        "poisson_cluster", Domain.torus(50, 50), seed=7, parent_intensity=0.1
    )
    pat = generate(spec)
    parent = np.asarray(pat.metadata["cluster_parent"])
    is_parent = np.asarray(pat.metadata["cluster_is_parent"]).astype(bool)
    for i in np.flatnonzero(~is_parent):
        d = distance(pat.coords[i], pat.coords[parent[i]], pat.domain)
        assert abs(d - 1.0) < 1e-12


def test_uniform_marginals_ks():
    # 1% critical value of the KS statistic is about 1.63 / sqrt(n)
    spec = GenSpec("poisson", Domain.torus(400, 250), seed=8, intensity=1.0)
    pat = generate(spec)
    n = len(pat)
    assert n > 90_000
    for axis, extent in enumerate(pat.domain.extents):
        stat = ks_statistic(pat.coords[:, axis] / extent)
        assert stat < 1.63 / math.sqrt(n)
