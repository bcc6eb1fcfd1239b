import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Hypothesis loads its "ci" profile where CI is set: derandomized, so every
# push replays the same draws.  The nightly job runs this profile with
# --hypothesis-seed for fresh, reproducible ones.
settings.register_profile("nightly", parent=settings.get_profile("ci"), derandomize=False)

from foliate.generators import GenSpec
from foliate.palm import Realization
from foliate.patterns import Domain

MNN_SEED = 100
NEXT_ROW_SEED = 200


@pytest.fixture(scope="session")
def mnn_realizations():
    """The 20 mutual-nearest-neighbor runs shared by the acceptance tests."""
    spec = GenSpec("poisson", Domain.torus(50, 50), seed=MNN_SEED, intensity=1.0)
    return [
        Realization.from_spec(spec.with_seed(MNN_SEED + i), "mnn") for i in range(20)
    ]


@pytest.fixture(scope="session")
def next_row_realizations():
    spec = GenSpec(
        "bernoulli_grid", Domain.torus(100, 100), seed=NEXT_ROW_SEED, p=0.5
    )
    return [
        Realization.from_spec(spec.with_seed(NEXT_ROW_SEED + i), "next_row")
        for i in range(20)
    ]
