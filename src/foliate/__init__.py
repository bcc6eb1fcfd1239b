"""Point patterns, point-shifts, and their discrete foliations."""

from .patterns import (
    TORUS,
    WINDOW,
    ConfigError,
    Domain,
    PatternError,
    PointPattern,
    crop,
    distance,
    translate,
)
from .generators import GenSpec, gen_bernoulli_grid, gen_poisson, gen_poisson_cluster, generate
from .shifts import (
    ShiftKind,
    ShiftMap,
    condenser_marks,
    eval_condenser,
    eval_mnn,
    eval_multitype_strip,
    eval_next_row,
    eval_strip,
    evaluate,
)
from .foliation import (
    FoliationResult,
    LadderReport,
    classify,
    foliate,
    ladder_diagnostic,
)
from .stable import (
    RlsOrder,
    StableMaps,
    build_h_dense,
    build_rls_order,
    build_stable_maps,
    delta,
    foil_cycles,
)
from .palm import (
    Realization,
    StatReport,
    check_mass_transport,
    evaporation_profile,
    fold_reports,
    palm_mean,
    relative_intensity,
    relative_intensity_report,
    verify_identities,
)

__version__ = "0.1.0"
