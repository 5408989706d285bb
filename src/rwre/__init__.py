"""Simulation and statistical verification of one-dimensional nearest-neighbour
random walks in quenched random environments."""

__version__ = "1.0.0"

from .environment import (  # noqa: F401
    Constant,
    EnvironmentWindow,
    IidDiscrete,
    IidParametric,
    QuasiPeriodic,
    check_conditions,
    classify,
    mean_log_odds,
    odds_growth_rate,
    realize,
)
from .analytics import (  # noqa: F401
    MomentProfile,
    SummaryStatistics,
    signed_range_sum,
    site_mean,
    site_variance,
    summary,
)
from .walk import (  # noqa: F401
    SimulationBudget,
    WalkObservation,
    batch_hitting_times,
    batch_positions,
    first_passage_index,
    sample_hitting_times,
    sample_position,
)
from .oracle import (  # noqa: F401
    exact_position_distribution,
    expected_hitting_times,
    hitting_time_variances,
    mc_crossing_moments,
    solve_finite_chain,
)
from .harness import (  # noqa: F401
    ExperimentConfig,
    clt_hitting,
    clt_position,
    coupling_identity_check,
    fluctuation_diagnostics,
    ks_distance,
    lln_check,
    normal_cdf,
    uniform_ergodicity_estimate,
    variance_ratio_check,
)
