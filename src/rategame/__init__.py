"""Decentralized robust rate-maximization games on Gaussian interference channels.

Library and CLI for computing robust-optimization equilibria by iterative
waterfilling under bounded channel uncertainty, checking existence and
uniqueness conditions, evaluating equilibrium efficiency, and running
Monte-Carlo experiments.
"""

from .core import (
    ChannelSet,
    DegenerateSystemError,
    DomainError,
    GameConfig,
    GameError,
    InfeasibleError,
    NumericalError,
    PowerProfile,
    RegimeError,
    StructuralError,
    UnsupportedArityError,
    price_of_anarchy,
    sum_rate,
    user_rate,
    worst_case_interference,
)
from .waterfill import (
    find_water_level,
    project_to_simplex,
    projection_residual,
    random_feasible_profile,
    robust_best_response,
)
from .solver import (
    EquilibriumResult,
    Schedule,
    SolverOptions,
    default_initial_profile,
    fixed_point_residual,
    solve,
    write_trajectory_csv,
)
from .conditions import (
    ConditionReport,
    build_E,
    build_report,
    build_Smax,
    contraction_modulus,
    default_bin_sets,
    empirical_contraction_check,
    full_bin_sets,
    spectral_radius,
)
from .metrics import (
    PartitionProfile,
    fdma_condition_check,
    occupancy_counts,
    occupied_bins,
    partition_measure,
    social_optimum_bruteforce,
    social_optimum_fdma,
)
from .twouser import (
    AntiSymSystem,
    OverlapSystem,
    alpha_crit,
    alpha_roots,
    antisym_channels,
    antisym_config,
    antisym_profile,
    antisym_sum_rate,
    classify_frequency_sets,
    dense_overlap_solve,
    interior_dp_deps,
    interior_p,
    partition_derivative,
    split_sum_rate,
    split_sum_rate_slope,
)
from .experiment import (
    ChannelGenSpec,
    TrialRecord,
    UncertaintySpec,
    aggregate,
    generate_channels,
    perturb_channels,
    run_trials,
)

__version__ = "0.1.0"
