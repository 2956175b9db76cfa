"""Sparse support recovery from mixed-quality Gaussian measurements.

The package covers the full loop: synthesize two-block heteroscedastic
datasets, plan sample sizes and quality trade-offs, decode supports
(exhaustive scan, local search, or the Lasso with a KKT witness), bound
misranking probabilities, and run seeded phase-transition sweeps.
"""

from .errors import (
    DataError,
    DegenerateInstanceError,
    InvalidConfigError,
    ResourceCapError,
    SparsemixError,
)
from .model import (
    MAX_DESIGN_ENTRIES,
    REGIME_HIGH,
    REGIME_LOW,
    MixedDataset,
    NoiseProfile,
    Regime,
    Setting,
    SnrReport,
    SparseSignal,
    classify_regime,
    generate_dataset,
    load_dataset,
    save_dataset,
    sign_mismatches,
    signed_support_match,
    snr_report,
    support_error,
    wilson_ci95,
)
from .planner import (
    DEFAULT_DELTA,
    DEFAULT_EPSILON,
    FrontierPoint,
    Growth,
    RegimeSpec,
    SufficiencyCheck,
    ThresholdKind,
    binary_entropy,
    check_sufficient,
    pair_coefficients,
    price_of_quality,
    recovery_threshold,
    sample_frontier,
)
from .decoders import (
    EXHAUSTIVE_CAP,
    DecodeResult,
    decode_exhaustive,
    decode_local_search,
    support_loss,
)
from .lasso import (
    KktWitnessReport,
    LassoConfig,
    LassoSolution,
    kkt_recovery_witness,
    lambda_schedule,
    solve_lasso,
)
from .chernoff import (
    ChernoffQuery,
    MisrankEstimate,
    OptimalTheta,
    chernoff_bound,
    chernoff_log_bound,
    empirical_misrank,
    lq_domain_limit,
    m_for_error_budget,
    optimal_theta_agnostic,
    unit_misrank,
)
from .harness import (
    DecoderKind,
    ExperimentConfig,
    SummaryRow,
    TrialRecord,
    check_outputs,
    emit_outputs,
    run_sweep,
    summarize,
)

__version__ = "0.1.0"
