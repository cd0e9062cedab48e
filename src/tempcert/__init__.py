"""Numerical engine for a sequential-measurement temporal inequality:
evaluation, seesaw optimization, self-testing certification, and
noise-robustness sweeps for two-qubit realizations."""

__version__ = "0.1.0"

from .scenario import (
    DensityMatrix,
    Observable,
    PureState,
    Scenario,
    canonical_scenario,
    load_scenario,
    project_involution,
    purify_scenario,
    random_scenario,
    save_scenario,
)
from .seqcorr import (
    CorrelationSet,
    OutcomeDistribution,
    correlations,
    exact_sequence_distribution,
    pair_corr,
    sample_sequences,
    triple_corr,
)
from .inequality import (
    CLASSICAL_BOUND,
    QUANTUM_BOUND,
    SYMMETRIES,
    InequalityValue,
    apply_symmetry,
    classical_bound,
    eval_INC,
    eval_IT,
    symmetry_residual,
)
from .optimize import (
    SeesawConfig,
    SeesawTrace,
    bell_operator,
    optimal_observable,
    optimal_state,
    seesaw,
)
from .certify import (
    CertificationReport,
    align,
    algebra_residuals,
    build_subspace,
    certify,
)
from .robustness import (
    Depolarizing,
    ObservableTilt,
    UnitaryJitter,
    apply_noise,
    check_robustness_bounds,
    fit_loglog_slope,
    sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
