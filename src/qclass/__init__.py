"""Optimal classification of two unknown qubit states.

Closed-form asymptotic excess-risk constants for the optimal and plug-in
learning strategies, exact Helstrom discrimination of known qubit pairs,
and seeded Monte Carlo experiments (limit Gaussian model and finite-n
qubit simulations) that reproduce the constants.
"""

from .qubit_core import (
    ATOL,
    BlochVector,
    DensityMatrix,
    InvalidStateError,
    Projector,
    bloch_to_density,
    density_to_bloch,
    sample_pauli,
)
from .helstrom import (
    ClassificationProblem,
    DegenerateProblemError,
    TrivialityVerdict,
    error_probability,
    excess_risk,
    helstrom_projector,
    helstrom_risk,
    pauli_data,
    positive_part,
    triviality_check,
)
from .local_geometry import (
    LocalFrame,
    NumericalError,
    PerpEstimate,
    TrivialConfigurationError,
    build_frame,
    estimator_to_projector,
    local_states,
    quadratic_loss,
    relative_perp,
)
from .asymptotics import (
    RiskReport,
    classical_risk_term,
    commutator_c,
    optimal_minimax_risk,
    plugin_risk,
    prior_correction,
    quantum_risk_term,
    risk_gap,
    risk_report,
)
from .gaussian_model import (
    GaussianShiftModel,
    StrategyKind,
    build_gaussian_model,
    monte_carlo_risk,
    optimal_estimate,
    plugin_estimate,
)
from .montecarlo import CHUNK_SIZE, ExperimentResult
from .qubit_experiment import (
    DegenerateTrainingSetError,
    LabelMode,
    TrainingSetSpec,
    bayes_risk_gaussian,
    classical_coin_example,
    classical_gaussian_example,
    gaussian_error_probability,
    plugin_strategy_run,
    rescaled_risk_curve,
    run_experiment,
    sample_labels,
    tomographic_estimate,
)

__version__ = "0.1.0"
