"""Optimal classification of two unknown qubit states.

Closed-form asymptotic excess-risk constants for the optimal and plug-in
learning strategies, exact Helstrom discrimination of known qubit pairs,
and seeded Monte Carlo experiments (limit Gaussian model and finite-n
qubit simulations) that reproduce the constants.
"""

from .qubit_core import (
    ATOL,
    BlochVector,
    InvalidStateError,
    Projector,
)
from .helstrom import (
    ClassificationProblem,
    DegenerateProblemError,
    TrivialityVerdict,
    error_probability,
    excess_risk,
    excess_trace,
    helstrom_projector,
    helstrom_risk,
    pauli_data,
    positive_part,
    positive_rank,
    triviality_check,
)
from .local_geometry import (
    LocalFrame,
    NumericalError,
    TrivialConfigurationError,
    build_frame,
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
    tomography_constant,
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
    LabelMode,
    TrainingSetSpec,
    rescaled_risk_curve,
    run_experiment,
)

__version__ = "0.1.0"
