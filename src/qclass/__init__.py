"""Optimal classification of two unknown qubit states.

Closed-form asymptotic excess-risk constants for the optimal and plug-in
learning strategies, exact Helstrom discrimination of known qubit pairs,
and seeded Monte Carlo experiments (limit Gaussian model and finite-n
qubit simulations) that reproduce the constants.  The root exports the
closed-form layer, which loads without numpy; the simulators need numpy
and are imported from ``qclass.gaussian_model``, ``qclass.qubit_experiment``
and ``qclass.montecarlo``.
"""

from .qubit_core import (
    ATOL,
    BlochVector,
    InvalidStateError,
)
from .helstrom import (
    ClassificationProblem,
    TrivialityVerdict,
    excess_trace,
    helstrom_risk,
    pauli_data,
    rank_masks,
    triviality_check,
)
from .local_geometry import (
    LocalFrame,
    NumericalError,
    TrivialConfigurationError,
    build_frame,
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

__version__ = "0.1.0"
