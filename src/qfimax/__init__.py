"""qfimax: maximum (quantum) Fisher information over probe states passed
through a quantum channel, via an alternating variational algorithm, with a
fixed-measurement (classical Fisher) variant and independent validation
oracles."""

__version__ = "0.1.0"

from .errors import DimensionMismatch, NumericError, QfimaxError, ValidationError
from .operators import (
    DensityMatrix,
    DerivativeChannel,
    EigenDecomposition,
    HermitianOperator,
    Povm,
    PureState,
    QuantumChannel,
    Violation,
    channel_adjoint_apply,
    channel_apply,
    commuting_derivative,
    derivative_adjoint_apply,
    finite_difference_derivative,
    haar_state,
    hermitian_eig,
    max_eigvec,
    validate,
)
from .channels import (
    amplitude_damping_channel,
    basis_povm,
    compose_channels,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    pauli_basis_povm,
    unitary_channel,
)
from .sld import SldResult, is_irreducible, qfi, sld, solve_sld_rhs
from .optimizer import (
    IterationRecord,
    OptimizationResult,
    OptimizerConfig,
    general_objective,
    objective_g,
    optimize,
    optimize_general,
    step,
)
from .cfi import (
    EstimatorCoefficients,
    OutcomeStatistics,
    classical_fi,
    optimal_d,
    optimize_fixed_measurement,
    outcome_statistics,
    x_moment,
)
from .oracles import (
    DiscreteModel,
    GaussianPrior,
    bayes_gaussian_fi,
    brute_force_max_qfi,
    model_from_quantum,
)
from .problem import ProblemFile, parse_problem
