"""Classical Fisher information for a fixed POVM: direct evaluation, the
variational form with moment operators X_j = sum_x D(x)^j Pi_x, the optimal
estimator coefficients, and the alternating optimizer over input states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .operators import (
    DensityMatrix,
    HermitianOperator,
    Povm,
    PureState,
    QuantumChannel,
    channel_adjoint_apply,
    hermitian_commutator,
    hermitian_part,
    mixture,
)
from .optimizer import OptimizationResult, OptimizerConfig, real_expectation, run_alternating

EPS_PROB = 1e-12  # outcomes with p <= EPS_PROB are off the numerical support


@dataclass(frozen=True)
class EstimatorCoefficients:
    """One real coefficient per POVM outcome, in parameter units."""

    values: np.ndarray
    labels: tuple

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 1 or len(v) != len(self.labels):
            raise ValidationError("need exactly one coefficient per outcome label")
        if not np.all(np.isfinite(v)):
            raise ValidationError("estimator coefficients must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "labels", tuple(self.labels))


@dataclass(frozen=True)
class OutcomeStatistics:
    """Outcome probabilities p(x) = Tr{rho Pi_x} and their parameter
    derivatives dp(x) = Tr{-i[H, rho] Pi_x}."""

    probs: np.ndarray
    dprobs: np.ndarray
    labels: tuple

    def __post_init__(self):
        p = np.array(self.probs, dtype=float)
        dp = np.array(self.dprobs, dtype=float)
        if p.shape != dp.shape or p.ndim != 1:
            raise ValidationError("probs and dprobs must be aligned vectors")
        if abs(float(p.sum()) - 1.0) > 1e-8:
            raise ValidationError(f"probabilities sum to {p.sum()}, not 1")
        if abs(float(dp.sum())) > 1e-8:
            raise ValidationError(f"probability derivatives sum to {dp.sum()}, not 0")
        p.setflags(write=False)
        dp.setflags(write=False)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "dprobs", dp)
        object.__setattr__(self, "labels", tuple(self.labels))


def outcome_statistics(rho: DensityMatrix, h: HermitianOperator, povm: Povm) -> OutcomeStatistics:
    if rho.dim != povm.dim or rho.dim != h.dim:
        raise ValidationError(
            f"dimension mismatch: rho {rho.dim}, H {h.dim}, POVM {povm.dim}"
        )
    drho = -1j * hermitian_commutator(h.matrix, rho.matrix)
    # for Hermitian A, Re Tr{A Pi_x} = sum_ab Re A_ab Re (Pi_x)_ab + Im A_ab Im (Pi_x)_ab
    ab = np.stack((rho.matrix, drho)).reshape(2, -1).view(float)
    probs, dprobs = ab @ _real_rows(povm).T
    return OutcomeStatistics(probs, dprobs, povm.labels)


def _real_rows(povm: Povm) -> np.ndarray:
    """The (n, 2 d^2) real view of the POVM stack: row x holds re and im
    of each entry of Pi_x in turn."""
    return povm.stack.reshape(len(povm.stack), -1).view(float)


def classical_fi(stats: OutcomeStatistics) -> float:
    """Sum of dp^2/p over the numerical support {p > EPS_PROB}."""
    on = stats.probs > EPS_PROB
    if not np.any(on):
        return 0.0
    return float(np.sum(stats.dprobs[on] ** 2 / stats.probs[on]))


def optimal_d(rho: DensityMatrix, h: HermitianOperator, povm: Povm) -> EstimatorCoefficients:
    """Optimal coefficients D(x) = dp(x)/p(x) on the support, 0 elsewhere."""
    return _optimal_d_from_stats(outcome_statistics(rho, h, povm))


def _optimal_d_from_stats(stats: OutcomeStatistics) -> EstimatorCoefficients:
    values = np.zeros_like(stats.probs)
    on = stats.probs > EPS_PROB
    values[on] = stats.dprobs[on] / stats.probs[on]
    return EstimatorCoefficients(values, stats.labels)


def x_moment(d: EstimatorCoefficients, povm: Povm, j: int) -> HermitianOperator:
    """Moment operator sum_x D(x)^j Pi_x for j in {1, 2}."""
    if j not in (1, 2):
        raise ValidationError(f"moment order must be 1 or 2, got {j}")
    if d.labels != povm.labels:
        raise ValidationError("estimator labels do not match the POVM")
    out = (d.values ** j @ _real_rows(povm)).view(complex).reshape(povm.dim, povm.dim)
    return HermitianOperator(hermitian_part(out))


def _cfi_operator(d: EstimatorCoefficients, h: HermitianOperator, povm: Povm) -> HermitianOperator:
    x1 = x_moment(d, povm, 1)
    x2 = x_moment(d, povm, 2)
    op = -x2.matrix + 2j * hermitian_commutator(h.matrix, x1.matrix)
    return HermitianOperator(hermitian_part(op))


def cfi_objective(psi: PureState, d: EstimatorCoefficients, ch: QuantumChannel,
                  h: HermitianOperator, povm: Povm) -> float:
    """<psi| Lambda^dag(-X_2 + 2i[H, X_1]) |psi>."""
    return real_expectation(psi, channel_adjoint_apply(ch, _cfi_operator(d, h, povm)))


def optimize_fixed_measurement(ch: QuantumChannel, h: HermitianOperator, povm: Povm,
                               cfg: OptimizerConfig = OptimizerConfig()) -> OptimizationResult:
    """Maximize the classical Fisher information of a fixed POVM over input
    probe states, alternating between the optimal estimator coefficients
    and a maximum-eigenvector state update."""
    if ch.dim_out != h.dim or povm.dim != h.dim:
        raise ValidationError("generator, POVM and channel output dimensions must match")

    def update(w, psi_n):
        rho_n = mixture(w)
        stats = outcome_statistics(rho_n, h, povm)
        d = _optimal_d_from_stats(stats)
        m = channel_adjoint_apply(ch, _cfi_operator(d, h, povm))
        lam = np.linalg.eigvalsh(rho_n.matrix)
        rank = int(np.count_nonzero(lam > cfg.eps_rank * max(lam[-1], np.finfo(float).tiny)))
        return classical_fi(stats), m, rho_n.dim - rank

    return run_alternating(ch, cfg, update, h)
