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
    QuantumChannel,
    _unbatched,
    _wrap,
    channel_adjoint_apply,
    hermitian_commutator,
    hermitian_operator,
    mixture,
)
from .optimizer import OptimizationResult, OptimizerConfig, run_alternating

EPS_PROB = 1e-12  # outcomes with p <= EPS_PROB are off the numerical support


@dataclass(frozen=True)
class EstimatorCoefficients:
    """One real coefficient per POVM outcome, in parameter units (one row
    per probe of a stack, as optimal_d makes them for a stack)."""

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
    derivatives dp(x) = Tr{-i[H, rho] Pi_x} (one row per state of a stack,
    as outcome_statistics makes them for a stack)."""

    probs: np.ndarray
    dprobs: np.ndarray
    labels: tuple

    def __post_init__(self):
        p = np.array(self.probs, dtype=float)
        dp = np.array(self.dprobs, dtype=float)
        if p.shape != dp.shape or p.ndim != 1:
            raise ValidationError("probs and dprobs must be aligned vectors")
        _check_sums(p, dp)
        p.setflags(write=False)
        dp.setflags(write=False)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "dprobs", dp)
        object.__setattr__(self, "labels", tuple(self.labels))


def _check_sums(probs: np.ndarray, dprobs: np.ndarray) -> None:
    """Raise ValidationError unless the probabilities sum to 1 within 1e-8
    and their derivatives to 0 within 1e-8 * max(1, sum_j |dp_j|) (each
    row, for a stack): the derivatives scale with the generator, and so
    does the roundoff of their sum."""
    scale = np.maximum(1.0, np.abs(dprobs).sum(axis=-1))
    for sums, target, tol, what in ((probs.sum(axis=-1), 1.0, 1e-8, "probabilities"),
                                    (dprobs.sum(axis=-1), 0.0, 1e-8 * scale, "probability derivatives")):
        bad = np.atleast_1d(np.abs(sums - target) > tol)
        if bad.any():
            raise ValidationError(f"{what} sum to {np.atleast_1d(sums)[bad][0]}, not {target:g}")


def outcome_statistics(rho: DensityMatrix, h: HermitianOperator, povm: Povm) -> OutcomeStatistics:
    """Outcome statistics of rho, or of each state of a stack rho."""
    if rho.dim != povm.dim or rho.dim != h.dim:
        raise ValidationError(
            f"dimension mismatch: rho {rho.dim}, H {h.dim}, POVM {povm.dim}"
        )
    drho = -1j * hermitian_commutator(h.matrix, rho.matrix)
    # for Hermitian A, Re Tr{A Pi_x} = sum_ab Re A_ab Re (Pi_x)_ab + Im A_ab Im (Pi_x)_ab
    ab = np.stack((rho.matrix, drho), axis=-3)
    ab = ab.reshape(ab.shape[:-2] + (-1,)).view(float)
    pd = ab @ _real_rows(povm).T
    probs, dprobs = pd[..., 0, :], pd[..., 1, :]
    _check_sums(probs, dprobs)
    return _wrap(OutcomeStatistics, probs=probs, dprobs=dprobs, labels=povm.labels)


def _real_rows(povm: Povm) -> np.ndarray:
    """The (n, 2 d^2) real view of the POVM stack: row x holds re and im
    of each entry of Pi_x in turn."""
    return povm.stack.reshape(len(povm.stack), -1).view(float)


def classical_fi(stats: OutcomeStatistics) -> float:
    """Sum of dp^2/p over the numerical support {p > EPS_PROB}; one value
    per row of a stack."""
    p = stats.probs
    terms = np.divide(stats.dprobs ** 2, p, out=np.zeros_like(p), where=p > EPS_PROB)
    return _unbatched(terms.sum(axis=-1))


def optimal_d(rho: DensityMatrix, h: HermitianOperator, povm: Povm) -> EstimatorCoefficients:
    """Optimal coefficients D(x) = dp(x)/p(x) on the support, 0 elsewhere."""
    return _optimal_d_from_stats(outcome_statistics(rho, h, povm))


def _optimal_d_from_stats(stats: OutcomeStatistics) -> EstimatorCoefficients:
    p = stats.probs
    values = np.divide(stats.dprobs, p, out=np.zeros_like(p), where=p > EPS_PROB)
    return _wrap(EstimatorCoefficients, values=values, labels=stats.labels)


def x_moment(d: EstimatorCoefficients, povm: Povm, j: int) -> HermitianOperator:
    """Moment operator sum_x D(x)^j Pi_x for j in {1, 2}; one per row of a
    stack of coefficients."""
    if j not in (1, 2):
        raise ValidationError(f"moment order must be 1 or 2, got {j}")
    if d.labels != povm.labels:
        raise ValidationError("estimator labels do not match the POVM")
    out = (d.values[..., None, :] ** j @ _real_rows(povm)).view(complex)
    return hermitian_operator(out.reshape(out.shape[:-2] + (povm.dim, povm.dim)))


def _cfi_operator(d: EstimatorCoefficients, h: HermitianOperator, povm: Povm) -> HermitianOperator:
    x1 = x_moment(d, povm, 1)
    x2 = x_moment(d, povm, 2)
    op = -x2.matrix + 2j * hermitian_commutator(h.matrix, x1.matrix)
    return hermitian_operator(op)


def optimize_fixed_measurement(ch: QuantumChannel, h: HermitianOperator, povm: Povm,
                               cfg: OptimizerConfig = OptimizerConfig()) -> OptimizationResult:
    """Maximize the classical Fisher information of a fixed POVM over input
    probe states, alternating between the optimal estimator coefficients
    and a maximum-eigenvector state update."""
    if ch.dim_out != h.dim or povm.dim != h.dim:
        raise ValidationError("generator, POVM and channel output dimensions must match")

    def update(w, psi):
        rho = mixture(w)
        stats = outcome_statistics(rho, h, povm)
        d = _optimal_d_from_stats(stats)
        m = channel_adjoint_apply(ch, _cfi_operator(d, h, povm))
        # the nonzero eigenvalues of rho = W W^dag are the squared singular values of W
        lam = np.linalg.svd(w, compute_uv=False) ** 2
        cut = cfg.eps_rank * lam[..., :1]
        return classical_fi(stats), m, rho.dim - np.count_nonzero(lam > cut, axis=-1)

    return run_alternating(ch, cfg, update, h)
