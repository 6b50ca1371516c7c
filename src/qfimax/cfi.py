"""Classical Fisher information for a fixed POVM: direct evaluation, the
variational form with moment operators X_j = sum_x D(x)^j Pi_x, the optimal
estimator coefficients, and the alternating optimizer over input states,
whose step reads everything from the Heisenberg-picture operators
Lambda^dag(Pi_x) and Lambda^dag(i[H, Pi_x]), made once per solve.
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
    dagger,
    hermitian_commutator,
    hermitian_operator,
    hermitian_part,
    require_valid,
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
        bad = np.atleast_1d(~(np.abs(sums - target) <= tol))  # a NaN sum is bad
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


def _on_support(num: np.ndarray, p: np.ndarray) -> np.ndarray:
    """num / p on the numerical support {p > EPS_PROB}, 0 elsewhere."""
    return np.divide(num, p, out=np.zeros_like(p), where=p > EPS_PROB)


def classical_fi(stats: OutcomeStatistics) -> float:
    """Sum of dp^2/p over the numerical support {p > EPS_PROB}; one value
    per row of a stack."""
    return _unbatched(_on_support(stats.dprobs ** 2, stats.probs).sum(axis=-1))


def optimal_d(rho: DensityMatrix, h: HermitianOperator, povm: Povm) -> EstimatorCoefficients:
    """Optimal coefficients D(x) = dp(x)/p(x) on the support, 0 elsewhere."""
    stats = outcome_statistics(rho, h, povm)
    return _wrap(EstimatorCoefficients, values=_on_support(stats.dprobs, stats.probs),
                 labels=stats.labels)


def x_moment(d: EstimatorCoefficients, povm: Povm, j: int) -> HermitianOperator:
    """Moment operator sum_x D(x)^j Pi_x for j in {1, 2}; one per row of a
    stack of coefficients."""
    if j not in (1, 2):
        raise ValidationError(f"moment order must be 1 or 2, got {j}")
    if d.labels != povm.labels:
        raise ValidationError("estimator labels do not match the POVM")
    out = (d.values[..., None, :] ** j @ _real_rows(povm)).view(complex)
    return hermitian_operator(out.reshape(out.shape[:-2] + (povm.dim, povm.dim)))


def _heisenberg_rows(ch: QuantumChannel, h: HermitianOperator, povm: Povm) -> np.ndarray:
    """The (2n, 2 dim_in^2) real view of the stack [A; B] of the
    Heisenberg-picture operators A_x = Lambda^dag(Pi_x) and B_x =
    Lambda^dag(i[H, Pi_x]), both exactly Hermitian, so that p_x =
    <psi|A_x|psi> and dp_x = <psi|B_x|psi>.

    One outcome at a time, with the Kraus operators side by side as
    K = [K_1 ... K_r]: Y = Pi_x K holds every Pi_x K_k, and one product of
    Y with [K; Ht K]^dag gives A_x = sum_k K_k^dag Pi_x K_k and Z_x =
    sum_k (Ht K_k)^dag Pi_x K_k, with B_x = i(Z_x - Z_x^dag). Ht = H - mu 1,
    mu the middle of H's spectrum, leaves [H, Pi_x] unchanged and keeps Z_x
    no larger than B_x needs."""
    r, d_out, d_in = ch.stack.shape
    k = ch.stack.swapaxes(0, 1).reshape(d_out, r * d_in)
    # rows (a, k) of [K_k; Ht K_k] against rows (a, k) of Y: the sum over k is one product
    kk = np.concatenate((k.reshape(d_out * r, d_in), (h.centred @ k).reshape(d_out * r, d_in)), axis=1)
    kk = dagger(kk).copy()
    rows = np.empty((2, len(povm.stack), d_in, d_in), dtype=complex)
    for x, pi in enumerate(povm.stack):
        az = kk @ (pi @ k).reshape(d_out * r, d_in)
        rows[0, x] = hermitian_part(az[:d_in])
        z = az[d_in:]
        rows[1, x] = 1j * (z - dagger(z))
    return rows.reshape(2 * len(povm.stack), -1).view(float)


def _fixed_measurement_update(ch: QuantumChannel, h: HermitianOperator, povm: Povm):
    """The update of optimize_fixed_measurement, on the rows S of
    _heisenberg_rows, made once per solve. For each probe psi of the
    stack: (p, dp) = S vec(|psi><psi|), the coefficients D = dp/p on the
    support, the value f = sum dp^2/p and M = sum_x (-D_x^2 A_x + 2 D_x
    B_x) = Lambda^dag(-X_2 + 2i[H, X_1]), each one real product with S.
    The rank deficits are left to the kept trace (None)."""
    rows = _heisenberg_rows(ch, h, povm)
    n, d_in = len(povm.stack), ch.dim_in

    def update(psi):
        v = psi.amplitudes
        rho_in = v[..., :, None] * v[..., None, :].conj()
        pd = rho_in.reshape(v.shape[:-1] + (-1,)).view(float) @ rows.T
        p, dp = pd[..., :n], pd[..., n:]
        d = _on_support(dp, p)
        m = (np.concatenate((-d * d, 2.0 * d), axis=-1) @ rows).view(complex)
        m = hermitian_operator(m.reshape(v.shape[:-1] + (d_in, d_in)))
        return _on_support(dp ** 2, p).sum(axis=-1), m, None

    return update


def optimize_fixed_measurement(ch: QuantumChannel, h: HermitianOperator, povm: Povm,
                               cfg: OptimizerConfig = OptimizerConfig()) -> OptimizationResult:
    """Maximize the classical Fisher information of a fixed POVM over input
    probe states, alternating between the optimal estimator coefficients
    and a maximum-eigenvector state update (_fixed_measurement_update): no
    output state is formed, and the outputs' rank deficits are counted on
    the kept restart's trace alone (run_alternating)."""
    for obj in (ch, h, povm):
        require_valid(obj)
    if ch.dim_out != h.dim or povm.dim != h.dim:
        raise ValidationError("generator, POVM and channel output dimensions must match")
    return run_alternating(ch, cfg, _fixed_measurement_update(ch, h, povm), h)
