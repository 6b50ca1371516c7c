"""Alternating maximization of the Fisher-information objective
F(rho, X) = Tr{rho (-X^2 + 2i[H, X])} over Hermitian X (via the SLD) and
over channel outputs (via a maximum eigenvector), plus the general-channel
variant -Lambda^dag(X^2) + 2 Lambda'^dag(X).
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .operators import (
    DerivativeChannel,
    FactoredOperator,
    HermitianOperator,
    PureState,
    QuantumChannel,
    channel_adjoint_apply,
    dagger,
    derivative_adjoint_apply,
    haar_state,
    hermitian_commutator,
    hermitian_operator,
    kraus_images,
    max_abs,
    max_eigvec,
    mixture,
)
from .sld import is_irreducible, qfi_from_sld, sld, solve_sld_rhs

INIT_MODES = ("random_haar", "uniform_superposition", "user_supplied")
EPS_IMAG = 1e-8  # relative imaginary part of an expectation value
EPS_TIE = 1e-13  # restarts this close (relative) to the best tie; the lowest index wins
COMPRESS_MIN_DIM = 24  # smallest output dimension at which a covariant step is compressed


@dataclass(frozen=True)
class OptimizerConfig:
    tol: float = 1e-10
    max_iters: int = 1000
    eps_rank: float = 1e-12
    eps_deg: float = 1e-9
    restarts: int = 8
    seed: int = 12345
    init_mode: str = "random_haar"
    initial_state: PureState | None = None

    def __post_init__(self):
        for names, kind, noun in ((("tol", "eps_rank", "eps_deg"), numbers.Real, "a real number"),
                                  (("max_iters", "restarts", "seed"), numbers.Integral, "an integer")):
            for name in names:
                value = getattr(self, name)
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise ValidationError(f"{name} must be {noun}, got {value!r}")
                if not abs(value) <= sys.float_info.max:
                    raise ValidationError(f"{name} must be finite")
        if self.tol <= 0:
            raise ValidationError("tol must be positive")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be at least 1")
        if self.restarts < 1:
            raise ValidationError("restarts must be at least 1")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")
        if self.init_mode not in INIT_MODES:
            raise ValidationError(f"unknown init_mode '{self.init_mode}'")
        if self.init_mode == "user_supplied" and self.initial_state is None:
            raise ValidationError("user_supplied init_mode requires initial_state")


@dataclass(frozen=True)
class IterationRecord:
    n: int
    f: float
    psi: PureState
    degenerate_step: bool
    sld_rank_deficit: int
    irreducible: bool | None  # None when there is no generator to test against


@dataclass(frozen=True)
class OptimizationResult:
    f_star: float
    psi_star: PureState
    trace: tuple
    converged: bool
    warnings: tuple = ()
    restart_values: tuple = ()


def objective_g(x: HermitianOperator, h: HermitianOperator) -> HermitianOperator:
    """G(X) = -X^2 + 2i[H, X]; Hermitian for Hermitian H, X."""
    if x.dim != h.dim:
        raise ValidationError(f"dimension mismatch: X {x.dim}, H {h.dim}")
    g = 2j * hermitian_commutator(h.matrix, x.matrix)
    g -= x.matrix @ x.matrix
    return hermitian_operator(g)


def real_expectation(psi: PureState, op: HermitianOperator) -> float:
    v = psi.amplitudes
    val = complex(v.conj() @ op.matrix @ v)
    if abs(val.imag) > EPS_IMAG * max(1.0, abs(val.real)):
        raise NumericError(f"expectation has imaginary part {val.imag:.3e}")
    return float(val.real)


def variational_value(
    psi: PureState, x: HermitianOperator, ch: QuantumChannel, h: HermitianOperator
) -> float:
    """F(Lambda(|psi><psi|), X) = <psi| Lambda^dag(G(X)) |psi>."""
    return real_expectation(psi, channel_adjoint_apply(ch, objective_g(x, h)))


def general_objective(
    x: HermitianOperator, ch: QuantumChannel, dch: DerivativeChannel
) -> HermitianOperator:
    """-Lambda^dag(X^2) + 2 Lambda'^dag(X) for a general channel family."""
    x2 = hermitian_operator(x.matrix @ x.matrix)
    a = channel_adjoint_apply(ch, x2).matrix
    out = 2.0 * derivative_adjoint_apply(dch, x).matrix
    out -= a
    return hermitian_operator(out)


def alternating_step(psi_n: PureState, ch: QuantumChannel, update, cfg: OptimizerConfig,
                     n: int, h: HermitianOperator | None = None):
    """One alternating step. update(w, psi_n) returns (f_n, M, rank
    deficit) for the best argument given the output rho_n = W W^dag, with
    w = kraus_images(ch, psi_n) the (r, dim_out) stack of the columns of
    W, where M is the objective operator that argument defines (a
    HermitianOperator or a FactoredOperator); the next state is the top
    eigenvector of M. Reducibility is tested only against a generator h."""
    w = kraus_images(ch, psi_n)
    f_n, m, rank_deficit = update(w, psi_n)
    psi_next, degenerate = max_eigvec(m, cfg.eps_deg)
    irreducible = None if h is None else is_irreducible(w, h, cfg.eps_deg)
    return psi_next, IterationRecord(n=n, f=f_n, psi=psi_n, degenerate_step=degenerate,
                                     sld_rank_deficit=rank_deficit, irreducible=irreducible)


def _sld_update(ch: QuantumChannel, h: HermitianOperator, cfg: OptimizerConfig):
    """Covariant update: the SLD L of the output rho and M = Lambda^dag(G(L)).

    rho = W W^dag has rank at most r, so L lives in span{W, HW} and
    G(L) = -L^2 + 2i[H, L] in span{W, HW, H^2 W}. With Q an orthonormal
    basis of that span (m = 3r columns, from one QR), the SLD and G are
    taken on the compressed output Q^dag rho Q with generator Q^dag H Q,
    and M = sum_k C_k^dag g C_k with C_k = Q^dag K_k and g = Q^dag G Q,
    whose top eigenvector max_eigvec takes from its (r*m)-sized small
    side when r*m < dim_in. Q = 1, the SLD of the full
    output and M = Lambda^dag(G(L)), unless m <= dim_out / 2 and dim_out
    >= COMPRESS_MIN_DIM: below that the QR and the extra products cost
    more than the smaller eigensolves save.
    """
    r, d_out, _ = ch.stack.shape
    compress = d_out >= COMPRESS_MIN_DIM and 6 * r <= d_out

    def update(w, psi_n):
        if compress:
            x = w.T
            hx = h.matrix @ x
            q = np.linalg.qr(np.hstack((x, hx, h.matrix @ hx)))[0]
            qd = dagger(q)
            rho, hq = mixture(w @ q.conj()), hermitian_operator(qd @ h.matrix @ q)
            factors = np.matmul(qd, ch.stack)
        else:
            rho, hq, factors = mixture(w), h, ch.stack
        res = sld(rho, hq, cfg.eps_rank)
        m = FactoredOperator(factors, objective_g(res.L, hq))
        return qfi_from_sld(rho, res), m, d_out - res.rank

    return update


def step(psi_n: PureState, ch: QuantumChannel, h: HermitianOperator,
         cfg: OptimizerConfig, n: int = 0):
    """One covariant alternating step: SLD of the current output, then the
    top eigenvector of Lambda^dag(G(L))."""
    return alternating_step(psi_n, ch, _sld_update(ch, h, cfg), cfg, n, h)


def _initial_state(dim: int, cfg: OptimizerConfig, restart: int) -> PureState:
    if cfg.init_mode == "user_supplied":
        return cfg.initial_state
    if cfg.init_mode == "uniform_superposition":
        return PureState(np.full(dim, 1.0 / np.sqrt(dim), dtype=complex))
    rng = np.random.default_rng([cfg.seed, restart])
    return haar_state(dim, rng)


def run_alternating(ch: QuantumChannel, cfg: OptimizerConfig, update,
                    h: HermitianOperator | None = None) -> OptimizationResult:
    """Restarted alternating iteration of `update` (see alternating_step),
    each restart run until the objective changes by at most tol."""
    best = None
    restart_values = []
    for r in range(cfg.restarts):
        psi = _initial_state(ch.dim_in, cfg, r)
        trace = []
        converged = False
        for n in range(cfg.max_iters):
            psi, rec = alternating_step(psi, ch, update, cfg, n, h)
            trace.append(rec)
            if n > 0 and abs(rec.f - trace[-2].f) <= cfg.tol * max(1.0, abs(rec.f)):
                converged = True
                break
        f_star = trace[-1].f
        restart_values.append(f_star)
        if best is None or f_star > best[0] + EPS_TIE * max(1.0, abs(best[0])):
            best = (f_star, trace[-1].psi, tuple(trace), converged)
    f_star, psi_star, trace, converged = best
    warnings = []
    for label, pred in (
        ("degenerate top eigenvalue", lambda rec: rec.degenerate_step),
        ("rank-deficient SLD", lambda rec: rec.sld_rank_deficit > 0),
        ("reducible iterate", lambda rec: rec.irreducible is False),
    ):
        hits = [rec.n for rec in trace if pred(rec)]
        if hits:
            warnings.append(f"{label} at iteration(s) {hits[0]}..{hits[-1]} ({len(hits)} of {len(trace)})")
    if not converged:
        warnings.append(f"stopping rule not met within {cfg.max_iters} iterations")
    return OptimizationResult(
        f_star=f_star,
        psi_star=psi_star,
        trace=trace,
        converged=converged,
        warnings=tuple(warnings),
        restart_values=tuple(restart_values),
    )


def optimize(ch: QuantumChannel, h: HermitianOperator,
             cfg: OptimizerConfig = OptimizerConfig()) -> OptimizationResult:
    """Maximum quantum Fisher information over input probe states."""
    if ch.dim_out != h.dim:
        raise ValidationError("generator dimension must match channel output dimension")
    return run_alternating(ch, cfg, _sld_update(ch, h, cfg), h)


def optimize_general(ch: QuantumChannel, dch: DerivativeChannel,
                     cfg: OptimizerConfig = OptimizerConfig()) -> OptimizationResult:
    """Maximum Fisher information for a general parametrized channel family,
    supplied as the channel at the working point plus its derivative map."""
    if dch.dim_in != ch.dim_in or dch.dim_out != ch.dim_out:
        raise ValidationError("derivative channel dimensions must match the channel")

    def update(w, psi_n):
        rho_n = mixture(w)
        dsigma = dch.apply(psi_n)
        scale = max(1.0, max_abs(dsigma))
        if max_abs(dsigma - dsigma.conj().T) > 1e-8 * scale:
            raise NumericError("derivative channel output is not Hermitian on a Hermitian input")
        res = solve_sld_rhs(rho_n, hermitian_operator(dsigma), cfg.eps_rank)
        m = general_objective(res.L, ch, dch)
        return real_expectation(psi_n, m), m, res.support_dim_deficit

    return run_alternating(ch, cfg, update)
