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

from .errors import DimensionMismatch, NumericError, ValidationError
from .operators import (
    EPS_ADJOINT_HERM,
    DerivativeChannel,
    FactoredOperator,
    HermitianOperator,
    PureState,
    QuantumChannel,
    _checked_hermitian,
    _kraus_gram,
    _unbatched,
    _wrap,
    channel_adjoint_apply,
    dagger,
    derivative_adjoint_apply,
    haar_state,
    hermitian_commutator,
    hermitian_operator,
    kraus_images,
    max_eigvec,
    relative_asymmetry,
)
from .sld import is_irreducible, qfi_from_sld, sld, solve_sld_rhs

INIT_MODES = ("random_haar", "uniform_superposition", "user_supplied")
EPS_IMAG = 1e-8  # relative imaginary part of an expectation value
EPS_TIE = 1e-13  # restarts this close (relative) to the best tie; the lowest index wins
COMPRESS_MIN_DIM = 24  # smallest output dimension at which a covariant step is compressed
FLAG_BLOCK_ENTRIES = 1 << 14  # output matrix entries per block of the reducibility test


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
        for name in ("eps_rank", "eps_deg"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be non-negative")
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
    """The kept restart's value, probe, trace, stop and warnings, and the
    final value, step count and stop of every restart, in restart order."""

    f_star: float
    psi_star: PureState
    trace: tuple
    converged: bool
    warnings: tuple = ()
    restart_values: tuple = ()
    restart_iterations: tuple = ()
    restart_converged: tuple = ()


def objective_g(x: HermitianOperator, h: HermitianOperator) -> HermitianOperator:
    """G(X) = -X^2 + 2i[H, X]; Hermitian for Hermitian H, X (either may be
    a stack)."""
    if x.dim != h.dim:
        raise ValidationError(f"dimension mismatch: X {x.dim}, H {h.dim}")
    g = 2j * hermitian_commutator(h.matrix, x.matrix)
    g -= x.matrix @ x.matrix
    return hermitian_operator(g)


def real_expectation(psi: PureState, op: HermitianOperator) -> float:
    """<psi|op|psi>, which must be real; one value per probe of a stack."""
    v = psi.amplitudes[..., None]
    val = (dagger(v) @ op.matrix @ v)[..., 0, 0]
    imag = np.max(np.abs(val.imag) / np.maximum(1.0, np.abs(val.real)))
    if imag > EPS_IMAG:
        raise NumericError(f"expectation has relative imaginary part {imag:.3e}")
    return _unbatched(val.real)


def variational_value(
    psi: PureState, x: HermitianOperator, ch: QuantumChannel, h: HermitianOperator
) -> float:
    """F(Lambda(|psi><psi|), X) = <psi| Lambda^dag(G(X)) |psi>."""
    return real_expectation(psi, channel_adjoint_apply(ch, objective_g(x, h)))


def general_objective(
    x: HermitianOperator, ch: QuantumChannel, dch: DerivativeChannel
) -> HermitianOperator:
    """-Lambda^dag(X^2) + 2 Lambda'^dag(X) for a general channel family (of
    each X of a stack). Lambda^dag(X^2) = sum_k (X K_k)^dag (X K_k) is one
    Gram product, exactly Hermitian, as the Hermitized derivative adjoint
    is, so their difference is too."""
    if ch.dim_out != x.dim:
        raise DimensionMismatch(f"channel adjoint expects dim {ch.dim_out}, operator has dim {x.dim}")
    out = 2.0 * derivative_adjoint_apply(dch, x).matrix
    out -= _kraus_gram(np.matmul(x.matrix[..., None, :, :], ch.stack))
    return _checked_hermitian(out)


def _lockstep(psi: PureState, ch: QuantumChannel, update, cfg: OptimizerConfig):
    """One alternating step of each probe of the (b, dim_in) stack psi.

    update(w, psi) takes w = kraus_images(ch, psi), the (b, r, dim_out)
    stack of the columns of each W with rho = W W^dag, and returns, for
    the best argument given each rho, the values f (b,), the objective
    operators M they define as one stacked HermitianOperator or
    FactoredOperator, and the rank deficits (b,); the next probes are the
    top eigenvectors of M. Returns the next probes and the step's
    per-probe arrays (f, degenerate, rank deficit)."""
    w = kraus_images(ch, psi)
    f, m, rank_deficit = update(w, psi)
    psi_next, degenerate = max_eigvec(m, cfg.eps_deg)
    return psi_next, (f, degenerate, rank_deficit)


def _irreducible(ch: QuantumChannel, probes: list, h: HermitianOperator | None, eps: float) -> list:
    """is_irreducible of the output of each probe in the list of amplitude
    vectors probes against h, in stacks of at most FLAG_BLOCK_ENTRIES
    output matrix entries; None for each without a generator."""
    if h is None:
        return [None] * len(probes)
    block = max(1, FLAG_BLOCK_ENTRIES // ch.dim_out ** 2)
    flags = []
    for i in range(0, len(probes), block):
        psi = _wrap(PureState, amplitudes=np.stack(probes[i:i + block]))
        flags.extend(is_irreducible(kraus_images(ch, psi), h, eps))
    return flags


def _record(n: int, amplitudes: np.ndarray, arrays: tuple, j: int, irreducible) -> IterationRecord:
    """The record of step n from the probe's amplitudes, entry j of the
    step's per-probe arrays and the probe's reducibility flag (None
    without a generator)."""
    f, degenerate, rank_deficit = arrays
    return IterationRecord(n=n, f=float(f[j]), psi=_wrap(PureState, amplitudes=amplitudes),
                           degenerate_step=bool(degenerate[j]),
                           sld_rank_deficit=int(rank_deficit[j]),
                           irreducible=None if irreducible is None else bool(irreducible))


def _sld_update(ch: QuantumChannel, h: HermitianOperator, cfg: OptimizerConfig):
    """Covariant update: the SLD L of the output rho and M = Lambda^dag(G(L)).

    rho = W W^dag has rank at most r, so L lives in span{W, HW} and
    G(L) = -L^2 + 2i[H, L] in span{W, HW, H^2 W}. With Q an orthonormal
    basis of that span (m = 3r columns, from one QR), the SLD and G are
    taken on the compressed output Q^dag rho Q with generator Q^dag H Q,
    and M = sum_k C_k^dag g C_k with C_k = Q^dag K_k and g = Q^dag G Q,
    whose top eigenvector max_eigvec takes from its (r*m)-sized small
    side when r*m < dim_in; each probe of a stack has its own Q. Q = 1,
    the SLD of the full output and M = Lambda^dag(G(L)), unless m <=
    dim_out / 2 and dim_out >= COMPRESS_MIN_DIM: below that the QR and
    the extra products cost more than the smaller eigensolves save. The
    SLD is solved from the images (sld), so from W's thin SVD whenever r
    is below the (compressed) output dimension.

    Uncompressed, M is formed only when r*dim_out >= dim_in (else it is
    left factored for max_eigvec's small side), from the completed square
    G(L) = 4 Ht^2 - B^dag B with B = L + 2i Ht, for any shift Ht = H - mu 1:
    M = 4 Lambda^dag(Ht^2) - sum_k (B K_k)^dag (B K_k), the first term
    made once per solve, the second one Gram product per step, and both
    exactly Hermitian. mu, the middle of H's spectrum, keeps the two terms
    no larger than G needs: for H + c 1 unshifted, both grow as c^2 and
    their difference loses digits.
    """
    r, d_out, d_in = ch.stack.shape
    compress = d_out >= COMPRESS_MIN_DIM and 6 * r <= d_out
    formed = not compress and r * d_out >= d_in
    if formed:
        lam = h.eig.eigenvalues
        ht = h.matrix - 0.5 * (lam[0] + lam[-1]) * np.eye(d_out)
        square = 4.0 * _kraus_gram(np.matmul(ht, ch.stack))  # 4 Lambda^dag(Ht^2)
        two_i_ht = 2j * ht

    def update(w, psi):
        hq, factors = h, ch.stack
        if compress:
            x = w.swapaxes(-1, -2)
            hx = h.matrix @ x
            q = np.linalg.qr(np.concatenate((x, hx, h.matrix @ hx), axis=-1))[0]
            qd = dagger(q)
            w, hq = w @ q.conj(), hermitian_operator(qd @ h.matrix @ q)
            factors = np.matmul(qd[..., None, :, :], ch.stack)
        res = sld(w, hq, cfg.eps_rank)
        if formed:
            b = np.matmul((res.L.matrix + two_i_ht)[..., None, :, :], ch.stack)
            m = _checked_hermitian(square - _kraus_gram(b))
        else:
            m = FactoredOperator(factors, objective_g(res.L, hq))
        return qfi_from_sld(w, res), m, d_out - res.rank

    return update


def step(psi_n: PureState, ch: QuantumChannel, h: HermitianOperator,
         cfg: OptimizerConfig, n: int = 0):
    """One covariant alternating step from the probe psi_n: SLD of the
    current output, then the top eigenvector of Lambda^dag(G(L)); the
    one-probe case of the lockstep step of run_alternating. Returns the
    next probe and the record of step n."""
    psi = _wrap(PureState, amplitudes=psi_n.amplitudes[None])
    psi_next, arrays = _lockstep(psi, ch, _sld_update(ch, h, cfg), cfg)
    irreducible = _irreducible(ch, [psi_n.amplitudes], h, cfg.eps_deg)[0]
    return (_wrap(PureState, amplitudes=psi_next.amplitudes[0]),
            _record(n, psi_n.amplitudes, arrays, 0, irreducible))


def _initial_state(dim: int, cfg: OptimizerConfig, restart: int) -> PureState:
    if cfg.init_mode == "user_supplied":
        return cfg.initial_state
    if cfg.init_mode == "uniform_superposition":
        return PureState(np.full(dim, 1.0 / np.sqrt(dim), dtype=complex))
    rng = np.random.default_rng([cfg.seed, restart])
    return haar_state(dim, rng)


def run_alternating(ch: QuantumChannel, cfg: OptimizerConfig, update,
                    h: HermitianOperator | None = None) -> OptimizationResult:
    """Restarted alternating iteration of `update` (see _lockstep).

    The restarts run in lockstep, as one stack of probes, so that each
    step is one batched call per operation for all of them. A restart
    leaves the stack once the objective changes by at most tol, or after
    max_iters steps. The kept restart is the best, the lowest index among
    those within EPS_TIE of it. Reducibility is tested only against a
    generator h, and only on the kept restart's probes, once it is known."""
    b = cfg.restarts
    psi = _wrap(PureState, amplitudes=np.stack(
        [_initial_state(ch.dim_in, cfg, k).amplitudes for k in range(b)]))
    active = list(range(b))
    steps = []  # (active restarts, their probes, the step's arrays) per step
    values, iterations, converged = [0.0] * b, [0] * b, [False] * b
    for n in range(cfg.max_iters):
        psi_next, arrays = _lockstep(psi, ch, update, cfg)
        steps.append((active, psi, arrays))
        # the stopping rule on Python floats: cheaper than numpy on a few values
        f = arrays[0].tolist()
        met = ([abs(x - y) <= cfg.tol * max(1.0, abs(x)) for x, y in zip(f, f_prev)] if n
               else [False] * len(f))
        last = n + 1 == cfg.max_iters
        for k, x, hit in zip(active, f, met):
            if hit or last:
                values[k], iterations[k], converged[k] = x, n + 1, hit
        if last or all(met):
            break
        if any(met):
            keep = [not hit for hit in met]
            active = [k for k, go in zip(active, keep) if go]
            f = [x for x, go in zip(f, keep) if go]
            psi_next = _wrap(PureState, amplitudes=psi_next.amplitudes[keep])
        psi, f_prev = psi_next, f
    best = 0
    for k in range(1, b):
        if values[k] > values[best] + EPS_TIE * max(1.0, abs(values[best])):
            best = k
    kept = [(ids.index(best), p, arrays) for ids, p, arrays in steps[:iterations[best]]]
    flags = _irreducible(ch, [p.amplitudes[j] for j, p, _ in kept], h, cfg.eps_deg)
    trace = tuple(_record(n, p.amplitudes[j], arrays, j, flag)
                  for n, ((j, p, arrays), flag) in enumerate(zip(kept, flags)))
    warnings = []
    for label, pred in (
        ("degenerate top eigenvalue", lambda rec: rec.degenerate_step),
        ("rank-deficient SLD", lambda rec: rec.sld_rank_deficit > 0),
        ("reducible iterate", lambda rec: rec.irreducible is False),
    ):
        hits = [rec.n for rec in trace if pred(rec)]
        if hits:
            warnings.append(f"{label} at iteration(s) {hits[0]}..{hits[-1]} ({len(hits)} of {len(trace)})")
    if not converged[best]:
        warnings.append(f"stopping rule not met within {cfg.max_iters} iterations")
    return OptimizationResult(
        f_star=trace[-1].f,
        psi_star=trace[-1].psi,
        trace=trace,
        converged=converged[best],
        warnings=tuple(warnings),
        restart_values=tuple(values),
        restart_iterations=tuple(iterations),
        restart_converged=tuple(converged),
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

    def update(w, psi):
        dsigma = dch.apply(psi)
        if np.max(relative_asymmetry(dsigma)) > EPS_ADJOINT_HERM:
            raise NumericError("derivative channel output is not Hermitian on a Hermitian input")
        res = solve_sld_rhs(w, hermitian_operator(dsigma), cfg.eps_rank)
        m = general_objective(res.L, ch, dch)
        return real_expectation(psi, m), m, res.support_dim_deficit

    return run_alternating(ch, cfg, update)
