"""Alternating maximization of the Fisher-information objective
F(rho, X) = Tr{rho (-X^2 + 2 Lambda'(.) X)} over Hermitian X (via the SLD)
and over channel outputs (via a maximum eigenvector), for the covariant
family, Lambda'(rho) = -i[H, Lambda(rho)], and for a general one given its
derivative map. Both routes run one update (_update) on the derivative's
Kraus-aligned part F_k: -iHt K_k for the covariant family.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, NumericError, ValidationError
from .operators import (
    EPS_DEG,
    EPS_RANK,
    DerivativeChannel,
    FactoredOperator,
    HermitianOperator,
    PureState,
    QuantumChannel,
    _adjoint_sandwich,
    _checked_hermitian,
    _derivative_channel,
    _images,
    _kraus_gram,
    _wrap,
    derivative_adjoint_apply,
    haar_state,
    hermitian_commutator,
    hermitian_operator,
    hermitian_part,
    kraus_images,
    max_eigvec,
    require_valid,
)
from .sld import _images_qfi, _solve, _support, is_irreducible

INIT_MODES = ("random_haar", "uniform_superposition", "user_supplied")
EPS_TIE = 1e-13  # values this close (relative) to the best tie; the lowest index wins (best_index)
COMPRESS_MIN_DIM = 24  # smallest output dimension at which a step is compressed (_update)
FLAG_BLOCK_ENTRIES = 1 << 14  # output matrix entries per block of the reducibility test


def best_index(values) -> int:
    """The lowest index of values within EPS_TIE * max(1, |max|) of their finite maximum."""
    values = np.asarray(values, dtype=float)
    best = values.max()
    if not np.isfinite(best):
        raise NumericError(f"best value is not finite ({best})")
    return int(np.argmax(values >= best - EPS_TIE * max(1.0, abs(best))))


@dataclass(frozen=True)
class OptimizerConfig:
    tol: float = 1e-10
    max_iters: int = 1000
    eps_rank: float = EPS_RANK
    eps_deg: float = EPS_DEG
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


def general_objective(
    x: HermitianOperator, ch: QuantumChannel, dch: DerivativeChannel
) -> HermitianOperator:
    """-Lambda^dag(X^2) + 2 Lambda'^dag(X) for a general channel family (of
    each X of a stack), in sandwich form for any pair list.
    Lambda^dag(X^2) = sum_k (X K_k)^dag (X K_k) is one Gram product,
    exactly Hermitian, as the Hermitized derivative adjoint is, so their
    difference is too. optimize_general forms this operator so only for a
    pair list with no mirrored pair on the Kraus operators; otherwise it
    takes those pairs as a completed square (_update). At X the SLD,
    <psi|M|psi> = Tr(rho L^2), the value that every route reports."""
    if ch.dim_out != x.dim:
        raise DimensionMismatch(f"channel adjoint expects dim {ch.dim_out}, operator has dim {x.dim}")
    out = 2.0 * derivative_adjoint_apply(dch, x).matrix
    out -= _kraus_gram(np.matmul(x.matrix[..., None, :, :], ch.stack))
    return _checked_hermitian(out)


def _lockstep(psi: PureState, update, cfg: OptimizerConfig):
    """One alternating step of each probe of the (b, dim_in) stack psi.

    update(psi) forms what it reads of the probes' outputs itself (the
    channel routes their Kraus images) and returns, for the best argument
    given each output, the values f (b,), the objective operators M they
    define as one stacked HermitianOperator or FactoredOperator, and the
    rank deficits (b,), or None to leave them to the kept trace
    (run_alternating); the next probes are the top eigenvectors of M.
    Returns the next probes and the step's per-probe arrays (f,
    degenerate, rank deficit or None); NumericError for a non-finite f."""
    f, m, rank_deficit = update(psi)
    if not np.isfinite(f).all():
        raise NumericError(f"step value is not finite ({f})")
    psi_next, degenerate = max_eigvec(m, cfg.eps_deg)
    return psi_next, (f, degenerate, rank_deficit)


def _kept_diagnostics(ch: QuantumChannel, probes: list, h: HermitianOperator | None,
                      cfg: OptimizerConfig, ranks: bool) -> tuple:
    """(flags, deficits) of the outputs of the probes in the list of
    amplitude vectors probes: is_irreducible against h (None each without
    a generator) and, if ranks, dim_out - rank (None each otherwise), from
    their Kraus images W in stacks of at most FLAG_BLOCK_ENTRIES output
    matrix entries. The nonzero eigenvalues of rho = W W^dag are the
    squared singular values of W, counted as the SLD solve counts its
    rank (sld._support)."""
    flags = [None] * len(probes)
    deficits = [None] * len(probes)
    if h is None and not ranks:
        return flags, deficits
    block = max(1, FLAG_BLOCK_ENTRIES // ch.dim_out ** 2)
    for i in range(0, len(probes), block):
        w = kraus_images(ch, _wrap(PureState, amplitudes=np.stack(probes[i:i + block])))
        if h is not None:
            flags[i:i + len(w)] = is_irreducible(w, h, cfg.eps_deg)
        if ranks:
            on, _ = _support(np.linalg.svd(w, compute_uv=False) ** 2, cfg.eps_rank)
            deficits[i:i + len(w)] = ch.dim_out - np.count_nonzero(on, axis=-1)
    return flags, deficits


def _record(n: int, amplitudes: np.ndarray, arrays: tuple, j: int, irreducible,
            rank_deficit) -> IterationRecord:
    """The record of step n from the probe's amplitudes, entry j of the
    step's per-probe arrays, the probe's reducibility flag (None without
    a generator) and its rank deficit, entry j of the step's when that is
    None."""
    f, degenerate, deficits = arrays
    return IterationRecord(n=n, f=float(f[j]), psi=_wrap(PureState, amplitudes=amplitudes),
                           degenerate_step=bool(degenerate[j]),
                           sld_rank_deficit=int(deficits[j] if rank_deficit is None else rank_deficit),
                           irreducible=None if irreducible is None else bool(irreducible))


def step(psi_n: PureState, ch: QuantumChannel, h: HermitianOperator,
         cfg: OptimizerConfig, n: int = 0):
    """One covariant alternating step from the probe psi_n: SLD of the
    current output, then the top eigenvector of Lambda^dag(G(L)), as
    optimize's update (_covariant_update) makes them; the one-probe case
    of the lockstep step of run_alternating. Returns the next probe and
    the record of step n."""
    for obj in (ch, h, psi_n):
        require_valid(obj)
    psi = _wrap(PureState, amplitudes=psi_n.amplitudes[None])
    psi_next, arrays = _lockstep(psi, _covariant_update(ch, h, cfg), cfg)
    flags, _ = _kept_diagnostics(ch, [psi_n.amplitudes], h, cfg, ranks=False)
    return (_wrap(PureState, amplitudes=psi_next.amplitudes[0]),
            _record(n, psi_n.amplitudes, arrays, 0, flags[0], None))


@lru_cache(maxsize=1)
def _haar_probes(dim: int, seed: int, restarts: int) -> np.ndarray:
    """The (restarts, dim) stack of random_haar start probes, row k
    haar_state(dim, default_rng([seed, k])): drawn once for the last
    (dim, seed, restarts) asked for, and read-only."""
    probes = np.stack([haar_state(dim, np.random.default_rng([seed, k])).amplitudes
                       for k in range(restarts)])
    probes.setflags(write=False)
    return probes


def run_alternating(ch: QuantumChannel, cfg: OptimizerConfig, update,
                    h: HermitianOperator | None = None) -> OptimizationResult:
    """Restarted alternating iteration of `update` (see _lockstep).

    The restarts run in lockstep, as one stack of probes, so that each
    step is one batched call per operation for all of them. A restart
    leaves the stack once the objective changes by at most tol, or after
    max_iters steps. The kept restart is the best (best_index).
    Reducibility is tested only against a generator h, and only on the
    kept restart's probes, once it is known; so are the rank deficits, for
    an update that leaves them (None). A user_supplied start is checked here."""
    b, d = cfg.restarts, ch.dim_in
    if cfg.init_mode == "user_supplied":
        if cfg.initial_state.dim != d:
            raise DimensionMismatch(f"initial state has dim {cfg.initial_state.dim}, not {d}")
        require_valid(cfg.initial_state, "initial state")
        probes = np.repeat(cfg.initial_state.amplitudes[None], b, axis=0)
    elif cfg.init_mode == "uniform_superposition":
        probes = np.full((b, d), 1.0 / np.sqrt(d), dtype=complex)
    else:
        probes = _haar_probes(d, cfg.seed, b)
    psi = _wrap(PureState, amplitudes=probes)
    active = list(range(b))
    steps = []  # (active restarts, their probes, the step's arrays) per step
    values, iterations, converged = [0.0] * b, [0] * b, [False] * b
    for n in range(cfg.max_iters):
        psi_next, arrays = _lockstep(psi, update, cfg)
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
    best = best_index(values)
    kept = [(ids.index(best), p, arrays) for ids, p, arrays in steps[:iterations[best]]]
    ranks = steps[0][2][2] is None  # the update left the rank deficits to the kept trace
    flags, deficits = _kept_diagnostics(ch, [p.amplitudes[j] for j, p, _ in kept], h, cfg, ranks)
    trace = tuple(_record(n, p.amplitudes[j], arrays, j, flag, deficit)
                  for n, ((j, p, arrays), flag, deficit) in enumerate(zip(kept, flags, deficits)))
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
    """Maximum quantum Fisher information over input probe states, from
    the update of the covariant family (_covariant_update)."""
    for obj in (ch, h):
        require_valid(obj)
    if ch.dim_out != h.dim:
        raise ValidationError("generator dimension must match channel output dimension")
    return run_alternating(ch, cfg, _covariant_update(ch, h, cfg), h)


def _kraus_aligned(ch: QuantumChannel, dch: DerivativeChannel):
    """dch's pairs split as Lambda' = sum_k (F_k . K_k^dag + K_k . F_k^dag)
    + the residual map, for the Kraus operators K_k of ch.

    A pair (A, K_k) whose mirror (K_k, A) is also listed, with K_k bitwise
    equal to a Kraus operator, adds A to F_k; each pair is matched at most
    once. Every other pair, one that is its own mirror included, stays in
    the residual map, in list order. Matrices are compared by their bytes,
    so exactly, with one dict lookup each. F_k is then shifted to F_k +
    i mu K_k, mu = Im sum_k Tr(F_k^dag K_k) / dim_in, which leaves Lambda'
    unchanged and makes sum_k |F_k|^2 least: for the pairs of
    commuting_derivative(ch, H + c 1) it removes c. Returns (F, residual):
    F the (r, dim_out, dim_in) stack, or None when no pair is mirrored;
    residual dch itself when no pair is mirrored, None when every pair is,
    else a DerivativeChannel of the residual pairs."""
    ids = {}

    def label(a):
        return ids.setdefault(a.tobytes(), len(ids))

    kraus = {}
    for k, a in enumerate(ch.stack):
        kraus.setdefault(label(a), k)
    f = np.zeros(ch.stack.shape, dtype=complex)
    unmatched = {}  # (label of A, label of B) -> unmatched pairs (A, B) with a Kraus side
    matched = set()
    for p, (a, b) in enumerate(zip(*dch.stack)):
        x, y = label(a), label(b)
        if x == y or (x not in kraus and y not in kraus):
            continue
        waiting = unmatched.get((y, x))
        if not waiting:
            unmatched.setdefault((x, y), []).append(p)
            continue
        matched.update((waiting.pop(0), p))
        if x in kraus:
            f[kraus[x]] += b
        else:
            f[kraus[y]] += a
    if not matched:
        return None, dch
    f += (1j * np.vdot(f, ch.stack).imag / ch.dim_in) * ch.stack
    keep = [p for p in range(len(dch.terms)) if p not in matched]
    if not keep:
        return f, None
    return f, _derivative_channel(dch.stack[:, keep])


def _residual_rhs(residual: DerivativeChannel, psi: PureState) -> np.ndarray:
    """sum_p (A_p psi)(B_p psi)^dag, the residual map's output on each probe
    of the stack psi, Hermitian up to roundoff for the map, which
    optimize_general requires valid; the caller takes its Hermitian part."""
    a, b = (_images(x, psi.amplitudes) for x in residual.stack)
    return a.swapaxes(-1, -2) @ b.conj()


def _update(ch: QuantumChannel, cfg: OptimizerConfig, a: np.ndarray | None = None,
            e: np.ndarray | None = None, residual: DerivativeChannel | None = None):
    """The update of every channel route: the solution L of (1/2){L, rho}
    = Lambda'(|psi><psi|) and M = -Lambda^dag(L^2) + 2 Lambda'^dag(L), for
    Lambda' = sum_k (F_k . K_k^dag + K_k . F_k^dag) + the residual map.
    The aligned part is F_k = A K_k (optimize's a alone) or F_k = E_k
    (optimize_general's e and residual pairs, either None for none). Each
    call forms the probes' Kraus images W, rho = W W^dag, itself.

    The right-hand side is A rho + rho A^dag, taken in its blocks on the
    output's decomposition (sld._solve), or the formed R = sum_k z_k
    w_k^dag + h.c. of the images z_k = E_k psi plus the residual map's
    output (_residual_rhs), Hermitized. M is the completed square 4 sum_k
    F_k^dag F_k - sum_k Y_k^dag Y_k, Y_k = (L - 2A) K_k or L K_k - 2 E_k,
    plus 2 Lambda_res'^dag(L) Hermitized: the first term once per solve,
    the second one Gram product per step, all exactly Hermitian. The
    derivative map is not checked here: optimize_general requires it valid.
    With no aligned part M is general_objective's sandwich form.

    With no residual pair, rho and the right-hand side live in Q =
    orth[W, FW] (m = 2r columns, one QR per probe). Once dim_out >=
    COMPRESS_MIN_DIM and the 2m rows of each factor C_k = [Q^dag K_k;
    Q^dag F_k] are at most dim_out / 2, the solve runs on Q^dag W with
    Q^dag A Q or Q^dag R Q, and M = sum_k C_k^dag g C_k is left factored,
    g = [[-l^2, 2l], [2l, 0]] with l = Q^dag L Q.

    f is Tr(rho L^2), which is <psi|M|psi> at the SLD, and the rank
    deficit dim_out - rank."""
    r, d_out, d_in = ch.stack.shape
    f = e if a is None else np.matmul(a, ch.stack)  # F_k; None for the residual map alone
    compress = f is not None and residual is None and d_out >= COMPRESS_MIN_DIM and 8 * r <= d_out
    square = 0.0
    if compress:
        kf = np.stack((ch.stack, f), axis=1)  # all C_k = Q^dag [K_k; F_k] in one product
    elif f is not None:
        square = 4.0 * _kraus_gram(f)  # 4 sum_k F_k^dag F_k

    def update(psi):
        w = kraus_images(ch, psi)
        rhs = None
        if residual is not None:
            rhs = _residual_rhs(residual, psi)
        z = None if e is None else _images(e, psi.amplitudes)
        if compress:
            fw = w @ a.T if z is None else z  # rows F_k psi
            q = np.linalg.qr(np.concatenate((w, fw), axis=-2).swapaxes(-1, -2))[0]
            qc = q.conj()
            qd = qc.swapaxes(-1, -2)
            w = w @ qc
            if z is not None:
                z = z @ qc
        if z is not None:
            # 2 sum_k z_k w_k^dag, whose Hermitian part is R's aligned part
            aligned_rhs = 2.0 * (z.swapaxes(-1, -2) @ w.conj())
            rhs = aligned_rhs if rhs is None else aligned_rhs + rhs
        rhs = None if rhs is None else hermitian_part(rhs)
        if compress:
            l, rank, _ = _solve(w, None if a is None else qd @ (a @ q), rhs, cfg.eps_rank, "H")
            k = l.shape[-1]
            g = np.zeros(l.shape[:-2] + (2 * k, 2 * k), dtype=complex)
            g[..., :k, :k] = -(l @ l)
            g[..., :k, k:] = g[..., k:, :k] = 2.0 * l
            c = np.matmul(qd[..., None, None, :, :], kf).reshape(l.shape[:-2] + (r, 2 * k, d_in))
            m = FactoredOperator(c, hermitian_operator(g))
        else:
            l, rank, _ = _solve(w, a, rhs, cfg.eps_rank, "H")
            y = np.matmul((l if a is None else l - 2.0 * a)[..., None, :, :], ch.stack)
            if e is not None:
                y -= 2.0 * e
            m = square - _kraus_gram(y)
            if residual is not None:
                m += 2.0 * hermitian_part(_adjoint_sandwich(residual.stack[0], l, residual.stack[1]))
            m = _checked_hermitian(m)
        return _images_qfi(l, w), m, d_out - rank

    return update


def _covariant_update(ch: QuantumChannel, h: HermitianOperator, cfg: OptimizerConfig):
    """_update with A = -iHt, Ht = H - mu 1 and mu the middle of H's
    spectrum: the derivative -i[H, .] of the covariant family as F_k =
    -iHt K_k. The centring keeps the two terms of the completed square no
    larger than M needs: for H + c 1 unshifted both grow as c^2 and their
    difference loses digits."""
    return _update(ch, cfg, a=-1j * h.centred)


def _general_update(ch: QuantumChannel, dch: DerivativeChannel, cfg: OptimizerConfig):
    """_update with the E_k and residual pairs of _kraus_aligned(ch, dch)."""
    return _update(ch, cfg, None, *_kraus_aligned(ch, dch))


def optimize_general(ch: QuantumChannel, dch: DerivativeChannel,
                     cfg: OptimizerConfig = OptimizerConfig()) -> OptimizationResult:
    """Maximum Fisher information for a general parametrized channel family,
    supplied as the channel at the working point plus its derivative map.
    Each step maximises Tr rho(-X^2 + 2 Lambda'(.) X) over X (the solution
    L of (1/2){L, rho} = Lambda'(|psi><psi|)), then over the probe (the top
    eigenvector of M = -Lambda^dag(L^2) + 2 Lambda'^dag(L)). The
    derivative's mirrored pairs (A, K_k), (K_k, A) on the Kraus operators
    of ch, such as all of commuting_derivative's, enter M as a completed
    square, the form of the Fujiwara-Imai bound, through the update that
    optimize runs; the other pairs as sandwiches (_update). Each step's
    value is Tr(rho L^2), with or without mirrored pairs. ch and dch are
    required valid, dch relative to the size of its pairs (validate), before
    any step."""
    for obj in (ch, dch):
        require_valid(obj)
    if dch.dim_in != ch.dim_in or dch.dim_out != ch.dim_out:
        raise ValidationError("derivative channel dimensions must match the channel")
    return run_alternating(ch, cfg, _general_update(ch, dch, cfg))
