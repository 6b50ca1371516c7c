"""Independent ground-truth generators: brute-force pure-state search,
pure-state closed forms, and the Gaussian-prior Bayesian Fisher information
with its deterministic-prior limit.

These deliberately avoid the alternating optimizer's code path so they can
serve as cross-checks for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .operators import (
    EPS_HERM,
    EPS_PSD,
    EPS_TRACE,
    HermitianOperator,
    Povm,
    PureState,
    QuantumChannel,
    channel_apply,
    check_density_spectrum,
    dagger,
    density_violations,
    raise_violations,
)
from .optimizer import EPS_TIE

# 45 x 80 polar/azimuthal qubit grid; the odd polar count puts the equator
# (where covariant-phase optima live) exactly on the grid
BLOCH_GRID_SHAPE = (45, 80)
CONSISTENCY_TOL = 1e-6  # relative disagreement of the two Bayesian routes
MAX_GRID_POINTS = 100001  # largest Bayesian parameter grid
GRID_BLOCK = 1024  # grid points per product in model_from_quantum
EPS_RANK = 1e-12  # eigenvalue pair sums at most this times the largest are left out
ORACLE_BLOCK_ENTRIES = 1 << 12  # matrix entries per block of outputs in brute_force_max_qfi


@dataclass(frozen=True)
class DiscreteModel:
    """Tabulated outcome-probability family p_phi(x) on a parameter grid."""

    phis: np.ndarray
    probs: np.ndarray  # rows indexed by phi, columns by outcome

    def __post_init__(self):
        phis = np.array(self.phis, dtype=float)
        probs = np.array(self.probs, dtype=float)
        if phis.ndim != 1 or probs.ndim != 2 or probs.shape[0] != len(phis):
            raise ValidationError("model needs one probability row per grid point")
        row_sums = probs.sum(axis=1)
        if np.any(probs < -1e-10) or np.max(np.abs(row_sums - 1.0)) > 1e-10:
            raise ValidationError("model rows must be non-negative and sum to 1")
        phis.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "phis", phis)
        object.__setattr__(self, "probs", probs)


@dataclass(frozen=True)
class GaussianPrior:
    """Zero-mean Gaussian prior over the parameter."""

    delta_prior: float
    grid_halfwidth: float = 6.0  # in units of delta_prior
    grid_points: int = 201

    def __post_init__(self):
        if self.delta_prior <= 0:
            raise ValidationError("prior standard deviation must be positive")
        if self.grid_points % 2 == 0 or self.grid_points < 3:
            raise ValidationError("grid_points must be odd and at least 3")
        if self.grid_points > MAX_GRID_POINTS:
            raise ValidationError(f"grid_points must be at most {MAX_GRID_POINTS}, "
                                  f"got {self.grid_points}")

    def grid(self) -> np.ndarray:
        half = self.grid_halfwidth * self.delta_prior
        return np.linspace(-half, half, self.grid_points)

    def pdf(self, phis: np.ndarray) -> np.ndarray:
        s = self.delta_prior
        return np.exp(-0.5 * (phis / s) ** 2) / (s * math.sqrt(2.0 * math.pi))


def pure_state_qfi(psi: PureState, h: HermitianOperator) -> float:
    """Closed form 4(<H^2> - <H>^2) for pure probe states."""
    v = psi.amplitudes
    hv = h.matrix @ v
    mean = float(np.real(v.conj() @ hv))
    second = float(np.real(hv.conj() @ hv))
    return 4.0 * max(second - mean * mean, 0.0)


def eigenbasis_qfi(rho: np.ndarray, h: np.ndarray) -> np.ndarray:
    """QFI of each density matrix of the (..., d, d) stack rho for the
    generator matrix h, from rho's eigenbasis (Paris, Int. J. Quantum Inf.
    7, 125 (2009)): F = 2 sum_ij (l_i - l_j)^2 / (l_i + l_j) |<i|H|j>|^2,
    summed over the pairs with l_i + l_j > EPS_RANK * l_max, which are the
    pairs outside the SLD solver's null block at its default eps_rank.

    Each matrix is checked as a density matrix, as the SLD solver does;
    the first that fails raises ValidationError with the solver's message.
    """
    rho = np.asarray(rho)
    flat = rho.reshape((-1,) + rho.shape[-2:])
    herm = np.max(np.abs(flat - flat.conj().swapaxes(1, 2)), axis=(1, 2))
    tr = np.trace(flat, axis1=1, axis2=2)
    trace = np.abs(tr.real - 1.0) + np.abs(tr.imag)
    lam, v = np.linalg.eigh(flat)
    bad = ~((herm <= EPS_HERM) & (trace <= EPS_TRACE) & (lam[:, 0] >= -EPS_PSD) & (lam[:, -1] > 0))
    if bad.any():
        i = int(np.argmax(bad))
        raise_violations(density_violations(flat[i]), "density matrix")
        check_density_spectrum(lam[i])
    hv = v.conj().swapaxes(1, 2) @ h @ v
    pair = lam[:, :, None] + lam[:, None, :]
    on = pair > EPS_RANK * lam[:, -1:, None]
    terms = (lam[:, :, None] - lam[:, None, :]) ** 2 / np.where(on, pair, 1.0) * np.abs(hv) ** 2
    return 2.0 * np.where(on, terms, 0.0).sum(axis=(1, 2)).reshape(rho.shape[:-2])


def bloch_grid() -> np.ndarray:
    """The BLOCH_GRID_SHAPE polar x azimuthal grid of qubit states
    cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>, polar angle slowest, as
    the rows of an (n, 2) array."""
    n_theta, n_phi = BLOCH_GRID_SHAPE
    theta = np.repeat(np.linspace(0.0, math.pi, n_theta), n_phi) / 2.0
    phi = np.tile(np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False), n_theta)
    return np.stack((np.cos(theta), (np.cos(phi) + 1j * np.sin(phi)) * np.sin(theta)), axis=1)


def brute_force_max_qfi(ch: QuantumChannel, h: HermitianOperator,
                        n_samples: int = 10000, seed: int = 0):
    """Max of QFI(Lambda(|psi><psi|)) over Haar samples; for qubits a
    deterministic Bloch-sphere grid is searched first.

    The probes are evaluated in blocks of outputs of at most
    ORACLE_BLOCK_ENTRIES entries, by eigenbasis_qfi. The first probe
    within EPS_TIE (relative) of the maximum is returned, with its value.
    """
    if n_samples < 1:
        raise ValidationError("n_samples must be at least 1")
    # one draw holds the same stream as n_samples calls of haar_state
    z = np.random.default_rng(seed).standard_normal((n_samples, 2, ch.dim_in))
    z = z[:, 0] + 1j * z[:, 1]
    probes = z / np.linalg.norm(z, axis=1, keepdims=True)
    if ch.dim_in == 2:
        probes = np.concatenate((bloch_grid(), probes))
    block = max(1, ORACLE_BLOCK_ENTRIES // ch.dim_out ** 2)
    values = np.empty(len(probes))
    for start in range(0, len(probes), block):
        w = np.matmul(ch.stack, probes[start:start + block].T).transpose(2, 1, 0)
        rho = w @ w.conj().swapaxes(1, 2)
        values[start:start + block] = eigenbasis_qfi(0.5 * (rho + rho.conj().swapaxes(1, 2)),
                                                     h.matrix)
    best = float(np.max(values))
    i = int(np.argmax(values >= best - EPS_TIE * max(1.0, abs(best))))
    return float(values[i]), PureState(probes[i])


def model_from_quantum(ch: QuantumChannel, h: HermitianOperator, psi: PureState,
                       povm: Povm, phis) -> DiscreteModel:
    """Tabulate p_phi(x) = Tr{Pi_x e^{-i phi H} Lambda(|psi><psi|) e^{i phi H}}.

    In the eigenbasis of H, with eigenvalues lam, this is
    Re sum_ab exp(-i phi (lam_a - lam_b)) C_x[a, b] with C_x[a, b] =
    rho_ab (Pi_x)_ba: one product per block of GRID_BLOCK grid points.
    """
    rho = channel_apply(ch, psi).matrix
    lam, v = h.eig.eigenvalues, h.eig.eigenvectors
    vd = dagger(v)
    c = ((vd @ rho @ v) * (vd @ povm.stack @ v).swapaxes(1, 2)).reshape(len(povm.stack), -1)
    gaps = np.subtract.outer(lam, lam).ravel()
    phis = np.asarray(phis, dtype=float)
    probs = np.empty((len(phis), len(c)))
    for start in range(0, len(phis), GRID_BLOCK):
        block = phis[start:start + GRID_BLOCK]
        probs[start:start + GRID_BLOCK] = (np.exp(-1j * np.outer(block, gaps)) @ c.T).real
    return DiscreteModel(phis, probs)


def _prior_on_grid(model: DiscreteModel, prior: GaussianPrior) -> np.ndarray:
    phis = model.phis
    lo, hi = float(phis[0]), float(phis[-1])
    s = prior.delta_prior * math.sqrt(2.0)
    tail_mass = 0.5 * math.erfc(hi / s) + 0.5 * math.erfc(-lo / s)
    if tail_mass > 1e-8:
        raise ValidationError(
            f"model grid [{lo:g}, {hi:g}] leaves prior mass {tail_mass:.3e} uncovered"
        )
    return prior.pdf(phis)


def _smoothed(model: DiscreteModel, prior: GaussianPrior):
    """The prior on the grid, as a column, and the smoothed outcome
    probabilities int g(phi) p_phi(x) dphi, by trapezoidal quadrature."""
    g = _prior_on_grid(model, prior)[:, None]
    return g, np.trapezoid(g * model.probs, model.phis, axis=0)


def bayes_best_estimator(model: DiscreteModel, prior: GaussianPrior) -> np.ndarray:
    """Conditional-mean estimator per outcome, by trapezoidal quadrature."""
    g, denom = _smoothed(model, prior)
    num = np.trapezoid(g * model.probs * model.phis[:, None], model.phis, axis=0)
    return np.divide(num, denom, out=np.zeros_like(denom), where=denom >= 1e-300)


def bayes_gaussian_fi(model: DiscreteModel, prior: GaussianPrior) -> float:
    """Fisher information at the origin of the prior-smoothed outcome family.

    Computed directly from quadratures of the smoothed probabilities and,
    independently, from the best-estimator variance identity; a mismatch
    beyond CONSISTENCY_TOL flags quadrature inadequacy.
    """
    g, denom = _smoothed(model, prior)
    num = np.trapezoid(g * np.gradient(model.probs, model.phis, axis=0), model.phis, axis=0)
    est = bayes_best_estimator(model, prior)
    on = denom >= 1e-300
    direct = float(np.sum(num[on] ** 2 / denom[on]))
    via_estimator = float(np.sum(denom[on] * (est[on] / prior.delta_prior ** 2) ** 2))
    mismatch = abs(direct - via_estimator)
    if mismatch > CONSISTENCY_TOL * max(1.0, abs(direct)):
        raise NumericError(
            f"Bayesian Fisher information routes disagree by {mismatch:.3e}; "
            "refine the parameter grid"
        )
    return direct
