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
    HermitianOperator,
    Povm,
    PureState,
    QuantumChannel,
    channel_apply,
    dagger,
    haar_state,
)
from .sld import qfi

# 45 x 80 polar/azimuthal qubit grid; the odd polar count puts the equator
# (where covariant-phase optima live) exactly on the grid
BLOCH_GRID_SHAPE = (45, 80)
CONSISTENCY_TOL = 1e-6  # relative disagreement of the two Bayesian routes


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


def bloch_state(theta: float, phi: float) -> PureState:
    return PureState(np.array([math.cos(theta / 2.0),
                               complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2.0)]))


def brute_force_max_qfi(ch: QuantumChannel, h: HermitianOperator,
                        n_samples: int = 10000, seed: int = 0):
    """Max of QFI(Lambda(|psi><psi|)) over Haar samples; for qubits a
    deterministic Bloch-sphere grid is searched as well."""
    if n_samples < 1:
        raise ValidationError("n_samples must be at least 1")
    rng = np.random.default_rng(seed)
    best_val, best_psi = -1.0, None

    def consider(psi):
        nonlocal best_val, best_psi
        val = qfi(channel_apply(ch, psi), h)
        if val > best_val:
            best_val, best_psi = val, psi

    if ch.dim_in == 2:
        n_theta, n_phi = BLOCH_GRID_SHAPE
        for theta in np.linspace(0.0, math.pi, n_theta):
            for phi in np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False):
                consider(bloch_state(theta, phi))
    for _ in range(n_samples):
        consider(haar_state(ch.dim_in, rng))
    return best_val, best_psi


def model_from_quantum(ch: QuantumChannel, h: HermitianOperator, psi: PureState,
                       povm: Povm, phis) -> DiscreteModel:
    """Tabulate p_phi(x) = Tr{Pi_x e^{-i phi H} Lambda(|psi><psi|) e^{i phi H}}."""
    rho = channel_apply(ch, psi).matrix
    lam, v = h.eig.eigenvalues, h.eig.eigenvectors
    rho_eig = dagger(v) @ rho @ v
    els_eig = [dagger(v) @ e @ v for e in povm.elements]
    phis = np.asarray(phis, dtype=float)
    probs = np.empty((len(phis), len(els_eig)))
    for i, phi in enumerate(phis):
        phase = np.exp(-1j * phi * lam)
        rho_phi = (phase[:, None] * rho_eig) * phase.conj()[None, :]
        for x, e in enumerate(els_eig):
            probs[i, x] = float(np.real(np.trace(rho_phi @ e)))
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


def bayes_best_estimator(model: DiscreteModel, prior: GaussianPrior) -> np.ndarray:
    """Conditional-mean estimator per outcome, by trapezoidal quadrature."""
    g = _prior_on_grid(model, prior)
    phis = model.phis
    est = np.zeros(model.probs.shape[1])
    for x in range(model.probs.shape[1]):
        p = model.probs[:, x]
        denom = np.trapezoid(g * p, phis)
        if denom >= 1e-300:
            est[x] = np.trapezoid(g * p * phis, phis) / denom
    return est


def bayes_gaussian_fi(model: DiscreteModel, prior: GaussianPrior) -> float:
    """Fisher information at the origin of the prior-smoothed outcome family.

    Computed directly from quadratures of the smoothed probabilities and,
    independently, from the best-estimator variance identity; a mismatch
    beyond CONSISTENCY_TOL flags quadrature inadequacy.
    """
    g = _prior_on_grid(model, prior)
    phis = model.phis
    dprobs = np.gradient(model.probs, phis, axis=0)
    direct = 0.0
    via_estimator = 0.0
    est = bayes_best_estimator(model, prior)
    var2 = prior.delta_prior ** 2
    for x in range(model.probs.shape[1]):
        p = model.probs[:, x]
        denom = np.trapezoid(g * p, phis)
        if denom < 1e-300:
            continue
        num = np.trapezoid(g * dprobs[:, x], phis)
        direct += num * num / denom
        via_estimator += denom * (est[x] / var2) ** 2
    mismatch = abs(direct - via_estimator)
    if mismatch > CONSISTENCY_TOL * max(1.0, abs(direct)):
        raise NumericError(
            f"Bayesian Fisher information routes disagree by {mismatch:.3e}; "
            "refine the parameter grid"
        )
    return float(direct)
