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
MAX_GRID_POINTS = 100001  # largest Bayesian parameter grid
GRID_BLOCK = 1024  # grid points per product in model_from_quantum


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
