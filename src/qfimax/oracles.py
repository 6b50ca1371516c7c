"""Independent ground-truth generators: brute-force pure-state search,
scored by the eigenbasis QFI formula or, for qubit outputs, by its Bloch
closed form; and the Gaussian-prior Bayesian Fisher information with its
deterministic-prior limit.

These deliberately avoid the alternating optimizer's code path so they can
serve as cross-checks for it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .errors import NumericError, ValidationError
from .operators import (
    EPS_RANK,
    HermitianOperator,
    Povm,
    PureState,
    QuantumChannel,
    _wrap,
    channel_apply,
    dagger,
    mixture,
    require_valid,
)
from .optimizer import best_index

# 45 x 80 polar/azimuthal qubit grid; the odd polar count puts the equator
# (where covariant-phase optima live) exactly on the grid
BLOCH_GRID_SHAPE = (45, 80)
CONSISTENCY_TOL = 1e-6  # relative disagreement of the two Bayesian routes
MAX_GRID_POINTS = 100001  # largest Bayesian parameter grid
GRID_BLOCK = 1024  # grid points per product in model_from_quantum
ORACLE_BLOCK_ENTRIES = 1 << 12  # entries per block of formed outputs (d_out > 2) in brute_force_max_qfi


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
        if not np.all(np.isfinite(phis)):
            raise ValidationError("model grid points must be finite")
        row_sums = probs @ np.ones(probs.shape[1])  # one product, not a loop per row
        if not (np.all(probs >= -1e-10) and np.max(np.abs(row_sums - 1.0)) <= 1e-10):  # NaN fails
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


def eigenbasis_qfi(rho: np.ndarray, h: np.ndarray) -> np.ndarray:
    """QFI of each density matrix of the (..., d, d) stack rho for the
    generator matrix h, from rho's eigenbasis (Paris, Int. J. Quantum Inf.
    7, 125 (2009)): F = 2 sum_ij (l_i - l_j)^2 / (l_i + l_j) |<i|H|j>|^2,
    summed over the pairs with l_i + l_j > EPS_RANK * l_max, which are the
    pairs outside the SLD solver's null block at its default eps_rank.
    Internal to brute_force_max_qfi, whose states are not checked again.
    """
    rho = np.asarray(rho)
    lam, v = np.linalg.eigh(rho.reshape((-1,) + rho.shape[-2:]))
    hv = v.conj().swapaxes(1, 2) @ h @ v
    pair = lam[:, :, None] + lam[:, None, :]
    on = pair > EPS_RANK * lam[:, -1:, None]
    terms = (lam[:, :, None] - lam[:, None, :]) ** 2 / np.where(on, pair, 1.0) * np.abs(hv) ** 2
    return 2.0 * np.where(on, terms, 0.0).sum(axis=(1, 2)).reshape(rho.shape[:-2])


def bloch_qfi(w: np.ndarray, h: np.ndarray) -> np.ndarray:
    """QFI of each qubit state rho = sum_k w_k w_k^dag of the (r, 2, ...)
    stack w of Kraus images, probes last (the layout of
    np.matmul(ch.stack, probes.T)), for the 2 x 2 generator matrix h,
    without an eigensolve: with rho = (t 1 + r.sigma)/2 and
    H = h_0 1 + h.sigma, r.dr = 0 and F = 4 |h x r|^2 / t (Zhong et al.,
    Phys. Rev. A 87, 022337 (2013)), eigenbasis_qfi's formula for d = 2,
    read from rho_00, rho_11 and rho_01 formed elementwise. The states are
    not checked, as in eigenbasis_qfi."""
    w0, w1 = w[:, 0], w[:, 1]
    p0 = (w0.real ** 2 + w0.imag ** 2).sum(axis=0)
    p1 = (w1.real ** 2 + w1.imag ** 2).sum(axis=0)
    c = (w0 * w1.conj()).sum(axis=0)  # rho_01 = (r_x - i r_y) / 2
    rx, ry, rz = 2.0 * c.real, -2.0 * c.imag, p0 - p1
    hx, hy, hz = h[0, 1].real, -h[0, 1].imag, 0.5 * (h[0, 0].real - h[1, 1].real)
    cx, cy, cz = hy * rz - hz * ry, hz * rx - hx * rz, hx * ry - hy * rx
    return 4.0 * (cx * cx + cy * cy + cz * cz) / (p0 + p1)


@cache
def bloch_grid() -> np.ndarray:
    """The BLOCH_GRID_SHAPE polar x azimuthal grid of qubit states
    cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>, polar angle slowest, as
    the rows of an (n, 2) array, built once and read-only."""
    n_theta, n_phi = BLOCH_GRID_SHAPE
    theta = np.repeat(np.linspace(0.0, math.pi, n_theta), n_phi) / 2.0
    phi = np.tile(np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False), n_theta)
    grid = np.stack((np.cos(theta), (np.cos(phi) + 1j * np.sin(phi)) * np.sin(theta)), axis=1)
    grid.setflags(write=False)
    return grid


@lru_cache(maxsize=1)
def search_probes(dim_in: int, n_samples: int, seed: int) -> np.ndarray:
    """The probes of brute_force_max_qfi, as the rows of an (n, dim_in)
    array: for qubits the bloch_grid first, then n_samples Haar samples,
    the stream of n_samples haar_state calls on default_rng(seed), for an
    integer seed. Drawn once for the last (dim_in, n_samples, seed) asked
    for; read-only and shared by every caller."""
    if n_samples < 1:
        raise ValidationError("n_samples must be at least 1")
    # an integer seed: a Generator would be kept by identity and never drawn from again
    z = np.random.default_rng(operator.index(seed)).standard_normal((n_samples, 2, dim_in))
    z = z[:, 0] + 1j * z[:, 1]
    probes = z / np.linalg.norm(z, axis=1, keepdims=True)
    if dim_in == 2:
        probes = np.concatenate((bloch_grid(), probes))
    probes.setflags(write=False)
    return probes


def brute_force_max_qfi(ch: QuantumChannel, h: HermitianOperator,
                        n_samples: int = 10000, seed: int = 0):
    """Max of QFI(Lambda(|psi><psi|)) over the search_probes: Haar samples,
    after a deterministic Bloch-sphere grid for qubit inputs.

    ch and h must be valid. A qubit output is scored from the Kraus images
    of all probes at once by the closed form bloch_qfi, with no eigensolve
    and no output formed. A larger output is formed and scored by
    eigenbasis_qfi, in blocks of outputs of at most ORACLE_BLOCK_ENTRIES
    entries. The best probe (best_index) is returned, with its value.
    """
    for obj in (ch, h):
        require_valid(obj)
    probes = search_probes(ch.dim_in, n_samples, seed)
    if ch.dim_out == 2:
        values = bloch_qfi(np.matmul(ch.stack, probes.T), h.matrix)
    else:
        block = max(1, ORACLE_BLOCK_ENTRIES // ch.dim_out ** 2)
        values = np.empty(len(probes))
        for start in range(0, len(probes), block):
            w = np.matmul(ch.stack, probes[start:start + block].T).transpose(2, 0, 1)
            values[start:start + block] = eigenbasis_qfi(mixture(w), h.matrix)
    i = best_index(values)
    return float(values[i]), PureState(probes[i])


def model_from_quantum(ch: QuantumChannel, h: HermitianOperator, psi: PureState,
                       povm: Povm, phis) -> DiscreteModel:
    """Tabulate p_phi(x) = Tr{Pi_x e^{-i phi H} Lambda(|psi><psi|) e^{i phi H}}.

    In the eigenbasis of H, with eigenvalues lam, this is
    Re sum_ab exp(-i phi (lam_a - lam_b)) C_x[a, b] with C_x[a, b] =
    rho_ab (Pi_x)_ba. Since C_x[b, a] = conj C_x[a, b], it is
    sum_a Re C_x[a, a] plus, over the pairs a < b,
    2 (cos(phi g) Re C_x[a, b] + sin(phi g) Im C_x[a, b]) with
    g = lam_a - lam_b: d(d-1)/2 angles per grid point, and two products
    per block of GRID_BLOCK grid points. ch, h, psi and povm must be valid
    and phis finite, on one axis; the rows, built from them, are not checked.
    """
    for obj in (h, povm):
        require_valid(obj)
    phis = np.array(phis, dtype=float)
    if phis.ndim != 1 or not np.all(np.isfinite(phis)):
        raise ValidationError("model grid points must be finite, on one axis")
    rho = channel_apply(ch, psi).matrix
    lam, v = h.eig.eigenvalues, h.eig.eigenvectors
    vd = dagger(v)
    c = (vd @ rho @ v) * (vd @ povm.stack @ v).swapaxes(1, 2)
    a, b = np.triu_indices(len(lam), 1)
    diagonal = np.trace(c, axis1=1, axis2=2).real
    pairs = 2.0 * c[:, a, b].T  # (pairs, outcomes)
    gaps = lam[a] - lam[b]
    probs = np.empty((len(phis), len(c)))
    for start in range(0, len(phis), GRID_BLOCK):
        angle = np.outer(phis[start:start + GRID_BLOCK], gaps)
        probs[start:start + GRID_BLOCK] = (np.cos(angle) @ pairs.real + np.sin(angle) @ pairs.imag
                                           + diagonal)
    if not np.all(np.isfinite(probs)):
        raise NumericError("model probabilities are not finite")
    return _wrap(DiscreteModel, phis=phis, probs=probs)


def _smoothed(model: DiscreteModel, prior: GaussianPrior):
    """The prior on the grid, as a column, the smoothed outcome
    probabilities int g(phi) p_phi(x) dphi and the conditional-mean
    estimator per outcome, by trapezoidal quadrature, once the grid is
    checked to leave at most 1e-8 of the prior's mass uncovered."""
    phis = model.phis
    lo, hi = float(phis[0]), float(phis[-1])
    s = prior.delta_prior * math.sqrt(2.0)
    tail_mass = 0.5 * math.erfc(hi / s) + 0.5 * math.erfc(-lo / s)
    if tail_mass > 1e-8:
        raise ValidationError(f"model grid [{lo:g}, {hi:g}] leaves prior mass {tail_mass:.3e} uncovered")
    g = prior.pdf(phis)[:, None]
    denom = np.trapezoid(g * model.probs, phis, axis=0)
    num = np.trapezoid(g * model.probs * phis[:, None], phis, axis=0)
    return g, denom, np.divide(num, denom, out=np.zeros_like(denom), where=denom >= 1e-300)


def bayes_gaussian_fi(model: DiscreteModel, prior: GaussianPrior) -> float:
    """Fisher information at the origin of the prior-smoothed outcome family.

    Computed directly from quadratures of the smoothed probabilities and,
    independently, from the best-estimator variance identity; a mismatch
    beyond CONSISTENCY_TOL flags quadrature inadequacy.
    """
    g, denom, est = _smoothed(model, prior)
    num = np.trapezoid(g * np.gradient(model.probs, model.phis, axis=0), model.phis, axis=0)
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
