"""Output checks computed apart from qfimax, with numpy alone.

Each check returns a list of error strings; an empty list means it passed.
"""

from __future__ import annotations

import numpy as np

# Eigenvalue pairs with lambda_i + lambda_j at or below this share of
# lambda_max are treated as outside the support of rho.
SUPPORT_THRESHOLD = 1e-10
# Rounding allowance for "non-decreasing" and "at most" comparisons.
ROUNDOFF = 1e-12

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
HALF_SIGMA_Z = 0.5 * SIGMA_Z


def channel_output(kraus, psi) -> np.ndarray:
    """sum_k K |psi><psi| K^dag."""
    w = np.stack([k @ psi for k in kraus], axis=1)
    return w @ w.conj().T


def independent_qfi(rho: np.ndarray, h: np.ndarray) -> float:
    """F = 2 sum_{lambda_i + lambda_j > 0} (lambda_i - lambda_j)^2 / (lambda_i + lambda_j)
    |<i|H|j>|^2 (Paris, Int. J. Quantum Inf. 7, 125 (2009))."""
    lam, v = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    h_eig = v.conj().T @ h @ v
    total = lam[:, None] + lam[None, :]
    on = total > SUPPORT_THRESHOLD * lam[-1]
    terms = (lam[:, None] - lam[None, :]) ** 2 / np.where(on, total, 1.0) * np.abs(h_eig) ** 2
    return float(2.0 * np.sum(terms[on]))


def independent_cfi(rho: np.ndarray, h: np.ndarray, povm) -> float:
    """sum_x dp(x)^2 / p(x) with p = Tr{rho Pi_x}, dp = Tr{-i[H, rho] Pi_x}."""
    drho = -1j * (h @ rho - rho @ h)
    p = np.array([np.real(np.trace(rho @ e)) for e in povm])
    dp = np.array([np.real(np.trace(drho @ e)) for e in povm])
    on = p > ROUNDOFF  # outcomes that never occur carry no information
    return float(np.sum(dp[on] ** 2 / p[on]))


def spread_bound(h: np.ndarray) -> float:
    """(lambda_max(H) - lambda_min(H))^2, the largest QFI any state can reach."""
    lam = np.linalg.eigvalsh(h)
    return float((lam[-1] - lam[0]) ** 2)


def close(a: float, b: float, tol: float, what: str) -> list:
    if abs(a - b) <= tol * max(1.0, abs(b)):
        return []
    return [f"{what}: {a!r} differs from {b!r} by more than {tol:g} relative"]


def at_most(a: float, b: float, what: str) -> list:
    if a <= b + ROUNDOFF * max(1.0, abs(b)):
        return []
    return [f"{what}: {a!r} exceeds {b!r}"]


def monotone(fs) -> list:
    fs = list(fs)
    for n in range(1, len(fs)):
        if fs[n] < fs[n - 1] - ROUNDOFF * max(1.0, abs(fs[n - 1])):
            return [f"trace decreases at iteration {n}: {fs[n - 1]!r} -> {fs[n]!r}"]
    return []


def sld_residual(l_matrix: np.ndarray, rho: np.ndarray, h: np.ndarray) -> float:
    """Frobenius norm of (1/2){L, rho} + i[H, rho]."""
    r = 0.5 * (l_matrix @ rho + rho @ l_matrix) + 1j * (h @ rho - rho @ h)
    return float(np.linalg.norm(r))


def solve_checks(fs, psi, kraus, h, qfi_route: bool) -> list:
    """Checks on one solve: monotone trace, f* <= spread bound, and f* equal
    to (qfi routes) or at most (cfi route) the independent QFI at psi*."""
    f_star = fs[-1]
    errors = monotone(fs)
    errors += at_most(f_star, spread_bound(h), "f* against (lambda_max - lambda_min)^2")
    f_ind = independent_qfi(channel_output(kraus, psi), h)
    if qfi_route:
        errors += close(f_star, f_ind, 1e-8, "f* against the independent QFI at psi*")
    else:
        errors += at_most(f_star, f_ind + 1e-8 * max(1.0, f_ind), "CFI f* against the QFI at psi*")
    return errors


# ---------------------------------------------------------------------------
# closed forms for the bundled qubit problems (H = sigma_z / 2)


def qubit_preset_kraus(spec: dict) -> list:
    """Kraus operators of a qubit channel preset, written out independently."""
    name = spec["preset"]
    params = spec.get("params", {})
    if name == "identity":
        return [np.eye(2, dtype=complex)]
    if name == "dephasing":
        eta = params["eta"]
        return [np.sqrt((1 + eta) / 2) * np.eye(2, dtype=complex), np.sqrt((1 - eta) / 2) * SIGMA_Z]
    if name == "amplitude-damping":
        g = params["gamma"]
        return [np.array([[1, 0], [0, np.sqrt(1 - g)]], dtype=complex),
                np.array([[0, np.sqrt(g)], [0, 0]], dtype=complex)]
    raise ValueError(f"no closed form for channel preset {name!r}")


def max_qfi_closed_form(spec: dict) -> float:
    """Maximum QFI for H = sigma_z / 2: 1 (identity), eta^2 (dephasing),
    1 - gamma (amplitude damping)."""
    name = spec["preset"]
    params = spec.get("params", {})
    if name == "identity":
        return 1.0
    if name == "dephasing":
        return params["eta"] ** 2
    if name == "amplitude-damping":
        return 1.0 - params["gamma"]
    raise ValueError(f"no closed form for channel preset {name!r}")


def qubit_povm(spec: dict) -> list:
    axis = {"sigma_y": SIGMA_Y, "sigma_z": SIGMA_Z}[spec["preset"]]
    eye = np.eye(2, dtype=complex)
    return [0.5 * (eye + axis), 0.5 * (eye - axis)]


def decode(entries) -> np.ndarray:
    return np.array(entries, dtype=float).view(complex)[..., 0]
