"""Standard desk-scale channel and POVM presets."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .operators import (
    HermitianOperator,
    Povm,
    QuantumChannel,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    dagger,
    hermitian_eig,
)


def identity_channel(dim: int) -> QuantumChannel:
    return QuantumChannel((np.eye(dim, dtype=complex),))


def unitary_channel(exponent, angle: float = 1.0) -> QuantumChannel:
    """Single-Kraus channel exp(-i * angle * exponent), exponent Hermitian."""
    h = HermitianOperator(exponent)
    eig = hermitian_eig(h)
    u = eig.eigenvectors @ np.diag(np.exp(-1j * angle * eig.eigenvalues)) @ dagger(eig.eigenvectors)
    return QuantumChannel((u,))


def dephasing_channel(eta: float) -> QuantumChannel:
    """Qubit dephasing; off-diagonals shrink by the factor eta in [0, 1]."""
    if not 0.0 <= eta <= 1.0:
        raise ValidationError(f"dephasing strength must lie in [0, 1], got {eta}")
    k0 = np.sqrt((1.0 + eta) / 2.0) * np.eye(2, dtype=complex)
    k1 = np.sqrt((1.0 - eta) / 2.0) * SIGMA_Z
    return QuantumChannel((k0, k1))


def depolarizing_channel(p: float) -> QuantumChannel:
    """Qubit depolarizing: rho -> (1-p) rho + p I/2."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"depolarizing strength must lie in [0, 1], got {p}")
    k = [np.sqrt(1.0 - 3.0 * p / 4.0) * np.eye(2, dtype=complex)]
    for s in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        k.append(np.sqrt(p / 4.0) * s)
    return QuantumChannel(tuple(k))


def amplitude_damping_channel(gamma: float) -> QuantumChannel:
    """Qubit amplitude damping with decay probability gamma."""
    if not 0.0 <= gamma <= 1.0:
        raise ValidationError(f"damping strength must lie in [0, 1], got {gamma}")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return QuantumChannel((k0, k1))


def compose_channels(*chs: QuantumChannel) -> QuantumChannel:
    """Composition applied left to right: compose(a, b) maps rho -> b(a(rho))."""
    if not chs:
        raise ValidationError("compose_channels needs at least one channel")
    kraus = chs[0].kraus
    for ch in chs[1:]:
        if ch.dim_in != kraus[0].shape[0]:
            raise ValidationError("channel composition dimension mismatch")
        kraus = tuple(k2 @ k1 for k2 in ch.kraus for k1 in kraus)
    return QuantumChannel(kraus)


def basis_povm(dim: int) -> Povm:
    """Computational-basis projective measurement, labelled '0', '1', ..."""
    j = np.arange(dim)
    stack = np.zeros((dim, dim, dim), dtype=complex)
    stack[j, j, j] = 1.0
    return Povm(stack)


def pauli_basis_povm(axis: str) -> Povm:
    """Projective qubit measurement along a Pauli axis ('x', 'y' or 'z')."""
    axis = axis.lower()
    if axis == "z":
        return basis_povm(2)
    if axis == "x":
        s = SIGMA_X
    elif axis == "y":
        s = SIGMA_Y
    else:
        raise ValidationError(f"unknown Pauli axis '{axis}'")
    plus = 0.5 * (np.eye(2, dtype=complex) + s)
    minus = 0.5 * (np.eye(2, dtype=complex) - s)
    return Povm((plus, minus), ("+", "-"))
