"""Shared random-instance generators and matrix helpers for the test suite."""

import numpy as np

from qfimax import DensityMatrix, DimensionMismatch, HermitianOperator, Povm, QuantumChannel


def commutator(a, b):
    """[a, b] = ab - ba."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"commutator: shapes {a.shape} vs {b.shape}")
    return a @ b - b @ a


def anticommutator(a, b):
    """{a, b} = ab + ba."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"anticommutator: shapes {a.shape} vs {b.shape}")
    return a @ b + b @ a


def hs_norm(a):
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(a))


def random_hermitian(dim, rng, scale=1.0):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator(scale * 0.5 * (g + g.conj().T))


def random_density(dim, rng, rank=None):
    rank = rank or dim
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_channel(dim, rng, n_kraus=None):
    """Random CPTP map from a Haar-ish isometry (QR of a Gaussian block)."""
    k = n_kraus or dim
    g = rng.standard_normal((k * dim, dim)) + 1j * rng.standard_normal((k * dim, dim))
    q, _ = np.linalg.qr(g)
    return QuantumChannel(tuple(q[i * dim:(i + 1) * dim, :] for i in range(k)))


def random_unitary(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_povm(dim, rng, n_outcomes=None):
    """Random POVM via symmetrization: Pi_i = S^{-1/2} A_i S^{-1/2}."""
    m = n_outcomes or dim + 1
    mats = []
    for _ in range(m):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        mats.append(g @ g.conj().T)
    s = sum(mats)
    w, v = np.linalg.eigh(s)
    s_isqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    return Povm(tuple(s_isqrt @ a @ s_isqrt for a in mats))
