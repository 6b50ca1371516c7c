"""Shared random-instance generators, matrix helpers and reference
implementations for the test suite."""

import json
from dataclasses import asdict

import numpy as np

from qfimax import (
    DensityMatrix,
    DimensionMismatch,
    HermitianOperator,
    Povm,
    PureState,
    QuantumChannel,
    channel_adjoint_apply,
    objective_g,
    x_moment,
)
from qfimax.operators import _images, _sandwich, _wrap, hermitian_commutator, hermitian_operator, mixture
from qfimax.oracles import _smoothed
from qfimax.problem import OPTIMIZER_FIELDS, encode_array


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


def _expectation(psi, op):
    """<psi|op|psi>, real for the Hermitian op."""
    v = psi.amplitudes
    return float((v.conj() @ op.matrix @ v).real)


def variational_value(psi, x, ch, h):
    """F(Lambda(|psi><psi|), X) = <psi| Lambda^dag(G(X)) |psi>."""
    return _expectation(psi, channel_adjoint_apply(ch, objective_g(x, h)))


def cfi_operator(d, h, povm):
    """-X_2 + 2i[H, X_1] for the estimator coefficients d of the POVM (for
    each row of a stack d): the Schroedinger-picture operator whose
    channel adjoint is the fixed-POVM step's M."""
    x1 = x_moment(d, povm, 1)
    x2 = x_moment(d, povm, 2)
    return hermitian_operator(-x2.matrix + 2j * hermitian_commutator(h.matrix, x1.matrix))


def cfi_objective(psi, d, ch, h, povm):
    """<psi| Lambda^dag(-X_2 + 2i[H, X_1]) |psi> for the estimator
    coefficients d of the POVM."""
    return _expectation(psi, channel_adjoint_apply(ch, cfi_operator(d, h, povm)))


def hs_norm(a):
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(a))


def mixed_state(w):
    """The DensityMatrix sum_k |w_k><w_k| of an (r, d) stack of vectors w_k,
    or one per (r, d) slice of a (b, r, d) stack."""
    return _wrap(DensityMatrix, matrix=mixture(w))


def projector(psi):
    """|psi><psi| as a DensityMatrix."""
    v = psi.amplitudes
    return DensityMatrix(np.outer(v, v.conj()))


def derivative_apply(dch, x):
    """sum_k A_k x B_k^dag for a matrix x, or for |psi><psi| given the
    PureState psi (one matrix per probe of a stack psi)."""
    a, b = dch.stack
    if isinstance(x, PureState):
        v = x.amplitudes
        return _images(a, v).swapaxes(-1, -2) @ _images(b, v).conj()
    return _sandwich(a, x, b)


def pure_state_qfi(psi, h):
    """Closed form 4(<H^2> - <H>^2) for pure probe states."""
    v = psi.amplitudes
    hv = h.matrix @ v
    mean = float(np.real(v.conj() @ hv))
    second = float(np.real(hv.conj() @ hv))
    return 4.0 * max(second - mean * mean, 0.0)


def bayes_best_estimator(model, prior):
    """Conditional-mean estimator per outcome, by trapezoidal quadrature."""
    return _smoothed(model, prior)[2]


def emit_problem(pf):
    """Serialize a problem back to canonical JSON with every operator resolved
    to explicit matrices; re-parsing the output yields the same structure."""
    doc = {
        "dim": pf.dim,
        "generator": encode_array(pf.generator.matrix),
        "channel": {"kraus": encode_array(pf.channel.stack)},
    }
    if pf.povm is not None:
        doc["povm"] = {"elements": encode_array(pf.povm.stack), "labels": list(pf.povm.labels)}
    if pf.input_state is not None:
        doc["input_state"] = encode_array(pf.input_state.amplitudes)
    if pf.derivative_channel is not None:
        pairs = pf.derivative_channel.stack.swapaxes(0, 1)  # [A_k, B_k] pairs
        doc["derivative_channel"] = {"terms": encode_array(pairs)}
    doc["optimizer"] = {k: getattr(pf.optimizer, k) for k in OPTIMIZER_FIELDS}
    if pf.bayes is not None:
        doc["bayes"] = asdict(pf.bayes)
    return json.dumps(doc, indent=2, sort_keys=True)


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
