"""Complex-matrix substrate: Hermitian operators, density matrices, Kraus
channels with adjoint action, POVMs, and eigendecomposition helpers.

All objects are immutable after construction (backing arrays are marked
read-only) and every operation is a pure function, so values are safe to
share across threads.

Construction performs only cheap structural checks (shapes, emptiness).
Semantic invariants (trace preservation, positivity, completeness) are
checked by :func:`validate`, which reports residuals instead of raising,
so that deliberately broken objects can be diagnosed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NumericError, ValidationError

# Default tolerances; every check below takes them as keyword arguments.
EPS_HERM = 1e-12
EPS_PSD = 1e-10
EPS_TP = 1e-10
EPS_TRACE = 1e-12
EPS_NORM = 1e-12

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
for _p in (SIGMA_X, SIGMA_Y, SIGMA_Z):
    _p.setflags(write=False)


def _freeze(a, shape_kind="matrix"):
    m = np.array(a, dtype=complex)
    if shape_kind == "matrix":
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    elif shape_kind == "vector":
        if m.ndim != 1 or m.shape[0] < 1:
            raise ValidationError(f"expected a vector, got shape {m.shape}")
    m.setflags(write=False)
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def hs_norm(a: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(a))


def max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + dagger(a))


@dataclass(frozen=True)
class HermitianOperator:
    """Finite-dimensional self-adjoint operator."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(self.matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def herm_residual(self) -> float:
        return max_abs(self.matrix - dagger(self.matrix))


@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace positive semidefinite operator."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(self.matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class PureState:
    """Normalised state vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _freeze(self.amplitudes, "vector"))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def projector(self) -> DensityMatrix:
        v = self.amplitudes
        return DensityMatrix(np.outer(v, v.conj()))


@dataclass(frozen=True)
class QuantumChannel:
    """Completely positive trace-preserving map in Kraus form.

    Kraus operators are dim_out x dim_in; trace preservation
    (sum_k K_k^dag K_k = 1) is checked by :func:`validate`.
    """

    kraus: tuple

    def __post_init__(self):
        ks = tuple(np.array(k, dtype=complex) for k in self.kraus)
        if not ks:
            raise ValidationError("channel needs at least one Kraus operator")
        shape = ks[0].shape
        if len(shape) != 2:
            raise ValidationError("Kraus operators must be matrices")
        for k in ks:
            if k.shape != shape:
                raise ValidationError("all Kraus operators must share one shape")
            k.setflags(write=False)
        object.__setattr__(self, "kraus", ks)

    @property
    def dim_in(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def dim_out(self) -> int:
        return self.kraus[0].shape[0]


@dataclass(frozen=True)
class DerivativeChannel:
    """Hermiticity-preserving map rho -> sum_k A_k rho B_k^dag.

    Represents the parameter derivative of a trace-preserving channel
    family, supplied as an explicit pair list (no automatic
    differentiation; see :func:`finite_difference_derivative`).
    """

    terms: tuple

    def __post_init__(self):
        ts = []
        for pair in self.terms:
            a, b = pair
            a = np.array(a, dtype=complex)
            b = np.array(b, dtype=complex)
            if a.shape != b.shape or a.ndim != 2:
                raise ValidationError("derivative terms must be matrix pairs of equal shape")
            a.setflags(write=False)
            b.setflags(write=False)
            ts.append((a, b))
        object.__setattr__(self, "terms", tuple(ts))

    @property
    def dim_in(self) -> int:
        if not self.terms:
            raise ValidationError("empty derivative channel has no dimension")
        return self.terms[0][0].shape[1]

    @property
    def dim_out(self) -> int:
        if not self.terms:
            raise ValidationError("empty derivative channel has no dimension")
        return self.terms[0][0].shape[0]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = np.zeros((self.dim_out, self.dim_out), dtype=complex) if self.terms else None
        for a, b in self.terms:
            out += a @ rho @ dagger(b)
        return out


@dataclass(frozen=True)
class Povm:
    """Finite list of positive operators summing to identity."""

    elements: tuple
    labels: tuple = ()

    def __post_init__(self):
        els = tuple(_freeze(e) for e in self.elements)
        if not els:
            raise ValidationError("POVM needs at least one element")
        d = els[0].shape[0]
        for e in els:
            if e.shape[0] != d:
                raise ValidationError("POVM elements must share one dimension")
        labels = tuple(self.labels) if self.labels else tuple(str(i) for i in range(len(els)))
        if len(labels) != len(els):
            raise ValidationError("need exactly one label per POVM element")
        object.__setattr__(self, "elements", els)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues with matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        w = np.array(self.eigenvalues, dtype=float)
        v = np.array(self.eigenvectors, dtype=complex)
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", v)


@dataclass(frozen=True)
class Violation:
    """One failed invariant with its measured residual."""

    invariant: str
    residual: float

    def __str__(self):
        return f"{self.invariant} (residual {self.residual:.3e})"


# ---------------------------------------------------------------------------
# operations


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b] = ab - ba."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"commutator: shapes {a.shape} vs {b.shape}")
    return a @ b - b @ a


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """{a, b} = ab + ba."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"anticommutator: shapes {a.shape} vs {b.shape}")
    return a @ b + b @ a


def channel_apply(ch: QuantumChannel, rho: DensityMatrix) -> DensityMatrix:
    """Schroedinger-picture action sum_k K rho K^dag."""
    if ch.dim_in != rho.dim:
        raise DimensionMismatch(f"channel expects dim {ch.dim_in}, state has dim {rho.dim}")
    out = np.zeros((ch.dim_out, ch.dim_out), dtype=complex)
    for k in ch.kraus:
        out += k @ rho.matrix @ dagger(k)
    return DensityMatrix(hermitian_part(out))


def channel_adjoint_apply(ch: QuantumChannel, a: HermitianOperator) -> HermitianOperator:
    """Heisenberg-picture action sum_k K^dag A K."""
    if ch.dim_out != a.dim:
        raise DimensionMismatch(f"channel adjoint expects dim {ch.dim_out}, operator has dim {a.dim}")
    out = np.zeros((ch.dim_in, ch.dim_in), dtype=complex)
    for k in ch.kraus:
        out += dagger(k) @ a.matrix @ k
    return HermitianOperator(hermitian_part(out))


def derivative_adjoint_apply(
    dch: DerivativeChannel, a: HermitianOperator, eps_herm: float = 1e-8
) -> HermitianOperator:
    """Adjoint action A -> sum_k A_k^dag A B_k, Hermitized.

    The raw adjoint of a genuine channel-family derivative is Hermitian up
    to roundoff; an asymmetry beyond eps_herm signals a bad pair list.
    """
    if not dch.terms:
        raise ValidationError("empty derivative channel")
    if dch.dim_out != a.dim:
        raise DimensionMismatch(
            f"derivative adjoint expects dim {dch.dim_out}, operator has dim {a.dim}"
        )
    out = np.zeros((dch.dim_in, dch.dim_in), dtype=complex)
    for ak, bk in dch.terms:
        out += dagger(ak) @ a.matrix @ bk
    scale = max(1.0, max_abs(out))
    asym = max_abs(out - dagger(out)) / scale
    if asym > eps_herm:
        raise NumericError(f"derivative adjoint is non-Hermitian (relative asymmetry {asym:.3e})")
    return HermitianOperator(hermitian_part(out))


def hermitian_eig(a: HermitianOperator, eps_herm: float = EPS_HERM) -> EigenDecomposition:
    """Eigendecomposition with ascending eigenvalues and a deterministic
    phase convention: the largest-magnitude component of each eigenvector
    is made real and positive (ties broken by lowest index)."""
    if a.herm_residual() > eps_herm * max(1.0, max_abs(a.matrix)):
        raise ValidationError(f"hermitian_eig: input not Hermitian (residual {a.herm_residual():.3e})")
    w, v = np.linalg.eigh(a.matrix)
    v = v.copy()
    for j in range(v.shape[1]):
        k = int(np.argmax(np.abs(v[:, j])))
        pivot = v[k, j]
        if abs(pivot) > 0:
            v[:, j] *= pivot.conjugate() / abs(pivot)
    return EigenDecomposition(w, v)


def max_eigvec(a: HermitianOperator, eps_deg: float = 1e-9):
    """Top eigenvector and a flag for a (near-)degenerate top eigenvalue."""
    eig = hermitian_eig(a)
    w = eig.eigenvalues
    v = eig.eigenvectors[:, -1]
    degenerate = len(w) > 1 and (w[-1] - w[-2]) <= eps_deg
    return PureState(v), degenerate


def haar_state(dim: int, rng: np.random.Generator) -> PureState:
    """Haar-random pure state."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(z / np.linalg.norm(z))


def finite_difference_derivative(family, phi0: float = 0.0, delta: float = 1e-5) -> DerivativeChannel:
    """Central finite-difference derivative of a channel family.

    family is a callable phi -> QuantumChannel; the result represents
    (family(phi0+delta) - family(phi0-delta)) / (2 delta) as a pair list.
    """
    plus = family(phi0 + delta)
    minus = family(phi0 - delta)
    c = 1.0 / (2.0 * delta)
    terms = [(c * k, k) for k in plus.kraus]
    terms += [(-c * k, k) for k in minus.kraus]
    return DerivativeChannel(tuple(terms))


def commuting_derivative(ch: QuantumChannel, h: HermitianOperator) -> DerivativeChannel:
    """Exact derivative at phi=0 of the family e^{-i phi H} ch(.) e^{i phi H}."""
    if ch.dim_out != h.dim:
        raise DimensionMismatch("generator dimension must match channel output dimension")
    terms = []
    for k in ch.kraus:
        hk = -1j * (h.matrix @ k)
        terms.append((hk, k))
        terms.append((k, hk))
    return DerivativeChannel(tuple(terms))


# ---------------------------------------------------------------------------
# validation


def _hermitian_basis(dim: int):
    for j in range(dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[j, j] = 1.0
        yield e
    for j in range(dim):
        for k in range(j + 1, dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[j, k] = e[k, j] = 1.0
            yield e
            e = np.zeros((dim, dim), dtype=complex)
            e[j, k] = -1j
            e[k, j] = 1j
            yield e


def validate(obj, eps_herm: float = EPS_HERM, eps_psd: float = EPS_PSD,
             eps_tp: float = EPS_TP, eps_trace: float = EPS_TRACE,
             eps_norm: float = EPS_NORM):
    """Check all type invariants; return a list of Violation diagnostics.

    Empty list means the object is valid within the given tolerances. A
    non-finite residual (NaN or infinite entries) counts as a violation.
    """
    out = []
    if isinstance(obj, DensityMatrix):
        m = obj.matrix
        r = max_abs(m - dagger(m))
        if not r <= eps_herm:
            out.append(Violation("density matrix hermiticity", r))
        r = abs(float(np.real(np.trace(m))) - 1.0) + abs(float(np.imag(np.trace(m))))
        if not r <= eps_trace:
            out.append(Violation("density matrix unit trace", r))
        wmin = float(np.min(np.linalg.eigvalsh(hermitian_part(m))))
        if not wmin >= -eps_psd:
            out.append(Violation("density matrix positivity", -wmin))
    elif isinstance(obj, HermitianOperator):
        r = obj.herm_residual()
        if not r <= eps_herm:
            out.append(Violation("operator hermiticity", r))
    elif isinstance(obj, PureState):
        r = abs(float(np.linalg.norm(obj.amplitudes)) - 1.0)
        if not r <= eps_norm:
            out.append(Violation("state normalisation", r))
    elif isinstance(obj, QuantumChannel):
        s = np.zeros((obj.dim_in, obj.dim_in), dtype=complex)
        for k in obj.kraus:
            s += dagger(k) @ k
        r = max_abs(s - np.eye(obj.dim_in))
        if not r <= eps_tp:
            out.append(Violation("channel trace preservation", r))
    elif isinstance(obj, Povm):
        s = np.zeros((obj.dim, obj.dim), dtype=complex)
        for lbl, e in zip(obj.labels, obj.elements):
            s += e
            r = max_abs(e - dagger(e))
            if not r <= eps_herm:
                out.append(Violation(f"POVM element '{lbl}' hermiticity", r))
            else:
                wmin = float(np.min(np.linalg.eigvalsh(hermitian_part(e))))
                if not wmin >= -eps_psd:
                    out.append(Violation(f"POVM element '{lbl}' positivity", -wmin))
        r = max_abs(s - np.eye(obj.dim))
        if not r <= eps_tp:
            out.append(Violation("POVM completeness", r))
    elif isinstance(obj, DerivativeChannel):
        if not obj.terms:
            return out
        d = obj.dim_in
        worst_herm = 0.0
        worst_trace = 0.0
        for e in _hermitian_basis(d):
            y = obj.apply(e)
            # np.maximum, unlike max, keeps a NaN residual
            worst_herm = np.maximum(worst_herm, max_abs(y - dagger(y)))
            worst_trace = np.maximum(worst_trace, abs(complex(np.trace(y))))
        if not worst_herm <= 1e-10:
            out.append(Violation("derivative channel hermiticity preservation", worst_herm))
        if not worst_trace <= 1e-10:
            out.append(Violation("derivative channel trace annihilation", worst_trace))
    else:
        raise TypeError(f"validate: unsupported type {type(obj).__name__}")
    return out


def require_valid(obj, what: str = "", **tol):
    """Raise ValidationError listing all violations, if any."""
    violations = validate(obj, **tol)
    if violations:
        label = what or type(obj).__name__
        raise ValidationError(f"invalid {label}: " + "; ".join(str(v) for v in violations))
