"""Complex-matrix substrate: Hermitian operators, density matrices, Kraus
channels with adjoint action, POVMs, and eigendecomposition helpers.

All objects are immutable after construction (backing arrays are marked
read-only) and every operation is a pure function, so values are safe to
share across threads.

Construction performs only cheap structural checks (shapes, emptiness).
Semantic invariants (trace preservation, positivity, completeness) are
checked by :func:`validate`, which reports residuals instead of raising,
so that deliberately broken objects can be diagnosed; an entry point
requires its inputs valid (:func:`require_valid`), not what it builds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NumericError, ValidationError

# Tolerances of the checks below, then the solvers' default cuts.
EPS_HERM = 1e-12
EPS_PSD = 1e-10
EPS_TP = 1e-10
EPS_TRACE = 1e-12
EPS_NORM = 1e-12
EPS_DERIVATIVE = 1e-10  # both residuals of a derivative map
EPS_ADJOINT_HERM = 1e-8  # relative asymmetry of a derivative map's adjoint
EPS_RANK = 1e-12  # eigenvalues (and pair sums) at most this times the largest are off rho's support
EPS_DEG = 1e-9  # eigenvalues closer than this are degenerate

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
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def max_abs(a: np.ndarray) -> float:
    return float(np.abs(a).max()) if a.size else 0.0


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + dagger(a))


def _wrap(cls, **values):
    """An instance of the frozen dataclass cls holding values the library
    has just computed, its arrays made read-only in place: no copy and no
    shape check, unlike the public constructors, which copy what a caller
    passes in. Arrays may carry a leading batch axis: one value per probe
    of a stack."""
    obj = object.__new__(cls)
    for name, a in values.items():
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
        object.__setattr__(obj, name, a)
    return obj


def _unbatched(a):
    """a, a result per slice of a stack, as a Python scalar when the input
    had no batch axis (a is 0-d)."""
    return a.item() if a.ndim == 0 else a


def hermitian_operator(a: np.ndarray) -> "HermitianOperator":
    """The HermitianOperator hermitian_part(a), without a copy. It is
    exactly Hermitian, so hermitian_eig does not check it again."""
    return _checked_hermitian(hermitian_part(a))


def _checked_hermitian(m: np.ndarray) -> "HermitianOperator":
    """HermitianOperator of a matrix whose Hermiticity the library has
    already established, without a copy."""
    return _wrap(HermitianOperator, matrix=m, _valid=True)


@dataclass(frozen=True)
class HermitianOperator:
    """Finite-dimensional self-adjoint operator."""

    matrix: np.ndarray
    # True on an operator that require_valid passed or the library made
    # exactly Hermitian (not a field); hermitian_eig checks only the others
    _valid = False

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(self.matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    def herm_residual(self) -> float:
        return max_abs(self.matrix - dagger(self.matrix))

    @cached_property
    def eig(self) -> "EigenDecomposition":
        """hermitian_eig of this operator, computed on first use and kept
        (the operator is immutable)."""
        return hermitian_eig(self)

    def eigenspaces(self, eps: float) -> tuple:
        """eigenspace_groups of this operator at resolution eps, computed
        once per eps and kept (the operator is immutable)."""
        cache = self.__dict__.setdefault("_eigenspaces", {})
        if eps not in cache:
            cache[eps] = eigenspace_groups(self.eig, eps)
        return cache[eps]


@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace positive semidefinite operator."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(self.matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]


@dataclass(frozen=True)
class PureState:
    """Normalised state vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _freeze(self.amplitudes, "vector"))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[-1]

    def projector(self) -> DensityMatrix:
        v = self.amplitudes
        return DensityMatrix(np.outer(v, v.conj()))


def _frozen_stack(stack, ndim: int, msg: str) -> np.ndarray:
    """Read-only complex copy of `stack`, a (nested) sequence of matrices,
    after checking that they have one shape: the copy must have `ndim` axes."""
    try:
        out = np.array(stack, dtype=complex)
    except (TypeError, ValueError):  # ragged, or not numbers
        raise ValidationError(msg) from None
    if out.ndim != ndim:
        raise ValidationError(msg)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class QuantumChannel:
    """Completely positive trace-preserving map in Kraus form.

    Kraus operators are dim_out x dim_in and are stored once, as the
    read-only (r, dim_out, dim_in) array `stack`; `kraus` is a tuple of
    views into it. Trace preservation (sum_k K_k^dag K_k = 1) is checked
    by :func:`validate`.
    """

    kraus: tuple
    stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not len(self.kraus):
            raise ValidationError("channel needs at least one Kraus operator")
        if np.ndim(self.kraus[0]) != 2:
            raise ValidationError("Kraus operators must be matrices")
        stack = _frozen_stack(self.kraus, 3, "all Kraus operators must share one shape")
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "kraus", tuple(stack))

    @property
    def dim_in(self) -> int:
        return self.stack.shape[2]

    @property
    def dim_out(self) -> int:
        return self.stack.shape[1]


@dataclass(frozen=True)
class DerivativeChannel:
    """Hermiticity-preserving map rho -> sum_k A_k rho B_k^dag.

    Represents the parameter derivative of a trace-preserving channel
    family, supplied as an explicit, non-empty pair list (no automatic
    differentiation; see :func:`finite_difference_derivative`). The pairs
    are stored once, as the read-only (2, r, dim_out, dim_in) array
    `stack` (stack[0] holds the A_k, stack[1] the B_k); `terms` is a tuple
    of (A_k, B_k) views into it.
    """

    terms: tuple
    stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        msg = "derivative terms must be matrix pairs of equal shape"
        pairs = [tuple(pair) for pair in self.terms]
        if not pairs:
            raise ValidationError("derivative channel needs at least one pair")
        if any(len(pair) != 2 for pair in pairs):
            raise ValidationError(msg)
        stack = _frozen_stack(tuple(zip(*pairs)), 4, msg)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "terms", tuple(zip(stack[0], stack[1])))

    @property
    def dim_in(self) -> int:
        return self.stack.shape[3]

    @property
    def dim_out(self) -> int:
        return self.stack.shape[2]

    def apply(self, rho: np.ndarray | PureState) -> np.ndarray:
        """sum_k A_k rho B_k^dag for a matrix rho, or for |psi><psi| given
        the PureState psi (one matrix per probe of a stack psi)."""
        a, b = self.stack
        if isinstance(rho, PureState):
            v = rho.amplitudes
            return _images(a, v).swapaxes(-1, -2) @ _images(b, v).conj()
        return _sandwich(a, rho, b)


def _derivative_channel(stack: np.ndarray) -> DerivativeChannel:
    """The DerivativeChannel of a (2, p, dim_out, dim_in) pair stack the
    library has just made, held read-only without a copy or a check."""
    stack.setflags(write=False)  # first: the views in terms inherit the flag
    return _wrap(DerivativeChannel, terms=tuple(zip(stack[0], stack[1])), stack=stack)


@dataclass(frozen=True)
class Povm:
    """Finite list of positive operators summing to identity.

    Elements are stored once, as the read-only square (n, dim, dim) array
    `stack`; `elements` is a tuple of views into it. Positivity and
    completeness are checked by :func:`validate`.
    """

    elements: tuple
    labels: tuple = ()
    stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not len(self.elements):
            raise ValidationError("POVM needs at least one element")
        stack = _frozen_stack(self.elements, 3, "POVM elements must be matrices of one shape")
        if stack.shape[1] != stack.shape[2] or not stack.shape[1]:
            raise ValidationError(
                f"POVM elements must be square matrices, got shape {stack.shape[1:]}")
        labels = tuple(self.labels) if self.labels else tuple(map(str, range(len(stack))))
        if len(labels) != len(stack):
            raise ValidationError("need exactly one label per POVM element")
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "elements", tuple(stack))
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.stack.shape[1]


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues with matching orthonormal eigenvector columns,
    as hermitian_eig returns them (read-only)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class FactoredOperator:
    """The Hermitian operator sum_k C_k^dag g C_k on C^n, held as the
    (r, m, n) stack `factors` of the C_k and the m x m Hermitian `core` g,
    without forming it: the compressed step's M (optimizer._update), with
    C_k = [Q^dag K_k; Q^dag F_k] for an isometry Q. Either may carry a
    leading batch axis, one operator per probe of a stack."""

    factors: np.ndarray
    core: HermitianOperator

    def __post_init__(self):
        if self.factors.ndim < 3 or self.factors.shape[-2] != self.core.dim:
            raise DimensionMismatch(
                f"factors of shape {self.factors.shape} do not match a core of dim {self.core.dim}")

    @property
    def dim(self) -> int:
        return self.factors.shape[-1]


@dataclass(frozen=True)
class Violation:
    """One failed invariant with its measured residual."""

    invariant: str
    residual: float

    def __str__(self):
        return f"{self.invariant} (residual {self.residual:.3e})"


# ---------------------------------------------------------------------------
# operations


def hermitian_commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b] for Hermitian a and b, from one product: ab - (ab)^dag,
    which is exactly anti-Hermitian."""
    ab = a @ b
    return ab - dagger(ab)


def _stack_times(stack: np.ndarray, x: np.ndarray) -> np.ndarray:
    """K_k x for every matrix K_k of an (r, m, n) stack and every matrix x
    of a (..., n, p) stack, as one product with the stack flattened to
    (r*m, n); shape (..., r, m, p)."""
    r, m, n = stack.shape
    return (stack.reshape(r * m, n) @ x).reshape(x.shape[:-2] + (r, m, x.shape[-1]))


def _images(stack: np.ndarray, v: np.ndarray) -> np.ndarray:
    """K_k v for every matrix K_k of an (r, m, n) stack and every vector v
    of a (..., n) stack; shape (..., r, m)."""
    return _stack_times(stack, v[..., None])[..., 0]


def _sandwich(a: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k A_k x B_k^dag for (r, m, n) stacks a and b."""
    return np.tensordot(_stack_times(a, x), b.conj(), axes=([0, 2], [0, 2]))


def _adjoint_sandwich(a: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(sum_k A_k^dag x B_k)^dag = sum_k B_k^dag x^dag A_k for (r, m, n)
    stacks a and b and an m x m matrix x, each possibly with a leading
    batch axis: one batched product x B_k and one product with the
    flattened A stack, without a conjugated copy of either stack."""
    r, m, n = a.shape[-3:]
    y = np.matmul(x[..., None, :, :], b)
    y = np.conj(y, out=y).reshape(y.shape[:-3] + (r * m, n))
    return y.swapaxes(-1, -2) @ a.reshape(a.shape[:-3] + (r * m, n))


def _kraus_gram(stack: np.ndarray) -> np.ndarray:
    """sum_k K_k^dag K_k for an (r, m, n) stack, or one such sum per slice
    of a (..., r, m, n) stack: one real product x^T x per slice of the
    flattened stack's (re, im) view x, no conjugated copy. numpy runs
    x^T x as a symmetric rank-k update, whose result is exactly symmetric,
    so the sum is exactly Hermitian."""
    n = stack.shape[-1]
    x = stack.reshape(stack.shape[:-3] + (-1, n)).view(float)  # columns re K[:, 0], im K[:, 0], ...
    p = (x.swapaxes(-1, -2) @ x).reshape(x.shape[:-2] + (n, 2, n, 2))
    return (p[..., 0, :, 0] + p[..., 1, :, 1]) + 1j * (p[..., 0, :, 1] - p[..., 1, :, 0])


def kraus_images(ch: QuantumChannel, psi: PureState) -> np.ndarray:
    """The (r, dim_out) stack of the vectors w_k = K_k psi, so that
    Lambda(|psi><psi|) = W W^dag with the w_k as the columns of W; one
    such stack per probe, (b, r, dim_out), for a (b, dim_in) stack psi."""
    if ch.dim_in != psi.dim:
        raise DimensionMismatch(f"channel expects dim {ch.dim_in}, state has dim {psi.dim}")
    return _images(ch.stack, psi.amplitudes)


def mixture(w: np.ndarray) -> DensityMatrix:
    """sum_k |w_k><w_k| for an (r, d) stack of vectors w_k, or one such
    sum per (r, d) slice of a (b, r, d) stack."""
    return _wrap(DensityMatrix, matrix=hermitian_part(w.swapaxes(-1, -2) @ w.conj()))


def channel_apply(ch: QuantumChannel, rho: DensityMatrix | PureState) -> DensityMatrix:
    """Schroedinger-picture action sum_k K rho K^dag of a DensityMatrix
    rho, or of |psi><psi| given the PureState psi, which is computed as
    W W^dag from its kraus_images W; a state, marked valid, as ch and rho
    are required valid."""
    require_valid(ch, "channel")
    require_valid(rho, "input state")
    if isinstance(rho, PureState):
        m = mixture(kraus_images(ch, rho)).matrix
    elif ch.dim_in != rho.dim:
        raise DimensionMismatch(f"channel expects dim {ch.dim_in}, state has dim {rho.dim}")
    else:
        m = hermitian_part(_sandwich(ch.stack, rho.matrix, ch.stack))
    return _wrap(DensityMatrix, matrix=m, _valid=True)


def channel_adjoint_apply(ch: QuantumChannel, a: HermitianOperator) -> HermitianOperator:
    """Heisenberg-picture action sum_k K^dag A K (of each A of a stack)."""
    if ch.dim_out != a.dim:
        raise DimensionMismatch(f"channel adjoint expects dim {ch.dim_out}, operator has dim {a.dim}")
    # the Hermitian part of the dagger is the Hermitian part of the sum
    return hermitian_operator(_adjoint_sandwich(ch.stack, a.matrix, ch.stack))


def derivative_adjoint_apply(dch: DerivativeChannel, a: HermitianOperator) -> HermitianOperator:
    """Adjoint action A -> sum_k A_k^dag A B_k, Hermitized.

    The raw adjoint X of a genuine channel-family derivative is Hermitian
    up to roundoff; a relative asymmetry max |X - X^dag| / max(1, max |X|)
    (the largest over a stack) beyond EPS_ADJOINT_HERM signals a bad pair
    list.
    """
    if dch.dim_out != a.dim:
        raise DimensionMismatch(
            f"derivative adjoint expects dim {dch.dim_out}, operator has dim {a.dim}"
        )
    # the dagger of the sum has the same asymmetry and Hermitian part
    out = _adjoint_sandwich(dch.stack[0], a.matrix, dch.stack[1])
    size = np.maximum(1.0, np.abs(out).max(axis=(-2, -1)))
    asym = np.max(np.abs(out - dagger(out)).max(axis=(-2, -1)) / size)
    if not asym <= EPS_ADJOINT_HERM:  # a NaN asymmetry fails
        raise NumericError(f"derivative adjoint is non-Hermitian (relative asymmetry {asym:.3e})")
    return hermitian_operator(out)


def _phase_fixed(v: np.ndarray) -> np.ndarray:
    """The unit vectors v (one along the last axis of v, or per row of a
    stack), each multiplied by the phase that makes its largest-magnitude
    component real and positive (ties broken by lowest index). A unit
    vector's largest component is nonzero; a NaN vector stays NaN."""
    # argmax returns the lowest index among tied magnitudes
    rows = np.abs(v).argmax(axis=-1)
    pivot = v.reshape(-1, v.shape[-1])[np.arange(rows.size), rows.ravel()]
    pivot = pivot.reshape(rows.shape + (1,))
    # hypot rounds as the scalar abs() does; np.abs of complex may differ by an ulp
    return v * (pivot.conj() / np.hypot(pivot.real, pivot.imag))


def _eigh(a: HermitianOperator) -> tuple:
    """Ascending eigenvalues and orthonormal eigenvector columns of a (of
    each matrix of a stack), in no phase convention: for callers that read
    no eigenvector's phase, or fix it on the columns they keep. An operator
    the library made is known to be Hermitian; any other is checked."""
    if not a._valid and a.herm_residual() > EPS_HERM * max(1.0, max_abs(a.matrix)):
        raise ValidationError(f"hermitian_eig: input not Hermitian (residual {a.herm_residual():.3e})")
    return np.linalg.eigh(a.matrix)


def hermitian_eig(a: HermitianOperator) -> EigenDecomposition:
    """Eigendecomposition with ascending eigenvalues and a deterministic
    phase convention: the largest-magnitude component of each eigenvector
    is made real and positive (ties broken by lowest index); one per
    matrix of a stack. An operator the library made is known to be
    Hermitian; any other is checked."""
    w, v = _eigh(a)
    v = _phase_fixed(v.swapaxes(-1, -2)).swapaxes(-1, -2)  # the eigenvectors, columns of v, as rows
    return _wrap(EigenDecomposition, eigenvalues=w, eigenvectors=v)


def eigenspace_groups(eig: EigenDecomposition, eps: float):
    """(starts, v_conj, upper) of an operator's eigenspaces at resolution
    eps: ascending eigenvalues closer than eps to their neighbour share a
    group, so each group is a run of eigenvector columns, and starts holds
    the index of each run's first column; v_conj is the conjugated
    eigenvector matrix and upper the mask of its strict upper triangle."""
    lam = eig.eigenvalues
    starts = np.flatnonzero(np.concatenate(([True], np.diff(lam) > eps)))
    return starts, eig.eigenvectors.conj(), np.triu(np.ones((len(lam), len(lam)), dtype=bool), 1)


def max_eigvec(a: HermitianOperator | FactoredOperator, eps_deg: float = EPS_DEG):
    """Top eigenvector and a flag for a (near-)degenerate top eigenvalue;
    for an operator with a leading batch axis, a stack of them and an
    array of flags, one per operator.

    A FactoredOperator sum_k C_k^dag g C_k ((r, m, n) stack C) with
    r*m < n is not formed: with the thin QR C^dag = P R of the flattened
    (r*m, n) stack, it is P S P^dag with S = R (1_r (x) g) R^dag, so its
    eigenvalues are those of the (r*m)-sized S and the 0 of the kernel of
    C, of dimension n - r*m. Its top eigenvector is P u for the top
    eigenvector u of S or, when every eigenvalue of S is negative, the
    first kernel column of the complete QR of C^dag. The degeneracy flag
    counts the kernel's 0. Either way the vector returned is phase-fixed
    as hermitian_eig does, and only that vector is.
    """
    if isinstance(a, FactoredOperator):
        r, m, n = a.factors.shape[-3:]
        if r * m >= n:
            a = hermitian_operator(_adjoint_sandwich(a.factors, a.core.matrix, a.factors))
        else:
            cd = dagger(a.factors.reshape(a.factors.shape[:-3] + (r * m, n)))
            p, rr = np.linalg.qr(cd)
            gr = a.core.matrix[..., None, :, :] @ dagger(rr).reshape(rr.shape[:-2] + (r, m, r * m))
            s = rr @ gr.reshape(gr.shape[:-3] + (r * m, r * m))
            w, u = _eigh(hermitian_operator(s))
            v = p @ u[..., -1:]
            degenerate = w[..., -1] - w[..., -2:-1].max(axis=-1, initial=0.0) <= eps_deg
            kernel = ~(w[..., -1] >= 0.0)  # the top eigenvalue is the kernel's 0
            if kernel.any():
                q = np.linalg.qr(cd, mode="complete")[0][..., r * m:r * m + 1]
                v = np.where(kernel[..., None, None], q, v)
                degenerate = np.where(kernel, (n - r * m > 1) | (-w[..., -1] <= eps_deg), degenerate)
            return _wrap(PureState, amplitudes=_phase_fixed(v[..., 0])), _unbatched(degenerate)
    w, v = _eigh(a)
    # a 1 x 1 operator's only eigenvalue is not degenerate
    degenerate = w[..., -1] - w[..., -2] <= eps_deg if a.dim > 1 else np.zeros(w.shape[:-1], bool)
    return _wrap(PureState, amplitudes=_phase_fixed(v[..., -1])), _unbatched(degenerate)


def haar_state(dim: int, rng: np.random.Generator) -> PureState:
    """Haar-random pure state."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(z / np.linalg.norm(z))


def finite_difference_derivative(family, phi0: float = 0.0, delta: float = 1e-5) -> DerivativeChannel:
    """Central finite-difference derivative of a channel family.

    family is a callable phi -> QuantumChannel; the result represents
    (family(phi0+delta) - family(phi0-delta)) / (2 delta) as a pair list.
    """
    if not delta > 0:
        raise ValidationError(f"finite-difference step must be positive, got {delta!r}")
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
    hk = -1j * (h.matrix @ ch.stack)
    # pairs (-iHK_k, K_k), (K_k, -iHK_k) in that order, built in place
    stack = np.empty((2, 2 * len(hk)) + hk.shape[1:], dtype=complex)
    stack[0, 0::2] = stack[1, 1::2] = hk
    stack[0, 1::2] = stack[1, 0::2] = ch.stack
    return _derivative_channel(stack)


# ---------------------------------------------------------------------------
# validation


def _derivative_residuals(a: np.ndarray, b: np.ndarray):
    """Largest Hermiticity and trace residuals of Phi = sum_k A_k . B_k^dag
    ((r, m, n) stacks a, b) over the Hermitian basis E_jj, E_jk + E_kj,
    -i E_jk + i E_kj (j < k), from matrix units: Tr Phi(E_jk) = Q_kj with
    Q = sum_k B_k^dag A_k, and Phi(X) - Phi(X)^dag is U_jj, U_jk -+ U_jk^dag
    with U_jk = Phi(E_jk) - Phi(E_kj)^dag, formed one column j at a time."""
    r, m, n = a.shape
    q = b.reshape(r * m, n).conj().T @ a.reshape(r * m, n)
    trace = np.max([max_abs(np.diag(q)), max_abs(np.triu(q + q.T, 1)), max_abs(q - q.T)])
    ac, bc = a.conj(), b.conj()
    herm = 0.0
    for j in range(n):
        # u[..., i] = U_j(j+i)
        u = (a[:, :, j].T @ bc[:, :, j:].reshape(r, -1)
             - b[:, :, j].T @ ac[:, :, j:].reshape(r, -1)).reshape(m, m, n - j)
        w = u[:, :, 1:]
        wd = w.conj().transpose(1, 0, 2)
        # np.max, unlike max, keeps a NaN residual
        herm = np.max([herm, max_abs(u[:, :, 0]), max_abs(w + wd), max_abs(w - wd)])
    return float(herm), float(trace)


def _over(invariant: str, residual: float, eps: float) -> list:
    """[Violation(invariant, residual)] if residual exceeds eps or is NaN, else []."""
    return [] if residual <= eps else [Violation(invariant, residual)]


def density_violations(m: np.ndarray) -> list:
    """The hermiticity, unit-trace and positivity violations of a density
    matrix m, or the largest over a stack of them (of any length)."""
    wmin = float(np.linalg.eigvalsh(hermitian_part(m)).min(initial=0.0))
    return (_over("density matrix hermiticity", max_abs(m - dagger(m)), EPS_HERM)
            + trace_violations(m.trace(axis1=-2, axis2=-1))
            + _over("density matrix positivity", -wmin, EPS_PSD))


def trace_violations(t: np.ndarray) -> list:
    """The unit-trace violation of density matrices with traces t, the
    largest over a stack."""
    r = float((abs(t.real - 1.0) + abs(t.imag)).max(initial=0.0))
    return _over("density matrix unit trace", r, EPS_TRACE)


@np.errstate(invalid="ignore", over="ignore")
def validate(obj):
    """Check all type invariants; return a list of Violation diagnostics.

    Empty list means the object is valid within the EPS_* tolerances. A
    non-finite residual (NaN or infinite entries) counts as a violation;
    numpy's warnings on computing it are silenced.
    """
    if isinstance(obj, DensityMatrix):
        return density_violations(obj.matrix)
    if isinstance(obj, HermitianOperator):
        return _over("operator hermiticity", obj.herm_residual(), EPS_HERM)
    if isinstance(obj, PureState):
        return _over("state normalisation", abs(float(np.linalg.norm(obj.amplitudes)) - 1.0), EPS_NORM)
    if isinstance(obj, QuantumChannel):
        r = max_abs(_kraus_gram(obj.stack) - np.eye(obj.dim_in))
        return _over("channel trace preservation", r, EPS_TP)
    if isinstance(obj, Povm):
        s = obj.stack
        sd = s.conj().swapaxes(1, 2)
        herm = np.max(np.abs(s - sd), axis=(1, 2))
        # eigenvalues of the Hermitian elements only, so a NaN one is a violation, not an error
        ok = herm <= EPS_HERM
        wmin = np.zeros(len(s))
        wmin[ok] = np.linalg.eigvalsh(0.5 * (s[ok] + sd[ok]))[:, 0]
        out = [Violation(f"POVM element '{obj.labels[i]}' positivity", float(-wmin[i])) if ok[i]
               else Violation(f"POVM element '{obj.labels[i]}' hermiticity", float(herm[i]))
               for i in np.flatnonzero(~(ok & (wmin >= -EPS_PSD)))]
        return out + _over("POVM completeness", max_abs(s.sum(axis=0) - np.eye(obj.dim)), EPS_TP)
    if isinstance(obj, DerivativeChannel):
        herm, trace = _derivative_residuals(*obj.stack)
        return (_over("derivative channel hermiticity preservation", herm, EPS_DERIVATIVE)
                + _over("derivative channel trace annihilation", trace, EPS_DERIVATIVE))
    raise TypeError(f"validate: unsupported type {type(obj).__name__}")


def require_valid(obj, what: str = ""):
    """Raise ValidationError listing all violations, if any. Success is
    kept on the immutable object, so each object is validated once."""
    if not getattr(obj, "_valid", False):
        raise_violations(validate(obj), what or type(obj).__name__)
        object.__setattr__(obj, "_valid", True)


def raise_violations(violations: list, label: str) -> None:
    """Raise ValidationError listing the violations of `label`, if any."""
    if violations:
        raise ValidationError(f"invalid {label}: " + "; ".join(str(v) for v in violations))
