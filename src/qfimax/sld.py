"""Symmetric logarithmic derivative solver and quantum Fisher information.

The defining equation (1/2){L, rho} = -i[H, rho] is the single source of
truth. One solver works on a decomposition rho = V diag(lam) V^dag: the
thin SVD of W for a low-rank rho = W W^dag given by W, else rho's
eigenbasis, where the support-kernel block is empty. It is verified
through its residual rather than any transcribed closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ValidationError
from .operators import (
    DensityMatrix,
    HermitianOperator,
    _checked_hermitian,
    _eigh,
    _unbatched,
    check_density_spectrum,
    dagger,
    density_violations,
    hermitian_operator,
    mixture,
    raise_violations,
    trace_violations,
)


@dataclass(frozen=True)
class SldResult:
    """Solution of (1/2){L, rho} = R.

    rank is the numerical rank of rho; support_dim_deficit = dim - rank.
    residual is the Hilbert-Schmidt norm of (1/2){L, rho} - R restricted
    to the blocks where the equation is solvable (everything except the
    null-null block, where L is set to zero by convention), computed on
    first read. For a stack of equations L, rank and support_dim_deficit
    hold one value per equation.
    """

    L: HermitianOperator
    rank: int
    support_dim_deficit: int
    # () -> ((defect on a solvable block, how often the block occurs in the matrix), ...)
    defects: Callable = field(repr=False, compare=False)

    @cached_property
    def residual(self) -> float:
        return float(np.sqrt(sum(n * np.linalg.norm(d) ** 2 for d, n in self.defects())))


def _spectrum(rho: DensityMatrix | np.ndarray, other: HermitianOperator, name: str):
    """rho checked as a density matrix of the dimension of the operator
    `other` (named `name` in the error), as (V, lam) with rho = V diag(lam)
    V^dag, lam descending and V's columns orthonormal.

    rho is a DensityMatrix (every invariant is checked), or the (r, d)
    stack of the vectors w_k, the columns of W (a channel output's
    kraus_images). W W^dag is Hermitian by construction, so only its
    trace, sum |w_k|^2, and its spectrum are checked. When r < d, V is
    the thin (d, r) factor of the SVD W = V diag(s) U^dag, as rho has
    rank at most r, and lam = s^2; otherwise V is square, from the
    eigensolve of rho's matrix."""
    dim = rho.dim if isinstance(rho, DensityMatrix) else rho.shape[-1]
    if dim != other.dim:
        raise ValidationError(f"dimension mismatch: rho {dim}, {name} {other.dim}")
    if isinstance(rho, DensityMatrix):
        raise_violations(density_violations(rho.matrix), "density matrix")
        m = rho.matrix
    else:
        raise_violations(trace_violations((rho * rho.conj()).real.sum(axis=(-2, -1))), "density matrix")
        if rho.shape[-2] < rho.shape[-1]:
            _, s, vh = np.linalg.svd(rho, full_matrices=False)
            lam = s * s
            check_density_spectrum(lam[..., ::-1])
            return vh.swapaxes(-1, -2), lam
        m = mixture(rho).matrix
    lam, v = _eigh(_checked_hermitian(m))
    check_density_spectrum(lam)
    # contiguous: each product with a reversed-stride view is slower than one copy
    return v[..., ::-1].copy(), lam[..., ::-1]


def _solve_support(v: np.ndarray, lam: np.ndarray, r_vv: np.ndarray, r_pv: np.ndarray | None,
                   eps_rank: float) -> SldResult:
    """The solve for rho = V diag(lam) V^dag, given R's blocks r_vv =
    V^dag R V and r_pv = P R V (P = 1 - V V^dag), in O(d^2 r): L = V X V^dag
    + T V^dag + V T^dag, X_ij = 2 R_ij / (lam_i + lam_j) the support block
    where that sum is above the cut and 0 elsewhere, and T = 2 P R V
    diag(lam)^-1 on the columns with lam above the cut, the support-kernel
    block. r_pv is None for a square V, whose kernel block is empty."""
    cut = eps_rank * lam[..., :1]
    denom = lam[..., :, None] + lam[..., None, :]
    solvable = denom > cut[..., None]
    x = np.divide(2.0 * r_vv, denom, out=np.zeros(r_vv.shape, complex), where=solvable)
    on = (lam > cut)[..., None, :]
    # with A = V X + 2T, L = (A V^dag + V A^dag) / 2 = hermitian_part(A V^dag)
    a = v @ x
    if r_pv is not None:
        a += np.divide(4.0 * r_pv, lam[..., None, :], out=np.zeros(r_pv.shape, complex), where=on)
    vd = dagger(v)
    l = hermitian_operator(a @ vd)
    rank = _unbatched(on.sum(axis=-1)[..., 0])

    def defects():
        lv = l.matrix @ v
        l_vv = vd @ lv
        vv = 0.5 * (l_vv * lam[..., None, :] + lam[..., :, None] * l_vv) - r_vv
        blocks = ((np.where(solvable, vv, 0.0), 1),)
        if r_pv is None:
            return blocks
        pv = 0.5 * (lv - v @ l_vv) * lam[..., None, :] - r_pv
        return blocks + ((np.where(on, pv, 0.0), 2),)

    return SldResult(l, rank, v.shape[-2] - rank, defects)


def solve_sld_rhs(rho: DensityMatrix | np.ndarray, r: HermitianOperator,
                  eps_rank: float = 1e-12) -> SldResult:
    """Solve (1/2){X, rho} = R for Hermitian X.

    Matrix elements with eigenvalue sums below eps_rank * lambda_max are
    in the numerical null-null block and are set to zero. rho is a
    DensityMatrix or the (r, d) stack of the vectors w_k of rho =
    sum_k |w_k><w_k|, solved on its decomposition (V, lam) (see
    _spectrum): from W's thin SVD when r < d, else from an eigensolve,
    whose support-kernel block is empty. rho and R may carry a leading
    batch axis: one equation per slice.
    """
    v, lam = _spectrum(rho, r, "rhs")
    vd = dagger(v)
    rv = r.matrix @ v
    r_vv = vd @ rv
    r_pv = None
    if v.shape[-1] < v.shape[-2]:
        r_pv = rv - v @ r_vv
        # project twice: a part of P R V left along V, divided by a small lam, would enter X
        r_pv -= v @ (vd @ r_pv)
    return _solve_support(v, lam, r_vv, r_pv, eps_rank)


def sld(rho: DensityMatrix | np.ndarray, h: HermitianOperator, eps_rank: float = 1e-12) -> SldResult:
    """SLD of the covariant family e^{-i phi H} rho e^{i phi H}, for rho
    as solve_sld_rhs takes it, with R = -i[H, rho] in its blocks on
    (V, lam): no commutator is formed."""
    v, lam = _spectrum(rho, h, "H")
    # V^dag R V = -i (H_vv diag(lam) - diag(lam) H_vv), with H_vv = V^dag H V,
    # and P R V = -i P H V diag(lam), so T = -2i P H V carries no roundoff
    # divided by a small lam
    hv = h.matrix @ v
    h_vv = dagger(v) @ hv
    r_vv = -1j * (h_vv * lam[..., None, :] - lam[..., :, None] * h_vv)
    r_pv = None
    if v.shape[-1] < v.shape[-2]:
        r_pv = -1j * (hv - v @ h_vv) * lam[..., None, :]
    return _solve_support(v, lam, r_vv, r_pv, eps_rank)


def qfi(rho: DensityMatrix | np.ndarray, h: HermitianOperator, eps_rank: float = 1e-12) -> float:
    """Quantum Fisher information Tr{rho L^2}."""
    return qfi_from_sld(rho, sld(rho, h, eps_rank))


def qfi_from_sld(rho: DensityMatrix | np.ndarray, res: SldResult) -> float:
    """Tr{rho L^2}, one value per slice of a stack; for the images w_k of
    rho = sum_k |w_k><w_k|, sum_k |L w_k|^2."""
    l = res.L.matrix
    if not isinstance(rho, DensityMatrix):
        lw = l @ rho.swapaxes(-1, -2)
        return _unbatched((lw * lw.conj()).real.sum(axis=(-2, -1)))
    shape = l.shape[:-2] + (1, -1)
    # Tr{rho L L} = sum_ij conj(L_ij) (rho L)_ij for Hermitian L
    value = l.conj().reshape(shape) @ (rho.matrix @ l).reshape(shape).swapaxes(-1, -2)
    return _unbatched(np.maximum(value[..., 0, 0].real, 0.0))


def is_irreducible(rho: DensityMatrix | np.ndarray, h: HermitianOperator, eps: float = 1e-9) -> bool:
    """True iff rho couples all eigenspaces of H into a single block.

    Eigenvalues of H within eps of each other are treated as one
    eigenspace; eigenspaces are connected when rho has a matrix element
    of magnitude above eps between them. Reducibility means rho and H
    share a proper invariant subspace built from H eigenspaces, which can
    trap the alternating iteration inside one block. H's eigenbasis V and
    its groups are computed once per generator (HermitianOperator.eig and
    .eigenspaces).

    rho is a DensityMatrix, or the (r, d) stack of the vectors w_k of
    rho = sum_k |w_k><w_k| (a channel output's kraus_images), which is
    read as V^dag W in O(r d^2) without forming rho. Either may carry a
    leading batch axis; the result is then one flag per slice.
    """
    starts, v_conj, upper = h.eigenspaces(eps)
    m = rho.matrix if isinstance(rho, DensityMatrix) else rho
    if len(starts) == 1:
        return _unbatched(np.ones(m.shape[:-2], dtype=bool))
    if m is rho:
        b = rho @ v_conj  # row k: (V^dag w_k)^T
        rho_eig = b.swapaxes(-1, -2) @ b.conj()
    else:
        rho_eig = v_conj.T @ m @ h.eig.eigenvectors
    # groups x groups: True where some element of rho above the diagonal joins the two groups
    linked = (np.abs(rho_eig) > eps) & upper
    if len(starts) < len(upper):  # merge the rows and columns of each group (slow at d=64)
        linked = np.logical_or.reduceat(linked, starts, axis=-2)
        linked = np.logical_or.reduceat(linked, starts, axis=-1)
    linked |= linked.swapaxes(-1, -2)
    reached = np.arange(len(starts)) == 0
    while True:
        grown = reached | (reached[..., :, None] & linked).any(axis=-2)
        if grown.all() or (grown == reached).all():
            return _unbatched(grown.all(axis=-1))
        reached = grown
