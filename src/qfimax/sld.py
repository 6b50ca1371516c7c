"""Symmetric logarithmic derivative solver and quantum Fisher information.

The defining equation (1/2){L, rho} = A rho + rho A^dag (A = -iH for the
SLD of the covariant family), or (1/2){L, rho} = R, is the single source
of truth. One solve (_solve) works on a decomposition rho = V diag(lam)
V^dag: the thin SVD of W for a low-rank rho = W W^dag given by W, else
rho's eigenbasis, where the support-kernel block is empty. It returns
plain arrays, which the alternating step reads as they are; sld,
solve_sld_rhs and qfi wrap them as an SldResult (_result). It is verified
through its residual rather than any transcribed closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ValidationError
from .operators import (
    EPS_DEG,
    EPS_RANK,
    DensityMatrix,
    HermitianOperator,
    _checked_hermitian,
    _eigh,
    _unbatched,
    dagger,
    hermitian_part,
    mixture,
    raise_violations,
    require_valid,
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


def _checked(rho: DensityMatrix | np.ndarray):
    """A caller's rho, checked once: a DensityMatrix by require_valid (free
    for one the library built), the images w_k of rho = W W^dag by its
    trace sum |w_k|^2 alone, W W^dag being positive by construction."""
    if isinstance(rho, DensityMatrix):
        require_valid(rho, "density matrix")
    else:
        raise_violations(trace_violations((rho * rho.conj()).real.sum(axis=(-2, -1))), "density matrix")
    return rho


def _spectrum(rho: DensityMatrix | np.ndarray, dim: int, name: str):
    """rho, unchecked but for its dimension dim (that of the operator named
    `name` in the error), as (V, lam) with rho = V diag(lam) V^dag, lam
    descending and V's columns orthonormal. rho is a DensityMatrix or the
    (r, d) stack of the vectors w_k, the columns of W (a channel output's
    kraus_images): when r < d, V is the thin (d, r) factor of the SVD W =
    V diag(s) U^dag, as rho has rank at most r, and lam = s^2; otherwise V
    is square, from the eigensolve of rho's matrix."""
    rho_dim = rho.dim if isinstance(rho, DensityMatrix) else rho.shape[-1]
    if rho_dim != dim:
        raise ValidationError(f"dimension mismatch: rho {rho_dim}, {name} {dim}")
    if not isinstance(rho, DensityMatrix) and rho.shape[-2] < rho.shape[-1]:
        _, s, vh = np.linalg.svd(rho, full_matrices=False)
        return vh.swapaxes(-1, -2), s * s
    m = rho.matrix if isinstance(rho, DensityMatrix) else mixture(rho).matrix
    lam, v = _eigh(_checked_hermitian(m))
    # contiguous: each product with a reversed-stride view is slower than one copy
    return v[..., ::-1].copy(), lam[..., ::-1]


def _support(lam: np.ndarray, eps_rank: float) -> tuple:
    """(on, cut): the mask of rho's descending eigenvalues lam above the rank
    cut, its numerical support, and the cut eps_rank * lam_max (per row)."""
    cut = eps_rank * lam[..., :1]
    return lam > cut, cut


def _solve(rho: DensityMatrix | np.ndarray, a: np.ndarray | None, r: np.ndarray | None,
           eps_rank: float, name: str) -> tuple:
    """Solve (1/2){X, rho} = A rho + rho A^dag or (1/2){X, rho} = R for
    Hermitian X, on rho's decomposition (V, lam) (see _spectrum): A is any
    square matrix, or, for a None, R a Hermitian one, either with rho's
    leading batch axis or none; name names the operator in a dimension
    mismatch. In O(d^2 r), from R's blocks R_vv = V^dag R V and R_pv =
    P R V (P = 1 - V V^dag): L = V X V^dag + T V^dag + V T^dag, X_ij =
    2 R_ij / (lam_i + lam_j) where that sum is above the cut and 0
    elsewhere, and T = 2 R_pv diag(lam)^-1 on the support columns (none
    for a square V). A enters in its blocks: R_vv = A_vv lam + (A_vv
    lam)^dag with A_vv = V^dag A V, and R_pv = P A V lam, so it is never
    formed and T carries no roundoff divided by a small lam. Returns L's
    matrix, rho's rank (per equation) and the parts _result reads."""
    v, lam = _spectrum(rho, (r if a is None else a).shape[-1], name)
    vd = dagger(v)
    thin = v.shape[-1] < v.shape[-2]
    r_pv = None
    if a is None:
        rv = r @ v
        r_vv = vd @ rv
        if thin:
            r_pv = rv - v @ r_vv
            # project twice: a part of P R V left along V, divided by a small lam, would enter X
            r_pv -= v @ (vd @ r_pv)
    else:
        av = a @ v
        a_vv = vd @ av
        r_vv = a_vv * lam[..., None, :]
        r_vv = r_vv + dagger(r_vv)
        if thin:
            r_pv = (av - v @ a_vv) * lam[..., None, :]
    on, cut = _support(lam, eps_rank)
    denom = lam[..., :, None] + lam[..., None, :]
    solvable = denom > cut[..., None]
    x = np.divide(2.0 * r_vv, denom, out=np.zeros(r_vv.shape, complex), where=solvable)
    rank, on = on.sum(axis=-1), on[..., None, :]
    # with Y = V X + 2T, L = (Y V^dag + V Y^dag) / 2 = hermitian_part(Y V^dag)
    y = v @ x
    if r_pv is not None:
        y += np.divide(4.0 * r_pv, lam[..., None, :], out=np.zeros(r_pv.shape, complex), where=on)
    return hermitian_part(y @ vd), rank, (v, lam, r_vv, r_pv, solvable, on)


def _result(l: np.ndarray, rank: np.ndarray, parts: tuple) -> SldResult:
    """The SldResult of _solve's arrays, its residual read from the parts
    on first use."""
    v, lam, r_vv, r_pv, solvable, on = parts

    def defects():
        lv = l @ v
        l_vv = dagger(v) @ lv
        vv = 0.5 * (l_vv * lam[..., None, :] + lam[..., :, None] * l_vv) - r_vv
        blocks = ((np.where(solvable, vv, 0.0), 1),)
        if r_pv is None:
            return blocks
        pv = 0.5 * (lv - v @ l_vv) * lam[..., None, :] - r_pv
        return blocks + ((np.where(on, pv, 0.0), 2),)

    rank = _unbatched(rank)
    return SldResult(_checked_hermitian(l), rank, v.shape[-2] - rank, defects)


def solve_sld_rhs(rho: DensityMatrix | np.ndarray, r: HermitianOperator,
                  eps_rank: float = EPS_RANK) -> SldResult:
    """Solve (1/2){X, rho} = R for Hermitian X.

    Matrix elements with eigenvalue sums below eps_rank * lambda_max are
    in the numerical null-null block and are set to zero. rho is a
    DensityMatrix or the (r, d) stack of the vectors w_k of rho =
    sum_k |w_k><w_k|, checked (_checked), solved on its decomposition
    (V, lam) (see _spectrum): from W's thin SVD when r < d, else from an
    eigensolve, whose support-kernel block is empty. rho and R may carry a
    leading batch axis: one equation per slice. The R case of _solve.
    """
    return _result(*_solve(_checked(rho), None, r.matrix, eps_rank, "rhs"))


def sld(rho: DensityMatrix | np.ndarray, h: HermitianOperator, eps_rank: float = EPS_RANK) -> SldResult:
    """SLD of the covariant family e^{-i phi H} rho e^{i phi H}, for rho
    as solve_sld_rhs takes it: the case A = -iH of _solve, so
    -i[H, rho] enters in its blocks on (V, lam) and no commutator is
    formed."""
    return _result(*_solve(_checked(rho), -1j * h.matrix, None, eps_rank, "H"))


def qfi(rho: DensityMatrix | np.ndarray, h: HermitianOperator, eps_rank: float = EPS_RANK) -> float:
    """Quantum Fisher information Tr{rho L^2}."""
    return qfi_from_sld(rho, sld(rho, h, eps_rank))


def qfi_from_sld(rho: DensityMatrix | np.ndarray, res: SldResult) -> float:
    """Tr{rho L^2}, one value per slice of a stack; for the images w_k of
    rho = sum_k |w_k><w_k|, sum_k |L w_k|^2."""
    l = res.L.matrix
    if not isinstance(rho, DensityMatrix):
        return _unbatched(_images_qfi(l, rho))
    shape = l.shape[:-2] + (1, -1)
    # Tr{rho L L} = sum_ij conj(L_ij) (rho L)_ij for Hermitian L
    value = l.conj().reshape(shape) @ (rho.matrix @ l).reshape(shape).swapaxes(-1, -2)
    return _unbatched(np.maximum(value[..., 0, 0].real, 0.0))


def _images_qfi(l: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_k |L w_k|^2 = Tr{rho L^2} for the images w_k, the rows of the
    (..., r, d) stack w, of rho = sum_k |w_k><w_k| and the matrix L of
    the same batch shape: one value per slice."""
    lw = l @ w.swapaxes(-1, -2)
    return (lw * lw.conj()).real.sum(axis=(-2, -1))


def is_irreducible(rho: DensityMatrix | np.ndarray, h: HermitianOperator, eps: float = EPS_DEG) -> bool:
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
