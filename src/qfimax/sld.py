"""Symmetric logarithmic derivative solver and quantum Fisher information.

The defining equation (1/2){L, rho} = -i[H, rho] is the single source of
truth; the solver works in rho's eigenbasis and is verified through its
residual rather than any transcribed closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .operators import (
    DensityMatrix,
    HermitianOperator,
    _checked_hermitian,
    _unbatched,
    _wrap,
    check_density_spectrum,
    dagger,
    density_violations,
    hermitian_commutator,
    hermitian_eig,
    hermitian_operator,
    raise_violations,
)


@dataclass(frozen=True)
class SldResult:
    """Solution of (1/2){L, rho} = R.

    rank is the numerical rank of rho; support_dim_deficit = dim - rank.
    residual is the Hilbert-Schmidt norm of (1/2){L, rho} - R restricted
    to the blocks where the equation is solvable (everything except the
    null-null block, where L is set to zero by convention), computed from
    the eigenbasis blocks on first read. For a stack of equations L, rank
    and support_dim_deficit hold one value per equation.
    """

    L: HermitianOperator
    rank: int
    support_dim_deficit: int
    blocks: tuple = field(repr=False, compare=False)  # (solvable, denom, X, R) in rho's eigenbasis

    @cached_property
    def residual(self) -> float:
        solvable, denom, x_eig, r_eig = self.blocks
        return float(np.linalg.norm(np.where(solvable, 0.5 * denom * x_eig - r_eig, 0.0)))


def solve_sld_rhs(rho: DensityMatrix, r: HermitianOperator, eps_rank: float = 1e-12) -> SldResult:
    """Solve (1/2){X, rho} = R for Hermitian X in rho's eigenbasis.

    Matrix elements with eigenvalue sums below eps_rank * lambda_max are
    in the numerical null-null block and are set to zero. rho is checked
    as a density matrix, its positivity on the eigenvalues found here.
    rho and R may carry a leading batch axis: one equation per slice.
    """
    raise_violations(density_violations(rho.matrix), "density matrix")
    if rho.dim != r.dim:
        raise ValidationError(f"dimension mismatch: rho {rho.dim}, rhs {r.dim}")
    # density_violations has checked rho's Hermiticity, more tightly than hermitian_eig would
    eig = hermitian_eig(_checked_hermitian(rho.matrix))
    lam, v = eig.eigenvalues, eig.eigenvectors
    check_density_spectrum(lam)
    cut = eps_rank * lam[..., -1:]

    vd = dagger(v)
    r_eig = vd @ r.matrix @ v
    denom = lam[..., :, None] + lam[..., None, :]
    solvable = denom > cut[..., None]
    x_eig = np.divide(2.0 * r_eig, denom, out=np.zeros(r_eig.shape, complex), where=solvable)
    rank = _unbatched((lam > cut).sum(axis=-1))
    return SldResult(hermitian_operator(v @ x_eig @ vd), rank, rho.dim - rank,
                     (solvable, denom, x_eig, r_eig))


def sld(rho: DensityMatrix, h: HermitianOperator, eps_rank: float = 1e-12) -> SldResult:
    """SLD of the covariant family e^{-i phi H} rho e^{i phi H}."""
    rhs = _wrap(HermitianOperator, matrix=-1j * hermitian_commutator(h.matrix, rho.matrix))
    return solve_sld_rhs(rho, rhs, eps_rank)


def qfi(rho: DensityMatrix, h: HermitianOperator, eps_rank: float = 1e-12) -> float:
    """Quantum Fisher information Tr{rho L^2}."""
    return qfi_from_sld(rho, sld(rho, h, eps_rank))


def qfi_from_sld(rho: DensityMatrix, res: SldResult) -> float:
    """Tr{rho L^2}, one value per slice of a stack."""
    l = res.L.matrix
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
