"""Symmetric logarithmic derivative solver and quantum Fisher information.

The defining equation (1/2){L, rho} = -i[H, rho] is the single source of
truth; the solver works in rho's eigenbasis and is verified through its
residual rather than any transcribed closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .operators import (
    EPS_PSD,
    DensityMatrix,
    HermitianOperator,
    Violation,
    dagger,
    density_violations,
    hermitian_commutator,
    hermitian_eig,
    hermitian_part,
    raise_violations,
)


@dataclass(frozen=True)
class SldResult:
    """Solution of (1/2){L, rho} = R.

    rank is the numerical rank of rho; support_dim_deficit = dim - rank.
    residual is the Hilbert-Schmidt norm of (1/2){L, rho} - R restricted
    to the blocks where the equation is solvable (everything except the
    null-null block, where L is set to zero by convention).
    """

    L: HermitianOperator
    rank: int
    support_dim_deficit: int
    residual: float


def solve_sld_rhs(rho: DensityMatrix, r: HermitianOperator, eps_rank: float = 1e-12) -> SldResult:
    """Solve (1/2){X, rho} = R for Hermitian X in rho's eigenbasis.

    Matrix elements with eigenvalue sums below eps_rank * lambda_max are
    in the numerical null-null block and are set to zero. rho is checked
    as a density matrix, its positivity on the eigenvalues found here.
    """
    raise_violations(density_violations(rho.matrix), "density matrix")
    if rho.dim != r.dim:
        raise ValidationError(f"dimension mismatch: rho {rho.dim}, rhs {r.dim}")
    eig = hermitian_eig(HermitianOperator(rho.matrix))
    lam, v = eig.eigenvalues, eig.eigenvectors
    if not lam[0] >= -EPS_PSD:
        raise_violations([Violation("density matrix positivity", -float(lam[0]))], "density matrix")
    lam_max = float(lam[-1])
    if lam_max <= 0.0:
        raise ValidationError("density matrix has no positive eigenvalue")

    r_eig = dagger(v) @ r.matrix @ v
    denom = lam[:, None] + lam[None, :]
    solvable = denom > eps_rank * lam_max
    x_eig = np.where(solvable, 2.0 * r_eig / np.where(solvable, denom, 1.0), 0.0)

    residual = float(np.linalg.norm(np.where(solvable, 0.5 * denom * x_eig - r_eig, 0.0)))
    rank = int(np.count_nonzero(lam > eps_rank * lam_max))
    x = hermitian_part(v @ x_eig @ dagger(v))
    return SldResult(HermitianOperator(x), rank, rho.dim - rank, residual)


def sld(rho: DensityMatrix, h: HermitianOperator, eps_rank: float = 1e-12) -> SldResult:
    """SLD of the covariant family e^{-i phi H} rho e^{i phi H}."""
    rhs = HermitianOperator(-1j * hermitian_commutator(h.matrix, rho.matrix))
    return solve_sld_rhs(rho, rhs, eps_rank)


def qfi(rho: DensityMatrix, h: HermitianOperator, eps_rank: float = 1e-12) -> float:
    """Quantum Fisher information Tr{rho L^2}."""
    return qfi_from_sld(rho, sld(rho, h, eps_rank))


def qfi_from_sld(rho: DensityMatrix, res: SldResult) -> float:
    l = res.L.matrix
    # Tr{rho L L} = sum_ij conj(L_ij) (rho L)_ij for Hermitian L
    value = float(np.real(np.vdot(l, rho.matrix @ l)))
    return max(value, 0.0)


def is_irreducible(rho: DensityMatrix, h: HermitianOperator, eps: float = 1e-9) -> bool:
    """True iff rho couples all eigenspaces of H into a single block.

    Eigenvalues of H within eps of each other are treated as one
    eigenspace; eigenspaces are connected when rho has a matrix element
    of magnitude above eps between them. Reducibility means rho and H
    share a proper invariant subspace built from H eigenspaces, which can
    trap the alternating iteration inside one block. H's eigenbasis is
    computed once per generator (HermitianOperator.eig).
    """
    lam, v = h.eig.eigenvalues, h.eig.eigenvectors
    # ascending eigenvalues closer than eps to their neighbour share a group
    group = np.concatenate(([0], np.cumsum(np.diff(lam) > eps)))
    n_groups = int(group[-1]) + 1
    if n_groups == 1:
        return True

    rho_eig = dagger(v) @ rho.matrix @ v
    coupled = np.triu(np.abs(rho_eig) > eps, 1)
    member = np.zeros((h.dim, n_groups))
    member[np.arange(h.dim), group] = 1.0
    # groups x groups: True where some element of rho joins the two groups
    linked = member.T @ (coupled | coupled.T) @ member > 0
    reached = np.zeros(n_groups, dtype=bool)
    reached[0] = True
    while True:
        grown = reached | linked[reached].any(axis=0)
        if np.array_equal(grown, reached):
            return bool(reached.all())
        reached = grown
