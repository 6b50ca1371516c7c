import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfimax import (
    DensityMatrix,
    HermitianOperator,
    PureState,
    ValidationError,
    is_irreducible,
    qfi,
    sld,
    solve_sld_rhs,
)
from qfimax.operators import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    dagger,
    hermitian_operator,
    hermitian_part,
    mixture,
)
from qfimax.sld import qfi_from_sld

from helpers import (
    commutator,
    hs_norm,
    mixed_state,
    projector,
    random_density,
    random_hermitian,
    random_unitary,
)

# the package's `sld` attribute is the function, not the module
sld_module = importlib.import_module("qfimax.sld")

I2 = np.eye(2, dtype=complex)
PLUS = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))
H_Z = HermitianOperator(SIGMA_Z / 2.0)


class TestSolveSldRhs:
    def test_isotropic_full_rank(self):
        res = solve_sld_rhs(DensityMatrix(I2 / 2.0), HermitianOperator(SIGMA_Y / 2.0))
        np.testing.assert_allclose(res.L.matrix, SIGMA_Y, atol=1e-14)
        assert res.rank == 2 and res.support_dim_deficit == 0

    def test_pure_state_rank_one(self):
        rho = projector(PLUS)
        rhs = HermitianOperator(hermitian_part(-1j * commutator(SIGMA_Z / 2.0, rho.matrix)))
        res = solve_sld_rhs(rho, rhs)
        # solved by hand in the |+/-> eigenbasis; equals -2i[H, rho]
        np.testing.assert_allclose(res.L.matrix, SIGMA_Y, atol=1e-14)
        assert res.rank == 1 and res.support_dim_deficit == 1
        assert res.residual < 1e-12

    def test_zero_rhs(self):
        res = solve_sld_rhs(DensityMatrix(np.diag([0.9, 0.1])), HermitianOperator(np.zeros((2, 2))))
        np.testing.assert_allclose(res.L.matrix, 0.0, atol=1e-15)

    def test_rejects_invalid_density(self):
        with pytest.raises(ValidationError):
            solve_sld_rhs(DensityMatrix(2.0 * I2), HermitianOperator(SIGMA_X))

    @pytest.mark.parametrize("rho, invariant", [
        (np.array([[0.5, 0.1], [0.0, 0.5]]), "hermiticity"),
        (np.diag([0.6, 0.6]), "unit trace"),
        (np.diag([1.2, -0.2]), "positivity"),
    ])
    def test_names_the_violated_invariant(self, rho, invariant):
        with pytest.raises(ValidationError, match=f"invalid density matrix: density matrix {invariant}"):
            solve_sld_rhs(DensityMatrix(rho), HermitianOperator(SIGMA_X))


class TestSld:
    def test_commuting_state_gives_zero(self):
        res = sld(DensityMatrix(np.diag([0.7, 0.3])), H_Z)
        np.testing.assert_allclose(res.L.matrix, 0.0, atol=1e-14)

    def test_pure_state_identity(self):
        res = sld(projector(PLUS), H_Z)
        np.testing.assert_allclose(res.L.matrix, SIGMA_Y, atol=1e-14)

    def test_bloch_x_mixed_state(self):
        # eigenbasis formula: lambda = 0.9, 0.1, off-diagonal factor 2*(eta/2)/1
        rho = DensityMatrix(0.5 * (I2 + 0.8 * SIGMA_X))
        res = sld(rho, H_Z)
        np.testing.assert_allclose(res.L.matrix, 0.8 * SIGMA_Y, atol=1e-13)


class TestQfi:
    def test_commuting_gives_zero(self):
        assert qfi(DensityMatrix(np.diag([0.7, 0.3])), H_Z) == pytest.approx(0.0, abs=1e-12)

    def test_pure_plus_state(self):
        assert qfi(projector(PLUS), H_Z) == pytest.approx(1.0, abs=1e-12)

    def test_bloch_x_mixed_state(self):
        rho = DensityMatrix(0.5 * (I2 + 0.8 * SIGMA_X))
        assert qfi(rho, H_Z) == pytest.approx(0.64, abs=1e-12)


class TestIrreducibility:
    def test_diagonal_mixture_reducible(self):
        assert not is_irreducible(DensityMatrix(I2 / 2.0), HermitianOperator(SIGMA_Z))

    def test_coherent_state_irreducible(self):
        assert is_irreducible(projector(PLUS), HermitianOperator(SIGMA_Z))

    def test_block_structure_dim3(self):
        # rho couples levels 0 and 1 but leaves level 2 in its own block
        rho = np.array([[0.4, 0.4, 0.0], [0.4, 0.4, 0.0], [0.0, 0.0, 0.2]])
        h = HermitianOperator(np.diag([0.0, 1.0, 2.0]))
        assert not is_irreducible(DensityMatrix(rho), h)

    def test_degenerate_generator_eigenspace_counts_as_one_block(self):
        rho = np.array([[0.4, 0.4, 0.0], [0.4, 0.4, 0.0], [0.0, 0.0, 0.2]])
        h = HermitianOperator(np.diag([1.0, 1.0, 1.0]))
        assert is_irreducible(DensityMatrix(rho), h)


def _union_find_irreducible(rho, h, eps=1e-9):
    """Reference: union-find over the coupled pairs of H eigenvalue groups."""
    eig = np.linalg.eigh(h.matrix)
    lam, v = eig[0], eig[1]
    group = [0]
    for j in range(1, len(lam)):
        group.append(group[-1] + (1 if lam[j] - lam[j - 1] > eps else 0))
    parent = list(range(group[-1] + 1))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    rho_eig = dagger(v) @ rho @ v
    for j in range(len(lam)):
        for k in range(j + 1, len(lam)):
            if group[j] != group[k] and abs(rho_eig[j, k]) > eps:
                parent[find(group[k])] = find(group[j])
    return len({find(g) for g in range(len(parent))}) == 1


def _rotated(rho_eig, lam, rng):
    u = random_unitary(len(lam), rng)
    return u @ rho_eig @ dagger(u), HermitianOperator(u @ np.diag(lam) @ dagger(u))


class TestIrreducibilityAgainstUnionFind:
    @pytest.mark.parametrize("case", ["single_group", "decoupled_blocks", "chain", "broken_chain",
                                      "degenerate_bridge", "degenerate_split", "dense"])
    def test_matches_reference(self, case):
        rng = np.random.default_rng(len(case))
        d = 6
        lam = np.arange(d, dtype=float)
        coupling = np.zeros((d, d), dtype=bool)
        if case == "single_group":
            lam = np.full(d, 2.0)
        elif case == "decoupled_blocks":
            coupling[:3, :3] = coupling[3:, 3:] = True
        elif case in ("chain", "broken_chain"):
            for j in range(d - 1):
                coupling[j, j + 1] = coupling[j + 1, j] = True
            if case == "broken_chain":
                coupling[2, 3] = coupling[3, 2] = False
        elif case == "degenerate_bridge":
            # levels 1 and 2 share an eigenvalue; 0-1 and 2-3..5 couple through it
            lam = np.array([0.0, 1.0, 1.0, 2.0, 3.0, 4.0])
            coupling[0, 1] = coupling[1, 0] = True
            coupling[2, 3:] = coupling[3:, 2] = True
        elif case == "degenerate_split":
            lam = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 2.0])
            coupling[:2, :2] = coupling[2:, 2:] = True
        else:
            coupling[:] = True
        g = random_density(d, rng).matrix
        rho_eig = np.where(coupling | np.eye(d, dtype=bool), g, 0.0)
        rho_eig = rho_eig / np.trace(rho_eig).real + 0.5 * np.eye(d)
        rho_eig /= np.trace(rho_eig).real
        rho, h = _rotated(rho_eig, lam, rng)
        want = _union_find_irreducible(rho, h)
        assert is_irreducible(DensityMatrix(rho), h) == want
        expected = case in ("single_group", "chain", "degenerate_bridge", "dense")
        assert want == expected

    @settings(max_examples=30, deadline=None)
    @given(dim=st.integers(2, 7), seed=st.integers(0, 2**31), zeros=st.integers(0, 30))
    def test_random_sparse_states(self, dim, seed, zeros):
        rng = np.random.default_rng(seed)
        lam = np.sort(rng.integers(0, dim, size=dim)).astype(float)
        rho_eig = random_density(dim, rng).matrix.copy()
        for _ in range(zeros):
            j, k = rng.integers(0, dim, size=2)
            rho_eig[j, k] = rho_eig[k, j] = 0.0
        rho_eig = 0.5 * rho_eig + 0.5 * np.diag(np.abs(np.diag(rho_eig)) + 1.0 / dim)
        rho_eig /= np.trace(rho_eig).real
        rho, h = _rotated(rho_eig, lam, rng)
        assert is_irreducible(DensityMatrix(rho), h) == _union_find_irreducible(rho, h)


class TestSldProperties:
    @settings(max_examples=25, deadline=None)
    @given(dim=st.integers(2, 6), seed=st.integers(0, 2**31))
    def test_residual_mean_and_norm_bound(self, dim, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(dim, rng)
        h = random_hermitian(dim, rng)
        res = sld(rho, h)
        l = res.L.matrix
        defect = 0.5 * (l @ rho.matrix + rho.matrix @ l) + 1j * commutator(h.matrix, rho.matrix)
        assert hs_norm(defect) <= 1e-9 * max(1.0, hs_norm(h.matrix))
        assert abs(np.trace(rho.matrix @ l)) <= 1e-9
        assert hs_norm(l) <= 2.0 * hs_norm(h.matrix) + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(dim=st.integers(2, 6), seed=st.integers(0, 2**31))
    def test_pure_state_closed_form(self, dim, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi = PureState(z / np.linalg.norm(z))
        h = random_hermitian(dim, rng)
        rho = projector(psi)
        res = sld(rho, h)
        expected = hermitian_part(-2j * commutator(h.matrix, rho.matrix))
        assert np.max(np.abs(res.L.matrix - expected)) <= 1e-9
        v = psi.amplitudes
        hv = h.matrix @ v
        variance = float(np.real(hv.conj() @ hv)) - float(np.real(v.conj() @ hv)) ** 2
        assert qfi(rho, h) == pytest.approx(4.0 * variance, abs=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(dim=st.integers(2, 5), seed=st.integers(0, 2**31))
    def test_unitary_invariance(self, dim, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(dim, rng)
        h = random_hermitian(dim, rng)
        u = random_unitary(dim, rng)
        rotated = qfi(DensityMatrix(u @ rho.matrix @ dagger(u)),
                      HermitianOperator(u @ h.matrix @ dagger(u)))
        assert rotated == pytest.approx(qfi(rho, h), abs=1e-8, rel=1e-8)


def _images(shape, rng):
    """Random images w_k, the rows of an (..., r, d) stack, with sum_k |w_k|^2 = 1
    per slice."""
    w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return w / np.linalg.norm(w, axis=(-2, -1), keepdims=True)


def _assert_same_solve(low, dense):
    scale = np.linalg.norm(dense.L.matrix)
    np.testing.assert_allclose(low.L.matrix, dense.L.matrix, rtol=0, atol=1e-12 * scale)
    assert np.array_equal(low.rank, dense.rank)
    assert np.array_equal(low.support_dim_deficit, dense.support_dim_deficit)
    assert low.residual <= 1e-10 and dense.residual <= 1e-10
    assert abs(low.residual - dense.residual) <= 1e-10


class TestImagesPath:
    """The SLD from the images w_k of rho = W W^dag: from W's thin SVD when
    r < d, against the eigenbasis solve of the DensityMatrix W W^dag."""

    # (batch shape, r, d); (4,) and (3,) are stacks, as the compressed covariant step passes
    @pytest.mark.parametrize("batch, r, d", [((), 1, 3), ((), 2, 5), ((), 3, 16), ((4,), 2, 6),
                                             ((3,), 3, 9), ((), 4, 4), ((2,), 5, 3)])
    def test_matches_the_dense_solve(self, batch, r, d):
        rng = np.random.default_rng(100 * r + d)
        w = _images(batch + (r, d), rng)
        rho = mixed_state(w)
        h = random_hermitian(d, rng)
        _assert_same_solve(sld(w, h), sld(rho, h))
        rhs = hermitian_operator(rng.standard_normal(batch + (d, d)) + 1j * rng.standard_normal(batch + (d, d)))
        _assert_same_solve(solve_sld_rhs(w, rhs), solve_sld_rhs(rho, rhs))
        np.testing.assert_allclose(qfi_from_sld(w, sld(w, h)), qfi_from_sld(rho, sld(rho, h)),
                                   rtol=1e-12)
        # a non-Hermitian A in its blocks, against A rho + rho A^dag formed
        a = rng.standard_normal(batch + (d, d)) + 1j * rng.standard_normal(batch + (d, d))
        whole = hermitian_operator(a @ rho.matrix + rho.matrix @ dagger(a))
        _assert_same_solve(sld_module._result(*sld_module._solve(w, a, None, 1e-12, "A")),
                           solve_sld_rhs(rho, whole))

    @pytest.mark.parametrize("d", [3, 8])
    def test_residual_is_the_defining_equation(self, d):
        # with R = -i[H, rho] the null-null block of R is 0, so the whole
        # defect (1/2){L, rho} - R is the residual
        rng = np.random.default_rng(d)
        w = _images((2, d), rng)
        rho, h = mixture(w), random_hermitian(d, rng)
        res = sld(w, h)
        l = res.L.matrix
        defect = 0.5 * (l @ rho + rho @ l) + 1j * commutator(h.matrix, rho)
        assert res.residual <= 1e-12 and hs_norm(defect) <= 1e-12
        assert abs(res.residual - hs_norm(defect)) <= 1e-12

    def test_colinear_images(self):
        # w_1 and w_2 are parallel, w_3 = 0: a pure output, rank 1
        rng = np.random.default_rng(7)
        a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        w = np.stack([a, (0.5 - 2j) * a, np.zeros(6)])
        w /= np.linalg.norm(w)
        h = random_hermitian(6, rng)
        res = sld(w, h)
        assert (res.rank, res.support_dim_deficit) == (1, 5)
        _assert_same_solve(res, sld(mixed_state(w), h))
        psi = PureState(a / np.linalg.norm(a))
        assert qfi_from_sld(w, res) == pytest.approx(qfi(projector(psi), h), rel=1e-12)

    @pytest.mark.parametrize("ratio, rank", [(4.0, 2), (0.25, 1)])
    def test_singular_value_at_the_cut(self, ratio, rank):
        # lambda_2 = ratio * eps_rank * lambda_1: just above or just below the cut
        d, eps_rank = 5, 1e-12
        rng = np.random.default_rng(int(ratio * 4))
        v = random_unitary(d, rng)[:, :2]
        u = random_unitary(2, rng)
        lam = np.array([1.0, ratio * eps_rank])
        lam /= lam.sum()
        w = (v * np.sqrt(lam) @ u.conj().T).T  # rows w_k: W = V diag(s) U^dag
        h = random_hermitian(d, rng)
        rho = mixed_state(w)
        rhs = hermitian_operator(-1j * commutator(h.matrix, rho.matrix))
        dense = sld(rho, h, eps_rank)
        # the images (thin V) and the DensityMatrix (square V)
        for res in (sld(w, h, eps_rank), solve_sld_rhs(w, rhs, eps_rank),
                    dense, solve_sld_rhs(rho, rhs, eps_rank)):
            assert res.rank == dense.rank == rank
            assert res.support_dim_deficit == dense.support_dim_deficit == d - rank
            # near the cut L is ill-conditioned, but it must still solve the equation:
            # a part of R V along V, divided by lambda_2, would not
            l = res.L.matrix
            assert res.residual <= 1e-12
            assert hs_norm(0.5 * (l @ rho.matrix + rho.matrix @ l) - rhs.matrix) <= 1e-12

    def test_trace_is_checked_but_not_hermiticity(self, monkeypatch):
        rng = np.random.default_rng(9)
        w = _images((2, 4), rng)
        with pytest.raises(ValidationError, match="invalid density matrix: density matrix unit trace"):
            sld(2.0 * w, HermitianOperator(np.eye(4)))
        with pytest.raises(ValidationError, match="unit trace"):
            sld(np.full((2, 4), np.nan + 0j), HermitianOperator(np.eye(4)))
        monkeypatch.setattr(importlib.import_module("qfimax.operators"), "density_violations",
                            lambda m: pytest.fail("Hermiticity re-checked"))
        sld(w, HermitianOperator(np.eye(4)))
        sld(_images((5, 4), rng), HermitianOperator(np.eye(4)))

    def test_rejects_a_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="dimension mismatch"):
            sld(_images((2, 4), np.random.default_rng(0)), H_Z)
