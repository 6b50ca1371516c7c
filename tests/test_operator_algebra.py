import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfimax import (
    ValidationError,
    DensityMatrix,
    DerivativeChannel,
    DimensionMismatch,
    HermitianOperator,
    NumericError,
    Povm,
    PureState,
    QuantumChannel,
    channel_adjoint_apply,
    channel_apply,
    commuting_derivative,
    compose_channels,
    dephasing_channel,
    depolarizing_channel,
    derivative_adjoint_apply,
    finite_difference_derivative,
    haar_state,
    hermitian_eig,
    identity_channel,
    max_eigvec,
    qfi,
    unitary_channel,
    validate,
)
from qfimax import operators
from qfimax.operators import SIGMA_X, SIGMA_Y, SIGMA_Z, dagger, hermitian_operator, hermitian_part

from helpers import (
    anticommutator,
    commutator,
    derivative_apply,
    projector,
    random_channel,
    random_density,
    random_hermitian,
    random_povm,
)

I2 = np.eye(2, dtype=complex)
PLUS = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))


class TestCommutators:
    def test_pauli_commutator(self):
        np.testing.assert_allclose(commutator(SIGMA_Z, SIGMA_X), 2j * SIGMA_Y, atol=1e-15)

    def test_self_commutator_vanishes(self):
        h = np.array([[1.0, 2.0], [2.0, -0.5]])
        np.testing.assert_allclose(commutator(h, h), 0.0, atol=1e-15)

    def test_diagonal_with_sigma_x(self):
        # hand multiplication: diag(1,2) sx - sx diag(1,2)
        out = commutator(np.diag([1.0, 2.0]), SIGMA_X)
        np.testing.assert_allclose(out, np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-15)

    def test_identity_anticommutator(self):
        a = np.array([[0.3, 1.0j], [-1.0j, 2.0]])
        np.testing.assert_allclose(anticommutator(I2, a), 2.0 * a, atol=1e-15)

    def test_pauli_anticommutator_vanishes(self):
        np.testing.assert_allclose(anticommutator(SIGMA_X, SIGMA_Y), 0.0, atol=1e-15)

    def test_sigma_z_with_diagonal(self):
        out = anticommutator(SIGMA_Z, np.diag([0.7, -0.2]))
        np.testing.assert_allclose(out, np.diag([1.4, 0.4]), atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            commutator(I2, np.eye(3))
        with pytest.raises(DimensionMismatch):
            anticommutator(I2, np.eye(3))


class TestChannelAction:
    def test_identity_channel(self):
        rho = projector(PLUS)
        out = channel_apply(identity_channel(2), rho)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-15)

    def test_full_dephasing_kills_coherences(self):
        out = channel_apply(dephasing_channel(0.0), projector(PLUS))
        np.testing.assert_allclose(out.matrix, I2 / 2.0, atol=1e-15)

    def test_partial_dephasing_closed_form(self):
        # Kraus sum by hand: 0.9 rho + 0.1 sz rho sz
        out = channel_apply(dephasing_channel(0.8), projector(PLUS))
        np.testing.assert_allclose(out.matrix, 0.5 * (I2 + 0.8 * SIGMA_X), atol=1e-15)

    def test_adjoint_identity(self):
        a = HermitianOperator(SIGMA_X + 0.3 * SIGMA_Z)
        out = channel_adjoint_apply(identity_channel(2), a)
        np.testing.assert_allclose(out.matrix, a.matrix, atol=1e-15)

    def test_adjoint_unitality(self):
        rng = np.random.default_rng(11)
        ch = random_channel(3, rng)
        out = channel_adjoint_apply(ch, HermitianOperator(np.eye(3)))
        np.testing.assert_allclose(out.matrix, np.eye(3), atol=1e-12)

    def test_dephasing_adjoint_shrinks_sigma_x(self):
        out = channel_adjoint_apply(dephasing_channel(0.8), HermitianOperator(SIGMA_X))
        np.testing.assert_allclose(out.matrix, 0.8 * SIGMA_X, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            channel_apply(identity_channel(3), projector(PLUS))

    @settings(max_examples=20, deadline=None)
    @given(dim=st.integers(2, 6), seed=st.integers(0, 2**31))
    def test_trace_and_positivity_preserved(self, dim, seed):
        rng = np.random.default_rng(seed)
        ch = random_channel(dim, rng)
        rho = random_density(dim, rng)
        out = channel_apply(ch, rho)
        assert abs(np.trace(out.matrix).real - 1.0) < 1e-10
        assert np.min(np.linalg.eigvalsh(out.matrix)) > -1e-10

    @settings(max_examples=20, deadline=None)
    @given(dim=st.integers(2, 6), seed=st.integers(0, 2**31))
    def test_adjoint_duality(self, dim, seed):
        rng = np.random.default_rng(seed)
        ch = random_channel(dim, rng)
        rho = random_density(dim, rng)
        a = random_hermitian(dim, rng)
        lhs = np.trace(a.matrix @ channel_apply(ch, rho).matrix)
        rhs = np.trace(channel_adjoint_apply(ch, a).matrix @ rho.matrix)
        assert abs(lhs - rhs) < 1e-10


class TestChannelApplyContract:
    """channel_apply requires its channel and state valid, once each, and
    marks its output valid: no solver checks that output again."""

    def test_rejects_an_invalid_channel_or_state_with_its_own_message(self):
        with pytest.raises(ValidationError, match="invalid channel: channel trace preservation"):
            channel_apply(QuantumChannel((0.5 * I2,)), PLUS)
        with pytest.raises(ValidationError, match="invalid input state: state normalisation"):
            channel_apply(identity_channel(2), PureState(np.array([1.0, 1.0])))
        with pytest.raises(ValidationError, match="invalid input state: density matrix unit trace"):
            channel_apply(identity_channel(2), DensityMatrix(I2))

    def test_output_of_a_channel_inside_its_tolerance_is_not_checked_again(self, monkeypatch):
        # K_0 scaled by 1 + 4e-11: valid (residual 8e-11 <= EPS_TP), yet
        # the output's trace is off by more than EPS_TRACE
        kraus = dephasing_channel(0.8).stack.copy()
        kraus[0] *= 1.0 + 4e-11
        ch = QuantumChannel(tuple(kraus))
        assert validate(ch) == []
        for state in (PLUS, projector(PLUS)):
            out = channel_apply(ch, state)
            assert abs(np.trace(out.matrix) - 1.0) > 1e-12
            validated = []
            with monkeypatch.context() as patch:
                patch.setattr(operators, "validate", lambda obj: validated.append(obj) or [])
                assert qfi(out, HermitianOperator(SIGMA_Z / 2.0)) == pytest.approx(0.64, rel=1e-9)
                channel_apply(ch, state)  # the channel and the state were validated already
            assert validated == []


class TestDerivativeChannel:
    def test_commuting_derivative_adjoint_is_commutator(self):
        # expansion of d/dphi e^{-i phi H} rho e^{i phi H} at phi=0
        h = HermitianOperator(SIGMA_Z / 2.0)
        dch = commuting_derivative(identity_channel(2), h)
        x = HermitianOperator(SIGMA_X + 0.2 * SIGMA_Y)
        out = derivative_adjoint_apply(dch, x)
        expected = hermitian_part(1j * commutator(h.matrix, x.matrix))
        np.testing.assert_allclose(2.0 * out.matrix,
                                   2.0 * expected, atol=1e-14)

    def test_zero_derivative_channel(self):
        dch = DerivativeChannel(((np.zeros((2, 2)), np.zeros((2, 2))),))
        out = derivative_adjoint_apply(dch, HermitianOperator(SIGMA_X))
        np.testing.assert_allclose(out.matrix, 0.0, atol=1e-15)

    def test_depolarizing_family_annihilates_identity(self):
        # derivative of a trace-preserving family maps I to 0 in the adjoint
        dch = finite_difference_derivative(lambda phi: depolarizing_channel(0.3 + phi))
        out = derivative_adjoint_apply(dch, HermitianOperator(I2))
        np.testing.assert_allclose(out.matrix, 0.0, atol=1e-10)

    def test_finite_difference_matches_exact_commuting(self):
        h = HermitianOperator(SIGMA_Z / 2.0)
        base = dephasing_channel(0.6)
        fd = finite_difference_derivative(
            lambda phi: compose_channels(base, unitary_channel(h.matrix, phi)))
        exact = commuting_derivative(base, h)
        rng = np.random.default_rng(4)
        x = random_hermitian(2, rng)
        np.testing.assert_allclose(derivative_adjoint_apply(fd, x).matrix,
                                   derivative_adjoint_apply(exact, x).matrix, atol=1e-8)

    def test_validate_flags_trace_leak(self):
        # rho -> sigma_x rho sigma_x - does not annihilate the trace
        dch = DerivativeChannel(((SIGMA_X, SIGMA_X),))
        violations = validate(dch)
        assert any("trace" in v.invariant for v in violations)

    def test_empty_pair_list_rejected(self):
        with pytest.raises(ValidationError, match="at least one"):
            DerivativeChannel(())

    def test_asymmetric_adjoint_rejected(self):
        # X -> A^dag X B is not Hermitian for a random pair A != B
        rng = np.random.default_rng(11)
        a, b = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
        with pytest.raises(NumericError, match="non-Hermitian"):
            derivative_adjoint_apply(DerivativeChannel(((a, b),)), random_hermitian(3, rng))

    def test_nan_adjoint_rejected(self):
        a = np.diag([np.nan, 1.0]).astype(complex)
        with pytest.raises(NumericError, match="non-Hermitian"):
            derivative_adjoint_apply(DerivativeChannel(((a, np.eye(2)),)), HermitianOperator(np.eye(2)))


class TestEigendecomposition:
    def test_diagonal_reordering(self):
        eig = hermitian_eig(HermitianOperator(np.diag([3.0, 1.0, 2.0])))
        np.testing.assert_allclose(eig.eigenvalues, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(np.abs(eig.eigenvectors),
                                   np.eye(3)[:, [1, 2, 0]], atol=1e-15)

    def test_sigma_x_spectrum(self):
        eig = hermitian_eig(HermitianOperator(SIGMA_X))
        np.testing.assert_allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-15)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(eig.eigenvectors[:, 0], [s, -s], atol=1e-15)
        np.testing.assert_allclose(eig.eigenvectors[:, 1], [s, s], atol=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(dim=st.integers(2, 6), seed=st.integers(0, 2**31))
    def test_reconstruction_residual(self, dim, seed):
        a = random_hermitian(dim, np.random.default_rng(seed), scale=3.0)
        eig = hermitian_eig(a)
        rebuilt = eig.eigenvectors @ np.diag(eig.eigenvalues) @ dagger(eig.eigenvectors)
        scale = max(1.0, np.max(np.abs(a.matrix)))
        assert np.max(np.abs(a.matrix - rebuilt)) <= 1e-10 * scale
        gram = dagger(eig.eigenvectors) @ eig.eigenvectors
        assert np.max(np.abs(gram - np.eye(dim))) <= 1e-10

    def test_determinism(self):
        a = random_hermitian(5, np.random.default_rng(99))
        e1 = hermitian_eig(a)
        e2 = hermitian_eig(a)
        assert np.array_equal(e1.eigenvalues, e2.eigenvalues)
        assert np.array_equal(e1.eigenvectors, e2.eigenvectors)

    def test_rejects_non_hermitian(self):
        with pytest.raises(Exception):
            hermitian_eig(HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]])))


class TestMaxEigvec:
    def test_diagonal(self):
        psi, flag = max_eigvec(HermitianOperator(np.diag([1.0, 2.0, 3.0])))
        np.testing.assert_allclose(psi.amplitudes, [0.0, 0.0, 1.0], atol=1e-15)
        assert not flag

    def test_fully_degenerate(self):
        psi, flag = max_eigvec(HermitianOperator(np.eye(2)))
        assert flag
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    def test_one_by_one(self):
        # a single eigenvalue has no neighbour to be degenerate with, alone or in a stack
        psi, flag = max_eigvec(HermitianOperator(np.array([[-2.0]])))
        assert psi.amplitudes.tolist() == [1.0] and flag is False
        psi, flags = max_eigvec(hermitian_operator(np.array([[[3.0]], [[-1.0]]], dtype=complex)))
        assert psi.amplitudes.tolist() == [[1.0], [1.0]] and flags.tolist() == [False, False]

    def test_tilted_qubit(self):
        # 2x2 closed form: top eigenvector of sz + 0.5 sx
        a = HermitianOperator(SIGMA_Z + 0.5 * SIGMA_X)
        lam = np.sqrt(1.25)
        direction = np.array([0.5, lam - 1.0])
        direction = direction / np.linalg.norm(direction)
        psi, flag = max_eigvec(a)
        assert not flag
        assert abs(abs(np.vdot(direction, psi.amplitudes)) - 1.0) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(dim=st.integers(2, 6), seed=st.integers(0, 2**31))
    def test_eigenvector_residual(self, dim, seed):
        a = random_hermitian(dim, np.random.default_rng(seed), scale=2.0)
        psi, _ = max_eigvec(a)
        lam = float(np.max(np.linalg.eigvalsh(a.matrix)))
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12
        residual = np.linalg.norm(a.matrix @ psi.amplitudes - lam * psi.amplitudes)
        assert residual <= 1e-9 * max(1.0, abs(lam))


class TestValidate:
    def test_valid_depolarizing_channel(self):
        assert validate(depolarizing_channel(0.3)) == []

    def test_double_identity_kraus(self):
        ch = QuantumChannel((I2, I2))
        violations = validate(ch)
        assert len(violations) == 1
        assert "trace preservation" in violations[0].invariant
        assert violations[0].residual == pytest.approx(1.0)

    def test_incomplete_povm(self):
        povm = Povm((0.6 * I2, 0.6 * I2))
        violations = validate(povm)
        assert any("completeness" in v.invariant and v.residual == pytest.approx(0.2)
                   for v in violations)

    def test_valid_density_matrix(self):
        rng = np.random.default_rng(5)
        assert validate(random_density(4, rng)) == []

    def test_bad_trace_density_matrix(self):
        violations = validate(DensityMatrix(2.0 * I2))
        assert any("trace" in v.invariant for v in violations)

    def test_haar_state_is_normalised(self):
        psi = haar_state(5, np.random.default_rng(0))
        assert validate(psi) == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_are_violations(self, bad):
        m = np.array([[bad, 0.0], [0.0, 1.0]], dtype=complex)
        assert validate(HermitianOperator(m))
        assert validate(QuantumChannel((m,)))
        assert validate(Povm((m, I2 - m)))
        assert validate(PureState(np.array([bad, 1.0])))
        assert validate(DensityMatrix(m))
        assert validate(DerivativeChannel(((m, I2),)))


# ---------------------------------------------------------------------------
# stack-based maps against per-operator loops

SHAPES = [(3, 5, 1), (5, 3, 1), (4, 4, 2), (3, 5, 7), (5, 3, 9)]  # (d_out, d_in, r)


def _gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _loop_sandwich(a_list, x, b_list):
    return sum(a @ x @ b.conj().T for a, b in zip(a_list, b_list))


def _loop_adjoint_sandwich(a_list, x, b_list):
    return sum(a.conj().T @ x @ b for a, b in zip(a_list, b_list))


def _hermitian_matrix(rng, d):
    g = _gaussian(rng, d, d)
    return 0.5 * (g + g.conj().T)


def _gaussian_channel(kraus):
    """QuantumChannel of the Gaussian Kraus operators kraus, marked valid as
    channel_apply requires: they are not trace-preserving ((3, 5, 1) cannot
    be), and the products compared below do not depend on it."""
    ch = QuantumChannel(tuple(kraus))
    object.__setattr__(ch, "_valid", True)
    return ch


class TestStackedMaps:
    @pytest.mark.parametrize("d_out, d_in, r", SHAPES)
    def test_channel_maps_match_loops(self, d_out, d_in, r):
        rng = np.random.default_rng(100 * d_out + 10 * d_in + r)
        kraus = [_gaussian(rng, d_out, d_in) for _ in range(r)]
        ch = _gaussian_channel(kraus)
        rho = random_density(d_in, rng)
        a = _hermitian_matrix(rng, d_out)
        got = channel_apply(ch, rho).matrix
        want = _loop_sandwich(kraus, rho.matrix, kraus)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
        got = channel_adjoint_apply(ch, HermitianOperator(a)).matrix
        want = _loop_adjoint_sandwich(kraus, a, kraus)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("d_out, d_in, r", SHAPES)
    def test_pure_input_matches_projector(self, d_out, d_in, r):
        rng = np.random.default_rng(7 + r)
        ch = _gaussian_channel(_gaussian(rng, d_out, d_in) for _ in range(r))
        psi = haar_state(d_in, rng)
        got = channel_apply(ch, psi).matrix
        want = channel_apply(ch, projector(psi)).matrix
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("d_out, d_in, r", SHAPES)
    def test_duality(self, d_out, d_in, r):
        # Tr[Lambda(rho) A] = Tr[rho Lambda^dag(A)]
        rng = np.random.default_rng(31 * r + d_out)
        ch = _gaussian_channel(_gaussian(rng, d_out, d_in) for _ in range(r))
        rho = random_density(d_in, rng)
        a = HermitianOperator(_hermitian_matrix(rng, d_out))
        lhs = np.trace(channel_apply(ch, rho).matrix @ a.matrix)
        rhs = np.trace(rho.matrix @ channel_adjoint_apply(ch, a).matrix)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("d_out, d_in, r", SHAPES)
    def test_derivative_maps_match_loops(self, d_out, d_in, r):
        rng = np.random.default_rng(200 + r)
        a_list = [_gaussian(rng, d_out, d_in) for _ in range(r)]
        b_list = [_gaussian(rng, d_out, d_in) for _ in range(r)]
        # pairs (A, B) and (B, A): a Hermiticity-preserving map
        dch = DerivativeChannel(tuple(zip(a_list + b_list, b_list + a_list)))
        x = _gaussian(rng, d_in, d_in)
        want = _loop_sandwich(a_list + b_list, x, b_list + a_list)
        np.testing.assert_allclose(derivative_apply(dch, x), want, rtol=0, atol=1e-12 * np.abs(want).max())
        psi = haar_state(d_in, rng)
        want = derivative_apply(dch, projector(psi).matrix)
        np.testing.assert_allclose(derivative_apply(dch, psi), want, rtol=0, atol=1e-12 * np.abs(want).max())
        a = _hermitian_matrix(rng, d_out)
        want = _loop_adjoint_sandwich(a_list + b_list, a, b_list + a_list)
        got = derivative_adjoint_apply(dch, HermitianOperator(a)).matrix
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("d_out, d_in, r", SHAPES)
    def test_trace_preservation_residual_matches_loop(self, d_out, d_in, r):
        rng = np.random.default_rng(300 + r)
        kraus = [_gaussian(rng, d_out, d_in) for _ in range(r)]
        want = np.abs(sum(k.conj().T @ k for k in kraus) - np.eye(d_in)).max()
        (violation,) = validate(QuantumChannel(tuple(kraus)))
        assert violation.residual == pytest.approx(want, rel=1e-12)

    def test_channel_holds_one_read_only_copy(self):
        rng = np.random.default_rng(4)
        ch = random_channel(3, rng, n_kraus=5)
        assert ch.stack.shape == (5, 3, 3) and not ch.stack.flags.writeable
        assert all(np.shares_memory(k, ch.stack) and not k.flags.writeable for k in ch.kraus)
        dch = commuting_derivative(ch, random_hermitian(3, rng))
        assert dch.stack.shape == (2, 10, 3, 3) and not dch.stack.flags.writeable
        assert all(np.shares_memory(m, dch.stack) for pair in dch.terms for m in pair)

    def test_stack_rejects_mixed_shapes(self):
        with pytest.raises(ValidationError, match="share one shape"):
            QuantumChannel((I2, np.eye(3)))
        with pytest.raises(ValidationError, match="equal shape"):
            DerivativeChannel(((I2, I2), (np.eye(3), np.eye(3))))

    def test_povm_holds_one_read_only_copy(self):
        povm = random_povm(3, np.random.default_rng(6), 5)
        assert povm.stack.shape == (5, 3, 3) and not povm.stack.flags.writeable
        assert all(np.shares_memory(e, povm.stack) and not e.flags.writeable
                   for e in povm.elements)

    def test_povm_rejects_mixed_and_non_square_elements(self):
        with pytest.raises(ValidationError, match="one shape"):
            Povm((I2, np.eye(3)))
        with pytest.raises(ValidationError, match="square"):
            Povm((np.ones((2, 3)) / 3.0, np.ones((2, 3)) / 3.0))
        with pytest.raises(ValidationError, match="one shape"):
            Povm((I2, np.ones(2)))


def _loop_validate_povm(povm):
    """Per-element POVM checks, in the order validate reports them."""
    out, s = [], np.zeros((povm.dim, povm.dim), dtype=complex)
    for lbl, e in zip(povm.labels, povm.elements):
        s += e
        r = np.max(np.abs(e - e.conj().T))
        if not r <= 1e-12:
            out.append((f"POVM element '{lbl}' hermiticity", r))
        else:
            wmin = np.min(np.linalg.eigvalsh(0.5 * (e + e.conj().T)))
            if not wmin >= -1e-10:
                out.append((f"POVM element '{lbl}' positivity", -wmin))
    r = np.max(np.abs(s - np.eye(povm.dim)))
    if not r <= 1e-10:
        out.append(("POVM completeness", r))
    return out


class TestValidatePovm:
    def _check(self, povm):
        got = [(v.invariant, v.residual) for v in validate(povm)]
        want = _loop_validate_povm(povm)
        assert [g[0] for g in got] == [w[0] for w in want]
        np.testing.assert_allclose([g[1] for g in got], [w[1] for w in want],
                                   rtol=1e-14, atol=1e-15)
        return got

    @pytest.mark.parametrize("d, n", [(3, 7), (5, 2), (2, 1)])
    def test_valid_povms(self, d, n):
        rng = np.random.default_rng(d * 10 + n)
        povm = random_povm(d, rng, n) if n > 1 else Povm((np.eye(d),))
        assert self._check(povm) == []

    def test_each_invariant_against_the_loop(self):
        rng = np.random.default_rng(8)
        els = list(random_povm(3, rng, 4).elements)
        els[1] = els[1] + 1e-6 * np.triu(np.ones((3, 3)), 1)  # not Hermitian
        els[2] = els[2] - 0.5 * np.eye(3)  # not positive
        assert [v[0] for v in self._check(Povm(tuple(els), ("a", "b", "c", "d")))] == [
            "POVM element 'b' hermiticity", "POVM element 'c' positivity", "POVM completeness"]

    def test_nan_element_next_to_non_hermitian_element(self):
        skew = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        nan = np.array([[np.nan, 0.0], [0.0, 0.5]], dtype=complex)
        neg = np.diag([1.5, -0.5]).astype(complex)
        povm = Povm((skew, nan, neg, I2), ("s", "n", "m", "i"))
        self._check(povm)
        got = validate(povm)
        assert [v.invariant for v in got] == [
            "POVM element 's' hermiticity", "POVM element 'n' hermiticity",
            "POVM element 'm' positivity", "POVM completeness"]
        assert got[0].residual == pytest.approx(0.1) and np.isnan(got[1].residual)
        assert got[2].residual == pytest.approx(0.5) and np.isnan(got[3].residual)


def _hermitian_basis(dim: int):
    """E_jj, then E_jk + E_kj and -i E_jk + i E_kj for j < k."""
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


def _probe_residuals(dch):
    """The derivative residuals by applying the map to each of the d^2
    Hermitian basis elements, O(r d^5): (hermiticity, trace)."""
    herm = trace = 0.0
    for e in _hermitian_basis(dch.dim_in):
        y = derivative_apply(dch, e)
        herm = max(herm, np.abs(y - y.conj().T).max())
        trace = max(trace, abs(np.trace(y)))
    return herm, trace


def _validate_residuals(dch):
    found = {v.invariant: v.residual for v in validate(dch)}
    return (found.get("derivative channel hermiticity preservation", 0.0),
            found.get("derivative channel trace annihilation", 0.0))


class TestDerivativeValidation:
    @pytest.mark.parametrize("d_out, d_in, r", SHAPES + [(6, 6, 3), (16, 16, 32)])
    def test_closed_form_matches_probe_loop(self, d_out, d_in, r):
        # independent A_k and B_k: neither Hermiticity-preserving nor trace-annihilating
        rng = np.random.default_rng(400 + 10 * d_in + r)
        dch = DerivativeChannel(tuple((_gaussian(rng, d_out, d_in), _gaussian(rng, d_out, d_in))
                                      for _ in range(r)))
        herm, trace = _probe_residuals(dch)
        assert herm > 1e-3 and trace > 1e-3
        assert _validate_residuals(dch) == pytest.approx((herm, trace), rel=1e-14)

    @pytest.mark.parametrize("dim, r", [(2, 1), (3, 2), (5, 4)])
    def test_channel_family_derivatives_pass(self, dim, r):
        rng = np.random.default_rng(500 + dim)
        dch = commuting_derivative(random_channel(dim, rng, n_kraus=r), random_hermitian(dim, rng))
        assert validate(dch) == []
        herm, trace = _probe_residuals(dch)
        assert herm <= 1e-10 and trace <= 1e-10

    def test_each_invariant_flagged_alone(self):
        flagged = lambda dch: {v.invariant.split()[-1] for v in validate(dch)}
        # rho -> sigma_x rho: neither Hermitian on Hermitian input nor traceless
        assert flagged(DerivativeChannel(((SIGMA_X, I2),))) == {"preservation", "annihilation"}
        # rho -> [sigma_z, rho]: traceless but anti-Hermitian on Hermitian input
        assert flagged(DerivativeChannel(((SIGMA_Z, I2), (-I2, SIGMA_Z)))) == {"preservation"}
        # rho -> sigma_x rho sigma_x: Hermiticity-preserving, keeps the trace
        assert flagged(DerivativeChannel(((SIGMA_X, SIGMA_X),))) == {"annihilation"}
        # rho -> -i [sigma_z, rho]: a genuine derivative
        assert flagged(DerivativeChannel(((-1j * SIGMA_Z, I2), (I2, -1j * SIGMA_Z)))) == set()


def _loop_phase_fix(v):
    v = v.copy()
    for j in range(v.shape[1]):
        k = int(np.argmax(np.abs(v[:, j])))
        pivot = v[k, j]
        if abs(pivot) > 0:
            v[:, j] *= pivot.conjugate() / abs(pivot)
    return v


class TestEigPhases:
    @pytest.mark.parametrize("name", ["sigma_x", "sigma_y", "fourier4", "random5"])
    def test_phase_fix_matches_loop(self, name):
        if name == "sigma_x":
            m = SIGMA_X
        elif name == "sigma_y":
            m = SIGMA_Y
        elif name == "fourier4":
            # eigenvectors of the cyclic shift: every entry has magnitude 1/2
            shift = np.roll(np.eye(4), 1, axis=0)
            m = shift + shift.T + 0.3j * (shift - shift.T)
        else:
            m = random_hermitian(5, np.random.default_rng(5)).matrix
        eig = hermitian_eig(HermitianOperator(m))
        want = _loop_phase_fix(np.linalg.eigh(m)[1])
        np.testing.assert_array_equal(eig.eigenvectors, want)
        v = eig.eigenvectors
        pivot = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
        assert np.all(pivot.real > 0) and np.all(np.abs(pivot.imag) <= 1e-15)

    def test_exact_tie_takes_lowest_index(self):
        # eigenvectors (1, +-1)/sqrt(2) and (1, +-i)/sqrt(2): both entries tie
        for m in (SIGMA_X, SIGMA_Y):
            v = hermitian_eig(HermitianOperator(m)).eigenvectors
            np.testing.assert_allclose(v[0], [1 / np.sqrt(2)] * 2, rtol=0, atol=1e-15)
