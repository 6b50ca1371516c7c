import numpy as np
import pytest

from qfimax import (
    DensityMatrix,
    EstimatorCoefficients,
    HermitianOperator,
    OptimizerConfig,
    Povm,
    PureState,
    QuantumChannel,
    ValidationError,
    basis_povm,
    channel_apply,
    classical_fi,
    identity_channel,
    optimal_d,
    optimize_fixed_measurement,
    outcome_statistics,
    pauli_basis_povm,
    qfi,
    x_moment,
)
from qfimax import cfi
from qfimax.cfi import EPS_PROB, OutcomeStatistics
from qfimax.operators import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _wrap,
    channel_adjoint_apply,
    haar_state,
    kraus_images,
)

from helpers import (
    cfi_objective,
    cfi_operator,
    mixed_state,
    projector,
    random_channel,
    random_density,
    random_hermitian,
    random_povm,
)

I2 = np.eye(2, dtype=complex)
H_Z = HermitianOperator(SIGMA_Z / 2.0)
PLUS = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))
FAST = OptimizerConfig(restarts=2, max_iters=200, seed=15)


class TestOutcomeStatistics:
    def test_maximally_mixed(self):
        stats = outcome_statistics(DensityMatrix(I2 / 2.0), H_Z, basis_povm(2))
        np.testing.assert_allclose(stats.probs, [0.5, 0.5], atol=1e-14)

    def test_sigma_y_basis_derivatives(self):
        # -i[H, rho] = sy/2; hand trace against the sy projectors
        stats = outcome_statistics(projector(PLUS), H_Z, pauli_basis_povm("y"))
        np.testing.assert_allclose(stats.probs, [0.5, 0.5], atol=1e-14)
        np.testing.assert_allclose(stats.dprobs, [0.5, -0.5], atol=1e-14)

    def test_computational_basis_is_blind(self):
        stats = outcome_statistics(projector(PLUS), H_Z, basis_povm(2))
        np.testing.assert_allclose(stats.dprobs, [0.0, 0.0], atol=1e-14)

    @pytest.mark.parametrize("probs, dprobs, what", [
        ([np.nan, np.nan], [0.0, 0.0], "probabilities"),
        ([0.5, 0.5], [np.nan, 0.0], "probability derivatives"),
    ])
    def test_nan_sums_rejected(self, probs, dprobs, what):
        with pytest.raises(ValidationError, match=f"{what} sum to nan"):
            OutcomeStatistics(probs, dprobs, ("0", "1"))


class TestClassicalFi:
    def test_zero_derivatives(self):
        stats = OutcomeStatistics([0.5, 0.5], [0.0, 0.0], ("0", "1"))
        assert classical_fi(stats) == 0.0

    def test_two_outcome_value(self):
        stats = OutcomeStatistics([0.5, 0.5], [0.5, -0.5], ("0", "1"))
        assert classical_fi(stats) == pytest.approx(1.0, abs=1e-14)

    def test_zero_probability_outcome_skipped(self):
        stats = OutcomeStatistics([1.0, 0.0], [0.0, 0.0], ("0", "1"))
        assert classical_fi(stats) == 0.0


class TestOptimalD:
    def test_commuting_state(self):
        assert np.all(optimal_d(projector(PLUS), H_Z, basis_povm(2)).values == 0.0)

    def test_sigma_y_basis(self):
        d = optimal_d(projector(PLUS), H_Z, pauli_basis_povm("y"))
        np.testing.assert_allclose(d.values, [1.0, -1.0], atol=1e-13)

    def test_zero_probability_coefficient_is_zero(self):
        povm = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), ("0", "1"))
        rho = projector(PureState(np.array([1.0, 0.0])))
        d = optimal_d(rho, HermitianOperator(SIGMA_X), povm)
        assert d.values[1] == 0.0


class TestMomentOperators:
    def test_constant_coefficients(self):
        d = EstimatorCoefficients([0.7, 0.7], ("0", "1"))
        np.testing.assert_allclose(x_moment(d, basis_povm(2), 1).matrix, 0.7 * I2, atol=1e-14)
        np.testing.assert_allclose(x_moment(d, basis_povm(2), 2).matrix, 0.49 * I2, atol=1e-14)

    def test_projective_second_moment_is_square(self):
        rng = np.random.default_rng(2)
        d = EstimatorCoefficients(rng.standard_normal(3), ("0", "1", "2"))
        povm = basis_povm(3)
        x1 = x_moment(d, povm, 1).matrix
        x2 = x_moment(d, povm, 2).matrix
        np.testing.assert_allclose(x2, x1 @ x1, atol=1e-12)

    def test_sigma_y_projectors(self):
        d = EstimatorCoefficients([1.0, -1.0], ("+", "-"))
        povm = pauli_basis_povm("y")
        np.testing.assert_allclose(x_moment(d, povm, 1).matrix, SIGMA_Y, atol=1e-14)
        np.testing.assert_allclose(x_moment(d, povm, 2).matrix, I2, atol=1e-14)

    def test_label_mismatch(self):
        d = EstimatorCoefficients([1.0, -1.0], ("a", "b"))
        with pytest.raises(ValidationError):
            x_moment(d, pauli_basis_povm("y"), 1)


class TestCfiObjective:
    def test_zero_coefficients(self):
        d = EstimatorCoefficients([0.0, 0.0], ("+", "-"))
        assert cfi_objective(PLUS, d, identity_channel(2), H_Z, pauli_basis_povm("y")) == 0.0

    def test_optimal_coefficients_reach_classical_fi(self):
        povm = pauli_basis_povm("y")
        rho = channel_apply(identity_channel(2), projector(PLUS))
        d = optimal_d(rho, H_Z, povm)
        direct = classical_fi(outcome_statistics(rho, H_Z, povm))
        val = cfi_objective(PLUS, d, identity_channel(2), H_Z, povm)
        assert val == pytest.approx(direct, abs=1e-12)

    def test_random_coefficients_are_suboptimal(self):
        rng = np.random.default_rng(9)
        povm = pauli_basis_povm("y")
        rho = projector(PLUS)
        best = cfi_objective(PLUS, optimal_d(rho, H_Z, povm), identity_channel(2), H_Z, povm)
        for _ in range(50):
            d = EstimatorCoefficients(rng.standard_normal(2), povm.labels)
            assert cfi_objective(PLUS, d, identity_channel(2), H_Z, povm) <= best + 1e-9


class TestFixedMeasurementOptimizer:
    def test_sigma_y_basis_saturates_qfi(self):
        result = optimize_fixed_measurement(identity_channel(2), H_Z, pauli_basis_povm("y"), FAST)
        assert result.f_star == pytest.approx(1.0, abs=1e-8)

    def test_commuting_povm_gives_zero(self):
        result = optimize_fixed_measurement(identity_channel(2), H_Z, basis_povm(2), FAST)
        assert result.f_star == pytest.approx(0.0, abs=1e-8)

    def test_trivial_single_outcome_povm(self):
        povm = Povm((I2,), ("0",))
        result = optimize_fixed_measurement(identity_channel(2), H_Z, povm,
                                            OptimizerConfig(restarts=1, max_iters=20, seed=0))
        assert result.f_star == pytest.approx(0.0, abs=1e-12)

    def test_monotone_traces(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            dim = int(rng.integers(2, 4))
            ch = random_channel(dim, rng)
            h = random_hermitian(dim, rng)
            povm = random_povm(dim, rng)
            result = optimize_fixed_measurement(
                ch, h, povm, OptimizerConfig(restarts=1, max_iters=60, seed=6))
            for a, b in zip(result.trace, result.trace[1:]):
                assert b.f >= a.f - 1e-9 * max(1.0, a.f)


class TestHeisenbergStep:
    """The fixed-POVM step reads (p, dp) and forms M from A_x =
    Lambda^dag(Pi_x) and B_x = Lambda^dag(i[H, Pi_x]), made once per solve;
    the Schroedinger picture, through the output state, is the reference."""

    @staticmethod
    def _case(d_in, d_out, r, seed):
        """A channel from a random isometry C^d_in -> C^(r d_out), a
        generator and a POVM whose first outcome, when r d_in < d_out, is
        the projector off the channel's range: p = 0 for every probe."""
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((r * d_out, d_in)) + 1j * rng.standard_normal((r * d_out, d_in))
        ch = QuantumChannel(tuple(np.linalg.qr(g)[0].reshape(r, d_out, d_in)))
        h, povm = random_hermitian(d_out, rng), random_povm(d_out, rng)
        if r * d_in < d_out:
            u = np.linalg.svd(ch.stack.swapaxes(0, 1).reshape(d_out, r * d_in))[0]
            on = u[:, :r * d_in] @ u[:, :r * d_in].conj().T
            povm = Povm((np.eye(d_out) - on,) + tuple(on @ e @ on for e in povm.elements))
        return ch, h, povm

    # rectangular both ways, rank-deficient outputs (r < d_out) and, in the
    # first, an outcome off the range; then a square full-rank case
    CASES = [(2, 6, 2), (5, 3, 2), (4, 4, 4)]

    @pytest.mark.parametrize("d_in, d_out, r", CASES)
    def test_step_is_the_schroedinger_picture(self, d_in, d_out, r):
        ch, h, povm = self._case(d_in, d_out, r, d_in * d_out * r)
        rng = np.random.default_rng(r)
        psi = _wrap(PureState, amplitudes=np.stack([haar_state(d_in, rng).amplitudes for _ in range(3)]))
        w = kraus_images(ch, psi)
        f, m, deficits = cfi._fixed_measurement_update(ch, h, povm)(psi)
        rho = mixed_state(w)
        stats = outcome_statistics(rho, h, povm)
        if r * d_in < d_out:
            assert np.all(stats.probs[:, 0] <= EPS_PROB)
        np.testing.assert_allclose(f, classical_fi(stats), rtol=1e-12, atol=0)
        ref = channel_adjoint_apply(ch, cfi_operator(optimal_d(rho, h, povm), h, povm)).matrix
        assert np.abs(m.matrix - ref).max() <= 1e-12 * np.abs(ref).max()
        assert deficits is None  # counted on the kept trace (optimizer.run_alternating)

    @pytest.mark.parametrize("d_in, d_out, r", CASES)
    def test_heisenberg_operators_sum_to_the_identity_and_zero(self, d_in, d_out, r):
        ch, h, povm = self._case(d_in, d_out, r, d_in * d_out * r)
        a, b = cfi._heisenberg_rows(ch, h, povm).view(complex).reshape(2, -1, d_in, d_in)
        np.testing.assert_allclose(a.sum(axis=0), np.eye(d_in), rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.sum(axis=0), 0.0, rtol=0, atol=1e-12)

    def test_rank_deficits_of_the_kept_trace(self):
        # the step leaves the rank count to the kept trace: each record's
        # deficit is d_out - rank of its own output, counted from rho's spectrum
        ch, h, povm = self._case(6, 6, 2, 3)
        cfg = OptimizerConfig(restarts=3, seed=2, max_iters=40)
        result = optimize_fixed_measurement(ch, h, povm, cfg)
        for rec in result.trace:
            lam = np.linalg.eigvalsh(channel_apply(ch, rec.psi).matrix)
            assert rec.sld_rank_deficit == 6 - np.count_nonzero(lam > cfg.eps_rank * lam[-1]), rec.n
        assert {rec.sld_rank_deficit for rec in result.trace} == {4}
        assert any(w.startswith("rank-deficient SLD") for w in result.warnings)


class TestGeneratorScale:
    # the derivatives dp scale with H, and so does the roundoff of their sum
    @pytest.mark.parametrize("d, r", [(4, 2), (8, 8)])
    def test_value_scales_as_the_square(self, d, r):
        rng = np.random.default_rng([d, r, 5])
        ch, h, povm = random_channel(d, rng, n_kraus=r), random_hermitian(d, rng), random_povm(d, rng)
        cfg = OptimizerConfig(restarts=2, seed=1)
        values = [optimize_fixed_measurement(ch, HermitianOperator(c * h.matrix), povm, cfg).f_star / c ** 2
                  for c in (1.0, 1e4, 1e8)]
        assert values == pytest.approx([values[0]] * 3, rel=1e-9, abs=0)

    @pytest.mark.parametrize("dprobs", [[1e8, -1e8 + 10.0], [0.5, -0.4], [3e-8, 0.0]])
    def test_a_corrupted_derivative_row_is_rejected(self, dprobs):
        with pytest.raises(ValidationError, match="probability derivatives sum to"):
            OutcomeStatistics([0.5, 0.5], dprobs, ("0", "1"))

    def test_large_derivatives_that_sum_to_zero_pass(self):
        stats = OutcomeStatistics([0.5, 0.5], [1e8, -1e8 + 0.5], ("0", "1"))
        assert stats.dprobs[0] == 1e8


class TestDataProcessing:
    def test_classical_bounded_by_quantum(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            dim = int(rng.integers(2, 5))
            rho = random_density(dim, rng)
            h = random_hermitian(dim, rng)
            povm = random_povm(dim, rng)
            fc = classical_fi(outcome_statistics(rho, h, povm))
            assert fc <= qfi(rho, h) + 1e-8

    def test_mean_zero_optimal_coefficients(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            rho = random_density(dim, rng)
            h = random_hermitian(dim, rng)
            povm = random_povm(dim, rng)
            stats = outcome_statistics(rho, h, povm)
            d = optimal_d(rho, h, povm)
            assert abs(np.sum(stats.probs * d.values)) <= 1e-10


# ---------------------------------------------------------------------------
# stack products against per-element loops


def _loop_outcome_statistics(rho, h, povm):
    drho = -1j * (h.matrix @ rho.matrix - rho.matrix @ h.matrix)
    probs = [np.real(np.trace(rho.matrix @ e)) for e in povm.elements]
    dprobs = [np.real(np.trace(drho @ e)) for e in povm.elements]
    return np.array(probs), np.array(dprobs)


def _loop_x_moment(d, povm, j):
    out = np.zeros((povm.dim, povm.dim), dtype=complex)
    for c, e in zip(d.values, povm.elements):
        out += (c ** j) * e
    return 0.5 * (out + out.conj().T)


def _stack_cases():
    """(rho, h, povm): n != d both ways, n = 1, and an outcome that rho
    never gives (a zero element, and the kernel of a projector)."""
    rng = np.random.default_rng(41)
    cases = [(random_density(d, rng), random_hermitian(d, rng), random_povm(d, rng, n))
             for d, n in ((3, 7), (5, 2), (4, 4))]
    cases.append((random_density(3, rng), random_hermitian(3, rng), Povm((np.eye(3),))))
    povm = random_povm(3, rng, 4)
    cases.append((random_density(3, rng), random_hermitian(3, rng),
                  Povm(povm.elements + (np.zeros((3, 3)),))))
    cases.append((DensityMatrix(np.diag([1.0, 0.0, 0.0])), random_hermitian(3, rng),
                  basis_povm(3)))
    return cases


class TestStackAgainstLoops:
    @pytest.mark.parametrize("case", range(6))
    def test_outcome_statistics(self, case):
        rho, h, povm = _stack_cases()[case]
        stats = outcome_statistics(rho, h, povm)
        probs, dprobs = _loop_outcome_statistics(rho, h, povm)
        np.testing.assert_allclose(stats.probs, probs, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(stats.dprobs, dprobs, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("case", range(6))
    def test_x_moments(self, case):
        rho, h, povm = _stack_cases()[case]
        d = optimal_d(rho, h, povm)
        for j in (1, 2):
            want = _loop_x_moment(d, povm, j)
            np.testing.assert_allclose(x_moment(d, povm, j).matrix, want,
                                       rtol=1e-14, atol=1e-14 * max(1.0, np.abs(want).max()))
