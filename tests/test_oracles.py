from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfimax import (
    DensityMatrix,
    DiscreteModel,
    GaussianPrior,
    HermitianOperator,
    NumericError,
    PureState,
    QuantumChannel,
    ValidationError,
    Povm,
    bayes_gaussian_fi,
    brute_force_max_qfi,
    channel_apply,
    classical_fi,
    dephasing_channel,
    identity_channel,
    model_from_quantum,
    outcome_statistics,
    pauli_basis_povm,
    qfi,
    sld,
)
from qfimax import oracles
from qfimax.operators import SIGMA_Z, _wrap, haar_state, kraus_images, mixture
from qfimax.optimizer import EPS_TIE
from qfimax.oracles import MAX_GRID_POINTS, bloch_grid, bloch_qfi, eigenbasis_qfi, search_probes
from qfimax.problem import parse_problem

from helpers import (
    bayes_best_estimator,
    projector,
    pure_state_qfi,
    random_channel,
    random_density,
    random_hermitian,
    random_povm,
)

H_Z = HermitianOperator(SIGMA_Z / 2.0)
PLUS = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))
PROBLEMS = sorted((Path(__file__).resolve().parent.parent / "problems").glob("*.json"))


def sin_model(prior):
    """Two-outcome family p_phi = (1 +- sin(phi)) / 2; Fisher information 1 at 0."""
    phis = prior.grid()
    p = 0.5 * (1.0 + np.sin(phis))
    return DiscreteModel(phis, np.stack([p, 1.0 - p], axis=1))


class TestPureStateQfi:
    def test_generator_eigenvector(self):
        assert pure_state_qfi(PureState(np.array([1.0, 0.0])), H_Z) == pytest.approx(0.0, abs=1e-14)

    def test_plus_state(self):
        assert pure_state_qfi(PLUS, H_Z) == pytest.approx(1.0, abs=1e-14)

    def test_extremal_superposition_reaches_spectral_gap(self):
        rng = np.random.default_rng(1)
        h = random_hermitian(4, rng)
        w, v = np.linalg.eigh(h.matrix)
        psi = PureState((v[:, 0] + v[:, -1]) / np.sqrt(2.0))
        assert pure_state_qfi(psi, h) == pytest.approx((w[-1] - w[0]) ** 2, abs=1e-10)


class TestBruteForce:
    def test_zero_generator(self):
        val, _ = brute_force_max_qfi(identity_channel(2), HermitianOperator(np.zeros((2, 2))),
                                     n_samples=50, seed=0)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_unitary_qubit_baseline(self):
        val, psi = brute_force_max_qfi(identity_channel(2), H_Z, n_samples=200, seed=0)
        assert val == pytest.approx(1.0, abs=1e-4)
        assert pure_state_qfi(psi, H_Z) == pytest.approx(val, abs=1e-9)

    def test_dephasing(self):
        val, _ = brute_force_max_qfi(dephasing_channel(0.8), H_Z, n_samples=200, seed=0)
        assert val == pytest.approx(0.64, abs=1e-4)

    def test_never_exceeds_spectral_gap_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            dim = int(rng.integers(2, 5))
            ch = random_channel(dim, rng)
            h = random_hermitian(dim, rng)
            val, _ = brute_force_max_qfi(ch, h, n_samples=300, seed=int(rng.integers(1 << 30)))
            gap = float(np.ptp(np.linalg.eigvalsh(h.matrix)))
            assert val <= gap ** 2 + 1e-8


class TestBayesEstimator:
    def test_uninformative_model(self):
        prior = GaussianPrior(0.1)
        phis = prior.grid()
        model = DiscreteModel(phis, np.full((len(phis), 2), 0.5))
        np.testing.assert_allclose(bayes_best_estimator(model, prior), 0.0, atol=1e-15)

    def test_linearized_sin_model(self):
        # first order: estimator = +/- prior variance
        prior = GaussianPrior(0.05, grid_points=801)
        est = bayes_best_estimator(sin_model(prior), prior)
        np.testing.assert_allclose(est, [prior.delta_prior ** 2, -prior.delta_prior ** 2],
                                   rtol=5e-3)

    def test_antisymmetric_under_outcome_swap(self):
        prior = GaussianPrior(0.2)
        est = bayes_best_estimator(sin_model(prior), prior)
        assert est[0] == pytest.approx(-est[1], abs=1e-12)

    def test_narrow_grid_rejected(self):
        prior = GaussianPrior(0.1, grid_halfwidth=2.0)
        with pytest.raises(ValidationError):
            bayes_best_estimator(sin_model(prior), prior)


class TestDiscreteModel:
    @pytest.mark.parametrize("where", ["probability", "probability row", "grid point"])
    def test_nan_rejected(self, where):
        phis, probs = np.linspace(-1.0, 1.0, 5), np.full((5, 2), 0.5)
        if where == "probability":
            probs[2, 0] = np.nan
        elif where == "probability row":
            probs[2] = np.nan
        else:
            phis[2] = np.nan
        with pytest.raises(ValidationError):
            DiscreteModel(phis, probs)


class TestBayesGaussianFi:
    def test_constant_model(self):
        prior = GaussianPrior(0.1)
        phis = prior.grid()
        model = DiscreteModel(phis, np.full((len(phis), 2), 0.5))
        assert bayes_gaussian_fi(model, prior) == pytest.approx(0.0, abs=1e-12)

    def test_sin_model_narrow_prior(self):
        prior = GaussianPrior(0.001)
        assert bayes_gaussian_fi(sin_model(prior), prior) == pytest.approx(1.0, abs=1e-3)

    def test_monotone_limit(self):
        values = []
        for delta in (0.3, 0.1, 0.03):
            prior = GaussianPrior(delta, grid_points=2001)
            values.append(bayes_gaussian_fi(sin_model(prior), prior))
        assert values == sorted(values)
        assert values[-1] == pytest.approx(1.0, abs=1e-2)

    def test_coarse_grid_flags_inconsistency(self):
        prior = GaussianPrior(0.3, grid_points=21)
        with pytest.raises(NumericError):
            bayes_gaussian_fi(sin_model(prior), prior)


class TestModelFromQuantum:
    def test_origin_row_matches_outcome_statistics(self):
        povm = pauli_basis_povm("y")
        model = model_from_quantum(identity_channel(2), H_Z, PLUS, povm,
                                   np.linspace(-0.1, 0.1, 5))
        stats = outcome_statistics(projector(PLUS), H_Z, povm)
        np.testing.assert_allclose(model.probs[2], stats.probs, atol=1e-12)

    def test_rotation_closed_form(self):
        phis = np.linspace(-1.0, 1.0, 41)
        model = model_from_quantum(identity_channel(2), H_Z, PLUS, pauli_basis_povm("x"), phis)
        np.testing.assert_allclose(model.probs[:, 0], np.cos(phis / 2.0) ** 2, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        ch = random_channel(3, rng)
        h = random_hermitian(3, rng)
        psi = PureState(np.array([1.0, 0.0, 0.0]))
        povm = pauli_basis_povm  # qubit presets unusable here; build projective basis
        from qfimax import basis_povm
        model = model_from_quantum(ch, h, psi, basis_povm(3), np.linspace(-1, 1, 11))
        np.testing.assert_allclose(model.probs.sum(axis=1), 1.0, atol=1e-10)

    @pytest.mark.parametrize("phis", [[0.0, np.nan, 1.0], [[0.0, 1.0]], [0.0, np.inf]])
    def test_grid_must_be_finite_on_one_axis(self, phis):
        with pytest.raises(ValidationError, match="model grid points must be finite, on one axis"):
            model_from_quantum(identity_channel(2), H_Z, PLUS, pauli_basis_povm("x"), phis)

    def test_channel_inside_its_tolerance_is_not_checked_again(self):
        # K_0 = 1 scaled by 1 + 4.99e-11: valid (residual 9.98e-11 <= EPS_TP),
        # and a state whose norm is off by 0.9e-12: the rows sum to 1 + 1.02e-10,
        # beyond the 1e-10 that DiscreteModel allows a caller's rows
        ch = QuantumChannel((np.eye(2) * (1.0 + 4.99e-11),))
        state = PureState(PLUS.amplitudes * (1.0 + 0.9e-12))
        phis = np.linspace(-0.1, 0.1, 5)
        model = model_from_quantum(ch, H_Z, state, pauli_basis_povm("y"), phis)
        assert np.abs(model.probs.sum(axis=1) - 1.0).min() > 1e-10
        with pytest.raises(ValidationError, match="model rows must be non-negative and sum to 1"):
            DiscreteModel(model.phis, model.probs)
        want = model_from_quantum(identity_channel(2), H_Z, PLUS, pauli_basis_povm("y"), phis)
        np.testing.assert_allclose(model.probs, want.probs, rtol=1e-9, atol=0)

    def test_non_finite_probabilities_are_a_numeric_error(self):
        # eigenvalue gaps of 2e308 overflow: the angle at phi = 0 is 0 * inf
        h = HermitianOperator(np.diag([1e308, -1e308]))
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="model probabilities are not finite"):
            model_from_quantum(identity_channel(2), h, PLUS, pauli_basis_povm("x"), [-1.0, 0.0, 1.0])


class TestOracleConsistency:
    def test_bayes_limit_matches_classical_fi(self):
        povm = pauli_basis_povm("y")
        prior = GaussianPrior(1e-3)
        ch = dephasing_channel(0.7)
        model = model_from_quantum(ch, H_Z, PLUS, povm, prior.grid())
        bayes = bayes_gaussian_fi(model, prior)
        direct = classical_fi(outcome_statistics(channel_apply(ch, projector(PLUS)), H_Z, povm))
        assert bayes == pytest.approx(direct, abs=1e-3)


# ---------------------------------------------------------------------------
# grid products against per-point and per-outcome loops


def _loop_model(ch, h, psi, povm, phis):
    rho = channel_apply(ch, psi).matrix
    lam, v = h.eig.eigenvalues, h.eig.eigenvectors
    vd = v.conj().T
    rho_eig = vd @ rho @ v
    els_eig = [vd @ e @ v for e in povm.elements]
    probs = np.empty((len(phis), len(els_eig)))
    for i, phi in enumerate(phis):
        phase = np.exp(-1j * phi * lam)
        rho_phi = (phase[:, None] * rho_eig) * phase.conj()[None, :]
        for x, e in enumerate(els_eig):
            probs[i, x] = np.real(np.trace(rho_phi @ e))
    return probs


def _loop_bayes(model, prior):
    """(best estimator, direct Fisher information), one outcome at a time."""
    phis = model.phis
    g = prior.pdf(phis)
    dprobs = np.gradient(model.probs, phis, axis=0)
    est = np.zeros(model.probs.shape[1])
    direct = 0.0
    for x in range(model.probs.shape[1]):
        p = model.probs[:, x]
        denom = np.trapezoid(g * p, phis)
        if denom >= 1e-300:
            est[x] = np.trapezoid(g * p * phis, phis) / denom
            num = np.trapezoid(g * dprobs[:, x], phis)
            direct += num * num / denom
    return est, direct


def _grid_cases():
    """(channel, generator, input, POVM): n != d both ways, n = 1, an
    outcome of zero probability on the whole grid (a zero element), and a
    generator with a repeated eigenvalue, whose pair a < b has gap 0."""
    rng = np.random.default_rng(17)
    cases = []
    for d, n in ((3, 5), (4, 2)):
        cases.append((random_channel(d, rng, 2), random_hermitian(d, rng),
                      haar_state(d, rng), random_povm(d, rng, n)))
    cases.append((random_channel(2, rng), H_Z, PLUS, Povm((np.eye(2),))))
    povm = random_povm(3, rng, 3)
    cases.append((random_channel(3, rng), random_hermitian(3, rng), haar_state(3, rng),
                  Povm(povm.elements + (np.zeros((3, 3)),))))
    repeated = HermitianOperator(np.diag([1.0, -0.5, 1.0, 0.25]))
    assert np.any(np.diff(repeated.eig.eigenvalues) == 0.0)
    cases.append((random_channel(4, rng, 3), repeated, haar_state(4, rng), random_povm(4, rng, 3)))
    return cases


class TestGridAgainstLoops:
    @pytest.mark.parametrize("case", range(5))
    def test_model_from_quantum(self, case):
        ch, h, psi, povm = _grid_cases()[case]
        # more points than one block, and a partial last block
        phis = np.linspace(-2.0, 2.0, 2501)
        model = model_from_quantum(ch, h, psi, povm, phis)
        np.testing.assert_allclose(model.probs, _loop_model(ch, h, psi, povm, phis),
                                   rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("case", range(5))
    def test_bayes_estimator_and_fisher_information(self, case):
        ch, h, psi, povm = _grid_cases()[case]
        prior = GaussianPrior(0.05, grid_points=2001)
        model = model_from_quantum(ch, h, psi, povm, prior.grid())
        est, direct = _loop_bayes(model, prior)
        np.testing.assert_allclose(bayes_best_estimator(model, prior), est,
                                   rtol=1e-14, atol=1e-14 * prior.delta_prior)
        assert bayes_gaussian_fi(model, prior) == pytest.approx(direct, rel=1e-14, abs=1e-14)

    def test_grid_points_capped(self):
        assert GaussianPrior(0.1, grid_points=MAX_GRID_POINTS).grid_points == MAX_GRID_POINTS
        with pytest.raises(ValidationError, match="at most"):
            GaussianPrior(0.1, grid_points=MAX_GRID_POINTS + 2)


# ---------------------------------------------------------------------------
# the eigenbasis QFI formula and the batched brute-force search


def _qubit_cases():
    """(name, Kraus images, generator): Haar probes through random qubit
    channels of rank 1 to 4 and through a 3 -> 2 channel, pure outputs
    and the maximally mixed output, all under an H with complex
    off-diagonal entries and nonzero trace."""
    rng = np.random.default_rng(41)
    h = random_hermitian(2, rng).matrix + 0.7 * np.eye(2)
    assert h[0, 1].imag != 0.0 and np.trace(h).real != 0.0
    probes = _wrap(PureState, amplitudes=np.stack([haar_state(2, rng).amplitudes for _ in range(64)]))
    cases = [(f"r={r}", kraus_images(random_channel(2, rng, n_kraus=r), probes), h)
             for r in range(1, 5)]
    q = np.linalg.qr(rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))[0]
    wide = QuantumChannel(tuple(q.reshape(2, 2, 3)))
    cases.append(("3->2", kraus_images(wide, _wrap(PureState, amplitudes=np.stack(
        [haar_state(3, rng).amplitudes for _ in range(64)]))), h))
    cases.append(("pure", kraus_images(identity_channel(2), probes), h))
    cases.append(("maximally mixed", np.tile(np.sqrt(0.5) * np.eye(2, dtype=complex), (4, 1, 1)), h))
    return cases


class TestEigenbasisQfi:
    @settings(max_examples=40, deadline=None)
    @given(dim=st.integers(2, 8), rank=st.integers(1, 8), seed=st.integers(0, 2**31))
    def test_matches_sld_qfi(self, dim, rank, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(dim, rng, rank=min(rank, dim))
        h = random_hermitian(dim, rng)
        assert float(eigenbasis_qfi(rho.matrix, h.matrix)) == pytest.approx(qfi(rho, h), rel=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(dim=st.integers(2, 8), seed=st.integers(0, 2**31))
    def test_pure_states_match_closed_form(self, dim, seed):
        rng = np.random.default_rng(seed)
        psi, h = haar_state(dim, rng), random_hermitian(dim, rng)
        assert float(eigenbasis_qfi(projector(psi).matrix, h.matrix)) == \
            pytest.approx(pure_state_qfi(psi, h), rel=1e-10)

    @pytest.mark.parametrize("case", range(7))
    def test_qubit_closed_form_matches(self, case):
        name, w, h = _qubit_cases()[case]
        ref = eigenbasis_qfi(mixture(w), h)
        got = bloch_qfi(w.transpose(1, 2, 0), h)  # the closed form reads probes last
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, ref)), name
        if name == "pure":
            np.testing.assert_allclose(got, [pure_state_qfi(PureState(v), HermitianOperator(h))
                                             for v in w[:, 0]], rtol=1e-12, atol=1e-14)
        if name == "maximally mixed":
            assert np.all(got == 0.0)

    @pytest.mark.parametrize("side", [1.0 + 1e-6, 1.0 - 1e-6])
    def test_eps_rank_boundary(self, side):
        # rho = diag(l_0, t_1, t_2) with t_1 + t_2 just above or just below
        # 1e-12 l_0, and H coupling only levels 1 and 2: the QFI is that
        # pair's 4 (t_1 - t_2)^2 / (t_1 + t_2) above the boundary and 0 below
        pair = side * 1e-12 / (1.0 + side * 1e-12)
        t1 = 0.8 * pair
        rho = DensityMatrix(np.diag([1.0 - pair, t1, pair - t1]))
        h = HermitianOperator(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
        expected = 4.0 * (2.0 * t1 - pair) ** 2 / pair if side > 1.0 else 0.0
        assert float(eigenbasis_qfi(rho.matrix, h.matrix)) == pytest.approx(expected, rel=1e-10, abs=0)
        assert qfi(rho, h) == pytest.approx(expected, rel=1e-10, abs=0)
        assert sld(rho, h).rank == 1

    def test_stack_of_states(self):
        rng = np.random.default_rng(12)
        rhos = [random_density(4, rng, rank=k) for k in (1, 2, 4)]
        h = random_hermitian(4, rng)
        np.testing.assert_allclose(eigenbasis_qfi(np.stack([r.matrix for r in rhos]), h.matrix),
                                   [qfi(r, h) for r in rhos], rtol=1e-10)

    def test_empty_stack(self):
        assert eigenbasis_qfi(np.zeros((0, 2, 2)), H_Z.matrix).shape == (0,)
        assert bloch_qfi(np.zeros((1, 2, 0)), H_Z.matrix).shape == (0,)


class TestBatchedBruteForce:
    def test_matches_per_probe_loop(self):
        # the probes are the stream of n_samples haar_state calls, after
        # the Bloch grid for a qubit; a qutrit and a qubit output
        for dim in (3, 2):
            rng = np.random.default_rng(21)
            ch, h = random_channel(dim, rng, n_kraus=2), random_hermitian(dim, rng)
            val, psi = brute_force_max_qfi(ch, h, n_samples=300, seed=4)
            probe_rng = np.random.default_rng(4)
            probes = [haar_state(dim, probe_rng) for _ in range(300)]
            if dim == 2:
                probes = [PureState(v) for v in bloch_grid()] + probes
            values = [qfi(channel_apply(ch, p), h) for p in probes]
            best = int(np.argmax(values))
            assert val == pytest.approx(values[best], rel=1e-12)
            np.testing.assert_allclose(psi.amplitudes, probes[best].amplitudes, rtol=0, atol=1e-15)

    def test_first_probe_on_a_degenerate_optimum(self):
        # every equator point of the grid is optimal: the first, |+>, is kept
        val, psi = brute_force_max_qfi(dephasing_channel(0.8), H_Z, n_samples=50, seed=0)
        assert val == pytest.approx(0.64, rel=1e-14)
        np.testing.assert_allclose(psi.amplitudes, PLUS.amplitudes, rtol=0, atol=1e-15)

    def test_blocks_are_bounded(self, monkeypatch):
        # a d = 64 output is formed in blocks of at most ORACLE_BLOCK_ENTRIES
        # entries; a qubit output is scored by one closed-form pass over all
        # probes, with no eigensolve
        def scored_shapes(dim, route, other):
            shapes = []
            scorer = getattr(oracles, route)

            def recorded(x, h):
                shapes.append(x.shape)
                return scorer(x, h)

            def unused(*args):
                raise AssertionError(f"{other} or an eigensolve called on d_out = {dim}")

            with monkeypatch.context() as patch:
                patch.setattr(oracles, route, recorded)
                patch.setattr(oracles, other, unused)
                if dim == 2:
                    patch.setattr(np.linalg, "eigh", unused)
                rng = np.random.default_rng(22)
                brute_force_max_qfi(random_channel(dim, rng, n_kraus=1), random_hermitian(dim, rng),
                                    n_samples=40, seed=0)
            return shapes

        shapes = scored_shapes(64, "eigenbasis_qfi", "bloch_qfi")
        assert sum(s[0] for s in shapes) == len(search_probes(64, 40, 0))
        assert max(s[0] for s in shapes) * 64 * 64 <= oracles.ORACLE_BLOCK_ENTRIES
        assert scored_shapes(2, "bloch_qfi", "eigenbasis_qfi") == [(1, 2, len(search_probes(2, 40, 0)))]

    def test_bloch_grid_is_built_once(self):
        grid = bloch_grid()
        assert bloch_grid() is grid
        assert grid.shape == (45 * 80, 2) and not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0, 0] = 0.0

    def test_invalid_output_raises_the_solver_message(self):
        # a channel that is not trace-preserving is rejected at entry, with
        # its own message, before any output is scored (a qubit and a qutrit)
        for dim in (2, 3):
            with pytest.raises(ValidationError, match="invalid QuantumChannel: channel trace preservation"):
                brute_force_max_qfi(QuantumChannel((0.5 * np.eye(dim),)),
                                    random_hermitian(dim, np.random.default_rng(dim)), n_samples=5)

    @pytest.mark.parametrize("path", PROBLEMS, ids=lambda p: p.name)
    def test_bundled_problem_matches_an_eigenbasis_scan(self, path):
        # the oracle command's search, against eigenbasis_qfi on every probe
        problem = parse_problem(path.read_bytes())
        ch, h, seed = problem.channel, problem.generator, problem.optimizer.seed
        val, psi = brute_force_max_qfi(ch, h, n_samples=2000, seed=seed)
        probes = search_probes(ch.dim_in, 2000, seed)
        w = kraus_images(ch, _wrap(PureState, amplitudes=probes))
        values = eigenbasis_qfi(mixture(w), h.matrix)
        best = values.max()
        i = int(np.argmax(values >= best - EPS_TIE * max(1.0, abs(best))))
        assert val == pytest.approx(values[i], rel=1e-12)
        assert np.array_equal(psi.amplitudes, probes[i])
