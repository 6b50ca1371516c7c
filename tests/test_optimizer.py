import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from qfimax import (
    DerivativeChannel,
    DimensionMismatch,
    HermitianOperator,
    NumericError,
    OptimizerConfig,
    PureState,
    QuantumChannel,
    ValidationError,
    channel_adjoint_apply,
    channel_apply,
    commuting_derivative,
    compose_channels,
    dephasing_channel,
    derivative_adjoint_apply,
    finite_difference_derivative,
    general_objective,
    identity_channel,
    objective_g,
    optimize,
    optimize_fixed_measurement,
    optimize_general,
    sld,
    step,
    unitary_channel,
)
from qfimax import operators
from qfimax.cli import main
from qfimax.operators import dagger, hermitian_operator, kraus_images
from qfimax.optimizer import _general_update, _kraus_aligned, best_index, run_alternating
from qfimax.problem import parse_problem
from qfimax.sld import solve_sld_rhs
from qfimax.oracles import brute_force_max_qfi
from qfimax.operators import SIGMA_X, SIGMA_Y, SIGMA_Z

from helpers import (
    derivative_apply,
    emit_problem,
    projector,
    random_channel,
    random_hermitian,
    random_povm,
    variational_value,
)

I2 = np.eye(2, dtype=complex)
H_Z = HermitianOperator(SIGMA_Z / 2.0)
PLUS = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))
FAST = OptimizerConfig(restarts=2, max_iters=200, seed=20)
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


class TestObjectiveG:
    def test_zero(self):
        out = objective_g(HermitianOperator(np.zeros((2, 2))), H_Z)
        np.testing.assert_allclose(out.matrix, 0.0, atol=1e-15)

    def test_commuting_argument(self):
        x = HermitianOperator(0.5 * SIGMA_Z)
        out = objective_g(x, H_Z)
        np.testing.assert_allclose(out.matrix, -x.matrix @ x.matrix, atol=1e-15)

    def test_qubit_hand_expansion(self):
        # -sy^2 + 2i[sz/2, sy] = -I + i(-2i sx) = -I + 2 sx
        out = objective_g(HermitianOperator(SIGMA_Y), H_Z)
        np.testing.assert_allclose(out.matrix, -I2 + 2.0 * SIGMA_X, atol=1e-14)


class TestVariationalValue:
    def test_zero_argument(self):
        x = HermitianOperator(np.zeros((2, 2)))
        assert variational_value(PLUS, x, identity_channel(2), H_Z) == 0.0

    def test_sld_argument_equals_qfi(self):
        val = variational_value(PLUS, HermitianOperator(SIGMA_Y), identity_channel(2), H_Z)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_suboptimal_argument(self):
        # G(sy/2) = -I/4 + sx, expectation in |+> is 0.75
        val = variational_value(PLUS, HermitianOperator(SIGMA_Y / 2.0), identity_channel(2), H_Z)
        assert val == pytest.approx(0.75, abs=1e-12)


class TestStep:
    def test_fixed_point_at_optimum(self):
        psi_next, rec = step(PLUS, identity_channel(2), H_Z, FAST)
        assert rec.f == pytest.approx(1.0, abs=1e-12)
        overlap = abs(np.vdot(psi_next.amplitudes, PLUS.amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_generator_eigenvector_is_stuck(self):
        psi0 = PureState(np.array([1.0, 0.0]))
        _, rec = step(psi0, identity_channel(2), H_Z, FAST)
        assert rec.f == pytest.approx(0.0, abs=1e-12)
        assert rec.degenerate_step
        assert not rec.irreducible

    def test_step_increases_objective(self):
        ch = dephasing_channel(0.8)
        psi0 = PureState(np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)]))
        psi1, rec0 = step(psi0, ch, H_Z, FAST)
        _, rec1 = step(psi1, ch, H_Z, FAST, n=1)
        assert rec1.f > rec0.f


class TestOptimize:
    def test_unitary_baseline(self):
        result = optimize(identity_channel(2), H_Z, FAST)
        oracle, _ = brute_force_max_qfi(identity_channel(2), H_Z, n_samples=1, seed=0)
        assert result.f_star == pytest.approx(1.0, abs=1e-8)
        assert result.f_star >= oracle - 1e-4
        assert result.converged

    def test_dephasing(self):
        result = optimize(dephasing_channel(0.8), H_Z, FAST)
        assert result.f_star == pytest.approx(0.64, abs=1e-6)

    def test_zero_generator(self):
        result = optimize(identity_channel(2), HermitianOperator(np.zeros((2, 2))), FAST)
        assert result.f_star == pytest.approx(0.0, abs=1e-12)
        assert result.converged
        assert len(result.trace) <= 2

    def test_invalid_config(self):
        with pytest.raises(ValidationError):
            OptimizerConfig(tol=-1.0)
        with pytest.raises(ValidationError):
            OptimizerConfig(init_mode="user_supplied")

    @pytest.mark.parametrize("field", ["tol", "eps_rank", "eps_deg"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_config_rejected(self, field, bad):
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            OptimizerConfig(**{field: bad})

    @pytest.mark.parametrize("field", ["max_iters", "restarts", "seed"])
    @pytest.mark.parametrize("bad", [True, "3", 2.5, 3.0])
    def test_integer_fields_reject_other_types(self, field, bad):
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            OptimizerConfig(**{field: bad})

    @pytest.mark.parametrize("field", ["tol", "eps_rank", "eps_deg"])
    @pytest.mark.parametrize("bad", [True, "1e-9", None])
    def test_real_fields_reject_other_types(self, field, bad):
        with pytest.raises(ValidationError, match=f"{field} must be a real number"):
            OptimizerConfig(**{field: bad})

    def test_seed_is_non_negative(self):
        with pytest.raises(ValidationError, match="seed must be non-negative"):
            OptimizerConfig(seed=-1)
        # numpy scalars are numbers too
        assert OptimizerConfig(seed=np.int64(0), tol=np.float64(1e-9)).seed == 0

    def test_trace_is_iterated_step(self):
        # the engine and the public step must not drift apart: same records, bit for bit
        rng = np.random.default_rng(11)
        ch = random_channel(3, rng, n_kraus=2)
        h = random_hermitian(3, rng)
        cfg = OptimizerConfig(restarts=1, init_mode="uniform_superposition", max_iters=60)
        result = optimize(ch, h, cfg)
        psi = PureState(np.full(3, 1.0 / np.sqrt(3), dtype=complex))
        assert len(result.trace) > 2
        for expected in result.trace:
            psi_next, rec = step(psi, ch, h, cfg, expected.n)
            assert rec.n == expected.n
            assert rec.f == expected.f
            assert np.array_equal(rec.psi.amplitudes, expected.psi.amplitudes)
            assert rec.degenerate_step == expected.degenerate_step
            assert rec.sld_rank_deficit == expected.sld_rank_deficit
            assert rec.irreducible is expected.irreducible
            psi = psi_next
        assert np.array_equal(result.psi_star.amplitudes, result.trace[-1].psi.amplitudes)

    @pytest.mark.parametrize("route", ["qfi", "general", "cfi"])
    def test_initial_state_checked_once_on_every_route(self, route):
        # one error for a user-supplied state of the wrong dimension, and one
        # for an unnormalised one, whichever route runs
        rng = np.random.default_rng(40)
        ch, h = random_channel(3, rng), random_hermitian(3, rng)
        routes = {"qfi": lambda cfg: optimize(ch, h, cfg),
                  "general": lambda cfg: optimize_general(ch, commuting_derivative(ch, h), cfg),
                  "cfi": lambda cfg: optimize_fixed_measurement(ch, h, random_povm(3, rng), cfg)}
        for state, error, message in (
                (np.ones(2) / np.sqrt(2.0), DimensionMismatch, "initial state has dim 2"),
                (np.ones(3), ValidationError, "invalid initial state: state normalisation")):
            cfg = OptimizerConfig(init_mode="user_supplied", initial_state=PureState(state))
            with pytest.raises(error, match=message):
                routes[route](cfg)

    def test_uniform_superposition_init(self):
        cfg = OptimizerConfig(init_mode="uniform_superposition", restarts=1, seed=0)
        result = optimize(identity_channel(2), H_Z, cfg)
        assert result.f_star == pytest.approx(1.0, abs=1e-8)

    def test_sandwich_chain(self):
        # F(rho_n, L_n) <= F(rho_{n+1}, L_n) <= F(rho_{n+1}, L_{n+1})
        ch = dephasing_channel(0.7)
        result = optimize(ch, H_Z, FAST)
        for a, b in zip(result.trace, result.trace[1:]):
            l_n = sld(channel_apply(ch, projector(a.psi)), H_Z).L
            f_mid = variational_value(b.psi, l_n, ch, H_Z)
            assert f_mid >= a.f - 1e-9
            assert b.f >= f_mid - 1e-9

    def test_monotone_and_bounded_random_scenarios(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            ch = random_channel(dim, rng)
            h = random_hermitian(dim, rng)
            result = optimize(ch, h, OptimizerConfig(restarts=1, max_iters=80, seed=1))
            gap = float(np.ptp(np.linalg.eigvalsh(h.matrix)))
            for a, b in zip(result.trace, result.trace[1:]):
                assert b.f >= a.f - 1e-9 * max(1.0, a.f)
            assert result.f_star <= gap ** 2 + 1e-8

    @pytest.mark.parametrize("d, r", [(32, 2), (32, 32), (64, 2), (64, 64)])
    def test_monotone_at_large_dimension(self, d, r):
        rng = np.random.default_rng(d + r)
        ch = random_channel(d, rng, n_kraus=r)
        h = random_hermitian(d, rng)
        result = optimize(ch, h, OptimizerConfig(restarts=1, max_iters=20, tol=1e-300, seed=r))
        assert len(result.trace) == 20
        for a, b in zip(result.trace, result.trace[1:]):
            assert b.f >= a.f - 1e-12 * max(1.0, a.f)

    @pytest.mark.parametrize("d, r, cfg, f_star", [
        (16, 2, OptimizerConfig(restarts=2, seed=5), 147.72875324275773),
        (64, 3, OptimizerConfig(restarts=1, seed=5, max_iters=20, tol=1e-300), 588.575806968471),
    ])
    def test_pinned_f_star(self, d, r, cfg, f_star):
        # values from the per-Kraus-loop implementation of the channel maps
        rng = np.random.default_rng(1000 + d)
        ch = random_channel(d, rng, n_kraus=r)
        h = random_hermitian(d, rng)
        assert optimize(ch, h, cfg).f_star == pytest.approx(f_star, rel=1e-12, abs=0)

    def test_one_eigensolve_per_matrix(self, monkeypatch):
        # per step: the output state (SLD solve, r = d) and the objective
        # operator (top eigenvector), neither phase-fixed; the generator
        # once per solve, phase-fixed; validate once per input, at entry,
        # and never again: a second solve on the same inputs calls it 0 times
        calls = {"eigh": 0, "hermitian_eig": 0, "validate": 0}

        def counted(name, f):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
        monkeypatch.setattr(operators, "hermitian_eig", counted("hermitian_eig", operators.hermitian_eig))
        monkeypatch.setattr(operators, "validate", counted("validate", operators.validate))
        rng = np.random.default_rng(8)
        ch, h = random_channel(4, rng), random_hermitian(4, rng)
        result = optimize(ch, h, OptimizerConfig(restarts=1, max_iters=7, tol=1e-300))
        assert calls == {"eigh": 2 * len(result.trace) + 1, "hermitian_eig": 1, "validate": 2}
        optimize(ch, h, OptimizerConfig(restarts=1, max_iters=7, tol=1e-300))
        assert calls["validate"] == 2

    def test_x_update_is_optimal(self):
        rng = np.random.default_rng(3)
        ch = dephasing_channel(0.5)
        psi = PureState(np.array([0.8, 0.6], dtype=complex))
        l = sld(channel_apply(ch, projector(psi)), H_Z).L
        best = variational_value(psi, l, ch, H_Z)
        for _ in range(100):
            y = random_hermitian(2, rng, scale=0.3)
            perturbed = HermitianOperator(l.matrix + y.matrix)
            assert variational_value(psi, perturbed, ch, H_Z) <= best + 1e-9


class TestRestartTies:
    @staticmethod
    def _ending_at(values):
        """A stub update under which restart k holds f = values[k] from the
        first step on, so that every restart stops at the second."""
        def update(psi):
            m = hermitian_operator(np.broadcast_to(np.diag([0.0, 1.0]), (len(psi.amplitudes), 2, 2)))
            return np.array(values), m, np.zeros(len(psi.amplitudes), dtype=int)
        return update

    @pytest.mark.parametrize("values, winner", [([1.0, 1.0 + 1e-15, 1.0 + 1e-9], 2),
                                                ([1.0, 1.0 + 1e-15], 0)])
    def test_lowest_index_wins_within_the_window(self, values, winner):
        cfg = OptimizerConfig(restarts=len(values), max_iters=5)
        result = run_alternating(identity_channel(2), cfg, self._ending_at(values))
        assert result.restart_values == tuple(values)
        assert result.restart_iterations == (2,) * len(values)
        assert result.restart_converged == (True,) * len(values)
        assert result.f_star == values[winner]

    @pytest.mark.parametrize("values", [[0.0, np.inf], [np.nan, 1.0]])
    def test_non_finite_maximum_is_a_numeric_error(self, values):
        # a threshold best - EPS_TIE * |best| of inf is NaN, which kept index 0
        with np.errstate(all="raise"), pytest.raises(NumericError, match="not finite"):
            best_index(values)

    def test_non_finite_step_value_is_a_numeric_error(self):
        cfg = OptimizerConfig(restarts=2, max_iters=5)
        with pytest.raises(NumericError, match="step value is not finite"):
            run_alternating(identity_channel(2), cfg, self._ending_at([1.0, np.nan]))

    def test_degenerate_optimum_keeps_first_restart(self):
        pf = parse_problem((PROBLEMS / "dephasing_08.json").read_bytes())
        assert pf.optimizer.restarts == 8
        many = optimize(pf.channel, pf.generator, pf.optimizer)
        one = optimize(pf.channel, pf.generator, dataclasses.replace(pf.optimizer, restarts=1))
        assert np.array_equal(many.psi_star.amplitudes, one.psi_star.amplitudes)
        assert many.f_star == one.f_star


class TestGeneralObjective:
    def test_zero_argument(self):
        dch = commuting_derivative(identity_channel(2), H_Z)
        out = general_objective(HermitianOperator(np.zeros((2, 2))), identity_channel(2), dch)
        np.testing.assert_allclose(out.matrix, 0.0, atol=1e-15)

    def test_commuting_family_reduces_to_objective_g(self):
        ch = dephasing_channel(0.6)
        dch = commuting_derivative(ch, H_Z)
        rng = np.random.default_rng(8)
        x = random_hermitian(2, rng)
        reduced = channel_adjoint_apply(ch, objective_g(x, H_Z))
        np.testing.assert_allclose(general_objective(x, ch, dch).matrix,
                                   reduced.matrix, atol=1e-8)

    def test_stack_on_a_non_square_channel(self):
        # one exactly Hermitian operator per X of a stack, each the sandwich
        # form -Lambda^dag(X^2) + 2 Lambda'^dag(X)
        rng = np.random.default_rng(12)
        g = rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))
        ch = QuantumChannel(tuple(np.linalg.qr(g)[0].reshape(2, 4, 6)))
        dch = commuting_derivative(ch, random_hermitian(4, rng))
        x = hermitian_operator(rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4)))
        out = general_objective(x, ch, dch).matrix
        assert np.array_equal(out, dagger(out))
        for k in range(3):
            xk = HermitianOperator(x.matrix[k])
            ref = (2.0 * derivative_adjoint_apply(dch, xk).matrix
                   - channel_adjoint_apply(ch, HermitianOperator(xk.matrix @ xk.matrix)).matrix)
            np.testing.assert_allclose(out[k], ref, rtol=0, atol=1e-12 * np.abs(ref).max())

    def test_dimension_mismatch(self):
        dch = commuting_derivative(identity_channel(2), H_Z)
        with pytest.raises(DimensionMismatch):
            general_objective(HermitianOperator(np.eye(3)), identity_channel(2), dch)

    def test_zero_derivative_is_negative_semidefinite(self):
        dch = DerivativeChannel(((np.zeros((2, 2)), np.zeros((2, 2))),))
        x = HermitianOperator(SIGMA_X + 0.5 * SIGMA_Z)
        out = general_objective(x, dephasing_channel(0.5), dch)
        assert np.max(np.linalg.eigvalsh(out.matrix)) <= 1e-12


class TestOptimizeGeneral:
    def test_commuting_family_matches_optimize(self):
        ch = dephasing_channel(0.8)
        result = optimize_general(ch, commuting_derivative(ch, H_Z), FAST)
        reference = optimize(ch, H_Z, FAST)
        assert result.f_star == pytest.approx(reference.f_star, abs=1e-7)

    def test_reducibility_not_recorded(self):
        # no generator to test against: the flag is absent, never a passing placeholder
        ch = dephasing_channel(0.8)
        result = optimize_general(ch, commuting_derivative(ch, H_Z), FAST)
        assert all(rec.irreducible is None for rec in result.trace)
        assert all(isinstance(rec.irreducible, bool) for rec in optimize(ch, H_Z, FAST).trace)

    def test_zero_derivative_channel(self):
        dch = DerivativeChannel(((np.zeros((2, 2)), np.zeros((2, 2))),))
        result = optimize_general(identity_channel(2), dch,
                                  OptimizerConfig(restarts=1, max_iters=10, seed=0))
        assert result.f_star == pytest.approx(0.0, abs=1e-12)

    @staticmethod
    def _scaled_finite_difference(c):
        """unitary_channel(c H0, 0) and its finite difference at step
        1e-3 / c, whose pairs are of size c 500, and one restart from a probe
        1e-7 off an eigenvector of H0, where the derivative's output is of
        size c 1e-7."""
        h = c * random_hermitian(4, np.random.default_rng(0)).matrix
        v = np.linalg.eigh(h)[1]
        psi = PureState((v[:, 0] + 1e-7 * v[:, 1]) / np.linalg.norm(v[:, 0] + 1e-7 * v[:, 1]))
        fd = finite_difference_derivative(lambda phi: unitary_channel(h, phi), 0.0, 1e-3 / c)
        cfg = OptimizerConfig(restarts=1, init_mode="user_supplied", initial_state=psi)
        return unitary_channel(h, 0.0), fd, cfg

    def test_finite_difference_near_an_eigenvector_at_scale(self):
        # the output's Hermiticity is checked against the size of its terms,
        # whose roundoff it carries, not against its own size
        ch, fd, cfg = self._scaled_finite_difference(1.0)
        ref = optimize_general(ch, fd, cfg).f_star
        c = 1e7
        ch, fd, cfg = self._scaled_finite_difference(c)
        assert optimize_general(ch, fd, cfg).f_star / c ** 2 == pytest.approx(ref, rel=1e-9)

    def test_non_hermitian_derivative_output_rejected(self):
        # sigma -> A sigma B^dag is not Hermitian for a random pair A != B:
        # the map is rejected at entry, before any step
        rng = np.random.default_rng(12)
        a, b = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
        with pytest.raises(ValidationError, match="derivative channel hermiticity preservation"):
            optimize_general(identity_channel(3), DerivativeChannel(((a, b),)), FAST)
        # nor is the finite difference above with a phase of 1e-6 on one pair:
        # an asymmetry far below the size of its pairs, far above roundoff
        ch, fd, cfg = self._scaled_finite_difference(1e7)
        (a0, b0), *rest = fd.terms
        with pytest.raises(ValidationError, match="derivative channel hermiticity preservation"):
            optimize_general(ch, DerivativeChannel((((1.0 + 1e-6j) * a0, b0), *rest)), cfg)
        # a NaN pair fails the check too, before it reaches the solve
        nan = np.diag([np.nan, 1.0, 1.0]).astype(complex)
        with pytest.raises(ValidationError, match="derivative channel hermiticity preservation"):
            optimize_general(identity_channel(3), DerivativeChannel(((nan, 2.0 * np.eye(3)),)), FAST)

    def test_finite_difference_family_matches_oracle(self):
        base = dephasing_channel(0.8)
        fd = finite_difference_derivative(
            lambda phi: compose_channels(base, unitary_channel(H_Z.matrix, phi)))
        result = optimize_general(base, fd, FAST)
        oracle, _ = brute_force_max_qfi(base, H_Z, n_samples=1, seed=0)
        assert result.f_star == pytest.approx(oracle, abs=1e-5)


class TestKrausAlignedDerivative:
    """optimize_general takes the mirrored pairs (A, K_k), (K_k, A) on the
    Kraus operators as F_k of a completed square, and the rest as
    sandwiches."""

    def test_commuting_derivative_pairs_bit_equal_to_a_loop(self):
        rng = np.random.default_rng(21)
        ch, h = random_channel(5, rng, n_kraus=3), random_hermitian(5, rng)
        dch = commuting_derivative(ch, h)
        expected = []
        for k in ch.kraus:
            hk = -1j * (h.matrix @ k)
            expected += [(hk, k), (k, hk)]
        assert len(dch.terms) == len(expected)
        for (a, b), (x, y) in zip(dch.terms, expected):
            assert np.array_equal(a, x) and np.array_equal(b, y)
        assert not any(m.flags.writeable for pair in dch.terms for m in pair)
        assert not dch.stack.flags.writeable

    def test_split_and_gauge(self):
        # commuting pairs leave no residual, and the gauge removes a shift of H
        rng = np.random.default_rng(22)
        ch, h = random_channel(4, rng, n_kraus=2), random_hermitian(4, rng)
        f, residual = _kraus_aligned(ch, commuting_derivative(ch, h))
        mu = np.trace(channel_adjoint_apply(ch, h).matrix).real / 4
        assert residual is None
        np.testing.assert_allclose(f, -1j * ((h.matrix - mu * np.eye(4)) @ ch.stack), atol=1e-14)
        shifted, _ = _kraus_aligned(ch, commuting_derivative(ch, HermitianOperator(h.matrix + 3.0 * np.eye(4))))
        np.testing.assert_allclose(shifted, f, atol=1e-14)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        dch = DerivativeChannel(commuting_derivative(ch, h).terms + ((ch.kraus[0], ch.kraus[0]), (x, ch.kraus[1])))
        # a pair that is its own mirror and one without a mirror stay sandwiches
        assert np.array_equal(_kraus_aligned(ch, dch)[1].stack, dch.stack[:, -2:])

    def test_no_mirrored_pair_keeps_the_pair_list(self):
        base = dephasing_channel(0.8)
        fd = finite_difference_derivative(
            lambda phi: compose_channels(base, unitary_channel(H_Z.matrix, phi)))
        assert _kraus_aligned(base, fd) == (None, fd)

    def test_explicit_terms_match_commuting_flag(self, tmp_path, capsys):
        source = PROBLEMS / "general_commuting_dephasing.json"
        emitted = tmp_path / "terms.json"
        emitted.write_text(emit_problem(parse_problem(source.read_bytes())))
        assert "terms" in json.loads(emitted.read_text())["derivative_channel"]
        reports = []
        for path in (source, emitted):
            assert main(["qfi-max-general", "--problem", str(path)]) == 0
            report = json.loads(capsys.readouterr().out)
            del report["timestamp"], report["config_echo"]["problem_sha256"]
            reports.append(report)
        assert reports[0] == reports[1]

    def test_lone_kraus_aligned_pair_rejected(self):
        # (A, K_0) without its mirror does not preserve Hermiticity: rejected at entry
        rng = np.random.default_rng(23)
        ch = random_channel(3, rng, n_kraus=2)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        with pytest.raises(ValidationError, match="derivative channel hermiticity preservation"):
            optimize_general(ch, DerivativeChannel(((a, ch.kraus[0]),)), FAST)

    @pytest.mark.parametrize("d, r", [(4, 4), (6, 2)])
    def test_split_objective_matches_sandwich_form(self, d, r):
        # commuting pairs plus one residual (cX, X), and a finite difference
        # with no mirrored pair: the step gives general_objective's M at a
        # fixed probe, and its value Tr(rho L^2) is <psi|M|psi>
        rng = np.random.default_rng(24 + d)
        ch, h = random_channel(d, rng, n_kraus=r), random_hermitian(d, rng)
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        mixed = DerivativeChannel(commuting_derivative(ch, h).terms + ((0.3 * x, x),))
        assert len(_kraus_aligned(ch, mixed)[1].terms) == 1
        fd = finite_difference_derivative(lambda phi: compose_channels(ch, unitary_channel(h.matrix, phi)))
        assert _kraus_aligned(ch, fd) == (None, fd)
        psi = PureState(rng.standard_normal(d) + 1j * rng.standard_normal(d))
        psi = PureState(psi.amplitudes / np.linalg.norm(psi.amplitudes))
        w = kraus_images(ch, psi)
        for dch in (mixed, fd):
            f, m, _ = _general_update(ch, dch, FAST)(psi)
            rhs = hermitian_operator(derivative_apply(dch, psi))
            ref = general_objective(solve_sld_rhs(w, rhs).L, ch, dch).matrix
            np.testing.assert_allclose(m.matrix, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
            assert f == pytest.approx(np.vdot(psi.amplitudes, ref @ psi.amplitudes).real, rel=1e-12)
