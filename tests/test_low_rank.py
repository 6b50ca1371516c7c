"""The compressed and the formed step of the covariant and general routes
against dense references, and metamorphic invariances of optimize."""

import collections
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from qfimax import (
    HermitianOperator,
    OptimizerConfig,
    Povm,
    PureState,
    QuantumChannel,
    channel_adjoint_apply,
    channel_apply,
    commuting_derivative,
    general_objective,
    is_irreducible,
    max_eigvec,
    objective_g,
    optimize,
    optimize_fixed_measurement,
    optimize_general,
    sld,
    solve_sld_rhs,
    step,
)
from qfimax import operators, optimizer
from qfimax.operators import (
    FactoredOperator,
    _kraus_gram,
    _wrap,
    dagger,
    haar_state,
    hermitian_operator,
    hermitian_part,
    kraus_images,
    validate,
)
from qfimax.sld import qfi_from_sld

from helpers import derivative_apply, random_channel, random_hermitian, random_unitary

CFG = OptimizerConfig(restarts=1, max_iters=20, tol=1e-300)


def dense_step(psi, ch, h, cfg=CFG):
    """The uncompressed covariant step: the SLD of the full output, then
    the top eigenvector of the dense Lambda^dag(G(L))."""
    rho = channel_apply(ch, psi)
    res = sld(rho, h, cfg.eps_rank)
    psi_next, degenerate = max_eigvec(channel_adjoint_apply(ch, objective_g(res.L, h)), cfg.eps_deg)
    return psi_next, (qfi_from_sld(rho, res), degenerate, res.support_dim_deficit,
                      is_irreducible(rho, h, cfg.eps_deg))


def assert_matches_dense(psi, ch, h, n_steps=4):
    """step and dense_step agree from psi on, each fed step's next state:
    f within 1e-12 relative, flags and rank deficit exactly, and the next
    state within 1e-12 on steps not flagged degenerate."""
    for n in range(n_steps):
        psi_next, rec = step(psi, ch, h, CFG, n)
        ref_next, (f, degenerate, deficit, irreducible) = dense_step(psi, ch, h)
        assert rec.f == pytest.approx(f, rel=1e-12, abs=1e-12 * max(1.0, abs(f)))
        assert (rec.degenerate_step, rec.sld_rank_deficit, rec.irreducible) == \
            (degenerate, deficit, irreducible)
        if not degenerate:
            np.testing.assert_allclose(psi_next.amplitudes, ref_next.amplitudes, rtol=0, atol=1e-12)
        psi = psi_next
    return rec


def dense_general_step(psi, ch, dch, cfg=CFG):
    """The uncompressed general step: the solution L of (1/2){L, rho} =
    Lambda'(|psi><psi|) on the full output, then the top eigenvector of
    general_objective's sandwich-form M."""
    rho = channel_apply(ch, psi)
    res = solve_sld_rhs(rho, hermitian_operator(derivative_apply(dch, psi)), cfg.eps_rank)
    psi_next, degenerate = max_eigvec(general_objective(res.L, ch, dch), cfg.eps_deg)
    return psi_next, (qfi_from_sld(rho, res), degenerate, res.support_dim_deficit)


def assert_general_matches_dense(psi, ch, h, n_steps=4):
    """optimize_general on commuting_derivative(ch, h), whose first step
    from psi is compressed, and dense_general_step agree on its trace as
    assert_matches_dense checks: f within 1e-12 relative, flags and rank
    deficit exactly, and the next state within 1e-12 on steps not flagged
    degenerate."""
    dch = commuting_derivative(ch, h)
    one = _wrap(PureState, amplitudes=psi.amplitudes[None])
    _, m, _ = optimizer._general_update(ch, dch, CFG)(one)
    assert isinstance(m, FactoredOperator)
    cfg = OptimizerConfig(restarts=1, init_mode="user_supplied", initial_state=psi,
                          max_iters=n_steps, tol=1e-300)
    trace = optimize_general(ch, dch, cfg).trace
    for rec, nxt in zip(trace, trace[1:] + (None,)):
        ref_next, (f, degenerate, deficit) = dense_general_step(rec.psi, ch, dch)
        assert rec.f == pytest.approx(f, rel=1e-12, abs=1e-12 * max(1.0, abs(f)))
        assert (rec.degenerate_step, rec.sld_rank_deficit) == (degenerate, deficit)
        if nxt is not None and not degenerate:
            np.testing.assert_allclose(nxt.psi.amplitudes, ref_next.amplitudes, rtol=0, atol=1e-12)
    return rec


def isometry_channel(d_out, d_in, r, rng, first_column=None):
    """Kraus operators of a random isometry C^d_in -> C^(r d_out); with
    first_column, the isometry maps e_0 to (a multiple of phase one of) it."""
    g = rng.standard_normal((r * d_out, d_in)) + 1j * rng.standard_normal((r * d_out, d_in))
    if first_column is not None:
        g[:, 0] = first_column
    q, _ = np.linalg.qr(g)
    ch = QuantumChannel(tuple(q.reshape(r, d_out, d_in)))
    assert validate(ch) == []
    return ch


def eig_sizes(monkeypatch):
    """Counter of the eigensolves made while the test runs: by matrix size,
    and as ("svd", rows, columns) for thin SVDs of image stacks."""
    sizes = collections.Counter()

    def counted(f):
        def wrapper(a):
            sizes[a.shape[-1]] += 1
            return f(a)
        return wrapper

    def counted_svd(f):
        def wrapper(a, *args, **kwargs):
            sizes[("svd",) + a.shape[-2:]] += 1
            return f(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "svd", counted_svd(np.linalg.svd))
    return sizes


class TestCompressedStep:
    @pytest.mark.parametrize("d", [35, 37])
    def test_small_side_boundary(self, d, monkeypatch):
        # r = 3, m = 6 and 2m = 12 factor rows per Kraus operator: r*2m = 36
        # is d_in + 1 at d = 35 (M formed from the compressed factors) and
        # d_in - 1 at d = 37 (the 36-sized problem)
        rng = np.random.default_rng(d)
        ch, h = random_channel(d, rng, n_kraus=3), random_hermitian(d, rng)
        psi = haar_state(d, rng)
        h.eig  # noqa: B018  (the generator's eigensolve, once, outside the count)
        sizes = eig_sizes(monkeypatch)
        step(psi, ch, h, CFG)
        # the SLD from the thin SVD of the (3, 6) compressed images, the top
        # eigenvector from one eigensolve
        assert sizes == {("svd", 3, 6): 1, (d if d < 36 else 36): 1}
        monkeypatch.undo()
        assert_matches_dense(psi, ch, h)

    @pytest.mark.parametrize("d_out, d_in", [(30, 10), (24, 40)])
    def test_rectangular_channel(self, d_out, d_in):
        rng = np.random.default_rng(d_out + d_in)
        ch, h = isometry_channel(d_out, d_in, 2, rng), random_hermitian(d_out, rng)
        psi = haar_state(d_in, rng)
        assert_matches_dense(psi, ch, h)
        assert_general_matches_dense(psi, ch, h)

    def test_rank_deficient_output(self):
        # K_1 e_0 and K_2 e_0 are parallel and K_3 e_0 = 0: the output of e_0 is pure
        d, r = 32, 3
        rng = np.random.default_rng(3)
        a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        ch = isometry_channel(d, d, r, rng, np.concatenate((a, (0.5 - 2j) * a, np.zeros(d))))
        psi = PureState(np.eye(d)[0])
        w = operators.kraus_images(ch, psi)
        assert np.linalg.matrix_rank(w) == 1 and np.max(np.abs(w[2])) <= 1e-15
        h = random_hermitian(d, rng)
        for check in (assert_matches_dense, assert_general_matches_dense):
            assert check(psi, ch, h, n_steps=1).sld_rank_deficit == d - 1

    def test_scalar_generator(self):
        # H = c 1: the output commutes with H, so L = 0, M = 0 and f = 0
        d = 32
        rng = np.random.default_rng(4)
        ch, h = random_channel(d, rng, n_kraus=2), HermitianOperator(2.5 * np.eye(d))
        psi = haar_state(d, rng)
        psi_next, rec = step(psi, ch, h, CFG)
        assert rec.f <= 1e-24 and rec.degenerate_step and rec.irreducible
        assert np.linalg.norm(psi_next.amplitudes) == pytest.approx(1.0, abs=1e-14)
        assert_matches_dense(psi, ch, h, n_steps=2)

    @pytest.mark.parametrize("support, irreducible", [((0,), False), ((0, 1), True)])
    def test_degenerate_generator_groups(self, support, irreducible):
        # H has eigenvalue groups {0: 8 levels, 1: 8, 2: 16}; the channel
        # keeps levels 0..15 and 16..31 apart, so a probe in the first half
        # gives an output that couples groups 0 and 1 but not 2
        rng = np.random.default_rng(5)
        halves = [random_channel(16, rng, n_kraus=2).stack for _ in range(2)]
        kraus = np.zeros((2, 32, 32), dtype=complex)
        kraus[:, :16, :16], kraus[:, 16:, 16:] = halves
        u = random_unitary(32, rng)
        ch = QuantumChannel(tuple(u @ kraus @ dagger(u)))
        h = HermitianOperator(hermitian_part(u @ np.diag([0.0] * 8 + [1.0] * 8 + [2.0] * 16) @ dagger(u)))
        z = np.zeros(32, dtype=complex)
        for half in support:
            z[16 * half:16 * half + 16] = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        psi = PureState(u @ z / np.linalg.norm(z))
        _, rec = step(psi, ch, h, CFG)
        assert rec.irreducible is irreducible
        assert_matches_dense(psi, ch, h, n_steps=2)

    def test_two_small_eigensolves_per_step(self, monkeypatch):
        # d = 32, r = 2: m = 4 and r*2m = 16. Per step, the SLD from the thin
        # SVD of the (2, 4) compressed images and the top eigenvector from
        # the 16-sized small side; the generator's d-sized eigensolve once
        # per solve, for the centring of H and the reducibility test
        rng = np.random.default_rng(6)
        ch, h = random_channel(32, rng, n_kraus=2), random_hermitian(32, rng)
        sizes = eig_sizes(monkeypatch)
        tops = collections.Counter()
        monkeypatch.setattr(optimizer, "max_eigvec",
                            lambda m, eps: tops.update([m.dim]) or max_eigvec(m, eps))
        # validated once, as parse_problem does: the solve validates nothing
        for obj in (ch, h):
            operators.require_valid(obj)
        monkeypatch.setattr(operators, "validate", lambda obj: pytest.fail("validate called"))
        result = optimize(ch, h, OptimizerConfig(restarts=1, max_iters=7, tol=1e-300))
        n = len(result.trace)
        assert sizes == {("svd", 2, 4): n, 16: n, 32: 1}
        assert tops == {32: n}

    def test_trace_is_iterated_step(self):
        rng = np.random.default_rng(7)
        ch, h = random_channel(48, rng, n_kraus=2), random_hermitian(48, rng)
        psi = haar_state(48, rng)
        cfg = OptimizerConfig(restarts=1, init_mode="user_supplied", initial_state=psi,
                              max_iters=10, tol=1e-300)
        result = optimize(ch, h, cfg)
        for expected in result.trace:
            psi_next, rec = step(psi, ch, h, cfg, expected.n)
            assert rec.f == expected.f
            assert np.array_equal(rec.psi.amplitudes, expected.psi.amplitudes)
            assert (rec.degenerate_step, rec.sld_rank_deficit, rec.irreducible) == \
                (expected.degenerate_step, expected.sld_rank_deficit, expected.irreducible)
            psi = psi_next


class TestFactoredMaxEigvec:
    @pytest.mark.parametrize("r, m, n", [(3, 5, 16), (3, 5, 14), (2, 7, 40), (1, 1, 3)])
    def test_matches_the_formed_operator(self, r, m, n):
        rng = np.random.default_rng(r * m * n)
        c = rng.standard_normal((r, m, n)) + 1j * rng.standard_normal((r, m, n))
        g = random_hermitian(m, rng)
        dense = channel_adjoint_apply(QuantumChannel(tuple(c)), g)
        psi, flag = max_eigvec(FactoredOperator(c, g))
        ref, ref_flag = max_eigvec(dense)
        assert flag == ref_flag
        if not flag:
            np.testing.assert_allclose(psi.amplitudes, ref.amplitudes, rtol=0, atol=1e-12)

    def test_kernel_counts_in_the_degeneracy_flag(self):
        # orthonormal factor rows: M has g's eigenvalues and a 0 on the
        # kernel; g's top eigenvalue 5e-10 is within eps_deg of that 0 only
        rng = np.random.default_rng(9)
        c = random_unitary(8, rng)[:3][None]
        g = HermitianOperator(np.diag([5e-10, -1.0, -2.0]))
        dense = HermitianOperator(hermitian_part(dagger(c[0]) @ g.matrix @ c[0]))
        assert max_eigvec(FactoredOperator(c, g))[1]
        assert max_eigvec(dense)[1]
        g = HermitianOperator(np.diag([5e-9, -1.0, -2.0]))
        assert not max_eigvec(FactoredOperator(c, g))[1]

    @pytest.mark.parametrize("r, m, n", [(1, 4, 5), (2, 3, 7), (1, 4, 6), (2, 2, 7)])
    def test_negative_core_tops_out_on_the_kernel(self, r, m, n):
        # g < 0: M is negative on the row space of C and 0 on its kernel, of
        # dimension n - r*m, so the top eigenvalue is that 0, degenerate
        # exactly when the kernel has more than one dimension
        rng = np.random.default_rng(r + m + n)
        c = rng.standard_normal((r, m, n)) + 1j * rng.standard_normal((r, m, n))
        g = HermitianOperator(-np.eye(m))
        dense = channel_adjoint_apply(QuantumChannel(tuple(c)), g)
        psi, flag = max_eigvec(FactoredOperator(c, g))
        ref, ref_flag = max_eigvec(dense)
        assert flag == ref_flag == (n - r * m > 1)
        v = psi.amplitudes
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(c.reshape(r * m, n) @ v)) <= 1e-13
        if not flag:
            np.testing.assert_allclose(v, ref.amplitudes, rtol=0, atol=1e-12)


def _run(ch, h, psi0):
    cfg = OptimizerConfig(restarts=1, init_mode="user_supplied", initial_state=psi0,
                          max_iters=20, tol=1e-300)
    return np.array([rec.f for rec in optimize(ch, h, cfg).trace])


class TestMetamorphic:
    """The trace of f from a given probe is unchanged by a unitary mixing
    of the Kraus operators, by H -> H + c 1 and by a joint conjugation
    K -> U K V^dag, H -> U H U^dag, psi_0 -> V psi_0; it scales as c^2
    under H -> c H."""

    @pytest.fixture(scope="class", params=[64, 128, 256])
    def instance(self, request):
        d = request.param
        rng = np.random.default_rng(d)
        ch, h, psi0 = random_channel(d, rng, n_kraus=2), random_hermitian(d, rng), haar_state(d, rng)
        return ch, h, psi0, _run(ch, h, psi0), rng

    def test_kraus_mixing(self, instance):
        ch, h, psi0, trace, rng = instance
        mixed = np.tensordot(random_unitary(2, rng), ch.stack, axes=1)
        np.testing.assert_allclose(_run(QuantumChannel(tuple(mixed)), h, psi0), trace, rtol=1e-10)

    def test_generator_shift(self, instance):
        ch, h, psi0, trace, _ = instance
        shifted = HermitianOperator(h.matrix + 2.5 * np.eye(h.dim))
        np.testing.assert_allclose(_run(ch, shifted, psi0), trace, rtol=1e-10)

    def test_joint_conjugation(self, instance):
        ch, h, psi0, trace, rng = instance
        u, v = random_unitary(h.dim, rng), random_unitary(h.dim, rng)
        conj = QuantumChannel(tuple(u @ ch.stack @ dagger(v)))
        hu = HermitianOperator(hermitian_part(u @ h.matrix @ dagger(u)))
        np.testing.assert_allclose(_run(conj, hu, PureState(v @ psi0.amplitudes)), trace, rtol=1e-10)

    def test_generator_scaling(self, instance):
        ch, h, psi0, trace, _ = instance
        np.testing.assert_allclose(_run(ch, HermitianOperator(0.3 * h.matrix), psi0),
                                   0.09 * trace, rtol=1e-10)

    @pytest.mark.parametrize("route", ["qfi", "general", "cfi"])
    def test_generator_shift_on_every_route(self, route, sweep_instances):
        # f_star of H + c 1 is f_star of H: at c = 1e3 within 1e-12 with the
        # same iteration counts and warnings (worst seen 7.7e-14), at c = 1e6
        # within 2e-10 (worst seen 5.5e-11), where the stopping rule may end a
        # restart a step earlier or later. The covariant step's formed M, a
        # difference of two Gram products, meets the second bound only with
        # H centred: uncentred it moved f_star by up to 1.1e-9.
        cfg = OptimizerConfig(restarts=2, seed=5)
        for ch, h, povm in sweep_instances:
            def solve(g):
                if route == "qfi":
                    return optimize(ch, g, cfg)
                if route == "general":
                    return optimize_general(ch, commuting_derivative(ch, g), cfg)
                return optimize_fixed_measurement(ch, g, povm, cfg)

            base = solve(h)
            for c, rel in ((1e3, 1e-12), (1e6, 2e-10)):
                res = solve(HermitianOperator(h.matrix + c * np.eye(h.dim)))
                assert res.f_star == pytest.approx(base.f_star, rel=rel, abs=0)
                if c == 1e3:
                    assert (res.restart_iterations, res.warnings) == \
                        (base.restart_iterations, base.warnings)

    @pytest.mark.parametrize("route", ["qfi", "general", "cfi"])
    def test_generator_shift_at_a_fixed_budget(self, route, sweep_instances):
        # the same shift with the stopping rule out of play: a restart runs 50
        # steps or stops where f repeats exactly, so the margin left is the
        # arithmetic's, worst seen 9.6e-14 at c = 1e3 and 6.6e-11 at c = 1e6
        cfg = OptimizerConfig(restarts=2, seed=5, tol=1e-300, max_iters=50)
        for ch, h, povm in sweep_instances:
            def solve(g):
                if route == "qfi":
                    return optimize(ch, g, cfg)
                if route == "general":
                    return optimize_general(ch, commuting_derivative(ch, g), cfg)
                return optimize_fixed_measurement(ch, g, povm, cfg)

            base = solve(h)
            for c, rel in ((1e3, 1e-12), (1e6, 2e-10)):
                res = solve(HermitianOperator(h.matrix + c * np.eye(h.dim)))
                np.testing.assert_allclose(res.restart_values, base.restart_values, rtol=rel, atol=0)


@pytest.fixture(scope="module")
def sweep_instances():
    """(channel, generator, POVM) of the benchmark's converge sweep
    (bench/inputs.py) at (d, r) = (4, 2), (4, 4), (8, 8) and (16, 2)."""
    path = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return [(QuantumChannel(tuple(raw["kraus"])), HermitianOperator(raw["h"]), Povm(tuple(raw["povm"])))
            for raw in inputs.converge_instances()
            if (raw["d"], raw["r"]) in ((4, 2), (4, 4), (8, 8), (16, 2))]


class TestFormedObjective:
    """The uncompressed covariant step forms M = Lambda^dag(G(L)) as
    4 Lambda^dag(Ht^2) - sum_k (B K_k)^dag (B K_k), B = L + 2i Ht."""

    def test_batched_gram(self):
        rng = np.random.default_rng(17)
        y = rng.standard_normal((3, 2, 5, 6)) + 1j * rng.standard_normal((3, 2, 5, 6))
        g = _kraus_gram(y)
        ref = np.einsum("brmi,brmj->bij", y.conj(), y)
        assert np.abs(g - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.array_equal(g, dagger(g))
        for k in range(len(y)):
            assert np.array_equal(g[k], _kraus_gram(y[k]))

    @pytest.mark.parametrize("d_in, d_out, r", [(6, 4, 2), (8, 8, 8), (12, 12, 1), (16, 16, 2), (32, 32, 8)])
    def test_formed_m_is_the_adjoint_of_g(self, d_in, d_out, r):
        rng = np.random.default_rng(d_in * d_out * r)
        ch, h = isometry_channel(d_out, d_in, r, rng), random_hermitian(d_out, rng)
        psi = _wrap(PureState, amplitudes=np.stack([haar_state(d_in, rng).amplitudes for _ in range(3)]))
        w = kraus_images(ch, psi)
        f, m, _ = optimizer._covariant_update(ch, h, CFG)(psi)
        assert isinstance(m, HermitianOperator) and np.array_equal(m.matrix, dagger(m.matrix))
        res = sld(w, h, CFG.eps_rank)
        ref = channel_adjoint_apply(ch, objective_g(res.L, h)).matrix
        assert np.abs(m.matrix - ref).max() <= 1e-12 * np.abs(m.matrix).max()
        # the step solves with H centred, sld with H as given: equal to rounding
        np.testing.assert_allclose(f, qfi_from_sld(w, res), rtol=1e-12, atol=0)

    def test_eigenvalue_just_above_the_rank_cut(self):
        # the output of e_0 has singular values (1, 0.5, 2e-6), normalised:
        # lambda_min / lambda_max = 4e-12, just above the 1e-12 cut. The step's
        # A part enters the solve in its blocks on (V, lam), as in sld, so no
        # roundoff of a formed -i[H, rho] is divided by lambda_min
        d, r = 8, 3
        rng = np.random.default_rng(31)
        s = np.array([1.0, 0.5, 2e-6])
        s /= np.linalg.norm(s)
        images = (random_unitary(r, rng) * s) @ random_unitary(d, rng)[:r]
        ch = isometry_channel(d, d, r, rng, images.reshape(-1))
        psi = _wrap(PureState, amplitudes=np.eye(d, dtype=complex)[:1])
        w = kraus_images(ch, psi)
        np.testing.assert_allclose(np.linalg.svd(w[0], compute_uv=False), s, rtol=1e-9)
        h = random_hermitian(d, rng)
        _, m, _ = optimizer._covariant_update(ch, h, CFG)(psi)
        ref = channel_adjoint_apply(ch, objective_g(sld(w, h, CFG.eps_rank).L, h)).matrix
        assert np.abs(m.matrix - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
