"""The restarts of a solve run in lockstep, as one stack of probes. Each
restart must still be the solve from its own start alone: same values,
steps, flags, stop and warnings."""

import dataclasses

import numpy as np
import pytest

from qfimax import (
    DensityMatrix,
    HermitianOperator,
    OptimizerConfig,
    PureState,
    channel_apply,
    classical_fi,
    commuting_derivative,
    is_irreducible,
    max_eigvec,
    optimize,
    optimize_fixed_measurement,
    optimize_general,
    outcome_statistics,
    sld,
    step,
)
from qfimax.channels import identity_channel, pauli_basis_povm
from qfimax import optimizer, oracles
from qfimax.operators import FactoredOperator, haar_state, hermitian_operator
from qfimax.sld import qfi_from_sld

from helpers import mixed_state, random_channel, random_hermitian, random_povm

# (d, r, max_iters). Dense sizes first: at (4, 2) the restarts stop at
# different steps, at (6, 3) the covariant ones partly at the cap. Then
# compressed covariant sizes (d >= 24, 8r <= d): (24, 2) takes the top
# eigenvector from the small side and its restarts converge at different
# steps or meet the cap; (24, 3) forms the compressed operator (r * 4r >= d).
CASES = [(4, 2, 1000), (6, 3, 50), (24, 2, 150), (24, 3, 30)]
# the operator M that the channel routes' steps hand max_eigvec at (d, r): a
# HermitianOperator ("dense"), or a FactoredOperator that max_eigvec forms
# ("formed") or eigensolves from its small side ("factored"); the fixed-POVM
# route's M is always dense
PATHS = {(4, 2): "dense", (6, 3): "dense", (24, 2): "factored", (24, 3): "formed"}
ROUTES = ("qfi", "general", "cfi")


def solve(route, ch, h, povm, cfg):
    if route == "qfi":
        return optimize(ch, h, cfg)
    if route == "general":
        return optimize_general(ch, commuting_derivative(ch, h), cfg)
    return optimize_fixed_measurement(ch, h, povm, cfg)


def path(op):
    if not isinstance(op, FactoredOperator):
        return "dense"
    r, m, n = op.factors.shape[-3:]
    return "formed" if r * m >= n else "factored"


def rows(records):
    return [(rec.degenerate_step, rec.sld_rank_deficit, rec.irreducible) for rec in records]


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("d, r, max_iters", CASES)
def test_each_restart_is_its_own_solve(route, d, r, max_iters, monkeypatch):
    rng = np.random.default_rng([d, r])
    ch, h, povm = random_channel(d, rng, n_kraus=r), random_hermitian(d, rng), random_povm(d, rng)
    cfg = OptimizerConfig(restarts=3, seed=7, max_iters=max_iters)

    steps = []  # the per-probe arrays of every lockstep step
    lockstep = optimizer._lockstep

    def recorded(*args):
        psi_next, arrays = lockstep(*args)
        steps.append(arrays)
        return psi_next, arrays

    paths = set()  # the path of every step's M

    def top(m, eps_deg):
        paths.add(path(m))
        return max_eigvec(m, eps_deg)

    monkeypatch.setattr(optimizer, "_lockstep", recorded)
    monkeypatch.setattr(optimizer, "max_eigvec", top)
    batched = solve(route, ch, h, povm, cfg)
    monkeypatch.undo()
    assert paths == {"dense" if route == "cfi" else PATHS[d, r]}
    iterations = batched.restart_iterations
    assert len(steps) == max(iterations)

    singles = []
    for k in range(cfg.restarts):
        start = haar_state(d, np.random.default_rng([cfg.seed, k]))
        one = solve(route, ch, h, povm, dataclasses.replace(
            cfg, restarts=1, init_mode="user_supplied", initial_state=start))
        singles.append(one)
        assert iterations[k] == len(one.trace)
        assert batched.restart_converged[k] == one.converged
        assert batched.restart_values[k] == pytest.approx(one.f_star, rel=1e-12, abs=0)
        # restart k's slice of each step it took: the restarts still running, in order
        at = [[j for j in range(cfg.restarts) if iterations[j] > n].index(k) for n in range(iterations[k])]
        mine = [tuple(None if a is None else a[i] for a in arrays) for i, arrays in zip(at, steps)]
        assert [f for f, *_ in mine] == pytest.approx([rec.f for rec in one.trace], rel=1e-12, abs=0)
        # reducibility is tested on the kept restart's trace only, after the loop; so are
        # the fixed-POVM route's rank deficits, which its steps carry as None
        assert [bool(deg) for _, deg, _ in mine] == [rec.degenerate_step for rec in one.trace]
        if route != "cfi":
            assert [int(deficit) for *_, deficit in mine] == [rec.sld_rank_deficit for rec in one.trace]

    # the kept restart's trace, probe and warnings are those of its own solve; it is
    # the lowest index within EPS_TIE * max(1, |max|) of the largest value
    values = batched.restart_values
    top = max(values)
    best = next(k for k, f in enumerate(values) if f >= top - optimizer.EPS_TIE * max(1.0, abs(top)))
    kept = singles[best]
    assert [rec.f for rec in batched.trace] == pytest.approx([rec.f for rec in kept.trace],
                                                            rel=1e-12, abs=0)
    assert rows(batched.trace) == rows(kept.trace)
    assert batched.warnings == kept.warnings
    assert batched.converged == kept.converged
    np.testing.assert_allclose(batched.psi_star.amplitudes, kept.psi_star.amplitudes,
                               rtol=0, atol=1e-12)


# each value ties with its neighbours but the first and the last do not: a
# sequential rule keeps index 2, the lowest index near the maximum is 1
TIE_CHAIN = (1.0, 1.0 + 0.9e-13, 1.0 + 1.8e-13)


def test_tie_chain_keeps_the_lowest_index_near_the_maximum(monkeypatch):
    assert 0.9e-13 < optimizer.EPS_TIE < 1.8e-13

    def update(psi):  # fixed per-restart values: every restart stops at its second step
        b = len(psi.amplitudes)
        return np.array(TIE_CHAIN), hermitian_operator(np.tile(np.diag([1.0, 0.0]), (b, 1, 1))), [0] * b

    result = optimizer.run_alternating(identity_channel(2), OptimizerConfig(restarts=3), update)
    assert result.restart_values == TIE_CHAIN and result.restart_iterations == (2, 2, 2)
    assert result.f_star == TIE_CHAIN[1]
    # the brute-force oracle keeps its probe by the same rule
    monkeypatch.setattr(oracles, "bloch_qfi",
                        lambda w, h: np.concatenate((TIE_CHAIN, np.zeros(w.shape[-1] - 3))))
    probes = oracles.search_probes(2, 1, 0)
    value, psi = oracles.brute_force_max_qfi(identity_channel(2), HermitianOperator(np.eye(2)), 1, 0)
    assert value == TIE_CHAIN[1] and np.array_equal(psi.amplitudes, probes[1])


def test_cases_cover_different_stops_and_the_cap():
    # the table above is only useful if its restarts leave the stack at
    # different steps and some of them meet max_iters
    different, capped = [], []
    for d, r, max_iters in CASES:
        rng = np.random.default_rng([d, r])
        ch, h = random_channel(d, rng, n_kraus=r), random_hermitian(d, rng)
        result = optimize(ch, h, OptimizerConfig(restarts=3, seed=7, max_iters=max_iters))
        different.append(len(set(result.restart_iterations)) > 1)
        capped.append(not all(result.restart_converged))
    assert any(different) and any(capped) and any(a and b for a, b in zip(different, capped))



def test_stacked_kernels_are_their_single_calls():
    # each slice of a stacked call is the call on that slice alone, bit for
    # bit: SLD solve, Fisher information, reducibility (with a degenerate
    # generator, whose groups are merged), both top-eigenvector forms (with
    # one slice whose top eigenvalue is the kernel's 0) and outcome statistics
    rng = np.random.default_rng(31)
    d, r, b = 6, 2, 3
    povm = random_povm(d, rng)
    u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    h = HermitianOperator(u @ np.diag([0.0, 0.0, 1.0, 1.0, 1.0, 2.0]) @ u.conj().T)
    c = rng.standard_normal((b, r, d)) + 1j * rng.standard_normal((b, r, d))
    c[1, :, 2:] = 0.0  # an output inside the first eigenspace of h: reducible
    w = c @ u.T
    w /= np.linalg.norm(w, axis=(1, 2), keepdims=True)
    rho = mixed_state(w)
    res = sld(rho, h)
    g = rng.standard_normal((b, 2, 2)) + 1j * rng.standard_normal((b, 2, 2))
    g[2] = -np.eye(2) - g[2] @ g[2].conj().T  # negative definite: the top eigenvalue is 0
    small = FactoredOperator(rng.standard_normal((b, 2, 2, 5)) + 0j, hermitian_operator(g))
    dense = hermitian_operator(rng.standard_normal((b, d, d)) + 1j * rng.standard_normal((b, d, d)))
    stats = outcome_statistics(rho, h, povm)
    top_small, deg_small = max_eigvec(small)
    top_dense, deg_dense = max_eigvec(dense)
    irreducible = is_irreducible(w, h)
    assert list(irreducible) == [True, False, True]
    res_w = sld(w, h)  # r < d: from the thin SVD of each W
    for k in range(b):
        one = DensityMatrix(rho.matrix[k])
        res_k = sld(one, h)
        assert np.array_equal(res.L.matrix[k], res_k.L.matrix) and res.rank[k] == res_k.rank
        assert qfi_from_sld(rho, res)[k] == qfi_from_sld(one, res_k)
        res_k = sld(w[k], h)
        assert np.array_equal(res_w.L.matrix[k], res_k.L.matrix) and res_w.rank[k] == res_k.rank
        assert qfi_from_sld(w, res_w)[k] == qfi_from_sld(w[k], res_k)
        assert irreducible[k] == is_irreducible(w[k], h) == is_irreducible(one, h)
        psi, deg = max_eigvec(FactoredOperator(small.factors[k], hermitian_operator(g[k])))
        assert np.array_equal(top_small.amplitudes[k], psi.amplitudes) and deg_small[k] == deg
        psi, deg = max_eigvec(HermitianOperator(dense.matrix[k]))
        assert np.array_equal(top_dense.amplitudes[k], psi.amplitudes) and deg_dense[k] == deg
        stats_k = outcome_statistics(one, h, povm)
        assert np.array_equal(stats.probs[k], stats_k.probs)
        assert classical_fi(stats)[k] == classical_fi(stats_k)


def _reducibility_cases():
    """(label, channel, generator, POVM, config): the eigenvector start of
    acceptance criterion 9, whose every iterate is reducible, and a
    degenerate generator (eigenvalues 0, 0, 1, 1, 1, 2) with 3 restarts."""
    h_z = HermitianOperator(np.diag([0.5, -0.5]))
    stuck = OptimizerConfig(restarts=1, init_mode="user_supplied",
                            initial_state=PureState(np.array([1.0, 0.0])))
    rng = np.random.default_rng(41)
    u = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
    h = HermitianOperator(u @ np.diag([0.0, 0.0, 1.0, 1.0, 1.0, 2.0]) @ u.conj().T)
    return [("eigenvector start", identity_channel(2), h_z, pauli_basis_povm("x"), stuck),
            ("degenerate generator", random_channel(6, rng, n_kraus=2), h, random_povm(6, rng),
             OptimizerConfig(restarts=3, seed=3, max_iters=40))]


@pytest.mark.parametrize("route", ["qfi", "cfi"])
def test_deferred_flags_are_the_per_step_flags(route, monkeypatch):
    # reducibility is tested once, on the kept restart's probes, in blocks
    # (here of at most 3 probes): each flag is that of its probe's output
    seen = []
    for label, ch, h, povm, cfg in _reducibility_cases():
        calls = []
        monkeypatch.setattr(optimizer, "FLAG_BLOCK_ENTRIES", 3 * ch.dim_out ** 2)
        monkeypatch.setattr(optimizer, "is_irreducible",
                            lambda w, h, eps: calls.append(len(w)) or is_irreducible(w, h, eps))
        result = solve(route, ch, h, povm, cfg)
        monkeypatch.undo()
        n = len(result.trace)
        assert sum(calls) == n and max(calls) <= 3 and len(calls) == -(-n // 3), label
        for rec in result.trace:
            expected = is_irreducible(channel_apply(ch, rec.psi), h, cfg.eps_deg)
            assert rec.irreducible is expected, (label, rec.n)
            if route == "qfi":
                assert step(rec.psi, ch, h, cfg, rec.n)[1].irreducible is expected, (label, rec.n)
        seen += [rec.irreducible for rec in result.trace]
        if label == "eigenvector start":
            assert not any(rec.irreducible for rec in result.trace)
            assert any("reducible iterate" in w for w in result.warnings)
    assert True in seen and False in seen
