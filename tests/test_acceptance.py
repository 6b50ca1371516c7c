"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line on the real terminal (bypassing
capture) so a full run doubles as a checklist.
"""

import json
import re
import time
from pathlib import Path

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
    dephasing_channel,
    identity_channel,
    optimal_d,
    optimize,
    optimize_fixed_measurement,
    optimize_general,
    outcome_statistics,
    pauli_basis_povm,
    qfi,
    sld,
)
from qfimax.cfi import EstimatorCoefficients
from qfimax.cli import main
from qfimax.operators import SIGMA_Y, SIGMA_Z, haar_state
from qfimax.oracles import (
    DiscreteModel,
    GaussianPrior,
    bayes_gaussian_fi,
    brute_force_max_qfi,
    model_from_quantum,
)

from helpers import (
    cfi_objective,
    hs_norm,
    projector,
    random_channel,
    random_density,
    random_hermitian,
    random_povm,
)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
H_Z = HermitianOperator(SIGMA_Z / 2.0)
PLUS = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))


@pytest.fixture
def announce(capsys):
    def _announce(number, name, ok):
        with capsys.disabled():
            print(f"[criterion {number:2d}] {name}: {'PASS' if ok else 'FAIL'}")
        assert ok, f"criterion {number} ({name}) failed"

    return _announce


def test_criterion_01_unitary_baseline(announce):
    start = time.perf_counter()
    result = optimize(identity_channel(2), H_Z)
    elapsed = time.perf_counter() - start
    oracle, _ = brute_force_max_qfi(identity_channel(2), H_Z, n_samples=1, seed=0)
    gap = float(np.ptp(np.linalg.eigvalsh(H_Z.matrix)))
    ok = (
        abs(result.f_star - 1.0) <= 1e-8
        and abs(oracle - gap ** 2) <= 1e-8
        and len(result.trace) <= 50
        and elapsed < 1.0
    )
    announce(1, "unitary qubit baseline reaches 1.0", ok)


def test_criterion_02_commuting_noise(announce):
    ok = True
    for eta in (0.5, 0.8, 1.0):
        ch = dephasing_channel(eta)
        start = time.perf_counter()
        result = optimize(ch, H_Z)
        elapsed = time.perf_counter() - start
        l = sld(channel_apply(ch, projector(PLUS)), H_Z).L.matrix
        ok = (
            ok
            and abs(result.f_star - eta ** 2) <= 1e-6
            and np.max(np.abs(l - eta * SIGMA_Y)) <= 1e-10
            and elapsed < 1.0
        )
    announce(2, "dephasing(eta) attains eta^2", ok)


def test_criterion_03_monotone_traces(announce):
    rng = np.random.default_rng(2024)
    cfg = OptimizerConfig(restarts=1, max_iters=60, seed=11)
    violations = 0
    for _ in range(200):
        dim = int(rng.integers(2, 5))
        ch = random_channel(dim, rng)
        h = random_hermitian(dim, rng)
        result = optimize(ch, h, cfg)
        for a, b in zip(result.trace, result.trace[1:]):
            if b.f < a.f - 1e-9 * max(1.0, a.f):
                violations += 1
    announce(3, "200 random scenarios, zero monotonicity violations", violations == 0)


def test_criterion_04_sld_residual_suite(announce):
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(500):
        dim = int(rng.integers(2, 7))
        rho = random_density(dim, rng)
        h = random_hermitian(dim, rng)
        res = sld(rho, h)
        l = res.L.matrix
        ok = (
            ok
            and res.residual <= 1e-9 * max(1.0, hs_norm(h.matrix))
            and abs(np.trace(rho.matrix @ l)) <= 1e-9
            and hs_norm(l) <= 2.0 * hs_norm(h.matrix) + 1e-9
        )
    announce(4, "500 SLD solves satisfy residual, mean-zero, norm bound", ok)


def test_criterion_05_data_processing(announce):
    rng = np.random.default_rng(505)
    ok = True
    for _ in range(200):
        dim = int(rng.integers(2, 5))
        rho = random_density(dim, rng)
        h = random_hermitian(dim, rng)
        povm = random_povm(dim, rng)
        fc = classical_fi(outcome_statistics(rho, h, povm))
        ok = ok and fc <= qfi(rho, h) + 1e-8
    saturating = optimize_fixed_measurement(
        identity_channel(2), H_Z, pauli_basis_povm("y"),
        OptimizerConfig(restarts=2, max_iters=200, seed=5))
    ok = ok and abs(saturating.f_star - 1.0) <= 1e-8
    announce(5, "classical <= quantum on 200 triples; sigma_y basis saturates", ok)


def test_criterion_06_estimator_coefficient_identity(announce):
    rng = np.random.default_rng(606)
    ok = True
    for _ in range(200):
        dim = int(rng.integers(2, 4))
        ch = random_channel(dim, rng)
        h = random_hermitian(dim, rng)
        povm = random_povm(dim, rng)
        psi = haar_state(dim, rng)
        rho = channel_apply(ch, projector(psi))
        d_opt = optimal_d(rho, h, povm)
        best = cfi_objective(psi, d_opt, ch, h, povm)
        direct = classical_fi(outcome_statistics(rho, h, povm))
        ok = ok and abs(best - direct) <= 1e-10
        for _ in range(100):
            d = EstimatorCoefficients(rng.standard_normal(len(povm.elements)), povm.labels)
            ok = ok and cfi_objective(psi, d, ch, h, povm) <= best + 1e-9
    announce(6, "optimal coefficients reproduce and maximize the classical value", ok)


def test_criterion_07_general_channel_reduction(announce):
    rng = np.random.default_rng(707)
    cfg = OptimizerConfig(restarts=3, max_iters=300, seed=17)
    ok = True
    for _ in range(20):
        dim = int(rng.integers(2, 4))
        ch = random_channel(dim, rng)
        h = random_hermitian(dim, rng)
        plain = optimize(ch, h, cfg)
        general = optimize_general(ch, commuting_derivative(ch, h), cfg)
        ok = ok and abs(plain.f_star - general.f_star) <= 1e-7
    announce(7, "derivative-map route matches the covariant route on 20 scenarios", ok)


def test_criterion_08_bayesian_limit(announce):
    ch = identity_channel(2)
    ok = True
    for povm, phi0 in ((pauli_basis_povm("y"), 0.0), (pauli_basis_povm("x"), np.pi / 4.0)):
        rho0 = channel_apply(ch, projector(PLUS)).matrix
        u = np.diag(np.exp(-1j * phi0 * np.diag(H_Z.matrix)))
        rho = DensityMatrix(u @ rho0 @ u.conj().T)
        direct = classical_fi(outcome_statistics(rho, H_Z, povm))

        def smoothed_fi(delta):
            prior = GaussianPrior(delta, grid_points=2001)
            tabulated = model_from_quantum(ch, H_Z, PLUS, povm, phi0 + prior.grid())
            return bayes_gaussian_fi(DiscreteModel(prior.grid(), tabulated.probs), prior)

        errors = [abs(smoothed_fi(delta) - direct) for delta in (0.3, 0.1, 0.03)]
        ok = (
            ok
            and abs(smoothed_fi(1e-3) - direct) <= 1e-3
            and errors == sorted(errors, reverse=True)
        )
    announce(8, "prior-smoothed Fisher information converges to the direct value", ok)


def test_criterion_09_degeneracy_diagnostics(announce):
    stuck_cfg = OptimizerConfig(restarts=1, init_mode="user_supplied",
                                initial_state=PureState(np.array([1.0, 0.0])))
    stuck = optimize(identity_channel(2), H_Z, stuck_cfg)
    ok = abs(stuck.f_star) <= 1e-12 and any("reducible" in w for w in stuck.warnings)
    for seed in range(50):
        result = optimize(identity_channel(2), H_Z, OptimizerConfig(restarts=8, seed=seed))
        recovered = sum(1 for f in result.restart_values if abs(f - 1.0) <= 1e-8)
        ok = ok and recovered >= 7
    announce(9, "eigenvector start flagged; random restarts recover the optimum", ok)


def test_criterion_10_reproducible_reports(announce, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text((PROBLEMS / "dephasing_08.json").read_text())
    outs = []
    for _ in range(2):
        code = main(["qfi-max", "--problem", str(path)])
        raw = capsys.readouterr().out
        assert code == 0 and json.loads(raw)
        outs.append(re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', raw))
    announce(10, "identical problem and seed give byte-identical reports", outs[0] == outs[1])
