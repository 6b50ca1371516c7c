"""Each input is judged once, by validate, with the scale-dependent rules
relative to the object's own size: a generator's asymmetry to its largest
entry, a derivative map's residuals to the size of its pairs."""

import json
from pathlib import Path

import numpy as np
import pytest

from qfimax import (
    DerivativeChannel,
    HermitianOperator,
    OptimizerConfig,
    ValidationError,
    commuting_derivative,
    compose_channels,
    dephasing_channel,
    finite_difference_derivative,
    hermitian_eig,
    identity_channel,
    max_eigvec,
    optimize,
    optimize_general,
    parse_problem,
    unitary_channel,
    validate,
)
from qfimax import operators
from qfimax.cli import EXIT_OK, main
from qfimax.operators import SIGMA_X
from qfimax.problem import encode_array

from helpers import random_channel, random_hermitian

SCALES = (1e-8, 1e-4, 1.0, 1e4, 1e8)
H0 = np.array([[1.4, 0.4 - 0.2j], [0.4 + 0.2j, -0.8]])
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def _finite_difference_problem(c):
    """A dephased qubit with generator c H0, and the finite difference, at
    step 1e-3 / c, of the family that follows the dephasing with
    exp(-i phi c H0): the derivative of the covariant family."""
    h = encode_array(c * H0)
    dephasing = {"preset": "dephasing", "params": {"eta": 0.8}}
    family = [dephasing, {"preset": "unitary", "params": {"exponent": h}, "phi": True}]
    return {"dim": 2, "generator": h, "channel": dephasing,
            "derivative_channel": {"finite_difference": {"delta": 1e-3 / c, "family": family}}}


@pytest.mark.parametrize("command", ["qfi-max-general", "qfi-max"])
def test_scaled_finite_difference_problem_runs(command, tmp_path, capsys):
    # the map's residuals grow with its pairs, of size c 500: an absolute
    # tolerance rejected the problem from c = 1e3 on
    path = tmp_path / "problem.json"
    f_star = {}
    for c in (1.0, 1e3, 1e4):
        path.write_text(json.dumps(_finite_difference_problem(c)))
        assert main([command, "--problem", str(path)]) == EXIT_OK
        f_star[c] = json.loads(capsys.readouterr().out)["f_star"] / c ** 2
    assert f_star[1e3] == pytest.approx(f_star[1.0], rel=1e-9)
    assert f_star[1e4] == pytest.approx(f_star[1.0], rel=1e-9)


def test_map_that_does_not_annihilate_the_trace_rejected():
    with pytest.raises(ValidationError, match="derivative channel trace annihilation"):
        optimize_general(identity_channel(2), DerivativeChannel(((SIGMA_X, SIGMA_X),)))


@pytest.mark.parametrize("offset, valid", [(1e-9, True), (1e-3, False)])
def test_one_verdict_on_a_large_generator(offset, valid):
    # max |H| ~ 1.7e6, so the rule allows an asymmetry up to ~1.7e-6
    m = 1e6 * random_hermitian(4, np.random.default_rng(5)).matrix
    m[0, 1] += offset
    assert 1.5e6 < np.abs(m).max() < 2e6
    doc = {"dim": 4, "generator": encode_array(m), "channel": {"preset": "identity"}}
    cfg = OptimizerConfig(restarts=1, max_iters=3)
    checks = (lambda: hermitian_eig(HermitianOperator(m)), lambda: max_eigvec(HermitianOperator(m)),
              lambda: optimize(identity_channel(4), HermitianOperator(m), cfg),
              lambda: parse_problem(json.dumps(doc)))
    for check in checks:
        if valid:
            check()
        else:
            with pytest.raises(ValidationError, match="operator hermiticity"):
                check()


@pytest.mark.parametrize("c", SCALES)
def test_derivative_map_rule_is_scale_covariant(c):
    rng = np.random.default_rng(6)
    ch, h = random_channel(3, rng, n_kraus=2), random_hermitian(3, rng)
    assert validate(commuting_derivative(ch, HermitianOperator(c * h.matrix))) == []
    base = dephasing_channel(0.8)
    fd = finite_difference_derivative(
        lambda phi: compose_channels(base, unitary_channel(c * H0, phi)), 0.0, 1e-3 / c)
    assert validate(fd) == []
    # rho -> c sigma_x rho sigma_x preserves Hermiticity, not the trace
    found = validate(DerivativeChannel(((c * SIGMA_X, SIGMA_X),)))
    assert [v.invariant for v in found] == ["derivative channel trace annihilation"]
    # (c A, K_0) without its mirror preserves neither
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    found = validate(DerivativeChannel(((c * a, ch.kraus[0]),)))
    assert [v.invariant for v in found] == ["derivative channel hermiticity preservation",
                                            "derivative channel trace annihilation"]


def test_commuting_map_is_valid_by_construction(monkeypatch):
    calls = []
    residuals = operators._derivative_residuals
    monkeypatch.setattr(operators, "_derivative_residuals",
                        lambda *stacks: calls.append(1) or residuals(*stacks))
    assert parse_problem((PROBLEMS / "general_commuting_dephasing.json").read_bytes()).derivative_channel
    assert calls == []
    # a map the library did not build is checked, once
    parse_problem(json.dumps(_finite_difference_problem(1.0)))
    assert calls == [1]
    with pytest.raises(ValidationError, match="operator hermiticity"):
        commuting_derivative(identity_channel(2), HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]])))
