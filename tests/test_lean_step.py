"""Pinned results of small solves on all three routes, and the work one
alternating step does, counted by rebinding names in every qfimax module."""

import collections
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from qfimax import (
    DensityMatrix,
    HermitianOperator,
    OptimizerConfig,
    PureState,
    SldResult,
    channel_adjoint_apply,
    channel_apply,
    commuting_derivative,
    hermitian_eig,
    max_eigvec,
    optimize,
    optimize_fixed_measurement,
    optimize_general,
    sld,
)

from helpers import random_channel, random_hermitian, random_povm

CFG = OptimizerConfig(restarts=4, seed=7)
RANK_DEFICIT = "rank-deficient SLD at iteration(s) 0..{0} ({1} of {1})"

# (d, r, route, f_star, restart_values, iterations of the kept restart, warnings)
PINNED = [
    (4, 2, "qfi", 28.29516381133593,
     (28.29516381133593, 28.295163810358904, 28.29516381116664, 28.295163810835362),
     152, (RANK_DEFICIT.format(151, 152),)),
    (4, 2, "general", 28.295163811335897,
     (28.295163811335897, 28.295163810358968, 28.295163811166514, 28.295163810835373),
     152, (RANK_DEFICIT.format(151, 152),)),
    (4, 2, "cfi", 6.613768105698426,
     (6.613768105698426, 6.61376810569509, 2.6177521221771323, 2.6177521221924294),
     7, (RANK_DEFICIT.format(6, 7),)),
    (4, 4, "qfi", 7.367566569978038,
     (6.0953883773336175, 7.3675665698304496, 6.095388377340352, 7.367566569978038), 40, ()),
    (4, 4, "general", 7.367566569978024,
     (6.095388377333623, 7.367566569830444, 6.095388377340349, 7.367566569978024), 40, ()),
    (4, 4, "cfi", 1.3866998907014148,
     (1.3650947927817694, 1.3866998907014148, 1.3650947927829016, 1.3866998906943924), 14, ()),
    (8, 2, "qfi", 53.901544947401504,
     (53.90154494637836, 53.90154494595257, 53.901544947401504, 53.90154494397271),
     113, (RANK_DEFICIT.format(112, 113),)),
    (8, 2, "general", 53.90154494740169,
     (53.901544946378536, 53.9015449459525, 53.90154494740169, 53.901544943972695),
     113, (RANK_DEFICIT.format(112, 113),)),
    (8, 2, "cfi", 8.14169302733422,
     (8.14169302733422, 4.575798963629935, 8.141693027287959, 4.575798963403111),
     19, (RANK_DEFICIT.format(18, 19),)),
    (8, 8, "qfi", 29.3805343483187,
     (23.70646356228511, 29.3805343483187, 23.706463563248, 29.380534347864412), 25, ()),
    (8, 8, "general", 29.380534348318648,
     (23.70646356228514, 29.380534348318648, 23.70646356324805, 29.38053434786437), 25, ()),
    (8, 8, "cfi", 1.3108003340285794,
     (1.3108003340249217, 1.2862989351967609, 1.3108003340285794, 1.2862989351852383), 38, ()),
]


def instance(d, r):
    rng = np.random.default_rng([d, r])
    return random_channel(d, rng, n_kraus=r), random_hermitian(d, rng), random_povm(d, rng)


def solve(route, ch, h, povm, cfg=CFG):
    if route == "qfi":
        return optimize(ch, h, cfg)
    if route == "general":
        return optimize_general(ch, commuting_derivative(ch, h), cfg)
    return optimize_fixed_measurement(ch, h, povm, cfg)


def test_pinned_small_solves():
    # values from the implementation before the per-step overhead was cut
    for d, r, route, f_star, restart_values, iterations, warnings in PINNED:
        result = solve(route, *instance(d, r))
        where = f"d={d} r={r} {route}"
        assert result.f_star == pytest.approx(f_star, rel=1e-12, abs=0), where
        assert result.restart_values == pytest.approx(restart_values, rel=1e-12, abs=0), where
        assert (len(result.trace), result.warnings) == (iterations, warnings), where


def count_calls(monkeypatch, *names):
    """Counter of calls to the module-level functions named 'module.function',
    rebound in every loaded qfimax namespace that holds them."""
    calls = collections.Counter()
    originals = {}
    for name in names:
        mod, fn = name.split(".")
        originals[id(getattr(importlib.import_module(f"qfimax.{mod}"), fn))] = name

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    for modname, module in list(sys.modules.items()):
        if modname == "qfimax" or modname.startswith("qfimax."):
            for attr, value in list(vars(module).items()):
                if id(value) in originals:
                    monkeypatch.setattr(module, attr, counted(originals[id(value)], value))
    return calls


def test_every_traced_name_is_a_function_of_its_module():
    # the benchmark's tracer (bench/tracer.py) rebinds each name of WRAPPED
    # by getattr on its qfimax module: moving one out of the package would
    # break every traced run
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for mod, names in tracer.WRAPPED.items():
        module = importlib.import_module(f"qfimax.{mod}")
        for name in names:
            assert callable(getattr(module, name, None)), f"qfimax.{mod}.{name}"


class TestStepWork:
    @pytest.mark.parametrize("route", ["qfi", "general", "cfi"])
    def test_one_top_eigenvector_per_step(self, route, monkeypatch):
        # one call per lockstep step serves every restart
        ch, h, povm = instance(4, 2)
        calls = count_calls(monkeypatch, "operators.max_eigvec")
        result = solve(route, ch, h, povm, OptimizerConfig(restarts=3, max_iters=6, tol=1e-300))
        assert calls == {"operators.max_eigvec": len(result.trace)}

    # d=24, r=2 runs the covariant and general steps compressed
    @pytest.mark.parametrize("d, r", [(4, 2), (24, 2)])
    @pytest.mark.parametrize("route", ["qfi", "general", "cfi"])
    def test_no_sld_result_inside_a_solve(self, route, d, r, monkeypatch):
        # the step reads the SLD solve's arrays; only the public solve wraps them
        ch, h, povm = instance(d, r)
        calls = count_calls(monkeypatch, "operators.max_eigvec")
        init = SldResult.__init__
        monkeypatch.setattr(SldResult, "__init__",
                            lambda res, *args: calls.update(["SldResult"]) or init(res, *args))
        result = solve(route, ch, h, povm, OptimizerConfig(restarts=3, max_iters=6, tol=1e-300))
        assert calls == {"operators.max_eigvec": len(result.trace)}
        sld(channel_apply(ch, result.psi_star), h)
        assert calls == {"operators.max_eigvec": len(result.trace), "SldResult": 1}

    def test_dense_covariant_step(self, monkeypatch):
        # per lockstep step, for all restarts at once: one eigensolve of the
        # outputs (r = d: no thin SVD), one of the objective operators, no
        # phase convention and no Hermiticity check of either, and no
        # density_violations call (the outputs are the library's, checked
        # for trace and spectrum only); the generator's phase-fixed
        # eigensolve, with its check, and its eigenspace groups once per
        # solve, for the reducibility test of the kept trace
        ch, h, _ = instance(8, 8)
        calls = count_calls(monkeypatch, "operators.density_violations", "operators.hermitian_eig",
                            "operators.eigenspace_groups")
        residual, eigh = HermitianOperator.herm_residual, np.linalg.eigh
        monkeypatch.setattr(HermitianOperator, "herm_residual",
                            lambda op: calls.update(["herm_residual"]) or residual(op))
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.update(["eigh"]) or eigh(a))
        result = optimize(ch, h, OptimizerConfig(restarts=3, max_iters=5, tol=1e-300))
        assert result.restart_iterations == (5, 5, 5)
        steps = len(result.trace)
        assert calls == {"eigh": 2 * steps + 1,
                         "operators.hermitian_eig": 1,
                         "operators.eigenspace_groups": 1,
                         "herm_residual": 1}

    def test_groups_once_per_generator_and_resolution(self, monkeypatch):
        ch, h, _ = instance(4, 4)
        calls = count_calls(monkeypatch, "operators.eigenspace_groups")
        for eps_deg in (1e-9, 1e-9, 1e-6):
            optimize(ch, h, OptimizerConfig(restarts=2, max_iters=3, eps_deg=eps_deg))
        assert calls == {"operators.eigenspace_groups": 2}
        optimize(ch, random_hermitian(4, np.random.default_rng(1)), OptimizerConfig(restarts=1, max_iters=3))
        assert calls == {"operators.eigenspace_groups": 3}


def test_constructors_copy_and_results_are_read_only():
    m = np.diag([0.25, 0.75]).astype(complex)
    v = np.array([1.0, 0.0], dtype=complex)
    held = [HermitianOperator(m).matrix, DensityMatrix(m).matrix, PureState(v).amplitudes]
    m[0, 0] = v[0] = 7.0
    assert held[0][0, 0] == held[1][0, 0] == 0.25 and held[2][0] == 1.0
    ch, h, _ = instance(4, 2)
    rho = channel_apply(ch, PureState(np.full(4, 0.5)))
    res = sld(rho, h)
    eig = hermitian_eig(res.L)
    made = [rho.matrix, res.L.matrix, channel_adjoint_apply(ch, res.L).matrix,
            eig.eigenvalues, eig.eigenvectors, max_eigvec(res.L)[0].amplitudes]
    assert not any(a.flags.writeable for a in held + made)
