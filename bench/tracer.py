"""Spans around the public functions of each qfimax module, recorded from
outside the program by rebinding the names.

A span's self time is its duration minus the time covered by the wrapped
calls made inside it. Spans are folded into per-function totals (calls,
self time) as they close, so memory stays flat however many tiny calls an
operation makes; the totals are read and reset once per operation.
"""

from __future__ import annotations

import sys
import time

# Module -> wrapped public functions. Trivial helpers (dagger, max_abs, ...)
# are left out: their self time stays with the caller, and wrapping them
# would multiply the tracing overhead.
WRAPPED = {
    "operators": ("channel_apply", "channel_adjoint_apply", "derivative_adjoint_apply",
                  "hermitian_eig", "max_eigvec", "validate", "commuting_derivative",
                  "haar_state"),
    "sld": ("solve_sld_rhs", "sld", "qfi", "is_irreducible"),
    "optimizer": ("objective_g", "general_objective", "step", "optimize", "optimize_general"),
    "cfi": ("outcome_statistics", "classical_fi", "optimal_d", "x_moment",
            "optimize_fixed_measurement"),
    "oracles": ("brute_force_max_qfi", "model_from_quantum", "bayes_gaussian_fi"),
    "problem": ("parse_problem", "decode_matrix"),
    "cli": ("run_command", "main"),
}

# Per-layer metrics derived from the solves, the probes and the host speed
# references rather than from spans.
SOLVE_METRICS = (("optimizer.iterations", "count"), ("optimizer.steps", "count"),
                 ("optimizer.iter_us", "us"), ("cli.import_ms", "ms"),
                 ("host.kernel_ms", "ms"), ("host.launch_ms", "ms"))


def span_names() -> list:
    return [f"{m}.{f}" for m, fs in WRAPPED.items() for f in fs]


def per_layer_metric_units() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in span_names():
        out += [(f"{name}.calls", "count"), (f"{name}.self_us", "us")]
    return out + list(SOLVE_METRICS)


class Tracer:
    """Rebinds every wrapped function in each loaded qfimax namespace that
    holds it, while installed."""

    def __init__(self):
        import qfimax.cli  # noqa: F401  (loads every module that gets wrapped)

        self.totals = {name: [0, 0] for name in span_names()}
        self._stack = []
        self._bindings = []  # (namespace, attribute, original, wrapper)
        originals = {}
        for mod, fns in WRAPPED.items():
            module = sys.modules[f"qfimax.{mod}"]
            for fn in fns:
                originals[id(getattr(module, fn))] = (f"{mod}.{fn}", getattr(module, fn))
        wrappers = {key: self._wrap(name, f) for key, (name, f) in originals.items()}
        for modname, module in list(sys.modules.items()):
            if modname != "qfimax" and not modname.startswith("qfimax."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][1] is value:
                    self._bindings.append((module, attr, value, wrappers[id(value)]))

    def _wrap(self, name, f):
        stack = self._stack
        record = self.totals[name]
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                return f(*args, **kwargs)
            finally:
                span = clock() - t0
                children = stack.pop()
                record[0] += 1
                record[1] += span - children
                if stack:
                    stack[-1] += span

        traced.__wrapped__ = f
        return traced

    def install(self) -> None:
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def take(self) -> dict:
        """Totals since the last call, as {name: [calls, self_ns]}; resets them."""
        out = {name: list(rec) for name, rec in self.totals.items() if rec[0]}
        for rec in self.totals.values():
            rec[0] = rec[1] = 0
        return out
