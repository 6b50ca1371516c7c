"""The three workloads: their inputs, the operations of one round, the real
CLI launches and set-up probes interleaved with them, and the output checks.

An operation's untimed `load` makes its input data; `run(data)`, the timed
part, returns an outcome dict {f, trace_f, psi, details, iterations, solve};
`check(out, data)` returns a list of error strings.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs

import qfimax.cfi as qcfi
import qfimax.cli as qcli
import qfimax.optimizer as qopt
import qfimax.problem as qproblem
from qfimax.optimizer import OptimizerConfig

CORPUS_COMMANDS = ("qfi-max", "qfi-max-general", "cfi-max", "sld", "qfi-eval", "cfi-eval",
                   "bayes-check", "oracle")
CORPUS_NEEDS = {"qfi-max-general": ("derivative_channel",), "cfi-max": ("povm",),
                "sld": ("input_state",), "qfi-eval": ("input_state",),
                "cfi-eval": ("povm", "input_state"), "bayes-check": ("povm", "input_state")}
CORPUS_CLI = (("qfi-max", "dephasing_08.json"), ("cfi-max", "cfi_sigma_y.json"),
              ("qfi-max-general", "general_commuting_dephasing.json"))
SOLVE_COMMANDS = ("qfi-max", "qfi-max-general", "cfi-max")


@dataclass
class Op:
    label: object
    run: Callable[[object], dict]
    check: Callable[[dict, object], list]
    load: Callable[[], object] = lambda: None


@dataclass
class Cli:
    label: str
    args: list  # qfimax command line after the program name
    check: Callable[[dict], list]


@dataclass
class Setup:
    round_index: int


def interleave(ops: list, others: list) -> list:
    """Spread the other steps evenly between the operations."""
    steps, n, m = [], len(ops), len(others)
    for i, op in enumerate(ops):
        steps.append(op)
        steps += others[(i * m) // n:((i + 1) * m) // n]
    return steps


def report_outcome(report: dict) -> dict:
    psi = report.get("psi_star")
    return {"f": report["f_star"], "trace_f": [row["f_n"] for row in report["trace"]],
            "psi": checks.decode(psi) if psi is not None else None,
            "details": report.get("details"), "iterations": report["iterations"],
            "solve": report["command"] in SOLVE_COMMANDS}


def result_outcome(result) -> dict:
    return {"f": result.f_star, "trace_f": [rec.f for rec in result.trace],
            "psi": np.asarray(result.psi_star.amplitudes), "details": None,
            "iterations": len(result.trace), "solve": True}


class Workload:
    name = ""
    setups_per_round = 2

    def __init__(self, root: Path, seed: int, workdir: Path, smoke: bool):
        self.root, self.seed, self.workdir, self.smoke = root, seed, workdir, smoke

    def rng(self, round_index: int) -> np.random.Generator:
        """The random stream that orders round k."""
        return np.random.default_rng(inputs.seed_sequence(inputs.ORDER, self.seed, round_index))

    def assemble(self, k: int, ops: list, clis: list) -> list:
        """The steps of round k: CLI launches and set-up probes spread evenly
        between the operations."""
        setups = [Setup(k)] * (1 if self.smoke else self.setups_per_round)
        return interleave(ops, interleave(setups, clis))

    def cross_checks(self, outcomes: dict) -> list:
        """Checks across the operations of one round, keyed by label."""
        return []


# ---------------------------------------------------------------------------


class Corpus(Workload):
    """Every command each bundled problem supports, parsed and run in-process
    through parse_problem and cli.run_command, in a seeded order."""

    name = "corpus"

    def prepare(self) -> None:
        self.problems = {}
        for path in sorted((self.root / "problems").glob("*.json")):
            text = path.read_text()
            doc = json.loads(text)
            h = checks.decode(doc["generator"])
            if not np.allclose(h, checks.HALF_SIGMA_Z, rtol=0, atol=1e-15):
                raise ValueError(f"{path.name}: closed forms assume H = sigma_z / 2")
            self.problems[path.name] = (str(path), text, doc)
        self.pairs = [(name, cmd) for name, (_, _, doc) in self.problems.items()
                      for cmd in CORPUS_COMMANDS
                      if all(k in doc for k in CORPUS_NEEDS.get(cmd, ()))]

    def _run(self, text: str, cmd: str, opt_seed: int) -> Callable[[object], dict]:
        def run(_):
            problem = qproblem.parse_problem(text)
            problem = dataclasses.replace(
                problem, optimizer=dataclasses.replace(problem.optimizer, seed=opt_seed))
            return report_outcome(qcli.run_command(cmd, problem))
        return run

    def check(self, name: str, cmd: str, out: dict) -> list:
        doc = self.problems[name][2]
        h = checks.HALF_SIGMA_Z
        kraus = checks.qubit_preset_kraus(doc["channel"])
        best = checks.max_qfi_closed_form(doc["channel"])
        f = out["f"]
        if cmd in ("qfi-max", "qfi-max-general"):
            return checks.monotone(out["trace_f"]) + checks.close(f, best, 1e-8, f"{cmd} closed form")
        if cmd == "cfi-max":
            if doc["channel"]["preset"] != "identity" or doc["povm"]["preset"] != "sigma_y":
                raise ValueError(f"{name}: no closed form for cfi-max")
            return checks.monotone(out["trace_f"]) + checks.close(f, 1.0, 1e-8, "sigma_y CFI")
        if cmd == "oracle":
            return (checks.at_most(f, best, "oracle against the closed form")
                    + checks.close(f, best, 1e-3, "oracle against the closed form"))
        rho = checks.channel_output(kraus, checks.decode(doc["input_state"]))
        if cmd == "sld":
            res = checks.sld_residual(checks.decode(out["details"]["L"]), rho, h)
            errs = [] if res <= 1e-10 else [f"SLD residual {res:.3e} above 1e-10"]
            return errs + checks.close(f, checks.independent_qfi(rho, h), 1e-10, "sld QFI")
        if cmd == "qfi-eval":
            return checks.close(f, checks.independent_qfi(rho, h), 1e-10, "qfi-eval")
        cfi = checks.independent_cfi(rho, h, checks.qubit_povm(doc["povm"]))
        if cmd == "cfi-eval":
            return checks.close(f, cfi, 1e-10, "cfi-eval")
        direct = out["details"]["classical_fi"]
        errs = checks.close(direct, cfi, 1e-10, "bayes-check classical_fi")
        if abs(f - direct) > 1e-5:
            errs.append(f"narrow-prior Bayesian FI {f!r} not within 1e-5 of {direct!r}")
        return errs

    def cross_checks(self, outcomes: dict) -> list:
        errs = []
        for name in self.problems:
            opt = outcomes.get((name, "qfi-max"))
            if opt is None:
                continue
            gen = outcomes.get((name, "qfi-max-general"))
            if gen is not None:
                errs += checks.close(gen["f"], opt["f"], 1e-7, f"{name}: general against qfi-max")
            orc = outcomes.get((name, "oracle"))
            if orc is not None:
                errs += checks.at_most(orc["f"], opt["f"], f"{name}: oracle against qfi-max")
                errs += checks.close(orc["f"], opt["f"], 1e-3, f"{name}: oracle against qfi-max")
        return errs

    def round(self, k: int) -> list:
        rng = self.rng(k)
        opt_seed = inputs.derived_seed(self.seed, k)
        order = rng.permutation(len(self.pairs))
        ops = []
        for i in order:
            name, cmd = self.pairs[i]
            ops.append(Op((name, cmd), self._run(self.problems[name][1], cmd, opt_seed),
                          lambda out, _, name=name, cmd=cmd: self.check(name, cmd, out)))
        clis = [Cli(f"{cmd} {name}",
                    [cmd, "--problem", self.problems[name][0], "--seed", str(opt_seed)],
                    lambda out, name=name, cmd=cmd: self.check(name, cmd, out))
                for cmd, name in CORPUS_CLI]
        return self.assemble(k, ops, clis)


# ---------------------------------------------------------------------------


ROUTES = ("qfi", "general", "cfi")
ROUTE_COMMAND = {"qfi": "qfi-max", "general": "qfi-max-general", "cfi": "cfi-max"}


def solve(route: str, inst: dict, cfg: OptimizerConfig):
    if route == "qfi":
        return qopt.optimize(inst["channel"], inst["generator"], cfg)
    if route == "general":
        return qopt.optimize_general(inst["channel"], inst["derivative"], cfg)
    return qcfi.optimize_fixed_measurement(inst["channel"], inst["generator"], inst["povm"], cfg)


class Converge(Workload):
    """A fixed seeded sweep, d in {4, 8, 16} and r in {2, d}, each instance
    solved to the default stopping rule with 4 restarts by all three routes.
    Every round repeats the same solves with the same restart seed; --seed
    only orders each round."""

    name = "converge"
    restarts = 4

    def prepare(self) -> None:
        self.raw = inputs.converge_instances(self.smoke)
        self.built = [inputs.build_instance(inst, derivative=True) for inst in self.raw]
        cli_index = [(i["d"], i["r"]) for i in self.raw].index(inputs.CONVERGE_CLI_SIZE)
        self.cli_raw, cli_inst = self.raw[cli_index], self.built[cli_index]
        self.cfg = OptimizerConfig(restarts=self.restarts, seed=inputs.SWEEP_SEED)
        self.cli_path = self.workdir / "converge_cli.json"
        inputs.write_problem(self.cli_path, self.cli_raw,
                             {"restarts": self.restarts, "seed": inputs.SWEEP_SEED}, derivative=True)
        self.cli_reference = {route: solve(route, cli_inst, self.cfg).f_star for route in ROUTES}

    def check(self, raw: dict, route: str, out: dict) -> list:
        return checks.solve_checks(out["trace_f"], out["psi"], raw["kraus"], raw["h"],
                                   qfi_route=route != "cfi")

    def check_cli(self, route: str, out: dict) -> list:
        return (checks.close(out["f"], self.cli_reference[route], 1e-9, "CLI against in-process")
                + self.check(self.cli_raw, route, out))

    def cross_checks(self, outcomes: dict) -> list:
        errs = []
        for i, raw in enumerate(self.raw):
            qfi, gen = outcomes.get((i, "qfi")), outcomes.get((i, "general"))
            if qfi is not None and gen is not None:
                errs += checks.close(gen["f"], qfi["f"], 1e-7,
                                     f"d={raw['d']} r={raw['r']}: general against covariant")
        return errs

    def round(self, k: int) -> list:
        pairs = [(i, route) for i in range(len(self.raw)) for route in ROUTES]
        ops = []
        for j in self.rng(k).permutation(len(pairs)):
            i, route = pairs[j]
            raw, inst = self.raw[i], self.built[i]
            ops.append(Op((i, route),
                          lambda _, inst=inst, route=route: result_outcome(solve(route, inst, self.cfg)),
                          lambda out, _, raw=raw, route=route: self.check(raw, route, out)))
        clis = [Cli(f"{ROUTE_COMMAND[route]} d={self.cli_raw['d']}",
                    [ROUTE_COMMAND[route], "--problem", str(self.cli_path)],
                    lambda out, route=route: self.check_cli(route, out))
                for route in ROUTES]
        return self.assemble(k, ops, clis)


# ---------------------------------------------------------------------------


class IterateLarge(Workload):
    """Seeded instances at d in {32, 64}, r in {2, d}, covariant route, one
    restart, a fixed budget of iterations that every solve uses up."""

    name = "iterate-large"

    def config(self, seed: int) -> OptimizerConfig:
        return OptimizerConfig(restarts=1, seed=seed, max_iters=inputs.LARGE_ITERATIONS,
                               tol=inputs.NEVER_MET_TOL)

    def prepare(self) -> None:
        self.cli_raw = inputs.large_cli_instance(self.seed, self.smoke)
        cli_seed = inputs.derived_seed(self.seed, -1)
        self.cli_path = self.workdir / "iterate_large_cli.json"
        inputs.write_problem(self.cli_path, self.cli_raw,
                             {"restarts": 1, "seed": cli_seed, "tol": inputs.NEVER_MET_TOL},
                             derivative=False)
        inst = inputs.build_instance(self.cli_raw, derivative=False)
        self.cli_reference = solve("qfi", inst, self.config(cli_seed)).f_star

    def check(self, raw: dict, out: dict) -> list:
        errs = checks.solve_checks(out["trace_f"], out["psi"], raw["kraus"], raw["h"], qfi_route=True)
        if out["iterations"] != inputs.LARGE_ITERATIONS:
            errs.append(f"{out['iterations']} iterations, budget {inputs.LARGE_ITERATIONS}")
        return errs

    def load(self, k: int, i: int) -> dict:
        """One instance at a time, so that the workload's peak memory is the
        program's and not the benchmark's store of inputs."""
        raw = inputs.large_instance(self.seed, k, i, self.smoke)
        return {"raw": raw, "built": inputs.build_instance(raw, derivative=False)}

    def round(self, k: int) -> list:
        sizes = inputs.large_round_sizes(self.smoke)
        cfg = self.config(inputs.derived_seed(self.seed, k))
        ops = []
        for i in map(int, self.rng(k).permutation(len(sizes))):
            ops.append(Op(sizes[i],
                          lambda data: result_outcome(solve("qfi", data["built"], cfg)),
                          lambda out, data: self.check(data["raw"], out),
                          lambda i=i: self.load(k, i)))
        cli = Cli(f"qfi-max d={self.cli_raw['d']} r={self.cli_raw['r']}",
                  ["qfi-max", "--problem", str(self.cli_path),
                   "--max-iters", str(inputs.LARGE_ITERATIONS)],
                  lambda out: (checks.close(out["f"], self.cli_reference, 1e-9,
                                            "CLI against in-process")
                               + self.check(self.cli_raw, out)))
        return self.assemble(k, ops, [cli])


WORKLOADS = {w.name: w for w in (Corpus, Converge, IterateLarge)}
