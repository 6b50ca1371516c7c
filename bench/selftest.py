"""Self-test of the benchmark.

Runs every workload once at its smallest size (--smoke), untraced and
traced, and checks the output schema against BENCHMARK.json. Also checks
that the output checks accept known-good values and reject known-bad ones,
and that the benchmark refuses to run without the program's sources.

Usage: python3 bench/selftest.py     (about two minutes; exit 0 on success)
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from tracer import per_layer_metric_units  # noqa: E402

FAILURES = []


def expect(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_manifest(manifest):
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    expect(set(manifest) == keys, "BENCHMARK.json has exactly the contract keys")
    per_layer = [(m["name"], m["unit"]) for m in manifest["per_layer"]]
    expect(per_layer == per_layer_metric_units(), "per_layer lists every traced metric")
    expect(all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"]), "bounds within 0.25")
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["bound"] == max(m["bound"] for m in manifest["end_to_end"]),
           "setup_s carries the largest bound")


def check_schema(manifest, workload, trace, proc):
    label = f"{workload} trace={trace}"
    if proc.returncode != 0:
        expect(False, f"{label}: exit {proc.returncode}: {proc.stderr[-2000:]}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
           f"{label}: every check passed ({result['attempted']} attempted, {result['failed']} failed)")
    wanted = manifest["per_layer"] if trace else manifest["end_to_end"]
    got = result["metrics"]
    expect(sorted(got) == sorted(m["name"] for m in wanted), f"{label}: metric names")
    expect(all(got[m["name"]]["unit"] == m["unit"] for m in wanted if m["name"] in got),
           f"{label}: metric units")
    values = [v["value"] for v in got.values()]
    expect(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values),
           f"{label}: finite values")
    if not trace:
        expect(all(v > 0 for v in values), f"{label}: end-to-end values are positive")


def check_checks():
    rng = np.random.default_rng(0)
    h = checks.HALF_SIGMA_Z
    plus = np.array([1, 1]) / np.sqrt(2)
    for eta in (0.5, 0.8):
        spec = {"preset": "dephasing", "params": {"eta": eta}}
        rho = checks.channel_output(checks.qubit_preset_kraus(spec), plus)
        expect(abs(checks.independent_qfi(rho, h) - eta ** 2) < 1e-12,
               f"independent QFI of dephased |+> is eta^2 (eta={eta})")
    spec = {"preset": "amplitude-damping", "params": {"gamma": 0.5}}
    rho = checks.channel_output(checks.qubit_preset_kraus(spec), plus)
    expect(abs(checks.independent_qfi(rho, h) - 0.5) < 1e-12,
           "independent QFI of amplitude-damped |+> is 1 - gamma")
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h6 = a + a.conj().T
    psi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    psi /= np.linalg.norm(psi)
    var = np.real(psi.conj() @ h6 @ h6 @ psi) - np.real(psi.conj() @ h6 @ psi) ** 2
    rho = np.outer(psi, psi.conj())
    expect(abs(checks.independent_qfi(rho, h6) - 4 * var) < 1e-9 * 4 * var,
           "independent QFI of a pure state is 4 Var(H)")
    povm_y = checks.qubit_povm({"preset": "sigma_y"})
    expect(abs(checks.independent_cfi(np.outer(plus, plus), h, povm_y) - 1.0) < 1e-12,
           "independent CFI of |+> under sigma_y is 1")
    rho = np.outer(plus, plus).astype(complex)
    good_l = 2 * (-1j) * (h @ rho - rho @ h)
    expect(checks.sld_residual(good_l, rho, h) < 1e-14, "SLD residual accepts the exact SLD")
    expect(checks.sld_residual(good_l + 1e-6 * checks.SIGMA_Z, rho, h) > 1e-10,
           "SLD residual rejects a perturbed SLD")
    expect(checks.monotone([1.0, 2.0, 2.0]) == [] and checks.monotone([1.0, 2.0, 1.9]) != [],
           "monotone check rejects a decreasing trace")
    kraus = [np.eye(2, dtype=complex)]
    expect(checks.solve_checks([0.5, 1.0], plus, kraus, h, qfi_route=True) == [],
           "solve checks accept f* = QFI at psi*")
    expect(checks.solve_checks([0.5, 0.9], plus, kraus, h, qfi_route=True) != [],
           "solve checks reject f* below the QFI at psi*")
    expect(checks.solve_checks([0.5, 1.2], plus, kraus, h, qfi_route=False) != [],
           "solve checks reject a CFI above the QFI")
    expect(checks.at_most(1.0 + 1e-9, 1.0, "x") != [] and checks.close(1.0, 1.1, 1e-7, "x") != [],
           "comparison helpers reject values outside tolerance")


def check_refuses_without_sources():
    bare = BENCH / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_bench(bare, "--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0")
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "refuses to run without the qfimax sources")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_manifest(manifest)
    check_checks()
    check_refuses_without_sources()
    for w in manifest["workloads"]:
        for trace in (0, 1):
            proc = run_bench(ROOT, "--workload", w["name"], "--seed", "3", "--seconds", "1",
                             "--trace", str(trace), "--smoke")
            check_schema(manifest, w["name"], trace, proc)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
