"""Seeded inputs of the benchmark workloads.

Random instances are plain numpy arrays; turning them into validated
qfimax objects is the set-up that `probe_setup.py` times. This module does
not import qfimax, so a set-up probe can time that import on its own.
"""

from __future__ import annotations

import numpy as np

# The converge sweep is one fixed set of instances solved with one fixed
# restart seed; --seed only orders the operations. The time of one solve
# moves by up to 10x with the instance and up to 4x with the restart seed,
# so drawing either from --seed spread the per-run metrics between seeds by
# more than any bound they could carry (see README.md).
SWEEP_SEED = 1312
CONVERGE_SIZES = ((4, 2), (4, 4), (8, 2), (8, 8), (16, 2), (16, 16))
CONVERGE_SMOKE_SIZES = ((4, 2), (4, 4))
CONVERGE_CLI_SIZE = (4, 4)

# One iterate-large round holds each d=64 size twice as often as each d=32
# size, so that with whole rounds the median solve lies inside the d=64, r=2
# group and the 75th percentile inside the d=64, r=64 group, not on a
# boundary between two groups.
LARGE_ROUND_SIZES = ((32, 2), (32, 32), (64, 2), (64, 2), (64, 64), (64, 64)) * 2
LARGE_SMOKE_SIZES = ((32, 2), (32, 32))
LARGE_CLI_SIZE = (64, 64)
LARGE_ITERATIONS = 20
NEVER_MET_TOL = 1e-300


# independent random streams, one per purpose
ORDER, INSTANCE, OPTIMIZER = 1, 2, 3


def seed_sequence(stream: int, *keys: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([stream] + [k % (1 << 63) for k in keys])


def derived_seed(*keys: int) -> int:
    """A non-negative optimizer seed derived from the given keys."""
    return int(seed_sequence(OPTIMIZER, *keys).generate_state(1)[0] >> 1)


def random_instance(d: int, r: int, rng: np.random.Generator, with_povm: bool) -> dict:
    """Haar isometry split into r Kraus operators, a random Hermitian H and,
    optionally, a random d-outcome POVM (as in scripts/measurement_gap.py)."""
    g = rng.standard_normal((r * d, d)) + 1j * rng.standard_normal((r * d, d))
    q, _ = np.linalg.qr(g)
    kraus = [q[k * d:(k + 1) * d].copy() for k in range(r)]
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    inst = {"d": d, "r": r, "kraus": kraus, "h": 0.5 * (a + a.conj().T)}
    if with_povm:
        mats = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(d)]
        gram = [m @ m.conj().T for m in mats]
        w, v = np.linalg.eigh(sum(gram))
        s_isqrt = v @ np.diag(w ** -0.5) @ v.conj().T
        inst["povm"] = [s_isqrt @ m @ s_isqrt for m in gram]
    return inst


def converge_instances(smoke: bool = False) -> list:
    rng = np.random.default_rng(SWEEP_SEED)
    insts = [random_instance(d, r, rng, with_povm=True) for d, r in CONVERGE_SIZES]
    if smoke:
        insts = [i for i in insts if (i["d"], i["r"]) in CONVERGE_SMOKE_SIZES]
    return insts


def large_round_sizes(smoke: bool = False) -> tuple:
    return LARGE_SMOKE_SIZES if smoke else LARGE_ROUND_SIZES


def large_instance(seed: int, round_index: int, i: int, smoke: bool = False) -> dict:
    """Instance i of an iterate-large round, drawn on its own from the seed."""
    d, r = large_round_sizes(smoke)[i]
    rng = np.random.default_rng(seed_sequence(INSTANCE, seed, round_index, i))
    return random_instance(d, r, rng, with_povm=False)


def large_cli_instance(seed: int, smoke: bool = False) -> dict:
    rng = np.random.default_rng(seed_sequence(INSTANCE, seed, -1))
    d, r = LARGE_SMOKE_SIZES[-1] if smoke else LARGE_CLI_SIZE
    return random_instance(d, r, rng, with_povm=False)


def build_instance(inst: dict, derivative: bool) -> dict:
    """Construct the qfimax objects of one instance and validate each."""
    from qfimax.operators import (
        HermitianOperator,
        Povm,
        QuantumChannel,
        commuting_derivative,
        require_valid,
    )

    ch = QuantumChannel(tuple(inst["kraus"]))
    require_valid(ch, "channel")
    h = HermitianOperator(inst["h"])
    require_valid(h, "generator")
    built = {"channel": ch, "generator": h}
    if "povm" in inst:
        povm = Povm(tuple(inst["povm"]))
        require_valid(povm, "POVM")
        built["povm"] = povm
    if derivative:
        dch = commuting_derivative(ch, h)
        require_valid(dch, "derivative channel")
        built["derivative"] = dch
    return built


def _matrix_json(m: np.ndarray) -> str:
    rows = ("[" + ",".join(f"[{z.real!r},{z.imag!r}]" for z in row) + "]" for row in m.tolist())
    return "[" + ",".join(rows) + "]"


def write_problem(path, inst: dict, optimizer: dict, derivative: bool) -> None:
    """Write an instance as a problem file, one matrix at a time, so that a
    12 MB file never exists as one string in this process."""
    with open(path, "w") as fh:
        fh.write('{"dim": %d, "generator": ' % inst["d"])
        fh.write(_matrix_json(inst["h"]))
        fh.write(', "channel": {"kraus": [')
        for k, m in enumerate(inst["kraus"]):
            fh.write(("," if k else "") + _matrix_json(m))
        fh.write("]}")
        if "povm" in inst:
            fh.write(', "povm": {"elements": [')
            fh.write(",".join(_matrix_json(e) for e in inst["povm"]))
            fh.write("]}")
        if derivative:
            fh.write(', "derivative_channel": {"commuting": true}')
        fh.write(', "optimizer": {')
        fh.write(", ".join(f'"{k}": {v!r}' for k, v in optimizer.items()))
        fh.write("}}\n")
