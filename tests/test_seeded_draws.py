"""The seeded draws kept once per process: the random_haar restart stack
(optimizer._haar_probes) and the oracle's probes (oracles.search_probes).
A solve or an oracle call must give the same bits whether its draw is
made anew or kept from an earlier call, and whatever ran in between."""

import numpy as np
import pytest

from qfimax import (
    OptimizerConfig,
    brute_force_max_qfi,
    commuting_derivative,
    haar_state,
    optimize,
    optimize_fixed_measurement,
    optimize_general,
)
from qfimax import optimizer, oracles

from helpers import random_channel, random_hermitian, random_povm


def instance(d):
    rng = np.random.default_rng([d, 23])
    return random_channel(d, rng, n_kraus=2), random_hermitian(d, rng), random_povm(d, rng)


def run_all(d, seed):
    """Every route's solve and an oracle call on instance(d) at seed, as
    the arrays a repeat must reproduce bit for bit."""
    ch, h, povm = instance(d)
    cfg = OptimizerConfig(restarts=3, seed=seed, max_iters=25)
    out = []
    for result in (optimize(ch, h, cfg), optimize_general(ch, commuting_derivative(ch, h), cfg),
                   optimize_fixed_measurement(ch, h, povm, cfg)):
        out += [np.array(result.restart_values), np.array([rec.f for rec in result.trace]),
                result.psi_star.amplitudes]
    value, psi = brute_force_max_qfi(ch, h, n_samples=300, seed=seed)
    return out + [np.array(value), psi.amplitudes]


def clear():
    optimizer._haar_probes.cache_clear()
    oracles.search_probes.cache_clear()


def test_kept_draws_give_the_bits_of_fresh_ones():
    # a repeat at once (its draws kept), then one after a call at another
    # seed and one at another dimension (drawn again: one entry is kept)
    calls = [(2, 7), (2, 7), (2, 8), (3, 7), (2, 7)]
    kept = [run_all(d, seed) for d, seed in calls]
    fresh = []
    for d, seed in calls:
        clear()
        fresh.append(run_all(d, seed))
    for (d, seed), a, b in zip(calls, kept, fresh):
        assert len(a) == len(b) == 11
        for x, y in zip(a, b):
            assert x.tobytes() == y.tobytes(), (d, seed)
    for repeat in (kept[1], kept[4]):
        assert all(x.tobytes() == y.tobytes() for x, y in zip(kept[0], repeat))
    # the other seed's draws are other draws
    assert kept[0][0].tobytes() != kept[2][0].tobytes()


@pytest.mark.parametrize("d, seed, restarts", [(2, 7, 8), (5, 0, 3)])
def test_restart_stack_is_each_restarts_haar_state(d, seed, restarts):
    probes = optimizer._haar_probes(d, seed, restarts)
    assert probes.shape == (restarts, d)
    for k in range(restarts):
        assert np.array_equal(probes[k], haar_state(d, np.random.default_rng([seed, k])).amplitudes)


@pytest.mark.parametrize("d", [2, 3])
def test_search_probes_are_the_uncached_stream(d):
    probes = oracles.search_probes(d, 40, 5)
    assert oracles.search_probes(d, 40, 5) is probes  # kept
    assert probes.tobytes() == oracles.search_probes.__wrapped__(d, 40, 5).tobytes()


def test_search_seed_is_an_integer():
    # a Generator, kept by identity, would give its first draw to every later call
    for seed in (np.random.default_rng(0), 1.0):
        with pytest.raises(TypeError):
            oracles.search_probes(2, 5, seed)
    assert np.array_equal(oracles.search_probes(2, 5, np.int64(3)), oracles.search_probes(2, 5, 3))


def test_kept_arrays_are_read_only():
    for probes in (optimizer._haar_probes(2, 7, 8), oracles.search_probes(2, 40, 5)):
        with pytest.raises(ValueError):
            probes[0, 0] = 1.0


def test_one_entry_each():
    clear()
    for d in (2, 3, 2):
        optimizer._haar_probes(d, 7, 8)
        oracles.search_probes(d, 40, 5)
    for cached in (optimizer._haar_probes, oracles.search_probes):
        info = cached.cache_info()
        assert (info.maxsize, info.currsize, info.hits, info.misses) == (1, 1, 0, 3)
