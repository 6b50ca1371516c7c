"""Host speed references, timed around the steps of a run, by which every
timing of the run is scaled.

The machine the benchmark was tuned on runs the same code up to 1.7x slower
in stretches of seconds to minutes, with CPU time equal to wall time (the
cores themselves slow down; nothing waits). Scaling a step's wall time by
the nominal time of a reference over the reference's time around the step
reports it in ms at a fixed host speed: a change to qfimax moves the scaled
time as it moves the wall time, while a change in host speed moves the step
and the reference together. Neither reference uses qfimax code.

- The kernel reference, a fixed numpy computation timed just before and just
  after each in-process operation, scales that operation by the mean of the
  two (it varies by about 1.5% from one sample to the next), and the build
  part of a set-up probe by the run's median.
- The launch reference, a fresh interpreter that imports numpy and exits,
  timed just before and just after each child process, scales CLI launches
  and the import part of a set-up probe by the run's median (one launch
  varies by 10-20% from the next). Start-up (loading shared libraries,
  unmarshalling modules) follows the host differently from numpy compute: on
  CLI launches the kernel reference made the spread worse, this one halved it.
"""

import statistics
import subprocess
import sys
import time

import numpy as np

# Nominal times of one kernel reference and of one launch reference: round
# figures of their times on the 2-vCPU Xeon the benchmark was tuned on, where
# they ranged over 3.2-5.6 ms and 98-190 ms. They are only units.
KERNEL_MS = 5.0
LAUNCH_MS = 110.0
LAUNCH_ARGV = ["-c", "import numpy"]

_rng = np.random.default_rng(20131205)


def _hermitian(d):
    a = _rng.standard_normal((d, d)) + 1j * _rng.standard_normal((d, d))
    return (a + a.conj().T) / 2


# Small matrices, where interpreter and call overhead dominate (as in the
# d=2..16 solves), and a d=64 matrix, where flops dominate (as at d=64).
_SMALL = [_hermitian(d) for d in (2, 4, 8)]
_LARGE = _hermitian(64)


def kernel_ms() -> float:
    """Run the fixed computation once; return its wall time in ms."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(12):
        for m in _SMALL:
            w, v = np.linalg.eigh(m)
            rho = (v * w) @ v.conj().T
            acc += float(np.real(np.trace(rho @ m))) + float(np.abs(rho).max())
    for _ in range(3):
        w, v = np.linalg.eigh(_LARGE)
        acc += float(np.real((v.conj().T @ _LARGE @ v)[0, 0]))
    ms = (time.perf_counter() - t0) * 1e3
    if not np.isfinite(acc):
        raise ArithmeticError("kernel reference is not finite")
    return ms


def launch_ms(env: dict, cwd) -> float:
    """Start a fresh interpreter that imports numpy; return its wall time in ms."""
    t0 = time.perf_counter()
    # Pipes make subprocess wait for the child's exit by select(); without
    # them a run with a timeout polls, and the time moves in 50 ms steps.
    subprocess.run([sys.executable] + LAUNCH_ARGV, cwd=cwd, env=env, check=True,
                   capture_output=True, timeout=60)
    return (time.perf_counter() - t0) * 1e3


class HostClock:
    """Takes reference samples and turns them into scale factors."""

    def __init__(self, env: dict, cwd):
        self.env, self.cwd = env, cwd
        for _ in range(5):  # warm up numpy and the file cache
            kernel_ms()
        launch_ms(env, cwd)
        self.kernel_ms, self.launch_ms = [], []  # every sample of the run

    def kernel(self) -> float:
        ms = kernel_ms()
        self.kernel_ms.append(ms)
        return ms

    def launch(self) -> float:
        ms = launch_ms(self.env, self.cwd)
        self.launch_ms.append(ms)
        return ms

    @staticmethod
    def kernel_scale(before_ms: float, after_ms: float) -> float:
        """Factor from an operation's wall time to ms at the nominal speed."""
        return KERNEL_MS / ((before_ms + after_ms) / 2)

    def run_kernel_scale(self) -> float:
        """The same factor from every kernel sample of the run."""
        return KERNEL_MS / statistics.median(self.kernel_ms)

    def run_launch_scale(self) -> float:
        """Factor from a child process's wall time to ms at the nominal
        speed, from every launch sample of the run."""
        return LAUNCH_MS / statistics.median(self.launch_ms)
