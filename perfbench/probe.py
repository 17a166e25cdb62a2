"""Host-speed probe: a fixed slice of interpreter and numpy work.

A shared 2-vCPU x86_64 VM can change speed by tens of percent over
minutes (identical passes ranged 0.77-1.40 s, CPU time equal to wall
time), so raw seconds from two runs differ even for identical code.
Each run samples this probe around its set-up and between its passes; the
batch workloads report host times, and every workload its set-up time, in
*reference seconds*, ``raw * REFERENCE_S / median(probe)``: what the work
would take on a host where the probe takes ``REFERENCE_S``.  The probe
never calls the program, so a change to the program moves the reported
times exactly as it moves the raw ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Probe median on the reference host (2 vCPUs, x86_64, Python 3.11,
#: numpy 2.4) at the time the benchmark was defined.
REFERENCE_S = 0.03

_RNG = np.random.default_rng(0)
_A = _RNG.integers(0, 1000, size=(64, 64), dtype=np.int64)
_B = _RNG.integers(0, 1000, size=(64, 64), dtype=np.int64)
_BIG = _RNG.integers(0, 1000, size=(512, 512), dtype=np.int64)


def probe() -> float:
    """Seconds for one probe.

    It mixes the kinds of work the workloads do: interpreter work, many
    small numpy calls (a 64 x 64 min-plus product), an int64 tensor
    contraction, and memory-bound passes over 2 MB arrays.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(40_000):
        table[i & 255] = table.get(i & 255, 0) + i
    for _ in range(15):
        np.minimum.reduce(_A[:, :, None] + _B[None, :, :], axis=1)
    for _ in range(3):
        np.tensordot(_BIG[:128, :128], _BIG[:128, :128], axes=1)
    for _ in range(6):
        np.minimum(_BIG, _BIG.T).sum()
    return time.perf_counter() - start


class HostSpeed:
    """Probe samples of one run, per phase, and the scales they imply."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {"setup": [], "timed": []}

    def sample(self, phase: str, count: int = 1) -> None:
        self.samples[phase].extend(probe() for _ in range(count))

    def median(self, phase: str) -> float:
        return statistics.median(self.samples[phase])

    def scale(self, phase: str) -> float:
        """Factor turning ``phase``'s host seconds into reference seconds."""
        return REFERENCE_S / self.median(phase)
