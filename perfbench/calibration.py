"""Machine-speed calibration for the benchmark's end-to-end times.

Shared machines change speed by up to 1.5x for tens of seconds at a
time.  The benchmark times calibrate() before and after each pass and
scales that pass's times by CALIBRATION_REFERENCE_S over their mean.
Its times are then reported at one reference speed, so two sets of runs
of the same code agree more closely than their raw times do.  The
calibration never touches the package, so a change to the package
scales the reported times by the same factor as the raw ones.
"""
import time

import numpy as np

# Reference machine speed: calibrate() takes this long on it.
CALIBRATION_REFERENCE_S = 0.25


def calibrate() -> float:
    """Wall time of fixed work that never touches the package: batched
    4x4 Hermitian eighs, a 40x40 three-operand einsum and a Python dict
    loop, the kinds of work the workloads spend their time on."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4096, 4, 4)) + 1j * rng.standard_normal((4096, 4, 4))
    a = a + a.conj().transpose(0, 2, 1)
    for _ in range(6):
        np.linalg.eigh(a)
    b = rng.standard_normal((8, 40, 40)) + 1j * rng.standard_normal((8, 40, 40))
    np.einsum("bij,bjk,bkl->bil", b, b, b)
    counts: dict[int, int] = {}
    for i in range(60000):
        counts[i % 977] = counts.get(i % 977, 0) + i
    return time.perf_counter() - start


def at_reference(seconds: float, calib_s: float) -> float:
    """seconds measured when calibrate() took calib_s, at reference speed."""
    return seconds * CALIBRATION_REFERENCE_S / calib_s
