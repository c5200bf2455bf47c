"""Fixed reference kernel that calibrates timings to the machine's current speed.

On a shared host the same invocation can run up to twice as slow for
seconds at a time while other tenants load the CPU. The benchmark times
this kernel just before and just after each invocation and reports times
scaled to :data:`REF_S`, the kernel's time on a quiet machine. The kernel
imitates the package's per-step work in miniature: a small LU factor and
solve in Python loops over numpy slices, a validated frozen record, and
17-digit CSV formatting. It belongs to the benchmark and must not change,
or calibrated figures stop being comparable.
"""

import statistics
import time
from dataclasses import dataclass

import numpy as np

#: Nominal kernel time in seconds (2-vCPU shared x86-64 host, Python 3.11,
#: numpy 2.4, quiet periods). Calibrated time = raw time * REF_S / kernel time.
REF_S = 0.003

_N = 4
_REPS = 60
_A = np.eye(_N) * 4.0 + np.arange(_N * _N).reshape(_N, _N) / (_N * _N)
_B = np.arange(_N, dtype=float)


@dataclass(frozen=True)
class _Record:
    t: float
    x: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        if not np.all(np.isfinite(x)):
            raise ValueError("record must be finite")
        x.setflags(write=False)
        object.__setattr__(self, "x", x)


def kernel() -> str:
    rows = []
    for i in range(_REPS):
        lu = _A.copy()
        for k in range(_N):
            lu[k + 1:, k] /= lu[k, k]
            lu[k + 1:, k + 1:] -= lu[k + 1:, k, None] * lu[k, k + 1:]
        x = _B.copy()
        for k in range(1, _N):
            x[k] -= lu[k, :k] @ x[:k]
        for k in range(_N - 1, -1, -1):
            x[k] -= lu[k, k + 1:] @ x[k + 1:]
            x[k] /= lu[k, k]
        record = _Record(0.1 * i, x)
        rows.append(",".join(format(float(v), ".17g") for v in record.x))
    return "\n".join(rows)


def timed(repeats: int = 1) -> float:
    """Median seconds of ``repeats`` kernel runs."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)
