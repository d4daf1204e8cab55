"""CPU-speed probe used to normalize job times.

On a shared 2-core machine the speed one process gets moves by up to
~1.5x, sometimes more, for seconds to minutes at a time as neighbours
load the machine. CPU time moves with wall time, so the cause is speed,
not scheduling, and a 30-second median cannot average it out. The probe
times fixed work right before and after every job; dividing the job time
by the probe's ratio to its reference gives seconds at the reference
speed.

Work reacts differently: interpreter-bound code (dictionary lookups,
list building, numpy calls on tiny arrays) slows most; array and BLAS
code slows less. The probe therefore has two parts,

* ``interp``: a dictionary-lookup loop;
* ``array``: the geometric mean of an in-cache numpy pass, a
  memory-bound numpy pass and a small BLAS product;

and each job blends them as ``interp**(1 - beta) * array**beta``, with
``beta`` the share of the job that behaves like array code (set per job
in workloads.py from recorded probe/job pairs).

The reference values are round numbers near what the parts read on a
2-core x86 machine with OpenBLAS on 2 threads; they only set the scale
of the reported times.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REFERENCE_S = {"interp": 0.0015, "array": 0.002}


class SpeedProbe:
    def __init__(self):
        self._table = {i: i for i in range(1000)}
        self._small = np.arange(1 << 18, dtype=np.float64)  # 2 MB, in cache
        self._large = np.arange(1 << 21, dtype=np.float64)  # 16 MB, memory-bound
        self._square = np.random.default_rng(0).standard_normal((192, 192))

    def _interp(self):
        table, acc = self._table, 0
        for i in range(20000):
            acc += table[i % 1000]

    def _in_cache(self):
        for _ in range(4):
            np.sqrt(self._small).sum()

    def _memory(self):
        (self._large * 1.5).sum()

    def _blas(self):
        for _ in range(6):
            self._square @ self._square

    def __call__(self) -> dict:
        """Seconds for each part (each timing the median of three)."""
        parts = []
        for fn in (self._interp, self._in_cache, self._memory, self._blas):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                fn()
                times.append(time.perf_counter() - start)
            parts.append(statistics.median(times))
        array = math.exp(sum(math.log(p) for p in parts[1:]) / 3)
        return {"interp": parts[0], "array": array}


def slowdown(reading: dict, beta: float) -> float:
    """How much slower than the reference a job with this beta runs now."""
    return ((reading["interp"] / REFERENCE_S["interp"]) ** (1 - beta)
            * (reading["array"] / REFERENCE_S["array"]) ** beta)


def normalize(seconds: float, before: dict, after: dict, beta: float) -> float:
    """Job seconds at the reference speed, from the probes around the job."""
    return seconds / math.sqrt(slowdown(before, beta) * slowdown(after, beta))
