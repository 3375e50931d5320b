"""The host's own speed, timed beside the program so the metrics can be
scaled to a fixed host speed.

The benchmark runs on a few cores of a shared host.  Other tenants load
the shared cache and memory, and the same code then runs up to a third
slower for minutes at a time, which is longer than one run.  No estimator
inside a run removes a change that covers whole runs, so every round of
products also times a fixed reference block that does not touch structmv,
and each metric is scaled by how far the reference ran, over the run, from
its nominal time.

Reference blocks are timed with the rounds of products, not beside the CLI
children or set-up: the first block after the benchmark has waited for a
child reads up to twice its usual time, whatever the child did.  Only the
first round after each CLI round, one round in ten or more, follows a
child, so the median over the run does not see it.

A reference block times three kernels, one per kind of work that structmv
does:

* ``memory``: the sum of a 128 MB array, a stream through memory larger
  than the last-level cache, like a product through dense maps;
* ``python``: an interpreted integer loop, like the kernels' index loops
  and the multilevel bookkeeping;
* ``blas``: complex 512 x 512 matrix-vector products, like the transforms.

``NOMINAL_S`` holds their median times on a quiet stretch of the host the
benchmark was built on (see README.md), so a scaled metric reads as what
that host would have measured at that speed.  The CLI children are scaled
by a reference child instead (``SPAWN_ARGV``), since start-up, which no
in-process kernel follows, is most of their time.
"""

from __future__ import annotations

import math
import statistics
import sys
import time

import numpy as np

NOMINAL_S = {"memory": 0.0165, "python": 0.0070, "blas": 0.0100}

# A fresh interpreter that imports numpy: the start-up that every CLI child
# pays before structmv runs, and most of its wall time.  The CLI rounds run
# one before each document's children; ``NOMINAL_SPAWN_S`` is the
# faster-half mean of its wall time on a quiet stretch of the same host.
SPAWN_ARGV = (sys.executable, "-c", "import numpy")
NOMINAL_SPAWN_S = 0.155

_STREAM_LEN = 16 * 2**20          # float64 values: 128 MB
_LOOP_LEN = 60_000
_BLAS_N, _BLAS_REPS = 512, 40


def _rss_mb() -> float:
    with open("/proc/self/status") as fh:
        line = next(line for line in fh if line.startswith("VmRSS:"))
    return int(line.split()[1]) / 1024


class Reference:
    """Fixed reference blocks and their times.

    ``resident_mb`` is what the reference arrays added to the resident set
    when they were made; they stay resident to the end of the run.
    """

    def __init__(self):
        before = _rss_mb()
        rng = np.random.default_rng(0)
        self._stream = rng.standard_normal(_STREAM_LEN)
        self._matrix = (rng.standard_normal((_BLAS_N, _BLAS_N))
                        + 1j * rng.standard_normal((_BLAS_N, _BLAS_N)))
        self._vector = rng.standard_normal(_BLAS_N) + 0j
        self.resident_mb = _rss_mb() - before
        self.samples = []

    def _memory(self):
        self._stream.sum()

    @staticmethod
    def _python():
        s = 0
        for i in range(_LOOP_LEN):
            s += i * i % 7
        return s

    def _blas(self):
        for _ in range(_BLAS_REPS):
            self._matrix @ self._vector

    def block(self):
        """Time one reference block and keep its times."""
        times = {}
        for kind, kernel in (("memory", self._memory), ("python", self._python),
                             ("blas", self._blas)):
            t0 = time.perf_counter()
            kernel()
            times[kind] = time.perf_counter() - t0
        self.samples.append(times)

    def describe(self) -> str:
        medians = ", ".join(f"{k} {_median_s(self.samples, k) * 1e3:.2f} ms"
                            for k in NOMINAL_S)
        return f"reference: {len(self.samples)} blocks, median {medians}"


def _median_s(blocks, kind: str) -> float:
    return statistics.median(b[kind] for b in blocks)


def slowdown(blocks, kinds=tuple(NOMINAL_S)) -> float:
    """How much slower than nominal the host ran over ``blocks``: the
    geometric mean over ``kinds`` of median time over nominal time."""
    return math.exp(statistics.fmean(
        math.log(_median_s(blocks, k) / NOMINAL_S[k]) for k in kinds))
