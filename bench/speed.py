"""The machine's speed, measured with fixed reference work.

On a few shared cores the same code runs up to twice as fast or as slow
from one moment to the next, and a plain integer loop drifts with it.
The end-to-end run therefore does reference work between its ops, about
once per `every_s` of program time, and reports each time scaled to the
reference speed: a time t measured while the reference work took r
seconds is reported as t * ref_s / r, with r the mean over the run for
throughput and set-up, and the mean of the timings around each op for
latencies.  The reference work is part of the benchmark, not of the
program, so a change to the program moves the scaled times as much as
the raw ones; the raw figures are printed beside them.

Two kinds of reference work match the two kinds of op:

  kernel   `kernel()` in the benchmark's process, for ops that run in it;
  process  a fresh interpreter that imports the standard modules the
           program imports and runs `kernel()` a few times
           (``python3 bench/speed.py``), for ops and set-ups that start
           processes, whose cost the in-process kernel does not follow.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

# Seconds the reference work takes at the reference speed, and program
# seconds between two timings of it.  The reference times only fix the
# scale of the reported times: they are near the work's time on a 2-core
# x86-64 VM with CPython 3.11, so scaled and raw figures read alike there.
KERNEL = {"ref_s": 0.004, "every_s": 0.05}
PROCESS = {"ref_s": 0.130, "every_s": 0.25}
PROCESS_KERNELS = 3


def kernel() -> int:
    """The product of two polynomials kept as dicts from exponent tuples
    to large integers: the dict, tuple and integer work the program does."""
    a = {(i, j, i * j % 5): (3 * i - j + 1) * 1000003 for i in range(12) for j in range(12)}
    b = {(i, (i + j) % 4, j): i + 2 * j - 5 for i in range(8) for j in range(6)}
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            c = out.get(e, 0) + ca * cb
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return len(out)


class Speed:
    """Timings of one kind of reference work, taken through a run."""

    def __init__(self, process: bool):
        spec = PROCESS if process else KERNEL
        self.kind = "process" if process else "kernel"
        self.ref_s, self.every_s = spec["ref_s"], spec["every_s"]
        self.samples: list[float] = []
        self._owed_s = 0.0

    def measure(self) -> None:
        t0 = time.perf_counter()
        if self.kind == "kernel":
            kernel()
        else:
            subprocess.run([sys.executable, __file__], check=True)
        self.samples.append(time.perf_counter() - t0)

    def after(self, program_s: float) -> None:
        """Time the reference work once per `every_s` of program time run
        since the last timing."""
        self._owed_s += program_s
        while self._owed_s >= self.every_s:
            self._owed_s -= self.every_s
            self.measure()

    def factor(self) -> float:
        """ref_s over the mean time of the reference work."""
        return self.ref_s / statistics.fmean(self.samples)

    def local_factor(self, at: int) -> float:
        """ref_s over the mean of the timings just before and just after an
        op that ran when `at` timings had been taken.  The machine keeps a
        speed for some tens to hundreds of milliseconds, so a latency is
        scaled by the speed of its moment; the run's mean speed would leave
        a quantile depending on how much of the run was fast."""
        return self.ref_s / statistics.fmean(self.samples[at - 1:at + 1])

    def describe(self) -> str:
        s = self.samples
        return (f"{len(s)} timings of the {self.kind} reference, mean "
                f"{statistics.fmean(s) * 1e3:.3f} ms, median {statistics.median(s) * 1e3:.3f} ms, "
                f"reference {self.ref_s * 1e3:g} ms: scale {self.factor():.4f}")


if __name__ == "__main__":
    # The process reference: the program's standard imports, then kernels.
    import argparse  # noqa: F401
    import dataclasses  # noqa: F401
    import enum  # noqa: F401
    import fractions  # noqa: F401
    import hashlib  # noqa: F401
    import json  # noqa: F401
    import random  # noqa: F401

    for _ in range(PROCESS_KERNELS):
        kernel()
