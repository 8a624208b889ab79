"""Machine-speed probe, run in its own interpreter.

On a shared host the speed of small NumPy calls and interpreter work drifts by
up to a factor of two over minutes, which would swamp the benchmark's bounds;
interpreter start-up slows far less. The op times of the in-process workloads
are therefore reported at a reference speed, at which one calibration slice
takes ``NOMINAL_SLICE_S``. The slices run in a child process that never
imports the package, so nothing the program leaves behind (threads, retained
objects, BLAS state) can change them.

``python probe.py`` reads one number per line from stdin, the seconds of work
just measured, and answers ``<slices> <total seconds>`` after running slices
for about ``SHARE`` of it. A first, discarded slice refills the caches the
measured work evicted.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path
from time import perf_counter

NOMINAL_SLICE_S = 0.002
SHARE = 0.1


def calibration_slice() -> float:
    """Seconds for a fixed mix of small-matrix NumPy calls and interpreter work,
    the kind of work the package does."""
    import numpy as np

    m = np.array([[2.0, 0.5, 0.1, 0.0], [0.5, 1.5, 0.2, 0.1], [0.1, 0.2, 1.0, 0.3], [0.0, 0.1, 0.3, 0.5]])
    start = perf_counter()
    acc = 0.0
    for _ in range(150):
        acc += float(np.linalg.eigvalsh(m)[0]) + float(np.abs(np.outer(m[0], m[1])).sum())
        acc += sum(j * j for j in range(60))
    return perf_counter() - start


def serve() -> None:
    for line in sys.stdin:
        calibration_slice()
        slices = [calibration_slice()]
        while sum(slices) < SHARE * float(line):
            slices.append(calibration_slice())
        sys.stdout.write(f"{len(slices)} {sum(slices)!r}\n")
        sys.stdout.flush()


class SpeedProbe:
    """Parent side: call ``measured(seconds)`` after each timed piece of work;
    ``scale()`` gives the factor that converts those times to the reference
    speed."""

    def __init__(self, env: dict[str, str]) -> None:
        self.slices = 0
        self.total_s = 0.0
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            env={k: v for k, v in env.items() if k != "PYTHONPATH"},
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def measured(self, seconds: float) -> None:
        self.proc.stdin.write(f"{seconds!r}\n")
        self.proc.stdin.flush()
        count, total = self.proc.stdout.readline().split()
        self.slices += int(count)
        self.total_s += float(total)

    def scale(self) -> tuple[float, int]:
        """The factor, and the number of slices behind it."""
        return NOMINAL_SLICE_S * self.slices / self.total_s, self.slices

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


if __name__ == "__main__":
    serve()
