"""Times normalised to the host's current speed.

On a shared host the same work can run 1.5x slower for seconds to minutes
at a time while neighbouring tenants are busy, and starting a process can
slow by 2x while pure-Python loops barely move.  Either moves raw times by
more than any useful regression bound.  So between requests the benchmark
times a fixed calibration task that shares no code with the package, and
reports each time scaled by nominal / (median calibration time within
WINDOW_S of it).  A change to the package moves the scaled times; a change
in host speed moves raw times and calibration together and cancels out.

In-process workloads calibrate with the benchmark's own reference solver
on the classic puzzle.  The cli workload calibrates with a process that
starts the same interpreter with the same environment and runs that task,
because its requests are mostly process start-up.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable

import corpus
from reference import parse_cells, solve_reference

# Calibration times on a quiet 2.1 GHz x86-64 core.
NOMINAL_S = 0.001
NOMINAL_PROCESS_S = 0.06
WINDOW_S = 2.0          # calibration samples within this of a time count
_CLASSIC = parse_cells(corpus.CLASSIC)


def calibration_task() -> None:
    for _ in range(10):
        solve_reference(_CLASSIC)


def process_task(env: dict, cwd: Path) -> Callable[[], None]:
    """A calibration process: the interpreter, then calibration_task()'s
    work, importing no more than it needs."""
    code = ("import sys; sys.path.insert(0, 'bench'); "
            "from reference import solve_reference; "
            f"[solve_reference({_CLASSIC!r}) for _ in range(10)]")

    def run() -> None:
        # Output goes to a pipe on purpose: with no pipe to watch, a wait
        # with a timeout polls every 50 ms, and the time reads in steps.
        subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                       stdin=subprocess.DEVNULL, capture_output=True,
                       check=True, timeout=60)
    return run


class SpeedGauge:
    def __init__(self, task: Callable[[], None] = calibration_task,
                 nominal: float = NOMINAL_S, interval: float = 0.05) -> None:
        self.task = task
        self.nominal = nominal
        self.interval = interval      # calibrate at most this often
        self.at: list[float] = []     # midpoints, ascending
        self.took: list[float] = []
        self._last = -1.0

    def sample(self, force: bool = False) -> None:
        """Time the calibration task, unless it ran less than `interval`
        ago (and `force` is off)."""
        now = perf_counter()
        if not force and now - self._last < self.interval:
            return
        self.task()
        end = perf_counter()
        self.at.append((now + end) / 2)
        self.took.append(end - now)
        self._last = end

    def speed(self) -> float:
        """Host speed over the run: nominal / median calibration time."""
        return self.nominal / statistics.median(self.took)

    def scale(self, start: float, seconds: float) -> float:
        """`seconds` of work that began at `start`, at nominal speed."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, start + seconds + WINDOW_S)
        near = self.took[lo:hi] or self.took
        return seconds * self.nominal / statistics.median(near)
