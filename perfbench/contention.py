"""The host's speed during a run, read in a separate idle process.

On a shared host the same single-threaded work does not run at one
speed.  A co-tenant on the physical core slows stretches of seconds by
up to ~1.5x, and the speed the host reaches between those stretches
drifts by as much again between minutes.  The benchmark takes every
timing at the host's fastest (each operation's fastest run, the fastest
query blocks), which removes the stretches but not the drift.

The ruler is a fixed ~1 ms chunk of Python and small-NumPy work, run by
a helper process of its own.  The benchmark reads it only while the
program is idle -- before the first and after every round, or between
query blocks -- and the helper first sleeps :data:`PAUSE_S` so the
program's threads have settled.  The ruler therefore shares neither the
program's interpreter nor its busy time, and measures only the host.
Its fastest readings (:meth:`Ruler.floor`) are the host's fastest speed
during the run, and :meth:`Ruler.scale` takes timings to a reference
host on which one chunk takes :data:`REFERENCE_S`.  Every run prints
the raw timings and the floor beside the scaled ones.

Run as a script, this file is the helper: each line on standard input
asks for that many chunks, answered by one JSON list of their times.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

#: The ruler chunk's time on the reference host.
REFERENCE_S = 1e-3
#: Idle time before a reading, so no program thread is still busy.
PAUSE_S = 0.1
#: Chunks per reading (~0.1 s).
CHUNKS = 100


def _chunk(a, b, np) -> float:
    total = 0.0
    for _ in range(25):
        total += float(np.linalg.norm(np.cross(a, b)))
        np.clip(a, -0.2, 0.2)
    for i in range(3000):
        total += (i * 0.5) % 3.0
    return total


def helper() -> None:
    """Answer chunk requests on standard input until it closes."""
    import numpy as np

    a, b = np.array([0.1, 0.2, 0.3]), np.array([0.3, -0.1, 0.2])
    for line in sys.stdin:
        time.sleep(PAUSE_S)
        times = []
        for _ in range(int(line)):
            start = perf_counter()
            _chunk(a, b, np)
            times.append(perf_counter() - start)
        print(json.dumps(times), flush=True)


class Ruler:
    """The ruler helper processes and their readings.

    ``helpers`` is how many cores the workload keeps busy: that many
    helpers read the ruler at once, so the ruler meets the host as the
    workload does.
    """

    def __init__(self, helpers: int = 1):
        self.samples = []
        self._procs = [subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            for _ in range(helpers)]

    def read(self) -> None:
        """One reading: the helpers pause, then time :data:`CHUNKS` chunks.

        Blocks until the reading is done, so the caller stays idle.
        """
        for proc in self._procs:
            proc.stdin.write(f"{CHUNKS}\n")
            proc.stdin.flush()
        for proc in self._procs:
            self.samples.extend(json.loads(proc.stdout.readline()))

    def floor(self) -> float:
        """The host's fastest chunk time: the readings' 10th percentile."""
        return statistics.quantiles(self.samples, n=10)[0]

    def scale(self) -> float:
        """Factor that takes this run's fastest timings to the reference host."""
        return REFERENCE_S / self.floor()

    def close(self) -> None:
        """Stop the helpers and wait for them."""
        for proc in self._procs:
            proc.stdin.close()
            proc.wait()
            proc.stdout.close()


if __name__ == "__main__":
    helper()
