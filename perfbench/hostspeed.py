"""Host speed: the yardstick every real-clock end-to-end metric is scaled by.

On a shared host the speed of a vCPU swings by tens of percent within
seconds and over minutes while other tenants come and go, and a 30-second
run cannot average that out.  So the benchmark times a fixed piece of work
that does not depend on the program, in chunks interleaved with the
measured work, and reports every real time as it would read on a host
that runs one chunk in :data:`REFERENCE_S`::

    reported time = measured time * REFERENCE_S / mean chunk time

and every real rate divided by the same factor.  During a repetition the
workload calls :meth:`HostSpeed.tick` between engine iterations or serve
batches, which times one chunk once every :data:`PERIOD` seconds; the
measured times leave the chunks out (:meth:`HostSpeed.clock`).  After
each set-up probe, chunks are timed for :data:`SHARE` of its duration and
set-up is scaled with :data:`SETUP_REFERENCE_S`.

A chunk is a Python loop of NumPy gathers at scattered positions of a
16 MB array: interpreter dispatch, short array operations and cache
misses, as in the engine's iterations.  Before each timed chunk the
helper runs one untimed chunk: a chunk right after the workload took
about 1.5 times as long as one right after another chunk, so without the
warm-up the yardstick would move with the program's own memory
footprint.  The chunks run in a helper interpreter, so that their arrays
count in neither the measuring process's peak memory nor its garbage
collections.  It inherits the benchmark's single CPU (``pin.py``) and
runs while the measuring process waits.

Run as a script, this module is that helper: each line ``SECONDS`` on
standard input makes it time chunks for ``SECONDS`` (at least one) and
print their durations as one JSON list.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from typing import List

#: Seconds a chunk timed during a repetition takes on the reference host
#: (a quiet vCPU of the 2-vCPU VM the benchmark was built on).
REFERENCE_S = 0.0035
#: The same for chunks timed back to back after a set-up probe, which find
#: warmer caches.
SETUP_REFERENCE_S = 0.0027
#: Seconds of measured work between two chunks during a repetition.
PERIOD = 0.08
#: After a set-up probe, chunks are timed for this share of its duration.
SHARE = 0.08


class NoSpeed:
    """No host-speed measurement: real time, no chunks."""

    @staticmethod
    def tick() -> None:
        pass

    clock = staticmethod(time.perf_counter)


class HostSpeed:
    """A helper interpreter timing chunks alongside the measured work."""

    def __init__(self) -> None:
        #: chunk durations since the stretch began (see :meth:`scale`).
        self.chunks: List[float] = []
        #: real seconds this process has spent waiting for chunks.
        self.paused = 0.0
        self._due = 0.0
        self._helper = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def clock(self) -> float:
        """Real seconds, less the time spent waiting for chunks."""
        return time.perf_counter() - self.paused

    def tick(self) -> None:
        """Time one chunk if :data:`PERIOD` has passed since the last one."""
        if time.perf_counter() >= self._due:
            self._request(0.0)
            self._due = time.perf_counter() + PERIOD

    def sample(self, alongside: float) -> None:
        """Time chunks for :data:`SHARE` of ``alongside`` seconds (>= 1)."""
        self._request(SHARE * alongside)

    def _request(self, seconds: float) -> None:
        started = time.perf_counter()
        self._helper.stdin.write(f"{seconds}\n")
        self._helper.stdin.flush()
        reply = self._helper.stdout.readline()
        if not reply:
            raise RuntimeError("the host-speed helper exited")
        self.chunks.extend(json.loads(reply))
        self.paused += time.perf_counter() - started

    def scale(self, reference: float = REFERENCE_S) -> float:
        """Factor from measured to reference-host times; starts a new stretch."""
        factor = reference / statistics.fmean(self.chunks)
        self.chunks = []
        return factor

    def close(self) -> None:
        self._helper.stdin.close()
        try:
            self._helper.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._helper.kill()
            self._helper.wait()
        self._helper.stdout.close()

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _helper() -> int:
    import numpy as np

    size, rounds = 1 << 21, 75
    table = np.arange(size, dtype=np.int64)
    keys = (np.arange(4096, dtype=np.int64) * 2654435761) & (size - 1)

    def chunk() -> int:
        acc = 0
        for i in range(rounds):
            picked = table[(keys + i * 7919) & (size - 1)]
            acc += int(np.bincount(picked & 255, minlength=256).argmax())
        return acc

    chunk()  # faults the table in
    for line in sys.stdin:
        seconds = float(line)
        timings, spent = [], 0.0
        while not timings or spent < seconds:
            chunk()  # warm-up
            started = time.perf_counter()
            chunk()
            timings.append(time.perf_counter() - started)
            spent += timings[-1]
        print(json.dumps(timings), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(_helper())
