"""The machine-speed probe, timed in a child process of its own.

A shared machine switches between speed states for tens of seconds at a
time, and every timing of a run moves with it.  :class:`SpeedProbe`
follows that state with fixed pure-Python work (:func:`python_probe`).
The work runs in a separate interpreter that imports nothing from the
program, so no program state (threads, trace or profile hooks, the
switch interval, the heap) can reach the probe: a program change that
slows the interpreter shows in full in the benchmark's timings.

The parent asks for a probe by writing a count to the child's standard
input and blocks until the child answers with the median seconds of that
many probe calls, so the two never compete for the CPU.

Run as a script, this module is the child::

    python3 perfbench/speed.py     # reads counts, writes median seconds
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Seconds the child may take to start, answer, or exit.
TIMEOUT_S = 30


class _Probe:
    __slots__ = ("a",)

    def __init__(self):
        self.a = 0

    def step(self, i: int) -> int:
        self.a = (self.a + i * i) & 0xFFFF
        return self.a


def python_probe() -> int:
    """Fixed pure-Python work: calls, attribute and dict stores, and no
    allocation the garbage collector tracks."""
    p = _Probe()
    d = {}
    for i in range(8000):
        d[i & 255] = p.step(i)
    return p.a


def time_probe() -> float:
    """Seconds one ``python_probe()`` takes."""
    t0 = time.perf_counter()
    python_probe()
    return time.perf_counter() - t0


class SpeedProbe:
    """A child process that times ``python_probe()`` on request."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            bufsize=1)

    def sample(self, calls: int = 1) -> float:
        """Median seconds of ``calls`` probe calls in the child."""
        self.proc.stdin.write(f"{calls}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the speed probe process ended early")
        return float(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "SpeedProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _child() -> int:
    for line in sys.stdin:
        times = [time_probe() for _ in range(int(line))]
        print(repr(statistics.median(times)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(_child())
