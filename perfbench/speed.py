"""How fast the vCPU ran while a request ran on it.

The shared host runs each vCPU at a speed that changes several times a
second and, over minutes, spends anywhere from almost none to almost all of
its time slow, when the same request takes up to twice as long.  A
fastest-of-N repeat cannot remove a slow stretch that covers a whole run,
so the benchmark measures the speed instead: a probe process, pinned to the
vCPU that runs the requests, times a small fixed piece of pure-Python work
every PROBE_INTERVAL_S, and a request's time is converted to the time it
would have taken at the probe's reference speed.

The probe's work is built in the standard library only, so a change to
chordspace cannot speed it up or slow it down.  It enumerates reduced
ratios with ``math.gcd``, ``math.log2`` and ``Fraction`` and sorts them,
which of the kernels tried slows down most like chordspace's own code.

Run as a script, this file is the probe: it samples until its standard
input closes, then prints its samples as JSON.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import select
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

#: Pause between two probe samples; one sample takes 0.2 to 0.35 ms, so the
#: probe takes 2 to 3 % of the vCPU.
PROBE_INTERVAL_S = 0.01
#: Time of one probe sample at the fast speed on the 2-vCPU machine the
#: benchmark was defined on.  It only scales corrected times to seconds.
REFERENCE_S = 180e-6


def probe_work() -> int:
    """A fixed piece of work, independent of chordspace."""
    ratios = []
    for p in range(1, 18):
        for q in range(1, 12):
            if math.gcd(p, q) == 1:
                ratios.append((1200.0 * math.log2(p / q), Fraction(p, q)))
    ratios.sort()
    return len(ratios)


def bench_cpu() -> int:
    """The vCPU the benchmark pins itself, its workers and the probe to."""
    return min(os.sched_getaffinity(0))


class SpeedProbe:
    """Samples the vCPU's speed while its ``with`` block runs.

    The caller pins itself to ``bench_cpu()`` first; the probe inherits the
    pinning, and so does every worker the caller starts.
    """

    def __init__(self):
        self._proc = None
        self._starts: list[float] = []
        self._speeds: list[float] = []

    def __enter__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __exit__(self, *exc):
        try:
            out, _ = self._proc.communicate(timeout=60)  # closes stdin: the probe stops
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
                self._proc.wait()
        if self._proc.returncode != 0:
            raise RuntimeError(f"speed probe exited with {self._proc.returncode}")
        samples = json.loads(out)
        self._starts = [start for start, _ in samples]
        self._speeds = [REFERENCE_S / took for _, took in samples]
        return False

    def corrected(self, start: float, end: float) -> float:
        """``end - start`` at the reference speed.

        The duration times the mean speed of the samples that began inside
        the interval, or of the nearest sample when none did (an interval
        shorter than PROBE_INTERVAL_S).  Call after the probe has stopped.
        """
        lo = bisect.bisect_left(self._starts, start)
        hi = bisect.bisect_right(self._starts, end)
        if hi > lo:
            speed = sum(self._speeds[lo:hi]) / (hi - lo)
        else:
            near = [i for i in (lo - 1, lo) if 0 <= i < len(self._starts)]
            nearest = min(near, key=lambda i: abs(self._starts[i] - start))
            speed = self._speeds[nearest]
        return (end - start) * speed

    def mean_speed(self) -> float:
        """Mean speed over every sample, as a share of the reference speed."""
        return sum(self._speeds) / len(self._speeds)


def _sample() -> None:
    samples = []
    while True:
        start = perf_counter()
        probe_work()
        samples.append((start, perf_counter() - start))
        ready, _, _ = select.select([sys.stdin], [], [], PROBE_INTERVAL_S)
        if ready:  # end of input: the caller has stopped the probe
            break
    json.dump(samples, sys.stdout)


if __name__ == "__main__":
    _sample()
