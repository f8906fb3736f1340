"""Host-speed calibration for the timed operations.

The host this benchmark runs on is shared: over tens of seconds to
minutes its speed swings by up to ~1.7x, and an operation's wall swings
with it (identical 16^3 ISA solves took 3.0 s in one minute and 5.9 s
in another on a 2-CPU host).  No run is long enough to average that
out, so the benchmark times a fixed slice of work, :func:`calibrate`,
before and after every timed operation and reports the operation's wall
rescaled to a host that does that slice in :data:`REFERENCE_S` seconds.

The slice uses only this file, Python and numpy, so no change to the
program can move it: a program that gets faster or slower still reads
faster or slower, while a host that does both moves the two together.
Its mix follows a solve's: interpreter work, numpy operations on
line-sized arrays, and a streaming pass over an array larger than the
L2 cache.  A solve that runs in the timing process is rescaled by the
slice timed in that process (their walls correlate at ~0.75-0.8);
work spread over other processes on every CPU by the slice timed on
every CPU at once (:class:`AllCpus`).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

#: the slice's wall on the reference host (a quiet 2-CPU x86-64 VM);
#: a rescaled wall reads as seconds on that host
REFERENCE_S = 0.25
_REPS = 9000


def calibrate() -> float:
    """Wall seconds of the fixed slice of work."""
    rng = np.random.default_rng(0)
    small = rng.random(96)
    big = rng.random(1 << 17)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(_REPS):
        x = small * 1.0001 + 0.5
        x = np.where(x > 1.0, x - 1.0, x)
        acc += float(x.sum())
        parts = [(j, j * 0.5) for j in range(40)]
        acc += sum(v for _, v in parts) * 1e-9
        if i % 8 == 0:
            y = big * 1.0001
            y += big
            acc += float(y[i])
    wall = time.perf_counter() - t0
    if not acc > 0:  # keeps the work observable
        raise RuntimeError("calibration slice computed nothing")
    return wall


class AllCpus:
    """One idle helper process per CPU of this process's affinity mask,
    each pinned to its CPU.  :meth:`calibrate` times the slice on every
    CPU at once and returns the mean wall: the slowness of work spread
    over all CPUs (pool workers, ranks), which a slice timed on one CPU
    tracks poorly -- on 2-CPU hosts the two CPUs' slice walls correlate
    at only ~0.4-0.5."""

    def __init__(self) -> None:
        self.procs = [
            subprocess.Popen([sys.executable, __file__, str(cpu)],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             text=True)
            for cpu in sorted(os.sched_getaffinity(0))
        ]

    def calibrate(self) -> float:
        for proc in self.procs:
            proc.stdin.write("go\n")
            proc.stdin.flush()
        walls = [float(proc.stdout.readline()) for proc in self.procs]
        return sum(walls) / len(walls)

    def close(self) -> None:
        for proc in self.procs:
            proc.stdin.close()  # end of input ends the helper
        for proc in self.procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


if __name__ == "__main__":
    # helper of AllCpus: time the slice on this CPU for every input line
    os.sched_setaffinity(0, {int(sys.argv[1])})
    for _line in sys.stdin:
        print(repr(calibrate()), flush=True)
