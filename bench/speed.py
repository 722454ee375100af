"""The machine's speed, sampled inside the child while the program runs.

The benchmark's host is shared, and the speed of a core swings by up to 2x
from one second to the next as other tenants come and go.  A wall time
alone then says as much about the neighbours as about the program.  So a
child also measures the machine: every `PERIOD_S` of the timed span a
SIGALRM handler runs one fixed chunk of calibration work and records its
duration.  The chunk runs on the same core, in the same seconds, as the
program.  The parent scales each time by `REF_CHUNK_S` / (mean chunk
time) to give it at the reference speed (see README.md).

The chunk never touches `multlab`, allocates no tracked objects, and runs
with the cyclic collector off, so a change to the program cannot change
the chunk's own work.  The time spent in chunks is subtracted from the
program's wall and CPU time.
"""

from __future__ import annotations

import gc
import signal
import time

PERIOD_S = 0.2         # wall time between chunks while the program runs
CHUNK_STEPS = 15_000   # steps in one chunk
REF_CHUNK_S = 0.0025   # one chunk's wall time at the reference speed
BURST = 4              # chunks run back to back on either side of set-up

_TABLE = {k: k * 7 % 251 for k in range(512)}
_BUF = list(range(64))


def chunk() -> int:
    """A fixed piece of interpreter work: modular arithmetic on a list and
    lookups in a small dict, as the program's collector does."""
    table, buf, x = _TABLE, _BUF, 1
    for i in range(CHUNK_STEPS):
        j = i & 63
        x = (x * 31 + buf[j] + table[x & 511]) % 1000003
        buf[j] = x
    return x


class Sampler:
    """Collects chunk durations, and the wall and CPU time spent in them."""

    def __init__(self):
        self.chunks: list[float] = []
        self.wall = 0.0
        self.cpu = 0.0
        self._busy = False
        chunk()  # warm the interpreter's specialised code, untimed

    def run_chunk(self) -> None:
        if self._busy:  # a signal that lands inside a very slow chunk
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        chunk()
        dur = time.perf_counter() - t0
        self.cpu += time.process_time() - cpu0
        if collecting:
            gc.enable()
        self.chunks.append(dur)
        self.wall += dur
        self._busy = False

    def burst(self) -> None:
        for _ in range(BURST):
            self.run_chunk()

    def mean_chunk(self) -> float:
        return sum(self.chunks) / len(self.chunks)

    def __enter__(self) -> Sampler:
        signal.signal(signal.SIGALRM, lambda *_: self.run_chunk())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        # a span shorter than one period still gets a sample
        self.run_chunk()
