"""Host-speed calibration interleaved with a workload pass.

A shared host's CPU speed moves by a quarter or more within seconds, in
steps (a fixed pure-Python loop reads 0.20 s and 0.30 s a few seconds
apart), so wall time alone varies more between runs of the same code
than any bound worth gating.  While a pass runs, a CPU-time interval
timer (SIGVTALRM) interrupts the workload every INTERVAL_S seconds of
process CPU time and times one fixed calibration chunk: tuple hashing,
dict lookups and integer arithmetic, like the library's inner loops, and
allocation-free so that it never triggers the garbage collector over the
workload's heap.

`reference_s(a, b)` converts the workload time in [a, b] to seconds at
the reference speed: each stretch of workload time between two chunks is
divided by the duration of the chunk that ends it and multiplied by
REF_CHUNK_S.  Chunk time inside [a, b] is left out, and `excluded(a, b)`
returns it so that raw wall and CPU times can leave it out too.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.2  # process CPU time between two chunks
REF_CHUNK_S = 0.01  # chunk duration that defines the reference speed
ROUNDS = 30

_KEYS = [(i % 97, i % 89, i >> 3) for i in range(2048)]
_TABLE = {k: i for i, k in enumerate(_KEYS)}


def chunk():
    table, keys, acc = _TABLE, _KEYS, 0
    for _ in range(ROUNDS):
        for k in keys:
            acc = (acc + table[k] * k[1] + k[2]) & 0xFFFFF
    return acc


class Calibration:
    def __init__(self):
        self.starts, self.walls, self.cpus = [], [], []

    def _on_timer(self, signum, frame):
        t, c = time.perf_counter(), time.process_time()
        chunk()
        self.walls.append(time.perf_counter() - t)
        self.cpus.append(time.process_time() - c)
        self.starts.append(t)

    def start(self):
        for _ in range(3):  # warm the chunk's code and data
            chunk()
        self._on_timer(None, None)  # a pass shorter than INTERVAL_S has one
        signal.signal(signal.SIGVTALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def excluded(self, a, b):
        """(wall, cpu) seconds of the chunks that started in [a, b]."""
        lo, hi = (bisect.bisect_left(self.starts, a),
                  bisect.bisect_right(self.starts, b))
        return sum(self.walls[lo:hi]), sum(self.cpus[lo:hi])

    def reference_s(self, a, b):
        """Workload seconds in [a, b], at the reference speed."""
        total, seg_start = 0.0, float("-inf")
        for start, wall in zip(self.starts, self.walls):
            total += max(0.0, min(b, start) - max(a, seg_start)) / wall
            seg_start = start + wall
            if seg_start >= b:
                break
        else:  # the stretch after the last chunk runs at its speed
            total += max(0.0, b - max(a, seg_start)) / self.walls[-1]
        return total * REF_CHUNK_S
