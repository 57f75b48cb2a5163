"""Measure the speed of one CPU while exea runs on it.

    python3 bench/calibrate.py CHUNKS.txt CPU

Pins itself to CPU at nice 5 and runs a fixed pure-Python chunk of work over
and over until it receives SIGTERM or its parent ends. For each chunk it
appends one line to CHUNKS.txt: the monotonic clock at the chunk's start and
end, and the CPU seconds the chunk took. The benchmark pins the exea command
it times to the same CPU, so the two share it: at nice 5 this loop gets
about a quarter of the CPU, and each chunk's CPU time follows how fast that
CPU runs at the moment (see ``speed`` in run.py).
"""

from __future__ import annotations

import os
import signal
import sys
import time

CHUNK_ITERATIONS = 25_000  # about 5 ms of CPU on a 2.0 GHz Xeon

stopping = False


def stop(*_):
    global stopping
    stopping = True


def chunk() -> int:
    total = 0
    table = {}
    for i in range(CHUNK_ITERATIONS):
        total += i * i % 7
        table[i & 1023] = total
    return total


def main(path: str, cpu: int) -> int:
    signal.signal(signal.SIGTERM, stop)
    os.sched_setaffinity(0, {cpu})
    os.nice(5)
    parent = os.getppid()
    clock, cpu_clock = time.monotonic, time.process_time
    with open(path, "w", encoding="utf-8") as fh:
        while not stopping and os.getppid() == parent:
            start, used = clock(), cpu_clock()
            chunk()
            fh.write(f"{start!r} {clock()!r} {cpu_clock() - used!r}\n")
            fh.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
