"""Box-speed calibration kernel.

The shared 2-core box this benchmark runs on slows down and speeds up
with its neighbours' load, by up to a third within minutes. `run.py`
times this fixed kernel around every repetition and scales the
repetition's wall time by it, so that a bound on the calibrated time
tracks the program rather than the box.

The kernel is pure Python on purpose. It runs on the interpreter, which
no build of this repository changes, so neither a change to the
program nor the code layout of a rebuilt binary can move the yardstick.
It is a gshare-like loop over a 64 Ki-entry counter table.

    python3 perfbench/calibrate.py CALLS    # prints the mean seconds per call
"""

import sys
import time

ITERATIONS = 60_000  # about 0.07 s per call on the 2-core box
MASK64 = (1 << 64) - 1


def kernel():
    """Runs the kernel once; returns its wall seconds."""
    table = bytearray(1 << 16)
    history, x, wrong = 0, 0x9E3779B97F4A7C15, 0
    started = time.perf_counter()
    for _ in range(ITERATIONS):
        x ^= (x << 13) & MASK64
        x ^= x >> 7
        x ^= (x << 17) & MASK64
        index = ((x & 0xFFF) ^ history ^ (history >> 11)) & 0xFFFF
        taken = (x >> 40) & 3 != 0
        counter = table[index]
        if (counter >= 2) != taken:
            wrong += 1
        table[index] = min(counter + 1, 3) if taken else max(counter - 1, 0)
        history = ((history << 1) | taken) & 0xFFFFF
    return time.perf_counter() - started


if __name__ == "__main__":
    calls = max(1, int(sys.argv[1]) if len(sys.argv) > 1 else 1)
    print(sum(kernel() for _ in range(calls)) / calls)
