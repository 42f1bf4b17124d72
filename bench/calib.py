"""The calibration kernel: a fixed piece of pure-Python work that does not
touch polysing, timed next to what the benchmark measures.

The host this benchmark was written on switches between speed regimes about
1.9x apart that last seconds. They move polysing and the kernel alike, so a
time divided by the kernel's time around it stays when the host's speed
changes, and moves when polysing's does.
"""
import time
from fractions import Fraction


def _kernel():
    """Exact rational elimination plus tuple and dictionary work: the mix of
    interpreter operations polysing spends its time on."""
    rows = [[Fraction(3 * i + 5 * j + 1, 2 + (i * j) % 5) for j in range(5)] for i in range(4)]
    for k in range(4):
        pivot = rows[k][k]
        for i in range(4):
            if i != k:
                f = rows[i][k] / pivot
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
    seen = {}
    for i in range(40):
        seen[(i % 7, i // 7)] = tuple(range(i % 5))
    return rows, seen


def calibrate() -> int:
    """ns of the faster of two kernel runs; the faster one skips an interrupt."""
    best = None
    for _ in range(2):
        t0 = time.perf_counter_ns()
        _kernel()
        t = time.perf_counter_ns() - t0
        best = t if best is None else min(best, t)
    return best
