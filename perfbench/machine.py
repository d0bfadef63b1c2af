"""A fixed piece of work that measures how fast the machine runs right now.

The benchmark shares a 2-vCPU VM with other tenants.  The VM's speed
changes by up to 1.8x, in phases that last from about a second to minutes.
Before every CLI command the benchmark times this loop, and multiplies the
command's wall and CPU time by ``NOMINAL_S`` over the loop's time.  Each
set-up probe does the same in its own interpreter.  The loop mixes what the
program spends its time on: numpy scalar arithmetic like the python kernel
path, and text formatting and parsing like the histogram files.  It calls
nothing of the program, so a change to the program does not move it.
"""

from __future__ import annotations

import math
import time

import numpy as np

NOMINAL_S = 0.005  # about this loop's median time inside a run on the reference machine

_MULT = np.uint64(0x2545F4914F6CDD1D)
_SHIFT = np.uint64(12)


def reference_time() -> float:
    """Wall time of one pass of the fixed loop, in seconds."""
    t0 = time.perf_counter()
    x = np.uint64(88172645463325252)
    acc = 0.0
    lines = []
    with np.errstate(over="ignore"):
        for i in range(3000):
            x ^= x >> _SHIFT
            x = x * _MULT
            acc += math.log(float(x >> _SHIFT) + 1.0)
            lines.append(f"{i},{int(x) & 1023}")
    sum(int(line.split(",")[1]) for line in "\n".join(lines).split("\n"))
    return time.perf_counter() - t0
