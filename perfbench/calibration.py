"""Host-speed calibration: a fixed kernel timed around every op.

The benchmark runs on a few cores of a shared host, whose speed drifts by
±25 % over tens of seconds to minutes as other tenants come and go.  A run
of 30 s cannot average that out, so raw op times of the same code spread
past any useful bound from one run to the next.  The gated op metric is
therefore the op's wall time divided by the wall time of this kernel,
timed just before and just after the op (their mean): host drift slows
both alike and cancels, while a change to qmemread moves only the op.

The kernel shares no code with qmemread.  Its four parts mirror the kinds
of work the workloads do, because the host's neighbours slow some kinds
more than others: interpreted Python (dicts, strings, calls), many numpy
calls on small arrays (the fit and sweep inner loops), complex exponentials
on mid-size arrays (the P_c integrands) and passes over arrays larger than
the L2 cache (log synthesis and ingest).  One pass takes about 45 ms on a
2-vCPU Xeon VM.
"""

from __future__ import annotations

import time

import numpy as np

PY_ITERS = 30_000
SMALL_CALLS = 2_000
COMPLEX_CALLS = 60
BIG_PASSES = 4

_SMALL = np.linspace(0.0, 1.0, 64)
_MID = np.linspace(0.0, 1.0, 4096)
_MID_OUT = np.empty(_MID.size, dtype=complex)
_BIG = np.random.default_rng(0).random(1 << 20)     # 8 MB
_BIG_OUT = np.empty_like(_BIG)


def _python():
    counts, total = {}, 0
    for i in range(PY_ITERS):
        key = i % 97
        counts[key] = counts.get(key, 0) + i
        total += len(str(i))
    return total


def _small_numpy():
    total = 0.0
    for i in range(SMALL_CALLS):
        b = np.exp(-_SMALL * (i * 1e-3))
        total += float(np.sum(b * b))
    return total


def _complex_numpy():
    total = 0.0
    for i in range(COMPLEX_CALLS):
        np.exp(1j * (_MID * (i + 1.0)), out=_MID_OUT)
        total += abs(complex(_MID_OUT.sum()))
    return total


def _big_numpy():
    total = 0.0
    for i in range(BIG_PASSES):
        np.multiply(_BIG, 1.0001, out=_BIG_OUT)
        np.add(_BIG_OUT, i, out=_BIG_OUT)
        np.sqrt(_BIG_OUT, out=_BIG_OUT)
        total += float(_BIG_OUT.sum())
    return total


def calibrate(passes: int = 1) -> float:
    """Mean wall seconds of one pass of the kernel over ``passes`` passes."""
    t0 = time.perf_counter()
    for _ in range(passes):
        _python()
        _small_numpy()
        _complex_numpy()
        _big_numpy()
    return (time.perf_counter() - t0) / passes
