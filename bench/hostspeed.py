"""How fast the host runs right now, from a fixed mix of work that touches
no hyqmom code.

On a small shared machine the CPU's speed drifts: on the 2-vCPU x86-64 VM
(OpenBLAS Haswell kernels) the benchmark was defined on, a job's wall and
CPU time both swing by 30-40% over stretches of 10-60 s, as other tenants
load the physical cores.  A medians-only benchmark there reads differently
from one set of runs to the next.  The mix below times four kinds of work
hyqmom does: an interpreter loop, numpy streaming through arrays larger
than L2, batched small LAPACK eigensolves and many numpy calls on tiny
arrays.  ``factor()`` is the median over the four of measured time divided
by the time in ``NOMINAL_S``, so it is 1.0 on a host as fast as that VM was
at its median and above 1.0 on a slower one.  Dividing a job's time by the
factor measured around it gives the job in seconds of that nominal host.

In 100-s trials of each workload, with the mean of the four in place of
the median and a 16 MB streaming array, dividing by the factor cut the
spread of the job medians of 10-s windows from 0.08-0.19 to about 0.045.
The median is used because some slow spells hit one kind of work much
harder than the others: in one set of runs the mean factor rose far more
than the times of the L2-resident jobs, and some runs' normalised medians
fell by up to 25%.
"""

import statistics
import time

import numpy as np

# Seconds each kernel took on the VM above: medians of ~780 calls in 60 s.
NOMINAL_S = {"interpreter": 0.0048, "stream": 0.0092, "lapack": 0.0068, "calls": 0.0060}

_rng = np.random.default_rng(0)
_STREAM = _rng.random((120_000, 5))  # 4.8 MB, more than L2
_BUF = np.empty_like(_STREAM)  # in-place work keeps temporaries out of peak RSS
_SYM = _rng.random((2000, 4, 4))
_SYM = _SYM + _SYM.transpose(0, 2, 1)
_TINY = _rng.random(50)


def _interpreter():
    s = 0
    for i in range(60_000):
        s += i * i
    return s


def _stream():
    for _ in range(4):
        np.multiply(_STREAM, 1.0001, out=_BUF)
        np.add(_BUF, 0.5, out=_BUF)
        np.sqrt(_BUF, out=_BUF)
    return _BUF.sum(axis=0)


def _lapack():
    return np.linalg.eigh(_SYM)


def _calls():
    for _ in range(1500):
        (_TINY * 2.0 + 1.0).sum()


_KERNELS = {"interpreter": _interpreter, "stream": _stream, "lapack": _lapack, "calls": _calls}


def factor():
    """Median over the kernels of their time now over their nominal time."""
    ratios = []
    for name, kernel in _KERNELS.items():
        t0 = time.perf_counter()
        kernel()
        ratios.append((time.perf_counter() - t0) / NOMINAL_S[name])
    return statistics.median(ratios)
