"""Machine-speed probe that puts the benchmark's times on one scale.

On a shared virtual machine the CPU's speed moves in phases lasting seconds
(a fixed loop's time swings by 20-30%, CPU time with it), so two runs of the
same code can differ more than any bound worth having.  The probe is a fixed
loop of the kinds of work the program does -- Python-level loops over small
complex matrices and vectorised numpy over a large array -- timed just before
and just after each timed step.  A step's reported time is its wall time
scaled by ``REF_PROBE_S / probe``: seconds at the speed at which one probe
takes ``REF_PROBE_S``.  A change to the program moves the step and not the
probe, so it moves the reported time; a phase of the machine moves both.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_PROBE_S = 0.010   # probe median measured on the reference machine (provenance.json)

_rng = np.random.default_rng(20240222)
_SMALL = [_rng.standard_normal((2, 2)) + 1j * _rng.standard_normal((2, 2)) for _ in range(8)]
_BIG = _rng.standard_normal((44, 2048))


def _probe_once():
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(300):
        m = _SMALL[i % 8] @ _SMALL[(i + 3) % 8]
        acc += float(np.real(np.trace(m.conj().T @ m)))
    x = _BIG
    for _ in range(4):
        x = np.exp(-np.abs(x)) * np.cos(x) + 0.5 * x
    acc += float(x.sum())
    return time.perf_counter() - t0


def probe():
    """Median of three passes of the fixed loop, in seconds."""
    return statistics.median(_probe_once() for _ in range(3))


def scale(before, after):
    """Factor that turns a wall time measured between two probes into reference seconds."""
    return REF_PROBE_S / (0.5 * (before + after))
