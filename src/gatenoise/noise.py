"""Stationary Gaussian noise for the Langevin ensemble.

Two sources produce the dephasing (or Rabi-rate) noise of each trajectory:

* ``OUSource``: exact Ornstein-Uhlenbeck updates, valid for any step size;
* ``PsdSource``: a random Fourier series straight from any PSD, for
  wide-sense stationary processes (``percival_trajectory``).

The contract of a source: ``increments_block(seed, indices, n_steps, dt)``
returns the per-step noise integrals as a C-contiguous ``(n_steps, m)``
block, time-major; column ``j`` depends only on the stream
``trajectory_rng(seed, indices[j])``, so results are reproducible and
independent of chunking and evaluation order.
"""

from __future__ import annotations

import math

import numpy as np
import numpy.fft  # noqa: F401  loaded with the module: numpy 2 defers it to first use
import numpy.random  # noqa: F401

from .errors import ValidationError
from .psd import NoisePsd


def trajectory_rng(seed, index):
    """Independent counter-based generator for one trajectory index."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, index))))


def _stream_normals(seed, indices, k):
    """(k, m) unit normals, column j from trajectory ``indices[j]``'s stream.
    Streams fill a (tile, k) buffer copied in transposed, far faster than one
    strided column write per stream."""
    m, tile = len(indices), 64
    out = np.empty((k, m))
    buf = np.empty((min(tile, m), k))
    for lo in range(0, m, tile):
        rows = buf[:min(tile, m - lo)]
        for row, idx in zip(rows, indices[lo:lo + tile]):
            trajectory_rng(seed, idx).standard_normal(k, out=row)
        out[:, lo:lo + len(rows)] = rows.T
    return out


# --------------------------------------------------------------------- #
# PSD-based generation (stationary processes)

def percival_trajectory(psd, m_f, span, draws):
    """Trajectories on ``m_f`` grid points from the PSD via a random Fourier series.

    Coefficients ``A_m = sqrt(S_m / 2) (u_1 + i u_2)``, two unit normals per
    frequency ``f_m = m / span`` (real ``sqrt(S_m) u_1`` at DC and Nyquist),
    summed by one inverse real FFT, so the output is real by construction.
    ``S_m`` is the two-sided density at ``w = 2 pi f_m``, which makes the lag-0
    covariance of the ensemble the trapezoid approximation of the PSD integral.

    Parameters
    ----------
    psd : NoisePsd
    m_f : int
        Even number of grid samples (>= 4).
    span : float
        Window length; the grid spacing is span / m_f.
    draws : ndarray, shape (n >= m_f + 2, ...)
        Unit normals, two per frequency bin 0..m_f/2, along the first axis;
        the result has shape ``(m_f,) + draws.shape[1:]``, column by column.
    """
    if m_f % 2 or m_f < 4:
        raise ValidationError(f"m_f must be even and >= 4, got {m_f}")
    if not span > 0:
        raise ValidationError("need span > 0")
    draws = np.asarray(draws, dtype=float)
    n_freq = m_f // 2 + 1
    if draws.shape[0] < 2 * n_freq:
        raise ValidationError(f"need at least {2 * n_freq} draws, got {draws.shape[0]}")
    f0 = 1.0 / span
    S = np.asarray(psd.eval(2.0 * math.pi * (f0 * np.arange(n_freq))), dtype=float)
    amp = np.sqrt(0.5 * f0 * S).reshape((n_freq,) + (1,) * (draws.ndim - 1))

    # sum of A_m exp(-2 pi i m j / m_f) over +-m = unnormalized irfft of conj(A)
    half = np.empty((n_freq,) + draws.shape[1:], dtype=complex)
    np.multiply(amp, draws[0:2 * n_freq:2], out=half.real)
    np.multiply(-amp, draws[1:2 * n_freq:2], out=half.imag)
    half[[0, -1]] = math.sqrt(2.0) * half.real[[0, -1]]
    return np.fft.irfft(half, m_f, axis=0, norm="forward")


# --------------------------------------------------------------------- #
# noise sources for the Langevin integrator

class OUSource:
    """OU dephasing/amplitude noise with exact per-step updates.

    Produces integrated increments ``dt * eta(t_i)`` (accurate to O(dt^2)
    within the integrator); the initial value is drawn from the stationary
    distribution.
    """

    def __init__(self, c, tau_c):
        if c < 0 or tau_c <= 0:
            raise ValidationError("need c >= 0 and tau_c > 0")
        self.c = float(c)
        self.tau_c = float(tau_c)

    def increments_block(self, seed, indices, n_steps, dt):
        decay = math.exp(-dt / self.tau_c)
        sigma = math.sqrt(0.5 * self.c * self.tau_c * (1.0 - decay * decay))
        eta = _stream_normals(seed, indices, n_steps)
        eta[0] *= math.sqrt(0.5 * self.c * self.tau_c)
        eta[1:] *= sigma
        tmp = np.empty(eta.shape[1])
        for i in range(1, n_steps):
            eta[i] += np.multiply(eta[i - 1], decay, out=tmp)
        eta *= dt
        return eta


class PsdSource:
    """Stationary noise drawn from an arbitrary PSD via the Fourier route.

    Each trajectory is one random Fourier series over ``T = m_f * dt``
    (``n_steps`` rounded up to even), so its covariance is periodic in the
    lag.  Bin m carries ``f0 * S(2 pi m f0)``, ``f0 = 1/T``: the DC bin adds
    a random constant of variance ``f0 * S(0)`` to each trajectory, which can
    exceed the process variance for a spectrum steep below f0 (1/f, a narrow
    Lorentzian).  A block takes one PSD evaluation and one inverse real FFT.
    """

    def __init__(self, psd):
        if not isinstance(psd, NoisePsd):
            raise ValidationError("PsdSource needs a NoisePsd")
        self.psd = psd

    def increments_block(self, seed, indices, n_steps, dt):
        m_f = max(4, n_steps + (n_steps % 2))
        values = percival_trajectory(self.psd, m_f, m_f * dt,
                                     _stream_normals(seed, indices, m_f + 2))[:n_steps]
        values *= dt
        return values
