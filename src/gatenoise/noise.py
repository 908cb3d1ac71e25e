"""Stationary Gaussian noise for the Langevin ensemble.

Two sources produce the dephasing (or Rabi-rate) noise of each trajectory:

* ``OUSource``: exact Ornstein-Uhlenbeck updates, valid for any step size;
* ``PsdSource``: a random Fourier series straight from any PSD, for
  wide-sense stationary processes (``percival_trajectory``).

All generators are pure functions of their random draws; ensembles use one
counter-based stream per trajectory index so results are reproducible and
independent of evaluation order.
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


# --------------------------------------------------------------------- #
# PSD-based generation (stationary processes)

def percival_trajectory(psd, m_f, t0, tf, draws):
    """Trajectories on ``m_f`` grid points from the PSD via a random Fourier series.

    Coefficients ``A_m = sqrt(S_m / 2) (u_1 + i u_2)`` with two independent
    unit normals per sampled frequency ``f_m = (m) / (tf - t0)``, assembled
    Hermitian-symmetrically so the output is exactly real.  ``S_m`` is the
    two-sided density at ``w = 2 pi f_m``, which makes the lag-0 covariance
    of the ensemble equal the trapezoid approximation of the PSD integral.

    Parameters
    ----------
    psd : NoisePsd
    m_f : int
        Even number of grid samples (>= 4).
    t0, tf : float
        Window; the grid spacing is (tf - t0) / m_f.
    draws : ndarray, shape (..., n >= m_f + 2)
        Unit normal draws, two per frequency bin 0..m_f/2, along the last axis;
        the result has shape ``draws.shape[:-1] + (m_f,)``, row by row.
    """
    if m_f % 2 or m_f < 4:
        raise ValidationError(f"m_f must be even and >= 4, got {m_f}")
    if not tf > t0:
        raise ValidationError("need tf > t0")
    draws = np.asarray(draws, dtype=float)
    n_freq = m_f // 2 + 1
    if draws.shape[-1] < 2 * n_freq:
        raise ValidationError(f"need at least {2 * n_freq} draws, got {draws.shape[-1]}")
    span = tf - t0
    f0 = 1.0 / span
    freqs = f0 * np.arange(n_freq)
    S = np.asarray(psd.eval(2.0 * math.pi * freqs), dtype=float)
    amp = np.sqrt(0.5 * S)

    # built and transformed in place: a block costs one complex (..., m_f) array
    nu = np.zeros(draws.shape[:-1] + (m_f,), dtype=complex)
    np.multiply(amp, draws[..., 0:2 * n_freq:2], out=nu.real[..., :n_freq])
    np.multiply(amp, draws[..., 1:2 * n_freq:2], out=nu.imag[..., :n_freq])
    nu[..., [0, n_freq - 1]] = math.sqrt(2.0) * nu.real[..., [0, n_freq - 1]]
    np.conjugate(nu[..., n_freq - 2:0:-1], out=nu[..., n_freq:])

    # values[j] = sum_m nu_m exp(-2pi i m j / m_f) / sqrt(span) = FFT of nu
    values = np.divide(np.fft.fft(nu, axis=-1, out=nu), math.sqrt(span), out=nu)
    imag, real = values.imag, values.real
    if max(imag.max(), -imag.min()) > 1e-10 * max(real.max(), -real.min(), 1e-300):
        raise ValidationError("Fourier assembly lost Hermitian symmetry")
    return values.real


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
        m = len(indices)
        normals = np.empty((m, n_steps + 1))
        for row, idx in enumerate(indices):
            normals[row] = trajectory_rng(seed, idx).standard_normal(n_steps + 1)
        decay = math.exp(-dt / self.tau_c)
        sigma = math.sqrt(0.5 * self.c * self.tau_c * (1.0 - decay * decay))
        stat = math.sqrt(0.5 * self.c * self.tau_c)
        values = np.empty((m, n_steps))
        eta = stat * normals[:, 0]
        for i in range(n_steps):
            values[:, i] = eta
            eta = eta * decay + sigma * normals[:, i + 1]
        return values * dt


class PsdSource:
    """Stationary noise drawn from an arbitrary PSD via the Fourier route.

    Each trajectory is one random Fourier series over ``T = m_f * dt``
    (``n_steps`` rounded up to even), so its covariance is periodic in the
    lag.  Bin m carries ``f0 * S(2 pi m f0)``, ``f0 = 1/T``: the DC bin adds
    a random constant of variance ``f0 * S(0)`` to each trajectory, which can
    exceed the process variance for a spectrum steep below f0 (1/f, a narrow
    Lorentzian).  A block takes one PSD evaluation and one FFT.
    """

    def __init__(self, psd):
        if not isinstance(psd, NoisePsd):
            raise ValidationError("PsdSource needs a NoisePsd")
        self.psd = psd

    def increments_block(self, seed, indices, n_steps, dt):
        m_f = max(4, n_steps + (n_steps % 2))
        draws = np.stack([trajectory_rng(seed, idx).standard_normal(m_f + 2) for idx in indices])
        values = percival_trajectory(self.psd, m_f, 0.0, m_f * dt, draws)
        del draws   # frees m * (m_f + 2) floats before the copy below
        return values[:, :n_steps] * dt


class ZeroSource:
    """No noise at all."""

    def increments_block(self, seed, indices, n_steps, dt):
        return np.zeros((len(indices), n_steps))
