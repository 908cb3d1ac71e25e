"""Stationary Gaussian noise for the Langevin ensemble.

Two sources produce the dephasing (or Rabi-rate) noise of each trajectory:

* ``OUSource``: Ornstein-Uhlenbeck samples, exact at the step points for any
  step size; the increments are the left-point ``dt * eta(t_i)``, which put
  an error of about ``(dt / tau_c)**2 / 12`` on the decay they drive;
* ``PsdSource``: a random Fourier series straight from any PSD, for
  wide-sense stationary processes (``percival_trajectory``).

The contract of a source: ``increments_block(seed, indices, n_steps, dt)``
returns the per-step noise integrals as a C-contiguous ``(n_steps, m)``
block, time-major; column ``j`` depends only on the stream of trajectory
``indices[j]``, Philox seeded by ``SeedSequence((seed, indices[j]))``
(``trajectory_rng`` in ``tests/oracles.py`` is the definition;
``_stream_keys`` derives a block's keys in one pass), so results are
reproducible and independent of chunking and evaluation order.
``increment_autocovariance(n_steps, dt)`` returns gamma_k = Cov(inc_i,
inc_{i+k}), k < n_steps, of exactly those increments, from the generator
itself; ``evolve_ensemble`` takes its control means from it.
"""

from __future__ import annotations

import math

import numpy as np
import numpy.fft  # noqa: F401  loaded with the module: numpy 2 defers it to first use
import numpy.random  # noqa: F401

from .errors import ValidationError
from .psd import NoisePsd


# numpy's SeedSequence hash (O'Neill, PCG report HMC-CS-2014-0905): a pool of
# 4 uint32 words, mixed with these constants, hashes the entropy words
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


def _stream_keys(seed, indices):
    """(m, 2) uint64 Philox keys, row j ``SeedSequence((seed, indices[j]))
    .generate_state(2, np.uint64)``: the seed_seq hash on uint32 arrays over
    every index at once.  Entropy words are the seed's 32-bit words, then the
    index (one word in [0, 2**32)); past 4 words they join in the final loop."""
    try:
        idx = np.asarray(indices, dtype=np.int64)
        ok = isinstance(seed, (int, np.integer)) and seed >= 0 and np.all(idx >= 0)
    except OverflowError:
        ok = False
    if not (ok and np.all(idx <= _MASK)):
        raise ValidationError(f"need an integer seed >= 0 and indices in [0, 2**32), got {seed!r}")
    seed, h = int(seed), _INIT_A
    words = [np.full(idx.size, seed >> s & _MASK, np.uint32)
             for s in range(0, max(seed.bit_length(), 1), 32)] + [idx.astype(np.uint32)]
    words += [np.zeros(idx.size, np.uint32)] * (4 - len(words))

    def hashmix(value, mult=_MULT_A):
        nonlocal h
        value = value ^ h
        h = h * mult & _MASK
        value *= h
        return value ^ value >> 16

    pool = [hashmix(w) for w in words[:4]]
    for src in range(len(words)):
        for dst in range(4):
            if dst != src:
                x = pool[dst] * _MIX_L - hashmix(pool[src] if src < 4 else words[src]) * _MIX_R
                pool[dst] = x ^ x >> 16
    h = _INIT_B
    return np.stack([hashmix(w, _MULT_B) for w in pool], axis=1).astype("<u4").view("<u8")


def _stream_normals(seed, indices, k):
    """(k, m) unit normals, column j from trajectory ``indices[j]``'s stream.
    One Philox per call (chunks run on threads) is reset to each stream's key
    with its counter at 0 and an empty buffer.  Streams fill a (tile, k)
    buffer copied in transposed, far faster than one strided column write
    per stream."""
    keys = _stream_keys(seed, indices)
    m, tile = len(keys), 64
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state    # counter 0, empty buffer, has_uint32 and uinteger 0
    out = np.empty((k, m))
    buf = np.empty((min(tile, m), k))
    for lo in range(0, m, tile):
        rows = buf[:min(tile, m - lo)]
        for row, key in zip(rows, keys[lo:lo + tile]):
            state["state"]["key"] = key
            bitgen.state = state
            gen.standard_normal(k, out=row)
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
    """OU dephasing/amplitude noise sampled exactly at the step points.

    Produces left-point increments ``dt * eta(t_i)``, the initial value drawn
    from the stationary distribution.  Summed over all lags their covariances
    are ``2 C(0) tau_c dt (1 + x**2 / 12)``, x = dt / tau_c, against exactly
    ``2 C(0) tau_c dt`` for the integrals of eta over the steps, so the
    decay they drive is off by about x**2 / 12.
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

    def increment_autocovariance(self, n_steps, dt):
        return dt * dt * 0.5 * self.c * self.tau_c * np.exp(-(dt / self.tau_c) * np.arange(n_steps))


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

    @staticmethod
    def _bins(n_steps):
        # grid points of the series; the increments and their covariance share it
        return max(4, n_steps + (n_steps % 2))

    def increments_block(self, seed, indices, n_steps, dt):
        m_f = self._bins(n_steps)
        values = percival_trajectory(self.psd, m_f, m_f * dt,
                                     _stream_normals(seed, indices, m_f + 2))[:n_steps]
        values *= dt
        return values

    def increment_autocovariance(self, n_steps, dt):
        # the periodic covariance of the series' own bins, sum_m f0 S_m cos(2 pi m k / m_f)
        m_f = self._bins(n_steps)
        f0 = 1.0 / (m_f * dt)
        S = np.asarray(self.psd.eval(2.0 * math.pi * f0 * np.arange(m_f // 2 + 1)), dtype=float)
        return dt * dt * np.fft.irfft(f0 * S, m_f, norm="forward")[:n_steps]
