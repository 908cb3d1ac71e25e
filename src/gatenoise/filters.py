"""Filter functions and filtered integrals of a noise PSD.

A resonant Rabi drive of angular frequency ``Omega`` filters the dephasing
noise spectrum through drive-dependent spectral windows.  Overlap integrals
of those windows with the two-sided PSD give the decay exponents
``Gamma1, Gamma2``, the coherent rotation angles ``Delta1, Delta2``, and
(for amplitude noise) the extra decay ``DGamma1``:

    Gamma1(t) = Int dw S(w) F_Gamma1(w, Omega, t)     over the real line,
    Delta1(t) = Int dw S(w) F_Delta1(w, Omega, t),
    Gamma2(t) = cos(Omega t) Int dw S(w) M(w, Omega, t),
    Delta2(t) = sin(Omega t) Int dw S(w) M(w, Omega, t),
    DGamma1(t) = 2 Int dw S_amp(w) F_Gamma1(w, 0, t).

Three windows cover the tuple: the Gamma2 and Delta2 filters share the
memory window M, and the amplitude window is twice the Gamma1 window at
Omega = 0; :func:`_windows` evaluates all three from one tangent per node.
Per time point and PSD, one adaptive quadrature pass integrates S*F and
the bare F for the windows it needs (all three for the dephasing PSD, the
Gamma1 window alone for the amplitude PSD) as the rows of one buffer on
one node set, escalating the upper limit W until the tuple converges, or
straight to a table's last knot when the table rises past W again.
Beyond W the PSD is taken as the plateau S(W); its tail is the white-noise
total of F (Gamma1: t/4, Delta1: 0, M: sin(Omega t) / (4 Omega), per unit
S on [0, inf)) minus the bare integral on [0, W], so no special functions
are needed.

Everything downstream (density-matrix maps, process matrices, Pauli rates,
gate errors) is a function of this tuple alone.

Sign convention: the time-domain kernels are taken with the sign that makes
``Gamma1`` a nonnegative decay exponent, which also reproduces the closed
Ornstein-Uhlenbeck expressions in :func:`ou_filtered_integrals` and the
Monte Carlo decay of the Langevin simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quadrature import adaptive_gk, sorted_unique
from .errors import NumericalError, ValidationError

_PI = math.pi
_TINY = np.finfo(float).tiny


# --------------------------------------------------------------------- #
# filter-function windows

# 2 g(2x) = (sin x cos x - x) / x^2 = x sum_k (-4)^k x^(2k-2) / (2k+1)!,
# k = 1..8, for g(u) = (sin u - u) / u^2, leading coefficient first for
# Horner; below |x| = 1/2 the first dropped term is under 1e-16 of the sum.
_SIN_MINUS_LIN = tuple((-4.0) ** k / math.factorial(2 * k + 1) for k in range(8, 0, -1))


def _sin_minus_lin(x, sin_cos):
    """2 g(2x) = (sin x cos x - x) / x**2 from x and sin x cos x, where
    g(u) = (sin u - u) / u**2; by its Taylor series below |x| = 1/2.

    The direct quotient loses ~1e-16 / x**2 of itself to the cancellation in
    sin x cos x - x, so the series takes over before that passes 1e-15.
    """
    out = np.empty_like(x)
    small = np.abs(x) < 0.5
    np.divide(sin_cos - x, x * x, out=out, where=~small)
    xs = x[small]
    z = xs * xs
    p = _SIN_MINUS_LIN[0]
    for c in _SIN_MINUS_LIN[1:]:
        p = p * z + c
    out[small] = xs * p
    return out


def _sin_cos(x, sin, cos):
    """sin x and cos x into ``sin`` and ``cos``, each within a few ulps, from
    tau = tan(x/2) as tau r and r - 1 with r = 2 / (1 + tau^2).

    numpy vectorizes float64 tan on x86 where it does not vectorize sin and
    cos, so this costs about a third of np.sin plus np.cos there.
    """
    tau = np.tan(0.5 * x)
    r = 2.0 / (1.0 + tau * tau)
    np.multiply(tau, r, out=sin)
    np.subtract(r, 1.0, out=cos)


def _windows(omega, Omega, t, n, out=None):
    """The first ``n`` of the windows (F_Gamma1, F_Delta1, M) at the 1d
    ``omega``, as rows.

    With x = (|w| - |Omega|) t / 2, y = x + |Omega| t, a = sin x / x and
    b = sin y / y (1 at a zero):

        F_Gamma1 = (t^2 / 8 pi) (a^2 + b^2),
        F_Delta1 = (t^2 / 4 pi) (g(2x) - g(2y)) sign(Omega),
        M        = (t^2 / 4 pi) a b,

    with g(u) = (sin u - u) / u^2 (Green et al., New J. Phys. 15, 095004,
    2013).  F_Gamma1 is a nascent delta at w = +-Omega as t grows, F_Delta1
    the dispersive window Omega t / (2 pi (Omega^2 - w^2)) plus its
    finite-time correction, and M = (cos Omega t - cos w t) /
    (2 pi (w^2 - Omega^2)).  One sine and cosine of x per node give
    everything: those of y by angle addition with the scalar phase
    |Omega| t, and sin 2x as 2 sin x cos x.  Every window is even in w and
    vanishes at t = 0.  ``out``, if given, receives the (n, N) rows.
    """
    w = np.abs(omega)
    rabi = abs(Omega)
    phi = rabi * t
    cos_phi, sin_phi = math.cos(phi), math.sin(phi)
    # x and y as the rows of xy, and their sines and cosines
    xy = np.empty((2,) + w.shape)
    np.multiply(w - rabi, 0.5 * t, out=xy[0])
    np.add(xy[0], phi, out=xy[1])
    sin, cos = np.empty_like(xy), np.empty_like(xy)
    _sin_cos(xy[0], sin[0], cos[0])
    np.add(sin[0] * cos_phi, cos[0] * sin_phi, out=sin[1])
    a, b = np.divide(sin, xy, out=np.ones_like(xy), where=xy != 0.0)
    k = t * t / (4.0 * _PI)
    if out is None:
        out = np.empty((n,) + w.shape)
    np.multiply(a, a, out=out[0])
    out[0] += b * b
    out[0] *= 0.5 * k
    if n > 1:
        np.subtract(cos[0] * cos_phi, sin[0] * sin_phi, out=cos[1])
        g = _sin_minus_lin(xy, sin * cos)
        np.subtract(g[0], g[1], out=out[1])
        out[1] *= 0.5 * k if Omega >= 0 else -0.5 * k
    if n > 2:
        np.multiply(a, b, out=out[2])
        out[2] *= k
    return out


def _white_totals(Omega, t):
    """Int_0^inf of each window: a white two-sided PSD S0 gives 2 S0 times these."""
    phi = Omega * t
    return np.array([0.25 * t, 0.0, 0.25 * t * (math.sin(phi) / phi if phi else 1.0)])


# --------------------------------------------------------------------- #
# filtered integrals

@dataclass
class FilteredIntegrals:
    """The tuple {Gamma1, Gamma2, Delta1, Delta2, DGamma1} on a time grid.

    ``dgamma1`` is zeros when there is no amplitude noise.
    """

    times: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray
    delta1: np.ndarray
    delta2: np.ndarray
    dgamma1: np.ndarray | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.dgamma1 is None:
            self.dgamma1 = np.zeros_like(self.times)
        for name in ("gamma1", "gamma2", "delta1", "delta2", "dgamma1"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != self.times.shape:
                raise ValidationError(f"{name} shape does not match the time grid")
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} contains non-finite values")
            setattr(self, name, arr)
        if np.any(self.gamma1 < -1e-10 * max(1.0, np.abs(self.gamma1).max())):
            raise ValidationError("Gamma1 must be nonnegative for a decay exponent")
        # a rounding-level negative is a zero decay: every builder may rely on Gamma1 >= 0
        self.gamma1 = np.where(self.gamma1 < 0.0, 0.0, self.gamma1)

    def at(self, i):
        """The snapshot at grid index ``i``: the grid's checked fields as 0-d views."""
        point = object.__new__(FilteredIntegrals)
        point.__dict__.update({name: arr[i, ...] for name, arr in vars(self).items()})
        return point


def _overlap_edges(psd, Omega, t, lo_edge, W):
    marks = np.array([0.5 * Omega, Omega, 1.5 * Omega, 2.0 * Omega])
    # the sorted knots strictly inside (lo_edge, W), as a view
    knots = psd.breakpoints()
    knots = knots[np.searchsorted(knots, lo_edge, "right"):np.searchsorted(knots, W)]
    edges = sorted_unique(np.concatenate([[lo_edge, W], marks[(marks > lo_edge) & (marks < W)],
                                          knots]))
    if t <= 0:
        return edges
    # keep at most ~1.5 filter oscillations per starting panel
    width = 3.0 * _PI / t
    if (W - lo_edge) / width > 3000:
        width = (W - lo_edge) / 3000
    # n equal panels per interval, nodes as np.linspace(lo, hi, n + 1)[1:] builds them
    span = np.diff(edges)
    n = np.ceil(span / width).astype(int)
    ends = np.cumsum(n)
    k = np.arange(1, ends[-1] + 1) - np.repeat(ends - n, n)
    nodes = np.repeat(edges[:-1], n) + k * np.repeat(span / n, n)
    nodes[ends - 1] = edges[1:]
    return np.concatenate([edges[:1], nodes])


def _overlap(psd, Omega, t, rtol, n):
    """2 * Int_0^inf S * F dw for the first ``n`` windows of (F_Gamma1,
    F_Delta1, M), escalating W to converge.

    Each window integrates S*F and the bare F on [0, W] as rows of one
    quadrature; beyond W the PSD is the plateau S(W), whose tail is the white
    total of F minus the bare part.  Two agreeing passes stop the escalation
    unless a knot past W, or the high plateau, exceeds 2 S(W).
    """
    if t == 0.0:
        return np.zeros(n)
    white = _white_totals(Omega, t)[:n]

    def rows(w):
        f = np.empty((2 * n, w.size))
        _windows(w, Omega, t, n, out=f[n:])
        np.multiply(f[n:], psd.eval(w), out=f[:n])
        return f

    # Start where the filters carry their mass; the escalation below extends
    # the window over any remaining PSD structure.
    base = max(Omega, 20.0 / t)
    if psd.kind == "ou":
        base = max(base, 1.0 / psd.tau_c)
    W = 6.0 * base
    inner = np.zeros(2 * n)
    abs_scale = np.zeros(n)
    lo = 0.0
    prev = None
    for _ in range(8):
        table_done = psd.kind == "tabulated" and W >= psd.support_scale()
        plateau = psd.high_plateau if table_done else float(psd.eval(W))
        # the bare rows count only times the plateau: their absolute target is
        # the S*F rows' target divided by it
        part, _err, abs_part = adaptive_gk(
            rows, lo, W,
            rtol=rtol, atol=rtol * np.concatenate([abs_scale, abs_scale / max(plateau, _TINY)]),
            points=_overlap_edges(psd, Omega, t, lo, W)[1:-1],
        )
        inner += part
        abs_scale = np.maximum(abs_scale, abs_part[:n])
        total = 2.0 * (inner[:n] + plateau * (white - inner[n:]))
        # A x3 window escalation shrinks the residual of an w^-2 spectrum by
        # ~x27, so a small step-to-step change bounds the remaining error ...
        converged = prev is not None and np.all(
            np.abs(total - prev) <= rtol * 100 * np.maximum(np.abs(total), abs_scale))
        # ... unless the table rises past W, where the tail is not S(W): then
        # the next pass runs to its last knot, past which the plateau is exact
        rising = converged and psd.kind == "tabulated" and max(
            psd.high_plateau, psd.densities[psd.omegas > W].max(initial=0.0)) > 2.0 * plateau
        if table_done or converged and not rising:
            return total
        prev = total
        lo, W = W, psd.support_scale() if rising else 3.0 * W
    raise NumericalError(
        f"filtered integrals did not converge (Omega={Omega}, t={t}, W={W})"
    )


def filtered_integrals(psd, Omega, times, amp_psd=None, *, rtol=1e-8):
    """Compute the filtered-integral tuple from PSDs by adaptive quadrature.

    Parameters
    ----------
    psd : NoisePsd
        Dephasing (frequency) noise PSD, two-sided in rad/s.
    Omega : float or array_like
        Rabi frequency in rad/s, one for all times or one per time.
    times : array_like
        Finite nonnegative evaluation times in seconds, a scalar or 1d.
    amp_psd : NoisePsd, optional
        Rabi-rate (amplitude) noise PSD; fills ``dgamma1`` when given, which
        is zeros otherwise.
    rtol : float
        Relative quadrature tolerance per integral.
    """
    times = np.asarray(times, dtype=float)
    Omega = np.asarray(Omega, dtype=float)
    if times.ndim > 1:
        raise ValidationError("times must be a scalar or a 1d array")
    if not (np.isfinite(times).all() and np.isfinite(Omega).all()):
        raise ValidationError("times and Omega must be finite")
    times = np.atleast_1d(times)
    if np.any(times < 0):
        raise ValidationError("times must be nonnegative")
    Omega = np.broadcast_to(Omega, times.shape)
    g1, d1, mem = np.array([_overlap(psd, om, t, rtol, 3)
                            for om, t in zip(Omega, times)]).reshape(-1, 3).T
    dg = None
    if amp_psd is not None:
        # the amplitude window is twice the Gamma1 window at Omega = 0
        dg = np.array([2.0 * _overlap(amp_psd, 0.0, t, rtol, 1)[0] for t in times])
    return FilteredIntegrals(times, g1, np.cos(Omega * times) * mem,
                             d1, np.sin(Omega * times) * mem, dg)


# --------------------------------------------------------------------- #
# closed forms for Ornstein-Uhlenbeck noise (built-in oracle)

def ou_filtered_integrals(c, tau_c, Omega, times):
    """Exact filtered integrals for the Lorentzian OU spectrum.

    Obtained by integrating the OU autocovariance against the drive kernels
    in closed form; used as the reference for the quadrature routes.
    ``Omega`` may be an array aligned with ``times``.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    a = Omega * tau_c
    D = 1.0 + a * a
    S = c * tau_c**2 / D
    E = np.exp(-times / tau_c)
    sin_ot = np.sin(Omega * times)
    cos_ot = np.cos(Omega * times)
    g1 = 0.5 * S * (
        times
        - tau_c * (2.0 * a / D) * E * sin_ot
        - tau_c * ((1.0 - a * a) / D) * (1.0 - E * cos_ot)
    )
    g2 = 0.5 * S * cos_ot * (sin_ot / Omega - tau_c * cos_ot + tau_c * E)
    d1 = 0.5 * S * (
        times * a
        + tau_c * ((1.0 - a * a) / D) * E * sin_ot
        - tau_c * (2.0 * a / D) * (1.0 - E * cos_ot)
    )
    d2 = 0.5 * S * (
        sin_ot**2 / Omega - 0.5 * tau_c * np.sin(2.0 * Omega * times) + tau_c * E * sin_ot
    )
    return FilteredIntegrals(times, g1, g2, d1, d2)


def ou_amplitude_integral(c, tau_c, times):
    """Exact DGamma1(t) for OU Rabi-rate noise: c tau^2 (t - tau (1 - e^{-t/tau})).

    Twice Gamma1 at Omega = 0, written without the sin(Omega t) / Omega
    terms of :func:`ou_filtered_integrals`.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    return c * tau_c**2 * (times + tau_c * np.expm1(-times / tau_c))
