"""Vectorized adaptive Gauss-Kronrod quadrature.

Panel-based G7/K15 rule that evaluates the integrand on whole node arrays at
once, which is much faster than scalar adaptive quadrature when the integrand
is numpy-vectorized.  The error estimate per panel is |K15 - G7|; panels with
the largest errors are bisected until the global tolerance is met.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

# hard cap on the number of panels of one adaptive_gk call
MAX_PANELS = 20000

# 15-point Kronrod nodes on [0, 1-side]; full rule is symmetric about 0.
_XGK_HALF = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.0,
    ]
)
_WGK_HALF = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
# 7-point Gauss weights, aligned with the odd Kronrod nodes.
_WG_HALF = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
    ]
)

# The full symmetric rule: 15 nodes, and the K15 and G7 weights as the
# columns of one (15, 2) matrix.
_XGK = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])
_W_KG = np.zeros((15, 2))
_W_KG[:, 0] = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
_W_KG[1:-1:2, 1] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])


def sorted_unique(x):
    """``np.unique`` of a NaN-free 1d array, without numpy 2's lazy numpy.ma import."""
    x = np.sort(x)
    return x[np.concatenate([[True], x[1:] != x[:-1]])]


def _panel_sums(f, lo, hi):
    """K15 and G7 estimates, shape (..., npanels), for panels [lo_i, hi_i]."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    # nodes shape (npanels, 15)
    x = mid[:, None] + half[:, None] * _XGK[None, :]
    fx = np.asarray(f(x.ravel()))
    kg = fx.reshape(fx.shape[:-1] + x.shape) @ _W_KG
    return half * kg[..., 0], half * kg[..., 1]


def adaptive_gk(f, a, b, *, rtol=1e-10, atol=0.0, points=None):
    """Integrate vectorized ``f`` over [a, b], one row or a stack of rows.

    Parameters
    ----------
    f : callable
        Maps a 1d ndarray of n abscissae to integrand values of shape (n,),
        or (k, n) for k integrands sharing one node set: each node is
        evaluated once for all rows.
    points : sequence, optional
        Interior breakpoints used for the initial subdivision (singular or
        oscillation-scale markers).
    rtol, atol : float or (k,) array
        Per-row error targets; iteration stops when every row's summed
        K15-G7 error estimate is below ``max(atol, rtol * abs_total)``.  A
        panel is bisected when any row's error on it exceeds that row's
        share of its tolerance.  Bisection stops at ``MAX_PANELS`` panels.

    Returns
    -------
    total : float or (k,) array
    err : float or (k,) array
        Final error estimate per row.
    abs_total : float or (k,) array
        Sum of panel magnitudes; tolerances are taken relative to this so
        that integrals oscillating to a small net value still converge.
    """
    if not b > a:
        raise NumericalError(f"empty integration interval [{a}, {b}]")
    edges = np.array([a, b], dtype=float)
    if points is not None:
        points = np.asarray(points, dtype=float)
        edges = np.concatenate([edges, points[(points > a) & (points < b)]])
    edges = sorted_unique(edges)
    lo = edges[:-1]
    hi = edges[1:]
    k15, g7 = _panel_sums(f, lo, hi)
    err = np.abs(k15 - g7)

    for _ in range(64):
        abs_total = np.abs(k15).sum(axis=-1)
        tol = np.maximum(atol, rtol * abs_total)
        if np.all(err.sum(axis=-1) <= tol):
            return k15.sum(axis=-1), err.sum(axis=-1), abs_total
        if lo.size >= MAX_PANELS:
            break
        # Split every panel on which some row's error exceeds its fair share
        # of that row's budget.
        share = err / np.maximum(tol, np.finfo(float).tiny)[..., None]
        share = share.reshape(-1, lo.size).max(axis=0)
        bad = share > 1.0 / lo.size
        if not bad.any():
            bad[np.argmax(share)] = True
        mids = 0.5 * (lo[bad] + hi[bad])
        new_lo = np.concatenate([lo[~bad], lo[bad], mids])
        new_hi = np.concatenate([hi[~bad], mids, hi[bad]])
        k15b, g7b = _panel_sums(f, np.concatenate([lo[bad], mids]),
                                np.concatenate([mids, hi[bad]]))
        lo, hi = new_lo, new_hi
        k15 = np.concatenate([k15[..., ~bad], k15b], axis=-1)
        g7 = np.concatenate([g7[..., ~bad], g7b], axis=-1)
        err = np.abs(k15 - g7)

    total = k15.sum(axis=-1)
    abs_total = np.abs(k15).sum(axis=-1)
    if np.any(err.sum(axis=-1) > np.maximum(atol, rtol * abs_total) * 10):
        raise NumericalError(
            "adaptive quadrature did not converge: "
            f"estimate={total}, error={err.sum(axis=-1)}, panels={lo.size}"
        )
    return total, err.sum(axis=-1), abs_total


def cumulative_trapezoid(y, h):
    """Running trapezoid integral of samples ``y`` on a grid of step ``h``, from 0."""
    return np.concatenate([[0.0], np.cumsum(0.5 * h * (y[:-1] + y[1:]))])


def cumulative_simpson(y, h):
    """Running Simpson integral of samples ``y`` on a grid of step ``h``, from 0:
    scipy's scheme, h/12 (5 f_i + 8 f_i+1 - f_i+2) on even intervals i, the
    mirror formula on odd ones and the last, the trapezoid below 3 points."""
    y = np.asarray(y, dtype=float)
    if y.size < 3:
        return cumulative_trapezoid(y, h)
    f0, f1, f2 = y[:-2:2], y[1:-1:2], y[2::2]
    parts = np.empty(y.size - 1)
    parts[:-1:2] = 5.0 * f0 + 8.0 * f1 - f2
    parts[1::2] = -f0 + 8.0 * f1 + 5.0 * f2
    parts[-1] = -y[-3] + 8.0 * y[-2] + 5.0 * y[-1]
    return np.concatenate([[0.0], np.cumsum(parts * (h / 12.0))])
