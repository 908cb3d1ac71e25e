import math

import numpy as np
import pytest
import scipy.integrate as si

from gatenoise._quadrature import (
    adaptive_gk,
    cumulative_simpson,
    cumulative_trapezoid,
    sorted_unique,
)
from gatenoise.filters import (
    _overlap_edges,
    _sin_cos,
    _sin_minus_lin,
    _white_totals,
    _windows,
    filtered_integrals,
    ou_amplitude_integral,
    ou_filtered_integrals,
    FilteredIntegrals,
)
from gatenoise.errors import ValidationError
from gatenoise.psd import NoisePsd
import gatenoise.filters as filters
import oracles
from oracles import filter_tail_sici, filtered_integrals_timedomain, ou_kernels


# --------------------------------------------------------------------- #
# filter functions: the rows of ``_windows``

def _row(k):
    return lambda w, Omega, t: _windows(np.atleast_1d(np.asarray(w, dtype=float)), Omega, t, 3)[k]


filter_gamma1, filter_delta1, filter_memory = _row(0), _row(1), _row(2)


def test_gamma1_filter_normalization():
    # integral over the real line is t/2 for any Omega, t
    for Omega, t in [(1.0, 3.0), (5.0, 0.4), (0.3, 20.0)]:
        X = 20.0 * Omega + 2000.0 / t
        val, _ = si.quad(lambda w: filter_gamma1(np.atleast_1d(w), Omega, t)[0],
                         0.0, X, limit=4000, points=[Omega, 2 * Omega])
        total = 2.0 * (val + filter_tail_sici("gamma1", X, Omega, t))
        assert total == pytest.approx(0.5 * t, rel=1e-6)


def test_gamma1_filter_on_resonance_value():
    Omega, t = 2.0, 1.3
    eta_2om = (2.0 / (math.pi * t * (2 * Omega) ** 2)) * math.sin(Omega * t) ** 2
    want = 0.25 * t * (t / (2.0 * math.pi) + eta_2om)
    got = filter_gamma1(np.array([Omega]), Omega, t)[0]
    assert got == pytest.approx(want, rel=1e-12)


def test_gamma1_filter_concentrates_at_rabi_frequency():
    Omega = 1.0
    t = 9.5 * math.pi / Omega
    peak = filter_gamma1(np.array([Omega]), Omega, t)[0]
    dc = filter_gamma1(np.array([0.0]), Omega, t)[0]
    assert dc < 0.05 * peak


def test_delta1_filter_finite_at_zero_and_on_resonance():
    Omega, t = 1.7, 4.2
    f0 = filter_delta1(np.array([0.0]), Omega, t)[0]
    want0 = t / (2 * math.pi * Omega) - math.sin(Omega * t) / (2 * math.pi * Omega**2)
    assert f0 == pytest.approx(want0, rel=1e-10)
    fres = filter_delta1(np.array([Omega]), Omega, t)[0]
    want_res = t / (8 * math.pi * Omega) - math.sin(2 * Omega * t) / (16 * math.pi * Omega**2)
    assert fres == pytest.approx(want_res, rel=1e-8)


def test_delta1_long_time_crosses_zero_at_resonance():
    # dispersive shape: the value right at +-Omega is small compared to the
    # adjacent extrema for long evolution times
    Omega = 1.0
    t = 60.0 * math.pi / Omega
    grid = np.linspace(0.0, 2.0 * Omega, 4001)
    peak = np.abs(filter_delta1(grid, Omega, t)).max()
    at_res = abs(filter_delta1(np.array([Omega]), Omega, t)[0])
    assert at_res < 0.05 * peak


def test_filters_parity_even_on_random_grid():
    rng = np.random.default_rng(2)
    w = rng.uniform(-30, 30, 300)
    for f in (filter_gamma1, filter_delta1, filter_memory):
        np.testing.assert_allclose(f(w, 2.2, 1.7), f(-w, 2.2, 1.7), atol=1e-15)
    # the amplitude window is the Gamma1 window at Omega = 0
    np.testing.assert_allclose(filter_gamma1(w, 0.0, 1.7), filter_gamma1(-w, 0.0, 1.7))


def test_gamma2_vanishes_at_quarter_period():
    # Gamma2 = cos(Omega t) Int S M and Delta2 = sin(Omega t) Int S M
    Omega = 3.0
    psd = NoisePsd.ou(1.0, 0.2)
    quarter, half = 0.5 * math.pi / Omega, math.pi / Omega
    fi = filtered_integrals(psd, Omega, [quarter, half])
    assert abs(fi.gamma2[0]) <= 1e-15 * fi.gamma1[0]
    assert abs(fi.delta2[1]) <= 1e-15 * fi.gamma1[1]
    assert abs(fi.delta2[0]) > 0.1 * fi.gamma1[0]


def test_filters_zero_at_t0():
    w = np.linspace(-5, 5, 11)
    for f in (filter_gamma1, filter_delta1, filter_memory):
        np.testing.assert_array_equal(f(w, 1.0, 0.0), np.zeros_like(w))


@pytest.mark.parametrize("Omega, t", [(2.2, 1.7), (4000.0, 3e-3), (2e6, 1.6e-6), (0.0, 2.1),
                                      (-3.0, 0.9), (5.0, 1e-12), (1.3, 0.0)])
def test_windows_match_the_sinc_oracle(Omega, t):
    # the one-tangent rows against the sinc formulas, resonances and zeros included
    scale = abs(Omega) or 10.0 / t
    special = [0.0, Omega, -Omega, Omega + 1e-9, Omega - 1e-9, -Omega + 1e-9, -Omega - 1e-9]
    w = np.concatenate([np.linspace(-3.0, 3.0, 601) * scale, special])
    got = _windows(w, Omega, t, 3)
    want = oracles.windows(w, Omega, t, 3)
    for k in range(3):
        assert np.abs(got[k] - want[k]).max() <= 1e-13 * np.abs(want[k]).max(), k
    np.testing.assert_array_equal(_windows(w, Omega, t, 1), got[:1])


def test_sin_minus_lin_matches_mpmath():
    # g(u) = (sin u - u) / u^2 at u = 2x from sin x cos x, as _windows forms it
    mpmath = pytest.importorskip("mpmath")
    u = np.geomspace(1e-8, 1e3, 200)
    u = np.concatenate([-u, u])
    x, sin, cos = 0.5 * u, np.empty_like(u), np.empty_like(u)
    _sin_cos(x, sin, cos)
    got = 0.5 * _sin_minus_lin(x, sin * cos)
    with mpmath.workdps(50):
        want = np.array([float((mpmath.sin(v) - v) / v**2) for v in map(mpmath.mpf, u.tolist())])
    np.testing.assert_array_less(np.abs(got / want - 1.0), 1e-14)


def test_amplitude_filter_values():
    # F_amp(w, t) = t eta_{2/t}(w), twice the Gamma1 window at Omega = 0
    t = 2.1
    amp = lambda w: 2.0 * filter_gamma1(np.atleast_1d(w), 0.0, t)
    assert amp(0.0)[0] == pytest.approx(t * t / (2 * math.pi), rel=1e-12)
    X = 3000.0 / t
    val, _ = si.quad(lambda w: amp(w)[0], 0.0, X, limit=4000)
    assert 2.0 * (val + filter_tail_sici("amplitude", X, 0.0, t)) == pytest.approx(t, rel=1e-7)


def test_tail_formulas_match_fourier_quadrature():
    # decompose each filter into smooth + cos(wt)/sin(wt) parts and integrate
    # the oscillatory pieces with QAWF; independent check of the closed tails
    Omega, t, W = 1.3, 2.7, 9.0
    cos_o, sin_o = math.cos(Omega * t), math.sin(Omega * t)

    def inv2p(w):  # 1/u^2 + 1/v^2
        return 1.0 / (w - Omega) ** 2 + 1.0 / (w + Omega) ** 2

    def inv2m(w):  # 1/u^2 - 1/v^2
        return 1.0 / (w - Omega) ** 2 - 1.0 / (w + Omega) ** 2

    def invuv(w):
        return 1.0 / ((w - Omega) * (w + Omega))

    pi = math.pi
    cases = {
        "gamma1": (lambda w: inv2p(w) / (4 * pi),
                   lambda w: -cos_o * inv2p(w) / (4 * pi),
                   lambda w: -sin_o * inv2m(w) / (4 * pi)),
        "delta1": (lambda w: -Omega * t * invuv(w) / (2 * pi),
                   lambda w: -sin_o * inv2p(w) / (4 * pi),
                   lambda w: cos_o * inv2m(w) / (4 * pi)),
        "gamma2": (lambda w: cos_o * cos_o * invuv(w) / (2 * pi),
                   lambda w: -cos_o * invuv(w) / (2 * pi),
                   None),
        "delta2": (lambda w: sin_o * cos_o * invuv(w) / (2 * pi),
                   lambda w: -sin_o * invuv(w) / (2 * pi),
                   None),
        "amplitude": (lambda w: 1.0 / (pi * w * w),
                      lambda w: -1.0 / (pi * w * w),
                      None),
    }
    for name, (smooth, cos_part, sin_part) in cases.items():
        brute, _ = si.quad(smooth, W, np.inf, limit=400)
        part, _ = si.quad(cos_part, W, np.inf, weight="cos", wvar=t, limlst=200)
        brute += part
        if sin_part is not None:
            part, _ = si.quad(sin_part, W, np.inf, weight="sin", wvar=t, limlst=200)
            brute += part
        assert filter_tail_sici(name, W, Omega, t) == pytest.approx(brute, rel=1e-8), name


def test_white_minus_bare_tail_matches_sici_oracle():
    # the tail over [W, inf) is the white total minus the window on [0, W]
    rng = np.random.default_rng(29)
    for i in range(100):
        t = 10 ** rng.uniform(-1, 1.5)
        Omega = 0.0 if i % 5 == 0 else 10 ** rng.uniform(-1, 2)
        W = Omega + 10 ** rng.uniform(-1, 3) / t
        pts = np.concatenate([[Omega, 2 * Omega], np.arange(1, W * t / math.pi) * math.pi / t])
        bare, _, _ = adaptive_gk(lambda w: _windows(w, Omega, t, 3), 0.0, W, rtol=1e-13,
                                 points=pts)
        g1, d1, mem = _white_totals(Omega, t) - bare
        got = {"gamma1": g1, "delta1": d1}
        if Omega > 0:
            got.update(gamma2=math.cos(Omega * t) * mem, delta2=math.sin(Omega * t) * mem)
        else:
            got.update(amplitude=2.0 * g1)
        for name, value in got.items():
            want = filter_tail_sici(name, W, Omega, t)
            assert abs(value - want) <= 1e-11 * 0.25 * t, (name, Omega, t, W)


def test_adaptive_gk_rows_equal_one_row_runs():
    rows = (lambda x: np.sin(7.0 * x) * np.exp(-x),
            lambda x: 1.0 / (1.0 + x * x),
            lambda x: x**3 - np.sin(50.0 * x),
            lambda x: np.zeros_like(x))
    rtol = 1e-10
    total, err, abs_total = adaptive_gk(lambda x: np.stack([f(x) for f in rows]),
                                        0.0, 4.0, rtol=rtol, points=[1.0])
    assert total.shape == err.shape == abs_total.shape == (len(rows),)
    for k, f in enumerate(rows):
        one, _, one_abs = adaptive_gk(f, 0.0, 4.0, rtol=rtol, points=[1.0])
        assert abs(total[k] - one) <= rtol * max(abs_total[k], one_abs)
        assert err[k] <= rtol * abs_total[k]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 300, 4001])
@pytest.mark.parametrize("ours, scipys", [(cumulative_simpson, si.cumulative_simpson),
                                          (cumulative_trapezoid, si.cumulative_trapezoid)])
def test_cumulative_rules_match_scipy(n, ours, scipys):
    u = np.linspace(0.0, 1.7, n)
    y = np.exp(u) + np.cos(5.0 * u) + 0.5   # positive, so every partial sum is too
    ref = scipys(y, x=u, initial=0.0)
    np.testing.assert_allclose(ours(y, 1.7 / (n - 1)), ref, rtol=1e-13, atol=0.0)


def test_sorted_unique_matches_numpy():
    x = np.random.default_rng(3).integers(0, 40, 200) * 0.25
    np.testing.assert_array_equal(sorted_unique(x), np.unique(x))
    np.testing.assert_array_equal(sorted_unique(np.array([2.0])), [2.0])


# --------------------------------------------------------------------- #
# filtered integrals

def test_ou_closed_form_agreement_spot():
    tau, c = 1.0, 1.0
    psd = NoisePsd.ou(c, tau)
    for a, tt in [(0.5, 2.0), (3.0, 11.0), (20.0, 0.7)]:
        fi = filtered_integrals(psd, a / tau, [tt * tau])
        ref = ou_filtered_integrals(c, tau, a / tau, [tt * tau])
        for name in ("gamma1", "gamma2", "delta1", "delta2"):
            got = getattr(fi, name)[0]
            want = getattr(ref, name)[0]
            assert got == pytest.approx(want, rel=1e-6, abs=1e-8 * ref.gamma1[0])


def test_zero_psd_gives_zero_integrals():
    psd = NoisePsd.ou(0.0, 1.0)
    fi = filtered_integrals(psd, 2.0, [0.0, 1.0, 5.0])
    for name in ("gamma1", "gamma2", "delta1", "delta2"):
        np.testing.assert_allclose(getattr(fi, name), 0.0, atol=1e-30)


def test_long_time_gamma1_slope_is_half_psd_at_rabi():
    c, tau = 1.0, 1.0
    Omega = 2.0 / tau
    psd = NoisePsd.ou(c, tau)
    t = 100.0 * tau
    fi = filtered_integrals(psd, Omega, [t])
    assert fi.gamma1[0] / t == pytest.approx(0.5 * psd.eval(Omega), rel=0.01)


def test_gamma1_monotone_for_nonnegative_psd():
    psd = NoisePsd.ou(1.0, 1.0)
    times = np.linspace(0.0, 12.0, 40)
    fi = filtered_integrals(psd, 1.5, times, rtol=1e-9)
    assert np.all(np.diff(fi.gamma1) > -1e-12)


def _gamma1_gauss_legendre(knots, dens, low, high, Omega, t):
    """Gamma1(t) = 2 Int_0^inf S(w) F_Gamma1(w) dw in plain numpy.

    S interpolates the table log-log between ``knots`` with constant plateaus
    outside.  16-point Gauss-Legendre panels no wider than pi / t, with the
    knots as extra edges, cover [0, X]; beyond X, where S is the high
    plateau, F = (1/2pi) [sin^2(u t/2)/u^2 at u = w -+ Omega] and sin^2 is
    replaced by its mean 1/2, which leaves an error below 1e-9 of Gamma1.
    """
    def S(w):
        out = np.exp(np.interp(np.log(np.maximum(w, knots[0])), np.log(knots), np.log(dens)))
        out[w < knots[0]] = low
        out[w > knots[-1]] = high
        return out

    def F(w):
        sin2 = lambda u: (t / (2 * math.pi)) * np.sinc(u * t / (2 * math.pi)) ** 2
        return 0.25 * t * (sin2(Omega - w) + sin2(Omega + w))

    X = max(1e4 * max(Omega, 1.0 / t), 2.0 * knots[-1])
    edges = np.union1d(np.arange(0.0, X, math.pi / t), knots)
    edges = np.append(edges[edges < X], X)
    x, wts = np.polynomial.legendre.leggauss(16)
    lo, hi = edges[:-1, None], edges[1:, None]
    w = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    inner = float((0.5 * (hi - lo) * S(w) * F(w) * wts).sum())
    tail = high / (2 * math.pi) * 0.5 * (1.0 / (X - Omega) + 1.0 / (X + Omega))
    return 2.0 * (inner + tail)


def test_tabulated_gamma1_matches_gauss_legendre_oracle():
    # a Lorentzian plus a nonzero high plateau, and a bump at the Rabi
    # frequency that sits in an excluded band and must not count
    Omega = 2000.0
    band = (1.2e3, 3.5e3)
    w = np.geomspace(50.0, 2e5, 60)
    s = 4.0 / (1.0 + (w / 500.0) ** 2) + 0.02
    inside = (w > band[0]) & (w < band[1])
    bumped = s + 50.0 * inside
    psd = NoisePsd.tabulated(w, bumped, s[0], 0.02, excluded_bands=[band])
    times = [3e-4, 1.5e-3, 6e-3]
    fi = filtered_integrals(psd, Omega, times)
    want = [_gamma1_gauss_legendre(w[~inside], s[~inside], s[0], 0.02, Omega, t)
            for t in times]
    np.testing.assert_allclose(fi.gamma1, want, rtol=1e-6, atol=0)
    with_bump = [_gamma1_gauss_legendre(w, bumped, s[0], 0.02, Omega, t) for t in times]
    assert np.all(np.abs(np.asarray(with_bump) / want - 1) > 0.1)


def test_a_table_rising_past_the_converged_window_is_integrated_to_its_end():
    # a Lorentzian table reaching 1e7 rad/s with a narrow spur near 2.5e6,
    # far past where two escalation passes agree: the spur must count
    Omega, t = 4000.0, 1e-3
    w = np.geomspace(10.0, 1e7, 400)
    s = 1e3 / (1.0 + (w / 2e3) ** 2) + 1e-4
    s += np.where(np.abs(np.log(w / 2.5e6)) < 0.02, 5e4, 0.0)
    psd = NoisePsd.tabulated(w, s, s[0], 1e-4)
    fi = filtered_integrals(psd, Omega, t)
    # 12-point Gauss-Legendre on the knots and 5000 equal panels of [0, w_N];
    # past w_N the 1e-4 plateau adds under 1e-10 of each integral
    edges = np.union1d(w, np.linspace(0.0, w[-1], 5000))
    x, wts = np.polynomial.legendre.leggauss(12)
    half, mid = 0.5 * np.diff(edges)[:, None], 0.5 * (edges[1:] + edges[:-1])[:, None]
    nodes = mid + half * x
    want = [2.0 * float((half * psd.eval(nodes) * f(nodes, Omega, t) * wts).sum())
            for f in (oracles.filter_gamma1, oracles.filter_delta1, oracles.filter_memory)]
    got = [fi.gamma1[0], fi.delta1[0], fi.gamma2[0] / math.cos(Omega * t)]
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=0)


def _overlap_edges_per_interval(psd, Omega, t, lo_edge, W):
    """Reference build of the quadrature edges: one linspace per interval."""
    pts = [x for x in (0.5 * Omega, Omega, 1.5 * Omega, 2.0 * Omega) if lo_edge < x < W]
    pts += [x for x in psd.breakpoints() if lo_edge < x < W]
    edges = np.unique(np.concatenate([[lo_edge, W], pts]))
    if t <= 0:
        return edges
    width = 3.0 * math.pi / t
    if (W - lo_edge) / width > 3000:
        width = (W - lo_edge) / 3000
    refined = [edges[:1]]
    for lo, hi in zip(edges[:-1], edges[1:]):
        n = int(np.ceil((hi - lo) / width))
        refined.append(np.linspace(lo, hi, n + 1)[1:])
    return np.concatenate(refined)


def test_overlap_edges_match_per_interval_linspace():
    rng = np.random.default_rng(11)
    knots = np.sort(np.geomspace(10.0, 1e6, 120) * np.exp(0.01 * rng.standard_normal(120)))
    psds = (NoisePsd.ou(1e9, 5e-4), NoisePsd.tabulated(knots, 1.0 / knots, 0.1, 1e-6))
    for i in range(300):
        psd = psds[i % 2]
        Omega = 10 ** rng.uniform(2, 5)
        t = 0.0 if i % 10 == 0 else 10 ** rng.uniform(-5, -1)
        lo = rng.uniform(0.0, 1e4) if i % 3 == 0 else 0.0
        W = lo + 10 ** rng.uniform(2, 7)
        want = _overlap_edges_per_interval(psd, Omega, t, lo, W)
        np.testing.assert_array_equal(_overlap_edges(psd, Omega, t, lo, W), want)


def _measured_table(seed):
    """A seeded measured table: Lorentzian + 1/f + 0.05 plateau at 200 knots
    from 1 Hz to 20 kHz (one-sided Hz) with 3% scatter and a bump in the
    excluded band 2-5 kHz, ingested to two-sided rad/s."""
    rng = np.random.default_rng(seed)
    f = np.geomspace(1.0, 2.0e4, 200)
    s = 600.0 / (1.0 + (f / 300.0) ** 2) + 2000.0 / f + 0.05
    s *= np.exp(0.03 * rng.standard_normal(f.size))
    s[(f > 2.0e3) & (f < 5.0e3)] += rng.uniform(30.0, 80.0)
    return NoisePsd.tabulated(2.0 * math.pi * f, 0.5 * s, 0.5 * s[0], 0.025,
                              excluded_bands=[(2.0 * math.pi * 2.0e3, 2.0 * math.pi * 5.0e3)])


def test_windows_take_the_oracle_quadrature_path(monkeypatch):
    # same integrals and the same nodes as the sinc-formula windows, on a
    # time grid and on a pi-pulse Rabi sweep
    psd = _measured_table(402)
    Omega = 4000.0
    times = np.linspace(0.0, 4.0 * math.pi / Omega, 20)
    rabi = np.geomspace(2.0e3, 2.0e6, 10)
    counts = []
    eval_psd = NoisePsd.eval

    def counted(self, omega):
        counts.append(np.size(omega))
        return eval_psd(self, omega)

    def run():
        counts.clear()
        fis = (filtered_integrals(psd, Omega, times), filtered_integrals(psd, rabi, math.pi / rabi))
        return fis, sum(counts)

    monkeypatch.setattr(NoisePsd, "eval", counted)
    got, n_got = run()
    monkeypatch.setattr(filters, "_windows", oracles.windows)
    want, n_want = run()
    assert n_got == n_want
    for fi, ref in zip(got, want):
        for name in ("gamma1", "gamma2", "delta1", "delta2"):
            value = getattr(ref, name)
            assert np.abs(getattr(fi, name) - value).max() <= 1e-12 * np.abs(value).max(), name


def test_flat_table_gives_the_white_closed_forms():
    s0 = 0.37
    knots = np.geomspace(1.0, 1e4, 7)
    flat = NoisePsd.tabulated(knots, np.full(knots.size, s0), s0, s0)
    Omega = 30.0
    times = np.array([0.0, 0.01, 0.3, 2.0, 7.5])
    fi = filtered_integrals(flat, Omega, times, amp_psd=flat)
    memory = s0 * np.sin(Omega * times) / (2.0 * Omega)
    want = {"gamma1": 0.5 * s0 * times, "delta1": np.zeros(times.size),
            "gamma2": np.cos(Omega * times) * memory, "delta2": np.sin(Omega * times) * memory,
            "dgamma1": s0 * times}
    for name, value in want.items():
        scale = np.maximum(np.abs(value), 0.5 * s0 * times)
        np.testing.assert_array_less(np.abs(getattr(fi, name) - value), 1e-9 * scale + 1e-300)


def test_flat_amplitude_psd_gives_linear_dgamma1():
    s0 = 0.37
    flat = NoisePsd.tabulated([1e-8, 1e8], [s0, s0], s0, s0)
    deph = NoisePsd.ou(0.0, 1.0)
    times = [0.5, 2.0, 7.0]
    fi = filtered_integrals(deph, 1.0, times, amp_psd=flat)
    np.testing.assert_allclose(fi.dgamma1, s0 * np.asarray(times), rtol=1e-7)


def test_amplitude_pass_equals_the_gamma1_row_at_zero_rabi_rate():
    # the amplitude pass integrates the Gamma1 window alone; the full
    # three-window pass at Omega = 0 carries the same window in its Gamma1 row
    omegas = np.geomspace(10.0, 1e5, 60)
    amp = NoisePsd.tabulated(omegas, 1e3 / (1.0 + (omegas * 5e-4) ** 2) + 2e4 / omegas,
                             1e3 + 2e3, 0.2)
    times = np.linspace(2e-4, 4e-3, 6)
    fi = filtered_integrals(NoisePsd.ou(1.0, 1e-3), 4000.0, times, amp_psd=amp)
    np.testing.assert_allclose(fi.dgamma1, 2.0 * filtered_integrals(amp, 0.0, times).gamma1,
                               rtol=1e-12, atol=0)


def test_ou_amplitude_integral_closed_form():
    # the CLI's closed form for OU jobs against the quadrature it replaces
    deph = NoisePsd.ou(0.0, 1.0)
    for c, tau, times in [(0.8, 0.4, [0.1, 1.0, 3.0]),
                          (1e6, 5e-4, [1e-5, 2e-3, 0.01]),   # the CLI tests' amplitude PSD
                          (1.6e9, 5e-4, [7.9e-5, 1.6e-3, 3.1e-3])]:
        fi = filtered_integrals(deph, 1.0, times, amp_psd=NoisePsd.ou(c, tau))
        np.testing.assert_allclose(ou_amplitude_integral(c, tau, times), fi.dgamma1, rtol=1e-7)


def test_timedomain_route_matches_closed_forms():
    c, tau = 1.0, 1.0
    autocov = lambda u: 0.5 * c * tau * np.exp(-np.abs(u) / tau)
    for a, tt in [(0.4, 5.0), (8.0, 30.0)]:
        times = np.array([0.3 * tt, tt]) * tau
        fi = filtered_integrals_timedomain(autocov, a / tau, times)
        ref = ou_filtered_integrals(c, tau, a / tau, times)
        for name in ("gamma1", "gamma2", "delta1", "delta2"):
            got, want = getattr(fi, name), getattr(ref, name)
            scale = np.maximum(np.abs(want), ref.gamma1)
            assert (np.abs(got - want) / scale).max() < 1e-5


def test_timedomain_zero_at_t0():
    autocov = lambda u: np.exp(-np.abs(u))
    fi = filtered_integrals_timedomain(autocov, 1.0, [0.0])
    for name in ("gamma1", "gamma2", "delta1", "delta2"):
        assert getattr(fi, name)[0] == 0.0


def test_white_noise_limit_linear_gamma1():
    # tau much shorter than everything: Gamma1(t) ~ t * S(Omega)/2
    c, tau = 1.0, 1e-3
    Omega = 2.0
    autocov = lambda u: 0.5 * c * tau * np.exp(-np.abs(u) / tau)
    t = 5.0
    fi = filtered_integrals_timedomain(autocov, Omega, [t], n_grid=2**18)
    s_omega = c * tau**2 / (1 + (Omega * tau) ** 2)
    assert fi.gamma1[0] == pytest.approx(0.5 * s_omega * t, rel=5e-3)


def test_filtered_integrals_rejects_negative_times():
    with pytest.raises(ValidationError):
        filtered_integrals(NoisePsd.ou(1.0, 1.0), 1.0, [-1.0])


@pytest.mark.parametrize("Omega, times", [(1.0, [0.5, np.nan]), (1.0, [0.5, np.inf]),
                                          (np.nan, [0.5, 1.0]), (1.0, [[0.5, 1.0]])],
                         ids=["nan-time", "inf-time", "nan-omega", "2d-times"])
def test_filtered_integrals_rejects_bad_inputs(Omega, times):
    with pytest.raises(ValidationError):
        filtered_integrals(NoisePsd.ou(1.0, 1.0), Omega, times)


def test_integrals_container_invariants():
    with pytest.raises(ValidationError):
        FilteredIntegrals(np.array([0.0, 1.0]), np.array([0.0, -1.0]),
                          np.zeros(2), np.zeros(2), np.zeros(2))
    fi = ou_filtered_integrals(1.0, 1.0, 2.0, [0.5, 1.0])
    pt = fi.at(1)
    # one time of the grid, as 0-d fields of the same container
    assert isinstance(pt, FilteredIntegrals)
    for name in ("times", "gamma1", "gamma2", "delta1", "delta2", "dgamma1"):
        assert np.ndim(getattr(pt, name)) == 0
        assert getattr(pt, name) == getattr(fi, name)[1]
    assert pt.dgamma1 == 0.0
    # without amplitude noise the DGamma1 field is zeros, not absent
    np.testing.assert_array_equal(fi.dgamma1, np.zeros(2))


def test_a_snapshot_is_a_view_of_the_checked_grid(monkeypatch):
    fi = ou_filtered_integrals(1.0, 1.0, 2.0, [0.5, 1.0])

    def check_again(self):
        raise AssertionError("at() re-ran the container's checks")

    monkeypatch.setattr(FilteredIntegrals, "__post_init__", check_again)
    pt = fi.at(1)
    assert type(pt) is FilteredIntegrals
    for name in ("times", "gamma1", "gamma2", "delta1", "delta2", "dgamma1"):
        field = getattr(pt, name)
        assert field.shape == () and np.shares_memory(field, getattr(fi, name))
        assert field == getattr(fi, name)[1]


@pytest.mark.parametrize("dgamma1", [np.zeros(3), np.array([0.0, np.nan]),
                                     np.array([0.0, np.inf])])
def test_integrals_container_checks_dgamma1(dgamma1):
    z = np.zeros(2)
    with pytest.raises(ValidationError):
        FilteredIntegrals(np.array([0.0, 1.0]), z, z, z, z, dgamma1)
    fi = FilteredIntegrals(np.array([0.0, 1.0]), z, z, z, z, [0.0, 0.25])
    assert fi.at(1).dgamma1 == 0.25


def test_ou_kernels_asymptotics():
    c, tau, Omega = 2.0, 1.0, 3.0
    g1, h1 = ou_kernels(c, tau, Omega, np.array([50.0 * tau]))
    S = c * tau**2 / (1 + (Omega * tau) ** 2)
    assert g1[0] == pytest.approx(0.5 * S, rel=1e-10)
    assert h1[0] == pytest.approx(0.5 * S * Omega * tau, rel=1e-10)
