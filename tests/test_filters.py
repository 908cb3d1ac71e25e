import math

import numpy as np
import pytest
import scipy.integrate as si

from gatenoise.filters import (
    filter_amplitude,
    filter_delta1,
    filter_delta2,
    filter_gamma1,
    filter_gamma2,
    filter_tail,
    filtered_integrals,
    filtered_integrals_timedomain,
    ou_amplitude_integral,
    ou_filtered_integrals,
    ou_kernels,
    FilteredIntegrals,
    IntegralPoint,
)
from gatenoise.errors import ValidationError
from gatenoise.psd import NoisePsd


# --------------------------------------------------------------------- #
# filter functions

def test_gamma1_filter_normalization():
    # integral over the real line is t/2 for any Omega, t
    for Omega, t in [(1.0, 3.0), (5.0, 0.4), (0.3, 20.0)]:
        X = 20.0 * Omega + 2000.0 / t
        val, _ = si.quad(lambda w: filter_gamma1(np.atleast_1d(w), Omega, t)[0],
                         0.0, X, limit=4000, points=[Omega, 2 * Omega])
        total = 2.0 * (val + filter_tail("gamma1", X, Omega, t))
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
    for f in (filter_gamma1, filter_delta1, filter_gamma2, filter_delta2):
        np.testing.assert_allclose(f(w, 2.2, 1.7), f(-w, 2.2, 1.7), atol=1e-15)
    np.testing.assert_allclose(filter_amplitude(w, 1.7), filter_amplitude(-w, 1.7))


def test_gamma2_vanishes_at_quarter_period():
    Omega = 3.0
    t = 0.5 * math.pi / Omega  # cos(Omega t) = 0
    w = np.linspace(-10, 10, 101)
    np.testing.assert_allclose(filter_gamma2(w, Omega, t), 0.0, atol=1e-16)


def test_filters_zero_at_t0():
    w = np.linspace(-5, 5, 11)
    for f in (filter_gamma1, filter_delta1, filter_gamma2, filter_delta2):
        np.testing.assert_array_equal(f(w, 1.0, 0.0), np.zeros_like(w))


def test_amplitude_filter_values():
    t = 2.1
    assert filter_amplitude(np.array([0.0]), t)[0] == pytest.approx(
        t * t / (2 * math.pi), rel=1e-12)
    X = 3000.0 / t
    val, _ = si.quad(lambda w: filter_amplitude(np.atleast_1d(w), t)[0],
                     0.0, X, limit=4000)
    assert 2.0 * (val + filter_tail("amplitude", X, 0.0, t)) == pytest.approx(t, rel=1e-7)


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
        assert filter_tail(name, W, Omega, t) == pytest.approx(brute, rel=1e-8), name


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


def test_flat_amplitude_psd_gives_linear_dgamma1():
    s0 = 0.37
    flat = NoisePsd.tabulated([1e-8, 1e8], [s0, s0], s0, s0)
    deph = NoisePsd.ou(0.0, 1.0)
    times = [0.5, 2.0, 7.0]
    fi = filtered_integrals(deph, 1.0, times, amp_psd=flat)
    np.testing.assert_allclose(fi.dgamma1, s0 * np.asarray(times), rtol=1e-7)


def test_ou_amplitude_integral_closed_form():
    c, tau = 0.8, 0.4
    amp = NoisePsd.ou(c, tau)
    deph = NoisePsd.ou(0.0, 1.0)
    times = np.array([0.1, 1.0, 3.0])
    fi = filtered_integrals(deph, 1.0, times, amp_psd=amp)
    np.testing.assert_allclose(fi.dgamma1, ou_amplitude_integral(c, tau, times),
                               rtol=1e-6)


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


def test_integrals_container_invariants():
    with pytest.raises(ValidationError):
        FilteredIntegrals(np.array([0.0, 1.0]), np.array([0.0, -1.0]),
                          np.zeros(2), np.zeros(2), np.zeros(2))
    fi = ou_filtered_integrals(1.0, 1.0, 2.0, [0.5, 1.0])
    pt = fi.at(1)
    assert isinstance(pt, IntegralPoint)
    assert pt.dgamma1 == 0.0


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


def test_csv_export(tmp_path):
    fi = ou_filtered_integrals(1.0, 1.0, 2.0, [0.0, 1.0])
    path = tmp_path / "fi.csv"
    fi.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,gamma1,gamma2,delta1,delta2,dgamma1"
    assert len(lines) == 3
