import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatenoise.channels import nm_measure
from gatenoise.errors import ValidationError
from gatenoise.psd import TWO_PI, NoisePsd
from oracles import autocovariance_adaptive, total_power


def test_ou_eval_zero_frequency():
    c, tau = 3.0e9, 5e-4
    psd = NoisePsd.ou(c, tau)
    assert psd.eval(0.0) == pytest.approx(c * tau**2, rel=1e-14)


def test_ou_eval_half_width():
    c, tau = 2.0, 0.3
    psd = NoisePsd.ou(c, tau)
    assert psd.eval(1.0 / tau) == pytest.approx(0.5 * c * tau**2, rel=1e-14)


def test_flat_bridge_across_excluded_band():
    psd = NoisePsd.tabulated([10.0, 1000.0], [4.0, 4.0], 4.0, 4.0,
                             excluded_bands=[(100.0, 200.0)])
    assert psd.eval(141.4) == pytest.approx(4.0, rel=1e-12)


def test_excluded_band_bridges_continuously():
    w = np.geomspace(1.0, 1e5, 200)
    s = 7.0 / (1.0 + (w / 300.0) ** 2) + 0.01
    bump = (w > 2e3) & (w < 8e3)
    s[bump] += 50.0
    psd = NoisePsd.tabulated(w, s, s[0], 0.01, excluded_bands=[(2e3, 8e3)])
    for edge in (2e3, 8e3):
        lo = psd.eval(edge * (1 - 1e-9))
        hi = psd.eval(edge * (1 + 1e-9))
        assert 1 / 1.01 < hi / lo < 1.01


def _loglog_bridge(kept_w, kept_s, x):
    """S(x) on the straight log-log line between the nearest kept knots."""
    j = int(np.searchsorted(kept_w, x, "right")) - 1
    if kept_w[j] == x:
        return kept_s[j]
    slope = math.log(kept_s[j + 1] / kept_s[j]) / math.log(kept_w[j + 1] / kept_w[j])
    return kept_s[j] * math.exp(slope * math.log(x / kept_w[j]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=4, max_size=40),
       st.lists(st.tuples(st.floats(min_value=0.01, max_value=0.5),
                          st.floats(min_value=0.001, max_value=0.49)), min_size=1, max_size=3))
def test_excluded_bands_are_bridged_log_log_between_the_nearest_kept_knots(log_s, cuts):
    w = np.geomspace(1.0, 1e4, len(log_s))
    s = 10.0 ** np.asarray(log_s)
    # every band lies inside (w[0], w[-1]), so both end knots are kept
    span = math.log(w[-1] / w[0])
    bands = [(w[0] * math.exp(span * a), w[0] * math.exp(span * (a + d))) for a, d in cuts]
    psd = NoisePsd.tabulated(w, s, s[0], s[-1], excluded_bands=bands)
    keep = ~np.any([(w > lo) & (w < hi) for lo, hi in bands], axis=0)
    np.testing.assert_array_equal(psd.omegas, w[keep])
    # the kept knots carry the bands: the PSD stores no band list besides them
    assert not hasattr(psd, "excluded_bands")
    for lo, hi in bands:
        for x in (lo, math.sqrt(lo * hi), hi):
            assert psd.eval(x) == pytest.approx(_loglog_bridge(w[keep], s[keep], x),
                                                rel=1e-12, abs=0), (x, lo, hi)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_parity_even_ou(omega):
    psd = NoisePsd.ou(1.7e8, 2e-4)
    assert psd.eval(omega) == psd.eval(-omega)


def test_parity_even_tabulated_random_grid():
    rng = np.random.default_rng(0)
    psd = NoisePsd.tabulated([1.0, 10.0, 100.0], [2.0, 5.0, 1.0], 2.0, 1.0)
    w = rng.uniform(-500, 500, 200)
    np.testing.assert_allclose(psd.eval(w), psd.eval(-w))


def test_tabulated_needs_two_samples():
    with pytest.raises(ValidationError):
        NoisePsd.tabulated([10.0], [1.0], 1.0, 1.0)
    with pytest.raises(ValidationError):
        # exclusions may not eat the whole table
        NoisePsd.tabulated([10.0, 20.0, 30.0], [1.0, 1.0, 1.0], 1.0, 1.0,
                           excluded_bands=[(5.0, 25.0)])


@pytest.mark.parametrize("omegas, densities, low, high, bands", [
    ([10.0, 20.0], [1.0, np.nan], 1.0, 1.0, ()),
    ([10.0, 20.0], [np.inf, 1.0], 1.0, 1.0, ()),
    ([10.0, 20.0], [1.0, 1.0], np.nan, 1.0, ()),
    ([10.0, 20.0], [1.0, 1.0], 1.0, np.inf, ()),
    ([10.0, np.inf], [1.0, 1.0], 1.0, 1.0, ()),
    ([np.nan, 20.0], [1.0, 1.0], 1.0, 1.0, ()),
    ([10.0, 20.0, 30.0], [1.0, 1.0, 1.0], 1.0, 1.0, [(25.0, np.inf)]),
], ids=["nan-density", "inf-density", "nan-plateau", "inf-plateau", "inf-frequency",
        "nan-frequency", "inf-band-edge"])
def test_tabulated_rejects_non_finite_values(omegas, densities, low, high, bands):
    with pytest.raises(ValidationError):
        NoisePsd.tabulated(omegas, densities, low, high, excluded_bands=bands)


def test_plateaus_outside_range():
    psd = NoisePsd.tabulated([10.0, 100.0], [4.0, 2.0], 9.0, 0.5)
    assert psd.eval(1.0) == 9.0
    assert psd.eval(1e6) == 0.5


def test_loglog_interpolation_is_powerlaw_exact():
    # two decades of an exact power law must interpolate exactly
    w = np.array([10.0, 1000.0])
    s = 5.0 * (w / 10.0) ** -2
    psd = NoisePsd.tabulated(w, s, s[0], s[-1])
    assert psd.eval(100.0) == pytest.approx(5.0 * 0.01, rel=1e-12)


def test_hz_one_sided_ingestion_power_roundtrip(tmp_path):
    f = np.geomspace(1.0, 1e5, 400)
    s1s = 8.0 / (1.0 + (f / 50.0) ** 2)
    raw = tmp_path / "raw.csv"
    with open(raw, "w") as fh:
        fh.write("freq_hz,psd_one_sided\n")
        for fi, si in zip(f, s1s):
            fh.write(f"{float(fi)!r},{float(si)!r}\n")
    side = tmp_path / "raw.json"
    side.write_text(json.dumps({
        "units": "hz_one_sided", "low_plateau": 8.0, "high_plateau": 0.0,
    }))
    psd = NoisePsd.from_files(raw, side)
    # total power computed on the trapezoid of the raw table must match the
    # same trapezoid computed in internal units
    p_raw = np.trapezoid(s1s, f)
    p_int = np.trapezoid(psd.eval(TWO_PI * f), TWO_PI * f) / np.pi
    assert p_int == pytest.approx(p_raw, rel=1e-9)


def test_units_declaration_equivalence(tmp_path):
    """Hz one-sided and rad/s two-sided files describing the same process
    must evaluate identically."""
    f = np.geomspace(1.0, 1e4, 50)
    s1s = 3.0 / (1.0 + (f / 20.0) ** 2)

    hz_csv = tmp_path / "hz.csv"
    with open(hz_csv, "w") as fh:
        fh.write("freq_hz,psd\n")
        for fi, si in zip(f, s1s):
            fh.write(f"{float(fi)!r},{float(si)!r}\n")
    (tmp_path / "hz.json").write_text(json.dumps(
        {"units": "hz_one_sided", "low_plateau": 3.0, "high_plateau": 0.0}))

    rad_csv = tmp_path / "rad.csv"
    with open(rad_csv, "w") as fh:
        fh.write("omega,psd\n")
        for fi, si in zip(f, s1s):
            fh.write(f"{float(TWO_PI * fi)!r},{float(si / 2.0)!r}\n")
    (tmp_path / "rad.json").write_text(json.dumps(
        {"units": "rad_s_two_sided", "low_plateau": 1.5, "high_plateau": 0.0}))

    a = NoisePsd.from_files(hz_csv, tmp_path / "hz.json")
    b = NoisePsd.from_files(rad_csv, tmp_path / "rad.json")
    w = np.geomspace(TWO_PI * 1.0, TWO_PI * 1e4, 300)
    np.testing.assert_allclose(a.eval(w), b.eval(w), rtol=1e-10)


def test_non_monotone_rows_rejected(tmp_path):
    raw = tmp_path / "bad.csv"
    raw.write_text("freq_hz,psd\n10.0,1.0\n5.0,1.0\n20.0,1.0\n")
    side = tmp_path / "bad.json"
    side.write_text(json.dumps({"units": "hz_one_sided", "low_plateau": 1.0,
                                "high_plateau": 1.0}))
    with pytest.raises(ValidationError):
        NoisePsd.from_files(raw, side)


def test_sidecar_requires_plateaus(tmp_path):
    raw = tmp_path / "x.csv"
    raw.write_text("freq_hz,psd\n10.0,1.0\n20.0,1.0\n")
    side = tmp_path / "x.json"
    side.write_text(json.dumps({"units": "hz_one_sided", "low_plateau": 1.0}))
    with pytest.raises(ValidationError):
        NoisePsd.from_files(raw, side)


def test_ou_autocovariance_matches_total_power():
    psd = NoisePsd.ou(2.0, 0.7)
    assert psd.autocovariance(0.0) == pytest.approx(0.5 * 2.0 * 0.7, rel=1e-12)
    assert total_power(psd) == pytest.approx(0.5 * 2.0 * 0.7, rel=1e-6)


def ou_sampled_table():
    # an OU spectrum sampled densely, so C(t) is close to the OU closed form
    c, tau = 1.3, 0.2
    w = np.geomspace(1e-3 / tau, 2e3 / tau, 1200)
    ou = NoisePsd.ou(c, tau)
    return NoisePsd.tabulated(w, ou.eval(w), ou.eval(w[0]), 0.0)


def measured_style_table():
    """Lorentzian + 1/f + white plateau in one-sided Hz with 3% knot scatter
    and a bump inside an excluded band, ingested into two-sided rad/s."""
    rng = np.random.default_rng(17)
    f = np.geomspace(1.0, 2.0e4, 200)
    s = 600.0 / (1.0 + (f / 300.0) ** 2) + 2000.0 / f + 0.05
    s *= np.exp(0.03 * rng.standard_normal(f.size))
    s[(f > 2e3) & (f < 5e3)] += 50.0
    return NoisePsd.tabulated(TWO_PI * f, s / 2.0, s[0] / 2.0, 0.025,
                              excluded_bands=[(TWO_PI * 2e3, TWO_PI * 5e3)])


OMEGA = 4000.0
T_MAX = 4.0 * np.pi / OMEGA


def test_tabulated_autocovariance_against_ou_samples():
    c, tau = 1.3, 0.2
    tab = ou_sampled_table()
    for t in (0.0, 0.5 * tau, 2.0 * tau):
        assert tab.autocovariance(t) == pytest.approx(
            0.5 * c * tau * np.exp(-t / tau), rel=2e-3)


@pytest.mark.parametrize("table, t_max, n", [(measured_style_table, T_MAX, 300),
                                             (ou_sampled_table, 0.4, 60)])
def test_tabulated_autocovariance_matches_adaptive_quadrature(table, t_max, n):
    # every other point negative; the oracle's cost grows with |t| w_max
    psd = table()
    t = np.linspace(0.0, t_max, n) * (-1.0) ** np.arange(n)
    ref = autocovariance_adaptive(psd, t)
    np.testing.assert_allclose(psd.autocovariance(t), ref, rtol=0, atol=1e-6 * ref[0])


def test_tabulated_autocovariance_shapes_and_parity():
    psd = measured_style_table()
    t = np.linspace(-T_MAX, T_MAX, 12).reshape(3, 4)
    grid = psd.autocovariance(t)
    assert grid.shape == (3, 4)
    np.testing.assert_array_equal(grid, psd.autocovariance(-t))
    scalar = psd.autocovariance(float(t[1, 2]))
    assert type(scalar) is float and scalar == pytest.approx(grid[1, 2], rel=1e-13)
    assert type(psd.autocovariance(0.0)) is float
    assert psd.autocovariance(np.array([0.0])).shape == (1,)


def test_nm_measure_matches_the_scipy_cumulative_rules(monkeypatch):
    import scipy.integrate as si

    import gatenoise.channels as channels

    psd = measured_style_table()
    times, ncp = nm_measure(psd, OMEGA, T_MAX, n_grid=4000)
    for name in ("cumulative_simpson", "cumulative_trapezoid"):
        rule = getattr(si, name)
        monkeypatch.setattr(channels, name, lambda y, h, rule=rule: rule(y, x=times, initial=0.0))
    _, ncp_ref = nm_measure(psd, OMEGA, T_MAX, n_grid=4000)
    assert ncp_ref[-1] > 0.0
    np.testing.assert_allclose(ncp, ncp_ref, rtol=0, atol=1e-12 * ncp_ref.max())


def test_nm_measure_on_a_table_matches_the_adaptive_autocovariance():
    psd = measured_style_table()
    slow = copy.copy(psd)
    slow.autocovariance = lambda t: autocovariance_adaptive(psd, t)
    times, ncp = nm_measure(psd, OMEGA, T_MAX, n_grid=300)
    times_ref, ncp_ref = nm_measure(slow, OMEGA, T_MAX, n_grid=300)
    np.testing.assert_array_equal(times, times_ref)
    assert ncp_ref[-1] > 0.0
    np.testing.assert_allclose(ncp, ncp_ref, rtol=0, atol=1e-6 * ncp_ref.max())
