import math

import numpy as np
import pytest

from gatenoise.errors import ValidationError
from gatenoise.noise import OUSource, PsdSource, percival_trajectory, trajectory_rng
from gatenoise.psd import NoisePsd
from oracles import ConstantSource, ou_step, percival_lag0_variance


# --------------------------------------------------------------------- #
# ou_step

def test_ou_step_noiseless_decay():
    eta = 1.37
    out = ou_step(eta, dt=0.2, tau_c=0.5, c=3.0, u=0.0)
    assert out == pytest.approx(eta * math.exp(-0.4), rel=1e-14)


def test_ou_step_stationary_resampling_limit():
    c, tau = 5.0, 0.3
    out = ou_step(2.0, dt=1e3 * tau, tau_c=tau, c=c, u=1.0)
    assert out == pytest.approx(math.sqrt(0.5 * c * tau), rel=1e-12)


def test_ou_step_rejects_bad_arguments():
    with pytest.raises(ValidationError):
        ou_step(0.0, dt=-1.0, tau_c=1.0, c=1.0, u=0.0)
    with pytest.raises(ValidationError):
        ou_step(0.0, dt=1.0, tau_c=0.0, c=1.0, u=0.0)


def test_ou_step_lag_autocovariance_monte_carlo():
    # ensemble lag-tau autocovariance -> c tau / (2 e)
    c, tau, dt = 2.0, 1.0, 0.1
    n = 100000
    rng = np.random.default_rng(42)
    eta = math.sqrt(0.5 * c * tau) * rng.standard_normal(n)
    eta0 = eta.copy()
    for _ in range(10):
        eta = ou_step(eta, dt, tau, c, rng.standard_normal(n))
    target = 0.5 * c * tau / math.e
    got = (eta0 * eta).mean()
    se = (eta0 * eta).std(ddof=1) / math.sqrt(n)
    assert abs(got - target) < 3 * se


def test_ou_step_composition_is_distribution_identical():
    # two steps of dt match one step of 2dt in mean and variance
    c, tau, dt = 3.0, 0.7, 0.25
    n = 100000
    rng = np.random.default_rng(7)
    eta0 = math.sqrt(0.5 * c * tau) * rng.standard_normal(n)
    two = ou_step(ou_step(eta0, dt, tau, c, rng.standard_normal(n)),
                  dt, tau, c, rng.standard_normal(n))
    one = ou_step(eta0, 2 * dt, tau, c, rng.standard_normal(n))
    for stat in (np.mean, np.var):
        a, b = stat(two), stat(one)
        se = math.sqrt(2.0) * np.var(two) / math.sqrt(n)  # generous scale
        assert abs(a - b) < 4 * max(se, 4 * np.std(two) / math.sqrt(n))


# --------------------------------------------------------------------- #
# percival_trajectory

def test_percival_zero_psd_gives_zero_trajectory():
    psd = NoisePsd.ou(0.0, 1.0)
    traj = percival_trajectory(psd, 16, 1.0, np.ones(18))
    np.testing.assert_allclose(traj, 0.0)


def test_percival_rejects_odd_count():
    psd = NoisePsd.ou(1.0, 1.0)
    with pytest.raises(ValidationError):
        percival_trajectory(psd, 15, 1.0, np.ones(40))
    with pytest.raises(ValidationError):
        percival_trajectory(psd, 16, 0.0, np.ones(40))


def test_percival_flat_psd_parseval():
    # flat two-sided density: ensemble variance matches the discrete
    # Parseval sum of sampled densities
    psd = NoisePsd.tabulated([1e-6, 1e6], [2.5, 2.5], 2.5, 2.5)
    m_f, span = 128, 10.0
    rng = np.random.default_rng(3)
    n_traj = 10000
    acc = np.empty(n_traj)
    for i in range(n_traj):
        traj = percival_trajectory(psd, m_f, span, rng.standard_normal(m_f + 2))
        acc[i] = (traj**2).mean()
    target = percival_lag0_variance(psd, m_f, span)
    se = acc.std(ddof=1) / math.sqrt(n_traj)
    assert abs(acc.mean() - target) < 3 * se


def test_percival_ou_lag0_matches_process_variance():
    c, tau = 2.0, 1.0
    psd = NoisePsd.ou(c, tau)
    m_f, span = 512, 50.0 * tau
    rng = np.random.default_rng(5)
    acc = np.empty(10000)
    for i in range(10000):
        traj = percival_trajectory(psd, m_f, span, rng.standard_normal(m_f + 2))
        acc[i] = (traj**2).mean()
    assert acc.mean() == pytest.approx(0.5 * c * tau, rel=0.05)


def test_percival_matches_ou_autocovariance():
    c, tau = 1.5, 1.0
    psd = NoisePsd.ou(c, tau)
    rng = np.random.default_rng(9)
    n = 6000
    pv = np.empty((n, 128))
    for i in range(n):
        pv[i] = percival_trajectory(psd, 128, 32 * tau, rng.standard_normal(130))
    lag = 4
    b = (pv[:, :-lag] * pv[:, lag:]).mean(axis=1)
    se = b.std(ddof=1) / math.sqrt(n)
    assert abs(b.mean() - psd.autocovariance(lag * 32 * tau / 128)) < 3 * se


# --------------------------------------------------------------------- #
# noise sources

def test_sources_are_reproducible_and_stream_independent():
    src = OUSource(2.0, 0.5)
    a = src.increments_block(123, range(4, 8), 50, 0.01)
    b = src.increments_block(123, range(4, 8), 50, 0.01)
    np.testing.assert_array_equal(a, b)
    # same indices in different order give the same per-index columns
    c = src.increments_block(123, [6, 4], 50, 0.01)
    np.testing.assert_array_equal(c[:, 0], a[:, 2])
    np.testing.assert_array_equal(c[:, 1], a[:, 0])


def test_ou_source_is_dt_times_the_ou_step_recursion():
    c, tau, dt, n_steps = 2.0, 0.5, 0.03, 40
    block = OUSource(c, tau).increments_block(5, [0, 3], n_steps, dt)
    for col, idx in zip(block.T, (0, 3)):
        u = trajectory_rng(5, idx).standard_normal(n_steps + 1)
        eta, expected = math.sqrt(0.5 * c * tau) * u[0], []
        for i in range(n_steps):
            expected.append(dt * eta)
            eta = ou_step(eta, dt, tau, c, u[i + 1])
        np.testing.assert_allclose(col, expected, rtol=1e-14, atol=0)


def test_constant_source_is_time_major():
    const = ConstantSource(3.0)
    np.testing.assert_allclose(const.increments_block(0, range(2), 4, 0.5),
                               1.5 * np.ones((4, 2)))


def test_psd_source_variance():
    c, tau = 2.0, 1.0
    src = PsdSource(NoisePsd.ou(c, tau))
    dt = 0.05 * tau
    vals = src.increments_block(7, range(3000), 600, dt) / dt
    # discard nothing; stationary variance across the whole block
    assert vals.var() == pytest.approx(0.5 * c * tau, rel=0.05)


@pytest.mark.parametrize("n_steps", [7, 300])
@pytest.mark.parametrize("kind", ["ou", "psd"])
def test_source_block_is_the_per_column_series_exactly(kind, n_steps):
    # a block is C-contiguous and time-major, and each column is bit for bit
    # the block its own index gives alone, however the indices are chunked
    # (150 columns span three of the 64-stream buffers that fill a block);
    # a PSD block is one PSD evaluation and one inverse FFT, yet each column
    # is also exactly the series its own draws give
    w = np.geomspace(1.0, 1e4, 40)
    psd = NoisePsd.tabulated(w, 5.0 / (1.0 + (w / 300.0) ** 2) + 20.0 / w, 25.0, 0.01)
    src = OUSource(2e6, 3e-3) if kind == "ou" else PsdSource(psd)
    dt = 1e-4
    cols = np.stack([src.increments_block(9, [idx], n_steps, dt)[:, 0] for idx in range(150)],
                    axis=1)
    for chunk in (range(150), [0, 1, 2, 3, 4], [5], [149, 6, 80, 7, 100, 9]):
        block = src.increments_block(9, chunk, n_steps, dt)
        assert block.shape == (n_steps, len(chunk)) and block.flags.c_contiguous
        np.testing.assert_array_equal(block, cols[:, chunk])
    if kind == "psd":
        m_f = n_steps + n_steps % 2
        for idx in range(150):
            series = percival_trajectory(psd, m_f, m_f * dt,
                                         trajectory_rng(9, idx).standard_normal(m_f + 2))
            np.testing.assert_array_equal(cols[:, idx], series[:n_steps] * dt)
