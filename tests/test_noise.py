import math

import numpy as np
import pytest

from gatenoise.errors import ValidationError
from gatenoise.noise import OUSource, PsdSource, _stream_keys, _stream_normals, percival_trajectory
from gatenoise.psd import NoisePsd
from oracles import ConstantSource, ou_step, percival_lag0_variance, trajectory_rng


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


# --------------------------------------------------------------------- #
# increment autocovariance: gamma_k = Cov(inc_i, inc_{i+k}) of the generator

def _table():
    w = np.geomspace(1.0, 1e4, 40)
    return NoisePsd.tabulated(w, 5.0 / (1.0 + (w / 300.0) ** 2) + 20.0 / w, 25.0, 0.01)


def test_ou_increment_autocovariance_is_the_closed_form():
    c, tau, dt, n = 2e6, 3e-3, 1e-4, 50
    gamma = OUSource(c, tau).increment_autocovariance(n, dt)
    assert gamma.shape == (n,)
    for k in (0, 1, n - 1):
        assert gamma[k] == pytest.approx(dt**2 * 0.5 * c * tau * math.exp(-k * dt / tau),
                                         rel=1e-14)


@pytest.mark.parametrize("n_steps", [7, 8, 33, 64])
def test_fourier_increment_autocovariance_is_the_double_sum_over_bins(n_steps):
    # Cov(x_j, x_l) = sum over draws d of A_jd A_ld, A the series each unit draw
    # gives alone: every pair of steps at lag k has the same covariance
    psd, dt = _table(), 1e-4
    m_f = max(4, n_steps + n_steps % 2)
    A = percival_trajectory(psd, m_f, m_f * dt, np.eye(m_f + 2))[:n_steps]
    cov = dt * dt * A @ A.T
    gamma = PsdSource(psd).increment_autocovariance(n_steps, dt)
    assert gamma.shape == (n_steps,)
    lags = np.abs(np.subtract.outer(np.arange(n_steps), np.arange(n_steps)))
    np.testing.assert_allclose(cov, gamma[lags], rtol=0, atol=1e-12 * gamma[0])


@pytest.mark.parametrize("kind, seed", [("ou", 71), ("psd", 72)])
def test_increment_autocovariance_matches_the_empirical_lag_covariance(kind, seed):
    # seeds fixed before the run: per-column lag products of a 2e4-column
    # block average to gamma_k within 4 standard errors
    src = OUSource(2e6, 3e-3) if kind == "ou" else PsdSource(_table())
    n, m, dt = 41, 20000, 1e-4
    block = src.increments_block(seed, range(m), n, dt)
    gamma = src.increment_autocovariance(n, dt)
    for k in (0, 1, 3, 10, n - 1):
        b = (block[:n - k] * block[k:]).mean(axis=0)
        se = b.std(ddof=1) / math.sqrt(m)
        assert abs(b.mean() - gamma[k]) < 4 * se, (k, b.mean(), gamma[k], se)


# --------------------------------------------------------------------- #
# stream keys: the seed_seq hash over a whole block

STREAM_SEEDS = [0, 402, 2**31, 2**32 - 1, 2**32 + 1, 2**96, 2**96 + 0x0102030405060708090A0B0C,
                402 + 2**31]
STREAM_INDICES = [0, 1, 2**31, 2**32 - 1]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_stream_keys_are_numpys_seed_sequence_keys(seed):
    # 1 to 4 seed words: the index lands in the pool or, past 3 seed words,
    # in the hash's remaining-entropy loop; fails too if numpy changes its seeding
    expected = np.array([np.random.SeedSequence((seed, i)).generate_state(2, np.uint64)
                         for i in STREAM_INDICES])
    keys = _stream_keys(seed, STREAM_INDICES)
    assert keys.dtype == np.uint64 and keys.shape == (len(STREAM_INDICES), 2)
    np.testing.assert_array_equal(keys, expected)


@pytest.mark.parametrize("m, k", [(1, 1), (63, 5), (65, 1571), (200, 4)])
def test_stream_normals_are_the_per_stream_draws(m, k):
    # from index 0, and from a chunk offset with a 4-word seed
    for seed, indices in ((402, range(m)), (2**96 + 5, range(4096, 4096 + m))):
        expected = np.stack([trajectory_rng(seed, i).standard_normal(k) for i in indices], axis=1)
        np.testing.assert_array_equal(_stream_normals(seed, indices, k), expected)


@pytest.mark.parametrize("seed, indices", [(0, [2**32]), (0, [3, -1]), (0, [2**70]), (-1, [0])])
def test_stream_keys_reject_an_index_outside_32_bits_and_a_negative_seed(seed, indices):
    with pytest.raises(ValidationError):
        _stream_keys(seed, indices)
    with pytest.raises(ValidationError):
        OUSource(1.0, 1.0).increments_block(seed, indices, 3, 0.1)
