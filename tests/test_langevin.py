import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from gatenoise import langevin
from gatenoise.channels import bloch_to_rho, haar_random_state, rho_to_bloch, rotate_to_lab
from gatenoise.errors import NumericalError, ValidationError
from gatenoise.langevin import (
    DriveConfig,
    check_density_matrix,
    default_timestep,
    evolve_ensemble,
)
from gatenoise.noise import OUSource, PsdSource
from gatenoise.psd import NoisePsd
from oracles import (
    ConstantSource,
    control_variate_fit,
    ensemble_samples,
    master_equation_evolve,
    ou_kernels,
)

RHO0 = np.array([[1, 0], [0, 0]], dtype=complex)
RHOP = 0.5 * np.ones((2, 2), dtype=complex)
RHOPI = 0.5 * np.array([[1, -1j], [1j, 1]], dtype=complex)
# |0>, |+>, |+i>: their Pauli means are the columns z, x, y of the Bloch map
COLUMNS = np.stack([RHO0, RHOP, RHOPI])
BLOCH_COLUMNS = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
# criterion 4's regime: Omega tau_c = 2, where the first-order variate carries most
# of the variance
C4 = {"c": 1.6e9, "tau_c": 5e-4, "Omega": 4000.0, "dt": 2e-6}


def test_exact_step_rabi_flopping():
    # one coarse step per 0.9 rad of drive: exact rotations, no step error
    Omega = 3.0
    drive = DriveConfig(Omega=Omega, dt=0.3, n_steps=40, m_mc=1)
    traj = evolve_ensemble(RHO0, drive, None, seed=0)
    np.testing.assert_allclose(traj.pauli_mean[:, 2], np.cos(Omega * traj.times),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(traj.pauli_mean[:, 1], -np.sin(Omega * traj.times),
                               rtol=0, atol=1e-12)


def test_exact_step_generalized_rabi_formula():
    # constant detuning through a constant dephasing source, at a coarse dt
    Omega, delta = 1.0, 0.6
    drive = DriveConfig(Omega=Omega, dt=0.5, n_steps=60, m_mc=1)
    traj = evolve_ensemble(RHO0, drive, ConstantSource(delta), seed=0)
    omega_gen = math.hypot(Omega, delta)
    p1 = Omega**2 / omega_gen**2 * np.sin(0.5 * omega_gen * traj.times) ** 2
    np.testing.assert_allclose(0.5 * (1.0 - traj.pauli_mean[:, 2]), p1, rtol=0, atol=1e-12)


def test_exact_step_pure_dephasing_phase():
    # a constant frequency offset w turns |+> about z by w t
    w = 0.37
    drive = DriveConfig(Omega=1e-15, dt=0.8, n_steps=25, m_mc=1)
    traj = evolve_ensemble(RHOP, drive, ConstantSource(w), seed=0)
    np.testing.assert_allclose(traj.pauli_mean[:, 0], np.cos(w * traj.times), rtol=0, atol=1e-12)
    np.testing.assert_allclose(traj.pauli_mean[:, 1], np.sin(w * traj.times), rtol=0, atol=1e-12)


class _SubsampledOU:
    """OU increments ``dt * eta(t_i)`` read off one fine OU path per trajectory.

    A subsampled OU path is an exact OU path on the coarser grid, so every
    step that is a multiple of the fine step sees the same noise realisation
    and the ensembles differ only by the step error.
    """

    def __init__(self, c, tau, dt_fine):
        self.source = OUSource(c, tau)
        self.dt_fine = dt_fine

    def increments_block(self, seed, indices, n_steps, dt):
        k = int(round(dt / self.dt_fine))
        fine = self.source.increments_block(seed, indices, n_steps * k, self.dt_fine)
        return fine[::k] * (dt / self.dt_fine)


def test_dt_halving_convergence():
    tau = 5e-4
    Omega = 1.0 / (5.0 * tau)
    t_final = 10.0 * tau
    source = _SubsampledOU(2.0 / (10.0 * tau**3), tau, t_final / 64)
    means = []
    for n in (8, 16, 32, 64):
        drive = DriveConfig(Omega=Omega, dt=t_final / n, n_steps=n, m_mc=4000)
        traj = evolve_ensemble(np.stack([RHO0, RHOP]), drive, source, seed=3,
                               record_every=n // 8)
        means.append(traj.pauli_mean)
    diffs = [np.abs(a - b).max() for a, b in zip(means, means[1:])]
    # each halving of dt at least halves the change: first order or better
    # (seeds 1-8 all give ratios between 2.9 and 6.3)
    assert diffs[0] > 2.0 * diffs[1] and diffs[1] > 2.0 * diffs[2]


def test_evolve_ensemble_rejects_invalid_state():
    drive = DriveConfig(Omega=1.0, dt=0.1, n_steps=1, m_mc=1)
    with pytest.raises(ValidationError):
        evolve_ensemble(2.0 * RHO0, drive, None)
    with pytest.raises(ValidationError):
        evolve_ensemble(np.array([1.0, 0.0], complex), drive, None)


@pytest.mark.parametrize("field, value", [("Omega", math.nan), ("dt", math.inf),
                                          ("n_steps", 2.5)])
def test_drive_config_rejects_bad_values(field, value):
    args = {"Omega": 1.0, "dt": 0.1, "n_steps": 1, "m_mc": 1, field: value}
    with pytest.raises(ValidationError, match=field):
        DriveConfig(**args)


@pytest.mark.parametrize("option, value", [("record_every", 0), ("record_every", -3),
                                           ("record_every", 2.5), ("chunk", 0), ("chunk", -1),
                                           ("n_workers", 0)])
def test_evolve_ensemble_rejects_bad_counts(option, value):
    drive = DriveConfig(Omega=1.0, dt=0.1, n_steps=4, m_mc=2)
    with pytest.raises(ValidationError, match=option):
        evolve_ensemble(RHO0, drive, None, **{option: value})


def test_common_random_numbers_reconstruct_channel():
    # the ensemble-mean Bloch rotation is the whole channel: applied to any
    # state it gives exactly the mean of a run from that state
    tau = 1e-3
    drive = DriveConfig(Omega=2e3, dt=0.05 * tau, n_steps=120, m_mc=500)
    src = OUSource(4e6, tau)
    basis = np.stack([RHO0, np.diag([0.0, 1.0]).astype(complex), RHOP,
                      0.5 * np.array([[1, -1j], [1j, 1]])])
    stacked = evolve_ensemble(basis, drive, src, seed=17, record_every=30, chunk=128)
    assert stacked.states.shape == (4, 5, 2, 2)
    assert stacked.pauli_mean.shape == stacked.pauli_se.shape == (4, 5, 3)
    assert stacked.bloch_map.shape == (5, 3, 3)
    np.testing.assert_allclose(stacked.bloch_map[0], np.eye(3), rtol=0, atol=1e-15)
    rng = np.random.default_rng(5)
    rho = haar_random_state(rng, 1)[0]
    rho = 0.8 * rho + 0.1 * np.eye(2)
    single = evolve_ensemble(rho, drive, src, seed=17, record_every=30, chunk=128)
    mapped = bloch_to_rho(stacked.bloch_map @ rho_to_bloch(rho))
    np.testing.assert_allclose(mapped, single.states, rtol=0, atol=1e-12)
    np.testing.assert_allclose(stacked.bloch_map, single.bloch_map, rtol=0, atol=1e-12)
    first = evolve_ensemble(RHO0, drive, src, seed=17, record_every=30, chunk=128)
    np.testing.assert_allclose(stacked[0].pauli_mean, first.pauli_mean, rtol=0, atol=1e-12)
    np.testing.assert_allclose(stacked[0].pauli_se, first.pauli_se, rtol=0, atol=1e-12)


def test_zero_noise_ensemble_is_pure_rabi():
    Omega = 3.0
    drive = DriveConfig(Omega=Omega, dt=0.002 / Omega, n_steps=500, m_mc=3)
    traj = evolve_ensemble(RHO0, drive, None, seed=0, record_every=50)
    sz = traj.pauli_mean[:, 2]
    np.testing.assert_allclose(sz, np.cos(Omega * traj.times), atol=1e-5)
    # identical trajectories: variance is pure rounding noise
    assert traj.pauli_se.max() < 1e-7


def test_norm_drift_bounded_and_tracked():
    tau = 5e-4
    c = 2.0 / (10.0 * tau**3)
    Omega = 1.0 / (5.0 * tau)
    dt = default_timestep(Omega, tau)
    drive = DriveConfig(Omega=Omega, dt=dt, n_steps=200, m_mc=64)
    traj = evolve_ensemble(RHO0, drive, OUSource(c, tau), seed=1)
    assert 0.0 < traj.max_norm_drift <= 1e-12


def test_non_finite_noise_raises_numerical_error():
    class NanSource:
        def increments_block(self, seed, indices, n_steps, dt):
            return np.full((n_steps, len(indices)), np.nan)

    drive = DriveConfig(Omega=1.0, dt=0.01, n_steps=10, m_mc=3)
    with pytest.raises(NumericalError):
        evolve_ensemble(RHO0, drive, NanSource(), seed=0)


def test_ensemble_states_positive_within_sampling_tolerance():
    tau = 1e-3
    Omega = 2e3
    dt = 0.05 * min(tau, 1.0 / Omega)
    drive = DriveConfig(Omega=Omega, dt=dt, n_steps=400, m_mc=400)
    traj = evolve_ensemble(RHOP, drive, OUSource(4e6, tau), seed=3, record_every=40)
    floor = -3.0 / math.sqrt(drive.m_mc)
    for rho in traj.states:
        check_density_matrix(rho, tol=1e-9, eig_tol=-floor)
        assert np.linalg.eigvalsh(rho)[0] >= floor


def test_mixed_state_decomposition():
    # maximally mixed input stays maximally mixed under any unitary noise
    drive = DriveConfig(Omega=5.0, dt=1e-3, n_steps=100, m_mc=10)
    rho_mixed = 0.5 * np.eye(2, dtype=complex)
    traj = evolve_ensemble(rho_mixed, drive, None, seed=0, record_every=100)
    np.testing.assert_allclose(traj.states[-1], 0.5 * np.eye(2), atol=1e-10)
    # a mixture evolves as the same mixture of its eigenstate ensembles
    src = OUSource(4e6, 1e-3)
    p = 0.3
    mixed = evolve_ensemble(np.diag([p, 1 - p]).astype(complex), drive, src, seed=4,
                            record_every=20)
    pure = evolve_ensemble(np.stack([RHO0, np.diag([0.0, 1.0]).astype(complex)]), drive, src,
                           seed=4, record_every=20)
    np.testing.assert_allclose(mixed.states, p * pure.states[0] + (1 - p) * pure.states[1],
                               rtol=0, atol=1e-12)


def test_trajectory_count_mismatch_raises():
    class ShortSource:
        def __init__(self, steps_short, traj_short):
            self.short = steps_short, traj_short

        def increments_block(self, seed, indices, n_steps, dt):
            return np.zeros((n_steps - self.short[0], len(indices) - self.short[1]))

    drive = DriveConfig(Omega=1.0, dt=0.01, n_steps=10, m_mc=2)
    with pytest.raises(ValidationError, match=r"frequency.*\(9, 2\).*\(10, 2\)"):
        evolve_ensemble(RHO0, drive, ShortSource(1, 0), seed=0)
    with pytest.raises(ValidationError, match=r"amplitude.*\(10, 1\).*\(10, 2\)"):
        evolve_ensemble(RHO0, drive, None, ShortSource(0, 1), seed=0)


def test_seed_reproducibility_and_worker_invariance():
    tau = 1e-3
    drive = DriveConfig(Omega=1e3, dt=0.05 * tau, n_steps=50, m_mc=300)
    src = OUSource(1e7, tau)
    a = evolve_ensemble(RHO0, drive, src, seed=9, record_every=10)
    a2 = evolve_ensemble(RHO0, drive, src, seed=9, record_every=10)
    np.testing.assert_array_equal(a.states, a2.states)
    # worker count must not change results (ordered reduction over chunks)
    b = evolve_ensemble(RHO0, drive, src, seed=9, record_every=10, chunk=64)
    c = evolve_ensemble(RHO0, drive, src, seed=9, record_every=10, n_workers=3, chunk=64)
    np.testing.assert_array_equal(b.states, c.states)
    # chunk size only reorders the reduction
    np.testing.assert_allclose(a.states, b.states, atol=1e-13)


def test_single_axis_maps_match_master_equation():
    """Frequency-only and amplitude-only noise each match the corresponding
    analytic single-axis solution within statistical error."""
    tau = 5e-4
    Omega = 1.0 / (5.0 * tau)
    c_freq = 1.0 / (10.0 * tau**3)
    dt = 0.05 * tau
    drive = DriveConfig(Omega=Omega, dt=dt, n_steps=800, m_mc=3000)
    kernels = lambda t: ou_kernels(c_freq, tau, Omega, t)

    # frequency noise only
    traj = evolve_ensemble(RHOP, drive, OUSource(c_freq, tau), seed=21, record_every=100)
    states = master_equation_evolve(RHOP, kernels, Omega, traj.times[1:])
    for i, t in enumerate(traj.times[1:]):
        r_an = rho_to_bloch(rotate_to_lab(states[i], Omega, t))
        for k in range(3):
            se = max(traj.pauli_se[i + 1, k], 1e-4)
            assert abs(traj.pauli_mean[i + 1, k] - r_an[k]) < 4 * se

    # amplitude noise only: Rabi-axis noise, populations of |+> frozen
    amp = OUSource(0.5 * c_freq, tau)
    traj = evolve_ensemble(RHOP, drive, None, amp, seed=22, record_every=100)
    np.testing.assert_allclose(traj.pauli_mean[:, 0], 1.0, atol=1e-9)

    zero_kernels = lambda t: (np.zeros_like(t), np.zeros_like(t))
    amp_cov = lambda t: 0.5 * (0.5 * c_freq) * tau * np.exp(-np.abs(t) / tau)
    from scipy.integrate import quad

    def amp_rate(t):
        val, _ = quad(amp_cov, 0.0, t)
        return 2.0 * val

    traj0 = evolve_ensemble(RHO0, drive, None, amp, seed=23, record_every=100)
    states = master_equation_evolve(RHO0, zero_kernels, Omega, traj0.times[1:], amp_rate=amp_rate)
    for i, t in enumerate(traj0.times[1:]):
        r_an = rho_to_bloch(rotate_to_lab(states[i], Omega, t))
        for k in range(3):
            se = max(traj0.pauli_se[i + 1, k], 1e-4)
            assert abs(traj0.pauli_mean[i + 1, k] - r_an[k]) < 4 * se


def test_psd_source_matches_ou_source_statistics():
    # the Fourier-series generator driving the qubit agrees with the exact
    # OU updates at the ensemble level
    tau = 5e-4
    Omega = 1.0 / (5.0 * tau)
    c = 1.0 / (10.0 * tau**3)
    drive = DriveConfig(Omega=Omega, dt=0.05 * tau, n_steps=600, m_mc=2500)
    a = evolve_ensemble(RHO0, drive, OUSource(c, tau), seed=31, record_every=100)
    b = evolve_ensemble(RHO0, drive, PsdSource(NoisePsd.ou(c, tau)), seed=32, record_every=100)
    for i in range(1, a.times.size):
        for k in range(3):
            se = math.hypot(a.pauli_se[i, k], b.pauli_se[i, k])
            assert abs(a.pauli_mean[i, k] - b.pauli_mean[i, k]) < 4 * max(se, 1e-4)


# --------------------------------------------------------------------- #
# the control-variate estimator

@pytest.mark.parametrize("with_amp", [False, True, "alone"])
def test_control_variate_is_the_regression_intercept(with_amp):
    # the channel is the intercept of a least-squares fit of each entry on
    # [1, a] over the ensemble, the errors are its residual errors; the
    # oracle propagates 2x2 matrices and sums the control step by step
    drive = DriveConfig(Omega=C4["Omega"], dt=C4["dt"], n_steps=300, m_mc=300)
    freq = None if with_amp == "alone" else OUSource(C4["c"], C4["tau_c"])
    amp = OUSource(0.3 * C4["c"], 2.0 * C4["tau_c"]) if with_amp else None
    traj = evolve_ensemble(COLUMNS, drive, freq, amp, seed=8, record_every=60, chunk=128)
    rots, ctrls = ensemble_samples(drive, freq, amp, seed=8, record_every=60)
    assert ctrls.shape == (6, 300, 2 * (freq is not None) + (amp is not None))
    maps, se, plain, plain_se = control_variate_fit(rots, ctrls, BLOCH_COLUMNS)
    np.testing.assert_allclose(traj.bloch_map, maps, rtol=0, atol=1e-12)
    np.testing.assert_allclose(traj.pauli_mean, np.einsum("tij,kj->kti", maps, BLOCH_COLUMNS),
                               rtol=0, atol=1e-12)
    # plain variances are centred moments and agree to rounding; the residual
    # variance Var(Y) - Cov(Y, a) Cov(a, a)^+ Cov(a, Y) cancels about 9 digits at
    # early records, so even on identical samples it differs from lstsq by ~5e-9;
    # amplitude noise alone keeps <sx> of |+> at 1, errors of 0 that the
    # oracle's rotations leave at rounding, ~1e-16
    np.testing.assert_allclose(traj.pauli_se[:, 1:], se[:, 1:], rtol=1e-6, atol=1e-15)
    np.testing.assert_allclose(traj.plain_se[:, 1:], plain_se[:, 1:], rtol=1e-10, atol=1e-15)
    # t = 0: no noise yet, so no control and no error
    assert np.all(traj.pauli_se[:, 0] == 0.0) and np.all(traj.bloch_map[0] == np.eye(3))


def test_chunk_moments_combine_exactly():
    # one chunk, chunks of 7 and one trajectory per chunk regroup the same
    # centred moments: the channel moves by a few ulp of its unit-size
    # entries, the plain errors by rounding
    drive = DriveConfig(Omega=C4["Omega"], dt=C4["dt"], n_steps=300, m_mc=300)
    freq = OUSource(C4["c"], C4["tau_c"])
    ref = evolve_ensemble(COLUMNS, drive, freq, seed=8, record_every=60, chunk=300)
    for chunk in (7, 1):
        traj = evolve_ensemble(COLUMNS, drive, freq, seed=8, record_every=60, chunk=chunk)
        np.testing.assert_allclose(traj.bloch_map, ref.bloch_map, rtol=0, atol=2e-15)
        np.testing.assert_allclose(traj.plain_se, ref.plain_se, rtol=1e-12)


def test_slab_size_changes_no_bit(monkeypatch):
    # slabs of one step, of 5 steps (SLAB_SIZE // m for chunks of 20 and 17
    # trajectories) and of a whole record interval; record_every 7 leaves each
    # interval a short last slab of 5-step slabs
    drive = DriveConfig(Omega=C4["Omega"], dt=C4["dt"], n_steps=60, m_mc=37)
    freq = OUSource(C4["c"], C4["tau_c"])
    amp = OUSource(0.3 * C4["c"], 2.0 * C4["tau_c"])
    runs = []
    for slab in (1, 100, 10**9):
        monkeypatch.setattr(langevin, "SLAB_SIZE", slab)
        runs.append(evolve_ensemble(COLUMNS, drive, freq, amp, seed=3, record_every=7, chunk=20))
    for traj in runs[1:]:
        for field in ("bloch_map", "pauli_mean", "pauli_se", "plain_se", "max_norm_drift"):
            assert np.array_equal(getattr(traj, field), getattr(runs[0], field)), field


def test_control_variate_mean_within_plain_errors_of_the_plain_mean():
    # same seed: the adjusted mean sits within 4 plain standard errors of the
    # plain mean at every (record, entry)
    drive = DriveConfig(Omega=C4["Omega"], dt=C4["dt"], n_steps=785, m_mc=400)
    source = OUSource(C4["c"], C4["tau_c"])
    traj = evolve_ensemble(COLUMNS, drive, source, seed=41, record_every=157)
    rots, _ = ensemble_samples(drive, source, seed=41, record_every=157)
    plain = np.einsum("tmij,kj->kti", rots, BLOCH_COLUMNS) / drive.m_mc
    assert np.all(np.abs(traj.pauli_mean - plain) <= 4.0 * traj.plain_se)


def test_control_mean_is_zero_within_its_error():
    # E[a] = 0 for zero-mean noise: the sample mean of every component at
    # every record lies within 3 of its own standard errors of 0
    drive = DriveConfig(Omega=C4["Omega"], dt=C4["dt"], n_steps=785, m_mc=2000)
    freq = OUSource(C4["c"], C4["tau_c"])
    amp = OUSource(0.3 * C4["c"], 2.0 * C4["tau_c"])
    _, ctrls = ensemble_samples(drive, freq, amp, seed=2026, record_every=157)
    a = ctrls[1:]
    z = a.mean(axis=1) / (a.std(axis=1) / math.sqrt(drive.m_mc))
    assert np.all(np.abs(z) < 3.0), z


def test_control_variate_z_scores_against_a_large_independent_ensemble():
    """Bounds fixed before the run: over 20 seeds, the z-scores of the adjusted
    Bloch-map entries against an independent ensemble 50x the size (its own
    standard error in the denominator) have |mean| < 0.3 and a standard
    deviation in [0.8, 1.25]."""
    drive = DriveConfig(Omega=C4["Omega"], dt=C4["dt"], n_steps=785, m_mc=200)
    source = OUSource(C4["c"], C4["tau_c"])
    ref = evolve_ensemble(COLUMNS, replace(drive, m_mc=10000), source, seed=999,
                          record_every=157)
    z = []
    for seed in range(1, 21):
        traj = evolve_ensemble(COLUMNS, drive, source, seed=seed, record_every=157)
        se = np.hypot(traj.pauli_se, ref.pauli_se)[:, 1:]
        z.append((traj.pauli_mean - ref.pauli_mean)[:, 1:] / se)
    z = np.array(z)
    assert abs(z.mean()) < 0.3 and 0.8 <= z.std() <= 1.25, (z.mean(), z.std())


def test_control_variate_gain_in_criterion_4_regime():
    # two Rabi flops at Omega tau_c = 2 over 25 records, as the validate bench
    drive = DriveConfig(Omega=C4["Omega"], dt=C4["dt"], n_steps=1575, m_mc=400)
    basis = np.stack([RHO0, np.diag([0.0, 1.0]).astype(complex), RHOP, RHOPI])
    traj = evolve_ensemble(basis, drive, OUSource(C4["c"], C4["tau_c"]), seed=402,
                           record_every=63)
    gain = (traj.plain_se[:, 1:] ** 2).mean() / (traj.pauli_se[:, 1:] ** 2).mean()
    assert gain >= 5.0, gain


def test_control_variate_never_loses_in_criterion_3_regime():
    # fully decohering: the first-order variate explains little, and the
    # fitted coefficient keeps every error within 5% of the plain one
    tau = 5e-4
    drive = DriveConfig(Omega=1.0 / (5.0 * tau), dt=0.05 * tau, n_steps=2400, m_mc=2000)
    traj = evolve_ensemble(np.stack([RHO0, RHOP]), drive, OUSource(2.0 / (10.0 * tau**3), tau),
                           seed=11, record_every=60)
    assert np.all(traj.pauli_se <= 1.05 * traj.plain_se)


@pytest.mark.parametrize("m_mc, c", [(1, 1.6e9), (50, 0.0)])
def test_degenerate_ensembles_fall_back_to_the_plain_estimator(m_mc, c):
    drive = DriveConfig(Omega=C4["Omega"], dt=C4["dt"], n_steps=100, m_mc=m_mc)
    source = OUSource(c, C4["tau_c"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = evolve_ensemble(COLUMNS, drive, source, seed=3, record_every=20)
    rots, _ = ensemble_samples(drive, source, seed=3, record_every=20)
    plain = np.einsum("tmij,kj->kti", rots, BLOCH_COLUMNS) / m_mc
    assert np.all(np.isfinite(traj.pauli_mean)) and np.all(np.isfinite(traj.pauli_se))
    np.testing.assert_array_equal(traj.pauli_se, traj.plain_se)
    np.testing.assert_allclose(traj.pauli_mean, plain, rtol=0, atol=1e-12)
