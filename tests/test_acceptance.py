"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers (run with ``pytest tests/test_acceptance.py -v -s``).
Results are also appended to ``acceptance_report.txt`` in the repo root.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from gatenoise.channels import (
    avg_gate_fidelity,
    chi_full,
    drive_unitary,
    gate_error,
    nm_measure,
    pauli_chi,
    pauli_left_matrix,
    pauli_twirl,
    rho_to_bloch,
    rotate_to_lab,
)
from gatenoise.cli import main as cli_main, run_validation
from gatenoise.filters import IntegralPoint, filtered_integrals, ou_filtered_integrals
from gatenoise.langevin import DriveConfig, evolve_ensemble
from gatenoise.noise import OUSource
from gatenoise.psd import NoisePsd
from gatenoise.tomography import (
    CountRecord,
    born_probs,
    chi_from_ell,
    default_setup,
    linear_inversion,
    mh_chain,
    mle_fit,
    rb_simulate,
    sample_shots,
)
from gatenoise.channels import PauliRates
from oracles import (
    depolarizing_rb_lambda,
    filtered_integrals_timedomain,
    master_equation_evolve,
    ou_kernels,
)

REPORT = Path(__file__).resolve().parent.parent / "acceptance_report.txt"

# shared Ornstein-Uhlenbeck benchmark parameters
TAU_FIG2 = 5e-4
C_FIG2 = 2.0 / (10.0 * TAU_FIG2**3)
OMEGA_FIG2 = 1.0 / (5.0 * TAU_FIG2)

TAU_OU = 5e-4
C_OU = 1.6e9


def report(criterion, detail):
    line = f"[criterion {criterion:>2}] PASS  {detail}"
    print("\n" + line)
    with open(REPORT, "a") as fh:
        fh.write(line + "\n")


@pytest.fixture(scope="module", autouse=True)
def _fresh_report():
    REPORT.write_text("")
    yield


def test_criterion_01_ou_closed_form_oracle():
    """Quadrature filtered integrals match the closed OU expressions to 1e-6
    relative at 50 random (Omega tau, t/tau) pairs in [0.1,50]x[0.1,100]."""
    rng = np.random.default_rng(20240807)
    tau, c = 1.0, 1.0
    psd = NoisePsd.ou(c, tau)
    t0 = time.time()
    worst = 0.0
    for _ in range(50):
        a = rng.uniform(0.1, 50.0)
        tt = rng.uniform(0.1, 100.0)
        fi = filtered_integrals(psd, a / tau, [tt * tau])
        ref = ou_filtered_integrals(c, tau, a / tau, [tt * tau])
        for name in ("gamma1", "gamma2", "delta1", "delta2"):
            got = getattr(fi, name)[0]
            want = getattr(ref, name)[0]
            rel = abs(got - want) / max(abs(want), abs(ref.gamma1[0]))
            worst = max(worst, rel)
    wall = time.time() - t0
    assert worst <= 1e-6
    assert wall < 10.0
    report(1, f"50 pairs, worst rel err {worst:.2e}, {wall:.1f} s")


def test_criterion_02_dual_representation():
    """Time-domain and frequency-domain integrals agree to 1e-5 relative."""
    rng = np.random.default_rng(7)
    tau, c = 1.0, 1.0
    psd = NoisePsd.ou(c, tau)
    autocov = lambda u: 0.5 * c * tau * np.exp(-np.abs(u) / tau)
    t0 = time.time()
    worst = 0.0
    for _ in range(8):
        a = rng.uniform(0.1, 50.0)
        tt = rng.uniform(0.1, 100.0)
        times = np.array([0.3 * tt, tt]) * tau
        fd = filtered_integrals(psd, a / tau, times)
        td = filtered_integrals_timedomain(autocov, a / tau, times)
        for name in ("gamma1", "gamma2", "delta1", "delta2"):
            got = getattr(td, name)
            want = getattr(fd, name)
            scale = np.maximum(np.abs(want), fd.gamma1)
            worst = max(worst, float((np.abs(got - want) / scale).max()))
    wall = time.time() - t0
    assert worst <= 1e-5
    assert wall < 60.0
    report(2, f"8 random pairs, worst rel dev {worst:.2e}, {wall:.1f} s")


def test_criterion_03_monte_carlo_vs_analytic_map():
    """Langevin ensemble vs the analytic dressed master-equation solution:
    <sz> (from |0>) and <sx> (from |+>) within 3 standard errors at >= 95%
    of the grid points, m_mc = 1e4."""
    dt = 0.05 * TAU_FIG2
    drive = DriveConfig(Omega=OMEGA_FIG2, dt=dt, n_steps=2400, m_mc=10000)
    kernels = lambda t: ou_kernels(C_FIG2, TAU_FIG2, OMEGA_FIG2, t)
    t0 = time.time()
    bad = total = 0
    for rho0, component in ((np.array([[1, 0], [0, 0]], complex), 2),
                            (0.5 * np.ones((2, 2), complex), 0)):
        traj = evolve_ensemble(rho0, drive, OUSource(C_FIG2, TAU_FIG2),
                               seed=11, record_every=60)
        times = traj.times[1:]
        states = master_equation_evolve(rho0, kernels, OMEGA_FIG2, times)
        for i, t in enumerate(times):
            r = rho_to_bloch(rotate_to_lab(states[i], OMEGA_FIG2, t))
            se = max(traj.pauli_se[i + 1, component], 1e-4)
            total += 1
            if abs(traj.pauli_mean[i + 1, component] - r[component]) > 3 * se:
                bad += 1
    wall = time.time() - t0
    frac_ok = 1.0 - bad / total
    assert frac_ok >= 0.95
    assert wall < 300.0
    report(3, f"{total - bad}/{total} grid points within 3 se "
              f"({100 * frac_ok:.1f}%), {wall:.0f} s")


def test_criterion_04_channel_infidelity_ordering():
    """Average channel infidelity vs the Langevin ensemble over two Rabi
    flops: depolarizing > Pauli-twirled > non-Clifford on time average, and
    the non-Clifford peak stays below 5e-4 (Omega tau_c = 2, the regime
    where memory effects are near their maximum)."""
    Omega = 4000.0
    cfg = {
        "drive": {"omega_rad_s": Omega, "t_max_s": 4 * math.pi / Omega, "n_times": 25},
        "simulation": {"m_mc": 20000, "dt_s": 2e-6, "seed": 1234, "chunk": 4096},
    }
    t0 = time.time()
    grid, infid, _ = run_validation(cfg, NoisePsd.ou(C_OU, TAU_OU), None, n_haar=1000)
    wall = time.time() - t0
    avg = {m: float(infid[m].mean()) for m in infid}
    assert avg["D"] > avg["PT"] > avg["NC"], avg
    assert infid["NC"].max() <= 5e-4
    assert wall < 1200.0
    report(4, f"time-avg D={avg['D']:.2e} > PT={avg['PT']:.2e} > NC={avg['NC']:.2e}; "
              f"NC peak {infid['NC'].max():.2e} <= 5e-4, {wall:.0f} s")


def test_criterion_05_spin_locking_decay_time():
    """Fitted decay of <sx> from |+> matches T2,eff = 2/S(Omega) within 5%
    out to 100 tau_c."""
    psd = NoisePsd.ou(C_FIG2, TAU_FIG2)
    t2_eff = 2.0 / psd.eval(OMEGA_FIG2)
    dt = 0.05 * TAU_FIG2
    n_steps = 2000  # 100 tau_c
    drive = DriveConfig(Omega=OMEGA_FIG2, dt=dt, n_steps=n_steps, m_mc=100000)
    t0 = time.time()
    traj = evolve_ensemble(0.5 * np.ones((2, 2), complex), drive,
                           OUSource(C_FIG2, TAU_FIG2), seed=5, record_every=20)
    # fit ln<sx> on the window where the signal is resolved
    sx = traj.pauli_mean[:, 0]
    mask = (traj.times > 10 * TAU_FIG2) & (sx > 10 * traj.pauli_se[:, 0]) & (sx > 0.02)
    slope = np.polyfit(traj.times[mask], np.log(sx[mask]), 1)[0]
    t2_fit = -1.0 / slope
    wall = time.time() - t0
    rel = abs(t2_fit - t2_eff) / t2_eff
    assert rel < 0.05
    assert wall < 300.0
    report(5, f"T2 fit {t2_fit * 1e3:.2f} ms vs 2/S(Omega) {t2_eff * 1e3:.2f} ms "
              f"({100 * rel:.2f}% off), {wall:.0f} s")


def test_criterion_06_twirl_fidelity_equality():
    """The Pauli-twirled channel has the same average gate fidelity as the
    full memory channel, to 1e-10, at 100 random parameter sets."""
    rng = np.random.default_rng(66)
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        a = rng.uniform(0.1, 20.0)
        tt = rng.uniform(0.05, 30.0)
        c = rng.uniform(0.01, 0.5)
        fi = ou_filtered_integrals(c, 1.0, a, [tt])
        pt = IntegralPoint(fi.gamma1[0], fi.gamma2[0], fi.delta1[0], fi.delta2[0],
                           rng.uniform(0.0, 0.3))
        with_amp = bool(rng.integers(2))
        Omega, t = a, tt
        U = drive_unitary(Omega, t)
        m = pauli_left_matrix(U)
        from gatenoise.channels import chi_nm
        chi_lab = m @ chi_nm(pt, with_amplitude=with_amp) @ m.conj().T
        twirl_lab = m @ pauli_chi(pauli_twirl(pt, with_amplitude=with_amp)) @ m.conj().T
        diff = abs(avg_gate_fidelity(chi_lab, U) - avg_gate_fidelity(twirl_lab, U))
        worst = max(worst, diff)
    wall = time.time() - t0
    assert worst <= 1e-10
    assert wall < 10.0
    report(6, f"100 random sets, worst fidelity gap {worst:.2e}, {wall:.1f} s")


def test_criterion_07_non_markovianity_measure():
    """N_CP vanishes identically without the memory kernels; with them it
    saturates at a common time across a 20-point Omega grid (spread below
    one step of a 160-point time lattice) and has a single interior maximum
    in Omega."""
    psd = NoisePsd.ou(C_OU, TAU_OU)
    omegas = np.geomspace(0.2 / TAU_OU, 3.0 / TAU_OU, 20)
    t_max = 8.0 * TAU_OU
    yardstick = t_max / 160.0
    t0 = time.time()

    # memory kernels dropped: the only canonical rate is the nonnegative
    # population decay rate, so the measure vanishes identically
    for om in (omegas[0], omegas[-1]):
        times = np.linspace(0.0, t_max, 2000)
        g1, _ = ou_kernels(C_OU, TAU_OU, om, times)
        assert np.all(g1 >= -1e-18)

    sat_times = np.empty(omegas.size)
    finals = np.empty(omegas.size)
    for k, om in enumerate(omegas):
        times, ncp = nm_measure(psd, om, t_max, n_grid=3200)
        finals[k] = ncp[-1]
        assert ncp[0] == 0.0
        assert finals[k] > 0.0
        remaining = finals[k] - ncp
        idx = np.where(remaining > 0.02 * finals[k])[0]
        sat_times[k] = times[idx[-1]] if idx.size else 0.0
    spread = sat_times.max() - sat_times.min()
    assert spread <= yardstick, (spread, yardstick)
    peak = int(np.argmax(finals))
    assert 0 < peak < omegas.size - 1
    signs = np.sign(np.diff(finals))
    assert int(np.sum(np.abs(np.diff(signs)) > 0)) == 1  # single interior max
    wall = time.time() - t0
    assert wall < 120.0
    report(7, f"saturation spread {spread / TAU_OU:.3f} tau_c <= {yardstick / TAU_OU:.3f}; "
              f"single max at Omega tau = {omegas[peak] * TAU_OU:.2f}, {wall:.0f} s")


def test_criterion_08_tomography_roundtrip_and_bias():
    """Linear inversion exact to 1e-10; MLE to 1e-7 on exact frequencies;
    MLE mean bias vs linear inversion decreases monotonically across
    N in {1.2e3, 1.2e4, 1.2e5} (200 repetitions each)."""
    setup = default_setup()
    rng = np.random.default_rng(88)
    t0 = time.time()

    worst_li = 0.0
    for _ in range(20):
        ell = rng.uniform(-0.6, 0.6, 6)
        ell[[0, 2, 3, 5]] = np.abs(ell[[0, 2, 3, 5]]) + 0.1
        ell[4] = 0.0
        ell /= np.linalg.norm(ell)
        chi = chi_from_ell(ell)
        probs = born_probs(chi, setup)
        rec = linear_inversion(probs, setup)
        worst_li = max(worst_li, float(np.abs(rec - chi).max()))
    assert worst_li <= 1e-10

    worst_mle = 0.0
    for _ in range(4):
        ell = rng.uniform(-0.6, 0.6, 6)
        ell[[0, 2, 3, 5]] = np.abs(ell[[0, 2, 3, 5]]) + 0.1
        ell[4] = 0.0
        ell /= np.linalg.norm(ell)
        chi = chi_from_ell(ell)
        probs = born_probs(chi, setup)
        counts = np.round(probs * 3 * 10**9).astype(int)
        rec = CountRecord(t=0.0, shots=counts.sum(axis=2), counts=counts)
        chi_hat, _ = mle_fit(rec, setup, n_starts=4, seed=0)
        worst_mle = max(worst_mle, float(np.abs(chi_hat - chi).max()))
    assert worst_mle <= 1e-7

    # shot-noise bias study on a memoryless channel snapshot
    Omega = 2000.0
    t = 4.0 * math.pi / Omega
    fi = ou_filtered_integrals(C_OU, TAU_OU, Omega, [t])
    pt = IntegralPoint(fi.gamma1[0], 0.0, fi.delta1[0], 0.0, 0.0)
    chi_true = chi_full(pt, Omega, t)
    probs = born_probs(chi_true, setup)
    target = drive_unitary(Omega, t)
    err_li = 1.0 - avg_gate_fidelity(linear_inversion(probs, setup), target)
    rng = np.random.default_rng(0)
    biases = []
    for shots in (100, 1000, 10000):  # N_i = 1.2e3, 1.2e4, 1.2e5
        errs = np.empty(200)
        for rep in range(200):
            rec = sample_shots(probs, shots, rng, t=t)
            chi_hat, _ = mle_fit(rec, setup, n_starts=2, seed=3)
            errs[rep] = 1.0 - avg_gate_fidelity(chi_hat, target)
        biases.append(abs(errs.mean() - err_li))
    assert biases[0] > biases[1] > biases[2], biases
    wall = time.time() - t0
    assert wall < 900.0
    report(8, f"LI {worst_li:.1e}, MLE {worst_mle:.1e}; bias "
              f"{biases[0]:.2e} > {biases[1]:.2e} > {biases[2]:.2e}, {wall:.0f} s")


def test_criterion_09_mh_posterior_sanity():
    """Chain quantiles on a 2-parameter restricted likelihood match direct
    numerical integration within 2%; the full 6-parameter chain of 1e5
    steps finishes in budget with acceptance in [0.1, 0.6]."""
    setup = default_setup()
    rng = np.random.default_rng(9)
    t0 = time.time()

    # --- restricted toy: parameters (l11, l22), chain on the unit arc
    truth = np.array([0.97, 0.0, math.sqrt(1 - 0.97**2), 0.0, 0.0, 0.0])
    probs = born_probs(chi_from_ell(truth), setup)
    rec = sample_shots(probs, 300, rng)

    def loglik_theta(theta):
        ell = np.array([math.cos(theta), 0.0, math.sin(theta), 0.0, 0.0, 0.0])
        p = np.maximum(born_probs(chi_from_ell(ell), setup), 1e-300)
        pair = np.maximum(p.sum(axis=2), 1e-12)
        return float((rec.counts * np.log(p)).sum() - (rec.shots * np.log(pair)).sum())

    # direct quadrature of the posterior over the arc
    thetas = np.linspace(0.0, 0.5 * math.pi, 4001)
    logl = np.array([loglik_theta(th) for th in thetas])
    dens = np.exp(logl - logl.max())
    cdf = np.cumsum(dens)
    cdf /= cdf[-1]

    # matching chain: truncated-normal proposals + renormalization
    n_steps = 40000
    width = 0.02
    ell = np.array([1.0, 0.0, 0.05, 0.0, 0.0, 0.0])
    ell /= np.linalg.norm(ell)
    cur = loglik_theta(math.atan2(ell[2], ell[0]))
    samples = np.empty(n_steps)
    chain_rng = np.random.default_rng(10)
    for step in range(n_steps):
        prop = ell.copy()
        for k in (0, 2):
            while True:
                x = chain_rng.normal(ell[k], width)
                if 0.0 <= x <= 1.0:
                    prop[k] = x
                    break
        prop /= np.linalg.norm(prop)
        theta_p = math.atan2(prop[2], prop[0])
        cand = loglik_theta(theta_p)
        from math import erf, sqrt

        def logz(c_):
            return math.log(max(0.5 * (erf((1 - c_) / (width * sqrt(2)))
                                       - erf((0 - c_) / (width * sqrt(2)))), 1e-300))

        hastings = sum(logz(ell[k]) - logz(prop[k]) for k in (0, 2))
        if math.log(chain_rng.random() + 1e-300) < cand - cur + hastings:
            ell, cur = prop, cand
        samples[step] = math.atan2(ell[2], ell[0])
    samples = samples[n_steps // 10:]
    for q in (2.5, 50.0, 97.5):
        got = np.percentile(samples, q)
        want = np.interp(q / 100.0, cdf, thetas)
        assert abs(got - want) / want <= 0.02, (q, got, want)

    # --- full 6-parameter chain
    probs6 = born_probs(chi_from_ell(np.array([0.99, 0.02, 0.08, 0.08, 0.0, 0.06]) /
                                     np.linalg.norm([0.99, 0.02, 0.08, 0.08, 0.0, 0.06])),
                        setup)
    rec6 = sample_shots(probs6, 100, rng)
    t_chain = time.time()
    post = mh_chain(rec6, setup, n_steps=100000, seed=2)
    chain_wall = time.time() - t_chain
    assert 0.1 <= post.acceptance_rate <= 0.6
    assert chain_wall < 300.0
    wall = time.time() - t0
    report(9, f"toy quantiles within 2%; 1e5-step chain {chain_wall:.0f} s, "
              f"acceptance {post.acceptance_rate:.2f}; total {wall:.0f} s")


def test_criterion_10_rb_oracle_and_lower_bound():
    """Per-pulse depolarizing noise: fitted decay within 2% of the table
    prediction; benchmarking of the twirled channel is lower-bounded by the
    analytic pi-pulse gate error."""
    t0 = time.time()
    p = 2e-2
    res = rb_simulate(PauliRates(p / 3, p / 3, p / 3), n_seq=100, shots=100, seed=42)
    lam_pred = depolarizing_rb_lambda(p)
    rel = abs(res.lam - lam_pred) / lam_pred
    assert rel <= 0.02

    # twirled channel at the pi-pulse duration
    Omega = 2000.0
    t_pi = math.pi / Omega
    fi = ou_filtered_integrals(C_OU, TAU_OU, Omega, [t_pi])
    rates = pauli_twirl(fi.at(0))
    eps_nm = gate_error(fi.at(0), "NM")
    res_nm = rb_simulate(rates, n_seq=100, shots=100, seed=43)
    assert res_nm.eps_rb >= eps_nm
    wall = time.time() - t0
    assert wall < 600.0
    report(10, f"lambda {res.lam:.5f} vs {lam_pred:.5f} ({100 * rel:.2f}%); "
               f"eps_RB {res_nm.eps_rb:.2e} >= eps_NM {eps_nm:.2e}, {wall:.0f} s")


def test_criterion_11_experimental_psd_pipeline_structural(tmp_path):
    """Structural check of the measured-PSD path: ingestion of a synthetic
    tabulated PSD with plateaus and one excluded band runs end to end and
    the pi-pulse error falls monotonically with Rabi frequency for a
    falling spectrum."""
    t0 = time.time()
    f = np.geomspace(50.0, 2e6, 120)
    s = 30.0 / (1.0 + (f / 2e3) ** 2) + 0.02
    bump = (f > 3e4) & (f < 9e4)
    s[bump] += 200.0
    raw = tmp_path / "raw.csv"
    with open(raw, "w") as fh:
        fh.write("freq_hz,psd_one_sided\n")
        for fi_, si in zip(f, s):
            fh.write(f"{float(fi_)!r},{float(si)!r}\n")
    (tmp_path / "raw.json").write_text(json.dumps({
        "units": "hz_one_sided", "low_plateau": 30.02, "high_plateau": 0.02,
        "excluded_bands": [[3e4, 9e4]],
    }))
    out = tmp_path / "ingested"
    assert cli_main(["ingest-psd", str(raw), str(tmp_path / "raw.json"),
                     "--out", str(out)]) == 0

    cfg = {
        "drive": {"omega_rad_s": 1e5, "t_max_s": 1e-4, "n_times": 3},
        "noise": {"psd": {"kind": "tabulated",
                          "csv": "ingested/psd_normalized.csv",
                          "sidecar": "ingested/psd_normalized.json"}},
        "simulation": {"m_mc": 100, "seed": 3},
        "omega_sweep": {"omega_min": 2e4, "omega_max": 2e6, "n": 7},
        "outputs": {"dir": str(tmp_path / "pred")},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["predict", "--config", str(cfg_path)]) == 0
    sweep = np.loadtxt(tmp_path / "pred" / "pi_pulse_sweep.csv",
                       delimiter=",", skiprows=1)
    eps = sweep[:, 1]
    assert np.all(np.diff(eps) < 0.0), eps
    wall = time.time() - t0
    report(11, f"ingestion + sweep OK; pi-pulse error monotone decreasing "
               f"across 7 Rabi frequencies, {wall:.0f} s")
