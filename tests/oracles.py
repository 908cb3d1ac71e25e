"""Reference implementations that only the tests use.

Each one is an independent closed form or a plain recursion that the tests
compare the package against; no pipeline calls them.
"""

import math

import numpy as np
from scipy.optimize import curve_fit, minimize
from scipy.special import sici

from gatenoise._quadrature import adaptive_gk
from gatenoise.channels import PAULIS, KrausSet, ProcessMatrix, apply_chi, apply_kraus, pauli_chi
from gatenoise.errors import FitError, ValidationError
from gatenoise.tomography import (
    _DIAG_IDX,
    N_PARAMS,
    PAIR_FLOOR,
    PROB_FLOOR,
    _stack_records,
    chi_from_ell,
    default_setup,
    fold_ell,
)


def ou_step(eta, dt, tau_c, c, u):
    """One exact update of an OU process.

    eta' = eta * exp(-dt/tau_c) + sqrt((c tau_c / 2)(1 - exp(-2 dt/tau_c))) * u

    Exact for any step size; ``u`` is a unit normal draw.
    """
    if dt <= 0 or tau_c <= 0 or c < 0:
        raise ValidationError(f"need dt > 0, tau_c > 0, c >= 0; got {dt}, {tau_c}, {c}")
    decay = math.exp(-dt / tau_c)
    sigma = math.sqrt(0.5 * c * tau_c * (1.0 - decay * decay))
    return eta * decay + sigma * u


def percival_lag0_variance(psd, m_f, span):
    """Exact ensemble variance of ``percival_trajectory`` samples.

    The discrete Parseval sum ``f0 * (S_0 + 2 sum S_m + S_Nyq)``; converges
    to the process variance as the window grows.
    """
    f0 = 1.0 / span
    freqs = f0 * np.arange(m_f // 2 + 1)
    S = np.asarray(psd.eval(2.0 * math.pi * freqs), dtype=float)
    return f0 * (S[0] + 2.0 * S[1:-1].sum() + S[-1])


def total_power(psd, w_max=None):
    """Integrated two-sided power (1/pi) Int_0^wmax S dw (process variance).

    Exact for the OU kind; tabulated PSDs are truncated at ``w_max`` (a
    nonzero high plateau makes the full integral divergent).
    """
    if psd.kind == "ou" and w_max is None:
        return 0.5 * psd.c * psd.tau_c
    if w_max is None:
        w_max = 200.0 * psd.support_scale()
    val, _, _ = adaptive_gk(psd.eval, 0.0, w_max, rtol=1e-10, points=psd.breakpoints())
    return val / math.pi


def autocovariance_adaptive(psd, t):
    """C(t) of a tabulated PSD by one adaptive Gauss-Kronrod integral per point.

    Same truncation as ``NoisePsd.autocovariance``: ``(1/pi) Int_0^w_max
    S(w) cos(w t) dw`` with ``w_max = 50 * support_scale()``, with a
    breakpoint at every knot and at every half period of cos(w t).
    """
    t = np.asarray(t, dtype=float)
    flat = np.atleast_1d(t)
    out = np.empty(flat.shape)
    w_max = 50.0 * psd.support_scale()
    pts = psd.breakpoints()
    for i, ti in enumerate(flat):
        if ti != 0.0:
            pts_i = np.concatenate(
                [pts, np.arange(1, w_max * abs(ti) / math.pi, 2.0) * math.pi / abs(ti)])
        else:
            pts_i = pts
        val, _, _ = adaptive_gk(
            lambda w: psd.eval(w) * np.cos(w * ti), 0.0, w_max,
            rtol=1e-9, points=pts_i,
        )
        out[i] = val / math.pi
    return out[0] if t.ndim == 0 else out.reshape(t.shape)


def _eta_tail(X, t):
    """Int_X^inf eta_{2/t}(x) dx for X > 0."""
    si, _ = sici(X * t)
    return (2.0 / (math.pi * t)) * (np.sin(0.5 * X * t) ** 2 / X + 0.5 * t * (0.5 * math.pi - si))


def _log_ci(z):
    """Ci(z) - ln(z), finite as z -> 0 (tends to the Euler constant)."""
    _, ci = sici(z)
    return ci - np.log(z)


def filter_tail_sici(name, W, Omega, t):
    """Integral of a named filter over [W, inf) for W > Omega, from Si and Ci.

    ``name`` is one of gamma1, delta1, gamma2 (cos(Omega t) times the memory
    window), delta2 (sin(Omega t) times it) and amplitude (twice the gamma1
    window at Omega = 0).
    """
    if t == 0.0:
        return 0.0
    if name == "amplitude":
        return t * _eta_tail(W, t)
    if W <= Omega:
        raise ValidationError("tail start must exceed the Rabi frequency")
    wu, wv = W - Omega, W + Omega
    if name == "gamma1":
        return 0.25 * t * (_eta_tail(wu, t) + _eta_tail(wv, t))
    if name == "delta1":
        def H(z):
            return _log_ci(z) - np.sin(z) / z
        return (t / (4.0 * math.pi)) * (H(wv * t) - H(wu * t))
    if name in ("gamma2", "delta2"):
        si_u, _ = sici(wu * t)
        si_v, _ = sici(wv * t)
        # _log_ci carries the log(w t) term, so the ratio log(wv/wu) is
        # already contained in the difference below.
        bracket = math.cos(Omega * t) * (
            _log_ci(wu * t) - _log_ci(wv * t)
        ) + math.sin(Omega * t) * (math.pi - si_u - si_v)
        lead = math.cos(Omega * t) if name == "gamma2" else math.sin(Omega * t)
        return lead / (4.0 * math.pi * Omega) * bracket
    raise ValidationError(f"unknown filter {name!r}")


def kraus_to_chi(kraus, t=0.0):
    """Process matrix of a Kraus set in the plain Pauli basis."""
    ops = np.asarray(kraus.ops if isinstance(kraus, KrausSet) else kraus)
    coeff = 0.5 * np.einsum("aij,nji->an", PAULIS, ops)
    return ProcessMatrix(coeff @ coeff.conj().T, t)


def ptm(channel):
    """Pauli transfer matrix R_ab = (1/2) tr[s_a E(s_b)] (affine row included).

    ``channel`` is a ProcessMatrix / raw chi array / KrausSet / list of
    Kraus operators.
    """
    if isinstance(channel, (ProcessMatrix, np.ndarray)):
        images = apply_chi(channel, PAULIS)
    else:
        images = apply_kraus(channel, PAULIS)
    return 0.5 * np.einsum("aij,bji->ab", PAULIS, images).real


def pulse_unitaries():
    """+90 and -90 degree pulses about x, then y: exp(-i (angle/2) sigma)."""
    half = 0.25 * math.pi
    return [math.cos(half) * PAULIS[0] - 1j * sign * math.sin(half) * PAULIS[axis]
            for axis in (1, 2) for sign in (1.0, -1.0)]


def rb_survival_loop(rates, sequences, words):
    """Survival of |0> for each Clifford sequence plus its inversion gate,
    one sequence at a time on 4x4 Pauli transfer matrices.

    Clifford c is the pulse word ``words[c]``; the Pauli channel ``rates``
    follows every pulse.  The ideal product is an explicit PTM product and
    the inversion gate is found by trying every Clifford.
    """
    pulses = [ptm(KrausSet([U])) for U in pulse_unitaries()]
    noise = ptm(pauli_chi(rates))
    noisy, ideal = [], []
    for word in words:
        R, I = np.eye(4), np.eye(4)
        for g in word:
            R, I = noise @ pulses[g] @ R, pulses[g] @ I
        noisy.append(R)
        ideal.append(I)
    survival = []
    for seq in sequences:
        state, total = np.array([1.0, 0.0, 0.0, 1.0]), np.eye(4)
        for idx in seq:
            state, total = noisy[idx] @ state, ideal[idx] @ total
        inv = next(j for j in range(len(words))
                   if np.abs(ideal[j] @ total - np.eye(4)).max() < 1e-9)
        state = noisy[inv] @ state
        survival.append(min(max(0.5 * (state[0] + state[3]), 0.0), 1.0))
    return np.array(survival)


class ConstantSource:
    """Deterministic constant offset (useful for detuning checks)."""

    def __init__(self, value):
        self.value = float(value)

    def increments_block(self, seed, indices, n_steps, dt):
        return np.full((n_steps, len(indices)), self.value * dt)


def log_likelihood(probs, counts, *, grad=False):
    """Pair-normalized log-likelihood of one record's Born probabilities
    ``probs[s, b, m]``, written out for that one record: floors, pair sums
    and the two count-weighted log sums.  With ``grad`` the derivative in
    ``probs`` (at the floored values) is returned as well.
    """
    p = np.maximum(probs, PROB_FLOOR)
    pair = np.maximum(p.sum(axis=2), PAIR_FLOOR)
    logl = float(np.log(p).ravel() @ counts.counts.ravel()
                 - np.log(pair).ravel() @ counts.shots.ravel())
    if not grad:
        return logl
    return logl, counts.counts / p - (counts.shots / pair)[:, :, None]


def _born_terms(ell, setup):
    """(Q ell / |ell|^2, p) with p = ell^T Q ell / |ell|^2 the Born probabilities."""
    q_ell = (setup.q_forms.reshape(-1, N_PARAMS) @ ell).reshape(4, 3, 2, N_PARAMS)
    q_ell /= ell @ ell
    return q_ell, q_ell @ ell


def mh_chain_scalar(counts, setup=None, *, n_steps=100000, width=0.02, seed=0,
                    burn_in_frac=0.1):
    """Metropolis-Hastings on S^5 one step at a time on :func:`log_likelihood`.

    The same start, proposals, accept rule and burn-in width tuning as
    ``mh_chain``, drawn from the same ``default_rng(seed)`` stream in the
    same block order (all the standard normal 6-vectors, then all the
    uniforms), but scored one proposal at a time.  Returns (kept folded
    ells, post-burn-in acceptance rate, width after tuning).
    """
    setup = setup or default_setup()
    n_burn = int(burn_in_frac * n_steps)
    rng = np.random.default_rng(seed)
    normals = rng.standard_normal((n_steps, N_PARAMS))
    uniforms = rng.random(n_steps)
    ell = np.array([1.0, 0.0, 0.05, 0.05, 0.0, 0.05])
    ell /= np.linalg.norm(ell)
    logl = log_likelihood(_born_terms(ell, setup)[1], counts)
    chain = np.empty((n_steps, N_PARAMS))
    accepted = np.zeros(n_steps, dtype=bool)
    window = max(1, min(200, n_burn // 4))
    for step in range(n_steps):
        prop = ell + width * normals[step]
        prop /= math.sqrt(prop @ prop)
        logl_prop = log_likelihood(_born_terms(prop, setup)[1], counts)
        if math.log(uniforms[step] + 1e-300) < logl_prop - logl:
            ell, logl, accepted[step] = prop, logl_prop, True
        chain[step] = ell
        if step < n_burn and (step + 1) % window == 0:
            rate = accepted[step + 1 - window:step + 1].mean()
            width = float(np.clip(width * math.exp(0.8 * (rate - 0.3)), 1e-4, 0.5))
    return fold_ell(chain[n_burn:]), float(accepted[n_burn:].mean()), width


def loglik_and_grad(ell, counts, setup):
    """Log-likelihood at ``ell`` (any nonzero norm) and its Euclidean gradient.

    With p = ell^T Q ell / |ell|^2, dp/dell = 2 Q ell / |ell|^2 - 2 p ell / |ell|^2.
    """
    ell = np.asarray(ell, dtype=float)
    q_ell, probs = _born_terms(ell, setup)
    logl, weight = log_likelihood(probs, counts, grad=True)
    grad = 2.0 * (weight.ravel() @ q_ell.reshape(-1, N_PARAMS)
                  - float(weight.ravel() @ probs.ravel()) * ell / (ell @ ell))
    return logl, grad


def mle_fit_lbfgsb(counts, setup=None, *, n_starts=8, seed=0):
    """Bounded L-BFGS-B maximum likelihood on the block-Cholesky vector.

    Minimizes the negative log-likelihood per count from the identity-channel
    start plus ``n_starts - 1`` random positive draws of one shared
    ``default_rng(seed)``, one scipy run per start.  Returns (ProcessMatrix, ell).
    """
    setup = setup or default_setup()
    _stack_records([counts])  # rejects a (state, basis) pair without shots
    rng = np.random.default_rng(seed)
    scale = float(counts.counts.sum()) or 1.0

    def cost(ell):
        logl, grad = loglik_and_grad(ell, counts, setup)
        return -logl / scale, -grad / scale

    bounds = [(1e-9, 1.0) if k in _DIAG_IDX else (-1.0, 1.0) for k in range(N_PARAMS)]
    starts = [np.array([1.0, 0.0, 1e-3, 1e-3, 0.0, 1e-3])]
    while len(starts) < n_starts:
        ell = rng.uniform(-0.5, 0.5, N_PARAMS)
        ell[list(_DIAG_IDX)] = rng.uniform(0.05, 1.0, 4)
        starts.append(ell)

    best = None
    for x0 in starts:
        x0 = x0 / np.linalg.norm(x0)
        res = minimize(cost, x0, jac=True, method="L-BFGS-B", bounds=bounds,
                       options={"maxiter": 2000, "ftol": 1e-15, "gtol": 1e-9})
        if best is None or res.fun < best.fun:
            best = res
    ell = best.x / np.linalg.norm(best.x)
    return ProcessMatrix(chi_from_ell(ell), counts.t), ell


def fit_rb_decay_curve_fit(lengths, mean, se, *, shots=100, n_seq=100, **tols):
    """``fit_rb_decay`` by bounded nonlinear least squares (scipy's
    ``curve_fit``), from a log-linear first guess of lam.

    Returns (lam, popt): popt is (A, lam, B), or None where the data take
    one of the early exits (rising, all at 1, flat at 1/2).
    """
    lengths = np.asarray(lengths, dtype=float)
    mean = np.asarray(mean, dtype=float)
    noise_floor = max(float(np.max(se)), 1.0 / math.sqrt(shots * n_seq))
    trend = float(np.polyfit(lengths, mean, 1)[0] * (lengths[-1] - lengths[0]))
    if trend > 4.0 * noise_floor:
        raise FitError("benchmarking data does not decay (survival increases)")
    if np.all(mean > 1.0 - 1e-12):
        return 1.0, None
    if mean.max() - 0.5 < 4.0 * noise_floor:
        return 0.0, None
    good = mean - 0.5 > noise_floor
    slope = np.polyfit(lengths[good], np.log(mean[good] - 0.5), 1)[0] if good.sum() > 1 else -1e-3
    lam0 = float(np.clip(math.exp(slope), 1e-3, 0.999999))
    popt, _ = curve_fit(
        lambda N, A, lam, B: A * lam**N + B,
        lengths, mean, p0=(0.5, lam0, 0.5),
        bounds=([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]), maxfev=20000, **tols,
    )
    if popt[1] > 1.0 - 1e-9:
        raise FitError("benchmarking data does not decay")
    return float(popt[1]), popt


def ensemble_samples(drive, freq_noise, amp_noise=None, *, seed=0, record_every=1):
    """Per-trajectory Bloch rotations and first-order control vectors at the records.

    A plain reference for ``evolve_ensemble``'s estimator: the noise blocks
    come from the same streams, each step multiplies the (m, 2, 2) stack of
    propagators by cos(theta/2) I - i sin(theta/2)/theta (n_x sx + n_z sz),
    R_ij = tr(s_i U s_j U^dag) / 2, and the control vector sums
    (amplitude increment, n_z sin(Omega t_mid), n_z cos(Omega t_mid)) step by
    step, keeping the components of the noisy axes.  Returns R with shape
    (n_rec, m, 3, 3) and a with shape (n_rec, m, p).
    """
    m, n = drive.m_mc, drive.n_steps
    zero = np.zeros((n, m))
    nz = zero if freq_noise is None else freq_noise.increments_block(seed, range(m), n, drive.dt)
    amp = zero if amp_noise is None else amp_noise.increments_block(
        seed + 2**31, range(m), n, drive.dt)
    nx = drive.Omega * drive.dt + amp
    sigma = PAULIS[1:]
    U = np.broadcast_to(np.eye(2, dtype=complex), (m, 2, 2)).copy()
    a = np.zeros((m, 3))
    rots, ctrls = [], []

    def record():
        rots.append(0.5 * np.einsum("iab,mbc,jcd,mad->mij", sigma, U, sigma, U.conj()).real)
        keep = ([0] if amp_noise is not None else []) + ([1, 2] if freq_noise is not None else [])
        ctrls.append(a[:, keep].copy())

    record()
    for i in range(n):
        theta = np.hypot(nx[i], nz[i])
        s = np.where(theta > 0, np.sin(0.5 * theta) / np.where(theta > 0, theta, 1.0), 0.5)
        step = (np.cos(0.5 * theta)[:, None, None] * np.eye(2)
                - 1j * s[:, None, None] * (nx[i][:, None, None] * sigma[0]
                                           + nz[i][:, None, None] * sigma[2]))
        U = step @ U
        phase = drive.Omega * drive.dt * (i + 0.5)
        a += np.column_stack([amp[i], nz[i] * np.sin(phase), nz[i] * np.cos(phase)])
        if (i + 1) % record_every == 0 or i + 1 == n:
            record()
    return np.array(rots), np.array(ctrls)


def control_variate_fit(rots, ctrls, bloch0):
    """Least-squares regression of every Bloch-map entry on [1, a], per record.

    Returns the intercepts (the control-variate channel, since E[a] = 0), the
    per-state residual standard errors sqrt(SSR / (m - p - 1) / m), the plain
    means and the plain standard errors sqrt(Var / m) of Y_k = R b0_k.
    """
    n_rec, m = rots.shape[:2]
    maps, se, plain, plain_se = [], [], [], []
    for rot, a in zip(rots, ctrls):
        design = np.column_stack([np.ones(m), a])
        coef = np.linalg.lstsq(design, rot.reshape(m, 9), rcond=None)[0]
        resid = (rot.reshape(m, 9) - design @ coef).reshape(m, 3, 3)
        y = np.einsum("mij,kj->kmi", rot, bloch0)
        maps.append(coef[0].reshape(3, 3))
        ssr = (np.einsum("mij,kj->kmi", resid, bloch0) ** 2).sum(axis=1)
        se.append(np.sqrt(ssr / (m - a.shape[1] - 1) / m))
        plain.append(y.mean(axis=1))
        plain_se.append(y.std(axis=1) / math.sqrt(m))
    return (np.array(maps), np.stack(se, axis=1), np.stack(plain, axis=1),
            np.stack(plain_se, axis=1))
