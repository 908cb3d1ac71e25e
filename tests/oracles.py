"""Reference implementations that only the tests use.

Each one is an independent closed form, a plain recursion or a separate
numerical route (scipy's ODE solver, nested time quadrature) that the tests
compare the package against; no pipeline calls them, so they live here and
the package itself imports numpy only.
"""

import math

import numpy as np
from scipy.integrate import cumulative_trapezoid, solve_ivp
from scipy.linalg import expm
from scipy.optimize import curve_fit, minimize
from scipy.special import sici

from gatenoise._quadrature import adaptive_gk, cumulative_simpson
from gatenoise.channels import (
    PAULIS,
    apply_chi,
    bloch_to_rho,
    check_density_matrix,
    pauli_chi,
    rho_to_bloch,
)
from gatenoise.errors import FitError, NumericalError, ValidationError
from gatenoise.filters import FilteredIntegrals
from gatenoise.tomography import (
    _DIAG_IDX,
    _TP,
    BASIS_LABELS,
    N_PARAMS,
    N_TP,
    PROB_FLOOR,
    STATE_LABELS,
    CountRecord,
    _stack_records,
    chi_from_ell,
    clifford_table,
    default_setup,
    ell_form,
    fold_ell,
)


def snapshot(gamma1, gamma2, delta1, delta2, dgamma1=0.0):
    """One snapshot of the filtered integrals, 0-d fields as ``FilteredIntegrals.at``
    gives them (at t = 0: no builder reads the time)."""
    return FilteredIntegrals(0.0, gamma1, gamma2, delta1, delta2, dgamma1)


ZERO_POINT = snapshot(0.0, 0.0, 0.0, 0.0)


def trajectory_rng(seed, index):
    """The random stream of one trajectory: a Philox generator seeded by
    ``SeedSequence((seed, index))``.  This defines the noise sources' stream
    contract, which ``gatenoise.noise`` computes for a whole block at once."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, index))))


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


def filter_gamma1(omega, Omega, t):
    """Decay filter: (t/4) * (eta_{2/t}(Omega - w) + eta_{2/t}(Omega + w)).

    eta_{2/t}(x) = (t / 2pi) * sinc(x t / 2pi)**2 is a nascent delta, so the
    filter concentrates around w = +-Omega as t grows and the long-time
    decay rate is set by the PSD at the Rabi frequency.
    """
    omega = np.asarray(omega, dtype=float)
    k = t / (2.0 * math.pi)
    return (t * k / 4.0) * (np.sinc((Omega - omega) * k) ** 2 + np.sinc((Omega + omega) * k) ** 2)


def sin_minus_lin(z):
    """(sin z - z) / z**2 with a series branch near zero."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = np.abs(z) < 1e-4
    zs = z[small]
    out[small] = -zs / 6.0 + zs**3 / 120.0 - zs**5 / 5040.0
    zb = z[~small]
    out[~small] = (np.sin(zb) - zb) / zb**2
    return out


def filter_delta1(omega, Omega, t):
    """Coherent filter: dispersive window responsible for over/under-rotation.

    Equals ``Omega t / (2 pi (Omega^2 - w^2))`` plus its finite-time
    correction; the apparent poles at w = +-Omega cancel between the two
    pieces and are evaluated through a series expansion.
    """
    omega = np.asarray(omega, dtype=float)
    u = (omega - Omega) * t
    v = (omega + Omega) * t
    return (t * t / (4.0 * math.pi)) * (sin_minus_lin(u) - sin_minus_lin(v))


def filter_memory(omega, Omega, t):
    """Memory window M shared by Gamma2 and Delta2.

    Equals (cos(Omega t) - cos(w t)) / (2 pi (w^2 - Omega^2)), evaluated as
    the stable sinc product sin(u t/2) sin(v t/2) / (pi u v) at u, v = w -+
    Omega.
    """
    omega = np.asarray(omega, dtype=float)
    k = t / (2.0 * math.pi)
    return (t * t / (4.0 * math.pi)) * np.sinc((omega - Omega) * k) * np.sinc((omega + Omega) * k)


def windows(omega, Omega, t, n, out=None):
    """The first ``n`` of the windows (F_Gamma1, F_Delta1, M) from their sinc
    formulas, stacked as rows: a drop-in for ``filters._windows``."""
    rows = np.stack([f(omega, Omega, t) for f in (filter_gamma1, filter_delta1, filter_memory)[:n]])
    if out is None:
        return rows
    out[...] = rows
    return out


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


def filtered_integrals_timedomain(autocov, Omega, times, *, n_grid=None, rtol=1e-7):
    """Filtered integrals from the autocovariance by nested time quadrature.

    The four kernels reduce to the two primitive integrals
    ``g1(t) = Int_0^t C(u) cos(Omega u) du`` and
    ``h1(t) = Int_0^t C(u) sin(Omega u) du`` through::

        gamma1 = g1                      delta1 = h1
        gamma2 = cos(2 Omega t) g1 + sin(2 Omega t) h1
        delta2 = sin(2 Omega t) g1 - cos(2 Omega t) h1

    followed by one cumulative integration.  Entirely independent of the
    frequency-domain quadrature, so it serves as an oracle for it.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0):
        raise ValidationError("times must be nonnegative")
    t_max = float(times.max())
    if t_max == 0.0:
        z = np.zeros(times.size)
        return FilteredIntegrals(times, z, z.copy(), z.copy(), z.copy())

    if n_grid is None:
        cycles = Omega * t_max / (2.0 * math.pi)
        n_grid = int(max(4096, 80 * cycles))
        n_grid = min(n_grid, 2**21)

    prev = None
    for _ in range(6):
        n = n_grid + 1 - (n_grid % 2)  # odd point count for Simpson
        u, h = np.linspace(0.0, t_max, n, retstep=True)
        cu = np.asarray(autocov(u), dtype=float)
        g1 = cumulative_simpson(cu * np.cos(Omega * u), h)
        h1 = cumulative_simpson(cu * np.sin(Omega * u), h)
        c2, s2 = np.cos(2.0 * Omega * u), np.sin(2.0 * Omega * u)
        kernels = {
            "gamma1": g1,
            "delta1": h1,
            "gamma2": c2 * g1 + s2 * h1,
            "delta2": s2 * g1 - c2 * h1,
        }
        vals = {
            k: np.interp(times, u, cumulative_simpson(v, h))
            for k, v in kernels.items()
        }
        if prev is not None:
            scale = max(abs(vals["gamma1"]).max(), 1e-300)
            drift = max(np.abs(vals[k] - prev[k]).max() for k in vals)
            if drift <= rtol * scale:
                break
        prev = vals
        n_grid *= 2
        if n_grid > 2**21:
            break
    return FilteredIntegrals(times, vals["gamma1"], vals["gamma2"],
                             vals["delta1"], vals["delta2"])


def ou_kernels(c, tau_c, Omega, times):
    """Instantaneous kernels (g1, h1) for OU noise, in closed form.

    ``g1`` is the decay rate of the dressed populations; together with
    ``h1`` it determines the canonical rates of the time-local generator.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    a = Omega * tau_c
    D = 1.0 + a * a
    S = c * tau_c**2 / D
    E = np.exp(-times / tau_c)
    sin_ot = np.sin(Omega * times)
    cos_ot = np.cos(Omega * times)
    g1 = 0.5 * S * (1.0 - E * (cos_ot - a * sin_ot))
    h1 = 0.5 * S * (a - E * (a * cos_ot + sin_ot))
    return g1, h1


def nm_measure_ou(c, tau_c, Omega, t_max, n_grid, amp=None):
    """``nm_measure`` for OU noise with the closed-form kernels ``ou_kernels``.

    Same uniform grid and the same cumulative trapezoid over the negative
    part of the smaller canonical rate ``(g_eff - sqrt(g1^2 + h1^2)) / 4``;
    only the kernels are exact.  ``amp = (c_a, tau_a)`` adds OU amplitude
    noise, ``g_eff = g1 + c_a tau_a^2 (1 - exp(-t / tau_a))``; without it
    ``g_eff = g1``.  Returns (times, N(t)).
    """
    times, h = np.linspace(0.0, t_max, n_grid, retstep=True)
    g1, h1 = ou_kernels(c, tau_c, Omega, times)
    g_eff = g1
    if amp is not None:
        c_a, tau_a = amp
        g_eff = g1 - c_a * tau_a**2 * np.expm1(-times / tau_a)
    negativity = np.maximum(0.0, -0.25 * (g_eff - np.sqrt(g1**2 + h1**2)))
    return times, cumulative_trapezoid(negativity, dx=h, initial=0.0)


def kraus_to_chi(kraus):
    """Process matrix, (..., 4, 4), of (..., n, 2, 2) Kraus operators in the
    plain Pauli basis."""
    coeff = 0.5 * np.einsum("aij,...nji->...an", PAULIS, np.asarray(kraus))
    return coeff @ np.swapaxes(coeff.conj(), -1, -2)


def ptm(chi):
    """Pauli transfer matrix R_ab = (1/2) tr[s_a E(s_b)] (affine row included)
    of a (4, 4) chi; Kraus operators go through :func:`kraus_to_chi`."""
    images = apply_chi(chi, PAULIS)
    return 0.5 * np.einsum("aij,bji->ab", PAULIS, images).real


def _hermitian_basis():
    """(16, 4, 4) basis, over the reals, of the Hermitian 4x4 matrices: the
    four diagonal units, then for each pair a < b the symmetric and
    antisymmetric units."""
    diag = np.zeros((4, 4, 4), dtype=complex)
    diag[np.arange(4), np.arange(4), np.arange(4)] = 1.0
    a, b = np.triu_indices(4, 1)
    pair = np.arange(a.size)
    off = np.zeros((a.size, 2, 4, 4), dtype=complex)
    off[pair, 0, a, b] = off[pair, 0, b, a] = 1.0
    off[pair, 1, a, b] = 1.0j
    off[pair, 1, b, a] = -1.0j
    return np.concatenate([diag, off.reshape(-1, 4, 4)])


def linear_inversion_lstsq(probs, setup=None):
    """``linear_inversion`` by least squares: the 24 outcome equations and the
    trace-preservation constraints sum chi_ab s_b s_a = I (weighted 100) in
    the 16-real-parameter Hermitian space."""
    setup = setup or default_setup()
    basis = _hermitian_basis()
    rows = np.einsum("sbmij,kji->sbmk", setup.d_matrices, basis).real
    # tp[c, k] = sum_ab B_k,ab (1/2) tr(s_c s_b s_a)
    tp = 0.5 * np.einsum("kab,cij,bjl,ali->ck", basis, PAULIS, PAULIS, PAULIS)
    tp_rows = np.stack([tp.real, tp.imag], axis=1).reshape(8, basis.shape[0])
    tp_rhs = np.zeros(8)
    tp_rhs[0] = 1.0
    A = np.vstack([rows.reshape(-1, basis.shape[0]), 100.0 * tp_rows])
    y = np.concatenate([np.asarray(probs, dtype=float).reshape(-1), 100.0 * tp_rhs])
    x, *_ = np.linalg.lstsq(A, y, rcond=None)
    return np.einsum("k,kij->ij", x, basis)


def ou_exact_bloch_map(c, tau_c, Omega, t, levels=16):
    """Exact ensemble-mean lab-frame Bloch map at time t under OU dephasing noise.

    dr/dt = (Omega, 0, eta) x r with eta stationary OU (variance s^2 = c tau_c
    / 2, rate g = 1 / tau_c): Kubo's stochastic Liouville equation in Hermite
    functions of eta, dc_n/dt = (A - n g) c_n + s B (sqrt(n) c_{n-1} +
    sqrt(n + 1) c_{n+1}), c_0(0) = r0, E[r(t)] = c_0(t), A and B the cross
    products with (Omega, 0, 0) and (0, 0, 1); truncated at ``levels``.
    """
    s, g = math.sqrt(0.5 * c * tau_c), 1.0 / tau_c
    A = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -Omega], [0.0, Omega, 0.0]])
    B = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    G = np.zeros((levels, 3, levels, 3))
    for n in range(levels):
        G[n, :, n] = A - n * g * np.eye(3)
        if n:
            G[n, :, n - 1] = G[n - 1, :, n] = s * math.sqrt(n) * B
    return expm(G.reshape(3 * levels, 3 * levels) * t)[:3, :3]


def master_equation_evolve(rho0, kernels, Omega, times, amp_rate=None):
    """Exact solution of the second-order dressed master equation.

    Integrates the comoving Bloch equations driven by the instantaneous
    kernels rather than using the closed (first-order Magnus) map, so it is
    free of the O((noise power)^2) truncation error of the closed map
    ``apply_chi(chi_nm(point), rho)``.  This is the reference "analytic map" used for
    tight Monte Carlo cross-checks.

    Parameters
    ----------
    rho0 : (2, 2) array
    kernels : callable
        Maps an array of times to the pair (g1, h1) of cosine/sine overlap
        kernels of the noise autocovariance, e.g.
        ``lambda t: ou_kernels(c, tau_c, Omega, t)``.
    amp_rate : callable, optional
        Instantaneous amplitude-noise decay rate 2*Int_0^t C_amp(u) du.

    Returns
    -------
    list of (2, 2) arrays, comoving-frame states at ``times``.
    """
    rho0 = check_density_matrix(rho0)
    r = rho_to_bloch(rho0)
    v0 = np.array([r[2], -r[1], r[0]])  # dressed components (v1, v2, v3)

    def rhs(t, v):
        g1, h1 = kernels(np.array([t]))
        g1, h1 = float(g1[0]), float(h1[0])
        ct, st = math.cos(Omega * t), math.sin(Omega * t)
        a = ct * g1 + st * h1
        b = st * g1 - ct * h1
        pv = ct * v[0] - st * v[1]
        extra = 0.5 * float(amp_rate(t)) if amp_rate is not None else 0.0
        return [
            a * pv - (g1 + extra) * v[0],
            -b * pv - (g1 + extra) * v[1],
            -g1 * v[2],
        ]

    times = np.asarray(times, dtype=float)
    t_max = float(times.max())
    sol = solve_ivp(rhs, [0.0, t_max], v0, t_eval=times, rtol=1e-10, atol=1e-12,
                    max_step=max(t_max / 200.0, 1e-12))
    if not sol.success:
        raise NumericalError(f"master-equation integration failed: {sol.message}")
    v1, v2, v3 = sol.y
    return list(bloch_to_rho(np.stack([v3, -v2, v1], axis=-1)))


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
    pulses = [ptm(kraus_to_chi([U])) for U in pulse_unitaries()]
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


def depolarizing_rb_lambda(p):
    """Analytic per-Clifford decay for per-pulse depolarizing noise p.

    Each pulse contracts the Bloch vector by mu = 1 - 4p/3; a Clifford with
    k pulses contributes mu^k, so the sequence-averaged decay per Clifford
    is the table average of mu^k.
    """
    mu = 1.0 - 4.0 * p / 3.0
    return float(np.mean([mu ** len(word) for _, word in clifford_table()]))


class ConstantSource:
    """Deterministic constant offset (useful for detuning checks)."""

    def __init__(self, value):
        self.value = float(value)

    def increments_block(self, seed, indices, n_steps, dt):
        return np.full((n_steps, len(indices)), self.value * dt)

    def increment_autocovariance(self, n_steps, dt):
        return np.zeros(n_steps)


def sample_shots_per_shot(probs, n_shots, rng, t=0.0):
    """Bernoulli-sample a CountRecord from Born probabilities.

    Each shot compares a uniform draw with the conditional success
    probability ``3 p(+)`` (the POVM weight removed), so counts are
    binomial and the pair (+, -) always sums to the shot number.
    """
    shots = np.broadcast_to(np.asarray(n_shots, dtype=int), (4, 3))
    # one uniform draw per shot, pair after pair in (state, basis) order
    pair_of_shot = np.repeat(np.arange(12), shots.ravel())
    p_plus = np.clip(3.0 * np.asarray(probs)[:, :, 0], 0.0, 1.0).ravel()[pair_of_shot]
    hits = rng.random(pair_of_shot.size) < p_plus
    n_plus = np.bincount(pair_of_shot[hits], minlength=12).reshape(4, 3)
    return CountRecord(t=t, shots=shots, counts=np.stack([n_plus, shots - n_plus], axis=2))


def frequencies(rec):
    """Observed outcome frequencies of a CountRecord, scaled like Born
    probabilities (each basis weighted 1/3); 0 where a pair has no shots."""
    with np.errstate(invalid="ignore", divide="ignore"):
        freq = rec.counts / (3.0 * rec.shots[:, :, None])
    return np.nan_to_num(freq)


def counts_to_csv(records, path):
    """Write CountRecords as the counts CSV that ``counts_from_csv`` reads."""
    with open(path, "w") as fh:
        fh.write("state,basis,time_s,n_plus,n_minus\n")
        for rec in records:
            for s, sl in enumerate(STATE_LABELS):
                for b, bl in enumerate(BASIS_LABELS):
                    fh.write(f"{sl},{bl},{float(rec.t)!r},"
                             f"{rec.counts[s, b, 0]},{rec.counts[s, b, 1]}\n")


def log_likelihood(probs, counts, *, grad=False):
    """Multinomial log-likelihood sum c log p of one record's Born
    probabilities ``probs[s, b, m]``, each floored at ``PROB_FLOOR``, written
    out for that one record.  With ``grad`` the derivative in ``probs`` (at
    the floored values) is returned as well.
    """
    p = np.maximum(probs, PROB_FLOOR)
    logl = float(np.log(p).ravel() @ counts.counts.ravel())
    if not grad:
        return logl
    return logl, counts.counts / p


def _born_terms(ell, q_forms):
    """(Q ell / |ell|^2, p) with p = ell^T Q ell / |ell|^2 the Born probabilities;
    ``q_forms`` is ``ell_form(setup.d_matrices)``."""
    q_ell = (q_forms.reshape(-1, N_PARAMS) @ ell).reshape(4, 3, 2, N_PARAMS)
    q_ell /= ell @ ell
    return q_ell, q_ell @ ell


def mh_chain_scalar(counts, setup=None, *, n_steps=100000, width=0.02, seed=0,
                    burn_in_frac=0.1):
    """Metropolis-Hastings on the S^4 of trace-preserving entries (l34 = 0)
    one step at a time on :func:`log_likelihood`.

    The same start, proposals, accept rule and burn-in width tuning as
    ``mh_chain``, drawn from the same ``default_rng(seed)`` stream in the
    same block order (all the standard normal 5-vectors, then all the
    uniforms), but scored one proposal at a time on the 6-entry forms.
    Returns (kept folded 6-entry ells, post-burn-in acceptance rate, width
    after tuning).
    """
    q_forms = ell_form((setup or default_setup()).d_matrices)
    n_burn = int(burn_in_frac * n_steps)
    rng = np.random.default_rng(seed)
    normals = np.zeros((n_steps, N_PARAMS))
    normals[:, _TP] = rng.standard_normal((n_steps, N_TP))
    uniforms = rng.random(n_steps)
    ell = np.array([1.0, 0.0, 0.05, 0.05, 0.0, 0.05])
    ell /= np.linalg.norm(ell)
    logl = log_likelihood(_born_terms(ell, q_forms)[1], counts)
    chain = np.empty((n_steps, N_PARAMS))
    accepted = np.zeros(n_steps, dtype=bool)
    window = max(1, min(200, n_burn // 4))
    for step in range(n_steps):
        prop = ell + width * normals[step]
        prop /= math.sqrt(prop @ prop)
        logl_prop = log_likelihood(_born_terms(prop, q_forms)[1], counts)
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
    q_ell, probs = _born_terms(ell, ell_form(setup.d_matrices))
    logl, weight = log_likelihood(probs, counts, grad=True)
    grad = 2.0 * (weight.ravel() @ q_ell.reshape(-1, N_PARAMS)
                  - float(weight.ravel() @ probs.ravel()) * ell / (ell @ ell))
    return logl, grad


def mle_fit_lbfgsb(counts, setup=None, *, n_starts=8, seed=0):
    """Bounded L-BFGS-B maximum likelihood on the trace-preserving entries of
    the block-Cholesky vector (l34 = 0).

    Minimizes the negative log-likelihood per count over the 5 entries from
    the identity-channel start plus ``n_starts - 1`` random positive draws
    of one shared ``default_rng(seed)``, one scipy run per start.  Returns
    ((4, 4) chi, 6-entry ell).
    """
    setup = setup or default_setup()
    _stack_records([counts])  # rejects a (state, basis) pair without shots
    rng = np.random.default_rng(seed)
    scale = float(counts.counts.sum()) or 1.0

    def padded(x):
        ell = np.zeros(N_PARAMS)
        ell[_TP] = x
        return ell

    def cost(x):
        logl, grad = loglik_and_grad(padded(x), counts, setup)
        return -logl / scale, -grad[_TP] / scale

    bounds = [(1e-9, 1.0) if k in _DIAG_IDX else (-1.0, 1.0) for k in range(N_TP)]
    starts = [np.array([1.0, 0.0, 1e-3, 1e-3, 1e-3])]
    while len(starts) < n_starts:
        x = rng.uniform(-0.5, 0.5, N_TP)
        x[list(_DIAG_IDX)] = rng.uniform(0.05, 1.0, 4)
        starts.append(x)

    best = None
    for x0 in starts:
        x0 = x0 / np.linalg.norm(x0)
        res = minimize(cost, x0, jac=True, method="L-BFGS-B", bounds=bounds,
                       options={"maxiter": 2000, "ftol": 1e-15, "gtol": 1e-9})
        if best is None or res.fun < best.fun:
            best = res
    ell = padded(best.x / np.linalg.norm(best.x))
    return chi_from_ell(ell), ell


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


def control_means(drive, freq_noise, amp_noise=None, *, record_every=1):
    """E[a_p a_q] of the first-order control vector at the records, (n_rec, p, p).

    The plain O(n^2) double sum sum_{i, l < n_j} w_pi w_ql gamma_|i-l| over the
    steps before each record, in ``ensemble_samples``' component order
    (a_x, a_y, a_z) of the noisy axes, with weights 1 and sin, cos(Omega
    t_mid), gamma each source's ``increment_autocovariance``, and 0 between
    the independent sources.
    """
    n = drive.n_steps
    phase = drive.Omega * drive.dt * (np.arange(n) + 0.5)
    blocks = [(w, src) for w, src in ((np.ones((1, n)), amp_noise),
                                      (np.stack([np.sin(phase), np.cos(phase)]), freq_noise))
              if src is not None]
    rec = [0] + [i + 1 for i in range(n) if (i + 1) % record_every == 0 or i + 1 == n]
    out = np.zeros((len(rec), 3, 3))
    lo = 0
    for w, src in blocks:
        gamma = src.increment_autocovariance(n, drive.dt)
        cov = gamma[np.abs(np.subtract.outer(np.arange(n), np.arange(n)))]
        for j, nj in enumerate(rec):
            out[j, lo:lo + len(w), lo:lo + len(w)] = w[:, :nj] @ cov[:nj, :nj] @ w[:, :nj].T
        lo += len(w)
    return out[:, :lo, :lo]


def control_variate_fit(rots, ctrls, bloch0, means=None):
    """Least-squares regression of every Bloch-map entry on [1, a, a_p a_q - E],
    per record, the unique products (p <= q) less their exact means ``means``
    ((n_rec, p, p), ``control_means``); on [1, a] alone if ``means`` is None.

    Returns the intercepts (the control-variate channel, since every control
    has mean 0), the per-state standard errors of the intercepts, sqrt(SSR /
    (m - p - 1) [(D^T D)^-1]_00) for the design D with p columns of controls
    (its pseudo-inverse at t = 0, where no control varies),
    the plain means and the plain standard errors sqrt(Var / m) of Y_k = R b0_k.
    """
    n_rec, m = rots.shape[:2]
    iu, ju = np.triu_indices(0 if means is None else ctrls.shape[2])
    if means is None:
        means = np.zeros((n_rec, 0, 0))
    maps, se, plain, plain_se = [], [], [], []
    for rot, a, mean in zip(rots, ctrls, means):
        design = np.column_stack([np.ones(m), a, a[:, iu] * a[:, ju] - mean[iu, ju]])
        coef = np.linalg.lstsq(design, rot.reshape(m, 9), rcond=None)[0]
        resid = (rot.reshape(m, 9) - design @ coef).reshape(m, 3, 3)
        y = np.einsum("mij,kj->kmi", rot, bloch0)
        maps.append(coef[0].reshape(3, 3))
        ssr = (np.einsum("mij,kj->kmi", resid, bloch0) ** 2).sum(axis=1)
        row = np.linalg.pinv(design)[0]   # row @ row = [(D^T D)^-1]_00
        se.append(np.sqrt(ssr / (m - design.shape[1]) * (row @ row)))
        plain.append(y.mean(axis=1))
        plain_se.append(y.std(axis=1) / math.sqrt(m))
    return (np.array(maps), np.stack(se, axis=1), np.stack(plain, axis=1),
            np.stack(plain_se, axis=1))
