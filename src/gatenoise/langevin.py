"""Quasi-exact stochastic simulator for a driven qubit under multiplicative noise.

Solves the amplitude equation

    dc/dt = -(i/2) (Omega + dOmega(t)) sigma_x c - (i/2) domega(t) sigma_z c

per noise trajectory.  The noise is held constant within each step, so a step
is the exact SU(2) rotation exp(-(i/2)(n_x sigma_x + n_z sigma_z)) with
n_x = Omega dt + amplitude increment and n_z = dephasing increment.  Each
trajectory evolves its propagator U once; the ensemble mean of its Bloch
rotation is the whole Monte Carlo channel (unital, as every U is unitary),
and every input state, mixed ones included, maps through it with the same
noise draws (common random numbers).  Up to time-step and sampling error
this is an exact reference for the analytic channel constructions, since it
makes none of their approximations.

Steps are applied slab by slab.  A chunk of m trajectories cuts each record
interval into slabs of up to ``SLAB_SIZE // m`` steps and computes the
rotation coefficients of a whole slab at once, from one tangent of a
quarter angle per step (``_half_angle_terms``).  Each step then updates the
first column (a, b) of every U, held as one (2, m) array, in one fused
update (a, b) <- (u a + v b, u* b + v a): three array calls per step.

The mean is a control-variate estimate (Glasserman, Monte Carlo Methods in
Financial Engineering, 2004, sec. 4.1).  Along each trajectory the step also
sums the first-order (filter-function) rotation vector of the noise in the
drive's toggling frame, a = sum over steps of (n_z sin(Omega t_mid), n_z
cos(Omega t_mid), amplitude increment) (Green et al., New J. Phys. 15,
095004, 2013), one component per noisy axis.  The controls are a and, at
second order, its unique products a_p a_q less their exact means, which
``_control_moments`` sums from the autocovariance each source returns for
its own increments, so they borrow nothing from the analytic models.  Every
Bloch-map entry is regressed on the controls with an intercept, and the
channel is the intercept.  The products enter only with ``TRAJ_PER_CONTROL``
trajectories per control.  ``pauli_mean`` is that adjusted mean applied to
each input state, ``pauli_se`` the intercept's standard error sqrt(SSR /
(m - r - 1) (1/m + abar^T S^-1 abar)) for the r resolved controls, their
mean abar and centred cross products S, and ``plain_se`` that of the plain
sample mean.  The adjusted mean is unbiased up to O(1/m), but need
not be exactly a physical state: its deviation from one is within its
standard error.  A record with no resolved control, or with m <= r + 1
trajectories, keeps the plain estimate.

All of it is read off the mean and the R factor of the centred z =
(controls, vec R) per record (TSQR: Demmel et al., SIAM J. Sci. Comput. 34,
A206, 2012).  Each chunk factors row blocks of ``TSQR_ROWS`` trajectories,
and one QR merges the blocks' factors and the chunks' mean offsets in job
order, so no sum of squares is a difference of moments and the
worker count changes no bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import bloch_to_rho, check_density_matrix, rho_to_bloch
from .errors import NumericalError, ValidationError, _check_count

# Largest tolerated deviation of a propagator from unitarity, |a|^2 + |b|^2 - 1.
MAX_NORM_DRIFT = 1e-6

# Default step over the shortest dynamical scale; test_dt_halving_convergence
# backs this value, and ROADMAP direction 1 re-judges it.
STEP_FRACTION = 0.002

# Trajectory-steps per slab of step coefficients: a chunk of m trajectories
# computes the coefficients of max(1, SLAB_SIZE // m) steps at a time, never
# more than one record interval's, so the slab's buffers (1.25 MB at most
# when m <= SLAB_SIZE) stay in cache.
SLAB_SIZE = 1 << 14

# Row blocks of a chunk's per-record QR, one stacked call: 2x faster at 4096 rows.
TSQR_ROWS = 512

# Trajectories per control that the products a_p a_q need: with fewer (40 per
# control at m = 200 under dephasing) the residual error of the quadratic fit
# understates its scatter by 20% in rms, so only the linear a enters.
TRAJ_PER_CONTROL = 100

# A control is resolved when the standard deviation it keeps beyond the mean
# and the resolved controls before it exceeds this fraction of its exact one.
RANK_TOL = 1e-6


@dataclass
class DriveConfig:
    """Resonant drive and integration parameters.

    Omega is the Rabi frequency (rad/s), dt the step, n_steps the number of
    steps and m_mc the ensemble size.
    """

    Omega: float
    dt: float
    n_steps: int
    m_mc: int

    def __post_init__(self):
        if not (math.isfinite(self.Omega) and self.Omega > 0
                and math.isfinite(self.dt) and self.dt > 0):
            raise ValidationError("Omega and dt must be positive and finite")
        _check_count("n_steps", self.n_steps)
        _check_count("m_mc", self.m_mc)


def default_timestep(Omega, tau_c=None):
    """Step heuristic: ``STEP_FRACTION`` of the shortest dynamical scale."""
    scale = 2.0 * math.pi / Omega
    if tau_c is not None:
        scale = min(scale, tau_c)
    return STEP_FRACTION * scale


@dataclass
class DensityTrajectory:
    """Ensemble-averaged states, Pauli expectations and channel on the time grid.

    For a stack of input states the per-state arrays carry the stack's
    leading axes first.
    The channel at ``times[k]`` maps Bloch vectors as r -> bloch_map[k] @ r.
    """

    times: np.ndarray
    states: np.ndarray          # (..., n_times, 2, 2) complex
    pauli_mean: np.ndarray      # (..., n_times, 3): <sx>, <sy>, <sz>
    pauli_se: np.ndarray        # (..., n_times, 3) standard errors
    plain_se: np.ndarray        # (..., n_times, 3) standard errors of the plain mean
    bloch_map: np.ndarray       # (n_times, 3, 3)
    max_norm_drift: float = 0.0


def _bloch_rotation(a, b):
    """Bloch-vector rotation of U = [[a, -b*], [b, a*]], shape (3, 3, m).

    With U = w - i (x sx + y sy + z sz): w = Re a, z = -Im a, y = Re b,
    x = -Im b, and U rho U^dag rotates the Bloch vector by the matrix below.
    """
    w, x, y, z = a.real, -b.imag, b.real, -a.imag
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def _half_angle_terms(theta, tau, s, cos):
    """cos(theta/2) = (1 - tau^2) / (1 + tau^2) into ``cos`` and s = sin(theta/2)
    / theta = 2 tau / ((1 + tau^2) theta) into ``s`` (0 at theta = 0), tau =
    tan(theta/4); overwrites ``theta`` and ``tau``.  numpy 2.4.6's float64 tan
    is SIMD and sin, cos are not, so this takes half their time (re-measure)."""
    np.tan(np.multiply(0.25, theta, out=tau), out=tau)
    np.multiply(tau, tau, out=s)
    np.subtract(1.0, s, out=cos)
    s += 1.0
    np.divide(cos, s, out=cos)
    np.multiply(s, np.maximum(theta, 1e-300, out=theta), out=s)
    np.divide(tau, s, out=s)
    s *= 2.0


def _control_moments(drive, freq_noise, amp_noise, rec_idx):
    """Weights w (p, n_steps) of the linear controls a_p = sum_i w_pi inc_i,
    (sin, cos)(Omega t_mid) on dephasing and 1 on amplitude increments, and
    E[a_p a_q] (n_rec, p, p): sum_{i<n_j} w_pi w_qi gamma_0 + w_pi c_qi + w_qi
    c_pi, c_i = sum_{l<i} gamma_{i-l} w_l by one causal FFT convolution per
    row; the sources are independent."""
    n = drive.n_steps
    phase = drive.Omega * drive.dt * (np.arange(n) + 0.5)
    rows = [(w, src) for w, src in ((np.stack([np.sin(phase), np.cos(phase)]), freq_noise),
                                    (np.ones((1, n)), amp_noise)) if src is not None]
    weights = np.concatenate([w for w, _ in rows] + [np.empty((0, n))])
    moments = np.zeros((rec_idx.size, len(weights), len(weights)))
    lo = 0
    for w, src in rows:
        gamma, hi = src.increment_autocovariance(n, drive.dt), lo + len(w)
        c = np.zeros_like(w)
        c[:, 1:] = np.fft.irfft(np.fft.rfft(w, 2 * n) * np.fft.rfft(gamma[1:], 2 * n))[:, :n - 1]
        terms = np.cumsum(gamma[0] * w[:, None] * w + w[:, None] * c + c[:, None] * w, axis=-1)
        moments[1:, lo:hi, lo:hi] = np.moveaxis(terms[..., rec_idx[1:] - 1], -1, 0)
        lo = hi
    return weights, moments


def _control_variate(mean, rfac, sd, bloch0, m):
    """Control-variate channel, means, standard errors and plain standard errors.

    Per record t: mean[t] is the ensemble mean of z = (controls less their
    exact means, vec R), rfac[t] an upper-triangular factor of its centred
    cross products and sd[t] the controls' exact standard deviations; per
    input state k, Y_k = R b0_k.
    """
    n_rec, p = sd.shape
    bloch_map = mean[:, p:].reshape(n_rec, 3, 3).copy()
    plain_se, se = np.zeros((2, len(bloch0), n_rec, 3))
    sum_sq = lambda r: (np.einsum("rij,kj->kri", r.reshape(-1, 3, 3), bloch0) ** 2).sum(axis=1)
    scale = np.divide(1.0, sd, out=np.zeros_like(sd), where=sd > 0)
    for j in range(n_rec):
        # all rows of the factor hold the centred Y, those below the controls its residual
        plain_se[:, j] = se[:, j] = np.sqrt(sum_sq(rfac[j][:, p:])) / m
        if not scale[j].any():   # no control varies (t = 0, no noise power)
            continue
        # greedy rank rule on the controls at unit exact standard deviation (0
        # for one with none): drop an unresolved control, refactor the rest
        r, a_mean, k = rfac[j] * np.append(scale[j], np.ones(9)), mean[j, :p] * scale[j], 0
        while k < a_mean.size:
            if abs(r[k, k]) > RANK_TOL * math.sqrt(m):
                k += 1
            else:
                r, a_mean = np.linalg.qr(np.delete(r, k, axis=1), mode="r"), np.delete(a_mean, k)
        if 0 < k < m - 1:
            bloch_map[j] -= (a_mean @ np.linalg.solve(r[:k, :k], r[:k, k:])).reshape(3, 3)
            g = np.linalg.solve(r[:k, :k].T, a_mean)   # g.g = abar^T S^-1 abar
            se[:, j] = np.sqrt(sum_sq(r[k:, k:]) / (m - k - 1) * (1.0 / m + g @ g))
    return bloch_map, np.einsum("tij,kj->kti", bloch_map, bloch0), se, plain_se


def evolve_ensemble(rho0, drive, freq_noise, amp_noise=None, *, seed=0,
                    record_every=1, chunk=4096, n_workers=1):
    """Ensemble-average the stochastic evolution of ``rho0``.

    Parameters
    ----------
    rho0 : (..., 2, 2) array
        One initial state or a stack of them.  Every state is mapped by the
        same propagators, so the stack shares its random numbers.
    drive : DriveConfig
    freq_noise, amp_noise : noise sources or None
        Objects whose ``increments_block(seed, indices, n_steps, dt)`` returns
        a time-major ``(n_steps, m)`` block of per-step noise integrals; any
        other shape raises ``ValidationError``, but no shape check can catch
        the transposed layout when m == n_steps.  Their
        ``increment_autocovariance(n_steps, dt)`` gives the control means.
        ``None``: no noise there.
    seed : int
        Master seed; trajectory ``i`` always uses stream ``(seed, i)`` for
        the frequency noise and ``(seed + 2**31, i)`` for amplitude noise,
        so results do not depend on chunking or worker count.
    record_every : int
        Record the state every this many steps (t=0 always included).

    Returns
    -------
    DensityTrajectory
        Per-state arrays lead with the stack axes of ``rho0``.  Means and
        ``pauli_se`` are those of the control-variate estimator (module
        docstring); ``plain_se`` is the plain sample mean's.
    """
    for name, value in (("record_every", record_every), ("chunk", chunk),
                        ("n_workers", n_workers)):
        _check_count(name, value)
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape[-2:] != (2, 2):
        raise ValidationError("initial states must be 2x2 density matrices")
    lead = rho0.shape[:-2]
    flat = rho0.reshape(-1, 2, 2)
    for rho in flat:
        check_density_matrix(rho)
    bloch0 = rho_to_bloch(flat)

    rec_idx = np.arange(0, drive.n_steps + 1, record_every)
    if rec_idx[-1] != drive.n_steps:
        rec_idx = np.append(rec_idx, drive.n_steps)
    n_rec = rec_idx.size
    intervals = list(zip(np.append(0, rec_idx[:-1]), rec_idx))   # steps before each record
    omega_dt = drive.Omega * drive.dt
    weights, moments = _control_moments(drive, freq_noise, amp_noise, rec_idx)
    # controls: the linear a, then its unique products a_p a_q (p <= q) if m
    # gives each control TRAJ_PER_CONTROL trajectories
    n_lin = len(weights)
    iu, ju = np.triu_indices(n_lin)
    if drive.m_mc < TRAJ_PER_CONTROL * (n_lin + iu.size):
        iu, ju = iu[:0], ju[:0]
    d = n_lin + iu.size + 9
    jobs = [(lo, min(lo + chunk, drive.m_mc)) for lo in range(0, drive.m_mc, chunk)]

    def steps_block(source, stream_seed, idx, axis):
        if source is None:
            return None
        block = source.increments_block(stream_seed, idx, drive.n_steps, drive.dt)
        if np.shape(block) != (drive.n_steps, len(idx)):
            raise ValidationError(f"{axis} noise block has shape {np.shape(block)}, expected "
                                  f"(n_steps, m) = {(drive.n_steps, len(idx))}")
        return block

    def run_chunk(job):
        lo, hi = job
        idx = range(lo, hi)
        m = hi - lo
        freq_inc = steps_block(freq_noise, seed, idx, "frequency")
        amp_inc = steps_block(amp_noise, seed + 2**31, idx, "amplitude")
        # first column (a, b) of U = [[a, -b*], [b, a*]] as one array; ba swaps its rows
        ab = np.zeros((2, m), dtype=complex)
        ab[0] = 1.0
        ba = ab[::-1]
        vab = np.empty_like(ab)
        slab = min(max(1, SLAB_SIZE // m), record_every, drive.n_steps)
        # slab buffers, reused: fresh temporaries of a slab's size cost page faults
        nx_buf, theta_buf, tau_buf, s_buf = np.empty((4, slab, m))
        uu = np.empty((slab, 2, m), dtype=complex)
        v_buf = np.empty((slab, m), dtype=complex)
        # z = (a, products, vec R), a = (a_y, a_z) with dephasing noise, then a_x;
        # its centred copy in row blocks (the zero padding adds nothing)
        z = np.zeros((d, m))
        ctrl, n_blk = z[:n_lin], -(-m // TSQR_ROWS)
        dev = np.zeros((d, n_blk * -(-m // n_blk)))
        leaves = dev.reshape(d, n_blk, -1).transpose(1, 2, 0)
        mean = np.empty((n_rec, d))
        factors = []
        max_drift = 0.0
        for j, (start, stop) in enumerate(intervals):
            for i0 in range(start, stop, slab):
                i1 = min(i0 + slab, stop)
                n = i1 - i0
                nx = omega_dt if amp_inc is None else np.add(omega_dt, amp_inc[i0:i1],
                                                             out=nx_buf[:n])
                nz = 0.0 if freq_inc is None else freq_inc[i0:i1]
                # exp(-(i/2)(nx sx + nz sz)) = [[u, v], [v, u*]] with u = cos(theta/2) - i s nz,
                # v = -i s nx and s = sin(theta/2) / theta; uu[k] holds (u, u*) of step i0 + k
                theta, tau, s, v = theta_buf[:n], tau_buf[:n], s_buf[:n], v_buf[:n]
                u, uc = uu[:n, 0], uu[:n, 1]
                nx2 = omega_dt * omega_dt if amp_inc is None else np.multiply(nx, nx, out=theta)
                np.add(nx2, np.multiply(nz, nz, out=tau), out=theta)
                _half_angle_terms(np.sqrt(theta, out=theta), tau, s, uc.real)
                np.multiply(s, nz, out=uc.imag)
                np.conjugate(uc, out=u)
                np.multiply(-1j, np.multiply(s, nx, out=theta), out=v)
                # (a, b) <- (u a + v b, u* b + v a)
                for k in range(n):
                    np.multiply(ba, v[k], out=vab)
                    ab *= uu[k]
                    ab += vab
            if freq_inc is not None:
                ctrl[:2] += np.einsum("sl,lm->sm", weights[:2, start:stop], freq_inc[start:stop])
            if amp_inc is not None:
                ctrl[-1] += amp_inc[start:stop].sum(axis=0)
            a, b = ab
            np.multiply(ctrl[iu], ctrl[ju], out=z[n_lin:-9])
            z[-9:] = _bloch_rotation(a, b).reshape(9, m)
            mean[j] = z.mean(axis=1)
            np.subtract(z, mean[j][:, None], out=dev[:, :m])
            factors.append(np.linalg.qr(leaves, mode="r").reshape(-1, d))
            drift = np.abs(a.real**2 + a.imag**2 + b.real**2 + b.imag**2 - 1.0).max()
            max_drift = np.maximum(max_drift, drift)   # keeps a NaN
        return m, mean, np.stack(factors), max_drift

    if n_workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # its imports cost every 1-thread run

        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(run_chunk, jobs))
    else:
        results = [run_chunk(job) for job in jobs]

    max_drift = float(np.max([r[3] for r in results]))
    if not max_drift <= MAX_NORM_DRIFT:
        raise NumericalError(
            f"propagator norm drift {max_drift:.3e} exceeds {MAX_NORM_DRIFT:.0e}"
        )

    # block factors and chunk mean offsets in job order (d zero rows keep the merged
    # factor square); the controls' exact means and, by Isserlis, their sds
    m = drive.m_mc
    z_mean = sum(n * mu for n, mu, _, _ in results) / m
    rfac = np.linalg.qr(np.concatenate(
        [f for _, _, f, _ in results]
        + [math.sqrt(n) * (mu - z_mean)[:, None] for n, mu, _, _ in results]
        + [np.zeros((n_rec, d, d))], axis=1), mode="r")
    exact = moments[:, iu, ju]
    z_mean[:, n_lin:-9] -= exact
    sd = np.sqrt(np.concatenate([np.diagonal(moments, axis1=1, axis2=2),
                                 moments[:, iu, iu] * moments[:, ju, ju] + exact**2], axis=1))
    bloch_map, mean, se, plain_se = _control_variate(z_mean, rfac, sd, bloch0, m)
    states = bloch_to_rho(mean)
    return DensityTrajectory(
        times=drive.dt * rec_idx.astype(float),
        states=states.reshape(lead + states.shape[1:]),
        pauli_mean=mean.reshape(lead + mean.shape[1:]),
        pauli_se=se.reshape(lead + se.shape[1:]),
        plain_se=plain_se.reshape(lead + plain_se.shape[1:]),
        bloch_map=bloch_map,
        max_norm_drift=max_drift,
    )
