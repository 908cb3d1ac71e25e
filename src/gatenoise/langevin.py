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
rotation coefficients of a whole slab at once.  Each step then updates the
first column (a, b) of every U, held as one (2, m) array, in one fused
update (a, b) <- (u a + v b, u* b + v a): three array calls per step.

The mean is a control-variate estimate (Glasserman, Monte Carlo Methods in
Financial Engineering, 2004, sec. 4.1).  Along each trajectory the step also
sums the first-order (filter-function) rotation vector of the noise in the
drive's toggling frame, a = sum over steps of (amplitude increment,
n_z sin(Omega t_mid), n_z cos(Omega t_mid)) (Green et al., New J. Phys. 15,
095004, 2013), one component per noisy axis.  Its expectation is exactly 0
for any zero-mean noise, so it borrows nothing from the analytic models.
Every Bloch-map entry is regressed on a with an intercept over the ensemble,
and the channel is R_mean - beta a_mean with beta = Cov(R, a) Cov(a, a)^+.
``pauli_mean`` is that adjusted mean applied to each input state, and
``pauli_se`` its residual standard error, sqrt((Var(Y) - Cov(Y, a)
Cov(a, a)^+ Cov(a, Y)) / (m - r - 1)) for the r resolved directions of a;
``plain_se`` keeps the standard error of the plain sample mean.  The
adjusted mean is unbiased up to O(1/m) from the fitted beta, but need not be
exactly a physical state: its deviation from one is within its standard
error.  A record with no resolved control direction, or with m <= r + 1
trajectories, keeps the plain estimate.

All of it is read off two moments per record of z = (vec R, a): the mean
and the centred co-moment.  Chunks form both about their own mean and merge
exactly in job order (Chan, Golub and LeVeque, Am. Stat. 37, 242, 1983), so
no variance is a difference of raw sums and the worker count changes no bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .channels import bloch_to_rho, check_density_matrix, rho_to_bloch
from .errors import NumericalError, ValidationError

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


def _check_count(name, value):
    """Raise ``ValidationError`` unless ``value`` is an integer >= 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")


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
    leading axes first; indexing the trajectory selects one input state.
    The channel at ``times[k]`` maps Bloch vectors as r -> bloch_map[k] @ r.
    """

    times: np.ndarray
    states: np.ndarray          # (..., n_times, 2, 2) complex
    pauli_mean: np.ndarray      # (..., n_times, 3): <sx>, <sy>, <sz>
    pauli_se: np.ndarray        # (..., n_times, 3) standard errors
    plain_se: np.ndarray        # (..., n_times, 3) standard errors of the plain mean
    bloch_map: np.ndarray       # (n_times, 3, 3)
    max_norm_drift: float = 0.0

    def __post_init__(self):
        if not np.all(np.diff(self.times) > 0):
            raise ValidationError("times must be strictly increasing")

    def __getitem__(self, k):
        return replace(self, states=self.states[k], pauli_mean=self.pauli_mean[k],
                       pauli_se=self.pauli_se[k], plain_se=self.plain_se[k])


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


def _control_variate(mean, cov, bloch0, m):
    """Control-variate channel and per-state standard errors from the moments.

    Per record t: mean[t] (9 + p) and cov[t] (9 + p, 9 + p) are the ensemble
    mean and covariance of z = (vec R, a); per input state k, Y_k = R b0_k.
    Returns the adjusted Bloch maps, means, standard errors and the plain
    standard errors.
    """
    n_rec, p = mean.shape[0], mean.shape[1] - 9
    r_mean = mean[:, :9].reshape(n_rec, 3, 3)
    a_mean = mean[:, 9:]
    cov_rr = cov[:, :9, :9].reshape(n_rec, 3, 3, 3, 3)
    cov_ra = cov[:, :9, 9:].reshape(n_rec, 3, 3, p)
    cov_aa = cov[:, 9:, 9:]
    # Var(Y_ki) = sum_jl b_kj b_kl Cov(R_ij, R_il)
    var = np.maximum(np.einsum("tijil,kj,kl->kti", cov_rr, bloch0, bloch0), 0.0)
    beta = np.zeros_like(cov_ra)
    resid = var.copy()
    for j in range(n_rec):
        # directions of a resolved above the rounding of its raw second moment
        w, vecs = np.linalg.eigh(cov_aa[j])
        keep = w > 1e-12 * (np.trace(cov_aa[j]) + a_mean[j] @ a_mean[j])
        r = int(keep.sum())
        if r == 0 or m <= r + 1:
            continue
        inv = (vecs[:, keep] / w[keep]) @ vecs[:, keep].T
        beta[j] = cov_ra[j] @ inv
        cov_ya = np.einsum("ijp,kj->kip", cov_ra[j], bloch0)
        explained = np.einsum("kip,pq,kiq->ki", cov_ya, inv, cov_ya)
        resid[:, j] = np.maximum(var[:, j] - explained, 0.0) * (m / (m - r - 1))
    bloch_map = r_mean - np.einsum("tijp,tp->tij", beta, a_mean)
    pauli_mean = np.einsum("tij,kj->kti", bloch_map, bloch0)
    return bloch_map, pauli_mean, np.sqrt(resid / m), np.sqrt(var / m)


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
        the transposed layout when m == n_steps.  ``None``: no noise there.
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
    # toggling-frame weights (sin, cos of Omega t_mid) of the dephasing increments
    phase = omega_dt * (np.arange(drive.n_steps) + 0.5)
    trig = np.stack([np.sin(phase), np.cos(phase)])
    n_ctrl = 2 * (freq_noise is not None) + (amp_noise is not None)
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
        nx_buf, theta_buf, half_buf, s_buf = np.empty((4, slab, m))
        uu = np.empty((slab, 2, m), dtype=complex)
        v_buf = np.empty((slab, m), dtype=complex)
        # control vector: rows (a_y, a_z) with dephasing noise, then a_x with amplitude noise
        ctrl = np.zeros((n_ctrl, m))
        mean = np.empty((n_rec, 9 + n_ctrl))
        comoment = np.empty((n_rec, 9 + n_ctrl, 9 + n_ctrl))
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
                theta, half, s, v = theta_buf[:n], half_buf[:n], s_buf[:n], v_buf[:n]
                u, uc = uu[:n, 0], uu[:n, 1]
                nx2 = omega_dt * omega_dt if amp_inc is None else np.multiply(nx, nx, out=theta)
                np.add(nx2, np.multiply(nz, nz, out=half), out=theta)
                np.sqrt(theta, out=theta)
                np.multiply(0.5, theta, out=half)
                np.divide(np.sin(half, out=s), np.maximum(theta, 1e-300, out=theta), out=s)
                np.cos(half, out=uc.real)
                np.multiply(s, nz, out=uc.imag)
                np.conjugate(uc, out=u)
                np.multiply(-1j, np.multiply(s, nx, out=theta), out=v)
                # (a, b) <- (u a + v b, u* b + v a)
                for k in range(n):
                    np.multiply(ba, v[k], out=vab)
                    ab *= uu[k]
                    ab += vab
            if freq_inc is not None:
                ctrl[:2] += np.einsum("sl,lm->sm", trig[:, start:stop], freq_inc[start:stop])
            if amp_inc is not None:
                ctrl[-1] += amp_inc[start:stop].sum(axis=0)
            a, b = ab
            z = np.concatenate([_bloch_rotation(a, b).reshape(9, m), ctrl])
            mean[j] = z.mean(axis=1)
            dev = z - mean[j][:, None]
            comoment[j] = dev @ dev.T
            drift = np.abs(a.real**2 + a.imag**2 + b.real**2 + b.imag**2 - 1.0).max()
            max_drift = np.maximum(max_drift, drift)   # keeps a NaN
        return m, mean, comoment, max_drift

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

    # chunk moments combined about the ensemble mean
    m = drive.m_mc
    z_mean = sum(n * mu for n, mu, _, _ in results) / m
    comoment = sum(m2 + n * (mu - z_mean)[:, :, None] * (mu - z_mean)[:, None, :]
                   for n, mu, m2, _ in results)
    bloch_map, mean, se, plain_se = _control_variate(z_mean, comoment / m, bloch0, m)
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
