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
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError, ValidationError

# Largest tolerated deviation of a propagator from unitarity, |a|^2 + |b|^2 - 1.
MAX_NORM_DRIFT = 1e-6

_PAULI_XYZ = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


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
        if self.Omega <= 0 or self.dt <= 0:
            raise ValidationError("Omega and dt must be positive")
        if self.n_steps < 1 or self.m_mc < 1:
            raise ValidationError("n_steps and m_mc must be >= 1")


def default_timestep(Omega, tau_c=None, fraction=0.05):
    """Step heuristic: a fraction of the shortest dynamical scale."""
    scale = 2.0 * math.pi / Omega
    if tau_c is not None:
        scale = min(scale, tau_c)
    return fraction * scale


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
    m_mc: int
    max_norm_drift: float = 0.0

    def __post_init__(self):
        if not np.all(np.diff(self.times) > 0):
            raise ValidationError("times must be strictly increasing")

    def __getitem__(self, k):
        return replace(self, states=self.states[k], pauli_mean=self.pauli_mean[k],
                       pauli_se=self.pauli_se[k], plain_se=self.plain_se[k])


def check_density_matrix(rho, tol=1e-12, eig_tol=1e-10):
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValidationError("density matrix must be 2x2")
    if np.abs(rho - rho.conj().T).max() > tol:
        raise ValidationError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > tol or abs(np.trace(rho).imag) > tol:
        raise ValidationError("density matrix must have unit trace")
    if np.linalg.eigvalsh(rho)[0] < -eig_tol:
        raise ValidationError("density matrix has a negative eigenvalue")
    return rho


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


def _control_variate(sum_r, sum_ra, sum_a, sum_aa, sum_p2, bloch0, m):
    """Control-variate channel and per-state standard errors from the ensemble sums.

    Per record j: sum_r (3, 3) = sum R, sum_ra (3, 3, p) = sum R (x) a,
    sum_a (p) = sum a, sum_aa (p, p) = sum a a^T, and per input state k
    sum_p2[k, j] (3) = sum Y_k^2 with Y_k = R b0_k.  Returns the adjusted
    Bloch maps, means, standard errors and the plain standard errors.
    """
    r_mean = sum_r / m
    a_mean = sum_a / m
    cov_ra = sum_ra / m - r_mean[..., None] * a_mean[:, None, None, :]
    cov_aa = sum_aa / m - a_mean[:, :, None] * a_mean[:, None, :]
    plain = np.einsum("tij,kj->kti", r_mean, bloch0)
    var = np.maximum(sum_p2 / m - plain**2, 0.0)
    beta = np.zeros_like(cov_ra)
    resid = var.copy()
    for j, (cov, raw) in enumerate(zip(cov_aa, sum_aa)):
        # directions of a resolved above the rounding of its raw second moment
        w, vecs = np.linalg.eigh(cov)
        keep = w > 1e-12 * np.trace(raw) / m
        r = int(keep.sum())
        if r == 0 or m <= r + 1:
            continue
        inv = (vecs[:, keep] / w[keep]) @ vecs[:, keep].T
        beta[j] = cov_ra[j] @ inv
        cov_ya = np.einsum("ijp,kj->kip", cov_ra[j], bloch0)
        explained = np.einsum("kip,pq,kiq->ki", cov_ya, inv, cov_ya)
        resid[:, j] = np.maximum(var[:, j] - explained, 0.0) * (m / (m - r - 1))
    bloch_map = r_mean - np.einsum("tijp,tp->tij", beta, a_mean)
    mean = np.einsum("tij,kj->kti", bloch_map, bloch0)
    return bloch_map, mean, np.sqrt(resid / m), np.sqrt(var / m)


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
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape[-2:] != (2, 2):
        raise ValidationError("initial states must be 2x2 density matrices")
    lead = rho0.shape[:-2]
    flat = rho0.reshape(-1, 2, 2)
    for rho in flat:
        check_density_matrix(rho)
    bloch0 = np.stack([2.0 * flat[:, 0, 1].real, -2.0 * flat[:, 0, 1].imag,
                       (flat[:, 0, 0] - flat[:, 1, 1]).real], axis=1)

    rec_idx = np.arange(0, drive.n_steps + 1, record_every)
    if rec_idx[-1] != drive.n_steps:
        rec_idx = np.append(rec_idx, drive.n_steps)
    n_rec = rec_idx.size
    rec_set = {int(s): j for j, s in enumerate(rec_idx)}
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
        # first column (a, b) of U = [[a, -b*], [b, a*]]
        a, b = np.ones(m, dtype=complex), np.zeros(m, dtype=complex)
        # control vector: rows (a_y, a_z) with dephasing noise, then a_x with amplitude noise
        ctrl = np.zeros((n_ctrl, m))
        sum_r = np.zeros((n_rec, 3, 3))
        sum_ra = np.zeros((n_rec, 3, 3, n_ctrl))
        sum_a = np.zeros((n_rec, n_ctrl))
        sum_aa = np.zeros((n_rec, n_ctrl, n_ctrl))
        sum_p2 = np.zeros((len(flat), n_rec, 3))
        max_drift = 0.0

        def record(j):
            nonlocal max_drift
            if j > 0:
                steps = slice(rec_idx[j - 1], rec_idx[j])
                if freq_inc is not None:
                    ctrl[:2] += np.einsum("sl,lm->sm", trig[:, steps], freq_inc[steps])
                if amp_inc is not None:
                    ctrl[-1] += amp_inc[steps].sum(axis=0)
            rot = _bloch_rotation(a, b)
            sum_r[j] = rot.sum(axis=-1)
            sum_ra[j] = np.einsum("ijm,pm->ijp", rot, ctrl)
            sum_a[j] = ctrl.sum(axis=-1)
            sum_aa[j] = np.einsum("pm,qm->pq", ctrl, ctrl)
            bloch = np.einsum("ijm,kj->kim", rot, bloch0)
            sum_p2[:, j] = (bloch * bloch).sum(axis=-1)
            drift = np.abs(a.real**2 + a.imag**2 + b.real**2 + b.imag**2 - 1.0).max()
            max_drift = np.maximum(max_drift, drift)   # keeps a NaN

        record(0)
        w = np.empty(m, dtype=complex)
        for i in range(drive.n_steps):
            nx = omega_dt if amp_inc is None else omega_dt + amp_inc[i]
            nz = 0.0 if freq_inc is None else freq_inc[i]
            # exp(-(i/2)(nx sx + nz sz)) = [[u, v], [v, u*]] with u = cos(theta/2) - i s nz,
            # v = -i s nx and s = sin(theta/2) / theta; w holds u*
            theta = np.sqrt(nx * nx + nz * nz)
            half = 0.5 * theta
            s = np.sin(half) / np.maximum(theta, 1e-300)
            np.cos(half, out=w.real)
            np.multiply(s, nz, out=w.imag)
            v = -1j * (s * nx)
            va = v * a
            a *= w.conjugate()
            a += v * b
            b *= w
            b += va
            j = rec_set.get(i + 1)
            if j is not None:
                record(j)
        return sum_r, sum_ra, sum_a, sum_aa, sum_p2, max_drift

    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(run_chunk, jobs))
    else:
        results = [run_chunk(job) for job in jobs]

    sums = [sum(r[k] for r in results) for k in range(5)]
    max_drift = float(np.max([r[5] for r in results]))
    if not max_drift <= MAX_NORM_DRIFT:
        raise NumericalError(
            f"propagator norm drift {max_drift:.3e} exceeds {MAX_NORM_DRIFT:.0e}"
        )

    m = drive.m_mc
    bloch_map, mean, se, plain_se = _control_variate(*sums, bloch0, m)
    states = 0.5 * (np.eye(2) + np.einsum("...i,iab->...ab", mean, _PAULI_XYZ))
    return DensityTrajectory(
        times=drive.dt * rec_idx.astype(float),
        states=states.reshape(lead + states.shape[1:]),
        pauli_mean=mean.reshape(lead + mean.shape[1:]),
        pauli_se=se.reshape(lead + se.shape[1:]),
        plain_se=plain_se.reshape(lead + plain_se.shape[1:]),
        bloch_map=bloch_map,
        m_mc=m,
        max_norm_drift=max_drift,
    )
