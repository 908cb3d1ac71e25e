"""Analytic error channels of a driven qubit from filtered noise integrals.

All channels are built from one snapshot of the filtered-integral tuple.
The primitive object is the gate-comoving (toggling-frame) map, whose Bloch
action is

    x -> exp(-Gamma1) x
    (y, z) -> E_c [ cos(Theta/2) I + (sin(Theta/2)/Theta) W ] (y, z)

with ``Theta = sqrt(Delta1^2 - Delta2^2 - Gamma2^2)`` (possibly imaginary;
all observable quantities stay real), ``W`` mixing the transverse plane
through Gamma2/Delta1/Delta2, and a coherence prefactor
``E_c = exp(-(Gamma1 + DGamma1)/2)`` that picks up the amplitude-noise
correction.  Populations of the drive eigenstates relax as exp(-Gamma1)
regardless of amplitude noise.

Process matrices use the plain Pauli basis {I, sx, sy, sz}: a channel is
``E(rho) = sum chi_ab sigma_a rho sigma_b`` with trace-preservation
``sum chi_ab sigma_b sigma_a = I`` (so the identity channel is
diag(1, 0, 0, 0)).  The comoving process matrix is block-diagonal in
{I, sx} + {sy, sz}; the lab-frame (full evolution) matrix is obtained by
conjugating with the ideal drive unitary and keeps the same block structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson, cumulative_trapezoid

from .errors import CPViolationError, NumericalError, ValidationError
from .filters import IntegralPoint, ou_kernels
from .langevin import check_density_matrix

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z)


# --------------------------------------------------------------------- #
# entire functions of the rotation-angle radicand

def _cos_half(q):
    """cos(Theta/2) as a real function of q = Theta^2."""
    if abs(q) < 1e-6:
        return 1.0 - q / 8.0 + q * q / 384.0
    if q > 0:
        return math.cos(0.5 * math.sqrt(q))
    return math.cosh(0.5 * math.sqrt(-q))


def _sin_half_over_theta(q):
    """sin(Theta/2) / Theta as a real function of q = Theta^2."""
    if abs(q) < 1e-6:
        return 0.5 - q / 48.0 + q * q / 3840.0
    if q > 0:
        r = math.sqrt(q)
        return math.sin(0.5 * r) / r
    r = math.sqrt(-q)
    return math.sinh(0.5 * r) / r


@dataclass(frozen=True)
class RotationSpec:
    """Complex-capable rotation angle and axis of the coherence map."""

    theta: complex
    axis: np.ndarray


def rotation_spec(point):
    """Rotation angle/axis; satisfies theta^2 * (axis . axis) = radicand."""
    q = point.delta1**2 - point.delta2**2 - point.gamma2**2
    theta = np.sqrt(complex(q))
    if abs(theta) < 1e-300:
        return RotationSpec(0.0 + 0.0j, np.array([1.0, 0.0, 0.0], dtype=complex))
    axis = np.array([point.delta1, -1j * point.delta2, 1j * point.gamma2]) / theta
    return RotationSpec(theta, axis)


# --------------------------------------------------------------------- #
# containers and validators

@dataclass
class ProcessMatrix:
    """4x4 Pauli-basis process matrix snapshot at time ``t``."""

    matrix: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (4, 4):
            raise ValidationError("process matrix must be 4x4")


@dataclass
class KrausSet:
    """Operator-sum representation; completeness sum K^dag K = I."""

    ops: list
    t: float = 0.0


@dataclass(frozen=True)
class PauliRates:
    px: float
    py: float
    pz: float
    t: float = 0.0

    @property
    def p(self):
        return self.px + self.py + self.pz


def check_process_matrix(chi, herm_tol=1e-10, psd_tol=1e-10, tp_tol=1e-10):
    chi = chi.matrix if isinstance(chi, ProcessMatrix) else np.asarray(chi, dtype=complex)
    if np.abs(chi - chi.conj().T).max() > herm_tol:
        raise ValidationError("process matrix is not Hermitian")
    min_eig = float(np.linalg.eigvalsh(chi)[0])
    if min_eig < -psd_tol:
        raise ValidationError(f"process matrix eigenvalue {min_eig:.3e} < -{psd_tol:.0e}")
    tp = sum(chi[a, b] * PAULIS[b] @ PAULIS[a] for a in range(4) for b in range(4))
    if np.abs(tp - SIGMA_0).max() > tp_tol:
        raise ValidationError("trace-preservation constraint violated")
    return chi


# --------------------------------------------------------------------- #
# core map construction

def _coherence_block(point, with_amplitude):
    """(E_pop, E_c, C, S2) pieces of the comoving Bloch map."""
    e_pop = math.exp(-point.gamma1)
    dg = point.dgamma1 if with_amplitude else 0.0
    e_c = math.exp(-0.5 * (point.gamma1 + dg))
    q = point.delta1**2 - point.delta2**2 - point.gamma2**2
    return e_pop, e_c, _cos_half(q), _sin_half_over_theta(q)


def bloch_matrix(point, with_amplitude=False):
    """3x3 Bloch matrix of the comoving error map, axes ordered (x, y, z)."""
    e_pop, e_c, C, S2 = _coherence_block(point, with_amplitude)
    g2, d1, d2 = point.gamma2, point.delta1, point.delta2
    return np.array(
        [
            [e_pop, 0.0, 0.0],
            [0.0, e_c * (C - g2 * S2), -e_c * (d1 - d2) * S2],
            [0.0, e_c * (d1 + d2) * S2, e_c * (C + g2 * S2)],
        ]
    )


def dressed_evolve(rho0, point, with_amplitude=False):
    """Propagate a state with the comoving analytic map.

    The populations of the drive (dressed) eigenstates relax toward 1/2 with
    exp(-Gamma1); the dressed coherences contract with the half-exponent
    prefactor and rotate by the complex angle Theta.  The returned state
    lives in the gate-comoving frame: zero noise returns ``rho0`` itself,
    and the laboratory state is ``drive_unitary(...) @ rho @ ...``.
    """
    rho0 = check_density_matrix(rho0)
    r = rho_to_bloch(rho0)
    r_out = bloch_matrix(point, with_amplitude) @ r
    return bloch_to_rho(r_out)


def rho_to_bloch(rho):
    return np.array([np.trace(rho @ P).real for P in PAULIS[1:]])


def bloch_to_rho(r):
    rho = 0.5 * (SIGMA_0 + r[0] * SIGMA_X + r[1] * SIGMA_Y + r[2] * SIGMA_Z)
    return rho


def drive_unitary(Omega, t, phi=0.0):
    """Ideal gate unitary exp(-i t Omega sigma_phi / 2)."""
    sigma_phi = math.cos(phi) * SIGMA_X - math.sin(phi) * SIGMA_Y
    angle = 0.5 * Omega * t
    return math.cos(angle) * SIGMA_0 - 1j * math.sin(angle) * sigma_phi


def rotate_to_lab(rho, Omega, t, phi=0.0):
    """Conjugate a comoving state into the laboratory frame."""
    U = drive_unitary(Omega, t, phi)
    return U @ rho @ U.conj().T


# --------------------------------------------------------------------- #
# process matrices

def chi_nm(point, t=0.0, with_amplitude=False, *, cp_tol=1e-8):
    """Block-diagonal comoving process matrix including memory terms.

    Raises
    ------
    CPViolationError
        If an eigenvalue drops below ``-cp_tol``; this flags inputs outside
        the validity regime of the second-order treatment rather than a
        rounding issue.
    """
    e_pop, e_c, C, S2 = _coherence_block(point, with_amplitude)
    chi = np.zeros((4, 4), dtype=complex)
    chi[0, 0] = 0.25 * (1.0 + e_pop + 2.0 * e_c * C)
    chi[1, 1] = 0.25 * (1.0 + e_pop - 2.0 * e_c * C)
    chi[0, 1] = 0.5j * e_c * point.delta1 * S2
    chi[1, 0] = np.conj(chi[0, 1])
    chi[2, 2] = 0.25 * (1.0 - e_pop - 2.0 * e_c * point.gamma2 * S2)
    chi[3, 3] = 0.25 * (1.0 - e_pop + 2.0 * e_c * point.gamma2 * S2)
    chi[2, 3] = 0.5 * e_c * point.delta2 * S2
    chi[3, 2] = chi[2, 3]
    min_eig = float(np.linalg.eigvalsh(chi)[0])
    if min_eig < -cp_tol:
        raise CPViolationError(
            f"process matrix eigenvalue {min_eig:.3e}; inputs outside the "
            "validity regime (correlation time too long for this decay)"
        )
    return ProcessMatrix(chi, t)


def pauli_left_matrix(U):
    """m with chi(Ad_U o E) = m chi(E) m^dag (unitary composed after E)."""
    m = np.empty((4, 4), dtype=complex)
    for c in range(4):
        for a in range(4):
            m[c, a] = 0.5 * np.trace(PAULIS[c] @ U @ PAULIS[a])
    return m


def pauli_conjugation_matrix(U):
    """w with chi(Ad_U o E o Ad_U^dag) = w chi(E) w^dag (frame conjugation)."""
    w = np.empty((4, 4), dtype=complex)
    Ud = U.conj().T
    for c in range(4):
        for a in range(4):
            w[c, a] = 0.5 * np.trace(PAULIS[c] @ U @ PAULIS[a] @ Ud)
    return w


def chi_full(point, Omega, t, with_amplitude=False, phi=0.0):
    """Process matrix of the full evolution (ideal gate followed by error)."""
    base = chi_nm(point, t, with_amplitude)
    m = pauli_left_matrix(drive_unitary(Omega, t, phi))
    return ProcessMatrix(m @ base.matrix @ m.conj().T, t)


def kraus_nc(point, Omega=0.0, t=0.0, with_amplitude=False):
    """Kraus operators of the memoryless (non-Clifford) channel.

    Built by eigendecomposition of the comoving process matrix with the
    memory integrals Gamma2, Delta2 dropped, then expressed in the
    gate-rotated Pauli frame.  For this channel the rotation commutes with
    the map, so the operators represent the error channel in either frame.
    """
    eps = 1.0 - math.exp(-point.gamma1)
    if not -1e-12 <= eps <= 1.0 + 1e-12:
        raise NumericalError(f"effective error rate {eps} outside [0, 1]")
    reduced = IntegralPoint(point.gamma1, 0.0, point.delta1, 0.0, point.dgamma1)
    chi = chi_nm(reduced, t, with_amplitude).matrix
    rotated = [drive_unitary(Omega, t) @ P @ drive_unitary(Omega, t).conj().T
               for P in PAULIS]
    evals, evecs = np.linalg.eigh(chi)
    ops = []
    for n in range(4):
        d = max(evals[n], 0.0)
        K = math.sqrt(d) * sum(evecs[a, n] * rotated[a] for a in range(4))
        ops.append(K)
    ops.sort(key=lambda K: -np.abs(K).max())
    complete = sum(K.conj().T @ K for K in ops)
    if np.abs(complete - SIGMA_0).max() > 1e-10:
        raise NumericalError("Kraus completeness violated")
    return KrausSet(ops, t)


def pauli_twirl(point, t=0.0, with_amplitude=False):
    """Pauli error rates of the twirled channel (diagonal of chi_nm)."""
    chi = chi_nm(point, t, with_amplitude).matrix
    return PauliRates(chi[1, 1].real, chi[2, 2].real, chi[3, 3].real, t)


def depolarizing_rate(point):
    """Depolarizing probability matched to the same average gate error."""
    return 0.75 * (1.0 - math.exp(-point.gamma1))


def depolarizing_chi(p, t=0.0):
    return ProcessMatrix(np.diag([1.0 - p, p / 3.0, p / 3.0, p / 3.0]).astype(complex), t)


def pauli_chi(rates, t=0.0):
    return ProcessMatrix(
        np.diag([1.0 - rates.p, rates.px, rates.py, rates.pz]).astype(complex), t
    )


# --------------------------------------------------------------------- #
# channel algebra

def apply_chi(chi, rho):
    chi = chi.matrix if isinstance(chi, ProcessMatrix) else np.asarray(chi)
    out = np.zeros((2, 2), dtype=complex)
    for a in range(4):
        for b in range(4):
            if chi[a, b] != 0.0:
                out += chi[a, b] * PAULIS[a] @ rho @ PAULIS[b]
    return out


def apply_kraus(kraus, rho):
    ops = kraus.ops if isinstance(kraus, KrausSet) else kraus
    return sum(K @ rho @ K.conj().T for K in ops)


def kraus_to_chi(kraus, t=0.0):
    ops = kraus.ops if isinstance(kraus, KrausSet) else kraus
    coeff = np.array([[0.5 * np.trace(P @ K) for K in ops] for P in PAULIS])
    return ProcessMatrix(coeff @ coeff.conj().T, t)


def chi_to_kraus(chi, t=0.0, tol=1e-12):
    chi = chi.matrix if isinstance(chi, ProcessMatrix) else np.asarray(chi)
    evals, evecs = np.linalg.eigh(chi)
    ops = []
    for n in range(4):
        if evals[n] > tol:
            ops.append(math.sqrt(evals[n]) * sum(evecs[a, n] * PAULIS[a] for a in range(4)))
    return KrausSet(ops, t)


def ptm(channel):
    """Pauli transfer matrix R_ab = (1/2) tr[s_a E(s_b)] (affine row included)."""
    R = np.empty((4, 4))
    for b in range(4):
        if isinstance(channel, (ProcessMatrix, np.ndarray)):
            image = apply_chi(channel, PAULIS[b])
        else:
            image = apply_kraus(channel, PAULIS[b])
        for a in range(4):
            val = 0.5 * np.trace(PAULIS[a] @ image)
            R[a, b] = val.real
    return R


def twirl_chi(chi, t=0.0):
    """Brute-force Pauli twirl: average of P^dag E(P . P^dag) P over Paulis."""
    chi = chi.matrix if isinstance(chi, ProcessMatrix) else np.asarray(chi)
    out = np.zeros_like(chi)
    for P in PAULIS:
        w = pauli_conjugation_matrix(P)
        out += w @ chi @ w.conj().T / 4.0
    return ProcessMatrix(out, t)


# --------------------------------------------------------------------- #
# fidelities and errors

def avg_gate_fidelity(channel, target):
    """Average gate fidelity 1/2 + (1/12) sum_b tr[U s_b U^dag E(s_b)].

    ``channel`` may be a ProcessMatrix / raw chi array / KrausSet / list of
    Kraus operators describing the full evolution; ``target`` is the ideal
    unitary.
    """
    total = 0.0 + 0.0j
    for b in (1, 2, 3):
        if isinstance(channel, (ProcessMatrix, np.ndarray)):
            image = apply_chi(channel, PAULIS[b])
        else:
            image = apply_kraus(channel, PAULIS[b])
        total += np.trace(target @ PAULIS[b] @ target.conj().T @ image)
    if abs(total.imag) > 1e-12 * max(1.0, abs(total.real)):
        raise NumericalError(f"fidelity has imaginary part {total.imag:.3e}")
    return 0.5 + total.real / 12.0


def gate_fidelity_matrix(target):
    """Matrix G with F = 1/2 + Re sum_ab chi_ab G_ab (fast per-sample reuse)."""
    G = np.zeros((4, 4), dtype=complex)
    for b in (1, 2, 3):
        lhs = target @ PAULIS[b] @ target.conj().T
        for a in range(4):
            for c in range(4):
                G[a, c] += np.trace(lhs @ PAULIS[a] @ PAULIS[b] @ PAULIS[c]) / 12.0
    return G


GATE_ERROR_MODELS = ("D", "NC", "NM", "NC_I", "NM_I")


def gate_error(point, model):
    """Closed-form average gate error for one snapshot.

    Models: "D" depolarizing-equivalent, "NC" memoryless non-Clifford,
    "NM" with memory terms, and the "_I" variants including amplitude noise
    through DGamma1.
    """
    e_pop = math.exp(-point.gamma1)
    if model == "D":
        return 0.5 * (1.0 - e_pop)
    if model in ("NC", "NM"):
        e_c = math.exp(-0.5 * point.gamma1)
    elif model in ("NC_I", "NM_I"):
        e_c = math.exp(-0.5 * (point.gamma1 + point.dgamma1))
    else:
        raise ValidationError(f"unknown gate-error model {model!r}")
    if model.startswith("NC"):
        cos_term = math.cos(0.5 * point.delta1)
    else:
        q = point.delta1**2 - point.delta2**2 - point.gamma2**2
        cos_term = _cos_half(q)
    return 0.5 - (e_pop + 2.0 * e_c * cos_term) / 6.0


def state_fidelity(a, b):
    """Uhlmann fidelity of two qubit states: tr(ab) + 2 sqrt(det a det b)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    val = np.trace(a @ b).real + 2.0 * math.sqrt(
        max(np.linalg.det(a).real, 0.0) * max(np.linalg.det(b).real, 0.0)
    )
    return float(min(max(val, 0.0), 1.0))


def haar_random_state(rng):
    """Random pure qubit state, uniform over the Bloch sphere."""
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    s = math.sqrt(1.0 - z * z)
    r = np.array([s * math.cos(phi), s * math.sin(phi), z])
    return bloch_to_rho(r)


# --------------------------------------------------------------------- #
# exact propagation of the dressed master equation

def master_equation_evolve(rho0, kernels, Omega, times, amp_rate=None):
    """Exact solution of the second-order dressed master equation.

    Integrates the comoving Bloch equations driven by the instantaneous
    kernels rather than using the closed (first-order Magnus) map, so it is
    free of the O((noise power)^2) truncation error of
    :func:`dressed_evolve`.  This is the reference "analytic map" used for
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
    from scipy.integrate import solve_ivp

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
    states = []
    for k in range(times.size):
        v = sol.y[:, k]
        states.append(bloch_to_rho(np.array([v[2], -v[1], v[0]])))
    return states


# --------------------------------------------------------------------- #
# non-Markovianity measure

def nm_measure(psd, Omega, t_max, n_grid=4000, amp_psd=None):
    """Accumulated CP-divisibility violation of the time-local generator.

    The canonical rates of the generator are
    ``(g1_eff +- sqrt(g1^2 + h1^2)) / 4`` where ``g1`` and ``h1`` are the
    cosine/sine overlap kernels of the noise autocovariance with the drive
    and ``g1_eff`` adds the amplitude-noise rate.  The measure integrates
    the negative part of the smaller rate, so it vanishes identically when
    the memory kernels are dropped.

    Returns (times, N(t)) on a uniform grid.
    """
    times = np.linspace(0.0, t_max, n_grid)
    if psd.kind == "ou":
        g1, h1 = ou_kernels(psd.c, psd.tau_c, Omega, times)
    else:
        cu = psd.autocovariance(times)
        g1 = cumulative_simpson(cu * np.cos(Omega * times), x=times, initial=0.0)
        h1 = cumulative_simpson(cu * np.sin(Omega * times), x=times, initial=0.0)
    g_eff = g1.copy()
    if amp_psd is not None:
        ca = amp_psd.autocovariance(times)
        g_eff = g1 + 2.0 * cumulative_simpson(ca, x=times, initial=0.0)
    gbar_minus = 0.25 * (g_eff - np.sqrt(g1**2 + h1**2))
    negativity = np.maximum(0.0, -gbar_minus)
    # trapezoid: a non-negative integrand gives exactly non-decreasing N_CP,
    # which Simpson's rule does not guarantee
    ncp = cumulative_trapezoid(negativity, x=times, initial=0.0)
    return times, ncp


def dressing_validity(tau_c, psd):
    """Validity parameter sqrt(tau_c / T2) of the second-order truncation."""
    s0 = psd.eval(0.0)
    if s0 <= 0:
        return 0.0
    t2 = 2.0 / s0
    return math.sqrt(tau_c / t2)
