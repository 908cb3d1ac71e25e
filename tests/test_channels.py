import math
from dataclasses import replace

import numpy as np
import pytest

from gatenoise.channels import (
    PAULIS,
    apply_chi,
    apply_kraus,
    avg_gate_fidelity,
    bloch_to_rho,
    chi_full,
    chi_nm,
    depolarizing_chi,
    depolarizing_rate,
    drive_unitary,
    gate_error,
    gate_fidelity_matrix,
    haar_random_state,
    kraus_nc,
    nm_measure,
    pauli_chi,
    pauli_left_matrix,
    pauli_twirl,
    rho_to_bloch,
    rotate_to_lab,
    state_fidelity,
)
from gatenoise.errors import CPViolationError, ValidationError
from gatenoise.filters import FilteredIntegrals, ou_filtered_integrals
from gatenoise.psd import NoisePsd
from oracles import (
    ZERO_POINT,
    kraus_to_chi,
    master_equation_evolve,
    nm_measure_ou,
    ou_kernels,
    ptm,
    snapshot,
)

RHO0 = np.array([[1, 0], [0, 0]], dtype=complex)
RHOP = 0.5 * np.ones((2, 2), dtype=complex)


# --------------------------------------------------------------------- #
# brute-force oracles

def check_process_matrix(chi, herm_tol=1e-10, psd_tol=1e-10, tp_tol=1e-10):
    """CP/TP check of a Pauli-basis process matrix by explicit sums."""
    chi = np.asarray(chi, dtype=complex)
    if np.abs(chi - chi.conj().T).max() > herm_tol:
        raise ValidationError("process matrix is not Hermitian")
    min_eig = float(np.linalg.eigvalsh(chi)[0])
    if min_eig < -psd_tol:
        raise ValidationError(f"process matrix eigenvalue {min_eig:.3e} < -{psd_tol:.0e}")
    tp = sum(chi[a, b] * PAULIS[b] @ PAULIS[a] for a in range(4) for b in range(4))
    if np.abs(tp - np.eye(2)).max() > tp_tol:
        raise ValidationError("trace-preservation constraint violated")
    return chi


def pauli_conjugation_matrix(U):
    """w with chi(Ad_U o E o Ad_U^dag) = w chi(E) w^dag (frame conjugation)."""
    w = np.empty((4, 4), dtype=complex)
    Ud = U.conj().T
    for c in range(4):
        for a in range(4):
            w[c, a] = 0.5 * np.trace(PAULIS[c] @ U @ PAULIS[a] @ Ud)
    return w


def twirl_chi(chi):
    """Brute-force Pauli twirl: average of P^dag E(P . P^dag) P over Paulis."""
    out = np.zeros_like(chi)
    for P in PAULIS:
        w = pauli_conjugation_matrix(P)
        out += w @ chi @ w.conj().T / 4.0
    return out


def physical_point(rng, with_amplitude=False):
    """Random filtered-integral tuple realizable by an OU spectrum."""
    a = rng.uniform(0.1, 20.0)
    tt = rng.uniform(0.05, 30.0)
    c = rng.uniform(0.01, 0.5)
    fi = ou_filtered_integrals(c, 1.0, a, [tt])
    dg = rng.uniform(0.0, 0.3) if with_amplitude else 0.0
    return snapshot(fi.gamma1[0], fi.gamma2[0], fi.delta1[0], fi.delta2[0], dg)


# --------------------------------------------------------------------- #
# dressed map

def test_dressed_evolve_identity_at_zero_integrals():
    for rho in (RHO0, RHOP, bloch_to_rho(np.array([0.3, -0.4, 0.5]))):
        np.testing.assert_allclose(apply_chi(chi_nm(ZERO_POINT), rho), rho, atol=1e-15)


def test_dressed_population_gap_halves_at_log2():
    point = snapshot(math.log(2.0), 0.0, 0.0, 0.0, 0.0)
    out = apply_chi(chi_nm(point), RHOP)
    rho_pp = 0.5 * (1.0 + rho_to_bloch(out)[0])
    assert rho_pp == pytest.approx(0.75, rel=1e-14)


def test_dressed_evolve_matches_master_equation_weak_noise():
    # closed map agrees with the exact propagation up to the quadratic
    # truncation error, which is negligible at weak noise
    c, tau, Omega = 1e-3, 1.0, 2.0
    times = np.linspace(0.2, 20.0, 15)
    fi = ou_filtered_integrals(c, tau, Omega, times)
    states = master_equation_evolve(RHO0, lambda t: ou_kernels(c, tau, Omega, t),
                                    Omega, times)
    for i in range(times.size):
        closed = apply_chi(chi_nm(fi.at(i)), RHO0)
        assert np.abs(closed - states[i]).max() < 1e-5


# --------------------------------------------------------------------- #
# process matrices and Kraus sets

def test_chi_identity_at_zero_integrals():
    chi = chi_nm(ZERO_POINT)
    np.testing.assert_allclose(chi, np.diag([1.0, 0, 0, 0]), atol=1e-15)


def test_chi_invariants_on_physical_tuples():
    rng = np.random.default_rng(10)
    for _ in range(60):
        pt = physical_point(rng, with_amplitude=True)
        for p in (replace(pt, dgamma1=0.0), pt):
            chi = chi_nm(p)
            check_process_matrix(chi, psd_tol=1e-8)
            # block structure
            assert np.abs(chi[:2, 2:]).max() == 0.0


def test_kraus_rejects_negative_decay_exponent():
    # Gamma1 >= 0 is the container's invariant, so the snapshot is refused
    # before kraus_nc sees it
    with pytest.raises(ValidationError):
        kraus_nc(snapshot(-0.5, 0.0, 0.0, 0.0), Omega=1.0, t=0.1)


@pytest.mark.parametrize("gamma1", [[-5e-11], [100.0, -5e-9]], ids=["snapshot", "grid"])
def test_a_rounding_level_negative_gamma1_is_a_zero_decay(gamma1):
    # within the container's tolerance, -1e-10 max(1, max|Gamma1|): stored as
    # 0, so every builder, kraus_nc included, takes the snapshot
    z = np.zeros(len(gamma1))
    fi = FilteredIntegrals(z, gamma1, z, z, z)
    np.testing.assert_array_equal(fi.gamma1, np.maximum(gamma1, 0.0))
    kraus = kraus_nc(fi, 1.0, 0.0)
    complete = np.einsum("...nji,...njk->...ik", kraus.conj(), kraus)
    np.testing.assert_allclose(complete, np.broadcast_to(np.eye(2), complete.shape), atol=1e-12)
    # at Gamma1 = 0 (and no other noise) the channel is the identity
    chi = kraus_to_chi(kraus).reshape(-1, 4, 4)[-1]
    np.testing.assert_allclose(chi, np.diag([1.0, 0, 0, 0]), atol=1e-15)


def test_chi_cp_violation_raises():
    bad = snapshot(0.01, 0.8, 0.0, 0.0, 0.0)
    with pytest.raises(CPViolationError):
        chi_nm(bad)


def test_kraus_completeness_random():
    rng = np.random.default_rng(3)
    for _ in range(40):
        pt = physical_point(rng, with_amplitude=True)
        for p in (replace(pt, dgamma1=0.0), pt):
            ks = kraus_nc(p, Omega=2.0, t=rng.uniform(0, 5))
            total = sum(K.conj().T @ K for K in ks)
            assert np.abs(total - np.eye(2)).max() < 1e-12


def test_kraus_identity_channel_at_zero_error():
    ks = kraus_nc(snapshot(0.0, 0.0, 0.0, 0.0, 0.0), Omega=1.0, t=0.3)
    rho = bloch_to_rho(np.array([0.2, 0.5, -0.1]))
    np.testing.assert_allclose(apply_kraus(ks, rho), rho, atol=1e-14)


def test_kraus_closed_forms_dephasing_only():
    """Eigendecomposition reproduces the closed jump/rotation operator set:
    dressed-state jumps weighted by sqrt(eps/2) and the x-rotation pair."""
    pt = snapshot(0.3, 0.0, 0.4, 0.0, 0.0)
    Omega, t = 2.0, 0.9
    ks = kraus_nc(pt, Omega, t)
    eps = 1.0 - math.exp(-pt.gamma1)
    # closed forms: K1 ~ sqrt(eps)/2 (sin(Ot) sz + cos(Ot) sy), etc.
    s, c = math.sin(Omega * t), math.cos(Omega * t)
    closed = [
        0.5 * math.sqrt(eps) * (s * PAULIS[3] + c * PAULIS[2]),
        0.5 * math.sqrt(eps) * (c * PAULIS[3] - s * PAULIS[2]),
    ]
    rot = (math.cos(pt.delta1 / 4) * np.eye(2) - 1j * math.sin(pt.delta1 / 4) * PAULIS[1])
    sq = math.exp(-0.5 * pt.gamma1)
    plus = 0.5 * np.array([[1, 1], [1, 1]], complex)
    minus = 0.5 * np.array([[1, -1], [-1, 1]], complex)
    closed.append(rot @ (math.sqrt(1 - eps) * minus + plus) / math.sqrt(2.0))
    closed.append(rot @ (math.sqrt(1 - eps) * plus + minus) / math.sqrt(2.0))
    np.testing.assert_allclose(ptm(kraus_to_chi(ks)), ptm(kraus_to_chi(closed)),
                               atol=1e-12)


def test_kraus_pauli_form_at_special_times():
    # with vanishing rotation the jump operators are plain sy, sz multiples
    pt = snapshot(0.5, 0.0, 0.0, 0.0, 0.0)
    ks = kraus_nc(pt, Omega=1.0, t=0.0)
    found = set()
    for K in ks:
        for idx in (2, 3):
            if np.abs(K - 0.5 * np.trace(PAULIS[idx] @ K) * PAULIS[idx]).max() < 1e-12 \
                    and np.abs(K).max() > 1e-8:
                found.add(idx)
    assert found == {2, 3}


def test_chi_full_block_structure_and_gauge():
    rng = np.random.default_rng(4)
    for _ in range(20):
        pt = physical_point(rng)
        Omega, t = rng.uniform(0.5, 5), rng.uniform(0, 6)
        cf = chi_full(pt, Omega, t)
        check_process_matrix(cf, psd_tol=1e-8)
        assert np.abs(cf[:2, 2:]).max() < 1e-13
        target = drive_unitary(Omega, t)
        assert avg_gate_fidelity(cf, target) == pytest.approx(
            1.0 - gate_error(pt, "NM"), abs=1e-12)


# --------------------------------------------------------------------- #
# twirl and depolarizing

def test_twirl_rates_zero_at_zero_integrals():
    rates = pauli_twirl(ZERO_POINT)
    assert rates.px == rates.py == rates.pz == 0.0


def test_twirl_small_markovian_limit():
    g1 = 1e-4
    rates = pauli_twirl(snapshot(g1, 0.0, 0.0, 0.0, 0.0))
    assert rates.px == pytest.approx(0.0, abs=1e-8)
    assert rates.py == pytest.approx(g1 / 4.0, rel=1e-3)
    assert rates.pz == pytest.approx(g1 / 4.0, rel=1e-3)


def test_twirl_matches_bruteforce_conjugation():
    rng = np.random.default_rng(12)
    for _ in range(40):
        pt = physical_point(rng, with_amplitude=True)
        chi = chi_nm(pt)
        tw = twirl_chi(chi)
        rates = pauli_twirl(pt)
        np.testing.assert_allclose(
            np.diag(tw).real,
            [1.0 - rates.p, rates.px, rates.py, rates.pz], atol=1e-12)
        assert np.abs(tw - np.diag(np.diag(tw))).max() < 1e-13


def test_twirl_preserves_average_fidelity():
    rng = np.random.default_rng(13)
    for _ in range(30):
        pt = physical_point(rng)
        Omega, t = rng.uniform(0.5, 4), rng.uniform(0.1, 5)
        U = drive_unitary(Omega, t)
        m = pauli_left_matrix(U)
        chi_lab = m @ chi_nm(pt) @ m.conj().T
        twirl_lab = m @ pauli_chi(pauli_twirl(pt)) @ m.conj().T
        assert avg_gate_fidelity(chi_lab, U) == pytest.approx(
            avg_gate_fidelity(twirl_lab, U), abs=1e-12)


def test_depolarizing_rate_values():
    assert depolarizing_rate(ZERO_POINT) == 0.0
    assert depolarizing_rate(snapshot(math.log(2), 0, 0, 0, 0)) == pytest.approx(3 / 8)
    assert depolarizing_rate(snapshot(50.0, 0, 0, 0, 0)) == pytest.approx(0.75, rel=1e-9)


# --------------------------------------------------------------------- #
# gate errors and fidelities

def test_gate_error_zero_and_saturation():
    for model in ("D", "NC", "NM", "NC_I", "NM_I"):
        assert gate_error(ZERO_POINT, model) == pytest.approx(0.0, abs=1e-15)
        deep = snapshot(80.0, 0.0, 0.0, 0.0, 10.0)
        assert gate_error(deep, model) == pytest.approx(0.5, rel=1e-10)
    with pytest.raises(ValidationError):
        gate_error(ZERO_POINT, "bogus")


def test_gate_error_real_valued_with_complex_angle():
    # radicand negative: hyperbolic branch must still give real errors
    pt = snapshot(0.5, 0.3, 0.05, 0.1, 0.0)
    err = gate_error(pt, "NM")
    assert isinstance(err, float) and 0.0 <= err <= 0.5


def test_avg_gate_fidelity_examples():
    assert avg_gate_fidelity(np.diag([1.0, 0, 0, 0]), np.eye(2)) == pytest.approx(1.0)
    p = 0.12
    fid = avg_gate_fidelity(depolarizing_chi(p), np.eye(2))
    assert fid == pytest.approx(1.0 - 2.0 * p / 3.0, rel=1e-12)


def test_gate_fidelity_matrix_agrees_with_direct():
    """F = 1/2 + Re sum chi G and ``avg_gate_fidelity``, on stacks of chi (the
    lab-frame channels, and positive chi off TP and off unit trace) and of
    Kraus sets against a stack of targets, equal 1/2 + tr(R_U^T R_E) / 6 over
    the Bloch blocks of the Pauli transfer matrices from ``oracles.ptm``."""
    points, fi, times, omegas = _grid(5, True)
    targets = drive_unitary(omegas, times)
    G = gate_fidelity_matrix(targets)
    rng = np.random.default_rng(5)
    A = rng.normal(size=(len(points), 4, 4)) + 1j * rng.normal(size=(len(points), 4, 4))
    loose = A @ np.swapaxes(A.conj(), -1, -2)
    loose *= rng.uniform(0.7, 1.3, len(points))[:, None, None] / np.trace(
        loose, axis1=-2, axis2=-1).real[:, None, None]
    kraus = kraus_nc(fi, omegas, times)
    fid_kraus = avg_gate_fidelity(kraus_to_chi(kraus), targets)
    for chis in (chi_full(fi, omegas, times), loose):
        fast = 0.5 + np.real(np.sum(chis * G, axis=(-2, -1)))
        fid_chi = avg_gate_fidelity(chis, targets)
        for i, U in enumerate(targets):
            R_U = ptm(kraus_to_chi([U]))[1:, 1:]
            want = 0.5 + np.trace(R_U.T @ ptm(chis[i])[1:, 1:]) / 6.0
            assert fast[i] == pytest.approx(want, rel=0, abs=1e-14)
            assert fid_chi[i] == pytest.approx(want, rel=0, abs=1e-14)
    for i, U in enumerate(targets):
        want = 0.5 + np.trace(ptm(kraus_to_chi([U]))[1:, 1:].T
                              @ ptm(kraus_to_chi(kraus[i]))[1:, 1:]) / 6.0
        assert fid_kraus[i] == pytest.approx(want, rel=0, abs=1e-14)
        np.testing.assert_allclose(gate_fidelity_matrix(U), G[i], rtol=0, atol=1e-16)


def _apply_chi_loop(chi, rho):
    return sum(chi[a, b] * PAULIS[a] @ rho @ PAULIS[b] for a in range(4) for b in range(4))


def _state_fidelity_scalar(a, b):
    val = np.trace(a @ b).real + 2.0 * math.sqrt(
        max(np.linalg.det(a).real, 0.0) * max(np.linalg.det(b).real, 0.0))
    return min(max(val, 0.0), 1.0)


@pytest.mark.parametrize("helper", ["apply_chi", "apply_kraus", "state_fidelity",
                                    "rotate_to_lab"])
@pytest.mark.parametrize("shape", [(7,), (3, 5)])
def test_helpers_broadcast_over_state_stacks(helper, shape):
    rng = np.random.default_rng(21)
    pt = physical_point(rng, with_amplitude=True)
    chi = chi_nm(pt)
    kraus = kraus_nc(pt, Omega=1.3, t=0.7)
    n = int(np.prod(shape))
    states = haar_random_state(rng, n)
    mixed = 0.5 * states + 0.25 * np.eye(2)
    reference = {
        "apply_chi": lambda k: _apply_chi_loop(chi, states[k]),
        "apply_kraus": lambda k: sum(K @ states[k] @ K.conj().T for K in kraus),
        "state_fidelity": lambda k: _state_fidelity_scalar(states[k], mixed[k]),
        "rotate_to_lab": lambda k: (drive_unitary(1.3, 0.7) @ states[k]
                                    @ drive_unitary(1.3, 0.7).conj().T),
    }[helper]
    call = {
        "apply_chi": lambda rho, other: apply_chi(chi, rho),
        "apply_kraus": lambda rho, other: apply_kraus(kraus, rho),
        "state_fidelity": state_fidelity,
        "rotate_to_lab": lambda rho, other: rotate_to_lab(rho, 1.3, 0.7),
    }[helper]
    stacked = call(states.reshape(shape + (2, 2)), mixed.reshape(shape + (2, 2)))
    expected = np.array([reference(k) for k in range(n)])
    assert stacked.shape == shape + expected.shape[1:]
    np.testing.assert_allclose(stacked.reshape(expected.shape), expected, rtol=0, atol=1e-14)
    # one state in, one state (or float) out, with the same values
    single = call(states[0], mixed[0])
    assert np.shape(single) == expected.shape[1:]
    if helper == "state_fidelity":
        assert isinstance(single, float)
    np.testing.assert_allclose(single, expected[0], rtol=0, atol=1e-14)


def test_state_fidelity_examples():
    assert state_fidelity(RHO0, RHO0) == pytest.approx(1.0)
    rho1 = np.array([[0, 0], [0, 1]], dtype=complex)
    assert state_fidelity(RHO0, rho1) == pytest.approx(0.0, abs=1e-15)
    assert state_fidelity(0.5 * np.eye(2), RHO0) == pytest.approx(0.5)


def test_haar_states_are_pure_and_uniform():
    rng = np.random.default_rng(7)
    states = haar_random_state(rng, 500)
    assert states.shape == (500, 2, 2)
    np.testing.assert_allclose(np.linalg.eigvalsh(states)[:, 1], 1.0, rtol=0, atol=1e-12)
    assert abs(np.mean(rho_to_bloch(states)[:, 2])) < 0.15


def test_haar_stack_equals_single_draws():
    a, b = np.random.default_rng(41), np.random.default_rng(41)
    stacked = haar_random_state(a, 30)
    singles = np.concatenate([haar_random_state(b, 1) for _ in range(30)])
    assert stacked.tobytes() == singles.tobytes()
    # z, then phi, per state: the stream of the scalar draws
    c = np.random.default_rng(41)
    for rho in stacked:
        z, phi = c.uniform(-1.0, 1.0), c.uniform(0.0, 2.0 * math.pi)
        s = math.sqrt(1.0 - z * z)
        np.testing.assert_allclose(rho_to_bloch(rho), [s * math.cos(phi), s * math.sin(phi), z],
                                   rtol=0, atol=1e-15)


# --------------------------------------------------------------------- #
# builders over a time grid

def _grid(seed, with_amplitude, n=24):
    """``n`` random physical snapshots plus two with tied Kraus weights, one by
    one and as one FilteredIntegrals grid, with times and Rabi rates."""
    rng = np.random.default_rng(seed)
    points = [physical_point(rng, with_amplitude) for _ in range(n)]
    points += [ZERO_POINT, snapshot(0.5, 0.0, 0.0, 0.0, 0.0)]
    times = rng.uniform(0.0, 5.0, len(points))
    omegas = rng.uniform(0.5, 5.0, len(points))
    fields = {name: [getattr(p, name) for p in points]
              for name in ("gamma1", "gamma2", "delta1", "delta2", "dgamma1")}
    return points, FilteredIntegrals(times, **fields), times, omegas


@pytest.mark.parametrize("with_amplitude", [False, True])
def test_builders_on_a_grid_equal_pointwise_calls(with_amplitude):
    points, fi, times, omegas = _grid(31 + with_amplitude, with_amplitude)
    targets = drive_unitary(omegas, times)
    rates = pauli_twirl(fi)
    stacked = {
        "chi_nm": chi_nm(fi),
        "chi_full": chi_full(fi, omegas, times),
        "kraus_nc": kraus_nc(fi, omegas, times),
        "pauli_twirl": np.stack([rates.px, rates.py, rates.pz], axis=-1),
        "depolarizing_rate": depolarizing_rate(fi),
        "depolarizing_chi": depolarizing_chi(depolarizing_rate(fi)),
        "pauli_chi": pauli_chi(rates),
        "gate_error": np.stack([gate_error(fi, m) for m in ("D", "NC", "NM", "NC_I", "NM_I")],
                               axis=-1),
        "drive_unitary": targets,
        "pauli_left_matrix": pauli_left_matrix(targets),
    }
    assert stacked["chi_nm"].shape == (len(points), 4, 4)
    assert stacked["kraus_nc"].shape == (len(points), 4, 2, 2)
    for i, (pt, t, om) in enumerate(zip(points, times, omegas)):
        r = pauli_twirl(pt)
        U = drive_unitary(om, t)
        single = {
            "chi_nm": chi_nm(pt),
            "chi_full": chi_full(pt, om, t),
            "kraus_nc": kraus_nc(pt, om, t),
            "pauli_twirl": [r.px, r.py, r.pz],
            "depolarizing_rate": depolarizing_rate(pt),
            "depolarizing_chi": depolarizing_chi(depolarizing_rate(pt)),
            "pauli_chi": pauli_chi(r),
            "gate_error": [gate_error(pt, m) for m in ("D", "NC", "NM", "NC_I", "NM_I")],
            "drive_unitary": U,
            "pauli_left_matrix": pauli_left_matrix(U),
        }
        for name, value in single.items():
            # kraus_nc: the same operators in the same order as the scalar call
            np.testing.assert_allclose(stacked[name][i], value, rtol=0, atol=1e-14,
                                       err_msg=name)
    # scalar snapshots keep scalar shapes
    pt, t, om = points[0], times[0], omegas[0]
    assert chi_full(pt, om, t).shape == (4, 4)
    assert np.ndim(pauli_twirl(pt).px) == 0
    assert isinstance(gate_error(pt, "NM"), float)


@pytest.mark.parametrize("with_amplitude", [False, True])
def test_builders_on_a_snapshot_equal_their_slice_of_the_grid_bitwise(with_amplitude):
    _, fi, times, omegas = _grid(37 + with_amplitude, with_amplitude)
    assert np.any(fi.dgamma1 > 0) == with_amplitude
    models = ("D", "NC", "NM", "NC_I", "NM_I")

    def build(point, om, t):
        rates = pauli_twirl(point)
        return {
            "chi_nm": chi_nm(point),
            "chi_full": chi_full(point, om, t),
            "kraus_nc": kraus_nc(point, om, t),
            "pauli_twirl": np.stack([rates.px, rates.py, rates.pz], axis=-1),
            "depolarizing_rate": depolarizing_rate(point),
            "gate_error": np.stack([gate_error(point, m) for m in models], axis=-1),
        }

    grid = build(fi, omegas, times)
    for i in range(times.size):
        pt = fi.at(i)
        assert all(np.ndim(getattr(pt, name)) == 0
                   for name in ("times", "gamma1", "gamma2", "delta1", "delta2", "dgamma1"))
        for name, value in build(pt, omegas[i], times[i]).items():
            assert np.asarray(value).tobytes() == grid[name][i].tobytes(), (name, i)


def test_builders_return_plain_arrays_and_take_no_time_label():
    pt = physical_point(np.random.default_rng(35), with_amplitude=True)
    rates = pauli_twirl(pt)
    for chi in (chi_nm(pt), chi_full(pt, 1.3, 0.7), depolarizing_chi(0.1), pauli_chi(rates)):
        assert isinstance(chi, np.ndarray) and chi.shape == (4, 4) and chi.dtype == complex
    kraus = kraus_nc(pt, 1.3, 0.7)
    assert isinstance(kraus, np.ndarray) and kraus.shape == (4, 2, 2)
    # no builder takes a time label or an amplitude flag: dgamma1 is in the snapshot
    for call in (lambda: chi_nm(pt, 0.5), lambda: pauli_twirl(pt, 0.5, True),
                 lambda: depolarizing_chi(0.1, 0.5), lambda: pauli_chi(rates, 0.5),
                 lambda: chi_nm(pt, with_amplitude=True),
                 lambda: chi_full(pt, 1.3, 0.7, with_amplitude=True),
                 lambda: kraus_nc(pt, 1.3, 0.7, with_amplitude=True),
                 lambda: pauli_twirl(pt, with_amplitude=True)):
        with pytest.raises(TypeError):
            call()


def test_one_cp_violating_snapshot_in_a_grid_raises():
    points, _, times, _ = _grid(33, True)
    bad = points + [snapshot(0.01, 0.8, 0.0, 0.0, 0.0)]
    fi = FilteredIntegrals(np.append(times, 1.0),
                           *[[getattr(p, name) for p in bad]
                             for name in ("gamma1", "gamma2", "delta1", "delta2", "dgamma1")])
    with pytest.raises(CPViolationError):
        chi_nm(fi)
    with pytest.raises(CPViolationError):
        pauli_twirl(fi)


def test_avg_gate_fidelity_on_stacks_equals_scalar_calls():
    points, fi, times, omegas = _grid(34, True)
    chis = chi_full(fi, omegas, times)
    kraus = kraus_nc(fi, omegas, times)
    targets = drive_unitary(omegas, times)
    fid_chi = avg_gate_fidelity(chis, targets)
    fid_kraus = avg_gate_fidelity(kraus_to_chi(kraus), targets)
    # one channel against every target broadcasts too
    fid_one = avg_gate_fidelity(chis[0], targets)
    for i in range(len(points)):
        assert isinstance(avg_gate_fidelity(chis[i], targets[i]), float)
        assert fid_chi[i] == pytest.approx(avg_gate_fidelity(chis[i], targets[i]),
                                           rel=0, abs=1e-14)
        assert fid_kraus[i] == pytest.approx(avg_gate_fidelity(kraus_to_chi(kraus[i]),
                                                               targets[i]), rel=0, abs=1e-14)
        assert fid_one[i] == pytest.approx(avg_gate_fidelity(chis[0], targets[i]),
                                           rel=0, abs=1e-14)


# --------------------------------------------------------------------- #
# non-Markovianity

def test_nm_measure_zero_without_memory_kernels():
    # dropping the memory kernels leaves only the nonnegative decay rate
    c, tau = 1.6e9, 5e-4
    Omega = 1.0 / tau
    times = np.linspace(0.0, 6 * tau, 2000)
    g1, _ = ou_kernels(c, tau, Omega, times)
    negativity = np.maximum(0.0, -g1)
    assert negativity.max() == 0.0


def test_nm_measure_zero_at_t0_and_positive_with_memory():
    psd = NoisePsd.ou(1.6e9, 5e-4)
    times, ncp = nm_measure(psd, Omega=2000.0, t_max=6 * 5e-4, n_grid=1500)
    assert ncp[0] == 0.0
    assert ncp[-1] > 0.0
    assert np.all(np.diff(ncp) >= -1e-15)


@pytest.mark.parametrize("n_grid, bound", [(3200, 1e-9), (300, 1e-6)])
def test_nm_measure_on_ou_matches_the_closed_form_kernels(n_grid, bound):
    # criterion 7's OU noise, Omega grid and horizon: the autocovariance route
    # differs from the exact kernels only by its Simpson rule
    c, tau = 1.6e9, 5e-4
    psd = NoisePsd.ou(c, tau)
    for Omega in np.geomspace(0.2 / tau, 3.0 / tau, 20):
        times, ncp = nm_measure(psd, Omega, 8.0 * tau, n_grid=n_grid)
        times_ref, ncp_ref = nm_measure_ou(c, tau, Omega, 8.0 * tau, n_grid)
        np.testing.assert_array_equal(times, times_ref)
        assert np.abs(ncp - ncp_ref).max() <= bound * ncp_ref.max(), Omega


@pytest.mark.parametrize("n_grid, bound", [(3200, 1e-9), (300, 1e-6)])
def test_nm_measure_with_amplitude_noise_matches_the_closed_form_kernels(n_grid, bound):
    # OU amplitude noise adds c_a tau_a^2 (1 - exp(-t / tau_a)) to the smaller
    # rate's g1: it shrinks the negativity, and N_CP with it
    c, tau = 1.6e9, 5e-4
    amp = (4e7, 2e-4)
    psd, amp_psd = NoisePsd.ou(c, tau), NoisePsd.ou(*amp)
    for Omega in np.geomspace(0.2 / tau, 3.0 / tau, 20):
        times, ncp = nm_measure(psd, Omega, 8.0 * tau, n_grid=n_grid, amp_psd=amp_psd)
        times_ref, ncp_ref = nm_measure_ou(c, tau, Omega, 8.0 * tau, n_grid, amp=amp)
        np.testing.assert_array_equal(times, times_ref)
        assert ncp_ref[-1] > 0.0, Omega
        assert np.abs(ncp - ncp_ref).max() <= bound * ncp_ref.max(), Omega
        _, ncp_dephasing = nm_measure(psd, Omega, 8.0 * tau, n_grid=n_grid)
        assert np.all(ncp <= ncp_dephasing), Omega
        assert ncp[-1] < ncp_dephasing[-1], Omega


def test_nm_measure_monotone_on_tabulated_psd():
    # Lorentzian + 1/f + plateau table: Simpson's rule gave a first increment
    # of about -1e-11 here; the clipped negativity must accumulate monotonically
    f = np.geomspace(1.0, 2.0e4, 40)
    s = 600.0 / (1.0 + (f / 300.0) ** 2) + 2000.0 / f + 0.05
    psd = NoisePsd.tabulated(2.0 * math.pi * f, 0.5 * s, 0.5 * s[0], 0.025)
    Omega = 4000.0
    times, ncp = nm_measure(psd, Omega, 4.0 * math.pi / Omega, n_grid=200)
    assert ncp[-1] > 0.0
    assert np.all(np.diff(ncp) >= 0.0)


def test_master_equation_rejects_bad_state():
    with pytest.raises(ValidationError):
        master_equation_evolve(np.eye(2), lambda t: (t, t), 1.0, [1.0])


def test_process_matrix_container_validation():
    with pytest.raises(ValidationError):
        check_process_matrix(np.diag([1.0, 0.1, 0, 0]))  # trace > 1 breaks TP


def test_depolarizing_overestimates_gate_error():
    # over the first Rabi flop at the benchmark noise, the matched
    # depolarizing model upper-bounds the memory-channel error
    tau, c = 5e-4, 1.6e9
    for Omega in (2000.0, 4000.0):
        ts = np.linspace(1e-6, 2 * np.pi / Omega, 60)
        fi = ou_filtered_integrals(c, tau, Omega, ts)
        for i in range(ts.size):
            assert gate_error(fi.at(i), "D") >= gate_error(fi.at(i), "NM")
