import math
import warnings

import numpy as np
import pytest
from scipy.optimize import lsq_linear

from gatenoise import tomography
from gatenoise.channels import (
    KrausSet,
    PauliRates,
    avg_gate_fidelity,
    chi_full,
    drive_unitary,
    gate_fidelity_matrix,
)
from gatenoise.errors import DegenerateDataError, FitError, TuningWarning, ValidationError
from gatenoise.filters import IntegralPoint, ou_filtered_integrals
from gatenoise.tomography import (
    CountRecord,
    TomographySetup,
    _ascend,
    _mle_starts,
    _pivot,
    _rechart,
    _stack_records,
    _stack_terms,
    _tangent_newton,
    average_pulses_per_clifford,
    born_probs,
    chi_from_ell,
    clifford_group,
    clifford_table,
    counts_from_csv,
    counts_to_csv,
    default_setup,
    effective_sample_size,
    ell_form,
    fold_ell,
    linear_inversion,
    mh_chain,
    mle_fit,
    noisy_clifford_maps,
    rb_simulate,
    rb_survival,
    sample_shots,
)
from oracles import (
    depolarizing_rb_lambda,
    fit_rb_decay_curve_fit,
    kraus_to_chi,
    log_likelihood,
    loglik_and_grad,
    master_equation_evolve,
    mh_chain_scalar,
    mle_fit_lbfgsb,
    ou_kernels,
    ptm,
    pulse_unitaries,
    rb_survival_loop,
)

SETUP = default_setup()
CHI_ID = np.diag([1.0, 0, 0, 0]).astype(complex)


def random_manifold_ell(rng, tp=True):
    ell = rng.uniform(-0.6, 0.6, 6)
    ell[[0, 2, 3, 5]] = np.abs(ell[[0, 2, 3, 5]]) + 0.1
    if tp:
        ell[4] = 0.0  # trace preservation on this manifold
    return ell / np.linalg.norm(ell)


def random_cptp_chi(rng):
    """Random CPTP channel via normalized random Kraus operators."""
    ops = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
    total = sum(K.conj().T @ K for K in ops)
    evals, evecs = np.linalg.eigh(total)
    inv_sqrt = evecs @ np.diag(evals**-0.5) @ evecs.conj().T
    return kraus_to_chi([K @ inv_sqrt for K in ops]).matrix


# --------------------------------------------------------------------- #
# setup and Born probabilities

def test_povm_resolves_identity():
    setup = TomographySetup.standard()
    total = sum(m for basis in setup.povm for m in basis)
    assert np.abs(total - np.eye(2)).max() < 1e-12


def test_probabilities_sum_to_one_for_cptp():
    rng = np.random.default_rng(0)
    for _ in range(10):
        probs = born_probs(random_cptp_chi(rng), SETUP)
        np.testing.assert_allclose(probs.sum(axis=(1, 2)), 1.0, atol=1e-12)
        np.testing.assert_allclose(probs.sum(axis=2), 1.0 / 3.0, atol=1e-12)


def test_identity_channel_probabilities():
    probs = born_probs(CHI_ID, SETUP)
    assert probs[2, 2, 0] == pytest.approx(1.0 / 3.0)  # |0> measured in z
    assert probs[2, 2, 1] == pytest.approx(0.0, abs=1e-15)


def test_depolarized_channel_probabilities():
    chi_dep = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    probs = born_probs(chi_dep, SETUP)
    np.testing.assert_allclose(probs, 1.0 / 6.0, atol=1e-14)


# --------------------------------------------------------------------- #
# linear inversion

def test_linear_inversion_identity():
    chi = linear_inversion(born_probs(CHI_ID, SETUP), SETUP)
    np.testing.assert_allclose(chi.matrix, CHI_ID, atol=1e-12)


def test_linear_inversion_roundtrip_random_cptp():
    rng = np.random.default_rng(1)
    for _ in range(20):
        chi = random_cptp_chi(rng)
        probs = born_probs(chi, SETUP)
        rec = linear_inversion(probs, SETUP)
        assert np.abs(rec.matrix - chi).max() < 1e-10
        np.testing.assert_allclose(born_probs(rec, SETUP), probs, atol=1e-12)


def test_linear_inversion_shot_noise_can_be_nonphysical():
    rng = np.random.default_rng(5)
    probs = born_probs(CHI_ID, SETUP)
    rec = sample_shots(probs, 100, rng)
    chi = linear_inversion(rec.frequencies(), SETUP)
    # flagged by eigenvalue inspection, not rejected
    assert np.linalg.eigvalsh(chi.matrix)[0] < 0.0


# --------------------------------------------------------------------- #
# shot sampling

def test_sample_shots_zero_probability():
    probs = np.zeros((4, 3, 2))
    rec = sample_shots(probs, 50, np.random.default_rng(0))
    assert rec.counts[:, :, 0].sum() == 0
    assert np.all(rec.counts[:, :, 1] == 50)


def test_sample_shots_certain_outcome():
    probs = np.zeros((4, 3, 2))
    probs[:, :, 0] = 1.0 / 3.0
    rec = sample_shots(probs, 100, np.random.default_rng(0))
    assert np.all(rec.counts[:, :, 0] == 100)


def test_sample_shots_binomial_statistics():
    probs = np.full((4, 3, 2), 1.0 / 6.0)
    n, reps = 1000, 1000
    rng = np.random.default_rng(2)
    means = np.empty(reps)
    for r in range(reps):
        rec = sample_shots(probs, n, rng)
        means[r] = rec.counts[0, 0, 0]
    se = means.std(ddof=1) / math.sqrt(reps)
    assert abs(means.mean() - n / 2) < 4 * se


def test_sample_shots_matches_per_pair_loop():
    """One uniform draw per shot, pair after pair: the same counts as drawing
    each (state, basis) pair's shots in turn from the same generator."""
    rng = np.random.default_rng(26)
    for i in range(20):
        probs = born_probs(chi_from_ell(random_manifold_ell(rng, tp=False)), SETUP)
        shots = 37 if i % 2 else rng.integers(0, 40, size=(4, 3))
        want = np.zeros((4, 3, 2), dtype=int)
        loop_rng = np.random.default_rng(i)
        for s in range(4):
            for b in range(3):
                n = shots if np.isscalar(shots) else shots[s, b]
                p_plus = float(np.clip(3.0 * probs[s, b, 0], 0.0, 1.0))
                want[s, b, 0] = (loop_rng.random(n) <= p_plus).sum()
                want[s, b, 1] = n - want[s, b, 0]
        got = sample_shots(probs, shots, np.random.default_rng(i))
        np.testing.assert_array_equal(got.counts, want)


def test_count_record_validation():
    with pytest.raises(ValidationError):
        CountRecord(t=0.0, shots=np.full((4, 3), 5),
                    counts=np.zeros((4, 3, 2), dtype=int))


# --------------------------------------------------------------------- #
# the quadratic-form likelihood shared by MLE and MH

def test_q_form_probabilities_match_born_matrices():
    rng = np.random.default_rng(21)
    for _ in range(50):
        ell = rng.normal(size=6) * rng.uniform(0.1, 3.0)
        p_form = np.einsum("k,sbmkl,l->sbm", ell, SETUP.q_forms, ell) / (ell @ ell)
        assert np.abs(p_form - born_probs(chi_from_ell(ell), SETUP)).max() < 1e-13


def test_loglik_gradient_matches_central_differences():
    rng = np.random.default_rng(22)
    rec = sample_shots(born_probs(chi_from_ell(random_manifold_ell(rng)), SETUP), 200, rng)
    for _ in range(5):
        ell = random_manifold_ell(rng, tp=False) * rng.uniform(0.5, 2.0)
        _, grad = loglik_and_grad(ell, rec, SETUP)
        h = 1e-6
        fd = [(loglik_and_grad(ell + h * e, rec, SETUP)[0]
               - loglik_and_grad(ell - h * e, rec, SETUP)[0]) / (2 * h) for e in np.eye(6)]
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-5 * np.abs(grad).max())


def test_loglik_is_the_pair_normalized_binomial():
    rng = np.random.default_rng(23)
    ells = np.array([random_manifold_ell(rng, tp=False) for _ in range(3)])
    all_probs = [born_probs(chi_from_ell(ell), SETUP) for ell in ells]
    records = [sample_shots(probs, 50, rng) for probs in all_probs]
    logl, _, p = _stack_terms(ells, *_stack_records(records), SETUP.q_forms.reshape(-1, 6).T)
    for k, (probs, rec) in enumerate(zip(all_probs, records)):
        np.testing.assert_allclose(p[k], probs.ravel(), rtol=0, atol=1e-13)
        q = probs[:, :, 0] / probs.sum(axis=2)
        n_plus, n_minus = rec.counts[:, :, 0], rec.counts[:, :, 1]
        want = (n_plus * np.log(q) + n_minus * np.log1p(-q)).sum()
        assert logl[k] == pytest.approx(want, rel=1e-12)


def test_quadratic_gate_error_matches_avg_gate_fidelity():
    # a target that is not a multiple of pi: G and its transpose differ
    target = drive_unitary(2.0, 1.1)
    G = gate_fidelity_matrix(target)
    assert np.abs(G - G.T).max() > 1e-3
    form = ell_form(G.T)
    rng = np.random.default_rng(24)
    for _ in range(20):
        ell = rng.normal(size=6)
        ell /= np.linalg.norm(ell)
        want = 1.0 - avg_gate_fidelity(chi_from_ell(ell), target)
        assert 0.5 - ell @ form @ ell == pytest.approx(want, abs=1e-13)
    # and through the chain, sample by sample
    rec = sample_shots(born_probs(chi_full(IntegralPoint(0.05, 0.0, 0.08, 0.0, 0.0), 2.0, 1.1),
                                  SETUP), 100, rng)
    post = mh_chain(rec, SETUP, n_steps=2000, seed=4, target_unitary=target)
    for ell, err in zip(post.ells[::100], post.gate_errors[::100]):
        assert err == pytest.approx(1.0 - avg_gate_fidelity(chi_from_ell(ell), target),
                                    abs=1e-13)


def test_fold_ell_keeps_chi_and_makes_diagonals_nonnegative():
    rng = np.random.default_rng(25)
    ells = rng.normal(size=(40, 6))
    folded = fold_ell(ells)
    assert np.all(folded[:, [0, 2, 3, 5]] >= 0.0)
    np.testing.assert_allclose(np.abs(folded), np.abs(ells), rtol=0, atol=0)
    for a, b in zip(ells, folded):
        assert np.abs(chi_from_ell(a) - chi_from_ell(b)).max() < 1e-15


# --------------------------------------------------------------------- #
# maximum likelihood

def test_mle_requires_counts_everywhere():
    counts = np.zeros((4, 3, 2), dtype=int)
    counts[:, :, 0] = 10
    counts[0, 1] = 0
    rec = CountRecord(t=0.0, shots=counts.sum(axis=2), counts=counts)
    with pytest.raises(DegenerateDataError):
        mle_fit(rec, SETUP)


def test_mle_recovers_manifold_chi_from_exact_frequencies():
    rng = np.random.default_rng(3)
    for _ in range(4):
        ell = random_manifold_ell(rng)
        chi = chi_from_ell(ell)
        probs = born_probs(chi, SETUP)
        counts = np.round(probs * 3 * 10**9).astype(int)
        rec = CountRecord(t=0.0, shots=counts.sum(axis=2), counts=counts)
        chi_hat, _ = mle_fit(rec, SETUP, n_starts=4, seed=0)
        assert np.abs(chi_hat.matrix - chi).max() < 1e-7


def test_mle_equals_linear_inversion_at_large_n():
    rng = np.random.default_rng(4)
    ell = random_manifold_ell(rng)
    chi = chi_from_ell(ell)
    probs = born_probs(chi, SETUP)
    counts = np.round(probs * 3 * 10**9).astype(int)
    rec = CountRecord(t=0.0, shots=counts.sum(axis=2), counts=counts)
    chi_mle, _ = mle_fit(rec, SETUP, n_starts=4, seed=0)
    chi_li = linear_inversion(probs, SETUP)
    assert np.abs(chi_mle.matrix - chi_li.matrix).max() < 1e-7


def test_mle_identity_counts_small_n():
    probs = born_probs(CHI_ID, SETUP)
    rec = sample_shots(probs, 100, np.random.default_rng(7))
    chi_hat, _ = mle_fit(rec, SETUP, seed=0)
    assert chi_hat.matrix[0, 0].real >= 0.9


def test_mle_likelihood_at_least_truth():
    # optimizer sanity: fitted likelihood >= likelihood of the true channel
    rng = np.random.default_rng(8)
    ell = random_manifold_ell(rng)
    probs = born_probs(chi_from_ell(ell), SETUP)
    rec = sample_shots(probs, 500, rng)
    _, ell_hat = mle_fit(rec, SETUP, seed=1)
    ll_hat, _ = loglik_and_grad(ell_hat, rec, SETUP)
    ll_true, _ = loglik_and_grad(ell, rec, SETUP)
    assert ll_hat >= ll_true - 1e-6


def test_an_empty_stack_of_records_is_rejected():
    with pytest.raises(ValidationError, match="no count records"):
        _stack_records([])
    with pytest.raises(ValidationError, match="no count records"):
        mle_fit([], SETUP)


def test_sphere_hessian_matches_central_differences_of_the_gradient():
    rng = np.random.default_rng(40)
    probs = born_probs(chi_from_ell(random_manifold_ell(rng)), SETUP)
    noisy = sample_shots(probs, 300, rng)
    sparse = sample_shots(born_probs(CHI_ID, SETUP), 40, rng)
    assert np.any(sparse.counts == 0)
    q_flat = SETUP.q_forms.reshape(-1, 36)
    q_mat = SETUP.q_forms.reshape(-1, 6).T
    for rec in (noisy, sparse):
        counts, shots = _stack_records([rec])
        for _ in range(4):
            ell = random_manifold_ell(rng, tp=False)
            logl, q_ell, p = _stack_terms(ell[None], counts, shots, q_mat)
            assert logl[0] == pytest.approx(log_likelihood(p.reshape(4, 3, 2), rec), rel=1e-12)
            grad, hess = _tangent_newton(ell[None], q_ell, p, counts, shots, q_flat)
            np.testing.assert_allclose(grad[0], loglik_and_grad(ell, rec, SETUP)[1],
                                       rtol=1e-10, atol=1e-10 * np.abs(grad).max())
            proj = np.eye(6) - np.outer(ell, ell)
            for _ in range(3):
                xi = proj @ rng.normal(size=6)
                xi /= np.linalg.norm(xi)
                h = 1e-6
                fd = proj @ (loglik_and_grad(ell + h * xi, rec, SETUP)[1]
                             - loglik_and_grad(ell - h * xi, rec, SETUP)[1]) / (2 * h)
                np.testing.assert_allclose(hess[0] @ xi, fd, rtol=1e-5,
                                           atol=1e-6 * np.abs(hess).max())


def test_batched_mle_matches_one_fit_at_a_time():
    rng = np.random.default_rng(41)
    records = [sample_shots(born_probs(random_cptp_chi(rng), SETUP), shots, rng)
               for shots in (30, 300, 3000, 300, 30)]
    chis, ells = mle_fit(records, SETUP, n_starts=3, seed=9)
    assert ells.shape == (5, 6) and len(chis) == 5
    starts = _mle_starts(5, 3, 9)
    for k, rec in enumerate(records):
        ell, logl, _ = _ascend(starts[k], *_stack_records([rec] * 3), SETUP)
        np.testing.assert_allclose(fold_ell(ell[np.argmax(logl)]), ells[k], rtol=0, atol=1e-12)
        np.testing.assert_allclose(chis[k].matrix, chi_from_ell(ells[k]), rtol=0, atol=1e-15)
    chi0, ell0 = mle_fit(records[0], SETUP, n_starts=3, seed=9)
    np.testing.assert_allclose(ell0, ells[0], rtol=0, atol=1e-12)


def test_each_fit_draws_its_own_starts(monkeypatch):
    rng = np.random.default_rng(42)
    rec = sample_shots(born_probs(random_cptp_chi(rng), SETUP), 200, rng)
    seen = []

    def spy(starts, *args):
        seen.append(starts.copy())
        return _ascend(starts, *args)

    monkeypatch.setattr(tomography, "_ascend", spy)
    _, ells = mle_fit([rec, rec], SETUP, n_starts=3, seed=5)
    starts = seen[0].reshape(2, 3, 6)
    np.testing.assert_array_equal(starts[0, 0], starts[1, 0])  # the identity start
    assert np.abs(starts[0, 1:] - starts[1, 1:]).min() > 1e-6
    np.testing.assert_allclose(ells[0], ells[1], rtol=0, atol=1e-8)


@pytest.mark.parametrize("seed, shots, kind", [
    (43, 2000, "near_unitary"),
    (44, 8, "random"),
    (45, 2000, "random"),
])
def test_mle_reaches_the_lbfgsb_oracle(seed, shots, kind):
    rng = np.random.default_rng(seed)
    if kind == "near_unitary":
        chi = np.diag([0.995, 0.0, 0.0, 0.005]).astype(complex)  # z dephasing
        probs = born_probs(chi, SETUP)
        assert np.sum(probs < 1e-15) >= 2
    else:
        probs = born_probs(random_cptp_chi(rng), SETUP)
    records = [sample_shots(probs, shots, rng) for _ in range(6)]
    _, ells = mle_fit(records, SETUP, n_starts=2, seed=seed)
    for rec, ell in zip(records, ells):
        best = loglik_and_grad(mle_fit_lbfgsb(rec, SETUP, n_starts=32, seed=seed)[1], rec, SETUP)[0]
        assert loglik_and_grad(ell, rec, SETUP)[0] >= best - 1e-9 * abs(best)


def test_newton_ascent_never_lowers_the_likelihood(monkeypatch):
    rng = np.random.default_rng(47)
    near_unitary = born_probs(np.diag([0.995, 0.0, 0.0, 0.005]).astype(complex), SETUP)
    records = [sample_shots(born_probs(random_cptp_chi(rng), SETUP), shots, rng)
               for shots in (10, 100, 1000)]
    records += [sample_shots(near_unitary, 2000, rng) for _ in range(3)]
    starts = _mle_starts(6, 4, 47).reshape(-1, 6)
    counts, shots = _stack_records([rec for rec in records for _ in range(4)])
    previous = _stack_terms(starts, counts, shots, SETUP.q_forms.reshape(-1, 6).T)[0]
    for cap in range(1, 41):
        monkeypatch.setattr(tomography, "MLE_MAX_ITER", cap)
        logl = _ascend(starts, counts, shots, SETUP)[1]
        assert np.all(logl >= previous)
        previous = logl


CHART_FLIPS = np.array([[False, False], [True, False], [False, True], [True, True]])


def test_rechart_keeps_chi_and_is_an_involution():
    rng = np.random.default_rng(48)
    ells = np.array([random_manifold_ell(rng, tp=False) for _ in range(20)])
    np.testing.assert_array_equal(SETUP.chart_forms[0], SETUP.q_forms)
    for k, order in enumerate(tomography._CHART_ORDER):
        flip = np.tile(CHART_FLIPS[k], (len(ells), 1))
        charted = _rechart(ells, flip)
        np.testing.assert_allclose(np.linalg.norm(charted, axis=1), 1.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(_rechart(charted, flip), ells, rtol=0, atol=1e-15)
        forms = SETUP.chart_forms[k].reshape(-1, 6, 6)
        for ell, e_k in zip(ells, charted):
            chi = chi_from_ell(ell)
            # chart k factors chi with its basis in the order _CHART_ORDER[k]
            np.testing.assert_allclose(chi_from_ell(e_k)[np.ix_(order, order)], chi,
                                       rtol=0, atol=1e-15)
            np.testing.assert_allclose(np.einsum("i,oij,j->o", e_k, forms, e_k),
                                       born_probs(chi, SETUP).ravel(), rtol=0, atol=1e-15)


def test_rechart_at_a_vanishing_trailing_pair_is_exact():
    # h = hypot(l12, l22) = 0 in the chart: back in the standard chart the
    # block is (0, 0, |a|), with no 0/0
    charts = np.array([3, 2])
    ell = np.array([[0.6, 0.0, 0.0, -0.8, 0.0, 0.0], [0.0, 0.0, 0.6, 0.8, 0.0, 0.0]])
    with np.errstate(all="raise"):
        back = _rechart(ell, CHART_FLIPS[charts])
    np.testing.assert_array_equal(back, [[0.0, 0.0, 0.6, 0.0, 0.0, 0.8]] * 2)
    for e, e_std, order in zip(ell, back, tomography._CHART_ORDER[charts]):
        np.testing.assert_array_equal(chi_from_ell(e)[np.ix_(order, order)], chi_from_ell(e_std))


def test_pivot_flips_only_blocks_past_the_margin():
    rng = np.random.default_rng(49)
    ells = rng.normal(size=(400, 6)) * rng.choice([1e-3, 0.1, 1.0], size=(400, 6))
    ells /= np.linalg.norm(ells, axis=1, keepdims=True)
    chart = rng.integers(0, 4, 400)
    ready = rng.random(400) < 0.8
    sq = (ells * ells).reshape(-1, 2, 3)
    past = sq[..., 0] < tomography.PIVOT_RATIO * (sq[..., 1] + sq[..., 2])
    assert past[ready].any() and (~past[ready]).any() and past[~ready].any()
    new_ell, new_chart, flipped = _pivot(ells, chart, ready)
    assert flipped
    changed = ((chart ^ new_chart)[:, None] & tomography._CHART_BITS) > 0
    np.testing.assert_array_equal(changed, past & ready[:, None])
    np.testing.assert_array_equal(new_ell.reshape(-1, 2, 3)[~changed],
                                  ells.reshape(-1, 2, 3)[~changed])
    # a flipped block now leads by more than 1 / PIVOT_RATIO: it stays put
    again = _pivot(new_ell, new_chart, np.ones(400, dtype=bool))
    sq = (new_ell * new_ell).reshape(-1, 2, 3)
    lead, trail = sq[changed][:, 0], sq[changed][:, 1] + sq[changed][:, 2]
    assert np.all(lead > trail / tomography.PIVOT_RATIO)
    assert not (((again[1] ^ new_chart)[:, None] & tomography._CHART_BITS) > 0)[changed].any()


def test_pi_pulse_fits_converge_to_the_lbfgsb_oracle():
    # near a pi pulse chi_II -> 0: a fixed Cholesky chart stops 2 of these fits at the cap
    t = math.pi / 4000.0
    chi = chi_full(ou_filtered_integrals(1.6e9, 5e-4, 4000.0, [t]).at(0), 4000.0, t).matrix
    assert chi[0, 0].real < 1e-3
    rng = np.random.default_rng(3)
    records = [sample_shots(born_probs(chi, SETUP), 2000, rng) for _ in range(6)]
    counts, shots = _stack_records([rec for rec in records for _ in range(2)])
    _, _, dec = _ascend(_mle_starts(6, 2, 3).reshape(-1, 6), counts, shots, SETUP)
    assert np.all(dec <= tomography.MLE_TOL * counts.sum(axis=1))
    with warnings.catch_warnings():
        warnings.simplefilter("error", TuningWarning)
        _, ells = mle_fit(records, SETUP, n_starts=2, seed=3)
    for rec, ell in zip(records, ells):
        best = loglik_and_grad(mle_fit_lbfgsb(rec, SETUP, n_starts=32, seed=3)[1], rec, SETUP)[0]
        assert loglik_and_grad(ell, rec, SETUP)[0] >= best - 1e-9 * abs(best)


def test_mle_reports_fits_stopped_at_the_iteration_cap(monkeypatch):
    rng = np.random.default_rng(46)
    records = [sample_shots(born_probs(random_cptp_chi(rng), SETUP), 100, rng) for _ in range(3)]
    monkeypatch.setattr(tomography, "MLE_MAX_ITER", 1)
    with pytest.warns(TuningWarning, match="3 of 3 MLE fits stopped after 1 iterations"):
        mle_fit(records, SETUP, n_starts=2)


# --------------------------------------------------------------------- #
# Metropolis-Hastings

def test_mh_posterior_concentrates_on_identity():
    probs = born_probs(CHI_ID, SETUP)
    rec = sample_shots(probs, 200, np.random.default_rng(11))
    post = mh_chain(rec, SETUP, n_steps=20000, seed=0)
    assert 0.1 <= post.acceptance_rate <= 0.6
    shot_floor = 1.0 / math.sqrt(200.0)
    assert post.mode_error <= shot_floor
    assert post.quantiles[0] < post.mean_error < post.quantiles[1]


def test_mh_gate_errors_gauge_invariant():
    """Sampled gate errors computed against U and against the identity after
    conjugating the data-generating channel agree (same comoving gauge)."""
    pt = IntegralPoint(0.05, 0.0, 0.08, 0.0, 0.0)
    Omega, t = 2.0, 1.1
    chi_lab = chi_full(pt, Omega, t)
    probs = born_probs(chi_lab, SETUP)
    rec = sample_shots(probs, 400, np.random.default_rng(12))
    target = drive_unitary(Omega, t)
    post = mh_chain(rec, SETUP, n_steps=15000, seed=3, target_unitary=target)
    true_err = 1.0 - avg_gate_fidelity(chi_lab, target)
    assert post.quantiles[0] - 0.02 <= true_err <= post.quantiles[1] + 0.02


def test_mh_normalization_invariant():
    probs = born_probs(CHI_ID, SETUP)
    rec = sample_shots(probs, 100, np.random.default_rng(13))
    post = mh_chain(rec, SETUP, n_steps=5000, seed=1)
    norms = np.linalg.norm(post.ells, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)
    assert np.all(post.ells[:, [0, 2, 3, 5]] >= 0.0)


def test_mh_tuning_warning_for_absurd_widths():
    probs = born_probs(CHI_ID, SETUP)
    rec = sample_shots(probs, 10000, np.random.default_rng(14))
    with pytest.warns(TuningWarning):
        mh_chain(rec, SETUP, n_steps=3000, width=0.49, seed=2, burn_in_frac=0.0)


@pytest.mark.parametrize("kwargs", [{"n_steps": 0}, {"width": 0.0}, {"width": -0.1},
                                    {"burn_in_frac": 1.0}])
def test_mh_rejects_empty_chain_and_bad_width(kwargs):
    rec = sample_shots(born_probs(CHI_ID, SETUP), 10, np.random.default_rng(16))
    with pytest.raises(ValidationError):
        mh_chain(rec, SETUP, **{"n_steps": 100, **kwargs})


@pytest.mark.parametrize("shots", [8, 100, 1000])
def test_mh_chain_matches_the_scalar_oracle(shots):
    rng = np.random.default_rng(48)
    rec = sample_shots(born_probs(random_cptp_chi(rng), SETUP), shots, rng)
    post = mh_chain(rec, SETUP, n_steps=5000, seed=6)
    ells, rate, width = mh_chain_scalar(rec, SETUP, n_steps=5000, seed=6)
    np.testing.assert_allclose(post.ells, ells, rtol=0, atol=1e-12)
    assert post.acceptance_rate == pytest.approx(rate, rel=0, abs=1e-12)
    assert post.width == pytest.approx(width, rel=1e-12)


@pytest.mark.filterwarnings("ignore::gatenoise.errors.TuningWarning")
@pytest.mark.parametrize("chi_seed, shots, chain", [
    # 256 burn-in steps, four whole 64-step windows; then 257 steps, one left over
    (49, 100, {"n_steps": 777, "burn_in_frac": 0.33}),
    (49, 100, {"n_steps": 779, "burn_in_frac": 0.33}),
    (50, 100, {"n_steps": 500, "burn_in_frac": 0.0}),
    (51, 100, {"n_steps": 1}),
    (54, 10000, {"n_steps": 1000, "width": 0.49, "burn_in_frac": 0.0}),    # rejects whole batches
    (52, 8, {"n_steps": 1000, "width": 1e-3}),                              # accepts nearly all
], ids=["burn-in-whole-windows", "burn-in-partial-window", "no-burn-in", "one-step",
        "rejecting", "accepting"])
def test_mh_prefetch_depth_changes_no_step(monkeypatch, chi_seed, shots, chain):
    """A pre-fetched batch ends at its first acceptance and at each tuning
    window of the burn-in, so the depth does not change the chain: depths 1,
    3 and 16 walk the same steps as the one-proposal-at-a-time oracle."""
    chi = random_cptp_chi(np.random.default_rng(chi_seed))
    rec = sample_shots(born_probs(chi, SETUP), shots, np.random.default_rng(53))
    ells, rate, width = mh_chain_scalar(rec, SETUP, seed=7, **chain)
    posts = []
    for depth in (1, 3, 16):
        monkeypatch.setattr(tomography, "MH_PREFETCH", depth)
        posts.append(mh_chain(rec, SETUP, seed=7, **chain))
    for post in posts:
        np.testing.assert_allclose(post.ells, ells, rtol=0, atol=1e-12)
        np.testing.assert_allclose(post.ells, posts[0].ells, rtol=0, atol=1e-12)
        assert post.acceptance_rate == rate == posts[0].acceptance_rate
        assert post.width == pytest.approx(width, rel=1e-12)
        assert post.width == pytest.approx(posts[0].width, rel=1e-12)
    if shots == 10000:
        assert 0.0 < rate < 0.05
    elif shots == 8:
        assert rate > 0.9


def test_mh_mean_matches_importance_sampling_oracle():
    """On a broad posterior (8 shots per setting) the chain's mean gate error
    matches an importance-sampling average over uniform points of S^5, the
    chain's prior; a chain on the positive orthant without the ray term of
    the renormalization misses it by about 0.01."""
    truth = np.array([0.95, 0.1, 0.2, 0.15, 0.0, 0.1])
    truth /= np.linalg.norm(truth)
    rec = sample_shots(born_probs(chi_from_ell(truth), SETUP), 8, np.random.default_rng(2))
    form = ell_form(gate_fidelity_matrix(np.eye(2)).T)
    rng = np.random.default_rng(102)
    logls, errors = [], []
    for _ in range(8):
        x = rng.standard_normal((50000, 6))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        probs = np.einsum("nk,sbmkl,nl->nsbm", x, SETUP.q_forms, x)
        pairs = probs.sum(axis=3)
        logls.append(np.einsum("nsbm,sbm->n", np.log(probs), rec.counts)
                     - np.einsum("nsb,sb->n", np.log(pairs), rec.shots))
        errors.append(0.5 - np.einsum("nk,kl,nl->n", x, form, x))
    logl = np.concatenate(logls)
    weight = np.exp(logl - logl.max())
    weight /= weight.sum()
    oracle = float(weight @ np.concatenate(errors))
    assert 1.0 / (weight @ weight) > 1000.0   # the oracle's own sample size

    post = mh_chain(rec, SETUP, n_steps=60000, seed=2)
    assert abs(post.mean_error - oracle) < 0.004


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9])
def test_effective_sample_size_of_ar1(phi):
    rng = np.random.default_rng(17)
    n = 200000
    noise = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = noise[0] / math.sqrt(1.0 - phi**2)
    for i in range(1, n):
        x[i] = phi * x[i - 1] + noise[i]
    want = n * (1.0 - phi) / (1.0 + phi)
    assert effective_sample_size(x) == pytest.approx(want, rel=0.1)
    assert effective_sample_size(np.full(50, 0.3)) == 1.0


# --------------------------------------------------------------------- #
# counts file round trip

def test_counts_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(15)
    recs = [sample_shots(born_probs(CHI_ID, SETUP), 50, rng, t=t) for t in (0.1, 0.2)]
    path = tmp_path / "counts.csv"
    counts_to_csv(recs, path)
    back = counts_from_csv(path)
    assert len(back) == 2
    for a, b in zip(recs, back):
        assert a.t == b.t
        np.testing.assert_array_equal(a.counts, b.counts)


def test_counts_csv_roundtrip_numpy_scalar_time(tmp_path):
    rng = np.random.default_rng(16)
    recs = [sample_shots(born_probs(CHI_ID, SETUP), 20, rng, t=np.float64(0.001))]
    path = tmp_path / "counts.csv"
    counts_to_csv(recs, path)
    back = counts_from_csv(path)
    assert back[0].t == 0.001
    np.testing.assert_array_equal(recs[0].counts, back[0].counts)


def test_counts_csv_unparsable_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("state,basis,time_s,n_plus,n_minus\nplus,x,np.float64(0.1),3,2\n")
    with pytest.raises(ValidationError):
        counts_from_csv(path)
    path.write_text("state,basis,time_s,n_plus,n_minus\nplus,x,0.1,3.5,2\n")
    with pytest.raises(ValidationError):
        counts_from_csv(path)


def test_counts_csv_missing_basis(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "state,basis,time_s,n_plus,n_minus\n"
        "plus,x,0.1,3,2\n"
    )
    with pytest.raises(DegenerateDataError):
        counts_from_csv(path)


# --------------------------------------------------------------------- #
# randomized benchmarking

def test_clifford_table_properties():
    table = clifford_table()
    assert len(table) == 24
    assert 1.8 < average_pulses_per_clifford() < 2.4
    rotations = np.array([R for R, _ in table])
    assert len({R.tobytes() for R in rotations}) == 24
    assert np.array_equal(rotations[0], np.eye(3))
    for R, word in table:
        # the word's pulse product is a unitary whose PTM is the rotation
        U = np.eye(2, dtype=complex)
        for g in word:
            U = pulse_unitaries()[g] @ U
        np.testing.assert_allclose(ptm(KrausSet([U]))[1:, 1:], R, atol=1e-12)
    compose, inverse = clifford_group()
    assert sorted(set(compose.ravel())) == list(range(24))
    for a in range(24):
        assert compose[a, 0] == compose[0, a] == a
        assert compose[a, inverse[a]] == compose[inverse[a], a] == 0
        for b in range(24):
            assert np.array_equal(rotations[compose[a, b]], rotations[a] @ rotations[b])


@pytest.mark.parametrize("length", [1, 2, 7, 33])
def test_rb_batched_propagation_matches_per_sequence_oracle(length):
    rates = PauliRates(4e-3, 8e-3, 2e-3)
    sequences = np.random.default_rng(length).integers(0, 24, size=(12, length))
    words = [w for _, w in clifford_table()]
    np.testing.assert_allclose(rb_survival(noisy_clifford_maps(rates), sequences),
                               rb_survival_loop(rates, sequences, words), rtol=0, atol=1e-12)


def test_rb_survival_rejects_non_monomial_maps():
    maps = noisy_clifford_maps(PauliRates(4e-3, 8e-3, 2e-3))
    maps[5, 0, 1] = 0.1
    with pytest.raises(ValidationError, match="monomial"):
        rb_survival(maps, np.zeros((3, 4), dtype=int))


def test_rb_noiseless_survival():
    res = rb_simulate(PauliRates(0, 0, 0), lengths=[2, 16, 128], n_seq=8, shots=40, seed=0)
    assert res.lam == 1.0
    np.testing.assert_allclose(res.survival_mean, 1.0)


def test_rb_depolarizing_oracle():
    p = 2e-2
    res = rb_simulate(PauliRates(p / 3, p / 3, p / 3), n_seq=60, shots=100, seed=1)
    lam_pred = depolarizing_rb_lambda(p)
    assert abs(res.lam - lam_pred) / lam_pred < 0.02
    assert abs(res.lam - lam_pred) / (1.0 - lam_pred) < 0.10


def test_rb_fit_rejects_increasing_data():
    from gatenoise.tomography import fit_rb_decay

    lengths = np.array([2, 8, 32, 128])
    rising = np.array([0.55, 0.7, 0.85, 0.97])
    with pytest.raises(FitError):
        fit_rb_decay(lengths, rising, 0.005 * np.ones(4), shots=200, n_seq=30)


def test_rb_fit_flat_at_half_is_fully_decohered():
    from gatenoise.tomography import fit_rb_decay

    lengths = np.array([2, 8, 32, 128])
    flat = np.array([0.502, 0.499, 0.501, 0.5])
    assert fit_rb_decay(lengths, flat, 0.005 * np.ones(4), shots=100, n_seq=100) == 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 40, 1350])
def test_percentiles_match_numpy_bitwise(n):
    x = np.random.default_rng(n).standard_normal(n)
    q = (0.0, 2.5, 50.0, 97.5, 100.0)
    np.testing.assert_array_equal(tomography.percentiles(x, q), np.percentile(x, q))


def _rb_case(seed, monkeypatch):
    """RB data of one fixed seed, as ``rb_simulate`` hands them to the fit.

    A quarter each: anisotropic Pauli rates, depolarizing rates, decays
    that are nearly flat near 1 (p <= 3e-5) and decays that are flat at 1/2
    after the first lengths (p >= 0.05).
    """
    rng = np.random.default_rng([12, seed])
    kind = seed % 4
    p = 10.0 ** rng.uniform(*[(-4.0, -1.5), (-4.0, -1.5), (-6.0, -4.5), (-1.3, -0.7)][kind])
    split = np.full(3, 1.0 / 3.0) if kind == 1 else rng.dirichlet(np.ones(3))
    seen = []
    monkeypatch.setattr(tomography, "fit_rb_decay", lambda *a, **k: seen.append((a, k)) or 0.5)
    rb_simulate(PauliRates(*(p * split)), n_seq=30, shots=100, seed=seed)
    monkeypatch.undo()
    (lengths, mean, se), kw = seen[0]
    return lengths, mean, se, kw


def _bounded_rss(lam, lengths, mean):
    """Least residual sum of squares over (A, B) in [0, 1]^2 at fixed lam."""
    design = np.column_stack([lam ** lengths.astype(float), np.ones(lengths.size)])
    return 2.0 * lsq_linear(design, mean, bounds=(0.0, 1.0), method="bvls").cost


CONVERGED = {"ftol": 1e-15, "xtol": 1e-15, "gtol": 1e-15}


@pytest.mark.parametrize("seed", range(60))
def test_rb_variable_projection_matches_curve_fit(seed, monkeypatch):
    # At scipy's default tolerances curve_fit stops short on flat profiles
    # (9 of these 60 seeds end 2e-10 to 0.9% above the least RSS), so lam is
    # compared with curve_fit run to convergence, and the RSS with both.
    from gatenoise.tomography import fit_rb_decay

    lengths, mean, se, kw = _rb_case(seed, monkeypatch)
    try:
        lam_ref, popt = fit_rb_decay_curve_fit(lengths, mean, se, **kw, **CONVERGED)
    except FitError:
        with pytest.raises(FitError):
            fit_rb_decay(lengths, mean, se, **kw)
        return
    lam = fit_rb_decay(lengths, mean, se, **kw)
    if popt is None:
        assert lam == lam_ref
        return
    assert abs(lam - lam_ref) <= 1e-6
    rss = _bounded_rss(lam, lengths, mean)
    for tols in ({}, CONVERGED):
        A, lam_ref, B = fit_rb_decay_curve_fit(lengths, mean, se, **kw, **tols)[1]
        assert rss <= np.sum((A * lam_ref ** lengths.astype(float) + B - mean) ** 2) * (1 + 1e-9)


def test_rb_pauli_channel_matches_bloch_prediction():
    rates = PauliRates(4e-3, 8e-3, 2e-3)
    res = rb_simulate(rates, lengths=[2, 8, 32, 128, 512], n_seq=80, shots=200, seed=3)
    mus = np.array([
        1.0 - 2 * (rates.py + rates.pz),
        1.0 - 2 * (rates.px + rates.pz),
        1.0 - 2 * (rates.px + rates.py),
    ])
    mu_avg = mus.mean()
    lam_pred = float(np.mean([mu_avg ** len(w) for _, w in clifford_table()]))
    assert abs(res.lam - lam_pred) / (1.0 - lam_pred) < 0.10


def test_chi_full_is_rotation_composed_with_comoving_map():
    from gatenoise.channels import chi_nm
    from gatenoise.filters import ou_filtered_integrals

    rng = np.random.default_rng(21)
    for _ in range(10):
        a, tt, c = rng.uniform(0.2, 10), rng.uniform(0.1, 10), rng.uniform(0.01, 0.3)
        fi = ou_filtered_integrals(c, 1.0, a, [tt])
        pt = fi.at(0)
        R_full = ptm(chi_full(pt, a, tt))
        U = drive_unitary(a, tt)
        R_rot = ptm(kraus_to_chi([U]))
        np.testing.assert_allclose(R_full, R_rot @ ptm(chi_nm(pt)), atol=1e-12)


def test_born_probs_match_langevin_frequencies():
    """Born probabilities of the analytic channel against the stochastic
    ensemble at the pi-pulse snapshot.

    Two-leg check: the closed-map probabilities sit within the quadratic
    truncation bound of the exactly propagated master equation, and the
    exact propagation matches the Langevin frequencies within 3 standard
    errors.  (A single-leg closed-map-vs-ensemble comparison at high
    sampling depth resolves the truncation floor itself, ~1e-4 in
    probability at these parameters.)
    """
    from gatenoise.langevin import DriveConfig, evolve_ensemble
    from gatenoise.noise import OUSource
    from gatenoise.channels import rotate_to_lab

    tau, c, Omega = 5e-4, 1.6e9, 4000.0
    t_pi = math.pi / Omega
    n_steps = 400
    drive = DriveConfig(Omega=Omega, dt=t_pi / n_steps, n_steps=n_steps, m_mc=10000)
    fi = ou_filtered_integrals(c, tau, Omega, [t_pi])
    probs_map = born_probs(chi_full(fi.at(0), Omega, t_pi), SETUP)
    kernels = lambda t: ou_kernels(c, tau, Omega, t)

    for s, rho0 in enumerate(SETUP.states):
        traj = evolve_ensemble(rho0, drive, OUSource(c, tau), seed=100 + s,
                               record_every=n_steps)
        rho_mc = traj.states[-1]
        rho_ex = rotate_to_lab(
            master_equation_evolve(rho0, kernels, Omega, [t_pi])[0], Omega, t_pi)
        for b in range(3):
            se_p = max(traj.pauli_se[-1, b] / 6.0, 1e-5)
            for m in range(2):
                p_mc = float(np.trace(SETUP.povm[b][m] @ rho_mc).real)
                p_ex = float(np.trace(SETUP.povm[b][m] @ rho_ex).real)
                assert abs(p_mc - p_ex) < 3 * se_p
                assert abs(probs_map[s, b, m] - p_ex) < 2e-4


def test_mh_tunes_its_width_on_a_chain_shorter_than_2000_steps():
    # a gate snapshot after two Rabi flops under OU noise (Omega tau_c = 2),
    # 1000 shots per setting; a 1500-step chain has 150 burn-in steps, where
    # one 200-step tuning window never closed
    omega, t = 4000.0, 4.0 * math.pi / 4000.0
    fi = ou_filtered_integrals(1.6e9, 5e-4, omega, [t])
    probs = born_probs(chi_full(fi.at(0), omega, t), SETUP)
    rec = sample_shots(probs, 1000, np.random.default_rng(61))
    post = mh_chain(rec, SETUP, n_steps=1500, seed=5)
    assert post.width != 0.02
    assert 0.15 <= post.acceptance_rate <= 0.5
