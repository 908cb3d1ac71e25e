import math
import warnings

import numpy as np
import pytest
from scipy.optimize import lsq_linear
from scipy.stats import chi2_contingency

from gatenoise import tomography
from gatenoise.channels import (
    PAULIS,
    PauliRates,
    avg_gate_fidelity,
    chi_full,
    drive_unitary,
    gate_fidelity_matrix,
)
from gatenoise.errors import DegenerateDataError, FitError, TuningWarning, ValidationError
from gatenoise.filters import ou_filtered_integrals
from gatenoise.tomography import (
    _TP,
    PROB_FLOOR,
    CountRecord,
    TomographySetup,
    _ascend,
    _inversion_starts,
    _mle_starts,
    _padded,
    _root_to_cholesky,
    _scores,
    _stack_records,
    _tangent_newton,
    average_pulses_per_clifford,
    born_probs,
    chi_from_ell,
    clifford_group,
    clifford_table,
    counts_from_csv,
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
    counts_to_csv,
    depolarizing_rb_lambda,
    fit_rb_decay_curve_fit,
    frequencies,
    kraus_to_chi,
    linear_inversion_lstsq,
    log_likelihood,
    loglik_and_grad,
    master_equation_evolve,
    mh_chain_scalar,
    mle_fit_lbfgsb,
    ou_kernels,
    ptm,
    pulse_unitaries,
    rb_survival_loop,
    sample_shots_per_shot,
    snapshot,
)

SETUP = default_setup()
CHI_ID = np.diag([1.0, 0, 0, 0]).astype(complex)
FORMS = SETUP.forms.reshape(24, -1).T            # (25, 24): the 24 forms in the TP entries
ROOT_FORMS = SETUP.root_forms.reshape(24, -1).T  # (25, 24): the 24 forms in root coordinates
Q_FORMS = ell_form(SETUP.d_matrices)              # (4, 3, 2, 6, 6): the 24 forms in all 6 entries


def random_manifold_ell(rng, tp=True):
    ell = rng.uniform(-0.6, 0.6, 6)
    ell[[0, 2, 3, 5]] = np.abs(ell[[0, 2, 3, 5]]) + 0.1
    if tp:
        ell[4] = 0.0  # trace preservation on this manifold
    return ell / np.linalg.norm(ell)


def chi_from_root(s):
    """chi = T T^dag / |s|^2 of square-root coordinates s, with T written out:
    [[s11, -i s12], [i s12, s22]] on the (I, X) block, s12 = s[1] / sqrt(2)."""
    T = np.diag(np.asarray(s, dtype=float)[[0, 2, 3, 4]]).astype(complex)
    T[0, 1], T[1, 0] = -1j * s[1] / math.sqrt(2.0), 1j * s[1] / math.sqrt(2.0)
    return T @ T.conj().T / (s @ s)


def random_cptp_chi(rng, n_kraus=3):
    """Random CPTP channel via normalized random Kraus operators."""
    ops = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(n_kraus)]
    total = sum(K.conj().T @ K for K in ops)
    evals, evecs = np.linalg.eigh(total)
    inv_sqrt = evecs @ np.diag(evals**-0.5) @ evecs.conj().T
    return kraus_to_chi([K @ inv_sqrt for K in ops])


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
    np.testing.assert_allclose(chi, CHI_ID, atol=1e-12)


def test_linear_inversion_roundtrip_random_cptp():
    rng = np.random.default_rng(1)
    for _ in range(20):
        chi = random_cptp_chi(rng)
        probs = born_probs(chi, SETUP)
        rec = linear_inversion(probs, SETUP)
        assert np.abs(rec - chi).max() < 1e-10
        np.testing.assert_allclose(born_probs(rec, SETUP), probs, atol=1e-12)


def test_linear_inversion_matches_the_least_squares_oracle():
    """The closed form equals the weighted least squares over the Hermitian
    basis, on exact probabilities and on shot-noise frequencies, and is
    trace preserving either way."""
    rng = np.random.default_rng(11)
    for shots in (None, 60, 2000):
        for _ in range(20):
            probs = born_probs(random_cptp_chi(rng), SETUP)
            if shots is not None:
                probs = frequencies(sample_shots(probs, shots, rng))
            chi = linear_inversion(probs, SETUP)
            assert np.abs(chi - linear_inversion_lstsq(probs, SETUP)).max() < 1e-12
            tp = np.einsum("ab,bij,ajk->ik", chi, PAULIS, PAULIS)
            assert np.abs(tp - np.eye(2)).max() < 1e-15


def test_linear_inversion_shot_noise_can_be_nonphysical():
    rng = np.random.default_rng(5)
    probs = born_probs(CHI_ID, SETUP)
    rec = sample_shots(probs, 100, rng)
    chi = linear_inversion(frequencies(rec), SETUP)
    # flagged by eigenvalue inspection, not rejected
    assert np.linalg.eigvalsh(chi)[0] < 0.0


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


def test_sample_shots_has_the_exact_binomial_moments():
    """Each pair's + count has mean n q and variance n q (1 - q), q = 3 p(+),
    at p(+) in {0, 1e-3, 1/6, 1/3} with unequal shots per pair: exactly
    where q is 0 or 1, within 5 standard errors of the sample moments
    elsewhere."""
    p_plus = np.repeat([0.0, 1e-3, 1.0 / 6.0, 1.0 / 3.0], 3).reshape(4, 3)
    probs = np.stack([p_plus, 1.0 / 3.0 - p_plus], axis=2)
    shots = np.array([[2, 9, 40], [3, 70, 1000], [1, 11, 300], [5, 60, 2000]])
    reps = 20000
    rng = np.random.default_rng(31)
    plus = np.array([sample_shots(probs, shots, rng).counts[:, :, 0] for _ in range(reps)])
    q = 3.0 * p_plus
    mean, var = shots * q, shots * q * (1.0 - q)
    np.testing.assert_array_equal(plus[:, q == 0.0], 0)
    np.testing.assert_array_equal(plus[:, q == 1.0], np.broadcast_to(shots[q == 1.0], (reps, 3)))
    spread = (q > 0.0) & (q < 1.0)
    # fourth central moment of the binomial, for the standard error of the sample variance
    mu4 = var * (1.0 + 3.0 * (shots - 2.0) * q * (1.0 - q))
    se_var = np.sqrt((mu4 - var**2 * (reps - 3.0) / (reps - 1.0)) / reps)
    assert np.all(np.abs(plus.mean(axis=0) - mean)[spread] < 5.0 * np.sqrt(var / reps)[spread])
    assert np.all(np.abs(plus.var(axis=0, ddof=1) - var)[spread] < 5.0 * se_var[spread])


def test_sample_shots_agrees_in_law_with_the_per_shot_oracle():
    """Per pair, the binomial draw and the per-shot Bernoulli oracle give the
    same distribution of + counts: a chi-square test of homogeneity on 4000
    records from each does not reject at 1e-4."""
    rng = np.random.default_rng(32)
    reps = 4000
    for _ in range(3):
        probs = born_probs(chi_from_ell(random_manifold_ell(rng, tp=False)), SETUP)
        shots = rng.integers(1, 80, size=(4, 3))
        fast = np.array([sample_shots(probs, shots, rng).counts[:, :, 0] for _ in range(reps)])
        slow = np.array([sample_shots_per_shot(probs, shots, rng).counts[:, :, 0]
                         for _ in range(reps)])
        for s in range(4):
            for b in range(3):
                table = np.array([np.bincount(x[:, s, b], minlength=shots[s, b] + 1)
                                  for x in (fast, slow)])
                # merge neighbouring counts until every column holds at least 20 records
                columns, acc = [], np.zeros(2, dtype=int)
                for col in table.T:
                    acc = acc + col
                    if acc.sum() >= 20:
                        columns.append(acc)
                        acc = np.zeros(2, dtype=int)
                if columns:
                    columns[-1] = columns[-1] + acc
                if len(columns) < 2:   # q = 0 or 1: both samplers are certain
                    np.testing.assert_array_equal(fast[:, s, b], slow[:, s, b])
                    continue
                assert chi2_contingency(np.array(columns).T)[1] > 1e-4


def test_a_stack_of_records_draws_what_one_call_per_record_draws():
    rng = np.random.default_rng(2206)
    probs = born_probs(np.array([random_cptp_chi(rng) for _ in range(5)]), SETUP)
    stack = np.broadcast_to(probs[:, None], (5, 4, 4, 3, 2))
    batched = sample_shots(stack, 300, np.random.default_rng(7), t=0.25)
    loop_rng = np.random.default_rng(7)
    loop = [sample_shots(p, 300, loop_rng, t=0.25) for p in stack.reshape(-1, 4, 3, 2)]
    assert len(batched) == len(loop) == 20
    for one, other in zip(batched, loop):
        np.testing.assert_array_equal(one.counts, other.counts)
        np.testing.assert_array_equal(one.shots, other.shots)
        assert one.t == other.t == 0.25


def test_sample_shots_counts_sum_to_the_shots():
    rng = np.random.default_rng(33)
    for i in range(20):
        probs = born_probs(chi_from_ell(random_manifold_ell(rng, tp=False)), SETUP)
        shots = 37 if i % 2 else rng.integers(0, 40, size=(4, 3))
        rec = sample_shots(probs, shots, rng)
        assert rec.counts.min() >= 0
        np.testing.assert_array_equal(rec.counts.sum(axis=2), np.broadcast_to(shots, (4, 3)))


def test_count_record_validation():
    with pytest.raises(ValidationError):
        CountRecord(t=0.0, shots=np.full((4, 3), 5),
                    counts=np.zeros((4, 3, 2), dtype=int))


def test_count_record_rejects_negative_counts():
    counts = np.full((4, 3, 2), 3)
    counts[2, 1] = (-1, 7)
    with pytest.raises(ValidationError, match="negative counts"):
        CountRecord(t=0.0, shots=np.full((4, 3), 6), counts=counts)


# --------------------------------------------------------------------- #
# the quadratic-form likelihood shared by MLE and MH

def test_q_form_probabilities_match_born_matrices():
    rng = np.random.default_rng(21)
    for _ in range(50):
        ell = rng.normal(size=6) * rng.uniform(0.1, 3.0)
        p_form = np.einsum("k,sbmkl,l->sbm", ell, Q_FORMS, ell) / (ell @ ell)
        assert np.abs(p_form - born_probs(chi_from_ell(ell), SETUP)).max() < 1e-13
        root = ell[:5]
        p_form = np.einsum("k,sbmkl,l->sbm", root, SETUP.root_forms, root) / (root @ root)
        assert np.abs(p_form - born_probs(chi_from_root(root), SETUP)).max() < 1e-13


def test_loglik_gradient_matches_central_differences():
    rng = np.random.default_rng(22)
    rec = sample_shots(born_probs(chi_from_ell(random_manifold_ell(rng)), SETUP), 200, rng)
    for _ in range(5):
        ell = random_manifold_ell(rng) * rng.uniform(0.5, 2.0)
        _, grad = loglik_and_grad(ell, rec, SETUP)
        h = 1e-6
        fd = [(loglik_and_grad(ell + h * e, rec, SETUP)[0]
               - loglik_and_grad(ell - h * e, rec, SETUP)[0]) / (2 * h) for e in np.eye(6)]
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-5 * np.abs(grad).max())


def test_loglik_is_the_multinomial_and_the_pair_binomial_up_to_a_constant():
    """On the trace-preserving model each pair sums to 1/3, so sum c log p
    is the binomial of every (state, basis) pair, with success probability
    3 p(+), plus sum n log(1/3)."""
    rng = np.random.default_rng(23)
    ells = np.array([random_manifold_ell(rng) for _ in range(3)])
    all_probs = [born_probs(chi_from_ell(ell), SETUP) for ell in ells]
    records = [sample_shots(probs, 50, rng) for probs in all_probs]
    logl, p = _scores(ells[:, _TP], FORMS, _stack_records(records)[0])
    for k, (probs, rec) in enumerate(zip(all_probs, records)):
        np.testing.assert_allclose(p[k], probs.ravel(), rtol=0, atol=1e-13)
        assert logl[k] == pytest.approx((rec.counts * np.log(probs)).sum(), rel=1e-13)
        q = 3.0 * probs[:, :, 0]
        n_plus, n_minus = rec.counts[:, :, 0], rec.counts[:, :, 1]
        binomial = (n_plus * np.log(q) + n_minus * np.log1p(-q)).sum()
        assert logl[k] - rec.shots.sum() * math.log(1.0 / 3.0) == pytest.approx(binomial,
                                                                               rel=1e-12)


def test_every_model_point_has_pair_sums_of_a_third():
    # on the 5 trace-preserving entries and in root coordinates, at any scale
    # and near the cone boundary, every (+, -) pair of Born probabilities sums to 1/3
    rng = np.random.default_rng(2701)
    ells = rng.standard_normal((300, 5)) * rng.choice([1e-6, 1e-3, 1.0], size=(300, 5))
    ells *= rng.uniform(0.1, 10.0, (300, 1))
    norm2 = (ells * ells).sum(axis=1)[:, None, None, None]
    for forms in (SETUP.forms, SETUP.root_forms):
        p = np.einsum("nk,sbmkl,nl->nsbm", ells, forms, ells) / norm2
        np.testing.assert_allclose(p.sum(axis=3), 1.0 / 3.0, rtol=0, atol=1e-15)
    probs = born_probs(np.array([chi_from_ell(e) for e in _padded(ells)]), SETUP)
    np.testing.assert_allclose(probs.sum(axis=3), 1.0 / 3.0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n_rows", [1, 16])
def test_batch_scorer_matches_the_fit_and_the_oracle(n_rows):
    """``_scores``, as the MH chain calls it (Cholesky entries, one counts
    row) and as the fit calls it (square-root coordinates, a counts row per
    point), gives the written-out oracle's log-likelihood to 1e-12 relative
    and its Born probabilities, unfloored, to 1e-15, on 16 unit 5-vectors
    (random directions, manifold points with positive diagonals, the
    identity and a point next to it, whose Born probabilities lie below
    ``PROB_FLOOR``) scored as stacks of ``n_rows``, on records with
    zero-count outcomes."""
    rng = np.random.default_rng(72)
    ells = rng.standard_normal((16, 5))
    ells[:4] = [random_manifold_ell(rng)[_TP] for _ in range(4)]
    ells[4:6] = np.eye(5)[0] + [[0, 0, 1e-9, 1e-9, 1e-9], np.zeros(5)]
    ells /= np.linalg.norm(ells, axis=1, keepdims=True)
    records = [sample_shots(born_probs(CHI_ID, SETUP), 2000, rng),
               sample_shots(born_probs(random_cptp_chi(rng), SETUP), 8, rng)]
    assert born_probs(chi_from_ell(_padded(ells[5])), SETUP).min() < PROB_FLOOR
    coordinates = [(FORMS, lambda x: chi_from_ell(_padded(x))), (ROOT_FORMS, chi_from_root)]
    for rec in records:
        assert np.any(rec.counts == 0)
        for forms, chi_of in coordinates:
            for stack in ells.reshape(-1, n_rows, 5):
                want_p = born_probs(np.array([chi_of(x) for x in stack]), SETUP).reshape(-1, 24)
                want = [log_likelihood(p.reshape(4, 3, 2), rec) for p in want_p]
                for counts in (_stack_records([rec])[0][0], _stack_records([rec] * n_rows)[0]):
                    logl, p = _scores(stack, forms, counts)
                    np.testing.assert_allclose(logl, want, rtol=1e-12, atol=0)
                    np.testing.assert_allclose(p, want_p, rtol=0, atol=1e-15)


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
    rec = sample_shots(born_probs(chi_full(snapshot(0.05, 0.0, 0.08, 0.0, 0.0), 2.0, 1.1),
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
        assert np.abs(chi_hat - chi).max() < 1e-7


def test_mle_equals_linear_inversion_at_large_n():
    rng = np.random.default_rng(4)
    ell = random_manifold_ell(rng)
    chi = chi_from_ell(ell)
    probs = born_probs(chi, SETUP)
    counts = np.round(probs * 3 * 10**9).astype(int)
    rec = CountRecord(t=0.0, shots=counts.sum(axis=2), counts=counts)
    chi_mle, _ = mle_fit(rec, SETUP, n_starts=4, seed=0)
    chi_li = linear_inversion(probs, SETUP)
    assert np.abs(chi_mle - chi_li).max() < 1e-7


def test_mle_identity_counts_small_n():
    probs = born_probs(CHI_ID, SETUP)
    rec = sample_shots(probs, 100, np.random.default_rng(7))
    chi_hat, _ = mle_fit(rec, SETUP, seed=0)
    assert chi_hat[0, 0].real >= 0.9


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
    q_flat = SETUP.forms.reshape(-1, 25)

    def oracle_grad(ell):   # the 6-entry oracle on the TP entries
        return loglik_and_grad(_padded(ell), rec, SETUP)[1][_TP]

    for rec in (noisy, sparse):
        counts = _stack_records([rec])[0]
        for _ in range(4):
            ell = random_manifold_ell(rng)[_TP]
            logl, p = _scores(ell[None], FORMS, counts)
            assert logl[0] == pytest.approx(log_likelihood(p.reshape(4, 3, 2), rec), rel=1e-12)
            grad, hess = _tangent_newton(ell[None], p, counts, q_flat)
            np.testing.assert_allclose(grad[0], oracle_grad(ell),
                                       rtol=1e-10, atol=1e-10 * np.abs(grad).max())
            proj = np.eye(5) - np.outer(ell, ell)
            for _ in range(3):
                xi = proj @ rng.normal(size=5)
                xi /= np.linalg.norm(xi)
                h = 1e-6
                fd = proj @ (oracle_grad(ell + h * xi) - oracle_grad(ell - h * xi)) / (2 * h)
                np.testing.assert_allclose(hess[0] @ xi, fd, rtol=1e-5,
                                           atol=1e-6 * np.abs(hess).max())


def test_batched_mle_matches_one_fit_at_a_time(monkeypatch):
    rng = np.random.default_rng(41)
    records = [sample_shots_per_shot(born_probs(random_cptp_chi(rng), SETUP), shots, rng)
               for shots in (30, 300, 3000, 300, 30)]
    chis, ells = mle_fit(records, SETUP, n_starts=3, seed=9)
    assert ells.shape == (5, 6) and len(chis) == 5
    starts = _mle_starts(5, 3, 9)
    starts[:, 0] = _inversion_starts(*_stack_records(records), SETUP)
    counts = _stack_records(records)[0]
    stack_ell, stack_logl, _ = _ascend(starts.reshape(-1, 5), np.repeat(counts, 3, axis=0),
                                       SETUP)
    for k, rec in enumerate(records):
        # every start moves as it would alone; the starts of one record end
        # within the tolerance of one maximum, their log-likelihoods within
        # rounding, so the fit keeps the stack's best start
        ell, logl, _ = _ascend(starts[k], _stack_records([rec] * 3)[0], SETUP)
        np.testing.assert_allclose(stack_ell[3 * k:3 * k + 3], ell, rtol=0, atol=1e-12)
        np.testing.assert_allclose(stack_logl[3 * k:3 * k + 3], logl, rtol=1e-13, atol=0)
        best = stack_ell[3 * k + np.argmax(stack_logl[3 * k:3 * k + 3])]
        np.testing.assert_array_equal(_padded(best), ells[k])
        np.testing.assert_allclose(chis[k], chi_from_ell(ells[k]), rtol=0, atol=1e-15)
    # the starts' log-likelihoods tie within rounding, so which one a call
    # keeps can turn on how its matmuls round: the single call's ell is the
    # stack's row of the start that the single call itself keeps
    picked = []

    def spy(*args):
        picked.append(_ascend(*args))
        return picked[-1]

    monkeypatch.setattr(tomography, "_ascend", spy)
    _, ell0 = mle_fit(records[0], SETUP, n_starts=3, seed=9)
    own_ell, own_logl, _ = picked[0]
    np.testing.assert_array_equal(ell0, _padded(own_ell[np.argmax(own_logl)]))
    np.testing.assert_allclose(ell0, _padded(stack_ell[np.argmax(own_logl)]), rtol=0,
                               atol=1e-12)


def test_each_fit_draws_its_own_starts(monkeypatch):
    rng = np.random.default_rng(42)
    rec = sample_shots_per_shot(born_probs(random_cptp_chi(rng), SETUP), 200, rng)
    seen = []

    def spy(starts, *args):
        seen.append(starts.copy())
        return _ascend(starts, *args)

    monkeypatch.setattr(tomography, "_ascend", spy)
    _, ells = mle_fit([rec, rec], SETUP, n_starts=3, seed=5)
    starts = seen[0].reshape(2, 3, 5)
    first = _inversion_starts(*_stack_records([rec]), SETUP)
    np.testing.assert_array_equal(starts[:, 0], np.repeat(first, 2, axis=0))  # the record's own
    np.testing.assert_array_equal(starts[:, 1:], _mle_starts(2, 3, 5)[:, 1:])
    assert np.abs(starts[0, 1:] - starts[1, 1:]).min() > 1e-6
    # one maximum: the starts end within the convergence tolerance of it
    np.testing.assert_allclose(ells[0], ells[1], rtol=0, atol=1e-7)
    logl = [loglik_and_grad(ell, rec, SETUP)[0] for ell in ells]
    assert logl[0] == pytest.approx(logl[1], rel=0, abs=1e-9)


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
    starts = _mle_starts(6, 4, 47).reshape(-1, 5)
    counts = _stack_records([rec for rec in records for _ in range(4)])[0]
    previous = _scores(starts, ROOT_FORMS, counts)[0]
    for cap in range(1, 41):
        monkeypatch.setattr(tomography, "MLE_MAX_ITER", cap)
        logl = _ascend(starts, counts, SETUP)[1]
        assert np.all(logl >= previous)
        previous = logl


def test_root_to_cholesky_keeps_chi_and_the_norm():
    # random root vectors at mixed scales, indefinite (I, X) blocks included
    rng = np.random.default_rng(48)
    roots = rng.normal(size=(400, 5)) * rng.choice([1e-3, 0.1, 1.0], size=(400, 5))
    roots /= np.linalg.norm(roots, axis=1, keepdims=True)
    s12 = roots[:, 1] / math.sqrt(2.0)
    assert np.any(roots[:, 0] * roots[:, 2] < s12 * s12)      # T's (I, X) block indefinite
    ells = _root_to_cholesky(roots)
    np.testing.assert_allclose(np.linalg.norm(ells, axis=1), 1.0, rtol=0, atol=1e-15)
    assert np.all(ells[:, [0, 2]] >= 0.0)
    np.testing.assert_array_equal(ells[:, 3:], roots[:, 3:])   # the diagonal (Y, Z) block
    for root, ell in zip(roots, _padded(ells)):
        np.testing.assert_allclose(chi_from_ell(ell), chi_from_root(root), rtol=0, atol=1e-15)


def test_root_to_cholesky_at_a_vanishing_leading_column_is_exact():
    # h = hypot(s11, s12) = 0: the block is (0, 0, |s22|), with no 0/0
    roots = np.array([[0.0, 0.0, -0.6, 0.8, 0.0], [0.0, 0.0, 0.6, 0.0, 0.8]])
    with np.errstate(all="raise"):
        ells = _root_to_cholesky(roots)
    np.testing.assert_array_equal(ells, [[0.0, 0.0, 0.6, 0.8, 0.0], [0.0, 0.0, 0.6, 0.0, 0.8]])
    for root, ell in zip(roots, _padded(ells)):
        np.testing.assert_array_equal(chi_from_ell(ell), chi_from_root(root))


def test_pi_pulse_fits_converge_to_the_lbfgsb_oracle(monkeypatch):
    # near a pi pulse chi_II -> 0: from identity and random starts an ascent
    # in the Cholesky entries takes 117 iterations on this stack, the
    # square-root ascent 14
    t = math.pi / 4000.0
    chi = chi_full(ou_filtered_integrals(1.6e9, 5e-4, 4000.0, [t]).at(0), 4000.0, t)
    assert chi[0, 0].real < 1e-3
    rng = np.random.default_rng(3)
    records = [sample_shots(born_probs(chi, SETUP), 2000, rng) for _ in range(6)]
    counts = _stack_records([rec for rec in records for _ in range(2)])[0]
    iterations = []
    newton = tomography._tangent_newton
    with monkeypatch.context() as patch:
        patch.setattr(tomography, "_tangent_newton",
                      lambda ell, *args: iterations.append(1) or newton(ell, *args))
        _, _, dec = _ascend(_mle_starts(6, 2, 3).reshape(-1, 5), counts, SETUP)
    assert np.all(dec <= tomography.MLE_TOL * counts.sum(axis=1))
    assert len(iterations) <= 30
    with warnings.catch_warnings():
        warnings.simplefilter("error", TuningWarning)
        _, ells = mle_fit(records, SETUP, n_starts=2, seed=3)
    for rec, ell in zip(records, ells):
        best = loglik_and_grad(mle_fit_lbfgsb(rec, SETUP, n_starts=32, seed=3)[1], rec, SETUP)[0]
        assert loglik_and_grad(ell, rec, SETUP)[0] >= best - 1e-9 * abs(best)


def test_the_bench_synthetic_stack_fits_in_few_iterations(monkeypatch):
    # the synthetic tomography stack of the tomography-rb benchmark, fitted as
    # the CLI fits it: OU noise over two Rabi flops, 15 records of 2000 shots
    # at each of 4 times, one linear-inversion start per record
    omega = 4000.0
    t_max = 4.0 * math.pi / omega
    times = np.linspace(t_max / 4, t_max, 4)
    chis = chi_full(ou_filtered_integrals(1.6e9, 5e-4, omega, times), omega, times)
    rng = np.random.default_rng(20240222)
    records = [sample_shots(probs, 2000, rng, t=t)
               for probs, t in zip(born_probs(chis, SETUP), times) for _ in range(15)]
    rows = []
    newton = tomography._tangent_newton
    monkeypatch.setattr(tomography, "_tangent_newton",
                        lambda ell, *args: rows.append(len(ell)) or newton(ell, *args))
    with warnings.catch_warnings():
        warnings.simplefilter("error", TuningWarning)
        mle_fit(records, SETUP)
    assert len(rows) <= 18      # iterations of the stack: 16 from the linear-inversion starts
    assert sum(rows) <= 660     # rows summed over them: 610


def far_unitary_chi(rng):
    """A rotation by pi/2 to pi about a random axis: a rank-one channel far
    from the identity start."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    theta = rng.uniform(0.5 * math.pi, math.pi)
    u = math.cos(theta / 2) * np.eye(2) - 1j * math.sin(theta / 2) * np.einsum(
        "i,ijk->jk", axis, PAULIS[1:])
    return kraus_to_chi([u])


def test_the_linear_inversion_start_alone_reaches_the_best_of_eight():
    """The CLI fits each record from its linear-inversion start only: on hard
    records (unitaries far from the identity, 2- and 3-Kraus channels, random
    points of the model, 2 to 5000 shots) that start ends within 1e-9 nats
    of the best of 8 starts."""
    rng = np.random.default_rng(2203)
    kinds = [far_unitary_chi, lambda r: random_cptp_chi(r, 2), random_cptp_chi,
             lambda r: chi_from_ell(random_manifold_ell(r))]
    records = [sample_shots(born_probs(kind(rng), SETUP), shots, rng)
               for kind in kinds for shots in (2, 8, 50, 500, 5000) for _ in range(4)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", TuningWarning)
        _, one = mle_fit(records, SETUP)
        _, eight = mle_fit(records, SETUP, n_starts=8, seed=2203)
    gap = [loglik_and_grad(e8, rec, SETUP)[0] - loglik_and_grad(e1, rec, SETUP)[0]
           for rec, e1, e8 in zip(records, one, eight)]
    assert max(gap) <= 1e-9


def test_the_start_of_exact_probabilities_is_the_true_ell():
    # exact frequencies of a TP model point invert to chi itself, whose blocks
    # all clear the floor; the start is chi's root and gives back its ell
    rng = np.random.default_rng(2204)
    ells = np.array([random_manifold_ell(rng) for _ in range(200)])
    chis = np.array([chi_from_ell(e) for e in ells])
    assert min(np.linalg.eigvalsh(chi[np.ix_(b, b)])[0]
               for chi in chis for b in ([0, 1], [2, 3])) > tomography.START_FLOOR
    counts = born_probs(chis, SETUP).reshape(200, -1) * 3000.0
    starts = _inversion_starts(counts, np.full((200, 12), 1000.0), SETUP)
    back = _padded(_root_to_cholesky(starts))
    np.testing.assert_allclose(back, ells, rtol=0, atol=1e-12)
    # the positive root: both diagonals and the determinant of its (I, X) block are positive
    s12 = starts[:, 1] / math.sqrt(2.0)
    assert np.all(starts[:, [0, 2]] > 0.0) and np.all(starts[:, 0] * starts[:, 2] > s12 * s12)


@pytest.mark.parametrize("gate, x_leads", [(0, 0), (1, 1), (2, 0), (3, 0)])
def test_a_unitary_start_is_raised_off_the_cone_boundary(gate, x_leads):
    # the Pauli gates: every block eigenvalue, or (Y, Z) diagonal, below the
    # floor is raised to it
    chi = np.zeros((4, 4), dtype=complex)
    chi[gate, gate] = 1.0
    counts = born_probs(chi, SETUP).reshape(1, -1) * 300.0
    start = _inversion_starts(counts, np.full((1, 12), 100.0), SETUP)
    assert (start[0, 2] > start[0, 0]) == x_leads   # the root's (I, X) diagonal follows chi's
    std = _padded(_root_to_cholesky(start))[0]
    floor = tomography.START_FLOOR
    expect = np.full(4, floor)
    expect[gate] = 1.0
    np.testing.assert_allclose(chi_from_ell(std), np.diag(expect) / expect.sum(), rtol=0,
                               atol=1e-15)


def test_stacked_linear_inversion_equals_one_record_at_a_time():
    rng = np.random.default_rng(2205)
    probs = born_probs(np.array([random_cptp_chi(rng) for _ in range(6)]), SETUP)
    freqs = np.array([frequencies(sample_shots(p, 40, rng)) for p in probs]).reshape(2, 3, 4, 3, 2)
    stacked = linear_inversion(freqs, SETUP)
    assert stacked.shape == (2, 3, 4, 4)
    for idx in np.ndindex(2, 3):
        np.testing.assert_array_equal(stacked[idx], linear_inversion(freqs[idx], SETUP))


def test_estimators_return_plain_chi_arrays():
    rng = np.random.default_rng(2206)
    records = [sample_shots(born_probs(random_cptp_chi(rng), SETUP), 200, rng) for _ in range(3)]
    chi_li = linear_inversion(frequencies(records[0]), SETUP)
    chi_one, ell = mle_fit(records[0], SETUP)
    chis, ells = mle_fit(records, SETUP)
    for chi, shape in ((chi_li, (4, 4)), (chi_one, (4, 4)), (chis, (3, 4, 4))):
        assert type(chi) is np.ndarray and chi.shape == shape and chi.dtype == complex
    assert ell.shape == (6,) and ells.shape == (3, 6)


@pytest.mark.parametrize("n_starts", [0, -1])
def test_mle_needs_a_start(n_starts):
    rec = sample_shots(born_probs(CHI_ID, SETUP), 10, np.random.default_rng(0))
    with pytest.raises(ValidationError, match="n_starts"):
        mle_fit(rec, SETUP, n_starts=n_starts)


def test_mle_reports_fits_stopped_at_the_iteration_cap(monkeypatch):
    rng = np.random.default_rng(46)
    records = [sample_shots(born_probs(random_cptp_chi(rng), SETUP), 100, rng) for _ in range(3)]
    monkeypatch.setattr(tomography, "MLE_MAX_ITER", 1)
    with pytest.warns(TuningWarning, match="3 of 3 MLE fits stopped after 1 iterations"):
        mle_fit(records, SETUP, n_starts=2)


@pytest.mark.parametrize("n_starts", [1, 4])
def test_no_fit_populates_l34(n_starts, monkeypatch):
    # channels outside the block model too (2- and 3-Kraus, far unitaries):
    # the starts have no l34 entry, random restarts included, and every
    # returned ell holds it at exactly +0.0
    rng = np.random.default_rng(2702)
    kinds = [far_unitary_chi, lambda r: random_cptp_chi(r, 2), random_cptp_chi]
    records = [sample_shots(born_probs(kind(rng), SETUP), shots, rng)
               for kind in kinds for shots in (8, 300) for _ in range(3)]
    widths = []
    ascend = tomography._ascend
    monkeypatch.setattr(tomography, "_ascend",
                        lambda starts, *args: widths.append(starts.shape) or ascend(starts, *args))
    chis, ells = mle_fit(records, SETUP, n_starts=n_starts, seed=2702)
    assert widths == [(len(records) * n_starts, 5)]
    assert ells.shape == (len(records), 6)
    assert np.all(ells[:, 4] == 0.0) and not np.signbit(ells[:, 4]).any()
    for chi in chis:
        assert chi[3, 2] == 0.0 and chi[2, 3] == 0.0
    post = mh_chain(records[-1], SETUP, n_steps=3000, seed=2702)
    assert np.all(post.ells[:, 4] == 0.0) and not np.signbit(post.ells[:, 4]).any()


def test_mle_gate_error_is_unbiased_at_1000_shots():
    """400 fits, in one batched call, of one chi_full snapshot (OU noise,
    Omega tau_c = 2, two Rabi flops, gate error 0.046) at 1000 shots per
    setting: the mean MLE gate error is within 4e-4 of the truth (its
    standard error here is 1.7e-4)."""
    omega = 4000.0
    t = 4.0 * math.pi / omega
    chi = chi_full(ou_filtered_integrals(1.6e9, 5e-4, omega, [t]).at(0), omega, t)
    target = drive_unitary(omega, t)
    truth = 1.0 - avg_gate_fidelity(chi, target)
    probs = np.broadcast_to(born_probs(chi, SETUP), (400, 4, 3, 2))
    records = sample_shots(probs, 1000, np.random.default_rng(2707), t=t)
    chis, _ = mle_fit(records, SETUP)
    errors = [1.0 - avg_gate_fidelity(c, target) for c in chis]
    assert abs(np.mean(errors) - truth) < 4e-4


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
    pt = snapshot(0.05, 0.0, 0.08, 0.0, 0.0)
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
    assert np.all(post.ells[:, 4] == 0.0) and not np.signbit(post.ells[:, 4]).any()


def test_mh_tuning_warning_for_absurd_widths():
    probs = born_probs(CHI_ID, SETUP)
    rec = sample_shots(probs, 10000, np.random.default_rng(14))
    with pytest.warns(TuningWarning):
        mh_chain(rec, SETUP, n_steps=3000, width=0.49, seed=2, burn_in_frac=0.0)


@pytest.mark.parametrize("kwargs", [{"n_steps": 0}, {"width": 0.0}, {"width": -0.1},
                                    {"burn_in_frac": 1.0}, {"width": math.inf},
                                    {"width": math.nan}])
def test_mh_rejects_empty_chain_and_bad_width(kwargs):
    rec = sample_shots(born_probs(CHI_ID, SETUP), 10, np.random.default_rng(16))
    with pytest.raises(ValidationError):
        mh_chain(rec, SETUP, **{"n_steps": 100, **kwargs})


@pytest.mark.parametrize("call, kwargs", [
    ("mle_fit", {"n_starts": 2.5}),
    ("mh_chain", {"n_steps": 100.5}),
    ("mh_chain", {"burn_in_frac": math.nan}),
    ("rb_simulate", {"n_seq": 1}),
    ("rb_simulate", {"shots": 0}),
])
def test_entry_points_reject_bad_counts_and_fractions(call, kwargs):
    rec = sample_shots(born_probs(CHI_ID, SETUP), 10, np.random.default_rng(17))
    with pytest.raises(ValidationError):
        if call == "mle_fit":
            mle_fit(rec, SETUP, **kwargs)
        elif call == "mh_chain":
            mh_chain(rec, SETUP, **{"n_steps": 100, **kwargs})
        else:
            rb_simulate(PauliRates(1e-3, 2e-3, 3e-3), lengths=[2, 4], **kwargs)


@pytest.mark.parametrize("shots", [8, 100, 1000])
def test_mh_chain_matches_the_scalar_oracle(shots):
    rng = np.random.default_rng(48)
    rec = sample_shots(born_probs(random_cptp_chi(rng), SETUP), shots, rng)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        post = mh_chain(rec, SETUP, n_steps=5000, seed=6)
    ells, rate, width = mh_chain_scalar(rec, SETUP, n_steps=5000, seed=6)
    np.testing.assert_allclose(post.ells, ells, rtol=0, atol=1e-12)
    assert post.acceptance_rate == pytest.approx(rate, rel=0, abs=1e-12)
    assert post.width == pytest.approx(width, rel=1e-12)
    # the broad 8-shot posterior outruns 500 burn-in steps of tuning: a
    # tuning warning, exactly when the rate leaves [0.1, 0.6]
    assert [w.category for w in caught] == [TuningWarning] * (not 0.1 <= rate <= 0.6)


@pytest.mark.parametrize("flops", [0.5, 1.0, 1.5, 2.0])
def test_mh_chain_at_bench_shape_matches_the_scalar_oracle(flops):
    """A 2500-step chain, as on the benchmark's counts records: 250 burn-in
    steps in tuning windows of 62 and a last partial one of 2, on an OU
    snapshot (Omega tau_c = 2) at 1000 shots per setting."""
    omega = 4000.0
    t = 2.0 * math.pi * flops / omega
    fi = ou_filtered_integrals(1.6e9, 5e-4, omega, [t])
    rec = sample_shots(born_probs(chi_full(fi.at(0), omega, t), SETUP), 1000,
                       np.random.default_rng(73))
    post = mh_chain(rec, SETUP, n_steps=2500, seed=[402, 1])
    ells, rate, width = mh_chain_scalar(rec, SETUP, n_steps=2500, seed=[402, 1])
    np.testing.assert_allclose(post.ells, ells, rtol=0, atol=1e-12)
    assert post.acceptance_rate == rate
    assert post.width == pytest.approx(width, rel=1e-12)
    assert post.width != 0.02   # the windows tuned it


@pytest.mark.filterwarnings("ignore::gatenoise.errors.TuningWarning")
@pytest.mark.parametrize("chi_seed, shots, chain", [
    # 256 burn-in steps, four whole 64-step windows; then 257 steps, one left over
    (49, 100, {"n_steps": 777, "burn_in_frac": 0.33}),
    (49, 100, {"n_steps": 779, "burn_in_frac": 0.33}),
    (50, 100, {"n_steps": 500, "burn_in_frac": 0.0}),
    (51, 100, {"n_steps": 1}),
    (54, 10000, {"n_steps": 1000, "width": 0.49, "burn_in_frac": 0.0}),    # rejects whole batches
    (52, 8, {"n_steps": 1000, "width": 1e-4}),                              # accepts nearly all
], ids=["burn-in-whole-windows", "burn-in-partial-window", "no-burn-in", "one-step",
        "rejecting", "accepting"])
def test_mh_prefetch_depth_changes_no_step(monkeypatch, chi_seed, shots, chain):
    """A pre-fetched batch ends at its first acceptance and at each tuning
    window of the burn-in, so the depth does not change the chain: depths 1,
    3 and 16 walk the same steps as the one-proposal-at-a-time oracle."""
    chi = random_cptp_chi(np.random.default_rng(chi_seed))
    rec = sample_shots_per_shot(born_probs(chi, SETUP), shots, np.random.default_rng(53))
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
    matches an importance-sampling average over uniform points of the S^4 of
    TP entries, the chain's prior; a chain on the positive orthant without
    the ray term of the renormalization misses it by about 0.01."""
    truth = np.array([0.95, 0.1, 0.2, 0.15, 0.0, 0.1])
    truth /= np.linalg.norm(truth)
    rec = sample_shots_per_shot(born_probs(chi_from_ell(truth), SETUP), 8,
                                np.random.default_rng(2))
    form = ell_form(gate_fidelity_matrix(np.eye(2)).T)
    rng = np.random.default_rng(102)
    logls, errors = [], []
    for _ in range(8):
        x = np.zeros((50000, 6))
        x[:, _TP] = rng.standard_normal((50000, 5))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        probs = np.einsum("nk,sbmkl,nl->nsbm", x, Q_FORMS, x)
        logls.append(np.einsum("nsbm,sbm->n", np.log(probs), rec.counts))
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
        np.testing.assert_allclose(ptm(kraus_to_chi([U]))[1:, 1:], R, atol=1e-12)
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


@pytest.mark.parametrize("lengths", [[2], [4, 4, 4]])
def test_rb_fit_needs_two_distinct_lengths(lengths):
    from gatenoise.tomography import fit_rb_decay
    n = len(lengths)
    with pytest.raises(ValidationError, match="two distinct"):
        fit_rb_decay(lengths, np.full(n, 0.93), np.full(n, 0.01), shots=100, n_seq=100)


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
