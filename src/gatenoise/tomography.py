"""Simulated and data-driven process tomography of the dynamical error map.

Probabilities follow Born's rule ``p = tr(D chi)`` with precomputed
measurement matrices, shots are Bernoulli draws against the weighted POVM,
and snapshots are reconstructed either by linear inversion (exact but
possibly nonphysical under shot noise) or by likelihood methods constrained
to trace-normalized positive matrices through a 6-parameter block Cholesky
factor ell.  On that manifold every Born probability is a quadratic form,
``p = ell^T Q ell / |ell|^2``, with the (4, 3, 2, 6, 6) tensor Q built once
per setup; one pair-normalized likelihood of p serves both the
maximum-likelihood fit (with its closed-form gradient) and a
Metropolis-Hastings sampler.  The sampler walks the whole unit sphere with
a symmetric proposal, so it has no truncation and no Hastings term, and
yields confidence regions for gate errors, themselves quadratic forms in
ell.  A small Clifford simulator provides randomized-benchmarking decays
for cross-validation.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import curve_fit, minimize

from .channels import (
    PAULIS,
    KrausSet,
    PauliRates,
    ProcessMatrix,
    gate_fidelity_matrix,
    pauli_chi,
    ptm,
)
from .errors import DegenerateDataError, FitError, NumericalError, TuningWarning, ValidationError


# --------------------------------------------------------------------- #
# setup: informationally complete states and weighted POVM

_KET0 = np.array([1.0, 0.0], dtype=complex)
_KET1 = np.array([0.0, 1.0], dtype=complex)
_KETP = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
_KETM = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)
_KETPI = np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0)
_KETMI = np.array([1.0, -1.0j], dtype=complex) / math.sqrt(2.0)

STATE_LABELS = ("plus", "plus_i", "zero", "one")
BASIS_LABELS = ("x", "y", "z")


def _proj(ket):
    return np.outer(ket, ket.conj())


@dataclass
class TomographySetup:
    """Initial states, weighted POVM elements and Born matrices.

    ``d_matrices[s, b, m]`` is the 4x4 matrix with
    ``p(s, b, m) = tr(D chi)`` for the process matrix of the full evolution.
    The six POVM elements carry weight 1/3 per basis so they sum to the
    identity; consequently outcome pairs satisfy p(+) + p(-) = 1/3 for any
    trace-preserving channel.  ``q_forms[s, b, m]`` is the same probability
    as a real symmetric 6x6 form in the block-Cholesky vector:
    ``p = ell^T Q ell / |ell|^2`` (see :func:`ell_form`).
    """

    states: list = field(default_factory=list)
    povm: list = field(default_factory=list)
    d_matrices: np.ndarray = None
    q_forms: np.ndarray = None

    @classmethod
    def standard(cls):
        states = [_proj(_KETP), _proj(_KETPI), _proj(_KET0), _proj(_KET1)]
        povm = [
            [_proj(_KETP) / 3.0, _proj(_KETM) / 3.0],
            [_proj(_KETPI) / 3.0, _proj(_KETMI) / 3.0],
            [_proj(_KET0) / 3.0, _proj(_KET1) / 3.0],
        ]
        total = sum(m for basis in povm for m in basis)
        if np.abs(total - np.eye(2)).max() > 1e-12:
            raise ValidationError("POVM does not resolve the identity")
        # D[s, b, m, beta, alpha] = tr(M_bm s_alpha rho_s s_beta)
        D = np.einsum("bmij,ajk,skl,cli->sbmca", np.array(povm), PAULIS,
                      np.array(states), PAULIS)
        return cls(states=states, povm=povm, d_matrices=D, q_forms=ell_form(D))


@functools.cache
def default_setup():
    return TomographySetup.standard()


def born_probs(chi, setup=None):
    """Measurement probabilities p[s, b, m] = tr(D_{s,b,m} chi)."""
    setup = setup or default_setup()
    chi = chi.matrix if isinstance(chi, ProcessMatrix) else np.asarray(chi)
    probs = np.einsum("sbmij,ji->sbm", setup.d_matrices, chi).real
    return probs


# --------------------------------------------------------------------- #
# counts

@dataclass
class CountRecord:
    """Outcome counts per (initial state, basis) for one evolution time."""

    t: float
    shots: np.ndarray    # (4, 3) int
    counts: np.ndarray   # (4, 3, 2) int

    def __post_init__(self):
        self.shots = np.asarray(self.shots, dtype=int)
        self.counts = np.asarray(self.counts, dtype=int)
        if self.counts.shape != (4, 3, 2) or self.shots.shape != (4, 3):
            raise ValidationError("counts must be (4, 3, 2) and shots (4, 3)")
        if np.any(self.counts < 0):
            raise ValidationError("negative counts")
        if np.any(self.counts.sum(axis=2) != self.shots):
            raise ValidationError("counts do not sum to shots")

    def frequencies(self):
        with np.errstate(invalid="ignore", divide="ignore"):
            freq = self.counts / (3.0 * self.shots[:, :, None])
        return np.nan_to_num(freq)


def sample_shots(probs, n_shots, rng, t=0.0):
    """Bernoulli-sample a CountRecord from Born probabilities.

    Each shot compares a uniform draw with the conditional success
    probability ``3 p(+)`` (the POVM weight removed), so counts are
    binomial and the pair (+, -) always sums to the shot number.
    """
    shots = np.broadcast_to(np.asarray(n_shots, dtype=int), (4, 3))
    # one uniform draw per shot, pair after pair in (state, basis) order
    pair_of_shot = np.repeat(np.arange(12), shots.ravel())
    p_plus = np.clip(3.0 * np.asarray(probs)[:, :, 0], 0.0, 1.0).ravel()[pair_of_shot]
    hits = rng.random(pair_of_shot.size) <= p_plus
    n_plus = np.bincount(pair_of_shot[hits], minlength=12).reshape(4, 3)
    return CountRecord(t=t, shots=shots, counts=np.stack([n_plus, shots - n_plus], axis=2))


def counts_to_csv(records, path):
    with open(path, "w") as fh:
        fh.write("state,basis,time_s,n_plus,n_minus\n")
        for rec in records:
            for s, sl in enumerate(STATE_LABELS):
                for b, bl in enumerate(BASIS_LABELS):
                    fh.write(f"{sl},{bl},{float(rec.t)!r},"
                             f"{rec.counts[s, b, 0]},{rec.counts[s, b, 1]}\n")


def counts_from_csv(path):
    """Parse the counts CSV into CountRecords keyed by time."""
    rows = {}
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[:5] != ["state", "basis", "time_s", "n_plus", "n_minus"]:
            raise ValidationError(f"unexpected counts header {header}")
        for line in fh:
            if not line.strip():
                continue
            fields = line.strip().split(",")
            if len(fields) != 5:
                raise ValidationError(f"expected 5 fields in counts row {line.strip()!r}")
            sl, bl, ts, np_, nm_ = fields
            if sl not in STATE_LABELS or bl not in BASIS_LABELS:
                raise ValidationError(f"unknown state/basis {sl},{bl}")
            try:
                key = float(ts)
                counts = (int(np_), int(nm_))
            except ValueError as exc:
                raise ValidationError(f"unparsable number in counts row {line.strip()!r}") from exc
            rows.setdefault(key, {})[(sl, bl)] = counts
    records = []
    for t in sorted(rows):
        counts = np.zeros((4, 3, 2), dtype=int)
        for s, sl in enumerate(STATE_LABELS):
            for b, bl in enumerate(BASIS_LABELS):
                if (sl, bl) not in rows[t]:
                    raise DegenerateDataError(
                        f"missing counts for state={sl}, basis={bl} at t={t}"
                    )
                counts[s, b] = rows[t][(sl, bl)]
        records.append(CountRecord(t=t, shots=counts.sum(axis=2), counts=counts))
    return records


# --------------------------------------------------------------------- #
# linear inversion

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


_HBASIS = _hermitian_basis()


def _tp_rows():
    """Real constraint rows enforcing sum chi_ab s_b s_a = I."""
    # coeff[c, k] = sum_ab B_k,ab (1/2) tr(s_c s_b s_a)
    coeff = 0.5 * np.einsum("kab,cij,bjl,ali->ck", _HBASIS, PAULIS, PAULIS, PAULIS)
    rows = np.stack([coeff.real, coeff.imag], axis=1).reshape(8, _HBASIS.shape[0])
    rhs = np.zeros(8)
    rhs[0] = 1.0
    return rows, rhs


def linear_inversion(probs, setup=None):
    """Invert Born probabilities to the (possibly nonphysical) process matrix.

    Solves the 24 outcome equations together with the trace-preservation
    constraints in the 16-real-parameter Hermitian space.  With exact
    probabilities the round trip through :func:`born_probs` is exact to
    machine precision; with noisy frequencies the result may have negative
    eigenvalues, which is reported by the caller rather than repaired here.
    """
    setup = setup or default_setup()
    probs = np.asarray(probs, dtype=float)
    rows = np.einsum("sbmij,kji->sbmk", setup.d_matrices, _HBASIS).real
    tp_rows, tp_rhs = _tp_rows()
    A = np.vstack([rows.reshape(-1, _HBASIS.shape[0]), 100.0 * tp_rows])
    y = np.concatenate([probs.reshape(-1), 100.0 * tp_rhs])
    x, *_ = np.linalg.lstsq(A, y, rcond=None)
    return ProcessMatrix(np.einsum("k,kij->ij", x, _HBASIS))


# --------------------------------------------------------------------- #
# block-Cholesky parametrization and the shared likelihood

N_PARAMS = 6
_DIAG_IDX = (0, 2, 3, 5)       # l11, l22, l33, l44 positions in the vector
# E_k: the entry parameter k fills in L = sum_k ell_k E_k.
_SLOTS = np.zeros((N_PARAMS, 4, 4), dtype=complex)
_SLOTS[np.arange(N_PARAMS), [0, 1, 1, 2, 3, 3], [0, 0, 1, 2, 2, 3]] = [1, 1j, 1, 1, 1j, 1]
# The diagonal entry in each parameter's column of L.
_COLUMN_DIAG = np.array([0, 0, 2, 3, 3, 5])


def chi_from_ell(ell):
    """Trace-normalized block process matrix from the 6 Cholesky entries.

    L has rows (l11, 0, 0, 0), (i l12, l22, 0, 0), (0, 0, l33, 0),
    (0, 0, i l34, l44); chi = L L^dag / |ell|^2, so the normalization
    constraint |ell| = 1 is equivalent to unit trace.
    """
    ell = np.asarray(ell, dtype=float)
    norm2 = float(np.dot(ell, ell))
    if norm2 <= 0.0:
        raise ValidationError("Cholesky parameters cannot all vanish")
    L = np.einsum("k,kij->ij", ell, _SLOTS)
    return L @ L.conj().T / norm2


def ell_form(M):
    """Real symmetric (..., 6, 6) forms A with Re tr(M chi) = ell^T A ell / |ell|^2.

    ``M`` is a (..., 4, 4) stack and chi = chi_from_ell(ell); since
    chi = sum_kl ell_k ell_l E_k E_l^dag / |ell|^2, A_kl is the symmetrized
    Re tr(M E_k E_l^dag).  Born probabilities use M = D; the gate fidelity
    sum_ab chi_ab G_ab uses M = G^T.
    """
    pairs = np.einsum("kia,lja->klij", _SLOTS, _SLOTS.conj())
    A = np.einsum("...ij,klji->...kl", M, pairs).real
    return 0.5 * (A + np.swapaxes(A, -1, -2))


def fold_ell(ells):
    """Flip the sign of each column of L whose diagonal entry is negative.

    chi = L L^dag is unchanged; ``ells`` is a (..., 6) stack.
    """
    ells = np.asarray(ells, dtype=float)
    return ells * np.where(ells[..., _COLUMN_DIAG] < 0.0, -1.0, 1.0)


PROB_FLOOR = 1e-15
PAIR_FLOOR = 1e-12


def log_likelihood(probs, counts, *, grad=False):
    """Pair-normalized log-likelihood of Born probabilities ``probs[s, b, m]``.

    Each (state, basis) pair is a binomial with success probability
    ``p(+) / (p(+) + p(-))``.  On trace-preserving channels the pair sums
    are exactly 1/3 and this is the multinomial cost ``sum f log tr(D chi)``
    up to a constant; off the TP subset that plain cost grows along a
    probability-inflating direction (l34), so both estimators use this one.
    ``PROB_FLOOR`` is a steep but finite barrier.  With ``grad`` the
    derivative in ``probs`` (at the floored values) is returned as well.
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


def _loglik_and_grad(ell, counts, setup):
    """Log-likelihood at ``ell`` (any nonzero norm) and its gradient in ell.

    With p = ell^T Q ell / |ell|^2, dp/dell = 2 Q ell / |ell|^2 - 2 p ell / |ell|^2.
    """
    ell = np.asarray(ell, dtype=float)
    q_ell, probs = _born_terms(ell, setup)
    logl, weight = log_likelihood(probs, counts, grad=True)
    grad = 2.0 * (weight.ravel() @ q_ell.reshape(-1, N_PARAMS)
                  - float(weight.ravel() @ probs.ravel()) * ell / (ell @ ell))
    return logl, grad


def check_counts(counts):
    if np.any(counts.shots <= 0):
        raise DegenerateDataError("every (state, basis) pair needs at least one shot")


def mle_fit(counts, setup=None, *, n_starts=8, gtol=1e-9, seed=0):
    """Maximum-likelihood snapshot on the block-Cholesky manifold.

    Minimizes the negative rescaled log-likelihood with a bounded
    quasi-Newton optimizer and ``n_starts`` restarts (identity-channel
    start plus random positive draws).  Returns (ProcessMatrix, ell).
    """
    setup = setup or default_setup()
    check_counts(counts)
    rng = np.random.default_rng(seed)
    scale = float(counts.counts.sum()) or 1.0

    def cost(ell):
        logl, grad = _loglik_and_grad(ell, counts, setup)
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
                       options={"maxiter": 2000, "ftol": 1e-15, "gtol": gtol})
        if best is None or res.fun < best.fun:
            best = res
    ell = best.x / np.linalg.norm(best.x)
    return ProcessMatrix(chi_from_ell(ell), counts.t), ell


# --------------------------------------------------------------------- #
# Metropolis-Hastings confidence regions

@dataclass
class ChiPosterior:
    """Markov-chain posterior over the block-Cholesky parameters."""

    ells: np.ndarray            # (n_kept, 6), unit norm, nonnegative diagonals
    log_likelihoods: np.ndarray
    gate_errors: np.ndarray
    acceptance_rate: float
    width: float                # proposal width after burn-in tuning
    mode_ell: np.ndarray
    mean_error: float
    mode_error: float
    quantiles: tuple            # (2.5%, 97.5%) of the gate error
    ess: float                  # effective sample size of ``gate_errors``


def effective_sample_size(trace):
    """Effective sample size of a chain trace.

    The autocorrelation comes from one zero-padded FFT; the integrated
    autocorrelation time is summed over Geyer's initial positive sequence
    (pairs rho_2m + rho_2m+1 up to the first nonpositive pair).  The result
    never exceeds the trace length; a constant trace counts as one sample.
    """
    x = np.asarray(trace, dtype=float)
    if np.ptp(x) == 0.0:
        return 1.0
    n = x.size
    spec = np.fft.rfft(x - x.mean(), 2 * n)
    acov = np.fft.irfft(spec * spec.conj(), 2 * n)[:n]
    pairs = (acov[: 2 * (n // 2)] / acov[0]).reshape(-1, 2).sum(axis=1)
    stop = np.append(np.flatnonzero(pairs <= 0.0), pairs.size)[0]
    return n / max(2.0 * float(pairs[:stop].sum()) - 1.0, 1.0)


def mh_chain(counts, setup=None, *, n_steps=100000, width=0.02, seed=0,
             burn_in_frac=0.1, target_unitary=None, quantiles=(2.5, 97.5)):
    """Posterior sampling of the process matrix under the counting likelihood.

    The chain walks the whole unit sphere S^5 (uniform prior) with the
    likelihood :func:`mle_fit` maximizes.  A proposal adds ``width`` times
    a standard normal 6-vector and renormalizes; its density depends only on
    the angle between the points, so it is symmetric: no truncation and no
    Hastings term.  chi is unchanged by column sign flips of L, so kept
    samples are folded back to nonnegative diagonals.  The width is tuned
    during burn-in toward 30% acceptance; a warning is emitted if the
    post-burn-in rate leaves [0.1, 0.6].  Gate errors against
    ``target_unitary`` (identity if omitted) are 1/2 - ell^T G ell.
    """
    setup = setup or default_setup()
    check_counts(counts)
    n_burn = int(burn_in_frac * n_steps)
    if not (0 <= n_burn < n_steps and width > 0.0):
        raise ValidationError("mh_chain needs width > 0 and a step after burn-in")
    rng = np.random.default_rng(seed)

    ell = np.array([1.0, 0.0, 0.05, 0.05, 0.0, 0.05])
    ell /= np.linalg.norm(ell)
    logl = log_likelihood(_born_terms(ell, setup)[1], counts)

    chain = np.empty((n_steps, N_PARAMS))
    chain_logl = np.empty(n_steps)
    accepted = np.zeros(n_steps, dtype=bool)
    window = 200
    for step in range(n_steps):
        prop = ell + width * rng.standard_normal(N_PARAMS)
        prop /= math.sqrt(prop @ prop)
        logl_prop = log_likelihood(_born_terms(prop, setup)[1], counts)
        if math.log(rng.random() + 1e-300) < logl_prop - logl:
            ell, logl, accepted[step] = prop, logl_prop, True
        chain[step], chain_logl[step] = ell, logl
        if step < n_burn and (step + 1) % window == 0:
            rate = accepted[step + 1 - window:step + 1].mean()
            width = float(np.clip(width * math.exp(0.8 * (rate - 0.3)), 1e-4, 0.5))

    kept_ells = fold_ell(chain[n_burn:])
    kept_logl = chain_logl[n_burn:]
    target = np.eye(2, dtype=complex) if target_unitary is None else target_unitary
    G = ell_form(gate_fidelity_matrix(target).T)
    kept_err = 0.5 - np.einsum("nk,kl,nl->n", kept_ells, G, kept_ells)

    rate = float(accepted[n_burn:].mean())
    if not 0.1 <= rate <= 0.6:
        warnings.warn(
            f"MH acceptance rate {rate:.2f} outside [0.1, 0.6]; adjust the width",
            TuningWarning,
        )
    mode_idx = int(np.argmax(kept_logl))
    lo_q, hi_q = np.percentile(kept_err, quantiles)
    return ChiPosterior(
        ells=kept_ells,
        log_likelihoods=kept_logl,
        gate_errors=kept_err,
        acceptance_rate=rate,
        width=width,
        mode_ell=kept_ells[mode_idx],
        mean_error=float(kept_err.mean()),
        mode_error=float(kept_err[mode_idx]),
        quantiles=(float(lo_q), float(hi_q)),
        ess=effective_sample_size(kept_err),
    )


# --------------------------------------------------------------------- #
# randomized benchmarking

_GEN_ANGLES = (
    ("x", 0.5 * math.pi), ("x", -0.5 * math.pi),
    ("y", 0.5 * math.pi), ("y", -0.5 * math.pi),
)


def _rotation(axis, angle):
    sigma = {"x": PAULIS[1], "y": PAULIS[2]}[axis]
    return math.cos(0.5 * angle) * PAULIS[0] - 1j * math.sin(0.5 * angle) * sigma


def _same_up_to_phase(U, V):
    return abs(abs(np.trace(U.conj().T @ V)) - 2.0) < 1e-9


def build_clifford_table():
    """Enumerate the 24 single-qubit Cliffords from +-90 degree pulses.

    Breadth-first search over products of the four generators; each entry
    stores the unitary and its minimal pulse word.  The resulting table
    averages about 2.1 pulses per Clifford, close to the ~2.2 average of
    decompositions commonly used in experiments.
    """
    gens = [_rotation(axis, ang) for axis, ang in _GEN_ANGLES]
    table = [(np.eye(2, dtype=complex), ())]
    frontier = [0]
    while frontier:
        new_frontier = []
        for idx in frontier:
            U, word = table[idx]
            for g, G in enumerate(gens):
                V = G @ U
                if not any(_same_up_to_phase(V, W) for W, _ in table):
                    table.append((V, word + (g,)))
                    new_frontier.append(len(table) - 1)
        frontier = new_frontier
    if len(table) != 24:
        raise NumericalError(f"Clifford enumeration found {len(table)} elements")
    return table


@functools.cache
def clifford_table():
    return build_clifford_table()


def average_pulses_per_clifford():
    return sum(len(word) for _, word in clifford_table()) / 24.0


def _noise_ptm(channel):
    """Bloch contraction matrix of the per-pulse noise channel."""
    if isinstance(channel, PauliRates):
        channel = pauli_chi(channel)
    return ptm(channel)


def _pulse_ptms():
    gens = [_rotation(axis, ang) for axis, ang in _GEN_ANGLES]
    return [ptm(KrausSet([U])) for U in gens]


@dataclass
class RBResult:
    lengths: np.ndarray
    survival_mean: np.ndarray
    survival_se: np.ndarray
    lam: float
    eps_rb: float
    eps_rb_per_pulse: float
    alt_fidelity_estimate: float
    avg_pulses: float


def fit_rb_decay(lengths, mean, se, *, shots=100, n_seq=100):
    """Fit survival-vs-length data to A * lam**N + B and return lam.

    Raises :class:`FitError` for non-decaying (rising) data; survival that is
    flat at 1/2 within noise is reported as lam = 0 (fully decohered at the
    shortest length).
    """
    lengths = np.asarray(lengths, dtype=float)
    mean = np.asarray(mean, dtype=float)
    se = np.asarray(se, dtype=float)
    noise_floor = max(float(se.max()), 1.0 / math.sqrt(shots * n_seq))
    trend = float(np.polyfit(lengths, mean, 1)[0] * (lengths[-1] - lengths[0]))
    if trend > 4.0 * noise_floor:
        raise FitError("benchmarking data does not decay (survival increases)")
    if np.all(mean > 1.0 - 1e-12):
        return 1.0
    if mean.max() - 0.5 < 4.0 * noise_floor:
        return 0.0  # fully decohered already at the shortest sequence
    good = mean - 0.5 > noise_floor
    slope = np.polyfit(lengths[good], np.log(mean[good] - 0.5), 1)[0] if good.sum() > 1 else -1e-3
    lam0 = float(np.clip(math.exp(slope), 1e-3, 0.999999))
    try:
        popt, _ = curve_fit(
            lambda N, A, lam, B: A * lam**N + B,
            lengths, mean, p0=(0.5, lam0, 0.5),
            bounds=([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]), maxfev=20000,
        )
    except RuntimeError as exc:
        raise FitError(f"decay fit failed: {exc}") from exc
    lam = float(popt[1])
    if lam > 1.0 - 1e-9:
        raise FitError("benchmarking data does not decay")
    return lam


def rb_simulate(pulse_channel, *, lengths=None, n_seq=100, shots=100, seed=0):
    """Randomized benchmarking with one noise channel applied per pulse.

    Random Clifford sequences (inversion gate appended) act on |0>; after
    every physical pulse of the tabled decomposition the noise channel is
    applied.  Survival fractions are binomially sampled with ``shots``
    repetitions and fitted to ``A * lam**N + B``.

    Returns an :class:`RBResult` carrying the decay ``lam``, the standard
    average Clifford infidelity ``(1 - lam)/2``, its per-pulse proxy, and
    the alternative combination ``4(d-1) lam / (3d) + 1/d`` that some
    benchmarking reports quote, so either reading of the number can be
    reproduced.
    """
    if lengths is None:
        lengths = [2**k for k in range(1, 11)]
    lengths = np.asarray(lengths, dtype=int)
    rng = np.random.default_rng(seed)
    table = clifford_table()
    noise = _noise_ptm(pulse_channel)
    pulses = _pulse_ptms()
    cliff_ptms = []
    for _, word in table:
        R = np.eye(4)
        for g in word:
            R = noise @ pulses[g] @ R
        cliff_ptms.append(R)
    ideal = [ptm(KrausSet([U])) for U, _ in table]

    mean = np.empty(lengths.size)
    se = np.empty(lengths.size)
    state0 = np.array([1.0, 0.0, 0.0, 1.0])  # (1, r) with r = +z
    for i, L in enumerate(lengths):
        surv = np.empty(n_seq)
        for s in range(n_seq):
            seq = rng.integers(0, 24, size=L)
            state = state0.copy()
            ideal_total = np.eye(4)
            for idx in seq:
                state = cliff_ptms[idx] @ state
                ideal_total = ideal[idx] @ ideal_total
            inv = next(
                j for j in range(24)
                if np.abs(ideal[j] @ ideal_total - np.eye(4)).max() < 1e-9
            )
            state = cliff_ptms[inv] @ state
            p0 = float(np.clip(0.5 * (state[0] + state[3]), 0.0, 1.0))
            surv[s] = rng.binomial(shots, p0) / shots
        mean[i] = surv.mean()
        se[i] = surv.std(ddof=1) / math.sqrt(n_seq)

    lam = fit_rb_decay(lengths, mean, se, shots=shots, n_seq=n_seq)
    avg_pulses = average_pulses_per_clifford()
    eps_rb = 0.5 * (1.0 - lam)
    return RBResult(
        lengths=lengths,
        survival_mean=mean,
        survival_se=se,
        lam=lam,
        eps_rb=eps_rb,
        eps_rb_per_pulse=eps_rb / avg_pulses,
        alt_fidelity_estimate=4.0 * lam / 6.0 + 0.5,
        avg_pulses=avg_pulses,
    )


def depolarizing_rb_lambda(p):
    """Analytic per-Clifford decay for per-pulse depolarizing noise p.

    Each pulse contracts the Bloch vector by mu = 1 - 4p/3; a Clifford with
    k pulses contributes mu^k, so the sequence-averaged decay per Clifford
    is the table average of mu^k.
    """
    mu = 1.0 - 4.0 * p / 3.0
    return float(np.mean([mu ** len(word) for _, word in clifford_table()]))
