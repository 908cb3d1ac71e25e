"""Simulated and data-driven process tomography of the dynamical error map.

Probabilities follow Born's rule ``p = tr(D chi)`` with precomputed
measurement matrices, shots are Bernoulli draws against the weighted POVM,
and snapshots are reconstructed either by linear inversion (exact but
possibly nonphysical under shot noise) or by likelihood methods constrained
to trace-normalized positive matrices through a 6-parameter block Cholesky
factor.  A Metropolis-Hastings sampler over the same parametrization yields
confidence regions for derived gate errors, and a small Clifford simulator
provides randomized-benchmarking decays for cross-validation.
"""

from __future__ import annotations

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
    trace-preserving channel.
    """

    states: list = field(default_factory=list)
    povm: list = field(default_factory=list)
    d_matrices: np.ndarray = None

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
        return cls(states=states, povm=povm, d_matrices=D)


_DEFAULT_SETUP = None


def default_setup():
    global _DEFAULT_SETUP
    if _DEFAULT_SETUP is None:
        _DEFAULT_SETUP = TomographySetup.standard()
    return _DEFAULT_SETUP


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
    probs = np.asarray(probs)
    shots = np.full((4, 3), int(n_shots)) if np.isscalar(n_shots) else np.asarray(n_shots, dtype=int)
    counts = np.zeros((4, 3, 2), dtype=int)
    for s in range(4):
        for b in range(3):
            p_plus = float(np.clip(3.0 * probs[s, b, 0], 0.0, 1.0))
            n_plus = int((rng.random(shots[s, b]) <= p_plus).sum())
            counts[s, b, 0] = n_plus
            counts[s, b, 1] = shots[s, b] - n_plus
    return CountRecord(t=t, shots=shots, counts=counts)


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
# block-Cholesky parametrization

N_PARAMS = 6
_DIAG_IDX = (0, 2, 3, 5)       # l11, l22, l33, l44 positions in the vector
_PARAM_NAMES = ("l11", "l12", "l22", "l33", "l34", "l44")


def chi_from_ell(ell):
    """Trace-normalized block process matrix from the 6 Cholesky entries.

    L has rows (l11, 0, 0, 0), (i l12, l22, 0, 0), (0, 0, l33, 0),
    (0, 0, i l34, l44); chi = L L^dag / |ell|^2, so the normalization
    constraint |ell| = 1 is equivalent to unit trace.
    """
    l11, l12, l22, l33, l34, l44 = ell
    L = np.array(
        [
            [l11, 0.0, 0.0, 0.0],
            [1j * l12, l22, 0.0, 0.0],
            [0.0, 0.0, l33, 0.0],
            [0.0, 0.0, 1j * l34, l44],
        ],
        dtype=complex,
    )
    norm2 = float(np.dot(ell, ell))
    if norm2 <= 0.0:
        raise ValidationError("Cholesky parameters cannot all vanish")
    return L @ L.conj().T / norm2


def _loglik_and_grad(ell, counts, setup):
    """Pair-normalized log-likelihood and its gradient in ell.

    Each (state, basis) pair is a binomial with success probability
    ``p(+) / (p(+) + p(-))``.  On trace-preserving channels the pair sums
    are exactly 1/3 and this reduces (up to a constant) to the rescaled
    multinomial cost ``sum f log tr(D chi)``; off the TP subset of the
    trace-normalized manifold the plain cost is improper - it grows along a
    probability-inflating direction (l34) - so the normalized form is the
    one actually minimized.
    """
    ell = np.asarray(ell, dtype=float)
    norm2 = float(np.dot(ell, ell))
    chi = chi_from_ell(ell)
    probs = born_probs(chi, setup)
    n = counts.counts.astype(float)
    # the floor acts as a steep but finite barrier for the optimizer
    p = np.maximum(probs, 1e-15)
    pair = np.maximum(p.sum(axis=2, keepdims=True), 1e-12)
    logl = float((n * np.log(p)).sum() - (counts.shots * np.log(pair[:, :, 0])).sum())

    # dchi/dell_k = (dL L^dag + L dL^dag)/norm2 - chi * 2 ell_k / norm2
    grad = np.zeros(N_PARAMS)
    L = np.array(
        [
            [ell[0], 0, 0, 0],
            [1j * ell[1], ell[2], 0, 0],
            [0, 0, ell[3], 0],
            [0, 0, 1j * ell[4], ell[5]],
        ],
        dtype=complex,
    )
    slots = ((0, 0, 1.0), (1, 0, 1j), (1, 1, 1.0), (2, 2, 1.0), (3, 2, 1j), (3, 3, 1.0))
    weight = n / p - (counts.shots / pair[:, :, 0])[:, :, None]
    D = setup.d_matrices
    for k, (r, c, unit) in enumerate(slots):
        dL = np.zeros((4, 4), dtype=complex)
        dL[r, c] = unit
        dchi = (dL @ L.conj().T + L @ dL.conj().T) / norm2 - chi * (2.0 * ell[k] / norm2)
        dp = np.einsum("sbmij,ji->sbm", D, dchi).real
        grad[k] = float((weight * dp).sum())
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

    ells: np.ndarray            # (n_kept, 6), normalized
    log_likelihoods: np.ndarray
    gate_errors: np.ndarray
    acceptance_rate: float
    widths: np.ndarray
    mode_ell: np.ndarray
    mean_error: float
    mode_error: float
    quantiles: tuple            # (2.5%, 97.5%) of the gate error


def _truncnorm_draw(rng, center, width, lo, hi):
    for _ in range(1000):
        x = rng.normal(center, width)
        if lo <= x <= hi:
            return x
    raise NumericalError("truncated-normal proposal failed; widths far too large")


def _log_z(center, width, lo, hi):
    """log of the truncated-normal normalization at a given center."""
    a = (lo - center) / (width * math.sqrt(2.0))
    b = (hi - center) / (width * math.sqrt(2.0))
    return math.log(max(0.5 * (math.erf(b) - math.erf(a)), 1e-300))


def mh_chain(counts, setup=None, *, n_steps=100000, widths=0.02, seed=0,
             burn_in_frac=0.1, target_unitary=None, quantiles=(2.5, 97.5)):
    """Posterior sampling of the process matrix under the counting likelihood.

    Proposals draw each Cholesky entry from a truncated Gaussian (diagonals
    in [0, 1], off-diagonals in (-1, 1)), renormalize to the unit sphere to
    keep the trace fixed, and apply the Hastings correction for the
    truncation asymmetry.  Widths are tuned during burn-in toward 30%
    acceptance; a warning is emitted if the post-burn-in rate leaves
    [0.1, 0.6].  Gate errors are derived per sample against
    ``target_unitary`` (identity if omitted).
    """
    setup = setup or default_setup()
    check_counts(counts)
    rng = np.random.default_rng(seed)
    widths = np.full(N_PARAMS, widths, dtype=float) if np.isscalar(widths) else np.asarray(widths, dtype=float)
    bounds = [(0.0, 1.0) if k in _DIAG_IDX else (-1.0, 1.0) for k in range(N_PARAMS)]

    target = np.eye(2, dtype=complex) if target_unitary is None else target_unitary
    G = gate_fidelity_matrix(target)

    def loglik(ell):
        probs = born_probs(chi_from_ell(ell), setup)
        p = np.maximum(probs, 1e-300)
        pair = np.maximum(p.sum(axis=2), 1e-12)
        return float((counts.counts * np.log(p)).sum()
                     - (counts.shots * np.log(pair)).sum())

    def error_of(ell):
        chi = chi_from_ell(ell)
        return float(0.5 - np.real(np.sum(chi * G)))

    ell = np.array([1.0, 0.0, 0.05, 0.05, 0.0, 0.05])
    ell /= np.linalg.norm(ell)
    logl = loglik(ell)

    n_burn = int(burn_in_frac * n_steps)
    kept_ells = np.empty((n_steps - n_burn, N_PARAMS))
    kept_logl = np.empty(n_steps - n_burn)
    kept_err = np.empty(n_steps - n_burn)
    accepted_main = 0
    accepted_recent = 0
    window = 200

    for step in range(n_steps):
        prop = np.empty(N_PARAMS)
        for k in range(N_PARAMS):
            lo, hi = bounds[k]
            prop[k] = _truncnorm_draw(rng, ell[k], widths[k], lo, hi)
        norm = np.linalg.norm(prop)
        if norm > 0:
            prop /= norm
        in_domain = norm > 0 and all(
            bounds[k][0] <= prop[k] <= bounds[k][1] for k in range(N_PARAMS)
        )
        if not in_domain:
            accept = False
        else:
            logl_prop = loglik(prop)
            hastings = sum(
                _log_z(ell[k], widths[k], *bounds[k]) - _log_z(prop[k], widths[k], *bounds[k])
                for k in range(N_PARAMS)
            )
            log_alpha = logl_prop - logl + hastings
            accept = math.log(rng.random() + 1e-300) < log_alpha
        if accept:
            ell, logl = prop, logl_prop
            accepted_recent += 1
            if step >= n_burn:
                accepted_main += 1
        if step < n_burn and (step + 1) % window == 0:
            rate = accepted_recent / window
            widths = np.clip(widths * math.exp(0.8 * (rate - 0.3)), 1e-4, 0.5)
            accepted_recent = 0
        if step == n_burn:
            accepted_recent = 0
        if step >= n_burn:
            j = step - n_burn
            kept_ells[j] = ell
            kept_logl[j] = logl
            kept_err[j] = error_of(ell)

    rate = accepted_main / max(n_steps - n_burn, 1)
    if not 0.1 <= rate <= 0.6:
        warnings.warn(
            f"MH acceptance rate {rate:.2f} outside [0.1, 0.6]; adjust widths",
            TuningWarning,
        )
    mode_idx = int(np.argmax(kept_logl))
    lo_q, hi_q = np.percentile(kept_err, quantiles)
    return ChiPosterior(
        ells=kept_ells,
        log_likelihoods=kept_logl,
        gate_errors=kept_err,
        acceptance_rate=rate,
        widths=widths,
        mode_ell=kept_ells[mode_idx],
        mean_error=float(kept_err.mean()),
        mode_error=float(kept_err[mode_idx]),
        quantiles=(float(lo_q), float(hi_q)),
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


_CLIFFORDS = None


def clifford_table():
    global _CLIFFORDS
    if _CLIFFORDS is None:
        _CLIFFORDS = build_clifford_table()
    return _CLIFFORDS


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
