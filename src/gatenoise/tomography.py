"""Simulated and data-driven process tomography of the dynamical error map.

Probabilities follow Born's rule ``p = tr(D chi)`` with precomputed
measurement matrices, counts are binomial draws against the weighted POVM,
and snapshots are reconstructed either by linear inversion (exact but
possibly nonphysical under shot noise) or by likelihood methods constrained
to trace-preserving positive matrices, chi = T T^dag / |x|^2 with T block
diagonal: a real diagonal on the (Y, Z) block and, on the (I, X) block,
either the lower Cholesky factor (the 5 trace-preserving entries of the block
Cholesky vector ell, whose sixth, l34, is held at 0) or the Hermitian square
root (the 5-vector s of :func:`_root_to_cholesky`).  In both coordinates
every Born probability is a quadratic form, ``p = x^T Q x / |x|^2``, with
the forms Q built once per setup, and every (+, -) pair sums to 1/3.  The
maximum-likelihood fit and a Metropolis-Hastings sampler score a stack of
unit vectors with one function, :func:`_scores`: one matmul of the rows'
outer products against the forms, in either coordinates, then the plain
multinomial likelihood with one floor.  The fit starts each snapshot at the
square root of its linear-inversion estimate and moves every start of every
snapshot as one stack through a damped Newton ascent on the sphere of
square-root coordinates, which have no gauge on the cone boundary, with the
closed-form gradient and Hessian of the quadratic forms, and reports
Cholesky entries.
The sampler scores the proposals from one point as one stack and walks the
whole unit sphere of Cholesky entries with a symmetric proposal, so it has
no truncation and no Hastings term, and yields confidence regions for gate
errors, themselves quadratic forms in ell.  Randomized benchmarking is index
arithmetic on one exact table of the 24 Cliffords as signed-permutation
Bloch rotations; all sequences of one length propagate under per-pulse Pauli
noise as one stack of (Bloch axis, value) pairs.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import numpy.fft  # noqa: F401  loaded with the module: numpy 2 defers it to first use
import numpy.random  # noqa: F401

from .channels import _PTM, PAULIS, gate_fidelity_matrix
from .errors import DegenerateDataError, FitError, TuningWarning, ValidationError, _check_count


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
    trace-preserving channel.  ``forms[s, b, m]`` is the same probability as
    a real symmetric 5x5 form in the trace-preserving entries (``_TP``) of
    the block-Cholesky vector, ``p = ell^T Q ell / |ell|^2``:
    ``ell_form(d_matrices)`` without l34.  ``root_forms[s, b, m]`` is it in
    the square-root coordinates s of :func:`_root_to_cholesky`.
    """

    states: list = field(default_factory=list)
    povm: list = field(default_factory=list)
    d_matrices: np.ndarray = None
    forms: np.ndarray = None
    root_forms: np.ndarray = None

    @classmethod
    def standard(cls):
        states = [_proj(_KETP), _proj(_KETPI), _proj(_KET0), _proj(_KET1)]
        povm = [
            [_proj(_KETP) / 3.0, _proj(_KETM) / 3.0],
            [_proj(_KETPI) / 3.0, _proj(_KETMI) / 3.0],
            [_proj(_KET0) / 3.0, _proj(_KET1) / 3.0],
        ]
        # D[s, b, m, beta, alpha] = tr(M_bm s_alpha rho_s s_beta)
        D = np.einsum("bmij,ajk,skl,cli->sbmca", np.array(povm), PAULIS,
                      np.array(states), PAULIS)
        return cls(states=states, povm=povm, d_matrices=D,
                   forms=ell_form(D)[..., _TP, :][..., _TP],
                   root_forms=_pair_forms(D, _ROOT_SLOTS))


@functools.cache
def default_setup():
    return TomographySetup.standard()


def born_probs(chi, setup=None):
    """Measurement probabilities p[..., s, b, m] = tr(D_{s,b,m} chi) of a
    (..., 4, 4) chi."""
    setup = setup or default_setup()
    return np.einsum("sbmij,...ji->...sbm", setup.d_matrices, chi).real


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


def sample_shots(probs, n_shots, rng, t=0.0):
    """Draw a CountRecord from (4, 3, 2) Born probabilities, or a list of
    them, all at ``t``, from a (..., 4, 3, 2) stack.

    Each (state, basis) pair's + count is one binomial draw over its shots
    with success probability ``3 p(+)`` (the POVM weight removed), the law
    of a count of Bernoulli shots; the - count is the rest of the shots.
    A stack is one binomial call in C order, so it draws what one call per
    record would, in turn, from the same generator.
    """
    p_plus = np.clip(3.0 * np.asarray(probs)[..., 0], 0.0, 1.0)
    shots = np.broadcast_to(np.asarray(n_shots, dtype=int), p_plus.shape)
    n_plus = rng.binomial(shots, p_plus)
    counts = np.stack([n_plus, shots - n_plus], axis=-1)
    if p_plus.ndim == 2:
        return CountRecord(t=t, shots=shots, counts=counts)
    return [CountRecord(t=t, shots=s, counts=c)
            for s, c in zip(shots.reshape(-1, 4, 3), counts.reshape(-1, 4, 3, 2))]


def counts_from_csv(path):
    """Parse the counts CSV into CountRecords keyed by time."""
    try:
        with open(path) as fh:
            header, *lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read counts file {path}: {exc}") from None
    header = header.strip().split(",")
    if header != ["state", "basis", "time_s", "n_plus", "n_minus"]:
        raise ValidationError(f"unexpected counts header {header}")
    rows = {}
    for line in lines:
        row = line.strip()
        if not row:
            continue
        fields = row.split(",")
        if len(fields) != 5:
            raise ValidationError(f"expected 5 fields in counts row {row!r}")
        sl, bl, ts, np_, nm_ = fields
        if sl not in STATE_LABELS or bl not in BASIS_LABELS:
            raise ValidationError(f"unknown state or basis in counts row {row!r}")
        try:
            t = float(ts)
            counts = (int(np_), int(nm_))
        except ValueError as exc:
            raise ValidationError(f"unparsable number in counts row {row!r}") from exc
        if not (math.isfinite(t) and t >= 0.0 and min(counts) >= 0):
            raise ValidationError(f"need a finite time >= 0 and counts >= 0 in counts row {row!r}")
        if (sl, bl) in rows.setdefault(t, {}):
            raise ValidationError(f"repeated state, basis and time in counts row {row!r}")
        rows[t][(sl, bl)] = counts
    if not rows:
        raise ValidationError(f"no counts rows in {path}")
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

def linear_inversion(probs, setup=None):
    """Closed-form, trace-preserving process matrix of (..., 4, 3, 2) Born
    probabilities: a (..., 4, 4) complex array, one chi per record of a stack.

    Basis b's contrast p(+) - p(-) is c_b0 + c_b . r on the output Bloch vector
    r, c_ba = tr(s_a (M_b+ - M_b-)) / 2; the states' r and input Bloch vectors
    give the affine map [t | M], and the Pauli transfer matrix [[1, 0], [t, M]]
    gives chi.  Noisy frequencies may give negative eigenvalues, left to the caller.
    """
    setup = setup or default_setup()
    probs, povm = np.asarray(probs, dtype=float), np.array(setup.povm)
    c = 0.5 * np.einsum("aij,bji->ba", PAULIS, povm[:, 0] - povm[:, 1]).real
    contrast = probs[..., 0] - probs[..., 1] - c[:, 0]     # (..., state, basis)
    r_out = np.linalg.solve(c[:, 1:], np.swapaxes(contrast, -1, -2))
    r_in = np.einsum("aij,sji->sa", PAULIS, np.array(setup.states)).real  # rows (1, r)
    ptm = np.broadcast_to(np.eye(4), probs.shape[:-3] + (4, 4)).copy()
    ptm[..., 1:, :] = np.swapaxes(np.linalg.solve(r_in, np.swapaxes(r_out, -1, -2)), -1, -2)
    return np.einsum("ijab,...ij->...ab", _PTM.conj(), ptm) / 4.0


# --------------------------------------------------------------------- #
# block-Cholesky and square-root parametrizations and the shared likelihood

N_PARAMS = 6
# E_k: the entry parameter k fills in L = sum_k ell_k E_k.
_SLOTS = np.zeros((N_PARAMS, 4, 4), dtype=complex)
_SLOTS[np.arange(N_PARAMS), [0, 1, 1, 2, 3, 3], [0, 0, 1, 2, 2, 3]] = [1, 1j, 1, 1, 1j, 1]
# The diagonal entry in each parameter's column of L.
_COLUMN_DIAG = np.array([0, 0, 2, 3, 3, 5])
# The trace-preserving entries, all but l34: the fit and the chain move these five.
_TP = np.array([0, 1, 2, 3, 5])
N_TP = len(_TP)
_DIAG_IDX = (0, 2, 3, 4)       # l11, l22, l33, l44 positions among the TP entries
# Square-root coordinates: T = sum_k s_k R_k, with the (I, X) block of T Hermitian.
_ROOT_SLOTS = np.zeros((N_TP, 4, 4), dtype=complex)
_ROOT_SLOTS[[0, 1, 1, 2, 3, 4], [0, 0, 1, 1, 2, 3], [0, 1, 0, 1, 2, 3]] = [
    1, -1j / math.sqrt(2.0), 1j / math.sqrt(2.0), 1, 1, 1]
_EYE = np.eye(N_TP)


def chi_from_ell(ell):
    """Trace-normalized block process matrix from the 6 Cholesky entries.

    L has rows (l11, 0, 0, 0), (i l12, l22, 0, 0), (0, 0, l33, 0),
    (0, 0, i l34, l44); chi = L L^dag / |ell|^2, so the normalization
    constraint |ell| = 1 is equivalent to unit trace.  l34 = ell[4] fills an
    imaginary chi_32, which no trace-preserving channel has: the fit and the
    chain hold it at 0 and move the other five entries (``_TP``).
    """
    ell = np.asarray(ell, dtype=float)
    norm2 = float(np.dot(ell, ell))
    if norm2 <= 0.0:
        raise ValidationError("Cholesky parameters cannot all vanish")
    L = np.einsum("k,kij->ij", ell, _SLOTS)
    return L @ L.conj().T / norm2


def _pair_forms(M, slots):
    """Real symmetric (..., k, k) forms A with Re tr(M T T^dag) = x^T A x for
    T = sum_k x_k slots[k]: A_kl is the symmetrized Re tr(M E_k E_l^dag)."""
    pairs = np.einsum("kia,lja->klij", slots, slots.conj())
    A = np.einsum("...ij,klji->...kl", M, pairs).real
    return 0.5 * (A + np.swapaxes(A, -1, -2))


def ell_form(M):
    """Real symmetric (..., 6, 6) forms A with Re tr(M chi) = ell^T A ell / |ell|^2.

    ``M`` is a (..., 4, 4) stack and chi = chi_from_ell(ell); since
    chi = sum_kl ell_k ell_l E_k E_l^dag / |ell|^2, A_kl is the symmetrized
    Re tr(M E_k E_l^dag).  Born probabilities use M = D; the gate fidelity
    sum_ab chi_ab G_ab uses M = G^T.
    """
    return _pair_forms(M, _SLOTS)


def _root_to_cholesky(s):
    """TP Cholesky entries (N, 5) of a (N, 5) stack of square-root coordinates.

    s = (s11, sqrt(2) s12, s22, l33, l44) holds T = [[s11, -i s12],
    [i s12, s22]] on the (I, X) block and the diagonal l33, l44 on the (Y, Z)
    block, and chi = T T^dag / |s|^2.  With r = s12 the (I, X) block of chi
    is [[s11^2 + r^2, -i r (s11 + s22)], [i r (s11 + s22), s22^2 + r^2]], so
    its lower Cholesky factor is (h, r (s11 + s22) / h, |s11 s22 - r^2| / h)
    with h = hypot(s11, r), and (0, 0, |s22|) at h = 0: chi and the norm stay
    put.  Any real s is a point of the model, indefinite T included.
    """
    s11, r, s22 = s[:, 0], s[:, 1] / math.sqrt(2.0), s[:, 2]
    h = np.hypot(s11, r)
    safe = np.where(h > 0.0, h, 1.0)
    return np.column_stack([h, r * (s11 + s22) / safe,
                            np.where(h > 0.0, np.abs(s11 * s22 - r * r) / safe, np.abs(s22)),
                            s[:, 3:]])


def fold_ell(ells):
    """Flip the sign of each column of L whose diagonal entry is negative.

    chi = L L^dag is unchanged; ``ells`` is a (..., 6) stack.
    """
    ells = np.asarray(ells, dtype=float)
    return ells * np.where(ells[..., _COLUMN_DIAG] < 0.0, -1.0, 1.0)


def _padded(ell):
    """Folded 6-entry ells (:func:`fold_ell`) of a (..., 5) stack of TP entries;
    adding 0.0 turns the l34 of a flipped column from -0.0 to 0.0."""
    return fold_ell(np.insert(ell, 4, 0.0, axis=-1)) + 0.0


PROB_FLOOR = 1e-15


def _stack_records(records):
    """(N, 24) counts and (N, 12) shots of ``records`` as float stacks, in
    (state, basis, outcome) order; every pair of every record needs a shot."""
    if not records:
        raise ValidationError("no count records to fit")
    counts = np.stack([rec.counts.reshape(-1) for rec in records]).astype(float)
    shots = np.stack([rec.shots.reshape(-1) for rec in records]).astype(float)
    if np.any(shots <= 0):
        raise DegenerateDataError("every (state, basis) pair needs at least one shot")
    return counts, shots


def _scores(x, forms, counts):
    """Log-likelihood (N,) and unfloored Born probabilities (N, 24) of a
    (N, 5) stack of unit vectors: one matmul of the rows' outer products
    x x^T against ``forms``, the (25, 24) matrix of the 24 Born forms in
    the coordinates of ``x`` (``setup.forms`` for the chain's Cholesky
    entries, ``setup.root_forms`` for the fit's square-root coordinates).

    On the trace-preserving model every (state, basis) pair sums to 1/3, so
    the binomial of each pair is the multinomial ``sum c log p`` up to a
    constant, each p floored at ``PROB_FLOOR`` (a steep but finite barrier).
    ``counts`` is (24,) or (N, 24), from :func:`_stack_records`.  The
    matmul is 2-D: a row can round differently in a stack than alone.
    """
    probs = (x[:, :, None] * x[:, None, :]).reshape(len(x), -1) @ forms
    return np.vecdot(np.log(np.maximum(probs, PROB_FLOOR)), counts), probs


MLE_MAX_ITER = 200   # damped Newton iterations before a fit is reported
MLE_TOL = 1e-15      # Newton decrement g^T |H|^-1 g per recorded count at convergence
MH_PREFETCH = 16     # MH proposals from one point scored as one stack (Brockwell 2006)


def _mle_starts(n_fits, n_starts, seed):
    """(n_fits, n_starts, 5) unit starts in square-root coordinates: the
    identity channel, then random draws with positive diagonals, fit k's from
    ``default_rng([seed, k])``; :func:`mle_fit` puts each fit's
    linear-inversion start in place of the first."""
    starts = np.empty((n_fits, n_starts, N_TP))
    starts[:, 0] = [1.0, 0.0, 1e-3, 1e-3, 1e-3]
    for k in range(n_fits if n_starts > 1 else 0):  # no stream to seed for one start
        rng = np.random.default_rng([seed, k])
        draws = rng.uniform(-0.5, 0.5, (n_starts - 1, N_TP))
        draws[:, _DIAG_IDX] = rng.uniform(0.05, 1.0, (n_starts - 1, len(_DIAG_IDX)))
        starts[k, 1:] = draws
    return starts / np.linalg.norm(starts, axis=2, keepdims=True)


START_FLOOR = 1e-4   # eigenvalue floor of a start's blocks: keeps it off the cone boundary


def _inversion_starts(counts, shots, setup):
    """(N, 5) unit starts, in square-root coordinates, at the records'
    linear-inversion estimates.

    ``counts`` and ``shots`` come from :func:`_stack_records`.  The model's
    (I, X) block (chi_00, Im chi_10, chi_11) of the estimate at frequencies
    counts / (3 shots) has its eigenvalues raised to ``START_FLOOR``: the
    projection onto the positive cone (Smolin, Gambetta and Smith, PRL 108,
    070502, 2012), kept off its boundary.  The start is the positive square
    root of that block, the eigenvalues' roots on the same eigenvectors.
    The model's (Y, Z) block is diagonal: l33 and l44 are the square roots
    of chi_22 and chi_33, each raised to ``START_FLOOR`` first.
    """
    freqs = counts / (3.0 * np.repeat(shots, 2, axis=1))
    chi = linear_inversion(freqs.reshape(-1, 4, 3, 2), setup)
    diag, off = np.diagonal(chi, axis1=1, axis2=2).real, chi[:, 1, 0].imag
    lam, vec = np.linalg.eigh(np.stack([diag[:, 0], off, off, diag[:, 1]], 1).reshape(-1, 2, 2))
    root = np.einsum("nij,nkj,nj->nik", vec, vec, np.sqrt(np.maximum(lam, START_FLOOR)))
    start = np.column_stack([root[:, 0, 0], math.sqrt(2.0) * root[:, 1, 0], root[:, 1, 1],
                             np.sqrt(np.maximum(diag[:, 2:], START_FLOOR))])
    return start / np.linalg.norm(start, axis=1, keepdims=True)


def _tangent_newton(ell, probs, counts, q_flat):
    """Tangent gradient (N, 5) and Riemannian Hessian (N, 5, 5) of the
    log-likelihood on the unit sphere at ``ell`` with unfloored Born
    probabilities ``probs`` (:func:`_scores`); ``q_flat`` is the (24, 25) forms.

    With u_i = 2 (Q_i ell - p_i ell) the tangent gradient of p_i and
    w_i = c_i / p_i = dlogL/dp_i, the gradient is sum_i w_i u_i and the
    Hessian is P (2 sum_i w_i Q_i - 2 (w.p) I) P, P = I - ell ell^T, minus
    sum_i c_i / p_i^2 u_i u_i^T, each p_i in w_i at ``PROB_FLOOR``'s floor.
    """
    p = np.maximum(probs, PROB_FLOOR)
    w = counts / p
    q_ell = (ell @ q_flat.reshape(-1, N_TP).T).reshape(len(ell), -1, N_TP)
    u = 2.0 * (q_ell - probs[:, :, None] * ell[:, None, :])
    proj = _EYE - ell[:, :, None] * ell[:, None, :]
    curv = (w @ q_flat).reshape(len(ell), N_TP, N_TP)
    curv -= np.einsum("ni,ni->n", w, probs)[:, None, None] * _EYE
    hess = 2.0 * proj @ curv @ proj
    hess -= np.swapaxes(u * (w / p)[:, :, None], 1, 2) @ u
    return np.einsum("ni,nik->nk", w, u), hess


def _ascend(ell, counts, setup):
    """Damped Newton ascent of a (N, 5) stack of unit starts on S^4, in the
    square-root coordinates of :func:`_root_to_cholesky`; :func:`mle_fit`
    starts every fit at its linear-inversion estimate.

    Each row steps by (H+ + mu I)^-1 g in the eigenbasis of minus its
    Riemannian Hessian, with H+ those eigenvalues clipped at zero, and is
    renormalized; a step is kept only if the log-likelihood does not fall,
    and mu follows Nielsen's gain-ratio update.  A row freezes once its
    Newton decrement g^T |H|^-1 g, about twice the log-likelihood still to
    gain, is at most ``MLE_TOL`` times its total counts.

    The Cholesky factor of the (I, X) block has a gauge on the cone
    boundary: at l11 -> 0, (l12, l22) rotate freely and the Hessian's
    smallest eigenvalue falls like l11^2, so a fit whose maximum lies there
    (a pi pulse, chi_II -> 0) would crawl.  The Hermitian square root has
    none: S -> S^2 is one-to-one on positive S, so the rows move in it and
    come back as Cholesky entries.  Returns (TP Cholesky entries,
    log-likelihood, decrement), each per row.
    """
    q_flat = setup.root_forms.reshape(-1, N_TP * N_TP)     # (24, 25)
    out_ell = np.array(ell, dtype=float)
    out_logl, out_dec = np.empty(len(out_ell)), np.empty(len(out_ell))
    rows = np.arange(len(out_ell))
    ell, scale = out_ell.copy(), counts.sum(axis=1)
    logl, probs = _scores(ell, q_flat.T, counts)
    mu, nu = scale.copy(), np.full(len(ell), 2.0)  # first steps: short gradient steps
    for _ in range(MLE_MAX_ITER):
        grad, hess = _tangent_newton(ell, probs, counts, q_flat)
        # the normal direction gets the total counts as curvature, so it takes no step
        lam, vec = np.linalg.eigh(scale[:, None, None] * ell[:, :, None] * ell[:, None, :] - hess)
        grad = np.einsum("nkj,nk->nj", vec, grad)
        dec = np.einsum("nj,nj->n", grad, grad / np.abs(lam))
        done = dec <= MLE_TOL * scale
        if done.any():
            out_ell[rows[done]], out_logl[rows[done]] = ell[done], logl[done]
            out_dec[rows[done]] = dec[done]
            keep = ~done
            (rows, ell, logl, dec, probs, counts, scale, mu, nu, lam, vec, grad) = (
                x[keep] for x in (rows, ell, logl, dec, probs, counts, scale, mu, nu, lam,
                                  vec, grad))
            if rows.size == 0:
                break
        lam = np.maximum(lam, 0.0)
        coef = grad / (lam + mu[:, None])
        trial = ell + np.einsum("nkj,nj->nk", vec, coef)
        trial /= np.linalg.norm(trial, axis=1, keepdims=True)
        trial_logl, trial_p = _scores(trial, q_flat.T, counts)
        # gain ratio against the damped quadratic model
        rho = (trial_logl - logl) / np.einsum("nj,nj->n", coef, grad - 0.5 * lam * coef)
        up = trial_logl >= logl
        ell = np.where(up[:, None], trial, ell)
        probs = np.where(up[:, None], trial_p, probs)
        logl = np.where(up, trial_logl, logl)
        shrink = np.maximum(1.0 / 3.0, 1.0 - (2.0 * np.minimum(rho, 1.0) - 1.0) ** 3)
        mu = np.where(up, mu * shrink, mu * nu)
        nu = np.where(up, 2.0, 2.0 * nu)
    out_ell[rows], out_logl[rows], out_dec[rows] = ell, logl, dec
    return _root_to_cholesky(out_ell), out_logl, out_dec


def mle_fit(counts, setup=None, *, n_starts=1, seed=0):
    """Maximum-likelihood snapshots on the trace-preserving block-Cholesky
    manifold.

    ``counts`` is one :class:`CountRecord` or a sequence of them; every fit
    of a call moves as one stack of unit 5-vectors of square-root
    coordinates through a damped Newton ascent on the sphere S^4
    (:func:`_ascend`).  By default each fit starts from its record's
    linear-inversion estimate alone, projected into the model
    (:func:`_inversion_starts`), all fits in one stacked pass; ``n_starts``
    > 1 adds random starts, fit k's from ``default_rng([seed, k])``, and
    keeps each fit's best.  The sphere has no edge and every point of it is
    a channel of the model, so no bounds are needed.  The fits come back as
    Cholesky entries (:func:`_root_to_cholesky`), their column signs fixed
    by :func:`fold_ell` and padded to 6 entries with l34 = 0.
    A :class:`TuningWarning` counts the fits whose best start stopped at
    ``MLE_MAX_ITER`` iterations short of the tolerance, with the largest
    Newton decrement left.  One record returns its (4, 4) chi and 6-entry
    ell; a sequence returns the (n, 4, 4) chi stack and the (n, 6) ell stack.
    """
    _check_count("n_starts", n_starts)
    setup = setup or default_setup()
    single = isinstance(counts, CountRecord)
    records = [counts] if single else list(counts)
    rec_counts, rec_shots = _stack_records(records)
    n_fits = len(records)
    starts = _mle_starts(n_fits, n_starts, seed)
    starts[:, 0] = _inversion_starts(rec_counts, rec_shots, setup)
    ell, logl, dec = _ascend(starts.reshape(-1, N_TP), np.repeat(rec_counts, n_starts, axis=0),
                             setup)
    best = np.argmax(logl.reshape(n_fits, n_starts), axis=1) + n_starts * np.arange(n_fits)
    stalled = dec[best] > MLE_TOL * rec_counts.sum(axis=1)
    if stalled.any():
        warnings.warn(
            f"{np.count_nonzero(stalled)} of {n_fits} MLE fits stopped after {MLE_MAX_ITER} "
            f"iterations short of the tolerance (largest Newton decrement "
            f"{dec[best][stalled].max():.1e})",
            TuningWarning,
        )
    ells = _padded(ell[best])
    chis = np.array([chi_from_ell(e) for e in ells])
    if single:
        return chis[0], ells[0]
    return chis, ells


# --------------------------------------------------------------------- #
# Metropolis-Hastings confidence regions

@dataclass
class ChiPosterior:
    """Markov-chain posterior over the block-Cholesky parameters."""

    ells: np.ndarray            # (n_kept, 6), unit norm, nonnegative diagonals, l34 = 0
    gate_errors: np.ndarray
    acceptance_rate: float
    width: float                # proposal width after burn-in tuning
    mean_error: float
    mode_error: float
    quantiles: tuple            # (2.5%, 97.5%) of the gate error
    ess: float                  # effective sample size of ``gate_errors``


def percentiles(x, q):
    """``np.percentile(x, q)``, same rule and rounding, without its lazy numpy.ma import."""
    x = np.sort(np.ravel(x))
    pos = (x.size - 1) * (np.asarray(q, dtype=float) / 100.0)
    lo = np.floor(pos).astype(int)
    a, b, t = x[lo], x[np.minimum(lo + 1, x.size - 1)], pos - lo
    return np.where(t >= 0.5, b - (b - a) * (1.0 - t), a + (b - a) * t)


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
             burn_in_frac=0.1, target_unitary=None):
    """Posterior sampling of the process matrix under the counting likelihood.

    The chain walks the whole unit sphere S^4 of TP entries (uniform prior)
    with the likelihood :func:`mle_fit` maximizes.  A proposal adds ``width``
    (finite and > 0) times a standard normal 5-vector and renormalizes; its
    density depends only on the angle between the points, so it is
    symmetric: no truncation and no Hastings term.  Normals, then uniforms,
    are drawn up front; until one is accepted, proposals share their start,
    so up to ``MH_PREFETCH`` of them are scored as one stack and walked to
    the first acceptance (pre-fetching, Brockwell 2006); :func:`_scores`
    scores each stack and the start.  chi is unchanged by column sign flips
    of L, so kept samples are folded back to nonnegative diagonals and padded
    to 6 entries with l34 = 0.  The width is tuned toward 30% acceptance
    every min(200, burn-in / 4) steps of burn-in; a warning is emitted if the
    post-burn-in rate leaves [0.1, 0.6].  Gate errors against
    ``target_unitary`` (identity if omitted) are 1/2 - ell^T G ell.
    """
    rec_counts = _stack_records([counts])[0][0]
    forms = (setup or default_setup()).forms.reshape(24, -1).T    # (25, 24)
    _check_count("n_steps", n_steps)
    if not (0.0 <= burn_in_frac < 1.0 and 0.0 < width < math.inf):
        raise ValidationError("mh_chain needs 0 <= burn_in_frac < 1 and a finite width > 0")
    n_burn = int(burn_in_frac * n_steps)
    rng = np.random.default_rng(seed)

    ell = np.array([1.0, 0.0, 0.05, 0.05, 0.05])
    ell /= np.linalg.norm(ell)
    logl = _scores(ell[None], forms, rec_counts)[0][0]

    normals = rng.standard_normal((n_steps, N_TP))
    log_u = np.log(rng.random(n_steps) + 1e-300)
    chain = np.empty((n_steps, N_TP))
    chain_logl = np.empty(n_steps)
    accepted = np.zeros(n_steps, dtype=bool)
    window = max(1, min(200, n_burn // 4))
    step = 0
    while step < n_steps:
        stop = min(step + MH_PREFETCH, n_steps)
        if step < n_burn:   # the width changes at each tuning-window boundary
            stop = min(stop, step + window - step % window)
        props = ell + width * normals[step:stop]
        props /= np.sqrt((props * props).sum(axis=1, keepdims=True))  # as np.linalg.norm
        logl_props = _scores(props, forms, rec_counts)[0]
        hits = log_u[step:stop] < logl_props - logl
        first = int(hits.argmax())
        end = step + first + 1 if hits[first] else stop
        chain[step:end], chain_logl[step:end] = ell, logl
        if hits[first]:
            ell, logl, accepted[end - 1] = props[first], logl_props[first], True
            chain[end - 1], chain_logl[end - 1] = ell, logl
        step = end
        if step <= n_burn and step % window == 0:
            rate = accepted[step - window:step].mean()
            width = float(np.clip(width * math.exp(0.8 * (rate - 0.3)), 1e-4, 0.5))

    kept_ells = _padded(chain[n_burn:])
    G = ell_form(gate_fidelity_matrix(np.eye(2) if target_unitary is None else target_unitary).T)
    kept_err = 0.5 - np.einsum("nk,kl,nl->n", kept_ells, G, kept_ells)

    rate = float(accepted[n_burn:].mean())
    if not 0.1 <= rate <= 0.6:
        warnings.warn(
            f"MH acceptance rate {rate:.2f} outside [0.1, 0.6]; adjust the width",
            TuningWarning,
        )
    mode_idx = int(np.argmax(chain_logl[n_burn:]))
    lo_q, hi_q = percentiles(kept_err, (2.5, 97.5))
    return ChiPosterior(
        ells=kept_ells,
        gate_errors=kept_err,
        acceptance_rate=rate,
        width=width,
        mean_error=float(kept_err.mean()),
        mode_error=float(kept_err[mode_idx]),
        quantiles=(float(lo_q), float(hi_q)),
        ess=effective_sample_size(kept_err),
    )


# --------------------------------------------------------------------- #
# randomized benchmarking

# Bloch rotations of the four pulses: +90 and -90 degrees about x, then y.
_PULSES = np.array([
    [[1, 0, 0], [0, 0, -1], [0, 1, 0]],
    [[1, 0, 0], [0, 0, 1], [0, -1, 0]],
    [[0, 0, 1], [0, 1, 0], [-1, 0, 0]],
    [[0, 0, -1], [0, 1, 0], [1, 0, 0]],
])


@functools.cache
def clifford_table():
    """The 24 single-qubit Cliffords as (Bloch rotation, pulse word) pairs.

    A Clifford permutes the Bloch axes up to sign, so the search is exact on
    3x3 integer rotations: breadth first over products of the four pulses
    (later pulses multiply from the left), each rotation kept with its
    minimal word, the identity first.  About 2.1 pulses per Clifford, close
    to the ~2.2 of decompositions commonly used in experiments.
    """
    table = [(np.eye(3, dtype=int), ())]
    seen = {table[0][0].tobytes()}
    for R, word in table:  # the list grows behind the loop: a FIFO queue
        for g, P in enumerate(_PULSES):
            V = P @ R
            if V.tobytes() not in seen:
                seen.add(V.tobytes())
                table.append((V, word + (g,)))
    return tuple(table)


@functools.cache
def clifford_group():
    """Index tables of :func:`clifford_table`: R_compose[a, b] = R_a R_b, R_inverse[a] = R_a^T."""
    rotations = [R for R, _ in clifford_table()]
    index = {R.tobytes(): i for i, R in enumerate(rotations)}
    compose = np.array([[index[(Ra @ Rb).tobytes()] for Rb in rotations] for Ra in rotations])
    inverse = np.array([index[Ra.T.tobytes()] for Ra in rotations])
    return compose, inverse


def average_pulses_per_clifford():
    return sum(len(word) for _, word in clifford_table()) / 24.0


def noisy_clifford_maps(rates):
    """(24, 3, 3) Clifford Bloch maps; each pulse is followed by the Pauli
    channel ``rates``, which contracts Bloch axis k by 1 - 2 (p - p_k)."""
    contraction = 1.0 - 2.0 * (rates.p - np.array([rates.px, rates.py, rates.pz]))
    pulses = contraction[:, None] * _PULSES
    maps = np.empty((24, 3, 3))
    for c, (_, word) in enumerate(clifford_table()):
        maps[c] = functools.reduce(lambda M, g: pulses[g] @ M, word, np.eye(3))
    return maps


def rb_survival(maps, sequences):
    """Survival of |0> under the noisy ``maps`` of each row of ``sequences``
    ((n_seq, L) Clifford indices, column 0 first) and its inversion gate.

    Pauli-noisy Clifford maps are signed permutations times a diagonal, so
    each takes a Bloch vector along one axis to one along another: map c
    sends axis k to ``out_axis[c, k]`` scaled by ``coef[c, k]``.  The stack
    propagates as (axis, value) pairs gathered from those tables, and the
    ideal product is a table index, so the inversion gate is one lookup.
    Raises :class:`ValidationError` for a map with two nonzeros in a column.
    """
    maps = np.asarray(maps, dtype=float)
    if np.any(np.count_nonzero(maps, axis=1) > 1):
        raise ValidationError("rb_survival needs monomial Bloch maps (Pauli-noisy Cliffords)")
    out_axis = np.argmax(maps != 0.0, axis=1)   # (24, 3): the row of column k's entry
    out_axis, coef = out_axis.ravel(), np.take_along_axis(maps, out_axis[:, None], 1).ravel()
    compose, inverse = clifford_group()
    sequences = np.asarray(sequences, dtype=int)
    axis, value = np.full(len(sequences), 2), np.ones(len(sequences))
    ideal = np.zeros(len(sequences), dtype=int)
    for step in sequences.T:
        at = 3 * step + axis
        axis, value = out_axis[at], coef[at] * value
        ideal = compose[step, ideal]
    at = 3 * inverse[ideal] + axis
    z = np.where(out_axis[at] == 2, coef[at] * value, 0.0)
    return np.clip(0.5 * (1.0 + z), 0.0, 1.0)


@dataclass
class RBResult:
    lengths: np.ndarray
    survival_mean: np.ndarray
    survival_se: np.ndarray
    lam: float
    eps_rb: float
    eps_rb_per_pulse: float
    avg_pulses: float


def _rb_profile(lam, lengths, mean):
    """Least residual sum of squares of ``A * lam**N + B`` over (A, B) in
    [0, 1]^2, at each ``lam``: the free linear fit if it lies in the box,
    else the best clipped one-variable fit on one of the four edges."""
    tiny = np.finfo(float).tiny  # where v is constant every A is optimal: take 0
    v = lam[:, None] ** lengths
    vbar, ybar = v.mean(axis=1), mean.mean()
    vc = v - vbar[:, None]
    a_free = vc @ (mean - ybar) / np.maximum((vc * vc).sum(axis=1), tiny)
    vv = np.maximum((v * v).sum(axis=1), tiny)
    z = np.zeros_like(lam)
    a = np.stack([a_free, z, z + 1.0, v @ mean / vv, v @ (mean - 1.0) / vv])
    b = np.stack([ybar - a_free * vbar, z + ybar, ybar - vbar, z, z + 1.0])
    a[3:], b[1:3] = np.clip(a[3:], 0.0, 1.0), np.clip(b[1:3], 0.0, 1.0)
    rss = ((a[..., None] * v + b[..., None] - mean) ** 2).sum(axis=-1)
    rss[0, (np.abs(a[0] - 0.5) > 0.5) | (np.abs(b[0] - 0.5) > 0.5)] = np.inf
    return rss.min(axis=0)


def fit_rb_decay(lengths, mean, se, *, shots=100, n_seq=100):
    """Fit survival-vs-length data to A * lam**N + B and return lam.

    Least squares over A, B, lam in [0, 1] by variable projection (Golub &
    Pereyra 1973): the profile :func:`_rb_profile` is minimized on a grid
    log-spaced in 1 - lam, then on finer grids around the best point.

    Raises :class:`FitError` for non-decaying (rising) data; survival that is
    flat at 1/2 within noise is reported as lam = 0 (fully decohered at the
    shortest length).  Raises :class:`ValidationError` for fewer than two
    distinct lengths.
    """
    lengths = np.asarray(lengths, dtype=float)
    if len(set(lengths.tolist())) < 2:
        raise ValidationError("fit_rb_decay needs at least two distinct sequence lengths")
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
    grid = np.append(1.0 - np.geomspace(1.0, 1e-12, 241), 1.0)
    while True:
        k = int(np.argmin(_rb_profile(grid, lengths, mean)))
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
        if hi - lo < 1e-10:
            break
        grid = np.linspace(lo, hi, 65)
    lam = float(grid[k])
    if lam > 1.0 - 1e-9:
        raise FitError("benchmarking data does not decay")
    return lam


def rb_simulate(pulse_channel, *, lengths=None, n_seq=100, shots=100, seed=0):
    """Randomized benchmarking with Pauli noise applied after every pulse.

    ``pulse_channel`` is the per-pulse :class:`PauliRates`.  For each length
    ``n_seq`` random Clifford sequences, the inversion gate appended, act on
    |0> through the tabled pulse decompositions (see :func:`rb_survival`);
    the survival fractions of all lengths are binomially sampled with
    ``shots`` repetitions in one draw and fitted to ``A * lam**N + B``.

    Returns an :class:`RBResult` carrying the decay ``lam``, the standard
    average Clifford infidelity ``(1 - lam)/2`` and its per-pulse proxy.
    """
    _check_count("n_seq", n_seq, least=2)
    _check_count("shots", shots)
    if lengths is None:
        lengths = [2**k for k in range(1, 11)]
    lengths = np.asarray(lengths, dtype=int)
    rng = np.random.default_rng(seed)
    maps = noisy_clifford_maps(pulse_channel)
    p0 = np.array([rb_survival(maps, rng.integers(0, 24, size=(n_seq, L))) for L in lengths])
    surv = rng.binomial(shots, p0) / shots
    mean, se = surv.mean(axis=1), surv.std(axis=1, ddof=1) / math.sqrt(n_seq)

    lam = fit_rb_decay(lengths, mean, se, shots=shots, n_seq=n_seq)
    avg_pulses = average_pulses_per_clifford()
    eps_rb = 0.5 * (1.0 - lam)
    return RBResult(lengths=lengths, survival_mean=mean, survival_se=se, lam=lam,
                    eps_rb=eps_rb, eps_rb_per_pulse=eps_rb / avg_pulses, avg_pulses=avg_pulses)
