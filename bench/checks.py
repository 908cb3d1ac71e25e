"""Output checks of one benchmark iteration.

Each check compares a program output with an oracle that does not run the
code being timed for that output: the generator's own table, values recorded
at the seed commit, closed forms written here in plain numpy, or structural
properties (monotonicity, ordering).  A failed check counts as a failed
operation.  Tolerances are stated next to each check; NOTES.md records the
seeds they were verified on.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from workloads import OMEGA, OU_C, OU_TAU, counts_times, ingested_table

REFERENCE = Path(__file__).resolve().parent / "reference"

# Stated tolerances.
INGEST_RTOL = 1e-12          # ingestion is a unit conversion: exact up to repr
FILTERED_RTOL = 1e-6         # vs the seed commit, relative to each column's max
GAMMA1_RTOL = 1e-6           # tabulated Gamma1 vs the plain-numpy quadrature
# The counts CSV has 1000 shots per setting: MLE and MH gate errors scatter
# around the truth with a standard deviation of about 5.5e-3 (560 fits), so
# these tolerances sit at about 6 standard deviations.
MLE_ATOL = 3.5e-2            # |gate error - truth| for the counts MLE fit
MH_ATOL = 3.5e-2             # |posterior mean gate error - truth|
SYNTH_ATOL = 1e-2            # |mean MLE gate error - truth| over repetitions
TRUTH_ATOL = 1e-7            # reported true gate error vs the closed-form OU truth
RB_ATOL = 3e-3               # |lambda - first-order prediction| + 0.12 / sqrt(n_seq)
NCP_RTOL = 1e-6              # allowed N_CP decrease, relative to max N_CP (see NOTES.md)

_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                   [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


def _read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(x) for x in r] for r in rows[1:] if r])


def mean_se2(out_dir):
    """Mean squared standard error of the Langevin Pauli expectations (t > 0)."""
    values = []
    for label in ("zero", "one", "plus", "plus_i"):
        data = _read_csv(Path(out_dir) / f"langevin_{label}.csv")
        values.append(data[data[:, 0] > 0, 4:7] ** 2)
    return float(np.mean(values))


# --------------------------------------------------------------------- #
# independent oracles

def _unitary(t):
    """Ideal drive exp(-i Omega t sx / 2)."""
    return math.cos(0.5 * OMEGA * t) * _PAULI[0] - 1j * math.sin(0.5 * OMEGA * t) * _PAULI[1]


def gate_error_of_chi(chi, t):
    """1 - average gate fidelity of a Pauli-basis chi against the drive.

    Process fidelity u^dag chi u with u_a = tr(s_a U) / 2, then
    F_avg = (2 F_pro + 1) / 3 for a qubit.
    """
    u = np.array([0.5 * np.trace(P @ _unitary(t)) for P in _PAULI])
    f_pro = float(np.real(np.conj(u) @ np.asarray(chi) @ u))
    return 2.0 * (1.0 - f_pro) / 3.0


def _pulse_counts():
    """Minimal number of +-90 degree x/y pulses of each of the 24 Cliffords."""
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    gens = [c * _PAULI[0] - 1j * sg * s * _PAULI[ax] for ax in (1, 2) for sg in (1, -1)]
    found = [np.eye(2, dtype=complex)]
    depth = [0]
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for G in gens:
                V = G @ found[i]
                if all(abs(abs(np.trace(W.conj().T @ V)) - 2.0) > 1e-9 for W in found):
                    found.append(V)
                    depth.append(depth[i] + 1)
                    nxt.append(len(found) - 1)
        frontier = nxt
    return np.array(depth)


def rb_lambda(rates):
    """First-order decay per Clifford for Pauli noise after every pulse."""
    f = 1.0 - 4.0 * (rates.px + rates.py + rates.pz) / 3.0
    return float(np.mean(f ** _pulse_counts()))


def gamma1_oracle(omegas, dens, low, high, times):
    """Gamma1(t) = 2 Int_0^inf S(w) (t/4)(eta(O - w) + eta(O + w)) dw in plain numpy.

    S is the log-log interpolation of the table with constant plateaus.
    Gauss-Legendre panels no wider than pi/t (knots added as edges) up to
    X = 200 max(Omega, 1/t); beyond X, sin^2 is replaced by its mean 1/2,
    which leaves an error below 1e-8 of Gamma1 here.
    """
    lw, ls = np.log(omegas), np.log(dens)

    def S(w):
        out = np.exp(np.interp(np.log(np.maximum(w, omegas[0])), lw, ls))
        out[w < omegas[0]] = low
        out[w > omegas[-1]] = high
        return out

    x, wts = np.polynomial.legendre.leggauss(16)
    result = []
    for t in times:
        X = 200.0 * max(OMEGA, 1.0 / t)
        edges = np.union1d(np.arange(0.0, X, math.pi / t), omegas[omegas < X])
        edges = np.append(edges, X)
        lo, hi = edges[:-1, None], edges[1:, None]
        w = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        eta = lambda y: (t / (2 * math.pi)) * np.sinc(y * t / (2 * math.pi)) ** 2
        f = S(w) * 0.25 * t * (eta(OMEGA - w) + eta(OMEGA + w))
        inner = float((0.5 * (hi - lo) * (f * wts)).sum())
        grid = np.geomspace(X, 1e4 * X, 4001)
        g = S(grid) * 0.25 / math.pi * (1 / (grid - OMEGA) ** 2 + 1 / (grid + OMEGA) ** 2)
        outer = float(np.trapezoid(g * grid, np.log(grid)))
        Y = grid[-1]
        tail = high * 0.25 / math.pi * (1 / (Y - OMEGA) + 1 / (Y + OMEGA))
        result.append(2.0 * (inner + outer + tail))
    return np.array(result)


# --------------------------------------------------------------------- #
# checks

def _check_ingest(run_dir, plan):
    data = _read_csv(run_dir / "ingested" / "psd_normalized.csv")
    w, s = ingested_table(plan["seed"])
    if data.shape != (w.size, 2):
        return False, f"ingested table has shape {data.shape}, expected {(w.size, 2)}"
    err = max(np.abs(data[:, 0] / w - 1).max(), np.abs(data[:, 1] / s - 1).max())
    return err <= INGEST_RTOL, f"max relative error {err:.2e}"


def _check_filtered(run_dir, plan):
    data = _read_csv(run_dir / "out_predict" / "filtered_integrals.csv")
    if plan["tabulated"]:
        ing = json.loads((run_dir / "ingested" / "psd_normalized.json").read_text())
        table = _read_csv(run_dir / "ingested" / "psd_normalized.csv")
        ref = gamma1_oracle(table[:, 0], table[:, 1], ing["low_plateau"],
                            ing["high_plateau"], data[:, 0])
        err = float(np.abs(data[:, 1] / ref - 1).max())
        return err <= GAMMA1_RTOL, f"Gamma1 max relative error {err:.2e}"
    ref_path = REFERENCE / f"ou_filtered_integrals_n{data.shape[0]}.csv"
    if not ref_path.exists():
        return False, f"no reference {ref_path.name}"
    ref = _read_csv(ref_path)
    scale = np.maximum(np.abs(ref).max(axis=0), 1e-300)
    err = float((np.abs(data - ref) / scale).max())
    return err <= FILTERED_RTOL, f"max error {err:.2e} of column max"


def _check_sweep(run_dir, plan):
    data = _read_csv(run_dir / "out_predict" / "pi_pulse_sweep.csv")
    falls = bool(np.all(np.diff(data[:, 1]) < 0))
    return falls, "pi-pulse eps_nm falls monotonically" if falls else f"not monotone: {data[:, 1]}"


def _check_validate(run_dir, plan):
    report = json.loads((run_dir / "out_validate" / "validation_report.json").read_text())
    avg = report["time_averaged"]
    if plan["workload"] == "ou-validate":
        ok = avg["D"] > avg["PT"] > avg["NC"]
        return ok, f"time-averaged D={avg['D']:.3e} PT={avg['PT']:.3e} NC={avg['NC']:.3e}"
    ok = all(0.0 <= v <= 1.0 for v in avg.values())
    return ok, f"time-averaged infidelities {avg}"


def _check_ncp(ncp_result):
    times, ncp = ncp_result
    floor = -NCP_RTOL * float(np.abs(ncp).max())
    ok = times[0] == 0.0 and ncp[0] == 0.0 and bool(np.all(np.diff(ncp) >= floor))
    return ok, (f"N_CP(0)={ncp[0]:.2e}, min increment {np.diff(ncp).min():.2e}, "
                f"max N_CP {np.abs(ncp).max():.2e}")


def _true_integrals(run_dir, tabulated, times):
    """Filtered integrals of the noise the step used: closed-form OU, or the
    ingested table through the frequency-domain quadrature (not timed here)."""
    from gatenoise.filters import filtered_integrals, ou_filtered_integrals
    from gatenoise.psd import NoisePsd

    if tabulated:
        ing = run_dir / "ingested"
        psd = NoisePsd.from_files(ing / "psd_normalized.csv", ing / "psd_normalized.json")
        return filtered_integrals(psd, OMEGA, times)
    return ou_filtered_integrals(OU_C, OU_TAU, OMEGA, times)


def _true_chi(run_dir, tabulated, times):
    from gatenoise.channels import chi_full

    fi = _true_integrals(run_dir, tabulated, times)
    return [chi_full(fi.at(i), OMEGA, t).matrix for i, t in enumerate(times)]


def _chi(obj):
    if isinstance(obj, dict):
        return np.array(obj["re"]) + 1j * np.array(obj["im"])
    return np.array(obj)


def _check_tomography_counts(run_dir, plan):
    entries = json.loads((run_dir / "out_tomography_counts" / "tomography.json").read_text())
    times = counts_times(plan["sizes"]["tomography_counts"]["times"])
    if len(entries) != len(times):
        return False, f"{len(entries)} records for {len(times)} times"
    worst_mle = worst_mh = 0.0
    # the counts CSV is always sampled from the OU channel
    for entry, t, chi in zip(entries, times, _true_chi(run_dir, False, times)):
        truth = gate_error_of_chi(chi, t)
        worst_mle = max(worst_mle, abs(gate_error_of_chi(_chi(entry["mle_chi"]), t) - truth))
        worst_mh = max(worst_mh, abs(entry["mh"]["mean_error"] - truth))
    ok = worst_mle <= MLE_ATOL and worst_mh <= MH_ATOL
    return ok, f"max |MLE - truth| {worst_mle:.2e}, max |MH mean - truth| {worst_mh:.2e}"


def _check_tomography_synth(run_dir, plan):
    entries = json.loads((run_dir / "out_tomography_synth" / "tomography.json").read_text())
    times = [e["t"] for e in entries]
    worst = worst_truth = 0.0
    for entry, chi in zip(entries, _true_chi(run_dir, plan["tabulated"], times)):
        truth = gate_error_of_chi(chi, entry["t"])
        worst_truth = max(worst_truth, abs(entry["true_gate_error"] - truth))
        worst = max(worst, abs(entry["mle_mean"] - truth))
    ok = worst <= SYNTH_ATOL and worst_truth <= TRUTH_ATOL
    return ok, f"max |mean MLE - truth| {worst:.2e}, reported truth off by {worst_truth:.1e}"


def _check_rb(run_dir, plan):
    from gatenoise.channels import pauli_twirl

    fit = json.loads((run_dir / "out_rb" / "rb_fit.json").read_text())
    t_pi = math.pi / OMEGA
    point = _true_integrals(run_dir, plan["tabulated"], [t_pi]).at(0)
    lam = rb_lambda(pauli_twirl(point, t_pi))
    err = abs(fit["lambda"] - lam)
    tol = RB_ATOL + 0.12 / math.sqrt(plan["sizes"]["rb"]["n_seq"])
    return err <= tol, f"lambda {fit['lambda']:.6f} vs {lam:.6f}"


def check_all(run_dir, plan, ncp_result):
    """Run every check; yields (name, ok, detail).  A crash fails the check."""
    run_dir = Path(run_dir)
    checks = [("ingest", lambda: _check_ingest(run_dir, plan)),
              ("filtered_integrals", lambda: _check_filtered(run_dir, plan))]
    if plan["sizes"]["predict"]["sweep"]:
        checks.append(("pi_pulse_sweep", lambda: _check_sweep(run_dir, plan)))
    checks += [
        ("validate", lambda: _check_validate(run_dir, plan)),
        ("ncp", lambda: _check_ncp(ncp_result)),
        ("tomography_counts", lambda: _check_tomography_counts(run_dir, plan)),
        ("tomography_synth", lambda: _check_tomography_synth(run_dir, plan)),
        ("rb", lambda: _check_rb(run_dir, plan)),
    ]
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:  # missing or malformed output fails the check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        yield name, bool(ok), detail
