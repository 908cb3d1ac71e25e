"""Seeded inputs and step lists of the three benchmark workloads.

Every workload runs the same timed steps, in the paper's pipeline order:
``ingest-psd`` of a measured table (counted in the wall time only), then
``predict``, ``validate``, ``ncp`` (N_CP of the ingested table through
``channels.nm_measure``, which has no CLI command), ``tomography_counts``,
``tomography_synth`` and ``rb``.  The workloads differ in the noise the other
steps use and in which step carries the weight:

* ``ou-validate``: OU noise; ``validate`` is large, the other steps light.
* ``measured-psd``: the ingested table is the noise of every step;
  ``predict`` with a Rabi sweep, ``validate`` through the Fourier noise
  route and ``ncp`` are large.
* ``tomography-rb``: OU noise; both tomography steps and ``rb`` are large.

A step outside a workload's focus runs at a light size so that its time is
still measured (every end-to-end metric exists on every workload) while it
stays a small share of the workload's wall time.  ``write_inputs`` is the
only place the seed enters: the program receives only the files it writes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

STEPS = ("predict", "validate", "ncp", "tomography_counts", "tomography_synth", "rb")
WORKLOADS = ("ou-validate", "measured-psd", "tomography-rb")

# Drive and OU noise of criterion 4: Omega tau_c = 2, two Rabi flops.
OMEGA = 4000.0
OU_C = 1.6e9
OU_TAU = 5e-4
T_MAX = 4.0 * math.pi / OMEGA
DT = 2e-6

# Light sizes for steps outside a workload's focus.  ``reps`` repeats a short
# step inside one process; the step's time is the median over the repeats.
LIGHT = {
    "predict": {"n_times": 10, "sweep": 0, "reps": 5},
    "validate": {"n_times": 4, "m_mc": 200, "n_haar": 20, "t_max": T_MAX / 4, "reps": 1},
    "ncp": {"n_grid": 24, "reps": 3},
    "tomography_counts": {"times": 1, "shots": 1000, "chain_steps": 1500, "reps": 2},
    "tomography_synth": {"n_times": 1, "repetitions": 4, "shots": 2000, "reps": 4},
    "rb": {"n_seq": 8, "shots": 200, "max_length": 64, "reps": 8},
}

# Focus sizes, per workload; each focus step runs once.
FOCUS = {
    "ou-validate": {
        "validate": {"n_times": 25, "m_mc": 600, "n_haar": 150, "t_max": T_MAX, "reps": 1},
    },
    "measured-psd": {
        "predict": {"n_times": 50, "sweep": 30, "reps": 1},
        "validate": {"n_times": 10, "m_mc": 200, "n_haar": 80, "t_max": T_MAX, "reps": 1},
        "ncp": {"n_grid": 300, "reps": 1},
    },
    "tomography-rb": {
        "tomography_counts": {"times": 4, "shots": 1000, "chain_steps": 2500, "reps": 1},
        "tomography_synth": {"n_times": 4, "repetitions": 15, "shots": 2000, "reps": 1},
        "rb": {"n_seq": 50, "shots": 200, "max_length": 1024, "reps": 1},
    },
}

# The synthetic-tomography step keeps one simulation seed for every --seed:
# mle_fit draws its random restart from the config seed and reuses it for
# every fit of the step, so the step's cost moves by +-40% from seed to seed
# (see NOTES.md).  Its shots are still drawn afresh in each fit.
SYNTH_SEED = 20240222


def sizes(workload, scale=1.0):
    """Step sizes for a workload; ``scale`` < 1 shrinks them for smoke tests."""
    out = {}
    for step in STEPS:
        size = dict(LIGHT[step], **FOCUS[workload].get(step, {}))
        for key in ("m_mc", "n_haar", "chain_steps", "repetitions", "n_seq", "n_grid",
                    "sweep", "max_length"):
            if size.get(key):
                size[key] = max(4, int(size[key] * scale))
        out[step] = size
    return out


# --------------------------------------------------------------------- #
# measured PSD table

BAND_HZ = (2.0e3, 5.0e3)


def psd_table(seed):
    """Seeded synthetic one-sided-Hz PSD table with a declared servo bump.

    Lorentzian + 1/f + high plateau, with seeded 3% per-knot measurement
    scatter and a bump of seeded height inside the excluded band.
    Returns (freqs_hz, s_one_sided, sidecar).
    """
    rng = np.random.default_rng([seed, 1])
    f = np.geomspace(1.0, 2.0e4, 200)
    plateau = 0.05
    s = 600.0 / (1.0 + (f / 300.0) ** 2) + 2000.0 / f + plateau
    s *= np.exp(0.03 * rng.standard_normal(f.size))
    band = (f > BAND_HZ[0]) & (f < BAND_HZ[1])
    s[band] += rng.uniform(30.0, 80.0)
    sidecar = {
        "units": "hz_one_sided",
        "low_plateau": float(s[0]),
        "high_plateau": plateau,
        "excluded_bands": [list(BAND_HZ)],
    }
    return f, s, sidecar


def ingested_table(seed):
    """The two-sided rad/s table ingestion must produce (the check's oracle)."""
    f, s, sidecar = psd_table(seed)
    lo, hi = sidecar["excluded_bands"][0]
    keep = ~((f > lo) & (f < hi))
    return 2.0 * math.pi * f[keep], s[keep] / 2.0


def _write_psd(directory, seed):
    f, s, sidecar = psd_table(seed)
    with open(directory / "raw_psd.csv", "w") as fh:
        fh.write("freq_hz,psd_one_sided\n")
        for fi, si in zip(f, s):
            fh.write(f"{float(fi)!r},{float(si)!r}\n")
    (directory / "raw_psd.json").write_text(json.dumps(sidecar, indent=1) + "\n")


# --------------------------------------------------------------------- #
# counts CSV

STATE_LABELS = ("plus", "plus_i", "zero", "one")
BASIS_LABELS = ("x", "y", "z")


def counts_times(n):
    """Evolution times of the counts CSV: spread over the two Rabi flops."""
    return [T_MAX * (k + 1) / n for k in range(n)]


def _write_counts(path, seed, n_times, shots):
    """Sample a counts CSV from the OU channel ``chi_full`` at ``n_times``.

    Times are written as plain floats, the way an experiment's file is.
    """
    from gatenoise.channels import chi_full
    from gatenoise.filters import ou_filtered_integrals
    from gatenoise.tomography import born_probs, default_setup

    rng = np.random.default_rng([seed, 2])
    times = counts_times(n_times)
    fi = ou_filtered_integrals(OU_C, OU_TAU, OMEGA, times)
    setup = default_setup()
    with open(path, "w") as fh:
        fh.write("state,basis,time_s,n_plus,n_minus\n")
        for i, t in enumerate(times):
            probs = born_probs(chi_full(fi.at(i), OMEGA, t), setup)
            for s, sl in enumerate(STATE_LABELS):
                for b, bl in enumerate(BASIS_LABELS):
                    p_plus = float(np.clip(3.0 * probs[s, b, 0], 0.0, 1.0))
                    n_plus = int(rng.binomial(shots, p_plus))
                    fh.write(f"{sl},{bl},{float(t)!r},{n_plus},{shots - n_plus}\n")


# --------------------------------------------------------------------- #
# configs

def _config(psd_spec, seed, drive_n_times, out_name, t_max=T_MAX, **sections):
    cfg = {
        "drive": {"omega_rad_s": OMEGA, "t_max_s": t_max, "n_times": drive_n_times},
        "noise": {"psd": psd_spec},
        "simulation": {"seed": seed, "dt_s": DT},
        "outputs": {"dir": out_name},
    }
    cfg.update(sections)
    return cfg


def write_inputs(directory, workload, seed, scale=1.0):
    """Write every input file of one workload run into ``directory``.

    Returns the plan (workload, seed, step sizes), also written as plan.json.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    seed = int(seed) % 2**31
    size = sizes(workload, scale)
    _write_psd(directory, seed)
    if workload == "measured-psd":
        psd_spec = {"kind": "tabulated", "csv": "ingested/psd_normalized.csv",
                    "sidecar": "ingested/psd_normalized.json"}
    else:
        psd_spec = {"kind": "ou", "c": OU_C, "tau_c": OU_TAU}

    configs = {}
    p = size["predict"]
    extra = {}
    if p["sweep"]:
        extra["omega_sweep"] = {"omega_min": 2.0e3, "omega_max": 2.0e6, "n": p["sweep"]}
    configs["predict"] = _config(psd_spec, seed, p["n_times"], "out_predict",
                                 **extra)
    v = size["validate"]
    cfg = _config(psd_spec, seed, v["n_times"], "out_validate", t_max=v["t_max"],
                  validation={"n_haar": v["n_haar"]})
    cfg["simulation"]["m_mc"] = v["m_mc"]
    configs["validate"] = cfg
    tc = size["tomography_counts"]
    configs["tomography_counts"] = _config(
        psd_spec, seed, 1, "out_tomography_counts",
        tomography={"chain_steps": tc["chain_steps"], "run_chain": True},
    )
    ts = size["tomography_synth"]
    configs["tomography_synth"] = _config(
        psd_spec, SYNTH_SEED, ts["n_times"], "out_tomography_synth",
        tomography={"repetitions": ts["repetitions"], "shots_per_basis": ts["shots"],
                    "run_chain": False},
    )
    r = size["rb"]
    configs["rb"] = _config(psd_spec, seed, 1, "out_rb",
                            rb={"n_seq": r["n_seq"], "shots": r["shots"],
                                "max_length": r["max_length"]})
    for step, cfg in configs.items():
        (directory / f"cfg_{step}.json").write_text(json.dumps(cfg, indent=1) + "\n")
    _write_counts(directory / "counts.csv", seed, tc["times"], tc["shots"])
    plan = {"workload": workload, "seed": seed,
            "sizes": size, "tabulated": workload == "measured-psd"}
    (directory / "plan.json").write_text(json.dumps(plan, indent=1) + "\n")
    return plan
