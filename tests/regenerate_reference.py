"""Pinned outputs of the five pipelines, and the script that regenerates them.

``run_pipelines(directory)`` writes small seeded inputs with
``bench/workloads.py`` (its measured-psd workload: a raw Hz table, a counts
file and the step configs, shrunk below) and runs every command through
``cli.main`` with the working directory set to ``directory``:

* ``ingest-psd`` of the raw table, whose output is the dephasing noise of the
  base jobs: ``predict`` with an ``omega_sweep``, ``validate``, ``tomography``
  on the counts file and on synthetic data (each with its chain) and ``rb``;
* the same steps with OU dephasing plus an OU ``noise.amplitude_psd``;
* ``predict``, ``validate`` and ``rb`` with the ingested table as both the
  dephasing and the amplitude PSD.

Every path in a config is relative, so no directory of the run enters a
manifest.  ``tests/test_pinned_outputs.py`` compares every file written
with the committed copy under ``tests/reference/``, byte for byte.

A change that moves outputs on purpose regenerates the reference with

    PYTHONPATH=src python tests/regenerate_reference.py

and lists each changed file and its largest change in ``CHANGES.md``.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

import gatenoise.cli as cli
from gatenoise.errors import TuningWarning

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = Path(__file__).resolve().parent / "reference"
VERSIONS = "versions.json"   # the numpy and Python the reference was written with
SEED = 402

# per step, the config entries that replace the workload's (section, key): value
SIZES = {
    "predict": {("drive", "n_times"): 4,
                ("omega_sweep", "omega_min"): 2.0e3, ("omega_sweep", "omega_max"): 2.0e6,
                ("omega_sweep", "n"): 3},
    "validate": {("drive", "n_times"): 3, ("simulation", "m_mc"): 16,
                 ("validation", "n_haar"): 6},
    "tomography_counts": {("tomography", "chain_steps"): 200},
    "tomography_synth": {("drive", "n_times"): 2, ("tomography", "repetitions"): 3,
                         ("tomography", "shots_per_basis"): 300,
                         ("tomography", "run_chain"): True, ("tomography", "chain_steps"): 200},
    "rb": {("rb", "n_seq"): 4, ("rb", "shots"): 50, ("rb", "max_length"): 16},
}
TABLE = {"kind": "tabulated", "csv": "ingested/psd_normalized.csv",
         "sidecar": "ingested/psd_normalized.json"}
# job suffix -> (noise section, steps)
AMPLITUDE_JOBS = {
    "amp_ou": ({"psd": {"kind": "ou", "c": 1.6e9, "tau_c": 5e-4},
                "amplitude_psd": {"kind": "ou", "c": 4e8, "tau_c": 2e-4}},
               ("predict", "validate", "tomography_synth", "rb")),
    "amp_table": ({"psd": TABLE, "amplitude_psd": TABLE}, ("predict", "validate", "rb")),
}


def _workloads():
    spec = importlib.util.spec_from_file_location("_pinned_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_configs(directory):
    """Shrink the workload's step configs; add the amplitude jobs' configs.
    Returns the (output directory, argv) pairs in run order."""
    runs = [("ingested", ["ingest-psd", "raw_psd.csv", "raw_psd.json", "--out", "ingested"])]
    configs = {}
    for step, sizes in SIZES.items():
        cfg = json.loads((directory / f"cfg_{step}.json").read_text())
        for (section, key), value in sizes.items():
            cfg.setdefault(section, {})[key] = value
        configs[step] = cfg
    jobs = [(step, configs[step]) for step in SIZES]
    for suffix, (noise, steps) in AMPLITUDE_JOBS.items():
        for step in steps:
            cfg = json.loads(json.dumps(configs[step]))
            cfg["noise"] = noise
            jobs.append((f"{step}_{suffix}", cfg))
    for job, cfg in jobs:
        cfg["outputs"]["dir"] = f"out_{job}"
        name = f"cfg_{job}.json"
        (directory / name).write_text(json.dumps(cfg, indent=1) + "\n")
        argv = ["tomography" if job.startswith("tomography") else job.split("_amp")[0],
                "--config", name]
        if job == "tomography_counts":
            argv += ["--counts", "counts.csv"]
        runs.append((cfg["outputs"]["dir"], argv))
    return runs


def run_pipelines(directory):
    """Write the inputs into ``directory``, run every job there and return the
    output files as {path relative to ``directory``: bytes}."""
    directory = Path(directory)
    _workloads().write_inputs(directory, "measured-psd", SEED, scale=0.1)
    runs = _write_configs(directory)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for out, argv in runs:
            # short chains miss the tuning target; the outputs still pin them
            with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
                warnings.simplefilter("ignore", TuningWarning)
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"{' '.join(argv)} exited {code}")
    finally:
        os.chdir(cwd)
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for out, _ in runs for p in sorted((directory / out).iterdir())}


def versions():
    return {"numpy": np.__version__, "python": sys.version.split()[0]}


def main():
    with tempfile.TemporaryDirectory() as tmp:
        files = run_pipelines(tmp)
    shutil.rmtree(REFERENCE, ignore_errors=True)
    for rel, data in files.items():
        (REFERENCE / rel).parent.mkdir(parents=True, exist_ok=True)
        (REFERENCE / rel).write_bytes(data)
    (REFERENCE / VERSIONS).write_text(json.dumps(versions(), indent=1) + "\n")
    print(f"wrote {len(files)} files, {sum(map(len, files.values()))} bytes, to {REFERENCE}")


if __name__ == "__main__":
    main()
