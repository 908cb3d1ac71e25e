"""The benchmark writes its inputs (bench/workloads.py) and checks its outputs
(bench/checks.py) with calls into the package: ``chi_full(point, Omega, t)``,
its ``.matrix``, ``born_probs(chi, setup)`` and ``pauli_twirl(point, t_pi)``.
A changed signature there fails every benchmark run, so both files are
loaded and exercised here on a tomography-rb run (its counts file, its counts
and synthetic tomography and its rb checks)."""

import contextlib
import importlib.util
import io
import sys
import warnings
from pathlib import Path

import numpy as np

import gatenoise.cli as cli
from gatenoise.errors import TuningWarning
from gatenoise.tomography import counts_from_csv

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)   # checks.py imports workloads
    spec.loader.exec_module(module)
    return module


def test_bench_counts_file_parses(tmp_path, monkeypatch):
    workloads = _load("workloads", monkeypatch)
    plan = workloads.write_inputs(tmp_path, "tomography-rb", 3, scale=0.1)
    records = counts_from_csv(tmp_path / "counts.csv")
    n_times, shots = (plan["sizes"]["tomography_counts"][k] for k in ("times", "shots"))
    assert [rec.t for rec in records] == workloads.counts_times(n_times)
    assert all(np.all(rec.shots == shots) for rec in records)


def test_bench_checks_pass_on_counts_and_synthetic_tomography_and_rb(tmp_path, monkeypatch):
    plan = _load("workloads", monkeypatch).write_inputs(tmp_path, "tomography-rb", 3)
    checks = _load("checks", monkeypatch)
    for step, extra in (("tomography_counts", ["--counts", str(tmp_path / "counts.csv")]),
                        ("tomography_synth", []), ("rb", [])):
        argv = ["tomography" if step.startswith("tomography") else step,
                "--config", str(tmp_path / f"cfg_{step}.json"),
                "--out", str(tmp_path / f"out_{step}"), *extra]
        # the bench does not turn a chain's TuningWarning into an error
        with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("ignore", TuningWarning)
            assert cli.main(argv) == 0
    for check in (checks._check_tomography_counts, checks._check_tomography_synth,
                  checks._check_rb):
        ok, detail = check(tmp_path, plan)
        assert ok, detail
