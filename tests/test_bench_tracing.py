"""The traced benchmark wraps functions at the names ``gatenoise.cli`` binds
(bench/tracing.py).  A renamed or dropped import there crashes every traced
benchmark run, so every wrapped name is checked, and the tracer is installed,
exercised and removed here too."""

import importlib.util
import json
from pathlib import Path

import numpy as np

import gatenoise.cli as cli
from gatenoise.psd import NoisePsd
from gatenoise.tomography import born_probs, default_setup, sample_shots
from oracles import counts_to_csv

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped_names(tracing):
    """The names ``tracing.instrument`` wraps on ``gatenoise.cli``, noted by a
    tracer whose ``install`` records instead of wrapping."""
    names = []

    class Recorder(tracing.Tracer):
        def install(self, owner, attr, name, **kwargs):
            if owner is cli:
                names.append(attr)

    tracing.instrument(Recorder("names"))
    return names


def test_every_wrapped_name_is_bound_on_cli():
    tracing = _load_tracing()
    names = _wrapped_names(tracing)
    assert set(tracing.BUILDERS) <= set(names)
    assert [name for name in names if not callable(getattr(cli, name, None))] == []


def test_tracer_instruments_cli_and_uninstalls(tmp_path):
    tracing = _load_tracing()
    originals = {name: getattr(cli, name) for name in _wrapped_names(tracing)}
    # a tabulated amplitude PSD: an all-OU job takes the closed forms, and
    # the quadrature, whose name the tracer wraps, would not run
    omegas = np.geomspace(10.0, 1e5, 20)
    NoisePsd.tabulated(omegas, 1e3 / (1.0 + (omegas * 5e-4) ** 2), 1e3, 0.0).to_files(
        tmp_path / "amp.csv", tmp_path / "amp.json")
    cfg = {
        "drive": {"omega_rad_s": 400.0, "t_max_s": 0.004, "n_times": 2},
        "noise": {"psd": {"kind": "ou", "c": 1.6e9, "tau_c": 5e-4},
                  "amplitude_psd": {"kind": "tabulated", "csv": "amp.csv",
                                    "sidecar": "amp.json"}},
        "simulation": {"m_mc": 20, "seed": 3, "dt_s": 1e-4},
        "validation": {"n_haar": 5},
        "outputs": {"dir": str(tmp_path / "out")},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    tracer = tracing.Tracer("tier-1")
    tracing.instrument(tracer)
    try:
        assert all(getattr(cli, name) is not f for name, f in originals.items())
        with tracer.span("step.validate"):
            assert cli.main(["validate", "--config", str(cfg_path)]) == 0
    finally:
        tracer.uninstall()
    assert all(getattr(cli, name) is f for name, f in originals.items())
    metrics, accounting = tracing.layer_metrics(tracer)
    # 20 steps of 1e-4 s per 2e-3 s grid interval, two intervals
    assert metrics["langevin.ensembles"] == 1
    assert metrics["langevin.traj_steps"] == 20 * 40
    # the draw counter reads increments_block's (indices, n_steps) arguments
    assert metrics["noise.ou.draws"] == 20 * 40
    assert metrics["noise.fourier.draws"] == 20 * 40
    assert metrics["filters.time_points"] == 2
    # one call per model (D, PT, NC, NM) for every time and Haar state
    assert metrics["channels.apply_calls"] == 4
    assert set(accounting) == {"step.validate"}


def test_tracer_counts_the_chain_steps_of_a_counts_tomography(tmp_path):
    """``tomography --counts`` with the chain on: one batched MLE call and one
    ``mh_chain`` call per record, each read by the tracer's hook."""
    tracing = _load_tracing()
    n_records, n_steps = 3, 600
    rng = np.random.default_rng(5)
    probs = born_probs(np.diag([0.9, 0.05, 0.0, 0.05]).astype(complex), default_setup())
    counts = tmp_path / "counts.csv"
    counts_to_csv([sample_shots(probs, 100, rng, t=1e-4 * (k + 1)) for k in range(n_records)],
                  counts)
    cfg = {
        "drive": {"omega_rad_s": 400.0, "t_max_s": 0.004, "n_times": 2},
        "noise": {"psd": {"kind": "ou", "c": 1.6e9, "tau_c": 5e-4}},
        "simulation": {"seed": 3},
        "tomography": {"run_chain": True, "chain_steps": n_steps},
        "outputs": {"dir": str(tmp_path / "out")},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    tracer = tracing.Tracer("tier-1")
    tracing.instrument(tracer)
    try:
        with tracer.span("step.tomography_counts"):
            assert cli.main(["tomography", "--config", str(cfg_path),
                             "--counts", str(counts)]) == 0
    finally:
        tracer.uninstall()
    metrics, _ = tracing.layer_metrics(tracer)
    assert metrics["tomography.mh_steps"] == n_records * n_steps
    assert metrics["tomography.mle_fits"] == 1
    assert 0.0 < metrics["tomography.mh_acceptance"] < 1.0
