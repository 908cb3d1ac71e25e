"""The traced benchmark wraps functions at the names ``gatenoise.cli`` binds
(bench/tracing.py).  A renamed or dropped import there crashes every traced
benchmark run, so the tracer is installed, exercised and removed here too."""

import importlib.util
import json
from pathlib import Path

import gatenoise.cli as cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
WRAPPED = ("filtered_integrals", "evolve_ensemble", "apply_chi", "apply_kraus",
           "state_fidelity", "rotate_to_lab", "avg_gate_fidelity", "haar_random_state",
           "mle_fit", "mh_chain", "rb_simulate", "born_probs")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_instruments_cli_and_uninstalls(tmp_path):
    tracing = _load_tracing()
    originals = {name: getattr(cli, name) for name in WRAPPED}
    cfg = {
        "drive": {"omega_rad_s": 400.0, "t_max_s": 0.004, "n_times": 2},
        "noise": {"psd": {"kind": "ou", "c": 1.6e9, "tau_c": 5e-4}},
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
    assert metrics["filters.time_points"] == 2
    assert metrics["channels.apply_calls"] == 2 * 4
    assert set(accounting) == {"step.validate"}
