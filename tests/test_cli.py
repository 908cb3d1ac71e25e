import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gatenoise.channels import (
    PAULIS,
    chi_nm,
    depolarizing_chi,
    depolarizing_rate,
    drive_unitary,
    gate_error,
    haar_random_state,
    kraus_nc,
    pauli_chi,
    pauli_twirl,
)
from gatenoise import _quadrature, cli
from gatenoise.cli import build_psds, load_config, main, run_validation, time_grid
from gatenoise.errors import NumericalError
from gatenoise.filters import filtered_integrals, ou_amplitude_integral, ou_filtered_integrals
from gatenoise.langevin import evolve_ensemble
from gatenoise.psd import NoisePsd
from gatenoise.tomography import BASIS_LABELS, STATE_LABELS, ChiPosterior, CountRecord
from oracles import counts_to_csv

TAU = 5e-4
OU_PSD = {"kind": "ou", "c": 2.0 / (10.0 * TAU**3), "tau_c": TAU}


def write_config(path, **overrides):
    cfg = {
        "drive": {"omega_rad_s": 1.0 / (5.0 * TAU), "t_max_s": 0.01, "n_times": 5},
        "noise": {"psd": OU_PSD},
        "simulation": {"m_mc": 600, "seed": 7},
        "tomography": {"shots_per_basis": 60, "repetitions": 3, "chain_steps": 2000,
                       "run_chain": False},
        "rb": {"n_seq": 8, "shots": 40, "max_length": 64},
        "validation": {"n_haar": 50},
        "outputs": {"dir": str(Path(path).parent / "out")},
    }
    for key, value in overrides.items():
        section, _, field = key.partition(".")
        if field:
            cfg.setdefault(section, {})[field] = value
        else:
            cfg[section] = value
    Path(path).write_text(json.dumps(cfg, indent=1))
    return cfg


def test_missing_seed_is_validation_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, simulation={"m_mc": 10})
    assert main(["predict", "--config", str(cfg_path)]) == 2
    assert "seed" in capsys.readouterr().err


def test_missing_psd_file_is_validation_error(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, noise={"psd": {"kind": "tabulated", "csv": "nope.csv",
                                          "sidecar": "nope.json"}})
    assert main(["predict", "--config", str(cfg_path)]) == 2


def test_bad_drive_rejected(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, drive={"omega_rad_s": -1.0, "t_max_s": 1.0})
    assert main(["predict", "--config", str(cfg_path)]) == 2


def test_nonzero_drive_phase_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, drive={"omega_rad_s": 1.0 / (5.0 * TAU), "t_max_s": 0.01,
                                  "n_times": 5, "phi_rad": 1.0})
    assert main(["predict", "--config", str(cfg_path)]) == 2
    assert "phi_rad" in capsys.readouterr().err


def test_misspelled_section_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg = write_config(cfg_path)
    cfg["simulaton"] = cfg.pop("simulation")
    cfg_path.write_text(json.dumps(cfg))
    assert main(["predict", "--config", str(cfg_path), "--seed", "7"]) == 2
    assert "simulaton" in capsys.readouterr().err


def test_unknown_key_in_known_section_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, **{"drive.n_time": 3})
    assert main(["predict", "--config", str(cfg_path)]) == 2
    assert "drive.n_time" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value", [
    ("tomography", "tomography.chain_steps", 0),
    ("tomography", "tomography.proposal_width", -0.1),
    ("tomography", "tomography.repetitions", 0),
    ("tomography", "tomography.shots_per_basis", 0),
    ("validate", "validation.n_haar", 0),
    ("validate", "simulation.chunk", 0),
    ("validate", "simulation.m_mc", 10.5),
    ("predict", "drive.n_times", 2.5),
    ("rb", "rb.max_length", 1),
    ("rb", "rb.max_length", 3),
    ("rb", "rb.n_seq", 0),
    ("rb", "rb.n_seq", 1),
    ("rb", "rb.shots", 0),
    ("predict", "drive.omega_rad_s", "4000"),
    ("predict", "drive.omega_rad_s", math.nan),
    ("predict", "drive.t_max_s", math.inf),
    ("validate", "simulation.dt_s", 0),
    ("validate", "simulation.dt_s", -1e-6),
    ("predict", "simulation.seed", 1.5),
    ("validate", "simulation.seed", -1),
    ("tomography", "tomography.run_chain", "no"),
])
def test_out_of_range_setting_rejected(tmp_path, capsys, command, key, value):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, **{"tomography.run_chain": True, key: value})
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("section, body, message", [
    ("omega_sweep", {"omega_min": 1e3, "omega_max": 1e4}, "omega_sweep.n"),
    ("omega_sweep", {"omega_max": 1e4, "n": 3}, "omega_sweep.omega_min"),
    ("omega_sweep", {"omega_min": 1e4, "omega_max": 1e3, "n": 3}, "omega_min <= omega_max"),
    ("omega_sweep", {"omega_min": 0.0, "omega_max": 1e3, "n": 3}, "omega_min <= omega_max"),
    ("omega_sweep", {"omega_min": 1e3, "omega_max": 1e4, "n": 0}, "omega_sweep.n"),
    ("noise", {"psd": {"kind": "ou", "tau_c": TAU}}, "noise.psd of kind ou is missing c"),
    ("noise", {"psd": {"kind": "tabulated", "csv": "psd.csv"}}, "missing sidecar"),
    ("noise", {"psd": {"kind": "white"}}, "unknown PSD kind 'white'"),
    ("noise", {"psd": OU_PSD, "amplitude_psd": {"kind": "ou", "c": 1.0}},
     "noise.amplitude_psd of kind ou is missing tau_c"),
    ("noise", {"psd": {**OU_PSD, "c": "1"}}, "noise.psd.c"),
    ("noise", {"psd": {**OU_PSD, "tauc": TAU}}, "noise.psd.tauc"),
    ("noise", {"psd": OU_PSD, "amplitude_psd": {**OU_PSD, "scale": 2.0}},
     "noise.amplitude_psd.scale"),
])
def test_incomplete_section_rejected(tmp_path, capsys, section, body, message):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, **{section: body})
    assert main(["predict", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("given, twice, key", [
    ('"n_times": 5', '"n_times": 3, "n_times": 5', "'n_times'"),
    ('"rb": {', '"rb": {}, "rb": {', "'rb'"),
    ('"tau_c": ', '"tau_c": 1.0, "tau_c": ', "'tau_c'"),
], ids=["section-key", "section", "psd-spec-key"])
def test_a_config_key_given_twice_is_rejected(tmp_path, capsys, given, twice, key):
    cfg_path = tmp_path / "cfg.json"
    text = json.dumps(write_config(cfg_path))
    assert text.count(given) == 1
    cfg_path.write_text(text.replace(given, twice))
    assert main(["predict", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert f"{key} is given twice" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["a-file", "through-a-file"])
def test_an_out_path_that_cannot_be_a_directory_exits_2(tmp_path, capsys, where):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker if where == "a-file" else blocker / "a" / "b"
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    raw, sidecar = tmp_path / "raw.csv", tmp_path / "raw.json"
    raw.write_text("f,s\n10.0,1.0\n20.0,0.5\n")
    sidecar.write_text(GOOD_SIDECAR)
    for argv in (["predict", "--config", str(cfg_path)], ["ingest-psd", str(raw), str(sidecar)]):
        assert main([*argv, "--out", str(out)]) == 2
        assert f"cannot create output directory {out}" in capsys.readouterr().err
    assert blocker.is_file() and blocker.read_text() == ""


@pytest.mark.parametrize("text", [None, "{\"drive\": ", "[1, 2]"])
def test_unreadable_config_rejected(tmp_path, capsys, text):
    cfg_path = tmp_path / "cfg.json"
    if text is not None:
        cfg_path.write_text(text)
    assert main(["predict", "--config", str(cfg_path)]) == 2
    assert "validation error" in capsys.readouterr().err


def test_readme_example_and_schema_table_match_the_loader(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("Example config:\n\n```json\n")[1].split("```")[0]
    (tmp_path / "cfg.json").write_text(example)
    cfg = load_config(tmp_path / "cfg.json")
    for section, body in json.loads(example).items():
        assert {k: cfg[section][k] for k in body} == body
    rows = [line.split("|")[1:-1] for line in readme.splitlines() if line.startswith("| `")]
    table = {cells[0].strip(" `"): tuple(c.strip() for c in cells[1:]) for cells in rows}
    expected = {key: (kind,
                      ", ".join(bound) if isinstance(bound, tuple) else bound or "any",
                      default if isinstance(default, str) else json.dumps(default))
                for key, (kind, bound, default) in cli._SCHEMA.items()}
    assert table == expected


def test_predict_outputs_and_manifest(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out = tmp_path / "pred"
    assert main(["predict", "--config", str(cfg_path), "--out", str(out)]) == 0
    for name in ("filtered_integrals.csv", "error_curves.csv", "channels.json",
                 "manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert set(manifest["versions"]) == {"gatenoise", "numpy", "python"}


def test_predict_is_byte_reproducible(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["predict", "--config", str(cfg_path), "--out", str(out1)])
    main(["predict", "--config", str(cfg_path), "--out", str(out2)])
    for name in ("filtered_integrals.csv", "error_curves.csv", "channels.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_error_curves_pauli_columns_include_amplitude_noise(tmp_path):
    """With an amplitude PSD, the p_x, p_y, p_z columns of error_curves.csv
    are the Pauli rates of channels.json, amplitude noise included."""
    Omega, t_max = 4000.0, 1.05e-3
    ou = {"kind": "ou", "c": 5e8, "tau_c": 1e-3}
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, drive={"omega_rad_s": Omega, "t_max_s": t_max, "n_times": 3},
                 noise={"psd": ou, "amplitude_psd": ou})
    out = tmp_path / "pred"
    assert main(["predict", "--config", str(cfg_path), "--out", str(out)]) == 0
    table = np.loadtxt(out / "error_curves.csv", delimiter=",", skiprows=1)
    snapshots = json.loads((out / "channels.json").read_text())
    rates = [[snap["pauli_rates"][k] for k in ("px", "py", "pz")] for snap in snapshots]
    np.testing.assert_array_equal(table[:, 7:10], rates)
    # dephasing alone gives a p_x about 100 times smaller at t_max
    times = time_grid(load_config(cfg_path))
    dephasing = pauli_twirl(cli.job_integrals(NoisePsd.ou(5e8, 1e-3), Omega, times), times)
    assert table[-1, 7] > 10.0 * dephasing.px[-1]


@pytest.mark.parametrize("kind", ["ou", "tabulated"])
def test_pi_pulse_sweep_in_one_call_equals_per_omega_calls(kind):
    """``job_integrals`` with an Omega array aligned with the times gives, to
    the bit, the tuple of one call per Omega."""
    if kind == "ou":
        psd = NoisePsd.ou(OU_PSD["c"], TAU)
    else:
        omegas = np.geomspace(10.0, 1e7, 40)
        psd = NoisePsd.tabulated(omegas, 3e3 / (1.0 + (omegas * TAU) ** 2) + 0.5, 3e3, 0.5)
    amp_psd = NoisePsd.ou(1e6, TAU)
    omegas = np.geomspace(2e3, 2e6, 6)
    swept = cli.job_integrals(psd, omegas, math.pi / omegas, amp_psd)
    for k, om in enumerate(omegas):
        single = cli.job_integrals(psd, float(om), [math.pi / om], amp_psd)
        for name in ("times", "gamma1", "gamma2", "delta1", "delta2", "dgamma1"):
            assert getattr(swept, name)[k] == getattr(single, name)[0], (name, om)


def test_zero_noise_predict_gives_zero_errors(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, noise={"psd": {"kind": "ou", "c": 0.0, "tau_c": TAU}})
    out = tmp_path / "zero"
    assert main(["predict", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = (out / "error_curves.csv").read_text().strip().split("\n")[1:]
    for row in rows:
        values = [float(x) for x in row.split(",")[1:]]
        assert max(abs(v) for v in values) < 1e-14


def test_validate_reports_model_ordering(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out = tmp_path / "val"
    assert main(["validate", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads((out / "validation_report.json").read_text())
    avg = report["time_averaged"]
    # depolarizing is the worst description at these noisy parameters
    assert avg["D"] > avg["NM"]
    assert (out / "channel_infidelity.csv").exists()


def _complex(obj):
    return np.asarray(obj["re"]) + 1j * np.asarray(obj["im"])


@pytest.mark.parametrize("seed", [3, 5, 7])
def test_validation_scoring_matches_per_state_loop(tmp_path, seed):
    """Stacked Haar scoring equals a per-state loop over the same states,
    written here with explicit Pauli and Kraus sums."""
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, **{"simulation.seed": seed})
    cfg = load_config(cfg_path)
    psd, amp_psd = build_psds(cfg)
    n_haar = 50
    grid, infidelity, ensemble = run_validation(cfg, psd, amp_psd, n_haar=n_haar)
    cli._write_ensemble(tmp_path, grid, ensemble)
    snapshots = json.loads((tmp_path / "ensemble_states.json").read_text())
    Omega = cfg["drive"]["omega_rad_s"]
    fi = cli.job_integrals(psd, Omega, grid)
    rng = np.random.default_rng(cfg["simulation"]["seed"] + 99)
    haar = haar_random_state(rng, n_haar)

    for j, snap in enumerate(snapshots):
        t = snap["t"]
        e = {label: _complex(state) for label, state in snap["states"].items()}
        e01 = 0.5 * ((2 * e["plus"] - e["zero"] - e["one"])
                     + 1j * (2 * e["plus_i"] - e["zero"] - e["one"]))
        point = fi.at(j)
        U = drive_unitary(Omega, t)
        models = {
            "D": depolarizing_chi(depolarizing_rate(point)),
            "PT": pauli_chi(pauli_twirl(point)),
            "NC": kraus_nc(point, Omega, t),
            "NM": chi_nm(point),
        }
        for model, obj in models.items():
            total = 0.0
            for rho in haar:
                mc = (rho[0, 0] * e["zero"] + rho[1, 1] * e["one"]
                      + rho[0, 1] * e01 + rho[1, 0] * e01.conj().T)
                if model == "NC":
                    mapped = sum(K @ rho @ K.conj().T for K in obj)
                else:
                    mapped = sum(obj[a, b] * PAULIS[a] @ rho @ PAULIS[b]
                                 for a in range(4) for b in range(4))
                lab = U @ mapped @ U.conj().T
                fid = np.trace(lab @ mc).real + 2.0 * math.sqrt(
                    max(np.linalg.det(lab).real, 0.0) * max(np.linalg.det(mc).real, 0.0))
                total += 1.0 - min(max(fid, 0.0), 1.0)
            # 1 - F keeps about 1e-16 absolute per state: a few ulp of 1.0 as the floor
            assert infidelity[model][j] == pytest.approx(total / n_haar, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("t_max_s, n_times, dt_s, per", [
    (0.01, 5, 3e-4, 7),     # dt_s does not divide t_1 = 2e-3: 7 steps of 2.857e-4
    (1e-3, 10, 1e-6, 100),  # t_1 / dt_s rounds to 100.00000000000001: still 100 steps
])
def test_validate_steps_on_the_configured_grid(tmp_path, monkeypatch, t_max_s, n_times,
                                               dt_s, per):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, **{"drive.t_max_s": t_max_s, "drive.n_times": n_times,
                              "simulation.dt_s": dt_s, "simulation.m_mc": 50,
                              "validation.n_haar": 10})
    drives = []

    def recording(rho0, drive, *args, **kwargs):
        drives.append(drive)
        return evolve_ensemble(rho0, drive, *args, **kwargs)

    monkeypatch.setattr(cli, "evolve_ensemble", recording)
    out = tmp_path / "val"
    assert main(["validate", "--config", str(cfg_path), "--out", str(out)]) == 0
    times = time_grid(load_config(cfg_path))
    (drive,) = drives
    assert drive.dt <= dt_s
    assert drive.n_steps == per * times.size
    assert per * drive.dt == pytest.approx(times[0], rel=1e-15)
    table = np.loadtxt(out / "channel_infidelity.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(table[:, 0], times)
    snapshots = json.loads((out / "ensemble_states.json").read_text())
    np.testing.assert_array_equal([snap["t"] for snap in snapshots], times)
    for label in ("zero", "one", "plus", "plus_i"):
        rows = np.loadtxt(out / f"langevin_{label}.csv", delimiter=",", skiprows=1)
        assert rows.shape == (times.size + 1, 7)
        np.testing.assert_array_equal(rows[:, 0], np.append(0.0, times))


def _rows_text(header, rows):
    """CSV text as the removed per-module writers produced it: repr(float) rows."""
    lines = [header] + [",".join(repr(float(x)) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("with_amp", [False, True])
def test_filtered_integrals_csv_export(tmp_path, with_amp):
    cfg_path = tmp_path / "cfg.json"
    noise = {"psd": OU_PSD}
    if with_amp:
        noise["amplitude_psd"] = {"kind": "ou", "c": 1e6, "tau_c": TAU}
    write_config(cfg_path, noise=noise)
    out = tmp_path / "pred"
    assert main(["predict", "--config", str(cfg_path), "--out", str(out)]) == 0
    cfg = load_config(cfg_path)
    psd, amp_psd = build_psds(cfg)
    times = time_grid(cfg)
    Omega = cfg["drive"]["omega_rad_s"]
    # an all-OU job takes the closed forms, which the quadrature matches
    fi = cli.job_integrals(psd, Omega, times, amp_psd)
    np.testing.assert_array_equal(
        fi.gamma1, ou_filtered_integrals(OU_PSD["c"], TAU, Omega, times).gamma1)
    quad = filtered_integrals(psd, Omega, times, amp_psd=amp_psd)
    for name in ("gamma1", "gamma2", "delta1", "delta2") + ("dgamma1",) * with_amp:
        scale = np.abs(getattr(quad, name)).max()
        np.testing.assert_allclose(getattr(fi, name), getattr(quad, name), rtol=0,
                                   atol=1e-7 * scale)
    dg = fi.dgamma1 if with_amp else np.zeros(times.size)
    assert with_amp == bool(np.all(dg > 0))
    want = _rows_text("t,gamma1,gamma2,delta1,delta2,dgamma1",
                      zip(fi.times, fi.gamma1, fi.gamma2, fi.delta1, fi.delta2, dg))
    assert (out / "filtered_integrals.csv").read_text() == want
    assert len(want.strip().split("\n")) == times.size + 1


def test_filtered_integrals_csv_export_tabulated(tmp_path):
    # a job with a tabulated PSD takes the quadrature for the whole tuple
    omegas = np.geomspace(10.0, 1e6, 40)
    NoisePsd.tabulated(omegas, 3e3 / (1.0 + (omegas * TAU) ** 2) + 0.5, 3e3, 0.5).to_files(
        tmp_path / "psd.csv", tmp_path / "psd.json")
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, noise={
        "psd": {"kind": "tabulated", "csv": "psd.csv", "sidecar": "psd.json"},
        "amplitude_psd": {"kind": "ou", "c": 1e6, "tau_c": TAU}})
    out = tmp_path / "pred"
    assert main(["predict", "--config", str(cfg_path), "--out", str(out)]) == 0
    cfg = load_config(cfg_path)
    psd, amp_psd = build_psds(cfg)
    times = time_grid(cfg)
    fi = filtered_integrals(psd, cfg["drive"]["omega_rad_s"], times, amp_psd=amp_psd)
    want = _rows_text("t,gamma1,gamma2,delta1,delta2,dgamma1",
                      zip(fi.times, fi.gamma1, fi.gamma2, fi.delta1, fi.delta2, fi.dgamma1))
    assert (out / "filtered_integrals.csv").read_text() == want


def test_a_quadrature_that_cannot_converge_exits_3_without_a_manifest(tmp_path, monkeypatch,
                                                                       capsys):
    # Omega t = 3000 needs a few thousand panels: below the cap the adaptive
    # rule gives up, as a numerical failure, not a silent estimate
    omegas = np.geomspace(10.0, 1e6, 40)
    psd = NoisePsd.tabulated(omegas, 3e3 / (1.0 + (omegas * TAU) ** 2) + 0.5, 3e3, 0.5)
    psd.to_files(tmp_path / "psd.csv", tmp_path / "psd.json")
    filtered_integrals(psd, 1e4, [0.3])
    monkeypatch.setattr(_quadrature, "MAX_PANELS", 50)
    with pytest.raises(NumericalError, match="did not converge"):
        filtered_integrals(psd, 1e4, [0.3])
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, drive={"omega_rad_s": 1e4, "t_max_s": 0.3, "n_times": 1},
                 noise={"psd": {"kind": "tabulated", "csv": "psd.csv", "sidecar": "psd.json"}})
    out = tmp_path / "pred"
    assert main(["predict", "--config", str(cfg_path), "--out", str(out)]) == 3
    assert "did not converge" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_langevin_csv_export(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, **{"simulation.m_mc": 50, "validation.n_haar": 10})
    ensembles = []

    def recording(*args, **kwargs):
        ensembles.append(evolve_ensemble(*args, **kwargs))
        return ensembles[-1]

    monkeypatch.setattr(cli, "evolve_ensemble", recording)
    out = tmp_path / "val"
    assert main(["validate", "--config", str(cfg_path), "--out", str(out)]) == 0
    (ensemble,) = ensembles
    times = np.append(0.0, time_grid(load_config(cfg_path)))
    for k, label in enumerate(("zero", "one", "plus", "plus_i")):
        mean, se = ensemble.pauli_mean[k], ensemble.pauli_se[k]
        want = _rows_text("t,sx,sy,sz,se_sx,se_sy,se_sz",
                          ([t, *mean[i], *se[i]] for i, t in enumerate(times)))
        assert (out / f"langevin_{label}.csv").read_text() == want
        assert len(want.strip().split("\n")) == times.size + 1


def test_validation_report_carries_the_variance_ratio(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, **{"simulation.m_mc": 200, "validation.n_haar": 10})
    ensembles = []

    def recording(*args, **kwargs):
        ensembles.append(evolve_ensemble(*args, **kwargs))
        return ensembles[-1]

    monkeypatch.setattr(cli, "evolve_ensemble", recording)
    out = tmp_path / "val"
    assert main(["validate", "--config", str(cfg_path), "--out", str(out)]) == 0
    (ensemble,) = ensembles
    ratio = json.loads((out / "validation_report.json").read_text())["mc_variance_ratio"]
    # per grid time: plain variance over control-variate variance, each
    # averaged over the four basis states and three components
    plain = (ensemble.plain_se[:, 1:] ** 2).mean(axis=(0, 2))
    adjusted = (ensemble.pauli_se[:, 1:] ** 2).mean(axis=(0, 2))
    np.testing.assert_allclose(ratio, plain / adjusted, rtol=1e-15)
    assert len(ratio) == time_grid(load_config(cfg_path)).size
    # the fitted coefficient never loses more than the m / (m - p - 1) correction
    assert min(ratio) >= (200 - 2 - 1) / 200 * (1 - 1e-12)
    assert f"ratio (plain / control variate) {np.median(ratio):.3g}" in capsys.readouterr().out


def test_default_step_follows_the_shorter_amplitude_tau_c(tmp_path, monkeypatch):
    tau_amp = TAU / 5.0
    cfg_path = tmp_path / "cfg.json"
    drives = []

    class Stop(Exception):
        pass

    def recording(rho0, drive, *args, **kwargs):
        drives.append(drive)
        raise Stop

    monkeypatch.setattr(cli, "evolve_ensemble", recording)
    for amp in (None, {"kind": "ou", "c": 1e6, "tau_c": tau_amp}):
        noise = {"psd": OU_PSD} if amp is None else {"psd": OU_PSD, "amplitude_psd": amp}
        write_config(cfg_path, noise=noise)
        cfg = load_config(cfg_path)
        assert cfg["simulation"]["dt_s"] is None
        psd, amp_psd = build_psds(cfg)
        with pytest.raises(Stop):
            run_validation(cfg, psd, amp_psd, n_haar=1)
    without, with_amp = drives
    assert without.dt > 0.002 * tau_amp
    assert with_amp.dt <= 0.002 * tau_amp


def test_validate_identical_seeds_bitwise(tmp_path):
    # several chunks, so the second run's two threads really split the work
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, validation={"n_haar": 20}, **{"simulation.chunk": 128})
    out1, out2 = tmp_path / "v1", tmp_path / "v2"
    assert main(["validate", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["validate", "--config", str(cfg_path), "--out", str(out2),
                 "--threads", "2"]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    assert "channel_infidelity.csv" in names and "ensemble_states.json" in names
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_tomography_synthetic_and_counts_modes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, drive={"omega_rad_s": 1.0 / (5.0 * TAU),
                                  "t_max_s": 0.004, "n_times": 2})
    out = tmp_path / "tomo"
    assert main(["tomography", "--config", str(cfg_path), "--out", str(out)]) == 0
    results = json.loads((out / "tomography.json").read_text())
    assert len(results) == 2
    assert all("mle_mean" in entry for entry in results)

    # counts-file mode with a missing basis row fails validation
    bad = tmp_path / "bad_counts.csv"
    bad.write_text("state,basis,time_s,n_plus,n_minus\nplus,x,0.001,3,2\n")
    code = main(["tomography", "--config", str(cfg_path), "--out", str(out),
                 "--counts", str(bad)])
    assert code == 2


@pytest.mark.filterwarnings("error")
def test_synthetic_tomography_through_pi_pulses_fits_every_snapshot(tmp_path):
    # two Rabi flops at 4000 rad/s: the snapshots at pi pulses have chi_II -> 0,
    # where an ascent in the Cholesky entries stops 3 of these 60 fits at the
    # iteration cap
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, drive={"omega_rad_s": 4000.0, "t_max_s": math.pi / 1000.0,
                                  "n_times": 4},
                 noise={"psd": {"kind": "ou", "c": 1.6e9, "tau_c": 5e-4}},
                 simulation={"seed": 20240222},
                 **{"tomography.repetitions": 15, "tomography.shots_per_basis": 2000})
    out = tmp_path / "tomo"
    assert main(["tomography", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert len(json.loads((out / "tomography.json").read_text())) == 4


def test_tomography_chain_summary_and_byte_identical_reruns(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, drive={"omega_rad_s": 1.0 / (5.0 * TAU),
                                  "t_max_s": 0.004, "n_times": 1},
                 **{"tomography.run_chain": True, "tomography.repetitions": 2,
                    "tomography.proposal_width": 0.1})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["tomography", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["tomography", "--config", str(cfg_path), "--out", str(out2)]) == 0
    for name in ("tomography.json", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    mh = json.loads((out1 / "tomography.json").read_text())[0]["mh"]
    assert mh["proposal_width"] > 0.0
    assert 1.0 <= mh["effective_sample_size"] <= 2000 - 200


def test_tomography_counts_reruns_are_byte_identical(tmp_path):
    from gatenoise.tomography import born_probs, default_setup, sample_shots

    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, **{"tomography.run_chain": True, "tomography.chain_steps": 400,
                              "tomography.proposal_width": 0.1})
    rng = np.random.default_rng(12)
    probs = born_probs(np.diag([0.9, 0.05, 0.0, 0.05]).astype(complex), default_setup())
    counts = tmp_path / "counts.csv"
    counts_to_csv([sample_shots(probs, 50, rng, t=t) for t in (1e-4, 2e-4, 3e-4)], counts)
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["tomography", "--config", str(cfg_path), "--out", str(out),
                     "--counts", str(counts)]) == 0
    assert (outs[0] / "tomography.json").read_bytes() == (outs[1] / "tomography.json").read_bytes()
    results = json.loads((outs[0] / "tomography.json").read_text())
    assert [entry["t"] for entry in results] == [1e-4, 2e-4, 3e-4]
    assert all("mh" in entry and entry["mle_gate_error"] >= 0.0 for entry in results)


@pytest.mark.parametrize("from_counts", [False, True], ids=["synthetic", "counts"])
def test_tomography_calls_mh_chain_once_per_chain_record(tmp_path, monkeypatch, from_counts):
    """``bench/tracing.py`` wraps ``cli.mh_chain`` and reads ``n_steps`` from
    its keywords and the acceptance rate of the posterior it returns, once
    per call: ``tomography`` makes one call per chain record, on both paths."""
    from gatenoise.tomography import born_probs, default_setup, sample_shots

    calls = []

    def spy(*args, **kwargs):
        post = real(*args, **kwargs)
        calls.append((args, kwargs, post))
        return post

    real = cli.mh_chain
    monkeypatch.setattr(cli, "mh_chain", spy)
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, **{"drive.t_max_s": 0.004, "drive.n_times": 3,
                              "tomography.run_chain": True, "tomography.chain_steps": 400,
                              "tomography.repetitions": 2, "tomography.proposal_width": 0.05})
    argv = ["tomography", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    if from_counts:
        probs = born_probs(np.diag([0.9, 0.05, 0.0, 0.05]).astype(complex), default_setup())
        rng = np.random.default_rng(14)
        counts_to_csv([sample_shots(probs, 50, rng, t=t) for t in (1e-4, 2e-4, 3e-4, 4e-4)],
                      tmp_path / "counts.csv")
        argv += ["--counts", str(tmp_path / "counts.csv")]
    assert main(argv) == 0
    results = json.loads((tmp_path / "out" / "tomography.json").read_text())
    assert len(calls) == len(results) == (4 if from_counts else 3)
    for (args, kwargs, post), entry in zip(calls, results):
        assert isinstance(args[0], CountRecord) and args[0].t == entry["t"]
        assert kwargs["n_steps"] == 400
        assert isinstance(post, ChiPosterior)
        assert post.acceptance_rate == entry["mh"]["acceptance_rate"]


def test_tomography_chains_of_equal_records_draw_their_own_streams(tmp_path):
    """Two records with equal counts at different times: the acceptance rate
    and the tuned width depend only on the counts and the chain's draws, so
    they coincide unless each record's chain has its own stream."""
    from gatenoise.tomography import born_probs, default_setup, sample_shots

    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, **{"tomography.run_chain": True, "tomography.chain_steps": 400,
                              "tomography.proposal_width": 0.1})
    probs = born_probs(np.diag([0.9, 0.05, 0.0, 0.05]).astype(complex), default_setup())
    rec = sample_shots(probs, 50, np.random.default_rng(13), t=1e-4)
    twin = sample_shots(probs, 50, np.random.default_rng(13), t=2e-4)
    np.testing.assert_array_equal(rec.counts, twin.counts)
    counts = tmp_path / "counts.csv"
    counts_to_csv([rec, twin], counts)
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["tomography", "--config", str(cfg_path), "--out", str(out),
                     "--counts", str(counts)]) == 0
    assert (outs[0] / "tomography.json").read_bytes() == (outs[1] / "tomography.json").read_bytes()
    first, second = (entry["mh"] for entry in json.loads((outs[0] / "tomography.json").read_text()))
    assert ((first["acceptance_rate"], first["proposal_width"])
            != (second["acceptance_rate"], second["proposal_width"]))


def test_counts_file_with_malformed_time_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    bad = tmp_path / "bad_counts.csv"
    bad.write_text("state,basis,time_s,n_plus,n_minus\nplus,x,np.float64(0.001),3,2\n")
    code = main(["tomography", "--config", str(cfg_path), "--out", str(tmp_path / "tomo"),
                 "--counts", str(bad)])
    assert code == 2
    assert "validation error" in capsys.readouterr().err


def test_counts_header_with_extra_columns_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    bad = tmp_path / "bad_counts.csv"
    bad.write_text("state,basis,time_s,n_plus,n_minus,note\n" + "".join(
        f"{sl},{bl},1e-4,3,2\n" for sl in STATE_LABELS for bl in BASIS_LABELS))
    code = main(["tomography", "--config", str(cfg_path), "--out", str(tmp_path / "tomo"),
                 "--counts", str(bad)])
    assert code == 2
    assert "unexpected counts header" in capsys.readouterr().err


def _counts_rows(time_text):
    return "".join(f"{sl},{bl},{time_text},3,2\n" for sl in STATE_LABELS for bl in BASIS_LABELS)


@pytest.mark.parametrize("rows, named", [
    (_counts_rows("1e-4") + "plus,x,1e-4,4,1\n", "plus,x,1e-4,4,1"),
    (_counts_rows("1e-4") + "zero,z,0.0001,4,1\n", "zero,z,0.0001,4,1"),
    (_counts_rows("inf"), "plus,x,inf,3,2"),
    (_counts_rows("nan"), "plus,x,nan,3,2"),
    (_counts_rows("-1e-4"), "plus,x,-1e-4,3,2"),
    ("", "no counts rows"),
], ids=["repeated", "repeated_as_written_otherwise", "inf", "nan", "negative", "no_rows"])
def test_counts_file_with_bad_rows_exits_2(tmp_path, capsys, rows, named):
    """A repeated (state, basis, time) row, a time that is not finite and
    >= 0, and a file with no rows are rejected naming the row or the file."""
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    bad = tmp_path / "bad_counts.csv"
    bad.write_text("state,basis,time_s,n_plus,n_minus\n" + rows)
    code = main(["tomography", "--config", str(cfg_path), "--out", str(tmp_path / "tomo"),
                 "--counts", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "validation error" in err and named in err


@pytest.mark.parametrize("command", ["predict", "validate", "tomography", "rb"])
@pytest.mark.parametrize("threads", [0, -3])
def test_threads_below_one_rejected(tmp_path, capsys, command, threads):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                 "--threads", str(threads)]) == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["predict", "tomography", "rb"])
@pytest.mark.parametrize("threads", [2, 7])
def test_threads_above_one_rejected_where_nothing_runs_in_parallel(tmp_path, capsys, command,
                                                                   threads):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                 "--threads", str(threads)]) == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["missing", "directory", "undecodable"])
def test_unreadable_counts_file_exits_2(tmp_path, capsys, kind):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    counts = tmp_path / "counts.csv"
    if kind == "directory":
        counts.mkdir()
    elif kind == "undecodable":
        counts.write_bytes(b"state,basis,time_s,n_plus,n_minus\n\xff\xfe,x,1e-4,3,2\n")
    out = tmp_path / "tomo"
    assert main(["tomography", "--config", str(cfg_path), "--out", str(out),
                 "--counts", str(counts)]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err and str(counts) in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("existed", [False, True], ids=["new-out", "existing-out"])
@pytest.mark.parametrize("failure", ["missing-counts", "missing-psd-table"])
def test_a_failed_run_removes_only_the_empty_directories_it_made(tmp_path, capsys, failure,
                                                                 existed):
    cfg_path = tmp_path / "cfg.json"
    if failure == "missing-counts":
        write_config(cfg_path)
        command = ["tomography", "--counts", str(tmp_path / "nope.csv")]
    else:
        write_config(cfg_path, noise={"psd": {"kind": "tabulated",
                                              "csv": "ingested/psd_normalized.csv",
                                              "sidecar": "ingested/psd_normalized.json"}})
        command = ["predict"]
    out = tmp_path / "runs" / "out"
    if existed:
        out.mkdir(parents=True)
    assert main([*command, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "validation error" in capsys.readouterr().err
    assert out.exists() == existed and (tmp_path / "runs").exists() == existed
    if existed:
        assert not any(out.iterdir())


@pytest.mark.parametrize("command", ["predict", "validate", "tomography", "rb"])
def test_config_driven_run_lifecycle(tmp_path, capsys, monkeypatch, command):
    """A run writes its manifest, named for the command, and ends with one
    summary line; a body that fails after the config loads writes no manifest."""
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, validation={"n_haar": 5}, **{"simulation.m_mc": 50})
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["command"] == command
    last = capsys.readouterr().out.splitlines()[-1]
    if command == "validate":
        assert last.startswith(f"validate: wrote {out}; median Monte Carlo variance ratio ")
    else:
        assert last == f"{command}: wrote {out}"

    def fail(*args, **kwargs):
        raise NumericalError("injected")

    monkeypatch.setattr(cli, "job_integrals", fail)
    failed = tmp_path / "failed"
    assert main([command, "--config", str(cfg_path), "--out", str(failed)]) == 3
    assert "injected" in capsys.readouterr().err
    assert not (failed / "manifest.json").exists()


def test_parser_keeps_the_commands_their_flags_and_defaults():
    parser = cli.build_parser()
    assert "{predict,validate,tomography,rb,ingest-psd}" in parser.format_usage()
    common = {"config": "c.json", "seed": None, "out": None, "threads": 1}
    for command in ("predict", "validate", "tomography", "rb"):
        args = vars(parser.parse_args([command, "--config", "c.json"]))
        args = {k: v for k, v in args.items() if k not in ("body", "func")}
        expected = {"command": command, **common}
        if command == "tomography":
            expected["counts"] = None
        assert args == expected
        with pytest.raises(SystemExit):
            parser.parse_args([command])
    args = vars(parser.parse_args(["ingest-psd", "raw.csv", "raw.json", "--out", "d"]))
    args = {k: v for k, v in args.items() if k not in ("body", "func")}
    assert args == {"command": "ingest-psd", "raw_csv": "raw.csv", "sidecar": "raw.json",
                    "out": "d"}


GOOD_SIDECAR = json.dumps({"units": "hz_one_sided", "low_plateau": 1.0, "high_plateau": 0.1})


@pytest.mark.parametrize("csv_text, sidecar_text, bad", [
    (None, GOOD_SIDECAR, "raw.csv"),
    ("f,s\n10.0,1.0\n20.0,0.5\n", None, "raw.json"),
    ("f,s\n10.0,1.0\n20.0,abc\n", GOOD_SIDECAR, "raw.csv"),
    ("f,s\n10.0,1.0\n20.0\n", GOOD_SIDECAR, "raw.csv"),
    ("f,s\n10.0,1.0\n20.0,0.5\n", "units: hz_one_sided", "raw.json"),
    ("f,s\n10.0,1.0\n20.0,0.5\n", GOOD_SIDECAR.replace("1.0", '"high"'), "raw.json"),
    ("f,s\n10.0,1.0\n20.0,0.5\n", GOOD_SIDECAR[:-1] + ', "excluded_bands": [5]}',
     "raw.json"),
    ("f,s\n10.0,1.0\n20.0,0.5\n", GOOD_SIDECAR[:-1] + ', "excluded_band": [[12, 14]]}',
     "unknown field 'excluded_band'"),
    ("f,s\n10.0,1.0\n20.0,0.5\n", GOOD_SIDECAR[:-1] + ', "high_plateau": 0.2}',
     "'high_plateau' is given twice"),
], ids=["missing-csv", "missing-sidecar", "non-numeric-cell", "one-field-row",
        "sidecar-not-json", "non-numeric-plateau", "band-not-a-pair", "unknown-sidecar-key",
        "sidecar-key-twice"])
def test_ingest_psd_malformed_input_exits_2(tmp_path, capsys, csv_text, sidecar_text, bad):
    raw, sidecar = tmp_path / "raw.csv", tmp_path / "raw.json"
    if csv_text is not None:
        raw.write_text(csv_text)
    if sidecar_text is not None:
        sidecar.write_text(sidecar_text)
    out = tmp_path / "ing" / "a" / "b"
    assert main(["ingest-psd", str(raw), str(sidecar), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err and bad in err
    # a failed ingest makes no directory
    assert not (tmp_path / "ing").exists()


@pytest.mark.parametrize("row, sidecar", [
    ("20.0,nan", GOOD_SIDECAR),
    ("20.0,inf", GOOD_SIDECAR),
    ("inf,0.5", GOOD_SIDECAR),
    ("20.0,0.5", GOOD_SIDECAR.replace("0.1", "NaN")),
], ids=["nan-density", "inf-density", "inf-frequency", "nan-plateau"])
def test_non_finite_psd_table_exits_2_on_ingest_and_in_a_config(tmp_path, capsys, row,
                                                                sidecar):
    raw, side = tmp_path / "raw.csv", tmp_path / "raw.json"
    raw.write_text(f"f,s\n10.0,1.0\n{row}\n")
    side.write_text(sidecar)
    assert main(["ingest-psd", str(raw), str(side), "--out", str(tmp_path / "out")]) == 2
    ingest_err = capsys.readouterr().err
    assert "must be finite" in ingest_err
    assert not (tmp_path / "out" / "psd_normalized.json").exists()
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, noise={"psd": {"kind": "tabulated", "csv": "raw.csv",
                                          "sidecar": "raw.json"}})
    assert main(["predict", "--config", str(cfg_path), "--out", str(tmp_path / "pred")]) == 2
    assert capsys.readouterr().err == ingest_err


def test_rb_command(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out = tmp_path / "rb"
    assert main(["rb", "--config", str(cfg_path), "--out", str(out)]) == 0
    fit = json.loads((out / "rb_fit.json").read_text())
    assert set(fit) == {"lambda", "eps_rb", "eps_rb_per_pulse", "avg_pulses_per_clifford",
                        "analytic_eps_nm_pi_pulse"}
    assert 0.0 <= fit["lambda"] <= 1.0
    assert main(["rb", "--config", str(cfg_path), "--out", str(tmp_path / "rb2")]) == 0
    for name in ("rb_decay.csv", "rb_fit.json"):
        assert (out / name).read_bytes() == (tmp_path / "rb2" / name).read_bytes()


def test_rb_analytic_error_includes_amplitude_noise(tmp_path):
    """The simulated pulses carry the amplitude-noise Pauli rates, so the
    analytic pi-pulse error written beside them is the NM_I one."""
    c, tau, Omega = 1.6e9, 5e-4, 4000.0
    ou = {"kind": "ou", "c": c, "tau_c": tau}
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, drive={"omega_rad_s": Omega, "t_max_s": 0.01, "n_times": 5},
                 noise={"psd": ou, "amplitude_psd": ou})
    assert main(["rb", "--config", str(cfg_path), "--out", str(tmp_path / "rb")]) == 0
    fit = json.loads((tmp_path / "rb" / "rb_fit.json").read_text())

    t_pi = math.pi / Omega
    fi = ou_filtered_integrals(c, tau, Omega, [t_pi])
    fi.dgamma1 = ou_amplitude_integral(c, tau, [t_pi])
    assert fit["analytic_eps_nm_pi_pulse"] == pytest.approx(gate_error(fi.at(0), "NM_I"),
                                                            rel=1e-9)
    assert fit["analytic_eps_nm_pi_pulse"] == pytest.approx(0.0395, abs=5e-5)
    assert gate_error(fi.at(0), "NM") == pytest.approx(0.0151, abs=5e-5)


def test_ingest_psd_continuity_and_roundtrip(tmp_path):
    f = np.geomspace(10.0, 1e6, 80)
    s = 4.0 / (1.0 + (f / 3e3) ** 2) + 0.05
    bump = (f > 2e4) & (f < 6e4)
    s[bump] += 30.0
    raw = tmp_path / "raw.csv"
    with open(raw, "w") as fh:
        fh.write("freq_hz,psd_one_sided\n")
        for fi, si in zip(f, s):
            fh.write(f"{float(fi)!r},{float(si)!r}\n")
    sidecar = tmp_path / "raw.json"
    sidecar.write_text(json.dumps({
        "units": "hz_one_sided", "low_plateau": 4.05, "high_plateau": 0.05,
        "excluded_bands": [[2e4, 6e4]],
    }))
    out = tmp_path / "ingested"
    assert main(["ingest-psd", str(raw), str(sidecar), "--out", str(out)]) == 0

    from gatenoise.psd import NoisePsd
    psd = NoisePsd.from_files(out / "psd_normalized.csv", out / "psd_normalized.json")
    # bump removed: density near the band center follows the bridge
    val = psd.eval(2.0 * np.pi * 3.5e4)
    assert val < 1.0

    # reruns are byte-identical
    out2 = tmp_path / "ingested2"
    main(["ingest-psd", str(raw), str(sidecar), "--out", str(out2)])
    assert (out / "psd_normalized.csv").read_bytes() == \
        (out2 / "psd_normalized.csv").read_bytes()


def test_units_invariance_through_pipeline(tmp_path):
    """The same physical PSD declared in Hz-one-sided and rad/s-two-sided
    units produces identical predicted error curves."""
    f = np.geomspace(1.0, 1e5, 60)
    s1s = 6.0 / (1.0 + (f / 200.0) ** 2) + 0.01

    hz_csv = tmp_path / "hz.csv"
    with open(hz_csv, "w") as fh:
        fh.write("freq_hz,psd\n")
        for fi, si in zip(f, s1s):
            fh.write(f"{float(fi)!r},{float(si)!r}\n")
    (tmp_path / "hz.json").write_text(json.dumps(
        {"units": "hz_one_sided", "low_plateau": 6.01, "high_plateau": 0.01}))

    rad_csv = tmp_path / "rad.csv"
    with open(rad_csv, "w") as fh:
        fh.write("omega,psd\n")
        for fi, si in zip(f, s1s):
            fh.write(f"{float(2*np.pi*fi)!r},{float(si/2.0)!r}\n")
    (tmp_path / "rad.json").write_text(json.dumps(
        {"units": "rad_s_two_sided", "low_plateau": 3.005, "high_plateau": 0.005}))

    outs = []
    for name, csv_name, side_name in (("hz", "hz.csv", "hz.json"),
                                      ("rad", "rad.csv", "rad.json")):
        cfg_path = tmp_path / f"cfg_{name}.json"
        write_config(cfg_path,
                     drive={"omega_rad_s": 500.0, "t_max_s": 0.01, "n_times": 4},
                     noise={"psd": {"kind": "tabulated", "csv": csv_name,
                                    "sidecar": side_name}})
        out = tmp_path / f"out_{name}"
        assert main(["predict", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append(np.loadtxt(out / "error_curves.csv", delimiter=",", skiprows=1))
    np.testing.assert_allclose(outs[0], outs[1], atol=1e-10)


IMPORT_GUARD = """
import json, sys
import gatenoise.cli as cli
report = [["import gatenoise.cli", 0, sorted(m for m in sys.modules if m.startswith("scipy"))]]
for argv in json.loads(sys.argv[1]):
    loaded = set(sys.modules)
    code = cli.main(argv)
    new = sorted(m for m in set(sys.modules) - loaded if m.startswith(("scipy", "numpy.")))
    report.append([" ".join(argv[:2]), code, new])
print(json.dumps(report))
"""


def test_commands_import_neither_scipy_nor_numpy_submodules(tmp_path):
    """scipy stays a test-only dependency, and numpy 2's lazy submodules
    (numpy.random, numpy.fft, numpy.ma) load with the CLI or not at all,
    never inside a command's own time."""
    from gatenoise.tomography import born_probs, default_setup, sample_shots

    f = np.geomspace(1.0, 2e4, 60)
    raw = tmp_path / "raw.csv"
    np.savetxt(raw, np.column_stack([f, 600.0 / (1.0 + (f / 300.0) ** 2) + 0.05]),
               delimiter=",", header="freq_hz,psd", comments="")
    sidecar = tmp_path / "raw.json"
    sidecar.write_text(json.dumps({"units": "hz_one_sided", "low_plateau": 600.05,
                                   "high_plateau": 0.05}))
    ing = tmp_path / "ingested"
    small = {"drive": {"omega_rad_s": 1.0 / (5.0 * TAU), "t_max_s": 0.004, "n_times": 2},
             "simulation": {"m_mc": 200, "seed": 7}, "validation": {"n_haar": 20}}
    configs = {
        "ou": small,
        "tabulated": {**small, "noise": {"psd": {
            "kind": "tabulated", "csv": str(ing / "psd_normalized.csv"),
            "sidecar": str(ing / "psd_normalized.json")}}},
        "chain": {**small, "tomography": {"shots_per_basis": 60, "repetitions": 2,
                                          "chain_steps": 400, "run_chain": True}},
    }
    for name, overrides in configs.items():
        write_config(tmp_path / f"{name}.json", **overrides)
    probs = born_probs(np.diag([0.9, 0.05, 0.0, 0.05]).astype(complex), default_setup())
    counts_to_csv([sample_shots(probs, 50, np.random.default_rng(12), t=2e-3)],
                  tmp_path / "counts.csv")

    def run(command, cfg, *extra):
        return [command, "--config", str(tmp_path / f"{cfg}.json"),
                "--out", str(tmp_path / f"out_{command}_{cfg}"), *extra]

    argvs = [["ingest-psd", str(raw), str(sidecar), "--out", str(ing)],
             run("predict", "ou"), run("validate", "ou"), run("validate", "tabulated"),
             run("tomography", "ou"),
             run("tomography", "chain", "--counts", str(tmp_path / "counts.csv")),
             run("rb", "ou")]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, check=True)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(report) == len(argvs) + 1
    assert report == [[step, 0, []] for step, _, _ in report], proc.stderr


def test_package_imports_no_scipy():
    """scipy is a test extra: no module of the package imports it, at any
    depth (inside functions too)."""
    package = Path(cli.__file__).resolve().parent
    paths = sorted(package.rglob("*.py"))
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else []
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert paths and found == []
