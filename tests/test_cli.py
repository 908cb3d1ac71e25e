import json
import math
from pathlib import Path

import numpy as np
import pytest

from gatenoise.channels import (
    PAULIS,
    chi_nm,
    depolarizing_chi,
    depolarizing_rate,
    drive_unitary,
    haar_random_state,
    kraus_nc,
    pauli_chi,
    pauli_twirl,
)
from gatenoise.cli import build_psds, load_config, main, run_validation
from gatenoise.filters import filtered_integrals

TAU = 5e-4


def write_config(path, **overrides):
    cfg = {
        "drive": {"omega_rad_s": 1.0 / (5.0 * TAU), "t_max_s": 0.01, "n_times": 5},
        "noise": {"psd": {"kind": "ou", "c": 2.0 / (10.0 * TAU**3), "tau_c": TAU}},
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
])
def test_out_of_range_setting_rejected(tmp_path, capsys, command, key, value):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, **{"tomography.run_chain": True, key: value})
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


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
    assert "gatenoise" in manifest["versions"]


def test_predict_is_byte_reproducible(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["predict", "--config", str(cfg_path), "--out", str(out1)])
    main(["predict", "--config", str(cfg_path), "--out", str(out2)])
    for name in ("filtered_integrals.csv", "error_curves.csv", "channels.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


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


def test_validation_scoring_matches_per_state_loop(tmp_path):
    """Stacked Haar scoring equals a per-state loop over the same states,
    written here with explicit Pauli and Kraus sums."""
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    cfg = load_config(cfg_path)
    psd, amp_psd = build_psds(cfg)
    n_haar = 50
    grid, infidelity = run_validation(cfg, psd, amp_psd, n_haar=n_haar, out_dir=tmp_path)
    snapshots = json.loads((tmp_path / "ensemble_states.json").read_text())
    Omega = cfg["drive"]["omega_rad_s"]
    fi = filtered_integrals(psd, Omega, grid)
    rng = np.random.default_rng(cfg["simulation"]["seed"] + 99)
    haar = [haar_random_state(rng) for _ in range(n_haar)]

    for j, snap in enumerate(snapshots):
        t = snap["t"]
        e = {label: _complex(state) for label, state in snap["states"].items()}
        e01 = 0.5 * ((2 * e["plus"] - e["zero"] - e["one"])
                     + 1j * (2 * e["plus_i"] - e["zero"] - e["one"]))
        point = fi.at(j)
        U = drive_unitary(Omega, t)
        models = {
            "D": depolarizing_chi(depolarizing_rate(point)).matrix,
            "PT": pauli_chi(pauli_twirl(point, t)).matrix,
            "NC": kraus_nc(point, Omega, t).ops,
            "NM": chi_nm(point, t).matrix,
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
            assert infidelity[model][j] == pytest.approx(total / n_haar, rel=1e-12, abs=0)


def test_validate_identical_seeds_bitwise(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, validation={"n_haar": 20})
    out1, out2 = tmp_path / "v1", tmp_path / "v2"
    main(["validate", "--config", str(cfg_path), "--out", str(out1)])
    main(["validate", "--config", str(cfg_path), "--out", str(out2)])
    assert (out1 / "channel_infidelity.csv").read_bytes() == \
        (out2 / "channel_infidelity.csv").read_bytes()


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


def test_counts_file_with_malformed_time_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    bad = tmp_path / "bad_counts.csv"
    bad.write_text("state,basis,time_s,n_plus,n_minus\nplus,x,np.float64(0.001),3,2\n")
    code = main(["tomography", "--config", str(cfg_path), "--out", str(tmp_path / "tomo"),
                 "--counts", str(bad)])
    assert code == 2
    assert "validation error" in capsys.readouterr().err


def test_rb_command(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out = tmp_path / "rb"
    assert main(["rb", "--config", str(cfg_path), "--out", str(out)]) == 0
    fit = json.loads((out / "rb_fit.json").read_text())
    assert 0.0 <= fit["lambda"] <= 1.0
    assert (out / "rb_decay.csv").exists()


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
