"""Command-line pipelines: PSD ingestion, prediction, Monte Carlo validation,
simulated tomography and randomized benchmarking.

Every command reads a single JSON config, writes plot-ready CSV/JSON plus a
manifest (config hash, seed, versions), and is bit-reproducible for a fixed
manifest.  Exit codes: 0 ok, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .channels import (
    apply_chi,
    apply_kraus,
    avg_gate_fidelity,
    chi_full,
    chi_nm,
    depolarizing_chi,
    depolarizing_rate,
    drive_unitary,
    gate_error,
    haar_random_state,
    kraus_nc,
    pauli_chi,
    pauli_twirl,
    rotate_to_lab,
    state_fidelity,
)
from .errors import GateNoiseError, NumericalError, ValidationError
from .filters import filtered_integrals
from .langevin import DriveConfig, default_timestep, evolve_ensemble
from .langevin import to_csv as traj_to_csv
from .noise import OUSource, PsdSource
from .psd import NoisePsd
from .tomography import (
    born_probs,
    counts_from_csv,
    default_setup,
    mh_chain,
    mle_fit,
    rb_simulate,
    sample_shots,
)

_BASIS_STATES = {
    "zero": np.array([[1, 0], [0, 0]], dtype=complex),
    "one": np.array([[0, 0], [0, 1]], dtype=complex),
    "plus": 0.5 * np.array([[1, 1], [1, 1]], dtype=complex),
    "plus_i": 0.5 * np.array([[1, -1j], [1j, 1]], dtype=complex),
}


# --------------------------------------------------------------------- #
# config handling

_DEFAULTS = {
    "drive": {"n_times": 40},
    "simulation": {"m_mc": 20000, "dt_s": None, "chunk": 4096},
    "tomography": {
        "shots_per_basis": 100,
        "repetitions": 100,
        "chain_steps": 100000,
        "proposal_width": 0.02,
        "run_chain": False,
    },
    "rb": {"n_seq": 100, "shots": 100, "max_length": 1024},
}
# The keys each section may hold: exactly the ones the commands read.
_SECTIONS = {
    "drive": ("omega_rad_s", "t_max_s", "n_times", "phi_rad"),
    "noise": ("psd", "amplitude_psd"),
    "simulation": ("seed", "m_mc", "dt_s", "chunk"),
    "tomography": ("shots_per_basis", "repetitions", "chain_steps", "proposal_width",
                   "run_chain"),
    "rb": ("n_seq", "shots", "max_length"),
    "outputs": ("dir",),
    "validation": ("n_haar",),
    "omega_sweep": ("omega_min", "omega_max", "n"),
}
# Lower limits of the numeric tomography and validation settings.
_AT_LEAST_ONE = (("tomography", "shots_per_basis"), ("tomography", "repetitions"),
                 ("tomography", "chain_steps"), ("validation", "n_haar"))


def load_config(path, seed_override=None):
    raw = Path(path).read_bytes()
    cfg = json.loads(raw)
    unknown = sorted(set(cfg) - set(_SECTIONS))
    if unknown:
        raise ValidationError(f"unknown config section(s) {', '.join(unknown)}; "
                              f"expected some of {', '.join(_SECTIONS)}")
    for section, keys in _SECTIONS.items():
        body = cfg.get(section, {})
        if not isinstance(body, dict):
            raise ValidationError(f"config section {section} must be a JSON object")
        extra = sorted(set(body) - set(keys))
        if extra:
            raise ValidationError(f"unknown key(s) {', '.join(f'{section}.{k}' for k in extra)}; "
                                  f"{section} takes {', '.join(keys)}")
    resolved = {section: {**_DEFAULTS.get(section, {}), **cfg.get(section, {})}
                for section in _SECTIONS if section in cfg or section in _DEFAULTS}

    for section, key in (("drive", "omega_rad_s"), ("drive", "t_max_s"), ("noise", "psd"),
                         ("outputs", "dir")):
        if key not in cfg.get(section, {}):
            raise ValidationError(f"config is missing required field {section}.{key}")
    if seed_override is not None:
        resolved.setdefault("simulation", {})["seed"] = int(seed_override)
    if "seed" not in resolved.get("simulation", {}) or resolved["simulation"]["seed"] is None:
        raise ValidationError("simulation.seed is required for reproducibility")

    drive = resolved["drive"]
    if drive["omega_rad_s"] <= 0 or drive["t_max_s"] <= 0 or drive["n_times"] < 1:
        raise ValidationError("drive parameters must be positive")
    if drive.get("phi_rad", 0.0) != 0.0:
        raise ValidationError("drive.phi_rad is not supported: every model and the "
                              "simulator drive about x (phase 0)")
    for section, key in _AT_LEAST_ONE:
        value = resolved.get(section, {}).get(key, 1)
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValidationError(f"{section}.{key} must be an integer >= 1, got {value!r}")
    width = resolved["tomography"]["proposal_width"]
    if isinstance(width, bool) or not isinstance(width, (int, float)) or not width > 0:
        raise ValidationError(f"tomography.proposal_width must be positive, got {width!r}")
    resolved["_sha256"] = hashlib.sha256(raw).hexdigest()
    resolved["_base_dir"] = str(Path(path).resolve().parent)
    return resolved


def _psd_from_spec(spec, base_dir):
    if spec.get("kind") == "ou":
        return NoisePsd.ou(spec["c"], spec["tau_c"])
    if spec.get("kind") == "tabulated":
        base = Path(base_dir)
        csv_path = base / spec["csv"]
        sidecar = base / spec["sidecar"]
        for p in (csv_path, sidecar):
            if not p.exists():
                raise ValidationError(f"referenced PSD file does not exist: {p}")
        return NoisePsd.from_files(csv_path, sidecar)
    raise ValidationError(f"unknown PSD kind {spec.get('kind')!r}")


def build_psds(cfg):
    psd = _psd_from_spec(cfg["noise"]["psd"], cfg["_base_dir"])
    amp = cfg["noise"].get("amplitude_psd")
    amp_psd = _psd_from_spec(amp, cfg["_base_dir"]) if amp else None
    return psd, amp_psd


def _noise_source(psd):
    if psd.kind == "ou":
        return OUSource(psd.c, psd.tau_c)
    return PsdSource(psd)


def time_grid(cfg):
    drive = cfg["drive"]
    return np.linspace(drive["t_max_s"] / drive["n_times"], drive["t_max_s"], drive["n_times"])


def write_manifest(cfg, out_dir, command):
    manifest = {
        "command": command,
        "config_sha256": cfg["_sha256"],
        "seed": cfg["simulation"]["seed"],
        "resolved_config": {k: v for k, v in cfg.items() if not k.startswith("_")},
        "versions": {
            "gatenoise": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
    }
    path = Path(out_dir) / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return {"re": obj.real.tolist(), "im": obj.imag.tolist()}
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not serializable: {type(obj)}")


# --------------------------------------------------------------------- #
# commands

def cmd_ingest_psd(args):
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    psd = NoisePsd.from_files(args.raw_csv, args.sidecar)
    for lo, hi in psd.excluded_bands:
        for edge in (lo, hi):
            if not psd.omegas[0] < edge < psd.omegas[-1]:
                continue
            below = psd.eval(edge * (1.0 - 1e-9))
            above = psd.eval(edge * (1.0 + 1e-9))
            if below > 0 and not (1 / 1.01 < above / below < 1.01):
                raise NumericalError(
                    f"PSD jump ratio {above / below:.4f} at band edge {edge}"
                )
    psd.to_files(out_dir / "psd_normalized.csv", out_dir / "psd_normalized.json")
    print(f"wrote normalized PSD to {out_dir}")
    return 0


def _error_curves(psd, amp_psd, Omega, times):
    fi = filtered_integrals(psd, Omega, times, amp_psd=amp_psd)
    rows = []
    for i, t in enumerate(times):
        point = fi.at(i)
        rates = pauli_twirl(point, t)
        row = [
            t,
            gate_error(point, "D"),
            gate_error(point, "NC"),
            gate_error(point, "NM"),
            gate_error(point, "NC_I"),
            gate_error(point, "NM_I"),
            depolarizing_rate(point),
            rates.px, rates.py, rates.pz,
        ]
        rows.append(row)
    return fi, rows


def cmd_predict(args):
    cfg = load_config(args.config, args.seed)
    out_dir = Path(args.out or cfg["outputs"]["dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    psd, amp_psd = build_psds(cfg)
    Omega = cfg["drive"]["omega_rad_s"]
    times = time_grid(cfg)

    fi, rows = _error_curves(psd, amp_psd, Omega, times)
    fi.to_csv(out_dir / "filtered_integrals.csv")
    _write_csv(
        out_dir / "error_curves.csv",
        ["t", "eps_d", "eps_nc", "eps_nm", "eps_nc_i", "eps_nm_i", "p_d", "p_x", "p_y", "p_z"],
        rows,
    )

    with_amp = amp_psd is not None
    snapshots = []
    for i, t in enumerate(times):
        point = fi.at(i)
        chi = chi_nm(point, t, with_amplitude=with_amp)
        kraus = kraus_nc(point, Omega, t, with_amplitude=with_amp)
        rates = pauli_twirl(point, t, with_amplitude=with_amp)
        snapshots.append(
            {
                "t": t,
                "chi": chi.matrix,
                "chi_full": chi_full(point, Omega, t, with_amplitude=with_amp).matrix,
                "kraus": [K for K in kraus.ops],
                "pauli_rates": {"px": rates.px, "py": rates.py, "pz": rates.pz},
            }
        )
    (out_dir / "channels.json").write_text(
        json.dumps(snapshots, default=_json_default) + "\n"
    )

    sweep = cfg.get("omega_sweep")
    if sweep:
        omegas = np.geomspace(sweep["omega_min"], sweep["omega_max"], sweep["n"])
        rows = []
        for om in omegas:
            t_pi = math.pi / om
            fi_om = filtered_integrals(psd, om, [t_pi], amp_psd=amp_psd)
            point = fi_om.at(0)
            rows.append([om, gate_error(point, "NM"), gate_error(point, "NM_I"),
                         gate_error(point, "D")])
        _write_csv(out_dir / "pi_pulse_sweep.csv",
                   ["omega_rad_s", "eps_nm", "eps_nm_i", "eps_d"], rows)

    write_manifest(cfg, out_dir, "predict")
    print(f"predict: wrote {out_dir}")
    return 0


def reconstruct_channel(states_by_label):
    """Linear extension of the MC map from the four evolved basis states.

    Exact when the four states share their noise draws, as in one
    ``evolve_ensemble`` call on the stacked basis states.  The returned map
    acts on (..., 2, 2) stacks of states.
    """
    e00 = states_by_label["zero"]
    e11 = states_by_label["one"]
    epp = states_by_label["plus"]
    epi = states_by_label["plus_i"]
    e01 = 0.5 * ((2 * epp - e00 - e11) + 1j * (2 * epi - e00 - e11))
    # images[j, k] = E(|j><k|)
    images = np.array([[e00, e01], [e01.conj().T, e11]])

    def channel(rho):
        return np.einsum("...jk,jkil->...il", rho, images)

    return channel


def run_validation(cfg, psd, amp_psd, n_haar=1000, models=("D", "PT", "NC", "NM"),
                   n_workers=1, out_dir=None):
    Omega = cfg["drive"]["omega_rad_s"]
    seed = cfg["simulation"]["seed"]
    tau_c = psd.tau_c if psd.kind == "ou" else None
    dt = cfg["simulation"]["dt_s"] or default_timestep(Omega, tau_c, fraction=0.002)
    times = time_grid(cfg)
    n_steps = int(round(times[-1] / dt))
    dt = times[-1] / n_steps
    record = np.unique(np.round(times / dt).astype(int))
    record = record[record > 0]
    stride = int(np.gcd.reduce(record)) if record.size else 1

    drive = DriveConfig(Omega=Omega, dt=dt, n_steps=n_steps, m_mc=cfg["simulation"]["m_mc"])
    freq_noise = _noise_source(psd)
    amp_noise = _noise_source(amp_psd) if amp_psd is not None else None

    ensemble = evolve_ensemble(
        np.stack(list(_BASIS_STATES.values())), drive, freq_noise, amp_noise,
        seed=seed, record_every=stride,
        chunk=cfg["simulation"]["chunk"], n_workers=n_workers,
    )
    evolved = {label: ensemble[k] for k, label in enumerate(_BASIS_STATES)}
    if out_dir is not None:
        for label, traj in evolved.items():
            traj_to_csv(traj, Path(out_dir) / f"langevin_{label}.csv")
    rec_times = evolved["zero"].times
    keep = [int(np.argmin(np.abs(rec_times - t))) for t in times]
    grid = rec_times[keep]

    fi = filtered_integrals(psd, Omega, grid, amp_psd=amp_psd)
    with_amp = amp_psd is not None
    rng = np.random.default_rng(seed + 99)
    haar = np.stack([haar_random_state(rng) for _ in range(n_haar)])

    infidelity = {model: np.zeros(grid.size) for model in models}
    for j, idx in enumerate(keep):
        mc_states = reconstruct_channel(
            {label: evolved[label].states[idx] for label in _BASIS_STATES}
        )(haar)
        point = fi.at(j)
        t = grid[j]
        builders = {}
        if "D" in models:
            builders["D"] = depolarizing_chi(depolarizing_rate(point), t)
        if "PT" in models:
            builders["PT"] = pauli_chi(pauli_twirl(point, t, with_amp), t)
        if "NC" in models:
            builders["NC"] = kraus_nc(point, Omega, t, with_amplitude=with_amp)
        if "NM" in models:
            builders["NM"] = chi_nm(point, t, with_amplitude=with_amp)
        for model, obj in builders.items():
            mapped = apply_kraus(obj, haar) if model == "NC" else apply_chi(obj, haar)
            model_states = rotate_to_lab(mapped, Omega, t)
            infidelity[model][j] = np.mean(1.0 - state_fidelity(model_states, mc_states))

    if out_dir is not None:
        snapshots = [
            {
                "t": float(grid[j]),
                "states": {label: evolved[label].states[idx]
                           for label in _BASIS_STATES},
            }
            for j, idx in enumerate(keep)
        ]
        (Path(out_dir) / "ensemble_states.json").write_text(
            json.dumps(snapshots, default=_json_default) + "\n"
        )
    return grid, infidelity


def cmd_validate(args):
    cfg = load_config(args.config, args.seed)
    out_dir = Path(args.out or cfg["outputs"]["dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    psd, amp_psd = build_psds(cfg)
    n_haar = cfg.get("validation", {}).get("n_haar", 1000)
    grid, infidelity = run_validation(cfg, psd, amp_psd, n_haar=n_haar,
                                      n_workers=max(args.threads, 1),
                                      out_dir=out_dir)

    models = list(infidelity)
    rows = [[t, *[infidelity[m][j] for m in models]] for j, t in enumerate(grid)]
    _write_csv(out_dir / "channel_infidelity.csv", ["t", *[m.lower() for m in models]], rows)
    report = {
        "time_averaged": {m: float(infidelity[m].mean()) for m in models},
        "peak": {m: float(infidelity[m].max()) for m in models},
        "n_haar": n_haar,
    }
    (out_dir / "validation_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    write_manifest(cfg, out_dir, "validate")
    print(f"validate: wrote {out_dir}")
    return 0


def cmd_tomography(args):
    cfg = load_config(args.config, args.seed)
    out_dir = Path(args.out or cfg["outputs"]["dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    psd, amp_psd = build_psds(cfg)
    Omega = cfg["drive"]["omega_rad_s"]
    tomo = cfg["tomography"]
    setup = default_setup()
    seed = cfg["simulation"]["seed"]
    results = []

    if args.counts:
        records = counts_from_csv(args.counts)
        for rec in records:
            target = drive_unitary(Omega, rec.t)
            chi_hat, _ = mle_fit(rec, setup, seed=seed)
            entry = {
                "t": rec.t,
                "mle_chi": chi_hat.matrix,
                "mle_gate_error": 1.0 - avg_gate_fidelity(chi_hat, target),
            }
            if tomo["run_chain"]:
                entry["mh"] = _posterior_summary(rec, setup, tomo, seed, target)
            results.append(entry)
    else:
        times = time_grid(cfg)
        fi = filtered_integrals(psd, Omega, times, amp_psd=amp_psd)
        with_amp = amp_psd is not None
        rng = np.random.default_rng(seed)
        for i, t in enumerate(times):
            point = fi.at(i)
            chi_true = chi_full(point, Omega, t, with_amplitude=with_amp)
            probs = born_probs(chi_true, setup)
            target = drive_unitary(Omega, t)
            errors = []
            for _ in range(tomo["repetitions"]):
                rec = sample_shots(probs, tomo["shots_per_basis"], rng, t=t)
                chi_hat, _ = mle_fit(rec, setup, n_starts=2, seed=seed)
                errors.append(1.0 - avg_gate_fidelity(chi_hat, target))
            errors = np.sort(np.asarray(errors))
            entry = {
                "t": t,
                "true_gate_error": 1.0 - avg_gate_fidelity(chi_true, target),
                "mle_mean": float(errors.mean()),
                "mle_quantiles": [float(np.percentile(errors, 2.5)),
                                  float(np.percentile(errors, 97.5))],
            }
            if tomo["run_chain"]:
                rec = sample_shots(probs, tomo["shots_per_basis"], rng, t=t)
                entry["mh"] = _posterior_summary(rec, setup, tomo, seed, target)
            results.append(entry)

    (out_dir / "tomography.json").write_text(
        json.dumps(results, default=_json_default, indent=2) + "\n"
    )
    write_manifest(cfg, out_dir, "tomography")
    print(f"tomography: wrote {out_dir}")
    return 0


def _posterior_summary(rec, setup, tomo, seed, target):
    post = mh_chain(rec, setup, n_steps=tomo["chain_steps"], width=tomo["proposal_width"],
                    seed=seed, target_unitary=target)
    return {
        "mean_error": post.mean_error,
        "mode_error": post.mode_error,
        "quantiles": list(post.quantiles),
        "acceptance_rate": post.acceptance_rate,
        "proposal_width": post.width,
        "effective_sample_size": post.ess,
    }


def cmd_rb(args):
    cfg = load_config(args.config, args.seed)
    out_dir = Path(args.out or cfg["outputs"]["dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    psd, amp_psd = build_psds(cfg)
    Omega = cfg["drive"]["omega_rad_s"]
    t_pi = math.pi / Omega
    fi = filtered_integrals(psd, Omega, [t_pi], amp_psd=amp_psd)
    point = fi.at(0)
    rates = pauli_twirl(point, t_pi, with_amplitude=amp_psd is not None)

    rb_cfg = cfg["rb"]
    lengths = [2**k for k in range(1, int(math.log2(rb_cfg["max_length"])) + 1)]
    result = rb_simulate(
        rates, lengths=lengths, n_seq=rb_cfg["n_seq"], shots=rb_cfg["shots"],
        seed=cfg["simulation"]["seed"],
    )
    _write_csv(
        out_dir / "rb_decay.csv",
        ["length", "survival_mean", "survival_se"],
        zip(result.lengths, result.survival_mean, result.survival_se),
    )
    fit = {
        "lambda": result.lam,
        "eps_rb": result.eps_rb,
        "eps_rb_per_pulse": result.eps_rb_per_pulse,
        "alt_fidelity_estimate": result.alt_fidelity_estimate,
        "avg_pulses_per_clifford": result.avg_pulses,
        "analytic_eps_nm_pi_pulse": gate_error(point, "NM"),
    }
    (out_dir / "rb_fit.json").write_text(json.dumps(fit, indent=2, sort_keys=True) + "\n")
    write_manifest(cfg, out_dir, "rb")
    print(f"rb: wrote {out_dir}")
    return 0


# --------------------------------------------------------------------- #

def build_parser():
    parser = argparse.ArgumentParser(
        prog="gatenoise",
        description="Error channels of driven single-qubit gates from noise PSDs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override simulation.seed")
        p.add_argument("--out", default=None, help="output directory (default from config)")
        p.add_argument("--threads", type=int, default=1, help="worker threads")

    p = sub.add_parser("predict", help="filtered integrals, channels, error curves")
    add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("validate", help="Langevin ensemble vs analytic channels")
    add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("tomography", help="MLE / posterior reconstruction per time")
    add_common(p)
    p.add_argument("--counts", default=None, help="counts CSV instead of synthetic data")
    p.set_defaults(func=cmd_tomography)

    p = sub.add_parser("rb", help="randomized-benchmarking decay simulation")
    add_common(p)
    p.set_defaults(func=cmd_rb)

    p = sub.add_parser("ingest-psd", help="normalize a raw PSD file")
    p.add_argument("raw_csv")
    p.add_argument("sidecar")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest_psd)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, GateNoiseError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
