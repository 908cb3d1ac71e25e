"""Command-line pipelines: PSD ingestion, prediction, Monte Carlo validation,
simulated tomography and randomized benchmarking.

Every command reads a single JSON config, writes plot-ready CSV/JSON plus a
manifest (config hash, seed, versions), and is bit-reproducible for a fixed
manifest.  ``main`` opens and closes every config-driven run: outputs first,
then ``manifest.json``, then one summary line; a failed run writes no
manifest.  Exit codes: 0 ok, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.random  # noqa: F401  loaded with the module: numpy 2 defers it to first use

from . import __version__
from .channels import (
    apply_chi,
    apply_kraus,
    avg_gate_fidelity,
    bloch_to_rho,
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
    rho_to_bloch,
    rotate_to_lab,
    state_fidelity,
)
from .errors import GateNoiseError, NumericalError, ValidationError, _unique_keys
from .filters import filtered_integrals, ou_amplitude_integral, ou_filtered_integrals
from .langevin import DriveConfig, default_timestep, evolve_ensemble
from .noise import OUSource, PsdSource
from .psd import NoisePsd
from .tomography import (
    born_probs,
    counts_from_csv,
    default_setup,
    mh_chain,
    mle_fit,
    percentiles,
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

# The config contract, one row per key: (JSON type, range, default).  A key
# whose default is None also takes null.  "with section" keys are required in
# an optional section, null if absent.  PSD spec keys are listed by kind.
_SCHEMA = {
    "drive.omega_rad_s":          ("number", "> 0", "required"),
    "drive.t_max_s":              ("number", "> 0", "required"),
    "drive.n_times":              ("integer", ">= 1", 40),
    "noise.psd":                  ("psd", ("ou", "tabulated"), "required"),
    "noise.amplitude_psd":        ("psd", ("ou", "tabulated"), None),
    "simulation.seed":            ("integer", ">= 0", "required"),
    "simulation.m_mc":            ("integer", ">= 1", 20000),
    "simulation.dt_s":            ("number", "> 0", None),
    "simulation.chunk":           ("integer", ">= 1", 4096),
    "tomography.shots_per_basis": ("integer", ">= 1", 100),
    "tomography.repetitions":     ("integer", ">= 1", 100),
    "tomography.chain_steps":     ("integer", ">= 1", 100000),
    "tomography.proposal_width":  ("number", "> 0", 0.02),
    "tomography.run_chain":       ("boolean", None, False),
    "rb.n_seq":                   ("integer", ">= 2", 100),
    "rb.shots":                   ("integer", ">= 1", 100),
    "rb.max_length":              ("integer", ">= 4", 1024),
    "outputs.dir":                ("string", None, "required"),
    "validation.n_haar":          ("integer", ">= 1", 1000),
    "omega_sweep.omega_min":      ("number", None, "with section"),
    "omega_sweep.omega_max":      ("number", None, "with section"),
    "omega_sweep.n":              ("integer", ">= 1", "with section"),
    "ou.c":                       ("number", ">= 0", "required"),
    "ou.tau_c":                   ("number", "> 0", "required"),
    "tabulated.csv":              ("string", None, "required"),
    "tabulated.sidecar":          ("string", None, "required"),
}
_TYPES = {"number": (int, float), "integer": int, "boolean": bool, "string": str, "psd": dict}


def load_config(path, seed_override=None):
    try:
        cfg = json.loads(raw := Path(path).read_bytes(), object_pairs_hook=_unique_keys)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a JSON object")
    kinds = _SCHEMA["noise.psd"][1]
    sections = [s for s in dict.fromkeys(k.split(".")[0] for k in _SCHEMA) if s not in kinds]
    unknown = sorted(set(cfg) - set(sections))
    if unknown:
        raise ValidationError(f"unknown config section(s) {', '.join(unknown)}; "
                              f"expected some of {', '.join(sections)}")
    if seed_override is not None and isinstance(cfg.get("simulation", {}), dict):
        cfg["simulation"] = {**cfg.get("simulation", {}), "seed": seed_override}
    resolved = {s: _resolve(cfg.get(s, {}), s, s, s, given=s in cfg) for s in sections}
    sweep = resolved["omega_sweep"]
    if sweep and not 0 < sweep["omega_min"] <= sweep["omega_max"]:
        raise ValidationError("omega_sweep needs 0 < omega_min <= omega_max")
    resolved["_sha256"] = hashlib.sha256(raw).hexdigest()
    resolved["_base_dir"] = str(Path(path).resolve().parent)
    return resolved


def _resolve(body, group, path, owner, given=True):
    """Check the JSON object ``body`` against the rows of ``group`` (a section
    or a PSD kind) and fill in defaults; None for an optional section not given."""
    rows = {k.split(".")[1]: row for k, row in _SCHEMA.items() if k.split(".")[0] == group}
    if not isinstance(body, dict):
        raise ValidationError(f"config section {path} must be a JSON object")
    extra = sorted(set(body) - set(rows))
    if extra:
        raise ValidationError(f"unknown key(s) {', '.join(f'{path}.{k}' for k in extra)}; "
                              f"{owner} takes {', '.join(rows)}")
    out = {}
    for key, (kind, bound, default) in rows.items():
        name, value = f"{path}.{key}", body.get(key, default)
        if key not in body and default == "with section" and not given:
            return None
        if key not in body and default in ("required", "with section"):
            raise ValidationError(f"{owner} is missing {key} ({name})")
        if key not in body or value is None and default is None:
            pass  # the default, or null where null is the default
        elif isinstance(value, bool) and kind != "boolean" or not isinstance(value, _TYPES[kind]):
            raise ValidationError(f"{name} must be of type {kind}, got {value!r}")
        elif isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value!r}")
        elif kind == "psd" and value.get("kind") not in bound:
            raise ValidationError(f"unknown PSD kind {value.get('kind')!r} in {name}")
        elif kind == "psd":
            spec = {k: v for k, v in value.items() if k != "kind"}
            value = {"kind": value["kind"],
                     **_resolve(spec, value["kind"], name, f"{name} of kind {value['kind']}")}
        elif bound and not (value > float(bound[2:]) if bound.startswith("> ")
                            else value >= float(bound[3:])):
            raise ValidationError(f"{name} must be {bound}, got {value!r}")
        out[key] = value
    return out


def _psd_from_spec(spec, base_dir):
    if spec["kind"] == "ou":
        return NoisePsd.ou(spec["c"], spec["tau_c"])
    base = Path(base_dir)
    return NoisePsd.from_files(base / spec["csv"], base / spec["sidecar"])


def build_psds(cfg):
    psd = _psd_from_spec(cfg["noise"]["psd"], cfg["_base_dir"])
    amp = cfg["noise"]["amplitude_psd"]
    amp_psd = _psd_from_spec(amp, cfg["_base_dir"]) if amp is not None else None
    return psd, amp_psd


def job_integrals(psd, Omega, times, amp_psd=None):
    """The filtered-integral tuple of a job: the OU closed forms when every
    PSD is OU, else the adaptive quadrature of ``filtered_integrals``.
    ``Omega`` is one Rabi frequency or an array aligned with ``times``."""
    if psd.kind == "ou" and (amp_psd is None or amp_psd.kind == "ou"):
        fi = ou_filtered_integrals(psd.c, psd.tau_c, Omega, times)
        if amp_psd is None:
            return fi
        return replace(fi, dgamma1=ou_amplitude_integral(amp_psd.c, amp_psd.tau_c, fi.times))
    return filtered_integrals(psd, Omega, times, amp_psd=amp_psd)


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
            "python": sys.version.split()[0],
        },
    }
    path = Path(out_dir) / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


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

def _make_out_dir(out_dir):
    """Create ``out_dir`` and its missing parents; returns those it made, deepest first."""
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output directory {out_dir}: {exc.strerror}") from None
    return made


def cmd_ingest_psd(args):
    psd = NoisePsd.from_files(args.raw_csv, args.sidecar)
    out_dir = Path(args.out)
    _make_out_dir(out_dir)   # only once the table has passed its checks
    psd.to_files(out_dir / "psd_normalized.csv", out_dir / "psd_normalized.json")
    print(f"wrote normalized PSD to {out_dir}")
    return 0


# A config-driven command's body gets the run ``main`` opened: the parsed
# arguments, the config, the created output directory and the PSDs.  It
# writes its outputs and returns the suffix of the summary line, if any.

def cmd_predict(args, cfg, out_dir, psd, amp_psd):
    Omega = cfg["drive"]["omega_rad_s"]
    times = time_grid(cfg)

    fi = job_integrals(psd, Omega, times, amp_psd)
    _write_csv(out_dir / "filtered_integrals.csv",
               ["t", "gamma1", "gamma2", "delta1", "delta2", "dgamma1"],
               zip(fi.times, fi.gamma1, fi.gamma2, fi.delta1, fi.delta2, fi.dgamma1))
    rates = pauli_twirl(fi)
    _write_csv(
        out_dir / "error_curves.csv",
        ["t", "eps_d", "eps_nc", "eps_nm", "eps_nc_i", "eps_nm_i", "p_d", "p_x", "p_y", "p_z"],
        zip(times, *(gate_error(fi, model) for model in ("D", "NC", "NM", "NC_I", "NM_I")),
            depolarizing_rate(fi), rates.px, rates.py, rates.pz),
    )

    chi = chi_nm(fi)
    chi_lab = chi_full(fi, Omega, times)
    kraus = kraus_nc(fi, Omega, times)
    snapshots = [
        {
            "t": t,
            "chi": chi[i],
            "chi_full": chi_lab[i],
            "kraus": list(kraus[i]),
            "pauli_rates": {"px": rates.px[i], "py": rates.py[i], "pz": rates.pz[i]},
        }
        for i, t in enumerate(times)
    ]
    (out_dir / "channels.json").write_text(
        json.dumps(snapshots, default=_json_default) + "\n"
    )

    sweep = cfg["omega_sweep"]
    if sweep:
        omegas = np.geomspace(sweep["omega_min"], sweep["omega_max"], sweep["n"])
        fi = job_integrals(psd, omegas, math.pi / omegas, amp_psd)
        _write_csv(out_dir / "pi_pulse_sweep.csv",
                   ["omega_rad_s", "eps_nm", "eps_nm_i", "eps_d"],
                   zip(omegas, *(gate_error(fi, model) for model in ("NM", "NM_I", "D"))))


def run_validation(cfg, psd, amp_psd, n_haar, n_workers=1):
    """The grid, per-model mean infidelities against the Langevin channel,
    and the ensemble."""
    Omega = cfg["drive"]["omega_rad_s"]
    seed = cfg["simulation"]["seed"]
    # the shortest correlation time of the OU spectra is a dynamical scale too
    taus = [p.tau_c for p in (psd, amp_psd) if p is not None and p.kind == "ou"]
    tau_c = min(taus, default=None)
    dt_max = cfg["simulation"]["dt_s"]
    if dt_max is None:
        dt_max = default_timestep(Omega, tau_c)
    times = time_grid(cfg)
    # the grid is uniform, t_k = k t_1: a whole number of steps per interval,
    # the fewest whose computed length stays within dt_max (the ceiling of the
    # rounded quotient t_1 / dt_max can be one too many, never one too few)
    per = max(math.ceil(times[0] / dt_max) - 1, 1)
    while times[0] / per > dt_max:
        per += 1
    drive = DriveConfig(Omega=Omega, dt=times[0] / per, n_steps=per * times.size,
                        m_mc=cfg["simulation"]["m_mc"])

    ensemble = evolve_ensemble(
        np.stack(list(_BASIS_STATES.values())), drive, _noise_source(psd),
        _noise_source(amp_psd) if amp_psd is not None else None,
        seed=seed, record_every=per,
        chunk=cfg["simulation"]["chunk"], n_workers=n_workers,
    )
    # label the records with the configured grid, not k * per * dt (equal to rounding)
    ensemble = replace(ensemble, times=np.append(0.0, times))

    fi = job_integrals(psd, Omega, times, amp_psd)
    haar = haar_random_state(np.random.default_rng(seed + 99), n_haar)
    # every Haar state (axis 0) at every grid time (axis 1)
    mc_states = bloch_to_rho(np.einsum("tab,nb->nta", ensemble.bloch_map[1:],
                                       rho_to_bloch(haar)))
    haar = haar[:, None]
    mapped = {
        "D": apply_chi(depolarizing_chi(depolarizing_rate(fi)), haar),
        "PT": apply_chi(pauli_chi(pauli_twirl(fi)), haar),
        "NC": apply_kraus(kraus_nc(fi, Omega, times), haar),
        "NM": apply_chi(chi_nm(fi), haar),
    }
    infidelity = {
        model: np.mean(1.0 - state_fidelity(rotate_to_lab(states, Omega, times), mc_states),
                       axis=0)
        for model, states in mapped.items()
    }
    return times, infidelity, ensemble


def _write_ensemble(out_dir, times, ensemble):
    for k, label in enumerate(_BASIS_STATES):
        _write_csv(Path(out_dir) / f"langevin_{label}.csv",
                   ["t", "sx", "sy", "sz", "se_sx", "se_sy", "se_sz"],
                   np.column_stack([ensemble.times, ensemble.pauli_mean[k],
                                    ensemble.pauli_se[k]]))
    snapshots = [
        {
            "t": float(t),
            "states": {label: ensemble.states[k, j + 1]
                       for k, label in enumerate(_BASIS_STATES)},
        }
        for j, t in enumerate(times)
    ]
    (Path(out_dir) / "ensemble_states.json").write_text(
        json.dumps(snapshots, default=_json_default) + "\n"
    )


def _variance_ratio(ensemble):
    """Per grid time, the plain Monte Carlo variance averaged over input states
    and components, divided by the same average of the control-variate
    variance (1 where that is 0)."""
    plain = (ensemble.plain_se[:, 1:] ** 2).mean(axis=(0, 2))
    adjusted = (ensemble.pauli_se[:, 1:] ** 2).mean(axis=(0, 2))
    return np.where(adjusted > 0, plain / np.where(adjusted > 0, adjusted, 1.0), 1.0)


def cmd_validate(args, cfg, out_dir, psd, amp_psd):
    n_haar = cfg["validation"]["n_haar"]
    grid, infidelity, ensemble = run_validation(cfg, psd, amp_psd, n_haar, args.threads)
    _write_ensemble(out_dir, grid, ensemble)

    models = list(infidelity)
    rows = [[t, *[infidelity[m][j] for m in models]] for j, t in enumerate(grid)]
    _write_csv(out_dir / "channel_infidelity.csv", ["t", *[m.lower() for m in models]], rows)
    ratio = _variance_ratio(ensemble)
    report = {
        "time_averaged": {m: float(infidelity[m].mean()) for m in models},
        "peak": {m: float(infidelity[m].max()) for m in models},
        "n_haar": n_haar,
        "mc_variance_ratio": ratio,
    }
    (out_dir / "validation_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True, default=_json_default) + "\n"
    )
    return (f"; median Monte Carlo variance ratio "
            f"(plain / control variate) {float(percentiles(ratio, 50)):.3g}")


def cmd_tomography(args, cfg, out_dir, psd, amp_psd):
    Omega = cfg["drive"]["omega_rad_s"]
    tomo = cfg["tomography"]
    setup = default_setup()
    seed = cfg["simulation"]["seed"]

    if args.counts:
        records = chain_records = counts_from_csv(args.counts)
        chis, _ = mle_fit(records, setup)
        targets = drive_unitary(Omega, np.array([rec.t for rec in records]))
        errors = 1.0 - avg_gate_fidelity(chis, targets)
        results = [{"t": rec.t, "mle_chi": chi_hat, "mle_gate_error": error}
                   for rec, chi_hat, error in zip(records, chis, errors)]
    else:
        times = time_grid(cfg)
        chis_true = chi_full(job_integrals(psd, Omega, times, amp_psd), Omega, times)
        rng = np.random.default_rng(seed)
        n_rep = tomo["repetitions"]
        records, chain_records = [], []
        for probs, t in zip(born_probs(chis_true, setup), times):
            # the n_rep fitted records, then the chain's, in one draw
            drawn = sample_shots(np.broadcast_to(probs, (n_rep + tomo["run_chain"], 4, 3, 2)),
                                 tomo["shots_per_basis"], rng, t=t)
            records += drawn[:n_rep]
            chain_records += drawn[n_rep:]
        chis, _ = mle_fit(records, setup)
        targets = drive_unitary(Omega, times)
        # per time: the true channel, then its n_rep fits
        stack = np.concatenate([chis_true[:, None], chis.reshape(times.size, n_rep, 4, 4)],
                               axis=1)
        errors = 1.0 - avg_gate_fidelity(stack, targets[:, None])
        results = []
        for i, t in enumerate(times):
            fits = np.sort(errors[i, 1:])
            results.append({
                "t": t,
                "true_gate_error": errors[i, 0],
                "mle_mean": float(fits.mean()),
                "mle_quantiles": [float(q) for q in percentiles(fits, (2.5, 97.5))],
            })

    if tomo["run_chain"]:
        # the chain of entry i runs on its own record and stream [seed, i]
        for i, (entry, rec, target) in enumerate(zip(results, chain_records, targets)):
            post = mh_chain(rec, setup, n_steps=tomo["chain_steps"],
                            width=tomo["proposal_width"], seed=[seed, i], target_unitary=target)
            entry["mh"] = {
                "mean_error": post.mean_error,
                "mode_error": post.mode_error,
                "quantiles": list(post.quantiles),
                "acceptance_rate": post.acceptance_rate,
                "proposal_width": post.width,
                "effective_sample_size": post.ess,
            }

    (out_dir / "tomography.json").write_text(
        json.dumps(results, default=_json_default, indent=2) + "\n"
    )


def cmd_rb(args, cfg, out_dir, psd, amp_psd):
    Omega = cfg["drive"]["omega_rad_s"]
    t_pi = math.pi / Omega
    point = job_integrals(psd, Omega, [t_pi], amp_psd).at(0)
    rates = pauli_twirl(point)

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
        "avg_pulses_per_clifford": result.avg_pulses,
        "analytic_eps_nm_pi_pulse": gate_error(point, "NM_I"),
    }
    (out_dir / "rb_fit.json").write_text(json.dumps(fit, indent=2, sort_keys=True) + "\n")


# --------------------------------------------------------------------- #

_COMMANDS = (
    ("predict", cmd_predict, "filtered integrals, channels, error curves"),
    ("validate", cmd_validate, "Langevin ensemble vs analytic channels"),
    ("tomography", cmd_tomography, "MLE / posterior reconstruction per time"),
    ("rb", cmd_rb, "randomized-benchmarking decay simulation"),
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gatenoise",
        description="Error channels of driven single-qubit gates from noise PSDs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, body, help_text in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override simulation.seed")
        p.add_argument("--out", default=None, help="output directory (default from config)")
        p.add_argument("--threads", type=int, default=1, help="worker threads")
        if name == "tomography":
            p.add_argument("--counts", default=None, help="counts CSV instead of synthetic data")
        p.set_defaults(body=body)

    p = sub.add_parser("ingest-psd", help="normalize a raw PSD file")
    p.add_argument("raw_csv")
    p.add_argument("sidecar")
    p.add_argument("--out", required=True)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "ingest-psd":
            return cmd_ingest_psd(args)
        if args.threads < 1:
            raise ValidationError(f"--threads must be >= 1, got {args.threads}")
        if args.threads > 1 and args.body is not cmd_validate:
            raise ValidationError(f"--threads must be 1 for {args.command} "
                                  f"(only validate runs in parallel), got {args.threads}")
        cfg = load_config(args.config, args.seed)
        out_dir = Path(args.out or cfg["outputs"]["dir"])
        made = _make_out_dir(out_dir)
        try:
            suffix = args.body(args, cfg, out_dir, *build_psds(cfg))
        except BaseException:   # a failed run leaves no empty directory of its own behind
            for d in made:
                if any(d.iterdir()):
                    break
                d.rmdir()
            raise
        write_manifest(cfg, out_dir, args.command)
        print(f"{args.command}: wrote {out_dir}{suffix or ''}")
        return 0
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, GateNoiseError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
