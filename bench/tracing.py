"""Spans and counters recorded around calls into gatenoise's modules.

Nothing in ``src/`` is edited: ``install`` replaces a function with a timing
wrapper at the name its caller looks it up by (the CLI binds names at import,
so e.g. ``gatenoise.cli.evolve_ensemble``; methods are patched on their
class).  Each wrapped call at a layer boundary records one span with its
name, start, end, parent span and run id.  Functions called ~1e5 times per
run (``apply_chi``, ``state_fidelity``, ``born_probs``, ``psd.eval``...) are
aggregated instead: one count and one total time per name.

Every span carries the time of its children (child spans and aggregated
calls), so its self time is its duration minus that.  Spans stay in memory
and are written once, by ``Tracer.dump``, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

import numpy as np

now = time.perf_counter


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []            # [name, start, end, parent, child_s]
        self.stack = []            # indices of open spans
        self.aggregates = defaultdict(lambda: [0, 0.0])   # name -> [calls, total_s]
        self.by_root = defaultdict(lambda: defaultdict(float))  # step -> name -> s
        self.counters = defaultdict(float)
        self._restore = []

    # ---------------------------------------------------------------- #
    # recording

    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, now(), None, parent, 0.0])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index):
        span = self.spans[index]
        span[2] = now()
        self.stack.pop()
        if span[3] is not None:
            self.spans[span[3]][4] += span[2] - span[1]

    @contextlib.contextmanager
    def span(self, name):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def inside(self, name):
        """Whether an open span has this name."""
        return any(self.spans[i][0] == name for i in self.stack)

    def count(self, name, value=1.0):
        self.counters[name] += value

    # ---------------------------------------------------------------- #
    # wrapping

    def install(self, owner, attr, name, *, aggregate=False, after=None):
        """Wrap ``owner.attr``; ``after(tracer, args, kwargs, result)`` counts work."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original
        tracer = self

        if aggregate:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                t0 = now()
                result = func(*args, **kwargs)
                dt = now() - t0
                agg = tracer.aggregates[name]
                agg[0] += 1
                agg[1] += dt
                if tracer.stack:
                    tracer.spans[tracer.stack[-1]][4] += dt
                    tracer.by_root[tracer.stack[0]][name] += dt
                if after is not None:
                    after(tracer, args, kwargs, result)
                return result
        else:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                index = tracer.open(name)
                try:
                    result = func(*args, **kwargs)
                finally:
                    tracer.close(index)
                if after is not None:
                    after(tracer, args, kwargs, result)
                return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ---------------------------------------------------------------- #
    # results

    def roots(self):
        """Indices of the top-level spans (one per benchmark step)."""
        return [i for i, span in enumerate(self.spans) if span[3] is None]

    def self_times(self, root):
        """Self time per span or aggregate name inside top-level span ``root``.

        Aggregated calls have no children, so their total is their self time.
        """
        top = [root]
        for i in range(root + 1, len(self.spans)):
            if self.spans[i][3] is None:
                break
            top.append(i)
        out = defaultdict(float)
        for i in top:
            name, start, end, _parent, child_s = self.spans[i]
            out[name] += (end - start) - child_s
        for name, total in self.by_root.get(root, {}).items():
            out[name] += total
        return dict(out)

    def dump(self, path):
        records = [
            {"name": n, "start": s, "end": e, "parent": p, "child_s": c, "run_id": self.run_id}
            for n, s, e, p, c in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": records,
                       "aggregates": {k: {"calls": v[0], "total_s": v[1]}
                                      for k, v in self.aggregates.items()},
                       "counters": dict(self.counters)}, fh)


# --------------------------------------------------------------------- #
# the boundaries traced in gatenoise

SCORE = ("channels.apply_chi", "channels.apply_kraus", "channels.state_fidelity",
         "channels.rotate_to_lab")
BUILDERS = ("chi_nm", "kraus_nc", "chi_full", "pauli_twirl", "depolarizing_chi",
            "pauli_chi", "depolarizing_rate", "gate_error", "drive_unitary")


def instrument(tracer):
    """Wrap the public functions of every gatenoise module the CLI calls."""
    import gatenoise.channels as channels
    import gatenoise.cli as cli
    import gatenoise.tomography as tomography
    from gatenoise.noise import OUSource, PsdSource
    from gatenoise.psd import NoisePsd

    def eval_points(tr, args, kwargs, result):
        n = np.size(args[1])
        tr.count("psd.eval_points", n)
        if tr.inside("filters.filtered_integrals"):
            tr.count("filters.integrand_points", n)

    def draws(source):
        def after(tr, args, kwargs, result):
            tr.count(f"noise.{source}.draws", len(args[2]) * args[3])
        return after

    def ensemble(tr, args, kwargs, result):
        drive = args[1]
        tr.count("langevin.ensembles")
        tr.count("langevin.traj_steps", drive.m_mc * drive.n_steps)
        tr.counters["langevin.max_norm_drift"] = max(
            tr.counters["langevin.max_norm_drift"], result.max_norm_drift)

    def chain(tr, args, kwargs, result):
        n_steps = kwargs["n_steps"]
        kept = n_steps - int(0.1 * n_steps)
        tr.count("tomography.mh_steps", n_steps)
        tr.count("tomography.mh_kept", kept)
        tr.count("tomography.mh_accepted", result.acceptance_rate * kept)

    def rb(tr, args, kwargs, result):
        tr.count("tomography.rb_sequences", kwargs["n_seq"] * len(kwargs["lengths"]))

    tracer.install(NoisePsd, "from_files", "psd.from_files")
    tracer.install(NoisePsd, "eval", "psd.eval", aggregate=True, after=eval_points)
    tracer.install(NoisePsd, "autocovariance", "psd.autocovariance",
                   after=lambda tr, a, k, r: tr.count("psd.autocovariance_points",
                                                      np.size(a[1])))
    tracer.install(cli, "filtered_integrals", "filters.filtered_integrals",
                   after=lambda tr, a, k, r: tr.count("filters.time_points", r.times.size))
    tracer.install(OUSource, "increments_block", "noise.ou", after=draws("ou"))
    tracer.install(PsdSource, "increments_block", "noise.fourier", after=draws("fourier"))
    tracer.install(cli, "evolve_ensemble", "langevin.evolve_ensemble", after=ensemble)
    for name in ("apply_chi", "apply_kraus", "state_fidelity", "rotate_to_lab",
                 "avg_gate_fidelity", "haar_random_state"):
        tracer.install(cli, name, f"channels.{name}", aggregate=True)
    for name in BUILDERS:
        tracer.install(cli, name, f"channels.build.{name}", aggregate=True)
    tracer.install(channels, "nm_measure", "channels.nm_measure")
    tracer.install(cli, "mle_fit", "tomography.mle_fit")
    tracer.install(cli, "mh_chain", "tomography.mh_chain", after=chain)
    tracer.install(cli, "rb_simulate", "tomography.rb_simulate", after=rb)
    tracer.install(tomography, "born_probs", "tomography.born_probs", aggregate=True)
    tracer.install(cli, "born_probs", "tomography.born_probs", aggregate=True)


CLI_STEPS = ("ingest_psd", "predict", "validate", "tomography_counts",
             "tomography_synth", "rb")


def layer_metrics(tracer):
    """Per-layer metrics of one traced process, plus the accounting check.

    Returns (metrics, accounting) where ``accounting`` maps each step to the
    largest gap between its span duration and the sum of all self times
    inside it (zero up to rounding when every span closed under its parent).
    """
    spans = tracer.spans
    total = defaultdict(float)          # inclusive time per span name
    self_s = defaultdict(float)         # self time per span / aggregate name
    accounting = {}
    for root in tracer.roots():
        parts = tracer.self_times(root)
        name, start, end = spans[root][:3]
        gap = abs((end - start) - sum(parts.values()))
        accounting[name] = max(gap, accounting.get(name, 0.0))
        for key, value in parts.items():
            self_s[key] += value
    for name, start, end, _parent, _child in spans:
        total[name] += end - start
    calls = defaultdict(int)
    for name, (n, _t) in tracer.aggregates.items():
        calls[name] += n
    agg_s = {name: t for name, (_n, t) in tracer.aggregates.items()}
    c = tracer.counters

    def ratio(a, b):
        return a / b if b else 0.0

    def layer_self(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    n_build = sum(calls[f"channels.build.{b}"] for b in BUILDERS)
    mh_steps = c["tomography.mh_steps"]
    fits = sum(1 for s in spans if s[0] == "tomography.mle_fit")
    m = {
        "psd.from_files_s": total["psd.from_files"],
        "psd.eval_calls": calls["psd.eval"],
        "psd.eval_points": c["psd.eval_points"],
        "psd.autocovariance_points": c["psd.autocovariance_points"],
        "psd.autocovariance_s": total["psd.autocovariance"],
        "psd.self_s": layer_self("psd."),
        "filters.calls": sum(1 for s in spans if s[0] == "filters.filtered_integrals"),
        "filters.time_points": c["filters.time_points"],
        "filters.integrand_points": c["filters.integrand_points"],
        "filters.self_s": self_s["filters.filtered_integrals"],
        "filters.s_per_time_point": ratio(total["filters.filtered_integrals"],
                                          c["filters.time_points"]),
        "noise.ou.draws": c["noise.ou.draws"],
        "noise.ou.draws_per_s": ratio(c["noise.ou.draws"], total["noise.ou"]),
        "noise.fourier.draws": c["noise.fourier.draws"],
        "noise.fourier.draws_per_s": ratio(c["noise.fourier.draws"], total["noise.fourier"]),
        "noise.self_s": layer_self("noise."),
        "langevin.ensembles": c["langevin.ensembles"],
        "langevin.traj_steps": c["langevin.traj_steps"],
        "langevin.self_s": self_s["langevin.evolve_ensemble"],
        "langevin.traj_steps_per_s": ratio(c["langevin.traj_steps"],
                                           self_s["langevin.evolve_ensemble"]),
        "langevin.max_norm_drift": c["langevin.max_norm_drift"],
        "channels.apply_calls": calls["channels.apply_chi"] + calls["channels.apply_kraus"],
        "channels.fidelity_calls": (calls["channels.state_fidelity"]
                                    + calls["channels.avg_gate_fidelity"]),
        "channels.score_s": sum(agg_s.get(k, 0.0) for k in SCORE),
        "channels.build_calls": n_build,
        "channels.build_s": sum(agg_s.get(f"channels.build.{b}", 0.0) for b in BUILDERS),
        "channels.nm_measure_s": self_s["channels.nm_measure"],
        "channels.self_s": layer_self("channels."),
        "tomography.born_probs_calls": calls["tomography.born_probs"],
        "tomography.mle_fits": fits,
        "tomography.mle_s_per_fit": ratio(total["tomography.mle_fit"], fits),
        "tomography.mh_steps": mh_steps,
        "tomography.mh_us_per_step": 1e6 * ratio(total["tomography.mh_chain"], mh_steps),
        "tomography.mh_acceptance": ratio(c["tomography.mh_accepted"],
                                          c["tomography.mh_kept"]),
        "tomography.rb_sequences": c["tomography.rb_sequences"],
        "tomography.rb_s": total["tomography.rb_simulate"],
        "tomography.self_s": layer_self("tomography."),
    }
    for step in CLI_STEPS:
        m[f"cli.{step}.self_s"] = self_s[f"step.{step}"]
    return m, accounting
