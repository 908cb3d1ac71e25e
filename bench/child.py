"""One benchmark iteration in a fresh process.

Usage: python3 bench/child.py RUN_DIR [--trace]

Times set-up (import of ``gatenoise.cli`` plus its lazy tables), then runs
the steps of the workload described by ``RUN_DIR/plan.json`` once, checks
every output and prints one JSON object as its last line of standard output.
With ``--trace`` the calls into each module are wrapped (see tracing.py) and
the per-layer metrics are reported instead of being left out.  Times are
reported in reference seconds (see speed.py): each step is bracketed by speed
probes, which run outside every timed interval.
"""

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import gatenoise.cli as cli  # noqa: E402
from gatenoise.tomography import clifford_table, default_setup  # noqa: E402

default_setup()
clifford_table()
SETUP_S = time.perf_counter() - T_START

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import OMEGA, STEPS, T_MAX  # noqa: E402


def _cli(argv):
    """Run one CLI command with its chatter captured; returns the exit code."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def _ncp(run_dir, plan):
    import gatenoise.channels as channels
    from gatenoise.psd import NoisePsd

    ing = run_dir / "ingested"
    psd = NoisePsd.from_files(ing / "psd_normalized.csv", ing / "psd_normalized.json")
    return channels.nm_measure(psd, OMEGA, T_MAX, n_grid=plan["sizes"]["ncp"]["n_grid"])


def run(run_dir, trace):
    run_dir = Path(run_dir)
    plan = json.loads((run_dir / "plan.json").read_text())
    run_id = f"{plan['workload']}-{plan['seed']}-{os.getpid()}"
    tracer = tracing.Tracer(run_id) if trace else None
    if tracer is not None:
        tracing.instrument(tracer)

    steps = [("ingest_psd", ["ingest-psd", str(run_dir / "raw_psd.csv"),
                             str(run_dir / "raw_psd.json"), "--out", str(run_dir / "ingested")])]
    for step in STEPS:
        if step == "ncp":
            steps.append((step, None))
            continue
        argv = ["tomography" if step.startswith("tomography") else step,
                "--config", str(run_dir / f"cfg_{step}.json"),
                "--out", str(run_dir / f"out_{step}"), "--threads", "1"]
        if step == "tomography_counts":
            argv += ["--counts", str(run_dir / "counts.csv")]
        steps.append((step, argv))

    raw = {}
    times = {}
    failures = []
    attempted = 0
    ncp_result = None
    raw_wall = wall_s = 0.0
    speed.probe()   # warm-up: the first pass in a process pays for page faults
    before = first = speed.probe()
    for step, argv in steps:
        samples = []
        for _ in range(plan["sizes"].get(step, {}).get("reps", 1)):
            attempted += 1
            ctx = tracer.span(f"step.{step}") if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            try:
                with ctx:
                    if argv is None:
                        ncp_result = _ncp(run_dir, plan)
                        code = 0
                    else:
                        code = _cli(argv)
            except Exception as exc:  # a crash is a failed operation, not a benchmark error
                code = f"{type(exc).__name__}: {exc}"
            samples.append(time.perf_counter() - t0)
            if code != 0:
                failures.append(f"{step}: exit {code}")
        after = speed.probe()
        k = speed.scale(before, after)
        before = after
        raw[step] = statistics.median(samples)
        times[step] = k * raw[step]
        raw_wall += sum(samples)
        wall_s += k * sum(samples)

    check_log = []
    for name, ok, detail in checks.check_all(run_dir, plan, ncp_result):
        attempted += 1
        check_log.append([name, ok, detail])
        if not ok:
            failures.append(f"check {name}: {detail}")

    se2 = checks.mean_se2(run_dir / "out_validate")
    metrics = {
        "setup_s": SETUP_S * speed.REF_PROBE_S / first,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for step in STEPS:
        metrics[f"{step}_s"] = times[step]
    metrics["validate_cost_s_se2"] = times["validate"] * se2
    unscaled = {"setup_s": SETUP_S, "wall_s": raw_wall, "validate_cost_s_se2": raw["validate"] * se2,
                **{f"{step}_s": raw[step] for step in STEPS}}
    result = {"attempted": attempted, "failures": failures, "checks": check_log,
              "metrics": metrics, "unscaled": unscaled, "steps": raw}

    if tracer is not None:
        tracer.uninstall()
        layers, accounting = tracing.layer_metrics(tracer)
        layers["cli.output_bytes"] = sum(
            p.stat().st_size for step in STEPS for p in (run_dir / f"out_{step}").glob("*")
            if p.is_file())
        result["layers"] = layers
        result["accounting"] = accounting
        traces = run_dir.parent / "traces"
        traces.mkdir(exist_ok=True)
        tracer.dump(traces / f"{run_id}.json")
    return result


if __name__ == "__main__":
    out = run(sys.argv[1], "--trace" in sys.argv[2:])
    print(json.dumps(out))
