"""gatenoise benchmark: one workload, one seed, a fixed measuring time.

Usage (from the repository root):

    python3 bench/run.py --workload ou-validate --seed 1 --seconds 30 --trace 0

Writes the workload's inputs from ``--seed`` into ``.bench_run/``, then runs
fresh ``bench/child.py`` processes one after another until ``--seconds``
have passed.  Each child times set-up and one pass over the workload's steps
and checks the outputs.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the medians of the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the medians of its per-layer metrics, from traced children
alternating with untraced ones (the difference of their wall times is
``trace.overhead_s``).  ``--scale`` below 1 shrinks every step for smoke
tests.  Exit code 2, with no result printed, if the program's sources or
BENCHMARK.json are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARD_LIMIT_S = 170.0   # the whole run, input generation included
BLAS_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="shrink every step (smoke tests); 1 is the benchmark")
    return p.parse_args(argv)


def provenance(seed):
    """Machine and library facts printed with every run (see provenance.json)."""
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_env": BLAS_ENV, "seed": seed}


def run_child(run_dir, traced, timeout):
    """One child process; returns (result, None) or (None, error)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_ENV)
    cmd = [sys.executable, str(HERE / "child.py"), str(run_dir)] + (["--trace"] if traced else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"child killed after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"child exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(lines[-1]), None


def median_of(results, key):
    names = results[0][key].keys()
    return {name: statistics.median(r[key][name] for r in results) for name in names}


def main(argv=None):
    begin = time.perf_counter()
    args = parse_args(argv)
    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "gatenoise" / "cli.py").is_file() or not bench_file.is_file():
        print("bench: src/gatenoise or BENCHMARK.json missing; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(bench_file.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"bench: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import write_inputs

    run_dir = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    write_inputs(run_dir, args.workload, args.seed, args.scale)
    print(json.dumps({"provenance": provenance(args.seed)}))

    plain, traced, failures = [], [], []
    attempted = 0
    start = time.perf_counter()
    try:
        while True:
            use_trace = bool(args.trace) and len(traced) < len(plain)
            child_start = time.perf_counter()
            result, error = run_child(run_dir, use_trace,
                                      HARD_LIMIT_S - (child_start - begin))
            if result is None:
                attempted += 1
                failures.append(error)
            else:
                attempted += result["attempted"]
                failures += result["failures"]
                if use_trace:
                    attempted += 1
                    gaps = result["accounting"]
                    worst = max(abs(v) for v in gaps.values())
                    if worst > 1e-6:
                        failures.append(f"trace accounting gap {worst:.2e} s: {gaps}")
                    traced.append(result)
                else:
                    plain.append(result)
                print("# child " + ("traced " if use_trace else "") + " ".join(
                    f"{k}={v:.4g}" for k, v in result["metrics"].items()))
            now = time.perf_counter()
            enough = plain and (traced or not args.trace)
            no_room = HARD_LIMIT_S - (now - begin) < 2 * (now - child_start)
            if (now - start >= args.seconds and enough) or no_room:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if not plain or (args.trace and not traced):
        print(f"bench: no iteration completed: {failures[:3]}", file=sys.stderr)
        return 1
    e2e = median_of(plain, "metrics")
    if args.trace:
        values = median_of(traced, "layers")
        values["trace.overhead_s"] = (
            statistics.median(r["metrics"]["wall_s"] for r in traced) - e2e["wall_s"])
        plain_steps = median_of(plain, "steps")
        for step, t in median_of(traced, "steps").items():
            print(f"# step {step}: traced {t:.4f} s (= sum of layer self times), "
                  f"untraced {plain_steps[step]:.4f} s, difference {t - plain_steps[step]:+.4f} s")
    else:
        values = e2e
    for name, ok, detail in plain[-1]["checks"]:
        print(f"# check {name}: {'ok' if ok else 'FAILED'}, {detail}")
    for failure in failures:
        print(f"# FAILED {failure}")
    print(f"# fail_frac {len(failures) / attempted:.4g} ({len(failures)}/{attempted}), "
          f"{len(plain)} untraced + {len(traced)} traced iterations")
    for name, value in median_of(plain, "unscaled").items():
        print(f"# unscaled {name} {value:.6g} s (wall clock, before the speed-probe scaling)")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"# {m['name']} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
