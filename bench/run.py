"""lrkengine benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; lrkengine is imported from its ``src/``.
Each workload runs in fresh processes with OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS pinned to 1 and LRK_WORKERS cleared, so
the only parallelism is a workload's own ``workers`` (at most the available
CPUs).  Inputs come from ``--seed`` alone.

``--trace 0`` sets up ``SETUP_REPS`` times (each in its own process) and, in
the last process, runs the closed loop for ``--seconds`` of timed ops.  It
reports the end-to-end metrics: ``setup_s`` (median over the set-ups),
``op_p50_s``, ``ops_per_s`` and ``peak_rss_mb``.  Set-up and op times are
scaled to a reference host speed with a calibration kernel (see
``worker.CALIB_REF_S``).  The raw wall times, ``op_p90_s`` (only with at
least 100 ops), the op count and ``fail_frac`` are printed as extra lines.
``--trace 1`` reports the per-layer metrics of a separate traced run (traced
ops alternating with untraced ones for half of ``--seconds``) and the layer
probes.
The metrics and their units are those BENCHMARK.json lists.
Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload
all`` prints every end-to-end metric of every workload.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probes import outside_roadmap
from worker import CALIB_REF_S, calibrate
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = tuple(WORKLOADS)
SETUP_REPS = 3
#: Every process must be done this long after the run started.
DEADLINE_S = 170.0
#: op_p90_s needs at least ten samples beyond the 90th percentile.
P90_MIN_OPS = 100


def listed_metrics():
    """Metric name -> unit, for trace 0 and trace 1, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def spawn(workload, seed, seconds, mode, workdir, deadline):
    env = {k: v for k, v in os.environ.items() if k != "LRK_WORKERS"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    calib_before = calibrate(WORKLOADS[workload].threads)
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--mode", mode, "--t0", repr(t0), "--workdir", str(workdir)],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {mode} process exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # Like an op, a set-up is scaled by the calibrations around it: the
    # parent's just before the process starts and the worker's first one.
    result["setup_s"] = result["setup_wall_s"] * CALIB_REF_S / (
        0.5 * (calib_before + result["calibrations"][0])
    )
    return result


def measure(workload, seed, seconds, deadline, workdir):
    setups = [spawn(workload, seed, seconds, "setup", workdir, deadline) for _ in range(SETUP_REPS - 1)]
    run = spawn(workload, seed, seconds, "measure", workdir, deadline)
    procs = setups + [run]
    d, wall = run["durations"], run["wall"]
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in procs),
        "op_p50_s": statistics.median(d),
        "ops_per_s": len(d) / sum(d),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    info = {
        "ops": len(d),
        "calibration_ms": 1e3 * statistics.median(run["calibrations"]),
        "wall setup_s": statistics.median(p["setup_wall_s"] for p in procs),
        "wall op_p50_s": statistics.median(wall),
        "wall ops_per_s": len(wall) / sum(wall),
    }
    if len(d) >= P90_MIN_OPS:
        info["op_p90_s"] = statistics.quantiles(d, n=10)[-1]
        info["wall op_p90_s"] = statistics.quantiles(wall, n=10)[-1]
    return procs, metrics, info, run["provenance"]


def trace(workload, seed, seconds, deadline, workdir):
    run = spawn(workload, seed, seconds, "trace", workdir, deadline)
    metrics = {**run["layers"], **run["probes"]}
    info = {
        "traced_ops": len(run["traced"]),
        "untraced_ops": len(run["untraced"]),
        **run["optional"],
    }
    for name, rng in outside_roadmap(run["probes"]).items():
        info[f"{name} outside roadmap range"] = f"{rng[0]}-{rng[1]}"
    return [run], metrics, info, run["provenance"]


def run_workload(workload, seed, seconds, traced, deadline):
    workdir = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    try:
        procs, metrics, info, prov = (trace if traced else measure)(
            workload, seed, seconds, deadline, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(p["attempted"] for p in procs)
    failed = sum(p["failed"] for p in procs)
    info["fail_frac"] = failed / attempted
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "info": info, "provenance": prov}


def print_report(workload, res, units):
    print(f"== {workload}: {res['attempted']} ops attempted, {res['failed']} failed")
    for name, value in res["metrics"].items():
        print(f"  {name:32s} {value:>16.6g} {units.get(name, '')}")
    for name, value in res["info"].items():
        print(f"  {name:32s} {value}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "lrkengine" / "__init__.py").is_file():
        print(f"bench: no lrkengine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = listed_metrics()[args.trace]
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    missing = {name: sorted(units.keys() - res["metrics"].keys()) for name, res in results.items()}
    if any(missing.values()):
        print(f"bench: metrics listed in BENCHMARK.json but not measured: {missing}", file=sys.stderr)
        return 1
    print("provenance: " + json.dumps(next(iter(results.values()))["provenance"], sort_keys=True))
    final = {}
    for name, res in results.items():
        print_report(name, res, units)
        final[name] = {
            "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {k: {"value": res["metrics"][k], "unit": u} for k, u in units.items()},
        }
    print(json.dumps(final if args.workload == "all" else final[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
