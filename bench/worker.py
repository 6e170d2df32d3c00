"""One benchmark process for one workload, started fresh by ``run.py``.

Modes:

* ``setup``: import, input generation and one warm-up op, then exit.
* ``measure``: the same set-up, then the closed loop with tracing off until
  the timed ops add up to ``--seconds``.
* ``trace``: the same set-up, then traced ops alternating with untraced ones
  for half of ``--seconds``, then the layer probes.

Set-up time runs from ``--t0`` (the parent's CLOCK_MONOTONIC reading just
before it started this process) to the end of the warm-up op; the check of
that op, like every check, is left out.  Every op's output is checked outside
the timed region.  Times are reported as measured (``wall``); op times are
also reported scaled by the calibration kernel (see ``CALIB_REF_S``), and
``run.py`` scales the set-up time with the first calibration.  The last line
of stdout is one JSON object.
"""

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from probes import run_probes
from spans import LAYERS, Tracer
from workloads import (
    ROOT,
    SRC,
    STREAM_MEASURE,
    STREAM_TRACE,
    STREAM_WARMUP,
    WORKLOADS,
    available_cpus,
    import_engine,
)

#: Op and set-up times are scaled by CALIB_REF_S / (mean time of the
#: calibration kernel run just before and just after them).  On a VM whose
#: host is shared (measured on a 2-vCPU x86_64 VM) speed drifts by up to 2x
#: within seconds, and under a busy host raw wall times of whole runs spread
#: by 15-40% across runs.  The kernel slows down with the same neighbours, so
#: scaled times are seconds on a host where the kernel takes CALIB_REF_S,
#: about its best time on that VM when idle.  Raw wall times are reported
#: next to them.
CALIB_REF_S = 2.5e-3
_CALIB_MODES = np.linspace(0.1, 3.0, 1000)  # as long as a mode vector at L = 2000
_CALIB_LARGE = np.linspace(0.0, 1.0, 200_000)
_CALIB_VALUES = [i * 0.1234567 for i in range(2000)]
#: A process stops starting ops this long after it began, whatever --seconds says.
WALL_LIMIT_S = 150.0
#: A traced run spends this share of --seconds on ops, with at least this
#: many traced and as many untraced ones; the layer probes take the rest.
TRACE_OPS_SHARE = 0.5
MIN_TRACED_OPS = 2
MAX_PROBLEMS = 5
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "LRK_WORKERS")


def _calibration_kernel():
    for _ in range(60):
        t = np.tanh(0.5 * _CALIB_MODES)
        float((t * np.log(np.cosh(_CALIB_MODES))).sum() + np.hypot(_CALIB_MODES, t).max())
    np.exp(-_CALIB_LARGE).sum()
    "".join("%.17g" % v for v in _CALIB_VALUES)


def calibrate(threads=1):
    """Time per kernel copy, best of three, of a fixed kernel that does not
    touch lrkengine but has the workloads' mix: numpy calls on mode-sized
    vectors, one pass over a large array and float formatting.  ``threads``
    copies run at once, as many as the op keeps busy, so that they meet the
    same contention for the CPUs and the interpreter lock."""
    best = float("inf")
    with ThreadPoolExecutor(threads) as pool:
        for _ in range(3):
            start = time.perf_counter()
            for future in [pool.submit(_calibration_kernel) for _ in range(threads)]:
                future.result()
            best = min(best, time.perf_counter() - start)
    return best / threads


def clear_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


class Runner:
    """Runs ops one after another, timing the op alone and checking each."""

    def __init__(self, workload, lrk, workdir, t0):
        self.workload, self.lrk, self.workdir, self.t0 = workload, lrk, workdir, t0
        self.attempted = self.failed = 0
        self.problems = []
        self.digests = []
        self.tracer = None
        self.last_end = None  # CLOCK_MONOTONIC at the end of the latest op
        self.calibrations = []  # one calibration after every op

    def op(self, inp):
        clear_dir(self.workdir)
        tracer = self.tracer
        cache_before = tracer.grid_pairing.cache_info() if tracer and tracer.grid_pairing else None
        if tracer:
            tracer.op += 1
            tracer.active = True
        out = error = None
        start = time.perf_counter()
        try:
            out = self.workload.run(self.lrk, inp, self.workdir)
        except Exception:
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
        self.last_end = time.monotonic()
        if tracer:
            tracer.active = False
        self.calibrations.append(calibrate(self.workload.threads))
        if tracer:
            self._count_traced(cache_before)
        self.attempted += 1
        problems = [f"op raised:\n{error}"] if error else []
        if not error:
            try:
                found, digest = self.workload.check(self.lrk, inp, out, self.workdir)
                problems.extend(found)
                self.digests.append(digest)
            except Exception:
                problems.append(f"check raised:\n{traceback.format_exc()}")
        if problems:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append({"input": inp, "problems": problems})
            for line in problems:
                print(f"{self.workload.name}: {line}", file=sys.stderr)
        return elapsed

    def _count_traced(self, cache_before):
        tracer = self.tracer
        if cache_before is not None:
            after = tracer.grid_pairing.cache_info()
            tracer.add(**{
                "chain.pairing_hits": after.hits - cache_before.hits,
                "chain.pairing_misses": after.misses - cache_before.misses,
            })
        for path in self.workdir.glob("*"):
            data = path.read_bytes()
            tracer.add(**{"cli.bytes_written": len(data)})
            if path.suffix == ".csv":
                tracer.add(**{"cli.rows_written": data.count(b"\n") - 1})

    def loop(self, inputs, seconds=float("inf"), min_ops=1):
        """Run ops over ``inputs`` until their wall times add up to ``seconds``;
        return the wall times and the scaled times.  Each op is scaled by the
        mean of the calibrations just before and just after it."""
        wall, scaled = [], []
        for inp in inputs:
            done = sum(wall) >= seconds and len(wall) >= min_ops
            if done or time.monotonic() - self.t0 > WALL_LIMIT_S:
                break
            before = self.calibrations[-1]
            wall.append(self.op(inp))
            scaled.append(wall[-1] * CALIB_REF_S / (0.5 * (before + self.calibrations[-1])))
        return wall, scaled


def provenance(lrk):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_available": available_cpus(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "lrkengine": lrk.__version__,
        "git_commit": commit,
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")),
    }


def layer_metrics(tracer, n_ops, untraced, traced):
    """Per-layer metrics of the traced ops, per op where they are counts or times."""
    calls, self_s = tracer.layer_times()
    busy = sum(self_s.values())
    c = tracer.counts
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = calls[layer] / n_ops
        m[f"{layer}.self_s"] = self_s[layer] / n_ops
        m[f"{layer}.share"] = self_s[layer] / busy if busy else 0.0
    m["cycles.cells"] = c["cycles.cells"] / n_ops
    m["cycles.cells_per_s"] = c["cycles.cells"] / c["cycles.mode_sum_s"] if c["cycles.mode_sum_s"] else 0.0
    for key in ("tables", "point_evals", "max_ratios_calls", "cusp_exemptions", "excluded_cells"):
        m[f"sweep.{key}"] = c[f"sweep.{key}"] / n_ops
    maxes = c["sweep.max_ratios_calls"]
    m["sweep.point_evals_per_max"] = c["sweep.point_evals"] / maxes if maxes else 0.0
    m["cli.bytes_written"] = c["cli.bytes_written"] / n_ops
    m["cli.rows_written"] = c["cli.rows_written"] / n_ops
    m["cli.bytes_per_s"] = c["cli.bytes_written"] / self_s["cli"] if self_s["cli"] else 0.0
    m["trace_overhead"] = statistics.median(traced) / statistics.median(untraced) - 1.0

    optional = {}
    if tracer.wrapped_pairing_sum:
        optional["chain.pairing_builds"] = c["chain.pairing_builds"] / n_ops
        optional["chain.pairing_terms"] = c["chain.pairing_terms"] / n_ops
    else:
        optional["chain.pairing_builds"] = optional["chain.pairing_terms"] = "absent"
    lookups = c["chain.pairing_hits"] + c["chain.pairing_misses"]
    if tracer.grid_pairing is None:
        optional["chain.pairing_hit_ratio"] = "absent"
    else:
        optional["chain.pairing_hit_ratio"] = c["chain.pairing_hits"] / lookups if lookups else 0.0
    return m, optional


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]

    def stream(seed, kind):
        return (workload.make_input(seed, kind, i) for i in itertools.count())

    lrk = import_engine()
    runner = Runner(workload, lrk, Path(args.workdir) / "op", args.t0)
    runner.op(workload.make_input(args.seed, STREAM_WARMUP, 0))
    result = {"setup_wall_s": runner.last_end - args.t0}
    if args.mode == "measure":
        result["wall"], result["durations"] = runner.loop(stream(args.seed, STREAM_MEASURE), args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["provenance"] = provenance(lrk)
    elif args.mode == "trace":
        # Traced and untraced ops alternate, so host-speed drift cancels out of
        # trace_overhead; only the traced ones feed the layer metrics.
        tracer = Tracer()
        traced, untraced, wall = [], [], []
        for j, inp in enumerate(stream(args.seed, STREAM_TRACE)):
            if j % 2 == 0:
                if sum(wall) >= TRACE_OPS_SHARE * args.seconds and len(traced) >= MIN_TRACED_OPS:
                    break
                tracer.install(lrk)
                runner.tracer = tracer
            try:
                op_wall, scaled = runner.loop([inp])
            finally:
                tracer.uninstall()
                runner.tracer = None
            if not op_wall:  # past WALL_LIMIT_S
                break
            wall += op_wall
            (traced if j % 2 == 0 else untraced).extend(scaled)
        layers, optional = layer_metrics(tracer, len(traced), untraced, traced)
        probes = run_probes(lrk, Path(args.workdir) / "probe")
        result.update(
            layers=layers, optional=optional, probes=probes, traced=traced, untraced=untraced,
            provenance=provenance(lrk),
        )
        trace_file = Path(args.workdir).parent / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"result": result, "trace": tracer.dump()}) + "\n")
    result.update(
        attempted=runner.attempted, failed=runner.failed, problems=runner.problems,
        digests=runner.digests, calibrations=runner.calibrations,
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
