"""Write one ``BENCH_<n>.json`` record of a checkout.

    python3 tools/bench_record.py --repo CHECKOUT --out BENCH_n.json

The record holds:

* provenance: nproc, Python, numpy and its BLAS, the thread settings, the
  checkout's git commit (``-dirty`` when the tree has uncommitted changes)
  and a SHA-256 over the paths and bytes of its ``src/`` Python files, which
  identifies a measured tree that no commit holds;
* the line count of the checkout's ``src/`` Python files;
* the output of ``python3 bench/run.py --workload all --seed 0 --seconds 15``
  in the checkout;
* wall times and peak RSS of full default-grid ``lrk optimal`` runs, both
  cycles, beta_c 5 and 0.05, workers 1 and 2, each as the median and range
  of 3 runs, with the SHA-256 of each ``optimal.json`` (equal across runs).
  A run's peak RSS is the ``ru_maxrss`` that ``os.wait4`` reports for its
  process, which covers its forked parts;
* the same for whole CSV-writing runs: ``lrk spectrum`` at L = 2000 with 201
  mu steps (the shape of the cli-io workload) and ``lrk reproduce-figure 1``,
  with the SHA-256 of every CSV they write;
* the tier-1 wall time, its outcome counts and its five slowest tests.

The ``lrk`` runs pin OPENBLAS/OMP/MKL threads to 1, as ``bench/run.py``
does, so the only parallelism is ``--workers``; tier-1 runs with the
environment as given.  Every process runs from the checkout's ``src/``.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUNS, SEED, SECONDS = 3, 0, 15

PROBE = """
import json, numpy as np
blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
keep = ("name", "version", "openblas configuration")
print(json.dumps({"numpy": np.__version__, "blas": {k: blas[k] for k in keep if k in blas}}))
"""


def env_for(repo, pinned):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repo) / "src")
    if pinned:
        env.update(PINNED)
    return env


def provenance(repo):
    probe = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                           check=True, env=env_for(repo, False))
    commit = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=12"],
                            cwd=repo, capture_output=True, text=True).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **json.loads(probe.stdout),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "lrk_runs_thread_env": PINNED,
        "commit": commit,
        "src_sha256": src_sha256(repo),
    }


def src_files(repo):
    src = Path(repo) / "src"
    return [(p.relative_to(src).as_posix(), p.read_bytes()) for p in sorted(src.rglob("*.py"))]


def src_sha256(repo):
    digest = hashlib.sha256()
    for name, data in src_files(repo):
        digest.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    return digest.hexdigest()


def src_lines(repo):
    return sum(len(data.splitlines()) for _, data in src_files(repo))


def bench_all(repo):
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "all", "--seed",
                           str(SEED), "--seconds", str(SECONDS)], cwd=repo, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        return {"exit": proc.returncode, "stderr": proc.stderr[-2000:]}
    return {"seed": SEED, "seconds": SECONDS,
            "result": json.loads(proc.stdout.strip().splitlines()[-1]),
            "report": proc.stdout.strip().splitlines()[:-1]}


def timed_run(argv, env):
    """Run ``argv`` to completion: its wall time in s and its peak RSS in MB."""
    t0 = time.monotonic()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    # wait4 reports this child's own rusage; RUSAGE_CHILDREN would be the
    # largest peak of all children reaped so far.
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, argv)
    return wall, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def timed_runs(repo, args, pattern):
    """``RUNS`` runs of ``lrk args``: wall time and peak RSS as median and range, and
    per output file matching ``pattern`` its distinct SHA-256 values over the runs."""
    walls, rss, digests = [], [], {}
    for _ in range(RUNS):
        with tempfile.TemporaryDirectory() as tmp:
            argv = [sys.executable, "-m", "lrkengine.cli", *args, "-o", tmp]
            wall, peak = timed_run(argv, env_for(repo, True))
            walls.append(wall)
            rss.append(peak)
            for path in sorted(Path(tmp).glob(pattern)):
                digests.setdefault(path.name, set()).add(
                    hashlib.sha256(path.read_bytes()).hexdigest())
    print(*args, walls, rss, file=sys.stderr, flush=True)
    return {
        "median_s": round(statistics.median(walls), 3),
        "range_s": [round(min(walls), 3), round(max(walls), 3)],
        "runs_s": [round(w, 3) for w in walls],
        "peak_rss_mb_median": round(statistics.median(rss), 1),
        "peak_rss_mb_range": [round(min(rss), 1), round(max(rss), 1)],
        "sha256": {name: sorted(d) for name, d in digests.items()},
    }


def optimal_times(repo):
    out = {}
    for cycle in ("stirling", "otto"):
        for beta_c in ("5", "0.05"):
            for workers in ("1", "2"):
                run = timed_runs(repo, ["optimal", "--cycle", cycle, "--beta-c", beta_c,
                                        "--workers", workers], "optimal.json")
                run["optimal_json_sha256"] = run.pop("sha256")["optimal.json"]
                out[f"{cycle} beta_c={beta_c} workers={workers}"] = run
    return out


#: Whole runs that write CSVs: the cli-io workload's shape, and figure 1's four tables.
CSV_RUNS = {
    "spectrum --alpha 1.5 (L=2000, 201 mu steps)": ["spectrum", "--alpha", "1.5"],
    "reproduce-figure 1": ["reproduce-figure", "1"],
}


def csv_run_times(repo):
    return {name: timed_runs(repo, args, "*.csv") for name, args in CSV_RUNS.items()}


def tier1(repo):
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors", "--durations=5"],
                          cwd=repo, capture_output=True, text=True, env=env_for(repo, False))
    wall = time.monotonic() - t0
    lines = proc.stdout.splitlines()
    slowest = [ln.strip() for ln in lines if re.match(r"^\s*[\d.]+s (call|setup|teardown)", ln)]
    summary = next((ln for ln in reversed(lines) if re.search(r"\d+ (passed|failed)", ln)), "")
    return {"wall_s": round(wall, 1), "summary": summary.strip("= "), "slowest_5": slowest[:5]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", required=True, help="root of the checkout to measure")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    repo = Path(args.repo).resolve()
    record = {"provenance": provenance(repo), "src_lines": src_lines(repo)}
    record["bench_all"] = bench_all(repo)
    record["lrk_optimal_full_grid"] = optimal_times(repo)
    record["lrk_csv_runs"] = csv_run_times(repo)
    record["tier1"] = tier1(repo)
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
