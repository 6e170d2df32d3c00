"""Tests of the benchmark itself.

Kept out of the repository's default pytest collection by the file name;
run them with ``python3 -m pytest bench/selftest.py``.
"""

import json
import shutil
import subprocess
import sys
from contextlib import contextmanager

import pytest

from spans import Tracer
from worker import Runner
from workloads import ROOT, STREAM_MEASURE, WORKLOADS, import_engine

lrk = import_engine()


@contextmanager
def perturbed(module, name, factor):
    """Scale one library function's result everywhere callers look it up."""
    original = getattr(module, name)

    def wrong(*args, **kwargs):
        return original(*args, **kwargs) * factor

    patched = []
    for ns in (lrk, lrk.chain, lrk.thermo, lrk.cycles, lrk.sweep, lrk.cli):
        for attr, val in list(vars(ns).items()):
            if val is original:
                setattr(ns, attr, wrong)
                patched.append((ns, attr))
    try:
        yield
    finally:
        for ns, attr in patched:
            setattr(ns, attr, original)


def run_ops(tmp_path, workload, inputs, t0=0.0):
    runner = Runner(WORKLOADS[workload], lrk, tmp_path / "op", t0)
    for inp in inputs:
        runner.op(inp)
    return runner


@pytest.mark.parametrize(
    "workload, module, name",
    [("point-scan", "chain", "pairing_function"), ("cli-io", "chain", "spectrum_energies")],
)
def test_injected_error_counts_as_failed(tmp_path, workload, module, name):
    inputs = WORKLOADS[workload].inputs(5, STREAM_MEASURE, 2)
    with perturbed(getattr(lrk, module), name, 1.0 + 1e-9):
        runner = run_ops(tmp_path, workload, inputs)
    assert runner.attempted == 2
    assert runner.failed == 2
    clean = run_ops(tmp_path, workload, inputs)
    assert clean.failed == 0


def test_same_seed_same_digests(tmp_path):
    w = WORKLOADS["point-scan"]
    first = run_ops(tmp_path, "point-scan", w.inputs(7, STREAM_MEASURE, 4)).digests
    again = run_ops(tmp_path, "point-scan", w.inputs(7, STREAM_MEASURE, 4)).digests
    assert len(first) == 4 and first == again


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_new_seed_new_inputs(workload):
    w = WORKLOADS[workload]
    a = w.inputs(1, STREAM_MEASURE, 3)
    b = w.inputs(2, STREAM_MEASURE, 3)
    assert all(x != y for x, y in zip(a, b))
    assert a == w.inputs(1, STREAM_MEASURE, 3)


def test_new_seed_same_op_count(tmp_path):
    w = WORKLOADS["point-scan"]
    one = run_ops(tmp_path, "point-scan", w.inputs(1, STREAM_MEASURE, 3))
    two = run_ops(tmp_path, "point-scan", w.inputs(2, STREAM_MEASURE, 3))
    assert one.attempted == two.attempted == 3
    assert one.failed == two.failed == 0
    assert len(two.digests) == 3 and set(one.digests).isdisjoint(two.digests)


def test_stirling_workers_replay(tmp_path):
    inp = WORKLOADS["grid-stirling"].make_input(3, STREAM_MEASURE, 0)
    if inp["workers"] < 2:
        pytest.skip("needs two CPUs")
    threaded = run_ops(tmp_path, "grid-stirling", [inp])
    serial = run_ops(tmp_path, "grid-stirling", [dict(inp, workers=1)])
    assert threaded.failed == serial.failed == 0
    assert threaded.digests == serial.digests


def test_tracer_restores_library(tmp_path):
    before = lrk.sweep.otto_mode_sums
    tracer = Tracer()
    tracer.install(lrk)
    assert lrk.sweep.otto_mode_sums is not before
    tracer.uninstall()
    assert lrk.sweep.otto_mode_sums is before


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "point-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
