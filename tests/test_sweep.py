"""Tests for grid sweeps, maxima, region masks, and the optimal-condition search."""

import collections
import concurrent.futures
import ctypes
import gc
import math
import multiprocessing
import os
import weakref
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from lrkengine import (
    SHORT_RANGE,
    BathPair,
    ChainParams,
    CycleSpec,
    InsufficientDataError,
    InvalidParameterError,
    MaxRatioPoint,
    OptimalCondition,
    SweepConfig,
    chain,
    enhancement_regions,
    max_ratio_grid,
    max_ratios,
    optimal_condition,
    otto_cycle,
    ratio_diagnostics,
    stirling_cycle,
    sweep,
    sweep_mu,
)
from lrkengine.cycles import (
    otto_engine_valid,
    otto_mode_sums,
    ratio_arrays,
    stirling_engine_valid,
    stirling_mode_sums,
)

BASE = ChainParams(L=2000, J=1.0, Delta=1.0, mu=0.0, alpha=2.0)


def rows(table):
    """The columns of ``sweep_mu`` as one namespace per row, with a field per column."""
    return [SimpleNamespace(**dict(zip(table, row)))
            for row in zip(*(c.tolist() for c in table.values()))]


def config(kind="otto", beta_c=5.0, mu_steps=201, **kw):
    return SweepConfig(
        cycle_kind=kind,
        base=BASE,
        mu_i=2.0,
        mu_ratio_grid=tuple(np.linspace(0.0, 1.0, mu_steps)),
        beta_c=beta_c,
        **kw,
    )


class TestConfigValidation:
    def test_bad_cycle_kind(self):
        with pytest.raises(InvalidParameterError):
            config(kind="carnot")

    def test_bad_grids(self):
        with pytest.raises(InvalidParameterError):
            SweepConfig(cycle_kind="otto", base=BASE, mu_ratio_grid=(0.5, 0.2))
        with pytest.raises(InvalidParameterError):
            SweepConfig(cycle_kind="otto", base=BASE, alpha_grid=(0.9, 2.0))
        with pytest.raises(InvalidParameterError):
            SweepConfig(cycle_kind="otto", base=BASE, beta_ratio_grid=(0.0, 0.5))
        for bad in ({"beta_c": math.nan}, {"beta_c": math.inf},
                    {"mu_i": -1.0}, {"mu_i": math.nan}, {"mu_i": math.inf},
                    {"workers": 2.5}, {"workers": 0}):
            with pytest.raises(InvalidParameterError):
                SweepConfig(cycle_kind="otto", base=BASE, **bad)
        for alpha in (0.5, 1.0, math.nan):
            with pytest.raises(InvalidParameterError):
                SweepConfig(cycle_kind="otto", base=BASE, alpha_grid=(alpha,))
        for beta_ratio in (1.5, -0.2, 0.0, math.nan):
            with pytest.raises(InvalidParameterError):
                SweepConfig(cycle_kind="otto", base=BASE, beta_ratio_grid=(0.2, beta_ratio))
        cfg = config(mu_steps=5, beta_ratio_grid=(0.2,))
        for alpha in (0.5, 1.0, math.nan):
            for call in (lambda: sweep_mu(cfg, alpha, 0.2),
                         lambda: sweep_mu(cfg, [1.5, alpha], 0.2),
                         lambda: max_ratios(cfg, alpha, 0.2),
                         lambda: enhancement_regions(cfg, alpha)):
                with pytest.raises(InvalidParameterError):
                    call()
        # sweep_mu alone takes an array of alphas; the others raise, not a TypeError.
        for call in (lambda: sweep_mu(cfg, [[1.5, 2.0]], 0.2),
                     lambda: max_ratios(cfg, [1.5, 2.0], 0.2),
                     lambda: max_ratios(cfg, np.array([1.5]), 0.2),
                     lambda: enhancement_regions(cfg, [1.5, 2.0])):
            with pytest.raises(InvalidParameterError, match=r"alpha must be .*1\.5"):
                call()
        for beta_ratio in (1.5, -0.2, 0.0, math.nan):
            for call in (lambda: sweep_mu(cfg, 1.5, beta_ratio),
                         lambda: max_ratios(cfg, 1.5, beta_ratio)):
                with pytest.raises(InvalidParameterError):
                    call()

    def test_empty_alpha(self):
        # sweep_mu promises seven columns; with no alpha it has none to give.
        cfg = config(mu_steps=5)
        for alpha in (np.array([]), []):
            with pytest.raises(InvalidParameterError, match="at least one"):
                sweep_mu(cfg, alpha, 0.2)

    def test_defaults_valid(self):
        cfg = SweepConfig(cycle_kind="otto", base=BASE)
        assert len(cfg.mu_ratio_grid) == 201
        assert len(cfg.beta_ratio_grid) == 99
        assert len(cfg.alpha_grid) == 100


class TestSweepMu:
    @pytest.mark.parametrize("kind", ["otto", "stirling"])
    def test_rows_match_direct_cycle_evaluation(self, kind):
        cycle = otto_cycle if kind == "otto" else stirling_cycle
        # At beta_h/beta_c = 0.48 both cycles have engine and non-engine rows.
        table = sweep_mu(config(kind=kind, mu_steps=11), 2.479, 0.48)
        assert list(table) == ["mu_ratio", "R_W", "R_eta", "dQ_rel", "xi",
                               "engine_lr", "engine_sr"]
        cells = rows(table)
        baths = BathPair(beta_h=0.48 * 5.0, beta_c=5.0)
        assert {r.engine_lr and r.engine_sr for r in cells} == {True, False}
        for r in cells:
            lr = cycle(CycleSpec(base=replace(BASE, alpha=2.479), mu_i=2.0,
                                 mu_f=2.0 * r.mu_ratio, baths=baths))
            sr = cycle(CycleSpec(base=replace(BASE, alpha=SHORT_RANGE), mu_i=2.0,
                                 mu_f=2.0 * r.mu_ratio, baths=baths))
            d = ratio_diagnostics(lr, sr)
            for name in ("R_W", "R_eta", "dQ_rel", "xi"):
                got, want = getattr(r, name), getattr(d, name)
                assert math.isnan(got) == math.isnan(want), (name, r.mu_ratio)
                if not math.isnan(want):
                    assert got == pytest.approx(want, rel=1e-12), (name, r.mu_ratio)
            assert r.engine_lr == lr.engine_valid
            assert r.engine_sr == sr.engine_valid

    def test_low_temperature_enhancement_above_half(self):
        by_ratio = {r.mu_ratio: r for r in rows(sweep_mu(config(), 1.05, 0.2))}
        assert by_ratio[0.8].R_W > 1

    def test_high_temperature_enhancement_below_half(self):
        by_ratio = {r.mu_ratio: r for r in rows(sweep_mu(config(beta_c=0.05), 1.05, 0.2))}
        assert by_ratio[0.25].R_W > 1

    def test_minimum_near_critical_point(self):
        finite = [(r.R_W, r.mu_ratio) for r in rows(sweep_mu(config(), 1.05, 0.2))
                  if r.engine_lr and r.engine_sr]
        _, arg = min(finite)
        assert abs(arg - 0.5) <= 0.02 + 1e-12


def log_builds(monkeypatch, log):
    """Log each build of ``sweep._spectra`` on the whole mu grid to the file ``log``,
    one line per build: the process id, the alpha and the config's beta ratios.
    The forked worker processes append to the same file.  Refinements and cusp
    probes evaluate at most half a grid of rows at a time, so they are not
    logged."""
    spectra = sweep._spectra

    def logging_spectra(config, alpha, mu_ratios):
        if len(mu_ratios) == len(config.mu_ratio_grid):
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {alpha!r} {config.beta_ratio_grid}\n")
        return spectra(config, alpha, mu_ratios)

    monkeypatch.setattr(sweep, "_spectra", logging_spectra)


def builds(log, call):
    """The (pid, alpha, beta ratios) of each logged build during ``call()``."""
    log.write_text("")
    call()
    return [tuple(line.split(" ", 2)) for line in log.read_text().splitlines()]


class TestReferenceSharing:
    def test_reference_computed_once(self, monkeypatch, tmp_path):
        # One short-range build on the whole mu grid per call, however many
        # alphas read it, and with workers > 1 one per part of the alpha
        # rows, each on all the beta ratios.
        log = tmp_path / "builds"
        log_builds(monkeypatch, log)
        usable_cpus(monkeypatch, 2)
        for kind in ("otto", "stirling"):
            cfg = config(kind=kind, mu_steps=21, alpha_grid=(1.05, 1.5, 3.0),
                         beta_ratio_grid=(0.2, 0.48))
            for call, parts in ((lambda: sweep_mu(cfg, cfg.alpha_grid, 0.2), 1),
                                (lambda: max_ratio_grid(cfg), 1),
                                (lambda: max_ratio_grid(replace(cfg, workers=2)), 2)):
                short = [b for _, alpha, b in builds(log, call) if alpha == repr(SHORT_RANGE)]
                assert short == ["(0.2, 0.48)"] * parts, kind

    @pytest.mark.parametrize("kind", ["otto", "stirling"])
    def test_each_alpha_built_once(self, monkeypatch, tmp_path, kind):
        # With workers=2 on 2 CPUs both cycles fork two parts of the alpha
        # rows.  Each alpha's long-range spectra are built once per call, in
        # one worker process, and each worker builds its short range once on
        # the whole beta grid.
        log = tmp_path / "builds"
        log_builds(monkeypatch, log)
        usable_cpus(monkeypatch, 2)
        cfg = config(kind=kind, mu_steps=21, alpha_grid=(1.05, 1.5, 3.0),
                     beta_ratio_grid=(0.2, 0.48), workers=2)
        logged = builds(log, lambda: max_ratio_grid(cfg))
        long_range = sorted(alpha for _, alpha, _ in logged if alpha != repr(SHORT_RANGE))
        assert long_range == sorted(repr(a) for a in cfg.alpha_grid)
        pids = {pid for pid, _, _ in logged}
        assert len(pids) == 2 and str(os.getpid()) not in pids
        short = sorted((pid, b) for pid, alpha, b in logged if alpha == repr(SHORT_RANGE))
        assert short == sorted((pid, "(0.2, 0.48)") for pid in pids)


def usable_cpus(monkeypatch, n):
    """Let ``max_ratio_grid`` see ``n`` CPUs that this process may use."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _no_reference(config, alpha, beta_ratios):
    raise RuntimeError(f"no reference at {config.alpha_grid}")


class SerialPool:
    """A stand-in for ``ProcessPoolExecutor`` that maps in this process and
    records what it is given; it starts no process."""

    made = []

    def __init__(self, max_workers, mp_context, initializer):
        # The initializer is not run: it would pin this process's BLAS threads.
        assert initializer is sweep._one_blas_thread
        self.made.append((max_workers, mp_context.get_start_method()))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, configs):
        configs = list(configs)
        assert {c.workers for c in configs} == {1}
        self.made.append([c.alpha_grid for c in configs])
        return map(fn, configs)


class TestWorkerProcesses:
    def small(self, alphas, kind="stirling", **kw):
        return config(kind=kind, mu_steps=21, alpha_grid=alphas,
                      beta_ratio_grid=(0.2, 0.4), **kw)

    def test_no_process_left_behind(self, monkeypatch):
        usable_cpus(monkeypatch, 2)
        cfg = self.small((1.5, 3.0), workers=2)
        assert max_ratio_grid(cfg) == max_ratio_grid(replace(cfg, workers=1))
        assert multiprocessing.active_children() == []
        # The workers build the surfaces; the parent, with workers > 1, does not.
        for task, error in ((_no_reference, RuntimeError),
                            (lambda *args: os._exit(1), BrokenProcessPool)):
            monkeypatch.setattr(sweep, "_surface", task)
            with pytest.raises(error):
                max_ratio_grid(cfg)
            assert multiprocessing.active_children() == []

    def test_parts_run_blas_on_one_thread(self, monkeypatch, tmp_path):
        # Each forked part starts with numpy's OpenBLAS on one thread, even
        # where the parent runs it on more; the parent keeps its own.
        libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
            "libscipy_openblas64_*.so*"))
        if not libs:
            pytest.skip("numpy bundles no scipy_openblas")
        lib = ctypes.CDLL(str(libs[0]))
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        get.restype, set_.argtypes = ctypes.c_int, [ctypes.c_int]
        log = tmp_path / "threads"
        surface = sweep._surface

        def logging_surface(*args):
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {get()}\n")
            return surface(*args)

        monkeypatch.setattr(sweep, "_surface", logging_surface)
        usable_cpus(monkeypatch, 2)
        before = get()
        set_(2)
        try:
            max_ratio_grid(self.small((1.5, 3.0), workers=2))
            assert get() == 2
        finally:
            set_(before)
        logged = [line.split() for line in log.read_text().splitlines()]
        assert len({pid for pid, _ in logged}) == 2
        assert {threads for _, threads in logged} == {"1"}
        assert sweep.forked_parts_pin_blas()

    def test_parts_capped_at_alphas(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(SerialPool, "made", [])
        usable_cpus(monkeypatch, 8)
        cfg = self.small((1.5, 2.0, 3.0), workers=8)
        assert max_ratio_grid(cfg) == max_ratio_grid(replace(cfg, workers=1))
        assert SerialPool.made == [(3, "fork"), [(1.5,), (2.0,), (3.0,)]]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("source, cpus, made", [
        ("affinity", 1, []),
        ("affinity", 2, [(2, "fork"), [(1.5, 3.0), (2.0,)]]),
        ("cpu_count", 2, [(2, "fork"), [(1.5, 3.0), (2.0,)]]),  # no sched_getaffinity
    ])
    def test_parts_capped_at_cpus(self, monkeypatch, source, cpus, made):
        # Eight workers over three alphas fork no more parts than the CPUs
        # this process may use; each part takes every n-th alpha.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(SerialPool, "made", [])
        if source == "affinity":
            usable_cpus(monkeypatch, cpus)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        cfg = self.small((1.5, 2.0, 3.0), workers=8)
        assert max_ratio_grid(cfg) == max_ratio_grid(replace(cfg, workers=1))
        assert SerialPool.made == made

    @pytest.mark.parametrize("kind, methods, daemon", [
        ("otto", ["spawn"], False),  # no fork, as on Windows
        ("stirling", ["spawn"], False),
        ("stirling", ["fork", "spawn"], True),  # a daemonic process has no children
        ("otto", ["fork", "spawn"], True),
    ])
    def test_serial_without_pool(self, monkeypatch, kind, methods, daemon):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(SerialPool, "made", [])
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
        monkeypatch.setattr(multiprocessing, "current_process",
                            lambda: SimpleNamespace(daemon=daemon))
        usable_cpus(monkeypatch, 2)
        cfg = self.small((1.5, 3.0), kind=kind, workers=2)
        assert max_ratio_grid(cfg) == max_ratio_grid(replace(cfg, workers=1))
        assert SerialPool.made == []


class TestMaxRatios:
    def test_self_ratio(self):
        mr = max_ratios(config(mu_steps=51), SHORT_RANGE, 0.2)
        assert mr.R_W_max == pytest.approx(1.0, abs=1e-12)
        assert mr.R_eta_max == pytest.approx(1.0, abs=1e-12)

    def test_stirling_peak_near_critical_point(self):
        mr = max_ratios(config(kind="stirling"), 1.05, 0.2)
        assert abs(mr.arg_mu_ratio_W - 0.5) <= 0.05

    def test_grid_refinement_stability_smooth_regime(self):
        coarse = max_ratios(config(kind="stirling", mu_steps=201), 2.0, 0.2)
        fine = max_ratios(config(kind="stirling", mu_steps=401), 2.0, 0.2)
        assert abs(coarse.R_W_max - fine.R_W_max) < 1e-4

    def test_cusp_cells_listed(self):
        # Divergence shoulder where the reference work crosses zero.
        mr = max_ratios(config(), 2.479, 0.48)
        assert len(mr.cusp_mu_ratios_W) > 0
        assert mr.arg_mu_ratio_W not in mr.cusp_mu_ratios_W

    def test_insufficient_data(self):
        # A two-point mu grid can never supply three engine-valid points.
        with pytest.raises(InsufficientDataError):
            max_ratios(config(mu_steps=2), 1.05, 0.2)

    @pytest.mark.parametrize("kind", ["otto", "stirling"])
    def test_row_matches_max_ratios(self, kind):
        cfg = config(kind=kind, mu_steps=21, alpha_grid=(1.5, 2.479),
                     beta_ratio_grid=(0.2, 0.48, 0.9))
        for alpha, row in zip(cfg.alpha_grid, max_ratio_grid(cfg)):
            for beta_ratio, got in zip(cfg.beta_ratio_grid, row):
                try:
                    want = max_ratios(cfg, alpha, beta_ratio)
                except InsufficientDataError:
                    want = None
                assert got == want
        cfg = config(mu_steps=2, alpha_grid=(1.05,), beta_ratio_grid=(0.2, 0.4))
        assert max_ratio_grid(cfg) == [[None, None]]

    def test_nonmonotonic_in_alpha_at_beta_04(self):
        cfg = config()
        vals = [max_ratios(cfg, a, 0.4).R_W_max for a in (1.05, 1.5, 6.0)]
        assert vals[1] > vals[0] and vals[1] > vals[2]


class TestRegions:
    def test_mask_reverified_pointwise(self):
        cfg = config(mu_steps=41, beta_ratio_grid=tuple(np.linspace(0.1, 0.9, 9)))
        region = enhancement_regions(cfg, 1.05)
        trues = np.argwhere(region.mask)
        assert len(trues) > 0
        rng = np.random.default_rng(2)
        picks = trues[rng.choice(len(trues), size=min(5, len(trues)), replace=False)]
        for i, j in picks:
            baths = BathPair(beta_h=region.beta_ratio_grid[j] * 5.0, beta_c=5.0)
            mu_f = 2.0 * region.mu_ratio_grid[i]
            lr = otto_cycle(CycleSpec(base=replace(BASE, alpha=1.05), mu_i=2.0, mu_f=mu_f, baths=baths))
            sr = otto_cycle(CycleSpec(base=replace(BASE, alpha=SHORT_RANGE), mu_i=2.0, mu_f=mu_f, baths=baths))
            d = ratio_diagnostics(lr, sr)
            assert d.R_W > 1 and d.R_eta > 1

    def test_short_range_mask_empty(self):
        cfg = config(mu_steps=21, beta_ratio_grid=tuple(np.linspace(0.1, 0.9, 5)))
        region = enhancement_regions(cfg, SHORT_RANGE)
        assert not region.mask.any()

    def test_stirling_high_temperature_empty(self):
        cfg = config(kind="stirling", beta_c=0.05, mu_steps=41,
                     beta_ratio_grid=tuple(np.linspace(0.1, 0.9, 9)))
        region = enhancement_regions(cfg, 1.5)
        assert not region.mask.any()

    def test_spectra_built_once(self):
        # One pairing build for the alpha and one for SHORT_RANGE.
        cfg = config(mu_steps=21, beta_ratio_grid=tuple(np.linspace(0.1, 0.9, 9)))
        chain._grid_pairing.cache_clear()
        enhancement_regions(cfg, 1.37)
        assert chain._grid_pairing.cache_info().misses == 2


class PointLog:
    """Records each point that ``sweep._point_rows`` evaluates by per-mode sums,
    in this process and in forked parts, to the file ``path``: one line per
    point with the process id, the round of the cusp walks, the number of
    the ``_point_rows`` call in its process, the chain's alpha, the point's
    lattice indices (k, l) and its (mu_f/mu_i, beta_h/beta_c).  A round
    starts at each ``stable`` call of ``_stable_maxima``, and spans that
    call's probes and the refinements of the next round."""

    def __init__(self, monkeypatch, path):
        self.path, self.round, self.calls = path, 0, 0
        point_rows, stable_maxima = sweep._point_rows, sweep._stable_maxima

        def recording(lattice, chain, k, l):
            self.calls += 1
            with open(path, "a") as f:
                for a, b in zip(k.tolist(), l.tolist()):
                    f.write(f"{os.getpid()} {self.round} {self.calls} {chain.base.alpha!r} "
                            f"{a} {b} {float(lattice.mus[a])!r} {float(lattice.brs[b])!r}\n")
            return point_rows(lattice, chain, k, l)

        def walking(lo, hi, exact, refine, stable):
            def counted(cand, cols):
                self.round += 1
                return stable(cand, cols)

            return stable_maxima(lo, hi, exact, refine, counted)

        monkeypatch.setattr(sweep, "_point_rows", recording)
        monkeypatch.setattr(sweep, "_stable_maxima", walking)

    def points(self, call):
        """The logged points of ``call()``, each a namespace of the fields above."""
        self.path.write_text("")
        call()
        names = ("pid", "round", "call", "alpha", "k", "l", "mu", "beta")
        return [SimpleNamespace(**dict(zip(names, line.split())))
                for line in self.path.read_text().splitlines()]


def repeats(keys):
    """The keys that occur more than once."""
    counts = collections.Counter(keys)
    return [key for key, n in counts.items() if n > 1]


class TestEvaluate:
    @pytest.mark.parametrize("kind", ["otto", "stirling"])
    @pytest.mark.parametrize("beta_c", [5.0, 0.05])
    def test_each_pair_once_per_call(self, kind, beta_c, monkeypatch, tmp_path):
        # The W and eta walks of a column often probe the same midpoint, and
        # the W and eta walks of optimal_condition the same beta neighbours
        # and midpoints; each round evaluates each point once, so no gathered
        # batch holds a pair twice and no round evaluates a long-range point
        # twice.
        cfg = replace(config(kind=kind, beta_c=beta_c, alpha_grid=(1.3, 1.85)),
                      base=replace(BASE, L=200))
        points = PointLog(monkeypatch, tmp_path / "points").points(lambda: optimal_condition(cfg))
        assert points
        assert repeats((p.call, p.mu, p.beta) for p in points) == []
        assert repeats((p.round, p.alpha, p.k, p.l) for p in points
                       if p.alpha != repr(SHORT_RANGE)) == []


def lattice_values(grid):
    """A grid and its half steps 0.5 (x[i] + x[i+1]), as floats."""
    x = np.asarray(grid, dtype=float)
    return set(x.tolist()) | set((0.5 * (x[:-1] + x[1:])).tolist())


class TestLattice:
    def small(self, kind, beta_c):
        return replace(config(kind=kind, beta_c=beta_c, alpha_grid=(1.3, 1.85)),
                       base=replace(BASE, L=200))

    @pytest.mark.parametrize("kind", ["otto", "stirling"])
    @pytest.mark.parametrize("beta_c", [5.0, 0.05])
    def test_points_on_lattice(self, kind, beta_c, monkeypatch):
        # Every spectrum row and every beta ratio that reaches the per-mode
        # sums of the grid sweeps is a grid value or a half step.
        cfg = self.small(kind, beta_c)
        mu_fs, betas = set(), set()
        energies, table = sweep.spectrum_energies, sweep._table

        def recording_energies(params, mu=None):
            if np.ndim(mu) == 1:
                mu_fs.update(np.asarray(mu).tolist())
            return energies(params, mu)

        def recording_table(config, spectra, beta_ratio, col=None):
            betas.update(np.atleast_1d(beta_ratio).tolist())
            return table(config, spectra, beta_ratio, col)

        monkeypatch.setattr(sweep, "spectrum_energies", recording_energies)
        monkeypatch.setattr(sweep, "_table", recording_table)
        optimal_condition(cfg)
        enhancement_regions(cfg, 1.3)
        max_ratios(cfg, 1.85, 0.44)
        mus = lattice_values(cfg.mu_ratio_grid)
        assert mu_fs and mu_fs <= {m * cfg.mu_i for m in mus}
        assert betas and betas <= lattice_values(cfg.beta_ratio_grid) | {0.44}

    @pytest.mark.parametrize("kind", ["otto", "stirling"])
    @pytest.mark.parametrize("beta_c", [5.0, 0.05])
    def test_short_range_once(self, kind, beta_c, monkeypatch, tmp_path):
        # Each short-range lattice point is evaluated at most once per call:
        # the grid of every alpha and the walk along beta share one lattice.
        # With workers=2 each forked part and the parent's walk evaluate
        # theirs once each.
        usable_cpus(monkeypatch, 2)
        log = PointLog(monkeypatch, tmp_path / "points")
        for workers, processes in ((1, 1), (2, 3)):
            cfg = replace(self.small(kind, beta_c), workers=workers)
            short = [(p.pid, p.k, p.l) for p in log.points(lambda: optimal_condition(cfg))
                     if p.alpha == repr(SHORT_RANGE)]
            assert len({pid for pid, _, _ in short}) == processes
            assert repeats(short) == []


class TestStableMaxima:
    def test_two_columns(self):
        # Column 0: R = (1, 3, 4, 3, 3, 2), with cell 3 inexact, read as
        # [2.5, 3.5].  Cell 2 is a cusp; then cell 3's band reaches the top,
        # 3, and it is refined before the pick.  Cells 1, 3 and 4 tie: cell 1
        # is picked first and is a cusp, then cell 3 is the maximum.  Column
        # 1 is all -inf and fails.
        lo = np.array([[1.0, 3.0, 4.0, 2.5, 3.0, 2.0], [-np.inf] * 6]).T
        hi = lo.copy()
        hi[3, 0] = 3.5
        exact = np.ones_like(lo, dtype=bool)
        exact[3, 0] = False
        refined, asked = [], []

        def refine(i, c):
            refined.append((len(asked), i.tolist(), c.tolist()))
            lo[i, c] = hi[i, c] = 3.0
            exact[i, c] = True

        def stable(cand, cols):
            asked.append((cand.tolist(), cols.tolist()))
            return ~np.isin(cand, (1, 2))

        index, cusps = sweep._stable_maxima(lo, hi, exact, refine, stable)
        assert index.tolist() == [3, -1]
        assert cusps == [[2, 1], []]
        assert refined == [(1, [3], [0])]
        assert asked == [([2], [0]), ([1], [0]), ([3], [0])]


class TestScreen:
    @pytest.mark.parametrize("kind", ["otto", "stirling"])
    @pytest.mark.parametrize("beta_c", [5.0, 0.05])
    def test_no_row_at_equal_mu(self, kind, beta_c, monkeypatch, tmp_path):
        # At mu_f = mu_i the spectra are equal and W is exactly 0 on both
        # chains, so the surfaces rule the row out and no per-mode row of it
        # is ever evaluated.
        cfg = replace(config(kind=kind, beta_c=beta_c, alpha_grid=(1.5, 3.0)),
                      base=replace(BASE, L=200))
        log = PointLog(monkeypatch, tmp_path / "points")
        mus = [float(p.mu) for call in (lambda: enhancement_regions(cfg, 1.5),
                                        lambda: max_ratio_grid(cfg))
               for p in log.points(call)]
        assert mus and 1.0 not in mus


class TestRelease:
    def test_no_lattice_outlives_its_call(self, monkeypatch):
        # No lattice or chain is left in a reference cycle: with the cyclic
        # collector off, each is gone once its call returns.
        made = []

        class Lattice(sweep._Lattice):
            def __init__(self, *args, **kw):
                super().__init__(*args, **kw)
                made.append(weakref.ref(self))

        class Chain(sweep._Chain):
            def __init__(self, *args, **kw):
                super().__init__(*args, **kw)
                made.append(weakref.ref(self))

        monkeypatch.setattr(sweep, "_Lattice", Lattice)
        monkeypatch.setattr(sweep, "_Chain", Chain)
        cfg = replace(config(alpha_grid=(1.3, 1.85)), base=replace(BASE, L=200))
        gc.disable()
        try:
            for call in (optimal_condition, max_ratio_grid):
                made.clear()
                call(cfg)
                assert len(made) > 3 and all(ref() is None for ref in made)
        finally:
            gc.enable()


class TestOptimalCondition:
    def small(self, kind, workers=1):
        return SweepConfig(
            cycle_kind=kind,
            base=BASE,
            mu_i=2.0,
            mu_ratio_grid=tuple(np.linspace(0.0, 1.0, 51)),
            alpha_grid=(1.2, 1.5, 2.0, 3.0),
            beta_ratio_grid=(0.2, 0.3, 0.4, 0.5),
            workers=workers,
        )

    def test_argmax_on_grid(self):
        oc = optimal_condition(self.small("otto"))
        assert oc.alpha_star_W in (1.2, 1.5, 2.0, 3.0)
        assert oc.beta_ratio_star_W in (0.2, 0.3, 0.4, 0.5)
        assert oc.R_W_max >= 1.0

    @pytest.mark.parametrize("kind", ["otto", "stirling"])
    def test_deterministic_across_workers(self, kind):
        a = optimal_condition(self.small(kind, workers=1))
        b = optimal_condition(self.small(kind, workers=4))
        assert a == b

    @pytest.mark.parametrize("kind", ["otto", "stirling"])
    def test_coincident_flag_consistent(self, kind):
        cfg = self.small(kind)
        oc = optimal_condition(cfg)
        di = abs(cfg.alpha_grid.index(oc.alpha_star_W) - cfg.alpha_grid.index(oc.alpha_star_eta))
        dj = abs(cfg.beta_ratio_grid.index(oc.beta_ratio_star_W)
                 - cfg.beta_ratio_grid.index(oc.beta_ratio_star_eta))
        assert bool(oc.coincident) == (di <= 1 and dj <= 1)

    def test_beta_cusp_cells_exempted(self):
        # At beta_c = 5 and mu_f/mu_i = 0 the short-range work crosses zero
        # near beta_h/beta_c = 0.449, so R_W ~ 1/W_sr on the last beta columns
        # before it; a plain argmax lands on (1.85, 0.44) with R_W ~ 3.97.
        cfg = config(alpha_grid=(1.3, 1.85))
        oc = optimal_condition(cfg)
        assert oc.beta_ratio_star_W < 0.44
        assert (1.85, 0.44) in oc.cusp_cells_W
        smooth = optimal_condition(replace(cfg, cycle_kind="stirling"))
        assert smooth.cusp_cells_W == () and smooth.cusp_cells_eta == ()


# ---------------------------------------------------------------------------
# Serial oracle: the one-cell-at-a-time cusp walk with one-row probes, kept
# literally as it was before the walks were batched into rounds.


def oracle_spectra(config, alpha, mu_ratios):
    base = replace(config.base, alpha=float(alpha))
    eps_i = chain.spectrum_energies(base, config.mu_i)
    eps_f = chain.spectrum_energies(base, np.asarray(mu_ratios, dtype=float) * config.mu_i)
    return eps_i, eps_f


def oracle_table(config, spectra, beta_ratio):
    eps_i, eps_f = spectra
    beta_c = config.beta_c
    beta_h = beta_ratio * beta_c
    if config.cycle_kind == "otto":
        Q_h, Q_c, W = otto_mode_sums(eps_i, eps_f, beta_h, beta_c)
        valid = otto_engine_valid(W, Q_h, Q_c)
    else:
        _, _, _, _, W, Q_h = stirling_mode_sums(eps_i, eps_f, beta_h, beta_c)
        valid = stirling_engine_valid(W, Q_h)
    eta = np.where(valid, np.divide(W, Q_h, out=np.full_like(W, np.nan), where=Q_h != 0), np.nan)
    return W, Q_h, eta, valid


def oracle_engine_ratios(lr, sr):
    both = lr[3] & sr[3]
    R_W, R_eta, _, _ = ratio_arrays(lr[0], lr[1], lr[2], sr[0], sr[1], sr[2])
    return both, np.where(both, R_W, -np.inf), np.where(both, R_eta, -np.inf)


def oracle_point_ratio(config, alpha, beta_ratio, mu_ratio, which):
    lr = oracle_table(config, oracle_spectra(config, alpha, (mu_ratio,)), beta_ratio)
    sr = oracle_table(config, oracle_spectra(config, SHORT_RANGE, (mu_ratio,)), beta_ratio)
    _, R_W, R_eta = oracle_engine_ratios(lr, sr)
    return float((R_W if which == "W" else R_eta)[0])


def oracle_stable_argmax(R, neighbors, valid, midpoint_ratio, rel_tol=0.05):
    order = np.argsort(-R, kind="stable")
    cusps = []
    for i in order:
        i = int(i)
        if not np.isfinite(R[i]):
            break
        nbs = neighbors(i)
        if not all(valid(i, j) for j in nbs):
            cusps.append(i)
            continue
        bound = R[i] + rel_tol * max(abs(R[i]), 1.0)
        if any(midpoint_ratio(i, j) > bound for j in nbs):
            cusps.append(i)
            continue
        return i, cusps
    raise InsufficientDataError("no refinement-stable maximum on the grid")


def oracle_max_ratios(config, alpha, beta_ratio):
    lr = oracle_table(config, oracle_spectra(config, alpha, config.mu_ratio_grid), beta_ratio)
    sr = oracle_table(config, oracle_spectra(config, SHORT_RANGE, config.mu_ratio_grid), beta_ratio)
    valid, R_W, R_eta = oracle_engine_ratios(lr, sr)
    n_valid = int(np.sum(valid))
    if n_valid < 3:
        raise InsufficientDataError(f"only {n_valid} engine-valid grid points")
    xs = np.asarray(config.mu_ratio_grid, dtype=float)

    def neighbors(i):
        return [j for j in (i - 1, i + 1) if 0 <= j < xs.size]

    def stable_argmax(R, which):
        return oracle_stable_argmax(
            R,
            neighbors,
            lambda i, j: valid[j],
            lambda i, j: oracle_point_ratio(config, alpha, beta_ratio, 0.5 * (xs[i] + xs[j]), which),
        )

    i_W, cusps_W = stable_argmax(R_W, "W")
    i_eta, cusps_eta = stable_argmax(R_eta, "eta")
    return MaxRatioPoint(
        R_W_max=float(R_W[i_W]),
        R_eta_max=float(R_eta[i_eta]),
        arg_mu_ratio_W=float(xs[i_W]),
        arg_mu_ratio_eta=float(xs[i_eta]),
        excluded=int(xs.size - n_valid),
        cusp_mu_ratios_W=tuple(float(xs[i]) for i in cusps_W),
        cusp_mu_ratios_eta=tuple(float(xs[i]) for i in cusps_eta),
    )


def oracle_max_ratio_row(config, alpha, beta_ratios):
    row = []
    for b in beta_ratios:
        try:
            row.append(oracle_max_ratios(config, alpha, b))
        except InsufficientDataError:
            row.append(None)
    return row


def oracle_optimal_condition(config):
    alphas = np.asarray(config.alpha_grid, dtype=float)
    brs = np.asarray(config.beta_ratio_grid, dtype=float)
    shape = (alphas.size, brs.size)
    R_W_m = np.full(shape, -np.inf)
    R_eta_m = np.full(shape, -np.inf)
    mu_W_m = np.full(shape, np.nan)
    mu_eta_m = np.full(shape, np.nan)
    for i in range(alphas.size):
        for j, mr in enumerate(oracle_max_ratio_row(config, alphas[i], brs)):
            if mr is None:
                continue
            R_W_m[i, j] = mr.R_W_max
            R_eta_m[i, j] = mr.R_eta_max
            mu_W_m[i, j] = mr.arg_mu_ratio_W
            mu_eta_m[i, j] = mr.arg_mu_ratio_eta
    if not np.isfinite(R_W_m).any() or not np.isfinite(R_eta_m).any():
        raise InsufficientDataError("no engine-valid (alpha, beta ratio) grid points")

    nb = brs.size

    def beta_neighbors(c):
        return [c + d for d in (-1, 1) if 0 <= c % nb + d < nb]

    def stable_argmax(R, arg_mu, which):
        def ratio(c, beta_ratio):
            return oracle_point_ratio(config, alphas[c // nb], beta_ratio, arg_mu.flat[c], which)

        c, cusps = oracle_stable_argmax(
            R.ravel(),
            beta_neighbors,
            lambda c, n: ratio(c, brs[n % nb]) > -math.inf,
            lambda c, n: ratio(c, 0.5 * (brs[c % nb] + brs[n % nb])),
        )
        cells = tuple((float(alphas[n // nb]), float(brs[n % nb])) for n in cusps)
        return divmod(c, nb), cells

    (iW, jW), cusps_W = stable_argmax(R_W_m, mu_W_m, "W")
    (iE, jE), cusps_eta = stable_argmax(R_eta_m, mu_eta_m, "eta")
    return OptimalCondition(
        alpha_star_W=float(alphas[iW]),
        beta_ratio_star_W=float(brs[jW]),
        alpha_star_eta=float(alphas[iE]),
        beta_ratio_star_eta=float(brs[jE]),
        R_W_max=float(R_W_m[iW, jW]),
        R_eta_max=float(R_eta_m[iE, jE]),
        coincident=abs(iW - iE) <= 1 and abs(jW - jE) <= 1,
        cusp_cells_W=cusps_W,
        cusp_cells_eta=cusps_eta,
    )


def random_grid(kind, beta_c, seed):
    """A small random sweep grid; seed 0 is a cut of the beta-cusp grid of
    ``test_beta_cusp_cells_exempted`` at L = 2000."""
    if seed == 0:
        return config(kind, beta_c, alpha_grid=(1.3, 1.85),
                      beta_ratio_grid=tuple(np.linspace(0.3, 0.5, 21)))
    rng = np.random.default_rng([seed, int(beta_c * 100), kind == "otto"])
    return SweepConfig(
        cycle_kind=kind,
        base=ChainParams(L=2 * int(rng.integers(20, 300)), alpha=2.0),
        mu_i=float(rng.uniform(0.5, 3.0)),
        mu_ratio_grid=tuple(np.sort(rng.uniform(0.0, 1.0, int(rng.integers(5, 40))))),
        alpha_grid=tuple(np.sort(rng.uniform(1.025, 6.0, 3))),
        beta_c=beta_c,
        beta_ratio_grid=tuple(np.sort(rng.uniform(0.02, 0.98, int(rng.integers(3, 12))))),
    )


def outcome(fn, *args):
    try:
        return fn(*args)
    except InsufficientDataError:
        return InsufficientDataError


class TestSerialOracle:
    """The batched cusp rounds and the screened Otto surfaces against the
    serial oracle: every field equal, floats bitwise, cusp tuples included,
    for any worker count."""

    @pytest.mark.parametrize("kind, beta_c, seed", [
        ("otto", 5.0, 0),
        *[(kind, beta_c, seed) for kind in ("otto", "stirling") for beta_c in (5.0, 0.05)
          for seed in (1, 2, 3, 4)],
    ])
    def test_same_results(self, kind, beta_c, seed):
        cfg = random_grid(kind, beta_c, seed)
        betas = list(cfg.beta_ratio_grid)
        # At SHORT_RANGE every R is 1: the argmax is the first engine cell.
        rows_cfg = replace(cfg, alpha_grid=(*cfg.alpha_grid, SHORT_RANGE))
        want_grid = [oracle_max_ratio_row(cfg, a, betas) for a in rows_cfg.alpha_grid]
        for workers in (1, 2, 3):
            assert max_ratio_grid(replace(rows_cfg, workers=workers)) == want_grid
        for i in (1, -1):
            for b, want in zip(betas, want_grid[i]):
                assert (outcome(max_ratios, cfg, rows_cfg.alpha_grid[i], b)
                        == (want or InsufficientDataError))
        want = outcome(oracle_optimal_condition, cfg)
        for workers in (1, 2, 3):
            assert outcome(optimal_condition, replace(cfg, workers=workers)) == want
        if seed == 0:
            assert want.cusp_cells_W and any(p and p.cusp_mu_ratios_W for p in want_grid[1])
