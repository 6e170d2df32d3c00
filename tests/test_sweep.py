"""Tests for grid sweeps, maxima, region masks, and the optimal-condition search."""

import math
from dataclasses import replace

import numpy as np
import pytest

from lrkengine import (
    SHORT_RANGE,
    BathPair,
    ChainParams,
    CycleSpec,
    InsufficientDataError,
    InvalidParameterError,
    ReferenceCache,
    SweepConfig,
    chain,
    enhancement_regions,
    max_ratio_row,
    max_ratios,
    optimal_condition,
    otto_cycle,
    ratio_diagnostics,
    stirling_cycle,
    sweep_mu,
)

BASE = ChainParams(L=2000, J=1.0, Delta=1.0, mu=0.0, alpha=2.0)


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
                    {"mu_i": -1.0}, {"mu_i": math.nan}, {"mu_i": math.inf}):
            with pytest.raises(InvalidParameterError):
                SweepConfig(cycle_kind="otto", base=BASE, **bad)
        cfg = config(mu_steps=5, beta_ratio_grid=(0.2,))
        for alpha in (0.5, 1.0, math.nan):
            for call in (lambda: sweep_mu(cfg, alpha, 0.2),
                         lambda: max_ratios(cfg, alpha, 0.2),
                         lambda: max_ratio_row(cfg, alpha, [0.2]),
                         lambda: enhancement_regions(cfg, alpha)):
                with pytest.raises(InvalidParameterError):
                    call()
        for beta_ratio in (1.5, -0.2, 0.0, math.nan):
            for call in (lambda: sweep_mu(cfg, 1.5, beta_ratio),
                         lambda: max_ratios(cfg, 1.5, beta_ratio),
                         lambda: max_ratio_row(cfg, 1.5, [0.2, beta_ratio])):
                with pytest.raises(InvalidParameterError):
                    call()

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
        rows = sweep_mu(config(kind=kind, mu_steps=11), 2.479, 0.48)
        baths = BathPair(beta_h=0.48 * 5.0, beta_c=5.0)
        assert {r.engine_lr and r.engine_sr for r in rows} == {True, False}
        for r in rows:
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
        rows = {r.mu_ratio: r for r in sweep_mu(config(), 1.05, 0.2)}
        assert rows[0.8].R_W > 1

    def test_high_temperature_enhancement_below_half(self):
        rows = {r.mu_ratio: r for r in sweep_mu(config(beta_c=0.05), 1.05, 0.2)}
        assert rows[0.25].R_W > 1

    def test_minimum_near_critical_point(self):
        rows = sweep_mu(config(), 1.05, 0.2)
        finite = [(r.R_W, r.mu_ratio) for r in rows if r.engine_lr and r.engine_sr]
        _, arg = min(finite)
        assert abs(arg - 0.5) <= 0.02 + 1e-12


class TestReferenceSharing:
    def test_reference_computed_once(self):
        cfg = config(mu_steps=21)
        cache = ReferenceCache()
        for alpha in (1.05, 1.5, 3.0):
            sweep_mu(cfg, alpha, 0.2, cache=cache)
        # Long-range tables are not cached; the shared short-range table is
        # computed exactly once.
        assert cache.evaluations == 1


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
        cfg = config(kind=kind, mu_steps=21)
        betas = [0.2, 0.48, 0.9]
        for beta_ratio, got in zip(betas, max_ratio_row(cfg, 2.479, betas)):
            try:
                want = max_ratios(cfg, 2.479, beta_ratio)
            except InsufficientDataError:
                want = None
            assert got == want
        assert max_ratio_row(config(mu_steps=2), 1.05, [0.2, 0.4]) == [None, None]

    def test_nonmonotonic_in_alpha_at_beta_04(self):
        cfg = config()
        cache = ReferenceCache()
        vals = [max_ratios(cfg, a, 0.4, cache=cache).R_W_max for a in (1.05, 1.5, 6.0)]
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

    def test_spectra_built_once_before_pool(self):
        # One pairing build for the alpha and one for SHORT_RANGE, however
        # many threads evaluate the columns.
        cfg = config(mu_steps=21, beta_ratio_grid=tuple(np.linspace(0.1, 0.9, 9)), workers=2)
        chain._grid_pairing.cache_clear()
        enhancement_regions(cfg, 1.37)
        assert chain._grid_pairing.cache_info().misses == 2

    @pytest.mark.parametrize("kind", ["otto", "stirling"])
    def test_deterministic_across_workers(self, kind):
        grid = tuple(np.linspace(0.1, 0.9, 9))
        serial = enhancement_regions(
            config(kind=kind, mu_steps=41, beta_ratio_grid=grid, workers=1), 1.5)
        parallel = enhancement_regions(
            config(kind=kind, mu_steps=41, beta_ratio_grid=grid, workers=4), 1.5)
        assert np.array_equal(serial.mask, parallel.mask)
        assert serial.excluded == parallel.excluded


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
