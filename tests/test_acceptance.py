"""Acceptance gate: twelve numbered criteria, each printing a single
PASS/FAIL line with supporting detail.

Criteria that the faithful implementation does not satisfy are asserted
as stated and allowed to fail; they are not weakened to pass.
"""

import math
import time
from dataclasses import replace
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest

from lrkengine import (
    SHORT_RANGE,
    BathPair,
    ChainParams,
    CycleSpec,
    GaplessConfigurationError,
    SweepConfig,
    build_spectrum,
    enhancement_regions,
    min_gap,
    optimal_condition,
    otto_cycle,
    stirling_cycle,
    sweep_mu,
    winding_number,
)
from lrkengine.oracle import bdg_matrix, enumerate_partition, exact_spectrum, log_partition

L_FULL = 2000
ALPHAS_SMALL = (1.05, 2.0, 4.0, SHORT_RANGE)


def rows(table):
    """The columns of ``sweep_mu`` as one namespace per row, with a field per column."""
    return [SimpleNamespace(**dict(zip(table, row)))
            for row in zip(*(c.tolist() for c in table.values()))]


def report(n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def base(alpha, L=L_FULL):
    return ChainParams(L=L, J=1.0, Delta=1.0, mu=0.0, alpha=alpha)


def cycle_spec(alpha, mu_ratio, beta_c, beta_ratio, L=L_FULL, mu_i=2.0):
    return CycleSpec(
        base=base(alpha, L),
        mu_i=mu_i,
        mu_f=mu_ratio * mu_i,
        baths=BathPair(beta_h=beta_ratio * beta_c, beta_c=beta_c),
    )


def sweep_config(kind, beta_c, mu_steps=201, **kw):
    return SweepConfig(
        cycle_kind=kind,
        base=base(2.0),
        mu_i=2.0,
        mu_ratio_grid=tuple(np.linspace(0.0, 1.0, mu_steps)),
        beta_c=beta_c,
        **kw,
    )


@lru_cache(maxsize=1)
def random_cycle_results():
    """1000 random cycle specs evaluated for both cycles (shared by 3 and 4)."""
    rng = np.random.default_rng(101)
    out = []
    for _ in range(1000):
        alpha = rng.uniform(1.0 + 1e-6, 6.0)
        mu_ratio = rng.uniform(0.0, 1.0)
        beta_c = float(rng.choice([0.05, 5.0]))
        beta_ratio = rng.uniform(0.05, 1.0)
        spec = cycle_spec(alpha, mu_ratio, beta_c, beta_ratio)
        out.append((beta_ratio, otto_cycle(spec), stirling_cycle(spec)))
    return out


class TestAcceptance:
    def test_criterion_1_oracle_spectrum(self):
        t0 = time.perf_counter()
        worst = 0.0
        for L in (2, 4, 8):
            for alpha in ALPHAS_SMALL:
                for mu in (0.0, 1.0, 2.0):
                    p = ChainParams(L=L, J=1.0, Delta=1.0, mu=mu, alpha=alpha)
                    exact = exact_spectrum(bdg_matrix(p))
                    analytic = np.sort(np.repeat(np.asarray(build_spectrum(p).energies), 2))
                    worst = max(worst, float(np.max(np.abs(exact - analytic))))
        dt = time.perf_counter() - t0
        report(1, worst < 1e-10 and dt < 5.0,
               f"max |BdG - analytic| = {worst:.3e} (limit 1e-10), {dt:.2f}s")

    def test_criterion_2_oracle_thermo(self):
        t0 = time.perf_counter()
        worst = 0.0
        for L in (2, 4, 8):
            spec = build_spectrum(ChainParams(L=L, J=1.0, Delta=1.0, mu=0.5, alpha=1.5))
            for beta in (0.05, 1.0, 5.0):
                z_closed = math.exp(log_partition(spec, beta))
                z_enum = enumerate_partition(spec, beta)
                worst = max(worst, abs(z_closed - z_enum) / z_enum)
        dt = time.perf_counter() - t0
        report(2, worst < 1e-10 and dt < 5.0,
               f"max rel |Z - enumeration| = {worst:.3e} (limit 1e-10), {dt:.2f}s")

    def test_criterion_3_first_laws(self):
        t0 = time.perf_counter()
        worst = 0.0
        for _, otto, stirling in random_cycle_results():
            scale_o = max(abs(otto.W), abs(otto.Q_h), abs(otto.Q_c), 1e-30)
            worst = max(worst, abs(otto.W - (otto.Q_h + otto.Q_c)) / scale_o)
            q_sum = stirling.Q_I + stirling.Q_II + stirling.Q_III + stirling.Q_IV
            scale_s = max(abs(stirling.W), abs(stirling.Q_I), abs(stirling.Q_II),
                          abs(stirling.Q_III), abs(stirling.Q_IV), 1e-30)
            worst = max(worst, abs(stirling.W - q_sum) / scale_s)
        dt = time.perf_counter() - t0
        report(3, worst < 1e-10 and dt < 60.0,
               f"max first-law relative error = {worst:.3e} over 1000 specs, {dt:.1f}s")

    def test_criterion_4_carnot_bound(self):
        checked, worst = 0, -math.inf
        for beta_ratio, otto, stirling in random_cycle_results():
            eta_c = 1.0 - beta_ratio
            for res in (otto, stirling):
                if res.engine_valid:
                    checked += 1
                    worst = max(worst, res.eta - eta_c)
        # Grid coverage matching the figure criteria (5-9): both cycles,
        # both bath temperatures, four temperature ratios, five alphas.
        for kind in ("otto", "stirling"):
            fun = otto_cycle if kind == "otto" else stirling_cycle
            for beta_c in (5.0, 0.05):
                for beta_ratio in (0.2, 0.4, 0.6, 0.8):
                    for alpha in (1.05, 1.5, 3.0, 6.0, SHORT_RANGE):
                        for r in np.linspace(0.0, 1.0, 51):
                            res = fun(cycle_spec(alpha, float(r), beta_c, beta_ratio))
                            if res.engine_valid:
                                checked += 1
                                worst = max(worst, res.eta - (1.0 - beta_ratio))
        report(4, worst <= 1e-12,
               f"max (eta - eta_Carnot) = {worst:.3e} over {checked} engine-valid points")

    def test_criterion_5_otto_figure_ratios(self):
        t0 = time.perf_counter()
        rows_low = rows(sweep_mu(sweep_config("otto", 5.0), 1.05, 0.2))
        rows_high = rows(sweep_mu(sweep_config("otto", 0.05), 1.05, 0.2))

        band_a = [r.R_W for r in rows_low if 0.55 <= r.mu_ratio <= 0.95]
        ok_a1 = all(v > 1.0 for v in band_a)
        finite = [(r.R_W, r.mu_ratio) for r in rows_low if r.engine_lr and r.engine_sr]
        _, argmin = min(finite)
        ok_a2 = abs(argmin - 0.5) <= 0.02 + 1e-12

        band_b = [r.R_W for r in rows_high if 0.05 <= r.mu_ratio <= 0.45]
        ok_b = all(v > 1.0 for v in band_b)

        by_ratio = {round(r.mu_ratio, 3): r for r in rows_low}
        ok_c = all(by_ratio[x].R_eta > 1.0 for x in (0.1, 0.3, 0.7, 0.9))
        dt = time.perf_counter() - t0
        report(5, ok_a1 and ok_a2 and ok_b and ok_c and dt < 30.0,
               f"(a) R_W>1 on [0.55,0.95]: {ok_a1} (min {min(band_a):.4f}), "
               f"argmin at {argmin:.3f}: {ok_a2}; "
               f"(b) R_W>1 on [0.05,0.45]: {ok_b} (min {min(band_b):.4f}); "
               f"(c) R_eta>1 at probes: {ok_c}; {dt:.1f}s")

    def test_criterion_6_otto_optimal_condition(self):
        t0 = time.perf_counter()
        oc = optimal_condition(sweep_config("otto", 5.0))
        dt = time.perf_counter() - t0
        ok = (bool(oc.coincident)
              and 1.2 <= oc.alpha_star_W <= 1.8
              and 0.3 <= oc.beta_ratio_star_W <= 0.5
              and dt < 600.0)
        report(6, ok,
               f"coincident={bool(oc.coincident)}, "
               f"alpha*_W={oc.alpha_star_W:.3f}, beta*_W={oc.beta_ratio_star_W:.2f}, "
               f"alpha*_eta={oc.alpha_star_eta:.3f}, beta*_eta={oc.beta_ratio_star_eta:.2f}; "
               f"{dt:.0f}s")

    def test_criterion_7_stirling_figure_ratios(self):
        t0 = time.perf_counter()
        rows_low = rows(sweep_mu(sweep_config("stirling", 5.0), 1.05, 0.2))
        finite = [(r.R_W, r.mu_ratio) for r in rows_low if math.isfinite(r.R_W)]
        peak, arg = max(finite)
        ok_peak = abs(arg - 0.5) <= 0.05

        rows_high = rows(sweep_mu(sweep_config("stirling", 0.05), 1.05, 0.2))
        vals = [(r.R_W, r.R_eta) for r in rows_high
                if math.isfinite(r.R_W) and math.isfinite(r.R_eta)]
        ok_high = all(w < 1.0 and e < 1.0 for w, e in vals)
        dt = time.perf_counter() - t0
        report(7, ok_peak and ok_high and dt < 60.0,
               f"argmax R_W at mu_ratio={arg:.3f} (peak {peak:.3f}): {ok_peak}; "
               f"beta_c=0.05 all R<1: {ok_high}; {dt:.1f}s")

    def test_criterion_8_stirling_non_coincidence(self):
        oc = optimal_condition(sweep_config("stirling", 5.0))
        report(8, not oc.coincident,
               f"coincident={bool(oc.coincident)}, "
               f"alpha*_W={oc.alpha_star_W:.3f}/beta*_W={oc.beta_ratio_star_W:.2f} vs "
               f"alpha*_eta={oc.alpha_star_eta:.3f}/beta*_eta={oc.beta_ratio_star_eta:.2f}")

    def test_criterion_9_region_evolution(self):
        t0 = time.perf_counter()
        alphas = (1.05, 1.5, 3.0, 6.0)
        areas = {}
        for beta_c in (5.0, 0.05):
            cfg = sweep_config("otto", beta_c)
            for alpha in alphas:
                region = enhancement_regions(cfg, alpha)
                areas[(beta_c, alpha)] = float(np.mean(region.mask))
        low = [areas[(5.0, a)] for a in alphas]
        peak = int(np.argmax(low))
        ok_shape = 0 < peak < len(alphas) - 1
        ok_order = all(areas[(5.0, a)] > areas[(0.05, a)] for a in alphas)
        dt = time.perf_counter() - t0
        report(9, ok_shape and ok_order and dt < 900.0,
               f"low-T areas over alpha {alphas}: {[round(v, 4) for v in low]} "
               f"(interior peak: {ok_shape}); low-T > high-T at each alpha: {ok_order}; "
               f"{dt:.0f}s")

    def test_criterion_10_short_range_convergence(self):
        worst = 0.0
        for fun in (otto_cycle, stirling_cycle):
            near = fun(cycle_spec(30.0, 0.7, 5.0, 0.2))
            ref = fun(cycle_spec(SHORT_RANGE, 0.7, 5.0, 0.2))
            worst = max(worst, abs(near.W / ref.W - 1.0), abs(near.eta / ref.eta - 1.0))
        report(10, worst < 1e-6,
               f"max |alpha=30 / short-range - 1| = {worst:.3e} for W and eta, both cycles")

    def test_criterion_11_gap_structure(self):
        t0 = time.perf_counter()
        gaps_mu1 = {a: min_gap(ChainParams(L=200, J=1.0, Delta=1.0, mu=1.0, alpha=a))
                    for a in (0.4, 1.7, 4.0)}
        gap_m1_small = min_gap(ChainParams(L=200, J=1.0, Delta=1.0, mu=-1.0, alpha=0.4))
        gap_m1_large = min_gap(ChainParams(L=200, J=1.0, Delta=1.0, mu=-1.0, alpha=4.0))
        dt = time.perf_counter() - t0
        ok = (all(g < 0.1 for g in gaps_mu1.values())
              and gap_m1_small > 0.1 and gap_m1_large < 0.1 and dt < 5.0)
        report(11, ok,
               f"mu=1 gaps {dict((a, round(g, 4)) for a, g in gaps_mu1.items())}; "
               f"mu=-1: alpha=0.4 -> {gap_m1_small:.3f}, alpha=4 -> {gap_m1_large:.4f}; "
               f"{dt:.2f}s")

    def test_criterion_12_winding_numbers(self):
        anchors_ok = True
        w0 = winding_number(ChainParams(L=200, J=1.0, Delta=1.0, mu=0.0, alpha=4.0))
        anchors_ok &= abs(w0.w - 1.0) <= 1e-3
        for mu in (2.0, -2.0):
            wt = winding_number(ChainParams(L=200, J=1.0, Delta=1.0, mu=mu, alpha=4.0))
            anchors_ok &= abs(wt.w) <= 1e-3

        checked, worst = 0, 0.0
        for alpha in np.geomspace(0.3, 10.0, 20):
            for mu in np.linspace(-2.5, 2.5, 20):
                p = ChainParams(L=200, J=1.0, Delta=1.0, mu=float(mu), alpha=float(alpha))
                if min_gap(p) < 0.05:
                    continue  # near a phase boundary; winding ill-conditioned
                try:
                    wr = winding_number(p, grid_density=20_000)
                except GaplessConfigurationError:
                    continue
                checked += 1
                worst = max(worst, wr.residual)
        report(12, anchors_ok and worst < 1e-3,
               f"anchors (w=1 at mu=0, w=0 at mu=+-2): {anchors_ok}; "
               f"max residual {worst:.2e} over {checked}/400 gapped probe points")
