"""Tests for Otto and Stirling cycle evaluation and ratio diagnostics."""

import math
from dataclasses import replace

import numpy as np
import pytest

from lrkengine import (
    SHORT_RANGE,
    BathPair,
    ChainParams,
    ContractViolationError,
    CycleSpec,
    InvalidParameterError,
    NonFiniteResultError,
    build_spectrum,
    carnot_efficiency,
    otto_cycle,
    ratio_diagnostics,
    stirling_cycle,
)
from lrkengine.oracle import entropy, free_energy, internal_energy

BASE = ChainParams(L=2, J=1.0, Delta=1.0, mu=0.0, alpha=2.0)
SINGLE = CycleSpec(base=BASE, mu_i=2.0, mu_f=1.0, baths=BathPair(beta_h=1.0, beta_c=5.0))


def random_spec(rng, L=2000):
    base = ChainParams(L=L, J=1.0, Delta=1.0, mu=0.0, alpha=float(rng.uniform(1.0001, 6.0)))
    mu_i = 2.0
    beta_c = float(rng.choice([0.05, 5.0]))
    return CycleSpec(
        base=base,
        mu_i=mu_i,
        mu_f=float(rng.uniform(0.0, 1.0)) * mu_i,
        baths=BathPair(beta_h=float(rng.uniform(0.05, 0.95)) * beta_c, beta_c=beta_c),
    )


class TestValidation:
    def test_bath_ordering(self):
        with pytest.raises(InvalidParameterError):
            BathPair(beta_h=5.0, beta_c=1.0)
        with pytest.raises(InvalidParameterError):
            BathPair(beta_h=0.0, beta_c=1.0)

    def test_mu_ordering(self):
        with pytest.raises(InvalidParameterError):
            CycleSpec(base=BASE, mu_i=1.0, mu_f=2.0, baths=BathPair(beta_h=1.0, beta_c=5.0))
        with pytest.raises(InvalidParameterError):
            CycleSpec(base=BASE, mu_i=2.0, mu_f=-0.5, baths=BathPair(beta_h=1.0, beta_c=5.0))

    def test_alpha_floor_for_cycles(self):
        base = replace(BASE, alpha=0.8)
        with pytest.raises(InvalidParameterError):
            CycleSpec(base=base, mu_i=2.0, mu_f=1.0, baths=BathPair(beta_h=1.0, beta_c=5.0))


class TestOtto:
    def test_single_mode_frozen(self):
        r = otto_cycle(SINGLE)
        assert r.W == pytest.approx(0.20600738898464913, abs=1e-12)
        assert r.Q_h == pytest.approx(0.45011832450115313, abs=1e-12)
        assert r.engine_valid
        assert r.eta == pytest.approx(0.4576738554533595, abs=1e-12)

    def test_single_mode_eta_identity(self):
        # For one mode, eta = 1 - eps_f/eps_i exactly.
        r = otto_cycle(SINGLE)
        eps_i = build_spectrum(BASE.with_mu(2.0)).energies[0]
        eps_f = build_spectrum(BASE.with_mu(1.0)).energies[0]
        assert abs(r.eta - (1 - eps_f / eps_i)) < 1e-12

    def test_degenerate_compression(self):
        spec = replace(SINGLE, mu_f=SINGLE.mu_i)
        r = otto_cycle(spec)
        assert r.W == pytest.approx(0.0, abs=1e-14)
        assert r.Q_h > 0
        assert not r.engine_valid

    def test_single_temperature(self):
        spec = replace(SINGLE, baths=BathPair(beta_h=2.0, beta_c=2.0))
        r = otto_cycle(spec)
        assert r.W <= 1e-14
        assert not r.engine_valid

    def test_first_law_random(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            r = otto_cycle(random_spec(rng, L=200))
            scale = max(abs(r.W), abs(r.Q_h), abs(r.Q_c), 1e-300)
            assert abs(r.W - (r.Q_h + r.Q_c)) < 1e-12 * scale

    def test_carnot_bound_random(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            spec = random_spec(rng, L=200)
            r = otto_cycle(spec)
            if r.engine_valid:
                assert r.eta <= carnot_efficiency(spec.baths) + 1e-12


class TestStirling:
    def test_single_mode_frozen(self):
        r = stirling_cycle(SINGLE)
        assert r.W == pytest.approx(0.32467306811288243, abs=1e-12)
        assert r.Q_I == pytest.approx(0.4116061560736921, abs=1e-12)
        assert r.Q_II == pytest.approx(-0.5425945087488387, abs=1e-12)
        assert r.Q_III == pytest.approx(-0.009659319865115146, abs=1e-12)
        assert r.Q_IV == pytest.approx(0.46532074065314394, abs=1e-12)
        assert r.Q_h == pytest.approx(r.Q_I + r.Q_IV, abs=1e-14)
        assert r.engine_valid
        assert r.eta == pytest.approx(0.3702396052906318, abs=1e-12)

    def test_work_via_free_energy(self):
        # Independent route: W = -dF over each isothermal stroke.
        spec_i = build_spectrum(BASE.with_mu(2.0))
        spec_f = build_spectrum(BASE.with_mu(1.0))
        bh, bc = SINGLE.baths.beta_h, SINGLE.baths.beta_c
        w = (free_energy(spec_i, bh) - free_energy(spec_f, bh)) + (
            free_energy(spec_f, bc) - free_energy(spec_i, bc)
        )
        assert stirling_cycle(SINGLE).W == pytest.approx(w, abs=1e-12)

    def test_degenerate_compression(self):
        r = stirling_cycle(replace(SINGLE, mu_f=SINGLE.mu_i))
        assert r.Q_I == pytest.approx(0.0, abs=1e-14)
        assert r.Q_III == pytest.approx(0.0, abs=1e-14)
        assert r.Q_II == pytest.approx(-r.Q_IV, abs=1e-14)
        assert r.W == pytest.approx(0.0, abs=1e-14)
        assert not r.engine_valid

    def test_single_temperature(self):
        r = stirling_cycle(replace(SINGLE, baths=BathPair(beta_h=2.0, beta_c=2.0)))
        assert r.W == pytest.approx(0.0, abs=1e-14)

    def test_first_law_random(self):
        # W from the closed form equals the independently summed Q_i.
        rng = np.random.default_rng(47)
        for _ in range(200):
            r = stirling_cycle(random_spec(rng, L=200))
            q_sum = r.Q_I + r.Q_II + r.Q_III + r.Q_IV
            scale = max(abs(r.W), abs(r.Q_h), 1e-300)
            assert abs(r.W - q_sum) < 1e-10 * scale

    def test_heats_consistent_with_thermo(self):
        spec = CycleSpec(
            base=ChainParams(L=2000, J=1.0, Delta=1.0, mu=0.0, alpha=1.5),
            mu_i=2.0,
            mu_f=1.4,
            baths=BathPair(beta_h=1.0, beta_c=5.0),
        )
        r = stirling_cycle(spec)
        spec_i = build_spectrum(spec.base.with_mu(spec.mu_i))
        spec_f = build_spectrum(spec.base.with_mu(spec.mu_f))
        bh, bc = spec.baths.beta_h, spec.baths.beta_c
        q2 = internal_energy(spec_f, bc) - internal_energy(spec_f, bh)
        q1 = (entropy(spec_f, bh) - entropy(spec_i, bh)) / bh
        scale = max(abs(r.Q_I), abs(r.Q_II), 1.0)
        assert abs(r.Q_II - q2) < 1e-12 * scale
        assert abs(r.Q_I - q1) < 1e-12 * scale

    def test_released_heats_in_engine_regime(self):
        spec = CycleSpec(
            base=ChainParams(L=2000, J=1.0, Delta=1.0, mu=0.0, alpha=1.5),
            mu_i=2.0,
            mu_f=1.0,
            baths=BathPair(beta_h=1.0, beta_c=5.0),
        )
        r = stirling_cycle(spec)
        assert r.engine_valid
        assert r.Q_II <= 0 and r.Q_III <= 0


class TestOverflow:
    @pytest.mark.parametrize("cycle, Delta, J, mu_i, names", [
        (stirling_cycle, 1e308, 1.0, 2.0, "Q_III=nan, W=nan"),
        (otto_cycle, 1.0, 1e308, 1e308, "Q_h=nan, W=nan"),
        (stirling_cycle, 1.0, 1e308, 1e308, "W=nan"),
    ])
    def test_non_finite_result_raises(self, cycle, Delta, J, mu_i, names):
        # Finite inputs whose energies overflow leave inf - inf in the sums.
        base = ChainParams(L=200, J=J, Delta=Delta, alpha=1.5)
        spec = CycleSpec(base=base, mu_i=mu_i, mu_f=0.5 * mu_i,
                         baths=BathPair(beta_h=1.0, beta_c=5.0))
        with pytest.raises(NonFiniteResultError, match=names):
            cycle(spec)


class TestShortRangeContinuity:
    @pytest.mark.parametrize("cycle", [otto_cycle, stirling_cycle])
    def test_alpha30_matches_limit(self, cycle):
        base = ChainParams(L=2000, J=1.0, Delta=1.0, mu=0.0, alpha=30.0)
        baths = BathPair(beta_h=1.0, beta_c=5.0)
        near = cycle(CycleSpec(base=base, mu_i=2.0, mu_f=1.4, baths=baths))
        far = cycle(CycleSpec(base=replace(base, alpha=SHORT_RANGE), mu_i=2.0, mu_f=1.4, baths=baths))
        assert near.W == pytest.approx(far.W, rel=1e-6)
        assert near.eta == pytest.approx(far.eta, rel=1e-6)


class TestRatioDiagnostics:
    def _pair(self, alpha=1.05, mu_f=1.6, beta_c=5.0):
        baths = BathPair(beta_h=0.2 * beta_c, beta_c=beta_c)
        base = ChainParams(L=2000, J=1.0, Delta=1.0, mu=0.0, alpha=alpha)
        lr = otto_cycle(CycleSpec(base=base, mu_i=2.0, mu_f=mu_f, baths=baths))
        sr = otto_cycle(CycleSpec(base=replace(base, alpha=SHORT_RANGE), mu_i=2.0, mu_f=mu_f, baths=baths))
        return lr, sr

    def test_self_comparison(self):
        _, sr = self._pair()
        d = ratio_diagnostics(sr, sr)
        assert d.R_W == pytest.approx(1.0, abs=1e-14)
        assert d.R_eta == pytest.approx(1.0, abs=1e-14)
        assert d.dQ_rel == pytest.approx(0.0, abs=1e-14)
        assert math.isnan(d.xi)
        assert not d.defined

    def test_decomposition_identity(self):
        lr, sr = self._pair()
        d = ratio_diagnostics(lr, sr)
        assert d.defined
        assert abs(d.R_W - (1 - d.xi * d.dQ_rel)) < 1e-9

    def test_mismatched_specs_rejected(self):
        lr, sr = self._pair()
        other = otto_cycle(replace(lr.spec, mu_f=1.0))
        with pytest.raises(ContractViolationError):
            ratio_diagnostics(other, sr)
        with pytest.raises(ContractViolationError):
            ratio_diagnostics(stirling_cycle(lr.spec), sr)

    @pytest.mark.parametrize("mu_ratio", [0.2, 0.5, 0.8])
    def test_stirling_high_temperature_never_enhanced(self, mu_ratio):
        baths = BathPair(beta_h=0.01, beta_c=0.05)
        base = ChainParams(L=2000, J=1.0, Delta=1.0, mu=0.0, alpha=1.05)
        lr = stirling_cycle(CycleSpec(base=base, mu_i=2.0, mu_f=2 * mu_ratio, baths=baths))
        sr = stirling_cycle(
            CycleSpec(base=replace(base, alpha=SHORT_RANGE), mu_i=2.0, mu_f=2 * mu_ratio, baths=baths)
        )
        d = ratio_diagnostics(lr, sr)
        assert d.R_W < 1
        if not math.isnan(d.R_eta):
            assert d.R_eta < 1


class TestCarnot:
    def test_values(self):
        assert carnot_efficiency(BathPair(beta_h=1.0, beta_c=5.0)) == pytest.approx(0.8)
        assert carnot_efficiency(BathPair(beta_h=2.0, beta_c=5.0)) == pytest.approx(0.6)
        assert carnot_efficiency(BathPair(beta_h=2.0, beta_c=2.0)) == pytest.approx(0.0)
