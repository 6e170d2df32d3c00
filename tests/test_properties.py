"""Property tests of the FFT pairing sums and of the tables built from them.

The momentum-grid pairing sums are computed by FFT; the literal O(L^2) sum
``_pairing_sum`` serves arbitrary momenta and is the oracle here.  The
short-range limit does not use the pairing sum, so its spectra and tables
must stay bitwise equal to the direct formulas.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lrkengine import SHORT_RANGE, ChainParams, ReferenceCache, SweepConfig, chain, winding_number
from lrkengine.cycles import otto_mode_sums, stirling_mode_sums
from lrkengine.sweep import _spectra, _table

EPS = np.finfo(float).eps

even_L = st.integers(1, 2048).map(lambda n: 2 * n)
alphas = st.floats(1.0, 12.0, exclude_min=True)


def weights_sum(L, alpha):
    return float(np.sum(chain._pairing_weights(L, alpha)[1]))


def reduced_argument_sum(L, alpha):
    """f(k_n) with each sin(k_n l) taken at the exact grid angle
    pi ((2n - 1) l mod 2L)/L, so no argument grows beyond 2 pi."""
    n = np.arange(1, L // 2 + 1)
    m = np.outer(2 * n - 1, np.arange(1, L)) % (2 * L)
    return (np.sin(np.pi * m / L) * chain._pairing_weights(L, alpha)[1]).sum(axis=1)


class TestGridPairing:
    @settings(max_examples=40, deadline=None)
    @given(L=even_L, alpha=alphas)
    @example(L=2660, alpha=12.0)
    def test_matches_literal_sum(self, L, alpha):
        # The literal sum evaluates sin at the rounded k*l.  That argument
        # error, up to about 1.55 pi eps l per term, with
        # sum_l l w_l = (L/2) sum_l w_l, bounds the difference by about
        # 2.9 L eps sum_l w_l; at L = 2660, alpha = 12 it is 2.17 L eps sum_l w_l.
        cos_k, f = chain._grid_pairing(L, alpha)
        k = chain.momentum_grid(L)
        ref = chain._pairing_sum(k, L, alpha)
        assert np.max(np.abs(f - ref)) <= 3.0 * L * EPS * weights_sum(L, alpha)
        assert np.array_equal(cos_k, np.cos(k))

    @settings(max_examples=40, deadline=None)
    @given(L=st.integers(1, 1024).map(lambda n: 2 * n), alpha=alphas)
    def test_matches_reduced_argument_sum(self, L, alpha):
        # Without argument rounding in the oracle, the FFT agrees to a few
        # eps log2(L) sum_l w_l.
        f = chain._grid_pairing(L, alpha)[1]
        tol = 4.0 * EPS * math.log2(2 * L) * weights_sum(L, alpha)
        assert np.max(np.abs(f - reduced_argument_sum(L, alpha))) <= tol


class TestUniformPairing:
    @settings(max_examples=30, deadline=None)
    @given(L=even_L, alpha=alphas, n=st.integers(1000, 4001))
    @example(L=2000, alpha=1.05, n=1001)
    @example(L=200, alpha=1.5, n=20_000)
    def test_matches_literal_sum(self, L, alpha, n):
        # n - 1 < L folds the distances l mod (n - 1) before the transform.
        k = np.linspace(-np.pi, np.pi, n)
        got = chain._fft_uniform_pairing(L, alpha, n)
        assert np.max(np.abs(got - chain._pairing_sum(k, L, alpha))) <= 1e-10

    @settings(max_examples=20, deadline=None)
    @given(L=st.integers(2, 200).map(lambda n: 2 * n), alpha=alphas,
           mu=st.floats(-2.5, 2.5).filter(lambda mu: abs(abs(mu) - 1.0) > 0.05))
    def test_winding_matches_literal_sum(self, L, alpha, mu):
        params = ChainParams(L=L, mu=mu, alpha=alpha)
        try:
            got = winding_number(params, grid_density=4001)
        except chain.GaplessConfigurationError:
            return
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chain, "_fft_uniform_pairing", lambda L, alpha, n: chain._pairing_sum(
                np.linspace(-np.pi, np.pi, n), L, alpha))
            want = winding_number(params, grid_density=4001)
        assert got.w == pytest.approx(want.w, abs=1e-9)
        assert got.residual == pytest.approx(want.residual, abs=1e-9)


def direct_energies(L, J, Delta, mu):
    """eps_k of the nearest-neighbour chain, written out without the cache."""
    k = chain.momentum_grid(L)
    mu = np.asarray(mu, dtype=float)
    return np.hypot(J * np.cos(k) + mu[..., None], 0.5 * Delta * (2.0 * np.sin(k)))


def sweep_config(kind, L, mu_i, beta_c, mu_ratios):
    return SweepConfig(cycle_kind=kind, base=ChainParams(L=L, alpha=2.0), mu_i=mu_i,
                       mu_ratio_grid=tuple(mu_ratios), beta_c=beta_c)


kinds = st.sampled_from(["otto", "stirling"])
mu_grids = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12).map(sorted)


class TestShortRangeUnchanged:
    @settings(max_examples=40, deadline=None)
    @given(L=even_L, J=st.floats(0.1, 3.0), Delta=st.floats(0.1, 3.0),
           mus=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=8))
    def test_spectra_bitwise(self, L, J, Delta, mus):
        params = ChainParams(L=L, J=J, Delta=Delta, alpha=SHORT_RANGE)
        got = chain.spectrum_energies(params, mus)
        assert np.array_equal(got, direct_energies(L, J, Delta, mus))

    @settings(max_examples=30, deadline=None)
    @given(kind=kinds, L=st.integers(1, 500).map(lambda n: 2 * n), mu_i=st.floats(0.1, 3.0),
           beta_c=st.floats(0.05, 10.0), beta_ratio=st.floats(0.01, 1.0), mu_ratios=mu_grids)
    def test_tables_bitwise(self, kind, L, mu_i, beta_c, beta_ratio, mu_ratios):
        cfg = sweep_config(kind, L, mu_i, beta_c, mu_ratios)
        eps_i = direct_energies(L, 1.0, 1.0, mu_i)
        eps_f = direct_energies(L, 1.0, 1.0, np.asarray(mu_ratios) * mu_i)
        beta_h = beta_ratio * beta_c
        if kind == "otto":
            Q_h, _, W = otto_mode_sums(eps_i, eps_f, beta_h, beta_c)
        else:
            W, Q_h = stirling_mode_sums(eps_i, eps_f, beta_h, beta_c)[4:]
        for table in (ReferenceCache().table(cfg, beta_ratio),
                      _table(cfg, _spectra(cfg, SHORT_RANGE, mu_ratios), beta_ratio)):
            assert np.array_equal(table.W, W)
            assert np.array_equal(table.Q_h, Q_h)


class TestLongRangeTables:
    @settings(max_examples=30, deadline=None)
    @given(kind=kinds, L=st.integers(1, 500).map(lambda n: 2 * n), alpha=alphas,
           mu_i=st.floats(0.1, 3.0), beta_c=st.floats(0.05, 10.0),
           beta_ratio=st.floats(0.01, 1.0), mu_ratios=mu_grids)
    def test_tables_match_literal_spectra(self, kind, L, alpha, mu_i, beta_c, beta_ratio,
                                          mu_ratios):
        # W and Q_h from FFT spectra against the same sums over spectra built
        # from the literal pairing sum.  The scale is sum_k (eps_i + eps_f)
        # |occ_k| for Otto, whose sums weigh each eps by occ_k, and
        # sum_k (eps_i + eps_f) for Stirling, whose terms change by at most
        # a few |d eps| each.
        cfg = sweep_config(kind, L, mu_i, beta_c, mu_ratios)
        k = chain.momentum_grid(L)
        half_f = 0.5 * chain._pairing_sum(k, L, alpha)
        eps_i = np.hypot(np.cos(k) + mu_i, half_f)
        eps_f = np.hypot(np.cos(k) + np.asarray(mu_ratios)[:, None] * mu_i, half_f)
        beta_h = beta_ratio * beta_c
        if kind == "otto":
            Q_h, _, W = otto_mode_sums(eps_i, eps_f, beta_h, beta_c)
            occ = np.tanh(0.5 * beta_c * eps_f) - np.tanh(0.5 * beta_h * eps_i)
            scale = np.sum((eps_i + eps_f) * np.abs(occ), axis=-1)
        else:
            W, Q_h = stirling_mode_sums(eps_i, eps_f, beta_h, beta_c)[4:]
            scale = np.sum(eps_i + eps_f, axis=-1)
        table = _table(cfg, _spectra(cfg, alpha, mu_ratios), beta_ratio)
        assert np.all(np.abs(table.W - W) <= 1e-11 * scale)
        assert np.all(np.abs(table.Q_h - Q_h) <= 1e-11 * scale)
