"""Property tests of the FFT pairing sums and of the tables built from them.

The momentum-grid pairing sums are computed by FFT; the literal O(L^2) sum
``_pairing_sum`` serves arbitrary momenta and is the oracle here.  The
short-range limit does not use the pairing sum, so its spectra and tables
must stay bitwise equal to the direct formulas.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lrkengine import (
    SHORT_RANGE,
    ChainParams,
    SweepConfig,
    chain,
    cycles,
    sweep_mu,
    winding_number,
)
from lrkengine.cycles import (
    otto_mode_sums,
    otto_surface,
    stirling_bounds,
    stirling_mode_sums,
    stirling_surface,
)
from lrkengine.sweep import (
    CycleTable,
    _Chain,
    _engine_ratios,
    _finite,
    _Grid,
    _Lattice,
    _point_rows,
    _spectra,
    _stable_maxima,
    _table,
)

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
        table = _table(cfg, _spectra(cfg, SHORT_RANGE, mu_ratios), beta_ratio)
        assert np.array_equal(table.W, W)
        assert np.array_equal(table.Q_h, Q_h)


class TestLongRangeTables:
    @settings(max_examples=30, deadline=None)
    @given(kind=kinds, L=st.integers(1, 500).map(lambda n: 2 * n), alpha=alphas,
           mu_i=st.floats(0.1, 3.0), beta_c=st.floats(0.05, 10.0),
           beta_ratio=st.floats(0.01, 1.0), mu_ratios=mu_grids)
    @example(kind="otto", L=6, alpha=2.0, mu_i=1.0, beta_c=3.0,
             beta_ratio=0.9999999999999999, mu_ratios=[1.0])
    def test_tables_match_literal_spectra(self, kind, L, alpha, mu_i, beta_c, beta_ratio,
                                          mu_ratios):
        # W and Q_h from FFT spectra against the same sums over spectra built
        # from the literal pairing sum.  The scale is sum_k (eps_i + eps_f)
        # |occ_k| for Otto, whose sums weigh each eps by occ_k, and
        # sum_k (eps_i + eps_f) for Stirling, whose terms change by at most
        # a few |d eps| each.  An Otto mode whose occ_k is at rounding level
        # (beta_h -> beta_c with mu_f = mu_i) keeps the rounding of its two
        # tanh, a few eps, as its floor.
        cfg = sweep_config(kind, L, mu_i, beta_c, mu_ratios)
        k = chain.momentum_grid(L)
        half_f = 0.5 * chain._pairing_sum(k, L, alpha)
        eps_i = np.hypot(np.cos(k) + mu_i, half_f)
        eps_f = np.hypot(np.cos(k) + np.asarray(mu_ratios)[:, None] * mu_i, half_f)
        beta_h = beta_ratio * beta_c
        if kind == "otto":
            Q_h, _, W = otto_mode_sums(eps_i, eps_f, beta_h, beta_c)
            occ = np.tanh(0.5 * beta_c * eps_f) - np.tanh(0.5 * beta_h * eps_i)
            tol = np.sum((eps_i + eps_f) * np.maximum(1e-11 * np.abs(occ), 4 * EPS), axis=-1)
        else:
            W, Q_h = stirling_mode_sums(eps_i, eps_f, beta_h, beta_c)[4:]
            tol = 1e-11 * np.sum(eps_i + eps_f, axis=-1)
        table = _table(cfg, _spectra(cfg, alpha, mu_ratios), beta_ratio)
        assert np.all(np.abs(table.W - W) <= tol)
        assert np.all(np.abs(table.Q_h - Q_h) <= tol)


beta_grids = st.lists(st.floats(0.01, 0.99), min_size=1, max_size=8).map(sorted)
alphas_or_sr = st.one_of(alphas, st.just(SHORT_RANGE))


def stacked_tables(cfg, alpha, brs):
    """One per-mode table per beta ratio, stacked into a column per beta ratio."""
    tables = [_table(cfg, _spectra(cfg, alpha, cfg.mu_ratio_grid), b) for b in brs]
    return CycleTable(*(np.stack([getattr(t, f) for t in tables], axis=1)
                        for f in ("W", "Q_h", "eta", "engine_valid")))


def exact_grid(cfg, alpha, brs):
    """The decisions of per-mode tables, one per beta ratio: both chains' engine
    validity, and each ratio with -inf where it is not finite."""
    lr, sr = (stacked_tables(cfg, a, brs) for a in (alpha, SHORT_RANGE))
    both, R_W, R_eta = _engine_ratios(lr, sr)
    return both, np.stack((_finite(R_W), _finite(R_eta)), axis=1)


def assert_decisions_match_tables(cfg, alpha, brs):
    # Engine validity, the R > 1 mask and each column's argmax cell decided
    # on the surfaces equal those of the per-mode tables.
    screened = _Grid.screened(_Lattice(cfg, brs), alpha)
    both, R = exact_grid(cfg, alpha, brs)
    assert np.array_equal(screened.both, both)
    assert np.array_equal(screened.region_mask(), np.all(R > 1.0, axis=1))
    # Every candidate stable: each column's maximum is its first argmax.
    n, nb = len(cfg.mu_ratio_grid), brs.size
    lo, hi, exact = (a.reshape(n, 2 * nb) for a in (screened.lo, screened.hi, screened.exact))
    index, _ = _stable_maxima(
        lo, hi, exact, lambda i, c: screened.refine(i, c % nb),
        lambda cand, cols: np.ones(cand.size, dtype=bool))
    R = R.reshape(n, 2 * nb)
    for c in range(2 * nb):
        if np.isfinite(R[:, c]).any():
            assert index[c] == np.argmax(R[:, c])
            assert lo[index[c], c] == R[index[c], c]
        else:
            assert index[c] == -1


class TestOttoSurface:
    @settings(max_examples=40, deadline=None)
    @given(L=st.integers(2, 256).map(lambda n: 2 * n), alpha=alphas_or_sr,
           mu_i=st.floats(0.1, 3.0), beta_c=st.floats(0.05, 5.0), mu_ratios=mu_grids,
           beta_ratios=beta_grids)
    def test_within_bound(self, L, alpha, mu_i, beta_c, mu_ratios, beta_ratios):
        cfg = sweep_config("otto", L, mu_i, beta_c, mu_ratios)
        eps_i, eps_f = _spectra(cfg, alpha, mu_ratios)
        beta_hs = np.asarray(beta_ratios) * beta_c
        Q_h, Q_c, W, tol = otto_surface(eps_i, eps_f, beta_hs, beta_c)
        for j, beta_h in enumerate(beta_hs):
            for got, want in zip((Q_h, Q_c, W), otto_mode_sums(eps_i, eps_f, beta_h, beta_c)):
                assert np.all(np.abs(got[:, j] - want) <= tol[:, j])

    @settings(max_examples=40, deadline=None)
    @given(L=st.integers(2, 256).map(lambda n: 2 * n), alpha=alphas_or_sr,
           mu_i=st.floats(0.1, 3.0), beta_c=st.floats(0.05, 5.0),
           mu_ratios=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=24).map(sorted),
           beta_ratios=beta_grids)
    @example(L=64, alpha=12.0, mu_i=2.0, beta_c=5.0, beta_ratios=[0.1, 0.3, 0.5],
             mu_ratios=[0.2, 0.6, 0.9, 1 - 1e-9, 1 - 1e-12, 1 - 1e-14, 1.0])
    @example(L=64, alpha=12.0, mu_i=2.0, beta_c=0.05, beta_ratios=[0.1, 0.3, 0.5],
             mu_ratios=[0.2, 0.6, 0.9, 1 - 1e-9, 1 - 1e-12, 1 - 1e-14, 1.0])
    @example(L=64, alpha=1.5, mu_i=0.0, beta_c=5.0, beta_ratios=[0.1, 0.5],
             mu_ratios=[0.0, 0.5, 1.0])
    def test_decisions_match_tables(self, L, alpha, mu_i, beta_c, mu_ratios, beta_ratios):
        # Near mu_f = mu_i, W is within the surface bound of 0 and R_W and
        # R_eta straddle 1, so the examples exercise every refinement.  At
        # mu_i = 0 every row has mu_f = mu_i and does no work.
        cfg = sweep_config("otto", L, mu_i, beta_c, mu_ratios)
        assert_decisions_match_tables(cfg, alpha, np.asarray(beta_ratios))


class TestPointRows:
    @settings(max_examples=40, deadline=None)
    @given(kind=kinds, L=st.integers(2, 256).map(lambda n: 2 * n), alpha=alphas_or_sr,
           beta_c=st.sampled_from([5.0, 0.05]), mu_ratios=mu_grids, beta_ratios=beta_grids,
           data=st.data())
    def test_rows_bitwise(self, kind, L, alpha, beta_c, mu_ratios, beta_ratios, data):
        # Rows gathered at lattice points (k, l), as the refinements and the
        # cusp probes evaluate them, equal bitwise the rows of tables on the
        # lattice's mu ratios: the rows of a chain with or without its grid
        # rows built, and the short range's rows as the lattice fills them and
        # as it gathers them again once filled.
        cfg = sweep_config(kind, L, 2.0, beta_c, mu_ratios)
        lattice = _Lattice(cfg, np.asarray(beta_ratios))
        n = data.draw(st.integers(1, 12))
        k = np.array(data.draw(st.lists(st.integers(0, lattice.mus.size - 1), min_size=n,
                                        max_size=n)))
        l = np.array(data.draw(st.lists(st.integers(0, lattice.brs.size - 1), min_size=n,
                                        max_size=n)))
        rows = [(alpha, _point_rows(lattice, _Chain(cfg, alpha, lattice.mus, grid), k, l))
                for grid in (True, False)]
        rows += [(SHORT_RANGE, lattice.short_range(k, l)) for _ in range(2)]
        for a, got in rows:
            spectra = _spectra(cfg, a, lattice.mus)
            for m, (i, j) in enumerate(zip(k, l)):
                want = _table(cfg, spectra, lattice.brs[j])
                for f in ("W", "Q_h", "eta", "engine_valid"):
                    assert np.array_equal(getattr(got, f)[m], getattr(want, f)[i],
                                          equal_nan=True)


def block_rows(L):
    """Rows per block of ``stirling_surface``: at least 8 for L <= 4096."""
    return max(1, cycles._SURFACE_BLOCK // (L // 2))


class TestStirlingSurface:
    @settings(max_examples=60, deadline=None)
    @given(L=st.integers(2, 2048).map(lambda n: 2 * n), alpha=alphas_or_sr,
           beta_c=st.floats(0.05, 5.0), beta_ratios=beta_grids,
           rows=st.sampled_from(["below", "equal", "not a multiple"]),
           seed=st.integers(0, 2**32 - 1))
    @example(L=4, alpha=SHORT_RANGE, beta_c=5.0, beta_ratios=[0.5], rows="not a multiple",
             seed=0)
    @example(L=4096, alpha=1.05, beta_c=0.05, beta_ratios=[0.01, 0.99], rows="equal",
             seed=1)
    def test_bitwise_mode_sums(self, L, alpha, beta_c, beta_ratios, rows, seed):
        # Every W and Q_h cell equals its row of stirling_mode_sums bitwise,
        # whether the mu rows fill less than one block, exactly one, or end
        # in a partial block.
        b = block_rows(L)
        rng = np.random.default_rng(seed)
        n_mu = {"below": int(rng.integers(1, b)), "equal": b,
                "not a multiple": b * int(rng.integers(1, 3)) + int(rng.integers(1, b))}[rows]
        mu_ratios = np.sort(rng.uniform(0.0, 1.0, n_mu))
        mu_ratios[-1] = 1.0  # the row where W is exactly 0
        cfg = sweep_config("stirling", L, 2.0, beta_c, mu_ratios)
        eps_i, eps_f = _spectra(cfg, alpha, mu_ratios)
        brs = np.asarray(beta_ratios)
        W, Q_h = stirling_surface(eps_i, eps_f, brs * beta_c, beta_c)
        for j, beta_h in enumerate(brs * beta_c):
            want_W, want_Q_h = stirling_mode_sums(eps_i, eps_f, beta_h, beta_c)[4:]
            assert np.array_equal(W[:, j], want_W)
            assert np.array_equal(Q_h[:, j], want_Q_h)


mu_grids_with_one = mu_grids.map(lambda mus: sorted({*mus, 1.0}))


def adversarial_rows(n, rng):
    """Three rows of n terms: a 1 and then halves of its ulp, which a sum from
    the left drops one by one; a 1 at the head of every 128-term block and the
    same halves, of which each of numpy's pairwise blocks drops 15; and normal
    terms of mixed signs and magnitudes 1e-8 to 1e8."""
    halves = np.full(n, 0.5 * EPS)
    head, blocks = halves.copy(), halves.copy()
    head[0] = 1.0
    blocks[::128] = 1.0
    return np.stack([head, blocks, rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)])


def sum_error(total, row):
    """|total - sum of row| in exact arithmetic, rounded once."""
    return abs(math.fsum([total, *(-row).tolist()]))


def pairwise_bound(row):
    """gamma_h sum |x| for numpy's pairwise depth h = 25 + ceil(log2(n / 128)),
    or n - 1 where that is less, the bound of any order."""
    n = row.size
    h = min(n - 1, 25 + max(0, math.ceil(math.log2(n / 128))))
    return h * EPS / 2 / (1 - h * EPS / 2) * math.fsum(np.abs(row).tolist())


class TestRowSums:
    """``cycles._row_gamma`` bounds a sum over modes by numpy's pairwise depth,
    which numpy does not promise: these tests pin that order for
    ``np.add.reduce`` along contiguous rows, as the mode sums take it."""

    def check(self, n, rng):
        # Up to n = 4097 the rows are summed as one block of 48, as the mode
        # sums' blocks of rows are, and into a strided out, as
        # stirling_surface's are.
        rows = adversarial_rows(n, rng)
        block = np.tile(rows, (16, 1)) if n <= 4097 else rows
        column = np.empty((len(block), 2))
        np.add.reduce(block, axis=-1, out=column[:, 1])
        totals = np.add.reduce(block, axis=-1)
        for k, row in enumerate(rows):
            assert sum_error(totals[k], row) <= pairwise_bound(row)
            assert np.all(totals[k::3] == totals[k]) and np.all(column[k::3, 1] == totals[k])
        h = min(n - 1, 25 + max(0, math.ceil(math.log2(n / 128))))
        assert cycles._row_gamma(n) == cycles._gamma(h)

    def test_every_size_to_600(self):
        rng = np.random.default_rng(0)
        for n in range(1, 601):
            self.check(n, rng)

    @pytest.mark.parametrize("n", [1000, 1023, 1024, 1025, 4097, 65537, 10**5, 2**20 + 1,
                                   2 * 10**6])
    def test_large(self, n):
        self.check(n, np.random.default_rng(n))

    def test_left_to_right_fails(self):
        # A sum from the left, as np.add.accumulate takes it, breaks the
        # pairwise bound on both structured rows at nk = 1000.
        for row in adversarial_rows(1000, np.random.default_rng(0))[:2]:
            assert sum_error(np.add.accumulate(row)[-1], row) > pairwise_bound(row)


def assert_pieces_hold(eps_f):
    # Every mode lies, in exact arithmetic, in the interval of the piece
    # that ``_piece_index`` gives it, for every piece count: the premise of
    # the interpolation bound.
    lo, hi = float(eps_f.min()), float(eps_f.max())
    for count in cycles._PIECE_COUNTS:
        scale, centers, half = cycles._pieces(lo, hi, count)
        piece = cycles._piece_index(eps_f, lo, scale, count)
        for p in np.unique(piece):
            held = eps_f[piece == p]
            c, h = Fraction(centers[p]), Fraction(half)
            assert c - h <= Fraction(held.min()) and Fraction(held.max()) <= c + h


def any_order_moment_term(eps_f, beta_hs, degree, count):
    # nk gamma_nk sum_j |c_j|, the largest over F, Phi and the pieces: the
    # moments are sums of n terms of magnitude at most 1 by np.add.reduceat,
    # whose order numpy does not state, and a sum from the left reaches
    # gamma_(n-1) n (TestRowSums::test_left_to_right_fails).
    nk = eps_f.shape[1]
    _, centers, half = cycles._pieces(float(eps_f.min()), float(eps_f.max()), count)
    coef, _ = cycles._chebyshev_coefficients(centers, half, beta_hs, degree)
    return nk * cycles._gamma(nk) * np.max(np.sum(np.abs(coef), axis=-1), axis=(0, 1))


def surrogate_calls(mp):
    """Record the (degree, count) of each ``_stirling_surrogate`` call."""
    calls, surrogate = [], cycles._stirling_surrogate
    mp.setattr(cycles, "_stirling_surrogate", lambda *a: calls.append(a[4:]) or surrogate(*a))
    return calls


class TestStirlingScreen:
    @settings(max_examples=60, deadline=None)
    @given(L=st.integers(2, 2048).map(lambda n: 2 * n), alpha=alphas_or_sr,
           mu_i=st.floats(0.1, 3.0), beta_c=st.floats(0.01, 50.0), mu_ratios=mu_grids_with_one,
           beta_ratios=beta_grids, degree=st.one_of(st.none(), st.integers(2, 60)),
           pieces=st.sampled_from(cycles._PIECE_COUNTS))
    @example(L=4, alpha=SHORT_RANGE, mu_i=2.0, beta_c=0.01, mu_ratios=[0.3, 1.0],
             beta_ratios=[0.01, 0.5], degree=None, pieces=1)
    @example(L=4096, alpha=1.05, mu_i=2.0, beta_c=5.0, mu_ratios=[0.0, 0.5, 0.99, 1.0],
             beta_ratios=[0.5, 0.99], degree=8, pieces=1)
    @example(L=2000, alpha=1.5, mu_i=2.0, beta_c=50.0, mu_ratios=[0.2, 0.7, 1.0],
             beta_ratios=[0.1, 0.9], degree=None, pieces=1)
    # On 16 pieces at nk = 8192, where the any-order term of the moment sums
    # is most of the bound.
    @example(L=16384, alpha=1.05, mu_i=2.0, beta_c=5.0, mu_ratios=[0.0, 0.5, 0.99, 1.0],
             beta_ratios=[0.2, 0.4, 0.6, 0.8], degree=None, pieces=1)
    @example(L=4096, alpha=1.5, mu_i=2.0, beta_c=5.0, mu_ratios=[0.0, 0.5, 1.0],
             beta_ratios=[0.3, 0.7], degree=8, pieces=4)
    # A mode of the first row at (eps - lo) * scale = 1, 2 and 8 exactly, a
    # piece boundary of 2, 4 and 16 pieces.
    @example(L=8, alpha=SHORT_RANGE, mu_i=1.5384949652013988, beta_c=5.0,
             mu_ratios=[0.3, 0.6, 1.0], beta_ratios=[0.2, 0.8], degree=6, pieces=2)
    @example(L=8, alpha=2.0, mu_i=1.9427240077070833, beta_c=5.0, mu_ratios=[0.3, 0.6, 1.0],
             beta_ratios=[0.2, 0.8], degree=4, pieces=16)
    @example(L=12, alpha=1.5, mu_i=2.275170852609899, beta_c=5.0, mu_ratios=[0.3, 0.6, 1.0],
             beta_ratios=[0.2, 0.8], degree=None, pieces=1)
    def test_within_bound(self, L, alpha, mu_i, beta_c, mu_ratios, beta_ratios, degree, pieces):
        # Every W and Q_h cell lies within tol of stirling_mode_sums, at the
        # degree and pieces the bound chooses (or on the exact surface, with
        # tol 0) and at any fixed degree and piece count, where the
        # interpolation error dominates.  The row mu_f/mu_i = 1 has W = 0
        # exactly.  Rounding terms lie orders of magnitude above the errors
        # seen, so the bound's premises are checked as well: the pieces hold
        # their modes, and tol holds the moment sums in any order.
        cfg = sweep_config("stirling", L, mu_i, beta_c, mu_ratios)
        eps_i, eps_f = _spectra(cfg, alpha, mu_ratios)
        beta_hs = np.asarray(beta_ratios) * beta_c
        with pytest.MonkeyPatch.context() as mp:
            calls = surrogate_calls(mp)
            if degree is None:
                W, Q_h, tol = stirling_bounds(eps_i, eps_f, beta_hs, beta_c)
            else:
                W, Q_h, tol = cycles._stirling_surrogate(eps_i, eps_f, beta_hs, beta_c, degree,
                                                         pieces)
        for j, beta_h in enumerate(beta_hs):
            want_W, want_Q_h = stirling_mode_sums(eps_i, eps_f, beta_h, beta_c)[4:]
            assert np.all(np.abs(W[:, j] - want_W) <= tol[:, j])
            assert np.all(np.abs(Q_h[:, j] - want_Q_h) <= tol[:, j])
        assert_pieces_hold(eps_f)
        for d, count in calls:
            assert np.all(tol >= any_order_moment_term(eps_f, beta_hs, d, count))

    @settings(max_examples=30, deadline=None)
    @given(L=st.integers(2, 256).map(lambda n: 2 * n), alpha=alphas_or_sr,
           mu_i=st.floats(0.1, 3.0), beta_c=st.floats(0.05, 5.0),
           mu_ratios=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=24).map(sorted),
           beta_ratios=beta_grids, screen=st.booleans())
    @example(L=64, alpha=12.0, mu_i=2.0, beta_c=5.0, beta_ratios=[0.1, 0.3, 0.5],
             mu_ratios=[0.2, 0.6, 0.9, 1 - 1e-9, 1 - 1e-12, 1 - 1e-14, 1.0], screen=True)
    @example(L=64, alpha=12.0, mu_i=2.0, beta_c=0.05, beta_ratios=[0.1, 0.3, 0.5],
             mu_ratios=[0.2, 0.6, 0.9, 1 - 1e-9, 1 - 1e-12, 1 - 1e-14, 1.0], screen=True)
    @example(L=64, alpha=1.5, mu_i=0.0, beta_c=5.0, beta_ratios=[0.1, 0.5],
             mu_ratios=[0.0, 0.5, 1.0], screen=True)
    # On 16 pieces, with a mode of the first row of the long-range chain on
    # the boundary of pieces 7 and 8.
    @example(L=8, alpha=2.0, mu_i=1.9427240077070833, beta_c=5.0, beta_ratios=[0.2, 0.8],
             mu_ratios=[0.3, 0.6, 1.0], screen=True)
    @example(L=12, alpha=1.5, mu_i=2.275170852609899, beta_c=5.0, beta_ratios=[0.2, 0.8],
             mu_ratios=[0.3, 0.6, 1.0], screen=True)
    def test_decisions_match_tables(self, L, alpha, mu_i, beta_c, mu_ratios, beta_ratios,
                                    screen):
        # As for Otto, on the Chebyshev surrogate wherever ``screen`` holds,
        # and otherwise wherever its degree costs less than the exact surface.
        cfg = sweep_config("stirling", L, mu_i, beta_c, mu_ratios)
        with pytest.MonkeyPatch.context() as mp:
            if screen:
                mp.setattr(cycles, "_DEGREES_PER_COLUMN", 10**6)
            assert_decisions_match_tables(cfg, alpha, np.asarray(beta_ratios))


class TestSharedReference:
    @settings(max_examples=30, deadline=None)
    @given(kind=kinds, L=st.integers(1, 256).map(lambda n: 2 * n),
           alpha_list=st.lists(alphas_or_sr, min_size=1, max_size=4),
           beta_c=st.sampled_from([5.0, 0.05]), beta_ratio=st.floats(0.01, 1.0),
           mu_ratios=mu_grids)
    def test_alpha_array_bitwise(self, kind, L, alpha_list, beta_c, beta_ratio, mu_ratios):
        # One call over an array of alphas, all against one short-range
        # table, gives the rows of one call per alpha, alpha-major, bitwise.
        cfg = sweep_config(kind, L, 2.0, beta_c, mu_ratios)
        got = sweep_mu(cfg, np.asarray(alpha_list), beta_ratio)
        each = [sweep_mu(cfg, a, beta_ratio) for a in alpha_list]
        assert list(got) == list(each[0])
        for name, column in got.items():
            want = np.concatenate([e[name] for e in each])
            assert (column.dtype, column.tobytes()) == (want.dtype, want.tobytes()), name
