"""Tests for the momentum grid, pairing function, quasiparticle spectrum,
Bogoliubov angle, and winding number."""

import math

import numpy as np
import pytest

from lrkengine import (
    SHORT_RANGE,
    ChainParams,
    GaplessConfigurationError,
    InvalidParameterError,
    NonFiniteResultError,
    build_spectrum,
    min_gap,
    momentum_grid,
    pairing_function,
    spectrum_scan,
    winding_number,
)
from lrkengine.chain import spectrum_energies
from lrkengine.oracle import DegenerateModeError, bogoliubov_angle, quasiparticle_energy


def chain(L=2000, J=1.0, Delta=1.0, mu=0.0, alpha=2.0):
    return ChainParams(L=L, J=J, Delta=Delta, mu=mu, alpha=alpha)


class TestMomentumGrid:
    @pytest.mark.parametrize(
        "L,expected",
        [
            (2, [math.pi / 2]),
            (4, [math.pi / 4, 3 * math.pi / 4]),
            (8, [math.pi / 8, 3 * math.pi / 8, 5 * math.pi / 8, 7 * math.pi / 8]),
        ],
    )
    def test_small_grids(self, L, expected):
        np.testing.assert_allclose(momentum_grid(L), expected, rtol=0, atol=1e-15)

    def test_structure(self):
        k = momentum_grid(2000)
        assert k.size == 1000
        assert np.all(np.diff(k) > 0)
        assert 0 < k[0] and k[-1] < math.pi
        assert abs(k[-1] - math.pi * 1999 / 2000) < 1e-15

    @pytest.mark.parametrize("L", [0, -2, 3, 7])
    def test_invalid_L(self, L):
        with pytest.raises(InvalidParameterError):
            momentum_grid(L)


class TestPairingFunction:
    def test_single_bond(self):
        # L=2: only the l=1 term survives, d_1=1.
        assert pairing_function(math.pi / 2, chain(L=2)) == pytest.approx(1.0, abs=1e-15)

    def test_short_range_closed_form(self):
        p = chain(alpha=SHORT_RANGE)
        assert pairing_function(math.pi / 3, p) == pytest.approx(2 * math.sin(math.pi / 3), abs=1e-15)

    def test_L4_alpha2(self):
        # sin(pi/4)/1 + sin(pi/2)/2^2 + sin(3pi/4)/1
        val = pairing_function(math.pi / 4, chain(L=4, alpha=2.0))
        assert val == pytest.approx(1.6642135623730951, abs=1e-14)

    @pytest.mark.parametrize("alpha", [1.05, 2.0, 6.0])
    def test_positivity_on_grid(self, alpha):
        # Sine-sum positivity on the antiperiodic grid for alpha > 1.
        f = pairing_function(momentum_grid(2000), chain(alpha=alpha))
        assert np.all(f > 0)

    def test_large_alpha_approaches_short_range(self):
        k = momentum_grid(2000)
        f30 = pairing_function(k, chain(alpha=30.0))
        assert np.max(np.abs(f30 - 2 * np.sin(k))) < 1e-8


class TestQuasiparticleEnergy:
    def test_single_mode(self):
        e = quasiparticle_energy(math.pi / 2, chain(L=2, mu=2.0))
        assert e == pytest.approx(math.sqrt(4.25), abs=1e-14)

    def test_gap_closing_short_range(self):
        p = chain(mu=1.0, alpha=SHORT_RANGE)
        assert quasiparticle_energy(math.pi, p) == pytest.approx(0.0, abs=1e-12)

    def test_pairing_off(self):
        p = chain(L=8, Delta=0.0, mu=0.0)
        k = momentum_grid(8)
        np.testing.assert_allclose(quasiparticle_energy(k, p), np.abs(np.cos(k)), atol=1e-15)

    def test_two_by_two_block_eigenvalues(self):
        # eps_k must equal the positive eigenvalue of the 2x2 Bloch block.
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = chain(
                L=int(2 * rng.integers(2, 40)),
                J=rng.uniform(-2, 2),
                Delta=rng.uniform(-2, 2),
                mu=rng.uniform(-3, 3),
                alpha=rng.uniform(0.3, 8.0),
            )
            k = rng.uniform(-math.pi, math.pi)
            x = p.J * math.cos(k) + p.mu
            y = 0.5 * p.Delta * pairing_function(k, p)
            block = np.array([[x, y], [y, -x]])
            lam = np.linalg.eigvalsh(block)[1]
            assert abs(quasiparticle_energy(k, p) - lam) < 1e-12

    def test_spectrum_shapes_and_signs(self):
        spec = build_spectrum(chain(L=200, mu=1.3, alpha=1.5))
        assert len(spec.energies) == 100
        assert np.all(np.asarray(spec.energies) >= 0)

    def test_short_range_limit_matches_large_alpha(self):
        p_inf = chain(L=200, mu=0.7, alpha=SHORT_RANGE)
        p_400 = chain(L=200, mu=0.7, alpha=400.0)
        np.testing.assert_allclose(
            build_spectrum(p_inf).energies, build_spectrum(p_400).energies, rtol=0, atol=1e-12
        )

    def test_L4_short_range_mu0(self):
        spec = build_spectrum(chain(L=4, mu=0.0, alpha=SHORT_RANGE))
        np.testing.assert_allclose(spec.energies, [1.0, 1.0], atol=1e-14)


class TestBogoliubovAngle:
    def test_vector_along_z(self):
        # f(pi) = 0 (up to sine-sum roundoff) and J cos(pi) + mu > 0.
        assert bogoliubov_angle(math.pi, chain(mu=3.0)) == pytest.approx(0.0, abs=1e-13)

    def test_pure_pairing(self):
        # J cos k + mu = 0 with positive pairing: theta = -pi/4.
        p = chain(L=2, J=1.0, mu=0.0, alpha=4.0)
        assert bogoliubov_angle(math.pi / 2, p) == pytest.approx(-math.pi / 4, abs=1e-14)

    def test_single_mode_value(self):
        # 0.5*atan2(-0.5, 2) for the L=2, mu=2 mode.
        got = bogoliubov_angle(math.pi / 2, chain(L=2, mu=2.0))
        assert got == pytest.approx(0.5 * math.atan2(-0.5, 2.0), abs=1e-15)

    def test_degenerate_mode(self):
        # J = Delta = mu = 0: the Bloch vector vanishes identically.
        p = chain(L=8, J=0.0, Delta=0.0, mu=0.0)
        with pytest.raises(DegenerateModeError):
            bogoliubov_angle(math.pi / 2, p)


class TestWinding:
    def test_topological_phase(self):
        for alpha in (4.0, 50.0):
            wr = winding_number(chain(L=200, mu=0.0, alpha=alpha))
            assert abs(wr.w - 1.0) < 1e-3
            assert wr.residual < 1e-3

    @pytest.mark.parametrize("mu", [2.0, -2.0])
    def test_trivial_phase(self, mu):
        wr = winding_number(chain(L=200, mu=mu, alpha=4.0))
        assert abs(wr.w) < 1e-3

    def test_grid_doubling_stable(self):
        w1 = winding_number(chain(L=200, mu=0.0, alpha=4.0), grid_density=50_000)
        w2 = winding_number(chain(L=200, mu=0.0, alpha=4.0), grid_density=100_000)
        assert round(2 * w1.w) == round(2 * w2.w)

    def test_gapless_rejected(self):
        with pytest.raises(GaplessConfigurationError):
            winding_number(chain(L=200, mu=1.0, alpha=SHORT_RANGE))

    def test_grid_density_floor(self):
        with pytest.raises(InvalidParameterError):
            winding_number(chain(L=200), grid_density=500)


class TestScansAndGap:
    def test_min_gap_examples(self):
        assert min_gap(chain(L=4, mu=0.0, alpha=SHORT_RANGE)) == pytest.approx(1.0, abs=1e-14)
        assert min_gap(chain(L=4, Delta=0.0, mu=0.0)) == pytest.approx(abs(math.cos(math.pi / 4)), abs=1e-14)
        # Short-range gap at mu=1 closes as O(1/L).
        assert min_gap(chain(L=2000, mu=1.0, alpha=SHORT_RANGE)) < 5 * (2 * math.pi / 2000)

    def test_scan_levels_symmetric(self):
        # Each row is -e[::-1] then e, e the sorted energies: a bitwise mirror.
        mus = [0.0, 0.5, 1.5]
        for L, alpha in ((8, 1.5), (8, SHORT_RANGE), (2000, 1.5), (2000, SHORT_RANGE)):
            table = spectrum_scan(chain(L=L, alpha=alpha), mus)
            assert table.shape == (3, L)
            n = L // 2
            e = np.sort(spectrum_energies(chain(L=L, alpha=alpha), mus), axis=1)
            assert np.array_equal(table[:, n:].view(np.uint64), e.view(np.uint64))
            assert np.array_equal(table[:, :n].view(np.uint64),
                                  (-table[:, n:][:, ::-1]).view(np.uint64))
            assert np.all(np.diff(table, axis=1) >= 0.0)

    def test_scan_overflow_raises(self):
        # Finite J and mu whose Bloch vector overflows give an infinite level.
        with pytest.raises(NonFiniteResultError):
            spectrum_scan(chain(L=8, J=1e308, alpha=1.5), [1e308, 1.5e308])

    def test_near_critical_gap(self):
        # alpha=4, mu=1: gap close to zero at the level-spacing scale.
        table = spectrum_scan(chain(L=200, alpha=4.0), [1.0])
        levels = table[0]
        assert np.min(np.abs(levels)) < 5 * (2 * math.pi / 200)

    def test_small_alpha_gap_open(self):
        table = spectrum_scan(chain(L=200, alpha=0.4), [-1.0])
        levels = table[0]
        assert np.min(np.abs(levels)) > 0.1


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(L=3), dict(L=0), dict(alpha=0.0), dict(alpha=-1.0), dict(L=2000.0), dict(L="2000"),
    ])
    def test_bad_params(self, kwargs):
        with pytest.raises(InvalidParameterError):
            chain(**kwargs)

    def test_numpy_integer_L(self):
        assert chain(L=np.int64(200)).L == 200

    def test_short_range_flag(self):
        assert chain(alpha=SHORT_RANGE).short_range
        assert not chain(alpha=5.0).short_range
