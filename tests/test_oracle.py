"""Oracle tests: real-space BdG construction, Jacobi eigensolver, and exact
partition-function enumeration against the closed-form modules."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lrkengine
from lrkengine import SHORT_RANGE, ChainParams, build_spectrum
from lrkengine.chain import _grid_pairing, _pairing_weights, momentum_grid
from lrkengine.oracle import (
    ENUMERATION_L_CAP,
    ORACLE_L_CAP,
    OracleScaleError,
    bdg_matrix,
    enumerate_partition,
    exact_spectrum,
    jacobi_eigenvalues,
    log_partition,
)


def chain(L, alpha, mu, J=1.0, Delta=1.0):
    return ChainParams(L=L, J=J, Delta=Delta, mu=mu, alpha=alpha)


class TestJacobi:
    def test_identity(self):
        np.testing.assert_allclose(jacobi_eigenvalues(np.eye(6)), np.ones(6), atol=1e-14)

    def test_against_closed_form_2x2(self):
        m = np.array([[1.0, 2.0], [2.0, -1.0]])
        np.testing.assert_allclose(jacobi_eigenvalues(m), [-math.sqrt(5), math.sqrt(5)], atol=1e-12)

    def test_random_symmetric(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(12, 12))
        m = a + a.T
        np.testing.assert_allclose(jacobi_eigenvalues(m), np.linalg.eigvalsh(m), atol=1e-10)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            jacobi_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestBdgMatrix:
    def test_particle_hole_symmetry(self):
        m = bdg_matrix(chain(8, 1.5, 1.0))
        ev = np.sort(jacobi_eigenvalues(m))
        np.testing.assert_allclose(ev, -ev[::-1], atol=1e-10)

    def test_free_hopping(self):
        # Delta=0, mu=0: eigenvalues are +-J cos k over the antiperiodic grid.
        m = bdg_matrix(chain(4, 2.0, 0.0, Delta=0.0))
        got = np.sort(np.abs(jacobi_eigenvalues(m)))
        expected = np.sort(np.abs(np.cos([math.pi / 4, 3 * math.pi / 4] * 2)))
        np.testing.assert_allclose(np.sort(got), np.repeat(expected, 2), atol=1e-12)

    def test_L2_anchor(self):
        # Single mode at k=pi/2 with mu=2: |eigenvalues| = sqrt(4.25), x4.
        ev = jacobi_eigenvalues(bdg_matrix(chain(2, 2.0, 2.0)))
        np.testing.assert_allclose(np.sort(np.abs(ev)), np.full(4, math.sqrt(4.25)), atol=1e-12)

    def test_scale_cap(self):
        with pytest.raises(OracleScaleError):
            bdg_matrix(chain(ORACLE_L_CAP + 2, 2.0, 0.0))


class TestSpectrumEquivalence:
    @pytest.mark.parametrize("L", [2, 4, 8])
    @pytest.mark.parametrize("alpha", [1.05, 2.0, 4.0, SHORT_RANGE])
    @pytest.mark.parametrize("mu", [0.0, 1.0, 2.0])
    def test_matches_momentum_space(self, L, alpha, mu):
        p = chain(L, alpha, mu)
        pos = exact_spectrum(bdg_matrix(p))
        expected = np.sort(np.repeat(build_spectrum(p).energies, 2))
        np.testing.assert_allclose(pos, expected, atol=1e-10)


class TestEnumeration:
    def test_infinite_temperature(self):
        spec = build_spectrum(chain(4, 2.0, 1.0))
        assert enumerate_partition(spec, 0.0) == pytest.approx(2.0**4, rel=1e-14)

    def test_single_mode_closed_form(self):
        spec = build_spectrum(chain(2, 2.0, 2.0))
        eps = spec.energies[0]
        z = enumerate_partition(spec, 1.3)
        assert z == pytest.approx(4 * math.cosh(1.3 * eps / 2) ** 2, rel=1e-14)

    @pytest.mark.parametrize("L", [2, 4, 8])
    @pytest.mark.parametrize("beta", [0.05, 1.0, 5.0])
    def test_matches_log_partition(self, L, beta):
        spec = build_spectrum(chain(L, 1.5, 0.8))
        z = enumerate_partition(spec, beta)
        assert z == pytest.approx(math.exp(log_partition(spec, beta)), rel=1e-10)

    def test_random_params(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            p = chain(4, rng.uniform(0.5, 6.0), rng.uniform(-2, 2), J=rng.uniform(-2, 2), Delta=rng.uniform(-2, 2))
            spec = build_spectrum(p)
            z = enumerate_partition(spec, 1.0)
            assert z == pytest.approx(math.exp(log_partition(spec, 1.0)), rel=1e-10)

    def test_scale_cap(self):
        spec = build_spectrum(chain(ENUMERATION_L_CAP + 2, 2.0, 0.0))
        with pytest.raises(OracleScaleError):
            enumerate_partition(spec, 1.0)


#: Names that only tests reach: in ``oracle``, or gone from the package.
TEST_ONLY = (
    "log_partition", "internal_energy", "free_energy", "entropy", "UndefinedLimitError",
    "ZERO_ENERGY_FLOOR", "quasiparticle_energy", "bogoliubov_angle", "DegenerateModeError",
    "thermo_state", "ThermoState", "SweepRow",
)


class TestRuntimeOracleFree:
    def test_runtime_does_not_import_oracle(self):
        # A fresh interpreter, so that no test's import of the oracle counts.
        code = (
            "import json, sys, lrkengine, lrkengine.cli\n"
            "mods = [m for m in sys.modules if m.startswith('lrkengine')]\n"
            f"names = {{m: sorted(set(vars(sys.modules[m])) & set({TEST_ONLY!r})) for m in mods}}\n"
            "print(json.dumps(names))\n"
        )
        src = str(Path(lrkengine.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        names = json.loads(out)
        assert "lrkengine.oracle" not in names
        assert "lrkengine.cli" in names
        assert names == {m: [] for m in names}


def polylog_limit(alpha, k):
    """f_inf(k) = 2 Im Li_alpha(e^{ik}), the pairing sum of the infinite chain
    (Vodola et al., PRL 113, 156402, 2014), to 25 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(25):
        return float(2 * mpmath.im(mpmath.polylog(alpha, mpmath.expj(k))))


def tail_law(alpha, L, k):
    """alpha 2^alpha L^-(alpha+1) / sin^2(k/2): the leading term of f_L(k) - f_inf(k)
    at a grid momentum.  f_L sums 2 sin(kl)/l^alpha over l < L/2 and the l = L/2
    term once, so the difference is minus the tail beyond L/2 with the endpoint
    at half weight; summed by parts twice, with cos(kL/2) = 0 on the
    antiperiodic grid, its l^-alpha terms cancel and the derivative term leads."""
    return alpha * 2.0**alpha * L ** -(alpha + 1.0) / math.sin(0.5 * k) ** 2


def fft_floor(L, alpha):
    """2 u log2(L) sum_l w_l: the rounding of the length-L FFT, where it passes the tail."""
    return 2.0 * 2.0**-53 * math.log2(L) * float(np.sum(_pairing_weights(L, alpha)[1]))


def grid_index(L, k):
    """The index of the grid momentum pi (2n - 1)/L nearest ``k``."""
    return min(L // 2, max(1, round((k * L / math.pi + 1.0) / 2.0))) - 1


class TestPolylogLimit:
    """``chain._grid_pairing`` against its thermodynamic limit.

    Measured over alpha 1.001-6 and L 200-2e6, |f_L - f_inf| is 0.96-1.000
    of ``tail_law`` at k >= 0.3, and 0.91-0.93 of it at the three smallest
    momenta, where it decays only like L^(1 - alpha); at L = 2e6 the FFT's
    rounding (``fft_floor``) takes over from the tail for alpha >= 1.5.  At
    alpha = 1.5, k = 0.35 and L = 2000 the error is 7.81e-7.
    """

    @pytest.mark.parametrize("alpha,L,k", [
        (1.5, 2000, 0.35), (1.5, 200, 1.5), (1.5, 200_000, 0.35), (1.5, 2_000_000, 1.5),
        (1.2, 2000, 3.0), (2.2, 20_000, 0.7), (3.0, 200, 0.35), (3.0, 2000, 3.0),
        (4.5, 200, 1.5), (6.0, 200, 0.35), (6.0, 2000, 2.0),
    ])
    def test_bulk(self, alpha, L, k):
        # Near L^-(alpha+1): within 5% of the leading term, plus the FFT floor.
        n = grid_index(L, k)
        k = momentum_grid(L)[n]
        err = abs(_grid_pairing(L, alpha)[1][n] - polylog_limit(alpha, k))
        assert err <= 1.05 * tail_law(alpha, L, k) + fft_floor(L, alpha)

    @pytest.mark.parametrize("alpha,L,n", [
        (1.2, 200, 1), (1.5, 2000, 1), (1.5, 20_000, 2), (3.0, 200, 3), (6.0, 200, 1),
    ])
    def test_small_k(self, alpha, L, n):
        # At k = (2n - 1) pi / L the leading term is about
        # alpha 2^alpha (4 / pi^2) L^(1 - alpha) / (2n - 1)^2, and the error
        # stays below it.
        k = momentum_grid(L)[n - 1]
        err = abs(_grid_pairing(L, alpha)[1][n - 1] - polylog_limit(alpha, k))
        assert err <= alpha * 2.0**alpha * (4.0 / math.pi**2) * L ** (1.0 - alpha) / (2 * n - 1) ** 2

    @pytest.mark.parametrize("alpha,L", [(1.001, 200), (1.01, 2000), (1.001, 2_000_000)])
    def test_alpha_near_one(self, alpha, L):
        # f_inf tends to pi - k as alpha -> 1, and the error at the smallest
        # momentum no longer decays with L (0.03 at L = 2e6): each momentum
        # has its own bound, the leading term, within 5%.
        f = _grid_pairing(L, alpha)[1]
        k = momentum_grid(L)
        for n in (0, 1, grid_index(L, 0.35), L // 2 - 1):
            err = abs(f[n] - polylog_limit(alpha, k[n]))
            assert err <= 1.05 * tail_law(alpha, L, k[n]) + fft_floor(L, alpha)
        assert abs(f[0] - polylog_limit(alpha, k[0])) > 0.02
