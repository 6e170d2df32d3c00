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
