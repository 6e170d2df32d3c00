"""Tests for the thermodynamic mode sums of ``oracle``, the stable
thermodynamics of a quasiparticle spectrum behind the first-law tests."""

import math

import numpy as np
import pytest

from lrkengine import SHORT_RANGE, ChainParams, build_spectrum
from lrkengine.oracle import (
    UndefinedLimitError,
    entropy,
    free_energy,
    internal_energy,
    log_partition,
)

SINGLE_MODE = build_spectrum(ChainParams(L=2, J=1.0, Delta=1.0, mu=2.0, alpha=2.0))


def random_spectrum(rng):
    return build_spectrum(
        ChainParams(
            L=int(2 * rng.integers(2, 60)),
            J=rng.uniform(-2, 2),
            Delta=rng.uniform(-2, 2),
            mu=rng.uniform(-3, 3),
            alpha=rng.uniform(0.5, 10.0),
        )
    )


class TestLogPartition:
    def test_infinite_temperature(self):
        spec = build_spectrum(ChainParams(L=8, J=1.0, Delta=1.0, mu=0.5, alpha=2.0))
        assert log_partition(spec, 0.0) == pytest.approx(8 * math.log(2), abs=1e-14)

    def test_single_mode_frozen(self):
        assert log_partition(SINGLE_MODE, 5.0) == pytest.approx(10.307830808883972, abs=1e-12)

    def test_ground_state_dominance(self):
        spec = build_spectrum(ChainParams(L=8, J=1.0, Delta=1.0, mu=0.5, alpha=2.0))
        beta = 200.0
        assert log_partition(spec, beta) == pytest.approx(beta * float(np.sum(spec.energies)), rel=1e-10)


class TestInternalEnergy:
    def test_infinite_temperature(self):
        assert internal_energy(SINGLE_MODE, 0.0) == 0.0

    def test_zero_temperature_limit(self):
        spec = build_spectrum(ChainParams(L=8, J=1.0, Delta=1.0, mu=0.5, alpha=2.0))
        assert internal_energy(spec, 1e4) == pytest.approx(-float(np.sum(spec.energies)), rel=1e-12)

    def test_single_mode_frozen(self):
        assert internal_energy(SINGLE_MODE, 1.0) == pytest.approx(-1.5960944764393787, abs=1e-12)

    def test_derivative_of_log_partition(self):
        # U = -d lnZ / d beta; central difference with h = 1e-5*beta.
        rng = np.random.default_rng(11)
        for _ in range(20):
            spec = random_spectrum(rng)
            beta = 10 ** rng.uniform(math.log10(0.05), 3)
            h = 1e-5 * beta
            fd = -(log_partition(spec, beta + h) - log_partition(spec, beta - h)) / (2 * h)
            assert internal_energy(spec, beta) == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestFreeEnergyEntropy:
    def test_free_energy_beta_zero(self):
        with pytest.raises(UndefinedLimitError):
            free_energy(SINGLE_MODE, 0.0)

    def test_entropy_limits(self):
        spec = build_spectrum(ChainParams(L=8, J=1.0, Delta=1.0, mu=0.5, alpha=2.0))
        assert entropy(spec, 0.0) == pytest.approx(8 * math.log(2), abs=1e-14)
        assert entropy(spec, 1e5) == pytest.approx(0.0, abs=1e-9)

    def test_single_mode_frozen(self):
        assert entropy(SINGLE_MODE, 1.0) == pytest.approx(0.7050314332807621, abs=1e-12)

    def test_thermodynamic_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            spec = random_spectrum(rng)
            beta = 10 ** rng.uniform(-3, 3)
            S, U, F = entropy(spec, beta), internal_energy(spec, beta), free_energy(spec, beta)
            assert abs(S - beta * (U - F)) < 1e-10 * spec.params.L

    def test_entropy_monotone_in_beta(self):
        spec = build_spectrum(ChainParams(L=40, J=1.0, Delta=1.0, mu=1.2, alpha=1.3))
        betas = np.geomspace(1e-3, 1e3, 50)
        s = [entropy(spec, b) for b in betas]
        assert np.all(np.diff(s) <= 1e-10)

    def test_free_energy_below_internal(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            spec = random_spectrum(rng)
            beta = 10 ** rng.uniform(-2, 2)
            assert free_energy(spec, beta) <= internal_energy(spec, beta) + 1e-12


class TestStability:
    def test_overflow_safety(self):
        spec = build_spectrum(ChainParams(L=8, J=1.0, Delta=1.0, mu=0.5, alpha=2.0))
        beta = 1e6 / max(spec.energies)
        S = entropy(spec, beta)
        U, F = internal_energy(spec, beta), free_energy(spec, beta)
        assert all(map(math.isfinite, (log_partition(spec, beta), U, F, S)))
        assert S >= 0

    def test_gap_closing_is_quiet(self):
        # Exact zero modes contribute ln 2 worth of entropy without NaNs.
        spec = build_spectrum(ChainParams(L=2000, J=1.0, Delta=1.0, mu=1.0, alpha=SHORT_RANGE))
        S = entropy(spec, 5.0)
        assert math.isfinite(S) and S >= 0

    def test_beta_validation(self):
        for bad in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                log_partition(SINGLE_MODE, bad)
