"""Momentum-space description of the long-range Kitaev chain.

The chain has nearest-neighbor hopping J, chemical potential mu, and
superconducting pairing decaying as 1/d^alpha with the effective distance
d = min(l, L - l) on a closed ring with antiperiodic boundary conditions.
All quantities here are built from the pairing sum f(k) and the resulting
quasiparticle dispersion; the cycles' mode sums live in sibling modules.
"""

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

#: Sentinel for the alpha -> infinity (nearest-neighbor pairing) limit.
SHORT_RANGE = math.inf


class InvalidParameterError(ValueError):
    """Raised when chain or cycle parameters violate their constraints."""


class GaplessConfigurationError(RuntimeError):
    """Raised when a winding number is requested for a (near-)gapless chain."""


class NonFiniteResultError(RuntimeError):
    """Raised when finite inputs give a non-finite level or cycle quantity (overflow)."""


@dataclass(frozen=True)
class ChainParams:
    """Static description of the working medium.

    ``alpha = SHORT_RANGE`` (i.e. ``math.inf``) selects the exact
    nearest-neighbor pairing limit where f(k) = 2 sin k; it is a first-class
    variant, not a large-alpha approximation.
    """

    L: int
    J: float = 1.0
    Delta: float = 1.0
    mu: float = 0.0
    alpha: float = SHORT_RANGE

    def __post_init__(self):
        if not isinstance(self.L, (int, np.integer)):
            raise InvalidParameterError(f"L must be an integer, got {self.L!r}")
        if self.L < 2 or self.L % 2 != 0:
            raise InvalidParameterError(f"L must be even and >= 2, got {self.L}")
        if not (self.alpha > 0.0):
            raise InvalidParameterError(f"alpha must be > 0, got {self.alpha}")
        for name in ("J", "Delta", "mu"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise InvalidParameterError(f"{name} must be finite, got {v}")

    @property
    def short_range(self) -> bool:
        return math.isinf(self.alpha)

    def with_mu(self, mu: float) -> "ChainParams":
        return replace(self, mu=mu)


@dataclass(frozen=True, eq=False)
class QuasiparticleSpectrum:
    """Positive-momentum quasiparticle energies for a fixed ChainParams.

    ``energies[i]`` corresponds to ``momentum_grid(params.L)[i]``.
    """

    params: ChainParams
    energies: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class WindingResult:
    w: float
    residual: float
    grid_density: int


def momentum_grid(L: int) -> np.ndarray:
    """Positive momenta pi*(2n-1)/L, n = 1..L/2, of the antiperiodic ring."""
    if L < 2 or L % 2 != 0:
        raise InvalidParameterError(f"L must be even and >= 2, got {L}")
    n = np.arange(1, L // 2 + 1)
    return np.pi * (2 * n - 1) / L


def _pairing_weights(L: int, alpha: float):
    """Distances l = 1..L-1 and their weights d_l^-alpha, d_l = min(l, L - l)."""
    ell = np.arange(1, L, dtype=float)
    return ell, np.minimum(ell, L - ell) ** (-alpha)


def _pairing_sum(k: np.ndarray, L: int, alpha: float) -> np.ndarray:
    """Literal sum over l = 1..L-1 of sin(k*l)/d_l^alpha, chunked over k.

    O(L) sines per momentum: it serves arbitrary k and is the oracle of the
    FFT forms used on the momentum grids.
    """
    ell, w = _pairing_weights(L, alpha)
    k = np.asarray(k, dtype=float)
    flat = k.ravel()
    out = np.empty_like(flat)
    # Keep the outer-product workspace below ~32 MB for large winding grids.
    chunk = max(1, (4 << 20) // max(L, 1))
    for i in range(0, flat.size, chunk):
        block = flat[i : i + chunk]
        out[i : i + chunk] = np.sin(np.multiply.outer(block, ell)) @ w
    return out.reshape(k.shape)


def _fft_grid_pairing(L: int, alpha: float) -> np.ndarray:
    """The pairing sum on ``momentum_grid(L)`` by one complex FFT of length L.

    With k_n = pi (2n - 1)/L, sin(k_n l) = Im e^{-i pi l/L} e^{2 pi i n l/L},
    so f(k_n) is the imaginary part of a DFT of the twisted weights
    w_l e^{-i pi l/L}; numpy's forward transform of their conjugate gives
    -f(k_n).
    """
    ell, w = _pairing_weights(L, alpha)
    a = np.zeros(L, dtype=complex)
    a[1:] = w * np.exp(1j * np.pi * ell / L)
    return -np.fft.fft(a)[1 : L // 2 + 1].imag


def _fft_uniform_pairing(L: int, alpha: float, n: int) -> np.ndarray:
    """The pairing sum on ``np.linspace(-pi, pi, n)`` by one FFT of length n - 1.

    With k_j = -pi + 2 pi j/M, M = n - 1, sin(k_j l) = (-1)^l sin(2 pi j l/M),
    so f(k_j) is the sine transform of a_l = (-1)^l w_l with l folded mod M;
    the endpoint j = M repeats j = 0.
    """
    ell, w = _pairing_weights(L, alpha)
    m = n - 1
    a = np.where(ell % 2 == 0, w, -w)
    f = -np.fft.fft(np.bincount(np.arange(1, L) % m, weights=a, minlength=m)).imag
    return np.append(f, f[0])


def pairing_function(k, params: ChainParams):
    """Long-range pairing sum f(k); exactly 2 sin k in the short-range limit.

    Accepts a scalar or an ndarray of momenta.
    """
    scalar = np.isscalar(k)
    karr = np.atleast_1d(np.asarray(k, dtype=float))
    if params.short_range:
        out = 2.0 * np.sin(karr)
    else:
        out = _pairing_sum(karr, params.L, params.alpha)
    return float(out[0]) if scalar else out.reshape(np.shape(k))


@lru_cache(maxsize=4)
def _grid_pairing(L: int, alpha: float):
    """cos k and the pairing sum f(k) on the positive momentum grid, cached per (L, alpha).

    An entry holds 8 L bytes.  Each sweep process reads the short range and
    one alpha at a time, so four entries hold what it needs and at most
    32 L bytes (64 MB at L = 2e6).
    """
    k = momentum_grid(L)
    f = 2.0 * np.sin(k) if math.isinf(alpha) else _fft_grid_pairing(L, alpha)
    cos_k = np.cos(k)
    cos_k.setflags(write=False)
    f.setflags(write=False)
    return cos_k, f


def _bloch_vector(params: ChainParams, cos_k, f, mu):
    """The Bloch vector (J cos k + mu, Delta f(k)/2) from cos k and the pairing sum f(k)."""
    return params.J * cos_k + mu, 0.5 * params.Delta * f


def spectrum_energies(params: ChainParams, mu=None) -> np.ndarray:
    """Energies on the positive momentum grid (cos k and f(k) cached per (L, alpha)).

    ``mu`` defaults to ``params.mu``.  A scalar gives shape (L/2,); a 1-D
    array of mu values gives one row per value, shape (len(mu), L/2).
    """
    mu = np.asarray(params.mu if mu is None else mu, dtype=float)
    cos_k, f = _grid_pairing(params.L, params.alpha)
    return np.hypot(*_bloch_vector(params, cos_k, f, mu[..., None]))


def build_spectrum(params: ChainParams) -> QuasiparticleSpectrum:
    return QuasiparticleSpectrum(params=params, energies=spectrum_energies(params))


def winding_number(params: ChainParams, grid_density: int = 100_000) -> WindingResult:
    """Winding of the Bloch vector (J cos k + mu, Delta f(k)/2) over (-pi, pi).

    Computed by cumulative unwrapping of the vector angle on a uniform grid of
    ``grid_density`` points; the pairing sum uses the finite-L form at
    ``params.L``, evaluated on that grid by one FFT.  Returns the winding and
    its residual to the nearest half-integer; residuals above tolerance are
    reported in-band, not raised.
    A minimum gap below 1e-6 max(|J|, |Delta|, |mu|) raises
    ``GaplessConfigurationError``.
    """
    if grid_density < 1000:
        raise InvalidParameterError(f"grid_density must be >= 1000, got {grid_density}")
    gap_floor = 1e-6 * max(abs(params.J), abs(params.Delta), abs(params.mu))
    k = np.linspace(-np.pi, np.pi, grid_density)
    if params.short_range:
        f = pairing_function(k, params)
    else:
        f = _fft_uniform_pairing(params.L, params.alpha, grid_density)
    x, y = _bloch_vector(params, np.cos(k), f, params.mu)
    eps = np.hypot(x, y)
    if np.min(eps) < gap_floor:
        raise GaplessConfigurationError(
            f"minimum gap {np.min(eps):.3e} below floor {gap_floor:.3e}; "
            "winding undefined near a gapless configuration"
        )
    phase = np.unwrap(np.arctan2(y, x))
    w = (phase[-1] - phase[0]) / (2.0 * np.pi)
    residual = abs(w - round(2.0 * w) / 2.0)
    return WindingResult(w=float(w), residual=float(residual), grid_density=grid_density)


def spectrum_scan(params_base: ChainParams, mu_values) -> np.ndarray:
    """Sorted single-particle levels {+-eps_k}, one row of L per mu in ``mu_values``.

    All mu values are evaluated in one ``spectrum_energies`` call.  Each row
    is ``concatenate([-e[::-1], e])`` with e the row's eps_k sorted, so its
    first half mirrors its second bitwise.  A level that overflows raises
    ``NonFiniteResultError``.
    """
    mus = np.asarray(mu_values, dtype=float)
    if not np.all(np.isfinite(mus)):
        raise InvalidParameterError("mu values must be finite")
    with np.errstate(over="ignore"):
        e = np.sort(spectrum_energies(params_base, mus), axis=1)
    if not np.all(np.isfinite(e)):
        raise NonFiniteResultError("a level of the spectrum scan overflows to inf")
    return np.concatenate([-e[:, ::-1], e], axis=1)


def min_gap(params: ChainParams) -> float:
    """Minimum quasiparticle energy over the momentum grid."""
    return float(np.min(spectrum_energies(params)))
