"""Test-only ground truth that no ``lrk`` run reaches; performance is a non-goal.

* Small-L references: the real-space BdG matrix, a Jacobi eigensolve, and
  exact 2^L partition-function enumeration.
* The thermodynamic mode sums (k_B = 1) behind the first-law tests:
  ``log_partition``, ``internal_energy``, ``free_energy`` and ``entropy``.
* The dispersion at arbitrary momenta from the literal pairing sum
  (``quasiparticle_energy``) and the Bogoliubov angle.

The BdG quadratic form is assembled so its positive eigenvalues equal the
momentum-space dispersion directly: hopping enters with J/2, pairing with
Delta/(4 d^alpha), the on-site term with the full mu.  The L = 2 case fixes
this convention analytically and gates the batch comparisons.
"""

import math

import numpy as np

from .chain import ChainParams, QuasiparticleSpectrum, _bloch_vector, pairing_function
from .thermo import lncosh

ORACLE_L_CAP = 64
ENUMERATION_L_CAP = 16

#: Energies below this are treated as exact zeros to avoid denormal noise.
ZERO_ENERGY_FLOOR = 1e-30


class OracleScaleError(ValueError):
    """Raised when an oracle is asked for a system above its size cap."""


class EigensolverError(RuntimeError):
    """Raised when the Jacobi sweep fails to converge."""


class DegenerateModeError(ValueError):
    """Raised when the Bogoliubov angle is requested at a gapless mode."""


class UndefinedLimitError(ValueError):
    """Raised for quantities without a finite beta -> 0 limit."""


def bdg_matrix(params: ChainParams) -> np.ndarray:
    """Real symmetric 2L x 2L quadratic-form matrix in the (c, c^dag) basis.

    Bonds wrapping the ring carry the antiperiodic sign flip, for hopping and
    pairing alike.  The short-range limit is encoded as nearest-neighbor
    pairing with doubled weight so that f(k) = 2 sin k is reproduced.
    """
    L = params.L
    if L > ORACLE_L_CAP:
        raise OracleScaleError(f"oracle BdG matrix capped at L={ORACLE_L_CAP}, got {L}")

    A = np.zeros((L, L))
    np.fill_diagonal(A, -params.mu)
    for j in range(L):
        j2, sign = j + 1, 1.0
        if j2 >= L:
            j2, sign = j2 - L, -1.0
        A[j, j2] += -0.5 * params.J * sign
        A[j2, j] += -0.5 * params.J * sign

    # Pairing coefficients of c_{j+l}^dag c_j^dag, antisymmetrized below.
    C = np.zeros((L, L))
    if params.short_range:
        weights = {1: 2.0}
    else:
        weights = {l: min(l, L - l) ** (-params.alpha) for l in range(1, L)}
    for l, w in weights.items():
        g = 0.25 * params.Delta * w
        for j in range(L):
            j2, sign = j + l, 1.0
            if j2 >= L:
                j2, sign = j2 - L, -1.0
            C[j2, j] += g * sign
    B = C - C.T

    top = np.hstack([A, B])
    bot = np.hstack([-B, -A])
    return np.vstack([top, bot])


def jacobi_eigenvalues(m: np.ndarray, tol: float = 1e-12, max_sweeps: int = 60) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix by cyclic Jacobi rotations."""
    a = np.array(m, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or not np.allclose(a, a.T, atol=1e-12 * (1.0 + np.abs(a).max())):
        raise ValueError("jacobi_eigenvalues requires a square symmetric matrix")
    scale = np.linalg.norm(a)
    if scale == 0.0:
        return np.zeros(n)
    thresh = tol * scale
    diag_mask = np.eye(n, dtype=bool)
    for _ in range(max_sweeps):
        # Summed directly over off-diagonal entries: the Sum(a^2) - Sum(diag^2)
        # form cancels catastrophically once the matrix is nearly diagonal.
        off = math.sqrt(float(np.sum(np.square(a[~diag_mask]))))
        if off <= thresh:
            return np.sort(np.diag(a))
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= thresh / n:
                    continue
                theta = 0.5 * (a[q, q] - a[p, p]) / apq
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
    raise EigensolverError(f"Jacobi sweep did not converge in {max_sweeps} sweeps")


def exact_spectrum(m: np.ndarray) -> np.ndarray:
    """Sorted non-negative eigenvalues; the negative partners are discarded."""
    ev = jacobi_eigenvalues(m)
    n = ev.size
    if n % 2 != 0:
        raise ValueError("BdG matrix must have even dimension")
    # Particle-hole symmetry pairs the spectrum about zero: keep the top half.
    return np.sort(ev)[n // 2 :]


def enumerate_partition(spec: QuasiparticleSpectrum, beta: float) -> float:
    """Z by brute-force sum over all 2^L quasiparticle occupation patterns.

    Each positive-momentum energy appears for both the k and -k modes;
    many-body energies are sum_k eps_k (n_k - 1/2) over all L modes.
    """
    L = spec.params.L
    if L > ENUMERATION_L_CAP:
        raise OracleScaleError(f"enumeration capped at L={ENUMERATION_L_CAP}, got {L}")
    modes = np.repeat(np.asarray(spec.energies, dtype=float), 2)
    assert modes.size == L
    states = np.arange(2**L, dtype=np.uint32)
    occ = (states[:, None] >> np.arange(L)) & 1
    energies = occ @ modes - 0.5 * modes.sum()
    return float(np.sum(np.exp(-float(beta) * energies)))


def quasiparticle_energy(k, params: ChainParams):
    """Dispersion sqrt((J cos k + mu)^2 + (Delta f(k)/2)^2) >= 0 at arbitrary k."""
    f = pairing_function(k, params)
    return np.hypot(*_bloch_vector(params, np.cos(k), f, params.mu))


def bogoliubov_angle(k: float, params: ChainParams) -> float:
    """Branch-resolved Bogoliubov angle in (-pi/2, pi/2].

    Defined through atan2 of the Bloch-vector components rather than the
    tan-based form, which is branch-ambiguous.
    """
    x, y = _bloch_vector(params, math.cos(k), pairing_function(k, params), params.mu)
    if x == 0.0 and y == 0.0:
        raise DegenerateModeError(f"gapless mode at k={k}: Bogoliubov angle undefined")
    return 0.5 * math.atan2(-y, x)


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not (beta >= 0.0) or not math.isfinite(beta):
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    return beta


def _clean_energies(spec: QuasiparticleSpectrum) -> np.ndarray:
    e = np.asarray(spec.energies, dtype=float)
    return np.where(e < ZERO_ENERGY_FLOOR, 0.0, e)


def log_partition(spec: QuasiparticleSpectrum, beta: float) -> float:
    """ln Z = L ln 2 + sum_{k>0} 2 ln cosh(beta eps_k / 2)."""
    beta = _check_beta(beta)
    e = _clean_energies(spec)
    L = spec.params.L
    return L * math.log(2.0) + 2.0 * float(np.sum(lncosh(0.5 * beta * e)))


def internal_energy(spec: QuasiparticleSpectrum, beta: float) -> float:
    """U = -sum_{k>0} eps_k tanh(beta eps_k / 2); always <= 0."""
    beta = _check_beta(beta)
    e = _clean_energies(spec)
    return -float(np.sum(e * np.tanh(0.5 * beta * e)))


def free_energy(spec: QuasiparticleSpectrum, beta: float) -> float:
    """F = -ln Z / beta; undefined at beta = 0."""
    beta = _check_beta(beta)
    if beta == 0.0:
        raise UndefinedLimitError("free energy has no finite beta = 0 limit")
    return -log_partition(spec, beta) / beta


def entropy(spec: QuasiparticleSpectrum, beta: float) -> float:
    """S = L ln 2 + sum_{k>0} [2 ln cosh(x_k) - 2 x_k tanh(x_k)], x_k = beta eps_k / 2."""
    beta = _check_beta(beta)
    e = _clean_energies(spec)
    x = 0.5 * beta * e
    L = spec.params.L
    return L * math.log(2.0) + float(np.sum(2.0 * lncosh(x) - 2.0 * x * np.tanh(x)))
