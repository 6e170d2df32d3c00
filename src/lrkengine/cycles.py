"""Quasistatic Otto and Stirling cycles and enhancement-ratio diagnostics.

Sign convention: every heat is positive when absorbed by the working medium.
A cycle evaluation builds the initial- and final-mu spectra on the same
momentum grid and reduces them with O(L) mode sums.  The spectra come from
the chain module, which computes the pairing sum on the grid by one FFT and
keeps it, with cos k, per (L, alpha).  Every mode sum and surface forms its
beta_c terms itself from the spectra it is given.  ``otto_surface``
evaluates the Otto sums on a whole (mu_f, beta_h) grid as four dot
products, one of them a GEMM, and states a bound on its distance from
``otto_mode_sums``; ``stirling_bounds`` does the same for Stirling from
Chebyshev moments and two GEMMs.  The sweeps screen on them and decide on
the per-mode sums, which ``otto_cycle`` and ``stirling_cycle`` keep as the
literal path; ``stirling_surface`` gives those sums bitwise on a grid.
"""

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainParams, InvalidParameterError, NonFiniteResultError, spectrum_energies
from .thermo import lncosh

#: Relative zero test of ``ratio_arrays``: a reference quantity counts as zero
#: below this many times the reference scale max(|W_sr|, |Q_h_sr|, 1).
RATIO_ZERO_TOL = 1e-14


class ContractViolationError(ValueError):
    """Raised when paired cycle results do not share the same cycle spec."""


@dataclass(frozen=True)
class BathPair:
    """Inverse temperatures of the hot and cold reservoirs (beta_h <= beta_c)."""

    beta_h: float
    beta_c: float

    def __post_init__(self):
        if not (0.0 < self.beta_h <= self.beta_c) or not math.isfinite(self.beta_c):
            raise InvalidParameterError(
                f"need 0 < beta_h <= beta_c finite, got ({self.beta_h}, {self.beta_c})"
            )


@dataclass(frozen=True)
class CycleSpec:
    """One cycle: chain template plus initial/final mu and the two baths.

    ``base.mu`` is ignored; the cycle replaces it with mu_i / mu_f.
    Engine-level analysis requires alpha > 1 for finite-range chains.
    """

    base: ChainParams
    mu_i: float
    mu_f: float
    baths: BathPair

    def __post_init__(self):
        if not (0.0 <= self.mu_f <= self.mu_i):
            raise InvalidParameterError(
                f"need 0 <= mu_f <= mu_i, got mu_f={self.mu_f}, mu_i={self.mu_i}"
            )
        if not self.base.short_range and self.base.alpha <= 1.0:
            raise InvalidParameterError(
                f"cycle operations require alpha > 1, got {self.base.alpha}"
            )

    def same_cycle_except_range(self, other: "CycleSpec") -> bool:
        return (
            self.mu_i == other.mu_i
            and self.mu_f == other.mu_f
            and self.baths == other.baths
            and self.base.L == other.base.L
            and self.base.J == other.base.J
            and self.base.Delta == other.base.Delta
        )


@dataclass(frozen=True)
class OttoResult:
    spec: CycleSpec
    Q_h: float
    Q_c: float
    W: float
    eta: float | None
    engine_valid: bool

    def to_json_dict(self) -> dict:
        return {
            "cycle": "otto",
            "Q": {"h": self.Q_h, "c": self.Q_c},
            "W": self.W,
            "eta": self.eta,
            "engine_valid": self.engine_valid,
        }


@dataclass(frozen=True)
class StirlingResult:
    spec: CycleSpec
    Q_I: float
    Q_II: float
    Q_III: float
    Q_IV: float
    W: float
    Q_h: float
    eta: float | None
    engine_valid: bool

    def to_json_dict(self) -> dict:
        return {
            "cycle": "stirling",
            "Q": {
                "I": self.Q_I,
                "II": self.Q_II,
                "III": self.Q_III,
                "IV": self.Q_IV,
                "h": self.Q_h,
            },
            "W": self.W,
            "eta": self.eta,
            "engine_valid": self.engine_valid,
        }


@dataclass(frozen=True)
class RatioDiagnostics:
    """Enhancement ratios of a finite-alpha cycle against its short-range twin.

    Undefined components (vanishing denominators, non-engine efficiency) are
    NaN; ``defined`` is True only when all four components are defined.
    """

    R_W: float
    R_eta: float
    dQ_rel: float
    xi: float
    defined: bool


def otto_mode_sums(eps_i, eps_f, beta_h: float, beta_c: float):
    """Per-cycle Otto heats and work as mode sums over the last axis.

    ``eps_i`` has shape (nk,); ``eps_f`` may carry leading batch axes, and
    ``beta_h`` may be a column of one value per row of ``eps_f``.  W is
    accumulated independently of Q_h and Q_c (same occupation factor,
    different energy weights) so the first law is a nontrivial check.
    """
    eps_i = np.asarray(eps_i, dtype=float)
    eps_f = np.asarray(eps_f, dtype=float)
    occ = np.tanh(0.5 * beta_c * eps_f) - np.tanh(0.5 * beta_h * eps_i)
    Q_h = np.sum(eps_i * occ, axis=-1)
    Q_c = -np.sum(eps_f * occ, axis=-1)
    W = np.sum((eps_i - eps_f) * occ, axis=-1)
    return Q_h, Q_c, W


def otto_surface(eps_i, eps_f, beta_hs, beta_c: float):
    """Otto Q_h, Q_c and W on the grid of ``eps_f`` rows x ``beta_hs``, with a bound on
    their distance from ``otto_mode_sums``.

    ``eps_f`` has shape (n_mu, nk).  With t_c = tanh(beta_c eps_f / 2) and
    t_h = tanh(beta_h eps_i / 2), the sums split into four dot products of
    non-negative terms, a = t_c.eps_i and c = sum eps_f t_c per row,
    b = t_h.eps_i per beta_h, and D = eps_f @ t_h^T, one GEMM:
    Q_h = a - b, Q_c = D - c and W = Q_h + Q_c, each of shape (n_mu, n_beta).
    Both forms use the same tanh arrays and round each of their sums of at most nk
    terms of magnitude within (eps_i + eps_f)(t_c + t_h); the returned ``tol``,
    (2 nk + 8) u (a + b + c + D) with u the unit roundoff, therefore bounds
    |x - x_mode_sums| for each of Q_h, Q_c and W, in every summation order.  The
    separated sums cancel, so the bound can exceed the per-mode rounding by
    orders of magnitude: use the surface to screen, not to decide.
    """
    eps_i = np.asarray(eps_i, dtype=float)
    eps_f = np.asarray(eps_f, dtype=float)
    # The tanh and the products of c run in place: the sweeps call this while
    # they hold both chains' spectra, and each (n_mu, nk) temporary is 1.6 MB
    # on the default grid.
    t_c = (0.5 * beta_c) * eps_f
    np.tanh(t_c, out=t_c)
    t_h = (0.5 * np.asarray(beta_hs, dtype=float))[:, None] * eps_i
    np.tanh(t_h, out=t_h)
    a = (t_c @ eps_i)[:, None]
    c = np.sum(np.multiply(eps_f, t_c, out=t_c), axis=-1)[:, None]
    b = t_h @ eps_i
    D = eps_f @ t_h.T
    Q_h = a - b
    Q_c = D - c
    tol = (2 * eps_i.size + 8) * (0.5 * np.finfo(float).eps) * (a + b + c + D)
    return Q_h, Q_c, Q_h + Q_c, tol


def stirling_mode_sums(eps_i, eps_f, beta_h: float, beta_c: float):
    """Per-process Stirling heats, closed-form work, and hot-bath heat.

    Returns (Q_I, Q_II, Q_III, Q_IV, W, Q_h) with W from the two-bracket
    isothermal ln cosh form, independent of the Q-sum.  As in
    ``otto_mode_sums``, ``beta_h`` may be a column of one value per row.
    """
    eps_i = np.asarray(eps_i, dtype=float)
    eps_f = np.asarray(eps_f, dtype=float)
    t_ci = np.tanh(0.5 * beta_c * eps_i)
    t_cf = np.tanh(0.5 * beta_c * eps_f)
    w_c = (2.0 / beta_c) * (lncosh(0.5 * beta_c * eps_i) - lncosh(0.5 * beta_c * eps_f))
    t_hi = np.tanh(0.5 * beta_h * eps_i)
    t_hf = np.tanh(0.5 * beta_h * eps_f)
    w_h = (2.0 / beta_h) * (lncosh(0.5 * beta_h * eps_f) - lncosh(0.5 * beta_h * eps_i))

    Q_I = np.sum(w_h - (eps_f * t_hf - eps_i * t_hi), axis=-1)
    Q_II = np.sum(eps_f * (t_hf - t_cf), axis=-1)
    Q_III = np.sum(w_c - (eps_i * t_ci - eps_f * t_cf), axis=-1)
    Q_IV = np.sum(eps_i * (t_ci - t_hi), axis=-1)
    W = np.sum(w_h + w_c, axis=-1)
    Q_h = Q_I + Q_IV
    return Q_I, Q_II, Q_III, Q_IV, W, Q_h


#: Elements of each work buffer of ``stirling_surface``: buffers of 128 kB, which
#: stay in a core's L2 cache.
_SURFACE_BLOCK = 1 << 14


def stirling_surface(eps_i, eps_f, beta_hs, beta_c: float, col=None):
    """Stirling W and Q_h on the grid of ``eps_f`` rows x ``beta_hs``, each cell
    bitwise the value of ``stirling_mode_sums`` at that row and beta_h.

    ``eps_f`` has shape (n_mu, nk), and W and Q_h have shape (n_mu, n_beta).
    Where ``col`` is given, row r is at beta_hs[col[r]] alone, for W and Q_h of
    shape (n_mu, 1).
    Of the beta_c terms, only the two that W and Q_h read are built, once:
    tanh(beta_c eps_i / 2) and the cold ln cosh work terms w_c.  For each
    beta_h the eps_i-only terms (t_hi, its ln cosh, eps_i t_hi and Q_IV) are
    built once.  The eps_f rows then pass in blocks of
    ``_SURFACE_BLOCK // nk`` rows through buffers allocated once per call, by
    the elementwise operations of ``stirling_mode_sums`` (ln cosh as in
    ``thermo.lncosh``) in the same order and one sum per row, so no block
    allocates a temporary of table size; a column's rows take their eps_i
    terms from the rows of their beta_h.
    Q_II and Q_III, which neither W nor Q_h uses, are not formed.
    """
    eps_i = np.asarray(eps_i, dtype=float)
    eps_f = np.asarray(eps_f, dtype=float)
    values = np.asarray(beta_hs, dtype=float)
    per_row = col is not None
    t_ci = np.tanh(0.5 * beta_c * eps_i)
    w_c = (2.0 / beta_c) * (lncosh(0.5 * beta_c * eps_i) - lncosh(0.5 * beta_c * eps_f))
    hs = 0.5 * values
    x_i = hs[:, None] * eps_i
    t_hi = np.tanh(x_i)
    lc_i = lncosh(x_i)
    e_t_hi = eps_i * t_hi
    Q_IV = np.sum(eps_i * (t_ci - t_hi), axis=-1)
    n_mu, nk = eps_f.shape
    W = np.empty((n_mu, 1 if per_row else values.size))
    Q_h = np.empty_like(W)
    rows = max(1, _SURFACE_BLOCK // nk)
    x, t, w = (np.empty((min(rows, n_mu), nk)) for _ in range(3))
    ln2 = math.log(2.0)

    def block(r, m, j, h, g, lc, et, q_iv):
        f = eps_f[r : r + m]
        xb, tb, wb = x[:m], t[:m], w[:m]
        np.multiply(h, f, out=xb)
        np.tanh(xb, out=tb)  # t_hf
        np.abs(xb, out=xb)
        np.multiply(-2.0, xb, out=wb)
        np.exp(wb, out=wb)
        np.log1p(wb, out=wb)
        np.add(xb, wb, out=wb)
        np.subtract(wb, ln2, out=wb)  # ln cosh(beta_h eps_f / 2)
        np.subtract(wb, lc, out=wb)
        np.multiply(g, wb, out=wb)  # w_h
        np.add(wb, w_c[r : r + m], out=xb)
        np.add.reduce(xb, axis=-1, out=W[r : r + m, j])
        np.multiply(f, tb, out=tb)
        np.subtract(tb, et, out=tb)
        np.subtract(wb, tb, out=tb)
        q = np.add.reduce(tb, axis=-1, out=Q_h[r : r + m, j])
        np.add(q, q_iv, out=q)

    if per_row:
        gs = 2.0 / values
        lc, et = (np.empty_like(x) for _ in range(2))
        for r in range(0, n_mu, rows):
            c = col[r : r + rows]
            m = c.size
            block(r, m, 0, hs[c, None], gs[c, None], np.take(lc_i, c, axis=0, out=lc[:m]),
                  np.take(e_t_hi, c, axis=0, out=et[:m]), Q_IV[c])
    else:
        for j, beta_h in enumerate(values):
            for r in range(0, n_mu, rows):
                block(r, min(rows, n_mu - r), j, hs[j], 2.0 / beta_h, lc_i[j], e_t_hi[j],
                      Q_IV[j])
    return W, Q_h


#: Unit roundoff of float64.
_U = 2.0**-53

#: Bernstein ellipses tried by ``_ellipses``, as fractions of the distance from the
#: real axis to the nearest poles of ln cosh(beta_h eps / 2), at Im eps = +-pi / beta_h.
_ELLIPSES = tuple(0.05 * k for k in range(1, 20)) + tuple(1.0 - 0.5**k for k in range(5, 25))

#: Numbers of equal pieces that ``stirling_bounds`` weighs for its interpolants: powers
#: of two, so that a piece's width is the range's width scaled exactly.
_PIECE_COUNTS = (1, 2, 4, 8, 16)

#: Chebyshev degrees per beta column beyond which ``stirling_bounds`` falls back to
#: ``stirling_surface``.  A degree of the moments costs three cheap passes over the
#: eps_f rows, 0.25 ms on the default grid on one piece and 0.27-0.28 ms on 8 or 16,
#: and a column of the exact surface about twenty, three of them exp, log1p and
#: tanh, 2.2-2.4 ms (L = 2000, 2 vCPUs, numpy 2.4).  On six alphas at beta_c = 5
#: (16 pieces, d 17) the exact surface was faster at 2 columns and the surrogate at
#: 4 and more; at beta_c = 0.05 (one piece, d 10) the surrogate at 2 and more.
_DEGREES_PER_COLUMN = 8

#: Cost in degrees, on the scale of ``_DEGREES_PER_COLUMN``, of splitting the eps_f
#: rows into pieces: sorting each row and assigning each mode its piece took
#: 2.5-3.4 ms on the default grid, 10-13 degrees.
_PIECE_SETUP = 12


def _gamma(n):
    """Higham's gamma_n = n u / (1 - n u): a sum of n + 1 terms, in any order, lies within
    gamma_n times the sum of their magnitudes of its exact value."""
    return n * _U / (1.0 - n * _U)


def _row_gamma(n):
    """gamma of numpy's sum of a contiguous row of n terms (``np.add.reduce`` along it).

    numpy sums such a row pairwise: blocks of at most 128 terms, each by eight
    running sums combined in a tree of depth 3, take at most 24 roundings per
    term, each halving above 128 terms adds one, and the reduction's start adds
    one more, so a term passes at most 25 + ceil(log2(n / 128)) roundings
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 4.2).
    numpy does not promise this order; ``tests/test_properties.py`` pins it.
    """
    return _gamma(min(n - 1, 25 + ((n - 1) // 128).bit_length()))


def _ellipses(center, half, beta_hs):
    """(rho, M_F, M_Phi) of the Bernstein ellipses ``_ELLIPSES`` around
    [center - half, center + half], each of shape (n_beta, len(_ELLIPSES)) broadcast
    against those of ``center`` and ``half``.

    F(eps) = ln cosh(z) / h and Phi(eps) = (ln cosh z - z tanh z) / h, with
    z = h eps and h = beta_h / 2, are analytic for |Im z| < pi/2.  On an
    ellipse with |Im z| <= y, |Re eps| <= X and |eps| <= hypot(X, Y),
    |ln cosh z| <= max(|Re z|, -ln cos y) + pi/2 and |tanh z| <= max(1, tan y),
    so |F| <= M_F and |Phi| <= M_Phi.
    """
    h = 0.5 * np.asarray(beta_hs, dtype=float)[:, None]
    y = 0.5 * np.pi * np.array(_ELLIPSES)
    Y = y / h
    major = np.hypot(Y, half)
    rho = (major + Y) / half
    X = np.abs(center) + major
    M_F = (np.maximum(h * X, -np.log(np.cos(y))) + 0.5 * np.pi) / h
    return rho, M_F, M_F + np.hypot(X, Y) * np.maximum(1.0, np.tan(y))


def _chebyshev_coefficients(center, half, beta_hs, degree):
    """Coefficients (2, *shape, n_beta, degree + 1) of the interpolants of F and Phi
    (see ``_ellipses``) in the Chebyshev points center + half cos(pi m / degree),
    for each center of ``center`` (a scalar, or an array of that shape), and a
    bound (2, *shape, n_beta) on the sum over j of the error of coefficient j.

    The values take no cancellation: with z = h eps, ln cosh z is
    log1p(2 sinh^2(z/2)) for z <= 1, and for z > 1 ln cosh z - z tanh z is
    log1p(e) - ln 2 + 2 z e / (1 + e) with e = exp(-2z); each value lies within
    16 u of its magnitude, plus 3 u (|center| + half) for the rounding of its
    point, of the exact one.  The Lebesgue constant 1 + (2/pi) ln(degree + 1)
    bounds how far those errors move the interpolant.  The transform is one
    GEMM with a table of cosines, and rounds each coefficient by at most
    gamma_(degree+1) times the sum of its terms' magnitudes.  The cosines'
    arguments, pi k / degree with k < 2 degree, round by at most 2 pi (2.4 u),
    so each cosine lies within 20 u (2/degree) of its own.
    """
    d = degree
    m = np.arange(d + 1)
    center = np.asarray(center, dtype=float)[..., None, None]
    x = center + half * np.cos(np.pi * m / d)
    h = 0.5 * np.asarray(beta_hs, dtype=float)[:, None]
    z = np.abs(h * x)
    small = z <= 1.0
    e = np.exp(-2.0 * np.where(small, 1.0, z))
    ln2 = math.log(2.0)
    lc = np.where(small, np.log1p(2.0 * np.sinh(0.5 * z) ** 2), z + np.log1p(e) - ln2)
    phi = np.where(small, lc - z * np.tanh(z), np.log1p(e) - ln2 + 2.0 * z * e / (1.0 + e))
    values = np.stack([lc / h, phi / h])
    P = np.cos(np.pi * ((m[:, None] * m) % (2 * d)) / d) * (2.0 / d)
    P[:, [0, d]] *= 0.5
    P[[0, d]] *= 0.5
    size = np.abs(values)
    lebesgue = 1.0 + (2.0 / np.pi) * math.log(d + 1)
    of_values = lebesgue * (16.0 * _U * np.max(np.sum(size, axis=0), axis=-1)
                            + 3.0 * _U * (np.abs(center[..., 0]) + half))
    of_transform = size @ (_gamma(d + 1) * np.sum(np.abs(P), axis=0)
                           + 20.0 * _U * (2.0 / d) * (d + 1))
    return values @ P.T, of_values + of_transform


def _pieces(lo, hi, count):
    """(scale, centers, half) of ``count`` equal pieces of [lo, hi], the range of a
    chain's eps_f.

    A mode eps lies in piece p = min(floor((eps - lo) * scale), count - 1)
    (``_piece_index``), and piece p is the interval centers[p] +- half.  The
    floor may put a mode up to 4 u (hi - lo) past the exact edge of its piece,
    lo + p (hi - lo) / count or the next, and centers[p] and half round by at
    most 3 u (hi - lo) + u max(|lo|, |hi|), so each half-width is widened by
    16 u (|lo| + |hi|): every mode lies in its piece's interval in exact
    arithmetic.  ``count`` is a power of two, which divides exactly.
    """
    width = (hi - lo) / count
    centers = lo + (np.arange(count) + 0.5) * width
    half = 0.5 * width + 16.0 * _U * (abs(lo) + abs(hi)) + np.finfo(float).tiny
    scale = count / (hi - lo) if hi > lo else 0.0
    return scale, centers, half


def _piece_index(eps, lo, scale, count):
    """The piece of each mode of ``eps`` among the ``_pieces``, as intp."""
    return np.minimum(((eps - lo) * scale).astype(np.intp), count - 1)


def _chebyshev_moments(eps_f, lo, scale, centers, half, degree):
    """M[row, p (degree + 1) + j] = sum over the modes k of piece p of T_j(s_k), with
    s_k = (eps_f[row, k] - centers[p]) / half, shape (n_mu, P (degree + 1)) for the
    P = len(centers) ``_pieces``.

    The rows go in blocks of ``_SURFACE_BLOCK`` elements.  Where P > 1 each
    block's rows are sorted, so that each piece's modes form one run per row,
    and every mode takes the three-term recurrence at its own piece's s, through
    four buffers allocated once; ``np.add.reduceat`` sums the runs.  numpy does
    not state reduceat's order, so the bound takes gamma_nk for these sums.

    Each computed T_j lies within 4.5 u j^2 of T_j at the exact s: 3 u j^2 from
    the rounding of s (Markov's inequality), 1.5 u j^2 from that of the
    recurrence, whose local errors of at most 3 u grow like Chebyshev
    polynomials of the second kind.
    """
    count = centers.size
    n_mu, nk = eps_f.shape
    M = np.zeros((n_mu * count, degree + 1))
    rows = max(1, _SURFACE_BLOCK // nk)
    size = min(rows, n_mu) * nk
    s2, prev, cur, tmp = (np.empty(size) for _ in range(4))
    for r in range(0, n_mu, rows):
        f = eps_f[r : r + rows]
        m = f.shape[0]
        sb, a, b, t = s2[: m * nk], prev[: m * nk], cur[: m * nk], tmp[: m * nk]
        if count == 1:
            np.subtract(f.ravel(), centers[0], out=b)
            runs = np.full(m, nk)
        else:
            f = np.sort(f, axis=-1)
            p = _piece_index(f, lo, scale, count)
            np.subtract(f.ravel(), centers[p.ravel()], out=b)
            p += (np.arange(m) * count)[:, None]
            runs = np.bincount(p.ravel(), minlength=m * count)
        np.divide(b, half, out=b)
        np.clip(b, -1.0, 1.0, out=b)  # T_1
        held = runs > 0
        starts = (np.cumsum(runs) - runs)[held]
        out = r * count + np.flatnonzero(held)
        M[out, 0] = runs[held]
        M[out, 1] = np.add.reduceat(b, starts)
        np.multiply(b, 2.0, out=sb)
        a.fill(1.0)  # T_0
        for j in range(2, degree + 1):
            np.multiply(sb, b, out=t)
            np.subtract(t, a, out=a)  # T_j = 2 s T_(j-1) - T_(j-2)
            M[out, j] = np.add.reduceat(a, starts)
            a, b = b, a
    return M.reshape(n_mu, count * (degree + 1))


def stirling_bounds(eps_i, eps_f, beta_hs, beta_c: float):
    """Stirling W and Q_h on the grid of ``eps_f`` rows x ``beta_hs``, and a bound
    ``tol`` on their distance from ``stirling_mode_sums``, each of shape (n_mu, n_beta).

    Per row and beta_h, W = S_F - sum_k F(eps_i) + sum_k w_c and
    Q_h = S_Phi - sum_k Phi(eps_i) + Q_IV, where S_F = sum_k F(eps_f,k) and
    S_Phi = sum_k Phi(eps_f,k), with F(eps) = (2/beta_h) ln cosh(beta_h eps / 2)
    and Phi(eps) = F(eps) - eps tanh(beta_h eps / 2).  The range of ``eps_f``
    is cut into P equal pieces (``_pieces``), and S_F and S_Phi come from a
    degree-d Chebyshev interpolant of F and Phi on each piece: the moments
    M[row, p, j] = sum over the modes of piece p of T_j(s_p(eps_f,k)) are
    formed once for every beta_h, and S = M @ C, one GEMM each against the
    coefficients C of every piece and beta_h, stacked.  The eps_i sums and the
    cold terms w_c are per-mode sums as in ``stirling_mode_sums``.

    ``tol`` is the sum of, per row and beta_h, with nk modes, S the sum over
    modes of eps_f + eps_i, D that of |eps_f - eps_i|, g = 2/beta_h and
    g_c = 2/beta_c:

    * nk times the interpolation error of F or Phi, the larger: the bound
      4 M rho^-d / (rho - 1) of Trefethen, Approximation Theory and
      Approximation Practice, Thm 8.2, least over the ellipses of ``_ellipses``
      around the piece farthest from 0, whose M bounds every piece's;
    * nk times the rounding of the interpolation on any piece, the largest: of
      the coefficients (``_chebyshev_coefficients``), 4.5 u j^2 |c_j| for T_j
      (``_chebyshev_moments``), gamma_nk |c_j| for the sum of T_j over the
      piece's modes, in an order numpy does not state, and gamma_(P(d+1)) |c_j|
      for the GEMM, summed over j;
    * the ln cosh rounding of the per-mode sums on both sides,
      u (12 S + 16 nk (g + g_c)): one ln cosh of x rounds by at most
      u (3|x| + 4), and x = beta eps / 2 is scaled by 2/beta;
    * the other rounding of the per-mode terms on both sides, 40 u S, and of
      their sums over modes, gamma_h (3 D + 4 S) with h numpy's pairwise depth
      for a row of nk terms (``_row_gamma``): each of those sums is
      ``np.add.reduce`` along a contiguous row.

    For each P of ``_PIECE_COUNTS``, d_P is the least degree >= 2 at which the
    interpolation error is at most u (g + max eps_f) / 16 per mode for every
    beta_h on every piece, and the surrogate costs d_P degrees, plus
    ``_PIECE_SETUP`` where P > 1; the cheapest P is taken.  Where even that
    costs more than ``stirling_surface``, more than ``_DEGREES_PER_COLUMN``
    degrees per column (also where no ellipse gives a bound), the exact
    surface is returned with ``tol`` 0.
    """
    eps_f = np.asarray(eps_f, dtype=float)
    beta_hs = np.asarray(beta_hs, dtype=float)
    lo, hi = float(eps_f.min()), float(eps_f.max())
    target = (_U / 16.0) * (2.0 / beta_hs + hi)
    counts = np.array(_PIECE_COUNTS)
    pieces = [_pieces(lo, hi, n) for n in counts]
    # The piece farthest from 0 needs the highest degree.
    far = np.array([np.max(np.abs(centers)) for _, centers, _ in pieces])
    half = np.array([half for _, _, half in pieces])
    rho, _, M_Phi = _ellipses(far[:, None, None], half[:, None, None], beta_hs)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        need = np.log(4.0 * M_Phi / ((rho - 1.0) * target[:, None])) / np.log(rho)
    need = np.maximum(2.0, np.ceil(np.max(np.min(need, axis=-1), axis=-1)))
    cost = need + np.where(counts > 1, _PIECE_SETUP, 0)
    best = int(np.argmin(cost))
    if not cost[best] <= _DEGREES_PER_COLUMN * beta_hs.size:
        W, Q_h = stirling_surface(eps_i, eps_f, beta_hs, beta_c)
        return W, Q_h, np.zeros_like(W)
    return _stirling_surrogate(eps_i, eps_f, beta_hs, beta_c, int(need[best]),
                               int(counts[best]))


def _stirling_surrogate(eps_i, eps_f, beta_hs, beta_c: float, degree, count=1):
    """``stirling_bounds`` at Chebyshev degree ``degree`` on ``count`` pieces."""
    eps_i = np.asarray(eps_i, dtype=float)
    eps_f = np.asarray(eps_f, dtype=float)
    beta_hs = np.asarray(beta_hs, dtype=float)
    n_mu, nk = eps_f.shape
    lo = float(eps_f.min())
    scale, centers, half = _pieces(lo, float(eps_f.max()), count)
    g, g_c = 2.0 / beta_hs, 2.0 / beta_c
    # M_F and M_Phi grow with |center|: the piece farthest from 0 bounds them all.
    rho, M_F, M_Phi = _ellipses(np.max(np.abs(centers)), half, beta_hs)
    with np.errstate(over="ignore", invalid="ignore"):
        decay = np.nan_to_num(4.0 * rho ** -float(degree) / (rho - 1.0))
    truncation = np.stack([np.min(M_F * decay, axis=1), np.min(M_Phi * decay, axis=1)])
    coef, coef_err = _chebyshev_coefficients(centers, half, beta_hs, degree)
    j = np.arange(degree + 1)
    size = np.abs(coef)
    interp = (truncation[:, None] + coef_err + 4.5 * _U * size @ (j * j)
              + (_gamma(nk) + _gamma(count * (degree + 1))) * np.sum(size, axis=-1))
    M = _chebyshev_moments(eps_f, lo, scale, centers, half, degree)
    coef = coef.transpose(0, 2, 1, 3).reshape(2, beta_hs.size, count * (degree + 1))
    S_F, S_Phi = M @ coef[0].T, M @ coef[1].T

    # The per-row and per-beta sums, in blocks of _SURFACE_BLOCK elements.
    rows = max(1, _SURFACE_BLOCK // nk)
    w_c, S, D = (np.empty((n_mu, 1)) for _ in range(3))
    lc_ci = lncosh(0.5 * beta_c * eps_i)
    for r in range(0, n_mu, rows):
        f = eps_f[r : r + rows]
        w_c[r : r + rows, 0] = np.sum(g_c * (lc_ci - lncosh(0.5 * beta_c * f)), axis=-1)
        S[r : r + rows, 0] = np.sum(f, axis=-1) + np.sum(eps_i)
        D[r : r + rows, 0] = np.sum(np.abs(f - eps_i), axis=-1)
    t_ci = np.tanh(0.5 * beta_c * eps_i)
    F_i, Phi_i, Q_IV = (np.empty(beta_hs.size) for _ in range(3))
    for r in range(0, beta_hs.size, rows):
        h = 0.5 * beta_hs[r : r + rows, None]
        t_hi = np.tanh(h * eps_i)
        F = g[r : r + rows, None] * lncosh(h * eps_i)
        F_i[r : r + rows] = np.sum(F, axis=-1)
        Phi_i[r : r + rows] = np.sum(F - eps_i * t_hi, axis=-1)
        Q_IV[r : r + rows] = np.sum(eps_i * (t_ci - t_hi), axis=-1)
    W = S_F - F_i + w_c
    Q_h = S_Phi - Phi_i + Q_IV
    tol = (nk * np.max(interp, axis=(0, 1)) + _U * (12.0 * S + 16.0 * nk * (g + g_c))
           + 40.0 * _U * S + _row_gamma(nk) * (3.0 * D + 4.0 * S))
    return W, Q_h, tol


def otto_engine_valid(W, Q_h, Q_c):
    """Otto engine test W > 0 and Q_h > -Q_c > 0, on scalars or elementwise."""
    return (W > 0.0) & (Q_h > -Q_c) & (-Q_c > 0.0)


def stirling_engine_valid(W, Q_h):
    """Stirling engine test W > 0 and Q_h > 0, on scalars or elementwise."""
    return (W > 0.0) & (Q_h > 0.0)


def _cycle_energies(spec: CycleSpec):
    eps_i = spectrum_energies(spec.base.with_mu(spec.mu_i))
    eps_f = spectrum_energies(spec.base.with_mu(spec.mu_f))
    return eps_i, eps_f


def _finite(kind, names, values):
    """``values`` as floats; a non-finite one raises ``NonFiniteResultError`` naming it."""
    values = [float(v) for v in values]
    bad = [f"{n}={v!r}" for n, v in zip(names, values) if not math.isfinite(v)]
    if bad:
        raise NonFiniteResultError(f"the {kind} cycle overflows: {', '.join(bad)}")
    return values


def otto_cycle(spec: CycleSpec) -> OttoResult:
    """Evaluate one quasistatic Otto cycle.

    Engine validity requires W > 0 and Q_h > -Q_c > 0; eta = W/Q_h is
    reported only for valid engines.  A non-finite heat or work (finite
    inputs that overflow) raises ``NonFiniteResultError``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        eps_i, eps_f = _cycle_energies(spec)
        sums = otto_mode_sums(eps_i, eps_f, spec.baths.beta_h, spec.baths.beta_c)
    Q_h, Q_c, W = _finite("otto", ("Q_h", "Q_c", "W"), sums)
    engine_valid = otto_engine_valid(W, Q_h, Q_c)
    eta = W / Q_h if engine_valid else None
    return OttoResult(spec=spec, Q_h=Q_h, Q_c=Q_c, W=W, eta=eta, engine_valid=engine_valid)


def stirling_cycle(spec: CycleSpec) -> StirlingResult:
    """Evaluate one quasistatic Stirling cycle (W > 0 and Q_h > 0 for an engine).

    A non-finite heat or work raises ``NonFiniteResultError``, as in ``otto_cycle``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        eps_i, eps_f = _cycle_energies(spec)
        sums = stirling_mode_sums(eps_i, eps_f, spec.baths.beta_h, spec.baths.beta_c)
    Q_I, Q_II, Q_III, Q_IV, W, Q_h = _finite(
        "stirling", ("Q_I", "Q_II", "Q_III", "Q_IV", "W", "Q_h"), sums)
    engine_valid = stirling_engine_valid(W, Q_h)
    eta = W / Q_h if engine_valid else None
    return StirlingResult(
        spec=spec,
        Q_I=Q_I,
        Q_II=Q_II,
        Q_III=Q_III,
        Q_IV=Q_IV,
        W=W,
        Q_h=Q_h,
        eta=eta,
        engine_valid=engine_valid,
    )


def carnot_efficiency(baths: BathPair) -> float:
    """Carnot bound 1 - beta_h/beta_c for the given bath pair."""
    return 1.0 - baths.beta_h / baths.beta_c


def ratio_arrays(W_lr, Q_h_lr, eta_lr, W_sr, Q_h_sr, eta_sr):
    """Elementwise (R_W, R_eta, dQ_rel, xi) of finite-alpha against short-range.

    ``eta_*`` is NaN where that chain is not an engine.  R_W needs W_sr != 0;
    dQ_rel needs Q_h_sr != 0; xi needs a nonvanishing heat difference and a
    defined reference efficiency; R_eta needs both chains engine-valid.  Zero
    tests use ``RATIO_ZERO_TOL`` on the reference scale
    max(|W_sr|, |Q_h_sr|, 1).  Undefined components are NaN.
    """
    W_lr, Q_h_lr, eta_lr, W_sr, Q_h_sr, eta_sr = (
        np.asarray(a, dtype=float) for a in (W_lr, Q_h_lr, eta_lr, W_sr, Q_h_sr, eta_sr)
    )
    tol = RATIO_ZERO_TOL * np.maximum(np.maximum(np.abs(W_sr), np.abs(Q_h_sr)), 1.0)
    dQ = Q_h_sr - Q_h_lr
    with np.errstate(divide="ignore", invalid="ignore"):
        R_W = np.where(np.abs(W_sr) > tol, W_lr / W_sr, np.nan)
        R_eta = eta_lr / eta_sr
        dQ_rel = np.where(np.abs(Q_h_sr) > tol, dQ / Q_h_sr, np.nan)
        has_xi = (np.abs(dQ) > tol) & np.isfinite(eta_sr) & (eta_sr != 0.0)
        xi = np.where(has_xi, (W_sr - W_lr) / (eta_sr * dQ), np.nan)
    return R_W, R_eta, dQ_rel, xi


def ratio_diagnostics(lr, sr) -> RatioDiagnostics:
    """Compare a finite-alpha run ``lr`` with its short-range reference ``sr``.

    The components follow the rule of ``ratio_arrays``.
    """
    if type(lr) is not type(sr):
        raise ContractViolationError("cannot compare results of different cycle kinds")
    if not lr.spec.same_cycle_except_range(sr.spec):
        raise ContractViolationError("cycle specs differ beyond the interaction range")

    def eta(r):
        return math.nan if r.eta is None else r.eta

    R_W, R_eta, dQ_rel, xi = (
        float(v) for v in ratio_arrays(lr.W, lr.Q_h, eta(lr), sr.W, sr.Q_h, eta(sr))
    )
    defined = all(math.isfinite(v) for v in (R_W, R_eta, dQ_rel, xi))
    return RatioDiagnostics(R_W=R_W, R_eta=R_eta, dQ_rel=dQ_rel, xi=xi, defined=defined)
