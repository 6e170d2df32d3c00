"""Quasistatic Otto and Stirling cycles and enhancement-ratio diagnostics.

Sign convention: every heat is positive when absorbed by the working medium.
A cycle evaluation builds the initial- and final-mu spectra on the same
momentum grid and reduces them with O(L) mode sums.  The spectra come from
the chain module, which computes the pairing sum on the grid by one FFT and
keeps it, with cos k, per (L, alpha).  Every mode sum and surface forms its
beta_c terms itself from the spectra it is given.  ``otto_surface``
evaluates the Otto sums on a whole (mu_f, beta_h) grid as four dot
products, one of them a GEMM, and states a bound on its distance from
``otto_mode_sums``; the sweeps screen on it and decide on the per-mode sums,
which ``otto_cycle`` and ``stirling_cycle`` keep as the literal path.
"""

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainParams, InvalidParameterError, spectrum_energies
from .thermo import lncosh


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
    t_c = np.tanh(0.5 * beta_c * eps_f)
    t_h = np.tanh(0.5 * np.asarray(beta_hs, dtype=float)[:, None] * eps_i)
    a = (t_c @ eps_i)[:, None]
    c = np.sum(eps_f * t_c, axis=-1)[:, None]
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


#: Elements of each work buffer of ``stirling_surface``: three buffers of 128 kB,
#: which stay in a core's L2 cache.
_SURFACE_BLOCK = 1 << 14


def stirling_surface(eps_i, eps_f, beta_hs, beta_c: float):
    """Stirling W and Q_h on the grid of ``eps_f`` rows x ``beta_hs``, each cell
    bitwise the value of ``stirling_mode_sums`` at that row and beta_h.

    ``eps_f`` has shape (n_mu, nk), and W and Q_h have shape (n_mu, n_beta).
    Of the beta_c terms, only the two that W and Q_h read are built, once:
    tanh(beta_c eps_i / 2) and the cold ln cosh work terms w_c.  For each
    beta_h the eps_i-only terms (t_hi, its ln cosh, eps_i t_hi and Q_IV) are
    built once.  The eps_f rows then pass in blocks of ``_SURFACE_BLOCK // nk``
    rows through three buffers allocated once per call, by the elementwise
    operations of ``stirling_mode_sums`` (ln cosh as in ``thermo.lncosh``) in
    the same order and one sum per row, so no block allocates a temporary of
    table size.
    Q_II and Q_III, which neither W nor Q_h uses, are not formed.
    """
    eps_i = np.asarray(eps_i, dtype=float)
    eps_f = np.asarray(eps_f, dtype=float)
    t_ci = np.tanh(0.5 * beta_c * eps_i)
    w_c = (2.0 / beta_c) * (lncosh(0.5 * beta_c * eps_i) - lncosh(0.5 * beta_c * eps_f))
    beta_hs = np.asarray(beta_hs, dtype=float)
    n_mu, nk = eps_f.shape
    W = np.empty((n_mu, beta_hs.size))
    Q_h = np.empty_like(W)
    rows = max(1, _SURFACE_BLOCK // nk)
    x, t, w = (np.empty((min(rows, n_mu), nk)) for _ in range(3))
    ln2 = math.log(2.0)
    for j, beta_h in enumerate(beta_hs):
        h, g = 0.5 * beta_h, 2.0 / beta_h
        t_hi = np.tanh(h * eps_i)
        lc_i = lncosh(h * eps_i)
        e_t_hi = eps_i * t_hi
        Q_IV = np.sum(eps_i * (t_ci - t_hi), axis=-1)
        for r in range(0, n_mu, rows):
            f = eps_f[r : r + rows]
            m = f.shape[0]
            xb, tb, wb = x[:m], t[:m], w[:m]
            np.multiply(h, f, out=xb)
            np.tanh(xb, out=tb)  # t_hf
            np.abs(xb, out=xb)
            np.multiply(-2.0, xb, out=wb)
            np.exp(wb, out=wb)
            np.log1p(wb, out=wb)
            np.add(xb, wb, out=wb)
            np.subtract(wb, ln2, out=wb)  # ln cosh(beta_h eps_f / 2)
            np.subtract(wb, lc_i, out=wb)
            np.multiply(g, wb, out=wb)  # w_h
            np.add(wb, w_c[r : r + m], out=xb)
            np.add.reduce(xb, axis=-1, out=W[r : r + m, j])
            np.multiply(f, tb, out=tb)
            np.subtract(tb, e_t_hi, out=tb)
            np.subtract(wb, tb, out=tb)
            q = np.add.reduce(tb, axis=-1, out=Q_h[r : r + m, j])
            np.add(q, Q_IV, out=q)
    return W, Q_h


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


def otto_cycle(spec: CycleSpec) -> OttoResult:
    """Evaluate one quasistatic Otto cycle.

    Engine validity requires W > 0 and Q_h > -Q_c > 0; eta = W/Q_h is
    reported only for valid engines.
    """
    eps_i, eps_f = _cycle_energies(spec)
    Q_h, Q_c, W = otto_mode_sums(eps_i, eps_f, spec.baths.beta_h, spec.baths.beta_c)
    Q_h, Q_c, W = float(Q_h), float(Q_c), float(W)
    engine_valid = otto_engine_valid(W, Q_h, Q_c)
    eta = W / Q_h if engine_valid else None
    return OttoResult(spec=spec, Q_h=Q_h, Q_c=Q_c, W=W, eta=eta, engine_valid=engine_valid)


def stirling_cycle(spec: CycleSpec) -> StirlingResult:
    """Evaluate one quasistatic Stirling cycle (W > 0 and Q_h > 0 for an engine)."""
    eps_i, eps_f = _cycle_energies(spec)
    Q_I, Q_II, Q_III, Q_IV, W, Q_h = stirling_mode_sums(
        eps_i, eps_f, spec.baths.beta_h, spec.baths.beta_c
    )
    Q_I, Q_II, Q_III, Q_IV = float(Q_I), float(Q_II), float(Q_III), float(Q_IV)
    W, Q_h = float(W), float(Q_h)
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
    tests use a 1e-14 tolerance on the reference scale
    max(|W_sr|, |Q_h_sr|, 1).  Undefined components are NaN.
    """
    W_lr, Q_h_lr, eta_lr, W_sr, Q_h_sr, eta_sr = (
        np.asarray(a, dtype=float) for a in (W_lr, Q_h_lr, eta_lr, W_sr, Q_h_sr, eta_sr)
    )
    tol = 1e-14 * np.maximum(np.maximum(np.abs(W_sr), np.abs(Q_h_sr)), 1.0)
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
