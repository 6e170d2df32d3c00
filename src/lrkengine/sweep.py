"""Grid sweeps over cycle parameters: ratio curves, maximum-ratio surfaces,
enhancement-region masks, and optimal-condition search.

All sweeps are deterministic: grid points are evaluated independently and
written into preallocated tables indexed by grid coordinates, so the result
is identical for any worker count.  Each comparison is a long-range cycle
table against its short-range twin.  The short-range reference at a given
(mu grid, baths) does not depend on alpha; it is computed once per sweep and
shared through a ``ReferenceCache``.  Long-range tables are evaluated
directly.  A sweep that walks beta_h builds each chain's spectra on the mu
grid, and the beta_c-only factors of the mode sums, once per alpha; only the
beta_h terms are evaluated per table.  Ratios follow ``cycles.ratio_arrays``
and a cell counts toward a maximum or a region only when both chains are
engine-valid.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .chain import SHORT_RANGE, ChainParams, InvalidParameterError, spectrum_energies
from .cycles import (
    otto_cold_terms,
    otto_engine_valid,
    otto_mode_sums,
    ratio_arrays,
    stirling_cold_terms,
    stirling_engine_valid,
    stirling_mode_sums,
)

CYCLE_KINDS = ("otto", "stirling")


class InsufficientDataError(RuntimeError):
    """Raised when too few engine-valid grid points exist for an extremum."""


def default_mu_ratio_grid() -> np.ndarray:
    return np.linspace(0.0, 1.0, 201)


def default_beta_ratio_grid() -> np.ndarray:
    """99 uniform interior points of (0, 1)."""
    return np.linspace(0.0, 1.0, 101)[1:-1]


def default_alpha_grid() -> np.ndarray:
    return np.geomspace(1.025, 6.0, 100)


@dataclass(frozen=True)
class SweepConfig:
    cycle_kind: str
    base: ChainParams
    mu_i: float = 2.0
    mu_ratio_grid: tuple = field(default_factory=lambda: tuple(default_mu_ratio_grid()))
    alpha_grid: tuple = field(default_factory=lambda: tuple(default_alpha_grid()))
    beta_c: float = 5.0
    beta_ratio_grid: tuple = field(default_factory=lambda: tuple(default_beta_ratio_grid()))
    workers: int = 1

    def __post_init__(self):
        if self.cycle_kind not in CYCLE_KINDS:
            raise InvalidParameterError(f"unknown cycle kind {self.cycle_kind!r}")
        if not (0.0 < self.beta_c < math.inf) or self.workers < 1:
            raise InvalidParameterError("beta_c must be finite and > 0, and workers >= 1")
        if not (0.0 <= self.mu_i < math.inf):
            raise InvalidParameterError(f"mu_i must be finite and >= 0, got {self.mu_i}")
        for name, grid, lo, hi in (
            ("mu_ratio_grid", self.mu_ratio_grid, 0.0, 1.0),
            ("alpha_grid", self.alpha_grid, 1.0, math.inf),
            ("beta_ratio_grid", self.beta_ratio_grid, 0.0, 1.0),
        ):
            arr = np.asarray(grid, dtype=float)
            if arr.size == 0 or np.any(np.diff(arr) < 0):
                raise InvalidParameterError(f"{name} must be non-empty and sorted")
            if name == "alpha_grid":
                ok = np.all(arr > 1.0)
            elif name == "beta_ratio_grid":
                ok = np.all((arr > 0.0) & (arr < 1.0))
            else:
                ok = np.all((arr >= 0.0) & (arr <= 1.0))
            if not ok:
                raise InvalidParameterError(f"{name} values out of range")


def _check_alpha(alpha):
    """The alpha argument of a sweep entry: > 1, as cycles require, or SHORT_RANGE."""
    if not float(alpha) > 1.0:
        raise InvalidParameterError(f"sweeps require alpha > 1 or SHORT_RANGE, got {alpha}")


def _check_beta_ratio(beta_ratio):
    """The beta_h/beta_c argument of a sweep entry: in (0, 1], as ``BathPair`` requires."""
    if not 0.0 < beta_ratio <= 1.0:
        raise InvalidParameterError(f"sweeps require 0 < beta_h/beta_c <= 1, got {beta_ratio}")


@dataclass(frozen=True)
class SweepRow:
    mu_ratio: float
    R_W: float
    R_eta: float
    dQ_rel: float
    xi: float
    engine_lr: bool
    engine_sr: bool


@dataclass(frozen=True, eq=False)
class RegionMap:
    mu_ratio_grid: np.ndarray
    beta_ratio_grid: np.ndarray
    mask: np.ndarray  # [i_mu, j_beta], True = enhancement
    alpha: float
    cycle_kind: str
    excluded: int  # grid points dropped as non-engine or undefined-ratio

    @property
    def area(self) -> float:
        return float(np.mean(self.mask))


@dataclass(frozen=True)
class MaxRatioPoint:
    R_W_max: float
    R_eta_max: float
    arg_mu_ratio_W: float
    arg_mu_ratio_eta: float
    excluded: int
    cusp_mu_ratios_W: tuple = ()
    cusp_mu_ratios_eta: tuple = ()


@dataclass(frozen=True)
class OptimalCondition:
    alpha_star_W: float
    beta_ratio_star_W: float
    alpha_star_eta: float
    beta_ratio_star_eta: float
    R_W_max: float
    R_eta_max: float
    coincident: bool
    cusp_cells_W: tuple = ()
    cusp_cells_eta: tuple = ()


@dataclass(eq=False)
class CycleTable:
    """Per-mu-grid-point cycle quantities for one (alpha, baths)."""

    W: np.ndarray
    Q_h: np.ndarray
    eta: np.ndarray  # NaN where not engine-valid
    engine_valid: np.ndarray


class ReferenceCache:
    """Store of short-range reference tables, counting actual evaluations.

    A reference depends on the sweep's chain, mu grid and baths but not on
    alpha, so sharing the cache across alphas computes each (mu grid, baths)
    reference exactly once.  Long-range tables are never stored: no sweep
    reads the same (alpha, beta ratio) table twice.
    """

    def __init__(self):
        self._store: dict = {}
        self.evaluations = 0

    def table(self, config: SweepConfig, beta_ratio: float, spectra=None) -> CycleTable:
        """The reference at ``beta_ratio``; on a miss it is evaluated from
        ``spectra``, the short-range ``_spectra`` of ``config``'s mu grid,
        built here when not given."""
        base = config.base
        key = (
            config.cycle_kind, base.L, base.J, base.Delta, config.mu_i,
            tuple(config.mu_ratio_grid), beta_ratio * config.beta_c, config.beta_c,
        )
        hit = self._store.get(key)
        if hit is None:
            if spectra is None:
                spectra = _spectra(config, SHORT_RANGE, config.mu_ratio_grid)
            hit = _table(config, spectra, beta_ratio)
            self._store[key] = hit
            self.evaluations += 1
        return hit


def _spectra(config: SweepConfig, alpha, mu_ratios):
    """(eps_i, eps_f, cold) of one chain: the spectrum at mu_i, one row per
    mu_f/mu_i in ``mu_ratios``, and the beta_c-only mode-sum factors."""
    base = replace(config.base, alpha=float(alpha))
    eps_i = spectrum_energies(base, config.mu_i)
    eps_f = spectrum_energies(base, np.asarray(mu_ratios, dtype=float) * config.mu_i)
    cold_terms = otto_cold_terms if config.cycle_kind == "otto" else stirling_cold_terms
    return eps_i, eps_f, cold_terms(eps_i, eps_f, config.beta_c)


def _table(config: SweepConfig, spectra, beta_ratio) -> CycleTable:
    """The cycle table of ``_spectra`` output at beta_h = beta_ratio * beta_c."""
    eps_i, eps_f, cold = spectra
    beta_c = config.beta_c
    beta_h = beta_ratio * beta_c
    if config.cycle_kind == "otto":
        Q_h, Q_c, W = otto_mode_sums(eps_i, eps_f, beta_h, beta_c, cold=cold)
        valid = otto_engine_valid(W, Q_h, Q_c)
    else:
        _, _, _, _, W, Q_h = stirling_mode_sums(eps_i, eps_f, beta_h, beta_c, cold=cold)
        valid = stirling_engine_valid(W, Q_h)
    eta = np.where(valid, np.divide(W, Q_h, out=np.full_like(W, np.nan), where=Q_h != 0), np.nan)
    return CycleTable(W=W, Q_h=Q_h, eta=eta, engine_valid=valid)


def _pair_tables(config: SweepConfig, alpha, beta_ratio, cache: ReferenceCache):
    """The long-range table and its short-range reference at one (alpha, beta ratio)."""
    _check_alpha(alpha)
    _check_beta_ratio(beta_ratio)
    lr = _table(config, _spectra(config, alpha, config.mu_ratio_grid), beta_ratio)
    return lr, cache.table(config, beta_ratio)


def _engine_ratios(lr: CycleTable, sr: CycleTable):
    """(both engine-valid, R_W, R_eta), the ratios -inf where either chain is no engine."""
    both = lr.engine_valid & sr.engine_valid
    R_W, R_eta, _, _ = ratio_arrays(lr.W, lr.Q_h, lr.eta, sr.W, sr.Q_h, sr.eta)
    return both, np.where(both, R_W, -np.inf), np.where(both, R_eta, -np.inf)


def sweep_mu(
    config: SweepConfig, alpha: float, beta_ratio: float, cache: ReferenceCache | None = None
) -> list[SweepRow]:
    """Ratio diagnostics along the mu_f/mu_i grid at fixed (alpha, beta_h/beta_c)."""
    cache = cache if cache is not None else ReferenceCache()
    lr, sr = _pair_tables(config, alpha, beta_ratio, cache)
    columns = [c.tolist() for c in ratio_arrays(lr.W, lr.Q_h, lr.eta, sr.W, sr.Q_h, sr.eta)]
    return [
        SweepRow(
            mu_ratio=float(r), R_W=R_W, R_eta=R_eta, dQ_rel=dQ_rel, xi=xi,
            engine_lr=e_lr, engine_sr=e_sr,
        )
        for r, R_W, R_eta, dQ_rel, xi, e_lr, e_sr in zip(
            config.mu_ratio_grid, *columns, lr.engine_valid.tolist(), sr.engine_valid.tolist()
        )
    ]


def _point_ratio(config: SweepConfig, alpha, beta_ratio, mu_ratio, which: str) -> float:
    lr = _table(config, _spectra(config, alpha, (mu_ratio,)), beta_ratio)
    sr = _table(config, _spectra(config, SHORT_RANGE, (mu_ratio,)), beta_ratio)
    _, R_W, R_eta = _engine_ratios(lr, sr)
    return float((R_W if which == "W" else R_eta)[0])


def _stable_argmax(R, neighbors, valid, midpoint_ratio, rel_tol=0.05):
    """Index of the largest finite ``R`` that survives a half-step refinement.

    Ratio surfaces diverge like 1/W_sr where the short-range work crosses
    zero at the edge of the engine-valid region; the shoulder cells of such a
    divergence are not maxima of anything physical.  Cells are walked in
    order of descending R (a stable sort, so ties go to the smallest index).
    A candidate ``i`` is exempted as a cusp cell when one of its grid
    ``neighbors(i)`` fails ``valid(i, j)``, or when ``midpoint_ratio(i, j)``,
    the ratio re-evaluated at the half-step midpoint toward neighbour ``j``,
    exceeds ``R[i] + rel_tol * max(|R[i]|, 1)``: ``rel_tol`` is the largest
    rise a half step may show before the cell counts as a shoulder.
    Returns (index, cusp indices in descending-R order).
    """
    order = np.argsort(-R, kind="stable")
    cusps = []
    for i in order:
        i = int(i)
        if not np.isfinite(R[i]):
            break
        nbs = neighbors(i)
        if not all(valid(i, j) for j in nbs):
            cusps.append(i)
            continue
        bound = R[i] + rel_tol * max(abs(R[i]), 1.0)
        if any(midpoint_ratio(i, j) > bound for j in nbs):
            cusps.append(i)
            continue
        return i, cusps
    raise InsufficientDataError("no refinement-stable maximum on the grid")


def max_ratios(
    config: SweepConfig,
    alpha: float,
    beta_ratio: float,
    cache: ReferenceCache | None = None,
) -> MaxRatioPoint:
    """Grid maxima of R_W and R_eta over mu_f/mu_i; non-engine points excluded.

    A cell counts only when both chains are engine-valid.  Cells flagged
    unstable under half-step refinement along mu (divergence shoulders at the
    engine-validity boundary, see ``_stable_argmax`` with its default
    ``rel_tol`` of 5%) are exempted from the maxima and listed.  Ties break
    toward the smallest grid index.  ``cache`` holds the short-range
    references; the long-range table is evaluated on every call.
    """
    cache = cache if cache is not None else ReferenceCache()
    lr, sr = _pair_tables(config, alpha, beta_ratio, cache)
    return _max_point(config, alpha, beta_ratio, lr, sr)


def _max_point(config: SweepConfig, alpha, beta_ratio, lr: CycleTable, sr: CycleTable):
    """``max_ratios`` of the table pair ``lr``, ``sr`` at (alpha, beta ratio)."""
    valid, R_W, R_eta = _engine_ratios(lr, sr)
    n_valid = int(np.sum(valid))
    if n_valid < 3:
        raise InsufficientDataError(
            f"only {n_valid} engine-valid grid points at alpha={alpha}, "
            f"beta_h/beta_c={beta_ratio}; need at least 3"
        )
    xs = np.asarray(config.mu_ratio_grid, dtype=float)

    def neighbors(i):
        return [j for j in (i - 1, i + 1) if 0 <= j < xs.size]

    def stable_argmax(R, which):
        return _stable_argmax(
            R,
            neighbors,
            lambda i, j: valid[j],
            lambda i, j: _point_ratio(config, alpha, beta_ratio, 0.5 * (xs[i] + xs[j]), which),
        )

    i_W, cusps_W = stable_argmax(R_W, "W")
    i_eta, cusps_eta = stable_argmax(R_eta, "eta")
    return MaxRatioPoint(
        R_W_max=float(R_W[i_W]),
        R_eta_max=float(R_eta[i_eta]),
        arg_mu_ratio_W=float(xs[i_W]),
        arg_mu_ratio_eta=float(xs[i_eta]),
        excluded=int(xs.size - n_valid),
        cusp_mu_ratios_W=tuple(float(xs[i]) for i in cusps_W),
        cusp_mu_ratios_eta=tuple(float(xs[i]) for i in cusps_eta),
    )


def max_ratio_row(
    config: SweepConfig, alpha: float, beta_ratios, cache: ReferenceCache | None = None
) -> list:
    """``max_ratios`` at each of ``beta_ratios`` for one alpha.

    Both chains' spectra are built once for the whole row.  An entry is None
    where ``max_ratios`` would raise ``InsufficientDataError``.
    """
    _check_alpha(alpha)
    for b in beta_ratios:
        _check_beta_ratio(b)
    cache = cache if cache is not None else ReferenceCache()
    sr = _spectra(config, SHORT_RANGE, config.mu_ratio_grid)
    refs = [cache.table(config, b, sr) for b in beta_ratios]
    return _max_ratio_row(config, alpha, beta_ratios, refs)


def _max_ratio_row(config: SweepConfig, alpha, beta_ratios, refs) -> list:
    lr = _spectra(config, alpha, config.mu_ratio_grid)
    row = []
    for b, ref in zip(beta_ratios, refs):
        try:
            row.append(_max_point(config, alpha, b, _table(config, lr, b), ref))
        except InsufficientDataError:
            row.append(None)
    return row


def _run(config: SweepConfig, fn, n):
    """Call ``fn(0) .. fn(n - 1)``, on ``config.workers`` threads when above one."""
    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            list(pool.map(fn, range(n)))
    else:
        for i in range(n):
            fn(i)


def enhancement_regions(
    config: SweepConfig, alpha: float, cache: ReferenceCache | None = None
) -> RegionMap:
    """Mask of (mu_f/mu_i, beta_h/beta_c) cells with R_W > 1 and R_eta > 1.

    Both chains' spectra and the short-range references, one per beta
    ratio, are built serially; the workers then evaluate the long-range
    columns and reduce them.
    """
    _check_alpha(alpha)
    cache = cache if cache is not None else ReferenceCache()
    mu = np.asarray(config.mu_ratio_grid, dtype=float)
    br = np.asarray(config.beta_ratio_grid, dtype=float)
    sr = _spectra(config, SHORT_RANGE, mu)
    refs = [cache.table(config, b, sr) for b in br]
    lr_spectra = _spectra(config, alpha, mu)
    mask = np.zeros((mu.size, br.size), dtype=bool)
    excl = np.zeros(br.size, dtype=int)

    def fill(j):
        lr = _table(config, lr_spectra, br[j])
        both, R_W, R_eta = _engine_ratios(lr, refs[j])
        mask[:, j] = (R_W > 1.0) & (R_eta > 1.0)
        excl[j] = int(np.sum(~both))

    _run(config, fill, br.size)
    return RegionMap(
        mu_ratio_grid=mu,
        beta_ratio_grid=br,
        mask=mask,
        alpha=float(alpha),
        cycle_kind=config.cycle_kind,
        excluded=int(excl.sum()),
    )


def optimal_condition(config: SweepConfig, cache: ReferenceCache | None = None) -> OptimalCondition:
    """Argmax of the maximum ratios over the (alpha, beta_h/beta_c) grid.

    Each cell holds the ``max_ratios`` value over mu_f/mu_i, whose argmax is
    already kept off divergence shoulders along mu.  The 1/W_sr divergence
    can also run along beta (at beta_c = 5 and mu_f/mu_i = 0, W_sr crosses
    zero near beta_h/beta_c = 0.449), so the same ``_stable_argmax`` rule, with
    its default ``rel_tol`` of 5%, is applied along beta: a cell is exempted
    when a beta neighbour at the same alpha and arg-mu is not engine-valid for
    both chains, or when the ratio at the half-step beta midpoint exceeds the
    cell value by more than ``rel_tol``.  Exempted cells are listed in
    ``cusp_cells_W`` / ``cusp_cells_eta``.  No alpha direction is tested:
    W_sr does not depend on alpha, so the pole cannot run along it.  The walk
    runs serially after the worker pool, so the result is the same for any
    worker count.  ``coincident`` is True when the work and efficiency argmax
    points agree within one grid cell in both directions.  The short-range
    spectra and references are built before the pool starts; each alpha row
    builds its long-range spectra once for all beta ratios.
    """
    cache = cache if cache is not None else ReferenceCache()
    alphas = np.asarray(config.alpha_grid, dtype=float)
    brs = np.asarray(config.beta_ratio_grid, dtype=float)
    shape = (alphas.size, brs.size)
    R_W_m = np.full(shape, -np.inf)
    R_eta_m = np.full(shape, -np.inf)
    mu_W_m = np.full(shape, np.nan)
    mu_eta_m = np.full(shape, np.nan)

    # Built serially, so the workers below only read them.
    sr = _spectra(config, SHORT_RANGE, config.mu_ratio_grid)
    refs = [cache.table(config, b, sr) for b in brs]

    def run_alpha(i):
        for j, mr in enumerate(_max_ratio_row(config, alphas[i], brs, refs)):
            if mr is None:
                continue
            R_W_m[i, j] = mr.R_W_max
            R_eta_m[i, j] = mr.R_eta_max
            mu_W_m[i, j] = mr.arg_mu_ratio_W
            mu_eta_m[i, j] = mr.arg_mu_ratio_eta

    _run(config, run_alpha, alphas.size)

    if not np.isfinite(R_W_m).any() or not np.isfinite(R_eta_m).any():
        raise InsufficientDataError("no engine-valid (alpha, beta ratio) grid points")

    nb = brs.size

    def beta_neighbors(c):
        return [c + d for d in (-1, 1) if 0 <= c % nb + d < nb]

    def stable_argmax(R, arg_mu, which):
        def ratio(c, beta_ratio):
            return _point_ratio(config, alphas[c // nb], beta_ratio, arg_mu.flat[c], which)

        c, cusps = _stable_argmax(
            R.ravel(),
            beta_neighbors,
            lambda c, n: ratio(c, brs[n % nb]) > -math.inf,
            lambda c, n: ratio(c, 0.5 * (brs[c % nb] + brs[n % nb])),
        )
        cells = tuple((float(alphas[n // nb]), float(brs[n % nb])) for n in cusps)
        return divmod(c, nb), cells

    (iW, jW), cusps_W = stable_argmax(R_W_m, mu_W_m, "W")
    (iE, jE), cusps_eta = stable_argmax(R_eta_m, mu_eta_m, "eta")
    coincident = abs(iW - iE) <= 1 and abs(jW - jE) <= 1
    return OptimalCondition(
        alpha_star_W=float(alphas[iW]),
        beta_ratio_star_W=float(brs[jW]),
        alpha_star_eta=float(alphas[iE]),
        beta_ratio_star_eta=float(brs[jE]),
        R_W_max=float(R_W_m[iW, jW]),
        R_eta_max=float(R_eta_m[iE, jE]),
        coincident=coincident,
        cusp_cells_W=cusps_W,
        cusp_cells_eta=cusps_eta,
    )
