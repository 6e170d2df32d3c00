"""Grid sweeps over cycle parameters: ratio curves, maximum-ratio surfaces,
enhancement-region masks, and optimal-condition search.

All sweeps are deterministic.  Only ``max_ratio_grid`` (and so
``optimal_condition``) runs in parallel, for both cycles: its alpha rows
split into strided parts, each evaluated in a forked process.  Every row
is decided on its own, so the result is identical for any worker count.
Each comparison is a long-range cycle against its short-range twin, which
does not depend on alpha.  Ratios follow ``cycles.ratio_arrays`` and a cell
counts toward a maximum or a region only when both chains are engine-valid.

Every entry builds its short-range side once per call, and no state
outlives a call.  ``sweep_mu`` takes one alpha or an array of them and
evaluates one table per chain, all alphas against one short-range table.
The grid sweeps, ``max_ratio_grid``, ``optimal_condition`` and
``enhancement_regions``, build each chain's spectra on the mu grid once per
alpha and decide every cell in one step, ``_Grid``:

* Each chain's surface on the (mu, beta) grid lies within a stated bound of
  its per-mode sums: ``cycles.otto_surface`` for Otto (one GEMM per chain),
  and ``cycles.stirling_bounds`` for Stirling (Chebyshev interpolants of the
  per-mode functions, two GEMMs per chain), or, where the interpolant's
  degree would cost more, the exact ``cycles.stirling_surface`` with a
  bound of 0.
* The surfaces only screen.  A cell's engine validity, its R > 1 tests and
  its argmax candidacy are read off them where they lie beyond the bound,
  and a row whose eps_f equals eps_i does no work.  Every other cell that
  may be an engine on both chains is recomputed from both chains' per-mode
  sums at once (``_exact_ratios``), which decide its validity and its
  ratios together, so each decision equals the tables'.

Cells are recomputed from one-row spectra gathered into batches of at most
half a table's rows, each row equal bitwise to the table's: the mode sums
form their beta_c terms themselves, elementwise on the rows they are given,
and Stirling rows pass through ``stirling_surface`` at one beta_h per row.
The cusp walks (``_stable_maxima``) treat each column of an array as one walk
and advance all columns in rounds: each round evaluates the half-step
midpoints of every unresolved column's current candidate together, each
distinct point once.
"""

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .chain import SHORT_RANGE, ChainParams, InvalidParameterError, spectrum_energies
from .cycles import (
    RATIO_ZERO_TOL,
    otto_engine_valid,
    otto_mode_sums,
    otto_surface,
    ratio_arrays,
    stirling_bounds,
    stirling_engine_valid,
    stirling_surface,
)

CYCLE_KINDS = ("otto", "stirling")

#: The largest rise, relative to max(|R|, 1), that a ratio may show at a
#: half-step midpoint before its cell counts as a divergence shoulder.
CUSP_REL_TOL = 0.05


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
        if not isinstance(self.workers, (int, np.integer)):
            raise InvalidParameterError(f"workers must be an integer, got {self.workers!r}")
        if self.workers < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {self.workers}")
        if not (0.0 < self.beta_c < math.inf):
            raise InvalidParameterError(f"beta_c must be finite and > 0, got {self.beta_c}")
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


def _check_alpha(alpha, ndim=0):
    """The alpha argument of a sweep entry, a scalar or, where ``ndim`` is 1, a
    1-D array: each > 1, as cycles require, or SHORT_RANGE."""
    if np.ndim(alpha) > ndim:
        raise InvalidParameterError(f"alpha must be {('a scalar', '1-D')[ndim]}, got {alpha!r}")
    if np.size(alpha) == 0:
        raise InvalidParameterError("alpha must hold at least one value, got none")
    if not np.all(np.asarray(alpha, dtype=float) > 1.0):
        raise InvalidParameterError(f"sweeps require alpha > 1 or SHORT_RANGE, got {alpha}")


def _check_beta_ratio(beta_ratio):
    """The beta_h/beta_c argument of a sweep entry: in (0, 1], as ``BathPair`` requires."""
    if not 0.0 < beta_ratio <= 1.0:
        raise InvalidParameterError(f"sweeps require 0 < beta_h/beta_c <= 1, got {beta_ratio}")


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


def _spectra(config: SweepConfig, alpha, mu_ratios):
    """(eps_i, eps_f) of one chain: the spectrum at mu_i and one row per
    mu_f/mu_i in ``mu_ratios``."""
    base = replace(config.base, alpha=float(alpha))
    eps_i = spectrum_energies(base, config.mu_i)
    return eps_i, spectrum_energies(base, np.asarray(mu_ratios, dtype=float) * config.mu_i)


def _table(config: SweepConfig, spectra, beta_ratio) -> CycleTable:
    """The cycle table of ``_spectra`` output at beta_h = beta_ratio * beta_c.

    ``beta_ratio`` may be a column of one value per spectrum row; each row
    is then bitwise the row of the table at its own beta ratio.  Stirling
    tables come from ``stirling_surface`` at one beta_h per row, bitwise the
    per-mode sums.
    """
    eps_i, eps_f = spectra
    beta_c = config.beta_c
    beta_h = beta_ratio * beta_c
    if config.cycle_kind == "otto":
        Q_h, Q_c, W = otto_mode_sums(eps_i, eps_f, beta_h, beta_c)
        valid = otto_engine_valid(W, Q_h, Q_c)
    else:
        per_row = np.broadcast_to(beta_h, (len(eps_f), 1))
        W, Q_h = (c[:, 0] for c in stirling_surface(eps_i, eps_f, per_row, beta_c))
        valid = stirling_engine_valid(W, Q_h)
    eta = np.where(valid, np.divide(W, Q_h, out=np.full_like(W, np.nan), where=Q_h != 0), np.nan)
    return CycleTable(W=W, Q_h=Q_h, eta=eta, engine_valid=valid)


def _engine_ratios(lr: CycleTable, sr: CycleTable):
    """(both engine-valid, R_W, R_eta), the ratios -inf where either chain is no engine."""
    both = lr.engine_valid & sr.engine_valid
    R_W, R_eta, _, _ = ratio_arrays(lr.W, lr.Q_h, lr.eta, sr.W, sr.Q_h, sr.eta)
    return both, np.where(both, R_W, -np.inf), np.where(both, R_eta, -np.inf)


def sweep_mu(config: SweepConfig, alpha, beta_ratio: float) -> dict:
    """Ratio diagnostics along the mu_f/mu_i grid at fixed beta_h/beta_c.

    ``alpha`` is a scalar or a 1-D array.  Returns one array per column, in
    the order ``lrk sweep`` writes them: ``mu_ratio``, ``R_W``, ``R_eta``,
    ``dQ_rel``, ``xi`` (by ``cycles.ratio_arrays``), ``engine_lr`` and
    ``engine_sr``.  The rows run over the mu grid for each alpha in turn,
    every alpha against one short-range table.
    """
    _check_alpha(alpha, ndim=1)
    _check_beta_ratio(beta_ratio)
    mu = np.asarray(config.mu_ratio_grid, dtype=float)
    sr = _table(config, _spectra(config, SHORT_RANGE, mu), beta_ratio)
    parts = []
    for a in np.atleast_1d(alpha):
        lr = _table(config, _spectra(config, a, mu), beta_ratio)
        parts.append((mu, *ratio_arrays(lr.W, lr.Q_h, lr.eta, sr.W, sr.Q_h, sr.eta),
                      lr.engine_valid, sr.engine_valid))
    names = ("mu_ratio", "R_W", "R_eta", "dQ_rel", "xi", "engine_lr", "engine_sr")
    return {name: np.concatenate(column) for name, column in zip(names, zip(*parts))}


def _point_table(config: SweepConfig, alpha, mu_ratios, beta_ratios) -> CycleTable:
    """Exact table rows of one chain at the pairs (mu_ratios[k], beta_ratios[k]).

    Spectra are built once per distinct mu ratio and gathered into one row
    per pair, which the mode sums evaluate at its own beta ratio.
    """
    mu, rows = np.unique(mu_ratios, return_inverse=True)
    eps_i, eps_f = _spectra(config, alpha, mu)
    return _table(config, (eps_i, eps_f[rows]), np.asarray(beta_ratios, dtype=float)[:, None])


def _exact_ratios(config: SweepConfig, alpha, mu_ratios, beta_ratios):
    """``_engine_ratios`` at the pairs (mu_ratios[k], beta_ratios[k]) from per-mode sums,
    equal bitwise to the same cells of the tables.

    The pairs go in batches of at most half a table's rows (one empty batch
    for no pairs), joined.  A batch builds its own spectra and mode-sum
    terms, so half a table keeps it within a table's memory.
    """
    mu = np.asarray(mu_ratios, dtype=float)
    br = np.asarray(beta_ratios, dtype=float)
    step = max(1, len(config.mu_ratio_grid) // 2)
    parts = [_engine_ratios(*(_point_table(config, a, mu[s : s + step], br[s : s + step])
                              for a in (alpha, SHORT_RANGE)))
             for s in range(0, max(mu.size, 1), step)]
    return tuple(np.concatenate(p) for p in zip(*parts))


@dataclass(eq=False)
class _Surface:
    """One chain on the (mu_f/mu_i, beta_h/beta_c) grid.

    W and Q_h lie within ``r`` of their per-mode sums, and equal them where
    ``r`` is 0.  ``sure`` marks the cells that the surface alone shows to be
    engines, and ``maybe`` the cells it cannot show to be none; ``sure``
    lies within ``maybe``.
    """

    W: np.ndarray
    Q_h: np.ndarray
    r: np.ndarray
    sure: np.ndarray
    maybe: np.ndarray


def _surface(config: SweepConfig, alpha, brs) -> _Surface:
    """The surface of one chain on the mu grid at the beta ratios ``brs``:
    ``cycles.otto_surface`` or ``cycles.stirling_bounds``.

    It only screens.  A cell is ``sure`` where each engine test (W > 0, and
    Q_h > -Q_c > 0 for Otto or Q_h > 0 for Stirling) clears 0 by the bound,
    and ``maybe`` where none fails by more than the bound.  The bound is
    doubled, so the margins also cover the rounding of the sums that test
    them.
    """
    eps_i, eps_f = _spectra(config, alpha, config.mu_ratio_grid)
    beta_hs, beta_c = brs * config.beta_c, config.beta_c
    if config.cycle_kind == "otto":
        Q_h, Q_c, W, tol = otto_surface(eps_i, eps_f, beta_hs, beta_c)
        r = 2.0 * tol
        sure = (W > r) & (Q_h + Q_c > 2.0 * r) & (-Q_c > r)
        maybe = (W > -r) & (Q_h + Q_c > -2.0 * r) & (-Q_c > -r)
    else:
        W, Q_h, tol = stirling_bounds(eps_i, eps_f, beta_hs, beta_c)
        r = 2.0 * tol
        sure = (W > r) & (Q_h > r)
        maybe = (W > -r) & (Q_h > -r)
    # Where eps_f equals eps_i the per-mode sums give W exactly 0: no engine.
    idle = np.all(eps_f == eps_i, axis=1)[:, None]
    return _Surface(W=W, Q_h=Q_h, r=r, sure=sure & ~idle, maybe=maybe & ~idle)


class _Grid:
    """The decisions of one alpha against the short range on the (mu, beta) grid.

    ``both`` is the exact engine validity of both chains.  ``lo`` and ``hi``
    hold (R_W, R_eta) on axis 1 of an (n_mu, 2, n_beta) array: they bound the
    exact value of ``_engine_ratios`` and equal it where ``exact``; a ratio
    that is not finite reads -inf.  ``refine`` makes cells exact.
    """

    def __init__(self, config, alpha, brs, both, lo, hi, exact):
        self.config, self.alpha, self.brs = config, alpha, brs
        self.both, self.lo, self.hi, self.exact = both, lo, hi, exact

    @classmethod
    def screened(cls, config, alpha, brs, sr: _Surface):
        """The grid of ``alpha`` against the short-range surface ``sr``.

        Bands from the W and Q_h bounds where both chains are sure engines
        and W_sr stays clear of the zero test of ``ratio_arrays``, widened by
        the rounding of the exact ratios.  Every other cell that may be an
        engine on both chains is refined at once, which decides its engine
        validity; the rest are no engines."""
        lr = _surface(config, alpha, brs)
        both = lr.sure & sr.sure
        r, s = lr.r, sr.r
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            eta_lr = ((lr.W - r) / (lr.Q_h + r), (lr.W + r) / (lr.Q_h - r))
            eta_sr = ((sr.W - s) / (sr.Q_h + s), (sr.W + s) / (sr.Q_h - s))
            lo = np.stack(((lr.W - r) / (sr.W + s), eta_lr[0] / eta_sr[1]), axis=1)
            hi = np.stack(((lr.W + r) / (sr.W - s), eta_lr[1] / eta_sr[0]), axis=1)
        # The zero test of ratio_arrays on the bounds, at twice its tolerance.
        defined = sr.W - s > 2.0 * RATIO_ZERO_TOL * np.maximum(
            np.maximum(sr.W + s, sr.Q_h + s), 1.0)
        banded = (both & defined)[:, None, :]
        # The exact ratios take up to three roundings of their own.
        u8 = 4.0 * np.finfo(float).eps
        lo = np.where(banded, lo * (1.0 - u8), -np.inf)
        hi = np.where(banded, hi * (1.0 + u8), -np.inf)
        grid = cls(config, alpha, brs, both, lo, hi, np.repeat(~banded, 2, axis=1))
        grid.refine(*np.nonzero(lr.maybe & sr.maybe & ~banded[:, 0]))
        return grid

    def refine(self, i, j):
        """Replace the bands and engine validity of cells (i[k], j[k]) by their
        exact values."""
        mu = np.asarray(self.config.mu_ratio_grid, dtype=float)
        self.both[i, j], R_W, R_eta = _exact_ratios(self.config, self.alpha, mu[i], self.brs[j])
        self.lo[i, :, j] = self.hi[i, :, j] = _finite(np.stack((R_W, R_eta), axis=1))
        self.exact[i, :, j] = True

    def region_mask(self):
        """Cells with R_W > 1 and R_eta > 1, refining those whose bands straddle 1."""
        yes = np.all(self.lo > 1.0, axis=1)
        no = np.any(self.hi <= 1.0, axis=1)
        self.refine(*np.nonzero(~yes & ~no))
        return np.all(self.lo > 1.0, axis=1)


def _finite(R):
    return np.where(np.isfinite(R), R, -np.inf)


def _stable_maxima(lo, hi, exact, refine, stable):
    """The stable maximum of each column of an (n, m) array, and its cusp cells.

    Ratio surfaces diverge like 1/W_sr where the short-range work crosses
    zero at the edge of the engine-valid region; the shoulder cells of such a
    divergence are not maxima of anything physical.  Each column is one walk:
    its cells are taken in order of descending R, ties to the smallest index,
    and each candidate is tested by ``stable``.  ``lo`` and ``hi`` bound R
    (-inf where it is not finite) and equal it where ``exact``; a cell whose
    ``hi`` is -inf at the start is never a candidate.

    All open columns advance together, one round at a time.  A round first
    calls ``refine(i, c)`` once on every alive inexact cell (i[k], c[k]) whose
    ``hi`` reaches its column's top ``lo``; ``refine`` makes them exact in
    ``lo``, ``hi`` and ``exact``, so every inexact cell left lies strictly
    below the next candidate.  The candidate of a column is then its largest
    alive exact cell, and a column with none fails.  ``stable(cand, cols)``
    returns the verdicts on all candidates of the round at once; an unstable
    candidate is exempted as a cusp cell and its column walks on.

    Returns each column's index (-1 where the column fails) and, per column,
    its cusp cells in the order they were exempted.
    """
    m = lo.shape[1]
    alive = hi > -np.inf
    index = np.full(m, -1)
    cusps = [[] for _ in range(m)]
    cols = np.arange(m)
    while cols.size:
        on = alive[:, cols]
        top = np.where(on, lo[:, cols], -np.inf).max(axis=0)
        i, c = np.nonzero(on & ~exact[:, cols] & (hi[:, cols] >= top))
        if i.size:
            refine(i, cols[c])
        live = on & exact[:, cols]
        has = live.any(axis=0)
        cols, live = cols[has], live[:, has]
        R = np.where(live, lo[:, cols], -np.inf)
        cand = np.argmax(live & (R == R.max(axis=0)), axis=0)
        ok = stable(cand, cols)
        index[cols[ok]] = cand[ok]
        cand, cols = cand[~ok], cols[~ok]
        alive[cand, cols] = False
        for cell, col in zip(cand, cols):
            cusps[col].append(int(cell))
    return index, cusps


def _row(config: SweepConfig, alpha, brs, ref) -> list:
    """``max_ratios`` at each of the beta ratios ``brs`` for one alpha, against
    the short-range surface ``ref``: a ``MaxRatioPoint``, or None where the
    column has no stable maximum.

    The cusp walks along mu of all columns and both ratios advance together
    in ``_stable_maxima``, over the (R_W, R_eta) columns of the grid side by
    side; a column with fewer than 3 engine cells has none.
    """
    grid = _Grid.screened(config, alpha, brs, ref)
    xs = np.asarray(config.mu_ratio_grid, dtype=float)
    nb = brs.size
    n_valid = np.sum(grid.both, axis=0)
    grid.hi[:, :, n_valid < 3] = -np.inf
    lo, hi, exact = (a.reshape(xs.size, 2 * nb) for a in (grid.lo, grid.hi, grid.exact))

    def refine(i, c):
        grid.refine(*np.divmod(np.unique(i * nb + c % nb), nb))

    def stable(cand, cols):
        # A candidate is a cusp where a mu neighbour is no engine cell on both
        # chains, or where a half-step midpoint rises above R by more than
        # CUSP_REL_TOL max(|R|, 1).
        j, k = cols % nb, cols // nb
        nbs = cand[:, None] + np.array([-1, 1])
        inside = (nbs >= 0) & (nbs < xs.size)
        nbs = np.clip(nbs, 0, xs.size - 1)
        engine = np.all(grid.both[nbs, j[:, None]] | ~inside, axis=1)
        p, q = np.nonzero(inside & engine[:, None])
        v = np.full(nbs.shape, -np.inf)
        if p.size:
            points = np.stack((0.5 * (xs[cand[p]] + xs[nbs[p, q]]), brs[j[p]]), axis=1)
            pairs, back = np.unique(points, axis=0, return_inverse=True)
            _, R_W, R_eta = _exact_ratios(config, alpha, pairs[:, 0], pairs[:, 1])
            v[p, q] = np.stack((R_W, R_eta))[k[p], back.ravel()]
        R = lo[cand, cols]
        bound = R + CUSP_REL_TOL * np.maximum(np.abs(R), 1.0)
        return engine & ~np.any(v > bound[:, None], axis=1)

    index, cusps = _stable_maxima(lo, hi, exact, refine, stable)
    row = [None] * nb
    for j in np.flatnonzero((index[:nb] >= 0) & (index[nb:] >= 0)):
        i_W, i_eta = index[j], index[nb + j]
        row[j] = MaxRatioPoint(
            R_W_max=float(lo[i_W, j]),
            R_eta_max=float(lo[i_eta, nb + j]),
            arg_mu_ratio_W=float(xs[i_W]),
            arg_mu_ratio_eta=float(xs[i_eta]),
            excluded=int(xs.size - n_valid[j]),
            cusp_mu_ratios_W=tuple(float(xs[i]) for i in cusps[j]),
            cusp_mu_ratios_eta=tuple(float(xs[i]) for i in cusps[nb + j]),
        )
    return row


def max_ratios(config: SweepConfig, alpha: float, beta_ratio: float) -> MaxRatioPoint:
    """Grid maxima of R_W and R_eta over mu_f/mu_i; non-engine points excluded.

    A cell counts only when both chains are engine-valid.  Cells flagged
    unstable under half-step refinement along mu (divergence shoulders at the
    engine-validity boundary: a half-step midpoint above R by more than
    ``CUSP_REL_TOL`` max(|R|, 1), see ``_stable_maxima``) are exempted from the
    maxima and listed.  Ties break
    toward the smallest grid index.
    """
    _check_alpha(alpha)
    _check_beta_ratio(beta_ratio)
    brs = np.array([beta_ratio], dtype=float)
    (point,) = _row(config, alpha, brs, _surface(config, SHORT_RANGE, brs))
    if point is None:
        raise InsufficientDataError(
            f"no maximum at alpha={alpha}, beta_h/beta_c={beta_ratio}: fewer than 3 "
            "engine-valid grid points, or every candidate a cusp cell")
    return point


def _usable_cpus() -> int:
    """The CPUs this process may run on, or all of them where affinity is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def max_ratio_grid(config: SweepConfig) -> list:
    """``max_ratios`` at every cell of ``config.alpha_grid`` x ``config.beta_ratio_grid``:
    one list per alpha, with None where ``max_ratios`` would raise
    ``InsufficientDataError``.

    The short-range side is built once for all alphas, and each alpha row
    builds its long-range spectra once for all beta ratios.  Both surfaces
    screen the cells (see the module docstring): a Stirling chain's
    Chebyshev moments are formed once for all beta ratios, and only the
    cells the bound leaves undecided, argmax candidates first among them,
    are evaluated by per-mode sums.  With ``config.workers`` > 1 the alpha
    rows split into at most that many parts, and no more parts than the CPUs
    this process may run on; part k takes every n-th alpha from the k-th, so
    the costlier large-alpha rows spread over the parts.  Each part runs
    serially in a forked process that builds its own short-range side on the
    whole beta grid, and the rows return to their places.  A forked process
    starts with the parent's modules loaded, so it is sent only its config.

    The parts pay only with BLAS on one thread (``OPENBLAS_NUM_THREADS=1``):
    both cycles' surfaces are GEMMs on BLAS's threads, and every forked
    process starts its own, which oversubscribes the cores.  The grid runs
    serially where the "fork" start method is missing (Windows) or the
    caller is a daemonic process, which may not have children.  Forking a
    process that runs threads of its own, Python's or BLAS's, can deadlock,
    and Python 3.12+ warns of it: call with ``workers`` = 1 from such a
    process.
    """
    alphas = tuple(config.alpha_grid)
    n = min(config.workers, len(alphas), _usable_cpus())
    if n > 1:
        # Imported here: at module level they raise the peak RSS of every
        # run by 0.8 MB (benchmark grid-otto and point-scan, 8 of 8 pairs).
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if ("fork" in multiprocessing.get_all_start_methods()
                and not multiprocessing.current_process().daemon):
            parts = [replace(config, alpha_grid=alphas[k::n], workers=1) for k in range(n)]
            rows = [None] * len(alphas)
            with ProcessPoolExecutor(n, mp_context=multiprocessing.get_context("fork")) as pool:
                for k, part in enumerate(pool.map(max_ratio_grid, parts)):
                    rows[k::n] = part
            return rows
    brs = np.asarray(config.beta_ratio_grid, dtype=float)
    ref = _surface(config, SHORT_RANGE, brs)
    return [_row(config, a, brs, ref) for a in alphas]


def enhancement_regions(config: SweepConfig, alpha: float) -> RegionMap:
    """Mask of (mu_f/mu_i, beta_h/beta_c) cells with R_W > 1 and R_eta > 1.

    The mask is decided on the surfaces, and the cells whose bands straddle
    1 are refined.
    """
    _check_alpha(alpha)
    brs = np.asarray(config.beta_ratio_grid, dtype=float)
    grid = _Grid.screened(config, alpha, brs, _surface(config, SHORT_RANGE, brs))
    return RegionMap(
        mu_ratio_grid=np.asarray(config.mu_ratio_grid, dtype=float),
        beta_ratio_grid=brs,
        mask=grid.region_mask(),
        alpha=float(alpha),
        cycle_kind=config.cycle_kind,
        excluded=int(np.sum(~grid.both)),
    )


def optimal_condition(config: SweepConfig) -> OptimalCondition:
    """Argmax of the maximum ratios over the (alpha, beta_h/beta_c) grid.

    Each cell holds the ``max_ratios`` value over mu_f/mu_i, whose argmax is
    already kept off divergence shoulders along mu.  The 1/W_sr divergence
    can also run along beta (at beta_c = 5 and mu_f/mu_i = 0, W_sr crosses
    zero near beta_h/beta_c = 0.449), so the same cusp rule, with its
    ``CUSP_REL_TOL``, is applied along beta: a cell is exempted when a beta
    neighbour at the same alpha and arg-mu is not engine-valid for both
    chains, or when the ratio at the half-step beta midpoint exceeds the
    cell value by more than ``CUSP_REL_TOL`` max(|R|, 1).  Exempted cells are listed in
    ``cusp_cells_W`` / ``cusp_cells_eta``.  No alpha direction is tested:
    W_sr does not depend on alpha, so the pole cannot run along it.  The walk
    runs serially after ``max_ratio_grid``, so the result is the same for any
    worker count.  ``coincident`` is True when the work and efficiency argmax
    points agree within one grid cell in both directions.
    """
    alphas = np.asarray(config.alpha_grid, dtype=float)
    brs = np.asarray(config.beta_ratio_grid, dtype=float)
    grid = max_ratio_grid(config)
    R_W_m, R_eta_m, mu_W_m, mu_eta_m = (
        np.array([[missing if p is None else getattr(p, name) for p in row] for row in grid],
                 dtype=float)
        for name, missing in (("R_W_max", -np.inf), ("R_eta_max", -np.inf),
                              ("arg_mu_ratio_W", np.nan), ("arg_mu_ratio_eta", np.nan)))

    if not np.isfinite(R_W_m).any() or not np.isfinite(R_eta_m).any():
        raise InsufficientDataError("no engine-valid (alpha, beta ratio) grid points")

    nb = brs.size
    R = np.stack((R_W_m.ravel(), R_eta_m.ravel()), axis=1)
    arg_mu = np.stack((mu_W_m.ravel(), mu_eta_m.ravel()), axis=1)

    def stable(cand, cols):
        verdicts = []
        for c, k in zip(cand, cols):
            i, j = divmod(c, nb)
            nbs = [j + d for d in (-1, 1) if 0 <= j + d < nb]
            betas = [brs[n] for n in nbs] + [0.5 * (brs[j] + brs[n]) for n in nbs]
            v = _exact_ratios(config, alphas[i], np.full(len(betas), arg_mu[c, k]), betas)[1 + k]
            bound = R[c, k] + CUSP_REL_TOL * max(abs(R[c, k]), 1.0)
            verdicts.append(np.all(v[: len(nbs)] > -np.inf) and not np.any(v[len(nbs):] > bound))
        return np.array(verdicts, dtype=bool)

    index, cusps = _stable_maxima(R, R, np.ones(R.shape, dtype=bool), None, stable)
    if np.any(index < 0):
        raise InsufficientDataError("no refinement-stable maximum on the grid")
    (iW, jW), (iE, jE) = (divmod(int(c), nb) for c in index)
    cusps_W, cusps_eta = (
        tuple((float(alphas[c // nb]), float(brs[c % nb])) for c in cs) for cs in cusps)
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
