"""Grid sweeps over cycle parameters: ratio curves, maximum-ratio surfaces,
enhancement-region masks, and optimal-condition search.

All sweeps are deterministic.  Only ``max_ratio_grid`` (and so
``optimal_condition``) runs in parallel, on Stirling grids: its beta
columns split into contiguous parts, each evaluated in a forked process.
Every column is decided on its own, so the result is identical for any
worker count.  Each comparison is a long-range cycle against its
short-range twin, which does not depend on alpha.  Ratios follow
``cycles.ratio_arrays`` and a cell counts toward a maximum or a region only
when both chains are engine-valid.

Every entry builds its short-range side once per call, and no state
outlives a call.  ``sweep_mu`` takes one alpha or an array of them and
evaluates one table per chain, all alphas against one short-range table.
The grid sweeps, ``max_ratio_grid``, ``optimal_condition`` and
``enhancement_regions``, build each chain's spectra on the mu grid once per
alpha and decide every cell in one step, ``_Grid``:

* Otto screens the (mu, beta) grid on ``cycles.otto_surface`` (one GEMM per
  chain), whose values lie within a stated bound of the per-mode sums.  A
  cell's engine validity, its R > 1 tests and its argmax candidacy are read
  off the surface where they lie beyond the bound; every other cell is
  recomputed from per-mode sums, so each decision equals the tables'.
* Stirling evaluates each chain on the whole grid with
  ``cycles.stirling_surface``, whose cells equal the per-mode sums bitwise,
  and feeds them through the same step with a bound of 0.

Cells are recomputed from one-row spectra gathered into batches of at most
half a table's rows, each row equal bitwise to the table's: the mode sums
form their beta_c terms themselves, elementwise on the rows they are given.
The cusp walks (``_cusp_rounds``) advance in rounds: each round evaluates the
half-step midpoints of every unresolved column's current candidate together,
each distinct point once.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .chain import SHORT_RANGE, ChainParams, InvalidParameterError, spectrum_energies
from .cycles import (
    otto_engine_valid,
    otto_mode_sums,
    otto_surface,
    ratio_arrays,
    stirling_engine_valid,
    stirling_mode_sums,
    stirling_surface,
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
    if not np.all(np.asarray(alpha, dtype=float) > 1.0):
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
    also takes a 1-D array of beta ratios, for a column per beta ratio.  Its
    scalar and 1-D cases come from ``stirling_surface``, bitwise the per-mode
    sums.
    """
    eps_i, eps_f = spectra
    beta_c = config.beta_c
    beta_h = beta_ratio * beta_c
    if config.cycle_kind == "otto":
        Q_h, Q_c, W = otto_mode_sums(eps_i, eps_f, beta_h, beta_c)
        valid = otto_engine_valid(W, Q_h, Q_c)
    else:
        if np.ndim(beta_h) == 2:
            _, _, _, _, W, Q_h = stirling_mode_sums(eps_i, eps_f, beta_h, beta_c)
        else:
            shape = eps_f.shape[:-1] + np.shape(beta_h)
            surface = stirling_surface(eps_i, eps_f, np.atleast_1d(beta_h), beta_c)
            W, Q_h = (c.reshape(shape) for c in surface)
        valid = stirling_engine_valid(W, Q_h)
    eta = np.where(valid, np.divide(W, Q_h, out=np.full_like(W, np.nan), where=Q_h != 0), np.nan)
    return CycleTable(W=W, Q_h=Q_h, eta=eta, engine_valid=valid)


def _engine_ratios(lr: CycleTable, sr: CycleTable):
    """(both engine-valid, R_W, R_eta), the ratios -inf where either chain is no engine."""
    both = lr.engine_valid & sr.engine_valid
    R_W, R_eta, _, _ = ratio_arrays(lr.W, lr.Q_h, lr.eta, sr.W, sr.Q_h, sr.eta)
    return both, np.where(both, R_W, -np.inf), np.where(both, R_eta, -np.inf)


def sweep_mu(config: SweepConfig, alpha, beta_ratio: float) -> list[SweepRow]:
    """Ratio diagnostics along the mu_f/mu_i grid at fixed beta_h/beta_c.

    ``alpha`` is a scalar or a 1-D array; the rows run over the mu grid for
    each alpha in turn, every alpha against one short-range table.
    """
    _check_alpha(alpha, ndim=1)
    _check_beta_ratio(beta_ratio)
    sr = _table(config, _spectra(config, SHORT_RANGE, config.mu_ratio_grid), beta_ratio)
    rows = []
    for a in np.atleast_1d(alpha):
        lr = _table(config, _spectra(config, a, config.mu_ratio_grid), beta_ratio)
        columns = [c.tolist() for c in ratio_arrays(lr.W, lr.Q_h, lr.eta, sr.W, sr.Q_h, sr.eta)]
        rows.extend(
            SweepRow(
                mu_ratio=float(r), R_W=R_W, R_eta=R_eta, dQ_rel=dQ_rel, xi=xi,
                engine_lr=e_lr, engine_sr=e_sr,
            )
            for r, R_W, R_eta, dQ_rel, xi, e_lr, e_sr in zip(
                config.mu_ratio_grid, *columns, lr.engine_valid.tolist(), sr.engine_valid.tolist()
            )
        )
    return rows


def _batched(config: SweepConfig, fn, mu_ratios, beta_ratios):
    """``fn(mu_ratios, beta_ratios)`` in batches of at most half a table's rows
    (one empty batch for no pairs), joined.  A batch builds its own spectra
    and mode-sum terms, so half a table keeps it within a table's memory."""
    mu = np.asarray(mu_ratios, dtype=float)
    br = np.asarray(beta_ratios, dtype=float)
    step = max(1, len(config.mu_ratio_grid) // 2)
    parts = [fn(mu[s : s + step], br[s : s + step]) for s in range(0, max(mu.size, 1), step)]
    return tuple(np.concatenate(p) for p in zip(*parts))


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
    equal bitwise to the same cells of the tables."""
    return _batched(config, lambda mu, br: _engine_ratios(
        _point_table(config, alpha, mu, br), _point_table(config, SHORT_RANGE, mu, br)),
        mu_ratios, beta_ratios)


@dataclass(eq=False)
class _Surface:
    """One Otto chain on the (mu_f/mu_i, beta_h/beta_c) grid.

    W and Q_h lie within ``r`` of their per-mode sums; ``sure`` marks the
    cells that the surface alone shows to be engines, and ``valid`` is the
    exact engine validity wherever it was asked for.
    """

    W: np.ndarray
    Q_h: np.ndarray
    r: np.ndarray
    sure: np.ndarray
    valid: np.ndarray


def _otto_surface(config: SweepConfig, alpha, spectra, brs, where=True) -> _Surface:
    """The ``otto_surface`` of ``_spectra`` output at the beta ratios ``brs``.

    Engine validity is read off the surface where each of its three tests
    lies beyond the bound; the other cells inside ``where`` are evaluated
    by per-mode sums.  The bound is doubled, so the margins also cover the
    rounding of the sums that test them.
    """
    eps_i, eps_f = spectra
    Q_h, Q_c, W, tol = otto_surface(eps_i, eps_f, brs * config.beta_c, config.beta_c)
    r = 2.0 * tol
    sure = (W > r) & (Q_h + Q_c > 2.0 * r) & (-Q_c > r)
    unsure = ~sure & (W >= -r) & (Q_h + Q_c >= -2.0 * r) & (-Q_c >= -r) & where
    valid = sure.copy()
    i, j = np.nonzero(unsure)
    mu = np.asarray(config.mu_ratio_grid, dtype=float)
    (valid[i, j],) = _batched(
        config, lambda m, b: (_point_table(config, alpha, m, b).engine_valid,), mu[i], brs[j])
    return _Surface(W=W, Q_h=Q_h, r=r, sure=sure, valid=valid)


class _Grid:
    """The decisions of one alpha against the short range on the (mu, beta) grid.

    ``both`` is the exact engine validity of both chains.  For each ratio
    (``"W"``, ``"eta"``), ``lo`` and ``hi`` bound the exact value of
    ``_engine_ratios`` and equal it where ``exact``; a ratio that is not
    finite reads -inf.  ``refine`` makes cells exact.
    """

    def __init__(self, config, alpha, brs, both, lo, hi, exact):
        self.config, self.alpha, self.brs = config, alpha, brs
        self.both, self.lo, self.hi, self.exact = both, lo, hi, exact

    @classmethod
    def exact_tables(cls, config, alpha, brs, lr: CycleTable, sr: CycleTable):
        both, R_W, R_eta = _engine_ratios(lr, sr)
        R = {"W": _finite(R_W), "eta": _finite(R_eta)}
        return cls(config, alpha, brs, both, R, R, np.ones(both.shape, dtype=bool))

    @classmethod
    def screened(cls, config, alpha, brs, lr: _Surface, sr: _Surface):
        """Bands from the W and Q_h bounds where both chains are sure engines and
        W_sr stays clear of the zero test of ``ratio_arrays``; every other
        engine cell is refined at once."""
        both = lr.valid & sr.valid
        r, s = lr.r, sr.r
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            eta_lr = ((lr.W - r) / (lr.Q_h + r), (lr.W + r) / (lr.Q_h - r))
            eta_sr = ((sr.W - s) / (sr.Q_h + s), (sr.W + s) / (sr.Q_h - s))
            bands = {
                "W": ((lr.W - r) / (sr.W + s), (lr.W + r) / (sr.W - s)),
                "eta": (eta_lr[0] / eta_sr[1], eta_lr[1] / eta_sr[0]),
            }
        defined = sr.W - s > 2e-14 * np.maximum(np.maximum(sr.W + s, sr.Q_h + s), 1.0)
        banded = both & lr.sure & sr.sure & defined
        # The exact ratios take up to three roundings of their own.
        u8 = 4.0 * np.finfo(float).eps
        lo = {k: np.where(banded, b[0] * (1.0 - u8), -np.inf) for k, b in bands.items()}
        hi = {k: np.where(banded, b[1] * (1.0 + u8), -np.inf) for k, b in bands.items()}
        grid = cls(config, alpha, brs, both, lo, hi, ~banded)
        grid.refine(*np.nonzero(both & ~banded))
        return grid

    def refine(self, i, j):
        """Replace the bands of cells (i[k], j[k]) by their exact ratios."""
        mu = np.asarray(self.config.mu_ratio_grid, dtype=float)
        _, R_W, R_eta = _exact_ratios(self.config, self.alpha, mu[i], self.brs[j])
        for k, R in (("W", R_W), ("eta", R_eta)):
            self.lo[k][i, j] = self.hi[k][i, j] = _finite(R)
        self.exact[i, j] = True

    def region_mask(self):
        """Cells with R_W > 1 and R_eta > 1, refining those whose bands straddle 1."""
        yes = (self.lo["W"] > 1.0) & (self.lo["eta"] > 1.0)
        no = (self.hi["W"] <= 1.0) | (self.hi["eta"] <= 1.0)
        self.refine(*np.nonzero(~yes & ~no))
        return (self.lo["W"] > 1.0) & (self.lo["eta"] > 1.0)


def _finite(R):
    return np.where(np.isfinite(R), R, -np.inf)


def _reference(config: SweepConfig, brs):
    """The short-range side of ``_grid`` at the beta ratios ``brs``: the Otto
    surface or the Stirling table."""
    spectra = _spectra(config, SHORT_RANGE, config.mu_ratio_grid)
    if config.cycle_kind == "otto":
        return _otto_surface(config, SHORT_RANGE, spectra, brs)
    return _table(config, spectra, brs)


def _grid(config: SweepConfig, alpha, brs, ref) -> _Grid:
    """The decided ``_Grid`` of ``alpha`` against the ``_reference`` ``ref``.

    Otto cells are screened on the surfaces; the Stirling table is exact.
    """
    spectra = _spectra(config, alpha, config.mu_ratio_grid)
    if config.cycle_kind == "otto":
        lr = _otto_surface(config, alpha, spectra, brs, where=ref.valid)
        return _Grid.screened(config, alpha, brs, lr, ref)
    return _Grid.exact_tables(config, alpha, brs, _table(config, spectra, brs), ref)


class _Walk:
    """One cusp walk over an array of cells, evaluated lazily.

    Ratio surfaces diverge like 1/W_sr where the short-range work crosses
    zero at the edge of the engine-valid region; the shoulder cells of such a
    divergence are not maxima of anything physical.  Cells are taken in order
    of descending R, ties to the smallest index, and each candidate is tested
    by ``_cusp_rounds``.  ``lo`` and ``hi`` bound R (-inf where it is not
    finite) and equal it where ``exact``; ``needed`` lists the inexact cells
    that could still be the next candidate, and once they are exact ``take``
    picks it, every other inexact cell lying strictly below it.
    """

    def __init__(self, which, lo, hi, exact, key=None):
        self.which, self.lo, self.hi, self.exact, self.key = which, lo, hi, exact, key
        self.alive = hi > -np.inf
        self.cand = None
        self.cusps = []
        self.index = None
        self.failed = False

    def needed(self):
        if not self.alive.any():
            return np.zeros(0, dtype=int)
        top = self.lo[self.alive].max()
        return np.flatnonzero(self.alive & ~self.exact & (self.hi >= top))

    def take(self):
        live = np.flatnonzero(self.alive & self.exact)
        if live.size == 0:
            self.failed = True
        else:
            self.cand = int(live[np.argmax(self.lo[live])])


def _cusp_rounds(config: SweepConfig, walks, refine, probes, rel_tol=0.05):
    """Run ``walks`` to their stable maxima in rounds of one batched evaluation.

    Each round takes the next candidate of every unfinished walk (after
    ``refine`` has made the cells it needs exact) and its ``probes``: a list
    of ((alpha, mu_ratio, beta_ratio), is_midpoint), or None when a grid
    neighbour is known not to be an engine cell.  All probe points of a
    round are evaluated exactly by one ``_evaluate``.  A candidate is exempted
    as a cusp cell when a neighbour probe is not finite, or when a midpoint
    exceeds R + ``rel_tol`` max(|R|, 1): ``rel_tol`` is the largest rise a half
    step may show before the cell counts as a shoulder.  A walk that runs
    out of finite cells fails.
    """
    active = list(walks)
    while active:
        needs = [(w, w.needed()) for w in active if w.cand is None]
        if any(idx.size for _, idx in needs):
            refine(needs)
        for w in active:
            if w.cand is None:
                w.take()
        active = [w for w in active if not w.failed]
        plans = [(w, probes(w)) for w in active]
        values = _evaluate(config, [p for _, ps in plans for p, _ in ps or ()])
        k = 0
        for w, ps in plans:
            R = w.lo[w.cand]
            bound = R + rel_tol * max(abs(R), 1.0)
            got = values[w.which][k : k + len(ps or ())]
            k += len(got)
            if ps is not None and not any(
                v > bound if is_mid else not v > -math.inf for v, (_, is_mid) in zip(got, ps)
            ):
                w.index = w.cand
            else:
                w.cusps.append(w.cand)
                w.alive[w.cand] = False
                w.cand = None
        active = [w for w in active if w.index is None]


def _evaluate(config: SweepConfig, points):
    """Exact {"W": R_W, "eta": R_eta} at points (alpha, mu_ratio, beta_ratio),
    each distinct point evaluated once, in one batched evaluation per alpha."""
    index = {}
    back = [index.setdefault(p, len(index)) for p in points]
    distinct = list(index)
    out = {"W": np.empty(len(distinct)), "eta": np.empty(len(distinct))}
    groups = {}
    for k, (alpha, _, _) in enumerate(distinct):
        groups.setdefault(alpha, []).append(k)
    for alpha, ks in groups.items():
        _, R_W, R_eta = _exact_ratios(
            config, alpha, [distinct[k][1] for k in ks], [distinct[k][2] for k in ks])
        out["W"][ks], out["eta"][ks] = R_W, R_eta
    return {k: v[back] for k, v in out.items()}


def _row(config: SweepConfig, alpha, brs, ref) -> list:
    """``max_ratios`` at each of the beta ratios ``brs`` for one alpha: a
    ``MaxRatioPoint``, or the ``InsufficientDataError`` it would raise.

    The cusp walks along mu of all columns and both ratios advance together
    in ``_cusp_rounds``.
    """
    grid = _grid(config, alpha, brs, ref)
    xs = np.asarray(config.mu_ratio_grid, dtype=float)
    n_valid = np.sum(grid.both, axis=0)
    row, pairs = [None] * brs.size, []
    for j in range(brs.size):
        if n_valid[j] < 3:
            row[j] = InsufficientDataError(
                f"only {n_valid[j]} engine-valid grid points at alpha={alpha}, "
                f"beta_h/beta_c={brs[j]}; need at least 3"
            )
        else:
            pairs.append(tuple(
                _Walk(k, grid.lo[k][:, j], grid.hi[k][:, j], grid.exact[:, j], key=j)
                for k in ("W", "eta")))

    def refine(needs):
        cells = np.unique(np.concatenate([idx * brs.size + w.key for w, idx in needs]))
        grid.refine(*np.divmod(cells, brs.size))

    def probes(w):
        i, j = w.cand, w.key
        nbs = [n for n in (i - 1, i + 1) if 0 <= n < xs.size]
        if not grid.both[nbs, j].all():
            return None
        return [((alpha, 0.5 * (xs[i] + xs[n]), brs[j]), True) for n in nbs]

    _cusp_rounds(config, [w for p in pairs for w in p], refine, probes)
    for w_W, w_eta in pairs:
        j = w_W.key
        if w_W.failed or w_eta.failed:
            row[j] = InsufficientDataError("no refinement-stable maximum on the grid")
            continue
        row[j] = MaxRatioPoint(
            R_W_max=float(w_W.lo[w_W.index]),
            R_eta_max=float(w_eta.lo[w_eta.index]),
            arg_mu_ratio_W=float(xs[w_W.index]),
            arg_mu_ratio_eta=float(xs[w_eta.index]),
            excluded=int(xs.size - n_valid[j]),
            cusp_mu_ratios_W=tuple(float(xs[i]) for i in w_W.cusps),
            cusp_mu_ratios_eta=tuple(float(xs[i]) for i in w_eta.cusps),
        )
    return row


def max_ratios(config: SweepConfig, alpha: float, beta_ratio: float) -> MaxRatioPoint:
    """Grid maxima of R_W and R_eta over mu_f/mu_i; non-engine points excluded.

    A cell counts only when both chains are engine-valid.  Cells flagged
    unstable under half-step refinement along mu (divergence shoulders at the
    engine-validity boundary, see ``_cusp_rounds`` with its default
    ``rel_tol`` of 5%) are exempted from the maxima and listed.  Ties break
    toward the smallest grid index.
    """
    _check_alpha(alpha)
    _check_beta_ratio(beta_ratio)
    brs = np.array([beta_ratio], dtype=float)
    (point,) = _row(config, alpha, brs, _reference(config, brs))
    if isinstance(point, InsufficientDataError):
        raise point
    return point


def max_ratio_grid(config: SweepConfig) -> list:
    """``max_ratios`` at every cell of ``config.alpha_grid`` x ``config.beta_ratio_grid``:
    one list per alpha, with None where ``max_ratios`` would raise
    ``InsufficientDataError``.

    The short-range side is built once for all alphas, and each alpha row
    builds its long-range spectra once for all beta ratios.  With
    ``config.workers`` > 1 a Stirling grid's beta ratios split into at most
    that many contiguous parts, each run serially in a forked process that
    builds its own short-range side on its columns; the parts join
    column-wise.  A forked process starts with the parent's modules loaded,
    so it is sent only its config.

    Otto runs serially at any worker count: its surface is a GEMM that
    already runs on BLAS's threads, and forked workers each start their own,
    which oversubscribes the cores.  The grid also runs serially where the
    "fork" start method is missing (Windows) or the caller is a daemonic
    process, which may not have children.  Forking a process that runs
    threads of its own, Python's or BLAS's, can deadlock, and Python 3.12+
    warns of it: call with ``workers`` = 1 from such a process.
    """
    brs = np.asarray(config.beta_ratio_grid, dtype=float)
    n = min(config.workers, brs.size) if config.cycle_kind == "stirling" else 1
    if n > 1:
        # Imported here: at module level they raise the peak RSS of every
        # run by 0.8 MB (benchmark grid-otto and point-scan, 8 of 8 pairs).
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if ("fork" in multiprocessing.get_all_start_methods()
                and not multiprocessing.current_process().daemon):
            parts = [replace(config, beta_ratio_grid=tuple(p.tolist()), workers=1)
                     for p in np.array_split(brs, n)]
            with ProcessPoolExecutor(n, mp_context=multiprocessing.get_context("fork")) as pool:
                done = list(pool.map(max_ratio_grid, parts))
            return [[p for row in rows for p in row] for rows in zip(*done)]
    ref = _reference(config, brs)
    rows = [_row(config, a, brs, ref) for a in config.alpha_grid]
    return [[None if isinstance(p, InsufficientDataError) else p for p in row] for row in rows]


def enhancement_regions(config: SweepConfig, alpha: float) -> RegionMap:
    """Mask of (mu_f/mu_i, beta_h/beta_c) cells with R_W > 1 and R_eta > 1.

    Otto decides the mask on the surfaces and refines the cells whose
    bands straddle 1; Stirling evaluates its exact surface.
    """
    _check_alpha(alpha)
    brs = np.asarray(config.beta_ratio_grid, dtype=float)
    grid = _grid(config, alpha, brs, _reference(config, brs))
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
    default ``rel_tol`` of 5%, is applied along beta: a cell is exempted when
    a beta neighbour at the same alpha and arg-mu is not engine-valid for
    both chains, or when the ratio at the half-step beta midpoint exceeds the
    cell value by more than ``rel_tol``.  Exempted cells are listed in
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
    arg_mu = {"W": mu_W_m.ravel(), "eta": mu_eta_m.ravel()}

    def probes(w):
        i, j = divmod(w.cand, nb)
        mu = arg_mu[w.which][w.cand]
        nbs = [j + d for d in (-1, 1) if 0 <= j + d < nb]
        return ([((alphas[i], mu, brs[n]), False) for n in nbs]
                + [((alphas[i], mu, 0.5 * (brs[j] + brs[n])), True) for n in nbs])

    walks = [_Walk(k, R.ravel(), R.ravel(), np.ones(R.size, dtype=bool))
             for k, R in (("W", R_W_m), ("eta", R_eta_m))]
    _cusp_rounds(config, walks, None, probes)
    if any(w.failed for w in walks):
        raise InsufficientDataError("no refinement-stable maximum on the grid")
    (iW, jW), (iE, jE) = (divmod(w.index, nb) for w in walks)
    cusps_W, cusps_eta = (
        tuple((float(alphas[c // nb]), float(brs[c % nb])) for c in w.cusps) for w in walks)
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
