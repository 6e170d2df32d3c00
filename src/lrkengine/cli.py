"""Command-line front end: argument parsing, subcommand dispatch, CSV/JSON
emission, gnuplot-script generation, and per-figure reproduction runs.

Each flag, with its type and default, is declared once, on the parsers of the
runs that read it.  A ``--config`` file's ``[lrk]`` entries are read as that
run's flags and placed before the command line, so a flag beats the file.
Every run writes a ``run-manifest.json`` echoing the resolved inputs and the
produced files; re-running the recorded argv reproduces byte-identical CSVs.
Exit codes: 0 success, 2 config error, 3 numerical-contract failure, 4 I/O.
"""

import argparse
import configparser
import itertools
import json
import math
import os
import re
import shutil
import sys
import time
from concurrent.futures import BrokenExecutor
from dataclasses import replace
from functools import partial

import numpy as np

from . import __version__
from .chain import (
    SHORT_RANGE,
    ChainParams,
    GaplessConfigurationError,
    InvalidParameterError,
    momentum_grid,
    spectrum_energies,
    spectrum_scan,
    winding_number,
)
from .cycles import BathPair, CycleSpec, otto_cycle, stirling_cycle
from .sweep import (
    CYCLE_KINDS,
    InsufficientDataError,
    SweepConfig,
    enhancement_regions,
    max_ratio_grid,
    optimal_condition,
    sweep_mu,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONTRACT = 3
EXIT_IO = 4

#: Representative alpha values used for figure panels spanning [1.05, 6].
ALPHA_PANEL = (1.05, 1.2, 1.5, 2.0, 3.0, 6.0)

CONTRACT_ERRORS = (InsufficientDataError, GaplessConfigurationError)


class ConfigError(ValueError):
    """Invalid configuration (file or flags); maps to exit code 2."""


def _fmt(x) -> str:
    return "%.17g" % x


def _parse_alpha(text):
    if str(text).lower() in ("inf", "infinity", "shortrange", "short-range"):
        return SHORT_RANGE
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number (> 1 for cycles and sweeps), or 'inf' or 'short-range' "
            f"for the short range, got {text!r}") from None


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


#: Rows formatted and written per block, which bounds the memory a table's text takes.
_CSV_BLOCK = 1 << 16

#: ``%`` conversion by dtype kind: integers (bool too) and text as is; any other is %.17g.
_CELL = {"b": "%d", "i": "%d", "u": "%d", "O": "%s", "U": "%s"}


def _cells(column) -> list:
    """One column's cells as Python values: floats, unless ``_CELL`` names its dtype kind."""
    if column.dtype.kind in _CELL:
        return column.tolist()
    return column.astype(float, copy=False).tolist()


def _key_text(values):
    """``values`` as %.17g text, formatted once for a key column that repeats each of them."""
    return np.array([_fmt(v) for v in np.asarray(values, dtype=float).tolist()], dtype=object)


def _write_csv(path, header, columns):
    """Comma-separated table of equal-length ``columns``: header row, LF endings.

    Each block of rows is one ``%``: the row template, repeated, over the interleaved cells.
    """
    columns = [np.asarray(c) for c in columns]
    row = ",".join(_CELL.get(c.dtype.kind, "%.17g") for c in columns) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, len(columns[0]), _CSV_BLOCK):
            block = [_cells(c[i : i + _CSV_BLOCK]) for c in columns]
            fh.write(row * len(block[0]) % tuple(itertools.chain.from_iterable(zip(*block))))


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _plot_script(path, title, xlabel, ylabel, plot_expr):
    png = os.path.splitext(os.path.basename(path))[0] + ".png"
    text = "\n".join(
        [
            "set datafile separator ','",
            "set key autotitle columnhead",
            f"set title '{title}'",
            f"set xlabel '{xlabel}'",
            f"set ylabel '{ylabel}'",
            "set terminal pngcairo size 900,600",
            f"set output '{png}'",
            f"plot {plot_expr}",
            "",
        ]
    )
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _load_config_file(path):
    """Flat INI config: all keys live in a [lrk] section, values taken as written
    (no ``%`` interpolation)."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep key case: 'L' and 'Delta' are real options
    try:
        with open(path) as fh:
            parser.read_file(fh, source=path)
        if not parser.has_section("lrk"):
            raise ConfigError(f"{path}:1: missing [lrk] section")
        return dict(parser.items("lrk"))
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc


_ON, _OFF = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def _file_argv(path, subparser):
    """The ``[lrk]`` entries of ``path`` as flags of ``subparser``, the run's own parser.

    A key is a flag of the run without its leading dashes (``mu-steps`` or
    ``mu_steps``); any other key, ``help`` and ``config`` among them, is
    unknown.  A value becomes ``--flag=value``, so that ``mu = -1e-3`` is
    not read as an option, and an on/off entry becomes the bare flag when on
    and nothing when off.  Types, choices and conflicts are argparse's.
    """
    actions = {a.dest: a for a in subparser._actions if a.dest not in ("help", "config")}
    argv = []
    for key, raw in _load_config_file(path).items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ConfigError(f"unknown config key {key!r}")
        flag = action.option_strings[-1]
        if action.nargs != 0:
            argv.append(f"{flag}={raw}")
            continue
        word = raw.strip().lower()
        if word not in _ON + _OFF:
            raise ConfigError(f"config key {key!r}: {raw!r} is not one of {list(_ON + _OFF)}")
        if word in _ON:
            argv.append(flag)
    return argv


def _base(res):
    alpha = res["alpha"]
    if alpha is None:
        raise ConfigError("alpha is required (use --alpha, 'inf' for short range)")
    return ChainParams(L=res["L"], J=res["J"], Delta=res["Delta"], mu=0.0, alpha=alpha)


def _sweep_config(res, cycle_kind, mu_ratio_grid=None, beta_c=None):
    return SweepConfig(
        cycle_kind=cycle_kind,
        base=ChainParams(L=res["L"], J=res["J"], Delta=res["Delta"], mu=0.0, alpha=2.0),
        mu_i=res["mu_i"],
        mu_ratio_grid=tuple(mu_ratio_grid if mu_ratio_grid is not None
                            else np.linspace(0.0, 1.0, res["mu_steps"])),
        beta_c=res["beta_c"] if beta_c is None else beta_c,
    )


def _spectrum_table(outdir, stem, params, mus, plots):
    """``stem``.csv, the sorted levels at each mu, and its gnuplot script when ``plots``."""
    levels = spectrum_scan(params, mus)
    _write_csv(os.path.join(outdir, f"{stem}.csv"), ["mu", "level_index", "energy"], [
        np.repeat(_key_text(mus), params.L),
        np.tile(np.arange(params.L), len(levels)),
        levels.ravel(),
    ])
    if not plots:
        return [f"{stem}.csv"]
    _plot_script(os.path.join(outdir, f"{stem}.gp"), "energy spectrum", "mu", "energy",
                 f"'{stem}.csv' using 1:3 with dots notitle")
    return [f"{stem}.csv", f"{stem}.gp"]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_spectrum(res, outdir):
    mus = np.linspace(res["mu_min"], res["mu_max"], res["mu_steps"])
    return _spectrum_table(outdir, "spectrum", _base(res), mus, res["plots"])


def _cmd_winding(res, outdir):
    params = _base(res).with_mu(res["mu"])
    result = winding_number(params, grid_density=res["grid_density"])
    path = os.path.join(outdir, "winding.json")
    _write_json(path, {"w": result.w, "residual": result.residual,
                       "grid_density": result.grid_density})
    return ["winding.json"]


def _cmd_cycle(res, outdir, kind):
    base = _base(res)
    mu_i = res["mu_i"]
    mu_f = res["mu_ratio"] * mu_i if res["mu_f"] is None else res["mu_f"]
    beta_c = res["beta_c"]
    baths = BathPair(beta_h=res["beta_ratio"] * beta_c, beta_c=beta_c)
    spec = CycleSpec(base=base, mu_i=mu_i, mu_f=mu_f, baths=baths)
    result = otto_cycle(spec) if kind == "otto" else stirling_cycle(spec)
    name = f"{kind}.json"
    _write_json(os.path.join(outdir, name), result.to_json_dict())
    return [name]


def _cmd_sweep(res, outdir):
    if res["plots"] and res["format"] == "json":
        raise ConfigError("--plots draws sweep.csv, which --format json does not write")
    kind = res["cycle"]
    base = _base(res)
    cfg = _sweep_config(res, kind)
    table = sweep_mu(cfg, base.alpha, res["beta_ratio"])
    if res["format"] == "json":
        name = "sweep.json"
        # An undefined ratio is null, as JSON has no NaN.
        _write_json(os.path.join(outdir, name), [
            {k: v if not isinstance(v, float) or math.isfinite(v) else None
             for k, v in zip(table, row)}
            for row in zip(*(c.tolist() for c in table.values()))])
    else:
        name = "sweep.csv"
        _write_csv(os.path.join(outdir, name), list(table), list(table.values()))
        if res["plots"]:
            _plot_script(os.path.join(outdir, "sweep.gp"), f"{kind} ratios", "mu_f/mu_i",
                         "ratio", f"'{name}' using 1:2 with lines, '{name}' using 1:3 with lines")
            return [name, "sweep.gp"]
    return [name]


def _cmd_regions(res, outdir):
    kind = res["cycle"]
    base = _base(res)
    cfg = _sweep_config(res, kind)
    region = enhancement_regions(cfg, base.alpha)
    name = "regions.csv"
    _region_csv(os.path.join(outdir, name), region)
    files = [name]
    if res["plots"]:
        _plot_script(os.path.join(outdir, "regions.gp"), "enhancement regions",
                     "mu_f/mu_i", "beta_h/beta_c",
                     f"'{name}' using 1:2:3 with image notitle")
        files.append("regions.gp")
    return files


def _region_csv(path, region):
    mu, br = _key_text(region.mu_ratio_grid), _key_text(region.beta_ratio_grid)
    _write_csv(path, ["mu_ratio", "beta_ratio", "enhanced"],
               [np.repeat(mu, br.size), np.tile(br, mu.size), region.mask.ravel()])


def _cmd_optimal(res, outdir):
    kind = res["cycle"]
    cfg = replace(_sweep_config(res, kind), workers=res["workers"])
    oc = optimal_condition(cfg)
    name = "optimal.json"
    _write_json(os.path.join(outdir, name), {
        "cycle": kind,
        "alpha_star_W": oc.alpha_star_W,
        "beta_ratio_star_W": oc.beta_ratio_star_W,
        "alpha_star_eta": oc.alpha_star_eta,
        "beta_ratio_star_eta": oc.beta_ratio_star_eta,
        "R_W_max": oc.R_W_max,
        "R_eta_max": oc.R_eta_max,
        "coincident": bool(oc.coincident),
    })
    return [name]


# ---------------------------------------------------------------------------
# figure reproduction


def _alphas(res):
    if res["dense"]:
        return tuple(np.geomspace(1.05, 6.0, 100))
    return ALPHA_PANEL


def _fig1(res, outdir):
    base = ChainParams(L=200, J=res["J"], Delta=res["Delta"])
    files = []
    mus = np.linspace(-4.0, 4.0, 161)
    for tag, alpha in (("a", 0.4), ("b", 1.7), ("c", 4.0)):
        files += _spectrum_table(outdir, f"fig1{tag}", replace(base, alpha=alpha), mus, True)
    # panel (d): winding map over the (mu, alpha) plane
    alphas = np.geomspace(0.2, 10.0, 17)
    mus = np.linspace(-2.4, 2.4, 33)
    w = np.full((alphas.size, mus.size), math.nan)
    residual = np.full_like(w, math.nan)
    for i, j in np.ndindex(w.shape):
        params = replace(base, mu=float(mus[j]), alpha=float(alphas[i]))
        try:
            wr = winding_number(params, grid_density=10_001)
        except GaplessConfigurationError:
            continue
        w[i, j], residual[i, j] = wr.w, wr.residual
    _write_csv(os.path.join(outdir, "fig1d.csv"), ["mu", "alpha", "w", "residual"], [
        np.tile(_key_text(mus), alphas.size), np.repeat(_key_text(alphas), mus.size),
        w.ravel(), residual.ravel(),
    ])
    _plot_script(os.path.join(outdir, "fig1d.gp"), "winding number",
                 "mu", "alpha", "'fig1d.csv' using 1:2:3 with image notitle")
    return files + ["fig1d.csv", "fig1d.gp"]


def _fig3(res, outdir):
    files = []
    mu_i = 2.0
    ratios = np.linspace(0.0, 1.0, 81)
    k = momentum_grid(2000)[::5]
    keys = [np.repeat(_key_text(ratios), k.size), np.tile(_key_text(k / math.pi), ratios.size)]
    for tag, alpha in (("a", 1.05), ("b", 2.0), ("c", 10.0), ("d", SHORT_RANGE)):
        base = ChainParams(L=2000, J=res["J"], Delta=res["Delta"], alpha=alpha)
        eps = spectrum_energies(base, ratios * mu_i)[:, ::5]
        name = f"fig3{tag}.csv"
        _write_csv(os.path.join(outdir, name), ["mu_ratio", "k_over_pi", "energy"],
                   keys + [eps.ravel()])
        _plot_script(os.path.join(outdir, f"fig3{tag}.gp"), "quasiparticle energy",
                     "mu_f/mu_i", "k/pi",
                     f"'{name}' using 1:2:3 with image notitle")
        files.extend([name, f"fig3{tag}.gp"])
    return files


def _alpha_sweep(res, kind, beta_c, alphas, names=None, mu_ratio_grid=None):
    """One ``sweep_mu`` over all ``alphas`` as a CSV's header and columns: an
    alpha column, then the columns ``names``, or all of them."""
    cfg = _sweep_config(res, kind, mu_ratio_grid=mu_ratio_grid, beta_c=beta_c)
    table = sweep_mu(cfg, alphas, res["beta_ratio"])
    names = list(table) if names is None else list(names)
    alpha_col = np.repeat(_key_text(alphas), len(cfg.mu_ratio_grid))
    return ["alpha", *names], [alpha_col, *(table[n] for n in names)]


def _ratio_fig(res, outdir, kind, prefix):
    """Four ratio-curve panels: R_W (a, b) and R_eta (c, d) at beta_c = 5 and 0.05.

    Panels a and c, and b and d, plot one table.
    """
    files = []
    for tags, beta_c in (("ac", 5.0), ("bd", 0.05)):
        header, columns = _alpha_sweep(res, kind, beta_c, _alphas(res))
        for tag, ylab, ycol in zip(tags, ("R_W", "R_eta"), (3, 4)):
            name = f"{prefix}{tag}.csv"
            _write_csv(os.path.join(outdir, name), header, columns)
            _plot_script(os.path.join(outdir, f"{prefix}{tag}.gp"),
                         f"{kind} {ylab} (beta_c={beta_c})", "mu_f/mu_i", ylab,
                         f"'{name}' using 2:{ycol} with lines notitle")
            files.extend([name, f"{prefix}{tag}.gp"])
    return files


def _diag_fig(res, outdir, kind, prefix):
    """dQ_rel and xi versus alpha for a set of mu_f/mu_i values, both beta_c."""
    files = []
    mu_ratios = (0.1, 0.25, 0.4, 0.6, 0.75, 0.9)
    alphas = np.geomspace(1.05, 6.0, 100 if res["dense"] else 40)
    for tag, beta_c in (("a", 5.0), ("b", 0.05)):
        name = f"{prefix}{tag}.csv"
        _write_csv(os.path.join(outdir, name), *_alpha_sweep(
            res, kind, beta_c, alphas, ("mu_ratio", "dQ_rel", "xi"), mu_ratio_grid=mu_ratios))
        _plot_script(os.path.join(outdir, f"{prefix}{tag}.gp"),
                     f"{kind} heat/efficiency diagnostics (beta_c={beta_c})",
                     "alpha", "dQ_rel", f"'{name}' using 1:3 with lines notitle")
        files.extend([name, f"{prefix}{tag}.gp"])
    return files


def _maxratio_fig(res, outdir, kind, prefix):
    """Maximum ratios versus alpha (left) and versus beta_h/beta_c (right)."""
    files = []
    cfg = _sweep_config(res, kind)
    for suffix, xlabel, xcol, alphas, betas, alpha_major in (
        ("alpha", "alpha", 1, _alphas(res), (0.2, 0.4, 0.6, 0.8), False),
        ("beta", "beta_h/beta_c", 2, ALPHA_PANEL, tuple(np.linspace(0.02, 0.98, 49)), True),
    ):
        rows = max_ratio_grid(replace(cfg, alpha_grid=alphas, beta_ratio_grid=betas))
        cells = [(i, j) for i in range(len(alphas)) for j in range(len(betas))]
        if not alpha_major:
            cells.sort(key=lambda c: (c[1], c[0]))
        kept = [(alphas[i], betas[j], rows[i][j]) for i, j in cells if rows[i][j] is not None]
        name = f"{prefix}-{suffix}.csv"
        _write_csv(os.path.join(outdir, name),
                   ["alpha", "beta_ratio", "R_W_max", "R_eta_max", "arg_W", "arg_eta"],
                   [[a for a, _, _ in kept], [b for _, b, _ in kept]]
                   + [[getattr(p, n) for _, _, p in kept]
                      for n in ("R_W_max", "R_eta_max", "arg_mu_ratio_W", "arg_mu_ratio_eta")])
        _plot_script(os.path.join(outdir, f"{prefix}-{suffix}.gp"),
                     f"{kind} maximum ratios vs {xlabel}", xlabel, "R_W_max",
                     f"'{name}' using {xcol}:3 with linespoints notitle")
        files.extend([name, f"{prefix}-{suffix}.gp"])
    return files


def _region_fig(res, outdir, kind, prefix):
    files = []
    for beta_c in (5.0, 0.05):
        cfg = _sweep_config(res, kind, beta_c=beta_c)
        for alpha in (1.05, 2.0, 6.0):
            region = enhancement_regions(cfg, alpha)
            name = f"{prefix}-bc{_fmt(beta_c)}-a{_fmt(alpha)}.csv"
            _region_csv(os.path.join(outdir, name), region)
            gp = name.replace(".csv", ".gp")
            _plot_script(os.path.join(outdir, gp),
                         f"{kind} enhancement regions (alpha={alpha}, beta_c={beta_c})",
                         "mu_f/mu_i", "beta_h/beta_c",
                         f"'{name}' using 1:2:3 with image notitle")
            files.extend([name, gp])
    return files


_RATIO_READS = ("L", "mu_i", "mu_steps", "beta_ratio", "dense")
_DIAG_READS = ("L", "mu_i", "beta_ratio", "dense")
_MAXRATIO_READS = ("L", "mu_i", "mu_steps", "beta_c", "dense")

#: Each computable figure's writer and the flags it reads beyond --config,
#: -o, --J and --Delta, by config key; figures 1 and 3 fix their chains and grids.
_FIGURES = {
    1: (_fig1, ()),
    3: (_fig3, ()),
    4: (partial(_ratio_fig, kind="otto", prefix="fig4"), _RATIO_READS),
    5: (partial(_diag_fig, kind="otto", prefix="fig5"), _DIAG_READS),
    6: (partial(_maxratio_fig, kind="otto", prefix="fig6"), _MAXRATIO_READS),
    7: (partial(_region_fig, kind="otto", prefix="fig7"), ("L", "mu_i", "mu_steps")),
    8: (partial(_ratio_fig, kind="stirling", prefix="fig8"), _RATIO_READS),
    9: (partial(_diag_fig, kind="stirling", prefix="fig9"), _DIAG_READS),
    10: (partial(_maxratio_fig, kind="stirling", prefix="fig10"), _MAXRATIO_READS),
}


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that takes an exponent-form negative number, such as
    ``--mu-min -5e-05``, for a value, as Python 3.13's argparse does; before 3.13
    it is taken for an option.  Its sub-parsers are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _flag(*names, **kwargs):
    """A parent parser declaring one flag, shared by the runs that read it."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument(*names, **kwargs)
    return parser


def _build_parser():
    """The ``lrk`` parser, and the parser of each run by the words that select it:
    a subcommand, or ``reproduce-figure n``."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file with a [lrk] section")
    common.add_argument("-o", "--output-dir", dest="output_dir", default=".")
    common.add_argument("--J", type=float, default=1.0)
    common.add_argument("--Delta", type=float, default=1.0)
    flags = {
        "L": _flag("--L", type=int, default=2000),
        "alpha": _flag("--alpha", type=_parse_alpha),
        "cycle": _flag("--cycle", choices=CYCLE_KINDS, default="otto"),
        "mu_i": _flag("--mu-i", type=float, default=2.0),
        "mu_steps": _flag("--mu-steps", type=_positive_int, default=201),
        "beta_c": _flag("--beta-c", type=float, default=5.0),
        "beta_ratio": _flag("--beta-ratio", type=float, default=0.2),
        "plots": _flag("--plots", action="store_true", help="also emit gnuplot scripts"),
        "dense": _flag("--dense", action="store_true",
                       help="sample alpha with 100 log-spaced points instead of 6"),
    }
    # the sweep grid: mu_i, the mu_f/mu_i steps and beta_c
    grid = ("mu_i", "mu_steps", "beta_c")

    def add(group, name, *reads):
        return group.add_parser(name, parents=[common, *(flags[k] for k in reads)])

    parser = _Parser(prog="lrk", description=__doc__)
    parser.add_argument("--version", action="version", version=f"lrk {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    runs = {}

    p = runs["spectrum"] = add(sub, "spectrum", "L", "alpha", "mu_steps", "plots")
    p.add_argument("--mu-min", type=float, default=-4.0)
    p.add_argument("--mu-max", type=float, default=4.0)

    p = runs["winding"] = add(sub, "winding", "L", "alpha")
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--grid-density", type=int, default=100_000)

    for kind in CYCLE_KINDS:
        runs[kind] = add(sub, kind, "L", "alpha", "mu_i", "beta_c", "beta_ratio")
        mu_f = runs[kind].add_mutually_exclusive_group()
        mu_f.add_argument("--mu-f", type=float)
        mu_f.add_argument("--mu-ratio", type=float, default=0.5)

    p = runs["sweep"] = add(sub, "sweep", "L", "cycle", "alpha", *grid, "beta_ratio", "plots")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    runs["regions"] = add(sub, "regions", "L", "cycle", "alpha", *grid, "plots")
    p = runs["optimal"] = add(sub, "optimal", "L", "cycle", *grid)
    p.add_argument("--workers", type=int, default=1,
                   help="forked processes over strided parts of the alpha rows, for "
                        "either cycle, at most one per usable CPU; they pay only with "
                        "BLAS on one thread (OPENBLAS_NUM_THREADS=1)")

    figure = sub.add_parser(
        "reproduce-figure", description="Regenerate the data behind figure n (1 or 3-10); "
        "its flags follow n, and 'lrk reproduce-figure n --help' lists them.",
    ).add_subparsers(dest="figure", metavar="n", required=True)
    for n, (_, reads) in _FIGURES.items():
        p = runs[f"reproduce-figure {n}"] = add(figure, str(n), *reads)
        p.set_defaults(figure=n)
    return parser, runs


_DISPATCH = {
    "spectrum": _cmd_spectrum,
    "winding": _cmd_winding,
    "otto": lambda res, outdir: _cmd_cycle(res, outdir, "otto"),
    "stirling": lambda res, outdir: _cmd_cycle(res, outdir, "stirling"),
    "sweep": _cmd_sweep,
    "regions": _cmd_regions,
    "optimal": _cmd_optimal,
    **{f"reproduce-figure {n}": write for n, (write, _) in _FIGURES.items()},
}


def _new_top(path):
    """The outermost directory that ``os.makedirs(path)`` would create, or None."""
    top, path = None, os.path.abspath(path)
    while not os.path.lexists(path):
        top, path = path, os.path.dirname(path)
    return top


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, runs = _build_parser()
    t0 = time.monotonic()
    made = None  # the directory this run creates, removed again if the run is refused
    try:
        args = parser.parse_args(argv)
        run = f"{args.subcommand} {args.figure}" if "figure" in args else args.subcommand
        # The file's flags go between the words that select the run and the
        # rest of argv: the last flag given wins.
        if args.config:
            n = len(run.split())
            args = parser.parse_args(argv[:n] + _file_argv(args.config, runs[run]) + argv[n:])
        res = vars(args)
        outdir = res["output_dir"]
        made = _new_top(outdir)
        os.makedirs(outdir, exist_ok=True)
        files = _DISPATCH[run](res, outdir)
        manifest = {
            "tool": "lrk",
            "version": __version__,
            "subcommand": args.subcommand,
            "argv": argv,
            "inputs": {k: (str(v) if isinstance(v, float) and not math.isfinite(v) else v)
                       for k, v in sorted(res.items()) if k != "config"},
            "outputs": files,
            "wall_time_s": time.monotonic() - t0,
        }
        _write_json(os.path.join(outdir, "run-manifest.json"), manifest)
        made = None
        return EXIT_OK
    except SystemExit as exc:  # argparse: a usage error (2), or --help or --version (0)
        return exc.code
    except (ConfigError, InvalidParameterError) as exc:
        print(f"lrk: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"lrk: config error: the request is too large for this machine: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    except BrokenExecutor as exc:  # a process of the worker pool died
        print(f"lrk: config error: a worker process died, as when this machine runs out "
              f"of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CONTRACT_ERRORS as exc:
        print(f"lrk: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except OSError as exc:
        print(f"lrk: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
