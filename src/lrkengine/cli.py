"""Command-line front end: config parsing, subcommand dispatch, CSV/JSON
emission, gnuplot-script generation, and per-figure reproduction runs.

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
    return float(text)


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
    """Flat INI config: all keys live in a [lrk] section."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep key case: 'L' and 'Delta' are real options
    try:
        with open(path) as fh:
            parser.read_file(fh, source=path)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    if not parser.has_section("lrk"):
        raise ConfigError(f"{path}:1: missing [lrk] section")
    return dict(parser.items("lrk"))


_ON, _OFF = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def _file_value(action, key, raw):
    """A config-file value parsed with the ``type`` and ``choices`` of its flag."""
    if action.nargs == 0:  # an on/off flag; off counts as absent
        word = raw.strip().lower()
        if word in _ON:
            return True
        if word in _OFF:
            return None
        raise ConfigError(f"config key {key!r}: {raw!r} is not one of {list(_ON + _OFF)}")
    try:
        value = action.type(raw) if action.type is not None else raw
    except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
        raise ConfigError(f"config key {key!r}: invalid value {raw!r}") from exc
    if action.choices is not None and value not in action.choices:
        raise ConfigError(f"config key {key!r}: {value!r} is not one of {list(action.choices)}")
    return value


def _resolve(args, subparser):
    """Merge defaults, config-file values, and explicit flags (flags win).

    Only the flags of ``subparser``, the parser that read ``args`` (one
    figure's, for ``reproduce-figure``), are keys: a config key for any other
    flag is unknown, and only flags the parser declares get defaults.
    ``LRK_WORKERS`` ranks between the ``--workers`` flag and the config file.
    """
    resolved = dict(args.__dict__)
    env_workers = os.environ.get("LRK_WORKERS")
    if env_workers and "workers" in resolved and resolved["workers"] is None:
        try:
            resolved["workers"] = int(env_workers)
        except ValueError as exc:
            raise ConfigError(f"LRK_WORKERS must be an integer, got {env_workers!r}") from exc
    if resolved.get("config"):
        # the flags of this run: not --help, nor the subcommand or figure that chose it
        actions = {a.dest: a for a in subparser._actions if a.dest in resolved}
        file_vals = _load_config_file(resolved["config"])
        for key, raw in file_vals.items():
            key = key.replace("-", "_")
            if key not in actions:
                raise ConfigError(f"unknown config key {key!r}")
            if resolved[key] is not None:
                continue  # explicit flag wins
            resolved[key] = _file_value(actions[key], key, raw)
    for key, val in _DEFAULTS.items():
        if key in resolved and resolved[key] is None:
            resolved[key] = val
    return resolved


_DEFAULTS = {
    "L": 2000,
    "J": 1.0,
    "Delta": 1.0,
    "mu": 0.0,
    "mu_min": -4.0,
    "mu_max": 4.0,
    "mu_i": 2.0,
    "beta_c": 5.0,
    "beta_ratio": 0.2,
    "mu_steps": 201,
    "grid_density": 100_000,
    "cycle": "otto",
    "workers": 1,
    "format": "csv",
    "output_dir": ".",
}


def _base(res):
    alpha = res.get("alpha")
    if alpha is None:
        raise ConfigError("alpha is required (use --alpha, 'inf' for short range)")
    return ChainParams(
        L=int(res["L"]), J=float(res["J"]), Delta=float(res["Delta"]),
        mu=0.0, alpha=alpha,
    )


def _sweep_config(res, cycle_kind, mu_ratio_grid=None, beta_c=None):
    return SweepConfig(
        cycle_kind=cycle_kind,
        base=ChainParams(L=int(res["L"]), J=float(res["J"]), Delta=float(res["Delta"]),
                         mu=0.0, alpha=2.0),
        mu_i=float(res["mu_i"]),
        mu_ratio_grid=tuple(mu_ratio_grid if mu_ratio_grid is not None
                            else np.linspace(0.0, 1.0, int(res["mu_steps"]))),
        beta_c=float(res["beta_c"] if beta_c is None else beta_c),
    )


_SWEEP_COLUMNS = ("mu_ratio", "R_W", "R_eta", "dQ_rel", "xi", "engine_lr", "engine_sr")


def _rows_csv(path, names, rows, alphas=None):
    """A CSV of the attributes ``names`` of each row, after an ``alpha`` column if given."""
    header, columns = list(names), [[getattr(r, n) for r in rows] for n in names]
    if alphas is not None:
        header, columns = ["alpha"] + header, [alphas] + columns
    _write_csv(path, header, columns)


def _spectrum_table(outdir, stem, params, mus, plots):
    """``stem``.csv, the sorted levels at each mu, and its gnuplot script when ``plots``."""
    scan = spectrum_scan(params, mus)
    _write_csv(os.path.join(outdir, f"{stem}.csv"), ["mu", "level_index", "energy"], [
        np.repeat(_key_text([mu for mu, _ in scan]), params.L),
        np.tile(np.arange(params.L), len(scan)),
        np.concatenate([levels for _, levels in scan]),
    ])
    if not plots:
        return [f"{stem}.csv"]
    _plot_script(os.path.join(outdir, f"{stem}.gp"), "energy spectrum", "mu", "energy",
                 f"'{stem}.csv' using 1:3 with dots notitle")
    return [f"{stem}.csv", f"{stem}.gp"]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_spectrum(res, outdir):
    mus = np.linspace(float(res["mu_min"]), float(res["mu_max"]), res["mu_steps"])
    return _spectrum_table(outdir, "spectrum", _base(res), mus, res.get("plots"))


def _cmd_winding(res, outdir):
    params = _base(res).with_mu(float(res["mu"]))
    result = winding_number(params, grid_density=int(res["grid_density"]))
    path = os.path.join(outdir, "winding.json")
    _write_json(path, {"w": result.w, "residual": result.residual,
                       "grid_density": result.grid_density})
    return ["winding.json"]


def _cmd_cycle(res, outdir, kind):
    base = _base(res)
    mu_i = float(res["mu_i"])
    if res["mu_f"] is not None:
        if res["mu_ratio"] is not None:
            raise ConfigError("give --mu-f or --mu-ratio, not both")
        mu_f = float(res["mu_f"])
    elif res["mu_ratio"] is not None:
        mu_f = float(res["mu_ratio"]) * mu_i
    else:
        mu_f = 0.5 * mu_i
    beta_c = float(res["beta_c"])
    baths = BathPair(beta_h=float(res["beta_ratio"]) * beta_c, beta_c=beta_c)
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
    rows = sweep_mu(cfg, base.alpha, float(res["beta_ratio"]))
    if res["format"] == "json":
        name = "sweep.json"
        # An undefined ratio is null, as JSON has no NaN.
        _write_json(os.path.join(outdir, name), [
            {k: v if not isinstance(v, float) or math.isfinite(v) else None
             for k, v in r.__dict__.items()} for r in rows])
    else:
        name = "sweep.csv"
        _rows_csv(os.path.join(outdir, name), _SWEEP_COLUMNS, rows)
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
    if res.get("plots"):
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
    cfg = replace(_sweep_config(res, kind), workers=int(res["workers"]))
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
    if res.get("dense"):
        return tuple(np.geomspace(1.05, 6.0, 100))
    return ALPHA_PANEL


def _fig1(res, outdir):
    base = ChainParams(L=200, J=float(res["J"]), Delta=float(res["Delta"]))
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
        base = ChainParams(L=2000, J=float(res["J"]), Delta=float(res["Delta"]), alpha=alpha)
        eps = spectrum_energies(base, ratios * mu_i)[:, ::5]
        name = f"fig3{tag}.csv"
        _write_csv(os.path.join(outdir, name), ["mu_ratio", "k_over_pi", "energy"],
                   keys + [eps.ravel()])
        _plot_script(os.path.join(outdir, f"fig3{tag}.gp"), "quasiparticle energy",
                     "mu_f/mu_i", "k/pi",
                     f"'{name}' using 1:2:3 with image notitle")
        files.extend([name, f"fig3{tag}.gp"])
    return files


def _alpha_sweep(res, kind, beta_c, alphas, mu_ratio_grid=None):
    """One ``sweep_mu`` over all ``alphas``: the alpha column and the rows."""
    cfg = _sweep_config(res, kind, mu_ratio_grid=mu_ratio_grid, beta_c=beta_c)
    rows = sweep_mu(cfg, alphas, float(res["beta_ratio"]))
    return np.repeat(_key_text(alphas), len(cfg.mu_ratio_grid)), rows


def _ratio_fig(res, outdir, kind, prefix):
    """Four ratio-curve panels: R_W (a, b) and R_eta (c, d) at beta_c = 5 and 0.05.

    Panels a and c, and b and d, plot one table.
    """
    files = []
    for tags, beta_c in (("ac", 5.0), ("bd", 0.05)):
        alpha_col, rows = _alpha_sweep(res, kind, beta_c, _alphas(res))
        for tag, ylab, ycol in zip(tags, ("R_W", "R_eta"), (3, 4)):
            name = f"{prefix}{tag}.csv"
            _rows_csv(os.path.join(outdir, name), _SWEEP_COLUMNS, rows, alpha_col)
            _plot_script(os.path.join(outdir, f"{prefix}{tag}.gp"),
                         f"{kind} {ylab} (beta_c={beta_c})", "mu_f/mu_i", ylab,
                         f"'{name}' using 2:{ycol} with lines notitle")
            files.extend([name, f"{prefix}{tag}.gp"])
    return files


def _diag_fig(res, outdir, kind, prefix):
    """dQ_rel and xi versus alpha for a set of mu_f/mu_i values, both beta_c."""
    files = []
    mu_ratios = (0.1, 0.25, 0.4, 0.6, 0.75, 0.9)
    alphas = np.geomspace(1.05, 6.0, 100 if res.get("dense") else 40)
    for tag, beta_c in (("a", 5.0), ("b", 0.05)):
        alpha_col, rows = _alpha_sweep(res, kind, beta_c, alphas, mu_ratio_grid=mu_ratios)
        name = f"{prefix}{tag}.csv"
        _rows_csv(os.path.join(outdir, name), ("mu_ratio", "dQ_rel", "xi"), rows, alpha_col)
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
    common.add_argument("-o", "--output-dir", dest="output_dir")
    common.add_argument("--J", type=float)
    common.add_argument("--Delta", type=float)
    flags = {
        "L": _flag("--L", type=int),
        "alpha": _flag("--alpha", type=_parse_alpha),
        "cycle": _flag("--cycle", choices=CYCLE_KINDS),
        "mu_i": _flag("--mu-i", type=float),
        "mu_steps": _flag("--mu-steps", type=_positive_int),
        "beta_c": _flag("--beta-c", type=float),
        "beta_ratio": _flag("--beta-ratio", type=float),
        "plots": _flag("--plots", action="store_const", const=True, default=None,
                       help="also emit gnuplot scripts"),
        "dense": _flag("--dense", action="store_const", const=True, default=None,
                       help="sample alpha with 100 log-spaced points instead of 6"),
    }
    # the sweep grid: mu_i, the mu_f/mu_i steps and beta_c
    grid = ("mu_i", "mu_steps", "beta_c")

    def add(group, name, *reads):
        return group.add_parser(name, parents=[common, *(flags[k] for k in reads)])

    parser = argparse.ArgumentParser(prog="lrk", description=__doc__)
    parser.add_argument("--version", action="version", version=f"lrk {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    runs = {}

    p = runs["spectrum"] = add(sub, "spectrum", "L", "alpha", "mu_steps", "plots")
    p.add_argument("--mu-min", type=float)
    p.add_argument("--mu-max", type=float)

    p = runs["winding"] = add(sub, "winding", "L", "alpha")
    p.add_argument("--mu", type=float)
    p.add_argument("--grid-density", type=int)

    for kind in CYCLE_KINDS:
        p = runs[kind] = add(sub, kind, "L", "alpha", "mu_i", "beta_c", "beta_ratio")
        p.add_argument("--mu-f", type=float)
        p.add_argument("--mu-ratio", type=float)

    p = runs["sweep"] = add(sub, "sweep", "L", "cycle", "alpha", *grid, "beta_ratio", "plots")
    p.add_argument("--format", choices=("csv", "json"))

    runs["regions"] = add(sub, "regions", "L", "cycle", "alpha", *grid, "plots")
    p = runs["optimal"] = add(sub, "optimal", "L", "cycle", *grid)
    p.add_argument("--workers", type=int,
                   help="forked processes over parts of the beta_h/beta_c columns of a "
                        "Stirling grid (an Otto grid runs serially)")

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
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # a usage error (2), or --help or --version (0)
        return exc.code
    run = f"{args.subcommand} {args.figure}" if "figure" in args else args.subcommand
    t0 = time.monotonic()
    made = None  # the directory this run creates, removed again if the run is refused
    try:
        res = _resolve(args, runs[run])
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
                       for k, v in sorted(res.items())
                       if k not in ("config",) and not k.startswith("_")
                       and isinstance(v, (int, float, str, bool, type(None)))},
            "outputs": files,
            "wall_time_s": time.monotonic() - t0,
        }
        _write_json(os.path.join(outdir, "run-manifest.json"), manifest)
        made = None
        return EXIT_OK
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
