"""Command-line front end: config parsing, subcommand dispatch, CSV/JSON
emission, gnuplot-script generation, and per-figure reproduction runs.

Every run writes a ``run-manifest.json`` echoing the resolved inputs and the
produced files; re-running the recorded argv reproduces byte-identical CSVs.
Exit codes: 0 success, 2 config error, 3 numerical-contract failure, 4 I/O.
"""

import argparse
import configparser
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .chain import (
    SHORT_RANGE,
    ChainParams,
    DegenerateModeError,
    GaplessConfigurationError,
    InvalidParameterError,
    spectrum_scan,
    winding_number,
)
from .cycles import BathPair, ContractViolationError, CycleSpec, otto_cycle, stirling_cycle
from .oracle import EigensolverError, OracleScaleError
from .sweep import (
    InsufficientDataError,
    ReferenceCache,
    SweepConfig,
    default_beta_ratio_grid,
    default_mu_ratio_grid,
    enhancement_regions,
    max_ratios,
    optimal_condition,
    sweep_mu,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONTRACT = 3
EXIT_IO = 4

#: Representative alpha values used for figure panels spanning [1.05, 6].
ALPHA_PANEL = (1.05, 1.2, 1.5, 2.0, 3.0, 6.0)

CONTRACT_ERRORS = (
    InsufficientDataError,
    GaplessConfigurationError,
    DegenerateModeError,
    ContractViolationError,
    EigensolverError,
    OracleScaleError,
)


class ConfigError(ValueError):
    """Invalid configuration (file or flags); maps to exit code 2."""


def _fmt(x) -> str:
    return "%.17g" % float(x)


def _parse_alpha(text):
    if str(text).lower() in ("inf", "infinity", "shortrange", "short-range"):
        return SHORT_RANGE
    return float(text)


def _write_csv(path, header, rows):
    """Comma-separated, header row, LF endings, 17-significant-digit floats."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (bool, np.bool_)):
                cells.append(str(int(v)))
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                cells.append(_fmt(v))
        lines.append(",".join(cells))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _plot_script(path, csv_name, title, xlabel, ylabel, plot_expr):
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


def _file_value(action, key, raw):
    """A config-file value parsed with the ``type`` and ``choices`` of its flag."""
    if action.nargs == 0:  # an on/off flag
        return raw.strip().lower() in ("1", "true", "yes", "on")
    try:
        value = action.type(raw) if action.type is not None else raw
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: invalid value {raw!r}") from exc
    if action.choices is not None and value not in action.choices:
        raise ConfigError(f"config key {key!r}: {value!r} is not one of {list(action.choices)}")
    return value


def _resolve(args, subparser):
    """Merge defaults, config-file values, and explicit flags (flags win)."""
    resolved = dict(args.__dict__)
    if resolved.get("config"):
        actions = {a.dest: a for a in subparser._actions}
        file_vals = _load_config_file(resolved["config"])
        for key, raw in file_vals.items():
            key = key.replace("-", "_")
            if key not in resolved:
                raise ConfigError(f"unknown config key {key!r}")
            if resolved[key] is not None:
                continue  # explicit flag wins
            resolved[key] = _file_value(actions[key], key, raw)
    for key, val in _DEFAULTS.items():
        if resolved.get(key) is None:
            resolved[key] = val
    env_workers = os.environ.get("LRK_WORKERS")
    if env_workers:
        try:
            resolved["workers"] = int(env_workers)
        except ValueError as exc:
            raise ConfigError(f"LRK_WORKERS must be an integer, got {env_workers!r}") from exc
    return resolved


_DEFAULTS = {
    "L": 2000,
    "J": 1.0,
    "Delta": 1.0,
    "mu_i": 2.0,
    "beta_c": 5.0,
    "beta_ratio": 0.2,
    "mu_steps": 201,
    "grid_density": 100_000,
    "workers": 1,
    "format": "csv",
    "output_dir": ".",
}


def _base(res, L_key="L"):
    alpha = res.get("alpha")
    if alpha is None:
        raise ConfigError("alpha is required (use --alpha, 'inf' for short range)")
    return ChainParams(
        L=int(res[L_key]), J=float(res["J"]), Delta=float(res["Delta"]),
        mu=0.0, alpha=alpha,
    )


def _sweep_config(res, cycle_kind, mu_ratio_grid=None):
    return SweepConfig(
        cycle_kind=cycle_kind,
        base=ChainParams(L=int(res["L"]), J=float(res["J"]), Delta=float(res["Delta"]),
                         mu=0.0, alpha=2.0),
        mu_i=float(res["mu_i"]),
        mu_ratio_grid=tuple(mu_ratio_grid if mu_ratio_grid is not None
                            else np.linspace(0.0, 1.0, int(res["mu_steps"]))),
        beta_c=float(res["beta_c"]),
        workers=int(res["workers"]),
    )


def _sweep_rows_csv(path, rows, alpha=None):
    header = ["mu_ratio", "R_W", "R_eta", "dQ_rel", "xi", "engine_lr", "engine_sr"]
    out = [[r.mu_ratio, r.R_W, r.R_eta, r.dQ_rel, r.xi, r.engine_lr, r.engine_sr] for r in rows]
    if alpha is not None:
        header = ["alpha"] + header
        out = [[alpha] + row for row in out]
    _write_csv(path, header, out)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_spectrum(res, outdir):
    params = _base(res)
    mu_min = float(res.get("mu_min") if res.get("mu_min") is not None else -4.0)
    mu_max = float(res.get("mu_max") if res.get("mu_max") is not None else 4.0)
    mus = np.linspace(mu_min, mu_max, int(res["mu_steps"]))
    table = spectrum_scan(params, mus)
    rows = []
    for mu, levels in table:
        for idx, e in enumerate(np.sort(levels)):
            rows.append([mu, idx, e])
    path = os.path.join(outdir, "spectrum.csv")
    _write_csv(path, ["mu", "level_index", "energy"], rows)
    files = ["spectrum.csv"]
    if res.get("plots"):
        _plot_script(os.path.join(outdir, "spectrum.gp"), "spectrum.csv",
                     "energy spectrum", "mu", "energy",
                     "'spectrum.csv' using 1:3 with dots notitle")
        files.append("spectrum.gp")
    return files


def _cmd_winding(res, outdir):
    params = _base(res)
    params = ChainParams(L=params.L, J=params.J, Delta=params.Delta,
                         mu=float(res.get("mu") or 0.0), alpha=params.alpha)
    result = winding_number(params, grid_density=int(res["grid_density"]))
    path = os.path.join(outdir, "winding.json")
    _write_json(path, {"w": result.w, "residual": result.residual,
                       "grid_density": result.grid_density})
    return ["winding.json"]


def _cmd_cycle(res, outdir, kind):
    base = _base(res)
    mu_i = float(res["mu_i"])
    if res.get("mu_f") is not None:
        mu_f = float(res["mu_f"])
    elif res.get("mu_ratio") is not None:
        mu_f = float(res["mu_ratio"]) * mu_i
    else:
        mu_f = 0.5 * mu_i
    beta_c = float(res["beta_c"])
    baths = BathPair(beta_h=float(res["beta_ratio"]) * beta_c, beta_c=beta_c)
    if res.get("sweep_mu_flag"):
        cfg = _sweep_config(res, kind)
        rows = sweep_mu(cfg, base.alpha, float(res["beta_ratio"]))
        name = f"{kind}-sweep.csv"
        _sweep_rows_csv(os.path.join(outdir, name), rows)
        files = [name]
        if res.get("plots"):
            gp = f"{kind}-sweep.gp"
            _plot_script(os.path.join(outdir, gp), name, f"{kind} ratios",
                         "mu_f/mu_i", "ratio",
                         f"'{name}' using 1:2 with lines, '{name}' using 1:3 with lines")
            files.append(gp)
        return files
    spec = CycleSpec(base=base, mu_i=mu_i, mu_f=mu_f, baths=baths)
    result = otto_cycle(spec) if kind == "otto" else stirling_cycle(spec)
    name = f"{kind}.json"
    _write_json(os.path.join(outdir, name), result.to_json_dict())
    return [name]


def _cmd_sweep(res, outdir):
    kind = res.get("cycle") or "otto"
    base = _base(res)
    cfg = _sweep_config(res, kind)
    rows = sweep_mu(cfg, base.alpha, float(res["beta_ratio"]))
    if res.get("format") == "json":
        name = "sweep.json"
        _write_json(os.path.join(outdir, name), [r.__dict__ for r in rows])
    else:
        name = "sweep.csv"
        _sweep_rows_csv(os.path.join(outdir, name), rows)
    return [name]


def _cmd_regions(res, outdir):
    kind = res.get("cycle") or "otto"
    base = _base(res)
    cfg = _sweep_config(res, kind)
    region = enhancement_regions(cfg, base.alpha)
    name = "regions.csv"
    _region_csv(os.path.join(outdir, name), region)
    files = [name]
    if res.get("plots"):
        _plot_script(os.path.join(outdir, "regions.gp"), name, "enhancement regions",
                     "mu_f/mu_i", "beta_h/beta_c",
                     f"'{name}' using 1:2:3 with image notitle")
        files.append("regions.gp")
    return files


def _region_csv(path, region):
    rows = []
    for i, mu in enumerate(region.mu_ratio_grid):
        for j, br in enumerate(region.beta_ratio_grid):
            rows.append([mu, br, int(region.mask[i, j])])
    _write_csv(path, ["mu_ratio", "beta_ratio", "enhanced"], rows)


def _cmd_optimal(res, outdir):
    kind = res.get("cycle") or "otto"
    cfg = _sweep_config(res, kind)
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
    files = []
    mus = np.linspace(-4.0, 4.0, 161)
    for tag, alpha in (("a", 0.4), ("b", 1.7), ("c", 4.0)):
        params = ChainParams(L=200, J=float(res["J"]), Delta=float(res["Delta"]),
                             mu=0.0, alpha=alpha)
        rows = []
        for mu, levels in spectrum_scan(params, mus):
            for idx, e in enumerate(np.sort(levels)):
                rows.append([mu, idx, e])
        name = f"fig1{tag}.csv"
        _write_csv(os.path.join(outdir, name), ["mu", "level_index", "energy"], rows)
        files.append(name)
    # panel (d): winding map over the (mu, alpha) plane
    rows = []
    for alpha in np.geomspace(0.2, 10.0, 17):
        for mu in np.linspace(-2.4, 2.4, 33):
            params = ChainParams(L=200, J=float(res["J"]), Delta=float(res["Delta"]),
                                 mu=float(mu), alpha=float(alpha))
            try:
                wr = winding_number(params, grid_density=10_001)
                rows.append([mu, alpha, wr.w, wr.residual])
            except GaplessConfigurationError:
                rows.append([mu, alpha, math.nan, math.nan])
    name = "fig1d.csv"
    _write_csv(os.path.join(outdir, name), ["mu", "alpha", "w", "residual"], rows)
    files.append(name)
    for tag in ("a", "b", "c"):
        gp = f"fig1{tag}.gp"
        _plot_script(os.path.join(outdir, gp), f"fig1{tag}.csv", "energy spectrum",
                     "mu", "energy", f"'fig1{tag}.csv' using 1:3 with dots notitle")
        files.append(gp)
    _plot_script(os.path.join(outdir, "fig1d.gp"), "fig1d.csv", "winding number",
                 "mu", "alpha", "'fig1d.csv' using 1:2:3 with image notitle")
    files.append("fig1d.gp")
    return files


def _fig3(res, outdir):
    files = []
    mu_i = 2.0
    ratios = np.linspace(0.0, 1.0, 81)
    for tag, alpha in (("a", 1.05), ("b", 2.0), ("c", 10.0), ("d", SHORT_RANGE)):
        base = ChainParams(L=2000, J=float(res["J"]), Delta=float(res["Delta"]),
                           mu=0.0, alpha=alpha)
        from .chain import momentum_grid, spectrum_energies

        k = momentum_grid(base.L)[::5]
        rows = []
        for r in ratios:
            eps = spectrum_energies(base.with_mu(float(r) * mu_i))[::5]
            for kk, e in zip(k, eps):
                rows.append([r, kk / math.pi, e])
        name = f"fig3{tag}.csv"
        _write_csv(os.path.join(outdir, name), ["mu_ratio", "k_over_pi", "energy"], rows)
        _plot_script(os.path.join(outdir, f"fig3{tag}.gp"), name, "quasiparticle energy",
                     "mu_f/mu_i", "k/pi",
                     f"'{name}' using 1:2:3 with image notitle")
        files.extend([name, f"fig3{tag}.gp"])
    return files


def _ratio_fig(res, outdir, kind, prefix):
    """Four ratio-curve panels (R_W and R_eta at beta_c = 5 and 0.05)."""
    files = []
    panels = (("a", 5.0), ("b", 0.05), ("c", 5.0), ("d", 0.05))
    cache_by_bc = {}
    for tag, beta_c in panels:
        local = dict(res)
        local["beta_c"] = beta_c
        cfg = _sweep_config(local, kind)
        cache = cache_by_bc.setdefault(beta_c, ReferenceCache())
        rows = []
        for alpha in _alphas(res):
            for r in sweep_mu(cfg, alpha, float(res["beta_ratio"]), cache=cache):
                rows.append([alpha, r.mu_ratio, r.R_W, r.R_eta, r.dQ_rel, r.xi,
                             r.engine_lr, r.engine_sr])
        name = f"{prefix}{tag}.csv"
        _write_csv(os.path.join(outdir, name),
                   ["alpha", "mu_ratio", "R_W", "R_eta", "dQ_rel", "xi",
                    "engine_lr", "engine_sr"], rows)
        ycol = "3" if tag in ("a", "b") else "4"
        ylab = "R_W" if tag in ("a", "b") else "R_eta"
        _plot_script(os.path.join(outdir, f"{prefix}{tag}.gp"), name,
                     f"{kind} {ylab} (beta_c={beta_c})", "mu_f/mu_i", ylab,
                     f"'{name}' using 2:{ycol} with lines notitle")
        files.extend([name, f"{prefix}{tag}.gp"])
    return files


def _diag_fig(res, outdir, kind, prefix):
    """dQ_rel and xi versus alpha for a set of mu_f/mu_i values, both beta_c."""
    files = []
    mu_ratios = (0.1, 0.25, 0.4, 0.6, 0.75, 0.9)
    for tag, beta_c in (("a", 5.0), ("b", 0.05)):
        local = dict(res)
        local["beta_c"] = beta_c
        cfg = _sweep_config(local, kind, mu_ratio_grid=mu_ratios)
        cache = ReferenceCache()
        rows = []
        alphas = np.geomspace(1.05, 6.0, 100 if res.get("dense") else 40)
        for alpha in alphas:
            for r in sweep_mu(cfg, float(alpha), float(res["beta_ratio"]), cache=cache):
                rows.append([alpha, r.mu_ratio, r.dQ_rel, r.xi])
        name = f"{prefix}{tag}.csv"
        _write_csv(os.path.join(outdir, name), ["alpha", "mu_ratio", "dQ_rel", "xi"], rows)
        _plot_script(os.path.join(outdir, f"{prefix}{tag}.gp"), name,
                     f"{kind} heat/efficiency diagnostics (beta_c={beta_c})",
                     "alpha", "dQ_rel", f"'{name}' using 1:3 with lines notitle")
        files.extend([name, f"{prefix}{tag}.gp"])
    return files


def _maxratio_fig(res, outdir, kind, prefix):
    """Maximum ratios versus alpha (left) and versus beta_h/beta_c (right)."""
    files = []
    cfg = _sweep_config(res, kind)
    cache = ReferenceCache()
    header = ["alpha", "beta_ratio", "R_W_max", "R_eta_max", "arg_W", "arg_eta"]

    rows = []
    for beta_ratio in (0.2, 0.4, 0.6, 0.8):
        for alpha in _alphas(res):
            try:
                mr = max_ratios(cfg, float(alpha), beta_ratio, cache=cache)
            except InsufficientDataError:
                continue
            rows.append([alpha, beta_ratio, mr.R_W_max, mr.R_eta_max,
                         mr.arg_mu_ratio_W, mr.arg_mu_ratio_eta])
    name = f"{prefix}-alpha.csv"
    _write_csv(os.path.join(outdir, name), header, rows)
    _plot_script(os.path.join(outdir, f"{prefix}-alpha.gp"), name,
                 f"{kind} maximum ratios vs alpha", "alpha", "R_W_max",
                 f"'{name}' using 1:3 with linespoints notitle")
    files.extend([name, f"{prefix}-alpha.gp"])

    rows = []
    for alpha in ALPHA_PANEL:
        for beta_ratio in np.linspace(0.02, 0.98, 49):
            try:
                mr = max_ratios(cfg, float(alpha), float(beta_ratio), cache=cache)
            except InsufficientDataError:
                continue
            rows.append([alpha, beta_ratio, mr.R_W_max, mr.R_eta_max,
                         mr.arg_mu_ratio_W, mr.arg_mu_ratio_eta])
    name = f"{prefix}-beta.csv"
    _write_csv(os.path.join(outdir, name), header, rows)
    _plot_script(os.path.join(outdir, f"{prefix}-beta.gp"), name,
                 f"{kind} maximum ratios vs beta_h/beta_c", "beta_h/beta_c", "R_W_max",
                 f"'{name}' using 2:3 with linespoints notitle")
    files.extend([name, f"{prefix}-beta.gp"])
    return files


def _region_fig(res, outdir, kind, prefix, beta_cs=(5.0, 0.05)):
    files = []
    for beta_c in beta_cs:
        for alpha in (1.05, 2.0, 6.0):
            local = dict(res)
            local["beta_c"] = beta_c
            cfg = _sweep_config(local, kind)
            region = enhancement_regions(cfg, alpha)
            name = f"{prefix}-bc{_fmt(beta_c)}-a{_fmt(alpha)}.csv"
            _region_csv(os.path.join(outdir, name), region)
            gp = name.replace(".csv", ".gp")
            _plot_script(os.path.join(outdir, gp), name,
                         f"{kind} enhancement regions (alpha={alpha}, beta_c={beta_c})",
                         "mu_f/mu_i", "beta_h/beta_c",
                         f"'{name}' using 1:2:3 with image notitle")
            files.extend([name, gp])
    return files


def _cmd_figure(res, outdir):
    n = int(res["figure"])
    if n == 1:
        return _fig1(res, outdir)
    if n == 3:
        return _fig3(res, outdir)
    if n == 4:
        return _ratio_fig(res, outdir, "otto", "fig4")
    if n == 5:
        return _diag_fig(res, outdir, "otto", "fig5")
    if n == 6:
        return _maxratio_fig(res, outdir, "otto", "fig6")
    if n == 7:
        return _region_fig(res, outdir, "otto", "fig7")
    if n == 8:
        return _ratio_fig(res, outdir, "stirling", "fig8")
    if n == 9:
        return _diag_fig(res, outdir, "stirling", "fig9")
    if n == 10:
        return _maxratio_fig(res, outdir, "stirling", "fig10")
    raise ConfigError(f"figure {n} has no computable content (supported: 1, 3-10)")


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file with a [lrk] section")
    common.add_argument("-o", "--output-dir", dest="output_dir")
    common.add_argument("--format", choices=("csv", "json"))
    common.add_argument("--workers", type=int)
    common.add_argument("--plots", action="store_const", const=True, default=None,
                        help="also emit gnuplot scripts")
    common.add_argument("--L", type=int)
    common.add_argument("--J", type=float)
    common.add_argument("--Delta", type=float)

    parser = argparse.ArgumentParser(prog="lrk", description=__doc__)
    parser.add_argument("--version", action="version", version=f"lrk {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("spectrum", parents=[common])
    p.add_argument("--alpha", type=_parse_alpha)
    p.add_argument("--mu-min", dest="mu_min", type=float)
    p.add_argument("--mu-max", dest="mu_max", type=float)
    p.add_argument("--mu-steps", dest="mu_steps", type=int)

    p = sub.add_parser("winding", parents=[common])
    p.add_argument("--alpha", type=_parse_alpha)
    p.add_argument("--mu", type=float)
    p.add_argument("--grid-density", dest="grid_density", type=int)

    for kind in ("otto", "stirling"):
        p = sub.add_parser(kind, parents=[common])
        p.add_argument("--alpha", type=_parse_alpha)
        p.add_argument("--mu-i", dest="mu_i", type=float)
        p.add_argument("--mu-f", dest="mu_f", type=float)
        p.add_argument("--mu-ratio", dest="mu_ratio", type=float)
        p.add_argument("--beta-c", dest="beta_c", type=float)
        p.add_argument("--beta-ratio", dest="beta_ratio", type=float)
        p.add_argument("--mu-steps", dest="mu_steps", type=int)
        p.add_argument("--sweep-mu", dest="sweep_mu_flag", action="store_const",
                       const=True, default=None)

    p = sub.add_parser("sweep", parents=[common])
    p.add_argument("--cycle", choices=("otto", "stirling"))
    p.add_argument("--alpha", type=_parse_alpha)
    p.add_argument("--mu-i", dest="mu_i", type=float)
    p.add_argument("--beta-c", dest="beta_c", type=float)
    p.add_argument("--beta-ratio", dest="beta_ratio", type=float)
    p.add_argument("--mu-steps", dest="mu_steps", type=int)

    p = sub.add_parser("regions", parents=[common])
    p.add_argument("--cycle", choices=("otto", "stirling"))
    p.add_argument("--alpha", type=_parse_alpha)
    p.add_argument("--mu-i", dest="mu_i", type=float)
    p.add_argument("--beta-c", dest="beta_c", type=float)
    p.add_argument("--mu-steps", dest="mu_steps", type=int)

    p = sub.add_parser("optimal", parents=[common])
    p.add_argument("--cycle", choices=("otto", "stirling"))
    p.add_argument("--mu-i", dest="mu_i", type=float)
    p.add_argument("--beta-c", dest="beta_c", type=float)
    p.add_argument("--mu-steps", dest="mu_steps", type=int)

    p = sub.add_parser("reproduce-figure", parents=[common])
    p.add_argument("figure", type=int)
    p.add_argument("--beta-ratio", dest="beta_ratio", type=float)
    p.add_argument("--mu-i", dest="mu_i", type=float)
    p.add_argument("--beta-c", dest="beta_c", type=float)
    p.add_argument("--mu-steps", dest="mu_steps", type=int)
    p.add_argument("--dense", action="store_const", const=True, default=None,
                   help="sample alpha with 100 log-spaced points instead of 6")
    return parser, sub.choices


_DISPATCH = {
    "spectrum": _cmd_spectrum,
    "winding": _cmd_winding,
    "otto": lambda res, outdir: _cmd_cycle(res, outdir, "otto"),
    "stirling": lambda res, outdir: _cmd_cycle(res, outdir, "stirling"),
    "sweep": _cmd_sweep,
    "regions": _cmd_regions,
    "optimal": _cmd_optimal,
    "reproduce-figure": _cmd_figure,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, subparsers = _build_parser()
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    try:
        res = _resolve(args, subparsers[args.subcommand])
        outdir = res["output_dir"]
        os.makedirs(outdir, exist_ok=True)
        files = _DISPATCH[args.subcommand](res, outdir)
    except (ConfigError, InvalidParameterError) as exc:
        print(f"lrk: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CONTRACT_ERRORS as exc:
        print(f"lrk: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except OSError as exc:
        print(f"lrk: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
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
    try:
        _write_json(os.path.join(outdir, "run-manifest.json"), manifest)
    except OSError as exc:
        print(f"lrk: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
