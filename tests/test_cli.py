"""End-to-end tests of the lrk command line: dispatch, formats, config
handling, exit codes, and manifest round-trips."""

import json
import math
import os
import re
import warnings

import numpy as np
import pytest

from lrkengine import (
    SHORT_RANGE,
    BathPair,
    ChainParams,
    CycleSpec,
    NonFiniteResultError,
    SweepConfig,
    enhancement_regions,
    otto_cycle,
    spectrum_scan,
    sweep,
    sweep_mu,
    winding_number,
)
from lrkengine.chain import spectrum_energies
from lrkengine.cli import (
    EXIT_CONFIG,
    EXIT_CONTRACT,
    EXIT_OK,
    ConfigError,
    _build_parser,
    _file_argv,
    _key_text,
    _write_csv,
    _write_json,
    main,
)

FAST = [
    "--L", "200", "--mu-steps", "21",
]

MAX_RATIO_HEADER = "alpha,beta_ratio,R_W_max,R_eta_max,arg_W,arg_eta"


def cell(v):
    """One float cell as the CSVs write it: 17 significant digits."""
    return "%.17g" % float(v)


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main(list(argv) + ["-o", str(out)])
    return code, out


def write_config(tmp_path, entries):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[lrk]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items()))
    return str(cfg)


class TestSingleRuns:
    def test_otto_json_matches_library(self, tmp_path):
        code, out = run(tmp_path, "otto", "--alpha", "1.05", "--L", "200",
                        "--mu-ratio", "0.7", "--beta-c", "5", "--beta-ratio", "0.2")
        assert code == EXIT_OK
        got = json.loads((out / "otto.json").read_text())
        spec = CycleSpec(
            base=ChainParams(L=200, J=1.0, Delta=1.0, mu=0.0, alpha=1.05),
            mu_i=2.0, mu_f=1.4, baths=BathPair(beta_h=1.0, beta_c=5.0),
        )
        expected = otto_cycle(spec)
        assert got["W"] == pytest.approx(expected.W, rel=1e-15)
        assert got["engine_valid"] is True

    def test_winding_json(self, tmp_path):
        code, out = run(tmp_path, "winding", "--alpha", "4", "--mu", "0",
                        "--L", "200", "--grid-density", "50000")
        assert code == EXIT_OK
        got = json.loads((out / "winding.json").read_text())
        expected = winding_number(ChainParams(L=200, J=1.0, Delta=1.0, mu=0.0, alpha=4.0),
                                  grid_density=50000)
        assert got["w"] == pytest.approx(expected.w, abs=1e-15)
        assert got["grid_density"] == 50000


class TestCsvFormat:
    def test_sweep_csv_shape(self, tmp_path):
        code, out = run(tmp_path, "sweep", "--cycle", "otto", "--alpha", "1.05",
                        "--beta-c", "5", "--beta-ratio", "0.2", *FAST)
        assert code == EXIT_OK
        raw = (out / "sweep.csv").read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().strip().split("\n")
        assert lines[0] == "mu_ratio,R_W,R_eta,dQ_rel,xi,engine_lr,engine_sr"
        assert len(lines) == 22
        # 17-significant-digit floats: the longest R_W mantissa must be full width.
        cells = [line.split(",")[1] for line in lines[1:]]
        assert all(re.fullmatch(r"-?(\d+(\.\d+)?(e[+-]\d+)?|nan|inf)", c) for c in cells)
        digits = max(len(c.replace("-", "").replace(".", "").lstrip("0")) for c in cells)
        assert digits >= 15

    def test_sweep_json_strict(self, tmp_path):
        # At mu_f/mu_i = 1 both W are 0, so R_W is undefined: null, not NaN.
        code, out = run(tmp_path, "sweep", "--cycle", "otto", "--alpha", "1.05",
                        "--beta-c", "5", "--beta-ratio", "0.2", "--format", "json", *FAST)
        assert code == EXIT_OK

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        got = json.loads((out / "sweep.json").read_text(), parse_constant=reject)
        cfg = SweepConfig(cycle_kind="otto", base=ChainParams(L=200, alpha=2.0),
                          mu_ratio_grid=tuple(np.linspace(0.0, 1.0, 21)))
        table = sweep_mu(cfg, 1.05, 0.2)
        want = [{k: None if isinstance(v, float) and np.isnan(v) else v
                 for k, v in zip(table, row)}
                for row in zip(*(c.tolist() for c in table.values()))]
        assert got == want
        assert got[-1]["R_W"] is None

    def test_spectrum_csv_matches_scan(self, tmp_path):
        code, out = run(tmp_path, "spectrum", "--alpha", "1.5", "--L", "200",
                        "--mu-steps", "5")
        assert code == EXIT_OK
        raw = (out / "spectrum.csv").read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")
        lines = raw.decode().split("\n")[:-1]
        assert lines[0] == "mu,level_index,energy"
        assert len(lines) == 1 + 5 * 200
        cells = [line.split(",") for line in lines[1:]]
        assert [c[1] for c in cells] == [str(i) for i in range(200)] * 5
        mus = np.linspace(-4.0, 4.0, 5)
        scan = spectrum_scan(ChainParams(L=200, alpha=1.5), mus)
        assert scan.shape == (5, 200)
        for b, (mu, levels) in enumerate(zip(mus.tolist(), scan)):
            block = cells[200 * b : 200 * (b + 1)]
            assert all(float(c[0]) == mu for c in block)
            assert np.array_equal([float(c[2]) for c in block], levels)

    def test_spectrum_csv_bytes(self, tmp_path):
        code, out = run(tmp_path, "spectrum", "--alpha", "1.5", "--L", "200",
                        "--mu-min", "-1", "--mu-max", "1", "--mu-steps", "5")
        assert code == EXIT_OK
        mus = np.linspace(-1.0, 1.0, 5)
        scan = spectrum_scan(ChainParams(L=200, alpha=1.5), mus)
        assert 0.0 in mus
        want = "mu,level_index,energy\n" + "".join(
            f"{cell(mu)},{i},{cell(e)}\n"
            for mu, levels in zip(mus.tolist(), scan) for i, e in enumerate(levels))
        assert (out / "spectrum.csv").read_bytes() == want.encode()

    @pytest.mark.parametrize("alpha", [0.4, 1.5, 4.0, SHORT_RANGE])
    @pytest.mark.parametrize("L", [2, 8, 200, 2000])
    def test_spectrum_table_bytes(self, tmp_path, L, alpha):
        # The row template writes what the generic writer writes from the full sort.
        grids = [
            ("-1", "1", "5"),  # 0.0 among the mu
            ("-0.0", "-0.0", "2"),  # mu = 0.0, then -0.0
            ("-5e-05", "1e-20", "3"),  # mu texts in exponent form
            ("2.5", "3", "1"),  # one mu
        ]
        for n, (lo, hi, steps) in enumerate(grids):
            code, out = run(tmp_path / str(n), "spectrum", "--L", str(L), "--alpha", repr(alpha),
                            "--mu-min", lo, "--mu-max", hi, "--mu-steps", steps)
            assert code == EXIT_OK
            mus = np.linspace(float(lo), float(hi), int(steps))
            e = spectrum_energies(ChainParams(L=L, alpha=alpha), mus)
            _write_csv(tmp_path / f"{n}.csv", ["mu", "level_index", "energy"], [
                np.repeat(_key_text(mus), L),
                np.tile(np.arange(L), len(mus)),
                np.sort(np.concatenate([-e, e], axis=1), axis=1).ravel(),
            ])
            assert (out / "spectrum.csv").read_bytes() == (tmp_path / f"{n}.csv").read_bytes()

    def test_negated_text(self):
        # The spectrum writer's premise: "%.17g" % -x is "-" + "%.17g" % x for x >= 0.
        rng = np.random.default_rng(23)
        bits = rng.integers(0, 0x7FF0_0000_0000_0000, 2000, dtype=np.int64).view(float)
        wide = np.abs(rng.standard_normal(2000)) * 10.0 ** rng.integers(-320, 300, 2000)
        for x in [0.0, 5e-324, 1e308, math.inf, *bits.tolist(), *wide.tolist()]:
            assert "%.17g" % -x == "-" + "%.17g" % x, x

    @pytest.mark.parametrize("flag, value, row", [("--mu-min", "-5e-05", 1),
                                                  ("--mu-max", "-1E+3", -1)])
    def test_exponent_form_negative(self, tmp_path, flag, value, row):
        # A negative number in exponent form is a value, not an option.
        code, out = run(tmp_path, "spectrum", "--alpha", "1.5", "--L", "200",
                        "--mu-steps", "2", flag, value)
        assert code == EXIT_OK
        lines = (out / "spectrum.csv").read_text().splitlines()
        assert float(lines[row].split(",")[0]) == float(value)

    def test_exponent_form_negative_winding(self, tmp_path):
        code, out = run(tmp_path, "winding", "--alpha", "4", "--L", "200",
                        "--grid-density", "1000", "--mu", "-1e-1")
        assert code == EXIT_OK
        assert json.loads((out / "run-manifest.json").read_text())["inputs"]["mu"] == -0.1

    def test_regions_csv_bytes(self, tmp_path):
        code, out = run(tmp_path, "regions", "--cycle", "otto", "--alpha", "1.5", "--L", "200")
        assert code == EXIT_OK
        cfg = SweepConfig(cycle_kind="otto", base=ChainParams(L=200, alpha=2.0),
                          mu_ratio_grid=tuple(np.linspace(0.0, 1.0, 201)))
        region = enhancement_regions(cfg, 1.5)
        want = "mu_ratio,beta_ratio,enhanced\n" + "".join(
            f"{cell(mu)},{cell(b)},{int(region.mask[i, j])}\n"
            for i, mu in enumerate(region.mu_ratio_grid)
            for j, b in enumerate(region.beta_ratio_grid))
        assert (out / "regions.csv").read_bytes() == want.encode()

    # Blocks of 4 rows: 0, 1, B - 1, B, B + 1 and 2B + 3 rows.
    @pytest.mark.parametrize("n", [0, 1, 3, 4, 5, 11])
    def test_write_csv_bytes(self, tmp_path, monkeypatch, n):
        monkeypatch.setattr("lrkengine.cli._CSV_BLOCK", 4)
        floats = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1, 1 / 3, 0.0]
        i = np.arange(n)
        columns = [i % 3 == 0, i * 10**15 - 7, (i * 97).astype(np.uint8),
                   np.array(floats)[i % len(floats)],
                   np.array([f"key {j}%s" for j in range(n)], dtype=object)]
        _write_csv(tmp_path / "t.csv", ["bool", "int64", "uint8", "float64", "text"], columns)
        want = "bool,int64,uint8,float64,text\n" + "".join(
            f"{int(b)},{int(k)},{int(u)},{cell(f)},{t}\n" for b, k, u, f, t in zip(*columns))
        assert (tmp_path / "t.csv").read_bytes() == want.encode()

    @pytest.mark.parametrize("kind", ["otto", "stirling"])
    def test_sweep_plots(self, tmp_path, kind):
        code, out = run(tmp_path, "sweep", "--cycle", kind, "--alpha", "1.5", "--plots", *FAST)
        assert code == EXIT_OK
        assert json.loads((out / "run-manifest.json").read_text())["outputs"] == [
            "sweep.csv", "sweep.gp"]
        header = (out / "sweep.csv").read_text().split("\n")[0].split(",")
        assert header[1:3] == ["R_W", "R_eta"]
        script = (out / "sweep.gp").read_text()
        assert "set output 'sweep.png'" in script
        assert "plot 'sweep.csv' using 1:2 with lines, 'sweep.csv' using 1:3 with lines\n" in script

    def test_regions_csv(self, tmp_path):
        code, out = run(tmp_path, "regions", "--cycle", "otto", "--alpha", "1.05",
                        "--beta-c", "5", *FAST)
        assert code == EXIT_OK
        lines = (out / "regions.csv").read_text().strip().split("\n")
        assert lines[0] == "mu_ratio,beta_ratio,enhanced"
        assert len(lines) == 1 + 21 * 99
        assert set(line.rsplit(",", 1)[1] for line in lines[1:]) <= {"0", "1"}


class TestExitCodes:
    def test_schematic_figure_is_usage_error(self, tmp_path):
        code, _ = run(tmp_path, "reproduce-figure", "2")
        assert code == EXIT_CONFIG

    def test_gapless_winding_is_contract_error(self, tmp_path):
        # mu=1 short-range: gap closes on the integration grid.
        code, _ = run(tmp_path, "winding", "--alpha", "inf", "--mu", "1", "--L", "200")
        assert code == EXIT_CONTRACT

    @pytest.mark.parametrize("argv, message", [
        (["stirling", "--alpha", "1.5", "--L", "200", "--Delta", "1e308"],
         "lrk: the stirling cycle overflows: Q_III=nan, W=nan\n"),
        (["otto", "--alpha", "inf", "--L", "200", "--J", "1e308", "--mu-i", "1e308"],
         "lrk: the otto cycle overflows: Q_h=nan, W=nan\n"),
        (["spectrum", "--alpha", "1.5", "--L", "8", "--J", "1e308", "--mu-min", "1e308",
          "--mu-max", "1.5e308", "--mu-steps", "2"],
         "lrk: a level of the spectrum scan overflows to inf\n"),
    ])
    def test_overflow_is_contract_error(self, tmp_path, capsys, argv, message):
        # Finite inputs that overflow: one line, no NaN or inf written, no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(tmp_path, *argv)
        assert code == EXIT_CONTRACT
        assert not out.exists()
        assert capsys.readouterr().err == message

    def test_json_rejects_non_finite(self, tmp_path):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(NonFiniteResultError):
                _write_json(tmp_path / "x.json", {"W": value})
            assert not (tmp_path / "x.json").exists()

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[lrk]\nnot_a_key = 3\n")
        code, _ = run(tmp_path, "otto", "--alpha", "1.05", "--config", str(cfg))
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("key, value", [
        ("beta_c", "abc"), ("alpha", "abc"), ("L", "2.5"), ("L", "abc"), ("cycle", "carnot"),
        ("mu_steps", "0"), ("mu_steps", "-3"),
    ])
    def test_bad_config_value(self, tmp_path, capsys, key, value):
        # argparse reads the value as the flag's, and its message names the flag.
        entries = {"alpha": "1.05", "L": "200", "mu_steps": "21", key: value}
        code, out = run(tmp_path, "sweep", "--config", write_config(tmp_path, entries))
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert f"argument --{key.replace('_', '-')}: " in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        pytest.param(["regions", "--alpha", "0.5"], id="regions-alpha-0.5"),
        pytest.param(["sweep", "--alpha", "1.05", "--beta-c", "nan"], id="sweep-beta-c-nan"),
        pytest.param(["sweep", "--alpha", "1.05", "--mu-i", "-1"], id="sweep-mu-i-negative"),
        *[pytest.param(["sweep", "--cycle", kind, "--alpha", "1.05", "--beta-ratio", ratio],
                       id=f"sweep-{kind}-beta-ratio-{ratio}")
          for kind in ("otto", "stirling") for ratio in ("1.5", "-0.2", "0")],
    ])
    def test_sweep_domain(self, tmp_path, argv):
        code, out = run(tmp_path, *argv, *FAST)
        assert code == EXIT_CONFIG
        assert not out.exists()

    def test_refused_run_removes_only_what_it_made(self, tmp_path):
        # Every directory the run created goes; one that existed stays, as it was.
        argv = ["sweep", "--alpha", "0.5", *FAST, "-o"]
        assert main(argv + [str(tmp_path / "a" / "b")]) == EXIT_CONFIG
        assert not (tmp_path / "a").exists()
        (tmp_path / "kept").mkdir()
        (tmp_path / "kept" / "old.txt").write_text("old")
        assert main(argv + [str(tmp_path / "kept")]) == EXIT_CONFIG
        assert main(argv + [str(tmp_path / "kept" / "new")]) == EXIT_CONFIG
        assert [p.name for p in (tmp_path / "kept").iterdir()] == ["old.txt"]

    def test_worker_process_died(self, tmp_path, capsys, monkeypatch):
        # A worker killed outright (say by the OOM killer) is a config error,
        # on either cycle.  With workers > 1 only the workers build the
        # surfaces.
        monkeypatch.setattr(sweep, "_surface", lambda *args: os._exit(1))
        monkeypatch.setattr(sweep, "default_beta_ratio_grid", lambda: np.array([0.2, 0.4]))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        for kind in ("otto", "stirling"):
            code, out = run(tmp_path / kind, "optimal", "--cycle", kind, "--workers", "2", *FAST)
            assert code == EXIT_CONFIG, kind
            err = capsys.readouterr().err
            assert err.startswith("lrk: config error: a worker process died"), kind
            assert "Traceback" not in err
            assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--alpha", "1.5", "--L", "200", "--mu-steps", "-3"],
        ["spectrum", "--alpha", "1.5", "--L", "200", "--mu-steps", "0"],
        ["sweep", "--alpha", "1.5", "--L", "200", "--mu-steps", "-3"],
    ])
    def test_mu_steps_not_positive(self, tmp_path, argv):
        assert run(tmp_path, *argv)[0] == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--alpha", "1.5", "--L", "200", "--format", "json"],
        ["winding", "--alpha", "4", "--L", "200", "--plots"],
        ["reproduce-figure", "3", "--plots"],
        ["spectrum", "--alpha", "1.5", "--L", "200", "--workers", "2"],
    ])
    def test_flag_of_another_subcommand(self, tmp_path, argv):
        assert run(tmp_path, *argv)[0] == EXIT_CONFIG

    def test_usage_errors_return_codes(self, tmp_path, capsys):
        # argparse's exits come back as main's return value, not SystemExit;
        # an unknown flag is test_flag_of_another_subcommand.
        out = str(tmp_path / "out")
        assert main(["regions", "--cycle", "carnot", "--alpha", "1.5", "-o", out]) == EXIT_CONFIG
        assert main(["--version"]) == EXIT_OK
        assert main(["optimal", "--help"]) == EXIT_OK
        assert not (tmp_path / "out").exists()
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("flag, field", [
        (["--workers", "0"], "workers must be >= 1, got 0"),
        (["--beta-c", "nan"], "beta_c must be finite and > 0, got nan"),
    ])
    def test_config_error_names_field(self, tmp_path, capsys, flag, field):
        code, _ = run(tmp_path, "optimal", *flag, "--L", "20", "--mu-steps", "11")
        assert code == EXIT_CONFIG
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("figure, flag", [
        *[(n, flag) for n in (1, 3) for flag in (
            ["--L", "200"], ["--mu-i", "1.5"], ["--beta-c", "1"], ["--beta-ratio", "0.3"],
            ["--mu-steps", "21"], ["--workers", "2"], ["--dense"])],
        *[(n, ["--mu-steps", "21"]) for n in (5, 9)],
        *[(n, ["--beta-ratio", "0.3"]) for n in (6, 7, 10)],
        *[(n, ["--beta-c", "1"]) for n in (4, 5, 7, 8, 9)],
        *[(n, ["--workers", "2"]) for n in (4, 5, 6, 8, 9, 10)],
        (7, ["--dense"]),
        (7, ["--workers", "2"]),
    ])
    def test_figure_flag_not_read(self, tmp_path, figure, flag):
        code, out = run(tmp_path, "reproduce-figure", str(figure), *flag)
        assert code == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("figure, flag", [
        (n, flag) for n, reads in (
            (1, ()), (3, ()),
            (4, ("--L", "--mu-i", "--mu-steps", "--beta-ratio", "--dense")),
            (5, ("--L", "--mu-i", "--beta-ratio", "--dense")),
            (6, ("--L", "--mu-i", "--mu-steps", "--beta-c", "--dense")),
            (7, ("--L", "--mu-i", "--mu-steps")),
            (8, ("--L", "--mu-i", "--mu-steps", "--beta-ratio", "--dense")),
            (9, ("--L", "--mu-i", "--beta-ratio", "--dense")),
            (10, ("--L", "--mu-i", "--mu-steps", "--beta-c", "--dense")),
        ) for flag in ("--config", "-o", "--J", "--Delta", *reads)
    ])
    def test_figure_reads_flag(self, figure, flag):
        # The twin of test_figure_flag_not_read: figure n parses every flag
        # that README's figure table says it reads.
        value = {"--config": "run.ini", "-o": "out", "--L": "200", "--mu-steps": "21",
                 "--dense": None}.get(flag, "0.5")
        parser, runs = _build_parser()
        args = parser.parse_args(["reproduce-figure", str(figure), flag]
                                 + ([] if value is None else [value]))
        dest = runs[f"reproduce-figure {figure}"]._option_string_actions[flag].dest
        assert args.figure == figure and getattr(args, dest) is not None

    def test_figure_config_key_not_read(self, tmp_path):
        cfg = write_config(tmp_path, {"mu_steps": "21"})
        code, _ = run(tmp_path, "reproduce-figure", "5", "--config", cfg)
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("kind", ["otto", "stirling"])
    @pytest.mark.parametrize("flag", [
        ["--plots"], ["--mu-steps", "21"], ["--workers", "2"],
        ["--sweep-mu", "--mu-f", "1.0"], ["--sweep-mu", "--mu-ratio", "0.5"],
        ["--mu-f", "1.0", "--mu-ratio", "0.5"],
    ])
    def test_cycle_flag_not_read(self, tmp_path, kind, flag):
        code, _ = run(tmp_path, kind, "--alpha", "1.5", "--L", "200", *flag)
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [
        ["sweep", "--cycle", "otto"],
        ["sweep", "--cycle", "stirling", "--format", "json"],
        ["sweep"],
        ["sweep", "--cycle", "stirling", "--plots"],
        ["regions", "--cycle", "otto"],
        ["regions"],
        ["regions", "--cycle", "stirling"],
    ])
    def test_sweep_workers_not_read(self, tmp_path, argv):
        # Only optimal runs a worker pool: neither the flag nor the config
        # key is accepted anywhere else.
        cfg = write_config(tmp_path, {"workers": "2"})
        for extra in (["--workers", "2"], ["--config", cfg]):
            code, out = run(tmp_path, *argv, "--alpha", "1.5", *extra, *FAST)
            assert code == EXIT_CONFIG
            assert not out.exists()

    @pytest.mark.parametrize("flags, entries", [
        (["--mu-f", "1.0", "--mu-ratio", "0.5"], {}),
        (["--mu-f", "1.0"], {"mu_ratio": "0.5"}),
        (["--mu-ratio", "0.5"], {"mu-f": "1.0"}),
        ([], {"mu-f": "1.0", "mu_ratio": "0.5"}),
    ])
    def test_mu_f_with_mu_ratio(self, tmp_path, flags, entries):
        # Both set mu_f, from flags or the config file, so the run is refused.
        cfg = write_config(tmp_path, {"alpha": "1.5", "L": "200", **entries})
        for kind in ("otto", "stirling"):
            code, out = run(tmp_path / kind, kind, "--config", cfg, *flags)
            assert code == EXIT_CONFIG
            assert not out.exists()

    def test_sweep_plots_with_json(self, tmp_path, capsys):
        code, out = run(tmp_path, "sweep", "--alpha", "1.5", "--plots", "--format", "json", *FAST)
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert "--plots" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand, key, value", [
        ("spectrum", "format", "json"), ("winding", "plots", "1"),
    ])
    def test_config_key_of_another_subcommand(self, tmp_path, subcommand, key, value):
        cfg = write_config(tmp_path, {"alpha": "1.5", "L": "200", key: value})
        code, out = run(tmp_path, subcommand, "--config", cfg)
        assert code == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("figure", "9"), ("subcommand", "spectrum"),
                                            ("help", "1"), ("config", "other.ini")])
    def test_run_selector_is_no_config_key(self, tmp_path, key, value):
        # The words that choose the run are not flags, so not config keys.
        cfg = write_config(tmp_path, {key: value})
        code, out = run(tmp_path, "reproduce-figure", "3", "--config", cfg)
        assert code == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_alpha_message(self, tmp_path, capsys, source):
        # The message names the accepted forms, not the parsing function.
        if source == "flag":
            code, out = run(tmp_path, "sweep", "--alpha", "abc", *FAST)
        else:
            code, out = run(tmp_path, "sweep", "--config", write_config(tmp_path, {"alpha": "abc"}))
        assert code == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert "argument --alpha: " in err and "'inf'" in err and "'abc'" in err
        assert "_parse_alpha" not in err and "Traceback" not in err

    def test_missing_section(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[other]\nL = 8\n")
        code, _ = run(tmp_path, "otto", "--alpha", "1.05", "--config", str(cfg))
        assert code == EXIT_CONFIG

    def test_request_too_large_for_memory(self, tmp_path, capsys):
        # numpy refuses the 72 TiB grid at once, so no memory is touched.
        code, _ = run(tmp_path, "winding", "--alpha", "1.5", "--L", "20",
                      "--grid-density", str(10**13))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("lrk: config error: ") and "Traceback" not in err

    def test_invalid_parameter(self, tmp_path):
        code, _ = run(tmp_path, "otto", "--alpha", "1.05", "--L", "7")
        assert code == EXIT_CONFIG


class TestConfigFile:
    def test_percent_value_taken_as_written(self, tmp_path, capsys):
        # A value holding % is not interpolated: the run writes to out%1.
        cfg = write_config(tmp_path, {"alpha": "4", "L": "200", "grid-density": "2000",
                                      "output-dir": str(tmp_path / "out%1")})
        assert main(["winding", "--config", cfg]) == EXIT_OK
        assert (tmp_path / "out%1" / "run-manifest.json").is_file()
        assert "Traceback" not in capsys.readouterr().err

    def test_malformed_file_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[lrk]\nalpha = 1.5\nalpha = 2\n")
        code, out = run(tmp_path, "winding", "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("lrk: config error: ") and "Traceback" not in err

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[lrk]\nL = 200\nalpha = 1.05\nbeta_c = 5\nbeta_ratio = 0.2\nmu_ratio = 0.7\n")
        code1, out1 = run(tmp_path / "a", "otto", "--config", str(cfg))
        assert code1 == EXIT_OK
        code2, out2 = run(tmp_path / "b", "otto", "--config", str(cfg), "--mu-ratio", "0.9")
        assert code2 == EXIT_OK
        w1 = json.loads((out1 / "otto.json").read_text())["W"]
        w2 = json.loads((out2 / "otto.json").read_text())["W"]
        assert w1 != w2

    @pytest.mark.parametrize("value", ["ture", "2", "enabled"])
    def test_bad_on_off_value(self, tmp_path, value):
        cfg = write_config(tmp_path, {"plots": value})
        code, out = run(tmp_path, "regions", "--cycle", "otto", "--alpha", "1.5",
                        "--config", cfg, *FAST)
        assert code == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("on, off", [("1", "0"), ("True", "False"), ("yes", "no"),
                                         ("ON", "Off")])
    def test_on_off_values(self, tmp_path, on, off):
        # An off value counts as absent; otto has no --plots, so a plots key
        # is unknown to it, on or off.
        for value, gp in ((on, True), (off, False)):
            cfg = write_config(tmp_path, {"plots": value})
            code, out = run(tmp_path / "regions" / value, "regions", "--cycle", "otto",
                            "--alpha", "1.5", "--config", cfg, *FAST)
            assert code == EXIT_OK
            assert (out / "regions.gp").exists() == gp
            code, _ = run(tmp_path / "otto" / value, "otto", "--alpha", "1.5", "--L", "200",
                          "--config", cfg)
            assert code == EXIT_CONFIG

    @pytest.mark.parametrize("argv, key, name", [
        pytest.param(["winding", "--alpha", "1.5", "--L", "200"], "mu", "winding.json",
                     id="winding-mu"),
        pytest.param(["spectrum", "--alpha", "1.5", "--L", "200", "--mu-steps", "5"], "mu-min",
                     "spectrum.csv", id="spectrum-mu-min"),
    ])
    def test_value_read_as_an_option(self, tmp_path, argv, key, name):
        # argparse takes the "-1e-3" of "--mu -1e-3" for an option; a file value is
        # passed joined, as "--mu=-1e-3".
        cfg = write_config(tmp_path, {key: "-1e-3"})
        code, out = run(tmp_path / "file", *argv, "--config", cfg)
        assert code == EXIT_OK
        code, want = run(tmp_path / "flag", *argv, f"--{key}=-1e-3")
        assert code == EXIT_OK
        assert (out / name).read_bytes() == (want / name).read_bytes()

    def test_workers_only_on_optimal(self):
        _, runs = _build_parser()
        have = {name for name, sub in runs.items()
                if any(a.dest == "workers" for a in sub._actions)}
        assert have == {"optimal"}

    def test_every_flag_is_a_config_key(self, tmp_path):
        # Each flag a subcommand, or figure n, declares is a config key spelled
        # as the flag; a run may still reject the key's value.
        parser, runs = _build_parser()
        for name, sub in runs.items():
            for action in sub._actions:
                flags = [o for o in action.option_strings if o.startswith("--")]
                if not flags or action.dest in ("help", "config"):
                    continue
                value = "true" if action.nargs == 0 else (action.choices or ("1",))[0]
                cfg = write_config(tmp_path, {flags[0][2:]: value})
                args = parser.parse_args(name.split() + ["--config", cfg])
                try:
                    _file_argv(cfg, sub)
                except ConfigError as exc:
                    assert "unknown config key" not in str(exc), (name, flags[0])

    def test_workers_precedence(self, tmp_path):
        # The --workers flag, then the config file.
        cfg = write_config(tmp_path, {"workers": "2"})

        def recorded(name, *extra):
            code, out = run(tmp_path / name, "optimal", "--cycle", "otto", "--L", "20",
                            "--mu-steps", "11", "--config", cfg, *extra)
            assert code == EXIT_OK
            return json.loads((out / "run-manifest.json").read_text())["inputs"]["workers"]

        assert recorded("flag", "--workers", "1") == 1
        assert recorded("file") == 2


class TestManifest:
    def test_round_trip_byte_identical(self, tmp_path):
        code, out = run(tmp_path / "first", "sweep", "--cycle", "stirling",
                        "--alpha", "1.5", "--beta-c", "5", "--beta-ratio", "0.2", *FAST)
        assert code == EXIT_OK
        manifest = json.loads((out / "run-manifest.json").read_text())
        argv = [a for a in manifest["argv"]]
        # Re-run the recorded argv into a fresh directory.
        i = argv.index("-o")
        argv[i + 1] = str(tmp_path / "second" / "out")
        assert main(argv) == EXIT_OK
        first = (out / "sweep.csv").read_bytes()
        second = (tmp_path / "second" / "out" / "sweep.csv").read_bytes()
        assert first == second

    def test_manifest_lists_outputs(self, tmp_path):
        code, out = run(tmp_path, "regions", "--cycle", "otto", "--alpha", "1.5",
                        "--plots", *FAST)
        assert code == EXIT_OK
        manifest = json.loads((out / "run-manifest.json").read_text())
        assert manifest["tool"] == "lrk"
        for name in manifest["outputs"]:
            assert (out / name).exists()
        assert "regions.gp" in manifest["outputs"]


    def test_optimal_records_blas_pin(self, tmp_path, monkeypatch):
        # An optimal run records whether its forked parts run BLAS on one
        # thread; no other run does.
        for pinned in (True, False):
            monkeypatch.setattr(sweep, "_blas_threads_setter",
                                lambda: (lambda n: None) if pinned else None)
            code, out = run(tmp_path / str(pinned), "optimal", "--cycle", "otto", "--L", "20",
                            "--mu-steps", "11", "--workers", "2")
            assert code == EXIT_OK
            manifest = json.loads((out / "run-manifest.json").read_text())
            assert manifest["forked_parts_pin_blas"] is pinned
        code, out = run(tmp_path / "sweep", "sweep", "--cycle", "otto", "--alpha", "1.5", *FAST)
        assert code == EXIT_OK
        assert "forked_parts_pin_blas" not in json.loads((out / "run-manifest.json").read_text())

class TestFigures:
    def test_figure_3_panels(self, tmp_path):
        code, out = run(tmp_path, "reproduce-figure", "3")
        assert code == EXIT_OK
        for tag in "abcd":
            lines = (out / f"fig3{tag}.csv").read_text().strip().split("\n")
            assert lines[0] == "mu_ratio,k_over_pi,energy"
            assert len(lines) > 1000
            assert (out / f"fig3{tag}.gp").exists()

    @pytest.mark.parametrize("figure, header, rows", [
        (5, "alpha,mu_ratio,dQ_rel,xi", [40 * 6] * 2),
        (6, MAX_RATIO_HEADER, [6 * 4, 6 * 49]),
        (7, "mu_ratio,beta_ratio,enhanced", [21 * 99] * 6),
        (8, "alpha,mu_ratio,R_W,R_eta,dQ_rel,xi,engine_lr,engine_sr", [6 * 21] * 4),
        (9, "alpha,mu_ratio,dQ_rel,xi", [40 * 6] * 2),
        (10, MAX_RATIO_HEADER, [6 * 4, 6 * 49]),
    ])
    def test_figure_tables(self, tmp_path, figure, header, rows):
        """Every CSV in the manifest has its header and one row per grid cell;
        maximum-ratio tables drop the cells with too few engine-valid points."""
        # Figures 5 and 9 fix their mu_f/mu_i values, so they take no --mu-steps.
        argv = ["--L", "200"] if figure in (5, 9) else FAST
        code, out = run(tmp_path, "reproduce-figure", str(figure), *argv)
        assert code == EXIT_OK
        names = [n for n in json.loads((out / "run-manifest.json").read_text())["outputs"]
                 if n.endswith(".csv")]
        assert len(names) == len(rows)
        for name, n in zip(names, rows):
            lines = (out / name).read_text().split("\n")
            assert lines[0] == header and lines[-1] == ""
            if header == MAX_RATIO_HEADER:
                assert 1 <= len(lines) - 2 <= n
            else:
                assert len(lines) - 2 == n

    def test_figure_4_panels(self, tmp_path):
        code, out = run(tmp_path, "reproduce-figure", "4", *FAST)
        assert code == EXIT_OK
        header = "alpha,mu_ratio,R_W,R_eta,dQ_rel,xi,engine_lr,engine_sr"
        for tag in "abcd":
            lines = (out / f"fig4{tag}.csv").read_text().strip().split("\n")
            assert lines[0] == header
            # 6 alpha values x 21 mu points
            assert len(lines) == 1 + 6 * 21
