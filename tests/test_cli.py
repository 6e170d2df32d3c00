"""End-to-end tests of the lrk command line: dispatch, formats, config
handling, exit codes, and manifest round-trips."""

import json
import re

import numpy as np
import pytest

from lrkengine import (
    BathPair,
    ChainParams,
    CycleSpec,
    otto_cycle,
    spectrum_scan,
    winding_number,
)
from lrkengine.cli import EXIT_CONFIG, EXIT_CONTRACT, EXIT_OK, main

FAST = [
    "--L", "200", "--mu-steps", "21",
]

MAX_RATIO_HEADER = "alpha,beta_ratio,R_W_max,R_eta_max,arg_W,arg_eta"


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main(list(argv) + ["-o", str(out)])
    return code, out


def exit_code(tmp_path, *argv):
    """The exit status of ``lrk argv``: returned by main, or raised by argparse."""
    try:
        return run(tmp_path, *argv)[0]
    except SystemExit as exc:
        return exc.code


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
        scan = spectrum_scan(ChainParams(L=200, alpha=1.5), np.linspace(-4.0, 4.0, 5))
        for b, (mu, levels) in enumerate(scan):
            block = cells[200 * b : 200 * (b + 1)]
            assert all(float(c[0]) == mu for c in block)
            assert np.array_equal([float(c[2]) for c in block], levels)

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

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[lrk]\nnot_a_key = 3\n")
        code, _ = run(tmp_path, "otto", "--alpha", "1.05", "--config", str(cfg))
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("key, value", [
        ("beta_c", "abc"), ("alpha", "abc"), ("L", "2.5"), ("cycle", "carnot"),
        ("mu_steps", "0"), ("mu_steps", "-3"),
    ])
    def test_bad_config_value(self, tmp_path, key, value):
        entries = {"alpha": "1.05", "L": "200", "mu_steps": "21", key: value}
        code, _ = run(tmp_path, "sweep", "--config", write_config(tmp_path, entries))
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [
        pytest.param(["regions", "--alpha", "0.5"], id="regions-alpha-0.5"),
        pytest.param(["sweep", "--alpha", "1.05", "--beta-c", "nan"], id="sweep-beta-c-nan"),
        pytest.param(["sweep", "--alpha", "1.05", "--mu-i", "-1"], id="sweep-mu-i-negative"),
        *[pytest.param(["sweep", "--cycle", kind, "--alpha", "1.05", "--beta-ratio", ratio],
                       id=f"sweep-{kind}-beta-ratio-{ratio}")
          for kind in ("otto", "stirling") for ratio in ("1.5", "-0.2", "0")],
    ])
    def test_sweep_domain(self, tmp_path, argv):
        code, _ = run(tmp_path, *argv, *FAST)
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--alpha", "1.5", "--L", "200", "--mu-steps", "-3"],
        ["spectrum", "--alpha", "1.5", "--L", "200", "--mu-steps", "0"],
        ["sweep", "--alpha", "1.5", "--L", "200", "--mu-steps", "-3"],
    ])
    def test_mu_steps_not_positive(self, tmp_path, argv):
        assert exit_code(tmp_path, *argv) == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--alpha", "1.5", "--L", "200", "--format", "json"],
        ["winding", "--alpha", "4", "--L", "200", "--plots"],
        ["reproduce-figure", "3", "--plots"],
        ["spectrum", "--alpha", "1.5", "--L", "200", "--workers", "2"],
    ])
    def test_flag_of_another_subcommand(self, tmp_path, argv):
        assert exit_code(tmp_path, *argv) == EXIT_CONFIG

    @pytest.mark.parametrize("figure, flag", [
        *[(n, flag) for n in (1, 3) for flag in (
            ["--L", "200"], ["--mu-i", "1.5"], ["--beta-c", "1"], ["--beta-ratio", "0.3"],
            ["--mu-steps", "21"], ["--workers", "2"], ["--dense"])],
        *[(n, ["--mu-steps", "21"]) for n in (5, 9)],
        *[(n, ["--beta-ratio", "0.3"]) for n in (6, 7, 10)],
        *[(n, ["--beta-c", "1"]) for n in (4, 5, 7, 8, 9)],
        *[(n, ["--workers", "2"]) for n in (4, 5, 6, 8, 9, 10)],
        (7, ["--dense"]),
    ])
    def test_figure_flag_not_read(self, tmp_path, figure, flag):
        code, out = run(tmp_path, "reproduce-figure", str(figure), *flag)
        assert code == EXIT_CONFIG
        assert not out.exists() or not any(out.iterdir())

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
        ["otto", "--sweep-mu"],
        ["stirling", "--sweep-mu"],
    ])
    def test_sweep_workers_not_read(self, tmp_path, argv):
        # One sweep_mu table takes no worker pool: neither the flag nor the
        # config key is read.
        cfg = write_config(tmp_path, {"workers": "2"})
        for extra in (["--workers", "2"], ["--config", cfg]):
            code, out = run(tmp_path, *argv, "--alpha", "1.5", *extra, *FAST)
            assert code == EXIT_CONFIG
            assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("subcommand, key, value", [
        ("spectrum", "format", "json"), ("winding", "plots", "1"),
    ])
    def test_config_key_of_another_subcommand(self, tmp_path, subcommand, key, value):
        cfg = write_config(tmp_path, {"alpha": "1.5", "L": "200", key: value})
        code, out = run(tmp_path, subcommand, "--config", cfg)
        assert code == EXIT_CONFIG
        assert not out.exists() or not any(out.iterdir())

    def test_missing_section(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[other]\nL = 8\n")
        code, _ = run(tmp_path, "otto", "--alpha", "1.05", "--config", str(cfg))
        assert code == EXIT_CONFIG

    def test_invalid_parameter(self, tmp_path):
        code, _ = run(tmp_path, "otto", "--alpha", "1.05", "--L", "7")
        assert code == EXIT_CONFIG


class TestConfigFile:
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

    def test_env_workers_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LRK_WORKERS", "3")
        code, out = run(tmp_path, "sweep", "--cycle", "otto", "--alpha", "1.05", *FAST)
        assert code == EXIT_OK
        manifest = json.loads((out / "run-manifest.json").read_text())
        assert manifest["inputs"]["workers"] == 3


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
