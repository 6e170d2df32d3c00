"""Workloads of the lrkengine benchmark: seeded inputs, one op each, and
verification of every op's output independently of the code under test.

Every workload is a closed loop with one client: an op starts only after the
previous one has finished.  Op ``i`` of a stream is derived from
``(seed, stream, i)`` alone, so it is the same however many ops a run gets
through.  Ops call only the public API that the roadmap keeps:
``optimal_condition(config)``, ``otto_cycle``, ``stirling_cycle``,
``ratio_diagnostics``, ``winding_number`` and ``cli.main``; no op passes a
``ReferenceCache``.

Tolerances used by the checks:

* ``RTOL = 1e-12`` relative (the roadmap's agreement rule) for the Otto first
  law (scale max(|W|, |Q_h|, |Q_c|)), for ratios re-evaluated with the scalar
  cycles and for CSV levels against the independent dispersion (scale
  max(|level|, J)).
* ``STIRLING_FIRST_LAW_RTOL = 1e-10``: the Stirling closed-form W and the sum
  of the four process heats differ by cancellation between ln cosh and
  eps tanh terms; criterion 3 of the acceptance gate uses the same bound.
* Pairing sums match ``math.fsum`` within ``RTOL`` times sum_l |sin(k l)| w_l,
  the condition scale of the sum.
* Carnot bound: eta <= 1 - beta_h/beta_c + ``RTOL`` (absolute).
* Winding residual <= ``WINDING_RESIDUAL_MAX = 1e-3`` at gapped points.
"""

import hashlib
import math
import os
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

L = 2000
MU_I = 2.0
ALPHA_RANGE = (1.025, 6.0)
BETA_CS = (5.0, 0.05)
WINDING_L = 200
WINDING_GRID = 20_000
SPECTRUM_MU_STEPS = 201
FSUM_SAMPLES = 3
CSV_SAMPLED_MU = 3

RTOL = 1e-12
STIRLING_FIRST_LAW_RTOL = 1e-10
WINDING_RESIDUAL_MAX = 1e-3

STREAM_WARMUP, STREAM_MEASURE, STREAM_TRACE = 0, 1, 2


def import_engine():
    """Import lrkengine from this checkout's ``src/``, never from elsewhere."""
    pkg_dir = SRC / "lrkengine"
    if not (pkg_dir / "__init__.py").is_file():
        raise FileNotFoundError(f"lrkengine sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import lrkengine
    import lrkengine.cli  # noqa: F401  (the cli module is not imported by the package)

    if Path(lrkengine.__file__).resolve().parent != pkg_dir.resolve():
        raise ImportError(f"lrkengine imported from {lrkengine.__file__}, not {pkg_dir}")
    return lrkengine


def available_cpus() -> int:
    return len(os.sched_getaffinity(0))


def _rng(seed, stream, i):
    return np.random.default_rng([seed % 2**63, stream, i])


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


def _fsum_pairing(k, alpha, length):
    """Literal pairing sum f(k) = sum_l sin(k l)/d_l^alpha and its scale."""
    terms = []
    for ell in range(1, length):
        d = min(ell, length - ell)
        terms.append(math.sin(k * ell) / d**alpha)
    return math.fsum(terms), math.fsum(abs(t) for t in terms)


def _check_pairing(lrk, problems, alpha, length, rng):
    """Compare ``pairing_function`` with math.fsum at sampled grid momenta."""
    n = rng.integers(1, length // 2 + 1, size=FSUM_SAMPLES)
    ks = np.pi * (2 * n - 1) / length
    got = lrk.pairing_function(ks, lrk.ChainParams(L=length, alpha=alpha))
    for k, f in zip(ks, got):
        ref, scale = _fsum_pairing(float(k), alpha, length)
        if not abs(f - ref) <= RTOL * scale:
            problems.append(f"pairing f({k:.6g}) L={length} alpha={alpha:.6g}: {f!r} vs fsum {ref!r}")


def _check_scalar_cycle(problems, res, kind):
    """First law and Carnot bound of one scalar cycle result."""
    if kind == "otto":
        scale = max(abs(res.W), abs(res.Q_h), abs(res.Q_c))
        err, tol = abs(res.W - (res.Q_h + res.Q_c)), RTOL * scale
    else:
        scale = max(abs(res.W), abs(res.Q_I), abs(res.Q_II), abs(res.Q_III), abs(res.Q_IV))
        err = abs(res.W - (res.Q_I + res.Q_II + res.Q_III + res.Q_IV))
        tol = STIRLING_FIRST_LAW_RTOL * scale
    if not err <= tol:
        problems.append(f"{kind} first law: residual {err:.3e} > {tol:.3e}")
    baths = res.spec.baths
    carnot = 1.0 - baths.beta_h / baths.beta_c
    if res.engine_valid and not res.eta <= carnot + RTOL:
        problems.append(f"{kind} Carnot bound: eta {res.eta!r} > {carnot!r}")


def _close(a, b, rtol=RTOL):
    return abs(a - b) <= rtol * abs(b)


class Workload:
    name = ""
    threads = 1  # threads an op keeps busy


    def make_input(self, seed, stream, i):
        raise NotImplementedError

    def run(self, lrk, inp, workdir):
        """The op: the only code inside the timed region."""
        raise NotImplementedError

    def check(self, lrk, inp, out, workdir):
        """Return (problems, digest) for one op's output; never timed."""
        raise NotImplementedError

    def inputs(self, seed, stream, n):
        return [self.make_input(seed, stream, i) for i in range(n)]


class GridWorkload(Workload):
    """``optimal_condition`` over 2 seeded alphas x 99 beta ratios x 201 mu ratios."""

    def __init__(self, name, kind, workers):
        self.name, self.kind = name, kind
        self.threads = min(workers, available_cpus())

    def make_input(self, seed, stream, i):
        rng = _rng(seed, stream, i)
        alphas = tuple(sorted(float(a) for a in rng.uniform(*ALPHA_RANGE, size=2)))
        # beta_c alternates along the stream from a seeded phase, so every run
        # mixes the two bath temperatures in equal parts.
        phase = int(_rng(seed, stream, 2**32 - 1).integers(2))
        return {
            "check_seed": int(rng.integers(2**31)),
            "kind": self.kind,
            "alphas": alphas,
            "beta_c": BETA_CS[(phase + i) % 2],
            "workers": self.threads,
        }

    def config(self, lrk, inp):
        return lrk.SweepConfig(
            cycle_kind=inp["kind"],
            base=lrk.ChainParams(L=L, alpha=2.0),
            mu_i=MU_I,
            alpha_grid=inp["alphas"],
            beta_c=inp["beta_c"],
            workers=inp["workers"],
        )

    def run(self, lrk, inp, workdir):
        return lrk.optimal_condition(self.config(lrk, inp))

    def check(self, lrk, inp, out, workdir):
        problems = []
        rng = np.random.default_rng(inp["check_seed"])
        for alpha in inp["alphas"]:
            _check_pairing(lrk, problems, alpha, L, rng)
        cfg = self.config(lrk, inp)
        cells = (
            ("W", out.alpha_star_W, out.beta_ratio_star_W, out.R_W_max),
            ("eta", out.alpha_star_eta, out.beta_ratio_star_eta, out.R_eta_max),
        )
        columns = {}
        for which, alpha, beta_ratio, r_max in cells:
            if (alpha, beta_ratio) not in columns:
                columns[alpha, beta_ratio] = self._column_ratios(lrk, problems, cfg, alpha, beta_ratio)
            if not any(_close(r, r_max) for r in columns[alpha, beta_ratio][which]):
                problems.append(
                    f"R_{which}_max {r_max!r} at alpha={alpha!r}, beta_h/beta_c={beta_ratio!r} "
                    "matches no engine-valid scalar re-evaluation"
                )
        digest = _digest(
            (out.alpha_star_W, out.beta_ratio_star_W, out.alpha_star_eta,
             out.beta_ratio_star_eta, out.R_W_max, out.R_eta_max, bool(out.coincident))
        )
        return problems, digest

    def _column_ratios(self, lrk, problems, cfg, alpha, beta_ratio):
        """R_W and R_eta of scalar long- and short-range cycles along the mu grid."""
        cycle = lrk.otto_cycle if cfg.cycle_kind == "otto" else lrk.stirling_cycle
        baths = lrk.BathPair(beta_h=beta_ratio * cfg.beta_c, beta_c=cfg.beta_c)
        lr_base = lrk.ChainParams(L=L, alpha=alpha)
        sr_base = lrk.ChainParams(L=L, alpha=lrk.SHORT_RANGE)
        ratios = {"W": [], "eta": []}
        for r in cfg.mu_ratio_grid:
            mu_f = r * cfg.mu_i
            lr = cycle(lrk.CycleSpec(base=lr_base, mu_i=cfg.mu_i, mu_f=mu_f, baths=baths))
            sr = cycle(lrk.CycleSpec(base=sr_base, mu_i=cfg.mu_i, mu_f=mu_f, baths=baths))
            _check_scalar_cycle(problems, lr, cfg.cycle_kind)
            _check_scalar_cycle(problems, sr, cfg.cycle_kind)
            if lr.engine_valid and sr.engine_valid:
                ratios["W"].append(lr.W / sr.W)
                ratios["eta"].append(lr.eta / sr.eta)
        return ratios


class PointScanWorkload(Workload):
    """One random physical point: both cycles, their short-range twins, the
    ratio diagnostics and a winding number."""

    name = "point-scan"
    def make_input(self, seed, stream, i):
        rng = _rng(seed, stream, i)
        alpha = float(rng.uniform(*ALPHA_RANGE))
        check_seed = int(rng.integers(2**31))
        mu_i = float(rng.uniform(0.5, 3.0))
        beta_c = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
        # Winding points stay off the gap closings at |mu| = J.
        mag = float(rng.uniform(0.0, 2.1))
        mag = mag + 0.3 if mag >= 0.85 else mag
        return {
            "check_seed": check_seed,
            "alpha": alpha,
            "mu_i": mu_i,
            "mu_f": float(rng.uniform(0.0, 1.0)) * mu_i,
            "beta_h": float(rng.uniform(0.05, 0.95)) * beta_c,
            "beta_c": beta_c,
            "winding_mu": mag if rng.integers(2) else -mag,
        }

    def run(self, lrk, inp, workdir):
        baths = lrk.BathPair(beta_h=inp["beta_h"], beta_c=inp["beta_c"])
        out = {}
        for tag, alpha in (("lr", inp["alpha"]), ("sr", lrk.SHORT_RANGE)):
            spec = lrk.CycleSpec(
                base=lrk.ChainParams(L=L, alpha=alpha), mu_i=inp["mu_i"], mu_f=inp["mu_f"],
                baths=baths,
            )
            out["otto_" + tag] = lrk.otto_cycle(spec)
            out["stirling_" + tag] = lrk.stirling_cycle(spec)
        out["otto_ratios"] = lrk.ratio_diagnostics(out["otto_lr"], out["otto_sr"])
        out["stirling_ratios"] = lrk.ratio_diagnostics(out["stirling_lr"], out["stirling_sr"])
        out["winding"] = lrk.winding_number(
            lrk.ChainParams(L=WINDING_L, mu=inp["winding_mu"], alpha=inp["alpha"]),
            grid_density=WINDING_GRID,
        )
        return out

    def check(self, lrk, inp, out, workdir):
        problems = []
        _check_pairing(lrk, problems, inp["alpha"], L, np.random.default_rng(inp["check_seed"]))
        for kind in ("otto", "stirling"):
            lr, sr = out[kind + "_lr"], out[kind + "_sr"]
            _check_scalar_cycle(problems, lr, kind)
            _check_scalar_cycle(problems, sr, kind)
            R_W = out[kind + "_ratios"].R_W
            if math.isfinite(R_W) and not _close(R_W, lr.W / sr.W):
                problems.append(f"{kind} R_W {R_W!r} != W_lr/W_sr {lr.W / sr.W!r}")
        wr = out["winding"]
        if not wr.residual <= WINDING_RESIDUAL_MAX:
            problems.append(f"winding residual {wr.residual:.3e} > {WINDING_RESIDUAL_MAX}")
        values = []
        for key in ("otto_lr", "otto_sr", "stirling_lr", "stirling_sr"):
            values.append(tuple(sorted(out[key].to_json_dict().items(), key=str)))
        for key in ("otto_ratios", "stirling_ratios"):
            r = out[key]
            values.append((r.R_W, r.R_eta, r.dQ_rel, r.xi, r.defined))
        values.append((wr.w, wr.residual))
        return problems, _digest(values)


class CliWorkload(Workload):
    """One in-process ``lrk spectrum`` at L = 2000 with 201 mu steps."""

    name = "cli-io"
    CSV = "spectrum.csv"
    MANIFEST = "run-manifest.json"

    def make_input(self, seed, stream, i):
        rng = _rng(seed, stream, i)
        center = float(rng.uniform(-3.0, 3.0))
        width = float(rng.uniform(2.0, 8.0))
        return {
            "check_seed": int(rng.integers(2**31)),
            "alpha": float(rng.uniform(*ALPHA_RANGE)),
            "mu_min": center - 0.5 * width,
            "mu_max": center + 0.5 * width,
        }

    def run(self, lrk, inp, workdir):
        return lrk.cli.main([
            "spectrum", "--L", str(L), "--alpha", repr(inp["alpha"]),
            "--mu-min", repr(inp["mu_min"]), "--mu-max", repr(inp["mu_max"]),
            "--mu-steps", str(SPECTRUM_MU_STEPS), "-o", str(workdir),
        ])

    def check(self, lrk, inp, out, workdir):
        problems = []
        if out != 0:
            problems.append(f"lrk spectrum exited with {out}")
            return problems, _digest(out)
        n_levels = L  # levels -eps_k and +eps_k over L/2 momenta
        expected_rows = SPECTRUM_MU_STEPS * n_levels
        rng = np.random.default_rng(inp["check_seed"])
        blocks = {int(m): [] for m in rng.choice(SPECTRUM_MU_STEPS, size=CSV_SAMPLED_MU, replace=False)}
        # Streamed line by line, so the check adds little to the process's peak RSS.
        digest = hashlib.sha256()
        rows, line = -1, b""
        with open(Path(workdir) / self.CSV, "rb") as fh:
            header = fh.readline()
            digest.update(header)
            for rows, line in enumerate(fh):
                digest.update(line)
                block = blocks.get(rows // n_levels)
                if block is not None:
                    block.append(line)
        rows += 1
        if header != b"mu,level_index,energy\n" or not line.endswith(b"\n"):
            problems.append("spectrum.csv header or final newline malformed")
        if rows != expected_rows:
            problems.append(f"spectrum.csv has {rows} rows, expected {expected_rows}")
            return problems, digest.hexdigest()
        mus = np.linspace(inp["mu_min"], inp["mu_max"], SPECTRUM_MU_STEPS)
        k = np.pi * (2 * np.arange(1, L // 2 + 1) - 1) / L
        ell = np.arange(1, L)
        w = np.minimum(ell, L - ell).astype(float) ** (-inp["alpha"])
        f = np.sin(np.outer(k, ell)) @ w
        for m, block in blocks.items():
            table = np.array([[float(x) for x in row.split(b",")] for row in block])
            eps = np.hypot(np.cos(k) + mus[m], 0.5 * f)
            ref = np.sort(np.concatenate([-eps, eps]))
            if not np.all(table[:, 0] == mus[m]):
                problems.append(f"mu column of block {m} is not {mus[m]!r}")
            if not np.array_equal(table[:, 1], np.arange(n_levels)):
                problems.append(f"level_index column of block {m} is not 0..{n_levels - 1}")
            err = np.abs(table[:, 2] - ref) / np.maximum(np.abs(ref), 1.0)
            if not np.all(err <= RTOL):
                problems.append(f"levels at mu={mus[m]!r} differ from the dispersion by {err.max():.3e}")
        manifest = (Path(workdir) / self.MANIFEST).read_bytes()
        if b'"spectrum.csv"' not in manifest:
            problems.append("run-manifest.json does not list spectrum.csv")
        return problems, digest.hexdigest()


#: Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        GridWorkload("grid-otto", "otto", workers=1),
        GridWorkload("grid-stirling", "stirling", workers=2),
        PointScanWorkload(),
        CliWorkload(),
    )
}

