"""Layer probes: direct calls into public functions, one layer at a time.

They reproduce the baseline figures of the roadmap's benchmark item (best of
``repeat`` runs, tracing off).  ``ROADMAP_RANGES`` holds the ranges quoted
there, so a run can flag probes that fall outside them.
"""

import time

import numpy as np

L = 2000
ALPHA = 1.5
MU_I = 2.0
BETA_C = 5.0
BETA_RATIO = 0.2

#: Ranges quoted by the roadmap (same units as the probe), None where it
#: quotes no figure.
ROADMAP_RANGES = {
    "probe.pairing_L2000_ms": (25.0, 54.0),
    "probe.pairing_L20000_ms": (4200.0, 6800.0),
    "probe.dispersion_L2000_ms": None,
    "probe.otto_table_ms": (5.0, 8.0),
    "probe.stirling_table_ms": (10.0, 18.0),
    "probe.max_ratios_ms": (10.0, 14.0),
    "probe.regions_s": (0.8, 1.2),  # "about 1.0 s"
    "probe.optimal_10x99_s": (5.5, 8.0),
    "probe.lrk_spectrum_s": None,
}


def _best(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_probes(lrk, workdir):
    """Return {probe name: value}; every call goes through the public API."""
    params = lrk.ChainParams(L=L, alpha=ALPHA)
    out = {}
    for length, repeat in ((L, 3), (10 * L, 1)):
        k = lrk.momentum_grid(length)
        p = lrk.ChainParams(L=length, alpha=ALPHA)
        out[f"probe.pairing_L{length}_ms"] = 1e3 * _best(lambda: lrk.pairing_function(k, p), repeat)

    lrk.build_spectrum(params)  # the dispersion probe times L1 alone
    out["probe.dispersion_L2000_ms"] = 1e3 * _best(lambda: lrk.build_spectrum(params), 20)

    eps_i = lrk.build_spectrum(params.with_mu(MU_I)).energies
    mus = np.linspace(0.0, 1.0, 201) * MU_I
    eps_f = np.stack([lrk.build_spectrum(params.with_mu(float(m))).energies for m in mus])
    beta_h = BETA_RATIO * BETA_C
    for kind, fn in (("otto", lrk.cycles.otto_mode_sums), ("stirling", lrk.cycles.stirling_mode_sums)):
        out[f"probe.{kind}_table_ms"] = 1e3 * _best(lambda: fn(eps_i, eps_f, beta_h, BETA_C), 5)

    cfg = lrk.SweepConfig(
        cycle_kind="otto", base=params, mu_i=MU_I, beta_c=BETA_C,
        alpha_grid=tuple(np.geomspace(1.025, 6.0, 10)), workers=1,
    )
    out["probe.max_ratios_ms"] = 1e3 * _best(lambda: lrk.max_ratios(cfg, ALPHA, BETA_RATIO), 3)
    out["probe.regions_s"] = _best(lambda: lrk.enhancement_regions(cfg, ALPHA), 1)
    out["probe.optimal_10x99_s"] = _best(lambda: lrk.optimal_condition(cfg), 1)

    argv = ["spectrum", "--L", str(L), "--alpha", str(ALPHA), "-o", str(workdir)]

    def spectrum():
        if lrk.cli.main(argv) != 0:
            raise RuntimeError(f"lrk {' '.join(argv)} failed")

    out["probe.lrk_spectrum_s"] = _best(spectrum, 1)
    return out


def outside_roadmap(values):
    """Probe names whose value lies outside the roadmap's quoted range."""
    flagged = {}
    for name, value in values.items():
        rng = ROADMAP_RANGES.get(name)
        if rng is not None and not rng[0] <= value <= rng[1]:
            flagged[name] = rng
    return flagged
