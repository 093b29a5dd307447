"""Regenerate the packaged calibration tables.

Runs the coarse-error calibration (window sizing) and the solver
noise-floor calibration, then writes ``epsilon_table.json`` and
``sigma2_table.json`` to ``--out`` (default: ``nuvdoa/data``, the packaged
files).  This is the one producer of both tables.  Results are fully
seeded, so two runs with the same arguments write the same bytes.  The
packaged files were made with the earlier EM solver, so a rerun at the
defaults does not reproduce them; it changes every NUV estimate.

    python3 scripts/make_tables.py [--epsilon-trials N] [--sigma2-trials N]
        [--seed S] [--out DIR]
"""

import argparse
import pathlib
import time

from nuvdoa.harness import (
    DoaSampling,
    ScenarioConfig,
    calibrate_epsilon,
    calibrate_sigma2,
)
from nuvdoa.pipeline import dump_error_table, dump_sigma2_table

DATA_DIR = pathlib.Path(__file__).resolve().parents[1] / "src/nuvdoa/data"

EPSILON_SNRS = (-10.0, -5.0, 0.0, 5.0, 7.0, 10.0, 15.0, 20.0)
SIGMA2_SNRS = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
# Spans down to the true per-snapshot noise variance at unit source power,
# near which the useful noise floors sit.
SIGMA2_CANDIDATES = (1e-2, 3e-2, 1e-1, 3e-1, 1e0, 3e0, 1e1, 3e1,
                     1e2, 3e2, 8e2, 3e3, 1e4)


def base_config(trials: int, snrs, seed: int) -> ScenarioConfig:
    return ScenarioConfig(
        k_sources=1,
        n_sensors=16,
        n_snapshots=100,
        trials=trials,
        seed=seed,
        snr_sweep=tuple(snrs),
        doa_sampling=DoaSampling(kind="uniform_range", lo_deg=-75.0,
                                 hi_deg=75.0),
    )


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epsilon-trials", type=int, default=200)
    parser.add_argument("--sigma2-trials", type=int, default=40)
    parser.add_argument("--seed", type=int, default=20260815)
    parser.add_argument("--out", type=pathlib.Path, default=DATA_DIR)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    eps_cfg = base_config(args.epsilon_trials, EPSILON_SNRS, args.seed)
    table, entry_flags = calibrate_epsilon(eps_cfg)
    dump_error_table(table, args.out / "epsilon_table.json", entry_flags)
    for snr, eps, flags in zip(table.snrs_db, table.epsilons_deg, entry_flags):
        print(f"epsilon: SNR {snr:6.1f} dB -> {eps:.4f} deg {list(flags)}")
    print(f"epsilon table done in {time.perf_counter() - t0:.0f} s")

    t0 = time.perf_counter()
    sig_cfg = base_config(args.sigma2_trials, SIGMA2_SNRS, args.seed)
    sig_table = calibrate_sigma2(sig_cfg, candidates=SIGMA2_CANDIDATES)
    dump_sigma2_table(sig_table, args.out / "sigma2_table.json")
    for snr, value in zip(sig_table.snrs_db, sig_table.sigma2s):
        print(f"sigma2: SNR {snr:6.1f} dB -> {value:g}")
    print(f"sigma2 table done in {time.perf_counter() - t0:.0f} s")


if __name__ == "__main__":
    main()
