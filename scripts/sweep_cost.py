"""Print the cost of one NUV solver sweep and one solve at each problem shape the pipelines solve.

One sweep is what the solver's stack loop runs per iteration: one call of
the kernel ``solver._moments`` (the posterior means, gains and worst
variance excursion of every problem of a stack at its current prior
variances), then the MacKay variance update ``solver._mackay_update``.
The shapes are those of the package's solves, all on 16 sensors:

- ``16x3000``: the ``nuv_ssr_flat`` flat solve;
- ``16x1801``: the sparse coarse solve below the SNR gate;
- ``16x180``: the 2-degree grid of the solver tests and criterion 04;
- ``22x16x101`` and ``12x16x101``: the sub-band stacks of the one- and
  two-source scans (0.01-degree step, 0.5-degree half width), built by
  ``subbands.band_stack`` as ``subbands.superres_scan`` builds them.

The three flat dictionaries come from ``pipeline.full_azimuth_dictionary``,
as the package's solves get them: in the layout the stack loop reads
without a copy, as it reads the band stacks' sliding-window views.  Every
stack is a steering stack, as its producer tells the loop: each sweep
takes the Toeplitz branch, and the live columns are read off row 0, as
the loop reads them.  The ``check us`` column is the
cost of ``solver._is_ula_stack`` on the stack: what a stack of unknown
origin (``steering=None``) still pays once per solve.  The ``solve us``
column is one whole ``solver.solve_stack`` call on the stack
(``steering=True``): the sweeps to a stop, the final evaluation with its
clamped variances, and the trace record.  It runs at the packaged sigma2
table's value at 10 dB, as the pipeline's scan does at that SNR;
``sweeps`` is how many sweeps its longest-running problem took.

Each stack is timed at the prior variances reached after ``--warmup``
sweeps on a seeded one-source statistic (K=1, L=100, 10 dB, sigma2 = 1), so
that the variances are as spread as in a running solve; the loop's solves
stop after 3 to 6 sweeps on the package's workloads.  The printed figure
is the median over ``--rounds`` rounds of the mean time of ``--sweeps``
sweeps, with the fastest round beside it; the check is timed the same
way, and the solve by rounds of whole solves that together run about
``--sweeps`` sweeps.  The script takes about 6 s.  Run from the root of a
checkout:

    python3 scripts/sweep_cost.py
"""

import argparse
import math
import pathlib
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from nuvdoa.arrays import (  # noqa: E402
    Scenario,
    UlaGeometry,
    simulate_snapshots,
    snapshot_mean,
)
from nuvdoa.pipeline import (  # noqa: E402
    full_azimuth_dictionary,
    load_default_sigma2_table,
)
from nuvdoa.solver import (  # noqa: E402
    SolverConfig,
    _is_ula_stack,
    _mackay_update,
    _moments,
    solve_stack,
)
from nuvdoa.subbands import band_stack, plan_subbands  # noqa: E402

N_SENSORS = 16
SOURCE_DEG = 10.3
FINE_STEP_DEG = 0.01
HALF_WIDTH_DEG = 0.5
NOISE_SCALE = 1.0 / 100


def scan_stack(bands: int):
    """The band stack a scan of ``bands`` points around the source solves."""
    lo = math.radians(SOURCE_DEG - FINE_STEP_DEG * (bands // 2))
    hi = lo + math.radians(FINE_STEP_DEG * (bands - 1))
    plan = plan_subbands(lo, hi, math.radians(FINE_STEP_DEG),
                         math.radians(HALF_WIDTH_DEG))
    return band_stack(plan, UlaGeometry(N_SENSORS))


def median_fastest_us(call, args, calls=None) -> tuple:
    """(median, fastest) microseconds per ``call()`` over the rounds, each
    of ``calls`` calls (``--sweeps`` by default)."""
    calls = calls or args.sweeps
    rounds = []
    for _ in range(args.rounds):
        started = time.perf_counter()
        for _ in range(calls):
            call()
        rounds.append((time.perf_counter() - started) / calls * 1e6)
    return statistics.median(rounds), min(rounds)


def seeded_means(count: int, args) -> np.ndarray:
    """The seeded one-source statistic, once per problem of a stack."""
    scenario = Scenario(geometry=UlaGeometry(N_SENSORS),
                        true_doas=(math.radians(SOURCE_DEG),),
                        n_snapshots=100, snr_db=10.0)
    mean = snapshot_mean(simulate_snapshots(scenario, args.seed)).mean
    return np.broadcast_to(mean, (count, N_SENSORS))


def sweep_us(matrices, args) -> tuple:
    """(median, fastest) microseconds per sweep of one steering stack."""
    # The stack loop's operands: A^T, which every stack here gives as a
    # view with a unit-stride last axis that the loop reads without a copy,
    # and the conjugated means.
    operands = (matrices.swapaxes(1, 2),
                seeded_means(len(matrices), args).conj())
    pv = (matrices[:, 0] != 0).astype(float)

    def sweep(pv, iteration):
        mean, gain, _ = _moments(*operands, True, NOISE_SCALE, pv, iteration)
        return _mackay_update(pv, mean, gain, iteration)

    for iteration in range(args.warmup):
        pv = sweep(pv, iteration)
    return median_fastest_us(lambda: sweep(pv, args.warmup), args)


def solve_us(matrices, args) -> tuple:
    """(median microseconds, sweeps) of one whole solve of a steering stack."""
    means = seeded_means(len(matrices), args)
    config = SolverConfig(sigma2=load_default_sigma2_table().sigma2_for(10.0),
                          n_snapshots=100)

    def solve():
        return solve_stack(matrices, means, config, steering=True)

    sweeps = int(solve()[4].iterations.max())
    median, _ = median_fastest_us(solve, args, math.ceil(args.sweeps / sweeps))
    return median, sweeps


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sweeps", type=int, default=200)
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--warmup", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if min(args.sweeps, args.rounds) < 1 or args.warmup < 0:
        parser.error("--sweeps and --rounds must be >= 1, --warmup >= 0")
    flat = {cells: full_azimuth_dictionary(cells, N_SENSORS)[1][None]
            for cells in (3000, 1801, 180)}
    shapes = (("16x3000", flat[3000]), ("16x1801", flat[1801]),
              ("16x180", flat[180]), ("22x16x101", scan_stack(22)),
              ("12x16x101", scan_stack(12)))
    print(f"{'shape':<10} {'us/sweep':>9} {'fastest':>9} {'check us':>9} "
          f"{'solve us':>9} {'sweeps':>6}")
    for name, matrices in shapes:
        median, fastest = sweep_us(matrices, args)
        check, _ = median_fastest_us(lambda: _is_ula_stack(matrices), args)
        solve, sweeps = solve_us(matrices, args)
        print(f"{name:<10} {median:9.1f} {fastest:9.1f} {check:9.1f} "
              f"{solve:9.1f} {sweeps:6d}")


if __name__ == "__main__":
    main()
