"""Time the RNG fills and the ensemble kernels across block budgets.

montecarlo._BLOCK_ELEMENTS caps how many draws one RNG fill writes (whole
rows of a chunk's paths): rng.uniform_block for the urn kernel,
rng.sign_block for the synthetic one.  This script reproduces the
measurement behind that constant, and behind montecarlo._MIN_CHUNK_PATHS
and montecarlo._MIN_CHUNK_PATH_STEPS:

1. each fill alone, filling reused buffers, in ns per draw, for 20000 and
   500 paths at each budget;
2. one single-chunk run_ensemble per benchmark workload shape (see
   urnbench/workloads.py) at each budget, in million path-steps per second,
   the median of --repeats runs;
3. one chunk against two, the second stepped in a forked worker process,
   for 64 to 2000 paths at 2^25 path-steps, in each kernel: the integer
   urn (urn-narrow's matrix), the fractional urn (the same matrix from
   fractional counts) and the synthetic recursion.  Each shape runs one
   warm-up and then ten pairs of runs that alternate which side runs
   first, and reports both medians, their ratio and how many pairs two
   chunks won; the smallest per-chunk path count from which on (at it
   and at every larger count) two chunks win at least nine pairs in ten
   in every kernel is montecarlo._MIN_CHUNK_PATHS.  A run takes 0.2-5 s,
   so a fork's 4-20 ms stays a small share of it: step 4 measures that
   share;
4. the toy urn at short horizons, one chunk against two, in ms per run,
   to find how many path-steps a chunk needs to pay for its fork;
5. montecarlo._URN_BLOCK_ROWS, the integer urn kernel's rows per block:
   one single-chunk run per benchmark shape at each row count, in seconds
   per run (the median of --repeats runs), and the ambiguous draws per
   block, the draws that the block's bounds leave to be decided exactly.
   The synthetic shape does not run that kernel; its column is a control.

Chunk counts are forced by patching montecarlo._usable_cores (and
lowering montecarlo._MIN_CHUNK_PATHS and _MIN_CHUNK_PATH_STEPS for steps 3
and 4), not by the machine.  Step 5 counts ambiguous draws in one more run
per shape, with montecarlo._resolve and _word_thresholds wrapped.
It prints the usable core count and the L2 cache size first, read from
the affinity mask and /sys/devices/system/cpu/cpu0/cache; it sets nothing
on the machine.  The constants are restored before it exits.

    PYTHONPATH=src python3 scripts/block_sweep.py [--repeats 3] [--min-exp 12] [--max-exp 21]
    PYTHONPATH=src python3 scripts/block_sweep.py --only-rows [--repeats 5]

Takes about ten minutes at the defaults on a 2-core machine, most of it
in step 3; --only-rows runs step 5 alone.
"""

import argparse
import statistics
import time
from pathlib import Path

import numpy as np

from urnsa import EnsembleConfig, ReplacementMatrix, SyntheticProcess, rng
from urnsa import montecarlo

# the three workload shapes of the benchmark (urnbench/workloads.py)
SHAPES = {
    "urn-wide": dict(
        matrix=ReplacementMatrix(4, 5, 3, 2), w0=1, b0=1, paths=20_000, horizon=5_000
    ),
    "urn-narrow": dict(
        matrix=ReplacementMatrix(3, 0, 2, 5), w0=4, b0=4, paths=500, horizon=1 << 15
    ),
    "synthetic-wide": dict(
        synthetic=SyntheticProcess(big_gamma=1.0, sigma2=1.0),
        paths=20_000,
        horizon=4_096,
    ),
}
SEED = 20110221


def machine() -> str:
    cores = montecarlo._usable_cores()
    l2 = "unknown"
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "2":
                l2 = (index / "size").read_text().strip()
                break
        except OSError:
            continue
    return f"usable cores {cores}, L2 per core (cpu0) {l2}"


FILLS = (rng.uniform_block, rng.sign_block)


def time_fill(fill, k: int, budget: int, min_draws: int = 1 << 24) -> float:
    """ns per draw of refilling one budget-sized block with reused buffers."""
    keys = rng.path_keys(SEED, 0, k)
    rows = max(1, budget // k)
    out = np.empty((rows, k), dtype=np.float64)
    scratch = np.empty(rows * k, dtype=np.uint64)
    calls = max(3, min_draws // (rows * k))
    fill(keys, 1, rows, out=out, scratch=scratch)
    t0 = time.perf_counter()
    for c in range(calls):
        fill(keys, 1 + c * rows, rows, out=out, scratch=scratch)
    return (time.perf_counter() - t0) / (calls * rows * k) * 1e9


def time_ensemble(shape: dict, repeats: int, workers: int = 1) -> float:
    """Median seconds per run_ensemble, planned as if `workers` cores were
    usable."""
    cfg = EnsembleConfig(master_seed=SEED, **shape)
    saved = montecarlo._usable_cores
    montecarlo._usable_cores = lambda: workers
    try:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            montecarlo.run_ensemble(cfg)
            times.append(time.perf_counter() - t0)
    finally:
        montecarlo._usable_cores = saved
    return statistics.median(times)


SPLIT_PATHS = (64, 128, 200, 300, 400, 500, 1_000, 2_000)
SPLIT_KERNELS = {
    "integer urn": dict(matrix=ReplacementMatrix(3, 0, 2, 5), w0=4, b0=4),
    "fractional urn": dict(matrix=ReplacementMatrix(3, 0, 2, 5), w0=4.5, b0=4),
    "synthetic": dict(synthetic=SyntheticProcess(big_gamma=1.0, sigma2=1.0)),
}
SPLIT_PAIRS = 10
SPLIT_EXP = 25


def split_pairs(shape: dict) -> tuple[float, float, int]:
    """Median seconds of one chunk and of two, and the pairs two won, over
    SPLIT_PAIRS pairs of runs that alternate which side runs first."""
    time_ensemble(shape, 1)
    one, two = [], []
    for i in range(SPLIT_PAIRS):
        for workers in (1, 2) if i % 2 == 0 else (2, 1):
            (one if workers == 1 else two).append(
                time_ensemble(shape, 1, workers=workers)
            )
    wins = sum(b < a for a, b in zip(one, two))
    return statistics.median(one), statistics.median(two), wins


def split_step() -> None:
    print(f"\none chunk against two (one forked worker), 2^{SPLIT_EXP} path-steps, "
          f"ms per run (medians of {SPLIT_PAIRS} alternating pairs), ratio "
          "and pairs that two chunks won")
    print(f"{'paths':>6} {'per chunk':>9}"
          + "".join(f"{name:>30}" for name in SPLIT_KERNELS))
    for paths in SPLIT_PATHS:
        cells = []
        for source in SPLIT_KERNELS.values():
            shape = dict(source, paths=paths, horizon=(1 << SPLIT_EXP) // paths)
            one, two, wins = split_pairs(shape)
            cells.append(f"{one * 1e3:.0f} {two * 1e3:.0f} {one / two:.2f}x "
                         f"{wins:>2}/{SPLIT_PAIRS}")
        print(f"{paths:>6} {paths // 2:>9}" + "".join(f"{c:>30}" for c in cells))


def rate(shape: dict, repeats: int, workers: int = 1) -> float:
    """Million path-steps per second, from the median run time."""
    seconds = time_ensemble(shape, repeats, workers)
    return shape["paths"] * shape["horizon"] / seconds / 1e6


ROW_COUNTS = (16, 32, 48, 64, 96, 128, 192, 255)


def ambiguous_per_block(shape: dict) -> float:
    """Ambiguous draws per block of one single-chunk run of an urn shape."""
    cfg = EnsembleConfig(master_seed=SEED, **shape)
    resolve, word_thresholds = montecarlo._resolve, montecarlo._word_thresholds
    saved = (montecarlo._usable_cores, resolve, word_thresholds)
    seen = {"draws": 0, "blocks": 0}

    def resolving(counts, s, row, col, base, u, size):
        seen["draws"] += row.size
        return resolve(counts, s, row, col, base, u, size)

    def thresholds(*args):
        seen["blocks"] += 1
        return word_thresholds(*args)

    montecarlo._usable_cores = lambda: 1
    montecarlo._resolve, montecarlo._word_thresholds = resolving, thresholds
    try:
        montecarlo.run_ensemble(cfg)
    finally:
        (
            montecarlo._usable_cores,
            montecarlo._resolve,
            montecarlo._word_thresholds,
        ) = saved
    return seen["draws"] / seen["blocks"]


def block_rows_step(repeats: int) -> None:
    saved = montecarlo._URN_BLOCK_ROWS
    print(f"\ninteger urn kernel rows per block (current {saved}), one chunk: "
          f"s/run (median of {repeats}) and ambiguous draws per block")
    print(f"{'rows':>6}" + "".join(f"{n:>24}" for n in SHAPES))
    try:
        for rows in ROW_COUNTS:
            montecarlo._URN_BLOCK_ROWS = rows
            cells = []
            for shape in SHAPES.values():
                seconds = time_ensemble(shape, repeats)
                if "matrix" in shape:
                    cells.append(f"{seconds:.3f} s {ambiguous_per_block(shape):9.1f}")
                else:
                    cells.append(f"{seconds:.3f} s {'-':>9}")
            print(f"{rows:>6}" + "".join(f"{c:>24}" for c in cells))
    finally:
        montecarlo._URN_BLOCK_ROWS = saved


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--min-exp", type=int, default=12)
    ap.add_argument("--max-exp", type=int, default=21)
    ap.add_argument("--only-rows", action="store_true",
                    help="run step 5, the urn kernel's rows per block, alone")
    args = ap.parse_args()
    if args.only_rows:
        print(machine())
        block_rows_step(args.repeats)
        return
    budgets = [1 << e for e in range(args.min_exp, args.max_exp + 1)]
    saved = (
        montecarlo._BLOCK_ELEMENTS,
        montecarlo._MIN_CHUNK_PATHS,
        montecarlo._MIN_CHUNK_PATH_STEPS,
    )
    print(machine())
    print(f"current _BLOCK_ELEMENTS = 2^{saved[0].bit_length() - 1}, "
          f"_MIN_CHUNK_PATHS = {saved[1]}, "
          f"_MIN_CHUNK_PATH_STEPS = 2^{saved[2].bit_length() - 1}")
    try:
        print("\nRNG fills, ns/draw (reused out= and scratch= buffers)")
        print(f"{'':>8}" + "".join(f"{f.__name__:>20}" for f in FILLS))
        print(f"{'budget':>8}" + f"{'k=20000':>10}{'k=500':>10}" * len(FILLS))
        for b in budgets:
            cells = [time_fill(f, k, b) for f in FILLS for k in (20_000, 500)]
            print(f"{'2^%d' % (b.bit_length() - 1):>8}"
                  + "".join(f"{c:>10.2f}" for c in cells))

        print("\nrun_ensemble, one chunk, M path-steps/s "
              f"(median of {args.repeats})")
        print(f"{'budget':>8}" + "".join(f"{n:>16}" for n in SHAPES))
        for b in budgets:
            montecarlo._BLOCK_ELEMENTS = b
            rates = [rate(s, args.repeats) for s in SHAPES.values()]
            print(f"{'2^%d' % (b.bit_length() - 1):>8}"
                  + "".join(f"{r:>16.1f}" for r in rates))
        montecarlo._BLOCK_ELEMENTS = saved[0]

        montecarlo._MIN_CHUNK_PATHS, montecarlo._MIN_CHUNK_PATH_STEPS = 1, 0
        split_step()

        print("\ntoy urn (4,5;3,2) at short horizons, one chunk vs two chunks, "
              f"ms per run (median of {args.repeats})")
        print(f"{'paths':>8} {'horizon':>8} {'steps/chunk':>12} "
              f"{'1 chunk':>9} {'2 chunks':>9} {'ratio':>6}")
        for paths in (2_000, 20_000):
            for horizon in (16, 64, 128, 256, 512, 1024):
                shape = dict(
                    matrix=ReplacementMatrix(4, 5, 3, 2), w0=1, b0=1,
                    paths=paths, horizon=horizon,
                )
                one = time_ensemble(shape, args.repeats, workers=1) * 1e3
                two = time_ensemble(shape, args.repeats, workers=2) * 1e3
                print(f"{paths:>8} {horizon:>8} {paths * horizon // 2:>12} "
                      f"{one:>9.1f} {two:>9.1f} {one / two:>6.2f}")

        block_rows_step(args.repeats)
    finally:
        (
            montecarlo._BLOCK_ELEMENTS,
            montecarlo._MIN_CHUNK_PATHS,
            montecarlo._MIN_CHUNK_PATH_STEPS,
        ) = saved


if __name__ == "__main__":
    main()
