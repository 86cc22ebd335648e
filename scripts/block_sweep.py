"""Time the RNG fills and the ensemble kernels across block budgets.

montecarlo._BLOCK_ELEMENTS caps how many draws one rng.sign_block fill
writes: a block of whole rows of a chunk's paths in the synthetic kernel,
a tile (a slab of rows across the chunk) in the urn kernel.  This script
reproduces the measurement behind that constant, and behind
montecarlo._MIN_CHUNK_PATHS, _MIN_CHUNK_PATH_STEPS, _URN_ROW_PATHS and
_ROW_SUM_ROWS:

1. each fill alone, filling reused buffers, in ns per draw, for 20000 and
   500 paths at each budget;
2. one single-chunk run_ensemble per benchmark workload shape (see
   urnbench/workloads.py) at each budget, in million path-steps per second,
   the median of --repeats runs;
3. one chunk against two, the second stepped in a forked worker process,
   for 64 to 2000 paths at 2^25 path-steps, in each kernel: the urn
   (urn-narrow's matrix) and the synthetic recursion.  Each shape runs one
   warm-up and then ten pairs of runs that alternate which side runs
   first, and reports both medians, their ratio and how many pairs two
   chunks won; the smallest per-chunk path count from which on (at it
   and at every larger count) two chunks win at least nine pairs in ten
   in every kernel is montecarlo._MIN_CHUNK_PATHS.  A run takes 0.2-5 s,
   so a fork's 4-20 ms stays a small share of it: step 4 measures that
   share;
4. the toy urn at 2^6 to 2^11 steps for 2000, 4000 and 20000 paths, one
   chunk against two in ms per run, in pairs as in step 3; the smallest
   per-chunk path-step count from which on two chunks win at least nine
   pairs in ten at every path count, taken over several runs, sets
   montecarlo._MIN_CHUNK_PATH_STEPS (its comment quotes five);
5. the urn kernel's rows per block, montecarlo._urn_block_rows, which
   grow with n, against fixed rows of 64, 128 and 255, at the chunk widths
   that run (1, 250, 500, 1000 and 10000 paths of urn-narrow's urn, one
   chunk), in ms per run, in pairs as in step 3 for each fixed row count;
   and under the rule the share of draws left ambiguous, the draws that a
   block's bounds leave to be decided exactly, and the fixed-point passes
   that montecarlo._resolve takes per batch of them;
6. the urn kernel's tiles (montecarlo._urn_tile) at 250 to 20000 paths of
   the toy urn, one chunk each: the running sum of a full tile's sure
   whites in ns per draw, by row adds and by np.add.accumulate
   (montecarlo._running_sum), then the kernel alone with each, in pairs
   as in step 3.  The tallest tile at which row adds cost less per draw
   than accumulate and do not lose the kernel pairs (accumulate winning
   nine or more in ten) sets montecarlo._ROW_SUM_ROWS.  With --against
   SRC it also pairs the urn kernel of the urnsa package under SRC,
   another checkout's src directory, against this one at each width.

Chunk counts are forced by patching montecarlo._usable_cores (and
lowering montecarlo._MIN_CHUNK_PATHS and _MIN_CHUNK_PATH_STEPS for steps 3
and 4), not by the machine; fixed rows by patching _urn_block_rows, the
running sum by patching _ROW_SUM_ROWS.  Step 5 counts ambiguous draws and
passes in one more run per width, with montecarlo._resolve wrapped.
It prints the usable core count and the L2 cache size first, read from
the affinity mask and /sys/devices/system/cpu/cpu0/cache; it sets nothing
on the machine.  The constants are restored before it exits.

    PYTHONPATH=src python3 scripts/block_sweep.py [--repeats 3] [--min-exp 12] [--max-exp 21]
    PYTHONPATH=src python3 scripts/block_sweep.py --only-rows
    PYTHONPATH=src python3 scripts/block_sweep.py --only-tiles [--against ../base/src]

Takes about fifteen minutes at the defaults on a 2-core machine, most of
it in step 3; --only-rows runs step 5 alone, in about a minute, and
--only-tiles step 6 alone, in one to two minutes.
"""

import argparse
import importlib.util
import statistics
import sys
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
    "urn": dict(matrix=ReplacementMatrix(3, 0, 2, 5), w0=4, b0=4),
    "synthetic": dict(synthetic=SyntheticProcess(big_gamma=1.0, sigma2=1.0)),
}
SPLIT_PAIRS = 10
SPLIT_EXP = 25


def pairs(one, two) -> tuple[float, float, int]:
    """Median seconds of calling one() and two(), and the pairs two won,
    after one warm-up each, over SPLIT_PAIRS pairs of calls that alternate
    which side runs first."""
    one(), two()
    times = {one: [], two: []}
    for i in range(SPLIT_PAIRS):
        for side in (one, two) if i % 2 == 0 else (two, one):
            times[side].append(side())
    wins = sum(b < a for a, b in zip(times[one], times[two]))
    return statistics.median(times[one]), statistics.median(times[two]), wins


def split_pairs(shape: dict) -> tuple[float, float, int]:
    """pairs() of one chunk against two for this shape."""
    return pairs(
        lambda: time_ensemble(shape, 1, workers=1),
        lambda: time_ensemble(shape, 1, workers=2),
    )


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


FORK_PATHS = (2_000, 4_000, 20_000)
FORK_EXPS = range(6, 12)


def fork_step() -> None:
    toy = dict(matrix=ReplacementMatrix(4, 5, 3, 2), w0=1, b0=1)
    print("\ntoy urn (4,5;3,2) at short horizons, one chunk against two, ms per "
          f"run (medians of {SPLIT_PAIRS} alternating pairs), ratio and pairs "
          "that two chunks won")
    print(f"{'paths':>8} {'horizon':>8} {'steps/chunk':>12} "
          f"{'1 chunk':>9} {'2 chunks':>9} {'ratio':>6} {'won':>6}")
    won = {}
    for paths in FORK_PATHS:
        for e in FORK_EXPS:
            horizon = 1 << e
            one, two, wins = split_pairs(dict(toy, paths=paths, horizon=horizon))
            per_chunk = paths * horizon // 2
            won[per_chunk, paths] = wins
            print(f"{paths:>8} {horizon:>8} {per_chunk:>12} {one * 1e3:>9.1f} "
                  f"{two * 1e3:>9.1f} {one / two:>6.2f} {wins:>3}/{SPLIT_PAIRS}")
    floor = None
    for steps in sorted({s for s, _ in won}, reverse=True):
        if any(w * 10 < 9 * SPLIT_PAIRS for (s, _), w in won.items() if s == steps):
            break
        floor = steps
    print(f"smallest per-chunk path-steps from which on two chunks win 9 of 10 "
          f"at every path count: {floor}")


ROW_WIDTHS = {1: 1 << 17, 250: 1 << 15, 500: 1 << 15, 1_000: 1 << 14, 10_000: 1 << 12}
FIXED_ROWS = (64, 128, 255)
ROW_URN = SPLIT_KERNELS["urn"]


class _CountingCounts:
    """A kernel's montecarlo._Counts that counts its fraction calls: one
    per fixed-point pass of montecarlo._resolve."""

    def __init__(self, counts):
        self.counts, self.calls = counts, 0

    def at(self, n):
        return self.counts.at(n)

    def fraction(self, k, at):
        self.calls += 1
        return self.counts.fraction(k, at)


def resolve_stats(shape: dict) -> tuple[float, float, int]:
    """Percent of the draws of one single-chunk run left ambiguous, and
    the mean and most fixed-point passes that montecarlo._resolve took
    per batch of them."""
    cfg = EnsembleConfig(master_seed=SEED, **shape)
    resolve = montecarlo._resolve
    saved = (montecarlo._usable_cores, resolve)
    draws, passes = 0, []

    def resolving(counts, s, row, col, base, u, size):
        nonlocal draws
        draws += row.size
        counting = _CountingCounts(counts)
        found = resolve(counting, s, row, col, base, u, size)
        passes.append(counting.calls)
        return found

    montecarlo._usable_cores, montecarlo._resolve = (lambda: 1), resolving
    try:
        montecarlo.run_ensemble(cfg)
    finally:
        montecarlo._usable_cores, montecarlo._resolve = saved
    share = 100.0 * draws / (cfg.paths * cfg.horizon)
    return share, statistics.mean(passes), max(passes)


def time_rows(shape: dict, rows: int | None) -> float:
    """Seconds of one single-chunk run in blocks of `rows` rows, or of the
    rule's rows where rows is None."""
    rule = montecarlo._urn_block_rows
    if rows is not None:
        montecarlo._urn_block_rows = lambda paths, n: rows
    try:
        return time_ensemble(shape, 1)
    finally:
        montecarlo._urn_block_rows = rule


def block_rows_step() -> None:
    print("\nurn kernel rows per block, urn-narrow's urn in one chunk: "
          "the rule's rows from the first block to the last, the ambiguous "
          "share and the fixed-point passes per batch (mean, most), then per "
          "fixed row count ms per run of the rule and of the fixed rows "
          f"(medians of {SPLIT_PAIRS} alternating pairs) and pairs that the "
          "rule won")
    print(f"{'paths':>6} {'horizon':>8} {'rows':>8} {'ambig':>6} {'passes':>9}"
          + "".join(f"{'vs ' + str(r):>22}" for r in FIXED_ROWS))
    for paths, horizon in ROW_WIDTHS.items():
        shape = dict(ROW_URN, paths=paths, horizon=horizon)
        cells = []
        for rows in FIXED_ROWS:
            fixed, rule, wins = pairs(
                lambda: time_rows(shape, rows), lambda: time_rows(shape, None)
            )
            cells.append(f"{rule * 1e3:.0f} {fixed * 1e3:.0f} {wins:>2}/{SPLIT_PAIRS}")
        first, last = (montecarlo._urn_block_rows(paths, n) for n in (0, horizon - 1))
        share, mean, most = resolve_stats(shape)
        print(f"{paths:>6} {'2^%d' % (horizon.bit_length() - 1):>8} "
              f"{f'{first}-{last}':>8} {share:>5.2f}% {mean:>5.2f} {most:>3}"
              + "".join(f"{c:>22}" for c in cells))


def load_checkout(src: str):
    """The montecarlo module of the urnsa package under another checkout's
    src directory, imported as urnsa_base so that it runs beside this one."""
    root = Path(src).resolve() / "urnsa"
    spec = importlib.util.spec_from_file_location(
        "urnsa_base", root / "__init__.py", submodule_search_locations=[str(root)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules["urnsa_base"] = package
    spec.loader.exec_module(package)
    return importlib.import_module("urnsa_base.montecarlo")


TILE_WIDTHS = (250, 500, 1_000, 2_000, 5_000, 10_000, 20_000)
TILE_URN = dict(entries=(4, 5, 3, 2), w0=1, b0=1)  # urn-wide's toy urn
TILE_STEPS = 1 << 25


def time_running_sums(width: int, min_draws: int = 1 << 24) -> tuple[float, float]:
    """ns per draw of montecarlo._running_sum over one full tile of a chunk
    of `width` paths, by row adds and by np.add.accumulate; the sure mask is
    refilled before each call, and the refill's own time taken out."""
    rows, columns = montecarlo._urn_tile(width)
    mask = np.random.default_rng(SEED).random((rows, -(-columns // 8) * 8)) < 0.5
    sure = np.empty_like(mask)
    calls = max(3, min_draws // mask.size)

    def seconds(running) -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            np.copyto(sure, mask)
            if running is not None:
                running(rows)
        return time.perf_counter() - t0

    refill = min(seconds(None) for _ in range(3))
    return tuple(
        (min(seconds(running) for _ in range(3)) - refill) / (calls * mask.size) * 1e9
        for running in (montecarlo._running_sum(sure, flag) for flag in (True, False))
    )


def kernel_seconds(mc, paths: int, row_sum_rows: int | None = None) -> float:
    """Seconds of one chunk of `paths` toy-urn paths through the urn kernel
    of the montecarlo module mc, as run_ensemble steps a chunk, to the
    horizon TILE_STEPS / paths (at least 2^11); with row_sum_rows, under
    that crossover."""
    horizon = max(1 << 11, TILE_STEPS // paths)
    cfg = mc.EnsembleConfig(
        matrix=mc.ReplacementMatrix(*TILE_URN["entries"]), w0=TILE_URN["w0"],
        b0=TILE_URN["b0"], horizon=horizon, paths=paths, master_seed=SEED,
    )
    cps = mc.checkpoint_schedule(horizon)
    keys = mc.rng.path_keys(SEED, 0, paths)
    if row_sum_rows is not None:
        saved, mc._ROW_SUM_ROWS = mc._ROW_SUM_ROWS, row_sum_rows
    try:
        t0 = time.perf_counter()
        for _ in mc._source(cfg, cps).kernel(keys):
            pass
        return time.perf_counter() - t0
    finally:
        if row_sum_rows is not None:
            mc._ROW_SUM_ROWS = saved


def tile_step(against: str | None) -> None:
    print("\nurn kernel tiles, toy urn (4,5;3,2) in one chunk, kernel alone, "
          f"{TILE_STEPS >> 20} Mi path-steps per run (horizon at least 2^11): "
          "per chunk width its tile, the running sum of sure whites in ns per "
          "draw by row adds and by np.add.accumulate (best of three), then ms "
          f"per run (medians of {SPLIT_PAIRS} alternating pairs) of "
          "accumulate against row adds, with the pairs that row adds won"
          + (f", and of {against} against this checkout, with the pairs this "
             "checkout won" if against else ""))
    base = load_checkout(against) if against else None
    print(f"{'paths':>6} {'tile':>10} {'adds':>6} {'accum':>6} {'accum vs adds':>22}"
          + (f"{'base vs this':>22}" if base else ""))
    for paths in TILE_WIDTHS:
        adds, accumulate = time_running_sums(paths)
        cells = []
        acc, add, wins = pairs(
            lambda: kernel_seconds(montecarlo, paths, 0),
            lambda: kernel_seconds(montecarlo, paths, 255),
        )
        cells.append(f"{acc * 1e3:.0f} {add * 1e3:.0f} {wins:>2}/{SPLIT_PAIRS}")
        if base:
            old, new, wins = pairs(
                lambda: kernel_seconds(base, paths),
                lambda: kernel_seconds(montecarlo, paths),
            )
            cells.append(f"{old * 1e3:.0f} {new * 1e3:.0f} {wins:>2}/{SPLIT_PAIRS}")
        tile = "%dx%d" % montecarlo._urn_tile(paths)
        print(f"{paths:>6} {tile:>10} {adds:>6.2f} {accumulate:>6.2f}"
              + "".join(f"{c:>22}" for c in cells))
    print(f"_ROW_SUM_ROWS = {montecarlo._ROW_SUM_ROWS}: row adds in tiles of at "
          "most as many rows")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--min-exp", type=int, default=12)
    ap.add_argument("--max-exp", type=int, default=21)
    ap.add_argument("--only-rows", action="store_true",
                    help="run step 5, the urn kernel's rows per block, alone")
    ap.add_argument("--only-tiles", action="store_true",
                    help="run step 6, the urn kernel's tiles, alone")
    ap.add_argument("--against", metavar="SRC",
                    help="step 6 also pairs the urn kernel of the urnsa package "
                    "under this src directory (another checkout) against this one")
    args = ap.parse_args()
    if args.only_rows or args.only_tiles:
        print(machine())
        if args.only_rows:
            block_rows_step()
        if args.only_tiles:
            tile_step(args.against)
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

        fork_step()
        block_rows_step()
        tile_step(args.against)
    finally:
        (
            montecarlo._BLOCK_ELEMENTS,
            montecarlo._MIN_CHUNK_PATHS,
            montecarlo._MIN_CHUNK_PATH_STEPS,
        ) = saved


if __name__ == "__main__":
    main()
