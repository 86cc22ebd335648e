"""Reproducible parallel Monte Carlo for urn and synthetic ensembles.

Every path's randomness is a pure function of (master_seed, path_index),
so an ensemble is simulated in path chunks, about one per usable core
where a chunk holds enough paths and path-steps to pay for its fork: the
first in the calling process, each other in a forked worker process that
sends its rows back over a pipe, raised to hold them, so that it steps
its whole chunk without waiting for the caller.  Rows are reassembled by
path index and reduced in a fixed order, so running the same
EnsembleConfig twice, on any number of cores, produces bit-identical
results.  Where os.fork does not exist, a run is one chunk.  Each
checkpoint's row of X_n is reduced as the caller reaches it, so a result
keeps only the final X_n and scaled values and the values CSV's rows,
which each worker formats for its own paths after its last row; a path's
full trace is replayed from its key.  Urn and synthetic runs share one
pipeline once their source is resolved.

The urn kernel is vectorized across the paths of a chunk and reproduces
the scalar urn_step decision for decision (white iff u < W/T).  It steps
the white-draw count k a block of draws at a time, and computes every W
and T from (n, k) through urn.urn_counts, as urn_step does, for integer
and fractional urns alike: bounds on X over the block, padded by the
largest rounding error, decide most draws at once from their sign_block
words (rng.word_thresholds), and only the draws near their threshold are
finished to uniforms and stepped exactly (_urn_states).  A block is
stepped in slabs of rows across the whole chunk, of a height fixed for
the chunk (_urn_tile): as many whole rows of the chunk's paths as fit
_BLOCK_ELEMENTS words, at least one and at most 255, so 6 rows at 10000
paths, 255 at 250 and one row past 2^16 paths.  A slab
costs a few dozen numpy calls, whatever its width, and after each slab k
absorbs its sure whites, so that the next slab's ambiguous draws read
their base from k.  X at the block's three corners comes from three
passes over the paths, and the ambiguous draws, 0.3-1.4% of the draws in
the benchmark urns, are decided once per batch of slabs by a fixed point
(_resolve): sorted by column once, every draw is decided from the whites
that the last pass found above it in its column, until a recount changes
nothing, in two or three passes for most batches.  A block's ambiguous
draws grow about as rows^2 / n, so its rows grow as sqrt(n), more in a
chunk of few paths, whose slabs are tall, up to 255 (_urn_block_rows).
The synthetic update reads only the sign of each draw against 1/2, as
+-step rows (rng.step_block), and adds them exactly as the scalar branch
does.

An ensemble splits only where each chunk keeps _MIN_CHUNK_PATHS paths and
_MIN_CHUNK_PATH_STEPS path-steps.  The path floor is the smallest
per-chunk path count from which on two chunks beat one in at least nine
of ten pairs of runs in every kernel (scripts/block_sweep.py step 3), so
a 500-path ensemble of the power-law urn uses two cores.  A path replay
(_traces) is one kernel call in this process.
"""
from __future__ import annotations

import contextlib
import enum
import itertools
import json
import math
import os
import signal
import traceback
import warnings
from dataclasses import asdict, dataclass
from typing import Callable, Iterator, NoReturn, Sequence

import numpy as np

from . import rng
from .drift import DriftPoly
from .errors import ConfigError, DegenerateVarianceError, UrnsaError
from .limits import LimitPrediction, Regime, classify, reference_prediction
from .sa import SyntheticProcess, weight
from .special import _normal_cdfs, normal_cdf
from .urn import (
    COUNT_LIMIT,
    ReplacementMatrix,
    drawn_counts,
    drift_from_matrix,
    error_poly_from_matrix,
    urn_counts,
)

# asymptotic Kolmogorov-Smirnov critical constants, valid for n >= 1000
KS_CONSTANTS = {0.05: 1.358, 0.01: 1.628}

# A chunk in a forked worker pays from 250 paths: the smallest per-chunk
# path count from which on two chunks won at least 9 of 10 alternating
# pairs against one in every kernel.  scripts/block_sweep.py step 3 (2^25
# path-steps; 2-core Xeon, 2 MiB L2 per core, shared with other tenants),
# ms per run in one chunk and in two, ratio, pairs two chunks won:
#
#    paths         urn                synthetic
#       64  705 586 1.20x  9/10  957 909 1.05x  9/10
#      128  482 407 1.19x  9/10  492 465 1.06x  7/10
#      200  326 279 1.17x  9/10  351 296 1.19x 10/10
#      300  273 229 1.20x 10/10  277 240 1.16x  7/10
#      400  238 194 1.23x 10/10  216 177 1.22x  8/10
#      500  221 168 1.32x 10/10  201 160 1.26x 10/10
#     1000  186 148 1.26x 10/10  149 105 1.42x  9/10
#     2000  198 117 1.70x 10/10  137  84 1.62x 10/10
#
# Below 500 paths the synthetic kernel gained 1.05-1.22x and lost the rule
# at 128, 300 and 400 paths; earlier runs on the same machine under more
# load gave 64-300 paths at most 7 of 10 in some kernel.  So a 500-path
# ensemble such as urn-narrow's runs on two cores.
_MIN_CHUNK_PATHS = 250
# A fork costs 4-20 ms, more in a larger process, so a chunk also needs
# 2^21 path-steps (paths x horizon) to pay for it.  scripts/block_sweep.py
# step 4 (toy urn; 2-core Xeon, 2 MiB L2 per core, shared), one chunk
# against two: per-chunk path-steps, the range of five runs' median ratios,
# and the pairs of ten that two chunks won in each run:
#
#    paths  horizon  per chunk        ratio  pairs won
#     2000       64      64000  0.70-0.73x    0  0  0  0  0
#     2000      128     128000  0.74-0.88x    0  0  0  0  0
#     2000      256     256000  0.89-1.03x    3  6  1  8  8
#     2000      512     512000  1.12-1.17x   10 10 10 10  6
#     2000     1024    1024000  1.21-1.27x   10 10  9 10  8
#     2000     2048    2048000  1.21-1.46x    6 10 10  8 10
#     4000       64     128000  0.72-0.92x    0  0  1  0  0
#     4000      128     256000  0.80-1.10x   10  8  8  0 10
#     4000      256     512000  1.19-1.27x   10  8 10  9 10
#     4000      512    1024000  1.00-1.34x    8 10 10  5 10
#     4000     1024    2048000  1.42-1.51x   10 10 10 10 10
#     4000     2048    4096000  1.47-1.59x   10 10 10 10 10
#    20000       64     640000  1.21-1.29x   10 10 10 10  9
#    20000      128    1280000  1.26-1.40x   10 10 10 10 10
#    20000  256-2048  2.6-20.5 M 1.36-1.79x   10 in every run
#
# The smallest count from which on two chunks won 9 of 10 at every path
# count was 2.56 M, 0.64 M, 0.51 M, 2.56 M and 1.28 M in the five runs.
# The floor stays at 2^21: no shape lies between 2.05 M and 2.56 M, so it
# splits these shapes from 2.56 M up, where every run passed.
_MIN_CHUNK_PATH_STEPS = 1 << 21
# RNG block budget in uniforms: it caps the synthetic kernel's blocks and the
# urn kernel's slabs at whole rows of a chunk's paths (_block_rows).  2^16
# float64 plus their uint64 scratch is 1 MiB, which fits a 2 MiB L2.  In
# two runs of scripts/block_sweep.py step 1 (2-core Xeon, 2 MiB L2 per core,
# shared) rng.sign_block filled 2^15-2^16 blocks at 1.9-2.2 ns/draw against
# 3.4-3.8 from 2^18 up, at 20000 and at 500 paths; in earlier runs the three
# benchmark shapes ran within noise of their best there.
_BLOCK_ELEMENTS = 1 << 16
# Bytes per path that a run holds at once, at least, summed over the calling
# process and its workers.  Every run holds the path's key (8) and the
# runner's checkpoint row and scaled values (2 x 8).  An urn run adds the
# block kernel's 112, all held while _Counts.bounds computes a block's last
# corner: k, the bounds lo and hi and the word thresholds below and above
# (5 x 8); X_n and T_n of the last checkpoint, which the kernel keeps while
# it steps on (2 x 8); and X at the first two corners, the last corner's
# k + rows - 1, the white, black and total counts that urn_counts gives
# there and X divided out of them (7 x 8).  A replay (_traces) also holds
# X_{n-1} (8); a run does not.  While the kernel decides a batch of
# ambiguous draws it holds the whites found per path (8) instead of the
# corners.  A batch's own arrays, about a dozen values a draw, hold fewer
# than _BLOCK_ELEMENTS / 8 draws plus one slab's, whatever the path count.
# A synthetic run adds z and its share of the RNG block and scratch
# (3 x 8).  The bounds leave out the caller's receive buffers (8), which
# hold only the workers' paths, and the urn kernel's slab, fixed for the
# chunk (_urn_tile): its RNG block and scratch, 16 bytes a draw, and its
# two masks and their uint64 lanes, 3 bytes a draw with rows padded to 8
# columns.  A slab holds at most _BLOCK_ELEMENTS draws, about 1.2 MiB,
# except that a chunk wider than 2^16 paths holds one row of its paths.
# The result also holds the values CSV's rows, at least 6 bytes a path
# and 23-26 in the benchmark's runs, but only from the last checkpoint on,
# when the kernel holds neither corners nor a batch, so they raise no
# bound: a traced run of 20000 toy-urn paths x 64 steps in two chunks
# peaked in the calling process at 167.2 bytes a path before the rows
# were formatted in the run and at 168.4 after (a synthetic run: 136.3,
# 137.5).  A worker's pipe, up to _PIPE_BYTES, is kernel memory, which no
# process's heap holds.
_PATH_BYTES = 136
_SYNTHETIC_PATH_BYTES = 48
# Rows per block of the urn kernel: a block of a chunk of p paths, from
# state n on, takes sqrt((n + 1) max(4, _URN_ROW_PATHS / p)) rows while
# they fit one tile (_urn_block_rows).  Fitted to the fastest fixed rows
# per octave of n (kernel alone, 2-core Xeon): about 2.5 sqrt(n) at 250
# paths, 1.5-1.7 at 500, 1.2 at 1000 and 0.6-1.6 from 4000 paths up, where
# rows past one tile cost a slab each.  scripts/block_sweep.py step 5, run
# while a block was cut into panels of columns rather than slabs of rows
# (urn-narrow's urn in one chunk; 2-core Xeon, 2 MiB L2 per core, shared):
# the rule's rows at the first block and the last, the share of draws left
# ambiguous, _resolve's passes per batch (mean, most), and ms per run of
# the rule against fixed rows, medians of ten alternating pairs, with the
# pairs that the rule won, in two runs:
#
#  paths horizon    rows ambig passes     vs 64        vs 128        vs 255
#      1    2^17  38-255 0.94% 1.51 5  35  97 10/10  35  57 10/10  36  35  3/10
#                                      35  96 10/10  35  56 10/10  35  35  6/10
#    250    2^15   2-255 1.40% 2.71 5  49  68 10/10  49  54 10/10  49  53 10/10
#                                      48  67 10/10  48  53 10/10  48  53 10/10
#    500    2^15   2-131 0.93% 2.40 5  83  97 10/10  83  88 10/10  83 101 10/10
#                                      83  96  9/10  83  88 10/10  83 102 10/10
#   1000    2^14    2-65 1.05% 2.30 5  84  88 10/10  84 102 10/10  84 130 10/10
#                                      83  88 10/10  83 102 10/10  83 129 10/10
#  10000    2^12    2-60 1.58% 2.96 5 211 321 10/10 212 447 10/10 211 643 10/10
#                                     212 320 10/10 211 446 10/10 210 641 10/10
#
# The rule won at least 9 of 10 against every fixed height but 255 rows at
# one path, where the two ran level (35 ms).  At 250 paths it beat 128
# rows, which the 255-row rule before it lost to.
_URN_ROW_PATHS = 1500
# Tallest tile whose running sum of sure whites takes one uint64-lane add
# per row, rows - 1 np.add calls, rather than one np.add.accumulate along
# the rows, whose cost per draw grows as a tile gets shorter and wider.
# scripts/block_sweep.py step 6 (toy urn in one chunk, 2^25 path-steps per
# run; 2-core Xeon, 2 MiB L2 per core, shared with other tenants): per
# chunk width its tile, the running sum alone in ns per draw by row adds
# and by accumulate, and ms per run of the kernel with accumulate against
# row adds, medians of ten alternating pairs, with the pairs that row adds
# won, in two runs:
#
#    paths      tile  adds accum    accum vs adds
#      250   255x250  1.64  0.39   307 421  0/10
#                     1.62  0.37   219 261  1/10
#      500   131x500  0.82  0.37   296 332  0/10
#                     0.86  0.37   283 356  1/10
#     1000   65x1000  0.89  0.42   285 278  4/10
#                     0.79  0.44   326 353  1/10
#     2000   32x2000  0.28  0.41   219 204  8/10
#                     0.47  0.48   252 272  4/10
#     5000   13x5000  0.13  0.46   207 192  8/10
#                     0.23  0.57   271 257  9/10
#    10000   6x10000  0.14  0.71   253 282  6/10
#                     0.13  0.72   302 279 10/10
#    20000   3x20000  0.06  0.87   328 283  9/10
#                     0.09  1.00   419 374 10/10
#
# Row adds cost less per draw up to 32 rows, in these runs and two before
# them, and as much or more from 65 rows up, where accumulate also won the
# kernel pairs in 6 to 10 of 10; at 32 rows the kernel pairs ran level
# (row adds won 5, 8, 8 and 4 of 10 in the four runs).
_ROW_SUM_ROWS = 32

_SCALED_REGIMES = (
    Regime.CLT_SQRT_N,
    Regime.CLT_SQRT_N_OVER_LOG,
    Regime.AS_POWER_LAW,
)


def checkpoint_schedule(horizon: int, factor: int = 2) -> list[int]:
    """Geometric checkpoints 1, factor, factor^2, ... capped by the horizon.

    Strictly increasing, always ending exactly at the horizon.  A zero
    horizon has the single checkpoint 0.
    """
    if horizon < 0:
        raise ConfigError("horizon must be nonnegative")
    if factor < 2:
        raise ConfigError("checkpoint factor must be at least 2")
    if horizon == 0:
        return [0]
    cps = []
    c = 1
    while c < horizon:
        cps.append(c)
        c *= factor
    cps.append(horizon)
    return cps


@dataclass(frozen=True)
class EnsembleConfig:
    """Full identity of one Monte Carlo run.

    Exactly one of matrix or synthetic must be set.  A path count whose
    buffers (_PATH_BYTES each, _SYNTHETIC_PATH_BYTES for a synthetic run)
    exceed physical memory is refused.
    """

    matrix: ReplacementMatrix | None = None
    synthetic: SyntheticProcess | None = None
    w0: float = 1.0
    b0: float = 1.0
    horizon: int = 100_000
    paths: int = 10_000
    master_seed: int = 0
    checkpoint_factor: int = 2
    forced_scaling: tuple[float, float] | None = None
    forced_center: float | None = None

    def __post_init__(self) -> None:
        if (self.matrix is None) == (self.synthetic is None):
            raise ConfigError("exactly one of matrix or synthetic must be set")
        if self.paths < 1:
            raise ConfigError("need at least one path")
        checkpoint_schedule(self.horizon, self.checkpoint_factor)  # validates both
        try:
            memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        except (AttributeError, ValueError, OSError):  # not reported: no bound
            memory = None
        per_path = _PATH_BYTES if self.matrix is not None else _SYNTHETIC_PATH_BYTES
        if memory is not None and self.paths * per_path > memory:
            raise ConfigError(
                f"{self.paths} paths need at least {self.paths * per_path} bytes,"
                f" more than the {memory} bytes of physical memory"
            )
        if self.forced_scaling is not None:
            if len(self.forced_scaling) != 2:
                raise ConfigError("forced scaling needs exactly two exponents")
            if not all(map(math.isfinite, self.forced_scaling)):
                raise ConfigError("forced scaling exponents must be finite")
        if self.forced_center is not None and not math.isfinite(self.forced_center):
            raise ConfigError("forced center must be finite")
        if self.matrix is not None:
            if not (math.isfinite(self.w0) and math.isfinite(self.b0)):
                raise ConfigError("initial counts must be finite")
            if not (self.w0 > 0.0 and self.b0 > 0.0):
                raise ConfigError("initial counts must be positive")
            max_row = max(self.matrix.row_white, self.matrix.row_black)
            if self.w0 + self.b0 + self.horizon * max_row >= COUNT_LIMIT:
                raise ConfigError(
                    "horizon would push counts beyond exact double range"
                )


@dataclass(frozen=True)
class Moments:
    mean: float
    variance: float
    skewness: float | None
    count: int


@dataclass(frozen=True)
class KSReport:
    """Kolmogorov-Smirnov distance with asymptotic pass/fail verdicts.

    The thresholds use the asymptotic constants (KS_CONSTANTS), so below
    1000 values the verdicts are approximate.
    """

    d: float
    count: int
    threshold_5: float
    threshold_1: float
    pass_at_5: bool
    pass_at_1: bool
    reference: str


@dataclass(frozen=True)
class CheckpointSummary:
    n: int
    mean: float
    variance: float


@dataclass(frozen=True)
class PathCheckpointData:
    """Checkpoint traces X_n, T_n and X_{n-1}: 1-D for one path, or one
    column per path (checkpoints x paths) as _traces replays them."""

    ns: np.ndarray
    x: np.ndarray
    t: np.ndarray
    x_prev: np.ndarray


@dataclass(eq=False)
class EnsembleResult:
    """Everything a run produces; arrays are ordered by path index."""

    config: EnsembleConfig
    prediction: LimitPrediction | None
    scaling: tuple[float, float]
    center: float
    values: np.ndarray
    final_x: np.ndarray
    moments: Moments
    ks: KSReport | None
    checkpoints: list[int]
    checkpoint_summaries: list[CheckpointSummary]
    # values_csv's rows, "path_id,z_value" for each path in path order
    csv_rows: str
    reference_scaled_mean: float | None = None

    def path_checkpoints(self, path_index: int) -> PathCheckpointData:
        """1-D checkpoint trace of one path of an urn run, replayed from its key.

        Each call replays the path's whole horizon, O(horizon) work; a
        caller that needs many traces should replay them in one call of
        the private montecarlo._traces, one column per path.  Raises
        ConfigError for a synthetic run.
        """
        return _path_trace(self.config, range(self.config.paths)[path_index])


def sample_moments(values: Sequence[float]) -> Moments:
    """Mean, unbiased variance and skewness m3/m2^(3/2) of a sample.

    Two values give no skewness; three or more values of zero spread make
    the skewness undefined and raise DegenerateVarianceError.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size < 2:
        raise ConfigError("moments need at least two values")
    moments = _with_skewness(_checkpoint_summary(0, v), v)
    if moments.skewness is None and v.size > 2:
        raise DegenerateVarianceError("skewness undefined for constant sample")
    return moments


def _checkpoint_summary(n: int, values: np.ndarray) -> CheckpointSummary:
    """Checkpoint n's mean and unbiased variance, zero for one value."""
    variance = float(np.var(values, ddof=1)) if values.size > 1 else 0.0
    return CheckpointSummary(n, float(np.mean(values)), variance)


def _with_skewness(summary: CheckpointSummary, values: np.ndarray) -> Moments:
    """The summary of values as Moments, with their skewness m3/m2^(3/2)
    about its mean: None for fewer than three values or no spread."""
    skewness = None
    if values.size > 2:
        d = values - summary.mean
        m2 = float(np.mean(d * d))
        if m2 != 0.0:
            skewness = float(np.mean(d * d * d)) / m2**1.5
    return Moments(summary.mean, summary.variance, skewness, values.size)


def ks_statistic(values: Sequence[float], cdf: Callable[[float], float]) -> float:
    """Kolmogorov-Smirnov distance between a sample and a distribution.

    D = max_i max( i/N - F(x_(i)), F(x_(i)) - (i-1)/N ) over the sorted
    sample, the exact sup-distance between the empirical step function
    and F.
    """
    xs = np.sort(np.asarray(values, dtype=np.float64))
    n = xs.size
    if n < 1:
        raise ConfigError("KS distance needs at least one value")
    if isinstance(cdf, _NormalCdf):
        f = _normal_cdfs(xs, cdf.mean, cdf.variance)
    else:
        f = np.fromiter(map(cdf, xs.tolist()), np.float64, n)
    i = np.arange(1, n + 1, dtype=np.float64)
    upper = float(np.max(i / n - f))
    lower = float(np.max(f - (i - 1.0) / n))
    return max(upper, lower)


def ks_report(
    values: np.ndarray, cdf: Callable[[float], float], reference: str
) -> KSReport:
    """KS distance to cdf with pass/fail verdicts at the 5% and 1% levels.

    The thresholds are the asymptotic ones, KS_CONSTANTS / sqrt(n), so the
    verdicts are approximate below 1000 values.
    """
    d = ks_statistic(values, cdf)
    n = values.size
    t5 = KS_CONSTANTS[0.05] / math.sqrt(n)
    t1 = KS_CONSTANTS[0.01] / math.sqrt(n)
    return KSReport(
        d=d, count=n, threshold_5=t5, threshold_1=t1,
        pass_at_5=d <= t5, pass_at_1=d <= t1, reference=reference,
    )


def deviation_split(
    checkpoints: Sequence[tuple[int, float]], p: float, exponent: float
) -> tuple[float, float]:
    """Max successive deviations over the first and last halves."""
    if len(checkpoints) < 4:
        raise ConfigError("need at least four checkpoints")
    s = []
    for n, x in checkpoints:
        if n < 1:
            raise ConfigError("checkpoints must have index >= 1")
        s.append(n**exponent * (x - p))
    devs = [abs(s[i + 1] - s[i]) for i in range(len(s) - 1)]
    half = len(devs) // 2
    return max(devs[:half]), max(devs[half:])


@dataclass(frozen=True)
class RateReport:
    """How fast the realized step rate approaches its limit."""

    sup_ratio: float
    max_critical_gap: float | None


def gamma_hat_rate_check(
    data: PathCheckpointData,
    m: ReplacementMatrix,
    prediction: LimitPrediction,
) -> RateReport:
    """Check gamma_hat_n = n gamma_n h(X_{n-1}) against its limit.

    sup_ratio bounds |gamma_hat_n - gamma_hat| relative to the envelope
    |X_n - p| + 1/n.  For critical matrices the report also carries
    max |gamma_hat_n - 1/2| * ln n, which must vanish for the log-scaled
    CLT to hold.
    """
    if prediction.p is None or prediction.gamma_hat is None:
        raise ConfigError("rate check needs a prediction with a target")
    drift = drift_from_matrix(m)
    sup_ratio = 0.0
    max_gap = 0.0
    for n, x, t, x_prev in zip(data.ns, data.x, data.t, data.x_prev):
        n = int(n)
        if n < 1:
            continue
        gh_n, ratio = _gamma_hat_n(n, x, t, x_prev, drift, prediction)
        sup_ratio = max(sup_ratio, ratio)
        max_gap = max(max_gap, abs(gh_n - 0.5) * math.log(n))
    critical = prediction.regime is Regime.CLT_SQRT_N_OVER_LOG
    return RateReport(
        sup_ratio=sup_ratio, max_critical_gap=max_gap if critical else None
    )


def _gamma_hat_n(
    n: int, x: float, t: float, x_prev: float, drift: DriftPoly, pred: LimitPrediction
) -> tuple[float, float]:
    """gamma_hat_n = n / T_n * h(X_{n-1}) and its envelope ratio
    |gamma_hat_n - gamma_hat| / (|X_n - p| + 1/n), as Python floats."""
    gh_n = n / float(t) * drift.h(float(x_prev), pred.p)
    envelope = abs(float(x) - pred.p) + 1.0 / n
    return gh_n, abs(gh_n - pred.gamma_hat) / envelope


# ---------------------------------------------------------------------------
# vectorized kernels


def _urn_states(
    m: ReplacementMatrix,
    w0: float,
    b0: float,
    keys: np.ndarray,
    ns: list[int],
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Step the urn paths with these keys; yield (X_n, T_n) at each n of
    the increasing list ns.

    Every path's state is its white-draw count k, stepped a block of
    _urn_block_rows(paths, s) draws at a time, rows that grow with the
    block's first state n = s.  Draws s+1..e+1 of a block read states
    (n, k) with s <= n <= e and k0 <= k <= k0 + n - s, whose X lie within
    _Counts.bounds' padded bounds lo <= hi.  A draw's sign_block word
    alone decides white where its uniform is surely below lo and black
    where it is surely at least hi (rng.word_thresholds).  A block is
    filled and compared one slab at a time: _urn_tile(paths) rows across
    the whole chunk, a height fixed for the chunk, so that a slab stays in
    cache whatever the block's rows.  An ambiguous draw's base is k plus
    the sure whites above it in its column.  After each slab k absorbs
    the slab's sure whites, so that the next slab's ambiguous draws,
    finished to uniforms (_ambiguous_draws), read the earlier slabs' from
    k.  The ambiguous draws of several slabs are decided exactly at once
    (_resolve), each carrying its row in the block, so that the whites a
    batch finds among a column's earlier draws count toward its later
    ones; they join k when the batch closes, before any later draw reads
    k.  A slab's running sum of sure whites takes one uint64-lane add per
    row in a slab of at most _ROW_SUM_ROWS rows, one np.add.accumulate in
    a taller one (_running_sum).  Blocks end at each n of ns.
    """
    counts = _Counts(m, w0, b0, ns[-1])
    size = keys.size
    tall = _urn_tile(size)
    k = np.zeros(size)
    lo, hi = np.empty(size), np.empty(size)
    below, above = np.empty(size, np.uint64), np.empty(size, np.uint64)
    block = np.empty(tall * size)
    scratch = np.empty(tall * size, dtype=np.uint64)
    # the slab's masks, allocated once.  Each mask row is padded to whole
    # uint64 words, so that a uint64 view adds eight columns' uint8 counts
    # at once, one per byte lane; the compares never write the padding, so
    # every padding column always reads False
    padded = -(-size // 8) * 8
    sure = np.zeros((tall, padded), dtype=bool)
    unsure = np.zeros((tall, padded), dtype=bool)
    running = _running_sum(sure, tall <= _ROW_SUM_ROWS)

    s = 0
    for n in ns:
        while s < n:
            rows = min(_urn_block_rows(size, s), n - s)
            counts.bounds(k, s, rows, lo, hi)
            rng.word_thresholds(lo, hi, below, above)
            draws, pending = [], 0
            for r0 in range(0, rows, tall):
                slab = min(tall, rows - r0)
                z = rng.sign_block(
                    keys, s + 1 + r0, slab,
                    out=block[: slab * size].reshape(slab, size),
                    scratch=scratch,
                ).view(np.uint64)
                sure_rows, unsure_rows = sure[:slab], unsure[:slab]
                np.less(z, below, out=sure_rows[:, :size])
                np.less_equal(z, above, out=unsure_rows[:, :size])
                np.logical_xor(unsure_rows, sure_rows, out=unsure_rows)
                whites = running(slab)
                at = np.flatnonzero(unsure_rows)
                if at.size:
                    draws.append(_ambiguous_draws(z, whites, at, k, r0))
                    pending += at.size
                k += whites[-1, :size]
                # decide ambiguous draws a batch of slabs at a time; a batch
                # closes once it holds _BLOCK_ELEMENTS / 8 draws, so that its
                # arrays stay near a slab's size whatever the path count,
                # and at the block's end
                end = r0 + slab == rows
                if draws and (end or pending >= _BLOCK_ELEMENTS // 8):
                    batch = draws[0]
                    if len(draws) > 1:
                        batch = map(np.concatenate, zip(*draws))
                    np.add(k, _resolve(counts, s, *batch, size), out=k)
                    draws, pending = [], 0
            s += rows
        yield counts.fraction(k, counts.at(n))


class _Counts:
    """X and T of an urn's states (n, k), n draws with k of them white,
    from urn.urn_counts: the kernel computes every X it compares or yields
    (block corners, ambiguous draws, checkpoint rows) through fraction,
    so each equals urn_step's fraction bit for bit.

    Every X is within a few ulps of the exact ratio X' of the counts
    that urn_counts rounds, (w0 + c n + p k) / (w0 + b0 + (c+d) n +
    (p+q) k) with p and q the doubles a - c and b - d.  X' is a ratio of
    affine functions of (n, k) with a positive denominator, so over a
    block's triangle of states it is extreme at a corner: (s, k0), (e, k0)
    or (e, k0 + e - s).  The corners' X, padded by twice the largest
    rounding error and clamped to [0, 1], bound every X of the block
    (bounds).  With integer entries and counts the counts are exact, so X
    is X' rounded once, and the pad only turns a few sure draws ambiguous.
    """

    def __init__(self, m: ReplacementMatrix, w0: float, b0: float, horizon: int):
        self._m, self._origin = m, (w0, b0)
        self.pad = _bound_pad(m, w0, b0, horizon)

    def at(self, n):
        """urn.drawn_counts at n draws; n is a number or an array."""
        return drawn_counts(self._m, self._origin, n)

    def fraction(self, k, at) -> tuple[np.ndarray, np.ndarray]:
        """(X, T) at the states with k white draws among the n draws whose
        drawn counts are `at`."""
        white, _, total = urn_counts(self._m, at, k)
        return np.divide(white, total), total

    def bounds(
        self, k: np.ndarray, s: int, rows: int, lo: np.ndarray, hi: np.ndarray
    ) -> None:
        """Write into lo and hi bounds lo <= X <= hi, in [0, 1], on every
        state that draws s+1..s+rows read from white-draw counts k at n = s."""
        e = s + rows - 1
        x0, _ = self.fraction(k, self.at(s))
        x1, _ = self.fraction(k, self.at(e))
        x2, _ = self.fraction(k + (rows - 1), self.at(e))
        np.minimum(np.minimum(x0, x1, out=lo), x2, out=lo)
        np.maximum(np.maximum(x0, x1, out=hi), x2, out=hi)
        lo -= self.pad
        np.fmax(lo, 0.0, out=lo)
        hi += self.pad
        np.fmin(hi, 1.0, out=hi)


def _bound_pad(m: ReplacementMatrix, w0: float, b0: float, horizon: int) -> float:
    """The pad that _Counts.bounds puts on a block's corner bounds: it
    covers the rounding of every X that urn.urn_counts gives up to
    n = horizon, or is 1.0, every draw ambiguous, where that bound fails.

    With u = 2^-53 and eta = 2^-1075, white and black are each within
    3.0001 u S + 3 eta of the exact count they round, S being the sum of
    the magnitudes of the count's terms.  Both S together are
    w0 + b0 + (c + d) n + (|p| + |q|) k, and the exact total is
    w0 + b0 + (c + d)(n - k) + (c + p + d + q) k.  Their ratio, of two
    affine functions of (n, k), is largest at a corner of
    0 <= k <= n <= horizon: 1 at k = 0, and `spread` at k = n = horizon.
    So rho, both errors over the exact total, is at most
    3.0001 u spread + 6 eta / (w0 + b0), and while rho is at most 2^-10
    every X is within 2.003 rho + 2.002 u + eta of X'.  A state's error
    and a corner's, plus u for rounding lo - pad, stay below
    16 u (spread + 1) + 32 eta / (w0 + b0); where that is at most 2^-8,
    rho is below 2^-10.
    """
    a, b, c, d = m.entries()
    p, q = a - c, b - d
    start = w0 + b0
    terms = start + (c + d + abs(p) + abs(q)) * horizon
    spread = terms / (start + ((c + p) + (d + q)) * horizon)
    pad = 2.0**-49 * (spread + 1.0) + 2.0**-1070 / start
    return pad if pad <= 2.0**-8 else 1.0


def _urn_block_rows(paths: int, n: int) -> int:
    """Draws per block of the urn kernel for a chunk of `paths`, the first
    of them draw n + 1.

    A block's ambiguous draws per path grow about as rows^2 / n, while its
    fixed cost is paid per slab of _BLOCK_ELEMENTS words across the chunk
    (_urn_tile), so its rows grow as sqrt(n):
    sqrt((n + 1) max(4, _URN_ROW_PATHS / paths)) while they fit one slab,
    more for fewer paths.  Rows past one slab add a slab each, so there a
    block takes sqrt(n + 1) rows rounded down to whole slabs, and at least
    one.  At most 255, which a column's uint8 counts hold.  Rows never fall
    as n grows.
    """
    rows = math.isqrt((n + 1) * max(4, _URN_ROW_PATHS // paths))
    slab = _urn_tile(paths)
    if rows > slab:
        rows = max(slab, rows // 2 // slab * slab)
    return min(rows, 255)


def _urn_tile(paths: int) -> int:
    """Rows of the urn kernel's slab across a chunk of `paths`: as many
    whole rows as fit _BLOCK_ELEMENTS words (_block_rows), at most 255,
    which a column's uint8 counts hold."""
    return min(255, _block_rows(paths))


def _block_rows(paths: int) -> int:
    """Whole rows of `paths` draws in _BLOCK_ELEMENTS words, at least one:
    the shape of both kernels' RNG fills."""
    return max(1, _BLOCK_ELEMENTS // paths)


def _ambiguous_draws(
    z: np.ndarray,
    whites: np.ndarray,
    at: np.ndarray,
    k: np.ndarray,
    r0: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(row, column, base, u) of a slab's ambiguous draws, in row order.

    z holds the slab's sign_block words, rows r0.. of the block and one
    column per path; at holds the ambiguous draws' flat indices in the
    masks, padded as whites is, which counts each column's sure whites in
    the slab's rows <= r; k holds the white draws before the slab.  row
    is the draw's row in the block, base is k plus the sure whites above
    the draw in the slab, u its finished uniform.
    """
    row, col = np.divmod(at, whites.shape[1])
    base = k[col] + whites.ravel()[at]
    u = rng.finish_uniforms(z[row, col])
    return row + r0, col, base, u


def _running_sum(sure: np.ndarray, row_adds: bool) -> Callable[[int], np.ndarray]:
    """A tile's running sum of sure whites: a function of a slab's rows r
    that returns, in row i of r rows of uint8 counts, each column's sure
    whites in rows <= i of the tile's sure mask, whose rows are padded to
    whole uint64 words.  With row_adds it adds each row's uint64 lanes into
    the next, in place in the mask; otherwise it takes one
    np.add.accumulate into a buffer of its own."""
    if row_adds:
        lanes = list(sure.view(np.uint64))

        def whites(rows: int) -> np.ndarray:
            for above, row in zip(lanes, lanes[1:rows]):
                np.add(above, row, out=row)
            return sure[:rows].view(np.uint8)

        return whites
    counted = np.empty((sure.shape[0], sure.shape[1] // 8), dtype=np.uint64)

    def accumulated(rows: int) -> np.ndarray:
        lanes = sure[:rows].view(np.uint64)
        return np.add.accumulate(lanes, axis=0, out=counted[:rows]).view(np.uint8)

    return accumulated


def _resolve(
    counts: _Counts,
    s: int,
    row: np.ndarray,
    col: np.ndarray,
    base: np.ndarray,
    u: np.ndarray,
    size: int,
) -> np.ndarray:
    """White draws per path among a batch of a block's ambiguous draws,
    as _ambiguous_draws found them for draws s+1.. of `size` paths, each
    column's in row order.  A draw is white iff u < X at base plus the
    whites above it in its column.  Each pass decides every draw from the
    whites that the last pass found above it, until a recount changes
    nothing: after pass p the draws of rank < p in their columns are final,
    so the one fixed point is the in-order result, by the deepest's pass.
    """
    # by column, each column's draws in row order (a radix sort: <= 16 bits)
    order = np.argsort(col.astype(np.min_scalar_type(size)), kind="stable")
    col, u, base = col[order], u[order], base[order]
    at = counts.at(s + row[order])
    head = np.searchsorted(col, col)  # where each draw's column starts
    above = 0
    while True:
        white = u < counts.fraction(base + above, at)[0]
        found = np.cumsum(white) - white
        found -= found[head]
        if (found == above).all():
            return np.bincount(col, white, size)
        above = found


def _run_synthetic_chunk(
    proc: SyntheticProcess, horizon: int, keys: np.ndarray, cps: list[int]
) -> Iterator[np.ndarray]:
    """Step the synthetic paths with these keys; yield Z_n at each
    checkpoint n, as a live buffer that the next step overwrites.

    Draw n moves Z_{n-1} to Z_n with noise +step_n where u < 1/2 and -step_n
    otherwise, step_n = size/sqrt(g_{n-1}).  Draws are filled a block at a
    time into one block and RNG scratch, allocated once: up to
    _BLOCK_ELEMENTS draws (whole rows, at least one: _block_rows), so both
    stay in cache while the step loop reads them.  Each block is filled as
    rows of +-step_n (rng.step_block), so a step is two ufunc passes,
    z *= 1 - Gamma/g_{n-1} and z += row.
    """
    z = np.full(keys.size, proc.z0, dtype=np.float64)
    # draw n moves Z_{n-1} to Z_n; the process only starts moving at `start`
    start = proc.family.first_positive_index()
    size = proc.noise_size
    rows = min(_block_rows(keys.size), max(1, horizon - start))
    block = np.empty((rows, keys.size), dtype=np.float64)
    scratch = np.empty(block.size, dtype=np.uint64)

    def noise_rows() -> Iterator[tuple[int, np.ndarray]]:
        """(n, draw n's row of +-step_n) for n = start+1..horizon; a row
        is overwritten by the next block."""
        for j in range(start + 1, horizon + 1, rows):
            count = min(rows, horizon - j + 1)
            g = map(proc.family.value_at, range(j - 1, j - 1 + count))
            steps = np.fromiter((size / math.sqrt(v) for v in g), np.float64, count)
            signed = rng.step_block(keys, j, steps, out=block, scratch=scratch)
            yield from zip(range(j, j + count), signed)

    noise = noise_rows()
    for prev, cp in zip([0, *cps], cps):
        for n, row in itertools.islice(noise, max(cp, start) - max(prev, start)):
            z *= 1.0 - proc.big_gamma / proc.family.value_at(n - 1)
            z += row
        yield z


def _traces(config: EnsembleConfig, indices: range) -> PathCheckpointData:
    """Checkpoint traces of the urn paths `indices`, one column per path.

    A path is a pure function of (master_seed, path index), so one kernel
    call over the paths' keys repeats, bit for bit, what this config's
    ensemble computed for them; it costs the paths' whole horizon.
    """
    if config.matrix is None:
        raise ConfigError("checkpoint traces exist only for urn runs")
    cps = checkpoint_schedule(config.horizon, config.checkpoint_factor)
    keys = rng.path_keys(config.master_seed, indices.start, len(indices))
    x, t, x_prev = (np.empty((len(cps), keys.size)) for _ in range(3))
    # the kernel also stops at each n - 1, just before n, for X_{n-1}
    ns = sorted({*cps, *(n - 1 for n in cps if n > 0)})
    states = _urn_states(config.matrix, config.w0, config.b0, keys, ns)
    last = np.full(keys.size, np.nan)  # X_{n-1} at n = 0
    ci = 0
    for n, (xn, tn) in zip(ns, states):
        if n == cps[ci]:
            x[ci], t[ci], x_prev[ci] = xn, tn, last
            ci += 1
        last = xn
    return PathCheckpointData(np.asarray(cps, dtype=np.int64), x, t, x_prev)


def _path_trace(config: EnsembleConfig, i: int) -> PathCheckpointData:
    """Checkpoint trace of path i of this config's runs, as 1-D arrays."""
    trace = _traces(config, range(i, i + 1))
    return PathCheckpointData(
        trace.ns, trace.x[:, 0], trace.t[:, 0], trace.x_prev[:, 0]
    )


# ---------------------------------------------------------------------------
# ensemble runner


def _prediction_and_scaling(
    m: ReplacementMatrix,
    forced_scaling: tuple[float, float] | None,
    forced_center: float | None,
) -> tuple[LimitPrediction, tuple[float, float], float]:
    """classify(m), and the weight exponents and center of the scaled statistic.

    Each forced value wins on its own; otherwise the prediction's scaling,
    which is (0, 0) for regimes without a distributional one, around the
    target p, or around 0 when there is no target.  With both forced, a
    matrix that classify refuses (its prediction is not a finite double)
    runs as NOT_APPLICABLE.
    """
    try:
        pred = classify(m)
    except ConfigError:
        if forced_scaling is None or forced_center is None:
            raise
        pred = LimitPrediction(regime=Regime.NOT_APPLICABLE, scaling=(0.0, 0.0))
    scaling = pred.scaling if forced_scaling is None else forced_scaling
    if forced_center is not None:
        return pred, scaling, forced_center
    return pred, scaling, pred.p if pred.p is not None else 0.0


@dataclass(frozen=True)
class _Source:
    """What run_ensemble needs to know about an urn or synthetic run.

    kernel maps a chunk's path keys to a generator of the chunk's X row
    at each checkpoint, the last being the horizon.  A row may be a live
    buffer of the kernel, valid until the generator is resumed.
    """

    kernel: Callable[[np.ndarray], Iterator[np.ndarray]]
    prediction: LimitPrediction | None
    scaling: tuple[float, float]
    center: float
    predicted_variance: float | None
    reference_mean: float | None


def _source(config: EnsembleConfig, cps: list[int]) -> _Source:
    horizon = config.horizon
    proc = config.synthetic
    if proc is not None:
        # the synthetic process is already centered and normalized
        return _Source(
            kernel=lambda keys: _run_synthetic_chunk(proc, horizon, keys, cps),
            prediction=None,
            scaling=(0.0, 0.0),
            center=0.0,
            predicted_variance=proc.limit_variance,
            reference_mean=None,
        )
    m, w0, b0 = config.matrix, config.w0, config.b0
    pred, scaling, center = _prediction_and_scaling(
        m, config.forced_scaling, config.forced_center
    )
    if config.forced_scaling is None and pred.regime not in _SCALED_REGIMES:
        raise ConfigError(
            f"regime {pred.regime.value} has no distributional scaling; "
            "pass forced_scaling (and forced_center) to simulate it anyway"
        )
    if config.forced_center is None and pred.p is None:
        raise ConfigError("forced scaling needs a center for this regime")
    return _Source(
        kernel=lambda keys: (x for x, _ in _urn_states(m, w0, b0, keys, cps)),
        prediction=pred,
        scaling=scaling,
        center=center,
        predicted_variance=pred.predicted_variance,
        reference_mean=reference_prediction(m, w0, b0),
    )


def _usable_cores() -> int:
    """Cores this process may run on.

    The CPU affinity mask where the platform reports one, so taskset and
    cgroup cpusets limit it; the machine's core count otherwise.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunk_plan(n_paths: int, horizon: int, workers: int) -> list[tuple[int, int]]:
    """(start, count) path chunks, one per worker where splitting pays.

    One chunk per worker keeps numpy dispatch overhead off the hot loop,
    and a chunk keeps about _MIN_CHUNK_PATHS paths and _MIN_CHUNK_PATH_STEPS
    path-steps or more.  Path streams are keyed by absolute path index, so
    the plan never affects the numbers.
    """
    n_chunks = max(1, min(workers, n_paths // _MIN_CHUNK_PATHS))
    while n_chunks > 1 and n_paths * horizon < n_chunks * _MIN_CHUNK_PATH_STEPS:
        n_chunks -= 1
    per = -(-n_paths // n_chunks)
    return [
        (start, min(per, n_paths - start)) for start in range(0, n_paths, per)
    ]


def run_ensemble(config: EnsembleConfig) -> EnsembleResult:
    """Simulate an ensemble and summarize it against the predicted limit.

    The paths are split into one chunk per usable core where that pays
    (_chunk_plan).  This process steps the first chunk and a forked worker
    process steps each other one (_forked_rows); where os.fork does not
    exist the plan has one chunk.  Each checkpoint's row, the chunks' parts
    in path order, is reduced as this process reaches it; a worker does
    not wait for that, it steps its whole chunk ahead of this process.
    After its last row each worker formats the values-CSV rows of its own
    paths while this process formats its chunk's, and the result joins
    them in chunk order.  Results are a pure function of the config,
    whatever the number of cores or chunk shape.
    """
    cps = checkpoint_schedule(config.horizon, config.checkpoint_factor)
    src = _source(config, cps)
    cores = _usable_cores() if hasattr(os, "fork") else 1
    plan = _chunk_plan(config.paths, config.horizon, cores)
    first, *rest = (
        src.kernel(rng.path_keys(config.master_seed, start, count))
        for start, count in plan
    )
    sx, sy = src.scaling

    def scaled(n: int, x: np.ndarray) -> np.ndarray:
        return weight(n, sx, sy) * (x - src.center)

    def worker_csv(start: int, x: np.ndarray) -> str:
        # elementwise, so each value equals the caller's bit for bit
        return _csv_rows(start, scaled(config.horizon, x))

    summaries = []
    with _forked_rows(rest, plan[1:], len(cps), worker_csv) as (worker_rows, texts):
        for n in cps:
            x = np.concatenate([next(first), *worker_rows()])
            values = scaled(n, x)
            summaries.append(_checkpoint_summary(n, values))
        moments = _with_skewness(summaries[-1], values)
        ks = _reference_ks(values, moments, src.predicted_variance)
        csv_rows = "".join([_csv_rows(0, values[: plan[0][1]]), *texts()])

    return EnsembleResult(
        config=config,
        prediction=src.prediction,
        scaling=src.scaling,
        center=src.center,
        values=values,
        final_x=x,
        moments=moments,
        ks=ks,
        checkpoints=cps,
        checkpoint_summaries=summaries,
        csv_rows=csv_rows,
        reference_scaled_mean=src.reference_mean,
    )


def _csv_rows(start: int, values: np.ndarray) -> str:
    """values_csv's rows for the paths start.., one per value."""
    return "".join([f"{i},{v!r}\n" for i, v in enumerate(values.tolist(), start)])


# Python 3.12+ warns on fork while other threads exist, and numpy's OpenBLAS
# starts its pool on import.  A worker runs only rng, numpy ufunc loops and
# float formatting: no BLAS call, no import and no lock another thread
# could hold.
_FORK_WARNING = r"This process .* is multi-threaded, use of fork\(\) may lead"
# Largest capacity a worker's pipe is raised to, so that a worker writes
# its checkpoint rows without waiting for the caller to read one: all 13
# of synthetic-wide's 10000-path chunk, 80000 bytes each, 13 of urn-wide's
# 14 and all of urn-narrow's.  It is Linux's default pipe-max-size, the
# most an unprivileged process may set.  A pipe's buffer is kernel memory,
# at most this much per worker, and costs the caller nothing.
_PIPE_BYTES = 1 << 20


@contextlib.contextmanager
def _forked_rows(
    streams: list[Iterator[np.ndarray]],
    chunks: list[tuple[int, int]],
    checkpoints: int,
    csv_rows: Callable[[int, np.ndarray], str],
) -> Iterator[tuple[Callable[[], list[np.ndarray]], Callable[[], list[str]]]]:
    """Step each stream, the `checkpoints` rows of chunk (start, count), in
    a forked worker.

    Yields (rows, texts).  rows returns every worker's next row, in chunk
    order, read into one buffer per worker that the next call overwrites.
    texts, called once every row has been read, returns each worker's
    csv_rows(start, last row), in chunk order.  A worker writes each row's
    float64 bytes to its own pipe, raised before the fork to hold all of
    its rows up to _PIPE_BYTES (_widen_pipe), so it steps its whole chunk
    without waiting for the caller.  Then it formats its CSV text and sends
    it behind its length.  A worker that exits before sending a whole row
    or its whole text raises UrnsaError.  On the way out, for any reason,
    every worker still running is killed and every worker reaped.
    """
    fds: list[int] = []
    running: set[int] = set()
    readers = []
    rows: list[np.ndarray] = []
    try:
        for stream, (start, count) in zip(streams, chunks):
            read_fd, write_fd = os.pipe()
            fds += (read_fd, write_fd)
            _widen_pipe(write_fd, checkpoints * count * 8)
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                _worker(
                    _payload(stream, checkpoints, start, csv_rows),
                    write_fd,
                    [fd for fd in fds if fd != write_fd],
                )
            running.add(pid)
            os.close(write_fd)
            fds.remove(write_fd)
            readers.append((read_fd, (pid, start, count)))
            rows.append(np.empty(count))

        def failed(worker: tuple[int, int, int], what: str) -> NoReturn:
            pid, start, count = worker
            running.discard(pid)
            status = os.waitpid(pid, 0)[1]
            raise UrnsaError(
                f"the worker stepping paths {start}..{start + count - 1}"
                f" {_exit_text(status)} before sending {what}"
            )

        def next_rows() -> list[np.ndarray]:
            for (fd, worker), row in zip(readers, rows):
                view = memoryview(row).cast("B")
                while view:
                    got = os.readv(fd, [view])
                    if got == 0:
                        failed(worker, "a whole row")
                    view = view[got:]
            return rows

        def received(fd: int, worker: tuple[int, int, int], size: int) -> bytes:
            # size bytes, held only as they arrive, whatever size says
            parts = []
            while size:
                got = os.read(fd, min(size, _PIPE_BYTES))
                if not got:
                    failed(worker, "its CSV rows")
                parts.append(got)
                size -= len(got)
            return b"".join(parts)

        def texts() -> list[str]:
            out = []
            for fd, worker in readers:
                size = int.from_bytes(received(fd, worker, 8), "little")
                out.append(received(fd, worker, size).decode())
            return out

        yield next_rows, texts
    finally:
        for pid in running:
            os.kill(pid, signal.SIGKILL)
        for fd in fds:
            os.close(fd)
        for pid in running:
            os.waitpid(pid, 0)


def _widen_pipe(fd: int, size: int) -> None:
    """Raise the capacity of the pipe at fd to size bytes, at most
    _PIPE_BYTES, where the platform sets pipe capacities (Linux's
    F_SETPIPE_SZ).  A pipe keeps its capacity where it holds size already,
    where the platform cannot set it or where the kernel refuses, as it
    does past a user's pipe-user-pages-soft; its worker then only waits
    for the caller to read."""
    import fcntl  # every platform with os.fork has it

    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        return
    size = min(size, _PIPE_BYTES)
    with contextlib.suppress(OSError):
        if size > fcntl.fcntl(fd, fcntl.F_GETPIPE_SZ):
            fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, size)


def _payload(
    rows: Iterator[np.ndarray],
    checkpoints: int,
    start: int,
    csv_rows: Callable[[int, np.ndarray], str],
) -> Iterator[bytes | np.ndarray]:
    """A worker's buffers: its checkpoints rows, then csv_rows(start, last
    row) as ASCII behind its length, 8 little-endian bytes."""
    # zip stops at the last checkpoint before it resumes rows, so the last
    # row is still the kernel's when it is formatted
    for _, row in zip(range(checkpoints), rows):
        yield row
    text = csv_rows(start, row).encode()
    yield len(text).to_bytes(8, "little") + text


def _worker(payload: Iterator, fd: int, inherited: list[int]) -> NoReturn:
    """A forked worker's whole life: write each buffer of payload to fd and
    exit.

    It never returns into the caller's stack.  It ignores SIGINT, which
    reaches the whole process group; the caller handles it and kills its
    workers.
    """
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        for other in inherited:
            os.close(other)
        for buffer in payload:
            view = memoryview(buffer).cast("B")
            while view:
                view = view[os.write(fd, view):]
        status = 0
    except BaseException:
        # straight to fd 2: sys.stderr's buffer lock may be held by another
        # thread of the caller, and its pending bytes are the caller's
        os.write(2, traceback.format_exc().encode(errors="replace"))
    finally:
        os._exit(status)


def _exit_text(status: int) -> str:
    if os.WIFSIGNALED(status):
        return f"was killed by {signal.Signals(os.WTERMSIG(status)).name}"
    return f"exited with status {os.WEXITSTATUS(status)}"


def _reference_ks(
    values: np.ndarray, moments: Moments, predicted_variance: float | None
) -> KSReport | None:
    """KS against the predicted normal, or the fitted one without a prediction."""
    if values.size < 2:
        return None
    if predicted_variance is not None:
        cdf = _NormalCdf(0.0, predicted_variance)
        return ks_report(values, cdf, "predicted-normal")
    if moments.variance <= 0.0:
        return None
    return ks_report(values, _NormalCdf(moments.mean, moments.variance), "fitted-normal")


@dataclass(frozen=True)
class _NormalCdf:
    """normal_cdf(z, mean, variance) as a KS reference.  ks_statistic
    evaluates it over the whole sorted sample at once (special._normal_cdfs),
    bit for bit what calling it on each value gives."""

    mean: float
    variance: float

    def __call__(self, z: float) -> float:
        return normal_cdf(z, self.mean, self.variance)


# ---------------------------------------------------------------------------
# single-path inspection


@dataclass(frozen=True)
class PathRow:
    n: int
    x: float
    scaled: float
    gamma_hat_n: float | None
    envelope_ratio: float | None


def inspect_path(config: EnsembleConfig) -> tuple[LimitPrediction, list[PathRow]]:
    """Checkpoint table for path 0 of this urn config's ensemble.

    Regimes without a distributional scaling fall back to unit weights
    around the target (or around 0 when no target exists), so the command
    remains usable for singular and degenerate matrices.  Raises
    ConfigError for a synthetic config.
    """
    data = _path_trace(config, 0)
    pred, (sx, sy), center = _prediction_and_scaling(
        config.matrix, config.forced_scaling, config.forced_center
    )
    drift = drift_from_matrix(config.matrix)
    rated = pred.p is not None and pred.gamma_hat is not None
    rows = []
    for n, x, t, x_prev in zip(data.ns.tolist(), data.x, data.t, data.x_prev):
        x = float(x)
        gh_n = ratio = None
        if n >= 1 and rated:
            gh_n, ratio = _gamma_hat_n(n, x, t, x_prev, drift, pred)
        scaled = weight(n, sx, sy) * (x - center)
        rows.append(PathRow(n, x, scaled, gamma_hat_n=gh_n, envelope_ratio=ratio))
    return pred, rows


# ---------------------------------------------------------------------------
# serialization


SCHEMA_VERSION = 1


def summary_dict(result: EnsembleResult) -> dict:
    """JSON-ready summary; excludes per-path arrays and execution knobs."""
    config, proc = _record(result.config), result.config.synthetic
    if proc is None:
        ref = result.reference_scaled_mean
        prediction = _prediction_dict(result.prediction, result.scaling, ref)
    else:
        config.update(w0=None, b0=None)
        config["synthetic"]["limit_variance"] = limit = proc.limit_variance
        prediction = dict(
            regime="SYNTHETIC", scaling=list(result.scaling), predicted_variance=limit
        )
    estimates = _record(result.moments)
    estimates["paths"] = estimates.pop("count")
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "urn" if proc is None else "synthetic",
        "config": config,
        "prediction": prediction,
        "estimates": estimates,
        "ks": _record(result.ks) if result.ks is not None else None,
        "checkpoints": [_record(s) for s in result.checkpoint_summaries],
    }


def _record(obj) -> dict:
    """asdict(obj) as JSON reads it back: tuples as lists, enums as values."""
    return asdict(obj, dict_factory=lambda items: {k: _plain(v) for k, v in items})


def _plain(value):
    if isinstance(value, enum.Enum):
        return value.value
    return list(value) if isinstance(value, tuple) else value


def _prediction_dict(pred: LimitPrediction, scaling, reference_scaled_mean) -> dict:
    record = dict(_record(pred), scaling=list(scaling))
    return dict(record, reference_scaled_mean=reference_scaled_mean)


def analyze_dict(
    m: ReplacementMatrix, w0: float | None = None, b0: float | None = None
) -> dict:
    """JSON-ready analytic report: drift, error polynomial, prediction; the
    initial counts, when given, feed the reference scaled mean if one applies."""
    pred = classify(m)
    ref = None if w0 is None or b0 is None else reference_prediction(m, w0, b0)
    return {
        "schema_version": SCHEMA_VERSION,
        "matrix": _record(m),
        "drift": _record(drift_from_matrix(m)),
        "error_poly": _record(error_poly_from_matrix(m)),
        "prediction": _prediction_dict(pred, pred.scaling, ref),
    }


def analyze_json(
    m: ReplacementMatrix, w0: float | None = None, b0: float | None = None
) -> str:
    return json.dumps(analyze_dict(m, w0, b0), indent=2, sort_keys=True) + "\n"


def summary_json(result: EnsembleResult) -> str:
    return json.dumps(summary_dict(result), indent=2, sort_keys=True) + "\n"


def values_csv(result: EnsembleResult) -> str:
    """Per-path scaled values, shortest round-trip decimal, LF endings.

    The rows were formatted by run_ensemble, each chunk's in the process
    that stepped it."""
    return "path_id,z_value\n" + result.csv_rows
