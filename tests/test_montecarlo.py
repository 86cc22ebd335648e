"""Ensemble machinery: schedules, statistics, kernels, serialization.

The reproducibility contract under test: every number an ensemble produces
is a pure function of the config, the vectorized kernels agree bit for bit
with the scalar steppers, and neither the usable core count nor the chunk
shape ever changes output.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import signal
import threading
import time
import tracemalloc
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

import jsonschema
import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from urnsa import (
    ConfigError,
    DegenerateVarianceError,
    EnsembleConfig,
    Regime,
    ReplacementMatrix,
    StepFamily,
    SyntheticProcess,
    UrnsaError,
    analyze_dict,
    analyze_json,
    checkpoint_schedule,
    deviation_split,
    gamma_hat_rate_check,
    inspect_path,
    ks_report,
    ks_statistic,
    normal_cdf,
    rng,
    run_ensemble,
    run_path_scalar,
    sample_moments,
    summary_dict,
    summary_json,
    values_csv,
    weight,
)
from urnsa import acceptance, cli, montecarlo
from urnsa.urn import COUNT_LIMIT

from sa_helpers import synthetic_step

try:
    import fcntl
except ImportError:  # a platform without os.fork
    fcntl = None


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


class TestCheckpointSchedule:
    def test_zero_horizon(self):
        assert checkpoint_schedule(0) == [0]

    def test_one(self):
        assert checkpoint_schedule(1) == [1]

    def test_factor_two(self):
        assert checkpoint_schedule(10) == [1, 2, 4, 8, 10]

    def test_factor_four(self):
        assert checkpoint_schedule(16, factor=4) == [1, 4, 16]

    def test_strictly_increasing_to_horizon(self):
        for horizon in (2, 3, 63, 64, 65, 1000):
            cps = checkpoint_schedule(horizon, 2)
            assert cps[-1] == horizon
            assert all(x < y for x, y in zip(cps, cps[1:]))

    def test_validation(self):
        with pytest.raises(ConfigError):
            checkpoint_schedule(-1)
        with pytest.raises(ConfigError):
            checkpoint_schedule(10, factor=1)


class TestSampleMoments:
    def test_symmetric_triple(self):
        m = sample_moments([0.0, 1.0, 2.0])
        assert (m.mean, m.variance, m.skewness, m.count) == (1.0, 1.0, 0.0, 3)

    def test_two_values_skip_skewness(self):
        m = sample_moments([0.0, 1.0])
        assert m.skewness is None
        assert m.variance == pytest.approx(0.5, rel=1e-15)

    def test_skewed_sample(self):
        m = sample_moments([0.0, 0.0, 0.0, 4.0])
        assert m.skewness > 0.5

    def test_constant_sample_rejected(self):
        with pytest.raises(DegenerateVarianceError):
            sample_moments([2.0, 2.0, 2.0])

    def test_needs_two_values(self):
        with pytest.raises(ConfigError):
            sample_moments([5.0])


    @pytest.mark.parametrize(
        "values",
        [[5.0], [0.0, 1.0], [2.0, 2.0, 2.0], [0.1, 0.1, 0.1], [1e-170, 0.0, -1e-170],
         [0.0, 0.0, 0.0, 4.0], [1.0, math.nan, 2.0], list(np.linspace(-3, 7, 1001) ** 3)],
    )
    def test_checkpoint_summary_keeps_summary_moments_bits(self, values):
        """A result's moments, its last checkpoint's mean and variance with
        the values' skewness, are bit for bit those of sample_moments'
        formulas, with zero variance and no skewness for one value or no
        spread, as the summary reported them when it reduced the final
        row a second time."""
        v = np.asarray(values)
        mean = float(np.mean(v))
        variance, skewness = 0.0, None
        if v.size > 1:
            variance = float(np.var(v, ddof=1))
        if v.size > 2:
            d = v - mean
            m2 = float(np.mean(d * d))
            if m2 == 0.0:
                variance = 0.0
            else:
                skewness = float(np.mean(d * d * d)) / m2**1.5
        summary = montecarlo._checkpoint_summary(7, v)
        got = montecarlo._with_skewness(summary, v)
        assert summary.n == 7 and got.count == v.size
        assert (got.skewness is None) == (skewness is None)
        assert np.array([got.mean, got.variance, got.skewness or 0.0]).tobytes() == (
            np.array([mean, variance, skewness or 0.0]).tobytes()
        )


class TestKolmogorovSmirnov:
    @pytest.mark.parametrize(
        "extra",
        [[0.0, -0.0], [5e-324, -5e-324], [40.0, -40.0], [-1e300], [1e300, 3.0]],
    )
    @pytest.mark.parametrize("mean,variance", [(0.0, 1.0), (0.25, 1e-10), (-3.0, 7.5)])
    def test_reference_cdf_matches_scalar_path(self, extra, mean, variance):
        """The normal reference, evaluated over the sorted sample in numpy,
        gives d and both verdicts bit for bit as normal_cdf value by value,
        at signed zeros, subnormals, far tails and overflowing values."""
        xs = np.concatenate([np.tan(np.linspace(-1.5, 1.5, 997)), extra])
        cdf = montecarlo._NormalCdf(mean, variance)
        got = ks_report(xs, cdf, "normal")
        want = ks_report(xs, lambda z: normal_cdf(z, mean, variance), "normal")
        assert np.array(got.d).tobytes() == np.array(want.d).tobytes()
        assert (got.pass_at_5, got.pass_at_1) == (want.pass_at_5, want.pass_at_1)
        assert cdf(float(xs[0])) == normal_cdf(float(xs[0]), mean, variance)

    def test_reference_cdf_refuses_no_variance(self):
        with pytest.raises(ConfigError, match="variance must be positive"):
            ks_statistic([0.0, 1.0], montecarlo._NormalCdf(0.0, 0.0))

    def test_matches_scipy_on_normal(self):
        xs = np.tan(np.linspace(-1.2, 1.2, 501))  # heavy-tailed spread
        d = ks_statistic(xs, lambda z: normal_cdf(z, 0.0, 1.0))
        ref = scipy.stats.kstest(xs, "norm").statistic
        assert d == pytest.approx(ref, rel=1e-12)

    def test_matches_scipy_on_uniform(self):
        xs = (np.arange(257, dtype=np.float64) ** 2 % 101) / 101.0
        d = ks_statistic(xs, lambda z: min(max(z, 0.0), 1.0))
        ref = scipy.stats.kstest(xs, "uniform").statistic
        assert d == pytest.approx(ref, rel=1e-12)

    def test_exact_fit_grid(self):
        # N quantile midpoints have the minimal distance 1/(2N)
        n = 100
        xs = [(i + 0.5) / n for i in range(n)]
        d = ks_statistic(xs, lambda z: min(max(z, 0.0), 1.0))
        assert d == pytest.approx(1.0 / (2 * n), rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            ks_statistic([], lambda z: 0.5)

    def test_report_thresholds(self):
        xs = np.linspace(0.001, 0.999, 1000)
        rep = ks_report(xs, lambda z: min(max(z, 0.0), 1.0), "uniform")
        assert rep.threshold_5 == pytest.approx(1.358 / math.sqrt(1000), rel=1e-12)
        assert rep.threshold_1 == pytest.approx(1.628 / math.sqrt(1000), rel=1e-12)
        assert rep.pass_at_5 == (rep.d <= rep.threshold_5)
        assert rep.pass_at_1 == (rep.d <= rep.threshold_1)
        assert rep.count == 1000
        assert rep.reference == "uniform"

    def test_report_flags_bad_fit(self):
        xs = np.linspace(0.001, 0.999, 1000) ** 3  # clearly non-uniform
        rep = ks_report(xs, lambda z: min(max(z, 0.0), 1.0), "uniform")
        assert not rep.pass_at_5 and not rep.pass_at_1


class TestDeviationSplit:
    @staticmethod
    def _checkpoints():
        # s_n = n^0.4 (x_n - p) has successive gaps shrinking like n^-0.35
        p, exponent = 0.5, 0.4
        cps = []
        for k in range(10):
            n = 2**k
            x = p + (1.0 + 0.8 * n**-0.35) / n**exponent
            cps.append((n, x))
        return cps, p, exponent

    def test_tail_below_head(self):
        cps, p, exponent = self._checkpoints()
        head, tail = deviation_split(cps, p, exponent)
        assert tail < head

    def test_needs_four_checkpoints(self):
        with pytest.raises(ConfigError):
            deviation_split([(1, 0.5), (2, 0.5), (4, 0.5)], 0.5, 0.4)

    def test_rejects_index_zero(self):
        cps = [(0, 0.5), (1, 0.5), (2, 0.5), (4, 0.5)]
        with pytest.raises(ConfigError):
            deviation_split(cps, 0.5, 0.4)


class TestRateCheck:
    def test_friedman_closed_form(self, critical_matrix):
        """Balanced critical urn: totals are deterministic, so the realized
        rate is exactly 1/2 - 1/(2+4n) and the log-gap is computable."""
        cfg = EnsembleConfig(
            matrix=critical_matrix,
            w0=1,
            b0=1,
            horizon=4096,
            paths=2,
            master_seed=7,
        )
        res = run_ensemble(cfg)
        data = res.path_checkpoints(0)
        # deterministic totals T_n = 2 + 4n
        assert np.array_equal(data.t, 2.0 + 4.0 * data.ns)
        for n, t in zip(data.ns, data.t):
            if n >= 1:
                gh_n = 2.0 * n / t
                assert abs(gh_n - 0.5 + 1.0 / (2.0 + 4.0 * n)) <= 1e-12
        report = gamma_hat_rate_check(data, critical_matrix, res.prediction)
        expected_gap = max(
            math.log(n) / (2.0 + 4.0 * n) for n in data.ns if n >= 1
        )
        assert report.max_critical_gap == pytest.approx(expected_gap, rel=1e-12)
        # |gh_n - 1/2| = 1/(2+4n) <= envelope/4
        assert report.sup_ratio <= 0.25

    def test_noncritical_has_no_gap(self, toy_matrix):
        cfg = EnsembleConfig(
            matrix=toy_matrix, w0=1, b0=1, horizon=512, paths=1, master_seed=3
        )
        res = run_ensemble(cfg)
        report = gamma_hat_rate_check(
            res.path_checkpoints(0), toy_matrix, res.prediction
        )
        assert report.max_critical_gap is None
        assert report.sup_ratio <= 20.0

    def test_needs_target(self):
        m = ReplacementMatrix(1, 0, 0, 1)
        cfg = EnsembleConfig(
            matrix=m,
            w0=1,
            b0=1,
            horizon=16,
            paths=1,
            master_seed=0,
            forced_scaling=(0.0, 0.0),
            forced_center=0.5,
        )
        res = run_ensemble(cfg)
        with pytest.raises(ConfigError):
            gamma_hat_rate_check(res.path_checkpoints(0), m, res.prediction)


class TestEnsembleConfig:
    def test_exactly_one_source(self):
        with pytest.raises(ConfigError):
            EnsembleConfig()
        with pytest.raises(ConfigError):
            EnsembleConfig(
                matrix=ReplacementMatrix(1, 1, 1, 1),
                synthetic=SyntheticProcess(big_gamma=1.0, sigma2=1.0),
            )

    def test_count_guard(self, toy_matrix):
        with pytest.raises(ConfigError):
            EnsembleConfig(matrix=toy_matrix, horizon=2 * 10**15, paths=1)

    @given(
        st.tuples(*[st.integers(0, 1000)] * 4).filter(
            lambda e: max(e[0] + e[1], e[2] + e[3]) > 0
        ),
        st.integers(1, 10**6),
        st.integers(0, 2**53),
    )
    def test_count_guard_boundary(self, entries, b0, horizon):
        """w0 + b0 + horizon * max_row = COUNT_LIMIT - 1 is accepted; one
        more white ball or one more step reaches the limit and is refused."""
        m = ReplacementMatrix(*map(float, entries))
        max_row = int(max(m.row_white, m.row_black))
        limit = int(COUNT_LIMIT)
        horizon = min(horizon, (limit - 2 - b0) // max_row)
        w0 = limit - 1 - b0 - horizon * max_row
        assert w0 >= 1
        cfg = dict(matrix=m, b0=float(b0), paths=1)
        EnsembleConfig(w0=float(w0), horizon=horizon, **cfg)
        with pytest.raises(ConfigError):
            EnsembleConfig(w0=float(w0 + 1), horizon=horizon, **cfg)
        with pytest.raises(ConfigError):
            EnsembleConfig(w0=float(w0), horizon=horizon + 1, **cfg)

    def test_scalar_validation(self, toy_matrix):
        with pytest.raises(ConfigError):
            EnsembleConfig(matrix=toy_matrix, paths=0)
        with pytest.raises(ConfigError):
            EnsembleConfig(matrix=toy_matrix, horizon=-1)
        with pytest.raises(ConfigError):
            EnsembleConfig(matrix=toy_matrix, w0=0.0)
        with pytest.raises(ConfigError):
            EnsembleConfig(matrix=toy_matrix, checkpoint_factor=1)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(w0=math.nan), "initial counts"),
            (dict(b0=math.nan), "initial counts"),
            (dict(w0=math.inf), "initial counts must be finite"),
            (dict(b0=-math.inf), "initial counts must be finite"),
            (dict(forced_scaling=(math.nan, 0.0)), "forced scaling"),
            (dict(forced_scaling=(math.inf, 0.0)), "forced scaling"),
            (dict(forced_center=math.nan), "forced center"),
            (dict(big_gamma=math.nan), "big_gamma"),
            (dict(big_gamma=math.inf), "big_gamma"),
            (dict(sigma2=math.nan), "sigma2"),
            (dict(sigma2=math.inf), "sigma2"),
            (dict(z0=math.nan), "z0"),
            (dict(z0=math.inf), "z0"),
        ],
        ids=[
            "w0-nan", "b0-nan", "w0-inf", "b0-inf", "scaling-nan", "scaling-inf", "center-nan",
            "gamma-nan", "gamma-inf", "sigma2-nan", "sigma2-inf", "z0-nan", "z0-inf",
        ],
    )
    def test_non_finite_numbers_refused(self, toy_matrix, fields, message):
        """A NaN or infinite number is refused where the config is built,
        before it could reach a kernel and the summary."""
        with pytest.raises(ConfigError, match=message):
            if {"big_gamma", "sigma2", "z0"} & fields.keys():
                proc = SyntheticProcess(**{"big_gamma": 1.0, "sigma2": 1.0, **fields})
                EnsembleConfig(synthetic=proc, horizon=16, paths=4)
            else:
                EnsembleConfig(matrix=toy_matrix, horizon=16, paths=4, **fields)

    @pytest.mark.parametrize(
        "scaling", [(), (1.0,), (1.0, 2.0, 3.0)], ids=["none", "one", "three"]
    )
    def test_forced_scaling_needs_two_exponents(self, toy_matrix, scaling):
        with pytest.raises(ConfigError, match="exactly two exponents"):
            EnsembleConfig(matrix=toy_matrix, horizon=16, paths=4, forced_scaling=scaling)

    def test_path_count_beyond_memory_refused(self, toy_matrix):
        """10^13 paths are refused by the config, before any key, buffer or
        thread exists (the config is never built, so never run)."""
        threads = threading.active_count()
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="physical memory"):
                EnsembleConfig(matrix=toy_matrix, paths=10**13)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert threading.active_count() == threads

    def test_memory_bound_boundary(self, toy_matrix, monkeypatch):
        """Physical memory of ten paths' bytes: ten paths run, eleven are
        refused; where sysconf is missing there is no bound."""
        pages = {"SC_PHYS_PAGES": 10, "SC_PAGE_SIZE": montecarlo._PATH_BYTES}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__, raising=False)
        EnsembleConfig(matrix=toy_matrix, paths=10)
        with pytest.raises(ConfigError, match="physical memory"):
            EnsembleConfig(matrix=toy_matrix, paths=11)
        monkeypatch.delattr(os, "sysconf")
        EnsembleConfig(matrix=toy_matrix, paths=10**13)

    def test_synthetic_memory_bound_boundary(self, monkeypatch):
        """A synthetic run is bounded by its own, smaller bytes per path."""
        proc = SyntheticProcess(big_gamma=1.0, sigma2=1.0)
        size = montecarlo._SYNTHETIC_PATH_BYTES
        assert size < montecarlo._PATH_BYTES
        pages = {"SC_PHYS_PAGES": 10, "SC_PAGE_SIZE": size}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__, raising=False)
        EnsembleConfig(synthetic=proc, paths=10)
        with pytest.raises(ConfigError, match="480 bytes of physical memory"):
            EnsembleConfig(synthetic=proc, paths=11)

    def test_no_thread_count_field(self, toy_matrix):
        assert "threads" not in {f.name for f in fields(EnsembleConfig)}
        with pytest.raises(TypeError):
            EnsembleConfig(matrix=toy_matrix, threads=2)

    def test_unscaled_regime_needs_forcing(self):
        cfg = EnsembleConfig(
            matrix=ReplacementMatrix(1, 1, 0, 3),
            horizon=16,
            paths=2,
            master_seed=0,
        )
        with pytest.raises(ConfigError):
            run_ensemble(cfg)

    def test_forced_center_required_without_target(self):
        cfg = EnsembleConfig(
            matrix=ReplacementMatrix(1, 0, 0, 1),
            horizon=16,
            paths=2,
            master_seed=0,
            forced_scaling=(0.0, 0.0),
        )
        with pytest.raises(ConfigError):
            run_ensemble(cfg)

    def test_forced_center_defaults_to_target(self):
        cfg = EnsembleConfig(
            matrix=ReplacementMatrix(2, 2, 1, 1),  # singular, p = 1/2
            horizon=16,
            paths=2,
            master_seed=0,
            forced_scaling=(0.0, 0.0),
        )
        res = run_ensemble(cfg)
        assert res.center == 0.5
        assert np.array_equal(res.values, res.final_x - 0.5)

    def test_forced_center_alone_wins(self, toy_matrix):
        """A forced center without a forced scaling centers the predicted
        scaling's statistic, in a run and in a path's rows."""
        cfg = EnsembleConfig(
            matrix=toy_matrix, horizon=64, paths=4, master_seed=0, forced_center=0.3
        )
        res = run_ensemble(cfg)
        assert (res.scaling, res.center) == ((0.5, 0.0), 0.3)
        assert np.array_equal(res.values, weight(64, 0.5, 0.0) * (res.final_x - 0.3))
        _, rows = inspect_path(cfg)
        for row in rows:
            assert row.scaled == weight(row.n, 0.5, 0.0) * (row.x - 0.3)

    def test_forced_run_needs_no_finite_prediction(self):
        # classify refuses the toy urn scaled by 1e-320: gamma overflows
        m = ReplacementMatrix(4e-320, 5e-320, 3e-320, 2e-320)
        cfg = EnsembleConfig(
            matrix=m, horizon=16, paths=2, master_seed=0, forced_scaling=(0.0, 0.0)
        )
        with pytest.raises(ConfigError, match="not a finite double"):
            run_ensemble(cfg)
        res = run_ensemble(replace(cfg, forced_center=0.5))
        assert res.prediction.regime is Regime.NOT_APPLICABLE
        assert np.array_equal(res.values, res.final_x - 0.5)
        pred, rows = inspect_path(replace(cfg, forced_center=0.5))
        assert pred.regime is Regime.NOT_APPLICABLE
        assert rows[-1].x == res.final_x[0]


class Fill(NamedTuple):
    replay: bool  # a fill of the replay, not of the run
    block: int  # urn blocks begun before it, over the run and the replay
    paths: int
    rows: int


class Batch(NamedTuple):
    block: int
    row: np.ndarray
    col: np.ndarray
    slab: int  # rows of the fill before it


@dataclass
class KernelLog:
    """What the kernel did in one run_and_replay: its RNG fills and _resolve
    batches, whether each urn block's thresholds reached the top bucket
    (above = 2^64 - 1), each slab's running sum of sure whites as (row
    adds, rows), and the rows of the urn kernel's tile."""

    tile: int
    replay: bool = False
    fills: list[Fill] = field(default_factory=list)
    batches: list[Batch] = field(default_factory=list)
    tops: list[bool] = field(default_factory=list)
    sums: list[tuple[bool, int]] = field(default_factory=list)


def run_and_replay(cfg, check=None, elements=None, rows=None, crossover=None):
    """Run cfg with montecarlo's _BLOCK_ELEMENTS, block rows and
    _ROW_SUM_ROWS set where given, and hooks that log the kernel's work
    and assert that each column's ambiguous draws reach _resolve in row
    order.  For an urn, replay the paths from the first to the last in
    `check` (default every path) in one _traces call, and check the
    final_x and every replayed X_n, T_n and X_{n-1} of the paths in
    `check` against run_path_scalar bit for bit.  Return (result, log)."""
    patches = dict(_BLOCK_ELEMENTS=elements, _ROW_SUM_ROWS=crossover)
    if rows is not None:
        patches["_urn_block_rows"] = lambda paths, n: rows
    sign_block, word_thresholds = rng.sign_block, rng.word_thresholds
    resolve, running_sum = montecarlo._resolve, montecarlo._running_sum

    def filling(keys, first_draw, count, **buffers):
        log.fills.append(Fill(log.replay, len(log.tops), keys.size, count))
        return sign_block(keys, first_draw, count, **buffers)

    def thresholds(lo, hi, below, above):
        word_thresholds(lo, hi, below, above)
        log.tops.append(bool((above == np.uint64(2**64 - 1)).any()))

    def summing(sure, row_adds):
        whites = running_sum(sure, row_adds)

        def counted(slab):
            log.sums.append((row_adds, slab))
            return whites(slab)

        return counted

    def resolving(counts, s, row, col, base, u, size):
        by_column = np.lexsort((np.arange(col.size), col))
        same = col[by_column][1:] == col[by_column][:-1]
        assert (np.diff(row[by_column])[same] > 0).all()
        log.batches.append(Batch(len(log.tops), row, col, log.fills[-1].rows))
        return resolve(counts, s, row, col, base, u, size)

    with pytest.MonkeyPatch.context() as mp:
        for name, value in patches.items():
            if value is not None:
                mp.setattr(montecarlo, name, value)
        log = KernelLog(montecarlo._urn_tile(cfg.paths))
        mp.setattr(rng, "sign_block", filling)
        mp.setattr(rng, "word_thresholds", thresholds)
        mp.setattr(montecarlo, "_running_sum", summing)
        mp.setattr(montecarlo, "_resolve", resolving)
        res = run_ensemble(cfg)
        if cfg.matrix is None:
            return res, log
        check = range(cfg.paths) if check is None else check
        first, log.replay = min(check), True
        traces = montecarlo._traces(cfg, range(first, max(check) + 1))
    for i in check:
        key = rng.path_key(cfg.master_seed, i)
        _, states = run_path_scalar(cfg.matrix, cfg.w0, cfg.b0, cfg.horizon, key)
        assert res.final_x[i] == states[-1].fraction
        for j, n in enumerate(traces.ns):
            assert traces.x[j, i - first] == states[n].fraction
            assert traces.t[j, i - first] == states[n].total
            assert traces.x_prev[j, i - first] == states[n - 1].fraction
    return res, log


def forced_urn(entries, w0, b0, horizon, paths, seed) -> EnsembleConfig:
    """An urn config forced to unit weights around 1/2, so that any matrix
    runs, whatever its regime."""
    return EnsembleConfig(
        matrix=ReplacementMatrix(*entries), w0=w0, b0=b0, horizon=horizon,
        paths=paths, master_seed=seed, forced_scaling=(0.0, 0.0), forced_center=0.5,
    )


class TestKernelEquivalence:
    """The vectorized chunk kernels replay the scalar steppers bit for bit."""

    CASES = [
        ("integer-unbalanced", ReplacementMatrix(4, 5, 3, 2), 2.0, 3.0),
        ("integer-balanced", ReplacementMatrix(2, 1, 1, 2), 1.0, 1.0),
        ("fractional-matrix", ReplacementMatrix(0.1, 0.7, 0.3, 0.2), 1.0, 1.0),
        ("fractional-counts", ReplacementMatrix(4, 5, 3, 2), 2.5, 3.5),
        ("integer-a-below-c", ReplacementMatrix(1, 6, 4, 2), 3.0, 2.0),
    ]

    @staticmethod
    def _case(m, w0, b0) -> EnsembleConfig:
        return EnsembleConfig(
            matrix=m, w0=w0, b0=b0, horizon=300, paths=7, master_seed=2024
        )

    @pytest.mark.parametrize(
        "m,w0,b0", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
    )
    def test_urn_final_states_match_scalar(self, m, w0, b0):
        run_and_replay(self._case(m, w0, b0))

    @pytest.mark.parametrize(
        "m,w0,b0", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
    )
    def test_urn_final_states_match_scalar_across_blocks(self, m, w0, b0):
        _, log = run_and_replay(self._case(m, w0, b0), elements=100, rows=20)
        # the block kernel fills every block in slabs of at most 14 rows
        # across all 7 paths: blocks of up to 20 rows (a slab of 14 and one
        # of 6), cut at each checkpoint n, the one-row blocks to n = 1, 2
        counts = [fill.rows for fill in log.fills if not fill.replay]
        assert sum(counts) == 300
        assert max(counts) == 14
        assert min(counts) == 1
        assert 6 in counts

    @given(
        st.tuples(*[st.floats(0.0, 8.0)] * 4).filter(
            lambda e: min(e[0] + e[1], e[2] + e[3]) > 0.0
        ),
        st.tuples(*[st.floats(0.1, 10.0).filter(lambda v: not v.is_integer())] * 2),
        st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=30)
    # a stable drift zero at 1e-323: a boundary zero, so the forced run goes on
    @example(
        entries=(0.5, 0.0, 5e-324, 1.0),
        counts=(1.8500854732991492, 1.247653343403577),
        seed=0,
    )
    # exactly scaled, the black row 5e-324 does not vanish: SINGULAR_MONOTONE
    @example(
        entries=(2.0, 0.0, 5e-324, 0.0),
        counts=(1.8500854732991492, 1.247653343403577),
        seed=1,
    )
    # gamma overflows, so classify refuses; the forced run goes on
    @example(
        entries=(5e-324,) * 4,
        counts=(1.8500854732991492, 1.247653343403577),
        seed=2,
    )
    def test_fractional_urns_match_scalar_across_blocks(self, entries, counts, seed):
        # blocks of up to 3 rows in one tile of 3 paths, cut at each
        # checkpoint n: 40 steps in 17 blocks
        cfg = forced_urn(entries, *counts, horizon=40, paths=3, seed=seed)
        run_and_replay(cfg, elements=10, rows=3)

    def test_integer_urns_match_scalar_across_blocks(self):
        """The block kernel replays urn_step bit for bit over integer
        matrices, with 12-row blocks in slabs of 8 rows of 3 paths.  Each
        example checks its block shape, and the examples together met
        ambiguous draws, three of them in one column of one block (ranks
        0, 1 and 2), and the top-bucket threshold above = 2^64 - 1."""
        met: set[str] = set()

        @given(
            st.tuples(*[st.integers(0, 9).map(float)] * 4).filter(
                lambda e: min(e[0] + e[1], e[2] + e[3]) > 0.0
            ),
            st.tuples(*[st.integers(1, 10).map(float)] * 2),
            st.integers(0, 2**64 - 1),
        )
        @settings(max_examples=30)
        @example(entries=(1.0, 6.0, 4.0, 2.0), counts=(3.0, 2.0), seed=5)  # a < c
        @example(entries=(2.0, 1.0, 2.0, 3.0), counts=(1.0, 4.0), seed=6)  # a = c
        @example(entries=(2.0, 1.0, 1.0, 2.0), counts=(2.0, 1.0), seed=7)  # alpha = 0
        @example(entries=(3.0, 0.0, 2.0, 5.0), counts=(4.0, 4.0), seed=8)  # a zero
        # counts at the guard: w0 + b0 + 40 * 9 = COUNT_LIMIT - 1
        @example(
            entries=(4.0, 5.0, 3.0, 2.0), counts=(2.0**52, 2.0**52 - 361.0), seed=9
        )
        # X within 2^-31 of 1: ceil(hi 2^31) = 2^31, the threshold overflow
        @example(entries=(4.0, 5.0, 3.0, 2.0), counts=(2.0**52, 1.0), seed=10)
        # Polya-like from one ball each: X moves by up to 9/11 a draw, so the
        # bounds leave three draws of one column of a block ambiguous
        @example(entries=(9.0, 0.0, 0.0, 9.0), counts=(1.0, 1.0), seed=0)
        def check(entries, counts, seed):
            cfg = forced_urn(entries, *counts, horizon=40, paths=3, seed=seed)
            _, log = run_and_replay(cfg, elements=24, rows=12)  # 8 rows of 3 paths
            # every slab across the 3 paths.  The run cuts blocks at each
            # checkpoint n: 1, 1, 2, 4 and 8 rows, 16..32 as 12 + 4 rows
            # (slabs of 8, 4 and 4), 32..40 as 8.  The replay also cuts them
            # at n - 1: 1 row from n - 1, and 3, 7 (8..15), 12 + 3 (slabs of
            # 8, 4 and 3) and 7 rows up to n - 1
            assert {fill.paths for fill in log.fills} == {3}
            assert sum(fill.rows for fill in log.fills) == 2 * 40  # run and replay
            assert {fill.rows for fill in log.fills} == {1, 2, 3, 4, 7, 8}
            if log.batches:
                met.add("ambiguous")
            if any(np.bincount(b.col).max() >= 3 for b in log.batches):
                met.add("three in a column")
            if any(log.tops):
                met.add("top bucket")

        check()
        assert met == {"ambiguous", "three in a column", "top bucket"}

    def test_tiles_match_scalar(self):
        """The block kernel replays urn_step bit for bit in random tile
        shapes, with _BLOCK_ELEMENTS, the block rows and _ROW_SUM_ROWS
        patched.  The examples together met blocks spanning several slabs,
        a batch closed before its block's end, a batch holding one
        column's draws from two slabs, and both running sums over slabs of
        several rows, each fill spanning every path."""
        met: set[str] = set()

        @given(
            st.sampled_from(
                [(9.0, 0.0, 0.0, 9.0), (4.0, 5.0, 3.0, 2.0), (3.0, 0.0, 2.0, 5.0)]
            ),
            st.integers(1, 4).map(float),
            st.integers(1, 12),
            st.integers(1, 64),
            st.integers(1, 24),
            st.integers(0, 8),
            st.integers(0, 2**64 - 1),
        )
        @settings(max_examples=40, deadline=None)
        # the toy urn in 20-row blocks of 8-row slabs summed by row adds: a
        # batch closes after a first slab, and another holds one column's
        # draws from a block's first two slabs
        @example(
            entries=(4.0, 5.0, 3.0, 2.0), w0=1.0, paths=3, elements=24, rows=20,
            crossover=8, seed=1,
        )
        # 16-row slabs summed by np.add.accumulate
        @example(
            entries=(4.0, 5.0, 3.0, 2.0), w0=1.0, paths=3, elements=48, rows=20,
            crossover=0, seed=1,
        )
        # 5 paths, wider than _BLOCK_ELEMENTS = 2: one-row slabs
        @example(
            entries=(9.0, 0.0, 0.0, 9.0), w0=1.0, paths=5, elements=2, rows=6,
            crossover=8, seed=2,
        )
        def check(entries, w0, paths, elements, rows, crossover, seed):
            cfg = forced_urn(entries, w0, w0, horizon=60, paths=paths, seed=seed)
            _, log = run_and_replay(cfg, elements=elements, rows=rows, crossover=crossover)
            assert {fill.paths for fill in log.fills} == {paths}
            if np.bincount([fill.block for fill in log.fills]).max() > 1:
                met.add("several slabs")
            if any(a.block == b.block for a, b in itertools.pairwise(log.batches)):
                met.add("batch closed mid-block")
            for batch in log.batches:
                by_column = np.lexsort((batch.row, batch.col))
                same = batch.col[by_column][1:] == batch.col[by_column][:-1]
                if (np.diff(batch.row[by_column] // log.tile)[same] > 0).any():
                    met.add("column across slabs")
            for row_adds, slab in log.sums:
                if slab > 1:
                    met.add("row adds" if row_adds else "accumulate")

        check()
        assert met == {
            "several slabs", "batch closed mid-block", "column across slabs",
            "row adds", "accumulate",
        }
    @given(
        st.one_of(
            st.tuples(*[st.integers(0, 9).map(float)] * 4),
            st.tuples(*[st.floats(0.0, 8.0)] * 4),
        ).filter(lambda e: min(e[0] + e[1], e[2] + e[3]) > 0.0),
        st.tuples(*[st.floats(0.5, 10.0)] * 2),
        st.integers(0, 5000),
        st.integers(1, 255),
        st.integers(1, 40),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    # Polya-like from one ball each, where each decision moves the next
    # draw's X by up to 9/11
    @example(
        entries=(9.0, 0.0, 0.0, 9.0), counts=(1.0, 1.0), s=0, deepest=255,
        columns=3, seed=1,
    )
    @example(
        entries=(3.0, 0.0, 2.0, 5.0), counts=(4.0, 4.0), s=100, deepest=255,
        columns=40, seed=2,
    )
    def test_resolve_matches_in_order_decisions(
        self, entries, counts, s, deepest, columns, seed
    ):
        """_resolve's fixed point equals deciding each column's draws in
        row order, one at a time, and takes at most as many passes as the
        deepest column holds draws."""
        m = ReplacementMatrix(*entries)
        w0, b0 = counts
        urn = montecarlo._Counts(m, w0, b0, s + 255)
        gen = np.random.default_rng(seed)
        size = columns + 5
        paths = gen.permutation(size)[:columns]
        rows, cols, bases = [], [], []
        for i, path in enumerate(paths):
            depth = deepest if i == 0 else int(gen.integers(1, deepest + 1))
            row = np.sort(gen.choice(255, depth, replace=False))
            # sure whites above each draw: at most the other rows above it
            sure = np.floor((row - np.arange(depth)) * gen.random())
            rows.append(row)
            cols.append(np.full(depth, path))
            bases.append(np.floor(s * gen.random()) + sure)
        row, col, base = (np.concatenate(a) for a in (rows, cols, bases))
        flat = np.argsort(row * size + col)  # one batch's order, row by row
        row, col, base = row[flat], col[flat], base[flat]
        u = gen.random(row.size)
        counting = _CountingCounts(urn)
        found = montecarlo._resolve(counting, s, row, col, base, u, size)
        want = np.zeros(size)
        for j in np.lexsort((row, col)):  # each column in row order
            c = col[j]
            x, _ = urn.fraction(base[j] + want[c], urn.at(s + row[j]))
            want[c] += u[j] < x
        assert found.tobytes() == want.tobytes()
        assert 1 <= counting.calls <= deepest

    @pytest.mark.parametrize("u,whites,passes", [(0.4, 2.0, 2), (0.6, 0.0, 1)])
    def test_resolve_flips_the_next_decision(self, u, whites, passes):
        """(9,0;0,9) from (1, 1): the first draw reads X = 1/2, and the
        second X = 10/11 after a white and 1/11 after a black, so u = 0.6
        on the second is white only after a white first (u = 0.4).  The
        first pass decides it black, the second white."""
        urn = montecarlo._Counts(ReplacementMatrix(9, 0, 0, 9), 1.0, 1.0, 2)
        counting = _CountingCounts(urn)
        row, col, base = np.array([0, 1]), np.array([0, 0]), np.zeros(2)
        found = montecarlo._resolve(
            counting, 0, row, col, base, np.array([u, 0.6]), 1
        )
        assert list(found) == [whites]
        assert counting.calls == passes

    @pytest.mark.parametrize(
        "paths,rows,slabs",
        [(1, 255, 1), (250, 255, 1), (500, 131, 1), (1000, 65, 1), (10_000, 60, 10)],
    )
    def test_block_rows_follow_chunk_width(self, paths, rows, slabs):
        """The last block of each width's run in scripts/block_sweep.py
        step 5: up to 1000 paths it fills one tile of _BLOCK_ELEMENTS
        words across the chunk, at most 255 rows, and 10000 paths take
        sqrt(n + 1) rows in whole slabs."""
        horizon = {1: 1 << 17, 250: 1 << 15, 500: 1 << 15, 1000: 1 << 14}
        n = horizon.get(paths, 1 << 12) - 1
        assert montecarlo._urn_block_rows(paths, n) == rows
        tall = montecarlo._urn_tile(paths)
        assert -(-rows // tall) == slabs
        assert rows % tall == 0 or slabs == 1

    @pytest.mark.parametrize(
        "paths,tile",
        [
            (1, (255, 1)), (250, (255, 250)), (500, (131, 500)),
            (2_000, (32, 2_000)), (5_000, (13, 5_000)), (10_000, (6, 10_000)),
            (65_536, (1, 65_536)), (100_000, (1, 100_000)),
        ],
    )
    def test_tile_spans_the_chunk(self, paths, tile):
        """A tile, rows x columns, spans the chunk in as many whole rows
        as fit _BLOCK_ELEMENTS words, at least one and at most 255."""
        assert (montecarlo._urn_tile(paths), paths) == tile

    @pytest.mark.parametrize(
        "paths,n,rows",
        [
            (1, 0, 38), (250, 0, 2), (250, 1023, 78), (500, 4095, 128),
            (500, 1 << 20, 255), (1000, 1023, 64), (1000, 1 << 16, 195),
            (10_000, 0, 2), (10_000, 99_999, 255),
        ],
    )
    def test_block_rows_grow_as_sqrt_n(self, paths, n, rows):
        """sqrt((n + 1) max(4, 1500 / paths)) rows within one slab, and
        past it sqrt(n + 1) rounded down to whole slabs (131 rows at 500
        paths, 65 at 1000)."""
        assert montecarlo._urn_block_rows(paths, n) == rows

    @pytest.mark.parametrize("paths", [1, 250, 300, 500, 1000, 10_000, 100_000])
    def test_block_rows_never_fall(self, paths):
        """The kernel sizes its buffers from the horizon's rows."""
        rows = [montecarlo._urn_block_rows(paths, n) for n in range(1 << 16)]
        assert rows[0] >= 1 and max(rows) <= 255
        assert all(a <= b for a, b in itertools.pairwise(rows))

    @pytest.mark.parametrize(
        "m,w0,b0",
        [(ReplacementMatrix(3, 0, 2, 5), 4.0, 4.0), (ReplacementMatrix(4, 5, 3, 2), 1.0, 1.0)],
        ids=["power-law", "toy"],
    )
    def test_integer_urns_match_scalar_in_full_blocks(self, m, w0, b0):
        """Three paths run in 255-row blocks, the most a column's uint8
        counts hold, with eight or more ambiguous draws in one column of
        one 255-row block (ranks 0 to 7 and up), and match urn_step."""
        cfg = forced_urn(m.entries(), w0, b0, horizon=1000, paths=3, seed=0)
        _, log = run_and_replay(cfg)
        assert max(fill.rows for fill in log.fills) == 255
        # batches of a block that is one slab of 255 rows
        full = [np.bincount(b.col).max() for b in log.batches if b.slab == 255]
        assert max(full) >= 8

    def test_chunk_wider_than_the_block_budget(self, toy_matrix):
        """2^16 + 3 paths, more than _BLOCK_ELEMENTS words a row, run as
        one chunk (2^20 path-steps, under _MIN_CHUNK_PATH_STEPS) in
        one-row slabs across every path, and its first and last paths, run
        and replayed, match urn_step; ambiguous draws past column 2^16
        reach _resolve."""
        paths, horizon = (1 << 16) + 3, 16
        cfg = EnsembleConfig(
            matrix=toy_matrix, w0=1.0, b0=1.0, horizon=horizon, paths=paths,
            master_seed=3,
        )
        _, log = run_and_replay(cfg, check=(0, paths - 1))
        assert {(fill.paths, fill.rows) for fill in log.fills} == {(paths, 1)}
        assert len(log.fills) == 2 * horizon  # run and replay
        assert any((b.col >= 1 << 16).any() for b in log.batches)

    @given(
        st.tuples(*[st.floats(0.0, 8.0)] * 4),
        st.tuples(*[st.floats(0.1, 10.0)] * 2),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.integers(1, 255),
    )
    @settings(max_examples=200)
    # Each example below leaves a state's X outside its block's unpadded
    # corner bounds.  a < c from k = n: (w0 + c n) + (a - c) k cancels
    # down to w0 + a n, whose rounding follows c n
    @example(
        entries=(0.14, 0.84, 5.48, 4.67), counts=(1.21, 7.26),
        k0=11229, black=0, rows=255,
    )
    # subnormal entries: X' moves only with black draws
    @example(
        entries=(5e-324, 5e-324, 0.98, 3.94), counts=(3.39, 3.52),
        k0=1738, black=1124, rows=255,
    )
    # w0 = 2^52: a count's ulp is 1, so most terms round away
    @example(
        entries=(0.89, 0.6, 0.41, 0.0), counts=(2.0**52, 8.5),
        k0=24415, black=21128, rows=255,
    )
    def test_padded_bounds_hold_every_state_of_a_block(
        self, entries, counts, k0, black, rows
    ):
        """_Counts.bounds' padded corner bounds, in [0, 1], hold the X of
        every state (n, k) of a block from (s, k0), s = k0 + black:
        s <= n <= s + rows - 1 and k0 <= k <= k0 + n - s."""
        m = ReplacementMatrix(*entries)
        w0, b0 = counts
        s = k0 + black
        horizon = s + rows
        assume(w0 + b0 + horizon * max(m.row_white, m.row_black) < COUNT_LIMIT)
        urn = montecarlo._Counts(m, w0, b0, horizon)
        lo, hi = np.empty(1), np.empty(1)
        urn.bounds(np.array([float(k0)]), s, rows, lo, hi)
        assert 0.0 <= lo[0] <= hi[0] <= 1.0
        # row i of the triangle: n = s + i and i + 1 white-draw counts
        size = np.arange(1, rows + 1)
        n = np.repeat(s + np.arange(rows), size)
        k = k0 + np.arange(n.size) - np.repeat(np.cumsum(size) - size, size)
        x, _ = urn.fraction(k.astype(np.float64), urn.at(n))
        assert lo[0] <= x.min() and x.max() <= hi[0]

    def test_urn_checkpoints_match_scalar(self, toy_matrix):
        cfg = EnsembleConfig(
            matrix=toy_matrix, w0=1, b0=1, horizon=200, paths=3, master_seed=11
        )
        for i in range(3):  # each path replayed on its own, keyed from i
            run_and_replay(cfg, check=[i])

    def test_replayed_trace_in_second_chunk_matches_scalar(
        self, toy_matrix, monkeypatch
    ):
        split_into(monkeypatch, 3)
        cfg = EnsembleConfig(
            matrix=toy_matrix, w0=1, b0=1, horizon=200, paths=23, master_seed=11,
        )
        _, (start, count), _ = montecarlo._chunk_plan(cfg.paths, cfg.horizon, 3)
        res, _ = run_and_replay(cfg, check=[start + count // 2])
        last = res.path_checkpoints(-1)
        assert np.array_equal(last.x, res.path_checkpoints(cfg.paths - 1).x)
        assert last.x[-1] == res.final_x[-1]
        with pytest.raises(IndexError):
            res.path_checkpoints(cfg.paths)

    def test_replay_record_columns_are_path_traces(self, toy_matrix, monkeypatch):
        """Column i of one replay of every path is path i's own trace, on
        whichever side of a chunk seam the ensemble stepped it."""
        split_into(monkeypatch, 3)
        cfg = EnsembleConfig(
            matrix=toy_matrix, w0=1, b0=1, horizon=200, paths=23, master_seed=11,
        )
        res = run_ensemble(cfg)
        traces = montecarlo._traces(cfg, range(cfg.paths))
        assert traces.x.shape == (len(res.checkpoints), cfg.paths)
        assert np.array_equal(traces.x[-1], res.final_x)
        for i in range(cfg.paths):
            data = res.path_checkpoints(i)
            assert np.array_equal(traces.ns, data.ns)
            for record, trace in (
                (traces.x, data.x), (traces.t, data.t), (traces.x_prev, data.x_prev)
            ):
                assert trace.ndim == 1
                assert record[:, i].tobytes() == trace.tobytes()

    SYNTHETIC = SyntheticProcess(
        big_gamma=0.75, sigma2=2.0, family=StepFamily.N_LOG_N, z0=0.25
    )

    def test_synthetic_matches_scalar(self):
        self._check_synthetic()

    def test_synthetic_matches_scalar_across_blocks(self):
        # RNG blocks of 20 rows of the 5 paths
        counts = [fill.rows for fill in self._check_synthetic(elements=100).fills]
        assert sum(counts) == 300 - self.SYNTHETIC.family.first_positive_index()
        assert len(counts) >= 11  # at least ten block boundaries
        assert 0 < counts[-1] < counts[0]  # a ragged last block

    def _check_synthetic(self, elements=None) -> KernelLog:
        proc = self.SYNTHETIC
        horizon, paths, seed = 300, 5, 99
        cfg = EnsembleConfig(
            synthetic=proc, horizon=horizon, paths=paths, master_seed=seed
        )
        res, log = run_and_replay(cfg, elements=elements)
        size = proc.noise_size
        start = proc.family.first_positive_index()
        for i in range(paths):
            key = rng.path_key(seed, i)
            z = proc.z0
            for n in range(start, horizon):
                u = rng.uniform_draw(key, n + 1)
                noise = size if u < 0.5 else -size
                z = synthetic_step(
                    z, proc.big_gamma, noise, proc.family.value_at(n)
                )
            assert res.values[i] == z
        return log


def one_process_csv(values: np.ndarray) -> str:
    """values_csv as one process formatted it from a result's values."""
    rows = [f"{i},{v!r}\n" for i, v in enumerate(values.tolist())]
    return "".join(["path_id,z_value\n", *rows])


def split_into(monkeypatch, cores: int) -> None:
    """Make run_ensemble see `cores` usable cores and split even small,
    short ensembles, one chunk per core."""
    monkeypatch.setattr(montecarlo, "_MIN_CHUNK_PATHS", 1)
    monkeypatch.setattr(montecarlo, "_MIN_CHUNK_PATH_STEPS", 0)
    monkeypatch.setattr(montecarlo, "_usable_cores", lambda: cores)


class TestDeterminism:
    def test_thread_count_is_invisible_urn(self, toy_matrix, monkeypatch):
        cfg = EnsembleConfig(
            matrix=toy_matrix,
            w0=1,
            b0=1,
            horizon=200,
            paths=37,
            master_seed=5,
        )
        outs = []
        for cores in (1, 2, 3):
            split_into(monkeypatch, cores)
            res = run_ensemble(cfg)
            outs.append((summary_json(res), values_csv(res), res))
        assert len(montecarlo._chunk_plan(cfg.paths, cfg.horizon, 3)) > 1
        assert len({o[0] for o in outs}) == 1
        assert len({o[1] for o in outs}) == 1
        for o in outs[1:]:
            assert np.array_equal(o[2].values, outs[0][2].values)
            assert np.array_equal(o[2].final_x, outs[0][2].final_x)

    def test_thread_count_is_invisible_synthetic(self, monkeypatch):
        proc = SyntheticProcess(big_gamma=1.0, sigma2=1.0)
        cfg = EnsembleConfig(
            synthetic=proc,
            horizon=150,
            paths=23,
            master_seed=17,
        )
        outs = []
        for cores in (1, 3):
            split_into(monkeypatch, cores)
            outs.append(summary_json(run_ensemble(cfg)))
        assert len(montecarlo._chunk_plan(cfg.paths, cfg.horizon, 3)) > 1
        assert outs[0] == outs[1]

    def test_split_chunks_are_invisible(
        self, toy_matrix, power_law_matrix, monkeypatch
    ):
        # ensembles this small run in one chunk; force the multi-chunk path.
        # The last source is urn-narrow's urn and path count, at a shorter
        # horizon
        proc = SyntheticProcess(big_gamma=1.0, sigma2=1.0)
        for source in (
            dict(matrix=toy_matrix, horizon=150, paths=23),
            dict(synthetic=proc, horizon=150, paths=23),
            dict(matrix=power_law_matrix, w0=4, b0=4, horizon=1 << 12, paths=500),
        ):
            cfg = EnsembleConfig(**source, master_seed=17)
            outs = []
            for cores in (1, 2, 3):
                split_into(monkeypatch, cores)
                res = run_ensemble(cfg)
                outs.append((summary_json(res), values_csv(res)))
            assert outs[0] == outs[1] == outs[2]
        assert montecarlo._chunk_plan(23, 150, 3) == [(0, 8), (8, 8), (16, 7)]
        assert montecarlo._chunk_plan(500, 1 << 12, 2) == [(0, 250), (250, 250)]

    @pytest.mark.parametrize("cores", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["urn", "synthetic"])
    def test_csv_equals_one_process_formula(self, toy_matrix, monkeypatch, kind, cores):
        """Each chunk's rows, formatted where the chunk was stepped, join
        into the CSV that one process formats from the values.  101 paths
        in three chunks put the last one's ids past two digits; the urn's
        forced center, above its target 1/2, makes values of both signs."""
        split_into(monkeypatch, cores)
        source = {
            "urn": dict(matrix=toy_matrix, forced_center=0.502),
            "synthetic": dict(synthetic=SyntheticProcess(big_gamma=1.0, sigma2=1.0)),
        }[kind]
        cfg = EnsembleConfig(**source, horizon=150, paths=101, master_seed=17)
        res = run_ensemble(cfg)
        assert len(montecarlo._chunk_plan(cfg.paths, cfg.horizon, cores)) == cores
        assert (res.values < 0).any() and (res.values > 0).any()
        assert values_csv(res) == one_process_csv(res.values)

    def test_summaries_equal_one_call_replay(self, toy_matrix, monkeypatch):
        # rows reduced as three chunks yield them equal one seamless replay
        split_into(monkeypatch, 3)
        cfg = EnsembleConfig(
            matrix=toy_matrix, w0=1, b0=1, horizon=200, paths=23, master_seed=11,
        )
        res = run_ensemble(cfg)
        assert res.checkpoint_summaries == acceptance._replayed_summaries(res)

    def test_rerun_is_identical(self, toy_matrix):
        cfg = EnsembleConfig(
            matrix=toy_matrix, w0=1, b0=1, horizon=100, paths=10, master_seed=1
        )
        assert summary_json(run_ensemble(cfg)) == summary_json(run_ensemble(cfg))

    def test_seed_changes_values(self, toy_matrix):
        results = [
            run_ensemble(
                EnsembleConfig(
                    matrix=toy_matrix,
                    w0=1,
                    b0=1,
                    horizon=100,
                    paths=10,
                    master_seed=s,
                )
            )
            for s in (1, 2)
        ]
        assert not np.array_equal(results[0].values, results[1].values)


class TestUsableCores:
    def test_affinity_mask(self):
        if hasattr(os, "sched_getaffinity"):
            assert montecarlo._usable_cores() == len(os.sched_getaffinity(0))
        else:
            assert montecarlo._usable_cores() == (os.cpu_count() or 1)

    def test_core_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert montecarlo._usable_cores() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert montecarlo._usable_cores() == 1

    @pytest.mark.parametrize("cores,chunks", [(1, 1), (2, 2), (8, 8)])
    def test_wide_ensemble_runs_one_chunk_per_core(
        self, toy_matrix, monkeypatch, cores, chunks
    ):
        """urn-wide's path count: one chunk per core, each after the first
        in a forked worker; 2^10 steps give 8 chunks their path-steps."""
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: cores)
        starts, pids, _ = record_workers(monkeypatch)
        cfg = EnsembleConfig(matrix=toy_matrix, horizon=1 << 10, paths=20_000)
        run_ensemble(cfg)
        assert starts == montecarlo._chunk_plan(20_000, cfg.horizon, cores)
        assert len(starts) == chunks
        assert len(pids) == chunks - 1
        assert_reaped(pids)

    def test_no_fork_runs_one_chunk(self, toy_matrix, monkeypatch):
        """Where os.fork does not exist, a wide ensemble runs in one chunk."""
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 2)
        cfg = EnsembleConfig(matrix=toy_matrix, horizon=1 << 8, paths=20_000)
        split = summary_json(run_ensemble(cfg))
        monkeypatch.delattr(os, "fork")
        starts, _, _ = record_workers(monkeypatch)
        assert summary_json(run_ensemble(cfg)) == split
        assert starts == [(0, 20_000)]


def record_workers(monkeypatch):
    """Record the (start, count) of every chunk keyed, the pid of every
    worker forked and the wait status each worker is reaped with; return
    the list, the list and the {pid: status} dict."""
    starts, pids, statuses = [], [], {}
    path_keys, waitpid = rng.path_keys, os.waitpid

    def recording_keys(seed, start, count):
        starts.append((start, count))
        return path_keys(seed, start, count)

    monkeypatch.setattr(rng, "path_keys", recording_keys)
    if hasattr(os, "fork"):
        fork = os.fork

        def recording_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        def recording_waitpid(pid, options):
            reaped, status = waitpid(pid, options)
            if reaped in pids:
                statuses[reaped] = status
            return reaped, status

        monkeypatch.setattr(os, "fork", recording_fork)
        monkeypatch.setattr(os, "waitpid", recording_waitpid)
    return starts, pids, statuses


def assert_reaped(pids) -> None:
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def killed(status: int) -> bool:
    return os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL


def exits_within(pid: int, seconds: float) -> bool:
    """Whether child pid exits within seconds, polled with WNOHANG.
    WNOWAIT leaves it unreaped, for its owner to reap."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT):
            return True
        time.sleep(0.01)
    return False


@pytest.mark.skipif(not hasattr(os, "fork"), reason="chunks are forked workers")
class TestForkedWorkers:
    """A worker's failure surfaces as UrnsaError, a failure in the calling
    process propagates unchanged, and no worker outlives run_ensemble.
    10000 paths and 2^14 steps give each worker 15 rows of 80000 bytes,
    more than even a raised pipe holds (montecarlo._PIPE_BYTES), so a
    worker is still running when its rows stop being read."""

    def test_worker_failure_raises(self, toy_matrix, monkeypatch, capfd):
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 3)
        cfg = EnsembleConfig(matrix=toy_matrix, horizon=1 << 14, paths=30_000)
        last_key = rng.path_keys(cfg.master_seed, 20_000, 1)[0]

        sign_block = rng.sign_block

        def failing_block(keys, *args, **kwargs):
            if keys[0] == last_key:
                raise RuntimeError("kernel failure in the last chunk")
            return sign_block(keys, *args, **kwargs)

        monkeypatch.setattr(rng, "sign_block", failing_block)
        _, pids, statuses = record_workers(monkeypatch)
        with pytest.raises(
            UrnsaError, match=r"paths 20000\.\.29999 exited with status 1"
        ):
            run_ensemble(cfg)
        assert "kernel failure in the last chunk" in capfd.readouterr().err
        assert len(pids) == 2
        assert killed(statuses[pids[0]])
        assert_reaped(pids)

    def test_caller_failure_propagates(self, toy_matrix, monkeypatch):
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 2)
        cfg = EnsembleConfig(matrix=toy_matrix, horizon=1 << 14, paths=20_000)
        failure = KeyError("third checkpoint")
        calls = []
        checkpoint_summary = montecarlo._checkpoint_summary

        def failing_summary(n, values):
            calls.append(values.size)
            if len(calls) == 3:
                raise failure
            return checkpoint_summary(n, values)

        monkeypatch.setattr(montecarlo, "_checkpoint_summary", failing_summary)
        _, pids, statuses = record_workers(monkeypatch)
        with pytest.raises(KeyError) as info:
            run_ensemble(cfg)
        assert info.value is failure
        assert len(pids) == 1
        assert killed(statuses[pids[0]])
        assert_reaped(pids)

    def test_worker_failure_after_its_last_row_raises(
        self, toy_matrix, monkeypatch, capfd
    ):
        """A worker that sent every row but died formatting its CSV text."""
        split_into(monkeypatch, 2)
        csv_rows = montecarlo._csv_rows

        def failing_rows(start, values):
            if start:
                raise RuntimeError("formatting failure in the worker")
            return csv_rows(start, values)

        monkeypatch.setattr(montecarlo, "_csv_rows", failing_rows)
        _, pids, statuses = record_workers(monkeypatch)
        cfg = EnsembleConfig(matrix=toy_matrix, horizon=150, paths=23)
        with pytest.raises(
            UrnsaError,
            match=r"paths 12\.\.22 exited with status 1 before sending its CSV rows",
        ):
            run_ensemble(cfg)
        assert "formatting failure in the worker" in capfd.readouterr().err
        assert len(pids) == 1
        assert os.WEXITSTATUS(statuses[pids[0]]) == 1
        assert_reaped(pids)

    @pytest.mark.skipif(
        not hasattr(os, "waitid") or not hasattr(fcntl, "F_SETPIPE_SZ"),
        reason="needs os.waitid and pipe capacities that can be set",
    )
    def test_worker_runs_ahead(self, monkeypatch):
        """A worker sends all 11 of its 80000-byte rows and its CSV text,
        more than a default 64 KiB pipe holds, and exits before the caller
        reads its first row."""
        rows = [np.full(10_000, float(n)) for n in range(11)]
        _, pids, _ = record_workers(monkeypatch)

        def text(start, x):
            return f"{start},{float(x[0])!r}\n"

        with montecarlo._forked_rows(
            [iter(rows)], [(10_000, 10_000)], len(rows), text
        ) as (next_rows, texts):
            assert exits_within(pids[0], 10.0)
            for row in rows:
                assert np.array_equal(next_rows()[0], row)
            assert texts() == ["10000,10.0\n"]
        assert_reaped(pids)

    def test_workers_reaped_after_a_run(self, toy_matrix, monkeypatch):
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 3)
        _, pids, _ = record_workers(monkeypatch)
        run_ensemble(EnsembleConfig(matrix=toy_matrix, horizon=1 << 8, paths=30_000))
        assert len(pids) == 2
        assert_reaped(pids)

    def test_run_from_a_thread(self, toy_matrix, monkeypatch):
        """A worker forked from a thread other than the main one runs."""
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 2)
        cfg = EnsembleConfig(matrix=toy_matrix, horizon=1 << 8, paths=20_000)
        expected = summary_json(run_ensemble(cfg))
        out = []
        thread = threading.Thread(
            target=lambda: out.append(summary_json(run_ensemble(cfg)))
        )
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert out == [expected]


class TestMemory:
    @staticmethod
    def _traced_peak(cfg: EnsembleConfig) -> int:
        tracemalloc.start()
        try:
            run_ensemble(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_does_not_grow_with_checkpoints(self, toy_matrix, monkeypatch):
        """Rows are reduced as the chunks yield them: 13 checkpoints cost
        less than one more row per chunk than 7, and a run holds at least
        the bytes per path that EnsembleConfig's memory bound assumes.
        Both runs are planned by path count alone, so they split alike."""
        monkeypatch.setattr(montecarlo, "_MIN_CHUNK_PATH_STEPS", 0)
        paths = 20_000
        chunks = len(montecarlo._chunk_plan(paths, 1, montecarlo._usable_cores()))
        base = dict(matrix=toy_matrix, paths=paths, master_seed=3)
        short = self._traced_peak(EnsembleConfig(**base, horizon=1 << 6))
        long = self._traced_peak(EnsembleConfig(**base, horizon=1 << 12))
        assert long - short < chunks * (paths // chunks) * 8
        assert short >= paths * montecarlo._PATH_BYTES

    def test_synthetic_run_holds_its_path_bytes(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_MIN_CHUNK_PATH_STEPS", 0)
        proc = SyntheticProcess(big_gamma=1.0, sigma2=1.0)
        paths = 20_000
        peak = self._traced_peak(
            EnsembleConfig(synthetic=proc, paths=paths, horizon=64, master_seed=3)
        )
        assert peak >= paths * montecarlo._SYNTHETIC_PATH_BYTES


class TestChunkPlan:
    def test_narrow_ensemble_stays_in_one_chunk(self):
        # two chunks need 250 paths each: below 500 paths some kernel won
        # fewer than 9 of 10 pairs (scripts/block_sweep.py step 3)
        assert montecarlo._chunk_plan(499, 1 << 15, 2) == [(0, 499)]
        assert montecarlo._chunk_plan(400, 1 << 16, 2) == [(0, 400)]
        assert montecarlo._chunk_plan(64, 1 << 16, 2) == [(0, 64)]

    def test_wide_ensemble_splits_per_thread(self):
        assert montecarlo._chunk_plan(20_000, 4096, 2) == [
            (0, 10_000), (10_000, 10_000)
        ]

    def test_chunks_keep_the_minimum(self):
        # three cores, but only two chunks of at least the minimum fit
        assert montecarlo._chunk_plan(600, 1 << 15, 3) == [(0, 300), (300, 300)]

    def test_short_horizon_stays_in_one_chunk(self):
        assert montecarlo._chunk_plan(20_000, 16, 2) == [(0, 20_000)]
        assert montecarlo._chunk_plan(20_000, 128, 2) == [(0, 20_000)]

    def test_chunks_keep_the_path_step_minimum(self):
        # 2^23 path-steps: four chunks of 2^21 fit, not eight
        plan = montecarlo._chunk_plan(1 << 13, 1 << 10, 8)
        assert [c for _, c in plan] == [1 << 11] * 4
        assert len(montecarlo._chunk_plan(1 << 13, (1 << 10) - 1, 8)) == 3

    def test_benchmark_shapes_keep_their_plans(self):
        # urn-wide, urn-narrow and synthetic-wide (urnbench/workloads.py)
        shapes = [(20_000, 5_000), (500, 1 << 15), (20_000, 4_096)]
        chunks = [len(montecarlo._chunk_plan(p, h, 2)) for p, h in shapes]
        assert chunks == [2, 2, 2]

    @given(st.integers(1, 10**6), st.integers(0, 10**5), st.integers(1, 8))
    def test_chunks_tile_the_paths(self, n_paths, horizon, threads):
        plan = montecarlo._chunk_plan(n_paths, horizon, threads)
        assert plan[0][0] == 0
        for (s0, c0), (s1, _) in zip(plan, plan[1:]):
            assert s1 == s0 + c0
        assert sum(c for _, c in plan) == n_paths
        assert all(c > 0 for _, c in plan)
        assert len(plan) <= threads


class TestScaledValues:
    def test_sqrt_n_weighting(self, toy_matrix):
        horizon = 200
        cfg = EnsembleConfig(
            matrix=toy_matrix, w0=1, b0=1, horizon=horizon, paths=9, master_seed=4
        )
        res = run_ensemble(cfg)
        assert res.scaling == (0.5, 0.0)
        w = weight(horizon, 0.5, 0.0)
        assert w == pytest.approx(math.sqrt(horizon + 1), rel=1e-14)
        assert np.array_equal(res.values, w * (res.final_x - 0.5))

    def test_critical_log_weighting(self, critical_matrix):
        horizon = 300
        cfg = EnsembleConfig(
            matrix=critical_matrix,
            w0=1,
            b0=1,
            horizon=horizon,
            paths=9,
            master_seed=4,
        )
        res = run_ensemble(cfg)
        assert res.scaling == (0.5, -0.5)
        w = weight(horizon, 0.5, -0.5)
        assert w == pytest.approx(
            math.sqrt((horizon + 1) / math.log(horizon + 1)), rel=1e-14
        )
        assert np.array_equal(res.values, w * (res.final_x - 0.5))

    def test_power_law_weighting(self, power_law_matrix):
        horizon = 128
        cfg = EnsembleConfig(
            matrix=power_law_matrix,
            w0=4,
            b0=4,
            horizon=horizon,
            paths=9,
            master_seed=4,
        )
        res = run_ensemble(cfg)
        assert res.scaling == (0.4, 0.0)
        assert np.array_equal(
            res.values, (horizon + 1) ** 0.4 * (res.final_x - 0.5)
        )
        assert res.reference_scaled_mean == pytest.approx(
            1.3007859453529014, rel=1e-12
        )

    def test_reference_mean_only_for_reference_setup(self, toy_matrix):
        cfg = EnsembleConfig(
            matrix=toy_matrix, w0=4, b0=4, horizon=32, paths=3, master_seed=0
        )
        assert run_ensemble(cfg).reference_scaled_mean is None
        cfg = EnsembleConfig(
            matrix=ReplacementMatrix(3, 0, 2, 5),
            w0=1,
            b0=1,
            horizon=32,
            paths=3,
            master_seed=0,
        )
        assert run_ensemble(cfg).reference_scaled_mean is None

    def test_zero_horizon_run(self, toy_matrix):
        cfg = EnsembleConfig(
            matrix=toy_matrix, w0=1, b0=1, horizon=0, paths=4, master_seed=0
        )
        res = run_ensemble(cfg)
        assert res.checkpoints == [0]
        assert np.all(res.final_x == 0.5)
        assert np.all(res.values == 0.0)
        assert res.moments.variance == 0.0
        data = res.path_checkpoints(0)
        assert math.isnan(data.x_prev[0])


class TestSyntheticMoments:
    @staticmethod
    def exact_second_moment(
        big_gamma: float, sigma2: float, family: StepFamily, horizon: int
    ) -> float:
        """E[z_n^2] evolves exactly: m' = (1-G/g)^2 m + sigma2/g."""
        k = family.first_positive_index()
        m = 0.0
        while k < horizon:
            g = family.value_at(k)
            f = 1.0 - big_gamma / g
            m = f * f * m + sigma2 / g
            k += 1
        return m

    def test_exact_recursion_frozen(self):
        assert self.exact_second_moment(
            1.0, 1.0, StepFamily.N, 100_000
        ) == pytest.approx(0.500005000050008, rel=1e-9)
        assert self.exact_second_moment(
            1.0, 1.0, StepFamily.N_LOG_N, 100_000
        ) == pytest.approx(0.5028150568407572, rel=1e-9)
        assert self.exact_second_moment(
            0.5, 1.0, StepFamily.N_LOG_N, 100_000
        ) == pytest.approx(0.9842508632043427, rel=1e-9)

    def test_exact_recursion_approaches_limit(self):
        proc = SyntheticProcess(big_gamma=1.0, sigma2=1.0)
        m = self.exact_second_moment(1.0, 1.0, StepFamily.N, 100_000)
        assert m == pytest.approx(proc.limit_variance, rel=1e-4)

    def test_ensemble_matches_exact_moments(self):
        """Sample mean/variance sit within 6 standard errors of the exact
        values; the z distribution is symmetric so the mean target is 0."""
        proc = SyntheticProcess(big_gamma=1.0, sigma2=1.0)
        horizon, paths = 500, 20_000
        cfg = EnsembleConfig(
            synthetic=proc, horizon=horizon, paths=paths, master_seed=31
        )
        res = run_ensemble(cfg)
        exact = self.exact_second_moment(1.0, 1.0, StepFamily.N, horizon)
        se_mean = math.sqrt(exact / paths)
        assert abs(res.moments.mean) <= 6.0 * se_mean
        se_var = exact * math.sqrt(2.0 / (paths - 1))
        assert abs(res.moments.variance - exact) <= 6.0 * se_var
        last = res.checkpoint_summaries[-1]
        assert last.n == horizon
        assert last.variance == res.moments.variance


def path_config(m: ReplacementMatrix, horizon: int) -> EnsembleConfig:
    return EnsembleConfig(matrix=m, horizon=horizon, paths=1, master_seed=0)


class TestInspectPath:
    def test_rows_match_ensemble_path_zero(self, toy_matrix):
        horizon, seed = 64, 13
        cfg = EnsembleConfig(
            matrix=toy_matrix, w0=1, b0=1, horizon=horizon, paths=2, master_seed=seed
        )
        pred, rows = inspect_path(cfg)
        res = run_ensemble(cfg)
        assert pred.regime is res.prediction.regime
        assert [r.n for r in rows] == res.checkpoints
        assert rows[-1].x == res.final_x[0]
        replayed = res.path_checkpoints(0)
        for j, row in enumerate(rows):
            assert row.x == replayed.x[j]
            assert row.scaled == weight(row.n, 0.5, 0.0) * (row.x - 0.5)
            if row.n >= 1:
                # Python floats: the `urnsa path` CSV prints their repr
                assert type(row.gamma_hat_n) is float
                assert type(row.envelope_ratio) is float
                assert row.envelope_ratio >= 0.0

    def test_rows_do_not_depend_on_the_scale(self, toy_matrix):
        """Entries and counts times 2^-50 give the same rows: a small drift
        still has a restoring strength."""
        s = 2.0**-50
        small = ReplacementMatrix(*(v * s for v in toy_matrix.entries()))
        cfg = EnsembleConfig(matrix=toy_matrix, horizon=4096, paths=1, master_seed=13)
        _, rows = inspect_path(cfg)
        _, small_rows = inspect_path(replace(cfg, matrix=small, w0=s, b0=s))
        assert len(rows) == 13
        assert small_rows == rows

    def test_unscaled_regime_falls_back_to_unit_weights(self):
        pred, rows = inspect_path(path_config(ReplacementMatrix(2, 2, 1, 1), 32))
        assert pred.regime is Regime.SINGULAR_MONOTONE
        for row in rows:
            assert row.scaled == row.x - 0.5

    def test_zero_drift_fallback_centers_at_zero(self):
        pred, rows = inspect_path(path_config(ReplacementMatrix(1, 0, 0, 1), 32))
        assert pred.regime is Regime.ZERO_DRIFT_BETA
        for row in rows:
            assert row.scaled == row.x
            assert row.gamma_hat_n is None

    def test_zero_horizon_row(self, toy_matrix):
        _, rows = inspect_path(path_config(toy_matrix, 0))
        assert len(rows) == 1
        assert rows[0].n == 0
        assert rows[0].x == 0.5
        assert rows[0].gamma_hat_n is None

    @pytest.mark.parametrize(
        "w0, b0, horizon, message",
        [
            (0.0, 1.0, 4, "initial counts must be positive"),
            (1.0, -2.0, 4, "initial counts must be positive"),
            (1.0, 1.0, 2**53 // 9 + 1, "exact double range"),
        ],
    )
    def test_refuses_what_the_ensemble_refuses(
        self, toy_matrix, w0, b0, horizon, message, capsys
    ):
        with pytest.raises(ConfigError, match=message):
            EnsembleConfig(
                matrix=toy_matrix, w0=w0, b0=b0, horizon=horizon, paths=1
            )
        argv = ["path", "-m", "4,5,3,2", f"--w0={w0}", f"--b0={b0}"]
        assert cli.main([*argv, f"--horizon={horizon}"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err

    def test_synthetic_config_refused(self):
        proc = SyntheticProcess(big_gamma=1.0, sigma2=1.0)
        cfg = EnsembleConfig(synthetic=proc, horizon=16, paths=1, master_seed=0)
        with pytest.raises(ConfigError, match="only for urn runs"):
            inspect_path(cfg)


SUMMARY_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": [
        "schema_version",
        "kind",
        "config",
        "prediction",
        "estimates",
        "ks",
        "checkpoints",
    ],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": 1},
        "kind": {"enum": ["urn", "synthetic"]},
        "config": {
            "type": "object",
            "required": [
                "matrix",
                "w0",
                "b0",
                "synthetic",
                "horizon",
                "paths",
                "master_seed",
                "checkpoint_factor",
                "forced_scaling",
                "forced_center",
            ],
            "properties": {
                "matrix": {
                    "type": ["object", "null"],
                    "required": ["a", "b", "c", "d"],
                    "properties": {k: {"type": "number"} for k in "abcd"},
                },
                "w0": {"type": ["number", "null"]},
                "b0": {"type": ["number", "null"]},
                "synthetic": {
                    "type": ["object", "null"],
                    "required": [
                        "big_gamma",
                        "sigma2",
                        "family",
                        "z0",
                        "limit_variance",
                    ],
                },
                "horizon": {"type": "integer", "minimum": 0},
                "paths": {"type": "integer", "minimum": 1},
                "master_seed": {"type": "integer"},
                "checkpoint_factor": {"type": "integer", "minimum": 2},
                "forced_scaling": {
                    "type": ["array", "null"],
                    "items": {"type": "number"},
                    "minItems": 2,
                    "maxItems": 2,
                },
                "forced_center": {"type": ["number", "null"]},
            },
        },
        "prediction": {
            "type": "object",
            "required": ["regime", "scaling"],
            "properties": {
                "regime": {
                    "enum": [
                        "CLT_SQRT_N",
                        "CLT_SQRT_N_OVER_LOG",
                        "AS_POWER_LAW",
                        "SINGULAR_MONOTONE",
                        "DOUBLE_ZERO",
                        "ZERO_DRIFT_BETA",
                        "NOT_APPLICABLE",
                        "SYNTHETIC",
                    ]
                },
                "scaling": {
                    "type": "array",
                    "items": {"type": "number"},
                    "minItems": 2,
                    "maxItems": 2,
                },
                "predicted_variance": {"type": ["number", "null"]},
                "roots": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["value", "stability"],
                        "properties": {
                            "value": {"type": "number"},
                            "stability": {
                                "enum": ["stable", "unstable", "double"]
                            },
                        },
                    },
                },
            },
        },
        "estimates": {
            "type": "object",
            "required": ["mean", "variance", "skewness", "paths"],
            "properties": {
                "mean": {"type": "number"},
                "variance": {"type": "number", "minimum": 0},
                "skewness": {"type": ["number", "null"]},
                "paths": {"type": "integer", "minimum": 1},
            },
        },
        "ks": {
            "type": ["object", "null"],
            "required": [
                "d",
                "count",
                "threshold_5",
                "threshold_1",
                "pass_at_5",
                "pass_at_1",
                "reference",
            ],
            "properties": {
                "d": {"type": "number", "minimum": 0, "maximum": 1},
                "count": {"type": "integer"},
                "threshold_5": {"type": "number"},
                "threshold_1": {"type": "number"},
                "pass_at_5": {"type": "boolean"},
                "pass_at_1": {"type": "boolean"},
                "reference": {"enum": ["predicted-normal", "fitted-normal"]},
            },
        },
        "checkpoints": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["n", "mean", "variance"],
                "properties": {
                    "n": {"type": "integer", "minimum": 0},
                    "mean": {"type": "number"},
                    "variance": {"type": "number", "minimum": 0},
                },
            },
        },
    },
}

ANALYZE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "matrix", "drift", "error_poly", "prediction"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": 1},
        "matrix": SUMMARY_SCHEMA["properties"]["config"]["properties"]["matrix"],
        "drift": {
            "type": "object",
            "required": ["quad", "lin", "const"],
            "properties": {k: {"type": "number"} for k in ("quad", "lin", "const")},
        },
        "error_poly": {
            "type": "object",
            "required": ["a_minus_c", "alpha"],
        },
        "prediction": {
            "type": "object",
            "required": [
                "regime",
                "scaling",
                "p",
                "gamma",
                "h_p",
                "gamma_hat",
                "sigma2",
                "predicted_variance",
                "as_exponent",
                "reference_scaled_mean",
                "roots",
            ],
        },
    },
}


class TestSerialization:
    def test_summary_schema_urn(self, toy_matrix):
        jsonschema.Draft202012Validator.check_schema(SUMMARY_SCHEMA)
        cfg = EnsembleConfig(
            matrix=toy_matrix, w0=1, b0=1, horizon=64, paths=8, master_seed=2
        )
        doc = summary_dict(run_ensemble(cfg))
        jsonschema.validate(doc, SUMMARY_SCHEMA)
        assert doc["kind"] == "urn"
        assert doc["prediction"]["regime"] == "CLT_SQRT_N"
        assert doc["config"]["synthetic"] is None

    def test_summary_schema_synthetic(self):
        proc = SyntheticProcess(big_gamma=1.0, sigma2=1.0)
        cfg = EnsembleConfig(synthetic=proc, horizon=64, paths=8, master_seed=2)
        doc = summary_dict(run_ensemble(cfg))
        jsonschema.validate(doc, SUMMARY_SCHEMA)
        assert doc["kind"] == "synthetic"
        assert doc["prediction"]["regime"] == "SYNTHETIC"
        assert doc["prediction"]["predicted_variance"] == 0.5
        assert doc["config"]["matrix"] is None

    def test_summary_schema_forced_run(self):
        cfg = EnsembleConfig(
            matrix=ReplacementMatrix(1, 1, 0, 3),
            horizon=16,
            paths=4,
            master_seed=0,
            forced_scaling=(0.0, 0.0),
            forced_center=0.25,
        )
        doc = summary_dict(run_ensemble(cfg))
        jsonschema.validate(doc, SUMMARY_SCHEMA)
        assert doc["config"]["forced_scaling"] == [0.0, 0.0]
        assert doc["prediction"]["regime"] == "NOT_APPLICABLE"

    def test_summary_json_round_trip(self, toy_matrix):
        cfg = EnsembleConfig(
            matrix=toy_matrix, w0=1, b0=1, horizon=32, paths=4, master_seed=2
        )
        res = run_ensemble(cfg)
        text = summary_json(res)
        assert text.endswith("\n")
        assert json.loads(text) == summary_dict(res)

    def test_analyze_schema(self, toy_matrix, power_law_matrix):
        jsonschema.Draft202012Validator.check_schema(ANALYZE_SCHEMA)
        for m in (
            toy_matrix,
            power_law_matrix,
            ReplacementMatrix(1, 1, 0, 3),
            ReplacementMatrix(2, 2, 1, 1),
            ReplacementMatrix(1, 0, 0, 1),
            ReplacementMatrix(2, 0, 1, 2),
        ):
            doc = analyze_dict(m)
            jsonschema.validate(doc, ANALYZE_SCHEMA)
        doc = analyze_dict(power_law_matrix, 4.0, 4.0)
        assert doc["prediction"]["reference_scaled_mean"] == pytest.approx(
            1.3007859453529014, rel=1e-12
        )
        text = analyze_json(power_law_matrix, 4.0, 4.0)
        assert json.loads(text) == doc

    def test_values_csv_round_trip(self, toy_matrix):
        cfg = EnsembleConfig(
            matrix=toy_matrix, w0=1, b0=1, horizon=32, paths=5, master_seed=2
        )
        res = run_ensemble(cfg)
        text = values_csv(res)
        lines = text.splitlines()
        assert lines[0] == "path_id,z_value"
        assert len(lines) == 6
        for i, line in enumerate(lines[1:]):
            pid, value = line.split(",")
            assert int(pid) == i
            assert float(value) == res.values[i]

    def test_path_checkpoints_rejected_for_synthetic(self):
        proc = SyntheticProcess(big_gamma=1.0, sigma2=1.0)
        cfg = EnsembleConfig(synthetic=proc, horizon=16, paths=2, master_seed=0)
        res = run_ensemble(cfg)
        with pytest.raises(ConfigError):
            res.path_checkpoints(0)
