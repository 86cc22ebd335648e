"""Regime classification, closed-form variances, and scalar recursions."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from urnsa import (
    ConfigError,
    DegenerateVarianceError,
    GammaHatResult,
    LimitPrediction,
    NotStochasticApproximationError,
    Regime,
    RegimeError,
    ReplacementMatrix,
    StepFamily,
    UndefinedMeanError,
    UrnsaError,
    classify,
    damped_recursion,
    decay_product,
    drift_from_matrix,
    gamma_function,
    gamma_hat,
    reference_limit_mean,
    reference_prediction,
    reference_scaled_mean,
    stable_zeros,
    variance_alpha0,
)

entry = st.integers(0, 6).map(float)


class TestClassify:
    def test_sqrt_n_regime(self, toy_matrix):
        pred = classify(toy_matrix)
        assert pred.regime is Regime.CLT_SQRT_N
        assert pred.scaling == (0.5, 0.0)
        assert pred.p == pytest.approx(0.5, abs=1e-14)
        assert pred.gamma_hat == pytest.approx(8.0 / 7.0, rel=1e-14)
        assert pred.predicted_variance == pytest.approx(1.0 / 252.0, rel=1e-12)

    def test_critical_regime(self, critical_matrix):
        pred = classify(critical_matrix)
        assert pred.regime is Regime.CLT_SQRT_N_OVER_LOG
        assert pred.scaling == (0.5, -0.5)
        assert pred.predicted_variance == pytest.approx(1.0 / 16.0, rel=1e-14)
        assert pred.sigma2 == pytest.approx(1.0 / 16.0, rel=1e-14)

    def test_power_law_regime(self, power_law_matrix):
        pred = classify(power_law_matrix)
        assert pred.regime is Regime.AS_POWER_LAW
        assert pred.as_exponent == pytest.approx(0.4, rel=1e-14)
        assert pred.scaling == (pred.as_exponent, 0.0)
        assert pred.predicted_variance is None
        assert pred.sigma2 == pytest.approx(0.09, rel=1e-12)

    def test_singular_monotone(self):
        pred = classify(ReplacementMatrix(2, 2, 1, 1))
        assert pred.regime is Regime.SINGULAR_MONOTONE
        assert pred.sigma2 == 0.0
        assert pred.p == pytest.approx(0.5, abs=1e-14)
        assert pred.gamma_hat == pytest.approx(1.0, rel=1e-14)
        assert pred.scaling == (0.0, 0.0)

    def test_double_zero(self):
        pred = classify(ReplacementMatrix(2, 0, 1, 2))
        assert pred.regime is Regime.DOUBLE_ZERO
        assert pred.p == pytest.approx(1.0, abs=1e-12)
        assert pred.h_p == 0.0
        assert pred.gamma_hat == 0.0
        assert pred.sigma2 == 0.0

    def test_zero_drift(self):
        pred = classify(ReplacementMatrix(1, 0, 0, 1))
        assert pred.regime is Regime.ZERO_DRIFT_BETA
        assert pred.scaling == (0.0, 0.0)
        assert pred.p is None

    def test_not_applicable_keeps_roots(self):
        pred = classify(ReplacementMatrix(1, 1, 0, 3))
        assert pred.regime is Regime.NOT_APPLICABLE
        tags = {(r.value, r.stability) for r in pred.roots}
        assert tags == {(0.0, "stable"), (2.0, "unstable")}

    def test_regime_values_are_uppercase_strings(self):
        for regime in Regime:
            assert regime.value == regime.name

    @given(a=entry, b=entry, c=entry, d=entry)
    def test_internal_consistency(self, a, b, c, d):
        m = ReplacementMatrix(a, b, c, d)
        if not m.is_sa_eligible():
            return
        pred = classify(m)
        if pred.regime in (Regime.CLT_SQRT_N, Regime.CLT_SQRT_N_OVER_LOG):
            assert pred.predicted_variance > 0.0
            assert 0.0 < pred.p < 1.0
            assert pred.gamma_hat >= 0.5 - 1e-12
        if pred.regime is Regime.AS_POWER_LAW:
            assert pred.as_exponent == pred.gamma_hat
            assert 0.0 < pred.as_exponent < 0.5
        if pred.gamma_hat is not None and pred.p is not None:
            assert pred.gamma_hat == pytest.approx(
                pred.gamma * pred.h_p, rel=1e-12, abs=1e-12
            )

    @given(
        a=entry,
        b=entry,
        c=entry,
        d=entry,
        lam=st.sampled_from([0.5, 2.0, 3.0, 4.0]),
    )
    def test_positive_scaling_invariance(self, a, b, c, d, lam):
        """Multiplying the matrix by a positive constant changes nothing
        about the regime, target, gamma_hat, or limiting variances."""
        m = ReplacementMatrix(a, b, c, d)
        if not m.is_sa_eligible():
            return
        scaled = ReplacementMatrix(lam * a, lam * b, lam * c, lam * d)
        pred, pred_s = classify(m), classify(scaled)
        assert pred.regime is pred_s.regime
        if pred.p is not None:
            assert pred_s.p == pytest.approx(pred.p, abs=1e-12)
            assert pred_s.gamma == pytest.approx(pred.gamma / lam, rel=1e-12)
            assert pred_s.gamma_hat == pytest.approx(
                pred.gamma_hat, rel=1e-12, abs=1e-12
            )
        if pred.sigma2 is not None:
            assert pred_s.sigma2 == pytest.approx(
                pred.sigma2, rel=1e-12, abs=1e-12
            )
        if pred.predicted_variance is not None:
            assert pred_s.predicted_variance == pytest.approx(
                pred.predicted_variance, rel=1e-12
            )

    @given(st.tuples(*[st.floats(0.0, allow_infinity=False)] * 4))
    @example((0.5, 0.0, 5e-324, 1.0))  # the stable zero 1e-323 is a boundary zero
    @example((4e-320, 5e-320, 3e-320, 2e-320))  # gamma overflows
    @example((1.7e308, 1e308, 1.5e308, 1e308))  # h(p) overflows
    @example((1.0, 0.0, 5e-324, 0.0))  # a subnormal row sum
    @example((0.0, 8.98846567431158e307, 0.5, 0.0))  # gamma overflows after scaling
    @example((2.0, 0.0, 5e-324, 0.0))  # halving would round 5e-324 to 0
    @example((5e-324,) * 4)  # gamma = 2^1073 overflows
    @example((1.7e308, 1.0, 5e-324, 1.0))  # no exact scaling into range
    def test_any_entries_classify_or_raise_named_error(self, entries):
        m = ReplacementMatrix(*entries)
        try:
            pred = classify(m)
        except NotStochasticApproximationError:
            assert not m.is_sa_eligible()
            return
        except UrnsaError:
            return
        numbers = [
            pred.p, pred.gamma, pred.h_p, pred.gamma_hat, pred.sigma2,
            pred.predicted_variance, pred.as_exponent,
        ]
        assert all(math.isfinite(v) for v in numbers if v is not None)
        if pred.regime in (Regime.CLT_SQRT_N, Regime.CLT_SQRT_N_OVER_LOG):
            assert 1e-12 < pred.p < 1.0 - 1e-12

    def test_scaling_keeps_subnormal_entries(self):
        # the black row (5e-324, 0) is pure white like the white row
        pred = classify(ReplacementMatrix(2.0, 0.0, 5e-324, 0.0))
        assert pred.regime is Regime.SINGULAR_MONOTONE
        assert (pred.p, pred.gamma) == (1.0, 0.5)

    def test_too_wide_range_raises(self):
        with pytest.raises(ConfigError, match="too wide a range"):
            classify(ReplacementMatrix(1.7e308, 1.0, 5e-324, 1.0))

    @pytest.mark.parametrize("delta", [1e-5, 1e-6])
    def test_near_double_zero_keeps_its_regime(self, delta):
        # zeros 1/(1+delta) (stable) and 1: slope delta at the stable one,
        # well above the double-zero tolerance of about 1.2e-7
        pred = classify(ReplacementMatrix(2.0, 0.0, 1.0, 2.0 + delta))
        assert pred.regime is Regime.AS_POWER_LAW
        # a zero where the slope is delta is found to about eps / delta
        assert pred.p == pytest.approx(1.0 / (1.0 + delta), abs=1e-9)
        assert pred.gamma_hat == pytest.approx(delta / 2.0, rel=1e-3)

    def test_boundary_zero_is_not_applicable(self):
        pred = classify(ReplacementMatrix(0.5, 0.0, 5e-324, 1.0))
        assert pred.regime is Regime.NOT_APPLICABLE
        assert pred.roots[0].value == 1e-323 and pred.roots[0].stability == "stable"

    @given(a=entry, b=entry, c=entry, d=entry, s=st.floats(1e-100, 1e100))
    @example(a=4.0, b=5.0, c=3.0, d=2.0, s=1e-150)
    @example(a=4.0, b=5.0, c=3.0, d=2.0, s=1e170)
    def test_regime_is_invariant_at_extreme_scales(self, a, b, c, d, s):
        m = ReplacementMatrix(a, b, c, d)
        if not m.is_sa_eligible():
            return
        scaled = ReplacementMatrix(s * a, s * b, s * c, s * d)
        assert classify(scaled).regime is classify(m).regime

    def test_power_of_two_scaling_is_exact(self, toy_matrix):
        pred = classify(toy_matrix)
        for e in (-1000, -3, 5, 900):
            m = ReplacementMatrix(*(math.ldexp(v, e) for v in toy_matrix.entries()))
            pred_s = classify(m)
            assert pred_s.gamma == math.ldexp(pred.gamma, -e)
            assert pred_s.h_p == math.ldexp(pred.h_p, e)
            assert (pred_s.p, pred_s.gamma_hat, pred_s.predicted_variance) == (
                pred.p, pred.gamma_hat, pred.predicted_variance
            )


class TestLimitPredictionValidation:
    def test_clt_needs_variance(self):
        with pytest.raises(ConfigError):
            LimitPrediction(regime=Regime.CLT_SQRT_N, scaling=(0.5, 0.0))

    def test_clt_scaling_enforced(self):
        with pytest.raises(ConfigError):
            LimitPrediction(
                regime=Regime.CLT_SQRT_N,
                scaling=(0.4, 0.0),
                predicted_variance=1.0,
            )
        with pytest.raises(ConfigError):
            LimitPrediction(
                regime=Regime.CLT_SQRT_N_OVER_LOG,
                scaling=(0.5, 0.0),
                predicted_variance=1.0,
            )

    def test_variance_outside_clt_rejected(self):
        with pytest.raises(ConfigError):
            LimitPrediction(
                regime=Regime.ZERO_DRIFT_BETA,
                scaling=(0.0, 0.0),
                predicted_variance=1.0,
            )

    def test_as_exponent_pairing(self):
        with pytest.raises(ConfigError):
            LimitPrediction(regime=Regime.AS_POWER_LAW, scaling=(0.4, 0.0))
        with pytest.raises(ConfigError):
            LimitPrediction(
                regime=Regime.NOT_APPLICABLE,
                scaling=(0.0, 0.0),
                as_exponent=0.4,
            )

    def test_singular_needs_zero_sigma2(self):
        with pytest.raises(ConfigError):
            LimitPrediction(
                regime=Regime.SINGULAR_MONOTONE,
                scaling=(0.0, 0.0),
                sigma2=0.25,
            )


class TestVarianceAlpha0:
    def test_supercritical_value(self):
        assert variance_alpha0(ReplacementMatrix(2, 1, 1, 2)) == pytest.approx(
            1.0 / 12.0, rel=1e-14
        )

    def test_critical_value(self, critical_matrix):
        assert variance_alpha0(critical_matrix) == pytest.approx(
            1.0 / 16.0, rel=1e-14
        )

    def test_agrees_with_classify(self, critical_matrix):
        for m in (ReplacementMatrix(2, 1, 1, 2), critical_matrix):
            assert variance_alpha0(m) == pytest.approx(
                classify(m).predicted_variance, rel=1e-12
            )

    def test_subcritical_rejected(self):
        with pytest.raises(RegimeError):
            variance_alpha0(ReplacementMatrix(4, 1, 1, 4))

    def test_degenerate_noise_rejected(self):
        with pytest.raises(DegenerateVarianceError):
            variance_alpha0(ReplacementMatrix(2, 1, 2, 1))

    def test_unbalanced_rejected(self, toy_matrix):
        with pytest.raises(RegimeError):
            variance_alpha0(toy_matrix)

    def test_small_unbalanced_rejected(self):
        with pytest.raises(RegimeError, match="not balanced"):
            variance_alpha0(ReplacementMatrix(2e-13, 1e-13, 1e-13, 5e-14))

    def test_overflowing_variance_raises(self):
        # the unit matrix keeps 2^256 entries, so the four-factor products
        # overflow; classify's own arithmetic stays finite
        m = ReplacementMatrix(2.0**-1030, 2.0**300, 2.0**300, 2.0**-1030)
        with pytest.raises(ConfigError, match="not a finite double"):
            variance_alpha0(m)
        assert classify(m).predicted_variance == pytest.approx(1.0 / 12.0)

    def test_value_does_not_depend_on_the_scale(self):
        small = ReplacementMatrix(*(math.ldexp(v, -60) for v in (2, 1, 1, 2)))
        assert variance_alpha0(small) == variance_alpha0(ReplacementMatrix(2, 1, 1, 2))


unit_entry = st.one_of(st.integers(0, 9).map(float), st.floats(1 / 16, 16))
positive_entry = st.integers(1, 9).map(float)
scalable_entries = st.one_of(
    st.tuples(unit_entry, unit_entry, unit_entry, unit_entry),
    # proportional rows: singular matrices
    st.builds(
        lambda a, b, lam: (a, b, lam * a, lam * b),
        positive_entry, positive_entry, st.sampled_from([0.5, 2.0, 3.0]),
    ),
    # equal row sums: the balanced matrices variance_alpha0 takes
    st.tuples(unit_entry, unit_entry, unit_entry)
    .filter(lambda t: t[0] + t[1] >= t[2])
    .map(lambda t: (*t, t[0] + t[1] - t[2])),
)


def _outcome(f):
    try:
        return f()
    except UrnsaError as err:
        return type(err)


def analytic_results(m: ReplacementMatrix, k: int = 0) -> dict:
    """Every analytic result of m, each a value or the UrnsaError type it
    raises, with gamma and h(p) multiplied by 2^-k and 2^k, as scaling m
    by 2^k multiplies them.  classify's ZERO_DRIFT_BETA and stable_zeros'
    ZeroDriftError carry the zero-drift verdict."""

    def classify_back():
        pred = classify(m)
        if pred.gamma is None:
            return pred
        return replace(
            pred, gamma=math.ldexp(pred.gamma, -k), h_p=math.ldexp(pred.h_p, k)
        )

    def gamma_hat_back():
        p, gamma, h_p, g_hat = gamma_hat(m)
        return GammaHatResult(p, math.ldexp(gamma, -k), math.ldexp(h_p, k), g_hat)

    return {
        "classify": _outcome(classify_back),
        "gamma_hat": _outcome(gamma_hat_back),
        "is_singular": _outcome(m.is_singular),
        "stable_zeros": _outcome(lambda: stable_zeros(drift_from_matrix(m))),
        "variance_alpha0": _outcome(lambda: variance_alpha0(m)),
    }


class TestScaleInvariance:
    @given(entries=scalable_entries, k=st.integers(-1000, 1000))
    # variance_alpha0's products underflow or overflow on these raw
    # entries: 0.0 for 1/12 or 8/45, ZeroDivisionError, nan, OverflowError
    @example(entries=(4.0, 1.0, 2.0, 3.0), k=255)
    @example(entries=(2.0, 1.0, 1.0, 2.0), k=-269)
    @example(entries=(2.0, 1.0, 1.0, 2.0), k=-270)
    @example(entries=(2.0, 1.0, 1.0, 2.0), k=260)
    @example(entries=(4.0, 1.0, 2.0, 3.0), k=511)
    @example(entries=(1.206e-81, 1.318e-81, 1.247e-81, 1.277e-81), k=269)
    # a drift far below 1: an absolute floor would call it zero
    @example(entries=(4.0, 5.0, 3.0, 2.0), k=-600)
    # singular at a tiny scale
    @example(entries=(2.0, 1.0, 4.0, 2.0), k=-60)
    # the toy urn; gamma and h(p) scale back exactly
    @example(entries=(4.0, 5.0, 3.0, 2.0), k=-1000)
    @example(entries=(4.0, 5.0, 3.0, 2.0), k=-3)
    @example(entries=(4.0, 5.0, 3.0, 2.0), k=5)
    @example(entries=(4.0, 5.0, 3.0, 2.0), k=900)
    # the power-law drift 4x^2 - 6x + 2 keeps its zeros at any scale
    @example(entries=(3.0, 0.0, 2.0, 5.0), k=-1000)
    @example(entries=(3.0, 0.0, 2.0, 5.0), k=-43)
    @example(entries=(3.0, 0.0, 2.0, 5.0), k=600)
    # a balanced urn's variance at a small scale
    @example(entries=(2.0, 1.0, 1.0, 2.0), k=-60)
    # every drift coefficient below 1e-12, so below an absolute floor
    @example(entries=(4e-13, 5e-13, 3e-13, 2e-13), k=42)
    def test_results_do_not_depend_on_a_power_of_two(self, entries, k):
        scaled = tuple(math.ldexp(v, k) for v in entries)
        assume(all(math.ldexp(v, -k) == x for v, x in zip(scaled, entries)))
        assert analytic_results(ReplacementMatrix(*scaled)) == analytic_results(
            ReplacementMatrix(*entries), k
        )


class TestDecayProduct:
    def test_small_product_exact(self):
        # (1 - 1/4)(1 - 1/6)(1 - 1/8) = 35/64
        assert decay_product(2, 4, 0.5) == pytest.approx(35.0 / 64.0, rel=1e-15)

    def test_empty_range_is_one(self):
        assert decay_product(5, 4, 0.3) == 1.0

    def test_power_asymptotics(self):
        """n^alpha * prod_{k=2}^n (1 - alpha/k) -> 1/Gamma(2 - alpha)."""
        n, alpha = 10_000, 0.4
        value = decay_product(2, n, alpha) * n**alpha * gamma_function(1.6)
        assert value == pytest.approx(1.0, abs=1e-4)

    def test_monotone_in_stop(self):
        vals = [decay_product(2, stop, 0.4) for stop in (10, 20, 40, 80)]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_alpha_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ConfigError):
                decay_product(2, 10, bad)

    def test_start_domain(self):
        with pytest.raises(ConfigError):
            decay_product(0, 10, 0.4)


class TestDampedRecursion:
    def test_fixed_point_preserved(self):
        assert damped_recursion(0.5, 2.0, 1.0, StepFamily.N, 1000) == 0.5
        assert (
            damped_recursion(0.25, 2.0, 0.5, StepFamily.N_LOG_N, 500) == 0.25
        )

    def test_converges_to_ratio(self):
        value = damped_recursion(0.0, 2.0, 1.0, StepFamily.N, 1_000_000)
        assert value == pytest.approx(0.499999999994423, rel=1e-12)
        assert value < 0.5

    def test_pure_decay_frozen(self):
        value = damped_recursion(5.0, 1.0, 0.0, StepFamily.N_LOG_N, 1_000_000)
        assert value == pytest.approx(0.08463992648439107, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            damped_recursion(0.0, 0.0, 1.0, StepFamily.N, 10)
        with pytest.raises(ConfigError):
            damped_recursion(0.0, 1.0, -1.0, StepFamily.N, 10)
        with pytest.raises(ConfigError):
            damped_recursion(0.0, 1.0, 1.0, StepFamily.N, -1)


class TestReferenceMean:
    def test_frozen_values(self):
        assert reference_limit_mean(4, 4) == pytest.approx(
            11.829736841131693, rel=1e-12
        )
        assert reference_limit_mean(4, 9) == pytest.approx(
            -1.9716228068552923, rel=1e-12
        )

    def test_cancellation_at_balanced_point(self):
        # w0*Gamma(1) - 5*Gamma(2) vanishes for w0 = 5, b0 = 8
        assert abs(reference_limit_mean(5, 8)) <= 1e-9

    def test_infinite_mean_rejected(self):
        for b0 in (3.0, 2.0, 0.5):
            with pytest.raises(UndefinedMeanError):
                reference_limit_mean(4, b0)

    def test_positive_counts_required(self):
        with pytest.raises(ConfigError):
            reference_limit_mean(0, 5)
        with pytest.raises(ConfigError):
            reference_limit_mean(4, -1)

    def test_scaled_values(self):
        assert reference_scaled_mean(4, 4) == pytest.approx(
            1.3007859453529014, rel=1e-12
        )
        assert reference_scaled_mean(4, 9) == pytest.approx(
            -0.216797657558818, rel=1e-12
        )
        scale = 3.0 * 2.0**1.6
        assert reference_scaled_mean(4, 4) == pytest.approx(
            reference_limit_mean(4, 4) / scale, rel=1e-15
        )


class TestReferencePrediction:
    def test_reference_matrix_gets_value(self, power_law_matrix):
        value = reference_prediction(power_law_matrix, 4.0, 4.0)
        assert value == pytest.approx(1.3007859453529014, rel=1e-12)

    def test_other_matrix_gets_none(self, toy_matrix):
        assert reference_prediction(toy_matrix, 4.0, 4.0) is None

    def test_infinite_mean_gets_none(self, power_law_matrix):
        assert reference_prediction(power_law_matrix, 1.0, 1.0) is None
