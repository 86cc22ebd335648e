"""Stochastic approximation primitives: steps, weights, coordinate forms."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from urnsa import (
    ConfigError,
    DomainViolationError,
    DriftPoly,
    ReplacementMatrix,
    SAPath,
    StepFamily,
    SyntheticProcess,
    rng,
    run_path_scalar,
    sa_step,
    weight,
)
from sa_helpers import SAConstants, q_step, sa_constants, synthetic_step


class TestSaStep:
    def test_plain_update(self):
        assert sa_step(0.5, 0.1, 0.3, -0.1) == 0.5 + 0.1 * 0.2

    def test_requires_positive_gamma(self):
        with pytest.raises(DomainViolationError):
            sa_step(0.5, 0.0, 0.0, 0.0)

    def test_clamps_tiny_overshoot(self):
        assert sa_step(1.0, 1.0, 0.0, 5e-13) == 1.0
        assert sa_step(0.0, 1.0, 0.0, -5e-13) == 0.0

    def test_rejects_real_overshoot(self):
        with pytest.raises(DomainViolationError):
            sa_step(1.0, 1.0, 0.0, 1e-9)
        with pytest.raises(DomainViolationError):
            sa_step(0.0, 1.0, -1e-9, 0.0)


class TestQStep:
    def test_matches_formula(self):
        assert q_step(0.2, 0.8, 0.05, 3) == (1 - 0.8 / 4) * 0.2 + 0.05 / 4

    def test_rejects_negative_index(self):
        with pytest.raises(ConfigError):
            q_step(0.0, 1.0, 0.0, -1)

    @given(
        x=st.floats(0.05, 0.95),
        p=st.floats(0.2, 0.8),
        n=st.integers(5, 10_000),
        noise=st.floats(-1.0, 1.0),
    )
    def test_agrees_with_x_form(self, x, p, n, noise):
        """The centered recursion advances X_n - p exactly like the raw one.

        gamma_hat_{n+1} = (n+1) gamma h(X_n) and u_hat = (n+1) gamma U turn
        x' = x + gamma (f(x) + U) into q' = (1 - gamma_hat/(n+1)) q + u_hat/(n+1).
        """
        drift = DriftPoly(quad=0.0, lin=-2.0, const=2.0 * p)  # f = -2(x-p)
        gamma = 1.0 / (4.0 * (n + 1))  # small steps keep the state inside
        x_next = sa_step(x, gamma, drift(x), noise)
        gamma_hat = (n + 1) * gamma * drift.h(x, p)
        u_hat = (n + 1) * gamma * noise
        q_next = q_step(x - p, gamma_hat, u_hat, n)
        assert x_next - p == pytest.approx(q_next, abs=1e-12)


class TestSyntheticStep:
    def test_matches_formula(self):
        got = synthetic_step(2.0, 0.5, 1.0, 4.0)
        assert got == (1 - 0.5 / 4) * 2.0 + 1.0 / 2.0

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ConfigError):
            synthetic_step(0.0, 1.0, 0.0, 0.0)


class TestWeight:
    def test_power_weight(self):
        assert weight(9, 0.5, 0.0) == math.sqrt(10.0)
        assert weight(0, 0.5, 0.0) == 1.0

    def test_log_weight_frozen_value(self):
        assert weight(1, 0.5, -0.5) == pytest.approx(
            1.6986436005760381, rel=1e-15
        )

    def test_log_weight_needs_positive_index(self):
        with pytest.raises(ConfigError):
            weight(0, 0.5, -0.5)

    def test_rejects_negative_index(self):
        with pytest.raises(ConfigError):
            weight(-1, 0.5, 0.0)

    @given(st.integers(1, 10**9))
    def test_sqrt_weight_ratio(self, n):
        ratio = weight(n, 0.5, 0.0) / weight(n - 1, 0.5, 0.0)
        assert ratio == pytest.approx(math.sqrt((n + 1) / n), rel=1e-12)


class TestStepFamily:
    def test_values(self):
        assert StepFamily.N.value_at(7) == 7.0
        assert StepFamily.N_LOG_N.value_at(7) == 7 * math.log(7)

    def test_first_positive_index(self):
        assert StepFamily.N.first_positive_index() == 1
        assert StepFamily.N_LOG_N.first_positive_index() == 2

    def test_round_trip_by_value(self):
        assert StepFamily("n") is StepFamily.N
        assert StepFamily("nlogn") is StepFamily.N_LOG_N


class TestSyntheticProcess:
    def test_limit_variance(self):
        proc = SyntheticProcess(big_gamma=2.0, sigma2=3.0)
        assert proc.limit_variance == 0.75
        assert proc.noise_size == math.sqrt(3.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            SyntheticProcess(big_gamma=0.0, sigma2=1.0)
        with pytest.raises(ConfigError):
            SyntheticProcess(big_gamma=1.0, sigma2=0.0)


class TestSAConstants:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SAConstants(
                c_lower=0.0,
                c_upper=1.0,
                noise_bound=1.0,
                drift_bound=1.0,
                mean_decay=1.0,
            )
        with pytest.raises(ConfigError):
            SAConstants(
                c_lower=1.0,
                c_upper=1.0,
                noise_bound=-1.0,
                drift_bound=1.0,
                mean_decay=1.0,
            )

    def test_certifies_a_simulated_path(self):
        """The certifying bounds must hold along an actual urn path."""
        m = ReplacementMatrix(4, 5, 3, 2)
        consts = sa_constants(m, 2.0, 3.0)
        path, states = run_path_scalar(m, 2.0, 3.0, 500, rng.path_key(5, 0))
        for j, (gamma, noise) in enumerate(zip(path.steps, path.noises), 1):
            assert consts.c_lower / j <= gamma <= consts.c_upper / j
            assert abs(noise) <= consts.noise_bound
        drift = DriftPoly(quad=m.alpha, lin=m.beta, const=m.c)
        for x in path.values:
            assert abs(drift(x)) <= consts.drift_bound + 1e-12


class TestSAPath:
    def test_append_advances(self):
        path = SAPath(values=[0.5], steps=[], noises=[])
        x1 = path.append(0.1, 0.2, -0.1)
        assert x1 == 0.5 + 0.1 * 0.1
        assert path.horizon == 1
        assert path.values == [0.5, x1]

    def test_checks_lengths(self):
        with pytest.raises(ConfigError):
            SAPath(values=[0.5, 0.6], steps=[], noises=[])
        with pytest.raises(ConfigError):
            SAPath(values=[], steps=[0.1], noises=[])

    def test_checks_domain(self):
        with pytest.raises(DomainViolationError):
            SAPath(values=[1.5], steps=[], noises=[])

    def test_append_needs_initial_value(self):
        with pytest.raises(ConfigError):
            SAPath().append(0.1, 0.0, 0.0)
