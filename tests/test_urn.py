"""Urn mechanics: matrices, states, drift, noise, realized step rates."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from urnsa import (
    AnalysisError,
    ConfigError,
    DoubleZeroError,
    DriftPoly,
    GammaHatResult,
    InvalidStateError,
    NotStochasticApproximationError,
    Regime,
    ReplacementMatrix,
    UrnState,
    ZeroDriftError,
    classify,
    drift_from_matrix,
    error_poly_from_matrix,
    gamma_hat,
    gamma_limit,
    rng,
    run_path_scalar,
    stable_zeros,
    urn_noise,
    urn_step,
)

from sa_helpers import bound_on_unit_interval

entry = st.integers(0, 9).map(float)
positive_entry = st.integers(1, 9).map(float)


class TestReplacementMatrix:
    def test_rows_and_coefficients(self, toy_matrix):
        assert toy_matrix.row_white == 9.0
        assert toy_matrix.row_black == 5.0
        assert toy_matrix.alpha == -4.0  # c+d-a-b
        assert toy_matrix.beta == -4.0  # a-2c-d
        assert toy_matrix.determinant == 4 * 2 - 5 * 3

    def test_rejects_bad_entries(self):
        with pytest.raises(ConfigError):
            ReplacementMatrix(-1, 0, 0, 1)
        with pytest.raises(ConfigError):
            ReplacementMatrix(math.nan, 0, 0, 1)
        with pytest.raises(ConfigError):
            ReplacementMatrix(math.inf, 0, 0, 1)

    def test_zero_row_is_not_stochastic_approximation(self):
        m = ReplacementMatrix(0, 0, 1, 1)
        assert not m.is_sa_eligible()
        with pytest.raises(NotStochasticApproximationError):
            m.require_sa()

    @given(
        a=positive_entry,
        b=positive_entry,
        lam=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    )
    def test_proportional_rows_are_singular(self, a, b, lam):
        assert ReplacementMatrix(a, b, lam * a, lam * b).is_singular()

    def test_generic_matrix_is_not_singular(self, toy_matrix):
        assert not toy_matrix.is_singular()

    def test_small_matrix_judged_like_classify(self):
        m = ReplacementMatrix(2e-13, 1e-13, 1e-13, 2e-13)
        assert not m.is_singular()
        assert classify(m).regime is Regime.CLT_SQRT_N

    def test_small_singular_matrix_is_singular(self):
        m = ReplacementMatrix(*(math.ldexp(v, -60) for v in (2, 1, 4, 2)))
        assert m.is_singular()
        assert classify(m).regime is Regime.SINGULAR_MONOTONE

    @given(
        entries=st.one_of(
            st.tuples(entry, entry, entry, entry),
            st.builds(
                lambda a, b, lam: (a, b, lam * a, lam * b),
                positive_entry, positive_entry, st.sampled_from([0.5, 2.0, 3.0]),
            ),
        ),
        k=st.integers(-1000, 1000),
    )
    def test_singularity_does_not_depend_on_a_power_of_two(self, entries, k):
        scaled = ReplacementMatrix(*(math.ldexp(v, k) for v in entries))
        assert scaled.is_singular() == ReplacementMatrix(*entries).is_singular()


class TestUrnState:
    def test_initial(self):
        s = UrnState.initial(2.0, 3.0)
        assert (s.white, s.black, s.total, s.n, s.white_draws) == (
            2.0,
            3.0,
            5.0,
            0,
            0,
        )
        assert s.fraction == 0.4

    def test_validation(self):
        with pytest.raises(InvalidStateError):
            UrnState(white=-1.0, black=2.0, total=1.0, n=0, white_draws=0)
        with pytest.raises(InvalidStateError):
            UrnState(white=1.0, black=2.0, total=4.0, n=0, white_draws=0)
        with pytest.raises(InvalidStateError):
            UrnState(white=1.0, black=2.0, total=3.0, n=0, white_draws=1)
        with pytest.raises(InvalidStateError):
            UrnState.initial(0.0, 1.0)

    def test_origin(self, toy_matrix):
        """A state at n = 0 is its own origin; a state after draws needs
        one, and urn_step carries it."""
        s = UrnState.initial(2.0, 3.0)
        assert s.origin == (2.0, 3.0)
        after = urn_step(s, toy_matrix, 0.0)
        assert after.origin == (2.0, 3.0)
        assert after == UrnState(6.0, 8.0, 14.0, n=1, white_draws=1, origin=(2.0, 3.0))
        with pytest.raises(InvalidStateError, match="origin"):
            UrnState(white=6.0, black=8.0, total=14.0, n=1, white_draws=1)

    def test_step_white_and_black_branches(self, toy_matrix):
        s = UrnState.initial(1.0, 1.0)
        after_white = urn_step(s, toy_matrix, 0.0)  # u < 1/2 draws white
        assert (after_white.white, after_white.black) == (5.0, 6.0)
        assert after_white.white_draws == 1
        after_black = urn_step(s, toy_matrix, 0.5)  # u >= 1/2 draws black
        assert (after_black.white, after_black.black) == (4.0, 3.0)
        assert after_black.white_draws == 0
        assert after_black.n == 1

    def test_step_rejects_bad_uniform(self, toy_matrix):
        s = UrnState.initial(1.0, 1.0)
        with pytest.raises(ConfigError):
            urn_step(s, toy_matrix, 1.0)
        with pytest.raises(ConfigError):
            urn_step(s, toy_matrix, -0.1)


class TestDrift:
    def test_toy_drift_polynomial(self, toy_matrix):
        f = drift_from_matrix(toy_matrix)
        assert (f.quad, f.lin, f.const) == (-4.0, -4.0, 3.0)
        assert f(0.5) == 0.0
        assert f.derivative(0.5) == -8.0

    def test_h_at_target_is_minus_derivative(self, toy_matrix):
        f = drift_from_matrix(toy_matrix)
        assert f.h(0.5, 0.5) == 8.0

    def test_h_off_target(self):
        f = DriftPoly(quad=0.0, lin=-2.0, const=1.0)  # f = -2(x - 1/2)
        for x in (0.1, 0.5, 0.9):
            assert f.h(x, 0.5) == pytest.approx(2.0, rel=1e-14)

    def test_stable_zeros_classifies_roots(self, power_law_matrix):
        f = drift_from_matrix(power_law_matrix)  # 4x^2 - 6x + 2
        roots = stable_zeros(f)
        assert [r.stability for r in roots] == ["stable", "unstable"]
        assert roots[0].value == pytest.approx(0.5, abs=1e-14)
        assert roots[1].value == pytest.approx(1.0, abs=1e-14)
        assert roots[0].interior and not roots[1].interior

    def test_double_root_detected(self):
        f = drift_from_matrix(ReplacementMatrix(2, 0, 1, 2))  # (x-1)^2
        roots = stable_zeros(f)
        assert [r.stability for r in roots] == ["double"]
        assert roots[0].value == pytest.approx(1.0, abs=1e-12)

    def test_zero_drift_rejected(self):
        with pytest.raises(ZeroDriftError):
            stable_zeros(DriftPoly(0.0, 0.0, 0.0))

    def test_small_matrix_drift_judged_like_classify(self):
        # every coefficient is below the absolute 1e-12 floor; judged on its
        # unit scale the drift keeps classify's zeros
        m = ReplacementMatrix(4e-13, 5e-13, 3e-13, 2e-13)
        roots = stable_zeros(drift_from_matrix(m))
        assert roots == list(classify(m).roots)
        assert [r.stability for r in roots] == ["unstable", "stable"]
        assert roots[1].value == 0.5

    @pytest.mark.parametrize("factor", [2.0**-1000, 2.0**-43, 2.0**600])
    def test_scaled_drift_keeps_its_zeros(self, power_law_matrix, factor):
        f = drift_from_matrix(power_law_matrix)  # 4x^2 - 6x + 2
        scaled = DriftPoly(f.quad * factor, f.lin * factor, f.const * factor)
        assert stable_zeros(scaled) == stable_zeros(f)

    def test_infinite_coefficient_raises_config_error(self):
        # the row sums overflow, so the drift's coefficients do too
        m = ReplacementMatrix(1e308, 1e308, 1, 1)
        with pytest.raises(ConfigError, match="must be finite"):
            stable_zeros(drift_from_matrix(m))
        assert classify(m).regime is Regime.SINGULAR_MONOTONE

    def test_linear_unstable_root(self):
        roots = stable_zeros(DriftPoly(quad=0.0, lin=2.0, const=-1.0))
        assert [r.stability for r in roots] == ["unstable"]

    def test_bound_on_unit_interval(self, toy_matrix):
        f = drift_from_matrix(toy_matrix)
        bound = bound_on_unit_interval(f)
        for k in range(101):
            assert abs(f(k / 100)) <= bound + 1e-12


class TestErrorPoly:
    def test_matches_closed_form(self, toy_matrix):
        err = error_poly_from_matrix(toy_matrix)
        assert err.a_minus_c == 1.0
        assert err.alpha == -4.0
        x = 0.3
        assert err(x) == pytest.approx(
            x * (1 - x) * (1.0 - 4.0 * x) ** 2, rel=1e-15
        )

    def test_vanishes_at_boundary(self, toy_matrix):
        err = error_poly_from_matrix(toy_matrix)
        assert err(0.0) == 0.0
        assert err(1.0) == 0.0


class TestGammaHat:
    def test_toy_example(self, toy_matrix):
        r = gamma_hat(toy_matrix)
        assert r.p == pytest.approx(0.5, abs=1e-14)
        assert r.gamma == pytest.approx(1.0 / 7.0, rel=1e-14)
        assert r.h_p == pytest.approx(8.0, rel=1e-14)
        assert r.gamma_hat == pytest.approx(8.0 / 7.0, rel=1e-14)

    def test_critical_example(self, critical_matrix):
        r = gamma_hat(critical_matrix)
        assert r.gamma_hat == pytest.approx(0.5, abs=1e-14)

    def test_power_law_example(self, power_law_matrix):
        r = gamma_hat(power_law_matrix)
        assert r.gamma_hat == pytest.approx(0.4, rel=1e-14)

    def test_boundary_double_zero_raises_analysis(self):
        # drift (x-1)^2: the double zero sits on the boundary
        with pytest.raises(AnalysisError):
            gamma_hat(ReplacementMatrix(2, 0, 1, 2))

    def test_interior_double_zero_raises(self):
        # nudging d moves the double zero just inside the interval while
        # the discriminant still cancels to zero in floating point
        with pytest.raises(DoubleZeroError):
            gamma_hat(ReplacementMatrix(2, 0, 1, 2 + 1e-9))

    def test_no_interior_stable_zero_raises(self):
        # drift x(x-2): stable zero sits on the boundary
        with pytest.raises(AnalysisError):
            gamma_hat(ReplacementMatrix(1, 1, 0, 3))

    def test_stable_zero_near_boundary_raises(self):
        # the stable zero 1e-323 is within 1e-12 of 0, as classify sees it
        with pytest.raises(AnalysisError):
            gamma_hat(ReplacementMatrix(0.5, 0, 5e-324, 1))

    @pytest.mark.parametrize(
        "m, scale",
        [
            (ReplacementMatrix(4e170, 5e170, 3e170, 2e170), 1e170),
            (ReplacementMatrix(*(v * 1e-150 for v in (4, 5, 3, 2))), 1e-150),
        ],
    )
    def test_scaled_toy_example(self, m, scale):
        # the raw drift coefficients overflow at 1e170 and look zero at
        # 1e-150; classify's power-of-two scaling sees the toy urn
        r = gamma_hat(m)
        assert r == GammaHatResult(*(getattr(classify(m), f) for f in r._fields))
        assert r.p == pytest.approx(0.5, rel=1e-14)
        assert r.gamma == pytest.approx(1.0 / 7.0 / scale, rel=1e-14)
        assert r.h_p == pytest.approx(8.0 * scale, rel=1e-14)
        assert r.gamma_hat == pytest.approx(8.0 / 7.0, rel=1e-14)

    def test_zero_drift_raises_analysis(self):
        with pytest.raises(AnalysisError):
            gamma_hat(ReplacementMatrix(1, 0, 0, 1))

    def test_gamma_limit_formula(self, toy_matrix):
        assert gamma_limit(toy_matrix, 0.5) == pytest.approx(
            1.0 / (9 * 0.5 + 5 * 0.5), rel=1e-15
        )


def gamma_deviation(
    state: UrnState, m: ReplacementMatrix, p: float, gamma: float
) -> tuple[float, float]:
    """Deviation n/T_n - gamma, directly and through the bookkeeping identity.

    The identity rewrites the deviation in terms of the white-draw average:

        n/T_n - gamma = (alpha*(k/n - p) - T0/n)
                        / ((c+d - alpha*p) * (T0/n + c+d - alpha*k/n))

    with k the number of white draws and T0 recovered from the state's
    bookkeeping.  Both routes agree to 1e-12 and the identity makes
    visible that the deviation is O(|X_n - p| + 1/n).
    """
    if state.n < 1:
        raise ConfigError("deviation needs at least one completed draw")
    n = state.n
    alpha = m.alpha
    row_b = m.row_black
    t0 = state.total - row_b * n + alpha * state.white_draws
    direct = n / state.total - gamma
    k_over_n = state.white_draws / n
    numer = alpha * (k_over_n - p) - t0 / n
    denom = (row_b - alpha * p) * (t0 / n + row_b - alpha * k_over_n)
    return direct, numer / denom


class TestBookkeeping:
    @given(
        a=entry,
        b=entry,
        c=entry,
        d=entry,
        seed=st.integers(0, 2**32),
    )
    def test_counts_follow_draw_tally(self, a, b, c, d, seed):
        m = ReplacementMatrix(a, b, c, d)
        if not m.is_sa_eligible():
            return
        _, states = run_path_scalar(m, 2.0, 3.0, 60, rng.path_key(seed, 0))
        alpha = m.alpha
        for s in states:
            assert s.white == 2.0 + m.c * s.n + (m.a - m.c) * s.white_draws
            assert s.total == 5.0 + m.row_black * s.n - alpha * s.white_draws
            assert 0.0 < s.fraction < 1.0

    @given(seed=st.integers(0, 2**32))
    def test_gamma_deviation_identity(self, seed, toy_matrix):
        r = gamma_hat(toy_matrix)
        _, states = run_path_scalar(
            toy_matrix, 1.0, 1.0, 200, rng.path_key(seed, 1)
        )
        for s in states[1:]:
            direct, identity = gamma_deviation(s, toy_matrix, r.p, r.gamma)
            assert direct == pytest.approx(identity, abs=1e-12)
            # the deviation is O(|X_n - p| + 1/n)
            envelope = abs(s.fraction - r.p) + 1.0 / s.n
            assert abs(direct) <= 2.0 * envelope

    def test_gamma_deviation_needs_a_draw(self, toy_matrix):
        with pytest.raises(ConfigError):
            gamma_deviation(
                UrnState.initial(1.0, 1.0), toy_matrix, 0.5, 1.0 / 7.0
            )


class TestNoise:
    @given(
        a=positive_entry,
        b=entry,
        c=entry,
        d=positive_entry,
        w=st.integers(1, 40).map(float),
        bk=st.integers(1, 40).map(float),
    )
    def test_martingale_identities(self, a, b, c, d, w, bk):
        """Weighted by the draw odds, the noise has mean zero and second
        moment equal to the error polynomial, exactly."""
        m = ReplacementMatrix(a, b, c, d)
        if not m.is_sa_eligible():
            return
        state = UrnState(white=w, black=bk, total=w + bk, n=0, white_draws=0)
        drift = drift_from_matrix(m)
        x = state.fraction
        u_white = urn_noise(state, urn_step(state, m, 0.0), drift)
        u_black = urn_noise(state, urn_step(state, m, x), drift)
        err = error_poly_from_matrix(m)(x)
        assert x * u_white + (1 - x) * u_black == pytest.approx(0.0, abs=1e-9)
        assert x * u_white**2 + (1 - x) * u_black**2 == pytest.approx(
            err, rel=1e-9, abs=1e-9
        )

    def test_noise_reconstructs_step(self, toy_matrix):
        """U = T'(X'-X) - f(X) inverts the one-step update."""
        drift = drift_from_matrix(toy_matrix)
        state = UrnState.initial(3.0, 4.0)
        after = urn_step(state, toy_matrix, 0.9)
        u = urn_noise(state, after, drift)
        gamma = 1.0 / after.total
        assert after.fraction == pytest.approx(
            state.fraction + gamma * (drift(state.fraction) + u), abs=1e-15
        )


class TestScalarPath:
    def test_path_and_states_align(self, toy_matrix):
        path, states = run_path_scalar(
            toy_matrix, 1.0, 1.0, 100, rng.path_key(0, 0)
        )
        assert path.horizon == 100
        assert len(states) == 101
        for x, s in zip(path.values, states):
            assert x == s.fraction
        assert states[-1].n == 100

    def test_fractional_states_follow_the_count_expression(self):
        """Every state's counts are urn_counts' expression of (n, k), with
        its rounding order, not a running sum of matrix rows."""
        m = ReplacementMatrix(0.1, 0.7, 0.3, 0.2)
        _, states = run_path_scalar(m, 2.5, 3.5, 300, rng.path_key(3, 0))
        for s in states:
            n, k = s.n, s.white_draws
            assert s.white == (2.5 + m.c * n) + (m.a - m.c) * k
            assert s.black == (3.5 + m.d * n) + (m.b - m.d) * k
            assert s.total == s.white + s.black
        assert 0 < states[-1].white_draws < 300

    def test_zero_horizon(self, toy_matrix):
        path, states = run_path_scalar(
            toy_matrix, 1.0, 1.0, 0, rng.path_key(0, 0)
        )
        assert path.horizon == 0
        assert len(states) == 1

    def test_negative_horizon_rejected(self, toy_matrix):
        with pytest.raises(ConfigError):
            run_path_scalar(toy_matrix, 1.0, 1.0, -1, rng.path_key(0, 0))
