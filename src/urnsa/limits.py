"""Scaling regimes and limit laws for urn-driven stochastic approximation.

For a replacement matrix with an interior stable drift zero p, the centered
white fraction Q_n = X_n - p obeys a central limit theorem whose shape is
decided by a single number,

    gamma_hat = gamma * h(p),    gamma = lim n/T_n,   h(p) = -f'(p):

    gamma_hat > 1/2:  sqrt(n) Q_n -> N(0, sigma2 / (2 gamma_hat - 1))
    gamma_hat = 1/2:  sqrt(n/ln n) Q_n -> N(0, sigma2)
    gamma_hat < 1/2:  n^gamma_hat Q_n converges almost surely

with sigma2 = gamma^2 * E(p) built from the error polynomial.  Degenerate
shapes (proportional rows, double drift zeros, zero drift, boundary zeros)
get their own regime tags instead of a normal law.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .drift import DOUBLE, STABLE, RootInfo, _unit_zeros
from .errors import (
    AnalysisError,
    ConfigError,
    DegenerateVarianceError,
    DoubleZeroError,
    RegimeError,
    UndefinedMeanError,
    ZeroDriftError,
)
from .special import gamma_function
from .sa import StepFamily
from .urn import (
    ReplacementMatrix,
    drift_from_matrix,
    error_poly_from_matrix,
    gamma_limit,
)

REGIME_TOL = 1e-12


class Regime(enum.Enum):
    CLT_SQRT_N = "CLT_SQRT_N"
    CLT_SQRT_N_OVER_LOG = "CLT_SQRT_N_OVER_LOG"
    AS_POWER_LAW = "AS_POWER_LAW"
    SINGULAR_MONOTONE = "SINGULAR_MONOTONE"
    DOUBLE_ZERO = "DOUBLE_ZERO"
    ZERO_DRIFT_BETA = "ZERO_DRIFT_BETA"
    NOT_APPLICABLE = "NOT_APPLICABLE"


_CLT_REGIMES = (Regime.CLT_SQRT_N, Regime.CLT_SQRT_N_OVER_LOG)


@dataclass(frozen=True)
class LimitPrediction:
    """Everything the theory predicts for one replacement matrix.

    scaling holds the weight exponents (x, y) of w(n) = (n+1)^x ln(n+1)^y
    used to normalize X_n - p; regimes without a distributional scaling
    carry (0, 0).  predicted_variance is only set in the two CLT regimes,
    as_exponent only in the almost-sure power-law regime.
    """

    regime: Regime
    scaling: tuple[float, float]
    p: float | None = None
    gamma: float | None = None
    h_p: float | None = None
    gamma_hat: float | None = None
    sigma2: float | None = None
    predicted_variance: float | None = None
    as_exponent: float | None = None
    roots: tuple[RootInfo, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.regime in _CLT_REGIMES:
            if self.predicted_variance is None or self.predicted_variance <= 0.0:
                raise ConfigError("CLT regime needs a positive predicted variance")
            expected = (0.5, 0.0) if self.regime is Regime.CLT_SQRT_N else (0.5, -0.5)
            if self.scaling != expected:
                raise ConfigError(f"{self.regime} requires scaling {expected}")
        elif self.predicted_variance is not None:
            raise ConfigError("predicted_variance only applies to CLT regimes")
        if (self.as_exponent is not None) != (self.regime is Regime.AS_POWER_LAW):
            raise ConfigError("as_exponent set iff regime is AS_POWER_LAW")
        if self.regime is Regime.SINGULAR_MONOTONE and self.sigma2 != 0.0:
            raise ConfigError("singular matrices have exactly zero sigma2")


def classify(m: ReplacementMatrix) -> LimitPrediction:
    """Map a replacement matrix to its limit regime and parameters.

    Judged on the unit-scale matrix (ReplacementMatrix.unit), so the
    result does not depend on the matrix's scale; only gamma and h(p) are
    scaled back.  A matrix whose gamma, h(p), gamma_hat or sigma2 is not a
    finite double raises ConfigError.
    Drift zeros within 1e-12 of 0 or 1 are boundary zeros, reported in
    roots but yielding NOT_APPLICABLE; |gamma_hat - 1/2| <= 1e-12 counts
    as the critical log regime.
    """
    m.require_sa()
    e, unit = m.unit
    try:
        pred = _classify_unit(unit)
        if pred.gamma is None:
            return pred
        gamma, h_p = math.ldexp(pred.gamma, -e), math.ldexp(pred.h_p, e)
        finite = all(map(math.isfinite, (gamma, h_p, pred.gamma_hat, pred.sigma2)))
    except ArithmeticError:  # an overflow on the way
        finite = False
    if not finite:
        raise ConfigError(
            f"matrix {m.entries()}: gamma, h(p), gamma_hat or sigma2 "
            "is not a finite double"
        )
    return replace(pred, gamma=gamma, h_p=h_p)


def _classify_unit(m: ReplacementMatrix) -> LimitPrediction:
    """classify for a unit-scale matrix, before scaling back."""
    drift = drift_from_matrix(m)
    try:
        roots = tuple(_unit_zeros(drift))
    except ZeroDriftError:
        return LimitPrediction(regime=Regime.ZERO_DRIFT_BETA, scaling=(0.0, 0.0))
    if m.is_singular():
        p = m.a / m.row_white
        gamma = gamma_limit(m, p)
        h_p = drift.h(p, p)
        return LimitPrediction(
            regime=Regime.SINGULAR_MONOTONE,
            scaling=(0.0, 0.0),
            p=p,
            gamma=gamma,
            h_p=h_p,
            gamma_hat=gamma * h_p,
            sigma2=0.0,
        )
    err = error_poly_from_matrix(m)
    doubles = [r for r in roots if r.stability == DOUBLE and r.on_unit_interval]
    if doubles:
        p = min(max(doubles[0].value, 0.0), 1.0)
        gamma = gamma_limit(m, p)
        return LimitPrediction(
            regime=Regime.DOUBLE_ZERO,
            scaling=(0.0, 0.0),
            p=p,
            gamma=gamma,
            h_p=0.0,
            gamma_hat=0.0,
            sigma2=gamma * gamma * err(p),
            roots=roots,
        )
    interior = [r for r in roots if r.stability == STABLE and r.interior]
    if not interior:
        return LimitPrediction(
            regime=Regime.NOT_APPLICABLE, scaling=(0.0, 0.0), roots=roots
        )
    p = interior[0].value
    gamma = gamma_limit(m, p)
    h_p = drift.h(p, p)
    g_hat = gamma * h_p
    sigma2 = gamma * gamma * err(p)
    common = dict(p=p, gamma=gamma, h_p=h_p, gamma_hat=g_hat, sigma2=sigma2, roots=roots)
    if g_hat > 0.5 + REGIME_TOL:
        return LimitPrediction(
            regime=Regime.CLT_SQRT_N,
            scaling=(0.5, 0.0),
            predicted_variance=sigma2 / (2.0 * (g_hat - 0.5)),
            **common,
        )
    if abs(g_hat - 0.5) <= REGIME_TOL:
        return LimitPrediction(
            regime=Regime.CLT_SQRT_N_OVER_LOG,
            scaling=(0.5, -0.5),
            predicted_variance=sigma2,
            **common,
        )
    return LimitPrediction(
        regime=Regime.AS_POWER_LAW,
        scaling=(g_hat, 0.0),
        as_exponent=g_hat,
        **common,
    )


class GammaHatResult(NamedTuple):
    p: float
    gamma: float
    h_p: float
    gamma_hat: float


def gamma_hat(m: ReplacementMatrix) -> GammaHatResult:
    """classify's target p, step limit gamma, restoring strength h(p) and
    their product gamma_hat, the number that decides the scaling regime.

    Raises DoubleZeroError for a double drift zero inside (0, 1) and
    AnalysisError when the drift has no stable zero there.
    """
    pred = classify(m)
    interior = pred.p is not None and RootInfo(pred.p, STABLE).interior
    if pred.regime is Regime.DOUBLE_ZERO and interior:
        raise DoubleZeroError(f"drift has a double zero at {pred.p}")
    if pred.regime is Regime.DOUBLE_ZERO or not interior:
        raise AnalysisError("drift has no stable zero inside (0,1)")
    return GammaHatResult(pred.p, pred.gamma, pred.h_p, pred.gamma_hat)


def variance_alpha0(m: ReplacementMatrix) -> float:
    """Limiting normal variance for balanced matrices (a+b = c+d).

    Balanced matrices have deterministic totals and a linear drift with
    target p = c/(b+c).  The closed form

        b*c*(a-c)^2 / ((a+b) * (b+c)^2 * (b+2c-a))

    covers gamma_hat > 1/2; at criticality (a = b+2c) the variance of the
    log-scaled limit is b*c / (4 (b+c)^2).  Below criticality there is no
    normal limit and the power-law regime applies instead.  A variance
    that is not a finite double raises ConfigError.
    """
    m.require_sa()
    _, u = m.unit
    a, b, c = u.a, u.b, u.c
    tol = 1e-12 * max(u.entries())
    if abs(u.alpha) > tol:
        raise RegimeError(f"matrix is not balanced: alpha = {m.alpha}")
    if abs(a - c) <= tol:
        raise DegenerateVarianceError(
            "a = c makes the noise polynomial vanish at the target"
        )
    s, r = b + c, a - c
    g_hat = s / (a + b)
    if abs(g_hat - 0.5) <= REGIME_TOL:
        variance = b * c / (4.0 * (s * s))
    elif g_hat < 0.5:
        raise RegimeError(
            "gamma_hat below 1/2: almost-sure regime, no normal variance"
        )
    else:
        variance = b * c * (r * r) / ((a + b) * (s * s) * (b + 2.0 * c - a))
    if not math.isfinite(variance):
        raise ConfigError(f"matrix {m.entries()}: variance is not a finite double")
    return variance


def decay_product(start: int, stop: int, alpha: float) -> float:
    """Finite product of (1 - alpha/k) for k = start..stop, inclusive.

    Empty ranges (start > stop) give 1.  The product behaves like
    (start/stop)^alpha for large indices, which the test suite checks.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"decay exponent must lie in (0,1), got {alpha}")
    if start < 1:
        raise ConfigError(f"start index must be >= 1, got {start}")
    out = 1.0
    for k in range(start, stop + 1):
        out *= 1.0 - alpha / k
    return out


def damped_recursion(
    b0: float,
    damping: float,
    drive: float,
    family: StepFamily,
    horizon: int,
) -> float:
    """Iterate b_{k+1} = (1 - damping/g_k) b_k + drive/g_k up to horizon.

    The iteration starts at the first index with g_k > damping, so early
    indices where the factor would be nonpositive are skipped.  As the
    horizon grows the value converges to drive/damping, which is exactly
    preserved as a fixed point.
    """
    if damping <= 0.0:
        raise ConfigError("damping must be positive")
    if drive < 0.0:
        raise ConfigError("drive must be nonnegative")
    if horizon < 0:
        raise ConfigError("horizon must be nonnegative")
    k = family.first_positive_index()
    while family.value_at(k) <= damping:
        k += 1
    b = b0
    while k < horizon:
        g = family.value_at(k)
        b = (1.0 - damping / g) * b + drive / g
        k += 1
    return b


# The one matrix whose almost-sure limit law has a fully explicit mean:
# rows (3,0) and (2,5), target 1/2, exponent gamma_hat = 2/5.
REFERENCE_POWER_LAW_MATRIX = ReplacementMatrix(3.0, 0.0, 2.0, 5.0)

# scale constant pairing with reference_limit_mean in the classical
# closed-form scaled-mean value reported for the reference urn
_REFERENCE_SCALE = 3.0 * 2.0 ** 1.6


def reference_limit_mean(w0: float, b0: float) -> float:
    """Mean of the unscaled limit law of the reference power-law urn.

    Closed form in gamma functions of the initial counts:

        ( w0 * Gamma((b0-3)/5) - 5 * Gamma((b0+2)/5) ) / Gamma(b0/5)

    The mean is finite only for b0 > 3; smaller initial black counts give
    a limit law with infinite mean and raise UndefinedMeanError.
    """
    if w0 <= 0.0 or b0 <= 0.0:
        raise ConfigError("initial counts must be positive")
    if b0 <= 3.0:
        raise UndefinedMeanError(
            f"limit mean is infinite for initial black count {b0} <= 3"
        )
    numer = w0 * gamma_function((b0 - 3.0) / 5.0) - 5.0 * gamma_function(
        (b0 + 2.0) / 5.0
    )
    return numer / gamma_function(b0 / 5.0)


def reference_scaled_mean(w0: float, b0: float) -> float:
    """Classical closed-form constant for the reference urn's scaled mean.

    Reported alongside simulation output for comparison.  Careful exact
    computation of E[n^(2/5) (X_n - 1/2)] shows the empirical constant has
    the opposite orientation and carries the total growth rate 5 in place
    of the factor 3 here; the acceptance suite therefore checks the scaled
    mean against an exactly computed finite-horizon expectation instead of
    this constant.  The closed form is kept verbatim because downstream
    consumers expect this exact formula.
    """
    return reference_limit_mean(w0, b0) / _REFERENCE_SCALE


def reference_prediction(
    m: ReplacementMatrix, w0: float, b0: float
) -> float | None:
    """Scaled-mean prediction when m is exactly the reference matrix."""
    if m.entries() != REFERENCE_POWER_LAW_MATRIX.entries():
        return None
    try:
        return reference_scaled_mean(w0, b0)
    except UndefinedMeanError:
        return None
