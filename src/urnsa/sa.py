"""One-dimensional stochastic approximation primitives.

The processes studied here live on [0,1] and move by

    X_{n+1} = X_n + gamma_{n+1} * (f(X_n) + U_{n+1}),

with a step size of order 1/n, a drift f that is a polynomial on [0,1],
and bounded noise U whose conditional mean vanishes fast.  Everything in
this module is a pure function of its arguments; path state and ensemble
machinery live elsewhere.

The x-form above is what a simulation produces and what sa_step
advances.  The limit theorems are stated in the q-form, which tracks the
centered process Q_n = X_n - p around a drift zero p:

    Q_{n+1} = (1 - gamma_hat_{n+1} / (n+1)) Q_n + u_hat_{n+1} / (n+1),

where gamma_hat_{n+1} = (n+1) gamma_{n+1} h(X_n) rescales the step by the
restoring strength h(x) = -f(x)/(x-p), and u_hat_{n+1} = (n+1) gamma_{n+1}
U_{n+1}.  Both forms advance the same state; the tests step the q-form
with their own helper and hold the two to 1e-12.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .errors import ConfigError, DomainViolationError

DOMAIN_TOL = 1e-12


def sa_step(x: float, gamma: float, drift_value: float, noise: float) -> float:
    """Advance the raw recursion one step: x + gamma*(f(x) + u).

    gamma must be positive.  The result must stay in [0,1] up to a 1e-12
    slack; values inside the slack are clamped, anything further out is a
    DomainViolationError because it means drift or noise were inconsistent
    with the process being simulated.
    """
    if gamma <= 0.0:
        raise DomainViolationError(f"step size must be positive, got {gamma}")
    x_next = x + gamma * (drift_value + noise)
    if x_next < 0.0:
        if x_next < -DOMAIN_TOL:
            raise DomainViolationError(f"state left [0,1]: {x_next}")
        return 0.0
    if x_next > 1.0:
        if x_next > 1.0 + DOMAIN_TOL:
            raise DomainViolationError(f"state left [0,1]: {x_next}")
        return 1.0
    return x_next


def weight(n: int, x: float, y: float) -> float:
    """Scaling weight w(n) = (n+1)^x * (ln(n+1))^y.

    The shifted argument keeps w(0) finite for y = 0; natural logarithm.
    """
    if n < 0:
        raise ConfigError(f"index must be nonnegative, got {n}")
    if n == 0 and y != 0.0:
        raise ConfigError("log-weight exponent needs n >= 1")
    base = float(n + 1)
    return base ** x * math.log(base) ** y


class StepFamily(enum.Enum):
    """Divergent scale sequences g_n used by the synthetic process."""

    N = "n"
    N_LOG_N = "nlogn"

    def value_at(self, n: int) -> float:
        if self is StepFamily.N:
            return float(n)
        return n * math.log(n)

    def first_positive_index(self) -> int:
        # n*ln(n) vanishes at n=1, so that family starts one step later
        return 1 if self is StepFamily.N else 2


@dataclass(frozen=True)
class SyntheticProcess:
    """Configuration of the synthetic normalized recursion.

    big_gamma is the constant damping rate, sigma2 the noise variance
    (the harness draws Rademacher noise of size sqrt(sigma2), so the
    almost-sure bound equals the standard deviation), family picks g_n.
    """

    big_gamma: float
    sigma2: float
    family: StepFamily = StepFamily.N
    z0: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.big_gamma < math.inf:
            raise ConfigError("big_gamma must be positive and finite")
        if not 0.0 < self.sigma2 < math.inf:
            raise ConfigError("sigma2 must be positive and finite")
        if not math.isfinite(self.z0):
            raise ConfigError("z0 must be finite")

    @property
    def noise_size(self) -> float:
        return math.sqrt(self.sigma2)

    @property
    def limit_variance(self) -> float:
        """Variance of the limiting centered normal law, sigma2/(2 big_gamma)."""
        return self.sigma2 / (2.0 * self.big_gamma)


@dataclass
class SAPath:
    """Record of one simulated path in the raw coordinates.

    values holds X_0..X_N, steps the gamma_1..gamma_N actually used and
    noises the realized U_1..U_N, so len(values) == len(steps) + 1.
    """

    values: list[float] = field(default_factory=list)
    steps: list[float] = field(default_factory=list)
    noises: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.check()

    def check(self) -> None:
        if len(self.steps) != len(self.noises):
            raise ConfigError("steps and noises must have equal length")
        if self.values and len(self.values) != len(self.steps) + 1:
            raise ConfigError("values must be one longer than steps")
        for v in self.values:
            if not (0.0 <= v <= 1.0):
                raise DomainViolationError(f"path value {v} outside [0,1]")

    def append(self, gamma: float, drift_value: float, noise: float) -> float:
        """Extend the path by one raw step and return the new value."""
        if not self.values:
            raise ConfigError("path needs an initial value before stepping")
        x_next = sa_step(self.values[-1], gamma, drift_value, noise)
        self.values.append(x_next)
        self.steps.append(gamma)
        self.noises.append(noise)
        return x_next

    @property
    def horizon(self) -> int:
        return len(self.steps)
