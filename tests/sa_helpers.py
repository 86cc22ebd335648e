"""Stochastic-approximation helpers that only the tests use.

The centered q-form step, the synthetic recursion one step at a time, and
the constants certifying that an urn is a stochastic approximation.  The
library steps whole ensembles in `urnsa.montecarlo`; these scalar forms
check it and the theory from outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from urnsa import ConfigError, DriftPoly, ReplacementMatrix, drift_from_matrix


def q_step(q: float, gamma_hat: float, u_hat: float, n: int) -> float:
    """Advance the centered recursion: (1 - gamma_hat/(n+1)) q + u_hat/(n+1).

    n is the index of the current state, so the divisor is n+1.
    """
    if n < 0:
        raise ConfigError(f"state index must be nonnegative, got {n}")
    step = n + 1
    return (1.0 - gamma_hat / step) * q + u_hat / step


def synthetic_step(z: float, big_gamma: float, noise: float, g: float) -> float:
    """One step of the synthetic normalized process:

        z' = (1 - big_gamma/g) z + noise / sqrt(g).

    g is the current value of the divergent scale sequence and must be
    positive.
    """
    if g <= 0.0:
        raise ConfigError(f"scale sequence value must be positive, got {g}")
    return (1.0 - big_gamma / g) * z + noise / math.sqrt(g)


def bound_on_unit_interval(f: DriftPoly) -> float:
    """max of |f| over [0,1], attained at an endpoint or the vertex."""
    candidates = [abs(f(0.0)), abs(f(1.0))]
    if f.quad != 0.0:
        vertex = -f.lin / (2.0 * f.quad)
        if 0.0 < vertex < 1.0:
            candidates.append(abs(f(vertex)))
    return max(candidates)


@dataclass(frozen=True)
class SAConstants:
    """Bounds certifying that a process is a stochastic approximation.

    c_lower/n <= gamma_n <= c_upper/n, |U| <= noise_bound,
    |f| <= drift_bound on [0,1], and the conditional mean of gamma*U decays
    like mean_decay/n^2.
    """

    c_lower: float
    c_upper: float
    noise_bound: float
    drift_bound: float
    mean_decay: float

    def __post_init__(self) -> None:
        if not (0.0 < self.c_lower <= self.c_upper):
            raise ConfigError(
                f"need 0 < c_lower <= c_upper, got {self.c_lower}, {self.c_upper}"
            )
        for name in ("noise_bound", "drift_bound", "mean_decay"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be nonnegative")


def sa_constants(m: ReplacementMatrix, w0: float, b0: float) -> SAConstants:
    """Certifying constants for the urn as a stochastic approximation.

    The noise bound is the conservative max{|a-c|,|b-d|} + max row sum; the
    sharp bound is the first term alone.  The conditional-bias constant
    comes from the exact identity

        E_n(gamma_{n+1} U_{n+1}) = x(1-x) (a-c+alpha*x) * alpha / (T_w T_b)

    with T_w, T_b the totals after a white/black draw, each above
    n*min_row, giving K_e = |alpha| * max|a-c+alpha*x| / (4 min_row^2).
    When that expression vanishes the conditional bias is identically zero
    and any positive constant certifies it.
    """
    m.require_sa()
    t0 = w0 + b0
    max_row = max(m.row_white, m.row_black)
    min_row = min(m.row_white, m.row_black)
    swing = max(abs(m.a - m.c), abs(m.b - m.d))
    mean_decay = abs(m.alpha) * swing / (4.0 * min_row * min_row)
    return SAConstants(
        c_lower=1.0 / (t0 + max_row),
        c_upper=1.0 / min_row,
        noise_bound=swing + max_row,
        drift_bound=max(bound_on_unit_interval(drift_from_matrix(m)), 1e-9),
        mean_decay=mean_decay if mean_decay > 0.0 else 1.0,
    )
