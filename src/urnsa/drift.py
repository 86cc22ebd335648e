"""Quadratic drift polynomials, their zeros and stability.

A drift f(x) = quad*x^2 + lin*x + const drives the mean motion of the
process.  A zero p is stable when the drift pushes back toward it,
f(x)*(x-p) < 0 on both sides, which for a simple zero is f'(p) < 0.
A double zero has f'(p) = 0 and is flagged separately because the whole
limit analysis changes there.

Every tolerance (zero drift, vanishing leading coefficient, double zero)
is applied in _unit_zeros as a fixed constant times max(1, |coefficients|)
of a drift on a unit scale: the drift of a unit-scale matrix
(urn.ReplacementMatrix.unit), or a drift that stable_zeros brings to its
own unit scale; _unit_shift picks both powers of two.  Zeros and their
tags are dimensionless, so nothing is scaled back.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable

from .errors import ConfigError, ZeroDriftError

STABLE = "stable"
UNSTABLE = "unstable"
DOUBLE = "double"

_COEFF_TOL = 1e-12
# Rounding each coefficient by an ulp moves the discriminant by a few eps
# times scale^2, so the slope +-sqrt(disc) at a double zero by a few
# sqrt(eps) times scale (at most 1.6 sqrt(eps) for the integer matrices
# with entries 0-6 scaled by 3500 random factors in [1e-100, 1e100]).
# 8 sqrt(eps), about 1.2e-7, keeps such a double zero from splitting into
# a stable and an unstable zero.
_DERIV_TOL = 8.0 * math.sqrt(sys.float_info.epsilon)
# zeros this close to 0 or 1 are boundary zeros
_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class DriftPoly:
    """Polynomial drift of degree at most two on [0,1]."""

    quad: float
    lin: float
    const: float

    def __call__(self, x: float) -> float:
        return (self.quad * x + self.lin) * x + self.const

    def derivative(self, x: float) -> float:
        return 2.0 * self.quad * x + self.lin

    def h(self, x: float, p: float) -> float:
        """Restoring strength h(x) = -f(x)/(x-p) for a zero p of f.

        Evaluated through the factored form so the removable singularity
        at x = p causes no cancellation; h(p) equals -f'(p) exactly.
        """
        if x == p:
            return -self.derivative(p)
        if self.quad == 0.0:
            # linear drift: f(x) = lin*(x-p), so h is constant
            return -self.lin
        other = -self.lin / self.quad - p
        return -self.quad * (x - other)


@dataclass(frozen=True)
class RootInfo:
    """One zero of the drift with its stability tag."""

    value: float
    stability: str

    @property
    def interior(self) -> bool:
        """Inside (0, 1), farther than _BOUNDARY_TOL from either end."""
        return _BOUNDARY_TOL < self.value < 1.0 - _BOUNDARY_TOL

    @property
    def on_unit_interval(self) -> bool:
        """In [0, 1], or outside it by at most _BOUNDARY_TOL."""
        return -_BOUNDARY_TOL <= self.value <= 1.0 + _BOUNDARY_TOL


def _unit_shift(values: Iterable[float], what: str) -> int:
    """The e for which 2^-e times the largest of these nonnegative values,
    the entries of `what`, lies in [1, 2), lowered as far as needed for no
    value to lose a bit to underflow.

    Raises ConfigError for a value that is not finite, and when the
    lowered shift leaves the largest value above 2^256; below that,
    products of up to three values stay finite.
    """
    values = tuple(values)
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{what} {values}: entries must be finite")
    top = math.frexp(max(values))[1] - 1
    e = top
    for v in values:
        if v > 0.0:
            num, den = v.as_integer_ratio()  # den is a power of two
            lowest_bit = (num & -num).bit_length() - den.bit_length()
            e = min(e, lowest_bit + 1074)  # 2^-1074: the smallest subnormal
    if top - e > 256:
        raise ConfigError(
            f"{what} {values}: entries span too wide a range to classify"
        )
    return e


def stable_zeros(drift: DriftPoly) -> list[RootInfo]:
    """All real zeros of the drift, each tagged stable/unstable/double.

    Judged on the drift brought to its own unit scale, so scaling a drift
    by any positive factor changes neither its zeros nor their tags.
    Roots are returned in increasing order.  A discriminant within the
    square of the derivative tolerance collapses to a single double root.
    Raises ZeroDriftError for an identically zero drift, and ConfigError
    for coefficients that span too wide a range.
    """
    coeffs = (drift.quad, drift.lin, drift.const)
    e = _unit_shift((abs(c) for c in coeffs), "drift")
    return _unit_zeros(DriftPoly(*(math.ldexp(c, -e) for c in coeffs)))


def _unit_zeros(drift: DriftPoly) -> list[RootInfo]:
    """stable_zeros for a drift on a unit scale; the one place where a
    drift's tolerances are applied."""
    a, b, c = drift.quad, drift.lin, drift.const
    scale = max(1.0, abs(a), abs(b), abs(c))
    if max(abs(a), abs(b), abs(c)) <= _COEFF_TOL * scale:
        raise ZeroDriftError("drift is identically zero")
    if abs(a) <= _COEFF_TOL * scale:
        if abs(b) <= _COEFF_TOL * scale:
            return []  # nonzero constant drift never vanishes
        root = -c / b
        tag = STABLE if b < 0.0 else UNSTABLE
        return [RootInfo(root, tag)]
    disc = b * b - 4.0 * a * c
    disc_tol = (_DERIV_TOL * scale) ** 2
    if disc <= disc_tol:
        if disc < -disc_tol:
            return []
        return [RootInfo(-b / (2.0 * a), DOUBLE)]
    sq = math.sqrt(disc)
    # numerically stable split: the large-magnitude root first
    q = -0.5 * (b + math.copysign(sq, b))
    r1, r2 = q / a, c / q
    roots = sorted((r1, r2))
    out = []
    for r in roots:
        tag = STABLE if drift.derivative(r) < 0.0 else UNSTABLE
        out.append(RootInfo(r, tag))
    return out
