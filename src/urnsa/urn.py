"""Generalized two-color urns with a fixed replacement matrix.

Each draw picks a color with probability proportional to its current count
and adds a deterministic row of the replacement matrix

    white drawn: add a white and b black
    black drawn: add c white and d black

The white fraction X_n = W_n/T_n is then a stochastic approximation with
step gamma_{n+1} = 1/T_{n+1}, drift

    f(x) = alpha*x^2 + beta*x + c,   alpha = c+d-a-b,  beta = a-2c-d,

and martingale noise U_{n+1} = T_{n+1}(X_{n+1}-X_n) - f(X_n) whose
conditional second moment is the error polynomial
E(x) = x(1-x)(a-c+alpha*x)^2.

Scale policy of the analytic layer.  The regime and the limit law depend
only on dimensionless numbers, so a matrix m is judged once on its unit
scale: ReplacementMatrix.unit is the exponent e and the matrix 2^-e m,
whose largest entry lies in [1, 2) unless e is lowered to keep every
entry exact (drift._unit_shift).  is_singular, classify and
variance_alpha0 read that matrix.  Every tolerance is absolute on its
unit-scale values: a fixed constant, at most times the unit-scale size of
what it tests.  Only gamma and h(p) are scaled back, by 2^-e and 2^e.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from . import rng
from .drift import DriftPoly, _unit_shift
from .errors import (
    ConfigError,
    InvalidStateError,
    NotStochasticApproximationError,
)
from .sa import SAPath

# beyond this total, counts stored in doubles would stop being integer-exact
COUNT_LIMIT = 2.0 ** 53


@dataclass(frozen=True)
class ReplacementMatrix:
    """Replacement rule ((a,b),(c,d)) with nonnegative entries."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise ConfigError(f"matrix entry {name}={v} must be finite and >= 0")

    @property
    def row_white(self) -> float:
        return self.a + self.b

    @property
    def row_black(self) -> float:
        return self.c + self.d

    @property
    def alpha(self) -> float:
        """Leading drift coefficient c+d-a-b; zero for balanced matrices."""
        return self.row_black - self.row_white

    @property
    def beta(self) -> float:
        return self.a - 2.0 * self.c - self.d

    @property
    def determinant(self) -> float:
        return self.a * self.d - self.b * self.c

    def is_sa_eligible(self) -> bool:
        """Both rows add mass, so draw steps are bounded below."""
        return min(self.row_white, self.row_black) > 0.0

    def require_sa(self) -> None:
        if not self.is_sa_eligible():
            raise NotStochasticApproximationError(
                f"replacement matrix {self.entries()} has a zero row sum"
            )

    @cached_property
    def unit(self) -> tuple[int, "ReplacementMatrix"]:
        """The exponent e and the exactly scaled matrix 2^-e * self on
        which every analytic result is judged.  Raises ConfigError for
        entries that span too wide a range."""
        e = _unit_shift(self.entries(), "matrix")
        return e, ReplacementMatrix(*(math.ldexp(v, -e) for v in self.entries()))

    def is_singular(self) -> bool:
        """Proportional rows: the urn composition converges monotonically.
        Raises ConfigError as unit does."""
        _, u = self.unit
        tol = 1e-12 * max(1.0, abs(u.a * u.d), abs(u.b * u.c))
        return abs(u.a * u.d - u.b * u.c) <= tol

    def entries(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class UrnState:
    """Counts after n draws from the origin (w0, b0), white_draws of them
    white.

    urn_step computes a state's white, black and total from its origin and
    (n, white_draws) through urn_counts, so total is always white + black.
    origin defaults to the state's own counts at n = 0 and must be given
    at n > 0.
    """

    white: float
    black: float
    total: float
    n: int
    white_draws: int
    origin: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.origin is None:
            if self.n > 0:
                raise InvalidStateError("a state after draws needs its origin")
            object.__setattr__(self, "origin", (self.white, self.black))
        if self.white <= 0.0 and self.black <= 0.0:
            raise InvalidStateError("urn must contain mass of some color")
        if self.white < 0.0 or self.black < 0.0:
            raise InvalidStateError("negative color count")
        if self.total != self.white + self.black:
            raise InvalidStateError("total must equal white + black exactly")
        if not 0 <= self.white_draws <= self.n:
            raise InvalidStateError("white_draws must lie in [0, n]")
        if self.total > COUNT_LIMIT:
            raise InvalidStateError("counts exceed exact double range")

    @property
    def fraction(self) -> float:
        return self.white / self.total

    @staticmethod
    def initial(w0: float, b0: float) -> "UrnState":
        if w0 <= 0.0 or b0 <= 0.0:
            raise InvalidStateError("initial counts must both be positive")
        return UrnState(w0, b0, w0 + b0, 0, 0)


def drawn_counts(m: ReplacementMatrix, origin: tuple[float, float], n):
    """(w0 + c n, b0 + d n) from origin (w0, b0): the terms of urn_counts
    that depend on n alone.  n is a number or a numpy array."""
    w0, b0 = origin
    return w0 + m.c * n, b0 + m.d * n


def urn_counts(m: ReplacementMatrix, drawn, k):
    """(white, black, total) after n draws, k of them white, where drawn
    is drawn_counts(m, origin, n).

    The one float expression that defines the state (n, k) of every urn,
    integer or fractional, each operation rounded in this order:

        white = (w0 + c n) + (a - c) k
        black = (b0 + d n) + (b - d) k
        total = white + black

    and X_n = white / total.  urn_step and the montecarlo kernel evaluate
    it, the kernel elementwise over numpy arrays, so both give the same
    X_n bit for bit.  With integer entries and counts every term is an
    integer below COUNT_LIMIT, so every count is exact.  Otherwise each
    count is within a few ulps of its exact value, and never negative:
    where a < c, |a - c| k <= c n, and rounding is monotone (black alike).
    """
    white = drawn[0] + (m.a - m.c) * k
    black = drawn[1] + (m.b - m.d) * k
    return white, black, white + black


def drift_from_matrix(m: ReplacementMatrix) -> DriftPoly:
    """Mean-motion polynomial of the white fraction."""
    m.require_sa()
    return DriftPoly(quad=m.alpha, lin=m.beta, const=m.c)


@dataclass(frozen=True)
class ErrorPoly:
    """Conditional noise second moment E(x) = x(1-x)(a-c+alpha*x)^2."""

    a_minus_c: float
    alpha: float

    def __call__(self, x: float) -> float:
        swing = self.a_minus_c + self.alpha * x
        return x * (1.0 - x) * swing * swing


def error_poly_from_matrix(m: ReplacementMatrix) -> ErrorPoly:
    m.require_sa()
    return ErrorPoly(a_minus_c=m.a - m.c, alpha=m.alpha)


def urn_step(state: UrnState, m: ReplacementMatrix, u: float) -> UrnState:
    """Apply one draw decided by the uniform u: white iff u < white/total."""
    if not 0.0 <= u < 1.0:
        raise ConfigError(f"uniform draw must lie in [0,1), got {u}")
    n = state.n + 1
    k = state.white_draws + (u < state.fraction)
    counts = urn_counts(m, drawn_counts(m, state.origin, n), k)
    return UrnState(*counts, n=n, white_draws=k, origin=state.origin)


def urn_noise(before: UrnState, after: UrnState, drift: DriftPoly) -> float:
    """Realized martingale increment U = T'(X'-X) - f(X)."""
    x = before.fraction
    return after.total * (after.fraction - x) - drift(x)


def gamma_limit(m: ReplacementMatrix, p: float) -> float:
    """Limit of n*gamma_n = n/T_n, equal to 1/((a+b)p + (c+d)(1-p))."""
    m.require_sa()
    denom = m.row_white * p + m.row_black * (1.0 - p)
    return 1.0 / denom


def run_path_scalar(
    m: ReplacementMatrix,
    w0: float,
    b0: float,
    horizon: int,
    key: int,
) -> tuple[SAPath, list[UrnState]]:
    """Simulate one path step by step, recording the SA decomposition.

    key is the path RNG key from rng.path_key.  Returns the path in raw
    coordinates together with every intermediate state.  Meant for tests
    and inspection; the ensemble runner uses the vectorized kernel.
    """
    if horizon < 0:
        raise ConfigError("horizon must be nonnegative")
    drift = drift_from_matrix(m)
    state = UrnState.initial(w0, b0)
    path = SAPath(values=[state.fraction], steps=[], noises=[])
    states = [state]
    for j in range(1, horizon + 1):
        u = rng.uniform_draw(key, j)
        nxt = urn_step(state, m, u)
        gamma = 1.0 / nxt.total
        noise = urn_noise(state, nxt, drift)
        path.append(gamma, drift(state.fraction), noise)
        states.append(nxt)
        state = nxt
    return path, states
