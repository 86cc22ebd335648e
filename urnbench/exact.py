"""Exact finite-horizon laws that the benchmark checks urnsa output against.

Urns.  After n draws of which k came up white, the counts are

    W = w0 + c n + (a - c) k,    T = w0 + b0 + (c + d) n - alpha k,

with alpha = (c + d) - (a + b), so the white fraction X_n = W/T is a
function of k alone and the law of X_n is the law of k.  That law obeys the
one-step recursion

    P_{n+1}(k + 1) += P_n(k) W/T,    P_{n+1}(k) += P_n(k) (1 - W/T),

which `urn_moments` iterates on a support trimmed of negligible edge mass.

Synthetic process.  z' = (1 - G/g) z + e sqrt(s2/g) with e = +-1 equally
likely and independent of z, so with z0 = 0 the mean stays 0 and

    v'  = a^2 v + s2/g,
    m4' = a^4 m4 + 6 a^2 v s2/g + (s2/g)^2,        a = 1 - G/g.

Nothing here imports urnsa: these are the reference the program is held to.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# support points at the edges of the law of k carrying less mass than this
# are dropped; the dropped total is reported as the mass defect
_TRIM = 1e-30


@dataclass(frozen=True)
class Urn:
    a: float
    b: float
    c: float
    d: float
    w0: float
    b0: float

    @property
    def alpha(self) -> float:
        return (self.c + self.d) - (self.a + self.b)

    def counts(self, n: int, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """White count and total after n draws with k white draws."""
        white = self.w0 + self.c * n + (self.a - self.c) * k
        total = self.w0 + self.b0 + (self.c + self.d) * n - self.alpha * k
        return white, total

    def target(self) -> float:
        """Stable interior zero p of the drift alpha x^2 + beta x + c."""
        alpha = self.alpha
        beta = self.a - 2.0 * self.c - self.d
        if alpha == 0.0:
            return -self.c / beta
        disc = math.sqrt(beta * beta - 4.0 * alpha * self.c)
        for root in ((-beta - disc) / (2 * alpha), (-beta + disc) / (2 * alpha)):
            slope = 2.0 * alpha * root + beta
            if 0.0 < root < 1.0 and slope < 0.0:
                return root
        raise ValueError("drift has no stable interior zero")


@dataclass(frozen=True)
class Law:
    """Exact mean, variance and fourth central moment at one index n."""

    n: int
    mean: float
    variance: float
    m4: float
    mass_defect: float = 0.0


def weight(n: int, x: float, y: float) -> float:
    """Scaling weight (n+1)^x ln(n+1)^y, as the urnsa scaled statistic uses."""
    base = float(n + 1)
    return base**x * math.log(base) ** y


def _law(n: int, probs: np.ndarray, values: np.ndarray, defect: float) -> Law:
    mean = float(np.dot(probs, values))
    dev = values - mean
    dev2 = dev * dev
    return Law(
        n=n,
        mean=mean,
        variance=float(np.dot(probs, dev2)),
        m4=float(np.dot(probs, dev2 * dev2)),
        mass_defect=defect,
    )


def urn_moments(
    urn: Urn, ns: list[int], center: float, scaling: tuple[float, float]
) -> dict[int, Law]:
    """Exact law of w(n)(X_n - center) at each n in ns."""
    wanted = set(ns)
    sx, sy = scaling
    out: dict[int, Law] = {}
    probs = np.ones(1)
    lo = 0  # probs[i] is P(k = lo + i)
    defect = 0.0
    for n in range(max(ns) + 1):
        k = np.arange(lo, lo + probs.size, dtype=np.float64)
        white, total = urn.counts(n, k)
        q = white / total
        if n in wanted:
            out[n] = _law(n, probs, weight(n, sx, sy) * (q - center), defect)
        nxt = np.zeros(probs.size + 1)
        nxt[1:] += probs * q
        nxt[:-1] += probs * (1.0 - q)
        first = 0
        while nxt[first] < _TRIM:
            first += 1
        last = nxt.size
        while nxt[last - 1] < _TRIM:
            last -= 1
        defect += float(nxt[:first].sum() + nxt[last:].sum())
        probs = nxt[first:last]
        lo += first
    return out


def synthetic_moments(
    big_gamma: float, sigma2: float, ns: list[int]
) -> dict[int, Law]:
    """Exact mean, variance and fourth moment of z at each n in ns.

    Step family g_n = n, z0 = 0: the value recorded at index n has seen
    the updates with g = 1 .. n-1.
    """
    wanted = set(ns)
    out: dict[int, Law] = {}
    v = 0.0
    m4 = 0.0
    for n in range(1, max(ns) + 1):
        if n in wanted:
            out[n] = Law(n=n, mean=0.0, variance=v, m4=m4)
        g = float(n)
        a2 = (1.0 - big_gamma / g) ** 2
        s = sigma2 / g
        m4 = a2 * a2 * m4 + 6.0 * a2 * v * s + s * s
        v = a2 * v + s
    return out


def urn_scaled(
    urn: Urn, n: int, k, center: float, scaling: tuple[float, float]
):
    """Scaled statistic w(n)(W/T - center) after n draws with k white."""
    white, total = urn.counts(n, k)
    return weight(n, *scaling) * (white / total - center)


def urn_support_values(
    urn: Urn, n: int, center: float, scaling: tuple[float, float], values: np.ndarray
) -> np.ndarray:
    """For each scaled value, the exact support point it must equal.

    Inverts w(n)(W/T - center) = v for k, rounds k to the nearest integer
    in [0, n] and returns the scaled value of that k; a value that lies on
    the support of the law at n equals its return to rounding.
    """
    x = center + values / weight(n, *scaling)
    base_w = urn.w0 + urn.c * n
    base_t = urn.w0 + urn.b0 + (urn.c + urn.d) * n
    k = (x * base_t - base_w) / ((urn.a - urn.c) + urn.alpha * x)
    return urn_scaled(urn, n, np.clip(np.rint(k), 0, n), center, scaling)
