"""The simulator's final X_n against the exact finite-n law of its urn.

After n draws of which k came up white the counts are

    W = w0 + c n + (a - c) k,    T = w0 + b0 + (c + d) n - alpha k,

with alpha = (c + d) - (a + b), so X_n = W/T is a function of k, and the
law of k obeys P_{n+1}(k + 1) += P_n(k) W/T, P_{n+1}(k) += P_n(k) (1 - W/T).
This law is built here from the matrix's own definition, not through
urn.urn_counts, which the kernel and urn_step share: an error in that
expression passes every kernel-equivalence test, but not this one.
"""

from __future__ import annotations

import numpy as np
import pytest

from urnsa import EnsembleConfig, ReplacementMatrix, run_ensemble
from urnsa.montecarlo import KS_CONSTANTS

# support points at the edges of the law of k carrying less mass than this
# are dropped: 20000 draws from them are all but impossible
_TRIM = 1e-30


def exact_law(
    entries: tuple[float, float, float, float], w0: float, b0: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The support of X_n and its probabilities, by the recursion on k."""
    a, b, c, d = entries
    alpha = (c + d) - (a + b)
    probs, lo = np.ones(1), 0  # probs[i] is P(k = lo + i)

    def support(step: int) -> np.ndarray:
        k = np.arange(lo, lo + probs.size, dtype=np.float64)
        return (w0 + c * step + (a - c) * k) / (w0 + b0 + (c + d) * step - alpha * k)

    for step in range(n):
        x = support(step)
        nxt = np.zeros(probs.size + 1)
        nxt[1:] += probs * x
        nxt[:-1] += probs * (1.0 - x)
        kept = np.flatnonzero(nxt >= _TRIM)
        probs = nxt[kept[0] : kept[-1] + 1]
        lo += int(kept[0])
    return support(n), probs


@pytest.mark.parametrize(
    "entries, w0, b0, horizon",
    [
        ((4.0, 5.0, 3.0, 2.0), 1.0, 1.0, 5000),
        ((0.1, 0.7, 0.3, 0.2), 1.0, 1.0, 3000),
        ((3.0, 0.0, 2.0, 5.0), 4.0, 4.0, 1 << 12),
    ],
    ids=["toy", "fractional", "power-law"],
)
def test_final_x_follows_the_exact_law(entries, w0, b0, horizon):
    """Every final X of 20000 paths lies on the exact support, to rounding,
    and their two-sided KS distance to the exact discrete CDF, taken on
    both sides of every jump, is under the 1% asymptotic threshold (which
    is conservative against a discrete law)."""
    paths = 20_000
    cfg = EnsembleConfig(
        matrix=ReplacementMatrix(*entries), w0=w0, b0=b0, horizon=horizon,
        paths=paths, master_seed=0,
    )
    final_x = run_ensemble(cfg).final_x
    support, probs = exact_law(entries, w0, b0, horizon)
    order = np.argsort(support)
    support, probs = support[order], probs[order]
    assert np.diff(support).min() > 1e-9  # one support point per k
    # the support point nearest each value
    at = np.clip(np.searchsorted(support, final_x), 1, support.size - 1)
    at -= final_x - support[at - 1] < support[at] - final_x
    assert np.abs(final_x - support[at]).max() <= 1e-12
    # both CDFs step only at support points, so their distance on either
    # side of a jump is the distance at this point or at the one before
    empirical = np.cumsum(np.bincount(at, minlength=support.size)) / paths
    d = np.abs(empirical - np.cumsum(probs)).max()
    assert d <= KS_CONSTANTS[0.01] / np.sqrt(paths)
