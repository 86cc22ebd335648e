"""Reference random stream and step rules on Python ints and floats.

Re-implements what the urnsa rng module documents, independently of its
numpy code: the SplitMix64 finalizer over two Weyl sequences, stride
0x9E3779B97F4A7C15 for path keys and 0xD1B54A32D192ED03 for draws, with
the top 53 bits of a mix giving a uniform in [0, 1).  The step rules are
the documented ones: an urn draws white iff u < W/T, and the synthetic
process moves z' = (1 - G/g) z + e sqrt(s2)/sqrt(g) with e = +1 iff u < 1/2.
"""
from __future__ import annotations

import math

MASK64 = (1 << 64) - 1
KEY_STRIDE = 0x9E3779B97F4A7C15
DRAW_STRIDE = 0xD1B54A32D192ED03


def mix64(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def path_key(seed: int, path: int) -> int:
    return mix64(seed + (path + 1) * KEY_STRIDE)


def uniform(key: int, draw: int) -> float:
    """Draw number `draw` (1-based) of the stream owned by key."""
    return (mix64(key + draw * DRAW_STRIDE) >> 11) * 2.0**-53


def urn_white_draws(seed: int, path: int, urn, horizon: int) -> int:
    """Number of white draws of one urn path after `horizon` draws.

    Counts are kept as exact integers (the benchmark's urns have integer
    entries), so the fraction W/T is the correctly rounded quotient.
    """
    key = path_key(seed, path)
    white = int(urn.w0)
    total = int(urn.w0 + urn.b0)
    a, b, c, d = (int(v) for v in (urn.a, urn.b, urn.c, urn.d))
    k = 0
    for j in range(1, horizon + 1):
        if uniform(key, j) < white / total:
            white += a
            total += a + b
            k += 1
        else:
            white += c
            total += c + d
    return k


def synthetic_value(
    seed: int, path: int, big_gamma: float, sigma2: float, horizon: int
) -> float:
    """Final z of one synthetic path, step family g_n = n, z0 = 0."""
    key = path_key(seed, path)
    size = math.sqrt(sigma2)
    z = 0.0
    for n in range(1, horizon):
        g = float(n)
        step = size / math.sqrt(g)
        noise = step if uniform(key, n + 1) < 0.5 else -step
        z = (1.0 - big_gamma / g) * z + noise
    return z
