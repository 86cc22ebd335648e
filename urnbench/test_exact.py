"""The exact oracle against brute-force enumeration of every draw sequence.

Run from the repository root: python3 -m pytest -q urnbench/test_exact.py
"""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import exact

URNS = [
    exact.Urn(4.0, 5.0, 3.0, 2.0, 1.0, 1.0),
    exact.Urn(3.0, 0.0, 2.0, 5.0, 4.0, 4.0),
    exact.Urn(2.0, 1.0, 1.0, 2.0, 1.0, 3.0),
]


def enumerate_urn(urn, n, center, scaling):
    """(probability, scaled value) of every sequence of n draws."""
    out = []
    for seq in itertools.product((True, False), repeat=n):
        white, total, prob = urn.w0, urn.w0 + urn.b0, 1.0
        for is_white in seq:
            q = white / total
            if is_white:
                prob *= q
                white += urn.a
                total += urn.a + urn.b
            else:
                prob *= 1.0 - q
                white += urn.c
                total += urn.c + urn.d
        out.append((prob, exact.weight(n, *scaling) * (white / total - center)))
    return out


def moments(pairs):
    mean = sum(p * v for p, v in pairs)
    var = sum(p * (v - mean) ** 2 for p, v in pairs)
    m4 = sum(p * (v - mean) ** 4 for p, v in pairs)
    return mean, var, m4


@pytest.mark.parametrize("urn", URNS)
def test_urn_moments_match_enumeration(urn):
    center = urn.target()
    scaling = (0.5, 0.0)
    ns = list(range(1, 13))
    laws = exact.urn_moments(urn, ns, center, scaling)
    for n in ns:
        mean, var, m4 = moments(enumerate_urn(urn, n, center, scaling))
        law = laws[n]
        assert law.mean == pytest.approx(mean, rel=1e-12, abs=1e-15)
        assert law.variance == pytest.approx(var, rel=1e-11)
        assert law.m4 == pytest.approx(m4, rel=1e-10)
        assert law.mass_defect == 0.0


def test_synthetic_moments_match_enumeration():
    big_gamma, sigma2 = 0.7, 2.0
    ns = list(range(1, 13))
    laws = exact.synthetic_moments(big_gamma, sigma2, ns)
    for n in ns:
        values = []
        for signs in itertools.product((1.0, -1.0), repeat=n - 1):
            z = 0.0
            for g, e in enumerate(signs, start=1):
                z = (1.0 - big_gamma / g) * z + e * math.sqrt(sigma2 / g)
            values.append(z)
        values = np.array(values)
        law = laws[n]
        assert law.mean == 0.0
        assert law.variance == pytest.approx(np.mean(values**2), rel=1e-12, abs=1e-300)
        assert law.m4 == pytest.approx(np.mean(values**4), rel=1e-12, abs=1e-300)


def test_targets():
    assert URNS[0].target() == 0.5
    assert URNS[1].target() == 0.5


def test_support_values_recover_every_reachable_value():
    urn = URNS[1]
    n = 10
    k = np.arange(n + 1, dtype=np.float64)
    white, total = urn.counts(n, k)
    scaling = (0.4, 0.0)
    values = exact.weight(n, *scaling) * (white / total - 0.5)
    assert np.array_equal(exact.urn_support_values(urn, n, 0.5, scaling, values), values)
    off = values + 1e-9
    assert not np.any(exact.urn_support_values(urn, n, 0.5, scaling, off) == off)
