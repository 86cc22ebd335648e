"""Correctness checks on the artifacts of one `urnsa simulate|synthetic` run.

`check_artifacts` returns a list of failure messages; an empty list means
the summary JSON and values CSV passed every check:

- the CSV has one row per path, ids 0..paths-1 in order;
- the JSON echoes the requested configuration and checkpoint schedule;
- estimates.mean, .variance and .skewness agree with numpy on the CSV;
- ks.d agrees with scipy.stats.kstest against the reference the JSON names;
- Monte Carlo moments at the final horizon and checkpoints sit within
  Z_BOUND standard errors of the exact finite-horizon law (exact.py);
- for urns, every CSV value is a point of the exact support at the horizon;
- a few sampled paths equal their recomputation from the reference stream.

prediction.reference_scaled_mean is deliberately not checked: it carries a
known wrong constant for the power-law urn.
"""
from __future__ import annotations

import json
import math
import random

import numpy as np
from scipy import stats

import exact
import refstream

# standard errors a Monte Carlo moment may sit from its exact value
Z_BOUND = 5.0
# reference-stream values may differ from the CSV by this many ulps
ULPS = 4
EPS = np.finfo(np.float64).eps
SAMPLED_PATHS = 4


class Oracle:
    """Exact laws of one workload, computed once and reused across seeds."""

    def __init__(self, wl):
        self.wl = wl
        self._laws = None

    def laws(self, center: float, scaling: tuple[float, float]) -> dict:
        if self._laws is None:
            wl = self.wl
            ns = [n for n in schedule(wl.horizon) if n <= wl.oracle_max_n]
            if wl.urn is None:
                self._laws = exact.synthetic_moments(wl.big_gamma, wl.sigma2, ns)
            else:
                self._laws = exact.urn_moments(wl.urn, ns, center, scaling)
        return self._laws


def schedule(horizon: int) -> list[int]:
    cps = []
    c = 1
    while c < horizon:
        cps.append(c)
        c *= 2
    return cps + [horizon]


def parse_csv(text: str, paths: int) -> tuple[np.ndarray, list[str]]:
    lines = text.split("\n")
    errors = []
    if lines[0] != "path_id,z_value":
        errors.append(f"csv header is {lines[0]!r}")
    if lines[-1] != "":
        errors.append("csv does not end with a newline")
    rows = lines[1:-1]
    if len(rows) != paths:
        errors.append(f"csv has {len(rows)} rows, expected {paths}")
        return np.empty(0), errors
    values = np.empty(paths)
    for i, row in enumerate(rows):
        ident, _, text_value = row.partition(",")
        if ident != str(i):
            errors.append(f"csv row {i} has path id {ident!r}")
            break
        values[i] = float(text_value)
    return values, errors


def _config_errors(wl, seed: int, doc: dict) -> list[str]:
    cfg = doc["config"]
    want = {"paths": wl.paths, "horizon": wl.horizon, "master_seed": seed}
    if wl.urn is None:
        syn = cfg["synthetic"] or {}
        got = {"big_gamma": syn.get("big_gamma"), "sigma2": syn.get("sigma2")}
        want_model = {"big_gamma": wl.big_gamma, "sigma2": wl.sigma2}
    else:
        u = wl.urn
        got = {"matrix": cfg["matrix"], "w0": cfg["w0"], "b0": cfg["b0"]}
        want_model = {
            "matrix": {"a": u.a, "b": u.b, "c": u.c, "d": u.d},
            "w0": u.w0,
            "b0": u.b0,
        }
    errors = [
        f"config.{k} is {cfg.get(k)!r}, expected {v!r}"
        for k, v in want.items()
        if cfg.get(k) != v
    ]
    errors += [
        f"config {k} is {got[k]!r}, expected {v!r}"
        for k, v in want_model.items()
        if got[k] != v
    ]
    ns = [c["n"] for c in doc["checkpoints"]]
    if ns != schedule(wl.horizon):
        errors.append(f"checkpoints {ns} differ from the factor-2 schedule")
    return errors


def _estimate_errors(values: np.ndarray, est: dict) -> list[str]:
    errors = []
    n = values.size
    mean = float(np.mean(values))
    var = float(np.var(values, ddof=1))
    d = values - mean
    m2 = float(np.mean(d * d))
    skew = float(np.mean(d * d * d)) / m2**1.5
    # bounds on a reduction done in another summation order
    scale = float(np.mean(np.abs(values)))
    if est["paths"] != n:
        errors.append(f"estimates.paths {est['paths']} != {n}")
    if abs(est["mean"] - mean) > 16 * EPS * scale:
        errors.append(f"estimates.mean {est['mean']!r} != numpy {mean!r}")
    if abs(est["variance"] - var) > 1e-12 * var:
        errors.append(f"estimates.variance {est['variance']!r} != numpy {var!r}")
    if est["skewness"] is None or abs(est["skewness"] - skew) > 1e-9 * max(
        1.0, abs(skew)
    ):
        errors.append(f"estimates.skewness {est['skewness']!r} != numpy {skew!r}")
    return errors


def _ks_errors(values: np.ndarray, doc: dict) -> list[str]:
    ks = doc["ks"]
    if ks is None:
        return ["ks report missing"]
    if ks["reference"] == "predicted-normal":
        loc, var = 0.0, doc["prediction"]["predicted_variance"]
    elif ks["reference"] == "fitted-normal":
        loc, var = doc["estimates"]["mean"], doc["estimates"]["variance"]
    else:
        return [f"unknown ks reference {ks['reference']!r}"]
    d = stats.kstest(values, stats.norm(loc=loc, scale=math.sqrt(var)).cdf).statistic
    errors = []
    if ks["count"] != values.size:
        errors.append(f"ks.count {ks['count']} != {values.size}")
    if abs(ks["d"] - d) > 1e-9:
        errors.append(f"ks.d {ks['d']!r} != scipy {d!r} ({ks['reference']})")
    return errors


def _moment_errors(label: str, got_mean, got_var, law, wl) -> list[str]:
    n = wl.paths
    se_mean = math.sqrt(law.variance / n)
    # the sample variance is the mean of (x - mu)^2, whose standard error
    # comes from m4, minus (xbar - mu)^2, at most Z^2 var/n while the mean
    # is within bounds; a two-point law has m4 = var^2 and only that term
    se_var = math.sqrt(max(law.m4 - law.variance**2, 0.0) / n)
    tol_var = Z_BOUND * se_var + (Z_BOUND**2 + 1.0) * law.variance / n
    errors = []
    for what, got, want, se, tol in (
        ("mean", got_mean, law.mean, se_mean, Z_BOUND * se_mean),
        ("variance", got_var, law.variance, se_var, tol_var),
    ):
        if what not in wl.oracle_moments:
            continue
        if abs(got - want) > max(tol, 1e-12):
            z = (got - want) / se if se > 0.0 else math.inf
            errors.append(
                f"{label} {what} {got!r} vs exact {want!r}: "
                f"{z:.2f} standard errors, bound {tol:.3g}"
            )
    return errors


def _oracle_errors(wl, doc: dict, oracle: Oracle) -> list[str]:
    pred = doc["prediction"]
    errors = []
    if wl.urn is None:
        center, scaling = 0.0, (0.0, 0.0)
    else:
        center, scaling = pred["p"], tuple(pred["scaling"])
        p = wl.urn.target()
        if abs(center - p) > 1e-12:
            errors.append(f"prediction.p {center!r} != drift zero {p!r}")
        if scaling != wl.scaling:
            errors.append(f"prediction.scaling {scaling} != {wl.scaling}")
    if wl.predicted_variance is not None:
        pv = pred["predicted_variance"]
        if pv is None or abs(pv - wl.predicted_variance) > 1e-12:
            errors.append(
                f"prediction.predicted_variance {pv!r} != {wl.predicted_variance!r}"
            )
    if errors:
        return errors
    laws = oracle.laws(center, scaling)
    for cp in doc["checkpoints"]:
        law = laws.get(cp["n"])
        if law is not None:
            errors += _moment_errors(
                f"checkpoint {cp['n']}", cp["mean"], cp["variance"], law, wl
            )
    final = laws.get(wl.horizon)
    if final is not None:
        est = doc["estimates"]
        errors += _moment_errors(
            "final", est["mean"], est["variance"], final, wl
        )
    return errors


def _within_ulps(got: np.ndarray, want: np.ndarray, scale: np.ndarray) -> np.ndarray:
    return np.abs(got - want) <= ULPS * EPS * scale


def _support_errors(wl, doc: dict, values: np.ndarray) -> list[str]:
    pred = doc["prediction"]
    center, scaling = pred["p"], tuple(pred["scaling"])
    with np.errstate(divide="ignore", invalid="ignore"):
        snapped = exact.urn_support_values(
            wl.urn, wl.horizon, center, scaling, values
        )
    scale = np.abs(snapped) + exact.weight(wl.horizon, *scaling)
    bad = np.flatnonzero(~_within_ulps(values, snapped, scale))
    if bad.size:
        i = int(bad[0])
        return [
            f"{bad.size} csv values off the exact support, first path {i}: "
            f"{float(values[i])!r} vs {float(snapped[i])!r}"
        ]
    return []


def sampled_paths(seed: int, paths: int) -> list[int]:
    rnd = random.Random(seed)
    picks = {0, paths - 1}
    while len(picks) < min(SAMPLED_PATHS, paths):
        picks.add(rnd.randrange(paths))
    return sorted(picks)


def _reference_errors(wl, seed: int, doc: dict, values: np.ndarray) -> list[str]:
    errors = []
    for path in sampled_paths(seed, wl.paths):
        if wl.urn is None:
            want = refstream.synthetic_value(
                seed, path, wl.big_gamma, wl.sigma2, wl.horizon
            )
            scale = max(abs(want), math.sqrt(wl.sigma2))
        else:
            pred = doc["prediction"]
            scaling = tuple(pred["scaling"])
            k = refstream.urn_white_draws(seed, path, wl.urn, wl.horizon)
            want = float(
                exact.urn_scaled(wl.urn, wl.horizon, k, pred["p"], scaling)
            )
            scale = abs(want) + exact.weight(wl.horizon, *scaling)
        got = float(values[path])
        if not _within_ulps(got, want, scale):
            errors.append(f"path {path}: csv {got!r} != reference stream {want!r}")
    return errors


def check_artifacts(
    wl, seed: int, json_text: str, csv_text: str, oracle: Oracle
) -> list[str]:
    try:
        doc = json.loads(json_text)
    except ValueError as exc:
        return [f"summary json does not parse: {exc}"]
    values, errors = parse_csv(csv_text, wl.paths)
    if errors:
        return errors
    try:
        errors += _config_errors(wl, seed, doc)
        errors += _estimate_errors(values, doc["estimates"])
        errors += _ks_errors(values, doc)
        errors += _oracle_errors(wl, doc, oracle)
        if wl.urn is not None:
            errors += _support_errors(wl, doc, values)
        errors += _reference_errors(wl, seed, doc, values)
    except (KeyError, TypeError) as exc:
        errors.append(f"summary json lacks a field: {exc!r}")
    return errors
