"""Spans around urnsa's layer boundaries, and the per-layer metrics built from them.

`install` (run inside the child process) replaces module attributes with
wrappers that record a span per call: name, start, end, parent span and
thread.  The parent of a span is the innermost open span of its own thread;
a span opened on a thread with no open span (a pool worker) takes the
innermost open span of any thread as its parent.  Spans stay in memory and
the child ships them to the benchmark when the command ends.

`layer_metrics` (run in the benchmark process) turns one command's spans
into the per-layer metrics.  A span's self time is its duration minus the
union of the intervals its children on the same thread cover.  The ensemble
kernel's time is the wall time of run_ensemble during which no thread was
inside a wrapped layer: with one thread that is run_ensemble's self time;
with worker threads, layer time spent on the workers is subtracted too.
"""
from __future__ import annotations

import importlib
import threading
import time

# (module, attribute, span name)
WRAPPED = (
    ("urnsa.rng", "uniform_block", "rng.uniform_block"),
    ("urnsa.rng", "path_keys", "rng.path_keys"),
    ("urnsa.montecarlo", "sample_moments", "montecarlo.sample_moments"),
    ("urnsa.montecarlo", "ks_report", "montecarlo.ks_report"),
    ("urnsa.cli", "run_ensemble", "montecarlo.run_ensemble"),
    ("urnsa.cli", "summary_json", "montecarlo.summary_json"),
    ("urnsa.cli", "values_csv", "montecarlo.values_csv"),
)
MAIN = "cli.main"
MIB = float(1 << 20)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open: list[int] = []  # open span ids, any thread, in start order

    def span(self, name: str, fn, *args, **kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            sid = len(self.spans)
            if stack:
                parent = stack[-1]
            else:
                parent = self._open[-1] if self._open else None
            rec = {
                "id": sid,
                "name": name,
                "parent": parent,
                "thread": threading.get_ident(),
            }
            self.spans.append(rec)
            self._open.append(sid)
        stack.append(sid)
        rec["start"] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self._open.remove(sid)
        rec.update(_counts(name, args, out))
        return out

    def install(self) -> list[str]:
        """Wrap every name in WRAPPED; return the ones that do not exist."""
        missing = []
        for module_name, attr, name in WRAPPED:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                missing.append(name)
                continue
            setattr(module, attr, self._wrapper(name, original))
        return missing

    def _wrapper(self, name, original):
        def wrapped(*args, **kwargs):
            return self.span(name, original, *args, **kwargs)

        return wrapped


def _counts(name: str, args: tuple, out) -> dict:
    """Work counts recorded at the boundary, from the arguments and result."""
    if name == "rng.uniform_block" and len(args) >= 3:
        draws = int(len(args[0]) * args[2])
        return {"draws": draws, "bytes": 8 * draws}
    if name == "montecarlo.run_ensemble":
        cfg = getattr(out, "config", None)
        cp = [getattr(out, a, None) for a in ("cp_x", "cp_t", "cp_x_prev")]
        return {
            "paths": getattr(cfg, "paths", 0),
            "horizon": getattr(cfg, "horizon", 0),
            "checkpoint_bytes": sum(getattr(a, "nbytes", 0) for a in cp),
        }
    if name == "montecarlo.values_csv" and isinstance(out, str):
        return {"bytes": len(out.encode())}
    return {}


def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def _clip(span: dict, others: list[dict]) -> list[tuple[float, float]]:
    lo, hi = span["start"], span["end"]
    return [
        (max(o["start"], lo), min(o["end"], hi))
        for o in others
        if o["end"] > lo and o["start"] < hi
    ]


def _descendants(spans: list[dict], root: int) -> list[dict]:
    children: dict[int, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out, todo = [], [root]
    while todo:
        for s in children.get(todo.pop(), []):
            out.append(s)
            todo.append(s["id"])
    return out


def self_time(spans: list[dict], span: dict) -> float:
    same = [
        s for s in spans
        if s["parent"] == span["id"] and s["thread"] == span["thread"]
    ]
    return span["end"] - span["start"] - _union(_clip(span, same))


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures of one traced command (see the module docstring)."""
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, []))

    out: dict[str, float] = {}
    blocks = by_name.get("rng.uniform_block", [])
    draws = sum(s.get("draws", 0) for s in blocks)
    out["rng.uniform_block.calls"] = float(len(blocks))
    if draws:
        out["rng.uniform_block.ns_per_draw"] = total("rng.uniform_block") / draws * 1e9
        sizes = sorted(s["bytes"] for s in blocks)
        out["rng.uniform_block.block_mib"] = sizes[len(sizes) // 2] / MIB
    ensembles = by_name.get("montecarlo.run_ensemble", [])
    if ensembles:
        ens = ensembles[0]
        inner = _union(_clip(ens, _descendants(spans, ens["id"])))
        kernel = ens["end"] - ens["start"] - inner
        steps = ens.get("paths", 0) * ens.get("horizon", 0)
        if steps:
            out["montecarlo.kernel.ns_per_path_step"] = kernel / steps * 1e9
            out["montecarlo.kernel.us_per_step"] = kernel / ens["horizon"] * 1e6
        out["montecarlo.checkpoint_mib"] = ens.get("checkpoint_bytes", 0) / MIB
        workers = {s["thread"] for s in blocks} or {ens["thread"]}
        out["montecarlo.threads"] = float(len(workers))
        out["montecarlo.chunks"] = float(len(by_name.get("rng.path_keys", [])))
    for name in (
        "montecarlo.sample_moments",
        "montecarlo.ks_report",
        "montecarlo.summary_json",
        "montecarlo.values_csv",
    ):
        if name in by_name:
            out[name + ".s"] = total(name)
    csvs = by_name.get("montecarlo.values_csv", [])
    if csvs:
        out["montecarlo.values_csv.bytes"] = float(sum(s.get("bytes", 0) for s in csvs))
    mains = by_name.get(MAIN, [])
    if mains:
        out["cli.self_s"] = self_time(spans, mains[0])
    return out
