"""urnsa benchmark: time `urnsa simulate|synthetic` end to end and check its output.

Run from the root of a urnsa checkout (the directory that holds src/urnsa):

    python3 urnbench/run.py --workload urn-wide --seed 20110221 --seconds 38 --trace 0

Each operation is one urnsa command in a fresh process (child.py), with the
CLI's defaults except the workload's matrix, sizes and seed.  A closed loop
runs operations back to back until their summed wall time reaches
--seconds.  Artifacts go to a scratch directory under .urnbench_out/ that
is removed at exit; every operation's JSON and CSV are checked (checks.py)
outside the timed region, and an operation fails when urnsa exits non-zero
or a check fails.

--trace 0 prints the end-to-end metrics (setup_s, path_steps_per_s,
peak_rss_mib).  --trace 1 alternates an untraced and a traced operation and
prints the per-layer metrics of spans.py, as medians over the traced ones.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from checks import Oracle, check_artifacts
from spans import layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = ".urnbench_out"
OP_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "path_steps_per_s": "path-steps/s",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {
    "rng.uniform_block.ns_per_draw": "ns",
    "rng.uniform_block.calls": "count",
    "rng.uniform_block.block_mib": "MiB",
    "montecarlo.kernel.ns_per_path_step": "ns",
    "montecarlo.kernel.us_per_step": "us",
    "montecarlo.threads": "count",
    "montecarlo.chunks": "count",
    "montecarlo.checkpoint_mib": "MiB",
    "montecarlo.sample_moments.s": "s",
    "montecarlo.ks_report.s": "s",
    "montecarlo.summary_json.s": "s",
    "montecarlo.values_csv.s": "s",
    "montecarlo.values_csv.bytes": "bytes",
    "cli.self_s": "s",
    "setup.import_s": "s",
    "trace.overhead_pct": "%",
}


class Run:
    """Operations of one benchmark run and what they measured."""

    def __init__(self, wl, seed: int, scratch: str, src: str):
        self.wl = wl
        self.seed = seed
        self.prefix = os.path.join(scratch, "op")
        self.env = dict(os.environ, URNBENCH_SRC=src)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        self.oracle = Oracle(wl)
        self.verdicts: dict[tuple[str, str], list[str]] = {}
        self.first_digest: tuple[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.records: dict[bool, list[dict]] = {False: [], True: []}

    def operation(self, traced: bool) -> float:
        """Run one command; return its wall time, spawn to exit."""
        self.attempted += 1
        for ext in (".json", ".csv"):
            if os.path.exists(self.prefix + ext):
                os.remove(self.prefix + ext)
        cmd = [
            sys.executable,
            CHILD,
            "traced" if traced else "plain",
            *self.wl.argv(self.seed, self.prefix),
        ]
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self.env,
            text=True,
        )
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        try:
            out, err = proc.communicate(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            err += f"\ntimed out after {OP_TIMEOUT_S} s"
        wall = time.perf_counter() - start
        lines = out.splitlines()
        record = None
        if ready.strip() == "ready" and proc.returncode == 0 and lines:
            try:
                record = json.loads(lines[-1])
            except ValueError:
                err += f"\nunreadable result line {lines[-1][:200]!r}"
        if record is None or record.get("rc") != 0:
            self._fail(f"command failed (exit {proc.returncode}): {err.strip()[-400:]}")
            return wall
        record["setup_s"] = setup_s
        self.records[traced].append(record)
        errors = self._check()
        if errors:
            self._fail("; ".join(errors[:5]))
        return wall

    def _check(self) -> list[str]:
        try:
            with open(self.prefix + ".json", "rb") as fh:
                json_bytes = fh.read()
            with open(self.prefix + ".csv", "rb") as fh:
                csv_bytes = fh.read()
        except OSError as exc:
            return [f"artifact missing: {exc}"]
        digest = (
            hashlib.sha256(json_bytes).hexdigest(),
            hashlib.sha256(csv_bytes).hexdigest(),
        )
        if self.first_digest is None:
            self.first_digest = digest
        if digest != self.first_digest:
            return ["artifacts differ from those of the run's first operation"]
        if digest not in self.verdicts:
            self.verdicts[digest] = check_artifacts(
                self.wl,
                self.seed,
                json_bytes.decode(),
                csv_bytes.decode(),
                self.oracle,
            )
        return self.verdicts[digest]

    def _fail(self, message: str) -> None:
        self.failed += 1
        print(f"operation {self.attempted} failed: {message}", file=sys.stderr)

    def end_to_end(self) -> dict[str, float]:
        recs = self.records[False]
        if not recs:
            return {}
        wall = statistics.median(r["wall_s"] for r in recs)
        return {
            "setup_s": statistics.median(r["setup_s"] for r in recs),
            "path_steps_per_s": self.wl.path_steps / wall,
            "peak_rss_mib": statistics.median(r["maxrss_kib"] for r in recs) / 1024,
        }

    def per_layer(self) -> dict[str, float]:
        traced = self.records[True]
        if not traced:
            return {}
        per_op = [layer_metrics(r["spans"]) for r in traced]
        out = {}
        for name in PER_LAYER:
            values = [m[name] for m in per_op if name in m]
            if values:
                out[name] = statistics.median(values)
        out["setup.import_s"] = statistics.median(r["import_s"] for r in traced)
        plain = self.records[False]
        if plain:
            base = statistics.median(r["wall_s"] for r in plain)
            with_spans = statistics.median(r["wall_s"] for r in traced)
            out["trace.overhead_pct"] = (with_spans / base - 1.0) * 100.0
        missing = sorted({m for r in traced for m in r.get("missing", [])})
        if missing:
            print(f"wrapped names missing: {', '.join(missing)}", file=sys.stderr)
        return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "urnsa", "cli.py")):
        print(f"no urnsa sources under {src}; run from a checkout", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=args.workload + "-", dir=os.path.join(root, OUT_DIR))
    try:
        run = Run(WORKLOADS[args.workload], args.seed, scratch, src)
        round_kinds = (False, True) if args.trace else (False,)
        spent = 0.0
        while spent < args.seconds:
            for traced in round_kinds:
                spent += run.operation(traced)
        measured = run.per_layer() if args.trace else run.end_to_end()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, unit in units.items():
        if name not in measured:
            print(f"metric {name} not measured; reported as 0", file=sys.stderr)
        value = measured.get(name, 0.0)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} operations attempted {run.attempted}, failed {run.failed}")
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
