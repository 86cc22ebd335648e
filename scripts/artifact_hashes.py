"""Print the sha256 of every artifact a set of fixed runs produces.

Two checkouts that print the same lines produce byte-identical summary JSON
and values CSV for every ensemble below, and the same `urnsa path` tables
and `analyze --json` reports.  Covered:

1. every ensemble that acceptance.run_suite("full") runs, captured by
   wrapping acceptance.run_ensemble, so the configs are the suite's own;
2. the three benchmark workload commands (urnbench/workloads.py), at the
   benchmark's default seed;
3. `urnsa path` and `analyze --json` over the regime gallery matrices
   (scripts/regime_gallery.py), plus forced-scaling `path` tables;
4. edge configs: horizon 0, one path, forced scaling and center,
   fractional matrix and counts, a < c, a = c, counts near the exact
   double range (w0 = 2^52), and a multi-chunk split forced by
   lowering montecarlo._MIN_CHUNK_PATHS and _MIN_CHUNK_PATH_STEPS and
   patching montecarlo._usable_cores to 3; for urn configs, also the
   checkpoint traces (path_checkpoints) of three paths.

One line per artifact: label, artifact name, sha256.  After the suite's
artifact lines, each acceptance verdict line follows as `verdict <line>`,
so two checkouts that print the same lines also give the same verdicts.
No line depends on the number of usable cores: the verdict lines carry no
chunk counts, so a run under `taskset -c 0` prints the same lines.

    PYTHONPATH=src python3 scripts/artifact_hashes.py

It takes about 7.5 minutes on a 2-core Xeon, most of it in the suite.
"""

import contextlib
import hashlib
import io
import itertools
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "urnbench"))

from regime_gallery import GALLERY  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

from urnsa import (  # noqa: E402
    EnsembleConfig,
    ReplacementMatrix,
    StepFamily,
    SyntheticProcess,
    acceptance,
    cli,
    montecarlo,
    run_ensemble,
    summary_json,
    values_csv,
)

PATH_HORIZON = 4096


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def describe(cfg: EnsembleConfig) -> str:
    if cfg.matrix is not None:
        source = "urn " + ",".join(f"{v:g}" for v in cfg.matrix.entries())
        source += f" w0={cfg.w0:g} b0={cfg.b0:g}"
    else:
        s = cfg.synthetic
        source = (
            f"synthetic gamma={s.big_gamma:g} sigma2={s.sigma2:g} "
            f"family={s.family.value} z0={s.z0:g}"
        )
    extra = ""
    if cfg.forced_scaling is not None:
        extra += " scaling=" + ",".join(f"{v:g}" for v in cfg.forced_scaling)
    if cfg.forced_center is not None:
        extra += f" center={cfg.forced_center:g}"
    return (
        f"{source} horizon={cfg.horizon} paths={cfg.paths} "
        f"seed={cfg.master_seed} factor={cfg.checkpoint_factor}{extra}"
    )


def print_ensemble(label: str, result) -> None:
    print(f"{label} summary_json {sha(summary_json(result))}")
    print(f"{label} values_csv {sha(values_csv(result))}")


def print_traces(label: str, result) -> None:
    """Hash the checkpoint traces of the first, middle and last path."""
    n = result.config.paths
    h = hashlib.sha256()
    for i in sorted({0, n // 2, n - 1}):
        data = result.path_checkpoints(i)
        for a in (data.ns, data.x, data.t, data.x_prev):
            h.update(a.tobytes())
    print(f"{label} path_checkpoints {h.hexdigest()}")


def cli_stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"urnsa {' '.join(argv)} exited {code}")
    return out.getvalue()


def acceptance_runs() -> None:
    original = acceptance.run_ensemble
    runs = itertools.count()

    def recording(cfg):
        result = original(cfg)
        print_ensemble(f"acceptance[{next(runs)}] {describe(cfg)}", result)
        return result

    acceptance.run_ensemble = recording
    try:
        results = acceptance.run_suite("full", stream=io.StringIO())
    finally:
        acceptance.run_ensemble = original
    for result in results:
        print(f"verdict {result.line()}")


def workload_runs() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name, w in WORKLOADS.items():
            prefix = str(Path(tmp) / name)
            cli_stdout(w.argv(DEFAULT_SEED, prefix))
            for ext, artifact in ((".json", "summary_json"), (".csv", "values_csv")):
                text = Path(prefix + ext).read_text()
                print(f"workload {name} seed={DEFAULT_SEED} {artifact} {sha(text)}")


def gallery_runs() -> None:
    for name, m in GALLERY:
        matrix = ",".join(f"{v:g}" for v in m.entries())
        for counts in ([], ["--w0", "4", "--b0", "4"]):
            argv = ["analyze", "-m", matrix, "--json", *counts]
            print(f"analyze {matrix} {' '.join(counts)} json {sha(cli_stdout(argv))}")
        argv = ["path", "-m", matrix, "--horizon", str(PATH_HORIZON), "--seed", "5"]
        print(f"path {matrix} csv {sha(cli_stdout(argv))}")
        forced = [*argv, "--force-scaling", "0.25,0.5", "--force-center", "0.3"]
        print(f"path {matrix} forced csv {sha(cli_stdout(forced))}")
        forced = [*argv, "--force-scaling", "0.5,0"]
        print(f"path {matrix} forced-no-center csv {sha(cli_stdout(forced))}")
    argv = ["path", "-m", "0.1,0.7,0.3,0.2", "--w0", "2.5", "--b0", "3.5",
            "--horizon", "1000", "--checkpoint-factor", "3"]
    print(f"path fractional csv {sha(cli_stdout(argv))}")


def edge_configs() -> list[EnsembleConfig]:
    toy = ReplacementMatrix(4, 5, 3, 2)
    proc = SyntheticProcess(
        big_gamma=0.75, sigma2=2.0, family=StepFamily.N_LOG_N, z0=0.25
    )
    base = dict(horizon=3000, paths=500, master_seed=20110221)
    return [
        EnsembleConfig(matrix=toy, **{**base, "horizon": 0}),
        EnsembleConfig(synthetic=proc, **{**base, "horizon": 0}),
        EnsembleConfig(matrix=toy, **{**base, "paths": 1}),
        EnsembleConfig(synthetic=proc, **{**base, "paths": 1}),
        EnsembleConfig(matrix=toy, **{**base, "paths": 2}),
        EnsembleConfig(
            matrix=ReplacementMatrix(2, 2, 1, 1), forced_scaling=(0.5, 0.0), **base
        ),
        EnsembleConfig(
            matrix=ReplacementMatrix(1, 1, 0, 3),
            forced_scaling=(0.25, 0.5),
            forced_center=0.3,
            **base,
        ),
        EnsembleConfig(
            matrix=ReplacementMatrix(1, 0, 0, 1),
            forced_scaling=(0.0, 0.0),
            forced_center=0.5,
            **base,
        ),
        EnsembleConfig(
            matrix=ReplacementMatrix(3, 1, 1, 3), checkpoint_factor=3, **base
        ),
        EnsembleConfig(matrix=ReplacementMatrix(0.1, 0.7, 0.3, 0.2), **base),
        EnsembleConfig(matrix=toy, w0=2.5, b0=3.5, **base),
        EnsembleConfig(matrix=ReplacementMatrix(3, 0, 2, 5), w0=4, b0=4, **base),
        EnsembleConfig(matrix=ReplacementMatrix(1, 6, 4, 2), **base),
        EnsembleConfig(matrix=ReplacementMatrix(2, 1, 2, 3), **base),
        EnsembleConfig(matrix=toy, w0=2.0**52, **base),
        EnsembleConfig(synthetic=proc, **base),
        EnsembleConfig(synthetic=SyntheticProcess(big_gamma=1.0, sigma2=1.0), **base),
    ]


def edge_run(label: str, cfg: EnsembleConfig) -> None:
    result = run_ensemble(cfg)
    print_ensemble(label, result)
    if cfg.matrix is not None:
        print_traces(label, result)


def edge_runs() -> None:
    for cfg in edge_configs():
        edge_run(f"edge {describe(cfg)}", cfg)
    # the same configs split into up to three chunks; the chunk shape never
    # changes the numbers, so these lines must equal the one-chunk lines
    mc = montecarlo
    saved = mc._MIN_CHUNK_PATHS, mc._MIN_CHUNK_PATH_STEPS, mc._usable_cores
    mc._MIN_CHUNK_PATHS, mc._MIN_CHUNK_PATH_STEPS, mc._usable_cores = 1, 0, lambda: 3
    try:
        for cfg in edge_configs():
            chunks = len(mc._chunk_plan(cfg.paths, cfg.horizon, 3))
            edge_run(f"edge {describe(cfg)} chunks={chunks}", cfg)
    finally:
        mc._MIN_CHUNK_PATHS, mc._MIN_CHUNK_PATH_STEPS, mc._usable_cores = saved


def main() -> None:
    edge_runs()
    gallery_runs()
    workload_runs()
    acceptance_runs()


if __name__ == "__main__":
    main()
