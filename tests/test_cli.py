"""End-to-end tests for the command-line interface.

Invocations go through cli.main in-process so exit codes, stdout,
stderr, and file outputs are exercised exactly as a shell user sees
them; subprocess smoke tests cover the entry points declared in
pyproject.toml, plus the installed console script when one is present.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10; pytest depends on tomli there
    import tomli as tomllib

import urnsa
from test_montecarlo import ANALYZE_SCHEMA, SUMMARY_SCHEMA
from urnsa import cli, montecarlo
from urnsa.acceptance import CriterionResult
from urnsa.montecarlo import (
    EnsembleConfig,
    analyze_json,
    inspect_path,
    run_ensemble,
    summary_json,
    values_csv,
)
from urnsa.sa import StepFamily, SyntheticProcess
from urnsa.urn import ReplacementMatrix


def run_cli(capsys, *args: str) -> tuple[int, str, str]:
    code = cli.main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def usage_error(capsys, *args: str) -> str:
    """Run argv expected to die in argument parsing; return stderr."""
    with pytest.raises(SystemExit) as excinfo:
        cli.main(list(args))
    assert excinfo.value.code == 1
    return capsys.readouterr().err


class TestUsageErrors:
    """Argument problems exit 1 (never argparse's default 2)."""

    def test_no_arguments(self, capsys):
        usage_error(capsys)

    def test_unknown_command(self, capsys):
        usage_error(capsys, "frobnicate")

    def test_matrix_wrong_arity(self, capsys):
        err = usage_error(capsys, "analyze", "-m", "1,2,3")
        assert "four comma-separated" in err

    def test_matrix_not_numeric(self, capsys):
        err = usage_error(capsys, "analyze", "--matrix=a,b,c,d")
        assert "not a number" in err

    def test_matrix_invalid_entries(self, capsys):
        usage_error(capsys, "analyze", "--matrix=-1,2,3,4")

    def test_missing_matrix(self, capsys):
        usage_error(capsys, "analyze")

    def test_bad_scaling(self, capsys):
        err = usage_error(
            capsys, "simulate", "-m", "4,5,3,2", "--force-scaling", "1"
        )
        assert "two comma-separated" in err

    def test_bad_step_family(self, capsys):
        usage_error(
            capsys,
            "synthetic",
            "--gamma",
            "1",
            "--sigma2",
            "1",
            "--step-family",
            "weird",
        )

    def test_missing_gamma(self, capsys):
        usage_error(capsys, "synthetic", "--sigma2", "1")

    def test_bad_suite(self, capsys):
        usage_error(capsys, "verify", "--suite", "medium")

    def test_non_integer_horizon(self, capsys):
        usage_error(capsys, "simulate", "-m", "4,5,3,2", "--horizon", "ten")

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "-m", "1e400,1,1,1"),
            ("simulate", "-m", "4,5,3,2", "--w0", "1e400"),
            ("synthetic", "--gamma", "1e400", "--sigma2", "1"),
            ("synthetic", "--gamma", "1", "--sigma2", "1", "--z0", "1e400"),
            ("simulate", "-m", "4,5,3,2", "--force-center", "1e400"),
        ],
        ids=["-m", "--w0", "--gamma", "--z0", "--force-center"],
    )
    def test_number_too_large_for_a_double(self, capsys, argv):
        err = usage_error(capsys, *argv)
        assert "error:" in err and "too large for a double" in err
        assert "Traceback" not in err


class TestAnalyze:
    def test_toy_human_report(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "-m", "4,5,3,2")
        assert code == 0
        assert err == ""
        assert out == (
            "drift f(x) = -4 x^2 + -4 x + 3\n"
            "regime: CLT_SQRT_N\n"
            "p: 0.5\n"
            "gamma: 0.142857142857\n"
            "h_p: 8\n"
            "gamma_hat: 1.14285714286\n"
            "sigma2: 0.00510204081633\n"
            "predicted variance: 0.00396825396825\n"
            "drift roots: -1.5 (unstable), 0.5 (stable)\n"
        )

    def test_critical_human_report(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "-m", "3,1,1,3")
        assert code == 0
        assert "regime: CLT_SQRT_N_OVER_LOG\n" in out
        assert "gamma_hat: 0.5\n" in out
        assert "predicted variance: 0.0625\n" in out
        assert "drift roots: 0.5 (stable)\n" in out

    def test_zero_drift_human_report(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "-m", "1,0,0,1")
        assert code == 0
        assert out == (
            "drift f(x) = 0 x^2 + 0 x + 0\nregime: ZERO_DRIFT_BETA\n"
        )

    def test_power_law_human_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "-m", "3,0,2,5", "--w0", "4", "--b0", "4"
        )
        assert code == 0
        assert "regime: AS_POWER_LAW\n" in out
        assert "a.s. limit exponent: 0.4\n" in out
        assert "reference scaled mean: 1.30078594535\n" in out
        assert "predicted variance" not in out

    def test_reference_mean_needs_both_counts(self, capsys):
        for extra in ([], ["--w0", "4"], ["--b0", "4"]):
            _, out, _ = run_cli(capsys, "analyze", "-m", "3,0,2,5", *extra)
            assert "reference scaled mean" not in out

    def test_singular_regime(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "-m", "2,2,1,1")
        assert code == 0
        assert "regime: SINGULAR_MONOTONE\n" in out
        assert "sigma2: 0\n" in out
        assert "drift roots" not in out

    def test_extreme_entry_scales(self, capsys):
        huge, tiny = "4e170,5e170,3e170,2e170", "4e-320,5e-320,3e-320,2e-320"
        code, out, err = run_cli(capsys, "analyze", "-m", huge)
        assert (code, err) == (0, "")
        assert "regime: CLT_SQRT_N\n" in out
        assert "predicted variance: 0.00396825396825\n" in out
        code, out, err = run_cli(capsys, "analyze", "-m", tiny)
        assert (code, out) == (1, "")
        assert "is not a finite double" in err

    def test_not_applicable_regime(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "-m", "1,1,0,3")
        assert code == 0
        assert "regime: NOT_APPLICABLE\n" in out
        assert "drift roots: 0 (stable), 2 (unstable)\n" in out

    def test_json_matches_library_and_schema(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "analyze",
            "-m",
            "3,0,2,5",
            "--w0",
            "4",
            "--b0",
            "4",
            "--json",
        )
        assert code == 0
        # the CLI parses entries as floats, so mirror that exactly
        assert out == analyze_json(
            ReplacementMatrix(3.0, 0.0, 2.0, 5.0), 4.0, 4.0
        )
        assert out.endswith("\n")
        jsonschema.validate(json.loads(out), ANALYZE_SCHEMA)

    def test_fraction_entries_equal_decimal(self, capsys):
        _, decimal_out, _ = run_cli(capsys, "analyze", "-m", "4,5,3,2")
        _, fraction_out, _ = run_cli(capsys, "analyze", "-m", "8/2,5,3,2")
        assert fraction_out == decimal_out


SIM_ARGS = (
    "simulate",
    "-m",
    "4,5,3,2",
    "--horizon",
    "200",
    "--paths",
    "23",
    "--seed",
    "5",
    "--checkpoint-factor",
    "4",
)


def sim_config() -> EnsembleConfig:
    # float entries mirror the CLI's matrix parsing
    return EnsembleConfig(
        matrix=ReplacementMatrix(4.0, 5.0, 3.0, 2.0),
        w0=1.0,
        b0=1.0,
        horizon=200,
        paths=23,
        master_seed=5,
        checkpoint_factor=4,
    )


class TestSimulate:
    def test_stdout_json_default(self, capsys):
        code, out, err = run_cli(capsys, *SIM_ARGS)
        assert code == 0
        assert err == ""
        assert out == summary_json(run_ensemble(sim_config()))
        jsonschema.validate(json.loads(out), SUMMARY_SCHEMA)

    def test_stdout_csv(self, capsys):
        code, out, _ = run_cli(capsys, *SIM_ARGS, "--format", "csv")
        assert code == 0
        assert out == values_csv(run_ensemble(sim_config()))

    def test_out_writes_both_files(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("URNSA_OUT_DIR", str(tmp_path))
        code, out, _ = run_cli(capsys, *SIM_ARGS, "--out", "run")
        assert code == 0
        assert out == ""
        res = run_ensemble(sim_config())
        assert (tmp_path / "run.json").read_text() == summary_json(res)
        assert (tmp_path / "run.csv").read_text() == values_csv(res)

    def test_format_selects_files(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("URNSA_OUT_DIR", str(tmp_path))
        run_cli(capsys, *SIM_ARGS, "--out", "only_json", "--format", "json")
        assert (tmp_path / "only_json.json").exists()
        assert not (tmp_path / "only_json.csv").exists()
        run_cli(capsys, *SIM_ARGS, "--out", "only_csv", "--format", "csv")
        assert (tmp_path / "only_csv.csv").exists()
        assert not (tmp_path / "only_csv.json").exists()

    def test_absolute_out_ignores_env(self, tmp_path, monkeypatch, capsys):
        env_dir = tmp_path / "env"
        abs_dir = tmp_path / "abs"
        env_dir.mkdir()
        abs_dir.mkdir()
        monkeypatch.setenv("URNSA_OUT_DIR", str(env_dir))
        code, _, _ = run_cli(
            capsys, *SIM_ARGS, "--out", str(abs_dir / "run")
        )
        assert code == 0
        assert (abs_dir / "run.json").exists()
        assert list(env_dir.iterdir()) == []

    def test_missing_directory_exit_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "run"
        code, _, err = run_cli(capsys, *SIM_ARGS, "--out", str(target))
        assert code == 2
        assert "i/o error" in err

    def test_unscaled_regime_exit_1(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "-m", "1,1,0,3", "--horizon", "10"
        )
        assert code == 1
        assert err.startswith("urnsa:")

    def test_invalid_paths_exit_1(self, capsys):
        code, _, err = run_cli(capsys, *SIM_ARGS, "--paths", "0")
        assert code == 1
        assert err.startswith("urnsa:")

    def test_paths_beyond_memory_exit_1(self, capsys, monkeypatch):
        def forbidden(config):
            raise AssertionError("a refused config reached run_ensemble")

        monkeypatch.setattr(cli, "run_ensemble", forbidden)
        code, out, err = run_cli(capsys, *SIM_ARGS, "--paths", str(10**13))
        assert code == 1
        assert out == ""
        assert err.startswith("urnsa:")
        assert "physical memory" in err

    def test_forced_scaling_singular(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "-m",
            "2,2,1,1",
            "--horizon",
            "50",
            "--paths",
            "4",
            "--force-scaling",
            "0,0",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["forced_scaling"] == [0.0, 0.0]
        assert doc["prediction"]["regime"] == "SINGULAR_MONOTONE"

    def test_thread_determinism_files(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("URNSA_OUT_DIR", str(tmp_path))
        # 23 paths run as one chunk; force one chunk per core
        monkeypatch.setattr(montecarlo, "_MIN_CHUNK_PATHS", 1)
        monkeypatch.setattr(montecarlo, "_MIN_CHUNK_PATH_STEPS", 0)
        assert len(montecarlo._chunk_plan(23, 200, 3)) > 1
        for cores in (1, 3):
            monkeypatch.setattr(montecarlo, "_usable_cores", lambda: cores)
            run_cli(capsys, *SIM_ARGS, "--out", f"t{cores}")
        for ext in (".json", ".csv"):
            assert (tmp_path / f"t1{ext}").read_bytes() == (
                tmp_path / f"t3{ext}"
            ).read_bytes()

    def test_threads_option_is_gone(self, capsys):
        err = usage_error(capsys, *SIM_ARGS, "--threads", "2")
        assert "unrecognized arguments: --threads 2" in err

    def test_seed_changes_output(self, capsys):
        base = list(SIM_ARGS)
        reseeded = base[: base.index("--seed") + 1] + ["6"]
        _, out_a, _ = run_cli(capsys, *base, "--format", "csv")
        _, out_b, _ = run_cli(capsys, *reseeded, "--format", "csv")
        assert out_a != out_b


def parse_path_table(text: str) -> list[list[str]]:
    lines = text.splitlines()
    assert lines[0] == cli.PATH_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert all(len(r) == 5 for r in rows)
    return rows


class TestPath:
    def test_table_matches_library(self, capsys):
        code, out, _ = run_cli(
            capsys, "path", "-m", "4,5,3,2", "--horizon", "16", "--seed", "5"
        )
        assert code == 0
        assert out.endswith("\n")
        table = parse_path_table(out)
        _, rows = inspect_path(
            EnsembleConfig(
                matrix=ReplacementMatrix(4, 5, 3, 2), horizon=16, paths=1,
                master_seed=5,
            )
        )
        assert [int(r[0]) for r in table] == [row.n for row in rows]
        assert [int(r[0]) for r in table] == [1, 2, 4, 8, 16]
        for fields, row in zip(table, rows):
            # repr round-trips floats exactly
            assert float(fields[1]) == row.x
            assert float(fields[2]) == row.scaled
            assert float(fields[3]) == row.gamma_hat_n
            assert float(fields[4]) == row.envelope_ratio

    def test_zero_horizon_single_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "path", "-m", "4,5,3,2", "--horizon", "0"
        )
        assert code == 0
        table = parse_path_table(out)
        assert len(table) == 1
        assert table[0][0] == "0"

    def test_invalid_counts_exit_1(self, capsys):
        code, out, err = run_cli(
            capsys, "path", "-m", "4,5,3,2", "--w0", "0", "--horizon", "4"
        )
        assert code == 1
        assert out == ""
        assert "initial counts must be positive" in err

    def test_paths_option_is_gone(self, capsys):
        # the table is always path 0's; a path count would be ignored
        err = usage_error(capsys, "path", "-m", "4,5,3,2", "--paths", "3")
        assert "unrecognized arguments: --paths 3" in err

    def test_out_file_equals_stdout(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("URNSA_OUT_DIR", str(tmp_path))
        args = ("path", "-m", "3,1,1,3", "--horizon", "32", "--seed", "9")
        code, _, _ = run_cli(capsys, *args, "--out", "table.csv")
        assert code == 0
        _, out, _ = run_cli(capsys, *args)
        assert (tmp_path / "table.csv").read_text() == out

    def test_zero_drift_blank_rate_column(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "path",
            "-m",
            "1,0,0,1",
            "--horizon",
            "8",
            "--force-scaling",
            "0,0",
            "--force-center",
            "0",
        )
        assert code == 0
        for fields in parse_path_table(out):
            assert fields[3] == ""
            assert float(fields[2]) == float(fields[1])


class TestSynthetic:
    def test_stdout_matches_library(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "synthetic",
            "--gamma",
            "3/4",
            "--sigma2",
            "2",
            "--step-family",
            "nlogn",
            "--z0",
            "1/4",
            "--horizon",
            "300",
            "--paths",
            "5",
            "--seed",
            "99",
        )
        assert code == 0
        cfg = EnsembleConfig(
            synthetic=SyntheticProcess(
                big_gamma=0.75,
                sigma2=2.0,
                family=StepFamily.N_LOG_N,
                z0=0.25,
            ),
            horizon=300,
            paths=5,
            master_seed=99,
        )
        assert out == summary_json(run_ensemble(cfg))
        doc = json.loads(out)
        assert doc["prediction"]["regime"] == "SYNTHETIC"
        assert doc["config"]["synthetic"]["big_gamma"] == 0.75

    def test_default_family(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "synthetic",
            "--gamma",
            "1",
            "--sigma2",
            "1",
            "--horizon",
            "50",
            "--paths",
            "3",
        )
        assert code == 0
        assert json.loads(out)["config"]["synthetic"]["family"] == "n"

    def test_invalid_sigma2_exit_1(self, capsys):
        code, _, err = run_cli(
            capsys, "synthetic", "--gamma", "1", "--sigma2", "-1"
        )
        assert code == 1
        assert err.startswith("urnsa:")


class TestVerify:
    def test_quick_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "quick")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("PASS [7] exact_invariants:")
        assert lines[1].startswith("PASS [9] determinism:")

    def test_quick_suite_times_each_criterion(self, capsys):
        """Each criterion's wall seconds go to stderr, beside its verdict."""
        code, out, err = run_cli(capsys, "verify", "--suite", "quick")
        assert code == 0
        assert len(out.splitlines()) == 2
        lines = err.splitlines()
        assert len(lines) == 2
        for line, name in zip(lines, ("[7] exact_invariants", "[9] determinism")):
            assert re.fullmatch(rf"{re.escape(name)}: \d+\.\d s", line), line

    def test_suite_argument_passthrough(self, capsys, monkeypatch):
        seen: list[str] = []

        def fake_run_suite(suite):
            seen.append(suite)
            return [CriterionResult(1, "stub", True, "ok")]

        monkeypatch.setattr(cli.acceptance, "run_suite", fake_run_suite)
        assert run_cli(capsys, "verify")[0] == 0
        assert run_cli(capsys, "verify", "--suite", "full")[0] == 0
        assert seen == ["quick", "full"]

    def test_failure_exit_3(self, capsys, monkeypatch):
        results = [
            CriterionResult(1, "good", True, "ok"),
            CriterionResult(2, "bad", False, "off"),
        ]
        monkeypatch.setattr(
            cli.acceptance, "run_suite", lambda suite: results
        )
        assert run_cli(capsys, "verify")[0] == 3


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def child_env() -> dict[str, str]:
    """Environment whose PYTHONPATH resolves ``urnsa`` to the package
    this test process imported, whatever the child's working directory
    or any other installed copy."""
    env = dict(os.environ)
    src = str(Path(urnsa.__file__).resolve().parent.parent)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + rest if rest else "")
    return env


class TestEntryPoints:
    def test_python_module(self):
        proc = subprocess.run(
            [sys.executable, "-m", "urnsa.cli", "analyze", "-m", "3,1,1,3"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert "regime: CLT_SQRT_N_OVER_LOG" in proc.stdout

    def test_console_script(self):
        # Launch the declared [project.scripts] target the way the
        # setuptools console-script wrapper does, so no install is needed.
        with PYPROJECT.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["urnsa"]
        module, func = target.split(":")
        launcher = (
            f"import sys; from {module} import {func}; "
            f"sys.argv[0] = 'urnsa'; sys.exit({func}())"
        )
        proc = subprocess.run(
            [sys.executable, "-c", launcher, "analyze", "-m", "1,2,3"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 1
        assert "four comma-separated" in proc.stderr

    def test_import_starts_no_pool_machinery(self):
        """Importing the CLI loads neither multiprocessing nor
        concurrent.futures, whose import time every command would pay."""
        proc = subprocess.run(
            [
                sys.executable, "-c",
                "import sys, urnsa.cli; print(sorted({'multiprocessing',"
                " 'concurrent.futures'} & set(sys.modules)))",
            ],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    @pytest.mark.skipif(
        shutil.which("urnsa") is None,
        reason="urnsa console script not installed",
    )
    def test_installed_console_script(self):
        proc = subprocess.run(
            [shutil.which("urnsa"), "analyze", "-m", "1,2,3"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 1
        assert "four comma-separated" in proc.stderr
