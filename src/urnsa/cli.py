"""Command-line front end.

Thin orchestration only; all behavior lives in the library modules.
Exit codes: 0 success, 1 usage or validation error, 2 I/O error,
3 acceptance failure (verify only).
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .errors import UrnsaError
from .montecarlo import (
    EnsembleConfig,
    analyze_dict,
    analyze_json,
    inspect_path,
    run_ensemble,
    summary_json,
    values_csv,
)
from .sa import StepFamily, SyntheticProcess
from .urn import ReplacementMatrix

# fixed so that bare invocations are reproducible; change only the flag,
# never the clock
DEFAULT_SEED = 123456789

PATH_HEADER = "n,X_n,scaled,gamma_hat_n,L_n"


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract reserves 2 for
    # I/O problems, so remap
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fraction(text: str) -> float:
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    except OverflowError as exc:
        raise argparse.ArgumentTypeError(f"too large for a double: {text!r}") from exc


def _matrix(text: str) -> ReplacementMatrix:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            "matrix must be four comma-separated entries a,b,c,d"
        )
    try:
        return ReplacementMatrix(*(_fraction(p) for p in parts))
    except UrnsaError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _scaling(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            "scaling must be two comma-separated exponents x,y"
        )
    return (_fraction(parts[0]), _fraction(parts[1]))


def _out_path(name: str) -> str:
    base = os.environ.get("URNSA_OUT_DIR")
    if base and not os.path.isabs(name):
        return os.path.join(base, name)
    return name


def _write(path: str, content: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(content)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="urnsa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_matrix(p, required=True):
        p.add_argument(
            "-m",
            "--matrix",
            type=_matrix,
            required=required,
            help="replacement matrix a,b,c,d (fractions accepted)",
        )

    def add_initial(p):
        p.add_argument("--w0", type=_fraction, default=1.0)
        p.add_argument("--b0", type=_fraction, default=1.0)

    def add_run(p, paths=True):
        p.add_argument("--horizon", type=int, default=100_000)
        if paths:
            p.add_argument("--paths", type=int, default=10_000)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument(
            "--checkpoint-factor", type=int, default=2, dest="factor"
        )

    def add_output(p):
        p.add_argument(
            "--out",
            help="output file prefix; writes <out>.json and <out>.csv",
        )
        p.add_argument(
            "--format",
            choices=("json", "csv", "both"),
            default="both",
            help="which artifacts to emit (default both)",
        )

    p = sub.add_parser("analyze", help="closed-form limit prediction")
    add_matrix(p)
    p.add_argument("--w0", type=_fraction, default=None)
    p.add_argument("--b0", type=_fraction, default=None)
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable report (default: human summary)",
    )

    p = sub.add_parser("simulate", help="Monte Carlo ensemble for an urn")
    add_matrix(p)
    add_initial(p)
    add_run(p)
    add_output(p)
    p.add_argument(
        "--force-scaling",
        type=_scaling,
        default=None,
        help="override scaling exponents x,y for regimes without one",
    )
    p.add_argument("--force-center", type=_fraction, default=None)

    p = sub.add_parser("path", help="single-path checkpoint table")
    add_matrix(p)
    add_initial(p)
    add_run(p, paths=False)
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.add_argument("--force-scaling", type=_scaling, default=None)
    p.add_argument("--force-center", type=_fraction, default=None)

    p = sub.add_parser("synthetic", help="synthetic normalized recursion")
    p.add_argument("--gamma", type=_fraction, required=True)
    p.add_argument("--sigma2", type=_fraction, required=True)
    p.add_argument(
        "--step-family",
        choices=tuple(f.value for f in StepFamily),
        default="n",
        dest="family",
    )
    p.add_argument("--z0", type=_fraction, default=0.0)
    add_run(p)
    add_output(p)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--suite", choices=("quick", "full"), default="quick")

    return parser


def _cmd_analyze(args) -> int:
    if args.json:
        sys.stdout.write(analyze_json(args.matrix, args.w0, args.b0))
        return 0
    doc = analyze_dict(args.matrix, args.w0, args.b0)
    pred = doc["prediction"]
    drift = doc["drift"]
    print(
        "drift f(x) = "
        f"{drift['quad']:g} x^2 + {drift['lin']:g} x + {drift['const']:g}"
    )
    print(f"regime: {pred['regime']}")
    for key in ("p", "gamma", "h_p", "gamma_hat", "sigma2"):
        if pred[key] is not None:
            print(f"{key}: {pred[key]:.12g}")
    if pred["predicted_variance"] is not None:
        print(f"predicted variance: {pred['predicted_variance']:.12g}")
    if pred["as_exponent"] is not None:
        print(f"a.s. limit exponent: {pred['as_exponent']:.12g}")
    if pred["reference_scaled_mean"] is not None:
        print(f"reference scaled mean: {pred['reference_scaled_mean']:.12g}")
    if pred["roots"]:
        roots = ", ".join(
            f"{r['value']:.12g} ({r['stability']})" for r in pred["roots"]
        )
        print(f"drift roots: {roots}")
    return 0


def _emit(args, result) -> int:
    json_text = summary_json(result)
    csv_text = values_csv(result)
    if args.out:
        prefix = _out_path(args.out)
        if args.format in ("json", "both"):
            _write(prefix + ".json", json_text)
        if args.format in ("csv", "both"):
            _write(prefix + ".csv", csv_text)
        return 0
    if args.format == "csv":
        sys.stdout.write(csv_text)
    else:
        sys.stdout.write(json_text)
    return 0


def _urn_config(args, paths: int) -> EnsembleConfig:
    return EnsembleConfig(
        matrix=args.matrix, w0=args.w0, b0=args.b0, horizon=args.horizon,
        paths=paths, master_seed=args.seed, checkpoint_factor=args.factor,
        forced_scaling=args.force_scaling, forced_center=args.force_center,
    )


def _cmd_simulate(args) -> int:
    return _emit(args, run_ensemble(_urn_config(args, args.paths)))


def _cmd_synthetic(args) -> int:
    proc = SyntheticProcess(
        big_gamma=args.gamma,
        sigma2=args.sigma2,
        family=StepFamily(args.family),
        z0=args.z0,
    )
    cfg = EnsembleConfig(
        synthetic=proc,
        horizon=args.horizon,
        paths=args.paths,
        master_seed=args.seed,
        checkpoint_factor=args.factor,
    )
    return _emit(args, run_ensemble(cfg))


def _cmd_path(args) -> int:
    _, rows = inspect_path(_urn_config(args, paths=1))
    lines = [PATH_HEADER]
    for r in rows:
        gh = "" if r.gamma_hat_n is None else repr(r.gamma_hat_n)
        env = "" if r.envelope_ratio is None else repr(r.envelope_ratio)
        lines.append(f"{r.n},{r.x!r},{r.scaled!r},{gh},{env}")
    text = "\n".join(lines) + "\n"
    if args.out:
        _write(_out_path(args.out), text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    # imported here, so that no other command pays for compiling it
    from . import acceptance

    results = acceptance.run_suite(args.suite)
    return 0 if all(r.passed for r in results) else 3


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "analyze": _cmd_analyze,
        "simulate": _cmd_simulate,
        "path": _cmd_path,
        "synthetic": _cmd_synthetic,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except UrnsaError as exc:
        print(f"urnsa: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"urnsa: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
