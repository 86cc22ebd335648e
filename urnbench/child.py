"""One benchmark operation: a fresh process that runs one urnsa command.

Usage: child.py plain|traced <urnsa argv...>

The process imports urnsa from the directory named by URNBENCH_SRC, parses
the command with the CLI's own parser and prints "ready"; the benchmark
takes the time to that line as set-up.  It then runs urnsa.cli.main(argv)
and prints, as its last line, a JSON record with the exit code, the
command's wall time, the import time, the process's peak resident set and,
when traced, the spans recorded around urnsa's layers.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    mode, argv = sys.argv[1], sys.argv[2:]
    import urnsa.cli as cli

    import_s = time.perf_counter() - _T0
    src = os.path.realpath(os.environ["URNBENCH_SRC"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"urnsa imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3
    build_parser = getattr(cli, "build_parser", None)
    if build_parser is not None:
        build_parser().parse_args(argv)
    print("ready", flush=True)

    record: dict = {"import_s": import_s}
    if mode == "traced":
        from spans import MAIN, Tracer

        tracer = Tracer()
        record["missing"] = tracer.install()
        start = time.perf_counter()
        rc = tracer.span(MAIN, cli.main, argv)
        record["wall_s"] = time.perf_counter() - start
        record["spans"] = tracer.spans
    else:
        start = time.perf_counter()
        rc = cli.main(argv)
        record["wall_s"] = time.perf_counter() - start
    record["rc"] = rc
    record["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
