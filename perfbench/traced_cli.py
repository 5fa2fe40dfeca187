"""Run `starvlc.cli.main` in a fresh interpreter with tracing installed.

Usage: python3 perfbench/traced_cli.py TRACE_JSON CLI_ARGS...

Needs `src` on PYTHONPATH. Writes the spans (see `tracing.Tracer.to_json`),
the in-process import time of `starvlc.cli` and the exit code to
TRACE_JSON, then exits with the CLI's exit code.
"""

import json
import sys
import time

from tracing import Tracer, install


def main(argv) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import starvlc.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    with install(tracer):
        code = tracer.wrap("cli.main", starvlc.cli.main)(cli_args)
    with open(trace_path, "w") as fh:
        json.dump({"exit": code, "import_s": import_s, "trace": tracer.to_json()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
