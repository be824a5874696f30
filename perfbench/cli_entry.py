"""Entry point of one traced ``cli`` query.

    python3 perfbench/cli_entry.py TRACE_OUT SUBCOMMAND SESSION [ARGS...]

Installs the benchmark's span wrappers, calls ``folichar.cli.main`` with the
remaining arguments, writes the spans and counts to TRACE_OUT as JSON and
exits with main's code.  folichar must be importable (PYTHONPATH=src).
"""

import json
import os
import sys

import folichar.cli  # first, so -X importtime shows the CLI's own import

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import tracing  # noqa: E402


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        code = folichar.cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
