"""Run one ``squareop`` command with layer tracing installed.

Usage: python3 perfbench/tracewrap.py TRACE_FILE ARG...

Behaves like ``python3 -m squareop.cli ARG...`` (same stdout, stderr and
exit code, tracebacks included) and writes the tracer's tally to
TRACE_FILE as JSON.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import squareop.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return squareop.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(trace_file, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    raise SystemExit(main())
