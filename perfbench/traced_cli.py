"""Run one ``pimub`` CLI command with the span tracer installed.

Usage: python3 traced_cli.py SPANS_OUT OP_ID -- <pimub arguments>

Writes the spans of the command, plus the moment the interpreter had
imported pimub (``ready``, on the system-wide monotonic clock that
``time.perf_counter`` reads), to SPANS_OUT as JSON and exits with the
command's exit code.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pimub.cli  # noqa: E402
from tracing import Tracer  # noqa: E402


def main() -> int:
    ready = time.perf_counter()
    spans_out, op, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_OUT OP_ID -- <pimub arguments>")
    tracer = Tracer()
    tracer.install()
    tracer.op = op
    try:
        # the whole of cli.main, named after the subcommand it ran
        with tracer.span(f"cli.{argv[0]}"):
            code = pimub.cli.main(argv)
    finally:
        tracer.op = None
        tracer.uninstall()
        Path(spans_out).write_text(json.dumps({"ready": ready, **tracer.to_json()}))
    return code


if __name__ == "__main__":
    sys.exit(main())
