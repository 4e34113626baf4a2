"""Run one domsat CLI command with the layer wrappers installed.

    python perfbench/traced_query.py TRACE_OUT compute --pattern ... --json

stdout and the exit code are the CLI's own; the aggregated spans are
written to TRACE_OUT as JSON.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import domsat.cli  # noqa: E402  (after the path is set)
from tracing import Tracer  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = domsat.cli.main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    Path(out).write_text(json.dumps(tracer.snapshot()))
    return code


if __name__ == "__main__":
    sys.exit(main())
