"""Run one coincalc CLI call with every traced function wrapped.

    python3 perfbench/traced_cli.py ARGV...

Behaves like `python -m coincalc.cli ARGV` (same output and exit code) and
adds to stderr one line starting with TRACE_MARK followed by the tracer's
summary as JSON, written when the call ends.
"""

from __future__ import annotations

import json
import os
import sys

TRACE_MARK = "@@perfbench-trace "


def main() -> None:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import coincalc.cli
    from tracer import Tracer

    tracer = Tracer(span_cap=20_000)
    tracer.install()
    try:
        code = coincalc.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        sys.stderr.write(TRACE_MARK + json.dumps(tracer.summary()) + "\n")
    sys.exit(code)


if __name__ == "__main__":
    main()
