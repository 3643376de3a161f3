"""Run one tamedeg CLI command in this process and report its timings.

    python3 bench/cliprobe.py 0|1 COMMAND [ARGS...]

Stdout is the command's own stdout.  The last line of stderr is
``BENCHPROBE {json}`` with the time of ``tamedeg.cli.main`` (main_ms),
its exit code and, when the first argument is 1, the span summary of a
tracer installed around the call.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    traced = sys.argv[1] == "1"
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import tamedeg.cli

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    try:
        code = tamedeg.cli.main(sys.argv[2:])
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    sys.stdout.flush()
    report = {"main_ms": elapsed * 1e3, "code": code,
              "summary": tracer.summary() if tracer is not None else None}
    print("BENCHPROBE " + json.dumps(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
