"""Run the isagram CLI under the tracer and write its spans to a file.

Usage: python3 perfbench/traced_cli.py SPANS_FILE PHASE -- isagram-args...

The import of ``isagram.cli`` is recorded as the span ``cli.import``; the
command itself runs through ``isagram.cli.main`` with every layer wrapped.
The exit code is the CLI's.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    spans_path, phase, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: traced_cli.py SPANS_FILE PHASE -- isagram-args...")
    start = time.perf_counter()
    import isagram.cli
    end = time.perf_counter()

    from tracer import Tracer

    tracer = Tracer()
    tracer.phase(phase)
    tracer.add_span("cli.import", start, end)
    tracer.install()
    try:
        return isagram.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
