"""Time one set-up: import isagram, then ingest a jsonl corpus.

Usage: python3 perfbench/setup_probe.py CORPUS.jsonl

Prints one JSON line with the seconds taken and the document count.  Run in
a fresh interpreter each time, so the import is never already cached.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    start = time.perf_counter()
    from isagram import corpus

    documents = len(corpus.ingest(sys.argv[1], "jsonl"))
    print(json.dumps({"setup_s": time.perf_counter() - start, "documents": documents}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
