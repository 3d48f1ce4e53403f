"""`python -m mdicvqkd.cli_io ARGS...` with the module boundaries traced.

    python3 perfbench/cli_traced.py SPANS_PATH ARGS...

Times the import of mdicvqkd.cli_io, installs the tracer, runs
cli_io.main(ARGS) exactly as the module's __main__ block does, and on
the way out, however main ends, writes SPANS_PATH.csv.gz and
SPANS_PATH.json (which also holds the import time).
"""

import sys
import time
from pathlib import Path

from tracer import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> None:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    from mdicvqkd import cli_io

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        code = cli_io.main(argv)
    finally:
        tracer.finish(spans_path, {"import_s": import_s})
    sys.exit(code)


if __name__ == "__main__":
    main()
