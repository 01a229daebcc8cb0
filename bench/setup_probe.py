"""One set-up sample: import the CLI in a fresh interpreter and run one op.

Usage: ``python3 setup_probe.py SRC_DIR CALLS_JSON`` where CALLS_JSON is a
list of CLI argument vectors.  Prints one JSON line, with the op's exit
codes, when the op is done; the parent times the interpreter from spawn to
that line.  The op's outputs are checked in the parent's own warm-up.
"""

import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout


def main() -> int:
    src, calls = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    start = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.optimize  # noqa: F401

    deps = time.perf_counter()
    import pseudospin.cli

    imported = time.perf_counter()
    codes = []
    for argv in calls:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            codes.append(pseudospin.cli.main(argv))
    print(json.dumps({
        "import_scipy_s": deps - start,
        "import_s": imported - start,
        "warmup_s": time.perf_counter() - imported,
        "codes": codes,
    }), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
