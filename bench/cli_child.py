"""``python -m linkimm.cli`` with its import and run time measured.

The traced ``cli_catalog`` run starts this in place of the module.  Its
stdout and exit code are the CLI's own; the last stderr line is
``BENCH_CHILD {"import_ms": ..., "run_ms": ...}``.
"""

import json
import sys
import time

t0 = time.perf_counter()
from linkimm import cli  # noqa: E402

t1 = time.perf_counter()
try:
    code = cli.main(sys.argv[1:])
finally:
    t2 = time.perf_counter()
    sys.stdout.flush()
    timing = {"import_ms": (t1 - t0) * 1e3, "run_ms": (t2 - t1) * 1e3}
    print("BENCH_CHILD " + json.dumps(timing), file=sys.stderr)
sys.exit(code)
