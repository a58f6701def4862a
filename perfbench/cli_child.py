"""`python -m ldcs.cli ARGS`, with the import and `main` timed inside the process.

    python3 perfbench/cli_child.py eval -k fixtures/demo.tsv --json EXPR

Needs `src` on PYTHONPATH. The program's output and exit code are its own;
the last line of standard error is {"import_ms": ..., "main_ms": ...}.
"""

import sys
from time import perf_counter

start = perf_counter()
import ldcs.cli  # noqa: E402

imported = perf_counter()
code = ldcs.cli.main(sys.argv[1:])
done = perf_counter()
sys.stdout.flush()

import json  # noqa: E402

print(json.dumps({"import_ms": (imported - start) * 1e3, "main_ms": (done - imported) * 1e3}),
      file=sys.stderr)
sys.exit(code)
