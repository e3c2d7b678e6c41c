"""Record the golden answers that ``checks.py`` compares against.

    python3 bench/record_golden.py

Runs every family operation of every workload once, and the random sets a
60-second run draws for the golden seed, and writes the named fields of
each report to ``bench/golden.json``.  Record only at a commit whose answers
are known to be right: every later run is judged against this file.
"""

from __future__ import annotations

import io
import json
import shutil
import sys
from contextlib import redirect_stdout

import checks
import run
import workloads

RECORD_SECONDS = 60


def main() -> int:
    cli = run.import_package()
    golden = {}
    workdir = run.WORK_ROOT / "golden"
    try:
        for name in [*workloads.WORKLOADS, "smoke"]:
            pass_s = workloads.WORKLOADS.get(name, RECORD_SECONDS)
            passes = max(1, int(RECORD_SECONDS // pass_s))
            for batch in workloads.build(name, workloads.GOLDEN_SEED, passes, workdir / name):
                for op in batch:
                    if op.golden_key is None or op.golden_key in golden:
                        continue
                    out = io.StringIO()
                    with redirect_stdout(out):
                        returncode = cli.main(list(op.argv))
                    if returncode != 0:
                        print(f"{' '.join(op.argv)}: exit code {returncode}", file=sys.stderr)
                        return 1
                    problems = checks.check_op(op, returncode, out.getvalue(), {})
                    if problems:
                        print(f"{' '.join(op.argv)}: {'; '.join(problems)}", file=sys.stderr)
                        return 1
                    golden[op.golden_key] = checks.golden_fields(json.loads(out.getvalue()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(checks.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(golden)} operations in {checks.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
