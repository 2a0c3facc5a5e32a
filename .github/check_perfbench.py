"""CI gate: a short perfbench pass must verify every operation it ran.

The workflow ran ``python3 perfbench/run.py --workload all ... --trace 1``
and saved its standard output.  perfbench checks each operation against
the reference results and the paper bands, and each traced run for
layer coverage and closure; its last stdout line is one JSON object
summing those checks.  This script fails the job unless that line says
``"correct": true`` with ``"failed": 0`` over a nonzero number of
operations.  It applies no timing gate: wall times on a shared 2-core
runner are too noisy to gate on.

    python .github/check_perfbench.py perfbench-smoke.txt
"""

import json
import sys


def main(path):
    with open(path) as handle:
        lines = [line for line in handle.read().splitlines() if line.strip()]
    if not lines:
        sys.exit(f"{path}: perfbench printed nothing")
    try:
        result = json.loads(lines[-1])
    except ValueError as error:
        sys.exit(f"{path}: last line is not the perfbench summary "
                 f"({error}): {lines[-1]!r}")
    if result.get("correct") is not True:
        sys.exit(f"perfbench reported incorrect results: {lines[-1]}")
    if result.get("failed") != 0:
        sys.exit(f"perfbench reported {result.get('failed')} failed "
                 f"operations")
    if not result.get("attempted"):
        sys.exit("perfbench attempted no operations")
    print(f"perfbench: {result['attempted']} operations checked, "
          f"0 failed")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: check_perfbench.py PERFBENCH_STDOUT")
    main(sys.argv[1])
