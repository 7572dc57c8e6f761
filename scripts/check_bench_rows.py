#!/usr/bin/env python3
"""Check that a committed trajectory has no rows of deleted benchmarks.

    python3 scripts/check_bench_rows.py BENCH_micro.json path/to/bench_micro

Every record name in the JSON file must be one that the binary still
registers (`bench_micro --benchmark_list_tests`). A deleted or renamed
benchmark whose rows were left behind fails the check, naming the rows.
"""

import json
import subprocess
import sys


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip())
    path, binary = sys.argv[1], sys.argv[2]
    with open(path) as f:
        names = [r["name"] for r in json.load(f)["records"]]
    listed = subprocess.run([binary, "--benchmark_list_tests"],
                            stdout=subprocess.PIPE, universal_newlines=True,
                            check=True).stdout.split()
    stale = [name for name in names if name not in set(listed)]
    for name in stale:
        print("stale row in %s: %s (no such benchmark)" % (path, name))
    if stale:
        sys.exit(1)
    print("check_bench_rows: all %d rows of %s are registered" %
          (len(names), path))


if __name__ == "__main__":
    main()
