#!/usr/bin/env python3
"""Smoke test of scripts/bench_diff.py on a committed trajectory.

    python3 scripts/bench_diff_smoke.py BENCH_micro.json

The file against itself must flag nothing. A copy with one record's rate
raised by 50% must flag exactly that record, and a copy with one record
removed must list it as found only in the old file.
"""

import json
import os
import subprocess
import sys
import tempfile

DIFF = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "bench_diff.py")


def run(old, new):
    proc = subprocess.run([sys.executable, DIFF, old, new],
                          stdout=subprocess.PIPE, universal_newlines=True)
    return proc.returncode, proc.stdout


def fail(message, output):
    sys.stderr.write(output)
    sys.exit("bench_diff_smoke: " + message)


def main():
    path = sys.argv[1]
    with open(path) as f:
        doc = json.load(f)
    records = doc["records"]
    if len(records) < 2:
        sys.exit("bench_diff_smoke: %s has fewer than 2 records" % path)

    code, out = run(path, path)
    if code != 0 or "FLAG" in out or "only in" in out:
        fail("a file against itself must flag nothing", out)

    # The record with the largest cv: 50% is still beyond its noise unless
    # the file's noise is itself that large.
    target = max(records, key=lambda r: r.get("cv", 0.0))
    if 2.0 * target.get("cv", 0.0) >= 0.5:
        sys.exit("bench_diff_smoke: cv of %s too large to test" %
                 target["name"])
    target["iterations_per_sec"] *= 1.5
    dropped = next(r for r in reversed(records) if r is not target)
    records.remove(dropped)
    with tempfile.TemporaryDirectory() as tmp:
        perturbed = os.path.join(tmp, "perturbed.json")
        with open(perturbed, "w") as f:
            json.dump(doc, f)
        code, out = run(path, perturbed)
    flags = [line.split()[0] for line in out.splitlines() if "FLAG" in line]
    if code != 1 or flags != [target["name"]]:
        fail("expected exactly one flag, on %s" % target["name"], out)
    if "only in old: %s" % dropped["name"] not in out:
        fail("expected %s listed as only in old" % dropped["name"], out)
    print("bench_diff_smoke: ok (%s flagged, %s unmatched)" %
          (target["name"], dropped["name"]))


if __name__ == "__main__":
    main()
