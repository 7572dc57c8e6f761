#!/usr/bin/env python3
"""Compare two BENCH_*.json perf trajectories record by record.

    python3 scripts/bench_diff.py OLD.json NEW.json

Records are matched by name. For each match it prints the old and new rate
(iterations_per_sec) and their ratio new/old, and flags the record when the
change |ratio - 1| is larger than 2 * max(cv_old, cv_new), the repetition
noise both files report. A record without a cv counts as noise 0, so any
change in it is flagged. Names found in only one file are listed after the
table.

Exit status: 0 when nothing is flagged, 1 when at least one record is,
2 when a file cannot be read.
"""

import json
import sys


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
        return {r["name"]: r for r in doc["records"]}
    except (OSError, ValueError, KeyError, TypeError) as e:
        sys.exit("bench_diff: cannot read %s: %s" % (path, e))


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = load(argv[1]), load(argv[2])
    common = [name for name in old if name in new]
    width = max([len(name) for name in common] + [6])
    print("%-*s %14s %14s %8s" % (width, "record", "old/s", "new/s", "ratio"))
    flagged = []
    for name in common:
        a, b = old[name], new[name]
        rate_a, rate_b = a["iterations_per_sec"], b["iterations_per_sec"]
        noise = 2.0 * max(a.get("cv", 0.0), b.get("cv", 0.0))
        if rate_a > 0:
            ratio = rate_b / rate_a
            flag = abs(ratio - 1.0) > noise
            shown = "%8.3f" % ratio
        else:
            flag = rate_b != rate_a
            shown = "%8s" % "-"
        mark = "  FLAG (noise %.3f)" % noise if flag else ""
        print("%-*s %14.6g %14.6g %s%s" % (width, name, rate_a, rate_b, shown,
                                           mark))
        if flag:
            flagged.append(name)
    for label, mine, other in (("old", old, new), ("new", new, old)):
        for name in mine:
            if name not in other:
                print("only in %s: %s" % (label, name))
    print("%d flagged of %d matched" % (len(flagged), len(common)))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
