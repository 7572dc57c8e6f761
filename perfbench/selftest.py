#!/usr/bin/env python3
"""Self-test of the htdp benchmark.

    python3 perfbench/selftest.py [--seconds 2]

For every workload it makes a short untraced and a short traced run and
checks that each metric BENCHMARK.json names is printed under its exact
name and unit. Then it checks that the output correctness gate fails the
run (non-zero exit, no result line) when one result's w is corrupted and
when one request is refused. Takes about a minute on a 4-core box.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fit_batch", "serve_small", "serve_tenants")


def run(workload, seconds, trace, inject=""):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", "1",
               "--seconds", str(seconds), "--trace", str(trace)]
    if inject:
        command += ["--inject", inject]
    return subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)


def result_line(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}

    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = run(workload, args.seconds, trace)
            result = result_line(done.stdout)
            where = "%s trace=%d" % (workload, trace)
            if done.returncode != 0 or result is None:
                problems.append("%s: exit %d, no result\n%s"
                                % (where, done.returncode, done.stderr[-2000:]))
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: gate reported failures" % where)
            printed = result["metrics"]
            names = {m["name"] for m in expected[trace]}
            if set(printed) != names:
                problems.append("%s: metrics %s differ from BENCHMARK.json"
                                % (where, sorted(set(printed) ^ names)))
            for metric in expected[trace]:
                got = printed.get(metric["name"])
                if got is None:
                    continue
                if got["unit"] != metric["unit"]:
                    problems.append("%s: %s has unit %s, want %s"
                                    % (where, metric["name"], got["unit"],
                                       metric["unit"]))
                line = "%s = " % metric["name"]
                if not any(l.startswith(line) and l.endswith(" " + metric["unit"])
                           for l in done.stdout.splitlines()):
                    problems.append("%s: no report line for %s"
                                    % (where, metric["name"]))
            print("ok   %s" % where, flush=True)

        for inject in ("corrupt_w", "refuse"):
            done = run(workload, args.seconds, 0, inject)
            where = "%s --inject %s" % (workload, inject)
            if done.returncode == 0 or result_line(done.stdout) is not None:
                problems.append("%s: the gate did not fail the run" % where)
            elif "correctness gate failed" not in done.stderr:
                problems.append("%s: failed for another reason:\n%s"
                                % (where, done.stderr[-2000:]))
            else:
                print("ok   %s fails the gate" % where, flush=True)

    for problem in problems:
        print("FAIL " + problem)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
