#!/usr/bin/env python3
"""The htdp end-to-end benchmark.

    python3 perfbench/run.py --workload fit_batch|serve_small|serve_tenants \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds the library, the shipped
htdpd daemon and the load generator (perfbench/src) into .bench_build/,
runs one workload, checks the outputs, and prints a human-readable report
followed by one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics (tracing off everywhere);
--trace 1 reports the per-layer metrics from a traced run. Throughput
and serving latency are taken over the least disturbed tenth of a run
(see quietest()); the latency tail (p90 on fit_batch, open-loop p99 on
the serving workloads) is printed as a note, without a bound. A run that
fails the output correctness gate, or whose open-loop generator fell
behind its schedule, exits non-zero without a result line.

Workloads (each one seed-generated; the program sees only the inputs):
  fit_batch      in-process closed loop, one caller running Solver::TryFit
                 with the ParallelFor pool, over alg1 (linear, logistic),
                 alg2, alg3 and alg5 problems at d = 400, n = 1e4..2e4.
                 Exercises the Catoni kernel, solvers and DP mechanisms.
  serve_small    htdpd with default options; the pinned n=400, d=10, T=5
                 alg1 fit of BM_DaemonRoundTrip. Open-loop Poisson phase at
                 a fixed rate (see RATES), then a closed-loop capacity phase
                 with nproc connections. Exercises codec, event loop and
                 engine queue.
  serve_tenants  htdpd --state-dir with --fsync=always and 16 tenants,
                 Zipf-skewed; one in ten requests is a medium
                 fit (n=8000, d=64, T=4, ~4 MB SUBMIT), plus BUDGET/STATS
                 reads at 20 Hz.
                 Exercises the ledger journal, large frames, tenant
                 placement and the shared worker pool.

A run sets up several times, each time right before an equal share of the
run (on the serving workloads every set-up starts its own daemon), and
reports the median set-up time. perfbench/selftest.py checks the benchmark
itself.
"""

import argparse
import bisect
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
WORK = os.path.join(ROOT, ".bench_build", "work")

# Open-loop offered rates, requests/s. A 4-core x86-64 VM measured a
# closed-loop capacity of ~9000 (serve_small) and ~850 (serve_tenants)
# fits/s, and a quarter to a half of that for hours while its host was
# busy; the rates stay under half of the slowest figures, so that a run is
# valid in every state the box was seen in.
RATES = {"fit_batch": 0.0, "serve_small": 1000.0, "serve_tenants": 100.0}

# Set-ups per run; each is followed by an equal share of the run. On the
# serving workloads every set-up starts a daemon; serve_tenants daemons
# settle into one of two steady states (about 1.7 or 2.0 ms of CPU per fit)
# for their whole life, so that run averages over more of them, and
# serve_small's set-up takes about 15 ms, which a disturbance of the host
# can double, so its median needs more of them.
SETUPS = {"fit_batch": 5, "serve_small": 10, "serve_tenants": 10}

END_TO_END = [
    ("setup_s", "s"),
    ("fits_per_s", "fits/s"),
    ("latency_p50_ms", "ms"),
    ("cpu_ms_per_fit", "ms"),
    ("peak_rss_mb", "MiB"),
]

PER_LAYER = [
    ("robust.ns_per_element", "ns"),
    ("robust.estimate_share", "ratio"),
    ("dp.mechanism_share", "ratio"),
    ("dp.journal_records_per_fit", "count"),
    ("dp.journal_fsync_ms_p50", "ms"),
    ("solver.self_share", "ratio"),
    ("solver.iterations_per_fit", "count"),
    ("engine.queue_wait_ms_p50", "ms"),
    ("engine.queue_wait_ms_p99", "ms"),
    ("engine.job_ms_p50", "ms"),
    ("engine.steals_per_job", "count"),
    ("engine.shed_total", "count"),
    ("daemon.frame_decode_us_p50", "us"),
    ("daemon.dispatch_us_p50", "us"),
    ("daemon.write_us_p50", "us"),
    ("daemon.frames_per_fit", "count"),
    ("net.submit_ms_p50", "ms"),
    ("net.request_bytes", "bytes"),
    ("net.result_bytes", "bytes"),
    ("net.encode_submit_us", "us"),
    ("obs.trace_overhead_pct", "%"),
    ("loadgen.offered_rps", "1/s"),
    ("loadgen.achieved_rps", "1/s"),
    ("loadgen.lag_ms_p99", "ms"),
    ("trace.unattributed_ms_p50", "ms"),
    ("error_rate", "ratio"),
]

# An open-loop phase is invalid when its generator fell behind its
# schedule: the median request of the last tenth of the schedule went out
# this late. A backlog that keeps growing trips it; one short stall near
# the end does not.
MAX_FINAL_LAG_MS = 100.0

# fit_batch rotates through this many problems.
FIT_BATCH_ROTATION = 5
# Share of a run's windows that fits_per_s and the serving latency_p50_ms
# are taken over: see quietest().
QUIET_SHARE = 0.1


def log(message):
    print(message, file=sys.stderr, flush=True)


def fail(message, code=1):
    log("perfbench: " + message)
    sys.exit(code)


# --- Build ------------------------------------------------------------------


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no htdp source tree next to perfbench/ (need CMakeLists.txt "
             "and src/)", 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            fail("build failed: " + " ".join(step), 2)


def source_digest():
    """sha256 over the library sources, for checkouts without git."""
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_rev():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    except OSError:
        pass
    return "unknown"


# --- Statistics -------------------------------------------------------------


def percentile(values, q):
    """Linear interpolation between closest ranks, q in [0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values):
    return statistics.median(values) if values else 0.0


def histogram_quantile(bounds, counts, q):
    """obs::Histogram::Quantile over per-bucket counts (last = +Inf)."""
    total = sum(counts)
    if total == 0:
        return 0.0
    target = q * total
    seen = 0
    for i, n in enumerate(counts):
        if n == 0:
            continue
        if seen + n >= target:
            if i == len(bounds):
                return bounds[-1]
            lower = bounds[i - 1] if i > 0 else 0.0
            fraction = min(1.0, max(0.0, (target - seen) / n))
            return lower + (bounds[i] - lower) * fraction
        seen += n
    return bounds[-1]


# --- Spans ------------------------------------------------------------------


class Span:
    __slots__ = ("name", "tid", "start", "end", "child")

    def __init__(self, name, tid, start, end):
        self.name, self.tid, self.start, self.end = name, tid, start, end
        self.child = 0  # ns covered by direct children

    @property
    def dur(self):
        return self.end - self.start

    @property
    def self_ns(self):
        return self.dur - self.child


def load_spans(path):
    """Spans of a Chrome-trace dump, with child coverage filled in, and the
    start of the retained window of every thread whose ring wrapped."""
    trace = load_json(path)
    by_tid = {}
    wrapped = set()
    for event in trace["traceEvents"]:
        if event.get("ph") == "X":
            start = round(float(event["ts"]) * 1000)
            end = start + round(float(event["dur"]) * 1000)
            by_tid.setdefault(event["tid"], []).append(
                Span(event["name"], event["tid"], start, end))
        elif event.get("name") == "spans_dropped":
            wrapped.add(event["tid"])
    spans = []
    window_start = 0
    for tid, items in by_tid.items():
        items.sort(key=lambda s: (s.start, -s.end))
        if tid in wrapped and items:
            window_start = max(window_start, items[0].start)
        stack = []
        for span in items:
            while stack and stack[-1].end <= span.start:
                stack.pop()
            if stack and span.end <= stack[-1].end:
                stack[-1].child += span.dur
            stack.append(span)
        spans.extend(items)
    return spans, window_start


def top_level(spans):
    """Spans not nested in another span of the same thread."""
    out = []
    by_tid = {}
    for span in spans:
        by_tid.setdefault(span.tid, []).append(span)
    for items in by_tid.values():
        items.sort(key=lambda s: (s.start, -s.end))
        end = -1
        for span in items:
            if span.start >= end:
                out.append(span)
                end = span.end
    return out


def is_iteration(name):
    return name.endswith(".iteration")


def is_mechanism(name):
    return name in ("dp.privatize", "dp.select_gumbel")


# --- Reduction --------------------------------------------------------------


def phase(report, name):
    for p in report["phases"]:
        if p["name"] == name:
            return p
    return None


def phase_seconds(p):
    return (p["end_ns"] - p["start_ns"]) * 1e-9


def rate(p):
    """Completions per second over the whole phase."""
    seconds = phase_seconds(p)
    return p["succeeded"] / seconds if seconds > 0 else 0.0


def windows(p):
    """(seconds, daemon CPU s, fits) deltas between consecutive samples,
    for the sampling periods that end inside the phase."""
    points = p["windows"]
    out = []
    for a, b in zip(points, points[1:]):
        if b[0] <= phase_seconds(p) + 1e-9 and b[0] > a[0]:
            out.append((b[0] - a[0], b[1] - a[1], b[2] - a[2]))
    return out


def quietest(parts, key):
    """The QUIET_SHARE of the windows `parts` with the lowest `key`, at
    least one.

    A shared virtual machine loses its CPUs to other tenants of the host
    for seconds at a time: on a 4-vCPU VM, within one serve_small run, the
    median latency of one-second windows went from 0.8 to 13 ms and back,
    and the closed-loop rate of quarter-second windows from 5000 to 1100
    fits/s, while the CPU time per fit stayed within a few percent.
    Interference only adds time, so a throughput or latency metric is
    taken over the least disturbed tenth of its run's windows. A slower
    program is slower in every window, that tenth included."""
    ranked = sorted(parts, key=key)
    return ranked[:max(1, round(len(ranked) * QUIET_SHARE))]


def check_open_loop(p):
    lags = p["lag_ms"]
    final = median(lags[len(lags) - max(1, len(lags) // 10):])
    if final > MAX_FINAL_LAG_MS:
        return ["the last tenth of the schedule went out %.1f ms late "
                "(median)" % final]
    return []


def end_to_end(workload, report):
    m = {"setup_s": median(report["setup_s"])}
    notes = []
    if workload == "fit_batch":
        closed = phase(report, "closed")
        latencies = closed["latency_ms"]
        # A window is one rotation through the problems (fit k ran problem
        # k % size), so every window does the same work.
        size = FIT_BATCH_ROTATION
        rotations = [latencies[k:k + size]
                     for k in range(0, len(latencies) - size + 1, size)]
        quiet = quietest(rotations, key=sum)
        m["fits_per_s"] = 1000.0 * size * len(quiet) / sum(map(sum, quiet))
        # The median fit is one of the single-threaded problems, which a
        # disturbance slows far less than the pool-parallel ones; the
        # median over all fits is steadier than over a tenth of them.
        m["latency_p50_ms"] = percentile(latencies, 50)
        cpu = closed["cpu_ms"]
        m["cpu_ms_per_fit"] = median(
            [sum(cpu[k:k + size]) for k in range(0, len(cpu) - size + 1, size)]
        ) / size
        m["peak_rss_mb"] = report["process"]["peak_rss_mb"]
        # The tail is not an end-to-end metric: see the note it prints.
        per_problem = " ".join("%.4g" % percentile(latencies[k::size], 90)
                               for k in range(size))
        notes.append("latency_p90_ms = %.6g ms over all %d fits; p90 per "
                     "problem: %s ms; no bound: it moves with how a shared "
                     "host schedules the pool-parallel alg2 and alg5 fits"
                     % (percentile(latencies, 90), len(latencies),
                        per_problem))
        return m, notes

    # Serving: every daemon of the run served an equal share of it.
    opens = [p for p in report["phases"] if p["name"] == "open"]
    closeds = [p for p in report["phases"] if p["name"] == "closed"]
    # Open-loop windows of about one second of schedule each, ranked by
    # their median latency. Failed and refused requests were written as
    # 1e300: they miss every latency limit and stay in the sample.
    parts = []
    for p in opens:
        lat = p["latency_ms"]
        k = max(1, round(len(lat) / p["offered_rps"]))
        size = len(lat) // k
        parts.extend(lat[i * size:(i + 1) * size] for i in range(k))
    quiet = quietest(parts, key=lambda part: percentile(part, 50))
    m["latency_p50_ms"] = percentile([x for part in quiet for x in part], 50)
    rates = []
    for p in closeds:
        # A phase shorter than one sampling period is one window.
        rates.extend([fits / dt for dt, _, fits in windows(p)] or [rate(p)])
    m["fits_per_s"] = statistics.fmean(quietest(rates, key=lambda r: -r))
    # Daemon CPU over the open-loop phases, where the offered load is the
    # same in every run.
    cpu = sum(p["windows"][-1][1] - p["windows"][0][1] for p in opens)
    fits = sum(p["windows"][-1][2] - p["windows"][0][2] for p in opens)
    m["cpu_ms_per_fit"] = 1000.0 * cpu / max(1.0, fits)
    m["peak_rss_mb"] = statistics.fmean(
        i["peak_rss_mb"] for i in report["instances"])
    everything = [x for p in opens for x in p["latency_ms"]]
    notes.append("latency_p99_ms = %.6g ms over all %d open-loop requests "
                 "(p90 %.6g ms); no bound: on a shared host the tail "
                 "moves with the host's scheduling"
                 % (percentile(everything, 99), len(everything),
                    percentile(everything, 90)))
    return m, notes


def overhead_pct(report):
    """Untraced against traced fits/s in percent, averaged over the
    untraced/traced daemon pairs (fit_batch: the one process)."""
    pairs = {}
    for p in report["phases"]:
        if p["name"] in ("closed_untraced", "closed_traced"):
            pair = pairs.setdefault(p["instance"], {})
            pair.setdefault(p["name"], []).append(rate(p))
    ratios = [median(pair["closed_untraced"]) / median(pair["closed_traced"])
              for pair in pairs.values()]
    return 100.0 * (statistics.fmean(ratios) - 1.0)


def per_layer_fit_batch(report):
    layers = report["layers"]
    spans, _ = load_spans(layers["trace_file"])
    bounds = layers["fit_bounds_ns"]
    fits = len(bounds) // 2
    fit_ns = sum(bounds[2 * i + 1] - bounds[2 * i] for i in range(fits))
    robust = sum(s.dur for s in spans if s.name == "robust.estimate")
    mechanism = sum(s.dur for s in spans if is_mechanism(s.name))
    solver_self = sum(s.self_ns for s in spans if is_iteration(s.name))

    # Unattributed time of each fit: its wall time not covered by any
    # top-level span (validation, schedule solving, folding, result).
    tops = sorted(top_level(spans), key=lambda s: s.start)
    starts = [s.start for s in tops]
    unattributed = []
    for i in range(fits):
        lo, hi = bounds[2 * i], bounds[2 * i + 1]
        k = bisect.bisect_left(starts, lo)
        covered = 0
        while k < len(tops) and tops[k].start < hi:
            covered += min(tops[k].end, hi) - tops[k].start
            k += 1
        unattributed.append((hi - lo - covered) * 1e-6)

    m = {name: 0.0 for name, _ in PER_LAYER}
    m.update({
        "robust.ns_per_element": robust / max(1.0, layers["robust_elements"]),
        "robust.estimate_share": robust / fit_ns,
        "dp.mechanism_share": mechanism / fit_ns,
        "solver.self_share": solver_self / fit_ns,
        "solver.iterations_per_fit": layers["iterations"] / max(1, fits),
        "obs.trace_overhead_pct": overhead_pct(report),
        "loadgen.achieved_rps": rate(phase(report, "closed_traced")),
        "trace.unattributed_ms_p50": median(unattributed),
    })
    return m, {}


def load_json(path):
    with open(path) as f:
        return json.load(f)


def counter_total(metrics, name):
    return sum(c["value"] for c in metrics["counters"] if c["name"] == name)


def histogram_buckets(metrics, name):
    for h in metrics["histograms"]:
        if h["name"] == name:
            bounds = [b["le"] for b in h["buckets"] if b["le"] != "+Inf"]
            return bounds, [b["count"] for b in h["buckets"]]
    return [], []


def per_layer_serve(report):
    layers = report["layers"]
    op = phase(report, "open")
    spans, wrap_start = load_spans(layers["trace_file"])
    lo = max(op["start_ns"], wrap_start)
    hi = op["end_ns"]
    window = [s for s in spans if s.start >= lo and s.end <= hi]

    def durations(name):
        return [s.dur for s in window if s.name == name]

    jobs = durations("engine.job")
    n_jobs = max(1, len(jobs))
    job_ns = max(1, sum(jobs))
    queue = durations("engine.queue_wait")
    decode = durations("daemon.frame_decode")
    writes = durations("daemon.write")
    dispatch_self = [s.self_ns for s in window if s.name == "daemon.dispatch"]
    robust = sum(durations("robust.estimate"))
    mechanism = sum(s.dur for s in window if is_mechanism(s.name))
    iterations = [s for s in window if is_iteration(s.name)]

    before, after = layers["before"], layers["after"]
    m_before = load_json(before["metrics_file"])
    m_after = load_json(after["metrics_file"])
    completed = max(1, after["completed"] - before["completed"])
    received = (counter_total(m_after, "htdp_daemon_frames_received_total")
                - counter_total(m_before, "htdp_daemon_frames_received_total"))
    records = (counter_total(m_after, "htdp_budget_journal_records_total")
               - counter_total(m_before, "htdp_budget_journal_records_total"))
    bounds, after_counts = histogram_buckets(m_after, "htdp_budget_fsync_seconds")
    _, before_counts = histogram_buckets(m_before, "htdp_budget_fsync_seconds")
    if not before_counts:
        before_counts = [0] * len(after_counts)
    fsync_counts = [a - b for a, b in zip(after_counts, before_counts)]

    # Per-fit mix of the traffic: medium fits move ~4 MB.
    codec = layers["codec"]
    fits_ok = max(1, op["succeeded"])
    medium_share = layers["medium_fits"] / fits_ok

    def mixed(key):
        value = codec["small"][key] * (1.0 - medium_share)
        if "medium" in codec:
            value += codec["medium"][key] * medium_share
        return value

    elements_per_fit = layers["robust_elements"] / fits_ok

    e2e_p50 = percentile(op["latency_ms"], 50)
    # Reconciliation of the typical (median) request: each layer adds its
    # median span times the spans it records per fit.
    components = {
        "loadgen lag": percentile(op["lag_ms"], 50),
        "client encode": codec["small"]["encode_submit_us"] * 1e-3,
        "daemon.frame_decode": percentile(decode, 50) * 1e-6 * len(decode) / n_jobs,
        "daemon.dispatch (self)":
            percentile(dispatch_self, 50) * 1e-6 * len(dispatch_self) / n_jobs,
        "engine.queue_wait": percentile(queue, 50) * 1e-6,
        "engine.job": percentile(jobs, 50) * 1e-6,
        "daemon.write": percentile(writes, 50) * 1e-6 * len(writes) / n_jobs,
        "client decode": codec["small"]["decode_result_us"] * 1e-3,
    }
    m = {
        "robust.ns_per_element": robust / max(1.0, elements_per_fit * len(jobs)),
        "robust.estimate_share": robust / job_ns,
        "dp.mechanism_share": mechanism / job_ns,
        "dp.journal_records_per_fit": records / completed,
        "dp.journal_fsync_ms_p50":
            1000.0 * histogram_quantile(bounds, fsync_counts, 0.5) if bounds else 0.0,
        "solver.self_share": sum(s.self_ns for s in iterations) / job_ns,
        "solver.iterations_per_fit": len(iterations) / n_jobs,
        "engine.queue_wait_ms_p50": percentile(queue, 50) * 1e-6,
        "engine.queue_wait_ms_p99": percentile(queue, 99) * 1e-6,
        "engine.job_ms_p50": percentile(jobs, 50) * 1e-6,
        "engine.steals_per_job": (after["steals"] - before["steals"]) / completed,
        "engine.shed_total": after["shed"] - before["shed"],
        "daemon.frame_decode_us_p50": percentile(decode, 50) * 1e-3,
        "daemon.dispatch_us_p50": percentile(dispatch_self, 50) * 1e-3,
        "daemon.write_us_p50": percentile(writes, 50) * 1e-3,
        "daemon.frames_per_fit": received / completed + len(writes) / n_jobs,
        "net.submit_ms_p50": percentile(op["submit_ms"], 50),
        "net.request_bytes": mixed("request_bytes"),
        "net.result_bytes": mixed("result_bytes"),
        "net.encode_submit_us": mixed("encode_submit_us"),
        "obs.trace_overhead_pct": overhead_pct(report),
        "loadgen.offered_rps": op["offered_rps"],
        "loadgen.achieved_rps": rate(op),
        "loadgen.lag_ms_p99": percentile(op["lag_ms"], 99),
        "trace.unattributed_ms_p50": e2e_p50 - sum(components.values()),
    }
    details = {"traced open-loop latency p50 (ms)": e2e_p50,
               "span window (s)": (hi - lo) * 1e-9,
               "jobs in window": len(jobs)}
    details.update({"reconciled " + k + " (ms)": v
                    for k, v in components.items()})
    return m, details


# --- Main -------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(RATES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", default="",
                        choices=("", "corrupt_w", "refuse"),
                        help="gate self-test: corrupt one result or make "
                             "one request be refused")
    args = parser.parse_args()

    build()
    os.makedirs(WORK, exist_ok=True)
    out = os.path.join(WORK, "%s-%d.json" % (args.workload, args.trace))
    command = [os.path.join(BUILD, "htdp_perfbench"),
               "--workload=" + args.workload, "--seed=%d" % args.seed,
               "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
               "--out=" + out, "--work-dir=" + WORK,
               "--htdpd=" + os.path.join(BUILD, "htdp", "htdpd"),
               "--rate=%g" % RATES[args.workload],
               "--setups=%d" % SETUPS[args.workload]]
    if args.inject:
        command.append("--inject=" + args.inject)
    # Its own process group, so that nothing it started can outlive it.
    generator = subprocess.Popen(command, start_new_session=True)
    try:
        returncode = generator.wait(timeout=170)
    except subprocess.TimeoutExpired:
        returncode = None
    finally:
        try:
            os.killpg(generator.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        generator.wait()
    if returncode is None:
        fail("load generator timed out")
    if returncode != 0:
        fail("load generator exited with %d" % returncode)
    report = load_json(out)

    # Provenance header.
    prov = report["provenance"]
    prov["git_rev"] = git_rev()
    prov["source_digest"] = source_digest()
    print("# htdp perfbench  workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    for key in ("git_rev", "source_digest", "nproc", "hw_cores",
                "HTDP_NUM_THREADS", "worker_threads", "simd_dispatched",
                "simd_baseline", "build_type", "ndebug"):
        label = key
        if key == "simd_baseline":
            label = "simd_baseline (compiled baseline, not the widest table)"
        print("# %s: %s" % (label, prov[key]))
    if not prov["ndebug"]:
        fail("the build has no NDEBUG; refusing to report")

    # Per-phase accounting and the correctness gate.
    attempted = 0
    failed = 0
    for p in report["phases"]:
        not_ok = p["attempted"] - p["succeeded"]
        attempted += p["attempted"]
        failed += not_ok
        print("# phase %-16s attempted=%d succeeded=%d failed=%d refused=%d"
              % (p["name"], p["attempted"], p["succeeded"], p["failed"],
                 p["refused"]))
    if "reads" in report:
        print("# BUDGET/STATS reads: %d" % report["reads"])
    gate = report["gate"]
    print("# gate: fits_checked=%d identity_checked=%d budget_checked=%d "
          "failures=%d" % (gate["fits_checked"], gate["identity_checked"],
                           gate["budget_checked"], gate["failures"]))
    failed = max(failed, gate["failures"])
    attempted += gate["identity_checked"] + gate["budget_checked"]
    error_rate = failed / max(1, attempted)
    if not args.trace:
        print("error_rate = %.6g ratio" % error_rate)
    if gate["failures"] or failed:
        for message in gate["messages"]:
            log("  " + message)
        fail("output correctness gate failed (%d of %d)" % (failed, attempted))

    for p in report["phases"]:
        if p["open_loop"]:
            problems = check_open_loop(p)
            if problems:
                fail("invalid run, generator fell behind: " +
                     "; ".join(problems))

    if args.trace:
        if args.workload == "fit_batch":
            values, details = per_layer_fit_batch(report)
        else:
            values, details = per_layer_serve(report)
        values["error_rate"] = error_rate
        for key, value in details.items():
            print("# %s: %.6g" % (key, value))
        names = PER_LAYER
    else:
        values, notes = end_to_end(args.workload, report)
        for note in notes:
            print("# note: " + note)
        names = END_TO_END

    metrics = {}
    for name, unit in names:
        value = float(values[name])
        if not math.isfinite(value):
            fail("metric %s is not finite" % name)
        metrics[name] = {"value": value, "unit": unit}
        print("%s = %.6g %s" % (name, value, unit))
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
