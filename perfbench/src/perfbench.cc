// htdp_perfbench: the load generator behind perfbench/run.py.
//
//   htdp_perfbench --workload=fit_batch|serve_small|serve_tenants
//       --seed=N --seconds=S --trace=0|1 --out=REPORT.json
//       [--htdpd=PATH --work-dir=DIR --rate=RPS --setups=K --inject=KIND]
//
// Writes a raw JSON report (samples, counters, span dumps, gate results)
// that run.py reduces to the named metrics. Exit code 0 means the report
// was written; whether the run passed the correctness gate is in the
// report, so that run.py can print why it failed.

#include "perfbench.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/parallel.h"
#include "util/simd.h"

namespace perfbench {

std::uint64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double SecondsSince(std::uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

void SleepUntilNs(std::uint64_t deadline_ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(deadline_ns / 1000000000ull);
  ts.tv_nsec = static_cast<long>(deadline_ns % 1000000000ull);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// --- JsonWriter -----------------------------------------------------------

void JsonWriter::Key(const char* key) {
  if (!first_.back()) out_ += ',';
  first_.back() = false;
  if (key != nullptr) {
    out_ += '"';
    out_ += key;
    out_ += "\":";
  }
}

void JsonWriter::BeginObject(const char* key) {
  Key(key);
  out_ += '{';
  first_.push_back(true);
}

void JsonWriter::EndObject() {
  first_.pop_back();
  out_ += '}';
}

void JsonWriter::BeginArray(const char* key) {
  Key(key);
  out_ += '[';
  first_.push_back(true);
}

void JsonWriter::EndArray() {
  first_.pop_back();
  out_ += ']';
}

void JsonWriter::Number(const char* key, double value) {
  Key(key);
  if (!std::isfinite(value)) {
    out_ += "null";  // JSON has no inf/nan; run.py reads null as missing
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out_ += buf;
}

void JsonWriter::Int(const char* key, std::uint64_t value) {
  Key(key);
  out_ += std::to_string(value);
}

void JsonWriter::String(const char* key, const std::string& value) {
  Key(key);
  out_ += '"';
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out_ += ' ';
    } else {
      out_ += c;
    }
  }
  out_ += '"';
}

void JsonWriter::Bool(const char* key, bool value) {
  Key(key);
  out_ += value ? "true" : "false";
}

void JsonWriter::Numbers(const char* key, const std::vector<double>& values) {
  BeginArray(key);
  for (const double v : values) Number(nullptr, v);
  EndArray();
}

bool WriteFile(const std::string& path, const std::string& body) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << body;
  return static_cast<bool>(file);
}

// --- Process accounting ---------------------------------------------------

ProcUsage ReadProcUsage(pid_t pid) {
  ProcUsage usage;
  const std::string dir =
      pid == 0 ? std::string("/proc/self") : "/proc/" + std::to_string(pid);
  if (pid == 0) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    usage.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                  static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                      1e-6;
  } else {
    std::ifstream stat(dir + "/stat");
    std::string line;
    std::getline(stat, line);
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    const std::size_t close = line.rfind(')');
    if (close != std::string::npos) {
      std::istringstream rest(line.substr(close + 2));
      std::string field;
      double ticks = 0.0;
      for (int i = 3; i <= 15 && rest >> field; ++i) {
        if (i >= 14) ticks += std::atof(field.c_str());
      }
      usage.cpu_s = ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
    }
  }
  std::ifstream status(dir + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      usage.peak_rss_mb = std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return usage;
}

// --- Provenance -----------------------------------------------------------

bool OptimizedBuild() {
#ifdef NDEBUG
  return true;
#else
  return false;
#endif
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof(set), &set) == 0
             ? CPU_COUNT(&set)
             : static_cast<int>(std::thread::hardware_concurrency());
}

void WriteProvenance(JsonWriter& json, const Options& options) {
  const char* threads_env = std::getenv("HTDP_NUM_THREADS");
  const htdp::SimdCaps simd = htdp::SimdInfo();
  json.BeginObject("provenance");
  json.String("workload", options.workload);
  json.Int("seed", options.seed);
  json.Int("nproc", static_cast<std::uint64_t>(Nproc()));
  json.Int("hw_cores", std::thread::hardware_concurrency());
  json.String("HTDP_NUM_THREADS", threads_env != nullptr ? threads_env : "");
  json.Int("worker_threads",
           static_cast<std::uint64_t>(htdp::NumWorkerThreads()));
  json.String("simd_dispatched", htdp::SimdEnabled() ? simd.isa : "off");
  // The compile-time baseline every non-dispatched kernel lowers to (not the
  // widest table in the binary).
  json.String("simd_baseline", simd.compiled_isa);
  json.String("build_type", PERFBENCH_BUILD_TYPE);
  json.Bool("ndebug", OptimizedBuild());
  json.EndObject();
}

// --- Gate -----------------------------------------------------------------

void Gate::Fail(const std::string& message) {
  ++failures;
  if (messages_.size() < 20) messages_.push_back(message);
}

bool Gate::CheckFit(const htdp::FitResult& fit, double l1_radius,
                    const std::string& what) {
  ++fits_checked;
  double l1 = 0.0;
  std::size_t nonzero = 0;
  for (const double v : fit.w) {
    if (!std::isfinite(v)) {
      Fail(what + ": non-finite w");
      return false;
    }
    l1 += std::fabs(v);
    if (v != 0.0) ++nonzero;
  }
  if (fit.w.empty()) {
    Fail(what + ": empty w");
    return false;
  }
  if (l1_radius > 0.0) {
    if (l1 > l1_radius * (1.0 + 1e-9)) {
      Fail(what + ": ||w||_1 = " + std::to_string(l1) + " exceeds radius " +
           std::to_string(l1_radius));
      return false;
    }
  } else if (fit.sparsity_used == 0 || nonzero > fit.sparsity_used) {
    Fail(what + ": ||w||_0 = " + std::to_string(nonzero) +
         " exceeds sparsity " + std::to_string(fit.sparsity_used));
    return false;
  }
  return true;
}

bool Gate::CheckIdentical(const htdp::FitResult& got,
                          const htdp::FitResult& want,
                          const std::string& what) {
  ++identity_checked;
  const bool same =
      got.w.size() == want.w.size() &&
      std::memcmp(got.w.data(), want.w.data(),
                  got.w.size() * sizeof(double)) == 0 &&
      got.iterations == want.iterations &&
      got.sparsity_used == want.sparsity_used &&
      got.selected == want.selected &&
      std::memcmp(&got.scale_used, &want.scale_used, sizeof(double)) == 0 &&
      std::memcmp(&got.shrinkage_used, &want.shrinkage_used,
                  sizeof(double)) == 0;
  if (!same) Fail(what + ": result differs from the in-process TryFit");
  return same;
}

void Gate::Write(JsonWriter& json) const {
  json.BeginObject("gate");
  json.Int("fits_checked", fits_checked);
  json.Int("identity_checked", identity_checked);
  json.Int("budget_checked", budget_checked);
  json.Int("failures", failures);
  json.BeginArray("messages");
  for (const std::string& m : messages_) json.String(nullptr, m);
  json.EndArray();
  json.EndObject();
}

// --- Phase ----------------------------------------------------------------

void Phase::Write(JsonWriter& json) const {
  json.BeginObject();
  json.String("name", name);
  json.Int("instance", static_cast<std::uint64_t>(instance));
  json.Bool("open_loop", open_loop);
  json.Number("offered_rps", offered_rps);
  json.Int("start_ns", start_ns);
  json.Int("end_ns", end_ns);
  std::size_t ok = 0;
  std::size_t refused = 0;
  std::vector<double> latency;
  std::vector<double> lag;
  std::vector<double> submit;
  std::vector<double> cpu;
  latency.reserve(samples.size());
  for (const Sample& s : samples) {
    ok += s.ok ? 1 : 0;
    refused += s.refused ? 1 : 0;
    // A failed or refused request misses every latency limit.
    latency.push_back(s.ok ? s.latency_ms : INFINITY);
    if (open_loop) lag.push_back(s.lag_ms);
    if (s.submit_ms > 0.0) submit.push_back(s.submit_ms);
    if (s.cpu_ms > 0.0) cpu.push_back(s.cpu_ms);
  }
  json.Int("attempted", samples.size());
  json.Int("succeeded", ok);
  json.Int("refused", refused);
  json.Int("failed", samples.size() - ok - refused);
  // Infinite latencies are written as 1e300 so the list stays numeric.
  for (double& v : latency) v = std::isfinite(v) ? v : 1e300;
  json.Numbers("latency_ms", latency);
  json.Numbers("lag_ms", lag);
  json.Numbers("submit_ms", submit);
  json.Numbers("cpu_ms", cpu);
  json.BeginArray("windows");
  for (const auto& w : windows) {
    json.BeginArray();
    for (const double v : w) json.Number(nullptr, v);
    json.EndArray();
  }
  json.EndArray();
  json.EndObject();
}

}  // namespace perfbench

namespace {

bool Flag(const char* arg, const char* name, std::string* value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (Flag(argv[i], "--workload", &v)) {
      options.workload = v;
    } else if (Flag(argv[i], "--seed", &v)) {
      options.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (Flag(argv[i], "--seconds", &v)) {
      options.seconds = std::atof(v.c_str());
    } else if (Flag(argv[i], "--trace", &v)) {
      options.trace = v == "1";
    } else if (Flag(argv[i], "--htdpd", &v)) {
      options.htdpd = v;
    } else if (Flag(argv[i], "--work-dir", &v)) {
      options.work_dir = v;
    } else if (Flag(argv[i], "--out", &v)) {
      options.out = v;
    } else if (Flag(argv[i], "--rate", &v)) {
      options.rate = std::atof(v.c_str());
    } else if (Flag(argv[i], "--setups", &v)) {
      options.setups = std::max(1, std::atoi(v.c_str()));
    } else if (Flag(argv[i], "--inject", &v)) {
      options.inject = v;
    } else {
      std::fprintf(stderr, "htdp_perfbench: unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  if (options.out.empty() || options.seconds <= 0.0) {
    std::fprintf(stderr, "htdp_perfbench: --out and --seconds > 0 required\n");
    return 2;
  }
  if (!perfbench::OptimizedBuild()) {
    std::fprintf(stderr,
                 "htdp_perfbench: built without NDEBUG; refusing to report\n");
    return 3;
  }
  if (options.workload == "fit_batch") return perfbench::RunFitBatch(options);
  if (options.workload == "serve_small" || options.workload == "serve_tenants") {
    // The client side of a serving run encodes multi-megabyte SUBMIT frames.
    // Left to glibc's dynamic mmap threshold, this process settles for a
    // whole run into either mapping a fresh buffer per request or reusing
    // heap memory, and which one moves the daemon's figures by ~15%. Fixed
    // thresholds keep the load generator in one state; htdpd itself runs
    // with the allocator's defaults.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 256 << 20);
    if (options.htdpd.empty() || options.work_dir.empty() ||
        options.rate <= 0.0) {
      std::fprintf(stderr,
                   "htdp_perfbench: serving needs --htdpd, --work-dir, "
                   "--rate\n");
      return 2;
    }
    return perfbench::RunServe(options);
  }
  std::fprintf(stderr, "htdp_perfbench: unknown workload \"%s\"\n",
               options.workload.c_str());
  return 2;
}
