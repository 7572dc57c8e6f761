#ifndef HTDP_PERFBENCH_PERFBENCH_H_
#define HTDP_PERFBENCH_PERFBENCH_H_

// Shared pieces of the htdp load generator: options, the raw-report JSON
// writer, clocks, process accounting and the output correctness gate.
//
// The binary measures; perfbench/run.py turns its raw report into the
// named metrics. Every timestamp is CLOCK_MONOTONIC nanoseconds (the clock
// behind obs::NowNanos), so client-side times line up with the spans the
// daemon records in its own process.

#include <sys/types.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "api/fit_result.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string htdpd;     // path of the daemon binary (serving workloads)
  std::string work_dir;  // scratch space for state dirs and trace dumps
  std::string out;       // raw report path
  double rate = 0.0;     // open-loop offered rate, requests/s
  int setups = 5;        // set-ups per run; the last one is measured
  // Gate self-test: "corrupt_w" flips one bit of one sampled result's w,
  // "refuse" makes one measured request invalid so it is refused.
  std::string inject;
};

std::uint64_t NowNs();
double SecondsSince(std::uint64_t start_ns);
void SleepUntilNs(std::uint64_t deadline_ns);

// Deterministic 64-bit mixer for seed derivation and sampling decisions.
std::uint64_t Mix64(std::uint64_t x);

/// Minimal JSON writer for the raw report: objects, arrays, numbers with
/// all their digits, strings.
class JsonWriter {
 public:
  void BeginObject(const char* key = nullptr);
  void EndObject();
  void BeginArray(const char* key = nullptr);
  void EndArray();
  void Number(const char* key, double value);
  void Int(const char* key, std::uint64_t value);
  void String(const char* key, const std::string& value);
  void Bool(const char* key, bool value);
  void Numbers(const char* key, const std::vector<double>& values);
  const std::string& str() const { return out_; }

 private:
  void Key(const char* key);
  std::string out_;
  std::vector<bool> first_{true};
};

/// CPU seconds (user + system) and peak RSS (VmHWM) of a process.
struct ProcUsage {
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
};
ProcUsage ReadProcUsage(pid_t pid);  // pid 0 = this process

/// CPUs this process may run on (what `nproc` prints).
int Nproc();

/// Build and host facts recorded in every report.
void WriteProvenance(JsonWriter& json, const Options& options);
/// False (with a message on stderr) for a build without NDEBUG.
bool OptimizedBuild();

/// The output correctness gate. Every check that fails is a failure of the
/// request it belongs to and is counted into the phase error totals.
class Gate {
 public:
  /// The fit is finite and inside its constraint: ||w||_1 <= radius for the
  /// l1-ball solvers (radius > 0), ||w||_0 <= sparsity_used otherwise.
  bool CheckFit(const htdp::FitResult& fit, double l1_radius,
                const std::string& what);
  /// Two fits of the same job returned the same bits.
  bool CheckIdentical(const htdp::FitResult& got, const htdp::FitResult& want,
                      const std::string& what);
  void Fail(const std::string& message);

  std::size_t fits_checked = 0;
  std::size_t identity_checked = 0;
  std::size_t budget_checked = 0;
  std::size_t failures = 0;

  void Write(JsonWriter& json) const;

 private:
  std::vector<std::string> messages_;  // the first few, for the report
};

/// Outcome of one timed request.
struct Sample {
  double latency_ms = 0.0;  // from due (open loop) or send (closed loop)
  double lag_ms = 0.0;      // send - due (open loop only)
  double submit_ms = 0.0;   // the net::Client::Submit call (serving only)
  double cpu_ms = 0.0;      // process CPU time of the fit (fit_batch only)
  bool ok = false;
  bool refused = false;     // typed rejection at SUBMIT (incl. sheds)
};

/// One measured phase of a run.
struct Phase {
  std::string name;
  int instance = 0;  // which daemon (or daemon pair) of the run
  bool open_loop = false;
  double offered_rps = 0.0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::vector<Sample> samples;
  // Serving: {seconds after start_ns, daemon CPU seconds, fits completed}
  // sampled while the phase ran.
  std::vector<std::array<double, 3>> windows;
  void Write(JsonWriter& json) const;
};

bool WriteFile(const std::string& path, const std::string& body);

int RunFitBatch(const Options& options);
int RunServe(const Options& options);

}  // namespace perfbench

#endif  // HTDP_PERFBENCH_PERFBENCH_H_
