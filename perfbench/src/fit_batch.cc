// fit_batch: one caller running Solver::TryFit in a closed loop, with the
// ParallelFor pool at its default size, over a rotation of five
// paper-shaped heavy-tailed problems. The Catoni robust gradient, the
// solvers' iterations and the DP mechanisms do all the work; no engine,
// codec or daemon is involved.
//
// With --trace=1 the loop alternates untraced and traced slices of whole
// rotations (ABBA, so drift cancels), and the spans of the traced slices
// are dumped for the per-layer split.

#include <cstring>
#include <filesystem>

#include "obs/chrome_trace.h"
#include "obs/trace.h"
#include "perfbench.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kIdentitySamples = 6;

struct Loop {
  const Options* options = nullptr;
  std::vector<std::unique_ptr<BatchProblem>> problems;
  Gate gate;
  std::uint64_t next = 0;  // global fit index: picks problem and seed
  struct Stored {
    std::size_t problem;
    std::uint64_t seed;
    htdp::FitResult fit;
  };
  std::vector<Stored> stored;
  // Traced-slice totals for the per-layer split.
  double robust_elements = 0.0;
  double iterations = 0.0;
  std::vector<std::uint64_t> fit_bounds_ns;  // start, end of each traced fit
};

std::uint64_t FitSeed(const Options& options, std::uint64_t i) {
  return Mix64(options.seed * 0x100000001b3ull + i);
}

/// Runs fit `loop.next` and gates it.
Sample RunOne(Loop& loop, bool traced) {
  const Options& options = *loop.options;
  const std::uint64_t i = loop.next++;
  const std::size_t which = i % loop.problems.size();
  const BatchProblem& p = *loop.problems[which];
  htdp::SolverSpec spec = p.spec;
  if (options.inject == "refuse" && i == loop.problems.size() + 2) {
    spec.budget = htdp::PrivacyBudget::Pure(0.0);  // refused: no budget
  }
  const std::uint64_t seed = FitSeed(options, i);
  htdp::Rng rng(seed);
  const double cpu0 = ReadProcUsage(0).cpu_s;
  const std::uint64_t t0 = NowNs();
  htdp::StatusOr<htdp::FitResult> fit = p.solver->TryFit(p.problem, spec, rng);
  const std::uint64_t t1 = NowNs();
  Sample s;
  s.latency_ms = static_cast<double>(t1 - t0) * 1e-6;
  s.cpu_ms = (ReadProcUsage(0).cpu_s - cpu0) * 1e3;
  if (!fit.ok()) {
    s.refused = true;
    loop.gate.Fail(p.label + ": " + fit.status().ToString());
    return s;
  }
  s.ok = loop.gate.CheckFit(fit.value(), p.l1_radius, p.label);
  if (s.ok && loop.stored.size() < kIdentitySamples &&
      Mix64(options.seed ^ 0xc0ffee ^ i) % 4 == 0) {
    loop.stored.push_back({which, seed, fit.value()});
  }
  if (traced) {
    loop.fit_bounds_ns.push_back(t0);
    loop.fit_bounds_ns.push_back(t1);
    loop.iterations += fit.value().iterations;
    if (p.robust) {
      loop.robust_elements +=
          RobustElements(p.data.size(), p.data.dim(), fit.value().iterations);
    }
  }
  return s;
}

/// Re-runs every sampled fit at its seed; a deterministic solver returns
/// the same bits.
void CheckIdentity(Loop& loop) {
  for (std::size_t k = 0; k < loop.stored.size(); ++k) {
    Loop::Stored& s = loop.stored[k];
    if (k == 0 && loop.options->inject == "corrupt_w") {
      std::uint64_t bits;
      std::memcpy(&bits, &s.fit.w[0], sizeof(bits));
      bits ^= 1;
      std::memcpy(&s.fit.w[0], &bits, sizeof(bits));
    }
    const BatchProblem& p = *loop.problems[s.problem];
    htdp::Rng rng(s.seed);
    htdp::StatusOr<htdp::FitResult> again =
        p.solver->TryFit(p.problem, p.spec, rng);
    if (!again.ok()) {
      loop.gate.Fail(p.label + ": re-run failed");
      continue;
    }
    loop.gate.CheckIdentical(s.fit, again.value(), p.label);
  }
}

}  // namespace

int RunFitBatch(const Options& options) {
  Loop loop;
  loop.options = &options;
  htdp::obs::SetTraceEnabled(false);

  JsonWriter json;
  json.BeginObject();
  WriteProvenance(json, options);

  // Set-up: generate the problems (tau estimation included), start the
  // worker pool and warm up with one fit of each problem. Every set-up
  // generates the same problems from the seed.
  std::vector<double> setup_s;
  auto set_up = [&] {
    loop.problems.clear();
    const std::uint64_t t0 = NowNs();
    loop.problems = MakeBatchProblems(options.seed);
    for (const auto& p : loop.problems) {
      htdp::Rng rng(Mix64(options.seed ^ 0xfeedull));
      if (!p->solver->TryFit(p->problem, p->spec, rng).ok()) {
        loop.gate.Fail(p->label + ": warm-up fit failed");
      }
    }
    setup_s.push_back(SecondsSince(t0));
  };

  std::vector<Phase> phases;
  if (!options.trace) {
    // The run is cut into one slice per set-up, each set-up right before
    // its slice, so that the set-up times are spread over the run as the
    // serving workloads' are, and a disturbance of the host at the start
    // does not move all of them.
    Phase phase;
    phase.name = "closed";
    phase.start_ns = NowNs();
    const int slices = options.setups;
    for (int s = 0; s < slices; ++s) {
      set_up();
      const std::uint64_t deadline =
          NowNs() + static_cast<std::uint64_t>(options.seconds / slices * 1e9);
      while (NowNs() < deadline) phase.samples.push_back(RunOne(loop, false));
    }
    phase.end_ns = NowNs();
    json.BeginObject("process");
    json.Number("peak_rss_mb", ReadProcUsage(0).peak_rss_mb);
    json.EndObject();
    phases.push_back(std::move(phase));
  } else {
    set_up();
    const std::size_t rotation = loop.problems.size();
    // Rings large enough for every traced span of the run.
    htdp::obs::SetTraceCapacity(1u << 18);
    htdp::obs::ClearTrace();
    const std::uint64_t deadline =
        NowNs() + static_cast<std::uint64_t>(options.seconds * 1e9);
    Phase untraced;
    untraced.name = "closed_untraced";
    Phase traced;
    traced.name = "closed_traced";
    for (int k = 0; NowNs() < deadline || k % 4 != 0; ++k) {
      const bool on = (k % 4 == 1 || k % 4 == 2);
      Phase& phase = on ? traced : untraced;
      htdp::obs::SetTraceEnabled(on);
      const std::uint64_t t0 = NowNs();
      for (std::size_t j = 0; j < rotation; ++j) {
        phase.samples.push_back(RunOne(loop, on));
      }
      // Busy time of the slice; the phase spans are sums of slices.
      phase.end_ns += NowNs() - t0;
    }
    htdp::obs::SetTraceEnabled(false);
    phases.push_back(std::move(untraced));
    phases.push_back(std::move(traced));

    std::error_code ec;
    std::filesystem::create_directories(options.work_dir, ec);
    const std::string path = options.work_dir + "/fit_batch-trace.json";
    WriteFile(path, htdp::obs::DumpChromeTrace());
    json.BeginObject("layers");
    json.String("trace_file", path);
    json.Number("robust_elements", loop.robust_elements);
    json.Number("iterations", loop.iterations);
    json.BeginArray("fit_bounds_ns");
    for (const std::uint64_t t : loop.fit_bounds_ns) json.Int(nullptr, t);
    json.EndArray();
    json.EndObject();
  }

  CheckIdentity(loop);
  json.Numbers("setup_s", setup_s);
  json.BeginArray("phases");
  for (const Phase& p : phases) p.Write(json);
  json.EndArray();
  loop.gate.Write(json);
  json.EndObject();
  if (!WriteFile(options.out, json.str())) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", options.out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace perfbench
