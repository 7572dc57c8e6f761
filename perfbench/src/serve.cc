// serve_small and serve_tenants: the shipped htdpd binary over loopback.
//
// One benchmark process drives the daemon through net::Client with one
// connection and one load thread per CPU (nproc). A run has two phases:
//   - open loop: Poisson arrivals at the fixed --rate; every request is
//     timed from its due time, so a stall is charged to every request it
//     delays;
//   - closed loop: each connection submits its next fit as soon as the
//     previous one returns, which measures capacity.
// Every set-up starts its own daemon, and each daemon serves an equal share
// of both phases. With --trace=1 every set-up starts an untraced and a
// traced daemon and alternates capacity slices between them (the tracing
// overhead); then an open-loop phase runs against the last traced daemon,
// whose span rings, counters and budget ledger are read back over METRICS,
// STATS and BUDGET.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "net/client.h"
#include "net/codec.h"
#include "perfbench.h"
#include "rng/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using htdp::FitResult;
using htdp::StatusOr;
using htdp::net::Client;

constexpr int kSmallPool = 16;
constexpr int kMediumPool = 4;
constexpr int kTenants = 16;
constexpr double kZipfExponent = 1.1;
// One request in ten is a medium fit, so the open-loop p99 lies inside the
// medium-fit population and p90 on the boundary between the two.
constexpr std::uint64_t kMediumEvery = 10;
constexpr double kReaderHz = 20.0;     // BUDGET + STATS reads per second
constexpr int kWarmupFitsPerConnection = 8;
constexpr int kIdentitySamplesPerPhase = 6;
// Share of the run given to the open-loop phase; the rest measures capacity.
constexpr double kOpenShare = 0.6;
// Period at which the daemon's CPU time and the completed fits are sampled.
constexpr double kWindowSeconds = 0.25;

// --- The daemon as a child process ---------------------------------------

class Daemon {
 public:
  Daemon(const std::string& binary, const std::vector<std::string>& args,
         const std::string& log_path) {
    // Everything the child needs is built before fork(): other threads may
    // hold allocator locks at that moment.
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    int out[2];
    if (pipe(out) != 0) return;
    pid_ = fork();
    if (pid_ == 0) {
      // The daemon never outlives the load generator, however it ends.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      dup2(out[1], STDOUT_FILENO);
      const int log = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                           0644);
      if (log >= 0) dup2(log, STDERR_FILENO);
      close(out[0]);
      close(out[1]);
      execv(binary.c_str(), argv.data());
      _exit(127);
    }
    close(out[1]);
    if (pid_ < 0) {
      close(out[0]);
      return;
    }
    // "htdpd listening on HOST:PORT" is the first line on stdout.
    std::string line;
    const std::uint64_t deadline = NowNs() + 20'000'000'000ull;
    while (line.find('\n') == std::string::npos && NowNs() < deadline) {
      pollfd p{out[0], POLLIN, 0};
      if (::poll(&p, 1, 100) <= 0) continue;
      char buf[256];
      const ssize_t got = read(out[0], buf, sizeof(buf));
      if (got <= 0) break;
      line.append(buf, static_cast<std::size_t>(got));
    }
    close(out[0]);
    const std::size_t colon = line.rfind(':');
    if (line.rfind("htdpd listening on ", 0) == 0 && colon != std::string::npos) {
      port_ = static_cast<std::uint16_t>(std::atoi(line.c_str() + colon + 1));
    }
  }

  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool ok() const { return pid_ > 0 && port_ != 0; }
  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }

  /// SIGTERM drains and exits; waits for the process to be gone.
  void Stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    const std::uint64_t deadline = NowNs() + 20'000'000'000ull;
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (NowNs() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      usleep(2000);
    }
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

// --- Traffic --------------------------------------------------------------

struct Item {
  const ServeRequest* request = nullptr;
  std::string tenant;
  std::uint64_t seed = 0;
};

struct Inputs {
  std::vector<ServeRequest> small;
  std::vector<ServeRequest> medium;
  std::vector<double> zipf_cdf;  // tenant popularity
};

Inputs MakeInputs(std::uint64_t seed, bool tenants) {
  Inputs in;
  in.small = MakeSmallRequests(seed, kSmallPool);
  if (tenants) {
    in.medium = MakeMediumRequests(seed, kMediumPool);
    double total = 0.0;
    for (int k = 0; k < kTenants; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
      in.zipf_cdf.push_back(total);
    }
    for (double& c : in.zipf_cdf) c /= total;
  }
  return in;
}

std::string TenantName(int k) { return "tenant" + std::to_string(k); }

/// The deterministic request stream of one phase: item i is a pure function
/// of (seed, salt, i).
class Traffic {
 public:
  Traffic(const Inputs& inputs, bool tenants, std::uint64_t seed,
          std::uint64_t salt)
      : inputs_(inputs), tenants_(tenants), seed_(Mix64(seed ^ (salt << 48))) {}

  Item Fit(std::uint64_t i) const {
    Item item;
    const std::uint64_t h = Mix64(seed_ ^ (i * 0x9e3779b97f4a7c15ull));
    item.seed = h;
    const std::uint64_t h2 = Mix64(h);
    // Exactly one medium fit in every block of kMediumEvery, at a seeded
    // position, so every run carries the same mix.
    const std::uint64_t block = i / kMediumEvery;
    const bool medium = tenants_ && Mix64(seed_ ^ 0x3c3c3c3cull ^ block) %
                                            kMediumEvery ==
                                        i % kMediumEvery;
    if (medium) {
      item.request = &inputs_.medium[h2 % inputs_.medium.size()];
    } else {
      item.request = &inputs_.small[h2 % inputs_.small.size()];
    }
    if (tenants_) {
      const double v = static_cast<double>(Mix64(h2) >> 11) * 0x1.0p-53;
      int k = 0;
      while (k + 1 < kTenants && v > inputs_.zipf_cdf[static_cast<std::size_t>(k)]) ++k;
      item.tenant = TenantName(k);
    }
    return item;
  }

  bool Sampled(std::uint64_t i) const {
    return Mix64(seed_ ^ 0x5a5a5a5aull ^ i) % 64 == 0;
  }

 private:
  const Inputs& inputs_;
  bool tenants_;
  std::uint64_t seed_;
};

/// A daemon under load: the process, its connections and what the gate
/// needs to reconcile its ledger.
struct Target {
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<Client>> clients;
  std::mutex mu;  // guards the fields below
  std::map<std::string, double> spent;  // epsilon of every OK tenant fit
  std::size_t fits_ok = 0;
};

struct Stored {
  const ServeRequest* request;
  std::uint64_t seed;
  FitResult fit;
};

/// Shared state of the load threads.
struct Run {
  const Options* options = nullptr;
  bool tenants = false;
  Gate gate;
  std::mutex gate_mu;
  std::vector<Stored> stored;  // results sampled for the identity check
  std::size_t stored_this_phase = 0;
  double robust_elements = 0.0;  // rows x cols the measured fits read
  std::size_t medium_fits = 0;
  std::atomic<std::uint64_t> reads{0};
};

struct FitOutcome {
  bool ok = false;
  bool refused = false;
  double submit_ms = 0.0;
};

/// Submit + wait on one connection, then gate the result.
FitOutcome DoFit(Run& run, Target& target, Client& client, const Item& item,
                 bool sampled, bool measured) {
  FitOutcome out;
  htdp::net::SubmitRequest request = item.request->request;
  request.seed = item.seed;
  request.tenant = item.tenant;
  const std::uint64_t t0 = NowNs();
  StatusOr<std::uint64_t> job = client.Submit(request);
  out.submit_ms = static_cast<double>(NowNs() - t0) * 1e-6;
  if (!job.ok()) {
    out.refused = true;
    std::lock_guard<std::mutex> lock(run.gate_mu);
    run.gate.Fail("SUBMIT refused: " + job.status().ToString());
    return out;
  }
  StatusOr<FitResult> fit = client.WaitResult(job.value());
  if (!fit.ok()) {
    std::lock_guard<std::mutex> lock(run.gate_mu);
    run.gate.Fail("fit failed: " + fit.status().ToString());
    return out;
  }
  {
    std::lock_guard<std::mutex> lock(run.gate_mu);
    out.ok = run.gate.CheckFit(fit.value(), item.request->l1_radius,
                               item.request->medium ? "medium fit"
                                                    : "small fit");
    if (out.ok && sampled &&
        run.stored_this_phase < static_cast<std::size_t>(kIdentitySamplesPerPhase)) {
      ++run.stored_this_phase;
      run.stored.push_back({item.request, item.seed, fit.value()});
    }
    if (measured && out.ok) {
      run.robust_elements += RobustElements(item.request->n, item.request->d,
                                            fit.value().iterations);
      run.medium_fits += item.request->medium ? 1 : 0;
    }
  }
  if (out.ok) {
    std::lock_guard<std::mutex> lock(target.mu);
    ++target.fits_ok;
    if (!item.tenant.empty()) target.spent[item.tenant] += item.request->epsilon;
  }
  return out;
}

void DoRead(Run& run, Client& client, bool budget) {
  const bool ok = budget ? client.Budget().ok() : client.Stats().ok();
  run.reads.fetch_add(1);
  if (!ok) {
    std::lock_guard<std::mutex> lock(run.gate_mu);
    run.gate.Fail(budget ? "BUDGET read failed" : "STATS read failed");
  }
}

/// Fixed-rate reader slots, claimed by whichever load thread passes one.
class Reader {
 public:
  Reader(bool enabled, std::uint64_t start_ns)
      : enabled_(enabled), next_ns_(start_ns) {}
  /// Runs at most one due read on `client`.
  void MaybeRead(Run& run, Client& client) {
    if (!enabled_) return;
    std::uint64_t due = next_ns_.load();
    const std::uint64_t now = NowNs();
    if (now < due) return;
    const std::uint64_t step = static_cast<std::uint64_t>(1e9 / kReaderHz);
    if (!next_ns_.compare_exchange_strong(due, due + step)) return;
    DoRead(run, client, (due / step) % 2 == 0);
  }

 private:
  bool enabled_;
  std::atomic<std::uint64_t> next_ns_;
};

/// Runs `worker(c)` on every connection and, while they run, samples the
/// daemon's CPU time and the fits completed every kWindowSeconds.
template <typename Worker>
void Drive(Target& target, Phase& phase, const Worker& worker) {
  auto sample = [&](std::uint64_t now) {
    std::size_t fits;
    {
      std::lock_guard<std::mutex> lock(target.mu);
      fits = target.fits_ok;
    }
    phase.windows.push_back(
        {static_cast<double>(static_cast<std::int64_t>(now - phase.start_ns)) * 1e-9,
         ReadProcUsage(target.daemon->pid()).cpu_s, static_cast<double>(fits)});
  };
  sample(phase.start_ns);
  const int connections = static_cast<int>(target.clients.size());
  std::atomic<int> running{connections};
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      worker(c);
      running.fetch_sub(1);
    });
  }
  const std::uint64_t period = static_cast<std::uint64_t>(kWindowSeconds * 1e9);
  std::uint64_t next = phase.start_ns + period;
  while (running.load() > 0) {
    SleepUntilNs(std::min(next, NowNs() + 5'000'000));
    const std::uint64_t now = NowNs();
    if (now >= next) {
      sample(now);
      next += period;
    }
  }
  for (std::thread& th : threads) th.join();
  sample(NowNs());
}

Phase OpenLoop(Run& run, Target& target, const Inputs& inputs,
               double seconds, std::uint64_t salt) {
  const Options& options = *run.options;
  Traffic traffic(inputs, run.tenants, options.seed, salt);
  Phase phase;
  phase.name = "open";
  phase.open_loop = true;
  phase.offered_rps = options.rate;
  run.stored_this_phase = 0;

  // The schedule, fixed before the first send: a Poisson process
  // conditioned on its count, i.e. rate x seconds arrivals placed uniformly
  // at random, so every run offers the same load.
  htdp::Rng rng(Mix64(options.seed ^ salt ^ 0x0bu));
  const std::uint64_t start = NowNs() + 2'000'000;
  std::vector<std::uint64_t> due(
      static_cast<std::size_t>(std::llround(options.rate * seconds)));
  for (std::uint64_t& d : due) {
    d = start + static_cast<std::uint64_t>(rng.UniformUnit() * seconds * 1e9);
  }
  std::sort(due.begin(), due.end());
  phase.samples.resize(due.size());
  const std::uint64_t refuse_at =
      options.inject == "refuse" ? due.size() / 2 : due.size();

  Reader reader(run.tenants, start);
  std::atomic<std::size_t> next{0};
  auto worker = [&](int c) {
    Client& client = *target.clients[static_cast<std::size_t>(c)];
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= due.size()) break;
      Item item = traffic.Fit(i);
      if (i == refuse_at) item.tenant = "no_such_tenant";
      SleepUntilNs(due[i]);
      const std::uint64_t sent = NowNs();
      const FitOutcome out =
          DoFit(run, target, client, item, traffic.Sampled(i), true);
      Sample& s = phase.samples[i];
      s.ok = out.ok;
      s.refused = out.refused;
      s.submit_ms = out.submit_ms;
      s.lag_ms = static_cast<double>(sent - due[i]) * 1e-6;
      s.latency_ms = static_cast<double>(NowNs() - due[i]) * 1e-6;
      reader.MaybeRead(run, client);
    }
  };
  phase.start_ns = start;
  Drive(target, phase, worker);
  phase.end_ns = NowNs();
  return phase;
}

Phase ClosedLoop(Run& run, Target& target, const Inputs& inputs,
                 double seconds, std::uint64_t salt,
                 const char* name) {
  Traffic traffic(inputs, run.tenants, run.options->seed, salt);
  Phase phase;
  phase.name = name;
  run.stored_this_phase = 0;
  const std::uint64_t start = NowNs();
  const std::uint64_t deadline = start + static_cast<std::uint64_t>(seconds * 1e9);
  Reader reader(run.tenants, start);
  std::atomic<std::uint64_t> next{0};
  std::mutex samples_mu;
  auto worker = [&](int c) {
    Client& client = *target.clients[static_cast<std::size_t>(c)];
    while (NowNs() < deadline) {
      const std::uint64_t i = next.fetch_add(1);
      const std::uint64_t sent = NowNs();
      const FitOutcome out =
          DoFit(run, target, client, traffic.Fit(i), traffic.Sampled(i), true);
      const std::uint64_t done = NowNs();
      Sample s;
      s.ok = out.ok;
      s.refused = out.refused;
      s.submit_ms = out.submit_ms;
      s.latency_ms = static_cast<double>(done - sent) * 1e-6;
      // Capacity counts what completed inside the window.
      if (done <= deadline || !out.ok) {
        std::lock_guard<std::mutex> lock(samples_mu);
        phase.samples.push_back(s);
      }
      reader.MaybeRead(run, client);
    }
  };
  phase.start_ns = start;
  Drive(target, phase, worker);
  phase.end_ns = deadline;
  return phase;
}

std::unique_ptr<Target> StartTarget(const Options& options, const Inputs& inputs,
                                    bool tenants, bool traced,
                                    const std::string& tag, Run& run) {
  auto target = std::make_unique<Target>();
  std::vector<std::string> args = {"--port=0",
                                   traced ? "--trace=on" : "--trace=off"};
  if (traced) {
    // Holds the last second or more of the open-loop phase per thread,
    // while the whole dump stays under the 64 MiB frame limit.
    args.push_back("--trace-capacity=65536");
  }
  if (tenants) {
    const std::string dir = options.work_dir + "/state-" + tag;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);
    args.push_back("--state-dir=" + dir);
    for (int k = 0; k < kTenants; ++k) {
      // Budgets no run can exhaust.
      args.push_back("--tenant=" + TenantName(k) + "=1e12");
    }
  }
  target->daemon = std::make_unique<Daemon>(
      options.htdpd, args, options.work_dir + "/htdpd-" + tag + ".log");
  if (!target->daemon->ok()) {
    std::fprintf(stderr, "perfbench: htdpd did not start (see %s)\n",
                 (options.work_dir + "/htdpd-" + tag + ".log").c_str());
    return nullptr;
  }
  const int connections = std::max(1, Nproc());
  for (int c = 0; c < connections; ++c) {
    StatusOr<std::unique_ptr<Client>> client =
        Client::Connect("127.0.0.1", target->daemon->port());
    if (!client.ok()) {
      std::fprintf(stderr, "perfbench: connect: %s\n",
                   client.status().ToString().c_str());
      return nullptr;
    }
    target->clients.push_back(std::move(client).value());
  }
  // Warm-up: every connection runs a few fits of each size, in parallel.
  Traffic warm(inputs, tenants, options.seed, 0xAA);
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      for (int k = 0; k < kWarmupFitsPerConnection; ++k) {
        const std::uint64_t i =
            static_cast<std::uint64_t>(c * kWarmupFitsPerConnection + k);
        Item item = warm.Fit(i);
        if (tenants && k == 0) {
          item.request = &inputs.medium[static_cast<std::size_t>(c) %
                                        inputs.medium.size()];
        }
        DoFit(run, *target, *target->clients[static_cast<std::size_t>(c)],
              item, false, false);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  return target;
}

void StopTarget(std::unique_ptr<Target>& target) {
  if (!target) return;
  target->clients.clear();
  target->daemon->Stop();
}

/// Tenant spend in the daemon's BUDGET reply must equal the epsilon of the
/// fits this process saw committed. Every epsilon is a power of two, so
/// the sums are exact in any order.
void CheckBudget(Run& run, Target& target) {
  StatusOr<htdp::net::BudgetReply> budget = target.clients[0]->Budget();
  if (!budget.ok()) {
    run.gate.Fail("BUDGET: " + budget.status().ToString());
    return;
  }
  std::map<std::string, double> reported;
  for (const auto& row : budget.value().tenants) {
    reported[row.name] = row.spent.epsilon;
  }
  for (int k = 0; k < kTenants; ++k) {
    const std::string name = TenantName(k);
    ++run.gate.budget_checked;
    const double want = target.spent.count(name) ? target.spent[name] : 0.0;
    if (reported[name] != want) {
      run.gate.Fail("BUDGET: " + name + " spent " +
                    std::to_string(reported[name]) + " but committed fits sum to " +
                    std::to_string(want));
    }
  }
}

/// Recomputes every sampled daemon result with an in-process TryFit at the
/// same seed and thread count. Runs before the inputs the samples point
/// into are regenerated.
void CheckIdentity(Run& run) {
  for (std::size_t i = 0; i < run.stored.size(); ++i) {
    Stored& s = run.stored[i];
    if (run.gate.identity_checked == 0 && run.options->inject == "corrupt_w" &&
        !s.fit.w.empty()) {
      std::uint64_t bits;
      std::memcpy(&bits, &s.fit.w[0], sizeof(bits));
      bits ^= 1;
      std::memcpy(&s.fit.w[0], &bits, sizeof(bits));
    }
    StatusOr<std::unique_ptr<htdp::net::ProblemHolder>> holder =
        htdp::net::ProblemHolder::Materialize(s.request->request.problem);
    StatusOr<const htdp::Solver*> solver =
        htdp::SolverRegistry::Global().Find(s.request->request.solver);
    if (!holder.ok() || !solver.ok()) {
      run.gate.Fail("identity: cannot rebuild the request in-process");
      continue;
    }
    htdp::Rng rng(s.seed);
    StatusOr<FitResult> local = solver.value()->TryFit(
        holder.value()->problem(), s.request->request.spec, rng);
    if (!local.ok()) {
      run.gate.Fail("identity: in-process TryFit failed: " +
                    local.status().ToString());
      continue;
    }
    run.gate.CheckIdentical(s.fit, local.value(), "daemon result");
  }
  run.stored.clear();
}

/// Client-side codec costs measured by calling the public codec directly
/// on the requests of the traffic mix, and the bytes each fit moves.
void WriteCodecCosts(JsonWriter& json, const Inputs& inputs) {
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v.empty() ? 0.0 : v[v.size() / 2];
  };
  auto measure = [&](const std::vector<ServeRequest>& pool, const char* key) {
    if (pool.empty()) return;
    std::vector<double> encode_us;
    std::vector<double> decode_us;
    double request_bytes = 0.0;
    double result_bytes = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      for (const ServeRequest& r : pool) {
        std::uint64_t t0 = NowNs();
        htdp::net::WireWriter writer;
        htdp::net::EncodeSubmit(writer, r.request);
        const std::vector<std::uint8_t> frame = htdp::net::EncodeFrame(
            htdp::net::FrameType::kSubmit, writer.bytes());
        encode_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
        request_bytes = static_cast<double>(frame.size());

        // A result of this request's shape, encoded as the daemon does and
        // decoded as the client does.
        StatusOr<std::unique_ptr<htdp::net::ProblemHolder>> holder =
            htdp::net::ProblemHolder::Materialize(r.request.problem);
        htdp::Rng rng(static_cast<std::uint64_t>(rep + 1));
        StatusOr<FitResult> fit = htdp::SolverRegistry::Global()
                                      .Find(r.request.solver)
                                      .value()
                                      ->TryFit(holder.value()->problem(),
                                               r.request.spec, rng);
        if (!fit.ok()) continue;
        htdp::net::WireWriter body;
        htdp::net::EncodeFitResult(body, fit.value());
        result_bytes = static_cast<double>(body.bytes().size());
        t0 = NowNs();
        htdp::net::WireReader reader(body.bytes().data(), body.bytes().size());
        FitResult decoded;
        (void)htdp::net::DecodeFitResult(reader, &decoded);
        decode_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
      }
    }
    json.BeginObject(key);
    json.Number("encode_submit_us", median(encode_us));
    json.Number("decode_result_us", median(decode_us));
    json.Number("request_bytes", request_bytes);
    json.Number("result_bytes", result_bytes);
    json.EndObject();
  };
  json.BeginObject("codec");
  measure(inputs.small, "small");
  measure(inputs.medium, "medium");
  json.EndObject();
}

struct Snapshot {
  std::string metrics_json;
  htdp::net::StatsReply stats;
  htdp::net::BudgetReply budget;
};

std::optional<Snapshot> TakeSnapshot(Client& client) {
  Snapshot s;
  auto metrics = client.Metrics(htdp::net::MetricsFormat::kJson);
  auto stats = client.Stats();
  auto budget = client.Budget();
  if (!metrics.ok() || !stats.ok() || !budget.ok()) return std::nullopt;
  s.metrics_json = metrics.value().body;
  s.stats = stats.value();
  s.budget = budget.value();
  return s;
}

void WriteSnapshot(JsonWriter& json, const char* key, const Snapshot& s,
                   const std::string& metrics_path) {
  json.BeginObject(key);
  json.String("metrics_file", metrics_path);
  json.Int("completed", s.stats.engine.completed);
  json.Int("succeeded", s.stats.engine.succeeded);
  json.Int("steals", s.stats.engine.steals);
  json.Int("shed", s.stats.engine.unavailable_rejected + s.stats.engine.shed_expired);
  json.Int("journal_records", s.budget.journal_records);
  json.EndObject();
}

}  // namespace

int RunServe(const Options& options) {
  const bool tenants = options.workload == "serve_tenants";
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  Run run;
  run.options = &options;
  run.tenants = tenants;

  JsonWriter json;
  json.BeginObject();
  WriteProvenance(json, options);

  std::vector<double> setup_s;
  std::vector<Phase> phases;
  Inputs inputs;
  const double open_s = options.seconds * kOpenShare;
  const double closed_s = options.seconds - open_s;
  std::unique_ptr<Target> target;  // untraced
  std::unique_ptr<Target> traced;  // trace runs only
  // Set-up ends when the first timed request is sent.
  // Every set-up generates its own inputs from (seed, set-up), so a run
  // averages over as many data sets as it starts daemons.
  auto set_up = [&](const std::string& tag) {
    const std::uint64_t t0 = NowNs();
    inputs = MakeInputs(Mix64(options.seed ^ (setup_s.size() << 32)), tenants);
    target = StartTarget(options, inputs, tenants, false, tag, run);
    setup_s.push_back(SecondsSince(t0));
    return target != nullptr;
  };
  if (!options.trace) {
    // Every set-up starts its own daemon and measures an equal share of the
    // run on it. A daemon settles into one of a few steady states for its
    // whole life (seen on serve_tenants), so the run reports the mean over
    // its daemons rather than the luck of one.
    const int instances = options.setups;
    json.BeginArray("instances");
    for (int k = 0; k < instances; ++k) {
      if (!set_up("plain-" + std::to_string(k))) return 1;
      const std::uint64_t salt = 1 + 2 * static_cast<std::uint64_t>(k);
      phases.push_back(
          OpenLoop(run, *target, inputs, open_s / instances, salt));
      phases.push_back(ClosedLoop(run, *target, inputs, closed_s / instances,
                                  salt + 1, "closed"));
      phases[phases.size() - 2].instance = k;
      phases.back().instance = k;
      json.BeginObject();
      json.Number("peak_rss_mb",
                  ReadProcUsage(target->daemon->pid()).peak_rss_mb);
      json.EndObject();
      CheckIdentity(run);
      if (tenants) CheckBudget(run, *target);
      StopTarget(target);
    }
    json.EndArray();
    json.Numbers("setup_s", setup_s);
  } else {
    // Tracing overhead: each set-up starts an untraced and a traced daemon
    // and alternates capacity slices between them ABBA, so drift cancels;
    // the run averages over the pairs. The two slices of a pair replay the
    // same request stream.
    const int pairs = options.setups;
    for (int k = 0; k < pairs; ++k) {
      if (k > 0) {
        CheckIdentity(run);
        if (tenants) {
          CheckBudget(run, *target);
          CheckBudget(run, *traced);
        }
        StopTarget(target);
        StopTarget(traced);
      }
      if (!set_up("plain-" + std::to_string(k))) return 1;
      traced = StartTarget(options, inputs, tenants, true,
                           "traced-" + std::to_string(k), run);
      if (!traced) return 1;
      for (int j = 0; j < 4; ++j) {
        const bool on = j == 1 || j == 2;
        phases.push_back(ClosedLoop(
            run, on ? *traced : *target, inputs, closed_s / (4 * pairs),
            static_cast<std::uint64_t>(10 + 2 * k + j / 2),
            on ? "closed_traced" : "closed_untraced"));
        phases.back().instance = k;
      }
    }
    json.Numbers("setup_s", setup_s);
    // The per-layer split: an open-loop phase on the last traced daemon.
    const std::optional<Snapshot> before = TakeSnapshot(*traced->clients[0]);
    run.robust_elements = 0.0;
    run.medium_fits = 0;
    phases.push_back(OpenLoop(run, *traced, inputs, open_s, 3));
    const std::optional<Snapshot> after = TakeSnapshot(*traced->clients[0]);
    auto trace = traced->clients[0]->Metrics(htdp::net::MetricsFormat::kTraceChrome);
    if (!before || !after || !trace.ok()) {
      std::fprintf(stderr, "perfbench: reading the traced daemon back failed\n");
      return 1;
    }
    const std::string stem = options.work_dir + "/" + options.workload;
    WriteFile(stem + "-trace.json", trace.value().body);
    WriteFile(stem + "-metrics-before.json", before->metrics_json);
    WriteFile(stem + "-metrics-after.json", after->metrics_json);
    json.BeginObject("layers");
    json.String("trace_file", stem + "-trace.json");
    WriteSnapshot(json, "before", *before, stem + "-metrics-before.json");
    WriteSnapshot(json, "after", *after, stem + "-metrics-after.json");
    json.Number("robust_elements", run.robust_elements);
    json.Int("medium_fits", run.medium_fits);
    WriteCodecCosts(json, inputs);
    json.EndObject();
  }

  // The gate: identity sample, then the ledger.
  CheckIdentity(run);
  if (tenants && traced) {
    CheckBudget(run, *target);
    CheckBudget(run, *traced);
  }
  StopTarget(target);
  StopTarget(traced);

  json.BeginArray("phases");
  for (const Phase& p : phases) p.Write(json);
  json.EndArray();
  json.Int("reads", run.reads.load());
  run.gate.Write(json);
  json.EndObject();
  if (!WriteFile(options.out, json.str())) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", options.out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace perfbench
