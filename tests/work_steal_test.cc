// Tests for the Engine's scheduler: one FIFO queue under the engine mutex,
// shared by every worker. A single worker runs queued jobs in submission
// order; nothing pins a tenant's jobs to one worker; a multi-worker stress
// run stays bit-identical to sequential TryFit; and Cancel/Shutdown racing
// worker pops complete every job exactly once. (The target keeps the name
// it had when the scheduler was a set of work-stealing deques, so existing
// test selectors still match it.) Runs on the TSan and chaos-ASan CI legs:
// the Cancel/Shutdown-vs-pop and stress tests are the data-race and
// double-completion probes for the queue.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/htdp.h"
#include "gtest/gtest.h"

namespace htdp {
namespace {

Dataset SchedulerTestData(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  SyntheticConfig config;
  config.n = n;
  config.d = d;
  config.feature_dist = ScalarDistribution::Lognormal(0.0, 0.6);
  config.noise_dist = ScalarDistribution::Normal(0.0, 0.1);
  const Vector w_star = MakeL1BallTarget(d, rng);
  return GenerateLinear(config, w_star, rng);
}

/// The workload every job below fits (engine_test's shared workload).
struct SharedWorkload {
  SharedWorkload() : data(SchedulerTestData(600, 12, 17)), ball(12, 1.0) {}

  FitJob JobFor(const std::string& name, std::uint64_t seed) const {
    const Solver* solver = *SolverRegistry::Global().Find(name);
    FitJob job;
    job.solver_name = name;
    job.problem.loss = &loss;
    job.problem.data = &data;
    job.problem.target_sparsity = 3;
    if (solver->requires_constraint()) job.problem.constraint = &ball;
    job.spec.budget = solver->supports_pure_dp()
                          ? PrivacyBudget::Pure(1.0)
                          : PrivacyBudget::Approx(1.0, 1e-5);
    job.spec.tau = 4.0;
    job.spec.step = 0.02;
    job.seed = seed;
    job.tag = name;
    return job;
  }

  Dataset data;
  SquaredLoss loss;
  L1Ball ball;
};

/// Parks every job that reaches a worker inside its fit until released.
/// Counts arrivals so a test can wait until N workers are provably inside
/// fits.
struct WorkerGate {
  std::atomic<int> reached{0};
  std::atomic<bool> release{false};

  std::function<bool()> Hook() {
    return [this] {
      reached.fetch_add(1);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return false;
    };
  }
  void AwaitReached(int n = 1) {
    while (reached.load() < n) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
};


TEST(EngineSchedulerTest, SingleWorkerRunsQueuedJobsInSubmissionOrder) {
  const SharedWorkload workload;
  Engine engine(Engine::Options{1});
  WorkerGate gate;

  FitJob blocker = workload.JobFor(kSolverAlg1DpFw, 40);
  blocker.spec.should_stop = gate.Hook();  // parks the only worker
  const JobHandle running = engine.Submit(std::move(blocker));
  gate.AwaitReached();

  // Each queued job logs its index at every should_stop poll; one worker
  // runs them back to back, so the log's runs of equal indices give the
  // order in which the jobs started.
  constexpr int kQueued = 6;
  std::mutex log_mu;
  std::vector<int> log;
  std::vector<JobHandle> queued;
  for (int i = 0; i < kQueued; ++i) {
    FitJob job =
        workload.JobFor(kSolverAlg1DpFw, 41 + static_cast<std::uint64_t>(i));
    job.spec.should_stop = [i, &log_mu, &log] {
      const std::lock_guard<std::mutex> lock(log_mu);
      log.push_back(i);
      return false;
    };
    queued.push_back(engine.Submit(std::move(job)));
  }
  EXPECT_EQ(engine.stats().queue_depth, static_cast<std::size_t>(kQueued));

  gate.release.store(true);
  EXPECT_TRUE(running.Wait().ok());
  for (const JobHandle& handle : queued) EXPECT_TRUE(handle.Wait().ok());

  std::vector<int> started;
  for (const int i : log) {
    if (started.empty() || started.back() != i) started.push_back(i);
  }
  std::vector<int> expected(kQueued);
  for (int i = 0; i < kQueued; ++i) expected[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(started, expected);
}

TEST(EngineSchedulerTest, OneTenantsGatedJobsRunOnTwoWorkersAtOnce) {
  // Nothing pins a tenant's jobs to one worker: two gated jobs from the
  // same tenant must both be inside fits at once (AwaitReached(2) returns
  // only then).
  const SharedWorkload workload;
  BudgetManager budgets;
  ASSERT_TRUE(
      budgets.RegisterTenant("pair", PrivacyBudget::Pure(100.0)).ok());
  Engine engine(Engine::Options{/*workers=*/2, &budgets});

  WorkerGate gate;
  std::vector<JobHandle> handles;
  for (int i = 0; i < 2; ++i) {
    FitJob job =
        workload.JobFor(kSolverAlg1DpFw, 300 + static_cast<std::uint64_t>(i));
    job.tenant = "pair";
    job.spec.should_stop = gate.Hook();
    handles.push_back(engine.Submit(std::move(job)));
  }
  gate.AwaitReached(2);
  EXPECT_EQ(engine.stats().running, 2u);

  gate.release.store(true);
  for (const JobHandle& handle : handles) EXPECT_TRUE(handle.Wait().ok());
  EXPECT_EQ(engine.stats().succeeded, 2u);
}

TEST(EngineSchedulerTest, StressDrainsEveryJobAcrossWorkersBitIdentically) {
  // Throughput-shaped soak: many short jobs across several workers, with
  // every result checked against the sequential fit at the same seed --
  // which worker runs a job must never change which Rng runs it.
  const SharedWorkload workload;
  Engine engine(Engine::Options{/*workers=*/4});
  const Solver* solver = *SolverRegistry::Global().Find(kSolverAlg1DpFw);

  constexpr std::uint64_t kJobs = 24;
  std::vector<JobHandle> handles;
  for (std::uint64_t seed = 0; seed < kJobs; ++seed) {
    handles.push_back(engine.Submit(workload.JobFor(kSolverAlg1DpFw, seed)));
  }
  for (std::uint64_t seed = 0; seed < kJobs; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const StatusOr<FitResult>& concurrent = handles[seed].Wait();
    ASSERT_TRUE(concurrent.ok()) << concurrent.status().ToString();
    const FitJob job = workload.JobFor(kSolverAlg1DpFw, seed);
    Rng rng(seed);
    const StatusOr<FitResult> sequential =
        solver->TryFit(job.problem, job.spec, rng);
    ASSERT_TRUE(sequential.ok());
    ASSERT_EQ(concurrent->w.size(), sequential->w.size());
    for (std::size_t j = 0; j < sequential->w.size(); ++j) {
      EXPECT_EQ(concurrent->w[j], sequential->w[j]);
    }
  }
  engine.Drain();
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.succeeded, kJobs);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.steals, 0u);
}

TEST(EngineSchedulerTest, CancelAndShutdownRacingPopsCompleteEveryJobOnce) {
  // Cancel() erases queued jobs and Shutdown() sweeps the rest while four
  // workers pop the same queue: whichever path takes a job out of the queue
  // completes it, so every job completes exactly once and the counters add
  // up. The sanitizer legs run this for data races and double completion.
  const SharedWorkload workload;
  Engine engine(Engine::Options{/*workers=*/4});
  constexpr std::size_t kJobs = 64;
  std::vector<JobHandle> handles;
  for (std::size_t i = 0; i < kJobs; ++i) {
    handles.push_back(engine.Submit(workload.JobFor(kSolverAlg1DpFw, 500 + i)));
  }
  std::thread canceller([&handles] {
    for (std::size_t i = 0; i < kJobs; i += 2) handles[i].Cancel();
  });
  canceller.join();
  engine.Shutdown();

  std::size_t succeeded = 0;
  std::size_t cancelled = 0;
  for (const JobHandle& handle : handles) {
    const StatusOr<FitResult>& result = handle.Wait();
    if (result.ok()) {
      ++succeeded;
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
      ++cancelled;
    }
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(succeeded + cancelled, kJobs);
  EXPECT_EQ(stats.completed, kJobs);
  EXPECT_EQ(stats.succeeded, succeeded);
  EXPECT_EQ(stats.cancelled, cancelled);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.running, 0u);
}

}  // namespace
}  // namespace htdp
