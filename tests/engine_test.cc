// Tests for the concurrent Engine job layer: bit-identical results to
// sequential TryFit at fixed seeds for every registered solver, non-aborting
// typed error statuses through Submit, cancellation (queued and running),
// wall-clock deadlines, shutdown semantics, and aggregate EngineStats.

#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "core/htdp.h"
#include "gtest/gtest.h"
#include "harness/experiment.h"
#include "harness/scenario.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/simd.h"

namespace htdp {
namespace {

Dataset EngineTestData(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  SyntheticConfig config;
  config.n = n;
  config.d = d;
  config.feature_dist = ScalarDistribution::Lognormal(0.0, 0.6);
  config.noise_dist = ScalarDistribution::Normal(0.0, 0.1);
  const Vector w_star = MakeL1BallTarget(d, rng);
  return GenerateLinear(config, w_star, rng);
}

/// The shared workload of the bit-identity tests: every registered solver
/// can fit it (constraint and sparsity target both present).
struct SharedWorkload {
  SharedWorkload() : data(EngineTestData(600, 12, 17)), ball(12, 1.0) {}

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

TEST(EngineTest, EverySolverBitIdenticalToSequentialTryFit) {
  const SharedWorkload workload;
  Engine engine(Engine::Options{/*workers=*/4});

  // Submit every solver several times with distinct seeds, all concurrent.
  const std::vector<std::string> names = SolverRegistry::Global().Names();
  std::vector<JobHandle> handles;
  for (const std::string& name : names) {
    for (std::uint64_t seed : {5u, 99u, 1234u}) {
      handles.push_back(engine.Submit(workload.JobFor(name, seed)));
    }
  }

  std::size_t index = 0;
  for (const std::string& name : names) {
    const Solver* solver = *SolverRegistry::Global().Find(name);
    for (std::uint64_t seed : {5u, 99u, 1234u}) {
      SCOPED_TRACE(name + " seed=" + std::to_string(seed));
      const StatusOr<FitResult>& concurrent = handles[index++].Wait();
      ASSERT_TRUE(concurrent.ok()) << concurrent.status().ToString();

      const FitJob job = workload.JobFor(name, seed);
      Rng rng(seed);
      const StatusOr<FitResult> sequential =
          solver->TryFit(job.problem, job.spec, rng);
      ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();

      ASSERT_EQ(concurrent->w.size(), sequential->w.size());
      for (std::size_t j = 0; j < sequential->w.size(); ++j) {
        EXPECT_EQ(concurrent->w[j], sequential->w[j]);
      }
      EXPECT_EQ(concurrent->iterations, sequential->iterations);
      EXPECT_EQ(concurrent->ledger.entries().size(),
                sequential->ledger.entries().size());
      EXPECT_EQ(concurrent->selected, sequential->selected);
    }
  }

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, handles.size());
  EXPECT_EQ(stats.completed, handles.size());
  EXPECT_EQ(stats.succeeded, handles.size());
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.running, 0u);
  EXPECT_GT(stats.jobs_per_second, 0.0);
}

TEST(EngineTest, ExplicitRngStreamOverridesSeed) {
  const SharedWorkload workload;
  Engine engine(Engine::Options{2});

  // A mid-stream generator (as the harness hands over after data
  // generation) must be honored verbatim.
  Rng stream(7);
  stream.Next();
  stream.Next();
  FitJob job = workload.JobFor(kSolverAlg1DpFw, /*seed=*/0);
  job.rng = stream;  // overrides seed
  const JobHandle handle = engine.Submit(std::move(job));

  Rng reference_rng(7);
  reference_rng.Next();
  reference_rng.Next();
  const FitJob reference_job = workload.JobFor(kSolverAlg1DpFw, 0);
  const Solver* solver = *SolverRegistry::Global().Find(kSolverAlg1DpFw);
  const StatusOr<FitResult> reference =
      solver->TryFit(reference_job.problem, reference_job.spec,
                     reference_rng);
  ASSERT_TRUE(reference.ok());

  const StatusOr<FitResult>& fit = handle.Wait();
  ASSERT_TRUE(fit.ok());
  for (std::size_t j = 0; j < reference->w.size(); ++j) {
    EXPECT_EQ(fit->w[j], reference->w[j]);
  }
}

TEST(EngineTest, SubmitNeverAbortsOnUserError) {
  const SharedWorkload workload;
  Engine engine(Engine::Options{2});

  {
    // Unknown solver name: typed status listing the registered names.
    FitJob job = workload.JobFor(kSolverAlg1DpFw, 1);
    job.solver_name = "no_such_solver";
    const JobHandle handle = engine.Submit(std::move(job));
    const StatusOr<FitResult>& fit = handle.Wait();
    ASSERT_FALSE(fit.ok());
    EXPECT_EQ(fit.status().code(), StatusCode::kUnknownSolver);
    EXPECT_NE(fit.status().message().find(kSolverAlg5SparseOpt),
              std::string::npos);
  }
  {
    // Unfundable budget.
    FitJob job = workload.JobFor(kSolverAlg1DpFw, 2);
    job.spec.budget.epsilon = -1.0;
    const JobHandle handle = engine.Submit(std::move(job));
    const StatusOr<FitResult>& fit = handle.Wait();
    ASSERT_FALSE(fit.ok());
    EXPECT_EQ(fit.status().code(), StatusCode::kBudgetExhausted);
  }
  {
    // Missing constraint.
    FitJob job = workload.JobFor(kSolverAlg1DpFw, 3);
    job.problem.constraint = nullptr;
    const JobHandle handle = engine.Submit(std::move(job));
    const StatusOr<FitResult>& fit = handle.Wait();
    ASSERT_FALSE(fit.ok());
    EXPECT_EQ(fit.status().code(), StatusCode::kInvalidProblem);
  }
  {
    // Shape mismatch.
    FitJob job = workload.JobFor(kSolverBaselineRobustGd, 4);
    job.problem.w0 = Vector(5, 0.0);
    const JobHandle handle = engine.Submit(std::move(job));
    const StatusOr<FitResult>& fit = handle.Wait();
    ASSERT_FALSE(fit.ok());
    EXPECT_EQ(fit.status().code(), StatusCode::kShapeMismatch);
  }

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.failed, 4u);
  EXPECT_EQ(stats.succeeded, 0u);
}

/// Blocks a single-worker engine inside a fit until released, so queue
/// behavior can be tested deterministically.
struct WorkerGate {
  std::atomic<bool> reached{false};
  std::atomic<bool> release{false};

  std::function<bool()> Hook() {
    return [this] {
      reached.store(true);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return false;
    };
  }
  void AwaitReached() {
    while (!reached.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
};

TEST(EngineTest, CancelQueuedJob) {
  const SharedWorkload workload;
  Engine engine(Engine::Options{1});
  WorkerGate gate;

  FitJob blocker = workload.JobFor(kSolverAlg1DpFw, 11);
  blocker.spec.should_stop = gate.Hook();  // parks the only worker
  const JobHandle running = engine.Submit(std::move(blocker));
  gate.AwaitReached();

  JobHandle queued = engine.Submit(workload.JobFor(kSolverAlg1DpFw, 12));
  EXPECT_EQ(engine.stats().queue_depth, 1u);
  queued.Cancel();

  // The cancellation is visible immediately -- result, done() AND the
  // engine counters -- while the only worker is still parked inside the
  // blocking job, before anything dequeues.
  EXPECT_TRUE(queued.done());
  const StatusOr<FitResult>& cancelled = queued.Wait();
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(engine.stats().queue_depth, 0u);
  EXPECT_EQ(engine.stats().cancelled, 1u);
  gate.release.store(true);

  // The blocking job itself ran to completion: its hook always returned
  // false, so the fit is bit-identical to an unhooked sequential run.
  const StatusOr<FitResult>& blocked = running.Wait();
  ASSERT_TRUE(blocked.ok()) << blocked.status().ToString();
  const FitJob reference_job = workload.JobFor(kSolverAlg1DpFw, 11);
  Rng rng(11);
  const Solver* solver = *SolverRegistry::Global().Find(kSolverAlg1DpFw);
  const StatusOr<FitResult> reference =
      solver->TryFit(reference_job.problem, reference_job.spec, rng);
  ASSERT_TRUE(reference.ok());
  for (std::size_t j = 0; j < reference->w.size(); ++j) {
    EXPECT_EQ(blocked->w[j], reference->w[j]);
  }

  engine.Drain();
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.succeeded, 1u);
}

TEST(EngineTest, CancelRunningJobStopsCooperatively) {
  const SharedWorkload workload;
  Engine engine(Engine::Options{1});
  WorkerGate gate;

  // The gate parks the fit inside its first should_stop poll -- AFTER the
  // Engine's wrapped hook checked the (still clear) cancel flag, so the
  // first iteration proceeds once released. The cancellation then lands
  // deterministically at the second poll, with no timing window.
  FitJob job = workload.JobFor(kSolverAlg1DpFw, 13);
  job.spec.iterations = 20;  // >= 2 iterations so a later poll sees the flag
  job.spec.should_stop = gate.Hook();
  JobHandle handle = engine.Submit(std::move(job));
  gate.AwaitReached();  // the job is mid-fit now
  handle.Cancel();
  gate.release.store(true);

  const StatusOr<FitResult>& fit = handle.Wait();
  ASSERT_FALSE(fit.ok());
  EXPECT_EQ(fit.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(engine.stats().cancelled, 1u);
}

TEST(EngineTest, DeadlineExceededWhileQueued) {
  const SharedWorkload workload;
  Engine engine(Engine::Options{1});
  WorkerGate gate;

  FitJob blocker = workload.JobFor(kSolverAlg1DpFw, 21);
  blocker.spec.should_stop = gate.Hook();
  const JobHandle running = engine.Submit(std::move(blocker));
  gate.AwaitReached();

  FitJob hurried = workload.JobFor(kSolverAlg1DpFw, 22);
  hurried.deadline_seconds = 1e-4;
  const JobHandle late = engine.Submit(std::move(hurried));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  gate.release.store(true);

  const StatusOr<FitResult>& fit = late.Wait();
  ASSERT_FALSE(fit.ok());
  EXPECT_EQ(fit.status().code(), StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(running.Wait().ok());
  EXPECT_EQ(engine.stats().deadline_exceeded, 1u);
}

TEST(EngineTest, DeadlineExceededMidFit) {
  const SharedWorkload workload;
  Engine engine(Engine::Options{1});

  FitJob job = workload.JobFor(kSolverAlg1DpFw, 23);
  job.spec.iterations = 400;
  job.spec.observer = [](const IterationEvent&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  job.deadline_seconds = 0.05;
  const JobHandle handle = engine.Submit(std::move(job));
  const StatusOr<FitResult>& fit = handle.Wait();
  ASSERT_FALSE(fit.ok());
  EXPECT_EQ(fit.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(EngineTest, DeadlineExceededOnLateSuccess) {
  // alg4 polls should_stop only once, before its single pass, so a short
  // deadline cannot interrupt it -- the contract still holds because the
  // Engine rejects the late result after the fit returns.
  const SharedWorkload workload;
  Engine engine(Engine::Options{1});

  FitJob job = workload.JobFor(kSolverAlg4Peeling, 25);
  job.spec.observer = [](const IterationEvent&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  };
  job.deadline_seconds = 0.005;
  const JobHandle handle = engine.Submit(std::move(job));
  const StatusOr<FitResult>& fit = handle.Wait();
  ASSERT_FALSE(fit.ok());
  EXPECT_EQ(fit.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(engine.stats().deadline_exceeded, 1u);
}

TEST(EngineTest, ShutdownCancelsQueuedAndRejectsLateSubmits) {
  const SharedWorkload workload;
  Engine engine(Engine::Options{1});
  WorkerGate gate;

  FitJob blocker = workload.JobFor(kSolverAlg1DpFw, 31);
  blocker.spec.should_stop = gate.Hook();
  const JobHandle running = engine.Submit(std::move(blocker));
  gate.AwaitReached();
  const JobHandle queued = engine.Submit(workload.JobFor(kSolverAlg1DpFw, 32));

  // Shutdown must cancel the queued job and wait for the running one; the
  // release flips first so Shutdown's join can finish.
  gate.release.store(true);
  engine.Shutdown();

  EXPECT_TRUE(running.Wait().ok());
  const StatusOr<FitResult>& cancelled = queued.Wait();
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);

  const JobHandle late_handle =
      engine.Submit(workload.JobFor(kSolverAlg1DpFw, 33));
  const StatusOr<FitResult>& late = late_handle.Wait();
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kCancelled);
}

TEST(EngineTest, DrainWaitsForAllJobs) {
  const SharedWorkload workload;
  Engine engine(Engine::Options{3});
  const int jobs = 12;
  std::vector<JobHandle> handles;
  for (int i = 0; i < jobs; ++i) {
    handles.push_back(engine.Submit(
        workload.JobFor(kSolverAlg5SparseOpt, 100 + static_cast<std::uint64_t>(i))));
  }
  engine.Drain();
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.completed, static_cast<std::size_t>(jobs));
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.running, 0u);
  for (const JobHandle& handle : handles) EXPECT_TRUE(handle.done());
}

/// Regression for the jobs_per_sec rate: it is derived from the monotonic
/// clock (obs/clock.h), so it can never go negative or non-finite, no
/// matter what the wall clock does, and uptime only moves forward.
TEST(EngineTest, JobsPerSecondIsMonotonicClockDerived) {
  const SharedWorkload workload;
  Engine engine(Engine::Options{2});

  const EngineStats before = engine.stats();
  EXPECT_GE(before.uptime_seconds, 0.0);
  EXPECT_GE(before.jobs_per_second, 0.0);
  EXPECT_TRUE(std::isfinite(before.jobs_per_second));

  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    JobHandle handle = engine.Submit(workload.JobFor(kSolverAlg1DpFw, seed));
    handle.Wait();
  }

  const EngineStats after = engine.stats();
  EXPECT_GE(after.uptime_seconds, before.uptime_seconds);
  EXPECT_GT(after.jobs_per_second, 0.0);
  EXPECT_TRUE(std::isfinite(after.jobs_per_second));

  // Repeated snapshots stay sane (no negative rates, ever).
  for (int i = 0; i < 16; ++i) {
    const EngineStats snap = engine.stats();
    EXPECT_GE(snap.jobs_per_second, 0.0);
    EXPECT_TRUE(std::isfinite(snap.jobs_per_second));
  }
}

/// Constructing an Engine tags the metrics export with the runtime config:
/// an info-style gauge whose labels carry the dispatched SIMD ISA and the
/// worker-thread count (the value itself is a constant 1).
TEST(EngineTest, RuntimeInfoGaugeTagsSimdModeAndThreadCount) {
  Engine engine(Engine::Options{3});
  const std::string text = obs::MetricRegistry::Global().ToPrometheus();
  const std::string expected =
      std::string("htdp_runtime_info{simd=\"") +
      (SimdEnabled() ? SimdInfo().isa : "off") + "\",threads=\"3\"} 1";
  EXPECT_NE(text.find(expected), std::string::npos) << text;
}

/// Span integrity under the worker pool (the TSan CI leg runs this suite):
/// every worker thread's ring holds well-formed spans in close order, the
/// engine.job spans appear once per executed job, and iteration spans nest
/// strictly inside them (depth > 0 on the same thread).
TEST(EngineTest, TraceSpansNestCorrectlyUnderWorkerPool) {
  obs::ClearTrace();
  // Worker threads are created by the Engine below, so they pick up this
  // capacity -- big enough that iteration spans cannot evict the job spans.
  const std::size_t saved_capacity = obs::TraceCapacity();
  obs::SetTraceCapacity(1u << 16);
  obs::SetTraceEnabled(true);

  const SharedWorkload workload;
  const int jobs = 8;
  {
    Engine engine(Engine::Options{4});
    std::vector<JobHandle> handles;
    for (int i = 0; i < jobs; ++i) {
      handles.push_back(engine.Submit(
          workload.JobFor(kSolverAlg1DpFw, static_cast<std::uint64_t>(i))));
    }
    for (JobHandle& handle : handles) {
      ASSERT_TRUE(handle.Wait().ok());
    }
  }
  obs::SetTraceEnabled(false);

  std::size_t job_spans = 0;
  std::size_t iteration_spans = 0;
  std::size_t queue_wait_spans = 0;
  for (const obs::ThreadTrace& t : obs::CollectTrace()) {
    std::uint64_t last_end = 0;
    for (const obs::Span& s : t.spans) {
      ASSERT_NE(s.name, nullptr);
      EXPECT_LE(s.start_ns, s.end_ns);
      EXPECT_GE(s.end_ns, last_end);  // rings record in close order
      last_end = s.end_ns;
      const std::string name(s.name);
      if (name == "engine.job") {
        job_spans++;
        EXPECT_EQ(s.depth, 0u);  // top of the worker's stack
      } else if (name == "alg1.iteration") {
        iteration_spans++;
        EXPECT_GT(s.depth, 0u);  // strictly inside engine.job
      } else if (name == "engine.queue_wait") {
        queue_wait_spans++;
      }
    }
  }
  obs::ClearTrace();
  obs::SetTraceCapacity(saved_capacity);
  EXPECT_EQ(job_spans, static_cast<std::size_t>(jobs));
  EXPECT_EQ(queue_wait_spans, static_cast<std::size_t>(jobs));
  EXPECT_GT(iteration_spans, 0u);
}

// ---------------------------------------------------------------------------
// Tenant budgets: shared named budgets enforced at Submit via the
// BudgetManager (api/budget_manager.h).
// ---------------------------------------------------------------------------

TEST(BudgetManagerTest, RegisterReserveRefundLifecycle) {
  BudgetManager budgets;
  ASSERT_TRUE(budgets.RegisterTenant("team-a", PrivacyBudget::Approx(2.0, 1e-4))
                  .ok());
  EXPECT_EQ(budgets.RegisterTenant("team-a", PrivacyBudget::Pure(1.0)).code(),
            StatusCode::kInvalidProblem);  // duplicate
  EXPECT_EQ(
      budgets.RegisterTenant("broke", PrivacyBudget::Approx(-1.0, 0.0)).code(),
      StatusCode::kBudgetExhausted);  // unfundable total

  ASSERT_TRUE(
      budgets.TryReserve("team-a", PrivacyBudget::Approx(1.5, 5e-5)).ok());
  const StatusOr<PrivacyBudget> remaining = budgets.Remaining("team-a");
  ASSERT_TRUE(remaining.ok());
  EXPECT_NEAR(remaining->epsilon, 0.5, 1e-12);
  EXPECT_NEAR(remaining->delta, 5e-5, 1e-15);

  // Does not fit anymore -> typed kBudgetExhausted naming the remainder.
  const Status rejected =
      budgets.TryReserve("team-a", PrivacyBudget::Approx(1.0, 1e-5));
  EXPECT_EQ(rejected.code(), StatusCode::kBudgetExhausted);
  EXPECT_NE(rejected.message().find("remaining"), std::string::npos);

  // Refund restores headroom.
  budgets.Refund("team-a", PrivacyBudget::Approx(1.5, 5e-5));
  EXPECT_TRUE(
      budgets.TryReserve("team-a", PrivacyBudget::Approx(1.0, 1e-5)).ok());

  EXPECT_EQ(budgets.TryReserve("never-registered", PrivacyBudget::Pure(0.1))
                .code(),
            StatusCode::kInvalidProblem);
  const auto stats = budgets.Stats("team-a");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->admitted, 2u);
  EXPECT_EQ(stats->rejected, 1u);
  EXPECT_EQ(stats->refunded, 1u);
}

TEST(BudgetManagerTest, PureTenantCannotFundApproxJobs) {
  BudgetManager budgets;
  ASSERT_TRUE(budgets.RegisterTenant("pure", PrivacyBudget::Pure(5.0)).ok());
  EXPECT_TRUE(budgets.TryReserve("pure", PrivacyBudget::Pure(1.0)).ok());
  EXPECT_EQ(budgets.TryReserve("pure", PrivacyBudget::Approx(1.0, 1e-6))
                .code(),
            StatusCode::kBudgetExhausted);
}

TEST(EngineTenantTest, OverBudgetSubmissionsRejectedBeforeAnyWorkRuns) {
  const SharedWorkload workload;
  BudgetManager budgets;
  ASSERT_TRUE(
      budgets.RegisterTenant("sweep", PrivacyBudget::Approx(2.5, 1e-4)).ok());
  Engine engine(Engine::Options{/*workers=*/2, &budgets});

  // Three (eps = 1, delta = 1e-5) jobs: the first two fit in the 2.5
  // epsilon budget, the third must be rejected inline with
  // kBudgetExhausted -- before it ever reaches a worker.
  std::vector<JobHandle> handles;
  for (int i = 0; i < 3; ++i) {
    FitJob job = workload.JobFor(kSolverAlg2PrivateLasso, 7);
    job.tenant = "sweep";
    handles.push_back(engine.Submit(std::move(job)));
  }
  ASSERT_TRUE(handles[0].Wait().ok());
  ASSERT_TRUE(handles[1].Wait().ok());
  const StatusOr<FitResult>& rejected = handles[2].Wait();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kBudgetExhausted);
  EXPECT_TRUE(handles[2].done());  // completed inline at Submit

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.budget_rejected, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.succeeded, 2u);

  // The admitted fits stay bit-identical to an untenanted sequential fit.
  const Solver* solver =
      *SolverRegistry::Global().Find(kSolverAlg2PrivateLasso);
  Rng rng(7);
  const FitJob reference = workload.JobFor(kSolverAlg2PrivateLasso, 7);
  const StatusOr<FitResult> sequential =
      solver->TryFit(reference.problem, reference.spec, rng);
  ASSERT_TRUE(sequential.ok());
  ASSERT_EQ(handles[0].Wait()->w.size(), sequential->w.size());
  for (std::size_t i = 0; i < sequential->w.size(); ++i) {
    EXPECT_EQ(handles[0].Wait()->w[i], sequential->w[i]);
  }

  const StatusOr<PrivacyBudget> remaining = budgets.Remaining("sweep");
  ASSERT_TRUE(remaining.ok());
  EXPECT_NEAR(remaining->epsilon, 0.5, 1e-12);
}

TEST(EngineTenantTest, TenantWithoutManagerIsATypedError) {
  const SharedWorkload workload;
  Engine engine(Engine::Options{/*workers=*/1});
  FitJob job = workload.JobFor(kSolverAlg1DpFw, 3);
  job.tenant = "nobody-configured-budgets";
  const JobHandle handle = engine.Submit(std::move(job));
  const StatusOr<FitResult>& result = handle.Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidProblem);
  EXPECT_NE(result.status().message().find("BudgetManager"),
            std::string::npos);
}

TEST(EngineTenantTest, UnknownTenantIsATypedError) {
  const SharedWorkload workload;
  BudgetManager budgets;
  Engine engine(Engine::Options{/*workers=*/1, &budgets});
  FitJob job = workload.JobFor(kSolverAlg1DpFw, 3);
  job.tenant = "unregistered";
  const JobHandle handle = engine.Submit(std::move(job));
  EXPECT_EQ(handle.Wait().status().code(), StatusCode::kInvalidProblem);
  EXPECT_EQ(engine.stats().budget_rejected, 0u);  // config error, not spend
}

TEST(EngineTenantTest, QueuedCancellationRefundsTheReservation) {
  const SharedWorkload workload;
  BudgetManager budgets;
  ASSERT_TRUE(
      budgets.RegisterTenant("cancelme", PrivacyBudget::Approx(1.0, 1e-5))
          .ok());
  Engine engine(Engine::Options{/*workers=*/1, &budgets});

  // Occupy the single worker so the tenant job stays queued.
  std::atomic<bool> release{false};
  FitJob blocker = workload.JobFor(kSolverAlg1DpFw, 11);
  blocker.spec.iterations = 1000000;
  blocker.spec.scale = 5.0;
  blocker.spec.should_stop = [&release] { return release.load(); };
  blocker.problem.target_sparsity = 0;
  const JobHandle blocking_handle = engine.Submit(std::move(blocker));

  FitJob queued = workload.JobFor(kSolverAlg2PrivateLasso, 13);
  queued.tenant = "cancelme";
  JobHandle queued_handle = engine.Submit(std::move(queued));
  {
    const StatusOr<PrivacyBudget> reserved = budgets.Remaining("cancelme");
    ASSERT_TRUE(reserved.ok());
    EXPECT_NEAR(reserved->epsilon, 0.0, 1e-12);  // fully reserved
  }

  queued_handle.Cancel();
  EXPECT_EQ(queued_handle.Wait().status().code(), StatusCode::kCancelled);
  {
    // The job never ran, so its reservation came back.
    const StatusOr<PrivacyBudget> refunded = budgets.Remaining("cancelme");
    ASSERT_TRUE(refunded.ok());
    EXPECT_NEAR(refunded->epsilon, 1.0, 1e-12);
  }

  release.store(true);
  (void)blocking_handle.Wait();
}

TEST(EngineTenantTest, ValidationFailureRefundsTheReservation) {
  const SharedWorkload workload;
  BudgetManager budgets;
  ASSERT_TRUE(
      budgets.RegisterTenant("strict", PrivacyBudget::Approx(1.0, 1e-5))
          .ok());
  Engine engine(Engine::Options{/*workers=*/1, &budgets});

  // The reservation succeeds (the budget itself is fundable), but the
  // solver rejects the malformed problem before any mechanism runs -- the
  // tenant must not be charged for a fit that never released anything.
  FitJob job = workload.JobFor(kSolverAlg2PrivateLasso, 5);
  job.tenant = "strict";
  job.problem.constraint = nullptr;  // alg2 requires a constraint
  const JobHandle handle = engine.Submit(std::move(job));
  EXPECT_EQ(handle.Wait().status().code(), StatusCode::kInvalidProblem);
  engine.Drain();
  const StatusOr<PrivacyBudget> remaining = budgets.Remaining("strict");
  ASSERT_TRUE(remaining.ok());
  EXPECT_NEAR(remaining->epsilon, 1.0, 1e-12);
  EXPECT_NEAR(remaining->delta, 1e-5, 1e-15);
}

TEST(EngineTenantTest, ReservationConservationHoldsAtDrain) {
  // The two-phase ledger invariant: every Reserve the Engine opens is
  // closed by exactly one Commit or Abort by the time Drain() returns --
  // across successes, budget rejections, validation failures, and
  // cancellations alike. The live count is the
  // htdp_budget_reservations_open gauge, which must read zero here.
  const SharedWorkload workload;
  BudgetManager budgets;
  ASSERT_TRUE(
      budgets.RegisterTenant("mixed", PrivacyBudget::Approx(4.0, 1e-4)).ok());
  Engine engine(Engine::Options{/*workers=*/2, &budgets});

  std::vector<JobHandle> handles;
  for (int i = 0; i < 3; ++i) {  // three that succeed (3 x eps=1)
    FitJob job = workload.JobFor(kSolverAlg2PrivateLasso, 100 + i);
    job.tenant = "mixed";
    handles.push_back(engine.Submit(std::move(job)));
  }
  {  // one rejected at admission (only eps=1 left, asks eps=1+1e-5 deltas ok)
    FitJob job = workload.JobFor(kSolverAlg2PrivateLasso, 200);
    job.tenant = "mixed";
    job.spec.budget = PrivacyBudget::Approx(2.0, 1e-5);
    handles.push_back(engine.Submit(std::move(job)));
  }
  {  // one aborted after admission (validation failure: missing constraint)
    FitJob job = workload.JobFor(kSolverAlg2PrivateLasso, 300);
    job.tenant = "mixed";
    job.problem.constraint = nullptr;
    handles.push_back(engine.Submit(std::move(job)));
  }
  for (JobHandle& handle : handles) (void)handle.Wait();
  engine.Drain();

  const BudgetManager::LedgerTotals totals = budgets.Totals();
  EXPECT_EQ(totals.reserves, totals.commits + totals.aborts);
  EXPECT_EQ(totals.open, 0u);
  EXPECT_EQ(budgets.OpenReservations(), 0u);
  EXPECT_EQ(obs::MetricRegistry::Global()
                .GetGauge("htdp_budget_reservations_open",
                          "Budget reservations awaiting Commit/Abort")
                ->Value(),
            0.0);

  // And the reserves actually happened: 4 admitted (3 ok + 1 aborted).
  EXPECT_GE(totals.reserves, 4u);
  EXPECT_EQ(totals.aborts, 1u);
}

// ---------------------------------------------------------------------------
// Overload admission: bounded queue with watermark hysteresis, shed-at-
// dequeue for expired deadlines, and per-tenant inflight caps. Shedding is
// typed kUnavailable (retryable) and refunds tenant reservations in full.
// ---------------------------------------------------------------------------

TEST(EngineOverloadTest, RetryAfterHintScalesWithBacklogAndClamps) {
  EXPECT_EQ(RetryAfterHintMs(0, 4), 50u);    // empty queue: one service slot
  EXPECT_EQ(RetryAfterHintMs(4, 4), 100u);   // one job ahead per worker
  EXPECT_EQ(RetryAfterHintMs(40, 4), 550u);
  EXPECT_EQ(RetryAfterHintMs(4000, 4), 2000u);  // clamped high
  EXPECT_EQ(RetryAfterHintMs(3, 0), 200u);      // workers <= 0 treated as 1
}

TEST(EngineOverloadTest, QueueCapShedsWithTypedUnavailable) {
  const SharedWorkload workload;
  Engine::Options options;
  options.workers = 1;
  options.max_queue_depth = 2;
  options.queue_resume_depth = 1;
  Engine engine(options);
  WorkerGate gate;

  FitJob blocker = workload.JobFor(kSolverAlg1DpFw, 41);
  blocker.spec.should_stop = gate.Hook();  // parks the only worker
  const JobHandle running = engine.Submit(std::move(blocker));
  gate.AwaitReached();

  const JobHandle q1 = engine.Submit(workload.JobFor(kSolverAlg1DpFw, 42));
  const JobHandle q2 = engine.Submit(workload.JobFor(kSolverAlg1DpFw, 43));
  EXPECT_EQ(engine.stats().queue_depth, 2u);

  // The queue is at its high watermark: this submit is shed synchronously
  // with the retryable typed code, naming the cap and a retry hint.
  const JobHandle shed = engine.Submit(workload.JobFor(kSolverAlg1DpFw, 44));
  EXPECT_TRUE(shed.done());
  const StatusOr<FitResult>& outcome = shed.Wait();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(IsRetryable(outcome.status().code()));
  EXPECT_NE(outcome.status().message().find("retry after"), std::string::npos);

  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.unavailable_rejected, 1u);
  EXPECT_TRUE(stats.overloaded);
  EXPECT_GE(engine.SuggestedRetryAfterMs(), 25u);

  // Draining to the low watermark clears the latch and admission resumes.
  JobHandle cancel_me = q2;
  cancel_me.Cancel();
  const JobHandle resumed =
      engine.Submit(workload.JobFor(kSolverAlg1DpFw, 45));
  EXPECT_FALSE(resumed.done());  // admitted, queued behind q1

  gate.release.store(true);
  engine.Drain();
  EXPECT_TRUE(running.Wait().ok());
  EXPECT_TRUE(q1.Wait().ok());
  EXPECT_TRUE(resumed.Wait().ok());
  EXPECT_FALSE(engine.stats().overloaded);
}

TEST(EngineOverloadTest, WatermarkHysteresisHoldsUntilLowWatermark) {
  const SharedWorkload workload;
  Engine::Options options;
  options.workers = 1;
  options.max_queue_depth = 4;
  options.queue_resume_depth = 1;
  Engine engine(options);
  WorkerGate gate;

  FitJob blocker = workload.JobFor(kSolverAlg1DpFw, 51);
  blocker.spec.should_stop = gate.Hook();
  const JobHandle running = engine.Submit(std::move(blocker));
  gate.AwaitReached();

  std::vector<JobHandle> queued;
  for (std::uint64_t seed = 52; seed < 56; ++seed) {
    queued.push_back(engine.Submit(workload.JobFor(kSolverAlg1DpFw, seed)));
  }
  EXPECT_EQ(engine.stats().queue_depth, 4u);

  const JobHandle shed_at_cap =
      engine.Submit(workload.JobFor(kSolverAlg1DpFw, 56));
  EXPECT_EQ(shed_at_cap.Wait().status().code(), StatusCode::kUnavailable);

  // One pop is NOT enough: the latch holds until the queue reaches the low
  // watermark, so admission flaps once per drain cycle instead of once per
  // popped job.
  queued[3].Cancel();
  EXPECT_EQ(engine.stats().queue_depth, 3u);
  const JobHandle shed_in_band =
      engine.Submit(workload.JobFor(kSolverAlg1DpFw, 57));
  EXPECT_EQ(shed_in_band.Wait().status().code(), StatusCode::kUnavailable);

  queued[2].Cancel();
  queued[1].Cancel();
  EXPECT_EQ(engine.stats().queue_depth, 1u);  // at the low watermark
  const JobHandle resumed =
      engine.Submit(workload.JobFor(kSolverAlg1DpFw, 58));
  EXPECT_FALSE(resumed.done());

  gate.release.store(true);
  engine.Drain();
  EXPECT_TRUE(running.Wait().ok());
  EXPECT_TRUE(queued[0].Wait().ok());
  EXPECT_TRUE(resumed.Wait().ok());
  EXPECT_EQ(engine.stats().unavailable_rejected, 2u);
}

TEST(EngineOverloadTest, ExpiredQueuedJobShedAtDequeueRefundsTenant) {
  const SharedWorkload workload;
  BudgetManager budgets;
  ASSERT_TRUE(
      budgets.RegisterTenant("late", PrivacyBudget::Approx(1.0, 1e-5)).ok());
  Engine engine(Engine::Options{/*workers=*/1, &budgets});
  WorkerGate gate;

  FitJob blocker = workload.JobFor(kSolverAlg1DpFw, 61);
  blocker.spec.should_stop = gate.Hook();
  const JobHandle running = engine.Submit(std::move(blocker));
  gate.AwaitReached();

  FitJob hurried = workload.JobFor(kSolverAlg2PrivateLasso, 62);
  hurried.tenant = "late";
  hurried.deadline_seconds = 1e-4;
  const JobHandle late = engine.Submit(std::move(hurried));
  {
    const StatusOr<PrivacyBudget> reserved = budgets.Remaining("late");
    ASSERT_TRUE(reserved.ok());
    EXPECT_NEAR(reserved->epsilon, 0.0, 1e-12);  // fully reserved
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  gate.release.store(true);

  // The worker pops the expired job and sheds it WITHOUT running the
  // solver: typed kDeadlineExceeded, counted as shed, reservation back.
  EXPECT_EQ(late.Wait().status().code(), StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(running.Wait().ok());
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.shed_expired, 1u);
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  const StatusOr<PrivacyBudget> refunded = budgets.Remaining("late");
  ASSERT_TRUE(refunded.ok());
  EXPECT_NEAR(refunded->epsilon, 1.0, 1e-12);
}

TEST(EngineOverloadTest, PerTenantInflightCapShedsAndRefunds) {
  const SharedWorkload workload;
  BudgetManager budgets;
  ASSERT_TRUE(
      budgets.RegisterTenant("flood", PrivacyBudget::Approx(10.0, 1e-3))
          .ok());
  Engine::Options options;
  options.workers = 1;
  options.budgets = &budgets;
  options.max_inflight_per_tenant = 1;
  Engine engine(options);
  WorkerGate gate;

  FitJob blocker = workload.JobFor(kSolverAlg1DpFw, 71);  // no tenant
  blocker.spec.should_stop = gate.Hook();
  const JobHandle running = engine.Submit(std::move(blocker));
  gate.AwaitReached();

  FitJob first = workload.JobFor(kSolverAlg2PrivateLasso, 72);
  first.tenant = "flood";
  const JobHandle admitted = engine.Submit(std::move(first));
  EXPECT_FALSE(admitted.done());  // queued, holds the tenant's one slot

  // The tenant's second inflight job is shed -- and its reservation comes
  // straight back, so the cap costs the tenant no budget.
  FitJob second = workload.JobFor(kSolverAlg2PrivateLasso, 73);
  second.tenant = "flood";
  const JobHandle shed = engine.Submit(std::move(second));
  ASSERT_TRUE(shed.done());
  EXPECT_EQ(shed.Wait().status().code(), StatusCode::kUnavailable);
  {
    const StatusOr<PrivacyBudget> remaining = budgets.Remaining("flood");
    ASSERT_TRUE(remaining.ok());
    EXPECT_NEAR(remaining->epsilon, 9.0, 1e-12);  // only `admitted` reserved
  }

  // The cap is per tenant: untenanted work still queues freely.
  const JobHandle other = engine.Submit(workload.JobFor(kSolverAlg1DpFw, 74));
  EXPECT_FALSE(other.done());

  gate.release.store(true);
  engine.Drain();
  EXPECT_TRUE(running.Wait().ok());
  EXPECT_TRUE(admitted.Wait().ok());
  EXPECT_TRUE(other.Wait().ok());
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.unavailable_rejected, 1u);

  // Once the slot frees, the tenant submits again -- and is charged only
  // for the fits that ran.
  FitJob third = workload.JobFor(kSolverAlg2PrivateLasso, 75);
  third.tenant = "flood";
  const JobHandle after = engine.Submit(std::move(third));
  EXPECT_TRUE(after.Wait().ok());
  const StatusOr<PrivacyBudget> remaining = budgets.Remaining("flood");
  ASSERT_TRUE(remaining.ok());
  EXPECT_NEAR(remaining->epsilon, 8.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Completion: every path that finishes a job counts it once -- in
// EngineStats and in the htdp_engine_jobs_*_total counters alike -- and
// closes its tenant reservation: committed when the fit ran, aborted when
// it provably released nothing.
// ---------------------------------------------------------------------------

/// The per-outcome job counters, read from EngineStats or from the exported
/// htdp_engine_jobs_*_total counters (`shed` is EngineStats'
/// unavailable_rejected).
struct JobCounts {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t succeeded = 0;
  std::size_t failed = 0;
  std::size_t cancelled = 0;
  std::size_t deadline_exceeded = 0;
  std::size_t budget_rejected = 0;
  std::size_t shed = 0;
  std::size_t shed_expired = 0;

  static JobCounts Of(const EngineStats& s) {
    return {s.submitted,       s.completed,
            s.succeeded,       s.failed,
            s.cancelled,       s.deadline_exceeded,
            s.budget_rejected, s.unavailable_rejected,
            s.shed_expired};
  }
  static JobCounts Exported() {
    const auto value = [](const std::string& outcome) {
      return static_cast<std::size_t>(
          obs::MetricRegistry::Global()
              .GetCounter("htdp_engine_jobs_" + outcome + "_total", "")
              ->Value());
    };
    return {value("submitted"), value("completed"),
            value("succeeded"), value("failed"),
            value("cancelled"), value("deadline_exceeded"),
            value("budget_rejected"), value("shed"),
            value("shed_expired")};
  }
  JobCounts operator-(const JobCounts& o) const {
    return {submitted - o.submitted,
            completed - o.completed,
            succeeded - o.succeeded,
            failed - o.failed,
            cancelled - o.cancelled,
            deadline_exceeded - o.deadline_exceeded,
            budget_rejected - o.budget_rejected,
            shed - o.shed,
            shed_expired - o.shed_expired};
  }
  bool operator==(const JobCounts&) const = default;
};

void PrintTo(const JobCounts& c, std::ostream* os) {
  *os << "{submitted " << c.submitted << ", completed " << c.completed
      << ", succeeded " << c.succeeded << ", failed " << c.failed
      << ", cancelled " << c.cancelled << ", deadline_exceeded "
      << c.deadline_exceeded << ", budget_rejected " << c.budget_rejected
      << ", shed " << c.shed << ", shed_expired " << c.shed_expired << "}";
}

/// How a completion path must close the job's tenant reservation.
enum class Close { kNone, kCommit, kAbort };

/// One single-worker Engine over a BudgetManager funding tenant "t", for
/// driving one completion path.
struct CompletionRig {
  static Engine::Options WithBudgets(Engine::Options options,
                                     BudgetManager* budgets) {
    options.workers = 1;
    options.budgets = budgets;
    return options;
  }

  CompletionRig(const SharedWorkload& w, const Engine::Options& caps)
      : workload(w), engine(WithBudgets(caps, &budgets)) {}
  ~CompletionRig() { Finish(); }

  /// Parks the only worker inside an untenanted job.
  void ParkWorker() {
    FitJob blocker = workload.JobFor(kSolverAlg1DpFw, 1);
    blocker.spec.should_stop = gate.Hook();
    others.push_back(engine.Submit(std::move(blocker)));
    gate.AwaitReached();
  }

  /// Queues one job behind the parked worker.
  void QueueFiller(const std::string& tenant) {
    FitJob filler = workload.JobFor(kSolverAlg2PrivateLasso, 2);
    filler.tenant = tenant;
    others.push_back(engine.Submit(std::move(filler)));
  }

  /// The job under test: an alg2 fit charging (1, 1e-5) to tenant "t",
  /// whose completion hook records what it saw.
  FitJob Target() {
    FitJob job = workload.JobFor(kSolverAlg2PrivateLasso, 3);
    job.tenant = "t";
    job.on_complete = [this] {
      // stats() takes the engine mutex: it returns only if the hook runs
      // with no engine lock held.
      hook.completed_inside = engine.stats().completed;
      if (hook.handle_known.load(std::memory_order_acquire)) {
        hook.done_inside = hook.handle.done() ? 1 : 0;
      }
      ++hook.calls;
    };
    return job;
  }

  /// Submits the target and hands its handle to the hook.
  JobHandle Submit(FitJob job) {
    JobHandle handle = engine.Submit(std::move(job));
    hook.handle = handle;
    hook.handle_known.store(true, std::memory_order_release);
    return handle;
  }

  /// Releases the worker and shuts the engine down. Idempotent.
  void Finish() {
    gate.release.store(true);
    if (stopper.joinable()) stopper.join();
    for (const JobHandle& other : others) (void)other.Wait();
    engine.Shutdown();
  }

  /// What the target's completion hook saw. The handle is published
  /// after Submit returns; a hook that ran inside Submit (inline
  /// completion) leaves done_inside at -1.
  struct HookProbe {
    std::atomic<int> calls{0};
    std::atomic<std::size_t> completed_inside{0};
    std::atomic<int> done_inside{-1};
    std::atomic<bool> handle_known{false};
    JobHandle handle;
  };

  const SharedWorkload& workload;
  HookProbe hook;
  BudgetManager budgets;
  WorkerGate gate;
  Engine engine;
  std::vector<JobHandle> others;  // blocker and fillers
  std::thread stopper;            // runs Shutdown() for the sweep path
};

struct CompletionPath {
  std::string name;
  Engine::Options caps;
  std::function<void(CompletionRig&)> setup;
  /// Submits the rig's Target() (possibly altered) and drives it to
  /// completion; the returned handle is done().
  std::function<JobHandle(CompletionRig&, FitJob)> complete;
  JobCounts delta;
  Close close;
};

TEST(EngineCompletionTest,
     EveryCompletionPathCountsOnceAndClosesItsReservation) {
  const SharedWorkload workload;
  const auto none = [](CompletionRig&) {};
  const auto park = [](CompletionRig& rig) { rig.ParkWorker(); };
  const auto submit = [](CompletionRig& rig, FitJob job) {
    JobHandle handle = rig.Submit(std::move(job));
    (void)handle.Wait();
    return handle;
  };
  Engine::Options queue_cap;
  queue_cap.max_queue_depth = 1;
  Engine::Options tenant_cap;
  tenant_cap.max_inflight_per_tenant = 1;

  const std::vector<CompletionPath> paths = {
      {"Submit: unknown solver", {}, none,
       [&](CompletionRig& rig, FitJob job) {
         job.solver_name = "no_such_solver";
         return submit(rig, std::move(job));
       },
       {.submitted = 1, .completed = 1, .failed = 1}, Close::kNone},
      {"Submit: reservation refused (budget)", {}, none,
       [&](CompletionRig& rig, FitJob job) {
         job.spec.budget = PrivacyBudget::Approx(100.0, 1e-5);
         return submit(rig, std::move(job));
       },
       {.submitted = 1, .completed = 1, .failed = 1, .budget_rejected = 1},
       Close::kNone},
      {"Submit: reservation refused (unknown tenant)", {}, none,
       [&](CompletionRig& rig, FitJob job) {
         job.tenant = "nobody";
         return submit(rig, std::move(job));
       },
       {.submitted = 1, .completed = 1, .failed = 1}, Close::kNone},
      {"Submit: after Shutdown", {},
       [](CompletionRig& rig) { rig.engine.Shutdown(); }, submit,
       {.submitted = 1, .completed = 1, .cancelled = 1}, Close::kAbort},
      {"Submit: shed by the queue cap", queue_cap,
       [](CompletionRig& rig) {
         rig.ParkWorker();
         rig.QueueFiller("");
       },
       submit, {.submitted = 1, .completed = 1, .failed = 1, .shed = 1},
       Close::kAbort},
      {"Submit: shed by the tenant inflight cap", tenant_cap,
       [](CompletionRig& rig) {
         rig.ParkWorker();
         rig.QueueFiller("t");
       },
       submit, {.submitted = 1, .completed = 1, .failed = 1, .shed = 1},
       Close::kAbort},
      {"Cancel: queued job", {}, park,
       [](CompletionRig& rig, FitJob job) {
         JobHandle handle = rig.Submit(std::move(job));
         handle.Cancel();
         return handle;
       },
       {.submitted = 1, .completed = 1, .cancelled = 1}, Close::kAbort},
      // The blocker completes first on the single worker, so it is in this
      // row's delta as the one success.
      {"WorkerMain: deadline expired while queued", {}, park,
       [](CompletionRig& rig, FitJob job) {
         job.deadline_seconds = 1e-4;
         JobHandle handle = rig.Submit(std::move(job));
         std::this_thread::sleep_for(std::chrono::milliseconds(10));
         rig.gate.release.store(true);
         (void)handle.Wait();
         return handle;
       },
       {.submitted = 1, .completed = 2, .succeeded = 1,
        .deadline_exceeded = 1, .shed_expired = 1},
       Close::kAbort},
      {"RunJob: succeeded", {}, none, submit,
       {.submitted = 1, .completed = 1, .succeeded = 1}, Close::kCommit},
      {"RunJob: solver validation failure", {}, none,
       [&](CompletionRig& rig, FitJob job) {
         job.problem.constraint = nullptr;  // alg2 requires a constraint
         return submit(rig, std::move(job));
       },
       {.submitted = 1, .completed = 1, .failed = 1}, Close::kAbort},
      {"RunJob: cancelled mid-fit", {}, none,
       [](CompletionRig& rig, FitJob job) {
         job.spec.iterations = 20;
         job.spec.should_stop = rig.gate.Hook();
         JobHandle handle = rig.Submit(std::move(job));
         rig.gate.AwaitReached();  // first poll: the fit is running
         handle.Cancel();
         rig.gate.release.store(true);
         (void)handle.Wait();
         return handle;
       },
       {.submitted = 1, .completed = 1, .cancelled = 1}, Close::kCommit},
      {"RunJob: deadline passed mid-fit", {}, none,
       [](CompletionRig& rig, FitJob job) {
         job.spec.iterations = 20;
         job.spec.should_stop = rig.gate.Hook();
         job.deadline_seconds = 0.3;
         JobHandle handle = rig.Submit(std::move(job));
         rig.gate.AwaitReached();  // first poll: the fit is running
         std::this_thread::sleep_for(std::chrono::milliseconds(400));
         rig.gate.release.store(true);
         (void)handle.Wait();
         return handle;
       },
       {.submitted = 1, .completed = 1, .deadline_exceeded = 1},
       Close::kCommit},
      {"Shutdown: queued job swept", {}, park,
       [](CompletionRig& rig, FitJob job) {
         JobHandle handle = rig.Submit(std::move(job));
         // Shutdown sweeps the queue, then blocks joining the parked
         // worker until Finish() releases it.
         rig.stopper = std::thread([&rig] { rig.engine.Shutdown(); });
         while (!handle.done()) {
           std::this_thread::sleep_for(std::chrono::milliseconds(1));
         }
         return handle;
       },
       {.submitted = 1, .completed = 1, .cancelled = 1}, Close::kAbort},
  };

  for (const CompletionPath& path : paths) {
    SCOPED_TRACE(path.name);
    CompletionRig rig(workload, path.caps);
    ASSERT_TRUE(
        rig.budgets.RegisterTenant("t", PrivacyBudget::Approx(10.0, 1e-3))
            .ok());
    path.setup(rig);

    const JobCounts stats_before = JobCounts::Of(rig.engine.stats());
    const JobCounts exported_before = JobCounts::Exported();
    const BudgetManager::LedgerTotals totals_before = rig.budgets.Totals();
    const BudgetManager::TenantStats tenant_before =
        rig.budgets.Stats("t").value();

    const JobHandle handle = path.complete(rig, rig.Target());
    ASSERT_TRUE(handle.done());
    // stats() first: it takes the engine mutex, so every counter the
    // completion bumped inside its critical section is visible after it.
    const JobCounts stats_delta =
        JobCounts::Of(rig.engine.stats()) - stats_before;
    const JobCounts exported_delta = JobCounts::Exported() - exported_before;
    const BudgetManager::LedgerTotals totals = rig.budgets.Totals();
    const BudgetManager::TenantStats tenant = rig.budgets.Stats("t").value();

    EXPECT_EQ(stats_delta, path.delta);
    EXPECT_EQ(exported_delta, path.delta);
    const std::size_t opened = path.close == Close::kNone ? 0 : 1;
    EXPECT_EQ(totals.reserves - totals_before.reserves, opened);
    EXPECT_EQ(totals.commits - totals_before.commits,
              path.close == Close::kCommit ? 1u : 0u);
    EXPECT_EQ(totals.aborts - totals_before.aborts,
              path.close == Close::kAbort ? 1u : 0u);
    EXPECT_EQ(totals.open, totals_before.open);  // the target's is closed
    EXPECT_EQ(tenant.refunded - tenant_before.refunded,
              path.close == Close::kAbort ? 1u : 0u);
    EXPECT_NEAR(tenant.spent.epsilon - tenant_before.spent.epsilon,
                path.close == Close::kCommit ? 1.0 : 0.0, 1e-12);

    rig.Finish();
    EXPECT_EQ(rig.budgets.OpenReservations(), 0u);
    // The hook ran once, after the job was counted and published.
    EXPECT_EQ(rig.hook.calls.load(), 1);
    EXPECT_EQ(rig.hook.completed_inside.load(),
              stats_before.completed + path.delta.completed);
    EXPECT_NE(rig.hook.done_inside.load(), 0);
  }
}

TEST(EngineScenarioTest, EngineSweepMatchesSequentialRunTrials) {
  // The harness's Engine path must reproduce the sequential summary bit for
  // bit: same derived seeds, same per-trial metrics, same Summary.
  Scenario scenario;
  scenario.solver = kSolverAlg1DpFw;
  scenario.n = 800;
  scenario.d = 10;
  scenario.spec.budget = PrivacyBudget::Pure(1.0);
  scenario.estimate_tau = true;

  const int trials = 5;
  const std::uint64_t seed = 2022;
  const Summary sequential = RunTrials(trials, seed, [&](std::uint64_t s) {
    return RunScenarioTrial(scenario, s);
  });

  Engine engine(Engine::Options{4});
  const Summary concurrent =
      RunScenarioTrials(engine, scenario, trials, seed);

  EXPECT_EQ(concurrent.mean, sequential.mean);
  EXPECT_EQ(concurrent.stdev, sequential.stdev);
  EXPECT_EQ(concurrent.count, sequential.count);
}

}  // namespace
}  // namespace htdp
