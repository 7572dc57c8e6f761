// Zero-allocation guards for the hot loops: after the first (warm-up)
// iterations, the alg1, alg2 and alg3 fit loops and the workspace-backed
// robust gradient estimate (row chunks and column blocks) must perform no
// heap allocation at all. Counted by overriding the global allocation
// functions for this test binary.

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "api/solver_common.h"
#include "core/htdp.h"
#include "gtest/gtest.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* CountedAllocate(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAllocate(size); }
void* operator new[](std::size_t size) { return CountedAllocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace htdp {
namespace {

// Keeps kernel outputs observable so the compiler cannot elide the calls.
volatile double benchmark_sink = 0.0;

Dataset MakeData(std::size_t n, std::size_t d, Rng& rng) {
  SyntheticConfig config;
  config.n = n;
  config.d = d;
  config.feature_dist = ScalarDistribution::Lognormal(0.0, 0.6);
  const Vector w_star = MakeL1BallTarget(d, rng);
  return GenerateLinear(config, w_star, rng);
}

constexpr int kIterations = 8;
// Allocation counter snapshot after each iteration, captured through the
// observer. Fixed-size storage: the capture itself must not allocate.
std::size_t iteration_counts[kIterations + 1];
int iteration_events = 0;

// Fits `problem` for kIterations iterations and expects the fit loop to be
// allocation-free from iteration 3 on. Iteration 1 warms the workspace
// (and, on multi-core machines, starts the worker pool); iteration 2 may
// still touch a lazily-grown buffer.
void ExpectFitLoopAllocatesNothingAfterWarmup(const char* solver_name,
                                              const Problem& problem,
                                              SolverSpec spec) {
  iteration_events = 0;
  spec.iterations = kIterations;
  spec.observer = [](const IterationEvent& event) {
    if (event.iteration <= kIterations) {
      iteration_counts[event.iteration] =
          g_allocations.load(std::memory_order_relaxed);
      ++iteration_events;
    }
  };

  const std::unique_ptr<Solver> solver =
      SolverRegistry::Global().TryCreate(solver_name).value();
  Rng rng(5);
  const FitResult result = solver->TryFit(problem, spec, rng).value();
  ASSERT_EQ(result.iterations, kIterations);
  ASSERT_EQ(iteration_events, kIterations);
  for (int t = 3; t <= kIterations; ++t) {
    EXPECT_EQ(iteration_counts[t] - iteration_counts[t - 1], 0u)
        << solver_name << " iteration " << t << " allocated";
  }
}

TEST(ZeroAllocationTest, Alg1IterationsAllocateNothingAfterWarmup) {
  Rng data_rng(17);
  const std::size_t n = 640;
  const std::size_t d = 16;
  const Dataset data = MakeData(n, d, data_rng);
  const SquaredLoss loss;
  const L1Ball ball(d, 1.0);
  SolverSpec spec;
  spec.budget = PrivacyBudget::Pure(1.0);
  spec.scale = 5.0;
  spec.tau = 4.0;
  ExpectFitLoopAllocatesNothingAfterWarmup(
      kSolverAlg1DpFw, Problem::ConstrainedErm(loss, data, ball), spec);
}

TEST(ZeroAllocationTest, Alg3IterationsAllocateNothingAfterWarmup) {
  // Alg. 3 shrinks each row into a workspace buffer as it reads it and
  // peels into a reused result, so its loop allocates nothing per sample
  // and nothing per iteration.
  Rng data_rng(19);
  const std::size_t n = 1600;
  const std::size_t d = 64;
  const Dataset data = MakeData(n, d, data_rng);
  const SquaredLoss loss;
  SolverSpec spec;
  spec.budget = PrivacyBudget::Approx(1.0, 1e-5);
  ExpectFitLoopAllocatesNothingAfterWarmup(
      kSolverAlg3SparseLinReg, Problem::SparseErm(loss, data, 4), spec);
}

TEST(ZeroAllocationTest, Alg2IterationsAllocateNothingAfterWarmup) {
  // Alg. 2 computes the shrunken second moments once before its loop
  // (d <= n and d <= kMomentsMaxDimPerIteration * T here); each step is
  // then an O(d^2) product into the workspace gradient.
  Rng data_rng(23);
  const std::size_t n = 1600;
  const std::size_t d = 64;
  ASSERT_TRUE(UseShrunkenMoments(n, d, kIterations));
  const Dataset data = MakeData(n, d, data_rng);
  const SquaredLoss loss;
  const L1Ball ball(d, 1.0);
  SolverSpec spec;
  spec.budget = PrivacyBudget::Approx(1.0, 1e-5);
  ExpectFitLoopAllocatesNothingAfterWarmup(
      kSolverAlg2PrivateLasso, Problem::ConstrainedErm(loss, data, ball),
      spec);
}

TEST(ZeroAllocationTest, SimdBatchKernelsAllocateNothing) {
  // The SIMD kernel layer works out of registers and fixed stack blocks:
  // SmoothedPhiBatch and the SIMD AccumulateContributions path must not
  // touch the heap at all (not even on their first call -- there is no
  // warm-up state to grow).
  Rng rng(41);
  const std::size_t n = 3000;
  Vector a(n);
  Vector b(n);
  Vector out(n);
  Vector acc(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    a[j] = SampleLognormal(rng, 0.0, 0.8) - 1.0;
    b[j] = std::abs(a[j]);
  }
  const RobustMeanEstimator estimator(2.0, 1.0, SimdMode::kOn);

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 3; ++round) {
    SmoothedPhiBatch(a.data(), b.data(), out.data(), n, /*use_simd=*/true);
    estimator.AccumulateContributions(a.data(), n, acc.data());
    benchmark_sink = benchmark_sink + out[0] + acc[0];
  }
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "SIMD batch kernel allocated";
}

TEST(ZeroAllocationTest, WorkspaceEstimateAllocatesNothingWhenWarm) {
  Rng data_rng(29);
  const std::size_t n = 2000;
  const std::size_t d = 32;
  const Dataset data = MakeData(n, d, data_rng);
  const SquaredLoss loss;
  const RobustGradientEstimator estimator(5.0, 1.0);
  const Vector w(d, 0.01);

  RobustGradientWorkspace workspace;
  Vector out;
  // Warm-up: sizes the partials, row buffers and the output vector.
  estimator.Estimate(loss, FullView(data), w, out, &workspace);

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 5; ++round) {
    estimator.Estimate(loss, FullView(data), w, out, &workspace);
  }
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "warm Estimate allocated";
}

TEST(ZeroAllocationTest, ColumnBlockEstimateAllocatesNothingWhenWarm) {
  // alg1's fold shape in the benchmark: fewer rows than one 512-row chunk
  // at d = 400, which the estimator splits into column blocks whenever
  // more than one worker is configured (the suite runs with four).
  Rng data_rng(31);
  const std::size_t n = 476;
  const std::size_t d = 400;
  const Dataset data = MakeData(n, d, data_rng);
  const SquaredLoss loss;
  const RobustGradientEstimator estimator(5.0, 1.0);
  const Vector w(d, 0.01);

  RobustGradientWorkspace workspace;
  Vector out;
  estimator.Estimate(loss, FullView(data), w, out, &workspace);

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 5; ++round) {
    estimator.Estimate(loss, FullView(data), w, out, &workspace);
  }
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "warm column-block Estimate allocated";
}

}  // namespace
}  // namespace htdp
