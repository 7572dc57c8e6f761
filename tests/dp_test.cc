#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "dp/accountant.h"
#include "dp/exponential_mechanism.h"
#include "dp/laplace_mechanism.h"
#include "dp/privacy.h"
#include "dp/privacy_ledger.h"
#include "gtest/gtest.h"
#include "linalg/vector_ops.h"
#include "rng/rng.h"
#include "util/simd.h"

namespace htdp {
namespace {

TEST(PrivacyBudgetTest, CheckAcceptsLegalValues) {
  EXPECT_TRUE((PrivacyBudget{1.0, 0.0}).Check().ok());
  EXPECT_TRUE((PrivacyBudget{0.1, 1e-6}).Check().ok());
  const PrivacyBudget pure = PrivacyBudget::Pure(2.0);
  EXPECT_EQ(pure.delta, 0.0);
  EXPECT_TRUE(pure.pure());
  EXPECT_TRUE(pure.Check().ok());
  EXPECT_FALSE(PrivacyBudget::Approx(0.5, 1e-5).pure());
}

TEST(PrivacyBudgetTest, CheckRejectsIllegalValuesWithTypedStatus) {
  // There is no aborting Validate() anymore: every consumer branches on the
  // one typed Check() (kBudgetExhausted -- a budget that cannot fund any
  // mechanism invocation).
  const Status zero_epsilon = PrivacyBudget{0.0, 0.0}.Check();
  EXPECT_EQ(zero_epsilon.code(), StatusCode::kBudgetExhausted);
  EXPECT_NE(zero_epsilon.message().find("epsilon"), std::string::npos);
  const Status bad_delta = PrivacyBudget{1.0, 1.5}.Check();
  EXPECT_EQ(bad_delta.code(), StatusCode::kBudgetExhausted);
  EXPECT_NE(bad_delta.message().find("delta"), std::string::npos);
  EXPECT_EQ((PrivacyBudget{-1.0, 0.0}).Check().code(),
            StatusCode::kBudgetExhausted);
  EXPECT_EQ((PrivacyBudget{1.0, -1e-9}).Check().code(),
            StatusCode::kBudgetExhausted);
}

TEST(PrivacyBudgetTest, CheckRejectsNonFiniteValues) {
  // NaN compares false against everything, so the bounds are written to
  // fail it explicitly -- a NaN budget must never reach the noise
  // calibrations with an Ok status.
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ((PrivacyBudget{nan, 0.0}).Check().code(),
            StatusCode::kBudgetExhausted);
  EXPECT_EQ((PrivacyBudget{1.0, nan}).Check().code(),
            StatusCode::kBudgetExhausted);
  EXPECT_EQ((PrivacyBudget{inf, 1e-5}).Check().code(),
            StatusCode::kBudgetExhausted);
}

TEST(CompositionTest, AdvancedCompositionFormula) {
  // eps' = eps / (2 sqrt(2 T ln(2/delta))) -- Lemma 2.
  const double eps = 1.0;
  const double delta = 1e-5;
  const int t = 16;
  const double expected =
      eps / (2.0 * std::sqrt(2.0 * 16.0 * std::log(2.0 / delta)));
  EXPECT_NEAR(AdvancedCompositionStepEpsilon(eps, delta, t), expected, 1e-12);
  EXPECT_NEAR(AdvancedCompositionStepDelta(delta, t), delta / 16.0, 1e-20);
}

TEST(CompositionTest, StepBudgetDecreasesWithT) {
  double previous = 1e9;
  for (int t = 1; t <= 128; t *= 2) {
    const double step = AdvancedCompositionStepEpsilon(1.0, 1e-5, t);
    EXPECT_LT(step, previous);
    previous = step;
  }
}

TEST(CompositionTest, BasicComposition) {
  EXPECT_NEAR(BasicCompositionStepEpsilon(2.0, 4), 0.5, 1e-12);
}

TEST(LaplaceMechanismTest, ScaleIsSensitivityOverEpsilon) {
  const LaplaceMechanism mechanism(2.0, 0.5);
  EXPECT_NEAR(mechanism.scale(), 4.0, 1e-12);
}

TEST(LaplaceMechanismTest, NoiseHasCorrectMoments) {
  const LaplaceMechanism mechanism(1.0, 1.0);  // Lap(1)
  Rng rng(3);
  const std::size_t n = 300000;
  double mean = 0.0;
  double second = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double noise = mechanism.Privatize(0.0, rng);
    mean += noise;
    second += noise * noise;
  }
  mean /= static_cast<double>(n);
  second /= static_cast<double>(n);
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(second, 2.0, 0.05);  // Var(Lap(1)) = 2
}

TEST(LaplaceMechanismTest, VectorPrivatizePreservesSize) {
  const LaplaceMechanism mechanism(1.0, 1.0);
  Rng rng(5);
  Vector value(10, 3.0);
  mechanism.PrivatizeInPlace(value, rng);
  EXPECT_EQ(value.size(), 10u);
  // With overwhelming probability at least one coordinate moved.
  bool moved = false;
  for (double v : value) moved |= (v != 3.0);
  EXPECT_TRUE(moved);
}

TEST(ExponentialMechanismTest, GumbelMatchesTheoreticalFrequencies) {
  // Scores chosen so that selection probabilities are exactly
  // proportional to exp(eps * u / (2 Delta)).
  const Vector scores = {0.0, 1.0, 2.0};
  const double epsilon = 2.0;
  const double sensitivity = 1.0;
  const ExponentialMechanism mechanism(sensitivity, epsilon);
  Rng rng(7);
  std::vector<int> counts(3, 0);
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) {
    counts[mechanism.SelectGumbel(scores, rng)]++;
  }
  double normalizer = 0.0;
  for (double s : scores) normalizer += std::exp(epsilon * s / 2.0);
  for (std::size_t r = 0; r < scores.size(); ++r) {
    const double expected =
        std::exp(epsilon * scores[r] / 2.0) / normalizer;
    EXPECT_NEAR(static_cast<double>(counts[r]) / draws, expected, 0.01)
        << "candidate " << r;
  }
}

TEST(ExponentialMechanismTest, GumbelAndLogSumExpAgreeInDistribution) {
  const Vector scores = {-1.0, 0.5, 0.0, 2.0, 1.0};
  const ExponentialMechanism mechanism(0.5, 1.0);
  Rng rng_a(11);
  Rng rng_b(13);
  std::vector<int> counts_a(scores.size(), 0);
  std::vector<int> counts_b(scores.size(), 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    counts_a[mechanism.SelectGumbel(scores, rng_a)]++;
    counts_b[mechanism.SelectLogSumExp(scores, rng_b)]++;
  }
  for (std::size_t r = 0; r < scores.size(); ++r) {
    EXPECT_NEAR(static_cast<double>(counts_a[r]) / draws,
                static_cast<double>(counts_b[r]) / draws, 0.012)
        << "candidate " << r;
  }
}

TEST(ExponentialMechanismTest, UtilityLemmaHolds) {
  // Lemma 1: Pr[u(output) <= OPT - (2 Delta / eps)(ln|R| + t)] <= e^-t.
  const std::size_t range = 64;
  Vector scores(range);
  for (std::size_t i = 0; i < range; ++i) {
    scores[i] = static_cast<double>(i) / 10.0;
  }
  const double opt = scores.back();
  const double epsilon = 1.0;
  const double sensitivity = 1.0;
  const ExponentialMechanism mechanism(sensitivity, epsilon);
  Rng rng(17);
  const double t = 2.0;
  const double threshold =
      opt - 2.0 * sensitivity / epsilon *
                (std::log(static_cast<double>(range)) + t);
  int bad = 0;
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    if (scores[mechanism.SelectGumbel(scores, rng)] <= threshold) ++bad;
  }
  EXPECT_LE(static_cast<double>(bad) / draws, std::exp(-t) + 0.01);
}

TEST(ExponentialMechanismTest, HighEpsilonPicksArgmax) {
  const Vector scores = {0.0, 10.0, 3.0};
  const ExponentialMechanism mechanism(0.01, 50.0);
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(mechanism.SelectGumbel(scores, rng), 1u);
  }
}

TEST(PrivacyLedgerTest, SequentialEntriesAdd) {
  PrivacyLedger ledger;
  ledger.Record({"a", 0.5, 1e-6, 1.0, -1});
  ledger.Record({"b", 0.25, 2e-6, 1.0, -1});
  EXPECT_NEAR(ledger.TotalEpsilon(), 0.75, 1e-12);
  EXPECT_NEAR(ledger.TotalDelta(), 3e-6, 1e-18);
}

TEST(PrivacyLedgerTest, DisjointFoldsComposeInParallel) {
  PrivacyLedger ledger;
  for (int fold = 0; fold < 10; ++fold) {
    ledger.Record({"exp", 1.0, 0.0, 1.0, fold});
  }
  EXPECT_NEAR(ledger.TotalEpsilon(), 1.0, 1e-12);
  EXPECT_NEAR(ledger.TotalDelta(), 0.0, 1e-18);
}

TEST(PrivacyLedgerTest, MixedCompositionAddsSequentialToFoldMax) {
  PrivacyLedger ledger;
  ledger.Record({"full-data", 0.3, 1e-7, 1.0, -1});
  ledger.Record({"fold", 1.0, 1e-6, 1.0, 0});
  ledger.Record({"fold", 1.0, 1e-6, 1.0, 1});
  ledger.Record({"fold", 0.5, 0.0, 1.0, 1});  // second call on fold 1
  EXPECT_NEAR(ledger.TotalEpsilon(), 0.3 + 1.5, 1e-12);
  EXPECT_NEAR(ledger.TotalDelta(), 1e-7 + 1e-6, 1e-15);
}

TEST(PrivacyLedgerTest, ClearResets) {
  PrivacyLedger ledger;
  ledger.Record({"a", 1.0, 0.0, 1.0, -1});
  ledger.Clear();
  EXPECT_EQ(ledger.entries().size(), 0u);
  EXPECT_EQ(ledger.TotalEpsilon(), 0.0);
}

// --- Mixed-composition regression suite: streams interleaving fold == -1
// --- and folded entries must compose as sum-over-shared + max-over-folds
// --- in one pass, for every arrival order.

TEST(PrivacyLedgerTest, MixedEntriesInterleavedArbitraryOrder) {
  // Shared and folded entries interleaved, folds revisited out of order --
  // the composed totals must not depend on arrival order.
  PrivacyLedger ledger;
  ledger.Record({"fold", 0.4, 1e-6, 1.0, 2});
  ledger.Record({"full", 0.3, 1e-7, 1.0, -1});
  ledger.Record({"fold", 0.5, 2e-6, 1.0, 0});
  ledger.Record({"full", 0.2, 1e-7, 1.0, -1});
  ledger.Record({"fold", 0.7, 1e-6, 1.0, 2});  // fold 2 revisited after 0
  ledger.Record({"fold", 0.6, 0.0, 1.0, 1});
  // shared = 0.5; fold sums: f0 = 0.5, f1 = 0.6, f2 = 1.1 -> max 1.1.
  EXPECT_NEAR(ledger.TotalEpsilon(), 0.5 + 1.1, 1e-12);
  // shared delta = 2e-7; fold deltas: f0 = 2e-6, f1 = 0, f2 = 2e-6.
  EXPECT_NEAR(ledger.TotalDelta(), 2e-7 + 2e-6, 1e-18);
}

TEST(PrivacyLedgerTest, MixedEntriesFoldIdsWithGaps) {
  // Fold ids need not be dense or start at zero.
  PrivacyLedger ledger;
  ledger.Record({"full", 0.1, 0.0, 1.0, -1});
  ledger.Record({"fold", 0.9, 0.0, 1.0, 17});
  ledger.Record({"fold", 0.2, 0.0, 1.0, 3});
  ledger.Record({"fold", 0.3, 0.0, 1.0, 17});
  EXPECT_NEAR(ledger.TotalEpsilon(), 0.1 + 1.2, 1e-12);
  EXPECT_NEAR(ledger.TotalDelta(), 0.0, 1e-18);
}

TEST(PrivacyLedgerTest, SharedAfterAllFoldsStillAdds) {
  // A trailing full-dataset release (e.g. a final model release after
  // per-fold training) adds on top of the fold maximum.
  PrivacyLedger ledger;
  for (int fold = 0; fold < 4; ++fold) {
    ledger.Record({"fold", 0.25, 1e-6, 1.0, fold});
  }
  ledger.Record({"final", 0.5, 1e-6, 1.0, -1});
  EXPECT_NEAR(ledger.TotalEpsilon(), 0.25 + 0.5, 1e-12);
  EXPECT_NEAR(ledger.TotalDelta(), 2e-6, 1e-18);
}

// --- Backend-tagged ledgers: TotalEpsilon/TotalDelta are computed by the
// --- accountant backend the solver stamped, not a hard-coded sum/max.

TEST(PrivacyLedgerTest, AdvancedAccountingInvertsLemma2Exactly) {
  // T homogeneous steps split by the advanced accountant compose back to
  // exactly the declared budget, not the loose T * eps' sum.
  const PrivacyBudget budget = PrivacyBudget::Approx(1.0, 1e-5);
  const int steps = 400;  // large enough that the basic sum exceeds 1.0
  const StepBudget step =
      GetAccountant(Accounting::kAdvanced).StepBudgetFor(budget, steps);
  ASSERT_GT(step.epsilon * steps, budget.epsilon);  // basic sum overshoots
  PrivacyLedger ledger;
  ledger.SetAccounting(Accounting::kAdvanced, budget.delta);
  for (int t = 0; t < steps; ++t) {
    ledger.Record({"exponential", step.epsilon, step.delta, 1.0, -1});
  }
  EXPECT_NEAR(ledger.TotalEpsilon(), budget.epsilon, 1e-9);
  EXPECT_NEAR(ledger.TotalDelta(), budget.delta, 1e-15);
}

TEST(PrivacyLedgerTest, AdvancedAccountingKeepsSmallSumsExact) {
  // When few steps ran (cancellation, small T), the basic sum is below the
  // advanced bound and must be reported verbatim.
  PrivacyLedger ledger;
  ledger.SetAccounting(Accounting::kAdvanced, 1e-5);
  ledger.Record({"exponential", 0.01, 1e-6, 1.0, -1});
  ledger.Record({"exponential", 0.02, 1e-6, 1.0, -1});
  EXPECT_NEAR(ledger.TotalEpsilon(), 0.03, 1e-12);
}

TEST(PrivacyLedgerTest, ZcdpAccountingComposesInRho) {
  const PrivacyBudget budget = PrivacyBudget::Approx(1.0, 1e-5);
  const int steps = 64;
  const StepBudget step =
      GetAccountant(Accounting::kZcdp).StepBudgetFor(budget, steps);
  EXPECT_EQ(step.delta, 0.0);  // delta is spent in the final conversion
  PrivacyLedger ledger;
  ledger.SetAccounting(Accounting::kZcdp, budget.delta);
  for (int t = 0; t < steps; ++t) {
    ledger.Record({"exponential", step.epsilon, 0.0, 1.0, -1});
  }
  EXPECT_NEAR(ledger.TotalEpsilon(), budget.epsilon, 1e-9);
  EXPECT_NEAR(ledger.TotalDelta(), budget.delta, 1e-15);
}

TEST(PrivacyLedgerTest, BackendTagDoesNotChangeSingleReleaseTotals) {
  // Parallel-composition streams (one full-budget entry per fold) total the
  // same under every backend.
  for (const Accounting backend :
       {Accounting::kBasic, Accounting::kAdvanced, Accounting::kZcdp}) {
    PrivacyLedger ledger;
    ledger.SetAccounting(backend, 1e-5);
    for (int fold = 0; fold < 8; ++fold) {
      ledger.Record({"laplace-peeling", 1.0, 1e-5, 1.0, fold});
    }
    EXPECT_NEAR(ledger.TotalEpsilon(), 1.0, 1e-12)
        << AccountingName(backend);
    EXPECT_NEAR(ledger.TotalDelta(), 1e-5, 1e-15)
        << AccountingName(backend);
  }
}

}  // namespace
}  // namespace htdp
