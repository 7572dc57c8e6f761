#include <cmath>
#include <cstddef>

#include "data/dataset.h"
#include "data/real_world_sim.h"
#include "data/synthetic.h"
#include "gtest/gtest.h"
#include "linalg/sparse_ops.h"
#include "rng/rng.h"

namespace htdp {
namespace {

TEST(DatasetTest, ValidateAcceptsConsistentData) {
  Dataset data;
  data.x = Matrix(3, 2);
  data.y = {1.0, 2.0, 3.0};
  data.Validate();
  EXPECT_EQ(data.size(), 3u);
  EXPECT_EQ(data.dim(), 2u);
}

TEST(DatasetDeathTest, ValidateRejectsMismatchedSizes) {
  Dataset data;
  data.x = Matrix(3, 2);
  data.y = {1.0, 2.0};
  EXPECT_DEATH(data.Validate(), "x.rows");
}

TEST(DatasetTest, SplitIntoFoldsPartitionsAllSamples) {
  Dataset data;
  data.x = Matrix(103, 2);
  data.y.assign(103, 0.0);
  const auto folds = SplitIntoFolds(data, 10);
  ASSERT_EQ(folds.size(), 10u);
  std::size_t total = 0;
  std::size_t expected_begin = 0;
  for (const auto& fold : folds) {
    EXPECT_EQ(fold.begin, expected_begin);
    expected_begin = fold.end;
    total += fold.size();
  }
  EXPECT_EQ(total, 103u);
  // Leftover samples land in the last fold.
  EXPECT_EQ(folds.back().size(), 13u);
}

TEST(DatasetTest, SingleFoldIsFullView) {
  Dataset data;
  data.x = Matrix(7, 1);
  data.y.assign(7, 0.0);
  const auto folds = SplitIntoFolds(data, 1);
  ASSERT_EQ(folds.size(), 1u);
  EXPECT_EQ(folds[0].size(), 7u);
  EXPECT_EQ(folds[0].begin, 0u);
  EXPECT_EQ(folds[0].end, 7u);
}

TEST(DatasetTest, FoldsEqualToSampleCountAreSingletons) {
  Dataset data;
  data.x = Matrix(6, 2);
  data.y.assign(6, 0.0);
  const auto folds = SplitIntoFolds(data, 6);
  ASSERT_EQ(folds.size(), 6u);
  for (std::size_t t = 0; t < folds.size(); ++t) {
    EXPECT_EQ(folds[t].size(), 1u);
    EXPECT_EQ(folds[t].begin, t);
  }
}

TEST(DatasetTest, LeftoverSamplesGoToLastFold) {
  // 17 samples over 5 folds: m = 3, so the last fold absorbs 3 + 2.
  Dataset data;
  data.x = Matrix(17, 1);
  data.y.assign(17, 0.0);
  const auto folds = SplitIntoFolds(data, 5);
  ASSERT_EQ(folds.size(), 5u);
  std::size_t total = 0;
  for (std::size_t t = 0; t + 1 < folds.size(); ++t) {
    EXPECT_EQ(folds[t].size(), 3u);
    total += folds[t].size();
  }
  EXPECT_EQ(folds.back().size(), 5u);
  EXPECT_EQ(total + folds.back().size(), 17u);
}

TEST(DatasetTest, SplitViewOverloadOffsetsIntoOwner) {
  // Splitting a mid-dataset view must yield sub-views whose rows and labels
  // match the owning dataset at the shifted indices.
  Dataset data;
  data.x = Matrix(10, 1);
  data.y.resize(10);
  for (std::size_t i = 0; i < 10; ++i) {
    data.x(i, 0) = static_cast<double>(100 + i);
    data.y[i] = static_cast<double>(i);
  }
  const DatasetView middle{&data, 2, 8};  // samples 2..7
  const auto folds = SplitIntoFolds(middle, 3);
  ASSERT_EQ(folds.size(), 3u);
  EXPECT_EQ(folds[0].begin, 2u);
  EXPECT_EQ(folds[2].end, 8u);
  EXPECT_EQ(folds[1].Label(0), 4.0);
  EXPECT_EQ(folds[1].Row(1)[0], 105.0);
}

TEST(DatasetDeathTest, SplitRejectsMoreFoldsThanSamples) {
  Dataset data;
  data.x = Matrix(3, 1);
  data.y.assign(3, 0.0);
  EXPECT_DEATH(SplitIntoFolds(data, 4), "folds");
}

TEST(DatasetTest, ViewRowAndLabelOffset) {
  Dataset data;
  data.x = Matrix(4, 1);
  data.y = {10.0, 11.0, 12.0, 13.0};
  for (std::size_t i = 0; i < 4; ++i) data.x(i, 0) = static_cast<double>(i);
  const auto folds = SplitIntoFolds(data, 2);
  EXPECT_EQ(folds[1].Label(0), 12.0);
  EXPECT_EQ(folds[1].Row(1)[0], 3.0);
}

TEST(DatasetTest, PrefixCopiesLeadingSamples) {
  Dataset data;
  data.x = Matrix(5, 2);
  data.y = {0.0, 1.0, 2.0, 3.0, 4.0};
  data.x(2, 1) = 42.0;
  const Dataset prefix = Prefix(data, 3);
  EXPECT_EQ(prefix.size(), 3u);
  EXPECT_EQ(prefix.y[2], 2.0);
  EXPECT_EQ(prefix.x(2, 1), 42.0);
}

TEST(DatasetTest, PrefixViewIsNonOwningAndMatchesCopy) {
  Dataset data;
  data.x = Matrix(5, 2);
  data.y = {0.0, 1.0, 2.0, 3.0, 4.0};
  for (std::size_t i = 0; i < 5; ++i) {
    data.x(i, 0) = static_cast<double>(10 * i);
    data.x(i, 1) = static_cast<double>(10 * i + 1);
  }
  const DatasetView view = PrefixView(data, 3);
  EXPECT_EQ(view.data, &data);  // no copy
  EXPECT_EQ(view.size(), 3u);
  EXPECT_EQ(view.dim(), 2u);

  const Dataset copy = Prefix(data, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(view.Label(i), copy.y[i]);
    EXPECT_EQ(view.Row(i)[0], copy.x(i, 0));
    EXPECT_EQ(view.Row(i)[1], copy.x(i, 1));
  }

  // A view prefix of a view narrows further into the same owner.
  const DatasetView narrower = Prefix(view, 2);
  EXPECT_EQ(narrower.data, &data);
  EXPECT_EQ(narrower.size(), 2u);
  EXPECT_EQ(narrower.Row(1)[0], 10.0);
}

TEST(DatasetTest, ViewRowAndLabelMatchOwningDatasetEverywhere) {
  Dataset data;
  data.x = Matrix(9, 3);
  data.y.resize(9);
  Rng rng(31);
  for (std::size_t i = 0; i < 9; ++i) {
    data.y[i] = rng.Uniform(-1.0, 1.0);
    for (std::size_t j = 0; j < 3; ++j) {
      data.x(i, j) = rng.Uniform(-1.0, 1.0);
    }
  }
  const DatasetView view{&data, 4, 9};
  for (std::size_t i = 0; i < view.size(); ++i) {
    EXPECT_EQ(view.Label(i), data.y[4 + i]);
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(view.Row(i)[j], data.x(4 + i, j));
    }
  }
}

TEST(DatasetTest, CheckReportsShapeMismatchWithoutAborting) {
  Dataset data;
  data.x = Matrix(3, 2);
  data.y = {1.0, 2.0};
  EXPECT_EQ(data.Check().code(), StatusCode::kShapeMismatch);
  data.y.push_back(3.0);
  EXPECT_TRUE(data.Check().ok());
}

TEST(SyntheticTest, L1BallTargetIsFeasible) {
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    const Vector w = MakeL1BallTarget(30, rng);
    EXPECT_LE(NormL1(w), 1.0 + 1e-12);
    EXPECT_GT(NormL1(w), 0.0);
  }
}

TEST(SyntheticTest, SparseTargetHasRequestedSparsityAndNorm) {
  Rng rng(5);
  for (const std::size_t s : {1u, 5u, 20u}) {
    const Vector w = MakeSparseTarget(100, s, rng);
    EXPECT_LE(NormL0(w), s);
    EXPECT_GE(NormL0(w), 1u);  // N(0,100) entries are never exactly 0
    EXPECT_LE(NormL2(w), 1.0 + 1e-12);
  }
}

TEST(SyntheticTest, LinearLabelsFollowModel) {
  Rng rng(7);
  SyntheticConfig config;
  config.n = 2000;
  config.d = 4;
  config.feature_dist = ScalarDistribution::Normal(0.0, 1.0);
  config.noise_dist = ScalarDistribution::None();
  const Vector w_star = MakeL1BallTarget(config.d, rng);
  const Dataset data = GenerateLinear(config, w_star, rng);
  for (std::size_t i = 0; i < data.size(); i += 97) {
    EXPECT_NEAR(data.y[i], Dot(data.x.Row(i), w_star.data(), config.d),
                1e-12);
  }
}

TEST(SyntheticTest, LogisticLabelsAreSigns) {
  Rng rng(11);
  SyntheticConfig config;
  config.n = 500;
  config.d = 3;
  // Symmetric features guarantee both classes appear regardless of the
  // direction of w* (lognormal features with a net-negative w* can produce
  // a single-class sample).
  config.feature_dist = ScalarDistribution::Normal(0.0, 1.0);
  const Vector w_star = MakeL1BallTarget(config.d, rng);
  const Dataset data = GenerateLogistic(config, w_star, rng);
  int positives = 0;
  for (double y : data.y) {
    EXPECT_TRUE(y == 1.0 || y == -1.0);
    positives += (y == 1.0);
  }
  // Both classes occur.
  EXPECT_GT(positives, 0);
  EXPECT_LT(positives, 500);
}

TEST(SyntheticTest, NoiselessLogisticIsDeterministicInSignal) {
  Rng rng(13);
  SyntheticConfig config;
  config.n = 300;
  config.d = 3;
  config.noise_dist = ScalarDistribution::None();
  const Vector w_star = MakeL1BallTarget(config.d, rng);
  const Dataset data = GenerateLogistic(config, w_star, rng);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double z = Dot(data.x.Row(i), w_star.data(), config.d);
    EXPECT_EQ(data.y[i], (Sigmoid(z) >= 0.5) ? 1.0 : -1.0);
  }
}

TEST(SyntheticTest, SigmoidProperties) {
  EXPECT_NEAR(Sigmoid(0.0), 0.5, 1e-15);
  EXPECT_NEAR(Sigmoid(1000.0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(-1000.0), 0.0, 1e-12);
  EXPECT_NEAR(Sigmoid(2.0) + Sigmoid(-2.0), 1.0, 1e-12);
}

TEST(RealWorldSimTest, SpecsMatchPaperDimensions) {
  EXPECT_EQ(BlogFeedbackSpec().n, 60021u);
  EXPECT_EQ(BlogFeedbackSpec().d, 281u);
  EXPECT_EQ(TwitterSpec().n, 583249u);
  EXPECT_EQ(TwitterSpec().d, 77u);
  EXPECT_EQ(WinnipegSpec().n, 325834u);
  EXPECT_EQ(WinnipegSpec().d, 175u);
  EXPECT_EQ(YearPredictionSpec().n, 515345u);
  EXPECT_EQ(YearPredictionSpec().d, 90u);
}

TEST(RealWorldSimTest, CapLimitsSampleCount) {
  Rng rng(17);
  const Dataset data = SimulateRealWorld(BlogFeedbackSpec(), 1000, rng);
  EXPECT_EQ(data.size(), 1000u);
  EXPECT_EQ(data.dim(), 281u);
  data.Validate();
}

TEST(RealWorldSimTest, ClassificationLabelsAreBinary) {
  Rng rng(19);
  const Dataset data = SimulateRealWorld(WinnipegSpec(), 500, rng);
  for (double y : data.y) {
    EXPECT_TRUE(y == 1.0 || y == -1.0);
  }
}

TEST(RealWorldSimTest, FeaturesAreHeavyTailedAndCorrelated) {
  Rng rng(23);
  const Dataset data = SimulateRealWorld(TwitterSpec(), 4000, rng);
  // Correlation: the factor model induces nontrivial covariance between
  // coordinates. Estimate corr of two coordinates.
  const std::size_t n = data.size();
  double m0 = 0.0;
  double m1 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    m0 += data.x(i, 0);
    m1 += data.x(i, 1);
  }
  m0 /= n;
  m1 /= n;
  double c00 = 0.0;
  double c11 = 0.0;
  double c01 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = data.x(i, 0) - m0;
    const double b = data.x(i, 1) - m1;
    c00 += a * a;
    c11 += b * b;
    c01 += a * b;
  }
  const double corr = c01 / std::sqrt(c00 * c11);
  EXPECT_GT(std::abs(corr), 0.02);
}

}  // namespace
}  // namespace htdp
