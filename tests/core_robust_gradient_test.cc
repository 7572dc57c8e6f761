#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <vector>

#include "core/robust_gradient.h"
#include "data/synthetic.h"
#include "gtest/gtest.h"
#include "kernel_modes.h"
#include "losses/logistic_loss.h"
#include "losses/mean_loss.h"
#include "losses/squared_loss.h"
#include "robust/robust_mean.h"
#include "rng/rng.h"
#include "util/parallel.h"

namespace htdp {
namespace {

TEST(RobustGradientTest, MatchesScalarEstimatorPerCoordinate) {
  Rng rng(3);
  const std::size_t n = 200;
  const std::size_t d = 5;
  SyntheticConfig config;
  config.n = n;
  config.d = d;
  config.feature_dist = ScalarDistribution::Lognormal(0.0, 0.6);
  const Vector w_star = MakeL1BallTarget(d, rng);
  const Dataset data = GenerateLinear(config, w_star, rng);

  const SquaredLoss loss;
  Vector w(d, 0.1);
  const double scale = 3.0;
  const double beta = 1.0;
  const RobustGradientEstimator estimator(scale, beta);
  Vector robust;
  estimator.Estimate(loss, FullView(data), w, robust);

  // Reference: apply the 1-d estimator coordinate by coordinate.
  const RobustMeanEstimator scalar(scale, beta);
  for (std::size_t j = 0; j < d; ++j) {
    Vector coordinate(n);
    Vector grad(d);
    for (std::size_t i = 0; i < n; ++i) {
      loss.Gradient(data.x.Row(i), data.y[i], w, grad);
      coordinate[i] = grad[j];
    }
    EXPECT_NEAR(robust[j], scalar.Estimate(coordinate), 1e-10)
        << "coordinate " << j;
  }
}

TEST(RobustGradientTest, WorkspaceReuseIsBitIdenticalToFreshCalls) {
  Rng rng(7);
  const std::size_t n = 1500;
  const std::size_t d = 64;
  SyntheticConfig config;
  config.n = n;
  config.d = d;
  config.feature_dist = ScalarDistribution::Lognormal(0.0, 0.6);
  const Vector w_star = MakeL1BallTarget(d, rng);
  const Dataset data = GenerateLinear(config, w_star, rng);
  const SquaredLoss loss;
  const RobustGradientEstimator estimator(4.0, 1.0);

  RobustGradientWorkspace workspace;
  Vector with_workspace;
  Vector without_workspace;
  Vector w(d, 0.0);
  // Drive the workspace through several distinct iterates, as a fit loop
  // does; the retained buffers must never leak state between calls.
  for (int t = 0; t < 5; ++t) {
    for (std::size_t j = 0; j < d; ++j) {
      w[j] = 0.05 * static_cast<double>(t) - 0.01 * static_cast<double>(j % 3);
    }
    estimator.Estimate(loss, FullView(data), w, with_workspace, &workspace);
    estimator.Estimate(loss, FullView(data), w, without_workspace);
    for (std::size_t j = 0; j < d; ++j) {
      ASSERT_EQ(with_workspace[j], without_workspace[j])
          << "t=" << t << " coordinate " << j;
    }
  }
}

TEST(RobustGradientTest, WorkspaceSurvivesShrinkingProblemSizes) {
  // A workspace first used on a larger fold/dimension must stay correct on
  // smaller ones (buffers are retained, not shrunk).
  Rng rng(9);
  const SquaredLoss loss;
  const RobustGradientEstimator estimator(4.0, 1.0);
  RobustGradientWorkspace workspace;
  for (const std::size_t d : {96u, 32u, 64u}) {
    SyntheticConfig config;
    config.n = 800;
    config.d = d;
    const Vector w_star = MakeL1BallTarget(d, rng);
    const Dataset data = GenerateLinear(config, w_star, rng);
    const Vector w(d, 0.02);
    Vector reused;
    Vector fresh;
    estimator.Estimate(loss, FullView(data), w, reused, &workspace);
    estimator.Estimate(loss, FullView(data), w, fresh);
    for (std::size_t j = 0; j < d; ++j) {
      ASSERT_EQ(reused[j], fresh[j]) << "d=" << d << " coordinate " << j;
    }
  }
}

TEST(RobustGradientTest, GlmAndGenericPathsAgree) {
  // MeanLoss has no GLM fast path; squared loss does. Wrap the squared loss
  // to hide its fast path and check both paths produce identical estimates.
  class HiddenGlmSquaredLoss final : public Loss {
   public:
    double Value(const double* x, double y, const Vector& w) const override {
      return inner_.Value(x, y, w);
    }
    void Gradient(const double* x, double y, const Vector& w,
                  Vector& grad) const override {
      inner_.Gradient(x, y, w, grad);
    }
    std::string Name() const override { return "hidden-glm"; }

   private:
    SquaredLoss inner_;
  };

  Rng rng(5);
  SyntheticConfig config;
  config.n = 300;
  config.d = 4;
  const Vector w_star = MakeL1BallTarget(config.d, rng);
  const Dataset data = GenerateLinear(config, w_star, rng);
  Vector w(config.d, -0.2);

  const RobustGradientEstimator estimator(2.0, 1.0);
  Vector fast;
  Vector generic;
  estimator.Estimate(SquaredLoss(), FullView(data), w, fast);
  estimator.Estimate(HiddenGlmSquaredLoss(), FullView(data), w, generic);
  for (std::size_t j = 0; j < config.d; ++j) {
    EXPECT_NEAR(fast[j], generic[j], 1e-12);
  }
}

TEST(RobustGradientTest, SensitivityBoundHoldsOnNeighboringDatasets) {
  Rng rng(7);
  SyntheticConfig config;
  config.n = 100;
  config.d = 6;
  config.feature_dist = ScalarDistribution::Lognormal(0.0, 1.0);
  const Vector w_star = MakeL1BallTarget(config.d, rng);
  Dataset data = GenerateLinear(config, w_star, rng);

  const SquaredLoss loss;
  const Vector w(config.d, 0.05);
  const RobustGradientEstimator estimator(1.5, 1.0);
  Vector base;
  estimator.Estimate(loss, FullView(data), w, base);

  // Replace one sample with extreme values and check the l-inf move.
  for (double magnitude : {0.0, 1e3, 1e12}) {
    Dataset neighbor = data;
    for (std::size_t j = 0; j < config.d; ++j) {
      neighbor.x(17, j) = magnitude;
    }
    neighbor.y[17] = -magnitude;
    Vector perturbed;
    estimator.Estimate(loss, FullView(neighbor), w, perturbed);
    double move = 0.0;
    for (std::size_t j = 0; j < config.d; ++j) {
      move = std::max(move, std::abs(perturbed[j] - base[j]));
    }
    EXPECT_LE(move, estimator.Sensitivity(config.n) + 1e-12)
        << "magnitude " << magnitude;
  }
}

TEST(RobustGradientTest, SensitivityBoundHoldsOnEveryTableForPackedRows) {
  // The d = 10 serving fold shape, whose rows are packed many to one Catoni
  // kernel call. The last row is replaced by extremes from 1e-12 to 1e300
  // (sign flips included) in three ways: its label, with w != 0; its
  // features, with w = 0 and y = 1 so that every gradient coordinate is
  // exactly -x_ij and the tiny-b / cancellation-limit straddlers land on
  // the thresholds; and, on alg5's GLM loss, its features doubled with
  // w = 0 and y = +-1, so that every coordinate -y x_ij / 2 is again exactly
  // an extreme. (An extreme label is outside the logistic loss's domain.)
  // The l-inf move must stay within Sensitivity(m) exactly, on every table.
  const std::size_t d = 10;
  const SquaredLoss squared;
  const LogisticLoss logistic(0.01);
  enum class Family { kLabel, kFeatures, kLogisticFeatures };
  ForEachKernelMode([&](SimdMode mode) {
    for (const double scale : {0.5, 1.5, 7.0}) {
      for (const double beta : {0.1, 1.0, 10.0}) {
        const RobustGradientEstimator estimator(scale, beta, mode);
        // Magnitudes 1e-12 .. 1e300 in steps of 1e6, plus straddlers.
        std::vector<double> magnitudes;
        for (int e = -12; e <= 300; e += 6) {
          magnitudes.push_back(std::pow(10.0, e));
        }
        const double root_beta = std::sqrt(beta);
        for (const double edge : {1e-12 * root_beta * scale,
                                  std::cbrt(6e6) * scale,
                                  std::cbrt(2e6 * beta) * scale}) {
          for (const double f : {1.0 - 1e-9, 1.0, 1.0 + 1e-9}) {
            magnitudes.push_back(edge * f);
          }
        }
        for (const std::size_t m : {80u, 257u}) {
          Rng rng(200 + m);
          SyntheticConfig config;
          config.n = m;
          config.d = d;
          config.feature_dist = ScalarDistribution::Lognormal(0.0, 1.0);
          const Vector w_star = MakeL1BallTarget(d, rng);
          const Dataset data = GenerateLinear(config, w_star, rng);
          const Dataset signs = GenerateLogistic(config, w_star, rng);
          const double bound = estimator.Sensitivity(m);
          for (const Family family : {Family::kLabel, Family::kFeatures,
                                      Family::kLogisticFeatures}) {
            const bool label_family = family == Family::kLabel;
            const bool glm = family == Family::kLogisticFeatures;
            const Loss& loss = glm ? static_cast<const Loss&>(logistic)
                                   : static_cast<const Loss&>(squared);
            const Dataset& original = glm ? signs : data;
            Vector w(d, 0.0);
            if (label_family) {
              for (std::size_t j = 0; j < d; ++j) {
                w[j] = 0.02 * static_cast<double>(j % 4) - 0.03;
              }
            }
            Vector base;
            estimator.Estimate(loss, FullView(original), w, base);
            // The last row sits in the chunk's final, partial pack.
            const std::size_t row = m - 1;
            Dataset neighbor = original;
            const std::vector<double> labels =
                glm ? std::vector<double>{1.0, -1.0} : std::vector<double>{1.0};
            for (const double magnitude : magnitudes) {
              for (const double v : {magnitude, -magnitude}) {
                for (const double label : labels) {
                  if (label_family) {
                    neighbor.y[row] = v;
                  } else {
                    neighbor.y[row] = label;
                    const double x = glm ? 2.0 * v : v;
                    for (std::size_t j = 0; j < d; ++j) {
                      neighbor.x(row, j) = j % 2 == 0 ? x : -x;
                    }
                  }
                  Vector moved;
                  estimator.Estimate(loss, FullView(neighbor), w, moved);
                  for (std::size_t j = 0; j < d; ++j) {
                    ASSERT_LE(std::abs(moved[j] - base[j]), bound)
                        << "s=" << scale << " beta=" << beta << " m=" << m
                        << " family=" << static_cast<int>(family)
                        << " v=" << v << " y=" << neighbor.y[row]
                        << " coordinate " << j;
                  }
                }
              }
            }
          }
        }
      }
    }
  });
}

TEST(RobustGradientTest, SensitivityFormula) {
  const RobustGradientEstimator estimator(2.5, 1.0);
  EXPECT_NEAR(estimator.Sensitivity(50),
              4.0 * std::sqrt(2.0) * 2.5 / (3.0 * 50.0), 1e-12);
}

TEST(RobustGradientTest, ApproximatesTrueGradientOnCleanData) {
  // With Gaussian data and a generous scale, the robust gradient should be
  // close to the exact empirical gradient.
  Rng rng(11);
  SyntheticConfig config;
  config.n = 20000;
  config.d = 4;
  config.feature_dist = ScalarDistribution::Normal(0.0, 1.0);
  const Vector w_star = MakeL1BallTarget(config.d, rng);
  const Dataset data = GenerateLinear(config, w_star, rng);

  const SquaredLoss loss;
  Vector w(config.d, 0.0);
  const RobustGradientEstimator estimator(50.0, 1.0);
  Vector robust;
  estimator.Estimate(loss, FullView(data), w, robust);
  Vector exact;
  EmpiricalGradient(loss, FullView(data), w, exact);
  for (std::size_t j = 0; j < config.d; ++j) {
    EXPECT_NEAR(robust[j], exact[j], 0.02) << "coordinate " << j;
  }
}

TEST(RobustGradientTest, ResistsSingleOutlierBetterThanEmpiricalMean) {
  Rng rng(13);
  SyntheticConfig config;
  config.n = 500;
  config.d = 3;
  config.feature_dist = ScalarDistribution::Normal(0.0, 1.0);
  const Vector w_star = MakeL1BallTarget(config.d, rng);
  Dataset data = GenerateLinear(config, w_star, rng);
  // Plant one gigantic outlier.
  data.x(42, 0) = 1e8;
  data.y[42] = -1e8;

  const SquaredLoss loss;
  const Vector w(config.d, 0.0);
  const RobustGradientEstimator estimator(5.0, 1.0);
  Vector robust;
  estimator.Estimate(loss, FullView(data), w, robust);
  Vector exact;
  EmpiricalGradient(loss, FullView(data), w, exact);

  // The exact gradient is destroyed by the outlier; the robust one is not.
  EXPECT_GT(NormLInf(exact), 1e6);
  EXPECT_LT(NormLInf(robust), 10.0);
}

TEST(RobustGradientTest, WorksWithMeanLoss) {
  Rng rng(17);
  Dataset data;
  const std::size_t n = 5000;
  const std::size_t d = 4;
  data.x = Matrix(n, d);
  data.y.assign(n, 0.0);
  for (double& e : data.x.data()) e = SampleNormal(rng, 0.5, 1.0);

  const MeanLoss loss;
  const Vector w(d, 0.0);
  const RobustGradientEstimator estimator(30.0, 1.0);
  Vector robust;
  estimator.Estimate(loss, FullView(data), w, robust);
  // Gradient of E||x - w||^2 at w=0 is -2 E x = -1 per coordinate.
  for (std::size_t j = 0; j < d; ++j) {
    EXPECT_NEAR(robust[j], -1.0, 0.1);
  }
}

// The row-chunk algorithm, written out in full: at most NumWorkerThreads()
// chunks of up to 512 rows, each summing full-row contributions in row
// order, then the partials added in chunk order and scaled by 1/m.
// Estimate may schedule the work however it likes, but must reproduce
// these bits exactly.
Vector RowChunkReference(const RobustGradientEstimator& estimator,
                         const Loss& loss, const DatasetView& view,
                         const Vector& w) {
  const std::size_t d = w.size();
  const std::size_t m = view.size();
  const std::size_t workers = static_cast<std::size_t>(NumWorkerThreads());
  const std::size_t chunks =
      std::max<std::size_t>(1, std::min<std::size_t>(workers, (m + 511) / 512));
  const std::size_t chunk_size = (m + chunks - 1) / chunks;
  const RobustMeanEstimator mean(
      estimator.scale(), estimator.beta(),
      estimator.simd() ? SimdMode::kOn : SimdMode::kOff);
  std::vector<Vector> partials(chunks, Vector(d, 0.0));
  Vector row(d);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t hi = std::min((c + 1) * chunk_size, m);
    for (std::size_t i = c * chunk_size; i < hi; ++i) {
      double scale = 0.0;
      if (loss.GradientAsScaledFeature(view.Row(i), view.Label(i), w,
                                       &scale)) {
        ScaledSumKernel(scale, view.Row(i), loss.RidgeCoefficient(), w.data(),
                        row.data(), d);
      } else {
        loss.Gradient(view.Row(i), view.Label(i), w, row);
      }
      mean.AccumulateContributions(row.data(), d, partials[c].data());
    }
  }
  Vector out(d, 0.0);
  for (const Vector& partial : partials) Axpy(1.0, partial, out);
  Scale(1.0 / static_cast<double>(m), out);
  return out;
}

TEST(RobustGradientTest, ColumnBlocksAreBitIdenticalToRowChunks) {
  // The suite runs with HTDP_NUM_THREADS=4, so the folds below with fewer
  // than four row chunks and enough coordinates take the column-block path
  // (e.g. d = 400, m = 476: alg1's fold shape in the benchmark) and the
  // rest the plain row-chunk path; both must match the reference exactly.
  const SquaredLoss squared;
  const LogisticLoss ridge_logistic(0.05);
  const MeanLoss mean_loss;  // no GLM fast path
  const std::vector<const Loss*> losses = {&squared, &ridge_logistic,
                                           &mean_loss};
  for (const std::size_t d : {10u, 64u, 400u, 403u}) {
    Rng rng(100 + d);
    const std::size_t n = 2000;
    SyntheticConfig config;
    config.n = n;
    config.d = d;
    config.feature_dist = ScalarDistribution::Lognormal(0.0, 0.6);
    const Vector w_star = MakeL1BallTarget(d, rng);
    Dataset data = GenerateLinear(config, w_star, rng);
    // Sparse exact zeros (tiny-b) and large entries (exact split) send some
    // lane groups down the scalar spill and leave the rest on the vector
    // path, so a misaligned column block would change bits.
    for (std::size_t k = 0; k < data.x.data().size(); k += 89) {
      data.x.data()[k] = 0.0;
    }
    for (std::size_t k = 3; k < data.x.data().size(); k += 997) {
      data.x.data()[k] = 1e3;
    }
    Vector w(d);
    for (std::size_t j = 0; j < d; ++j) {
      w[j] = j % 5 == 0 ? 0.0 : 0.01 * static_cast<double>(j % 9) - 0.03;
    }
    for (const std::size_t m : {80u, 476u, 1111u, 2000u}) {
      const DatasetView view = PrefixView(data, m);
      for (const SimdMode simd : {SimdMode::kOn, SimdMode::kOff}) {
        const RobustGradientEstimator estimator(3.0, 2.0, simd);
        for (const Loss* loss : losses) {
          const Vector expected =
              RowChunkReference(estimator, *loss, view, w);
          Vector actual;
          estimator.Estimate(*loss, view, w, actual);
          ASSERT_EQ(actual.size(), d);
          for (std::size_t j = 0; j < d; ++j) {
            ASSERT_EQ(0, std::memcmp(&actual[j], &expected[j], sizeof(double)))
                << loss->Name() << " d=" << d << " m=" << m
                << " simd=" << estimator.simd() << " coordinate " << j << ": "
                << actual[j] << " vs " << expected[j];
          }
        }
      }
    }
  }
}

TEST(RobustGradientTest, PackedRowsAreBitIdenticalToPerRowCallsOnEveryTable) {
  // Rows of up to 128 coordinates (per column block) are packed several to
  // one Catoni kernel call. Whatever the width -- one coordinate, a lane
  // tail, whole lane groups, column blocks of a wider row, or just past the
  // packing limit -- the estimate must equal one AccumulateContributions
  // call per row, bit for bit, on every table. m = 1111 with
  // HTDP_NUM_THREADS=4 splits d = 64 and d = 100 into column blocks.
  const SquaredLoss squared;
  const LogisticLoss ridge_logistic(0.05);
  const MeanLoss mean_loss;  // no GLM fast path
  const std::vector<const Loss*> losses = {&squared, &ridge_logistic,
                                           &mean_loss};
  ForEachKernelMode([&](SimdMode mode) {
    for (const std::size_t d : {1u, 3u, 10u, 13u, 64u, 100u, 129u}) {
      Rng rng(300 + d);
      SyntheticConfig config;
      config.n = 1111;
      config.d = d;
      config.feature_dist = ScalarDistribution::Lognormal(0.0, 0.6);
      const Vector w_star = MakeL1BallTarget(d, rng);
      Dataset data = GenerateLinear(config, w_star, rng);
      // Exact zeros (tiny-b) and large entries (exact split) among the
      // closed-form elements.
      for (std::size_t k = 0; k < data.x.data().size(); k += 41) {
        data.x.data()[k] = 0.0;
      }
      for (std::size_t k = 5; k < data.x.data().size(); k += 307) {
        data.x.data()[k] = 1e3;
      }
      Vector w(d);
      for (std::size_t j = 0; j < d; ++j) {
        w[j] = j % 5 == 0 ? 0.0 : 0.01 * static_cast<double>(j % 9) - 0.03;
      }
      const RobustGradientEstimator estimator(3.0, 2.0, mode);
      for (const std::size_t m : {80u, 333u, 1111u}) {
        const DatasetView view = PrefixView(data, m);
        for (const Loss* loss : losses) {
          const Vector expected = RowChunkReference(estimator, *loss, view, w);
          Vector actual;
          estimator.Estimate(*loss, view, w, actual);
          ASSERT_EQ(actual.size(), d);
          for (std::size_t j = 0; j < d; ++j) {
            ASSERT_EQ(0, std::memcmp(&actual[j], &expected[j], sizeof(double)))
                << loss->Name() << " d=" << d << " m=" << m << " coordinate "
                << j << ": " << actual[j] << " vs " << expected[j];
          }
        }
      }
    }
  });
}

}  // namespace
}  // namespace htdp
