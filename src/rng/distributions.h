#ifndef HTDP_RNG_DISTRIBUTIONS_H_
#define HTDP_RNG_DISTRIBUTIONS_H_

#include <string>

#include "rng/rng.h"

namespace htdp {

/// Explicit samplers for every distribution used in the paper's evaluation
/// (Section 6). All are implemented from standard transforms so results are
/// identical across platforms.

/// Standard normal via Box-Muller (one value per call).
double SampleNormal(Rng& rng);

/// Normal with the given mean and standard deviation.
double SampleNormal(Rng& rng, double mean, double stddev);

/// Laplace(0, scale): density (1/2b) exp(-|x|/b).
double SampleLaplace(Rng& rng, double scale);

/// Exponential(rate 1/scale): density (1/scale) exp(-x/scale), x >= 0.
double SampleExponential(Rng& rng, double scale);

/// Standard Gumbel(0, 1): -log(-log U). Used by the Gumbel-max trick
/// implementation of the exponential mechanism.
double SampleGumbel(Rng& rng);

/// Lognormal(mu, sigma^2): exp(N(mu, sigma^2)). Heavy-tailed feature
/// distribution of Figures 1, 2 and 5 (sigma = 0.6).
double SampleLognormal(Rng& rng, double mu, double sigma);

/// Student's t with `nu` degrees of freedom (Figure 6 uses nu = 10).
/// Sampled as N(0,1) / sqrt(ChiSquared(nu)/nu).
double SampleStudentT(Rng& rng, double nu);

/// Gamma(shape, scale = 1) via Marsaglia-Tsang; handles shape < 1 by
/// boosting. Requires shape > 0.
double SampleGamma(Rng& rng, double shape);

/// Log-logistic with shape c: CDF F(w) = 1/(1 + w^-c) on w > 0
/// (Figure 8 uses c = 0.1). Heavy-tailed: infinite mean for c <= 1.
double SampleLogLogistic(Rng& rng, double c);

/// Log-gamma with parameter c: the law of log(Gamma(c, 1)); density
/// exp(c w - e^w) / Gamma(c) (Figures 9 and 11 use c = 0.5).
double SampleLogGamma(Rng& rng, double c);

/// Logistic(u, s): density exp(-(w-u)/s) / (s (1+exp(-(w-u)/s))^2)
/// (Figure 10 uses u = 0, s = 0.5).
double SampleLogistic(Rng& rng, double u, double s);

/// Pareto with tail index alpha and minimum x_m = 1: (1-U)^(-1/alpha).
/// Used by robustness tests; has infinite variance for alpha <= 2.
double SamplePareto(Rng& rng, double alpha);

/// Named scalar distribution, the configuration unit for the synthetic data
/// generators: which family plus its parameters.
struct ScalarDistribution {
  enum class Family {
    kNormal,      // param1 = mean, param2 = stddev
    kLaplace,     // param1 = scale
    kLognormal,   // param1 = mu, param2 = sigma
    kStudentT,    // param1 = nu
    kLogLogistic, // param1 = c
    kLogGamma,    // param1 = c
    kLogistic,    // param1 = u, param2 = s
    kPareto,      // param1 = alpha
    kNone,        // degenerate at 0 (e.g. Figure 2's noiseless labels)
  };

  Family family = Family::kNormal;
  double param1 = 0.0;
  double param2 = 1.0;

  static ScalarDistribution Normal(double mean, double stddev);
  static ScalarDistribution Laplace(double scale);
  static ScalarDistribution Lognormal(double mu, double sigma);
  static ScalarDistribution StudentT(double nu);
  static ScalarDistribution LogLogistic(double c);
  static ScalarDistribution LogGamma(double c);
  static ScalarDistribution Logistic(double u, double s);
  static ScalarDistribution Pareto(double alpha);
  static ScalarDistribution None();

  /// Draws one value from the configured family.
  double Sample(Rng& rng) const;

  /// Human-readable name, e.g. "Lognormal(0,0.6)" (used in bench output).
  std::string Name() const;
};

}  // namespace htdp

#endif  // HTDP_RNG_DISTRIBUTIONS_H_
