#include "rng/distributions.h"

#include <cmath>
#include <numbers>
#include <sstream>

#include "util/check.h"

namespace htdp {

double SampleNormal(Rng& rng) {
  // Box-Muller; the unused second value is discarded to keep the sampler
  // stateless (simplicity beats the factor-2 saving here).
  const double u1 = rng.UniformOpen();
  const double u2 = rng.UniformUnit();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double SampleNormal(Rng& rng, double mean, double stddev) {
  HTDP_CHECK_GE(stddev, 0.0);
  return mean + stddev * SampleNormal(rng);
}

double SampleLaplace(Rng& rng, double scale) {
  HTDP_CHECK_GT(scale, 0.0);
  const double u = rng.UniformOpen() - 0.5;  // (-0.5, 0.5)
  return -scale * std::copysign(std::log1p(-2.0 * std::abs(u)), u);
}

double SampleExponential(Rng& rng, double scale) {
  HTDP_CHECK_GT(scale, 0.0);
  return -scale * std::log(rng.UniformOpen());
}

double SampleGumbel(Rng& rng) {
  return -std::log(-std::log(rng.UniformOpen()));
}

double SampleLognormal(Rng& rng, double mu, double sigma) {
  return std::exp(SampleNormal(rng, mu, sigma));
}

double SampleStudentT(Rng& rng, double nu) {
  HTDP_CHECK_GT(nu, 0.0);
  const double z = SampleNormal(rng);
  // ChiSquared(nu) = 2 * Gamma(nu/2, scale 1).
  const double chi2 = 2.0 * SampleGamma(rng, nu / 2.0);
  return z / std::sqrt(chi2 / nu);
}

double SampleGamma(Rng& rng, double shape) {
  HTDP_CHECK_GT(shape, 0.0);
  if (shape < 1.0) {
    // Boosting: Gamma(a) = Gamma(a+1) * U^(1/a).
    const double boosted = SampleGamma(rng, shape + 1.0);
    return boosted * std::pow(rng.UniformOpen(), 1.0 / shape);
  }
  // Marsaglia & Tsang (2000) squeeze method.
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x;
    double v;
    do {
      x = SampleNormal(rng);
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = rng.UniformOpen();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) return d * v;
  }
}

double SampleLogLogistic(Rng& rng, double c) {
  HTDP_CHECK_GT(c, 0.0);
  const double u = rng.UniformOpen();
  return std::pow(u / (1.0 - u), 1.0 / c);
}

double SampleLogGamma(Rng& rng, double c) {
  HTDP_CHECK_GT(c, 0.0);
  return std::log(SampleGamma(rng, c));
}

double SampleLogistic(Rng& rng, double u, double s) {
  HTDP_CHECK_GT(s, 0.0);
  const double p = rng.UniformOpen();
  return u + s * std::log(p / (1.0 - p));
}

double SamplePareto(Rng& rng, double alpha) {
  HTDP_CHECK_GT(alpha, 0.0);
  return std::pow(rng.UniformOpen(), -1.0 / alpha);
}

ScalarDistribution ScalarDistribution::Normal(double mean, double stddev) {
  return {Family::kNormal, mean, stddev};
}
ScalarDistribution ScalarDistribution::Laplace(double scale) {
  return {Family::kLaplace, scale, 0.0};
}
ScalarDistribution ScalarDistribution::Lognormal(double mu, double sigma) {
  return {Family::kLognormal, mu, sigma};
}
ScalarDistribution ScalarDistribution::StudentT(double nu) {
  return {Family::kStudentT, nu, 0.0};
}
ScalarDistribution ScalarDistribution::LogLogistic(double c) {
  return {Family::kLogLogistic, c, 0.0};
}
ScalarDistribution ScalarDistribution::LogGamma(double c) {
  return {Family::kLogGamma, c, 0.0};
}
ScalarDistribution ScalarDistribution::Logistic(double u, double s) {
  return {Family::kLogistic, u, s};
}
ScalarDistribution ScalarDistribution::Pareto(double alpha) {
  return {Family::kPareto, alpha, 0.0};
}
ScalarDistribution ScalarDistribution::None() {
  return {Family::kNone, 0.0, 0.0};
}

double ScalarDistribution::Sample(Rng& rng) const {
  switch (family) {
    case Family::kNormal:
      return SampleNormal(rng, param1, param2);
    case Family::kLaplace:
      return SampleLaplace(rng, param1);
    case Family::kLognormal:
      return SampleLognormal(rng, param1, param2);
    case Family::kStudentT:
      return SampleStudentT(rng, param1);
    case Family::kLogLogistic:
      return SampleLogLogistic(rng, param1);
    case Family::kLogGamma:
      return SampleLogGamma(rng, param1);
    case Family::kLogistic:
      return SampleLogistic(rng, param1, param2);
    case Family::kPareto:
      return SamplePareto(rng, param1);
    case Family::kNone:
      return 0.0;
  }
  HTDP_CHECK(false) << "unreachable distribution family";
  return 0.0;
}

std::string ScalarDistribution::Name() const {
  std::ostringstream out;
  switch (family) {
    case Family::kNormal:
      out << "Normal(" << param1 << "," << param2 << ")";
      break;
    case Family::kLaplace:
      out << "Laplace(" << param1 << ")";
      break;
    case Family::kLognormal:
      out << "Lognormal(" << param1 << "," << param2 << ")";
      break;
    case Family::kStudentT:
      out << "StudentT(" << param1 << ")";
      break;
    case Family::kLogLogistic:
      out << "LogLogistic(" << param1 << ")";
      break;
    case Family::kLogGamma:
      out << "LogGamma(" << param1 << ")";
      break;
    case Family::kLogistic:
      out << "Logistic(" << param1 << "," << param2 << ")";
      break;
    case Family::kPareto:
      out << "Pareto(" << param1 << ")";
      break;
    case Family::kNone:
      out << "None";
      break;
  }
  return out.str();
}

}  // namespace htdp
