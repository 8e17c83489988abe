#include "mbpta/pwcet.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/contracts.hpp"

namespace cbus::mbpta {

MbptaResult analyze(std::span<const double> exec_times,
                    const MbptaConfig& config) {
  CBUS_EXPECTS(config.block_size >= 1);
  // Checked here, before any fit, with a message that names no source
  // location: experiment sinks print it as the job's pwcet error.
  if (exec_times.size() / config.block_size < kMinBlockMaxima) {
    throw std::invalid_argument(
        "pwcet needs at least " +
        std::to_string(kMinBlockMaxima * config.block_size) +
        " runs (four block maxima of " + std::to_string(config.block_size) +
        " runs each), got " + std::to_string(exec_times.size()));
  }

  MbptaResult result;
  const std::vector<double> maxima =
      block_maxima(exec_times, config.block_size);
  result.maxima_used = maxima.size();
  result.fit = fit_pwm(maxima);
  result.moments_fit = fit_moments(maxima);
  result.diagnostics = diagnose(maxima, result.moments_fit, result.fit);
  result.observed_max =
      *std::max_element(exec_times.begin(), exec_times.end());

  result.curve.reserve(config.probabilities.size());
  for (const double p : config.probabilities) {
    result.curve.push_back(PwcetPoint{p, result.fit.quantile_exceedance(p)});
  }
  return result;
}

}  // namespace cbus::mbpta
