// The end-to-end MBPTA analysis: execution-time samples in, pWCET curve
// and applicability diagnostics out.
#pragma once

#include <span>
#include <vector>

#include "mbpta/diagnostics.hpp"
#include "mbpta/gumbel.hpp"

namespace cbus::mbpta {

struct PwcetPoint {
  double exceedance_probability = 0.0;
  double wcet_estimate = 0.0;
};

struct MbptaConfig {
  std::size_t block_size = 10;  ///< block-maxima grouping
  /// Exceedance probabilities reported on the pWCET curve.
  std::vector<double> probabilities = {1e-3, 1e-6, 1e-9, 1e-12, 1e-15};
};

struct MbptaResult {
  GumbelFit fit;           ///< PWM fit on block maxima (primary)
  GumbelFit moments_fit;   ///< cross-check estimator
  Diagnostics diagnostics; ///< on the block maxima
  std::vector<PwcetPoint> curve;
  std::size_t maxima_used = 0;
  double observed_max = 0.0;
};

/// Block maxima the analysis needs: the CV and runs tests of the
/// diagnostics take at least four.
inline constexpr std::size_t kMinBlockMaxima = 4;

/// Run the full analysis. Fewer than kMinBlockMaxima * block_size samples
/// throw std::invalid_argument with a message that states the run count
/// needed (and no source location).
[[nodiscard]] MbptaResult analyze(std::span<const double> exec_times,
                                  const MbptaConfig& config = {});

}  // namespace cbus::mbpta
