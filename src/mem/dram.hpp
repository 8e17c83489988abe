// Open-page DRAM bank model (DDR2-class, the prototype's memory).
//
// The base platform uses the paper's flat 28-cycle memory latency. This
// optional model refines it with row-buffer locality: an access hitting
// the currently open row of its bank is faster (t_CAS-dominated) than one
// that must precharge + activate first. Defaults are chosen so the
// worst case stays at the paper's 28 cycles -- MaxL = 56 remains a valid
// upper bound -- while sequential streams gain from open rows.
#pragma once

#include <cstdint>
#include <vector>

#include "common/contracts.hpp"
#include "common/types.hpp"

namespace cbus::mem {

struct DramConfig {
  std::uint32_t banks = 4;
  std::uint32_t row_bytes = 2048;
  Cycle row_hit = 20;   ///< open-row access
  Cycle row_miss = 28;  ///< precharge + activate + access (the paper's 28)

  void validate() const {
    CBUS_EXPECTS(banks >= 1);
    CBUS_EXPECTS((banks & (banks - 1)) == 0);
    CBUS_EXPECTS(row_bytes >= 64 && (row_bytes & (row_bytes - 1)) == 0);
    CBUS_EXPECTS(row_hit >= 1);
    CBUS_EXPECTS(row_miss >= row_hit);
  }
};

struct DramStats {
  std::uint64_t accesses = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;
};

class DramModel {
 public:
  explicit DramModel(const DramConfig& config);

  /// Latency of one memory access; updates the bank's open row.
  [[nodiscard]] Cycle access(Addr addr);

  /// Close every row (rank-level precharge; new run).
  void reset();

  [[nodiscard]] const DramStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const DramConfig& config() const noexcept { return config_; }

  /// Worst-case single-access latency (row_miss): feeds MaxL validation.
  [[nodiscard]] Cycle worst_case() const noexcept { return config_.row_miss; }

 private:
  struct Bank {
    bool open = false;
    std::uint32_t row = 0;
  };

  DramConfig config_;
  std::vector<Bank> banks_;
  DramStats stats_;
};

}  // namespace cbus::mem
