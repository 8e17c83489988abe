// Shared infrastructure for the experiment binaries: paper-style table
// printing and campaign sizing.
//
// Every bench binary does two things:
//   1. prints the reproduced paper table/figure as rows on stdout, and
//   2. registers google-benchmark timings for the underlying simulations.
// CBUS_BENCH_RUNS (environment) overrides the per-cell run count; the
// paper uses 1,000 runs per cell, the default here is smaller so the whole
// suite stays interactive.
#pragma once

#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bus/arbiter_factory.hpp"
#include "bus/bus.hpp"
#include "core/credit_state.hpp"
#include "platform/synthetic_master.hpp"
#include "rng/rand_bank.hpp"
#include "sim/kernel.hpp"

namespace cbus::bench {

/// A raw-bus rig of synthetic forced-hold masters: the workhorse of the
/// ablation benches (no caches, so every effect is the arbiter's).
class SyntheticRig {
 public:
  SyntheticRig(bus::ArbiterKind kind, std::optional<core::CbaConfig> cba,
               Cycle tdma_slot = 56, std::uint64_t seed = 0x51D);
  ~SyntheticRig();  // out of line: ForcedHoldOnlySlave is incomplete here

  /// Add a master issuing `requests` (0 = unbounded) `hold`-cycle
  /// transactions separated by `gap` cycles, idle for `initial_delay`
  /// cycles first.
  platform::SyntheticMaster& add_master(MasterId id, Cycle hold,
                                        std::uint64_t requests,
                                        std::uint32_t gap,
                                        std::uint32_t initial_delay = 0,
                                        bool instant_rerequest = false);

  /// Run for `cycles` (call after all masters are added).
  void run(Cycle cycles);

  /// Run until master 0 finishes (requests > 0); returns its finish cycle.
  [[nodiscard]] Cycle run_until_first_done(Cycle max_cycles);

  [[nodiscard]] const bus::BusStatistics& stats() const {
    return bus_->statistics();
  }
  [[nodiscard]] core::CreditState* filter() noexcept {
    return filter_.get();
  }

 private:
  class ForcedHoldOnlySlave;

  rng::RandBank bank_;
  std::unique_ptr<ForcedHoldOnlySlave> slave_;
  std::unique_ptr<bus::Arbiter> arbiter_;
  std::unique_ptr<bus::NonSplitBus> bus_;
  std::unique_ptr<core::CreditState> filter_;
  std::vector<std::unique_ptr<platform::SyntheticMaster>> masters_;
  sim::Kernel kernel_;
  bool finalized_ = false;
};

/// Per-cell campaign runs (default `fallback`, override via CBUS_BENCH_RUNS).
[[nodiscard]] std::uint32_t campaign_runs(std::uint32_t fallback);

/// Fixed-width text table, markdown-ish, for paper-style output.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);
  void print(std::ostream& out = std::cout) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double with fixed decimals.
[[nodiscard]] std::string fmt(double value, int decimals = 2);

/// Section banner for bench stdout.
void banner(const std::string& title, const std::string& subtitle);

}  // namespace cbus::bench
