// The arbitration-policy interface and the hardware-cost introspection used
// by the implementation-overhead experiment (paper §IV-B reports <0.1% FPGA
// area growth for CBA; we report state bits and LUT-equivalents instead).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/contracts.hpp"
#include "common/types.hpp"

namespace cbus::bus {

/// Everything an arbiter may look at when picking a winner.
struct ArbInput {
  /// Bit i set == master i has a pending *eligible* request.
  std::uint32_t candidates = 0;
  /// Cycle each master's pending request was raised (valid where bit set).
  std::span<const Cycle> arrival;
  /// The cycle at which the granted transfer would start (now + 1).
  Cycle grant_cycle = 0;
};

/// Rough hardware-cost model of an arbiter implementation: enough to rank
/// policies and to show that CBA's additions are negligible, which is the
/// paper's implementation-overhead claim.
struct HwCost {
  unsigned state_bits = 0;     ///< flip-flops
  unsigned lut_equivalents = 0;///< 4-input LUT estimate for the comb. logic
  std::string notes;
};

class Arbiter {
 public:
  explicit Arbiter(std::uint32_t n_masters) : n_masters_(n_masters) {
    CBUS_EXPECTS(n_masters >= 1 && n_masters <= kMaxMasters);
  }

  Arbiter(const Arbiter&) = delete;
  Arbiter& operator=(const Arbiter&) = delete;
  virtual ~Arbiter() = default;

  /// Pick a winner among `input.candidates`, or return kNoMaster to leave
  /// the bus idle this round (TDMA does this outside the owner's slot).
  /// Must not be called with an empty candidate set.
  [[nodiscard]] virtual MasterId pick(const ArbInput& input) = 0;

  /// Winner notification (update rotation pointers, permutation windows...).
  virtual void on_grant(MasterId master, Cycle now) = 0;

  /// Event horizon of an idle bus with `pending` requests (non-empty), asked
  /// after cycle `now` arbitrated: the first cycle after `now` whose
  /// arbitration may pick one of them, assuming they stay pending. Every
  /// cycle before it must decline without side effects. The default,
  /// now + 1, suits every arbiter that picks from any non-empty set.
  [[nodiscard]] virtual Cycle next_pick(std::uint32_t /*pending*/,
                                        Cycle now) const {
    return now + 1;
  }

  /// Transfer-completion notification with the actual occupancy: post-paid
  /// policies (deficit round-robin) charge their accounting here. Default
  /// no-op.
  virtual void on_complete(MasterId /*master*/, Cycle /*hold*/) {}

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual HwCost hw_cost() const = 0;

  [[nodiscard]] std::uint32_t n_masters() const noexcept { return n_masters_; }

 private:
  std::uint32_t n_masters_;
};

}  // namespace cbus::bus
