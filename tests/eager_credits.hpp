// The eager Table-I counters: every tick walks every slot and updates its
// budget in place, the way core::CreditState stored its counters before it
// settled them on read. Test-only: it is the oracle the lazy counters are
// fuzzed against (their closed forms must give what these per-cycle
// updates give, at every read), and it shares no code with them.
// Crossings are found by ticking a copy until they happen.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "core/cba_config.hpp"

namespace cbus::test {

class EagerCredits {
 public:
  explicit EagerCredits(core::CbaConfig config)
      : config_(std::move(config)),
        values_(config_.initial),
        clamps_(config_.n_masters, 0) {
    config_.validate();
  }

  /// One clock edge: every counter gains its increment up to its cap;
  /// the holder pays `scale` in the same step and clamps at zero when it
  /// cannot (counted).
  void tick(MasterId holder) {
    for (MasterId m = 0; m < config_.n_masters; ++m) {
      const std::uint64_t cap = config_.saturation[m];
      const std::uint64_t up = values_[m] + config_.increment[m];
      if (m != holder) {
        values_[m] = std::min(up, cap);
      } else if (config_.scale <= up) {
        values_[m] = std::min(up - config_.scale, cap);
      } else {
        values_[m] = 0;
        ++clamps_[m];
      }
    }
  }

  void advance(MasterId holder, Cycle cycles) {
    for (Cycle c = 0; c < cycles; ++c) tick(holder);
  }

  /// Burst debit of `occupancy` cycles; the shortfall clamps at zero and
  /// counts one clamp per cycle it could not pay.
  void charge(MasterId m, Cycle occupancy) {
    const std::uint64_t units = config_.scale * occupancy;
    if (values_[m] >= units) {
      values_[m] -= units;
      return;
    }
    clamps_[m] += (units - values_[m] + config_.scale - 1) / config_.scale;
    values_[m] = 0;
  }

  void set_budget(MasterId m, std::uint64_t units) { values_[m] = units; }
  void set_increment(MasterId m, std::uint64_t units) {
    config_.increment[m] = units;
  }
  [[nodiscard]] std::uint64_t budget(MasterId m) const { return values_[m]; }
  [[nodiscard]] bool eligible(MasterId m) const {
    return values_[m] >= config_.threshold[m];
  }
  [[nodiscard]] bool saturated(MasterId m) const {
    return values_[m] == config_.saturation[m];
  }
  [[nodiscard]] std::uint32_t eligible_mask(std::uint32_t pending) const {
    std::uint32_t mask = 0;
    for (MasterId m = 0; m < config_.n_masters; ++m) {
      if (((pending >> m) & 1u) != 0 && eligible(m)) mask |= 1u << m;
    }
    return mask;
  }

  /// Holder-free ticks until a master of `mask` is eligible, by ticking a
  /// copy; kNever if none is within the largest cap's worth of ticks (a
  /// counter gaining at least one unit per tick gets there by then).
  [[nodiscard]] Cycle ticks_to_eligible(std::uint32_t mask) const {
    return ticks_until([mask](const EagerCredits& c) {
      return c.eligible_mask(mask) != 0;
    });
  }
  [[nodiscard]] Cycle ticks_to_saturation(MasterId m) const {
    return ticks_until(
        [m](const EagerCredits& c) { return c.saturated(m); });
  }

  [[nodiscard]] std::uint64_t underflow_clamps() const {
    std::uint64_t total = 0;
    for (const std::uint64_t c : clamps_) total += c;
    return total;
  }
  [[nodiscard]] std::uint64_t underflow_clamps(MasterId m) const {
    return clamps_[m];
  }

  [[nodiscard]] const core::CbaConfig& config() const { return config_; }

 private:
  template <typename Reached>
  [[nodiscard]] Cycle ticks_until(Reached reached) const {
    const std::uint64_t limit =
        *std::max_element(config_.saturation.begin(),
                          config_.saturation.end()) +
        1;
    EagerCredits copy = *this;
    for (Cycle t = 0; t <= limit; ++t) {
      if (reached(copy)) return t;
      copy.tick(kNoMaster);
    }
    return kNever;
  }

  core::CbaConfig config_;
  std::vector<std::uint64_t> values_;
  std::vector<std::uint64_t> clamps_;
};

}  // namespace cbus::test
