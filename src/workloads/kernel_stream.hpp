// KernelStream: turns a KernelProfile into a per-run-randomized OpStream.
// All randomness derives from the reset() seed, so a run is exactly
// reproducible and two platform configurations can replay identical op
// sequences (paired comparisons need this).
#pragma once

#include "cpu/op_stream.hpp"
#include "rng/permutation.hpp"
#include "rng/xorshift.hpp"
#include "workloads/kernel_profile.hpp"

namespace cbus::workloads {

class KernelStream final : public cpu::OpStream {
 public:
  explicit KernelStream(KernelProfile profile);

  [[nodiscard]] std::optional<cpu::MemOp> next() override;
  void reset(std::uint64_t seed) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return profile_.name;
  }

  [[nodiscard]] const KernelProfile& profile() const noexcept {
    return profile_;
  }

 private:
  [[nodiscard]] Addr next_address();

  KernelProfile profile_;
  rng::XorShift64Star engine_;
  // The profile's fixed bounds, in words and in cycles (no division per
  // draw).
  rng::BoundedUniform hot_word_;
  rng::BoundedUniform footprint_word_;
  rng::BoundedUniform gap_;
  std::uint64_t emitted_ = 0;
  std::uint64_t stride_pos_ = 0;
  std::uint32_t chase_cursor_ = 0;
  std::uint32_t burst_remaining_ = 0;
};

}  // namespace cbus::workloads
