// PhasedStream: concatenate kernel profiles into program phases.
//
// Real applications alternate between behaviours (init, compute sweep,
// I/O-ish bursts); EVT-based analysis must cope with the resulting
// execution-time multimodality. A PhasedStream plays each phase's ops in
// order, optionally cycling for several iterations -- all derived from
// the same single reset seed.
//
// PhaseShiftedStream is the adaptive-controller stressor: an infinite
// strided load that alternates between a saturating ACTIVE phase and a
// throttled QUIET phase every `period` ops, with a per-master `offset`
// so co-runners peak at different times. Aggregate demand then shifts
// between masters over the run -- exactly the load a static Table-I
// allocation cannot track and an explicit-rate controller should.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "cpu/op_stream.hpp"
#include "workloads/kernel_stream.hpp"

namespace cbus::workloads {

class PhasedStream final : public cpu::OpStream {
 public:
  /// Each profile is one phase (its n_ops is the phase length); the whole
  /// sequence repeats `iterations` times.
  PhasedStream(std::vector<KernelProfile> phases, std::uint32_t iterations = 1);

  [[nodiscard]] std::optional<cpu::MemOp> next() override;
  void reset(std::uint64_t seed) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return name_;
  }

  /// Phase currently being played (for instrumentation).
  [[nodiscard]] std::size_t current_phase() const noexcept { return index_; }

 private:
  std::string name_;
  std::vector<std::unique_ptr<KernelStream>> phases_;
  std::uint32_t iterations_;
  std::uint32_t iteration_ = 0;
  std::size_t index_ = 0;
  std::uint64_t seed_ = 0;
};

/// Square-wave load: `period` saturating ops (gap 0), then `period`
/// throttled ops (`quiet_gap` compute cycles each), repeating forever.
/// `offset` shifts the wave by that many ops so each co-runner can start
/// at a different point of the cycle. Deterministic: reset() only
/// rewinds the position -- the seed is unused, like StreamingStream.
class PhaseShiftedStream final : public cpu::OpStream {
 public:
  PhaseShiftedStream(std::uint64_t period, std::uint64_t offset = 0,
                     std::uint32_t quiet_gap = 200,
                     Addr base = 0x9000'0000,
                     std::uint32_t footprint_bytes = 8 * 1024 * 1024,
                     std::uint32_t line_bytes = 32);

  [[nodiscard]] std::optional<cpu::MemOp> next() override;
  void reset(std::uint64_t seed) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "phase-shifted";
  }

  /// True while the NEXT op belongs to the saturating half of the wave.
  [[nodiscard]] bool active() const noexcept {
    return ((pos_ + offset_) / period_) % 2 == 0;
  }

 private:
  std::uint64_t period_;
  std::uint64_t offset_;
  std::uint32_t quiet_gap_;
  Addr base_;
  std::uint32_t footprint_;
  std::uint32_t line_;
  std::uint64_t pos_ = 0;
};

}  // namespace cbus::workloads
