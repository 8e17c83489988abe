// Core vocabulary types shared by every cbus subsystem.
//
// The simulator is cycle-accurate: every quantity of time is an integral
// number of bus-clock cycles. Addresses are 32-bit (SPARC V8 / LEON3).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string_view>

namespace cbus {

/// A point in time or a duration, in bus-clock cycles.
using Cycle = std::uint64_t;

/// A cycle no simulation reaches: the event horizon of a component that
/// waits on someone else (see sim::Component::next_event).
inline constexpr Cycle kNever = std::numeric_limits<Cycle>::max();

/// Identifier of a bus master (a core, in the paper's platform).
using MasterId = std::uint32_t;

/// A 32-bit physical address (SPARC V8).
using Addr = std::uint32_t;

/// Sentinel for "no master".
inline constexpr MasterId kNoMaster = std::numeric_limits<MasterId>::max();

/// Upper bound on bus masters supported by the arbiter mask types.
inline constexpr std::size_t kMaxMasters = 32;

/// Kinds of memory operations a core can issue.
enum class MemOpKind : std::uint8_t {
  kLoad,    ///< data read
  kStore,   ///< data write (write-through from L1)
  kAtomic,  ///< atomic read-modify-write (e.g. SPARC LDSTUB); uncacheable
};

[[nodiscard]] constexpr std::string_view to_string(MemOpKind kind) noexcept {
  switch (kind) {
    case MemOpKind::kLoad: return "load";
    case MemOpKind::kStore: return "store";
    case MemOpKind::kAtomic: return "atomic";
  }
  return "?";
}

/// Result of a cache lookup, used to derive bus-transaction hold times.
enum class AccessOutcome : std::uint8_t {
  kHit,            ///< L2 hit: 5-cycle transaction
  kMissClean,      ///< L2 miss, clean victim: one memory access (28 cycles)
  kMissDirty,      ///< L2 miss, dirty victim: two memory accesses (56 cycles)
  kUncached,       ///< bypasses caches (atomics): two memory accesses
};

[[nodiscard]] constexpr std::string_view to_string(AccessOutcome outcome) noexcept {
  switch (outcome) {
    case AccessOutcome::kHit: return "hit";
    case AccessOutcome::kMissClean: return "miss-clean";
    case AccessOutcome::kMissDirty: return "miss-dirty";
    case AccessOutcome::kUncached: return "uncached";
  }
  return "?";
}

/// Platform operating mode (paper §III-C, Table I).
enum class PlatformMode : std::uint8_t {
  kOperation,       ///< normal execution: REQ raised only on real requests
  kWcetEstimation,  ///< analysis: contender REQ forced, COMP latch active
};

[[nodiscard]] constexpr std::string_view to_string(PlatformMode mode) noexcept {
  switch (mode) {
    case PlatformMode::kOperation: return "operation";
    case PlatformMode::kWcetEstimation: return "wcet-estimation";
  }
  return "?";
}

}  // namespace cbus
