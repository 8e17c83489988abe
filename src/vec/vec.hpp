// cbus::vec -- the Table-I row kernels of the batch credit engine.
//
// The batch credit engine (core::BatchCreditEngine) lays slot m's
// Table-I counters contiguously across lanes (counter-major CreditSoA
// rows, padded to kLaneAlign), so the per-cycle credit update and the
// saturation test feeding the COMP latch are one loop per slot across
// the lanes. Campaigns no longer run the engine (each run skips quiet
// cycles on its own lane; docs/VECTORIZATION.md); it is kept for
// perfbench's traced replay. Each kernel has one portable
// implementation, checked against an independent Table-I reference by
// tests/test_vec.cpp.
#pragma once

#include <cstddef>
#include <cstdint>

namespace cbus::vec {

/// Lane counts are padded to a multiple of this in counter-major
/// arenas, so rows are allocated in kLaneAlign units.
inline constexpr std::size_t kLaneAlign = 8;

/// One counter-major row (slot m across all lanes) for the Table-I
/// per-cycle update. Bit l of the masks refers to lane l; lanes >= 64
/// never reach the engine (the campaign driver falls back to the
/// classic path).
///
/// `n` is the LIVE lane count; rows are allocated in kLaneAlign units
/// and the padding lanes' content never matters (mask bits >= n are
/// zero by contract).
struct CreditRow {
  std::uint64_t* values;        ///< row base (padded to kLaneAlign)
  const std::uint64_t* incs;    ///< per-lane recovery increments
  std::uint64_t scale;          ///< occupancy charge per holding cycle
  std::uint64_t cap;            ///< saturation cap of this slot
  std::uint64_t charge_mask;    ///< bit l: lane l's bus holder == slot
  std::uint64_t update_mask;    ///< bit l: lane l is live (others frozen)
  std::uint32_t n;              ///< live lane count
};

/// A whole engine cycle's Table-I updates -- every slot row of the
/// arena -- as ONE call. The descriptor is built once per campaign
/// slice; only `charge`, `update_mask` and the `clamped` outputs change
/// per cycle.
struct CreditCycle {
  std::uint64_t* values;        ///< arena base: slot-major padded rows
  const std::uint64_t* incs;    ///< increment arena, same geometry
  const std::uint64_t* caps;    ///< per-slot saturation caps [slots]
  const std::uint64_t* charge;  ///< per-slot holder masks [slots]
  std::uint64_t* clamped;       ///< out: per-slot clamp masks [slots]
  std::uint64_t scale;          ///< occupancy charge per holding cycle
  std::uint64_t update_mask;    ///< bit l: lane l is live
  std::uint32_t stride;         ///< elements between rows (padded lanes)
  std::uint32_t lanes;          ///< live lane count
  std::uint32_t slots;          ///< rows to update
};

/// The saturation words feeding the virtual-contender COMP latches --
/// bit l of out[i] set iff slot slots[i]'s counter equals caps[i] on
/// lane l -- for every contender slot in one call.
struct SatQuery {
  const std::uint64_t* values;  ///< arena base: slot-major padded rows
  const std::uint32_t* slots;   ///< slot ids to test [n]
  const std::uint64_t* caps;    ///< per-query saturation cap [n]
  std::uint64_t* out;           ///< out: saturation words [n]
  std::uint32_t stride;         ///< elements between rows (padded lanes)
  std::uint32_t lanes;          ///< live lane count
  std::uint32_t n;              ///< queries
};

/// True: every build has the batched credit engine. Campaigns no longer
/// run it; perfbench's traced replay is the last reader, which keeps it
/// engaged on con_wcet.
[[nodiscard]] bool engine_enabled() noexcept;

/// Table-I tick for one slot row across lanes. Per lane l < n with
/// update bit set:
///   up     = values[l] + incs[l]
///   charge = (charge_mask bit l) ? scale : 0
///   values[l] = up < charge ? 0 : min(up - charge, cap)
/// Returns the clamp mask (lanes where up < charge -- only reachable
/// when MaxL was under-estimated). Lanes without the update bit keep
/// their value exactly. Values are assumed < 2^63 (Table-I units are
/// tiny; CbaConfig::validate bounds them).
std::uint64_t credit_tick_row(const CreditRow& row) noexcept;

/// credit_tick_row over every slot row of an arena.
void credit_tick_cycle(const CreditCycle& cycle) noexcept;

/// Bit l set iff row[l] == target, for l < n (the BUDGi == cap
/// saturation word feeding the virtual-contender COMP latch).
std::uint64_t eq_mask_row(const std::uint64_t* row, std::uint64_t target,
                          std::uint32_t n) noexcept;

/// eq_mask_row over a list of slot rows.
void sat_words(const SatQuery& query) noexcept;

}  // namespace cbus::vec
