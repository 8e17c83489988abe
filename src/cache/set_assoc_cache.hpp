// A set-associative cache model with pluggable placement and replacement.
//
// Purely functional timing model: it tracks which lines are resident and
// dirty so the bus slave can derive transaction hold times (hit / miss /
// dirty-victim miss); it does not store data. Tags hold the full line
// address, which is required under random placement (the set index is not
// recoverable from the tag).
//
// Storage is one packed row per set, row-major over the sets: a 32-bit tag
// per way holding `line + 1` (0 marks an invalid way; lines are addresses
// shifted right by at least 2, so `line + 1` never wraps), a dirty byte
// per way and, for LRU caches only, a 64-bit last-use stamp per way. An
// 8-way set's tags are one 32-byte row, and a lookup scans only that row.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/cache_config.hpp"
#include "cache/placement.hpp"
#include "common/types.hpp"
#include "rng/rand_bank.hpp"

namespace cbus::cache {

/// What a lookup+allocate did; drives bus hold-time computation.
struct AccessResult {
  bool hit = false;
  bool filled = false;        ///< a line was allocated
  bool victim_valid = false;  ///< the allocation evicted a resident line
  bool victim_dirty = false;  ///< ... that was dirty (write-back needed)
  Addr victim_line = 0;       ///< line address of the evicted line
};

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dirty_evictions = 0;
};

class SetAssocCache {
 public:
  /// `bank` supplies the placement seed, then (random replacement only)
  /// the `<name>.repl` channel; one cache == one independent consumer of
  /// platform randomness.
  SetAssocCache(const CacheConfig& config, rng::RandBank& bank,
                std::string_view name);

  /// Look up `addr`; on miss, optionally allocate (evicting a victim).
  /// `mark_dirty` sets the line's dirty bit on hit or fill (write-back
  /// caches); write-through caches pass false.
  AccessResult access(Addr addr, bool allocate_on_miss, bool mark_dirty);

  /// Lookup without any state change (no LRU update, no allocation).
  [[nodiscard]] bool probe(Addr addr) const;

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }

  [[nodiscard]] const CacheConfig& config() const noexcept { return config_; }
  [[nodiscard]] Addr line_of(Addr addr) const noexcept {
    return addr >> line_shift_;
  }

 private:
  /// First element of `line`'s row in the per-way arrays.
  [[nodiscard]] std::size_t row_of(Addr line) const noexcept;
  /// The way of the row at `row` holding `tag`, or config().ways if none.
  [[nodiscard]] std::uint32_t find(std::size_t row,
                                   std::uint32_t tag) const noexcept;
  /// The way a fill evicts from the full row at `row`.
  [[nodiscard]] std::uint32_t victim(std::size_t row);

  CacheConfig config_;
  std::uint32_t line_shift_ = 0;  ///< log2(line_bytes)
  std::uint32_t n_sets_ = 0;
  std::uint64_t placement_seed_;
  std::vector<std::uint32_t> tags_;  ///< line + 1 per way; 0 = invalid
  std::vector<std::uint8_t> dirty_;
  /// LRU only: the access stamp per way. An invalid way's stamp is never
  /// read, because invalid ways fill before a victim is chosen and every
  /// fill stamps its way.
  std::vector<std::uint64_t> last_use_;
  std::uint64_t use_stamp_ = 0;
  std::optional<rng::RandChannel> repl_;  ///< random replacement only
  CacheStats stats_;
};

}  // namespace cbus::cache
