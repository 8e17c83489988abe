// A set-associative cache model with pluggable placement and replacement.
//
// Purely functional timing model: it tracks which lines are resident and
// dirty so the bus slave can derive transaction hold times (hit / miss /
// dirty-victim miss); it does not store data. Tags hold the full line
// address, which is required under random placement (the set index is not
// recoverable from the tag).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cache/cache_config.hpp"
#include "cache/placement.hpp"
#include "cache/replacement.hpp"
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
  /// `bank` supplies the placement seed and the random-replacement channel;
  /// one cache == one independent consumer of platform randomness.
  SetAssocCache(const CacheConfig& config, rng::RandBank& bank,
                std::string_view name);

  /// Look up `addr`; on miss, optionally allocate (evicting a victim).
  /// `mark_dirty` sets the line's dirty bit on hit or fill (write-back
  /// caches); write-through caches pass false.
  AccessResult access(Addr addr, bool allocate_on_miss, bool mark_dirty);

  /// Lookup without any state change (no LRU update, no allocation).
  [[nodiscard]] bool probe(Addr addr) const;

  /// Drop a line if resident (e.g. invalidation traffic). Returns true if
  /// the line was present.
  bool invalidate(Addr addr);

  /// Invalidate everything and re-randomize placement for a new run.
  void reset(std::uint64_t placement_seed);

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }

  [[nodiscard]] const CacheConfig& config() const noexcept { return config_; }
  [[nodiscard]] Addr line_of(Addr addr) const noexcept {
    return addr / config_.line_bytes;
  }

 private:
  struct Way {
    Addr line = 0;
    bool valid = false;
    bool dirty = false;
    WayMeta meta;
  };

  [[nodiscard]] std::uint32_t index_of(Addr line_addr) const noexcept;
  [[nodiscard]] Way* find(std::uint32_t set, Addr line_addr);
  [[nodiscard]] const Way* find(std::uint32_t set, Addr line_addr) const;

  CacheConfig config_;
  std::uint64_t placement_seed_;
  std::vector<Way> ways_;  ///< n_sets x ways, row-major
  std::unique_ptr<ReplacementPolicy> replacement_;
  std::uint64_t use_stamp_ = 0;
  CacheStats stats_;
};

}  // namespace cbus::cache
