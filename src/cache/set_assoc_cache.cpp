#include "cache/set_assoc_cache.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "common/contracts.hpp"
#include "rng/permutation.hpp"

namespace cbus::cache {

SetAssocCache::SetAssocCache(const CacheConfig& config, rng::RandBank& bank,
                             std::string_view name)
    : config_(config), placement_seed_(bank.derive_seed()) {
  config_.validate();
  line_shift_ =
      static_cast<std::uint32_t>(std::countr_zero(config_.line_bytes));
  n_sets_ = config_.n_sets();
  const std::size_t n_ways = static_cast<std::size_t>(n_sets_) * config_.ways;
  tags_.resize(n_ways);
  dirty_.resize(n_ways);
  switch (config_.replacement) {
    case ReplacementKind::kLru:
      last_use_.resize(n_ways);
      break;
    case ReplacementKind::kRandom:
      repl_.emplace(bank.open(std::string(name) + ".repl"));
      break;
  }
}

std::size_t SetAssocCache::row_of(Addr line) const noexcept {
  const std::uint32_t set =
      config_.placement == PlacementKind::kModulo
          ? modulo_index(line, n_sets_)
          : random_hash_index(line, placement_seed_, n_sets_);
  return static_cast<std::size_t>(set) * config_.ways;
}

std::uint32_t SetAssocCache::find(std::size_t row,
                                  std::uint32_t tag) const noexcept {
  const std::uint32_t* tags = tags_.data() + row;
  std::uint32_t w = 0;
  while (w < config_.ways && tags[w] != tag) ++w;
  return w;
}

std::uint32_t SetAssocCache::victim(std::size_t row) {
  switch (config_.replacement) {
    case ReplacementKind::kLru: {
      // The first way with the oldest stamp.
      const auto* stamps = last_use_.data() + row;
      return static_cast<std::uint32_t>(
          std::min_element(stamps, stamps + config_.ways) - stamps);
    }
    case ReplacementKind::kRandom:
      return rng::uniform_below(*repl_, config_.ways);
  }
  CBUS_ASSERT(false);
  return 0;
}

AccessResult SetAssocCache::access(Addr addr, bool allocate_on_miss,
                                   bool mark_dirty) {
  const Addr line = line_of(addr);
  const std::size_t row = row_of(line);
  ++stats_.accesses;

  AccessResult result;
  if (const std::uint32_t w = find(row, line + 1); w < config_.ways) {
    ++stats_.hits;
    if (!last_use_.empty()) last_use_[row + w] = ++use_stamp_;
    if (mark_dirty) dirty_[row + w] = 1;
    result.hit = true;
    return result;
  }

  ++stats_.misses;
  if (!allocate_on_miss) return result;

  // Invalid ways fill first; a full row consults the replacement policy.
  std::uint32_t slot = find(row, 0);
  if (slot == config_.ways) {
    slot = victim(row);
    CBUS_ASSERT(slot < config_.ways);
    result.victim_valid = true;
    result.victim_dirty = dirty_[row + slot] != 0;
    result.victim_line = tags_[row + slot] - 1;
    ++stats_.evictions;
    if (result.victim_dirty) ++stats_.dirty_evictions;
  }

  tags_[row + slot] = line + 1;
  dirty_[row + slot] = mark_dirty ? 1 : 0;
  if (!last_use_.empty()) last_use_[row + slot] = ++use_stamp_;
  result.filled = true;
  return result;
}

bool SetAssocCache::probe(Addr addr) const {
  const Addr line = line_of(addr);
  return find(row_of(line), line + 1) < config_.ways;
}

}  // namespace cbus::cache
