// Placement functions: map a line address to a set index.
//
// Random placement implements the seeded parametric hash used by
// MBPTA-compliant caches (Hernandez et al., DASIA 2015): a per-run seed
// re-randomizes which addresses conflict, so layout-induced execution-time
// variation becomes observable across runs.
//
// Both take a power-of-two `n_sets` (CacheConfig::validate) and are inline:
// the cache computes one index per access.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace cbus::cache {

/// Conventional modulo indexing.
[[nodiscard]] inline std::uint32_t modulo_index(Addr line_addr,
                                                std::uint32_t n_sets) noexcept {
  return static_cast<std::uint32_t>(line_addr) & (n_sets - 1);
}

/// Seeded hash indexing: uniform over sets, deterministic per (seed, line).
[[nodiscard]] inline std::uint32_t random_hash_index(
    Addr line_addr, std::uint64_t seed, std::uint32_t n_sets) noexcept {
  // SplitMix-style finalizer over (line ^ seed): full-avalanche, so each
  // seed induces an (approximately) independent placement function.
  std::uint64_t z = (static_cast<std::uint64_t>(line_addr) + 1) ^ seed;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return static_cast<std::uint32_t>(z) & (n_sets - 1);
}

}  // namespace cbus::cache
