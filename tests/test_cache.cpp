// Cache model tests: geometry validation, hit/miss/eviction mechanics,
// dirty-victim tracking, placement functions, replacement policies, the
// store buffer, and reference-model equivalence checks (among them a
// differential test against the record-based cache the packed rows
// replaced).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cache/cache_config.hpp"
#include "cache/placement.hpp"
#include "cache/set_assoc_cache.hpp"
#include "cache/store_buffer.hpp"
#include "rng/permutation.hpp"
#include "rng/rand_bank.hpp"

namespace cbus::cache {
namespace {

CacheConfig small_cache(PlacementKind placement = PlacementKind::kModulo,
                        ReplacementKind repl = ReplacementKind::kLru) {
  return CacheConfig{
      .size_bytes = 1024, .line_bytes = 32, .ways = 2,
      .placement = placement, .replacement = repl};  // 16 sets
}

// --- config -------------------------------------------------------------------

TEST(CacheConfig, GeometryDerivation) {
  const CacheConfig cfg = small_cache();
  EXPECT_EQ(cfg.n_lines(), 32u);
  EXPECT_EQ(cfg.n_sets(), 16u);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(CacheConfig, RejectsNonPowerOfTwoSets) {
  CacheConfig cfg = small_cache();
  cfg.size_bytes = 960;  // 15 sets
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(CacheConfig, RejectsNonPowerOfTwoLine) {
  CacheConfig cfg = small_cache();
  cfg.line_bytes = 24;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

// --- placement ----------------------------------------------------------------

TEST(Placement, ModuloMasksLowBits) {
  EXPECT_EQ(modulo_index(0, 16), 0u);
  EXPECT_EQ(modulo_index(17, 16), 1u);
  EXPECT_EQ(modulo_index(31, 16), 15u);
}

TEST(Placement, RandomHashDeterministicPerSeed) {
  for (Addr line = 0; line < 100; ++line) {
    EXPECT_EQ(random_hash_index(line, 42, 64),
              random_hash_index(line, 42, 64));
  }
}

TEST(Placement, RandomHashSeedChangesLayout) {
  int differing = 0;
  for (Addr line = 0; line < 256; ++line) {
    if (random_hash_index(line, 1, 64) != random_hash_index(line, 2, 64)) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 200);  // layouts essentially independent
}

TEST(Placement, RandomHashRoughlyUniform) {
  constexpr std::uint32_t kSets = 16;
  std::vector<int> counts(kSets, 0);
  for (Addr line = 0; line < 16'000; ++line) {
    ++counts[random_hash_index(line, 7, kSets)];
  }
  for (const int c : counts) EXPECT_NEAR(c, 1000, 150);
}

// --- replacement -----------------------------------------------------------------

/// One set of four ways (modulo placement): every line maps to set 0.
CacheConfig one_set(ReplacementKind repl) {
  return CacheConfig{.size_bytes = 128, .line_bytes = 32, .ways = 4,
                     .placement = PlacementKind::kModulo,
                     .replacement = repl};
}

TEST(Replacement, LruPicksOldest) {
  rng::RandBank bank(5);
  SetAssocCache cache(one_set(ReplacementKind::kLru), bank, "t");
  for (Addr line = 0; line < 4; ++line) {
    (void)cache.access(line * 32, true, false);  // fills ways 0..3
  }
  // Last uses in way order 3, 1, 2, 4: way 1 (line 1) is the oldest.
  (void)cache.access(1 * 32, true, false);
  (void)cache.access(2 * 32, true, false);
  (void)cache.access(0 * 32, true, false);
  (void)cache.access(3 * 32, true, false);
  const AccessResult r = cache.access(4 * 32, true, false);
  EXPECT_TRUE(r.victim_valid);
  EXPECT_EQ(r.victim_line, 1u);
}

TEST(Replacement, RandomVictimInRange) {
  rng::RandBank bank(5);
  SetAssocCache cache(one_set(ReplacementKind::kRandom), bank, "t");
  // Way w holds way_line[w]: invalid ways fill first, in way order, and a
  // fill reuses the victim's way.
  std::array<Addr, 4> way_line{};
  for (Addr line = 0; line < 4; ++line) {
    (void)cache.access(line * 32, true, false);
    way_line[line] = line;
  }
  std::set<std::size_t> seen;
  for (Addr line = 4; line < 204; ++line) {
    const AccessResult r = cache.access(line * 32, true, false);
    ASSERT_TRUE(r.victim_valid);
    const auto* it = std::find(way_line.begin(), way_line.end(), r.victim_line);
    ASSERT_NE(it, way_line.end());  // the victim was resident
    const auto way = static_cast<std::size_t>(it - way_line.begin());
    way_line[way] = line;
    seen.insert(way);
  }
  EXPECT_EQ(seen.size(), 4u);  // all ways eventually chosen
}

// --- SetAssocCache: basic mechanics -----------------------------------------------

TEST(Cache, MissThenHit) {
  rng::RandBank bank(1);
  SetAssocCache cache(small_cache(), bank, "t");
  const auto first = cache.access(0x100, true, false);
  EXPECT_FALSE(first.hit);
  EXPECT_TRUE(first.filled);
  const auto second = cache.access(0x100, true, false);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, SameLineDifferentWordHits) {
  rng::RandBank bank(1);
  SetAssocCache cache(small_cache(), bank, "t");
  (void)cache.access(0x100, true, false);
  EXPECT_TRUE(cache.access(0x11C, true, false).hit);  // same 32B line
  EXPECT_FALSE(cache.access(0x120, true, false).hit);  // next line
}

TEST(Cache, NoAllocateLeavesCacheEmpty) {
  rng::RandBank bank(1);
  SetAssocCache cache(small_cache(), bank, "t");
  (void)cache.access(0x100, /*allocate_on_miss=*/false, false);
  EXPECT_FALSE(cache.probe(0x100));
}

TEST(Cache, LruEvictionOrder) {
  rng::RandBank bank(1);
  SetAssocCache cache(small_cache(), bank, "t");  // 2-way, modulo
  // Three lines mapping to set 0 (line addr multiples of 16).
  const Addr a = 0x0000;          // line 0 -> set 0
  const Addr b = 16u * 32u;       // line 16 -> set 0
  const Addr c = 32u * 32u;       // line 32 -> set 0
  (void)cache.access(a, true, false);
  (void)cache.access(b, true, false);
  (void)cache.access(a, true, false);        // a most recent
  const auto r = cache.access(c, true, false);  // evicts b (LRU)
  EXPECT_TRUE(r.victim_valid);
  EXPECT_EQ(r.victim_line, 16u);
  EXPECT_TRUE(cache.probe(a));
  EXPECT_FALSE(cache.probe(b));
  EXPECT_TRUE(cache.probe(c));
}

TEST(Cache, DirtyVictimReported) {
  rng::RandBank bank(1);
  SetAssocCache cache(small_cache(), bank, "t");
  const Addr a = 0x0000;
  const Addr b = 16u * 32u;
  const Addr c = 32u * 32u;
  (void)cache.access(a, true, /*mark_dirty=*/true);  // dirty fill
  (void)cache.access(b, true, false);
  (void)cache.access(b, true, false);                 // a becomes LRU
  const auto r = cache.access(c, true, false);        // evicts dirty a
  EXPECT_TRUE(r.victim_valid);
  EXPECT_TRUE(r.victim_dirty);
  EXPECT_EQ(cache.stats().dirty_evictions, 1u);
}

TEST(Cache, HitMarksDirty) {
  rng::RandBank bank(1);
  SetAssocCache cache(small_cache(), bank, "t");
  const Addr a = 0x0000;
  (void)cache.access(a, true, false);   // clean fill
  (void)cache.access(a, true, true);    // store hit dirties it
  const Addr b = 16u * 32u;
  const Addr c = 32u * 32u;
  (void)cache.access(b, true, false);
  (void)cache.access(b, true, false);
  const auto r = cache.access(c, true, false);
  EXPECT_TRUE(r.victim_dirty);
}

TEST(Cache, ProbeDoesNotDisturbLru) {
  rng::RandBank bank(1);
  SetAssocCache cache(small_cache(), bank, "t");
  const Addr a = 0x0000;
  const Addr b = 16u * 32u;
  const Addr c = 32u * 32u;
  (void)cache.access(a, true, false);
  (void)cache.access(b, true, false);
  // probe(a) must NOT refresh a's recency...
  EXPECT_TRUE(cache.probe(a));
  // ... so the next eviction still takes a (the LRU way).
  const auto r = cache.access(c, true, false);
  EXPECT_EQ(r.victim_line, 0u);
}

// Reference-model equivalence: the cache must agree with a brute-force
// simulation of LRU sets over a pseudo-random access pattern.
TEST(Cache, MatchesReferenceLruModel) {
  rng::RandBank bank(1);
  const CacheConfig cfg = small_cache();
  SetAssocCache cache(cfg, bank, "t");

  struct RefEntry {
    Addr line;
    std::uint64_t stamp;
  };
  std::map<std::uint32_t, std::vector<RefEntry>> ref_sets;
  std::uint64_t stamp = 0;

  std::uint64_t state = 12345;
  int agreement_checked = 0;
  for (int i = 0; i < 4000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const Addr addr = static_cast<Addr>((state >> 20) % 4096) * 4;
    const Addr line = addr / cfg.line_bytes;
    const std::uint32_t set = modulo_index(line, cfg.n_sets());

    auto& ways = ref_sets[set];
    const auto it = std::find_if(ways.begin(), ways.end(),
                                 [&](const RefEntry& e) { return e.line == line; });
    const bool ref_hit = it != ways.end();
    const auto got = cache.access(addr, true, false);
    ASSERT_EQ(got.hit, ref_hit) << "access " << i;
    ++agreement_checked;

    if (ref_hit) {
      it->stamp = ++stamp;
    } else {
      if (ways.size() >= cfg.ways) {
        auto victim = std::min_element(
            ways.begin(), ways.end(),
            [](const RefEntry& a, const RefEntry& b) { return a.stamp < b.stamp; });
        ways.erase(victim);
      }
      ways.push_back({line, ++stamp});
    }
  }
  EXPECT_EQ(agreement_checked, 4000);
}

// --- StoreBuffer -------------------------------------------------------------------

TEST(StoreBuffer, FifoOrder) {
  StoreBuffer sb(4);
  sb.push(0x100);
  sb.push(0x200);
  EXPECT_EQ(sb.front(), 0x100u);
  sb.pop();
  EXPECT_EQ(sb.front(), 0x200u);
}

TEST(StoreBuffer, FullAndEmpty) {
  StoreBuffer sb(2);
  EXPECT_TRUE(sb.empty());
  sb.push(1);
  sb.push(2);
  EXPECT_TRUE(sb.full());
  EXPECT_THROW(sb.push(3), std::invalid_argument);
  sb.pop();
  EXPECT_FALSE(sb.full());
}

TEST(StoreBuffer, PopEmptyRejected) {
  StoreBuffer sb(2);
  EXPECT_THROW(sb.pop(), std::invalid_argument);
  EXPECT_THROW((void)sb.front(), std::invalid_argument);
}

TEST(StoreBuffer, ContainsLineMatchesSameLine) {
  StoreBuffer sb(4);
  sb.push(0x104);
  EXPECT_TRUE(sb.contains_line(0x11F, 32));   // same 32B line
  EXPECT_FALSE(sb.contains_line(0x120, 32));  // adjacent line
}

// The ring against a std::deque over random pushes and pops: FIFO order,
// size, full/empty and forwarding hits hold across many wrap-arounds, at
// depths below, at and above the ring's first allocation (12 grows it
// twice while wrapped).
TEST(StoreBuffer, RingMatchesDequeAcrossWrapAround) {
  for (const std::uint32_t depth : {1u, 2u, 5u, 12u}) {
    SCOPED_TRACE("depth " + std::to_string(depth));
    StoreBuffer sb(depth);
    std::deque<Addr> ref;
    rng::RandBank bank(depth);
    rng::RandChannel ops = bank.open("ops");
    std::uint64_t pops = 0;
    for (int i = 0; i < 4000; ++i) {
      // Lean towards pushes for half of each 1000 ops, pops for the rest,
      // so the buffer keeps filling up and draining.
      const bool fill_phase = (i / 500) % 2 == 0;
      const bool push = sb.empty() ||
                        (!sb.full() && rng::uniform_below(ops, 4) <
                                           (fill_phase ? 3u : 1u));
      if (push) {
        const Addr addr = rng::uniform_below(ops, 64) * 8;  // 8 stores/line
        sb.push(addr);
        ref.push_back(addr);
      } else {
        sb.pop();
        ref.pop_front();
        ++pops;
      }
      ASSERT_EQ(sb.size(), ref.size()) << "op " << i;
      ASSERT_EQ(sb.empty(), ref.empty());
      ASSERT_EQ(sb.full(), ref.size() == depth);
      if (!ref.empty()) {
        ASSERT_EQ(sb.front(), ref.front()) << "op " << i;
      }
      for (Addr probe = 0; probe < 64 * 8; probe += 20) {
        const bool want = std::any_of(ref.begin(), ref.end(), [&](Addr a) {
          return a / 32 == probe / 32;
        });
        ASSERT_EQ(sb.contains_line(probe, 32), want)
            << "op " << i << " probe " << probe;
      }
    }
    EXPECT_GT(pops, 10u * depth);  // the ring wrapped around many times
    // Draining returns the rest in push order.
    while (!ref.empty()) {
      ASSERT_EQ(sb.front(), ref.front());
      sb.pop();
      ref.pop_front();
    }
    EXPECT_TRUE(sb.empty());
  }
}

// --- random placement behaviour (the MBPTA enabler) ---------------------------------

TEST(Cache, RandomPlacementChangesConflictsAcrossSeeds) {
  // Two addresses that conflict under one seed should often not conflict
  // under another -- the property MBPTA runs rely on.
  const CacheConfig cfg =
      small_cache(PlacementKind::kRandomHash, ReplacementKind::kLru);
  int conflict_seeds = 0;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    if (random_hash_index(0x10, seed, cfg.n_sets()) ==
        random_hash_index(0x50, seed, cfg.n_sets())) {
      ++conflict_seeds;
    }
  }
  // 16 sets -> expect ~4/64 conflicts; definitely not all or none.
  EXPECT_GT(conflict_seeds, 0);
  EXPECT_LT(conflict_seeds, 20);
}


// --- differential test against the record-based reference ------------------

/// The record-based cache the packed rows replaced, kept as the reference:
/// one {line, valid, dirty, last_use} record per way, LRU by the first
/// smallest stamp, random by one uniform_below(ways) draw from the
/// `<name>.repl` channel, which is opened after the placement seed.
class RecordCache {
 public:
  RecordCache(const CacheConfig& config, rng::RandBank& bank,
              std::string_view name)
      : config_(config), placement_seed_(bank.derive_seed()) {
    ways_.resize(static_cast<std::size_t>(config_.n_sets()) * config_.ways);
    if (config_.replacement == ReplacementKind::kRandom) {
      channel_.emplace(bank.open(std::string(name) + ".repl"));
    }
  }

  AccessResult access(Addr addr, bool allocate_on_miss, bool mark_dirty) {
    const Addr line = addr / config_.line_bytes;
    Way* base = set_of(line);
    ++stats_.accesses;
    AccessResult result;
    if (Way* way = find(base, line); way != nullptr) {
      ++stats_.hits;
      way->last_use = ++use_stamp_;
      if (mark_dirty) way->dirty = true;
      result.hit = true;
      return result;
    }
    ++stats_.misses;
    if (!allocate_on_miss) return result;
    Way* slot = nullptr;
    for (std::uint32_t w = 0; w < config_.ways && slot == nullptr; ++w) {
      if (!base[w].valid) slot = &base[w];
    }
    if (slot == nullptr) {
      std::uint32_t victim = 0;
      if (channel_.has_value()) {
        victim = rng::uniform_below(*channel_, config_.ways);
      } else {
        for (std::uint32_t w = 1; w < config_.ways; ++w) {
          if (base[w].last_use < base[victim].last_use) victim = w;
        }
      }
      slot = &base[victim];
      result.victim_valid = true;
      result.victim_dirty = slot->dirty;
      result.victim_line = slot->line;
      ++stats_.evictions;
      if (slot->dirty) ++stats_.dirty_evictions;
    }
    *slot = Way{line, true, mark_dirty, ++use_stamp_};
    result.filled = true;
    return result;
  }

  bool probe(Addr addr) {
    const Addr line = addr / config_.line_bytes;
    return find(set_of(line), line) != nullptr;
  }

  [[nodiscard]] const CacheStats& stats() const { return stats_; }

 private:
  struct Way {
    Addr line = 0;
    bool valid = false;
    bool dirty = false;
    std::uint64_t last_use = 0;
  };

  Way* set_of(Addr line) {
    const std::uint32_t set =
        config_.placement == PlacementKind::kModulo
            ? static_cast<std::uint32_t>(line % config_.n_sets())
            : random_hash_index(line, placement_seed_, config_.n_sets());
    return &ways_[static_cast<std::size_t>(set) * config_.ways];
  }

  Way* find(Way* base, Addr line) {
    for (std::uint32_t w = 0; w < config_.ways; ++w) {
      if (base[w].valid && base[w].line == line) return &base[w];
    }
    return nullptr;
  }

  CacheConfig config_;
  std::uint64_t placement_seed_;
  std::vector<Way> ways_;
  std::optional<rng::RandChannel> channel_;
  std::uint64_t use_stamp_ = 0;
  CacheStats stats_;
};

testing::AssertionResult same_result(const AccessResult& got,
                                     const AccessResult& want) {
  if (got.hit == want.hit && got.filled == want.filled &&
      got.victim_valid == want.victim_valid &&
      got.victim_dirty == want.victim_dirty &&
      got.victim_line == want.victim_line) {
    return testing::AssertionSuccess();
  }
  return testing::AssertionFailure()
         << "got {hit " << got.hit << ", filled " << got.filled
         << ", victim_valid " << got.victim_valid << ", victim_dirty "
         << got.victim_dirty << ", victim_line " << got.victim_line
         << "}, want {" << want.hit << ", " << want.filled << ", "
         << want.victim_valid << ", " << want.victim_dirty << ", "
         << want.victim_line << "}";
}

testing::AssertionResult same_stats(const CacheStats& got,
                                    const CacheStats& want) {
  if (got.accesses == want.accesses && got.hits == want.hits &&
      got.misses == want.misses && got.evictions == want.evictions &&
      got.dirty_evictions == want.dirty_evictions) {
    return testing::AssertionSuccess();
  }
  return testing::AssertionFailure()
         << "got {" << got.accesses << ", " << got.hits << ", " << got.misses
         << ", " << got.evictions << ", " << got.dirty_evictions
         << "}, want {" << want.accesses << ", " << want.hits << ", "
         << want.misses << ", " << want.evictions << ", "
         << want.dirty_evictions << "}";
}

// Random op sequences over {LRU, random} x {modulo, random-hash} x five
// geometries (direct-mapped to a single 8-way set). Each access draws its
// (allocate, dirty) pair from all four combinations; probes interleave.
// The packed cache and the reference are built from RandBanks with the
// same seed, and after every op every AccessResult field, every probe
// answer and every CacheStats field agree.
// Lines come from a pool four times the cache's capacity, half of it at
// the top of the 32-bit address space (the largest `line + 1` tags).
TEST(CacheDifferential, PackedRowsMatchRecordReference) {
  struct Geometry {
    std::uint32_t size_bytes, line_bytes, ways;
  };
  const Geometry geometries[] = {
      {64, 4, 1}, {512, 32, 2}, {1024, 32, 4}, {512, 16, 8}, {256, 32, 8}};
  std::uint64_t seed = 0;
  for (const ReplacementKind repl :
       {ReplacementKind::kLru, ReplacementKind::kRandom}) {
    for (const PlacementKind placement :
         {PlacementKind::kModulo, PlacementKind::kRandomHash}) {
      for (const Geometry& g : geometries) {
        ++seed;
        const CacheConfig cfg{.size_bytes = g.size_bytes,
                              .line_bytes = g.line_bytes,
                              .ways = g.ways,
                              .placement = placement,
                              .replacement = repl};
        SCOPED_TRACE(std::string(to_string(repl)) + " " +
                     std::string(to_string(placement)) + " " +
                     std::to_string(g.size_bytes) + "B/" +
                     std::to_string(g.line_bytes) + "B/" +
                     std::to_string(g.ways) + "-way");
        rng::RandBank packed_bank(seed);
        rng::RandBank record_bank(seed);
        SetAssocCache packed(cfg, packed_bank, "t");
        RecordCache record(cfg, record_bank, "t");
        rng::RandBank op_bank(seed + 1000);
        rng::RandChannel ops = op_bank.open("ops");

        const std::uint32_t pool = 4 * cfg.n_lines();
        const Addr top_line = ~Addr{0} / cfg.line_bytes;
        auto draw_addr = [&] {
          const std::uint32_t k = rng::uniform_below(ops, pool);
          const Addr line = k < pool / 2 ? k : top_line - (k - pool / 2);
          return line * cfg.line_bytes +
                 rng::uniform_below(ops, cfg.line_bytes);
        };

        std::uint64_t probe_hits = 0;
        for (int i = 0; i < 6000; ++i) {
          const std::uint32_t kind = rng::uniform_below(ops, 100);
          if (kind < 80) {
            const std::uint32_t flags = rng::uniform_below(ops, 4);
            const bool allocate = (flags & 1) != 0;
            const bool dirty = (flags & 2) != 0;
            const Addr addr = draw_addr();
            ASSERT_TRUE(same_result(packed.access(addr, allocate, dirty),
                                    record.access(addr, allocate, dirty)))
                << "access " << addr << " op " << i;
          } else {
            const Addr addr = draw_addr();
            const bool want = record.probe(addr);
            ASSERT_EQ(packed.probe(addr), want) << "probe op " << i;
            probe_hits += want ? 1 : 0;
          }
          ASSERT_TRUE(same_stats(packed.stats(), record.stats())) << "op " << i;
        }
        // Every path ran: hits, evictions of dirty lines, resident probes.
        EXPECT_GT(record.stats().hits, 0u);
        EXPECT_GT(record.stats().dirty_evictions, 0u);
        EXPECT_GT(record.stats().evictions, record.stats().dirty_evictions);
        EXPECT_GT(probe_hits, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace cbus::cache
