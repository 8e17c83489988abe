#include "workloads/kernel_stream.hpp"

#include "rng/distributions.hpp"
#include "rng/splitmix64.hpp"

namespace cbus::workloads {

namespace {
/// Stable 64-bit hash of the profile name, so different kernels sharing a
/// campaign seed still see independent streams.
[[nodiscard]] std::uint64_t hash_name(std::string_view name) noexcept {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}
}  // namespace

KernelStream::KernelStream(KernelProfile profile)
    : profile_(std::move(profile)), engine_(hash_name(profile_.name)) {
  profile_.validate();
  if (profile_.hot_permille_1024 > 0) {
    hot_word_ = rng::BoundedUniform(profile_.hot_bytes / 4);
  }
  if (profile_.pattern == AccessPattern::kRandom) {
    footprint_word_ = rng::BoundedUniform(profile_.footprint_bytes / 4);
  }
  gap_ = rng::BoundedUniform(profile_.gap_max - profile_.gap_min + 1);
  reset(0);
}

void KernelStream::reset(std::uint64_t seed) {
  rng::SplitMix64 mix(seed ^ hash_name(profile_.name));
  engine_ = rng::XorShift64Star(mix.next());
  emitted_ = 0;
  stride_pos_ = 0;
  chase_cursor_ = static_cast<std::uint32_t>(mix.next());
  burst_remaining_ = 0;
}

Addr KernelStream::next_address() {
  const std::uint32_t footprint = profile_.footprint_bytes;

  // Loop-carried locality: a slice of accesses stays in the hot region.
  if (profile_.hot_permille_1024 > 0 &&
      rng::bernoulli(engine_, profile_.hot_permille_1024, 1024)) {
    const std::uint32_t offset = hot_word_(engine_) * 4;
    return profile_.base + offset;
  }

  switch (profile_.pattern) {
    case AccessPattern::kStrided: {
      const std::uint32_t offset = static_cast<std::uint32_t>(
          (stride_pos_ * profile_.stride_bytes) % footprint);
      ++stride_pos_;
      return profile_.base + offset;
    }
    case AccessPattern::kRandom: {
      const std::uint32_t offset = footprint_word_(engine_) * 4;
      return profile_.base + offset;
    }
    case AccessPattern::kPointerChase: {
      // Dependent walk: an affine step with odd multiplier visits words in
      // a data-dependent-looking but deterministic order.
      const std::uint32_t words = footprint / 4;
      chase_cursor_ = (chase_cursor_ * 2654435761u + 0x9E3779B9u);
      const std::uint32_t offset = (chase_cursor_ % words) * 4;
      return profile_.base + offset;
    }
  }
  CBUS_ASSERT(false);
  return profile_.base;
}

std::optional<cpu::MemOp> KernelStream::next() {
  if (emitted_ >= profile_.n_ops) return std::nullopt;
  ++emitted_;

  cpu::MemOp op;
  op.addr = next_address();

  const std::uint32_t draw = rng::uniform_below(engine_, 1024);
  if (draw < profile_.store_permille_1024) {
    op.kind = MemOpKind::kStore;
  } else if (draw <
             profile_.store_permille_1024 + profile_.atomic_permille_1024) {
    op.kind = MemOpKind::kAtomic;
  } else {
    op.kind = MemOpKind::kLoad;
  }

  if (burst_remaining_ > 0) {
    --burst_remaining_;
    op.compute_before = 0;
  } else {
    if (profile_.burst_prob_1024 > 0 && profile_.burst_len > 0 &&
        rng::bernoulli(engine_, profile_.burst_prob_1024, 1024)) {
      burst_remaining_ = profile_.burst_len;
    }
    op.compute_before = profile_.gap_min + gap_(engine_);
  }
  return op;
}

}  // namespace cbus::workloads
