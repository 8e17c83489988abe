// Unbiased random permutations and bounded uniforms.
//
// The random-permutations arbitration policy (Jalle et al., DATE 2014) draws
// a fresh uniformly-distributed permutation of the masters for each
// arbitration window. Bias-free sampling matters: a biased shuffle would
// skew the per-master grant probabilities the MBPTA argument relies on.
//
// Every bounded draw is rejection sampling over 32-bit words: a word above
// the largest multiple of the bound below 2^32 is redrawn, an accepted
// word x yields x mod bound. The fast forms below draw the same words and
// return the same values; they only avoid the divisions.
#pragma once

#include <array>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "common/contracts.hpp"

namespace cbus::rng {

/// The largest accepted word for `bound`: one less than the largest
/// multiple of `bound` not exceeding 2^32 (2^32 - 1 for a power of two).
[[nodiscard]] constexpr std::uint32_t rejection_limit(std::uint32_t bound) {
  return static_cast<std::uint32_t>(-bound) / bound * bound + bound - 1;
}

/// Uniform integer in [0, bound) via rejection sampling (no modulo bias).
/// Engine must satisfy UniformRandomBitGenerator with a 32-bit range.
template <typename Engine>
[[nodiscard]] std::uint32_t uniform_below(Engine& engine, std::uint32_t bound) {
  CBUS_EXPECTS(bound > 0);
  if (bound == 1) return 0;
  // A power of two divides 2^32: no word is rejected, and the remainder
  // is the low bits.
  if ((bound & (bound - 1)) == 0) {
    return static_cast<std::uint32_t>(engine()) & (bound - 1);
  }
  const std::uint32_t limit = rejection_limit(bound);
  for (;;) {
    const std::uint32_t draw = static_cast<std::uint32_t>(engine());
    if (draw <= limit) return draw % bound;
  }
}

/// uniform_below for a bound fixed at construction: the rejection limit
/// and an exact 32-bit remainder reciprocal (Lemire, Kaser & Kurz,
/// "Faster remainder by direct computation", 2019) are computed once, so
/// a draw divides nothing. Draws the same words as uniform_below and
/// returns the same values.
class BoundedUniform {
 public:
  /// Bound 1: every draw is 0 and consumes no word.
  BoundedUniform() : BoundedUniform(1) {}

  explicit BoundedUniform(std::uint32_t bound)
      : bound_(bound),
        limit_(bound > 0 ? rejection_limit(bound) : 0),
        reciprocal_(bound > 0 ? ~std::uint64_t{0} / bound + 1 : 0) {
    CBUS_EXPECTS(bound > 0);
  }

  template <typename Engine>
  [[nodiscard]] std::uint32_t operator()(Engine& engine) const {
    if (bound_ == 1) return 0;
    for (;;) {
      const std::uint32_t draw = static_cast<std::uint32_t>(engine());
      if (draw <= limit_) return mod(draw);
    }
  }

  /// x mod bound(): the high 64 bits of (reciprocal * x mod 2^64) *
  /// bound, exact for every 32-bit x, assembled from two 32x32 products.
  [[nodiscard]] std::uint32_t mod(std::uint32_t x) const noexcept {
    const std::uint64_t low = reciprocal_ * x;
    const std::uint64_t high = (low >> 32) * bound_;
    const std::uint64_t carry = ((low & 0xFFFF'FFFFu) * bound_) >> 32;
    return static_cast<std::uint32_t>((high + carry) >> 32);
  }

  [[nodiscard]] std::uint32_t bound() const noexcept { return bound_; }
  [[nodiscard]] std::uint32_t limit() const noexcept { return limit_; }

 private:
  std::uint32_t bound_;
  std::uint32_t limit_;
  std::uint64_t reciprocal_;
};

/// Fisher-Yates shuffle of `items` using `engine` (unbiased).
template <typename Engine, typename T>
void shuffle(Engine& engine, std::span<T> items) {
  for (std::size_t i = items.size(); i > 1; --i) {
    const std::uint32_t j =
        uniform_below(engine, static_cast<std::uint32_t>(i));
    using std::swap;
    swap(items[i - 1], items[j]);
  }
}

/// Fill `out` with a uniformly random permutation of 0..out.size()-1.
template <typename Engine>
void random_permutation(Engine& engine, std::span<std::uint32_t> out) {
  std::iota(out.begin(), out.end(), 0u);
  shuffle(engine, out);
}

/// The bounds a shuffle of `n` items draws with: element i bounds
/// [0, i + 1).
[[nodiscard]] inline std::vector<BoundedUniform> shuffle_bounds(
    std::uint32_t n) {
  std::vector<BoundedUniform> bounds;
  bounds.reserve(n);
  for (std::uint32_t i = 1; i <= n; ++i) bounds.emplace_back(i);
  return bounds;
}

/// random_permutation with precomputed shuffle_bounds(n), n >= out.size():
/// the same draws and the same permutation.
template <typename Engine>
void random_permutation(Engine& engine, std::span<std::uint32_t> out,
                        std::span<const BoundedUniform> bounds) {
  CBUS_EXPECTS(bounds.size() >= out.size());
  std::iota(out.begin(), out.end(), 0u);
  for (std::size_t i = out.size(); i > 1; --i) {
    const std::uint32_t j = bounds[i - 1](engine);
    using std::swap;
    swap(out[i - 1], out[j]);
  }
}

}  // namespace cbus::rng
