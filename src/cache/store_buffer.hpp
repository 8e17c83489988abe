// The write(-through) buffer between a core's L1 and the bus.
//
// LEON3's data L1 is write-through with a small write buffer: stores retire
// into the buffer and drain to L2 over the bus in FIFO order, so the core
// only stalls when the buffer is full (or when a load miss must wait for
// the drain). Each drained store is a short (5-cycle L2 hit) bus
// transaction -- precisely the "frequent short requests" traffic class the
// paper's fairness argument is about.
//
// A ring of slots. It is allocated once at construction for depths up to
// kInitialSlots (the default depth is 2) and doubles, up to `depth`, only
// when a deeper buffer fills, so a large configured depth costs memory
// only for the stores it actually holds.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/contracts.hpp"
#include "common/types.hpp"

namespace cbus::cache {

class StoreBuffer {
 public:
  explicit StoreBuffer(std::uint32_t depth) : depth_(depth) {
    CBUS_EXPECTS(depth >= 1);
    slots_.resize(std::min(depth, kInitialSlots));
  }

  [[nodiscard]] bool full() const noexcept { return size_ == depth_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::uint32_t depth() const noexcept { return depth_; }

  /// Enqueue a retired store. Precondition: !full().
  void push(Addr addr) {
    CBUS_EXPECTS(!full());
    if (size_ == slots_.size()) grow();
    slots_[wrap(head_ + size_)] = addr;
    ++size_;
  }

  /// Address of the oldest store. Precondition: !empty().
  [[nodiscard]] Addr front() const {
    CBUS_EXPECTS(!empty());
    return slots_[head_];
  }

  /// Drop the oldest store once its bus transaction completed.
  void pop() {
    CBUS_EXPECTS(!empty());
    head_ = wrap(head_ + 1);
    --size_;
  }

  /// Store-to-load forwarding check: is a store to this line buffered?
  /// `line_bytes` is a power of two (CacheConfig::validate).
  [[nodiscard]] bool contains_line(Addr addr, std::uint32_t line_bytes) const {
    for (std::uint32_t i = 0; i < size_; ++i) {
      if ((slots_[wrap(head_ + i)] ^ addr) < line_bytes) return true;
    }
    return false;
  }

 private:
  static constexpr std::uint32_t kInitialSlots = 4;

  /// `slot` (< twice the ring size) folded into the ring.
  [[nodiscard]] std::uint32_t wrap(std::uint32_t slot) const noexcept {
    const auto n = static_cast<std::uint32_t>(slots_.size());
    return slot >= n ? slot - n : slot;
  }

  /// Double the ring, capped at depth_, keeping FIFO order from slot 0.
  void grow() {
    std::vector<Addr> bigger(
        std::min<std::size_t>(depth_, 2 * slots_.size()));
    for (std::uint32_t i = 0; i < size_; ++i) {
      bigger[i] = slots_[wrap(head_ + i)];
    }
    slots_.swap(bigger);
    head_ = 0;
  }

  std::uint32_t depth_;
  std::vector<Addr> slots_;
  std::uint32_t head_ = 0;  ///< slot of the oldest store
  std::uint32_t size_ = 0;
};

}  // namespace cbus::cache
