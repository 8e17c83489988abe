#include "vec/vec.hpp"

#include <atomic>

#include "vec/kernels.hpp"

namespace cbus::vec {

namespace detail {

namespace {

std::uint64_t credit_tick_row_scalar(const CreditRow& row) noexcept {
  std::uint64_t clamped = 0;
  for (std::uint32_t l = 0; l < row.n; ++l) {
    if (((row.update_mask >> l) & 1u) == 0) continue;
    const std::uint64_t up = row.values[l] + row.incs[l];
    const std::uint64_t charge =
        ((row.charge_mask >> l) & 1u) != 0 ? row.scale : 0;
    if (up < charge) {
      row.values[l] = 0;
      clamped |= std::uint64_t{1} << l;
    } else {
      const std::uint64_t net = up - charge;
      row.values[l] = net < row.cap ? net : row.cap;
    }
  }
  return clamped;
}

std::uint64_t eq_mask_row_scalar(const std::uint64_t* row,
                                 std::uint64_t target,
                                 std::uint32_t n) noexcept {
  std::uint64_t mask = 0;
  for (std::uint32_t l = 0; l < n; ++l) {
    if (row[l] == target) mask |= std::uint64_t{1} << l;
  }
  return mask;
}

void credit_tick_cycle_scalar(const CreditCycle& cycle) noexcept {
  for (std::uint32_t m = 0; m < cycle.slots; ++m) {
    const CreditRow row{
        cycle.values + std::size_t{m} * cycle.stride,
        cycle.incs + std::size_t{m} * cycle.stride,
        cycle.scale,
        cycle.caps[m],
        cycle.charge[m],
        cycle.update_mask,
        cycle.lanes,
    };
    cycle.clamped[m] = credit_tick_row_scalar(row);
  }
}

void sat_words_scalar(const SatQuery& query) noexcept {
  for (std::uint32_t i = 0; i < query.n; ++i) {
    const std::uint64_t* row =
        query.values + std::size_t{query.slots[i]} * query.stride;
    query.out[i] = eq_mask_row_scalar(row, query.caps[i], query.lanes);
  }
}

int argmax_i64_scalar(const std::int64_t* scores, std::size_t n) noexcept {
  int winner = -1;
  std::int64_t best = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (scores[i] == INT64_MIN) continue;
    if (winner < 0 || scores[i] > best) {
      winner = static_cast<int>(i);
      best = scores[i];
    }
  }
  return winner;
}

}  // namespace

const Kernels kScalarKernels{credit_tick_row_scalar, credit_tick_cycle_scalar,
                             eq_mask_row_scalar, sat_words_scalar,
                             argmax_i64_scalar};

namespace {

const Kernels& configured_kernels() noexcept {
#if defined(CBUS_SIMD_AVX2)
  return kAvx2Kernels;
#elif defined(CBUS_SIMD_AVX512)
  return kAvx512Kernels;
#elif defined(CBUS_SIMD_NEON)
  return kNeonKernels;
#else
  return kScalarKernels;
#endif
}

std::atomic<bool> g_force_scalar{false};

const Kernels& active_kernels() noexcept {
  return g_force_scalar.load(std::memory_order_relaxed)
             ? kScalarKernels
             : configured_kernels();
}

}  // namespace

}  // namespace detail

const char* configured_isa() noexcept {
#if defined(CBUS_SIMD_NAME)
  return CBUS_SIMD_NAME;
#else
  return "scalar";
#endif
}

const char* active_isa() noexcept {
  return detail::g_force_scalar.load(std::memory_order_relaxed)
             ? "scalar"
             : configured_isa();
}

bool engine_enabled() noexcept {
#if defined(CBUS_SIMD_OFF)
  return false;
#else
  return true;
#endif
}

void force_scalar(bool on) noexcept {
  detail::g_force_scalar.store(on, std::memory_order_relaxed);
}

std::uint64_t credit_tick_row(const CreditRow& row) noexcept {
  return detail::active_kernels().credit_tick_row(row);
}

void credit_tick_cycle(const CreditCycle& cycle) noexcept {
  detail::active_kernels().credit_tick_cycle(cycle);
}

std::uint64_t eq_mask_row(const std::uint64_t* row, std::uint64_t target,
                          std::uint32_t n) noexcept {
  return detail::active_kernels().eq_mask_row(row, target, n);
}

void sat_words(const SatQuery& query) noexcept {
  detail::active_kernels().sat_words(query);
}

int argmax_i64(const std::int64_t* scores, std::size_t n) noexcept {
  return detail::active_kernels().argmax_i64(scores, n);
}

}  // namespace cbus::vec
