#include "vec/vec.hpp"

namespace cbus::vec {

bool engine_enabled() noexcept { return true; }

std::uint64_t credit_tick_row(const CreditRow& row) noexcept {
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

void credit_tick_cycle(const CreditCycle& cycle) noexcept {
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
    cycle.clamped[m] = credit_tick_row(row);
  }
}

std::uint64_t eq_mask_row(const std::uint64_t* row, std::uint64_t target,
                          std::uint32_t n) noexcept {
  std::uint64_t mask = 0;
  for (std::uint32_t l = 0; l < n; ++l) {
    if (row[l] == target) mask |= std::uint64_t{1} << l;
  }
  return mask;
}

void sat_words(const SatQuery& query) noexcept {
  for (std::uint32_t i = 0; i < query.n; ++i) {
    const std::uint64_t* row =
        query.values + std::size_t{query.slots[i]} * query.stride;
    query.out[i] = eq_mask_row(row, query.caps[i], query.lanes);
  }
}

}  // namespace cbus::vec
