#include "mem/dram.hpp"

namespace cbus::mem {

DramModel::DramModel(const DramConfig& config) : config_(config) {
  config_.validate();
  banks_.resize(config_.banks);
}

Cycle DramModel::access(Addr addr) {
  const std::uint32_t row_index =
      static_cast<std::uint32_t>(addr / config_.row_bytes);
  // Bank interleaving on row-address low bits (consecutive rows hit
  // different banks, as DDR2 controllers commonly map them).
  const std::uint32_t bank_index = row_index & (config_.banks - 1);
  const std::uint32_t row = row_index / config_.banks;

  Bank& bank = banks_[bank_index];
  ++stats_.accesses;
  if (bank.open && bank.row == row) {
    ++stats_.row_hits;
    return config_.row_hit;
  }
  ++stats_.row_misses;
  bank.open = true;
  bank.row = row;
  return config_.row_miss;
}

}  // namespace cbus::mem
