#include "bench_common.hpp"

#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <sstream>

#include "common/contracts.hpp"

namespace cbus::bench {

class SyntheticRig::ForcedHoldOnlySlave final : public bus::BusSlave {
 public:
  Cycle begin_transaction(const bus::BusRequest&, Cycle) override {
    CBUS_ASSERT(false);  // all rig requests carry forced holds
    return 1;
  }
};

SyntheticRig::~SyntheticRig() = default;

SyntheticRig::SyntheticRig(bus::ArbiterKind kind,
                           std::optional<core::CbaConfig> cba,
                           Cycle tdma_slot, std::uint64_t seed)
    : bank_(seed), slave_(std::make_unique<ForcedHoldOnlySlave>()) {
  arbiter_ = bus::make_arbiter(kind, 4, bank_, tdma_slot);
  bus_ = std::make_unique<bus::NonSplitBus>(bus::BusConfig{4, true},
                                            *arbiter_, *slave_);
  if (cba.has_value()) {
    filter_ = std::make_unique<core::CreditState>(*cba);
    bus_->set_filter(filter_.get());
  }
}

platform::SyntheticMaster& SyntheticRig::add_master(
    MasterId id, Cycle hold, std::uint64_t requests, std::uint32_t gap,
    std::uint32_t initial_delay, bool instant_rerequest) {
  CBUS_EXPECTS(!finalized_);
  platform::SyntheticMasterConfig cfg;
  cfg.id = id;
  cfg.hold = hold;
  cfg.requests = requests;
  cfg.gap = gap;
  cfg.initial_delay = initial_delay;
  cfg.instant_rerequest = instant_rerequest;
  masters_.push_back(
      std::make_unique<platform::SyntheticMaster>(cfg, *bus_));
  kernel_.add(*masters_.back());
  return *masters_.back();
}

void SyntheticRig::run(Cycle cycles) {
  if (!finalized_) {
    kernel_.add(*bus_);
    finalized_ = true;
  }
  kernel_.run(cycles);
}

Cycle SyntheticRig::run_until_first_done(Cycle max_cycles) {
  if (!finalized_) {
    kernel_.add(*bus_);
    finalized_ = true;
  }
  CBUS_EXPECTS(!masters_.empty());
  const bool done = kernel_.run_until(
      [this]() { return masters_.front()->done(); }, max_cycles);
  CBUS_ASSERT(done);
  return masters_.front()->finish_cycle();
}

std::uint32_t campaign_runs(std::uint32_t fallback) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once at bench startup,
  // before any worker thread exists.
  if (const char* env = std::getenv("CBUS_BENCH_RUNS"); env != nullptr) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::uint32_t>(parsed);
  }
  return fallback;
}

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& out) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    width[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < width.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    out << "| ";
    for (std::size_t c = 0; c < width.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string{};
      out << std::left << std::setw(static_cast<int>(width[c])) << cell
          << " | ";
    }
    out << '\n';
  };
  print_row(header_);
  out << "|";
  for (std::size_t c = 0; c < width.size(); ++c) {
    out << std::string(width[c] + 2, '-') << "|";
  }
  out << '\n';
  for (const auto& row : rows_) print_row(row);
}

std::string fmt(double value, int decimals) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(decimals) << value;
  return oss.str();
}

void banner(const std::string& title, const std::string& subtitle) {
  std::cout << "\n=== " << title << " ===\n";
  if (!subtitle.empty()) std::cout << subtitle << "\n";
  std::cout << '\n';
}

}  // namespace cbus::bench
