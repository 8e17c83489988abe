// Unit tests for the cycle-driven kernel: tick ordering, run_until
// semantics, clock progression, and the lockstep BatchKernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/batch_kernel.hpp"
#include "sim/clock.hpp"
#include "sim/component.hpp"
#include "sim/kernel.hpp"

namespace cbus::sim {
namespace {

class Probe final : public Component {
 public:
  Probe(std::string name, std::vector<std::string>* log)
      : Component(std::move(name)), log_(log) {}

  void tick(Cycle now) override {
    ++ticks_;
    last_now_ = now;
    if (log_ != nullptr) log_->push_back(std::string(name()));
  }

  std::uint64_t ticks_ = 0;
  Cycle last_now_ = 0;

 private:
  std::vector<std::string>* log_;
};

TEST(Clock, StartsAtZeroAndAdvances) {
  Clock clock;
  EXPECT_EQ(clock.now(), 0u);
  clock.advance();
  clock.advance();
  EXPECT_EQ(clock.now(), 2u);
  clock.reset();
  EXPECT_EQ(clock.now(), 0u);
}

TEST(Kernel, RunTicksEveryComponentOncePerCycle) {
  Kernel kernel;
  Probe a("a", nullptr);
  Probe b("b", nullptr);
  kernel.add(a);
  kernel.add(b);
  kernel.run(10);
  EXPECT_EQ(a.ticks_, 10u);
  EXPECT_EQ(b.ticks_, 10u);
  EXPECT_EQ(kernel.now(), 10u);
}

TEST(Kernel, TickOrderIsRegistrationOrder) {
  Kernel kernel;
  std::vector<std::string> log;
  Probe a("core", &log);
  Probe b("bus", &log);
  kernel.add(a);
  kernel.add(b);
  kernel.run(2);
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0], "core");
  EXPECT_EQ(log[1], "bus");
  EXPECT_EQ(log[2], "core");
  EXPECT_EQ(log[3], "bus");
}

TEST(Kernel, ComponentsSeeCurrentCycle) {
  Kernel kernel;
  Probe a("a", nullptr);
  kernel.add(a);
  kernel.run(5);
  EXPECT_EQ(a.last_now_, 4u);  // cycles 0..4 executed
}

TEST(Kernel, RunUntilStopsWhenPredicateFires) {
  Kernel kernel;
  Probe a("a", nullptr);
  kernel.add(a);
  const bool fired =
      kernel.run_until([&]() { return a.ticks_ >= 7; }, 1000);
  EXPECT_TRUE(fired);
  EXPECT_EQ(a.ticks_, 7u);
}

TEST(Kernel, RunUntilHonoursBudget) {
  Kernel kernel;
  Probe a("a", nullptr);
  kernel.add(a);
  const bool fired = kernel.run_until([]() { return false; }, 50);
  EXPECT_FALSE(fired);
  EXPECT_EQ(kernel.now(), 50u);
}

TEST(Kernel, RunUntilChecksOncePerExecutedCycle) {
  // The contract: `done` is evaluated exactly once after every executed
  // cycle -- never before the first, never twice for the same cycle -- so
  // a side-effecting predicate counts cycles. A pre-satisfied predicate
  // is therefore only seen after one cycle has run.
  Kernel kernel;
  Probe a("a", nullptr);
  kernel.add(a);
  std::uint64_t calls = 0;
  const bool fired = kernel.run_until(
      [&]() {
        ++calls;
        return true;
      },
      50);
  EXPECT_TRUE(fired);
  EXPECT_EQ(a.ticks_, 1u);
  EXPECT_EQ(calls, 1u);

  // Exhaustion: 50 cycles -> exactly 50 evaluations, not 51.
  Kernel k2;
  Probe b("b", nullptr);
  k2.add(b);
  calls = 0;
  const bool fired2 = k2.run_until(
      [&]() {
        ++calls;
        return false;
      },
      50);
  EXPECT_FALSE(fired2);
  EXPECT_EQ(calls, 50u);
  EXPECT_EQ(b.ticks_, 50u);
}

TEST(Kernel, RunUntilZeroBudgetNeverPollsThePredicate) {
  Kernel kernel;
  std::uint64_t calls = 0;
  const bool fired = kernel.run_until(
      [&]() {
        ++calls;
        return true;
      },
      0);
  EXPECT_FALSE(fired);
  EXPECT_EQ(calls, 0u);
}

TEST(Kernel, RunUntilRejectsNullPredicate) {
  Kernel kernel;
  EXPECT_THROW((void)kernel.run_until(nullptr, 10), std::invalid_argument);
}

TEST(Kernel, StepExecutesExactlyOneCycle) {
  Kernel kernel;
  Probe a("a", nullptr);
  kernel.add(a);
  kernel.step();
  EXPECT_EQ(a.ticks_, 1u);
  EXPECT_EQ(kernel.now(), 1u);
}

TEST(Kernel, ComponentCount) {
  Kernel kernel;
  Probe a("a", nullptr);
  Probe b("b", nullptr);
  EXPECT_EQ(kernel.component_count(), 0u);
  kernel.add(a);
  kernel.add(b);
  EXPECT_EQ(kernel.component_count(), 2u);
  EXPECT_EQ(kernel.components().size(), 2u);
  EXPECT_EQ(kernel.components()[0], &a);
  EXPECT_EQ(kernel.components()[1], &b);
}

// --- BatchKernel ------------------------------------------------------------

TEST(BatchKernel, LanesRetireIndependentlyAtTheirOwnCycle) {
  // Three lanes with stop cycles 3, 7 and 12: each lane's probe must tick
  // exactly until its own predicate fires, while the batch keeps running
  // for the slower lanes.
  BatchKernel batch(3);
  Probe a("a", nullptr), b("b", nullptr), c("c", nullptr);
  batch.add(0, a);
  batch.add(1, b);
  batch.add(2, c);
  const std::vector<std::uint64_t> stop{3, 7, 12};
  const Probe* probes[] = {&a, &b, &c};
  const auto fired = batch.run_until(
      [&](std::size_t lane) { return probes[lane]->ticks_ >= stop[lane]; },
      100);
  EXPECT_EQ(fired, (std::vector<bool>{true, true, true}));
  EXPECT_EQ(a.ticks_, 3u);
  EXPECT_EQ(b.ticks_, 7u);
  EXPECT_EQ(c.ticks_, 12u);
  // The clock tracks still-live lanes and freezes at the final window's
  // base once the last lane (12 executed cycles at stripe 1) fires.
  EXPECT_EQ(batch.now(), 11u);
}

TEST(BatchKernel, MatchesSerialKernelPerLane) {
  // A lane's components must observe exactly the tick sequence a serial
  // Kernel delivers: same `now` values, same count, same order.
  std::vector<std::string> serial_log;
  Kernel serial;
  Probe sa("core", &serial_log), sb("bus", &serial_log);
  serial.add(sa);
  serial.add(sb);
  const bool serial_fired =
      serial.run_until([&]() { return sa.ticks_ >= 5; }, 100);

  std::vector<std::string> lane_log;
  BatchKernel batch(2);
  Probe la("core", &lane_log), lb("bus", &lane_log);
  Probe other("other", nullptr);
  Probe other_bus("other_bus", nullptr);
  batch.add(0, la);
  batch.add(0, lb);
  batch.add(1, other);
  batch.add(1, other_bus);
  const auto fired = batch.run_until(
      [&](std::size_t lane) {
        return lane == 0 ? la.ticks_ >= 5 : other.ticks_ >= 9;
      },
      100);
  EXPECT_TRUE(serial_fired);
  EXPECT_EQ(fired, (std::vector<bool>{true, true}));
  EXPECT_EQ(lane_log, serial_log);
  EXPECT_EQ(la.last_now_, sa.last_now_);
  EXPECT_EQ(lb.ticks_, sb.ticks_);
}

TEST(BatchKernel, HonoursBudgetPerLane) {
  BatchKernel batch(2);
  Probe a("a", nullptr), b("b", nullptr);
  batch.add(0, a);
  batch.add(1, b);
  const auto fired = batch.run_until(
      [&](std::size_t lane) { return lane == 0 && a.ticks_ >= 2; }, 10);
  EXPECT_EQ(fired, (std::vector<bool>{true, false}));
  EXPECT_EQ(a.ticks_, 2u);
  EXPECT_EQ(b.ticks_, 10u);  // ran to the budget, never fired
  EXPECT_EQ(batch.now(), 10u);
}

TEST(BatchKernel, StripesPreservePerLaneBehaviour) {
  // The stripe is a locality knob only: per-lane tick counts, retirement
  // cycles and budget handling must be identical at any stripe length,
  // including stripes that do not divide max_cycles.
  for (const Cycle stripe : {Cycle{1}, Cycle{4}, Cycle{7}, Cycle{512}}) {
    BatchKernel batch(3, stripe);
    Probe a("a", nullptr), b("b", nullptr), c("c", nullptr);
    batch.add(0, a);
    batch.add(1, b);
    batch.add(2, c);
    const Probe* probes[] = {&a, &b, &c};
    const std::vector<std::uint64_t> stop{3, 9, 100};  // lane 2 never fires
    const auto fired = batch.run_until(
        [&](std::size_t lane) { return probes[lane]->ticks_ >= stop[lane]; },
        10);
    EXPECT_EQ(fired, (std::vector<bool>{true, true, false})) << stripe;
    EXPECT_EQ(a.ticks_, 3u) << stripe;
    EXPECT_EQ(b.ticks_, 9u) << stripe;
    EXPECT_EQ(c.ticks_, 10u) << stripe;  // ran to the budget
    EXPECT_EQ(batch.now(), 10u) << stripe;
    EXPECT_EQ(a.last_now_, 2u) << stripe;
    EXPECT_EQ(c.last_now_, 9u) << stripe;
  }
}

TEST(BatchKernel, ClockStopsWhenEveryLaneHasFired) {
  // With a coarse stripe the batch must not keep advancing its clock
  // past the window in which the last lane retired.
  BatchKernel batch(2, /*stripe=*/512);
  Probe a("a", nullptr), b("b", nullptr);
  batch.add(0, a);
  batch.add(1, b);
  const Probe* probes[] = {&a, &b};
  const auto fired = batch.run_until(
      [&](std::size_t lane) { return probes[lane]->ticks_ >= 5 + lane; },
      1'000'000);
  EXPECT_EQ(fired, (std::vector<bool>{true, true}));
  EXPECT_EQ(a.ticks_, 5u);
  EXPECT_EQ(b.ticks_, 6u);
  EXPECT_EQ(batch.now(), 0u);  // all lanes fired inside the first stripe
}

/// A component with an event every `period` cycles (at multiples of the
/// period): it logs the cycles it executes and the windows it skips.
class Periodic final : public Component {
 public:
  explicit Periodic(Cycle period) : Component("periodic"), period_(period) {}

  void tick(Cycle now) override { executed.push_back(now); }
  [[nodiscard]] Cycle next_event(Cycle now) const override {
    return (now / period_ + 1) * period_;
  }
  void skip(Cycle from, Cycle cycles) override {
    skipped.emplace_back(from, cycles);
  }

  std::vector<Cycle> executed;
  std::vector<std::pair<Cycle, Cycle>> skipped;

 private:
  Cycle period_;
};

TEST(BatchKernel, FastForwardExecutesOnlyEventCyclesAndStripeStarts) {
  // Events every 100 cycles against 256-cycle stripes: a lane executes
  // cycle 0, each event cycle and each stripe's first cycle, skips the
  // rest in closed form, and polls done() once per executed cycle.
  BatchKernel batch(1, /*stripe=*/256);
  Periodic p(100);
  batch.add(0, p);
  std::vector<Cycle> polled;
  const auto fired = batch.run_until(
      [&](std::size_t) {
        polled.push_back(p.executed.back());
        return false;
      },
      600);
  EXPECT_EQ(fired, (std::vector<bool>{false}));
  const std::vector<Cycle> expected{0, 100, 200, 256, 300, 400, 500, 512};
  EXPECT_EQ(p.executed, expected);
  EXPECT_EQ(polled, expected);
  // Every cycle in [0, 600) is executed or skipped exactly once.
  std::vector<int> covered(600, 0);
  for (const Cycle c : p.executed) ++covered[c];
  for (const auto& [from, cycles] : p.skipped) {
    for (Cycle c = from; c < from + cycles; ++c) ++covered[c];
  }
  EXPECT_EQ(std::count(covered.begin(), covered.end(), 1), 600);
  EXPECT_EQ(batch.now(), 600u);
  EXPECT_EQ(batch.simulated_lane_cycles(), 600u);
  EXPECT_EQ(batch.executed_lane_cycles(), expected.size());
}

TEST(BatchKernel, DefaultHorizonInALaneTicksEveryCycle) {
  // One component without an event horizon (the default, now + 1) keeps
  // its whole lane on the tick-every-cycle path.
  BatchKernel batch(2, /*stripe=*/64);
  Periodic p0(100), p1(100);
  Probe plain0("a", nullptr), plain1("b", nullptr);
  batch.add(0, p0);
  batch.add(0, plain0);
  batch.add(1, plain1);
  batch.add(1, p1);
  const auto fired = batch.run_until([](std::size_t) { return false; }, 300);
  EXPECT_EQ(fired, (std::vector<bool>{false, false}));
  EXPECT_EQ(p0.executed.size(), 300u);
  EXPECT_EQ(p1.executed.size(), 300u);
  EXPECT_TRUE(p0.skipped.empty());
  EXPECT_TRUE(p1.skipped.empty());
  EXPECT_EQ(batch.executed_lane_cycles(), 600u);
  EXPECT_EQ(batch.simulated_lane_cycles(), 600u);
}

TEST(BatchKernel, FiredLaneCountsCyclesUpToItsFiringCycle) {
  BatchKernel batch(1, /*stripe=*/512);
  Periodic p(50);
  batch.add(0, p);
  const auto fired = batch.run_until(
      [&](std::size_t) { return p.executed.back() == 150; }, 1'000);
  EXPECT_EQ(fired, (std::vector<bool>{true}));
  EXPECT_EQ(batch.simulated_lane_cycles(), 151u);  // cycles 0..150
  EXPECT_EQ(batch.executed_lane_cycles(), 4u);     // 0, 50, 100, 150
}

TEST(BatchKernel, RejectsBadShapes) {
  EXPECT_THROW(BatchKernel(0), std::invalid_argument);
  EXPECT_THROW(BatchKernel(1, /*stripe=*/0), std::invalid_argument);
  BatchKernel batch(2);
  Probe a("a", nullptr), b("b", nullptr), extra("x", nullptr);
  batch.add(0, a);
  batch.add(1, b);
  batch.add(1, extra);  // lanes are no longer replicas of one shape
  EXPECT_THROW(
      (void)batch.run_until([](std::size_t) { return true; }, 1),
      std::invalid_argument);
  EXPECT_THROW((void)batch.run_until(nullptr, 1), std::invalid_argument);
}

}  // namespace
}  // namespace cbus::sim
