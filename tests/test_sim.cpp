// Unit tests for the cycle-driven kernel: tick ordering, run_until
// semantics, clock progression, the fast-forward over quiet cycles, and
// the lockstep BatchKernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/batch_kernel.hpp"
#include "sim/component.hpp"
#include "sim/kernel.hpp"
#include "tick_every_cycle.hpp"

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

/// A component with an event every `period` cycles (at multiples of the
/// period): it logs the cycles it executes and the windows it skips, and
/// counts the horizon questions it is asked.
class Periodic final : public Component {
 public:
  explicit Periodic(Cycle period) : Component("periodic"), period_(period) {}

  void tick(Cycle now) override { executed.push_back(now); }
  [[nodiscard]] Cycle next_event(Cycle now) const override {
    ++asked;
    return (now / period_ + 1) * period_;
  }
  void skip(Cycle from, Cycle cycles) override {
    skipped.emplace_back(from, cycles);
  }

  std::vector<Cycle> executed;
  std::vector<std::pair<Cycle, Cycle>> skipped;
  mutable std::uint64_t asked = 0;

 private:
  Cycle period_;
};

/// Every cycle in [0, cycles) executed or skipped exactly once.
void expect_each_cycle_once(const Periodic& p, Cycle cycles) {
  std::vector<int> covered(cycles, 0);
  for (const Cycle c : p.executed) ++covered[c];
  for (const auto& [from, k] : p.skipped) {
    for (Cycle c = from; c < from + k; ++c) ++covered[c];
  }
  EXPECT_EQ(std::count(covered.begin(), covered.end(), 1),
            static_cast<std::ptrdiff_t>(cycles));
}

TEST(Kernel, FastForwardExecutesOnlyEventCyclesAndCallStarts) {
  // Events every 100 cycles: one call executes cycle 0 and each event
  // cycle, skips the rest in closed form, and polls done() once per
  // executed cycle.
  Kernel kernel;
  Periodic p(100);
  kernel.add(p);
  std::vector<Cycle> polled;
  const bool fired = kernel.run_until(
      [&] {
        polled.push_back(p.executed.back());
        return false;
      },
      600);
  EXPECT_FALSE(fired);
  const std::vector<Cycle> expected{0, 100, 200, 300, 400, 500};
  EXPECT_EQ(p.executed, expected);
  EXPECT_EQ(polled, expected);
  expect_each_cycle_once(p, 600);
  EXPECT_EQ(kernel.now(), 600u);
  EXPECT_EQ(kernel.executed_cycles(), expected.size());

  // In calls of 256 cycles every call also executes its first cycle: no
  // jump crosses the end of a call's budget.
  Kernel chunked;
  Periodic q(100);
  chunked.add(q);
  while (chunked.now() < 600) {
    chunked.run(std::min<Cycle>(256, 600 - chunked.now()));
  }
  const std::vector<Cycle> with_starts{0, 100, 200, 256, 300, 400, 500, 512};
  EXPECT_EQ(q.executed, with_starts);
  expect_each_cycle_once(q, 600);
  EXPECT_EQ(chunked.now(), 600u);
  EXPECT_EQ(chunked.executed_cycles(), with_starts.size());
}

TEST(Kernel, DefaultHorizonTicksEveryCycle) {
  // One component without an event horizon (the default, now + 1) keeps
  // the kernel on the tick-every-cycle path, and no component is ever
  // skipped. Registered last, it answers the first horizon question, so
  // nothing else is even asked.
  Kernel last;
  Periodic p0(100);
  test::TickEveryCycle reference;
  last.add(p0);
  last.add(reference);
  last.run(300);
  EXPECT_EQ(p0.executed.size(), 300u);
  EXPECT_TRUE(p0.skipped.empty());
  EXPECT_EQ(p0.asked, 0u);
  EXPECT_EQ(last.executed_cycles(), 300u);
  EXPECT_EQ(last.now(), 300u);

  Kernel first;
  Probe plain("b", nullptr);
  Periodic p1(100);
  first.add(plain);
  first.add(p1);
  first.run(300);
  EXPECT_EQ(p1.executed.size(), 300u);
  EXPECT_TRUE(p1.skipped.empty());
  EXPECT_EQ(first.executed_cycles(), 300u);
}

TEST(Kernel, FiredRunCountsCyclesUpToItsFiringCycle) {
  Kernel kernel;
  Periodic p(50);
  kernel.add(p);
  const bool fired =
      kernel.run_until([&] { return p.executed.back() == 150; }, 1'000);
  EXPECT_TRUE(fired);
  EXPECT_EQ(kernel.now(), 151u);             // cycles 0..150
  EXPECT_EQ(kernel.executed_cycles(), 4u);  // 0, 50, 100, 150
}

/// Acts at cycle 0, then never again.
class OneShot final : public Component {
 public:
  OneShot() : Component("one-shot") {}

  void tick(Cycle /*now*/) override { ++ticks; }
  [[nodiscard]] Cycle next_event(Cycle /*now*/) const override {
    return kNever;
  }
  void skip(Cycle /*from*/, Cycle cycles) override { skipped += cycles; }

  std::uint64_t ticks = 0;
  Cycle skipped = 0;
};

TEST(Kernel, QuietRunReachesItsBudgetInOneSkip) {
  // Every horizon kNever: the first executed cycle is the last, and the
  // budget end caps the jump -- saturating at kNever for an unbounded
  // budget.
  Kernel kernel;
  OneShot shot;
  kernel.add(shot);
  EXPECT_FALSE(kernel.run_until([] { return false; }, 1'000'000));
  EXPECT_EQ(shot.ticks, 1u);
  EXPECT_EQ(shot.skipped, 999'999u);
  EXPECT_EQ(kernel.now(), 1'000'000u);
  kernel.run(kNever);
  EXPECT_EQ(shot.ticks, 2u);
  EXPECT_EQ(kernel.now(), kNever);
  EXPECT_EQ(kernel.executed_cycles(), 2u);
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
