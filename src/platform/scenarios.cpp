#include "platform/scenarios.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/contracts.hpp"
#include "core/batch_engine.hpp"
#include "core/credit_state.hpp"
#include "rng/splitmix64.hpp"
#include "sim/batch_kernel.hpp"
#include "vec/vec.hpp"

namespace cbus::platform {

namespace {

/// Validate the spec's protocol contracts and return the effective
/// platform config (kIsolation forces operation mode).
[[nodiscard]] PlatformConfig resolve_campaign_config(
    const CampaignSpec& spec) {
  CBUS_EXPECTS(spec.runs >= 1);
  CBUS_EXPECTS_MSG(spec.tua_factory != nullptr,
                   "CampaignSpec.tua_factory is required");
  CBUS_EXPECTS_MSG(spec.protocol == CampaignSpec::Protocol::kCorun ||
                       spec.corunner_factories.empty(),
                   spec.protocol == CampaignSpec::Protocol::kIsolation
                       ? "isolation runs the TuA alone"
                       : "maximum contention uses Table-I virtual "
                         "contenders, not real co-runners");

  PlatformConfig config = spec.config;
  switch (spec.protocol) {
    case CampaignSpec::Protocol::kIsolation:
      config.mode = PlatformMode::kOperation;  // no contender injection
      break;
    case CampaignSpec::Protocol::kMaxContention:
      CBUS_EXPECTS_MSG(
          config.mode == PlatformMode::kWcetEstimation,
          "maximum contention is a WCET-estimation-mode protocol");
      break;
    case CampaignSpec::Protocol::kCorun:
      break;  // the configured mode and co-runners apply as-is
  }
  return config;
}

/// Fold outcomes in order: finished runs into the aggregate, the rest
/// into the unfinished count.
void fold(std::span<const RunOutcome> outcomes, CampaignResult& into) {
  for (const RunOutcome& outcome : outcomes) {
    if (!outcome.finished) {
      ++into.unfinished_runs;
      continue;
    }
    into.aggregate.add(outcome.record);
  }
}

}  // namespace

std::uint64_t run_seed(std::uint64_t base_seed, std::uint32_t run_index) {
  rng::SplitMix64 mix(base_seed);
  std::uint64_t seed = mix.next();
  for (std::uint32_t i = 0; i < run_index; ++i) seed = mix.next();
  return seed;
}

stats::OnlineStats CampaignResult::exec_time() const {
  return aggregate.has("tua.cycles") ? aggregate.element_stats("tua.cycles")
                                     : stats::OnlineStats{};
}

const std::vector<double>& CampaignResult::samples() const {
  static const std::vector<double> kEmpty;
  return aggregate.retains_raw() && aggregate.has("tua.cycles")
             ? aggregate.element_samples("tua.cycles")
             : kEmpty;
}

stats::OnlineStats CampaignResult::bus_utilization() const {
  return aggregate.has("bus.utilization")
             ? aggregate.element_stats("bus.utilization")
             : stats::OnlineStats{};
}

std::uint64_t CampaignResult::credit_underflows() const {
  if (!aggregate.has("credit.underflows")) return 0;
  // Underflow clamps are integer counts, so the exact sum is exact here.
  return static_cast<std::uint64_t>(
      aggregate.element_sum("credit.underflows"));
}

void run_campaign_slice(const CampaignSpec& spec, std::uint32_t first_run,
                        std::span<RunOutcome> outcomes) {
  const PlatformConfig config = resolve_campaign_config(spec);
  CBUS_EXPECTS(first_run + outcomes.size() <= spec.runs);
  if (outcomes.empty()) return;
  const std::size_t lanes = outcomes.size();

  // Per-run seeds: the run_seed(base_seed, i) sequence, i.e. exactly the
  // draws the serial loop takes -- skip to this slice's window.
  rng::SplitMix64 mix(spec.base_seed);
  for (std::uint32_t i = 0; i < first_run; ++i) (void)mix.next();

  // One contiguous credit arena for the whole batch (SoA across lanes).
  // Segmented topologies widen each lane by the bridge-port slots.
  std::unique_ptr<core::CreditSoA> credit;
  if (config.cba.has_value()) {
    credit = std::make_unique<core::CreditSoA>(lanes, *config.cba,
                                               config.credit_slots());
  }

  // Vectorized fast path (see core::BatchCreditEngine): CBA on the
  // single non-split bus, uninstrumented, masks fit one word. Everything
  // else keeps the classic lane-major stripes -- as does CBUS_SIMD=off,
  // which is how the dispatch-parity matrix pins the two paths
  // byte-for-byte against each other.
  std::unique_ptr<core::BatchCreditEngine> engine;
  // lanes >= 2: a single-lane stripe is the serial reference point -- the
  // vertical engine would only add per-cycle dispatch overhead there, so
  // batch 1 (and a trailing 1-lane tail stripe) keeps the classic path.
  if (!spec.instrument && credit != nullptr && !config.topology.segmented() &&
      config.bus_protocol == BusProtocol::kNonSplit && lanes >= 2 &&
      lanes <= 64 && vec::engine_enabled()) {
    engine = std::make_unique<core::BatchCreditEngine>(*credit, *config.cba,
                                                       lanes);
  }

  struct Lane {
    std::unique_ptr<cpu::OpStream> tua;
    std::vector<std::unique_ptr<cpu::OpStream>> corunners;
    std::unique_ptr<Multicore> machine;
  };
  std::vector<Lane> replicas(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    Lane& r = replicas[lane];
    // Per-run derivation: machine seed, then one stream seed for the TuA
    // and one per co-runner.
    const std::uint64_t seed = mix.next();
    rng::SplitMix64 stream_seeds(seed);
    r.tua = spec.tua_factory();
    CBUS_EXPECTS_MSG(r.tua != nullptr, "tua_factory returned null");
    r.tua->reset(stream_seeds.next());
    std::vector<cpu::OpStream*> corunner_ptrs;
    corunner_ptrs.reserve(spec.corunner_factories.size());
    for (const CampaignSpec::StreamFactory& make : spec.corunner_factories) {
      r.corunners.push_back(make());
      CBUS_EXPECTS_MSG(r.corunners.back() != nullptr,
                       "corunner factory returned null");
      r.corunners.back()->reset(stream_seeds.next());
      corunner_ptrs.push_back(r.corunners.back().get());
    }
    r.machine = std::make_unique<Multicore>(
        config, seed, *r.tua, corunner_ptrs,
        credit ? credit->lane(lane) : core::CreditLaneView{}, engine.get(),
        lane);
  }

  if (spec.instrument) {
    // Instrumented campaigns run each lane in its own single-lane batch:
    // the hook may register extra kernel components (e.g. a tracer) on
    // SOME machines, and lockstep lanes must be exact replicas (equal
    // component counts). The lockstep-equivalence contract makes the
    // outcome bit-identical either way; instrumentation only costs the
    // batching speedup, never determinism.
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      Lane& r = replicas[lane];
      spec.instrument(first_run + static_cast<std::uint32_t>(lane),
                      *r.machine);
      sim::BatchKernel single(1, sim::BatchKernel::kCampaignStripe);
      r.machine->attach(single, 0);
      const std::vector<bool> fired = single.run_until(
          [&](std::size_t) { return r.machine->tua_done(); },
          spec.max_cycles);
      RunResult run = r.machine->harvest(fired[0], single.now());
      outcomes[lane].finished = run.tua_finished;
      outcomes[lane].record = std::move(run.record);
    }
    return;
  }

  sim::BatchKernel batch(lanes, sim::BatchKernel::kCampaignStripe);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    replicas[lane].machine->attach(batch, lane);
  }
  if (engine != nullptr) batch.set_stage(*engine);

  const std::vector<bool> fired = batch.run_until(
      [&](std::size_t lane) { return replicas[lane].machine->tua_done(); },
      spec.max_cycles);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    RunResult r = replicas[lane].machine->harvest(fired[lane], batch.now());
    outcomes[lane].finished = r.tua_finished;
    outcomes[lane].record = std::move(r.record);
  }
}

Slice SlicePlan::operator[](std::size_t s) const noexcept {
  const std::uint32_t first =
      static_cast<std::uint32_t>(s % per_campaign()) * batch;
  return Slice{s / per_campaign(), first, std::min(batch, runs - first)};
}

std::vector<CampaignRun> run_campaigns(std::span<const CampaignSpec> campaigns,
                                       const SliceHooks& hooks) {
  CBUS_EXPECTS(!campaigns.empty());
  const CampaignSpec& lead = campaigns.front();
  CBUS_EXPECTS(lead.runs >= 1);
  for (const CampaignSpec& spec : campaigns) {
    CBUS_EXPECTS_MSG(spec.runs == lead.runs && spec.batch == lead.batch &&
                         spec.threads == lead.threads,
                     "campaigns scheduled together must share runs, batch "
                     "and threads");
  }
  const SlicePlan plan{campaigns.size(), lead.runs, std::max(1u, lead.batch)};
  const auto skipped = [&](std::size_t s) {
    return hooks.skip && hooks.skip(s);
  };

  // The pending share of the plan, counted to size the pool -- never
  // materialized.
  std::size_t pending = 0;
  std::uint64_t pending_runs = 0;
  for (std::size_t s = 0; s < plan.size(); ++s) {
    if (skipped(s)) continue;
    ++pending;
    pending_runs += plan[s].run_count;
  }
  std::uint32_t threads = lead.threads;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  threads = static_cast<std::uint32_t>(
      std::clamp<std::size_t>(pending, 1, threads));
  if (hooks.on_start) hooks.on_start(threads, pending, pending_runs);

  std::vector<CampaignRun> out(campaigns.size());
  // Raw campaigns keep per-run outcome slots (their series must stay in
  // run order); streaming ones fold every slice into a local digest and
  // merge it under the lock, so peak live Records stay O(batch *
  // threads).
  std::vector<std::vector<RunOutcome>> slots(campaigns.size());
  for (std::size_t c = 0; c < campaigns.size(); ++c) {
    if (campaigns[c].retain_raw) slots[c].resize(plan.runs);
  }
  constexpr std::size_t kNoError = ~static_cast<std::size_t>(0);
  std::vector<std::size_t> error_slice(campaigns.size(), kNoError);
  std::mutex fold_mutex;

  const auto run_slice = [&](std::size_t s, std::uint32_t worker) {
    const Slice slice = plan[s];
    const CampaignSpec& spec = campaigns[slice.campaign];
    const auto slice_start = std::chrono::steady_clock::now();
    std::optional<CampaignResult> digest;
    if (spec.retain_raw) {
      const std::span<RunOutcome> outcomes(slots[slice.campaign]);
      run_campaign_slice(spec, slice.first_run,
                         outcomes.subspan(slice.first_run, slice.run_count));
    } else {
      std::vector<RunOutcome> outcomes(slice.run_count);
      run_campaign_slice(spec, slice.first_run, outcomes);
      fold(outcomes, digest.emplace());
    }
    const double slice_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - slice_start)
            .count();
    CampaignResult* partial = digest ? &*digest : nullptr;
    const std::lock_guard<std::mutex> lock(fold_mutex);
    if (partial != nullptr) {
      CampaignResult& total = out[slice.campaign].result;
      total.aggregate.merge(partial->aggregate);
      total.unfinished_runs += partial->unfinished_runs;
    }
    if (hooks.on_slice) hooks.on_slice({s, slice, worker, slice_ms, partial});
  };

  // Workers claim slice indices in plan order. A failure is kept per
  // campaign, lowest slice index first, so the reported error does not
  // depend on the thread count or on which slice failed first in time.
  std::atomic<std::size_t> next{0};
  const auto worker = [&](std::uint32_t me) {
    for (std::size_t s = next++; s < plan.size(); s = next++) {
      try {
        if (!skipped(s)) run_slice(s, me);
      } catch (...) {
        const std::size_t c = s / plan.per_campaign();
        const std::lock_guard<std::mutex> lock(fold_mutex);
        if (s < error_slice[c]) {
          error_slice[c] = s;
          out[c].error = std::current_exception();
        }
      }
    }
  };
  if (threads == 1) {
    worker(0);
  } else {
    // jthreads join on destruction, also if spawning a later one throws.
    std::vector<std::jthread> pool;
    pool.reserve(threads);
    for (std::uint32_t t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  }

  // Raw fold in run order, one campaign at a time, releasing each
  // campaign's outcome slots as soon as they are folded.
  for (std::size_t c = 0; c < campaigns.size(); ++c) {
    if (!campaigns[c].retain_raw || out[c].error) continue;
    CampaignResult& result = out[c].result;
    result.aggregate = metrics::Aggregator(
        metrics::Aggregator::Options{.retain_raw = true});
    const std::span<const RunOutcome> outcomes(slots[c]);
    for (std::uint32_t k = 0; k < plan.per_campaign(); ++k) {
      const std::size_t s = c * plan.per_campaign() + k;
      if (skipped(s)) continue;
      const Slice slice = plan[s];
      fold(outcomes.subspan(slice.first_run, slice.run_count), result);
    }
    std::vector<RunOutcome>().swap(slots[c]);
  }
  return out;
}

CampaignResult run_campaign(const CampaignSpec& spec) {
  CampaignRun run = std::move(run_campaigns({&spec, 1}).front());
  if (run.error) std::rethrow_exception(run.error);
  return std::move(run.result);
}

double slowdown(const CampaignResult& x, const CampaignResult& baseline) {
  CBUS_EXPECTS(baseline.exec_time().count() > 0 &&
               x.exec_time().count() > 0);
  CBUS_EXPECTS(baseline.exec_time().mean() > 0.0);
  return x.exec_time().mean() / baseline.exec_time().mean();
}

}  // namespace cbus::platform
