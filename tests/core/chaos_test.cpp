// Chaos suite (docs/ROBUSTNESS.md): drives every named fault site through
// every failure policy and differentially asserts the fault-isolation
// contract — surviving shards return results and merged ReportEvent
// streams BIT-IDENTICAL to an uninjected run, at 1 and 4 threads. Faults
// are keyed by configuration, so which shard fails never depends on thread
// scheduling. The multiplexed layout runs through the same policy. Runs
// under TSan in CI (label: chaos).

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "apsim/batch_simulator.hpp"
#include "apss_test_support.hpp"
#include "core/engine.hpp"
#include "core/opt/stream_multiplexing.hpp"
#include "knn/exact.hpp"
#include "util/cancellation.hpp"
#include "util/fault_injection.hpp"
#include "util/thread_pool.hpp"

namespace apss::core {
namespace {

/// Every test starts and ends with the process-global injector disarmed.
class Chaos : public ::testing::Test {
 protected:
  void SetUp() override { util::FaultInjector::instance().disarm_all(); }
  void TearDown() override { util::FaultInjector::instance().disarm_all(); }
};
using ChaosEngine = Chaos;
using ChaosMux = Chaos;
using ChaosArtifact = Chaos;
using ChaosControl = Chaos;

struct SearchRun {
  std::vector<std::vector<knn::Neighbor>> results;
  std::vector<apsim::ReportEvent> stream;
  EngineStats stats;
};

SearchRun run_engine(const knn::BinaryDataset& data,
               const knn::BinaryDataset& queries, std::size_t k,
               EngineOptions opt, std::size_t threads,
               const SearchControl& control = {}) {
  opt.threads = threads;
  opt.collect_report_stream = true;
  ApKnnEngine engine(data, opt);
  SearchRun r;
  r.results = engine.search(queries, k, control);
  r.stream = engine.last_report_stream();
  r.stats = engine.last_stats();
  return r;
}

/// The 4-configuration test bed shared by the engine matrix: report_code
/// carries the GLOBAL vector id (MuxReportCode-packed when multiplexed), so
/// configuration c owns vectors [c * 7, (c + 1) * 7) and dropping a
/// configuration from the baseline stream is a pure filter.
constexpr std::size_t kCap = 7;
constexpr std::size_t kVectors = 26;  // 4 configurations (7+7+7+5)
constexpr std::size_t kConfigs = 4;
constexpr std::int64_t kVictim = 1;  // injected configuration

EngineOptions bed_options(SimulationBackend backend) {
  EngineOptions opt;
  opt.backend = backend;
  opt.max_vectors_per_config = kCap;
  opt.queries_per_chunk = 2;  // several (config, frame) shards per config
  return opt;
}

/// Baseline stream minus every event of configuration `config` — what a
/// fault-isolated run must emit when that configuration is lost.
std::vector<apsim::ReportEvent> without_config(
    const std::vector<apsim::ReportEvent>& stream, std::size_t config,
    std::size_t slices = 1) {
  std::vector<apsim::ReportEvent> out;
  for (const apsim::ReportEvent& e : stream) {
    const std::uint32_t id =
        slices > 1 ? MuxReportCode::vector_id(e.report_code) : e.report_code;
    if (id / kCap != config) {
      out.push_back(e);
    }
  }
  return out;
}

/// The dataset minus configuration `config`'s vectors — the ground truth
/// an isolated run must answer against.
knn::BinaryDataset without_config_data(const knn::BinaryDataset& data,
                                       std::size_t config) {
  const std::size_t lo = config * kCap;
  const std::size_t hi = std::min(lo + kCap, data.size());
  knn::BinaryDataset out(data.size() - (hi - lo), data.dims());
  std::size_t row = 0;
  for (std::size_t v = 0; v < data.size(); ++v) {
    if (v >= lo && v < hi) {
      continue;
    }
    for (std::size_t i = 0; i < data.dims(); ++i) {
      out.set(row, i, data.get(v, i));
    }
    ++row;
  }
  return out;
}

/// Global ids -> ids in the without_config_data() numbering.
std::vector<knn::Neighbor> remap_without_config(
    const std::vector<knn::Neighbor>& list, std::size_t config) {
  std::vector<knn::Neighbor> out;
  for (knn::Neighbor nb : list) {
    EXPECT_NE(nb.id / kCap, config) << "victim id leaked: " << nb.id;
    if (nb.id / kCap > config) {
      nb.id -= static_cast<std::uint32_t>(kCap);
    }
    out.push_back(nb);
  }
  return out;
}

void expect_states(const EngineStats& stats, ShardState victim_state,
                   const std::string& ctx, std::size_t configs = kConfigs) {
  ASSERT_EQ(stats.shard_status.size(), configs) << ctx;
  for (std::size_t c = 0; c < configs; ++c) {
    const ShardState want = c == static_cast<std::size_t>(kVictim)
                                ? victim_state
                                : ShardState::kOk;
    EXPECT_EQ(stats.shard_status[c].state, want) << ctx << " config " << c;
  }
  EXPECT_FALSE(stats.shard_status[kVictim].error.empty()) << ctx;
  if (victim_state == ShardState::kDegraded) {
    EXPECT_GE(stats.shard_status[kVictim].retries, 1u) << ctx;
  }
}

/// The heart of the matrix: arm `site` (keyed to the victim configuration,
/// persistent), search under `policy` at 1 and 4 threads, and check the
/// survivors against the uninjected baseline. `slices` > 1 runs the
/// multiplexed layout on the same bed.
void expect_isolation(const knn::BinaryDataset& data,
                      const knn::BinaryDataset& queries,
                      SimulationBackend backend, std::string_view site,
                      OnError policy, ShardState victim_state,
                      const std::string& ctx,
                      apsim::LaneWidth lane_width = apsim::LaneWidth::kAuto,
                      std::size_t slices = 1) {
  EngineOptions opt = bed_options(backend);
  opt.lane_width = lane_width;
  opt.slices = slices;
  if (slices > 1) {
    // One frame per shard at any thread count, so the per-configuration
    // retry sums compare across thread counts.
    opt.queries_per_chunk = 1;
  }
  const std::size_t configs = (data.size() + kCap - 1) / kCap;
  const std::size_t frames = (queries.size() + slices - 1) / slices;
  const SearchRun baseline = run_engine(data, queries, 4, opt, 1);
  ASSERT_FALSE(baseline.stream.empty()) << ctx;

  opt.on_error = policy;
  util::FaultInjector::Plan plan;
  plan.match_key = kVictim;
  util::FaultInjector::instance().arm(site, plan);

  const bool survives = victim_state == ShardState::kOk ||
                        victim_state == ShardState::kDegraded;
  const auto want_stream =
      survives ? baseline.stream
               : without_config(baseline.stream, kVictim, slices);
  const knn::BinaryDataset survivors = without_config_data(data, kVictim);
  SearchRun first;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const std::string tctx = ctx + " threads=" + std::to_string(threads);
    const SearchRun run = run_engine(data, queries, 4, opt, threads);
    expect_states(run.stats, victim_state, tctx, configs);
    EXPECT_EQ(run.stream, want_stream) << tctx;
    if (survives) {
      EXPECT_EQ(run.results, baseline.results) << tctx;
    } else {
      // Losing a configuration backfills the top-k from the survivors'
      // partial lists (the baseline truncated those candidates away), so
      // the right expectation is the exact oracle over surviving vectors.
      for (std::size_t q = 0; q < queries.size(); ++q) {
        const auto mapped = remap_without_config(run.results[q], kVictim);
        EXPECT_TRUE(
            knn::is_valid_knn_result(survivors, queries.row(q), 4, mapped))
            << tctx << " query " << q;
      }
    }
    EXPECT_EQ(run.stats.surviving_configurations(),
              survives ? configs : configs - 1)
        << tctx;
    EXPECT_EQ(run.stats.simulated_cycles,
              frames * run.stats.cycles_per_query *
                  run.stats.surviving_configurations())
        << tctx;
    if (threads == 1) {
      first = run;
    } else {
      // The injected run itself is thread-count invariant. (Error strings
      // embed the scheduling-dependent injector hit number, so compare the
      // deterministic fields only.)
      EXPECT_EQ(run.results, first.results) << tctx;
      EXPECT_EQ(run.stream, first.stream) << tctx;
      ASSERT_EQ(run.stats.shard_status.size(),
                first.stats.shard_status.size())
          << tctx;
      for (std::size_t c = 0; c < configs; ++c) {
        EXPECT_EQ(run.stats.shard_status[c].state,
                  first.stats.shard_status[c].state)
            << tctx << " config " << c;
        EXPECT_EQ(run.stats.shard_status[c].retries,
                  first.stats.shard_status[c].retries)
            << tctx << " config " << c;
      }
    }
  }
  util::FaultInjector::instance().disarm_all();
}

TEST_F(ChaosEngine, ShardSiteIsolatesConfigCycleAccurate) {
  const auto data = knn::BinaryDataset::uniform(kVectors, 24, 701);
  const auto queries = knn::BinaryDataset::uniform(6, 24, 702);
  expect_isolation(data, queries, SimulationBackend::kCycleAccurate,
                   util::kFaultEngineShard, OnError::kIsolate,
                   ShardState::kFailed, "engine.shard/isolate/cycle");
}

TEST_F(ChaosEngine, ShardSiteIsolatesConfigEvenWithRetries) {
  // Persistent fault: every retry AND the degrade attempt re-enter the
  // shard site, so the configuration still ends kFailed under kRetry —
  // on both backends.
  const auto data = knn::BinaryDataset::uniform(kVectors, 24, 703);
  const auto queries = knn::BinaryDataset::uniform(6, 24, 704);
  expect_isolation(data, queries, SimulationBackend::kCycleAccurate,
                   util::kFaultEngineShard, OnError::kRetry,
                   ShardState::kFailed, "engine.shard/retry/cycle");
  expect_isolation(data, queries, SimulationBackend::kBitParallel,
                   util::kFaultEngineShard, OnError::kRetry,
                   ShardState::kFailed, "engine.shard/retry/bit");
}

TEST_F(ChaosEngine, SimFrameSiteIsolatesConfig) {
  const auto data = knn::BinaryDataset::uniform(kVectors, 24, 705);
  const auto queries = knn::BinaryDataset::uniform(6, 24, 706);
  expect_isolation(data, queries, SimulationBackend::kCycleAccurate,
                   util::kFaultSimFrame, OnError::kIsolate,
                   ShardState::kFailed, "sim.frame/isolate/cycle");
  expect_isolation(data, queries, SimulationBackend::kCycleAccurate,
                   util::kFaultSimFrame, OnError::kRetry, ShardState::kFailed,
                   "sim.frame/retry/cycle");
}

TEST_F(ChaosEngine, BatchFrameFaultDegradesToCycleAccurate) {
  // The bit-parallel simulator keeps failing, the cycle-accurate rerun
  // succeeds: the configuration is DEGRADED, not lost — results and the
  // merged stream equal the full baseline bit for bit.
  const auto data = knn::BinaryDataset::uniform(kVectors, 24, 707);
  const auto queries = knn::BinaryDataset::uniform(6, 24, 708);
  expect_isolation(data, queries, SimulationBackend::kBitParallel,
                   util::kFaultBatchFrame, OnError::kIsolate,
                   ShardState::kDegraded, "batch.frame/isolate/bit");
  expect_isolation(data, queries, SimulationBackend::kBitParallel,
                   util::kFaultBatchFrame, OnError::kRetry,
                   ShardState::kDegraded, "batch.frame/retry/bit");
}

TEST_F(ChaosEngine, FaultSitesIsolateAtWideLaneWidth) {
  // The fault-isolation matrix pinned to 512-bit lanes: shard loss, the
  // degrade-to-cycle-accurate rerun (which re-enters sim.frame), and the
  // 1/4-thread merges must behave exactly as they do at 64 bits.
  const auto data = knn::BinaryDataset::uniform(kVectors, 24, 723);
  const auto queries = knn::BinaryDataset::uniform(6, 24, 724);
  expect_isolation(data, queries, SimulationBackend::kBitParallel,
                   util::kFaultEngineShard, OnError::kIsolate,
                   ShardState::kFailed, "engine.shard/isolate/bit/w512",
                   apsim::LaneWidth::k512);
  expect_isolation(data, queries, SimulationBackend::kBitParallel,
                   util::kFaultBatchFrame, OnError::kIsolate,
                   ShardState::kDegraded, "batch.frame/isolate/bit/w512",
                   apsim::LaneWidth::k512);
  // lane_width is a bit-parallel knob: on the cycle-accurate backend it
  // must be inert, including on the sim.frame failure path.
  expect_isolation(data, queries, SimulationBackend::kCycleAccurate,
                   util::kFaultSimFrame, OnError::kIsolate,
                   ShardState::kFailed, "sim.frame/isolate/cycle/w512",
                   apsim::LaneWidth::k512);
}

TEST_F(ChaosEngine, RetryRecoversTransientFault) {
  // One-shot fault window: the first attempt on the victim configuration
  // fails, its retry succeeds — full baseline results, one extra attempt.
  const auto data = knn::BinaryDataset::uniform(kVectors, 24, 709);
  const auto queries = knn::BinaryDataset::uniform(6, 24, 710);
  EngineOptions opt = bed_options(SimulationBackend::kCycleAccurate);
  const SearchRun baseline = run_engine(data, queries, 4, opt, 1);

  opt.on_error = OnError::kRetry;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    util::FaultInjector::Plan plan;
    plan.match_key = kVictim;
    plan.fail_on_hit = 1;
    plan.fail_count = 1;
    util::FaultInjector::instance().arm(util::kFaultEngineShard, plan);
    const SearchRun run = run_engine(data, queries, 4, opt, threads);
    EXPECT_EQ(run.results, baseline.results) << threads;
    EXPECT_EQ(run.stream, baseline.stream) << threads;
    ASSERT_EQ(run.stats.shard_status.size(), kConfigs);
    EXPECT_EQ(run.stats.shard_status[kVictim].state, ShardState::kOk);
    EXPECT_EQ(run.stats.shard_status[kVictim].retries, 1u);
    EXPECT_TRUE(run.stats.shard_status[kVictim].error.empty());
    util::FaultInjector::instance().disarm_all();
  }
}

TEST_F(ChaosEngine, FailFastRethrowsInjectedFault) {
  const auto data = knn::BinaryDataset::uniform(kVectors, 24, 711);
  const auto queries = knn::BinaryDataset::uniform(6, 24, 712);
  EngineOptions opt = bed_options(SimulationBackend::kCycleAccurate);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    opt.threads = threads;
    util::FaultInjector::Plan plan;
    plan.match_key = kVictim;
    util::FaultInjector::instance().arm(util::kFaultEngineShard, plan);
    ApKnnEngine engine(data, opt);
    EXPECT_THROW(engine.search(queries, 4), util::InjectedFault);
    util::FaultInjector::instance().disarm_all();
    // The engine stays usable after the aborted search.
    const auto results = engine.search(queries, 4);
    EXPECT_EQ(results.size(), queries.size());
  }
}

TEST_F(ChaosEngine, IsolatePolicyWithoutFaultsMatchesBaseline) {
  // The policies must be pure failure-path behavior: with nothing armed,
  // kIsolate/kRetry produce byte-identical results, streams, and stats.
  const auto data = knn::BinaryDataset::uniform(kVectors, 24, 713);
  const auto queries = knn::BinaryDataset::uniform(6, 24, 714);
  EngineOptions opt = bed_options(SimulationBackend::kBitParallel);
  const SearchRun baseline = run_engine(data, queries, 4, opt, 1);
  for (const OnError policy : {OnError::kIsolate, OnError::kRetry}) {
    opt.on_error = policy;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const SearchRun run = run_engine(data, queries, 4, opt, threads);
      EXPECT_EQ(run.results, baseline.results);
      EXPECT_EQ(run.stream, baseline.stream);
      EXPECT_TRUE(run.stats.same_work(baseline.stats));
      EXPECT_EQ(run.stats.surviving_configurations(), kConfigs);
      EXPECT_EQ(run.stats.count_state(ShardState::kOk), kConfigs);
    }
  }
}

TEST_F(ChaosEngine, CutFramesPollAndFailLikeWholeFrames) {
  // Without a collected report stream, bit-parallel shards stop each frame
  // after its k-th report's cycle. A frame ended early still polls at its
  // boundary: batch.frame sees one hit per frame, a fault window fails the
  // same frame, and a degraded configuration returns the same lists and
  // device accounting as on whole frames.
  const auto data = knn::BinaryDataset::uniform(kVectors, 24, 725);
  const auto queries = knn::BinaryDataset::uniform(6, 24, 726);
  const EngineOptions bed = bed_options(SimulationBackend::kBitParallel);
  const SearchRun baseline = run_engine(data, queries, 1, bed, 1);
  auto& injector = util::FaultInjector::instance();
  for (const bool collect : {true, false}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const std::string ctx = std::string(collect ? "whole" : "cut") +
                              " frames, threads=" + std::to_string(threads);
      EngineOptions opt = bed;
      opt.collect_report_stream = collect;
      opt.threads = threads;
      ApKnnEngine engine(data, opt);

      util::FaultInjector::Plan count;
      count.match_key = kVictim;
      count.fail_on_hit = 0;
      count.fail = false;
      injector.arm(util::kFaultBatchFrame, count);
      EXPECT_EQ(engine.search(queries, 1), baseline.results) << ctx;
      EXPECT_EQ(injector.hits(util::kFaultBatchFrame), queries.size()) << ctx;
      EXPECT_EQ(engine.last_stats().host_cycles_skipped > 0, !collect) << ctx;

      if (threads == 1) {
        // Serial shards make the failing hit the victim's fifth frame.
        util::FaultInjector::Plan fifth;
        fifth.match_key = kVictim;
        fifth.fail_on_hit = 5;
        injector.arm(util::kFaultBatchFrame, fifth);
        EXPECT_THROW(engine.search(queries, 1), util::InjectedFault) << ctx;
        EXPECT_EQ(injector.hits(util::kFaultBatchFrame), 5u) << ctx;
      }

      opt.on_error = OnError::kIsolate;
      util::FaultInjector::Plan always;
      always.match_key = kVictim;
      injector.arm(util::kFaultBatchFrame, always);
      ApKnnEngine isolating(data, opt);
      EXPECT_EQ(isolating.search(queries, 1), baseline.results) << ctx;
      expect_states(isolating.last_stats(), ShardState::kDegraded, ctx);
      EXPECT_TRUE(isolating.last_stats().same_work(baseline.stats)) << ctx;
      injector.disarm_all();
    }
  }
}

TEST_F(ChaosControl, CutFrameTimesOutOnTheSameFrame) {
  // An expired deadline, or a batch.frame fault, stops a frame-bounded run
  // at the same frame boundary as a whole-frame run, with the prefix of
  // the frames before it collected.
  const auto data = knn::BinaryDataset::uniform(kVectors, 24, 727);
  const auto queries = knn::BinaryDataset::uniform(4, 24, 728);
  ApKnnEngine engine(data, bed_options(SimulationBackend::kBitParallel));
  const auto program = engine.program(0);
  ASSERT_NE(program, nullptr);
  const std::size_t frame = engine.stream_spec().cycles_per_query();
  const auto stream =
      SymbolStreamEncoder(engine.stream_spec()).encode_batch(queries);

  const util::Deadline expired = util::Deadline::after_ms(0);
  util::RunControl ctl;
  ctl.deadline = &expired;
  ctl.checkpoint_period = frame;
  apsim::BatchSimulator whole(program);
  apsim::BatchSimulator cut(program);
  EXPECT_THROW(whole.run(stream, ctl), util::DeadlineExceeded);
  EXPECT_THROW(cut.run_frames(stream, frame, 1, ctl), util::DeadlineExceeded);
  EXPECT_EQ(whole.cycle(), frame);
  EXPECT_EQ(cut.cycle(), frame);
  EXPECT_GT(cut.cycles_skipped(), 0u);
  EXPECT_EQ(cut.reports(), test::frame_prefix(whole.reports(), frame, 1));

  util::FaultInjector::Plan second;
  second.fail_on_hit = 2;
  util::RunControl idle;
  idle.checkpoint_period = frame;
  util::FaultInjector::instance().arm(util::kFaultBatchFrame, second);
  EXPECT_THROW(whole.run(stream, idle), util::InjectedFault);
  util::FaultInjector::instance().arm(util::kFaultBatchFrame, second);
  EXPECT_THROW(cut.run_frames(stream, frame, 1, idle), util::InjectedFault);
  EXPECT_EQ(whole.cycle(), 2 * frame);
  EXPECT_EQ(cut.cycle(), 2 * frame);
  EXPECT_EQ(cut.reports(), test::frame_prefix(whole.reports(), frame, 1));
}

TEST_F(ChaosControl, TinyDeadlineTimesOutEveryConfiguration) {
  const auto data = knn::BinaryDataset::uniform(kVectors, 24, 715);
  const auto queries = knn::BinaryDataset::uniform(6, 24, 716);
  EngineOptions opt = bed_options(SimulationBackend::kCycleAccurate);
  opt.on_error = OnError::kIsolate;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const auto start = std::chrono::steady_clock::now();
    // Expires before the first frame completes.
    const util::Deadline deadline = util::Deadline::after_ms(1e-4);
    SearchControl control;
    control.deadline = &deadline;
    const SearchRun run = run_engine(data, queries, 4, opt, threads, control);
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_EQ(run.stats.count_state(ShardState::kTimedOut), kConfigs);
    EXPECT_EQ(run.stats.surviving_configurations(), 0u);
    EXPECT_EQ(run.stats.simulated_cycles, 0u);
    EXPECT_TRUE(run.stream.empty());
    for (const auto& list : run.results) {
      EXPECT_TRUE(list.empty());
    }
    // Frame-granular enforcement: the whole search (construction aside)
    // winds down in far less than a second once the deadline is gone.
    EXPECT_LT(elapsed_ms, 5000.0);
  }
}

TEST_F(ChaosControl, FailFastDeadlineThrows) {
  const auto data = knn::BinaryDataset::uniform(kVectors, 24, 717);
  const auto queries = knn::BinaryDataset::uniform(6, 24, 718);
  EngineOptions opt = bed_options(SimulationBackend::kCycleAccurate);
  opt.threads = 1;
  ApKnnEngine engine(data, opt);
  const util::Deadline deadline = util::Deadline::after_ms(1e-4);
  SearchControl control;
  control.deadline = &deadline;
  EXPECT_THROW(engine.search(queries, 4, control), util::DeadlineExceeded);
}

TEST_F(ChaosControl, PreCancelledTokenCancelsEveryConfiguration) {
  const auto data = knn::BinaryDataset::uniform(kVectors, 24, 719);
  const auto queries = knn::BinaryDataset::uniform(6, 24, 720);
  util::CancellationToken token;
  token.request_cancel();
  EngineOptions opt = bed_options(SimulationBackend::kCycleAccurate);
  SearchControl control;
  control.cancel = &token;

  opt.threads = 1;
  ApKnnEngine fail_fast(data, opt);
  EXPECT_THROW(fail_fast.search(queries, 4, control),
               util::OperationCancelled);

  opt.on_error = OnError::kIsolate;
  const SearchRun run = run_engine(data, queries, 4, opt, 4, control);
  EXPECT_EQ(run.stats.count_state(ShardState::kCancelled), kConfigs);
  EXPECT_EQ(run.stats.surviving_configurations(), 0u);
}

TEST_F(ChaosControl, EngagedRunControlIsBitIdenticalToPlainRun) {
  // The checkpointed simulator paths must not perturb semantics: a huge
  // deadline (engaged, never fires) produces the exact baseline.
  const auto data = knn::BinaryDataset::uniform(kVectors, 24, 721);
  const auto queries = knn::BinaryDataset::uniform(6, 24, 722);
  for (const auto backend : {SimulationBackend::kCycleAccurate,
                             SimulationBackend::kBitParallel}) {
    EngineOptions opt = bed_options(backend);
    const SearchRun baseline = run_engine(data, queries, 4, opt, 1);
    const util::Deadline never = util::Deadline::after_ms(1e9);
    SearchControl control;
    control.deadline = &never;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const SearchRun run =
          run_engine(data, queries, 4, opt, threads, control);
      EXPECT_EQ(run.results, baseline.results);
      EXPECT_EQ(run.stream, baseline.stream);
      EXPECT_TRUE(run.stats.same_work(baseline.stats));
    }
  }
}

// ---------------------------------------------------------------------------
// Multiplexed layout: the same per-configuration policy, on a bed of 20
// vectors = 3 configurations, with 26 queries riding 4 frames of 7 slices.

constexpr std::size_t kMuxVectors = 20;

TEST_F(ChaosMux, ShardFaultIsolatesOneConfiguration) {
  const auto data = knn::BinaryDataset::uniform(kMuxVectors, 16, 731);
  const auto queries = knn::BinaryDataset::uniform(26, 16, 732);
  expect_isolation(data, queries, SimulationBackend::kCycleAccurate,
                   util::kFaultEngineShard, OnError::kIsolate,
                   ShardState::kFailed, "mux engine.shard/isolate/cycle",
                   apsim::LaneWidth::kAuto, kMaxSlices);
  expect_isolation(data, queries, SimulationBackend::kCycleAccurate,
                   util::kFaultSimFrame, OnError::kRetry, ShardState::kFailed,
                   "mux sim.frame/retry/cycle", apsim::LaneWidth::kAuto,
                   kMaxSlices);
}

TEST_F(ChaosMux, BatchFrameFaultDegradesToCycleAccurate) {
  // Degradation, not loss: the cycle-accurate rerun of the victim
  // configuration emits the same events, so lists and stream match the
  // baseline in full.
  const auto data = knn::BinaryDataset::uniform(kMuxVectors, 16, 733);
  const auto queries = knn::BinaryDataset::uniform(26, 16, 734);
  expect_isolation(data, queries, SimulationBackend::kBitParallel,
                   util::kFaultBatchFrame, OnError::kIsolate,
                   ShardState::kDegraded, "mux batch.frame/isolate/bit",
                   apsim::LaneWidth::kAuto, kMaxSlices);
}

TEST_F(ChaosMux, RetryRecoversAndDeadlineTimesOut) {
  const auto data = knn::BinaryDataset::uniform(kMuxVectors, 16, 735);
  const auto queries = knn::BinaryDataset::uniform(26, 16, 736);
  EngineOptions opt = bed_options(SimulationBackend::kCycleAccurate);
  opt.slices = kMaxSlices;
  opt.threads = 1;
  const SearchRun baseline = run_engine(data, queries, 5, opt, 1);

  // One-shot fault on configuration 0: recovered by the retry.
  util::FaultInjector::Plan plan;
  plan.match_key = 0;
  plan.fail_count = 1;
  util::FaultInjector::instance().arm(util::kFaultEngineShard, plan);
  opt.on_error = OnError::kRetry;
  ApKnnEngine mux(data, opt);
  EXPECT_EQ(mux.search(queries, 5), baseline.results);
  util::FaultInjector::instance().disarm_all();
  const auto& status = mux.last_stats().shard_status;
  ASSERT_EQ(status.size(), 3u);
  EXPECT_EQ(status[0].state, ShardState::kOk);
  EXPECT_EQ(status[0].retries, 1u);

  // A vanishing deadline times out every configuration under kIsolate...
  const util::Deadline deadline = util::Deadline::after_ms(1e-4);
  SearchControl control;
  control.deadline = &deadline;
  opt.on_error = OnError::kIsolate;
  ApKnnEngine isolating(data, opt);
  const auto timed = isolating.search(queries, 5, control);
  EXPECT_EQ(isolating.last_stats().count_state(ShardState::kTimedOut), 3u);
  for (const auto& list : timed) {
    EXPECT_TRUE(list.empty());
  }
  // ...and throws under the default fail-fast policy.
  opt.on_error = OnError::kFailFast;
  ApKnnEngine failing(data, opt);
  EXPECT_THROW(failing.search(queries, 5, control), util::DeadlineExceeded);
}

// ---------------------------------------------------------------------------
// Artifact cache: transient-I/O retry, quarantine, stale-tmp sweep.

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "apss_chaos_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

EngineOptions cached_options(const std::string& dir) {
  EngineOptions opt;
  opt.backend = SimulationBackend::kBitParallel;
  opt.threads = 1;
  opt.artifact_cache_dir = dir;
  return opt;
}

TEST_F(ChaosArtifact, TransientReadFaultIsRetriedThenSucceeds) {
  util::Rng rng(51);
  const auto data = test::random_dataset(rng, 14, 16);
  const std::string dir = fresh_dir("read_retry");
  {  // populate the cache
    ApKnnEngine warm(data, cached_options(dir));
    ASSERT_EQ(warm.backend_stats().artifact.misses, 1u);
  }
  // Two transient read failures, then success: the load retries through
  // them and still serves the HIT.
  util::FaultInjector::Plan plan;
  plan.fail_on_hit = 1;
  plan.fail_count = 2;
  util::FaultInjector::instance().arm(util::kFaultArtifactRead, plan);
  ApKnnEngine engine(data, cached_options(dir));
  util::FaultInjector::instance().disarm_all();
  const ArtifactCacheStats& st = engine.backend_stats().artifact;
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.io_retries, 2u);
  EXPECT_EQ(st.quarantined, 0u);
}

TEST_F(ChaosArtifact, PersistentReadFaultDegradesToRecompile) {
  util::Rng rng(52);
  const auto data = test::random_dataset(rng, 14, 16);
  const std::string dir = fresh_dir("read_fail");
  { ApKnnEngine warm(data, cached_options(dir)); }
  util::FaultInjector::Plan plan;  // every read fails
  util::FaultInjector::instance().arm(util::kFaultArtifactRead, plan);
  ApKnnEngine engine(data, cached_options(dir));
  util::FaultInjector::instance().disarm_all();
  const ArtifactCacheStats& st = engine.backend_stats().artifact;
  // The retry budget is exhausted, the slot counts as invalidated, and the
  // engine compiled fresh — the cache never fails construction.
  EXPECT_EQ(st.hits, 0u);
  EXPECT_EQ(st.invalidations, 1u);
  EXPECT_EQ(st.io_retries, 3u);
  EXPECT_EQ(st.quarantined, 0u);  // transient I/O is not corruption
  EXPECT_EQ(engine.bit_parallel_configurations(), 1u);
}

TEST_F(ChaosArtifact, PersistentWriteFaultIsBestEffort) {
  util::Rng rng(53);
  const auto data = test::random_dataset(rng, 14, 16);
  const std::string dir = fresh_dir("write_fail");
  util::FaultInjector::Plan plan;  // every write fails
  util::FaultInjector::instance().arm(util::kFaultArtifactWrite, plan);
  ApKnnEngine engine(data, cached_options(dir));
  util::FaultInjector::instance().disarm_all();
  const ArtifactCacheStats& st = engine.backend_stats().artifact;
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.io_retries, 3u);
  EXPECT_FALSE(std::filesystem::exists(engine.artifact_cache_file(0)));
  // Nothing was stored, but the engine works (compile-every-time).
  EXPECT_EQ(engine.bit_parallel_configurations(), 1u);
}

TEST_F(ChaosArtifact, CorruptSlotIsQuarantinedNotDeleted) {
  util::Rng rng(54);
  const auto data = test::random_dataset(rng, 14, 16);
  const std::string dir = fresh_dir("quarantine");
  std::string slot;
  {
    ApKnnEngine warm(data, cached_options(dir));
    slot = warm.artifact_cache_file(0);
  }
  {  // damage the bytes (bad magic from offset 0)
    std::ofstream out(slot, std::ios::binary | std::ios::trunc);
    out << "damaged beyond recognition";
  }
  ApKnnEngine engine(data, cached_options(dir));
  const ArtifactCacheStats& st = engine.backend_stats().artifact;
  EXPECT_EQ(st.invalidations, 1u);
  EXPECT_EQ(st.quarantined, 1u);
  // The damaged bytes moved aside for a post-mortem; the recompile
  // overwrote the slot, so the NEXT engine hits again.
  EXPECT_TRUE(std::filesystem::exists(slot + ".quarantined"));
  ApKnnEngine again(data, cached_options(dir));
  EXPECT_EQ(again.backend_stats().artifact.hits, 1u);
}

TEST_F(ChaosArtifact, StaleTmpFilesAreSweptOnOpen) {
  util::Rng rng(55);
  const auto data = test::random_dataset(rng, 14, 16);
  const std::string dir = fresh_dir("tmp_sweep");
  // A crash between write and rename leaks temp files; quarantined slots
  // must survive the sweep.
  const std::string stale1 = dir + "/apss-knn-engine.config0000.apss-art.tmp.7";
  const std::string stale2 = dir + "/apss-knn-engine.config0001.apss-art.tmp.2";
  const std::string keep = dir + "/old.apss-art.quarantined";
  for (const std::string& path : {stale1, stale2, keep}) {
    std::ofstream(path) << "leftover";
  }
  ApKnnEngine engine(data, cached_options(dir));
  EXPECT_EQ(engine.backend_stats().artifact.stale_tmp_swept, 2u);
  EXPECT_FALSE(std::filesystem::exists(stale1));
  EXPECT_FALSE(std::filesystem::exists(stale2));
  EXPECT_TRUE(std::filesystem::exists(keep));
}

// ---------------------------------------------------------------------------
// FaultInjector semantics the whole suite leans on.

TEST_F(ChaosControl, InjectorHitWindowAndKeyMatching) {
  auto& inj = util::FaultInjector::instance();
  EXPECT_FALSE(util::FaultInjector::armed());
  util::FaultInjector::check("nothing.armed");  // no-throw when unarmed

  util::FaultInjector::Plan plan;
  plan.fail_on_hit = 2;
  plan.fail_count = 2;
  plan.match_key = 7;
  inj.arm("site.a", plan);
  EXPECT_TRUE(util::FaultInjector::armed());
  util::FaultInjector::check("site.a", 3);      // wrong key: not even a hit
  util::FaultInjector::check("site.b", 7);      // wrong site
  util::FaultInjector::check("site.a", 7);      // hit 1: before the window
  EXPECT_THROW(util::FaultInjector::check("site.a", 7), util::InjectedFault);
  EXPECT_THROW(util::FaultInjector::check("site.a", 7), util::InjectedFault);
  util::FaultInjector::check("site.a", 7);      // hit 4: window exhausted
  EXPECT_EQ(inj.hits("site.a"), 4u);
  inj.disarm_all();
  EXPECT_FALSE(util::FaultInjector::armed());
}

TEST_F(ChaosControl, InjectorStallDelaysWithoutFailing) {
  auto& inj = util::FaultInjector::instance();
  util::FaultInjector::Plan plan;
  plan.fail = false;
  plan.fail_on_hit = 0;  // every hit
  plan.stall_ms = 30;
  inj.arm("site.slow", plan);
  const auto start = std::chrono::steady_clock::now();
  util::FaultInjector::check("site.slow");
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(elapsed_ms, 25.0);
  inj.disarm_all();
}

}  // namespace
}  // namespace apss::core
