// Configuration-shard scale-out differential tests: ApKnnEngine, in every
// layout (plain, packed, multiplexed), must produce bit-identical neighbor
// lists, EngineStats, AND merged ReportEvent streams at every thread
// count — the merge walks
// shards in configuration/frame order, never completion order, so thread
// scheduling can never show through. Frame-bounded shards (report stream
// not collected) must return the same lists and device accounting as
// whole frames. These run under TSan in CI (APSS_SANITIZE=thread) to also
// prove the sharding is race-free.

#include <gtest/gtest.h>

#include "apss_test_support.hpp"
#include "core/engine.hpp"
#include "util/thread_pool.hpp"

namespace apss::core {
namespace {

struct SearchRun {
  std::vector<std::vector<knn::Neighbor>> results;
  std::vector<apsim::ReportEvent> stream;
  EngineStats stats;
  BackendCompileStats compile;
  EngineStats model;  ///< project(queries) of the same engine
};

SearchRun run_engine(const knn::BinaryDataset& data,
               const knn::BinaryDataset& queries, std::size_t k,
               EngineOptions opt, std::size_t threads,
               bool collect_stream = true) {
  opt.threads = threads;
  opt.collect_report_stream = collect_stream;
  ApKnnEngine engine(data, opt);
  SearchRun r;
  r.results = engine.search(queries, k);
  r.stream = engine.last_report_stream();
  r.stats = engine.last_stats();
  r.compile = engine.backend_stats();
  r.model = engine.project(queries.size());
  return r;
}

/// The device fields of a healthy run are the analytic model's: only the
/// simulated report count, the host-only skip count and the shard
/// statuses are filled by search() alone.
void expect_projected(const SearchRun& run, const std::string& ctx) {
  EngineStats device = run.stats;
  device.report_events = 0;
  device.host_cycles_skipped = 0;
  device.shard_status.clear();
  EXPECT_EQ(device, run.model) << ctx;
}

void expect_thread_invariant(const knn::BinaryDataset& data,
                             const knn::BinaryDataset& queries, std::size_t k,
                             EngineOptions opt, const std::string& context) {
  const SearchRun reference = run_engine(data, queries, k, opt, 1);
  EXPECT_FALSE(reference.stream.empty()) << context;
  for (const std::size_t threads : {2, 8}) {
    const SearchRun run = run_engine(data, queries, k, opt, threads);
    const std::string ctx = context + " threads=" + std::to_string(threads);
    EXPECT_EQ(run.results, reference.results) << ctx;
    EXPECT_EQ(run.stream, reference.stream) << ctx;
    EXPECT_EQ(run.stats, reference.stats) << ctx;
    EXPECT_EQ(run.compile, reference.compile) << ctx;
  }
  test::expect_valid_knn_results(data, queries, k, reference.results, context);
}

TEST(EngineThreads, BitParallelStreamIdenticalAcrossThreadCounts) {
  const auto data = knn::BinaryDataset::uniform(41, 24, 601);
  const auto queries = knn::BinaryDataset::uniform(9, 24, 602);
  EngineOptions opt;
  opt.backend = SimulationBackend::kBitParallel;
  opt.max_vectors_per_config = 7;  // 6 configurations
  opt.queries_per_chunk = 2;       // many (config, frame) shards
  expect_thread_invariant(data, queries, 4, opt, "bit-parallel");
}

TEST(EngineThreads, LaneWidthSweepIdenticalAcrossThreadsAndWidths) {
  // Per layout, one reference run at 64-bit lanes, then every lane width at
  // 1/2/4/8 threads: neighbor lists, merged streams, and EngineStats must
  // all be bit-identical — the shard merge may never observe the SIMD
  // width — and equal the cycle-accurate engine's. The multiplexed layout
  // runs 9 queries as 2 frames (the last one partial) on 3 configurations.
  const auto data = knn::BinaryDataset::uniform(41, 24, 614);
  const auto queries = knn::BinaryDataset::uniform(9, 24, 615);
  EngineOptions plain;
  plain.backend = SimulationBackend::kBitParallel;
  plain.max_vectors_per_config = 7;  // 6 configurations
  plain.queries_per_chunk = 2;
  EngineOptions mux = plain;
  mux.slices = 7;
  mux.max_vectors_per_config = 14;  // 3 configurations
  mux.queries_per_chunk = 1;
  for (const auto& [name, base] : {std::pair{"plain", plain},
                                   std::pair{"multiplexed", mux}}) {
    EngineOptions opt = base;
    opt.lane_width = apsim::LaneWidth::k64;
    const SearchRun reference = run_engine(data, queries, 4, opt, 1);
    EXPECT_FALSE(reference.stream.empty()) << name;
    EXPECT_GE(reference.stats.configurations, 3u) << name;
    EngineOptions cycle = base;
    cycle.backend = SimulationBackend::kCycleAccurate;
    const SearchRun oracle = run_engine(data, queries, 4, cycle, 1);
    EXPECT_EQ(reference.results, oracle.results) << name;
    EXPECT_EQ(reference.stream, oracle.stream) << name;
    EXPECT_TRUE(reference.stats.same_work(oracle.stats)) << name;
    expect_projected(oracle, name);
    for (const apsim::LaneWidth w : {apsim::LaneWidth::k64,
                                     apsim::LaneWidth::k256,
                                     apsim::LaneWidth::k512}) {
      opt.lane_width = w;
      const SearchRun width_ref = run_engine(data, queries, 4, opt, 1);
      for (const std::size_t threads : {1, 2, 4, 8}) {
        const SearchRun run = run_engine(data, queries, 4, opt, threads);
        const std::string ctx = std::string(name) +
                                " width=" + apsim::to_string(w) +
                                " threads=" + std::to_string(threads);
        EXPECT_EQ(run.results, reference.results) << ctx;
        EXPECT_EQ(run.stream, reference.stream) << ctx;
        // Stats embed the resolved lane width/isa, so full equality only
        // holds within a width; across widths the device-work accounting
        // must still agree exactly.
        EXPECT_EQ(run.stats, width_ref.stats) << ctx;
        EXPECT_TRUE(run.stats.same_work(reference.stats)) << ctx;
        EXPECT_EQ(run.compile.lane_width_bits, static_cast<std::size_t>(w))
            << ctx;
        EXPECT_FALSE(run.compile.lane_isa.empty()) << ctx;
        expect_projected(run, ctx);
      }
    }
    test::expect_valid_knn_results(data, queries, 4, reference.results, name);
  }
}

TEST(EngineThreads, CycleAccurateStreamIdenticalAcrossThreadCounts) {
  const auto data = knn::BinaryDataset::uniform(23, 16, 603);
  const auto queries = knn::BinaryDataset::uniform(6, 16, 604);
  EngineOptions opt;
  opt.backend = SimulationBackend::kCycleAccurate;
  opt.max_vectors_per_config = 5;
  opt.queries_per_chunk = 2;
  expect_thread_invariant(data, queries, 3, opt, "cycle-accurate");
}

TEST(EngineThreads, PackedConfigurationsIdenticalAcrossThreadCounts) {
  const auto data = knn::BinaryDataset::uniform(26, 24, 605);
  const auto queries = knn::BinaryDataset::uniform(5, 24, 606);
  EngineOptions opt;
  opt.backend = SimulationBackend::kBitParallel;
  opt.packing_group_size = 4;
  opt.max_vectors_per_config = 9;
  opt.queries_per_chunk = 2;
  expect_thread_invariant(data, queries, 4, opt, "packed");
}

TEST(EngineThreads, FrameBoundedShardsMatchFullFrames) {
  // Collecting the report stream runs whole frames; without it each
  // bit-parallel frame stops after its k-th report's cycle. Neighbor lists
  // and device accounting must not tell the two apart at 1 or 4 threads,
  // and the host-only skip count must not depend on the thread count.
  EngineOptions plain;
  plain.backend = SimulationBackend::kBitParallel;
  plain.max_vectors_per_config = 7;  // 6 configurations
  plain.queries_per_chunk = 2;
  EngineOptions packed = plain;
  packed.packing_group_size = 4;
  const auto data = knn::BinaryDataset::uniform(41, 24, 616);
  const auto queries = knn::BinaryDataset::uniform(9, 24, 617);
  for (const auto& [name, opt] : {std::pair{"plain", plain},
                                  std::pair{"packed", packed}}) {
    for (const std::size_t k : {1, 4, 7}) {
      const std::string ctx =
          std::string(name) + " k=" + std::to_string(k);
      const SearchRun full = run_engine(data, queries, k, opt, 1);
      EXPECT_EQ(full.stats.host_cycles_skipped, 0u) << ctx;
      // Device count: every vector reports once per query.
      EXPECT_EQ(full.stats.report_events, data.size() * queries.size())
          << ctx;
      SearchRun first_cut;
      for (const std::size_t threads : {1, 4}) {
        const std::string tctx = ctx + " threads=" + std::to_string(threads);
        const SearchRun cut = run_engine(data, queries, k, opt, threads,
                                         /*collect_stream=*/false);
        EXPECT_TRUE(cut.stream.empty()) << tctx;
        EXPECT_EQ(cut.results, full.results) << tctx;
        EXPECT_TRUE(cut.stats.same_work(full.stats)) << tctx;
        EXPECT_GT(cut.stats.host_cycles_skipped, 0u) << tctx;
        if (threads == 1) {
          first_cut = cut;
        } else {
          EXPECT_EQ(cut.stats, first_cut.stats) << tctx;
        }
      }
      test::expect_valid_knn_results(data, queries, k, full.results, ctx);
    }
  }
}

TEST(EngineThreads, FallbackStatsIdenticalAcrossThreadCounts) {
  // Opt+Ext pushes every configuration off the fast path: the per-shard
  // decline reasons must reduce to the same ordered fallback_reasons no
  // matter which worker compiled which configuration.
  const auto data = knn::BinaryDataset::uniform(18, 16, 607);
  const auto queries = knn::BinaryDataset::uniform(4, 16, 608);
  EngineOptions opt;
  opt.backend = SimulationBackend::kBitParallel;
  opt.device = apsim::DeviceConfig::opt_ext();
  opt.max_vectors_per_config = 4;  // 5 configurations, all declining
  const SearchRun reference = run_engine(data, queries, 3, opt, 1);
  ASSERT_EQ(reference.compile.fallback, 5u);
  ASSERT_EQ(reference.compile.fallback_reasons.size(), 1u);
  for (const std::size_t threads : {2, 8}) {
    const SearchRun run = run_engine(data, queries, 3, opt, threads);
    EXPECT_EQ(run.compile, reference.compile) << "threads=" << threads;
    EXPECT_EQ(run.results, reference.results) << "threads=" << threads;
  }
}

TEST(EngineThreads, ExplicitPoolStillWins) {
  const auto data = knn::BinaryDataset::uniform(19, 16, 609);
  const auto queries = knn::BinaryDataset::uniform(5, 16, 610);
  util::ThreadPool pool(3);
  EngineOptions opt;
  opt.backend = SimulationBackend::kBitParallel;
  opt.pool = &pool;
  opt.threads = 1;  // ignored: an explicit pool takes precedence
  opt.max_vectors_per_config = 6;
  ApKnnEngine engine(data, opt);
  EXPECT_EQ(engine.simulation_threads(), 4u);
  const auto results = engine.search(queries, 3);
  test::expect_valid_knn_results(data, queries, 3, results);
}

TEST(EngineThreads, SerialEngineReportsOneThread) {
  const auto data = knn::BinaryDataset::uniform(8, 16, 611);
  EngineOptions opt;
  opt.threads = 1;
  ApKnnEngine engine(data, opt);
  EXPECT_EQ(engine.simulation_threads(), 1u);
}

TEST(EngineThreads, MultiplexedSearchIdenticalAcrossThreadCounts) {
  const auto data = knn::BinaryDataset::uniform(31, 16, 612);
  const auto queries = knn::BinaryDataset::uniform(26, 16, 613);  // 4 frames
  for (const auto backend : {SimulationBackend::kCycleAccurate,
                             SimulationBackend::kBitParallel}) {
    EngineOptions opt;
    opt.slices = 7;
    opt.backend = backend;
    const std::string ctx =
        backend == SimulationBackend::kBitParallel ? "bit" : "cycle";
    if (backend == SimulationBackend::kBitParallel) {
      ASSERT_EQ(ApKnnEngine(data, opt).backend_stats().multiplexed, 1u);
    }
    expect_thread_invariant(data, queries, 5, opt, "multiplexed " + ctx);
  }
}

}  // namespace
}  // namespace apss::core
