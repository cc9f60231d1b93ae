// Engine-level backend equivalence: search() under EngineOptions::backend =
// kBitParallel must return the same neighbor lists AND the same EngineStats
// as the cycle-accurate default, across single/multi-configuration splits,
// thread pools, and chunk sizes — and must fall back gracefully when the
// device features put the configuration outside the fast path's subset.

#include <gtest/gtest.h>

#include "apss_test_support.hpp"
#include "core/engine.hpp"
#include "util/thread_pool.hpp"

namespace apss::core {
namespace {

EngineOptions backend_options(SimulationBackend backend,
                              std::size_t vectors_per_config = 0) {
  EngineOptions opt;
  opt.backend = backend;
  opt.max_vectors_per_config = vectors_per_config;
  return opt;
}

void expect_same_search(const knn::BinaryDataset& data,
                        const knn::BinaryDataset& queries, std::size_t k,
                        EngineOptions cycle_opt, EngineOptions bit_opt,
                        const std::string& context) {
  cycle_opt.backend = SimulationBackend::kCycleAccurate;
  bit_opt.backend = SimulationBackend::kBitParallel;
  ApKnnEngine cycle(data, cycle_opt);
  ApKnnEngine bit(data, bit_opt);
  const auto expected = cycle.search(queries, k);
  const auto actual = bit.search(queries, k);
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (std::size_t q = 0; q < expected.size(); ++q) {
    EXPECT_EQ(actual[q], expected[q]) << context << " query " << q;
  }
  EXPECT_TRUE(bit.last_stats().same_work(cycle.last_stats())) << context;
  test::expect_valid_knn_results(data, queries, k, actual, context);
}

TEST(EngineBackend, BitParallelCompilesEveryConfiguration) {
  const auto data = knn::BinaryDataset::uniform(37, 16, 301);
  ApKnnEngine engine(data,
                     backend_options(SimulationBackend::kBitParallel, 8));
  EXPECT_EQ(engine.configurations(), 5u);
  EXPECT_EQ(engine.bit_parallel_configurations(), 5u);

  // Per-family counters: every configuration is a plain Hamming board.
  const BackendCompileStats& bs = engine.backend_stats();
  EXPECT_EQ(bs.configurations, 5u);
  EXPECT_EQ(bs.bit_parallel, 5u);
  EXPECT_EQ(bs.fallback, 0u);
  EXPECT_EQ(bs.hamming, 5u);
  EXPECT_EQ(bs.packed, 0u);
  EXPECT_EQ(bs.multiplexed, 0u);
  EXPECT_TRUE(bs.fallback_reasons.empty());
  EXPECT_EQ(engine.project(3).backend, bs);

  ApKnnEngine reference(data,
                        backend_options(SimulationBackend::kCycleAccurate, 8));
  EXPECT_EQ(reference.bit_parallel_configurations(), 0u);
  EXPECT_EQ(reference.backend_stats().configurations, 5u);
  EXPECT_EQ(reference.backend_stats().bit_parallel, 0u);
  EXPECT_EQ(reference.backend_stats().fallback, 0u);  // never attempted
}

TEST(EngineBackend, SearchMatchesAcrossConfigurationSplits) {
  util::Rng rng(302);
  for (const std::size_t cap : {0u, 1u, 7u, 16u}) {
    const auto data = test::random_dataset(rng, 26, 24);
    const auto queries = test::random_dataset(rng, 6, 24);
    expect_same_search(data, queries, 5, backend_options({}, cap),
                       backend_options({}, cap),
                       "cap=" + std::to_string(cap));
  }
}

TEST(EngineBackend, SearchMatchesWithThreadPoolAndChunking) {
  const auto data = knn::BinaryDataset::uniform(30, 32, 303);
  const auto queries = knn::BinaryDataset::uniform(11, 32, 304);
  util::ThreadPool pool(4);
  EngineOptions opt = backend_options({}, 9);
  opt.pool = &pool;
  opt.queries_per_chunk = 3;
  expect_same_search(data, queries, 4, opt, opt, "pooled");
}

TEST(EngineBackend, WideDimsUseDeeperCollectorTrees) {
  // 128-dim macros have a 1-level tree; shrink the fan-in caps to force a
  // deeper tree through the engine path as well.
  const auto data = knn::BinaryDataset::uniform(12, 96, 305);
  const auto queries = knn::BinaryDataset::uniform(4, 96, 306);
  EngineOptions opt = backend_options({}, 5);
  opt.macro.collector_fan_in = 4;
  opt.macro.max_counter_fan_in = 4;
  expect_same_search(data, queries, 3, opt, opt, "deep-tree");
}

TEST(EngineBackend, PackedConfigurationsCompileAndMatch) {
  // Vector-packed configurations (Sec. VI-A) take the fast path too: the
  // recognizer must accept every engine-built group and
  // search() must stay identical to the cycle-accurate reference.
  util::Rng rng(310);
  for (const auto style :
       {CollectorStyle::kFlat, CollectorStyle::kTree}) {
    const auto data = test::random_dataset(rng, 29, 24);
    const auto queries = test::random_dataset(rng, 6, 24);
    EngineOptions opt = backend_options({}, 10);
    opt.packing_group_size = 4;
    opt.packing_style = style;
    ApKnnEngine bit(data, [&] {
      EngineOptions o = opt;
      o.backend = SimulationBackend::kBitParallel;
      return o;
    }());
    EXPECT_EQ(bit.bit_parallel_configurations(), bit.configurations());
    EXPECT_EQ(bit.backend_stats().packed, bit.configurations());
    EXPECT_EQ(bit.backend_stats().hamming, 0u);
    expect_same_search(data, queries, 5, opt, opt,
                       style == CollectorStyle::kFlat ? "packed-flat"
                                                      : "packed-tree");
  }
}

TEST(EngineBackend, PackedFallsBackWhenDeviceFeaturesUnsupported) {
  const auto data = knn::BinaryDataset::uniform(18, 16, 309);
  const auto queries = knn::BinaryDataset::uniform(5, 16, 311);
  EngineOptions opt = backend_options(SimulationBackend::kBitParallel, 6);
  opt.packing_group_size = 3;
  opt.device = apsim::DeviceConfig::opt_ext();
  ApKnnEngine engine(data, opt);
  EXPECT_EQ(engine.bit_parallel_configurations(), 0u);
  const auto results = engine.search(queries, 4);
  test::expect_valid_knn_results(data, queries, 4, results);
}

TEST(EngineBackend, FallsBackWhenDeviceFeaturesUnsupported) {
  // Opt+Ext raises the counter-increment cap to 8: outside the bit-parallel
  // subset, so every configuration must fall back yet still answer exactly.
  const auto data = knn::BinaryDataset::uniform(18, 16, 307);
  const auto queries = knn::BinaryDataset::uniform(5, 16, 308);
  EngineOptions opt = backend_options(SimulationBackend::kBitParallel, 6);
  opt.device = apsim::DeviceConfig::opt_ext();
  ApKnnEngine engine(data, opt);
  EXPECT_EQ(engine.bit_parallel_configurations(), 0u);
  const auto results = engine.search(queries, 4);
  test::expect_valid_knn_results(data, queries, 4, results);

  // No silent fallback: every declined configuration carries its reason,
  // aggregated per distinct reason, and search() embeds them in the stats.
  const BackendCompileStats& bs = engine.backend_stats();
  EXPECT_EQ(bs.configurations, 3u);
  EXPECT_EQ(bs.bit_parallel, 0u);
  EXPECT_EQ(bs.fallback, 3u);
  ASSERT_EQ(bs.fallback_reasons.size(), 1u);
  EXPECT_EQ(bs.fallback_reasons[0].second, 3u);
  EXPECT_NE(bs.fallback_reasons[0].first.find("max_counter_increment"),
            std::string::npos)
      << bs.fallback_reasons[0].first;
  EXPECT_EQ(engine.last_stats().backend, bs);
}

}  // namespace
}  // namespace apss::core
