// Oracle tests for direct lowering: core::lower_configuration must equal,
// byte for byte, the state the structural recognizer compiles from the
// network the macro builders produce for the same dataset range and layout
// — plain macros, flat and tree packed groups, and multiplexed macros,
// under default and non-default collector fan-ins — and ApKnnEngine must
// construct every bit-parallel configuration that way.

#include "core/lowering.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "apss_test_support.hpp"
#include "core/engine.hpp"
#include "core/opt/stream_multiplexing.hpp"
#include "knn/dataset.hpp"
#include "util/rng.hpp"

namespace apss::core {
namespace {

using apsim::BatchProgramState;

/// Datasets that move the class order and the value-state counts: random,
/// sparse (dimensions a whole group leaves at 0), all zeros, all ones, and
/// a uniform first vector ahead of random ones.
std::vector<knn::BinaryDataset> datasets(util::Rng& rng, std::size_t n,
                                         std::size_t dims) {
  std::vector<knn::BinaryDataset> out;
  out.push_back(test::random_dataset(rng, n, dims));
  out.push_back(test::random_dataset(rng, n, dims, 0.05));
  out.emplace_back(n, dims);
  knn::BinaryDataset ones(n, dims);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t i = 0; i < dims; ++i) {
      ones.set(v, i, true);
    }
  }
  out.push_back(ones);
  knn::BinaryDataset first_uniform = test::random_dataset(rng, n, dims);
  for (std::size_t i = 0; i < dims; ++i) {
    first_uniform.set(0, i, true);
  }
  out.push_back(first_uniform);
  return out;
}

/// Lowers `range` and compiles the builders' network for it; expects the
/// two states equal, field by field for readable failures, then whole.
/// Returns the collector depth.
std::size_t expect_exact(const knn::BinaryDataset& data, DatasetRange range,
                         const ConfigurationLayout& layout,
                         const std::string& what) {
  const ConfigurationNetwork config = build_configuration(data, range, layout);
  std::string reason;
  const auto program = compile_configuration(config, {}, &reason);
  if (program == nullptr) {
    ADD_FAILURE() << what << ": recognizer declined: " << reason;
    return 0;
  }
  const BatchProgramState compiled = program->state();
  const BatchProgramState lowered = lower_configuration(data, range, layout);
  EXPECT_EQ(lowered.family, compiled.family) << what;
  EXPECT_EQ(lowered.lanes, compiled.lanes) << what;
  EXPECT_EQ(lowered.levels, compiled.levels) << what;
  EXPECT_EQ(lowered.class_count, compiled.class_count) << what;
  EXPECT_EQ(lowered.sym_classes, compiled.sym_classes) << what;
  EXPECT_EQ(lowered.dim_rows, compiled.dim_rows) << what;
  EXPECT_EQ(lowered.report_code, compiled.report_code) << what;
  EXPECT_EQ(lowered.report_elem, compiled.report_elem) << what;
  EXPECT_TRUE(lowered == compiled) << what;
  return compiled.levels;
}

std::string label(const char* shape, std::size_t dims, std::size_t kind,
                  DatasetRange range) {
  return std::string(shape) + " d=" + std::to_string(dims) +
         " data=" + std::to_string(kind) + " range=" +
         std::to_string(range.begin) + "+" + std::to_string(range.count);
}

TEST(Lowering, PlainMacrosMatchTheRecognizer) {
  util::Rng rng(19001);
  for (const std::size_t dims : {1u, 9u, 63u, 64u, 65u, 128u, 130u}) {
    const auto sets = datasets(rng, 70, dims);
    for (std::size_t kind = 0; kind < sets.size(); ++kind) {
      for (const DatasetRange range : {DatasetRange{0, 70},
                                       DatasetRange{13, 50}}) {
        for (const std::size_t slice : {0u, 3u}) {
          ConfigurationLayout layout;
          layout.macro.bit_slice = slice;
          expect_exact(sets[kind], range, layout,
                       label("plain", dims, kind, range) +
                           " slice=" + std::to_string(slice));
        }
      }
    }
  }
}

TEST(Lowering, PackedGroupsMatchTheRecognizer) {
  util::Rng rng(19002);
  for (const std::size_t dims : {1u, 40u, 65u}) {
    // 37 vectors: every g > 1 leaves a partial last group.
    const auto sets = datasets(rng, 37, dims);
    for (const CollectorStyle style :
         {CollectorStyle::kFlat, CollectorStyle::kTree}) {
      for (const std::size_t group : {1u, 2u, 4u, 8u}) {
        for (std::size_t kind = 0; kind < sets.size(); ++kind) {
          ConfigurationLayout layout;
          layout.packing_group_size = group;
          layout.packing_style = style;
          const DatasetRange range{0, 37};
          expect_exact(sets[kind], range, layout,
                       label("packed", dims, kind, range) +
                           " g=" + std::to_string(group) + " style=" +
                           std::to_string(static_cast<int>(style)));
        }
      }
    }
  }
}

TEST(Lowering, MultiplexedMacrosMatchTheRecognizer) {
  util::Rng rng(19003);
  for (const std::size_t dims : {1u, 33u, 65u}) {
    // 11 vectors: 22..77 lanes, a partial last lane word at every slice
    // count.
    const auto sets = datasets(rng, 11, dims);
    for (std::size_t slices = 2; slices <= kMaxSlices; ++slices) {
      for (std::size_t kind = 0; kind < sets.size(); ++kind) {
        ConfigurationLayout layout;
        layout.slices = slices;
        const DatasetRange range{0, 11};
        expect_exact(sets[kind], range, layout,
                     label("multiplexed", dims, kind, range) +
                         " slices=" + std::to_string(slices));
      }
    }
  }
}

TEST(Lowering, NonDefaultCollectorTreesMatchTheRecognizer) {
  util::Rng rng(19004);
  std::set<std::size_t> depths;
  for (const auto [fan_in, max_fan_in] :
       {std::pair<std::size_t, std::size_t>{2, 2}, {3, 5}, {4, 4}, {8, 8}}) {
    for (const std::size_t dims : {9u, 65u, 130u}) {
      const knn::BinaryDataset data = test::random_dataset(rng, 20, dims);
      ConfigurationLayout layout;
      layout.macro.collector_fan_in = fan_in;
      layout.macro.max_counter_fan_in = max_fan_in;
      const std::string what = " fan_in=" + std::to_string(fan_in) + "/" +
                               std::to_string(max_fan_in);
      const DatasetRange range{0, 20};
      depths.insert(expect_exact(data, range, layout,
                                 label("plain", dims, 0, range) + what));
      layout.slices = 3;
      expect_exact(data, range, layout,
                   label("multiplexed", dims, 0, range) + what);
      layout.slices = 1;
      layout.packing_group_size = 4;
      expect_exact(data, range, layout,
                   label("packed-tree", dims, 0, range) + what);
    }
  }
  EXPECT_TRUE(depths.count(2) == 1 && depths.count(3) == 1)
      << "the sweep must cover 2-level and 3-level trees";
}

TEST(Lowering, PartialLastPartitionMatchesTheRecognizer) {
  util::Rng rng(19005);
  const knn::BinaryDataset data = test::random_dataset(rng, 100, 65);
  for (int shape = 0; shape < 3; ++shape) {
    ConfigurationLayout layout;
    layout.packing_group_size = shape == 1 ? 8 : 0;
    layout.slices = shape == 2 ? 5 : 1;
    for (const DatasetRange range : {DatasetRange{0, 64},
                                     DatasetRange{64, 36}}) {
      expect_exact(data, range, layout,
                   label("shape", 65, static_cast<std::size_t>(shape), range));
    }
  }
}

TEST(Lowering, RejectsBadRangesAndLayouts) {
  util::Rng rng(19006);
  const knn::BinaryDataset data = test::random_dataset(rng, 10, 8);
  const ConfigurationLayout plain;
  EXPECT_THROW(lower_configuration(data, {0, 0}, plain), std::invalid_argument);
  EXPECT_THROW(lower_configuration(data, {5, 6}, plain), std::invalid_argument);
  ConfigurationLayout bad = plain;
  bad.slices = 8;
  EXPECT_THROW(lower_configuration(data, {0, 10}, bad), std::invalid_argument);
  bad.slices = 2;
  bad.packing_group_size = 4;
  EXPECT_THROW(lower_configuration(data, {0, 10}, bad), std::invalid_argument);
  bad = plain;
  bad.macro.collector_fan_in = 1;
  EXPECT_THROW(lower_configuration(data, {0, 10}, bad), std::invalid_argument);
}

/// Engine options for one of the three layouts over several configurations.
EngineOptions engine_options(int shape, std::size_t threads) {
  EngineOptions opt;
  opt.backend = SimulationBackend::kBitParallel;
  opt.max_vectors_per_config = 40;
  opt.packing_group_size = shape == 1 ? 4 : 0;
  opt.slices = shape == 2 ? 3 : 1;
  opt.threads = threads;
  return opt;
}

TEST(Lowering, EngineLowersEveryConfigurationAtAnyThreadCount) {
  util::Rng rng(19007);
  const knn::BinaryDataset data = test::random_dataset(rng, 110, 33);
  for (int shape = 0; shape < 3; ++shape) {
    const EngineOptions opt = engine_options(shape, 1);
    const ApKnnEngine serial(data, opt);
    const ApKnnEngine threaded(data, engine_options(shape, 4));
    ASSERT_EQ(serial.configurations(), 3u);
    EXPECT_EQ(serial.backend_stats().lowered, serial.configurations());
    EXPECT_EQ(serial.backend_stats().bit_parallel, serial.configurations());
    EXPECT_EQ(serial.backend_stats(), threaded.backend_stats());
    ConfigurationLayout layout;
    layout.macro = opt.macro;
    layout.packing_group_size = opt.packing_group_size;
    layout.packing_style = opt.packing_style;
    layout.slices = opt.slices;
    for (std::size_t c = 0; c < serial.configurations(); ++c) {
      ASSERT_NE(serial.program(c), nullptr);
      ASSERT_NE(threaded.program(c), nullptr);
      const std::size_t begin = c * serial.capacity_per_config();
      const DatasetRange range{
          begin, std::min(serial.capacity_per_config(), data.size() - begin)};
      const std::string what =
          "shape=" + std::to_string(shape) + " config=" + std::to_string(c);
      EXPECT_EQ(serial.program(c)->state(), threaded.program(c)->state())
          << what;
      expect_exact(data, range, layout, what);
      EXPECT_EQ(serial.program(c)->state(),
                lower_configuration(data, range, layout))
          << what;
    }
  }
}

TEST(Lowering, WarmCacheHitsLowerNothing) {
  util::Rng rng(19008);
  const knn::BinaryDataset data = test::random_dataset(rng, 90, 24);
  const std::string cache =
      (std::filesystem::temp_directory_path() / "apss_lowering_test_cache")
          .string();
  std::filesystem::remove_all(cache);
  EngineOptions opt = engine_options(0, 1);
  opt.artifact_cache_dir = cache;
  const ApKnnEngine cold(data, opt);
  EXPECT_EQ(cold.backend_stats().artifact.misses, cold.configurations());
  EXPECT_EQ(cold.backend_stats().lowered, cold.configurations());
  const ApKnnEngine warm(data, opt);
  EXPECT_EQ(warm.backend_stats().artifact.hits, warm.configurations());
  EXPECT_EQ(warm.backend_stats().bit_parallel, warm.configurations());
  EXPECT_EQ(warm.backend_stats().lowered, 0u);
  for (std::size_t c = 0; c < cold.configurations(); ++c) {
    EXPECT_EQ(warm.program(c)->state(), cold.program(c)->state()) << c;
  }
  std::filesystem::remove_all(cache);
}

TEST(Lowering, DeclinedFeaturesFallBackWithTheRecognizersReason) {
  util::Rng rng(19009);
  const knn::BinaryDataset data = test::random_dataset(rng, 50, 16);
  EngineOptions opt = engine_options(0, 1);
  opt.device = apsim::DeviceConfig::opt_ext();
  const ApKnnEngine engine(data, opt);
  const BackendCompileStats& bs = engine.backend_stats();
  EXPECT_EQ(bs.bit_parallel, 0u);
  EXPECT_EQ(bs.lowered, 0u);
  EXPECT_EQ(bs.fallback, engine.configurations());

  // The reason is the one try_compile gives for the built network.
  std::string reason;
  const ConfigurationNetwork config =
      build_configuration(data, {0, opt.max_vectors_per_config}, {});
  EXPECT_EQ(compile_configuration(
                config, apsim::SimOptions::from(opt.device.features), &reason),
            nullptr);
  ASSERT_EQ(bs.fallback_reasons.size(), 1u);
  EXPECT_EQ(bs.fallback_reasons[0].first, reason);
  EXPECT_EQ(bs.fallback_reasons[0].second, engine.configurations());
}

}  // namespace
}  // namespace apss::core
