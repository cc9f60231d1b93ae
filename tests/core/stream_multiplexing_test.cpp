#include "core/opt/stream_multiplexing.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "apsim/placement.hpp"
#include "core/engine.hpp"
#include "apss_test_support.hpp"
#include "util/rng.hpp"

namespace apss::core {
namespace {

TEST(MuxReportCode, RoundTrips) {
  const std::uint32_t code = MuxReportCode::encode(1234, 6);
  EXPECT_EQ(MuxReportCode::vector_id(code), 1234u);
  EXPECT_EQ(MuxReportCode::slice(code), 6u);
}

TEST(MultiplexedStreamEncoder, PacksSevenQueriesIntoOneFrame) {
  const StreamSpec spec{8, 1};
  const MultiplexedStreamEncoder enc(spec);
  knn::BinaryDataset queries(7, 8);
  // Query s has bit pattern: dim i set iff i == s.
  for (std::size_t s = 0; s < 7; ++s) {
    queries.set(s, s, true);
  }
  const auto frame = enc.encode_group(queries, 0, 7);
  ASSERT_EQ(frame.size(), spec.cycles_per_query());
  EXPECT_EQ(frame[0], Alphabet::kSof);
  // Data symbol for dim i carries bit s=i set (query i has dim i set).
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(frame[1 + i], Alphabet::data(1u << i)) << i;
  }
  EXPECT_EQ(frame[8], Alphabet::data(0));  // dim 7: no query has it set
  EXPECT_FALSE(Alphabet::is_control(frame[1]));
}

TEST(MultiplexedStreamEncoder, RejectsBadGroups) {
  const MultiplexedStreamEncoder enc(StreamSpec{8, 1});
  const auto queries = knn::BinaryDataset::uniform(10, 8, 1);
  EXPECT_THROW(enc.encode_group(queries, 0, 0), std::invalid_argument);
  EXPECT_THROW(enc.encode_group(queries, 0, 8), std::invalid_argument);
  EXPECT_THROW(enc.encode_group(queries, 8, 3), std::invalid_argument);
}

TEST(MultiplexedNetwork, ReplicatesMacrosPerSlice) {
  const auto data = knn::BinaryDataset::uniform(3, 8, 2);
  anml::AutomataNetwork net;
  const auto layouts = build_multiplexed_network(net, data, 7);
  EXPECT_EQ(layouts.size(), 21u);
  EXPECT_TRUE(net.validate().empty());
  // 7x the states of a single-slice network, as the paper notes the
  // current generation lacks capacity for.
  anml::AutomataNetwork single;
  build_multiplexed_network(single, data, 1);
  EXPECT_EQ(net.stats().ste_count, 7 * single.stats().ste_count);
}

/// The Sec. VI-B layout of the one engine: `slices` queries per frame.
EngineOptions mux_options(std::size_t slices,
                          SimulationBackend backend =
                              SimulationBackend::kCycleAccurate) {
  EngineOptions opt;
  opt.slices = slices;
  opt.backend = backend;
  return opt;
}

TEST(MultiplexedLayout, MatchesCpuExactForSevenParallelQueries) {
  util::Rng rng(600);
  const auto data = knn::BinaryDataset::uniform(24, 16, rng.next());
  const auto queries = knn::BinaryDataset::uniform(7, 16, rng.next());
  ApKnnEngine mux(data, mux_options(7));
  const auto results = mux.search(queries, 5);
  test::expect_valid_knn_results(data, queries, 5, results);
}

TEST(MultiplexedLayout, HandlesPartialLastGroup) {
  const auto data = knn::BinaryDataset::uniform(12, 12, 601);
  const auto queries = knn::BinaryDataset::uniform(10, 12, 602);  // 7 + 3
  ApKnnEngine mux(data, mux_options(7));
  const auto results = mux.search(queries, 3);
  ASSERT_EQ(results.size(), 10u);
  test::expect_valid_knn_results(data, queries, 3, results);
}

TEST(MultiplexedLayout, SevenfoldThroughputInFrames) {
  const auto data = knn::BinaryDataset::uniform(4, 16, 603);
  const ApKnnEngine mux(data, mux_options(7));
  EXPECT_EQ(mux.frames_for(4096), 586u);  // ceil(4096/7)
  EXPECT_EQ(mux.frames_for(7), 1u);
  EXPECT_EQ(mux.frames_for(8), 2u);
  const EngineStats model = mux.project(4096);
  EXPECT_EQ(model.simulated_cycles,
            586u * model.cycles_per_query * model.configurations);
}

TEST(MultiplexedLayout, DeviceAccountingCountsEverySliceLane) {
  // Every (vector, slice) lane reports once per frame — including the
  // unused slices of the partial last frame — and the report bandwidth
  // model carries capacity * slices reports per frame.
  const auto data = knn::BinaryDataset::uniform(10, 16, 606);
  const auto queries = knn::BinaryDataset::uniform(9, 16, 607);  // 2 frames
  EngineOptions plain_opt = mux_options(1, SimulationBackend::kBitParallel);
  plain_opt.max_vectors_per_config = data.size();  // equal board capacity
  EngineOptions mux_opt = plain_opt;
  mux_opt.slices = 7;
  ApKnnEngine plain(data, plain_opt);
  ApKnnEngine mux(data, mux_opt);
  EXPECT_EQ(mux.backend_stats().multiplexed, mux.configurations());
  EXPECT_EQ(plain.backend_stats().multiplexed, 0u);
  mux.search(queries, 3);
  const EngineStats& stats = mux.last_stats();
  EXPECT_EQ(stats.simulated_cycles, mux.project(9).simulated_cycles);
  EXPECT_EQ(stats.simulated_cycles, 2 * stats.cycles_per_query);
  EXPECT_EQ(stats.report_events, data.size() * 7 * 2);
  EXPECT_EQ(stats.host_cycles_skipped, 0u);  // multiplexed frames run whole
  const double per_frame = mux.report_bandwidth_gbps() *
                           static_cast<double>(stats.cycles_per_query);
  const double plain_frame = plain.report_bandwidth_gbps() *
                             static_cast<double>(stats.cycles_per_query);
  EXPECT_DOUBLE_EQ(per_frame / plain_frame,
                   (10.0 * 7 + 16) / (10.0 + 16));
}

TEST(MultiplexedLayout, PartitionsByBoardCapacity) {
  // A multiplexed vector costs `slices` macros, so a board that holds the
  // whole plain dataset splits the multiplexed one across configurations.
  apsim::DeviceGeometry board;
  board.ranks = 1;
  board.chips_per_rank = 1;
  board.half_cores_per_chip = 1;
  board.blocks_per_half_core = 4;
  const auto data = knn::BinaryDataset::uniform(6, 16, 609);
  const auto queries = knn::BinaryDataset::uniform(9, 16, 610);
  EngineOptions plain_opt;
  plain_opt.board = board;
  EngineOptions mux_opt = plain_opt;
  mux_opt.slices = 7;
  const ApKnnEngine plain(data, plain_opt);
  ApKnnEngine mux(data, mux_opt);
  EXPECT_EQ(plain.configurations(), 1u);
  EXPECT_GT(mux.configurations(), 1u);
  EXPECT_LE(mux.capacity_per_config() * 7, plain.capacity_per_config());
  test::expect_valid_knn_results(data, queries, 4, mux.search(queries, 4));
}

TEST(MultiplexedLayout, RejectsBadSliceCounts) {
  const auto data = knn::BinaryDataset::uniform(4, 16, 608);
  EXPECT_THROW(ApKnnEngine(data, mux_options(0)), std::invalid_argument);
  EXPECT_THROW(ApKnnEngine(data, mux_options(kMaxSlices + 1)),
               std::invalid_argument);
  EngineOptions packed = mux_options(2);
  packed.packing_group_size = 2;
  EXPECT_THROW(ApKnnEngine(data, packed), std::invalid_argument);
  packed.slices = 1;
  EXPECT_NO_THROW(ApKnnEngine(data, packed));
}

TEST(MultiplexedLayout, SliceMacrosUseTernaryBitMatches) {
  // Fig. 6: slice-s STEs must discriminate exactly bit s (plus the control
  // flag), i.e. the ternary pattern 0b*......s.
  const auto data = knn::BinaryDataset::uniform(1, 4, 604);
  anml::AutomataNetwork net;
  const auto layouts = build_multiplexed_network(net, data, 3);
  for (std::size_t s = 0; s < 3; ++s) {
    const MacroLayout& m = layouts[s];
    const anml::SymbolSet& sym = net.element(m.match[0]).symbols;
    const bool bit = data.get(0, 0);
    const auto expected = anml::SymbolSet::ternary(
        static_cast<std::uint8_t>(bit ? (1u << s) : 0),
        static_cast<std::uint8_t>(0x80u | (1u << s)));
    EXPECT_EQ(sym, expected) << "slice " << s;
  }
}

TEST(MultiplexedLayout, ResourceCostIsSevenfold) {
  // Sec. VI-B: "Replicating the base design 7x is infeasible since our
  // design already uses 41-91% of the board capacity." Verify the placement
  // model agrees: 7 slices of a 1024-vector 64-dim design overflow a rank.
  const ApKnnEngine tiny(knn::BinaryDataset::uniform(2, 8, 605),
                         mux_options(7));
  const auto r =
      apsim::place(tiny.network(0), apsim::DeviceGeometry::one_rank());
  EXPECT_TRUE(r.placed);

  // Scale check via footprints instead of building 7168 macros: a 64-dim
  // macro is ~141 STEs; 7 x 1024 x 141 x 1.15 > 393216 (one rank).
  apsim::MacroFootprint macro;
  macro.stes = 141;
  macro.counters = 1;
  macro.reporting = 1;
  const std::size_t capacity =
      apsim::max_copies(macro, apsim::DeviceGeometry::one_rank());
  EXPECT_LT(capacity, 7 * 1024u);
}

}  // namespace
}  // namespace apss::core
