// Differential tests of BatchSimulator::run_frames' sink form
// (docs/SIMULATOR_SEMANTICS.md, "Frame-bounded execution"): the per-query
// neighbour lists it writes must equal core::TemporalSortDecoder's decode
// of the event form's stream AND of the cycle-accurate apsim::Simulator's
// stream. Covered: plain programs, vector-packed programs (flat and tree
// collectors, g = 1/2/4/8) and multiplexed programs (2-7 slices, with a
// partial last frame), at k = 1, at a k whose cut falls inside a distance
// tie, and at k = n-1, n and > n, at every lane width. The sink form must
// also emit as many reports, and skip as many cycles and reports, as the
// event form.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "apsim/batch_simulator.hpp"
#include "apsim/simulator.hpp"
#include "apss_test_support.hpp"
#include "core/batch_compile.hpp"
#include "core/opt/stream_multiplexing.hpp"
#include "core/opt/vector_packing.hpp"
#include "core/stream.hpp"
#include "core/temporal_decode.hpp"
#include "knn/dataset.hpp"
#include "util/rng.hpp"

namespace apss::apsim {
namespace {

using Lists = std::vector<std::vector<knn::Neighbor>>;

/// One compiled configuration with its query stream.
struct Shape {
  std::string name;
  anml::AutomataNetwork network;
  std::shared_ptr<const BatchProgram> program;
  core::StreamSpec spec;
  std::size_t slices = 1;
  std::size_t vectors = 0;
  std::size_t queries = 0;
  std::vector<std::uint8_t> stream;
};

template <typename Layout>
void compile_or_fail(Shape& s, const std::vector<Layout>& layouts) {
  std::string reason;
  s.program = core::compile_batch(s.network, layouts, {}, &reason);
  ASSERT_NE(s.program, nullptr) << s.name << ": " << reason;
}

Shape plain_shape(const knn::BinaryDataset& data,
                  const knn::BinaryDataset& queries) {
  Shape s;
  s.name = "plain";
  std::vector<core::MacroLayout> layouts;
  for (std::size_t v = 0; v < data.size(); ++v) {
    layouts.push_back(core::append_hamming_macro(
        s.network, data.vector(v), static_cast<std::uint32_t>(v)));
  }
  compile_or_fail(s, layouts);
  s.spec = core::StreamSpec{data.dims(), layouts.front().collector_levels};
  s.vectors = data.size();
  s.queries = queries.size();
  s.stream = core::SymbolStreamEncoder(s.spec).encode_batch(queries);
  return s;
}

Shape packed_shape(const knn::BinaryDataset& data,
                   const knn::BinaryDataset& queries, std::size_t group,
                   core::CollectorStyle style) {
  Shape s;
  s.name = std::string("packed g=") + std::to_string(group) +
           (style == core::CollectorStyle::kFlat ? " flat" : " tree");
  core::VectorPackingOptions opt;
  opt.group_size = group;
  opt.style = style;
  opt.macro.collector_fan_in = 4;  // a multi-level tree at small dims
  const auto layouts = core::build_packed_network(s.network, data, opt);
  compile_or_fail(s, layouts);
  s.spec = core::StreamSpec{data.dims(), layouts.front().collector_levels};
  s.vectors = data.size();
  s.queries = queries.size();
  s.stream = core::SymbolStreamEncoder(s.spec).encode_batch(queries);
  return s;
}

Shape mux_shape(const knn::BinaryDataset& data,
                const knn::BinaryDataset& queries, std::size_t slices) {
  Shape s;
  s.name = "mux slices=" + std::to_string(slices);
  s.slices = slices;
  const auto layouts =
      core::build_multiplexed_network(s.network, data, slices);
  compile_or_fail(s, layouts);
  s.spec = core::StreamSpec{data.dims(), layouts.front().collector_levels};
  s.vectors = data.size();
  s.queries = queries.size();
  const core::MultiplexedStreamEncoder encoder(s.spec);
  for (std::size_t b = 0; b < queries.size(); b += slices) {
    encoder.append_group(queries, b, std::min(slices, queries.size() - b),
                         s.stream);
  }
  return s;
}

/// The smallest k >= 2 whose cut splits a distance tie in some query's
/// full list: its k-th and (k+1)-th neighbours are equally distant.
std::size_t tie_k(const Lists& full) {
  std::size_t best = 0;
  for (const auto& list : full) {
    for (std::size_t i = 1; i + 1 < list.size(); ++i) {
      if (list[i].distance == list[i + 1].distance &&
          (best == 0 || i + 1 < best)) {
        best = i + 1;
        break;
      }
    }
  }
  return best;
}

/// Sink tables as the engine builds them: a multiplexed report code names
/// (vector, slice); any other is the vector id.
struct SinkTables {
  std::vector<std::uint32_t> id;
  std::vector<std::uint8_t> slot;

  explicit SinkTables(const Shape& s) {
    const auto codes = s.program->report_codes();
    id.assign(codes.begin(), codes.end());
    if (s.slices > 1) {
      slot.resize(codes.size());
      for (std::size_t l = 0; l < codes.size(); ++l) {
        id[l] = core::MuxReportCode::vector_id(codes[l]);
        slot[l] =
            static_cast<std::uint8_t>(core::MuxReportCode::slice(codes[l]));
      }
    }
  }
};

void expect_sink_matches_decoder(const Shape& s) {
  Simulator reference(s.network);
  const auto full = reference.run(s.stream);
  const core::TemporalSortDecoder decoder(s.spec, s.queries, s.slices);
  const std::size_t tie = tie_k(decoder.decode(full));
  ASSERT_GT(tie, 0u) << s.name << ": no distance tie to cut inside";
  const SinkTables tables(s);
  const std::size_t n = s.vectors;
  const std::size_t frame = s.spec.cycles_per_query();
  for (const LaneWidth width : {LaneWidth::k64, LaneWidth::k256,
                                LaneWidth::k512, LaneWidth::kAuto}) {
    BatchSimulator batch(s.program, width);
    for (const std::size_t k : {std::size_t{1}, tie, n - 1, n, n + 3}) {
      const std::string ctx = s.name + " width=" + to_string(width) +
                              " k=" + std::to_string(k);
      // The engine runs multiplexed frames whole: one frame's k-th report
      // does not decide each slice's top-k.
      const std::size_t keep =
          s.slices > 1 ? std::numeric_limits<std::size_t>::max() : k;
      const auto events = batch.run_frames(s.stream, frame, keep);
      const std::uint64_t cycles_skipped = batch.cycles_skipped();
      const std::uint64_t reports_skipped = batch.reports_skipped();

      // Stale contents must be overwritten, not appended to.
      Lists lists(s.queries, std::vector<knn::Neighbor>(2, {7, 7}));
      const NeighborSink sink{tables.id, tables.slot, s.slices, k, lists};
      const std::uint64_t emitted =
          batch.run_frames(s.stream, frame, keep, sink);
      EXPECT_EQ(lists, decoder.decode(events, k)) << ctx;
      EXPECT_EQ(lists, decoder.decode(full, k)) << ctx;
      EXPECT_EQ(emitted, events.size()) << ctx;
      EXPECT_EQ(batch.cycles_skipped(), cycles_skipped) << ctx;
      EXPECT_EQ(batch.reports_skipped(), reports_skipped) << ctx;
      EXPECT_TRUE(batch.reports().empty()) << ctx;
      EXPECT_EQ(batch.cycle(), s.stream.size()) << ctx;
    }
  }
}

TEST(FrameSink, PlainMatchesDecoderAndReference) {
  util::Rng rng(1801);
  for (const std::size_t dims : {9, 16, 70}) {
    const auto data = test::random_dataset(rng, 75, dims);
    const auto queries = test::random_dataset(rng, 5, dims);
    const Shape s = plain_shape(data, queries);
    expect_sink_matches_decoder(s);
  }
}

TEST(FrameSink, PackedMatchesDecoderAndReference) {
  util::Rng rng(1802);
  const auto data = test::random_dataset(rng, 37, 12);
  const auto queries = test::random_dataset(rng, 4, 12);
  for (const std::size_t group : {1, 2, 4, 8}) {
    for (const core::CollectorStyle style :
         {core::CollectorStyle::kFlat, core::CollectorStyle::kTree}) {
      const Shape s = packed_shape(data, queries, group, style);
      expect_sink_matches_decoder(s);
    }
  }
}

TEST(FrameSink, MultiplexedMatchesDecoderAndReference) {
  util::Rng rng(1803);
  const auto data = test::random_dataset(rng, 23, 10);
  // 11 queries leave the last frame partial at every slice count 2..7
  // except 11's divisors (none in range).
  const auto queries = test::random_dataset(rng, 11, 10);
  for (std::size_t slices = 2; slices <= core::kMaxSlices; ++slices) {
    const Shape s = mux_shape(data, queries, slices);
    expect_sink_matches_decoder(s);
  }
}

TEST(FrameSink, RejectsMalformedSinks) {
  util::Rng rng(1804);
  const auto data = test::random_dataset(rng, 6, 8);
  const auto queries = test::random_dataset(rng, 2, 8);
  const Shape s = plain_shape(data, queries);
  BatchSimulator batch(s.program);
  const std::size_t frame = s.spec.cycles_per_query();
  const SinkTables tables(s);
  Lists lists(queries.size());
  const NeighborSink good{tables.id, {}, 1, 3, lists};
  EXPECT_NO_THROW(batch.run_frames(s.stream, frame, 3, good));

  NeighborSink short_ids = good;
  short_ids.lane_id = short_ids.lane_id.first(5);
  EXPECT_THROW(batch.run_frames(s.stream, frame, 3, short_ids),
               std::invalid_argument);
  NeighborSink no_limit = good;
  no_limit.limit = 0;
  EXPECT_THROW(batch.run_frames(s.stream, frame, 3, no_limit),
               std::invalid_argument);
  NeighborSink no_slots = good;
  no_slots.slots = 0;
  EXPECT_THROW(batch.run_frames(s.stream, frame, 3, no_slots),
               std::invalid_argument);
  const std::vector<std::uint8_t> slot(6, 2);  // slot 2 of 2 slots
  NeighborSink bad_slot = good;
  bad_slot.slots = 2;
  bad_slot.lane_slot = slot;
  EXPECT_THROW(batch.run_frames(s.stream, frame, 3, bad_slot),
               std::invalid_argument);
  // The event form's checks hold too.
  EXPECT_THROW(batch.run_frames(s.stream, frame + 1, 3, good),
               std::invalid_argument);
  EXPECT_THROW(batch.run_frames(s.stream, frame, 0, good),
               std::invalid_argument);
}

}  // namespace
}  // namespace apss::apsim
