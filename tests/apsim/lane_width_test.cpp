// Width-sweep differential matrix for the wide-lane batch backend: every
// execution width (64 / 256 / 512, SIMD and forced-portable alike) must
// produce BIT-IDENTICAL ReportEvent streams — same cycles, element ids,
// report codes, within-cycle order — as the cycle-accurate reference on
// every compiled family (hamming, packed, multiplexed), on encoded query
// frames, adversarial random streams and counter-saturating fills, at
// ragged lane counts straddling every word boundary. Also pins the
// resolve_lane_kernels dispatch contract and the exact-multiple tail-mask
// behaviour (lanes % 64 == 0 must yield a full, not empty, tail mask).
// The frame-bounded run rides the same matrix: on well-formed frames it
// must emit exactly the per-frame prefix of the reference stream up to
// the k-th report's cycle, at every width, whatever non-control symbols
// fill the frame; and the count_rows kernel behind it must equal a
// scalar per-lane popcount.

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "apsim/batch_simulator.hpp"
#include "apsim/lane_word.hpp"
#include "apsim/simulator.hpp"
#include "apss_test_support.hpp"
#include "core/batch_compile.hpp"
#include "core/design.hpp"
#include "core/engine.hpp"
#include "core/opt/stream_multiplexing.hpp"
#include "core/opt/vector_packing.hpp"
#include "core/stream.hpp"
#include "knn/dataset.hpp"
#include "util/rng.hpp"

namespace apss::apsim {
namespace {

constexpr LaneWidth kWidths[] = {LaneWidth::k64, LaneWidth::k256,
                                 LaneWidth::k512};

/// Scoped APSS_DISABLE_SIMD=1: forces resolve_lane_kernels onto the
/// portable LaneWord paths for simulators constructed inside the scope.
/// Set/restored between constructions only — never concurrently with them.
class ForcePortable {
 public:
  ForcePortable() { setenv("APSS_DISABLE_SIMD", "1", 1); }
  ~ForcePortable() { unsetenv("APSS_DISABLE_SIMD"); }
};

struct Config {
  anml::AutomataNetwork network;
  std::vector<core::MacroLayout> layouts;
  core::StreamSpec spec;

  std::vector<PackedGroupSlots> slots() const {
    std::vector<PackedGroupSlots> s;
    s.reserve(layouts.size());
    for (const core::MacroLayout& l : layouts) {
      s.push_back(core::packed_batch_slots(l));
    }
    return s;
  }
};

Config build_config(const knn::BinaryDataset& data,
                    const core::HammingMacroOptions& opt = {}) {
  Config c;
  for (std::size_t i = 0; i < data.size(); ++i) {
    c.layouts.push_back(core::append_hamming_macro(
        c.network, data.vector(i), static_cast<std::uint32_t>(i), opt));
  }
  c.spec = core::StreamSpec{data.dims(),
                            core::collector_levels_for(data.dims(), opt)};
  return c;
}

std::shared_ptr<const BatchProgram> compile_or_die(const Config& c) {
  std::string reason;
  const auto slots = c.slots();
  auto program = BatchProgram::try_compile(c.network, slots, {}, &reason);
  if (program == nullptr) {
    throw std::runtime_error("try_compile declined: " + reason);
  }
  return program;
}

/// Runs `program` over `stream` at every width, SIMD-if-available AND
/// forced-portable, and asserts each run equals `expected` (the reference
/// simulator's events).
void expect_all_widths(std::shared_ptr<const BatchProgram> program,
                       std::span<const std::uint8_t> stream,
                       const std::vector<ReportEvent>& expected,
                       const std::string& context) {
  for (const LaneWidth w : kWidths) {
    BatchSimulator batch(program, w);
    ASSERT_EQ(batch.lane_width(), w) << context;
    ASSERT_EQ(batch.run(stream), expected)
        << context << " width=" << to_string(w) << " isa=" << batch.lane_isa();
  }
  ForcePortable portable;
  for (const LaneWidth w : kWidths) {
    BatchSimulator batch(program, w);
    ASSERT_FALSE(batch.lane_simd()) << context;
    ASSERT_EQ(batch.run(stream), expected)
        << context << " portable width=" << to_string(w);
  }
}

void expect_all_widths(const Config& c, std::span<const std::uint8_t> stream,
                       const std::string& context) {
  Simulator reference(c.network);
  expect_all_widths(compile_or_die(c), stream, reference.run(stream), context);
}

/// A keep that falls on the first event of the first frame's largest
/// same-cycle tie group, so the bounded run must carry the rest of the
/// group past keep.
std::size_t tie_heavy_keep(const std::vector<ReportEvent>& full,
                           std::size_t frame) {
  std::size_t best_start = 0;
  std::size_t best_len = 0;
  for (std::size_t i = 0; i < full.size() && full[i].cycle <= frame;) {
    std::size_t j = i;
    while (j < full.size() && full[j].cycle == full[i].cycle) {
      ++j;
    }
    if (j - i > best_len) {
      best_len = j - i;
      best_start = i;
    }
    i = j;
  }
  return best_start + 1;
}

/// The frame-bounded run at every width, SIMD and forced-portable, against
/// the per-frame prefix of `full` — the reference events of the
/// well-formed `frame`-cycle frames in `stream` — for k = 1, a tie-heavy k
/// and k >= lanes, where it must equal run() exactly. Emitted plus skipped
/// reports must add up to the full count, and cycle() must end at the
/// stream length.
void expect_bounded_all_widths(std::shared_ptr<const BatchProgram> program,
                               std::span<const std::uint8_t> stream,
                               std::size_t frame,
                               const std::vector<ReportEvent>& full,
                               const std::string& context) {
  const std::size_t lanes = program->macro_count();
  const std::size_t keeps[] = {1, tie_heavy_keep(full, frame), lanes,
                               lanes + 7};
  const auto check = [&](BatchSimulator& batch, const std::string& ctx) {
    test::expect_frame_bounded(batch, stream, frame, full, keeps, ctx);
    // The same simulator then runs whole frames unaffected.
    ASSERT_EQ(batch.run(stream), full) << ctx;
    ASSERT_EQ(batch.cycles_skipped(), 0u) << ctx;
  };
  for (const LaneWidth w : kWidths) {
    BatchSimulator batch(program, w);
    check(batch, context + " bounded width=" + to_string(w));
  }
  ForcePortable portable;
  for (const LaneWidth w : kWidths) {
    BatchSimulator batch(program, w);
    check(batch, context + " bounded portable width=" + to_string(w));
  }
}

// --- Ragged lane counts across every word boundary --------------------------

TEST(LaneWidthSweep, RaggedLaneCountsEncodedQueries) {
  // 63/64/65 straddle the 64-bit word boundary, 255/256/257 the 256-bit
  // block boundary (and 256 is half a 512-bit block) — the tail-masking /
  // padding edge cases for every width.
  util::Rng rng(2024);
  const std::size_t lane_grid[] = {63, 64, 65, 255, 256, 257};
  for (const std::size_t n : lane_grid) {
    const std::size_t dims = 1 + rng.below(24);
    const auto data = test::random_dataset(rng, n, dims);
    const Config c = build_config(data);
    const core::SymbolStreamEncoder enc(c.spec);
    const auto queries = test::random_dataset(rng, 2, dims);
    const auto stream = enc.encode_batch(queries);
    const std::string context =
        "n=" + std::to_string(n) + " d=" + std::to_string(dims);
    Simulator reference(c.network);
    const auto expected = reference.run(stream);
    const auto program = compile_or_die(c);
    expect_all_widths(program, stream, expected, context);
    expect_bounded_all_widths(program, stream, c.spec.cycles_per_query(),
                              expected, context);
  }
}

TEST(LaneWidthSweep, ExactMultipleLaneCountsReportTheLastLane) {
  // Regression guard for the valid-tail computation: at lanes % 64 == 0 the
  // tail mask must be ALL ones (a naive (1 << (lanes % 64)) - 1 would yield
  // zero and silently kill the last word's lanes). Querying the dataset's
  // final vector exactly must therefore report its lane at every width.
  util::Rng rng(4096);
  for (const std::size_t n : {64u, 256u, 512u}) {
    const std::size_t dims = 8;
    const auto data = test::random_dataset(rng, n, dims);
    const Config c = build_config(data);
    const auto program = compile_or_die(c);
    const core::SymbolStreamEncoder enc(c.spec);
    const auto stream = enc.encode_query(data.vector(n - 1));

    Simulator reference(c.network);
    const auto expected = reference.run(stream);
    // The distance-0 self-match must actually fire — an all-zero tail mask
    // would make this run (and the broken batch run) empty-equal.
    bool last_lane_reported = false;
    for (const ReportEvent& e : expected) {
      if (e.element == c.layouts[n - 1].report) {
        last_lane_reported = true;
      }
    }
    ASSERT_TRUE(last_lane_reported) << "n=" << n;
    expect_all_widths(program, stream, expected, "n=" + std::to_string(n));
    expect_bounded_all_widths(program, stream, c.spec.cycles_per_query(),
                              expected, "n=" + std::to_string(n));
  }
}

// --- Adversarial streams -----------------------------------------------------

TEST(LaneWidthSweep, AdversarialRandomStreams) {
  util::Rng rng(31337);
  const std::uint8_t palette[] = {
      core::Alphabet::kSof,  core::Alphabet::kEof, core::Alphabet::kFill,
      core::Alphabet::data_bit(false), core::Alphabet::data_bit(true),
      0x7f, 0x00, 0xff};
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t dims = 1 + rng.below(20);
    const std::size_t n = 1 + rng.below(140);
    const Config c = build_config(test::random_dataset(rng, n, dims));
    std::vector<std::uint8_t> stream(8 + rng.below(6 * dims + 60));
    for (auto& s : stream) {
      s = palette[rng.below(std::size(palette))];
    }
    expect_all_widths(c, stream, "trial " + std::to_string(trial));
  }
}

TEST(LaneWidthSweep, CounterSaturationLongFill) {
  // Fill far past the counter bit-plane range so the packed counters
  // saturate; the overflow pinning and EOF bias reload must behave
  // identically at every width, including after a fresh frame.
  util::Rng rng(99);
  const std::size_t dims = 6;
  const auto data = test::random_dataset(rng, 70, dims);
  const Config c = build_config(data);
  std::vector<std::uint8_t> stream;
  stream.push_back(core::Alphabet::kSof);
  for (std::size_t i = 0; i < dims; ++i) {
    stream.push_back(core::Alphabet::data_bit(rng.bernoulli(0.5)));
  }
  stream.insert(stream.end(), 500, core::Alphabet::kFill);
  stream.push_back(core::Alphabet::kEof);
  const core::SymbolStreamEncoder enc(c.spec);
  const auto tail = enc.encode_query(test::random_bitvector(rng, dims));
  stream.insert(stream.end(), tail.begin(), tail.end());
  expect_all_widths(c, stream, "saturation");
}

// --- The packed and multiplexed families -------------------------------------

TEST(LaneWidthSweep, PackedFamilyRunsAtEveryWidth) {
  util::Rng rng(808);
  for (const std::size_t n : {65u, 130u, 257u}) {
    const auto data = test::random_dataset(rng, n, 12);
    core::VectorPackingOptions opt;
    opt.group_size = 5;
    anml::AutomataNetwork network;
    const auto layouts = core::build_packed_network(network, data, opt);
    std::vector<PackedGroupSlots> slots;
    slots.reserve(layouts.size());
    for (const core::PackedGroupLayout& l : layouts) {
      slots.push_back(core::packed_batch_slots(l));
    }
    std::string reason;
    const auto program =
        BatchProgram::try_compile(network, slots, {}, &reason);
    ASSERT_NE(program, nullptr) << reason;
    ASSERT_EQ(program->family(), MacroFamily::kPacked);

    const core::StreamSpec spec{data.dims(),
                                layouts.front().collector_levels};
    const core::SymbolStreamEncoder enc(spec);
    const auto stream = enc.encode_batch(test::random_dataset(rng, 3, 12));
    Simulator reference(network);
    const auto expected = reference.run(stream);
    expect_all_widths(program, stream, expected,
                      "packed n=" + std::to_string(n));
    expect_bounded_all_widths(program, stream, spec.cycles_per_query(),
                              expected, "packed n=" + std::to_string(n));
  }
}

TEST(LaneWidthSweep, MultiplexedFamilyRunsAtEveryWidth) {
  util::Rng rng(606);
  const std::size_t dims = 10;
  const std::size_t slices = 7;
  const auto data = test::random_dataset(rng, 67, dims);
  anml::AutomataNetwork network;
  const auto layouts =
      core::build_multiplexed_network(network, data, slices, {});
  std::vector<PackedGroupSlots> slots;
  slots.reserve(layouts.size());
  for (const core::MacroLayout& l : layouts) {
    slots.push_back(core::packed_batch_slots(l));
  }
  std::string reason;
  const auto program = BatchProgram::try_compile(network, slots, {}, &reason);
  ASSERT_NE(program, nullptr) << reason;
  ASSERT_EQ(program->family(), MacroFamily::kMultiplexed);

  const core::StreamSpec spec{dims, core::collector_levels_for(dims, {})};
  const core::MultiplexedStreamEncoder enc(spec);
  std::size_t frames = 0;
  const auto stream =
      enc.encode_batch(test::random_dataset(rng, 9, dims), frames);
  ASSERT_GE(frames, 2u);
  Simulator reference(network);
  const auto expected = reference.run(stream);
  expect_all_widths(program, stream, expected, "multiplexed");
  expect_bounded_all_widths(program, stream, spec.cycles_per_query(),
                            expected, "multiplexed");

  // The same dataset as a multi-configuration multiplexed engine: at every
  // width (SIMD and forced-portable) and at 1 and 4 threads the shards,
  // demux and merge must reproduce the cycle-accurate engine's lists and
  // merged stream, and the device accounting must be the projected one.
  const auto queries = test::random_dataset(rng, 9, dims);
  core::EngineOptions opt;
  opt.slices = slices;
  opt.max_vectors_per_config = 20;  // 4 configurations
  opt.queries_per_chunk = 1;
  opt.collect_report_stream = true;
  opt.threads = 1;
  core::ApKnnEngine cycle(data, opt);
  const auto want = cycle.search(queries, 5);
  const core::EngineStats& want_stats = cycle.last_stats();
  ASSERT_EQ(want_stats.configurations, 4u);
  const core::EngineStats model = cycle.project(queries.size());
  core::EngineStats device = want_stats;  // minus what only search() fills
  device.report_events = 0;
  device.shard_status.clear();
  EXPECT_EQ(device, model);
  EXPECT_EQ(want_stats.report_events, data.size() * slices * 2);
  test::expect_valid_knn_results(data, queries, 5, want, "mux engine");
  opt.backend = core::SimulationBackend::kBitParallel;
  const auto check_engines = [&](const std::string& context) {
    for (const LaneWidth w : kWidths) {
      for (const std::size_t threads : {1, 4}) {
        const std::string ctx = context + " width=" + to_string(w) +
                                " threads=" + std::to_string(threads);
        opt.lane_width = w;
        opt.threads = threads;
        core::ApKnnEngine bit(data, opt);
        ASSERT_EQ(bit.backend_stats().multiplexed, 4u) << ctx;
        EXPECT_EQ(bit.search(queries, 5), want) << ctx;
        EXPECT_EQ(bit.last_report_stream(), cycle.last_report_stream())
            << ctx;
        EXPECT_TRUE(bit.last_stats().same_work(want_stats)) << ctx;
        EXPECT_EQ(bit.last_stats().simulated_cycles, model.simulated_cycles)
            << ctx;
      }
    }
  };
  check_engines("mux engine");
  ForcePortable portable;
  check_engines("mux engine portable");
}

// --- Cross-width property fuzz -----------------------------------------------

TEST(LaneWidthSweep, CrossWidthPropertyFuzz) {
  // Randomized (dims, lanes, stream) sweeps: every width — SIMD and
  // portable — must agree with the reference AND with each other. The seed
  // is in every failure message, so a counterexample replays exactly.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    util::Rng rng(seed * 0x9e3779b97f4a7c15ull);
    const std::size_t dims = 1 + rng.below(32);
    const std::size_t n = 1 + rng.below(300);
    const Config c = build_config(test::random_dataset(rng, n, dims));
    const core::SymbolStreamEncoder enc(c.spec);
    std::vector<std::uint8_t> stream =
        enc.encode_batch(test::random_dataset(rng, 1 + rng.below(3), dims));
    {
      Simulator reference(c.network);
      expect_bounded_all_widths(compile_or_die(c), stream,
                                c.spec.cycles_per_query(),
                                reference.run(stream),
                                "fuzz seed=" + std::to_string(seed));
    }
    // Splice in raw-symbol noise so control/edge symbols hit mid-frame.
    const std::uint8_t palette[] = {core::Alphabet::kSof, core::Alphabet::kEof,
                                    core::Alphabet::kFill, 0x00, 0xff};
    for (int i = 0; i < 16 && !stream.empty(); ++i) {
      stream[rng.below(stream.size())] = palette[rng.below(std::size(palette))];
    }
    Simulator reference(c.network);
    const auto expected = reference.run(stream);
    const auto program = compile_or_die(c);
    expect_all_widths(program, stream, expected,
                      "fuzz seed=" + std::to_string(seed) +
                          " n=" + std::to_string(n) +
                          " d=" + std::to_string(dims));
  }
}

TEST(LaneWidthSweep, BoundedRunRejectsMalformedFrames) {
  // The prefix contract rests on every frame ending in the reset() state,
  // which only a SOF ... EOF encoder frame guarantees.
  util::Rng rng(515);
  const std::size_t dims = 9;
  const Config c = build_config(test::random_dataset(rng, 20, dims));
  const auto program = compile_or_die(c);
  const std::size_t frame = c.spec.cycles_per_query();
  const core::SymbolStreamEncoder enc(c.spec);
  const auto good = enc.encode_batch(test::random_dataset(rng, 2, dims));
  for (const LaneWidth w : kWidths) {
    BatchSimulator batch(program, w);
    EXPECT_NO_THROW(batch.run_frames(good, frame, 3));
    auto no_sof = good;
    no_sof[frame] = core::Alphabet::kFill;
    EXPECT_THROW(batch.run_frames(no_sof, frame, 3), std::invalid_argument);
    auto no_eof = good;
    no_eof[frame - 1] = core::Alphabet::kFill;
    EXPECT_THROW(batch.run_frames(no_eof, frame, 3), std::invalid_argument);
    const std::span<const std::uint8_t> ragged(good.data(), good.size() - 1);
    EXPECT_THROW(batch.run_frames(ragged, frame, 3), std::invalid_argument);
    EXPECT_THROW(batch.run_frames(good, frame + 1, 3), std::invalid_argument);
    EXPECT_THROW(batch.run_frames(good, 0, 3), std::invalid_argument);
    EXPECT_THROW(batch.run_frames(good, frame, 0), std::invalid_argument);
    // The closed form also needs the frame length the timing algebra
    // fixes, and no control symbol inside a frame.
    auto inner_sof = good;
    inner_sof[frame + 1 + dims] = core::Alphabet::kSof;
    EXPECT_THROW(batch.run_frames(inner_sof, frame, 3), std::invalid_argument);
    auto inner_eof = good;
    inner_eof[2] = core::Alphabet::kEof;
    EXPECT_THROW(batch.run_frames(inner_eof, frame, 3), std::invalid_argument);
    EXPECT_THROW(batch.run_frames(good, 2 * frame, 3), std::invalid_argument);
    auto longer = std::vector<std::uint8_t>(good.begin(),
                                            good.begin() + frame - 1);
    longer.push_back(core::Alphabet::kFill);
    longer.push_back(core::Alphabet::kEof);
    EXPECT_THROW(batch.run_frames(longer, frame + 1, 3),
                 std::invalid_argument);
  }
}

TEST(LaneWidthSweep, BoundedRunOnArbitraryInteriorSymbols) {
  // Any symbol but SOF and EOF may fill a frame's data and FILL slots: the
  // closed form must still emit the reference's per-frame prefix, on every
  // family, at every width, SIMD and portable. Data slots then carry
  // multi-slice payloads and symbols no class accepts, and FILL slots
  // carry data symbols. d = 500 gives the plain, tree and multiplexed
  // shapes two collector levels.
  util::Rng rng(1717);
  const auto noisy_frames = [&](std::size_t frames, std::size_t frame) {
    std::vector<std::uint8_t> stream;
    for (std::size_t f = 0; f < frames; ++f) {
      stream.push_back(core::Alphabet::kSof);
      for (std::size_t i = 2; i < frame; ++i) {
        std::uint8_t s = core::Alphabet::kSof;
        while (s == core::Alphabet::kSof || s == core::Alphabet::kEof) {
          s = static_cast<std::uint8_t>(rng.below(256));
        }
        stream.push_back(s);
      }
      stream.push_back(core::Alphabet::kEof);
    }
    return stream;
  };
  const auto check = [&](const anml::AutomataNetwork& network,
                         std::shared_ptr<const BatchProgram> program,
                         const core::StreamSpec& spec,
                         const std::string& context) {
    ASSERT_NE(program, nullptr) << context;
    ASSERT_EQ(program->collector_levels(), spec.collector_levels) << context;
    const std::size_t frame = spec.cycles_per_query();
    const auto stream = noisy_frames(3, frame);
    Simulator reference(network);
    const auto full = reference.run(stream);
    ASSERT_EQ(full.size(), 3 * program->macro_count()) << context;
    const std::size_t keeps[] = {1, 2, program->macro_count(),
                                 std::numeric_limits<std::size_t>::max()};
    for (const bool portable : {false, true}) {
      std::optional<ForcePortable> force;
      if (portable) {
        force.emplace();
      }
      for (const LaneWidth w : kWidths) {
        BatchSimulator batch(program, w);
        test::expect_frame_bounded(
            batch, stream, frame, full, keeps,
            context + (portable ? " portable" : "") + " width=" +
                to_string(w));
      }
    }
  };
  for (const std::size_t dims : {1u, 9u, 16u, 17u, 128u, 500u}) {
    const std::string d = " d=" + std::to_string(dims);
    {
      const Config c = build_config(test::random_dataset(rng, 70, dims));
      check(c.network, compile_or_die(c), c.spec, "plain" + d);
    }
    for (const auto style :
         {core::CollectorStyle::kFlat, core::CollectorStyle::kTree}) {
      core::VectorPackingOptions opt;
      opt.group_size = 4;
      opt.style = style;
      anml::AutomataNetwork network;
      const auto layouts = core::build_packed_network(
          network, test::random_dataset(rng, 67, dims), opt);
      std::vector<PackedGroupSlots> slots;
      for (const core::PackedGroupLayout& l : layouts) {
        slots.push_back(core::packed_batch_slots(l));
      }
      const core::StreamSpec spec{dims, layouts.front().collector_levels};
      check(network, BatchProgram::try_compile(network, slots, {}), spec,
            std::string(style == core::CollectorStyle::kFlat ? "flat"
                                                              : "tree") +
                d);
    }
    {
      anml::AutomataNetwork network;
      const auto layouts = core::build_multiplexed_network(
          network, test::random_dataset(rng, 11, dims), 7, {});
      std::vector<PackedGroupSlots> slots;
      for (const core::MacroLayout& l : layouts) {
        slots.push_back(core::packed_batch_slots(l));
      }
      const core::StreamSpec spec{dims, core::collector_levels_for(dims, {})};
      check(network, BatchProgram::try_compile(network, slots, {}), spec,
            "multiplexed" + d);
    }
  }
}

// --- The bit-sliced row count ------------------------------------------------

TEST(LaneKernelCountRows, MatchesPerLanePopcountAtEveryWidth) {
  // count_rows against a scalar per-lane popcount, for 0..300 rows (whole
  // carry-save groups of eight plus every tail length) at lane counts that
  // straddle word and block boundaries. Pad lanes must count zero, and
  // every plane count_row_planes promises must be written.
  util::Rng rng(4242);
  constexpr std::size_t kRows = 300;
  for (const std::size_t lanes : {1u, 63u, 65u, 300u, 577u}) {
    const std::size_t words =
        (lanes + 64 * kLaneBlockWords - 1) / (64 * kLaneBlockWords) *
        kLaneBlockWords;
    std::vector<std::vector<std::uint64_t>> table(kRows);
    for (auto& row : table) {
      row.assign(words, 0);
      const double density = rng.below(5) / 4.0;  // 0, .25, .5, .75, 1
      for (std::size_t l = 0; l < lanes; ++l) {
        if (rng.bernoulli(density)) {
          row[l / 64] |= std::uint64_t{1} << (l % 64);
        }
      }
    }
    std::vector<const std::uint64_t*> rows;
    for (std::size_t r = 0; r < kRows; ++r) {
      // Repeat some rows: the kernel must count a pointer each time.
      rows.push_back(table[rng.below(4) == 0 && r > 0 ? rng.below(r) : r]
                         .data());
    }
    std::vector<LaneKernels> kernels;
    for (const LaneWidth w : kWidths) {
      kernels.push_back(resolve_lane_kernels(w));
    }
    {
      ForcePortable portable;
      for (const LaneWidth w : kWidths) {
        kernels.push_back(resolve_lane_kernels(w));
      }
    }
    std::vector<std::size_t> expected(words * 64, 0);
    for (std::size_t n = 0; n <= kRows; ++n) {
      if (n > 0) {
        for (std::size_t l = 0; l < lanes; ++l) {
          expected[l] += (rows[n - 1][l / 64] >> (l % 64)) & 1;
        }
      }
      const std::size_t plane_count = count_row_planes(n);
      for (const LaneKernels& k : kernels) {
        std::vector<std::uint64_t> planes(plane_count * words,
                                          0xa5a5a5a5a5a5a5a5ull);
        k.count_rows(rows.data(), n, words, planes.data());
        for (std::size_t l = 0; l < words * 64; ++l) {
          std::size_t count = 0;
          for (std::size_t q = 0; q < plane_count; ++q) {
            count |= ((planes[q * words + l / 64] >> (l % 64)) & 1) << q;
          }
          ASSERT_EQ(count, expected[l])
              << "lanes=" << lanes << " rows=" << n << " lane=" << l
              << " width=" << to_string(k.width) << " isa=" << k.isa;
        }
      }
    }
  }
}

// --- Dispatch contract -------------------------------------------------------

TEST(LaneKernelDispatch, ExplicitWidthsAreAlwaysHonored) {
  for (const LaneWidth w : kWidths) {
    const LaneKernels k = resolve_lane_kernels(w);
    EXPECT_EQ(k.width, w);
    EXPECT_EQ(k.width_bits() % 64, 0u);
    EXPECT_EQ(k.width_bits() / 64, k.block_words());
    EXPECT_LE(k.block_words(), kLaneBlockWords);
    EXPECT_NE(k.or_rows, nullptr);
    EXPECT_NE(k.counter_update, nullptr);
    EXPECT_NE(k.count_rows, nullptr);
  }
}

TEST(LaneKernelDispatch, AutoNeverReturnsAuto) {
  const LaneKernels k = resolve_lane_kernels(LaneWidth::kAuto);
  EXPECT_NE(k.width, LaneWidth::kAuto);
  EXPECT_NE(k.or_rows, nullptr);
  EXPECT_NE(k.counter_update, nullptr);
  EXPECT_NE(k.count_rows, nullptr);
}

TEST(LaneKernelDispatch, DisableSimdEnvForcesPortable) {
  ForcePortable portable;
  EXPECT_TRUE(lane_simd_disabled_by_env());
  for (const LaneWidth w : kWidths) {
    const LaneKernels k = resolve_lane_kernels(w);
    EXPECT_EQ(k.width, w);
    EXPECT_FALSE(k.simd);
    EXPECT_TRUE(std::string(k.isa) == "scalar" ||
                std::string(k.isa) == "portable")
        << k.isa;
  }
  // kAuto without SIMD degrades to the classic scalar path.
  const LaneKernels k = resolve_lane_kernels(LaneWidth::kAuto);
  EXPECT_EQ(k.width, LaneWidth::k64);
  EXPECT_STREQ(k.isa, "scalar");
}

TEST(LaneKernelDispatch, SimdVariantsMatchCpuSupport) {
  // An explicit width resolves to its SIMD variant exactly when the build
  // compiled it in AND this CPU supports it; otherwise the portable
  // fallback of the SAME width serves it.
  const LaneKernels k256 = resolve_lane_kernels(LaneWidth::k256);
  const bool avx2_available =
      cpu_supports_avx2() && detail::avx2_lane_kernels() != nullptr;
  EXPECT_EQ(k256.simd, avx2_available);
  EXPECT_STREQ(k256.isa, avx2_available ? "avx2" : "portable");

  const LaneKernels k512 = resolve_lane_kernels(LaneWidth::k512);
  const bool avx512_available =
      cpu_supports_avx512() && detail::avx512_lane_kernels() != nullptr;
  EXPECT_EQ(k512.simd, avx512_available);
  EXPECT_STREQ(k512.isa, avx512_available ? "avx512" : "portable");
}

TEST(LaneKernelDispatch, ParseAndPrintRoundTrip) {
  for (const char* text : {"auto", "64", "256", "512"}) {
    LaneWidth w = LaneWidth::k64;
    ASSERT_TRUE(parse_lane_width(text, &w)) << text;
    EXPECT_STREQ(to_string(w), text);
  }
  LaneWidth w = LaneWidth::kAuto;
  EXPECT_FALSE(parse_lane_width("128", &w));
  EXPECT_FALSE(parse_lane_width("", &w));
  EXPECT_FALSE(parse_lane_width("avx2", &w));
}

TEST(LaneKernelDispatch, SimulatorExposesResolvedWidth) {
  util::Rng rng(11);
  const Config c = build_config(test::random_dataset(rng, 5, 8));
  const auto program = compile_or_die(c);
  for (const LaneWidth w : kWidths) {
    BatchSimulator batch(program, w);
    EXPECT_EQ(batch.lane_width(), w);
    EXPECT_NE(std::string(batch.lane_isa()), "");
  }
  BatchSimulator preset(program);  // default = kAuto, resolved at once
  EXPECT_NE(preset.lane_width(), LaneWidth::kAuto);
}

}  // namespace
}  // namespace apss::apsim
