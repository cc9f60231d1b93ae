// Pins the structural recognizer's output: for a fixed-seed sweep of
// plain, multiplexed and vector-packed configurations (built directly and
// through ApKnnEngine), the FNV-1a digest of every compiled program's
// state() must equal a recorded value. Any change to class interning
// order, lane-mask row layout, report tables or family fails here, even
// when the differential suites still pass — and would silently invalidate
// every artifact cache written before it. The digests were recorded when
// plain and multiplexed macros still had a recognizer of their own, so they
// also pin that compiling them as one-lane groups changed no stored byte.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apsim/batch_simulator.hpp"
#include "apss_test_support.hpp"
#include "core/batch_compile.hpp"
#include "core/engine.hpp"
#include "core/hamming_macro.hpp"
#include "core/opt/stream_multiplexing.hpp"
#include "core/opt/vector_packing.hpp"
#include "knn/dataset.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"

namespace apss::apsim {
namespace {

/// FNV-1a over every stored field of `state`, in declaration order.
std::uint64_t state_digest(const BatchProgramState& state) {
  util::Fnv1a64 h;
  h.update(static_cast<std::uint8_t>(state.family));
  h.update_u64(state.lanes);
  h.update_u64(state.dims);
  h.update_u64(state.levels);
  h.update_u64(state.class_count);
  h.update(state.sof);
  h.update(state.eof);
  for (const std::uint16_t accept : state.sym_classes) {
    h.update_u32(accept);
  }
  for (const std::uint64_t row : state.dim_rows) {
    h.update_u64(row);
  }
  for (const anml::ElementId elem : state.report_elem) {
    h.update_u32(elem);
  }
  for (const std::uint32_t code : state.report_code) {
    h.update_u32(code);
  }
  return h.digest();
}

template <typename Layout>
std::uint64_t compiled_digest(const anml::AutomataNetwork& network,
                              const std::vector<Layout>& layouts,
                              MacroFamily family) {
  std::string reason;
  const auto program = core::compile_batch(network, layouts, {}, &reason);
  if (program == nullptr) {
    ADD_FAILURE() << "declined: " << reason;
    return 0;
  }
  EXPECT_EQ(program->family(), family);
  return state_digest(program->state());
}

TEST(BatchProgramDigest, PlainMacros) {
  const std::uint64_t expected[] = {
      0xe84b019e2a53ee17ull, 0x34a3c066e88e1895ull, 0x7b7d99004abf4635ull,
      0x2c14530d2e641b29ull, 0x3e8278a96f3519bdull,
  };
  util::Rng rng(15001);
  std::size_t i = 0;
  for (const std::size_t dims : {1u, 9u, 16u, 128u, 500u}) {
    const knn::BinaryDataset data = test::random_dataset(rng, 70, dims);
    anml::AutomataNetwork network;
    std::vector<core::MacroLayout> layouts;
    for (std::size_t v = 0; v < data.size(); ++v) {
      layouts.push_back(core::append_hamming_macro(
          network, data.vector(v), static_cast<std::uint32_t>(v)));
    }
    EXPECT_EQ(compiled_digest(network, layouts, MacroFamily::kHamming),
              expected[i++])
        << "d=" << dims;
  }
}

TEST(BatchProgramDigest, MultiplexedMacros) {
  const std::uint64_t expected[] = {
      0x7d484f2cc226f256ull, 0x222d8dbaea64bb0eull, 0xc8d5b77f7a84a851ull,
      0xb5644076cff06ec1ull, 0x6c0cad28ced5e634ull, 0xab78a42087ac9819ull,
  };
  util::Rng rng(15002);
  std::size_t i = 0;
  for (std::size_t slices = 2; slices <= 7; ++slices) {
    const knn::BinaryDataset data = test::random_dataset(rng, 10, 33);
    anml::AutomataNetwork network;
    const std::vector<core::MacroLayout> layouts =
        core::build_multiplexed_network(network, data, slices);
    EXPECT_EQ(compiled_digest(network, layouts, MacroFamily::kMultiplexed),
              expected[i++])
        << "slices=" << slices;
  }
}

TEST(BatchProgramDigest, PackedGroups) {
  const std::uint64_t expected[] = {
      0xe48df53b94fb45bfull, 0x3559f56d83633dc7ull, 0x8b20a2d729d412d9ull,
      0x72f3b814ca37e61cull, 0x0aa6b412e66a1349ull, 0xd536351db0347e49ull,
      0x45d3762a3585c300ull, 0x1096db5fda450710ull,
  };
  util::Rng rng(15003);
  std::size_t i = 0;
  for (const core::CollectorStyle style :
       {core::CollectorStyle::kFlat, core::CollectorStyle::kTree}) {
    for (const std::size_t group : {1u, 2u, 4u, 8u}) {
      const knn::BinaryDataset data = test::random_dataset(rng, 21, 40);
      core::VectorPackingOptions opt;
      opt.group_size = group;
      opt.style = style;
      anml::AutomataNetwork network;
      const std::vector<core::PackedGroupLayout> layouts =
          core::build_packed_network(network, data, opt);
      EXPECT_EQ(compiled_digest(network, layouts, MacroFamily::kPacked),
                expected[i++])
          << "style=" << static_cast<int>(style) << " g=" << group;
    }
  }
}

TEST(BatchProgramDigest, EnginePrograms) {
  // Plain, packed (g = 4) and multiplexed (3 slices) engines over two
  // configurations each.
  const std::uint64_t expected[] = {
      0xbb559eee3e1ec6cdull, 0x0a78cab8bde82029ull, 0x4c555164abd29f2cull,
      0x7053d90c954dd8fcull, 0xc1391a03704980a3ull, 0x7e0c34a96b0151e7ull,
  };
  util::Rng rng(15004);
  const knn::BinaryDataset data = test::random_dataset(rng, 96, 32);
  std::size_t i = 0;
  for (int layout = 0; layout < 3; ++layout) {
    core::EngineOptions opt;
    opt.backend = core::SimulationBackend::kBitParallel;
    opt.max_vectors_per_config = 48;
    opt.packing_group_size = layout == 1 ? 4 : 0;
    opt.slices = layout == 2 ? 3 : 1;
    const core::ApKnnEngine engine(data, opt);
    ASSERT_EQ(engine.configurations(), 2u);
    for (std::size_t c = 0; c < engine.configurations(); ++c) {
      ASSERT_NE(engine.program(c), nullptr);
      EXPECT_EQ(state_digest(engine.program(c)->state()), expected[i++])
          << "layout=" << layout << " config=" << c;
    }
  }
}

}  // namespace
}  // namespace apss::apsim
