#pragma once
// Direct lowering: one configuration's compiled bit-parallel program as a
// closed-form function of the dataset bits, with no automata network.
//
// The Figs. 2a/2b macro is one fixed graph; per vector only the symbol
// classes of its matching states change, and the Sec. VI-A packing and
// Sec. VI-B multiplexing keep that regularity. So everything
// apsim::BatchProgram::try_compile recovers from a built network — the
// match classes in the order the builders create them, one lane mask per
// (dimension, class), the report codes, and the element ids the builders
// give the report states — follows from the dataset slice and the layout
// options alone. lower_configuration computes that state directly, in
// O(lanes x dims) bit operations; build_configuration is the builders'
// composition it must equal byte for byte (tests/core/lowering_test.cpp
// is the oracle).

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "anml/network.hpp"
#include "apsim/batch_simulator.hpp"
#include "core/hamming_macro.hpp"
#include "core/opt/vector_packing.hpp"
#include "knn/dataset.hpp"

namespace apss::core {

/// The macro layout of a configuration: plain macros (the default),
/// vector-packed groups (packing_group_size > 0) or stream-multiplexed
/// macros (slices > 1) — the three shapes ApKnnEngine builds.
struct ConfigurationLayout {
  HammingMacroOptions macro;
  /// Vectors per packed group; 0 = no packing.
  std::size_t packing_group_size = 0;
  CollectorStyle packing_style = CollectorStyle::kTree;
  /// Bit slices per vector (1..kMaxSlices); 1 = no multiplexing.
  std::size_t slices = 1;
};

/// The dataset vectors [begin, begin + count) one configuration encodes.
struct DatasetRange {
  std::size_t begin = 0;
  std::size_t count = 0;
};

/// A configuration built by the macro builders: the network and the
/// layouts of its macros (plain or multiplexed) or of its packed groups.
struct ConfigurationNetwork {
  std::unique_ptr<anml::AutomataNetwork> network;
  std::vector<MacroLayout> macros;
  std::vector<PackedGroupLayout> groups;
};

/// Builds the configuration network for `range` of `data`: one
/// append_hamming_macro per vector, one append_packed_group per
/// packing_group_size vectors (the last group may be smaller), or
/// build_multiplexed_network over the range. Report codes are global
/// vector ids (MuxReportCode when multiplexed).
ConfigurationNetwork build_configuration(const knn::BinaryDataset& data,
                                         DatasetRange range,
                                         const ConfigurationLayout& layout,
                                         std::string name = "config");

/// try_compile over a built configuration's layouts.
std::shared_ptr<const apsim::BatchProgram> compile_configuration(
    const ConfigurationNetwork& config, apsim::SimOptions options,
    std::string* reason = nullptr);

/// The BatchProgramState compile_configuration(build_configuration(data,
/// range, layout), options) produces for any SimOptions the recognizer
/// supports (apsim::BatchProgram::supports), computed without building or
/// verifying a network. Throws std::invalid_argument on an empty or
/// out-of-bounds range, zero dims, or options the builders reject.
apsim::BatchProgramState lower_configuration(const knn::BinaryDataset& data,
                                             DatasetRange range,
                                             const ConfigurationLayout& layout);

}  // namespace apss::core
