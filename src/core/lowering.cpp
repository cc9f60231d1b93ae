#include "core/lowering.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/batch_compile.hpp"
#include "core/opt/stream_multiplexing.hpp"

namespace apss::core {
namespace {

std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

/// Collector-tree nodes of one lane over `dims` leaves, level by level as
/// append_hamming_macro (and a kTree packed vector) creates them.
std::size_t collector_nodes(std::size_t dims,
                            const HammingMacroOptions& options) {
  std::size_t nodes = 0;
  std::size_t level = dims;
  do {
    level = ceil_div(level, options.collector_fan_in);
    nodes += level;
  } while (level + 1 > options.max_counter_fan_in);
  return nodes;
}

/// The bit values the rows [begin, begin + count) of `data` hold: how
/// many dimensions have a 1 in some row, and how many have a 0 in some row.
std::pair<std::size_t, std::size_t> bit_values(const knn::BinaryDataset& data,
                                               std::size_t begin,
                                               std::size_t count) {
  std::size_t ones = 0;
  std::size_t zeros = 0;
  for (std::size_t w = 0; w * 64 < data.dims(); ++w) {
    std::uint64_t any = 0;
    std::uint64_t all = ~std::uint64_t{0};
    for (std::size_t r = begin; r < begin + count; ++r) {
      any |= data.row(r)[w];
      all &= data.row(r)[w];
    }
    const std::size_t n = std::min<std::size_t>(64, data.dims() - w * 64);
    const std::uint64_t live =
        n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
    ones += static_cast<std::size_t>(std::popcount(any & live));
    zeros += n - static_cast<std::size_t>(std::popcount(all & live));
  }
  return {ones, zeros};
}

}  // namespace

ConfigurationNetwork build_configuration(const knn::BinaryDataset& data,
                                         DatasetRange range,
                                         const ConfigurationLayout& layout,
                                         std::string name) {
  ConfigurationNetwork out;
  out.network = std::make_unique<anml::AutomataNetwork>(std::move(name));
  const std::size_t end = range.begin + range.count;
  if (layout.packing_group_size > 0) {
    VectorPackingOptions pack;
    pack.group_size = layout.packing_group_size;
    pack.style = layout.packing_style;
    pack.macro = layout.macro;
    for (std::size_t gb = range.begin; gb < end; gb += pack.group_size) {
      out.groups.push_back(append_packed_group(
          *out.network, data, gb, std::min(pack.group_size, end - gb), pack));
    }
  } else if (layout.slices > 1) {
    out.macros = build_multiplexed_network(*out.network, data, layout.slices,
                                           layout.macro, range.begin,
                                           range.count);
  } else {
    out.macros.reserve(range.count);
    for (std::size_t v = range.begin; v < end; ++v) {
      out.macros.push_back(append_hamming_macro(
          *out.network, data.vector(v), static_cast<std::uint32_t>(v),
          layout.macro));
    }
  }
  return out;
}

std::shared_ptr<const apsim::BatchProgram> compile_configuration(
    const ConfigurationNetwork& config, apsim::SimOptions options,
    std::string* reason) {
  return config.groups.empty()
             ? compile_batch(*config.network, config.macros, options, reason)
             : compile_batch(*config.network, config.groups, options, reason);
}

apsim::BatchProgramState lower_configuration(
    const knn::BinaryDataset& data, DatasetRange range,
    const ConfigurationLayout& layout) {
  const std::size_t dims = data.dims();
  const bool packed = layout.packing_group_size > 0;
  const bool flat = packed && layout.packing_style == CollectorStyle::kFlat;
  const std::size_t slices = layout.slices;
  if (range.count == 0 || range.begin > data.size() ||
      range.count > data.size() - range.begin) {
    throw std::invalid_argument("lower_configuration: bad range");
  }
  if (dims == 0) {
    throw std::invalid_argument("lower_configuration: dims must be >= 1");
  }
  if (slices == 0 || slices > kMaxSlices || (packed && slices > 1)) {
    throw std::invalid_argument(
        "lower_configuration: slices must be 1..7, and 1 when packed");
  }
  if (layout.macro.bit_slice > 6) {
    throw std::invalid_argument("lower_configuration: bit_slice must be 0..6");
  }
  // Flat packed collectors ignore the fan-in limits; every other shape
  // validates them here, as its builder does.
  const std::size_t levels =
      flat ? 1 : collector_levels_for(dims, layout.macro);
  const std::size_t tree_nodes = flat ? 1 : collector_nodes(dims, layout.macro);

  // --- Match classes, in the order the recognizer interns them: the
  // element-id order of the first matching state using each. A class is
  // "data symbol whose bit s is b"; cls[b][s] is its index.
  const auto [ones, zeros] = bit_values(data, range.begin, range.count);
  const bool present[2] = {zeros > 0, ones > 0};
  bool first = data.get(range.begin, 0);  // the first matching state's bit
  if (packed) {
    // A group builds dimension 0's bit-0 state, when one of its vectors
    // needs it, before its bit-1 state.
    const std::size_t g0 = std::min(layout.packing_group_size, range.count);
    first = true;
    for (std::size_t v = range.begin; v < range.begin + g0 && first; ++v) {
      first = data.get(v, 0);
    }
  }
  std::array<std::array<std::uint8_t, kMaxSlices>, 2> cls{};
  std::vector<std::pair<bool, std::size_t>> keys;  // (b, s) per class
  const auto intern = [&](bool b, std::size_t s) {
    cls[b][s] = static_cast<std::uint8_t>(keys.size());
    keys.emplace_back(b, s);
  };
  if (slices == 1) {
    intern(first, layout.macro.bit_slice);
    if (present[!first]) {
      intern(!first, layout.macro.bit_slice);
    }
  } else {
    // Macros are built vector-major, slice-minor. When the first vector
    // holds both bit values, its slice-s macro interns (first, s) and
    // (!first, s) before slice s + 1; otherwise the !first classes appear
    // together, slice by slice, at the first vector holding !first.
    const auto [v0_ones, v0_zeros] = bit_values(data, range.begin, 1);
    const bool mixed = v0_ones > 0 && v0_zeros > 0;
    for (std::size_t s = 0; s < slices; ++s) {
      intern(first, s);
      if (mixed) {
        intern(!first, s);
      }
    }
    for (std::size_t s = 0; !mixed && present[!first] && s < slices; ++s) {
      intern(!first, s);
    }
  }

  apsim::BatchProgramState state;
  state.family = packed       ? apsim::MacroFamily::kPacked
                 : slices > 1 ? apsim::MacroFamily::kMultiplexed
                              : apsim::MacroFamily::kHamming;
  const std::size_t lanes = range.count * slices;
  const std::size_t words = ceil_div(lanes, 64);
  const std::size_t classes = keys.size();
  state.lanes = lanes;
  state.dims = dims;
  state.levels = levels;
  state.class_count = classes;
  state.sof = Alphabet::kSof;
  state.eof = Alphabet::kEof;
  for (std::size_t c = 0; c < classes; ++c) {
    // The builders' slice-ternary match class (match_symbols).
    const auto [b, s] = keys[c];
    const auto mask = static_cast<std::uint8_t>(Alphabet::kControlFlag |
                                                (1u << s));
    const auto value = static_cast<std::uint8_t>(b ? (1u << s) : 0u);
    for (int sym = 0; sym < 256; ++sym) {
      if ((sym & mask) == value) {
        state.sym_classes[static_cast<std::size_t>(sym)] |=
            static_cast<std::uint16_t>(1u << c);
      }
    }
  }

  // --- Lane masks: lane l = (vector l / slices, slice l % slices); its
  // dim-i matching state uses class cls[bit][slice].
  state.dim_rows.assign(dims * classes * words, 0);
  for (std::size_t v = 0; v < range.count; ++v) {
    const std::span<const std::uint64_t> row = data.row(range.begin + v);
    for (std::size_t k = 0; k < slices; ++k) {
      const std::size_t lane = v * slices + k;
      const std::size_t s = slices > 1 ? k : layout.macro.bit_slice;
      const std::uint64_t lane_bit = std::uint64_t{1} << (lane % 64);
      std::uint64_t* const lane_word = state.dim_rows.data() + lane / 64;
      for (std::size_t i = 0; i < dims; ++i) {
        const bool bit = (row[i >> 6] >> (i & 63)) & 1u;
        lane_word[(i * classes + cls[bit][s]) * words] |= lane_bit;
      }
    }
  }

  // --- Report codes and the element ids the builders give report states.
  state.report_code.resize(lanes);
  state.report_elem.resize(lanes);
  if (!packed) {
    // A macro is its guard, d (chain, match) pairs, the counter, the
    // collector tree, the bridge, the sort and EOF states, and the report
    // state last.
    const std::size_t macro_elems = 2 * dims + tree_nodes + levels + 5;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const auto id = static_cast<std::uint32_t>(range.begin + lane / slices);
      state.report_code[lane] =
          slices > 1 ? MuxReportCode::encode(id, lane % slices) : id;
      state.report_elem[lane] =
          static_cast<anml::ElementId>((lane + 1) * macro_elems - 1);
    }
  } else {
    // A group is its shared guard, chain, value states (one per bit value
    // its vectors hold at each dimension), bridge, sort and EOF states,
    // then per vector a counter, that vector's collectors and its report.
    const std::size_t vector_elems = tree_nodes + 2;
    std::size_t base = 0;
    for (std::size_t gb = 0; gb < range.count;
         gb += layout.packing_group_size) {
      const std::size_t count =
          std::min(layout.packing_group_size, range.count - gb);
      const auto [group_ones, group_zeros] =
          bit_values(data, range.begin + gb, count);
      const std::size_t shared = dims + group_ones + group_zeros + levels + 3;
      for (std::size_t v = 0; v < count; ++v) {
        state.report_code[gb + v] =
            static_cast<std::uint32_t>(range.begin + gb + v);
        state.report_elem[gb + v] = static_cast<anml::ElementId>(
            base + shared + v * vector_elems + vector_elems - 1);
      }
      base += shared + count * vector_elems;
    }
  }
  return state;
}

}  // namespace apss::core
