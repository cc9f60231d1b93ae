#include "core/opt/stream_multiplexing.hpp"

#include <algorithm>
#include <stdexcept>

namespace apss::core {

std::vector<MacroLayout> build_multiplexed_network(
    anml::AutomataNetwork& network, const knn::BinaryDataset& data,
    std::size_t slices, const HammingMacroOptions& base_options,
    std::size_t begin, std::size_t count) {
  if (slices == 0 || slices > kMaxSlices) {
    throw std::invalid_argument("build_multiplexed_network: slices must be 1..7");
  }
  if (begin > data.size()) {
    throw std::invalid_argument("build_multiplexed_network: range out of bounds");
  }
  const std::size_t end = begin + std::min(count, data.size() - begin);
  std::vector<MacroLayout> layouts;
  layouts.reserve((end - begin) * slices);
  for (std::size_t v = begin; v < end; ++v) {
    for (std::size_t s = 0; s < slices; ++s) {
      HammingMacroOptions opt = base_options;
      opt.bit_slice = s;
      layouts.push_back(append_hamming_macro(
          network, data.vector(v),
          MuxReportCode::encode(static_cast<std::uint32_t>(v), s), opt));
    }
  }
  return layouts;
}

std::vector<std::uint8_t> MultiplexedStreamEncoder::encode_group(
    const knn::BinaryDataset& queries, std::size_t begin,
    std::size_t count) const {
  std::vector<std::uint8_t> out;
  out.reserve(spec_.cycles_per_query());
  append_group(queries, begin, count, out);
  return out;
}

void MultiplexedStreamEncoder::append_group(const knn::BinaryDataset& queries,
                                            std::size_t begin,
                                            std::size_t count,
                                            std::vector<std::uint8_t>& out) const {
  if (count == 0 || count > kMaxSlices) {
    throw std::invalid_argument("encode_group: count must be 1..7");
  }
  if (begin + count > queries.size()) {
    throw std::invalid_argument("encode_group: range out of bounds");
  }
  if (queries.dims() != spec_.dims) {
    throw std::invalid_argument("encode_group: query dims mismatch");
  }
  out.push_back(Alphabet::kSof);
  for (std::size_t i = 0; i < spec_.dims; ++i) {
    std::uint8_t payload = 0;
    for (std::size_t s = 0; s < count; ++s) {
      if (queries.get(begin + s, i)) {
        payload |= static_cast<std::uint8_t>(1u << s);
      }
    }
    out.push_back(Alphabet::data(payload));
  }
  for (std::size_t i = 0; i < spec_.fill_symbols(); ++i) {
    out.push_back(Alphabet::kFill);
  }
  out.push_back(Alphabet::kEof);
}

std::vector<std::uint8_t> MultiplexedStreamEncoder::encode_batch(
    const knn::BinaryDataset& queries, std::size_t& frames_out) const {
  std::vector<std::uint8_t> out;
  frames_out = 0;
  for (std::size_t begin = 0; begin < queries.size(); begin += kMaxSlices) {
    append_group(queries, begin, std::min(kMaxSlices, queries.size() - begin),
                 out);
    ++frames_out;
  }
  return out;
}

}  // namespace apss::core
