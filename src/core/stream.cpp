#include "core/stream.hpp"

#include <algorithm>
#include <stdexcept>

namespace apss::core {

void SymbolStreamEncoder::append_query(std::span<const std::uint64_t> query_words,
                                       std::vector<std::uint8_t>& out) const {
  const std::size_t d = spec_.dims;
  const std::size_t at = out.size();
  out.resize(at + spec_.cycles_per_query());
  std::uint8_t* p = out.data() + at;
  *p++ = Alphabet::kSof;
  for (std::size_t w = 0; w * 64 < d; ++w) {
    std::uint64_t bits = query_words[w];
    const std::size_t n = std::min<std::size_t>(64, d - w * 64);
    for (std::size_t j = 0; j < n; ++j, bits >>= 1) {
      *p++ = Alphabet::data_bit(bits & 1u);
    }
  }
  p = std::fill_n(p, spec_.fill_symbols(), Alphabet::kFill);
  *p = Alphabet::kEof;
}

std::vector<std::uint8_t> SymbolStreamEncoder::encode_query(
    const util::BitVector& query) const {
  if (query.size() != spec_.dims) {
    throw std::invalid_argument("SymbolStreamEncoder: query dims mismatch");
  }
  std::vector<std::uint8_t> out;
  append_query(query.words(), out);
  return out;
}

std::vector<std::uint8_t> SymbolStreamEncoder::encode_batch(
    const knn::BinaryDataset& queries) const {
  if (queries.dims() != spec_.dims) {
    throw std::invalid_argument("SymbolStreamEncoder: query dims mismatch");
  }
  std::vector<std::uint8_t> out;
  out.reserve(queries.size() * spec_.cycles_per_query());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    append_query(queries.row(q), out);
  }
  return out;
}

}  // namespace apss::core
