#include "core/temporal_decode.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/opt/stream_multiplexing.hpp"

namespace apss::core {

std::pair<std::size_t, knn::Neighbor> TemporalSortDecoder::decode_event(
    const apsim::ReportEvent& event) const {
  if (event.cycle == 0) {
    throw std::out_of_range("TemporalSortDecoder: zero cycle");
  }
  const std::size_t cpq = spec_.cycles_per_query();
  const std::size_t frame = (event.cycle - 1) / cpq;
  if (frame >= frames_) {
    throw std::out_of_range("TemporalSortDecoder: event beyond last query");
  }
  const std::size_t offset = event.cycle - frame * cpq;
  const auto distance =
      static_cast<std::uint32_t>(spec_.distance_from_offset(offset));
  if (slices_ == 1) {
    return {frame, {event.report_code, distance}};
  }
  const std::size_t slice = MuxReportCode::slice(event.report_code);
  if (slice >= slices_) {
    throw std::out_of_range("TemporalSortDecoder: report code names no slice");
  }
  return {frame * slices_ + slice,
          {MuxReportCode::vector_id(event.report_code), distance}};
}

std::vector<std::vector<knn::Neighbor>> TemporalSortDecoder::decode(
    std::span<const apsim::ReportEvent> events, std::size_t k) const {
  std::vector<std::vector<knn::Neighbor>> results(query_count_);
  for (const apsim::ReportEvent& event : events) {
    auto [query, neighbor] = decode_event(event);
    if (query >= query_count_) {
      continue;  // unused slice: its macros observe stale bit values
    }
    auto& list = results[query];
    if (k == 0 || list.size() < k) {
      list.push_back(neighbor);
    }
  }
  // Events with equal distance share a cycle and arrive in arbitrary id
  // order; normalize within each distance group for deterministic output.
  for (auto& list : results) {
    std::stable_sort(list.begin(), list.end());
  }
  return results;
}

}  // namespace apss::core
