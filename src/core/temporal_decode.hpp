#pragma once
// Host-side decoding of report events into sorted nearest-neighbor lists.
//
// The AP conveys each reporting-state activation as (stream offset, state
// id). Because the sorting macro makes more-similar vectors report earlier,
// decoding is a single pass: the offset within the query frame maps
// directly to the Hamming distance (StreamSpec::distance_from_offset), and
// events arrive already sorted by distance within each query. Under stream
// multiplexing (Sec. VI-B) a frame carries `slices` queries and the report
// code (MuxReportCode) names the slice, i.e. the query within the frame.

#include <cstdint>
#include <span>
#include <vector>

#include "apsim/simulator.hpp"
#include "core/design.hpp"
#include "knn/exact.hpp"

namespace apss::core {

class TemporalSortDecoder {
 public:
  /// `query_count` queries ride ceil(query_count / slices) frames; with
  /// slices == 1 (the plain design) frame f is query f.
  TemporalSortDecoder(StreamSpec spec, std::size_t query_count,
                      std::size_t slices = 1)
      : spec_(spec),
        query_count_(query_count),
        slices_(slices),
        frames_((query_count + slices - 1) / slices) {}

  /// Decodes a batch run's events (cycles are 1-based over the whole
  /// concatenated stream; report codes are dataset vector ids, or
  /// MuxReportCode values when slices > 1). Returns one ascending-distance
  /// neighbor list per query, truncated to `k` if k > 0. Events of the
  /// unused slices of a partial last frame are dropped. Throws
  /// std::out_of_range if an event falls outside any sort window or names
  /// no slice — that would mean the automata design is broken.
  std::vector<std::vector<knn::Neighbor>> decode(
      std::span<const apsim::ReportEvent> events, std::size_t k = 0) const;

  /// Decodes one event's (query index, neighbor): query frame * slices +
  /// slice. The index is >= the query count for an unused slice of a
  /// partial last frame.
  std::pair<std::size_t, knn::Neighbor> decode_event(
      const apsim::ReportEvent& event) const;

 private:
  StreamSpec spec_;
  std::size_t query_count_;
  std::size_t slices_;
  std::size_t frames_;
};

}  // namespace apss::core
