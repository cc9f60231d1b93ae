#pragma once
// Bridge from the core macro builders to the bit-parallel backend: views
// a core::MacroLayout (plain or multiplexed Hamming macro) or a
// core::PackedGroupLayout (vector-packed group) as the layering-neutral
// group slots that apsim::BatchProgram::try_compile consumes. Lives apart
// from the builder headers so macro construction does not drag in the
// simulator headers.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "apsim/batch_simulator.hpp"
#include "core/hamming_macro.hpp"
#include "core/opt/vector_packing.hpp"

namespace apss::core {

/// A plain or multiplexed macro viewed as a packed group of one lane. The
/// spans alias `layout`, which must outlive the returned value.
inline apsim::PackedGroupSlots packed_batch_slots(const MacroLayout& layout) {
  apsim::PackedGroupSlots s;
  s.guard = layout.guard;
  s.chain = layout.chain;
  s.match = layout.match;
  s.bridge = layout.bridge;
  s.sort_state = layout.sort_state;
  s.eof_state = layout.eof_state;
  s.counters = {&layout.counter, 1};
  s.reports = {&layout.report, 1};
  s.collectors = {&layout.collectors, 1};
  s.collector_levels = layout.collector_levels;
  return s;
}

/// Group view of a vector-packed group. The spans alias `layout`, which
/// must outlive the returned value.
inline apsim::PackedGroupSlots packed_batch_slots(
    const PackedGroupLayout& layout) {
  apsim::PackedGroupSlots s;
  s.guard = layout.guard;
  s.chain = layout.chain;
  s.value_states = layout.value_states;
  s.bridge = layout.bridge;
  s.sort_state = layout.sort_state;
  s.eof_state = layout.eof_state;
  s.counters = layout.counters;
  s.reports = layout.reports;
  s.collectors = layout.collectors;
  s.collector_levels = layout.collector_levels;
  return s;
}

/// try_compile over builder layouts of one kind (MacroLayout or
/// PackedGroupLayout): builds the group views and hands them to the
/// recognizer. Pure function of its arguments — safe to run concurrently
/// over independent networks.
template <typename Layout>
std::shared_ptr<const apsim::BatchProgram> compile_batch(
    const anml::AutomataNetwork& network, const std::vector<Layout>& layouts,
    apsim::SimOptions options, std::string* reason = nullptr) {
  std::vector<apsim::PackedGroupSlots> slots;
  slots.reserve(layouts.size());
  for (const Layout& layout : layouts) {
    slots.push_back(packed_batch_slots(layout));
  }
  return apsim::BatchProgram::try_compile(network, slots, options, reason);
}

}  // namespace apss::core
