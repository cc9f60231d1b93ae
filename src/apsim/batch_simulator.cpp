#include "apsim/batch_simulator.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <stdexcept>

#include "util/fault_injection.hpp"

namespace apss::apsim {

const char* to_string(MacroFamily family) noexcept {
  switch (family) {
    case MacroFamily::kHamming: return "hamming";
    case MacroFamily::kPacked: return "packed";
    case MacroFamily::kMultiplexed: return "multiplexed";
  }
  return "?";
}

using anml::CounterPort;
using anml::Element;
using anml::ElementId;
using anml::ElementKind;
using anml::StartKind;
using anml::SymbolSet;

/// Recognizer output: everything the back-end needs to emit a compiled
/// program. A lane is one (counter, report) pair; lane l's dim-i matching
/// state uses match class lane_class[l * dims + i].
struct BatchProgram::LaneTable {
  MacroFamily family = MacroFamily::kHamming;
  std::size_t lanes = 0;
  std::size_t dims = 0;
  std::size_t levels = 1;
  int sof = -1;
  int eof = -1;
  std::vector<SymbolSet> classes;        ///< distinct matching classes
  std::vector<std::uint8_t> lane_class;  ///< lanes x dims class indices
  std::vector<ElementId> report_elem;    ///< per lane
  std::vector<std::uint32_t> report_code;
};

namespace {

/// Structural role of an element inside the macro set. kMatch is a
/// per-dimension value (matching) state: a macro's own matching state, or
/// one of a packed group's shared value states.
enum class Role : std::uint8_t {
  kUnassigned,
  kGuard,
  kChain,
  kMatch,
  kCollector,
  kBridge,
  kSort,
  kEof,
  kCounter,
  kReport,
};

/// (role, owner, pos) of one element. `owner` is the group index on shared
/// roles (guard/chain/match/bridge/sort/eof) and the LANE index on per-lane
/// roles (collector/counter/report).
struct Slot {
  Role role = Role::kUnassigned;
  std::uint32_t owner = 0;
  std::uint32_t pos = 0;
};

/// Returns the only symbol of a single-symbol class, or -1.
int single_symbol(const SymbolSet& s) {
  if (s.count() != 1) {
    return -1;
  }
  for (int sym = 0; sym < 256; ++sym) {
    if (s.test(static_cast<std::uint8_t>(sym))) {
      return sym;
    }
  }
  return -1;
}

/// Interns `symbols` into `classes`, returning its index, or -1 when the
/// class budget (kMaxBatchMatchClasses) is exhausted.
int intern_class(std::vector<SymbolSet>& classes, const SymbolSet& symbols) {
  const auto it = std::find(classes.begin(), classes.end(), symbols);
  if (it != classes.end()) {
    return static_cast<int>(it - classes.begin());
  }
  if (classes.size() >= kMaxBatchMatchClasses) {
    return -1;
  }
  classes.push_back(symbols);
  return static_cast<int>(classes.size() - 1);
}

/// Plain vs multiplexed (for BatchProgram::family()): multiplexed matching
/// classes are the slice-ternary pairs 0b*......b — ternary(value, mask)
/// with mask = control bit | one payload bit (core::Alphabet puts the
/// control flag at bit 7). A class set spanning more than one payload
/// slice is the Fig. 6 shape; anything else counts as plain Hamming.
MacroFamily detect_hamming_family(const std::vector<SymbolSet>& classes) {
  std::uint8_t slices_used = 0;
  for (const SymbolSet& c : classes) {
    bool matched = false;
    for (std::size_t s = 0; s < 7 && !matched; ++s) {
      const auto mask = static_cast<std::uint8_t>(0x80u | (1u << s));
      for (int b = 0; b < 2 && !matched; ++b) {
        const auto value = static_cast<std::uint8_t>(b ? (1u << s) : 0u);
        if (c == SymbolSet::ternary(value, mask)) {
          slices_used |= static_cast<std::uint8_t>(1u << s);
          matched = true;
        }
      }
    }
    if (!matched) {
      return MacroFamily::kHamming;  // free-form classes: the plain shape
    }
  }
  return std::popcount(slices_used) > 1 ? MacroFamily::kMultiplexed
                                        : MacroFamily::kHamming;
}

// Required-out-edge bookkeeping bits (per role; see check loops below).
constexpr std::uint8_t kSawFirst = 1;    // chain succ / collector parent / ...
constexpr std::uint8_t kSawSecond = 2;   // match succ / counter enable
constexpr std::uint8_t kSawThird = 4;    // sort -> eof

/// Per-element checks of the recognizer: element kinds, start kinds, reporting flags, guard/EOF single-symbol uniformity,
/// match-class interning (into `classes`, recorded per element in
/// `elem_class`), counter mode/threshold. Returns "" on success, else the
/// failure reason. The sort-class check needs the resolved EOF symbol and
/// stays with the caller.
std::string check_element_properties(const anml::AutomataNetwork& network,
                                     const std::vector<Slot>& slots,
                                     std::size_t dims, int& sof, int& eof,
                                     std::vector<SymbolSet>& classes,
                                     std::vector<std::uint8_t>& elem_class) {
  for (ElementId id = 0; id < network.size(); ++id) {
    const Element& e = network.element(id);
    const Role role = slots[id].role;
    const bool is_counter = role == Role::kCounter;
    if (!is_counter && e.kind != ElementKind::kSte) {
      return "non-STE element in an STE slot";
    }
    if (!is_counter && e.start !=
        (role == Role::kGuard ? StartKind::kAllInput : StartKind::kNone)) {
      return "unexpected start kind";
    }
    if (e.reporting != (role == Role::kReport)) {
      return "reporting flag on an unexpected element";
    }
    switch (role) {
      case Role::kGuard: {
        const int sym = single_symbol(e.symbols);
        if (sym < 0 || (sof >= 0 && sym != sof)) {
          return "guard class is not one uniform symbol";
        }
        sof = sym;
        break;
      }
      case Role::kEof: {
        const int sym = single_symbol(e.symbols);
        if (sym < 0 || (eof >= 0 && sym != eof)) {
          return "eof class is not one uniform symbol";
        }
        eof = sym;
        break;
      }
      case Role::kMatch: {
        const int c = intern_class(classes, e.symbols);
        if (c < 0) {
          return "more than " + std::to_string(kMaxBatchMatchClasses) +
                 " distinct match classes";
        }
        elem_class[id] = static_cast<std::uint8_t>(c);
        break;
      }
      case Role::kChain:
      case Role::kCollector:
      case Role::kBridge:
      case Role::kReport:
        if (!e.symbols.is_all()) {
          return "backbone/collector/bridge/report class must be *";
        }
        break;
      case Role::kSort:
        break;  // checked against eof by the caller
      case Role::kCounter:
        if (e.kind != ElementKind::kCounter ||
            e.mode != anml::CounterMode::kPulse ||
            e.threshold != static_cast<std::uint32_t>(dims)) {
          return "counter is not pulse-mode with threshold == dims";
        }
        break;
      case Role::kUnassigned:
        break;
    }
  }
  if (sof < 0 || eof < 0 || sof == eof) {
    return "guard/eof symbols missing or identical";
  }
  return "";
}

/// Transposes the 8x8 bit matrix whose row i is byte i of `x` (bit j of
/// the byte = column j): afterwards byte j holds column j.
std::uint64_t transpose8x8(std::uint64_t x) {
  std::uint64_t t = (x ^ (x >> 7)) & 0x00aa00aa00aa00aaULL;
  x ^= t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000cccc0000ccccULL;
  x ^= t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000f0f0f0f0ULL;
  x ^= t ^ (t << 28);
  return x;
}

}  // namespace

// ---------------------------------------------------------------------------
// The recognizer: macro groups (shared ladder, per-lane collectors/counter/
// report). A plain or multiplexed macro is a group of one lane.
// ---------------------------------------------------------------------------

std::shared_ptr<const BatchProgram> BatchProgram::try_compile(
    const anml::AutomataNetwork& network,
    std::span<const PackedGroupSlots> groups, SimOptions options,
    std::string* reason) {
  const auto fail = [&](const std::string& why) {
    if (reason != nullptr) {
      *reason = why;
    }
    return std::shared_ptr<const BatchProgram>{};
  };

  if (options.max_counter_increment != 1) {
    return fail("bit-parallel backend requires max_counter_increment == 1 "
                "(enables must OR together)");
  }
  if (groups.empty()) {
    return fail("no macro groups");
  }
  const std::size_t dims = groups[0].chain.size();
  const std::size_t levels = groups[0].collector_levels;
  const bool packed = groups[0].packed();
  if (dims == 0) {
    return fail("macro group has zero dimensions");
  }
  if (levels == 0 || levels > 63) {
    return fail("collector depth outside [1, 63]");
  }

  // --- Assign every element a (role, group-or-lane, position) --------------
  // Shared roles carry the group index; collector/counter/report carry the
  // global lane index. lane_group maps lanes back to their group.
  std::vector<Slot> slots(network.size());
  const auto assign = [&](ElementId id, Role role, std::size_t owner,
                          std::size_t pos) {
    if (id >= network.size() || slots[id].role != Role::kUnassigned) {
      return false;
    }
    slots[id] = {role, static_cast<std::uint32_t>(owner),
                 static_cast<std::uint32_t>(pos)};
    return true;
  };
  std::size_t n = 0;  // total lanes
  std::vector<std::uint32_t> lane_group;
  ElementId prev_counter = anml::kInvalidElement;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const PackedGroupSlots& s = groups[g];
    const std::size_t count = s.counters.size();
    if (count == 0 || s.reports.size() != count ||
        s.collectors.size() != count) {
      return fail("group lane spans are inconsistent");
    }
    if (s.packed() != packed || s.chain.size() != dims ||
        s.value_dims() != dims || s.collector_levels != levels ||
        s.bridge.size() != levels) {
      return fail("macro groups are not structurally identical");
    }
    bool ok = assign(s.guard, Role::kGuard, g, 0) &&
              assign(s.sort_state, Role::kSort, g, 0) &&
              assign(s.eof_state, Role::kEof, g, 0);
    for (std::size_t i = 0; ok && i < dims; ++i) {
      ok = assign(s.chain[i], Role::kChain, g, i);
      const std::span<const ElementId> values = s.values(i);
      if (ok && (values.empty() || values.size() > 2)) {
        return fail("dimension must carry one or two value states");
      }
      for (std::size_t v = 0; ok && v < values.size(); ++v) {
        ok = assign(values[v], Role::kMatch, g, i);
      }
    }
    for (std::size_t i = 0; ok && i < levels; ++i) {
      ok = assign(s.bridge[i], Role::kBridge, g, i);
    }
    for (std::size_t v = 0; ok && v < count; ++v) {
      const std::size_t lane = n + v;
      if (prev_counter != anml::kInvalidElement &&
          s.counters[v] <= prev_counter) {
        return fail("lanes are not in counter creation order "
                    "(within-cycle report order would diverge)");
      }
      prev_counter = s.counters[v];
      ok = assign(s.counters[v], Role::kCounter, lane, 0) &&
           assign(s.reports[v], Role::kReport, lane, 0);
      for (std::size_t c = 0; ok && c < s.collectors[v].size(); ++c) {
        ok = assign(s.collectors[v][c], Role::kCollector, lane, c);
      }
    }
    if (!ok) {
      return fail("slot ids out of range or shared between roles");
    }
    lane_group.insert(lane_group.end(), count, static_cast<std::uint32_t>(g));
    n += count;
  }
  for (ElementId id = 0; id < network.size(); ++id) {
    if (slots[id].role == Role::kUnassigned) {
      return fail("network contains elements outside the macro set");
    }
  }

  // --- Element property checks + match-class discovery ---------------------
  LaneTable lanes;
  lanes.lanes = n;
  lanes.dims = dims;
  lanes.levels = levels;
  std::vector<std::uint8_t> elem_class(network.size(), 0);
  if (const std::string why = check_element_properties(
          network, slots, dims, lanes.sof, lanes.eof, lanes.classes,
          elem_class);
      !why.empty()) {
    return fail(why);
  }
  for (const PackedGroupSlots& s : groups) {
    if (!(network.element(s.sort_state).symbols ==
          SymbolSet::all_except(static_cast<std::uint8_t>(lanes.eof)))) {
      return fail("sort class must be all-except-eof");
    }
  }

  // --- Edge checks ----------------------------------------------------------
  // Every edge must be one of the group's internal connections: the ladder
  // fans out to the value states, and the sort/eof states fan out to EVERY
  // lane's counter. Value states must each be driven by the wavefront (a
  // dead leaf would desynchronise the lanes that collect it), hence the
  // has_driver tracking. Collector levels are recomputed from the wiring
  // below, so the delay-line equivalence (every value-state -> counter path
  // has length exactly L) is verified, not assumed.
  std::vector<std::uint8_t> saw(network.size(), 0);
  std::vector<std::uint8_t> has_driver(network.size(), 0);
  std::vector<std::int32_t> collector_level(network.size(), -1);
  std::vector<std::vector<ElementId>> collector_in(network.size());
  std::vector<std::uint8_t> lane_sort_enable(n, 0);
  std::vector<std::uint8_t> lane_eof_reset(n, 0);
  for (const anml::Edge& edge : network.edges()) {
    if (edge.from >= network.size() || edge.to >= network.size()) {
      return fail("edge endpoint out of range");
    }
    const Slot& a = slots[edge.from];
    const Slot& b = slots[edge.to];
    const bool reset_port = edge.port == CounterPort::kReset;
    if (edge.port == CounterPort::kThreshold) {
      return fail("dynamic-threshold edge");
    }
    // Group of each endpoint (lanes resolve through lane_group).
    const auto group_of = [&](const Slot& s) {
      return s.role == Role::kCollector || s.role == Role::kCounter ||
                     s.role == Role::kReport
                 ? lane_group[s.owner]
                 : s.owner;
    };
    if (group_of(a) != group_of(b)) {
      return fail("edge crosses packed groups");
    }
    bool legal = false;
    switch (a.role) {
      case Role::kGuard:
        legal = (b.role == Role::kChain || b.role == Role::kMatch) &&
                b.pos == 0 && !reset_port;
        if (legal) {
          saw[edge.from] |= b.role == Role::kChain ? kSawFirst : kSawSecond;
          if (b.role == Role::kMatch) {
            has_driver[edge.to] = 1;
          }
        }
        break;
      case Role::kChain:
        if (a.pos + 1 < dims) {
          legal = (b.role == Role::kChain || b.role == Role::kMatch) &&
                  b.pos == a.pos + 1 && !reset_port;
          if (legal) {
            saw[edge.from] |= b.role == Role::kChain ? kSawFirst : kSawSecond;
            if (b.role == Role::kMatch) {
              has_driver[edge.to] = 1;
            }
          }
        } else {
          legal = b.role == Role::kBridge && b.pos == 0 && !reset_port;
          if (legal) {
            saw[edge.from] |= kSawFirst;
          }
        }
        break;
      case Role::kMatch:
        // Value state: feeds level-0 collectors of any lane in its group.
        legal = b.role == Role::kCollector && !reset_port;
        if (legal) {
          saw[edge.from] |= kSawFirst;
          collector_in[edge.to].push_back(edge.from);
        }
        break;
      case Role::kCollector:
        legal = (b.role == Role::kCollector || b.role == Role::kCounter) &&
                b.owner == a.owner && !reset_port;
        if (legal) {
          saw[edge.from] |= kSawFirst;
          if (b.role == Role::kCollector) {
            collector_in[edge.to].push_back(edge.from);
          } else {
            saw[edge.from] |= kSawSecond;  // root: feeds the counter directly
          }
        }
        break;
      case Role::kBridge:
        if (a.pos + 1 < levels) {
          legal = b.role == Role::kBridge && b.pos == a.pos + 1 && !reset_port;
        } else {
          legal = b.role == Role::kSort && !reset_port;
        }
        if (legal) {
          saw[edge.from] |= kSawFirst;
        }
        break;
      case Role::kSort:
        legal = !reset_port &&
                ((b.role == Role::kSort && edge.to == edge.from) ||
                 b.role == Role::kCounter || b.role == Role::kEof);
        if (legal) {
          if (b.role == Role::kCounter) {
            lane_sort_enable[b.owner] = 1;
          }
          saw[edge.from] |= b.role == Role::kSort    ? kSawFirst
                            : b.role == Role::kCounter ? kSawSecond
                                                       : kSawThird;
        }
        break;
      case Role::kEof:
        legal = b.role == Role::kCounter && reset_port;
        if (legal) {
          lane_eof_reset[b.owner] = 1;
          saw[edge.from] |= kSawFirst;
        }
        break;
      case Role::kCounter:
        legal = b.role == Role::kReport && b.owner == a.owner && !reset_port;
        if (legal) {
          saw[edge.from] |= kSawFirst;
        }
        break;
      case Role::kReport:
      case Role::kUnassigned:
        legal = false;
        break;
    }
    if (!legal) {
      return fail("unexpected edge for the macro group shape");
    }
  }

  // Per-lane collector depth AND leaf coverage: lane l's tree must reach
  // its counter in exactly `levels` steps and collect exactly one value
  // state per dimension — that value state's class IS lane l's dim class.
  lanes.lane_class.assign(n * dims, 0);
  lanes.report_elem.resize(n);
  lanes.report_code.resize(n);
  std::vector<std::uint8_t> dim_seen(dims, 0);
  std::size_t lane = 0;
  for (const PackedGroupSlots& s : groups) {
    for (std::size_t v = 0; v < s.counters.size(); ++v, ++lane) {
      std::fill(dim_seen.begin(), dim_seen.end(), 0);
      for (const ElementId c : s.collectors[v]) {
        if (collector_in[c].empty()) {
          return fail("collector with no inputs");
        }
        std::int32_t level = -2;
        for (const ElementId src : collector_in[c]) {
          std::int32_t in_level = -1;
          if (slots[src].role == Role::kMatch) {
            in_level = 0;
            const std::size_t dim = slots[src].pos;
            if (dim_seen[dim] != 0) {
              return fail("lane collects a dimension more than once");
            }
            dim_seen[dim] = 1;
            lanes.lane_class[lane * dims + dim] = elem_class[src];
          } else {
            in_level = collector_level[src];
          }
          if (in_level < 0 || (level != -2 && in_level != level)) {
            return fail("collector tree depth is not uniform");
          }
          level = in_level;
        }
        collector_level[c] = level + 1;
        const bool is_root = (saw[c] & kSawSecond) != 0;
        if (is_root !=
            (collector_level[c] == static_cast<std::int32_t>(levels))) {
          return fail("collector root depth != collector_levels");
        }
      }
      for (std::size_t i = 0; i < dims; ++i) {
        if (dim_seen[i] == 0) {
          return fail("lane does not collect every dimension");
        }
      }
      if (lane_sort_enable[lane] == 0 || lane_eof_reset[lane] == 0) {
        return fail("lane counter is missing its sort enable or eof reset");
      }
      lanes.report_elem[lane] = s.reports[v];
      lanes.report_code[lane] = network.element(s.reports[v]).report_code;
    }
  }

  // Required out-edges present?
  for (ElementId id = 0; id < network.size(); ++id) {
    std::uint8_t need = 0;
    switch (slots[id].role) {
      case Role::kGuard: need = kSawFirst | kSawSecond; break;
      case Role::kChain:
        need = slots[id].pos + 1 < dims ? (kSawFirst | kSawSecond) : kSawFirst;
        break;
      case Role::kMatch:
        if (has_driver[id] == 0) {
          return fail("value state is not driven by the wavefront");
        }
        need = kSawFirst;
        break;
      case Role::kCollector: need = kSawFirst; break;
      case Role::kBridge: need = kSawFirst; break;
      case Role::kSort: need = kSawFirst | kSawSecond | kSawThird; break;
      case Role::kEof: need = kSawFirst; break;
      case Role::kCounter: need = kSawFirst; break;
      case Role::kReport:
      case Role::kUnassigned: need = 0; break;
    }
    if ((saw[id] & need) != need) {
      return fail("macro group is missing a required connection");
    }
  }

  lanes.family = packed ? MacroFamily::kPacked
                        : detect_hamming_family(lanes.classes);
  return compile_lanes(lanes);
}

// ---------------------------------------------------------------------------
// Back-end: lane table -> packed program.
// ---------------------------------------------------------------------------

std::shared_ptr<const BatchProgram> BatchProgram::compile_lanes(
    const LaneTable& lanes) {
  const std::size_t n = lanes.lanes;
  const std::size_t dims = lanes.dims;
  const std::size_t words = (n + 63) / 64;

  BatchProgramState state;
  state.family = lanes.family;
  state.lanes = n;
  state.dims = dims;
  state.levels = lanes.levels;
  state.class_count = lanes.classes.size();
  state.sof = static_cast<std::uint8_t>(lanes.sof);
  state.eof = static_cast<std::uint8_t>(lanes.eof);
  for (int sym = 0; sym < 256; ++sym) {
    const auto s = static_cast<std::uint8_t>(sym);
    std::uint16_t accept = 0;
    for (std::size_t c = 0; c < lanes.classes.size(); ++c) {
      if (lanes.classes[c].test(s)) {
        accept |= static_cast<std::uint16_t>(1u << c);
      }
    }
    state.sym_classes[s] = accept;
  }
  state.dim_rows.assign(dims * state.class_count * words, 0);
  for (std::size_t l = 0; l < n; ++l) {
    for (std::size_t i = 0; i < dims; ++i) {
      const std::size_t c = lanes.lane_class[l * dims + i];
      state.dim_rows[(i * state.class_count + c) * words + l / 64] |=
          std::uint64_t{1} << (l % 64);
    }
  }
  state.report_elem = lanes.report_elem;
  state.report_code = lanes.report_code;
  // Funnel through from_state so the invariants it enforces on artifact
  // load also hold for every freshly compiled program (a violation here
  // would be a recognizer bug, surfaced as a decline).
  return from_state(state, nullptr);
}

std::shared_ptr<const BatchProgram> BatchProgram::from_state(
    const BatchProgramState& s, std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      *error = "batch program state: " + why;
    }
    return std::shared_ptr<const BatchProgram>{};
  };

  // Caps keep every derived size computation comfortably inside 64 bits
  // (dims * classes * words <= 2^20 * 2^4 * 2^20) and far beyond any board.
  constexpr std::uint64_t kMaxLanes = std::uint64_t{1} << 26;
  constexpr std::uint64_t kMaxDims = std::uint64_t{1} << 20;
  if (static_cast<std::uint8_t>(s.family) >
      static_cast<std::uint8_t>(MacroFamily::kMultiplexed)) {
    return fail("unknown macro family");
  }
  if (s.lanes == 0 || s.lanes > kMaxLanes) {
    return fail("lane count outside [1, 2^26]");
  }
  if (s.dims == 0 || s.dims > kMaxDims) {
    return fail("dimension count outside [1, 2^20]");
  }
  if (s.levels == 0 || s.levels > 63) {
    return fail("collector depth outside [1, 63]");
  }
  if (s.class_count == 0 || s.class_count > kMaxBatchMatchClasses) {
    return fail("match class count outside [1, " +
                std::to_string(kMaxBatchMatchClasses) + "]");
  }
  if (s.sof == s.eof) {
    return fail("guard and eof symbols are identical");
  }
  const auto class_mask = static_cast<std::uint16_t>(
      (std::uint32_t{1} << s.class_count) - 1);
  for (int sym = 0; sym < 256; ++sym) {
    if ((s.sym_classes[static_cast<std::size_t>(sym)] & ~class_mask) != 0) {
      return fail("symbol classifier references an out-of-range class");
    }
  }
  const std::uint64_t words = (s.lanes + 63) / 64;
  if (s.dim_rows.size() != s.dims * s.class_count * words) {
    return fail("lane-mask row table size does not match the geometry");
  }
  if (s.report_elem.size() != s.lanes || s.report_code.size() != s.lanes) {
    return fail("report tables do not hold one entry per lane");
  }
  const std::uint64_t valid_tail = (s.lanes % 64)
                                       ? (std::uint64_t{1} << (s.lanes % 64)) - 1
                                       : ~std::uint64_t{0};
  // Partition property: at every dimension the class rows must cover each
  // live lane exactly once and touch no dead tail bits — the execution
  // loop's no-masking fast path depends on it.
  for (std::uint64_t i = 0; i < s.dims; ++i) {
    for (std::uint64_t w = 0; w < words; ++w) {
      std::uint64_t seen = 0;
      for (std::uint64_t c = 0; c < s.class_count; ++c) {
        const std::uint64_t row = s.dim_rows[(i * s.class_count + c) * words + w];
        if ((row & seen) != 0) {
          return fail("a lane carries two classes at one dimension");
        }
        seen |= row;
      }
      const std::uint64_t valid = w + 1 == words ? valid_tail
                                                 : ~std::uint64_t{0};
      if (seen != valid) {
        return fail((seen & ~valid) != 0
                        ? "lane-mask rows set bits beyond the live lanes"
                        : "a lane has no class at one dimension");
      }
    }
  }

  auto prog = std::shared_ptr<BatchProgram>(new BatchProgram());
  prog->family_ = s.family;
  prog->macro_count_ = static_cast<std::size_t>(s.lanes);
  prog->dims_ = static_cast<std::size_t>(s.dims);
  prog->levels_ = static_cast<std::size_t>(s.levels);
  prog->words_ = static_cast<std::size_t>(words);
  prog->row_stride_ =
      (prog->words_ + kLaneBlockWords - 1) / kLaneBlockWords * kLaneBlockWords;
  prog->dim_words_ = static_cast<std::size_t>((s.dims + 63) / 64);
  prog->class_count_ = static_cast<std::size_t>(s.class_count);
  prog->valid_tail_ = valid_tail;
  prog->chain_tail_ = (s.dims % 64) ? (std::uint64_t{1} << (s.dims % 64)) - 1
                                    : ~std::uint64_t{0};
  prog->sof_ = s.sof;
  prog->eof_ = s.eof;
  prog->sym_classes_ = s.sym_classes;
  // Re-pack the canonical rows into the padded in-memory layout: every row
  // widens from words_ to row_stride_ 64-bit words, pad words zero, so any
  // execution width up to 512 bits can sweep whole rows untailed. This is
  // the only transform between the serialized image and execution — the
  // layout of the live words is unchanged (lane l at word l/64, bit l%64).
  prog->dim_rows_.assign(s.dims * s.class_count * prog->row_stride_, 0);
  for (std::uint64_t r = 0; r < s.dims * s.class_count; ++r) {
    std::copy_n(s.dim_rows.begin() + static_cast<std::ptrdiff_t>(r * words),
                words, prog->dim_rows_.begin() +
                           static_cast<std::ptrdiff_t>(r * prog->row_stride_));
  }
  prog->valid_.assign(prog->row_stride_, 0);
  for (std::size_t w = 0; w < prog->words_; ++w) {
    prog->valid_[w] = w + 1 == prog->words_ ? valid_tail : ~std::uint64_t{0};
  }
  prog->dim_used_.assign(prog->dims_, 0);
  for (std::size_t i = 0; i < prog->dims_; ++i) {
    for (std::size_t c = 0; c < prog->class_count_; ++c) {
      const std::uint64_t* row =
          &prog->dim_rows_[(i * prog->class_count_ + c) * prog->row_stride_];
      for (std::size_t w = 0; w < prog->words_; ++w) {
        if (row[w] != 0) {
          prog->dim_used_[i] |= static_cast<std::uint16_t>(1u << c);
          break;
        }
      }
    }
  }
  prog->report_elem_ = s.report_elem;
  prog->report_code_ = s.report_code;

  // Counter planes: biased so that count >= dims <=> a bit at plane >= P.
  const auto p = static_cast<std::uint32_t>(std::bit_width(s.dims - 1));
  prog->cond_plane_ = p;
  prog->planes_ = p + 2;
  prog->bias_ = (std::uint64_t{1} << p) - s.dims;
  return prog;
}

BatchProgramState BatchProgram::state() const {
  BatchProgramState s;
  s.family = family_;
  s.lanes = macro_count_;
  s.dims = dims_;
  s.levels = levels_;
  s.class_count = class_count_;
  s.sof = sof_;
  s.eof = eof_;
  s.sym_classes = sym_classes_;
  // Un-pad back to the canonical words_-sized rows: the serialized image
  // (and therefore the artifact format) is independent of the in-memory
  // stride and of any lane width.
  s.dim_rows.assign(dims_ * class_count_ * words_, 0);
  for (std::size_t r = 0; r < dims_ * class_count_; ++r) {
    std::copy_n(dim_rows_.begin() + static_cast<std::ptrdiff_t>(
                                        r * row_stride_),
                words_,
                s.dim_rows.begin() + static_cast<std::ptrdiff_t>(r * words_));
  }
  s.report_elem = report_elem_;
  s.report_code = report_code_;
  return s;
}

BatchSimulator::BatchSimulator(std::shared_ptr<const BatchProgram> program,
                               LaneWidth lane_width)
    : program_(std::move(program)) {
  if (program_ == nullptr) {
    throw std::invalid_argument(
        "BatchSimulator: null program (try_compile declined?)");
  }
  const BatchProgram& p = *program_;
  kernels_ = resolve_lane_kernels(lane_width);
  // Words swept per cycle: the canonical count rounded up to this width's
  // block. The program pads its rows and valid masks to kLaneBlockWords
  // (>= any block), so the sweep never reads past storage, the pad words
  // are zero, and the 64-bit path does exactly the work it always did.
  const std::size_t block = kernels_.block_words();
  eff_words_ = (p.words_ + block - 1) / block * block;
  chain_.assign(p.dim_words_, 0);
  match_ring_.assign(p.levels_ * eff_words_, 0);
  planes_.assign(p.planes_ * eff_words_, 0);
  cond_prev_.assign(eff_words_, 0);
  pulse_.assign(eff_words_, 0);
  counter_out_.assign(eff_words_, 0);
  match_scratch_.assign(eff_words_, 0);
  frame_rows_.assign(p.dims_ * p.class_count_, nullptr);
  tie_.assign(p.words_, 0);
  above_.assign(p.words_, 0);
  counts_.assign(count_row_planes(p.dims_ * p.class_count_) * eff_words_, 0);
  reset();
}

void BatchSimulator::reset() {
  const BatchProgram& p = *program_;
  cycle_ = 0;
  cycles_skipped_ = 0;
  reports_skipped_ = 0;
  reports_.clear();
  guard_prev_ = false;
  sort_prev_ = false;
  bridge_ = 0;
  ring_pos_ = 0;
  std::fill(chain_.begin(), chain_.end(), 0);
  std::fill(match_ring_.begin(), match_ring_.end(), 0);
  std::fill(cond_prev_.begin(), cond_prev_.end(), 0);
  std::fill(pulse_.begin(), pulse_.end(), 0);
  std::fill(counter_out_.begin(), counter_out_.end(), 0);
  for (std::uint32_t q = 0; q < p.planes_; ++q) {
    const bool bias_bit = (p.bias_ >> q) & 1;
    for (std::size_t w = 0; w < eff_words_; ++w) {
      planes_[q * eff_words_ + w] = bias_bit ? p.valid_[w] : 0;
    }
  }
}

void BatchSimulator::step(std::uint8_t symbol) {
  const BatchProgram& p = *program_;
  const std::size_t words = p.words_;
  ++cycle_;

  // 1. Report states: enabled by the counter outputs of the previous cycle
  //    and matching every symbol. Ascending lane order matches the
  //    reference simulator's counter-slot propagation order.
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = counter_out_[w];
    while (bits != 0) {
      const std::size_t m = w * 64 + static_cast<std::size_t>(
                                          std::countr_zero(bits));
      bits &= bits - 1;
      reports_.push_back({cycle_, p.report_elem_[m], p.report_code_[m]});
    }
  }
  // 2. Counter outputs THIS cycle = the pulses staged at the end of the
  //    previous cycle (pulse mode: one cycle, then gone).
  counter_out_.swap(pulse_);

  // 3. Scalar (lane-uniform) state: guard, backbone wavefronts, bridge,
  //    sort, eof. The backbone doubles as the match-enable mask: dim i's
  //    matching states share their predecessor with chain state i.
  const bool guard_now = symbol == p.sof_;
  const std::uint64_t chain_top =
      (chain_[p.dim_words_ - 1] >> ((p.dims_ - 1) & 63)) & 1;
  std::uint64_t carry = guard_prev_ ? 1 : 0;
  for (std::size_t w = 0; w < p.dim_words_; ++w) {
    const std::uint64_t next_carry = chain_[w] >> 63;
    chain_[w] = (chain_[w] << 1) | carry;
    carry = next_carry;
  }
  chain_[p.dim_words_ - 1] &= p.chain_tail_;
  guard_prev_ = guard_now;

  const bool bridge_out = (bridge_ >> (p.levels_ - 1)) & 1;
  const bool sort_now = symbol != p.eof_ && (bridge_out || sort_prev_);
  const bool eof_now = symbol == p.eof_ && sort_prev_;
  bridge_ = ((bridge_ << 1) | chain_top) &
            ((std::uint64_t{1} << p.levels_) - 1);

  // 4. Packed match word: OR the lane-mask rows of every (enabled
  //    dimension, accepted class) pair. The rows of one dimension
  //    partition the live lanes, so no complement or tail masking is
  //    needed; usually exactly one dimension (the wavefront) is enabled.
  //    Rows live at stride row_stride_ and are zero-padded, so the kernel
  //    sweeps eff_words_ whole blocks.
  std::fill(match_scratch_.begin(), match_scratch_.end(), 0);
  const std::uint16_t accept = p.sym_classes_[symbol];
  if (accept != 0) {
    for (std::size_t w = 0; w < p.dim_words_; ++w) {
      std::uint64_t bits = chain_[w];
      while (bits != 0) {
        const std::size_t dim = w * 64 + static_cast<std::size_t>(
                                             std::countr_zero(bits));
        bits &= bits - 1;
        std::uint16_t hit = accept & p.dim_used_[dim];
        const std::uint64_t* rows =
            &p.dim_rows_[dim * p.class_count_ * p.row_stride_];
        while (hit != 0) {
          const auto c = static_cast<std::size_t>(std::countr_zero(hit));
          hit &= static_cast<std::uint16_t>(hit - 1);
          kernels_.or_rows(match_scratch_.data(), rows + c * p.row_stride_,
                           eff_words_);
        }
      }
    }
  }

  // 5. Counter updates. The collector tree delays the ORed match word by L
  //    cycles (ring buffer); the sort/eof states add uniform enable/reset.
  //    Counts are bit-sliced: ripple-carry add of the packed increment mask,
  //    saturating adds past the top plane (only >= threshold is observable).
  //    The kernel executes the whole dataflow one lane-word block at a
  //    time (see lane_kernels_impl.hpp); padding lanes have valid = 0, so
  //    they never increment, reset or pulse.
  LaneCounterCtx ctx;
  ctx.ring = &match_ring_[ring_pos_ * eff_words_];
  ctx.scratch = match_scratch_.data();
  ctx.planes = planes_.data();
  ctx.cond_prev = cond_prev_.data();
  ctx.pulse = pulse_.data();
  ctx.valid = p.valid_.data();
  ctx.words = eff_words_;
  ctx.plane_count = p.planes_;
  ctx.cond_plane = p.cond_plane_;
  ctx.bias = p.bias_;
  ctx.sort_now = sort_now;
  ctx.eof_now = eof_now;
  kernels_.counter_update(ctx);
  ring_pos_ = (ring_pos_ + 1) % p.levels_;
  sort_prev_ = sort_now;
}

std::vector<ReportEvent> BatchSimulator::run(
    std::span<const std::uint8_t> stream) {
  reset();
  return run_continue(stream);
}

std::vector<ReportEvent> BatchSimulator::run_continue(
    std::span<const std::uint8_t> stream) {
  const std::size_t first_new = reports_.size();
  for (const std::uint8_t symbol : stream) {
    step(symbol);
  }
  return {reports_.begin() + static_cast<std::ptrdiff_t>(first_new),
          reports_.end()};
}

std::vector<ReportEvent> BatchSimulator::run(
    std::span<const std::uint8_t> stream, const util::RunControl& control) {
  reset();
  return run_continue(stream, control);
}

std::vector<ReportEvent> BatchSimulator::run_continue(
    std::span<const std::uint8_t> stream, const util::RunControl& control) {
  if (!control.engaged() && !util::FaultInjector::armed()) {
    return run_continue(stream);
  }
  const std::size_t first_new = reports_.size();
  const std::uint64_t period =
      control.checkpoint_period > 0 ? control.checkpoint_period : stream.size();
  std::uint64_t since = 0;
  for (const std::uint8_t symbol : stream) {
    step(symbol);
    if (++since >= period) {
      since = 0;
      control.checkpoint();
      util::FaultInjector::check(util::kFaultBatchFrame, control.fault_key);
    }
  }
  return {reports_.begin() + static_cast<std::ptrdiff_t>(first_new),
          reports_.end()};
}

std::size_t BatchSimulator::emit_frame(std::size_t frame,
                                       std::size_t max_count,
                                       std::size_t frame_cycles,
                                       std::size_t keep,
                                       const NeighborSink* sink) {
  const BatchProgram& p = *program_;
  // Counts never exceed max_count, so only its bit_width low planes of
  // counts_ can be set.
  const auto count_planes =
      static_cast<std::size_t>(std::bit_width(max_count));
  const auto plane = [&](std::size_t q, std::size_t w) {
    return counts_[q * eff_words_ + w];
  };
  // 1. The cut count: the rank-th largest count, rank = min(keep, lanes),
  //    selected bit-serially from the top plane down. tie_ holds the lanes
  //    whose count matches the cut on the planes decided so far, above_
  //    the lanes already known to count more.
  const std::size_t rank = std::min(keep, p.macro_count_);
  std::size_t cut = 0;
  std::size_t larger = 0;
  std::copy_n(p.valid_.begin(), p.words_, tie_.begin());
  std::fill(above_.begin(), above_.end(), 0);
  for (std::size_t q = count_planes; q-- > 0;) {
    std::size_t with_bit = 0;
    for (std::size_t w = 0; w < p.words_; ++w) {
      with_bit +=
          static_cast<std::size_t>(std::popcount(tie_[w] & plane(q, w)));
    }
    const bool set = larger + with_bit >= rank;
    if (set) {
      cut |= std::size_t{1} << q;
    } else {
      larger += with_bit;
    }
    for (std::size_t w = 0; w < p.words_; ++w) {
      const std::uint64_t bit = tie_[w] & plane(q, w);
      above_[w] |= set ? 0 : bit;
      tie_[w] = set ? bit : tie_[w] & ~bit;
    }
  }
  // 2. Every lane counting >= cut reports, count h at frame offset
  //    frame_cycles - h: larger counts first, ascending lanes within a
  //    count. A counting sort over h, one bucket run per slot (the sink's
  //    query within the frame; events have one slot): slot s's bucket for
  //    h is level_end_[s * (levels + 1) + max_count - h + 1].
  const std::size_t levels = max_count - cut + 1;
  const std::size_t slots = sink != nullptr ? sink->slots : 1;
  const bool slotted = sink != nullptr && !sink->lane_slot.empty();
  const auto slot_of = [&](std::size_t lane) -> std::size_t {
    return slotted ? sink->lane_slot[lane] : 0;
  };
  ranked_.clear();
  level_end_.assign(slots * (levels + 1), 0);
  std::uint64_t word_planes[64] = {};  // count_planes <= bit_width(size_t)
  for (std::size_t w = 0; w < p.words_; ++w) {
    const std::uint64_t reported = above_[w] | tie_[w];
    if (reported == 0) {
      continue;
    }
    for (std::size_t q = 0; q < count_planes; ++q) {
      word_planes[q] = plane(q, w);
    }
    // Lanes come eight at a time: their counts are the columns of an 8x8
    // bit matrix per eight planes, whose transpose holds one count byte per
    // lane.
    for (std::size_t k = 0; k < 64; k += 8) {
      std::uint64_t bits = (reported >> k) & 0xff;
      if (bits == 0) {
        continue;
      }
      std::size_t counts[8] = {};
      for (std::size_t g = 0; g < count_planes; g += 8) {
        std::uint64_t rows = 0;
        for (std::size_t i = 0; i < 8 && g + i < count_planes; ++i) {
          rows |= ((word_planes[g + i] >> k) & 0xff) << (8 * i);
        }
        const std::uint64_t cols = transpose8x8(rows);
        for (std::size_t j = 0; j < 8; ++j) {
          counts[j] |= static_cast<std::size_t>((cols >> (8 * j)) & 0xff)
                       << g;
        }
      }
      while (bits != 0) {
        const auto j = static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        const std::size_t lane = w * 64 + k + j;
        ranked_.push_back({lane, counts[j]});
        ++level_end_[slot_of(lane) * (levels + 1) + max_count - counts[j] +
                     1];
      }
    }
  }
  for (std::size_t s = 0; s < slots; ++s) {
    std::size_t* ends = &level_end_[s * (levels + 1)];
    for (std::size_t i = 1; i <= levels; ++i) {
      ends[i] += ends[i - 1];
    }
  }
  if (sink == nullptr) {
    const std::size_t first = reports_.size();
    reports_.resize(first + ranked_.size());
    for (const auto& [lane, h] : ranked_) {
      reports_[first + level_end_[max_count - h]++] = {
          cycle_ + frame_cycles - h, p.report_elem_[lane],
          p.report_code_[lane]};
    }
  } else {
    // Each slot's list takes the first `limit` of its reports: the report
    // of rank r within its slot lands at r, or nowhere once r >= limit.
    for (std::size_t s = 0; s < slots; ++s) {
      const std::size_t query = frame * slots + s;
      slot_list_[s] = query < sink->lists.size() ? &sink->lists[query]
                                                 : nullptr;
      if (slot_list_[s] != nullptr) {
        slot_list_[s]->resize(
            std::min(sink->limit, level_end_[s * (levels + 1) + levels]));
      }
    }
    for (const auto& [lane, h] : ranked_) {
      const std::size_t s = slot_of(lane);
      const std::size_t r = level_end_[s * (levels + 1) + max_count - h]++;
      if (slot_list_[s] != nullptr && r < sink->limit) {
        (*slot_list_[s])[r] = {sink->lane_id[lane],
                               static_cast<std::uint32_t>(p.dims_ - h)};
      }
    }
  }
  // With keep > lanes no report is the keep-th: the frame runs to its end.
  return keep <= p.macro_count_ ? cut : 0;
}

std::vector<ReportEvent> BatchSimulator::run_frames(
    std::span<const std::uint8_t> stream, std::size_t frame_cycles,
    std::size_t keep, const util::RunControl& control) {
  run_frames_to(stream, frame_cycles, keep, nullptr, control);
  return reports_;
}

std::uint64_t BatchSimulator::run_frames(std::span<const std::uint8_t> stream,
                                         std::size_t frame_cycles,
                                         std::size_t keep,
                                         const NeighborSink& sink,
                                         const util::RunControl& control) {
  const std::size_t lanes = program_->macro_count_;
  const bool slots_ok =
      sink.lane_slot.empty() ||
      (sink.lane_slot.size() == lanes &&
       std::all_of(sink.lane_slot.begin(), sink.lane_slot.end(),
                   [&](std::uint8_t s) { return s < sink.slots; }));
  if (sink.lane_id.size() != lanes || !slots_ok || sink.slots == 0 ||
      sink.limit == 0) {
    throw std::invalid_argument(
        "BatchSimulator::run_frames: the sink needs one id (and at most one "
        "in-range slot) per lane, slots >= 1 and limit >= 1");
  }
  slot_list_.assign(sink.slots, nullptr);
  return run_frames_to(stream, frame_cycles, keep, &sink, control);
}

std::uint64_t BatchSimulator::run_frames_to(
    std::span<const std::uint8_t> stream, std::size_t frame_cycles,
    std::size_t keep, const NeighborSink* sink,
    const util::RunControl& control) {
  const BatchProgram& p = *program_;
  if (keep == 0 || frame_cycles == 0 || stream.size() % frame_cycles != 0) {
    throw std::invalid_argument(
        "BatchSimulator::run_frames: needs keep >= 1 and a whole number of "
        "non-empty frames");
  }
  if (frame_cycles != 2 * p.dims_ + p.levels_ + 3) {
    throw std::invalid_argument(
        "BatchSimulator::run_frames: frame_cycles " +
        std::to_string(frame_cycles) + " is not 2*dims+levels+3 = " +
        std::to_string(2 * p.dims_ + p.levels_ + 3));
  }
  for (std::size_t begin = 0; begin < stream.size(); begin += frame_cycles) {
    const std::uint8_t* interior = stream.data() + begin + 1;
    const std::size_t interior_size = frame_cycles - 2;
    if (stream[begin] != p.sof_ || stream[begin + frame_cycles - 1] != p.eof_ ||
        std::memchr(interior, p.sof_, interior_size) != nullptr ||
        std::memchr(interior, p.eof_, interior_size) != nullptr) {
      throw std::invalid_argument(
          "BatchSimulator::run_frames: frame at symbol " +
          std::to_string(begin) +
          " is not SOF, then no SOF or EOF, then EOF");
    }
  }
  reset();
  // Closed form of one well-formed frame (docs/SIMULATOR_SEMANTICS.md,
  // "Frame-bounded execution"): the frame starts in the reset() state, the
  // wavefront enables dimension i's matching states exactly at the
  // frame's symbol 1 + i, and the counter then reaches its threshold d at
  // frame cycle 2d+L-h, where h is the lane's match count. So every lane
  // reports exactly once, at frame offset frame_cycles - h, ties in
  // ascending lane order, and the frame ends in the reset() state again.
  // The counts come from one bit-sliced reduction of the matched rows; no
  // cycle is stepped.
  const std::size_t rows_stride = p.class_count_ * p.row_stride_;
  const bool polled = control.engaged() || util::FaultInjector::armed();
  const std::uint64_t period =
      control.checkpoint_period > 0 ? control.checkpoint_period : stream.size();
  std::uint64_t since = 0;
  std::uint64_t emitted = 0;
  for (std::size_t begin = 0; begin < stream.size(); begin += frame_cycles) {
    // Each dimension contributes the rows of the classes that accept its
    // data symbol. The rows of one dimension are disjoint, so summing them
    // equals counting their OR: one row per dimension for plain and packed
    // programs, one per slice for multiplexed ones.
    std::size_t n_rows = 0;
    for (std::size_t i = 0; i < p.dims_; ++i) {
      std::uint16_t hit =
          p.sym_classes_[stream[begin + 1 + i]] & p.dim_used_[i];
      const std::uint64_t* rows = &p.dim_rows_[i * rows_stride];
      while (hit != 0) {
        const auto c = static_cast<std::size_t>(std::countr_zero(hit));
        hit &= static_cast<std::uint16_t>(hit - 1);
        frame_rows_[n_rows++] = rows + c * p.row_stride_;
      }
    }
    kernels_.count_rows(frame_rows_.data(), n_rows, eff_words_,
                        counts_.data());
    cycles_skipped_ += emit_frame(begin / frame_cycles,
                                  std::min(p.dims_, n_rows), frame_cycles,
                                  keep, sink);
    emitted += ranked_.size();
    reports_skipped_ += p.macro_count_ - ranked_.size();
    cycle_ += frame_cycles;
    since += frame_cycles;
    if (polled && since >= period) {
      since = 0;
      control.checkpoint();
      util::FaultInjector::check(util::kFaultBatchFrame, control.fault_key);
    }
  }
  return emitted;
}

}  // namespace apss::apsim
