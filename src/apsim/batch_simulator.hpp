#pragma once
// Bit-parallel batch execution of homogeneous macro configurations (the
// Simultaneous-FA idea applied to the paper's Sec. III design): because
// every macro in a board configuration is structurally identical, the
// per-macro state fits ONE BIT per element slot, and a whole configuration
// advances with word-wide AND/OR/shift operations — 64 macros per machine
// word per operation.
//
// Three macro shapes compile (docs/OPTIMIZATIONS.md details each):
//
//  * the plain Hamming/sorting macro family (Figs. 2a/2b, one macro per
//    dataset vector — core::append_hamming_macro),
//  * the vector-packed shape (Fig. 5 / Sec. VI-A, several vectors overlaid
//    on a shared ladder — core::build_packed_network), and
//  * the stream-multiplexed shape (Fig. 6 / Sec. VI-B, per-bit-slice macro
//    replicas — core::build_multiplexed_network), which is the plain shape
//    with per-slice matching classes.
//
// One recognizer accepts all three: a plain or multiplexed macro is a
// packed group of one vector, so every configuration is verified as a
// span of groups (PackedGroupSlots) and reduced to the same compiled form,
// executed by one interpreter. A "lane" is one (counter, report) pair — a
// plain or multiplexed macro, or one packed vector within its group. What
// makes the execution exact (see docs/SIMULATOR_SEMANTICS.md for the
// contract):
//
//  * The "*" backbone, guard, bridge, sort and EOF states match classes that
//    do not depend on the encoded vector, so their activity is IDENTICAL
//    across lanes — a handful of scalar bits per cycle. (Packed groups share
//    these states physically; plain macros replicate them; either way the
//    activity is uniform.)
//  * Only the per-dimension matching states differ between lanes, and each
//    lane uses exactly one of at most kMaxBatchMatchClasses distinct symbol
//    classes per dimension (bit = 0 / bit = 1, per bit slice). A per-symbol
//    16-bit class-acceptance mask plus one packed lane mask per (dimension,
//    class) yields the packed match word in O(words) per enabled dimension.
//  * With the stock per-cycle counter-increment cap of 1, simultaneous
//    count-enable inputs OR together, so the collector reduction tree is
//    exactly an L-cycle delay line on the OR of the matching states: the
//    packed match word is pushed through a ring buffer of L word-vectors.
//    This holds per lane even when packed lanes share leaf states, because
//    every leaf-to-counter path in every lane's tree has length exactly L.
//  * The distance counters are bit-sliced: counts live in bit planes biased
//    by 2^P - threshold, so "count >= threshold" is a read of the top
//    planes, an increment is a ripple-carry add of a packed mask, and
//    counters that run past the representable range saturate (legal, since
//    only the >= threshold predicate and reset are observable here).
//
// The program compiler verifies all of this structurally and refuses
// anything else (counters with caps > 1, boolean gates, dynamic thresholds,
// foreign elements, irregular collector trees, lanes out of counter-id
// order...): callers fall back to the cycle-accurate apsim::Simulator,
// which stays the semantic reference. BatchSimulator emits bit-identical
// ReportEvent streams, including within-cycle ordering (ascending lane
// index == ascending counter element id, matching the reference
// simulator's counter-slot propagation order).

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "anml/network.hpp"
#include "apsim/lane_word.hpp"
#include "apsim/simulator.hpp"
#include "knn/exact.hpp"

namespace apss::apsim {

/// Most distinct matching-state symbol classes a compiled configuration may
/// use. Two (bit = 0 / bit = 1) cover the plain and packed shapes; stream
/// multiplexing needs two per bit slice (up to 14); 16 leaves headroom
/// while keeping the per-symbol acceptance mask one 16-bit word.
inline constexpr std::size_t kMaxBatchMatchClasses = 16;

/// Which macro shape a BatchProgram was compiled from. Execution is
/// shape-neutral; the family feeds engine statistics and fallback
/// reporting (core::BackendCompileStats), never dispatch.
enum class MacroFamily : std::uint8_t {
  kHamming,      ///< plain Hamming/sorting macros (Figs. 2a/2b)
  kPacked,       ///< vector-packed groups (Fig. 5 / Sec. VI-A)
  kMultiplexed,  ///< per-bit-slice macro replicas (Fig. 6 / Sec. VI-B)
};

const char* to_string(MacroFamily family) noexcept;

/// The complete stored state of a compiled BatchProgram — the
/// field-for-field image the on-disk artifact codec (src/artifact)
/// serializes. Derived quantities (word counts, tail masks, counter plane
/// layout) are intentionally absent: BatchProgram::from_state recomputes
/// them and revalidates every structural invariant, so no decoded byte
/// stream can construct a program that try_compile could not have
/// produced shape-wise (docs/ARTIFACTS.md specifies the invariants).
struct BatchProgramState {
  MacroFamily family = MacroFamily::kHamming;
  std::uint64_t lanes = 0;   ///< macro_count()
  std::uint64_t dims = 0;
  std::uint64_t levels = 1;  ///< collector tree depth L
  std::uint64_t class_count = 0;
  std::uint8_t sof = 0;
  std::uint8_t eof = 0;
  /// Per-symbol classifier: bit c = match class c accepts the symbol.
  std::array<std::uint16_t, 256> sym_classes{};
  /// dims x class_count x ceil(lanes/64) packed lane-mask rows; the rows of
  /// one dimension partition the live lanes.
  std::vector<std::uint64_t> dim_rows;
  std::vector<anml::ElementId> report_elem;  ///< per lane
  std::vector<std::uint32_t> report_code;    ///< per lane

  bool operator==(const BatchProgramState&) const = default;
};

/// Element ids of one macro group: the guard, backbone, bridge, sort and
/// EOF states are shared by every vector of the group; each vector keeps
/// its own collectors, counter and report (one LANE each). A vector-packed
/// group (core::PackedGroupLayout) has one lane per packed vector; a plain
/// or multiplexed macro (core::MacroLayout) is a group of one lane. See
/// core::packed_batch_slots(). Spans must stay valid for the try_compile
/// call only.
struct PackedGroupSlots {
  anml::ElementId guard = anml::kInvalidElement;
  std::span<const anml::ElementId> chain;  ///< shared "*" ladder, one per dim
  /// The value (matching) states, in the form of the caller's layout: a
  /// packed group lists the 1 or 2 distinct-value states of dimension i in
  /// value_states[i]; a macro has exactly one per dimension, match[i].
  /// Exactly one of the two is set, and it decides the program's family:
  /// kPacked for value_states, else plain or multiplexed by match class.
  std::span<const std::vector<anml::ElementId>> value_states;
  std::span<const anml::ElementId> match;
  std::span<const anml::ElementId> bridge;  ///< shared delay chain, L states
  anml::ElementId sort_state = anml::kInvalidElement;
  anml::ElementId eof_state = anml::kInvalidElement;
  std::span<const anml::ElementId> counters;  ///< one per lane
  std::span<const anml::ElementId> reports;   ///< one per lane
  /// Per lane: that lane's collector-tree nodes, level by level.
  std::span<const std::vector<anml::ElementId>> collectors;
  std::size_t collector_levels = 1;  ///< tree depth L (1 for flat collectors)

  bool packed() const noexcept { return !value_states.empty(); }
  /// Dimensions the value states cover.
  std::size_t value_dims() const noexcept {
    return packed() ? value_states.size() : match.size();
  }
  /// The value states of dimension i (i < value_dims()).
  std::span<const anml::ElementId> values(std::size_t i) const {
    return packed() ? std::span<const anml::ElementId>(value_states[i])
                    : match.subspan(i, 1);
  }
};

/// Immutable compiled form of one configuration: per-symbol class
/// acceptance mask, per-(dimension, class) lane masks, report identities,
/// counter plane layout. Shareable across threads; each worker wraps it in
/// its own BatchSimulator.
class BatchProgram {
 public:
  /// Whether the device features in `options` are ones this backend
  /// executes exactly (today: max_counter_increment == 1, so simultaneous
  /// count enables OR together). try_compile declines anything else with
  /// the reason this fills in; core::ApKnnEngine asks first, and builds
  /// the network for the cycle-accurate path when the answer is no.
  static bool supports(const SimOptions& options,
                       std::string* reason = nullptr);

  /// Verifies that (network, groups) is a supported homogeneous macro
  /// configuration under `options` and compiles it: every group must share
  /// the guard/backbone/bridge/sort/EOF structure, every lane's collector
  /// tree must reach its counter in exactly collector_levels steps covering
  /// each dimension exactly once, and lanes must appear in ascending
  /// counter-id order (the reference simulator's report order). Returns
  /// nullptr (and fills *reason when non-null) if any structural or feature
  /// requirement fails — callers then use the cycle-accurate Simulator.
  static std::shared_ptr<const BatchProgram> try_compile(
      const anml::AutomataNetwork& network,
      std::span<const PackedGroupSlots> groups, SimOptions options,
      std::string* reason = nullptr);

  /// Rebuilds a program from stored state (the artifact load path).
  /// Validates every invariant the compiler establishes — lane/dimension/
  /// class bounds, row-table geometry, the per-dimension class-partition
  /// property — and returns nullptr (filling *error when non-null) on any
  /// violation; a state that passes is indistinguishable from a freshly
  /// compiled program. try_compile funnels through this too, so the checks
  /// run on every compile, not only on load.
  static std::shared_ptr<const BatchProgram> from_state(
      const BatchProgramState& state, std::string* error = nullptr);

  /// The stored-state image of this program; from_state(state()) rebuilds
  /// an identical program (the round-trip property the artifact tests
  /// assert).
  BatchProgramState state() const;

  /// Lanes in the configuration (= macros for the plain/multiplexed
  /// shapes, = packed vectors summed over groups for the packed shape).
  std::size_t macro_count() const noexcept { return macro_count_; }
  /// Which macro shape this program was compiled from: kPacked for
  /// packed-group layouts; for macro layouts kMultiplexed when the
  /// matching classes are slice-ternary pairs spanning more than one bit
  /// slice (the Fig. 6 encoding), else kHamming.
  MacroFamily family() const noexcept { return family_; }
  std::size_t dims() const noexcept { return dims_; }
  std::size_t collector_levels() const noexcept { return levels_; }
  /// 64-bit words per packed lane mask.
  std::size_t words() const noexcept { return words_; }
  /// Distinct matching-state symbol classes (<= kMaxBatchMatchClasses).
  std::size_t match_classes() const noexcept { return class_count_; }
  /// Bit planes held per counter (bias + saturation headroom).
  std::size_t counter_planes() const noexcept { return planes_; }
  /// Per lane: the report code its report state carries.
  std::span<const std::uint32_t> report_codes() const noexcept {
    return report_code_;
  }

 private:
  friend class BatchSimulator;
  BatchProgram() = default;

  /// Recognizer output (defined in batch_simulator.cpp): try_compile
  /// reduces the verified structure to a lane table, and compile_lanes
  /// packs it into a program.
  struct LaneTable;
  static std::shared_ptr<const BatchProgram> compile_lanes(
      const LaneTable& lanes);

  MacroFamily family_ = MacroFamily::kHamming;
  std::size_t macro_count_ = 0;  ///< lanes
  std::size_t dims_ = 0;
  std::size_t levels_ = 1;
  std::size_t words_ = 0;  ///< canonical (unpadded) words per packed lane mask
  /// In-memory words per lane-mask row: words_ rounded up to kLaneBlockWords
  /// so every execution width (64/256/512) divides the storage. The pad
  /// words are zero — no live lane, no class bit, valid mask 0 — which is
  /// what makes them semantically invisible to the kernels. The serialized
  /// state() stays canonical (words_-sized rows), so artifacts never see
  /// the padding.
  std::size_t row_stride_ = 0;
  std::size_t dim_words_ = 0;  ///< words per packed dimension (chain) mask
  std::size_t class_count_ = 0;   ///< distinct matching classes
  std::uint64_t valid_tail_ = 0;  ///< live bits of the last lane word
  std::uint64_t chain_tail_ = 0;  ///< live bits of the last chain word
  std::uint8_t sof_ = 0;          ///< guard symbol (single-symbol class)
  std::uint8_t eof_ = 0;          ///< reset symbol (single-symbol class)
  /// Per-symbol classifier: bit c = match class c accepts the symbol.
  std::array<std::uint16_t, 256> sym_classes_{};
  /// Per dimension: bitmask of the classes some lane uses there.
  std::vector<std::uint16_t> dim_used_;
  /// dims_ x class_count_ x row_stride_: bit l of row (i, c) = lane l's
  /// dim-i matching state uses class c. Rows of one dimension partition the
  /// live lanes (every lane has exactly one class per dimension); the
  /// row_stride_ - words_ pad words of every row are zero.
  LaneWords dim_rows_;
  /// row_stride_ words: bit l = lane l is live (zero in the pad words).
  LaneWords valid_;
  std::vector<anml::ElementId> report_elem_;  ///< per lane
  std::vector<std::uint32_t> report_code_;    ///< per lane
  std::uint32_t planes_ = 0;      ///< Q: bit planes per counter
  std::uint32_t cond_plane_ = 0;  ///< P: planes >= P <=> count >= threshold
  std::uint64_t bias_ = 0;        ///< 2^P - threshold, loaded on reset
};

/// Where the sink form of BatchSimulator::run_frames delivers each frame's
/// reports: straight into per-query neighbour lists, with no ReportEvent
/// built (docs/SIMULATOR_SEMANTICS.md, "Frame-bounded execution"). Frame f
/// carries the queries f * slots .. f * slots + slots - 1. Lane l reports
/// for the query in slot lane_slot[l] of its frame (slot 0 when lane_slot
/// is empty) as neighbour lane_id[l], at distance dims - h for a lane that
/// matched h dimensions.
struct NeighborSink {
  std::span<const std::uint32_t> lane_id;   ///< per lane
  std::span<const std::uint8_t> lane_slot;  ///< per lane, or empty
  std::size_t slots = 1;                    ///< queries per frame
  /// Most neighbours per query: a list holds the first `limit` reports of
  /// its query in report order, i.e. ascending (distance, lane).
  std::size_t limit = 0;
  /// One list per query, each overwritten by the frame that carries it.
  /// Reports for queries past the end (the unused slots of a partial last
  /// frame) are dropped.
  std::span<std::vector<knn::Neighbor>> lists;
};

/// Executes a BatchProgram with the same streaming interface and the same
/// ReportEvent output as the cycle-accurate Simulator. Cheap to construct
/// (dynamic state only); create one per worker thread.
///
/// Two execution paths share the program: step()/run() advance one cycle
/// per symbol on any stream (the oracle), and run_frames() evaluates
/// well-formed query frames in closed form from per-lane match counts,
/// stepping nothing.
///
/// The execution lane width is a per-simulator choice (resolve_lane_kernels
/// decides SIMD vs portable at construction); the ReportEvent stream is
/// bit-identical at every width, so a program — or an artifact compiled at
/// one width — runs unchanged at any other.
class BatchSimulator {
 public:
  /// Throws std::invalid_argument on a null program (i.e. a try_compile
  /// result that declined — callers must fall back, not construct).
  /// `lane_width` picks the execution width; kAuto selects the widest
  /// SIMD-backed width this CPU + build supports (the 64-bit scalar path
  /// when none).
  explicit BatchSimulator(std::shared_ptr<const BatchProgram> program,
                          LaneWidth lane_width = LaneWidth::kAuto);

  /// Returns to the pre-stream state (cycle 0, all counts zero, no
  /// collected reports or skip counts).
  void reset();

  /// Consumes one symbol; advances to the next cycle.
  void step(std::uint8_t symbol);

  /// reset() + step over the whole stream; returns collected reports.
  std::vector<ReportEvent> run(std::span<const std::uint8_t> stream);

  /// Runs WITHOUT resetting first — streams are concatenable, matching
  /// Simulator::run_continue.
  std::vector<ReportEvent> run_continue(std::span<const std::uint8_t> stream);

  /// Checkpointed variants (same contract as Simulator::run(stream,
  /// control)): poll the deadline/cancellation token every
  /// `control.checkpoint_period` symbols and fire the "batch.frame" fault
  /// site. Uninstrumented-loop cost when the control is idle and no fault
  /// site is armed.
  std::vector<ReportEvent> run(std::span<const std::uint8_t> stream,
                               const util::RunControl& control);
  std::vector<ReportEvent> run_continue(std::span<const std::uint8_t> stream,
                                        const util::RunControl& control);

  /// Frame-bounded run (docs/SIMULATOR_SEMANTICS.md, "Frame-bounded
  /// execution"): reset(), then per `frame_cycles`-symbol frame of
  /// `stream`, the events run() would emit up to and including the cycle
  /// of the frame's `keep`-th report (every tie in that cycle included);
  /// with keep >= lanes they equal run() exactly. cycle() ends at
  /// stream.size().
  ///
  /// Evaluated in closed form, without stepping: on a well-formed frame a
  /// lane matching the frame's data symbols in h dimensions reports once,
  /// at frame offset frame_cycles - h, ties in ascending lane order. So
  /// each frame is one bit-sliced count of its matched lane-mask rows
  /// (LaneKernels::count_rows) and an emission by descending count.
  ///
  /// Throws std::invalid_argument when keep or frame_cycles is 0, the
  /// stream is not a whole number of frames, frame_cycles is not
  /// 2 * dims + levels + 3, or a frame does not start with the SOF symbol,
  /// end with the EOF symbol and hold neither in between. Every other
  /// symbol is legal anywhere inside a frame.
  ///
  /// Checkpoints and the "batch.frame" fault site fire at frame boundaries
  /// with every frame cycle counted as consumed — with checkpoint_period =
  /// frame_cycles, exactly once per frame, as in run(stream, control).
  std::vector<ReportEvent> run_frames(std::span<const std::uint8_t> stream,
                                      std::size_t frame_cycles,
                                      std::size_t keep,
                                      const util::RunControl& control = {});

  /// Sink form of run_frames: the same frames, checks, checkpoints and
  /// skip counts, but each frame's reports go to `sink` as neighbours and
  /// no ReportEvent is built. Per query, the list equals the first
  /// sink.limit of that query's events in the event form's order. When
  /// lane_id ascends with the lane within each slot (the engine's layouts),
  /// that is (distance, id) order, and the list equals
  /// core::TemporalSortDecoder's decode of the event form. Returns the
  /// reports emitted (the event form's event count); reports() stays
  /// empty. Throws std::invalid_argument as the event form does, or when
  /// the sink's tables do not hold one entry per lane, a slot is out of
  /// range, or slots or limit is 0.
  std::uint64_t run_frames(std::span<const std::uint8_t> stream,
                           std::size_t frame_cycles, std::size_t keep,
                           const NeighborSink& sink,
                           const util::RunControl& control = {});

  /// Host-side work the last run_frames() cut, per frame: the frame cycles
  /// after the cycle of its keep-th report, and the reports those cycles
  /// would have emitted (lanes minus the reports emitted). Zero after
  /// reset() and after run().
  std::uint64_t cycles_skipped() const noexcept { return cycles_skipped_; }
  std::uint64_t reports_skipped() const noexcept { return reports_skipped_; }

  std::uint64_t cycle() const noexcept { return cycle_; }
  const std::vector<ReportEvent>& reports() const noexcept { return reports_; }
  void clear_reports() { reports_.clear(); }
  const BatchProgram& program() const noexcept { return *program_; }

  /// The RESOLVED execution width (never kAuto) and its backing ISA
  /// ("scalar" | "portable" | "avx2" | "avx512").
  LaneWidth lane_width() const noexcept { return kernels_.width; }
  const char* lane_isa() const noexcept { return kernels_.isa; }
  bool lane_simd() const noexcept { return kernels_.simd; }

 private:
  /// Both forms of run_frames: the event form when sink is null. Returns
  /// the reports emitted.
  std::uint64_t run_frames_to(std::span<const std::uint8_t> stream,
                              std::size_t frame_cycles, std::size_t keep,
                              const NeighborSink* sink,
                              const util::RunControl& control);

  /// Emits closed-form frame `frame`'s reports from counts_ (see
  /// run_frames), whose counts are at most `max_count`: appended to
  /// reports_, or written to `sink` when non-null. Leaves the emitted
  /// (lane, count) pairs in ranked_. Returns the frame cycles it skipped:
  /// the count of the keep-th report's cycle, or 0 when keep > lanes.
  std::size_t emit_frame(std::size_t frame, std::size_t max_count,
                         std::size_t frame_cycles, std::size_t keep,
                         const NeighborSink* sink);

  std::shared_ptr<const BatchProgram> program_;
  LaneKernels kernels_;     ///< resolved hot-loop kernels (width + ISA)
  std::size_t eff_words_ = 0;  ///< words_ rounded up to the kernel block

  std::uint64_t cycle_ = 0;
  std::uint64_t cycles_skipped_ = 0;
  std::uint64_t reports_skipped_ = 0;
  bool guard_prev_ = false;  ///< guard output last cycle (scalar: uniform)
  bool sort_prev_ = false;   ///< sort-state output last cycle
  std::uint64_t bridge_ = 0;  ///< bridge-chain outputs last cycle, bit k = slot k
  std::vector<std::uint64_t> chain_;  ///< backbone outputs, bit i = dim i
  /// Ring of the last L packed match words (the collector delay line).
  LaneWords match_ring_;
  std::size_t ring_pos_ = 0;
  LaneWords planes_;       ///< Q x words: bit-sliced counts
  LaneWords cond_prev_;    ///< count condition last cycle
  LaneWords pulse_;        ///< staged counter pulse
  LaneWords counter_out_;  ///< counter outputs last cycle
  LaneWords match_scratch_;
  /// run_frames scratch: room for the matched lane-mask rows of one frame
  /// (at most every class of every dimension), and their per-lane count as
  /// bit planes (plane q at q * eff_words_).
  std::vector<const std::uint64_t*> frame_rows_;
  LaneWords counts_;
  /// emit_frame scratch: per-word lane masks of the cut selection, the
  /// emitted (lane, count) pairs with the counting sort's bucket ends, and
  /// the sink's list per slot (null for a dropped slot).
  std::vector<std::uint64_t> tie_;
  std::vector<std::uint64_t> above_;
  std::vector<std::pair<std::size_t, std::size_t>> ranked_;
  std::vector<std::size_t> level_end_;
  std::vector<std::vector<knn::Neighbor>*> slot_list_;
  std::vector<ReportEvent> reports_;
};

}  // namespace apss::apsim
