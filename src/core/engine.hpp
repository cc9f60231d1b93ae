#pragma once
// End-to-end AP kNN engine (Sec. III): partitions a dataset into
// board-configuration-sized chunks, builds one Hamming+sorting macro per
// vector (per vector and bit slice under the Sec. VI-B multiplexed layout),
// streams queries through a cycle-accurate simulation of every
// configuration, and merges per-configuration partial results on the host —
// exactly the partial-reconfiguration workflow of Sec. III-C.

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "anml/network.hpp"
#include "apsim/device.hpp"
#include "apsim/lane_word.hpp"
#include "apsim/placement.hpp"
#include "apsim/simulator.hpp"
#include "core/artifact_cache.hpp"
#include "core/hamming_macro.hpp"
#include "core/opt/vector_packing.hpp"
#include "core/stream.hpp"
#include "knn/dataset.hpp"
#include "knn/exact.hpp"
#include "util/cancellation.hpp"
#include "util/thread_pool.hpp"

namespace apss::apsim {
class BatchProgram;  // compiled bit-parallel form (apsim/batch_simulator.hpp)
}  // namespace apss::apsim

namespace apss::core {

/// Which simulator executes the compiled configurations in search().
enum class SimulationBackend {
  /// The frontier-based reference simulator (apsim::Simulator): supports
  /// every element kind and device feature; the semantic ground truth.
  kCycleAccurate,
  /// The packed 64-lanes-per-word fast path (apsim::BatchSimulator).
  /// Bit-identical report streams on homogeneous Hamming configurations —
  /// plain, vector-packed, and stream-multiplexed macro shapes alike; any
  /// configuration it cannot prove supported (counters capped above 1
  /// increment/cycle, boolean gates, dynamic thresholds, foreign elements)
  /// falls back to the cycle-accurate simulator, per configuration, with
  /// the decline reason recorded in EngineStats::backend.
  kBitParallel,
};

/// What search() does when a shard (configuration x query-frame range)
/// fails, times out, or is cancelled (docs/ROBUSTNESS.md).
enum class OnError : std::uint8_t {
  /// The first failure aborts the whole search: the exception unwinds to
  /// the caller through the pool's first-exception rethrow. The default —
  /// and byte-for-byte the pre-fault-tolerance behavior.
  kFailFast,
  /// Failed/timed-out/cancelled configurations are skipped; surviving
  /// configurations return normally with bit-identical results and report
  /// streams. Failures are reported per configuration in
  /// EngineStats::shard_status, never raised.
  kIsolate,
  /// Like kIsolate, but each failing shard is first retried up to
  /// EngineOptions::max_retries times (deadline expiry and cancellation
  /// are never retried — the budget is already gone).
  kRetry,
};

const char* to_string(OnError policy) noexcept;

/// Terminal state of one configuration after search() (worst state over
/// the configuration's shards).
enum class ShardState : std::uint8_t {
  kOk,        ///< every shard simulated on its primary backend
  /// The bit-parallel backend failed mid-search and the configuration was
  /// re-simulated on the cycle-accurate reference: results are still exact
  /// and bit-identical, just slower — degradation, not loss.
  kDegraded,
  kTimedOut,   ///< abandoned at a checkpoint after the deadline expired
  kCancelled,  ///< abandoned after CancellationToken::request_cancel()
  kFailed,     ///< a typed error survived every retry and fallback
};

const char* to_string(ShardState state) noexcept;

/// Per-configuration outcome of the last search(), surfaced through
/// EngineStats::shard_status and printed by apss_cli. Under kIsolate /
/// kRetry a non-ok state never aborts the search; under kFailFast the
/// first failure throws instead and statuses stay kOk.
struct ShardStatus {
  ShardState state = ShardState::kOk;
  /// First typed failure message observed for this configuration (empty
  /// when kOk; retained for kDegraded so the original fault stays visible).
  std::string error;
  /// Extra attempts spent on this configuration's shards (retries plus the
  /// degrade-to-cycle-accurate attempt).
  std::uint32_t retries = 0;

  bool operator==(const ShardStatus&) const = default;
};

/// Per-configuration compile outcome of the bit-parallel backend: which
/// simulator runs each configuration, by macro family, and why anything
/// fell back — so cycle-accurate fallbacks are visible (ISSUE 5), not
/// silent. Filled at engine construction; reported via EngineStats and
/// printed by `apss_cli knn --backend=bit`.
struct BackendCompileStats {
  std::size_t configurations = 0;  ///< total configurations built
  std::size_t bit_parallel = 0;    ///< compiled for apsim::BatchSimulator
  std::size_t fallback = 0;        ///< declined -> cycle-accurate path
  std::size_t hamming = 0;         ///< fast-path configs per macro family
  std::size_t packed = 0;
  std::size_t multiplexed = 0;
  /// Distinct try_compile decline reasons -> configuration counts (empty
  /// when nothing fell back or the backend is kCycleAccurate).
  std::vector<std::pair<std::string, std::size_t>> fallback_reasons;
  /// Compile-cache hit/miss/invalidation counters (all zero unless
  /// EngineOptions::artifact_cache_dir is set; see core/artifact_cache.hpp).
  ArtifactCacheStats artifact;
  /// Resolved execution lane width in bits (64/256/512) and its backing
  /// ISA ("scalar" | "portable" | "avx2" | "avx512") — what
  /// EngineOptions::lane_width resolved to on this CPU/build. Zero/empty
  /// when the backend is kCycleAccurate. Purely informational: programs and
  /// artifacts are width-agnostic, so this never keys the compile cache.
  std::size_t lane_width_bits = 0;
  std::string lane_isa;

  bool operator==(const BackendCompileStats&) const = default;
};

struct EngineOptions {
  apsim::DeviceConfig device = apsim::DeviceConfig::gen1();
  /// Board geometry backing ONE configuration (the paper measures a
  /// single-rank board; its capacity rule is 1024 x 128-dim vectors).
  apsim::DeviceGeometry board = apsim::DeviceGeometry::one_rank();
  HammingMacroOptions macro;
  apsim::PlacementOptions placement;
  /// Overrides the placement-derived capacity when nonzero (tests use this
  /// to force multi-configuration runs on small datasets).
  std::size_t max_vectors_per_config = 0;
  /// Worker pool for parallel compile + simulation. When null, the engine
  /// derives one from `threads` below.
  util::ThreadPool* pool = nullptr;
  /// Concurrency when `pool` is null: 0 (default) shares the process-wide
  /// pool (hardware concurrency), 1 runs fully serial, N >= 2 gives the
  /// engine a private pool so that N threads total (N-1 workers plus the
  /// submitting thread) run its shards. Surfaced as `apss_cli --threads=N`.
  /// Any setting yields bit-identical results: shards are merged in
  /// configuration/frame order, never completion order.
  std::size_t threads = 0;
  /// Upper bound on query frames per simulation shard; the engine refines
  /// the shard size downward so every thread gets several shards.
  std::size_t queries_per_chunk = 64;
  /// Retain the merged ReportEvent stream of the last search() — shard
  /// buffers rebased to each configuration's full query-stream timeline and
  /// concatenated in configuration/frame order (last_report_stream()).
  /// Off by default: the raw stream can dwarf the decoded results. Off
  /// also lets bit-parallel shards stop each frame after its k-th report's
  /// cycle (EngineStats::host_cycles_skipped); on, they emit every report
  /// of every frame.
  bool collect_report_stream = false;
  /// Simulation backend (default: the cycle-accurate reference).
  SimulationBackend backend = SimulationBackend::kCycleAccurate;
  /// Execution lane width for the kBitParallel backend: how many lanes each
  /// simulator word-operation advances. kAuto (default) resolves to the
  /// widest SIMD-backed width the CPU + build support (64-bit scalar when
  /// none); explicit widths always run — on a portable fallback when the
  /// SIMD variant is unavailable. Every width produces bit-identical
  /// results and report streams (the width-sweep differential contract);
  /// compiled programs and artifacts are width-agnostic. Surfaced as
  /// `apss_cli knn --lane-width=...`; APSS_DISABLE_SIMD=1 in the
  /// environment forces the portable fallback regardless of this setting.
  apsim::LaneWidth lane_width = apsim::LaneWidth::kAuto;
  /// When > 0, each configuration is built with the Sec. VI-A
  /// vector-packing transform — this many vectors overlay one shared
  /// ladder per group — instead of one macro per vector. Board capacity,
  /// streams, report codes and decoding are unchanged; the packed network
  /// just spends fewer STEs per vector.
  std::size_t packing_group_size = 0;
  /// Sec. VI-B symbol-stream multiplexing (Fig. 6) when > 1: each vector
  /// gets one macro per bit slice (report code MuxReportCode::encode(id,
  /// slice)) and each query frame carries up to `slices` queries, so q
  /// queries take ceil(q / slices) frames per configuration. Capacity,
  /// partitioning, the artifact cache, sharding and the failure policy are
  /// the ones every layout uses. 1 (default) is the plain design; values
  /// outside 1..kMaxSlices, or > 1 together with packing_group_size, throw
  /// std::invalid_argument.
  std::size_t slices = 1;
  /// Collector style for packed configurations. kTree (default) stays
  /// routable at high dimensionality; kFlat reproduces the paper's naive
  /// construction (fan-in = dims, "places but only partially routes").
  CollectorStyle packing_style = CollectorStyle::kTree;
  /// Ahead-of-time compile cache directory (created if absent). With the
  /// kBitParallel backend, each configuration first tries to LOAD its
  /// compiled program from a slot file here (skipping network construction
  /// and verification entirely); on a miss or invalidation it compiles
  /// fresh and saves the artifact. Outcomes are counted in
  /// EngineStats::backend.artifact. Empty (default) disables the cache; the
  /// kCycleAccurate backend ignores it (nothing is compiled).
  std::string artifact_cache_dir;
  /// Failure policy for search() shards (docs/ROBUSTNESS.md).
  OnError on_error = OnError::kFailFast;
  /// kRetry only: extra attempts per shard before the degrade/fail path.
  std::size_t max_retries = 2;
};

/// Host wall time of the last search(), by phase (seconds; zero from
/// project()). Measured on the host, never part of the device model.
struct PhaseTimes {
  double encode_s = 0;  ///< the query batch into one symbol stream
  /// Per-shard wall time (simulation plus the neighbour emission or the
  /// event decode, every attempt), summed over the shards in shard order:
  /// the work's single-thread cost, whatever the thread count.
  double simulate_s = 0;
  /// Outcome reduction, stats and the per-query merge of the
  /// configurations' lists.
  double merge_s = 0;
};

/// Cycle/report accounting for the device-time model (Sec. V).
struct EngineStats {
  std::size_t configurations = 0;
  std::size_t vectors_per_config = 0;  ///< capacity (last config may be smaller)
  std::size_t cycles_per_query = 0;    ///< one query frame, per configuration
  std::size_t queries = 0;
  /// Total across configurations: ceil(queries / slices) frames of
  /// cycles_per_query each, per configuration.
  std::size_t simulated_cycles = 0;
  /// Reports the DEVICE emits: every live lane (one per vector, or per
  /// vector and slice when multiplexed) reports once per frame.
  /// Counts the reports a frame-bounded shard skipped as well as the ones
  /// it emitted, so it does not depend on how the host simulated.
  std::size_t report_events = 0;
  /// Host-only: per bit-parallel frame, the frame cycles after the cycle of
  /// its k-th report, whose reports the closed-form frame evaluation
  /// (BatchSimulator::run_frames) does not emit because the frame's top-k
  /// is already decided. Zero with collect_report_stream or on the
  /// cycle-accurate path. Not device work: simulated_cycles and the device
  /// model never subtract it, and same_work() ignores it.
  std::size_t host_cycles_skipped = 0;
  /// Which backend compiled each configuration (and why any fell back).
  BackendCompileStats backend;
  /// Per-configuration fault-isolation outcome of the last search() (empty
  /// for project()). All-kOk in every healthy run; with an expired deadline
  /// or OnError::kIsolate/kRetry this is where failures are reported —
  /// simulated_cycles and report_events then count the SURVIVING
  /// configurations only.
  std::vector<ShardStatus> shard_status;
  /// Where the last search()'s host time went.
  PhaseTimes phases;

  /// Equal when two runs computed the same: every field but the wall-clock
  /// phases, so stats stay comparable across thread counts and runs.
  bool operator==(const EngineStats& o) const {
    return same_work(o) && host_cycles_skipped == o.host_cycles_skipped &&
           backend == o.backend && shard_status == o.shard_status;
  }

  /// Configurations whose results are in the returned neighbor lists
  /// (kOk + kDegraded).
  std::size_t surviving_configurations() const noexcept {
    std::size_t n = 0;
    for (const ShardStatus& s : shard_status) {
      n += s.state == ShardState::kOk || s.state == ShardState::kDegraded;
    }
    return shard_status.empty() ? configurations : n;
  }
  std::size_t count_state(ShardState state) const noexcept {
    std::size_t n = 0;
    for (const ShardStatus& s : shard_status) {
      n += s.state == state;
    }
    return n;
  }

  /// Backend-independent accounting equality: the two backends must do the
  /// SAME device work (cycles, reports, splits) even though `backend` and
  /// the host-only host_cycles_skipped legitimately differ between them.
  bool same_work(const EngineStats& o) const {
    return configurations == o.configurations &&
           vectors_per_config == o.vectors_per_config &&
           cycles_per_query == o.cycles_per_query && queries == o.queries &&
           simulated_cycles == o.simulated_cycles &&
           report_events == o.report_events;
  }

  /// Device busy time: every configuration streams every query frame.
  double compute_seconds(const apsim::DeviceTiming& t) const {
    return static_cast<double>(simulated_cycles) * t.cycle_seconds();
  }
  /// Reconfiguration time: one reconfig per configuration when the dataset
  /// needs more than one (matches the paper's large-dataset accounting).
  double reconfig_seconds(const apsim::DeviceTiming& t) const {
    return configurations > 1
               ? static_cast<double>(configurations) * t.reconfig_seconds
               : 0.0;
  }
  double total_seconds(const apsim::DeviceTiming& t) const {
    return compute_seconds(t) + reconfig_seconds(t);
  }
};

/// Per-call deadline and cancellation for one search(), polled at
/// query-frame boundaries: an expired deadline surfaces as
/// util::DeadlineExceeded (kFailFast) or ShardState::kTimedOut
/// (kIsolate/kRetry), a cancelled token as util::OperationCancelled or
/// ShardState::kCancelled. Null fields mean no budget / not cancellable;
/// both pointers must outlive the call. Per call rather than per engine, so
/// a long-lived engine (the serving layer's workers) carries per-request
/// budgets into the RunControl checkpoints.
struct SearchControl {
  const util::Deadline* deadline = nullptr;
  const util::CancellationToken* cancel = nullptr;
};

class ApKnnEngine {
 public:
  /// Compiles `dataset` into board configurations. The dataset is copied.
  ApKnnEngine(knn::BinaryDataset dataset, EngineOptions options = {});

  /// Exact kNN via simulated AP execution. Returns ascending-distance
  /// neighbor lists (global ids); fills `last_stats()`.
  std::vector<std::vector<knn::Neighbor>> search(
      const knn::BinaryDataset& queries, std::size_t k,
      const SearchControl& control = {});

  const EngineStats& last_stats() const noexcept { return stats_; }

  /// Merged ReportEvent stream of the last search() when
  /// EngineOptions::collect_report_stream is set (empty otherwise). The
  /// stream is bit-identical at any thread count — the differential
  /// contract the thread-sweep tests assert.
  const std::vector<apsim::ReportEvent>& last_report_stream() const noexcept {
    return report_stream_;
  }

  /// Threads search()/compile run on: pool workers + the submitting thread.
  std::size_t simulation_threads() const noexcept {
    return pool_ == nullptr ? 1 : pool_->size() + 1;
  }

  std::size_t configurations() const noexcept { return partitions_.size(); }
  /// Query frames each configuration streams for `q` queries:
  /// ceil(q / slices) — the Sec. VI-B throughput gain when multiplexed.
  std::size_t frames_for(std::size_t q) const noexcept {
    return (q + options_.slices - 1) / options_.slices;
  }
  std::size_t capacity_per_config() const noexcept { return capacity_; }
  const StreamSpec& stream_spec() const noexcept { return spec_; }

  /// Number of configurations the bit-parallel backend compiled (0 when the
  /// backend is kCycleAccurate or every configuration fell back).
  std::size_t bit_parallel_configurations() const noexcept;

  /// Per-configuration backend/fallback-reason counters collected while
  /// compiling (also embedded in every EngineStats this engine produces).
  const BackendCompileStats& backend_stats() const noexcept {
    return compile_stats_;
  }

  /// The compiled automata network of configuration `i` (for inspection,
  /// ANML export, and resource benches). Configurations satisfied from the
  /// artifact cache skip network construction, and a configuration the
  /// bit-parallel backend compiled drops its network once the program
  /// exists (only the cycle-accurate path simulates it); either way the
  /// network is rebuilt lazily — and deterministically — on first access,
  /// and then kept, since the caller holds a reference. search()'s degrade
  /// path (a cycle-accurate rerun of a failed bit-parallel shard) rebuilds
  /// it the same way and keeps it too: a failing configuration tends to
  /// degrade in several shards and calls, and each rebuild costs about as
  /// much as a compile. save_artifact() builds a dropped network only for
  /// its metadata and frees it again.
  /// Not safe to call concurrently with itself or placement() for the
  /// same `i`.
  const anml::AutomataNetwork& network(std::size_t i) const;

  /// Placement report of configuration `i` on the configured board.
  apsim::PlacementResult placement(std::size_t i) const;

  /// Compiled bit-parallel program of configuration `i` (null when that
  /// configuration runs cycle-accurate).
  std::shared_ptr<const apsim::BatchProgram> program(std::size_t i) const {
    return partitions_.at(i).program;
  }

  /// Compile-input key of configuration `i`: the hash an artifact must
  /// carry for the cache to accept it (docs/ARTIFACTS.md "Key hash").
  std::uint64_t artifact_key(std::size_t i) const;

  /// Slot file the cache uses for configuration `i`; empty when
  /// EngineOptions::artifact_cache_dir is unset.
  std::string artifact_cache_file(std::size_t i) const;

  /// Writes configuration `i`'s compiled program (plus provenance metadata)
  /// to `path` as an artifact. Fails — with a message in *error — when the
  /// configuration has no bit-parallel program.
  bool save_artifact(std::size_t i, const std::string& path,
                     std::string* error = nullptr) const;

  /// Analytic cycle/report model WITHOUT simulating (used to project large
  /// workloads); mirrors the accounting search() performs.
  EngineStats project(std::size_t query_count) const;

  /// Sustained report bandwidth model of Sec. VI-C: 32*(n*slices + d) bits
  /// per query frame every cycles_per_query; returns Gbit/s.
  double report_bandwidth_gbps() const;

 private:
  struct Partition {
    std::size_t begin = 0;  ///< first global vector id
    std::size_t count = 0;
    /// Null whenever `program` is set (an artifact-cache hit never builds
    /// it; a fresh compile drops it) until network()/placement() rebuild
    /// it lazily (mutable: rebuilding does not change observable state —
    /// construction is deterministic, so the rebuilt network is the one the
    /// compile path would have produced).
    mutable std::unique_ptr<anml::AutomataNetwork> network;
    /// Compiled bit-parallel program; null = use the cycle-accurate path.
    std::shared_ptr<const apsim::BatchProgram> program;
  };

  /// Builds `p`'s configuration network (and the per-macro layouts when the
  /// out-params are non-null) from the dataset slice [p.begin, p.begin +
  /// p.count) — shared by the construction path, the lazy rebuild and the
  /// artifact meta.
  std::unique_ptr<anml::AutomataNetwork> build_network(
      const Partition& p, std::vector<MacroLayout>* hamming_layouts,
      std::vector<PackedGroupLayout>* packed_layouts) const;
  void ensure_network(const Partition& p) const;
  artifact::ArtifactMeta artifact_meta(const Partition& p) const;

  knn::BinaryDataset dataset_;
  EngineOptions options_;
  StreamSpec spec_;
  std::size_t capacity_ = 0;
  std::vector<Partition> partitions_;
  BackendCompileStats compile_stats_;
  EngineStats stats_;
  /// Resolved worker pool (options_.pool, the global pool, or owned_pool_;
  /// nullptr = serial) — see EngineOptions::threads.
  util::ThreadPool* pool_ = nullptr;
  std::unique_ptr<util::ThreadPool> owned_pool_;
  std::vector<apsim::ReportEvent> report_stream_;
};

}  // namespace apss::core
