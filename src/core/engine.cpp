#include "core/engine.hpp"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string_view>
#include <system_error>

#include "anml/anml_io.hpp"
#include "apsim/batch_simulator.hpp"
#include "core/lowering.hpp"
#include "core/opt/stream_multiplexing.hpp"
#include "core/temporal_decode.hpp"
#include "util/fault_injection.hpp"
#include "util/fnv.hpp"
#include "util/timer.hpp"

namespace apss::core {
namespace {

/// Builder tag: names the cache slot files and salts the compile-input key.
/// Layouts (plain, packed, multiplexed) share it; the key hashes the layout
/// options, so their artifacts can never satisfy each other.
constexpr std::string_view kEngineBuilder = "apss-knn-engine";

/// The configuration layout `options` selects.
ConfigurationLayout layout_of(const EngineOptions& options) {
  ConfigurationLayout layout;
  layout.macro = options.macro;
  layout.packing_group_size = options.packing_group_size;
  layout.packing_style = options.packing_style;
  layout.slices = options.slices;
  return layout;
}

/// Worst-wins ordering for reducing shard outcomes to one per-configuration
/// state: a hard failure outranks cancellation outranks timeout outranks
/// degradation outranks ok.
int severity(ShardState state) noexcept {
  switch (state) {
    case ShardState::kOk:
      return 0;
    case ShardState::kDegraded:
      return 1;
    case ShardState::kTimedOut:
      return 2;
    case ShardState::kCancelled:
      return 3;
    case ShardState::kFailed:
      return 4;
  }
  return 4;
}

/// Writes to `out` the first `want` neighbours of the union of `runs` in
/// (distance, id) order, consuming the runs. Each run is sorted by
/// (distance, id), and every id of runs[c] lies below every id of
/// runs[c + 1] (configurations cover ascending id ranges), so within one
/// distance the union is the runs' concatenation in order: the merge
/// compares distances only.
void merge_runs(std::span<std::span<const knn::Neighbor>> runs,
                std::size_t want, std::vector<knn::Neighbor>& out) {
  std::size_t total = 0;
  for (const auto& run : runs) {
    total += run.size();
  }
  out.clear();
  out.reserve(std::min(want, total));
  while (out.size() < want) {
    bool any = false;
    std::uint32_t d = 0;  // the nearest distance left in any run
    for (const auto& run : runs) {
      if (!run.empty() && (!any || run.front().distance < d)) {
        d = run.front().distance;
        any = true;
      }
    }
    if (!any) {
      break;
    }
    for (auto& run : runs) {
      while (!run.empty() && run.front().distance == d && out.size() < want) {
        out.push_back(run.front());
        run = run.subspan(1);
      }
    }
  }
}

}  // namespace

const char* to_string(OnError policy) noexcept {
  switch (policy) {
    case OnError::kFailFast:
      return "fail-fast";
    case OnError::kIsolate:
      return "isolate";
    case OnError::kRetry:
      return "retry";
  }
  return "unknown";
}

const char* to_string(ShardState state) noexcept {
  switch (state) {
    case ShardState::kOk:
      return "ok";
    case ShardState::kDegraded:
      return "degraded";
    case ShardState::kTimedOut:
      return "timed-out";
    case ShardState::kCancelled:
      return "cancelled";
    case ShardState::kFailed:
      return "failed";
  }
  return "unknown";
}

ApKnnEngine::ApKnnEngine(knn::BinaryDataset dataset, EngineOptions options)
    : dataset_(std::move(dataset)), options_(options) {
  if (dataset_.empty()) {
    throw std::invalid_argument("ApKnnEngine: empty dataset");
  }
  if (options_.slices == 0 || options_.slices > kMaxSlices) {
    throw std::invalid_argument("ApKnnEngine: slices must be 1..7");
  }
  if (options_.slices > 1 && options_.packing_group_size > 0) {
    throw std::invalid_argument(
        "ApKnnEngine: vector packing and multiplexing do not combine");
  }
  // Resolve the worker pool once: an explicit pool wins; otherwise
  // `threads` picks serial (1), the shared process-wide pool (0), or a
  // private pool sized so that N threads total run this engine's shards
  // (N-1 workers — the submitting thread participates in every job).
  if (options_.pool != nullptr) {
    pool_ = options_.pool;
  } else if (options_.threads == 0) {
    pool_ = &util::ThreadPool::global();
  } else if (options_.threads > 1) {
    owned_pool_ = std::make_unique<util::ThreadPool>(options_.threads - 1);
    pool_ = owned_pool_.get();
  }
  const std::size_t dims = dataset_.dims();
  const bool packed = options_.packing_group_size > 0;
  VectorPackingOptions pack_opt;
  pack_opt.group_size = options_.packing_group_size;
  pack_opt.style = options_.packing_style;
  pack_opt.macro = options_.macro;
  spec_ = StreamSpec{dims, packed && pack_opt.style == CollectorStyle::kFlat
                               ? 1
                               : collector_levels_for(dims, options_.macro)};

  // Board capacity: how many vectors fit one configuration. Plain macros of
  // a given dimensionality are isomorphic, so any vector serves as the
  // prototype. Packed groups differ in how many value states their vectors
  // share, so the prototype is a WORST-CASE group (alternating all-zeros /
  // all-ones rows: two value states at every dimension once the group holds
  // two vectors) — capacity must never overcommit the board just because
  // the first group happened to share more than later ones. A multiplexed
  // vector is `slices` plain macros, one per bit slice.
  {
    anml::AutomataNetwork prototype("prototype");
    std::size_t vectors_per_copy = 1;
    if (packed) {
      vectors_per_copy = std::min(pack_opt.group_size, dataset_.size());
      knn::BinaryDataset worst(vectors_per_copy, dims);
      for (std::size_t v = 1; v < vectors_per_copy; v += 2) {
        for (std::size_t i = 0; i < dims; ++i) {
          worst.set(v, i, true);
        }
      }
      append_packed_group(prototype, worst, 0, vectors_per_copy, pack_opt);
    } else if (options_.slices > 1) {
      build_multiplexed_network(prototype, dataset_, options_.slices,
                                options_.macro, 0, 1);
    } else {
      append_hamming_macro(prototype, dataset_.vector(0), 0, options_.macro);
    }
    const apsim::MacroFootprint fp = apsim::footprint_of(prototype);
    capacity_ = apsim::max_copies(fp, options_.board, options_.placement) *
                vectors_per_copy;
    if (capacity_ == 0) {
      throw std::invalid_argument(
          "ApKnnEngine: one macro exceeds the board capacity");
    }
  }
  if (options_.max_vectors_per_config != 0) {
    capacity_ = std::min(capacity_, options_.max_vectors_per_config);
  }

  // One program or network per board configuration: key -> cache probe ->
  // lower -> from_state -> store. With the bit-parallel backend, each
  // configuration first tries to LOAD its program from the artifact cache;
  // otherwise its BatchProgram is lowered straight from the dataset bits
  // (core::lower_configuration), with no automata network, and stored in
  // the cache. Only the cycle-accurate backend, and device features the
  // bit-parallel backend declines (recorded as the fallback reason), build
  // the network; network(i) builds it lazily for the others. Partitions
  // are independent, so configuration shards run on the worker pool; each
  // shard records its own decline reason and cache outcome and the reduce
  // below walks shards in configuration order, so the aggregated stats are
  // identical at any thread count (no shared counter mutation).
  const bool cache_enabled =
      options_.backend == SimulationBackend::kBitParallel &&
      !options_.artifact_cache_dir.empty();
  if (cache_enabled) {
    std::error_code ec;
    std::filesystem::create_directories(options_.artifact_cache_dir, ec);
    if (ec) {
      throw std::invalid_argument(
          "ApKnnEngine: cannot create artifact cache directory " +
          options_.artifact_cache_dir + ": " + ec.message());
    }
    // A crash between a slot file's temp write and its rename leaks
    // "*.apss-art.tmp.*" files; sweep them now that the directory is ours.
    compile_stats_.artifact.stale_tmp_swept =
        sweep_stale_artifact_tmp(options_.artifact_cache_dir);
  }
  const apsim::SimOptions sim_options =
      apsim::SimOptions::from(options_.device.features);
  partitions_.resize((dataset_.size() + capacity_ - 1) / capacity_);
  std::vector<std::string> decline_reasons(partitions_.size());
  std::vector<ArtifactCacheStats> cache_stats(partitions_.size());
  std::vector<std::uint8_t> lowered(partitions_.size(), 0);
  const ConfigurationLayout layout = layout_of(options_);
  const auto build_partition = [&](std::size_t c) {
    Partition& p = partitions_[c];
    p.begin = c * capacity_;
    p.count = std::min(capacity_, dataset_.size() - p.begin);
    if (cache_enabled) {
      CachedProgram cached =
          try_load_program(artifact_cache_file(c), artifact_key(c),
                           p.count * options_.slices, dataset_.dims());
      cache_stats[c].record(cached.outcome);
      cache_stats[c].io_retries += cached.io_retries;
      cache_stats[c].quarantined += cached.quarantined ? 1 : 0;
      if (cached.outcome == ArtifactOutcome::kHit) {
        p.program = std::move(cached.program);
        return;
      }
    }
    if (options_.backend != SimulationBackend::kBitParallel ||
        !apsim::BatchProgram::supports(sim_options, &decline_reasons[c])) {
      p.network = build_network(p);
      return;
    }
    // Lowering is exact, so a state from_state rejects is a lowering bug:
    // surfaced, never hidden behind a fallback.
    std::string error;
    p.program = apsim::BatchProgram::from_state(
        lower_configuration(dataset_, {p.begin, p.count}, layout), &error);
    if (p.program == nullptr) {
      throw std::logic_error("ApKnnEngine: lowered configuration " +
                             std::to_string(c) + " rejected: " + error);
    }
    lowered[c] = 1;
    if (cache_enabled) {
      // Best-effort: an unwritable cache degrades to lower-every-time, it
      // never fails construction.
      std::size_t store_retries = 0;
      store_program(artifact_cache_file(c), cache_meta(p), p.program, nullptr,
                    &store_retries);
      cache_stats[c].io_retries += store_retries;
    }
  };
  if (pool_ != nullptr) {
    pool_->parallel_for(0, partitions_.size(), build_partition, /*grain=*/1);
  } else {
    for (std::size_t c = 0; c < partitions_.size(); ++c) {
      build_partition(c);
    }
  }

  // Backend/fallback bookkeeping (EngineStats::backend): count the fast
  // path per macro family; aggregate decline reasons so no configuration
  // falls back to the cycle-accurate simulator silently. Reasons appear in
  // first-occurrence configuration order.
  for (std::size_t c = 0; c < partitions_.size(); ++c) {
    const Partition& p = partitions_[c];
    ++compile_stats_.configurations;
    compile_stats_.artifact.merge(cache_stats[c]);
    if (p.program != nullptr) {
      ++compile_stats_.bit_parallel;
      compile_stats_.lowered += lowered[c];
      switch (p.program->family()) {
        case apsim::MacroFamily::kHamming: ++compile_stats_.hamming; break;
        case apsim::MacroFamily::kPacked: ++compile_stats_.packed; break;
        case apsim::MacroFamily::kMultiplexed:
          ++compile_stats_.multiplexed;
          break;
      }
    } else if (options_.backend == SimulationBackend::kBitParallel) {
      ++compile_stats_.fallback;
      auto& reasons = compile_stats_.fallback_reasons;
      const auto it = std::find_if(
          reasons.begin(), reasons.end(),
          [&](const auto& entry) { return entry.first == decline_reasons[c]; });
      if (it != reasons.end()) {
        ++it->second;
      } else {
        reasons.emplace_back(decline_reasons[c], 1);
      }
    }
  }
  if (options_.backend == SimulationBackend::kBitParallel) {
    // Resolve the execution lane width once so the stats (and the CLI
    // printout) report what search() will actually run, even before any
    // simulator is constructed. Purely informational — programs and
    // artifacts are width-agnostic.
    const apsim::LaneKernels kernels =
        apsim::resolve_lane_kernels(options_.lane_width);
    compile_stats_.lane_width_bits = kernels.width_bits();
    compile_stats_.lane_isa = kernels.isa;
  }
}

std::unique_ptr<anml::AutomataNetwork> ApKnnEngine::build_network(
    const Partition& p) const {
  return build_configuration(dataset_, {p.begin, p.count}, layout_of(options_),
                             "config" + std::to_string(p.begin / capacity_))
      .network;
}

void ApKnnEngine::ensure_network(const Partition& p) const {
  if (p.network == nullptr) {
    p.network = build_network(p);
  }
}

const anml::AutomataNetwork& ApKnnEngine::network(std::size_t i) const {
  const Partition& p = partitions_.at(i);
  ensure_network(p);
  return *p.network;
}

std::uint64_t ApKnnEngine::artifact_key(std::size_t i) const {
  const Partition& p = partitions_.at(i);
  util::Fnv1a64 hasher;
  hasher.update_string(kEngineBuilder);
  hasher.update_u32(artifact::kFormatVersion);
  hasher.update_u64(p.begin);
  hash_dataset_slice(hasher, dataset_, p.begin, p.count);
  hash_macro_options(hasher, options_.macro);
  hasher.update_u64(options_.packing_group_size);
  hasher.update(static_cast<std::uint8_t>(options_.packing_style));
  hasher.update_u64(options_.slices);
  hash_sim_options(hasher, apsim::SimOptions::from(options_.device.features));
  return hasher.digest();
}

std::string ApKnnEngine::artifact_cache_file(std::size_t i) const {
  if (options_.artifact_cache_dir.empty()) {
    return {};
  }
  return artifact_cache_path(options_.artifact_cache_dir, kEngineBuilder, i);
}

artifact::ArtifactMeta ApKnnEngine::cache_meta(const Partition& p) const {
  artifact::ArtifactMeta meta;
  meta.key_hash = artifact_key(p.begin / capacity_);
  meta.builder = std::string(kEngineBuilder);
  meta.dataset_begin = p.begin;
  meta.dataset_count = p.count;
  return meta;
}

bool ApKnnEngine::save_artifact(std::size_t i, const std::string& path,
                                std::string* error) const {
  const Partition& p = partitions_.at(i);
  if (p.program == nullptr) {
    if (error != nullptr) {
      *error = "configuration " + std::to_string(i) +
               " has no compiled bit-parallel program (cycle-accurate "
               "backend, or the compile fell back)";
    }
    return false;
  }
  // An absent network is built for the meta only and let go again.
  std::unique_ptr<anml::AutomataNetwork> built;
  const anml::AutomataNetwork* net = p.network.get();
  if (net == nullptr) {
    built = build_network(p);
    net = built.get();
  }
  artifact::ArtifactMeta meta = cache_meta(p);
  meta.network_digest = anml::network_digest(*net);
  meta.network_name = net->name();
  meta.network_elements = net->size();
  meta.network_edges = net->edges().size();
  return store_program(path, meta, p.program, error);
}

std::size_t ApKnnEngine::bit_parallel_configurations() const noexcept {
  std::size_t n = 0;
  for (const Partition& p : partitions_) {
    n += p.program != nullptr;
  }
  return n;
}

apsim::PlacementResult ApKnnEngine::placement(std::size_t i) const {
  return apsim::place(network(i), options_.board, options_.placement);
}

EngineStats ApKnnEngine::project(std::size_t query_count) const {
  EngineStats s;
  s.configurations = partitions_.size();
  s.vectors_per_config = capacity_;
  s.cycles_per_query = spec_.cycles_per_query();
  s.queries = query_count;
  s.simulated_cycles =
      frames_for(query_count) * s.cycles_per_query * s.configurations;
  s.backend = compile_stats_;
  return s;
}

double ApKnnEngine::report_bandwidth_gbps() const {
  // Sec. VI-C: 32*(n + d) bits conveyed per query, one query every
  // cycles_per_query cycles (the paper uses 2d; we use our exact frame). A
  // multiplexed frame carries n reports per slice.
  const double bits =
      32.0 * (static_cast<double>(capacity_ * options_.slices) +
              static_cast<double>(dataset_.dims()));
  const double seconds = static_cast<double>(spec_.cycles_per_query()) *
                         options_.device.timing.cycle_seconds();
  return bits / seconds / 1e9;
}

std::vector<std::vector<knn::Neighbor>> ApKnnEngine::search(
    const knn::BinaryDataset& queries, std::size_t k,
    const SearchControl& control) {
  if (queries.dims() != dataset_.dims()) {
    throw std::invalid_argument("ApKnnEngine::search: query dims mismatch");
  }
  if (k == 0) {
    throw std::invalid_argument("ApKnnEngine::search: k must be >= 1");
  }
  const std::size_t q = queries.size();
  const std::size_t slices = options_.slices;
  const std::size_t frames = frames_for(q);
  stats_ = project(q);
  report_stream_.clear();
  // The caller's lists. With several configurations each is a merge of
  // up to `want` neighbours; reserving them before the shards fill lists_
  // lets them reuse the memory the caller freed after the previous call
  // rather than fresh heap pages that the allocator trims and pages in
  // again on every call.
  const std::size_t want = std::min(k, dataset_.size());
  std::vector<std::vector<knn::Neighbor>> results(q);
  if (partitions_.size() > 1) {
    for (std::vector<knn::Neighbor>& list : results) {
      list.reserve(want);
    }
  }

  // One shard per (configuration, query-frame range); a frame carries
  // `slices` queries. queries_per_chunk caps the frames per shard; with a
  // pool the size is refined downward so every thread gets several shards
  // to balance. The shard list itself — and therefore every shard's
  // simulation — is a pure function of the inputs, never of which worker
  // ran it.
  std::size_t chunk = std::max<std::size_t>(1, options_.queries_per_chunk);
  if (pool_ != nullptr) {
    const std::size_t target_shards = 4 * (pool_->size() + 1);
    const std::size_t total_frames = frames * partitions_.size();
    chunk = std::min(
        chunk,
        std::max<std::size_t>(
            1, (total_frames + target_shards - 1) / target_shards));
  }
  struct Shard {
    std::size_t config = 0;
    std::size_t frame_begin = 0;
    std::size_t frames = 0;
    std::size_t q_begin = 0;  ///< frame_begin * slices
    std::size_t q_count = 0;
    /// Shard-local ReportEvent buffer, rebased to the configuration's full
    /// query-stream timeline after decoding. Empty when the shard's
    /// neighbours came from run_frames' sink.
    std::vector<apsim::ReportEvent> events;
    /// Per query: the configuration's top-k, in (distance, id) order (the
    /// shard's range of lists_).
    std::span<std::vector<knn::Neighbor>> partial;
    std::uint64_t reports_emitted = 0;
    /// Host work the frame-bounded run cut (BatchSimulator::run_frames).
    std::uint64_t cycles_skipped = 0;
    std::uint64_t reports_skipped = 0;
    double seconds = 0;  ///< wall time of the shard, every attempt
  };
  std::vector<Shard> shards;
  lists_.resize(partitions_.size() * q);
  for (std::size_t c = 0; c < partitions_.size(); ++c) {
    for (std::size_t f = 0; f < frames; f += chunk) {
      Shard& shard = shards.emplace_back();
      shard.config = c;
      shard.frame_begin = f;
      shard.frames = std::min(chunk, frames - f);
      shard.q_begin = f * slices;
      shard.q_count =
          std::min(q, (f + shard.frames) * slices) - shard.q_begin;
      shard.partial = std::span(lists_).subspan(c * q + shard.q_begin,
                                                shard.q_count);
    }
  }

  // Encode the batch once: every configuration streams the same frames,
  // and each shard runs its frame range of them.
  const util::Timer encode_timer;
  const std::size_t frame_cycles = spec_.cycles_per_query();
  std::vector<std::uint8_t> stream;
  stream.reserve(frames * frame_cycles);
  if (slices == 1) {
    const SymbolStreamEncoder encoder(spec_);
    for (std::size_t b = 0; b < q; ++b) {
      encoder.append_query(queries.row(b), stream);
    }
  } else {
    const MultiplexedStreamEncoder mux_encoder(spec_);
    for (std::size_t b = 0; b < q; b += slices) {
      mux_encoder.append_group(queries, b, std::min(slices, q - b), stream);
    }
  }
  stats_.phases.encode_s = encode_timer.seconds();

  // Bit-parallel shards stop each frame once its k-th report's cycle is
  // done: the temporal sort makes later reports irrelevant to the top-k.
  // A multiplexed frame's k-th report does not decide each slice's top-k,
  // and a caller that keeps the raw stream wants it whole: both run whole
  // frames.
  const std::size_t keep = options_.collect_report_stream || slices > 1
                               ? std::numeric_limits<std::size_t>::max()
                               : k;
  const apsim::SimOptions sim_options =
      apsim::SimOptions::from(options_.device.features);

  // Fault-tolerance plumbing (docs/ROBUSTNESS.md). Every shard polls the
  // caller's deadline and cancellation token at query-frame boundaries
  // inside the simulators. Per-shard outcomes are recorded into a
  // pre-sized vector (no locking, no ordering dependence) and reduced per
  // configuration after the run.
  struct ShardOutcome {
    ShardState state = ShardState::kOk;
    std::string error;
    std::uint32_t retries = 0;
  };
  std::vector<ShardOutcome> outcomes(shards.size());
  // Degrading a shard of a bit-parallel configuration needs the automata
  // network, which construction never built (the program was lowered or
  // loaded); the lazy build mutates the partition, so it is serialized
  // (plain runs never take this lock).
  std::mutex degrade_mutex;

  // Each worker owns its simulator scratch state and reuses it across the
  // consecutive shards of its chunk while they stay on one configuration —
  // the cycle-accurate simulator's construction (a full validation pass)
  // then amortizes over the chunk. Both simulators reset at the start of
  // every shard's run, so reuse cannot leak state between shards.
  const auto run_shards = [&](std::size_t lo, std::size_t hi) {
    constexpr std::size_t kNoConfig = static_cast<std::size_t>(-1);
    std::size_t sim_config = kNoConfig;
    bool sim_is_batch = false;
    std::unique_ptr<apsim::Simulator> reference;
    std::unique_ptr<apsim::BatchSimulator> batch;
    // The batch simulator's sink tables: a plain or packed lane reports its
    // vector id as its code; a multiplexed code names (vector, slice).
    std::vector<std::uint32_t> mux_id;
    std::vector<std::uint8_t> mux_slot;
    apsim::NeighborSink sink;
    // One attempt at simulating `shard`: checkpoint (deadline/cancel), fire
    // the shard-entry fault site, simulate, decode, rebase. Throws on any
    // failure; `force_reference` is the degrade path (cycle-accurate rerun
    // of a bit-parallel configuration — bit-identical events, just slower).
    // Unless the caller keeps the stream, a bit-parallel shard writes its
    // lists through run_frames' sink and builds no events.
    const auto run_attempt = [&](Shard& shard, const Partition& part,
                                 const util::RunControl& ctl,
                                 bool force_reference) {
      ctl.checkpoint();
      util::FaultInjector::check(util::kFaultEngineShard, ctl.fault_key);
      const bool use_batch = part.program != nullptr && !force_reference;
      if (shard.config != sim_config || use_batch != sim_is_batch) {
        reference.reset();
        batch.reset();
        if (use_batch) {
          batch = std::make_unique<apsim::BatchSimulator>(part.program,
                                                          options_.lane_width);
          const std::span<const std::uint32_t> codes =
              part.program->report_codes();
          sink = apsim::NeighborSink{codes, {}, slices, k, {}};
          if (slices > 1) {
            mux_id.resize(codes.size());
            mux_slot.resize(codes.size());
            for (std::size_t l = 0; l < codes.size(); ++l) {
              mux_id[l] = MuxReportCode::vector_id(codes[l]);
              mux_slot[l] =
                  static_cast<std::uint8_t>(MuxReportCode::slice(codes[l]));
            }
            sink.lane_id = mux_id;
            sink.lane_slot = mux_slot;
          }
        } else if (part.program != nullptr) {
          // Degrade path: the network is absent until the first degrade
          // builds it, and other workers may degrade shards of the same
          // configuration concurrently.
          std::lock_guard<std::mutex> lock(degrade_mutex);
          ensure_network(part);
          reference = std::make_unique<apsim::Simulator>(*part.network,
                                                         sim_options);
        } else {
          reference = std::make_unique<apsim::Simulator>(*part.network,
                                                         sim_options);
        }
        sim_config = shard.config;
        sim_is_batch = use_batch;
      }
      const std::span<const std::uint8_t> frames_in(
          stream.data() + shard.frame_begin * frame_cycles,
          shard.frames * frame_cycles);
      if (batch != nullptr && !options_.collect_report_stream) {
        sink.lists = shard.partial;
        shard.events.clear();
        shard.reports_emitted =
            batch->run_frames(frames_in, frame_cycles, keep, sink, ctl);
        shard.cycles_skipped = batch->cycles_skipped();
        shard.reports_skipped = batch->reports_skipped();
        return;
      }
      if (batch != nullptr) {
        shard.events = batch->run_frames(frames_in, frame_cycles, keep, ctl);
        shard.cycles_skipped = batch->cycles_skipped();
        shard.reports_skipped = batch->reports_skipped();
      } else {
        shard.events = reference->run(frames_in, ctl);
        shard.cycles_skipped = 0;
        shard.reports_skipped = 0;
      }
      shard.reports_emitted = shard.events.size();
      const TemporalSortDecoder decoder(spec_, shard.q_count, slices);
      std::ranges::move(decoder.decode(shard.events, k),
                        shard.partial.begin());
      apsim::rebase_events(shard.events, shard.frame_begin * frame_cycles);
    };
    for (std::size_t t = lo; t < hi; ++t) {
      Shard& shard = shards[t];
      const util::Timer shard_timer;
      const Partition& part = partitions_[shard.config];
      util::RunControl ctl;
      ctl.deadline = control.deadline;
      ctl.cancel = control.cancel;
      ctl.checkpoint_period = frame_cycles;
      ctl.fault_key = static_cast<std::int64_t>(shard.config);
      if (options_.on_error == OnError::kFailFast) {
        // The pre-fault-tolerance path, byte for byte: nothing is caught
        // here, so the first failure unwinds through the pool's
        // first-exception rethrow to the caller.
        run_attempt(shard, part, ctl, /*force_reference=*/false);
        shard.seconds = shard_timer.seconds();
        continue;
      }
      ShardOutcome& out = outcomes[t];
      std::size_t retries_left =
          options_.on_error == OnError::kRetry ? options_.max_retries : 0;
      bool degraded = false;
      for (;;) {
        try {
          run_attempt(shard, part, ctl, /*force_reference=*/degraded);
          if (degraded) {
            out.state = ShardState::kDegraded;
          } else {
            out.state = ShardState::kOk;
            out.error.clear();  // recovered by a plain retry
          }
          break;
        } catch (const util::DeadlineExceeded& e) {
          // The budget is gone; retrying could only blow past it further.
          out.state = ShardState::kTimedOut;
          if (out.error.empty()) {
            out.error = e.what();
          }
          break;
        } catch (const util::OperationCancelled& e) {
          out.state = ShardState::kCancelled;
          if (out.error.empty()) {
            out.error = e.what();
          }
          break;
        } catch (const std::exception& e) {
          if (out.error.empty()) {
            out.error = e.what();
          }
          // A failed attempt may leave the cached simulator mid-stream;
          // force reconstruction before any further attempt or shard.
          sim_config = kNoConfig;
          if (retries_left > 0) {
            --retries_left;
            ++out.retries;
            continue;
          }
          if (!degraded && part.program != nullptr) {
            degraded = true;
            ++out.retries;
            continue;
          }
          out.state = ShardState::kFailed;
          break;
        }
      }
      shard.seconds = shard_timer.seconds();
    }
  };

  if (pool_ != nullptr) {
    pool_->parallel_for_chunks(0, shards.size(), run_shards, /*grain=*/1);
  } else {
    run_shards(0, shards.size());
  }

  // Reduce shard outcomes to one status per configuration (worst state
  // wins; first error in shard order is kept; retries accumulate). A
  // configuration SURVIVES when every shard is kOk or kDegraded —
  // anything else poisons it: partial per-query lists would silently rank
  // neighbors against an incomplete candidate set.
  const util::Timer merge_timer;
  stats_.shard_status.assign(partitions_.size(), ShardStatus{});
  for (std::size_t t = 0; t < shards.size(); ++t) {
    ShardStatus& status = stats_.shard_status[shards[t].config];
    const ShardOutcome& out = outcomes[t];
    if (severity(out.state) > severity(status.state)) {
      status.state = out.state;
    }
    if (status.error.empty() && !out.error.empty()) {
      status.error = out.error;
    }
    status.retries += out.retries;
  }
  const auto survives = [&](std::size_t c) {
    const ShardState s = stats_.shard_status[c].state;
    return s == ShardState::kOk || s == ShardState::kDegraded;
  };

  // Host-side merge across configurations (Sec. III-C: the host tracks
  // intermediary per-query results between reconfigurations). Shards are
  // walked in configuration/frame order on this thread, so stats
  // accumulation, the merged report stream, and the per-query lists are
  // bit-identical at any thread count. Non-surviving configurations are
  // skipped wholesale, so what remains equals a run without them.
  for (const Shard& shard : shards) {
    stats_.phases.simulate_s += shard.seconds;
    if (!survives(shard.config)) {
      continue;
    }
    stats_.report_events += shard.reports_emitted + shard.reports_skipped;
    stats_.host_cycles_skipped += shard.cycles_skipped;
    if (options_.collect_report_stream) {
      report_stream_.insert(report_stream_.end(), shard.events.begin(),
                            shard.events.end());
    }
  }
  const std::size_t surviving = stats_.surviving_configurations();
  if (surviving != partitions_.size()) {
    stats_.simulated_cycles = frames * stats_.cycles_per_query * surviving;
  }
  // Every query's per-configuration lists are sorted runs over ascending
  // id ranges, so the top-k is their merge, cut at want. A lone run holds
  // at most min(k, its configuration's vectors) <= want neighbours: it is
  // the answer as it stands.
  const std::size_t shards_per_config = (frames + chunk - 1) / chunk;
  std::vector<std::span<const knn::Neighbor>> runs;
  for (std::size_t b = 0; b < q; ++b) {
    const std::size_t shard_in_config = b / slices / chunk;
    runs.clear();
    std::vector<knn::Neighbor>* lone = nullptr;
    for (std::size_t c = 0; c < partitions_.size(); ++c) {
      if (!survives(c)) {
        continue;
      }
      Shard& shard = shards[c * shards_per_config + shard_in_config];
      lone = &shard.partial[b - shard.q_begin];
      runs.emplace_back(*lone);
    }
    if (runs.size() == 1) {
      results[b] = std::move(*lone);
    } else {
      merge_runs(runs, want, results[b]);
    }
  }
  stats_.phases.merge_s = merge_timer.seconds();
  return results;
}

}  // namespace apss::core
