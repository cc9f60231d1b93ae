// Repository benchmark harness: ApKnnEngine::search in a closed loop and
// KnnServer under open-loop Poisson load, on inputs generated here from
// --seed (the library only ever receives the generated datasets).
//
//   apss_perfbench --workload {batch_k10|batch_k1000|serve_poisson}
//                  --seed N --seconds S --trace {0|1} --out-dir DIR
//
// --trace 0 measures the end-to-end metrics. --trace 1 records spans
// around calls into each layer's public functions (search, encode,
// simulate, decode, merge, CPU scan; serve spans are rebuilt from submit()
// timestamps and Response fields) and prints per-layer metrics.
//
// Every batch result and every kOk serve response is checked with
// knn::is_valid_knn_result and against the benchmark's own reference scan;
// the traced replay's merged lists must equal search()'s, and
// EngineStats::simulated_cycles must equal project(q).simulated_cycles.
// Any mismatch exits 1. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apsim/batch_simulator.hpp"
#include "core/engine.hpp"
#include "core/stream.hpp"
#include "core/temporal_decode.hpp"
#include "knn/dataset.hpp"
#include "knn/exact.hpp"
#include "serve/server.hpp"

namespace {

using namespace apss;
using Clock = std::chrono::steady_clock;
using Lists = std::vector<std::vector<knn::Neighbor>>;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Seeded inputs. The generators live here, not in the library, so a change
// to the program cannot change what it is measured on.
// ---------------------------------------------------------------------------

class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

void flip_bits(knn::BinaryDataset& d, std::size_t row, double p,
               SplitMix64& rng) {
  for (std::size_t dim = 0; dim < d.dims(); ++dim) {
    if (rng.unit() < p) {
      d.set(row, dim, !d.get(row, dim));
    }
  }
}

knn::BinaryDataset uniform_dataset(std::size_t n, std::size_t dims,
                                   SplitMix64& rng) {
  knn::BinaryDataset d(n, dims);
  for (std::size_t i = 0; i < n; ++i) {
    flip_bits(d, i, 0.5, rng);
  }
  return d;
}

/// Planted clusters: each row is a random center with every bit flipped
/// independently with probability `flip`.
knn::BinaryDataset clustered_dataset(std::size_t n, std::size_t dims,
                                     std::size_t clusters, double flip,
                                     SplitMix64& rng) {
  const knn::BinaryDataset centers = uniform_dataset(clusters, dims, rng);
  knn::BinaryDataset d(n, dims);
  for (std::size_t i = 0; i < n; ++i) {
    const auto src = centers.row(rng.below(clusters));
    std::copy(src.begin(), src.end(), d.row(i).begin());
    flip_bits(d, i, flip, rng);
  }
  return d;
}

/// Queries drawn by perturbing random dataset rows.
knn::BinaryDataset perturbed_queries(const knn::BinaryDataset& data,
                                     std::size_t count, double flip,
                                     SplitMix64& rng) {
  knn::BinaryDataset q(count, data.dims());
  for (std::size_t i = 0; i < count; ++i) {
    const auto src = data.row(rng.below(data.size()));
    std::copy(src.begin(), src.end(), q.row(i).begin());
    flip_bits(q, i, flip, rng);
  }
  return q;
}

knn::BinaryDataset rows_of(const knn::BinaryDataset& data,
                           const std::vector<std::size_t>& ids) {
  knn::BinaryDataset out(ids.size(), data.dims());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto src = data.row(ids[i]);
    std::copy(src.begin(), src.end(), out.row(i).begin());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Sample statistics.
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

struct Tail {
  double percentile = 50;
  double value = 0;
};

/// The highest of p50/p90/p99/p99.9/p99.99 with at least 10 samples
/// beyond it.
Tail tail_of(const std::vector<double>& v) {
  Tail t{50, quantile(v, 0.5)};
  for (double p : {90.0, 99.0, 99.9, 99.99}) {
    if (static_cast<double>(v.size()) * (100.0 - p) / 100.0 >= 10.0) {
      t = {p, quantile(v, p / 100.0)};
    }
  }
  return t;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Metric report: human-readable lines, then the one-line JSON result.
// ---------------------------------------------------------------------------

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_.push_back({name, value, unit});
    std::printf("metric %-28s %16.6f %-6s %s\n", name.c_str(), value,
                unit.c_str(), note.c_str());
  }

  std::string json(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const {
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      os << (i == 0 ? "" : ", ") << '"' << metrics_[i].name
         << "\": {\"value\": " << metrics_[i].value << ", \"unit\": \""
         << metrics_[i].unit << "\"}";
    }
    os << "}}";
    return os.str();
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------------------
// Span recorder: spans stay in memory and are written out at the end.
// ---------------------------------------------------------------------------

class Tracer {
 public:
  using Id = std::size_t;  ///< 1-based; 0 = no parent

  Id begin(const char* name, Id parent, std::uint64_t group) {
    spans_.push_back({name, parent, group, Clock::now(), {}});
    return spans_.size();
  }
  double end(Id id) {
    Span& s = spans_[id - 1];
    s.end = Clock::now();
    return seconds_between(s.start, s.end);
  }
  Id add(const char* name, Id parent, std::uint64_t group,
         Clock::time_point start, Clock::time_point end) {
    spans_.push_back({name, parent, group, start, end});
    return spans_.size();
  }

  /// Per span name: {count, total seconds, self seconds}, where self time
  /// is a span's duration minus its children's.
  struct Totals {
    std::size_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };
  std::map<std::string, Totals> totals() const {
    std::vector<double> child_s(spans_.size() + 1, 0.0);
    for (const Span& s : spans_) {
      child_s[s.parent] += seconds_between(s.start, s.end);
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const double d = seconds_between(spans_[i].start, spans_[i].end);
      Totals& t = out[spans_[i].name];
      ++t.count;
      t.total_s += d;
      t.self_s += d - child_s[i + 1];
    }
    return out;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      throw std::runtime_error("cannot write trace " + path);
    }
    const Clock::time_point origin =
        spans_.empty() ? Clock::time_point{} : spans_.front().start;
    out << "{\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",\n") << "{\"id\": " << i + 1
          << ", \"name\": \"" << s.name << "\", \"parent\": " << s.parent
          << ", \"group\": " << s.group
          << ", \"start_us\": " << seconds_between(origin, s.start) * 1e6
          << ", \"end_us\": " << seconds_between(origin, s.end) * 1e6 << "}";
    }
    out << "\n]}\n";
  }

 private:
  struct Span {
    const char* name;
    Id parent;
    std::uint64_t group;  ///< batch id or request id
    Clock::time_point start;
    Clock::time_point end;
  };
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Correctness checks shared by every workload.
// ---------------------------------------------------------------------------

struct Verdict {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void fail(const std::string& why) {
    if (correct) {
      std::fprintf(stderr, "MISMATCH: %s\n", why.c_str());
    }
    correct = false;
  }
};

/// Number of lists that are not a valid exact kNN answer.
std::size_t invalid_lists(const knn::BinaryDataset& data,
                          const knn::BinaryDataset& queries, std::size_t k,
                          const Lists& lists) {
  std::size_t bad = lists.size() == queries.size() ? 0 : queries.size();
  for (std::size_t i = 0; i < std::min(lists.size(), queries.size()); ++i) {
    bad += !knn::is_valid_knn_result(data, queries.row(i), k, lists[i]);
  }
  return bad;
}

void check_stats(const core::ApKnnEngine& engine, std::size_t q,
                 Verdict& verdict) {
  const core::EngineStats& s = engine.last_stats();
  if (s.simulated_cycles != engine.project(q).simulated_cycles) {
    verdict.fail("EngineStats::simulated_cycles differs from project(q)");
  }
  if (s.surviving_configurations() != s.configurations) {
    verdict.fail("a configuration did not survive search()");
  }
}

/// The benchmark's own exact scan, the yardstick search() time is divided
/// by: a linear scan keeping a bounded max-heap of the k best (the classic
/// priority-queue baseline). It belongs to the benchmark, not the library,
/// so no change to the program moves it. It runs close in time to the
/// search it is compared with, so host contention slows both alike.
std::vector<knn::Neighbor> reference_knn(const knn::BinaryDataset& data,
                                         std::span<const std::uint64_t> q,
                                         std::size_t k) {
  const std::size_t want = std::min(k, data.size());
  std::vector<knn::Neighbor> heap;  // max-heap: worst on top
  heap.reserve(want);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto row = data.row(i);
    int d = 0;
    for (std::size_t w = 0; w < q.size(); ++w) {
      d += std::popcount(q[w] ^ row[w]);
    }
    const knn::Neighbor cand{static_cast<std::uint32_t>(i),
                             static_cast<std::uint32_t>(d)};
    if (heap.size() < want) {
      heap.push_back(cand);
      std::push_heap(heap.begin(), heap.end());
    } else if (cand < heap.front()) {
      std::pop_heap(heap.begin(), heap.end());
      heap.back() = cand;
      std::push_heap(heap.begin(), heap.end());
    }
  }
  std::sort_heap(heap.begin(), heap.end());
  return heap;
}

Lists reference_scan(const knn::BinaryDataset& data,
                     const knn::BinaryDataset& queries, std::size_t k) {
  Lists out(queries.size());
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    out[qi] = reference_knn(data, queries.row(qi), k);
  }
  return out;
}

/// True when both lists hold the same neighbour distances in order (ties
/// may pick different ids).
bool same_distances(const std::vector<knn::Neighbor>& a,
                    const std::vector<knn::Neighbor>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const knn::Neighbor& x, const knn::Neighbor& y) {
                      return x.distance == y.distance;
                    });
}

/// One search() and the reference scan of the same queries, back to back.
/// Also checks the two agree on every neighbour distance.
struct TimedSearch {
  Lists lists;
  double search_s = 0;
  double reference_s = 0;
};

TimedSearch timed_search(core::ApKnnEngine& engine,
                         const knn::BinaryDataset& data,
                         const knn::BinaryDataset& queries, std::size_t k,
                         Verdict& verdict) {
  TimedSearch t;
  const Clock::time_point t0 = Clock::now();
  t.lists = engine.search(queries, k);
  const Clock::time_point t1 = Clock::now();
  const Lists reference = reference_scan(data, queries, k);
  t.search_s = seconds_between(t0, t1);
  t.reference_s = seconds_between(t1, Clock::now());
  check_stats(engine, queries.size(), verdict);
  bool same = t.lists.size() == reference.size();
  for (std::size_t i = 0; same && i < reference.size(); ++i) {
    same = same_distances(t.lists[i], reference[i]);
  }
  if (!same) {
    verdict.fail("search() distances differ from the reference scan");
  }
  return t;
}

/// Timed search() calls of one run.
struct BatchLoop {
  std::vector<double> latency_ms;
  std::vector<double> reference_ms;
  std::vector<double> cost_ratio;  ///< search s / reference scan s, per call

  void add(double search_s, double reference_s) {
    latency_ms.push_back(search_s * 1e3);
    reference_ms.push_back(reference_s * 1e3);
    cost_ratio.push_back(search_s / reference_s);
  }
};

core::EngineOptions engine_options(const std::string& cache_dir) {
  core::EngineOptions o;
  o.backend = core::SimulationBackend::kBitParallel;
  o.threads = 1;
  o.lane_width = apsim::LaneWidth::kAuto;
  o.artifact_cache_dir = cache_dir;
  return o;
}

/// Fresh empty artifact-cache directory under `root`.
std::string fresh_dir(const std::string& root, const std::string& tag) {
  static int counter = 0;
  const std::string dir = root + "/cache-" + std::to_string(getpid()) + "-" +
                          tag + "-" + std::to_string(counter++);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Traced replay of one search(): the same shards, in the same order, through
// each layer's public functions — encode, simulate, decode — then the
// cross-configuration merge, plus the CPU exact scan of the same queries.
// ---------------------------------------------------------------------------

struct LayerSample {
  double search_s = 0;
  double encode_s = 0;
  double simulate_s = 0;
  double decode_s = 0;
  double merge_s = 0;
  double scan_s = 0;
  double symbols = 0;
  double cycles = 0;
  double events = 0;
  double kept = 0;
  double residual_s() const { return search_s - encode_s - simulate_s - decode_s; }
};

LayerSample traced_search(Tracer& tracer, core::ApKnnEngine& engine,
                          const knn::BinaryDataset& data,
                          const knn::BinaryDataset& queries, std::size_t k,
                          std::uint64_t batch, Lists* search_out,
                          Verdict& verdict) {
  LayerSample s;
  const Tracer::Id root = tracer.begin("batch", 0, batch);
  const Tracer::Id sid = tracer.begin("core.search", root, batch);
  Lists results = engine.search(queries, k);
  s.search_s = tracer.end(sid);
  check_stats(engine, queries.size(), verdict);

  // Mirror of the serial engine's shard plan: configuration-major, query
  // frames in chunks of EngineOptions::queries_per_chunk.
  const std::size_t chunk = core::EngineOptions{}.queries_per_chunk;
  const core::StreamSpec spec = engine.stream_spec();
  const core::SymbolStreamEncoder encoder(spec);
  const Tracer::Id rid = tracer.begin("replay", root, batch);
  Lists merged(queries.size());
  std::vector<std::uint8_t> stream;
  for (std::size_t c = 0; c < engine.configurations(); ++c) {
    std::unique_ptr<apsim::BatchSimulator> sim;
    for (std::size_t q0 = 0; q0 < queries.size(); q0 += chunk) {
      const std::size_t n = std::min(chunk, queries.size() - q0);
      Tracer::Id id = tracer.begin("core.encode", rid, batch);
      stream.clear();
      stream.reserve(n * spec.cycles_per_query());
      for (std::size_t i = 0; i < n; ++i) {
        encoder.append_query(queries.row(q0 + i), stream);
      }
      s.encode_s += tracer.end(id);
      s.symbols += static_cast<double>(stream.size());

      id = tracer.begin("apsim.simulate", rid, batch);
      if (sim == nullptr) {
        sim = std::make_unique<apsim::BatchSimulator>(
            engine.program(c), apsim::LaneWidth::kAuto);
      }
      const std::vector<apsim::ReportEvent> events = sim->run(stream);
      s.simulate_s += tracer.end(id);
      s.cycles += static_cast<double>(stream.size());
      s.events += static_cast<double>(events.size());

      id = tracer.begin("core.decode", rid, batch);
      Lists partial = core::TemporalSortDecoder(spec, n).decode(events, k);
      s.decode_s += tracer.end(id);
      for (std::size_t i = 0; i < n; ++i) {
        s.kept += static_cast<double>(partial[i].size());
        auto& dst = merged[q0 + i];
        dst.insert(dst.end(), partial[i].begin(), partial[i].end());
      }
    }
  }
  const Tracer::Id mid = tracer.begin("core.merge", rid, batch);
  const std::size_t want = std::min(k, data.size());
  for (auto& list : merged) {
    std::sort(list.begin(), list.end());
    list.resize(std::min(list.size(), want));
  }
  s.merge_s = tracer.end(mid);
  tracer.end(rid);

  const Tracer::Id xid = tracer.begin("knn.batch_knn", root, batch);
  const Lists cpu = knn::batch_knn(data, queries, k);
  s.scan_s = tracer.end(xid);
  tracer.end(root);

  if (merged != results) {
    verdict.fail("traced replay's merged lists differ from search()");
  }
  if (s.cycles != static_cast<double>(engine.last_stats().simulated_cycles) ||
      s.events != static_cast<double>(engine.last_stats().report_events)) {
    verdict.fail("traced replay did different device work than search()");
  }
  if (invalid_lists(data, queries, k, results) != 0 ||
      invalid_lists(data, queries, k, cpu) != 0) {
    verdict.fail("search() or batch_knn returned an invalid kNN list");
  }
  if (search_out != nullptr) {
    *search_out = std::move(results);
  }
  return s;
}

/// Per-layer metrics from traced replays (medians over batches).
void report_layers(Report& r, const std::vector<LayerSample>& samples,
                   const Tracer& tracer) {
  const auto med = [&](auto field) {
    std::vector<double> v;
    for (const LayerSample& s : samples) {
      v.push_back(field(s));
    }
    return median(v);
  };
  const double search_s = med([](const LayerSample& s) { return s.search_s; });
  const double scan_s = med([](const LayerSample& s) { return s.scan_s; });
  r.add("core.encode.s", med([](const LayerSample& s) { return s.encode_s; }),
        "s", "per search call");
  r.add("core.encode.symbols",
        med([](const LayerSample& s) { return s.symbols; }), "count");
  r.add("apsim.simulate.s",
        med([](const LayerSample& s) { return s.simulate_s; }), "s",
        "per search call, all configurations");
  r.add("apsim.cycles", med([](const LayerSample& s) { return s.cycles; }),
        "count");
  r.add("apsim.ns_per_cycle",
        med([](const LayerSample& s) { return s.simulate_s / s.cycles * 1e9; }),
        "ns");
  r.add("apsim.report_events",
        med([](const LayerSample& s) { return s.events; }), "count");
  r.add("core.decode.s", med([](const LayerSample& s) { return s.decode_s; }),
        "s");
  r.add("core.decode.events_in",
        med([](const LayerSample& s) { return s.events; }), "count");
  r.add("core.decode.kept_ratio",
        med([](const LayerSample& s) { return s.kept / s.events; }), "ratio",
        "neighbours kept / events decoded");
  r.add("core.merge.s", med([](const LayerSample& s) { return s.merge_s; }),
        "s", "replayed cross-configuration merge");
  r.add("core.search.residual_s",
        med([](const LayerSample& s) { return s.residual_s(); }), "s",
        "search - encode - simulate - decode");
  r.add("knn.batch_knn.s", scan_s, "s", "exact CPU scan, same queries, 1 thread");
  char base[128];
  std::snprintf(base, sizeof(base), "base: scan %.6f s / search %.6f s",
                scan_s, search_s);
  r.add("engine_vs_cpu_scan", scan_s / search_s, "ratio", base);

  // Self times over every traced batch; coverage = layer self time over
  // search() wall time.
  const auto totals = tracer.totals();
  const auto self = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_s;
  };
  std::printf("trace self times (s, summed over %zu traced batches):\n",
              samples.size());
  for (const auto& [name, t] : totals) {
    std::printf("  %-18s n=%-7zu total=%.6f self=%.6f\n", name.c_str(),
                t.count, t.total_s, t.self_s);
  }
  const double layers = self("core.encode") + self("apsim.simulate") +
                        self("core.decode") + self("core.merge");
  const double search_total = self("core.search");
  if (search_total > 0) {
    const double residual = search_total - self("core.encode") -
                            self("apsim.simulate") - self("core.decode");
    std::printf(
        "engine layers, share of search() wall: encode %.1f%%, simulate "
        "%.1f%%, decode %.1f%%, residual %.1f%% (replayed merge %.1f%%)\n",
        100 * self("core.encode") / search_total,
        100 * self("apsim.simulate") / search_total,
        100 * self("core.decode") / search_total,
        100 * residual / search_total, 100 * self("core.merge") / search_total);
  }
  r.add("trace.coverage", search_total > 0 ? layers / search_total : 0,
        "ratio", "(encode+simulate+decode+merge self) / search wall");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

constexpr int kSetupReps = 7;

double elapsed_ms(Clock::time_point from, Clock::time_point to) {
  return seconds_between(from, to) * 1e3;
}

Clock::time_point after_seconds(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

/// End-to-end metrics. Raw call and request latencies are printed but not
/// reported: on a shared host a co-tenant slows every search() by up to
/// half for minutes at a time, so their run-to-run spread exceeds any
/// usable bound. The cost ratio divides each search() (on serve: each
/// served batch's execution) by the reference scan of the same queries,
/// timed close to it, which cancels that.
void report_end_to_end(Report& r, const std::vector<double>& setup_s,
                       const char* setup_what, const BatchLoop& calls,
                       const char* calls_what) {
  r.add("setup_s", median(setup_s), "s", setup_what);
  char note[160];
  std::snprintf(note, sizeof(note),
                "base: search p50 %.4f ms / reference scan p50 %.4f ms, %zu "
                "%s",
                median(calls.latency_ms), median(calls.reference_ms),
                calls.latency_ms.size(), calls_what);
  r.add("search_cost_ratio", median(calls.cost_ratio), "ratio", note);
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
}

void print_latency(const std::vector<double>& latency_ms, const char* what) {
  const Tail tail = tail_of(latency_ms);
  std::printf("info   %s latency p10 %.4f ms, p50 %.4f ms, tail p%g %.4f ms "
              "(%zu samples)\n",
              what, quantile(latency_ms, 0.1), median(latency_ms),
              tail.percentile, tail.value, latency_ms.size());
}

void print_info(const Verdict& verdict, const core::EngineStats& model) {
  std::printf("info   fail_ratio %.6f (%llu failed of %llu attempted)\n",
              verdict.attempted == 0
                  ? 0.0
                  : static_cast<double>(verdict.failed) /
                        static_cast<double>(verdict.attempted),
              static_cast<unsigned long long>(verdict.failed),
              static_cast<unsigned long long>(verdict.attempted));
  const double q = static_cast<double>(model.queries);
  std::printf("info   model_us_per_query %.6f us (%.1f cycles)\n",
              model.total_seconds(core::EngineOptions{}.device.timing) / q *
                  1e6,
              static_cast<double>(model.simulated_cycles) / q);
}

/// Cold and warm engine constructions for the per-layer compile metrics.
void measure_compile(Report& r, const knn::BinaryDataset& data,
                     const std::string& out_dir) {
  std::vector<double> cold_s, warm_s;
  core::BackendCompileStats cold, warm;
  std::string cache;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (!cache.empty()) {
      std::filesystem::remove_all(cache);
    }
    cache = fresh_dir(out_dir, "compile");
    const Clock::time_point t0 = Clock::now();
    const core::ApKnnEngine e(data, engine_options(cache));
    cold_s.push_back(seconds_between(t0, Clock::now()));
    cold = e.backend_stats();
  }
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    const core::ApKnnEngine e(data, engine_options(cache));
    warm_s.push_back(seconds_between(t0, Clock::now()));
    warm = e.backend_stats();
  }
  std::filesystem::remove_all(cache);
  r.add("core.compile.s", median(cold_s), "s", "engine ctor, empty cache");
  r.add("artifact.load.s", median(warm_s), "s", "engine ctor, warm cache");
  r.add("artifact.hits", static_cast<double>(warm.artifact.hits), "count",
        "warm ctor");
  r.add("artifact.misses", static_cast<double>(cold.artifact.misses), "count",
        "cold ctor");
}

/// Serve-layer metrics. Stage times are shares of request time (self
/// times of the rebuilt request spans), so they stay ratios on the batch
/// workloads, which have no server and report 0.
struct ServeLayers {
  double submit_share = 0;
  double queue_wait_share = 0;
  double execute_share = 0;
  double lag_share = 0;
  double late_ratio = 0;  ///< requests sent more than 1 ms after due
  double occupancy = 0;
  double batches = 0;
  double shed = 0;
  double deadline_exceeded = 0;
  double degraded_batches = 0;
  double queue_high_water = 0;
};

void report_serve_layers(Report& r, const ServeLayers& s, bool applicable) {
  const char* note = applicable ? "" : "n/a: no server in this workload";
  r.add("serve.submit.share", s.submit_share, "ratio", note);
  r.add("serve.queue_wait.share", s.queue_wait_share, "ratio", note);
  r.add("serve.execute.share", s.execute_share, "ratio", note);
  r.add("serve.batch_occupancy.mean", s.occupancy, "count", note);
  r.add("serve.batches", s.batches, "count", note);
  r.add("serve.shed", s.shed, "count", note);
  r.add("serve.deadline_exceeded", s.deadline_exceeded, "count", note);
  r.add("serve.degraded_batches", s.degraded_batches, "count", note);
  r.add("serve.queue_high_water", s.queue_high_water, "count",
        applicable ? "deepest queue over the run" : note);
  r.add("loadgen.lag.share", s.lag_share, "ratio", note);
  r.add("loadgen.late_ratio", s.late_ratio, "ratio", note);
}

void write_trace(const Tracer& tracer, const Args& args) {
  const std::string path = args.out_dir + "/trace-" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".json";
  tracer.write(path);
  std::printf("trace written to %s\n", path.c_str());
}

int finish(const Report& report, const Verdict& verdict) {
  std::printf("%s\n", report.json(verdict.correct, verdict.attempted,
                                   verdict.failed)
                          .c_str());
  return verdict.correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// batch_k10 / batch_k1000: one caller, 256-query search() calls.
// ---------------------------------------------------------------------------

BatchLoop run_batches(core::ApKnnEngine& engine,
                      const knn::BinaryDataset& data,
                      const std::vector<knn::BinaryDataset>& batches,
                      std::size_t k, double seconds, Verdict& verdict) {
  BatchLoop loop;
  const Clock::time_point stop = after_seconds(Clock::now(), seconds);
  for (std::size_t i = 0; loop.latency_ms.empty() || Clock::now() < stop;
       ++i) {
    const knn::BinaryDataset& q = batches[i % batches.size()];
    const TimedSearch t = timed_search(engine, data, q, k, verdict);
    loop.add(t.search_s, t.reference_s);
    const std::size_t bad = invalid_lists(data, q, k, t.lists);
    verdict.attempted += q.size();
    verdict.failed += bad;
    if (bad != 0) {
      verdict.fail(std::to_string(bad) + " invalid kNN lists in a batch");
    }
  }
  return loop;
}

int run_batch_workload(const Args& args, std::size_t k) {
  constexpr std::size_t kN = 4096, kDims = 128, kBatch = 256, kBatches = 8;
  SplitMix64 rng(args.seed);
  const knn::BinaryDataset data = clustered_dataset(kN, kDims, 16, 0.1, rng);
  std::vector<knn::BinaryDataset> batches;
  for (std::size_t b = 0; b < kBatches; ++b) {
    batches.push_back(perturbed_queries(data, kBatch, 0.05, rng));
  }
  std::printf("workload %s: clustered %zux%zu, %zu distinct batches of %zu "
              "queries, k=%zu, seed %llu, 1 engine thread\n",
              args.workload.c_str(), kN, kDims, kBatches, kBatch, k,
              static_cast<unsigned long long>(args.seed));

  Report report;
  Verdict verdict;
  std::vector<double> setup_s;
  std::unique_ptr<core::ApKnnEngine> engine;
  if (args.trace) {
    measure_compile(report, data, args.out_dir);
    engine = std::make_unique<core::ApKnnEngine>(data, engine_options(""));
  } else {
    // Set-up: cold construction into an empty artifact cache, several times.
    for (int rep = 0; rep < kSetupReps; ++rep) {
      engine.reset();
      const std::string cache = fresh_dir(args.out_dir, "batch");
      const Clock::time_point t0 = Clock::now();
      engine = std::make_unique<core::ApKnnEngine>(data, engine_options(cache));
      setup_s.push_back(seconds_between(t0, Clock::now()));
      std::filesystem::remove_all(cache);
    }
  }
  const core::BackendCompileStats& compiled = engine->backend_stats();
  if (compiled.bit_parallel != compiled.configurations ||
      compiled.configurations < 2) {
    std::fprintf(stderr, "expected more than one configuration, all on the "
                         "bit-parallel backend\n");
    return 1;
  }
  std::printf("engine: %zu configurations, lane %zu-bit %s\n",
              compiled.configurations, compiled.lane_width_bits,
              compiled.lane_isa.c_str());
  run_batches(*engine, data, batches, k, 0.0, verdict);  // warm-up call
  const core::EngineStats model = engine->project(kBatch);

  if (!args.trace) {
    const BatchLoop loop =
        run_batches(*engine, data, batches, k, args.seconds, verdict);
    report_end_to_end(report, setup_s, "median of 7 cold engine constructions",
                      loop, "search() calls");
    print_latency(loop.latency_ms, "search() call");
    std::printf("info   throughput at the median call %.1f queries/s\n",
                static_cast<double>(kBatch) / median(loop.latency_ms) * 1e3);
  } else {
    // Each traced batch is paired with an untraced search() of the same
    // queries, run before it on even batches and after it on odd ones, so
    // the overhead is a paired difference that host contention cancels.
    Tracer tracer;
    std::vector<LayerSample> samples;
    std::vector<double> overhead_ms;
    const auto untraced_s = [&](const knn::BinaryDataset& q) {
      const Clock::time_point t0 = Clock::now();
      engine->search(q, k);
      return seconds_between(t0, Clock::now());
    };
    const Clock::time_point stop = after_seconds(Clock::now(), args.seconds);
    for (std::uint64_t b = 0; samples.empty() || Clock::now() < stop; ++b) {
      const knn::BinaryDataset& q = batches[b % batches.size()];
      const double before = b % 2 == 0 ? untraced_s(q) : 0;
      samples.push_back(
          traced_search(tracer, *engine, data, q, k, b + 1, nullptr, verdict));
      const double plain = b % 2 == 0 ? before : untraced_s(q);
      overhead_ms.push_back((samples.back().search_s - plain) * 1e3);
      verdict.attempted += q.size();
    }
    report_layers(report, samples, tracer);
    report.add("trace.overhead_ms", median(overhead_ms), "ms",
               "median paired traced - untraced search() call");
    report.add("model.cycles_per_query",
               static_cast<double>(model.simulated_cycles) / kBatch, "count");
    report_serve_layers(report, ServeLayers{}, false);
    write_trace(tracer, args);
  }
  print_info(verdict, model);
  return finish(report, verdict);
}

// ---------------------------------------------------------------------------
// serve_poisson: open-loop Poisson arrivals against a 2-worker KnnServer.
// ---------------------------------------------------------------------------

/// Fixed mean arrival rate, from a measurement: bench_serving's calibrated
/// saturation of this server set-up (same data shape, workers, batch cap
/// and window) read 19.1k, 48.5k and 59.1k qps in three runs on a 4-vCPU
/// AVX-512 VM, and 24.9k in BENCH_serving.json. 6000 qps is under a third
/// of the lowest reading.
constexpr double kServeRateQps = 6000;
/// Queue bound: 85 ms of arrivals, under the 100 ms deadline. On that VM
/// the threads are sometimes descheduled for tens of milliseconds, and the
/// backlog then arrives at once. A 64-deep queue (bench_serving's) shed
/// such bursts in 10 s runs. With a 256-deep one, 1 of 33 runs failed 81
/// requests.
constexpr std::size_t kServeQueueDepth = 512;
constexpr double kServeLimitMs = 100;  ///< latency limit = request deadline
constexpr std::size_t kServeK = 10;
constexpr std::size_t kServeTracedBatches = 400;

struct Schedule {
  std::vector<double> due_s;              ///< offsets from the phase start
  knn::BinaryDataset queries;             ///< one query per arrival
  std::vector<util::BitVector> payloads;  ///< the same, as submit() takes
};

Schedule poisson_schedule(const knn::BinaryDataset& data, double seconds,
                          SplitMix64& rng) {
  Schedule s;
  const auto gap = [&] { return -std::log(1.0 - rng.unit()) / kServeRateQps; };
  for (double t = gap(); t < seconds; t += gap()) {
    s.due_s.push_back(t);
  }
  s.queries = perturbed_queries(data, s.due_s.size(), 0.05, rng);
  for (std::size_t i = 0; i < s.queries.size(); ++i) {
    s.payloads.push_back(s.queries.vector(i));
  }
  return s;
}

struct ServePhase {
  std::vector<double> latency_ms;  ///< from due time; failures >= the limit
  std::vector<double> lag_ms, submit_us, queue_ms, execute_ms;
  std::vector<double> reference_ms;  ///< each request's reference scan
  std::vector<Clock::time_point> due, call, after;
  std::vector<serve::Response> responses;
  std::uint64_t ok = 0;
  double wall_s = 0;
  serve::ServerStats before, stats;
};

/// Sends `schedule` from this thread (the generator), then collects every
/// response and validates each kOk list against the exact oracle. After
/// each submit() the generator runs the reference scan of that query while
/// the server works on it: its time is the yardstick the request's batch
/// execution is divided by, and its distances must match the response.
ServePhase drive(serve::KnnServer& server, Schedule& schedule,
                 const knn::BinaryDataset& data, Verdict& verdict) {
  const std::size_t n = schedule.due_s.size();
  ServePhase p;
  p.before = server.stats();
  std::vector<std::future<serve::Response>> futures;
  Lists references;
  futures.reserve(n);
  references.reserve(n);
  p.call.reserve(n);
  p.after.reserve(n);
  p.reference_ms.reserve(n);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t i = 0; i < n; ++i) {
    p.due.push_back(after_seconds(start, schedule.due_s[i]));
    std::this_thread::sleep_until(p.due.back());
    p.call.push_back(Clock::now());
    futures.push_back(
        server.submit(std::move(schedule.payloads[i]), kServeLimitMs));
    p.after.push_back(Clock::now());
    references.push_back(
        reference_knn(data, schedule.queries.row(i), server.k()));
    p.reference_ms.push_back(elapsed_ms(p.after.back(), Clock::now()));
  }
  Clock::time_point end = start;
  for (std::size_t i = 0; i < n; ++i) {
    serve::Response r = futures[i].get();
    const double lag = elapsed_ms(p.due[i], p.call[i]);
    double latency = lag + r.total_ms;
    if (r.ok() && (!knn::is_valid_knn_result(data, schedule.queries.row(i),
                                             server.k(), r.neighbors) ||
                   !same_distances(r.neighbors, references[i]))) {
      verdict.fail("server returned an invalid kNN list");
    }
    if (r.ok() && latency <= kServeLimitMs) {
      ++p.ok;
    } else {
      latency = std::max(latency, kServeLimitMs);
    }
    end = std::max(end, after_seconds(p.call[i], r.total_ms / 1e3));
    p.latency_ms.push_back(latency);
    p.lag_ms.push_back(lag);
    p.submit_us.push_back(seconds_between(p.call[i], p.after[i]) * 1e6);
    p.queue_ms.push_back(r.queue_ms);
    p.execute_ms.push_back(r.total_ms - r.queue_ms);
    p.responses.push_back(std::move(r));
  }
  p.wall_s = seconds_between(start, end);
  p.stats = server.stats();
  verdict.attempted += n;
  verdict.failed += n - p.ok;
  return p;
}

/// search_cost_ratio on serve, from the server's own timing: per executed
/// batch whose members all answered kOk, the worker's execution time (batch
/// start to its last member's response, from Response::total_ms -
/// queue_ms) over the summed reference-scan time of the batch's queries.
BatchLoop served_costs(const ServePhase& p) {
  struct Batch {
    std::size_t members = 0, size = 0;
    double execute_ms = 0, reference_ms = 0;
  };
  std::map<std::uint64_t, Batch> by_seq;
  for (std::size_t i = 0; i < p.responses.size(); ++i) {
    const serve::Response& r = p.responses[i];
    if (r.ok()) {
      Batch& b = by_seq[r.batch_seq];
      ++b.members;
      b.size = r.batch_size;
      b.execute_ms = std::max(b.execute_ms, r.total_ms - r.queue_ms);
      b.reference_ms += p.reference_ms[i];
    }
  }
  BatchLoop out;
  for (const auto& [seq, b] : by_seq) {
    if (b.members == b.size) {
      out.add(b.execute_ms / 1e3, b.reference_ms / 1e3);
    }
  }
  return out;
}

/// The ServerStats-derived serve-layer metrics: deltas over the phase,
/// except the queue high-water mark, which covers the server's lifetime.
ServeLayers server_counts(const ServePhase& p) {
  ServeLayers s;
  s.batches = static_cast<double>(p.stats.batches - p.before.batches);
  s.occupancy = s.batches == 0
                    ? 0
                    : static_cast<double>(p.stats.batched_requests -
                                          p.before.batched_requests) /
                          s.batches;
  s.shed = static_cast<double>(p.stats.rejected_overload -
                               p.before.rejected_overload);
  s.deadline_exceeded = static_cast<double>(p.stats.deadline_exceeded -
                                            p.before.deadline_exceeded);
  s.degraded_batches = static_cast<double>(p.stats.degraded_batches -
                                           p.before.degraded_batches);
  s.queue_high_water = static_cast<double>(p.stats.queue_high_water);
  return s;
}

void print_server(const ServePhase& p) {
  const ServeLayers s = server_counts(p);
  std::printf("info   server: %.0f batches, mean occupancy %.2f, queue "
              "high-water %.0f, shed %.0f, deadline exceeded %.0f\n",
              s.batches, s.occupancy, s.queue_high_water, s.shed,
              s.deadline_exceeded);
}

/// A run whose generator fell behind its schedule measured the generator,
/// not the server.
bool generator_kept_up(const ServePhase& p) {
  const double p50 = median(p.lag_ms), p99 = quantile(p.lag_ms, 0.99);
  if (p50 > 1.0 || p99 > kServeLimitMs / 2) {
    std::fprintf(stderr,
                 "INVALID RUN: generator fell behind (lag p50 %.3f ms, p99 "
                 "%.3f ms)\n",
                 p50, p99);
    return false;
  }
  return true;
}

/// Request indices of the first served (kOk) batches, grouped as the
/// server batched them: the batch shapes the engine saw on this workload.
std::vector<std::vector<std::size_t>> served_batches(const ServePhase& p) {
  std::map<std::uint64_t, std::vector<std::size_t>> by_seq;
  for (std::size_t i = 0; i < p.responses.size(); ++i) {
    if (p.responses[i].ok()) {
      by_seq[p.responses[i].batch_seq].push_back(i);
    }
  }
  std::vector<std::vector<std::size_t>> out;
  for (auto& [seq, ids] : by_seq) {
    if (out.size() == kServeTracedBatches) {
      break;
    }
    out.push_back(std::move(ids));
  }
  return out;
}

/// A replayed batch must return exactly what the server answered.
void check_replay(const Lists& lists, const std::vector<std::size_t>& ids,
                  const ServePhase& p, Verdict& verdict) {
  for (std::size_t j = 0; j < ids.size(); ++j) {
    if (lists[j] != p.responses[ids[j]].neighbors) {
      verdict.fail("replayed batch differs from the server's responses");
    }
  }
}

serve::ServerOptions server_options(const std::string& cache) {
  serve::ServerOptions o;
  o.engine = engine_options(cache);
  o.k = kServeK;
  o.workers = 2;
  o.max_batch = 32;
  o.batch_window_ms = 0.5;
  o.max_queue_depth = kServeQueueDepth;
  o.max_inflight = 2 * kServeQueueDepth;
  return o;
}

int run_serve_workload(const Args& args) {
  constexpr std::size_t kN = 1024, kDims = 128;
  SplitMix64 rng(args.seed);
  const knn::BinaryDataset data = uniform_dataset(kN, kDims, rng);
  std::printf("workload %s: uniform %zux%zu, Poisson %.0f qps open loop, "
              "limit %.0f ms, 2 workers x 1 engine thread, k=10, seed %llu\n",
              args.workload.c_str(), kN, kDims, kServeRateQps, kServeLimitMs,
              static_cast<unsigned long long>(args.seed));

  Report report;
  Verdict verdict;
  std::vector<double> setup_s;
  std::unique_ptr<serve::KnnServer> server;
  std::string cache;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    if (!cache.empty()) {
      std::filesystem::remove_all(cache);
    }
    cache = fresh_dir(args.out_dir, "serve");
    const Clock::time_point t0 = Clock::now();
    server = std::make_unique<serve::KnnServer>(data, server_options(cache));
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  // Warm-up: blocking requests, validated like the rest.
  Schedule warm = poisson_schedule(data, 0.05, rng);
  for (std::size_t i = 0; i < warm.payloads.size(); ++i) {
    const serve::Response r = server->search(std::move(warm.payloads[i]));
    if (!r.ok() || !knn::is_valid_knn_result(data, warm.queries.row(i),
                                             server->k(), r.neighbors)) {
      verdict.fail("warm-up request failed");
    }
  }

  // A standalone engine built like a worker's (warm cache): the model
  // reference, and the traced run's replay engine.
  core::ApKnnEngine engine(data, engine_options(cache));
  const core::EngineStats model = engine.project(1);
  if (!args.trace) {
    Schedule schedule = poisson_schedule(data, args.seconds, rng);
    const ServePhase p = drive(*server, schedule, data, verdict);
    server->drain();
    if (!generator_kept_up(p)) {
      return 3;
    }
    report_end_to_end(report, setup_s,
                      "median of 7 server constructions (2 workers)",
                      served_costs(p), "served batches");
    print_latency(p.latency_ms, "request (from due time)");
    std::printf("info   throughput %.1f kOk responses within the limit per "
                "second\n",
                static_cast<double>(p.ok) / p.wall_s);
    std::printf("info   generator lag p50 %.4f ms max %.4f ms\n",
                median(p.lag_ms), quantile(p.lag_ms, 1.0));
    print_server(p);
  } else {
    measure_compile(report, data, args.out_dir);
    Schedule first = poisson_schedule(data, args.seconds / 2, rng);
    Schedule second = poisson_schedule(data, args.seconds / 2, rng);
    const ServePhase untraced = drive(*server, first, data, verdict);
    const ServePhase p = drive(*server, second, data, verdict);
    server->drain();
    if (!generator_kept_up(untraced) || !generator_kept_up(p)) {
      return 3;
    }

    // Serve spans, rebuilt from the generator's timestamps and the
    // Response fields.
    Tracer tracer;
    for (std::size_t i = 0; i < p.responses.size(); ++i) {
      const serve::Response& r = p.responses[i];
      const Clock::time_point queued = after_seconds(p.call[i], r.queue_ms / 1e3);
      const Clock::time_point done = after_seconds(p.call[i], r.total_ms / 1e3);
      const Tracer::Id root = tracer.add("request", 0, i + 1, p.due[i], done);
      tracer.add("loadgen.lag", root, i + 1, p.due[i], p.call[i]);
      tracer.add("serve.submit", root, i + 1, p.call[i], p.after[i]);
      tracer.add("serve.queue_wait", root, i + 1, p.after[i],
                 std::max(p.after[i], queued));
      tracer.add("serve.execute", root, i + 1, std::max(p.after[i], queued),
                 done);
    }
    // Engine layers on this workload's batch shapes.
    std::vector<LayerSample> samples;
    for (const std::vector<std::size_t>& ids : served_batches(p)) {
      Lists lists;
      samples.push_back(traced_search(tracer, engine, data,
                                      rows_of(second.queries, ids), kServeK,
                                      p.responses[ids.front()].batch_seq,
                                      &lists, verdict));
      check_replay(lists, ids, p, verdict);
    }
    report_layers(report, samples, tracer);
    char note[96];
    std::snprintf(note, sizeof(note), "traced p50 %.4f - untraced p50 %.4f",
                  median(p.latency_ms), median(untraced.latency_ms));
    report.add("trace.overhead_ms",
               median(p.latency_ms) - median(untraced.latency_ms), "ms", note);
    report.add("model.cycles_per_query",
               static_cast<double>(model.simulated_cycles), "count");
    const auto totals = tracer.totals();
    const double request_s = totals.at("request").total_s;
    const auto share = [&](const char* name) {
      return totals.at(name).self_s / request_s;
    };
    ServeLayers s = server_counts(p);
    s.submit_share = share("serve.submit");
    s.queue_wait_share = share("serve.queue_wait");
    s.execute_share = share("serve.execute");
    s.lag_share = share("loadgen.lag");
    s.late_ratio =
        static_cast<double>(std::count_if(p.lag_ms.begin(), p.lag_ms.end(),
                                          [](double ms) { return ms > 1.0; })) /
        static_cast<double>(p.lag_ms.size());
    std::printf("info   serve medians: submit() %.3f us, queue wait %.4f ms, "
                "execute %.4f ms; generator lag p50 %.4f ms, max %.4f ms\n",
                median(p.submit_us), median(p.queue_ms), median(p.execute_ms),
                median(p.lag_ms), quantile(p.lag_ms, 1.0));
    print_server(p);
    report_serve_layers(report, s, true);
    write_trace(tracer, args);
  }
  if (!server->stats().accounted()) {
    verdict.fail("server drain left requests unaccounted");
  }
  server.reset();
  std::filesystem::remove_all(cache);
  print_info(verdict, model);
  return finish(report, verdict);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  try {
    std::filesystem::create_directories(args.out_dir);
    if (args.workload == "batch_k10") {
      return run_batch_workload(args, 10);
    }
    if (args.workload == "batch_k1000") {
      return run_batch_workload(args, 1000);
    }
    if (args.workload == "serve_poisson") {
      return run_serve_workload(args);
    }
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
