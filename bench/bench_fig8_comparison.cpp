// Fig. 8 / Sec. VII-B: the dynamic-threshold comparison macro — an
// "if (A > B)" construct — plus the simulation-backend comparison for the
// paper's end-to-end kNN path: the same searches run on the cycle-accurate
// reference simulator and on the bit-parallel batch backend, with wall
// clock, simulated cycles, and modeled device time recorded to
// BENCH_fig8_comparison.json.
//
// A thread-sweep section then re-runs the bit-parallel search with
// EngineOptions::threads in {1, 2, 4, ...}, asserting bit-identical
// neighbor lists AND a bit-identical merged ReportEvent stream at every
// thread count, and records the scaling (knn_thread_sweep records).
//
// A lane-width sweep does the same across EngineOptions::lane_width in
// {64, 256, 512}: every width must reproduce the 64-bit results and
// stream exactly (knn_lane_width_sweep records, with the resolved ISA).
//
// A last section times the engine against the CPU exact scan
// (knn::batch_knn) on 256 queries at 1 thread, with the engine's host
// phases: the knn_engine_vs_cpu_scan record at k=10, and the
// knn_engine_vs_cpu_scan_k1000 record at k=1000 over 4n vectors in four
// configurations. CI gates both.
//
// Usage: bench_fig8_comparison [n] [dims] [queries]   (defaults 1024 128 32)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "apsim/simulator.hpp"
#include "core/engine.hpp"
#include "core/ext/comparison_macro.hpp"
#include "knn/dataset.hpp"
#include "knn/exact.hpp"
#include "util/bench_report.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace apss;

/// Strict positive decimal parse: rejects signs, suffixes ("1e3"), and
/// empty/garbage input by returning 0 (the caller's usage trigger).
std::size_t parse_positive(const char* s) {
  if (s == nullptr || *s < '0' || *s > '9') {
    return 0;
  }
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  return *end == '\0' ? static_cast<std::size_t>(v) : 0;
}

int run_comparison_grid(util::BenchReport& report) {
  anml::AutomataNetwork net;
  core::append_comparison_macro(net, anml::SymbolSet::single('a'),
                                anml::SymbolSet::single('b'),
                                anml::SymbolSet::single('r'), 1);
  apsim::SimOptions opt;
  opt.allow_dynamic_threshold = true;

  util::TablePrinter table("Fig. 8: comparison macro truth grid");
  table.set_header({"#a \\ #b", "0", "1", "2", "3", "4"});
  std::size_t errors = 0;
  std::uint64_t cycles = 0;
  util::Timer timer;
  for (std::size_t na = 0; na <= 4; ++na) {
    std::vector<std::string> row = {std::to_string(na)};
    for (std::size_t nb = 0; nb <= 4; ++nb) {
      // Interleave b's first then a's, with settling padding: the macro
      // fires iff the final counts satisfy a > b.
      std::string stream(nb, 'b');
      stream += std::string(na, 'a');
      stream += "....";  // settle + report propagation
      apsim::Simulator sim(net, opt);
      const std::vector<std::uint8_t> bytes(stream.begin(), stream.end());
      const bool fired = !sim.run(bytes).empty();
      cycles += bytes.size();
      const bool expected = na > nb;
      if (fired != expected) {
        ++errors;
      }
      row.push_back(fired ? "FIRE" : ".");
    }
    table.add_row(row);
  }
  report.write(util::BenchRecord("comparison_grid")
                   .param("grid_cells", std::uint64_t{25})
                   .cycles(cycles)
                   .wall_seconds(timer.seconds()));
  table.add_note("expected: FIRE strictly below the diagonal (#a > #b).");
  table.print(std::cout);
  if (errors != 0) {
    std::fprintf(stderr, "FAIL: %zu grid cells diverged\n", errors);
    return 1;
  }
  std::printf("\nAll 25 grid cells match the A > B predicate.\n\n");
  return 0;
}

struct BackendRun {
  double wall_seconds = 0.0;
  std::vector<std::vector<knn::Neighbor>> results;
  core::EngineStats stats;
};

BackendRun run_backend(const knn::BinaryDataset& data,
                       const knn::BinaryDataset& queries, std::size_t k,
                       core::SimulationBackend backend) {
  core::EngineOptions opt;
  opt.backend = backend;
  core::ApKnnEngine engine(data, opt);
  util::Timer timer;
  BackendRun r;
  r.results = engine.search(queries, k);
  r.wall_seconds = timer.seconds();
  r.stats = engine.last_stats();
  return r;
}

int run_backend_comparison(util::BenchReport& report, std::size_t n,
                           std::size_t dims, std::size_t queries_n) {
  const std::size_t k = 10;
  const auto data = knn::BinaryDataset::uniform(n, dims, 97);
  const auto queries = knn::BinaryDataset::uniform(queries_n, dims, 98);
  const apsim::DeviceTiming timing = apsim::DeviceConfig::gen1().timing;

  const BackendRun cycle =
      run_backend(data, queries, k, core::SimulationBackend::kCycleAccurate);
  const BackendRun bit =
      run_backend(data, queries, k, core::SimulationBackend::kBitParallel);

  if (cycle.results != bit.results ||
      !cycle.stats.same_work(bit.stats)) {
    std::fprintf(stderr,
                 "FAIL: backends disagree on results or EngineStats\n");
    return 1;
  }
  if (bit.stats.backend.fallback != 0) {
    std::fprintf(stderr,
                 "FAIL: %zu configurations fell back to the cycle-accurate "
                 "simulator (first reason: %s)\n",
                 bit.stats.backend.fallback,
                 bit.stats.backend.fallback_reasons.front().first.c_str());
    return 1;
  }
  const double speedup = bit.wall_seconds > 0.0
                             ? cycle.wall_seconds / bit.wall_seconds
                             : 0.0;

  util::TablePrinter table("Simulated-AP backend comparison (same searches)");
  table.set_header({"backend", "wall s", "sim cycles", "device model s"});
  const auto row = [&](const char* name, const BackendRun& r) {
    table.add_row({name, util::TablePrinter::fmt(r.wall_seconds, 4),
                   std::to_string(r.stats.simulated_cycles),
                   util::TablePrinter::fmt(r.stats.total_seconds(timing), 5)});
    report.write(
        util::BenchRecord(std::string("knn_") + name)
            .param("n", static_cast<std::uint64_t>(n))
            .param("dims", static_cast<std::uint64_t>(dims))
            .param("queries", static_cast<std::uint64_t>(queries_n))
            .param("k", static_cast<std::uint64_t>(k))
            .cycles(static_cast<std::uint64_t>(r.stats.simulated_cycles))
            .wall_seconds(r.wall_seconds)
            .model_seconds(r.stats.total_seconds(timing)));
  };
  row("cycle_accurate", cycle);
  row("bit_parallel", bit);
  table.add_note("identical neighbor lists and EngineStats from both "
                 "backends; speedup = wall(cycle)/wall(bit).");
  table.print(std::cout);
  report.write(util::BenchRecord("knn_backend_speedup")
                   .param("n", static_cast<std::uint64_t>(n))
                   .param("dims", static_cast<std::uint64_t>(dims))
                   .param("queries", static_cast<std::uint64_t>(queries_n))
                   .param("speedup", speedup));
  std::printf("\nbit-parallel speedup: %.1fx wall-clock "
              "(CI gate at default sizes: >= 150x)\n", speedup);
  return 0;
}

int run_thread_sweep(util::BenchReport& report, std::size_t n,
                     std::size_t dims, std::size_t queries_n) {
  const std::size_t k = 10;
  const auto data = knn::BinaryDataset::uniform(n, dims, 97);
  const auto queries = knn::BinaryDataset::uniform(queries_n, dims, 98);

  // Fixed sweep (not capped at hardware_concurrency): correctness must
  // hold even oversubscribed, and the scaling rows are meaningful wherever
  // the snapshot was recorded. Best-of-3 timing per point — the bit-
  // parallel search is milliseconds, well inside scheduler noise.
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  constexpr int kReps = 3;
  util::TablePrinter table(
      "Bit-parallel thread sweep (configuration/frame shards, " +
      std::to_string(hw) + " hardware threads, best of " +
      std::to_string(kReps) + ")");
  table.set_header({"threads", "wall s", "speedup", "stream events"});
  double base_wall = 0.0;
  std::vector<std::vector<knn::Neighbor>> base_results;
  std::vector<apsim::ReportEvent> base_stream;
  std::size_t errors = 0;
  for (const std::size_t t : {1, 2, 4, 8}) {
    core::EngineOptions opt;
    opt.backend = core::SimulationBackend::kBitParallel;
    opt.threads = t;
    opt.collect_report_stream = true;
    core::ApKnnEngine engine(data, opt);
    double wall = 0.0;
    std::vector<std::vector<knn::Neighbor>> results;
    for (int rep = 0; rep < kReps; ++rep) {
      util::Timer timer;
      auto rep_results = engine.search(queries, k);
      const double rep_wall = timer.seconds();
      if (rep == 0) {
        wall = rep_wall;
        results = std::move(rep_results);
      } else if (rep_results != results) {
        std::fprintf(stderr, "FAIL: threads=%zu rep %d diverged\n", t, rep);
        ++errors;
      } else {
        wall = std::min(wall, rep_wall);
      }
    }
    if (t == 1) {
      base_wall = wall;
      base_results = results;
      base_stream = engine.last_report_stream();
    } else if (results != base_results ||
               engine.last_report_stream() != base_stream) {
      std::fprintf(stderr,
                   "FAIL: threads=%zu diverged from the single-threaded "
                   "reference (results or merged report stream)\n", t);
      ++errors;
    }
    const double speedup = wall > 0.0 ? base_wall / wall : 0.0;
    table.add_row({std::to_string(t), util::TablePrinter::fmt(wall, 4),
                   util::TablePrinter::fmt(speedup, 2),
                   std::to_string(engine.last_report_stream().size())});
    report.write(util::BenchRecord("knn_thread_sweep")
                     .param("n", static_cast<std::uint64_t>(n))
                     .param("dims", static_cast<std::uint64_t>(dims))
                     .param("queries", static_cast<std::uint64_t>(queries_n))
                     .param("threads", static_cast<std::uint64_t>(t))
                     .param("hardware_threads", static_cast<std::uint64_t>(hw))
                     .param("speedup_vs_1_thread", speedup)
                     .wall_seconds(wall));
  }
  table.add_note("identical neighbor lists and merged ReportEvent stream at "
                 "every thread count; speedup = wall(1 thread)/wall(t).");
  table.print(std::cout);
  return errors == 0 ? 0 : 1;
}

int run_lane_width_sweep(util::BenchReport& report, std::size_t n,
                         std::size_t dims, std::size_t queries_n) {
  const std::size_t k = 10;
  const auto data = knn::BinaryDataset::uniform(n, dims, 97);
  const auto queries = knn::BinaryDataset::uniform(queries_n, dims, 98);

  constexpr int kReps = 3;
  util::TablePrinter table("Bit-parallel lane-width sweep (best of " +
                           std::to_string(kReps) + ")");
  table.set_header({"width", "isa", "wall s", "speedup vs w64"});
  double base_wall = 0.0;
  std::vector<std::vector<knn::Neighbor>> base_results;
  std::vector<apsim::ReportEvent> base_stream;
  std::size_t errors = 0;
  for (const apsim::LaneWidth w : {apsim::LaneWidth::k64,
                                   apsim::LaneWidth::k256,
                                   apsim::LaneWidth::k512}) {
    core::EngineOptions opt;
    opt.backend = core::SimulationBackend::kBitParallel;
    opt.lane_width = w;
    opt.collect_report_stream = true;
    core::ApKnnEngine engine(data, opt);
    double wall = 0.0;
    std::vector<std::vector<knn::Neighbor>> results;
    for (int rep = 0; rep < kReps; ++rep) {
      util::Timer timer;
      auto rep_results = engine.search(queries, k);
      const double rep_wall = timer.seconds();
      if (rep == 0) {
        wall = rep_wall;
        results = std::move(rep_results);
      } else {
        wall = std::min(wall, rep_wall);
      }
    }
    if (w == apsim::LaneWidth::k64) {
      base_wall = wall;
      base_results = results;
      base_stream = engine.last_report_stream();
    } else if (results != base_results ||
               engine.last_report_stream() != base_stream) {
      std::fprintf(stderr,
                   "FAIL: %s-bit lanes diverged from the 64-bit reference "
                   "(results or merged report stream)\n", apsim::to_string(w));
      ++errors;
    }
    const std::string isa = engine.backend_stats().lane_isa;
    const double speedup = wall > 0.0 ? base_wall / wall : 0.0;
    table.add_row({apsim::to_string(w), isa,
                   util::TablePrinter::fmt(wall, 4),
                   util::TablePrinter::fmt(speedup, 2)});
    report.write(util::BenchRecord("knn_lane_width_sweep")
                     .param("n", static_cast<std::uint64_t>(n))
                     .param("dims", static_cast<std::uint64_t>(dims))
                     .param("queries", static_cast<std::uint64_t>(queries_n))
                     .param("lane_width_bits",
                            static_cast<std::uint64_t>(w))
                     .param("lane_isa", isa)
                     .param("speedup_vs_w64", speedup)
                     .wall_seconds(wall));
  }
  table.add_note("identical neighbor lists and merged ReportEvent stream at "
                 "every lane width; wider words need AVX2/AVX-512 for SIMD, "
                 "else the portable multi-word fallback runs.");
  table.print(std::cout);
  return errors == 0 ? 0 : 1;
}

/// The honest baseline: engine search() — bit-parallel, 1 thread, report
/// stream not collected, so every frame stops after its k-th report's
/// cycle and each shard writes its neighbour lists straight from the
/// frame evaluation — against the CPU exact scan (knn::batch_knn) of the
/// same 256 queries on the same thread. Best of kReps each, alternating.
/// ratio = scan / engine: above 1 the simulated accelerator beats the scan.
/// The record splits the best engine call into its host phases
/// (EngineStats::phases). `per_config` caps the vectors per configuration
/// (0: the board's capacity).
int run_engine_vs_cpu_scan(util::BenchReport& report, const char* name,
                           std::size_t n, std::size_t dims, std::size_t k,
                           std::size_t per_config) {
  constexpr std::size_t kQueries = 256;
  constexpr int kReps = 7;
  const auto data = knn::BinaryDataset::uniform(n, dims, 97);
  const auto queries = knn::BinaryDataset::uniform(kQueries, dims, 99);
  core::EngineOptions opt;
  opt.backend = core::SimulationBackend::kBitParallel;
  opt.threads = 1;
  opt.max_vectors_per_config = per_config;
  core::ApKnnEngine engine(data, opt);
  double engine_s = 0.0;
  double scan_s = 0.0;
  core::PhaseTimes phases;
  std::vector<std::vector<knn::Neighbor>> results;
  for (int rep = 0; rep < kReps; ++rep) {
    util::Timer engine_timer;
    results = engine.search(queries, k);
    const double e = engine_timer.seconds();
    util::Timer scan_timer;
    const auto scanned = knn::batch_knn(data, queries, k);
    const double s = scan_timer.seconds();
    if (rep == 0 || e < engine_s) {
      engine_s = e;
      phases = engine.last_stats().phases;
    }
    scan_s = rep == 0 ? s : std::min(scan_s, s);
    if (scanned.size() != results.size()) {
      std::fprintf(stderr, "FAIL: scan returned %zu lists\n", scanned.size());
      return 1;
    }
  }
  for (std::size_t q = 0; q < kQueries; ++q) {
    if (!knn::is_valid_knn_result(data, queries.row(q), k, results[q])) {
      std::fprintf(stderr, "FAIL: engine query %zu is not a valid kNN\n", q);
      return 1;
    }
  }
  const core::EngineStats& stats = engine.last_stats();
  const double per_q = 1e6 / static_cast<double>(kQueries);
  const double ratio = engine_s > 0.0 ? scan_s / engine_s : 0.0;
  std::printf("\nengine vs CPU exact scan (%zux%zu, %zu configurations, %zu "
              "queries, k=%zu, 1 thread, best of %d):\n  engine search() "
              "%.2f us/query (encode %.2f, simulate %.2f, merge %.2f), "
              "knn::batch_knn %.2f us/query -> ratio %.2f (scan/engine); "
              "host cycles skipped %zu of %zu simulated\n",
              n, dims, stats.configurations, kQueries, k, kReps,
              engine_s * per_q, phases.encode_s * per_q,
              phases.simulate_s * per_q, phases.merge_s * per_q,
              scan_s * per_q, ratio, stats.host_cycles_skipped,
              stats.simulated_cycles);
  report.write(util::BenchRecord(name)
                   .param("n", static_cast<std::uint64_t>(n))
                   .param("dims", static_cast<std::uint64_t>(dims))
                   .param("queries", static_cast<std::uint64_t>(kQueries))
                   .param("k", static_cast<std::uint64_t>(k))
                   .param("threads", std::uint64_t{1})
                   .param("configurations",
                          static_cast<std::uint64_t>(stats.configurations))
                   .param("engine_us_per_query", engine_s * per_q)
                   .param("cpu_scan_us_per_query", scan_s * per_q)
                   .param("ratio", ratio)
                   .param("encode_us_per_query", phases.encode_s * per_q)
                   .param("simulate_us_per_query", phases.simulate_s * per_q)
                   .param("merge_us_per_query", phases.merge_s * per_q)
                   .param("host_cycles_skipped",
                          static_cast<std::uint64_t>(
                              stats.host_cycles_skipped))
                   .cycles(static_cast<std::uint64_t>(stats.simulated_cycles))
                   .wall_seconds(engine_s));
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  std::size_t n = 1024, dims = 128, queries = 32;
  if (argc > 1) n = parse_positive(argv[1]);
  if (argc > 2) dims = parse_positive(argv[2]);
  if (argc > 3) queries = parse_positive(argv[3]);
  if (n == 0 || dims == 0 || queries == 0) {
    std::fprintf(stderr,
                 "usage: bench_fig8_comparison [n] [dims] [queries]  "
                 "(positive integers; defaults 1024 128 32)\n");
    return 2;
  }

  util::BenchReport report("fig8_comparison");
  const int grid_rc = run_comparison_grid(report);
  const int backend_rc = run_backend_comparison(report, n, dims, queries);
  const int sweep_rc = run_thread_sweep(report, n, dims, queries);
  const int width_rc = run_lane_width_sweep(report, n, dims, queries);
  const int scan_rc = run_engine_vs_cpu_scan(report, "knn_engine_vs_cpu_scan",
                                             n, dims, 10, 0);
  // Re-ranker candidates (k = 1000) over four configurations of n vectors:
  // the run the per-configuration merge and the neighbour emission carry.
  const int scan1000_rc =
      run_engine_vs_cpu_scan(report, "knn_engine_vs_cpu_scan_k1000", 4 * n,
                             dims, 1000, n);
  if (report.ok()) {
    std::printf("\nrecorded -> %s\n", report.path().c_str());
  }
  if (grid_rc != 0) return grid_rc;
  if (backend_rc != 0) return backend_rc;
  if (sweep_rc != 0) return sweep_rc;
  if (width_rc != 0) return width_rc;
  return scan_rc != 0 ? scan_rc : scan1000_rc;
} catch (const std::exception& ex) {
  std::fprintf(stderr, "error: %s\n", ex.what());
  return 1;
}
