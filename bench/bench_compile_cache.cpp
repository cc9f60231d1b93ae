// Compile-path benchmark at the fig8 working point (1024 vectors x 128
// dims, bit-parallel backend): what does a configuration's program cost
// to build fresh — lowered straight from the dataset bits — against
// building and verifying its automata network, and against loading a
// versioned on-disk artifact?
//
// Timed:
//   fresh       — engine, no cache directory: lowering (best of 3)
//   recognizer  — per configuration, build_configuration's network plus
//                 the structural recognizer (what lowering replaces)
//   miss        — engine, empty cache directory: lowering plus artifact
//                 encode + atomic save
//   load        — engine, warm cache directory: decode + validate only
//                 (best of 3; a single cold page-cache read would
//                 dominate)
// Every engine must return identical neighbor lists, and the recognizer's
// and the loaded programs must compare bit-for-bit equal to the lowered
// ones — the bench fails otherwise.
//
// Usage: bench_compile_cache [n] [dims] [queries]   (default 1024 128 8)
//
// Records BENCH_compile_cache.json: compile_cache_fresh_compile (the CI
// perf gate asserts wall <= 10 ms at the default scale),
// compile_cache_recognizer_compile, compile_cache_miss_compile_save,
// compile_cache_artifact_load, and compile_cache_speedup (params: speedup =
// fresh / load, load_over_fresh, lowering_speedup = recognizer / fresh,
// save_overhead = miss / fresh; information only).

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/engine.hpp"
#include "core/lowering.hpp"
#include "knn/dataset.hpp"
#include "util/bench_report.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace apss;

knn::BinaryDataset random_dataset(util::Rng& rng, std::size_t n,
                                  std::size_t dims) {
  knn::BinaryDataset data(n, dims);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < dims; ++d) {
      data.set(i, d, rng.below(2) == 1);
    }
  }
  return data;
}

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      total += entry.file_size();
    }
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n = 1024, dims = 128, query_count = 8;
  if (argc > 1) n = bench::parse_positive(argv[1]);
  if (argc > 2) dims = bench::parse_positive(argv[2]);
  if (argc > 3) query_count = bench::parse_positive(argv[3]);
  if (n == 0 || dims == 0 || query_count == 0) {
    std::cerr << "usage: " << argv[0] << " [n] [dims] [queries]\n";
    return 2;
  }

  util::Rng rng(20170529);
  const auto data = random_dataset(rng, n, dims);
  const auto queries = random_dataset(rng, query_count, dims);

  const std::string cache_dir =
      (std::filesystem::temp_directory_path() / "apss_bench_compile_cache")
          .string();
  std::filesystem::remove_all(cache_dir);

  core::EngineOptions opt;
  opt.backend = core::SimulationBackend::kBitParallel;
  opt.threads = 1;  // serialize compilation so the arms time the same work

  // Arm 1: fresh — lowering, no cache; best of 3 constructions.
  double fresh_wall = 0;
  for (int rep = 0; rep < 3; ++rep) {
    util::Timer fresh_timer;
    const core::ApKnnEngine engine(data, opt);
    const double wall = fresh_timer.seconds();
    if (rep == 0 || wall < fresh_wall) {
      fresh_wall = wall;
    }
  }
  core::ApKnnEngine fresh(data, opt);
  const std::size_t configs = fresh.configurations();
  if (fresh.backend_stats().lowered != configs) {
    std::cerr << "FAIL: fresh construction did not lower every configuration\n";
    return 1;
  }

  // Arm 2: recognizer — the network and structural verification lowering
  // replaces, over the same configurations.
  core::ConfigurationLayout layout;
  layout.macro = opt.macro;
  util::Timer recognizer_timer;
  for (std::size_t c = 0; c < configs; ++c) {
    const std::size_t begin = c * fresh.capacity_per_config();
    const core::ConfigurationNetwork built = core::build_configuration(
        data, {begin, std::min(fresh.capacity_per_config(), n - begin)},
        layout);
    const auto program = core::compile_configuration(built, {});
    if (program == nullptr || program->state() != fresh.program(c)->state()) {
      std::cerr << "FAIL: recognizer program " << c
                << " differs from the lowered one\n";
      return 1;
    }
  }
  const double recognizer_wall = recognizer_timer.seconds();

  // Arm 3: miss — lowering plus artifact encode + atomic save.
  opt.artifact_cache_dir = cache_dir;
  util::Timer miss_timer;
  core::ApKnnEngine miss(data, opt);
  const double miss_wall = miss_timer.seconds();
  if (miss.backend_stats().artifact.misses != configs) {
    std::cerr << "FAIL: cold construction did not miss on every slot\n";
    return 1;
  }
  const std::uint64_t artifact_bytes = directory_bytes(cache_dir);

  // Arm 4: load — decode + validate only, best of 3 constructions.
  double load_wall = 0;
  for (int rep = 0; rep < 3; ++rep) {
    util::Timer load_timer;
    core::ApKnnEngine warm(data, opt);
    const double wall = load_timer.seconds();
    if (warm.backend_stats().artifact.hits != configs) {
      std::cerr << "FAIL: warm construction did not hit on every slot\n";
      return 1;
    }
    if (rep == 0 || wall < load_wall) {
      load_wall = wall;
    }
  }

  // Differential gate: the cache must be invisible to results, and the
  // loaded programs must equal the freshly compiled ones bit for bit.
  core::ApKnnEngine warm(data, opt);
  const std::size_t k = std::min<std::size_t>(10, n);
  const auto expected = fresh.search(queries, k);
  if (miss.search(queries, k) != expected ||
      warm.search(queries, k) != expected) {
    std::cerr << "FAIL: cached engines returned different neighbors\n";
    return 1;
  }
  for (std::size_t c = 0; c < configs; ++c) {
    if (warm.program(c)->state() != fresh.program(c)->state()) {
      std::cerr << "FAIL: loaded program " << c
                << " differs from fresh compile\n";
      return 1;
    }
  }

  const double speedup = load_wall > 0 ? fresh_wall / load_wall : 0.0;
  const double load_over_fresh = fresh_wall > 0 ? load_wall / fresh_wall : 0.0;
  const double lowering_speedup =
      fresh_wall > 0 ? recognizer_wall / fresh_wall : 0.0;
  const double save_overhead = fresh_wall > 0 ? miss_wall / fresh_wall : 0.0;

  util::TablePrinter table("Compile path: lowering vs recognizer vs artifact "
                           "load (" +
                           std::to_string(n) + "x" + std::to_string(dims) +
                           ", " + std::to_string(configs) +
                           " configurations)");
  table.set_header({"arm", "wall [ms]", "vs fresh"},
                   {util::Align::kLeft, util::Align::kRight,
                    util::Align::kRight});
  table.add_row({"fresh: lowering (best of 3)", fmt("%.2f", fresh_wall * 1e3),
                 "1.00x"});
  table.add_row({"network build + recognizer",
                 fmt("%.2f", recognizer_wall * 1e3),
                 fmt("%.1fx", lowering_speedup)});
  table.add_row({"miss (lowering+save)", fmt("%.2f", miss_wall * 1e3),
                 fmt("%.2fx", save_overhead)});
  table.add_row({"artifact load (best of 3)", fmt("%.2f", load_wall * 1e3),
                 fmt("%.2fx", load_over_fresh)});
  table.add_note("artifact bytes on disk: " + std::to_string(artifact_bytes));
  table.add_note("all arms returned identical neighbors; recognizer and "
                 "loaded programs are bit-identical to the lowered ones");
  table.print(std::cout);

  util::BenchReport report("compile_cache");
  const auto stamp = [&](util::BenchRecord& rec) {
    rec.param("n", static_cast<std::uint64_t>(n))
        .param("dims", static_cast<std::uint64_t>(dims))
        .param("configurations", static_cast<std::uint64_t>(configs));
  };
  {
    util::BenchRecord rec("compile_cache_fresh_compile");
    stamp(rec);
    report.write(rec.wall_seconds(fresh_wall));
  }
  {
    util::BenchRecord rec("compile_cache_recognizer_compile");
    stamp(rec);
    report.write(rec.wall_seconds(recognizer_wall));
  }
  {
    util::BenchRecord rec("compile_cache_miss_compile_save");
    stamp(rec);
    report.write(rec.wall_seconds(miss_wall));
  }
  {
    util::BenchRecord rec("compile_cache_artifact_load");
    stamp(rec);
    rec.param("artifact_bytes", artifact_bytes);
    report.write(rec.wall_seconds(load_wall));
  }
  {
    util::BenchRecord rec("compile_cache_speedup");
    stamp(rec);
    rec.param("speedup", speedup)
        .param("load_over_fresh", load_over_fresh)
        .param("lowering_speedup", lowering_speedup)
        .param("save_overhead", save_overhead);
    report.write(rec);
  }
  if (!report.ok()) {
    std::cerr << "warning: could not write " << report.path() << "\n";
  } else {
    std::cout << "\nrecorded " << report.path() << "\n";
  }
  std::cout << "fresh (lowered) construction " << fmt("%.2f", fresh_wall * 1e3)
            << " ms; lowering is " << fmt("%.1f", lowering_speedup)
            << "x faster than network build + recognizer; artifact load "
            << fmt("%.2f", load_over_fresh) << "x the fresh time\n";
  return 0;
}
