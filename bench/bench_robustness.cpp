// Robustness-layer overhead benchmark (docs/ROBUSTNESS.md): what does the
// cooperative checkpoint machinery cost when nothing ever fails, and how
// far past its deadline does a timed-out search run?
//
// Two questions, at the fig8 working point (1024 vectors x 128 dims,
// bit-parallel backend):
//   overhead  — search wall clock with no deadline (the plain fast path)
//               vs a huge never-firing deadline (every frame checkpointed).
//               Both arms are best-of-N and must return bit-identical
//               neighbors; the CI gate asserts the engaged arm costs < 2%.
//   overshoot — a deadline set to ~half the baseline wall clock, under the
//               isolate policy: elapsed - deadline measures the
//               frame-granular enforcement lag.
//
// Usage: bench_robustness [n] [dims] [queries] [reps]  (default 1024 128 32 9)
//
// Records BENCH_robustness.json: robustness_checkpoint_plain,
// robustness_checkpoint_engaged, robustness_checkpoint_overhead
// (params.overhead_pct — the CI gate), and robustness_deadline_overshoot.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/engine.hpp"
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

/// One search() under a fresh `deadline_ms` budget (0 = none) that starts
/// immediately before the call, as the budget of a request would.
std::vector<std::vector<knn::Neighbor>> timed_search(
    core::ApKnnEngine& engine, const knn::BinaryDataset& queries,
    std::size_t k, double deadline_ms) {
  const util::Deadline deadline = deadline_ms > 0
                                      ? util::Deadline::after_ms(deadline_ms)
                                      : util::Deadline{};
  core::SearchControl control;
  control.deadline = &deadline;
  return engine.search(queries, k, control);
}

/// Best-of-`reps` wall clock for one search configuration.
double best_search_wall(core::ApKnnEngine& engine,
                        const knn::BinaryDataset& queries, std::size_t k,
                        int reps, double deadline_ms = 0) {
  double best = 0;
  for (int rep = 0; rep < reps; ++rep) {
    util::Timer timer;
    timed_search(engine, queries, k, deadline_ms);
    const double wall = timer.seconds();
    if (rep == 0 || wall < best) {
      best = wall;
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n = 1024, dims = 128, query_count = 32;
  int reps = 9;
  if (argc > 1) n = bench::parse_positive(argv[1]);
  if (argc > 2) dims = bench::parse_positive(argv[2]);
  if (argc > 3) query_count = bench::parse_positive(argv[3]);
  if (argc > 4) reps = static_cast<int>(bench::parse_positive(argv[4]));
  if (n == 0 || dims == 0 || query_count == 0 || reps == 0) {
    std::cerr << "usage: " << argv[0] << " [n] [dims] [queries] [reps]\n";
    return 2;
  }

  util::Rng rng(20170529);
  const auto data = random_dataset(rng, n, dims);
  const auto queries = random_dataset(rng, query_count, dims);
  const std::size_t k = std::min<std::size_t>(10, n);

  core::EngineOptions opt;
  opt.backend = core::SimulationBackend::kBitParallel;
  opt.threads = 1;  // serialize so both arms time identical work

  // Arm 1: plain — no deadline, no token: the unengaged fast path.
  core::ApKnnEngine plain(data, opt);
  const auto expected = plain.search(queries, k);
  const double plain_wall = best_search_wall(plain, queries, k, reps);
  const std::size_t configs = plain.configurations();

  // Arm 2: engaged — a deadline that never fires, so every query frame
  // pays the checkpoint (clock read + cancellation load) and nothing else.
  constexpr double kNeverMs = 1e9;
  core::ApKnnEngine engaged(data, opt);
  if (timed_search(engaged, queries, k, kNeverMs) != expected) {
    std::cerr << "FAIL: engaged run control changed the neighbors\n";
    return 1;
  }
  const double engaged_wall =
      best_search_wall(engaged, queries, k, reps, kNeverMs);
  const double overhead_pct =
      plain_wall > 0 ? (engaged_wall - plain_wall) / plain_wall * 100.0 : 0.0;

  // Overshoot: a deadline at ~half the baseline wall clock, isolate policy.
  // Elapsed minus deadline is the enforcement lag (at most about one query
  // frame plus wind-down, since checkpoints sit on frame boundaries).
  const double deadline_ms = std::max(0.05, plain_wall * 1e3 / 2.0);
  opt.on_error = core::OnError::kIsolate;
  core::ApKnnEngine bounded(data, opt);
  double overshoot_ms = 0;
  std::size_t timed_out = 0;
  for (int rep = 0; rep < reps; ++rep) {
    util::Timer timer;
    timed_search(bounded, queries, k, deadline_ms);
    const double elapsed_ms = timer.seconds() * 1e3 - deadline_ms;
    if (rep == 0 || elapsed_ms < overshoot_ms) {
      overshoot_ms = elapsed_ms;
      timed_out =
          bounded.last_stats().count_state(core::ShardState::kTimedOut);
    }
  }

  util::TablePrinter table(
      "Robustness layer: checkpoint overhead and deadline overshoot (" +
      std::to_string(n) + "x" + std::to_string(dims) + ", " +
      std::to_string(configs) + " configurations, best of " +
      std::to_string(reps) + ")");
  table.set_header({"arm", "wall [ms]", "note"},
                   {util::Align::kLeft, util::Align::kRight,
                    util::Align::kLeft});
  table.add_row({"no deadline (fast path)", fmt("%.3f", plain_wall * 1e3),
                 "baseline"});
  table.add_row({"huge deadline (checkpointed)",
                 fmt("%.3f", engaged_wall * 1e3),
                 fmt("%+.2f%% vs baseline", overhead_pct)});
  table.add_row({"half-baseline deadline, isolate",
                 fmt("%.3f", deadline_ms + overshoot_ms),
                 fmt("%.3f", deadline_ms) + " ms budget, " +
                     std::to_string(timed_out) + " shards timed out"});
  table.add_note("engaged arm returned bit-identical neighbors");
  table.print(std::cout);

  util::BenchReport report("robustness");
  const auto stamp = [&](util::BenchRecord& rec) {
    rec.param("n", static_cast<std::uint64_t>(n))
        .param("dims", static_cast<std::uint64_t>(dims))
        .param("queries", static_cast<std::uint64_t>(query_count))
        .param("configurations", static_cast<std::uint64_t>(configs));
  };
  {
    util::BenchRecord rec("robustness_checkpoint_plain");
    stamp(rec);
    report.write(rec.wall_seconds(plain_wall));
  }
  {
    util::BenchRecord rec("robustness_checkpoint_engaged");
    stamp(rec);
    report.write(rec.wall_seconds(engaged_wall));
  }
  {
    util::BenchRecord rec("robustness_checkpoint_overhead");
    stamp(rec);
    rec.param("overhead_pct", overhead_pct);
    report.write(rec);
  }
  {
    util::BenchRecord rec("robustness_deadline_overshoot");
    stamp(rec);
    rec.param("deadline_ms", deadline_ms)
        .param("overshoot_ms", overshoot_ms)
        .param("timed_out_configurations",
               static_cast<std::uint64_t>(timed_out));
    report.write(rec);
  }
  if (!report.ok()) {
    std::cerr << "warning: could not write " << report.path() << "\n";
  } else {
    std::cout << "\nrecorded " << report.path() << "\n";
  }
  std::cout << "checkpointed search costs " << fmt("%+.2f", overhead_pct)
            << "% vs the unengaged fast path\n";
  return 0;
}
