// apss_cli: a small automata workbench on the command line.
//
// Usage:
//   apss_cli pcre '<pattern>' '<input text>'
//       Compile a PCRE (Sec. II-B programming model) to an NFA, run the
//       text through the simulator, and print match-end offsets.
//   apss_cli anml <file.anml> '<input text>'
//       Load an ANML network, execute it, and print report events.
//   apss_cli knn <d> <n> <k> [seed] [--backend=cycle|bit]
//            [--lane-width=auto|64|256|512] [--packing=<g>]
//            [--threads=<N>] [--max-per-config=<N>]
//            [--artifact-cache=<dir>] [--save-artifact=<path>]
//            [--load-artifact=<path>] [--deadline-ms=<ms>]
//            [--on-error=fail|isolate|retry[:N]]
//            [--inject-fault=<site>[:<hit>[:<count>[:<key>]]]]
//       Build a random n x d-bit dataset, compile it to Hamming/sorting
//       macros, run one random query end to end, and print the neighbors
//       plus the placement report — the whole paper pipeline in one shot.
//       --backend=bit runs the search on the bit-parallel batch simulator
//       (docs/SIMULATOR_SEMANTICS.md) instead of the cycle-accurate one,
//       and prints the per-configuration compile outcome (how many were
//       lowered straight from the dataset bits, per macro family) plus
//       every fallback reason, so cycle-accurate fallbacks are visible. --lane-width picks the batch backend's execution
//       width (auto = widest this CPU supports; explicit widths fall back
//       to a portable implementation when the SIMD variant is missing) —
//       results are bit-identical at every width.
//       --packing=g builds the Sec. VI-A vector-packed
//       design, g vectors per shared ladder. --threads=N shards the
//       compile and the search over N threads (0 = all hardware threads,
//       the default; 1 = serial); any N returns bit-identical results.
//       --max-per-config=N caps vectors per board configuration (forces
//       multi-configuration runs on small datasets).
//       The artifact flags need --backend=bit (docs/ARTIFACTS.md):
//       --artifact-cache=dir compiles through the on-disk compile cache
//       and prints its counters; --save-artifact=path writes
//       configuration 0's compiled program as a versioned artifact;
//       --load-artifact=path loads an artifact, prints its provenance,
//       and cross-checks it bit-for-bit against the freshly compiled
//       configuration 0.
//       Robustness flags (docs/ROBUSTNESS.md): --deadline-ms budgets the
//       search (frame-granular enforcement); --on-error picks the shard
//       failure policy (fail = abort on first failure, the default;
//       isolate = skip failed configurations; retry[:N] = isolate after N
//       extra attempts); --inject-fault arms the deterministic fault
//       injector at a named site (e.g. engine.shard, artifact.read) for
//       testing the failure paths from the shell.
//
// Exit codes (asserted by scripts/cli_exit_codes_test.sh):
//   0  success
//   1  unexpected runtime error
//   2  usage / invalid arguments
//   3  load error (ANML file, artifact)
//   4  search/shard failure under --on-error=fail
//   5  deadline exceeded
//   6  cancelled (SIGINT)
//   7  loaded artifact does not match configuration 0

#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "anml/anml_io.hpp"
#include "anml/pcre.hpp"
#include "apsim/batch_simulator.hpp"
#include "apsim/placement.hpp"
#include "apsim/simulator.hpp"
#include "artifact/artifact.hpp"
#include "cli_common.hpp"
#include "core/engine.hpp"
#include "util/cancellation.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"

namespace {

using namespace apss;

/// Every typed failure maps to its own nonzero code so scripts can branch
/// on WHAT failed, not just that something did.
enum ExitCode : int {
  kExitOk = 0,
  kExitRuntimeError = 1,
  kExitUsage = 2,
  kExitLoadError = 3,
  kExitSearchFailed = 4,
  kExitDeadline = 5,
  kExitCancelled = 6,
  kExitArtifactMismatch = 7,
};

/// SIGINT requests cooperative cancellation: the search stops at the next
/// query-frame checkpoint and exits kExitCancelled instead of dying
/// mid-write. (An atomic store; async-signal-safe.)
util::CancellationToken g_cancel;

void handle_sigint(int) { g_cancel.request_cancel(); }

int run_pcre(const std::string& pattern, const std::string& text) {
  anml::AutomataNetwork net("cli-pcre");
  const auto compiled = anml::compile_pcre(net, pattern, 1);
  std::printf("compiled '%s': %zu states, %zu start, %zu reporting\n",
              pattern.c_str(), compiled.position_count,
              compiled.start_states.size(), compiled.reporting_states.size());
  apsim::Simulator sim(net);
  const std::vector<std::uint8_t> bytes(text.begin(), text.end());
  const auto events = sim.run(bytes);
  if (events.empty()) {
    std::printf("no matches\n");
    return kExitOk;
  }
  for (const auto& e : events) {
    std::printf("match ending at offset %llu\n",
                static_cast<unsigned long long>(e.cycle));
  }
  return kExitOk;
}

int run_anml(const std::string& path, const std::string& text) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return kExitLoadError;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::optional<anml::AutomataNetwork> net;
  try {
    net.emplace(anml::from_anml(buffer.str()));
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "cannot parse %s: %s\n", path.c_str(), ex.what());
    return kExitLoadError;
  }
  std::printf("loaded '%s': %zu elements, %zu edges\n", net->name().c_str(),
              net->size(), net->edges().size());
  apsim::Simulator sim(*net, {8, true});  // permissive: all extensions on
  const std::vector<std::uint8_t> bytes(text.begin(), text.end());
  for (const auto& e : sim.run(bytes)) {
    std::printf("report code=%u at cycle %llu\n", e.report_code,
                static_cast<unsigned long long>(e.cycle));
  }
  return kExitOk;
}

/// Everything the knn subcommand's flags configure. The engine-facing
/// flags shared with apss_serve (--backend/--lane-width/--threads/
/// --artifact-cache) parse through cli::EngineFlags (cli_common.hpp).
struct KnnFlags {
  cli::EngineFlags engine;
  std::size_t packing_group = 0;
  std::size_t max_per_config = 0;
  double deadline_ms = 0;
  core::OnError on_error = core::OnError::kFailFast;
  std::size_t max_retries = 2;
  std::string save_artifact;  ///< --save-artifact=PATH
  std::string load_artifact;  ///< --load-artifact=PATH

  /// Any artifact flag set (all need --backend=bit)?
  bool any_artifact() const {
    return !engine.artifact_cache_dir.empty() || !save_artifact.empty() ||
           !load_artifact.empty();
  }
};

int run_knn(std::size_t dims, std::size_t n, std::size_t k,
            std::uint64_t seed, const KnnFlags& flags) {
  const auto data = knn::BinaryDataset::uniform(n, dims, seed);
  core::EngineOptions opt;
  flags.engine.apply(&opt);
  opt.packing_group_size = flags.packing_group;
  opt.max_vectors_per_config = flags.max_per_config;
  opt.on_error = flags.on_error;
  opt.max_retries = flags.max_retries;
  core::ApKnnEngine engine(data, opt);
  std::printf("threads: %zu simulation thread%s\n",
              engine.simulation_threads(),
              engine.simulation_threads() == 1 ? "" : "s");
  const auto placement = engine.placement(0);
  std::printf("compiled %zu vectors x %zu bits%s: %zu STEs, %zu blocks, "
              "%s routed\n",
              n, dims,
              flags.packing_group > 0 ? " (vector-packed)" : "",
              placement.ste_count, placement.blocks_used,
              placement.routed ? "fully" : "PARTIALLY");
  if (flags.engine.backend == core::SimulationBackend::kBitParallel) {
    const core::BackendCompileStats& bs = engine.backend_stats();
    std::printf("backend: bit-parallel (%zu/%zu configurations compiled, "
                "%zu lowered: %zu hamming, %zu packed, %zu multiplexed)\n",
                bs.bit_parallel, bs.configurations, bs.lowered, bs.hamming,
                bs.packed, bs.multiplexed);
    std::printf("lane width: %zu bits (%s)\n", bs.lane_width_bits,
                bs.lane_isa.c_str());
    for (const auto& [why, count] : bs.fallback_reasons) {
      std::printf("  fallback x%zu -> cycle-accurate: %s\n", count,
                  why.c_str());
    }
    if (!flags.engine.artifact_cache_dir.empty()) {
      std::printf("artifact cache: %zu hits, %zu misses, %zu invalidations, "
                  "%zu io-retries, %zu quarantined, %zu stale tmp swept\n",
                  bs.artifact.hits, bs.artifact.misses,
                  bs.artifact.invalidations, bs.artifact.io_retries,
                  bs.artifact.quarantined, bs.artifact.stale_tmp_swept);
    }
  } else {
    std::printf("backend: cycle-accurate\n");
  }

  if (!flags.save_artifact.empty()) {
    std::string error;
    if (!engine.save_artifact(0, flags.save_artifact, &error)) {
      std::fprintf(stderr, "save-artifact: %s\n", error.c_str());
      return kExitLoadError;
    }
    std::printf("artifact: saved configuration 0 to %s\n",
                flags.save_artifact.c_str());
  }
  if (!flags.load_artifact.empty()) {
    const artifact::LoadResult loaded = artifact::load(flags.load_artifact);
    if (!loaded) {
      std::fprintf(stderr, "load-artifact: %s: %s\n",
                   artifact::to_string(loaded.error.code),
                   loaded.error.detail.c_str());
      return kExitLoadError;
    }
    const artifact::ArtifactMeta& meta = loaded.artifact->meta;
    const apsim::BatchProgram& prog = *loaded.artifact->program;
    std::printf("artifact: loaded %s (builder %s, network '%s', %s family, "
                "%zu lanes x %zu dims, key %016llx)\n",
                flags.load_artifact.c_str(), meta.builder.c_str(),
                meta.network_name.c_str(), apsim::to_string(prog.family()),
                prog.macro_count(), prog.dims(),
                static_cast<unsigned long long>(meta.key_hash));
    const auto fresh = engine.program(0);
    if (fresh == nullptr) {
      std::fprintf(stderr,
                   "load-artifact: configuration 0 has no bit-parallel "
                   "program to compare against\n");
      return kExitArtifactMismatch;
    }
    if (meta.key_hash != engine.artifact_key(0) ||
        !(prog.state() == fresh->state())) {
      std::fprintf(stderr,
                   "load-artifact: artifact does NOT match configuration 0 "
                   "(different dataset, options, or builder)\n");
      return kExitArtifactMismatch;
    }
    std::printf("artifact: matches configuration 0 bit-for-bit\n");
  }

  auto queries = knn::perturbed_queries(data, 1, 0.1, seed + 1);
  std::vector<std::vector<knn::Neighbor>> results;
  try {
    // The --deadline-ms budget starts with the search, not with the compile.
    const util::Deadline deadline =
        flags.deadline_ms > 0 ? util::Deadline::after_ms(flags.deadline_ms)
                              : util::Deadline{};
    core::SearchControl control;
    control.deadline = &deadline;
    control.cancel = &g_cancel;
    results = engine.search(queries, k, control);
  } catch (const util::DeadlineExceeded& ex) {
    std::fprintf(stderr, "deadline exceeded: %s\n", ex.what());
    return kExitDeadline;
  } catch (const util::OperationCancelled& ex) {
    std::fprintf(stderr, "cancelled: %s\n", ex.what());
    return kExitCancelled;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "search failed: %s\n", ex.what());
    return kExitSearchFailed;
  }
  std::printf("query -> %zu nearest neighbors:\n", results[0].size());
  for (const auto& nb : results[0]) {
    std::printf("  vector %6u  distance %u\n", nb.id, nb.distance);
  }
  const auto& stats = engine.last_stats();
  std::printf("device cycles: %zu (%zu per query frame); host cycles "
              "skipped: %zu\n",
              stats.simulated_cycles, stats.cycles_per_query,
              stats.host_cycles_skipped);
  // Per-configuration fault-isolation outcomes: silent only when everything
  // is healthy under the default policy.
  const std::size_t surviving = stats.surviving_configurations();
  if (surviving != stats.shard_status.size() ||
      flags.on_error != core::OnError::kFailFast) {
    std::printf("shards: %zu/%zu configurations survived (policy %s)\n",
                surviving, stats.shard_status.size(),
                core::to_string(flags.on_error));
    for (std::size_t c = 0; c < stats.shard_status.size(); ++c) {
      const core::ShardStatus& st = stats.shard_status[c];
      if (st.state == core::ShardState::kOk && st.retries == 0) {
        continue;
      }
      std::printf("  config %zu: %s (%u extra attempt%s)%s%s\n", c,
                  core::to_string(st.state), st.retries,
                  st.retries == 1 ? "" : "s", st.error.empty() ? "" : " - ",
                  st.error.c_str());
    }
  }
  return kExitOk;
}

void usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  apss_cli pcre '<pattern>' '<text>'\n"
               "  apss_cli anml <file.anml> '<text>'\n"
               "  apss_cli knn <dims> <n> <k> [seed] [--backend=cycle|bit] "
               "[--lane-width=auto|64|256|512] "
               "[--packing=<group>] [--threads=<N>] [--max-per-config=<N>] "
               "[--artifact-cache=<dir>] [--save-artifact=<path>] "
               "[--load-artifact=<path>] [--deadline-ms=<ms>] "
               "[--on-error=fail|isolate|retry[:N]] "
               "[--inject-fault=<site>[:<hit>[:<count>[:<key>]]]]\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGINT, handle_sigint);
  try {
    if (argc >= 4 && std::strcmp(argv[1], "pcre") == 0) {
      return run_pcre(argv[2], argv[3]);
    }
    if (argc >= 4 && std::strcmp(argv[1], "anml") == 0) {
      return run_anml(argv[2], argv[3]);
    }
    if (argc >= 5 && std::strcmp(argv[1], "knn") == 0) {
      // knn accepts --flags anywhere after the subcommand; pcre/anml take
      // raw positionals only (patterns/text may legitimately start with --).
      std::vector<std::string> args;
      KnnFlags flags;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        unsigned long long v = 0;
        std::string flag_error;
        const cli::FlagParse shared =
            cli::try_parse_engine_flag(arg, &flags.engine, &flag_error);
        if (shared == cli::FlagParse::kError) {
          std::fprintf(stderr, "%s\n", flag_error.c_str());
          usage();
          return kExitUsage;
        }
        if (shared == cli::FlagParse::kParsed) {
          continue;
        }
        if (arg.rfind("--packing=", 0) == 0) {
          if (!cli::parse_uint(arg.substr(10), &v) || v == 0) {
            std::fprintf(stderr,
                         "--packing needs a positive integer group size\n");
            usage();
            return kExitUsage;
          }
          flags.packing_group = static_cast<std::size_t>(v);
        } else if (arg.rfind("--max-per-config=", 0) == 0) {
          if (!cli::parse_uint(arg.substr(17), &v) || v == 0) {
            std::fprintf(stderr,
                         "--max-per-config needs a positive integer\n");
            usage();
            return kExitUsage;
          }
          flags.max_per_config = static_cast<std::size_t>(v);
        } else if (arg.rfind("--deadline-ms=", 0) == 0) {
          if (!cli::parse_positive_double(arg.substr(14), &flags.deadline_ms)) {
            std::fprintf(stderr,
                         "--deadline-ms needs a positive duration in ms\n");
            usage();
            return kExitUsage;
          }
        } else if (arg.rfind("--on-error=", 0) == 0) {
          const std::string value = arg.substr(11);
          if (value == "fail" || value == "fail-fast") {
            flags.on_error = core::OnError::kFailFast;
          } else if (value == "isolate") {
            flags.on_error = core::OnError::kIsolate;
          } else if (value == "retry") {
            flags.on_error = core::OnError::kRetry;
          } else if (value.rfind("retry:", 0) == 0 &&
                     cli::parse_uint(value.substr(6), &v)) {
            flags.on_error = core::OnError::kRetry;
            flags.max_retries = static_cast<std::size_t>(v);
          } else {
            std::fprintf(stderr,
                         "--on-error needs fail, isolate, or retry[:N]\n");
            usage();
            return kExitUsage;
          }
        } else if (arg.rfind("--inject-fault=", 0) == 0) {
          if (!cli::arm_injected_fault(arg.substr(15))) {
            std::fprintf(stderr,
                         "--inject-fault needs SITE[:HIT[:COUNT[:KEY]]]\n");
            usage();
            return kExitUsage;
          }
        } else if (arg.rfind("--save-artifact=", 0) == 0) {
          flags.save_artifact = arg.substr(16);
        } else if (arg.rfind("--load-artifact=", 0) == 0) {
          flags.load_artifact = arg.substr(16);
        } else if (arg.rfind("--", 0) == 0) {
          std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
          usage();
          return kExitUsage;
        } else {
          args.push_back(arg);
        }
      }
      if (args.size() < 3) {
        usage();
        return kExitUsage;
      }
      const auto dims = static_cast<std::size_t>(std::stoul(args[0]));
      const auto n = static_cast<std::size_t>(std::stoul(args[1]));
      const auto k = static_cast<std::size_t>(std::stoul(args[2]));
      const std::uint64_t seed = args.size() > 3 ? std::stoull(args[3]) : 1;
      if (flags.any_artifact() &&
          flags.engine.backend != core::SimulationBackend::kBitParallel) {
        std::fprintf(stderr,
                     "--artifact-cache/--save-artifact/--load-artifact need "
                     "--backend=bit (artifacts hold bit-parallel programs)\n");
        return kExitUsage;
      }
      return run_knn(dims, n, k, seed, flags);
    }
  } catch (const std::invalid_argument& ex) {
    // Typed argument rejections (bad sizes, impossible geometry, malformed
    // numbers) share the usage exit code.
    std::fprintf(stderr, "invalid arguments: %s\n", ex.what());
    return kExitUsage;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return kExitRuntimeError;
  }
  usage();
  return kExitUsage;
}
