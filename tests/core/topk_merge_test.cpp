// search() builds each query's top-k by merging the configurations' sorted
// runs, and a bit-parallel shard writes its runs straight from
// BatchSimulator::run_frames' sink. Differential: the lists must equal the
// exact scan's, the stream-collecting run's (whose shards decode
// ReportEvents with core::TemporalSortDecoder) and the cycle-accurate
// backend's, with the same device accounting, for plain, packed and
// multiplexed layouts over several configurations, at k = 1, at a k whose
// cut falls inside a distance tie, and at k = n-1, n and > n, at every
// lane width and at 1 and 4 threads. A configuration degraded by an
// engine.shard fault merges its decoded lists with the other
// configurations' sink lists.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apss_test_support.hpp"
#include "core/engine.hpp"
#include "knn/exact.hpp"
#include "util/fault_injection.hpp"

namespace apss::core {
namespace {

using Lists = std::vector<std::vector<knn::Neighbor>>;

struct SearchRun {
  Lists results;
  std::vector<apsim::ReportEvent> stream;
  EngineStats stats;
};

/// The smallest k >= 2 whose cut splits a distance tie in some query's
/// full list: its k-th and (k+1)-th neighbours are equally distant.
std::size_t tie_k(const Lists& full) {
  std::size_t best = 0;
  for (const auto& list : full) {
    for (std::size_t i = 1; i + 1 < list.size(); ++i) {
      if (list[i].distance == list[i + 1].distance &&
          (best == 0 || i + 1 < best)) {
        best = i + 1;
        break;
      }
    }
  }
  return best;
}

void expect_merge_matches(const knn::BinaryDataset& data,
                          const knn::BinaryDataset& queries,
                          EngineOptions opt, const std::string& layout) {
  opt.threads = 1;
  ApKnnEngine cycle(data, opt);
  const std::size_t n = data.size();
  const std::size_t tie = tie_k(cycle.search(queries, n));
  ASSERT_GT(tie, 0u) << layout << ": no distance tie to cut inside";
  const std::vector<std::size_t> ks = {1, tie, n - 1, n, n + 3};
  std::vector<SearchRun> truth;
  for (const std::size_t k : ks) {
    truth.push_back({cycle.search(queries, k), {}, cycle.last_stats()});
    // The merged top-k is the exact scan's, ties broken by id.
    EXPECT_EQ(truth.back().results, knn::batch_knn(data, queries, k))
        << layout << " k=" << k;
  }
  ASSERT_GT(cycle.configurations(), 1u) << layout;

  opt.backend = SimulationBackend::kBitParallel;
  for (const apsim::LaneWidth width :
       {apsim::LaneWidth::k64, apsim::LaneWidth::k256,
        apsim::LaneWidth::k512, apsim::LaneWidth::kAuto}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      opt.lane_width = width;
      opt.threads = threads;
      opt.collect_report_stream = false;
      ApKnnEngine sinked(data, opt);
      opt.collect_report_stream = true;
      ApKnnEngine streamed(data, opt);
      ASSERT_EQ(sinked.bit_parallel_configurations(),
                sinked.configurations());
      for (std::size_t i = 0; i < ks.size(); ++i) {
        const std::string ctx = layout + " width=" +
                                apsim::to_string(width) + " threads=" +
                                std::to_string(threads) +
                                " k=" + std::to_string(ks[i]);
        EXPECT_EQ(sinked.search(queries, ks[i]), truth[i].results) << ctx;
        EXPECT_TRUE(sinked.last_stats().same_work(truth[i].stats)) << ctx;
        EXPECT_EQ(streamed.search(queries, ks[i]), truth[i].results) << ctx;
        EXPECT_TRUE(streamed.last_stats().same_work(truth[i].stats)) << ctx;
      }
    }
  }
}

TEST(TopKMerge, PlainLayoutMatchesDecoderAndReference) {
  util::Rng rng(1811);
  const auto data = test::random_dataset(rng, 40, 12);
  const auto queries = test::random_dataset(rng, 7, 12);
  EngineOptions opt;
  opt.max_vectors_per_config = 9;  // 5 configurations, the last partial
  expect_merge_matches(data, queries, opt, "plain");
}

TEST(TopKMerge, PackedLayoutsMatchDecoderAndReference) {
  util::Rng rng(1812);
  const auto data = test::random_dataset(rng, 40, 12);
  const auto queries = test::random_dataset(rng, 5, 12);
  for (const std::size_t group : {1, 2, 4, 8}) {
    for (const CollectorStyle style :
         {CollectorStyle::kFlat, CollectorStyle::kTree}) {
      EngineOptions opt;
      opt.max_vectors_per_config = 16;
      opt.packing_group_size = group;
      opt.packing_style = style;
      expect_merge_matches(
          data, queries, opt,
          "packed g=" + std::to_string(group) +
              (style == CollectorStyle::kFlat ? " flat" : " tree"));
    }
  }
}

TEST(TopKMerge, MultiplexedLayoutsMatchDecoderAndReference) {
  util::Rng rng(1813);
  const auto data = test::random_dataset(rng, 30, 10);
  // 11 queries leave the last frame partial at every slice count.
  const auto queries = test::random_dataset(rng, 11, 10);
  for (const std::size_t slices : {2, 3, 7}) {
    EngineOptions opt;
    opt.max_vectors_per_config = 8;
    opt.slices = slices;
    expect_merge_matches(data, queries, opt,
                         "mux slices=" + std::to_string(slices));
  }
}

/// Every test starts and ends with the process-global injector disarmed.
class TopKMergeDegrade : public ::testing::Test {
 protected:
  void SetUp() override { util::FaultInjector::instance().disarm_all(); }
  void TearDown() override { util::FaultInjector::instance().disarm_all(); }
};

TEST_F(TopKMergeDegrade, DecodedListsMergeWithSinkLists) {
  // Two vectors per configuration give 20 configurations, so every
  // configuration is one shard at 1 and at 4 threads: the engine.shard
  // fault's first hit on the victim fails its only shard, which reruns
  // cycle-accurate and decodes events, while every other configuration
  // writes its lists through the sink.
  constexpr std::size_t kCap = 2;
  constexpr std::int64_t kVictim = 3;
  util::Rng rng(1814);
  const auto data = test::random_dataset(rng, 40, 12);
  const auto queries = test::random_dataset(rng, 6, 12);
  for (const std::size_t slices : {1, 3}) {
    EngineOptions opt;
    opt.backend = SimulationBackend::kBitParallel;
    opt.max_vectors_per_config = kCap;
    opt.slices = slices;
    opt.on_error = OnError::kIsolate;
    opt.collect_report_stream = true;
    opt.threads = 1;
    ApKnnEngine streamed(data, opt);
    const std::size_t frame = streamed.stream_spec().cycles_per_query();
    for (const std::size_t k : {std::size_t{3}, std::size_t{9}}) {
      const Lists want = streamed.search(queries, k);
      EXPECT_EQ(want, knn::batch_knn(data, queries, k)) << "k=" << k;
      const std::vector<apsim::ReportEvent> stream =
          streamed.last_report_stream();
      const EngineStats want_stats = streamed.last_stats();
      // A plain frame stops at its k-th report; the victim's rerun on the
      // cycle-accurate simulator skips nothing. Multiplexed frames run
      // whole.
      std::uint64_t skipped = 0;
      if (slices == 1) {
        for (std::size_t c = 0; c < streamed.configurations(); ++c) {
          if (c == static_cast<std::size_t>(kVictim)) {
            continue;
          }
          std::vector<apsim::ReportEvent> own;
          for (const apsim::ReportEvent& e : stream) {
            if (e.report_code / kCap == c) {
              own.push_back(e);
            }
          }
          skipped += test::frame_cycles_skipped(own, frame, k);
        }
      }
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const std::string ctx = "slices=" + std::to_string(slices) +
                                " k=" + std::to_string(k) +
                                " threads=" + std::to_string(threads);
        EngineOptions sink_opt = opt;
        sink_opt.collect_report_stream = false;
        sink_opt.threads = threads;
        ApKnnEngine sinked(data, sink_opt);
        util::FaultInjector::Plan once;
        once.match_key = kVictim;
        once.fail_on_hit = 1;
        once.fail_count = 1;
        util::FaultInjector::instance().arm(util::kFaultEngineShard, once);
        EXPECT_EQ(sinked.search(queries, k), want) << ctx;
        util::FaultInjector::instance().disarm_all();
        const EngineStats& stats = sinked.last_stats();
        ASSERT_EQ(stats.shard_status.size(), streamed.configurations());
        for (std::size_t c = 0; c < stats.shard_status.size(); ++c) {
          EXPECT_EQ(stats.shard_status[c].state,
                    c == static_cast<std::size_t>(kVictim)
                        ? ShardState::kDegraded
                        : ShardState::kOk)
              << ctx << " config " << c;
        }
        EXPECT_EQ(stats.report_events, want_stats.report_events) << ctx;
        EXPECT_EQ(stats.simulated_cycles, want_stats.simulated_cycles) << ctx;
        EXPECT_EQ(stats.host_cycles_skipped, skipped) << ctx;
      }
    }
  }
}

}  // namespace
}  // namespace apss::core
