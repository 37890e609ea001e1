// QueryService end-to-end tests: determinism across worker counts (result
// hashes AND per-query buffer-miss counts), parity with direct
// single-threaded execution, shutdown/drain semantics, oversubscription,
// and the storage layer's concurrent-read contract.
#include "mcn/exec/query_service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "mcn/algo/incremental_topk.h"
#include "mcn/algo/result_hash.h"
#include "mcn/algo/skyline_query.h"
#include "mcn/algo/topk_query.h"
#include "mcn/common/random.h"
#include "mcn/gen/workload.h"
#include "test_util.h"

namespace mcn::exec {
namespace {

struct ServiceFixture {
  std::unique_ptr<gen::Instance> instance;
  size_t frames = 0;

  explicit ServiceFixture(uint64_t seed = 11) {
    test::SmallConfig config;
    config.seed = seed;
    auto built = test::MakeSmallInstance(config);
    EXPECT_TRUE(built.ok());
    instance = std::move(built).value();
    frames = instance->pool->capacity();
  }

  ServiceOptions Options(int workers) const {
    ServiceOptions opts;
    opts.num_workers = workers;
    opts.queue_capacity = 64;
    opts.pool_frames_per_worker = frames;
    return opts;
  }

  /// A deterministic mixed workload (same for every service under test).
  std::vector<api::QuerySpec> MixedWorkload(int n) const {
    std::vector<api::QuerySpec> requests;
    Random rng(1234);
    int d = instance->graph.num_costs();
    for (int i = 0; i < n; ++i) {
      api::QuerySpec req;
      req.location = instance->RandomQueryLocation(rng);
      req.engine = (i % 2 == 0) ? expand::EngineKind::kCea
                                : expand::EngineKind::kLsa;
      switch (i % 3) {
        case 0:
          req.kind = QueryKind::kSkyline;
          break;
        case 1:
          req.kind = QueryKind::kTopK;
          req.k = 3;
          req.preference.weights = test::TestWeights(d, 99 + i);
          break;
        case 2:
          req.kind = QueryKind::kIncrementalTopK;
          req.k = 5;
          req.preference.weights = test::TestWeights(d, 7 + i);
          break;
      }
      requests.push_back(std::move(req));
    }
    return requests;
  }
};

struct RunRecord {
  std::vector<uint64_t> hashes;
  std::vector<uint64_t> misses;
  std::vector<size_t> result_sizes;
};

RunRecord RunThrough(QueryService& service,
                     const std::vector<api::QuerySpec>& requests) {
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(requests.size());
  for (const api::QuerySpec& req : requests) {
    futures.push_back(service.Submit(req));
  }
  RunRecord record;
  for (auto& future : futures) {
    QueryResult result = future.get();
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    record.hashes.push_back(result.result_hash);
    record.misses.push_back(result.stats.buffer_misses);
    record.result_sizes.push_back(result.kind == QueryKind::kSkyline
                                      ? result.skyline.size()
                                      : result.topk.size());
  }
  return record;
}

TEST(QueryServiceTest, DeterministicAcrossWorkerCounts) {
  ServiceFixture fx;
  auto requests = fx.MixedWorkload(30);

  auto s1 = QueryService::Create(&fx.instance->disk, fx.instance->files,
                                 fx.Options(1));
  ASSERT_TRUE(s1.ok());
  RunRecord r1 = RunThrough(**s1, requests);
  (*s1)->Shutdown();

  auto s8 = QueryService::Create(&fx.instance->disk, fx.instance->files,
                                 fx.Options(8));
  ASSERT_TRUE(s8.ok());
  RunRecord r8 = RunThrough(**s8, requests);
  (*s8)->Shutdown();

  // Same workload, 1 vs 8 workers: identical result hashes AND identical
  // per-query buffer-miss counts (cold cache per query).
  EXPECT_EQ(r1.hashes, r8.hashes);
  EXPECT_EQ(r1.misses, r8.misses);
  EXPECT_EQ(r1.result_sizes, r8.result_sizes);
}

TEST(QueryServiceTest, MatchesDirectSingleThreadedExecution) {
  ServiceFixture fx;
  auto requests = fx.MixedWorkload(18);

  auto service = QueryService::Create(&fx.instance->disk,
                                      fx.instance->files, fx.Options(4));
  ASSERT_TRUE(service.ok());
  RunRecord concurrent = RunThrough(**service, requests);
  (*service)->Shutdown();

  // Reference: the same requests executed inline on the instance's own
  // pool/reader, exactly like the paper's single-query experiments.
  for (size_t i = 0; i < requests.size(); ++i) {
    const api::QuerySpec& req = requests[i];
    fx.instance->ResetIoState();
    auto engine = expand::MakeEngine(req.engine, fx.instance->reader.get(),
                                     req.location);
    ASSERT_TRUE(engine.ok());
    uint64_t hash = 0;
    switch (req.kind) {
      case QueryKind::kSkyline: {
        algo::SkylineQuery query(engine.value().get());
        auto rows = query.ComputeAll();
        ASSERT_TRUE(rows.ok());
        hash = algo::HashResult(rows.value());
        break;
      }
      case QueryKind::kTopK: {
        algo::TopKOptions opts;
        opts.k = req.k;
        algo::TopKQuery query(engine.value().get(),
                              algo::WeightedSum(req.preference.weights),
                              opts);
        auto rows = query.Run();
        ASSERT_TRUE(rows.ok());
        hash = algo::HashResult(rows.value());
        break;
      }
      case QueryKind::kIncrementalTopK: {
        algo::IncrementalTopK query(
            engine.value().get(), algo::WeightedSum(req.preference.weights));
        std::vector<algo::TopKEntry> rows;
        for (int j = 0; j < req.k; ++j) {
          auto next = query.NextBest();
          ASSERT_TRUE(next.ok());
          if (!next.value().has_value()) break;
          rows.push_back(*next.value());
        }
        hash = algo::HashResult(rows);
        break;
      }
    }
    EXPECT_EQ(concurrent.hashes[i], hash) << "request " << i;
    EXPECT_EQ(concurrent.misses[i], fx.instance->pool->stats().misses)
        << "request " << i;
  }
}

TEST(QueryServiceTest, OversubscriptionManyMoreQueriesThanWorkers) {
  ServiceFixture fx;
  // Queue capacity 8 with 2 workers and 60 queries: Submit applies
  // back-pressure; everything still completes exactly once.
  ServiceOptions opts = fx.Options(2);
  opts.queue_capacity = 8;
  auto service =
      QueryService::Create(&fx.instance->disk, fx.instance->files, opts);
  ASSERT_TRUE(service.ok());
  auto requests = fx.MixedWorkload(60);
  RunRecord record = RunThrough(**service, requests);
  EXPECT_EQ(record.hashes.size(), 60u);
  ServiceStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.completed, 60u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GT(stats.qps, 0.0);
  EXPECT_GT(stats.latency_p50_ms, 0.0);
  EXPECT_LE(stats.latency_p50_ms, stats.latency_p95_ms);
  EXPECT_LE(stats.latency_p95_ms, stats.latency_p99_ms);
  (*service)->Shutdown();
}

TEST(QueryServiceTest, DrainCompletesBacklogAndShutdownRejects) {
  ServiceFixture fx;
  auto service = QueryService::Create(&fx.instance->disk,
                                      fx.instance->files, fx.Options(2));
  ASSERT_TRUE(service.ok());
  auto requests = fx.MixedWorkload(20);
  std::vector<std::future<QueryResult>> futures;
  for (const auto& req : requests) futures.push_back((*service)->Submit(req));
  (*service)->Drain();
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_TRUE(future.get().status.ok());
  }
  (*service)->Shutdown(/*drain=*/true);
  // Submitting after shutdown resolves immediately with an error.
  auto rejected = (*service)->Submit(requests[0]);
  QueryResult result = rejected.get();
  EXPECT_FALSE(result.status.ok());
  // Shutdown is idempotent.
  (*service)->Shutdown();
}

TEST(QueryServiceTest, NonDrainingShutdownResolvesBacklogWithErrors) {
  ServiceFixture fx;
  ServiceOptions opts = fx.Options(1);
  opts.queue_capacity = 64;
  auto service =
      QueryService::Create(&fx.instance->disk, fx.instance->files, opts);
  ASSERT_TRUE(service.ok());
  auto requests = fx.MixedWorkload(40);
  std::vector<std::future<QueryResult>> futures;
  for (const auto& req : requests) futures.push_back((*service)->Submit(req));
  (*service)->Shutdown(/*drain=*/false);
  int completed = 0, dropped = 0;
  for (auto& future : futures) {
    QueryResult result = future.get();  // must never hang or throw
    (result.status.ok() ? completed : dropped) += 1;
  }
  EXPECT_EQ(completed + dropped, 40);
}

TEST(QueryServiceTest, InvalidRequestsFailCleanlyWithoutPoisoningWorkers) {
  ServiceFixture fx;
  auto service = QueryService::Create(&fx.instance->disk,
                                      fx.instance->files, fx.Options(2));
  ASSERT_TRUE(service.ok());
  Random rng(5);

  api::QuerySpec bad_weights;
  bad_weights.kind = QueryKind::kTopK;
  bad_weights.location = fx.instance->RandomQueryLocation(rng);
  bad_weights.preference.weights = {1.0};  // wrong dimension
  QueryResult bad = (*service)->Submit(bad_weights).get();
  EXPECT_FALSE(bad.status.ok());

  api::QuerySpec bad_k;
  bad_k.kind = QueryKind::kIncrementalTopK;
  bad_k.location = fx.instance->RandomQueryLocation(rng);
  bad_k.preference.weights =
      test::TestWeights(fx.instance->graph.num_costs(), 3);
  bad_k.k = 0;
  EXPECT_FALSE((*service)->Submit(bad_k).get().status.ok());

  // The worker that executed the failures still serves good queries.
  auto good = fx.MixedWorkload(6);
  RunRecord record = RunThrough(**service, good);
  EXPECT_EQ(record.hashes.size(), 6u);
  ServiceStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.completed, 6u);
}

TEST(QueryServiceTest, DiskIsFrozenWhileServiceLives) {
  ServiceFixture fx;
  auto service = QueryService::Create(&fx.instance->disk,
                                      fx.instance->files, fx.Options(1));
  ASSERT_TRUE(service.ok());
  EXPECT_EQ(fx.instance->disk.concurrent_reader_scopes(), 1);
  (*service)->Shutdown();
  EXPECT_EQ(fx.instance->disk.concurrent_reader_scopes(), 0);
}

TEST(QueryServiceTest, IntraQueryParallelismKeepsHashesIdentical) {
  // QuerySpec::parallelism routes a query onto the worker's turn-barrier
  // rig (DESIGN.md §7). The turn schedule must be byte-identical whether it
  // runs inline (parallelism 1) or on probe workers (parallelism 4), for
  // every query kind; the classic serial path (parallelism 0) must agree
  // on the result sets, checked here via skyline sizes and top-k hashes.
  ServiceFixture fx;
  std::vector<api::QuerySpec> base = fx.MixedWorkload(12);
  for (api::QuerySpec& req : base) req.engine = expand::EngineKind::kCea;

  auto run_with_parallelism = [&](int parallelism) {
    ServiceOptions opts = fx.Options(2);
    opts.per_query_parallelism = 4;
    auto service = QueryService::Create(&fx.instance->disk,
                                        fx.instance->files, opts);
    EXPECT_TRUE(service.ok());
    std::vector<api::QuerySpec> requests = base;
    for (api::QuerySpec& req : requests) req.parallelism = parallelism;
    RunRecord record = RunThrough(**service, requests);
    (*service)->Shutdown();
    return record;
  };

  RunRecord inline_turns = run_with_parallelism(1);
  RunRecord pooled_turns = run_with_parallelism(4);
  EXPECT_EQ(inline_turns.hashes, pooled_turns.hashes);
  EXPECT_EQ(inline_turns.result_sizes, pooled_turns.result_sizes);

  RunRecord serial = run_with_parallelism(0);
  EXPECT_EQ(serial.result_sizes, inline_turns.result_sizes);
  for (size_t i = 0; i < base.size(); ++i) {
    if (base[i].kind != QueryKind::kSkyline) {
      // Complete cost vectors: top-k / incremental results are identical
      // across the serial and turn schedules, entry for entry.
      EXPECT_EQ(serial.hashes[i], inline_turns.hashes[i]) << "request " << i;
    }
  }
}

}  // namespace
}  // namespace mcn::exec
