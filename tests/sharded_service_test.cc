// exec::QueryService in sharded mode (DESIGN.md §8): one worker pool over a
// shard::ShardedStorage, each query bound to its home shard (the shard
// owning its location), per-shard service statistics keyed by that home
// shard, and the determinism contract — result hashes are byte-identical
// to the flat service for every K in {1, 2, 4}, every worker count, and
// every intra-query parallelism level. Runs under TSan in CI (label:
// stress).
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "mcn/algo/incremental_topk.h"
#include "mcn/algo/skyline_query.h"
#include "mcn/algo/topk_query.h"
#include "mcn/api/query_spec.h"
#include "mcn/exec/expansion_executor.h"
#include "mcn/exec/query_service.h"
#include "mcn/gen/workload.h"
#include "test_util.h"

namespace mcn::exec {
namespace {

gen::ExperimentConfig SmallServiceConfig(uint64_t seed) {
  gen::ExperimentConfig config;
  config.nodes = 400;
  config.edges = 520;
  config.facilities = 60;
  config.clusters = 4;
  config.num_costs = 3;
  config.buffer_pct = 1.0;
  config.seed = seed;
  return config;
}

std::vector<api::QuerySpec> MixedWorkload(
    const gen::ShardedInstance& instance, uint64_t seed, int count) {
  Random rng(seed);
  const int d = instance.graph.num_costs();
  std::vector<api::QuerySpec> specs;
  specs.reserve(count);
  for (int i = 0; i < count; ++i) {
    api::QuerySpec spec;
    spec.location = instance.RandomQueryLocation(rng);
    switch (i % 3) {
      case 0:
        spec.kind = QueryKind::kSkyline;
        break;
      case 1:
        spec.kind = QueryKind::kTopK;
        spec.k = 4;
        break;
      case 2:
        spec.kind = QueryKind::kIncrementalTopK;
        spec.k = 3;
        break;
    }
    spec.parallelism = i % 4 == 3 ? 2 : 0;  // mix in pooled turns
    if (spec.kind != QueryKind::kSkyline) {
      spec.preference.weights = test::TestWeights(d, seed + i);
    }
    specs.push_back(spec);
  }
  return specs;
}

shard::ShardId Owner(const shard::Partition& part,
                     const graph::Location& loc) {
  return loc.is_node() ? part.of_node(loc.node()) : part.of_edge(loc.edge());
}

struct RunOutcome {
  std::vector<uint64_t> hashes;
  std::vector<uint64_t> misses;
  std::vector<int> shards;   ///< the query's home shard, as reported
  std::vector<int> workers;  ///< the worker that executed the query
  ServiceStats stats;
};

RunOutcome RunThrough(QueryService& service,
                      const std::vector<api::QuerySpec>& specs) {
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(specs.size());
  for (const api::QuerySpec& spec : specs) {
    futures.push_back(service.Submit(spec));
  }
  RunOutcome outcome;
  for (auto& future : futures) {
    QueryResult result = future.get();
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    outcome.hashes.push_back(result.result_hash);
    outcome.misses.push_back(result.stats.buffer_misses);
    outcome.shards.push_back(result.stats.shard);
    outcome.workers.push_back(result.stats.worker);
  }
  outcome.stats = service.Snapshot();
  return outcome;
}

/// Hashes of `specs` on a flat single-worker service: the reference every
/// sharded run must reproduce.
std::vector<uint64_t> FlatReferenceHashes(
    gen::Instance& flat, const std::vector<api::QuerySpec>& specs) {
  ServiceOptions opts;
  opts.num_workers = 1;
  opts.pool_frames_per_worker = flat.pool->capacity();
  opts.per_query_parallelism = 2;
  auto service = QueryService::Create(&flat.disk, flat.files, opts).value();
  std::vector<uint64_t> hashes = RunThrough(*service, specs).hashes;
  service->Shutdown();
  return hashes;
}

/// Runs `spec` directly on `engine` (no service), as a worker would.
void RunDirect(const api::QuerySpec& spec, expand::NnEngine* engine,
               const algo::QueryOptions& exec) {
  switch (spec.kind) {
    case QueryKind::kSkyline: {
      algo::SkylineOptions options;
      options.exec = exec;
      algo::SkylineQuery query(engine, options);
      ASSERT_TRUE(query.ComputeAll().ok());
      break;
    }
    case QueryKind::kTopK: {
      algo::TopKOptions options;
      options.k = spec.k;
      options.exec = exec;
      algo::TopKQuery query(engine,
                            algo::WeightedSum(spec.preference.weights),
                            options);
      ASSERT_TRUE(query.Run().ok());
      break;
    }
    case QueryKind::kIncrementalTopK: {
      algo::IncrementalTopK query(engine,
                                  algo::WeightedSum(spec.preference.weights),
                                  algo::ProbePolicy::kRoundRobin, exec);
      ASSERT_TRUE(query.NextBatch(spec.k).ok());
      break;
    }
  }
}

/// Local/remote routed fetches of `specs` run directly on sharded readers
/// whose home shard is set to each location's owner — the ground truth
/// the service's per-shard rows must sum to, whichever worker ran what.
shard::ShardedNetworkReader::ShardIoStats DirectRoutedFetches(
    gen::ShardedInstance& instance, const std::vector<api::QuerySpec>& specs,
    int per_query_parallelism) {
  const shard::Partition& part = instance.storage.partition();
  shard::ShardedNetworkReader reader(
      &instance.storage, instance.files,
      shard::SplitFramesAcrossShards(instance.pool_frames,
                                     instance.storage.num_shards()));
  auto executor =
      ExpansionExecutor::Create(&instance.storage, instance.files,
                                per_query_parallelism, instance.pool_frames)
          .value();
  shard::ShardedNetworkReader::ShardIoStats total;
  for (const api::QuerySpec& spec : specs) {
    const shard::ShardId home = Owner(part, spec.location);
    const int par = std::min<int>(spec.parallelism, per_query_parallelism);
    shard::ShardedNetworkReader::ShardIoStats before, after;
    algo::QueryOptions exec;
    if (par > 1) {
      executor->ResetIoState();
      executor->SetHomeShard(home);
      before = executor->ShardIoStats();
      auto rig = executor->NewQuery(spec.location).value();
      exec.parallelism = par;
      exec.scheduler = rig.scheduler.get();
      RunDirect(spec, rig.engine.get(), exec);
      after = executor->ShardIoStats();
    } else {
      EXPECT_EQ(par, 0) << "inline turns are not in this workload";
      reader.ResetIoState();
      reader.set_home_shard(home);
      before = reader.shard_io_stats();
      auto engine =
          expand::MakeEngine(spec.engine, &reader, spec.location).value();
      RunDirect(spec, engine.get(), exec);
      after = reader.shard_io_stats();
    }
    total.local_fetches += after.local_fetches - before.local_fetches;
    total.remote_fetches += after.remote_fetches - before.remote_fetches;
  }
  return total;
}

class ShardedServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    seed_ = test::AnnounceSeed("sharded_service_test");
  }
  uint64_t seed_ = 0;
};

// Result hashes are invariant in K and worker count; per-query miss counts
// are invariant in worker count at fixed K.
TEST_F(ShardedServiceTest, DeterministicAcrossShardAndWorkerCounts) {
  const gen::ExperimentConfig config = SmallServiceConfig(seed_);
  auto flat = gen::BuildInstance(config).value();
  std::vector<api::QuerySpec> specs;
  {
    auto k1 = gen::BuildShardedInstance(config, 1).value();
    specs = MixedWorkload(*k1, test::DeriveSeed(seed_, 1), 24);
  }
  const std::vector<uint64_t> reference_hashes =
      FlatReferenceHashes(*flat, specs);

  for (int k : {1, 2, 4}) {
    auto instance = gen::BuildShardedInstance(config, k).value();
    if (k == 1) ASSERT_EQ(instance->pool_frames, flat->pool->capacity());
    std::optional<std::vector<uint64_t>> miss_baseline;
    for (int workers : {1, 4}) {
      ServiceOptions opts;
      opts.num_workers = workers;
      opts.pool_frames_per_worker = instance->pool_frames;
      opts.per_query_parallelism = 2;
      auto service =
          QueryService::Create(&instance->storage, instance->files, opts)
              .value();
      ASSERT_TRUE(service->sharded());
      RunOutcome outcome = RunThrough(*service, specs);
      service->Shutdown();

      for (size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(outcome.hashes[i], reference_hashes[i])
            << "K=" << k << " workers=" << workers << " query " << i;
      }
      // Same-K miss counts must not depend on worker count (each worker's
      // pool set has identical capacity).
      if (!miss_baseline.has_value()) {
        miss_baseline = outcome.misses;
      } else {
        EXPECT_EQ(*miss_baseline, outcome.misses)
            << "K=" << k << " workers=" << workers;
      }
    }
  }
}

// Per-shard attribution follows the query's location, not the worker that
// happened to run it — including with fewer workers than shards.
TEST_F(ShardedServiceTest, AffinityRoutingAndPerShardStats) {
  const gen::ExperimentConfig config = SmallServiceConfig(seed_);
  const int k = 4;
  auto instance = gen::BuildShardedInstance(config, k).value();
  const auto specs =
      MixedWorkload(*instance, test::DeriveSeed(seed_, 2), 32);
  const int per_query_parallelism = 2;
  const shard::Partition& part = instance->storage.partition();
  std::vector<uint64_t> located(k, 0);
  for (const api::QuerySpec& spec : specs) {
    ++located[Owner(part, spec.location)];
  }
  const auto direct =
      DirectRoutedFetches(*instance, specs, per_query_parallelism);
  EXPECT_GT(direct.local_fetches, 0u);
  EXPECT_GT(direct.remote_fetches, 0u)
      << "d-expansions over 4 tiles must cross a cut";

  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ServiceOptions opts;
    opts.num_workers = workers;
    opts.pool_frames_per_worker = instance->pool_frames;
    opts.per_query_parallelism = per_query_parallelism;
    auto service =
        QueryService::Create(&instance->storage, instance->files, opts)
            .value();
    RunOutcome outcome = RunThrough(*service, specs);
    service->Shutdown();

    for (size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(outcome.shards[i],
                static_cast<int>(Owner(part, specs[i].location)))
          << "query " << i;
    }
    ASSERT_EQ(outcome.stats.per_shard.size(), static_cast<size_t>(k));
    uint64_t local = 0, remote = 0;
    for (const auto& row : outcome.stats.per_shard) {
      EXPECT_EQ(row.completed, located[row.shard]) << "shard " << row.shard;
      local += row.local_fetches;
      remote += row.remote_fetches;
      EXPECT_GE(row.RemoteRatio(), 0.0);
      EXPECT_LE(row.RemoteRatio(), 1.0);
    }
    EXPECT_EQ(outcome.stats.completed, specs.size());
    EXPECT_EQ(local, direct.local_fetches);
    EXPECT_EQ(remote, direct.remote_fetches);
  }
}

// Queries that all start in one shard spread over the whole pool instead
// of queueing behind a single shard-bound worker.
TEST_F(ShardedServiceTest, OneShardWorkloadSharesAllWorkers) {
  const gen::ExperimentConfig config = SmallServiceConfig(seed_);
  auto instance = gen::BuildShardedInstance(config, 4).value();
  const shard::Partition& part = instance->storage.partition();
  Random rng(test::DeriveSeed(seed_, 5));
  const int d = instance->graph.num_costs();
  std::vector<api::QuerySpec> specs;
  while (specs.size() < 16) {
    const graph::Location loc = instance->RandomQueryLocation(rng);
    if (Owner(part, loc) != 0) continue;
    specs.push_back(specs.size() % 2 == 0
                        ? api::SkylineSpec(loc)
                        : api::TopKSpec(loc, 4,
                                        test::TestWeights(d, specs.size())));
  }
  const std::vector<uint64_t> reference_hashes =
      FlatReferenceHashes(*gen::BuildInstance(config).value(), specs);

  ServiceOptions opts;
  opts.num_workers = 4;
  opts.pool_frames_per_worker = instance->pool_frames;
  // Each query holds its worker for its slept I/O stall, so the backlog
  // must spill onto the other workers.
  opts.io_latency_ms = 0.5;
  opts.simulate_io_stalls = true;
  auto service =
      QueryService::Create(&instance->storage, instance->files, opts)
          .value();
  RunOutcome outcome = RunThrough(*service, specs);
  service->Shutdown();

  EXPECT_EQ(outcome.hashes, reference_hashes);
  const std::set<int> distinct(outcome.workers.begin(),
                               outcome.workers.end());
  EXPECT_GE(distinct.size(), 2u);
  for (int shard : outcome.shards) EXPECT_EQ(shard, 0);
  EXPECT_EQ(outcome.stats.per_shard[0].completed, specs.size());
}

TEST_F(ShardedServiceTest, SingleShardHasNoRemoteFetches) {
  const gen::ExperimentConfig config = SmallServiceConfig(seed_);
  auto instance = gen::BuildShardedInstance(config, 1).value();
  ServiceOptions opts;
  opts.num_workers = 2;
  opts.pool_frames_per_worker = instance->pool_frames;
  auto service =
      QueryService::Create(&instance->storage, instance->files, opts)
          .value();
  RunOutcome outcome = RunThrough(
      *service, MixedWorkload(*instance, test::DeriveSeed(seed_, 3), 12));
  service->Shutdown();
  ASSERT_EQ(outcome.stats.per_shard.size(), 1u);
  EXPECT_EQ(outcome.stats.per_shard[0].remote_fetches, 0u);
  EXPECT_GT(outcome.stats.per_shard[0].local_fetches, 0u);
}

TEST_F(ShardedServiceTest, DrainAndShutdown) {
  const gen::ExperimentConfig config = SmallServiceConfig(seed_);
  auto instance = gen::BuildShardedInstance(config, 2).value();
  ServiceOptions opts;
  opts.num_workers = 4;
  opts.pool_frames_per_worker = instance->pool_frames;
  auto service =
      QueryService::Create(&instance->storage, instance->files, opts)
          .value();
  const auto specs =
      MixedWorkload(*instance, test::DeriveSeed(seed_, 4), 16);
  std::vector<std::future<QueryResult>> futures;
  for (const api::QuerySpec& spec : specs) {
    futures.push_back(service->Submit(spec));
  }
  service->Drain();
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().status.ok());
  }
  service->Shutdown();
  // Submitting after shutdown resolves immediately with an error.
  auto rejected = service->Submit(specs[0]);
  EXPECT_FALSE(rejected.get().status.ok());
}

}  // namespace
}  // namespace mcn::exec
