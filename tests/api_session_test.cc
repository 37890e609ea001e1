// Unified-API service tests (DESIGN.md §9): parity between the QuerySpec
// convenience constructors and field-built specs, Status-based rejection
// of malformed
// specs (no worker crashes), preference-constraint semantics, and the
// streaming incremental session lifecycle — local-iterator parity, bounded
// session table with LRU + idle eviction, close/unknown-id behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "mcn/algo/constraints.h"
#include "mcn/algo/incremental_topk.h"
#include "mcn/algo/result_hash.h"
#include "mcn/api/query_spec.h"
#include "mcn/common/random.h"
#include "mcn/exec/query_service.h"
#include "mcn/expand/engines.h"
#include "mcn/gen/workload.h"
#include "test_util.h"

namespace mcn::exec {
namespace {

struct ApiFixture {
  std::unique_ptr<gen::Instance> instance;
  size_t frames = 0;

  explicit ApiFixture(uint64_t seed = 11) {
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

  int d() const { return instance->graph.num_costs(); }

  graph::Location Location(uint64_t salt) const {
    Random rng(1000 + salt);
    return instance->RandomQueryLocation(rng);
  }

  /// The local ground truth a session must replay: a fresh
  /// IncrementalTopK over its own engine + pool of the same capacity.
  std::vector<algo::TopKEntry> LocalStream(const api::QuerySpec& spec,
                                           int limit) {
    storage::BufferPool pool(&instance->disk, frames);
    net::NetworkReader reader(instance->files, &pool);
    auto engine = expand::MakeEngine(spec.engine, &reader, spec.location);
    EXPECT_TRUE(engine.ok());
    algo::IncrementalTopK query(
        engine.value().get(),
        algo::WeightedSum(spec.preference.weights));
    std::vector<algo::TopKEntry> rows;
    while (static_cast<int>(rows.size()) < limit) {
      auto next = query.NextBest();
      EXPECT_TRUE(next.ok());
      if (!next.value().has_value()) break;
      if (!algo::PassesCaps(spec.preference.constraints, *next.value())) {
        continue;
      }
      rows.push_back(*std::move(next).value());
    }
    return rows;
  }
};

TEST(ApiSpecTest, FieldBuiltAndHelperSpecsAreHashIdentical) {
  ApiFixture fx;
  auto service = QueryService::Create(&fx.instance->disk,
                                      fx.instance->files, fx.Options(2));
  ASSERT_TRUE(service.ok());
  Random rng(42);
  for (int i = 0; i < 9; ++i) {
    api::QuerySpec fields;
    fields.location = fx.instance->RandomQueryLocation(rng);
    fields.kind = static_cast<QueryKind>(i % 3);
    api::QuerySpec helper = api::SkylineSpec(fields.location);
    if (fields.kind != QueryKind::kSkyline) {
      // A skyline spec carries no weights (validation rejects them).
      fields.k = 3;
      fields.preference.weights = test::TestWeights(fx.d(), 77 + i);
      helper = fields.kind == QueryKind::kTopK
                   ? api::TopKSpec(fields.location, 3,
                                   fields.preference.weights)
                   : api::IncrementalSpec(fields.location, 3,
                                          fields.preference.weights);
    }
    EXPECT_EQ(fields, helper);
    QueryResult via_fields = (*service)->Submit(fields).get();
    QueryResult via_helper = (*service)->Submit(helper).get();
    ASSERT_TRUE(via_fields.status.ok());
    ASSERT_TRUE(via_helper.status.ok());
    EXPECT_EQ(via_fields.result_hash, via_helper.result_hash);
    EXPECT_EQ(via_fields.stats.buffer_misses,
              via_helper.stats.buffer_misses);
  }
  (*service)->Shutdown();
}

TEST(ApiSpecTest, MalformedSpecsRejectedWithStatusNotCrash) {
  ApiFixture fx;
  auto service = QueryService::Create(&fx.instance->disk,
                                      fx.instance->files, fx.Options(2));
  ASSERT_TRUE(service.ok());

  auto expect_invalid = [&](api::QuerySpec spec) {
    QueryResult result = (*service)->Submit(std::move(spec)).get();
    EXPECT_FALSE(result.status.ok());
    EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument)
        << result.status.ToString();
  };

  // Wrong-dimension weights (the old DCHECK path).
  expect_invalid(api::TopKSpec(fx.Location(1), 3, {1.0}));
  // Negative weight: previously an MCN_CHECK crash inside WeightedSum.
  expect_invalid(
      api::TopKSpec(fx.Location(2), 3,
                    std::vector<double>(fx.d(), -1.0)));
  // k <= 0.
  expect_invalid(api::TopKSpec(fx.Location(3), 0,
                               test::TestWeights(fx.d(), 5)));
  // Skyline with weights.
  {
    api::QuerySpec spec = api::SkylineSpec(fx.Location(4));
    spec.preference.weights = test::TestWeights(fx.d(), 6);
    expect_invalid(std::move(spec));
  }
  // Wrong-size cost caps.
  {
    api::QuerySpec spec = api::SkylineSpec(fx.Location(5));
    spec.preference.constraints.cost_caps = {1.0};
    expect_invalid(std::move(spec));
  }
  // Epsilon on a non-skyline kind.
  {
    api::QuerySpec spec =
        api::TopKSpec(fx.Location(6), 3, test::TestWeights(fx.d(), 7));
    spec.preference.constraints.epsilon = 0.1;
    expect_invalid(std::move(spec));
  }
  // Unset location.
  expect_invalid(api::QuerySpec{});

  // The workers that executed the failures still serve good queries.
  QueryResult good = (*service)->Submit(api::SkylineSpec(fx.Location(8))).get();
  EXPECT_TRUE(good.status.ok());
  ServiceStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.failed, 7u);
  EXPECT_EQ(stats.completed, 1u);
  (*service)->Shutdown();
}

TEST(ApiSpecTest, ConstraintsFilterResultsAndUnconstrainedIsNoOp) {
  ApiFixture fx;
  auto service = QueryService::Create(&fx.instance->disk,
                                      fx.instance->files, fx.Options(2));
  ASSERT_TRUE(service.ok());
  const graph::Location loc = fx.Location(9);

  QueryResult base = (*service)->Submit(api::SkylineSpec(loc)).get();
  ASSERT_TRUE(base.status.ok());
  ASSERT_FALSE(base.skyline.empty());

  // An explicitly-default constraint block is byte-identical to none.
  api::QuerySpec defaulted = api::SkylineSpec(loc);
  defaulted.preference.constraints = algo::PreferenceConstraints{};
  QueryResult same = (*service)->Submit(defaulted).get();
  EXPECT_EQ(same.result_hash, base.result_hash);
  EXPECT_EQ(same.stats.buffer_misses, base.stats.buffer_misses);

  // Cap every dimension at the base result's max: still a no-op filter
  // on rows, then tighten dimension 0 below the known minimum — every
  // surviving row must satisfy the cap, and some row must go.
  graph::CostVector maxima(fx.d(), 0.0);
  double min0 = expand::kInfCost;
  for (const auto& e : base.skyline) {
    for (int j = 0; j < fx.d(); ++j) {
      if ((e.known_mask >> j) & 1u) {
        maxima[j] = std::max(maxima[j], e.costs[j]);
      }
    }
    if (e.known_mask & 1u) min0 = std::min(min0, e.costs[0]);
  }
  api::QuerySpec capped = api::SkylineSpec(loc);
  for (int j = 0; j < fx.d(); ++j) {
    capped.preference.constraints.cost_caps.push_back(maxima[j]);
  }
  QueryResult all_pass = (*service)->Submit(capped).get();
  ASSERT_TRUE(all_pass.status.ok());
  EXPECT_EQ(all_pass.result_hash, base.result_hash);

  capped.preference.constraints.cost_caps[0] = min0 * 0.5;
  QueryResult filtered = (*service)->Submit(capped).get();
  ASSERT_TRUE(filtered.status.ok());
  EXPECT_LT(filtered.skyline.size(), base.skyline.size());
  for (const auto& e : filtered.skyline) {
    if (e.known_mask & 1u) EXPECT_LE(e.costs[0], min0 * 0.5);
  }

  // Epsilon thinning: a large epsilon collapses the skyline to (at
  // least) far fewer rows; epsilon 0 stays exact.
  api::QuerySpec thinned = api::SkylineSpec(loc);
  thinned.preference.constraints.epsilon = 1e9;
  QueryResult thin = (*service)->Submit(thinned).get();
  ASSERT_TRUE(thin.status.ok());
  EXPECT_LE(thin.skyline.size(), base.skyline.size());
  EXPECT_GE(thin.skyline.size(), 1u);
  (*service)->Shutdown();
}

TEST(ApiSessionTest, SessionReplaysLocalIncrementalIterator) {
  ApiFixture fx;
  auto service = QueryService::Create(&fx.instance->disk,
                                      fx.instance->files, fx.Options(3));
  ASSERT_TRUE(service.ok());

  api::QuerySpec spec = api::IncrementalSpec(
      fx.Location(21), 4, test::TestWeights(fx.d(), 13));
  const std::vector<algo::TopKEntry> expected = fx.LocalStream(spec, 1 << 20);

  auto session = (*service)->OpenSession(spec);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  // Stream the whole component in uneven batches; the concatenation must
  // replay the local iterator row for row (ids, scores, cost vectors —
  // compared via the shared FNV hash), and logical I/O must match a
  // fresh local pool of the same capacity.
  std::vector<algo::TopKEntry> streamed;
  uint64_t streamed_misses = 0;
  bool exhausted = false;
  const int batch_sizes[] = {1, 3, 2, 100};
  for (int n : batch_sizes) {
    QueryResult batch = (*service)->SessionNext(*session, n).get();
    ASSERT_TRUE(batch.status.ok()) << batch.status.ToString();
    EXPECT_EQ(batch.result_hash, algo::HashResult(batch.topk));
    streamed_misses += batch.stats.buffer_misses;
    for (auto& row : batch.topk) streamed.push_back(std::move(row));
    if (static_cast<int>(batch.topk.size()) < n) {
      EXPECT_TRUE(batch.exhausted);
      exhausted = true;
      break;
    }
  }
  EXPECT_TRUE(exhausted);
  EXPECT_EQ(algo::HashResult(streamed), algo::HashResult(expected));

  storage::BufferPool pool(&fx.instance->disk, fx.frames);
  net::NetworkReader reader(fx.instance->files, &pool);
  auto engine = expand::MakeEngine(spec.engine, &reader, spec.location);
  ASSERT_TRUE(engine.ok());
  algo::IncrementalTopK local(engine.value().get(),
                              algo::WeightedSum(spec.preference.weights));
  while (true) {
    auto next = local.NextBest();
    ASSERT_TRUE(next.ok());
    if (!next.value().has_value()) break;
  }
  EXPECT_EQ(streamed_misses, pool.stats().misses);

  // Past exhaustion: empty OK batches forever, never an error.
  QueryResult after = (*service)->SessionNext(*session, 5).get();
  EXPECT_TRUE(after.status.ok());
  EXPECT_TRUE(after.topk.empty());
  EXPECT_TRUE(after.exhausted);

  EXPECT_EQ((*service)->CloseSession(*session), Status::OK());
  EXPECT_EQ((*service)->num_open_sessions(), 0u);
  QueryResult closed = (*service)->SessionNext(*session, 1).get();
  EXPECT_EQ(closed.status.code(), StatusCode::kNotFound);
  (*service)->Shutdown();
}

TEST(ApiSessionTest, ConstrainedSessionStillFillsBatches) {
  ApiFixture fx;
  auto service = QueryService::Create(&fx.instance->disk,
                                      fx.instance->files, fx.Options(2));
  ASSERT_TRUE(service.ok());

  api::QuerySpec spec = api::IncrementalSpec(
      fx.Location(33), 4, test::TestWeights(fx.d(), 29));
  // Cap dimension 0 at the stream's median so a real fraction of rows is
  // filtered out.
  std::vector<algo::TopKEntry> unfiltered = fx.LocalStream(spec, 1 << 20);
  ASSERT_GT(unfiltered.size(), 4u);
  std::vector<double> dim0;
  for (const auto& row : unfiltered) dim0.push_back(row.costs[0]);
  std::sort(dim0.begin(), dim0.end());
  spec.preference.constraints.cost_caps.assign(fx.d(), expand::kInfCost);
  spec.preference.constraints.cost_caps[0] = dim0[dim0.size() / 2];

  const std::vector<algo::TopKEntry> expected = fx.LocalStream(spec, 1 << 20);
  ASSERT_LT(expected.size(), unfiltered.size());

  auto session = (*service)->OpenSession(spec);
  ASSERT_TRUE(session.ok());
  std::vector<algo::TopKEntry> streamed;
  for (;;) {
    QueryResult batch = (*service)->SessionNext(*session, 2).get();
    ASSERT_TRUE(batch.status.ok());
    // A constrained batch still fills to n until exhaustion.
    for (auto& row : batch.topk) {
      EXPECT_LE(row.costs[0], spec.preference.constraints.cost_caps[0]);
      streamed.push_back(std::move(row));
    }
    if (batch.exhausted) break;
  }
  EXPECT_EQ(algo::HashResult(streamed), algo::HashResult(expected));
  (*service)->Shutdown();
}

TEST(ApiSessionTest, SessionTableBoundsAndLruEviction) {
  ApiFixture fx;
  ServiceOptions opts = fx.Options(2);
  opts.max_sessions = 2;
  auto service = QueryService::Create(&fx.instance->disk,
                                      fx.instance->files, opts);
  ASSERT_TRUE(service.ok());
  auto spec = [&](uint64_t salt) {
    return api::IncrementalSpec(fx.Location(salt), 2,
                                test::TestWeights(fx.d(), salt));
  };

  auto s1 = (*service)->OpenSession(spec(1));
  auto s2 = (*service)->OpenSession(spec(2));
  ASSERT_TRUE(s1.ok() && s2.ok());
  EXPECT_EQ((*service)->num_open_sessions(), 2u);

  // Touch s1 so s2 becomes the LRU victim.
  ASSERT_TRUE((*service)->SessionNext(*s1, 1).get().status.ok());
  auto s3 = (*service)->OpenSession(spec(3));
  ASSERT_TRUE(s3.ok());
  EXPECT_EQ((*service)->num_open_sessions(), 2u);
  EXPECT_EQ((*service)->SessionNext(*s2, 1).get().status.code(),
            StatusCode::kNotFound);
  EXPECT_TRUE((*service)->SessionNext(*s1, 1).get().status.ok());

  // Wrong kind is rejected at open.
  auto bad = (*service)->OpenSession(api::SkylineSpec(fx.Location(4)));
  EXPECT_FALSE(bad.ok());
  // Malformed spec is rejected at open (not at first batch).
  auto malformed =
      (*service)->OpenSession(api::IncrementalSpec(fx.Location(5), 2, {}));
  EXPECT_FALSE(malformed.ok());
  (*service)->Shutdown();
}

TEST(ApiSessionTest, IdleSessionsAreEvictedLazily) {
  ApiFixture fx;
  ServiceOptions opts = fx.Options(2);
  opts.max_sessions = 2;
  opts.session_idle_seconds = 0.05;
  auto service = QueryService::Create(&fx.instance->disk,
                                      fx.instance->files, opts);
  ASSERT_TRUE(service.ok());
  auto spec = [&](uint64_t salt) {
    return api::IncrementalSpec(fx.Location(salt), 2,
                                test::TestWeights(fx.d(), salt));
  };
  auto s1 = (*service)->OpenSession(spec(1));
  auto s2 = (*service)->OpenSession(spec(2));
  ASSERT_TRUE(s1.ok() && s2.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  // The next open finds both expired: the table shrinks to just s3.
  auto s3 = (*service)->OpenSession(spec(3));
  ASSERT_TRUE(s3.ok());
  EXPECT_EQ((*service)->num_open_sessions(), 1u);
  EXPECT_EQ((*service)->SessionNext(*s1, 1).get().status.code(),
            StatusCode::kNotFound);
  (*service)->Shutdown();
}

TEST(ApiSessionTest, SessionsSurviveAcrossSubmitTraffic) {
  // A session's engine stays pinned and warm while one-shot queries churn
  // through the same workers: interleaved traffic must not perturb the
  // stream (its reader is private) nor the one-shot determinism.
  ApiFixture fx;
  auto service = QueryService::Create(&fx.instance->disk,
                                      fx.instance->files, fx.Options(2));
  ASSERT_TRUE(service.ok());

  api::QuerySpec spec = api::IncrementalSpec(
      fx.Location(55), 4, test::TestWeights(fx.d(), 31));
  const std::vector<algo::TopKEntry> expected = fx.LocalStream(spec, 7);

  auto session = (*service)->OpenSession(spec);
  ASSERT_TRUE(session.ok());
  std::vector<algo::TopKEntry> streamed;
  for (int round = 0; round < 7; ++round) {
    // Interleave unrelated one-shot queries.
    QueryResult noise =
        (*service)->Submit(api::SkylineSpec(fx.Location(60 + round))).get();
    ASSERT_TRUE(noise.status.ok());
    QueryResult batch = (*service)->SessionNext(*session, 1).get();
    ASSERT_TRUE(batch.status.ok());
    if (batch.topk.empty()) break;
    streamed.push_back(batch.topk[0]);
    if (static_cast<int>(streamed.size()) == 7) break;
  }
  const size_t n = std::min(streamed.size(), expected.size());
  std::vector<algo::TopKEntry> exp_prefix(expected.begin(),
                                          expected.begin() + n);
  std::vector<algo::TopKEntry> got_prefix(streamed.begin(),
                                          streamed.begin() + n);
  EXPECT_EQ(algo::HashResult(got_prefix), algo::HashResult(exp_prefix));
  EXPECT_GT(n, 0u);
  (*service)->Shutdown();
}

// Sessions keep their own reader, and so their own query workspace
// (DESIGN.md §6). On a single worker, one-shot queries that lease and reset
// the worker reader's workspace between a session's batches must not
// perturb the stream: batch by batch, the rows must be byte-identical to a
// local IncrementalTopK replay. Flat, and sharded (K = 2), where the
// session's reader is a shard::ShardedNetworkReader.
TEST(ApiSessionTest, SessionBatchesIsolatedFromInterleavedOneShots) {
  gen::ExperimentConfig config;
  config.nodes = 400;
  config.edges = 520;
  config.facilities = 60;
  config.clusters = 4;
  config.num_costs = 3;
  config.seed = 23;
  auto flat = gen::BuildInstance(config);
  ASSERT_TRUE(flat.ok());
  gen::Instance& instance = *flat.value();
  const int d = config.num_costs;
  Random rng(77);
  const api::QuerySpec spec = api::IncrementalSpec(
      instance.RandomQueryLocation(rng), 4, test::TestWeights(d, 5));

  // The local replay: a fresh iterator over its own reader.
  std::vector<algo::TopKEntry> expected;
  {
    storage::BufferPool pool(&instance.disk, instance.pool->capacity());
    net::NetworkReader reader(instance.files, &pool);
    auto engine = expand::MakeEngine(spec.engine, &reader, spec.location);
    ASSERT_TRUE(engine.ok());
    algo::IncrementalTopK local(engine.value().get(),
                                algo::WeightedSum(spec.preference.weights));
    for (;;) {
      auto next = local.NextBest();
      ASSERT_TRUE(next.ok());
      if (!next.value().has_value()) break;
      expected.push_back(*std::move(next).value());
    }
  }
  ASSERT_GT(expected.size(), 10u);

  std::vector<api::QuerySpec> one_shots;
  for (int i = 0; i < 6; ++i) {
    const graph::Location loc = instance.RandomQueryLocation(rng);
    api::QuerySpec q = i % 2 == 0
                           ? api::SkylineSpec(loc)
                           : api::TopKSpec(loc, 3, test::TestWeights(d, i));
    q.parallelism = i % 3;
    one_shots.push_back(q);
  }

  for (int shards : {0, 2}) {
    SCOPED_TRACE(shards == 0 ? "flat" : "sharded K=2");
    ServiceOptions opts;
    opts.num_workers = 1;
    opts.per_query_parallelism = 2;
    std::unique_ptr<gen::ShardedInstance> sharded;
    std::unique_ptr<QueryService> service;
    if (shards == 0) {
      opts.pool_frames_per_worker = instance.pool->capacity();
      service =
          QueryService::Create(&instance.disk, instance.files, opts).value();
    } else {
      sharded = gen::BuildShardedInstance(config, shards).value();
      opts.pool_frames_per_worker = sharded->pool_frames;
      service = QueryService::Create(&sharded->storage, sharded->files, opts)
                    .value();
      ASSERT_TRUE(service->sharded());
    }
    auto session = service->OpenSession(spec);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    size_t offset = 0;
    for (int round = 0; offset < expected.size(); ++round) {
      // One-shot traffic through the only worker between batches.
      for (const api::QuerySpec& q : one_shots) {
        QueryResult noise = service->Submit(q).get();
        ASSERT_TRUE(noise.status.ok()) << noise.status.ToString();
      }
      const int n = 1 + round % 4;
      QueryResult batch = service->SessionNext(*session, n).get();
      ASSERT_TRUE(batch.status.ok()) << batch.status.ToString();
      const size_t end = std::min(expected.size(), offset + n);
      ASSERT_EQ(batch.topk.size(), end - offset) << "round " << round;
      const std::vector<algo::TopKEntry> want(expected.begin() + offset,
                                              expected.begin() + end);
      EXPECT_EQ(algo::HashResult(batch.topk), algo::HashResult(want))
          << "round " << round;
      for (size_t r = 0; r < want.size(); ++r) {
        EXPECT_EQ(batch.topk[r].facility, want[r].facility);
        EXPECT_EQ(batch.topk[r].score, want[r].score);
      }
      offset = end;
    }
    EXPECT_EQ(service->CloseSession(*session), Status::OK());
    service->Shutdown();
  }
}

}  // namespace
}  // namespace mcn::exec
