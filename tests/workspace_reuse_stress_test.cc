// Query-workspace reuse (DESIGN.md §4, §6): an engine leases its reader's
// workspace and hands it back reset in O(what the query touched). A query
// that unwinds early — cancelled, past its deadline, failed by an injected
// disk error, or given a location that does not exist — must still hand it
// back clean, and every later query over the same reader must do exactly
// the work a query over a fresh reader does: same result hash, buffer
// misses, NN pops, fetch counts and per-expansion Stats.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mcn/algo/result_hash.h"
#include "mcn/algo/skyline_query.h"
#include "mcn/algo/topk_query.h"
#include "mcn/api/query_spec.h"
#include "mcn/common/cancel.h"
#include "mcn/common/fault_injector.h"
#include "mcn/common/random.h"
#include "mcn/exec/query_service.h"
#include "mcn/expand/engines.h"
#include "mcn/expand/query_workspace.h"
#include "test_util.h"

namespace mcn {
namespace {

using expand::NnEngine;
using expand::SingleExpansion;

struct InjectorGuard {
  explicit InjectorGuard(FaultInjector* fi) { FaultInjector::Install(fi); }
  ~InjectorGuard() { FaultInjector::Install(nullptr); }
};

/// Everything a query's work is judged by.
struct Outcome {
  uint64_t hash = 0;
  uint64_t misses = 0;
  uint64_t nn_pops = 0;
  expand::FetchProvider::Stats fetch;
  std::vector<SingleExpansion::Stats> expansions;
};

void ExpectSameWork(const Outcome& got, const Outcome& want,
                    const std::string& what) {
  EXPECT_EQ(got.hash, want.hash) << what;
  EXPECT_EQ(got.misses, want.misses) << what;
  EXPECT_EQ(got.nn_pops, want.nn_pops) << what;
  EXPECT_EQ(got.fetch.adjacency_requests, want.fetch.adjacency_requests)
      << what;
  EXPECT_EQ(got.fetch.adjacency_fetches, want.fetch.adjacency_fetches)
      << what;
  EXPECT_EQ(got.fetch.facility_requests, want.fetch.facility_requests)
      << what;
  EXPECT_EQ(got.fetch.facility_fetches, want.fetch.facility_fetches)
      << what;
  ASSERT_EQ(got.expansions.size(), want.expansions.size()) << what;
  for (size_t i = 0; i < got.expansions.size(); ++i) {
    const SingleExpansion::Stats& g = got.expansions[i];
    const SingleExpansion::Stats& w = want.expansions[i];
    EXPECT_EQ(g.nodes_settled, w.nodes_settled) << what << " exp " << i;
    EXPECT_EQ(g.facilities_settled, w.facilities_settled)
        << what << " exp " << i;
    EXPECT_EQ(g.heap_pushes, w.heap_pushes) << what << " exp " << i;
    EXPECT_EQ(g.heap_pops, w.heap_pops) << what << " exp " << i;
    EXPECT_EQ(g.nodes_pruned, w.nodes_pruned) << what << " exp " << i;
  }
}

struct Query {
  graph::Location location = graph::Location::AtNode(0);
  bool skyline = true;
  bool lsa = false;
  std::vector<double> weights;
};

class WorkspaceReuseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    seed_ = test::AnnounceSeed("workspace_reuse_stress_test");
    test::SmallConfig config;
    config.seed = test::DeriveSeed(seed_, 1);
    auto built = test::MakeSmallInstance(config);
    ASSERT_TRUE(built.ok());
    instance_ = std::move(built).value();
    frames_ = instance_->pool->capacity();
    pool_ = std::make_unique<storage::BufferPool>(&instance_->disk, frames_);
    reader_ =
        std::make_unique<net::NetworkReader>(instance_->files, pool_.get());
  }

  std::vector<Query> MixedQueries(uint64_t salt, int n) const {
    Random rng(test::DeriveSeed(seed_, salt));
    std::vector<Query> queries;
    for (int i = 0; i < n; ++i) {
      Query q;
      q.location = instance_->RandomQueryLocation(rng);
      q.skyline = i % 2 == 0;
      q.lsa = i % 3 == 2;
      if (!q.skyline) {
        q.weights = test::TestWeights(instance_->graph.num_costs(),
                                      test::DeriveSeed(seed_, 100 + i));
      }
      queries.push_back(q);
    }
    return queries;
  }

  /// Runs `q` to completion over `reader`, from a cold pool.
  static Outcome Run(net::NetworkReader* reader, const Query& q) {
    reader->ResetIoState();
    auto engine = q.lsa ? expand::MakeEngine(expand::EngineKind::kLsa,
                                             reader, q.location)
                        : expand::MakeEngine(expand::EngineKind::kCea,
                                             reader, q.location);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    Outcome out;
    if (!engine.ok()) return out;
    NnEngine* e = engine.value().get();
    if (q.skyline) {
      algo::SkylineQuery query(e);
      auto rows = query.ComputeAll();
      EXPECT_TRUE(rows.ok());
      if (rows.ok()) out.hash = algo::HashResult(rows.value());
      out.nn_pops = query.stats().nn_pops;
    } else {
      algo::TopKOptions options;
      options.k = 3;
      algo::TopKQuery query(e, algo::WeightedSum(q.weights), options);
      auto rows = query.Run();
      EXPECT_TRUE(rows.ok());
      if (rows.ok()) out.hash = algo::HashResult(rows.value());
      out.nn_pops = query.stats().nn_pops;
    }
    out.misses = reader->PoolStats().misses;
    out.fetch = e->fetch().stats();
    for (int i = 0; i < e->num_costs(); ++i) {
      out.expansions.push_back(e->expansion(i).stats());
    }
    return out;
  }

  /// The same query over a brand-new reader (and so a new workspace).
  Outcome RunFresh(const Query& q) const {
    storage::BufferPool pool(&instance_->disk, frames_);
    net::NetworkReader reader(instance_->files, &pool);
    return Run(&reader, q);
  }

  /// The reader holds its workspace again, and it is clean.
  void ExpectReturnedClean(const std::string& what) const {
    ASSERT_NE(reader_->workspace_slot(), nullptr) << what;
    EXPECT_TRUE(reader_->workspace_slot()->IsClean()) << what;
  }

  /// Half-runs a skyline query over the shared reader, then lets `fail`
  /// break it; the query must end with `code`.
  template <typename Fail>
  void FailMidQuery(const graph::Location& location, StatusCode code,
                    Fail fail) {
    reader_->ResetIoState();
    auto engine = expand::CeaEngine::Create(reader_.get(), location);
    ASSERT_TRUE(engine.ok());
    // Touch state in every expansion before the failure.
    for (int i = 0; i < engine.value()->num_costs(); ++i) {
      for (int s = 0; s < 5; ++s) ASSERT_TRUE(engine.value()->Step(i).ok());
    }
    CancelToken token;
    fail(engine.value().get(), &token);
    algo::SkylineQuery query(engine.value().get());
    auto rows = query.ComputeAll();
    ASSERT_FALSE(rows.ok());
    EXPECT_EQ(rows.status().code(), code) << rows.status().ToString();
  }

  /// After a failure: N mixed queries over the shared reader, each equal
  /// to a fresh-reader run.
  void ExpectLaterQueriesUnaffected(uint64_t salt, const std::string& what) {
    ExpectReturnedClean(what);
    const std::vector<Query> queries = MixedQueries(salt, 12);
    for (size_t i = 0; i < queries.size(); ++i) {
      const Outcome reused = Run(reader_.get(), queries[i]);
      ExpectSameWork(reused, RunFresh(queries[i]),
                     what + ", query " + std::to_string(i));
      ExpectReturnedClean(what);
    }
  }

  uint64_t seed_ = 0;
  std::unique_ptr<gen::Instance> instance_;
  size_t frames_ = 0;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<net::NetworkReader> reader_;
};

TEST_F(WorkspaceReuseTest, ReusedReaderMatchesFreshReader) {
  EXPECT_EQ(reader_->workspace_slot(), nullptr);  // built on first use
  Run(reader_.get(), MixedQueries(0, 1)[0]);
  ExpectLaterQueriesUnaffected(1, "no failure");
}

TEST_F(WorkspaceReuseTest, CancelledQueryReturnsWorkspaceClean) {
  Random rng(test::DeriveSeed(seed_, 2));
  FailMidQuery(instance_->RandomQueryLocation(rng), StatusCode::kCancelled,
               [](NnEngine* engine, CancelToken* token) {
                 token->Cancel();
                 engine->SetCancelToken(token);
               });
  ExpectLaterQueriesUnaffected(3, "after Cancelled");
}

TEST_F(WorkspaceReuseTest, ExpiredDeadlineReturnsWorkspaceClean) {
  Random rng(test::DeriveSeed(seed_, 4));
  FailMidQuery(instance_->RandomQueryLocation(rng),
               StatusCode::kDeadlineExceeded,
               [](NnEngine* engine, CancelToken* token) {
                 token->ArmDeadline(CancelToken::Clock::now() -
                                    std::chrono::milliseconds(1));
                 engine->SetCancelToken(token);
               });
  ExpectLaterQueriesUnaffected(5, "after DeadlineExceeded");
}

TEST_F(WorkspaceReuseTest, InjectedDiskErrorReturnsWorkspaceClean) {
  FaultInjector::Options options;
  options.seed = test::DeriveSeed(seed_, 6);
  options.disk_eio = 1.0;  // every physical read fails once installed
  FaultInjector injector(options);
  {
    InjectorGuard guard(nullptr);
    Random rng(test::DeriveSeed(seed_, 7));
    FailMidQuery(instance_->RandomQueryLocation(rng), StatusCode::kIOError,
                 [&injector](NnEngine*, CancelToken*) {
                   FaultInjector::Install(&injector);
                 });
  }
  ExpectLaterQueriesUnaffected(8, "after disk IOError");
}

TEST_F(WorkspaceReuseTest, InvalidLocationReturnsWorkspaceClean) {
  // A seed edge that does not exist: engine creation reads (and caches)
  // the adjacency record of its first endpoint, then fails.
  const graph::NodeId u = 0;
  graph::NodeId v = 1;
  while (instance_->graph.FindEdge(u, v).ok()) ++v;
  auto bad_edge = expand::CeaEngine::Create(
      reader_.get(), graph::Location::OnEdge(graph::EdgeKey(u, v), 0.5));
  ASSERT_FALSE(bad_edge.ok());
  EXPECT_EQ(bad_edge.status().code(), StatusCode::kNotFound);
  // A node past the end of the network.
  auto bad_node = expand::LsaEngine::Create(
      reader_.get(),
      graph::Location::AtNode(instance_->graph.num_nodes() + 5));
  ASSERT_FALSE(bad_node.ok());
  EXPECT_EQ(bad_node.status().code(), StatusCode::kInvalidArgument);
  ExpectLaterQueriesUnaffected(9, "after invalid locations");
}

TEST_F(WorkspaceReuseTest, ConcurrentEnginesOnOneReaderDoNotShare) {
  // A second engine while the first still holds the reader's workspace
  // gets a fresh one; both then do the work of fresh-reader runs.
  const std::vector<Query> queries = MixedQueries(10, 2);
  auto first = expand::CeaEngine::Create(reader_.get(), queries[0].location);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(reader_->workspace_slot(), nullptr);  // lent out
  ExpectSameWork(Run(reader_.get(), queries[1]), RunFresh(queries[1]),
                 "nested engine");
  // The nested engine's workspace went back into the empty slot.
  ExpectReturnedClean("nested engine");
  first.value().reset();
  ExpectLaterQueriesUnaffected(11, "after nested engines");
}

// Service level: one worker, whose reader's workspace every query reuses.
// Failing requests — an invalid spec, injected disk errors, an expired
// deadline — then mixed serial, inline-turn and pooled-turn queries, each
// of which must equal a fresh service's answer and I/O.
TEST_F(WorkspaceReuseTest, OneWorkerServiceAfterFailuresMatchesFresh) {
  const int d = instance_->graph.num_costs();
  auto options = [&] {
    exec::ServiceOptions opts;
    opts.num_workers = 1;
    opts.pool_frames_per_worker = frames_;
    opts.per_query_parallelism = 2;
    return opts;
  };
  Random rng(test::DeriveSeed(seed_, 12));
  std::vector<api::QuerySpec> specs;
  for (int i = 0; i < 18; ++i) {
    const graph::Location loc = instance_->RandomQueryLocation(rng);
    api::QuerySpec spec =
        i % 2 == 0 ? api::SkylineSpec(loc)
                   : api::TopKSpec(loc, 3,
                                   test::TestWeights(
                                       d, test::DeriveSeed(seed_, 200 + i)));
    spec.parallelism = i % 3;  // serial, inline turns, pooled turns
    specs.push_back(spec);
  }

  std::vector<exec::QueryResult> want;
  {
    auto fresh = exec::QueryService::Create(&instance_->disk,
                                            instance_->files, options());
    ASSERT_TRUE(fresh.ok());
    for (const api::QuerySpec& spec : specs) {
      want.push_back((*fresh)->Submit(spec).get());
      ASSERT_TRUE(want.back().status.ok());
    }
    (*fresh)->Shutdown();
  }

  auto service = exec::QueryService::Create(&instance_->disk,
                                            instance_->files, options());
  ASSERT_TRUE(service.ok());
  auto expect_matches = [&](const std::string& what) {
    for (size_t i = 0; i < specs.size(); ++i) {
      exec::QueryResult got = (*service)->Submit(specs[i]).get();
      ASSERT_TRUE(got.status.ok()) << what << " " << i;
      EXPECT_EQ(got.result_hash, want[i].result_hash) << what << " " << i;
      EXPECT_EQ(got.stats.buffer_misses, want[i].stats.buffer_misses)
          << what << " " << i;
    }
  };

  // Invalid spec: wrong-dimension weights.
  exec::QueryResult invalid =
      (*service)->Submit(api::TopKSpec(specs[0].location, 3, {1.0})).get();
  EXPECT_EQ(invalid.status.code(), StatusCode::kInvalidArgument);
  expect_matches("after invalid spec");

  // Injected disk errors on every read, across all three schedules.
  {
    FaultInjector::Options fault;
    fault.seed = test::DeriveSeed(seed_, 13);
    fault.disk_eio = 1.0;
    FaultInjector injector(fault);
    InjectorGuard guard(&injector);
    for (int par = 0; par < 3; ++par) {
      api::QuerySpec spec = specs[static_cast<size_t>(par)];
      spec.parallelism = par;
      exec::QueryResult failed = (*service)->Submit(spec).get();
      EXPECT_EQ(failed.status.code(), StatusCode::kIOError)
          << failed.status.ToString();
    }
  }
  expect_matches("after disk IOError");

  // An expiring deadline: every read is slowed past it, so the query
  // stops at a cancellation point (or at dequeue) — never completes.
  {
    FaultInjector::Options fault;
    fault.seed = test::DeriveSeed(seed_, 14);
    fault.disk_delay = 1.0;
    fault.disk_delay_us = 3000;
    FaultInjector injector(fault);
    InjectorGuard guard(&injector);
    api::QuerySpec spec = specs[0];
    spec.deadline_ms = 1;
    exec::QueryResult late = (*service)->Submit(spec).get();
    EXPECT_EQ(late.status.code(), StatusCode::kDeadlineExceeded)
        << late.status.ToString();
  }
  expect_matches("after DeadlineExceeded");
  (*service)->Shutdown();
}

}  // namespace
}  // namespace mcn
