#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "mcn/expand/dijkstra.h"
#include "mcn/expand/fetch_provider.h"
#include "mcn/expand/query_workspace.h"
#include "mcn/expand/single_expansion.h"
#include "test_util.h"

namespace mcn::expand {
namespace {

using graph::EdgeKey;
using graph::Location;

class ExpansionTest : public ::testing::Test {
 protected:
  ExpansionTest()
      : fixture_(test::TinyGraph(),
                 test::TinyFacilities(test::TinyGraph()), 64) {}

  struct FacilityOnEdgeOrder {
    graph::FacilityId id;
    double cost;
  };

  /// All facility NNs in pop order for one cost type.
  std::vector<FacilityOnEdgeOrder> DrainNNs(int ci, const Location& q,
                                            FetchProvider* fetch) {
    SingleExpansion exp(ci, fetch, Scratch(fetch));
    SeedExpansion(exp, ci, q, fetch);
    std::vector<FacilityOnEdgeOrder> result;
    for (;;) {
      auto ev = exp.Step().value();
      if (ev.type == ExpansionEvent::Type::kExhausted) break;
      if (ev.type == ExpansionEvent::Type::kFacility) {
        result.push_back({ev.id, ev.cost});
      }
    }
    return result;
  }

  /// Clean scratch for one expansion, from a workspace the fixture keeps
  /// alive for the rest of the test.
  ExpansionScratch Scratch(FetchProvider* fetch) {
    workspaces_.emplace_back(fetch->num_nodes(), fetch->num_facilities());
    return workspaces_.back().ScratchFor(0, 1, /*private_tables=*/true);
  }

  static void SeedExpansion(SingleExpansion& exp, int ci, const Location& q,
                            FetchProvider* fetch) {
    auto seed = fetch->GetSeedInfo(q).value();
    if (q.is_node()) {
      exp.SeedNode(q.node(), 0.0);
    } else {
      double w = seed.edge_costs[ci];
      exp.SeedNode(q.edge().u, q.frac() * w);
      exp.SeedNode(q.edge().v, (1.0 - q.frac()) * w);
      for (const auto& fe : seed.facilities) {
        exp.SeedFacility(fe.facility, std::fabs(q.frac() - fe.frac) * w);
      }
    }
  }

  test::DiskFixture fixture_;
  std::deque<QueryWorkspace> workspaces_;
};

TEST_F(ExpansionTest, NnOrderMatchesOracleForBothCosts) {
  Location q = Location::AtNode(0);
  DirectFetch fetch(fixture_.reader.get());
  for (int ci = 0; ci < 2; ++ci) {
    auto nns = DrainNNs(ci, q, &fetch);
    // Oracle: exact per-cost facility distances, sorted.
    auto dist = ShortestPathCosts(fixture_.graph, ci, q);
    std::vector<std::pair<double, graph::FacilityId>> expected;
    for (graph::FacilityId f = 0; f < fixture_.facilities.size(); ++f) {
      double c =
          FacilityCost(fixture_.graph, dist, ci, q, fixture_.facilities[f]);
      if (c < kInfCost) expected.push_back({c, f});
    }
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(nns.size(), expected.size());
    for (size_t i = 0; i < nns.size(); ++i) {
      EXPECT_NEAR(nns[i].cost, expected[i].first, 1e-9) << "ci=" << ci;
    }
    // Costs must be non-decreasing (incremental NN property).
    for (size_t i = 1; i < nns.size(); ++i) {
      EXPECT_GE(nns[i].cost, nns[i - 1].cost);
    }
  }
}

TEST_F(ExpansionTest, QueryOnEdgeFindsSameEdgeFacilityDirectly) {
  // Facility 0 sits on edge (1,2) frac 0.5; query on the same edge.
  Location q = Location::OnEdge(EdgeKey(1, 2), 0.4);
  DirectFetch fetch(fixture_.reader.get());
  auto nns = DrainNNs(0, q, &fetch);
  ASSERT_FALSE(nns.empty());
  EXPECT_EQ(nns[0].id, 0u);
  EXPECT_NEAR(nns[0].cost, 0.1 * 2.0, 1e-12);  // |0.4-0.5| * w0(1,2)=2
}

TEST_F(ExpansionTest, EachFacilityReportedOnce) {
  Location q = Location::AtNode(4);
  DirectFetch fetch(fixture_.reader.get());
  auto nns = DrainNNs(1, q, &fetch);
  std::vector<graph::FacilityId> ids;
  for (auto& nn : nns) ids.push_back(nn.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
  EXPECT_EQ(ids.size(), fixture_.facilities.size());
}

TEST_F(ExpansionTest, FrontierKeyIsMonotoneLowerBound) {
  Location q = Location::AtNode(0);
  DirectFetch fetch(fixture_.reader.get());
  SingleExpansion exp(0, &fetch, Scratch(&fetch));
  SeedExpansion(exp, 0, q, &fetch);
  double last_event = 0.0;
  for (;;) {
    double frontier = exp.FrontierKey();
    auto ev = exp.Step().value();
    if (ev.type == ExpansionEvent::Type::kExhausted) {
      // The heap may have held only stale entries before this step, so the
      // pre-step frontier need not be infinite; afterwards it must be.
      EXPECT_TRUE(exp.exhausted());
      EXPECT_EQ(exp.FrontierKey(), kInfCost);
      break;
    }
    // The frontier before the step lower-bounds the event cost, and events
    // are non-decreasing.
    EXPECT_LE(frontier, ev.cost + 1e-12);
    EXPECT_GE(ev.cost, last_event - 1e-12);
    last_event = ev.cost;
  }
}

TEST_F(ExpansionTest, FilterRestrictsToCandidateEdges) {
  Location q = Location::AtNode(0);
  DirectFetch fetch(fixture_.reader.get());

  // Only facility 2 (edge (7,8)) is a candidate.
  FacilityFilter filter;
  filter.Add(EdgeKey(7, 8), 2);

  SingleExpansion exp(0, &fetch, Scratch(&fetch));
  exp.set_filter(&filter);
  SeedExpansion(exp, 0, q, &fetch);
  std::vector<graph::FacilityId> popped;
  for (;;) {
    auto ev = exp.Step().value();
    if (ev.type == ExpansionEvent::Type::kExhausted) break;
    if (ev.type == ExpansionEvent::Type::kFacility) popped.push_back(ev.id);
  }
  ASSERT_EQ(popped.size(), 1u);
  EXPECT_EQ(popped[0], 2u);
}

TEST_F(ExpansionTest, FilterInstalledMidwayIgnoresNewFacilities) {
  Location q = Location::AtNode(0);
  DirectFetch fetch(fixture_.reader.get());
  SingleExpansion exp(0, &fetch, Scratch(&fetch));
  SeedExpansion(exp, 0, q, &fetch);
  // First facility pops normally.
  ExpansionEvent first;
  do {
    first = exp.Step().value();
  } while (first.type == ExpansionEvent::Type::kNode);
  ASSERT_EQ(first.type, ExpansionEvent::Type::kFacility);

  // Empty filter: nothing new may be en-heaped, but already-en-heaped
  // facilities may still pop.
  FacilityFilter empty;
  exp.set_filter(&empty);
  int facilities_after = 0;
  for (;;) {
    auto ev = exp.Step().value();
    if (ev.type == ExpansionEvent::Type::kExhausted) break;
    if (ev.type == ExpansionEvent::Type::kFacility) ++facilities_after;
  }
  // All remaining pops come from pre-filter en-heaping; with the tiny graph
  // everything near node 0 was already en-heaped, so this just must not
  // exceed the total.
  EXPECT_LE(facilities_after,
            static_cast<int>(fixture_.facilities.size()) - 1);
}

TEST(FacilityFilterTest, AddRemoveSemantics) {
  FacilityFilter filter;
  EXPECT_TRUE(filter.empty());
  filter.Add(EdgeKey(1, 2), 10);
  filter.Add(EdgeKey(1, 2), 11);
  filter.Add(EdgeKey(3, 4), 12);
  EXPECT_EQ(filter.num_facilities(), 3u);
  EXPECT_TRUE(filter.ContainsEdge(EdgeKey(2, 1)));
  EXPECT_TRUE(filter.Allows(EdgeKey(1, 2), 10));
  EXPECT_FALSE(filter.Allows(EdgeKey(1, 2), 12));

  EXPECT_TRUE(filter.Remove(10));
  EXPECT_FALSE(filter.Remove(10));  // already gone
  EXPECT_TRUE(filter.ContainsEdge(EdgeKey(1, 2)));  // 11 remains
  EXPECT_TRUE(filter.Remove(11));
  EXPECT_FALSE(filter.ContainsEdge(EdgeKey(1, 2)));
  EXPECT_TRUE(filter.Remove(12));
  EXPECT_TRUE(filter.empty());
}

TEST(FacilityFilterTest, DuplicateAddIsIdempotent) {
  FacilityFilter filter;
  filter.Add(EdgeKey(1, 2), 10);
  filter.Add(EdgeKey(1, 2), 10);
  EXPECT_EQ(filter.num_facilities(), 1u);
  EXPECT_TRUE(filter.Remove(10));
  EXPECT_TRUE(filter.empty());
}

}  // namespace
}  // namespace mcn::expand
