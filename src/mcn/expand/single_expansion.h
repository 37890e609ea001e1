// SingleExpansion: one incremental nearest-neighbor network expansion for a
// single cost type (the NE technique of Papadias et al. [1], paper §II-C):
// a lazy-deletion Dijkstra that treats facilities on traversed edges as
// search targets and reports them in non-decreasing cost order.
//
// During the shrinking stage the expansion is given a FacilityFilter: the
// facility records of non-candidate edges are not read at all, and only
// candidate facilities are en-heaped (paper §IV-A "enhancements").
#ifndef MCN_EXPAND_SINGLE_EXPANSION_H_
#define MCN_EXPAND_SINGLE_EXPANSION_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "mcn/common/cancel.h"
#include "mcn/common/flat_u64_map.h"
#include "mcn/common/result.h"
#include "mcn/expand/fetch_provider.h"
#include "mcn/expand/query_workspace.h"
#include "mcn/graph/location.h"
#include "mcn/graph/multi_cost_graph.h"

namespace mcn::expand {

/// What a Step() produced.
struct ExpansionEvent {
  enum class Type { kNode, kFacility, kExhausted };
  Type type = Type::kExhausted;
  uint32_t id = 0;    // node id or facility id
  double cost = 0.0;  // distance w.r.t. this expansion's cost type
};

/// The shrinking-stage candidate set, addressed by edge so expansions can
/// decide — while scanning an adjacency entry — whether the edge's facility
/// record is worth reading. Facility membership is a FacilityId-indexed
/// flat directory, so Allows/Remove are O(1); the per-edge lists use
/// swap-erase (an eliminated candidate's slot is backfilled by the list
/// tail).
class FacilityFilter {
 public:
  /// Registers `fac` on `edge`. Re-adding an already-present facility is a
  /// no-op, but re-adding it under a *different* edge is a programmer error
  /// (a facility lies on exactly one edge) and trips a DCHECK.
  void Add(graph::EdgeKey edge, graph::FacilityId fac);
  /// Removes an eliminated candidate in O(1); returns false if it was not
  /// present.
  bool Remove(graph::FacilityId fac);

  bool ContainsEdge(const graph::EdgeKey& edge) const {
    uint32_t row = edges_.Find(edge.Pack());
    return row != FlatU64Map::kNoValue && !edge_rows_[row].empty();
  }
  bool Allows(const graph::EdgeKey& edge, graph::FacilityId fac) const {
    return fac < fac_entries_.size() &&
           fac_entries_[fac].edge_packed == edge.Pack();
  }
  /// Whether `fac` is currently registered (on any edge).
  bool Contains(graph::FacilityId fac) const {
    return fac < fac_entries_.size() &&
           fac_entries_[fac].edge_packed != FlatU64Map::kEmptyKey;
  }
  size_t num_facilities() const { return num_facilities_; }
  bool empty() const { return num_facilities_ == 0; }

 private:
  struct FacEntry {
    uint64_t edge_packed = FlatU64Map::kEmptyKey;  // sentinel = absent
    uint32_t pos = 0;  // position in the edge row, for swap-erase
  };

  FlatU64Map edges_;  // packed edge -> row in edge_rows_
  std::vector<std::vector<graph::FacilityId>> edge_rows_;
  std::vector<FacEntry> fac_entries_;  // FacilityId-indexed
  size_t num_facilities_ = 0;
};

/// Frontier prune hook (DESIGN.md §12): consulted once per node pop,
/// *before* the node's adjacency probe. Returning true elides the
/// expansion — the node is marked settled but its neighbors are never
/// relaxed and no page is fetched. Implementations must be sound w.r.t.
/// the caller's protected set (see algo/prune_oracle.h for the exactness
/// argument); the expansion itself applies the decision blindly.
class NodePruner {
 public:
  virtual ~NodePruner() = default;
  /// `cost_index` identifies the asking expansion; `v` is about to settle
  /// at exact distance `key`.
  virtual bool ShouldPrune(int cost_index, graph::NodeId v, double key) = 0;
};

/// Incremental NN expansion for one cost type over a FetchProvider.
///
/// Its per-node and per-facility distances and its heap live in a
/// QueryWorkspace (DESIGN.md §4): the engine hands each expansion a column
/// of shared tables, so construction costs O(1) and the workspace's owner
/// resets them in O(what the query touched).
class SingleExpansion {
 public:
  struct Stats {
    uint64_t nodes_settled = 0;
    uint64_t facilities_settled = 0;
    uint64_t heap_pushes = 0;
    uint64_t heap_pops = 0;
    uint64_t nodes_pruned = 0;  ///< settled without an adjacency probe
  };

  /// `fetch` must outlive the expansion and is typically shared among the d
  /// expansions of a query; `scratch` (clean, from a QueryWorkspace) too.
  SingleExpansion(int cost_index, FetchProvider* fetch,
                  const ExpansionScratch& scratch);

  /// Seeding (before the first Step): the query location and, when it lies
  /// on an edge, the direct along-edge facility distances.
  void SeedNode(graph::NodeId v, double cost);
  void SeedFacility(graph::FacilityId f, double cost);

  /// Advances by one settled element: returns the next settled node or
  /// facility (in non-decreasing cost order), or kExhausted.
  Result<ExpansionEvent> Step();

  /// Smallest key in the heap (a lower bound on every future event's cost);
  /// +infinity when exhausted.
  double FrontierKey() const;

  bool exhausted() const { return heap_->empty(); }

  /// nullptr = no filter (growing stage: every facility is en-heaped).
  void set_filter(const FacilityFilter* filter) { filter_ = filter; }

  /// nullptr = no pruning (the default). Installed by the skyline prune
  /// oracle alongside the shrinking-stage filter; must outlive the
  /// expansion's remaining steps.
  void set_pruner(NodePruner* pruner) { pruner_ = pruner; }

  /// Cooperative cancellation (DESIGN.md §10): with a token installed,
  /// Step() checks it before settling and unwinds with the token's typed
  /// Status (DeadlineExceeded/Cancelled). nullptr = never cancelled.
  void set_cancel(const CancelToken* cancel) { cancel_ = cancel; }

  int cost_index() const { return cost_index_; }
  const Stats& stats() const { return stats_; }

  bool NodeSettled(graph::NodeId v) const {
    return nodes_->Get(v, column_) == kSettled;
  }
  bool FacilitySettled(graph::FacilityId f) const {
    return facs_->Get(f, column_) == kSettled;
  }
  /// Tentative distance of an unsettled node: its best live heap key, or
  /// +infinity when never relaxed. Meaningless (the kSettled sentinel) once
  /// the node settles — callers check NodeSettled first. Always an upper
  /// bound on the node's true distance.
  double NodeTentativeKey(graph::NodeId v) const {
    return nodes_->Get(v, column_);
  }
  /// Whether a NodeTentativeKey result is the settled sentinel, so one
  /// table lookup answers both NodeSettled and NodeTentativeKey.
  static bool IsSettledKey(double key) { return key == kSettled; }

 private:
  static constexpr uint64_t kFacilityTag = 1ull << 32;
  /// Sentinel stored in a dist slot once the element settles: every real
  /// key is finite and non-negative, so `key >= dist` rejects re-pushes and
  /// `key > dist` rejects stale pops with a single load and no separate
  /// settled-flag array.
  static constexpr double kSettled = -std::numeric_limits<double>::infinity();

  void PushNode(graph::NodeId v, double key);
  void PushFacility(graph::FacilityId f, double key);
  /// Settles node `v`: fetches its adjacency, relaxes neighbors, en-heaps
  /// facilities on incident edges (subject to the filter).
  Status ExpandNode(graph::NodeId v, double key);

  int cost_index_;
  FetchProvider* fetch_;
  // Tentative distance per node/facility in column column_; kSettled once
  // settled (no separate flag array — see kSettled).
  DistTable* nodes_ = nullptr;
  DistTable* facs_ = nullptr;
  int column_ = 0;
  ExpansionHeap* heap_ = nullptr;
  const FacilityFilter* filter_ = nullptr;
  NodePruner* pruner_ = nullptr;
  const CancelToken* cancel_ = nullptr;
  Stats stats_;
};

}  // namespace mcn::expand

#endif  // MCN_EXPAND_SINGLE_EXPANSION_H_
