// NetworkReader: query-time access to the disk-resident network through the
// buffer pool. Every call is charged to the pool's hit/miss statistics,
// which is exactly the I/O model of the paper's experiments.
//
// Since the sharded-partition refactor (DESIGN.md §8) this class doubles as
// the polymorphic record-access seam of the stack: the record getters are
// virtual, so a shard::ShardedNetworkReader can route each request to the
// owning shard's pool while FetchProvider/engine code upstream stays
// oblivious. The base class is the flat single-file implementation.
#ifndef MCN_NET_NETWORK_READER_H_
#define MCN_NET_NETWORK_READER_H_

#include <memory>
#include <vector>

#include "mcn/common/result.h"
#include "mcn/graph/multi_cost_graph.h"
#include "mcn/index/bplus_tree.h"
#include "mcn/net/format.h"
#include "mcn/net/network_builder.h"
#include "mcn/obs/trace.h"
#include "mcn/storage/buffer_pool.h"

namespace mcn::expand {
class QueryWorkspace;
}  // namespace mcn::expand

namespace mcn::net {

/// Read-side handle over a built network. Not thread-safe (shares the pool);
/// one reader is confined to one thread.
class NetworkReader {
 public:
  /// `pool` must outlive the reader and be backed by the DiskManager the
  /// network was built on.
  NetworkReader(const NetworkFiles& files, storage::BufferPool* pool);
  virtual ~NetworkReader();

  int num_costs() const { return files_.num_costs; }
  uint32_t num_nodes() const { return files_.num_nodes; }
  uint32_t num_edges() const { return files_.num_edges; }
  uint32_t num_facilities() const { return files_.num_facilities; }
  uint64_t total_pages() const { return files_.total_pages; }
  storage::BufferPool* pool() const { return pool_; }

  /// Reads `node`'s adjacency record: an adjacency-tree probe plus one
  /// adjacency-file page fetch. Fills `out` (cleared first).
  virtual Status GetAdjacency(graph::NodeId node,
                              std::vector<AdjEntry>* out) const;

  /// Reads `edge`'s facility record via the FacRef stored in an adjacency
  /// entry. The edge key identifies the record's owner (routing readers
  /// dispatch on it; the flat reader only needs the ref). Fills `out`
  /// (cleared first).
  virtual Status GetFacilities(graph::EdgeKey edge, const FacRef& ref,
                               std::vector<FacilityOnEdge>* out) const;

  /// Facility-tree probe: the edge containing facility `fac`.
  virtual Result<graph::EdgeKey> LocateFacilityEdge(
      graph::FacilityId fac) const;

  /// Hit/miss counters of the pools this reader fetches through (one pool
  /// here; a routing reader sums its per-shard set).
  virtual storage::BufferPool::Stats PoolStats() const {
    return pool_->stats();
  }

  /// Clears buffer contents and statistics (cold cache between queries).
  virtual void ResetIoState() {
    pool_->Clear();
    pool_->ResetStats();
  }

  /// Convenience: the adjacency entry of edge (a, b), found by scanning a's
  /// record. Used to seed expansions when the query lies on an edge.
  Result<AdjEntry> FindEdgeEntry(graph::NodeId a, graph::NodeId b) const;

  /// Whether the record getters emit kProbeFetch trace events (obs/trace.h).
  /// Routing readers that record their own routed-fetch events (where the
  /// local/remote flag is known) suppress their inner flat readers with
  /// false, so each record fetch yields exactly one event.
  void set_trace_fetches(bool v) { trace_fetches_ = v; }
  bool trace_fetches() const { return trace_fetches_; }

  /// The reusable query workspace this reader lends to the engines built
  /// over it (expand::WorkspaceLease; DESIGN.md §6). Empty while an engine
  /// holds it. Confined to the reader's thread, like the reader.
  std::unique_ptr<expand::QueryWorkspace>& workspace_slot() const {
    return workspace_;
  }

 protected:
  /// For routing subclasses that own per-shard pools instead of one flat
  /// pool: `files` carries the global metadata (counts, d, total pages);
  /// its file ids/trees are not meaningful and the base record getters
  /// must all be overridden.
  explicit NetworkReader(const NetworkFiles& files);

 private:
  NetworkFiles files_;
  storage::BufferPool* pool_;
  bool trace_fetches_ = true;
  mutable std::unique_ptr<expand::QueryWorkspace> workspace_;
};

}  // namespace mcn::net

#endif  // MCN_NET_NETWORK_READER_H_
