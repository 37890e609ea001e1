// NnEngine: d concurrent incremental NN expansions from a query location,
// one per cost type — the machinery both MCN query algorithms drive
// (paper §IV). The engine flavor decides the I/O behavior:
//
//  * LsaEngine — expansions fetch records independently (DirectFetch): a
//    record may be read up to d times (the Local Search Algorithm).
//  * CeaEngine — expansions share a query-lifetime fetch cache
//    (CachedFetch): every record is read at most once (the Combined
//    Expansion Algorithm). Pop order is identical to LSA.
//  * MemEngine — in-memory, zero I/O; used for verification and by callers
//    who do not need the disk simulation.
//
// Every engine keeps the expansions' per-query state (and CEA's cache) in
// a QueryWorkspace leased from its reader for the engine's lifetime
// (DESIGN.md §4, §6): creating an engine over a reader whose workspace is
// free costs no |V|- or |P|-sized allocation or fill.
#ifndef MCN_EXPAND_ENGINES_H_
#define MCN_EXPAND_ENGINES_H_

#include <memory>
#include <optional>
#include <vector>

#include "mcn/common/result.h"
#include "mcn/expand/fetch_provider.h"
#include "mcn/expand/query_workspace.h"
#include "mcn/expand/single_expansion.h"
#include "mcn/expand/striped_fetch.h"
#include "mcn/graph/facility.h"
#include "mcn/graph/location.h"
#include "mcn/net/network_reader.h"

namespace mcn::expand {

/// A facility reported by one expansion, with its cost w.r.t. that
/// expansion's cost type.
struct FacilityAtCost {
  graph::FacilityId facility;
  double cost;
};

/// d expansions + shared fetch provider; see file comment.
class NnEngine {
 public:
  virtual ~NnEngine() = default;

  int num_costs() const { return static_cast<int>(expansions_.size()); }
  uint32_t num_facilities() const { return fetch_->num_facilities(); }

  /// Advances expansion `i` until its next NN facility; nullopt = exhausted.
  Result<std::optional<FacilityAtCost>> NextNN(int i);

  /// One settled element for expansion `i` (used by the top-k shrinking
  /// stage, which pops a single node per turn — paper §V).
  Result<ExpansionEvent> Step(int i) { return expansions_[i].Step(); }

  /// Lower bound on the cost of any future event of expansion `i`
  /// (the t_i of the paper's top-k lower-bound pruning).
  double Frontier(int i) const { return expansions_[i].FrontierKey(); }

  bool Exhausted(int i) const { return expansions_[i].exhausted(); }

  /// Installs/clears the shrinking-stage candidate filter on all expansions.
  void SetFilter(const FacilityFilter* filter);

  /// Installs/clears a frontier prune hook on all expansions (DESIGN.md
  /// §12). The pruner must outlive the query; nullptr clears.
  void SetPruner(NodePruner* pruner);

  /// Installs/clears a cooperative cancellation token on all expansions
  /// (DESIGN.md §10). The turn scheduler also checks it at turn barriers.
  /// The token must outlive the query; nullptr clears.
  void SetCancelToken(const CancelToken* cancel);
  const CancelToken* cancel_token() const { return cancel_; }

  /// The edge containing facility `f` (facility-tree probe on disk engines;
  /// charged to the buffer pool).
  virtual Result<graph::EdgeKey> LocateFacilityEdge(graph::FacilityId f) = 0;

  const FetchProvider& fetch() const { return *fetch_; }
  const SingleExpansion& expansion(int i) const { return expansions_[i]; }

  /// The query location the engine was seeded at, and — for on-edge
  /// locations — the query edge's cost vector (dim 0 for node locations).
  /// Retained so the prune oracle can bound dist(q, ·) without re-fetching
  /// seed records.
  const graph::Location& query() const { return query_; }
  const graph::CostVector& seed_edge_costs() const {
    return seed_edge_costs_;
  }

 protected:
  /// Builds d seeded expansions over `fetch` (takes ownership), over the
  /// workspace the flavor's Create leased into `workspace_` first. With
  /// `private_tables`, each expansion gets its own distance tables, so
  /// their probes may run concurrently (StripedCeaEngine).
  Status Init(std::unique_ptr<FetchProvider> fetch, const graph::Location& q,
              bool private_tables = false);

  // The reader's workspace, or a private one (MemEngine). Declared first:
  // the fetch provider and expansions point into it, so it is destroyed
  // (reset and handed back) after them.
  WorkspaceLease workspace_;
  std::unique_ptr<FetchProvider> fetch_;
  std::vector<SingleExpansion> expansions_;
  const CancelToken* cancel_ = nullptr;
  graph::Location query_ = graph::Location::AtNode(graph::kInvalidNode);
  graph::CostVector seed_edge_costs_;
};

/// LSA flavor (independent fetches).
class LsaEngine : public NnEngine {
 public:
  static Result<std::unique_ptr<LsaEngine>> Create(
      const net::NetworkReader* reader, const graph::Location& q);

  Result<graph::EdgeKey> LocateFacilityEdge(graph::FacilityId f) override {
    return reader_->LocateFacilityEdge(f);
  }

 private:
  const net::NetworkReader* reader_ = nullptr;
};

/// CEA flavor (shared fetch cache).
class CeaEngine : public NnEngine {
 public:
  static Result<std::unique_ptr<CeaEngine>> Create(
      const net::NetworkReader* reader, const graph::Location& q);

  Result<graph::EdgeKey> LocateFacilityEdge(graph::FacilityId f) override {
    return reader_->LocateFacilityEdge(f);
  }

  const CachedFetch& cache() const {
    return static_cast<const CachedFetch&>(*fetch_);
  }

 private:
  const net::NetworkReader* reader_ = nullptr;
};

/// CEA flavor over the thread-safe StripedCachedFetch, for intra-query
/// parallel probing (DESIGN.md §7). `readers[s]` serves worker slot `s`
/// (slot 0 = the query-driving thread, 1.. = probe-pool workers); a
/// single-reader engine is the inline/serial configuration of the same
/// schedule. Record contents, and hence expansion behavior, are identical
/// to CeaEngine — only the fetch path is concurrent.
class StripedCeaEngine : public NnEngine {
 public:
  static Result<std::unique_ptr<StripedCeaEngine>> Create(
      std::vector<const net::NetworkReader*> readers,
      const graph::Location& q);

  Result<graph::EdgeKey> LocateFacilityEdge(graph::FacilityId f) override {
    return readers_[0]->LocateFacilityEdge(f);
  }

  StripedCachedFetch* striped_fetch() {
    return static_cast<StripedCachedFetch*>(fetch_.get());
  }
  const StripedCachedFetch& striped_fetch() const {
    return static_cast<const StripedCachedFetch&>(*fetch_);
  }

 private:
  std::vector<const net::NetworkReader*> readers_;
};

/// In-memory flavor (no disk).
class MemEngine : public NnEngine {
 public:
  static Result<std::unique_ptr<MemEngine>> Create(
      const graph::MultiCostGraph* graph,
      const graph::FacilitySet* facilities, const graph::Location& q);

  Result<graph::EdgeKey> LocateFacilityEdge(graph::FacilityId f) override;

 private:
  const graph::MultiCostGraph* graph_ = nullptr;
  const graph::FacilitySet* facilities_ = nullptr;
};

/// Which engine flavor to use for a disk-resident query.
enum class EngineKind { kLsa, kCea };

/// Factory for the disk engines.
Result<std::unique_ptr<NnEngine>> MakeEngine(EngineKind kind,
                                             const net::NetworkReader* reader,
                                             const graph::Location& q);

}  // namespace mcn::expand

#endif  // MCN_EXPAND_ENGINES_H_
