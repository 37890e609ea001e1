#include "mcn/expand/fetch_provider.h"

#include <string>

#include "mcn/common/macros.h"

namespace mcn::expand {
namespace internal {

Result<FetchProvider::SeedInfo> SeedFromEntries(
    FetchProvider* self, const std::vector<net::AdjEntry>& entries,
    graph::EdgeKey key) {
  // `entries` is the adjacency record of key.u; look for the key.v entry.
  for (const net::AdjEntry& e : entries) {
    if (e.neighbor != key.v) continue;
    FetchProvider::SeedInfo info;
    info.edge_costs = e.w;
    if (!e.fac.empty()) {
      MCN_ASSIGN_OR_RETURN(const auto* facs, self->GetFacilities(key, e.fac));
      info.facilities = *facs;
    }
    return info;
  }
  return Status::NotFound("seed edge (" + std::to_string(key.u) + "," +
                          std::to_string(key.v) + ") not found");
}

}  // namespace internal

using internal::SeedFromEntries;

DirectFetch::DirectFetch(const net::NetworkReader* reader) : reader_(reader) {
  MCN_CHECK(reader != nullptr);
}

Result<const std::vector<net::AdjEntry>*> DirectFetch::GetAdjacency(
    graph::NodeId node) {
  ++stats_.adjacency_requests;
  ++stats_.adjacency_fetches;
  MCN_RETURN_IF_ERROR(reader_->GetAdjacency(node, &adj_scratch_));
  return &adj_scratch_;
}

Result<const std::vector<net::FacilityOnEdge>*> DirectFetch::GetFacilities(
    graph::EdgeKey edge, const net::FacRef& ref) {
  ++stats_.facility_requests;
  ++stats_.facility_fetches;
  MCN_RETURN_IF_ERROR(reader_->GetFacilities(edge, ref, &fac_scratch_));
  return &fac_scratch_;
}

Result<FetchProvider::SeedInfo> DirectFetch::GetSeedInfo(
    const graph::Location& q) {
  if (q.is_node()) return SeedInfo{};
  MCN_ASSIGN_OR_RETURN(const auto* entries, GetAdjacency(q.edge().u));
  return SeedFromEntries(this, *entries, q.edge());
}

CachedFetch::CachedFetch(const net::NetworkReader* reader,
                         CeaCacheState* cache)
    : reader_(reader), cache_(cache) {
  MCN_CHECK(reader != nullptr && cache != nullptr);
  MCN_CHECK(cache->adj_row_of.capacity() == reader->num_nodes());
  MCN_DCHECK(cache->IsClean());
}

Result<const std::vector<net::AdjEntry>*> CachedFetch::GetAdjacency(
    graph::NodeId node) {
  ++stats_.adjacency_requests;
  if (node >= cache_->adj_row_of.capacity()) {
    return Status::InvalidArgument("CachedFetch: node out of range");
  }
  uint32_t row = cache_->adj_row_of.Find(node);
  if (row != SlotDirectory::kNoSlot) return &cache_->adj_rows[row];
  ++stats_.adjacency_fetches;
  std::vector<net::AdjEntry>* entries = cache_->adj_rows.Stage();
  MCN_RETURN_IF_ERROR(reader_->GetAdjacency(node, entries));
  // Rows and directory slots are both handed out in fetch order, so the
  // node's slot is its row.
  cache_->adj_rows.Commit();
  cache_->adj_row_of.Add(node);
  MCN_DCHECK(cache_->adj_row_of.size() == cache_->adj_rows.size());
  return entries;
}

Result<const std::vector<net::FacilityOnEdge>*> CachedFetch::GetFacilities(
    graph::EdgeKey edge, const net::FacRef& ref) {
  ++stats_.facility_requests;
  const uint64_t key = edge.Pack();
  uint32_t row = cache_->fac_row_of.Find(key);
  if (row != FlatU64Map::kNoValue) return &cache_->fac_rows[row];
  ++stats_.facility_fetches;
  std::vector<net::FacilityOnEdge>* facs = cache_->fac_rows.Stage();
  MCN_RETURN_IF_ERROR(reader_->GetFacilities(edge, ref, facs));
  cache_->fac_row_of.Insert(key, cache_->fac_rows.Commit());
  cache_->fac_keys.push_back(key);
  return facs;
}

Result<FetchProvider::SeedInfo> CachedFetch::GetSeedInfo(
    const graph::Location& q) {
  if (q.is_node()) return SeedInfo{};
  MCN_ASSIGN_OR_RETURN(const auto* entries, GetAdjacency(q.edge().u));
  return SeedFromEntries(this, *entries, q.edge());
}

MemFetch::MemFetch(const graph::MultiCostGraph* graph,
                   const graph::FacilitySet* facilities)
    : graph_(graph), facilities_(facilities) {
  MCN_CHECK(graph != nullptr && facilities != nullptr);
  MCN_CHECK(graph->finalized() && facilities->finalized());
}

Result<const std::vector<net::AdjEntry>*> MemFetch::GetAdjacency(
    graph::NodeId node) {
  ++stats_.adjacency_requests;
  if (node >= graph_->num_nodes()) {
    return Status::InvalidArgument("MemFetch: node out of range");
  }
  adj_scratch_.clear();
  for (const graph::AdjacentEdge& adj : graph_->Neighbors(node)) {
    net::AdjEntry e;
    e.neighbor = adj.neighbor;
    e.w = graph_->edge(adj.edge).w;
    // MemFetch has no facility file; encode only the count so the expansion
    // knows whether to ask for the list.
    e.fac.count =
        static_cast<uint16_t>(facilities_->OnEdge(adj.edge).size());
    adj_scratch_.push_back(e);
  }
  return &adj_scratch_;
}

Result<const std::vector<net::FacilityOnEdge>*> MemFetch::GetFacilities(
    graph::EdgeKey edge, const net::FacRef& ref) {
  (void)ref;
  ++stats_.facility_requests;
  MCN_ASSIGN_OR_RETURN(graph::EdgeId eid, graph_->FindEdge(edge.u, edge.v));
  fac_scratch_.clear();
  for (graph::FacilityId f : facilities_->OnEdge(eid)) {
    fac_scratch_.push_back(net::FacilityOnEdge{f, (*facilities_)[f].frac});
  }
  return &fac_scratch_;
}

Result<FetchProvider::SeedInfo> MemFetch::GetSeedInfo(
    const graph::Location& q) {
  if (q.is_node()) return SeedInfo{};
  graph::EdgeKey key = q.edge();
  MCN_ASSIGN_OR_RETURN(graph::EdgeId eid, graph_->FindEdge(key.u, key.v));
  SeedInfo info;
  info.edge_costs = graph_->edge(eid).w;
  for (graph::FacilityId f : facilities_->OnEdge(eid)) {
    info.facilities.push_back(net::FacilityOnEdge{f, (*facilities_)[f].frac});
  }
  return info;
}

}  // namespace mcn::expand
