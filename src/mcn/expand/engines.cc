#include "mcn/expand/engines.h"

#include <cmath>
#include <string>

#include "mcn/common/macros.h"

namespace mcn::expand {

Result<std::optional<FacilityAtCost>> NnEngine::NextNN(int i) {
  MCN_DCHECK(i >= 0 && i < num_costs());
  for (;;) {
    MCN_ASSIGN_OR_RETURN(ExpansionEvent ev, expansions_[i].Step());
    switch (ev.type) {
      case ExpansionEvent::Type::kFacility:
        return std::optional<FacilityAtCost>(FacilityAtCost{ev.id, ev.cost});
      case ExpansionEvent::Type::kNode:
        continue;
      case ExpansionEvent::Type::kExhausted:
        return std::optional<FacilityAtCost>(std::nullopt);
    }
  }
}

void NnEngine::SetFilter(const FacilityFilter* filter) {
  for (SingleExpansion& e : expansions_) e.set_filter(filter);
}

void NnEngine::SetPruner(NodePruner* pruner) {
  for (SingleExpansion& e : expansions_) e.set_pruner(pruner);
}

void NnEngine::SetCancelToken(const CancelToken* cancel) {
  cancel_ = cancel;
  for (SingleExpansion& e : expansions_) e.set_cancel(cancel);
}

Status NnEngine::Init(std::unique_ptr<FetchProvider> fetch,
                      const graph::Location& q, bool private_tables) {
  MCN_CHECK(workspace_.get() != nullptr);
  fetch_ = std::move(fetch);
  query_ = q;
  int d = fetch_->num_costs();
  MCN_ASSIGN_OR_RETURN(FetchProvider::SeedInfo seed, fetch_->GetSeedInfo(q));
  if (!q.is_node()) seed_edge_costs_ = seed.edge_costs;
  expansions_.reserve(d);
  for (int i = 0; i < d; ++i) {
    expansions_.emplace_back(
        i, fetch_.get(),
        workspace_.get()->ScratchFor(i, d, private_tables));
    SingleExpansion& exp = expansions_.back();
    if (q.is_node()) {
      if (q.node() >= fetch_->num_nodes()) {
        return Status::InvalidArgument("query node out of range");
      }
      exp.SeedNode(q.node(), 0.0);
    } else {
      double w = seed.edge_costs[i];
      exp.SeedNode(q.edge().u, q.frac() * w);
      exp.SeedNode(q.edge().v, (1.0 - q.frac()) * w);
      // Facilities on the query's own edge are reachable directly along the
      // edge (paper §III footnote 3).
      for (const net::FacilityOnEdge& fe : seed.facilities) {
        exp.SeedFacility(fe.facility, std::fabs(q.frac() - fe.frac) * w);
      }
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<LsaEngine>> LsaEngine::Create(
    const net::NetworkReader* reader, const graph::Location& q) {
  MCN_CHECK(reader != nullptr);
  auto engine = std::unique_ptr<LsaEngine>(new LsaEngine());
  engine->reader_ = reader;
  engine->workspace_ = WorkspaceLease(reader, reader->num_nodes(),
                                      reader->num_facilities());
  MCN_RETURN_IF_ERROR(
      engine->Init(std::make_unique<DirectFetch>(reader), q));
  return engine;
}

Result<std::unique_ptr<CeaEngine>> CeaEngine::Create(
    const net::NetworkReader* reader, const graph::Location& q) {
  MCN_CHECK(reader != nullptr);
  auto engine = std::unique_ptr<CeaEngine>(new CeaEngine());
  engine->reader_ = reader;
  engine->workspace_ = WorkspaceLease(reader, reader->num_nodes(),
                                      reader->num_facilities());
  MCN_RETURN_IF_ERROR(engine->Init(
      std::make_unique<CachedFetch>(reader, engine->workspace_.get()->cea()),
      q));
  return engine;
}

Result<std::unique_ptr<StripedCeaEngine>> StripedCeaEngine::Create(
    std::vector<const net::NetworkReader*> readers,
    const graph::Location& q) {
  if (readers.empty()) {
    return Status::InvalidArgument(
        "StripedCeaEngine: at least one reader (slot 0) is required");
  }
  for (const net::NetworkReader* r : readers) MCN_CHECK(r != nullptr);
  // The creating thread is the query driver: its fetches (seeding, filter
  // construction) go through slot 0.
  StripedCachedFetch::BindWorkerSlot(0);
  auto engine = std::unique_ptr<StripedCeaEngine>(new StripedCeaEngine());
  engine->readers_ = std::move(readers);
  const net::NetworkReader* driver = engine->readers_[0];
  engine->workspace_ = WorkspaceLease(driver, driver->num_nodes(),
                                      driver->num_facilities());
  // The striped fetch keeps its own per-query stripe tables (none is sized
  // by |V| or |P|); the expansions probe concurrently, so each gets
  // private distance tables.
  MCN_RETURN_IF_ERROR(engine->Init(
      std::make_unique<StripedCachedFetch>(engine->readers_), q,
      /*private_tables=*/true));
  return engine;
}

Result<std::unique_ptr<MemEngine>> MemEngine::Create(
    const graph::MultiCostGraph* graph, const graph::FacilitySet* facilities,
    const graph::Location& q) {
  MCN_CHECK(graph != nullptr && facilities != nullptr);
  auto engine = std::unique_ptr<MemEngine>(new MemEngine());
  engine->graph_ = graph;
  engine->facilities_ = facilities;
  engine->workspace_ = WorkspaceLease(
      nullptr, graph->num_nodes(), static_cast<uint32_t>(facilities->size()));
  MCN_RETURN_IF_ERROR(
      engine->Init(std::make_unique<MemFetch>(graph, facilities), q));
  return engine;
}

Result<graph::EdgeKey> MemEngine::LocateFacilityEdge(graph::FacilityId f) {
  if (f >= facilities_->size()) {
    return Status::NotFound("facility " + std::to_string(f) +
                            " out of range");
  }
  const graph::EdgeRecord& e = graph_->edge((*facilities_)[f].edge);
  return graph::EdgeKey(e.u, e.v);
}

Result<std::unique_ptr<NnEngine>> MakeEngine(EngineKind kind,
                                             const net::NetworkReader* reader,
                                             const graph::Location& q) {
  if (kind == EngineKind::kLsa) {
    MCN_ASSIGN_OR_RETURN(auto engine, LsaEngine::Create(reader, q));
    return std::unique_ptr<NnEngine>(std::move(engine));
  }
  MCN_ASSIGN_OR_RETURN(auto engine, CeaEngine::Create(reader, q));
  return std::unique_ptr<NnEngine>(std::move(engine));
}

}  // namespace mcn::expand
