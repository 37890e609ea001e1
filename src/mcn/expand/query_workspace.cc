#include "mcn/expand/query_workspace.h"

#include <algorithm>
#include <utility>

#include "mcn/net/network_reader.h"

namespace mcn::expand {

bool SlotDirectory::IsClean() const {
  return ids_.empty() &&
         std::all_of(slot_of_.begin(), slot_of_.end(),
                     [](uint32_t s) { return s == kNoSlot; });
}

void CeaCacheState::Reset() {
  adj_row_of.Reset();
  adj_rows.Reset();
  if (fac_row_of.capacity() > 2 * kRetainedSlots) {
    fac_row_of = FlatU64Map();
  } else {
    for (uint64_t key : fac_keys) fac_row_of.Erase(key);
  }
  ClearAndTrim(fac_keys, kRetainedSlots);
  fac_rows.Reset();
}

bool CeaCacheState::IsClean() const {
  return adj_row_of.IsClean() && adj_rows.size() == 0 &&
         fac_row_of.empty() && fac_keys.empty() && fac_rows.size() == 0;
}

ExpansionScratch QueryWorkspace::ScratchFor(int i, int d,
                                            bool private_tables) {
  MCN_CHECK(i >= 0 && i < d);
  const size_t table = private_tables ? static_cast<size_t>(i) : 0;
  while (node_tables_.size() <= table) {
    node_tables_.emplace_back(num_nodes_);
    fac_tables_.emplace_back(num_facilities_);
  }
  while (heaps_.size() <= static_cast<size_t>(i)) heaps_.emplace_back();
  ExpansionScratch scratch;
  scratch.nodes = &node_tables_[table];
  scratch.facilities = &fac_tables_[table];
  scratch.column = private_tables ? 0 : i;
  const int stride = private_tables ? 1 : d;
  scratch.nodes->SetStride(stride);
  scratch.facilities->SetStride(stride);
  scratch.heap = &heaps_[static_cast<size_t>(i)];
  return scratch;
}

CeaCacheState* QueryWorkspace::cea() {
  if (cea_ == nullptr) cea_ = std::make_unique<CeaCacheState>(num_nodes_);
  return cea_.get();
}

void QueryWorkspace::Reset() {
  for (DistTable& t : node_tables_) t.Reset();
  for (DistTable& t : fac_tables_) t.Reset();
  for (ExpansionHeap& h : heaps_) h.ClearAndTrim(kRetainedSlots);
  if (cea_ != nullptr) cea_->Reset();
}

bool QueryWorkspace::IsClean() const {
  for (const DistTable& t : node_tables_) {
    if (!t.IsClean()) return false;
  }
  for (const DistTable& t : fac_tables_) {
    if (!t.IsClean()) return false;
  }
  for (const ExpansionHeap& h : heaps_) {
    if (!h.empty()) return false;
  }
  return cea_ == nullptr || cea_->IsClean();
}

WorkspaceLease::WorkspaceLease(const net::NetworkReader* lender,
                               uint32_t num_nodes, uint32_t num_facilities)
    : lender_(lender) {
  if (lender_ != nullptr) workspace_ = std::move(lender_->workspace_slot());
  if (workspace_ == nullptr) {
    workspace_ = std::make_unique<QueryWorkspace>(num_nodes, num_facilities);
  }
  MCN_DCHECK(workspace_->num_nodes() == num_nodes &&
             workspace_->num_facilities() == num_facilities);
}

WorkspaceLease::~WorkspaceLease() { Release(); }

WorkspaceLease::WorkspaceLease(WorkspaceLease&& other) noexcept
    : lender_(other.lender_), workspace_(std::move(other.workspace_)) {
  other.lender_ = nullptr;
}

WorkspaceLease& WorkspaceLease::operator=(WorkspaceLease&& other) noexcept {
  if (this != &other) {
    Release();
    lender_ = other.lender_;
    workspace_ = std::move(other.workspace_);
    other.lender_ = nullptr;
  }
  return *this;
}

void WorkspaceLease::Release() {
  if (workspace_ == nullptr) return;
  workspace_->Reset();
  MCN_DCHECK(workspace_->IsClean());
  if (lender_ != nullptr && lender_->workspace_slot() == nullptr) {
    lender_->workspace_slot() = std::move(workspace_);
  }
  workspace_.reset();
  lender_ = nullptr;
}

}  // namespace mcn::expand
