// QueryWorkspace: the per-query scratch state of the expansions and the CEA
// fetch cache, kept by a thread-confined NetworkReader and lent to one
// engine at a time (DESIGN.md §4, §6).
//
// A query touches a few thousand of the network's |V| nodes and |P|
// facilities, yet its state is addressed by dense id. Rather than allocate
// and fill |V|- and |P|-sized arrays per query, the workspace keeps
//
//  * SlotDirectory — a u32 id -> slot directory whose entries read kNoSlot
//    between queries, with the ids it handed out in first-touch order (the
//    touched list, slot i -> id);
//  * DistTable — a SlotDirectory plus `stride` doubles per slot, stored
//    contiguously in slot order (in fixed blocks): the tentative distances
//    of one or more expansions (one column each);
//  * RowStore — reusable record rows for the CEA cache;
//
// and Reset() walks only the touched lists. The dense directories are the
// only |V|/|P|-sized memory, and they are never rewritten wholesale after
// construction: a query's setup and cleanup cost O(what it touched).
//
// Between queries each growable part keeps room for kRetainedSlots
// entries at most. A heavier query grows past that and Reset releases the
// excess, so a reader does not pin the memory of the heaviest query it
// ever ran.
#ifndef MCN_EXPAND_QUERY_WORKSPACE_H_
#define MCN_EXPAND_QUERY_WORKSPACE_H_

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <vector>

#include "mcn/common/flat_u64_map.h"
#include "mcn/common/macros.h"
#include "mcn/expand/dary_heap.h"
#include "mcn/net/format.h"

namespace mcn::net {
class NetworkReader;
}  // namespace mcn::net

namespace mcn::expand {

/// Entries (table slots, record rows, heap items) a workspace part keeps
/// room for between queries. Measured on the benchmark network (|V| =
/// 26,243, |P| = 15,000) by replaying 6,000 uniform one-shot queries on a
/// direct processor, the nodes a query touches are p50 93, p80 3,382,
/// p90 5,785, p99 10,580 and max 16,320; records fetched track nodes
/// (p80 3,278), and facilities (p80 79) and heap items (max 391) stay far
/// below. 4096 thus covers about 83% of queries without any allocation.
/// The rest run for 6 ms or more, where regrowing costs little: retaining
/// 16384 (every query) made those queries no faster and added 4-8 MB of
/// peak RSS, mostly in record rows that each keep their capacity.
inline constexpr size_t kRetainedSlots = 4096;

/// Dense id -> slot directory over [0, capacity()); see the file comment.
class SlotDirectory {
 public:
  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;

  explicit SlotDirectory(uint32_t n) : slot_of_(n, kNoSlot) {}

  uint32_t capacity() const { return static_cast<uint32_t>(slot_of_.size()); }
  /// Slots handed out since the last Reset.
  uint32_t size() const { return static_cast<uint32_t>(ids_.size()); }

  uint32_t Find(uint32_t id) const {
    MCN_DCHECK(id < slot_of_.size());
    return slot_of_[id];
  }
  /// Assigns `id` (must be absent) the next slot.
  uint32_t Add(uint32_t id) {
    MCN_DCHECK(slot_of_[id] == kNoSlot);
    const uint32_t s = static_cast<uint32_t>(ids_.size());
    slot_of_[id] = s;
    ids_.push_back(id);
    return s;
  }

  /// Returns every handed-out entry to kNoSlot: O(size()).
  void Reset() {
    for (uint32_t id : ids_) slot_of_[id] = kNoSlot;
    ClearAndTrim(ids_, kRetainedSlots);
  }
  /// Full O(capacity()) scan; debug checks only.
  bool IsClean() const;

 private:
  std::vector<uint32_t> slot_of_;
  std::vector<uint32_t> ids_;  ///< slot -> id: the touched list
};

/// SlotDirectory + `stride` doubles per slot, +infinity until written.
/// Rows live in fixed blocks of kRetainedSlots slots: growth allocates one
/// block at a time and never copies, so a table that reaches |V| rows holds
/// exactly the blocks it needs (no doubling slack, no transient copy).
class DistTable {
 public:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  explicit DistTable(uint32_t n) : dir_(n) {}

  /// Sets the column count. Only a clean table may change shape.
  void SetStride(int stride) {
    if (stride == stride_) return;
    MCN_CHECK(dir_.size() == 0);
    stride_ = stride;
    blocks_.clear();  // sized for the old stride
  }
  int stride() const { return stride_; }

  uint32_t Find(uint32_t id) const { return dir_.Find(id); }
  /// Slot of `id`, appending a row of +infinity when it is new.
  uint32_t Acquire(uint32_t id) {
    uint32_t s = dir_.Find(id);
    if (s != SlotDirectory::kNoSlot) return s;
    s = dir_.Add(id);
    if (s / kRetainedSlots == blocks_.size()) {
      blocks_.push_back(std::make_unique_for_overwrite<double[]>(
          kRetainedSlots * static_cast<size_t>(stride_)));
    }
    double* row = &at(s, 0);
    for (int c = 0; c < stride_; ++c) row[c] = kInf;
    return s;
  }
  double& at(uint32_t slot, int col) {
    return blocks_[slot / kRetainedSlots][Offset(slot, col)];
  }
  /// Column `col` of `id`; +infinity when never acquired.
  double Get(uint32_t id, int col) const {
    const uint32_t s = dir_.Find(id);
    if (s == SlotDirectory::kNoSlot) return kInf;
    return blocks_[s / kRetainedSlots][Offset(s, col)];
  }

  /// O(size()); keeps the first block for the next query.
  void Reset() {
    dir_.Reset();
    if (blocks_.size() > 1) blocks_.resize(1);
  }
  bool IsClean() const { return dir_.IsClean(); }

 private:
  size_t Offset(uint32_t slot, int col) const {
    return (slot % kRetainedSlots) * static_cast<size_t>(stride_) +
           static_cast<size_t>(col);
  }

  SlotDirectory dir_;
  std::vector<std::unique_ptr<double[]>> blocks_;
  int stride_ = 1;
};

/// Record rows reused across queries: rows [0, size()) are live; the rest
/// keep their capacity for the next query. Row addresses are stable.
template <typename T>
class RowStore {
 public:
  size_t size() const { return used_; }
  std::vector<T>& operator[](size_t i) { return rows_[i]; }

  /// The row the next Commit() makes live, emptied.
  std::vector<T>* Stage() {
    if (used_ == rows_.size()) rows_.emplace_back();
    std::vector<T>* row = &rows_[used_];
    row->clear();
    return row;
  }
  uint32_t Commit() { return static_cast<uint32_t>(used_++); }
  void Reset() {
    used_ = 0;
    if (rows_.size() > kRetainedSlots) rows_.resize(kRetainedSlots);
  }

 private:
  std::deque<std::vector<T>> rows_;
  size_t used_ = 0;
};

/// One expansion's heap entry: bit kFacilityTag of tagged_id marks
/// facilities.
struct HeapItem {
  double key;
  uint64_t tagged_id;
};
struct HeapItemBefore {
  bool operator()(const HeapItem& a, const HeapItem& b) const {
    if (a.key != b.key) return a.key < b.key;
    return a.tagged_id < b.tagged_id;  // deterministic tie-break
  }
};
using ExpansionHeap = DaryHeap<HeapItem, HeapItemBefore>;

/// What one SingleExpansion reads and writes: its distance column in a
/// node and a facility table, and its heap.
struct ExpansionScratch {
  DistTable* nodes = nullptr;
  DistTable* facilities = nullptr;
  int column = 0;
  ExpansionHeap* heap = nullptr;
};

/// CachedFetch's state: node -> adjacency row (slot == row) and packed
/// edge -> facility row, with the rows themselves.
struct CeaCacheState {
  explicit CeaCacheState(uint32_t num_nodes) : adj_row_of(num_nodes) {}

  SlotDirectory adj_row_of;
  RowStore<net::AdjEntry> adj_rows;
  FlatU64Map fac_row_of;
  std::vector<uint64_t> fac_keys;  ///< touched list of fac_row_of
  RowStore<net::FacilityOnEdge> fac_rows;

  void Reset();
  bool IsClean() const;
};

/// See the file comment. Parts are built on first use, so a workspace
/// costs only what its engines asked for.
class QueryWorkspace {
 public:
  QueryWorkspace(uint32_t num_nodes, uint32_t num_facilities)
      : num_nodes_(num_nodes), num_facilities_(num_facilities) {}

  QueryWorkspace(const QueryWorkspace&) = delete;
  QueryWorkspace& operator=(const QueryWorkspace&) = delete;

  uint32_t num_nodes() const { return num_nodes_; }
  uint32_t num_facilities() const { return num_facilities_; }

  /// Scratch for expansion `i` of `d`. Serial engines share one node and
  /// one facility table (column i of d), so a node's d distances sit in
  /// one row; `private_tables` gives each expansion its own single-column
  /// tables instead, for engines whose expansions probe concurrently.
  ExpansionScratch ScratchFor(int i, int d, bool private_tables);

  CeaCacheState* cea();

  /// Returns every part to its empty state in O(what was touched).
  void Reset();
  /// Full scan: every directory entry kNoSlot, no live rows or heap
  /// entries. Debug checks only.
  bool IsClean() const;

 private:
  uint32_t num_nodes_;
  uint32_t num_facilities_;
  // Deques: parts keep their addresses as more are built.
  std::deque<DistTable> node_tables_;
  std::deque<DistTable> fac_tables_;
  std::deque<ExpansionHeap> heaps_;
  std::unique_ptr<CeaCacheState> cea_;
};

/// An engine's hold on a workspace. Constructed over a reader, it takes
/// the reader's workspace — or builds a fresh one when the reader has none
/// to lend (first use, or another live engine holds it); over nullptr it
/// builds a private one. On destruction the workspace is Reset, checked
/// clean in debug builds, and handed back to the reader if the reader's
/// slot is empty.
class WorkspaceLease {
 public:
  WorkspaceLease() = default;
  WorkspaceLease(const net::NetworkReader* lender, uint32_t num_nodes,
                 uint32_t num_facilities);
  ~WorkspaceLease();

  WorkspaceLease(WorkspaceLease&& other) noexcept;
  WorkspaceLease& operator=(WorkspaceLease&& other) noexcept;

  QueryWorkspace* get() const { return workspace_.get(); }

 private:
  void Release();

  const net::NetworkReader* lender_ = nullptr;
  std::unique_ptr<QueryWorkspace> workspace_;
};

}  // namespace mcn::expand

#endif  // MCN_EXPAND_QUERY_WORKSPACE_H_
