// DaryHeap: a cache-friendly 4-ary min-heap replacing std::priority_queue
// on the expansion hot path. A node's four children share one cache line
// of 16-byte HeapItems, so sift-down touches ~half the lines of a binary
// heap at the same comparison count. An expansion's heap lives in its
// QueryWorkspace and keeps its backing vector across queries, so pushes
// allocate only while a workspace is new (DESIGN.md §4).
//
// The element order is a strict weak ordering supplied via `Before`
// (before(a, b) == a must pop earlier). Pop order for a fixed input set is
// identical to std::priority_queue's because the ordering used by the
// expansions is total (heap keys tie-break on unique ids).
#ifndef MCN_EXPAND_DARY_HEAP_H_
#define MCN_EXPAND_DARY_HEAP_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "mcn/common/macros.h"

namespace mcn::expand {

/// Empties `v`; when its capacity exceeds `keep`, swaps in one reserved to
/// `keep`, releasing the rest.
template <typename T>
void ClearAndTrim(std::vector<T>& v, size_t keep) {
  v.clear();
  if (v.capacity() > keep) {
    std::vector<T> fresh;
    fresh.reserve(keep);
    v.swap(fresh);
  }
}

template <typename T, typename Before>
class DaryHeap {
 public:
  static constexpr size_t kArity = 4;

  explicit DaryHeap(Before before = Before()) : before_(before) {}

  bool empty() const { return items_.empty(); }
  size_t size() const { return items_.size(); }
  void reserve(size_t n) { items_.reserve(n); }

  const T& top() const {
    MCN_DCHECK(!items_.empty());
    return items_[0];
  }

  void push(T item) {
    items_.push_back(std::move(item));
    SiftUp(items_.size() - 1);
  }

  void pop() {
    MCN_DCHECK(!items_.empty());
    if (items_.size() == 1) {
      items_.pop_back();
      return;
    }
    items_[0] = std::move(items_.back());
    items_.pop_back();
    SiftDown(0);
  }

  void clear() { items_.clear(); }
  /// Empties the heap, keeping room for at most `n` items.
  void ClearAndTrim(size_t n) { mcn::expand::ClearAndTrim(items_, n); }

 private:
  void SiftUp(size_t i) {
    T item = std::move(items_[i]);
    while (i > 0) {
      size_t parent = (i - 1) / kArity;
      if (!before_(item, items_[parent])) break;
      items_[i] = std::move(items_[parent]);
      i = parent;
    }
    items_[i] = std::move(item);
  }

  void SiftDown(size_t i) {
    T item = std::move(items_[i]);
    const size_t n = items_.size();
    for (;;) {
      size_t first_child = i * kArity + 1;
      if (first_child >= n) break;
      size_t last_child = first_child + kArity;
      if (last_child > n) last_child = n;
      size_t best = first_child;
      for (size_t c = first_child + 1; c < last_child; ++c) {
        if (before_(items_[c], items_[best])) best = c;
      }
      if (!before_(items_[best], item)) break;
      items_[i] = std::move(items_[best]);
      i = best;
    }
    items_[i] = std::move(item);
  }

  std::vector<T> items_;
  Before before_;
};

}  // namespace mcn::expand

#endif  // MCN_EXPAND_DARY_HEAP_H_
