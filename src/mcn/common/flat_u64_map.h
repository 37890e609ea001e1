// FlatU64Map: a minimal open-addressed hash map from 64-bit keys to 32-bit
// values (linear probing, power-of-two capacity, splitmix-style mixing).
// Used on the query hot paths — packed EdgeKey -> cache row in CachedFetch
// and FacilityFilter, packed PageId -> frame index in BufferPool — where
// unordered_map's per-node allocation and pointer chasing dominated the
// profile (DESIGN.md §4).
//
// The all-ones key is reserved as the empty sentinel; neither a canonical
// EdgeKey (kInvalidNode endpoints) nor a valid PageId (kInvalidPageNo) can
// produce it.
#ifndef MCN_COMMON_FLAT_U64_MAP_H_
#define MCN_COMMON_FLAT_U64_MAP_H_

#include <cstdint>
#include <vector>

#include "mcn/common/hash.h"
#include "mcn/common/macros.h"

namespace mcn {

class FlatU64Map {
 public:
  static constexpr uint64_t kEmptyKey = 0xFFFFFFFFFFFFFFFFull;
  static constexpr uint32_t kNoValue = 0xFFFFFFFFu;

  explicit FlatU64Map(size_t initial_capacity = 64) { Rehash(initial_capacity); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return entries_.size(); }

  /// Value stored under `key`, or kNoValue when absent. The reserved
  /// all-ones key reports absent (it would otherwise match an empty slot),
  /// so callers handing in a corrupt/uninitialized id fall through to
  /// their miss path and fail there, as the pre-flat containers did.
  uint32_t Find(uint64_t key) const {
    if (key == kEmptyKey) return kNoValue;
    size_t i = Ideal(key);
    for (;;) {
      const Entry& e = entries_[i];
      if (e.key == key) return e.value;
      if (e.key == kEmptyKey) return kNoValue;
      i = (i + 1) & mask_;
    }
  }

  /// Inserts `key` -> `value`; the key must be absent and not the
  /// reserved all-ones sentinel (enforced also in release builds — a
  /// sentinel insert would corrupt the table).
  void Insert(uint64_t key, uint32_t value) {
    MCN_CHECK(key != kEmptyKey);
    MCN_DCHECK(value != kNoValue);
    if ((size_ + 1) * 8 > capacity() * 7) Rehash(capacity() * 2);
    size_t i = Ideal(key);
    while (entries_[i].key != kEmptyKey) {
      MCN_DCHECK(entries_[i].key != key);
      i = (i + 1) & mask_;
    }
    entries_[i] = Entry{key, value};
    ++size_;
  }

  /// Removes `key`. The key must be present; an absent key is a
  /// programmer error and aborts, also in release builds (the probe walk
  /// would otherwise cycle the table forever). Backward-shift deletion
  /// keeps probe chains intact without tombstones.
  void Erase(uint64_t key) {
    MCN_CHECK(key != kEmptyKey);  // would match any empty slot below
    size_t i = Ideal(key);
    while (entries_[i].key != key) {
      MCN_CHECK(entries_[i].key != kEmptyKey);  // absent key
      i = (i + 1) & mask_;
    }
    size_t j = i;
    for (;;) {
      j = (j + 1) & mask_;
      if (entries_[j].key == kEmptyKey) break;
      size_t h = Ideal(entries_[j].key);
      // Leave entries whose ideal slot lies cyclically in (i, j]: their
      // probe path does not cross the hole at i.
      bool safe = (i < j) ? (h > i && h <= j) : (h > i || h <= j);
      if (!safe) {
        entries_[i] = entries_[j];
        i = j;
      }
    }
    entries_[i].key = kEmptyKey;
    --size_;
  }

  void Clear() {
    for (Entry& e : entries_) e.key = kEmptyKey;
    size_ = 0;
  }

 private:
  struct Entry {
    uint64_t key = kEmptyKey;
    uint32_t value = 0;
  };

  size_t Ideal(uint64_t key) const {
    return static_cast<size_t>(MixU64(key)) & mask_;
  }

  void Rehash(size_t new_capacity) {
    size_t cap = 16;
    while (cap < new_capacity) cap <<= 1;
    std::vector<Entry> old = std::move(entries_);
    entries_.assign(cap, Entry{});
    mask_ = cap - 1;
    size_ = 0;
    for (const Entry& e : old) {
      if (e.key != kEmptyKey) Insert(e.key, e.value);
    }
  }

  std::vector<Entry> entries_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace mcn

#endif  // MCN_COMMON_FLAT_U64_MAP_H_
