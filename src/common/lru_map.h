#ifndef TSDM_COMMON_LRU_MAP_H_
#define TSDM_COMMON_LRU_MAP_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>

namespace tsdm {

/// Bounded map with strict least-recently-used eviction: the entries live
/// in a list in recency order (front = most recently used) and a hash map
/// indexes them. The one LRU every serving cache keeps (RouteCache's route
/// and reverse-tree LRUs, each PathCostCache shard).
///
/// Not synchronized: each owner guards its maps with its own mutex.
template <typename K, typename V, typename Hash = std::hash<K>>
class LruMap {
 public:
  /// `capacity` is clamped to >= 1.
  explicit LruMap(size_t capacity)
      : capacity_(std::max<size_t>(1, capacity)) {}

  /// The value under `key`, made the most recently used entry; nullptr
  /// when absent.
  V* Get(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    entries_.splice(entries_.begin(), entries_, it->second);
    return &it->second->second;
  }

  /// The value under `key` with its recency untouched; nullptr when absent.
  V* Peek(const K& key) {
    auto it = index_.find(key);
    return it == index_.end() ? nullptr : &it->second->second;
  }

  /// Stores `value` under `key` as the most recently used entry (replacing
  /// a resident value), then evicts from the least recently used end down
  /// to capacity. Returns the number of entries evicted.
  size_t Put(K key, V value) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      entries_.splice(entries_.begin(), entries_, it->second);
      return 0;
    }
    entries_.emplace_front(key, std::move(value));
    index_.emplace(std::move(key), entries_.begin());
    size_t evicted = 0;
    while (entries_.size() > capacity_) {
      index_.erase(entries_.back().first);
      entries_.pop_back();
      ++evicted;
    }
    return evicted;
  }

  size_t size() const { return entries_.size(); }

  void clear() {
    index_.clear();
    entries_.clear();
  }

 private:
  using Entry = std::pair<K, V>;

  size_t capacity_;
  std::list<Entry> entries_;
  std::unordered_map<K, typename std::list<Entry>::iterator, Hash> index_;
};

}  // namespace tsdm

#endif  // TSDM_COMMON_LRU_MAP_H_
