// LruCache: a least-recently-used map where every entry has a cost and
// the entries together stay within a budget. The database's trie cache
// charges each trie its bytes against a byte budget; its plan cache
// charges each plan 1 against the plan capacity.
#ifndef XJOIN_COMMON_LRU_CACHE_H_
#define XJOIN_COMMON_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <list>
#include <map>
#include <utility>

namespace xjoin {

/// Not thread-safe: the owner serializes every call with its own mutex.
template <typename Key, typename Value>
class LruCache {
 public:
  explicit LruCache(size_t budget) : budget_(budget) {}

  /// The value under `key`, which becomes the most recently used entry;
  /// null when absent.
  const Value* Get(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    entries_.splice(entries_.begin(), entries_, it->second);
    return &it->second->value;
  }

  /// Caches `value` under `key` as the most recently used entry,
  /// replacing any entry there, then evicts least recently used entries
  /// until the total cost fits the budget. An entry whose cost exceeds
  /// the whole budget is not cached.
  void Put(const Key& key, Value value, size_t cost) {
    auto old = index_.find(key);
    if (old != index_.end()) Drop(old->second);
    if (cost > budget_) return;
    entries_.push_front(Entry{key, std::move(value), cost});
    index_.emplace(key, entries_.begin());
    cost_ += cost;
    EvictToBudget();
  }

  /// Changes the budget, evicting at once down to it.
  void SetBudget(size_t budget) {
    budget_ = budget;
    EvictToBudget();
  }

  /// Drops every entry for which pred(key, value) holds and returns how
  /// many; such drops are not evictions.
  template <typename Pred>
  size_t EraseIf(Pred pred) {
    size_t erased = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (pred(it->key, it->value)) {
        it = Drop(it);
        ++erased;
      } else {
        ++it;
      }
    }
    return erased;
  }

  /// Visits every entry, most recently used first, without touching it.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const Entry& entry : entries_) fn(entry.key, entry.value);
  }

  void Clear() {
    entries_.clear();
    index_.clear();
    cost_ = 0;
  }

  size_t size() const { return entries_.size(); }
  size_t cost() const { return cost_; }
  size_t budget() const { return budget_; }
  /// Entries dropped to fit the budget, over the cache's lifetime.
  int64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    Key key;
    Value value;
    size_t cost;
  };

  using Iterator = typename std::list<Entry>::iterator;

  Iterator Drop(Iterator entry) {
    cost_ -= entry->cost;
    index_.erase(entry->key);
    return entries_.erase(entry);
  }

  void EvictToBudget() {
    while (cost_ > budget_) {
      Drop(std::prev(entries_.end()));
      ++evictions_;
    }
  }

  std::list<Entry> entries_;  // front = most recently used
  std::map<Key, Iterator> index_;
  size_t budget_;
  size_t cost_ = 0;
  int64_t evictions_ = 0;
};

}  // namespace xjoin

#endif  // XJOIN_COMMON_LRU_CACHE_H_
