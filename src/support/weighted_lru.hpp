#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <list>
#include <unordered_map>
#include <utility>

namespace sts {

/// Weight-bounded LRU map: the bookkeeping shared by every cache of the
/// serving stack (ScheduleCache, SubgraphCache, PartitionCanonMemo and
/// ScheduleService's base registry). Each of those owners keeps its own
/// policy — stats, single-flight, ttl, what a refusal means — and delegates
/// recency, weight accounting and eviction here.
///
/// Every entry carries a caller-chosen weight and `capacity()` bounds the
/// TOTAL weight, not the entry count (weight 1 everywhere degenerates to the
/// classic entry-count LRU). Inserting past the bound evicts least recently
/// used entries until the weight fits and reports what it dropped; an entry
/// heavier than the whole capacity is refused outright, since it could never
/// fit and admitting it would churn out every resident.
///
/// Callers supply each key's 64-bit hash — they usually hold a digest
/// already — and it is only a bucket selector: probes compare the full key
/// with `==`, so a hash collision degrades to a miss, never to a wrong value.
/// A probe may be any type comparable with Key (a std::string_view against a
/// std::string key, a std::tie of references against a std::tuple key), so
/// lookups need not build a Key.
///
/// Not thread-safe: owners hold it as a GUARDED_BY member of their own mutex.
/// Value pointers handed out stay valid until that entry is erased, evicted
/// or cleared.
template <class Key, class Value>
class WeightedLru {
 public:
  /// Entries dropped by one call to restore the weight bound.
  struct Evicted {
    std::size_t count = 0;
    std::size_t weight = 0;
  };

  struct Insertion {
    /// The value now resident under the key (the one already there when the
    /// key was present), or nullptr when the entry was refused as heavier
    /// than the whole capacity.
    Value* value = nullptr;
    Evicted evicted;
  };

  explicit WeightedLru(std::size_t capacity) : capacity_(capacity) {}

  /// The value stored under `probe`, bumped to most recently used; nullptr
  /// when absent.
  template <class Probe>
  [[nodiscard]] Value* find(std::uint64_t hash, const Probe& probe) {
    const auto slot = locate(hash, probe);
    if (slot == index_.end()) return nullptr;
    const auto it = slot->second;
    entries_.splice(entries_.begin(), entries_, it);
    return &it->value;
  }

  /// As find(), without touching recency.
  template <class Probe>
  [[nodiscard]] const Value* peek(std::uint64_t hash, const Probe& probe) const {
    const auto slot = locate(hash, probe);
    return slot == index_.end() ? nullptr : &slot->second->value;
  }

  /// Caches `value` under `key` as the most recently used entry and evicts
  /// past the bound. A key already present keeps its resident value (no
  /// recency bump) and `value` is dropped.
  Insertion insert(std::uint64_t hash, Key key, Value value, std::size_t weight) {
    if (const auto slot = locate(hash, key); slot != index_.end()) {
      return {&slot->second->value, {}};
    }
    if (weight > capacity_) return {};
    entries_.push_front(Node{hash, std::move(key), std::move(value), weight});
    index_.emplace(hash, entries_.begin());
    weight_ += weight;
    return {&entries_.front().value, evict_to_capacity()};
  }

  /// Removes the entry stored under `probe`; false when absent.
  template <class Probe>
  bool erase(std::uint64_t hash, const Probe& probe) {
    const auto slot = locate(hash, probe);
    if (slot == index_.end()) return false;
    remove(slot);
    return true;
  }

  /// Re-bounds the total weight, evicting LRU entries when shrinking.
  Evicted set_capacity(std::size_t capacity) {
    capacity_ = capacity;
    return evict_to_capacity();
  }

  void clear() noexcept {
    index_.clear();
    entries_.clear();
    weight_ = 0;
  }

  /// Visits every resident value, most recently used first, without
  /// touching recency.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const Node& node : entries_) fn(node.value);
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t weight() const noexcept { return weight_; }  ///< <= capacity()
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Node {
    std::uint64_t hash;
    Key key;
    Value value;
    std::size_t weight;
  };
  using List = std::list<Node>;
  using Index = std::unordered_multimap<std::uint64_t, typename List::iterator>;

  template <class Probe>
  [[nodiscard]] typename Index::const_iterator locate(std::uint64_t hash,
                                                      const Probe& probe) const {
    auto [slot, last] = index_.equal_range(hash);
    for (; slot != last; ++slot) {
      if (slot->second->key == probe) return slot;
    }
    return index_.end();
  }

  void remove(typename Index::const_iterator slot) {
    weight_ -= slot->second->weight;
    entries_.erase(slot->second);
    index_.erase(slot);
  }

  Evicted evict_to_capacity() {
    Evicted evicted;
    while (weight_ > capacity_ && !entries_.empty()) {
      const auto victim = std::prev(entries_.end());
      auto slot = index_.equal_range(victim->hash).first;
      while (slot->second != victim) ++slot;
      ++evicted.count;
      evicted.weight += victim->weight;
      remove(slot);
    }
    return evicted;
  }

  List entries_;  ///< front = most recently used
  Index index_;   ///< hash -> entry; colliding hashes share a key range
  std::size_t capacity_;
  std::size_t weight_ = 0;  ///< sum of entry weights
};

}  // namespace sts
