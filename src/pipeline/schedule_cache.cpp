#include "pipeline/schedule_cache.hpp"

#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>

#include "graph/serialization.hpp"
#include "pipeline/registry.hpp"

namespace sts {

ScheduleCache::Flight ScheduleCache::settle_current_exception() {
  Flight flight;
  try {
    throw;
  } catch (const std::invalid_argument& e) {
    flight.error = e.what();
    flight.invalid = true;
  } catch (const std::exception& e) {
    flight.error = e.what();
  } catch (...) {
    flight.error = "unknown error";
  }
  // A failure must read as one downstream even if what() was empty.
  if (flight.error.empty()) flight.error = "unknown error";
  return flight;
}

std::string canonical_cache_key(const TaskGraph& graph, std::string_view scheduler,
                                const MachineConfig& machine) {
  std::string key;
  key.reserve(80 + 16 + 9 * graph.node_count() + 24 * graph.edge_count());
  key += "scheduler=";
  key += scheduler;
  key += '\n';
  key += machine.cache_key();
  key += '\n';
  key += canonical_fingerprint(graph);
  return key;
}

std::uint64_t fnv1a64(std::string_view text) noexcept {
  // FNV-1a over 8-byte words with a final avalanche. Word-at-a-time keeps
  // the multiply dependency chain off the cache-hit critical path (the
  // byte-serial variant costs ~3 cycles per byte, which dominates hits on
  // multi-kilobyte keys); the avalanche restores diffusion across the word.
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const char* p = text.data();
  std::size_t n = text.size();
  while (n >= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, 8);
    hash = (hash ^ word) * 0x100000001b3ULL;
    p += 8;
    n -= 8;
  }
  std::uint64_t tail = 0;
  if (n > 0) std::memcpy(&tail, p, n);
  hash = (hash ^ (tail + n)) * 0x100000001b3ULL;
  hash ^= hash >> 32;
  hash *= 0xd6e8feb86659fd93ULL;
  hash ^= hash >> 32;
  return hash;
}

ScheduleCache::ScheduleCache(std::size_t capacity, std::optional<std::chrono::nanoseconds> ttl)
    : lru_(capacity), ttl_(ttl) {
  if (capacity == 0) throw std::invalid_argument("ScheduleCache: capacity must be >= 1");
}

ScheduleCache::ResultPtr ScheduleCache::find_live_locked(std::uint64_t hash,
                                                         std::string_view key) {
  const Entry* entry = lru_.find(hash, key);
  if (entry == nullptr) return nullptr;
  if (is_expired_locked(*entry)) {
    lru_.erase(hash, key);
    ++stats_.expired;
    return nullptr;
  }
  ++stats_.hits;
  return entry->result;
}

bool ScheduleCache::is_expired_locked(const Entry& entry) const {
  // One steady_clock read per probe, and only when a ttl is configured at
  // all — the default (no ttl) pays nothing. ttl == 0 expires every entry
  // on its next probe, which tests use for deterministic expiry.
  return ttl_ && std::chrono::steady_clock::now() - entry.inserted >= *ttl_;
}

void ScheduleCache::count_evicted_locked(Lru::Evicted evicted) {
  stats_.evictions += evicted.count;
  stats_.evicted_weight += evicted.weight;
}

ScheduleCache::ResultPtr ScheduleCache::get_or_schedule(const TaskGraph& graph,
                                                        std::string_view scheduler,
                                                        const MachineConfig& machine) {
  return get_or_compute(canonical_cache_key(graph, scheduler, machine),
                        [&] { return schedule_by_name(scheduler, graph, machine); },
                        graph.node_count());
}

ScheduleCache::ResultPtr ScheduleCache::get_or_compute(
    std::string key, const std::function<ScheduleResult()>& compute, std::size_t weight) {
  const std::uint64_t hash = fnv1a64(key);

  std::shared_future<Flight> pending;
  // Constructed only on the miss path: a promise allocates shared state,
  // which the hit path (the whole point of the cache) must not pay for.
  std::optional<std::promise<Flight>> promise;
  {
    const MutexLock lock(mutex_);
    // An expired entry falls through: this lookup is a miss (or a race).
    if (ResultPtr hit = find_live_locked(hash, key)) return hit;
    if (const auto flight = in_flight_.find(key); flight != in_flight_.end()) {
      ++stats_.races;
      pending = flight->second;
    } else {
      ++stats_.misses;
      promise.emplace();
      in_flight_.emplace(key, promise->get_future().share());
    }
  }
  // Race loser: share the in-flight computation. A failure arrives as a
  // value and is rethrown here, on this thread.
  if (pending.valid()) {
    const Flight& flight = pending.get();
    if (flight.error.empty()) return flight.result;
    if (flight.invalid) throw std::invalid_argument(flight.error);
    throw std::runtime_error(flight.error);
  }

  // Miss: compute outside the lock — scheduling dominates, and concurrent
  // misses on distinct keys must not serialize behind each other.
  ResultPtr result;
  try {
    result = std::make_shared<const ScheduleResult>(compute());
  } catch (...) {
    {
      const MutexLock lock(mutex_);
      in_flight_.erase(key);  // next request for this key retries
    }
    // Settle the losers with the error detail as a value, then rethrow the
    // original exception locally for this caller.
    promise->set_value(settle_current_exception());
    throw;
  }
  {
    const MutexLock lock(mutex_);
    in_flight_.erase(key);
    if (weight == 0) weight = 1;
    const Lru::Insertion insertion =
        lru_.insert(hash, std::move(key), Entry{result, std::chrono::steady_clock::now()}, weight);
    // An admission refusal (an entry heavier than the whole capacity can
    // never fit) is counted with the evictions, so the books still explain
    // the miss traffic it causes.
    count_evicted_locked(insertion.value ? insertion.evicted : Lru::Evicted{1, weight});
  }
  promise->set_value(Flight{result, {}, false});
  return result;
}

ScheduleCache::ResultPtr ScheduleCache::try_get(std::string_view key) {
  const std::uint64_t hash = fnv1a64(key);
  const MutexLock lock(mutex_);
  return find_live_locked(hash, key);
}

bool ScheduleCache::contains(std::string_view key) const {
  const std::uint64_t hash = fnv1a64(key);
  const MutexLock lock(mutex_);
  const Entry* entry = lru_.peek(hash, key);
  return entry != nullptr && !is_expired_locked(*entry);
}

void ScheduleCache::set_ttl(std::optional<std::chrono::nanoseconds> ttl) {
  const MutexLock lock(mutex_);
  ttl_ = ttl;
}

std::optional<std::chrono::nanoseconds> ScheduleCache::ttl() const {
  const MutexLock lock(mutex_);
  return ttl_;
}

ScheduleCache::Stats ScheduleCache::stats() const {
  const MutexLock lock(mutex_);
  Stats out = stats_;
  if (ttl_) {
    // Expiry is lazy: an entry past its ttl is only physically dropped by the
    // next mutating probe of its key, yet contains()/try_get already read it
    // as absent. Count such residents here so stats().expired agrees with the
    // lookup behavior at all times, not just after the drop.
    // (The visitor reads locals only: TSA checks a lambda body as a separate
    // lock-free function.)
    const std::chrono::steady_clock::time_point now = std::chrono::steady_clock::now();
    const std::chrono::nanoseconds ttl = *ttl_;
    lru_.for_each([&out, now, ttl](const Entry& entry) {
      if (now - entry.inserted >= ttl) ++out.expired;
    });
  }
  return out;
}

std::size_t ScheduleCache::size() const {
  const MutexLock lock(mutex_);
  return lru_.size();
}

std::size_t ScheduleCache::total_weight() const {
  const MutexLock lock(mutex_);
  return lru_.weight();
}

std::size_t ScheduleCache::capacity() const {
  const MutexLock lock(mutex_);
  return lru_.capacity();
}

void ScheduleCache::set_capacity(std::size_t capacity) {
  if (capacity == 0) throw std::invalid_argument("ScheduleCache: capacity must be >= 1");
  const MutexLock lock(mutex_);
  count_evicted_locked(lru_.set_capacity(capacity));
}

void ScheduleCache::clear() {
  const MutexLock lock(mutex_);
  lru_.clear();
  stats_ = Stats{};
}

}  // namespace sts
