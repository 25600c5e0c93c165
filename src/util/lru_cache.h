#ifndef RLZ_UTIL_LRU_CACHE_H_
#define RLZ_UTIL_LRU_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace rlz {

/// A thread-safe, byte-capacity LRU cache of immutable strings, striped
/// across independently locked shards so concurrent readers on different
/// keys rarely contend. Values are handed out as shared_ptr<const string>:
/// a hit costs one refcount bump, and an entry evicted while a reader still
/// holds it stays alive until the reader drops it.
///
/// This is the decode cache of the serving layer (DESIGN.md §6): a key's
/// value never changes while the key is valid, so Insert on an existing
/// key keeps (and returns) the resident value. A *live* corpus can retire
/// a key outright (Delete tombstones the document, DESIGN.md §11) — Erase
/// is the invalidation hook for exactly that case.
class LruCache {
 public:
  /// Charged against the capacity per entry on top of the value bytes,
  /// approximating the list node + hash node + shared_ptr control block.
  /// This keeps a flood of tiny (or empty) values bounded by the byte
  /// budget instead of growing the index without limit.
  static constexpr uint64_t kEntryOverheadBytes = 64;
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;  // capacity evictions (LRU victims)
    uint64_t erased = 0;     // explicit Erase() invalidations
    uint64_t entries = 0;
    uint64_t bytes = 0;           // charged bytes: values + entry overhead
    uint64_t capacity_bytes = 0;  // total across shards

    double hit_rate() const {
      const uint64_t lookups = hits + misses;
      return lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
    }
  };

  /// `capacity_bytes == 0` disables caching: every Get misses and Insert
  /// stores nothing (it still wraps and returns the value, so callers can
  /// be capacity-oblivious). `num_shards` is rounded up to a power of two;
  /// each shard owns an equal slice of the capacity, so the largest
  /// cacheable value is capacity_bytes / num_shards - kEntryOverheadBytes —
  /// size num_shards against the biggest item you expect to cache
  /// (BlockedArchive uses 2 stripes for exactly this reason).
  explicit LruCache(uint64_t capacity_bytes, int num_shards = 16)
      : capacity_bytes_(capacity_bytes) {
    size_t shards = 1;
    while (shards < static_cast<size_t>(num_shards > 0 ? num_shards : 1)) {
      shards *= 2;
    }
    shards_ = std::vector<Shard>(shards);
    mask_ = shards - 1;
    per_shard_capacity_ = capacity_bytes / shards;
  }

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// Returns the cached value for `key` (promoting it to most recently
  /// used) or nullptr on a miss. `count_miss` false leaves a miss out of
  /// the stats, for a caller that falls back to a counted Get of the same
  /// key, so one request stays one lookup.
  std::shared_ptr<const std::string> Get(uint64_t key,
                                         bool count_miss = true) {
    Shard& s = shard(key);
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.index.find(key);
    if (it == s.index.end()) {
      if (count_miss) ++s.misses;
      return nullptr;
    }
    ++s.hits;
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return it->second->value;
  }

  /// Caches `value` under `key` and returns the resident shared value. If
  /// `key` is already present the existing value is kept and returned (two
  /// threads that raced to decode the same item converge on one copy). A
  /// value larger than a shard's capacity is returned uncached rather than
  /// flushing the whole shard to make room for it.
  std::shared_ptr<const std::string> Insert(uint64_t key, std::string value) {
    auto owned = std::make_shared<const std::string>(std::move(value));
    const uint64_t charge = owned->size() + kEntryOverheadBytes;
    if (capacity_bytes_ == 0 || charge > per_shard_capacity_) {
      return owned;
    }
    Shard& s = shard(key);
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.index.find(key);
    if (it != s.index.end()) {
      s.lru.splice(s.lru.begin(), s.lru, it->second);
      return it->second->value;
    }
    s.bytes += charge;
    s.lru.push_front(Entry{key, owned});
    s.index.emplace(key, s.lru.begin());
    while (s.bytes > per_shard_capacity_) {
      const Entry& victim = s.lru.back();
      s.bytes -= victim.value->size() + kEntryOverheadBytes;
      s.index.erase(victim.key);
      s.lru.pop_back();
      ++s.evictions;
    }
    return owned;
  }

  /// Removes `key` if present; returns whether an entry was dropped.
  /// Readers already holding the value keep it alive (snapshot isolation:
  /// erasure stops future hits, it does not revoke handed-out bytes).
  /// Counted separately from capacity evictions in Stats::erased.
  bool Erase(uint64_t key) {
    Shard& s = shard(key);
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.index.find(key);
    if (it == s.index.end()) return false;
    s.bytes -= it->second->value->size() + kEntryOverheadBytes;
    s.lru.erase(it->second);
    s.index.erase(it);
    ++s.erased;
    return true;
  }

  /// Drops every entry. Counters are preserved.
  void Clear() {
    for (Shard& s : shards_) {
      std::lock_guard<std::mutex> lock(s.mu);
      s.lru.clear();
      s.index.clear();
      s.bytes = 0;
    }
  }

  Stats stats() const {
    Stats total;
    total.capacity_bytes = capacity_bytes_;
    for (const Shard& s : shards_) {
      std::lock_guard<std::mutex> lock(s.mu);
      total.hits += s.hits;
      total.misses += s.misses;
      total.evictions += s.evictions;
      total.erased += s.erased;
      total.entries += s.index.size();
      total.bytes += s.bytes;
    }
    return total;
  }

  uint64_t capacity_bytes() const { return capacity_bytes_; }
  size_t num_shards() const { return shards_.size(); }

 private:
  struct Entry {
    uint64_t key;
    std::shared_ptr<const std::string> value;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<uint64_t, std::list<Entry>::iterator> index;
    uint64_t bytes = 0;  // guarded by mu, like everything below
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t erased = 0;
  };

  Shard& shard(uint64_t key) { return shards_[key & mask_]; }

  uint64_t capacity_bytes_;
  uint64_t per_shard_capacity_ = 0;
  uint64_t mask_ = 0;
  std::vector<Shard> shards_;
};

}  // namespace rlz

#endif  // RLZ_UTIL_LRU_CACHE_H_
