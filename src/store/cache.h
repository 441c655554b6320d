// Sharded, byte-bounded LRU cache of decoded read results with
// single-flight coalescing: at most one decode per key runs at a time;
// concurrent requesters for the same key block on the in-flight decode
// and share its result instead of decoding again.
//
// Every get_or_fill() counts exactly one cache hit, miss (the flight
// leader) or coalesced join in util::metrics; tests/store_test.cc relies
// on that.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "pcw/status.h"
#include "pcw/types.h"

namespace pcw::store {

/// Cache identity of one decoded result. `generation` is the owning
/// file's commit count — a commit bumps it, so stale entries become
/// unreachable (and age out via LRU) without an explicit flush.
struct CacheKey {
  std::uint32_t file_id = 0;
  std::uint64_t generation = 0;
  std::uint8_t kind = 0;  // 0 = plain dataset read, 1 = series step
  std::uint32_t step = 0;
  std::uint8_t dtype = 0;
  std::string name;  // dataset name (kind 0) or series base (kind 1)
  std::array<std::uint64_t, 6> box{};  // lo0..lo2, hi0..hi2; all-zero = whole field

  bool operator==(const CacheKey&) const = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the fields
    auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 1099511628211ull;
    };
    mix(k.file_id);
    mix(k.generation);
    mix(k.kind);
    mix(k.step);
    mix(k.dtype);
    mix(std::hash<std::string>{}(k.name));
    for (std::uint64_t b : k.box) mix(b);
    return static_cast<std::size_t>(h);
  }
};

/// One decoded result: element bytes plus their logical extents.
struct CachedValue {
  DType dtype = DType::kFloat32;
  Dims extents;
  std::vector<std::uint8_t> bytes;
};

class BlockCache {
 public:
  /// `capacity_bytes` 0 disables residency (fills still coalesce).
  BlockCache(std::uint64_t capacity_bytes, unsigned shards);
  ~BlockCache();

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// Returns the entry for `key`, running `fill` at most once across all
  /// concurrent callers of the same key. A failed fill is not cached;
  /// every waiter receives its error. `fill` runs without any cache lock
  /// held, so it may take arbitrary time (a full chain decode).
  Result<std::shared_ptr<const CachedValue>> get_or_fill(
      const CacheKey& key, const std::function<Result<CachedValue>()>& fill);

  /// Residency probe without filling: counts a hit when present, counts
  /// nothing when absent (the caller falls through to get_or_fill, which
  /// does the miss accounting).
  std::shared_ptr<const CachedValue> lookup(const CacheKey& key);

  /// Drops every resident entry of `file_id` (all generations) — called
  /// after a commit so the next read decodes the new state.
  void invalidate_file(std::uint32_t file_id);

  std::uint64_t resident_bytes() const;

 private:
  struct Flight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::optional<Result<std::shared_ptr<const CachedValue>>> result;
  };

  struct Shard {
    mutable std::mutex mu;
    std::list<CacheKey> lru;  // front = most recently used
    struct Entry {
      std::shared_ptr<const CachedValue> value;
      std::list<CacheKey>::iterator lru_it;
    };
    std::unordered_map<CacheKey, Entry, CacheKeyHash> map;
    std::unordered_map<CacheKey, std::shared_ptr<Flight>, CacheKeyHash> flights;
    std::uint64_t bytes = 0;
  };

  Shard& shard_of(const CacheKey& key);
  void insert_locked(Shard& s, const CacheKey& key,
                     std::shared_ptr<const CachedValue> value);

  std::uint64_t shard_budget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace pcw::store
