#ifndef HEAVEN_HEAVEN_CACHE_H_
#define HEAVEN_HEAVEN_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/statistics.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "heaven/super_tile.h"

namespace heaven {

/// Eviction strategies of the disk-resident super-tile cache (the thesis's
/// "Verdrängungsstrategien"). Retrieval cost from tape is so high that the
/// cache layer and its policy dominate repeated-access performance.
enum class EvictionPolicy {
  kLru,       // least recently used
  kLfu,       // least frequently used
  kFifo,      // oldest insertion
  kSizeAware, // largest object first (greedy space recovery)
};

std::string EvictionPolicyName(EvictionPolicy policy);

struct CacheOptions {
  uint64_t capacity_bytes = 1ull << 30;
  EvictionPolicy policy = EvictionPolicy::kLru;
  /// Lock stripes: the cache is split into this many independently locked
  /// shards (by SuperTileId hash, capacity divided evenly) so lookups and
  /// admissions on different super-tiles do not serialize. 0 selects
  /// hardware concurrency, clamped so every shard keeps at least
  /// kMinShardBytes of capacity (small caches therefore resolve to one
  /// shard); 1 is the exact legacy single-mutex behaviour.
  size_t num_shards = 0;
};

/// Byte-bounded cache of deserialized super-tiles, keyed by SuperTileId.
/// Models the disk cache level of HEAVEN's caching hierarchy: super-tiles
/// fetched from tape are retained here so follow-up queries skip tertiary
/// storage entirely. Thread-safe; sharded per CacheOptions::num_shards.
///
/// Every policy evicts in O(1) or O(log n): LRU/FIFO keep an intrusive
/// recency/insertion list, LFU keeps frequency buckets (victim = least
/// recent entry of the lowest-frequency bucket), and the size-aware policy
/// keeps entries ordered by (size desc, recency asc). Victim selection is
/// identical to the legacy full-scan implementation.
class SuperTileCache {
 public:
  SuperTileCache(const CacheOptions& options, Statistics* stats);

  /// Inserts (or refreshes) a super-tile, evicting per policy as needed.
  /// Objects larger than a shard's capacity are not admitted. A refresh
  /// keeps the entry's accumulated access frequency (LFU history) but
  /// counts as a fresh insertion for FIFO ordering. `prefetched` flags a
  /// speculative read; a refresh replaces the flag.
  void Insert(SuperTileId id, std::shared_ptr<const SuperTile> super_tile,
              uint64_t size_bytes, bool prefetched = false);

  /// The cached super-tile, or nullptr on a miss. Records hit/miss tickers;
  /// the first hit on a prefetched entry also counts Ticker::kPrefetchUseful
  /// and clears its flag.
  std::shared_ptr<const SuperTile> Lookup(SuperTileId id);

  /// True without perturbing recency/frequency bookkeeping or tickers.
  bool Contains(SuperTileId id) const;

  void Erase(SuperTileId id);
  void Clear();

  uint64_t size_bytes() const;
  size_t entry_count() const;
  const CacheOptions& options() const { return options_; }
  size_t num_shards() const { return shards_.size(); }

  /// Live occupancy of one shard, for the sampled gauges
  /// `cache.shard_bytes` / `cache.shard_entries` (labeled by shard index).
  struct ShardStats {
    uint64_t bytes = 0;
    uint64_t capacity_bytes = 0;
    size_t entries = 0;
  };
  /// Per-shard occupancy snapshot (one shard lock at a time, so the
  /// snapshot is per-shard consistent, not globally atomic).
  std::vector<ShardStats> ShardStatsSnapshot() const;
  /// Occupancy of one shard (`shard` < num_shards()).
  ShardStats ShardStatsAt(size_t shard) const;

  /// Minimum per-shard capacity the automatic shard count preserves.
  static constexpr uint64_t kMinShardBytes = 4ull << 20;

 private:
  struct Entry {
    std::shared_ptr<const SuperTile> super_tile;
    uint64_t size_bytes = 0;
    uint64_t access_count = 0;
    uint64_t inserted_seq = 0;
    uint64_t accessed_seq = 0;
    /// Admitted by a prefetch and not hit since.
    bool prefetched = false;
    /// Position in `order` (LRU/FIFO) or in the `buckets` list holding the
    /// entry (LFU); unused for the size-aware policy.
    std::list<SuperTileId>::iterator list_pos;
  };

  /// Orders (size desc, accessed_seq asc, id asc): *begin() is the
  /// size-aware victim — largest entry, least recently used among equals.
  struct SizeOrderLess {
    using Key = std::tuple<uint64_t, uint64_t, SuperTileId>;
    bool operator()(const Key& a, const Key& b) const {
      if (std::get<0>(a) != std::get<0>(b)) {
        return std::get<0>(a) > std::get<0>(b);
      }
      if (std::get<1>(a) != std::get<1>(b)) {
        return std::get<1>(a) < std::get<1>(b);
      }
      return std::get<2>(a) < std::get<2>(b);
    }
  };
  using SizeOrder = std::set<SizeOrderLess::Key, SizeOrderLess>;

  struct Shard {
    mutable Mutex mu ACQUIRED_AFTER("HeavenDb::db_mu_");
    /// Set once when the shard array is built, constant afterwards.
    uint64_t capacity_bytes = 0;  // analyze: unguarded(fixed at construction)
    std::map<SuperTileId, Entry> entries GUARDED_BY(mu);
    uint64_t bytes GUARDED_BY(mu) = 0;
    uint64_t seq GUARDED_BY(mu) = 0;
    /// LRU: front = least recent. FIFO: front = oldest insertion.
    std::list<SuperTileId> order GUARDED_BY(mu);
    /// LFU: access_count -> ids in ascending accessed_seq order.
    std::map<uint64_t, std::list<SuperTileId>> buckets GUARDED_BY(mu);
    SizeOrder by_size GUARDED_BY(mu);
  };

  Shard& ShardFor(SuperTileId id);
  const Shard& ShardFor(SuperTileId id) const;

  /// Hooks the entry into the policy structure (entry fields final).
  void LinkLocked(Shard* shard, SuperTileId id, Entry* entry)
      REQUIRES(shard->mu);
  /// Unhooks the entry from the policy structure.
  void UnlinkLocked(Shard* shard, SuperTileId id, const Entry& entry)
      REQUIRES(shard->mu);
  /// Updates policy bookkeeping for an access (Lookup hit).
  void TouchLocked(Shard* shard, SuperTileId id, Entry* entry)
      REQUIRES(shard->mu);
  /// Evicts the policy's victim; precondition: shard not empty.
  void EvictOneLocked(Shard* shard) REQUIRES(shard->mu);

  CacheOptions options_;
  Statistics* stats_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace heaven

#endif  // HEAVEN_HEAVEN_CACHE_H_
