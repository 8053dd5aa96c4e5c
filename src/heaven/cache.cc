#include "heaven/cache.h"

#include <chrono>
#include <thread>

#include "common/logging.h"

namespace heaven {

namespace {

/// splitmix64 finalizer: deterministic, well-mixed shard selection even
/// for the sequential ids the registry hands out.
uint64_t MixId(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

size_t ResolveShardCount(const CacheOptions& options) {
  size_t shards = options.num_shards;
  if (shards == 0) {
    shards = std::max<size_t>(std::thread::hardware_concurrency(), 1);
    // Splitting a small cache into many tiny shards would wreck admission
    // (each shard caps objects at its own capacity), so the automatic
    // count never drops a shard below kMinShardBytes.
    const uint64_t max_by_capacity = std::max<uint64_t>(
        options.capacity_bytes / SuperTileCache::kMinShardBytes, 1);
    shards = static_cast<size_t>(
        std::min<uint64_t>(shards, max_by_capacity));
  }
  return shards;
}

}  // namespace

std::string EvictionPolicyName(EvictionPolicy policy) {
  switch (policy) {
    case EvictionPolicy::kLru:
      return "LRU";
    case EvictionPolicy::kLfu:
      return "LFU";
    case EvictionPolicy::kFifo:
      return "FIFO";
    case EvictionPolicy::kSizeAware:
      return "size-aware";
  }
  return "unknown";
}

SuperTileCache::SuperTileCache(const CacheOptions& options, Statistics* stats)
    : options_(options), stats_(stats) {
  const size_t num_shards = ResolveShardCount(options_);
  const uint64_t base = options_.capacity_bytes / num_shards;
  const uint64_t remainder = options_.capacity_bytes % num_shards;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->capacity_bytes = base + (i < remainder ? 1 : 0);
    shards_.push_back(std::move(shard));
  }
}

SuperTileCache::Shard& SuperTileCache::ShardFor(SuperTileId id) {
  return *shards_[MixId(id) % shards_.size()];
}

const SuperTileCache::Shard& SuperTileCache::ShardFor(SuperTileId id) const {
  return *shards_[MixId(id) % shards_.size()];
}

void SuperTileCache::LinkLocked(Shard* shard, SuperTileId id, Entry* entry) {
  switch (options_.policy) {
    case EvictionPolicy::kLru:
    case EvictionPolicy::kFifo:
      shard->order.push_back(id);
      entry->list_pos = std::prev(shard->order.end());
      break;
    case EvictionPolicy::kLfu: {
      std::list<SuperTileId>& bucket = shard->buckets[entry->access_count];
      bucket.push_back(id);
      entry->list_pos = std::prev(bucket.end());
      break;
    }
    case EvictionPolicy::kSizeAware:
      shard->by_size.insert({entry->size_bytes, entry->accessed_seq, id});
      break;
  }
}

void SuperTileCache::UnlinkLocked(Shard* shard, SuperTileId id,
                                  const Entry& entry) {
  switch (options_.policy) {
    case EvictionPolicy::kLru:
    case EvictionPolicy::kFifo:
      shard->order.erase(entry.list_pos);
      break;
    case EvictionPolicy::kLfu: {
      auto bucket_it = shard->buckets.find(entry.access_count);
      HEAVEN_DCHECK(bucket_it != shard->buckets.end());
      bucket_it->second.erase(entry.list_pos);
      if (bucket_it->second.empty()) shard->buckets.erase(bucket_it);
      break;
    }
    case EvictionPolicy::kSizeAware:
      shard->by_size.erase({entry.size_bytes, entry.accessed_seq, id});
      break;
  }
}

void SuperTileCache::TouchLocked(Shard* shard, SuperTileId id, Entry* entry) {
  const uint64_t old_count = entry->access_count;
  const uint64_t old_seq = entry->accessed_seq;
  entry->access_count += 1;
  entry->accessed_seq = ++shard->seq;
  switch (options_.policy) {
    case EvictionPolicy::kLru:
      // Most recent → back of the list; the iterator stays valid.
      shard->order.splice(shard->order.end(), shard->order, entry->list_pos);
      break;
    case EvictionPolicy::kFifo:
      break;  // access never changes FIFO order
    case EvictionPolicy::kLfu: {
      auto bucket_it = shard->buckets.find(old_count);
      HEAVEN_DCHECK(bucket_it != shard->buckets.end());
      bucket_it->second.erase(entry->list_pos);
      if (bucket_it->second.empty()) shard->buckets.erase(bucket_it);
      std::list<SuperTileId>& bucket = shard->buckets[entry->access_count];
      bucket.push_back(id);
      entry->list_pos = std::prev(bucket.end());
      break;
    }
    case EvictionPolicy::kSizeAware:
      shard->by_size.erase({entry->size_bytes, old_seq, id});
      shard->by_size.insert({entry->size_bytes, entry->accessed_seq, id});
      break;
  }
}

void SuperTileCache::EvictOneLocked(Shard* shard) {
  HEAVEN_DCHECK(!shard->entries.empty());
  SuperTileId victim = 0;
  switch (options_.policy) {
    case EvictionPolicy::kLru:
    case EvictionPolicy::kFifo:
      victim = shard->order.front();
      break;
    case EvictionPolicy::kLfu:
      // Lowest frequency bucket; its front is the least recently used of
      // the bucket (bucket lists are appended in access order).
      victim = shard->buckets.begin()->second.front();
      break;
    case EvictionPolicy::kSizeAware:
      victim = std::get<2>(*shard->by_size.begin());
      break;
  }
  auto it = shard->entries.find(victim);
  HEAVEN_DCHECK(it != shard->entries.end());
  shard->bytes -= it->second.size_bytes;
  UnlinkLocked(shard, victim, it->second);
  shard->entries.erase(it);
  if (stats_ != nullptr) stats_->Record(Ticker::kCacheEvictions);
}

void SuperTileCache::Insert(SuperTileId id,
                            std::shared_ptr<const SuperTile> super_tile,
                            uint64_t size_bytes, bool prefetched) {
  Shard& shard = ShardFor(id);
  if (size_bytes > shard.capacity_bytes) return;  // not admissible
  // analyze: wallclock(lock-wait histogram measures real contention)
  const auto wait_begin = std::chrono::steady_clock::now();
  MutexLock lock(shard.mu);
  if (stats_ != nullptr) {
    stats_->RecordHistogram(
        HistogramKind::kCacheLockWaitSeconds,
        // analyze: wallclock(lock-wait histogram measures real contention)
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wait_begin)
            .count());
  }
  // The admit span covers only admission work — lock wait is accounted in
  // the histogram above, not conflated into the span.
  ScopedSpan span(stats_ != nullptr ? stats_->trace() : nullptr,
                  "cache.admit");
  span.SetBytes(size_bytes);
  uint64_t preserved_access_count = 0;
  auto it = shard.entries.find(id);
  if (it != shard.entries.end()) {
    // Refresh: the frequency history survives (an LFU favourite stays a
    // favourite), while insertion order and recency are renewed.
    preserved_access_count = it->second.access_count;
    shard.bytes -= it->second.size_bytes;
    UnlinkLocked(&shard, id, it->second);
    shard.entries.erase(it);
  }
  while (shard.bytes + size_bytes > shard.capacity_bytes &&
         !shard.entries.empty()) {
    EvictOneLocked(&shard);
  }
  Entry entry;
  entry.super_tile = std::move(super_tile);
  entry.size_bytes = size_bytes;
  entry.access_count = preserved_access_count;
  entry.inserted_seq = ++shard.seq;
  entry.accessed_seq = entry.inserted_seq;
  entry.prefetched = prefetched;
  shard.bytes += size_bytes;
  auto [pos, inserted] = shard.entries.emplace(id, std::move(entry));
  HEAVEN_DCHECK(inserted);
  LinkLocked(&shard, id, &pos->second);
  if (stats_ != nullptr) {
    stats_->Record(Ticker::kCacheBytesAdmitted, size_bytes);
  }
}

std::shared_ptr<const SuperTile> SuperTileCache::Lookup(SuperTileId id) {
  Shard& shard = ShardFor(id);
  MutexLock lock(shard.mu);
  auto it = shard.entries.find(id);
  if (it == shard.entries.end()) {
    if (stats_ != nullptr) {
      stats_->Record(Ticker::kCacheMisses);
      stats_->RecordHistogram(HistogramKind::kCacheLookupBytes, 0.0);
    }
    return nullptr;
  }
  TouchLocked(&shard, id, &it->second);
  if (stats_ != nullptr) {
    if (it->second.prefetched) stats_->Record(Ticker::kPrefetchUseful);
    stats_->Record(Ticker::kCacheHits);
    stats_->RecordHistogram(HistogramKind::kCacheLookupBytes,
                            static_cast<double>(it->second.size_bytes));
  }
  it->second.prefetched = false;
  return it->second.super_tile;
}

bool SuperTileCache::Contains(SuperTileId id) const {
  const Shard& shard = ShardFor(id);
  MutexLock lock(shard.mu);
  return shard.entries.count(id) > 0;
}

void SuperTileCache::Erase(SuperTileId id) {
  Shard& shard = ShardFor(id);
  MutexLock lock(shard.mu);
  auto it = shard.entries.find(id);
  if (it == shard.entries.end()) return;
  shard.bytes -= it->second.size_bytes;
  UnlinkLocked(&shard, id, it->second);
  shard.entries.erase(it);
}

void SuperTileCache::Clear() {
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    shard->entries.clear();
    shard->order.clear();
    shard->buckets.clear();
    shard->by_size.clear();
    shard->bytes = 0;
  }
}

uint64_t SuperTileCache::size_bytes() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    total += shard->bytes;
  }
  return total;
}

size_t SuperTileCache::entry_count() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    total += shard->entries.size();
  }
  return total;
}

SuperTileCache::ShardStats SuperTileCache::ShardStatsAt(size_t shard) const {
  ShardStats stats;
  if (shard >= shards_.size()) return stats;
  const Shard& s = *shards_[shard];
  MutexLock lock(s.mu);
  stats.bytes = s.bytes;
  stats.capacity_bytes = s.capacity_bytes;
  stats.entries = s.entries.size();
  return stats;
}

std::vector<SuperTileCache::ShardStats> SuperTileCache::ShardStatsSnapshot()
    const {
  std::vector<ShardStats> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    ShardStats stats;
    stats.bytes = shard->bytes;
    stats.capacity_bytes = shard->capacity_bytes;
    stats.entries = shard->entries.size();
    out.push_back(stats);
  }
  return out;
}

}  // namespace heaven
