#ifndef HEAVEN_COMMON_VERSIONED_H_
#define HEAVEN_COMMON_VERSIONED_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <utility>

#include "common/thread_annotations.h"

namespace heaven {

/// Book-keeping for retired snapshot versions under epoch-based
/// reclamation. A publisher that replaces the current version hands the
/// displaced one to Retire(); it stays here (keeping the object alive)
/// until every reader that pinned it has dropped its reference, at which
/// point ReclaimQuiescent() frees it. Readers pin a version simply by
/// holding the shared_ptr they acquired — the epoch a reader lives in IS
/// the reference count, so there is no per-reader registration and no
/// grace-period bookkeeping on the hot path.
///
/// Type-erased (shared_ptr<const void>) so one implementation serves every
/// VersionedState<T> instantiation.
class RetiredVersions {
 public:
  /// Parks a displaced version under its version number.
  void Retire(std::shared_ptr<const void> version, uint64_t number);

  /// Frees every retired version no reader can still see (use_count has
  /// dropped to this list's own reference). Returns how many were freed.
  size_t ReclaimQuiescent();

  /// Retired versions still pinned by at least one reader (or not yet
  /// swept). Backs the `snapshot.retired_pending` gauge.
  size_t pending() const;

  /// Smallest version number still parked here; 0 when none are.
  uint64_t oldest_pending() const;

  uint64_t reclaimed_total() const;

 private:
  mutable Mutex mu_;  // analyze: leaf-lock
  std::deque<std::pair<std::shared_ptr<const void>, uint64_t>> retired_
      GUARDED_BY(mu_);
  uint64_t reclaimed_total_ GUARDED_BY(mu_) = 0;
};

/// An atomically published, versioned, immutable value — the RCU-style
/// core of HeavenDb's snapshot-isolated read path.
///
/// Readers call Acquire(): one shared_ptr copy that pins the current
/// version for as long as the returned pointer lives. Mutators
/// (externally serialized — HeavenDb publishes under its db_mu_)
/// build a fresh T and install it with Publish(): a single pointer swap,
/// after which new readers see the new version while in-flight readers
/// keep the one they pinned. The displaced version moves to a retired list
/// and is reclaimed once its last reader drops out (epoch reclamation by
/// reference count — see RetiredVersions).
template <typename T>
class VersionedState {
 public:
  using Ptr = std::shared_ptr<const T>;

  VersionedState() = default;
  VersionedState(const VersionedState&) = delete;
  VersionedState& operator=(const VersionedState&) = delete;

  /// Pins and returns the current version: a shared_ptr copy under a
  /// leaf mutex held for a few instructions. Never null after the first
  /// Publish.
  Ptr Acquire() const {
    MutexLock lock(ptr_mu_);
    return current_;
  }

  /// Installs `next` as the current version and retires the displaced
  /// one. Callers serialize publications themselves. Returns the new
  /// version number (monotonic from 1).
  uint64_t Publish(Ptr next) {
    const uint64_t number =
        version_.fetch_add(1, std::memory_order_acq_rel) + 1;
    Ptr prev;
    {
      MutexLock lock(ptr_mu_);
      prev = std::move(current_);
      current_ = std::move(next);
    }
    if (prev != nullptr) retired_.Retire(std::move(prev), number - 1);
    retired_.ReclaimQuiescent();
    return number;
  }

  /// Number of the currently published version (0 before any Publish).
  uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  /// Retired versions still awaiting reclamation.
  size_t retired_pending() const { return retired_.pending(); }

  /// How many versions the oldest still-pinned retired snapshot lags the
  /// current one (0 when nothing is retired).
  uint64_t age_versions() const {
    const uint64_t oldest = retired_.oldest_pending();
    const uint64_t current = version();
    return oldest == 0 || current < oldest ? 0 : current - oldest;
  }

  uint64_t reclaimed_total() const { return retired_.reclaimed_total(); }

 private:
  /// A plain mutex, not std::atomic<shared_ptr>: libstdc++ 12's
  /// _Sp_atomic releases its internal lock with a relaxed store, which
  /// ThreadSanitizer reports as a race between Acquire and Publish.
  mutable Mutex ptr_mu_;  // analyze: leaf-lock
  Ptr current_ GUARDED_BY(ptr_mu_);
  std::atomic<uint64_t> version_{0};
  RetiredVersions retired_;
};

/// A sharded ordered map whose shards are copied on write only while a
/// published snapshot still shares them. Mutators (externally serialized)
/// edit through MutableShard(), which clones a shard exactly when its
/// use_count shows an outstanding View; Snapshot() captures all shards as
/// O(kNumShards) shared_ptr copies. Publishing a new version after k
/// touched keys therefore costs O(k + shards) — O(delta), not O(n) — and
/// untouched shards stay physically shared across versions.
template <typename K, typename V, size_t kNumShards = 16>
class CowShardedMap {
  static_assert((kNumShards & (kNumShards - 1)) == 0,
                "shard count must be a power of two");

 public:
  using Shard = std::map<K, V>;

  /// Immutable view over one capture of the map. Cheap to copy; safe to
  /// read from any thread without synchronization.
  class View {
   public:
    const V* Find(const K& key) const {
      const Shard& shard = *shards_[ShardIndex(key)];
      const auto it = shard.find(key);
      return it == shard.end() ? nullptr : &it->second;
    }

    size_t size() const {
      size_t n = 0;
      for (const auto& shard : shards_) n += shard->size();
      return n;
    }

    /// Visits every (key, value) in shard-major order. NOT globally
    /// key-ordered — callers needing a deterministic order sort.
    template <typename Fn>
    void ForEach(Fn&& fn) const {
      for (const auto& shard : shards_) {
        for (const auto& [key, value] : *shard) fn(key, value);
      }
    }

   private:
    friend class CowShardedMap;
    std::array<std::shared_ptr<const Shard>, kNumShards> shards_;
  };

  CowShardedMap() {
    for (auto& shard : shards_) shard = std::make_shared<Shard>();
  }

  void InsertOrAssign(const K& key, V value) {
    (*MutableShard(ShardIndex(key)))[key] = std::move(value);
  }

  bool Erase(const K& key) {
    const size_t idx = ShardIndex(key);
    if (shards_[idx]->find(key) == shards_[idx]->end()) return false;
    return MutableShard(idx)->erase(key) > 0;
  }

  void Clear() {
    for (auto& shard : shards_) shard = std::make_shared<Shard>();
  }

  /// Resets the map to the contents of `view`, sharing its shards: as
  /// after Snapshot(), a write clones every shard a view still holds.
  void Assign(const View& view) {
    for (size_t i = 0; i < kNumShards; ++i) {
      shards_[i] = std::const_pointer_cast<Shard>(view.shards_[i]);
    }
  }

  const V* Find(const K& key) const {
    const Shard& shard = *shards_[ShardIndex(key)];
    const auto it = shard.find(key);
    return it == shard.end() ? nullptr : &it->second;
  }

  /// Mutable access; clones the key's shard when a View still shares it.
  V* FindMutable(const K& key) {
    const size_t idx = ShardIndex(key);
    if (shards_[idx]->find(key) == shards_[idx]->end()) return nullptr;
    Shard* shard = MutableShard(idx);
    const auto it = shard->find(key);
    return it == shard->end() ? nullptr : &it->second;
  }

  size_t size() const {
    size_t n = 0;
    for (const auto& shard : shards_) n += shard->size();
    return n;
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& shard : shards_) {
      for (const auto& [key, value] : *shard) fn(key, value);
    }
  }

  View Snapshot() const {
    View view;
    for (size_t i = 0; i < kNumShards; ++i) view.shards_[i] = shards_[i];
    return view;
  }

 private:
  static size_t ShardIndex(const K& key) {
    return std::hash<K>{}(key) & (kNumShards - 1);
  }

  Shard* MutableShard(size_t idx) {
    std::shared_ptr<Shard>& shard = shards_[idx];
    if (shard.use_count() > 1) shard = std::make_shared<Shard>(*shard);
    return shard.get();
  }

  std::array<std::shared_ptr<Shard>, kNumShards> shards_;
};

}  // namespace heaven

#endif  // HEAVEN_COMMON_VERSIONED_H_
