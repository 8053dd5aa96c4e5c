#ifndef HEAVEN_HEAVEN_DB_SNAPSHOT_H_
#define HEAVEN_HEAVEN_DB_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "array/mdd.h"
#include "array/rtree.h"
#include "common/status.h"
#include "common/versioned.h"
#include "heaven/space_filling_curve.h"
#include "heaven/super_tile.h"

namespace heaven {

/// The super-tile registry as captured inside a DbSnapshot.
using SnapshotRegistry = CowShardedMap<SuperTileId, SuperTileMeta>;
using SnapshotRegistryView = SnapshotRegistry::View;

/// Immutable per-object view inside a DbSnapshot: the object's descriptor
/// and tile descriptors as of the snapshot's version. The spatial tile
/// index is built lazily (first intersection query) and at most once per
/// object version; untouched objects share the same SnapshotObject — and
/// thus the same built index — across snapshot versions.
class SnapshotObject {
 public:
  SnapshotObject(ObjectDescriptor descriptor,
                 std::vector<TileDescriptor> tiles)
      : descriptor_(std::move(descriptor)), tiles_(std::move(tiles)) {}

  SnapshotObject(const SnapshotObject&) = delete;
  SnapshotObject& operator=(const SnapshotObject&) = delete;

  const ObjectDescriptor& descriptor() const { return descriptor_; }
  const std::vector<TileDescriptor>& tiles() const { return tiles_; }

  /// Descriptors of the tiles whose domains intersect `region`, answered
  /// from the lazily built R-tree index. Thread-safe.
  std::vector<TileDescriptor> TilesIntersecting(
      const MdInterval& region) const;

 private:
  struct Index {
    RTree tree;
    std::map<TileId, size_t> by_id;  // tile id -> position in tiles_
  };
  const Index& index() const;

  const ObjectDescriptor descriptor_;
  const std::vector<TileDescriptor> tiles_;
  mutable std::once_flag index_once_;
  mutable std::unique_ptr<Index> index_;
};

/// One immutable, versioned view of HeavenDb's query-relevant metadata:
/// the super-tile registry plus every object's catalog descriptors. Built
/// by mutators under db_mu_ and published through a
/// VersionedState swap; readers pin a snapshot with one shared_ptr copy
/// and then touch no shared mutable state besides the internally
/// synchronized components (cache, statistics, tape library, blobs).
///
/// Untouched objects share their SnapshotObject with the previous version
/// and the registry shares untouched shards (see CowShardedMap), so
/// publishing costs O(changed entries), not O(database).
struct DbSnapshot {
  uint64_t version = 0;
  SnapshotRegistryView registry;
  std::map<ObjectId, std::shared_ptr<const SnapshotObject>> objects;
  std::map<std::string, ObjectId> objects_by_name;
  /// Per-object space-filling-curve tags as of this version, so readers
  /// and tools resolve an object's layout curve without any lock.
  std::map<ObjectId, CurveKind> curves;

  /// The curve `object_id` was inserted with (kZOrder for objects that
  /// predate curve tagging).
  CurveKind ObjectCurve(ObjectId object_id) const {
    const auto it = curves.find(object_id);
    return it != curves.end() ? it->second : CurveKind::kZOrder;
  }

  Result<std::shared_ptr<const SnapshotObject>> GetObject(
      ObjectId object_id) const;
  Result<ObjectDescriptor> FindObject(const std::string& name) const;
  const SuperTileMeta* FindSuperTile(SuperTileId id) const {
    return registry.Find(id);
  }
};

using DbSnapshotPtr = std::shared_ptr<const DbSnapshot>;

/// Every entry of `registry`, ascending by super-tile id (the
/// deterministic order the registry serializes in).
std::vector<SuperTileMeta> SortedRegistry(const SnapshotRegistryView& registry);

}  // namespace heaven

#endif  // HEAVEN_HEAVEN_DB_SNAPSHOT_H_
