#include "heaven/db_snapshot.h"

#include <algorithm>

namespace heaven {

const SnapshotObject::Index& SnapshotObject::index() const {
  std::call_once(index_once_, [this] {
    auto index = std::make_unique<Index>();
    for (size_t i = 0; i < tiles_.size(); ++i) {
      index->tree.Insert(tiles_[i].domain, tiles_[i].tile_id);
      index->by_id.emplace(tiles_[i].tile_id, i);
    }
    index_ = std::move(index);
  });
  return *index_;
}

std::vector<TileDescriptor> SnapshotObject::TilesIntersecting(
    const MdInterval& region) const {
  const Index& idx = index();
  std::vector<TileDescriptor> tiles;
  for (TileId tile_id : idx.tree.Search(region)) {
    const auto it = idx.by_id.find(tile_id);
    if (it != idx.by_id.end()) tiles.push_back(tiles_[it->second]);
  }
  return tiles;
}

Result<std::shared_ptr<const SnapshotObject>> DbSnapshot::GetObject(
    ObjectId object_id) const {
  const auto it = objects.find(object_id);
  if (it == objects.end()) {
    return Status::NotFound("object " + std::to_string(object_id));
  }
  return it->second;
}

Result<ObjectDescriptor> DbSnapshot::FindObject(
    const std::string& name) const {
  const auto it = objects_by_name.find(name);
  if (it == objects_by_name.end()) {
    return Status::NotFound("object " + name);
  }
  const auto object_it = objects.find(it->second);
  if (object_it == objects.end()) {
    return Status::NotFound("object " + name);
  }
  return object_it->second->descriptor();
}

std::vector<SuperTileMeta> SortedRegistry(
    const SnapshotRegistryView& registry) {
  std::vector<SuperTileMeta> metas;
  metas.reserve(registry.size());
  registry.ForEach(
      [&](SuperTileId, const SuperTileMeta& meta) { metas.push_back(meta); });
  std::sort(metas.begin(), metas.end(),
            [](const SuperTileMeta& a, const SuperTileMeta& b) {
              return a.id < b.id;
            });
  return metas;
}

}  // namespace heaven
