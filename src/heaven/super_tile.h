#ifndef HEAVEN_HEAVEN_SUPER_TILE_H_
#define HEAVEN_HEAVEN_SUPER_TILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "array/compression.h"
#include "array/mdd.h"
#include "array/tile.h"
#include "common/status.h"

namespace heaven {

class SuperTileIndex;  // heaven/bitmap_index.h

/// A super-tile: the unit of tertiary-storage transfer. Database tiles are
/// far too small for tape (every access would be dominated by positioning),
/// whole objects are far too large; the super-tile groups spatially
/// adjacent tiles into a container sized for the drive's cost profile.
///
/// The serialized container is self-describing (magic, object metadata,
/// tile directory, payloads, CRC) so a super-tile written to tape or into
/// an HSM file can be interpreted without the database catalog — this is
/// also what makes the decoupled export path safe.
class SuperTile {
 public:
  SuperTile() = default;
  SuperTile(SuperTileId id, ObjectId object_id, CellType cell_type)
      : id_(id), object_id_(object_id), cell_type_(cell_type) {}

  SuperTileId id() const { return id_; }
  ObjectId object_id() const { return object_id_; }
  CellType cell_type() const { return cell_type_; }

  /// Adds a tile; all tiles must share the super-tile's cell type.
  Status AddTile(TileId tile_id, Tile tile);

  size_t tile_count() const { return tiles_.size(); }
  const std::vector<TileId>& tile_ids() const { return tile_ids_; }

  /// The tile with the given id; NotFound if absent.
  Result<const Tile*> FindTile(TileId tile_id) const;

  const std::vector<Tile>& tiles() const { return tiles_; }

  /// Bounding hull over all member tile domains.
  Result<MdInterval> Hull() const;

  /// Total payload bytes (sum of member tile buffers).
  uint64_t PayloadBytes() const;

  /// Serializes to the self-describing container format. Tile payloads
  /// are compressed with `codec` (recorded per tile in the container).
  std::string Serialize(Compression codec = Compression::kNone) const;

  /// Parses a container; validates magic and CRC.
  static Result<SuperTile> Deserialize(std::string_view data);

 private:
  SuperTileId id_ = 0;
  ObjectId object_id_ = 0;
  CellType cell_type_ = CellType::kChar;
  std::vector<TileId> tile_ids_;
  std::vector<Tile> tiles_;
};

/// Registry entry describing where a super-tile lives on tertiary storage.
struct SuperTileMeta {
  SuperTileId id = 0;
  ObjectId object_id = 0;
  uint32_t medium = 0;
  uint64_t offset = 0;       // byte offset of the container on the medium
  uint64_t size_bytes = 0;   // container size
  /// CRC32C of the whole serialized container, verified against the bytes
  /// coming back from tape on every fetch (end-to-end bit-rot detection).
  uint32_t crc32c = 0;
  MdInterval hull;
  std::vector<TileId> tile_ids;
  /// Hierarchical bitmap index built over the container at export time;
  /// null for objects exported before the index existed (or with
  /// enable_index off) — readers must treat absence as "fetch
  /// everything". Immutable once built and shared across registry and
  /// snapshot copies, so consulting it never takes a lock.
  std::shared_ptr<const SuperTileIndex> index;
};

/// Serialization of the registry (persisted as a catalog section). Only
/// the current (v3) format decodes; older images are Corruption.
std::string SerializeSuperTileMetas(const std::vector<SuperTileMeta>& metas);
Result<std::vector<SuperTileMeta>> DeserializeSuperTileMetas(
    std::string_view image);

}  // namespace heaven

#endif  // HEAVEN_HEAVEN_SUPER_TILE_H_
