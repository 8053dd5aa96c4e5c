#include "heaven/super_tile.h"

#include <limits>
#include <optional>

#include "common/coding.h"
#include "common/logging.h"
#include "heaven/bitmap_index.h"
#include "storage/serialize.h"

namespace heaven {

namespace {
constexpr uint64_t kSuperTileMagic = 0x48454156454e5354ULL;  // "HEAVENST"
}  // namespace

Status SuperTile::AddTile(TileId tile_id, Tile tile) {
  if (tile.cell_type() != cell_type_) {
    return Status::InvalidArgument("tile cell type mismatch in super-tile");
  }
  tile_ids_.push_back(tile_id);
  tiles_.push_back(std::move(tile));
  return Status::Ok();
}

Result<const Tile*> SuperTile::FindTile(TileId tile_id) const {
  for (size_t i = 0; i < tile_ids_.size(); ++i) {
    if (tile_ids_[i] == tile_id) return &tiles_[i];
  }
  return Status::NotFound("tile " + std::to_string(tile_id) +
                          " not in super-tile " + std::to_string(id_));
}

Result<MdInterval> SuperTile::Hull() const {
  if (tiles_.empty()) {
    return Status::FailedPrecondition("empty super-tile has no hull");
  }
  MdInterval hull = tiles_[0].domain();
  for (size_t i = 1; i < tiles_.size(); ++i) {
    hull = hull.Hull(tiles_[i].domain());
  }
  return hull;
}

uint64_t SuperTile::PayloadBytes() const {
  uint64_t total = 0;
  for (const Tile& tile : tiles_) total += tile.size_bytes();
  return total;
}

std::string SuperTile::Serialize(Compression codec) const {
  std::string body;
  PutFixed64(&body, id_);
  PutFixed64(&body, object_id_);
  body.push_back(static_cast<char>(cell_type_));
  PutFixed32(&body, static_cast<uint32_t>(tiles_.size()));
  for (size_t i = 0; i < tiles_.size(); ++i) {
    PutFixed64(&body, tile_ids_[i]);
    EncodeInterval(&body, tiles_[i].domain());
    body.push_back(static_cast<char>(codec));
    PutLengthPrefixed(&body,
                      Compress(codec, tiles_[i].data(), tiles_[i].cell_size()));
  }
  std::string out;
  PutFixed64(&out, kSuperTileMagic);
  PutFixed32(&out, Crc32c(body));
  PutFixed32(&out, static_cast<uint32_t>(body.size()));
  out.append(body);
  return out;
}

Result<SuperTile> SuperTile::Deserialize(std::string_view data) {
  Decoder dec(data);
  uint64_t magic = 0;
  uint32_t crc = 0;
  uint32_t body_size = 0;
  HEAVEN_RETURN_IF_ERROR(dec.GetFixed64(&magic));
  if (magic != kSuperTileMagic) {
    return Status::Corruption("bad super-tile magic");
  }
  HEAVEN_RETURN_IF_ERROR(dec.GetFixed32(&crc));
  HEAVEN_RETURN_IF_ERROR(dec.GetFixed32(&body_size));
  std::string body;
  HEAVEN_RETURN_IF_ERROR(dec.GetRaw(body_size, &body));
  if (Crc32c(body) != crc) {
    return Status::Corruption("super-tile checksum mismatch");
  }

  Decoder body_dec(body);
  uint64_t id = 0;
  uint64_t object_id = 0;
  HEAVEN_RETURN_IF_ERROR(body_dec.GetFixed64(&id));
  HEAVEN_RETURN_IF_ERROR(body_dec.GetFixed64(&object_id));
  std::string type_byte;
  HEAVEN_RETURN_IF_ERROR(body_dec.GetRaw(1, &type_byte));
  // CellTypeSize() CHECK-fails on values outside the enum, so validate the
  // raw byte before the first use.
  if (static_cast<uint8_t>(type_byte[0]) >
      static_cast<uint8_t>(CellType::kDouble)) {
    return Status::Corruption("bad super-tile cell type");
  }
  const CellType cell_type =
      static_cast<CellType>(static_cast<uint8_t>(type_byte[0]));
  SuperTile st(id, object_id, cell_type);
  uint32_t tile_count = 0;
  HEAVEN_RETURN_IF_ERROR(body_dec.GetFixed32(&tile_count));
  for (uint32_t i = 0; i < tile_count; ++i) {
    uint64_t tile_id = 0;
    MdInterval domain;
    std::string compressed;
    HEAVEN_RETURN_IF_ERROR(body_dec.GetFixed64(&tile_id));
    HEAVEN_RETURN_IF_ERROR(DecodeInterval(&body_dec, &domain));
    std::string codec_byte;
    HEAVEN_RETURN_IF_ERROR(body_dec.GetRaw(1, &codec_byte));
    const Compression codec =
        static_cast<Compression>(static_cast<uint8_t>(codec_byte[0]));
    HEAVEN_RETURN_IF_ERROR(body_dec.GetLengthPrefixed(&compressed));
    const std::optional<uint64_t> cells = domain.CheckedCellCount();
    const size_t cell_size = CellTypeSize(cell_type);
    if (!cells.has_value() ||
        *cells > std::numeric_limits<size_t>::max() / cell_size) {
      return Status::Corruption("tile payload size overflows");
    }
    HEAVEN_ASSIGN_OR_RETURN(
        std::string payload,
        Decompress(codec, compressed,
                   static_cast<size_t>(*cells) * cell_size, cell_size));
    HEAVEN_RETURN_IF_ERROR(
        st.AddTile(tile_id, Tile(domain, cell_type, std::move(payload))));
  }
  return st;
}

namespace {
// Registry images start with this tag (a value no meta count can take),
// then the format version. v3 carries the container CRC32C and a
// length-prefixed bitmap-index blob per meta (empty = no index).
constexpr uint64_t kMetaVersionTag = 0xffffffffffffffffULL;
constexpr uint32_t kMetaFormatVersion = 3;
}  // namespace

std::string SerializeSuperTileMetas(const std::vector<SuperTileMeta>& metas) {
  std::string out;
  PutFixed64(&out, kMetaVersionTag);
  PutFixed32(&out, kMetaFormatVersion);
  PutFixed64(&out, metas.size());
  for (const SuperTileMeta& meta : metas) {
    PutFixed64(&out, meta.id);
    PutFixed64(&out, meta.object_id);
    PutFixed32(&out, meta.medium);
    PutFixed64(&out, meta.offset);
    PutFixed64(&out, meta.size_bytes);
    PutFixed32(&out, meta.crc32c);
    EncodeInterval(&out, meta.hull);
    PutFixed32(&out, static_cast<uint32_t>(meta.tile_ids.size()));
    for (TileId tile_id : meta.tile_ids) PutFixed64(&out, tile_id);
    PutLengthPrefixed(&out,
                      meta.index != nullptr ? meta.index->Serialize() : "");
  }
  return out;
}

Result<std::vector<SuperTileMeta>> DeserializeSuperTileMetas(
    std::string_view image) {
  std::vector<SuperTileMeta> metas;
  if (image.empty()) return metas;
  Decoder dec(image);
  uint64_t tag = 0;
  uint32_t version = 0;
  HEAVEN_RETURN_IF_ERROR(dec.GetFixed64(&tag));
  if (tag != kMetaVersionTag) {
    return Status::Corruption("untagged (pre-v3) super-tile registry image");
  }
  HEAVEN_RETURN_IF_ERROR(dec.GetFixed32(&version));
  if (version != kMetaFormatVersion) {
    return Status::Corruption("unsupported super-tile registry version " +
                              std::to_string(version));
  }
  uint64_t count = 0;
  HEAVEN_RETURN_IF_ERROR(dec.GetFixed64(&count));
  // Every meta record occupies at least 40 bytes (its fixed fields plus
  // the tile count); a larger count cannot be encoded in the remaining
  // payload and must not reach reserve().
  if (count > dec.remaining() / 40) {
    return Status::Corruption("super-tile meta count exceeds payload");
  }
  metas.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    SuperTileMeta meta;
    HEAVEN_RETURN_IF_ERROR(dec.GetFixed64(&meta.id));
    HEAVEN_RETURN_IF_ERROR(dec.GetFixed64(&meta.object_id));
    HEAVEN_RETURN_IF_ERROR(dec.GetFixed32(&meta.medium));
    HEAVEN_RETURN_IF_ERROR(dec.GetFixed64(&meta.offset));
    HEAVEN_RETURN_IF_ERROR(dec.GetFixed64(&meta.size_bytes));
    HEAVEN_RETURN_IF_ERROR(dec.GetFixed32(&meta.crc32c));
    HEAVEN_RETURN_IF_ERROR(DecodeInterval(&dec, &meta.hull));
    uint32_t tile_count = 0;
    HEAVEN_RETURN_IF_ERROR(dec.GetFixed32(&tile_count));
    // Tile ids are 8 bytes each; bound the count by the remaining payload.
    if (tile_count > dec.remaining() / 8) {
      return Status::Corruption("super-tile tile count exceeds payload");
    }
    meta.tile_ids.reserve(tile_count);
    for (uint32_t t = 0; t < tile_count; ++t) {
      uint64_t tile_id = 0;
      HEAVEN_RETURN_IF_ERROR(dec.GetFixed64(&tile_id));
      meta.tile_ids.push_back(tile_id);
    }
    std::string index_blob;
    HEAVEN_RETURN_IF_ERROR(dec.GetLengthPrefixed(&index_blob));
    if (!index_blob.empty()) {
      HEAVEN_ASSIGN_OR_RETURN(SuperTileIndex index,
                              SuperTileIndex::Deserialize(index_blob));
      meta.index = std::make_shared<const SuperTileIndex>(std::move(index));
    }
    metas.push_back(std::move(meta));
  }
  return metas;
}

}  // namespace heaven
