// Fuzz surface: the three container decoders of the super-tile registry —
// SuperTile::Deserialize (tape container with CRC framing and compressed
// tile payloads), DeserializeSuperTileMetas (catalog registry image,
// format v3; older images are Corruption) and SuperTileIndex::Deserialize (per-container bitmap
// index blob). The first input byte selects the decoder so libFuzzer can
// keep per-surface coverage separate; the rest is the image.
#include <cstdint>
#include <string>
#include <string_view>

#include "heaven/bitmap_index.h"
#include "heaven/super_tile.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  const uint8_t selector = data[0] % 3;
  const std::string_view image(reinterpret_cast<const char*>(data + 1),
                               size - 1);
  switch (selector) {
    case 0: {
      heaven::Result<heaven::SuperTile> tile =
          heaven::SuperTile::Deserialize(image);
      if (tile.ok()) {
        // Accepted containers re-serialize into a decodable image.
        if (!heaven::SuperTile::Deserialize(tile->Serialize()).ok()) {
          __builtin_trap();
        }
      }
      break;
    }
    case 1: {
      heaven::Result<std::vector<heaven::SuperTileMeta>> metas =
          heaven::DeserializeSuperTileMetas(image);
      if (metas.ok()) {
        const std::string encoded = heaven::SerializeSuperTileMetas(*metas);
        if (!heaven::DeserializeSuperTileMetas(encoded).ok()) {
          __builtin_trap();
        }
      }
      break;
    }
    case 2: {
      heaven::Result<heaven::SuperTileIndex> index =
          heaven::SuperTileIndex::Deserialize(image);
      if (index.ok()) {
        if (!heaven::SuperTileIndex::Deserialize(index->Serialize()).ok()) {
          __builtin_trap();
        }
      }
      break;
    }
  }
  return 0;
}
