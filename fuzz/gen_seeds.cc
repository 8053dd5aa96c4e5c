// Regenerates the binary seed corpora under fuzz/corpus/ using the real
// serializers, so the checked-in seeds always match the current container
// formats. Text corpora (json, rasql) are hand-written and not touched.
//
// Usage: gen_seeds <corpus-root>   (e.g. gen_seeds fuzz/corpus)
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>

#include "common/bitvector.h"
#include "common/coding.h"
#include "common/env.h"
#include "heaven/bitmap_index.h"
#include "heaven/export_journal.h"
#include "heaven/super_tile.h"

namespace {

using namespace heaven;  // NOLINT — seed tool, brevity over style

void WriteSeed(const std::filesystem::path& dir, const std::string& name,
               const std::string& data) {
  std::filesystem::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  std::printf("  %s/%s (%zu bytes)\n", dir.string().c_str(), name.c_str(),
              data.size());
}

MdInterval Box(int64_t lo0, int64_t hi0, int64_t lo1, int64_t hi1) {
  return MdInterval(MdPoint({lo0, lo1}), MdPoint({hi0, hi1}));
}

Tile PatternTile(const MdInterval& domain, CellType type) {
  Tile tile(domain, type);
  std::string& data = tile.mutable_data();
  // Half zeros (so RLE and the nonzero masks both have runs), half ramp.
  for (size_t i = data.size() / 2; i < data.size(); ++i) {
    data[i] = static_cast<char>(i % 251);
  }
  return tile;
}

SuperTile MakeSuperTile() {
  SuperTile st(/*id=*/42, /*object_id=*/7, CellType::kShort);
  (void)st.AddTile(1, PatternTile(Box(0, 7, 0, 7), CellType::kShort));
  (void)st.AddTile(2, PatternTile(Box(0, 7, 8, 15), CellType::kShort));
  return st;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root>\n", argv[0]);
    return 2;
  }
  const std::filesystem::path root = argv[1];

  // --- bitvector: framed WahBitVector images -------------------------
  {
    WahBitVector empty;
    std::string image;
    empty.Serialize(&image);
    WriteSeed(root / "bitvector", "empty.bin", image);

    WahBitVector mixed;
    for (int i = 0; i < 100; ++i) mixed.Append(i % 3 == 0);
    image.clear();
    mixed.Serialize(&image);
    WriteSeed(root / "bitvector", "mixed.bin", image);

    WahBitVector runs;
    runs.AppendRun(false, 10'000);
    runs.AppendRun(true, 5'000);
    runs.Append(true);
    image.clear();
    runs.Serialize(&image);
    WriteSeed(root / "bitvector", "runs.bin", image);
  }

  // --- registry: selector byte + container / registry / index images -
  {
    const SuperTile st = MakeSuperTile();
    WriteSeed(root / "registry", "supertile_none.bin",
              std::string(1, '\x00') + st.Serialize(Compression::kNone));
    WriteSeed(root / "registry", "supertile_rle.bin",
              std::string(1, '\x00') + st.Serialize(Compression::kRle));
    WriteSeed(
        root / "registry", "supertile_delta.bin",
        std::string(1, '\x00') + st.Serialize(Compression::kDeltaRle));

    const SuperTileIndex index = SuperTileIndex::BuildFrom(st);
    WriteSeed(root / "registry", "index.bin",
              std::string(1, '\x02') + index.Serialize());

    SuperTileMeta meta;
    meta.id = 42;
    meta.object_id = 7;
    meta.medium = 3;
    meta.offset = 1024;
    meta.size_bytes = 4096;
    meta.crc32c = 0xdeadbeef;
    meta.hull = Box(0, 7, 0, 15);
    meta.tile_ids = {1, 2};
    meta.index = std::make_shared<const SuperTileIndex>(index);
    SuperTileMeta bare;
    bare.id = 43;
    bare.object_id = 7;
    bare.hull = Box(8, 15, 0, 15);
    bare.tile_ids = {3};
    WriteSeed(root / "registry", "metas_v3.bin",
              std::string(1, '\x01') +
                  SerializeSuperTileMetas({meta, bare}));
  }

  // --- export_journal: [u16 side_len][side image][log image] ---------
  {
    const auto seed = [](std::string_view side, std::string_view log) {
      std::string input(1, static_cast<char>(side.size() & 0xff));
      input.push_back(static_cast<char>(side.size() >> 8));
      return input.append(side).append(log);
    };
    MemEnv env;
    std::string before_close;
    std::string after_close;
    {
      // Two queued exports, the first one's intent and close (which
      // rewrites the journal to the second's kPending), then the second's
      // intent.
      auto journal = ExportJournal::Open(&env, "j");
      (void)(*journal)->LogPending(7);
      (void)(*journal)->LogPending(8);
      (void)(*journal)->LogIntent(7);
      before_close = (*env.OpenFile("j"))->ReadAll().value();
      (void)(*journal)->LogCommitted(7);
      after_close = (*env.OpenFile("j"))->ReadAll().value();
      (void)(*journal)->LogIntent(8);
    }
    const std::string image = (*env.OpenFile("j"))->ReadAll().value();
    WriteSeed(root / "export_journal", "committed.bin", seed("", image));
    // A torn tail: the same image with the last frame cut mid-payload.
    WriteSeed(root / "export_journal", "torn.bin",
              seed("", image.substr(0, image.size() - 5)));
    // The close of 7 cut while overwriting the log: its side image is
    // whole, the log is half of that image.
    const std::string side = Framed(after_close);
    WriteSeed(root / "export_journal", "interrupted_close.bin",
              seed(side, after_close.substr(0, after_close.size() / 2)));
    // ... and cut while writing the side image: the log is untouched.
    WriteSeed(root / "export_journal", "torn_side_image.bin",
              seed(side.substr(0, side.size() - 3), before_close));
  }

  return 0;
}
