// Fuzz surface: ExportJournal::Open replay over an arbitrary on-disk
// image (via MemEnv). Open must never crash: it scans CRC-framed records,
// replays them, truncates the torn tail, and the journal must stay
// appendable and re-openable afterwards.
#include <cstdint>
#include <set>
#include <string>
#include <string_view>

#include "common/env.h"
#include "heaven/export_journal.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  heaven::MemEnv env;
  const std::string path = "journal";
  {
    heaven::Result<std::unique_ptr<heaven::File>> file = env.OpenFile(path);
    if (!file.ok()) return 0;
    const std::string_view image(reinterpret_cast<const char*>(data), size);
    if (!(*file)->WriteAt(0, image).ok()) return 0;
  }

  heaven::Result<std::unique_ptr<heaven::ExportJournal>> journal =
      heaven::ExportJournal::Open(&env, path);
  if (!journal.ok()) return 0;
  const std::set<heaven::ObjectId> pending = (*journal)->pending();

  // The journal must stay writable after replaying any prefix, and a
  // reopen must see the replayed state plus the fresh intent.
  if (!(*journal)->LogIntent(/*object_id=*/7).ok()) return 0;
  heaven::Result<std::unique_ptr<heaven::ExportJournal>> reopened =
      heaven::ExportJournal::Open(&env, path);
  if (!reopened.ok()) __builtin_trap();
  if (!(*reopened)->intent_open() || (*reopened)->pending() != pending) {
    __builtin_trap();
  }
  return 0;
}
