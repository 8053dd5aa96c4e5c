// Fuzz surface: ExportJournal::Open replay over an arbitrary on-disk log
// plus an arbitrary `.rewrite` side image of an interrupted close (via
// MemEnv). Open must never crash: it rolls the side image forward, scans
// CRC-framed records, replays them and truncates the torn tail. The roll
// forward and the truncation must be final — a second open sees the same
// state — and the journal must stay appendable afterwards.
//
// Input layout: [u16 side_len][side image: side_len bytes][log image]; a
// zero side_len means no side file.
#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>

#include "common/env.h"
#include "heaven/export_journal.h"

namespace {

bool WriteFile(heaven::Env* env, const std::string& path,
               std::string_view contents) {
  heaven::Result<std::unique_ptr<heaven::File>> file = env->OpenFile(path);
  return file.ok() && (*file)->WriteAt(0, contents).ok();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view input(reinterpret_cast<const char*>(data), size);
  const size_t side_len = size >= 2 ? data[0] | (data[1] << 8) : 0;
  const std::string_view rest = input.substr(std::min<size_t>(size, 2));
  const std::string_view side = rest.substr(0, side_len);
  const std::string_view log = rest.substr(side.size());

  heaven::MemEnv env;
  const std::string path = "journal";
  if (!WriteFile(&env, path, log)) return 0;
  if (!side.empty() && !WriteFile(&env, path + ".rewrite", side)) return 0;

  std::set<heaven::ObjectId> pending;
  bool intent_open = false;
  {
    heaven::Result<std::unique_ptr<heaven::ExportJournal>> journal =
        heaven::ExportJournal::Open(&env, path);
    if (!journal.ok()) return 0;
    pending = (*journal)->pending();
    intent_open = (*journal)->intent_open();
  }
  if (env.FileExists(path + ".rewrite")) __builtin_trap();

  heaven::Result<std::unique_ptr<heaven::ExportJournal>> reopened =
      heaven::ExportJournal::Open(&env, path);
  if (!reopened.ok()) __builtin_trap();
  if ((*reopened)->pending() != pending ||
      (*reopened)->intent_open() != intent_open) {
    __builtin_trap();
  }

  // The journal must stay writable after replaying any prefix, and a
  // reopen must see the replayed state plus the fresh intent.
  if (!(*reopened)->LogIntent(/*object_id=*/7).ok()) return 0;
  reopened = heaven::ExportJournal::Open(&env, path);
  if (!reopened.ok()) __builtin_trap();
  if (!(*reopened)->intent_open() || (*reopened)->pending() != pending) {
    __builtin_trap();
  }
  return 0;
}
