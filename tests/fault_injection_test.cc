#include "common/fault_injection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/coding.h"
#include "common/env.h"
#include "common/logging.h"
#include "heaven/export_journal.h"
#include "heaven/heaven_db.h"
#include "tertiary/hsm_system.h"

namespace heaven {
namespace {

MddArray Ramp(const MdInterval& domain, CellType type = CellType::kFloat) {
  MddArray data(domain, type);
  data.Generate([](const MdPoint& p) {
    double v = 0.0;
    for (size_t d = 0; d < p.dims(); ++d) {
      v = v * 100.0 + static_cast<double>(p[d] % 50);
    }
    return v;
  });
  return data;
}

// ---------------------------------------------------------------------------
// FaultInjector unit behaviour.
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, SameSeedReplaysIdenticalSchedule) {
  FaultPolicy policy;
  policy.enabled = true;
  policy.seed = 1234;
  policy.tape_read_error_p = 0.3;
  policy.bit_rot_p = 0.2;
  FaultInjector a(policy, nullptr);
  FaultInjector b(policy, nullptr);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.ShouldFail(FaultSite::kTapeRead),
              b.ShouldFail(FaultSite::kTapeRead));
    EXPECT_EQ(a.Draw(FaultSite::kBitRot, 97), b.Draw(FaultSite::kBitRot, 97));
  }
  EXPECT_EQ(a.injected(), b.injected());
  EXPECT_GT(a.injected(), 0u);
}

TEST(FaultInjectorTest, SitesDrawFromIndependentStreams) {
  // Consuming one site's stream must not shift another site's schedule.
  FaultPolicy policy;
  policy.enabled = true;
  policy.seed = 99;
  policy.tape_read_error_p = 0.25;
  policy.tape_write_error_p = 0.25;
  FaultInjector plain(policy, nullptr);
  FaultInjector noisy(policy, nullptr);
  std::vector<bool> plain_seq, noisy_seq;
  for (int i = 0; i < 200; ++i) {
    plain_seq.push_back(plain.ShouldFail(FaultSite::kTapeRead));
    noisy.ShouldFail(FaultSite::kTapeWrite);  // extra traffic on another site
    noisy_seq.push_back(noisy.ShouldFail(FaultSite::kTapeRead));
  }
  EXPECT_EQ(plain_seq, noisy_seq);
}

TEST(FaultInjectorTest, MaxFaultsCapsInjection) {
  FaultPolicy policy;
  policy.enabled = true;
  policy.seed = 1;
  policy.max_faults = 3;
  policy.tape_read_error_p = 1.0;
  FaultInjector injector(policy, nullptr);
  int fired = 0;
  for (int i = 0; i < 50; ++i) {
    if (injector.ShouldFail(FaultSite::kTapeRead)) ++fired;
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(injector.injected(), 3u);
}

TEST(FaultInjectorTest, ZeroProbabilityNeverConsultsStream) {
  FaultPolicy policy;
  policy.enabled = true;
  policy.seed = 7;
  FaultInjector injector(policy, nullptr);  // all probabilities zero
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(injector.ShouldFail(FaultSite::kTapeRead));
  }
  EXPECT_EQ(injector.injected(), 0u);
}

TEST(RetryPolicyTest, BackoffChargesSimulatedClock) {
  SimClock clock;
  Statistics stats;
  int calls = 0;
  Status status = RetryTapeOp(RetryPolicy{}, &clock, &stats, [&] {
    ++calls;
    return calls < 3 ? Status::IOError("transient") : Status::Ok();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.Get(Ticker::kTapeRetries), 2u);
  EXPECT_DOUBLE_EQ(clock.Now(), 1.0 + 2.0);  // 1s then 2s backoff
}

TEST(RetryPolicyTest, NonRetryableErrorSurfacesImmediately) {
  SimClock clock;
  Statistics stats;
  int calls = 0;
  Status status = RetryTapeOp(RetryPolicy{}, &clock, &stats, [&] {
    ++calls;
    return Status::Corruption("bad bytes");
  });
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(stats.Get(Ticker::kTapeRetries), 0u);
  EXPECT_DOUBLE_EQ(clock.Now(), 0.0);
}

TEST(FaultInjectionEnvTest, TruncateCountsAgainstTheWriteLimit) {
  MemEnv base;
  FaultPolicy policy;  // every random write fault armed
  policy.enabled = true;
  policy.seed = 3;
  policy.env_write_error_p = 1.0;
  policy.torn_write_p = 1.0;
  FaultInjectionEnv env(&base, policy);
  auto file = env.OpenFile("/f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(base.OpenFile("/f").value()->Append("0123456789").ok());
  // Without a limit a truncate passes and draws from no fault stream.
  ASSERT_TRUE((*file)->Truncate(9).ok());
  EXPECT_EQ(env.injector()->injected(), 0u);

  const uint64_t before = env.writes_issued();
  env.SetWriteLimit(2);
  ASSERT_TRUE((*file)->Truncate(8).ok());   // write 1 of 2
  EXPECT_FALSE((*file)->Truncate(4).ok());  // the cut: it never happened
  EXPECT_FALSE((*file)->Truncate(0).ok());  // after the cut
  EXPECT_EQ(env.writes_issued() - before, 3u);
  EXPECT_EQ(base.GetFileSize("/f").value(), 8u);
  env.ClearWriteLimit();
  EXPECT_EQ(env.injector()->injected(), 0u);
}

TEST(FaultInjectionEnvTest, DeleteCountsAgainstTheWriteLimit) {
  MemEnv base;
  FaultPolicy policy;  // every random write fault armed
  policy.enabled = true;
  policy.seed = 3;
  policy.env_write_error_p = 1.0;
  policy.torn_write_p = 1.0;
  FaultInjectionEnv env(&base, policy);
  for (const char* path : {"/a", "/b", "/c", "/d"}) {
    ASSERT_TRUE(base.OpenFile(path).ok());
  }
  // Without a limit a deletion passes and draws from no fault stream.
  ASSERT_TRUE(env.DeleteFile("/a").ok());
  EXPECT_EQ(env.injector()->injected(), 0u);

  const uint64_t before = env.writes_issued();
  env.SetWriteLimit(2);
  ASSERT_TRUE(env.DeleteFile("/b").ok());   // write 1 of 2
  EXPECT_FALSE(env.DeleteFile("/c").ok());  // the cut: it never happened
  EXPECT_FALSE(env.DeleteFile("/d").ok());  // after the cut
  EXPECT_EQ(env.writes_issued() - before, 3u);
  EXPECT_FALSE(base.FileExists("/b"));
  EXPECT_TRUE(base.FileExists("/c"));
  EXPECT_TRUE(base.FileExists("/d"));
  env.ClearWriteLimit();
  EXPECT_EQ(env.injector()->injected(), 0u);
}

// ---------------------------------------------------------------------------
// Crash-safe file replace.
// ---------------------------------------------------------------------------

// Kill a replace at every write point: after the roll-forward the file
// holds the old or the new image, and the side file is gone.
TEST(FileReplaceTest, KillAtEveryWritePointLeavesTheOldOrTheNewImage) {
  const std::string old_image = "the old image, longer than the new one";
  const std::string new_image = "the new image";
  auto prepare = [&](Env* env) {
    HEAVEN_CHECK(env->OpenFile("/f").value()->WriteAt(0, old_image).ok());
  };
  uint64_t writes = 0;
  {
    MemEnv base;
    FaultInjectionEnv env(&base);
    prepare(&env);
    const uint64_t before = env.writes_issued();
    ASSERT_TRUE(ReplaceFileContents(&env, "/f", new_image).ok());
    writes = env.writes_issued() - before;
    EXPECT_FALSE(env.FileExists("/f.rewrite"));
  }
  ASSERT_GT(writes, 0u);
  std::set<std::string> seen;
  for (uint64_t limit = 1; limit <= writes; ++limit) {
    SCOPED_TRACE("crash after " + std::to_string(limit) + " writes");
    MemEnv base;
    FaultInjectionEnv env(&base);
    prepare(&env);
    env.SetWriteLimit(limit);
    EXPECT_FALSE(ReplaceFileContents(&env, "/f", new_image).ok());
    env.ClearWriteLimit();
    auto image = RecoverFileReplace(&env, "/f");
    ASSERT_TRUE(image.ok()) << image.status().ToString();
    EXPECT_TRUE(*image == old_image || *image == new_image) << *image;
    EXPECT_EQ(env.OpenFile("/f").value()->ReadAll().value(), *image);
    EXPECT_FALSE(env.FileExists("/f.rewrite"));
    seen.insert(*image);
  }
  EXPECT_EQ(seen, std::set<std::string>({old_image, new_image}));
}

// A file appended to after its replace finished keeps its appendix.
TEST(FileReplaceTest, RollForwardKeepsAFileThatBeginsWithTheSideImage) {
  MemEnv env;
  ASSERT_TRUE(ReplaceFileContents(&env, "/f", "image").ok());
  ASSERT_TRUE(env.OpenFile("/f").value()->Append("+appended").ok());
  ASSERT_TRUE(
      env.OpenFile("/f.rewrite").value()->Append(Framed("image")).ok());
  auto contents = RecoverFileReplace(&env, "/f");
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_EQ(*contents, "image+appended");
  EXPECT_EQ(env.OpenFile("/f").value()->ReadAll().value(), "image+appended");
  EXPECT_FALSE(env.FileExists("/f.rewrite"));
}

// ---------------------------------------------------------------------------
// Export journal framing.
// ---------------------------------------------------------------------------

TEST(ExportJournalTest, RecordsSurviveReopen) {
  MemEnv env;
  {
    auto journal = ExportJournal::Open(&env, "/j");
    ASSERT_TRUE(journal.ok());
    EXPECT_FALSE((*journal)->intent_open());
    EXPECT_TRUE((*journal)->pending().empty());
    ASSERT_TRUE((*journal)->LogPending(7).ok());
    ASSERT_TRUE((*journal)->LogIntent(7).ok());
    ASSERT_TRUE((*journal)->LogPending(8).ok());
    // Object 8 stays queued, so the close rewrites rather than truncates.
    ASSERT_TRUE((*journal)->LogCommitted(7).ok());
    ASSERT_TRUE((*journal)->LogIntent(0).ok());
  }
  auto journal = ExportJournal::Open(&env, "/j");
  ASSERT_TRUE(journal.ok());
  EXPECT_TRUE((*journal)->intent_open());
  EXPECT_EQ((*journal)->pending(), std::set<ObjectId>({8}));
}

TEST(ExportJournalTest, ClosingTheLastOpenEntryTruncates) {
  MemEnv env;
  auto journal = ExportJournal::Open(&env, "/j");
  ASSERT_TRUE(journal.ok());
  auto size = [&] { return env.GetFileSize("/j").value(); };
  // Closing nothing writes nothing.
  ASSERT_TRUE((*journal)->LogCommitted(0).ok());
  EXPECT_EQ(size(), 0u);
  // A mutation's intent alone (a reclaim exports no object).
  ASSERT_TRUE((*journal)->LogIntent(0).ok());
  EXPECT_GT(size(), 0u);
  ASSERT_TRUE((*journal)->LogCommitted(0).ok());
  EXPECT_EQ(size(), 0u);
  // A queued export closed by its own mutation.
  ASSERT_TRUE((*journal)->LogPending(5).ok());
  ASSERT_TRUE((*journal)->LogIntent(5).ok());
  ASSERT_TRUE((*journal)->LogCommitted(5).ok());
  EXPECT_EQ(size(), 0u);
  // An export with nothing to write still closes its queue entry.
  ASSERT_TRUE((*journal)->LogPending(6).ok());
  ASSERT_TRUE((*journal)->LogPending(6).ok());
  ASSERT_TRUE((*journal)->LogCommitted(6).ok());
  EXPECT_GT(size(), 0u);  // the second entry of 6 is still queued
  EXPECT_EQ((*journal)->pending(), std::set<ObjectId>({6}));
  ASSERT_TRUE((*journal)->LogCommitted(6).ok());
  EXPECT_EQ(size(), 0u);
  EXPECT_TRUE((*journal)->pending().empty());
}

// Kill a close that leaves queued exports at every write point of its
// rewrite: the reopened journal replays the state before or after the
// close, never less than what stays queued.
TEST(ExportJournalTest, InterruptedRewriteKeepsEveryQueuedExport) {
  constexpr uint64_t kFrame = 17;  // 8-byte header + kind + object id
  auto prepare = [](Env* env) {
    auto journal = ExportJournal::Open(env, "/j");
    HEAVEN_CHECK(journal.ok());
    HEAVEN_CHECK((*journal)->LogPending(1).ok());
    HEAVEN_CHECK((*journal)->LogPending(2).ok());
    HEAVEN_CHECK((*journal)->LogPending(3).ok());
    HEAVEN_CHECK((*journal)->LogIntent(2).ok());
    return std::move(journal).value();
  };
  uint64_t writes = 0;
  {
    MemEnv base;
    FaultInjectionEnv env(&base);
    auto journal = prepare(&env);
    const uint64_t before = env.writes_issued();
    ASSERT_TRUE(journal->LogCommitted(2).ok());
    writes = env.writes_issued() - before;
    EXPECT_EQ(env.GetFileSize("/j").value(), 2 * kFrame);
    EXPECT_FALSE(env.FileExists("/j.rewrite"));
  }
  ASSERT_GT(writes, 0u);
  for (uint64_t limit = 1; limit <= writes + 1; ++limit) {
    SCOPED_TRACE("crash after " + std::to_string(limit) + " writes");
    MemEnv base;
    FaultInjectionEnv env(&base);
    {
      auto journal = prepare(&env);
      env.SetWriteLimit(limit);
      const Status closed = journal->LogCommitted(2);
      env.ClearWriteLimit();
      EXPECT_EQ(closed.ok(), limit > writes);
    }
    auto journal = ExportJournal::Open(&env, "/j");
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    const std::set<ObjectId> pending = (*journal)->pending();
    EXPECT_TRUE(pending == std::set<ObjectId>({1, 3}) ||
                pending == std::set<ObjectId>({1, 2, 3}));
    if (pending.size() == 2) {
      EXPECT_FALSE((*journal)->intent_open());
      EXPECT_EQ(env.GetFileSize("/j").value(), 2 * kFrame);
    }
    EXPECT_FALSE(env.FileExists("/j.rewrite"));
    // The reopened journal keeps working.
    ASSERT_TRUE((*journal)->LogIntent(1).ok());
    ASSERT_TRUE((*journal)->LogCommitted(1).ok());
    EXPECT_EQ((*journal)->pending().count(3), 1u);
  }
}

TEST(ExportJournalTest, TornTailIsDiscardedAndTruncated) {
  MemEnv env;
  {
    auto journal = ExportJournal::Open(&env, "/j");
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->LogPending(1).ok());
    ASSERT_TRUE((*journal)->LogIntent(1).ok());
  }
  auto size = env.GetFileSize("/j");
  ASSERT_TRUE(size.ok());
  {
    // Simulate a crash mid-append: half a frame of garbage at the tail.
    auto file = env.OpenFile("/j");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->WriteAt(*size, "torn-frame-garbage").ok());
  }
  auto journal = ExportJournal::Open(&env, "/j");
  ASSERT_TRUE(journal.ok());
  // The intact prefix only.
  EXPECT_TRUE((*journal)->intent_open());
  EXPECT_EQ((*journal)->pending(), std::set<ObjectId>({1}));
  auto truncated = env.GetFileSize("/j");
  ASSERT_TRUE(truncated.ok());
  EXPECT_EQ(*truncated, *size);  // torn bytes removed from the file
}

TEST(ExportJournalTest, CorruptMiddleRecordStopsTheScan) {
  MemEnv env;
  {
    auto journal = ExportJournal::Open(&env, "/j");
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->LogPending(1).ok());
    ASSERT_TRUE((*journal)->LogPending(2).ok());
    ASSERT_TRUE((*journal)->LogPending(3).ok());
  }
  auto size = env.GetFileSize("/j");
  ASSERT_TRUE(size.ok());
  const uint64_t frame = *size / 3;
  {
    auto file = env.OpenFile("/j");
    ASSERT_TRUE(file.ok());
    std::string byte;
    ASSERT_TRUE((*file)->ReadAt(frame + 9, 1, &byte).ok());
    byte[0] ^= 0x01;  // flip one payload bit of the second record
    ASSERT_TRUE((*file)->WriteAt(frame + 9, byte).ok());
  }
  auto journal = ExportJournal::Open(&env, "/j");
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ((*journal)->pending(), std::set<ObjectId>({1}));
}

// ---------------------------------------------------------------------------
// End-to-end recovery through HeavenDb.
// ---------------------------------------------------------------------------

class FaultDbTest : public ::testing::Test {
 protected:
  void OpenDb(std::function<void(HeavenOptions*)> tweak = nullptr) {
    db_.reset();
    HeavenOptions options;
    options.library.profile = MidTapeProfile();
    options.library.num_drives = 2;
    options.library.num_media = 8;
    options.disk_tile_bytes = 2048;
    options.supertile_bytes = 16 << 10;
    if (tweak) tweak(&options);
    auto db = HeavenDb::Open(env_.get(), "/db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
  }

  void SetUp() override {
    env_ = std::make_unique<MemEnv>();
    OpenDb();
    auto coll = db_->CreateCollection("c");
    ASSERT_TRUE(coll.ok());
    collection_ = coll.value();
  }

  ObjectId Insert(const std::string& name, const MdInterval& domain) {
    auto id = db_->InsertObject(collection_, name, Ramp(domain));
    HEAVEN_CHECK(id.ok()) << id.status().ToString();
    return id.value();
  }

  // Installs a fresh injector on the tape library mid-run, so faults start
  // only after the (clean) export finished.
  void InstallFaults(const FaultPolicy& policy) {
    injector_ = std::make_unique<FaultInjector>(policy, db_->stats());
    db_->library()->SetFaultInjector(injector_.get());
  }

  std::unique_ptr<MemEnv> env_;
  std::unique_ptr<HeavenDb> db_;
  std::unique_ptr<FaultInjector> injector_;
  CollectionId collection_ = 0;
};

TEST_F(FaultDbTest, TransientReadErrorIsRetriedTransparently) {
  const MdInterval domain({0, 0}, {29, 29});
  ObjectId id = Insert("a", domain);
  ASSERT_TRUE(db_->ExportObject(id).ok());
  FaultPolicy policy;
  policy.enabled = true;
  policy.seed = 5;
  policy.max_faults = 1;
  policy.tape_read_error_p = 1.0;
  InstallFaults(policy);
  auto read = db_->ReadObject(id);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), Ramp(domain));
  EXPECT_EQ(db_->stats()->Get(Ticker::kFaultsInjected), 1u);
  EXPECT_EQ(db_->stats()->Get(Ticker::kTapeRetries), 1u);
}

TEST_F(FaultDbTest, RetryExhaustionSurfacesPreciseError) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {19, 19}));
  ASSERT_TRUE(db_->ExportObject(id).ok());
  FaultPolicy policy;
  policy.enabled = true;
  policy.seed = 5;
  policy.tape_read_error_p = 1.0;  // unlimited: every attempt fails
  InstallFaults(policy);
  auto read = db_->ReadObject(id);
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsIOError()) << read.status().ToString();
  EXPECT_NE(read.status().ToString().find("super-tile"), std::string::npos)
      << read.status().ToString();
  // Default policy: 3 attempts for the one container -> 2 retries.
  EXPECT_EQ(db_->stats()->Get(Ticker::kTapeRetries), 2u);
  EXPECT_EQ(db_->stats()->Get(Ticker::kFaultsInjected), 3u);
  // The failure is graceful: clearing the injector makes the same query work.
  db_->library()->SetFaultInjector(nullptr);
  auto retry = db_->ReadObject(id);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
}

TEST_F(FaultDbTest, BitRotCausesExactlyOneRefetch) {
  const MdInterval domain({0, 0}, {19, 19});
  ObjectId id = Insert("a", domain);
  ASSERT_TRUE(db_->ExportObject(id).ok());
  FaultPolicy policy;
  policy.enabled = true;
  policy.seed = 11;
  policy.max_faults = 1;
  policy.bit_rot_p = 1.0;
  InstallFaults(policy);
  auto read = db_->ReadObject(id);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), Ramp(domain));  // re-fetch delivered clean bytes
  EXPECT_EQ(db_->stats()->Get(Ticker::kCrcMismatches), 1u);
  EXPECT_EQ(db_->stats()->Get(Ticker::kFaultsInjected), 1u);
}

TEST_F(FaultDbTest, PersistentCorruptionSurfacesCorruptionStatus) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {19, 19}));
  ASSERT_TRUE(db_->ExportObject(id).ok());
  auto registry = db_->RegistrySnapshot();
  ASSERT_FALSE(registry.empty());
  const SuperTileMeta& meta = registry[0];
  ASSERT_TRUE(db_->library()
                  ->CorruptByteForTesting(meta.medium,
                                          meta.offset + meta.size_bytes / 2)
                  .ok());
  auto read = db_->ReadObject(id);
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsCorruption()) << read.status().ToString();
  // First fetch mismatches, the re-fetch sees the same rotten medium.
  EXPECT_EQ(db_->stats()->Get(Ticker::kCrcMismatches), 2u);
}

TEST_F(FaultDbTest, ForcedDriveFailureFailsOverToSurvivor) {
  const MdInterval domain({0, 0}, {29, 29});
  ObjectId id = Insert("a", domain);
  ASSERT_TRUE(db_->ExportObject(id).ok());
  ASSERT_TRUE(db_->library()->FailDriveForTesting(0).ok());
  EXPECT_EQ(db_->library()->OnlineDrives(), 1u);
  auto read = db_->ReadObject(id);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), Ramp(domain));
  EXPECT_EQ(db_->stats()->Get(Ticker::kTapeDriveFailures), 1u);
}

TEST_F(FaultDbTest, InjectedDriveFailureFailsOverViaRetry) {
  const MdInterval domain({0, 0}, {29, 29});
  ObjectId id = Insert("a", domain);
  ASSERT_TRUE(db_->ExportObject(id).ok());
  FaultPolicy policy;
  policy.enabled = true;
  policy.seed = 21;
  policy.max_faults = 1;
  policy.drive_failure_p = 1.0;
  InstallFaults(policy);
  auto read = db_->ReadObject(id);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), Ramp(domain));
  EXPECT_EQ(db_->library()->OnlineDrives(), 1u);
  EXPECT_EQ(db_->stats()->Get(Ticker::kTapeDriveFailures), 1u);
  EXPECT_GE(db_->stats()->Get(Ticker::kTapeRetries), 1u);
}

TEST_F(FaultDbTest, AllDrivesDeadDegradesGracefully) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {19, 19}));
  ASSERT_TRUE(db_->ExportObject(id).ok());
  ASSERT_TRUE(db_->library()->FailDriveForTesting(0).ok());
  ASSERT_TRUE(db_->library()->FailDriveForTesting(1).ok());
  EXPECT_EQ(db_->library()->OnlineDrives(), 0u);
  auto read = db_->ReadObject(id);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().ToString().find("no online tape drives"),
            std::string::npos)
      << read.status().ToString();
  // Still no crash on repeated use; on-disk objects stay readable.
  const MdInterval disk_domain({0}, {49});
  ObjectId disk_obj = Insert("disk", disk_domain);
  auto disk_read = db_->ReadObject(disk_obj);
  ASSERT_TRUE(disk_read.ok());
  EXPECT_EQ(disk_read.value(), Ramp(disk_domain));
}

TEST_F(FaultDbTest, ExchangeJamIsRetriedAtTapeLevel) {
  // One drive, two cartridges: reading medium 0 after writing medium 1
  // forces an exchange, which jams once and succeeds on retry.
  Statistics stats;
  TapeLibraryOptions options;
  options.profile = MidTapeProfile();
  options.num_drives = 1;
  options.num_media = 2;
  TapeLibrary library(options, &stats);
  auto off = library.Append(0, "payload-on-medium-zero");
  ASSERT_TRUE(off.ok());
  ASSERT_TRUE(library.Append(1, "evicts-medium-zero").ok());
  FaultPolicy policy;
  policy.enabled = true;
  policy.seed = 3;
  policy.max_faults = 1;
  policy.exchange_jam_p = 1.0;
  FaultInjector injector(policy, &stats);
  library.SetFaultInjector(&injector);
  std::string out;
  Status direct = library.ReadAt(0, *off, 22, &out);
  EXPECT_TRUE(direct.IsIOError()) << direct.ToString();  // the jam itself
  Status retried = RetryTapeOp(RetryPolicy{}, library.clock(), &stats, [&] {
    return library.ReadAt(0, *off, 22, &out);
  });
  ASSERT_TRUE(retried.ok()) << retried.ToString();
  EXPECT_EQ(out, "payload-on-medium-zero");
  EXPECT_EQ(stats.Get(Ticker::kFaultsInjected), 1u);
}

TEST_F(FaultDbTest, TctStickyErrorPropagatesAndClears) {
  const MdInterval domain({0, 0}, {29, 29});
  ObjectId id = 0;
  OpenDb([](HeavenOptions* options) {
    options->decoupled_export = true;
    options->fault_policy.enabled = true;
    options->fault_policy.seed = 17;
    options->fault_policy.max_faults = 1;
    options->fault_policy.tape_write_error_p = 1.0;
  });
  auto coll = db_->CreateCollection("c2");
  ASSERT_TRUE(coll.ok());
  auto inserted = db_->InsertObject(*coll, "a", Ramp(domain));
  ASSERT_TRUE(inserted.ok());
  id = *inserted;
  ASSERT_TRUE(db_->ExportObject(id).ok());  // enqueue succeeds
  Status drained = db_->DrainExports();
  ASSERT_FALSE(drained.ok());  // the injected write error stuck
  Status sticky = db_->TctLastError();
  ASSERT_FALSE(sticky.ok());
  EXPECT_EQ(sticky.ToString(), drained.ToString());
  // Further exports are refused with the same diagnosis.
  Status refused = db_->ExportObject(id);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.ToString(), sticky.ToString());
  // Acknowledge and resume: the single fault has burned out, so the
  // re-export succeeds and the data reads back intact.
  db_->ClearTctError();
  EXPECT_TRUE(db_->TctLastError().ok());
  ASSERT_TRUE(db_->ExportObject(id).ok());
  ASSERT_TRUE(db_->DrainExports().ok());
  auto read = db_->ReadObject(id);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), Ramp(domain));
  EXPECT_EQ(db_->stats()->Get(Ticker::kFaultsInjected), 1u);
}

// A failed queued export stays open in the journal until a reopen
// re-drives it; the exports after it must not grow the journal.
TEST_F(FaultDbTest, FailedTctExportKeepsJournalBounded) {
  const MdInterval domain({0, 0}, {19, 19});
  auto tweak = [](HeavenOptions* options) {
    options->decoupled_export = true;
    options->fault_policy.enabled = true;
    options->fault_policy.seed = 17;
    options->fault_policy.max_faults = 1;
    options->fault_policy.tape_write_error_p = 1.0;
  };
  OpenDb(tweak);
  auto coll = db_->CreateCollection("c2");
  ASSERT_TRUE(coll.ok());
  auto failed = db_->InsertObject(*coll, "failed", Ramp(domain));
  ASSERT_TRUE(failed.ok());
  ASSERT_TRUE(db_->ExportObject(*failed).ok());
  ASSERT_FALSE(db_->DrainExports().ok());  // the injected write error
  db_->ClearTctError();
  constexpr uint64_t kFrame = 17;  // one kPending record
  for (int i = 0; i < 20; ++i) {
    auto id = db_->InsertObject(*coll, "o" + std::to_string(i), Ramp(domain));
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(db_->ExportObject(*id).ok());
    ASSERT_TRUE(db_->DrainExports().ok());
    // Only the failed export stays open.
    ASSERT_EQ(env_->GetFileSize("/db/export.journal").value(), kFrame) << i;
  }
  auto on_tape = [&](ObjectId id) {
    for (const TileDescriptor& tile : db_->engine()->catalog()->ListTiles(id)) {
      if (tile.location != TileLocation::kTertiary) return false;
    }
    return true;
  };
  EXPECT_FALSE(on_tape(*failed));
  OpenDb();  // the reopen re-drives the failed export
  ASSERT_TRUE(db_->DrainExports().ok());
  EXPECT_TRUE(on_tape(*failed));
  EXPECT_EQ(env_->GetFileSize("/db/export.journal").value(), 0u);
  auto read = db_->ReadObject(*failed);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, Ramp(domain));
}

TEST_F(FaultDbTest, DisabledPolicyTakesTheExactLegacyPath) {
  // A/B: default options vs. an enabled policy with all-zero probabilities.
  // Clocks, tickers and the span tree must be bit-identical.
  struct RunResult {
    std::vector<uint64_t> tickers;
    double tape_seconds = 0.0;
    double client_seconds = 0.0;
    std::vector<std::tuple<std::string, double, double, uint64_t>> spans;
  };
  auto run = [](bool enabled_all_zero) {
    RunResult result;
    MemEnv env;
    HeavenOptions options;
    options.library.profile = MidTapeProfile();
    options.library.num_drives = 2;
    options.library.num_media = 8;
    options.disk_tile_bytes = 2048;
    options.supertile_bytes = 16 << 10;
    if (enabled_all_zero) {
      options.fault_policy.enabled = true;
      options.fault_policy.seed = 42;
    }
    auto db = HeavenDb::Open(&env, "/db", options);
    HEAVEN_CHECK(db.ok());
    (*db)->stats()->trace()->Enable(true);
    auto coll = (*db)->CreateCollection("c");
    HEAVEN_CHECK(coll.ok());
    auto id = (*db)->InsertObject(*coll, "a", Ramp(MdInterval({0, 0}, {29, 29})));
    HEAVEN_CHECK(id.ok());
    HEAVEN_CHECK((*db)->ExportObject(*id).ok());
    HEAVEN_CHECK((*db)->ReadRegion(*id, MdInterval({0, 0}, {9, 9})).ok());
    HEAVEN_CHECK((*db)->ReadObject(*id).ok());
    result.tickers = (*db)->stats()->Snapshot();
    result.tape_seconds = (*db)->TapeSeconds();
    result.client_seconds = (*db)->ClientSeconds();
    for (const Span& span : (*db)->stats()->trace()->Spans()) {
      result.spans.emplace_back(span.name, span.start, span.end, span.bytes);
    }
    // Pool threads may finish decode spans in any order within one run;
    // compare the span multiset, not the collection order.
    std::sort(result.spans.begin(), result.spans.end());
    return result;
  };
  RunResult legacy = run(false);
  RunResult instrumented = run(true);
  EXPECT_EQ(legacy.tickers, instrumented.tickers);
  EXPECT_EQ(legacy.tape_seconds, instrumented.tape_seconds);
  EXPECT_EQ(legacy.client_seconds, instrumented.client_seconds);
  EXPECT_EQ(legacy.spans, instrumented.spans);
  ASSERT_FALSE(instrumented.tickers.empty());
  EXPECT_EQ(instrumented.tickers[static_cast<size_t>(Ticker::kFaultsInjected)],
            0u);
}

TEST_F(FaultDbTest, SameSeedReplaysTheSameRun) {
  auto run = [](uint64_t seed) {
    MemEnv env;
    HeavenOptions options;
    options.library.profile = MidTapeProfile();
    options.library.num_drives = 2;
    options.library.num_media = 8;
    options.disk_tile_bytes = 2048;
    options.supertile_bytes = 16 << 10;
    options.fault_policy.enabled = true;
    options.fault_policy.seed = seed;
    options.fault_policy.tape_read_error_p = 0.2;
    options.fault_policy.bit_rot_p = 0.1;
    options.tape_retry.max_attempts = 5;
    auto db = HeavenDb::Open(&env, "/db", options);
    HEAVEN_CHECK(db.ok());
    auto coll = (*db)->CreateCollection("c");
    HEAVEN_CHECK(coll.ok());
    auto id = (*db)->InsertObject(*coll, "a", Ramp(MdInterval({0, 0}, {29, 29})));
    HEAVEN_CHECK(id.ok());
    HEAVEN_CHECK((*db)->ExportObject(*id).ok());
    Status read = (*db)->ReadObject(*id).status();
    return std::make_tuple((*db)->stats()->Snapshot(), (*db)->TapeSeconds(),
                           read.ToString());
  };
  EXPECT_EQ(run(9), run(9));
}

TEST_F(FaultDbTest, FaultCountersAppearInJsonStats) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {19, 19}));
  ASSERT_TRUE(db_->ExportObject(id).ok());
  FaultPolicy policy;
  policy.enabled = true;
  policy.seed = 5;
  policy.max_faults = 1;
  policy.tape_read_error_p = 1.0;
  InstallFaults(policy);
  ASSERT_TRUE(db_->ReadObject(id).ok());
  const std::string json = db_->stats()->ToJson();
  EXPECT_NE(json.find("\"fault.injected\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tape.retries\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"supertile.crc_mismatches\""), std::string::npos);
  EXPECT_NE(json.find("\"tape.drive_failures\""), std::string::npos);
}

TEST(HsmFaultTest, StagingRetriesTransientTapeErrors) {
  Statistics stats;
  TapeLibraryOptions options;
  options.profile = MidTapeProfile();
  options.num_drives = 1;
  options.num_media = 2;
  TapeLibrary library(options, &stats);
  HsmOptions hsm_options;
  hsm_options.disk = DiskProfile{};
  HsmSystem hsm(&library, hsm_options, &stats);
  const std::string payload(4096, 'x');
  ASSERT_TRUE(hsm.StoreFile("f", payload).ok());
  if (hsm.IsStaged("f")) {
    ASSERT_TRUE(hsm.PurgeFile("f").ok());
  }
  FaultPolicy policy;
  policy.enabled = true;
  policy.seed = 13;
  policy.max_faults = 1;
  policy.tape_read_error_p = 1.0;
  FaultInjector injector(policy, &stats);
  library.SetFaultInjector(&injector);
  auto read = hsm.ReadFile("f");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, payload);
  EXPECT_EQ(stats.Get(Ticker::kTapeRetries), 1u);
  EXPECT_EQ(stats.Get(Ticker::kFaultsInjected), 1u);
}

// ---------------------------------------------------------------------------
// Crash-safe tape writes: kill the process at every write point of each
// tape-writing mutator and verify the reopened database recovers a
// consistent archive.
// ---------------------------------------------------------------------------

enum class TapeWriter {
  kTctExport,
  kTctExportBehindFailed,  // a failed queued export stays open meanwhile
  kSyncExport,
  kMigrationExport,
  kTileAtATime,
  kReclaim,
};

const char* TapeWriterName(TapeWriter writer) {
  switch (writer) {
    case TapeWriter::kTctExport:
      return "TctExport";
    case TapeWriter::kTctExportBehindFailed:
      return "TctExportBehindFailed";
    case TapeWriter::kSyncExport:
      return "SyncExport";
    case TapeWriter::kMigrationExport:
      return "MigrationExport";
    case TapeWriter::kTileAtATime:
      return "TileAtATime";
    case TapeWriter::kReclaim:
      return "Reclaim";
  }
  return "";
}

void PrintTo(TapeWriter writer, std::ostream* os) {
  *os << TapeWriterName(writer);
}

uint64_t UsedTapeBytes(HeavenDb* db) {
  uint64_t used = 0;
  for (uint32_t m = 0; m < db->library()->num_media(); ++m) {
    used += db->library()->MediumUsedBytes(m).value();
  }
  return used;
}

uint64_t LiveExtentBytes(HeavenDb* db) {
  uint64_t live = 0;
  for (const SuperTileMeta& meta : db->RegistrySnapshot()) {
    live += meta.size_bytes;
  }
  return live;
}

class CrashRecoveryTest : public ::testing::TestWithParam<TapeWriter> {
 protected:
  const MdInterval domain_{{0, 0}, {49, 49}};  // 10 000 bytes of floats

  // `first_open`: the open that prepares and runs the mutator; only there
  // does the failed export of kTctExportBehindFailed get its fault.
  HeavenOptions Options(bool first_open = false) const {
    HeavenOptions options;
    options.library.profile = MidTapeProfile();
    options.library.num_drives = 2;
    options.library.num_media = 4;
    options.disk_tile_bytes = 2048;
    options.supertile_bytes = 8 << 10;
    options.decoupled_export = GetParam() == TapeWriter::kTctExport ||
                               GetParam() == TapeWriter::kTctExportBehindFailed;
    if (first_open && GetParam() == TapeWriter::kTctExportBehindFailed) {
      options.fault_policy.enabled = true;
      options.fault_policy.seed = 17;
      options.fault_policy.max_faults = 1;
      options.fault_policy.tape_write_error_p = 1.0;
    }
    if (GetParam() == TapeWriter::kMigrationExport) {
      // The second insert crosses the high watermark; migrating the first
      // object brings the volume back to the low one.
      options.migrate_high_watermark_bytes = 15000;
      options.migrate_low_watermark_bytes = 11000;
    }
    return options;
  }

  // Everything before the power cut: object "a" on disk, or on tape for
  // the reclaim; for kTctExportBehindFailed also "b", whose queued export
  // failed and stays open.
  void Prepare(HeavenDb* db) {
    auto coll = db->CreateCollection("c");
    ASSERT_TRUE(coll.ok());
    collection_ = *coll;
    if (GetParam() == TapeWriter::kTctExportBehindFailed) {
      auto b = db->InsertObject(collection_, "b", Ramp(domain_));
      ASSERT_TRUE(b.ok());
      ASSERT_TRUE(db->ExportObject(*b).ok());
      ASSERT_FALSE(db->DrainExports().ok());  // the injected write error
      db->ClearTctError();
    }
    auto id = db->InsertObject(collection_, "a", Ramp(domain_));
    ASSERT_TRUE(id.ok());
    a_ = *id;
    if (GetParam() == TapeWriter::kReclaim) {
      ASSERT_TRUE(db->ExportObject(a_).ok());
    }
  }

  // The mutator under test; its failure is the crash.
  void Run(HeavenDb* db) {
    switch (GetParam()) {
      case TapeWriter::kTctExport:
      case TapeWriter::kTctExportBehindFailed:
        if (db->ExportObject(a_).ok()) (void)db->DrainExports();
        break;
      case TapeWriter::kSyncExport:
        (void)db->ExportObject(a_);
        break;
      case TapeWriter::kMigrationExport:
        (void)db->InsertObject(collection_, "b", Ramp(domain_));
        break;
      case TapeWriter::kTileAtATime:
        (void)db->ExportObjectTileAtATime(a_);
        break;
      case TapeWriter::kReclaim:
        (void)db->ReclaimMedium(db->RegistrySnapshot()[0].medium);
        break;
    }
  }

  CollectionId collection_ = 0;
  ObjectId a_ = 0;
};

TEST_P(CrashRecoveryTest, KillAndReopenAtEveryWritePoint) {
  // Dry run: count the writes the mutator issues.
  uint64_t writes = 0;
  {
    MemEnv base;
    FaultInjectionEnv env(&base);
    auto db = HeavenDb::Open(&env, "/db", Options(/*first_open=*/true));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_NO_FATAL_FAILURE(Prepare(db->get()));
    const uint64_t before = env.writes_issued();
    Run(db->get());
    writes = env.writes_issued() - before;
    EXPECT_TRUE((*db)->TctLastError().ok());
    EXPECT_GT((*db)->RegisteredSuperTiles(), 0u);  // "a" reached tape
  }
  ASSERT_GT(writes, 0u);
  ASSERT_LT(writes, 300u) << "sweep would be too slow";

  for (uint64_t limit = 1; limit <= writes; ++limit) {
    SCOPED_TRACE("crash after " + std::to_string(limit) + " writes");
    MemEnv base;
    FaultInjectionEnv env(&base);
    {
      auto db = HeavenDb::Open(&env, "/db", Options(/*first_open=*/true));
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      ASSERT_NO_FATAL_FAILURE(Prepare(db->get()));
      env.SetWriteLimit(limit);  // the power cut is armed
      Run(db->get());
      env.ClearWriteLimit();
      // Destruction = the kill; whatever the limit let through is all that
      // survives on "disk".
    }
    auto db = HeavenDb::Open(&env, "/db", Options());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->DrainExports().ok());  // recovery re-drives exports
    // No lost committed object: "a" always, "b" if its insert committed.
    ASSERT_TRUE((*db)->FindObject("a").ok());
    for (const char* name : {"a", "b"}) {
      auto object = (*db)->FindObject(name);
      if (!object.ok()) continue;
      auto read = (*db)->ReadObject(object->object_id);
      ASSERT_TRUE(read.ok()) << name << ": " << read.status().ToString();
      EXPECT_EQ(read.value(), Ramp(domain_)) << name;
    }
    if (GetParam() == TapeWriter::kTctExportBehindFailed) {
      // The failed export stayed queued through the crash and was re-driven.
      auto b = (*db)->FindObject("b");
      ASSERT_TRUE(b.ok());
      for (const TileDescriptor& tile :
           (*db)->engine()->catalog()->ListTiles(b->object_id)) {
        EXPECT_EQ(tile.location, TileLocation::kTertiary);
      }
    }
    // No duplicate or orphaned containers: every byte on tape is referenced
    // by exactly one registry extent.
    EXPECT_EQ(UsedTapeBytes(db->get()), LiveExtentBytes(db->get()));
  }
}

INSTANTIATE_TEST_SUITE_P(TapeWriters, CrashRecoveryTest,
                         ::testing::Values(TapeWriter::kTctExport,
                                           TapeWriter::kTctExportBehindFailed,
                                           TapeWriter::kSyncExport,
                                           TapeWriter::kMigrationExport,
                                           TapeWriter::kTileAtATime,
                                           TapeWriter::kReclaim),
                         [](const ::testing::TestParamInfo<TapeWriter>& info) {
                           return std::string(TapeWriterName(info.param));
                         });

// The precomputed-results section commits with the update that invalidates
// it: killed at any write point, the reopened database never serves an
// aggregate of a state ReadObject does not return.
TEST(CrashRecoveryTest, UpdateAfterCachedAggregateKeepsPrecomputedConsistent) {
  const MdInterval domain({0, 0}, {29, 29});
  const MdInterval region({0, 0}, {14, 14});
  MddArray patch(MdInterval({5, 5}, {20, 20}), CellType::kFloat);
  patch.Generate([](const MdPoint&) { return -7.0; });
  HeavenOptions options;
  options.library.profile = MidTapeProfile();
  options.library.num_drives = 2;
  options.library.num_media = 4;
  options.disk_tile_bytes = 1024;
  options.supertile_bytes = 4 << 10;

  // Builds an archived object with a cached (and persisted) aggregate over
  // `region`.
  auto setup = [&](FaultInjectionEnv* env) -> ObjectId {
    auto db = HeavenDb::Open(env, "/db", options);
    HEAVEN_CHECK(db.ok()) << db.status().ToString();
    auto coll = (*db)->CreateCollection("c");
    HEAVEN_CHECK(coll.ok());
    auto id = (*db)->InsertObject(*coll, "a", Ramp(domain));
    HEAVEN_CHECK(id.ok());
    HEAVEN_CHECK((*db)->ExportObject(*id).ok());
    HEAVEN_CHECK((*db)->Aggregate(*id, Condenser::kSum, region).ok());
    return *id;
  };
  uint64_t update_writes = 0;  // the writes the update issues
  {
    MemEnv base;
    FaultInjectionEnv env(&base);
    const ObjectId id = setup(&env);
    auto db = HeavenDb::Open(&env, "/db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    const uint64_t before = env.writes_issued();
    ASSERT_TRUE((*db)->UpdateRegion(id, patch).ok());
    update_writes = env.writes_issued() - before;
  }
  ASSERT_GT(update_writes, 0u);
  ASSERT_LT(update_writes, 300u) << "sweep would be too slow";

  for (uint64_t limit = 1; limit <= update_writes; ++limit) {
    SCOPED_TRACE("crash after " + std::to_string(limit) + " writes");
    MemEnv base;
    FaultInjectionEnv env(&base);
    const ObjectId id = setup(&env);
    {
      auto db = HeavenDb::Open(&env, "/db", options);
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      env.SetWriteLimit(limit);  // the power cut is armed
      (void)(*db)->UpdateRegion(id, patch);  // may fail: that IS the crash
      env.ClearWriteLimit();
    }
    auto db = HeavenDb::Open(&env, "/db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto read = (*db)->ReadObject(id);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    auto want = CondenseRegion(*read, Condenser::kSum, region);
    ASSERT_TRUE(want.ok());
    auto got = (*db)->Aggregate(id, Condenser::kSum, region);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_DOUBLE_EQ(*got, *want);
  }
}

// Kill the recovering open of a database whose one queued TCT export
// failed at every write point, the re-driven export included: every later
// open re-drives the export again until it is done.
TEST(CrashRecoveryTest, KillRecoveringOpenAtEveryWritePoint) {
  const MdInterval domain({0, 0}, {29, 29});
  const auto options = [](bool failing_tape) {
    HeavenOptions options;
    options.library.profile = MidTapeProfile();
    options.library.num_drives = 2;
    options.library.num_media = 4;
    options.disk_tile_bytes = 2048;
    options.supertile_bytes = 8 << 10;
    options.decoupled_export = true;
    if (failing_tape) {
      options.fault_policy.enabled = true;
      options.fault_policy.seed = 17;
      options.fault_policy.max_faults = 1;
      options.fault_policy.tape_write_error_p = 1.0;
    }
    return options;
  };
  // The export of "b" failed, so the journal keeps it queued.
  const auto prepare = [&](Env* env) {
    auto db = HeavenDb::Open(env, "/db", options(/*failing_tape=*/true));
    HEAVEN_CHECK(db.ok()) << db.status().ToString();
    auto coll = (*db)->CreateCollection("c");
    HEAVEN_CHECK(coll.ok());
    auto b = (*db)->InsertObject(*coll, "b", Ramp(domain));
    HEAVEN_CHECK(b.ok());
    HEAVEN_CHECK((*db)->ExportObject(*b).ok());
    HEAVEN_CHECK(!(*db)->DrainExports().ok());  // the injected write error
  };
  // The open's writes come before the TCT starts, so the count is exact.
  const auto recover = [&](Env* env) {
    auto db = HeavenDb::Open(env, "/db", options(/*failing_tape=*/false));
    if (db.ok()) (void)(*db)->DrainExports();
  };
  uint64_t writes = 0;
  {
    MemEnv base;
    FaultInjectionEnv env(&base);
    prepare(&env);
    const uint64_t before = env.writes_issued();
    recover(&env);
    writes = env.writes_issued() - before;
  }
  ASSERT_GT(writes, 0u);
  ASSERT_LT(writes, 300u) << "sweep would be too slow";

  for (uint64_t limit = 1; limit <= writes; ++limit) {
    SCOPED_TRACE("crash after " + std::to_string(limit) + " writes");
    MemEnv base;
    FaultInjectionEnv env(&base);
    prepare(&env);
    env.SetWriteLimit(limit);  // the power cut is armed
    recover(&env);
    env.ClearWriteLimit();
    auto db = HeavenDb::Open(&env, "/db", options(/*failing_tape=*/false));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->DrainExports().ok());
    auto b = (*db)->FindObject("b");
    ASSERT_TRUE(b.ok());
    for (const TileDescriptor& tile :
         (*db)->engine()->catalog()->ListTiles(b->object_id)) {
      EXPECT_EQ(tile.location, TileLocation::kTertiary);
    }
    auto read = (*db)->ReadObject(b->object_id);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_TRUE(*read == Ramp(domain));
    EXPECT_EQ(UsedTapeBytes(db->get()), LiveExtentBytes(db->get()));
  }
}

// Mutators that write no tape (delete, reimport, update of an archived
// object), killed at every write point: the reopened object is wholly
// before or wholly after the mutation, a cached aggregate matches the
// cells read back, and not a tape byte was written or lost. With a
// checkpoint on every commit the sweep also cuts inside the checkpoint.
enum class CatalogMutator { kDelete, kReimport, kUpdate };

struct MutatorCase {
  CatalogMutator mutator;
  uint64_t checkpoint_wal_bytes = StorageOptions{}.checkpoint_wal_bytes;
};

const char* CatalogMutatorName(CatalogMutator mutator) {
  switch (mutator) {
    case CatalogMutator::kDelete:
      return "Delete";
    case CatalogMutator::kReimport:
      return "Reimport";
    case CatalogMutator::kUpdate:
      return "Update";
  }
  return "";
}

std::string MutatorCaseName(const MutatorCase& c) {
  return std::string(CatalogMutatorName(c.mutator)) +
         (c.checkpoint_wal_bytes == 1 ? "CheckpointingEveryCommit" : "");
}

void PrintTo(const MutatorCase& c, std::ostream* os) {
  *os << MutatorCaseName(c);
}

class MutatorCrashTest : public ::testing::TestWithParam<MutatorCase> {
 protected:
  const MdInterval domain_{{0, 0}, {29, 29}};
  const MdInterval region_{{0, 0}, {14, 14}};

  HeavenOptions Options() const {
    HeavenOptions options;
    options.library.profile = MidTapeProfile();
    options.library.num_drives = 2;
    options.library.num_media = 4;
    options.disk_tile_bytes = 1024;
    options.supertile_bytes = 4 << 10;
    options.storage.checkpoint_wal_bytes = GetParam().checkpoint_wal_bytes;
    return options;
  }

  // Archives "a" and caches (and persists) an aggregate over region_.
  void Prepare(HeavenDb* db) {
    auto coll = db->CreateCollection("c");
    ASSERT_TRUE(coll.ok());
    auto id = db->InsertObject(*coll, "a", Ramp(domain_));
    ASSERT_TRUE(id.ok());
    a_ = *id;
    ASSERT_TRUE(db->ExportObject(a_).ok());
    ASSERT_TRUE(db->Aggregate(a_, Condenser::kSum, region_).ok());
  }

  Status Run(HeavenDb* db) {
    switch (GetParam().mutator) {
      case CatalogMutator::kDelete:
        return db->DeleteObject(a_);
      case CatalogMutator::kReimport:
        return db->ReimportObject(a_);
      case CatalogMutator::kUpdate: {
        MddArray patch(MdInterval({5, 5}, {20, 20}), CellType::kFloat);
        patch.Generate([](const MdPoint&) { return -7.0; });
        return db->UpdateRegion(a_, patch);
      }
    }
    return Status::Ok();
  }

  ObjectId a_ = 0;
};

TEST_P(MutatorCrashTest, KillAndReopenAtEveryWritePoint) {
  // Dry run: count the writes and record the states before and after.
  uint64_t writes = 0;
  uint64_t used_before = 0;
  std::optional<MddArray> after;  // empty: the object is gone
  {
    MemEnv base;
    FaultInjectionEnv env(&base);
    auto db = HeavenDb::Open(&env, "/db", Options());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_NO_FATAL_FAILURE(Prepare(db->get()));
    used_before = UsedTapeBytes(db->get());
    ASSERT_EQ(used_before, LiveExtentBytes(db->get()));
    const uint64_t before = env.writes_issued();
    ASSERT_TRUE(Run(db->get()).ok());
    writes = env.writes_issued() - before;
    if (GetParam().mutator != CatalogMutator::kDelete) {
      auto read = (*db)->ReadObject(a_);
      ASSERT_TRUE(read.ok()) << read.status().ToString();
      after = std::move(read).value();
    }
  }
  ASSERT_GT(writes, 0u);
  ASSERT_LT(writes, 300u) << "sweep would be too slow";

  for (uint64_t limit = 1; limit <= writes; ++limit) {
    SCOPED_TRACE("crash after " + std::to_string(limit) + " writes");
    MemEnv base;
    FaultInjectionEnv env(&base);
    {
      auto db = HeavenDb::Open(&env, "/db", Options());
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      ASSERT_NO_FATAL_FAILURE(Prepare(db->get()));
      env.SetWriteLimit(limit);  // the power cut is armed
      (void)Run(db->get());      // may fail: that IS the crash
      env.ClearWriteLimit();
    }
    auto db = HeavenDb::Open(&env, "/db", Options());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    if ((*db)->FindObject("a").ok()) {
      auto read = (*db)->ReadObject(a_);
      ASSERT_TRUE(read.ok()) << read.status().ToString();
      EXPECT_TRUE(*read == Ramp(domain_) || (after && *read == *after));
      auto want = CondenseRegion(*read, Condenser::kSum, region_);
      ASSERT_TRUE(want.ok());
      auto got = (*db)->Aggregate(a_, Condenser::kSum, region_);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_DOUBLE_EQ(*got, *want);
    } else {
      EXPECT_EQ(GetParam().mutator, CatalogMutator::kDelete);
    }
    // The mutators leave dead extents on the append-only tape (a reclaim
    // recovers them) but never write or lose a tape byte.
    EXPECT_EQ(UsedTapeBytes(db->get()), used_before);
    EXPECT_LE(LiveExtentBytes(db->get()), used_before);
  }
}

INSTANTIATE_TEST_SUITE_P(
    CatalogMutators, MutatorCrashTest,
    ::testing::Values(MutatorCase{CatalogMutator::kDelete},
                      MutatorCase{CatalogMutator::kReimport},
                      MutatorCase{CatalogMutator::kUpdate},
                      MutatorCase{CatalogMutator::kDelete, 1},
                      MutatorCase{CatalogMutator::kReimport, 1},
                      MutatorCase{CatalogMutator::kUpdate, 1}),
    [](const ::testing::TestParamInfo<MutatorCase>& info) {
      return MutatorCaseName(info.param);
    });

}  // namespace
}  // namespace heaven
