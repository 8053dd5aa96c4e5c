#include "common/admission.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/fault_injection.h"
#include "heaven/heaven_db.h"
#include "rasql/parser.h"
#include "rasql/statements.h"

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
// QosClass / Deadline / CancelToken / QueryContext primitives.
// ---------------------------------------------------------------------------

TEST(QosClassTest, NamesRoundTrip) {
  for (QosClass qos : {QosClass::kInteractive, QosClass::kBatch,
                       QosClass::kMaintenance}) {
    auto parsed = ParseQosClass(QosClassName(qos));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, qos);
  }
  EXPECT_EQ(ParseQosClass("INTERACTIVE"), QosClass::kInteractive);
  EXPECT_EQ(ParseQosClass("Batch"), QosClass::kBatch);
  EXPECT_FALSE(ParseQosClass("bulk").has_value());
}

TEST(DeadlineTest, RemainingTracksSimClock) {
  SimClock clock;
  Deadline none = Deadline::Infinite();
  EXPECT_FALSE(none.has_deadline());
  EXPECT_FALSE(none.expired());

  Deadline deadline = Deadline::AfterSimSeconds(&clock, 10.0);
  EXPECT_TRUE(deadline.has_deadline());
  EXPECT_DOUBLE_EQ(deadline.remaining_s(), 10.0);
  clock.Advance(4.0);
  EXPECT_DOUBLE_EQ(deadline.remaining_s(), 6.0);
  clock.Advance(7.0);
  EXPECT_DOUBLE_EQ(deadline.remaining_s(), 0.0);  // clamped
  EXPECT_TRUE(deadline.expired());
}

TEST(CancelTokenTest, TripAfterPollsCountsDown) {
  CancelToken token;
  token.TripAfterPolls(2);
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.cancelled());  // stays tripped
}

TEST(QueryContextTest, CheckReportsCancelAndDeadline) {
  QueryContext plain;
  EXPECT_TRUE(plain.unconstrained());
  EXPECT_TRUE(plain.Check("anywhere").ok());

  SimClock clock;
  QueryContext timed;
  timed.deadline = Deadline::AfterSimSeconds(&clock, 1.0);
  EXPECT_FALSE(timed.unconstrained());
  EXPECT_TRUE(timed.Check("fetch").ok());
  clock.Advance(2.0);
  Status expired = timed.Check("fetch");
  EXPECT_EQ(expired.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(expired.ToString().find("fetch"), std::string::npos);

  QueryContext cancellable;
  cancellable.cancel = std::make_shared<CancelToken>();
  EXPECT_TRUE(cancellable.Check("decode").ok());
  cancellable.cancel->Cancel();
  EXPECT_EQ(cancellable.Check("decode").code(), StatusCode::kCancelled);
}

// ---------------------------------------------------------------------------
// AdmissionController: token buckets, virtual queue, in-flight budget.
// ---------------------------------------------------------------------------

QosOptions SmallQos() {
  QosOptions qos;
  qos.enabled = true;
  qos.interactive = {1.0, 2.0, 5.0};   // 1 query/s, burst 2, wait cap 5 s
  qos.batch = {0.5, 1.0, 10.0};
  qos.maintenance = {0.25, 1.0, 20.0};
  return qos;
}

TEST(AdmissionControllerTest, BurstThenQueueThenShed) {
  SimClock clock;
  Statistics stats;
  AdmissionController controller(SmallQos(), &clock, &stats);
  QueryContext ctx;  // interactive

  // The burst is free: two tokens, zero wait.
  for (int i = 0; i < 2; ++i) {
    auto wait = controller.AdmitQuery(ctx);
    ASSERT_TRUE(wait.ok());
    EXPECT_DOUBLE_EQ(wait.value(), 0.0);
  }
  EXPECT_EQ(stats.Get(Ticker::kAdmissionQueued), 0u);

  // The bucket is empty: admissions queue with a growing implied wait.
  auto queued = controller.AdmitQuery(ctx);
  ASSERT_TRUE(queued.ok());
  EXPECT_DOUBLE_EQ(queued.value(), 1.0);  // (1 - 0 tokens) / 1 per s
  EXPECT_EQ(stats.Get(Ticker::kAdmissionQueued), 1u);

  // Keep piling on until the implied wait tops max_queue_wait_s.
  Status shed = Status::Ok();
  for (int i = 0; i < 10 && shed.ok(); ++i) {
    shed = controller.AdmitQuery(ctx).status();
  }
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(shed.message().rfind("admission", 0), 0u) << shed.ToString();
  EXPECT_GT(stats.Get(Ticker::kAdmissionShed), 0u);
  EXPECT_GT(controller.ShedCount(QosClass::kInteractive), 0u);
}

TEST(AdmissionControllerTest, ClassesAreIsolated) {
  SimClock clock;
  Statistics stats;
  AdmissionController controller(SmallQos(), &clock, &stats);

  // Saturate batch far past its queue cap.
  QueryContext batch;
  batch.qos = QosClass::kBatch;
  Status status = Status::Ok();
  for (int i = 0; i < 32 && status.ok(); ++i) {
    status = controller.AdmitQuery(batch).status();
  }
  ASSERT_EQ(status.code(), StatusCode::kResourceExhausted);

  // Interactive still has its full burst: batch debt must not leak.
  QueryContext interactive;
  auto wait = controller.AdmitQuery(interactive);
  ASSERT_TRUE(wait.ok());
  EXPECT_DOUBLE_EQ(wait.value(), 0.0);
}

TEST(AdmissionControllerTest, BucketsRefillAgainstTapeClock) {
  SimClock clock;
  Statistics stats;
  AdmissionController controller(SmallQos(), &clock, &stats);
  QueryContext ctx;

  while (controller.AdmitQuery(ctx).ok()) {
  }
  EXPECT_LT(controller.TokensAvailable(QosClass::kInteractive), 1.0);

  // Sim time heals the debt; a full burst is available again.
  clock.Advance(100.0);
  EXPECT_DOUBLE_EQ(controller.TokensAvailable(QosClass::kInteractive), 2.0);
  auto wait = controller.AdmitQuery(ctx);
  ASSERT_TRUE(wait.ok());
  EXPECT_DOUBLE_EQ(wait.value(), 0.0);
}

TEST(AdmissionControllerTest, QueueWaitBeyondDeadlineIsRejectedEagerly) {
  SimClock clock;
  Statistics stats;
  AdmissionController controller(SmallQos(), &clock, &stats);

  QueryContext ctx;
  ASSERT_TRUE(controller.AdmitQuery(ctx).ok());
  ASSERT_TRUE(controller.AdmitQuery(ctx).ok());  // burst gone

  // The next admission implies a 1 s wait; a 0.5 s deadline cannot make it.
  QueryContext timed;
  timed.deadline = Deadline::AfterSimSeconds(&clock, 0.5);
  Status status = controller.AdmitQuery(timed).status();
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  // Rejected without burning any simulated time: O(1) on the tape clock.
  EXPECT_DOUBLE_EQ(clock.Now(), 0.0);
}

TEST(AdmissionControllerTest, InflightBudgetShedsAndReleases) {
  SimClock clock;
  Statistics stats;
  QosOptions qos = SmallQos();
  qos.max_inflight_bytes = 1000;
  qos.max_inflight_fetches = 2;
  AdmissionController controller(qos, &clock, &stats);

  // An oversized batch at an idle budget is always granted.
  auto oversized = controller.AcquireInflight(5000, 1);
  ASSERT_TRUE(oversized.ok());
  EXPECT_EQ(controller.inflight_bytes(), 5000u);

  // With the budget saturated, further batches shed.
  auto rejected = controller.AcquireInflight(100, 1);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(rejected.status().message().rfind("admission", 0), 0u);

  // Dropping the grant releases its share; the next batch fits again.
  { AdmissionController::InflightGrant dropped = std::move(oversized).value(); }
  EXPECT_EQ(controller.inflight_bytes(), 0u);
  EXPECT_EQ(controller.inflight_fetches(), 0u);
  auto ok = controller.AcquireInflight(100, 1);
  ASSERT_TRUE(ok.ok());

  // Zero-fetch plans (fully cached) bypass the budget entirely.
  auto empty = controller.AcquireInflight(0, 0);
  ASSERT_TRUE(empty.ok());
}

TEST(AdmissionControllerTest, PrefetchYieldsToForegroundDebt) {
  SimClock clock;
  Statistics stats;
  AdmissionController controller(SmallQos(), &clock, &stats);

  EXPECT_TRUE(controller.AdmitPrefetch(100));

  // Put interactive into debt: speculation must now yield.
  QueryContext ctx;
  ASSERT_TRUE(controller.AdmitQuery(ctx).ok());
  ASSERT_TRUE(controller.AdmitQuery(ctx).ok());
  ASSERT_TRUE(controller.AdmitQuery(ctx).ok());  // queued: tokens < 0
  EXPECT_FALSE(controller.AdmitPrefetch(100));
  EXPECT_EQ(stats.Get(Ticker::kPrefetchRejected), 1u);

  // Debt repaid: speculation resumes.
  clock.Advance(100.0);
  EXPECT_TRUE(controller.AdmitPrefetch(100));
}

// ---------------------------------------------------------------------------
// CircuitBreaker state machine.
// ---------------------------------------------------------------------------

TEST(CircuitBreakerTest, TripsHalfOpensAndRecovers) {
  SimClock clock;
  Statistics stats;
  CircuitBreaker breaker(/*entities=*/2, /*window=*/4,
                         /*failure_threshold=*/2, /*cooldown_s=*/10.0, &clock,
                         &stats);
  EXPECT_TRUE(breaker.WouldAllow(0));

  breaker.RecordFailure(0);
  EXPECT_EQ(breaker.state(0), CircuitBreaker::State::kClosed);
  breaker.RecordFailure(0);
  EXPECT_EQ(breaker.state(0), CircuitBreaker::State::kOpen);
  EXPECT_EQ(stats.Get(Ticker::kBreakerTrips), 1u);

  // Tripped: not selectable, and the other entity is untouched.
  EXPECT_FALSE(breaker.WouldAllow(0));
  EXPECT_TRUE(breaker.WouldAllow(1));
  EXPECT_TRUE(breaker.AnyWouldAllow());

  // Cooldown elapsed: one probe is allowed through.
  clock.Advance(10.0);
  EXPECT_TRUE(breaker.WouldAllow(0));
  breaker.OnOpStart(0);
  EXPECT_EQ(breaker.state(0), CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(stats.Get(Ticker::kBreakerProbes), 1u);
  // The probe slot is claimed: no second operation sneaks in.
  EXPECT_FALSE(breaker.WouldAllow(0));

  breaker.RecordSuccess(0);
  EXPECT_EQ(breaker.state(0), CircuitBreaker::State::kClosed);
  EXPECT_EQ(stats.Get(Ticker::kBreakerRecoveries), 1u);
  EXPECT_TRUE(breaker.WouldAllow(0));

  // Recovery cleared the window: one new failure does not re-trip.
  breaker.RecordFailure(0);
  EXPECT_EQ(breaker.state(0), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, FailedProbeReopensForAnotherCooldown) {
  SimClock clock;
  Statistics stats;
  CircuitBreaker breaker(1, 4, 2, 10.0, &clock, &stats);
  breaker.RecordFailure(0);
  breaker.RecordFailure(0);
  ASSERT_EQ(breaker.state(0), CircuitBreaker::State::kOpen);

  clock.Advance(10.0);
  breaker.OnOpStart(0);
  ASSERT_EQ(breaker.state(0), CircuitBreaker::State::kHalfOpen);
  breaker.RecordFailure(0);
  EXPECT_EQ(breaker.state(0), CircuitBreaker::State::kOpen);
  EXPECT_EQ(stats.Get(Ticker::kBreakerTrips), 2u);

  // The fresh cooldown starts at the probe failure, not the original trip.
  clock.Advance(5.0);
  EXPECT_FALSE(breaker.WouldAllow(0));
  clock.Advance(5.0);
  EXPECT_TRUE(breaker.WouldAllow(0));
}

// ---------------------------------------------------------------------------
// Deadline-aware retry loop.
// ---------------------------------------------------------------------------

TEST(RetryDeadlineTest, BackoffBeyondDeadlineReturnsLastRealError) {
  SimClock clock;
  Statistics stats;
  Deadline deadline = Deadline::AfterSimSeconds(&clock, 0.5);
  int calls = 0;
  Status status = RetryTapeOp(RetryPolicy{}, &clock, &stats, deadline, nullptr,
                              [&] {
                                ++calls;
                                return Status::IOError("drive glitch");
                              });
  // The 1 s backoff alone would blow the 0.5 s budget: a single attempt,
  // no simulated sleep, and the tape layer's own error — not a timeout.
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_NE(status.ToString().find("drive glitch"), std::string::npos);
  EXPECT_DOUBLE_EQ(clock.Now(), 0.0);
  EXPECT_EQ(stats.Get(Ticker::kTapeRetries), 0u);
}

TEST(RetryDeadlineTest, GenerousDeadlineStillRetries) {
  SimClock clock;
  Statistics stats;
  Deadline deadline = Deadline::AfterSimSeconds(&clock, 100.0);
  int calls = 0;
  Status status = RetryTapeOp(RetryPolicy{}, &clock, &stats, deadline, nullptr,
                              [&] {
                                ++calls;
                                return calls < 3 ? Status::IOError("transient")
                                                 : Status::Ok();
                              });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_DOUBLE_EQ(clock.Now(), 3.0);  // 1 s + 2 s backoff
}

TEST(RetryDeadlineTest, CancelledTokenStopsRetriesWithLastRealError) {
  SimClock clock;
  Statistics stats;
  CancelToken cancel;
  cancel.Cancel();
  int calls = 0;
  Status status = RetryTapeOp(RetryPolicy{}, &clock, &stats,
                              Deadline::Infinite(), &cancel, [&] {
                                ++calls;
                                return Status::IOError("jam");
                              });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_DOUBLE_EQ(clock.Now(), 0.0);
}

// ---------------------------------------------------------------------------
// HeavenDb integration: pre-admission, cancellation, breaker, brownout.
// ---------------------------------------------------------------------------

class QosDbTest : public ::testing::Test {
 protected:
  void OpenDb(std::function<void(HeavenOptions*)> tweak = nullptr) {
    db_.reset();
    env_ = std::make_unique<MemEnv>();  // fresh database per (re)open
    HeavenOptions options;
    options.library.profile = MidTapeProfile();
    options.library.num_drives = 2;
    options.library.num_media = 8;
    options.disk_tile_bytes = 2048;
    options.supertile_bytes = 16 << 10;
    options.qos.enabled = true;
    options.qos.breaker_window = 4;
    options.qos.breaker_failure_threshold = 2;
    options.qos.breaker_cooldown_s = 30.0;
    if (tweak) tweak(&options);
    auto db = HeavenDb::Open(env_.get(), "/db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
    auto coll = db_->CreateCollection("c");
    ASSERT_TRUE(coll.ok());
    collection_ = coll.value();
  }

  void SetUp() override { OpenDb(); }

  ObjectId InsertExported(const std::string& name, const MdInterval& domain) {
    auto id = db_->InsertObject(collection_, name, Ramp(domain));
    HEAVEN_CHECK(id.ok()) << id.status().ToString();
    HEAVEN_CHECK(db_->ExportObject(id.value()).ok());
    return id.value();
  }

  void InstallFaults(const FaultPolicy& policy) {
    injector_ = std::make_unique<FaultInjector>(policy, db_->stats());
    db_->library()->SetFaultInjector(injector_.get());
  }

  std::unique_ptr<MemEnv> env_;
  std::unique_ptr<HeavenDb> db_;
  std::unique_ptr<FaultInjector> injector_;
  CollectionId collection_ = 0;
};

TEST_F(QosDbTest, PreadmissionRejectsDoomedPlanWithoutTapeTime) {
  const MdInterval domain({0, 0}, {49, 49});
  ObjectId id = InsertExported("a", domain);

  QueryContext ctx;
  ctx.deadline = Deadline::AfterSimSeconds(db_->library()->clock(), 0.01);
  const double tape_before = db_->TapeSeconds();
  auto read = db_->ReadRegion(id, domain, ctx);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(read.status().ToString().find("pre-admission"), std::string::npos)
      << read.status().ToString();
  // Failing fast is the whole point: the cost model rejected the plan in
  // O(1) — no mount, no seek, no transfer was simulated.
  EXPECT_DOUBLE_EQ(db_->TapeSeconds(), tape_before);
  EXPECT_GE(db_->stats()->Get(Ticker::kAdmissionPreadmitRejects), 1u);
  EXPECT_GE(db_->stats()->Get(Ticker::kQueryDeadlineExceeded), 1u);

  // A workable deadline lets the very same plan through.
  QueryContext roomy;
  roomy.deadline = Deadline::AfterSimSeconds(db_->library()->clock(), 1e6);
  auto ok = db_->ReadRegion(id, domain, roomy);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value(), Ramp(domain));
}

TEST_F(QosDbTest, KillAtEveryStageLeavesDbServable) {
  const MdInterval domain({0, 0}, {49, 49});
  ObjectId id = InsertExported("a", domain);

  // Abort the same query at every cooperative checkpoint in turn. Whatever
  // stage the kill lands on, the outcome is clean: either Cancelled (or a
  // deadline-style rejection) or a complete, correct result — and the
  // database keeps serving afterwards.
  uint64_t cancelled_runs = 0;
  for (int64_t polls = 0; polls < 16; ++polls) {
    SCOPED_TRACE("trip after " + std::to_string(polls) + " polls");
    QueryContext ctx;
    ctx.cancel = std::make_shared<CancelToken>();
    ctx.cancel->TripAfterPolls(polls);
    auto read = db_->ReadRegion(id, domain, ctx);
    if (read.ok()) {
      EXPECT_EQ(read.value(), Ramp(domain));
    } else {
      EXPECT_EQ(read.status().code(), StatusCode::kCancelled)
          << read.status().ToString();
      ++cancelled_runs;
    }
    // The kill must never wedge the pipeline: an unconstrained rerun of
    // the identical query always completes.
    auto rerun = db_->ReadRegion(id, domain);
    ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
    EXPECT_EQ(rerun.value(), Ramp(domain));
  }
  EXPECT_GT(cancelled_runs, 0u);  // the sweep actually hit checkpoints
  EXPECT_EQ(db_->stats()->Get(Ticker::kQueryCancelled), cancelled_runs);
}

TEST_F(QosDbTest, CancelledFetchKeepsPartialWorkInCache) {
  // Big enough for several 16 KiB super-tile containers.
  const MdInterval domain({0, 0}, {119, 119});
  ObjectId id = InsertExported("a", domain);

  // Cold twin: how many containers does this read fetch in one clean run?
  auto twin_env = std::make_unique<MemEnv>();
  HeavenOptions options;
  options.library.profile = MidTapeProfile();
  options.library.num_drives = 2;
  options.library.num_media = 8;
  options.disk_tile_bytes = 2048;
  options.supertile_bytes = 16 << 10;
  auto twin = HeavenDb::Open(twin_env.get(), "/db", options);
  ASSERT_TRUE(twin.ok());
  auto twin_coll = (*twin)->CreateCollection("c");
  ASSERT_TRUE(twin_coll.ok());
  auto twin_id = (*twin)->InsertObject(*twin_coll, "a", Ramp(domain));
  ASSERT_TRUE(twin_id.ok());
  ASSERT_TRUE((*twin)->ExportObject(*twin_id).ok());
  ASSERT_TRUE((*twin)->ReadRegion(*twin_id, domain).ok());
  const uint64_t cold_fetches = (*twin)->stats()->Get(Ticker::kSuperTilesRead);
  ASSERT_GT(cold_fetches, 1u) << "need a multi-container plan for this test";

  // Cancel mid-plan, then rerun to completion. Containers decoded before
  // the kill were admitted to the cache, so across both runs no container
  // is ever fetched twice.
  bool saw_partial_cancel = false;
  for (int64_t polls = 2; polls < 16 && !saw_partial_cancel; ++polls) {
    QueryContext ctx;
    ctx.cancel = std::make_shared<CancelToken>();
    ctx.cancel->TripAfterPolls(polls);
    auto read = db_->ReadRegion(id, domain, ctx);
    const uint64_t fetched = db_->stats()->Get(Ticker::kSuperTilesRead);
    if (!read.ok() && fetched > 0 && fetched < cold_fetches) {
      saw_partial_cancel = true;
    }
    auto rerun = db_->ReadRegion(id, domain);
    ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
    EXPECT_EQ(rerun.value(), Ramp(domain));
    if (saw_partial_cancel) {
      // The rerun only fetched the remainder: total == one cold run.
      EXPECT_EQ(db_->stats()->Get(Ticker::kSuperTilesRead), cold_fetches);
    }
  }
  EXPECT_TRUE(saw_partial_cancel)
      << "no poll count cancelled between containers; widen the sweep";
}

TEST_F(QosDbTest, BreakerTripsOutFailingDrivesAndRecovers) {
  // Enough attempts that the retry loop marches through both drives and
  // trips each of their breakers.
  OpenDb([](HeavenOptions* options) { options->tape_retry.max_attempts = 8; });
  const MdInterval domain({0, 0}, {29, 29});
  ObjectId id = InsertExported("a", domain);

  FaultPolicy policy;
  policy.enabled = true;
  policy.seed = 7;
  policy.tape_read_error_p = 1.0;  // every attempt on every drive fails
  InstallFaults(policy);

  auto read = db_->ReadRegion(id, domain);
  ASSERT_FALSE(read.ok());
  EXPECT_GE(db_->stats()->Get(Ticker::kBreakerTrips), 1u);

  ASSERT_NE(db_->drive_breaker(), nullptr);
  bool any_open = false;
  for (size_t drive = 0; drive < db_->drive_breaker()->entities(); ++drive) {
    any_open |=
        db_->drive_breaker()->state(drive) == CircuitBreaker::State::kOpen;
  }
  EXPECT_TRUE(any_open);

  // With every drive tripped the db is in automatic brownout: an uncached
  // fetch is refused up front instead of grinding on dead hardware.
  if (!db_->drive_breaker()->AnyWouldAllow()) {
    auto refused = db_->ReadRegion(id, domain);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(refused.status().ToString().find("brownout"), std::string::npos);
    EXPECT_GE(db_->stats()->Get(Ticker::kBrownoutRefusals), 1u);
  }

  // Clear the faults and let the cooldown elapse: the half-open probes
  // succeed, the breakers close, and the same query completes.
  db_->library()->SetFaultInjector(nullptr);
  db_->library()->clock()->Advance(60.0);  // 2x breaker_cooldown_s
  auto recovered = db_->ReadRegion(id, domain);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value(), Ramp(domain));
  EXPECT_GE(db_->stats()->Get(Ticker::kBreakerProbes), 1u);
  EXPECT_GE(db_->stats()->Get(Ticker::kBreakerRecoveries), 1u);
  for (size_t drive = 0; drive < db_->drive_breaker()->entities(); ++drive) {
    if (db_->library()->OnlineDrives() > 0) {
      EXPECT_NE(db_->drive_breaker()->state(drive),
                CircuitBreaker::State::kHalfOpen);
    }
  }
}

TEST_F(QosDbTest, BrownoutAnswersFromCacheAndRefusesTapeFetches) {
  const MdInterval domain({0, 0}, {29, 29});
  ObjectId tape_resident = InsertExported("cold", domain);
  auto disk_resident = db_->InsertObject(collection_, "hot", Ramp(domain));
  ASSERT_TRUE(disk_resident.ok());

  ASSERT_NE(db_->admission(), nullptr);
  db_->admission()->SetBrownout(true);

  // Disk-resident data is unaffected.
  auto hot = db_->ReadObject(*disk_resident);
  ASSERT_TRUE(hot.ok()) << hot.status().ToString();

  // An uncached tape fetch is refused, naming the degraded mode.
  auto cold = db_->ReadRegion(tape_resident, domain);
  ASSERT_FALSE(cold.ok());
  EXPECT_EQ(cold.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(cold.status().message().rfind("brownout", 0), 0u)
      << cold.status().ToString();
  EXPECT_GE(db_->stats()->Get(Ticker::kBrownoutRefusals), 1u);

  // Leaving brownout restores full service; the fetched tiles then serve
  // from cache even if brownout returns.
  db_->admission()->SetBrownout(false);
  auto fetched = db_->ReadRegion(tape_resident, domain);
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  EXPECT_EQ(fetched.value(), Ramp(domain));
  db_->admission()->SetBrownout(true);
  auto cached = db_->ReadRegion(tape_resident, domain);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
}

// ---------------------------------------------------------------------------
// A/B: with QoS disabled (the default), the context plumbing is inert —
// the same workload produces bit-identical simulated clocks and tickers.
// ---------------------------------------------------------------------------

TEST(QosDisabledTest, DefaultContextIsBitIdenticalToLegacyCalls) {
  const MdInterval domain({0, 0}, {39, 39});
  struct Run {
    double client_s = 0.0;
    double tape_s = 0.0;
    std::vector<uint64_t> tickers;
  };
  auto run_workload = [&](bool use_context_api) {
    MemEnv env;
    HeavenOptions options;
    options.library.profile = MidTapeProfile();
    options.library.num_drives = 2;
    options.library.num_media = 8;
    options.disk_tile_bytes = 2048;
    options.supertile_bytes = 16 << 10;
    EXPECT_FALSE(options.qos.enabled);  // off by default
    auto db = HeavenDb::Open(&env, "/db", options);
    EXPECT_TRUE(db.ok());
    auto coll = (*db)->CreateCollection("c");
    auto id = (*db)->InsertObject(*coll, "obj", Ramp(domain));
    EXPECT_TRUE((*db)->ExportObject(*id).ok());
    const MdInterval region({5, 5}, {30, 30});
    if (use_context_api) {
      QueryContext ctx;
      EXPECT_TRUE((*db)->ReadRegion(*id, region, ctx).ok());
      EXPECT_TRUE((*db)->Aggregate(*id, Condenser::kSum, region, ctx).ok());
      EXPECT_TRUE((*db)->ReadObject(*id, ctx).ok());
    } else {
      EXPECT_TRUE((*db)->ReadRegion(*id, region).ok());
      EXPECT_TRUE((*db)->Aggregate(*id, Condenser::kSum, region).ok());
      EXPECT_TRUE((*db)->ReadObject(*id).ok());
    }
    Run run;
    run.client_s = (*db)->ClientSeconds();
    run.tape_s = (*db)->TapeSeconds();
    for (int t = 0; t < static_cast<int>(Ticker::kNumTickers); ++t) {
      run.tickers.push_back((*db)->stats()->Get(static_cast<Ticker>(t)));
    }
    return run;
  };

  const Run legacy = run_workload(false);
  const Run context = run_workload(true);
  EXPECT_EQ(legacy.client_s, context.client_s);
  EXPECT_EQ(legacy.tape_s, context.tape_s);
  ASSERT_EQ(legacy.tickers.size(), context.tickers.size());
  for (size_t t = 0; t < legacy.tickers.size(); ++t) {
    EXPECT_EQ(legacy.tickers[t], context.tickers[t])
        << TickerName(static_cast<Ticker>(t));
  }
  // And none of the QoS machinery ever fired.
  EXPECT_EQ(context.tickers[static_cast<size_t>(Ticker::kAdmissionAdmitted)],
            0u);
  EXPECT_EQ(context.tickers[static_cast<size_t>(Ticker::kAdmissionShed)], 0u);
}

// ---------------------------------------------------------------------------
// RasQL: WITH DEADLINE / WITH CLASS clauses.
// ---------------------------------------------------------------------------

TEST(RasqlQosTest, WithClausesParse) {
  auto query =
      rasql::Parse("select obj from coll with deadline 30 with class batch");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_TRUE(query->deadline_s.has_value());
  EXPECT_DOUBLE_EQ(*query->deadline_s, 30.0);
  ASSERT_TRUE(query->qos_class.has_value());
  EXPECT_EQ(*query->qos_class, QosClass::kBatch);

  // Order-independent, case-insensitive, each clause optional.
  auto swapped =
      rasql::Parse("select obj from coll WITH CLASS Maintenance");
  ASSERT_TRUE(swapped.ok());
  EXPECT_FALSE(swapped->deadline_s.has_value());
  EXPECT_EQ(*swapped->qos_class, QosClass::kMaintenance);

  auto plain = rasql::Parse("select obj from coll");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->deadline_s.has_value());
  EXPECT_FALSE(plain->qos_class.has_value());
}

TEST(RasqlQosTest, MalformedWithClausesAreRejected) {
  EXPECT_FALSE(rasql::Parse("select obj from coll with deadline -5").ok());
  EXPECT_FALSE(rasql::Parse("select obj from coll with deadline").ok());
  EXPECT_FALSE(rasql::Parse("select obj from coll with class bulk").ok());
  EXPECT_FALSE(rasql::Parse("select obj from coll with curve hilbert").ok());
  EXPECT_FALSE(
      rasql::Parse("select obj from coll with deadline 5 with deadline 6")
          .ok());
  EXPECT_FALSE(
      rasql::Parse("select obj from coll with class batch with class batch")
          .ok());
}

TEST(RasqlQosTest, DeadlineRidesIntoExecution) {
  MemEnv env;
  HeavenOptions options;
  options.library.profile = MidTapeProfile();
  options.library.num_drives = 2;
  options.library.num_media = 8;
  options.disk_tile_bytes = 2048;
  options.supertile_bytes = 16 << 10;
  options.qos.enabled = true;
  auto db = HeavenDb::Open(&env, "/db", options);
  ASSERT_TRUE(db.ok());
  auto coll = (*db)->CreateCollection("c");
  ASSERT_TRUE(coll.ok());
  const MdInterval domain({0, 0}, {49, 49});
  auto id = (*db)->InsertObject(*coll, "obj", Ramp(domain));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE((*db)->ExportObject(*id).ok());

  // A hopeless deadline is rejected by the cost model before any tape time.
  auto doomed = rasql::ExecuteStatement(
      db->get(), "select obj[0:49,0:49] from c with deadline 0.01");
  ASSERT_FALSE(doomed.ok());
  EXPECT_EQ(doomed.status().code(), StatusCode::kDeadlineExceeded);

  // A generous one completes, in the asked-for class.
  auto served = rasql::ExecuteStatement(
      db->get(),
      "select obj[0:49,0:49] from c with deadline 100000 with class batch");
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_GE((*db)->admission()->AdmittedCount(QosClass::kBatch), 1u);
}

// ---------------------------------------------------------------------------
// Overload storm: seeded chaos across classes, deadlines, cancels and
// injected faults. Raise HEAVEN_OVERLOAD_STORM_SEEDS for soak runs.
// ---------------------------------------------------------------------------

TEST(OverloadStormTest, EverySeedDegradesGracefullyAndRecovers) {
  int seeds = 10;
  if (const char* override_seeds = std::getenv("HEAVEN_OVERLOAD_STORM_SEEDS")) {
    seeds = std::max(1, std::atoi(override_seeds));
  }
  const MdInterval domain({0, 0}, {49, 49});
  for (int seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("overload seed " + std::to_string(seed));
    MemEnv env;
    HeavenOptions options;
    options.library.profile = MidTapeProfile();
    options.library.num_drives = 2;
    options.library.num_media = 8;
    options.disk_tile_bytes = 2048;
    options.supertile_bytes = 16 << 10;
    options.qos.enabled = true;
    options.qos.interactive = {2.0, 4.0, 10.0};
    options.qos.batch = {0.5, 2.0, 60.0};
    options.qos.breaker_window = 4;
    options.qos.breaker_failure_threshold = 2;
    options.qos.breaker_cooldown_s = 30.0;
    options.fault_policy.enabled = true;
    options.fault_policy.seed = static_cast<uint64_t>(seed);
    options.fault_policy.tape_read_error_p = 0.10;
    options.fault_policy.exchange_jam_p = 0.02;
    options.fault_policy.bit_rot_p = 0.02;
    auto db = HeavenDb::Open(&env, "/db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto coll = (*db)->CreateCollection("c");
    ASSERT_TRUE(coll.ok());
    auto id = (*db)->InsertObject(*coll, "obj", Ramp(domain));
    ASSERT_TRUE(id.ok());
    Status exported = (*db)->ExportObject(*id);
    for (int attempt = 0; !exported.ok() && attempt < 8; ++attempt) {
      exported = (*db)->ExportObject(*id);
    }

    const std::vector<MdInterval> regions = {
        MdInterval({0, 0}, {49, 49}),
        MdInterval({10, 10}, {29, 39}),
        MdInterval({0, 25}, {49, 49}),
        MdInterval({40, 0}, {49, 9}),
    };
    const std::vector<QosClass> classes = {
        QosClass::kInteractive, QosClass::kBatch, QosClass::kInteractive,
        QosClass::kMaintenance};
    for (int round = 0; round < 8; ++round) {
      QueryContext ctx;
      ctx.qos = classes[round % classes.size()];
      if (round % 2 == 0) {
        ctx.deadline = Deadline::AfterSimSeconds(
            (*db)->library()->clock(), round % 4 == 0 ? 5000.0 : 40.0);
      }
      if (round % 3 == 2) {
        ctx.cancel = std::make_shared<CancelToken>();
        ctx.cancel->TripAfterPolls(seed + round);
      }
      const MdInterval& region = regions[round % regions.size()];
      auto read = (*db)->ReadRegion(*id, region, ctx);
      if (read.ok()) {
        ASSERT_EQ(read.value(), Ramp(region));  // never silent corruption
      } else {
        const StatusCode code = read.status().code();
        ASSERT_TRUE(code == StatusCode::kCancelled ||
                    code == StatusCode::kDeadlineExceeded ||
                    code == StatusCode::kResourceExhausted ||
                    code == StatusCode::kIOError ||
                    code == StatusCode::kCorruption)
            << read.status().ToString();
      }
    }

    // Breaker arithmetic reconciles under any schedule.
    const auto get = [&](Ticker t) { return (*db)->stats()->Get(t); };
    ASSERT_LE(get(Ticker::kBreakerRecoveries), get(Ticker::kBreakerProbes));
    ASSERT_GE(get(Ticker::kAdmissionAdmitted),
              (*db)->admission()->AdmittedCount(QosClass::kInteractive));

    // After the storm: faults cleared, cooldowns elapsed — the database
    // must recover to full service with no residual degraded state.
    (*db)->library()->SetFaultInjector(nullptr);
    (*db)->library()->clock()->Advance(10 * options.qos.breaker_cooldown_s);
    if (exported.ok() && (*db)->library()->OnlineDrives() > 0) {
      auto read = (*db)->ReadRegion(*id, domain);
      ASSERT_TRUE(read.ok()) << read.status().ToString();
      ASSERT_EQ(read.value(), Ramp(domain));
    }
  }
}

}  // namespace
}  // namespace heaven
