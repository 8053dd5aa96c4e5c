// Tests for the live metrics layer: the gauge registry and its sampler,
// Prometheus/JSON exposition, per-query profiles (including the guarantee
// that a profile reconciles with the trace span it summarizes), the
// persisted bench-report trajectory points, and the bounded trace ring.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_report.h"
#include "common/env.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/sim_clock.h"
#include "common/statistics.h"
#include "common/trace.h"
#include "heaven/heaven_db.h"
#include "rasql/executor.h"

namespace heaven {
namespace {

// ------------------------------------------------------- MetricsRegistry --

TEST(MetricsRegistryTest, GaugeSamplesOnDemand) {
  MetricsRegistry registry;
  double value = 1.5;
  registry.RegisterGauge("test.value", "a test value", {},
                         [&value] { return value; });

  std::vector<GaugeSample> samples = registry.LatestSamples();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_FALSE(samples[0].sampled);  // callback not evaluated yet

  EXPECT_EQ(registry.SampleOnce(), 1u);
  value = 4.0;  // changes only show up after the next sample
  samples = registry.LatestSamples();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_TRUE(samples[0].sampled);
  EXPECT_DOUBLE_EQ(samples[0].value, 1.5);

  registry.SampleOnce();
  EXPECT_DOUBLE_EQ(registry.LatestSamples()[0].value, 4.0);
  EXPECT_EQ(registry.samples_taken(), 2u);
}

TEST(MetricsRegistryTest, DuplicateNameAndLabelsOverwrites) {
  MetricsRegistry registry;
  registry.RegisterGauge("dup", "", {{"k", "v"}}, [] { return 1.0; });
  registry.RegisterGauge("dup", "", {{"k", "v"}}, [] { return 2.0; });
  registry.RegisterGauge("dup", "", {{"k", "other"}}, [] { return 3.0; });
  registry.SampleOnce();
  const std::vector<GaugeSample> samples = registry.LatestSamples();
  ASSERT_EQ(samples.size(), 2u);  // same labels overwrote, distinct kept
  EXPECT_DOUBLE_EQ(samples[0].value, 2.0);
  EXPECT_DOUBLE_EQ(samples[1].value, 3.0);
}

TEST(MetricsRegistryTest, ConcurrentRegisterSampleAndExport) {
  MetricsRegistry registry;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&registry, &go, t] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < 50; ++i) {
        registry.RegisterGauge(
            "worker.gauge", "", {{"t", std::to_string(t)}},
            [t] { return static_cast<double>(t); });
        registry.SampleOnce();
        (void)registry.ToPrometheusText();
        (void)registry.ToJson();
        (void)registry.LatestSamples();
      }
    });
  }
  go.store(true);
  for (std::thread& thread : threads) thread.join();
  // One gauge per distinct label set survives the races.
  EXPECT_EQ(registry.LatestSamples().size(), 4u);
  EXPECT_GE(registry.samples_taken(), 4u * 50u);
}

TEST(MetricsRegistryTest, BackgroundSamplerTicksAndStops) {
  MetricsRegistry registry;
  registry.RegisterGauge("tick", "", {}, [] { return 1.0; });
  registry.StartSampler(/*interval_seconds=*/0.002);
  EXPECT_TRUE(registry.sampler_running());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (registry.samples_taken() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(registry.samples_taken(), 3u);
  registry.StopSampler();
  EXPECT_FALSE(registry.sampler_running());
  registry.StopSampler();  // idempotent

  // Restartable after a stop.
  const uint64_t before = registry.samples_taken();
  registry.StartSampler(0.002);
  while (registry.samples_taken() == before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(registry.samples_taken(), before);
  // The destructor stops the second sampler.
}

TEST(MetricsRegistryTest, PrometheusExpositionGolden) {
  MetricsRegistry registry;  // no Statistics: gauges only
  registry.RegisterGauge("cache.shard_bytes", "bytes in one shard",
                         {{"shard", "0"}}, [] { return 10.0; });
  registry.RegisterGauge("cache.shard_bytes", "bytes in one shard",
                         {{"shard", "1"}}, [] { return 20.5; });
  registry.RegisterGauge("pool.active", "busy workers", {},
                         [] { return 2.0; });
  registry.SampleOnce();
  EXPECT_EQ(registry.ToPrometheusText(),
            "# HELP heaven_cache_shard_bytes bytes in one shard\n"
            "# TYPE heaven_cache_shard_bytes gauge\n"
            "heaven_cache_shard_bytes{shard=\"0\"} 10\n"
            "heaven_cache_shard_bytes{shard=\"1\"} 20.5\n"
            "# HELP heaven_pool_active busy workers\n"
            "# TYPE heaven_pool_active gauge\n"
            "heaven_pool_active 2\n");
}

TEST(MetricsRegistryTest, PrometheusFamiliesAreContiguous) {
  MetricsRegistry registry;
  // Interleaved registration order must still yield one TYPE line per
  // family with its series grouped beneath it.
  for (int d = 0; d < 3; ++d) {
    const MetricLabels labels = {{"drive", std::to_string(d)}};
    registry.RegisterGauge("drive.online", "", labels, [] { return 1.0; });
    registry.RegisterGauge("drive.head", "", labels, [] { return 0.0; });
  }
  registry.SampleOnce();
  const std::string text = registry.ToPrometheusText();
  size_t type_lines = 0;
  for (size_t pos = text.find("# TYPE"); pos != std::string::npos;
       pos = text.find("# TYPE", pos + 1)) {
    ++type_lines;
  }
  EXPECT_EQ(type_lines, 2u);
}

TEST(MetricsRegistryTest, JsonExportIsWellFormed) {
  Statistics stats;
  stats.Record(Ticker::kCacheHits, 7);
  MetricsRegistry registry(&stats);
  registry.RegisterGauge("g", "", {{"a", "b"}}, [] { return 1.25; });
  registry.SampleOnce();

  Result<JsonValue> parsed = ParseJson(registry.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& root = parsed.value();
  EXPECT_EQ(root.at("samples_taken").number, 1.0);
  ASSERT_EQ(root.at("gauges").array.size(), 1u);
  const JsonValue& gauge = root.at("gauges").array[0];
  EXPECT_EQ(gauge.at("name").str, "g");
  EXPECT_EQ(gauge.at("labels").at("a").str, "b");
  EXPECT_DOUBLE_EQ(gauge.at("value").number, 1.25);
  EXPECT_EQ(root.at("stats").at("counters").at("cache.hits").number, 7.0);
}

// --------------------------------------------------------- QueryProfiler --

TEST(QueryProfilerTest, DisabledProfilerRecordsNothing) {
  QueryProfiler profiler;
  {
    QueryProfiler::Scope scope(&profiler, "q");
    EXPECT_FALSE(scope.active());
    ScopedSpan span(nullptr, "fetch", ProfileStage::kTapeFetch);
    EXPECT_FALSE(span.profiled());
  }
  EXPECT_EQ(profiler.profiles_recorded(), 0u);
  QueryProfile profile;
  EXPECT_FALSE(profiler.Last(&profile));
}

TEST(QueryProfilerTest, StageSpansAttributeSimTime) {
  SimClock clock;
  QueryProfiler profiler;
  profiler.SetClock(&clock);
  profiler.SetEnabled(true);
  {
    QueryProfiler::Scope scope(&profiler, "q");
    ASSERT_TRUE(scope.active());
    {
      ScopedSpan span(nullptr, "fetch", ProfileStage::kTapeFetch);
      span.SetBytes(100);
      clock.Advance(2.5);
    }
    {
      ScopedSpan span(nullptr, "scatter", ProfileStage::kScatter);
      clock.Advance(0.5);
    }
  }
  QueryProfile profile;
  ASSERT_TRUE(profiler.Last(&profile));
  EXPECT_EQ(profile.label, "q");
  EXPECT_DOUBLE_EQ(profile.stage(ProfileStage::kTapeFetch).sim_seconds, 2.5);
  EXPECT_EQ(profile.stage(ProfileStage::kTapeFetch).bytes, 100u);
  EXPECT_EQ(profile.stage(ProfileStage::kTapeFetch).count, 1u);
  EXPECT_DOUBLE_EQ(profile.stage(ProfileStage::kScatter).sim_seconds, 0.5);
  EXPECT_DOUBLE_EQ(profile.total_sim_seconds, 3.0);
  EXPECT_EQ(profile.stage(ProfileStage::kDecode).count, 0u);
}

TEST(QueryProfilerTest, NestedScopesFoldIntoOutermost) {
  QueryProfiler profiler;
  profiler.SetEnabled(true);
  {
    QueryProfiler::Scope outer(&profiler, "outer");
    ASSERT_TRUE(outer.active());
    {
      QueryProfiler::Scope inner(&profiler, "inner");
      EXPECT_FALSE(inner.active());
      ScopedSpan span(nullptr, "parse", ProfileStage::kParsePlan);
      EXPECT_TRUE(span.profiled());
    }
    EXPECT_EQ(profiler.profiles_recorded(), 0u);  // inner published nothing
  }
  ASSERT_EQ(profiler.profiles_recorded(), 1u);
  QueryProfile profile;
  ASSERT_TRUE(profiler.Last(&profile));
  EXPECT_EQ(profile.label, "outer");
  EXPECT_EQ(profile.stage(ProfileStage::kParsePlan).count, 1u);
}

TEST(QueryProfilerTest, RecentIsBoundedAndNewestLast) {
  QueryProfiler profiler;
  profiler.SetEnabled(true);
  const size_t total = QueryProfiler::kMaxRecent + 5;
  for (size_t i = 0; i < total; ++i) {
    QueryProfiler::Scope scope(&profiler, "q" + std::to_string(i));
  }
  EXPECT_EQ(profiler.profiles_recorded(), total);
  const std::vector<QueryProfile> recent = profiler.Recent();
  ASSERT_EQ(recent.size(), QueryProfiler::kMaxRecent);
  EXPECT_EQ(recent.back().label, "q" + std::to_string(total - 1));
  QueryProfile last;
  ASSERT_TRUE(profiler.Last(&last));
  EXPECT_EQ(last.label, recent.back().label);
  profiler.Clear();
  EXPECT_FALSE(profiler.Last(&last));
}

TEST(QueryProfilerTest, ProfileJsonIsWellFormed) {
  QueryProfiler profiler;
  profiler.SetEnabled(true);
  { QueryProfiler::Scope scope(&profiler, "q"); }
  QueryProfile profile;
  ASSERT_TRUE(profiler.Last(&profile));
  Result<JsonValue> parsed = ParseJson(profile.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().at("label").str, "q");
  EXPECT_EQ(parsed.value().at("stages").object.size(),
            static_cast<size_t>(ProfileStage::kNumStages));
}

// ------------------------------------------------------------ BenchReport --

TEST(BenchReportTest, RenderParseRoundTrip) {
  Statistics stats;
  stats.Record(Ticker::kCacheMisses, 3);
  BenchReport report = MakeBenchReport("bench_demo");
  BenchRunRecord run;
  run.label = "cold";
  run.tape_seconds = 42.5;
  run.client_seconds = 1.25;
  run.stats_json = stats.ToJson();
  report.runs.push_back(run);
  BenchRunRecord statless;
  statless.label = "baseline";
  statless.tape_seconds = 7.0;
  report.runs.push_back(statless);

  const std::string text = report.RenderJson();
  Result<BenchReport> parsed = BenchReport::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->schema_version, 1);
  EXPECT_EQ(parsed->bench, "bench_demo");
  EXPECT_FALSE(parsed->compiler.empty());
  ASSERT_EQ(parsed->runs.size(), 2u);
  EXPECT_EQ(parsed->runs[0].label, "cold");
  EXPECT_DOUBLE_EQ(parsed->runs[0].tape_seconds, 42.5);
  EXPECT_DOUBLE_EQ(parsed->runs[0].client_seconds, 1.25);
  EXPECT_NE(parsed->runs[0].stats_json.find("cache.misses"),
            std::string::npos);
  EXPECT_TRUE(parsed->runs[1].stats_json.empty());
}

TEST(BenchReportTest, RejectsWrongSchemaVersion) {
  BenchReport report = MakeBenchReport("b");
  std::string text = report.RenderJson();
  const std::string needle = "\"schema_version\":1";
  const size_t pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, needle.size(), "\"schema_version\":2");
  EXPECT_FALSE(BenchReport::Parse(text).ok());
  EXPECT_FALSE(BenchReport::Parse("[]").ok());
  EXPECT_FALSE(BenchReport::Parse("{\"schema_version\":1}").ok());
}

// ------------------------------------------------------------- Trace ring --

TEST(TraceRingTest, BoundedCapacityEvictsOldestAndCounts) {
  TraceCollector trace;
  SimClock clock;
  trace.SetClock(&clock);
  trace.Enable(true);
  trace.SetCapacity(4);
  EXPECT_EQ(trace.capacity(), 4u);
  for (int i = 0; i < 10; ++i) {
    ScopedSpan span(&trace, "s" + std::to_string(i));
    clock.Advance(1.0);
  }
  EXPECT_EQ(trace.dropped(), 6u);
  const std::vector<Span> spans = trace.Spans();
  ASSERT_EQ(spans.size(), 4u);
  // The survivors are the most recent spans.
  EXPECT_EQ(spans.front().name, "s6");
  EXPECT_EQ(spans.back().name, "s9");

  // Shrinking below the live size evicts immediately.
  trace.SetCapacity(2);
  EXPECT_EQ(trace.dropped(), 8u);
  EXPECT_EQ(trace.Spans().size(), 2u);
}

// ------------------------------------------------------------ Integration --

class MetricsDbTest : public ::testing::Test {
 protected:
  void SetUp() override { Open(HeavenOptions()); }

  // Serial by default: sim time accrues on the query thread.
  void Open(HeavenOptions options, size_t num_threads = 1) {
    db_.reset();
    env_ = std::make_unique<MemEnv>();
    options.library.profile = MidTapeProfile();
    options.library.num_drives = 2;
    options.library.num_media = 8;
    options.disk_tile_bytes = 2048;
    options.supertile_bytes = 16 << 10;
    options.enable_prefetch = false;  // keep the tape timeline query-only
    options.num_threads = num_threads;
    auto db = HeavenDb::Open(env_.get(), "/db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
    db_->stats()->trace()->Enable(true);
    auto coll = db_->CreateCollection("c");
    ASSERT_TRUE(coll.ok());
    collection_ = coll.value();
  }

  ObjectId InsertAndExport() {
    const MdInterval domain({0, 0}, {127, 127});
    MddArray data(domain, CellType::kFloat);
    data.Generate([](const MdPoint& p) {
      return static_cast<double>(p[0] + p[1]);
    });
    auto id = db_->InsertObject(collection_, "obj", data);
    EXPECT_TRUE(id.ok());
    EXPECT_TRUE(db_->ExportObject(*id).ok());
    return *id;
  }

  std::unique_ptr<MemEnv> env_;
  std::unique_ptr<HeavenDb> db_;
  CollectionId collection_ = 0;
};

// The headline guarantee: a tape-hitting query's profile reconciles with
// the trace span that covers it — total simulated seconds match the
// query.read_region span duration within 1%, and the tape-fetch stage
// carries that time.
TEST_F(MetricsDbTest, ProfileReconcilesWithQuerySpan) {
  const ObjectId id = InsertAndExport();
  db_->stats()->trace()->Clear();
  db_->profiler()->SetEnabled(true);

  auto result = db_->ReadRegion(id, MdInterval({0, 0}, {63, 63}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  QueryProfile profile;
  ASSERT_TRUE(db_->profiler()->Last(&profile));
  EXPECT_EQ(profile.label, "read_region");
  ASSERT_GT(profile.total_sim_seconds, 0.0) << "query should have hit tape";
  EXPECT_GE(profile.cache_misses, 1u);
  EXPECT_GT(profile.stage(ProfileStage::kTapeFetch).bytes, 0u);
  EXPECT_GT(profile.stage(ProfileStage::kScatter).bytes, 0u);

  double span_duration = -1.0;
  for (const Span& span : db_->stats()->trace()->Spans()) {
    if (span.name == "query.read_region") span_duration = span.duration();
  }
  ASSERT_GE(span_duration, 0.0) << "query span missing from trace";
  EXPECT_NEAR(profile.total_sim_seconds, span_duration,
              span_duration * 0.01);
  // In the serial path every simulated second of the query is tape time.
  EXPECT_NEAR(profile.stage(ProfileStage::kTapeFetch).sim_seconds,
              profile.total_sim_seconds, profile.total_sim_seconds * 0.01);
}

// A warm re-read is a cache hit: no new sim time, hits counted.
TEST_F(MetricsDbTest, WarmReadProfilesAsCacheHit) {
  const ObjectId id = InsertAndExport();
  db_->profiler()->SetEnabled(true);
  ASSERT_TRUE(db_->ReadRegion(id, MdInterval({0, 0}, {63, 63})).ok());
  ASSERT_TRUE(db_->ReadRegion(id, MdInterval({0, 0}, {63, 63})).ok());
  QueryProfile profile;
  ASSERT_TRUE(db_->profiler()->Last(&profile));
  EXPECT_GE(profile.cache_hits, 1u);
  EXPECT_EQ(profile.cache_misses, 0u);
  EXPECT_DOUBLE_EQ(profile.stage(ProfileStage::kTapeFetch).sim_seconds, 0.0);
}

// Two clients read disjoint cached objects at once: each query counts its
// own super-tile lookups, never the other client's.
TEST_F(MetricsDbTest, ConcurrentQueriesCountOwnCacheHits) {
  std::vector<ObjectId> ids;
  for (const char* name : {"a", "b"}) {
    MddArray data(MdInterval({0, 0}, {127, 127}), CellType::kFloat);
    data.Generate([](const MdPoint& p) {
      return static_cast<double>(p[0] * 3 + p[1]);
    });
    auto id = db_->InsertObject(collection_, name, data);
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(db_->ExportObject(*id).ok());
    ASSERT_TRUE(db_->ReadObject(*id).ok());  // warm the cache
    ids.push_back(*id);
  }
  std::map<ObjectId, uint64_t> supertiles;
  for (const SuperTileMeta& meta : db_->RegistrySnapshot()) {
    ++supertiles[meta.object_id];
  }
  ASSERT_GT(supertiles[ids[0]], 1u);
  ASSERT_EQ(supertiles[ids[0]], supertiles[ids[1]]);

  db_->profiler()->SetEnabled(true);
  // Each client drains the bounded Recent() ring after every read, so no
  // profile is lost however long the clients overlap.
  constexpr size_t kReadsPerClient = 100;
  std::mutex mu;
  std::map<uint64_t, QueryProfile> profiles;  // by query id
  std::atomic<int> ready{0};
  std::vector<std::thread> clients;
  for (ObjectId id : ids) {
    clients.emplace_back([&, id] {
      ready.fetch_add(1);
      while (ready.load() < 2) std::this_thread::yield();
      for (size_t i = 0; i < kReadsPerClient; ++i) {
        EXPECT_TRUE(db_->ReadObject(id).ok());
        std::lock_guard<std::mutex> lock(mu);
        for (QueryProfile& profile : db_->profiler()->Recent()) {
          profiles.emplace(profile.query_id, std::move(profile));
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();

  ASSERT_EQ(profiles.size(), 2 * kReadsPerClient);
  for (const auto& [query_id, profile] : profiles) {
    EXPECT_EQ(profile.cache_hits, supertiles[ids[0]]) << "query " << query_id;
    EXPECT_EQ(profile.cache_misses, 0u) << "query " << query_id;
  }
}

// Every pooled decode is one kDecode section of the submitting query, on
// no simulated time, and its span hangs below the query span.
TEST_F(MetricsDbTest, DecodeStageCountsEveryPooledDecode) {
  for (size_t threads : {1, 4}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    Open(HeavenOptions(), threads);
    const ObjectId id = InsertAndExport();
    db_->stats()->trace()->Clear();
    db_->profiler()->SetEnabled(true);
    const uint64_t read_before = db_->stats()->Get(Ticker::kSuperTilesRead);
    ASSERT_TRUE(db_->ReadRegion(id, MdInterval({0, 0}, {127, 127})).ok());
    const uint64_t fetched =
        db_->stats()->Get(Ticker::kSuperTilesRead) - read_before;
    ASSERT_GT(fetched, 1u);

    QueryProfile profile;
    ASSERT_TRUE(db_->profiler()->Last(&profile));
    EXPECT_EQ(profile.stage(ProfileStage::kDecode).count, fetched);
    EXPECT_EQ(profile.stage(ProfileStage::kDecode).sim_seconds, 0.0);

    std::map<SpanId, Span> by_id;
    SpanId query_id = 0;
    for (const Span& span : db_->stats()->trace()->Spans()) {
      by_id[span.id] = span;
      if (span.name == "query.read_region") query_id = span.id;
    }
    ASSERT_NE(query_id, 0u);
    uint64_t decodes = 0;
    for (const auto& [span_id, span] : by_id) {
      if (span.name != "supertile.decode") continue;
      ++decodes;
      SpanId p = span.parent;
      while (p != 0 && p != query_id) p = by_id[p].parent;
      EXPECT_EQ(p, query_id) << "decode span " << span_id;
    }
    EXPECT_EQ(decodes, fetched);
  }
}

// A RasQL statement profiles under the "rasql" label with parse time.
TEST_F(MetricsDbTest, RasqlStatementProfilesWithParseStage) {
  InsertAndExport();
  db_->profiler()->SetEnabled(true);
  auto result = rasql::ExecuteString(
      db_.get(), "select avg_cells(obj[0:31,0:31]) from c");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  QueryProfile profile;
  ASSERT_TRUE(db_->profiler()->Last(&profile));
  EXPECT_EQ(profile.label, "rasql");
  EXPECT_EQ(profile.stage(ProfileStage::kParsePlan).count, 1u);
  // The nested ReadRegion folded into this profile instead of its own.
  EXPECT_EQ(db_->profiler()->profiles_recorded(), 1u);
}

// The standard gauges move across a scripted workload: cache occupancy
// grows after a tape read, and the exposition carries the live values.
TEST_F(MetricsDbTest, StandardGaugesTrackWorkload) {
  const ObjectId id = InsertAndExport();

  db_->metrics()->SampleOnce();
  auto find_gauge = [this](const std::string& name) {
    double sum = 0.0;
    bool found = false;
    for (const GaugeSample& sample : db_->metrics()->LatestSamples()) {
      if (sample.name == name) {
        sum += sample.value;
        found = true;
      }
    }
    EXPECT_TRUE(found) << "gauge not registered: " << name;
    return sum;
  };

  const double cache_before = find_gauge("cache.bytes");
  ASSERT_TRUE(db_->ReadRegion(id, MdInterval({0, 0}, {63, 63})).ok());
  db_->metrics()->SampleOnce();
  const double cache_after = find_gauge("cache.bytes");
  EXPECT_GT(cache_after, cache_before);
  // Sharded occupancy sums to the total.
  EXPECT_DOUBLE_EQ(find_gauge("cache.shard_bytes"), cache_after);
  // A drive served the fetch, so at least one is occupied with a head
  // position past the start of its medium.
  EXPECT_GE(find_gauge("tape.drive_occupied"), 1.0);
  EXPECT_GT(find_gauge("tape.drive_head_position"), 0.0);
  EXPECT_EQ(find_gauge("tct.queue_depth"), 0.0);
  EXPECT_EQ(find_gauge("fetch.inflight"), 0.0);

  const std::string text = db_->ExportMetrics(/*as_json=*/false);
  EXPECT_NE(text.find("heaven_cache_bytes"), std::string::npos);
  EXPECT_NE(text.find("heaven_tape_drive_online{drive=\"0\"}"),
            std::string::npos);
  Result<JsonValue> json = ParseJson(db_->ExportMetrics(/*as_json=*/true));
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_GE(json->at("samples_taken").number, 2.0);
}

// With fault injection configured, per-site injection counters surface as
// labeled gauges and the retry ticker is exported alongside them.
TEST_F(MetricsDbTest, FaultInjectionSurfacesAsLabeledGauges) {
  HeavenOptions options;
  options.fault_policy.enabled = true;
  options.fault_policy.seed = 7;
  options.fault_policy.tape_read_error_p = 0.5;
  Open(std::move(options));
  const ObjectId id = InsertAndExport();
  // Drive reads until at least one fault fires (the retry policy hides
  // them from the caller).
  for (int i = 0; i < 20 && db_->fault_injector()->injected() == 0; ++i) {
    (void)db_->ReadRegion(id, MdInterval({0, 0}, {127, 127}));
  }
  db_->metrics()->SampleOnce();
  double injected = 0.0;
  std::set<std::string> sites;
  for (const GaugeSample& sample : db_->metrics()->LatestSamples()) {
    if (sample.name != "fault.injected") continue;
    ASSERT_EQ(sample.labels.size(), 1u);
    EXPECT_EQ(sample.labels[0].first, "site");
    sites.insert(sample.labels[0].second);
    injected += sample.value;
  }
  EXPECT_TRUE(sites.count("tape_read")) << "per-site gauge missing";
  EXPECT_EQ(static_cast<uint64_t>(injected),
            db_->fault_injector()->injected());
  const std::string text = db_->ExportMetrics(false);
  EXPECT_NE(text.find("heaven_fault_injected{site=\"tape_read\"}"),
            std::string::npos);
}

// The background sampler runs against a live database without tripping
// sanitizers, and the destructor stops it cleanly.
TEST_F(MetricsDbTest, BackgroundSamplerOverLiveDatabase) {
  HeavenOptions options;
  options.metrics_sampler_interval_s = 0.002;
  Open(std::move(options));
  EXPECT_TRUE(db_->metrics()->sampler_running());
  const ObjectId id = InsertAndExport();
  ASSERT_TRUE(db_->ReadRegion(id, MdInterval({0, 0}, {63, 63})).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (db_->metrics()->samples_taken() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(db_->metrics()->samples_taken(), 2u);
  db_.reset();  // must stop the sampler before members die
}

// The runtime setter bounds the database's trace ring.
TEST_F(MetricsDbTest, TraceCapacityOptionBoundsTheRing) {
  db_->stats()->trace()->SetCapacity(8);
  EXPECT_EQ(db_->stats()->trace()->capacity(), 8u);
  const ObjectId id = InsertAndExport();
  ASSERT_TRUE(db_->ReadRegion(id, MdInterval({0, 0}, {127, 127})).ok());
  EXPECT_LE(db_->stats()->trace()->Spans().size(), 8u);
  EXPECT_GT(db_->stats()->trace()->dropped(), 0u);
}

}  // namespace
}  // namespace heaven
