// Tests for the observability layer: log-bucketed histograms, the span
// trace collector, JSON export, and the end-to-end guarantee that a
// tape-hitting query's tape spans account for the analytic clock delta.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/histogram.h"
#include "common/sim_clock.h"
#include "common/statistics.h"
#include "common/trace.h"
#include "heaven/heaven_db.h"

namespace heaven {
namespace {

// ------------------------------------------------------------- Histogram --

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Percentile(50), 0.0);
}

TEST(HistogramTest, ExactMoments) {
  Histogram h;
  for (double v : {1.0, 2.0, 4.0, 8.0, 16.0}) h.Record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 16.0);
  EXPECT_EQ(h.sum(), 31.0);
  EXPECT_DOUBLE_EQ(h.mean(), 31.0 / 5.0);
}

// Quarter-octave buckets: every percentile estimate lies within one bucket
// (a factor of 2^(1/4) ~ 1.19) of the true order statistic.
TEST(HistogramTest, PercentilesWithinBucketError) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Record(static_cast<double>(i));
  const double kTol = std::pow(2.0, 0.25);
  const double p50 = h.Percentile(50);
  EXPECT_GE(p50, 50.0 / kTol);
  EXPECT_LE(p50, 50.0 * kTol);
  const double p95 = h.Percentile(95);
  EXPECT_GE(p95, 95.0 / kTol);
  EXPECT_LE(p95, 95.0 * kTol);
  // Percentiles are monotone and clamped to the observed range.
  EXPECT_LE(h.Percentile(50), h.Percentile(95));
  EXPECT_LE(h.Percentile(95), h.Percentile(99));
  EXPECT_GE(h.Percentile(0), 1.0);
  EXPECT_LE(h.Percentile(100), 100.0);
}

TEST(HistogramTest, SingleValuePercentilesClampToIt) {
  Histogram h;
  h.Record(40.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 40.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 40.0);
}

TEST(HistogramTest, ZeroAndTinyValuesLandInUnderflowBucket) {
  Histogram h;
  h.Record(0.0);
  h.Record(1e-9);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_LE(h.Percentile(50), 1e-6);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(3.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
}

TEST(HistogramTest, SnapshotMatchesAccessors) {
  Histogram h;
  for (double v : {0.5, 1.5, 2.5}) h.Record(v);
  const HistogramData d = h.Snapshot();
  EXPECT_EQ(d.count, 3u);
  EXPECT_EQ(d.min, 0.5);
  EXPECT_EQ(d.max, 2.5);
  EXPECT_EQ(d.sum, 4.5);
  EXPECT_DOUBLE_EQ(d.mean, 1.5);
  EXPECT_EQ(d.p50, h.Percentile(50));
  EXPECT_EQ(d.p95, h.Percentile(95));
  EXPECT_EQ(d.p99, h.Percentile(99));
}

TEST(HistogramTest, AllKindsHaveDistinctWellFormedNames) {
  std::set<std::string> names;
  for (int i = 0; i < static_cast<int>(HistogramKind::kNumHistograms); ++i) {
    const std::string name = HistogramName(static_cast<HistogramKind>(i));
    SCOPED_TRACE(name);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name.find('.'), std::string::npos);
    names.insert(name);
  }
  EXPECT_EQ(names.size(),
            static_cast<size_t>(HistogramKind::kNumHistograms));
}

// ----------------------------------------------------------------- Trace --

TEST(TraceTest, DisabledCollectorRecordsNothing) {
  TraceCollector trace;
  { ScopedSpan span(&trace, "noop"); }
  EXPECT_TRUE(trace.Spans().empty());
}

TEST(TraceTest, NestedSpansFormParentChildTree) {
  SimClock clock;
  TraceCollector trace;
  trace.SetClock(&clock);
  trace.Enable(true);
  {
    ScopedSpan root(&trace, "query");
    clock.Advance(1.0);
    {
      ScopedSpan child(&trace, "fetch");
      clock.Advance(2.0);
      {
        ScopedSpan grandchild(&trace, "seek");
        clock.Advance(3.0);
      }
    }
    {
      ScopedSpan sibling(&trace, "decode");
      sibling.SetBytes(128);
    }
  }
  const std::vector<Span> spans = trace.Spans();
  ASSERT_EQ(spans.size(), 4u);
  std::map<std::string, Span> by_name;
  for (const Span& s : spans) by_name[s.name] = s;
  EXPECT_EQ(by_name["query"].parent, 0u);
  EXPECT_EQ(by_name["fetch"].parent, by_name["query"].id);
  EXPECT_EQ(by_name["seek"].parent, by_name["fetch"].id);
  EXPECT_EQ(by_name["decode"].parent, by_name["query"].id);
  EXPECT_DOUBLE_EQ(by_name["query"].duration(), 6.0);
  EXPECT_DOUBLE_EQ(by_name["fetch"].duration(), 5.0);
  EXPECT_DOUBLE_EQ(by_name["seek"].duration(), 3.0);
  EXPECT_DOUBLE_EQ(by_name["seek"].start, 3.0);
  EXPECT_EQ(by_name["decode"].bytes, 128u);
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(TraceTest, ClearResets) {
  TraceCollector trace;
  trace.Enable(true);
  { ScopedSpan span(&trace, "a"); }
  EXPECT_EQ(trace.Spans().size(), 1u);
  trace.Clear();
  EXPECT_TRUE(trace.Spans().empty());
}

TEST(TraceTest, SpansOpenedWhileDisabledStayAbsent) {
  TraceCollector trace;
  trace.Enable(true);
  { ScopedSpan a(&trace, "kept"); }
  trace.Enable(false);
  { ScopedSpan b(&trace, "skipped"); }
  const std::vector<Span> spans = trace.Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "kept");
}

// ------------------------------------------------- Minimal JSON parser --
//
// Just enough JSON to round-trip the export format: objects, arrays,
// strings (no escapes beyond \" \\), numbers, bools, null.

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool b = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const {
    auto it = object.find(key);
    EXPECT_NE(it, object.end()) << "missing key: " << key;
    static const JsonValue kEmpty;
    return it == object.end() ? kEmpty : it->second;
  }
  bool has(const std::string& key) const { return object.count(key) > 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    const bool ok = Value(out);
    SkipSpace();
    return ok && pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(text_[pos_])) ++pos_;
  }
  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ParseString(std::string* out) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) {
        ++pos_;
        switch (text_[pos_]) {
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          default: out->push_back(text_[pos_]);
        }
      } else {
        out->push_back(text_[pos_]);
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool Value(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = JsonValue::kObject;
      if (Consume('}')) return true;
      do {
        std::string key;
        if (!ParseString(&key) || !Consume(':')) return false;
        if (!Value(&out->object[key])) return false;
      } while (Consume(','));
      return Consume('}');
    }
    if (c == '[') {
      ++pos_;
      out->kind = JsonValue::kArray;
      if (Consume(']')) return true;
      do {
        out->array.emplace_back();
        if (!Value(&out->array.back())) return false;
      } while (Consume(','));
      return Consume(']');
    }
    if (c == '"') {
      out->kind = JsonValue::kString;
      return ParseString(&out->str);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out->kind = JsonValue::kBool;
      out->b = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out->kind = JsonValue::kBool;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    // Number.
    size_t end = pos_;
    while (end < text_.size() &&
           (std::isdigit(text_[end]) || text_[end] == '-' ||
            text_[end] == '+' || text_[end] == '.' || text_[end] == 'e' ||
            text_[end] == 'E')) {
      ++end;
    }
    if (end == pos_) return false;
    out->kind = JsonValue::kNumber;
    out->number = std::stod(text_.substr(pos_, end - pos_));
    pos_ = end;
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ------------------------------------------------------------ JSON export --

TEST(StatsJsonTest, RoundTripsThroughParser) {
  Statistics stats;
  stats.Record(Ticker::kTapeSeeks, 7);
  stats.RecordHistogram(HistogramKind::kTapeSeekSeconds, 2.0);
  stats.RecordHistogram(HistogramKind::kTapeSeekSeconds, 4.0);

  JsonValue root;
  ASSERT_TRUE(JsonParser(stats.ToJson()).Parse(&root));
  EXPECT_EQ(root.at("counters").at("tape.seeks").number, 7.0);
  const JsonValue& seek =
      root.at("histograms").at("tape.seek_seconds");
  EXPECT_EQ(seek.at("count").number, 2.0);
  EXPECT_EQ(seek.at("min").number, 2.0);
  EXPECT_EQ(seek.at("max").number, 4.0);
  EXPECT_EQ(seek.at("sum").number, 6.0);
}

// Acceptance criterion: ToJson exposes p50/p95/p99 for every kind, even
// ones never recorded.
TEST(StatsJsonTest, EveryHistogramKindExportsPercentiles) {
  Statistics stats;
  JsonValue root;
  ASSERT_TRUE(JsonParser(stats.ToJson()).Parse(&root));
  const JsonValue& histograms = root.at("histograms");
  for (int i = 0; i < static_cast<int>(HistogramKind::kNumHistograms); ++i) {
    const std::string name = HistogramName(static_cast<HistogramKind>(i));
    SCOPED_TRACE(name);
    ASSERT_TRUE(histograms.has(name));
    const JsonValue& h = histograms.at(name);
    EXPECT_TRUE(h.has("p50"));
    EXPECT_TRUE(h.has("p95"));
    EXPECT_TRUE(h.has("p99"));
    EXPECT_TRUE(h.has("count"));
    EXPECT_TRUE(h.has("mean"));
  }
  // Every ticker is present too.
  const JsonValue& counters = root.at("counters");
  for (int i = 0; i < static_cast<int>(Ticker::kNumTickers); ++i) {
    EXPECT_TRUE(counters.has(TickerName(static_cast<Ticker>(i))));
  }
}

TEST(TraceJsonTest, RoundTripsThroughParser) {
  SimClock clock;
  TraceCollector trace;
  trace.SetClock(&clock);
  trace.Enable(true);
  {
    ScopedSpan root_span(&trace, "outer \"quoted\"");
    clock.Advance(1.5);
    {
      ScopedSpan child(&trace, "inner");
      child.SetBytes(42);
      clock.Advance(0.5);
    }
  }
  JsonValue root;
  ASSERT_TRUE(JsonParser(trace.ToJson()).Parse(&root));
  EXPECT_EQ(root.at("dropped").number, 0.0);
  const JsonValue& spans = root.at("spans");
  ASSERT_EQ(spans.array.size(), 2u);
  const JsonValue& outer = spans.array[0];
  const JsonValue& inner = spans.array[1];
  EXPECT_EQ(outer.at("name").str, "outer \"quoted\"");
  EXPECT_EQ(outer.at("parent").number, 0.0);
  EXPECT_EQ(inner.at("parent").number, outer.at("id").number);
  EXPECT_DOUBLE_EQ(outer.at("duration").number, 2.0);
  EXPECT_DOUBLE_EQ(inner.at("start").number, 1.5);
  EXPECT_EQ(inner.at("bytes").number, 42.0);
}

// ------------------------------------------------------------ Integration --

class ObservabilityDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = std::make_unique<MemEnv>();
    HeavenOptions options;
    options.library.profile = MidTapeProfile();
    options.library.num_drives = 2;
    options.library.num_media = 8;
    options.disk_tile_bytes = 2048;
    options.supertile_bytes = 16 << 10;
    options.enable_prefetch = false;  // keep the tape timeline query-only
    auto db = HeavenDb::Open(env_.get(), "/db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
    db_->stats()->trace()->Enable(true);
    auto coll = db_->CreateCollection("c");
    ASSERT_TRUE(coll.ok());
    collection_ = coll.value();
  }

  std::unique_ptr<MemEnv> env_;
  std::unique_ptr<HeavenDb> db_;
  CollectionId collection_ = 0;
};

// The trace must explain the analytic clock: for a tape-hitting query, the
// exchange + seek + transfer spans recorded during the query sum to the
// TapeSeconds() delta within 1 %.
TEST_F(ObservabilityDbTest, TapeSpansAccountForQueryTapeTime) {
  const MdInterval domain({0, 0}, {127, 127});
  MddArray data(domain, CellType::kFloat);
  data.Generate([](const MdPoint& p) {
    return static_cast<double>(p[0] + p[1]);
  });
  auto id = db_->InsertObject(collection_, "obj", data);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(db_->ExportObject(*id).ok());

  db_->stats()->trace()->Clear();
  const double tape_before = db_->TapeSeconds();
  auto subset =
      db_->ReadRegion(*id, MdInterval({0, 0}, {63, 63}));
  ASSERT_TRUE(subset.ok()) << subset.status().ToString();
  const double tape_delta = db_->TapeSeconds() - tape_before;
  ASSERT_GT(tape_delta, 0.0) << "query should have hit tape";

  double span_sum = 0.0;
  bool saw_exchange = false, saw_seek = false, saw_transfer = false;
  for (const Span& s : db_->stats()->trace()->Spans()) {
    if (s.name == "tape.exchange") {
      saw_exchange = true;
      span_sum += s.duration();
    } else if (s.name == "tape.seek") {
      saw_seek = true;
      span_sum += s.duration();
    } else if (s.name == "tape.transfer") {
      saw_transfer = true;
      span_sum += s.duration();
    }
  }
  EXPECT_TRUE(saw_seek);
  EXPECT_TRUE(saw_transfer);
  // The cartridge may still be mounted from the export; exchange spans are
  // only required when the clock delta includes one.
  (void)saw_exchange;
  EXPECT_NEAR(span_sum, tape_delta, tape_delta * 0.01);

  // The same query populated the query-level histograms.
  EXPECT_GE(db_->stats()->histogram(HistogramKind::kQuerySeconds).count(),
            1u);
  EXPECT_GE(
      db_->stats()->histogram(HistogramKind::kSuperTileFetchSeconds).count(),
      1u);
}

// The query span tree has the expected shape: a query root with fetch
// children whose own children are tape operations.
TEST_F(ObservabilityDbTest, QuerySpanTreeShape) {
  const MdInterval domain({0, 0}, {127, 127});
  MddArray data(domain, CellType::kFloat);
  data.Generate([](const MdPoint&) { return 1.0; });
  auto id = db_->InsertObject(collection_, "obj", data);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(db_->ExportObject(*id).ok());
  db_->stats()->trace()->Clear();
  ASSERT_TRUE(db_->ReadRegion(*id, MdInterval({0, 0}, {31, 31})).ok());

  std::map<SpanId, Span> by_id;
  SpanId query_id = 0, fetch_id = 0;
  for (const Span& s : db_->stats()->trace()->Spans()) {
    by_id[s.id] = s;
    if (s.name == "query.read_region") query_id = s.id;
    if (s.name == "supertile.fetch") fetch_id = s.id;
  }
  ASSERT_NE(query_id, 0u);
  ASSERT_NE(fetch_id, 0u);
  EXPECT_EQ(by_id[query_id].parent, 0u);
  // The fetch hangs below the query (directly or via the schedule span).
  SpanId p = by_id[fetch_id].parent;
  while (p != 0 && p != query_id) p = by_id[p].parent;
  EXPECT_EQ(p, query_id);
  // Tape operations hang below the fetch.
  bool tape_under_fetch = false;
  for (const auto& [sid, s] : by_id) {
    if (s.name.rfind("tape.", 0) == 0 && s.parent == fetch_id) {
      tape_under_fetch = true;
    }
  }
  EXPECT_TRUE(tape_under_fetch);
}

}  // namespace
}  // namespace heaven
