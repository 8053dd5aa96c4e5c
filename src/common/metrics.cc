#include "common/metrics.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/coding.h"

namespace heaven {

namespace {

/// "cache.shard_bytes" -> "heaven_cache_shard_bytes".
std::string PromName(std::string_view name) {
  std::string out = "heaven_";
  for (char c : name) out.push_back((c == '.' || c == '-') ? '_' : c);
  return out;
}

void AppendPromLabelValue(std::string* out, std::string_view value) {
  out->push_back('"');
  for (char c : value) {
    if (c == '\\' || c == '"') out->push_back('\\');
    if (c == '\n') {
      out->append("\\n");
      continue;
    }
    out->push_back(c);
  }
  out->push_back('"');
}

std::string PromLabels(const MetricLabels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += labels[i].first;
    out.push_back('=');
    AppendPromLabelValue(&out, labels[i].second);
  }
  out.push_back('}');
  return out;
}

}  // namespace

MetricsRegistry::MetricsRegistry(Statistics* stats) : stats_(stats) {}

MetricsRegistry::~MetricsRegistry() { StopSampler(); }

void MetricsRegistry::RegisterGauge(const std::string& name,
                                    const std::string& help,
                                    MetricLabels labels,
                                    std::function<double()> fn) {
  MutexLock lock(mu_);
  for (Gauge& gauge : gauges_) {
    if (gauge.name == name && gauge.labels == labels) {
      gauge.help = help;
      gauge.fn = std::move(fn);
      gauge.sampled = false;
      gauge.value = 0.0;
      return;
    }
  }
  Gauge gauge;
  gauge.name = name;
  gauge.help = help;
  gauge.labels = std::move(labels);
  gauge.fn = std::move(fn);
  gauges_.push_back(std::move(gauge));
}

size_t MetricsRegistry::SampleOnce() {
  // Copy the callbacks out, evaluate them with no registry lock held (they
  // take component-internal locks), then write the values back.
  std::vector<std::function<double()>> fns;
  {
    MutexLock lock(mu_);
    fns.reserve(gauges_.size());
    for (const Gauge& gauge : gauges_) fns.push_back(gauge.fn);
  }
  std::vector<double> values;
  values.reserve(fns.size());
  for (const std::function<double()>& fn : fns) values.push_back(fn());
  MutexLock lock(mu_);
  const size_t n = std::min(values.size(), gauges_.size());
  for (size_t i = 0; i < n; ++i) {
    gauges_[i].value = values[i];
    gauges_[i].sampled = true;
  }
  ++samples_taken_;
  return n;
}

uint64_t MetricsRegistry::samples_taken() const {
  MutexLock lock(mu_);
  return samples_taken_;
}

void MetricsRegistry::StartSampler(double interval_seconds) {
  interval_seconds = std::max(interval_seconds, 1e-3);
  {
    MutexLock lock(mu_);
    if (sampler_running_) return;
    sampler_running_ = true;
    sampler_stop_ = false;
  }
  sampler_ =
      std::thread([this, interval_seconds] { SamplerLoop(interval_seconds); });
}

void MetricsRegistry::StopSampler() {
  // Start/Stop are called from the owning thread (HeavenDb init/teardown,
  // tests), so the joinable() check does not race a concurrent start.
  if (!sampler_.joinable()) return;
  {
    MutexLock lock(mu_);
    sampler_stop_ = true;
  }
  sampler_cv_.NotifyAll();
  sampler_.join();
  sampler_ = std::thread();
  MutexLock lock(mu_);
  sampler_running_ = false;
  sampler_stop_ = false;
}

bool MetricsRegistry::sampler_running() const {
  MutexLock lock(mu_);
  return sampler_running_;
}

void MetricsRegistry::SamplerLoop(double interval_seconds) {
  MutexLock lock(mu_);
  while (!sampler_stop_) {
    lock.Unlock();
    SampleOnce();
    lock.Lock();
    if (sampler_stop_) break;
    sampler_cv_.WaitFor(lock, interval_seconds);
  }
}

std::vector<GaugeSample> MetricsRegistry::LatestSamples() const {
  MutexLock lock(mu_);
  std::vector<GaugeSample> out;
  out.reserve(gauges_.size());
  for (const Gauge& gauge : gauges_) {
    GaugeSample sample;
    sample.name = gauge.name;
    sample.help = gauge.help;
    sample.labels = gauge.labels;
    sample.value = gauge.value;
    sample.sampled = gauge.sampled;
    out.push_back(std::move(sample));
  }
  return out;
}

std::string MetricsRegistry::ToPrometheusText() const {
  std::string out;
  const Statistics* stats = stats_;
  if (stats != nullptr) {
    for (int i = 0; i < static_cast<int>(Ticker::kNumTickers); ++i) {
      const Ticker ticker = static_cast<Ticker>(i);
      const std::string name = PromName(TickerName(ticker));
      out += "# TYPE " + name + " counter\n";
      out += name + " " + std::to_string(stats->Get(ticker)) + "\n";
    }
    for (int i = 0; i < static_cast<int>(HistogramKind::kNumHistograms);
         ++i) {
      const HistogramKind kind = static_cast<HistogramKind>(i);
      const HistogramData data = stats->HistogramSnapshot(kind);
      const std::string name = PromName(HistogramName(kind));
      out += "# TYPE " + name + " summary\n";
      out += name + "{quantile=\"0.5\"} " + FormatJsonDouble(data.p50) + "\n";
      out += name + "{quantile=\"0.95\"} " + FormatJsonDouble(data.p95) + "\n";
      out += name + "{quantile=\"0.99\"} " + FormatJsonDouble(data.p99) + "\n";
      out += name + "_sum " + FormatJsonDouble(data.sum) + "\n";
      out += name + "_count " + std::to_string(data.count) + "\n";
    }
  }
  MutexLock lock(mu_);
  // The text format wants each metric family contiguous with one TYPE
  // line; a stable sort keeps label order (registration order) inside a
  // family.
  std::vector<size_t> order(gauges_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [this](size_t a, size_t b)
                       NO_THREAD_SAFETY_ANALYSIS {
                         return gauges_[a].name < gauges_[b].name;
                       });
  std::string previous_name;
  for (size_t i : order) {
    const Gauge& gauge = gauges_[i];
    const std::string name = PromName(gauge.name);
    if (gauge.name != previous_name) {
      if (!gauge.help.empty()) {
        out += "# HELP " + name + " " + gauge.help + "\n";
      }
      out += "# TYPE " + name + " gauge\n";
      previous_name = gauge.name;
    }
    out += name + PromLabels(gauge.labels) + " " +
           FormatJsonDouble(gauge.value) + "\n";
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  std::string out = "{";
  {
    MutexLock lock(mu_);
    out += "\"samples_taken\":" + std::to_string(samples_taken_);
    out += ",\"gauges\":[";
    bool first = true;
    for (const Gauge& gauge : gauges_) {
      if (!first) out.push_back(',');
      first = false;
      out += "{\"name\":";
      AppendJsonString(&out, gauge.name);
      out += ",\"labels\":{";
      for (size_t i = 0; i < gauge.labels.size(); ++i) {
        if (i > 0) out.push_back(',');
        AppendJsonString(&out, gauge.labels[i].first);
        out.push_back(':');
        AppendJsonString(&out, gauge.labels[i].second);
      }
      out += "},\"value\":" + FormatJsonDouble(gauge.value);
      out += ",\"sampled\":";
      out += gauge.sampled ? "true" : "false";
      out.push_back('}');
    }
    out += "]";
  }
  const Statistics* stats = stats_;
  out += ",\"stats\":";
  out += stats != nullptr ? stats->ToJson() : std::string("null");
  out.push_back('}');
  return out;
}

// ------------------------------------------------------------------------
// QueryProfiler.
// ------------------------------------------------------------------------

std::string ProfileStageName(ProfileStage stage) {
  switch (stage) {
    case ProfileStage::kParsePlan:
      return "parse_plan";
    case ProfileStage::kIndexLookup:
      return "index_lookup";
    case ProfileStage::kSchedule:
      return "schedule";
    case ProfileStage::kTapeFetch:
      return "tape_fetch";
    case ProfileStage::kDecode:
      return "decode";
    case ProfileStage::kScatter:
      return "scatter";
    case ProfileStage::kSnapshotAcquire:
      return "snapshot_acquire";
    case ProfileStage::kNumStages:
      break;
  }
  return "unknown";
}

std::string QueryProfile::ToString() const {
  char line[256];
  std::snprintf(line, sizeof(line),
                "query %llu [%s] outcome=%s sim=%.6fs wall=%.6fs hits=%llu "
                "misses=%llu coalesced=%llu\n",
                static_cast<unsigned long long>(query_id), label.c_str(),
                outcome.c_str(), total_sim_seconds, total_wall_seconds,
                static_cast<unsigned long long>(cache_hits),
                static_cast<unsigned long long>(cache_misses),
                static_cast<unsigned long long>(fetches_coalesced));
  std::string out = line;
  std::snprintf(line, sizeof(line), "  %-12s %8s %14s %14s %12s\n", "stage",
                "count", "sim_s", "wall_s", "bytes");
  out += line;
  for (size_t i = 0; i < stages.size(); ++i) {
    const ProfileStageData& data = stages[i];
    std::snprintf(line, sizeof(line), "  %-12s %8llu %14.6f %14.6f %12llu\n",
                  ProfileStageName(static_cast<ProfileStage>(i)).c_str(),
                  static_cast<unsigned long long>(data.count),
                  data.sim_seconds, data.wall_seconds,
                  static_cast<unsigned long long>(data.bytes));
    out += line;
  }
  return out;
}

std::string QueryProfile::ToJson() const {
  std::string out = "{\"query_id\":" + std::to_string(query_id);
  out += ",\"label\":";
  AppendJsonString(&out, label);
  out += ",\"total_sim_seconds\":" + FormatJsonDouble(total_sim_seconds);
  out += ",\"total_wall_seconds\":" + FormatJsonDouble(total_wall_seconds);
  out += ",\"cache_hits\":" + std::to_string(cache_hits);
  out += ",\"cache_misses\":" + std::to_string(cache_misses);
  out += ",\"fetches_coalesced\":" + std::to_string(fetches_coalesced);
  out += ",\"outcome\":";
  AppendJsonString(&out, outcome);
  out += ",\"stages\":{";
  for (size_t i = 0; i < stages.size(); ++i) {
    if (i > 0) out.push_back(',');
    const ProfileStageData& data = stages[i];
    AppendJsonString(&out, ProfileStageName(static_cast<ProfileStage>(i)));
    out += ":{\"sim_seconds\":" + FormatJsonDouble(data.sim_seconds);
    out += ",\"wall_seconds\":" + FormatJsonDouble(data.wall_seconds);
    out += ",\"bytes\":" + std::to_string(data.bytes);
    out += ",\"count\":" + std::to_string(data.count);
    out.push_back('}');
  }
  out += "}}";
  return out;
}

ActiveQuery::ActiveQuery(QueryProfiler* profiler, std::string label)
    : profiler_(profiler), sim_begin_(SimNow()), wall_begin_(WallNow()) {
  profile_.query_id = profiler->next_query_id_.fetch_add(1);
  profile_.label = std::move(label);
}

double ActiveQuery::SimNow() const {
  const SimClock* clock = profiler_->clock_.load(std::memory_order_relaxed);
  return clock != nullptr ? clock->Now() : 0.0;
}

double ActiveQuery::WallNow() {
  return std::chrono::duration<double>(
             // analyze: wallclock(profiler wall-time axis; sim is SimNow)
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void ActiveQuery::Credit(ProfileStage stage, double sim_seconds,
                         double wall_seconds, uint64_t bytes) {
  MutexLock lock(mu_);
  ProfileStageData& data = profile_.stages[static_cast<size_t>(stage)];
  data.sim_seconds += sim_seconds;
  data.wall_seconds += wall_seconds;
  data.bytes += bytes;
  data.count += 1;
}

void ActiveQuery::Count(uint64_t QueryProfile::*counter) {
  MutexLock lock(mu_);
  ++(profile_.*counter);
}

void ActiveQuery::SetOutcome(std::string outcome) {
  MutexLock lock(mu_);
  profile_.outcome = std::move(outcome);
}

QueryProfile ActiveQuery::Finish() {
  const double sim_seconds = SimNow() - sim_begin_;
  const double wall_seconds = WallNow() - wall_begin_;
  MutexLock lock(mu_);
  profile_.total_sim_seconds = sim_seconds;
  profile_.total_wall_seconds = wall_seconds;
  return std::move(profile_);
}

QueryProfiler::~QueryProfiler() = default;

bool QueryProfiler::Last(QueryProfile* out) const {
  MutexLock lock(mu_);
  if (recent_.empty()) return false;
  *out = recent_.back();
  return true;
}

std::vector<QueryProfile> QueryProfiler::Recent() const {
  MutexLock lock(mu_);
  return std::vector<QueryProfile>(recent_.begin(), recent_.end());
}

uint64_t QueryProfiler::profiles_recorded() const {
  MutexLock lock(mu_);
  return recorded_;
}

void QueryProfiler::Clear() {
  MutexLock lock(mu_);
  recent_.clear();
  recorded_ = 0;
}

void QueryProfiler::NoteOutcome(std::string outcome) {
  if (!enabled()) return;
  ActiveQuery* query = CurrentTraceContext().query;
  if (query == nullptr || query->profiler() != this) return;
  query->SetOutcome(std::move(outcome));
}

void QueryProfiler::Count(uint64_t QueryProfile::*counter) {
  ActiveQuery* query = CurrentTraceContext().query;
  if (query != nullptr) query->Count(counter);
}

void QueryProfiler::Publish(QueryProfile profile) {
  MutexLock lock(mu_);
  recent_.push_back(std::move(profile));
  while (recent_.size() > kMaxRecent) recent_.pop_front();
  ++recorded_;
}

QueryProfiler::Scope::Scope(QueryProfiler* profiler, std::string label) {
  if (profiler == nullptr || !profiler->enabled()) return;
  TraceContext& context = CurrentTraceContext();
  if (context.query != nullptr) return;  // nested: the outer query keeps it
  query_.emplace(profiler, std::move(label));
  context.query = &*query_;
}

QueryProfiler::Scope::~Scope() {
  if (!query_.has_value()) return;
  CurrentTraceContext().query = nullptr;  // the context this scope opened in
  query_->profiler()->Publish(query_->Finish());
}

}  // namespace heaven
