#include "common/trace.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/coding.h"
#include "common/metrics.h"

namespace heaven {

double TraceCollector::Now() const {
  const SimClock* clock = clock_.load(std::memory_order_relaxed);
  return clock != nullptr ? clock->Now() : 0.0;
}

void TraceCollector::Record(Span span) {
  MutexLock lock(mu_);
  if (span.id < first_live_id_) return;  // opened before Clear()
  finished_.push_back(std::move(span));
  while (finished_.size() > capacity_) {
    finished_.pop_front();
    ++dropped_;
  }
}

void TraceCollector::SetCapacity(size_t capacity) {
  MutexLock lock(mu_);
  capacity_ = std::max<size_t>(capacity, 1);
  while (finished_.size() > capacity_) {
    finished_.pop_front();
    ++dropped_;
  }
}

size_t TraceCollector::capacity() const {
  MutexLock lock(mu_);
  return capacity_;
}

std::vector<Span> TraceCollector::Spans() const {
  MutexLock lock(mu_);
  std::vector<Span> spans(finished_.begin(), finished_.end());
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return spans;
}

uint64_t TraceCollector::dropped() const {
  MutexLock lock(mu_);
  return dropped_;
}

void TraceCollector::Clear() {
  MutexLock lock(mu_);
  finished_.clear();
  dropped_ = 0;
  first_live_id_ = next_id_.load();
}

std::string TraceCollector::ToJson() const {
  const std::vector<Span> spans = Spans();
  std::string out = "{\"spans\":[";
  bool first = true;
  for (const Span& span : spans) {
    if (!first) out += ",";
    first = false;
    out += "{\"id\":" + std::to_string(span.id);
    out += ",\"parent\":" + std::to_string(span.parent);
    out += ",\"name\":";
    AppendJsonString(&out, span.name);
    out += ",\"start\":" + FormatJsonDouble(span.start);
    out += ",\"end\":" + FormatJsonDouble(span.end);
    out += ",\"duration\":" + FormatJsonDouble(span.duration());
    out += ",\"bytes\":" + std::to_string(span.bytes);
    out += "}";
  }
  out += "],\"dropped\":" + std::to_string(dropped()) + "}";
  return out;
}

std::string TraceCollector::ToString() const {
  const std::vector<Span> spans = Spans();
  // Depth by chasing parents (spans are sorted by id = begin order, so a
  // parent always precedes its children).
  std::map<SpanId, int> depth;
  std::ostringstream out;
  for (const Span& span : spans) {
    const int d = span.parent == 0 ? 0 : depth[span.parent] + 1;
    depth[span.id] = d;
    for (int i = 0; i < d; ++i) out << "  ";
    out << span.name << " " << span.duration() << "s @t=" << span.start;
    if (span.bytes > 0) out << " +" << span.bytes << "B";
    out << "\n";
  }
  return out.str();
}

TraceContext TraceContext::Capture() {
  TraceContext context = CurrentTraceContext();
  if (context.empty() || context.handed_over) return context;
  context.handed_over = true;
  context.sim_now = context.collector != nullptr ? context.collector->Now()
                                                 : context.query->SimNow();
  return context;
}

ScopedSpan::ScopedSpan(TraceCollector* collector, std::string_view name,
                       std::optional<ProfileStage> stage) {
  const bool tracing = collector != nullptr && collector->enabled();
  if (!tracing && !stage.has_value()) return;
  TraceContext& context = CurrentTraceContext();
  pinned_ = context.handed_over;
  if (stage.has_value() && context.query != nullptr) {
    query_ = context.query;
    stage_ = *stage;
    stage_sim_ = pinned_ ? 0.0 : query_->SimNow();
    stage_wall_ = ActiveQuery::WallNow();
  }
  if (!tracing) return;
  collector_ = collector;
  saved_ = context;
  id_ = collector->next_id_.fetch_add(1, std::memory_order_relaxed);
  parent_ = context.collector == collector ? context.span : 0;
  name_ = name;
  start_ = pinned_ ? context.sim_now : collector->Now();
  context.collector = collector;
  context.span = id_;
}

ScopedSpan::~ScopedSpan() {
  if (query_ != nullptr) {
    query_->Credit(stage_, pinned_ ? 0.0 : query_->SimNow() - stage_sim_,
                   ActiveQuery::WallNow() - stage_wall_, bytes_);
  }
  if (collector_ == nullptr) return;
  CurrentTraceContext() = saved_;
  const double end = pinned_ ? start_ : collector_->Now();
  collector_->Record({id_, parent_, std::move(name_), start_, end, bytes_});
}

}  // namespace heaven
