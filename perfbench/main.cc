// perfbench: the end-to-end benchmark of the HEAVEN reproduction.
//
//   perfbench --workload <cold_range|hot_storm|ingest_mixed> --seed N
//             --seconds S --trace <0|1> [--dump-dir DIR]
//
// Builds the workload's database three times (set-up time is the median;
// the first two builds also run the determinism self-check), then drives
// it closed-loop for S seconds through HeavenDb's public API, checking
// every result. Prints a human-readable report and, as the last line, one
// JSON object {"correct","attempted","failed","metrics"}. With --trace 0
// the metrics are the end-to-end ones, measured with tracing and
// profiling off. With --trace 1 the run is split: S/2 seconds untraced,
// S/2 seconds with the trace collector and query profiler on, then the
// layer probes; the metrics are the per-layer ones.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/coding.h"
#include "perfbench/perfbench.h"

namespace perfbench {

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ThreadCpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

namespace {

using heaven::HeavenDb;
using heaven::HistogramKind;
using heaven::ProfileStage;
using heaven::Ticker;

double ProcessCpuNow() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Nearest-rank percentile of `samples` (sorted in place).
double Percentile(std::vector<double>* samples, double q) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples->size())));
  return (*samples)[std::clamp<size_t>(rank, 1, samples->size()) - 1];
}

double Median(std::vector<double> values) { return Percentile(&values, 0.5); }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Simulated clocks and every ticker: what two runs of a single-client
/// workload with the same seed must reproduce exactly.
struct Fingerprint {
  double tape_s = 0.0;
  double client_s = 0.0;
  std::vector<uint64_t> tickers;

  static Fingerprint Of(HeavenDb* db) {
    return {db->TapeSeconds(), db->ClientSeconds(), db->stats()->Snapshot()};
  }
  /// Number of clocks and tickers that differ from `other`.
  double Mismatches(const Fingerprint& other) const {
    double n = (tape_s != other.tape_s) + (client_s != other.client_s);
    for (size_t t = 0; t < tickers.size(); ++t) {
      n += tickers[t] != other.tickers[t];
    }
    return n;
  }
};

/// Instrument readings at the start or end of a phase.
struct Readings {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double tape_s = 0.0;
  double client_s = 0.0;
  std::vector<uint64_t> tickers;
  std::vector<heaven::HistogramData> histograms;

  static Readings Of(HeavenDb* db) {
    Readings r;
    r.wall_s = WallNow();
    r.cpu_s = ProcessCpuNow();
    r.tape_s = db->TapeSeconds();
    r.client_s = db->ClientSeconds();
    r.tickers = db->stats()->Snapshot();
    for (int k = 0; k < static_cast<int>(HistogramKind::kNumHistograms); ++k) {
      r.histograms.push_back(
          db->stats()->HistogramSnapshot(static_cast<HistogramKind>(k)));
    }
    return r;
  }
};

/// One measured stretch of closed-loop traffic.
struct PhaseResult {
  ClientLog log;
  size_t clients = 1;
  double block_s = 0.0;  // planned length of each of the kBlocks blocks
  Readings begin;
  Readings end;

  double Ticks(Ticker t) const {
    const auto k = static_cast<size_t>(t);
    return static_cast<double>(end.tickers[k] - begin.tickers[k]);
  }
  double HistSum(HistogramKind kind) const {
    const auto k = static_cast<size_t>(kind);
    return end.histograms[k].sum - begin.histograms[k].sum;
  }
  double HistCount(HistogramKind kind) const {
    const auto k = static_cast<size_t>(kind);
    return static_cast<double>(end.histograms[k].count -
                               begin.histograms[k].count);
  }
  double completed() const {
    return static_cast<double>(log.attempted - log.failed);
  }
  double program_cpu_s() const {
    return (end.cpu_s - begin.cpu_s) - log.overhead_cpu_s;
  }
  /// Every block of the phase merged.
  BlockLog Total() const {
    BlockLog total;
    for (const BlockLog& block : log.blocks) total.Merge(block);
    return total;
  }
};

PhaseResult RunPhase(Workload* workload, double seconds,
                     const std::function<void()>& after_op) {
  PhaseResult result;
  result.clients = workload->clients();
  result.begin = Readings::Of(workload->db());
  result.block_s = seconds / kBlocks;
  std::vector<ClientLog> logs(result.clients);
  for (ClientLog& log : logs) {
    log.begin_s = result.begin.wall_s;
    log.block_s = result.block_s;
  }
  Phase phase;
  phase.deadline = result.begin.wall_s + seconds;
  phase.after_op = after_op;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < result.clients; ++c) {
    threads.emplace_back([workload, &phase, &logs, c] {
      workload->RunClient(c, phase, &logs[c]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  result.end = Readings::Of(workload->db());
  for (const ClientLog& log : logs) result.log.Merge(log);
  return result;
}

/// The host-time figures are taken from the quieter half of the phase.
/// The host shares its CPUs with other machines, whose load comes and
/// goes in phases of tens of seconds and slows wall time (not CPU time)
/// by up to a third. Of the phase's kBlocks blocks, the half with the
/// most calls completed per second of program time is kept. Latency
/// spikes that recur within a block's length still show.
struct QuietHalf {
  BlockLog calls;
  double program_s = 0.0;
};

QuietHalf SelectQuietHalf(const PhaseResult& r) {
  // The last block also holds the calls that ran past the deadline.
  // Client-side work is taken out of program time, averaged over the
  // clients that run side by side.
  std::vector<double> program_s(kBlocks, r.block_s);
  program_s[kBlocks - 1] =
      (r.end.wall_s - r.begin.wall_s) - (kBlocks - 1) * r.block_s;
  std::vector<double> rate(kBlocks);
  for (int b = 0; b < kBlocks; ++b) {
    const BlockLog& block = r.log.blocks[b];
    program_s[b] -= block.overhead_s / static_cast<double>(r.clients);
    rate[b] = Ratio(static_cast<double>(block.completed), program_s[b]);
  }
  std::vector<int> order(kBlocks);
  for (int b = 0; b < kBlocks; ++b) order[b] = b;
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return rate[a] > rate[b]; });
  QuietHalf quiet;
  for (int i = 0; i < kBlocks / 2; ++i) {
    quiet.calls.Merge(r.log.blocks[order[i]]);
    quiet.program_s += program_s[order[i]];
  }
  return quiet;
}

/// Every end-to-end figure of one phase.
struct EndToEnd {
  double read_p50_ms = 0, read_p99_ms = 0;
  double write_p50_ms = 0, write_p99_ms = 0;
  double ops_per_s = 0, result_mib_per_s = 0, ingest_mib_per_s = 0;
  double cpu_ms_per_op = 0;
  double sim_client_s_per_op = 0, sim_tape_s_per_op = 0;
  double tape_bytes_per_result_byte = 0, tape_bytes_per_user_byte = 0;
  double failed_op_ratio = 0;
  size_t reads = 0, writes = 0;
  double whole_read_p50_ms = 0, whole_ops_per_s = 0;  // every block
};

EndToEnd Summarize(const PhaseResult& r, Workload* workload) {
  EndToEnd e;
  const QuietHalf quiet = SelectQuietHalf(r);
  std::vector<double> read_ms = quiet.calls.read_ms;
  std::vector<double> write_ms = quiet.calls.write_ms;
  e.reads = read_ms.size();
  e.writes = write_ms.size();
  e.read_p50_ms = Percentile(&read_ms, 0.50);
  e.read_p99_ms = Percentile(&read_ms, 0.99);
  e.write_p50_ms = Percentile(&write_ms, 0.50);
  e.write_p99_ms = Percentile(&write_ms, 0.99);
  const auto per_program_s = [&](double value) {
    return Ratio(value, quiet.program_s);
  };
  e.ops_per_s = per_program_s(static_cast<double>(quiet.calls.completed));
  e.result_mib_per_s = per_program_s(
      static_cast<double>(quiet.calls.result_bytes) / (1 << 20));
  e.ingest_mib_per_s =
      per_program_s(static_cast<double>(quiet.calls.user_bytes) / (1 << 20));

  const BlockLog total = r.Total();
  std::vector<double> all_reads = total.read_ms;
  e.whole_read_p50_ms = Percentile(&all_reads, 0.50);
  e.whole_ops_per_s =
      Ratio(r.completed(), (r.end.wall_s - r.begin.wall_s) -
                               r.log.overhead_wall_s /
                                   static_cast<double>(r.clients));

  // CPU time and the counts are not slowed by the host: whole phase.
  const double ops = r.completed();
  e.cpu_ms_per_op = Ratio(r.program_cpu_s() * 1e3, ops);
  e.sim_client_s_per_op = Ratio(r.end.client_s - r.begin.client_s, ops);
  e.sim_tape_s_per_op = Ratio(r.end.tape_s - r.begin.tape_s, ops);
  e.tape_bytes_per_result_byte =
      Ratio(r.Ticks(Ticker::kTapeBytesRead),
            static_cast<double>(total.result_bytes));
  const auto& samples = r.log.space_samples;
  if (samples.empty()) {
    e.tape_bytes_per_user_byte =
        Ratio(static_cast<double>(TapeUsedBytes(workload->db())),
              static_cast<double>(workload->LiveUserBytes()));
  } else {
    // Mean over the second half of the run: dead extents rise between
    // reclaims, so one sample would depend on where the run stopped.
    double sum = 0.0;
    for (size_t i = samples.size() / 2; i < samples.size(); ++i) {
      sum += samples[i];
    }
    e.tape_bytes_per_user_byte =
        sum / static_cast<double>(samples.size() - samples.size() / 2);
  }
  e.failed_op_ratio = Ratio(static_cast<double>(r.log.failed),
                            static_cast<double>(r.log.attempted));
  return e;
}

/// Collects every QueryProfile of the traced phase exactly once: the
/// profiler keeps only the last kMaxRecent, so clients drain it after
/// each operation.
class ProfileCollector {
 public:
  explicit ProfileCollector(heaven::QueryProfiler* profiler)
      : profiler_(profiler) {}

  void Drain() {
    std::vector<heaven::QueryProfile> recent = profiler_->Recent();
    std::lock_guard<std::mutex> lock(mu_);
    for (heaven::QueryProfile& profile : recent) {
      if (seen_.insert(profile.query_id).second) {
        profiles_.push_back(std::move(profile));
      }
    }
  }

  const std::vector<heaven::QueryProfile>& profiles() const {
    return profiles_;
  }

 private:
  heaven::QueryProfiler* profiler_;
  std::mutex mu_;
  std::unordered_set<uint64_t> seen_;
  std::vector<heaven::QueryProfile> profiles_;
};

/// Samples the `pool.queue_depth` gauge while the traced phase runs.
class QueueDepthSampler {
 public:
  explicit QueueDepthSampler(HeavenDb* db)
      : db_(db), thread_([this] { Loop(); }) {}
  ~QueueDepthSampler() { Stop(); }
  QueueDepthSampler(const QueueDepthSampler&) = delete;
  QueueDepthSampler& operator=(const QueueDepthSampler&) = delete;

  void Stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }
  double max() const { return max_; }

 private:
  void Loop() {
    while (!stop_) {
      db_->metrics()->SampleOnce();
      for (const heaven::GaugeSample& gauge : db_->metrics()->LatestSamples()) {
        if (gauge.name == "pool.queue_depth") {
          max_ = std::max(max_.load(), gauge.value);
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  HeavenDb* db_;
  std::atomic<bool> stop_{false};
  std::atomic<double> max_{0.0};
  std::thread thread_;  // last: starts after the members it reads
};

/// Simulated self time (duration minus the part covered by child spans)
/// of every span, summed by name. Only the tape spans should carry any:
/// the cost model charges simulated time to exchanges, seeks and
/// transfers alone.
std::map<std::string, double> SpanSelfSeconds(
    const std::vector<heaven::Span>& spans) {
  std::map<heaven::SpanId, double> child_time;
  for (const heaven::Span& span : spans) {
    if (span.parent != 0) child_time[span.parent] += span.duration();
  }
  std::map<std::string, double> self;
  for (const heaven::Span& span : spans) {
    const auto it = child_time.find(span.id);
    self[span.name] += std::max(
        0.0, span.duration() - (it == child_time.end() ? 0.0 : it->second));
  }
  return self;
}

/// Writes the traced half's spans and its last kDumpedProfiles query
/// profiles (all of them feed the metrics; the cap keeps a hot_storm dump
/// at a few MB instead of ~100 MB).
void WriteTraceDump(const std::string& path, const std::string& workload,
                    uint64_t seed, HeavenDb* db,
                    const std::vector<heaven::QueryProfile>& profiles) {
  constexpr size_t kDumpedProfiles = 10000;
  const size_t first =
      profiles.size() > kDumpedProfiles ? profiles.size() - kDumpedProfiles : 0;
  std::ofstream out(path);
  out << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
      << ",\"trace\":" << db->stats()->trace()->ToJson()
      << ",\"profiles_total\":" << profiles.size() << ",\"profiles\":[";
  for (size_t i = first; i < profiles.size(); ++i) {
    out << (i > first ? "," : "") << profiles[i].ToJson();
  }
  out << "]}\n";
  if (!out) std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dump_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--dump-dir") {
      args->dump_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

/// The traced half of a --trace 1 run and the layer probes: every
/// per-layer metric, sorted by name. `plain` summarizes the untraced half.
std::vector<Metric> TracedRun(const Args& args, Workload* workload,
                              double seconds, const EndToEnd& plain,
                              double mismatches, ClientLog* all,
                              std::vector<std::string>* problems) {
  HeavenDb* db = workload->db();
  ProfileCollector collector(db->profiler());
  db->profiler()->Clear();
  db->profiler()->SetEnabled(true);
  db->stats()->trace()->Clear();
  db->stats()->trace()->Enable(true);
  PhaseResult t;
  double queue_depth_max = 0.0;
  {
    QueueDepthSampler sampler(db);
    t = RunPhase(workload, seconds, [&] { collector.Drain(); });
    sampler.Stop();
    queue_depth_max = sampler.max();
  }
  collector.Drain();
  db->stats()->trace()->Enable(false);
  db->profiler()->SetEnabled(false);
  all->Merge(t.log);
  const EndToEnd traced = Summarize(t, workload);

  // Wall time per profiler stage, summed over every query.
  const auto& profiles = collector.profiles();
  std::vector<double> stage_wall(static_cast<size_t>(ProfileStage::kNumStages));
  double total_wall = 0.0;
  double rasql_parse_plan = 0.0;
  double rasql_profiles = 0.0;
  for (const heaven::QueryProfile& p : profiles) {
    total_wall += p.total_wall_seconds;
    for (size_t s = 0; s < stage_wall.size(); ++s) {
      stage_wall[s] += p.stages[s].wall_seconds;
    }
    if (p.label == "rasql") {
      rasql_profiles += 1.0;
      rasql_parse_plan += p.stage(ProfileStage::kParsePlan).wall_seconds;
    }
  }
  double staged_wall = 0.0;
  for (double w : stage_wall) staged_wall += w;
  const auto stage = [&](ProfileStage s) {
    return stage_wall[static_cast<size_t>(s)];
  };
  const double lost =
      static_cast<double>(db->profiler()->profiles_recorded()) -
      static_cast<double>(profiles.size());
  const double queries = static_cast<double>(profiles.size());

  const std::vector<heaven::Span> spans = db->stats()->trace()->Spans();
  const std::map<std::string, double> self = SpanSelfSeconds(spans);
  double self_other = 0.0;
  for (const auto& [name, span_seconds] : self) {
    if (name.rfind("tape.", 0) != 0) self_other += span_seconds;
  }
  const auto self_of = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  double decode_tasks = 0.0;
  if (db->options().num_threads != 1) {
    for (const heaven::Span& span : spans) {
      if (span.name == "supertile.decode") decode_tasks += 1.0;
    }
  }
  if (!args.dump_dir.empty()) {
    WriteTraceDump(args.dump_dir + "/" + args.workload + "_seed" +
                       std::to_string(args.seed) + ".json",
                   args.workload, args.seed, db, profiles);
  }

  const double ops = t.completed();
  const BlockLog calls = t.Total();
  const double writes = static_cast<double>(calls.write_ms.size());
  const double user_bytes = static_cast<double>(calls.user_bytes);
  const auto per_op = [&](double value) { return Ratio(value, ops); };
  const auto ticks = [&](Ticker ticker) { return t.Ticks(ticker); };
  const auto hist = [&](HistogramKind kind) { return t.HistSum(kind); };
  const double hits = ticks(Ticker::kCacheHits);
  const double misses = ticks(Ticker::kCacheMisses);
  const double pruned = ticks(Ticker::kIndexPrunedSuperTiles);
  const double shortcuts = static_cast<double>(t.log.quantifier_shortcuts);
  const double pool_hits = ticks(Ticker::kBufferPoolHits);

  std::vector<Metric> metrics = {
      // End-to-end figures that are zero on some workloads (untraced half).
      {"write_p50_ms", plain.write_p50_ms, "ms"},
      {"write_p99_ms", plain.write_p99_ms, "ms"},
      {"ingest_mib_per_s", plain.ingest_mib_per_s, "MiB/s"},
      {"sim_client_s_per_op", plain.sim_client_s_per_op, "sim_s"},
      {"sim_tape_s_per_op", plain.sim_tape_s_per_op, "sim_s"},
      {"tape_bytes_per_result_byte", plain.tape_bytes_per_result_byte,
       "ratio"},
      {"failed_op_ratio",
       Ratio(static_cast<double>(all->failed),
             static_cast<double>(all->attempted)),
       "ratio"},
      {"determinism.mismatches", mismatches, "count"},
      // heaven/db_snapshot
      {"snapshot.acquire_us",
       Ratio(stage(ProfileStage::kSnapshotAcquire) * 1e6, queries), "us"},
      {"snapshot.conflicts_per_kop",
       per_op(ticks(Ticker::kSnapshotConflicts) * 1e3), "count"},
      // array/rtree + heaven/bitmap_index
      {"index.lookup_us",
       Ratio(stage(ProfileStage::kIndexLookup) * 1e6, queries), "us"},
      {"index.pruned_supertile_ratio", Ratio(pruned, pruned + hits + misses),
       "ratio"},
      {"index.predicate_shortcut_ratio",
       Ratio(shortcuts,
             shortcuts + static_cast<double>(t.log.quantifier_tiles)),
       "ratio"},
      // tertiary/tape_library
      {"tape.exchanges_per_op", per_op(ticks(Ticker::kTapeMediaExchanges)),
       "count"},
      {"tape.seeks_per_op", per_op(ticks(Ticker::kTapeSeeks)), "count"},
      {"tape.seek_s_per_op", per_op(hist(HistogramKind::kTapeSeekSeconds)),
       "sim_s"},
      {"tape.transfer_s_per_op",
       per_op(hist(HistogramKind::kTapeTransferSeconds)), "sim_s"},
      {"tape.bytes_read_per_op", per_op(ticks(Ticker::kTapeBytesRead)), "B"},
      {"tape.retries", ticks(Ticker::kTapeRetries), "count"},
      {"tape.bytes_written_per_user_byte",
       Ratio(ticks(Ticker::kTapeBytesWritten), user_bytes), "ratio"},
      {"tape.fetch_wall_ms_per_op",
       per_op(stage(ProfileStage::kTapeFetch) * 1e3), "ms"},
      // common/coding CRC + heaven/super_tile
      {"crc.verify_ms_per_op",
       per_op(hist(HistogramKind::kCrcVerifySeconds) * 1e3), "ms"},
      {"supertile.decode_ms_per_op",
       per_op(stage(ProfileStage::kDecode) * 1e3), "ms"},
      {"supertile.fetched_per_op", per_op(ticks(Ticker::kSuperTilesRead)),
       "count"},
      // array/tile
      {"array.scatter_us_per_op", per_op(stage(ProfileStage::kScatter) * 1e6),
       "us"},
      // heaven/cache
      {"cache.hit_ratio", Ratio(hits, hits + misses), "ratio"},
      {"cache.evictions_per_op", per_op(ticks(Ticker::kCacheEvictions)),
       "count"},
      {"cache.lock_wait_us",
       per_op(hist(HistogramKind::kCacheLockWaitSeconds) * 1e6), "us"},
      {"fetch.coalesced_ratio", Ratio(ticks(Ticker::kFetchCoalesced), misses),
       "ratio"},
      // common/thread_pool
      {"pool.tasks_per_op", per_op(decode_tasks), "count"},
      {"pool.queue_depth_max", queue_depth_max, "count"},
      // rasql
      {"rasql.plan_us", Ratio(rasql_parse_plan * 1e6, rasql_profiles), "us"},
      // storage
      {"storage.wal_syncs_per_write", Ratio(ticks(Ticker::kWalSyncs), writes),
       "count"},
      {"storage.page_writes_per_user_mib",
       Ratio(ticks(Ticker::kDiskPageWrites) * (1 << 20), user_bytes), "count"},
      {"storage.bufferpool_hit_ratio",
       Ratio(pool_hits, pool_hits + ticks(Ticker::kBufferPoolMisses)),
       "ratio"},
      // export / TCT / reclaim
      {"export.tct_queue_wait_s",
       Ratio(hist(HistogramKind::kTctQueueWaitSeconds),
             t.HistCount(HistogramKind::kTctQueueWaitSeconds)),
       "sim_s"},
      {"export.supertiles_per_object",
       Ratio(ticks(Ticker::kSuperTilesWritten),
             static_cast<double>(t.log.exports)),
       "count"},
      {"reclaim.bytes_rewritten_per_reclaim",
       Ratio(static_cast<double>(t.log.reclaim_bytes_written),
             static_cast<double>(t.log.reclaims)),
       "B"},
      // instrumentation
      {"trace.overhead_pct",
       Ratio((traced.read_p50_ms - plain.read_p50_ms) * 100.0,
             plain.read_p50_ms),
       "%"},
      {"profile.unattributed_share",
       Ratio(total_wall - staged_wall, total_wall), "ratio"},
      {"profile.lost", lost, "count"},
      {"trace.spans_dropped",
       static_cast<double>(db->stats()->trace()->dropped()), "count"},
      {"trace.self_sim_s_per_op.tape_exchange",
       per_op(self_of("tape.exchange")), "sim_s"},
      {"trace.self_sim_s_per_op.tape_seek", per_op(self_of("tape.seek")),
       "sim_s"},
      {"trace.self_sim_s_per_op.tape_transfer",
       per_op(self_of("tape.transfer")), "sim_s"},
      {"trace.self_sim_s_per_op.other", per_op(self_other), "sim_s"},
  };
  for (Metric& m : RunLayerProbes(workload, problems)) {
    metrics.push_back(std::move(m));
  }
  std::sort(metrics.begin(), metrics.end(),
            [](const Metric& a, const Metric& b) { return a.name < b.name; });
  std::printf("traced: %zu profiles, %zu spans\n", profiles.size(),
              spans.size());
  return metrics;
}

void PrintMetric(const Metric& m, const std::string& note = "") {
  std::printf("  %-38s %14.6g %-7s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), note.c_str());
}

std::string Count(size_t n, const char* what) {
  return "(n=" + std::to_string(n) + " " + what + ")";
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) out += ",";
    heaven::AppendJsonString(&out, metrics[i].name);
    out += ":{\"value\":" + std::string(value) + ",\"unit\":";
    heaven::AppendJsonString(&out, metrics[i].unit);
    out += "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--dump-dir DIR]\n");
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);

  // Set-up, three times. The first two databases also replay the first
  // check_ops() operations of the seeded stream: a single-client workload
  // should reproduce its simulated clocks and every ticker exactly. A
  // difference is reported (determinism.mismatches), not failed: the
  // results are still checked one by one, and the self-check exists to
  // show such differences, not to hide the run's other figures.
  std::vector<double> setup_s;
  ClientLog check_log;
  double mismatches = 0.0;
  Fingerprint first;
  for (int build = 0; build < 3; ++build) {
    const double start = WallNow();
    const heaven::Status status = workload->Setup();
    setup_s.push_back(WallNow() - start);
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    if (build == 2 || !workload->deterministic()) continue;
    Phase phase;
    phase.max_ops = workload->check_ops();
    ClientLog log;
    workload->RunClient(0, phase, &log);
    check_log.Merge(log);
    const Fingerprint print = Fingerprint::Of(workload->db());
    if (build == 0) {
      first = print;
      continue;
    }
    mismatches = first.Mismatches(print);
    std::printf("determinism self-check over %llu ops: %s\n",
                static_cast<unsigned long long>(workload->check_ops()),
                mismatches == 0.0 ? "identical" : "MISMATCH");
    std::printf("  tape %.9g s vs %.9g s, client %.9g s vs %.9g s\n",
                first.tape_s, print.tape_s, first.client_s, print.client_s);
    for (size_t t = 0; t < print.tickers.size(); ++t) {
      if (print.tickers[t] != first.tickers[t]) {
        std::printf("  %s %llu vs %llu\n",
                    heaven::TickerName(static_cast<Ticker>(t)).c_str(),
                    static_cast<unsigned long long>(first.tickers[t]),
                    static_cast<unsigned long long>(print.tickers[t]));
      }
    }
  }

  const double measure_s = args.trace ? args.seconds / 2.0 : args.seconds;
  PhaseResult plain = RunPhase(workload.get(), measure_s, {});
  const EndToEnd e2e = Summarize(plain, workload.get());

  ClientLog all = check_log;
  all.Merge(plain.log);
  std::vector<Metric> metrics;
  std::vector<std::string> problems;

  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"read_p50_ms", e2e.read_p50_ms, "ms"},
        {"read_p99_ms", e2e.read_p99_ms, "ms"},
        {"ops_per_s", e2e.ops_per_s, "1/s"},
        {"result_mib_per_s", e2e.result_mib_per_s, "MiB/s"},
        {"cpu_ms_per_op", e2e.cpu_ms_per_op, "ms"},
        {"tape_bytes_per_user_byte", e2e.tape_bytes_per_user_byte, "ratio"},
        {"peak_rss_mib", PeakRssMiB(), "MiB"},
    };
    std::printf("end-to-end, %g s closed loop, %zu client(s), tracing off; "
                "host times from the quieter %d of %d blocks:\n",
                measure_s, plain.clients, kBlocks / 2, kBlocks);
    for (const Metric& m : metrics) {
      std::string note;
      if (m.name == "setup_s") note = Count(setup_s.size(), "set-ups");
      if (m.name.rfind("read_", 0) == 0) note = Count(e2e.reads, "reads");
      PrintMetric(m, note);
    }
    std::printf("  not gated (zero on some workloads):\n");
    PrintMetric({"write_p50_ms", e2e.write_p50_ms, "ms"},
                Count(e2e.writes, "writes"));
    PrintMetric({"write_p99_ms", e2e.write_p99_ms, "ms"},
                Count(e2e.writes, "writes"));
    PrintMetric({"ingest_mib_per_s", e2e.ingest_mib_per_s, "MiB/s"});
    PrintMetric({"sim_client_s_per_op", e2e.sim_client_s_per_op, "sim_s"});
    PrintMetric({"sim_tape_s_per_op", e2e.sim_tape_s_per_op, "sim_s"});
    PrintMetric({"tape_bytes_per_result_byte", e2e.tape_bytes_per_result_byte,
                 "ratio"});
    PrintMetric({"failed_op_ratio", e2e.failed_op_ratio, "ratio"},
                Count(plain.log.attempted, "ops"));
    std::printf("  all blocks:\n");
    PrintMetric({"read_p50_ms", e2e.whole_read_p50_ms, "ms"});
    PrintMetric({"ops_per_s", e2e.whole_ops_per_s, "1/s"});
    const auto& samples = plain.log.space_samples;
    if (!samples.empty()) {
      std::printf("  tape_bytes_per_user_byte by quarter of the run:");
      for (int q = 1; q <= 4; ++q) {
        std::printf(" %.4f", samples[(samples.size() * q) / 4 - 1]);
      }
      std::printf("\n");
    }
  } else {
    metrics = TracedRun(args, workload.get(), measure_s, e2e, mismatches,
                        &all, &problems);
    std::printf("per-layer, %g s untraced + %g s traced:\n", measure_s,
                measure_s);
    for (const Metric& m : metrics) PrintMetric(m);
  }

  std::printf("operations: %llu attempted, %llu failed, %llu wrong\n",
              static_cast<unsigned long long>(all.attempted),
              static_cast<unsigned long long>(all.failed),
              static_cast<unsigned long long>(all.wrong));
  for (const std::string& error : all.errors) {
    std::printf("  failure: %s\n", error.c_str());
  }
  for (const std::string& problem : problems) {
    std::printf("  problem: %s\n", problem.c_str());
  }
  const bool correct = all.wrong == 0 && problems.empty();
  PrintResult(correct, all.attempted, all.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
