// Overload storm: an open-loop arrival process drives a mixed query
// population (interactive trims, batch sub-cubes, maintenance full scans)
// at kOverloadFactor x the database's measured service capacity, with and
// without admission control.
//
// Open-loop means arrivals do not wait for completions: query i's arrival
// time is fixed at i * dt on the simulated tape clock, so when service
// falls behind, the backlog — and every later query's sojourn time
// (completion - arrival) — grows without bound. That is exactly the
// regime admission control exists for:
//
//   qos_off  every query is served to completion in arrival order; the
//            interactive p99 sojourn grows with the experiment length
//            (unbounded in the limit).
//   qos_on   per-class token buckets shed work beyond each class's rate,
//            deadline admission rejects queries whose backlog wait
//            already burned their budget (O(1), no tape time), and the
//            cost-model pre-admission refuses plans that cannot finish.
//            Completed interactive queries keep a bounded p99 — the
//            deadline is a hard cap on how stale a served answer can be —
//            at the price of an explicit shed rate.
//
// Reported per mode: p50/p99 sojourn per class over *completed* queries,
// per-class shed/deadline-reject counts, and goodput (payload bytes
// served per simulated kilosecond). All metrics are simulated-clock
// driven and deterministic; the JSON report feeds the bench trajectory
// gate.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/workload.h"
#include "common/admission.h"

namespace heaven {
namespace {

constexpr double kObjectMiB = 4.0;
constexpr int kQueries = 96;
constexpr double kOverloadFactor = 4.0;

struct QuerySpec {
  QosClass qos = QosClass::kInteractive;
  MdInterval region;
  bool has_deadline = false;
};

// Deterministic mix: of every 8 arrivals, 5 interactive 2% trims, 2 batch
// 20% sub-cubes, 1 maintenance full scan. Anchors stride through the
// domain so consecutive interactive queries touch different super-tiles.
std::vector<QuerySpec> MakeMix(const MdInterval& domain) {
  std::vector<QuerySpec> mix;
  mix.reserve(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    QuerySpec spec;
    const double anchor =
        0.05 + 0.9 * static_cast<double>((i * 37) % 100) / 100.0;
    switch (i % 8) {
      case 5:
      case 6:
        spec.qos = QosClass::kBatch;
        spec.region = benchutil::SelectivityBox(domain, 0.20, anchor);
        spec.has_deadline = true;
        break;
      case 7:
        spec.qos = QosClass::kMaintenance;
        spec.region = domain;
        break;
      default:
        spec.qos = QosClass::kInteractive;
        spec.region = benchutil::SelectivityBox(domain, 0.02, anchor);
        spec.has_deadline = true;
        break;
    }
    mix.push_back(std::move(spec));
  }
  return mix;
}

benchutil::DbHandle OpenDb(const MdInterval& domain,
                           std::function<void(HeavenOptions*)> tweak,
                           ObjectId* id) {
  HeavenOptions options = benchutil::DefaultOptions();
  options.disk_tile_bytes = 16 << 10;
  options.supertile_bytes = 64 << 10;
  options.cache.capacity_bytes = 256 << 10;  // most reads go to tape
  if (tweak) tweak(&options);
  benchutil::DbHandle handle = benchutil::MakeDb(options);
  *id = benchutil::InsertObject(&handle, "field", domain, 7);
  HEAVEN_CHECK(handle.db->ExportObject(*id).ok());
  return handle;
}

struct Calibration {
  double total_s = 0.0;            // serial service time of the whole mix
  double mean_interactive_s = 0.0;
  double mean_batch_s = 0.0;
};

/// Serves the mix back-to-back, unconstrained, on a throwaway database:
/// the measured service times size the arrival rate, the token buckets
/// and the deadlines of the storm passes.
Calibration Calibrate(const MdInterval& domain,
                      const std::vector<QuerySpec>& mix) {
  ObjectId id = 0;
  benchutil::DbHandle handle = OpenDb(domain, nullptr, &id);
  Calibration cal;
  double interactive_s = 0.0, batch_s = 0.0;
  int interactive_n = 0, batch_n = 0;
  for (const QuerySpec& spec : mix) {
    const double before =
        handle.db->TapeSeconds() + handle.db->ClientSeconds();
    HEAVEN_CHECK(handle.db->ReadRegion(id, spec.region).ok());
    const double cost =
        handle.db->TapeSeconds() + handle.db->ClientSeconds() - before;
    cal.total_s += cost;
    if (spec.qos == QosClass::kInteractive) {
      interactive_s += cost;
      ++interactive_n;
    } else if (spec.qos == QosClass::kBatch) {
      batch_s += cost;
      ++batch_n;
    }
  }
  cal.mean_interactive_s = interactive_s / std::max(1, interactive_n);
  cal.mean_batch_s = batch_s / std::max(1, batch_n);
  return cal;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  return values[static_cast<size_t>(rank + 0.5)];
}

struct ClassTally {
  std::vector<double> sojourns_s;  // completed queries only
  uint64_t shed = 0;               // admission / in-flight budget
  uint64_t deadline_rejected = 0;  // expired or pre-admission
  uint64_t bytes = 0;
};

void BM_Overload_Storm(benchmark::State& state) {
  const bool qos_on = state.range(0) != 0;
  const MdInterval domain = benchutil::CubeDomainForMiB(kObjectMiB);
  const std::vector<QuerySpec> mix = MakeMix(domain);
  const Calibration cal = Calibrate(domain, mix);

  // Arrivals at kOverloadFactor x capacity; deadlines a small multiple of
  // the class's unloaded service time, so a served answer is never more
  // than that factor stale.
  const double arrival_dt_s =
      cal.total_s / (kOverloadFactor * static_cast<double>(kQueries));
  const double interactive_deadline_s = 4.0 * cal.mean_interactive_s;
  const double batch_deadline_s = 8.0 * cal.mean_batch_s;
  const double capacity_qps = static_cast<double>(kQueries) / cal.total_s;

  for (auto _ : state) {
    ObjectId id = 0;
    benchutil::DbHandle handle = OpenDb(
        domain,
        [&](HeavenOptions* options) {
          options->qos.enabled = qos_on;
          // Interactive may claim the full service capacity; background
          // classes get minority shares and looser queues.
          options->qos.interactive = {capacity_qps, 8.0,
                                      2.0 * interactive_deadline_s};
          options->qos.batch = {0.25 * capacity_qps, 2.0,
                                2.0 * batch_deadline_s};
          options->qos.maintenance = {0.05 * capacity_qps, 1.0,
                                      cal.total_s};
        },
        &id);
    SimClock* tape = handle.db->library()->clock();
    const double epoch_s = tape->Now();  // export already spent tape time

    std::vector<ClassTally> tallies(
        static_cast<size_t>(QosClass::kNumClasses));
    for (int i = 0; i < kQueries; ++i) {
      const QuerySpec& spec = mix[i];
      const double arrival_s =
          epoch_s + static_cast<double>(i) * arrival_dt_s;
      if (tape->Now() < arrival_s) {
        tape->Advance(arrival_s - tape->Now());  // server idles until then
      }
      ClassTally& tally = tallies[static_cast<size_t>(spec.qos)];
      const double client_before = handle.db->ClientSeconds();
      Result<MddArray> read = [&] {
        if (!qos_on) return handle.db->ReadRegion(id, spec.region);
        QueryContext ctx;
        ctx.qos = spec.qos;
        if (spec.has_deadline) {
          ctx.deadline.clock = tape;
          ctx.deadline.expires_at_s =
              arrival_s + (spec.qos == QosClass::kInteractive
                               ? interactive_deadline_s
                               : batch_deadline_s);
        }
        return handle.db->ReadRegion(id, spec.region, ctx);
      }();
      const double sojourn_s = tape->Now() - arrival_s +
                               (handle.db->ClientSeconds() - client_before);
      if (read.ok()) {
        tally.sojourns_s.push_back(sojourn_s);
        tally.bytes += read->size_bytes();
        benchmark::DoNotOptimize(read->size_bytes());
      } else if (read.status().code() == StatusCode::kResourceExhausted) {
        ++tally.shed;
      } else if (read.status().code() == StatusCode::kDeadlineExceeded) {
        ++tally.deadline_rejected;
      } else {
        state.SkipWithError(read.status().ToString().c_str());
        return;
      }
    }

    const double storm_s = tape->Now() - epoch_s;
    const ClassTally& interactive =
        tallies[static_cast<size_t>(QosClass::kInteractive)];
    const ClassTally& batch = tallies[static_cast<size_t>(QosClass::kBatch)];
    const ClassTally& maintenance =
        tallies[static_cast<size_t>(QosClass::kMaintenance)];
    uint64_t total_bytes = 0;
    for (const ClassTally& tally : tallies) total_bytes += tally.bytes;

    state.SetIterationTime(storm_s);
    state.counters["qos"] = qos_on ? 1.0 : 0.0;
    state.counters["interactive_p50_s"] =
        Percentile(interactive.sojourns_s, 0.50);
    state.counters["interactive_p99_s"] =
        Percentile(interactive.sojourns_s, 0.99);
    state.counters["interactive_served"] =
        static_cast<double>(interactive.sojourns_s.size());
    state.counters["interactive_rejected"] = static_cast<double>(
        interactive.shed + interactive.deadline_rejected);
    state.counters["batch_p99_s"] = Percentile(batch.sojourns_s, 0.99);
    state.counters["batch_served"] =
        static_cast<double>(batch.sojourns_s.size());
    state.counters["batch_rejected"] =
        static_cast<double>(batch.shed + batch.deadline_rejected);
    state.counters["maintenance_served"] =
        static_cast<double>(maintenance.sojourns_s.size());
    state.counters["shed_total"] = static_cast<double>(
        handle.db->stats()->Get(Ticker::kAdmissionShed));
    state.counters["preadmit_rejects"] = static_cast<double>(
        handle.db->stats()->Get(Ticker::kAdmissionPreadmitRejects));
    state.counters["goodput_mib_per_ks"] =
        (static_cast<double>(total_bytes) / (1 << 20)) / (storm_s / 1000.0);
    state.counters["deadline_cap_s"] = interactive_deadline_s;

    benchutil::RecordRunForReport(qos_on ? "qos_on" : "qos_off",
                                  handle.db.get());
  }
}

BENCHMARK(BM_Overload_Storm)
    ->Arg(0)
    ->Arg(1)
    ->UseManualTime()
    ->Unit(benchmark::kSecond)
    ->Iterations(1);

}  // namespace
}  // namespace heaven

HEAVEN_BENCH_MAIN("bench_overload");
