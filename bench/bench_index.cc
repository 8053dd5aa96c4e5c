// Experiment: hierarchical bitmap-index pruning. A sparse archived object
// (≥90% empty: a few dense blobs on a zero canvas) is probed with
// low-selectivity range reads and membership (quantifier) queries, with
// the bitmap index enabled versus disabled; a dense full scan guards the
// no-win case against overhead. The curve sweep re-runs the range
// workload under Z-order and Hilbert layout.
//
// Expected shape: on the sparse workloads the index drops most super-tile
// fetches (≥5× fewer container bytes and tape seconds — boxes landing on
// the empty canvas are answered from the index alone); the dense full
// scan is unchanged within noise because a full scan fetches everything
// either way.

#include <benchmark/benchmark.h>

#include <cmath>
#include <string>
#include <vector>

#include "bench/workload.h"
#include "heaven/bitmap_index.h"
#include "heaven/space_filling_curve.h"

namespace heaven {
namespace {

constexpr double kObjectMiB = 6.0;
constexpr int kNumQueries = 30;
constexpr double kQuerySelectivity = 0.01;

/// A box containing ~`selectivity` of the domain's cells at an
/// independently random position per axis (SelectivityBox anchors all
/// axes identically, which would pile boxes onto the domain diagonal).
MdInterval RandomBox(const MdInterval& domain, double selectivity, Rng* rng) {
  const size_t dims = domain.dims();
  const double frac = std::pow(selectivity, 1.0 / static_cast<double>(dims));
  std::vector<int64_t> lo(dims), hi(dims);
  for (size_t d = 0; d < dims; ++d) {
    const int64_t extent = domain.hi()[d] - domain.lo()[d] + 1;
    const int64_t len = std::max<int64_t>(
        1, static_cast<int64_t>(std::llround(extent * frac)));
    const int64_t slack = extent - len;
    const int64_t off = slack > 0 ? rng->UniformRange(0, slack) : 0;
    lo[d] = domain.lo()[d] + off;
    hi[d] = lo[d] + len - 1;
  }
  return MdInterval(MdPoint(lo), MdPoint(hi));
}

/// ~98% empty: three dense blobs, deterministic from `seed`, on an
/// otherwise zero canvas (the "mostly fill values" shape of archived
/// climate/satellite masks).
MddArray SparseField(const MdInterval& domain, uint64_t seed) {
  Rng rng(seed);
  std::vector<MdInterval> blobs;
  for (int i = 0; i < 3; ++i) {
    blobs.push_back(RandomBox(domain, 0.007, &rng));
  }
  MddArray data(domain, CellType::kFloat);
  data.Generate([&](const MdPoint& p) {
    for (const MdInterval& blob : blobs) {
      if (blob.Contains(p)) {
        double v = 1.0;
        for (size_t d = 0; d < p.dims(); ++d) v += static_cast<double>(p[d] % 7);
        return v;
      }
    }
    return 0.0;
  });
  return data;
}

struct RunResult {
  double tape_seconds = 0.0;
  benchutil::DbHandle handle;
  ObjectId object_id = 0;
};

/// Opens a database, archives one sparse object and returns the handle
/// with the archive cost already excluded from the caller's measurement.
RunResult SetUpSparseObject(benchmark::State& state, bool enable_index,
                            CurveKind curve) {
  RunResult run;
  HeavenOptions options = benchutil::DefaultOptions();
  options.supertile_bytes = 256 << 10;
  options.cache.capacity_bytes = 1;  // measure fetches, not cache luck
  options.enable_index = enable_index;
  options.curve = curve;
  run.handle = benchutil::MakeDb(options);
  const MdInterval domain = benchutil::CubeDomainForMiB(kObjectMiB);
  auto id = run.handle.db->InsertObject(run.handle.collection, "sparse",
                                        SparseField(domain, 8));
  if (!id.ok()) {
    state.SkipWithError("insert failed");
    return run;
  }
  run.object_id = id.value();
  if (!run.handle.db->ExportObject(run.object_id).ok()) {
    state.SkipWithError("export failed");
    return run;
  }
  run.tape_seconds = run.handle.db->TapeSeconds();
  return run;
}

void RecordIndexCounters(benchmark::State& state, HeavenDb* db) {
  state.counters["fetched_mib"] =
      static_cast<double>(db->stats()->Get(Ticker::kSuperTileBytesRead)) /
      (1 << 20);
  state.counters["pruned_st"] = static_cast<double>(
      db->stats()->Get(Ticker::kIndexPrunedSuperTiles));
  state.counters["pruned_mib"] =
      static_cast<double>(db->stats()->Get(Ticker::kIndexPrunedBytes)) /
      (1 << 20);
  state.counters["st_fetched"] =
      static_cast<double>(db->stats()->Get(Ticker::kSuperTilesRead));
}

// ------------------------------------------------------- range queries --

void RunRangeWorkload(benchmark::State& state, bool enable_index,
                      CurveKind curve, const std::string& label) {
  const MdInterval domain = benchutil::CubeDomainForMiB(kObjectMiB);
  for (auto _ : state) {
    RunResult run = SetUpSparseObject(state, enable_index, curve);
    if (run.object_id == 0) return;
    Rng rng(17);
    for (int q = 0; q < kNumQueries; ++q) {
      const MdInterval box = RandomBox(domain, kQuerySelectivity, &rng);
      if (!run.handle.db->ReadRegion(run.object_id, box).ok()) {
        state.SkipWithError("read failed");
        return;
      }
    }
    state.SetIterationTime(run.handle.db->TapeSeconds() - run.tape_seconds);
    RecordIndexCounters(state, run.handle.db.get());
    benchutil::RecordRunForReport(label, run.handle.db.get());
  }
}

void BM_Index_Range1pct_Baseline(benchmark::State& state) {
  RunRangeWorkload(state, /*enable_index=*/false, CurveKind::kZOrder,
                   "range_1pct/baseline");
}
void BM_Index_Range1pct_Indexed(benchmark::State& state) {
  RunRangeWorkload(state, /*enable_index=*/true, CurveKind::kZOrder,
                   "range_1pct/indexed");
}

// -------------------------------------------------- membership queries --

void RunMembershipWorkload(benchmark::State& state, bool enable_index,
                           const std::string& label) {
  const MdInterval domain = benchutil::CubeDomainForMiB(kObjectMiB);
  for (auto _ : state) {
    RunResult run = SetUpSparseObject(state, enable_index, CurveKind::kZOrder);
    if (run.object_id == 0) return;
    Rng rng(23);
    CellPredicate pred;
    pred.cmp = CompareOp::kGt;
    for (int q = 0; q < kNumQueries; ++q) {
      const MdInterval box = RandomBox(domain, kQuerySelectivity, &rng);
      pred.value = static_cast<double>(rng.Uniform(8));
      if (!run.handle.db
               ->EvaluateQuantifier(run.object_id, box, pred,
                                    /*universal=*/false)
               .ok()) {
        state.SkipWithError("quantifier failed");
        return;
      }
    }
    state.SetIterationTime(run.handle.db->TapeSeconds() - run.tape_seconds);
    RecordIndexCounters(state, run.handle.db.get());
    state.counters["shortcuts"] = static_cast<double>(
        run.handle.db->stats()->Get(Ticker::kIndexPredicateShortcuts));
    benchutil::RecordRunForReport(label, run.handle.db.get());
  }
}

void BM_Index_Membership_Baseline(benchmark::State& state) {
  RunMembershipWorkload(state, /*enable_index=*/false, "membership/baseline");
}
void BM_Index_Membership_Indexed(benchmark::State& state) {
  RunMembershipWorkload(state, /*enable_index=*/true, "membership/indexed");
}

// ------------------------------------------------- dense full-scan guard --

void RunFullScanWorkload(benchmark::State& state, bool enable_index,
                         const std::string& label) {
  const MdInterval domain = benchutil::CubeDomainForMiB(kObjectMiB);
  for (auto _ : state) {
    HeavenOptions options = benchutil::DefaultOptions();
    options.supertile_bytes = 256 << 10;
    options.cache.capacity_bytes = 1;
    options.enable_index = enable_index;
    benchutil::DbHandle handle = benchutil::MakeDb(options);
    const ObjectId id = benchutil::InsertObject(&handle, "dense", domain, 4);
    if (!handle.db->ExportObject(id).ok()) {
      state.SkipWithError("export failed");
      return;
    }
    const double archive_seconds = handle.db->TapeSeconds();
    if (!handle.db->ReadObject(id).ok()) {
      state.SkipWithError("read failed");
      return;
    }
    state.SetIterationTime(handle.db->TapeSeconds() - archive_seconds);
    RecordIndexCounters(state, handle.db.get());
    benchutil::RecordRunForReport(label, handle.db.get());
  }
}

void BM_Index_FullScan_Baseline(benchmark::State& state) {
  RunFullScanWorkload(state, /*enable_index=*/false, "full_scan/baseline");
}
void BM_Index_FullScan_Indexed(benchmark::State& state) {
  RunFullScanWorkload(state, /*enable_index=*/true, "full_scan/indexed");
}

// ------------------------------------------------------------ curve sweep --

void BM_Index_Range1pct_Hilbert(benchmark::State& state) {
  RunRangeWorkload(state, /*enable_index=*/true, CurveKind::kHilbert,
                   "range_1pct/hilbert");
}

#define INDEX_ARGS \
  ->UseManualTime()->Unit(benchmark::kSecond)->Iterations(1)

BENCHMARK(BM_Index_Range1pct_Baseline) INDEX_ARGS;
BENCHMARK(BM_Index_Range1pct_Indexed) INDEX_ARGS;
BENCHMARK(BM_Index_Range1pct_Hilbert) INDEX_ARGS;
BENCHMARK(BM_Index_Membership_Baseline) INDEX_ARGS;
BENCHMARK(BM_Index_Membership_Indexed) INDEX_ARGS;
BENCHMARK(BM_Index_FullScan_Baseline) INDEX_ARGS;
BENCHMARK(BM_Index_FullScan_Indexed) INDEX_ARGS;

}  // namespace
}  // namespace heaven

HEAVEN_BENCH_MAIN("bench_index");
