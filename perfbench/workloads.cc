// The three workloads of the benchmark and the oracle that checks their
// results. Every workload derives all of its inputs from the run seed;
// the database only ever sees the generated arrays, boxes and
// statements. The oracle keeps its own copy of every object (the
// ClimateField it was generated from, with the workload's patches
// applied) and never reads the database to decide what is right.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "array/ops.h"
#include "heaven/bitmap_index.h"
#include "heaven/framing.h"
#include "perfbench/perfbench.h"
#include "rasql/executor.h"

namespace perfbench {

using heaven::CellType;
using heaven::Compression;
using heaven::Condenser;
using heaven::HeavenDb;
using heaven::HeavenOptions;
using heaven::MddArray;
using heaven::MdInterval;
using heaven::MdPoint;
using heaven::ObjectId;
using heaven::Rng;
using heaven::Status;
using heaven::Ticker;
namespace benchutil = heaven::benchutil;

void BlockLog::Merge(const BlockLog& other) {
  read_ms.insert(read_ms.end(), other.read_ms.begin(), other.read_ms.end());
  write_ms.insert(write_ms.end(), other.write_ms.begin(),
                  other.write_ms.end());
  completed += other.completed;
  result_bytes += other.result_bytes;
  user_bytes += other.user_bytes;
  overhead_s += other.overhead_s;
}

void ClientLog::Record(bool write, double start_s, double end_s, bool ok,
                       uint64_t result_bytes, uint64_t user_bytes) {
  ++attempted;
  const int b =
      block_s > 0.0
          ? std::clamp(static_cast<int>((end_s - begin_s) / block_s), 0,
                       kBlocks - 1)
          : 0;
  BlockLog& block = blocks[b];
  (write ? block.write_ms : block.read_ms)
      .push_back((end_s - start_s) * 1e3);
  if (ok) {
    ++block.completed;
    block.result_bytes += result_bytes;
    block.user_bytes += user_bytes;
  }
  block.overhead_s += pending_overhead_s;
  pending_overhead_s = 0.0;
}

void ClientLog::NoteFailure(const std::string& what) {
  ++failed;
  if (errors.size() < 5) errors.push_back(what);
}

void ClientLog::Merge(const ClientLog& other) {
  for (int b = 0; b < kBlocks; ++b) blocks[b].Merge(other.blocks[b]);
  attempted += other.attempted;
  failed += other.failed;
  wrong += other.wrong;
  quantifier_tiles += other.quantifier_tiles;
  quantifier_shortcuts += other.quantifier_shortcuts;
  reclaims += other.reclaims;
  reclaim_bytes_written += other.reclaim_bytes_written;
  exports += other.exports;
  space_samples.insert(space_samples.end(), other.space_samples.begin(),
                       other.space_samples.end());
  overhead_wall_s += other.overhead_wall_s;
  overhead_cpu_s += other.overhead_cpu_s;
  pending_overhead_s += other.pending_overhead_s;
  for (const std::string& error : other.errors) {
    if (errors.size() < 5) errors.push_back(error);
  }
}

namespace {

uint64_t MediumUsedBytes(HeavenDb* db, heaven::MediumId medium) {
  const auto used = db->library()->MediumUsedBytes(medium);
  return used.ok() ? used.value() : 0;
}

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Selectivity of operation `i`, spread evenly over [lo, hi]: a
/// golden-ratio sequence from a seeded start, so every stretch of a run
/// sees the same mix of box sizes whatever the seed.
double StratifiedSelectivity(double u0, uint64_t i, double lo, double hi) {
  const double u = std::fmod(u0 + 0.6180339887498949 * static_cast<double>(i),
                             1.0);
  return lo + (hi - lo) * u;
}

/// A box holding ~`selectivity` of `domain` (shape from SelectivityBox)
/// at a seeded position, independent per axis.
MdInterval SeededBox(const MdInterval& domain, double selectivity, Rng* rng) {
  const MdInterval shape = benchutil::SelectivityBox(domain, selectivity, 0.0);
  std::vector<int64_t> lo(domain.dims());
  std::vector<int64_t> hi(domain.dims());
  for (size_t d = 0; d < domain.dims(); ++d) {
    const int64_t slack = domain.Extent(d) - shape.Extent(d);
    lo[d] = domain.lo(d) + rng->UniformRange(0, slack);
    hi[d] = lo[d] + shape.Extent(d) - 1;
  }
  return MdInterval(MdPoint(std::move(lo)), MdPoint(std::move(hi)));
}

/// `box` moved along axis 0 by half its extent, kept inside `domain`.
MdInterval ShiftedBox(const MdInterval& domain, const MdInterval& box) {
  std::vector<int64_t> lo = box.lo().coords();
  std::vector<int64_t> hi = box.hi().coords();
  const int64_t shift = std::min<int64_t>(box.Extent(0) / 2,
                                          domain.hi(0) - box.hi(0));
  lo[0] += shift;
  hi[0] += shift;
  return MdInterval(MdPoint(std::move(lo)), MdPoint(std::move(hi)));
}

/// ~95% empty: the ClimateField inside four seeded blobs of ~1.25% of the
/// volume each, zero elsewhere (the fill-value shape of bench_index).
MddArray SparseField(const MdInterval& domain, uint64_t seed) {
  const MddArray field = benchutil::ClimateField(domain, seed);
  MddArray data(domain, CellType::kFloat);
  Rng rng(SubSeed(seed, 1));
  for (int blob = 0; blob < 4; ++blob) {
    const MdInterval box = SeededBox(domain, 0.0125, &rng);
    (void)data.mutable_tile().CopyRegionFrom(field.tile(), box);
  }
  return data;
}

/// Calls `fn(got_row, ref_row, row_bytes)` for each innermost row of
/// `region` in two arrays that both contain it.
template <typename Fn>
bool ForEachRow(const MddArray& a, const MddArray& b, const MdInterval& region,
                Fn&& fn) {
  const size_t last = region.dims() - 1;
  std::vector<int64_t> hi = region.hi().coords();
  hi[last] = region.lo(last);
  const size_t row_bytes =
      static_cast<size_t>(region.Extent(last)) * a.tile().cell_size();
  for (heaven::MdPointIterator it(MdInterval(region.lo(), MdPoint(hi)));
       !it.Done(); it.Next()) {
    if (!fn(a.tile().CellPtr(it.point()), b.tile().CellPtr(it.point()),
            row_bytes)) {
      return false;
    }
  }
  return true;
}

/// True when `got` is exactly `region` of the reference `ref`.
bool MatchesBox(const MddArray& got, const MddArray& ref,
                const MdInterval& region) {
  if (got.domain() != region || got.cell_type() != ref.cell_type()) {
    return false;
  }
  return ForEachRow(got, ref, region,
                    [](const char* a, const char* b, size_t n) {
                      return std::memcmp(a, b, n) == 0;
                    });
}

/// True when `got` is the frame's bounding box with the frame's cells
/// taken from `ref` and every other cell zero.
bool MatchesFrame(const MddArray& got, const MddArray& ref,
                  const heaven::ObjectFrame& frame) {
  const auto bbox = frame.BoundingBox();
  if (!bbox.ok() || got.domain() != bbox.value()) return false;
  heaven::Tile expected(bbox.value(), ref.cell_type());
  for (const MdInterval& box : frame.disjoint_boxes()) {
    if (!expected.CopyRegionFrom(ref.tile(), box).ok()) return false;
  }
  return expected.data() == got.tile().data();
}

bool MatchesAggregate(double got, const MddArray& ref, Condenser condenser,
                      const MdInterval& region) {
  const auto want = heaven::CondenseRegion(ref, condenser, region);
  if (!want.ok()) return false;
  return std::fabs(got - want.value()) <=
         1e-9 * std::max(1.0, std::fabs(want.value()));
}

/// Brute force over the reference cells of `region`.
bool QuantifierReference(const MddArray& ref, const MdInterval& region,
                         const heaven::CellPredicate& pred, bool universal) {
  bool some = false;
  bool all = true;
  const size_t cell = ref.tile().cell_size();
  ForEachRow(ref, ref, region, [&](const char* row, const char*, size_t n) {
    for (size_t off = 0; off < n; off += cell) {
      const bool hit = heaven::EvalCellPredicate(
          pred, heaven::ReadCellAsDouble(ref.cell_type(), row + off));
      some = some || hit;
      all = all && hit;
    }
    return true;
  });
  return universal ? all : some;
}

uint64_t ResultBytes(const MddArray& array) { return array.size_bytes(); }
uint64_t ResultBytes(double) { return sizeof(double); }
uint64_t ResultBytes(bool) { return 1; }

/// Times one read and checks its result with `matches`.
template <typename Call, typename Check>
void TimedRead(ClientLog* log, const std::string& what, Call&& call,
               Check&& matches) {
  const double start = WallNow();
  auto result = call();
  const double end = WallNow();
  bool ok = false;
  uint64_t bytes = 0;
  if (!result.ok()) {
    log->NoteFailure(what + ": " + result.status().ToString());
  } else {
    OverheadTimer check(log);
    ok = matches(result.value());
    if (ok) {
      bytes = ResultBytes(result.value());
    } else {
      ++log->wrong;
      log->NoteFailure(what + ": wrong result");
    }
  }
  log->Record(/*write=*/false, start, end, ok, bytes);
}

/// Times one mutator call; `user_bytes` counts as ingested if it succeeds.
bool TimedWrite(ClientLog* log, const std::string& what,
                const std::function<Status()>& call, uint64_t user_bytes = 0) {
  const double start = WallNow();
  const Status status = call();
  log->Record(/*write=*/true, start, WallNow(), status.ok(), 0, user_bytes);
  if (!status.ok()) log->NoteFailure(what + ": " + status.ToString());
  return status.ok();
}

// ---------------------------------------------------------------------------
// cold_range: tape-bound sub-array retrieval.
// ---------------------------------------------------------------------------

class ColdRange : public Workload {
 public:
  static constexpr int kCubes = 4;
  static constexpr int kSparseCube = 3;

  explicit ColdRange(uint64_t seed)
      : seed_(seed), domain_(benchutil::CubeDomainForMiB(16.0)) {
    for (int k = 0; k < kCubes; ++k) {
      const uint64_t object_seed = SubSeed(seed_, 100 + k);
      refs_.push_back(k == kSparseCube
                          ? SparseField(domain_, object_seed)
                          : benchutil::ClimateField(domain_, object_seed));
    }
  }

  uint64_t check_ops() const override { return 40; }

  Status Setup() override {
    handle_ = benchutil::DbHandle();
    HeavenOptions options = benchutil::DefaultOptions();
    options.supertile_bytes = 64 << 10;
    options.compression = Compression::kDeltaRle;
    options.cache.capacity_bytes = (kCubes * refs_[0].size_bytes()) / 16;
    options.num_threads = 3;
    handle_ = benchutil::MakeDb(options);
    ids_.clear();
    for (int k = 0; k < kCubes; ++k) {
      auto id = handle_.db->InsertObject(handle_.collection,
                                         "cube" + std::to_string(k), refs_[k]);
      if (!id.ok()) return id.status();
      ids_.push_back(id.value());
      HEAVEN_RETURN_IF_ERROR(handle_.db->ExportObject(id.value()));
    }
    // Warm-up: build each object's tile index and fill the cache with
    // 1/16 of every cube.
    for (int k = 0; k < kCubes; ++k) {
      const MdInterval box =
          benchutil::SelectivityBox(domain_, 1.0 / 16.0, 0.4);
      auto warm = handle_.db->ReadRegion(ids_[k], box);
      if (!warm.ok()) return warm.status();
      if (!MatchesBox(warm.value(), refs_[k], box)) {
        return Status::Corruption("warm-up read returned wrong cells");
      }
    }
    rng_ = Rng(SubSeed(seed_, 7));
    u0_ = Rng(SubSeed(seed_, 8)).NextDouble();
    next_op_ = 0;
    return Status::Ok();
  }

  HeavenDb* db() override { return handle_.db.get(); }

  void RunClient(size_t, const Phase& phase, ClientLog* log) override {
    static constexpr char kPattern[] = "RRFRARRQRR";
    static constexpr Condenser kCondensers[] = {
        Condenser::kSum, Condenser::kAvg, Condenser::kMin, Condenser::kMax};
    while (!phase.Done(*log)) {
      const uint64_t i = next_op_++;
      const int cube = static_cast<int>(i % kCubes);
      const ObjectId id = ids_[cube];
      const MddArray& ref = refs_[cube];
      MdInterval box;
      {
        OverheadTimer gen(log);
        box = SeededBox(domain_,
                        StratifiedSelectivity(u0_, i, 0.01, 0.10), &rng_);
      }
      switch (kPattern[i % 10]) {
        case 'R':
          TimedRead(
              log, "read_region",
              [&] { return db()->ReadRegion(id, box); },
              [&](const MddArray& got) { return MatchesBox(got, ref, box); });
          break;
        case 'F': {
          auto frame = heaven::ObjectFrame::FromBoxes(
              {box, ShiftedBox(domain_, box)});
          if (!frame.ok()) {
            log->NoteFailure("frame: " + frame.status().ToString());
            break;
          }
          TimedRead(
              log, "read_frame",
              [&] { return db()->ReadFrame(id, frame.value()); },
              [&](const MddArray& got) {
                return MatchesFrame(got, ref, frame.value());
              });
          break;
        }
        case 'A': {
          const Condenser condenser = kCondensers[(i / 10) % 4];
          TimedRead(
              log, "aggregate",
              [&] { return db()->Aggregate(id, condenser, box); },
              [&](double got) {
                return MatchesAggregate(got, ref, condenser, box);
              });
          break;
        }
        case 'Q': {
          heaven::CellPredicate pred;
          pred.cmp = heaven::CompareOp::kGt;
          pred.value = 8.0 + 14.0 * rng_.NextDouble();
          const bool universal = (i / 10) % 2 == 1;
          auto* stats = db()->stats();
          const uint64_t tiles = stats->Get(Ticker::kTilesTouched);
          const uint64_t shortcuts =
              stats->Get(Ticker::kIndexPredicateShortcuts);
          TimedRead(
              log, "quantifier",
              [&] {
                return db()->EvaluateQuantifier(id, box, pred, universal);
              },
              [&](bool got) {
                return got == QuantifierReference(ref, box, pred, universal);
              });
          log->quantifier_tiles += stats->Get(Ticker::kTilesTouched) - tiles;
          log->quantifier_shortcuts +=
              stats->Get(Ticker::kIndexPredicateShortcuts) - shortcuts;
          break;
        }
      }
      if (phase.after_op) phase.after_op();
    }
  }

  uint64_t LiveUserBytes() const override {
    uint64_t bytes = 0;
    for (const MddArray& ref : refs_) bytes += ref.size_bytes();
    return bytes;
  }

  ObjectId ProbeObject() const override { return ids_[0]; }
  std::string ProbeObjectName() const override { return "cube0"; }
  std::vector<MdInterval> ProbeBoxes(size_t n) const override {
    Rng rng(SubSeed(seed_, 9));
    std::vector<MdInterval> boxes;
    for (size_t i = 0; i < n; ++i) {
      boxes.push_back(SeededBox(
          domain_, StratifiedSelectivity(u0_, i, 0.01, 0.10), &rng));
    }
    return boxes;
  }

 private:
  const uint64_t seed_;
  const MdInterval domain_;
  std::vector<MddArray> refs_;
  benchutil::DbHandle handle_;
  std::vector<ObjectId> ids_;
  Rng rng_{0};
  double u0_ = 0.0;
  uint64_t next_op_ = 0;
};

// ---------------------------------------------------------------------------
// hot_storm: concurrent reads served entirely from the cache.
// ---------------------------------------------------------------------------

class HotStorm : public Workload {
 public:
  static constexpr size_t kClients = 4;

  explicit HotStorm(uint64_t seed)
      : seed_(seed),
        domain_(benchutil::CubeDomainForMiB(8.0)),
        ref_(benchutil::ClimateField(domain_, SubSeed(seed, 200))) {}

  size_t clients() const override { return kClients; }
  bool deterministic() const override { return false; }

  Status Setup() override {
    handle_ = benchutil::DbHandle();
    HeavenOptions options = benchutil::DefaultOptions();
    options.cache.capacity_bytes = 64ull << 20;
    options.num_threads = 1;
    handle_ = benchutil::MakeDb(options);
    auto id = handle_.db->InsertObject(handle_.collection, "hot", ref_);
    if (!id.ok()) return id.status();
    id_ = id.value();
    HEAVEN_RETURN_IF_ERROR(handle_.db->ExportObject(id_));
    // Warm-up: one whole-object read caches every super-tile.
    auto warm = handle_.db->ReadObject(id_);
    if (!warm.ok()) return warm.status();
    if (!MatchesBox(warm.value(), ref_, domain_)) {
      return Status::Corruption("warm-up read returned wrong cells");
    }
    streams_.clear();
    for (size_t c = 0; c < kClients; ++c) {
      Stream stream;
      stream.rng = Rng(SubSeed(seed_, 10 + c));
      stream.u0 = Rng(SubSeed(seed_, 20 + c)).NextDouble();
      streams_.push_back(stream);
    }
    return Status::Ok();
  }

  HeavenDb* db() override { return handle_.db.get(); }

  void RunClient(size_t client, const Phase& phase, ClientLog* log) override {
    Stream& s = streams_[client];
    while (!phase.Done(*log)) {
      const uint64_t i = s.next_op++;
      MdInterval box;
      {
        OverheadTimer gen(log);
        box = SeededBox(domain_,
                        StratifiedSelectivity(s.u0, i, 0.001, 0.05), &s.rng);
      }
      const auto matches = [&](const MddArray& got) {
        return MatchesBox(got, ref_, box);
      };
      if (i % 4 == 3) {
        const std::string text = RasqlTrim("hot", box);
        TimedRead(
            log, "rasql",
            [&]() -> heaven::Result<MddArray> {
              auto result = heaven::rasql::ExecuteString(db(), text);
              if (!result.ok()) return result.status();
              if (result.value().is_scalar()) {
                return Status::Corruption("scalar result for a trim");
              }
              return result.value().array();
            },
            matches);
      } else {
        TimedRead(
            log, "read_region", [&] { return db()->ReadRegion(id_, box); },
            matches);
      }
      if (phase.after_op) phase.after_op();
    }
  }

  uint64_t LiveUserBytes() const override { return ref_.size_bytes(); }

  ObjectId ProbeObject() const override { return id_; }
  std::string ProbeObjectName() const override { return "hot"; }
  std::vector<MdInterval> ProbeBoxes(size_t n) const override {
    Rng rng(SubSeed(seed_, 9));
    std::vector<MdInterval> boxes;
    for (size_t i = 0; i < n; ++i) {
      boxes.push_back(SeededBox(
          domain_, StratifiedSelectivity(0.5, i, 0.001, 0.05), &rng));
    }
    return boxes;
  }

 private:
  struct Stream {
    Rng rng{0};
    double u0 = 0.0;
    uint64_t next_op = 0;
  };

  const uint64_t seed_;
  const MdInterval domain_;
  const MddArray ref_;
  benchutil::DbHandle handle_;
  ObjectId id_ = 0;
  std::vector<Stream> streams_;
};

// ---------------------------------------------------------------------------
// ingest_mixed: archive new objects and patch archived ones beside reads.
// ---------------------------------------------------------------------------

class IngestMixed : public Workload {
 public:
  // Every object lives the same life: inserted and archived, patched
  // kPatchAge cycles later, deleted once kLiveObjects newer ones exist.
  // The database therefore reaches one steady state whatever the seed.
  static constexpr size_t kLiveObjects = 8;
  static constexpr size_t kPatchAge = 3;
  static constexpr int kBankSize = 8;
  static constexpr uint64_t kReclaimEvery = 2;

  explicit IngestMixed(uint64_t seed)
      : seed_(seed), domain_(benchutil::CubeDomainForMiB(2.0)) {
    for (int b = 0; b < kBankSize; ++b) {
      bank_.push_back(
          benchutil::ClimateField(domain_, SubSeed(seed_, 300 + b)));
    }
  }

  uint64_t check_ops() const override { return 40; }

  Status Setup() override {
    handle_ = benchutil::DbHandle();
    live_.clear();
    HeavenOptions options = benchutil::DefaultOptions();
    options.decoupled_export = true;
    options.num_threads = 2;
    options.compression = Compression::kDeltaRle;
    options.cache.capacity_bytes = 2 * bank_[0].size_bytes();
    options.storage.sync_on_commit = true;
    handle_ = benchutil::MakeDb(options);
    // The initial archive: as many objects as the steady state holds.
    for (size_t i = 0; i < kLiveObjects; ++i) {
      HEAVEN_RETURN_IF_ERROR(
          AddObject("base" + std::to_string(i), bank_[i % kBankSize]));
      HEAVEN_RETURN_IF_ERROR(handle_.db->ExportObject(live_.back().id));
    }
    HEAVEN_RETURN_IF_ERROR(handle_.db->DrainExports());
    // Warm-up: build each object's tile index.
    for (const LiveObject& object : live_) {
      const MdInterval box = benchutil::SelectivityBox(domain_, 0.001, 0.5);
      auto warm = handle_.db->ReadRegion(object.id, box);
      if (!warm.ok()) return warm.status();
      if (!MatchesBox(warm.value(), object.ref, box)) {
        return Status::Corruption("warm-up read returned wrong cells");
      }
    }
    rng_ = Rng(SubSeed(seed_, 30));
    cycle_ = 0;
    return Status::Ok();
  }

  HeavenDb* db() override { return handle_.db.get(); }

  void RunClient(size_t, const Phase& phase, ClientLog* log) override {
    while (!phase.Done(*log)) {
      RunCycle(cycle_++, log);
      if (phase.after_op) phase.after_op();
    }
  }

  uint64_t LiveUserBytes() const override {
    uint64_t bytes = 0;
    for (const LiveObject& object : live_) bytes += object.ref.size_bytes();
    return bytes;
  }

  ObjectId ProbeObject() const override { return live_.front().id; }
  std::string ProbeObjectName() const override { return live_.front().name; }
  std::vector<MdInterval> ProbeBoxes(size_t n) const override {
    Rng rng(SubSeed(seed_, 9));
    std::vector<MdInterval> boxes;
    for (size_t i = 0; i < n; ++i) {
      boxes.push_back(SeededBox(domain_, i % 2 == 0 ? 0.05 : 0.01, &rng));
    }
    return boxes;
  }

 private:
  struct LiveObject {
    ObjectId id = 0;
    std::string name;
    MddArray ref;  // the oracle's copy, with every applied patch
  };

  Status AddObject(const std::string& name, const MddArray& data) {
    auto id = handle_.db->InsertObject(handle_.collection, name, data);
    if (!id.ok()) return id.status();
    live_.push_back({id.value(), name, data});
    return Status::Ok();
  }

  void Read(ClientLog* log, const LiveObject& object, const MdInterval& box) {
    TimedRead(
        log, "read_region", [&] { return db()->ReadRegion(object.id, box); },
        [&](const MddArray& got) { return MatchesBox(got, object.ref, box); });
  }

  /// One cycle: insert a new object, patch 1% of the object archived
  /// kPatchAge cycles ago, archive both (decoupled export, drained), read
  /// both back twice, delete the oldest object, and every kReclaimEvery
  /// cycles reclaim the medium with the most dead bytes. About half of
  /// the operations are writes.
  void RunCycle(uint64_t cycle, ClientLog* log) {
    // Oracle state is updated only after the call it models succeeded.
    MdInterval patch_box;
    MddArray patch;
    {
      OverheadTimer gen(log);
      patch_box = SeededBox(domain_, 0.01, &rng_);
      patch = benchutil::ClimateField(patch_box, SubSeed(seed_, 1000 + cycle));
    }
    const std::string name = "cycle" + std::to_string(cycle);
    const MddArray& data = bank_[cycle % kBankSize];
    ObjectId id = 0;
    const bool inserted = TimedWrite(log, "insert", [&] {
      auto result = db()->InsertObject(handle_.collection, name, data);
      if (!result.ok()) return result.status();
      id = result.value();
      return Status::Ok();
    });
    if (!inserted) return;
    {
      OverheadTimer model(log);
      live_.push_back({id, name, data});
    }
    LiveObject& fresh = live_.back();
    LiveObject& patched = live_[live_.size() - 1 - kPatchAge];

    if (TimedWrite(log, "update",
                   [&] { return db()->UpdateRegion(patched.id, patch); })) {
      OverheadTimer model(log);
      const Status applied =
          patched.ref.mutable_tile().CopyRegionFrom(patch.tile(), patch_box);
      if (!applied.ok()) log->NoteFailure("oracle: " + applied.ToString());
    }
    TimedWrite(
        log, "export",
        [&] {
          HEAVEN_RETURN_IF_ERROR(db()->ExportObject(fresh.id));
          HEAVEN_RETURN_IF_ERROR(db()->ExportObject(patched.id));
          return db()->DrainExports();
        },
        fresh.ref.size_bytes());
    log->exports += 2;

    Read(log, fresh, SeededBox(domain_, 0.05, &rng_));
    Read(log, fresh, SeededBox(domain_, 0.02, &rng_));
    Read(log, patched, patch_box);
    Read(log, patched, SeededBox(domain_, 0.02, &rng_));

    const LiveObject gone = live_.front();
    TimedWrite(log, "delete", [&] { return db()->DeleteObject(gone.id); });
    live_.pop_front();
    {
      OverheadTimer check(log);
      if (db()->FindObject(gone.name).ok()) {
        ++log->wrong;
        log->NoteFailure("delete: object still visible");
      }
    }
    if (cycle % kReclaimEvery == kReclaimEvery - 1) Reclaim(log);

    OverheadTimer sample(log);
    log->space_samples.push_back(static_cast<double>(TapeUsedBytes(db())) /
                                 static_cast<double>(LiveUserBytes()));
  }

  /// Reclaims the medium holding the most dead bytes; the oracle expects
  /// exactly its written bytes minus its live containers back.
  void Reclaim(ClientLog* log) {
    std::map<heaven::MediumId, uint64_t> live_bytes;
    for (const heaven::SuperTileMeta& meta : db()->RegistrySnapshot()) {
      live_bytes[meta.medium] += meta.size_bytes;
    }
    heaven::MediumId victim = 0;
    uint64_t most_dead = 0;
    for (heaven::MediumId m = 0; m < db()->library()->num_media(); ++m) {
      const uint64_t dead = MediumUsedBytes(db(), m) - live_bytes[m];
      if (dead > most_dead) {
        most_dead = dead;
        victim = m;
      }
    }
    if (most_dead == 0) return;
    const uint64_t written = db()->stats()->Get(Ticker::kTapeBytesWritten);
    uint64_t reclaimed = 0;
    TimedWrite(log, "reclaim", [&] {
      auto result = db()->ReclaimMedium(victim);
      if (!result.ok()) return result.status();
      reclaimed = result.value();
      return Status::Ok();
    });
    ++log->reclaims;
    log->reclaim_bytes_written +=
        db()->stats()->Get(Ticker::kTapeBytesWritten) - written;
    if (reclaimed != most_dead) {
      ++log->wrong;
      log->NoteFailure("reclaim: " + std::to_string(reclaimed) +
                       " bytes reclaimed, " + std::to_string(most_dead) +
                       " expected");
    }
  }

  const uint64_t seed_;
  const MdInterval domain_;
  std::vector<MddArray> bank_;
  benchutil::DbHandle handle_;
  std::deque<LiveObject> live_;  // oldest first
  Rng rng_{0};
  uint64_t cycle_ = 0;
};

}  // namespace

uint64_t TapeUsedBytes(HeavenDb* db) {
  uint64_t used = 0;
  for (heaven::MediumId m = 0; m < db->library()->num_media(); ++m) {
    used += MediumUsedBytes(db, m);
  }
  return used;
}

std::string RasqlTrim(const std::string& object, const MdInterval& box) {
  std::string text = "select " + object + "[";
  for (size_t d = 0; d < box.dims(); ++d) {
    if (d > 0) text += ",";
    text += std::to_string(box.lo(d)) + ":" + std::to_string(box.hi(d));
  }
  return text + "] from bench";
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "cold_range") return std::make_unique<ColdRange>(seed);
  if (name == "hot_storm") return std::make_unique<HotStorm>(seed);
  if (name == "ingest_mixed") return std::make_unique<IngestMixed>(seed);
  return nullptr;
}

}  // namespace perfbench
