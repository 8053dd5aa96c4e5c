#include "heaven/heaven_db.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <set>

#include "array/cell_type.h"
#include "common/coding.h"
#include "common/logging.h"
#include "heaven/prefetch.h"
#include "heaven/size_adaptation.h"
#include "array/tiling.h"

namespace heaven {

namespace {
constexpr char kRegistrySection[] = "heaven.supertiles";
constexpr char kPrecomputedSection[] = "heaven.precomputed";
constexpr char kCurvesSection[] = "heaven.curves";

std::string SerializeCurves(const std::map<ObjectId, CurveKind>& curves) {
  std::string out;
  PutFixed32(&out, static_cast<uint32_t>(curves.size()));
  for (const auto& [object_id, curve] : curves) {
    PutFixed64(&out, object_id);
    out.push_back(static_cast<char>(static_cast<uint8_t>(curve)));
  }
  return out;
}

Result<std::map<ObjectId, CurveKind>> DeserializeCurves(
    const std::string& image) {
  std::map<ObjectId, CurveKind> curves;
  if (image.empty()) return curves;  // databases predating curve tags
  Decoder dec(image);
  uint32_t count = 0;
  HEAVEN_RETURN_IF_ERROR(dec.GetFixed32(&count));
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t object_id = 0;
    HEAVEN_RETURN_IF_ERROR(dec.GetFixed64(&object_id));
    std::string byte;
    HEAVEN_RETURN_IF_ERROR(dec.GetRaw(1, &byte));
    const std::optional<CurveKind> kind =
        CurveKindFromByte(static_cast<uint8_t>(byte[0]));
    if (!kind.has_value()) {
      return Status::Corruption("unknown space-filling curve tag " +
                                std::to_string(byte[0]) + " for object " +
                                std::to_string(object_id));
    }
    curves.emplace(object_id, *kind);
  }
  if (!dec.done()) {
    return Status::Corruption("trailing bytes in curve section");
  }
  return curves;
}

CatalogDelta SetSection(const char* name, std::string payload) {
  CatalogDelta delta;
  delta.op = CatalogOp::kSetSection;
  delta.name = name;
  delta.payload = std::move(payload);
  return delta;
}

/// Stages the move of `tile` to disk blob `blob_id` or, with blob_id 0, to
/// super-tile `super_tile` on tertiary storage.
void StageTileMove(Transaction* txn, ObjectId object_id, TileDescriptor tile,
                   BlobId blob_id, SuperTileId super_tile) {
  tile.location = blob_id != 0 ? TileLocation::kDisk : TileLocation::kTertiary;
  tile.blob_id = blob_id;
  tile.super_tile = super_tile;
  CatalogDelta update;
  update.op = CatalogOp::kUpdateTileLocation;
  update.object_id = object_id;
  update.tile = std::move(tile);
  txn->UpdateCatalog(update);
}

/// Appends the tape super-tiles of `tiles` not in `ids` yet, in tile order.
void AddTapeSuperTiles(const std::vector<TileDescriptor>& tiles,
                       std::vector<SuperTileId>* ids) {
  for (const TileDescriptor& tile : tiles) {
    if (tile.location == TileLocation::kTertiary &&
        std::find(ids->begin(), ids->end(), tile.super_tile) == ids->end()) {
      ids->push_back(tile.super_tile);
    }
  }
}

}  // namespace

HeavenDb::HeavenDb(Env* env, std::string dir, HeavenOptions options)
    : env_(env), dir_(std::move(dir)), options_(std::move(options)) {}

Result<std::unique_ptr<HeavenDb>> HeavenDb::Open(Env* env,
                                                 const std::string& dir,
                                                 const HeavenOptions& options) {
  std::unique_ptr<HeavenDb> db(new HeavenDb(env, dir, options));
  HEAVEN_RETURN_IF_ERROR(db->Init());
  return db;
}

Status HeavenDb::Init() {
  HEAVEN_ASSIGN_OR_RETURN(
      engine_, StorageEngine::Open(env_, dir_, options_.storage, &stats_));
  library_ = std::make_unique<TapeLibrary>(options_.library, &stats_,
                                           env_, dir_ + "/tape");
  HEAVEN_RETURN_IF_ERROR(library_->LoadPersistedMedia());
  if (options_.fault_policy.enabled) {
    // Installed after the archive loads: opening the database is not a
    // fault site, so a fixed seed yields the same schedule regardless of
    // how much persisted state the open replays.
    injector_ = std::make_unique<FaultInjector>(options_.fault_policy, &stats_);
    library_->SetFaultInjector(injector_.get());
  }
  if (options_.qos.enabled) {
    // Resolve the "0 = pick a sane default" budgets against the instance:
    // one cache's worth of bytes and a few containers per drive in flight.
    QosOptions qos = options_.qos;
    if (qos.max_inflight_bytes == 0) {
      qos.max_inflight_bytes = options_.cache.capacity_bytes;
    }
    if (qos.max_inflight_fetches == 0) {
      qos.max_inflight_fetches = 4 * std::max(1u, options_.library.num_drives);
    }
    controller_ = std::make_unique<AdmissionController>(
        qos, library_->clock(), &stats_, &profiler_);
    breaker_ = std::make_unique<CircuitBreaker>(
        options_.library.num_drives, qos.breaker_window,
        qos.breaker_failure_threshold, qos.breaker_cooldown_s,
        library_->clock(), &stats_);
    library_->SetCircuitBreaker(breaker_.get());
  }
  cache_ = std::make_unique<SuperTileCache>(options_.cache, &stats_);
  precomputed_ = std::make_unique<PrecomputedCatalog>(&stats_);
  HEAVEN_RETURN_IF_ERROR(LoadRegistry());
  HEAVEN_RETURN_IF_ERROR(LoadCurves());
  {
    // Version 1: the first snapshot, built from the freshly loaded catalog
    // and registry. Published before any worker thread (TCT, sampler)
    // starts, so a snapshot always exists.
    MutexLock lock(db_mu_);
    PublishSnapshot({});
  }
  HEAVEN_RETURN_IF_ERROR(
      precomputed_->Restore(engine_->catalog()->GetSection(kPrecomputedSection)));
  profiler_.SetClock(library_->clock());
  size_t num_threads = options_.num_threads;
  if (num_threads == 0) {
    num_threads = std::max<size_t>(std::thread::hardware_concurrency(), 1);
  }
  // One thread is the caller alone: a zero-worker pool runs tasks inline.
  pool_ = std::make_unique<ThreadPool>(num_threads > 1 ? num_threads : 0);
  HEAVEN_ASSIGN_OR_RETURN(journal_,
                          ExportJournal::Open(env_, dir_ + "/export.journal"));
  HEAVEN_RETURN_IF_ERROR(RecoverExports());
  tct_thread_ = std::thread([this] { TctWorker(); });
  RegisterStandardGauges();
  if (options_.metrics_sampler_interval_s > 0.0) {
    metrics_.StartSampler(options_.metrics_sampler_interval_s);
  }
  return Status::Ok();
}

void HeavenDb::RegisterStandardGauges() {
  for (size_t s = 0; s < cache_->num_shards(); ++s) {
    const MetricLabels labels = {{"shard", std::to_string(s)}};
    metrics_.RegisterGauge(
        "cache.shard_bytes", "bytes resident in one super-tile cache shard",
        labels, [this, s] {
          return static_cast<double>(cache_->ShardStatsAt(s).bytes);
        });
    metrics_.RegisterGauge(
        "cache.shard_entries", "super-tiles resident in one cache shard",
        labels, [this, s] {
          return static_cast<double>(cache_->ShardStatsAt(s).entries);
        });
  }
  metrics_.RegisterGauge("cache.bytes", "total bytes in the super-tile cache",
                         {}, [this] {
                           return static_cast<double>(cache_->size_bytes());
                         });
  metrics_.RegisterGauge(
      "buffer_pool.pages", "pages resident in the buffer pool", {}, [this] {
        return static_cast<double>(engine_->buffer_pool()->cached_pages());
      });
  metrics_.RegisterGauge(
      "buffer_pool.capacity", "buffer pool capacity in pages", {}, [this] {
        return static_cast<double>(engine_->buffer_pool()->capacity());
      });
  const uint32_t num_drives = library_->num_drives();
  for (uint32_t d = 0; d < num_drives; ++d) {
    const MetricLabels labels = {{"drive", std::to_string(d)}};
    metrics_.RegisterGauge(
        "tape.drive_online", "1 while the drive can serve media", labels,
        [this, d] {
          const std::vector<TapeDriveState> states = library_->DriveStates();
          return d < states.size() && states[d].online ? 1.0 : 0.0;
        });
    metrics_.RegisterGauge(
        "tape.drive_occupied", "1 while a medium sits in the drive", labels,
        [this, d] {
          const std::vector<TapeDriveState> states = library_->DriveStates();
          return d < states.size() && states[d].occupied ? 1.0 : 0.0;
        });
    metrics_.RegisterGauge(
        "tape.drive_head_position", "byte position of the drive head", labels,
        [this, d] {
          const std::vector<TapeDriveState> states = library_->DriveStates();
          return d < states.size()
                     ? static_cast<double>(states[d].head_position)
                     : 0.0;
        });
  }
  metrics_.RegisterGauge("tct.queue_depth",
                         "exports waiting for the tertiary communication "
                         "thread",
                         {}, [this] {
                           return static_cast<double>(TctQueueDepth());
                         });
  metrics_.RegisterGauge("fetch.inflight",
                         "single-flight tape fetches currently in flight", {},
                         [this] {
                           return static_cast<double>(InflightFetches());
                         });
  metrics_.RegisterGauge(
      "pool.queue_depth", "tasks queued for the CPU worker pool", {},
      [this] { return static_cast<double>(pool_->QueueDepth()); });
  metrics_.RegisterGauge(
      "pool.active", "workers currently executing a task", {},
      [this] { return static_cast<double>(pool_->ActiveWorkers()); });
  metrics_.RegisterGauge(
      "pool.utilization", "active workers / pool size", {}, [this] {
        return static_cast<double>(pool_->ActiveWorkers()) /
               static_cast<double>(std::max<size_t>(pool_->num_threads(), 1));
      });
  metrics_.RegisterGauge(
      "snapshot.version", "number of the published metadata version", {},
      [this] { return static_cast<double>(snapshot_.version()); });
  metrics_.RegisterGauge(
      "snapshot.retired_pending",
      "retired metadata versions still pinned by readers", {},
      [this] { return static_cast<double>(snapshot_.retired_pending()); });
  metrics_.RegisterGauge(
      "snapshot.age_versions",
      "versions the oldest still-pinned snapshot lags the current one", {},
      [this] { return static_cast<double>(snapshot_.age_versions()); });
  metrics_.RegisterGauge(
      "index.indexed_supertiles",
      "registered super-tiles carrying a bitmap index", {}, [this] {
        uint64_t indexed = 0;
        const DbSnapshotPtr snap = AcquireReadSnapshot();
        snap->registry.ForEach([&](SuperTileId, const SuperTileMeta& meta) {
          if (meta.index != nullptr) ++indexed;
        });
        return static_cast<double>(indexed);
      });
  metrics_.RegisterGauge(
      "index.mask_words",
      "resident WAH words across all super-tile bitmap indexes", {}, [this] {
        uint64_t words = 0;
        const DbSnapshotPtr snap = AcquireReadSnapshot();
        snap->registry.ForEach([&](SuperTileId, const SuperTileMeta& meta) {
          if (meta.index != nullptr) words += meta.index->mask_words();
        });
        return static_cast<double>(words);
      });
  metrics_.RegisterGauge("trace.spans_dropped",
                         "finished spans evicted from the trace ring buffer",
                         {}, [this] {
                           return static_cast<double>(
                               stats_.trace()->dropped());
                         });
  if (injector_ != nullptr) {
    for (int site = 0; site < static_cast<int>(FaultSite::kNumSites);
         ++site) {
      const FaultSite fault_site = static_cast<FaultSite>(site);
      metrics_.RegisterGauge(
          "fault.injected", "faults fired by the deterministic injector",
          {{"site", FaultSiteName(fault_site)}}, [this, fault_site] {
            return static_cast<double>(injector_->injected_at(fault_site));
          });
    }
    metrics_.RegisterGauge("fault.retries",
                           "re-attempts of failed tape operations", {},
                           [this] {
                             return static_cast<double>(
                                 stats_.Get(Ticker::kTapeRetries));
                           });
  }
  if (controller_ != nullptr) {
    for (int c = 0; c < static_cast<int>(QosClass::kNumClasses); ++c) {
      const QosClass qos_class = static_cast<QosClass>(c);
      const MetricLabels labels = {
          {"class", std::string(QosClassName(qos_class))}};
      metrics_.RegisterGauge(
          "admission.tokens", "admission tokens available to the class",
          labels, [this, qos_class] {
            return controller_->TokensAvailable(qos_class);
          });
      metrics_.RegisterGauge(
          "admission.queue_wait_s",
          "virtual queue wait the next admission of the class would pay",
          labels, [this, qos_class] {
            return controller_->QueueWaitSeconds(qos_class);
          });
    }
    metrics_.RegisterGauge(
        "admission.inflight_bytes",
        "super-tile bytes currently granted to in-flight fetch batches", {},
        [this] { return static_cast<double>(controller_->inflight_bytes()); });
    metrics_.RegisterGauge(
        "admission.inflight_fetches",
        "super-tile fetches currently granted to in-flight batches", {},
        [this] {
          return static_cast<double>(controller_->inflight_fetches());
        });
    metrics_.RegisterGauge(
        "admission.brownout", "1 while degraded (cache-only) mode is active",
        {}, [this] { return BrownoutActive() ? 1.0 : 0.0; });
  }
  if (breaker_ != nullptr) {
    for (uint32_t d = 0; d < num_drives; ++d) {
      metrics_.RegisterGauge(
          "breaker.state",
          "per-drive circuit state (0 closed, 1 half-open, 2 open)",
          {{"drive", std::to_string(d)}}, [this, d] {
            switch (breaker_->state(d)) {
              case CircuitBreaker::State::kClosed:
                return 0.0;
              case CircuitBreaker::State::kHalfOpen:
                return 1.0;
              case CircuitBreaker::State::kOpen:
                return 2.0;
            }
            return 0.0;
          });
    }
  }
}

Status HeavenDb::RecoverExports() {
  // Runs during Init, before the TCT starts, but the registry reads below
  // still take the lock so the capability discipline holds everywhere.
  MutexLock lock(db_mu_);
  std::set<ObjectId> unfinished = journal_->pending();
  if (!journal_->intent_open() && unfinished.empty()) return Status::Ok();
  // A crash interrupted a tape-writing mutation or a queued export.
  // db_mu_ serialises every tape writer, so the crash's appends (whole
  // orphaned containers and any torn write) sit above every
  // registry-referenced extent on their media, and a reclaim that
  // committed left no live extent on its source medium. Truncating each
  // medium back to its live end removes exactly the garbage the crash left.
  std::map<MediumId, uint64_t> live_end;
  registry_.ForEach([&](SuperTileId, const SuperTileMeta& meta) {
    live_end[meta.medium] =
        std::max(live_end[meta.medium], meta.offset + meta.size_bytes);
  });
  for (MediumId m = 0; m < library_->num_media(); ++m) {
    const auto it = live_end.find(m);
    HEAVEN_RETURN_IF_ERROR(library_->TruncateMediumForRecovery(
        m, it == live_end.end() ? 0 : it->second));
  }

  // Restart the journal, in one crash-safe replace, with just the unfinished
  // objects that still exist, and hand those (journaled already) to the TCT.
  std::erase_if(unfinished, [&](ObjectId object_id) {
    return !engine_->catalog()->GetObject(object_id).ok();
  });
  HEAVEN_LOG(Warning) << "export journal recovery: rolled back interrupted "
                         "tape writes; re-enqueueing "
                      << unfinished.size() << " object(s)";
  HEAVEN_RETURN_IF_ERROR(journal_->Restart(unfinished));
  MutexLock tct_lock(tct_mu_);
  for (ObjectId object_id : unfinished) {
    tct_queue_.emplace_back(object_id, library_->ElapsedSeconds());
  }
  return Status::Ok();
}

HeavenDb::~HeavenDb() {
  // Gauge callbacks read cache_/library_/pool_/...; stop the sampler before
  // member destruction can pull those out from under a running tick.
  metrics_.StopSampler();
  if (tct_thread_.joinable()) {
    {
      MutexLock lock(tct_mu_);
      tct_stop_ = true;
    }
    tct_cv_.NotifyAll();
    tct_thread_.join();
  }
}

std::string HeavenDb::ExportMetrics(bool as_json) {
  metrics_.SampleOnce();
  return as_json ? metrics_.ToJson() : metrics_.ToPrometheusText();
}

size_t HeavenDb::TctQueueDepth() const {
  MutexLock lock(tct_mu_);
  return tct_queue_.size();
}

size_t HeavenDb::InflightFetches() const {
  MutexLock lock(fetch_mu_);
  return inflight_.size();
}

Status HeavenDb::LoadRegistry() {
  const std::string image = engine_->catalog()->GetSection(kRegistrySection);
  HEAVEN_ASSIGN_OR_RETURN(std::vector<SuperTileMeta> metas,
                          DeserializeSuperTileMetas(image));
  MutexLock lock(db_mu_);
  registry_.Clear();
  for (SuperTileMeta& meta : metas) {
    next_supertile_id_ = std::max(next_supertile_id_, meta.id + 1);
    const SuperTileId id = meta.id;
    registry_.InsertOrAssign(id, std::move(meta));
  }
  return Status::Ok();
}

Status HeavenDb::LoadCurves() {
  const std::string image = engine_->catalog()->GetSection(kCurvesSection);
  Result<std::map<ObjectId, CurveKind>> curves = DeserializeCurves(image);
  HEAVEN_RETURN_IF_ERROR(curves.status());
  MutexLock lock(db_mu_);
  curves_ = std::move(curves).value();
  return Status::Ok();
}

void HeavenDb::PublishSnapshot(const std::vector<ObjectId>& touched) {
  auto next = std::make_shared<DbSnapshot>();
  next->registry = registry_.Snapshot();
  next->curves = curves_;
  DbSnapshotPtr prev = snapshot_.Acquire();
  // Objects this mutation did not touch share their SnapshotObject (and
  // its lazily built tile index) with the previous version.
  for (const auto& [collection_id, collection_name] :
       engine_->catalog()->ListCollections()) {
    (void)collection_name;
    for (const ObjectDescriptor& object :
         engine_->catalog()->ListObjects(collection_id)) {
      std::shared_ptr<const SnapshotObject> snap_object;
      if (prev != nullptr && std::find(touched.begin(), touched.end(),
                                       object.object_id) == touched.end()) {
        const auto it = prev->objects.find(object.object_id);
        if (it != prev->objects.end()) snap_object = it->second;
      }
      if (snap_object == nullptr) {
        snap_object = std::make_shared<SnapshotObject>(
            object, engine_->catalog()->ListTiles(object.object_id));
      }
      next->objects_by_name.emplace(object.name, object.object_id);
      next->objects.emplace(object.object_id, std::move(snap_object));
    }
  }
  // Publishers are serialized under db_mu_, so the number the swap will
  // assign is known before it happens. Drop our own pin on the previous
  // version first: otherwise this very reference keeps it non-quiescent
  // through the publication's reclamation sweep, and an idle database
  // would always report one retired version pending.
  prev.reset();
  next->version = snapshot_.version() + 1;
  snapshot_.Publish(std::move(next));
  stats_.Record(Ticker::kSnapshotsPublished);
}

DbSnapshotPtr HeavenDb::AcquireReadSnapshot() const {
  ScopedSpan span(stats_.trace(), "snap.acquire",
                  ProfileStage::kSnapshotAcquire);
  DbSnapshotPtr snap = snapshot_.Acquire();
  HEAVEN_DCHECK(snap != nullptr) << "no snapshot published before Init done";
  return snap;
}

Status HeavenDb::PersistPrecomputed() {
  return engine_->ApplyCatalogAtomic(
      SetSection(kPrecomputedSection, precomputed_->Serialize()));
}

Status HeavenDb::RunMutation(const char* label,
                             const std::function<Status(Mutation& m)>& body) {
  MutexLock lock(db_mu_);
  ScopedSpan span(stats_.trace(), label);
  active_mutators_.fetch_add(1, std::memory_order_acq_rel);
  std::unique_ptr<Transaction> txn = engine_->Begin();
  Mutation m;
  m.txn = txn.get();
  Status status = body(m);
  if (status.ok()) {
    if (m.registry_changed) {
      txn->UpdateCatalog(SetSection(
          kRegistrySection,
          SerializeSuperTileMetas(SortedRegistry(registry_.Snapshot()))));
    }
    if (m.curves_changed) {
      txn->UpdateCatalog(SetSection(kCurvesSection, SerializeCurves(curves_)));
    }
    if (m.precomputed_changed) {
      txn->UpdateCatalog(
          SetSection(kPrecomputedSection, precomputed_->Serialize()));
    }
    if (!txn->empty()) status = txn->Commit();
  }
  if (!status.ok() && !txn->applied()) {
    // The catalog never saw the mutation: drop the body's in-memory edits.
    // Nothing was published since the body began, so the last published
    // snapshot is the live state to return to.
    const DbSnapshotPtr snap = snapshot_.Acquire();
    registry_.Assign(snap->registry);
    curves_ = snap->curves;
  } else {
    // Committed, or applied but not durable: either way memory follows
    // the catalog.
    if (m.registry_changed || m.curves_changed || !m.touched.empty()) {
      PublishSnapshot(m.touched);
    }
    if (status.ok()) {
      client_clock_.Advance(m.client_seconds);
      if (m.after_publish) status = m.after_publish();
    }
    if (status.ok() && (m.intent_open || m.exported != 0)) {
      status = journal_->LogCommitted(m.exported);
    }
  }
  active_mutators_.fetch_sub(1, std::memory_order_acq_rel);
  return status;
}

// ---------------------------------------------------------------- ingest --

Result<CollectionId> HeavenDb::CreateCollection(const std::string& name) {
  CollectionId id = 0;
  HEAVEN_RETURN_IF_ERROR(RunMutation(
      "mutate.create_collection", [&](Mutation& m) -> Status {
        if (engine_->catalog()->FindCollection(name).has_value()) {
          return Status::AlreadyExists("collection " + name);
        }
        id = engine_->catalog()->NextCollectionId();
        CatalogDelta delta;
        delta.op = CatalogOp::kAddCollection;
        delta.collection_id = id;
        delta.name = name;
        m.txn->UpdateCatalog(delta);
        return Status::Ok();
      }));
  return id;
}

Status HeavenDb::DropCollection(const std::string& name) {
  return RunMutation("mutate.drop_collection", [&](Mutation& m) -> Status {
    auto collection = engine_->catalog()->FindCollection(name);
    if (!collection.has_value()) {
      return Status::NotFound("collection " + name);
    }
    if (!engine_->catalog()->ListObjects(*collection).empty()) {
      return Status::FailedPrecondition("collection " + name +
                                        " is not empty");
    }
    CatalogDelta delta;
    delta.op = CatalogOp::kRemoveCollection;
    delta.collection_id = *collection;
    m.txn->UpdateCatalog(delta);
    return Status::Ok();
  });
}

Result<ObjectId> HeavenDb::InsertObject(CollectionId collection,
                                        const std::string& name,
                                        const MddArray& data,
                                        std::vector<int64_t> tile_extents) {
  ObjectId object_id = 0;
  HEAVEN_RETURN_IF_ERROR(
      RunMutation("mutate.insert", [&](Mutation& m) -> Status {
        db_mu_.AssertHeld();
        HEAVEN_ASSIGN_OR_RETURN(object_id,
                                StageInsert(m, collection, name, data,
                                            std::move(tile_extents)));
        return Status::Ok();
      }));
  HEAVEN_RETURN_IF_ERROR(RunMigrationPolicy());
  return object_id;
}

Result<ObjectId> HeavenDb::StageInsert(Mutation& m, CollectionId collection,
                                       const std::string& name,
                                       const MddArray& data,
                                       std::vector<int64_t> tile_extents) {
  if (engine_->catalog()->FindObject(name).ok()) {
    return Status::AlreadyExists("object " + name);
  }
  if (tile_extents.empty()) {
    tile_extents = ComputeAlignedTileExtents(data.domain(), data.cell_type(),
                                             options_.disk_tile_bytes);
  }
  if (tile_extents.size() != data.domain().dims()) {
    return Status::InvalidArgument("tile extents dimensionality mismatch");
  }

  ObjectDescriptor object;
  object.object_id = engine_->catalog()->NextObjectId();
  object.collection_id = collection;
  object.name = name;
  object.domain = data.domain();
  object.cell_type = data.cell_type();
  object.tile_extents = tile_extents;

  CatalogDelta add_object;
  add_object.op = CatalogOp::kAddObject;
  add_object.object = object;
  m.txn->UpdateCatalog(add_object);

  uint64_t bytes_written = 0;
  for (const MdInterval& tile_domain :
       RegularTiling(data.domain(), tile_extents)) {
    HEAVEN_ASSIGN_OR_RETURN(Tile tile,
                            data.tile().ExtractRegion(tile_domain));
    TileDescriptor descriptor;
    descriptor.tile_id = engine_->catalog()->NextTileId();
    descriptor.domain = tile_domain;
    descriptor.location = TileLocation::kDisk;
    descriptor.blob_id = engine_->blobs()->NextBlobId();
    descriptor.size_bytes = tile.size_bytes();
    bytes_written += tile.size_bytes();

    m.txn->PutBlob(descriptor.blob_id, std::move(tile.mutable_data()));
    CatalogDelta add_tile;
    add_tile.op = CatalogOp::kAddTile;
    add_tile.object_id = object.object_id;
    add_tile.tile = descriptor;
    m.txn->UpdateCatalog(add_tile);
  }
  // Tag the object with the configured layout curve, in the same
  // transaction as its creation.
  curves_[object.object_id] = options_.curve;
  m.curves_changed = true;
  m.touched.push_back(object.object_id);
  m.client_seconds += options_.disk.AccessSeconds(bytes_written);
  return object.object_id;
}

Status HeavenDb::RunMigrationPolicy() {
  if (options_.migrate_high_watermark_bytes == 0) return Status::Ok();
  if (engine_->blobs()->TotalBytes() <= options_.migrate_high_watermark_bytes) {
    return Status::Ok();
  }
  const uint64_t low_watermark =
      std::min(options_.migrate_low_watermark_bytes,
               options_.migrate_high_watermark_bytes);
  // Oldest objects first (smallest id): the classic HSM ageing heuristic —
  // fresh inserts are the likeliest to be re-read soon.
  std::vector<ObjectId> candidates;
  for (const auto& [collection_id, name] :
       engine_->catalog()->ListCollections()) {
    for (const ObjectDescriptor& object :
         engine_->catalog()->ListObjects(collection_id)) {
      candidates.push_back(object.object_id);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  // A queued export frees no disk bytes before the TCT runs it, so the
  // bytes queued in this pass count as already gone (twice, should the
  // TCT have run it meanwhile: the pass then stops early, never late).
  uint64_t queued_bytes = 0;
  for (ObjectId object_id : candidates) {
    if (engine_->blobs()->TotalBytes() <= low_watermark + queued_bytes) break;
    if (options_.decoupled_export) {
      for (const TileDescriptor& tile :
           engine_->catalog()->ListTiles(object_id)) {
        if (tile.location == TileLocation::kDisk) {
          queued_bytes += tile.size_bytes;
        }
      }
      MutexLock lock(tct_mu_);
      HEAVEN_RETURN_IF_ERROR(EnqueueExport(object_id));
      continue;
    }
    Status status = ExportObjectSync(object_id);
    // An object deleted since the candidates were listed is skipped.
    if (status.IsNotFound() && !engine_->catalog()->GetObject(object_id).ok()) {
      continue;
    }
    HEAVEN_RETURN_IF_ERROR(status);
  }
  return Status::Ok();
}

// ---------------------------------------------------------------- export --

Status HeavenDb::ExportObject(ObjectId object_id) {
  if (options_.decoupled_export) {
    // Hand the object over to the TCT; the client does not wait for tape.
    MutexLock lock(tct_mu_);
    // A failed queued export must not pass silently: while the sticky
    // error stands, new exports are refused with it (see TctLastError).
    if (!tct_last_error_.ok()) return tct_last_error_;
    return EnqueueExport(object_id);
  }
  const double tape_before = library_->ElapsedSeconds();
  Status status = ExportObjectSync(object_id);
  client_clock_.Advance(library_->ElapsedSeconds() - tape_before);
  return status;
}

Status HeavenDb::EnqueueExport(ObjectId object_id) {
  HEAVEN_RETURN_IF_ERROR(journal_->LogPending(object_id));
  tct_queue_.emplace_back(object_id, library_->ElapsedSeconds());
  tct_cv_.NotifyOne();
  return Status::Ok();
}

Status HeavenDb::ExportObjectSync(ObjectId object_id) {
  return RunMutation("export.object", [&](Mutation& m) {
    db_mu_.AssertHeld();
    return StageExport(m, object_id);
  });
}

Status HeavenDb::StageExport(Mutation& m, ObjectId object_id) {
  HEAVEN_ASSIGN_OR_RETURN(ObjectDescriptor object,
                          engine_->catalog()->GetObject(object_id));
  m.touched.push_back(object_id);
  m.exported = object_id;
  std::vector<TileDescriptor> disk_tiles;
  for (TileDescriptor& tile : engine_->catalog()->ListTiles(object_id)) {
    if (tile.location == TileLocation::kDisk) {
      disk_tiles.push_back(std::move(tile));
    }
  }
  if (disk_tiles.empty()) return Status::Ok();

  // 0. Materialize the browse overview while the data is still disk-fast.
  if (options_.overview_scale_factor > 1 &&
      object.name.find("__overview") == std::string::npos &&
      !engine_->catalog()->FindObject(object.name + "__overview").ok()) {
    // Read through a snapshot like any query: at a mutator's start (no
    // registry or catalog change yet in this export) the published
    // snapshot is identical to the live state.
    const DbSnapshotPtr snap = AcquireReadSnapshot();
    HEAVEN_ASSIGN_OR_RETURN(
        MddArray full, ReadBox(*snap, QueryContext(), object_id, object.domain));
    HEAVEN_ASSIGN_OR_RETURN(MddArray overview,
                            ScaleDown(full, options_.overview_scale_factor));
    HEAVEN_RETURN_IF_ERROR(StageInsert(m, object.collection_id,
                                       object.name + "__overview", overview,
                                       {})
                               .status());
  }

  // 1. Super-tile size: configured or adapted to the drive profile.
  const uint64_t target_bytes =
      options_.supertile_bytes != 0
          ? options_.supertile_bytes
          : OptimalSuperTileBytes(options_.library.profile,
                                  options_.expected_query_bytes);

  // The curve the object was inserted with drives eSTAR ordering, intra
  // clustering and placement (objects predating curve tags use Z-order).
  const auto curve_it = curves_.find(object_id);
  const SpaceFillingCurve& curve = GetCurve(
      curve_it != curves_.end() ? curve_it->second : CurveKind::kZOrder);

  // 2. Partition tiles into super-tile groups (STAR / eSTAR).
  std::vector<SuperTileGroup> groups;
  if (options_.partitioner == PartitionerKind::kStar &&
      !object.tile_extents.empty()) {
    HEAVEN_ASSIGN_OR_RETURN(
        groups, StarPartition(disk_tiles, object.domain, object.tile_extents,
                              target_bytes));
  } else {
    HEAVEN_ASSIGN_OR_RETURN(
        groups, EStarPartition(disk_tiles, target_bytes,
                               options_.access_preferences, curve));
  }

  // 3. Intra-super-tile clustering.
  std::map<TileId, MdInterval> domains;
  std::map<TileId, const TileDescriptor*> by_id;
  for (const TileDescriptor& tile : disk_tiles) {
    domains.emplace(tile.tile_id, tile.domain);
    by_id.emplace(tile.tile_id, &tile);
  }
  HEAVEN_RETURN_IF_ERROR(
      ApplyIntraClustering(&groups, domains, options_.intra_order, curve));

  // 4. Inter-super-tile placement across media.
  HEAVEN_ASSIGN_OR_RETURN(
      PlacementPlan plan,
      PlanPlacement(groups, *library_, options_.inter_clustering, curve));

  // 5. Build, write and register each super-tile in plan order, one
  // window of (pool workers + 1) super-tiles at a time: the window's
  // containers are packed/compressed (the CPU-heavy part) in parallel,
  // then appended strictly in plan order, so placement and the tape clock
  // do not depend on the thread count. Memory holds one window of
  // super-tiles and containers at a time.
  const size_t window = pool_->num_threads() + 1;
  for (size_t begin = 0; begin < plan.write_order.size(); begin += window) {
    const size_t n = std::min(window, plan.write_order.size() - begin);
    std::vector<SuperTile> sts;
    sts.reserve(n);
    for (size_t k = 0; k < n; ++k) {
      HEAVEN_ASSIGN_OR_RETURN(
          SuperTile st,
          BuildSuperTile(object, groups[plan.write_order[begin + k]].tiles,
                         by_id));
      sts.push_back(std::move(st));
    }
    std::vector<std::string> containers(n);
    pool_->ParallelFor(n, [&](size_t k) {
      containers[k] = sts[k].Serialize(options_.compression);
    });
    for (size_t k = 0; k < n; ++k) {
      const size_t idx = plan.write_order[begin + k];
      HEAVEN_RETURN_IF_ERROR(AppendAndRegister(m, sts[k], containers[k],
                                               {plan.medium[idx]},
                                               options_.enable_index, by_id));
    }
  }
  return Status::Ok();
}

Result<SuperTile> HeavenDb::BuildSuperTile(
    const ObjectDescriptor& object, const std::vector<TileId>& tiles,
    const std::map<TileId, const TileDescriptor*>& by_id) {
  SuperTile st(next_supertile_id_++, object.object_id, object.cell_type);
  for (TileId tile_id : tiles) {
    const TileDescriptor* descriptor = by_id.at(tile_id);
    HEAVEN_ASSIGN_OR_RETURN(std::string payload,
                            engine_->blobs()->Get(descriptor->blob_id));
    HEAVEN_RETURN_IF_ERROR(st.AddTile(
        tile_id, Tile(descriptor->domain, object.cell_type,
                      std::move(payload))));
  }
  return st;
}

Status HeavenDb::AppendToTape(Mutation& m, const std::vector<MediumId>& media,
                              std::string_view container,
                              SuperTileMeta* meta) {
  if (!m.intent_open) {
    HEAVEN_RETURN_IF_ERROR(journal_->LogIntent(m.exported));
    m.intent_open = true;
  }
  Result<uint64_t> offset = Status::InvalidArgument("no medium to append to");
  for (MediumId medium : media) {
    offset = library_->Append(medium, container);
    if (offset.ok()) {
      meta->medium = medium;
      meta->offset = offset.value();
      return Status::Ok();
    }
  }
  return offset.status();
}

Status HeavenDb::AppendAndRegister(
    Mutation& m, const SuperTile& st, const std::string& container,
    const std::vector<MediumId>& media, bool with_index,
    const std::map<TileId, const TileDescriptor*>& by_id) {
  SuperTileMeta meta;
  HEAVEN_RETURN_IF_ERROR(AppendToTape(m, media, container, &meta));
  stats_.Record(Ticker::kSuperTilesWritten);
  stats_.Record(Ticker::kSuperTileBytesWritten, container.size());

  meta.id = st.id();
  meta.object_id = st.object_id();
  meta.size_bytes = container.size();
  meta.crc32c = Crc32c(container);
  HEAVEN_ASSIGN_OR_RETURN(meta.hull, st.Hull());
  meta.tile_ids = st.tile_ids();
  if (with_index) {
    // Built once at export time while the cells are in memory anyway;
    // immutable afterwards, so every registry/snapshot copy of the meta
    // shares the same instance and readers consult it lock-free.
    meta.index =
        std::make_shared<const SuperTileIndex>(SuperTileIndex::BuildFrom(st));
  }
  registry_.InsertOrAssign(meta.id, meta);
  m.registry_changed = true;

  for (TileId tile_id : meta.tile_ids) {
    const TileDescriptor* descriptor = by_id.at(tile_id);
    m.txn->DeleteBlob(descriptor->blob_id);
    StageTileMove(m.txn, meta.object_id, *descriptor, 0, meta.id);
  }
  return Status::Ok();
}

Status HeavenDb::ExportObjectTileAtATime(ObjectId object_id) {
  return RunMutation("export.tile_at_a_time", [&](Mutation& m) -> Status {
    db_mu_.AssertHeld();
    const double tape_before = library_->ElapsedSeconds();
    HEAVEN_ASSIGN_OR_RETURN(ObjectDescriptor object,
                            engine_->catalog()->GetObject(object_id));
    m.touched.push_back(object_id);
    m.exported = object_id;
    const uint32_t num_media = library_->num_media();
    MediumId next_medium = 0;
    for (const TileDescriptor& descriptor :
         engine_->catalog()->ListTiles(object_id)) {
      if (descriptor.location != TileLocation::kDisk) continue;
      // Each tile becomes its own (degenerate, unindexed) super-tile
      // container, written wherever the round-robin lands — the naive
      // pre-HEAVEN layout.
      const std::map<TileId, const TileDescriptor*> by_id = {
          {descriptor.tile_id, &descriptor}};
      HEAVEN_ASSIGN_OR_RETURN(
          SuperTile st, BuildSuperTile(object, {descriptor.tile_id}, by_id));
      std::vector<MediumId> media;
      for (uint32_t k = 0; k < num_media; ++k) {
        media.push_back((next_medium + k) % num_media);
      }
      HEAVEN_RETURN_IF_ERROR(AppendAndRegister(
          m, st, st.Serialize(options_.compression), media,
          /*with_index=*/false, by_id));
      next_medium = (registry_.Find(st.id())->medium + 1) % num_media;
    }
    m.client_seconds = library_->ElapsedSeconds() - tape_before;
    return Status::Ok();
  });
}

Status HeavenDb::DrainExports() {
  MutexLock lock(tct_mu_);
  while (!tct_queue_.empty() || tct_busy_) tct_cv_.Wait(lock);
  return tct_last_error_;
}

Status HeavenDb::TctLastError() const {
  MutexLock lock(tct_mu_);
  return tct_last_error_;
}

void HeavenDb::ClearTctError() {
  MutexLock lock(tct_mu_);
  tct_last_error_ = Status::Ok();
}

void HeavenDb::TctWorker() {
  for (;;) {
    ObjectId object_id = 0;
    double enqueued_at = 0.0;
    {
      MutexLock lock(tct_mu_);
      while (!tct_stop_ && tct_queue_.empty()) tct_cv_.Wait(lock);
      if (tct_stop_ && tct_queue_.empty()) return;
      object_id = tct_queue_.front().first;
      enqueued_at = tct_queue_.front().second;
      tct_queue_.pop_front();
      tct_busy_ = true;
    }
    stats_.RecordHistogram(HistogramKind::kTctQueueWaitSeconds,
                           library_->ElapsedSeconds() - enqueued_at);
    stats_.Record(Ticker::kTctExports);
    ScopedSpan span(stats_.trace(), "tct.export");
    Status status = ExportObjectSync(object_id);
    {
      MutexLock lock(tct_mu_);
      // Sticky: keep the *first* failure (later ones are usually fallout).
      if (!status.ok() && tct_last_error_.ok()) tct_last_error_ = status;
      tct_busy_ = false;
    }
    tct_cv_.NotifyAll();
  }
}

// ----------------------------------------------------------------- query --

Result<ObjectDescriptor> HeavenDb::FindObject(const std::string& name) {
  return AcquireReadSnapshot()->FindObject(name);
}

Status HeavenDb::AdmitQueryContext(const QueryContext& ctx) {
  if (controller_ != nullptr && controller_->enabled()) {
    HEAVEN_ASSIGN_OR_RETURN(double wait_s, controller_->AdmitQuery(ctx));
    // The virtual queue wait is client-side latency: the client clock pays
    // it, the tape clock (drives keep serving admitted work) does not.
    if (wait_s > 0.0) client_clock_.Advance(wait_s);
  }
  if (ctx.unconstrained()) return Status::Ok();
  return ctx.Check("admission");
}

void HeavenDb::NoteQueryOutcome(const Status& status) {
  if (status.ok()) return;
  switch (status.code()) {
    case StatusCode::kCancelled:
      stats_.Record(Ticker::kQueryCancelled);
      profiler_.NoteOutcome("cancelled");
      break;
    case StatusCode::kDeadlineExceeded:
      stats_.Record(Ticker::kQueryDeadlineExceeded);
      profiler_.NoteOutcome("deadline_exceeded");
      break;
    case StatusCode::kResourceExhausted:
      // Only overload refusals count as "shed" — a full medium or an
      // exhausted disk keeps its legacy meaning (and no label).
      if (status.message().rfind("admission", 0) == 0 ||
          status.message().rfind("brownout", 0) == 0) {
        profiler_.NoteOutcome("shed");
      }
      break;
    default:
      break;  // legacy error surface, untouched
  }
}

bool HeavenDb::BrownoutActive() const {
  if (controller_ == nullptr) return false;
  if (controller_->brownout()) return true;  // operator-forced
  if (library_->OnlineDrives() == 0) return true;
  if (breaker_ != nullptr && !breaker_->AnyWouldAllow()) return true;
  return false;
}

bool HeavenDb::IsSnapshotConflict(const Status& status) {
  switch (status.code()) {
    case StatusCode::kNotFound:      // object/super-tile deleted under us
    case StatusCode::kOutOfRange:    // tape extent truncated/reorganised
    case StatusCode::kCorruption:    // CRC caught bytes of a reused extent
    case StatusCode::kInternal:      // snapshot/cache cross-checks
      return true;
    default:
      return false;
  }
}

template <typename Fn>
auto HeavenDb::RunQuery(const char* label, const QueryContext& ctx, Fn&& body)
    -> decltype(body(std::declval<const DbSnapshot&>())) {
  QueryProfiler::Scope profile(&profiler_, label);
  Status admit = AdmitQueryContext(ctx);
  if (!admit.ok()) {
    NoteQueryOutcome(admit);
    return admit;
  }
  // Bounded re-pins; each retry requires evidence of a racing mutator, so
  // serial workloads run the body exactly once and surface the exact
  // legacy error, clocks and tickers.
  constexpr int kMaxAttempts = 8;
  for (int attempt = 1;; ++attempt) {
    const DbSnapshotPtr snap = AcquireReadSnapshot();
    auto result = body(*snap);
    if (result.ok() || attempt >= kMaxAttempts ||
        !IsSnapshotConflict(result.status()) ||
        (snapshot_.version() == snap->version &&
         active_mutators_.load(std::memory_order_acquire) == 0)) {
      // Done — or no mutator ran or runs, so the error is genuine (missing
      // object, real corruption, ...), not a stale-snapshot artifact.
      NoteQueryOutcome(result.status());
      return result;
    }
    stats_.Record(Ticker::kSnapshotConflicts);
    // Give the racing mutator a chance to publish its successor version
    // before re-pinning (it may also fail and roll back, dropping the
    // mutator count without a new version — that ends the wait too).
    while (snapshot_.version() == snap->version &&
           active_mutators_.load(std::memory_order_acquire) > 0) {
      std::this_thread::yield();
    }
  }
}

Status HeavenDb::FetchSuperTiles(
    const DbSnapshot& snap, const QueryContext& ctx,
    const std::vector<SuperTileId>& ids,
    std::map<SuperTileId, std::shared_ptr<const SuperTile>>* out) {
  FetchBatch batch;
  FetchWaits waits;
  Result<AdmissionController::InflightGrant> grant =
      ClassifyFetches(snap, ctx, ids, out, &batch, &waits);
  if (!grant.ok()) {
    SettleFetches(&batch, {}, grant.status());
    return grant.status();
  }
  if (!batch.requests.empty()) {
    const double tape_before = library_->ElapsedSeconds();
    HEAVEN_RETURN_IF_ERROR(
        TransferFetches(ctx, /*prefetched=*/false, &batch, out));
    client_clock_.Advance(library_->ElapsedSeconds() - tape_before);
    const SuperTileRequest& last = batch.requests.back();
    MaybePrefetch(snap, last.medium, last.offset + last.size_bytes);
  }
  grant->Release();

  // Collect coalesced results. Only the leader paid tape time onto the
  // client clock; a waiter consumes none (the fetch was already running).
  for (auto& [id, future] : waits) {
    if (!ctx.unconstrained()) {
      // Own promises are all settled by now, so bailing out here leaves
      // no waiter hanging; the foreign leader finishes on its own.
      HEAVEN_RETURN_IF_ERROR(ctx.Check("coalesced fetch"));
    }
    ScopedSpan span(stats_.trace(), "supertile.fetch.coalesced");
    FetchResult result = future.get();
    HEAVEN_RETURN_IF_ERROR(result.status());
    const SuperTileMeta* meta = snap.FindSuperTile(id);
    if (meta != nullptr) span.SetBytes(meta->size_bytes);
    out->emplace(id, std::move(result).value());
  }
  return Status::Ok();
}

Result<AdmissionController::InflightGrant> HeavenDb::ClassifyFetches(
    const DbSnapshot& snap, const QueryContext& ctx,
    const std::vector<SuperTileId>& ids,
    std::map<SuperTileId, std::shared_ptr<const SuperTile>>* out,
    FetchBatch* batch, FetchWaits* waits) {
  for (SuperTileId id : ids) {
    if (out->count(id) > 0) continue;
    for (;;) {
      std::shared_ptr<const SuperTile> cached = cache_->Lookup(id);
      QueryProfiler::Count(cached != nullptr ? &QueryProfile::cache_hits
                                             : &QueryProfile::cache_misses);
      if (cached != nullptr) {
        out->emplace(id, std::move(cached));
        break;
      }
      MutexLock fetch_lock(fetch_mu_);
      auto flight_it = inflight_.find(id);
      if (flight_it != inflight_.end()) {
        // Single-flight: a concurrent fetch of this super-tile is already
        // running — wait for its result instead of touching the tape.
        stats_.Record(Ticker::kFetchCoalesced);
        QueryProfiler::Count(&QueryProfile::fetches_coalesced);
        waits->emplace_back(id, flight_it->second->future);
        break;
      }
      if (cache_->Contains(id)) {
        // A leader finished between our Lookup miss and taking fetch_mu_;
        // loop to take the hit through Lookup (Contains perturbs nothing,
        // so the serial ticker sequence is unchanged).
        continue;
      }
      const SuperTileMeta* meta = snap.FindSuperTile(id);
      if (meta == nullptr) {
        return Status::NotFound("super-tile " + std::to_string(id) +
                                " not registered");
      }
      if (controller_ != nullptr && BrownoutActive()) {
        // Degraded mode: cache hits (above) and coalesced waits on fetches
        // already running still succeed, but this query must not become a
        // new tape-fetch leader.
        stats_.Record(Ticker::kBrownoutRefusals);
        return Status::ResourceExhausted(
            "brownout: super-tile " + std::to_string(id) +
            " is not cached and tape fetches are suspended");
      }
      ClaimFetch(*meta, batch);
      break;
    }
  }
  if (batch->requests.empty()) return AdmissionController::InflightGrant();

  batch->requests = ScheduleRequests(std::move(batch->requests), *library_,
                                     options_.schedule_policy);
  if (ctx.deadline.has_deadline()) {
    // Cost-model pre-admission: a plan that provably cannot finish within
    // the remaining deadline fails in O(n) — before any robot motion, seek
    // or transfer is charged to the simulation.
    const double slack = controller_ != nullptr
                             ? controller_->options().preadmission_slack
                             : 1.0;
    const double estimate_s = EstimatePlanSeconds(batch->requests, *library_);
    const double remaining_s = ctx.deadline.remaining_s();
    if (estimate_s > remaining_s * slack) {
      stats_.Record(Ticker::kAdmissionPreadmitRejects);
      return Status::DeadlineExceeded(
          "pre-admission: plan needs an estimated " +
          std::to_string(estimate_s) + "s of tape time but only " +
          std::to_string(remaining_s) + "s of the deadline remain");
    }
  }
  if (controller_ == nullptr || !controller_->enabled()) {
    return AdmissionController::InflightGrant();
  }
  uint64_t batch_bytes = 0;
  for (const SuperTileRequest& request : batch->requests) {
    batch_bytes += request.size_bytes;
  }
  return controller_->AcquireInflight(batch_bytes, batch->requests.size());
}

void HeavenDb::ClaimFetch(const SuperTileMeta& meta, FetchBatch* batch) {
  auto flight = std::make_shared<InflightFetch>();
  flight->future = flight->promise.get_future().share();
  inflight_.emplace(meta.id, flight);
  batch->owned.emplace(meta.id, std::move(flight));
  batch->requests.push_back(
      {meta.id, meta.medium, meta.offset, meta.size_bytes, meta.crc32c});
}

bool HeavenDb::CachedOrInflight(SuperTileId id) const {
  return inflight_.find(id) != inflight_.end() || cache_->Contains(id);
}

Status HeavenDb::TransferFetches(
    const QueryContext& ctx, bool prefetched, FetchBatch* batch,
    std::map<SuperTileId, std::shared_ptr<const SuperTile>>* out) {
  const std::vector<SuperTileRequest>& requests = batch->requests;
  // Each transferred container is decoded by a pool task while the drive
  // transfers the next one (inline on a zero-worker pool); the transfer
  // loop stays serial in batch order, so the tape clock and seek pattern
  // are untouched. This thread admits the decoded super-tiles to the cache
  // in batch order, at most one task per worker behind the transfer loop:
  // the cache's LRU order, and every later hit, eviction and seek, is the
  // same for every thread count. Every decode task carries the caller's
  // trace context, so each is joined before this function returns, on
  // every path.
  std::vector<double> fetch_seconds(requests.size());
  std::deque<std::future<Result<SuperTile>>> pending;
  size_t admitted = 0;  // requests before this one have been joined
  // Joins the oldest pending decode and admits its super-tile. The
  // cancellation checkpoint runs after admission, so a cancelled query
  // keeps the transfer it paid for — a rerun takes the cache hit.
  auto admit_next = [&]() -> Status {
    Result<SuperTile> st = pending.front().get();
    pending.pop_front();
    const size_t i = admitted++;
    HEAVEN_RETURN_IF_ERROR(st.status());
    auto shared = std::make_shared<const SuperTile>(std::move(st).value());
    cache_->Insert(requests[i].id, shared, requests[i].size_bytes, prefetched);
    stats_.Record(Ticker::kSuperTilesRead);
    stats_.Record(Ticker::kSuperTileBytesRead, requests[i].size_bytes);
    stats_.RecordHistogram(HistogramKind::kSuperTileFetchSeconds,
                           fetch_seconds[i]);
    if (prefetched) stats_.Record(Ticker::kPrefetchIssued);
    out->emplace(requests[i].id, std::move(shared));
    if (!ctx.unconstrained()) return ctx.Check("decode");
    return Status::Ok();
  };
  Status status = Status::Ok();
  for (size_t i = 0; i < requests.size(); ++i) {
    const SuperTileRequest& request = requests[i];
    if (!ctx.unconstrained()) {
      // Cooperative checkpoint at the container boundary: a cancelled or
      // expired query stops between transfers, never mid-container.
      // Everything already decoded stays admitted to the cache.
      status = ctx.Check("tape fetch");
      if (!status.ok()) break;
    }
    const double fetch_before = library_->ElapsedSeconds();
    std::string container;
    {
      ScopedSpan fetch_span(stats_.trace(), "supertile.fetch",
                            ProfileStage::kTapeFetch);
      fetch_span.SetBytes(request.size_bytes);
      status = ReadContainerVerified(request.id, ctx, request.medium,
                                     request.offset, request.size_bytes,
                                     request.crc32c, &container);
    }
    if (!status.ok()) break;
    fetch_seconds[i] = library_->ElapsedSeconds() - fetch_before;
    pending.push_back(pool_->Submit(
        [this, c = std::move(container)]() -> Result<SuperTile> {
          ScopedSpan decode_span(stats_.trace(), "supertile.decode",
                                 ProfileStage::kDecode);
          decode_span.SetBytes(c.size());
          return SuperTile::Deserialize(c);
        }));
    if (pending.size() > pool_->num_threads()) {
      status = admit_next();
      if (!status.ok()) break;
    }
  }
  // Join the decodes still in flight. Their transfers are paid for, so
  // they are admitted even after an error.
  while (!pending.empty()) {
    Status s = admit_next();
    if (status.ok()) status = s;
  }
  SettleFetches(batch, *out, status);
  return status;
}

void HeavenDb::SettleFetches(
    FetchBatch* batch,
    const std::map<SuperTileId, std::shared_ptr<const SuperTile>>& decoded,
    const Status& status) {
  {
    MutexLock fetch_lock(fetch_mu_);
    for (const auto& [id, flight] : batch->owned) inflight_.erase(id);
  }
  for (const auto& [id, flight] : batch->owned) {
    const auto it = decoded.find(id);
    flight->promise.set_value(it != decoded.end() ? FetchResult(it->second)
                                                  : FetchResult(status));
  }
}

Status HeavenDb::ReadContainerVerified(SuperTileId id, const QueryContext& ctx,
                                       MediumId medium, uint64_t offset,
                                       uint64_t size_bytes, uint32_t crc32c,
                                       std::string* out) {
  auto where = [&] {
    return "super-tile " + std::to_string(id) + " (medium " +
           std::to_string(medium) + " @" + std::to_string(offset) + " +" +
           std::to_string(size_bytes) + ")";
  };
  // CRC verification costs wall time only (recorded for the benchmark),
  // never simulated time: a real drive verifies while streaming.
  auto crc_matches = [&]() -> bool {
    // analyze: wallclock(CRC verify cost is a real-time measurement)
    const auto verify_start = std::chrono::steady_clock::now();
    const bool match = Crc32c(*out) == crc32c;
    stats_.RecordHistogram(
        HistogramKind::kCrcVerifySeconds,
        // analyze: wallclock(CRC verify cost is a real-time measurement)
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      verify_start)
            .count());
    return match;
  };
  // A mismatch may be a transient read-channel flip — re-fetch exactly
  // once. A second mismatch means the stored container itself is damaged.
  for (const bool refetch : {false, true}) {
    // One transfer, re-driven through the retry policy on transient tape
    // errors. The first attempt is the plain legacy read; retries charge
    // their backoff to the tape clock and count Ticker::kTapeRetries.
    const Status status = RetryTapeOp(
        options_.tape_retry, library_->clock(), &stats_, ctx.deadline,
        ctx.cancel.get(), [&]() -> Status {
          out->clear();
          return library_->ReadAt(medium, offset, size_bytes, out);
        });
    if (!status.ok()) {
      return Status(status.code(), (refetch ? "re-fetch of " : "fetch of ") +
                                       where() + " failed: " +
                                       status.message());
    }
    if (crc_matches()) return Status::Ok();
    stats_.Record(Ticker::kCrcMismatches);
    if (!refetch) {
      HEAVEN_LOG(Warning) << where()
                          << " failed CRC verification; re-fetching once";
    }
  }
  return Status::Corruption("container of " + where() +
                            " failed CRC verification after re-fetch");
}

void HeavenDb::MaybePrefetch(const DbSnapshot& snap, MediumId medium,
                             uint64_t last_end_offset) {
  if (!options_.enable_prefetch || options_.prefetch_depth == 0) return;
  ScopedSpan span(stats_.trace(), "prefetch");
  FetchBatch batch;
  for (SuperTileId id : ChoosePrefetchTargets(
           snap.registry, medium, last_end_offset, options_.prefetch_depth,
           [this](SuperTileId candidate) {
             MutexLock fetch_lock(fetch_mu_);
             return CachedOrInflight(candidate);
           },
           &stats_, options_.enable_index)) {
    const SuperTileMeta& meta = *snap.FindSuperTile(id);
    if (controller_ != nullptr && controller_->enabled() &&
        !controller_->AdmitPrefetch(meta.size_bytes)) {
      // Strictly lower priority than admitted queries: with foreground
      // work queued or the in-flight budget occupied, speculative reads
      // yield the drives (counted by `prefetch.rejected`).
      break;
    }
    MutexLock fetch_lock(fetch_mu_);
    // A query may have claimed or admitted it since the choice.
    if (!CachedOrInflight(id)) ClaimFetch(meta, &batch);
  }
  if (batch.requests.empty()) return;
  std::map<SuperTileId, std::shared_ptr<const SuperTile>> decoded;
  const Status status =
      TransferFetches(QueryContext(), /*prefetched=*/true, &batch, &decoded);
  if (!status.ok()) {
    stats_.Record(Ticker::kPrefetchErrors);
    HEAVEN_LOG(Warning) << "prefetch failed: " << status.ToString();
  }
}

void HeavenDb::PruneTilesWithIndex(const DbSnapshot& snap,
                                   const MdInterval& region,
                                   std::vector<TileDescriptor>* needed) {
  if (!options_.enable_index) return;  // exact legacy read path
  // Sound because every read materializes into a zero-initialized result:
  // a tertiary tile whose overlap with `region` provably holds no nonzero
  // cell contributes nothing, so it can be dropped before the fetch. When
  // that removes a super-tile's last needed tile the container is never
  // scheduled at all — the tape (and the simulated seek/transfer time)
  // is spared the whole transfer.
  std::set<SuperTileId> before;
  std::set<SuperTileId> after;
  std::vector<TileDescriptor> kept;
  kept.reserve(needed->size());
  uint64_t pruned_tiles = 0;
  for (TileDescriptor& tile : *needed) {
    if (tile.location != TileLocation::kTertiary) {
      kept.push_back(std::move(tile));
      continue;
    }
    const SuperTileMeta* meta = snap.FindSuperTile(tile.super_tile);
    if (meta == nullptr || meta->index == nullptr) {
      // Legacy object (or index disabled at export time): fetch as always.
      kept.push_back(std::move(tile));
      continue;
    }
    before.insert(tile.super_tile);
    stats_.Record(Ticker::kIndexLookups);
    const TileIndexEntry* entry = meta->index->Find(tile.tile_id);
    if (entry != nullptr && !SuperTileIndex::AnyNonZeroInBox(*entry, region)) {
      ++pruned_tiles;
      continue;
    }
    after.insert(tile.super_tile);
    kept.push_back(std::move(tile));
  }
  *needed = std::move(kept);
  if (pruned_tiles == 0) return;
  stats_.Record(Ticker::kIndexPrunedTiles, pruned_tiles);
  for (SuperTileId id : before) {
    if (after.count(id) > 0) continue;
    const SuperTileMeta* meta = snap.FindSuperTile(id);
    stats_.Record(Ticker::kIndexPrunedSuperTiles);
    stats_.Record(Ticker::kIndexPrunedBytes, meta->size_bytes);
  }
}

HeavenDb::QueryRecord::QueryRecord(HeavenDb* db, const char* span_name)
    : db_(db),
      span_(db->stats_.trace(), span_name),
      client_before_(db->client_clock_.Now()) {}

double HeavenDb::QueryRecord::ClientSeconds() const {
  return db_->client_clock_.Now() - client_before_;
}

void HeavenDb::QueryRecord::Answered() {
  db_->stats_.Record(Ticker::kQueriesExecuted);
  db_->stats_.RecordHistogram(HistogramKind::kQuerySeconds, ClientSeconds());
}

void HeavenDb::QueryRecord::Answered(uint64_t cells, const MddArray& result) {
  const uint64_t bytes = result.tile().size_bytes();
  db_->stats_.Record(Ticker::kCellsReturned, cells);
  span_.SetBytes(bytes);
  db_->stats_.RecordHistogram(HistogramKind::kQueryBytes,
                              static_cast<double>(bytes));
  Answered();
}

Result<HeavenDb::ReadPart> HeavenDb::PlanRead(const DbSnapshot& snap,
                                              ObjectId object_id,
                                              const MdInterval& box,
                                              const ObjectFrame* frame) {
  ReadPart part;
  HEAVEN_ASSIGN_OR_RETURN(part.object, snap.GetObject(object_id));
  const MdInterval& domain = part.object->descriptor().domain;
  if (!domain.Contains(box)) {
    return Status::OutOfRange(
        frame != nullptr
            ? "frame " + frame->ToString() + " outside object domain"
            : "query region " + box.ToString() + " outside object domain " +
                  domain.ToString());
  }
  ScopedSpan index_span(stats_.trace(), "index.lookup",
                        ProfileStage::kIndexLookup);
  part.tiles = part.object->TilesIntersecting(box);
  if (frame != nullptr) {
    // Only tiles intersecting the frame itself (not just its bounding box)
    // are touched — this is the whole point of object framing.
    std::erase_if(part.tiles, [frame](const TileDescriptor& tile) {
      return !frame->IntersectsBox(tile.domain);
    });
  }
  // Pruning against the bounding box is sound for a frame too: the frame's
  // pieces lie inside the box and the result is zero-filled.
  PruneTilesWithIndex(snap, box, &part.tiles);
  return part;
}

Status HeavenDb::RunReadPipeline(const DbSnapshot& snap,
                                 const QueryContext& ctx,
                                 const std::vector<ReadPart>& parts,
                                 const char* part_span, QueryRecord* query,
                                 const TileSink& sink) {
  std::vector<SuperTileId> needed_sts;
  for (const ReadPart& part : parts) AddTapeSuperTiles(part.tiles, &needed_sts);
  std::map<SuperTileId, std::shared_ptr<const SuperTile>> supertiles;
  HEAVEN_RETURN_IF_ERROR(FetchSuperTiles(snap, ctx, needed_sts, &supertiles));
  for (size_t i = 0; i < parts.size(); ++i) {
    std::optional<QueryRecord> part_query;
    if (part_span != nullptr) part_query.emplace(this, part_span);
    Tiles tiles;
    HEAVEN_RETURN_IF_ERROR(MaterializeTiles(parts[i].object->descriptor(), ctx,
                                            parts[i].tiles, supertiles,
                                            &tiles));
    HEAVEN_RETURN_IF_ERROR(
        sink(i, tiles, part_query.has_value() ? *part_query : *query));
  }
  return Status::Ok();
}

Result<Tile> HeavenDb::LoadTile(
    const ObjectDescriptor& object, const TileDescriptor& descriptor,
    const std::map<SuperTileId, std::shared_ptr<const SuperTile>>&
        supertiles) {
  if (descriptor.location == TileLocation::kDisk) {
    HEAVEN_ASSIGN_OR_RETURN(std::string payload,
                            engine_->blobs()->Get(descriptor.blob_id));
    return Tile(descriptor.domain, object.cell_type, std::move(payload));
  }
  const auto st_it = supertiles.find(descriptor.super_tile);
  if (st_it == supertiles.end()) {
    return Status::Internal(
        "super-tile " + std::to_string(descriptor.super_tile) +
        " required by tile " + std::to_string(descriptor.tile_id) +
        " was not fetched");
  }
  HEAVEN_ASSIGN_OR_RETURN(const Tile* tile,
                          st_it->second->FindTile(descriptor.tile_id));
  return *tile;
}

Status HeavenDb::MaterializeTiles(
    const ObjectDescriptor& object, const QueryContext& ctx,
    const std::vector<TileDescriptor>& needed,
    const std::map<SuperTileId, std::shared_ptr<const SuperTile>>& supertiles,
    Tiles* out) {
  if (!ctx.unconstrained()) {
    HEAVEN_RETURN_IF_ERROR(ctx.Check("materialize"));
  }
  uint64_t disk_bytes = 0;
  for (const TileDescriptor& descriptor : needed) {
    HEAVEN_ASSIGN_OR_RETURN(Tile tile,
                            LoadTile(object, descriptor, supertiles));
    if (descriptor.location == TileLocation::kDisk) {
      disk_bytes += tile.size_bytes();
    }
    out->emplace_back(descriptor, std::move(tile));
    stats_.Record(Ticker::kTilesTouched);
  }
  if (disk_bytes > 0) {
    client_clock_.Advance(options_.disk.AccessSeconds(disk_bytes));
  }
  return Status::Ok();
}

Status HeavenDb::ScatterTiles(const QueryContext& ctx, const Tiles& tiles,
                              const ObjectFrame* frame, MddArray* result) {
  ScopedSpan scatter_span(stats_.trace(), "array.scatter",
                          ProfileStage::kScatter);
  scatter_span.SetBytes(result->tile().size_bytes());
  if (!ctx.unconstrained()) {
    HEAVEN_RETURN_IF_ERROR(ctx.Check("scatter"));
  }
  const MdInterval& region = result->domain();
  // Each tile writes a disjoint destination region (the object's tiles
  // partition its domain), so the copies are data-race free.
  std::vector<Status> statuses(tiles.size());
  pool_->ParallelFor(tiles.size(), [&](size_t i) {
    const auto& [descriptor, tile] = tiles[i];
    if (frame == nullptr) {
      auto overlap = tile.domain().Intersection(region);
      statuses[i] =
          overlap.has_value()
              ? result->mutable_tile().CopyRegionFrom(tile, *overlap)
              : Status::Internal("collected tile " +
                                 std::to_string(descriptor.tile_id) +
                                 " does not overlap query region " +
                                 region.ToString());
      return;
    }
    for (const MdInterval& piece : frame->ClipBox(descriptor.domain)) {
      auto overlap = piece.Intersection(region);
      if (!overlap.has_value()) continue;
      statuses[i] = result->mutable_tile().CopyRegionFrom(tile, *overlap);
      if (!statuses[i].ok()) return;
    }
  });
  for (const Status& status : statuses) HEAVEN_RETURN_IF_ERROR(status);
  return Status::Ok();
}

Result<std::vector<MddArray>> HeavenDb::ReadBoxes(
    const DbSnapshot& snap, const QueryContext& ctx,
    const std::vector<std::pair<ObjectId, MdInterval>>& queries, bool batch,
    const ObjectFrame* frame) {
  QueryRecord query(this, frame != nullptr ? "query.read_frame"
                          : batch          ? "query.read_regions"
                                           : "query.read_region");
  std::vector<ReadPart> parts;
  parts.reserve(queries.size());
  for (const auto& [object_id, box] : queries) {
    HEAVEN_ASSIGN_OR_RETURN(ReadPart part,
                            PlanRead(snap, object_id, box, frame));
    parts.push_back(std::move(part));
  }
  std::vector<MddArray> results;
  results.reserve(queries.size());
  HEAVEN_RETURN_IF_ERROR(RunReadPipeline(
      snap, ctx, parts, batch ? "query.read_region" : nullptr, &query,
      [&](size_t i, const Tiles& tiles, QueryRecord& answered) -> Status {
        const MdInterval& box = queries[i].second;
        MddArray result(box, parts[i].object->descriptor().cell_type);
        HEAVEN_RETURN_IF_ERROR(ScatterTiles(ctx, tiles, frame, &result));
        answered.Answered(
            frame != nullptr ? frame->CellCount() : box.CellCount(), result);
        results.push_back(std::move(result));
        return Status::Ok();
      }));
  return results;
}

Result<MddArray> HeavenDb::ReadBox(const DbSnapshot& snap,
                                   const QueryContext& ctx,
                                   ObjectId object_id, const MdInterval& box,
                                   const ObjectFrame* frame) {
  HEAVEN_ASSIGN_OR_RETURN(
      std::vector<MddArray> results,
      ReadBoxes(snap, ctx, {{object_id, box}}, /*batch=*/false, frame));
  return std::move(results.front());
}

Result<MddArray> HeavenDb::ReadRegion(ObjectId object_id,
                                      const MdInterval& region,
                                      const QueryContext& ctx) {
  return RunQuery("read_region", ctx, [&](const DbSnapshot& snap) {
    return ReadBox(snap, ctx, object_id, region);
  });
}

Result<MddArray> HeavenDb::ReadObject(ObjectId object_id,
                                      const QueryContext& ctx) {
  return RunQuery(
      "read_region", ctx, [&](const DbSnapshot& snap) -> Result<MddArray> {
        HEAVEN_ASSIGN_OR_RETURN(std::shared_ptr<const SnapshotObject> object,
                                snap.GetObject(object_id));
        return ReadBox(snap, ctx, object_id, object->descriptor().domain);
      });
}

Result<MddArray> HeavenDb::ReadFrame(ObjectId object_id,
                                     const ObjectFrame& frame,
                                     const QueryContext& ctx) {
  return RunQuery(
      "read_frame", ctx, [&](const DbSnapshot& snap) -> Result<MddArray> {
        HEAVEN_ASSIGN_OR_RETURN(MdInterval bbox, frame.BoundingBox());
        return ReadBox(snap, ctx, object_id, bbox, &frame);
      });
}

Result<double> HeavenDb::Aggregate(ObjectId object_id, Condenser condenser,
                                   const MdInterval& region,
                                   const QueryContext& ctx) {
  return RunQuery(
      "aggregate", ctx, [&](const DbSnapshot& snap) -> Result<double> {
        QueryRecord query(this, "query.aggregate");
        if (options_.enable_precomputed) {
          std::optional<double> hit =
              precomputed_->Lookup(object_id, condenser, region);
          if (hit.has_value()) {
            query.Answered();
            return *hit;
          }
        }
        // The region read counts as the executed query; the aggregate adds
        // only its client seconds.
        HEAVEN_ASSIGN_OR_RETURN(MddArray data,
                                ReadBox(snap, ctx, object_id, region));
        HEAVEN_ASSIGN_OR_RETURN(double value,
                                CondenseRegion(data, condenser, region));
        // Cache only while no mutator runs and none published since the
        // pin: every invalidating mutation publishes, so the value is
        // still current. A read never waits on a mutator; it skips the
        // cache instead.
        if (options_.enable_precomputed && db_mu_.TryLock()) {
          MutexLock lock(db_mu_, kAdoptLock);
          if (snapshot_.version() == snap.version) {
            precomputed_->Insert(object_id, condenser, region, value);
            HEAVEN_RETURN_IF_ERROR(PersistPrecomputed());
          }
        }
        stats_.RecordHistogram(HistogramKind::kQuerySeconds,
                               query.ClientSeconds());
        return value;
      });
}

Result<std::vector<MddArray>> HeavenDb::ReadRegions(
    const std::vector<std::pair<ObjectId, MdInterval>>& queries,
    const QueryContext& ctx) {
  return RunQuery("read_regions", ctx, [&](const DbSnapshot& snap) {
    return ReadBoxes(snap, ctx, queries, /*batch=*/true);
  });
}

Result<bool> HeavenDb::EvaluateQuantifier(ObjectId object_id,
                                          const MdInterval& region,
                                          const CellPredicate& pred,
                                          bool universal,
                                          const QueryContext& ctx) {
  return RunQuery("quantifier", ctx, [&](const DbSnapshot& snap)
                                         -> Result<bool> {
    QueryRecord query(this, "query.quantifier");
    HEAVEN_ASSIGN_OR_RETURN(std::shared_ptr<const SnapshotObject> object,
                            snap.GetObject(object_id));
    const ObjectDescriptor& descriptor = object->descriptor();
    if (!descriptor.domain.Contains(region)) {
      return Status::OutOfRange("query region " + region.ToString() +
                                " outside object domain " +
                                descriptor.domain.ToString());
    }
    const bool zero_matches = EvalCellPredicate(pred, 0.0);

    // Pass 1 — decide as many tiles as possible from the index alone.
    std::vector<ReadPart> undecided = {ReadPart{object, {}}};
    uint64_t covered = 0;
    bool exists = false;  // some overlap cell satisfies the predicate
    bool all = true;      // every decided overlap cell satisfies it
    {
      ScopedSpan index_span(stats_.trace(), "index.lookup",
                            ProfileStage::kIndexLookup);
      std::vector<TileDescriptor> tiles = object->TilesIntersecting(region);
      for (TileDescriptor& tile : tiles) {
        auto overlap = tile.domain.Intersection(region);
        if (!overlap.has_value()) continue;
        covered += overlap->CellCount();
        const SuperTileMeta* meta =
            tile.location == TileLocation::kTertiary
                ? snap.FindSuperTile(tile.super_tile)
                : nullptr;
        const TileIndexEntry* entry =
            options_.enable_index && meta != nullptr && meta->index != nullptr
                ? meta->index->Find(tile.tile_id)
                : nullptr;
        if (entry == nullptr) {
          undecided[0].tiles.push_back(std::move(tile));
          continue;
        }
        stats_.Record(Ticker::kIndexLookups);
        // Min/max classify the tile's whole cell population; all/none
        // verdicts hold for any subset, the overlap included. When the
        // range is inconclusive the zero-mask may still prove the overlap
        // all-zero, which evaluates the predicate exactly at 0.
        PredicateOutcome outcome =
            ClassifyValueRange(pred, entry->min_value, entry->max_value);
        if (outcome == PredicateOutcome::kUndecided &&
            !SuperTileIndex::AnyNonZeroInBox(*entry, *overlap)) {
          outcome = zero_matches ? PredicateOutcome::kAllSatisfy
                                 : PredicateOutcome::kNoneSatisfy;
        }
        switch (outcome) {
          case PredicateOutcome::kAllSatisfy:
            stats_.Record(Ticker::kIndexPredicateShortcuts);
            exists = true;
            break;
          case PredicateOutcome::kNoneSatisfy:
            stats_.Record(Ticker::kIndexPredicateShortcuts);
            all = false;
            break;
          case PredicateOutcome::kUndecided:
            undecided[0].tiles.push_back(std::move(tile));
            break;
        }
      }
    }
    // Region cells no tile covers read as zero (the read path zero-fills
    // them), so they take part in the quantification too.
    if (covered < region.CellCount()) {
      if (zero_matches) {
        exists = true;
      } else {
        all = false;
      }
    }

    // Pass 2 — unless the index already decided, fetch the still-undecided
    // tiles and scan them up to the first cell that decides.
    const bool decided = universal ? !all : exists;
    if (!decided && !undecided[0].tiles.empty()) {
      const size_t cell_size = CellTypeSize(descriptor.cell_type);
      HEAVEN_RETURN_IF_ERROR(RunReadPipeline(
          snap, ctx, undecided, nullptr, &query,
          [&](size_t, const Tiles& tiles, QueryRecord&) -> Status {
            for (const auto& [desc, tile] : tiles) {
              auto overlap = desc.domain.Intersection(region);
              if (!overlap.has_value()) continue;
              for (MdPointIterator it(*overlap); !it.Done(); it.Next()) {
                const uint64_t off = desc.domain.LinearOffset(it.point());
                if (EvalCellPredicate(
                        pred, ReadCellAsDouble(descriptor.cell_type,
                                               tile.data().data() +
                                                   off * cell_size))) {
                  exists = true;
                  if (!universal) return Status::Ok();
                } else {
                  all = false;
                  if (universal) return Status::Ok();
                }
              }
            }
            return Status::Ok();
          }));
    }
    query.Answered();
    return universal ? all : exists;
  });
}

// ------------------------------------------------------- delete / import --

Status HeavenDb::ReimportObject(ObjectId object_id) {
  return RunMutation("mutate.reimport", [&](Mutation& m) -> Status {
    db_mu_.AssertHeld();
    HEAVEN_ASSIGN_OR_RETURN(ObjectDescriptor object,
                            engine_->catalog()->GetObject(object_id));
    std::vector<TileDescriptor> tertiary_tiles;
    for (TileDescriptor& tile : engine_->catalog()->ListTiles(object_id)) {
      if (tile.location == TileLocation::kTertiary) {
        tertiary_tiles.push_back(std::move(tile));
      }
    }
    if (tertiary_tiles.empty()) return Status::Ok();
    return StageTilesToDisk(m, *AcquireReadSnapshot(), object, tertiary_tiles,
                            nullptr);
  });
}

Status HeavenDb::UpdateRegion(ObjectId object_id, const MddArray& patch) {
  return RunMutation("mutate.update", [&](Mutation& m) -> Status {
    db_mu_.AssertHeld();
    HEAVEN_ASSIGN_OR_RETURN(ObjectDescriptor object,
                            engine_->catalog()->GetObject(object_id));
    if (!object.domain.Contains(patch.domain())) {
      return Status::OutOfRange("update region " + patch.domain().ToString() +
                                " outside object domain " +
                                object.domain.ToString());
    }
    if (patch.cell_type() != object.cell_type) {
      return Status::InvalidArgument("update cell type mismatch");
    }
    // The snapshot equals the live state at a mutator's start, so its
    // per-object index answers the intersection query.
    const DbSnapshotPtr snap = AcquireReadSnapshot();
    HEAVEN_ASSIGN_OR_RETURN(std::shared_ptr<const SnapshotObject> snap_object,
                            snap->GetObject(object_id));
    return StageTilesToDisk(m, *snap, object,
                            snap_object->TilesIntersecting(patch.domain()),
                            &patch);
  });
}

Status HeavenDb::StageTilesToDisk(Mutation& m, const DbSnapshot& snap,
                                  const ObjectDescriptor& object,
                                  const std::vector<TileDescriptor>& tiles,
                                  const MddArray* patch) {
  // At a mutator's start the published snapshot equals the live state, so
  // the snapshot-parameterized fetch path serves the mutator too.
  std::vector<SuperTileId> needed_sts;
  AddTapeSuperTiles(tiles, &needed_sts);
  std::map<SuperTileId, std::shared_ptr<const SuperTile>> supertiles;
  HEAVEN_RETURN_IF_ERROR(
      FetchSuperTiles(snap, QueryContext(), needed_sts, &supertiles));

  uint64_t disk_bytes = 0;
  // Track which tiles leave their super-tiles so empty ones can be dropped.
  std::map<SuperTileId, size_t> tiles_leaving;
  for (const TileDescriptor& descriptor : tiles) {
    HEAVEN_ASSIGN_OR_RETURN(Tile tile,
                            LoadTile(object, descriptor, supertiles));
    if (patch != nullptr) {
      auto overlap = tile.domain().Intersection(patch->domain());
      if (!overlap.has_value()) {
        return Status::Internal("affected tile " +
                                std::to_string(descriptor.tile_id) +
                                " does not overlap update region " +
                                patch->domain().ToString());
      }
      HEAVEN_RETURN_IF_ERROR(tile.CopyRegionFrom(patch->tile(), *overlap));
    }
    const bool on_tape = descriptor.location == TileLocation::kTertiary;
    const BlobId blob_id =
        on_tape ? engine_->blobs()->NextBlobId() : descriptor.blob_id;
    disk_bytes += tile.size_bytes();
    m.txn->PutBlob(blob_id, std::move(tile.mutable_data()));
    if (on_tape) {
      ++tiles_leaving[descriptor.super_tile];
      StageTileMove(m.txn, object.object_id, descriptor, blob_id, 0);
    }
  }

  // Drop super-tiles whose every member moved back to disk (tape is
  // append-only: their extents become dead data).
  for (const auto& [st_id, leaving] : tiles_leaving) {
    const SuperTileMeta* existing = registry_.Find(st_id);
    if (existing == nullptr) continue;
    m.registry_changed = true;
    if (leaving >= existing->tile_ids.size()) {
      cache_->Erase(st_id);
      registry_.Erase(st_id);
      continue;
    }
    // Partially updated super-tile: remove the migrated tiles from its
    // member list so re-reads do not resurrect stale cells. FindMutable
    // clones the COW shard, leaving pinned snapshots untouched.
    SuperTileMeta* mutable_meta = registry_.FindMutable(st_id);
    std::vector<TileId>& members = mutable_meta->tile_ids;
    for (const TileDescriptor& descriptor : tiles) {
      if (descriptor.location == TileLocation::kTertiary &&
          descriptor.super_tile == st_id) {
        members.erase(
            std::remove(members.begin(), members.end(), descriptor.tile_id),
            members.end());
      }
    }
    // The departed tiles invalidate the container's bitmap index (its
    // entries describe cells that no longer live there). Drop it: an
    // absent index just means "no pruning information", which is always
    // sound. The next re-export rebuilds it.
    mutable_meta->index = nullptr;
  }
  m.touched.push_back(object.object_id);
  m.client_seconds = options_.disk.AccessSeconds(disk_bytes);
  precomputed_->InvalidateObject(object.object_id);
  m.precomputed_changed = true;
  return Status::Ok();
}

Status HeavenDb::DeleteObject(ObjectId object_id) {
  return RunMutation("mutate.delete", [&](Mutation& m) -> Status {
    db_mu_.AssertHeld();
    HEAVEN_RETURN_IF_ERROR(engine_->catalog()->GetObject(object_id).status());
    for (const TileDescriptor& tile :
         engine_->catalog()->ListTiles(object_id)) {
      if (tile.location == TileLocation::kDisk) {
        m.txn->DeleteBlob(tile.blob_id);
      }
    }
    CatalogDelta remove;
    remove.op = CatalogOp::kRemoveObject;
    remove.object_id = object_id;
    m.txn->UpdateCatalog(remove);

    std::vector<SuperTileId> doomed;
    registry_.ForEach([&](SuperTileId id, const SuperTileMeta& meta) {
      if (meta.object_id == object_id) doomed.push_back(id);
    });
    for (SuperTileId id : doomed) {
      cache_->Erase(id);
      registry_.Erase(id);
    }
    curves_.erase(object_id);
    m.registry_changed = true;
    m.curves_changed = true;
    m.touched.push_back(object_id);
    precomputed_->InvalidateObject(object_id);
    m.precomputed_changed = true;
    return Status::Ok();
  });
}

Result<uint64_t> HeavenDb::ReclaimMedium(MediumId medium) {
  uint64_t reclaimed = 0;
  HEAVEN_RETURN_IF_ERROR(
      RunMutation("mutate.reclaim", [&](Mutation& m) -> Status {
        db_mu_.AssertHeld();
        HEAVEN_ASSIGN_OR_RETURN(uint64_t used_bytes,
                                library_->MediumUsedBytes(medium));
        // Live super-tiles on the medium, as copies.
        std::vector<SuperTileMeta> live;
        uint64_t live_bytes = 0;
        registry_.ForEach([&](SuperTileId, const SuperTileMeta& meta) {
          if (meta.medium == medium) {
            live.push_back(meta);
            live_bytes += meta.size_bytes;
          }
        });
        // Copy them away — ascending offsets, one forward sweep of the
        // source.
        std::sort(live.begin(), live.end(),
                  [](const SuperTileMeta& a, const SuperTileMeta& b) {
                    return a.offset < b.offset;
                  });
        for (SuperTileMeta& meta : live) {
          std::string container;
          // Verified read: reorganisation must never copy silent
          // corruption forward — the source medium is about to be erased.
          HEAVEN_RETURN_IF_ERROR(ReadContainerVerified(
              meta.id, QueryContext(), meta.medium, meta.offset,
              meta.size_bytes, meta.crc32c, &container));
          // Emptiest target other than the source.
          MediumId target = medium;
          uint64_t best_free = 0;
          for (MediumId t = 0; t < library_->num_media(); ++t) {
            if (t == medium) continue;
            HEAVEN_ASSIGN_OR_RETURN(uint64_t free_bytes,
                                    library_->MediumFreeBytes(t));
            if (free_bytes > best_free) {
              best_free = free_bytes;
              target = t;
            }
          }
          if (target == medium || best_free < container.size()) {
            return Status::ResourceExhausted(
                "no space to relocate super-tiles during reclamation");
          }
          HEAVEN_RETURN_IF_ERROR(AppendToTape(m, {target}, container, &meta));
          registry_.InsertOrAssign(meta.id, meta);
          m.registry_changed = true;
        }
        // Tile descriptors did not change — only registry extents moved —
        // so every SnapshotObject is reused. The erase follows the
        // publish and cannot undo the committed moves (a crash before it
        // leaves the intent open, and recovery erases the medium, which
        // holds no live extent any more); readers still pinning the old
        // version may read reused extents, which the CRC check turns into
        // a retried conflict instead of silent corruption.
        m.after_publish = [this, medium] {
          return library_->EraseMedium(medium);
        };
        reclaimed = used_bytes - live_bytes;
        return Status::Ok();
      }));
  return reclaimed;
}

Status HeavenDb::SetObjectCurve(ObjectId object_id, CurveKind curve) {
  return RunMutation("mutate.set_curve", [&](Mutation& m) -> Status {
    db_mu_.AssertHeld();
    HEAVEN_RETURN_IF_ERROR(engine_->catalog()->GetObject(object_id).status());
    // No descriptor or tile changes — every SnapshotObject is shared; only
    // the curve map of the new version differs.
    curves_[object_id] = curve;
    m.curves_changed = true;
    return Status::Ok();
  });
}

Result<CurveKind> HeavenDb::ObjectCurve(ObjectId object_id) const {
  const DbSnapshotPtr snap = AcquireReadSnapshot();
  HEAVEN_RETURN_IF_ERROR(snap->GetObject(object_id).status());
  return snap->ObjectCurve(object_id);
}

std::vector<HeavenDb::ObjectIndexStats> HeavenDb::IndexStats() const {
  // Computed entirely against one pinned snapshot — safe to call from the
  // shell or the metrics sampler while mutators run.
  const DbSnapshotPtr snap = AcquireReadSnapshot();
  std::map<ObjectId, ObjectIndexStats> by_object;
  for (const auto& [object_id, object] : snap->objects) {
    ObjectIndexStats entry;
    entry.object_id = object_id;
    entry.name = object->descriptor().name;
    entry.curve = snap->ObjectCurve(object_id);
    by_object.emplace(object_id, std::move(entry));
  }
  snap->registry.ForEach([&](SuperTileId, const SuperTileMeta& meta) {
    const auto it = by_object.find(meta.object_id);
    if (it == by_object.end()) return;
    ObjectIndexStats& entry = it->second;
    ++entry.supertiles;
    if (meta.index == nullptr) return;
    ++entry.indexed_supertiles;
    entry.indexed_tiles += meta.index->entries().size();
    entry.index_bytes += meta.index->Serialize().size();
    entry.mask_bits += meta.index->mask_bits();
    entry.mask_words += meta.index->mask_words();
    entry.nonzero_cells += meta.index->nonzero_cells();
    entry.total_cells += meta.index->total_cells();
  });
  std::vector<ObjectIndexStats> out;
  out.reserve(by_object.size());
  for (auto& [object_id, entry] : by_object) out.push_back(std::move(entry));
  return out;
}

size_t HeavenDb::RegisteredSuperTiles() const {
  return AcquireReadSnapshot()->registry.size();
}

std::vector<SuperTileMeta> HeavenDb::RegistrySnapshot() const {
  return SortedRegistry(AcquireReadSnapshot()->registry);
}

}  // namespace heaven
