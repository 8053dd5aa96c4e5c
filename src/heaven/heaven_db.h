#ifndef HEAVEN_HEAVEN_HEAVEN_DB_H_
#define HEAVEN_HEAVEN_HEAVEN_DB_H_

#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "array/mdd.h"
#include "array/ops.h"
#include "common/admission.h"
#include "common/env.h"
#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/statistics.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "heaven/bitmap_index.h"
#include "heaven/cache.h"
#include "heaven/clustering.h"
#include "heaven/db_snapshot.h"
#include "heaven/export_journal.h"
#include "heaven/framing.h"
#include "heaven/precomputed.h"
#include "heaven/scheduler.h"
#include "heaven/star.h"
#include "storage/storage_engine.h"
#include "tertiary/hsm_system.h"
#include "tertiary/tape_library.h"

namespace heaven {

/// Which partitioner groups tiles into super-tiles on export.
enum class PartitionerKind {
  kStar,   // regular tilings (grid-aligned groups)
  kEStar,  // arbitrary tilings / access-preference weighting
};

/// Configuration of a HEAVEN database instance.
struct HeavenOptions {
  StorageOptions storage;
  TapeLibraryOptions library;
  CacheOptions cache;
  /// Disk cost model for client-visible insert/read accounting.
  DiskProfile disk;

  /// Target tile size for the default (aligned) tiling on insert.
  uint64_t disk_tile_bytes = 1ull << 20;

  /// Super-tile size; 0 selects automatic adaptation from the drive
  /// profile and `expected_query_bytes` (see size_adaptation.h).
  uint64_t supertile_bytes = 0;
  uint64_t expected_query_bytes = 64ull << 20;

  PartitionerKind partitioner = PartitionerKind::kStar;
  /// Per-dimension access preferences for eSTAR (empty = uniform).
  std::vector<double> access_preferences;

  /// Intra-super-tile clustering of member tiles.
  IntraOrder intra_order = IntraOrder::kRowMajor;
  /// Inter-super-tile clustering (placement across/within media).
  bool inter_clustering = true;

  /// Space-filling curve for tile→super-tile assignment and placement.
  /// Recorded per object at insert time (and overridable via the rasql
  /// `export ... with curve=...` clause), so re-exports keep the layout.
  CurveKind curve = CurveKind::kZOrder;

  /// Build the hierarchical bitmap index over each super-tile at export
  /// time (persisted with the registry) and prune reads, prefetch and
  /// quantifiers with it. Off reproduces the pre-index registry image and
  /// read path bit for bit.
  bool enable_index = true;

  SchedulePolicy schedule_policy = SchedulePolicy::kMediaElevator;

  /// Decoupled export through the Tertiary-storage Communication Thread.
  bool decoupled_export = false;

  /// Read-ahead of physically following super-tiles after a tape batch.
  bool enable_prefetch = false;
  size_t prefetch_depth = 1;

  /// Serve and populate the precomputed-results catalog.
  bool enable_precomputed = true;

  /// Wall-clock period of the background metrics sampler that refreshes
  /// the registry's gauges (cache occupancy, drive states, pool load,
  /// ...). 0 disables the sampler; gauges are then refreshed on demand by
  /// ExportMetrics / metrics()->SampleOnce().
  double metrics_sampler_interval_s = 0.0;

  /// Threads for the CPU-bound hot paths: super-tile decode is pipelined
  /// against the (tape-ordered) transfer loop, tile scatter into query
  /// results fans out, and export-side container packing/compression runs
  /// in parallel. 0 selects std::thread::hardware_concurrency(); 1 builds
  /// a zero-worker pool that runs every task inline on the calling thread.
  /// Every value takes the same code path, with the same tape order,
  /// simulated clocks, counters and cache contents.
  size_t num_threads = 0;

  /// Payload codec for super-tile containers written to tape. Shrinks the
  /// dominant cost of the tertiary tier (transfer time) on compressible
  /// rasters; kNone by default.
  Compression compression = Compression::kNone;

  /// When > 1, ExportObject also materializes a 1:N scaled-down overview
  /// of the object as a disk-resident sibling named "<name>__overview" —
  /// the browse product (vgl. EOWEB previews) that stays online while the
  /// full-resolution data goes to tape. 1 disables.
  int64_t overview_scale_factor = 1;

  /// Automatic migration ("intelligent Datenauslagerung"): when the
  /// disk-resident tile volume exceeds the high watermark after an insert,
  /// whole objects are migrated to tape — oldest first — until the volume
  /// falls below the low watermark. 0 disables the policy. Migration runs
  /// on the TCT when decoupled_export is set (queued bytes count as
  /// freed), otherwise inline (but never on the client clock: it is
  /// background work either way).
  uint64_t migrate_high_watermark_bytes = 0;
  uint64_t migrate_low_watermark_bytes = 0;

  /// Deterministic fault injection (tests and chaos experiments). Disabled
  /// by default; when disabled the code takes the exact legacy path —
  /// identical simulated clocks, tickers and trace trees.
  FaultPolicy fault_policy;

  /// Bounded retry with exponential backoff (charged to the tape clock)
  /// for super-tile fetches; transient tape errors are re-driven before a
  /// query sees them. max_attempts = 1 disables retries.
  RetryPolicy tape_retry;

  /// Overload protection: per-class token-bucket admission, in-flight
  /// fetch budgets, deadline pre-admission, the per-drive circuit breaker
  /// and brownout mode. Disabled by default: with `qos.enabled` false no
  /// controller or breaker is constructed and every query takes the exact
  /// legacy path — bit-identical clocks, tickers and traces.
  QosOptions qos;
};

/// The HEAVEN database: a multidimensional array DBMS whose storage spans
/// the full hierarchy — disk BLOBs through the base storage manager and a
/// robotic tape library behind super-tile containers. Queries are answered
/// transparently across all levels ("active archive"): the caller never
/// states where the data lives.
class HeavenDb {
 public:
  static Result<std::unique_ptr<HeavenDb>> Open(Env* env,
                                                const std::string& dir,
                                                const HeavenOptions& options);
  ~HeavenDb();

  HeavenDb(const HeavenDb&) = delete;
  HeavenDb& operator=(const HeavenDb&) = delete;

  // ---- Schema / ingest ------------------------------------------------

  Result<CollectionId> CreateCollection(const std::string& name)
      EXCLUDES(db_mu_);

  /// Removes an empty collection; FailedPrecondition if objects remain.
  Status DropCollection(const std::string& name) EXCLUDES(db_mu_);

  /// Inserts an object (tiled with `tile_extents`, or the default aligned
  /// tiling when empty). Tiles land on disk; the migration policy (see
  /// HeavenOptions) then runs before the call returns.
  Result<ObjectId> InsertObject(CollectionId collection,
                                const std::string& name, const MddArray& data,
                                std::vector<int64_t> tile_extents = {})
      EXCLUDES(db_mu_);

  // ---- Migration (export to tertiary storage) -------------------------

  /// Migrates all disk tiles of the object into super-tiles on tape.
  /// Synchronous unless options.decoupled_export, in which case the call
  /// enqueues the work for the TCT and returns after the handoff.
  Status ExportObject(ObjectId object_id) EXCLUDES(db_mu_);

  /// The pre-HEAVEN baseline: each tile individually written to tape in
  /// insertion order with no grouping or clustering (experiment E1).
  Status ExportObjectTileAtATime(ObjectId object_id) EXCLUDES(db_mu_);

  /// Blocks until the TCT queue is drained. Returns the sticky TCT error
  /// (see TctLastError) if any queued export failed. Must not be called
  /// under db_mu_: the TCT needs it to make progress.
  Status DrainExports() EXCLUDES(db_mu_);

  /// Sticky error of the decoupled-export worker: the first failure of a
  /// queued export, held until cleared. While set, ExportObject refuses
  /// new work with the same error so failures cannot pass silently.
  Status TctLastError() const;

  /// Clears the sticky TCT error (after the caller has handled it).
  void ClearTctError();

  /// Copies a migrated object's tiles back to disk BLOBs (re-import).
  Status ReimportObject(ObjectId object_id) EXCLUDES(db_mu_);

  /// Updates the cells of `patch.domain()` (which must lie inside the
  /// object's domain) with the values of `patch` — the thesis's
  /// delete/update/re-import path. Affected tiles are patched in place on
  /// disk; tiles currently on tape are re-imported to disk first (tape is
  /// append-only, so their old super-tile extents become dead data and the
  /// super-tile is dropped from the registry once no live tile references
  /// it). Re-export the object afterwards to migrate the new state.
  /// Precomputed results of the object are invalidated.
  Status UpdateRegion(ObjectId object_id, const MddArray& patch)
      EXCLUDES(db_mu_);

  /// Removes the object (catalog, disk blobs, registry, precomputed).
  /// Tape extents become unreferenced (tape is append-only).
  Status DeleteObject(ObjectId object_id) EXCLUDES(db_mu_);

  /// Tape reorganisation: copies every live super-tile off `medium` onto
  /// the emptiest other cartridges, then erases the medium — reclaiming
  /// the dead extents that deletes/updates left behind (tape being
  /// append-only). Returns the number of reclaimed (dead) bytes. All or
  /// nothing: on failure the registry keeps every super-tile where it was.
  Result<uint64_t> ReclaimMedium(MediumId medium) EXCLUDES(db_mu_);

  // ---- Queries ---------------------------------------------------------
  //
  // Every query runs against a pinned DbSnapshot: readers never block on
  // (or even touch) the mutator lock, so cache-hot reads scale with cores.
  // EXCLUDES(db_mu_) makes the no-lock-on-the-read-path invariant
  // compiler-checked.
  //
  // Every reader takes a trailing QueryContext carrying the QoS class, a
  // deadline on the tape clock and a cancellation token. The context rides
  // the whole read path — admission, scheduling, the tape transfer loop,
  // decode and scatter — and is checked cooperatively at each stage
  // boundary. The default (unconstrained) context adds no sim time,
  // tickers or trace spans.

  /// Pins the current metadata snapshot: one shared_ptr copy under a
  /// leaf mutex, credited to the `snap.acquire` span. The snapshot stays valid (and its retired version
  /// unreclaimed) for as long as the returned pointer lives.
  DbSnapshotPtr AcquireReadSnapshot() const;

  Result<ObjectDescriptor> FindObject(const std::string& name)
      EXCLUDES(db_mu_);

  /// Box (trim) query across the storage hierarchy.
  Result<MddArray> ReadRegion(ObjectId object_id, const MdInterval& region,
                              const QueryContext& ctx = {}) EXCLUDES(db_mu_);

  /// Whole-object read.
  Result<MddArray> ReadObject(ObjectId object_id, const QueryContext& ctx = {})
      EXCLUDES(db_mu_);

  /// Object-framing query: only cells inside the frame are retrieved; the
  /// result covers the frame's bounding box with cells outside the frame
  /// zero-filled.
  Result<MddArray> ReadFrame(ObjectId object_id, const ObjectFrame& frame,
                             const QueryContext& ctx = {}) EXCLUDES(db_mu_);

  /// Condenser over a region, served from the precomputed catalog when
  /// possible; computed results are added to the catalog.
  Result<double> Aggregate(ObjectId object_id, Condenser condenser,
                           const MdInterval& region,
                           const QueryContext& ctx = {}) EXCLUDES(db_mu_);

  /// Batch of box queries executed under one scheduling pass — the
  /// query-scheduling experiment path (E7).
  Result<std::vector<MddArray>> ReadRegions(
      const std::vector<std::pair<ObjectId, MdInterval>>& queries,
      const QueryContext& ctx = {}) EXCLUDES(db_mu_);

  /// Membership query: whether some (universal=false) or every
  /// (universal=true) cell of `region` satisfies `pred`. Decided from
  /// the bitmap index hierarchy where possible — super-tile and tile
  /// min/max bins answer most tiles without touching tape; only
  /// undecidable tiles are fetched. Cells of `region` outside the
  /// object's domain read as zero, matching the zero-filled ReadRegion
  /// semantics the rasql fallback path would see.
  Result<bool> EvaluateQuantifier(ObjectId object_id,
                                  const MdInterval& region,
                                  const CellPredicate& pred, bool universal,
                                  const QueryContext& ctx = {})
      EXCLUDES(db_mu_);

  // ---- Introspection ---------------------------------------------------

  Statistics* stats() { return &stats_; }
  /// The typed metric registry over this instance (tickers, histograms and
  /// the sampled gauges registered in Init).
  MetricsRegistry* metrics() { return &metrics_; }
  /// Per-query profiler along the read paths (disabled by default).
  QueryProfiler* profiler() { return &profiler_; }
  /// Samples every gauge once, then renders the registry: Prometheus text
  /// exposition, or the JSON export with `as_json`.
  std::string ExportMetrics(bool as_json = false);
  TapeLibrary* library() { return library_.get(); }
  SuperTileCache* cache() { return cache_.get(); }
  StorageEngine* engine() { return engine_.get(); }
  PrecomputedCatalog* precomputed() { return precomputed_.get(); }
  const HeavenOptions& options() const { return options_; }

  /// Simulated seconds the tape library has consumed.
  double TapeSeconds() const { return library_->ElapsedSeconds(); }
  /// Simulated seconds the *client* has waited (disk costs plus any
  /// synchronous tape waits). The decoupled TCT export keeps tape time off
  /// this clock — that is precisely its benefit.
  double ClientSeconds() const { return client_clock_.Now(); }

  /// Number of super-tiles currently registered on tertiary storage.
  size_t RegisteredSuperTiles() const;

  /// The space-filling curve `object_id` was inserted with.
  Result<CurveKind> ObjectCurve(ObjectId object_id) const EXCLUDES(db_mu_);

  /// Re-tags `object_id` with `curve` (the rasql `WITH CURVE` clause).
  /// Takes effect at the next export; already-written super-tiles keep
  /// their layout until the object is re-exported.
  Status SetObjectCurve(ObjectId object_id, CurveKind curve)
      EXCLUDES(db_mu_);

  /// Per-object bitmap-index summary (the \index stats surface).
  struct ObjectIndexStats {
    ObjectId object_id = 0;
    std::string name;
    CurveKind curve = CurveKind::kZOrder;
    size_t supertiles = 0;          // registered for this object
    size_t indexed_supertiles = 0;  // of those, carrying an index
    size_t indexed_tiles = 0;
    uint64_t index_bytes = 0;    // serialized index size
    uint64_t mask_bits = 0;      // cells covered by the level-2 masks
    uint64_t mask_words = 0;     // WAH words backing those masks
    uint64_t nonzero_cells = 0;  // over all indexed tiles
    uint64_t total_cells = 0;
  };
  /// Computed against a pinned snapshot (lock-free, like every read).
  std::vector<ObjectIndexStats> IndexStats() const EXCLUDES(db_mu_);

  /// Snapshot of the tertiary-storage registry (for tests and tools).
  std::vector<SuperTileMeta> RegistrySnapshot() const;

  /// The active fault injector (null unless options.fault_policy.enabled).
  FaultInjector* fault_injector() { return injector_.get(); }

  /// The admission controller (null unless options.qos.enabled).
  AdmissionController* admission() { return controller_.get(); }
  /// The per-drive circuit breaker (null unless options.qos.enabled).
  CircuitBreaker* drive_breaker() { return breaker_.get(); }

  /// Exports waiting in the TCT queue (sampled gauge `tct.queue_depth`).
  size_t TctQueueDepth() const EXCLUDES(tct_mu_);
  /// Single-flight tape fetches currently in flight (sampled gauge
  /// `fetch.inflight`).
  size_t InflightFetches() const EXCLUDES(fetch_mu_);

 private:
  HeavenDb(Env* env, std::string dir, HeavenOptions options);

  Status Init();
  /// Registers the standard sampled gauges (cache shards, buffer pool,
  /// drives, pool load, TCT queue, in-flight fetches, snapshot epoch
  /// state, fault sites) on metrics_. Called once from Init after every
  /// component exists.
  void RegisterStandardGauges();
  Status LoadRegistry();
  Status PersistPrecomputed() REQUIRES(db_mu_);
  /// Per-object curve tags, persisted as their own catalog section so the
  /// object-descriptor encoding stays untouched.
  Status LoadCurves();

  /// Builds and installs a new DbSnapshot from the committed catalog and
  /// registry state. Called by RunMutation after the transaction commits,
  /// still under the db_mu_ that serializes version installation. Objects
  /// not in `touched` share their SnapshotObject (and its lazily built
  /// tile index) with the previous version.
  void PublishSnapshot(const std::vector<ObjectId>& touched)
      REQUIRES(db_mu_);

  /// What a mutation body changed, in the style of vts-libs'
  /// TileSet::Detail: the body stages catalog and blob changes on `txn`,
  /// edits registry_ / curves_ in place and flags the sections it dirtied,
  /// so RunMutation persists and publishes exactly those.
  struct Mutation {
    Transaction* txn = nullptr;
    bool registry_changed = false;
    bool curves_changed = false;
    bool precomputed_changed = false;
    /// Objects whose descriptor or tiles changed (see PublishSnapshot).
    std::vector<ObjectId> touched;
    /// Charged to the client clock once the mutation is published.
    double client_seconds = 0.0;
    /// Runs after the publish, still under db_mu_ (the reclaim's medium
    /// erase); its error is the mutator's.
    std::function<Status()> after_publish;
    /// The object this mutation exports (0: none); its journal close also
    /// ends the object's queued TCT export.
    ObjectId exported = 0;
    /// Set by the first AppendToTape; RunMutation closes the intent.
    bool intent_open = false;
  };

  /// The wrapper every mutator runs in: takes db_mu_, counts the mutator
  /// for RunQuery's conflict-retry gate, opens one transaction and runs
  /// `body`. On success it stages the dirty catalog sections, commits,
  /// publishes once, charges the client clock, runs `after_publish` and
  /// closes the mutation's journal intent (and queued export), if any.
  /// On any error that the catalog did not apply, registry_ and curves_
  /// are restored from the last published snapshot — the live state when
  /// the body began — so a failed mutator leaves memory untouched. The
  /// body runs with db_mu_ held (it opens with db_mu_.AssertHeld()) and
  /// never calls a public mutator, so the lock is never re-entered.
  Status RunMutation(const char* label,
                     const std::function<Status(Mutation& m)>& body)
      EXCLUDES(db_mu_);

  /// Stages the insert of `data` as object `name` on `m`: the object and
  /// its tiles, tagged with the configured curve. Never runs the migration
  /// policy, so an export can stage its overview with it.
  Result<ObjectId> StageInsert(Mutation& m, CollectionId collection,
                               const std::string& name, const MddArray& data,
                               std::vector<int64_t> tile_extents)
      REQUIRES(db_mu_);

  /// Synchronous export for the client path, the TCT and the migration
  /// policy, as one mutation: a failed export leaves neither registry
  /// entries nor an overview behind (its tape extents become dead data,
  /// as after a delete); a committed one is closed in the journal.
  Status ExportObjectSync(ObjectId object_id) EXCLUDES(db_mu_);

  /// Journals `object_id` as a pending export and hands it to the TCT.
  Status EnqueueExport(ObjectId object_id) REQUIRES(tct_mu_);

  /// Export body: partitions, clusters, writes and registers the object's
  /// disk tiles, staging the tile moves (and the overview) on `m`.
  Status StageExport(Mutation& m, ObjectId object_id) REQUIRES(db_mu_);

  /// Update/re-import body: moves `tiles` of `object` back to disk,
  /// patched with `patch` when given, and drops or trims the super-tiles
  /// they leave. The object's precomputed results are invalidated.
  Status StageTilesToDisk(Mutation& m, const DbSnapshot& snap,
                          const ObjectDescriptor& object,
                          const std::vector<TileDescriptor>& tiles,
                          const MddArray* patch) REQUIRES(db_mu_);

  /// Builds one super-tile of `object` from its disk tiles `tiles`.
  Result<SuperTile> BuildSuperTile(
      const ObjectDescriptor& object, const std::vector<TileId>& tiles,
      const std::map<TileId, const TileDescriptor*>& by_id)
      REQUIRES(db_mu_);

  /// The one tape write of every mutator: makes the mutation's intent
  /// durable in the journal before its first append, then appends
  /// `container` to the first of `media` that takes it, into `meta`.
  Status AppendToTape(Mutation& m, const std::vector<MediumId>& media,
                      std::string_view container, SuperTileMeta* meta)
      REQUIRES(db_mu_);

  /// Appends the serialized container through AppendToTape, registers the
  /// super-tile (with its bitmap index when `with_index`) and stages the
  /// tile moves on `m`.
  Status AppendAndRegister(
      Mutation& m, const SuperTile& st, const std::string& container,
      const std::vector<MediumId>& media, bool with_index,
      const std::map<TileId, const TileDescriptor*>& by_id)
      REQUIRES(db_mu_);

  /// The one recovery pass, run by Init: an open intent or unfinished
  /// queued export in the journal truncates every medium to its highest
  /// registry-referenced extent; unfinished exports are re-enqueued.
  Status RecoverExports();

  /// Enforces the migration watermarks (see HeavenOptions); called by
  /// InsertObject after its mutation returned. Synchronous migration runs
  /// each export as a mutation of its own.
  Status RunMigrationPolicy() EXCLUDES(db_mu_);

  /// The wrapper every public read runs in: the outermost profile scope
  /// `label` (inner scopes nest as no-ops, so NoteQueryOutcome's label
  /// lands on this query), admission of `ctx`, `body(snap)` against a
  /// freshly pinned snapshot, and the outcome bookkeeping. A
  /// conflict-shaped error caused by a concurrent mutator (see
  /// IsSnapshotConflict) re-pins and retries, bounded; serial reads never
  /// retry, keeping clocks and tickers bit-identical to the locked path.
  template <typename Fn>
  auto RunQuery(const char* label, const QueryContext& ctx, Fn&& body)
      -> decltype(body(std::declval<const DbSnapshot&>()));

  /// A query's trace span and client-clock start, plus the bookkeeping
  /// every answered query records.
  class QueryRecord {
   public:
    QueryRecord(HeavenDb* db, const char* span_name);
    /// Client seconds since the query started.
    double ClientSeconds() const;
    /// Counts the query and records the client seconds it took.
    void Answered();
    /// An array answer also records the cells and bytes it returns.
    void Answered(uint64_t cells, const MddArray& result);

   private:
    HeavenDb* db_;
    ScopedSpan span_;
    double client_before_;
  };

  /// One result of a read: its object and the tiles it needs.
  struct ReadPart {
    std::shared_ptr<const SnapshotObject> object;
    std::vector<TileDescriptor> tiles;
  };
  /// Materialized (descriptor, tile data) pairs.
  using Tiles = std::vector<std::pair<TileDescriptor, Tile>>;
  /// Consumes part `i`'s materialized tiles on behalf of `query`.
  using TileSink =
      std::function<Status(size_t i, const Tiles& tiles, QueryRecord& query)>;

  /// The plan step of box and frame reads: the object's tiles intersecting
  /// `box` (with a frame, only those intersecting the frame itself),
  /// pruned with the bitmap index. OutOfRange when `box` leaves the
  /// object's domain.
  Result<ReadPart> PlanRead(const DbSnapshot& snap, ObjectId object_id,
                            const MdInterval& box, const ObjectFrame* frame);

  /// The read pipeline every query runs once planned: fetches every
  /// tertiary super-tile the parts need in one scheduled batch, then
  /// materializes each part's tiles and hands them to `sink`. With a
  /// `part_span` each part is a query of its own (the batch path: own
  /// span, client seconds and bookkeeping); otherwise parts answer `query`.
  Status RunReadPipeline(const DbSnapshot& snap, const QueryContext& ctx,
                         const std::vector<ReadPart>& parts,
                         const char* part_span, QueryRecord* query,
                         const TileSink& sink);

  /// Box and frame reads at `snap`, one result per query, scattered into
  /// zero-initialized arrays. `batch` answers each query as a part of one
  /// `query.read_regions` read; `frame` (single reads only) restricts the
  /// result to the frame's cells, `queries` then holding its bounding box.
  Result<std::vector<MddArray>> ReadBoxes(
      const DbSnapshot& snap, const QueryContext& ctx,
      const std::vector<std::pair<ObjectId, MdInterval>>& queries,
      bool batch, const ObjectFrame* frame = nullptr);

  /// One box (or frame) read at `snap`. The export overview path calls it
  /// directly with a snapshot acquired under db_mu_ (which at a mutator's
  /// start is identical to the live state).
  Result<MddArray> ReadBox(const DbSnapshot& snap, const QueryContext& ctx,
                           ObjectId object_id, const MdInterval& box,
                           const ObjectFrame* frame = nullptr);

  /// Charges `ctx` to its class token bucket (when a controller exists),
  /// advances the client clock by any virtual queue wait, and runs the
  /// first cooperative cancellation/deadline check. With no controller and
  /// an unconstrained context this is a no-op.
  Status AdmitQueryContext(const QueryContext& ctx);

  /// Records the overload-outcome of a finished query: the query.cancelled
  /// / query.deadline_exceeded tickers and the profile `outcome` label
  /// ("cancelled", "deadline_exceeded", "shed"). Must run while the
  /// query's profile scope is still open. Legacy statuses pass untouched.
  void NoteQueryOutcome(const Status& status);

  /// True while degraded mode is in force: operator-forced brownout, no
  /// online drive, or every drive circuit-broken. New tape fetches are
  /// refused with ResourceExhausted("brownout: ..."); cache- and
  /// index-served queries keep working. Always false without a controller.
  bool BrownoutActive() const;

  /// Whether `status` can be the wake of a mutator committing between our
  /// snapshot pin and a storage access (blob deleted after an export,
  /// medium reorganised under a stale registry entry, ...). Such errors
  /// are retried against a fresh snapshot; everything else surfaces.
  static bool IsSnapshotConflict(const Status& status);

  /// Drops tertiary tiles from `needed` whose bitmap index proves the
  /// overlap with `region` entirely zero (sound: query results are
  /// zero-initialized). No-op when options.enable_index is off or the
  /// super-tile carries no index. Records the index.* tickers.
  void PruneTilesWithIndex(const DbSnapshot& snap, const MdInterval& region,
                           std::vector<TileDescriptor>* needed);

  /// One tile's cells, from its disk blob or its (already fetched)
  /// super-tile in `supertiles`.
  Result<Tile> LoadTile(
      const ObjectDescriptor& object, const TileDescriptor& descriptor,
      const std::map<SuperTileId, std::shared_ptr<const SuperTile>>&
          supertiles);

  /// Materializes `needed` tiles from disk blobs or the supplied
  /// super-tiles (every tertiary tile's super-tile must be present),
  /// charging the client disk cost.
  Status MaterializeTiles(
      const ObjectDescriptor& object, const QueryContext& ctx,
      const std::vector<TileDescriptor>& needed,
      const std::map<SuperTileId, std::shared_ptr<const SuperTile>>&
          supertiles,
      Tiles* out);

  /// Copies each tile's overlap with `result`'s domain into `result` —
  /// with a frame, only the cells inside the frame. Destination regions
  /// are disjoint (tiles partition the object), so the copies fan out on
  /// the pool.
  Status ScatterTiles(const QueryContext& ctx, const Tiles& tiles,
                      const ObjectFrame* frame, MddArray* result);

  /// Single-flight fetch coalescing: at most one tape fetch per super-tile
  /// is in flight at a time. A miss (or a prefetch) registers a promise
  /// here and leads the fetch; concurrent misses on the same id find the
  /// entry, count Ticker::kFetchCoalesced and wait on the shared future
  /// instead of touching the tape. Leaders settle their own promises
  /// before waiting on foreign ones, so cross-leader waits cannot cycle.
  using FetchResult = Result<std::shared_ptr<const SuperTile>>;
  struct InflightFetch {
    std::promise<FetchResult> promise;
    std::shared_future<FetchResult> future;
  };
  /// The fetches one call leads, in transfer order, with their promises.
  struct FetchBatch {
    std::vector<SuperTileRequest> requests;
    std::map<SuperTileId, std::shared_ptr<InflightFetch>> owned;
  };
  using FetchWaits =
      std::vector<std::pair<SuperTileId, std::shared_future<FetchResult>>>;

  /// Fetches the given super-tiles from tape (scheduled), populating the
  /// cache; returns them keyed by id. Metadata comes from `snap`, never
  /// from the live registry — the call runs lock-free on the read path.
  /// Deadline pre-admission, the in-flight budget and cooperative
  /// cancellation checkpoints all live here, gated on `ctx` and the
  /// controller so the unconstrained path is exactly legacy.
  Status FetchSuperTiles(
      const DbSnapshot& snap, const QueryContext& ctx,
      const std::vector<SuperTileId>& ids,
      std::map<SuperTileId, std::shared_ptr<const SuperTile>>* out);

  /// FetchSuperTiles' classification: cache hits go to `out`, fetches led
  /// elsewhere to `waits`, the rest are claimed into `batch`, scheduled
  /// and gated (brownout, deadline pre-admission, in-flight budget).
  /// Returns the in-flight grant; on an error the caller settles `batch`.
  Result<AdmissionController::InflightGrant> ClassifyFetches(
      const DbSnapshot& snap, const QueryContext& ctx,
      const std::vector<SuperTileId>& ids,
      std::map<SuperTileId, std::shared_ptr<const SuperTile>>* out,
      FetchBatch* batch, FetchWaits* waits) EXCLUDES(fetch_mu_);

  void ClaimFetch(const SuperTileMeta& meta, FetchBatch* batch)
      REQUIRES(fetch_mu_);
  bool CachedOrInflight(SuperTileId id) const REQUIRES(fetch_mu_);

  /// The one container-read loop: verified transfers in batch order,
  /// pooled decode, cache admission in order (flagged when `prefetched`)
  /// and `ctx`'s checkpoints. Decoded super-tiles go to `out`. Every exit
  /// settles the batch once.
  Status TransferFetches(
      const QueryContext& ctx, bool prefetched, FetchBatch* batch,
      std::map<SuperTileId, std::shared_ptr<const SuperTile>>* out)
      EXCLUDES(fetch_mu_);

  /// Erases the batch's in-flight entries, then fulfils each promise with
  /// its decoded super-tile or else `status`: waiters never block on an
  /// abandoned leader, and a cancelled leader's finished work serves them.
  void SettleFetches(
      FetchBatch* batch,
      const std::map<SuperTileId, std::shared_ptr<const SuperTile>>& decoded,
      const Status& status) EXCLUDES(fetch_mu_);

  /// Reads one container with bounded retry and verifies it against
  /// `crc32c`, re-fetching exactly once on a mismatch. A
  /// second mismatch is permanent corruption and surfaces a precise
  /// Status::Corruption — never silently wrong bytes. The retry loop is
  /// deadline- and cancellation-aware through `ctx`.
  Status ReadContainerVerified(SuperTileId id, const QueryContext& ctx,
                               MediumId medium, uint64_t offset,
                               uint64_t size_bytes, uint32_t crc32c,
                               std::string* out);

  /// Read-ahead after a batch that ended on `medium` at `last_end_offset`:
  /// claims the next containers there and runs them through
  /// TransferFetches, off the client clock; errors only count.
  void MaybePrefetch(const DbSnapshot& snap, MediumId medium,
                     uint64_t last_end_offset) EXCLUDES(fetch_mu_);

  /// TCT thread body. Runs exports via ExportObjectSync, which takes
  /// db_mu_ itself — the worker must enter with no capability held.
  void TctWorker() EXCLUDES(db_mu_, tct_mu_);

  // Wired in Open() before the handle is returned, never reseated; each
  // pointee below carries its own lock.
  Env* env_;               // analyze: unguarded(fixed at Open)
  std::string dir_;        // analyze: unguarded(fixed at Open)
  HeavenOptions options_;  // analyze: unguarded(fixed at Open)
  /// mutable: AcquireReadSnapshot() const records its `snap.acquire` span
  /// (the statistics and trace collector are internally synchronized).
  mutable Statistics stats_;  // analyze: unguarded(atomic counters inside)
  /// Gauge callbacks registered here read the members below; the
  /// destructor stops the sampler before any of them die.
  MetricsRegistry metrics_{&stats_};  // analyze: unguarded(internally locked)
  QueryProfiler profiler_;  // analyze: unguarded(internally locked)
  SimClock client_clock_;  // analyze: unguarded(internally locked)

  std::unique_ptr<StorageEngine> engine_;  // analyze: unguarded(fixed at Open)
  std::unique_ptr<TapeLibrary> library_;   // analyze: unguarded(fixed at Open)
  std::unique_ptr<SuperTileCache> cache_;  // analyze: unguarded(fixed at Open)
  // analyze: unguarded(fixed at Open)
  std::unique_ptr<PrecomputedCatalog> precomputed_;
  /// Deterministic fault source (null unless fault_policy.enabled).
  std::unique_ptr<FaultInjector> injector_;  // analyze: unguarded(Open-only)
  /// Overload protection (both null unless options_.qos.enabled): the
  /// token-bucket admission controller and the per-drive circuit breaker
  /// the tape library consults for drive selection.
  // analyze: unguarded(fixed at Open)
  std::unique_ptr<AdmissionController> controller_;
  std::unique_ptr<CircuitBreaker> breaker_;  // analyze: unguarded(fixed at Open)
  /// Intent log of every tape write (logged under db_mu_) and of the TCT
  /// queue (under tct_mu_, so the journal and the queue stay consistent).
  std::unique_ptr<ExportJournal> journal_;  // analyze: unguarded(Open-only)
  /// CPU worker pool; zero workers (tasks run inline) when
  /// options_.num_threads resolves to 1. Pool tasks never acquire db_mu_:
  /// export packing joins its tasks while holding it. They touch only the
  /// statistics and trace collector (each with its own lock) plus disjoint
  /// output slots.
  std::unique_ptr<ThreadPool> pool_;  // analyze: unguarded(fixed at Open)

  /// Top-level mutator lock, taken only by RunMutation: mutators hold it
  /// one at a time; query paths never wait for it (Aggregate try-locks it
  /// to cache a result) — they run against a pinned DbSnapshot, and every
  /// component they touch (blob store, tape library, cache, clocks,
  /// statistics) is internally locked. Not
  /// recursive: public mutators are EXCLUDES(db_mu_) and nested work
  /// calls REQUIRES(db_mu_) Stage… bodies instead.
  /// The root of the lock order: HeavenDb's own locks below declare
  /// ACQUIRED_AFTER it, other classes name it as "HeavenDb::db_mu_".
  Mutex db_mu_ ACQUIRED_BEFORE(fetch_mu_, tct_mu_);
  /// Live registry, written only under db_mu_. Copy-on-write
  /// shards: PublishSnapshot captures a View in O(#shards), sharing every
  /// shard a mutation did not touch with older versions.
  SnapshotRegistry registry_ GUARDED_BY(db_mu_);
  SuperTileId next_supertile_id_ GUARDED_BY(db_mu_) = 1;
  /// Per-object space-filling-curve tags (insert-time choice). Mirrored
  /// into every published DbSnapshot so readers resolve curves lock-free.
  std::map<ObjectId, CurveKind> curves_ GUARDED_BY(db_mu_);
  /// The published metadata versions (RCU). Readers pin with Acquire();
  /// mutators install successors under db_mu_ via PublishSnapshot; retired
  /// versions are reclaimed once no reader can still hold them.
  VersionedState<DbSnapshot> snapshot_;  // analyze: unguarded(RCU inside)
  /// Mutators in progress (RunMutation). A conflict-shaped read error is
  /// only retried when this is non-zero or the version advanced — serial
  /// workloads keep the exact legacy error surface, clocks and tickers.
  std::atomic<int> active_mutators_{0};
  mutable Mutex fetch_mu_ ACQUIRED_AFTER(db_mu_);
  std::map<SuperTileId, std::shared_ptr<InflightFetch>> inflight_
      GUARDED_BY(fetch_mu_);

  // TCT (Tertiary-storage Communication Thread) state.
  /// Started in Open, joined in the destructor after tct_stop_.
  std::thread tct_thread_;  // analyze: unguarded(Open/dtor only)
  mutable Mutex tct_mu_ ACQUIRED_AFTER(db_mu_);
  CondVar tct_cv_{&tct_mu_};
  /// Pending exports with their enqueue timestamp on the tape clock, so
  /// the TCT can report queue-wait latency when it picks an entry up.
  std::deque<std::pair<ObjectId, double>> tct_queue_ GUARDED_BY(tct_mu_);
  bool tct_stop_ GUARDED_BY(tct_mu_) = false;
  bool tct_busy_ GUARDED_BY(tct_mu_) = false;
  Status tct_last_error_ GUARDED_BY(tct_mu_);
};

}  // namespace heaven

#endif  // HEAVEN_HEAVEN_HEAVEN_DB_H_
