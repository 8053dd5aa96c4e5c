#ifndef HEAVEN_PERFBENCH_PERFBENCH_H_
#define HEAVEN_PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/workload.h"
#include "heaven/heaven_db.h"

namespace perfbench {

/// Host wall clock (steady), seconds.
double WallNow();
/// CPU time of the calling thread, seconds.
double ThreadCpuNow();

/// Measured phases are cut into this many equal blocks of wall time; the
/// host-time metrics come from the quieter half of them (main.cc).
constexpr int kBlocks = 16;

/// The calls one client completed within one block of a phase.
struct BlockLog {
  std::vector<double> read_ms;   // host latency per read call
  std::vector<double> write_ms;  // host latency per mutator call
  uint64_t completed = 0;       // succeeded and, for reads, checked right
  uint64_t result_bytes = 0;    // returned to the client
  uint64_t user_bytes = 0;      // inserted, exported and drained
  double overhead_s = 0.0;      // client-side work charged to these calls

  void Merge(const BlockLog& other);
};

/// What one client thread observed. Latencies are host wall time around
/// the single call into HeavenDb; everything the client does besides
/// (generating inputs, checking results against the oracle) is counted
/// in `overhead_*` so the throughput and CPU metrics can leave it out.
struct ClientLog {
  /// Calls land in the block of the wall time they returned at, counted
  /// from `begin_s` in steps of `block_s` (all in block 0 when 0).
  double begin_s = 0.0;
  double block_s = 0.0;
  std::vector<BlockLog> blocks = std::vector<BlockLog>(kBlocks);
  uint64_t attempted = 0;
  uint64_t failed = 0;  // returned an error, or a wrong result
  uint64_t wrong = 0;   // of `failed`: a result the oracle rejected
  uint64_t quantifier_tiles = 0;     // tiles touched by quantifier reads
  uint64_t quantifier_shortcuts = 0;
  uint64_t reclaims = 0;
  uint64_t reclaim_bytes_written = 0;
  uint64_t exports = 0;
  /// Tape bytes per live user byte, sampled after each write cycle.
  std::vector<double> space_samples;
  double overhead_wall_s = 0.0;
  double overhead_cpu_s = 0.0;
  double pending_overhead_s = 0.0;  // not yet charged to a call
  std::vector<std::string> errors;  // first few failures, for the report

  /// Records a call that ran from `start_s` to `end_s` (WallNow()).
  void Record(bool write, double start_s, double end_s, bool ok,
              uint64_t result_bytes, uint64_t user_bytes = 0);
  void NoteFailure(const std::string& what);
  void Merge(const ClientLog& other);
};

/// When a client stops issuing operations: at a wall-clock deadline or
/// after a number of operations (whichever is set), checked between
/// operations. `after_op` runs after every operation when set.
struct Phase {
  double deadline = 0.0;
  uint64_t max_ops = 0;
  std::function<void()> after_op;

  bool Done(const ClientLog& log) const {
    return (deadline > 0.0 && WallNow() >= deadline) ||
           (max_ops > 0 && log.attempted >= max_ops);
  }
};

/// Accumulates client-side work (input generation, verification) of one
/// scope into a ClientLog's overhead counters.
class OverheadTimer {
 public:
  explicit OverheadTimer(ClientLog* log)
      : log_(log), wall_(WallNow()), cpu_(ThreadCpuNow()) {}
  ~OverheadTimer() {
    const double wall = WallNow() - wall_;
    log_->overhead_wall_s += wall;
    log_->pending_overhead_s += wall;
    log_->overhead_cpu_s += ThreadCpuNow() - cpu_;
  }
  OverheadTimer(const OverheadTimer&) = delete;
  OverheadTimer& operator=(const OverheadTimer&) = delete;

 private:
  ClientLog* log_;
  double wall_;
  double cpu_;
};

/// One named workload: builds its database from the seed and drives it
/// through HeavenDb's public API, checking every result against a
/// reference model that never reads the database.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Client threads issuing operations concurrently.
  virtual size_t clients() const { return 1; }
  /// True when one client drives the database, so two runs with the same
  /// seed must reproduce simulated clocks and tickers exactly.
  virtual bool deterministic() const { return true; }
  /// Operations (or write cycles) of the determinism self-check.
  virtual uint64_t check_ops() const { return 0; }

  /// Builds a fresh database (the timed set-up): insert, export and cache
  /// warm-up. Any previous database is dropped first.
  virtual heaven::Status Setup() = 0;
  virtual heaven::HeavenDb* db() = 0;

  /// Runs client `client` until `phase` is done. Op streams continue
  /// where the previous phase of the same database left off.
  virtual void RunClient(size_t client, const Phase& phase,
                         ClientLog* log) = 0;

  /// User bytes held by the live objects.
  virtual uint64_t LiveUserBytes() const = 0;

  /// Inputs of the layer probes, drawn from the workload's own streams:
  /// the object the workload reads most, a sample of its read boxes and
  /// their rasql statements.
  virtual heaven::ObjectId ProbeObject() const = 0;
  virtual std::vector<heaven::MdInterval> ProbeBoxes(size_t n) const = 0;
  virtual std::string ProbeObjectName() const = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

/// Sum of bytes written on every medium of the library (dead extents
/// included) — the tape space the archive occupies.
uint64_t TapeUsedBytes(heaven::HeavenDb* db);

/// A metric as printed: value and unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// `select <object>[box] from bench`: the rasql trim of `box`.
std::string RasqlTrim(const std::string& object, const heaven::MdInterval& box);

/// Layer probes: time public calls of each layer on the workload's data.
/// A call that fails is reported in `problems`.
std::vector<Metric> RunLayerProbes(Workload* workload,
                                   std::vector<std::string>* problems);

}  // namespace perfbench

#endif  // HEAVEN_PERFBENCH_PERFBENCH_H_
