// Streaming run model of the public xatpg API: phase transitions, per-fault
// resolution events, periodic progress snapshots (including per-worker
// search counts and the engine's BDD statistics), and cooperative
// cancellation.
//
// Observer contract
// -----------------
//  * Every callback is invoked on the thread that called Session::run /
//    AtpgEngine::run — never from a worker thread — so observers need no
//    locking of their own state.
//  * Callbacks fire between faults and walks, and inside either fan-out
//    (the random phase's replay, the 3-phase search) between the calling
//    thread's own work blocks; keep them cheap, they sit on the run's
//    critical path.  faults_done counts 3-phase searches only: the random
//    replay moves no counter in ShardBddStats.
//  * on_fault_resolved fires exactly once per fault whose outcome becomes
//    final during the run (covered by any phase, or proven redundant);
//    faults left undetected get no event.  Events arrive in deterministic
//    order for a fixed fault list, independent of the thread count, and an
//    incremental run (add_faults) fires exactly the events a from-scratch
//    run on its union universe fires.
//  * A CancelToken may be fired from any thread (it is a thread-safe shared
//    flag), including from inside an observer callback.  The run stops at
//    the next between-faults checkpoint and returns the deterministic
//    partial result (AtpgResult::cancelled == true).
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "xatpg/types.hpp"

namespace xatpg {

/// numerator / denominator with a uniform guard: 0 when the denominator is
/// zero or the quotient is non-finite.  Derived rates in the public surface
/// (the cache hit rate) go through this so zero-work runs and degenerate
/// inputs can never produce NaN/inf.
[[nodiscard]] inline double safe_ratio(double numerator, double denominator) {
  if (denominator == 0.0) return 0.0;
  const double ratio = numerator / denominator;
  return std::isfinite(ratio) ? ratio : 0.0;
}

/// Cooperative cancellation handle: a copyable reference to a shared flag.
/// Copies observe the same flag; request_cancel() is safe from any thread.
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void request_cancel() noexcept {
    flag_->store(true, std::memory_order_relaxed);
  }
  [[nodiscard]] bool cancelled() const noexcept {
    return flag_->load(std::memory_order_relaxed);
  }
  void reset() noexcept { flag_->store(false, std::memory_order_relaxed); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Phases of one run, in order (Classify is skipped unless
/// AtpgOptions::classify_undetectable is set).
enum class RunPhase : std::uint8_t {
  RandomTpg,   ///< random walks on the explicit CSSG
  Classify,    ///< a-priori undetectable-fault classification
  ThreePhase,  ///< fault-parallel 3-phase search + deterministic merge
  Done,        ///< run finished (also fired after a cancelled run)
};

constexpr const char* run_phase_name(RunPhase phase) {
  switch (phase) {
    case RunPhase::RandomTpg: return "random-tpg";
    case RunPhase::Classify: return "classify";
    case RunPhase::ThreePhase: return "three-phase";
    case RunPhase::Done: return "done";
  }
  return "?";
}

/// Accounting for one worker slot of a run.  The engine owns one BDD
/// manager, used only by the thread that calls run() (worker 0), so only
/// shard 0 carries BDD counters; slots 1..N-1 report just faults_done, and
/// their node and cache counters stay 0.
struct ShardBddStats {
  std::size_t shard = 0;
  /// Nodes allocated in the engine's manager (live + uncollected).
  std::size_t live_nodes = 0;
  /// The manager's lifetime allocated-node watermark.  It includes the
  /// transient of CSSG construction, so it can exceed the resident size
  /// of the finished abstraction several times over.
  std::size_t peak_nodes = 0;
  /// Always 0.  Kept only for existing readers of the struct.
  std::size_t base_nodes = 0;
  /// Always equal to peak_nodes.  Kept only for existing readers of the
  /// struct.
  std::size_t delta_peak = 0;
  std::size_t reorders = 0;     ///< sifting passes performed
  std::size_t faults_done = 0;  ///< 3-phase searches this worker completed
  std::size_t cache_lookups = 0;  ///< computed-cache probes (cumulative)
  std::size_t cache_hits = 0;     ///< probes answered from the cache
  /// Garbage collections of the manager (cumulative; sifting's internal
  /// sweeps are not counted).  Session::bdd_stats() collects once before
  /// it reads the counters, so its value includes that collection.
  std::size_t collections = 0;
  /// Always 0.  Kept only for existing readers of the struct.
  std::size_t blocks_stolen = 0;
  /// Unique-table load factor (chained entries / buckets, in [0, 2];
  /// subtables double at 2).
  double unique_load = 0;

  /// Fraction of computed-cache probes answered from the cache (0 when no
  /// probe was made).
  [[nodiscard]] double cache_hit_rate() const {
    return safe_ratio(static_cast<double>(cache_hits),
                      static_cast<double>(cache_lookups));
  }
};

/// Periodic progress snapshot, emitted from the run's calling thread.
struct RunProgress {
  RunPhase phase = RunPhase::RandomTpg;
  std::size_t faults_total = 0;
  /// Faults whose outcome is final (covered or proven redundant).
  std::size_t faults_resolved = 0;
  std::size_t covered = 0;
  std::size_t sequences_committed = 0;
  double elapsed_seconds = 0;
  std::vector<ShardBddStats> shards;
};

/// Streaming observer for Session::run / AtpgEngine::run.  Default methods
/// are no-ops: override only what you need.
class RunObserver {
 public:
  virtual ~RunObserver() = default;

  /// A phase begins.  RunPhase::Done fires exactly once, at the end.
  virtual void on_phase(RunPhase /*phase*/) {}

  /// Fault `outcome.fault` (index `fault_index` in the run's fault list)
  /// reached its final outcome: covered by some phase, or proven redundant.
  virtual void on_fault_resolved(std::size_t /*fault_index*/,
                                 const FaultOutcome& /*outcome*/) {}

  /// Periodic snapshot (between the calling thread's work blocks in either
  /// fan-out, after each committed sequence).
  virtual void on_progress(const RunProgress& /*progress*/) {}
};

}  // namespace xatpg
