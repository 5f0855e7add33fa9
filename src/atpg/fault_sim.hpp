// Fault detection under non-deterministic faulty behaviour (§5.2–§5.3).
//
// A test sequence guarantees detection of a fault only if *every* possible
// execution of the faulty circuit mismatches the fault-free output response
// at some strobe — the paper's Figure 3/4 discussion: corruption that shows
// only on some delay assignments does not shorten or conclude the test.
//
// FaultSimulator tracks the set of faulty-circuit states that are still
// consistent with the fault-free responses observed so far:
//   * per test cycle, each candidate is settled exactly (all interleavings,
//     bounded by k) on the materialized faulty netlist;
//   * outcomes that differ from the good circuit at a primary output strobe
//     correspond to executions on which the tester already flagged the
//     fault — they leave the consistent set;
//   * outcomes matching the good response stay;
//   * a trajectory that fails to settle within k (faulty oscillation) can
//     never be *proven* to mismatch, so it poisons the sequence
//     conservatively.
// The fault is detected exactly when the consistent set becomes empty.
//
// This is the exact-race strengthening of the paper's ternary detector: the
// two agree when ternary resolves, and the exact detector additionally
// credits detections ternary reports as Φ.  TernaryFaultScreen below is the
// word-parallel ternary pass the paper uses for cheap screening; it is
// sound (definite mismatch => every execution mismatches) but incomplete.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "atpg/fault.hpp"
#include "netlist/netlist.hpp"
#include "sim/explicit.hpp"
#include "util/packed.hpp"
#include "xatpg/options.hpp"  // FaultSimOptions (public API type)

namespace xatpg {

enum class DetectStatus : std::uint8_t {
  Undetermined,  ///< some faulty execution is still consistent
  Detected,      ///< every faulty execution has mismatched a strobe
  GaveUp,        ///< candidate explosion or unsettled faulty trajectory
};

// FaultSimOptions (the simulator caps) is a public API type — see
// xatpg/options.hpp.

/// Exact consistent-set simulator for one fault.  The faulty circuit is
/// compiled once into a PackedCircuit; candidates are packed states kept
/// sorted and distinct, so equal sets are equal word vectors.  Each packed
/// start state (a candidate with the applied inputs) is settled once: a
/// memo keeps the kernel's answer for the simulator's lifetime, so a walk,
/// a search or a committed sequence that revisits a start reads it back.
/// One simulator may therefore serve a fault through a whole run, but it
/// owns its kernel buffers and its memo: one thread at a time.
class FaultSimulator {
 public:
  /// `reset_state` is the good circuit's (stable) reset state; the faulty
  /// circuit is reset to the same values and relaxed.
  FaultSimulator(const Netlist& good, const Fault& fault,
                 const std::vector<bool>& reset_state,
                 const FaultSimOptions& options = {});

  DetectStatus status() const { return status_; }
  const Fault& fault() const { return fault_; }
  /// The consistent set: sorted, distinct packed states of the faulty
  /// circuit (PackedCircuit::words() words each).
  const std::vector<StateWord>& candidates() const { return candidates_; }

  /// Apply one test vector.  `good_state` is the good circuit's stable
  /// state after this cycle (its PO values are the expected responses).
  DetectStatus step(const std::vector<bool>& input_values,
                    const std::vector<bool>& good_state);

  /// Return to the relaxed reset for a new test sequence, whatever the
  /// status (an earlier sequence may have detected the fault).  The memo
  /// survives.
  void reset();

  /// Cheap snapshot/rollback for the differentiation BFS.
  struct Snapshot {
    std::vector<StateWord> candidates;
    DetectStatus status;
  };
  Snapshot snapshot() const { return {candidates_, status_}; }
  void restore(const Snapshot& snap) {
    candidates_ = snap.candidates;
    status_ = snap.status;
  }

  /// Work done so far, a pure function of the calls made: step() calls
  /// that simulated (status Undetermined on entry), settle kernel runs
  /// (the reset's included) and start states the memo answered.
  std::size_t steps() const { return steps_; }
  std::size_t settles() const { return settles_; }
  std::size_t settles_memoized() const { return settles_memoized_; }

 private:
  /// What settling one start state gave: whether every trajectory
  /// stabilised within k, and then its stable states, sorted and distinct,
  /// at memo_rows_[rows_begin, rows_end).
  struct Settled {
    std::size_t rows_begin = 0, rows_end = 0;
    bool settled = false;
  };
  /// The memo's answer for the packed start `start`, settling it first
  /// when no earlier lookup has.
  Settled settle_memoized(const StateWord* start);

  Fault fault_;
  FaultSimOptions options_;
  PackedCircuit circuit_;
  std::size_t num_good_inputs_ = 0;
  /// (index into a good input vector, the input's signal id, the same in
  /// both circuits); a stuck primary input is no input of the faulty
  /// circuit and is left out.
  std::vector<std::pair<std::size_t, SignalId>> input_map_;
  std::vector<StateWord> input_mask_;   ///< faulty signals the tester drives
  std::vector<SignalId> outputs_;       ///< strobed signals (good PO ids)
  std::vector<StateWord> output_mask_;
  /// The relaxed reset: reset() copies it.
  std::vector<StateWord> reset_candidates_;
  DetectStatus reset_status_ = DetectStatus::Undetermined;
  std::vector<StateWord> candidates_;
  DetectStatus status_ = DetectStatus::Undetermined;
  // Per-step buffers, reused.
  SettleScratch scratch_;
  std::vector<StateWord> applied_, expected_, start_, next_, settled_;
  // The settle memo, in flat arrays: entry e is the start state
  // memo_index_ numbers e, and its answer memo_[e].
  PackedRowIndex memo_index_;
  std::vector<Settled> memo_;
  std::vector<StateWord> memo_rows_;
  std::size_t steps_ = 0, settles_ = 0, settles_memoized_ = 0;
};

/// Word-parallel ternary screen: simulate `faults` against the good circuit
/// along a vector sequence, one ParallelTernarySim pass per 63 faults;
/// returns the ascending indices into `faults` of those
/// *provably* detected by ternary analysis.  Sound but conservative (§5.4).
std::vector<std::size_t> ternary_screen(
    const Netlist& netlist, const std::vector<bool>& reset_state,
    const std::vector<Fault>& faults,
    const std::vector<std::vector<bool>>& vectors);

}  // namespace xatpg
