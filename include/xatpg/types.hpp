// Public data types of the xatpg API: signal ids, the stuck-at fault model,
// test sequences, ATPG outcomes/statistics, CSSG statistics, and the
// synthesis style selector.
//
// These are the *canonical* definitions — library internals (src/) include
// this header rather than keeping private copies, so the public surface and
// the implementation cannot drift apart.  The header is self-contained
// (standard library only); the one member function that touches an
// internal class (Fault::describe) is declared against a forward
// declaration and defined inside the library.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace xatpg {

class Netlist;  // internal: netlist/netlist.hpp

/// Signal identifier: index of the gate driving the signal.
using SignalId = std::uint32_t;
inline constexpr SignalId kNoSignal = 0xffffffffu;

/// Synthesis style for benchmark reconstructions (the paper's two suites).
enum class SynthStyle : std::uint8_t {
  SpeedIndependent,  ///< one atomic gC per non-input signal (Petrify's role)
  BoundedDelay,      ///< two-level AND-OR with combinational feedback (SIS)
};

/// Stuck-at fault (§1, §5): the paper's fault model is the *input* stuck-at
/// model — every gate input pin stuck at 0/1 — which subsumes the output
/// stuck-at model (every signal stuck at 0/1) because each signal drives
/// some pin; the tables report both universes separately and so do we.
struct Fault {
  enum class Site : std::uint8_t {
    GatePin,       ///< connection into fanin position `pin` of gate `gate`
    SignalOutput,  ///< output of gate `gate` (includes primary inputs)
  };
  Site site = Site::GatePin;
  SignalId gate = kNoSignal;
  std::size_t pin = 0;
  bool stuck_value = false;

  bool operator==(const Fault&) const = default;

  /// "pin c.1 s-a-0" / "out y s-a-1" style description.
  [[nodiscard]] std::string describe(const Netlist& netlist) const;
};

/// One synchronous test: input vectors applied from reset, one per test
/// cycle.
struct TestSequence {
  std::vector<std::vector<bool>> vectors;

  bool operator==(const TestSequence&) const = default;
};

enum class CoveredBy : std::uint8_t {
  None,        ///< undetected (possibly redundant)
  Random,      ///< random TPG (the paper's "rnd" column)
  ThreePhase,  ///< 3-phase symbolic ATPG ("3-ph")
  FaultSim,    ///< detected while simulating another fault's test ("sim")
};

constexpr const char* covered_by_name(CoveredBy by) {
  switch (by) {
    case CoveredBy::None: return "none";
    case CoveredBy::Random: return "random";
    case CoveredBy::ThreePhase: return "three-phase";
    case CoveredBy::FaultSim: return "fault-sim";
  }
  return "?";
}

struct FaultOutcome {
  Fault fault;
  CoveredBy covered_by = CoveredBy::None;
  int sequence_index = -1;  ///< index into AtpgResult::sequences
  /// Proven undetectable by the a-priori classifier (covered_by == None).
  bool proven_redundant = false;
  /// The 3-phase search for this fault was truncated by a resource cap
  /// (BFS depth, node cap, or simulator candidate cap) before exhausting
  /// the space, and no test was found.  False for an uncovered fault means
  /// the search ran to completion — the fault is genuinely untestable under
  /// the caps' search space, not a victim of them.  Always false for
  /// covered or proven-redundant faults.
  bool gave_up = false;

  bool operator==(const FaultOutcome&) const = default;
};

struct AtpgStats {
  std::size_t total_faults = 0;
  std::size_t covered = 0;
  std::size_t by_random = 0;
  std::size_t by_three_phase = 0;
  std::size_t by_fault_sim = 0;
  std::size_t undetected = 0;
  std::size_t proven_redundant = 0;
  /// Undetected faults whose search was cap-truncated (see
  /// FaultOutcome::gave_up).  undetected - gave_up - proven_redundant =
  /// faults whose search space was exhausted without finding a test.
  std::size_t gave_up = 0;
  double seconds = 0;
  double random_seconds = 0;
  double three_phase_seconds = 0;
  /// The exact simulation work this run did, summed over its per-fault
  /// simulators: steps that simulated, settle kernel runs (each fault's
  /// reset settle included) and start states the settle memo answered
  /// instead.  Deterministic — the same at every thread count — but, like
  /// the clocks, not part of the result's identity: an add_faults() run
  /// that reuses memoized searches does less work, so it counts less than
  /// a from-scratch run with the same outcomes.
  std::size_t sim_steps = 0;
  std::size_t settles = 0;
  std::size_t settles_memoized = 0;
  /// The explicit successor lists this run built, and the successor ids
  /// they hold.  Random walks and test-program replays take one successor
  /// at a time off the BDD (a walk reads a list whole only when it is
  /// short), so a run builds long lists only when some fault needs the
  /// 3-phase search, and then every list the graph still lacks.
  /// Deterministic like the simulation counts, and like them lower on an
  /// engine whose earlier runs built the lists already.
  std::size_t lists_built = 0;
  std::size_t list_ids = 0;

  [[nodiscard]] double coverage() const {
    return total_faults == 0
               ? 1.0
               : static_cast<double>(covered) / static_cast<double>(total_faults);
  }
};

struct AtpgResult {
  std::vector<FaultOutcome> outcomes;
  std::vector<TestSequence> sequences;
  AtpgStats stats;
  /// True when the run was stopped early by a CancelToken.  The partial
  /// result is deterministic: outcomes committed so far are final, and the
  /// sequence list is a prefix of the uncancelled run's.
  bool cancelled = false;
};

/// Sizes reported for Figure-2-style TCSG -> CSSG statistics.
struct CssgStats {
  double reachable_states = 0;         ///< TCSG states (stable + unstable)
  double stable_states = 0;            ///< stable reachable states
  double tcr_pairs = 0;                ///< |TCR_k|
  double nonconfluent_pairs = 0;       ///< pruned: sibling outcome differs
  double unstable_pairs = 0;           ///< pruned: unsettled k-step sibling
  double cssg_edges = 0;               ///< |CSSG_k|
  double cssg_reachable_states = 0;    ///< states reachable by valid vectors
  /// Rounds of the chained TCSG closure, the last of which adds nothing:
  /// each round applies the input step once and fires every gate into the
  /// reached set once.
  std::size_t traversal_iterations = 0;
  std::size_t tcr_steps = 0;
  std::size_t peak_bdd_nodes = 0;
};

}  // namespace xatpg
