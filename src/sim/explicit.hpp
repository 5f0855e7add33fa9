// Explicit-state race exploration under the unbounded gate-delay model.
//
// Enumerates *all* interleavings of excited-gate firings after an input
// pattern is applied to a stable state (the "competition between sensitized
// paths" of §2).  Exact but exponential — it proves detection in the fault
// simulator (atpg/fault_sim), is the test oracle for the conservative
// ternary simulator and the symbolic TCR_k/CSSG computation, and lets
// examples/fig1_races demonstrate non-confluence and oscillation on the
// paper's Figure 1 circuits.
//
// The kernel works on packed states (util/packed.hpp) over a PackedCircuit
// compiled once per netlist.  Each level of the exploration is deduplicated
// in a flat hash set, and after a gate flips only that gate and its readers
// are re-evaluated.  tests/oracle.hpp keeps the former set-based explorer,
// and test_sim, test_atpg and fuzz_structural hold this kernel to it.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "netlist/netlist.hpp"
#include "util/packed.hpp"

namespace xatpg {

/// Outcome of exhaustive exploration of one (stable state, input pattern).
struct ExploreResult {
  /// All stable states reachable within the transition bound.
  std::set<std::vector<bool>> stable_states;
  /// True if some trajectory of length `max_transitions` ends unstable
  /// (oscillation, or a settle time exceeding the test cycle).
  bool exceeded_bound = false;

  /// The pattern is a valid synchronous test vector (§4): exactly one
  /// stable settling state, and every trajectory settles within the bound.
  bool confluent() const {
    return stable_states.size() == 1 && !exceeded_bound;
  }
};

/// Buffers of PackedCircuit::settle.  The caller owns one per thread and
/// may reuse it across calls and circuits; nothing is shared.
class SettleScratch {
 private:
  friend class PackedCircuit;
  /// Rows of the current and the next level: a state's words, then the
  /// words of its excited-gate mask.
  std::vector<StateWord> level_, next_;
  /// Open-addressing index over next_'s rows: row number + 1, 0 = empty.
  std::vector<std::uint32_t> slots_;
  /// The successor row under construction.
  std::vector<StateWord> row_;
};

/// A netlist compiled for the exact kernel: a flat fanin array, SOP and
/// gC cubes as care/value masks over fanin positions, the non-input gates,
/// and per signal the gates whose excitation a flip of it can change (the
/// gate itself and its readers).  Immutable once built.
class PackedCircuit {
 public:
  PackedCircuit() = default;
  /// Throws CheckError on a gate eval_gate would reject (wrong arity, a
  /// cube of the wrong width) or a fanin out of range.
  explicit PackedCircuit(const Netlist& netlist);

  std::size_t num_signals() const { return num_signals_; }
  /// Words per packed state.
  std::size_t words() const { return words_; }

  /// Explore every interleaving from the packed state `start` (primary
  /// inputs already applied), at most `max_transitions` gate transitions
  /// per trajectory.  Appends each stable state reached to `stable`,
  /// words() words per state, in no particular order and possibly more
  /// than once.  Returns false iff some trajectory is still unstable after
  /// `max_transitions` transitions.
  bool settle(const StateWord* start, std::size_t max_transitions,
              SettleScratch& scratch, std::vector<StateWord>& stable) const;

 private:
  struct GateCode {
    GateType type = GateType::Input;
    std::uint32_t fanin_begin = 0, fanin_count = 0;
    /// Cubes start at cubes_[cube_begin]; each is `chunks` (care, value)
    /// word pairs, chunk c covering fanin positions [64c, 64c + 64).
    std::uint32_t cube_begin = 0, chunks = 0;
    std::uint32_t set_cubes = 0, reset_cubes = 0;  ///< Sop: set only
  };

  bool excited(SignalId gate, const StateWord* state) const;
  /// True if one of `count` cubes from cubes_[begin] holds in `state`.
  bool cover_holds(const GateCode& code, std::size_t begin, std::size_t count,
                   const StateWord* state) const;
  /// Insert `scratch.row_`'s state into the next level unless present,
  /// completing its excitation mask from its parent's after `flipped`.
  void push_successor(SettleScratch& scratch, SignalId flipped,
                      std::size_t slot_mask) const;

  std::size_t num_signals_ = 0;
  std::size_t words_ = 1;
  std::vector<GateCode> codes_;   ///< by signal id
  std::vector<SignalId> gates_;   ///< non-input signals, ascending
  std::vector<SignalId> fanins_;
  std::vector<StateWord> cubes_;
  std::vector<std::uint32_t> affect_begin_;  ///< CSR over affect_, n + 1
  std::vector<SignalId> affect_;
};

/// Exhaustively explore the settling behavior after flipping the primary
/// inputs of `stable_from` to `input_values`, with at most `max_transitions`
/// gate transitions per trajectory (the k of TCR_k).
ExploreResult explore_settling(const Netlist& netlist,
                               const std::vector<bool>& stable_from,
                               const std::vector<bool>& input_values,
                               std::size_t max_transitions);

/// Enumerate every stable state of the netlist reachable in test mode from
/// `reset_state` using arbitrary input patterns (explicit TCSG stable-state
/// reachability; oracle for the symbolic traversal).  `max_transitions`
/// bounds each settling; states whose settling exceeds the bound or races
/// still contribute all their reachable stable states, mirroring the TCSG
/// definition.
std::set<std::vector<bool>> explicit_stable_reachable(
    const Netlist& netlist, const std::vector<bool>& reset_state,
    std::size_t max_transitions);

}  // namespace xatpg
