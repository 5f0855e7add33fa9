// The §6.1 comparator: Banerjee/Chakradhar/Roy-style synchronous test
// generation for asynchronous circuits.
//
// Their method cuts feedback loops with *virtual synchronous flip-flops*,
// runs standard synchronous sequential ATPG on the cut model, and validates
// the resulting vectors afterwards by deterministic (zero/unit-delay)
// simulation of the real asynchronous circuit.  The paper's criticism —
// which this module reproduces experimentally — is that such validation
// catches oscillation but is *blind to non-confluence*: a deterministic
// simulator picks one interleaving, so a racy vector can pass validation
// while a real device may settle elsewhere.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "atpg/engine.hpp"
#include "atpg/fault.hpp"
#include "netlist/netlist.hpp"

namespace xatpg {

/// Synchronous (cut) model of an asynchronous netlist: every feedback pin
/// and every state-holding gate's own-value dependence is replaced by a
/// virtual flip-flop.
class VffModel {
 public:
  explicit VffModel(const Netlist& netlist);

  const Netlist& netlist() const { return *netlist_; }
  /// Number of virtual flip-flops (cut pins + state-holding gates).
  std::size_t num_state_bits() const {
    return cuts_.size() + holding_gates_.size();
  }

  /// Combinational evaluation: compute all signal values from primary
  /// inputs and the virtual-FF outputs.
  std::vector<bool> eval(const std::vector<bool>& input_values,
                         const std::vector<bool>& state_bits) const;

  /// Virtual-FF next-state values given the evaluated signals.
  std::vector<bool> next_state(const std::vector<bool>& signals) const;

  /// State bits corresponding to an asynchronous circuit state.
  std::vector<bool> state_bits_of(const std::vector<bool>& async_state) const;

 private:
  const Netlist* netlist_;
  std::vector<FeedbackArc> cuts_;
  std::vector<SignalId> holding_gates_;
  std::vector<SignalId> topo_;
};

struct BaselineOptions {
  std::size_t depth_cap = 24;          ///< product-machine BFS depth
  std::size_t node_cap = 50000;        ///< product-machine BFS nodes
  std::size_t unit_delay_bound = 256;  ///< validation settle bound
  std::size_t k_exact = 24;            ///< exact-race audit bound
};

struct BaselineFaultResult {
  Fault fault;
  bool generated = false;  ///< synchronous ATPG produced a sequence
  bool validated = false;  ///< unit-delay validation accepted it
  bool racy = false;       ///< exact analysis: some vector is non-confluent
  TestSequence sequence;
};

struct BaselineResult {
  std::vector<BaselineFaultResult> per_fault;
  std::size_t generated = 0;
  std::size_t validated = 0;
  std::size_t optimistic = 0;  ///< validated but racy (the §6.1 gap)
  double seconds = 0;
};

/// Exact-race audit (what unit-delay validation cannot see): replay
/// `sequence` from `reset_state` on the good circuit with exhaustive
/// interleaving (explore_settling with bound k), stopping at the first
/// vector whose settling is non-confluent or unbounded.  True when such a
/// vector exists.  Applies to any sequence that starts from reset: the
/// baseline's validated tests and the CSSG flow's AtpgResult::sequences.
bool has_racy_vector(const Netlist& netlist,
                     const std::vector<bool>& reset_state,
                     const TestSequence& sequence, std::size_t k);

/// Run the baseline flow on a fault universe.
BaselineResult run_baseline(const Netlist& netlist,
                            const std::vector<bool>& reset_state,
                            const std::vector<Fault>& faults,
                            const BaselineOptions& options = {});

/// Deterministic unit-delay settling: all excited gates switch
/// simultaneously each step.  Returns the stable state, or nullopt on
/// oscillation (state repetition / bound exhaustion).  This is the
/// validation model of [Banerjee et al.].
std::optional<std::vector<bool>> unit_delay_settle(
    const Netlist& netlist, const std::vector<bool>& from,
    const std::vector<bool>& input_values, std::size_t bound = 256);

}  // namespace xatpg
