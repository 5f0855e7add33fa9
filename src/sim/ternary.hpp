// Ternary (0/1/Φ) simulation after Eichelberger, as used in §5.4 of the
// paper: Algorithm A propagates uncertainty (least-upper-bound in the
// information order), Algorithm B re-evaluates to resolve signals back to
// definite values.  If the B fixpoint contains a Φ, the applied input vector
// causes a critical race or an oscillation — a conservative but safe
// verdict.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"

namespace xatpg {

/// Ternary signal value.  X is Eichelberger's Φ: "neither 0 nor 1 for sure".
enum class Ternary : std::uint8_t { V0 = 0, V1 = 1, X = 2 };

inline Ternary to_ternary(bool b) { return b ? Ternary::V1 : Ternary::V0; }

/// Least upper bound in the information order (0,1 ⊑ X).
Ternary ternary_lub(Ternary a, Ternary b);

Ternary ternary_and(Ternary a, Ternary b);
Ternary ternary_or(Ternary a, Ternary b);
Ternary ternary_not(Ternary a);

/// Algebra instance for eval_gate over Ternary values.
struct TernaryOps {
  Ternary zero() const { return Ternary::V0; }
  Ternary one() const { return Ternary::V1; }
  Ternary and_(Ternary a, Ternary b) const { return ternary_and(a, b); }
  Ternary or_(Ternary a, Ternary b) const { return ternary_or(a, b); }
  Ternary not_(Ternary a) const { return ternary_not(a); }
};

/// Outcome of applying one input vector to a stable state.
struct SettleResult {
  /// True iff every signal settled to a definite value: the circuit has a
  /// unique final stable state under the unbounded gate-delay model.
  bool confluent = false;
  /// Final ternary state (meaningful either way; Φ marks racing signals).
  std::vector<Ternary> state;

  /// Final state as booleans; precondition: confluent.
  std::vector<bool> final_state() const;
};

/// Scalar ternary simulator over a netlist.
class TernarySim {
 public:
  explicit TernarySim(const Netlist& netlist);

  /// Apply `input_values` (indexed like netlist.inputs()) to the stable
  /// state `from` and run Algorithm A then Algorithm B to the fixpoint.
  SettleResult settle(const std::vector<bool>& from,
                      const std::vector<bool>& input_values) const;

  /// Ternary-state variant (used when chaining vectors on a faulty circuit
  /// whose state is already partially unknown).
  SettleResult settle(const std::vector<Ternary>& from,
                      const std::vector<bool>& input_values) const;

  /// Evaluate the target (next) value of gate s in a ternary state.
  Ternary eval_gate_ternary(SignalId s, const std::vector<Ternary>& state) const;

  const Netlist& netlist() const { return *netlist_; }

 private:
  /// Algorithm A: x := lub(x, f(x)) to the fixpoint.
  void algorithm_a(std::vector<Ternary>& state) const;
  /// Algorithm B: x := f(x) to the fixpoint.
  void algorithm_b(std::vector<Ternary>& state) const;

  const Netlist* netlist_;
};

/// Find the unique stable state reached from `state` by plain re-evaluation
/// (used to compute reset states of synthesized circuits); returns false if
/// ternary analysis cannot prove a unique settlement.
bool settle_to_stable(const Netlist& netlist, std::vector<bool>& state);

}  // namespace xatpg
