// Gate-level netlist with named signals, primary inputs/outputs, and the
// structural analyses the rest of xatpg builds on.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/gate.hpp"

namespace xatpg {

/// A feedback arc: fanin position `pin` of gate `gate` closes a cycle.
struct FeedbackArc {
  SignalId gate = kNoSignal;
  std::size_t pin = 0;

  bool operator==(const FeedbackArc&) const = default;
};

/// Gate-level circuit.  Signal ids are gate indices: signal i is the output
/// of gates()[i]; primary inputs are Input-type gates (identity buffers per
/// the paper's circuit model).
class Netlist {
 public:
  Netlist() = default;
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // --- construction --------------------------------------------------------

  /// Add a primary input; returns its signal id.
  SignalId add_input(const std::string& name);

  /// Add a gate; returns its output signal id.  Fanins may be forward
  /// references created with declare_signal().
  SignalId add_gate(GateType type, const std::string& name,
                    const std::vector<SignalId>& fanins);

  /// Add a two-level SOP complex gate.
  SignalId add_sop(const std::string& name,
                   const std::vector<SignalId>& fanins, Cover cover);

  /// Add a generalized C-element with set/reset covers over the fanins.
  SignalId add_gc(const std::string& name, const std::vector<SignalId>& fanins,
                  Cover set_cover, Cover reset_cover);

  /// Reserve a named signal id before its driver is defined (two-pass
  /// parsing, feedback loops).  define_* on the same name fills it in.
  SignalId declare_signal(const std::string& name);

  /// Mark a signal as primary output.
  void set_output(SignalId s);
  void set_output(const std::string& name);

  /// Re-point fanin `pin` of `gate` to `new_source` (used by fault
  /// materialization; covers keep their arity).
  void redirect_pin(SignalId gate, std::size_t pin, SignalId new_source);

  /// Replace the gate of signal `s` with the constant `value`: a
  /// fanin-less SOP gate (no cube = 0, one empty cube = 1).  A primary
  /// input leaves inputs(); every other signal is untouched (used by fault
  /// materialization).
  void tie_constant(SignalId s, bool value);

  /// Check structural invariants (all signals driven, fanins in range,
  /// covers match fanin arity).  Throws CheckError on violation.
  void check_invariants() const;

  // --- access ---------------------------------------------------------------

  std::size_t num_signals() const { return gates_.size(); }
  const Gate& gate(SignalId s) const { return gates_[s]; }
  const std::vector<Gate>& gates() const { return gates_; }
  const std::vector<SignalId>& inputs() const { return inputs_; }
  const std::vector<SignalId>& outputs() const { return outputs_; }
  bool is_input(SignalId s) const { return gates_[s].type == GateType::Input; }
  bool is_output(SignalId s) const;

  const std::string& signal_name(SignalId s) const { return gates_[s].name; }
  std::optional<SignalId> find_signal(const std::string& name) const;
  /// find_signal that throws when absent.
  SignalId signal(const std::string& name) const;

  /// Total number of gate input pins (the input stuck-at fault sites).
  std::size_t num_pins() const;

  // --- structural analysis ---------------------------------------------------

  /// fanouts()[s] = list of (gate, pin) pairs reading signal s.
  std::vector<std::vector<FeedbackArc>> fanouts() const;

  /// Strongly connected components of the signal graph (Tarjan).  Returns
  /// component id per signal; ids are in reverse topological order.
  std::vector<std::uint32_t> scc_ids(std::uint32_t* num_sccs = nullptr) const;

  /// A set of fanin pins whose removal makes the circuit acyclic (one back
  /// arc per DFS cycle inside each SCC).  Used by the virtual-FF baseline.
  std::vector<FeedbackArc> feedback_arcs() const;

  /// Topological order of signals ignoring the given cut arcs; inputs first.
  /// Throws if cycles remain.
  std::vector<SignalId> topo_order(const std::vector<FeedbackArc>& cuts) const;

  /// Evaluate the target value of gate s under a complete boolean state.
  bool eval_gate_bool(SignalId s, const std::vector<bool>& state) const;

  /// True if gate s is stable (output equals target) in `state`.
  bool is_gate_stable(SignalId s, const std::vector<bool>& state) const;

  /// True if every gate is stable in `state`.
  bool is_stable_state(const std::vector<bool>& state) const;

 private:
  SignalId intern(const std::string& name);

  std::string name_;
  std::vector<Gate> gates_;
  std::vector<SignalId> inputs_;
  std::vector<SignalId> outputs_;
  std::unordered_map<std::string, SignalId> by_name_;
  std::vector<bool> defined_;  // declared vs. defined
};

// --- text formats ------------------------------------------------------------

/// Parse the native .xnl format.  Throws CheckError with a line diagnostic
/// on malformed input.  Format:
///   .model NAME
///   .inputs A B ...
///   .outputs X Y ...
///   .gate TYPE out in1 in2 ...
///   .sop out : in1 in2 : 11- 0-1
///   .gc out : in1 in2 : 1-,01 : -0
///   .end
Netlist parse_xnl(std::istream& in);
Netlist parse_xnl_string(const std::string& text);

/// Write the native format (round-trips through parse_xnl).
void write_xnl(const Netlist& netlist, std::ostream& out);
std::string write_xnl_string(const Netlist& netlist);

/// Parse an ISCAS-style .bench file (INPUT/OUTPUT/= AND(...) lines).
/// DFF is rejected: this library models asynchronous (clockless) logic.
Netlist parse_bench(std::istream& in);
Netlist parse_bench_string(const std::string& text);

}  // namespace xatpg
