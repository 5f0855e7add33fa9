#include "sim/ternary.hpp"

#include "util/check.hpp"

namespace xatpg {

Ternary ternary_lub(Ternary a, Ternary b) {
  if (a == b) return a;
  return Ternary::X;
}

Ternary ternary_and(Ternary a, Ternary b) {
  if (a == Ternary::V0 || b == Ternary::V0) return Ternary::V0;
  if (a == Ternary::V1 && b == Ternary::V1) return Ternary::V1;
  return Ternary::X;
}

Ternary ternary_or(Ternary a, Ternary b) {
  if (a == Ternary::V1 || b == Ternary::V1) return Ternary::V1;
  if (a == Ternary::V0 && b == Ternary::V0) return Ternary::V0;
  return Ternary::X;
}

Ternary ternary_not(Ternary a) {
  if (a == Ternary::X) return Ternary::X;
  return a == Ternary::V0 ? Ternary::V1 : Ternary::V0;
}

std::vector<bool> SettleResult::final_state() const {
  XATPG_CHECK_MSG(confluent, "final_state() on a non-confluent settlement");
  std::vector<bool> out;
  out.reserve(state.size());
  for (const Ternary t : state) out.push_back(t == Ternary::V1);
  return out;
}

TernarySim::TernarySim(const Netlist& netlist) : netlist_(&netlist) {}

Ternary TernarySim::eval_gate_ternary(SignalId s,
                                      const std::vector<Ternary>& state) const {
  const Gate& g = netlist_->gate(s);
  std::vector<Ternary> fanin_vals;
  fanin_vals.reserve(g.fanins.size());
  for (const SignalId f : g.fanins) fanin_vals.push_back(state[f]);
  return eval_gate(g, fanin_vals, state[s], TernaryOps{});
}

void TernarySim::algorithm_a(std::vector<Ternary>& state) const {
  // Monotone non-decreasing in the information order; the fixpoint is
  // reached in at most num_signals ascents, each pass doing n evaluations
  // (the O(n^2) bound cited in the paper from [6]).
  bool changed = true;
  while (changed) {
    changed = false;
    for (SignalId s = 0; s < netlist_->num_signals(); ++s) {
      if (netlist_->is_input(s)) continue;  // held by the environment
      const Ternary target = eval_gate_ternary(s, state);
      const Ternary next = ternary_lub(state[s], target);
      if (next != state[s]) {
        state[s] = next;
        changed = true;
      }
    }
  }
}

void TernarySim::algorithm_b(std::vector<Ternary>& state) const {
  // Started from the Algorithm A fixpoint this is monotone non-increasing,
  // so it converges; the cap is a defensive bound only.
  const std::size_t cap = 4 * netlist_->num_signals() + 8;
  for (std::size_t pass = 0; pass < cap; ++pass) {
    bool changed = false;
    for (SignalId s = 0; s < netlist_->num_signals(); ++s) {
      if (netlist_->is_input(s)) continue;
      const Ternary target = eval_gate_ternary(s, state);
      if (target != state[s]) {
        state[s] = target;
        changed = true;
      }
    }
    if (!changed) return;
  }
  XATPG_CHECK_MSG(false, "Algorithm B did not converge (internal error)");
}

SettleResult TernarySim::settle(const std::vector<bool>& from,
                                const std::vector<bool>& input_values) const {
  std::vector<Ternary> state;
  state.reserve(from.size());
  for (const bool b : from) state.push_back(to_ternary(b));
  return settle(state, input_values);
}

SettleResult TernarySim::settle(const std::vector<Ternary>& from,
                                const std::vector<bool>& input_values) const {
  XATPG_CHECK(from.size() == netlist_->num_signals());
  XATPG_CHECK(input_values.size() == netlist_->inputs().size());
  SettleResult result;
  result.state = from;
  // Drive the primary inputs.  Inputs that change are set directly to the
  // new value: per the paper's model an input buffer's delay is the input
  // gate itself, and the test-cycle relation R_I flips inputs atomically on
  // a stable state before any gate reacts.
  for (std::size_t i = 0; i < input_values.size(); ++i)
    result.state[netlist_->inputs()[i]] = to_ternary(input_values[i]);

  algorithm_a(result.state);
  algorithm_b(result.state);
  result.confluent = true;
  for (const Ternary t : result.state)
    if (t == Ternary::X) {
      result.confluent = false;
      break;
    }
  return result;
}

bool settle_to_stable(const Netlist& netlist, std::vector<bool>& state) {
  TernarySim sim(netlist);
  std::vector<bool> inputs;
  inputs.reserve(netlist.inputs().size());
  for (const SignalId s : netlist.inputs()) inputs.push_back(state[s]);
  const SettleResult result = sim.settle(state, inputs);
  if (!result.confluent) return false;
  state = result.final_state();
  return true;
}

}  // namespace xatpg
