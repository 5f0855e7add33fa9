#include "sim/parallel.hpp"

#include "util/check.hpp"

namespace xatpg {

Ternary rail_lane(const Rail& r, unsigned lane) {
  const bool can1 = (r.r1 >> lane) & 1;
  const bool can0 = (r.r0 >> lane) & 1;
  if (can1 && can0) return Ternary::X;
  if (can1) return Ternary::V1;
  XATPG_CHECK_MSG(can0, "lane has neither rail set");
  return Ternary::V0;
}

void set_rail_lane(Rail& r, unsigned lane, Ternary t) {
  const std::uint64_t bit = 1ull << lane;
  r.r1 &= ~bit;
  r.r0 &= ~bit;
  if (t != Ternary::V0) r.r1 |= bit;
  if (t != Ternary::V1) r.r0 |= bit;
}

ParallelTernarySim::ParallelTernarySim(const Netlist& netlist,
                                       std::vector<Fault> faults)
    : netlist_(&netlist), faults_(std::move(faults)) {
  XATPG_CHECK(faults_.size() <= kMaxFaults);
  pin_faults_.resize(netlist.num_signals());
  output_faults_.resize(netlist.num_signals());
  for (std::uint32_t i = 0; i < faults_.size(); ++i) {
    const Fault& fault = faults_[i];
    XATPG_CHECK(fault.gate < netlist.num_signals());
    if (fault.site == Fault::Site::GatePin) {
      XATPG_CHECK(fault.pin < netlist.gate(fault.gate).fanins.size());
      pin_faults_[fault.gate].push_back(i);
    } else {
      output_faults_[fault.gate].push_back(i);
    }
  }
  state_.assign(netlist.num_signals(), rail_all(Ternary::V0));
}

void ParallelTernarySim::force(Rail& r, std::uint32_t i) const {
  const std::uint64_t lane = 1ull << (i + 1);
  if (faults_[i].stuck_value) {
    r.r1 |= lane;
    r.r0 &= ~lane;
  } else {
    r.r0 |= lane;
    r.r1 &= ~lane;
  }
}

void ParallelTernarySim::load_state(const std::vector<bool>& state) {
  XATPG_CHECK(state.size() == netlist_->num_signals());
  for (SignalId s = 0; s < state.size(); ++s)
    state_[s] = rail_all(to_ternary(state[s]));
  inject_output_faults();
}

Rail ParallelTernarySim::eval_target(SignalId s) const {
  const Gate& g = netlist_->gate(s);
  std::vector<Rail> fanin_vals;
  fanin_vals.reserve(g.fanins.size());
  for (const SignalId f : g.fanins) fanin_vals.push_back(state_[f]);
  // Pin-level stuck-at injection: override the faulty lanes of the faulty
  // pin before evaluating the gate function.
  for (const std::uint32_t i : pin_faults_[s])
    force(fanin_vals[faults_[i].pin], i);
  Rail target = eval_gate(g, fanin_vals, state_[s], RailOps{});
  // Output stuck-at: the gate output is tied regardless of the function.
  for (const std::uint32_t i : output_faults_[s]) force(target, i);
  return target;
}

void ParallelTernarySim::inject_output_faults() {
  for (SignalId s = 0; s < netlist_->num_signals(); ++s)
    for (const std::uint32_t i : output_faults_[s]) force(state_[s], i);
}

void ParallelTernarySim::settle(const std::vector<bool>& input_values) {
  XATPG_CHECK(input_values.size() == netlist_->inputs().size());
  for (std::size_t i = 0; i < input_values.size(); ++i) {
    SignalId in = netlist_->inputs()[i];
    state_[in] = rail_all(to_ternary(input_values[i]));
    // Output stuck-at faults on an input buffer still pin its value.
    for (const std::uint32_t f : output_faults_[in]) force(state_[in], f);
  }

  // Algorithm A across all lanes: x := lub(x, f(x)); lub is rail-wise OR.
  bool changed = true;
  while (changed) {
    changed = false;
    for (SignalId s = 0; s < netlist_->num_signals(); ++s) {
      if (netlist_->is_input(s)) continue;
      const Rail target = eval_target(s);
      const Rail next{state_[s].r1 | target.r1, state_[s].r0 | target.r0};
      if (!(next == state_[s])) {
        state_[s] = next;
        changed = true;
      }
    }
  }
  // Algorithm B across all lanes: x := f(x).
  const std::size_t cap = 4 * netlist_->num_signals() + 8;
  for (std::size_t pass = 0; pass < cap; ++pass) {
    changed = false;
    for (SignalId s = 0; s < netlist_->num_signals(); ++s) {
      if (netlist_->is_input(s)) continue;
      const Rail target = eval_target(s);
      if (!(target == state_[s])) {
        state_[s] = target;
        changed = true;
      }
    }
    if (!changed) return;
  }
  XATPG_CHECK_MSG(false, "parallel Algorithm B did not converge");
}

std::uint64_t ParallelTernarySim::lanes_definite(SignalId s, bool v) const {
  const Rail& r = state_[s];
  return v ? (r.r1 & ~r.r0) : (r.r0 & ~r.r1);
}

std::uint64_t ParallelTernarySim::lanes_with_unknown() const {
  std::uint64_t mask = 0;
  for (const Rail& r : state_) mask |= (r.r1 & r.r0);
  return mask;
}

}  // namespace xatpg
