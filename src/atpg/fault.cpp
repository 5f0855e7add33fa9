#include "atpg/fault.hpp"

#include <sstream>

#include "util/check.hpp"

namespace xatpg {

std::string Fault::describe(const Netlist& netlist) const {
  std::ostringstream os;
  const Gate& g = netlist.gate(gate);
  if (site == Site::GatePin) {
    os << "pin " << g.name << "." << pin << " ("
       << netlist.gate(g.fanins[pin]).name << ") s-a-" << (stuck_value ? 1 : 0);
  } else {
    os << "out " << g.name << " s-a-" << (stuck_value ? 1 : 0);
  }
  return os.str();
}

std::vector<Fault> input_stuck_faults(const Netlist& netlist) {
  std::vector<Fault> out;
  for (SignalId s = 0; s < netlist.num_signals(); ++s)
    for (std::size_t pin = 0; pin < netlist.gate(s).fanins.size(); ++pin)
      for (const bool v : {false, true})
        out.push_back(Fault{Fault::Site::GatePin, s, pin, v});
  return out;
}

std::vector<Fault> output_stuck_faults(const Netlist& netlist) {
  std::vector<Fault> out;
  for (SignalId s = 0; s < netlist.num_signals(); ++s)
    for (const bool v : {false, true})
      out.push_back(Fault{Fault::Site::SignalOutput, s, 0, v});
  return out;
}

Netlist apply_fault(const Netlist& netlist, const Fault& fault) {
  XATPG_CHECK(fault.gate < netlist.num_signals());
  Netlist faulty = netlist;
  faulty.set_name(netlist.name() + "#faulty");
  if (fault.site == Fault::Site::SignalOutput) {
    // The signal is tied to a constant regardless of the original gate
    // (for a primary input this models the pad stuck).
    faulty.tie_constant(fault.gate, fault.stuck_value);
  } else {
    XATPG_CHECK(fault.pin < netlist.gate(fault.gate).fanins.size());
    // The pin reads a constant signal appended after every good one (no
    // cube = 0, one empty cube = 1).
    const SignalId cst = faulty.add_sop(
        "#stuck", {}, fault.stuck_value ? Cover{Cube{}} : Cover{});
    faulty.redirect_pin(fault.gate, fault.pin, cst);
  }
  faulty.check_invariants();
  return faulty;
}

std::vector<bool> map_input_vector(const Netlist& good, const Fault& fault,
                                   const std::vector<bool>& good_vector) {
  XATPG_CHECK(good_vector.size() == good.inputs().size());
  std::vector<bool> out;
  out.reserve(good_vector.size());
  for (std::size_t i = 0; i < good_vector.size(); ++i)
    if (fault.site != Fault::Site::SignalOutput ||
        fault.gate != good.inputs()[i])
      out.push_back(good_vector[i]);
  return out;
}

std::vector<bool> fault_initial_state(const Fault& fault,
                                      const std::vector<bool>& good_state) {
  std::vector<bool> state = good_state;
  if (fault.site == Fault::Site::GatePin) {
    state.push_back(fault.stuck_value);  // the appended constant signal
  } else {
    state[fault.gate] = fault.stuck_value;
  }
  return state;
}

}  // namespace xatpg
