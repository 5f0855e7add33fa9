// Stuck-at fault universe (§1, §5): the paper's fault model is the *input*
// stuck-at model — every gate input pin stuck at 0/1 — which subsumes the
// output stuck-at model (every signal stuck at 0/1) because each signal
// drives some pin; the tables report both universes separately and so do we.
#pragma once

#include <vector>

#include "netlist/netlist.hpp"
#include "xatpg/types.hpp"  // Fault (public API type)

namespace xatpg {

/// All input (gate-pin) stuck-at faults: 2 per pin.
std::vector<Fault> input_stuck_faults(const Netlist& netlist);

/// All output (signal) stuck-at faults: 2 per signal.
std::vector<Fault> output_stuck_faults(const Netlist& netlist);

/// Materialize the faulty circuit: a copy of `netlist` with the one faulted
/// gate patched.  An output fault ties the signal to a constant (a stuck
/// primary input also leaves inputs()); a pin fault redirects the pin to a
/// fresh constant signal, "#stuck", appended after every good signal.  So
/// every good signal keeps its id and name, the outputs are the same list
/// and the inputs the good list in order less a stuck input: states and
/// vectors of the good and faulty circuit correspond position-wise.
Netlist apply_fault(const Netlist& netlist, const Fault& fault);

/// Initial state of apply_fault(good, fault) corresponding to a state of
/// the good circuit (appends the constant's value if one was added).  The
/// returned state is NOT necessarily stable — the fault may excite gates.
std::vector<bool> fault_initial_state(const Fault& fault,
                                      const std::vector<bool>& good_state);

/// Translate an input vector indexed by `good`'s inputs into one indexed by
/// apply_fault(good, fault)'s inputs: the same vector less a stuck primary
/// input's position.
std::vector<bool> map_input_vector(const Netlist& good, const Fault& fault,
                                   const std::vector<bool>& good_vector);

}  // namespace xatpg
