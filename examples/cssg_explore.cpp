// Explore the synchronous abstraction of an asynchronous benchmark: dump
// TCSG/CSSG statistics (the Figure 2 pipeline) and emit Graphviz for both
// the STG state graph and the CSSG.
//
//   $ ./examples/cssg_explore [benchmark-name]    (default: rpdft)
#include <iostream>

#include "benchmarks/benchmarks.hpp"
#include "sgraph/cssg.hpp"

int main(int argc, char** argv) {
  using namespace xatpg;
  const std::string name = argc > 1 ? argv[1] : "rpdft";

  const Stg stg = benchmark_stg(name);
  const StateGraph sg = expand_stg(stg);
  std::cout << "# STG '" << name << "': " << stg.num_signals() << " signals, "
            << stg.num_transitions() << " transitions, " << sg.num_states()
            << " specification states\n";
  std::cout << "# specification state graph (Graphviz):\n"
            << state_graph_to_dot(sg) << "\n";

  const SynthResult synth = benchmark_circuit(name, SynthStyle::SpeedIndependent);
  CssgOptions options;
  options.k = 24;
  Cssg cssg(synth.netlist, synth.reset_state, options);
  const CssgStats& stats = cssg.stats();
  std::cout << "# TCSG reachable states:        " << stats.reachable_states
            << "\n# stable states:               " << stats.stable_states
            << "\n# TCR_k pairs:                 " << stats.tcr_pairs
            << "\n# pruned non-confluent pairs:  " << stats.nonconfluent_pairs
            << "\n# pruned oscillating pairs:    " << stats.unstable_pairs
            << "\n# CSSG edges (valid vectors):  " << stats.cssg_edges
            << "\n# CSSG-reachable states:       "
            << stats.cssg_reachable_states << "\n\n";
  std::cout << "# CSSG (Graphviz):\n" << cssg.to_dot(cssg.extract_explicit());
  return 0;
}
