// The benchmark suite.
//
// The paper evaluates on 24 asynchronous control circuits synthesized by
// Petrify (speed-independent) and SIS (hazard-free bounded-delay) from the
// same STG specifications.  Those specific netlists were never published
// with the paper, so this module provides *reconstructions*: handshake
// controller STGs built from parameterized templates (sequencers, fork/join
// controllers, decoupled pipeline stages, C-element combiners, storage
// elements), named after the paper's benchmarks and sized comparably.  Each
// spec passes the CSC check and synthesizes in both implementation styles —
// see DESIGN.md §2 for why this substitution preserves the evaluation's
// shape.
//
// The three circuits the paper singles out for poor bounded-delay coverage
// (trimos-send, vbe10b, vbe6a) are mapped with `extra_redundancy`, modeling
// the spurious-pulse covers SIS adds (§6: "logic redundancies added by the
// synthesis tools in order to avoid spurious pulses").
#pragma once

#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "stg/stg.hpp"
#include "synth/synth.hpp"

namespace xatpg {

/// Names in the speed-independent suite (Table 1), in the paper's order.
const std::vector<std::string>& si_benchmark_names();

/// Names in the hazard-free bounded-delay suite (Table 2).
const std::vector<std::string>& bd_benchmark_names();

/// True for the circuits whose SIS-style implementation carries redundant
/// hazard covers (trimos-send, vbe10b, vbe6a).
bool benchmark_is_redundant(const std::string& name);

/// True for every named circuit: the two suites' names, which
/// benchmark_stg builds, and the Figure 1 circuits fig1a and fig1b.
bool is_named_circuit(const std::string& name);

/// Build the STG specification for a named benchmark; throws on unknown
/// names.
Stg benchmark_stg(const std::string& name);

/// Synthesize a named benchmark in the given style (redundancy applied
/// automatically for the flagged circuits when style == BoundedDelay).
SynthResult benchmark_circuit(const std::string& name, SynthStyle style);

// --- Figure 1 circuits -------------------------------------------------------

/// Reconstruction of Figure 1(a): non-confluence (a rising/falling input
/// race may or may not latch y).  Returns the netlist and the paper's
/// initial stable state (A=0, B=1).
Netlist fig1a_circuit(std::vector<bool>* initial_state = nullptr);

/// Reconstruction of Figure 1(b): oscillation (raising A with B=0 starts a
/// NAND/OR ring; B=1 breaks it).  Initial stable state has A=B=0.
Netlist fig1b_circuit(std::vector<bool>* initial_state = nullptr);

// --- template builders (exposed for tests and custom experiments) -----------

/// k-stage handshake sequencer: R0+ A0+ R1+ A1+ ... then the falling phase.
/// `internal_after` inserts an internal signal after the i-th rising event;
/// `fall_offset` shifts where each internal signal's falling transition is
/// spliced in the falling phase (asymmetric completion detection).
Stg make_sequencer(const std::string& name, unsigned pairs,
                   const std::vector<unsigned>& internal_after = {},
                   unsigned fall_offset = 0);

/// Fork/join controller: Rin forks to `branches` request/acknowledge pairs,
/// joined into Ain.  `internal_tail` adds an internal completion signal.
Stg make_forkjoin(const std::string& name, unsigned branches,
                  bool internal_tail = false);

/// Two-stage decoupled pipeline controller with an internal latch signal;
/// `deep_output` adds an internal completion signal on the output handshake.
Stg make_pipeline2(const std::string& name, bool deep_output = false);

/// C-element combiner: all `inputs` requests rise -> ack rises, all fall ->
/// ack falls.  `tail` appends an internal delay signal after the ack.
Stg make_celem(const std::string& name, unsigned inputs, bool tail = false);

/// Sample-and-hold storage element (d is sampled by c into q).
Stg make_storage(const std::string& name);

/// Toggle element: requests on r rotate through acknowledges a0..a_{ways-1},
/// steered by internal phase signals (whose faults flip the steering and
/// are therefore fully observable).  The steering covers carry literals of
/// both polarities — exactly the structure on which SIS-style consensus
/// hazard covers introduce redundancy.  `pre_detector` adds an internal
/// completion signal between each request and its acknowledge.
Stg make_toggle(const std::string& name, unsigned ways = 2,
                bool pre_detector = false);

}  // namespace xatpg
