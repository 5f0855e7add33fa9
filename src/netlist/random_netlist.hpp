// Seeded random netlist generator and structure-aware netlist mutator.
//
// The generator is shared by the test fixtures (tests/fixtures.hpp locks the
// seed-7 shape as a golden value) and the perf-corpus harness (src/perf),
// which runs whole seeded families through the ATPG flow as a synthetic
// workload.  The mutator on top of it is the structural fuzzer's engine
// (tests/fuzz/fuzz_structural.cpp, docs/FUZZING.md): byte-level fuzzing of
// the parsers almost never produces a circuit that survives check_invariants,
// so to reach deep CSSG/engine states the fuzzer instead perturbs circuits
// that are *already valid* and re-validates after every edit.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "netlist/netlist.hpp"
#include "util/random.hpp"

namespace xatpg {

struct RandomNetlistOptions {
  std::size_t num_inputs = 3;
  /// Non-input gates to add on top of the inputs.  About one in four is a
  /// state-holding C-element (the circuit stays structurally feed-forward;
  /// state lives in the gates' own outputs, so a gate-by-gate relaxation
  /// always settles).
  std::size_t num_gates = 8;
};

/// Deterministic random netlist: same seed, same circuit, on every platform
/// (the generator only draws from Rng).  The result passes check_invariants() and
/// settles from the all-false state; the final gate is the primary output.
/// When `reset` is non-null it receives the settled all-false reset state.
Netlist random_netlist(std::uint64_t seed,
                       const RandomNetlistOptions& options = {},
                       std::vector<bool>* reset = nullptr);

// --- structure-aware mutation ------------------------------------------------

/// The edits mutate_netlist can apply.  Every edit preserves structural
/// validity by construction (arities respected, signal ids stable); whether
/// the mutant *settles* is re-checked afterwards and failures are retried.
enum class NetlistMutation {
  GateSwap,      ///< replace one gate's type with another of the same arity
  Rewire,        ///< re-point one fanin pin at a different signal
  Splice,        ///< insert a new gate and wire a consumer (or output) to it
  ResetPerturb,  ///< keep the structure, settle from a random start state
};

/// Name of a mutation kind (diagnostics).
const char* netlist_mutation_name(NetlistMutation m);

struct MutatedNetlist {
  Netlist netlist;
  /// A stable state of the mutant (its reset for CSSG/ATPG purposes): the
  /// settled all-false state for structural edits, the settled perturbed
  /// state for ResetPerturb.
  std::vector<bool> reset;
  NetlistMutation mutation = NetlistMutation::GateSwap;
};

/// Derive a new *valid* circuit from `base` by one random structure-aware
/// edit.  The result passes check_invariants() and has a verified stable
/// reset state; std::nullopt after 16 failed candidates (an edit is
/// discarded when the mutant fails to settle to a stable state; a base can
/// be so dense no perturbation settles).  Deterministic in the Rng stream:
/// same base + same Rng state, same mutant, on every platform.
std::optional<MutatedNetlist> mutate_netlist(const Netlist& base, Rng& rng);

}  // namespace xatpg
