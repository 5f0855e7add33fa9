// Confluent Stable State Graph (§4): the synchronous FSM abstraction of an
// asynchronous circuit under test.
//
// Pipeline (all symbolic, over the SymbolicEncoding's three variable groups):
//   1. Transition relations:  R_delta (one excited gate fires; stable states
//      self-loop) and R_I (any non-empty set of primary inputs flips on a
//      stable state) — §3.1/§3.2.
//   2. TCSG reachability from the reset state via R = R_I ∪ R_delta.
//   3. TCR_k: pairs (s, s') with s stable/reachable and s' reached from s by
//      one input pattern followed by at most k gate transitions (§4.2).
//      Because stable states self-loop in R_delta, the k-step frontier
//      contains every settled outcome plus any still-unstable snapshot.
//      R_I keeps every gate and R_delta never changes an input, so where a
//      pattern leads depends only on the source's gate values g and the
//      new inputs.  The k-step image is therefore iterated as S(g, s'),
//      from (exists s_in. SR) AND (s'_g = g) with SR the stable reachable
//      set, and TCR_k(s, s') = SR(s) AND (s_in != s'_in) AND S(s_g, s').
//      This is exact: from s under pattern p every trajectory starts at
//      (s_g, p) and keeps the inputs p, so after every step the pair loop
//      over whole source states, A(s, s'), equals SR(s) AND
//      (s_in != s'_in) AND S(s_g, s').  The early stop sees the same
//      fixpoint: the only pairs of S that A lacks have a pattern equal to
//      the inputs of the one SR state with gate values g, so they start at
//      that stable state and never move.
//   4. CSSG_k: keep (s, s') where s' is stable and is the *only* k-step
//      outcome with its input pattern — discarding patterns that cause
//      non-confluence (two distinct outcomes) or oscillation/late settling
//      (an unstable k-step sibling).  A sibling shares the outcome's
//      inputs, so it too depends on s_g only: both sibling sets are
//      searched over S and then restricted to TCR_k.  tests/oracle.hpp
//      keeps the pair loop and its sibling analysis as the reference
//      (test_sgraph's Tcr* suites, fuzz_structural).
//
// On top of the relation: onion-ring reachability restricted to CSSG edges
// (only valid vectors may be applied during test), justification sequence
// extraction, and an explicit graph for random TPG / differentiation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sgraph/encoding.hpp"
#include "util/packed.hpp"
#include "xatpg/types.hpp"  // CssgStats (public API type)

namespace xatpg {

struct CssgOptions {
  /// Max gate transitions allowed after an input pattern (the k of TCR_k;
  /// the paper counts the input change itself as one transition — we count
  /// gate transitions only, so our k equals the paper's k minus one).
  std::size_t k = 24;
  VarOrder order = VarOrder::Interleaved;
  /// Dynamic-reordering policy handed to the symbolic encoding.  All CSSG
  /// artifacts and queries are canonicalized to be order-independent, so
  /// enabling reordering changes node counts and timing, never results.
  ReorderPolicy reorder{};
};

// CssgStats (the Figure-2-style statistics block) is a public API type —
// see xatpg/types.hpp.

/// Explicit (enumerated) CSSG used by random TPG and differentiation.
///
/// An edge is a successor id: the edge id -> to applies the vector
/// inputs[to].  R_I flips only primary inputs and R_delta never changes
/// them, so the input part of an edge's target IS the vector the edge
/// applies — one vector per state instead of one per edge.
struct ExplicitCssg {
  std::vector<std::vector<bool>> states;  ///< full signal vectors
  /// Primary-input values of states[id], indexed like the netlist's
  /// inputs(): the vector every edge into id applies.
  std::vector<std::vector<bool>> inputs;
  /// Successor ids per state id, in the canonical order of their states.
  std::vector<std::vector<std::uint32_t>> edges;
  /// pack_state(states[id]) -> id.
  std::unordered_map<std::vector<StateWord>, std::uint32_t, StateWordsHash>
      index;

  /// The state as '0'/'1' text, signal 0 first (the to_dot labels).
  static std::string label(const std::vector<bool>& state);
  /// Id of `state`; nullopt if it is absent or not as wide as the graph's
  /// states (packed words alone do not tell 0110 from 011).
  std::optional<std::uint32_t> find(const std::vector<bool>& state) const;
};

/// A justification: input vector sequence driving the fault-free circuit
/// from the reset state to a target stable state using only valid vectors.
struct Justification {
  std::vector<std::vector<bool>> vectors;  ///< applied in order
  std::vector<bool> final_state;
};

class Cssg {
 public:
  /// Build the full abstraction from the test-mode reset state (§3.2),
  /// which must be stable.
  Cssg(const Netlist& netlist, const std::vector<bool>& reset_state,
       const CssgOptions& options = {});

  const Netlist& netlist() const { return enc_.netlist(); }
  SymbolicEncoding& encoding() { return enc_; }
  const SymbolicEncoding& encoding() const { return enc_; }
  const CssgOptions& options() const { return options_; }

  // --- symbolic artifacts (cur / (cur,next) variable supports) -------------
  const Bdd& r_delta() const { return r_delta_; }
  const Bdd& reachable() const { return reachable_; }         ///< TCSG states
  const Bdd& stable_reachable() const { return stable_reachable_; }
  const Bdd& relation() const { return cssg_; }               ///< CSSG_k
  /// States reachable from reset using valid vectors only; rings()[i] is the
  /// onion ring at distance i (ring 0 = the reset state).
  const Bdd& cssg_reachable() const { return cssg_reachable_; }
  const std::vector<Bdd>& rings() const { return rings_; }

  /// Every state the circuit can pass through during a legal test session:
  /// CSSG-reachable stable states plus all transient states of valid-vector
  /// settlings.  A signal constant across this set can never be excited by
  /// any test — the basis of a-priori undetectable-fault classification
  /// (the §6 "finding out a priori undetectable faults" improvement).
  /// Computed lazily on first use.
  const Bdd& test_mode_reachable() const;

  const CssgStats& stats() const { return stats_; }

  // --- queries ---------------------------------------------------------------
  // All queries are `const` in the same logical sense as SymbolicEncoding's:
  // results depend only on the constructed abstraction, while BDD caches
  // mutate underneath.  They are NOT concurrency-safe — one thread per Cssg
  // (the fault-parallel engine queries its Cssg from the thread that calls
  // run() only).
  /// Successor states (over cur) of `states` (over cur) via CSSG edges.
  Bdd image(const Bdd& states) const;
  /// Predecessor states of `states` via CSSG edges.
  Bdd preimage(const Bdd& states) const;

  /// Shortest valid-vector sequence from the reset state to any state in
  /// `targets` (a cur-set); nullopt if unreachable via valid vectors.
  std::optional<Justification> justify(const Bdd& targets) const;

  /// Enumerate the explicit CSSG reachable from the reset state: the reset
  /// is id 0, the other ids follow in depth-first discovery order, and each
  /// successor list is in lexicographic signal order.  Throws CheckError
  /// past 200,000 states.
  ExplicitCssg extract_explicit() const;

  /// Graphviz dump of `graph`, this CSSG's explicit graph (stable states
  /// labelled by their signal values, the reset state doubled, edges by the
  /// inputs they flip).
  std::string to_dot(const ExplicitCssg& graph) const;

 private:
  /// Conjunctions of the per-signal cur/next equalities, over the gates and
  /// over the inputs: the frame conditions R_I and TCR_k share.
  struct Equalities {
    Bdd gates, inputs;
  };
  Equalities build_relations();
  void traverse();
  void build_tcr_and_prune(const Equalities& eq);
  void build_rings();
  std::vector<bool> input_values_of(const std::vector<bool>& state) const;

  SymbolicEncoding enc_;
  CssgOptions options_;
  Bdd r_delta_, r_input_;
  Bdd reachable_, stable_reachable_;
  Bdd cssg_;
  Bdd cssg_reachable_;
  std::vector<Bdd> rings_;
  Bdd reset_set_;
  mutable Bdd test_mode_reachable_;
  mutable bool test_mode_reachable_built_ = false;
  CssgStats stats_;
};

}  // namespace xatpg
