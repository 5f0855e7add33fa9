// Confluent Stable State Graph (§4): the synchronous FSM abstraction of an
// asynchronous circuit under test.
//
// Pipeline (all symbolic, over the SymbolicEncoding's three variable groups):
//   1. Transition relations:  R_delta (one excited gate fires; stable states
//      self-loop) and R_I (any non-empty set of primary inputs flips on a
//      stable state) — §3.1/§3.2.
//   2. TCSG reachability from the reset state: the closure under R_I and
//      R_delta, chained.  R_delta's firing of gate s maps a set F to F ∧
//      excited_s with s flipped, and its stable self-loops add nothing;
//      F ∪ R_I(F) is F ∪ ∃x_in.(F ∧ stable), since a stable state reaches
//      every other input pattern with its gates held.  Each round applies
//      that input step once and then fires every gate in signal-id order
//      straight into the reached set, so a gate reads what the gates
//      before it just reached (the chaining of Roig, Cortadella & Pastor,
//      ICATPN 1995), until a round adds nothing.  The fixpoint is the BFS
//      closure over R_I ∪ R_delta, which tests/oracle.hpp keeps
//      (test_sgraph's Tcr* and TestModeReachable suites, fuzz_structural).
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
// LazyCssg builds that graph one successor list at a time, when a list is
// first read; extract_explicit() is the same builder run over every
// reachable state.  A state's list does not depend on when it is built, so
// lazy list = eager list, state for state (test_sgraph's LazyGraph.*).
// A walk needs one entry of a list, not all of it: LazyCssg's rank reads
// count the state's successors on the BDD its list is enumerated from and
// descend to the one entry asked for, so the entry a rank read names is
// the list's entry at that rank, and a list is built only when something
// reads it whole.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
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
/// applies — one vector per state instead of one per edge.  A LazyCssg's
/// graph holds the states its built lists and rank reads reach and an
/// empty edges[id] for every list not yet built; extract_explicit()
/// returns every list.
struct ExplicitCssg {
  std::vector<std::vector<bool>> states;  ///< full signal vectors
  /// Primary-input values of states[id], indexed like the netlist's
  /// inputs(): the vector every edge into id applies.
  std::vector<std::vector<bool>> inputs;
  /// Successor ids per state id, in the canonical order of their states.
  std::vector<std::vector<std::uint32_t>> edges;
  /// pack_state(states[id]) -> id, over the packed states.
  PackedRowIndex index;

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

  /// Enumerate the explicit CSSG reachable from the reset state: a fresh
  /// LazyCssg completed.  The reset is id 0, the other ids follow in
  /// depth-first discovery order, and each successor list is in
  /// lexicographic signal order.  Throws CheckError past 200,000 states.
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
  /// Per signal, over cur: where the gate is excited (its output differs
  /// from its target).  An input's entry is left empty.
  std::vector<Bdd> excitations() const;
  Equalities build_relations(const std::vector<Bdd>& excited);
  /// The positive cube of the inputs' cur variables.
  Bdd input_cube() const;
  void traverse(const std::vector<Bdd>& excited);
  /// The least superset of `seed` (over cur) closed under `input_step` and
  /// under every gate's firing: each round applies input_step once, then
  /// fires each gate s in signal-id order as reached |= (reached ∧
  /// excited[s]) with s flipped.  Rounds repeat until one adds nothing;
  /// `rounds`, if given, receives their count, that last round included.
  Bdd close_under_firing(Bdd seed, const std::vector<Bdd>& excited,
                         const std::function<Bdd(const Bdd&)>& input_step,
                         std::size_t* rounds = nullptr) const;
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

/// The explicit CSSG of a Cssg, built one successor list at a time on the
/// Cssg's manager.  A state takes an id when the first built list or rank
/// read reaches it (the reset state is id 0), and its own list is built on
/// its first whole read: CSSG_k's image of the state's minterm, enumerated
/// in lexicographic signal order.  So a list is the same whenever it is
/// built; only the ids follow the order of the reads.
///
/// The rank reads -- successor_count, successor_at, successor_applying --
/// answer from that image without building the list and intern only the
/// state they return; once the list is built they read it instead.  Rank i
/// names the list's entry i, state for state (test_sgraph's LazyGraph.*).
/// Counts come from the manager's count memo, and a repeated (state, rank)
/// read from a sparse memo here, so nothing per state is sized by its
/// list.  No image outlives the read that computes it: a walk that counts
/// a state and then takes one successor computes the image twice, and the
/// manager's computed cache answers the second.
///
/// A LazyCssg is single-threaded, like the Cssg's queries: every read may
/// build a list, intern a state or run a BDD operation on the Cssg's
/// manager.  Readers on other threads take graph() once complete() has
/// built every list, as a const ExplicitCssg.  Interning a state past
/// 200,000 throws CheckError; a rank read interns one state, so in
/// practice the cap binds only the lists a whole read builds.
class LazyCssg {
 public:
  /// Interns the reset state as id 0 and builds no list.
  explicit LazyCssg(const Cssg& cssg);

  /// The states interned and the lists built so far: edges[id] stays empty
  /// until state id's list is built.
  const ExplicitCssg& graph() const { return graph_; }
  /// State id's successor ids, in the canonical order of their states,
  /// built on the first read.  The states a new list reaches first take the
  /// next ids in list order.  The reference holds until the next read that
  /// builds a list.
  const std::vector<std::uint32_t>& successors(std::uint32_t id);
  /// successors(id).size(), without building the list.
  std::uint64_t successor_count(std::uint32_t id);
  /// successors(id)[rank], without building the list; rank <
  /// successor_count(id).
  std::uint32_t successor_at(std::uint32_t id, std::uint64_t rank);
  /// The successor of id whose inputs are `inputs` (indexed like the
  /// netlist's inputs()), without building the list; nullopt if no edge
  /// out of id applies that vector.
  std::optional<std::uint32_t> successor_applying(
      std::uint32_t id, const std::vector<bool>& inputs);
  /// Lists built so far, and the successor ids they hold.
  std::size_t lists_built() const { return lists_built_; }
  std::size_t list_ids() const { return list_ids_; }
  /// Build every list still missing, depth-first from the states that lack
  /// one, smallest id first.  On a fresh LazyCssg that numbers the states
  /// as extract_explicit() does.
  void complete();
  /// The graph, moved out.
  ExplicitCssg take() && { return std::move(graph_); }

 private:
  /// Id of the packed state `row`, interned if it is new.
  std::uint32_t intern(const StateWord* row);
  /// The successor set of state id over cur: CSSG_k's image of its minterm.
  Bdd image(std::uint32_t id) const;

  const Cssg* cssg_;
  ExplicitCssg graph_;
  std::vector<bool> built_;
  std::size_t lists_built_ = 0, list_ids_ = 0;
  Bdd cur_cube_;
  /// The inputs' cur variables, in the netlist's inputs() order.
  std::vector<std::uint32_t> input_vars_;
  /// successor_count per state id; kUncounted until counted.
  static constexpr std::uint64_t kUncounted = ~std::uint64_t{0};
  std::vector<std::uint64_t> counts_;
  /// successor_at's answers so far: the (state id, rank) pair
  /// ranked_keys_ numbers k was answered with ranked_[k].
  PackedRowIndex ranked_keys_{2};
  std::vector<std::uint32_t> ranked_;
  /// The successors rank reads have named, by the vector that leads to
  /// them: the (state id, packed inputs) key applied_keys_ numbers k leads
  /// to applied_[k].  A replay of a drawn walk reads its steps back here.
  PackedRowIndex applied_keys_;
  std::vector<std::uint32_t> applied_;
  /// Fill applied_key_ with (id, inputs).
  void applied_key(std::uint32_t id, const std::vector<bool>& inputs);
  std::vector<StateWord> applied_key_;
  /// The row buffer every build and rank read reuses.
  std::vector<StateWord> rows_;
};

}  // namespace xatpg
