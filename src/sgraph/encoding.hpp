// Symbolic state encoding of an asynchronous circuit (§3.1 of the paper).
//
// The state of an asynchronous circuit is the binary vector of *all* its
// signals — primary inputs and gate outputs alike (feedback loops are not
// cut by clocked flip-flops).  Three BDD variable groups encode a state
// relation: present-state (cur), next-state (next), and an auxiliary group
// (aux) used as the middle variable set when composing relations (TCR_k)
// and as the "sibling final state" set when pruning non-confluence.
//
// The group/variable interleaving is selectable — the paper lists BDD
// variable ordering as the main lever on 3-phase ATPG cost (§6), and
// `xatpg bench --family ablation_ordering` measures exactly this choice.
// On top of the static choices, the BDD kernel supports dynamic (Rudell
// sifting) reordering: with ReorderPolicy::enabled the manager re-sorts the
// starting layout as structures grow.  The encoding declares each
// signal's (cur, next, aux) triple as one sifting GROUP, so reordering
// moves whole signals: the triples stay adjacent, which keeps the
// cur<->next/aux renaming permutations local and the quantification cubes
// compact.  All queries below are canonicalized to be independent of the
// current variable order (states enumerate in lexicographic signal order,
// picks return the lexicographically smallest member), so everything built
// on the encoding — CSSG, justification, the ATPG engine — produces
// identical results whichever order the manager currently holds.
#pragma once

#include <cstdint>
#include <vector>

#include "bdd/bdd.hpp"
#include "netlist/netlist.hpp"
#include "util/packed.hpp"
#include "xatpg/options.hpp"  // VarOrder (public API type)

namespace xatpg {

/// Owns the BddManager and the variable layout for one netlist.
///
/// Every query below is `const`: they are logically read-only (the encoding's
/// observable artifacts never change after construction), even though the
/// underlying BddManager mutates its unique table, computed cache and memo
/// caches internally — hence the mutable members.  `const` here means
/// "logically read-only", NOT "safe to call concurrently": the manager's
/// thread-safety contract (one thread per manager, see bdd/bdd.hpp) still
/// applies.  The ATPG engine queries its encoding from the thread that
/// calls run() only.
class SymbolicEncoding {
 public:
  /// `reorder` configures dynamic sifting on the underlying manager, passed
  /// through verbatim, so any layout can opt into reordering.  The
  /// interleaved layouts (Interleaved / ReverseInterleaved) register each
  /// signal's (cur, next, aux) triple as a sifting group; Blocked cannot
  /// (the triple is not level-adjacent) and sifts single variables.
  SymbolicEncoding(const Netlist& netlist,
                   VarOrder order = VarOrder::Interleaved,
                   const ReorderPolicy& reorder = {});

  const Netlist& netlist() const { return *netlist_; }
  BddManager& mgr() const { return mgr_; }
  std::size_t num_signals() const { return netlist_->num_signals(); }

  /// Run one sifting pass now (independent of the auto-trigger policy).
  ReorderStats sift_now() const { return mgr_.sift(); }

  std::uint32_t cur_var(SignalId s) const { return cur_vars_[s]; }
  std::uint32_t next_var(SignalId s) const { return next_vars_[s]; }
  std::uint32_t aux_var(SignalId s) const { return aux_vars_[s]; }

  /// Positive literal of signal s in each group.
  Bdd cur(SignalId s) const { return mgr_.var(cur_vars_[s]); }
  Bdd next(SignalId s) const { return mgr_.var(next_vars_[s]); }
  Bdd aux(SignalId s) const { return mgr_.var(aux_vars_[s]); }

  /// Quantification cubes per group.
  Bdd cur_cube() const { return mgr_.make_cube(cur_vars_); }
  Bdd next_cube() const { return mgr_.make_cube(next_vars_); }
  Bdd aux_cube() const { return mgr_.make_cube(aux_vars_); }

  /// Group renamings (cur<->next, next->aux, cur->aux; other groups fixed).
  Bdd cur_to_next(const Bdd& f) const { return mgr_.permute(f, perm_cur_next_); }
  Bdd next_to_cur(const Bdd& f) const { return mgr_.permute(f, perm_cur_next_); }
  Bdd next_to_aux(const Bdd& f) const { return mgr_.permute(f, perm_next_aux_); }
  Bdd cur_to_aux(const Bdd& f) const { return mgr_.permute(f, perm_cur_aux_); }

  /// Minterm of a complete state over the cur variables.
  Bdd state_minterm_cur(const std::vector<bool>& state) const;

  /// Pick one complete state from a non-empty set over cur variables: the
  /// lexicographically smallest member (by signal index).  Canonical — the
  /// result does not depend on the manager's current variable order, which
  /// keeps justification sequences (and thus ATPG results) identical across
  /// static layouts and dynamic reordering.
  std::vector<bool> pick_state_cur(const Bdd& set) const;

  /// Enumerate all complete states in a set over cur variables as packed
  /// rows (util/packed.hpp, state_words(num_signals()) words each) appended
  /// to `rows`, in lexicographic signal order, signal 0 most significant —
  /// again canonical under reordering (the explicit CSSG's state ids and
  /// edge order inherit this determinism).  Throws CheckError past `limit`
  /// states.
  void append_state_rows_cur(const Bdd& set, std::vector<StateWord>& rows,
                             std::size_t limit = 1u << 20) const;
  /// append_state_rows_cur, unpacked: one vector per state, same order.
  std::vector<std::vector<bool>> all_states_cur(
      const Bdd& set, std::size_t limit = 1u << 20) const;

  /// Target (settled) value of gate s as a function of cur variables; for
  /// state-holding gates this includes the gate's own present value.
  Bdd target(SignalId s) const;

  /// Predicate over cur: every gate output equals its target (§3.1's
  /// "stable state").
  Bdd stable() const;

  /// cur(s) XNOR next(s).
  Bdd eq_cur_next(SignalId s) const;

  /// Number of satisfying states of a cur-set (each state counted once).
  double count_states_cur(const Bdd& set) const;

 private:
  void build_layout(VarOrder order);

  const Netlist* netlist_;
  mutable BddManager mgr_;
  /// True when cur_vars_ ascends with the signal index, i.e. the creation
  /// order already enumerates cur variables in signal order — then, as long
  /// as the manager has never swapped levels, a raw BDD descent picks the
  /// same lexicographic minimum the canonical cofactor loop would.
  bool pick_descent_is_canonical_ = false;
  std::vector<std::uint32_t> cur_vars_, next_vars_, aux_vars_;
  std::vector<std::uint32_t> perm_cur_next_, perm_next_aux_, perm_cur_aux_;
  mutable std::vector<Bdd> target_cache_;
  mutable Bdd stable_cache_;
  mutable bool stable_built_ = false;
};

}  // namespace xatpg
