#include "sgraph/encoding.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.hpp"

namespace xatpg {

const char* var_order_name(VarOrder order) {
  switch (order) {
    case VarOrder::Interleaved: return "interleaved";
    case VarOrder::Blocked: return "blocked";
    case VarOrder::ReverseInterleaved: return "reverse-interleaved";
  }
  return "?";
}

namespace {
/// eval_gate algebra over BDDs.
struct BddOps {
  BddManager* mgr;
  Bdd zero() const { return mgr->bdd_false(); }
  Bdd one() const { return mgr->bdd_true(); }
  Bdd and_(const Bdd& a, const Bdd& b) const { return a & b; }
  Bdd or_(const Bdd& a, const Bdd& b) const { return a | b; }
  Bdd not_(const Bdd& a) const { return !a; }
};
}  // namespace

SymbolicEncoding::SymbolicEncoding(const Netlist& netlist, VarOrder order,
                                   const ReorderPolicy& reorder)
    : netlist_(&netlist),
      mgr_(static_cast<std::uint32_t>(3 * netlist.num_signals())) {
  build_layout(order);
  target_cache_.resize(netlist.num_signals());

  // Group-preserving sifting: each signal's (cur, next, aux) triple moves
  // as one block, so the renaming permutations stay intra-triple and the
  // group cubes stay tight.  Blocked's triples are not level-adjacent, so
  // it sifts ungrouped (still correct, just coarser).
  if (order != VarOrder::Blocked && netlist.num_signals() > 0) {
    std::vector<std::vector<std::uint32_t>> groups;
    groups.reserve(netlist.num_signals());
    for (SignalId s = 0; s < netlist.num_signals(); ++s)
      groups.push_back({cur_vars_[s], next_vars_[s], aux_vars_[s]});
    mgr_.set_var_groups(groups);
  }
  if (reorder.enabled) mgr_.set_reorder_policy(reorder);
}

void SymbolicEncoding::build_layout(VarOrder order) {
  const auto n = static_cast<std::uint32_t>(netlist_->num_signals());
  cur_vars_.resize(n);
  next_vars_.resize(n);
  aux_vars_.resize(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    const std::uint32_t rank =
        (order == VarOrder::ReverseInterleaved) ? (n - 1 - s) : s;
    switch (order) {
      case VarOrder::Interleaved:
      case VarOrder::ReverseInterleaved:
        cur_vars_[s] = 3 * rank;
        next_vars_[s] = 3 * rank + 1;
        aux_vars_[s] = 3 * rank + 2;
        break;
      case VarOrder::Blocked:
        cur_vars_[s] = rank;
        next_vars_[s] = n + rank;
        aux_vars_[s] = 2 * n + rank;
        break;
    }
  }
  // Build permutation maps (identity outside the swapped groups).
  const std::uint32_t total = 3 * n;
  perm_cur_next_.resize(total);
  perm_next_aux_.resize(total);
  perm_cur_aux_.resize(total);
  for (std::uint32_t v = 0; v < total; ++v)
    perm_cur_next_[v] = perm_next_aux_[v] = perm_cur_aux_[v] = v;
  for (std::uint32_t s = 0; s < n; ++s) {
    perm_cur_next_[cur_vars_[s]] = next_vars_[s];
    perm_cur_next_[next_vars_[s]] = cur_vars_[s];
    perm_next_aux_[next_vars_[s]] = aux_vars_[s];
    perm_next_aux_[aux_vars_[s]] = next_vars_[s];
    perm_cur_aux_[cur_vars_[s]] = aux_vars_[s];
    perm_cur_aux_[aux_vars_[s]] = cur_vars_[s];
  }
}

Bdd SymbolicEncoding::state_minterm_cur(const std::vector<bool>& state) const {
  XATPG_CHECK(state.size() == num_signals());
  return mgr_.make_minterm(cur_vars_, state);
}

std::vector<bool> SymbolicEncoding::pick_state_cur(const Bdd& set) const {
  XATPG_CHECK_MSG(!set.is_false(), "cannot pick a state from the empty set");
  // Fast path: a root-to-leaf descent (lo preferred) yields the
  // lexicographic minimum in LEVEL order; when cur levels ascend with the
  // signal index that is already the canonical answer.
  if (cur_level_order().is_signal_order) {
    const auto tri = mgr_.pick_minterm(set, cur_vars_);
    std::vector<bool> state(num_signals());
    for (SignalId s = 0; s < num_signals(); ++s)
      state[s] = tri[s] == Tri::One;  // DontCare -> 0 stays inside the set
    return state;
  }
  // Greedy per-signal cofactoring in signal order: prefer 0, fall back to 1
  // when forcing 0 empties the set.  This yields the lexicographically
  // smallest member regardless of the manager's current variable order —
  // unlike the raw descent above, whose choice follows levels and would
  // drift under reordering.
  std::vector<bool> state(num_signals());
  Bdd rest = set;
  for (SignalId s = 0; s < num_signals(); ++s) {
    const Bdd zero = mgr_.cofactor(rest, cur_vars_[s], false);
    if (zero.is_false()) {
      state[s] = true;
      rest = mgr_.cofactor(rest, cur_vars_[s], true);
    } else {
      state[s] = false;
      rest = zero;
    }
  }
  return state;
}

const SymbolicEncoding::LevelOrder& SymbolicEncoding::cur_level_order()
    const {
  // Only a level swap moves the order.
  LevelOrder& order = level_order_;
  if (order.swaps == mgr_.swap_count()) return order;
  order.swaps = mgr_.swap_count();
  // The enumerator wants variables in strictly ascending LEVEL order (which
  // tracks the dynamic order, not the variable indices): list the signals
  // by the level of their cur variable.
  order.signals.resize(num_signals());
  std::iota(order.signals.begin(), order.signals.end(), 0u);
  std::sort(order.signals.begin(), order.signals.end(),
            [&](SignalId a, SignalId b) {
              return mgr_.level_of(cur_vars_[a]) < mgr_.level_of(cur_vars_[b]);
            });
  order.vars.resize(order.signals.size());
  for (std::size_t i = 0; i < order.signals.size(); ++i)
    order.vars[i] = cur_vars_[order.signals[i]];
  order.is_signal_order =
      std::is_sorted(order.signals.begin(), order.signals.end());
  return order;
}

void SymbolicEncoding::append_state_rows_cur(const Bdd& set,
                                             std::vector<StateWord>& rows,
                                             std::size_t limit) const {
  const LevelOrder& order = cur_level_order();
  const std::size_t first = rows.size();
  const std::size_t width = state_words(num_signals());
  mgr_.append_minterm_rows(set, order.vars, order.signals, width, rows,
                           limit);
  // The rows follow the level order, which is already signal order when
  // cur levels ascend with the signal index (the interleaved and blocked
  // layouts before any reordering); otherwise one sort canonicalizes them,
  // so state ids, edge lists and everything derived from them are
  // identical for every static layout and at any point of a
  // dynamic-reordering run.
  if (!order.is_signal_order) sort_rows_signal_order(rows, first, width);
}

std::vector<std::vector<bool>> SymbolicEncoding::all_states_cur(
    const Bdd& set, std::size_t limit) const {
  std::vector<StateWord> rows;
  append_state_rows_cur(set, rows, limit);
  const std::size_t width = state_words(num_signals());
  std::vector<std::vector<bool>> out;
  out.reserve(rows.size() / width);
  for (std::size_t r = 0; r < rows.size(); r += width)
    out.push_back(unpack_state(rows.data() + r, num_signals()));
  return out;
}

std::uint64_t SymbolicEncoding::count_state_rows_cur(const Bdd& set) const {
  return mgr_.minterm_count(set, cur_vars_);
}

void SymbolicEncoding::state_row_at_cur(const Bdd& set, std::uint64_t rank,
                                        StateWord* row) const {
  const std::size_t width = state_words(num_signals());
  // Cur levels in signal order: the level order the descent takes is the
  // canonical one.  (vars then equals cur_vars_, so the descent reuses the
  // counts count_state_rows_cur left in the manager's memo.)
  if (const LevelOrder& order = cur_level_order(); order.is_signal_order) {
    mgr_.minterm_row_at(set, order.vars, order.signals, rank, row, width);
    return;
  }
  // Signal by signal: the rows with s = 0 come first, so rank falls among
  // them iff it is below their count.  Restricting by conjunction rather
  // than cofactoring keeps every count over all the cur variables, so the
  // counts of the whole walk share one memo.
  XATPG_CHECK_MSG(rank < count_state_rows_cur(set), "state rank out of range");
  std::fill(row, row + width, StateWord{0});
  Bdd rest = set;
  for (SignalId s = 0; s < num_signals(); ++s) {
    const Bdd zero = rest & !cur(s);
    const std::uint64_t zeros = count_state_rows_cur(zero);
    if (rank < zeros) {
      rest = zero;
    } else {
      rank -= zeros;
      rest &= cur(s);
      set_bit(row, s);
    }
  }
}

Bdd SymbolicEncoding::target(SignalId s) const {
  if (target_cache_[s].valid()) return target_cache_[s];
  const Gate& g = netlist_->gate(s);
  Bdd result;
  if (g.type == GateType::Input) {
    result = cur(s);
  } else {
    std::vector<Bdd> fanin_vals;
    fanin_vals.reserve(g.fanins.size());
    for (const SignalId f : g.fanins) fanin_vals.push_back(cur(f));
    result = eval_gate(g, fanin_vals, cur(s), BddOps{&mgr_});
  }
  target_cache_[s] = result;
  return result;
}

Bdd SymbolicEncoding::stable() const {
  if (stable_built_) return stable_cache_;
  Bdd acc = mgr_.bdd_true();
  for (SignalId s = 0; s < num_signals(); ++s) {
    if (netlist_->is_input(s)) continue;  // inputs are held by the tester
    acc &= !(cur(s) ^ target(s));
  }
  stable_cache_ = acc;
  stable_built_ = true;
  return stable_cache_;
}

Bdd SymbolicEncoding::eq_cur_next(SignalId s) const { return !(cur(s) ^ next(s)); }

double SymbolicEncoding::count_states_cur(const Bdd& set) const {
  // sat_count over the full 3n universe counts each cur-state 2^(2n) times;
  // divide on sat_count's internal exponent so the raw count never has to
  // fit in a double (it would overflow past ~340 signals).
  return mgr_.sat_count(set, mgr_.num_vars(),
                        2 * static_cast<std::int64_t>(num_signals()));
}

}  // namespace xatpg
