// Reference implementations the production layers are checked against.
//
// Brute-force CSSG oracle, shared by the randomized differential suite
// (tests/test_differential.cpp) and the structural netlist fuzzer
// (tests/fuzz/fuzz_structural.cpp).  The oracle re-derives the
// complete-state-signal graph by explicit search: BFS from reset over all
// input patterns, keeping only confluent settlings (exactly one stable
// outcome, every trajectory done within the bound) — the definition of a
// valid synchronous test vector.  The symbolic CSSG's state and edge sets
// must match it exactly; cssg_oracle_mismatch() reports the first
// divergence as text so non-gtest consumers (the fuzzer harness) can use
// the same check.
//
// The set-based exact settling kernel and fault simulator, which the packed
// kernel in src/sim/explicit.cpp and src/atpg/fault_sim.cpp replaced, kept
// as its reference (tests/test_sim.cpp, tests/test_atpg.cpp,
// tests/fuzz/fuzz_structural.cpp).  The CSSG oracle settles through it too,
// so it shares no code with the kernel under test.  It settles every start
// state afresh, so it is also the reference for the packed simulator's
// settle memo: memo_lockstep() drives both the way a run drives a fault's
// simulator, revisiting start states.
//
// The explicit CSSG extraction as it was before packed rows (std::vector<bool>
// enumeration, a pattern on every edge), kept as the reference for the
// packed extraction in src/sgraph/cssg.cpp (tests/test_sgraph.cpp,
// tests/fuzz/fuzz_structural.cpp).  LazyCssg's rank reads, which answer
// from the BDD without building a list, are checked against the built
// lists of the eager graph (rank_read_mismatch).
//
// The TCR_k loop and sibling analysis as they ran over whole source states
// (A(x, y), source input bits included), kept as the reference for the loop
// over the source's gate values in src/sgraph/cssg.cpp (tests/test_sgraph.cpp,
// tests/fuzz/fuzz_structural.cpp).
//
// All-pairs Quine–McCluskey over on ∪ dc, the synthesis layer's former
// prime generator, kept as the reference for the off-set multiply-out in
// src/synth/cover.cpp (tests/test_synth.cpp, tests/fuzz/fuzz_cover.cpp).
//
// The random TPG phase as the engine ran it walk by walk, stepping every
// undetermined fault per vector, kept as the reference for the engine's
// fault-parallel replay in src/atpg/engine.cpp (tests/test_parallel_atpg.cpp).
// Its walks, drawn over whole successor lists, are the reference for the
// engine's rank-read walks (oracle_random_walks, tests/test_atpg.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "netlist/netlist.hpp"
#include "sgraph/cssg.hpp"
#include "sim/explicit.hpp"
#include "synth/cover.hpp"
#include "util/check.hpp"
#include "util/random.hpp"
#include "xatpg/options.hpp"
#include "xatpg/types.hpp"

namespace xatpg::testing {

// --- set-based exact settling ---------------------------------------------

/// All excited (unstable) gates in `state`.
inline std::vector<SignalId> oracle_excited_gates(
    const Netlist& netlist, const std::vector<bool>& state) {
  std::vector<SignalId> out;
  for (SignalId s = 0; s < netlist.num_signals(); ++s) {
    if (netlist.is_input(s)) continue;
    if (!netlist.is_gate_stable(s, state)) out.push_back(s);
  }
  return out;
}

/// explore_settling as it was: std::set levels of std::vector<bool> states,
/// every signal re-evaluated in every state.
inline ExploreResult oracle_explore_settling(
    const Netlist& netlist, const std::vector<bool>& stable_from,
    const std::vector<bool>& input_values, std::size_t max_transitions) {
  XATPG_CHECK(stable_from.size() == netlist.num_signals());
  XATPG_CHECK(input_values.size() == netlist.inputs().size());

  ExploreResult result;
  std::vector<bool> start = stable_from;
  for (std::size_t i = 0; i < input_values.size(); ++i)
    start[netlist.inputs()[i]] = input_values[i];

  std::set<std::vector<bool>> level{start};
  std::size_t depth = 0;
  while (!level.empty()) {
    std::set<std::vector<bool>> next_level;
    for (const std::vector<bool>& state : level) {
      const auto excited = oracle_excited_gates(netlist, state);
      if (excited.empty()) {
        result.stable_states.insert(state);
        continue;
      }
      if (depth == max_transitions) {
        result.exceeded_bound = true;
        continue;
      }
      for (const SignalId g : excited) {
        std::vector<bool> succ = state;
        succ[g] = !succ[g];
        next_level.insert(std::move(succ));
      }
    }
    if (depth == max_transitions) break;
    level = std::move(next_level);
    ++depth;
  }
  return result;
}

/// explicit_stable_reachable over oracle_explore_settling.
inline std::set<std::vector<bool>> oracle_stable_reachable(
    const Netlist& netlist, const std::vector<bool>& reset_state,
    std::size_t max_transitions) {
  const std::size_t num_inputs = netlist.inputs().size();
  std::set<std::vector<bool>> stable_seen{reset_state};
  std::vector<std::vector<bool>> worklist{reset_state};
  while (!worklist.empty()) {
    const std::vector<bool> state = worklist.back();
    worklist.pop_back();
    for (std::uint64_t pattern = 0; pattern < (1ull << num_inputs); ++pattern) {
      std::vector<bool> input_values(num_inputs);
      bool same = true;
      for (std::size_t i = 0; i < num_inputs; ++i) {
        input_values[i] = (pattern >> i) & 1;
        same = same && (input_values[i] == state[netlist.inputs()[i]]);
      }
      if (same) continue;
      const ExploreResult explored = oracle_explore_settling(
          netlist, state, input_values, max_transitions);
      for (const std::vector<bool>& st : explored.stable_states)
        if (stable_seen.insert(st).second) worklist.push_back(st);
    }
  }
  return stable_seen;
}

/// FaultSimulator as it was: a std::set of candidate states, each settled
/// by oracle_explore_settling on the materialized faulty netlist, inputs
/// matched by name on every step.  One oracle serves one sequence from
/// reset.
class OracleFaultSimulator {
 public:
  OracleFaultSimulator(const Netlist& good, const Fault& fault,
                       const std::vector<bool>& reset_state,
                       const FaultSimOptions& options = {})
      : good_(&good), faulty_(apply_fault(good, fault)), options_(options) {
    const std::vector<bool> start = fault_initial_state(fault, reset_state);
    std::vector<bool> inputs;
    for (const SignalId in : faulty_.inputs()) inputs.push_back(start[in]);
    const ExploreResult result =
        oracle_explore_settling(faulty_, start, inputs, options_.k);
    if (result.exceeded_bound) {
      status_ = DetectStatus::GaveUp;
      return;
    }
    candidates_ = result.stable_states;
    if (candidates_.size() > options_.candidate_cap)
      status_ = DetectStatus::GaveUp;
  }

  DetectStatus status() const { return status_; }
  const std::set<std::vector<bool>>& candidates() const { return candidates_; }

  DetectStatus step(const std::vector<bool>& input_values,
                    const std::vector<bool>& good_state) {
    if (status_ != DetectStatus::Undetermined) return status_;
    std::set<std::vector<bool>> next;
    for (const auto& candidate : candidates_) {
      settle_into(candidate, input_values, &good_state, next);
      if (status_ == DetectStatus::GaveUp) return status_;
      if (next.size() > options_.candidate_cap) {
        status_ = DetectStatus::GaveUp;
        return status_;
      }
    }
    candidates_ = std::move(next);
    if (candidates_.empty()) status_ = DetectStatus::Detected;
    return status_;
  }

  struct Snapshot {
    std::set<std::vector<bool>> candidates;
    DetectStatus status;
  };
  Snapshot snapshot() const { return {candidates_, status_}; }
  void restore(const Snapshot& snap) {
    candidates_ = snap.candidates;
    status_ = snap.status;
  }

 private:
  void settle_into(const std::vector<bool>& start,
                   const std::vector<bool>& input_values,
                   const std::vector<bool>* good_state,
                   std::set<std::vector<bool>>& out) {
    const ExploreResult result = oracle_explore_settling(
        faulty_, start, faulty_inputs(input_values), options_.k);
    if (result.exceeded_bound) {
      status_ = DetectStatus::GaveUp;
      return;
    }
    for (const auto& candidate : result.stable_states) {
      if (good_state) {
        bool mismatch = false;
        for (const SignalId po : good_->outputs())
          if (candidate[po] != (*good_state)[po]) {
            mismatch = true;
            break;
          }
        if (mismatch) continue;
      }
      out.insert(candidate);
    }
  }

  /// The good vector's values on the faulty circuit's inputs, each found
  /// by name among the good inputs.
  std::vector<bool> faulty_inputs(const std::vector<bool>& good_vector) const {
    XATPG_CHECK(good_vector.size() == good_->inputs().size());
    std::vector<bool> out;
    for (const SignalId in : faulty_.inputs()) {
      const std::string& name = faulty_.signal_name(in);
      std::size_t i = 0;
      while (i < good_->inputs().size() &&
             good_->signal_name(good_->inputs()[i]) != name)
        ++i;
      XATPG_CHECK_MSG(i < good_->inputs().size(),
                      "faulty input '" << name << "' unknown to good circuit");
      out.push_back(good_vector[i]);
    }
    return out;
  }

  const Netlist* good_;
  Netlist faulty_;
  FaultSimOptions options_;
  std::set<std::vector<bool>> candidates_;
  DetectStatus status_ = DetectStatus::Undetermined;
};

/// The packed simulator's candidates as the oracle's set (`good` is the
/// netlist the simulator was built on).
inline std::set<std::vector<bool>> unpacked_candidates(
    const FaultSimulator& sim, const Netlist& good) {
  // A stuck pin appends one constant signal to the faulty circuit.
  const std::size_t num_signals =
      good.num_signals() +
      (sim.fault().site == Fault::Site::GatePin ? 1 : 0);
  std::set<std::vector<bool>> out;
  const std::size_t w = state_words(num_signals);
  for (std::size_t r = 0; r < sim.candidates().size(); r += w)
    out.insert(unpack_state(sim.candidates().data() + r, num_signals));
  return out;
}

// --- the settle memo --------------------------------------------------------

/// One test cycle: the vector applied and the good state after it.
using OracleCycle = std::pair<std::vector<bool>, std::vector<bool>>;

/// What memo_lockstep found: the first divergence ("" when none), the
/// lookups the simulator's settle memo answered and the steps that gave up.
struct MemoLockstep {
  std::string mismatch;
  std::size_t memoized = 0;
  std::size_t gave_up = 0;
};

/// Drive one FaultSimulator the way the engine drives a fault's simulator
/// through a run, beside a fresh OracleFaultSimulator per walk: each walk
/// starts with reset(), and at cycle t the simulator is snapshot, stepped
/// by every cycle of branches[w][t] in turn from the snapshot (a search
/// node's expansion), restored and stepped by walks[w][t], until the status
/// is final.  With walks[w][t] among branches[w][t], the walk's own cycle
/// repeats a branch's starts, so the memo must answer there; status and
/// candidates must equal the oracle's after every step.
inline MemoLockstep memo_lockstep(
    const Netlist& good, const std::vector<bool>& reset, const Fault& fault,
    const FaultSimOptions& options,
    const std::vector<std::vector<OracleCycle>>& walks,
    const std::vector<std::vector<std::vector<OracleCycle>>>& branches) {
  MemoLockstep out;
  FaultSimulator sim(good, fault, reset, options);
  const auto compare = [&](const OracleFaultSimulator& oracle,
                           const std::string& where) {
    if (!out.mismatch.empty()) return;
    if (sim.status() != oracle.status())
      out.mismatch = "status differs " + where;
    else if (unpacked_candidates(sim, good) != oracle.candidates())
      out.mismatch = "candidates differ " + where;
  };
  for (std::size_t w = 0; w < walks.size() && out.mismatch.empty(); ++w) {
    sim.reset();
    OracleFaultSimulator oracle(good, fault, reset, options);
    const std::string walk = good.name() + " " + fault.describe(good) +
                             " walk " + std::to_string(w);
    compare(oracle, walk + " at reset");
    for (std::size_t t = 0; t < walks[w].size() && out.mismatch.empty() &&
                            sim.status() == DetectStatus::Undetermined;
         ++t) {
      const FaultSimulator::Snapshot snap = sim.snapshot();
      const OracleFaultSimulator::Snapshot oracle_snap = oracle.snapshot();
      const std::string at = walk + " cycle " + std::to_string(t);
      for (const OracleCycle& branch : branches[w][t]) {
        sim.restore(snap);
        oracle.restore(oracle_snap);
        out.gave_up += sim.step(branch.first, branch.second) ==
                       DetectStatus::GaveUp;
        oracle.step(branch.first, branch.second);
        compare(oracle, at + " on a branch");
      }
      sim.restore(snap);
      oracle.restore(oracle_snap);
      const std::size_t answered = sim.settles_memoized();
      out.gave_up += sim.step(walks[w][t].first, walks[w][t].second) ==
                     DetectStatus::GaveUp;
      oracle.step(walks[w][t].first, walks[w][t].second);
      compare(oracle, at);
      if (out.mismatch.empty() && sim.settles_memoized() == answered &&
          std::find(branches[w][t].begin(), branches[w][t].end(),
                    walks[w][t]) != branches[w][t].end())
        out.mismatch = "the memo did not answer a revisited start " + at;
    }
  }
  out.memoized = sim.settles_memoized();
  return out;
}

// --- brute-force CSSG -----------------------------------------------------

struct OracleCssg {
  /// (from state, input pattern, to state)
  using Edge =
      std::tuple<std::vector<bool>, std::vector<bool>, std::vector<bool>>;
  std::set<std::vector<bool>> states;
  std::set<Edge> edges;
};

/// Brute-force CSSG from `reset` with settlement bound `k`.  Cost is
/// O(states x 2^inputs x settlement interleavings) — callers keep circuits
/// small (<= ~4 inputs, ~12 signals).
inline OracleCssg oracle_cssg(const Netlist& netlist,
                              const std::vector<bool>& reset, std::size_t k) {
  OracleCssg oracle;
  const auto& inputs = netlist.inputs();
  oracle.states.insert(reset);
  std::vector<std::vector<bool>> worklist{reset};
  while (!worklist.empty()) {
    const std::vector<bool> state = worklist.back();
    worklist.pop_back();
    for (std::uint64_t bits = 0; bits < (1ull << inputs.size()); ++bits) {
      std::vector<bool> pattern(inputs.size());
      bool same = true;
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        pattern[i] = (bits >> i) & 1;
        same = same && (pattern[i] == state[inputs[i]]);
      }
      if (same) continue;  // R_I: at least one input must flip
      const ExploreResult explored =
          oracle_explore_settling(netlist, state, pattern, k);
      if (!explored.confluent()) continue;
      const std::vector<bool>& succ = *explored.stable_states.begin();
      oracle.edges.insert({state, pattern, succ});
      if (oracle.states.insert(succ).second) worklist.push_back(succ);
    }
  }
  return oracle;
}

namespace oracle_detail {

inline std::string bits(const std::vector<bool>& v) {
  std::string s;
  for (const bool b : v) s += b ? '1' : '0';
  return s;
}

template <typename Set>
std::string first_difference(const Set& got, const Set& want,
                             std::string (*print)(
                                 const typename Set::value_type&)) {
  for (const auto& x : got)
    if (!want.count(x)) return "unexpected " + print(x);
  for (const auto& x : want)
    if (!got.count(x)) return "missing " + print(x);
  return {};
}

}  // namespace oracle_detail

/// Build the symbolic CSSG under `options` and diff it against the oracle;
/// the symbolic stable-reachable set is additionally checked against the
/// explicit enumerator (it must cover the oracle BFS and may contain stable
/// states only reachable through racing vectors).  Returns "" on a perfect
/// match, else a one-line description of the first divergence.
inline std::string cssg_oracle_mismatch(const Netlist& netlist,
                                        const std::vector<bool>& reset,
                                        const OracleCssg& oracle,
                                        const CssgOptions& options) {
  const Cssg cssg(netlist, reset, options);
  const ExplicitCssg graph = cssg.extract_explicit();

  std::set<std::vector<bool>> states(graph.states.begin(), graph.states.end());
  if (states.size() != graph.states.size())
    return "symbolic CSSG lists a state under two ids";
  if (states != oracle.states) {
    std::ostringstream os;
    os << "state sets differ (symbolic " << states.size() << ", oracle "
       << oracle.states.size() << "): "
       << oracle_detail::first_difference<std::set<std::vector<bool>>>(
              states, oracle.states,
              +[](const std::vector<bool>& s) { return oracle_detail::bits(s); });
    return os.str();
  }

  using Edge = OracleCssg::Edge;
  std::set<Edge> edges;
  for (std::uint32_t id = 0; id < graph.states.size(); ++id)
    for (const std::uint32_t to : graph.edges[id])
      edges.insert({graph.states[id], graph.inputs[to], graph.states[to]});
  if (edges != oracle.edges) {
    std::ostringstream os;
    os << "edge sets differ (symbolic " << edges.size() << ", oracle "
       << oracle.edges.size() << "): "
       << oracle_detail::first_difference<std::set<Edge>>(
              edges, oracle.edges, +[](const Edge& e) {
                return oracle_detail::bits(std::get<0>(e)) + " --" +
                       oracle_detail::bits(std::get<1>(e)) + "--> " +
                       oracle_detail::bits(std::get<2>(e));
              });
    return os.str();
  }

  const std::set<std::vector<bool>> stable_explicit =
      oracle_stable_reachable(netlist, reset, options.k);
  const auto stable_symbolic_list =
      cssg.encoding().all_states_cur(cssg.stable_reachable());
  const std::set<std::vector<bool>> stable_symbolic(
      stable_symbolic_list.begin(), stable_symbolic_list.end());
  if (stable_symbolic != stable_explicit) {
    std::ostringstream os;
    os << "stable-reachable sets differ (symbolic " << stable_symbolic.size()
       << ", explicit " << stable_explicit.size() << "): "
       << oracle_detail::first_difference<std::set<std::vector<bool>>>(
              stable_symbolic, stable_explicit,
              +[](const std::vector<bool>& s) { return oracle_detail::bits(s); });
    return os.str();
  }
  return {};
}

// --- explicit CSSG extraction ---------------------------------------------

/// The explicit CSSG as Cssg::extract_explicit built it before packed rows:
/// every state a std::vector<bool>, every edge carrying its own pattern.
struct OracleExplicitCssg {
  struct Edge {
    std::vector<bool> pattern;  ///< input values applied, like inputs()
    std::uint32_t to = 0;       ///< successor state id
  };
  std::vector<std::vector<bool>> states;
  std::vector<std::vector<Edge>> edges;
  std::vector<std::uint32_t> reset_ids;
};

/// SymbolicEncoding::all_states_cur as it was: enumerate over the cur
/// variables in level order, move each position to its signal, then sort
/// the vectors into signal order.
inline std::vector<std::vector<bool>> oracle_all_states_cur(
    const SymbolicEncoding& enc, const Bdd& set) {
  std::vector<std::pair<std::uint32_t, SignalId>> order;
  for (SignalId s = 0; s < enc.num_signals(); ++s)
    order.emplace_back(enc.mgr().level_of(enc.cur_var(s)), s);
  std::sort(order.begin(), order.end());
  std::vector<std::uint32_t> vars;
  for (const auto& [level, s] : order) vars.push_back(enc.cur_var(s));
  std::vector<std::vector<bool>> out;
  for (const auto& assignment : enc.mgr().all_minterms(set, vars)) {
    std::vector<bool> state(order.size());
    for (std::size_t pos = 0; pos < order.size(); ++pos)
      state[order[pos].second] = assignment[pos];
    out.push_back(std::move(state));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Cssg::extract_explicit as it was: depth-first from the reset states
/// (ring 0 of the onion rings), successors in signal order, each edge's
/// pattern the input values of its target.
inline OracleExplicitCssg oracle_extract_explicit(const Cssg& cssg) {
  const SymbolicEncoding& enc = cssg.encoding();
  OracleExplicitCssg graph;
  std::unordered_map<std::vector<StateWord>, std::uint32_t, StateWordsHash>
      index;
  const auto add_state = [&](const std::vector<bool>& state) {
    const auto id = static_cast<std::uint32_t>(graph.states.size());
    const auto [it, fresh] = index.try_emplace(pack_state(state), id);
    if (!fresh) return std::pair{it->second, false};
    graph.states.push_back(state);
    graph.edges.emplace_back();
    return std::pair{id, true};
  };
  for (const auto& reset : oracle_all_states_cur(enc, cssg.rings().front()))
    graph.reset_ids.push_back(add_state(reset).first);
  std::vector<std::uint32_t> worklist = graph.reset_ids;
  while (!worklist.empty()) {
    const std::uint32_t id = worklist.back();
    worklist.pop_back();
    const Bdd succs = cssg.image(enc.state_minterm_cur(graph.states[id]));
    for (const auto& succ : oracle_all_states_cur(enc, succs)) {
      const auto [to, fresh] = add_state(succ);
      std::vector<bool> pattern;
      for (const SignalId in : enc.netlist().inputs())
        pattern.push_back(succ[in]);
      graph.edges[id].push_back({std::move(pattern), to});
      if (fresh) worklist.push_back(to);
    }
  }
  return graph;
}

/// Diff a packed extraction against the oracle's, id for id: the same
/// states in id order, the reset as state 0, the same successor lists in the
/// same order, inputs[to] equal to each oracle edge's pattern, and an index
/// that finds every state under its id.  Returns "" on a perfect match,
/// else a one-line description of the first divergence.
inline std::string explicit_oracle_mismatch(const ExplicitCssg& graph,
                                            const OracleExplicitCssg& oracle) {
  using oracle_detail::bits;
  std::ostringstream os;
  if (graph.states.size() != oracle.states.size()) {
    os << "state counts differ (packed " << graph.states.size() << ", oracle "
       << oracle.states.size() << ")";
    return os.str();
  }
  if (graph.inputs.size() != graph.states.size() ||
      graph.edges.size() != graph.states.size() ||
      graph.index.size() != graph.states.size())
    return "packed inputs, edges or index not one per state";
  if (oracle.reset_ids != std::vector<std::uint32_t>{0})
    return "the oracle's reset is not state 0";
  for (std::uint32_t id = 0; id < graph.states.size(); ++id) {
    if (graph.states[id] != oracle.states[id]) {
      os << "state " << id << " is " << bits(graph.states[id]) << ", oracle "
         << bits(oracle.states[id]);
      return os.str();
    }
    if (graph.find(graph.states[id]) != std::optional<std::uint32_t>(id)) {
      os << "index does not find state " << id;
      return os.str();
    }
    const auto& got = graph.edges[id];
    const auto& want = oracle.edges[id];
    if (got.size() != want.size()) {
      os << "state " << id << " has " << got.size() << " successors, oracle "
         << want.size();
      return os.str();
    }
    for (std::size_t j = 0; j < got.size(); ++j) {
      if (got[j] != want[j].to) {
        os << "successor " << j << " of state " << id << " is " << got[j]
           << ", oracle " << want[j].to;
        return os.str();
      }
      if (graph.inputs[got[j]] != want[j].pattern) {
        os << "edge " << id << " -> " << got[j] << " applies "
           << bits(graph.inputs[got[j]]) << ", oracle "
           << bits(want[j].pattern);
        return os.str();
      }
    }
  }
  return {};
}

/// Check LazyCssg's rank reads on state `id` against its list in `eager`,
/// the extracted graph, where the state is `eager_id`: successor_count is
/// the list's size; for each of `ranks`, successor_at names the state of
/// the list's entry at that rank and successor_applying its input vector
/// names it too; and a vector no edge out of the state applies gives none:
/// the state's own inputs (R_I flips at least one input), a vector of the
/// wrong width, and, up to four inputs, every vector missing from the
/// list.  The reads answer from the BDD while id's list is unbuilt and read
/// the list once it is built.  Returns the first mismatch as text, "" when
/// none.
inline std::string rank_read_mismatch(LazyCssg& lazy, std::uint32_t id,
                                      const ExplicitCssg& eager,
                                      std::uint32_t eager_id,
                                      const std::vector<std::uint64_t>& ranks) {
  using oracle_detail::bits;
  const ExplicitCssg& graph = lazy.graph();
  const std::vector<std::uint32_t>& want = eager.edges[eager_id];
  std::ostringstream os;
  os << "state " << bits(graph.states[id]) << ": ";
  if (lazy.successor_count(id) != want.size()) {
    os << "successor_count " << lazy.successor_count(id) << ", list size "
       << want.size();
    return os.str();
  }
  const auto applies = [&](const std::vector<bool>& inputs,
                           std::optional<std::uint32_t> to) {
    const auto got = lazy.successor_applying(id, inputs);
    if (got == to) return true;
    os << "successor_applying(" << bits(inputs) << ") is "
       << (got ? bits(graph.states[*got]) : "none") << ", list "
       << (to ? bits(graph.states[*to]) : "none");
    return false;
  };
  for (const std::uint64_t rank : ranks) {
    const std::uint32_t to = lazy.successor_at(id, rank);
    const std::uint32_t entry = want[rank];
    if (graph.states[to] != eager.states[entry]) {
      os << "successor_at(" << rank << ") is " << bits(graph.states[to])
         << ", list entry " << bits(eager.states[entry]);
      return os.str();
    }
    if (!applies(eager.inputs[entry], to)) return os.str();
  }
  std::vector<bool> wider = graph.inputs[id];
  wider.push_back(false);
  if (!applies(graph.inputs[id], std::nullopt) ||
      !applies(wider, std::nullopt))
    return os.str();
  const std::size_t m = graph.inputs[id].size();
  if (m > 4) return {};
  for (std::uint32_t p = 0; p < (1u << m); ++p) {
    std::vector<bool> inputs(m);
    for (std::size_t i = 0; i < m; ++i) inputs[i] = ((p >> i) & 1) != 0;
    const bool listed =
        std::any_of(want.begin(), want.end(), [&](std::uint32_t entry) {
          return eager.inputs[entry] == inputs;
        });
    if (!listed && !applies(inputs, std::nullopt)) return os.str();
  }
  return {};
}

// --- TCR_k over whole source states ---------------------------------------

/// CSSG_k and its statistics as the pair loop derives them.
struct OracleTcr {
  Bdd reached;      ///< the TCSG states, by BFS over R_I ∪ R_delta
  Bdd relation;     ///< CSSG_k, on the Cssg's own manager
  CssgStats stats;  ///< every field but peak_bdd_nodes and traversal_iterations
};

/// R_I as Cssg::build_relations builds it: on a stable state some
/// non-empty set of inputs flips, gates held.
inline Bdd oracle_r_input(const SymbolicEncoding& enc) {
  BddManager& mgr = enc.mgr();
  Bdd gates_eq = mgr.bdd_true();
  Bdd inputs_eq = mgr.bdd_true();
  for (SignalId s = 0; s < enc.num_signals(); ++s) {
    if (enc.netlist().is_input(s)) {
      inputs_eq &= enc.eq_cur_next(s);
    } else {
      gates_eq &= enc.eq_cur_next(s);
    }
  }
  return enc.stable() & gates_eq & !inputs_eq;
}

/// Cssg's traversal, TCR_k loop and sibling analysis as they ran before
/// the traversal chained its firings and the loop iterated over the
/// source's gate values: a BFS over R_I ∪ R_delta, then A(x, y) over whole
/// source states x, starting from R_I AND SR(x).  Runs on `cssg`'s own
/// manager, so its sets and relation compare handle for handle, from the
/// reset states (ring 0) over the Cssg's R_delta, with R_I rebuilt from
/// the encoding.
inline OracleTcr oracle_tcr_and_prune(const Cssg& cssg) {
  const SymbolicEncoding& enc = cssg.encoding();
  BddManager& mgr = enc.mgr();
  const auto n_signals = static_cast<std::int64_t>(enc.num_signals());
  OracleTcr out;
  const Bdd r_input = oracle_r_input(enc);

  // TCSG reachability over R_I ∪ R_delta.
  const Bdd reset = cssg.rings().front();
  const Bdd cur_cube = enc.cur_cube();
  const Bdd step_relation = r_input | cssg.r_delta();
  Bdd reached = reset;
  Bdd frontier = reset;
  while (!frontier.is_false()) {
    frontier = enc.next_to_cur(mgr.and_exists(step_relation, frontier,
                                              cur_cube)) &
               !reached;
    reached |= frontier;
  }
  out.reached = reached;
  const Bdd stable_reachable = reached & enc.stable();
  out.stats.reachable_states = enc.count_states_cur(reached);
  out.stats.stable_states = enc.count_states_cur(stable_reachable);

  // A(x, y): y reachable from stable reachable x by one input pattern and
  // j gate transitions (stable y persists via R_delta self-loops).
  Bdd a = r_input & stable_reachable;
  // R_delta with present-state renamed to the aux group: Rd(w, y).
  const Bdd r_delta_wy = enc.cur_to_aux(cssg.r_delta());
  const Bdd aux_cube = enc.aux_cube();
  for (std::size_t step = 0; step < cssg.options().k; ++step) {
    ++out.stats.tcr_steps;
    const Bdd a_xw = enc.next_to_aux(a);
    const Bdd a_next = mgr.and_exists(a_xw, r_delta_wy, aux_cube);
    if (a_next == a) break;  // all trajectories settled early
    a = a_next;
  }
  const Bdd tcr = a;
  out.stats.tcr_pairs = mgr.sat_count(tcr, mgr.num_vars(), n_signals);

  // Sibling analysis: compare the outcome y against every other k-step
  // outcome w of the same source state x and the same input pattern.
  const Bdd a_xw = enc.next_to_aux(tcr);
  Bdd eq_inputs_yw = mgr.bdd_true();
  Bdd eq_all_yw = mgr.bdd_true();
  for (SignalId s = 0; s < enc.num_signals(); ++s) {
    const Bdd eq_s = !(enc.next(s) ^ enc.aux(s));
    eq_all_yw &= eq_s;
    if (enc.netlist().is_input(s)) eq_inputs_yw &= eq_s;
  }
  const Bdd stable_w = enc.cur_to_aux(enc.stable());

  // Non-confluence: a distinct sibling outcome under the same pattern.
  const Bdd nonconf =
      tcr & mgr.and_exists(a_xw, eq_inputs_yw & !eq_all_yw, aux_cube);
  // Oscillation / late settling: an unstable sibling under the same pattern
  // (covers y itself being unstable).
  const Bdd unstable =
      tcr & mgr.and_exists(a_xw, eq_inputs_yw & !stable_w, aux_cube);

  const Bdd stable_y = enc.cur_to_next(enc.stable());
  out.relation = tcr & stable_y & !nonconf & !unstable;

  out.stats.nonconfluent_pairs =
      mgr.sat_count(nonconf, mgr.num_vars(), n_signals);
  out.stats.unstable_pairs =
      mgr.sat_count(unstable & !nonconf, mgr.num_vars(), n_signals);
  out.stats.cssg_edges = mgr.sat_count(out.relation, mgr.num_vars(), n_signals);

  // Onion rings over CSSG_k: the states valid vectors reach.
  Bdd valid = reset;
  frontier = reset;
  while (!frontier.is_false()) {
    frontier = enc.next_to_cur(mgr.and_exists(out.relation, frontier,
                                              cur_cube)) &
               !valid;
    valid |= frontier;
  }
  out.stats.cssg_reachable_states = enc.count_states_cur(valid);
  return out;
}

/// Diff `cssg` against oracle_tcr_and_prune: the TCSG states and CSSG_k
/// handle for handle, and every CssgStats field but peak_bdd_nodes and
/// traversal_iterations (the chained traversal counts rounds, the BFS
/// levels).  Returns "" on a perfect match, else a one-line description of
/// the first divergence.
inline std::string tcr_oracle_mismatch(const Cssg& cssg) {
  const OracleTcr oracle = oracle_tcr_and_prune(cssg);
  if (cssg.reachable() != oracle.reached)
    return "the TCSG states are not the BFS closure's";
  const CssgStats& got = cssg.stats();
  const CssgStats& want = oracle.stats;
  const std::pair<const char*, std::pair<double, double>> fields[] = {
      {"reachable_states", {got.reachable_states, want.reachable_states}},
      {"stable_states", {got.stable_states, want.stable_states}},
      {"tcr_pairs", {got.tcr_pairs, want.tcr_pairs}},
      {"nonconfluent_pairs", {got.nonconfluent_pairs, want.nonconfluent_pairs}},
      {"unstable_pairs", {got.unstable_pairs, want.unstable_pairs}},
      {"cssg_edges", {got.cssg_edges, want.cssg_edges}},
      {"cssg_reachable_states",
       {got.cssg_reachable_states, want.cssg_reachable_states}},
      {"tcr_steps",
       {static_cast<double>(got.tcr_steps),
        static_cast<double>(want.tcr_steps)}}};
  std::ostringstream os;
  for (const auto& [name, values] : fields) {
    if (values.first != values.second) {
      os << name << " is " << values.first << ", pair loop "
         << values.second;
      return os.str();
    }
  }
  if (cssg.relation() != oracle.relation)
    return "CSSG_k is not the pair loop's relation";
  return {};
}

/// Cssg::test_mode_reachable as it ran before the closure chained its
/// firings: a BFS from the CSSG-reachable states over ValidRI ∪ R_delta,
/// where ValidRI is the R_I step whose pattern matches some CSSG edge out
/// of its source.  On `cssg`'s own manager, so it compares handle for
/// handle.
inline Bdd oracle_test_mode_reachable(const Cssg& cssg) {
  const SymbolicEncoding& enc = cssg.encoding();
  BddManager& mgr = enc.mgr();

  // ValidRI(x, z): input step of R_I whose pattern matches some CSSG edge
  // out of x (i.e. the tester is allowed to apply it).
  Bdd eq_inputs_zy = mgr.bdd_true();  // next(z) group vs aux(y) group
  for (SignalId s = 0; s < enc.num_signals(); ++s)
    if (enc.netlist().is_input(s))
      eq_inputs_zy &= !(enc.next(s) ^ enc.aux(s));
  const Bdd cssg_xw = enc.next_to_aux(cssg.relation());
  const Bdd valid_ri = oracle_r_input(enc) &
                       mgr.and_exists(cssg_xw, eq_inputs_zy, enc.aux_cube());

  // Closure of the CSSG-reachable stable states under ValidRI and R_delta.
  const Bdd cur_cube = enc.cur_cube();
  const Bdd relation = valid_ri | cssg.r_delta();
  Bdd reached = cssg.cssg_reachable();
  Bdd frontier = reached;
  while (!frontier.is_false()) {
    const Bdd img = enc.next_to_cur(
        mgr.and_exists(relation, frontier, cur_cube));
    frontier = img & !reached;
    reached |= frontier;
  }
  return reached;
}

/// All prime implicants of on ∪ dc (classic QM combining pass).  The
/// all-pairs Quine–McCluskey that prime_implicants() replaced; it walks the
/// whole implicant lattice of on ∪ dc, so callers keep nvars small.
inline std::vector<MinCube> oracle_prime_implicants(
    const std::vector<std::uint32_t>& on, const std::vector<std::uint32_t>& dc,
    unsigned nvars) {
  XATPG_CHECK(nvars <= 32);
  const std::uint32_t full_care =
      nvars == 32 ? ~0u : ((1u << nvars) - 1);

  std::set<MinCube> current;
  for (const std::uint32_t m : on) current.insert(MinCube{full_care, m});
  for (const std::uint32_t m : dc) current.insert(MinCube{full_care, m});

  std::vector<MinCube> primes;
  while (!current.empty()) {
    std::set<MinCube> combined;
    std::set<MinCube> used;
    // Two cubes combine when they have identical care sets and differ in
    // exactly one cared bit.
    std::vector<MinCube> cubes(current.begin(), current.end());
    for (std::size_t i = 0; i < cubes.size(); ++i) {
      for (std::size_t j = i + 1; j < cubes.size(); ++j) {
        if (cubes[i].care != cubes[j].care) continue;
        const std::uint32_t diff = cubes[i].value ^ cubes[j].value;
        if (__builtin_popcount(diff) != 1) continue;
        combined.insert(MinCube{cubes[i].care & ~diff,
                                cubes[i].value & ~diff});
        used.insert(cubes[i]);
        used.insert(cubes[j]);
      }
    }
    for (const MinCube& c : cubes)
      if (!used.count(c)) primes.push_back(c);
    current = std::move(combined);
  }
  // Deduplicate and drop primes contained in other primes (can appear when
  // combining across different care patterns is impossible but containment
  // still holds through don't-cares).
  std::sort(primes.begin(), primes.end());
  primes.erase(std::unique(primes.begin(), primes.end()), primes.end());
  std::vector<MinCube> out;
  for (const MinCube& c : primes) {
    bool dominated = false;
    for (const MinCube& d : primes)
      if (!(d == c) && d.contains(c)) {
        dominated = true;
        break;
      }
    if (!dominated) out.push_back(c);
  }
  return out;
}

/// Greedy minimum cover of `on` by primes of on ∪ dc (essential primes
/// first, then largest-gain / fewest-literal cubes) — minimize_sop() as it
/// was over oracle_prime_implicants().
inline std::vector<MinCube> oracle_minimize_sop(
    const std::vector<std::uint32_t>& on, const std::vector<std::uint32_t>& dc,
    unsigned nvars) {
  if (on.empty()) return {};
  const auto primes = oracle_prime_implicants(on, dc, nvars);

  // Greedy set cover over the on-set.
  std::vector<std::uint32_t> uncovered = on;
  std::sort(uncovered.begin(), uncovered.end());
  uncovered.erase(std::unique(uncovered.begin(), uncovered.end()),
                  uncovered.end());
  std::vector<MinCube> cover;
  std::vector<bool> prime_used(primes.size(), false);

  // Essential primes first: an on-minterm covered by exactly one prime.
  for (const std::uint32_t m : uncovered) {
    int only = -1, count = 0;
    for (std::size_t p = 0; p < primes.size(); ++p)
      if (primes[p].covers_minterm(m)) {
        ++count;
        only = static_cast<int>(p);
      }
    XATPG_CHECK_MSG(count > 0, "on-minterm not covered by any prime");
    if (count == 1 && !prime_used[only]) {
      prime_used[only] = true;
      cover.push_back(primes[only]);
    }
  }
  const auto strip_covered = [&] {
    uncovered.erase(std::remove_if(uncovered.begin(), uncovered.end(),
                                   [&](std::uint32_t m) {
                                     return cover_eval(cover, m);
                                   }),
                    uncovered.end());
  };
  strip_covered();

  while (!uncovered.empty()) {
    std::size_t best = primes.size();
    long best_gain = -1;
    for (std::size_t p = 0; p < primes.size(); ++p) {
      if (prime_used[p]) continue;
      long gain = 0;
      for (const std::uint32_t m : uncovered)
        if (primes[p].covers_minterm(m)) ++gain;
      // Prefer more coverage; tie-break on fewer literals (bigger cube).
      gain = gain * 64 - primes[p].num_literals();
      if (gain > best_gain) {
        best_gain = gain;
        best = p;
      }
    }
    XATPG_CHECK(best < primes.size());
    prime_used[best] = true;
    cover.push_back(primes[best]);
    strip_covered();
  }

  // Irredundancy pass: drop cubes whose on-minterms are covered elsewhere.
  for (std::size_t i = cover.size(); i-- > 0;) {
    std::vector<MinCube> without = cover;
    without.erase(without.begin() + static_cast<long>(i));
    bool redundant = true;
    for (const std::uint32_t m : on)
      if (!cover_eval(without, m)) {
        redundant = false;
        break;
      }
    if (redundant) cover = std::move(without);
  }
  return cover;
}

// --- random TPG -----------------------------------------------------------

/// AtpgEngine's random walks as it drew them over whole successor lists:
/// each step reads the state's list from `graph` (an extracted graph) and
/// takes the entry at a rank drawn below its size.  A walk is the ids of
/// `graph` it visits from reset, one per vector.
inline std::vector<std::vector<std::uint32_t>> oracle_random_walks(
    const ExplicitCssg& graph, const AtpgOptions& options) {
  std::vector<std::vector<std::uint32_t>> walks;
  if (graph.edges[0].empty()) return walks;
  Rng rng(options.seed);
  std::size_t budget = options.random_budget;
  while (budget > 0) {
    std::vector<std::uint32_t>& walk = walks.emplace_back();
    std::uint32_t id = 0;
    for (std::size_t step = 0; step < options.random_walk_len && budget > 0;
         ++step) {
      const auto& succs = graph.edges[id];
      if (succs.empty()) break;
      id = succs[rng.below(succs.size())];
      --budget;
      walk.push_back(id);
    }
  }
  return walks;
}

/// What the random phase commits: the walks that detect some fault first,
/// each fault's sequence index (-1 when no walk detects it), and the
/// on_fault_resolved order.
struct OracleRandomTpg {
  std::vector<TestSequence> sequences;
  std::vector<int> sequence_index;
  std::vector<std::size_t> resolved;
  std::size_t by_random = 0;
};

/// The random phase as AtpgEngine::run_universe ran it: walk by walk, every
/// simulator reset per walk and every undetermined fault stepped per
/// vector, the walk committed when it detects some fault, and the loop
/// stopped once every fault is covered.
inline OracleRandomTpg oracle_random_tpg(const Netlist& netlist,
                                         const std::vector<bool>& reset_state,
                                         const ExplicitCssg& graph,
                                         const std::vector<Fault>& faults,
                                         const AtpgOptions& options) {
  OracleRandomTpg out;
  out.sequence_index.assign(faults.size(), -1);
  const auto reset_id = graph.find(reset_state);
  XATPG_CHECK(reset_id.has_value());
  std::vector<std::unique_ptr<FaultSimulator>> sims;
  for (const Fault& f : faults)
    sims.push_back(std::make_unique<FaultSimulator>(netlist, f, reset_state,
                                                    options.sim));
  Rng rng(options.seed);
  std::size_t budget = options.random_budget;
  while (budget > 0) {
    if (graph.edges[*reset_id].empty()) break;
    for (auto& sim : sims) sim->reset();
    TestSequence walk;
    std::uint32_t good_id = *reset_id;
    std::vector<std::size_t> walk_resolved;
    for (std::size_t step = 0; step < options.random_walk_len && budget > 0;
         ++step) {
      const auto& succs = graph.edges[good_id];
      if (succs.empty()) break;
      const std::uint32_t to = succs[rng.below(succs.size())];
      --budget;
      walk.vectors.push_back(graph.inputs[to]);
      for (std::size_t i = 0; i < sims.size(); ++i) {
        if (out.sequence_index[i] >= 0) continue;
        if (sims[i]->status() != DetectStatus::Undetermined) continue;
        if (sims[i]->step(graph.inputs[to], graph.states[to]) ==
            DetectStatus::Detected) {
          out.sequence_index[i] = static_cast<int>(out.sequences.size());
          ++out.by_random;
          walk_resolved.push_back(i);
        }
      }
      good_id = to;
    }
    if (!walk_resolved.empty()) {
      out.sequences.push_back(walk);
      out.resolved.insert(out.resolved.end(), walk_resolved.begin(),
                          walk_resolved.end());
    }
    if (out.by_random == faults.size()) break;
  }
  return out;
}

}  // namespace xatpg::testing
