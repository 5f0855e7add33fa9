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
// All-pairs Quine–McCluskey over on ∪ dc, the synthesis layer's former
// prime generator, kept as the reference for the off-set multiply-out in
// src/synth/cover.cpp (tests/test_synth.cpp, tests/fuzz/fuzz_cover.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "netlist/netlist.hpp"
#include "sgraph/cssg.hpp"
#include "sim/explicit.hpp"
#include "synth/cover.hpp"
#include "util/check.hpp"

namespace xatpg::testing {

struct OracleCssg {
  std::set<std::vector<bool>> states;
  // (from state, input pattern, to state)
  std::set<std::tuple<std::vector<bool>, std::vector<bool>, std::vector<bool>>>
      edges;
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
          explore_settling(netlist, state, pattern, k);
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
  const Cssg cssg(netlist, {reset}, options);
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

  using Edge =
      std::tuple<std::vector<bool>, std::vector<bool>, std::vector<bool>>;
  std::set<Edge> edges;
  for (std::uint32_t id = 0; id < graph.states.size(); ++id)
    for (const auto& edge : graph.edges[id])
      edges.insert({graph.states[id], edge.pattern, graph.states[edge.to]});
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
      explicit_stable_reachable(netlist, reset, options.k);
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

}  // namespace xatpg::testing
