// Randomized differential tests: the symbolic pipeline against the explicit
// enumerator, and the full ATPG engine against itself across every variable
// -ordering configuration.
//
// Two oracles pin the symbolic machinery:
//  1. The explicit race explorer (src/sim/explicit) re-derives the CSSG by
//     brute force — BFS over valid vectors, every settling exhaustively
//     interleaved — and the symbolic CSSG's state and edge sets must match
//     it exactly, for every static variable order and with dynamic
//     reordering enabled.
//  2. AtpgEngine::run is a pure function of (netlist, reset, fault list,
//     seed): all VarOrder modes x reorder on/off x threads {1, 4} must
//     produce byte-identical outcomes, sequences and phase counters.  This
//     is what licenses dynamic reordering in the fault-parallel engine —
//     the manager's order may change wildly mid-run, and it must be
//     invisible.
#include <gtest/gtest.h>

#include "atpg/engine.hpp"
#include "atpg/fault.hpp"
#include "fixtures.hpp"
#include "oracle.hpp"
#include "sgraph/cssg.hpp"

namespace xatpg {
namespace {

using testing::OracleCssg;
using testing::cssg_oracle_mismatch;
using testing::oracle_cssg;

constexpr std::size_t kSettle = 20;

/// Aggressive policy so reordering actually fires on these small circuits.
ReorderPolicy test_reorder_policy() {
  ReorderPolicy policy;
  policy.enabled = true;
  policy.trigger_nodes = 256;
  return policy;
}

const std::vector<VarOrder>& all_orders() {
  static const std::vector<VarOrder> orders{
      VarOrder::Interleaved, VarOrder::Blocked, VarOrder::ReverseInterleaved,
      VarOrder::Sifted};
  return orders;
}

// --- CSSG vs the explicit enumerator ------------------------------------------
// The oracle itself (OracleCssg, oracle_cssg, cssg_oracle_mismatch) lives in
// tests/oracle.hpp, shared with the structural fuzzer harness.

void expect_cssg_matches_oracle(const Netlist& netlist,
                                const std::vector<bool>& reset,
                                const OracleCssg& oracle, VarOrder order) {
  SCOPED_TRACE(std::string("order=") + var_order_name(order));
  CssgOptions options;
  options.k = kSettle;
  options.order = order;
  options.reorder = test_reorder_policy();
  EXPECT_EQ(std::string(),
            cssg_oracle_mismatch(netlist, reset, oracle, options));
}

class CssgDifferential
    : public ::testing::TestWithParam<std::pair<const char*,
                                                fixtures::Circuit (*)()>> {};

TEST_P(CssgDifferential, SymbolicMatchesExplicitForEveryOrder) {
  const fixtures::Circuit fix = GetParam().second();
  const OracleCssg oracle = oracle_cssg(fix.netlist, fix.reset, kSettle);
  ASSERT_FALSE(oracle.states.empty());
  for (const VarOrder order : all_orders())
    expect_cssg_matches_oracle(fix.netlist, fix.reset, oracle, order);
}

INSTANTIATE_TEST_SUITE_P(
    Fixtures, CssgDifferential,
    ::testing::Values(std::pair{"fig1a", &fixtures::fig1a},
                      std::pair{"fig1b", &fixtures::fig1b},
                      std::pair{"celem", &fixtures::celem},
                      std::pair{"latch", &fixtures::async_latch},
                      std::pair{"pipeline2", &fixtures::pipeline2}),
    [](const auto& param_info) { return std::string(param_info.param.first); });

class RandomCssgDifferential : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomCssgDifferential, SymbolicMatchesExplicitForEveryOrder) {
  fixtures::RandomNetlistOptions options;
  options.num_inputs = 3;
  options.num_gates = 6;
  const fixtures::Circuit fix =
      fixtures::random_netlist(GetParam(), options);
  const OracleCssg oracle = oracle_cssg(fix.netlist, fix.reset, kSettle);
  ASSERT_FALSE(oracle.states.empty());
  for (const VarOrder order : all_orders())
    expect_cssg_matches_oracle(fix.netlist, fix.reset, oracle, order);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCssgDifferential,
                         ::testing::Values(3u, 7u, 11u, 19u, 23u));

// --- engine invariance across ordering configurations -------------------------

AtpgOptions engine_options(VarOrder order, bool reorder, std::size_t threads) {
  AtpgOptions options;
  options.order = order;
  options.random_budget = 24;
  options.random_walk_len = 6;
  options.seed = 5;
  options.threads = threads;
  if (reorder) options.reorder = test_reorder_policy();
  return options;
}

void expect_identical(const AtpgResult& base, const AtpgResult& other,
                      const std::string& config) {
  SCOPED_TRACE(config);
  EXPECT_EQ(base.outcomes, other.outcomes);
  EXPECT_EQ(base.sequences, other.sequences);
  EXPECT_EQ(base.stats.by_random, other.stats.by_random);
  EXPECT_EQ(base.stats.by_three_phase, other.stats.by_three_phase);
  EXPECT_EQ(base.stats.by_fault_sim, other.stats.by_fault_sim);
  EXPECT_EQ(base.stats.covered, other.stats.covered);
  EXPECT_EQ(base.stats.undetected, other.stats.undetected);
  EXPECT_EQ(base.stats.proven_redundant, other.stats.proven_redundant);
}

void check_engine_invariance(const Netlist& netlist,
                             const std::vector<bool>& reset,
                             const std::string& name, bool classify = false) {
  const auto faults = input_stuck_faults(netlist);
  std::optional<AtpgResult> base;
  for (const VarOrder order : all_orders()) {
    for (const bool reorder : {false, true}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        AtpgOptions options = engine_options(order, reorder, threads);
        options.classify_undetectable = classify;
        AtpgEngine engine(netlist, reset, options);
        const AtpgResult result = engine.run(faults);
        const std::string config = name + " order=" +
                                   var_order_name(order) +
                                   " reorder=" + (reorder ? "on" : "off") +
                                   " threads=" + std::to_string(threads);
        if (!base) {
          base = result;
          // The baseline must be meaningful, not vacuous.
          EXPECT_GT(base->stats.total_faults, 0u) << config;
        } else {
          expect_identical(*base, result, config);
        }
      }
    }
  }
}

TEST(EngineDifferential, Fig1aInvariantAcrossConfigs) {
  const fixtures::Circuit c = fixtures::fig1a();
  check_engine_invariance(c.netlist, c.reset, "fig1a");
}

TEST(EngineDifferential, Pipeline2InvariantAcrossConfigs) {
  const fixtures::Circuit c = fixtures::pipeline2();
  check_engine_invariance(c.netlist, c.reset, "pipeline2");
}

TEST(EngineDifferential, Pipeline2WithClassifierInvariant) {
  const fixtures::Circuit c = fixtures::pipeline2();
  check_engine_invariance(c.netlist, c.reset, "pipeline2+classify",
                          /*classify=*/true);
}

TEST(EngineDifferential, RandomNetlistsInvariantAcrossConfigs) {
  for (const std::uint64_t seed : {7u, 19u}) {
    fixtures::RandomNetlistOptions options;
    options.num_inputs = 3;
    options.num_gates = 6;
    const fixtures::Circuit c = fixtures::random_netlist(seed, options);
    check_engine_invariance(c.netlist, c.reset,
                            "random" + std::to_string(seed));
  }
}

}  // namespace
}  // namespace xatpg
