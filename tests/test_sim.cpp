#include <gtest/gtest.h>

#include "fixtures.hpp"
#include "netlist/netlist.hpp"
#include "oracle.hpp"
#include "sim/explicit.hpp"
#include "sim/parallel.hpp"
#include "sim/ternary.hpp"
#include "util/strings.hpp"

namespace xatpg {
namespace {

using fixtures::Circuit;

TEST(TernaryAlgebra, TruthTables) {
  using T = Ternary;
  EXPECT_EQ(ternary_and(T::V1, T::V1), T::V1);
  EXPECT_EQ(ternary_and(T::V0, T::X), T::V0);  // 0 dominates
  EXPECT_EQ(ternary_and(T::X, T::V1), T::X);
  EXPECT_EQ(ternary_or(T::V1, T::X), T::V1);  // 1 dominates
  EXPECT_EQ(ternary_or(T::V0, T::X), T::X);
  EXPECT_EQ(ternary_not(T::X), T::X);
  EXPECT_EQ(ternary_not(T::V0), T::V1);
  EXPECT_EQ(ternary_lub(T::V0, T::V0), T::V0);
  EXPECT_EQ(ternary_lub(T::V0, T::V1), T::X);
  EXPECT_EQ(ternary_lub(T::X, T::V1), T::X);
}

TEST(TernarySimTest, StableInputNoChangeStaysStable) {
  const Circuit fix = fixtures::chain();
  const Netlist& n = fix.netlist;
  const std::vector<bool>& st = fix.reset;  // A=0, n=1, y=0
  ASSERT_TRUE(n.is_stable_state(st));
  TernarySim sim(n);
  const auto result = sim.settle(st, {false});
  EXPECT_TRUE(result.confluent);
  EXPECT_EQ(result.final_state(), st);
}

TEST(TernarySimTest, CombinationalChainSettles) {
  const Circuit fix = fixtures::chain();
  const Netlist& n = fix.netlist;
  TernarySim sim(n);
  const auto result = sim.settle(fix.reset, {true});
  ASSERT_TRUE(result.confluent);
  const auto fin = result.final_state();
  EXPECT_TRUE(fin[n.signal("A")]);
  EXPECT_FALSE(fin[n.signal("n")]);
  EXPECT_TRUE(fin[n.signal("y")]);
}

TEST(TernarySimTest, DetectsNonConfluenceInFig1a) {
  const Circuit fix = fixtures::fig1a();
  const Netlist& n = fix.netlist;
  TernarySim sim(n);
  // Apply AB = 10: a rising races b falling; y may or may not latch.
  const auto result = sim.settle(fix.reset, {true, false});
  EXPECT_FALSE(result.confluent);
  // The racing signal y must be marked unknown.
  EXPECT_EQ(result.state[n.signal("y")], Ternary::X);
}

TEST(TernarySimTest, Fig1aSafeVectorIsConfluent) {
  const Circuit fix = fixtures::fig1a();
  const Netlist& n = fix.netlist;
  TernarySim sim(n);
  // Raising only A (B stays 1) makes c rise and latch y deterministically.
  const auto result = sim.settle(fix.reset, {true, true});
  ASSERT_TRUE(result.confluent);
  const auto fin = result.final_state();
  EXPECT_TRUE(fin[n.signal("c")]);
  EXPECT_TRUE(fin[n.signal("y")]);
}

TEST(TernarySimTest, DetectsOscillationInFig1b) {
  const Circuit fix = fixtures::fig1b();
  const Netlist& n = fix.netlist;
  TernarySim sim(n);
  // Raising A with B=0 starts the c/d oscillation.
  const auto result = sim.settle(fix.reset, {true, false});
  EXPECT_FALSE(result.confluent);
  EXPECT_EQ(result.state[n.signal("c")], Ternary::X);
  EXPECT_EQ(result.state[n.signal("d")], Ternary::X);
}

TEST(TernarySimTest, Fig1bBreakingTheRingIsConfluent) {
  const Circuit fix = fixtures::fig1b();
  const Netlist& n = fix.netlist;
  TernarySim sim(n);
  // Raising A and B together: d is held at 1 by b, c falls to !a = 0.
  const auto result = sim.settle(fix.reset, {true, true});
  ASSERT_TRUE(result.confluent);
  const auto fin = result.final_state();
  EXPECT_FALSE(fin[n.signal("c")]);
  EXPECT_TRUE(fin[n.signal("d")]);
}

TEST(TernarySimTest, SettleToStableHelper) {
  const Netlist n = parse_xnl_string(fixtures::kChainXnl);
  std::vector<bool> st(n.num_signals(), false);  // A=0,n=0,y=0: n excited
  EXPECT_TRUE(settle_to_stable(n, st));
  EXPECT_TRUE(st[n.signal("n")]);
  EXPECT_FALSE(st[n.signal("y")]);
  EXPECT_TRUE(n.is_stable_state(st));
}

// --- explicit exploration (the exact oracle) --------------------------------

TEST(ExplicitExplore, ConfluentVectorHasUniqueOutcome) {
  const Circuit fix = fixtures::fig1a();
  const auto result =
      explore_settling(fix.netlist, fix.reset, {true, true}, 20);
  EXPECT_TRUE(result.confluent());
  EXPECT_EQ(result.stable_states.size(), 1u);
  EXPECT_FALSE(result.exceeded_bound);
}

TEST(ExplicitExplore, RaceYieldsTwoStableStates) {
  const Circuit fix = fixtures::fig1a();
  const Netlist& n = fix.netlist;
  const auto result = explore_settling(n, fix.reset, {true, false}, 20);
  EXPECT_FALSE(result.confluent());
  // Exactly the two settlements the paper describes: y latched or not.
  EXPECT_EQ(result.stable_states.size(), 2u);
  bool saw_latched = false, saw_unlatched = false;
  for (const auto& st : result.stable_states) {
    if (st[n.signal("y")]) saw_latched = true;
    if (!st[n.signal("y")]) saw_unlatched = true;
  }
  EXPECT_TRUE(saw_latched);
  EXPECT_TRUE(saw_unlatched);
}

TEST(ExplicitExplore, OscillationExceedsBound) {
  const Circuit fix = fixtures::fig1b();
  const auto result =
      explore_settling(fix.netlist, fix.reset, {true, false}, 30);
  EXPECT_TRUE(result.exceeded_bound);
  EXPECT_FALSE(result.confluent());
}

TEST(ExplicitExplore, TernaryVsExplicitRelationship) {
  // Properties relating the conservative ternary analysis to the exact
  // bounded-interleaving explorer:
  //  (1) a genuine race (>= 2 distinct stable outcomes among interleavings)
  //      must be flagged by ternary simulation;
  //  (2) when ternary simulation resolves to a definite state, that state is
  //      the unique stable outcome of the exact explorer.
  // Note the explorer may additionally report exceeded_bound on *transient*
  // oscillations (unfair interleavings postponing an excited gate forever);
  // ternary simulation, which models finite gate delays, legitimately
  // resolves those — this is exactly the §2 "transient oscillation"
  // distinction, and why the CSSG (not ternary sim) is the vector-validity
  // arbiter in the ATPG flow.
  for (const Circuit& fix :
       {fixtures::fig1a(), fixtures::fig1b(), fixtures::chain()}) {
    const Netlist& n = fix.netlist;
    TernarySim sim(n);
    const std::size_t m = n.inputs().size();
    const auto stables = explicit_stable_reachable(n, fix.reset, 30);
    for (const auto& st : stables) {
      for (std::uint64_t bits = 0; bits < (1u << m); ++bits) {
        std::vector<bool> vec(m);
        bool same = true;
        for (std::size_t i = 0; i < m; ++i) {
          vec[i] = (bits >> i) & 1;
          same = same && (vec[i] == st[n.inputs()[i]]);
        }
        if (same) continue;
        const auto ternary = sim.settle(st, vec);
        const auto exact = explore_settling(n, st, vec, 50);
        if (exact.stable_states.size() >= 2) {
          EXPECT_FALSE(ternary.confluent)
              << n.name() << ": ternary missed a real race";
        }
        if (ternary.confluent) {
          ASSERT_EQ(exact.stable_states.size(), 1u)
              << n.name() << ": ternary definite but outcomes not unique";
          EXPECT_EQ(*exact.stable_states.begin(), ternary.final_state());
        }
      }
    }
  }
}

TEST(ExplicitExplore, StableReachableContainsReset) {
  const Circuit fix = fixtures::chain();
  const auto states = explicit_stable_reachable(fix.netlist, fix.reset, 20);
  EXPECT_TRUE(states.count(fix.reset));
  EXPECT_EQ(states.size(), 2u);  // A=0 and A=1 settlements
}

// --- packed kernel vs the set-based oracle ----------------------------------

constexpr std::size_t kBounds[] = {0, 1, 2, 24};

/// Settle (state, pattern) under both kernels at every bound in kBounds;
/// the stable sets and the bound flags must be equal.
void expect_kernel_matches_oracle(const Netlist& n,
                                  const std::vector<bool>& state,
                                  const std::vector<bool>& pattern) {
  for (const std::size_t k : kBounds) {
    const ExploreResult got = explore_settling(n, state, pattern, k);
    const ExploreResult want =
        testing::oracle_explore_settling(n, state, pattern, k);
    ASSERT_EQ(got.stable_states, want.stable_states)
        << n.name() << " k=" << k;
    ASSERT_EQ(got.exceeded_bound, want.exceeded_bound)
        << n.name() << " k=" << k;
  }
}

/// Every stable state × every input pattern × every bound.
void expect_kernel_matches_oracle_exhaustively(const Netlist& n) {
  ASSERT_LE(n.num_signals(), 16u);
  const std::size_t m = n.inputs().size();
  std::size_t stable_count = 0;
  for (std::uint64_t bits = 0; bits < (1ull << n.num_signals()); ++bits) {
    std::vector<bool> state(n.num_signals());
    for (SignalId s = 0; s < n.num_signals(); ++s) state[s] = (bits >> s) & 1;
    if (!n.is_stable_state(state)) continue;
    ++stable_count;
    for (std::uint64_t p = 0; p < (1ull << m); ++p) {
      std::vector<bool> pattern(m);
      for (std::size_t i = 0; i < m; ++i) pattern[i] = (p >> i) & 1;
      expect_kernel_matches_oracle(n, state, pattern);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GT(stable_count, 0u) << n.name();
}

TEST(PackedKernel, MatchesOracleOnFixtures) {
  for (const Circuit& fix :
       {fixtures::fig1a(), fixtures::fig1b(), fixtures::chain(),
        fixtures::celem(), fixtures::async_latch(), fixtures::pipeline2()}) {
    SCOPED_TRACE(fix.netlist.name());
    expect_kernel_matches_oracle_exhaustively(fix.netlist);
    if (HasFatalFailure()) return;
  }
}

TEST(PackedKernel, MatchesOracleOnRandomNetlists) {
  Rng rng(2024);
  std::size_t circuits = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    fixtures::RandomNetlistOptions options;
    options.num_inputs = 2 + rng.below(2);
    options.num_gates = 4 + rng.below(7);
    Circuit fix;
    try {
      fix = fixtures::random_netlist(seed, options);
    } catch (const CheckError&) {
      continue;  // the generator refuses seeds that do not settle
    }
    ++circuits;
    SCOPED_TRACE("random seed " + std::to_string(seed));
    expect_kernel_matches_oracle_exhaustively(fix.netlist);
    if (HasFatalFailure()) return;
  }
  EXPECT_GE(circuits, 30u);
}

TEST(PackedKernel, MatchesOracleOnMultiWordParityTree) {
  // 79 signals: states span two words, and gates sit on both sides of the
  // word boundary.
  const Circuit fix = fixtures::parity_tree(40);
  const Netlist& n = fix.netlist;
  ASSERT_GT(n.num_signals(), 64u);
  const std::size_t m = n.inputs().size();
  Rng rng(40);
  std::vector<bool> state = fix.reset;
  for (int trial = 0; trial < 24; ++trial) {
    // A random stable state, then a pattern flipping one to three inputs.
    for (const SignalId in : n.inputs()) state[in] = rng.flip();
    ASSERT_TRUE(settle_to_stable(n, state));
    std::vector<bool> pattern(m);
    for (std::size_t i = 0; i < m; ++i) pattern[i] = state[n.inputs()[i]];
    for (std::uint64_t flips = 1 + rng.below(3); flips > 0; --flips) {
      const std::size_t i = rng.below(m);
      pattern[i] = !pattern[i];
    }
    expect_kernel_matches_oracle(n, state, pattern);
    if (HasFatalFailure()) return;
  }
}

TEST(PackedKernel, MatchesOracleOnGatesWiderThanAWord) {
  // 70-input AND, XOR, SOP and gC gates: their fanin masks take two
  // chunks.
  Netlist n("wide");
  std::vector<SignalId> ins;
  for (int i = 0; i < 70; ++i)
    ins.push_back(n.add_input(indexed_name("i", i)));
  Cube low{std::vector<std::int8_t>(70, -1)};
  low.lits[3] = 1;
  low.lits[67] = 0;
  Cube high{std::vector<std::int8_t>(70, -1)};
  high.lits[66] = 1;
  high.lits[69] = 1;
  Cube reset{std::vector<std::int8_t>(70, -1)};
  reset.lits[0] = 0;
  reset.lits[65] = 0;
  n.set_output(n.add_gate(GateType::And, "a", ins));
  n.set_output(n.add_gate(GateType::Xor, "x", ins));
  n.set_output(n.add_sop("s", ins, {low, high}));
  n.set_output(n.add_gc("g", ins, {high}, {reset}));
  n.check_invariants();
  const std::size_t m = ins.size();
  Rng rng(70);
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<bool> state(n.num_signals(), false);
    for (const SignalId in : ins) state[in] = rng.below(4) != 0;
    state[n.signal("g")] = rng.flip();
    ASSERT_TRUE(settle_to_stable(n, state));
    std::vector<bool> pattern(m);
    for (std::size_t i = 0; i < m; ++i)
      pattern[i] = rng.below(8) == 0 ? !state[ins[i]] : state[ins[i]];
    expect_kernel_matches_oracle(n, state, pattern);
    if (HasFatalFailure()) return;
  }
}

TEST(PackedKernel, StableReachableMatchesOracle) {
  for (const Circuit& fix :
       {fixtures::fig1a(), fixtures::fig1b(), fixtures::chain(),
        fixtures::celem(), fixtures::async_latch(), fixtures::pipeline2()}) {
    for (const std::size_t k : kBounds)
      EXPECT_EQ(explicit_stable_reachable(fix.netlist, fix.reset, k),
                testing::oracle_stable_reachable(fix.netlist, fix.reset, k))
          << fix.netlist.name() << " k=" << k;
  }
}

// --- parallel two-rail simulation -------------------------------------------

TEST(RailAlgebra, LaneRoundTrip) {
  Rail r = rail_all(Ternary::V0);
  set_rail_lane(r, 7, Ternary::V1);
  set_rail_lane(r, 9, Ternary::X);
  EXPECT_EQ(rail_lane(r, 0), Ternary::V0);
  EXPECT_EQ(rail_lane(r, 7), Ternary::V1);
  EXPECT_EQ(rail_lane(r, 9), Ternary::X);
}

TEST(RailAlgebra, MatchesScalarTernary) {
  const Ternary vals[] = {Ternary::V0, Ternary::V1, Ternary::X};
  RailOps ops;
  for (const Ternary a : vals)
    for (const Ternary b : vals) {
      Rail ra = rail_all(a), rb = rail_all(b);
      EXPECT_EQ(rail_lane(ops.and_(ra, rb), 13), ternary_and(a, b));
      EXPECT_EQ(rail_lane(ops.or_(ra, rb), 13), ternary_or(a, b));
      EXPECT_EQ(rail_lane(ops.not_(ra), 13), ternary_not(a));
    }
}

TEST(ParallelSim, FaultFreeLaneMatchesScalar) {
  const Circuit fix = fixtures::fig1a();
  const Netlist& n = fix.netlist;
  TernarySim scalar(n);
  ParallelTernarySim par(n, {});
  const std::vector<bool>& st = fix.reset;
  const std::vector<bool> vec{true, true};
  const auto scalar_result = scalar.settle(st, vec);
  par.load_state(st);
  par.settle(vec);
  for (SignalId s = 0; s < n.num_signals(); ++s)
    EXPECT_EQ(par.value(s, 0), scalar_result.state[s]) << "signal " << s;
}

TEST(ParallelSim, OutputStuckAtDetected) {
  const Circuit fix = fixtures::chain();
  const Netlist& n = fix.netlist;
  // Lane 1: y stuck-at-0.
  ParallelTernarySim par(
      n, {Fault{Fault::Site::SignalOutput, n.signal("y"), 0, false}});
  par.load_state(fix.reset);
  par.settle({true});  // good: y -> 1; faulty: y stuck 0
  EXPECT_EQ(par.value(n.signal("y"), 0), Ternary::V1);
  EXPECT_EQ(par.value(n.signal("y"), 1), Ternary::V0);
  EXPECT_EQ(par.lanes_definite(n.signal("y"), true) & 1ull, 1ull);
  EXPECT_EQ(par.lanes_definite(n.signal("y"), false) & 2ull, 2ull);
}

TEST(ParallelSim, InputPinStuckAt) {
  const Circuit fix = fixtures::chain();
  const Netlist& n = fix.netlist;
  // Lane 3 carries the third fault: the pin n->y (pin 0 of gate y)
  // stuck-at-1, so y = NOT(1) = 0.  Lanes 1 and 2 tie y and n to 1.
  const SignalId y = n.signal("y");
  ParallelTernarySim par(n, {Fault{Fault::Site::SignalOutput, y, 0, true},
                             Fault{Fault::Site::SignalOutput, n.signal("n"), 0,
                                   true},
                             Fault{Fault::Site::GatePin, y, 0, true}});
  par.load_state(fix.reset);
  par.settle({true});  // good circuit: n=0, y=1; faulty: y=0
  EXPECT_EQ(par.value(y, 0), Ternary::V1);
  EXPECT_EQ(par.value(y, 1), Ternary::V1);
  EXPECT_EQ(par.value(y, 2), Ternary::V0);
  EXPECT_EQ(par.value(y, 3), Ternary::V0);
}

TEST(ParallelSim, RaceMarksLaneUnknown) {
  const Circuit fix = fixtures::fig1a();
  ParallelTernarySim par(fix.netlist, {});
  par.load_state(fix.reset);
  par.settle({true, false});  // the racing vector
  EXPECT_NE(par.lanes_with_unknown() & 1ull, 0ull);
}

TEST(ParallelSim, SixtyFourLanesIndependent) {
  const Circuit fix = fixtures::chain();
  const Netlist& n = fix.netlist;
  const SignalId y = n.signal("y");
  // Fault i goes in lane i + 1: y stuck at 0 in the odd lanes, at 1 in the
  // even lanes after the good lane 0.
  std::vector<Fault> faults;
  for (unsigned lane = 1; lane < 64; ++lane)
    faults.push_back(Fault{Fault::Site::SignalOutput, y, 0, lane % 2 == 0});
  ParallelTernarySim par(n, faults);
  par.load_state(fix.reset);
  for (const bool a : {true, false}) {
    par.settle({a});
    for (unsigned lane = 0; lane < 64; ++lane) {
      const bool expected = lane == 0 ? a : lane % 2 == 0;
      ASSERT_EQ(par.value(y, lane), to_ternary(expected))
          << "A=" << a << " lane " << lane;
    }
  }
}

TEST(ParallelSim, InjectionValidation) {
  const Netlist n = parse_xnl_string(fixtures::kChainXnl);
  const Fault bad_pin{Fault::Site::GatePin, n.signal("y"), 5, true};
  EXPECT_THROW(ParallelTernarySim(n, {bad_pin}), CheckError);
  // 63 faulty lanes beside the good one, and no more.
  const Fault tie{Fault::Site::SignalOutput, n.signal("y"), 0, true};
  EXPECT_NO_THROW(ParallelTernarySim(n, std::vector<Fault>(63, tie)));
  EXPECT_THROW(ParallelTernarySim(n, std::vector<Fault>(64, tie)), CheckError);
}

}  // namespace
}  // namespace xatpg
