#include "atpg/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "benchmarks/benchmarks.hpp"
#include "fixtures.hpp"
#include "oracle.hpp"
#include "sim/explicit.hpp"

namespace xatpg {
namespace {

// --- fault universe ----------------------------------------------------------

TEST(FaultModel, UniverseSizes) {
  const Netlist n = fig1a_circuit(nullptr);
  EXPECT_EQ(output_stuck_faults(n).size(), 2 * n.num_signals());
  EXPECT_EQ(input_stuck_faults(n).size(), 2 * n.num_pins());
}

TEST(FaultModel, Describe) {
  const Netlist n = fig1a_circuit(nullptr);
  const Fault f{Fault::Site::SignalOutput, n.signal("y"), 0, true};
  EXPECT_EQ(f.describe(n), "out y s-a-1");
}

TEST(FaultModel, ApplyOutputFaultTiesSignal) {
  const Netlist n = fig1a_circuit(nullptr);
  const Fault f{Fault::Site::SignalOutput, n.signal("c"), 0, true};
  const Netlist faulty = apply_fault(n, f);
  EXPECT_EQ(faulty.num_signals(), n.num_signals());
  std::vector<bool> st(faulty.num_signals(), false);
  // c's target is constant 1 whatever the state.
  EXPECT_TRUE(faulty.eval_gate_bool(faulty.signal("c"), st));
}

TEST(FaultModel, ApplyPinFaultAddsConstant) {
  const Netlist n = fig1a_circuit(nullptr);
  // Pin c.0 (reading a) stuck at 1.
  const Fault f{Fault::Site::GatePin, n.signal("c"), 0, true};
  const Netlist faulty = apply_fault(n, f);
  EXPECT_EQ(faulty.num_signals(), n.num_signals() + 1);
  // c now computes 1 & b.
  std::vector<bool> st(faulty.num_signals(), false);
  st[faulty.signal("b")] = true;
  st.back() = true;  // the constant signal's value
  st[faulty.signal("#stuck")] = true;
  EXPECT_TRUE(faulty.eval_gate_bool(faulty.signal("c"), st));
}

TEST(FaultModel, ApplyInputStuck) {
  const Netlist n = fig1a_circuit(nullptr);
  const Fault f{Fault::Site::SignalOutput, n.signal("A"), 0, false};
  const Netlist faulty = apply_fault(n, f);
  std::vector<bool> st(faulty.num_signals(), true);
  EXPECT_FALSE(faulty.eval_gate_bool(faulty.signal("A"), st));
}

// --- exact fault simulator ----------------------------------------------------

class ChainFixture : public ::testing::Test {
 protected:
  ChainFixture() {
    fixtures::Circuit fix = fixtures::chain();
    netlist = std::move(fix.netlist);
    reset = std::move(fix.reset);
  }
  Netlist netlist;
  std::vector<bool> reset;
};

TEST_F(ChainFixture, DetectsOutputStuck) {
  const Fault f{Fault::Site::SignalOutput, netlist.signal("y"), 0, false};
  FaultSimulator sim(netlist, f, reset);
  EXPECT_EQ(sim.status(), DetectStatus::Undetermined);
  // Apply A=1: good y -> 1, faulty y stuck 0: every execution mismatches.
  std::vector<bool> good_after(netlist.num_signals(), false);
  good_after[netlist.signal("A")] = true;
  good_after[netlist.signal("y")] = true;
  EXPECT_EQ(sim.step({true}, good_after), DetectStatus::Detected);
}

TEST_F(ChainFixture, UndetectedWhenOutputsAgree) {
  // y s-a-0 with A kept 0: good y is 0 too; never detected.
  const Fault f{Fault::Site::SignalOutput, netlist.signal("y"), 0, false};
  FaultSimulator sim(netlist, f, reset);
  EXPECT_EQ(sim.step({false}, reset), DetectStatus::Undetermined);
}

TEST_F(ChainFixture, RestartIsSticky) {
  const Fault f{Fault::Site::SignalOutput, netlist.signal("y"), 0, false};
  FaultSimulator sim(netlist, f, reset);
  std::vector<bool> good_after(netlist.num_signals(), false);
  good_after[netlist.signal("A")] = true;
  good_after[netlist.signal("y")] = true;
  ASSERT_EQ(sim.step({true}, good_after), DetectStatus::Detected);
  sim.restart();
  EXPECT_EQ(sim.status(), DetectStatus::Detected);
}

TEST(TernaryScreen, SoundOnChain) {
  const fixtures::Circuit fix = fixtures::chain();
  const Netlist& n = fix.netlist;
  const std::vector<bool>& reset = fix.reset;
  const std::vector<Fault> faults = output_stuck_faults(n);
  const auto detected =
      ternary_screen(n, reset, faults, {{true}, {false}});
  // y s-a-0 and y s-a-1 are both caught by toggling A; verify soundness by
  // cross-checking each screened fault with the exact simulator.
  EXPECT_FALSE(detected.empty());
  for (const std::size_t idx : detected) {
    FaultSimulator sim(n, faults[idx], reset);
    std::vector<bool> good = reset;
    bool exact_detected = false;
    for (const bool a : {true, false}) {
      const auto exact = explore_settling(n, good, {a}, 20);
      ASSERT_TRUE(exact.confluent());
      good = *exact.stable_states.begin();
      if (sim.step({a}, good) == DetectStatus::Detected) exact_detected = true;
    }
    EXPECT_TRUE(exact_detected)
        << faults[idx].describe(n) << ": ternary claimed, exact disagrees";
  }

  // A fault list that needs two 64-lane passes flags exactly what
  // screening each slice of at most 63 faults separately flags, as indices
  // into the whole list.
  const fixtures::Circuit tree = fixtures::parity_tree(12);
  std::vector<Fault> many = input_stuck_faults(tree.netlist);
  const std::vector<Fault> outputs = output_stuck_faults(tree.netlist);
  many.insert(many.end(), outputs.begin(), outputs.end());
  ASSERT_GT(many.size(), 63u);
  Rng rng(3);
  std::vector<std::vector<bool>> vectors(4);
  for (auto& vec : vectors)
    for (std::size_t i = 0; i < tree.netlist.inputs().size(); ++i)
      vec.push_back(rng.flip());
  std::vector<std::size_t> sliced;
  for (std::size_t begin = 0; begin < many.size(); begin += 63) {
    const std::vector<Fault> slice(
        many.begin() + static_cast<long>(begin),
        many.begin() + static_cast<long>(std::min(begin + 63, many.size())));
    for (const std::size_t hit :
         ternary_screen(tree.netlist, tree.reset, slice, vectors))
      sliced.push_back(begin + hit);
  }
  ASSERT_FALSE(sliced.empty());
  EXPECT_GE(sliced.back(), 63u);  // the second pass flags faults too
  EXPECT_EQ(ternary_screen(tree.netlist, tree.reset, many, vectors), sliced);
}

// --- packed fault simulator vs the set-based oracle -----------------------

/// One test sequence from reset: (vector, good state after it) per cycle.
using Walk = std::vector<std::pair<std::vector<bool>, std::vector<bool>>>;

/// Seeded random walks over the explicit CSSG (valid vectors only).
std::vector<Walk> cssg_walks(const fixtures::Circuit& fix, std::uint64_t seed,
                             std::size_t count, std::size_t length) {
  const Cssg cssg(fix.netlist, fix.reset);
  const ExplicitCssg graph = cssg.extract_explicit();
  const auto reset_id = graph.find(fix.reset);
  XATPG_CHECK(reset_id.has_value());
  Rng rng(seed);
  std::vector<Walk> walks(count);
  for (Walk& walk : walks) {
    std::uint32_t id = *reset_id;
    for (std::size_t t = 0; t < length && !graph.edges[id].empty(); ++t) {
      const auto& succs = graph.edges[id];
      const std::uint32_t to = succs[rng.below(succs.size())];
      walk.emplace_back(graph.inputs[to], graph.states[to]);
      id = to;
    }
  }
  return walks;
}

/// Status and candidate set of the packed simulator equal the oracle's.
void expect_same(const FaultSimulator& sim,
                 const testing::OracleFaultSimulator& oracle,
                 const Netlist& good, const std::string& where) {
  ASSERT_EQ(sim.status(), oracle.status()) << where;
  ASSERT_EQ(testing::unpacked_candidates(sim, good), oracle.candidates())
      << where;
}

/// Every fault of both universes, every walk, lockstep with the oracle.
/// Returns how many (fault, walk) runs ended GaveUp and Detected.
std::pair<std::size_t, std::size_t> expect_sims_match_oracle(
    const Netlist& good, const std::vector<bool>& reset,
    const std::vector<Walk>& walks, const FaultSimOptions& options) {
  std::vector<Fault> faults = input_stuck_faults(good);
  for (const Fault& f : output_stuck_faults(good)) faults.push_back(f);
  std::size_t gave_up = 0, detected = 0;
  for (const Fault& fault : faults) {
    FaultSimulator sim(good, fault, reset, options);
    testing::OracleFaultSimulator oracle(good, fault, reset, options);
    const std::string name = good.name() + " " + fault.describe(good);
    expect_same(sim, oracle, good, name + " at reset");
    for (const Walk& walk : walks) {
      sim.restart();
      oracle.restart();
      expect_same(sim, oracle, good, name + " after restart");
      for (std::size_t t = 0; t < walk.size(); ++t) {
        const auto& [vector, good_state] = walk[t];
        EXPECT_EQ(sim.step(vector, good_state),
                  oracle.step(vector, good_state));
        expect_same(sim, oracle, good, name + " step " + std::to_string(t));
        if (::testing::Test::HasFatalFailure()) return {gave_up, detected};
      }
      gave_up += sim.status() == DetectStatus::GaveUp;
      detected += sim.status() == DetectStatus::Detected;
    }
  }
  return {gave_up, detected};
}

std::vector<fixtures::Circuit> differential_circuits() {
  std::vector<fixtures::Circuit> circuits{
      fixtures::fig1a(), fixtures::fig1b(), fixtures::chain(),
      fixtures::celem(), fixtures::async_latch(), fixtures::pipeline2()};
  for (std::uint64_t seed = 1; circuits.size() < 18; ++seed) {
    try {
      circuits.push_back(fixtures::random_netlist(seed));
    } catch (const CheckError&) {
      // the generator refuses seeds that do not settle
    }
  }
  return circuits;
}

TEST(PackedFaultSim, MatchesOracleAlongSeededWalks) {
  std::size_t detected = 0, gave_up = 0;
  for (const fixtures::Circuit& fix : differential_circuits()) {
    const std::vector<Walk> walks = cssg_walks(fix, 17, 3, 8);
    for (const std::size_t k : {std::size_t{2}, std::size_t{24}}) {
      FaultSimOptions options;
      options.k = k;
      const auto [g, d] =
          expect_sims_match_oracle(fix.netlist, fix.reset, walks, options);
      if (HasFatalFailure()) return;
      gave_up += g;
      detected += d;
    }
  }
  EXPECT_GT(detected, 0u);
  EXPECT_GT(gave_up, 0u);  // k = 2 cuts fig1b's oscillation short
}

TEST(PackedFaultSim, GivesUpAtTheCapLikeTheOracle) {
  // Cap 0 gives up at reset; caps 1-3 give up once the consistent set
  // grows, where candidates that settle into the same state must count
  // once.
  std::size_t gave_up = 0;
  for (const fixtures::Circuit& fix : differential_circuits()) {
    const std::vector<Walk> walks = cssg_walks(fix, 5, 3, 8);
    for (const std::size_t cap : {0u, 1u, 2u, 3u}) {
      FaultSimOptions options;
      options.candidate_cap = cap;
      gave_up += expect_sims_match_oracle(fix.netlist, fix.reset, walks,
                                          options)
                     .first;
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(gave_up, 0u);
}

TEST(PackedFaultSim, SnapshotRestoreRoundTrip) {
  const fixtures::Circuit fix = fixtures::pipeline2();
  const std::vector<Walk> walks = cssg_walks(fix, 9, 2, 6);
  ASSERT_GE(walks[0].size(), 3u);
  ASSERT_GE(walks[1].size(), 1u);
  for (const Fault& fault : input_stuck_faults(fix.netlist)) {
    FaultSimulator sim(fix.netlist, fault, fix.reset);
    testing::OracleFaultSimulator oracle(fix.netlist, fault, fix.reset);
    const std::string name = fault.describe(fix.netlist);
    sim.step(walks[0][0].first, walks[0][0].second);
    oracle.step(walks[0][0].first, walks[0][0].second);
    const FaultSimulator::Snapshot snap = sim.snapshot();
    const auto oracle_snap = oracle.snapshot();
    // Wander off along another walk, then roll back and continue.
    for (const auto& [vector, good_state] : walks[1]) {
      sim.step(vector, good_state);
      oracle.step(vector, good_state);
    }
    sim.restore(snap);
    oracle.restore(oracle_snap);
    EXPECT_EQ(sim.candidates(), snap.candidates) << name;
    expect_same(sim, oracle, fix.netlist, name + " restored");
    for (std::size_t t = 1; t < walks[0].size(); ++t) {
      EXPECT_EQ(sim.step(walks[0][t].first, walks[0][t].second),
                oracle.step(walks[0][t].first, walks[0][t].second));
      expect_same(sim, oracle, fix.netlist, name + " replayed");
      if (HasFatalFailure()) return;
    }
  }
}

TEST(PackedFaultSim, MatchesOracleOnMultiWordParityTree) {
  // 79 good signals (80 with a stuck pin's constant): two state words.
  const fixtures::Circuit fix = fixtures::parity_tree(40);
  const Netlist& n = fix.netlist;
  const std::size_t m = n.inputs().size();
  Rng rng(79);
  std::vector<Walk> walks(2);
  for (Walk& walk : walks) {
    std::vector<bool> state = fix.reset;
    while (walk.size() < 6) {
      std::vector<bool> pattern(m);
      for (std::size_t i = 0; i < m; ++i) pattern[i] = state[n.inputs()[i]];
      for (std::uint64_t flips = 1 + rng.below(2); flips > 0; --flips) {
        const std::size_t i = rng.below(m);
        pattern[i] = !pattern[i];
      }
      const ExploreResult next =
          testing::oracle_explore_settling(n, state, pattern, 24);
      if (!next.confluent()) continue;
      state = *next.stable_states.begin();
      walk.emplace_back(pattern, state);
    }
  }
  const std::size_t detected =
      expect_sims_match_oracle(n, fix.reset, walks, FaultSimOptions{}).second;
  EXPECT_GT(detected, 0u);
}

// --- engine on a real benchmark ------------------------------------------------

class EngineFixture : public ::testing::Test {
 protected:
  EngineFixture() {
    auto synth = benchmark_circuit("rpdft", SynthStyle::SpeedIndependent);
    netlist = std::move(synth.netlist);
    reset = std::move(synth.reset_state);
    AtpgOptions options;
    options.random_budget = 64;
    options.seed = 7;
    engine = std::make_unique<AtpgEngine>(netlist, reset, options);
  }
  Netlist netlist;
  std::vector<bool> reset;
  std::unique_ptr<AtpgEngine> engine;
};

TEST_F(EngineFixture, OutputStuckFullCoverage) {
  // Speed-independent circuits are 100% output stuck-at testable in
  // operation mode (Beerel/Meng) — the paper confirms the result holds
  // under synchronous-vector testing; so must we.
  const auto result = engine->run(output_stuck_faults(netlist));
  EXPECT_EQ(result.stats.undetected, 0u)
      << "coverage " << result.stats.coverage();
  EXPECT_EQ(result.stats.covered, result.stats.total_faults);
}

TEST_F(EngineFixture, InputStuckHighCoverage) {
  const auto result = engine->run(input_stuck_faults(netlist));
  EXPECT_GE(result.stats.coverage(), 0.9);
}

TEST_F(EngineFixture, PhaseCountsAddUp) {
  const auto result = engine->run(input_stuck_faults(netlist));
  EXPECT_EQ(result.stats.by_random + result.stats.by_three_phase +
                result.stats.by_fault_sim,
            result.stats.covered);
  EXPECT_EQ(result.stats.covered + result.stats.undetected,
            result.stats.total_faults);
  EXPECT_EQ(result.outcomes.size(), result.stats.total_faults);
}

TEST_F(EngineFixture, SequencesAreCssgValid) {
  const auto result = engine->run(input_stuck_faults(netlist));
  for (const auto& seq : result.sequences)
    EXPECT_TRUE(engine->follow(seq).has_value());
}

// --- follow on vectors that are not edges ------------------------------------

class FollowFig1a : public ::testing::Test {
 protected:
  FollowFig1a() {
    AtpgOptions options;
    options.k = 20;
    engine = std::make_unique<AtpgEngine>(fix.netlist, fix.reset, options);
  }
  /// One cycle's input vector (A, B), indexed like the netlist's inputs().
  std::vector<bool> ab(bool a, bool b) const {
    std::vector<bool> vec;
    for (const SignalId in : fix.netlist.inputs())
      vec.push_back(in == fix.netlist.signal("A") ? a : b);
    return vec;
  }
  fixtures::Circuit fix = fixtures::fig1a();
  std::unique_ptr<AtpgEngine> engine;
};

TEST_F(FollowFig1a, RacingVectorIsNoEdge) {
  // From reset (A=0, B=1) AB=11 is an edge; AB=10 races
  // (CssgFig1a.RacingVectorExcludedFromCssg), so it has none.
  ASSERT_TRUE(engine->follow(TestSequence{{ab(true, true)}}).has_value());
  EXPECT_FALSE(engine->follow(TestSequence{{ab(true, false)}}).has_value());
}

TEST_F(FollowFig1a, WrongWidthIsNoEdge) {
  std::vector<bool> wider = ab(true, true);
  wider.push_back(false);
  EXPECT_FALSE(engine->follow(TestSequence{{wider}}).has_value());
  EXPECT_FALSE(
      engine->follow(TestSequence{{std::vector<bool>{true}}}).has_value());
  EXPECT_FALSE(
      engine->follow(TestSequence{{std::vector<bool>{}}}).has_value());
}

TEST_F(FollowFig1a, ValidPrefixThenNonEdge) {
  // B- then B+ returns to reset; the racing AB=10 then ends the path.
  TestSequence seq{{ab(false, false), ab(false, true)}};
  const auto prefix = engine->follow(seq);
  ASSERT_TRUE(prefix.has_value());
  ASSERT_EQ(prefix->size(), 3u);
  EXPECT_EQ(engine->graph().states[prefix->back()], fix.reset);
  seq.vectors.push_back(ab(true, false));
  EXPECT_FALSE(engine->follow(seq).has_value());
}

TEST_F(EngineFixture, EverySequenceDetectsItsFault) {
  // Independently re-verify each covered fault against its recorded
  // sequence with a fresh exact simulator.
  const auto result = engine->run(input_stuck_faults(netlist));
  for (const auto& outcome : result.outcomes) {
    if (outcome.covered_by == CoveredBy::None) continue;
    ASSERT_GE(outcome.sequence_index, 0);
    const TestSequence& seq = result.sequences[outcome.sequence_index];
    const auto path = engine->follow(seq);
    ASSERT_TRUE(path.has_value());
    FaultSimulator sim(netlist, outcome.fault, reset);
    DetectStatus status = sim.status();
    for (std::size_t t = 0;
         t < seq.vectors.size() && status == DetectStatus::Undetermined; ++t)
      status = sim.step(seq.vectors[t], engine->graph().states[(*path)[t + 1]]);
    EXPECT_EQ(status, DetectStatus::Detected)
        << outcome.fault.describe(netlist);
  }
}

TEST_F(EngineFixture, ZeroRandomBudgetStillCovers) {
  AtpgOptions options;
  options.random_budget = 0;
  AtpgEngine pure3ph(netlist, reset, options);
  const auto result = pure3ph.run(output_stuck_faults(netlist));
  EXPECT_EQ(result.stats.by_random, 0u);
  EXPECT_EQ(result.stats.undetected, 0u);
}

TEST_F(EngineFixture, DeterministicUnderSeed) {
  AtpgOptions options;
  options.random_budget = 64;
  options.seed = 99;
  AtpgEngine e1(netlist, reset, options);
  AtpgEngine e2(netlist, reset, options);
  const auto r1 = e1.run(input_stuck_faults(netlist));
  const auto r2 = e2.run(input_stuck_faults(netlist));
  EXPECT_EQ(r1.stats.by_random, r2.stats.by_random);
  EXPECT_EQ(r1.stats.by_three_phase, r2.stats.by_three_phase);
  EXPECT_EQ(r1.sequences.size(), r2.sequences.size());
}

TEST_F(EngineFixture, TestProgramExport) {
  const auto result = engine->run(output_stuck_faults(netlist));
  std::ostringstream os;
  write_test_program(os, netlist, *engine, result.sequences);
  const std::string text = os.str();
  EXPECT_NE(text.find(".inputs"), std::string::npos);
  EXPECT_NE(text.find(".sequence 0"), std::string::npos);
  EXPECT_NE(text.find(" / "), std::string::npos);
}

TEST(EngineRedundant, BoundedDelayRedundantCircuitHasUndetectedFaults) {
  // The extra consensus cubes in the redundant bounded-delay mapping are
  // logically redundant: some stuck-at faults on them must be untestable —
  // the mechanism behind trimos-send/vbe10b/vbe6a in Table 2.
  auto plain = benchmark_circuit("rpdft", SynthStyle::BoundedDelay);
  auto synth = benchmark_circuit("vbe6a", SynthStyle::BoundedDelay);
  AtpgOptions options;
  options.random_budget = 128;
  AtpgEngine engine(synth.netlist, synth.reset_state, options);
  const auto result = engine.run(input_stuck_faults(synth.netlist));
  EXPECT_GT(result.stats.undetected, 0u);
}

TEST(Classifier, SoundOnSpeedIndependentSuite) {
  // Anything the classifier proves redundant must indeed be undetected by
  // the full (complete-within-caps) search.
  for (const char* name : {"rpdft", "chu150", "vbe5b", "ebergen"}) {
    auto synth = benchmark_circuit(name, SynthStyle::SpeedIndependent);
    AtpgOptions options;
    options.random_budget = 24;
    options.random_walk_len = 6;
    AtpgEngine engine(synth.netlist, synth.reset_state, options);
    const auto faults = input_stuck_faults(synth.netlist);
    const auto full = engine.run(faults);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (engine.provably_redundant(faults[i])) {
        EXPECT_EQ(full.outcomes[i].covered_by, CoveredBy::None)
            << name << " " << faults[i].describe(synth.netlist);
      }
    }
  }
}

TEST(Classifier, DoesNotChangeCoverage) {
  auto synth = benchmark_circuit("vbe6a", SynthStyle::BoundedDelay);
  const auto faults = input_stuck_faults(synth.netlist);
  const auto run_once = [&](bool classify) {
    AtpgOptions options;
    options.random_budget = 12;
    options.random_walk_len = 6;
    options.classify_undetectable = classify;
    AtpgEngine engine(synth.netlist, synth.reset_state, options);
    return engine.run(faults);
  };
  const auto off = run_once(false);
  const auto on = run_once(true);
  EXPECT_EQ(off.stats.covered, on.stats.covered);
  // On this hazard-laden circuit the classifier proves a large share of
  // the fault list undetectable up front.
  EXPECT_GT(on.stats.proven_redundant, 0u);
  EXPECT_LE(on.stats.three_phase_seconds, off.stats.three_phase_seconds + 0.5);
}

TEST(Classifier, FindsNothingOnFullyTestableCircuit) {
  auto synth = benchmark_circuit("dff", SynthStyle::SpeedIndependent);
  AtpgOptions options;
  options.classify_undetectable = true;
  options.random_budget = 24;
  AtpgEngine engine(synth.netlist, synth.reset_state, options);
  const auto result = engine.run(output_stuck_faults(synth.netlist));
  EXPECT_EQ(result.stats.proven_redundant, 0u);
  EXPECT_EQ(result.stats.undetected, 0u);
}

TEST(EngineStorage, DffBothStylesCovered) {
  for (const SynthStyle style :
       {SynthStyle::SpeedIndependent, SynthStyle::BoundedDelay}) {
    auto synth = benchmark_circuit("dff", style);
    AtpgOptions options;
    options.random_budget = 128;
    AtpgEngine engine(synth.netlist, synth.reset_state, options);
    const auto result = engine.run(output_stuck_faults(synth.netlist));
    EXPECT_GE(result.stats.coverage(), 0.95)
        << (style == SynthStyle::SpeedIndependent ? "SI" : "BD");
  }
}

}  // namespace
}  // namespace xatpg
