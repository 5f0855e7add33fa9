// End-to-end integration: STG specification -> synthesis -> CSSG -> ATPG ->
// test-program replay, with every stage's output checked against the
// previous stage's semantics.  The table-shape tests run through the
// public xatpg::Session facade; the replay tests stay on internals (they
// need the exact settling oracle).
#include <gtest/gtest.h>

#include <sstream>

#include "atpg/engine.hpp"
#include "atpg/fault_sim.hpp"
#include "baseline/baseline.hpp"
#include "benchmarks/benchmarks.hpp"
#include "fixtures.hpp"
#include "sim/explicit.hpp"
#include "xatpg/xatpg.hpp"

namespace xatpg {
namespace {

class EndToEnd : public ::testing::TestWithParam<std::string> {};

TEST_P(EndToEnd, FullFlowOnSpeedIndependent) {
  // 1. Specification.
  const Stg stg = benchmark_stg(GetParam());
  const StateGraph sg = expand_stg(stg);
  ASSERT_TRUE(csc_violations(sg).empty());

  // 2. Synthesis.
  const SynthResult synth = benchmark_circuit(GetParam(), SynthStyle::SpeedIndependent);
  ASSERT_TRUE(synth.netlist.is_stable_state(synth.reset_state));

  // 3. CSSG + ATPG.
  AtpgOptions options;
  options.random_budget = 24;
  options.random_walk_len = 6;
  AtpgEngine engine(synth.netlist, synth.reset_state, options);
  const auto faults = input_stuck_faults(synth.netlist);
  const AtpgResult result = engine.run(faults);
  EXPECT_GE(result.stats.coverage(), 0.80) << GetParam();

  // 4. Export and golden replay: the fault-free device must match every
  //    strobe of the exported program, using the exact settling oracle.
  std::ostringstream program;
  write_test_program(program, synth.netlist, engine, result.sequences);
  EXPECT_NE(program.str().find(".end"), std::string::npos);

  for (const auto& seq : result.sequences) {
    const auto path = engine.follow(seq);
    ASSERT_TRUE(path.has_value());
    std::vector<bool> device = synth.reset_state;
    for (std::size_t t = 0; t < seq.vectors.size(); ++t) {
      const auto settled =
          explore_settling(synth.netlist, device, seq.vectors[t], options.k);
      ASSERT_TRUE(settled.confluent())
          << GetParam() << ": exported vector is not race-free";
      device = *settled.stable_states.begin();
      EXPECT_EQ(device, engine.graph().states[(*path)[t + 1]]);
    }
  }

  // 5. Every fault claimed covered is re-proven with a fresh simulator.
  for (const auto& outcome : result.outcomes) {
    if (outcome.covered_by == CoveredBy::None) continue;
    const auto& seq = result.sequences[outcome.sequence_index];
    const auto path = engine.follow(seq);
    FaultSimulator sim(synth.netlist, outcome.fault, synth.reset_state);
    DetectStatus status = sim.status();
    for (std::size_t t = 0;
         t < seq.vectors.size() && status == DetectStatus::Undetermined; ++t)
      status = sim.step(seq.vectors[t], engine.graph().states[(*path)[t + 1]]);
    EXPECT_EQ(status, DetectStatus::Detected)
        << GetParam() << " " << outcome.fault.describe(synth.netlist);
  }
}

INSTANTIATE_TEST_SUITE_P(Suite, EndToEnd,
                         ::testing::Values("rpdft", "dff", "chu150",
                                           "rcv-setup", "converta", "vbe5b",
                                           "ebergen", "nowick", "seq4"),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

TEST(EndToEndShape, Table1OutputStuckIsComplete) {
  // The headline theoretical shape on a sample of the SI suite: output
  // stuck-at coverage is complete.  Driven through the public facade —
  // exactly the call sequence `xatpg run --faults output` makes.
  for (const char* name : {"chu150", "ebergen", "vbe5b", "mmu", "seq4"}) {
    AtpgOptions options;
    options.random_budget = 24;
    options.random_walk_len = 6;
    auto session =
        Session::from_benchmark(name, SynthStyle::SpeedIndependent, options);
    ASSERT_TRUE(session.has_value()) << name << ": "
                                     << session.error().to_string();
    const auto result = session->run(session->output_stuck_faults());
    ASSERT_TRUE(result.has_value()) << name;
    EXPECT_EQ(result->stats.undetected, 0u) << name;
  }
}

TEST(EndToEndShape, Table2RedundantCircuitsCollapse) {
  // The Table 2 shape: the redundant/hazard-laden trio tests far worse in
  // the bounded-delay mapping than a clean circuit does.
  const auto coverage = [](const std::string& name) {
    AtpgOptions options;
    options.random_budget = 24;
    options.random_walk_len = 6;
    auto session =
        Session::from_benchmark(name, SynthStyle::BoundedDelay, options);
    XATPG_CHECK(session.has_value());
    const auto result = session->run(session->input_stuck_faults());
    XATPG_CHECK(result.has_value());
    return result->stats.coverage();
  };
  const double clean = coverage("ebergen");
  const double redundant = coverage("vbe6a");
  EXPECT_GE(clean, 0.9);
  EXPECT_LE(redundant, 0.5);
}

TEST(EndToEndShape, FixtureCircuitsSurviveTheFullFlow) {
  // The tiny canonical fixtures (C-element, asynchronous latch, two-stage
  // pipeline) are exercised by many suites; the full ATPG flow must accept
  // each one and fully cover its output stuck-at faults.
  for (const fixtures::Circuit& fix : {fixtures::celem(),
                                       fixtures::async_latch(),
                                       fixtures::pipeline2()}) {
    ASSERT_TRUE(fix.netlist.is_stable_state(fix.reset)) << fix.netlist.name();
    AtpgOptions options;
    options.random_budget = 24;
    options.random_walk_len = 6;
    AtpgEngine engine(fix.netlist, fix.reset, options);
    const auto result = engine.run(output_stuck_faults(fix.netlist));
    EXPECT_EQ(result.stats.undetected, 0u) << fix.netlist.name();
    for (const auto& seq : result.sequences) {
      std::vector<bool> state = fix.reset;
      for (const auto& vec : seq.vectors) {
        const auto exact = explore_settling(fix.netlist, state, vec, options.k);
        ASSERT_TRUE(exact.confluent())
            << fix.netlist.name() << ": exported vector races";
        state = *exact.stable_states.begin();
      }
    }
  }
}

TEST(EndToEndShape, BaselineNeedsValidationOursDoesNot) {
  // §6.1: on the racy Figure 1(a) circuit, the baseline validates at least
  // one sequence that exact analysis shows to race; our flow's sequences
  // are all race-free by construction (checked via the exact oracle).
  const auto [fig1a, reset] = fixtures::fig1a();
  const auto faults = input_stuck_faults(fig1a);

  const BaselineResult base = run_baseline(fig1a, reset, faults);
  EXPECT_GT(base.optimistic, 0u);

  AtpgOptions options;
  options.random_budget = 24;
  AtpgEngine engine(fig1a, reset, options);
  const auto ours = engine.run(faults);
  for (const auto& seq : ours.sequences) {
    std::vector<bool> state = reset;
    for (const auto& vec : seq.vectors) {
      const auto exact = explore_settling(fig1a, state, vec, options.k);
      ASSERT_TRUE(exact.confluent());
      state = *exact.stable_states.begin();
    }
  }
}

}  // namespace
}  // namespace xatpg
