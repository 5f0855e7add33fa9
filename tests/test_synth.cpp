#include "synth/synth.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <string>
#include <vector>

#include "benchmarks/benchmarks.hpp"
#include "oracle.hpp"
#include "sim/ternary.hpp"
#include "synth/cover.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace xatpg {
namespace {

// --- cover algebra ------------------------------------------------------------

TEST(MinCube, CoversMinterm) {
  // cube x1 x2' over 3 vars: care 110, value 010 (bit0=x0 free).
  const MinCube c{0b110, 0b010};
  EXPECT_TRUE(c.covers_minterm(0b010));
  EXPECT_TRUE(c.covers_minterm(0b011));
  EXPECT_FALSE(c.covers_minterm(0b110));
}

TEST(MinCube, Containment) {
  const MinCube big{0b100, 0b100};    // x2
  const MinCube small{0b110, 0b110};  // x2 x1
  EXPECT_TRUE(big.contains(small));
  EXPECT_FALSE(small.contains(big));
  EXPECT_TRUE(big.contains(big));
}

TEST(PrimeImplicants, XorHasNoMerging) {
  // on = {01, 10} (off = {00, 11}): two primes, nothing combines.
  const auto primes = prime_implicants({0b00, 0b11}, 2);
  EXPECT_EQ(primes.size(), 2u);
}

TEST(PrimeImplicants, FullCubeCollapses) {
  const auto primes = prime_implicants({}, 2);
  ASSERT_EQ(primes.size(), 1u);
  EXPECT_EQ(primes[0].care, 0u);  // tautology cube
}

TEST(PrimeImplicants, DontCaresEnlargePrimes) {
  // f: on = {11}, dc = {10}, off = {00, 01} over 2 vars -> prime x1 (bit1).
  const auto primes = prime_implicants({0b00, 0b01}, 2);
  bool found = false;
  for (const auto& p : primes)
    if (p.care == 0b10 && p.value == 0b10) found = true;
  EXPECT_TRUE(found);
}

TEST(MinimizeSop, CoversExactlyOnSet) {
  // Random-ish function over 4 vars.
  const std::vector<std::uint32_t> on{0, 1, 3, 7, 8, 9, 15};
  std::vector<std::uint32_t> off;
  for (std::uint32_t m = 0; m < 16; ++m)
    if (std::find(on.begin(), on.end(), m) == on.end()) off.push_back(m);
  const auto cover = minimize_sop(on, off, 4);
  EXPECT_TRUE(cover_is_correct(cover, on, off));
}

TEST(MinimizeSop, UsesDontCares) {
  // on = {3}, dc = {1, 2, 0}, off = {} -> single tautology-ish cube allowed.
  const auto cover = minimize_sop({3}, {}, 2);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0].num_literals(), 0);
}

TEST(MinimizeSop, EmptyOnSet) {
  EXPECT_TRUE(minimize_sop({}, {1, 2, 3}, 2).empty());
}

TEST(MinimizeSop, ParameterizedExhaustive3Var) {
  // Every 3-variable function: the minimized cover must match the truth
  // table exactly (no dc).
  for (std::uint32_t tt = 0; tt < 256; ++tt) {
    std::vector<std::uint32_t> on, off;
    for (std::uint32_t m = 0; m < 8; ++m)
      ((tt >> m) & 1 ? on : off).push_back(m);
    const auto cover = minimize_sop(on, off, 3);
    EXPECT_TRUE(cover_is_correct(cover, on, off)) << "truth table " << tt;
  }
}

TEST(Consensus, BasicResolvent) {
  // x y + x' z -> consensus y z.
  const MinCube a{0b011, 0b011};  // x0 x1  (bits 0,1)
  const MinCube b{0b101, 0b100};  // x0' x2
  MinCube c;
  ASSERT_TRUE(consensus(a, b, &c));
  EXPECT_EQ(c.care, 0b110u);
  EXPECT_EQ(c.value, 0b110u);
}

TEST(Consensus, NoClashNoConsensus) {
  const MinCube a{0b001, 0b001};
  const MinCube b{0b010, 0b010};
  MinCube c;
  EXPECT_FALSE(consensus(a, b, &c));  // zero clashing variables
}

TEST(Consensus, AddConsensusCubesClosesCover) {
  // x y + x' z: consensus y z must be added.
  std::vector<MinCube> cover{{0b011, 0b011}, {0b101, 0b100}};
  const auto added = add_consensus_cubes(cover);
  EXPECT_GE(added, 1u);
  bool found = false;
  for (const auto& c : cover)
    if (c.care == 0b110 && c.value == 0b110) found = true;
  EXPECT_TRUE(found);
  // Function unchanged: consensus terms are implicants.
  for (std::uint32_t m = 0; m < 8; ++m) {
    const bool orig = ((m & 0b011) == 0b011) || ((m & 0b101) == 0b100);
    EXPECT_EQ(cover_eval(cover, m), orig) << m;
  }
}

// --- synthesis ---------------------------------------------------------------

class SynthCelem : public ::testing::Test {
 protected:
  SynthCelem() : stg(make_celem("celem", 2)), sg(expand_stg(stg)) {}
  Stg stg;
  StateGraph sg;
};

TEST_F(SynthCelem, SpeedIndependentProducesGc) {
  const SynthResult result = synthesize(sg, {SynthStyle::SpeedIndependent});
  const Netlist& n = result.netlist;
  EXPECT_EQ(n.inputs().size(), 2u);
  EXPECT_EQ(n.outputs().size(), 1u);
  const Gate& ack = n.gate(n.signal("ack"));
  EXPECT_EQ(ack.type, GateType::Gc);
  EXPECT_TRUE(n.is_stable_state(result.reset_state));
}

TEST_F(SynthCelem, SpeedIndependentImplementsNextState) {
  const SynthResult result = synthesize(sg, {SynthStyle::SpeedIndependent});
  const Netlist& n = result.netlist;
  // For every reachable SG state, the netlist gate target must equal the
  // SG next-state function.
  for (std::uint32_t st = 0; st < sg.num_states(); ++st) {
    std::vector<bool> state(n.num_signals(), false);
    for (std::uint32_t sig = 0; sig < stg.num_signals(); ++sig)
      state[n.signal(stg.signal(sig).name)] = sg.codes[st][sig];
    EXPECT_EQ(n.eval_gate_bool(n.signal("ack"), state), sg.next_value(st, 2))
        << "state " << st;
  }
}

TEST_F(SynthCelem, BoundedDelayProducesAndOr) {
  SynthOptions options;
  options.style = SynthStyle::BoundedDelay;
  const SynthResult result = synthesize(sg, options);
  const Netlist& n = result.netlist;
  EXPECT_TRUE(n.is_stable_state(result.reset_state));
  // ack = r0 r1 + ack (r0 + r1) needs AND terms and an OR.
  EXPECT_EQ(n.gate(n.signal("ack")).type, GateType::Or);
}

TEST_F(SynthCelem, BoundedDelayImplementsNextStateAfterSettling) {
  SynthOptions options;
  options.style = SynthStyle::BoundedDelay;
  const SynthResult result = synthesize(sg, options);
  const Netlist& n = result.netlist;
  TernarySim sim(n);
  // From reset, walk the SG behaviour: each SG input event, applied as a
  // synchronous vector, must settle the netlist to the SG's next stable
  // situation.  (Spot-check the first rising phase: r0+, then r1+.)
  std::vector<bool> state = result.reset_state;
  auto apply = [&](bool r0, bool r1) {
    const auto settled = sim.settle(state, {r0, r1});
    ASSERT_TRUE(settled.confluent);
    state = settled.final_state();
  };
  apply(true, false);
  EXPECT_FALSE(state[n.signal("ack")]);
  apply(true, true);
  EXPECT_TRUE(state[n.signal("ack")]);
  apply(false, true);
  EXPECT_TRUE(state[n.signal("ack")]);  // C-element holds
  apply(false, false);
  EXPECT_FALSE(state[n.signal("ack")]);
}

TEST(Synth, StandardCArchitecture) {
  const Stg stg = make_celem("celem", 2);
  const StateGraph sg = expand_stg(stg);
  SynthOptions options;
  options.style = SynthStyle::SpeedIndependent;
  options.architecture = SiArchitecture::StandardC;
  const SynthResult result = synthesize(sg, options);
  const Netlist& n = result.netlist;
  EXPECT_TRUE(n.is_stable_state(result.reset_state));
  // The output signal is now a real 2-input C-element.
  EXPECT_EQ(n.gate(n.signal("ack")).type, GateType::Celem);
  // More fault sites than the atomic-gC mapping of the same function.
  const SynthResult atomic = synthesize(sg, {SynthStyle::SpeedIndependent});
  EXPECT_GT(n.num_pins(), atomic.netlist.num_pins());
  // Functional fidelity on reachable codes (after relaxing the networks).
  for (std::uint32_t st = 0; st < sg.num_states(); ++st) {
    std::vector<bool> state(n.num_signals(), false);
    for (std::uint32_t sig = 0; sig < stg.num_signals(); ++sig)
      state[n.signal(stg.signal(sig).name)] = sg.codes[st][sig];
    for (std::size_t pass = 0; pass < n.num_signals(); ++pass) {
      bool changed = false;
      for (SignalId s = 0; s < n.num_signals(); ++s) {
        if (n.is_input(s) || s == n.signal("ack")) continue;
        const bool target = n.eval_gate_bool(s, state);
        if (state[s] != target) {
          state[s] = target;
          changed = true;
        }
      }
      if (!changed) break;
    }
    EXPECT_EQ(n.eval_gate_bool(n.signal("ack"), state), sg.next_value(st, 2))
        << "state " << st;
  }
}

TEST(Synth, RedundantCoversAddGates) {
  const Stg stg = make_celem("celem", 2);
  const StateGraph sg = expand_stg(stg);
  SynthOptions plain;
  plain.style = SynthStyle::BoundedDelay;
  plain.hazard_consensus = true;
  SynthOptions redundant = plain;
  redundant.extra_redundancy = true;
  const auto a = synthesize(sg, plain);
  const auto b = synthesize(sg, redundant);
  EXPECT_GE(b.num_cubes, a.num_cubes);
}

TEST(Synth, CscViolationRejected) {
  Stg stg("csc-broken");
  const auto r = stg.add_signal("r", SignalKind::Input, false);
  const auto a = stg.add_signal("a", SignalKind::Output, false);
  const auto rp = stg.add_transition(r, true);
  const auto ap = stg.add_transition(a, true);
  const auto rm = stg.add_transition(r, false);
  const auto am = stg.add_transition(a, false);
  const auto ap2 = stg.add_transition(a, true);
  const auto am2 = stg.add_transition(a, false);
  stg.arc(rp, ap);
  stg.arc(ap, rm);
  stg.arc(rm, am);
  stg.arc(am, ap2);
  stg.arc(ap2, am2);
  stg.arc(am2, rp, 1);
  const StateGraph sg = expand_stg(stg);
  EXPECT_THROW(synthesize(sg, {}), CheckError);
}

TEST(Synth, NsFunctionPartitionsCodes) {
  const Stg stg = make_celem("celem", 2);
  const StateGraph sg = expand_stg(stg);
  const NsFunction ns = next_state_function(sg, 2);
  // on + off = reachable codes: all 2^3 of them, so no don't-cares.
  std::vector<std::uint32_t> codes = ns.on;
  codes.insert(codes.end(), ns.off.begin(), ns.off.end());
  std::sort(codes.begin(), codes.end());
  EXPECT_EQ(codes, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Synth, SetResetFunctionsDisjoint) {
  const Stg stg = make_celem("celem", 2);
  const StateGraph sg = expand_stg(stg);
  const NsFunction set = set_function(sg, 2);
  const NsFunction reset = reset_function(sg, 2);
  for (const auto m : set.on)
    EXPECT_EQ(std::count(reset.on.begin(), reset.on.end(), m), 0);
}

TEST(Synth, WideStgRejectedBeforeCodeShift) {
  // 34 signals: a code no longer fits MinCube's 32-bit word, so the guard
  // must fire before any code is built.
  const Stg stg = make_sequencer("seq17", 17);
  ASSERT_EQ(stg.num_signals(), 34u);
  const StateGraph sg = expand_stg(stg);
  EXPECT_THROW(next_state_function(sg, 1), CheckError);
  EXPECT_THROW(synthesize(sg, {}), CheckError);
}

TEST(Synth, TwentyTwoSignalSequencerImplementsNextState) {
  // 22 signals, 44 states: 4M codes, of which the prime generator only sees
  // the reachable ones.
  const Stg stg = make_sequencer("seq11", 11);
  ASSERT_EQ(stg.num_signals(), 22u);
  const StateGraph sg = expand_stg(stg);
  ASSERT_EQ(sg.num_states(), 44u);
  const SynthResult result = synthesize(sg, {SynthStyle::SpeedIndependent});
  const Netlist& n = result.netlist;
  EXPECT_TRUE(n.is_stable_state(result.reset_state));
  for (std::uint32_t st = 0; st < sg.num_states(); ++st) {
    std::vector<bool> state(n.num_signals(), false);
    for (std::uint32_t sig = 0; sig < stg.num_signals(); ++sig)
      state[n.signal(stg.signal(sig).name)] = sg.codes[st][sig];
    for (std::uint32_t sig = 0; sig < stg.num_signals(); ++sig) {
      if (stg.signal(sig).kind == SignalKind::Input) continue;
      const SignalId out = n.signal(stg.signal(sig).name);
      EXPECT_EQ(n.gate(out).type, GateType::Gc);
      EXPECT_EQ(n.eval_gate_bool(out, state), sg.next_value(st, sig))
          << "state " << st << " signal " << stg.signal(sig).name;
    }
  }
}

// --- off-set prime generation vs the all-pairs QM oracle ----------------------

/// The off-set generator's primes and cover next to the oracle's; the oracle
/// takes the don't-cares (every code in neither set) explicitly.
struct OracleComparison {
  std::vector<MinCube> primes, oracle_primes, cover, oracle_cover;
};

OracleComparison compare_with_oracle(const std::vector<std::uint32_t>& on,
                                     const std::vector<std::uint32_t>& off,
                                     unsigned nvars) {
  std::vector<bool> cared(std::size_t{1} << nvars, false);
  for (const std::uint32_t m : on) cared[m] = true;
  for (const std::uint32_t m : off) cared[m] = true;
  std::vector<std::uint32_t> dc;
  for (std::uint32_t m = 0; m < cared.size(); ++m)
    if (!cared[m]) dc.push_back(m);
  return {prime_implicants(off, nvars),
          xatpg::testing::oracle_prime_implicants(on, dc, nvars),
          minimize_sop(on, off, nvars),
          xatpg::testing::oracle_minimize_sop(on, dc, nvars)};
}

void expect_matches(const OracleComparison& c, const std::string& label) {
  EXPECT_EQ(c.primes, c.oracle_primes) << label;
  EXPECT_EQ(c.cover, c.oracle_cover) << label;
}

TEST(CoverOracle, BenchmarkFunctions) {
  // Every function the two benchmark suites synthesise: set, reset and the
  // StandardC reset complement per SI signal, the next-state function per
  // BD signal.
  struct Function {
    std::string label;
    std::vector<std::uint32_t> on, off;
    unsigned nvars;
  };
  std::vector<Function> functions;
  const auto each_output = [&](const std::string& name, const auto& visit) {
    const Stg stg = benchmark_stg(name);
    const StateGraph sg = expand_stg(stg);
    for (std::uint32_t sig = 0; sig < stg.num_signals(); ++sig)
      if (stg.signal(sig).kind != SignalKind::Input)
        visit(sg, sig, name + "/" + stg.signal(sig).name);
  };
  for (const std::string& name : si_benchmark_names())
    each_output(name, [&](const StateGraph& sg, std::uint32_t sig,
                          const std::string& label) {
      const NsFunction set = set_function(sg, sig);
      const NsFunction reset = reset_function(sg, sig);
      functions.push_back({label + " set", set.on, set.off, set.nvars});
      functions.push_back({label + " reset", reset.on, reset.off, reset.nvars});
      functions.push_back(
          {label + " reset complement", reset.off, reset.on, reset.nvars});
    });
  for (const std::string& name : bd_benchmark_names())
    each_output(name, [&](const StateGraph& sg, std::uint32_t sig,
                          const std::string& label) {
      const NsFunction ns = next_state_function(sg, sig);
      functions.push_back({label + " next-state", ns.on, ns.off, ns.nvars});
    });
  ASSERT_EQ(functions.size(), 294u);

  // The oracle walks each function's whole implicant lattice (about a
  // second apiece on mr1 and sbuf-send-ctl), so four workers share the
  // functions; the comparisons are asserted afterwards on this thread, and
  // get() rethrows anything a worker threw.
  std::vector<OracleComparison> results(functions.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::future<void>> workers;
  for (int w = 0; w < 4; ++w)
    workers.push_back(std::async(std::launch::async, [&] {
      for (std::size_t i = next++; i < functions.size(); i = next++)
        results[i] = compare_with_oracle(functions[i].on, functions[i].off,
                                         functions[i].nvars);
    }));
  for (std::future<void>& worker : workers) worker.get();
  for (std::size_t i = 0; i < functions.size(); ++i)
    expect_matches(results[i], functions[i].label);
}

TEST(CoverOracle, RandomPartitions) {
  Rng rng(0xc0ffee);
  for (unsigned trial = 0; trial < 3000; ++trial) {
    const unsigned nvars = trial % 9;
    // Per-trial class weights (in eighths), so that empty, sparse, dense
    // and full off-sets all occur.
    const std::uint64_t off_cut = rng.below(9);
    const std::uint64_t on_cut = off_cut + rng.below(9 - off_cut);
    std::vector<std::uint32_t> on, off;
    for (std::uint32_t m = 0; m < (1u << nvars); ++m) {
      const std::uint64_t x = rng.below(8);
      if (x < off_cut) {
        off.push_back(m);
      } else if (x < on_cut) {
        on.push_back(m);
      }
    }
    // The generator must not depend on off-set order.
    for (std::size_t i = off.size(); i > 1; --i)
      std::swap(off[i - 1], off[rng.below(i)]);
    expect_matches(compare_with_oracle(on, off, nvars),
                   "trial " + std::to_string(trial));
  }
}

TEST(CoverOracle, EdgeCases) {
  for (unsigned nvars = 0; nvars <= 8; ++nvars) {
    const std::string label = std::to_string(nvars) + " variables";
    std::vector<std::uint32_t> all;
    for (std::uint32_t m = 0; m < (1u << nvars); ++m) all.push_back(m);
    // Empty off-set: the tautology cube is the only prime.
    EXPECT_EQ(prime_implicants({}, nvars), std::vector<MinCube>{MinCube{}})
        << label;
    expect_matches(compare_with_oracle(all, {}, nvars),
                   label + ", everything on");
    expect_matches(compare_with_oracle({}, {}, nvars),
                   label + ", everything dc");
    // Everything off: no primes at all.
    EXPECT_TRUE(prime_implicants(all, nvars).empty()) << label;
    expect_matches(compare_with_oracle({}, all, nvars),
                   label + ", everything off");
    // Duplicate off-minterms change nothing.
    const auto middle = all.begin() + static_cast<long>(all.size() / 2);
    const std::vector<std::uint32_t> low(all.begin(), middle);
    const std::vector<std::uint32_t> high(middle, all.end());
    std::vector<std::uint32_t> twice = low;
    twice.insert(twice.end(), low.begin(), low.end());
    EXPECT_EQ(prime_implicants(twice, nvars), prime_implicants(low, nvars))
        << label;
    expect_matches(compare_with_oracle(high, twice, nvars),
                   label + ", duplicate off");
  }
  // nvars = 0: the single code 0 is either off or not.
  EXPECT_EQ(minimize_sop({0}, {}, 0), std::vector<MinCube>{MinCube{}});
  EXPECT_TRUE(minimize_sop({}, {0}, 0).empty());
  // Full 32-bit width: the universe cube splits on every variable.
  EXPECT_EQ(prime_implicants({}, 32), std::vector<MinCube>{MinCube{}});
  EXPECT_EQ(prime_implicants({0}, 32).size(), 32u);
  EXPECT_EQ(prime_implicants({~0u}, 32).size(), 32u);
  EXPECT_THROW(prime_implicants({4}, 2), CheckError);  // code outside nvars
}

}  // namespace
}  // namespace xatpg
