// Cross-module property tests: invariants that tie independent
// implementations of the same semantics to each other (symbolic vs
// explicit, scalar vs parallel, faulty-netlist materialization vs lane
// injection).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "atpg/fault.hpp"
#include "benchmarks/benchmarks.hpp"
#include "bdd/bdd.hpp"
#include "fixtures.hpp"
#include "sgraph/cssg.hpp"
#include "sim/explicit.hpp"
#include "sim/parallel.hpp"
#include "sim/ternary.hpp"
#include "util/packed.hpp"
#include "util/random.hpp"

namespace xatpg {
namespace {

// --- BDD algebra sweeps -------------------------------------------------------

class BddProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  BddManager mgr{12};
  Rng rng{GetParam()};

  Bdd random_function(int depth) {
    return fixtures::random_bdd(mgr, rng, depth, 12);
  }
};

TEST_P(BddProperty, QuantifierDualities) {
  for (int i = 0; i < 10; ++i) {
    const Bdd f = random_function(4);
    const Bdd cube = mgr.make_cube(
        {std::uint32_t(rng.below(12)), std::uint32_t(rng.below(12))});
    // ∃x f == !∀x !f
    EXPECT_EQ(mgr.exists(f, cube), !mgr.forall(!f, cube));
    // ∀x f implies f's universal abstraction is below existential
    EXPECT_TRUE(mgr.forall(f, cube).implies(mgr.exists(f, cube)));
  }
}

TEST_P(BddProperty, AndExistsFusionMatchesComposition) {
  for (int i = 0; i < 10; ++i) {
    const Bdd f = random_function(4);
    const Bdd g = random_function(4);
    const Bdd cube = mgr.make_cube({std::uint32_t(rng.below(12)),
                                    std::uint32_t(rng.below(12)),
                                    std::uint32_t(rng.below(12))});
    EXPECT_EQ(mgr.and_exists(f, g, cube), mgr.exists(f & g, cube));
  }
}

TEST_P(BddProperty, ComposeAgainstCofactorShannon) {
  for (int i = 0; i < 10; ++i) {
    const Bdd f = random_function(4);
    const Bdd g = random_function(3);
    const std::uint32_t v = rng.below(12);
    // f[v <- g] == g & f|v=1  |  !g & f|v=0
    const Bdd expected = (g & mgr.cofactor(f, v, true)) |
                         ((!g) & mgr.cofactor(f, v, false));
    EXPECT_EQ(mgr.compose(f, v, g), expected);
  }
}

TEST_P(BddProperty, SatCountConsistentWithMinterms) {
  for (int i = 0; i < 5; ++i) {
    const Bdd f = random_function(3);
    std::vector<std::uint32_t> vars;
    for (std::uint32_t v = 0; v < 12; ++v) vars.push_back(v);
    const auto minterms = mgr.all_minterms(f, vars, 1u << 13);
    EXPECT_DOUBLE_EQ(mgr.sat_count(f, 12),
                     static_cast<double>(minterms.size()));
  }
}

TEST_P(BddProperty, MintermsAllSatisfyAndAreDistinct) {
  const Bdd f = random_function(4);
  if (f.is_false()) GTEST_SKIP();
  std::vector<std::uint32_t> vars;
  for (std::uint32_t v = 0; v < 12; ++v) vars.push_back(v);
  const auto minterms = mgr.all_minterms(f, vars, 1u << 13);
  std::set<std::vector<bool>> unique(minterms.begin(), minterms.end());
  EXPECT_EQ(unique.size(), minterms.size());
  for (const auto& m : minterms) EXPECT_TRUE(mgr.eval(f, m));
  // vars ascend in level, so the enumeration is lexicographic, vars[0] first.
  EXPECT_TRUE(std::is_sorted(minterms.begin(), minterms.end()));
}

TEST_P(BddProperty, MintermRowsScatterBitsAcrossWords) {
  // vars[v] goes to bit 127 - 9v of a two-word row (127 down to 28, across
  // the word boundary); every other bit stays zero, rows already in the
  // buffer stay, and the rows unpack to all_minterms in the same order.
  const Bdd f = random_function(4);
  std::vector<std::uint32_t> vars, bits;
  for (std::uint32_t v = 0; v < 12; ++v) {
    vars.push_back(v);
    bits.push_back(127 - 9 * v);
  }
  const std::vector<StateWord> kept{~StateWord{0}, 7};
  std::vector<StateWord> rows = kept;
  mgr.append_minterm_rows(f, vars, bits, 2, rows, 1u << 13);
  const auto minterms = mgr.all_minterms(f, vars, 1u << 13);
  ASSERT_EQ(rows.size(), 2 * (minterms.size() + 1));
  EXPECT_TRUE(std::equal(kept.begin(), kept.end(), rows.begin()));
  for (std::size_t m = 0; m < minterms.size(); ++m) {
    const StateWord* row = rows.data() + 2 * (m + 1);
    std::vector<bool> expected(128, false);
    for (std::size_t v = 0; v < vars.size(); ++v)
      expected[bits[v]] = minterms[m][v];
    EXPECT_EQ(unpack_state(row, 128), expected) << "row " << m;
  }
}

TEST(BddMintermRows, CheckLimitSupportAndWidth) {
  BddManager mgr(6);
  Bdd f = mgr.var(0);
  for (std::uint32_t v = 1; v < 6; ++v) f |= mgr.var(v);  // 63 of 64
  std::vector<std::uint32_t> vars{0, 1, 2, 3, 4, 5};
  std::vector<std::uint32_t> bits{0, 1, 2, 3, 4, 5};
  std::vector<StateWord> rows;
  mgr.append_minterm_rows(f, vars, bits, 1, rows, 63);
  EXPECT_EQ(rows.size(), 63u);
  rows.clear();
  EXPECT_THROW(mgr.append_minterm_rows(f, vars, bits, 1, rows, 62),
               CheckError);
  EXPECT_THROW(mgr.append_minterm_rows(f, {0, 1, 2}, {0, 1, 2}, 1, rows),
               CheckError);  // vars do not cover the support
  EXPECT_THROW(mgr.append_minterm_rows(f, vars, {0, 1, 2, 3, 4, 64}, 1, rows),
               CheckError);  // bit 64 is outside a one-word row
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

// --- faulty netlist vs lane injection -----------------------------------------

class FaultEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(FaultEquivalence, MaterializedNetlistMatchesLaneInjection) {
  // The two independent fault mechanisms — rebuilding the netlist
  // (apply_fault) and forcing rails in the parallel simulator
  // (LaneInjection) — must agree on the settled state for every fault and
  // a set of probe vectors, whenever the parallel (conservative) simulator
  // resolves to definite values.
  const SynthResult synth =
      benchmark_circuit(GetParam(), SynthStyle::SpeedIndependent);
  const Netlist& good = synth.netlist;
  const auto faults = input_stuck_faults(good);
  Rng rng(42);

  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    const Fault& fault = faults[fi];
    const Netlist faulty = apply_fault(good, fault);
    TernarySim faulty_scalar(faulty);
    ParallelTernarySim par(good, {fault.to_injection(1ull << 1)});

    std::vector<bool> vec;
    for (const SignalId in : good.inputs())
      vec.push_back(!synth.reset_state[in]);

    // Parallel lane 1 carries the injected fault.
    par.load_state(synth.reset_state);
    par.settle(vec);

    // Scalar run on the materialized netlist.
    const auto scalar = faulty_scalar.settle(
        fault_initial_state(good, fault, synth.reset_state),
        map_input_vector(good, faulty, vec));

    for (SignalId s = 0; s < good.num_signals(); ++s) {
      if (fault.site == Fault::Site::SignalOutput && fault.gate == s) continue;
      const Ternary lane = par.value(s, 1);
      const Ternary mat = scalar.state[s];
      if (lane != Ternary::X && mat != Ternary::X) {
        EXPECT_EQ(lane, mat) << GetParam() << " " << fault.describe(good)
                             << " signal " << good.signal_name(s);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Circuits, FaultEquivalence,
                         ::testing::Values("rpdft", "dff", "rcv-setup",
                                           "vbe5b"),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

// --- random netlists: conservative vs exact simulation ------------------------

class RandomNetlistProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomNetlistProperty, GeneratorIsDeterministicAndValid) {
  const fixtures::Circuit a = fixtures::random_netlist(GetParam());
  const fixtures::Circuit b = fixtures::random_netlist(GetParam());
  EXPECT_EQ(write_xnl_string(a.netlist), write_xnl_string(b.netlist));
  EXPECT_EQ(a.reset, b.reset);
  EXPECT_TRUE(a.netlist.is_stable_state(a.reset));
}

TEST_P(RandomNetlistProperty, TernaryNeverMissesARace) {
  // The fixture generator covers gate mixes no hand-written circuit does;
  // on each generated circuit, every vector from reset must satisfy the
  // soundness contract: >= 2 exact outcomes implies non-confluent ternary,
  // and a definite ternary settle implies a unique exact outcome.
  const fixtures::Circuit fix = fixtures::random_netlist(GetParam());
  const Netlist& n = fix.netlist;
  TernarySim sim(n);
  const std::size_t m = n.inputs().size();
  for (std::uint64_t bits = 0; bits < (1ull << m); ++bits) {
    std::vector<bool> vec(m);
    for (std::size_t i = 0; i < m; ++i) vec[i] = (bits >> i) & 1;
    const auto ternary = sim.settle(fix.reset, vec);
    const auto exact = explore_settling(n, fix.reset, vec, 40);
    if (exact.stable_states.size() >= 2) {
      EXPECT_FALSE(ternary.confluent) << n.name() << " vector " << bits;
    }
    if (ternary.confluent && !exact.exceeded_bound) {
      ASSERT_EQ(exact.stable_states.size(), 1u)
          << n.name() << " vector " << bits;
      EXPECT_EQ(*exact.stable_states.begin(), ternary.final_state());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetlistProperty,
                         ::testing::Values(1u, 7u, 21u, 99u, 1234u));

// --- CSSG determinism, symbolically --------------------------------------------

class CssgDeterminism : public ::testing::TestWithParam<std::string> {};

TEST_P(CssgDeterminism, RelationIsAFunctionOfStateAndPattern) {
  // Directly on the BDDs: there must be no pair of CSSG edges from the
  // same state whose successors agree on all inputs but differ on a gate.
  const SynthResult synth =
      benchmark_circuit(GetParam(), SynthStyle::SpeedIndependent);
  CssgOptions options;
  options.k = 24;
  Cssg cssg(synth.netlist, synth.reset_state, options);
  SymbolicEncoding& enc = cssg.encoding();
  BddManager& mgr = enc.mgr();

  const Bdd rel_xw = enc.next_to_aux(cssg.relation());
  Bdd eq_inputs = mgr.bdd_true();
  Bdd eq_all = mgr.bdd_true();
  for (SignalId s = 0; s < enc.num_signals(); ++s) {
    const Bdd eq = !(enc.next(s) ^ enc.aux(s));
    eq_all &= eq;
    if (synth.netlist.is_input(s)) eq_inputs &= eq;
  }
  const Bdd two_successors =
      cssg.relation() & rel_xw & eq_inputs & !eq_all;
  EXPECT_TRUE(two_successors.is_false()) << GetParam();
}

TEST_P(CssgDeterminism, RingsPartitionReachable) {
  const SynthResult synth =
      benchmark_circuit(GetParam(), SynthStyle::SpeedIndependent);
  CssgOptions options;
  options.k = 24;
  Cssg cssg(synth.netlist, synth.reset_state, options);
  BddManager& mgr = cssg.encoding().mgr();
  Bdd unioned = mgr.bdd_false();
  for (std::size_t i = 0; i < cssg.rings().size(); ++i) {
    for (std::size_t j = i + 1; j < cssg.rings().size(); ++j)
      EXPECT_TRUE((cssg.rings()[i] & cssg.rings()[j]).is_false())
          << "rings " << i << "," << j << " overlap";
    unioned |= cssg.rings()[i];
  }
  EXPECT_EQ(unioned, cssg.cssg_reachable());
}

TEST_P(CssgDeterminism, ImagePreimageAdjoint) {
  const SynthResult synth =
      benchmark_circuit(GetParam(), SynthStyle::SpeedIndependent);
  CssgOptions options;
  options.k = 24;
  Cssg cssg(synth.netlist, synth.reset_state, options);
  // img(S) ∩ T nonempty  <=>  S ∩ pre(T) nonempty, for sample S, T.
  const Bdd s = cssg.rings().front();
  for (const Bdd& t : cssg.rings()) {
    const bool forward = !(cssg.image(s) & t).is_false();
    const bool backward = !(s & cssg.preimage(t)).is_false();
    EXPECT_EQ(forward, backward);
  }
}

INSTANTIATE_TEST_SUITE_P(Circuits, CssgDeterminism,
                         ::testing::Values("rpdft", "chu150", "ebergen",
                                           "seq4", "mmu", "vbe5b"),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

// --- synthesized implementations vs specification -------------------------------

class ImplementationFidelity : public ::testing::TestWithParam<std::string> {};

TEST_P(ImplementationFidelity, BothStylesComputeTheSameNextState) {
  // On every reachable SG code, the SI gC target and the BD SOP target of
  // each non-input signal must both equal the specification's next-state
  // value (they may differ on unreachable codes — that is the don't-care
  // freedom).
  const Stg stg = benchmark_stg(GetParam());
  const StateGraph sg = expand_stg(stg);
  const SynthResult si = benchmark_circuit(GetParam(), SynthStyle::SpeedIndependent);
  const SynthResult bd = benchmark_circuit(GetParam(), SynthStyle::BoundedDelay);

  for (std::uint32_t st = 0; st < sg.num_states(); ++st) {
    // SI netlist: signals are the only gates.
    std::vector<bool> si_state(si.netlist.num_signals(), false);
    for (std::uint32_t sig = 0; sig < stg.num_signals(); ++sig)
      si_state[si.netlist.signal(stg.signal(sig).name)] = sg.codes[st][sig];
    // BD netlist: relax the auxiliary combinational gates first.
    std::vector<bool> bd_state(bd.netlist.num_signals(), false);
    for (std::uint32_t sig = 0; sig < stg.num_signals(); ++sig)
      bd_state[bd.netlist.signal(stg.signal(sig).name)] = sg.codes[st][sig];
    for (std::size_t pass = 0; pass < bd.netlist.num_signals(); ++pass) {
      bool changed = false;
      for (SignalId s = 0; s < bd.netlist.num_signals(); ++s) {
        bool is_protocol_signal = false;
        for (std::uint32_t sig = 0; sig < stg.num_signals(); ++sig)
          if (bd.netlist.signal_name(s) == stg.signal(sig).name)
            is_protocol_signal = true;
        if (is_protocol_signal) continue;
        const bool target = bd.netlist.eval_gate_bool(s, bd_state);
        if (bd_state[s] != target) {
          bd_state[s] = target;
          changed = true;
        }
      }
      if (!changed) break;
    }
    for (std::uint32_t sig = 0; sig < stg.num_signals(); ++sig) {
      if (stg.signal(sig).kind == SignalKind::Input) continue;
      const bool expected = sg.next_value(st, sig);
      EXPECT_EQ(si.netlist.eval_gate_bool(
                    si.netlist.signal(stg.signal(sig).name), si_state),
                expected)
          << GetParam() << " SI " << stg.signal(sig).name << " state " << st;
      EXPECT_EQ(bd.netlist.eval_gate_bool(
                    bd.netlist.signal(stg.signal(sig).name), bd_state),
                expected)
          << GetParam() << " BD " << stg.signal(sig).name << " state " << st;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Circuits, ImplementationFidelity,
                         ::testing::ValuesIn(si_benchmark_names()),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

}  // namespace
}  // namespace xatpg
