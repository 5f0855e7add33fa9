#include "sgraph/cssg.hpp"

#include <gtest/gtest.h>

#include <set>

#include "benchmarks/benchmarks.hpp"
#include "fixtures.hpp"
#include "oracle.hpp"
#include "sim/explicit.hpp"
#include "sim/ternary.hpp"
#include "util/strings.hpp"

namespace xatpg {
namespace {

// --- encoding ----------------------------------------------------------------

TEST(Encoding, VariableLayoutsAreDisjoint) {
  const Netlist n = fig1a_circuit(nullptr);
  for (const VarOrder order : {VarOrder::Interleaved, VarOrder::Blocked,
                               VarOrder::ReverseInterleaved}) {
    SymbolicEncoding enc(n, order);
    std::set<std::uint32_t> seen;
    for (SignalId s = 0; s < n.num_signals(); ++s) {
      seen.insert(enc.cur_var(s));
      seen.insert(enc.next_var(s));
      seen.insert(enc.aux_var(s));
    }
    EXPECT_EQ(seen.size(), 3 * n.num_signals()) << var_order_name(order);
  }
}

TEST(Encoding, RenameRoundTrip) {
  const Netlist n = fig1a_circuit(nullptr);
  SymbolicEncoding enc(n);
  const Bdd f = enc.cur(0) & !enc.cur(2);
  const Bdd g = enc.cur_to_next(f);
  EXPECT_EQ(g, enc.next(0) & !enc.next(2));
  EXPECT_EQ(enc.next_to_cur(g), f);
}

TEST(Encoding, StateMintermRoundTrip) {
  std::vector<bool> st;
  const Netlist n = fig1a_circuit(&st);
  SymbolicEncoding enc(n);
  const Bdd m = enc.state_minterm_cur(st);
  EXPECT_EQ(enc.pick_state_cur(m), st);
  EXPECT_DOUBLE_EQ(enc.count_states_cur(m), 1.0);
}

TEST(Encoding, TargetMatchesBoolEval) {
  std::vector<bool> st;
  const Netlist n = fig1a_circuit(&st);
  SymbolicEncoding enc(n);
  // For each signal and a sample of states, the target BDD evaluated on a
  // state must equal eval_gate_bool.
  for (std::uint64_t bits = 0; bits < (1ull << n.num_signals()); ++bits) {
    std::vector<bool> state(n.num_signals());
    for (SignalId s = 0; s < n.num_signals(); ++s) state[s] = (bits >> s) & 1;
    std::vector<bool> assignment(enc.mgr().num_vars(), false);
    for (SignalId s = 0; s < n.num_signals(); ++s)
      assignment[enc.cur_var(s)] = state[s];
    for (SignalId s = 0; s < n.num_signals(); ++s)
      ASSERT_EQ(enc.mgr().eval(enc.target(s), assignment),
                n.eval_gate_bool(s, state))
          << "signal " << s << " state " << bits;
  }
}

TEST(Encoding, StablePredicateMatchesNetlist) {
  std::vector<bool> st;
  const Netlist n = fig1a_circuit(&st);
  SymbolicEncoding enc(n);
  const Bdd stable = enc.stable();
  for (std::uint64_t bits = 0; bits < (1ull << n.num_signals()); ++bits) {
    std::vector<bool> state(n.num_signals());
    for (SignalId s = 0; s < n.num_signals(); ++s) state[s] = (bits >> s) & 1;
    std::vector<bool> assignment(enc.mgr().num_vars(), false);
    for (SignalId s = 0; s < n.num_signals(); ++s)
      assignment[enc.cur_var(s)] = state[s];
    ASSERT_EQ(enc.mgr().eval(stable, assignment), n.is_stable_state(state));
  }
}

TEST(Encoding, AllStatesEnumerates) {
  const Netlist n = fig1a_circuit(nullptr);
  SymbolicEncoding enc(n);
  const Bdd set = enc.cur(0) & !enc.cur(1);  // 2^(n-2) states
  const auto states = enc.all_states_cur(set);
  EXPECT_EQ(states.size(), 1u << (n.num_signals() - 2));
  for (const auto& st : states) {
    EXPECT_TRUE(st[0]);
    EXPECT_FALSE(st[1]);
  }
}

// --- CSSG on the Figure 1 circuits -------------------------------------------

class CssgFig1a : public ::testing::Test {
 protected:
  CssgFig1a() {
    fixtures::Circuit fix = fixtures::fig1a();
    netlist = std::move(fix.netlist);
    reset = std::move(fix.reset);
    CssgOptions options;
    options.k = 20;
    cssg = std::make_unique<Cssg>(netlist, reset, options);
  }
  std::vector<bool> reset;
  Netlist netlist;
  std::unique_ptr<Cssg> cssg;
};

TEST_F(CssgFig1a, StableReachableMatchesExplicitOracle) {
  const auto explicit_states = explicit_stable_reachable(netlist, reset, 20);
  const auto symbolic_states =
      cssg->encoding().all_states_cur(cssg->stable_reachable());
  const std::set<std::vector<bool>> symbolic_set(symbolic_states.begin(),
                                                 symbolic_states.end());
  EXPECT_EQ(symbolic_set, explicit_states);
}

TEST_F(CssgFig1a, RacingVectorExcludedFromCssg) {
  // From the initial state (A=0,B=1), the pattern AB=10 races: there must
  // be no CSSG edge from reset with that input labeling.
  auto& enc = cssg->encoding();
  Bdd from_reset = cssg->relation() & enc.state_minterm_cur(reset);
  // Constrain successor inputs to A=1, B=0.
  from_reset &= enc.next(netlist.signal("A")) & !enc.next(netlist.signal("B"));
  EXPECT_TRUE(from_reset.is_false());
}

TEST_F(CssgFig1a, SafeVectorPresentInCssg) {
  // AB=11 from reset is confluent and must be a CSSG edge.
  auto& enc = cssg->encoding();
  Bdd edge = cssg->relation() & enc.state_minterm_cur(reset) &
             enc.next(netlist.signal("A")) & enc.next(netlist.signal("B"));
  EXPECT_FALSE(edge.is_false());
}

TEST_F(CssgFig1a, CssgEdgesAreDeterministic) {
  // For every (state, input pattern) there is at most one successor.
  const ExplicitCssg graph = cssg->extract_explicit();
  for (std::uint32_t id = 0; id < graph.states.size(); ++id) {
    std::set<std::vector<bool>> patterns;
    for (const std::uint32_t to : graph.edges[id])
      EXPECT_TRUE(patterns.insert(graph.inputs[to]).second)
          << "duplicate pattern from state " << id;
  }
}

TEST_F(CssgFig1a, CssgEdgesValidatedByExplicitExploration) {
  // Every explicit CSSG edge must be exactly the unique bounded settling of
  // its vector; every valid settling must be present as an edge.
  const ExplicitCssg graph = cssg->extract_explicit();
  const std::size_t m = netlist.inputs().size();
  for (std::uint32_t id = 0; id < graph.states.size(); ++id) {
    const auto& state = graph.states[id];
    std::set<std::vector<bool>> edge_patterns;
    for (const std::uint32_t to : graph.edges[id]) {
      edge_patterns.insert(graph.inputs[to]);
      const auto exact =
          explore_settling(netlist, state, graph.inputs[to], cssg->options().k);
      ASSERT_TRUE(exact.confluent());
      EXPECT_EQ(*exact.stable_states.begin(), graph.states[to]);
    }
    // Completeness: any confluent pattern must appear as an edge.
    for (std::uint64_t bits = 0; bits < (1ull << m); ++bits) {
      std::vector<bool> vec(m);
      bool same = true;
      for (std::size_t i = 0; i < m; ++i) {
        vec[i] = (bits >> i) & 1;
        same = same && (vec[i] == state[netlist.inputs()[i]]);
      }
      if (same) continue;
      const auto exact = explore_settling(netlist, state, vec, cssg->options().k);
      EXPECT_EQ(edge_patterns.count(vec) > 0, exact.confluent())
          << "state " << id << " pattern bits " << bits;
    }
  }
}

TEST_F(CssgFig1a, JustifyReachesTarget) {
  // Justify the state with y latched (if CSSG-reachable).
  auto& enc = cssg->encoding();
  const Bdd target = enc.cur(netlist.signal("y")) & cssg->cssg_reachable();
  if (target.is_false()) GTEST_SKIP() << "y=1 not reachable via valid vectors";
  const auto just = cssg->justify(target);
  ASSERT_TRUE(just.has_value());
  // Replay the vectors with ternary simulation; must be confluent at every
  // step and land on the target.
  TernarySim sim(netlist);
  std::vector<bool> state = reset;
  for (const auto& vec : just->vectors) {
    const auto settled = sim.settle(state, vec);
    ASSERT_TRUE(settled.confluent);
    state = settled.final_state();
  }
  EXPECT_EQ(state, just->final_state);
  EXPECT_TRUE(state[netlist.signal("y")]);
}

TEST_F(CssgFig1a, JustifyUnreachableReturnsNullopt) {
  auto& enc = cssg->encoding();
  // A state outside the reachable set: all signals 1 including c with a=0
  // is unstable/unreachable; intersect with nothing reachable.
  const Bdd impossible = enc.state_minterm_cur(
      std::vector<bool>(netlist.num_signals(), true)) & !cssg->cssg_reachable();
  const Bdd target = impossible & !cssg->cssg_reachable();
  if (!(target & cssg->cssg_reachable()).is_false()) GTEST_SKIP();
  EXPECT_FALSE(cssg->justify(target).has_value());
}

TEST_F(CssgFig1a, StatsAreConsistent) {
  const CssgStats& st = cssg->stats();
  EXPECT_GT(st.reachable_states, 0);
  EXPECT_GT(st.stable_states, 0);
  EXPECT_LE(st.stable_states, st.reachable_states);
  EXPECT_GT(st.cssg_edges, 0);
  EXPECT_LE(st.cssg_edges, st.tcr_pairs);
  EXPECT_GE(st.cssg_reachable_states, 1);
  EXPECT_LE(st.cssg_reachable_states, st.stable_states);
}

TEST_F(CssgFig1a, DotExport) {
  const std::string dot = cssg->to_dot(cssg->extract_explicit());
  EXPECT_NE(dot.find("digraph cssg"), std::string::npos);
}

TEST_F(CssgFig1a, DotLabelsArePinned) {
  // Session::cssg_dot() and `xatpg cssg` print this text: states labelled
  // by their '0'/'1' signal values (signals A B a b c y), reset doubled,
  // edges by the inputs that flip.
  EXPECT_EQ(cssg->to_dot(cssg->extract_explicit()), R"(digraph cssg {
  rankdir=LR;
  s0 [label="010010" shape=doublecircle];
  s1 [label="000000"];
  s2 [label="111111"];
  s3 [label="001000"];
  s4 [label="011010"];
  s5 [label="101100"];
  s6 [label="100100"];
  s0 -> s1 [label="B-"];
  s0 -> s2 [label="A+"];
  s1 -> s0 [label="B+"];
  s1 -> s6 [label="A+"];
  s1 -> s2 [label="A+B+"];
  s2 -> s3 [label="A-B-"];
  s2 -> s4 [label="A-"];
  s2 -> s5 [label="B-"];
  s3 -> s4 [label="B+"];
  s3 -> s5 [label="A+"];
  s3 -> s2 [label="A+B+"];
  s4 -> s3 [label="B-"];
  s4 -> s5 [label="A+B-"];
  s4 -> s2 [label="A+"];
  s5 -> s3 [label="A-"];
  s5 -> s4 [label="A-B+"];
  s5 -> s2 [label="B+"];
  s6 -> s1 [label="A-"];
  s6 -> s2 [label="B+"];
}
)");
}

TEST_F(CssgFig1a, ExplicitFindChecksTheStateWidth) {
  const ExplicitCssg graph = cssg->extract_explicit();
  ASSERT_EQ(graph.find(reset), 0u);
  // Same packed words, one signal more or less: not a state of this graph.
  std::vector<bool> wider = reset;
  wider.push_back(false);
  EXPECT_FALSE(graph.find(wider).has_value());
  const std::vector<bool> all_zero(reset.size(), false);
  ASSERT_TRUE(graph.find(all_zero).has_value());
  EXPECT_FALSE(
      graph.find(std::vector<bool>(reset.size() - 1, false)).has_value());
}

TEST(CssgFig1b, OscillatingVectorExcluded) {
  std::vector<bool> reset;
  const Netlist netlist = fig1b_circuit(&reset);
  CssgOptions options;
  options.k = 16;
  Cssg cssg(netlist, reset, options);
  auto& enc = cssg.encoding();
  // A+ with B=0 oscillates: no such edge from reset.
  Bdd edge = cssg.relation() & enc.state_minterm_cur(reset) &
             enc.next(netlist.signal("A")) & !enc.next(netlist.signal("B"));
  EXPECT_TRUE(edge.is_false());
  // A+B+ is also excluded: even though every fair execution converges, the
  // c/d ring can ping-pong unboundedly while b's rise is postponed, so some
  // k-step trajectory is still unstable (a "transient oscillation" in the
  // paper's §2 sense).
  Bdd ab = cssg.relation() & enc.state_minterm_cur(reset) &
           enc.next(netlist.signal("A")) & enc.next(netlist.signal("B"));
  EXPECT_TRUE(ab.is_false());
  // B+ alone is hazard-free (d is held at 1 by b): the edge exists.
  Bdd good = cssg.relation() & enc.state_minterm_cur(reset) &
             !enc.next(netlist.signal("A")) & enc.next(netlist.signal("B"));
  EXPECT_FALSE(good.is_false());
  EXPECT_GT(cssg.stats().unstable_pairs + cssg.stats().nonconfluent_pairs, 0);
}

// --- CSSG on synthesized benchmarks (cross-validation) -----------------------

class CssgBenchmark : public ::testing::TestWithParam<std::string> {};

TEST_P(CssgBenchmark, ExplicitGraphMatchesOracle) {
  const SynthResult r = benchmark_circuit(GetParam(), SynthStyle::SpeedIndependent);
  if (r.netlist.num_signals() > 12) GTEST_SKIP() << "oracle too slow";
  CssgOptions options;
  options.k = 24;
  Cssg cssg(r.netlist, r.reset_state, options);
  const ExplicitCssg graph = cssg.extract_explicit();
  EXPECT_GE(graph.states.size(), 2u);

  // Sample validation: every edge's settlement is confluent and lands on
  // the recorded successor (full exploration on the first 10 states).
  const std::size_t check = std::min<std::size_t>(graph.states.size(), 10);
  for (std::uint32_t id = 0; id < check; ++id) {
    for (const std::uint32_t to : graph.edges[id]) {
      const auto exact = explore_settling(r.netlist, graph.states[id],
                                          graph.inputs[to], options.k);
      ASSERT_TRUE(exact.confluent()) << GetParam();
      EXPECT_EQ(*exact.stable_states.begin(), graph.states[to]);
    }
  }
}

TEST_P(CssgBenchmark, OperationVectorsAreValid) {
  // The circuit's own operating protocol (SG input events applied one at a
  // time) must survive CSSG pruning: an SI circuit is race-free in
  // operation mode, so each single-input-change vector from a quiescent
  // protocol state must be a CSSG edge.
  const Stg stg = benchmark_stg(GetParam());
  const StateGraph sg = expand_stg(stg);
  const SynthResult r = benchmark_circuit(GetParam(), SynthStyle::SpeedIndependent);
  CssgOptions options;
  options.k = 24;
  Cssg cssg(r.netlist, r.reset_state, options);
  auto& enc = cssg.encoding();

  // From reset, apply the first enabled SG input event; the corresponding
  // CSSG edge must exist.
  std::vector<bool> vec;
  for (const SignalId in : r.netlist.inputs())
    vec.push_back(r.reset_state[in]);
  // Find an input event enabled in the quiescent reset situation.
  bool found = false;
  for (std::uint32_t st = 0; st < sg.num_states() && !found; ++st) {
    bool match = true;
    for (std::uint32_t sig = 0; sig < stg.num_signals(); ++sig)
      match = match && (sg.codes[st][sig] ==
                        r.reset_state[r.netlist.signal(stg.signal(sig).name)]);
    if (!match) continue;
    for (const auto& e : sg.edges[st]) {
      const auto& tr = stg.transition(e.transition);
      if (stg.signal(tr.signal).kind != SignalKind::Input) continue;
      for (std::size_t i = 0; i < r.netlist.inputs().size(); ++i)
        if (r.netlist.signal_name(r.netlist.inputs()[i]) ==
            stg.signal(tr.signal).name)
          vec[i] = tr.rising;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << GetParam();

  Bdd edge = cssg.relation() & enc.state_minterm_cur(r.reset_state);
  for (std::size_t i = 0; i < vec.size(); ++i) {
    const Bdd lit = enc.next(r.netlist.inputs()[i]);
    edge &= vec[i] ? lit : !lit;
  }
  EXPECT_FALSE(edge.is_false()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(SmallBenchmarks, CssgBenchmark,
                         ::testing::Values("rpdft", "dff", "rcv-setup",
                                           "chu150", "converta", "vbe5b"),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

// --- packed extraction vs the oracle extraction ------------------------------
// extract_explicit enumerates successors straight into packed rows and keeps
// one input vector per state; the extraction it replaced (std::vector<bool>
// states, a pattern on every edge) lives on in tests/oracle.hpp.  The
// oracle's graph does not depend on the variable order, so it is built once
// per circuit and every order's packed graph must equal it id for id and
// edge for edge.

const std::vector<VarOrder> kAllOrders{VarOrder::Interleaved, VarOrder::Blocked,
                                       VarOrder::ReverseInterleaved};

/// The aggressive policy test_differential uses, so sifting fires during
/// construction and extraction and the enumerator's sort path runs.
ReorderPolicy aggressive_reorder() {
  ReorderPolicy policy;
  policy.enabled = true;
  policy.trigger_nodes = 256;
  return policy;
}

void expect_extraction_matches_oracle(
    const Netlist& netlist, const std::vector<bool>& reset, std::size_t k,
    const std::vector<VarOrder>& orders = kAllOrders,
    const ReorderPolicy& reorder = aggressive_reorder()) {
  std::optional<testing::OracleExplicitCssg> oracle;
  for (const VarOrder order : orders) {
    SCOPED_TRACE(std::string("order=") + var_order_name(order));
    CssgOptions options;
    options.k = k;
    options.order = order;
    options.reorder = reorder;
    const Cssg cssg(netlist, reset, options);
    const ExplicitCssg graph = cssg.extract_explicit();
    if (!oracle) oracle = testing::oracle_extract_explicit(cssg);
    EXPECT_EQ(std::string(), testing::explicit_oracle_mismatch(graph, *oracle));
  }
}

using NamedFixture = std::pair<const char*, fixtures::Circuit (*)()>;

const NamedFixture kFixtures[] = {{"fig1a", &fixtures::fig1a},
                                  {"fig1b", &fixtures::fig1b},
                                  {"chain", &fixtures::chain},
                                  {"celem", &fixtures::celem},
                                  {"latch", &fixtures::async_latch},
                                  {"pipeline2", &fixtures::pipeline2}};

std::string fixture_name(
    const ::testing::TestParamInfo<NamedFixture>& param_info) {
  return param_info.param.first;
}

class ExtractionFixture : public ::testing::TestWithParam<NamedFixture> {};

TEST_P(ExtractionFixture, PackedMatchesOracleForEveryOrder) {
  const fixtures::Circuit fix = GetParam().second();
  expect_extraction_matches_oracle(fix.netlist, fix.reset, 20);
}

INSTANTIATE_TEST_SUITE_P(Fixtures, ExtractionFixture,
                         ::testing::ValuesIn(kFixtures), fixture_name);

TEST(ExtractionBenchmarks, PackedMatchesOracleForEveryOrder) {
  // Both suites, up to the 12 signals the CSSG oracles stop at (only
  // bd/trimos-send, bd/vbe10b and bd/vbe6a are wider: under the blocked
  // order their symbolic construction alone takes 2-180 s).
  const auto check = [](const std::string& name, SynthStyle style) {
    SCOPED_TRACE(name);
    const SynthResult r = benchmark_circuit(name, style);
    if (r.netlist.num_signals() > 12) return;
    expect_extraction_matches_oracle(r.netlist, r.reset_state, 24);
  };
  for (const std::string& name : si_benchmark_names())
    check(name, SynthStyle::SpeedIndependent);
  for (const std::string& name : bd_benchmark_names())
    check(name, SynthStyle::BoundedDelay);
}

class ExtractionParity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ExtractionParity, PackedMatchesOracle) {
  // From 7 inputs on, the blocked order's symbolic construction takes
  // seconds (7 s at 8 inputs) before extraction starts; the other three
  // orders cover the level-order and sort paths.
  const fixtures::Circuit fix = fixtures::parity_tree(GetParam());
  expect_extraction_matches_oracle(
      fix.netlist, fix.reset, 24,
      GetParam() <= 6 ? kAllOrders
                      : std::vector<VarOrder>{VarOrder::Interleaved,
                                              VarOrder::ReverseInterleaved});
}

INSTANTIATE_TEST_SUITE_P(Inputs, ExtractionParity,
                         ::testing::Range<std::size_t>(2, 11));

class ExtractionRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExtractionRandom, PackedMatchesOracleForEveryOrder) {
  fixtures::RandomNetlistOptions options;
  options.num_inputs = 3;
  options.num_gates = 3 + GetParam() % 3;
  const fixtures::Circuit fix = fixtures::random_netlist(GetParam(), options);
  expect_extraction_matches_oracle(fix.netlist, fix.reset, 20);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtractionRandom,
                         ::testing::Range<std::uint64_t>(1, 31));

/// Two inputs fanning out to 70 AND/OR gates: 72 signals, two words a row.
Netlist two_word_netlist() {
  std::string text = "INPUT(a)\nINPUT(b)\n";
  for (int g = 0; g < 70; ++g) {
    const std::string name = indexed_name("g", g);
    text += "OUTPUT(" + name + ")\n" + name +
            (g % 2 == 0 ? " = AND(a, b)\n" : " = OR(a, b)\n");
  }
  return parse_bench_string(text);
}

TEST(ExtractionTwoWords, PackedMatchesOracle) {
  // Two inputs fanning out to 70 AND/OR gates: 72 signals, so every row
  // takes two words; 4 states and 12 edges.  The reversed order sorts
  // two-word rows.  Reordering stays off and the blocked order out: one
  // sift of these 44k-node tables takes about a second, and the blocked
  // layout cannot build the relations at all.
  const Netlist netlist = two_word_netlist();
  ASSERT_EQ(netlist.num_signals(), 72u);
  const std::vector<bool> reset(netlist.num_signals(), false);
  expect_extraction_matches_oracle(
      netlist, reset, 80,
      {VarOrder::Interleaved, VarOrder::ReverseInterleaved}, ReorderPolicy{});

  CssgOptions options;
  options.k = 80;
  const ExplicitCssg graph = Cssg(netlist, reset, options).extract_explicit();
  EXPECT_EQ(graph.states.size(), 4u);
  std::size_t edges = 0;
  for (const auto& succs : graph.edges) edges += succs.size();
  EXPECT_EQ(edges, 12u);
}

// --- lazy successor lists vs the eager extraction ---------------------------
// LazyCssg builds a state's list on its first read, and the engine reads
// lists in whatever order its walks and searches go; extract_explicit()
// stays the reference.  The reads here take a seeded shuffled order: each
// picks a random state whose list is still unread among those the lists
// built so far reach, so builds interleave with sifting at arbitrary
// points and the lazy ids differ from the eager ones.  Every list, mapped
// to its states, must equal the eager list of the same state, and a list
// read twice is built once.  Before and after its list is built, each
// state's rank reads must name the list's entries (rank_read_mismatch):
// every rank up to 8 inputs, a seeded sample of ranks above that.  Lists
// do not depend on the variable order, so the first order's eager graph
// is the reference for every order (a list that did would differ here).
// The circuits and exemptions are the Extraction* suites', with parity up
// to 12 inputs.

/// The ranks expect_lazy_matches_eager reads out of a list of `count`:
/// all of them up to 8 inputs, else the first, the last and one drawn.
std::vector<std::uint64_t> ranks_to_read(std::size_t inputs, std::size_t count,
                                         Rng& rng) {
  std::vector<std::uint64_t> ranks;
  if (inputs <= 8 || count <= 3) {
    for (std::uint64_t r = 0; r < count; ++r) ranks.push_back(r);
    return ranks;
  }
  return {0, count - 1, rng.below(count)};
}

void expect_lazy_matches_eager(const Netlist& netlist,
                               const std::vector<bool>& reset, std::size_t k,
                               const std::vector<VarOrder>& orders =
                                   kAllOrders) {
  std::optional<ExplicitCssg> reference;
  for (const VarOrder order : orders) {
    SCOPED_TRACE(std::string("order=") + var_order_name(order));
    CssgOptions options;
    options.k = k;
    options.order = order;
    options.reorder = aggressive_reorder();
    const Cssg cssg(netlist, reset, options);
    if (!reference) reference = cssg.extract_explicit();
    const ExplicitCssg& eager = *reference;
    LazyCssg lazy(cssg);
    const ExplicitCssg& graph = lazy.graph();
    // eager_id[lazy id]; the unread lazy ids.
    std::vector<std::uint32_t> eager_id{0};
    std::vector<std::uint32_t> unread{0};
    Rng rng(7919 * netlist.num_signals() + static_cast<std::uint64_t>(order));
    Rng rank_rng(7907 * netlist.num_signals() +
                 static_cast<std::uint64_t>(order));
    while (!unread.empty()) {
      const std::size_t pick = rng.below(unread.size());
      const std::uint32_t id = unread[pick];
      unread[pick] = unread.back();
      unread.pop_back();
      const std::vector<std::uint64_t> ranks = ranks_to_read(
          netlist.inputs().size(), eager.edges[eager_id[id]].size(),
          rank_rng);
      ASSERT_EQ("", testing::rank_read_mismatch(lazy, id, eager, eager_id[id],
                                                ranks));
      const std::vector<std::uint32_t> list = lazy.successors(id);
      for (auto fresh = static_cast<std::uint32_t>(eager_id.size());
           fresh < graph.states.size(); ++fresh) {
        const auto found = eager.find(graph.states[fresh]);
        ASSERT_TRUE(found.has_value())
            << ExplicitCssg::label(graph.states[fresh]);
        ASSERT_EQ(graph.inputs[fresh], eager.inputs[*found]);
        eager_id.push_back(*found);
        unread.push_back(fresh);
      }
      std::vector<std::uint32_t> mapped(list.size());
      for (std::size_t i = 0; i < list.size(); ++i)
        mapped[i] = eager_id[list[i]];
      ASSERT_EQ(mapped, eager.edges[eager_id[id]])
          << ExplicitCssg::label(graph.states[id]);
      const std::size_t built = lazy.lists_built();
      ASSERT_EQ(lazy.successors(id), list);
      ASSERT_EQ(lazy.lists_built(), built);
      const std::size_t interned = graph.states.size();
      ASSERT_EQ("", testing::rank_read_mismatch(lazy, id, eager, eager_id[id],
                                                ranks));
      ASSERT_EQ(graph.states.size(), interned);
    }
    EXPECT_EQ(graph.states.size(), eager.states.size());
    EXPECT_EQ(lazy.lists_built(), eager.states.size());
  }
}

TEST(LazyGraph, FixturesMatchEagerForEveryOrder) {
  for (const auto& [name, make] : kFixtures) {
    SCOPED_TRACE(name);
    const fixtures::Circuit fix = make();
    expect_lazy_matches_eager(fix.netlist, fix.reset, 20);
  }
}

TEST(LazyGraph, BenchmarksMatchEagerForEveryOrder) {
  const auto check = [](const std::string& name, SynthStyle style) {
    SCOPED_TRACE(name);
    const SynthResult r = benchmark_circuit(name, style);
    if (r.netlist.num_signals() > 12) return;
    expect_lazy_matches_eager(r.netlist, r.reset_state, 24);
  };
  for (const std::string& name : si_benchmark_names())
    check(name, SynthStyle::SpeedIndependent);
  for (const std::string& name : bd_benchmark_names())
    check(name, SynthStyle::BoundedDelay);
}

TEST(LazyGraph, ParityTreesMatchEager) {
  for (std::size_t inputs = 2; inputs <= 12; ++inputs) {
    SCOPED_TRACE(std::to_string(inputs) + " inputs");
    const fixtures::Circuit fix = fixtures::parity_tree(inputs);
    expect_lazy_matches_eager(
        fix.netlist, fix.reset, 24,
        inputs <= 6 ? kAllOrders
                    : std::vector<VarOrder>{VarOrder::Interleaved,
                                            VarOrder::ReverseInterleaved});
  }
}

TEST(LazyGraph, RandomNetlistsMatchEagerForEveryOrder) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    fixtures::RandomNetlistOptions options;
    options.num_inputs = 3;
    options.num_gates = 3 + seed % 3;
    const fixtures::Circuit fix = fixtures::random_netlist(seed, options);
    expect_lazy_matches_eager(fix.netlist, fix.reset, 20);
  }
}

// --- TCR_k over gate values vs the pair loop ---------------------------------
// build_tcr_and_prune iterates S(g, y) over the source's gate values; the
// loop it replaced, A(x, y) over whole source states, lives on in
// tests/oracle.hpp, behind the BFS over R_I ∪ R_delta that the chained
// traversal replaced.  The oracle runs on each Cssg's own manager, so the
// TCSG states and CSSG_k must come out handle-equal, and every statistic
// but the peak node count and the traversal's round count equal, under
// every variable order with sifting firing throughout.  The circuits and
// exemptions are the Extraction* suites'.

void expect_tcr_matches_oracle(
    const Netlist& netlist, const std::vector<bool>& reset, std::size_t k,
    const std::vector<VarOrder>& orders = kAllOrders,
    const ReorderPolicy& reorder = aggressive_reorder()) {
  for (const VarOrder order : orders) {
    SCOPED_TRACE(std::string("order=") + var_order_name(order));
    CssgOptions options;
    options.k = k;
    options.order = order;
    options.reorder = reorder;
    const Cssg cssg(netlist, reset, options);
    EXPECT_EQ(std::string(), testing::tcr_oracle_mismatch(cssg));
  }
}

class TcrFixture : public ::testing::TestWithParam<NamedFixture> {};

TEST_P(TcrFixture, GateValueLoopMatchesPairLoopForEveryOrder) {
  const fixtures::Circuit fix = GetParam().second();
  expect_tcr_matches_oracle(fix.netlist, fix.reset, 20);
}

INSTANTIATE_TEST_SUITE_P(Fixtures, TcrFixture, ::testing::ValuesIn(kFixtures),
                         fixture_name);

TEST(TcrBenchmarks, GateValueLoopMatchesPairLoopForEveryOrder) {
  const auto check = [](const std::string& name, SynthStyle style) {
    SCOPED_TRACE(name);
    const SynthResult r = benchmark_circuit(name, style);
    if (r.netlist.num_signals() > 12) return;
    expect_tcr_matches_oracle(r.netlist, r.reset_state, 24);
  };
  for (const std::string& name : si_benchmark_names())
    check(name, SynthStyle::SpeedIndependent);
  for (const std::string& name : bd_benchmark_names())
    check(name, SynthStyle::BoundedDelay);
}

class TcrParity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TcrParity, GateValueLoopMatchesPairLoop) {
  const fixtures::Circuit fix = fixtures::parity_tree(GetParam());
  expect_tcr_matches_oracle(
      fix.netlist, fix.reset, 24,
      GetParam() <= 6 ? kAllOrders
                      : std::vector<VarOrder>{VarOrder::Interleaved,
                                              VarOrder::ReverseInterleaved});
}

INSTANTIATE_TEST_SUITE_P(Inputs, TcrParity,
                         ::testing::Range<std::size_t>(2, 13));

class TcrRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TcrRandom, GateValueLoopMatchesPairLoopForEveryOrder) {
  fixtures::RandomNetlistOptions options;
  options.num_inputs = 3;
  options.num_gates = 3 + GetParam() % 3;
  const fixtures::Circuit fix = fixtures::random_netlist(GetParam(), options);
  expect_tcr_matches_oracle(fix.netlist, fix.reset, 20);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TcrRandom,
                         ::testing::Range<std::uint64_t>(1, 31));

TEST(TcrTwoWords, GateValueLoopMatchesPairLoop) {
  expect_tcr_matches_oracle(
      two_word_netlist(), std::vector<bool>(72, false), 80,
      {VarOrder::Interleaved, VarOrder::ReverseInterleaved}, ReorderPolicy{});
}

// --- the chained test-mode closure vs the BFS --------------------------------
// test_mode_reachable closes the CSSG-reachable states under ValidRI and
// the gates' firings as the traversal does, chained; the BFS over
// ValidRI ∪ R_delta it replaced lives on in tests/oracle.hpp.  Both run on
// the Cssg's own manager, so the sets must come out handle-equal on the
// Tcr* suites' circuits, orders and exemptions.

/// Checks every order's test_mode_reachable() against the BFS; returns how
/// many Cssgs it checked.
std::size_t expect_test_mode_matches_oracle(
    const Netlist& netlist, const std::vector<bool>& reset, std::size_t k,
    const std::vector<VarOrder>& orders = kAllOrders,
    const ReorderPolicy& reorder = aggressive_reorder()) {
  for (const VarOrder order : orders) {
    SCOPED_TRACE(std::string("order=") + var_order_name(order));
    CssgOptions options;
    options.k = k;
    options.order = order;
    options.reorder = reorder;
    const Cssg cssg(netlist, reset, options);
    EXPECT_TRUE(cssg.test_mode_reachable() ==
                testing::oracle_test_mode_reachable(cssg));
  }
  return orders.size();
}

TEST(TestModeReachable, ChainedClosureEqualsBfs) {
  std::size_t checked = 0;
  for (const auto& [name, make] : kFixtures) {
    SCOPED_TRACE(name);
    const fixtures::Circuit fix = make();
    checked += expect_test_mode_matches_oracle(fix.netlist, fix.reset, 20);
  }
  const auto check = [&](const std::string& name, SynthStyle style) {
    SCOPED_TRACE(name);
    const SynthResult r = benchmark_circuit(name, style);
    if (r.netlist.num_signals() > 12) return;
    checked +=
        expect_test_mode_matches_oracle(r.netlist, r.reset_state, 24);
  };
  for (const std::string& name : si_benchmark_names())
    check(name, SynthStyle::SpeedIndependent);
  for (const std::string& name : bd_benchmark_names())
    check(name, SynthStyle::BoundedDelay);
  for (std::size_t inputs = 2; inputs <= 12; ++inputs) {
    SCOPED_TRACE(std::to_string(inputs) + " inputs");
    const fixtures::Circuit fix = fixtures::parity_tree(inputs);
    checked += expect_test_mode_matches_oracle(
        fix.netlist, fix.reset, 24,
        inputs <= 6 ? kAllOrders
                    : std::vector<VarOrder>{VarOrder::Interleaved,
                                            VarOrder::ReverseInterleaved});
  }
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    fixtures::RandomNetlistOptions options;
    options.num_inputs = 3;
    options.num_gates = 3 + seed % 3;
    const fixtures::Circuit fix = fixtures::random_netlist(seed, options);
    checked += expect_test_mode_matches_oracle(fix.netlist, fix.reset, 20);
  }
  checked += expect_test_mode_matches_oracle(
      two_word_netlist(), std::vector<bool>(72, false), 80,
      {VarOrder::Interleaved, VarOrder::ReverseInterleaved}, ReorderPolicy{});
  RecordProperty("cssgs_checked", static_cast<int>(checked));
}

TEST(CssgOrdering, AllOrdersAgreeOnCounts) {
  const auto [netlist, reset] = fixtures::fig1a();
  double edges = -1;
  for (const VarOrder order : {VarOrder::Interleaved, VarOrder::Blocked,
                               VarOrder::ReverseInterleaved}) {
    CssgOptions options;
    options.k = 20;
    options.order = order;
    Cssg cssg(netlist, reset, options);
    if (edges < 0) {
      edges = cssg.stats().cssg_edges;
    } else {
      EXPECT_DOUBLE_EQ(cssg.stats().cssg_edges, edges)
          << var_order_name(order);
    }
  }
}

TEST(CssgK, SmallKPrunesMoreEdges) {
  const auto [netlist, reset] = fixtures::fig1b();
  CssgOptions small, large;
  small.k = 1;
  large.k = 16;
  Cssg cssg_small(netlist, reset, small);
  Cssg cssg_large(netlist, reset, large);
  EXPECT_LE(cssg_small.stats().cssg_edges, cssg_large.stats().cssg_edges);
}

}  // namespace
}  // namespace xatpg
