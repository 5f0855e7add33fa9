// Golden-value regression tests: exact BDD-manager node counts and CSSG
// state/edge counts for the fixture circuits, and the per-circuit outcome of
// every perf corpus entry.
//
// These lock in the paper-table semantics: the CSSG statistics are what the
// Figure 2 / Table 1 columns are computed from, and the BDD counts pin the
// symbolic core's behaviour (hashing, GC thresholds, operation ordering).
// Every number below is deterministic — the library draws randomness only
// from the seeded xoshiro Rng — so any drift is a real semantic change and
// must be reviewed, not papered over.
#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "fixtures.hpp"
#include "perf/perf.hpp"
#include "sgraph/cssg.hpp"
#include "util/random.hpp"

namespace xatpg {
namespace {

struct CssgGolden {
  const char* name;
  fixtures::Circuit (*make)();
  std::size_t k;
  std::size_t num_signals, num_pins;
  double reachable, stable, tcr_pairs, nonconfluent, unstable, edges,
      cssg_reachable;
};

class CssgGoldenTest : public ::testing::TestWithParam<CssgGolden> {};

TEST_P(CssgGoldenTest, StateAndEdgeCounts) {
  const CssgGolden& g = GetParam();
  const fixtures::Circuit fix = g.make();
  EXPECT_EQ(fix.netlist.num_signals(), g.num_signals);
  EXPECT_EQ(fix.netlist.num_pins(), g.num_pins);

  CssgOptions options;
  options.k = g.k;
  Cssg cssg(fix.netlist, fix.reset, options);
  const CssgStats& st = cssg.stats();
  EXPECT_DOUBLE_EQ(st.reachable_states, g.reachable);
  EXPECT_DOUBLE_EQ(st.stable_states, g.stable);
  EXPECT_DOUBLE_EQ(st.tcr_pairs, g.tcr_pairs);
  EXPECT_DOUBLE_EQ(st.nonconfluent_pairs, g.nonconfluent);
  EXPECT_DOUBLE_EQ(st.unstable_pairs, g.unstable);
  EXPECT_DOUBLE_EQ(st.cssg_edges, g.edges);
  EXPECT_DOUBLE_EQ(st.cssg_reachable_states, g.cssg_reachable);
}

INSTANTIATE_TEST_SUITE_P(
    Fixtures, CssgGoldenTest,
    ::testing::Values(
        // Figure 1(a): 44 transient-reachable states collapse to 7 stable
        // ones; 4 of the 23 TCR pairs are pruned as non-confluent races.
        CssgGolden{"fig1a", fixtures::fig1a, 20, 6, 6, 44, 7, 23, 4, 0, 19, 7},
        // Figure 1(b): the oscillating ring prunes both non-confluent and
        // unstable pairs, leaving a 4-edge CSSG over 3 stable states.
        CssgGolden{"fig1b", fixtures::fig1b, 20, 6, 6, 33, 3, 13, 6, 3, 4, 3},
        // A lone C-element is race-free: every TCR pair survives.
        CssgGolden{"celem", fixtures::celem, 20, 3, 2, 8, 6, 18, 0, 0, 18, 6},
        // The gC transparent latch has the same state-count shape as the
        // C-element (both are 2-input state-holding gates).
        CssgGolden{"latch", fixtures::async_latch, 20, 3, 2, 8, 6, 18, 0, 0,
                   18, 6},
        // Two-stage pipeline controller: 2 racy pairs pruned.
        CssgGolden{"pipeline2", fixtures::pipeline2, 24, 5, 7, 26, 8, 25, 2, 0,
                   23, 8}),
    [](const auto& param_info) { return std::string(param_info.param.name); });

// --- BDD manager node accounting ---------------------------------------------

TEST(BddGolden, SeededFunctionNodeCounts) {
  // Disjunction of eight seeded random functions over 12 variables: the
  // unique-table contents after construction are a function of the node
  // hashing, reduction and complement-canonicalization rules only.  (The
  // same build cost 1278 nodes before complemented edges.)
  BddManager mgr(12);
  Rng rng(2024);
  Bdd acc = mgr.bdd_false();
  for (int i = 0; i < 8; ++i) acc |= fixtures::random_bdd(mgr, rng, 4, 12);
  EXPECT_EQ(mgr.allocated_nodes(), 1156u);
  EXPECT_EQ(mgr.peak_nodes(), 1156u);
  EXPECT_EQ(mgr.gc_count(), 0u);
}

TEST(BddGolden, FreshManagerBaseline) {
  // A fresh manager owns exactly the single terminal node (TRUE; FALSE is
  // its complemented edge); single-literal nodes are created lazily on
  // first var() use, and nvar shares var's node through a complement.
  BddManager mgr(8);
  EXPECT_EQ(mgr.allocated_nodes(), 1u);
  (void)mgr.var(0);
  EXPECT_EQ(mgr.allocated_nodes(), 2u);
  (void)mgr.var(0);  // cached: no new node
  EXPECT_EQ(mgr.allocated_nodes(), 2u);
  (void)mgr.nvar(0);  // a complemented edge: still no new node
  EXPECT_EQ(mgr.allocated_nodes(), 2u);
}

TEST(BddGolden, CssgPeakNodesOnFixtures) {
  // Peak live-node watermark while building the full symbolic pipeline.
  // These are the numbers the ordering/k ablation benchmarks report; a
  // regression here is a regression in Figure 2 reproduction quality.
  struct Row {
    fixtures::Circuit (*make)();
    std::size_t k;
    std::size_t peak;
  };
  for (const Row& row : {Row{fixtures::fig1a, 20, 1333},
                         Row{fixtures::fig1b, 20, 1234},
                         Row{fixtures::celem, 20, 160},
                         Row{fixtures::async_latch, 20, 158},
                         Row{fixtures::pipeline2, 24, 792}}) {
    const fixtures::Circuit fix = row.make();
    CssgOptions options;
    options.k = row.k;
    Cssg cssg(fix.netlist, fix.reset, options);
    EXPECT_EQ(cssg.stats().peak_bdd_nodes, row.peak) << fix.netlist.name();
  }
}

TEST(BddGolden, PostSiftNodeCountsOnFixtures) {
  // Dynamic-reordering regression lock: live node counts entering and
  // leaving one sifting pass over the fully built symbolic pipeline.  Two
  // invariants ride along with the exact numbers: a sifting pass may never
  // leave the table LARGER than it found it (the starting position is
  // always a candidate, so the configured max_growth bound only limits
  // transients mid-walk), and a second pass from the already-optimized
  // order may not grow it either.
  struct Row {
    const char* name;
    fixtures::Circuit (*make)();
    std::size_t k;
    std::size_t before, after;
  };
  for (const Row& row : {Row{"fig1a", fixtures::fig1a, 20, 214, 175},
                         Row{"fig1b", fixtures::fig1b, 20, 179, 150},
                         Row{"chain", fixtures::chain, 20, 42, 42},
                         Row{"celem", fixtures::celem, 20, 51, 51},
                         Row{"latch", fixtures::async_latch, 20, 50, 44},
                         Row{"pipeline2", fixtures::pipeline2, 24, 168, 156}}) {
    const fixtures::Circuit fix = row.make();
    CssgOptions options;
    options.k = row.k;
    Cssg cssg(fix.netlist, fix.reset, options);
    const ReorderStats pass = cssg.encoding().sift_now();
    EXPECT_EQ(pass.size_before, row.before) << row.name;
    EXPECT_EQ(pass.size_after, row.after) << row.name;
    EXPECT_LE(pass.size_after, pass.size_before) << row.name;
    const ReorderStats again = cssg.encoding().sift_now();
    EXPECT_LE(again.size_after, row.after) << row.name << " (second pass)";
  }
}

// --- random-netlist generator stability --------------------------------------

TEST(GeneratorGolden, Seed7Shape) {
  // The generator feeds property tests across suites; its output for a
  // given seed is part of the fixture contract.
  const fixtures::Circuit r = fixtures::random_netlist(7);
  EXPECT_EQ(r.netlist.name(), "random7");
  EXPECT_EQ(r.netlist.num_signals(), 11u);
  EXPECT_EQ(r.netlist.num_pins(), 18u);
  EXPECT_TRUE(r.netlist.is_stable_state(r.reset));
}

// --- the perf corpus ----------------------------------------------------------

/// One perf::default_corpus() entry run by perf::run_session at default
/// options: both stuck-at universes summed, as the paper's tables count
/// them, and the engine's BDD manager's lifetime peak nodes (CSSG
/// construction included).
struct CorpusRow {
  const char* id;
  std::size_t faults_total, faults_covered, gave_up, peak_nodes;
};

/// Peak nodes may grow by at most 25% over the recorded value; the fault
/// counts are exact.
constexpr double kPeakNodeSlack = 1.25;

// Totals: 1,008 of 1,446 faults covered, 21 gave up, 134,647 peak nodes.
// To re-record after an intended change, copy each failing entry's printed
// `now:` row over its line here and say in the commit why it moved.
constexpr CorpusRow kCorpus[] = {
    {"si/alloc-outbound", 20, 20, 0, 1052},
    {"si/atod", 18, 18, 0, 1206},
    {"si/chu150", 14, 14, 0, 345},
    {"si/converta", 16, 16, 0, 729},
    {"si/dff", 10, 10, 0, 161},
    {"si/ebergen", 20, 20, 0, 1254},
    {"si/hazard", 24, 24, 0, 1812},
    {"si/master-read", 32, 32, 0, 3157},
    {"si/mmu", 28, 28, 0, 1967},
    {"si/mp-forward-pkt", 22, 22, 0, 1932},
    {"si/mr1", 30, 30, 0, 6748},
    {"si/nak-pa", 30, 28, 0, 1180},
    {"si/nowick", 16, 16, 0, 647},
    {"si/ram-read-sbuf", 28, 28, 0, 4177},
    {"si/rcv-setup", 12, 12, 0, 354},
    {"si/rpdft", 10, 10, 0, 171},
    {"si/sbuf-ram-write", 28, 26, 0, 2463},
    {"si/sbuf-send-ctl", 32, 32, 0, 4223},
    {"si/sbuf-send-pkt2", 26, 26, 0, 3765},
    {"si/seq4", 24, 24, 0, 3608},
    {"si/trimos-send", 42, 39, 0, 1011},
    {"si/vbe10b", 28, 28, 0, 1422},
    {"si/vbe5b", 24, 22, 0, 368},
    {"si/vbe6a", 28, 26, 0, 653},
    {"bd/chu150", 34, 34, 0, 1845},
    {"bd/converta", 16, 16, 0, 727},
    {"bd/ebergen", 20, 20, 0, 1251},
    {"bd/hazard", 48, 48, 0, 4153},
    {"bd/nowick", 16, 16, 0, 645},
    {"bd/rpdft", 30, 30, 0, 1135},
    {"bd/trimos-send", 98, 0, 2, 16449},
    {"bd/vbe10b", 86, 16, 15, 9952},
    {"bd/vbe6a", 70, 0, 4, 4517},
    {"rand/s11", 56, 14, 0, 4541},
    {"rand/s12", 58, 36, 0, 4389},
    {"rand/s13", 60, 22, 0, 4388},
    {"rand/s24", 72, 26, 0, 8229},
    {"rand/s25", 70, 29, 0, 12942},
    {"bench/c17", 46, 46, 0, 4355},
    {"bench/parity5", 34, 34, 0, 3810},
    {"bench/mux4", 70, 70, 0, 6914},
};

TEST(CorpusGolden, IdsAreTheDefaultCorpusInOrder) {
  // A circuit added to or dropped from the corpus must be recorded here.
  std::vector<std::string> recorded, corpus;
  for (const CorpusRow& row : kCorpus) recorded.emplace_back(row.id);
  for (const perf::CorpusEntry& entry : perf::default_corpus())
    corpus.push_back(entry.id);
  EXPECT_EQ(corpus, recorded);
}

TEST(CorpusGolden, CoverageIsExactAndPeakNodesStayInBound) {
  const std::vector<perf::CorpusEntry> corpus = perf::default_corpus();
  ASSERT_EQ(corpus.size(), std::size(kCorpus));
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const CorpusRow& was = kCorpus[i];
    ASSERT_EQ(corpus[i].id, was.id);
    const perf::SessionRun run = perf::run_session(corpus[i], AtpgOptions{});
    const AtpgStats& out = run.output_stuck.stats;
    const AtpgStats& in = run.input_stuck.stats;
    const CorpusRow now{was.id, out.total_faults + in.total_faults,
                        out.covered + in.covered, out.gave_up + in.gave_up,
                        run.bdd.peak_nodes};
    std::ostringstream row;
    row << "now: {\"" << now.id << "\", " << now.faults_total << ", "
        << now.faults_covered << ", " << now.gave_up << ", "
        << now.peak_nodes << "},";
    SCOPED_TRACE(row.str());
    EXPECT_EQ(now.faults_total, was.faults_total);
    EXPECT_EQ(now.faults_covered, was.faults_covered);
    EXPECT_EQ(now.gave_up, was.gave_up);
    EXPECT_LE(static_cast<double>(now.peak_nodes),
              kPeakNodeSlack * static_cast<double>(was.peak_nodes));
  }
}

}  // namespace
}  // namespace xatpg
