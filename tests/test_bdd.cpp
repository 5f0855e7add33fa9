#include "bdd/bdd.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "fixtures.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace xatpg {
namespace {

class BddTest : public ::testing::Test {
 protected:
  BddManager mgr{8};
  Bdd v(std::uint32_t i) { return mgr.var(i); }
};

TEST_F(BddTest, Constants) {
  EXPECT_TRUE(mgr.bdd_true().is_true());
  EXPECT_TRUE(mgr.bdd_false().is_false());
  EXPECT_NE(mgr.bdd_true(), mgr.bdd_false());
}

TEST_F(BddTest, VarCanonical) {
  EXPECT_EQ(v(0), v(0));
  EXPECT_NE(v(0), v(1));
}

TEST_F(BddTest, NotInvolution) {
  const Bdd f = (v(0) & v(1)) | v(2);
  EXPECT_EQ(!!f, f);
}

TEST_F(BddTest, NVarEqualsNotVar) { EXPECT_EQ(mgr.nvar(3), !v(3)); }

TEST_F(BddTest, AndBasics) {
  EXPECT_EQ(v(0) & mgr.bdd_true(), v(0));
  EXPECT_EQ(v(0) & mgr.bdd_false(), mgr.bdd_false());
  EXPECT_EQ(v(0) & v(0), v(0));
  EXPECT_EQ(v(0) & !v(0), mgr.bdd_false());
}

TEST_F(BddTest, OrBasics) {
  EXPECT_EQ(v(0) | mgr.bdd_true(), mgr.bdd_true());
  EXPECT_EQ(v(0) | mgr.bdd_false(), v(0));
  EXPECT_EQ(v(0) | !v(0), mgr.bdd_true());
}

TEST_F(BddTest, XorBasics) {
  EXPECT_EQ(v(0) ^ v(0), mgr.bdd_false());
  EXPECT_EQ(v(0) ^ !v(0), mgr.bdd_true());
  EXPECT_EQ(v(0) ^ mgr.bdd_false(), v(0));
  EXPECT_EQ(v(0) ^ mgr.bdd_true(), !v(0));
}

TEST_F(BddTest, DeMorgan) {
  const Bdd lhs = !(v(0) & v(1));
  const Bdd rhs = (!v(0)) | (!v(1));
  EXPECT_EQ(lhs, rhs);
}

TEST_F(BddTest, DistributivityRandomized) {
  Rng rng(42);
  auto random_fn = [&](int depth) {
    return fixtures::random_bdd(mgr, rng, depth, 8);
  };
  for (int i = 0; i < 20; ++i) {
    const Bdd a = random_fn(3), b = random_fn(3), c = random_fn(3);
    EXPECT_EQ(a & (b | c), (a & b) | (a & c));
    EXPECT_EQ(a | (b & c), (a | b) & (a | c));
  }
}

TEST_F(BddTest, IteMatchesDefinition) {
  Rng rng(7);
  for (int i = 0; i < 30; ++i) {
    const Bdd f = rng.flip() ? v(rng.below(8)) : (v(rng.below(8)) & v(rng.below(8)));
    const Bdd g = v(rng.below(8)) | v(rng.below(8));
    const Bdd h = v(rng.below(8)) ^ v(rng.below(8));
    EXPECT_EQ(mgr.ite(f, g, h), (f & g) | ((!f) & h));
  }
}

TEST_F(BddTest, EvalTruthTable) {
  const Bdd f = (v(0) & v(1)) | ((!v(0)) & v(2));
  for (int bits = 0; bits < 8; ++bits) {
    std::vector<bool> a(8, false);
    a[0] = bits & 1;
    a[1] = bits & 2;
    a[2] = bits & 4;
    const bool expected = (a[0] && a[1]) || (!a[0] && a[2]);
    EXPECT_EQ(mgr.eval(f, a), expected);
  }
}

TEST_F(BddTest, ExistsRemovesVariable) {
  const Bdd f = v(0) & v(1);
  const Bdd q = mgr.exists(f, mgr.make_cube({0}));
  EXPECT_EQ(q, v(1));
  const auto support = mgr.support_vars(q);
  EXPECT_EQ(support, (std::vector<std::uint32_t>{1}));
}

TEST_F(BddTest, ExistsIsDisjunctionOfCofactors) {
  Rng rng(11);
  for (int i = 0; i < 20; ++i) {
    const Bdd f = (v(rng.below(4)) & v(4 + rng.below(4))) ^ v(rng.below(8));
    const std::uint32_t x = rng.below(8);
    const Bdd q = mgr.exists(f, mgr.make_cube({x}));
    EXPECT_EQ(q, mgr.cofactor(f, x, false) | mgr.cofactor(f, x, true));
  }
}

TEST_F(BddTest, ForallIsConjunctionOfCofactors) {
  Rng rng(13);
  for (int i = 0; i < 20; ++i) {
    const Bdd f = (v(rng.below(4)) | v(4 + rng.below(4))) ^ v(rng.below(8));
    const std::uint32_t x = rng.below(8);
    const Bdd q = mgr.forall(f, mgr.make_cube({x}));
    EXPECT_EQ(q, mgr.cofactor(f, x, false) & mgr.cofactor(f, x, true));
  }
}

TEST_F(BddTest, AndExistsEqualsExistsOfAnd) {
  Rng rng(17);
  for (int i = 0; i < 30; ++i) {
    const Bdd f = (v(rng.below(8)) & v(rng.below(8))) | v(rng.below(8));
    const Bdd g = (v(rng.below(8)) | v(rng.below(8))) ^ v(rng.below(8));
    const Bdd cube = mgr.make_cube({std::uint32_t(rng.below(8)), std::uint32_t(rng.below(8))});
    EXPECT_EQ(mgr.and_exists(f, g, cube), mgr.exists(f & g, cube));
  }
}

TEST_F(BddTest, PermuteSwapsVariables) {
  const Bdd f = v(0) & !v(1);
  std::vector<std::uint32_t> perm(8);
  for (std::uint32_t i = 0; i < 8; ++i) perm[i] = i;
  perm[0] = 1;
  perm[1] = 0;
  EXPECT_EQ(mgr.permute(f, perm), v(1) & !v(0));
}

TEST_F(BddTest, PermuteShiftGroup) {
  // Shift vars 0..3 onto 4..7 — the cur->next renaming pattern.
  const Bdd f = (v(0) | v(2)) & v(3);
  std::vector<std::uint32_t> perm{4, 5, 6, 7, 0, 1, 2, 3};
  EXPECT_EQ(mgr.permute(f, perm), (v(4) | v(6)) & v(7));
  // Applying the (involutive) permutation twice restores f.
  EXPECT_EQ(mgr.permute(mgr.permute(f, perm), perm), f);
}

TEST_F(BddTest, ComposeSubstitutes) {
  const Bdd f = v(0) & v(1);
  const Bdd g = v(2) | v(3);
  const Bdd composed = mgr.compose(f, 0, g);
  EXPECT_EQ(composed, (v(2) | v(3)) & v(1));
}

TEST_F(BddTest, ComposeWithConstant) {
  const Bdd f = v(0) ^ v(1);
  EXPECT_EQ(mgr.compose(f, 0, mgr.bdd_true()), !v(1));
  EXPECT_EQ(mgr.compose(f, 0, mgr.bdd_false()), v(1));
}

TEST_F(BddTest, CofactorFixesVariable) {
  const Bdd f = (v(0) & v(1)) | ((!v(0)) & v(2));
  EXPECT_EQ(mgr.cofactor(f, 0, true), v(1));
  EXPECT_EQ(mgr.cofactor(f, 0, false), v(2));
}

TEST_F(BddTest, SupportVars) {
  const Bdd f = (v(1) & v(3)) | v(6);
  EXPECT_EQ(mgr.support_vars(f), (std::vector<std::uint32_t>{1, 3, 6}));
}

TEST_F(BddTest, SatCount) {
  EXPECT_DOUBLE_EQ(mgr.sat_count(mgr.bdd_true(), 8), 256.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(mgr.bdd_false(), 8), 0.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(v(0), 8), 128.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(v(0) & v(1), 8), 64.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(v(0) | v(1), 8), 192.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(v(0) ^ v(7), 8), 128.0);
}

TEST_F(BddTest, MakeCubeAndMinterm) {
  const Bdd cube = mgr.make_cube({0, 2});
  EXPECT_EQ(cube, v(0) & v(2));
  const Bdd m = mgr.make_minterm({0, 1, 2}, {true, false, true});
  EXPECT_EQ(m, v(0) & !v(1) & v(2));
}

TEST_F(BddTest, PickMintermSatisfies) {
  Rng rng(23);
  for (int i = 0; i < 30; ++i) {
    const Bdd f = (v(rng.below(8)) | v(rng.below(8))) & !v(rng.below(8));
    if (f.is_false()) continue;
    std::vector<std::uint32_t> all_vars;
    for (std::uint32_t x = 0; x < 8; ++x) all_vars.push_back(x);
    const auto picked = mgr.pick_minterm(f, all_vars);
    std::vector<bool> assignment(8);
    for (std::uint32_t x = 0; x < 8; ++x)
      assignment[x] = picked[x] == Tri::One;  // DontCare -> 0 is fine
    EXPECT_TRUE(mgr.eval(f, assignment));
  }
}

TEST_F(BddTest, PickMintermOnZeroThrows) {
  EXPECT_THROW(mgr.pick_minterm(mgr.bdd_false(), {0}), CheckError);
}

TEST_F(BddTest, Implies) {
  EXPECT_TRUE((v(0) & v(1)).implies(v(0)));
  EXPECT_FALSE(v(0).implies(v(0) & v(1)));
  EXPECT_TRUE(mgr.bdd_false().implies(v(3)));
}

TEST_F(BddTest, NodeCount) {
  EXPECT_EQ(mgr.bdd_true().node_count(), 1u);
  EXPECT_EQ(mgr.bdd_false().node_count(), 1u);  // shares the TRUE terminal
  EXPECT_EQ(v(0).node_count(), 2u);  // node + the single terminal
  EXPECT_EQ((!v(0)).node_count(), 2u);  // complement shares the same nodes
}

// --- complement-edge canonicity invariants -----------------------------------
//
// The kernel stores negation as an attribute bit on edges; canonical form
// forbids a complemented THEN edge anywhere in the unique table, which is
// what makes structural equality function equality.  These tests pin the
// invariants the rest of the stack silently relies on.

TEST(BddComplement, NegationIsFreeAndInvolutive) {
  BddManager mgr(8);
  Rng rng(99);
  const Bdd f = fixtures::random_bdd(mgr, rng, 5, 8);
  const std::size_t before = mgr.allocated_nodes();
  const Bdd nf = !f;
  const Bdd nnf = !nf;
  // operator! allocates no nodes — it is a bit flip on the edge.
  EXPECT_EQ(mgr.allocated_nodes(), before);
  EXPECT_EQ(mgr.apply_not(f), nf);
  EXPECT_EQ(mgr.allocated_nodes(), before);
  // Involution is handle-identical, not just semantically equal.
  EXPECT_EQ(nnf, f);
  EXPECT_EQ(nnf.index(), f.index());
  // f and !f share every node: same node_count, complementary attribute.
  EXPECT_EQ(nf.node_count(), f.node_count());
  EXPECT_NE(nf.complemented(), f.complemented());
}

TEST(BddComplement, ExcludedMiddleIsConstant) {
  BddManager mgr(8);
  Rng rng(123);
  for (int i = 0; i < 20; ++i) {
    const Bdd f = fixtures::random_bdd(mgr, rng, 4, 8);
    EXPECT_TRUE((f ^ !f).is_true());
    EXPECT_TRUE((f | !f).is_true());
    EXPECT_TRUE((f & !f).is_false());
    EXPECT_TRUE(f.implies(f));
  }
}

TEST(BddComplement, ConstantsAreComplementsOfEachOther) {
  BddManager mgr(2);
  EXPECT_EQ(!mgr.bdd_true(), mgr.bdd_false());
  EXPECT_EQ(!mgr.bdd_false(), mgr.bdd_true());
  // One shared terminal: negating a constant allocates nothing.
  EXPECT_EQ(mgr.allocated_nodes(), 1u);
}

TEST(BddComplement, NVarAllocatesNothing) {
  BddManager mgr(4);
  (void)mgr.var(2);
  const std::size_t before = mgr.allocated_nodes();
  const Bdd neg = mgr.nvar(2);
  EXPECT_EQ(mgr.allocated_nodes(), before);
  EXPECT_EQ(neg, !mgr.var(2));
}

TEST(BddComplement, NoComplementedThenEdgeAfterOpBattery) {
  // Drive every operation family, then sweep the whole unique table and
  // assert the canonical-form invariants (no complemented THEN edge, no
  // redundant node, children strictly below) on every resident node.
  BddManager mgr(10);
  Rng rng(7777);
  Bdd acc = mgr.bdd_false();
  for (int i = 0; i < 10; ++i) {
    const Bdd f = fixtures::random_bdd(mgr, rng, 4, 10);
    const Bdd g = fixtures::random_bdd(mgr, rng, 4, 10);
    const Bdd cube = mgr.make_cube({1, 4, 7});
    acc |= mgr.and_exists(f, g, cube);
    acc ^= mgr.forall(f | g, cube);
    acc = mgr.ite(f, acc, !acc);
    acc = mgr.compose(acc, 3, g);
    acc = mgr.cofactor(acc, 5, rng.flip());
  }
  const std::size_t checked = mgr.validate_canonical();
  EXPECT_GE(checked, acc.node_count() - 1);  // everything live is resident
  // The invariants survive garbage collection (the sweep rebuilds chains).
  mgr.collect_garbage();
  mgr.validate_canonical();
}

TEST(BddComplement, CacheCountersAdvance) {
  BddManager mgr(8);
  Rng rng(31);
  EXPECT_EQ(mgr.cache_lookups(), 0u);
  Bdd acc = mgr.bdd_false();
  for (int i = 0; i < 6; ++i) acc |= fixtures::random_bdd(mgr, rng, 4, 8);
  // Repeat an identical operation: the second round must hit.
  const Bdd f = fixtures::random_bdd(mgr, rng, 4, 8);
  const Bdd g = fixtures::random_bdd(mgr, rng, 4, 8);
  (void)(f & g);
  const std::size_t hits_before = mgr.cache_hits();
  (void)(f & g);
  EXPECT_GT(mgr.cache_hits(), hits_before);
  EXPECT_GE(mgr.cache_lookups(), mgr.cache_hits());
  EXPECT_GT(mgr.unique_load(), 0.0);
  // Complement normalization: AND over complemented operands reuses the
  // same cache lines (the not-variant costs no fresh misses beyond the
  // first level of recursion).
  const std::size_t lookups_before = mgr.cache_lookups();
  const Bdd a = !((!f) | (!g));  // De Morgan spelling of f & g
  EXPECT_EQ(a, f & g);
  EXPECT_GT(mgr.cache_lookups(), lookups_before);
}

TEST(BddManagerTest, GarbageCollectionKeepsLiveNodes) {
  BddManager mgr(16);
  Bdd keep = mgr.var(0) & mgr.var(1) & mgr.var(2);
  {
    // Create garbage.
    for (int i = 0; i < 1000; ++i) {
      Bdd junk = mgr.var(i % 16) ^ mgr.var((i + 5) % 16);
      junk = junk | mgr.var((i + 3) % 16);
    }
  }
  const std::size_t before = mgr.allocated_nodes();
  const std::size_t freed = mgr.collect_garbage();
  EXPECT_GT(freed, 0u);
  EXPECT_LT(mgr.allocated_nodes(), before);
  // The kept function still evaluates correctly after GC.
  std::vector<bool> a(16, true);
  EXPECT_TRUE(mgr.eval(keep, a));
  a[1] = false;
  EXPECT_FALSE(mgr.eval(keep, a));
  // And operations on it still work (unique table was rebuilt correctly).
  EXPECT_EQ(keep & mgr.var(0), keep);
}

TEST(BddManagerTest, FreedNodeNeverAnswersAProbe) {
  // The collection frees t's node and the free list hands that index to
  // x2's literal.  The computed cache entry that made t still names the
  // index, so a probe for x0 & x1 that trusted it would return x2.
  BddManager mgr(3);
  const Bdd x0 = mgr.var(0);
  const Bdd x1 = mgr.var(1);
  std::uint32_t t_index = 0;
  {
    const Bdd t = x0 & x1;
    t_index = t.index();
  }
  mgr.collect_garbage();
  const Bdd x2 = mgr.var(2);
  ASSERT_EQ(x2.index(), t_index);  // the precondition: t's node is reused
  const Bdd again = x0 & x1;
  EXPECT_NE(again, x2);
  for (unsigned bits = 0; bits < 8; ++bits) {
    const std::vector<bool> a{(bits & 1u) != 0, (bits & 2u) != 0,
                              (bits & 4u) != 0};
    EXPECT_EQ(mgr.eval(again, a), a[0] && a[1]) << "assignment " << bits;
  }
}

TEST(BddManagerTest, HandlesSurviveManagerScopesIndependently) {
  BddManager mgr(4);
  Bdd a;
  {
    Bdd b = mgr.var(1) | mgr.var(2);
    a = b;  // copy keeps refcount via registry
  }
  mgr.collect_garbage();
  std::vector<bool> assignment{false, true, false, false};
  EXPECT_TRUE(mgr.eval(a, assignment));
}

TEST(BddManagerTest, MoveSemantics) {
  BddManager mgr(4);
  Bdd a = mgr.var(0) & mgr.var(1);
  Bdd b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): asserting state
  EXPECT_TRUE(b.valid());
  mgr.collect_garbage();
  std::vector<bool> assignment{true, true, false, false};
  EXPECT_TRUE(mgr.eval(b, assignment));
}

TEST(BddManagerTest, NewVarGrowsUniverse) {
  BddManager mgr(0);
  EXPECT_EQ(mgr.num_vars(), 0u);
  const auto a = mgr.new_var();
  const auto b = mgr.new_var();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_NE(mgr.var(a), mgr.var(b));
}

TEST(BddManagerTest, LargeRandomEquivalenceAgainstTruthTable) {
  // Build random 10-var expressions and compare against brute-force
  // evaluation on all 1024 assignments.
  BddManager mgr(10);
  Rng rng(31337);
  for (int trial = 0; trial < 5; ++trial) {
    // Random expression tree as (op, lhs, rhs) over literals.
    struct Node {
      int op;  // 0=AND 1=OR 2=XOR, -1=literal
      int var = 0;
      bool neg = false;
      int lhs = 0, rhs = 0;
    };
    std::vector<Node> nodes;
    auto build = [&](auto&& self, int depth) -> int {
      if (depth == 0) {
        nodes.push_back({-1, static_cast<int>(rng.below(10)), rng.flip(), 0, 0});
        return static_cast<int>(nodes.size()) - 1;
      }
      const int l = self(self, depth - 1);
      const int r = self(self, depth - 1);
      nodes.push_back({static_cast<int>(rng.below(3)), 0, false, l, r});
      return static_cast<int>(nodes.size()) - 1;
    };
    const int root = build(build, 5);

    auto to_bdd = [&](auto&& self, int n) -> Bdd {
      const Node& nd = nodes[n];
      if (nd.op == -1) {
        Bdd lit = mgr.var(nd.var);
        return nd.neg ? !lit : lit;
      }
      const Bdd l = self(self, nd.lhs);
      const Bdd r = self(self, nd.rhs);
      return nd.op == 0 ? (l & r) : nd.op == 1 ? (l | r) : (l ^ r);
    };
    const Bdd f = to_bdd(to_bdd, root);

    auto eval_expr = [&](auto&& self, int n,
                         const std::vector<bool>& a) -> bool {
      const Node& nd = nodes[n];
      if (nd.op == -1) return nd.neg ? !a[nd.var] : a[nd.var];
      const bool l = self(self, nd.lhs, a);
      const bool r = self(self, nd.rhs, a);
      return nd.op == 0 ? (l && r) : nd.op == 1 ? (l || r) : (l != r);
    };

    for (int bits = 0; bits < 1024; ++bits) {
      std::vector<bool> a(10);
      for (int i = 0; i < 10; ++i) a[i] = (bits >> i) & 1;
      ASSERT_EQ(mgr.eval(f, a), eval_expr(eval_expr, root, a))
          << "trial " << trial << " assignment " << bits;
    }
  }
}

// --- handle-validity and cross-manager guards --------------------------------
//
// A default-constructed Bdd used to null-deref in the combinators, and the
// apply_* entry points accepted operands from a foreign manager (whose node
// indices are meaningless in this arena) and silently computed garbage.
// Both must fail loudly now.

TEST(BddGuards, InvalidHandleCombinatorsThrow) {
  BddManager mgr(2);
  const Bdd a = mgr.var(0);
  const Bdd invalid;
  EXPECT_THROW(invalid & a, CheckError);
  EXPECT_THROW(a & invalid, CheckError);
  EXPECT_THROW(invalid | a, CheckError);
  EXPECT_THROW(a | invalid, CheckError);
  EXPECT_THROW(invalid ^ a, CheckError);
  EXPECT_THROW(a ^ invalid, CheckError);
  EXPECT_THROW(!invalid, CheckError);
  EXPECT_THROW((void)invalid.implies(a), CheckError);
  EXPECT_THROW((void)a.implies(invalid), CheckError);
  Bdd acc = invalid;
  EXPECT_THROW(acc &= a, CheckError);
}

TEST(BddGuards, MixedManagerOperandsThrow) {
  BddManager m1(4), m2(4);
  const Bdd a = m1.var(0);
  const Bdd b = m2.var(0);
  const Bdd cube = m2.make_cube({0, 1});
  EXPECT_THROW(a & b, CheckError);
  EXPECT_THROW(a | b, CheckError);
  EXPECT_THROW(a ^ b, CheckError);
  EXPECT_THROW(m1.ite(a, b, a), CheckError);
  EXPECT_THROW(m1.apply_not(b), CheckError);
  EXPECT_THROW(m1.exists(a, cube), CheckError);
  EXPECT_THROW(m1.forall(a, cube), CheckError);
  EXPECT_THROW(m1.and_exists(a, b, cube), CheckError);
  EXPECT_THROW(m1.compose(a, 0, b), CheckError);
  EXPECT_THROW(m1.cofactor(b, 0, true), CheckError);
  EXPECT_THROW(m1.permute(b, {0, 1, 2, 3}), CheckError);
  EXPECT_THROW((void)m1.sat_count(b, 4), CheckError);
  EXPECT_THROW((void)m1.eval(b, {false, false, false, false}), CheckError);
  EXPECT_THROW(m1.pick_minterm(b, {0}), CheckError);
  EXPECT_THROW(m1.all_minterms(b, {0, 1, 2, 3}), CheckError);
  EXPECT_THROW(m1.support_vars(b), CheckError);
  EXPECT_THROW(m1.support_cube(b), CheckError);
}

// An unallocated variable id throws at the entry that takes it, as var()
// and nvar() do, instead of indexing the level map or the unique subtables
// past their end.  A permutation map is checked the first time it is seen.
TEST(BddGuards, UnallocatedVariableIdsThrow) {
  BddManager mgr(2);
  const Bdd f = mgr.var(0) & mgr.var(1);
  const Bdd g = mgr.var(1);
  EXPECT_THROW(mgr.var(7), CheckError);
  EXPECT_THROW(mgr.nvar(7), CheckError);
  EXPECT_THROW(mgr.compose(f, 7, g), CheckError);
  EXPECT_THROW(mgr.cofactor(f, 7, true), CheckError);
  EXPECT_THROW(mgr.make_cube({0, 7}), CheckError);
  EXPECT_THROW(mgr.make_minterm({7, 1}, {true, false}), CheckError);
  EXPECT_THROW(mgr.permute(f, {1, 7}), CheckError);
  EXPECT_THROW(mgr.permute(f, {1, 1}), CheckError);  // not a permutation
  EXPECT_THROW(mgr.pick_minterm(f, {0, 7}), CheckError);
  EXPECT_THROW(mgr.all_minterms(f, {0, 7}), CheckError);
  std::vector<std::uint64_t> rows;
  EXPECT_THROW(mgr.append_minterm_rows(f, {7, 0}, {0, 1}, 1, rows),
               CheckError);
  EXPECT_THROW((void)mgr.minterm_count(f, {0, 1, 7}), CheckError);
  std::uint64_t row = 0;
  EXPECT_THROW(mgr.minterm_row_at(f, {7, 0}, {0, 1}, 0, &row, 1), CheckError);
  EXPECT_THROW((void)mgr.level_of(7), CheckError);
  EXPECT_THROW((void)mgr.var_at_level(7), CheckError);
  // The checks leave the manager usable, and a valid map still renames.
  EXPECT_EQ(mgr.permute(mgr.var(0), {1, 0}), g);
  EXPECT_EQ(mgr.compose(f, 0, mgr.bdd_true()), g);
  mgr.validate_canonical();
}

// Orphaned handles (manager destroyed first) count as invalid operands.
TEST(BddGuards, OrphanedHandleThrowsInsteadOfCrashing) {
  Bdd orphan;
  {
    BddManager mgr(2);
    orphan = mgr.var(0);
  }
  EXPECT_FALSE(orphan.valid());
  BddManager other(2);
  EXPECT_THROW(orphan & other.var(0), CheckError);
  EXPECT_THROW(!orphan, CheckError);
}

// --- sat_count wide-support regression ---------------------------------------
//
// The all-double implementation multiplied per-level weights of 2^gap and
// overflowed to inf past ~1023 effective variables, silently poisoning every
// downstream statistic.  The mantissa/exponent (ldexp) version is exact for
// any representable count and throws instead of returning inf.

TEST(BddSatCount, WideSupportExactCounts) {
  const std::uint32_t nvars = 1100;
  BddManager mgr(nvars);
  // A cube of the first 100 variables: exactly 2^1000 satisfying
  // assignments of the 1100-variable universe — representable, and the
  // old implementation's overflow territory starts right above it.
  std::vector<std::uint32_t> vars(100);
  for (std::uint32_t i = 0; i < 100; ++i) vars[i] = i;
  EXPECT_EQ(mgr.sat_count(mgr.make_cube(vars), nvars), std::ldexp(1.0, 1000));
  // A cube of ALL 1100 variables: exactly one satisfying assignment.
  std::vector<std::uint32_t> all(nvars);
  for (std::uint32_t i = 0; i < nvars; ++i) all[i] = i;
  EXPECT_EQ(mgr.sat_count(mgr.make_cube(all), nvars), 1.0);
  EXPECT_EQ(mgr.sat_count(mgr.bdd_false(), nvars), 0.0);
}

TEST(BddSatCount, OverflowIsLoud) {
  const std::uint32_t nvars = 1100;
  BddManager mgr(nvars);
  // x_0 leaves 1099 free variables: 2^1099 > double max — must throw, not
  // return inf.
  EXPECT_THROW((void)mgr.sat_count(mgr.var(0), nvars), CheckError);
  EXPECT_THROW((void)mgr.sat_count(mgr.bdd_true(), nvars), CheckError);
}

TEST(BddSatCount, SmallCountsUnchanged) {
  BddManager mgr(8);
  const Bdd f = (mgr.var(0) & mgr.var(1)) | mgr.var(2);
  // 2^8 assignments; f true on (a&b)|c: 1*1*2*32 + ... brute force instead:
  double expected = 0;
  for (int bits = 0; bits < 256; ++bits) {
    std::vector<bool> a(8);
    for (int i = 0; i < 8; ++i) a[i] = (bits >> i) & 1;
    if ((a[0] && a[1]) || a[2]) expected += 1;
  }
  EXPECT_EQ(mgr.sat_count(f, 8), expected);
}

// --- exact counts and rank reads ---------------------------------------------
//
// minterm_count counts the rows append_minterm_rows lists, and
// minterm_row_at(rank) writes the row it lists at that rank.

TEST(BddMintermCount, RowAtNamesEveryListedRow) {
  BddManager mgr(6);
  Rng rng(7);
  const std::vector<std::uint32_t> vars{0, 1, 2, 3, 4, 5};
  // Row bits in reverse, so a row is not just the rank's binary digits.
  const std::vector<std::uint32_t> bits{5, 4, 3, 2, 1, 0};
  for (int trial = 0; trial < 40; ++trial) {
    // A random union of cubes, some of them constant.
    Bdd f = mgr.bdd_false();
    for (std::uint64_t c = rng.below(5); c-- > 0;) {
      Bdd cube = mgr.bdd_true();
      for (const std::uint32_t v : vars)
        if (rng.below(3) == 0) cube &= rng.flip() ? mgr.var(v) : mgr.nvar(v);
      f |= cube;
    }
    std::vector<std::uint64_t> rows;
    mgr.append_minterm_rows(f, vars, bits, 1, rows);
    ASSERT_EQ(mgr.minterm_count(f, vars), rows.size());
    for (std::uint64_t r = 0; r < rows.size(); ++r) {
      std::uint64_t row = ~std::uint64_t{0};
      mgr.minterm_row_at(f, vars, bits, r, &row, 1);
      EXPECT_EQ(row, rows[r]) << "trial " << trial << " rank " << r;
    }
  }
}

TEST(BddMintermCount, NewVarAfterACountStartsAfresh) {
  // The memo's level table is sized by the variables; a new one moves the
  // terminal's level, so a later count must not read the old table.
  BddManager mgr(2);
  const std::vector<std::uint32_t> vars{0, 1};
  EXPECT_EQ(mgr.minterm_count(mgr.var(0), vars), 2u);
  (void)mgr.new_var();
  EXPECT_EQ(mgr.minterm_count(mgr.bdd_true(), vars), 4u);
  EXPECT_EQ(mgr.minterm_count(mgr.var(1), vars), 2u);
  EXPECT_EQ(mgr.minterm_count(mgr.var(0) & mgr.var(1), vars), 1u);
}

TEST(BddMintermCount, OverflowAndUncoveredSupportAreLoud) {
  BddManager mgr(64);
  std::vector<std::uint32_t> vars(64);
  for (std::uint32_t i = 0; i < 64; ++i) vars[i] = i;
  EXPECT_EQ(mgr.minterm_count(mgr.var(0), vars), std::uint64_t{1} << 63);
  EXPECT_EQ(mgr.minterm_count(mgr.var(0) | mgr.var(1), vars),
            3 * (std::uint64_t{1} << 62));
  // 2^64 assignments: one past the largest count.
  EXPECT_THROW((void)mgr.minterm_count(mgr.bdd_true(), vars), CheckError);
  EXPECT_THROW((void)mgr.minterm_count(mgr.var(0), {1, 2}), CheckError);
}

// --- GC stress: "GC only at op entry" ----------------------------------------
//
// With the threshold forced to 0 a mark-and-sweep collection runs at every
// public operation entry (and the threshold never doubles back up), so any
// raw node index held across a collection point would be torn under the
// recursion's feet.  Re-run the whole op battery under that regime against
// an unstressed reference manager: results must be semantically identical.

TEST(BddGcStress, OpBatterySurvivesCollectionAtEveryEntry) {
  constexpr std::uint32_t kVars = 8;
  BddManager stress(kVars), ref(kVars);
  stress.set_gc_threshold(0);
  ASSERT_EQ(stress.gc_threshold(), 0u);

  const auto equivalent = [&](const Bdd& s, const Bdd& r) {
    for (int bits = 0; bits < (1 << kVars); ++bits) {
      std::vector<bool> a(kVars);
      for (std::uint32_t i = 0; i < kVars; ++i) a[i] = (bits >> i) & 1;
      if (stress.eval(s, a) != ref.eval(r, a)) return false;
    }
    return true;
  };

  Rng rng_s(2024), rng_r(2024);
  for (int trial = 0; trial < 8; ++trial) {
    const Bdd fs = fixtures::random_bdd(stress, rng_s, 4, kVars);
    const Bdd gs = fixtures::random_bdd(stress, rng_s, 4, kVars);
    const Bdd fr = fixtures::random_bdd(ref, rng_r, 4, kVars);
    const Bdd gr = fixtures::random_bdd(ref, rng_r, 4, kVars);
    ASSERT_TRUE(equivalent(fs, fr)) << "trial " << trial;

    const Bdd cube_s = stress.make_cube({0, 3});
    const Bdd cube_r = ref.make_cube({0, 3});
    EXPECT_TRUE(equivalent(fs & gs, fr & gr));
    EXPECT_TRUE(equivalent(fs | gs, fr | gr));
    EXPECT_TRUE(equivalent(fs ^ gs, fr ^ gr));
    EXPECT_TRUE(equivalent(!fs, !fr));
    EXPECT_TRUE(equivalent(stress.ite(fs, gs, !gs), ref.ite(fr, gr, !gr)));
    EXPECT_TRUE(equivalent(stress.exists(fs, cube_s), ref.exists(fr, cube_r)));
    EXPECT_TRUE(equivalent(stress.forall(fs, cube_s), ref.forall(fr, cube_r)));
    EXPECT_TRUE(equivalent(stress.and_exists(fs, gs, cube_s),
                           ref.and_exists(fr, gr, cube_r)));
    std::vector<std::uint32_t> swap_map{1, 0, 2, 3, 4, 5, 7, 6};
    EXPECT_TRUE(equivalent(stress.permute(fs, swap_map),
                           ref.permute(fr, swap_map)));
    EXPECT_TRUE(equivalent(stress.compose(fs, 2, gs), ref.compose(fr, 2, gr)));
    EXPECT_TRUE(equivalent(stress.cofactor(fs, 1, true),
                           ref.cofactor(fr, 1, true)));
    EXPECT_EQ(stress.sat_count(fs, kVars), ref.sat_count(fr, kVars));
    if (!fs.is_false()) {
      // The picked minterm must satisfy the stressed function.
      const std::vector<std::uint32_t> vars{0, 1, 2, 3, 4, 5, 6, 7};
      const auto tri = stress.pick_minterm(fs, vars);
      std::vector<bool> a(kVars, false);
      for (std::uint32_t i = 0; i < kVars; ++i) a[i] = tri[i] == Tri::One;
      EXPECT_TRUE(stress.eval(fs, a));
    }
  }
  // The regime really did collect constantly.
  EXPECT_GT(stress.gc_count(), 100u);
  EXPECT_EQ(ref.gc_count(), 0u);
}

}  // namespace
}  // namespace xatpg
