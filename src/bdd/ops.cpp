// Recursive BDD operation cores over complemented edges.  All *_rec
// functions operate on raw edge values ((node << 1) | complement); garbage
// collection and dynamic reordering are only ever triggered at the public
// entry points (maybe_gc), so edges remain stable throughout a recursion.
//
// Complement discipline: the cofactors of a complemented edge are the
// complemented cofactors of its node (!(v ? h : l) == v ? !h : !l), so every
// recursion folds the incoming complement bit into the child edges it
// descends.  Operations that commute with complement (permute, compose,
// cofactor) strip the bit before probing the computed cache and re-apply it
// to the result, so f and !f share one cache entry; ITE normalizes with the
// standard-triple rules and carries the complement on its result; forall is
// literally !exists(!f) and needs no core of its own.
//
// Ordering discipline: nodes store the VARIABLE index, but the order is the
// level permutation (BddManager::level_of).  Every "which operand is on
// top?" decision therefore compares LEVELS, never variable indices —
// variable indices only decide identity ("is this the quantified/composed
// variable?").  The terminal sorts below every level (kLevelTerminal).
#include <algorithm>
#include <cmath>
#include <numeric>

#include "bdd/bdd.hpp"
#include "util/check.hpp"
#include "util/packed.hpp"

namespace xatpg {

// Every public operation entry must reject operands from a different
// manager (edges are meaningless across arenas — mixing silently computes
// garbage) and invalid handles (null manager deref).  ite() always
// enforced this; these macros extend the same guard to the other entry
// points.
#define XATPG_CHECK_SAME_MGR1(f)                                            \
  XATPG_CHECK_MSG((f).manager() == this,                                    \
                  "Bdd operand is invalid or belongs to a different manager")
#define XATPG_CHECK_SAME_MGR2(f, g)                                         \
  do {                                                                      \
    XATPG_CHECK_SAME_MGR1(f);                                               \
    XATPG_CHECK_SAME_MGR1(g);                                               \
  } while (0)

// ---------------------------------------------------------------------------
// ite
// ---------------------------------------------------------------------------

Bdd BddManager::ite(const Bdd& f, const Bdd& g, const Bdd& h) {
  XATPG_CHECK(f.manager() == this && g.manager() == this &&
              h.manager() == this);
  maybe_gc();
  return Bdd(this, ite_rec(f.index(), g.index(), h.index()));
}

std::uint32_t BddManager::ite_rec(std::uint32_t f, std::uint32_t g,
                                  std::uint32_t h) {
  // Terminal cases.
  if (f == kTrueEdge) return g;
  if (f == kFalseEdge) return h;
  if (g == h) return g;
  // Arguments that repeat (or complement) f collapse to constants: on the
  // branch where g (resp. h) is consulted, f's value is already fixed.
  if (g == f) g = kTrueEdge;
  else if (g == edge_not(f)) g = kFalseEdge;
  if (h == f) h = kFalseEdge;
  else if (h == edge_not(f)) h = kTrueEdge;
  if (g == h) return g;
  if (g == kTrueEdge && h == kFalseEdge) return f;
  if (g == kFalseEdge && h == kTrueEdge) return edge_not(f);

  // Standard-triple normalization (Brace/Rudell/Bryant): among the
  // equivalent spellings of an OR/AND/XOR-shaped call pick the one whose
  // first argument has the smaller node index, then force f and g
  // uncomplemented (the g rule complements the cached result instead).
  // Together these map up to 8 complement/operand variants of one function
  // pair onto a single cache entry — the effective-hit-rate win complement
  // edges are known for.
  if (g == kTrueEdge) {  // f | h == h | f
    if (edge_node(h) < edge_node(f)) std::swap(f, h);
  } else if (h == kFalseEdge) {  // f & g == g & f
    if (edge_node(g) < edge_node(f)) std::swap(f, g);
  } else if (g == kFalseEdge) {  // !f & h == !h-first spelling
    if (edge_node(h) < edge_node(f)) {
      const std::uint32_t of = f;
      f = edge_not(h);
      h = edge_not(of);
    }
  } else if (h == kTrueEdge) {  // f -> g == !g -> !f
    if (edge_node(g) < edge_node(f)) {
      const std::uint32_t of = f;
      f = edge_not(g);
      g = edge_not(of);
    }
  } else if (h == edge_not(g)) {  // xnor commutes: ite(f,g,!g) == ite(g,f,!f)
    if (edge_node(g) < edge_node(f)) {
      const std::uint32_t of = f;
      f = g;
      g = of;
      h = edge_not(of);
    }
  }
  if (edge_comp(f)) {  // ite(!f, g, h) == ite(f, h, g)
    f = edge_not(f);
    std::swap(g, h);
  }
  bool out_comp = false;
  if (edge_comp(g)) {  // ite(f, !g, !h) == !ite(f, g, h)
    g = edge_not(g);
    h = edge_not(h);
    out_comp = true;
  }

  std::size_t slot = 0;
  const std::uint32_t hit = cache_lookup(Op::Ite, f, g, h, slot);
  if (hit != kNil) return out_comp ? edge_not(hit) : hit;

  const std::uint32_t top_level = std::min(
      level_of_edge(f), std::min(level_of_edge(g), level_of_edge(h)));
  const std::uint32_t top_var = level_to_var_[top_level];

  const auto cof = [&](std::uint32_t e, bool hi_side) {
    const Node& n = nodes_[edge_node(e)];
    if (n.var != top_var) return e;
    return (hi_side ? n.hi : n.lo) ^ (e & 1u);
  };

  const std::uint32_t r0 = ite_rec(cof(f, false), cof(g, false), cof(h, false));
  const std::uint32_t r1 = ite_rec(cof(f, true), cof(g, true), cof(h, true));
  const std::uint32_t result = make_node(top_var, r0, r1);
  cache_insert(slot, Op::Ite, f, g, h, result);
  return out_comp ? edge_not(result) : result;
}

Bdd BddManager::apply_and(const Bdd& f, const Bdd& g) {
  XATPG_CHECK_SAME_MGR2(f, g);
  maybe_gc();
  return Bdd(this, ite_rec(f.index(), g.index(), kFalseEdge));
}

Bdd BddManager::apply_or(const Bdd& f, const Bdd& g) {
  XATPG_CHECK_SAME_MGR2(f, g);
  maybe_gc();
  return Bdd(this, ite_rec(f.index(), kTrueEdge, g.index()));
}

Bdd BddManager::apply_xor(const Bdd& f, const Bdd& g) {
  XATPG_CHECK_SAME_MGR2(f, g);
  maybe_gc();
  return Bdd(this, ite_rec(f.index(), edge_not(g.index()), g.index()));
}

Bdd BddManager::apply_not(const Bdd& f) {
  XATPG_CHECK_SAME_MGR1(f);
  // A pure bit flip: no recursion, no allocation, no GC point.
  return Bdd(this, edge_not(f.index()));
}

// ---------------------------------------------------------------------------
// Quantification
// ---------------------------------------------------------------------------

Bdd BddManager::exists(const Bdd& f, const Bdd& cube) {
  XATPG_CHECK_SAME_MGR2(f, cube);
  maybe_gc();
  return Bdd(this, exists_rec(f.index(), cube.index()));
}

Bdd BddManager::forall(const Bdd& f, const Bdd& cube) {
  XATPG_CHECK_SAME_MGR2(f, cube);
  maybe_gc();
  // ∀x.f == !∃x.!f — with O(1) negation the dual quantifier is free, and
  // forall shares the exists computed-cache entries through the complement.
  return Bdd(this, edge_not(exists_rec(edge_not(f.index()), cube.index())));
}

std::uint32_t BddManager::exists_rec(std::uint32_t f, std::uint32_t cube) {
  if (edge_node(f) == 0) return f;  // constants quantify to themselves
  // Skip quantified variables above f's top level (they do not occur in f).
  while (cube != kTrueEdge && level_of_edge(cube) < level_of_edge(f))
    cube = nodes_[edge_node(cube)].hi;
  if (cube == kTrueEdge) return f;

  std::size_t slot = 0;
  const std::uint32_t hit = cache_lookup(Op::Exists, f, cube, 0, slot);
  if (hit != kNil) return hit;

  const std::uint32_t fc = f & 1u;
  const Node nf = nodes_[edge_node(f)];
  const Node nc = nodes_[edge_node(cube)];
  const std::uint32_t lo = nf.lo ^ fc;
  const std::uint32_t hi = nf.hi ^ fc;
  std::uint32_t result;
  if (nf.var == nc.var) {
    const std::uint32_t l = exists_rec(lo, nc.hi);
    result = l == kTrueEdge ? kTrueEdge
                            : ite_rec(l, kTrueEdge, exists_rec(hi, nc.hi));
  } else {  // f's top level is above the cube's next variable
    const std::uint32_t l = exists_rec(lo, cube);
    const std::uint32_t r = exists_rec(hi, cube);
    result = make_node(nf.var, l, r);
  }
  cache_insert(slot, Op::Exists, f, cube, 0, result);
  return result;
}

Bdd BddManager::and_exists(const Bdd& f, const Bdd& g, const Bdd& cube) {
  XATPG_CHECK_SAME_MGR2(f, g);
  XATPG_CHECK_SAME_MGR1(cube);
  maybe_gc();
  return Bdd(this, and_exists_rec(f.index(), g.index(), cube.index()));
}

std::uint32_t BddManager::and_exists_rec(std::uint32_t f, std::uint32_t g,
                                         std::uint32_t cube) {
  if (f == kFalseEdge || g == kFalseEdge) return kFalseEdge;
  if (f == edge_not(g)) return kFalseEdge;  // f ∧ !f — free with complements
  if (f == g) g = kTrueEdge;                // f ∧ f
  if (f == kTrueEdge) return exists_rec(g, cube);
  if (g == kTrueEdge) return exists_rec(f, cube);
  if (cube == kTrueEdge) return ite_rec(f, g, kFalseEdge);

  const std::uint32_t top_level =
      std::min(level_of_edge(f), level_of_edge(g));
  while (cube != kTrueEdge && level_of_edge(cube) < top_level)
    cube = nodes_[edge_node(cube)].hi;
  if (cube == kTrueEdge) return ite_rec(f, g, kFalseEdge);

  // The conjunction commutes: canonicalize the operand order so (f, g) and
  // (g, f) share one cache entry.
  if (edge_node(g) < edge_node(f)) std::swap(f, g);
  std::size_t slot = 0;
  const std::uint32_t hit = cache_lookup(Op::AndExists, f, g, cube, slot);
  if (hit != kNil) return hit;

  const std::uint32_t top_var = level_to_var_[top_level];
  const auto cof = [&](std::uint32_t e, bool hi_side) {
    const Node& n = nodes_[edge_node(e)];
    if (n.var != top_var) return e;
    return (hi_side ? n.hi : n.lo) ^ (e & 1u);
  };

  std::uint32_t result;
  if (nodes_[edge_node(cube)].var == top_var) {
    const std::uint32_t rest = nodes_[edge_node(cube)].hi;
    const std::uint32_t r0 = and_exists_rec(cof(f, false), cof(g, false), rest);
    if (r0 == kTrueEdge) {
      result = kTrueEdge;
    } else {
      const std::uint32_t r1 = and_exists_rec(cof(f, true), cof(g, true), rest);
      result = ite_rec(r0, kTrueEdge, r1);
    }
  } else {
    const std::uint32_t r0 = and_exists_rec(cof(f, false), cof(g, false), cube);
    const std::uint32_t r1 = and_exists_rec(cof(f, true), cof(g, true), cube);
    result = make_node(top_var, r0, r1);
  }
  cache_insert(slot, Op::AndExists, f, g, cube, result);
  return result;
}

// ---------------------------------------------------------------------------
// Renaming / composition / cofactors
// ---------------------------------------------------------------------------

Bdd BddManager::permute(const Bdd& f, const std::vector<std::uint32_t>& var_map) {
  XATPG_CHECK_SAME_MGR1(f);
  XATPG_CHECK(var_map.size() == num_vars_);
  maybe_gc();
  const std::uint32_t perm_id = register_perm(var_map);
  return Bdd(this, permute_rec(f.index(), perm_id, var_map));
}

std::uint32_t BddManager::permute_rec(
    std::uint32_t f, std::uint32_t perm_id,
    const std::vector<std::uint32_t>& var_map) {
  if (edge_node(f) == 0) return f;
  // Renaming commutes with complement: cache on the regular (uncomplemented)
  // edge, re-apply the bit on the way out — f and !f share the entry.
  const std::uint32_t fc = f & 1u;
  const std::uint32_t fr = edge_regular(f);
  std::size_t slot = 0;
  const std::uint32_t hit = cache_lookup(Op::Permute, fr, perm_id, 0, slot);
  if (hit != kNil) return hit ^ fc;
  const Node nf = nodes_[edge_node(f)];
  const std::uint32_t l = permute_rec(nf.lo, perm_id, var_map);
  const std::uint32_t r = permute_rec(nf.hi, perm_id, var_map);
  // The renamed variable may fall anywhere in the order relative to the
  // rebuilt children.  When it still sits strictly above both (the common
  // case: the sgraph layouts keep each signal's cur/next/aux triple
  // adjacent, so group renamings preserve relative depth) one make_node
  // suffices; only genuine inversions pay for the ite on a fresh literal.
  const std::uint32_t new_level = var_to_level_[var_map[nf.var]];
  std::uint32_t result;
  if (new_level < level_of_edge(l) && new_level < level_of_edge(r)) {
    result = make_node(var_map[nf.var], l, r);
  } else {
    const std::uint32_t lit =
        make_node(var_map[nf.var], kFalseEdge, kTrueEdge);
    result = ite_rec(lit, r, l);
  }
  cache_insert(slot, Op::Permute, fr, perm_id, 0, result);
  return result ^ fc;
}

Bdd BddManager::compose(const Bdd& f, std::uint32_t v, const Bdd& g) {
  XATPG_CHECK_SAME_MGR2(f, g);
  check_var(v);
  maybe_gc();
  return Bdd(this, compose_rec(f.index(), v, g.index()));
}

std::uint32_t BddManager::compose_rec(std::uint32_t f, std::uint32_t v,
                                      std::uint32_t g) {
  if (edge_node(f) == 0) return f;
  const Node nf = nodes_[edge_node(f)];
  if (var_to_level_[nf.var] > var_to_level_[v]) return f;  // v cannot occur below
  // Composition commutes with complement on f (not on g): strip f's bit for
  // the cache, re-apply on return.
  const std::uint32_t fc = f & 1u;
  const std::uint32_t fr = edge_regular(f);
  std::size_t slot = 0;
  const std::uint32_t hit = cache_lookup(Op::Compose0, fr, g, v, slot);
  if (hit != kNil) return hit ^ fc;
  std::uint32_t result;
  if (nf.var == v) {
    result = ite_rec(g, nf.hi, nf.lo);
  } else {
    const std::uint32_t l = compose_rec(nf.lo, v, g);
    const std::uint32_t r = compose_rec(nf.hi, v, g);
    // Same fast path as permute_rec: when this node's variable is still
    // strictly above both rebuilt children, the substitution did not
    // reorder anything at this level and one make_node suffices.
    const std::uint32_t level = var_to_level_[nf.var];
    if (level < level_of_edge(l) && level < level_of_edge(r)) {
      result = make_node(nf.var, l, r);
    } else {
      const std::uint32_t lit = make_node(nf.var, kFalseEdge, kTrueEdge);
      result = ite_rec(lit, r, l);
    }
  }
  cache_insert(slot, Op::Compose0, fr, g, v, result);
  return result ^ fc;
}

Bdd BddManager::cofactor(const Bdd& f, std::uint32_t v, bool phase) {
  XATPG_CHECK_SAME_MGR1(f);
  check_var(v);
  maybe_gc();
  return Bdd(this, cofactor_rec(f.index(), v, phase));
}

std::uint32_t BddManager::cofactor_rec(std::uint32_t f, std::uint32_t v,
                                       bool phase) {
  if (edge_node(f) == 0) return f;
  const Node nf = nodes_[edge_node(f)];
  if (var_to_level_[nf.var] > var_to_level_[v]) return f;
  const std::uint32_t fc = f & 1u;
  if (nf.var == v) return (phase ? nf.hi : nf.lo) ^ fc;
  const std::uint32_t fr = edge_regular(f);
  const std::uint32_t key = (static_cast<std::uint32_t>(v) << 1) |
                            static_cast<std::uint32_t>(phase);
  std::size_t slot = 0;
  const std::uint32_t hit = cache_lookup(Op::Cofactor, fr, key, 0, slot);
  if (hit != kNil) return hit ^ fc;
  const std::uint32_t l = cofactor_rec(nf.lo, v, phase);
  const std::uint32_t r = cofactor_rec(nf.hi, v, phase);
  const std::uint32_t result = make_node(nf.var, l, r);
  cache_insert(slot, Op::Cofactor, fr, key, 0, result);
  return result ^ fc;
}

// ---------------------------------------------------------------------------
// Support / counting / extraction
// ---------------------------------------------------------------------------

std::vector<std::uint32_t> BddManager::support_vars(const Bdd& f) {
  XATPG_CHECK_SAME_MGR1(f);
  std::vector<bool> in_support(num_vars_, false);
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<std::uint32_t> stack;
  if (f.valid()) stack.push_back(edge_node(f.index()));
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    stack.pop_back();
    if (n == 0 || seen[n]) continue;
    seen[n] = true;
    const Node& node = nodes_[n];
    in_support[node.var] = true;
    stack.push_back(edge_node(node.lo));
    stack.push_back(edge_node(node.hi));
  }
  std::vector<std::uint32_t> out;
  for (std::uint32_t v = 0; v < num_vars_; ++v)
    if (in_support[v]) out.push_back(v);
  return out;
}

Bdd BddManager::support_cube(const Bdd& f) {
  return make_cube(support_vars(f));
}

Bdd BddManager::make_cube(const std::vector<std::uint32_t>& vars) {
  for (const std::uint32_t v : vars) check_var(v);
  // Build bottom-up (deepest level first) so each step is O(1).
  std::vector<std::uint32_t> sorted = vars;
  std::sort(sorted.begin(), sorted.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return var_to_level_[a] < var_to_level_[b];
            });
  std::uint32_t acc = kTrueEdge;
  for (auto it = sorted.rbegin(); it != sorted.rend(); ++it)
    acc = make_node(*it, kFalseEdge, acc);
  return Bdd(this, acc);
}

Bdd BddManager::make_minterm(const std::vector<std::uint32_t>& vars,
                             const std::vector<bool>& values) {
  XATPG_CHECK(vars.size() == values.size());
  for (const std::uint32_t v : vars) check_var(v);
  std::vector<std::pair<std::uint32_t, bool>> lits;
  lits.reserve(vars.size());
  for (std::size_t i = 0; i < vars.size(); ++i)
    lits.emplace_back(vars[i], values[i]);
  std::sort(lits.begin(), lits.end(),
            [&](const auto& a, const auto& b) {
              return var_to_level_[a.first] < var_to_level_[b.first];
            });
  std::uint32_t acc = kTrueEdge;
  for (auto it = lits.rbegin(); it != lits.rend(); ++it)
    acc = it->second ? make_node(it->first, kFalseEdge, acc)
                     : make_node(it->first, acc, kFalseEdge);
  return Bdd(this, acc);
}

double BddManager::sat_count(const Bdd& f, std::uint32_t nvars,
                             std::int64_t divide_exp) {
  XATPG_CHECK_SAME_MGR1(f);
  // Counts are kept as mantissa * 2^exponent with the exponent tracked
  // separately: the plain-double formulation (weights of 2^gap per skipped
  // level) overflows to inf past ~1023 effective variables, silently turning
  // every downstream statistic into inf/nan.  With the split representation
  // only the final conversion can overflow, and that is checked.
  struct Scaled {
    double m = 0;  // 0, or in [0.5, 1) after normalization
    std::int64_t e = 0;
  };
  const auto normalize = [](Scaled s) {
    if (s.m == 0) return Scaled{0, 0};
    int shift = 0;
    s.m = std::frexp(s.m, &shift);
    s.e += shift;
    return s;
  };
  const auto add = [&](Scaled a, Scaled b) {
    if (a.m == 0) return b;
    if (b.m == 0) return a;
    if (a.e < b.e) std::swap(a, b);
    // b is at most 2^64 below a; beyond double precision it vanishes, which
    // is the same rounding the all-double version performed.
    const std::int64_t down = b.e - a.e;
    a.m += down < -1074 ? 0.0 : std::ldexp(b.m, static_cast<int>(down));
    return normalize(a);
  };

  // The recursion counts assignments of the levels below each edge; the gap
  // weights use LEVELS, so the per-edge count depends on the current order —
  // but the final total is scaled over all num_vars() levels and then
  // adjusted to the caller's `nvars`-variable universe by a pure power of
  // two, making the returned count a function of f alone (reordering f
  // never changes its sat_count).  The memo is flat, as minterm_count's
  // is: `counted` numbers the EDGES counted so far (an edge and its
  // complement count different functions) and memo[k] holds edge k's
  // count, so its size follows f, not the node arena.
  PackedRowIndex counted(1);
  std::vector<Scaled> memo;
  // rec(e) = number of assignments of the levels in [level(e), num_vars_)
  // that satisfy e; the terminal behaves as level == num_vars_.
  auto rec = [&](auto&& self, std::uint32_t e) -> Scaled {
    if (e == kFalseEdge) return Scaled{0, 0};
    if (e == kTrueEdge) return Scaled{0.5, 1};
    const std::uint64_t key = e;
    if (const auto k = counted.find(&key)) return memo[*k];
    const Node nn = nodes_[edge_node(e)];
    const std::uint32_t ec = e & 1u;
    const std::uint32_t lo = nn.lo ^ ec;
    const std::uint32_t hi = nn.hi ^ ec;
    const std::uint32_t lvl = count_level(e);
    Scaled cl = self(self, lo);
    cl.e += count_level(lo) - lvl - 1;
    Scaled ch = self(self, hi);
    ch.e += count_level(hi) - lvl - 1;
    const Scaled result = add(cl, ch);
    counted.insert(&key);
    memo.push_back(result);
    return result;
  };

  Scaled total = rec(rec, f.index());
  // Levels above the root are free: scale by 2^level(root) (the terminal
  // acts as level == num_vars_, making the constants 0 and 2^num_vars_),
  // then rescale from the manager's universe to the caller's nvars universe.
  total.e += count_level(f.index());
  total.e += static_cast<std::int64_t>(nvars) -
             static_cast<std::int64_t>(num_vars_);
  total.e -= divide_exp;
  const double out = std::ldexp(total.m, static_cast<int>(
      std::clamp<std::int64_t>(total.e, -100000, 100000)));
  XATPG_CHECK_MSG(std::isfinite(out),
                  "sat_count overflows double (count ~ 2^" << total.e
                      << "); reduce the variable universe or divide_exp");
  return out;
}

std::vector<Tri> BddManager::pick_minterm(
    const Bdd& f, const std::vector<std::uint32_t>& vars) {
  XATPG_CHECK_SAME_MGR1(f);
  XATPG_CHECK_MSG(!f.is_false(), "cannot pick a minterm of the zero function");
  for (const std::uint32_t v : vars) check_var(v);
  std::vector<Tri> by_var(num_vars_, Tri::DontCare);
  std::uint32_t e = f.index();
  while (edge_node(e) != 0) {
    const Node nn = nodes_[edge_node(e)];
    const std::uint32_t lo = nn.lo ^ (e & 1u);
    if (lo != kFalseEdge) {
      by_var[nn.var] = Tri::Zero;
      e = lo;
    } else {
      by_var[nn.var] = Tri::One;
      e = nn.hi ^ (e & 1u);
    }
  }
  std::vector<Tri> out;
  out.reserve(vars.size());
  for (const std::uint32_t v : vars) out.push_back(by_var[v]);
  return out;
}

void BddManager::append_minterm_rows(const Bdd& f,
                                     const std::vector<std::uint32_t>& vars,
                                     const std::vector<std::uint32_t>& bits,
                                     std::size_t width,
                                     std::vector<std::uint64_t>& rows,
                                     std::size_t limit) {
  XATPG_CHECK_SAME_MGR1(f);
  XATPG_CHECK(bits.size() == vars.size());
  for (const std::uint32_t v : vars) check_var(v);
  for (std::size_t i = 1; i < vars.size(); ++i)
    XATPG_CHECK_MSG(var_to_level_[vars[i - 1]] < var_to_level_[vars[i]],
                    "vars must be strictly ascending in level");
  for (const std::uint32_t bit : bits)
    XATPG_CHECK_MSG(bit / 64 < width, "minterm bit outside the row");
  // The row under construction.  A frame walks its positions in a loop and
  // recurses only where both values are live (the 0 branch first), so a
  // chain of forced positions costs one iteration each.  Every position
  // writes its bit on the way down, so what deeper frames left behind is
  // overwritten before the next row is emitted.
  std::vector<std::uint64_t> current(width, 0);
  std::size_t count = 0;
  auto rec = [&](auto&& self, std::uint32_t e, std::size_t pos) -> void {
    for (; pos < vars.size(); ++pos) {
      const Node& nn = nodes_[edge_node(e)];
      std::uint32_t lo = e, hi = e;  // don't-care on vars[pos]
      if (nn.var == vars[pos]) {
        lo = nn.lo ^ (e & 1u);
        hi = nn.hi ^ (e & 1u);
      } else {
        XATPG_CHECK_MSG(level_of_edge(e) > var_to_level_[vars[pos]],
                        "all_minterms: variable list does not cover support");
      }
      std::uint64_t& word = current[bits[pos] / 64];
      const std::uint64_t mask = std::uint64_t{1} << (bits[pos] % 64);
      // A reduced node never has two false children.
      if (lo != kFalseEdge) {
        word &= ~mask;
        if (hi == kFalseEdge) {
          e = lo;
          continue;
        }
        self(self, lo, pos + 1);
      }
      word |= mask;
      e = hi;
    }
    XATPG_CHECK_MSG(e == kTrueEdge,
                    "all_minterms: variable list does not cover support");
    XATPG_CHECK_MSG(count < limit, "all_minterms: limit exceeded");
    ++count;
    rows.insert(rows.end(), current.begin(), current.end());
  };
  if (f.index() != kFalseEdge) rec(rec, f.index(), 0);
}

std::vector<std::vector<bool>> BddManager::all_minterms(
    const Bdd& f, const std::vector<std::uint32_t>& vars, std::size_t limit) {
  std::vector<std::uint32_t> bits(vars.size());
  std::iota(bits.begin(), bits.end(), 0u);
  const std::size_t width = state_words(vars.size());
  std::vector<std::uint64_t> rows;
  append_minterm_rows(f, vars, bits, width, rows, limit);
  std::vector<std::vector<bool>> out;
  out.reserve(rows.size() / width);
  for (std::size_t r = 0; r < rows.size(); r += width)
    out.push_back(unpack_state(rows.data() + r, vars.size()));
  return out;
}

// ---------------------------------------------------------------------------
// exact minterm counts and rank reads
// ---------------------------------------------------------------------------

std::uint32_t BddManager::count_level(std::uint32_t e) const {
  return edge_node(e) == 0 ? num_vars_
                           : var_to_level_[nodes_[edge_node(e)].var];
}

void BddManager::prepare_count_memo(const std::vector<std::uint32_t>& vars) {
  CountMemo& memo = count_memo_;
  if (memo.epoch == memo_epoch_ && memo.vars == vars) return;
  memo.vars = vars;
  memo.epoch = memo_epoch_;
  memo.below.assign(num_vars_ + 1, 0);
  for (const std::uint32_t v : vars) {
    check_var(v);
    memo.below[var_to_level_[v]] = 1;
  }
  for (std::uint32_t l = num_vars_; l-- > 0;)
    memo.below[l] += memo.below[l + 1];
  memo.edges = PackedRowIndex(1);
  memo.counts.clear();
}

std::uint64_t BddManager::count_below(std::uint32_t e, std::uint32_t level) {
  const std::uint64_t c = count_rec(e);
  const std::uint32_t free =
      count_memo_.below[level + 1] - count_memo_.below[count_level(e)];
  XATPG_CHECK_MSG(c == 0 || (free < 64 && c <= (~std::uint64_t{0} >> free)),
                  "minterm count overflows 64 bits");
  return c << free;
}

std::uint64_t BddManager::count_rec(std::uint32_t e) {
  if (e == kFalseEdge) return 0;
  if (e == kTrueEdge) return 1;
  CountMemo& memo = count_memo_;
  const std::uint64_t key = e;
  if (const auto known = memo.edges.find(&key)) return memo.counts[*known];
  const Node nn = nodes_[edge_node(e)];
  const std::uint32_t level = count_level(e);
  XATPG_CHECK_MSG(memo.below[level] != memo.below[level + 1],
                  "minterm_count: variable list does not cover support");
  const std::uint64_t lo = count_below(nn.lo ^ (e & 1u), level);
  const std::uint64_t hi = count_below(nn.hi ^ (e & 1u), level);
  XATPG_CHECK_MSG(lo <= ~hi, "minterm count overflows 64 bits");
  memo.edges.insert(&key);
  memo.counts.push_back(lo + hi);
  return lo + hi;
}

std::uint64_t BddManager::minterm_count(
    const Bdd& f, const std::vector<std::uint32_t>& vars) {
  XATPG_CHECK_SAME_MGR1(f);
  prepare_count_memo(vars);
  // The root's count, scaled by the counted variables above it.
  const std::uint32_t root = count_level(f.index());
  const std::uint64_t c = count_rec(f.index());
  const std::uint32_t free = count_memo_.below[0] - count_memo_.below[root];
  XATPG_CHECK_MSG(c == 0 || (free < 64 && c <= (~std::uint64_t{0} >> free)),
                  "minterm count overflows 64 bits");
  return c << free;
}

void BddManager::minterm_row_at(const Bdd& f,
                                const std::vector<std::uint32_t>& vars,
                                const std::vector<std::uint32_t>& bits,
                                std::uint64_t rank, std::uint64_t* row,
                                std::size_t width) {
  XATPG_CHECK(bits.size() == vars.size());
  for (const std::uint32_t v : vars) check_var(v);
  for (std::size_t i = 1; i < vars.size(); ++i)
    XATPG_CHECK_MSG(var_to_level_[vars[i - 1]] < var_to_level_[vars[i]],
                    "vars must be strictly ascending in level");
  for (const std::uint32_t bit : bits)
    XATPG_CHECK_MSG(bit / 64 < width, "minterm bit outside the row");
  XATPG_CHECK_MSG(rank < minterm_count(f, vars), "minterm rank out of range");
  // Rows list the 0 branch of each position first, so rank r lies in the
  // 0 branch iff r is below that branch's count; otherwise the 1 branch
  // holds it at r minus that count.
  std::fill(row, row + width, std::uint64_t{0});
  std::uint32_t e = f.index();
  for (std::size_t pos = 0; pos < vars.size(); ++pos) {
    const std::uint32_t level = var_to_level_[vars[pos]];
    std::uint32_t lo = e, hi = e;  // don't-care on vars[pos]
    if (count_level(e) == level) {
      const Node& nn = nodes_[edge_node(e)];
      lo = nn.lo ^ (e & 1u);
      hi = nn.hi ^ (e & 1u);
    }
    const std::uint64_t zeros = count_below(lo, level);
    if (rank < zeros) {
      e = lo;
    } else {
      rank -= zeros;
      e = hi;
      row[bits[pos] / 64] |= std::uint64_t{1} << (bits[pos] % 64);
    }
  }
  XATPG_CHECK(e == kTrueEdge);
}

bool BddManager::eval(const Bdd& f, const std::vector<bool>& assignment) {
  XATPG_CHECK_SAME_MGR1(f);
  std::uint32_t e = f.index();
  while (edge_node(e) != 0) {
    const Node& nn = nodes_[edge_node(e)];
    XATPG_CHECK(nn.var < assignment.size());
    e = (assignment[nn.var] ? nn.hi : nn.lo) ^ (e & 1u);
  }
  return e == kTrueEdge;
}

}  // namespace xatpg
