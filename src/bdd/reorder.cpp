// Dynamic variable reordering: in-place adjacent-level swap, block (group)
// moves, Rudell sifting, and explicit order changes.
//
// The central invariant: every node INDEX keeps representing the same
// Boolean function across any reorder.  swap_adjacent_levels restructures
// the affected upper-level nodes in place (relabelling them and giving them
// fresh children) instead of allocating replacements, so external Bdd
// handles, cached literal nodes, registered permutations and even computed
// cache entries all stay semantically valid — reordering is invisible to
// every layer above except through node counts and the level maps.
//
// Deadness discipline: this package has no per-node reference counts, so a
// swap cannot tell which orphaned children become garbage.  Dead nodes stay
// chained in their subtables and are restructured by later swaps exactly
// like live ones, which keeps every table-resident node consistent with the
// current order (the no-duplicate argument in swap_adjacent_levels relies
// on this).  Exact live sizes for the sifting decisions come from
// mark-and-sweep (live_size) after each block move.  Reordering needs no
// computed-cache invalidation of its own: an entry stays usable until a
// sweep frees a node it names (see cache_entry_live).
#include <algorithm>

#include "bdd/bdd.hpp"
#include "util/check.hpp"

namespace xatpg {

void BddManager::swap_adjacent_levels(std::uint32_t level) {
  XATPG_CHECK(level + 1 < num_vars_);
  const std::uint32_t xv = level_to_var_[level];      // upper variable
  const std::uint32_t yv = level_to_var_[level + 1];  // lower variable

  // Snapshot the nodes labelled xv: restructuring inserts fresh xv nodes
  // into the same subtable, and those must not be revisited.
  std::vector<std::uint32_t> upper;
  upper.reserve(subtables_[xv].count);
  for (const std::uint32_t head : subtables_[xv].buckets)
    for (std::uint32_t n = head; n != kNil; n = nodes_[n].next)
      upper.push_back(n);

  for (const std::uint32_t n : upper) {
    const Node node = nodes_[n];
    const std::uint32_t lo_n = edge_node(node.lo);
    const std::uint32_t hi_n = edge_node(node.hi);
    const bool lo_y = lo_n != 0 && nodes_[lo_n].var == yv;
    const bool hi_y = hi_n != 0 && nodes_[hi_n].var == yv;
    // A node independent of yv keeps its label and silently sinks one
    // level; nothing structural changes.
    if (!lo_y && !hi_y) continue;
    // f = x ? f1 : f0,  f1 = y ? f11 : f10,  f0 = y ? f01 : f00
    //   = y ? (x ? f11 : f01) : (x ? f10 : f00)
    // The ELSE edge's complement bit distributes onto f00/f01; the THEN
    // edge is uncomplemented by canonical form, so f10/f11 are verbatim.
    // That also makes f11 uncomplemented, so the rebuilt THEN child c1 is
    // always a plain edge and the relabelled node keeps the
    // no-complemented-THEN-edge invariant in place.
    const std::uint32_t lc = node.lo & 1u;
    const std::uint32_t f00 = lo_y ? (nodes_[lo_n].lo ^ lc) : node.lo;
    const std::uint32_t f01 = lo_y ? (nodes_[lo_n].hi ^ lc) : node.lo;
    const std::uint32_t f10 = hi_y ? nodes_[hi_n].lo : node.hi;
    const std::uint32_t f11 = hi_y ? nodes_[hi_n].hi : node.hi;
    // Unhook n before creating the new children: the (f0, f1) slot in the
    // subtable must not resolve to n itself.  The new children can never
    // collide with an unprocessed upper node (those have a yv child; the
    // new children's cofactor pairs never do), and the relabelled n cannot
    // collide with an existing yv node (at least one of its children is
    // xv-labelled — both collapsing would force node.lo == node.hi by
    // canonicity — impossible for children built while xv was above yv) —
    // so canonicity survives without a global rehash.
    subtable_remove(xv, n);
    const std::uint32_t c0 = make_node(xv, f00, f10);
    const std::uint32_t c1 = make_node(xv, f01, f11);
    nodes_[n].var = yv;
    nodes_[n].lo = c0;
    nodes_[n].hi = c1;
    subtable_insert(yv, n);
  }

  level_to_var_[level] = yv;
  level_to_var_[level + 1] = xv;
  var_to_level_[xv] = level + 1;
  var_to_level_[yv] = level;
  ++swap_count_;
  ++memo_epoch_;
}

void BddManager::swap_adjacent_blocks(std::uint32_t first, std::uint32_t a,
                                      std::uint32_t b) {
  // Bubble each variable of the lower block up through the upper block,
  // lowest-level-first, preserving the internal order of both: a*b swaps.
  for (std::uint32_t i = 0; i < b; ++i)
    for (std::uint32_t l = first + a + i; l-- > first + i;)
      swap_adjacent_levels(l);
}

void BddManager::block_at(std::uint32_t level, std::uint32_t* first,
                          std::uint32_t* size) const {
  const std::uint32_t group = group_of_var_[level_to_var_[level]];
  if (group == kNoGroup) {
    *first = level;
    *size = 1;
    return;
  }
  std::uint32_t lo = level, hi = level;
  while (lo > 0 && group_of_var_[level_to_var_[lo - 1]] == group) --lo;
  while (hi + 1 < num_vars_ && group_of_var_[level_to_var_[hi + 1]] == group)
    ++hi;
  *first = lo;
  *size = hi - lo + 1;
}

void BddManager::set_var_groups(
    const std::vector<std::vector<std::uint32_t>>& groups) {
  std::vector<std::uint32_t> assignment(num_vars_, kNoGroup);
  for (std::uint32_t g = 0; g < groups.size(); ++g) {
    XATPG_CHECK_MSG(!groups[g].empty(), "empty variable group");
    std::uint32_t lo = kNil, hi = 0;
    for (const std::uint32_t v : groups[g]) {
      XATPG_CHECK_MSG(v < num_vars_, "grouped variable " << v << " not allocated");
      XATPG_CHECK_MSG(assignment[v] == kNoGroup,
                      "variable " << v << " appears in two groups");
      assignment[v] = g;
      lo = std::min(lo, var_to_level_[v]);
      hi = std::max(hi, var_to_level_[v]);
    }
    XATPG_CHECK_MSG(hi - lo + 1 == groups[g].size(),
                    "variable group must occupy adjacent levels");
  }
  group_of_var_ = std::move(assignment);
}

void BddManager::clear_var_groups() {
  group_of_var_.assign(num_vars_, kNoGroup);
}

std::size_t BddManager::live_size() {
  sweep_dead();
  return allocated_nodes();
}

void BddManager::sift_block(std::uint32_t first, std::uint32_t size,
                            std::size_t* total_size, std::size_t* swaps) {
  // Walk the block down to the bottom of the order, then up to the top,
  // recording the canonical live size at every position; finish by moving
  // back to the best position seen.  A position's size is path-independent
  // (the live table at a fixed order is canonical), so the recorded best is
  // reproduced exactly on return.  Either walk aborts early once the table
  // grows past max_growth x the best size seen.
  std::size_t best_size = *total_size;
  std::uint32_t cur = first;  // the block's current first level
  std::uint32_t best = first;
  const double growth = std::max(1.0, reorder_policy_.max_growth);
  const auto exceeded = [&](std::size_t now) {
    return static_cast<double>(now) >
           growth * static_cast<double>(best_size);
  };

  // Down toward the bottom.
  while (cur + size < num_vars_) {
    std::uint32_t nfirst = 0, nsize = 0;
    block_at(cur + size, &nfirst, &nsize);
    swap_adjacent_blocks(cur, size, nsize);
    *swaps += static_cast<std::size_t>(size) * nsize;
    cur += nsize;
    const std::size_t now = live_size();
    if (now < best_size) {
      best_size = now;
      best = cur;
    } else if (exceeded(now)) {
      break;
    }
  }
  // Up toward the top (from wherever the down walk stopped).
  while (cur > 0) {
    std::uint32_t nfirst = 0, nsize = 0;
    block_at(cur - 1, &nfirst, &nsize);
    swap_adjacent_blocks(nfirst, nsize, size);
    *swaps += static_cast<std::size_t>(size) * nsize;
    cur = nfirst;
    const std::size_t now = live_size();
    if (now < best_size) {
      best_size = now;
      best = cur;
    } else if (exceeded(now)) {
      break;
    }
  }
  // Return to the best position (block ordinals have path-independent
  // first levels, so plain level comparison steers the walk).
  while (cur != best) {
    if (cur < best) {
      std::uint32_t nfirst = 0, nsize = 0;
      block_at(cur + size, &nfirst, &nsize);
      swap_adjacent_blocks(cur, size, nsize);
      *swaps += static_cast<std::size_t>(size) * nsize;
      cur += nsize;
    } else {
      std::uint32_t nfirst = 0, nsize = 0;
      block_at(cur - 1, &nfirst, &nsize);
      swap_adjacent_blocks(nfirst, nsize, size);
      *swaps += static_cast<std::size_t>(size) * nsize;
      cur = nfirst;
    }
  }
  *total_size = live_size();
  XATPG_CHECK_MSG(*total_size == best_size,
                  "sifting failed to reproduce the best size (canonicity bug)");
}

ReorderStats BddManager::sift() {
  ReorderStats stats;
  reordering_ = true;
  sweep_dead();
  stats.size_before = allocated_nodes();
  stats.size_after = stats.size_before;
  if (num_vars_ < 2) {
    reordering_ = false;
    return stats;
  }

  // Enumerate the blocks (maximal group runs / singleton variables) and
  // order them by node population, largest first — Rudell's heuristic:
  // place the fattest variables early while the table is most malleable.
  struct BlockRef {
    std::uint32_t anchor;  // a member variable; relocates the block later
    std::size_t nodes;
  };
  std::vector<BlockRef> refs;
  for (std::uint32_t l = 0; l < num_vars_;) {
    std::uint32_t first = 0, size = 0;
    block_at(l, &first, &size);
    std::size_t count = 0;
    for (std::uint32_t i = 0; i < size; ++i)
      count += subtables_[level_to_var_[first + i]].count;
    refs.push_back({level_to_var_[first], count});
    l = first + size;
  }
  if (refs.size() < 2) {
    reordering_ = false;
    return stats;
  }
  std::sort(refs.begin(), refs.end(),
            [](const BlockRef& a, const BlockRef& b) {
              if (a.nodes != b.nodes) return a.nodes > b.nodes;
              return a.anchor < b.anchor;  // deterministic tie-break
            });

  std::size_t total = stats.size_before;
  for (const BlockRef& ref : refs) {
    std::uint32_t first = 0, size = 0;
    block_at(var_to_level_[ref.anchor], &first, &size);
    sift_block(first, size, &total, &stats.swaps);
    ++stats.blocks_sifted;
  }
  stats.size_after = total;
  ++reorder_count_;
  reordering_ = false;
  return stats;
}

ReorderStats BddManager::reorder_to(const std::vector<std::uint32_t>& order) {
  XATPG_CHECK_MSG(order.size() == num_vars_,
                  "reorder_to: order must list every variable");
  std::vector<bool> seen(num_vars_, false);
  for (const std::uint32_t v : order) {
    XATPG_CHECK_MSG(v < num_vars_ && !seen[v],
                    "reorder_to: order must be a permutation");
    seen[v] = true;
  }
  ReorderStats stats;
  reordering_ = true;
  sweep_dead();
  stats.size_before = allocated_nodes();
  // Selection by bubbling: fix each level top-down, lifting the wanted
  // variable into place with adjacent swaps.  O(n^2) swaps worst case —
  // this entry point trades speed for the handle-preserving in-place
  // machinery; it exists for tests and ordering experiments.
  for (std::uint32_t l = 0; l < num_vars_; ++l) {
    const std::uint32_t v = order[l];
    for (std::uint32_t at = var_to_level_[v]; at > l; --at) {
      swap_adjacent_levels(at - 1);
      ++stats.swaps;
    }
  }
  stats.size_after = live_size();
  reordering_ = false;
  return stats;
}

void BddManager::set_reorder_policy(const ReorderPolicy& policy) {
  reorder_policy_ = policy;
  next_reorder_at_ = policy.trigger_nodes;
}

}  // namespace xatpg
