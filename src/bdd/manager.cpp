// BddManager core: node arena, per-variable unique subtables, handle
// registry, garbage collection, the computed cache, and the level<->variable
// indirection the dynamic-reordering machinery (reorder.cpp) permutes.  The
// recursive operation cores live in ops.cpp.
//
// Complement-edge invariants maintained here (see bdd.hpp for the design):
//  * node index 0 is the single terminal; edges 0/1 are TRUE/FALSE;
//  * make_node() never stores a complemented THEN edge — it pushes the
//    complement onto the returned edge instead;
//  * the unique subtables key on the (lo, hi) EDGE pair, so hash-consing
//    identifies functions, not just node shapes.
#include "bdd/bdd.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace xatpg {

namespace {
inline std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

inline std::uint64_t hash3(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  return mix(a * 0x9e3779b97f4a7c15ULL + b * 0xbf58476d1ce4e5b9ULL +
             c * 0x94d049bb133111ebULL);
}

inline std::uint64_t hash_children(std::uint32_t lo, std::uint32_t hi) {
  return mix(lo * 0x9e3779b97f4a7c15ULL + hi * 0xbf58476d1ce4e5b9ULL);
}
}  // namespace

// ---------------------------------------------------------------------------
// Bdd handle
// ---------------------------------------------------------------------------

Bdd::Bdd(BddManager* mgr, std::uint32_t idx) : mgr_(mgr), idx_(idx) {
  attach();
}

Bdd::Bdd(const Bdd& other) : mgr_(other.mgr_), idx_(other.idx_) { attach(); }

Bdd::Bdd(Bdd&& other) noexcept : mgr_(other.mgr_), idx_(other.idx_) {
  attach();
  other.detach();
  other.mgr_ = nullptr;
  other.idx_ = 0;
}

Bdd& Bdd::operator=(const Bdd& other) {
  if (this == &other) return *this;
  detach();
  mgr_ = other.mgr_;
  idx_ = other.idx_;
  attach();
  return *this;
}

Bdd& Bdd::operator=(Bdd&& other) noexcept {
  if (this == &other) return *this;
  detach();
  mgr_ = other.mgr_;
  idx_ = other.idx_;
  attach();
  other.detach();
  other.mgr_ = nullptr;
  other.idx_ = 0;
  return *this;
}

Bdd::~Bdd() { detach(); }

void Bdd::attach() {
  if (!mgr_) return;
  reg_prev_ = nullptr;
  reg_next_ = mgr_->registry_head_;
  if (reg_next_) reg_next_->reg_prev_ = this;
  mgr_->registry_head_ = this;
}

void Bdd::detach() {
  if (!mgr_) return;
  if (reg_prev_) {
    reg_prev_->reg_next_ = reg_next_;
  } else {
    mgr_->registry_head_ = reg_next_;
  }
  if (reg_next_) reg_next_->reg_prev_ = reg_prev_;
  reg_prev_ = reg_next_ = nullptr;
}

bool Bdd::is_false() const {
  return mgr_ != nullptr && idx_ == BddManager::kFalseEdge;
}
bool Bdd::is_true() const {
  return mgr_ != nullptr && idx_ == BddManager::kTrueEdge;
}

std::uint32_t Bdd::top_var() const {
  XATPG_CHECK(valid() && !is_const());
  return mgr_->nodes_[BddManager::edge_node(idx_)].var;
}

Bdd Bdd::low() const {
  XATPG_CHECK(valid() && !is_const());
  const BddManager::Node& n = mgr_->nodes_[BddManager::edge_node(idx_)];
  return Bdd(mgr_, n.lo ^ (idx_ & 1u));
}

Bdd Bdd::high() const {
  XATPG_CHECK(valid() && !is_const());
  const BddManager::Node& n = mgr_->nodes_[BddManager::edge_node(idx_)];
  return Bdd(mgr_, n.hi ^ (idx_ & 1u));
}

// A default-constructed handle has mgr_ == nullptr; combinators used to
// dereference it straight away.  Check here so the failure names the handle
// instead of segfaulting, then let the manager entry points enforce that
// both operands belong to the same manager.
Bdd Bdd::operator&(const Bdd& rhs) const {
  XATPG_CHECK_MSG(valid(), "operator& on an invalid (default-constructed) Bdd");
  return mgr_->apply_and(*this, rhs);
}
Bdd Bdd::operator|(const Bdd& rhs) const {
  XATPG_CHECK_MSG(valid(), "operator| on an invalid (default-constructed) Bdd");
  return mgr_->apply_or(*this, rhs);
}
Bdd Bdd::operator^(const Bdd& rhs) const {
  XATPG_CHECK_MSG(valid(), "operator^ on an invalid (default-constructed) Bdd");
  return mgr_->apply_xor(*this, rhs);
}
Bdd Bdd::operator!() const {
  XATPG_CHECK_MSG(valid(), "operator! on an invalid (default-constructed) Bdd");
  // The whole point of complement edges: negation is a bit flip on the edge
  // — no manager entry, no GC point, no allocation.
  return Bdd(mgr_, idx_ ^ 1u);
}
Bdd& Bdd::operator&=(const Bdd& rhs) { return *this = *this & rhs; }
Bdd& Bdd::operator|=(const Bdd& rhs) { return *this = *this | rhs; }
Bdd& Bdd::operator^=(const Bdd& rhs) { return *this = *this ^ rhs; }

bool Bdd::implies(const Bdd& rhs) const {
  XATPG_CHECK_MSG(valid() && rhs.valid(),
                  "implies() on an invalid (default-constructed) Bdd");
  // f -> g  ===  f & !g == false
  return (*this & !rhs).is_false();
}

std::size_t Bdd::node_count() const {
  if (!valid()) return 0;
  std::vector<std::uint32_t> stack{BddManager::edge_node(idx_)};
  std::vector<bool> seen(mgr_->nodes_.size(), false);
  std::size_t count = 0;
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    stack.pop_back();
    if (seen[n]) continue;
    seen[n] = true;
    ++count;
    const BddManager::Node& node = mgr_->nodes_[n];
    if (node.var != BddManager::kVarTerminal) {
      stack.push_back(BddManager::edge_node(node.lo));
      stack.push_back(BddManager::edge_node(node.hi));
    }
  }
  return count;
}

// ---------------------------------------------------------------------------
// BddManager
// ---------------------------------------------------------------------------

BddManager::BddManager(std::uint32_t num_vars) {
  nodes_.reserve(1u << 12);
  freed_at_.reserve(1u << 12);
  // The single terminal node (TRUE); FALSE is its complemented edge.
  nodes_.push_back({kVarTerminal, 0, 0, kNil});
  freed_at_.push_back(0);
  cache_.assign(kCacheFloor, CacheEntry{});
  cache_mask_ = cache_.size() - 1;
  for (std::uint32_t i = 0; i < num_vars; ++i) new_var();
}

BddManager::~BddManager() {
  // Orphan any handles that outlive the manager (programming error, but do
  // not crash in their destructors).
  for (Bdd* h = registry_head_; h != nullptr;) {
    Bdd* next = h->reg_next_;
    h->mgr_ = nullptr;
    h->reg_prev_ = h->reg_next_ = nullptr;
    h = next;
  }
}

std::uint32_t BddManager::new_var() {
  const std::uint32_t v = num_vars_++;
  var_nodes_.push_back(kNil);  // created lazily in var()
  var_to_level_.push_back(v);  // fresh variables join at the bottom
  level_to_var_.push_back(v);
  group_of_var_.push_back(kNoGroup);
  subtables_.emplace_back();
  subtables_.back().buckets.assign(4, kNil);
  ++memo_epoch_;  // the terminal's level moved down
  return v;
}

void BddManager::check_var(std::uint32_t v) const {
  XATPG_CHECK_MSG(v < num_vars_, "variable " << v << " not allocated");
}

std::uint32_t BddManager::level_of(std::uint32_t v) const {
  check_var(v);
  return var_to_level_[v];
}

std::uint32_t BddManager::var_at_level(std::uint32_t level) const {
  XATPG_CHECK_MSG(level < num_vars_, "level " << level << " not allocated");
  return level_to_var_[level];
}

Bdd BddManager::var(std::uint32_t v) {
  check_var(v);
  if (var_nodes_[v] == kNil)
    var_nodes_[v] = make_node(v, kFalseEdge, kTrueEdge);
  return Bdd(this, var_nodes_[v]);
}

Bdd BddManager::nvar(std::uint32_t v) {
  // !x_v shares x_v's node through a complemented edge.
  return Bdd(this, edge_not(var(v).index()));
}

std::uint32_t BddManager::make_node(std::uint32_t var, std::uint32_t lo,
                                    std::uint32_t hi) {
  if (lo == hi) return lo;  // reduction rule
  // Canonical form: the THEN edge is never complemented.  !(v ? h : l) ==
  // v ? !h : !l, so push the complement through the node onto the result.
  if (edge_comp(hi))
    return edge_not(unique_lookup(var, edge_not(lo), edge_not(hi)));
  return unique_lookup(var, lo, hi);
}

std::uint32_t BddManager::unique_lookup(std::uint32_t var, std::uint32_t lo,
                                        std::uint32_t hi) {
  const std::uint64_t h = hash_children(lo, hi);
  SubTable& table = subtables_[var];
  const auto bucket =
      static_cast<std::uint32_t>(h & (table.buckets.size() - 1));
  for (std::uint32_t n = table.buckets[bucket]; n != kNil; n = nodes_[n].next) {
    const Node& node = nodes_[n];
    if (node.lo == lo && node.hi == hi) return make_edge(n, false);
  }
  std::uint32_t idx;
  if (free_head_ != kNil) {
    idx = free_head_;
    free_head_ = nodes_[idx].next;
    --free_count_;
  } else {
    // Edges pack a node index plus the complement bit into 32 bits, and the
    // all-ones edge is reserved as kNil (the cache sentinel); past 2^31-1
    // nodes the packing would silently alias, so refuse loudly instead.
    XATPG_CHECK_MSG(nodes_.size() < static_cast<std::size_t>((1u << 31) - 1),
                    "BDD node arena exhausted (2^31-1 nodes)");
    idx = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back({});
    freed_at_.push_back(0);
  }
  nodes_[idx] = {var, lo, hi, table.buckets[bucket]};
  table.buckets[bucket] = idx;
  ++table.count;
  peak_nodes_ = std::max(peak_nodes_, allocated_nodes());
  if (table.count > 2 * table.buckets.size()) grow_subtable(var);
  return make_edge(idx, false);
}

void BddManager::subtable_insert(std::uint32_t var, std::uint32_t n) {
  SubTable& table = subtables_[var];
  const std::uint64_t h = hash_children(nodes_[n].lo, nodes_[n].hi);
  const auto bucket =
      static_cast<std::uint32_t>(h & (table.buckets.size() - 1));
  nodes_[n].next = table.buckets[bucket];
  table.buckets[bucket] = n;
  ++table.count;
  if (table.count > 2 * table.buckets.size()) grow_subtable(var);
}

void BddManager::subtable_remove(std::uint32_t var, std::uint32_t n) {
  SubTable& table = subtables_[var];
  const std::uint64_t h = hash_children(nodes_[n].lo, nodes_[n].hi);
  const auto bucket =
      static_cast<std::uint32_t>(h & (table.buckets.size() - 1));
  std::uint32_t cur = table.buckets[bucket];
  if (cur == n) {
    table.buckets[bucket] = nodes_[n].next;
  } else {
    while (cur != kNil && nodes_[cur].next != n) cur = nodes_[cur].next;
    XATPG_CHECK_MSG(cur != kNil, "node missing from its unique subtable");
    nodes_[cur].next = nodes_[n].next;
  }
  nodes_[n].next = kNil;
  --table.count;
}

void BddManager::grow_subtable(std::uint32_t var) {
  SubTable& table = subtables_[var];
  // Collect the chained nodes, then re-chain into the doubled bucket array.
  std::vector<std::uint32_t> chained;
  chained.reserve(table.count);
  for (const std::uint32_t head : table.buckets)
    for (std::uint32_t n = head; n != kNil; n = nodes_[n].next)
      chained.push_back(n);
  table.buckets.assign(table.buckets.size() * 2, kNil);
  for (const std::uint32_t n : chained) {
    const std::uint64_t h = hash_children(nodes_[n].lo, nodes_[n].hi);
    const auto bucket =
        static_cast<std::uint32_t>(h & (table.buckets.size() - 1));
    nodes_[n].next = table.buckets[bucket];
    table.buckets[bucket] = n;
  }
}

void BddManager::maybe_gc() {
  if (allocated_nodes() > gc_threshold_) {
    collect_garbage();
    if (gc_adaptive_) {
      // Re-arm at twice the surviving size: garbage never exceeds live, so
      // the peak-allocated watermark tracks the real peak live size within
      // a factor of two (plus whatever one operation allocates).
      gc_threshold_ = std::max(kGcFloor, 2 * allocated_nodes());
    } else if (allocated_nodes() > gc_threshold_ / 2) {
      // Pinned mode keeps the legacy doubling so a stressed threshold of 0
      // stays 0 and a test-chosen watermark scales predictably.
      gc_threshold_ *= 2;
    }
  }
  maybe_grow_cache();
  maybe_reorder();
}

void BddManager::maybe_reorder() {
  // next_reorder_at_ is primed by set_reorder_policy (the only way to set
  // enabled) and re-armed after every auto-sift below.
  if (!reorder_policy_.enabled || reordering_) return;
  if (allocated_nodes() <= next_reorder_at_) return;
  // The trigger fires on allocated (live + garbage) nodes; sweep first and
  // skip the sift when the growth was mostly garbage — sifting cost scales
  // with blocks x positions and is only worth paying for live growth.
  sweep_dead();
  if (allocated_nodes() <= next_reorder_at_) return;
  // Re-arm at twice the sifted size, as the GC watermark re-arms.
  const ReorderStats stats = sift();
  next_reorder_at_ =
      std::max(reorder_policy_.trigger_nodes, 2 * stats.size_after);
}

void BddManager::mark(std::uint32_t edge, std::vector<bool>& marked) const {
  std::vector<std::uint32_t> stack{edge_node(edge)};
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    stack.pop_back();
    if (marked[n]) continue;
    marked[n] = true;
    if (nodes_[n].var != kVarTerminal) {
      stack.push_back(edge_node(nodes_[n].lo));
      stack.push_back(edge_node(nodes_[n].hi));
    }
  }
}

std::size_t BddManager::sweep_dead() {
  std::vector<bool> marked(nodes_.size(), false);
  marked[0] = true;  // the terminal
  for (const Bdd* h = registry_head_; h != nullptr; h = h->reg_next_)
    mark(h->idx_, marked);
  for (const std::uint32_t vn : var_nodes_)
    if (vn != kNil) mark(vn, marked);

  // A new epoch for the nodes this sweep frees.  Were it to wrap, a stamp
  // from the previous cycle could look older than an entry it must reject,
  // so forget every entry and stamp first.
  if (sweep_epoch_ == std::numeric_limits<std::uint32_t>::max()) {
    std::fill(cache_.begin(), cache_.end(), CacheEntry{});
    std::fill(freed_at_.begin(), freed_at_.end(), 0u);
    sweep_epoch_ = 0;
  }
  ++sweep_epoch_;

  // Sweep: rebuild the free list and every unique subtable from scratch.
  for (SubTable& table : subtables_) {
    std::fill(table.buckets.begin(), table.buckets.end(), kNil);
    table.count = 0;
  }
  free_head_ = kNil;
  free_count_ = 0;
  std::size_t freed = 0;
  for (std::uint32_t n = 1; n < nodes_.size(); ++n) {
    if (!marked[n]) {
      nodes_[n].var = kVarTerminal;
      freed_at_[n] = sweep_epoch_;
      nodes_[n].next = free_head_;
      free_head_ = n;
      ++free_count_;
      ++freed;
    } else {
      SubTable& table = subtables_[nodes_[n].var];
      const std::uint64_t h = hash_children(nodes_[n].lo, nodes_[n].hi);
      const auto bucket =
          static_cast<std::uint32_t>(h & (table.buckets.size() - 1));
      nodes_[n].next = table.buckets[bucket];
      table.buckets[bucket] = n;
      ++table.count;
    }
  }
  ++memo_epoch_;
  return freed;
}

std::size_t BddManager::collect_garbage() {
  const std::size_t freed = sweep_dead();
  ++gc_count_;
  return freed;
}

// ---------------------------------------------------------------------------
// Statistics & invariant checking
// ---------------------------------------------------------------------------

double BddManager::unique_load() const {
  std::size_t entries = 0, buckets = 0;
  for (const SubTable& table : subtables_) {
    entries += table.count;
    buckets += table.buckets.size();
  }
  return buckets == 0 ? 0.0
                      : static_cast<double>(entries) /
                            static_cast<double>(buckets);
}

std::size_t BddManager::validate_canonical() const {
  std::size_t checked = 0;
  for (std::uint32_t v = 0; v < num_vars_; ++v) {
    for (const std::uint32_t head : subtables_[v].buckets) {
      for (std::uint32_t n = head; n != kNil; n = nodes_[n].next) {
        const Node& node = nodes_[n];
        XATPG_CHECK_MSG(node.var == v,
                        "node " << n << " chained in subtable " << v
                                << " but labelled " << node.var);
        XATPG_CHECK_MSG(!edge_comp(node.hi),
                        "complemented THEN edge in the unique table (node "
                            << n << ")");
        XATPG_CHECK_MSG(node.lo != node.hi,
                        "redundant node " << n << " in the unique table");
        XATPG_CHECK_MSG(level_of_edge(node.lo) > var_to_level_[v] &&
                            level_of_edge(node.hi) > var_to_level_[v],
                        "node " << n << " has a child at or above its level");
        ++checked;
      }
    }
  }
  return checked;
}

// ---------------------------------------------------------------------------
// Computed cache
// ---------------------------------------------------------------------------

std::uint32_t BddManager::cache_lookup(Op op, std::uint32_t a, std::uint32_t b,
                                       std::uint32_t c, std::size_t& slot) {
  static_assert(static_cast<std::uint64_t>(Op::Cofactor) < (1ull << 24),
                "op tag must survive the 40-bit shift in key_hi");
  ++cache_lookups_;
  const std::uint64_t key_lo = a | (std::uint64_t{b} << 32);
  const std::uint64_t key_hi = (static_cast<std::uint64_t>(op) << 40) | c;
  slot = hash3(key_lo, key_hi, 0) & cache_mask_;
  const CacheEntry& e = cache_[slot];
  if (e.key_lo != key_lo || e.key_hi != key_hi || !cache_entry_live(e))
    return kNil;
  ++cache_hits_;
  return e.result;
}

void BddManager::cache_insert(std::size_t slot, Op op, std::uint32_t a,
                              std::uint32_t b, std::uint32_t c,
                              std::uint32_t result) {
  const std::uint64_t key_lo = a | (std::uint64_t{b} << 32);
  const std::uint64_t key_hi = (static_cast<std::uint64_t>(op) << 40) | c;
  cache_[slot] = CacheEntry{key_hi, key_lo, result, sweep_epoch_};
}

bool BddManager::cache_entry_live(const CacheEntry& entry) const {
  if (entry.epoch == sweep_epoch_) return true;  // no sweep since it was made
  const auto kept = [&](std::uint64_t lane) {
    return freed_at_[edge_node(static_cast<std::uint32_t>(lane))] <=
           entry.epoch;
  };
  // Per-op key layouts (see the call sites in ops.cpp): operand `a` (the
  // low lane of key_lo) and the result are always edges; `b` (key_lo's
  // high lane) and `c` (key_hi's low lane) are edges or small scalars
  // depending on the operation, and scalar lanes must NOT be read as node
  // references.
  if (!kept(entry.result) || !kept(entry.key_lo)) return false;
  switch (static_cast<Op>(entry.key_hi >> 40)) {
    case Op::Ite:        // b = g edge, c = h edge
    case Op::AndExists:  // b = g edge, c = cube edge
      return kept(entry.key_lo >> 32) && kept(entry.key_hi);
    case Op::Exists:    // b = cube edge, c unused
    case Op::Compose0:  // b = g edge, c = variable id (scalar)
      return kept(entry.key_lo >> 32);
    case Op::Permute:   // b = permutation id (scalar)
    case Op::Cofactor:  // b = packed (variable, phase) scalar
      return true;
  }
  return false;
}

void BddManager::maybe_grow_cache() {
  // One slot per allocated node keeps the collision rate roughly constant
  // as structures grow; the cap bounds the cache at 2^22 entries (96 MiB).
  constexpr std::size_t kMaxCacheEntries = 1u << 22;
  if (allocated_nodes() <= cache_.size() || cache_.size() >= kMaxCacheEntries)
    return;
  std::size_t target = cache_.size();
  while (target < allocated_nodes() && target < kMaxCacheEntries) target *= 2;
  std::vector<CacheEntry> grown(target);
  const std::size_t mask = target - 1;
  for (const CacheEntry& e : cache_) {
    if (e.epoch == 0 || !cache_entry_live(e)) continue;
    grown[hash3(e.key_lo, e.key_hi, 0) & mask] = e;
  }
  cache_ = std::move(grown);
  cache_mask_ = mask;
}

std::uint32_t BddManager::register_perm(
    const std::vector<std::uint32_t>& var_map) {
  for (std::uint32_t i = 0; i < registered_perms_.size(); ++i)
    if (registered_perms_[i] == var_map) return i;
  std::vector<bool> seen(num_vars_, false);
  for (const std::uint32_t v : var_map) {
    check_var(v);
    XATPG_CHECK_MSG(!seen[v], "variable " << v << " mapped to twice");
    seen[v] = true;
  }
  registered_perms_.push_back(var_map);
  return next_perm_id_++;
}

}  // namespace xatpg
