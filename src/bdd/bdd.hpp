// From-scratch ROBDD package used by all symbolic machinery in xatpg
// (reachability, TCR_k composition, CSSG pruning, 3-phase ATPG).
//
// Design notes:
//  * Reduced, ordered BDDs WITH complemented (attributed) edges: an edge is
//    a 32-bit word `(node_index << 1) | complement_bit`, there is a single
//    terminal node (index 0, the constant TRUE), and the constant FALSE is
//    the complemented edge to it.  Canonical form: a node's THEN (high)
//    edge is never complemented — make_node() restores this by pushing the
//    complement onto the incoming edge, so equal functions always share one
//    node and `f == g` stays a single word compare.  Negation is a bit flip
//    (`operator!` allocates no nodes and never recurses), self-dual-heavy
//    functions share the nodes of their complements, and the computed cache
//    serves f and !f from one entry (the ITE core normalizes the complement
//    onto the result).
//  * Nodes live in a grow-only arena with a free list; external references
//    are RAII `Bdd` handles registered in an intrusive list, enabling
//    mark-and-sweep garbage collection between top-level operations.
//  * The computed cache is a direct-mapped hash cache keyed by
//    (operation, operands); permutations get a per-permutation id so
//    distinct variable maps never alias cache entries.  Hit/lookup counters
//    feed the perf harness (src/perf) and the engine's progress stats.
//    A collection does not touch the cache: each entry carries the sweep
//    epoch it was made in, each sweep stamps the nodes it frees with the
//    new epoch, and a probe hits only if no node the entry names was freed
//    after the entry was made.  A recycled index therefore never answers
//    for the function it used to hold, and a collection changes no hit.
//  * Variable order is DYNAMIC: a level<->variable indirection separates a
//    variable's identity (the `var` stored in nodes, stable for the life of
//    the manager) from its position in the order (its level).  A fresh
//    manager assigns level == creation order; `sift()` and `reorder_to()`
//    permute levels afterwards via in-place adjacent-level swaps that
//    preserve every node index's function — external handles, cached
//    literal nodes and registered permutations all survive a reorder
//    untouched.  The unique table is split into per-variable subtables
//    (equivalently per-level, through the indirection), so an adjacent-level
//    swap only touches the two affected subtables.  Auto-reordering is
//    governed by a ReorderPolicy (node-count trigger, growth bound) and runs
//    only at public operation entry — the same invariant GC relies on.
//    The symbolic encoding layer (src/sgraph) chooses the initial
//    interleaving and declares per-signal variable groups that sifting
//    moves as blocks; the ordering ablation bench measures both the static
//    assignments and dynamic sifting.
//
// Thread-safety contract:
//  * A BddManager and every Bdd handle attached to it are confined to ONE
//    thread at a time.  There is no internal synchronization: every
//    operation — including logically read-only queries like sat_count or
//    eval — mutates shared manager state (the handle registry, the unique
//    table, the computed cache, and GC bookkeeping).  Copying a Bdd handle
//    alone writes the manager's registry list.  Dynamic reordering mutates
//    node labels in place and is likewise confined to the owning thread.
//  * Concurrent use of DIFFERENT managers from different threads is safe;
//    managers share no global state.  The fault-parallel ATPG engine uses
//    one manager, only on the thread that calls run(); its worker threads
//    hold no BDD state at all (see src/atpg/engine.hpp).
//  * Handles must never outlive their manager, and a Bdd from one manager
//    must never be passed to another manager's operations (enforced by
//    XATPG_CHECK at every public entry point).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/packed.hpp"
#include "xatpg/options.hpp"  // ReorderPolicy (public API type)

namespace xatpg {

class BddManager;

/// RAII reference to a BDD node.  Copyable and movable; the referenced node
/// is protected from garbage collection for the lifetime of the handle.
class Bdd {
 public:
  Bdd() = default;
  Bdd(const Bdd& other);
  Bdd(Bdd&& other) noexcept;
  Bdd& operator=(const Bdd& other);
  Bdd& operator=(Bdd&& other) noexcept;
  ~Bdd();

  /// True if this handle refers to a node (even the constant nodes).
  [[nodiscard]] bool valid() const { return mgr_ != nullptr; }
  [[nodiscard]] BddManager* manager() const { return mgr_; }
  /// The raw edge value: (node index << 1) | complement bit.  Stable across
  /// garbage collection and dynamic reordering; meaningful only to the
  /// owning manager.
  [[nodiscard]] std::uint32_t index() const { return idx_; }
  /// True if this handle travels through a complemented edge (the node it
  /// references stores !f).  Purely representational — two handles are equal
  /// iff edge AND complement agree, which is exactly function equality.
  [[nodiscard]] bool complemented() const { return (idx_ & 1u) != 0; }

  [[nodiscard]] bool is_false() const;
  [[nodiscard]] bool is_true() const;
  [[nodiscard]] bool is_const() const { return is_false() || is_true(); }

  /// Top variable; precondition: !is_const().  NOTE: under dynamic
  /// reordering "top" means highest level (closest to the root), which is
  /// not necessarily the smallest variable index.
  [[nodiscard]] std::uint32_t top_var() const;
  /// Low (var=0) cofactor; precondition: !is_const().  The handle's
  /// complement bit is folded in, so f == ite(top_var, high, low) always.
  [[nodiscard]] Bdd low() const;
  /// High (var=1) cofactor; precondition: !is_const().
  [[nodiscard]] Bdd high() const;

  // Boolean combinators (delegate to the manager; operator! is a local bit
  // flip and allocates nothing).
  [[nodiscard]] Bdd operator&(const Bdd& rhs) const;
  [[nodiscard]] Bdd operator|(const Bdd& rhs) const;
  [[nodiscard]] Bdd operator^(const Bdd& rhs) const;
  [[nodiscard]] Bdd operator!() const;
  Bdd& operator&=(const Bdd& rhs);
  Bdd& operator|=(const Bdd& rhs);
  Bdd& operator^=(const Bdd& rhs);

  /// Structural equality (canonical: equal iff same function).
  [[nodiscard]] bool operator==(const Bdd& rhs) const {
    return mgr_ == rhs.mgr_ && idx_ == rhs.idx_;
  }
  [[nodiscard]] bool operator!=(const Bdd& rhs) const { return !(*this == rhs); }

  /// f <= g in the implication order (f -> g is a tautology).
  [[nodiscard]] bool implies(const Bdd& rhs) const;

  /// Number of distinct nodes in this BDD (including the terminal; a node
  /// shared between f and parts of !f counts once — complement edges are
  /// exactly this sharing).
  [[nodiscard]] std::size_t node_count() const;

 private:
  friend class BddManager;
  Bdd(BddManager* mgr, std::uint32_t idx);
  void attach();
  void detach();

  BddManager* mgr_ = nullptr;
  std::uint32_t idx_ = 0;
  // Intrusive registry linkage for GC root enumeration.
  Bdd* reg_prev_ = nullptr;
  Bdd* reg_next_ = nullptr;
};

/// Assignment value used by minterm extraction: 0, 1, or DontCare.
enum class Tri : signed char { Zero = 0, One = 1, DontCare = -1 };

// ReorderPolicy (the sifting knobs) is a public API type — see
// xatpg/options.hpp.

/// Outcome of one sifting pass (also accumulated into manager statistics).
struct ReorderStats {
  std::size_t size_before = 0;  ///< live nodes entering the pass (post-GC)
  std::size_t size_after = 0;   ///< live nodes after the pass (<= size_before)
  std::size_t swaps = 0;        ///< adjacent-level swaps performed
  std::size_t blocks_sifted = 0;
};

/// Owner of the node arena, per-variable unique subtables, computed cache,
/// and the dynamic variable order.
class BddManager {
 public:
  /// Create a manager with `num_vars` pre-allocated variables.
  explicit BddManager(std::uint32_t num_vars = 0);
  ~BddManager();

  BddManager(const BddManager&) = delete;
  BddManager& operator=(const BddManager&) = delete;

  /// Append a fresh variable at the bottom of the order; returns its index.
  std::uint32_t new_var();
  [[nodiscard]] std::uint32_t num_vars() const { return num_vars_; }

  [[nodiscard]] Bdd bdd_false() { return Bdd(this, kFalseEdge); }
  [[nodiscard]] Bdd bdd_true() { return Bdd(this, kTrueEdge); }
  /// Literal x_v (positive) — precondition: v < num_vars().
  [[nodiscard]] Bdd var(std::uint32_t v);
  /// Literal !x_v (negative) — the complemented edge to the same node; never
  /// allocates.
  [[nodiscard]] Bdd nvar(std::uint32_t v);

  // --- dynamic variable order ----------------------------------------------
  /// Position of variable v in the order (0 = root-most).
  [[nodiscard]] std::uint32_t level_of(std::uint32_t v) const;
  /// Variable occupying position `level`.
  [[nodiscard]] std::uint32_t var_at_level(std::uint32_t level) const;
  /// Variables in level order (a permutation of 0..num_vars-1).
  [[nodiscard]] const std::vector<std::uint32_t>& current_order() const {
    return level_to_var_;
  }

  /// Declare variable groups that sifting moves as indivisible blocks (and
  /// never reorders internally).  Each group must occupy adjacent levels at
  /// declaration time; sifting preserves the adjacency.  Replaces any
  /// previous grouping; ungrouped variables sift as singletons.
  void set_var_groups(const std::vector<std::vector<std::uint32_t>>& groups);
  void clear_var_groups();

  /// One Rudell sifting pass: every block (group or singleton), in
  /// decreasing-size order, is walked to every position in the order and
  /// parked at its minimum-size position.  The final table is never larger
  /// than the starting one; transient growth during a walk is bounded by
  /// the reorder policy's max_growth.  Runs a garbage collection first;
  /// computed-cache entries over the surviving nodes stay usable, since a
  /// swap keeps every node index's function.  Must only be called between
  /// operations (like GC, never from inside a recursion).
  ReorderStats sift();

  /// Rearrange to an explicit order: `order[l]` is the variable for level l
  /// (a permutation of 0..num_vars-1).  Implemented with the same in-place
  /// adjacent swaps as sifting, so handles survive.  Intended for tests and
  /// experiments.
  ReorderStats reorder_to(const std::vector<std::uint32_t>& order);

  void set_reorder_policy(const ReorderPolicy& policy);
  /// Sifting passes performed (explicit + auto-triggered).
  [[nodiscard]] std::size_t reorder_count() const { return reorder_count_; }
  /// Adjacent-level swaps performed over the manager's lifetime.
  [[nodiscard]] std::size_t swap_count() const { return swap_count_; }

  /// if-then-else: f ? g : h.  The workhorse all binary ops reduce to.
  [[nodiscard]] Bdd ite(const Bdd& f, const Bdd& g, const Bdd& h);

  [[nodiscard]] Bdd apply_and(const Bdd& f, const Bdd& g);
  [[nodiscard]] Bdd apply_or(const Bdd& f, const Bdd& g);
  [[nodiscard]] Bdd apply_xor(const Bdd& f, const Bdd& g);
  [[nodiscard]] Bdd apply_not(const Bdd& f);

  /// Existential quantification of all variables in `cube` (a positive
  /// product of literals).
  [[nodiscard]] Bdd exists(const Bdd& f, const Bdd& cube);
  /// Universal quantification.  With complement edges this is literally
  /// !exists(!f, cube) — one quantifier core serves both, and forall shares
  /// the exists cache through the complement.
  [[nodiscard]] Bdd forall(const Bdd& f, const Bdd& cube);
  /// Fused relational product:  ∃ cube . f ∧ g  — the inner loop of every
  /// image computation in src/sgraph.
  [[nodiscard]] Bdd and_exists(const Bdd& f, const Bdd& g, const Bdd& cube);

  /// Rename variables: var v in f becomes var_map[v].  var_map must be a
  /// permutation vector of size num_vars(), checked the first time the map
  /// is seen.
  [[nodiscard]] Bdd permute(const Bdd& f, const std::vector<std::uint32_t>& var_map);

  /// Substitute g for variable v in f (Shannon composition).
  [[nodiscard]] Bdd compose(const Bdd& f, std::uint32_t v, const Bdd& g);

  /// Cofactor of f with respect to literal (v = phase).
  [[nodiscard]] Bdd cofactor(const Bdd& f, std::uint32_t v, bool phase);

  /// Positive cube of all variables occurring in f.
  [[nodiscard]] Bdd support_cube(const Bdd& f);
  /// Sorted list of variables occurring in f (sorted by variable index,
  /// independent of the current order).
  [[nodiscard]] std::vector<std::uint32_t> support_vars(const Bdd& f);

  /// Number of satisfying assignments of f over `nvars` variables, divided
  /// by 2^divide_exp.  The division happens on the internal
  /// mantissa/exponent representation, so ratios like "states over a
  /// sub-universe" stay representable even when the raw count would
  /// overflow double (which throws CheckError).  The result depends only on
  /// the function, never on the current variable order.
  [[nodiscard]] double sat_count(const Bdd& f, std::uint32_t nvars,
                   std::int64_t divide_exp = 0);

  /// Extract one satisfying assignment over the given variables; entries for
  /// variables f does not constrain are DontCare.  Precondition: !f.is_false().
  /// NOTE: which minterm is picked depends on the current variable order;
  /// order-independent callers (src/sgraph) canonicalize on top of cofactor.
  [[nodiscard]] std::vector<Tri> pick_minterm(const Bdd& f,
                                const std::vector<std::uint32_t>& vars);

  /// Evaluate f under a complete assignment (indexed by variable).
  [[nodiscard]] bool eval(const Bdd& f, const std::vector<bool>& assignment);

  /// Enumerate every complete assignment over `vars` (which must be sorted
  /// by strictly ascending LEVEL — for a never-reordered manager that is
  /// ascending variable index — and cover f's support), expanding
  /// don't-cares, straight into packed rows of `width` words appended to
  /// `rows`: the value of vars[i] is bit bits[i] of its row (bit b is bit
  /// b % 64 of word b / 64, the util/packed.hpp layout) and every other bit
  /// is zero.  Rows come out in lexicographic order of the values along
  /// `vars`, vars[0] most significant.  Throws CheckError if more than
  /// `limit` assignments exist.
  void append_minterm_rows(const Bdd& f, const std::vector<std::uint32_t>& vars,
                           const std::vector<std::uint32_t>& bits,
                           std::size_t width, std::vector<std::uint64_t>& rows,
                           std::size_t limit = 1u << 20);

  /// append_minterm_rows with vars[i] as bit i, unpacked: one vector per
  /// assignment, indexed like `vars`, in the same order.
  [[nodiscard]] std::vector<std::vector<bool>> all_minterms(
      const Bdd& f, const std::vector<std::uint32_t>& vars,
      std::size_t limit = 1u << 20);

  /// Number of complete assignments over `vars` (in any order, covering
  /// f's support) that satisfy f, exactly: the rows append_minterm_rows
  /// lists.  Throws CheckError past 2^64 - 1.  Each edge's count is
  /// memoized for one variable set at a time, until the next collection,
  /// level swap or new_var(), so BDDs that share nodes are counted once per
  /// node.
  [[nodiscard]] std::uint64_t minterm_count(
      const Bdd& f, const std::vector<std::uint32_t>& vars);
  /// Row `rank` (from 0) of append_minterm_rows(f, vars, bits, width, ...),
  /// written to row[0, width) without listing the rows before it: one
  /// descent that steers by minterm_count's counts (uniform selection on a
  /// BDD, Knuth TAOCP 4A §7.1.4).  Same preconditions as
  /// append_minterm_rows, and rank < minterm_count(f, vars).
  void minterm_row_at(const Bdd& f, const std::vector<std::uint32_t>& vars,
                      const std::vector<std::uint32_t>& bits,
                      std::uint64_t rank, std::uint64_t* row,
                      std::size_t width);

  /// Build the positive cube of the listed variables.
  [[nodiscard]] Bdd make_cube(const std::vector<std::uint32_t>& vars);

  /// Build the minterm ∧ (x_v == value_v) for parallel vectors vars/values.
  [[nodiscard]] Bdd make_minterm(const std::vector<std::uint32_t>& vars,
                   const std::vector<bool>& values);

  /// Nodes currently allocated (live + garbage not yet collected).
  [[nodiscard]] std::size_t allocated_nodes() const { return nodes_.size() - free_count_; }
  /// Force a mark-and-sweep collection now; returns nodes freed.
  std::size_t collect_garbage();
  /// Collections performed so far (statistic for the ordering ablation;
  /// sifting-internal sweeps are not counted).
  [[nodiscard]] std::size_t gc_count() const { return gc_count_; }

  /// Allocated-node watermark that triggers a collection at the next public
  /// operation entry.  By default the watermark is ADAPTIVE: after each
  /// collection it re-arms at max(4096, 2x the surviving nodes), so the
  /// garbage fraction — and with it the peak-allocated watermark — stays
  /// bounded by a constant factor of the live size instead of a fixed
  /// 2^18-node cliff that image fixpoints on large circuits never reach.
  [[nodiscard]] std::size_t gc_threshold() const { return gc_threshold_; }
  /// Pin the watermark and disable the adaptive policy.  Exposed so stress
  /// tests can force a GC at every op entry (threshold 0 stays 0) and
  /// validate the "GC only at op entry" invariant the recursive cores rely
  /// on.
  void set_gc_threshold(std::size_t threshold) {
    gc_threshold_ = threshold;
    gc_adaptive_ = false;
  }

  /// Peak allocated node count over the manager's lifetime (statistic).
  [[nodiscard]] std::size_t peak_nodes() const { return peak_nodes_; }

  // --- cache / table statistics --------------------------------------------
  // Fed to the perf harness (src/perf), the engine's progress snapshots
  // (ShardBddStats) and the CLI JSON records.  Counters are cumulative over
  // the manager's lifetime; rates are computed by the consumer so two
  // snapshots can be diffed.

  /// Computed-cache probes since construction.
  [[nodiscard]] std::size_t cache_lookups() const { return cache_lookups_; }
  /// Probes that returned a cached result.
  [[nodiscard]] std::size_t cache_hits() const { return cache_hits_; }
  /// Chained unique-table entries (live + not-yet-swept garbage) divided by
  /// the total bucket count — the classic load factor.  Subtables double at
  /// load 2, so this stays in [0, 2] and a value near 2 means the table is
  /// about to grow.
  [[nodiscard]] double unique_load() const;

  /// Walk every unique subtable and XATPG_CHECK the canonical-form
  /// invariants the complement-edge kernel maintains for every
  /// table-resident node (live or not-yet-swept): the THEN edge is never
  /// complemented, lo != hi, the node is labelled with its subtable's
  /// variable, and both children live at strictly lower levels.  Returns the
  /// number of nodes checked.  Test/debug hook — O(allocated nodes).
  std::size_t validate_canonical() const;

 private:
  friend class Bdd;

  // --- edges ---------------------------------------------------------------
  // An edge addresses a node and carries the complement attribute in bit 0.
  // The sole terminal node has index 0; TRUE is the plain edge to it, FALSE
  // the complemented one.
  static constexpr std::uint32_t kTrueEdge = 0;
  static constexpr std::uint32_t kFalseEdge = 1;
  static std::uint32_t edge_node(std::uint32_t e) { return e >> 1; }
  static bool edge_comp(std::uint32_t e) { return (e & 1u) != 0; }
  static std::uint32_t edge_not(std::uint32_t e) { return e ^ 1u; }
  static std::uint32_t edge_regular(std::uint32_t e) { return e & ~1u; }
  static std::uint32_t make_edge(std::uint32_t node, bool comp) {
    return (node << 1) | static_cast<std::uint32_t>(comp);
  }

  struct Node {
    std::uint32_t var;   // variable index; kVarTerminal for the terminal
    std::uint32_t lo;    // low-cofactor EDGE (may be complemented)
    std::uint32_t hi;    // high-cofactor EDGE (never complemented)
    std::uint32_t next;  // unique-subtable chain / free-list link (node idx)
  };
  /// Per-variable unique subtable.  Through the level<->var indirection this
  /// doubles as the per-LEVEL subtable, which is what makes an
  /// adjacent-level swap local: all nodes of the upper level live in
  /// exactly one subtable.
  struct SubTable {
    std::vector<std::uint32_t> buckets;
    std::size_t count = 0;  ///< chained nodes (live + not-yet-swept garbage)
  };
  static constexpr std::uint32_t kVarTerminal = 0xffffffffu;
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::uint32_t kNoGroup = 0xffffffffu;
  static constexpr std::uint32_t kLevelTerminal = 0xffffffffu;

  /// Level of the node's top variable; the terminal sorts below everything.
  std::uint32_t level_of_node(std::uint32_t n) const {
    const Node& node = nodes_[n];
    return node.var == kVarTerminal ? kLevelTerminal : var_to_level_[node.var];
  }
  /// Level of the edge's target node.
  std::uint32_t level_of_edge(std::uint32_t e) const {
    return level_of_node(edge_node(e));
  }

  /// Canonicalizing node constructor over EDGES: applies the reduction rule
  /// (lo == hi) and restores the no-complemented-THEN-edge invariant by
  /// complementing both children and the returned edge when hi arrives
  /// complemented.
  std::uint32_t make_node(std::uint32_t var, std::uint32_t lo,
                          std::uint32_t hi);
  /// Hash-consing lookup; `hi` is guaranteed uncomplemented by make_node.
  /// Returns the (uncomplemented) edge to the node.
  std::uint32_t unique_lookup(std::uint32_t var, std::uint32_t lo,
                              std::uint32_t hi);
  void subtable_insert(std::uint32_t var, std::uint32_t n);
  void subtable_remove(std::uint32_t var, std::uint32_t n);
  void grow_subtable(std::uint32_t var);
  void maybe_gc();
  void maybe_reorder();

  // Recursive cores (raw edges; safe because GC/reordering only run at op
  // entry).
  std::uint32_t ite_rec(std::uint32_t f, std::uint32_t g, std::uint32_t h);
  std::uint32_t exists_rec(std::uint32_t f, std::uint32_t cube);
  std::uint32_t and_exists_rec(std::uint32_t f, std::uint32_t g,
                               std::uint32_t cube);
  std::uint32_t permute_rec(std::uint32_t f, std::uint32_t perm_id,
                            const std::vector<std::uint32_t>& var_map);
  std::uint32_t compose_rec(std::uint32_t f, std::uint32_t v, std::uint32_t g);
  std::uint32_t cofactor_rec(std::uint32_t f, std::uint32_t v, bool phase);

  /// minterm_count's memo, for the variable set `vars`: below[l] counts
  /// them at levels >= l (below[num_vars_] = 0, where the terminal sits),
  /// and counts[k] is the number of assignments of the counted variables
  /// at or below edge k's level that satisfy edge k, the edges numbered by
  /// `edges`.  A sweep may recycle a node index, a swap moves levels and a
  /// new variable moves the terminal's level, so each bumps memo_epoch_,
  /// and the next count after any of them starts afresh.
  struct CountMemo {
    std::vector<std::uint32_t> vars, below;
    PackedRowIndex edges;
    std::vector<std::uint64_t> counts;
    std::size_t epoch = 0;
  };
  /// Make count_memo_ serve `vars` in the current epoch.
  void prepare_count_memo(const std::vector<std::uint32_t>& vars);
  /// Level of the edge's node, the terminal at num_vars_.
  std::uint32_t count_level(std::uint32_t e) const;
  /// count_memo_'s count of e scaled to the counted variables below
  /// `level`, which lies above e's level.
  std::uint64_t count_below(std::uint32_t e, std::uint32_t level);
  std::uint64_t count_rec(std::uint32_t e);

  void mark(std::uint32_t edge, std::vector<bool>& marked) const;
  /// Mark-and-sweep without touching gc_count_ (shared by collect_garbage
  /// and the sifting size measurements).  Starts a new sweep epoch and
  /// stamps every node it frees with it.
  std::size_t sweep_dead();

  // --- dynamic reordering ---------------------------------------------------
  /// Swap the variables at `level` and `level + 1`.  In place: every node
  /// index keeps its function; only nodes of the upper level that actually
  /// depend on the lower variable are restructured.  Never collects, never
  /// touches other levels' subtables (beyond child lookups).
  void swap_adjacent_levels(std::uint32_t level);
  /// Exchange the adjacent blocks [first, first+a) and [first+a, first+a+b)
  /// (level ranges), preserving the internal order of each.
  void swap_adjacent_blocks(std::uint32_t first, std::uint32_t a,
                            std::uint32_t b);
  /// Block containing `level`: [first, first + size).
  void block_at(std::uint32_t level, std::uint32_t* first,
                std::uint32_t* size) const;
  /// Sift the block whose top is at `first` to its best position.
  void sift_block(std::uint32_t first, std::uint32_t size,
                  std::size_t* best_size, std::size_t* swaps);
  /// Current live size: sweeps garbage, returns allocated_nodes().
  std::size_t live_size();

  // --- computed cache -----------------------------------------------------
  enum class Op : std::uint64_t {
    Ite = 1, Exists, AndExists, Permute, Compose0, Cofactor,
  };
  /// One cached result: key_lo packs operands a and b, key_hi the op tag
  /// (shifted by 40) and operand c.  `epoch` is the sweep epoch the entry
  /// was made in, 0 for an empty slot.  24 bytes.
  struct CacheEntry {
    std::uint64_t key_hi = 0;
    std::uint64_t key_lo = 0;
    std::uint32_t result = kNil;
    std::uint32_t epoch = 0;
  };
  /// Probe for (op, a, b, c): the cached result, or kNil.  Writes the
  /// probed slot to `slot`, so the caller's cache_insert after a miss does
  /// not hash again.  The slot stays right until the next operation entry,
  /// the only place where the cache grows.
  std::uint32_t cache_lookup(Op op, std::uint32_t a, std::uint32_t b,
                             std::uint32_t c, std::size_t& slot);
  void cache_insert(std::size_t slot, Op op, std::uint32_t a, std::uint32_t b,
                    std::uint32_t c, std::uint32_t result);
  /// True if no node the non-empty entry names was freed after it was
  /// made.  Sound because an entry maps operand FUNCTIONS to a result
  /// function and node indices keep their function across both GC (live
  /// ones) and in-place reordering: only an index recycled from the free
  /// list could alias, and its freed-at stamp is newer than the entry.
  /// The named nodes are the result, operand a, and b and c where the
  /// op's key layout makes them edges rather than scalars.
  bool cache_entry_live(const CacheEntry& entry) const;
  /// Keep the direct-mapped cache sized to the node population (entries >=
  /// allocated nodes, capped): a fixed-size cache thrashes on 1000-variable
  /// circuits and recomputes subproblems into fresh garbage nodes.  Doubles
  /// by rehashing the live entries, so it can run at any operation entry.
  void maybe_grow_cache();

  // --- data ----------------------------------------------------------------
  std::vector<Node> nodes_;             // node arena, indexed by node index
  /// Sweep epoch that last freed each node, 0 if none did; grows with
  /// nodes_.
  std::vector<std::uint32_t> freed_at_;
  std::vector<SubTable> subtables_;     // one unique subtable per variable
  std::uint32_t free_head_ = kNil;      // free list through Node::next
  std::size_t free_count_ = 0;
  std::uint32_t num_vars_ = 0;
  std::vector<std::uint32_t> var_nodes_;  // cached positive-literal EDGES

  std::vector<std::uint32_t> var_to_level_;
  std::vector<std::uint32_t> level_to_var_;
  std::vector<std::uint32_t> group_of_var_;

  /// Entries a new manager's cache starts with (96 KiB); maybe_grow_cache
  /// takes it from there.  Keep it small: every manager allocates and
  /// clears its cache up front, so a larger start makes each small manager
  /// pay for a block it never fills, and a block of megabytes (1.5 MiB at
  /// 2^16 entries) is returned to the kernel by glibc's malloc or kept
  /// depending on the allocations before it: a small circuit's ATPG time
  /// then swings by up to 60% with the order of the circuits run before it
  /// in the same process.
  static constexpr std::size_t kCacheFloor = 1u << 12;
  std::vector<CacheEntry> cache_;
  std::size_t cache_mask_ = 0;
  std::size_t cache_lookups_ = 0;
  std::size_t cache_hits_ = 0;
  /// The epoch new cache entries carry: one more than the sweeps so far,
  /// sifting's included.  Wrapping would make old stamps look new, so the
  /// sweep that would wrap it empties the cache and clears the stamps and
  /// the count instead.
  std::uint32_t sweep_epoch_ = 1;

  Bdd* registry_head_ = nullptr;  // GC roots: live external handles
  static constexpr std::size_t kGcFloor = 1u << 12;
  std::size_t gc_threshold_ = kGcFloor;
  bool gc_adaptive_ = true;  // cleared by set_gc_threshold (pinned mode)
  std::size_t gc_count_ = 0;
  std::size_t peak_nodes_ = 0;
  CountMemo count_memo_;
  std::size_t memo_epoch_ = 1;  // bumped by every sweep, swap and new_var
  std::uint32_t next_perm_id_ = 0;
  std::vector<std::vector<std::uint32_t>> registered_perms_;
  /// Id of var_map, registered (and checked to be a permutation of the
  /// variables) the first time it is seen.
  std::uint32_t register_perm(const std::vector<std::uint32_t>& var_map);
  /// XATPG_CHECK that v names an allocated variable: every public entry
  /// that takes a variable id asks before it indexes by one.
  void check_var(std::uint32_t v) const;

  ReorderPolicy reorder_policy_;
  std::size_t next_reorder_at_ = 0;
  std::size_t reorder_count_ = 0;
  std::size_t swap_count_ = 0;
  bool reordering_ = false;  // re-entrancy guard for auto-triggering
};

}  // namespace xatpg
