// Public option types of the xatpg API: BDD variable ordering and dynamic
// reordering knobs, fault-simulation caps, and the full ATPG option block
// with boundary validation.
//
// Canonical definitions — library internals include this header (see
// xatpg/types.hpp for the policy).  AtpgOptions::validate() is the single
// gate for degenerate values: the Session facade surfaces its result as a
// typed OptionError, and the legacy AtpgEngine constructor rejects invalid
// options loudly (CheckError) instead of silently accepting them.
#pragma once

#include <cstdint>

#include "xatpg/error.hpp"

namespace xatpg {

/// Static BDD variable layout for the symbolic encoding's three variable
/// groups (present / next / auxiliary state).  Dynamic sifting is not a
/// layout: any of them can start it through ReorderPolicy::enabled.
enum class VarOrder {
  Interleaved,         ///< x_i, y_i, w_i adjacent per signal (default)
  Blocked,             ///< all x, then all y, then all w
  ReverseInterleaved,  ///< interleaved, signals in reverse netlist order
};

[[nodiscard]] const char* var_order_name(VarOrder order);

/// Dynamic (Rudell sifting) reordering policy for a BDD manager.
struct ReorderPolicy {
  /// Auto-reorder at public operation entry once the live-node count
  /// crosses the trigger.  Explicit sift() calls work regardless.
  bool enabled = false;
  /// First auto-sift watermark (live nodes after GC).
  std::size_t trigger_nodes = 1024;
  /// A sifted block's walk aborts in a direction once the table grows past
  /// max_growth x the best size seen for that block (transient bound; the
  /// accepted position is never worse than the starting one).
  double max_growth = 1.2;
};

/// Caps for the exact consistent-set fault simulator.
struct FaultSimOptions {
  std::size_t k = 24;            ///< settle bound per test cycle
  std::size_t candidate_cap = 256;
};

struct AtpgOptions {
  std::size_t k = 24;                    ///< settle bound (TCR_k)
  VarOrder order = VarOrder::Interleaved;
  /// Dynamic BDD reordering for the engine's one BDD manager, which builds
  /// the CSSG and runs every symbolic phase on the thread that calls run().
  /// It sifts whenever its tables cross the trigger; results stay
  /// byte-identical across orders because every symbolic query the engine
  /// consumes is canonicalized to be order-independent.
  ReorderPolicy reorder{};
  std::size_t random_budget = 512;       ///< vectors spent in random TPG
  std::size_t random_walk_len = 48;      ///< restart interval (reset pulses)
  std::uint64_t seed = 1;
  /// The per-fault search budget is deterministic: the differentiation BFS
  /// is cut off by diff_depth / diff_node_cap (and the simulator by `sim`'s
  /// caps), which depend only on (circuit, options, fault), so outcomes are
  /// byte-identical across machines, load, and thread counts.
  std::size_t diff_depth = 16;           ///< differentiation BFS depth
  std::size_t diff_node_cap = 20000;     ///< differentiation BFS nodes
  FaultSimOptions sim;
  /// A-priori undetectable-fault classification (§6's proposed
  /// improvement): before searching, prove a fault redundant when its
  /// faulted line never carries the opposite of the stuck value in *any*
  /// state a legal test session can pass through.  Sound; skips the
  /// 3-phase search for proven faults.
  bool classify_undetectable = false;
  /// Worker threads for both fault-parallel fan-outs of a run: the random
  /// phase's replay of the walks and the explicit differentiation search.
  /// The calling thread is one of them, and a fan-out never uses more
  /// workers than it has faults.  1 = run on the calling thread and make no
  /// pool; 0 = one worker per hardware thread.  Outcomes and sequences are
  /// byte-identical for every value.
  std::size_t threads = 1;

  /// Hard ceiling for `threads` (beyond it a value is a typo, not a fleet).
  static constexpr std::size_t kMaxThreads = 4096;
  /// Hard ceiling for `k` and `sim.k`.  Settling an oscillating pattern
  /// takes time linear in the bound and has no cancel point, so a larger
  /// value would pin a worker for minutes.
  static constexpr std::size_t kMaxK = std::size_t{1} << 20;

  /// Boundary validation: rejects the degenerate values every layer above
  /// used to accept silently (k = 0 makes every vector "oscillate",
  /// diff_depth = 0 disables phase 3 entirely, threads > 4096 is a typo,
  /// k > 2^20 settles an oscillation for seconds with no way to cancel).
  /// Returns an OptionError listing *all* violations.  The Session facade
  /// calls this for every run; AtpgEngine's constructor enforces it loudly.
  [[nodiscard]] Expected<void> validate() const;
};

}  // namespace xatpg
