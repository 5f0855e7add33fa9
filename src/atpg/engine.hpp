// The ATPG engine (§5): random TPG on the CSSG, 3-phase symbolic ATPG
// (fault activation / state justification / state differentiation), and
// cross fault simulation of every generated sequence — with per-phase
// statistics matching the paper's table columns (rnd / 3-ph / sim).
//
// Public-surface note: the plain data types this engine produces and
// consumes (AtpgOptions, Fault, TestSequence, CoveredBy, FaultOutcome,
// AtpgStats, AtpgResult) and the streaming run model (RunObserver,
// RunProgress, CancelToken) are part of the installed API and live under
// include/xatpg/; the engine itself is internal — out-of-tree consumers
// drive it through xatpg::Session.
//
// Parallel architecture: a run fans out twice, the random phase's replay
// and the explicit differentiation search, both through fan_out() on one
// ThreadPool the engine owns.
//   * The engine owns ONE Cssg on one BddManager and the LazyCssg over it,
//     both built by the constructor, and only the thread that calls run()
//     touches them.  A state's successor list is built on the calling
//     thread when something first reads it whole, so a caller that only
//     reads the CSSG statistics builds none.  Random walks and follow()
//     take one successor at a time by a rank read, which counts the
//     state's successors on the BDD and interns only the state it returns,
//     so they build no long list (a walk reads a short list,
//     kShortWalkList, whole).
//   * A walk is the good-state ids a sequence visits after reset, one per
//     vector; the vector is the target's input part.  The random phase
//     draws walks and a search returns one.  A fault's simulator replays a
//     walk through one helper, in the random replay, a search's prefix and
//     cross simulation alike, and vectors are built only when a walk is
//     committed or exported.
//   * A fan-out's work function takes only what it reads: the fault's
//     FaultSimulator, walks, the options and a const ExplicitCssg that
//     holds them finished (the draw interned the random walks; complete()
//     built every list a search reads).  It is a static member, so it
//     cannot reach the engine, its LazyCssg or the BDD manager; no worker
//     holds a BDD node or runs a BDD operation.
//   * A run makes one FaultSimulator per fault, and that simulator serves
//     the fault for the whole run, so its settle memo answers every start
//     state the fault met before: the replay fan-out, then the search
//     fan-out, then the merge on the calling thread.  Each handoff crosses
//     a fan-out join, so one thread at a time drives it and no lock is
//     needed.
//   * Random TPG draws every walk first, on the calling thread, from the
//     graph and the seeded RNG alone (random_walks()).  The fan-out then
//     replays the walks on each fault's simulator and records the fault's
//     first detecting (walk, step); the calling thread commits in walk
//     order.
//   * Before the search fan-out the calling thread computes every searched
//     fault's symbolic phases 1-2 -- activation AND CSSG-reachable, then
//     justify() -- serially, in fault-list order, then completes the graph
//     and follows each justified prefix to its walk.  The same BDD
//     operations therefore run in the same order, and the states take the
//     same ids, at any thread count.  The search workers run only phase 3,
//     differentiate() from each prefix walk and then from reset, over the
//     finished graph's lists.
//   * fan_out() hands out items in blocks of work_block_size() through one
//     shared atomic cursor: a worker claims its next block with one
//     fetch_add, so a worker pinned by a slow fault leaves the remaining
//     blocks to the others.  The calling thread is worker 0 and streams
//     progress after each of its blocks; every worker count, one included,
//     splits a batch into about four blocks per worker.  The pool holds the
//     other min(threads, items) - 1 workers, is created at the first
//     fan-out that needs a helper and grown only when a later one needs
//     more, and is joined by the engine's destructor.  threads=1 runs its
//     blocks inline and makes no pool.
//   * The merges are deterministic: each fault's replay and each fault's
//     search depend only on the fault, not on scheduling or which worker
//     ran it.  Random walks commit in walk order, then the searches' walks
//     commit strictly in fault-list order, and cross fault simulation of
//     each committed walk (the paper's "sim" column) runs as a post-merge
//     word-parallel ternary pass in 64-lane batches (+ exact confirmation
//     by replay).  Every search cutoff is deterministic too
//     (diff_depth/diff_node_cap and the simulator caps).  Results are
//     therefore byte-identical for any thread count and any claim order,
//     including threads=1.
//
// Streaming, cancellation, incrementality:
//   * run(faults, observer, cancel) fires RunObserver callbacks from the
//     calling thread only, checks the CancelToken between committed walks,
//     between faults and between work items inside either fan-out, and on
//     cancellation returns the deterministic partial result: the sequence
//     list is a prefix of the uncancelled run's, and every committed
//     outcome is final.  A token that fires during the random replay
//     commits no walk.
//   * Generated tests are memoized per fault across runs (each test is a
//     pure function of the fault given the circuit/options).  A run searches
//     every uncovered fault before its first commit, so add_faults() — which
//     re-runs the whole flow on the grown universe and reuses every cached
//     search — produces the result and the observer events of a
//     from-scratch run on the union universe without repeating a completed
//     search.  add_faults({}) after a cancelled run resumes it for the same
//     reason.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "sgraph/cssg.hpp"
#include "util/thread_pool.hpp"
#include "xatpg/options.hpp"
#include "xatpg/progress.hpp"
#include "xatpg/types.hpp"

namespace xatpg {

/// ATPG driver bound to one circuit + reset state.  The CSSG is computed
/// once and shared across fault universes (run() can be called repeatedly);
/// memoized 3-phase searches are likewise reused by later run()/add_faults()
/// calls on the same engine.
class AtpgEngine {
 public:
  /// Rejects degenerate options loudly: throws CheckError when
  /// options.validate() fails (the Session facade reports the same failure
  /// as a typed OptionError before ever reaching this constructor).
  AtpgEngine(const Netlist& netlist, const std::vector<bool>& reset_state,
             const AtpgOptions& options = {});

  /// The symbolic abstraction.  Its BddManager belongs to the thread that
  /// calls run(): query it from that thread, between runs.
  const Cssg& cssg() const { return *cssg_; }
  /// The explicit CSSG as far as runs and follow() have built it: the
  /// reset state is id 0, a state has an id once a built list or a rank
  /// read reaches it, and edges[id] is empty until a run needs the whole
  /// list.  Cssg::extract_explicit() gives the whole graph.
  const ExplicitCssg& graph() const { return graph_.graph(); }
  /// Successor lists built so far, by every run on this engine.
  std::size_t lists_built() const { return graph_.lists_built(); }
  const AtpgOptions& options() const { return options_; }

  /// Run the full flow (random TPG -> fault-parallel 3-phase ->
  /// deterministic merge with cross fault simulation) on the given fault
  /// universe, replacing any previous universe.  `observer` (optional)
  /// receives the streaming events, `cancel` (optional) stops the run
  /// cooperatively between faults — see xatpg/progress.hpp for the
  /// contract.
  AtpgResult run(const std::vector<Fault>& faults,
                 RunObserver* observer = nullptr,
                 const CancelToken* cancel = nullptr);

  /// Grow the current universe by `faults` and run the flow on the union.
  /// Cached searches are reused, so the result is byte-identical to
  /// run(union) and only the faults no earlier run searched pay for a
  /// 3-phase search.
  AtpgResult add_faults(const std::vector<Fault>& faults,
                        RunObserver* observer = nullptr,
                        const CancelToken* cancel = nullptr);

  /// The fault universe accumulated by run()/add_faults().
  const std::vector<Fault>& universe() const { return universe_; }

  /// One entry per worker slot of the most recent run, with its
  /// faults_done.  Slot 0 also carries the BDD accounting
  /// of the engine's one manager; the other slots hold no BDD state, so
  /// their node and cache counters stay 0.  Calling thread only, between
  /// runs — the same snapshot the final progress callback reports.
  std::vector<ShardBddStats> shard_bdd_stats() const;

  /// Helper threads in the engine's pool: 0 until a fan-out needs one, and
  /// never more than fan_out_workers(threads, items) - 1 over the largest
  /// batch any run fanned out.
  std::size_t pool_threads() const { return pool_ ? pool_->size() : 0; }

  /// True if the a-priori classifier proves the fault undetectable: the
  /// faulted line equals the stuck value in every state any legal test can
  /// drive the circuit through (stable or transient), so the fault can
  /// never change any gate's behaviour during test.
  bool provably_redundant(const Fault& fault) const;

  /// Good-circuit state ids visited by a sequence, reset (id 0) first;
  /// nullopt if a vector is not a valid CSSG edge.  Each step is a rank
  /// read, LazyCssg::successor_applying: it reads a built list, and
  /// otherwise answers from the BDD and interns the one state it reaches,
  /// so following builds no list.  It may run BDD operations on the
  /// engine's manager, so it belongs to the thread that calls run(),
  /// between runs; no fan-out calls it.
  std::optional<std::vector<std::uint32_t>> follow(
      const TestSequence& seq) const;

 private:
  /// A walk from reset: the good-state ids it visits, one per vector (the
  /// vector applied is the target's input part).
  using Walk = std::vector<std::uint32_t>;
  /// A completed 3-phase search: the test's walk (nullopt = none found)
  /// plus whether a cap truncated the search.  gave_up is meaningful only
  /// when walk is empty -- a found test is a found test however hard the
  /// search worked.
  struct SearchOutcome {
    std::optional<Walk> walk;
    bool gave_up = false;
  };
  struct FaultHash {
    std::size_t operator()(const Fault& fault) const;
  };
  /// One fan_out call's per-worker-slot tallies: items completed, and
  /// whether every item ran.
  struct FanOut {
    std::vector<std::size_t> done;
    bool complete = true;
  };

  /// The engine's one fan-out: runs work(item) once for every item over
  /// fan_out_workers(threads, items) worker slots.  The calling thread is
  /// worker 0 and calls on_block(tallies so far) after each of its own
  /// blocks; the others come from pool_, which this call creates, or
  /// replaces with a larger one, when it holds fewer helpers than the
  /// slots need.  Workers check `cancel` between
  /// items, so a token that fires leaves some items unrun (complete ==
  /// false).  An exception from work() or on_block() is rethrown here
  /// after every worker has stopped.
  FanOut fan_out(const std::vector<std::size_t>& items,
                 const CancelToken* cancel,
                 const std::function<void(std::size_t)>& work,
                 const std::function<void(const FanOut&)>& on_block);

  // The fan-outs' work functions: static, so a worker reaches only `sim`
  // and what it reads, a finished graph holding every walk it is given.

  /// Replay `walks` in order on `sim`, each from a reset(), abandoning a
  /// walk once the simulator gives up.  Returns the first detecting
  /// (walk, step), or nullopt.
  static std::optional<std::pair<std::size_t, std::size_t>> first_detection(
      FaultSimulator& sim, const std::vector<Walk>& walks,
      const ExplicitCssg& graph);
  /// Phase 3 on `sim`'s fault: replay `prefix` from a reset() of `sim`,
  /// then search breadth-first over graph.edges for the shortest extension
  /// that detects the fault.  A found walk starts with the prefix, cut at
  /// its detecting step if it has one.
  static SearchOutcome differentiate(FaultSimulator& sim, const Walk& prefix,
                                     const ExplicitCssg& graph,
                                     const AtpgOptions& options);
  /// Phase 3 for `sim`'s fault from `prefix` (if any), then from reset.
  static SearchOutcome search(FaultSimulator& sim,
                              const std::optional<Walk>& prefix,
                              const ExplicitCssg& graph,
                              const AtpgOptions& options);

  /// Phases 1-2 on the engine's BddManager (calling thread only): the
  /// justification of the fault's activation states, nullopt when no
  /// CSSG-reachable stable state activates it.
  std::optional<TestSequence> activation_prefix(const Fault& fault) const;
  /// The full deterministic flow over universe_ (shared by run/add_faults).
  AtpgResult run_universe(RunObserver* observer, const CancelToken* cancel);
  /// The 3-phase search for `todo` (fault indices): every activation
  /// prefix on this thread first, then every explicit list still missing
  /// and each prefix's walk; then the explicit searches fanned out over
  /// the workers, fault i on sims[i], memoizing each completed search in
  /// generated_cache_.  Called once per run, before the first commit.  A
  /// token that fires during the prefix pass skips the fan-out; faults
  /// skipped because `cancel` fired are left unmemoized (a later run
  /// attempts them again), and the call returns false if any was.  The
  /// run's per-worker search counts land in shard_done_, updated before
  /// each `on_block` call that streams progress.
  bool generate_parallel(const std::vector<Fault>& faults,
                         std::vector<std::unique_ptr<FaultSimulator>>& sims,
                         const std::vector<std::size_t>& todo,
                         const CancelToken* cancel,
                         const std::function<void()>& on_block);
  /// Post-merge cross fault simulation of one committed walk: 64-lane
  /// ternary screen of its sequence `seq` over the remaining uncovered
  /// faults, exact confirmation of every flag by replaying the walk, and
  /// the exact replay for faults whose search found no test.  `sims` are
  /// the run's per-fault exact simulators.  `resolved` collects the
  /// indices whose outcome this call finalized (for observer events).
  void cross_simulate(const std::vector<Fault>& faults,
                      std::vector<std::unique_ptr<FaultSimulator>>& sims,
                      std::size_t committed, const Walk& walk,
                      const TestSequence& seq, int seq_index,
                      AtpgResult& result,
                      std::vector<std::size_t>& resolved) const;

  const Netlist* netlist_;
  std::vector<bool> reset_state_;
  AtpgOptions options_;
  /// The symbolic abstraction on the engine's one BddManager, used only by
  /// the thread that calls run().
  std::unique_ptr<Cssg> cssg_;
  /// The explicit graph over cssg_: lists are built and rank reads intern
  /// states into it on the calling thread only.  Mutable because follow()
  /// interns the states a const caller's sequence reaches.
  mutable LazyCssg graph_;
  /// The current fault universe (run() replaces, add_faults() extends).
  std::vector<Fault> universe_;
  /// Per-worker 3-phase searches completed during the most recent run
  /// (index = worker slot).  Reset at the start of run_universe, filled by
  /// its generate_parallel call, reported by progress snapshots and
  /// shard_bdd_stats().
  std::vector<std::size_t> shard_done_;
  /// Memoized 3-phase searches: presence means the search was *completed*
  /// for that fault (SearchOutcome::walk nullopt = search exhausted or
  /// gave up, fault undetected by its own test).  Never invalidated — a
  /// search outcome is a pure function of (circuit, reset, options, fault),
  /// and graph_ never renumbers a state a walk visits.
  std::unordered_map<Fault, SearchOutcome, FaultHash> generated_cache_;
  /// fan_out's helper threads, shared by every fan-out of every run.
  /// Declared last so it is joined before the state its tasks read goes.
  std::unique_ptr<ThreadPool> pool_;
};

/// A random walk reads a state's whole successor list when it holds at
/// most this many entries, and otherwise reads each step off the BDD.  A
/// walk returns to a short list's few entries over and over, and listing
/// them once costs less than a descent per step; a long list is read at a
/// few of its ranks (a parity-10 run walks 390 states of 1,023 successors
/// each).
inline constexpr std::uint64_t kShortWalkList = 64;

/// Random TPG's walks (§5.4) on `graph`, drawn with the options' seed,
/// budget and walk length alone, so no walk depends on any fault.  A walk
/// is the good-state ids it visits from reset, one per vector.  Each step
/// draws a rank below the state's successor count and takes the successor
/// at that rank, from the list when it is short (kShortWalkList) and by a
/// rank read otherwise: the draws and states of a walk over whole lists
/// (tests/oracle.hpp's oracle_random_walks is that walk), with no list
/// longer than kShortWalkList built.
std::vector<std::vector<std::uint32_t>> random_walks(
    LazyCssg& graph, const AtpgOptions& options);

/// Tester-facing export: vectors and expected primary-output responses per
/// cycle, in a simple line format a synchronous tester can replay.
void write_test_program(std::ostream& out, const Netlist& netlist,
                        const AtpgEngine& engine,
                        const std::vector<TestSequence>& sequences);

}  // namespace xatpg
