#include "atpg/engine.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <numeric>
#include <ostream>
#include <thread>
#include <tuple>
#include <unordered_set>

#include "util/check.hpp"
#include "util/packed.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace xatpg {

namespace {

std::size_t resolved_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

bool cancel_fired(const CancelToken* cancel) {
  return cancel != nullptr && cancel->cancelled();
}

/// LazyCssg numbers the reset state 0.
constexpr std::uint32_t kResetId = 0;

/// The engine's CSSG options, once `options` pass validate().
CssgOptions validated_cssg_options(const AtpgOptions& options) {
  const Expected<void> valid = options.validate();
  XATPG_CHECK_MSG(valid.has_value(),
                  "invalid AtpgOptions — " << valid.error().message);
  CssgOptions cssg_options;
  cssg_options.k = options.k;
  cssg_options.order = options.order;
  cssg_options.reorder = options.reorder;
  return cssg_options;
}

/// Reset `sim` and replay `walk` (good-state ids after reset, one per
/// vector) on it while its status stays Undetermined: the one replay of
/// the random phase, a search's prefix and cross simulation.  Returns the
/// steps applied; sim.status() says why the replay stopped, and a
/// detection happened at the last step applied.
std::size_t replay(FaultSimulator& sim, const std::vector<std::uint32_t>& walk,
                   const ExplicitCssg& graph) {
  sim.reset();
  std::size_t steps = 0;
  for (; steps < walk.size() && sim.status() == DetectStatus::Undetermined;
       ++steps)
    sim.step(graph.inputs[walk[steps]], graph.states[walk[steps]]);
  return steps;
}

/// The vectors a walk applies: each state's input part.
TestSequence sequence_of(const std::vector<std::uint32_t>& walk,
                         const ExplicitCssg& graph) {
  TestSequence seq;
  seq.vectors.reserve(walk.size());
  for (const std::uint32_t id : walk) seq.vectors.push_back(graph.inputs[id]);
  return seq;
}

}  // namespace

std::size_t AtpgEngine::FaultHash::operator()(const Fault& fault) const {
  // splitmix-style mix of the four fields; quality matters little (the map
  // holds at most a few thousand faults) but determinism does not — this is
  // never iterated, only probed.
  std::uint64_t h = static_cast<std::uint64_t>(fault.gate);
  h = (h << 20) ^ (static_cast<std::uint64_t>(fault.pin) << 2);
  h ^= static_cast<std::uint64_t>(fault.site == Fault::Site::GatePin) << 1;
  h ^= static_cast<std::uint64_t>(fault.stuck_value);
  h *= 0x9e3779b97f4a7c15ull;
  h ^= h >> 32;
  return static_cast<std::size_t>(h);
}

AtpgEngine::AtpgEngine(const Netlist& netlist,
                       const std::vector<bool>& reset_state,
                       const AtpgOptions& options)
    : netlist_(&netlist),
      reset_state_(reset_state),
      options_(options),
      cssg_(std::make_unique<Cssg>(netlist, reset_state_,
                                   validated_cssg_options(options_))),
      graph_(*cssg_) {}

std::optional<std::vector<std::uint32_t>> AtpgEngine::follow(
    const TestSequence& seq) const {
  std::vector<std::uint32_t> path{kResetId};
  for (const auto& vec : seq.vectors) {
    const auto next = graph_.successor_applying(path.back(), vec);
    if (!next) return std::nullopt;
    path.push_back(*next);
  }
  return path;
}

// ---------------------------------------------------------------------------
// Random TPG (§5.4)
// ---------------------------------------------------------------------------

std::vector<std::vector<std::uint32_t>> random_walks(
    LazyCssg& graph, const AtpgOptions& options) {
  std::vector<std::vector<std::uint32_t>> walks;
  // A circuit whose reset state has no valid vector at all (every pattern
  // races — it happens on heavily hazardous bounded-delay circuits) cannot
  // be random-tested.
  if (graph.successor_count(kResetId) == 0) return walks;
  Rng rng(options.seed);
  std::size_t budget = options.random_budget;
  while (budget > 0) {
    // A fresh walk models a reset pulse followed by random valid vectors.
    std::vector<std::uint32_t>& walk = walks.emplace_back();
    std::uint32_t good_id = kResetId;
    for (std::size_t step = 0; step < options.random_walk_len && budget > 0;
         ++step) {
      const std::uint64_t n = graph.successor_count(good_id);
      if (n == 0) break;
      const std::uint64_t rank = rng.below(n);
      good_id = n <= kShortWalkList ? graph.successors(good_id)[rank]
                                    : graph.successor_at(good_id, rank);
      --budget;
      walk.push_back(good_id);
    }
  }
  return walks;
}

std::optional<std::pair<std::size_t, std::size_t>>
AtpgEngine::first_detection(FaultSimulator& sim,
                            const std::vector<Walk>& walks,
                            const ExplicitCssg& graph) {
  for (std::size_t w = 0; w < walks.size(); ++w) {
    const std::size_t steps = replay(sim, walks[w], graph);
    if (sim.status() == DetectStatus::Detected) return std::pair{w, steps - 1};
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// 3-phase ATPG
// ---------------------------------------------------------------------------

AtpgEngine::SearchOutcome AtpgEngine::differentiate(
    FaultSimulator& sim, const Walk& prefix, const ExplicitCssg& graph,
    const AtpgOptions& options) {
  // Replay the (justification) prefix on the faulty circuit, from reset
  // even when an earlier sequence on this simulator detected the fault.
  const std::size_t applied = replay(sim, prefix, graph);
  if (sim.status() == DetectStatus::Detected) {
    // Corruption surfaced during justification — in all terminal states,
    // so the shortened walk is already a test (paper, Fig. 3a).
    return {Walk(prefix.begin(), prefix.begin() + applied), false};
  }
  // The candidate cap blew at reset or on the prefix: nothing proven.
  if (sim.status() == DetectStatus::GaveUp) return {std::nullopt, true};

  // Phase 3: breadth-first search over valid vectors for the shortest
  // extension that makes every faulty execution observable.
  struct Node {
    std::uint32_t good_id;
    FaultSimulator::Snapshot sim_state;
    /// Good-state ids of the extension; it applies their input parts.
    Walk suffix;
  };
  std::deque<Node> queue;
  // A search node is (good state, faulty candidate set); the candidates are
  // sorted and distinct, so equal words mean equal nodes.
  std::unordered_set<std::vector<StateWord>, StateWordsHash> visited;
  const auto key_of = [](std::uint32_t good_id,
                         const std::vector<StateWord>& candidates) {
    std::vector<StateWord> key;
    key.reserve(candidates.size() + 1);
    key.push_back(good_id);
    key.insert(key.end(), candidates.begin(), candidates.end());
    return key;
  };
  const std::uint32_t start = prefix.empty() ? kResetId : prefix.back();
  queue.push_back(Node{start, sim.snapshot(), {}});
  visited.insert(key_of(start, sim.candidates()));

  // The per-fault budget is the DETERMINISTIC pair diff_depth /
  // diff_node_cap — both depend only on (circuit, options, fault), never on
  // machine speed, load, or scheduling, which is what makes outcomes
  // byte-identical across hosts and thread counts.
  bool truncated = false;
  std::size_t expanded = 0;
  while (!queue.empty()) {
    const Node node = std::move(queue.front());
    queue.pop_front();
    if (node.suffix.size() >= options.diff_depth) {
      truncated = true;  // deeper extensions exist but are unexplored
      continue;
    }
    for (const std::uint32_t to : graph.edges[node.good_id]) {
      if (++expanded > options.diff_node_cap) return {std::nullopt, true};
      sim.restore(node.sim_state);
      const DetectStatus status =
          sim.step(graph.inputs[to], graph.states[to]);
      if (status == DetectStatus::GaveUp) {
        truncated = true;  // this branch is abandoned, not refuted
        continue;
      }
      if (status == DetectStatus::Detected) {
        Walk walk = prefix;
        walk.insert(walk.end(), node.suffix.begin(), node.suffix.end());
        walk.push_back(to);
        return {std::move(walk), false};
      }
      if (visited.insert(key_of(to, sim.candidates())).second) {
        Walk suffix = node.suffix;
        suffix.push_back(to);
        queue.push_back(Node{to, sim.snapshot(), std::move(suffix)});
      }
    }
  }
  return {std::nullopt, truncated};
}

bool AtpgEngine::provably_redundant(const Fault& fault) const {
  const SignalId src = fault.site == Fault::Site::GatePin
                           ? netlist_->gate(fault.gate).fanins[fault.pin]
                           : fault.gate;
  const Bdd lit = cssg_->encoding().cur(src);
  const Bdd differs = fault.stuck_value ? !lit : lit;
  // The line never differs from the stuck value in any test-mode-reachable
  // state => the faulty circuit is trajectory-equivalent to the good one
  // (inductively: identical states produce identical successor sets).
  return (cssg_->test_mode_reachable() & differs).is_false();
}

std::optional<TestSequence> AtpgEngine::activation_prefix(
    const Fault& fault) const {
  // Phase 1 — fault activation (§5.1): stable, valid-vector-reachable
  // states in which the faulted line carries the opposite of its stuck
  // value.
  const SignalId src = fault.site == Fault::Site::GatePin
                           ? netlist_->gate(fault.gate).fanins[fault.pin]
                           : fault.gate;
  const Bdd lit = cssg_->encoding().cur(src);
  const Bdd excited = fault.stuck_value ? !lit : lit;
  const Bdd activation = excited & cssg_->cssg_reachable();
  // Phase 2 — state justification via the onion rings (§5.2).  The
  // justification is a pure function of the canonical activation set.
  // Faults with no stable excitation state go directly to phase 3 (§5.1's
  // "left directly to the last phase").
  if (activation.is_false()) return std::nullopt;
  auto just = cssg_->justify(activation);
  if (!just) return std::nullopt;
  return TestSequence{std::move(just->vectors)};
}

AtpgEngine::SearchOutcome AtpgEngine::search(
    FaultSimulator& sim, const std::optional<Walk>& prefix,
    const ExplicitCssg& graph, const AtpgOptions& options) {
  // Phase 3 — differentiation (§5.3), first from the justified activation
  // state.
  bool truncated = false;
  if (prefix) {
    SearchOutcome with_prefix = differentiate(sim, *prefix, graph, options);
    if (with_prefix.walk) return with_prefix;
    truncated = with_prefix.gave_up;
  }
  // Fall back to a full differentiation search from reset: complete within
  // the caps, subsumes any choice of activation state.
  SearchOutcome from_reset = differentiate(sim, Walk{}, graph, options);
  // No test.  "Gave up" iff any cap truncated either search — an
  // untruncated exhaustion means the fault really has no test within the
  // caps' full space (redundant-in-practice), which bench coverage floors
  // must not confuse with a cap blowout.
  if (!from_reset.walk) from_reset.gave_up = from_reset.gave_up || truncated;
  return from_reset;
}

// ---------------------------------------------------------------------------
// Fault-parallel generation
// ---------------------------------------------------------------------------

AtpgEngine::FanOut AtpgEngine::fan_out(
    const std::vector<std::size_t>& items, const CancelToken* cancel,
    const std::function<void(std::size_t)>& work,
    const std::function<void(const FanOut&)>& on_block) {
  const std::size_t workers =
      fan_out_workers(resolved_threads(options_.threads), items.size());
  if (workers > 1 && pool_threads() < workers - 1)
    pool_ = std::make_unique<ThreadPool>(workers - 1);
  // One shared cursor over the items: a worker claims the next block with
  // one fetch_add, so every item falls in exactly one claimed block and
  // work(i) may write slot i of a caller's array without a race.  Relaxed
  // ordering suffices: a claim hands out indices into `items`, which no
  // one writes during the fan-out, and results are read after the join.
  const std::size_t block = work_block_size(items.size(), workers);
  std::atomic<std::size_t> next{0};
  // Items completed per worker.  Each counter has one writer (its worker)
  // and is read by the calling thread with relaxed loads: a tally passed
  // to on_block may lag the workers, and the one returned is exact, since
  // the pool has gone idle by then.
  std::vector<std::atomic<std::size_t>> done(workers);
  std::vector<std::exception_ptr> errors(workers);
  const auto tally_now = [&] {
    FanOut tally;
    for (std::size_t w = 0; w < workers; ++w)
      tally.done.push_back(done[w].load(std::memory_order_relaxed));
    return tally;
  };
  const auto run_blocks = [&](std::size_t w, bool calls_back) {
    for (std::size_t first = next.fetch_add(block, std::memory_order_relaxed);
         first < items.size();
         first = next.fetch_add(block, std::memory_order_relaxed)) {
      const std::size_t last = std::min(first + block, items.size());
      for (std::size_t k = first; k < last; ++k) {
        if (cancel_fired(cancel)) break;
        work(items[k]);
        done[w].fetch_add(1, std::memory_order_relaxed);
      }
      if (calls_back) on_block(tally_now());
      if (cancel_fired(cancel)) return;
    }
  };
  // Submitting inside the try keeps a throw from leaving submitted tasks
  // running against this frame: the join below always happens.
  try {
    for (std::size_t w = 1; w < workers; ++w) {
      pool_->submit([&, w] {
        try {
          run_blocks(w, /*calls_back=*/false);
        } catch (...) {
          errors[w] = std::current_exception();
        }
      });
    }
    // The calling thread is worker 0 (observer contract: callbacks fire on
    // the calling thread only).
    run_blocks(0, /*calls_back=*/true);
  } catch (...) {
    errors[0] = std::current_exception();
  }
  if (workers > 1) pool_->wait_idle();
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);

  FanOut tally = tally_now();
  tally.complete = std::accumulate(tally.done.begin(), tally.done.end(),
                                   std::size_t{0}) == items.size();
  return tally;
}

bool AtpgEngine::generate_parallel(
    const std::vector<Fault>& faults,
    std::vector<std::unique_ptr<FaultSimulator>>& sims,
    const std::vector<std::size_t>& todo, const CancelToken* cancel,
    const std::function<void()>& on_block) {
  // Phases 1-2 run here, on the one thread that uses the BDD manager, in
  // fault-list order.  A token that fires during this pass skips the
  // search, so no search ever runs without its prefix.
  std::vector<std::optional<TestSequence>> justified(faults.size());
  for (const std::size_t i : todo) {
    if (cancel_fired(cancel)) return false;
    justified[i] = activation_prefix(faults[i]);
  }
  // The searches read a finished graph: every list is built here, and each
  // justification is followed to its walk over the built lists.
  graph_.complete();
  const ExplicitCssg& graph = graph_.graph();
  std::vector<std::optional<Walk>> prefixes(faults.size());
  for (const std::size_t i : todo) {
    if (!justified[i]) continue;
    const auto path = follow(*justified[i]);
    XATPG_CHECK_MSG(path.has_value(), "a justification left the CSSG");
    prefixes[i].emplace(path->begin() + 1, path->end());
  }

  // Results land here first (slot per fault index, written by exactly one
  // worker) and are memoized after the join: the cache is not touched from
  // worker threads.  A search reads only the finished graph and the
  // options, and it drives the fault's simulator from this run, which the
  // replay fan-out's join handed over and this fan-out's join hands on to
  // the merge.
  std::vector<SearchOutcome> generated(faults.size());
  std::vector<char> attempted(faults.size(), 0);
  const auto record_counts = [&](const FanOut& tally) {
    if (shard_done_.size() < tally.done.size())
      shard_done_.resize(tally.done.size(), 0);
    std::copy(tally.done.begin(), tally.done.end(), shard_done_.begin());
  };
  const AtpgOptions& options = options_;
  const FanOut tally = fan_out(
      todo, cancel,
      [&generated, &attempted, &sims, &prefixes, &graph,
       &options](std::size_t i) {
        generated[i] = search(*sims[i], prefixes[i], graph, options);
        attempted[i] = 1;
      },
      [&](const FanOut& so_far) {
        record_counts(so_far);
        on_block();
      });
  // Exact after the join; snapshots emitted later keep reporting them.
  record_counts(tally);

  // Memoize completed searches (single-threaded again).  Faults skipped by
  // a fired CancelToken stay unmemoized and are attempted by a later run.
  for (const std::size_t i : todo)
    if (attempted[i])
      generated_cache_.emplace(faults[i], std::move(generated[i]));
  return tally.complete;
}

std::vector<ShardBddStats> AtpgEngine::shard_bdd_stats() const {
  const BddManager& mgr = cssg_->encoding().mgr();
  std::vector<ShardBddStats> shards(
      std::max<std::size_t>(shard_done_.size(), 1));
  for (std::size_t w = 0; w < shards.size(); ++w) {
    shards[w].shard = w;
    if (w < shard_done_.size()) shards[w].faults_done = shard_done_[w];
  }
  // Slot 0 reports the engine's one manager; the other worker slots hold
  // no BDD state.
  ShardBddStats& stats = shards.front();
  stats.live_nodes = mgr.allocated_nodes();
  stats.peak_nodes = mgr.peak_nodes();
  stats.delta_peak = stats.peak_nodes;
  stats.reorders = mgr.reorder_count();
  stats.cache_lookups = mgr.cache_lookups();
  stats.cache_hits = mgr.cache_hits();
  stats.collections = mgr.gc_count();
  stats.unique_load = mgr.unique_load();
  return shards;
}

// ---------------------------------------------------------------------------
// Deterministic merge: cross fault simulation
// ---------------------------------------------------------------------------

void AtpgEngine::cross_simulate(
    const std::vector<Fault>& faults,
    std::vector<std::unique_ptr<FaultSimulator>>& sims, std::size_t committed,
    const Walk& walk, const TestSequence& seq, int seq_index,
    AtpgResult& result, std::vector<std::size_t>& resolved) const {
  std::vector<std::size_t> remaining;
  for (std::size_t j = 0; j < faults.size(); ++j) {
    if (j == committed) continue;
    if (result.outcomes[j].covered_by != CoveredBy::None) continue;
    if (result.outcomes[j].proven_redundant) continue;
    remaining.push_back(j);
  }
  if (remaining.empty()) return;

  // Word-parallel ternary screen.  Sound: a ternary flag means every
  // execution of the faulty circuit mismatches a strobe.
  std::vector<Fault> screened;
  screened.reserve(remaining.size());
  for (const std::size_t j : remaining) screened.push_back(faults[j]);
  std::vector<bool> flagged(remaining.size(), false);
  for (const std::size_t hit :
       ternary_screen(*netlist_, reset_state_, screened, seq.vectors))
    flagged[hit] = true;

  for (std::size_t r = 0; r < remaining.size(); ++r) {
    const std::size_t j = remaining[r];
    // Exact pass for ternary flags (confirmation before attribution) and
    // for faults whose own 3-phase search found no test — for those the
    // exact simulator is the only remaining chance at coverage; skipping it
    // would regress coverage where ternary is too conservative.  Every
    // remaining fault was searched before the first commit.
    if (!flagged[r] && generated_cache_.at(faults[j]).walk) continue;
    FaultSimulator& sim = *sims[j];
    replay(sim, walk, graph_.graph());
    if (sim.status() == DetectStatus::Detected) {
      result.outcomes[j].covered_by = CoveredBy::FaultSim;
      result.outcomes[j].sequence_index = seq_index;
      ++result.stats.by_fault_sim;
      resolved.push_back(j);
    }
  }
}

// ---------------------------------------------------------------------------
// Full flow
// ---------------------------------------------------------------------------

AtpgResult AtpgEngine::run(const std::vector<Fault>& faults,
                           RunObserver* observer, const CancelToken* cancel) {
  universe_ = faults;
  return run_universe(observer, cancel);
}

AtpgResult AtpgEngine::add_faults(const std::vector<Fault>& faults,
                                  RunObserver* observer,
                                  const CancelToken* cancel) {
  universe_.insert(universe_.end(), faults.begin(), faults.end());
  return run_universe(observer, cancel);
}

AtpgResult AtpgEngine::run_universe(RunObserver* observer,
                                    const CancelToken* cancel) {
  const std::vector<Fault>& faults = universe_;
  Timer total_timer;
  const ExplicitCssg& graph = graph_.graph();
  const std::size_t lists_before = graph_.lists_built();
  const std::size_t list_ids_before = graph_.list_ids();
  AtpgResult result;
  result.outcomes.reserve(faults.size());
  for (const Fault& f : faults) result.outcomes.push_back(FaultOutcome{f});
  result.stats.total_faults = faults.size();

  const auto is_cancelled = [&] {
    if (cancel_fired(cancel)) {
      result.cancelled = true;
      return true;
    }
    return false;
  };
  std::size_t resolved_count = 0;
  const auto notify_resolved = [&](std::size_t index) {
    ++resolved_count;
    if (observer != nullptr)
      observer->on_fault_resolved(index, result.outcomes[index]);
  };
  // Per-worker completion counters restart with each run (filled by
  // generate_parallel, reported by every later snapshot).
  shard_done_.assign(shard_done_.size(), 0);
  const auto emit_progress = [&](RunPhase phase) {
    if (observer == nullptr) return;
    RunProgress progress;
    progress.phase = phase;
    progress.faults_total = faults.size();
    progress.faults_resolved = resolved_count;
    progress.covered = result.stats.by_random + result.stats.by_three_phase +
                       result.stats.by_fault_sim;
    progress.sequences_committed = result.sequences.size();
    progress.elapsed_seconds = total_timer.seconds();
    progress.shards = shard_bdd_stats();
    observer->on_progress(progress);
  };

  // One exact simulator per fault serves the whole run: the replay fan-out
  // steps it along the random walks, the search fan-out hands it to the
  // fault's differentiation search, and the merge replays each committed
  // walk on it.  Each handoff crosses a fan-out join, so only one thread at
  // a time drives a simulator and its settle memo carries over.
  std::vector<std::unique_ptr<FaultSimulator>> sims;
  sims.reserve(faults.size());
  for (const Fault& f : faults)
    sims.push_back(std::make_unique<FaultSimulator>(*netlist_, f,
                                                    reset_state_, options_.sim));

  // --- Random TPG (§5.4) ----------------------------------------------------
  // Every walk is drawn before any fault is simulated, so a fault's first
  // detecting walk is a pure function of the fault: the replay fans out
  // over the faults, and the commit below, in walk order, is the same at
  // any thread count.  A walk is committed iff it holds some fault's first
  // detection.
  if (observer != nullptr) observer->on_phase(RunPhase::RandomTpg);
  Timer random_timer;
  std::vector<Walk> walks;
  if (options_.random_budget > 0 && !is_cancelled())
    walks = random_walks(graph_, options_);
  if (!walks.empty() && !faults.empty()) {
    // Each fault's first detecting (walk, step), written by the one worker
    // that replays the fault.  The draw interned every walked state.
    std::vector<std::optional<std::pair<std::size_t, std::size_t>>> first(
        faults.size());
    std::vector<std::size_t> all(faults.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    const FanOut replayed = fan_out(
        all, cancel,
        [&first, &sims, &walks, &graph](std::size_t i) {
          first[i] = first_detection(*sims[i], walks, graph);
        },
        [&](const FanOut&) { emit_progress(RunPhase::RandomTpg); });
    // (walk, step, fault) of every first detection, in commit order.
    std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> hits;
    for (std::size_t i = 0; i < faults.size(); ++i)
      if (first[i]) hits.emplace_back(first[i]->first, first[i]->second, i);
    std::sort(hits.begin(), hits.end());

    // A token that fired during the replay commits no walk.
    if (!replayed.complete) result.cancelled = true;
    auto hit = hits.begin();
    for (std::size_t w = 0; w < walks.size() && !result.cancelled; ++w) {
      if (is_cancelled()) break;
      if (hit == hits.end() || std::get<0>(*hit) != w) continue;
      const int seq_index = static_cast<int>(result.sequences.size());
      const auto walk_first = hit;
      for (; hit != hits.end() && std::get<0>(*hit) == w; ++hit) {
        FaultOutcome& outcome = result.outcomes[std::get<2>(*hit)];
        outcome.covered_by = CoveredBy::Random;
        outcome.sequence_index = seq_index;
        ++result.stats.by_random;
      }
      result.sequences.push_back(sequence_of(walks[w], graph));
      for (auto it = walk_first; it != hit; ++it)
        notify_resolved(std::get<2>(*it));
      emit_progress(RunPhase::RandomTpg);
      // Stop early once everything is covered.
      if (result.stats.by_random == faults.size()) break;
    }
  }
  result.stats.random_seconds = random_timer.seconds();

  // --- a-priori undetectable-fault classification (optional, §6) ------------
  if (options_.classify_undetectable && !result.cancelled) {
    if (observer != nullptr) observer->on_phase(RunPhase::Classify);
    for (std::size_t i = 0; i < faults.size() && !is_cancelled(); ++i) {
      if (result.outcomes[i].covered_by != CoveredBy::None) continue;
      if (provably_redundant(faults[i])) {
        result.outcomes[i].proven_redundant = true;
        ++result.stats.proven_redundant;
        notify_resolved(i);
      }
    }
    emit_progress(RunPhase::Classify);
  }

  // --- fault-parallel 3-phase ATPG (§5.1–§5.3) -------------------------------
  // Every remaining fault is searched before the first commit, as the
  // paper's flow orders it.  A search is a pure function of the fault, so a
  // memo left by an earlier run on this engine (add_faults, or a cancelled
  // run being resumed) stands in for it exactly.
  Timer three_phase_timer;
  if (observer != nullptr) observer->on_phase(RunPhase::ThreePhase);
  std::vector<std::size_t> todo;
  std::vector<std::size_t> unsearched;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (result.outcomes[i].covered_by != CoveredBy::None ||
        result.outcomes[i].proven_redundant)
      continue;
    todo.push_back(i);
    if (!generated_cache_.contains(faults[i])) unsearched.push_back(i);
  }
  // A token that fires before or during the batch skips the merge, so the
  // merge never meets a fault without a search.
  if (!unsearched.empty() && !is_cancelled() &&
      !generate_parallel(faults, sims, unsearched, cancel,
                         [&] { emit_progress(RunPhase::ThreePhase); }))
    result.cancelled = true;

  // --- deterministic merge + cross fault simulation (§5.4) -------------------
  // Commit strictly in fault-list order; a fault already picked up by an
  // earlier committed sequence's cross simulation discards its own test.
  for (const std::size_t i : todo) {
    if (result.cancelled || is_cancelled()) break;
    if (result.outcomes[i].covered_by != CoveredBy::None) continue;
    const auto& walk = generated_cache_.at(faults[i]).walk;
    if (!walk) continue;  // undetected (redundant or gave up)
    const int seq_index = static_cast<int>(result.sequences.size());
    result.outcomes[i].covered_by = CoveredBy::ThreePhase;
    result.outcomes[i].sequence_index = seq_index;
    ++result.stats.by_three_phase;

    TestSequence seq = sequence_of(*walk, graph);
    std::vector<std::size_t> resolved;
    cross_simulate(faults, sims, i, *walk, seq, seq_index, result, resolved);
    result.sequences.push_back(std::move(seq));
    notify_resolved(i);
    for (const std::size_t j : resolved) notify_resolved(j);
    emit_progress(RunPhase::ThreePhase);
  }
  result.stats.three_phase_seconds = three_phase_timer.seconds();

  // Surface which uncovered faults were cap-truncated ("gave up") vs
  // genuinely search-exhausted — the distinction bench coverage floors need
  // to tell a redundant design from a budget blowout.  Cancelled runs may
  // leave faults unsearched; those stay gave_up = false (they were never
  // attempted, a later run will search them).
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (result.outcomes[i].covered_by != CoveredBy::None) continue;
    if (result.outcomes[i].proven_redundant) continue;
    const auto it = generated_cache_.find(faults[i]);
    if (it != generated_cache_.end() && it->second.gave_up) {
      result.outcomes[i].gave_up = true;
      ++result.stats.gave_up;
    }
  }

  for (const auto& sim : sims) {
    result.stats.sim_steps += sim->steps();
    result.stats.settles += sim->settles();
    result.stats.settles_memoized += sim->settles_memoized();
  }
  result.stats.lists_built = graph_.lists_built() - lists_before;
  result.stats.list_ids = graph_.list_ids() - list_ids_before;
  result.stats.covered = result.stats.by_random + result.stats.by_three_phase +
                         result.stats.by_fault_sim;
  result.stats.undetected = result.stats.total_faults - result.stats.covered;
  result.stats.seconds = total_timer.seconds();
  if (observer != nullptr) {
    observer->on_phase(RunPhase::Done);
    emit_progress(RunPhase::Done);
  }
  return result;
}

void write_test_program(std::ostream& out, const Netlist& netlist,
                        const AtpgEngine& engine,
                        const std::vector<TestSequence>& sequences) {
  out << "# xatpg synchronous test program for '" << netlist.name() << "'\n";
  out << ".inputs";
  for (const SignalId in : netlist.inputs())
    out << " " << netlist.signal_name(in);
  out << "\n.outputs";
  for (const SignalId po : netlist.outputs())
    out << " " << netlist.signal_name(po);
  out << "\n";
  for (std::size_t s = 0; s < sequences.size(); ++s) {
    const auto path = engine.follow(sequences[s]);
    XATPG_CHECK_MSG(path.has_value(), "sequence is not CSSG-valid");
    out << ".sequence " << s << "  # apply from reset\n";
    for (std::size_t t = 0; t < sequences[s].vectors.size(); ++t) {
      for (const bool b : sequences[s].vectors[t]) out << (b ? '1' : '0');
      out << " / ";
      const auto& state = engine.graph().states[(*path)[t + 1]];
      for (const SignalId po : netlist.outputs()) out << (state[po] ? '1' : '0');
      out << "\n";
    }
  }
  out << ".end\n";
}

}  // namespace xatpg
