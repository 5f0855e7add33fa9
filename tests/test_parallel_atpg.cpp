// Determinism suite for the fault-parallel ATPG engine: the fan-out over
// workers must be invisible in the results.  For every fixture
// circuit, `AtpgEngine::run` with threads ∈ {1, 2, 4, 8} must produce
// byte-identical FaultOutcome tables, test sequences, and phase counters —
// scheduling (which worker claims which block) may only change wall-clock
// numbers.
//
// This suite is also the ThreadSanitizer workload in CI: the threads=2/4/8
// runs exercise the thread pool, the fan-out's shared block cursor (workers
// racing on every claim) and every shared read-only path (netlist, explicit
// CSSG).
//
// It also holds the one-manager contract: the engine's BDD work runs on the
// calling thread only, so worker slots hold no BDD nodes and the engine's
// manager does the same work at any thread count.
//
// The random phase replays pre-drawn walks fault by fault in the fan-out;
// RandomPhase.* holds it to the walk-major loop it replaced
// (tests/oracle.hpp).
#include "atpg/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "atpg/fault.hpp"
#include "benchmarks/benchmarks.hpp"
#include "fixtures.hpp"
#include "oracle.hpp"
#include "perf/perf.hpp"
#include "util/thread_pool.hpp"

namespace xatpg {
namespace {

AtpgOptions determinism_options(std::size_t threads) {
  AtpgOptions options;
  options.random_budget = 24;
  options.random_walk_len = 6;
  options.seed = 5;
  options.threads = threads;
  return options;
}

void expect_identical(const AtpgResult& base, const AtpgResult& other,
                      std::size_t threads, const std::string& name) {
  SCOPED_TRACE(name + " threads=" + std::to_string(threads));
  EXPECT_EQ(base.outcomes, other.outcomes);
  EXPECT_EQ(base.sequences, other.sequences);
  EXPECT_EQ(base.stats.by_random, other.stats.by_random);
  EXPECT_EQ(base.stats.by_three_phase, other.stats.by_three_phase);
  EXPECT_EQ(base.stats.by_fault_sim, other.stats.by_fault_sim);
  EXPECT_EQ(base.stats.covered, other.stats.covered);
  EXPECT_EQ(base.stats.undetected, other.stats.undetected);
  EXPECT_EQ(base.stats.proven_redundant, other.stats.proven_redundant);
  EXPECT_EQ(base.stats.gave_up, other.stats.gave_up);
}

void check_determinism(const Netlist& netlist, const std::vector<bool>& reset,
                       const std::string& name, bool classify = false,
                       bool reorder = false) {
  std::optional<AtpgResult> base_in, base_out;
  std::vector<std::vector<bool>> base_states;  // the explicit graph's ids
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    AtpgOptions options = determinism_options(threads);
    options.classify_undetectable = classify;
    if (reorder) {
      // Aggressive trigger so sifting actually fires while the engine's
      // manager builds the CSSG, and the order it leaves must stay
      // invisible in the merged results.
      options.reorder.enabled = true;
      options.reorder.trigger_nodes = 64;
    }
    AtpgEngine engine(netlist, reset, options);
    const AtpgResult in = engine.run(input_stuck_faults(netlist));
    const AtpgResult out = engine.run(output_stuck_faults(netlist));
    if (!base_in) {
      base_in = in;
      base_out = out;
      base_states = engine.graph().states;
      continue;
    }
    expect_identical(*base_in, in, threads, name + "/input");
    expect_identical(*base_out, out, threads, name + "/output");
    // Lists are built on the calling thread only, so the states take the
    // same ids at every thread count.
    EXPECT_EQ(engine.graph().states, base_states)
        << name << " threads=" << threads;
  }
}

TEST(ParallelDeterminism, Fig1a) {
  const fixtures::Circuit c = fixtures::fig1a();
  check_determinism(c.netlist, c.reset, "fig1a");
}

TEST(ParallelDeterminism, Fig1b) {
  const fixtures::Circuit c = fixtures::fig1b();
  check_determinism(c.netlist, c.reset, "fig1b");
}

TEST(ParallelDeterminism, AsyncLatch) {
  const fixtures::Circuit c = fixtures::async_latch();
  check_determinism(c.netlist, c.reset, "latch");
}

TEST(ParallelDeterminism, Pipeline2) {
  const fixtures::Circuit c = fixtures::pipeline2();
  check_determinism(c.netlist, c.reset, "pipeline2");
}

TEST(ParallelDeterminism, RpdftWithClassifier) {
  const auto synth = benchmark_circuit("rpdft", SynthStyle::SpeedIndependent);
  check_determinism(synth.netlist, synth.reset_state, "rpdft",
                    /*classify=*/true);
}

// Dynamic BDD reordering changes the engine manager's variable order — the
// determinism guarantee must hold anyway.
TEST(ParallelDeterminism, Pipeline2WithReordering) {
  const fixtures::Circuit c = fixtures::pipeline2();
  check_determinism(c.netlist, c.reset, "pipeline2+reorder",
                    /*classify=*/false, /*reorder=*/true);
}

TEST(ParallelDeterminism, RpdftWithClassifierAndReordering) {
  const auto synth = benchmark_circuit("rpdft", SynthStyle::SpeedIndependent);
  check_determinism(synth.netlist, synth.reset_state, "rpdft+reorder",
                    /*classify=*/true, /*reorder=*/true);
}

// Thread count 0 (= hardware concurrency) must also match threads=1.
TEST(ParallelDeterminism, HardwareThreadsMatchSerial) {
  const fixtures::Circuit c = fixtures::pipeline2();
  AtpgOptions serial = determinism_options(1);
  AtpgOptions hw = determinism_options(0);
  AtpgEngine e1(c.netlist, c.reset, serial);
  AtpgEngine e2(c.netlist, c.reset, hw);
  const auto faults = input_stuck_faults(c.netlist);
  expect_identical(e1.run(faults), e2.run(faults), 0, "pipeline2/hw");
}

// The parallel engine must keep the serial engine's quality guarantees:
// every committed sequence still detects its fault under the exact
// simulator, whichever phase got the credit.
TEST(ParallelEngine, SequencesDetectTheirFaultsAtFourThreads) {
  const auto synth = benchmark_circuit("rpdft", SynthStyle::SpeedIndependent);
  AtpgOptions options = determinism_options(4);
  AtpgEngine engine(synth.netlist, synth.reset_state, options);
  const AtpgResult result = engine.run(input_stuck_faults(synth.netlist));
  EXPECT_GE(result.stats.coverage(), 0.9);
  for (const FaultOutcome& outcome : result.outcomes) {
    if (outcome.covered_by == CoveredBy::None) continue;
    ASSERT_GE(outcome.sequence_index, 0);
    const TestSequence& seq = result.sequences[outcome.sequence_index];
    const auto path = engine.follow(seq);
    ASSERT_TRUE(path.has_value());
    FaultSimulator sim(synth.netlist, outcome.fault, synth.reset_state);
    DetectStatus status = sim.status();
    for (std::size_t t = 0;
         t < seq.vectors.size() && status == DetectStatus::Undetermined; ++t)
      status = sim.step(seq.vectors[t],
                        engine.graph().states[(*path)[t + 1]]);
    EXPECT_EQ(status, DetectStatus::Detected)
        << outcome.fault.describe(synth.netlist);
  }
}

TEST(ParallelEngine, ShardAccountingCoversEverySearchedFault) {
  // Engine-level stress of the fan-out's shared cursor: with the random
  // phase off, every fault goes through a 3-phase search on SOME worker.
  // The per-worker faults_done counters must sum to exactly the batch size
  // — every item is claimed by exactly one block, every block by exactly
  // one worker — at every thread count.
  const auto synth = benchmark_circuit("mmu", SynthStyle::BoundedDelay);
  const auto faults = input_stuck_faults(synth.netlist);
  for (const std::size_t threads :
       {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    AtpgOptions options = determinism_options(threads);
    options.random_budget = 0;
    AtpgEngine engine(synth.netlist, synth.reset_state, options);
    const AtpgResult result = engine.run(faults);
    EXPECT_GT(result.stats.by_three_phase, 0u);

    const std::vector<ShardBddStats> shards = engine.shard_bdd_stats();
    ASSERT_EQ(shards.size(), threads);
    std::size_t searched = 0;
    for (const ShardBddStats& shard : shards) {
      searched += shard.faults_done;
      EXPECT_EQ(shard.blocks_stolen, 0u) << "shard " << shard.shard;
    }
    EXPECT_EQ(searched, faults.size()) << "threads " << threads;
  }
}

// --- cancellation ------------------------------------------------------------
// A CancelToken fired at a fixed 3-phase commit index must (a) stop the run
// between faults, (b) leave a deterministic partial result that is a prefix
// of the full run — same leading sequences, every committed outcome final —
// and (c) stay byte-identical across thread counts, because the trigger
// event (the k-th commit in the deterministic merge) is scheduling-free.

/// Fires the token when the n-th ThreePhase commit is reported.
class CancelAtCommit : public RunObserver {
 public:
  CancelAtCommit(CancelToken token, std::size_t commits)
      : token_(std::move(token)), remaining_(commits) {}
  void on_fault_resolved(std::size_t /*index*/,
                         const FaultOutcome& outcome) override {
    if (outcome.covered_by == CoveredBy::ThreePhase && remaining_ > 0 &&
        --remaining_ == 0)
      token_.request_cancel();
  }

 private:
  CancelToken token_;
  std::size_t remaining_;
};

void expect_prefix_of(const AtpgResult& partial, const AtpgResult& full,
                      const std::string& name) {
  SCOPED_TRACE(name);
  EXPECT_TRUE(partial.cancelled);
  EXPECT_FALSE(full.cancelled);
  ASSERT_LT(partial.sequences.size(), full.sequences.size());
  for (std::size_t s = 0; s < partial.sequences.size(); ++s)
    EXPECT_EQ(partial.sequences[s], full.sequences[s]) << "sequence " << s;
  ASSERT_EQ(partial.outcomes.size(), full.outcomes.size());
  for (std::size_t j = 0; j < partial.outcomes.size(); ++j) {
    if (partial.outcomes[j].covered_by != CoveredBy::None) {
      // Committed before the cancel: final, and identical to the full run.
      EXPECT_EQ(partial.outcomes[j], full.outcomes[j]) << "fault " << j;
    } else {
      // Unresolved at cancel time: the full run can only have covered it
      // with a sequence the partial run never committed.
      EXPECT_TRUE(full.outcomes[j].covered_by == CoveredBy::None ||
                  full.outcomes[j].sequence_index >=
                      static_cast<int>(partial.sequences.size()))
          << "fault " << j;
    }
  }
}

TEST(Cancellation, MidMergePartialResultIsAPrefixAcrossThreads) {
  const auto synth = benchmark_circuit("mmu", SynthStyle::BoundedDelay);
  const auto faults = input_stuck_faults(synth.netlist);
  std::optional<AtpgResult> base_partial;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    AtpgOptions options = determinism_options(threads);
    AtpgEngine full_engine(synth.netlist, synth.reset_state, options);
    const AtpgResult full = full_engine.run(faults);
    ASSERT_GE(full.stats.by_three_phase, 3u);  // enough commits to cut short

    AtpgEngine engine(synth.netlist, synth.reset_state, options);
    CancelToken token;
    CancelAtCommit observer(token, 2);
    const AtpgResult partial = engine.run(faults, &observer, &token);
    EXPECT_EQ(partial.stats.by_three_phase, 2u);
    expect_prefix_of(partial, full, "mmu/bd threads=" + std::to_string(threads));

    if (!base_partial) {
      base_partial = partial;
    } else {
      expect_identical(*base_partial, partial, threads, "mmu/bd partial");
      EXPECT_EQ(base_partial->cancelled, partial.cancelled);
    }
  }
}

TEST(Cancellation, TokenAlreadyFiredYieldsEmptyRun) {
  const fixtures::Circuit c = fixtures::celem();
  AtpgEngine engine(c.netlist, c.reset, determinism_options(2));
  CancelToken token;
  token.request_cancel();
  const AtpgResult result = engine.run(input_stuck_faults(c.netlist), nullptr,
                                       &token);
  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(result.stats.covered, 0u);
  EXPECT_TRUE(result.sequences.empty());
}

// --- incremental runs ---------------------------------------------------------
// add_faults() must behave as if the union universe had been run from
// scratch: cached searches are never redone, and the merged result and its
// on_fault_resolved stream are byte-identical — at every thread count.

/// Records every on_fault_resolved event, in order.
class ResolvedLog : public RunObserver {
 public:
  void on_fault_resolved(std::size_t index,
                         const FaultOutcome& outcome) override {
    events.emplace_back(index, outcome);
  }
  std::vector<std::pair<std::size_t, FaultOutcome>> events;
};

void check_incremental(const Netlist& netlist, const std::vector<bool>& reset,
                       const std::vector<Fault>& faults,
                       const std::string& name,
                       std::size_t random_budget = 24) {
  const std::size_t half = faults.size() / 2;
  const std::vector<Fault> first(faults.begin(), faults.begin() + half);
  const std::vector<Fault> rest(faults.begin() + half, faults.end());
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    AtpgOptions options = determinism_options(threads);
    options.random_budget = random_budget;
    AtpgEngine fresh(netlist, reset, options);
    ResolvedLog full_log;
    const AtpgResult full = fresh.run(faults, &full_log);

    AtpgEngine grown(netlist, reset, options);
    grown.run(first);
    ResolvedLog incremental_log;
    const AtpgResult incremental = grown.add_faults(rest, &incremental_log);
    ASSERT_EQ(grown.universe().size(), faults.size());
    expect_identical(full, incremental, threads, name + "/incremental");
    EXPECT_EQ(full.sequences.size(), incremental.sequences.size());
    EXPECT_EQ(full_log.events, incremental_log.events)
        << name << " threads=" << threads;
  }
}

TEST(Incremental, MatchesFromScratchOnMmuBoundedDelay) {
  const auto synth = benchmark_circuit("mmu", SynthStyle::BoundedDelay);
  check_incremental(synth.netlist, synth.reset_state,
                    input_stuck_faults(synth.netlist), "mmu/bd");
}

TEST(Incremental, MatchesFromScratchWithoutRandomPhase) {
  // random_budget = 0 forces everything through the 3-phase merge, so the
  // incremental run commits from memoized searches (and vbe5b has two
  // search-exhausted faults that must stay undetected).
  const auto synth = benchmark_circuit("vbe5b", SynthStyle::SpeedIndependent);
  check_incremental(synth.netlist, synth.reset_state,
                    input_stuck_faults(synth.netlist), "vbe5b/si",
                    /*random_budget=*/0);
}

TEST(Incremental, OutputFaultsJoinInputUniverse) {
  // Growing with a *different* fault model mid-session must work too.
  const fixtures::Circuit c = fixtures::pipeline2();
  std::vector<Fault> all = input_stuck_faults(c.netlist);
  const std::vector<Fault> extra = output_stuck_faults(c.netlist);
  const std::size_t in_count = all.size();
  all.insert(all.end(), extra.begin(), extra.end());
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    AtpgOptions options = determinism_options(threads);
    AtpgEngine fresh(c.netlist, c.reset, options);
    const AtpgResult full = fresh.run(all);
    AtpgEngine grown(c.netlist, c.reset, options);
    grown.run(std::vector<Fault>(all.begin(), all.begin() + in_count));
    expect_identical(full, grown.add_faults(extra), threads, "pipe2/mixed");
  }
}

/// Fires the token as the 3-phase step begins, or at its first progress
/// snapshot.  With two or more workers that snapshot comes between the
/// main thread's work blocks, in the middle of the search batch.
class CancelInThreePhase : public RunObserver {
 public:
  CancelInThreePhase(CancelToken token, bool at_progress)
      : token_(std::move(token)), at_progress_(at_progress) {}
  void on_phase(RunPhase phase) override {
    if (!at_progress_ && phase == RunPhase::ThreePhase) token_.request_cancel();
  }
  void on_progress(const RunProgress& progress) override {
    if (at_progress_ && progress.phase == RunPhase::ThreePhase)
      token_.request_cancel();
  }

 private:
  CancelToken token_;
  bool at_progress_;
};

/// 3-phase searches the engine's most recent run paid for.
std::size_t searches_of(const AtpgEngine& engine) {
  std::size_t searches = 0;
  for (const ShardBddStats& shard : engine.shard_bdd_stats())
    searches += shard.faults_done;
  return searches;
}

TEST(Incremental, ResumeAfterCancelReproducesFullRun) {
  // The acceptance contract: cancel mid-run, then add_faults() on the
  // remainder (here: an empty delta — the universe is already complete)
  // finishes the job byte-identically to an uncancelled run, reusing every
  // search the cancelled run already paid for.  The token fires at the
  // second 3-phase commit (every search done, the merge cut short), as the
  // 3-phase step begins (no search done, the merge skipped), or at the
  // step's first progress snapshot.
  const auto synth = benchmark_circuit("mmu", SynthStyle::BoundedDelay);
  const auto faults = input_stuck_faults(synth.netlist);
  const char* const points[] = {"commit 2", "three-phase start",
                                "three-phase progress"};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    AtpgOptions options = determinism_options(threads);
    AtpgEngine fresh(synth.netlist, synth.reset_state, options);
    const AtpgResult full = fresh.run(faults);
    const std::size_t full_searches = searches_of(fresh);

    for (std::size_t point = 0; point < 3; ++point) {
      SCOPED_TRACE(std::string("cancel at ") + points[point]);
      AtpgEngine engine(synth.netlist, synth.reset_state, options);
      CancelToken token;
      CancelAtCommit at_commit(token, 2);
      CancelInThreePhase at_start(token, /*at_progress=*/false);
      CancelInThreePhase at_progress(token, /*at_progress=*/true);
      RunObserver* const observers[] = {&at_commit, &at_start, &at_progress};
      const AtpgResult partial = engine.run(faults, observers[point], &token);
      ASSERT_TRUE(partial.cancelled);
      const std::size_t paid = searches_of(engine);
      if (point == 0) {
        EXPECT_EQ(paid, full_searches);
      } else if (point == 1) {
        EXPECT_EQ(paid, 0u);
        EXPECT_EQ(partial.stats.by_three_phase, 0u);
      }
      const AtpgResult resumed = engine.add_faults({});
      EXPECT_FALSE(resumed.cancelled);
      expect_identical(full, resumed, threads, "mmu/bd resume");
      EXPECT_EQ(paid + searches_of(engine), full_searches);
    }
  }
}

/// Fires the token as the random phase begins, or at its first progress
/// snapshot.  With a random fan-out that snapshot comes after the calling
/// thread's first block of replays, before any walk is committed.
class CancelInRandomPhase : public RunObserver {
 public:
  CancelInRandomPhase(CancelToken token, bool at_progress)
      : token_(std::move(token)), at_progress_(at_progress) {}
  void on_phase(RunPhase phase) override {
    if (!at_progress_ && phase == RunPhase::RandomTpg) token_.request_cancel();
  }
  void on_progress(const RunProgress& progress) override {
    if (at_progress_ && progress.phase == RunPhase::RandomTpg)
      token_.request_cancel();
  }

 private:
  CancelToken token_;
  bool at_progress_;
};

TEST(Cancellation, InRandomPhaseLeavesAPrefixThenResumes) {
  const auto synth = benchmark_circuit("mmu", SynthStyle::BoundedDelay);
  const auto faults = input_stuck_faults(synth.netlist);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    AtpgOptions options = determinism_options(threads);
    AtpgEngine fresh(synth.netlist, synth.reset_state, options);
    const AtpgResult full = fresh.run(faults);
    ASSERT_GT(full.stats.by_random, 0u);
    for (const bool at_progress : {false, true}) {
      const std::string name =
          std::string("mmu/bd cancel at random ") +
          (at_progress ? "progress" : "start") +
          " threads=" + std::to_string(threads);
      AtpgEngine engine(synth.netlist, synth.reset_state, options);
      CancelToken token;
      CancelInRandomPhase observer(token, at_progress);
      const AtpgResult partial = engine.run(faults, &observer, &token);
      expect_prefix_of(partial, full, name);
      const AtpgResult resumed = engine.add_faults({});
      EXPECT_FALSE(resumed.cancelled);
      expect_identical(full, resumed, threads, name + " resume");
    }
  }
}

// --- the random phase against its walk-major oracle -------------------------
// Walks are drawn before any fault is simulated and each fault replays them
// on its own simulator, so the committed walks, the Random outcomes and
// their resolution order must equal the loop that stepped every fault along
// each walk as it was drawn.

void check_random_phase(const Netlist& netlist, const std::vector<bool>& reset,
                        const std::string& name) {
  const std::vector<std::vector<Fault>> universes = {
      input_stuck_faults(netlist), output_stuck_faults(netlist)};
  for (const bool defaults : {false, true}) {
    std::vector<testing::OracleRandomTpg> oracles;
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      AtpgOptions options = determinism_options(threads);
      if (defaults) {
        options = AtpgOptions{};
        options.threads = threads;
      }
      AtpgEngine engine(netlist, reset, options);
      for (std::size_t u = 0; u < universes.size(); ++u) {
        SCOPED_TRACE(name + (defaults ? " defaults" : " determinism") +
                     " universe " + std::to_string(u) +
                     " threads=" + std::to_string(threads));
        const std::vector<Fault>& faults = universes[u];
        if (oracles.size() <= u)
          oracles.push_back(testing::oracle_random_tpg(
              netlist, reset, engine.cssg().extract_explicit(), faults,
              options));
        const testing::OracleRandomTpg& oracle = oracles[u];
        ResolvedLog log;
        const AtpgResult result = engine.run(faults, &log);

        EXPECT_EQ(result.stats.by_random, oracle.by_random);
        ASSERT_GE(result.sequences.size(), oracle.sequences.size());
        for (std::size_t s = 0; s < oracle.sequences.size(); ++s)
          EXPECT_EQ(result.sequences[s], oracle.sequences[s]) << "walk " << s;
        for (std::size_t j = 0; j < faults.size(); ++j) {
          const FaultOutcome& outcome = result.outcomes[j];
          EXPECT_EQ(outcome.covered_by == CoveredBy::Random,
                    oracle.sequence_index[j] >= 0)
              << "fault " << j;
          if (outcome.covered_by == CoveredBy::Random) {
            EXPECT_EQ(outcome.sequence_index, oracle.sequence_index[j])
                << "fault " << j;
          }
        }
        std::vector<std::size_t> random_events;
        for (const auto& [index, outcome] : log.events)
          if (outcome.covered_by == CoveredBy::Random)
            random_events.push_back(index);
        EXPECT_EQ(random_events, oracle.resolved);
      }
    }
  }
}

TEST(RandomPhase, MatchesWalkMajorOracle) {
  for (const auto& [name, circuit] :
       {std::pair{"fig1a", fixtures::fig1a()},
        std::pair{"fig1b", fixtures::fig1b()},
        std::pair{"chain", fixtures::chain()},
        std::pair{"celem", fixtures::celem()},
        std::pair{"latch", fixtures::async_latch()},
        std::pair{"pipeline2", fixtures::pipeline2()},
        std::pair{"parity8", fixtures::parity_tree(8)}})
    check_random_phase(circuit.netlist, circuit.reset, name);
  const auto rpdft = benchmark_circuit("rpdft", SynthStyle::SpeedIndependent);
  check_random_phase(rpdft.netlist, rpdft.reset_state, "rpdft/si");
  const auto mmu = benchmark_circuit("mmu", SynthStyle::BoundedDelay);
  check_random_phase(mmu.netlist, mmu.reset_state, "mmu/bd");
  std::size_t members = 0;
  for (const perf::CorpusEntry& entry : perf::default_corpus()) {
    if (entry.kind != perf::CorpusEntry::Kind::RandomNetlist) continue;
    ++members;
    RandomNetlistOptions shape;
    shape.num_inputs = entry.rand_inputs;
    shape.num_gates = entry.rand_gates;
    const fixtures::Circuit c = fixtures::random_netlist(entry.seed, shape);
    check_random_phase(c.netlist, c.reset, entry.id);
  }
  EXPECT_EQ(members, 5u);
}

// --- deterministic per-fault budgets -----------------------------------------

TEST(ParallelDeterminism, TightDeterministicCapsGiveUpIdenticallyAcrossThreads) {
  // Starve the differentiation BFS so searches truncate: the truncations are
  // cut by diff_node_cap (a pure function of the input), so the resulting
  // gave_up population must be nonzero AND byte-identical at every thread
  // count — a cap blowout may never depend on scheduling.
  const auto synth = benchmark_circuit("mmu", SynthStyle::BoundedDelay);
  const auto faults = input_stuck_faults(synth.netlist);
  std::optional<AtpgResult> base;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    AtpgOptions options = determinism_options(threads);
    options.random_budget = 0;  // force every fault through the 3-phase search
    options.diff_node_cap = 10;
    AtpgEngine engine(synth.netlist, synth.reset_state, options);
    const AtpgResult result = engine.run(faults);
    EXPECT_GT(result.stats.gave_up, 0u);
    for (std::size_t j = 0; j < result.outcomes.size(); ++j)
      if (result.outcomes[j].gave_up) {
        EXPECT_EQ(result.outcomes[j].covered_by, CoveredBy::None);
        EXPECT_FALSE(result.outcomes[j].proven_redundant);
      }
    if (!base)
      base = result;
    else
      expect_identical(*base, result, threads, "mmu/bd tight-caps");
  }
}

// --- exact simulation work ----------------------------------------------------
// A fault's simulator does the same steps and settles wherever the replay,
// the search and the merge run it, and the explicit lists are built on the
// calling thread only, so the run's work counts are as deterministic as
// its outcomes.

TEST(SimWork, CountsAreEqualAcrossThreads) {
  std::size_t circuits = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    fixtures::Circuit fix;
    try {
      fix = fixtures::random_netlist(seed);
    } catch (const CheckError&) {
      continue;  // the generator refuses seeds that do not settle
    }
    ++circuits;
    std::optional<AtpgStats> base;
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      AtpgOptions options;
      options.threads = threads;
      AtpgEngine engine(fix.netlist, fix.reset, options);
      const std::vector<Fault> faults = input_stuck_faults(fix.netlist);
      const AtpgResult first = engine.run(faults);
      const AtpgStats& work = first.stats;
      SCOPED_TRACE(fix.netlist.name() + " threads=" + std::to_string(threads));
      // Every fault's simulator settles its reset once.
      EXPECT_GE(work.settles, faults.size());
      EXPECT_GT(work.sim_steps, 0u);
      EXPECT_GT(work.settles_memoized, 0u);
      if (!base) {
        base = work;
      } else {
        EXPECT_EQ(work.sim_steps, base->sim_steps);
        EXPECT_EQ(work.settles, base->settles);
        EXPECT_EQ(work.settles_memoized, base->settles_memoized);
        EXPECT_EQ(work.lists_built, base->lists_built);
        EXPECT_EQ(work.list_ids, base->list_ids);
      }
      // Resuming reuses every search: the same outcomes for less work, and
      // the first run built every list a search reads.
      const AtpgResult again = engine.add_faults({});
      EXPECT_EQ(again.outcomes, first.outcomes);
      EXPECT_EQ(again.stats.lists_built, 0u);
      EXPECT_EQ(again.stats.list_ids, 0u);
      if (work.by_three_phase + work.undetected > 0) {
        EXPECT_LT(again.stats.sim_steps, work.sim_steps);
      }
    }
  }
  EXPECT_GE(circuits, 3u);
}

// --- one BDD manager ---------------------------------------------------------
// The engine's one manager runs every symbolic phase on the calling thread,
// in fault-list order, before the explicit search fans out.  So a worker
// slot never allocates a node or probes a cache, and the manager's counters
// are the same at any thread count.

TEST(OneManager, WorkersHoldNoBddNodes) {
  // The seeded random netlists leave dozens of faults to the 3-phase
  // search, so the fan-out gets real work.
  AtpgOptions serial;
  AtpgOptions four = serial;
  four.threads = 4;
  std::size_t members = 0;
  for (const perf::CorpusEntry& entry : perf::default_corpus()) {
    if (entry.kind != perf::CorpusEntry::Kind::RandomNetlist) continue;
    SCOPED_TRACE(entry.id);
    ++members;
    const perf::SessionRun one = perf::run_session(entry, serial);
    const perf::SessionRun par = perf::run_session(entry, four);
    for (const auto& [a, b] : {std::pair{&one.output_stuck, &par.output_stuck},
                               std::pair{&one.input_stuck, &par.input_stuck}}) {
      EXPECT_EQ(a->stats.covered, b->stats.covered);
      EXPECT_EQ(a->stats.gave_up, b->stats.gave_up);
      EXPECT_EQ(a->sequences, b->sequences);
    }
    const std::vector<ShardBddStats> shards = par.session.shard_bdd_stats();
    ASSERT_EQ(shards.size(), 4u);
    std::size_t searched = 0;
    for (const ShardBddStats& shard : shards) {
      searched += shard.faults_done;
      if (shard.shard == 0) continue;
      EXPECT_EQ(shard.peak_nodes, 0u) << "worker " << shard.shard;
      EXPECT_EQ(shard.cache_lookups, 0u) << "worker " << shard.shard;
    }
    EXPECT_GT(searched, 0u);
    EXPECT_EQ(one.bdd.peak_nodes, par.bdd.peak_nodes);
    EXPECT_EQ(one.bdd.live_nodes, par.bdd.live_nodes);
    EXPECT_EQ(one.bdd.cache_lookups, par.bdd.cache_lookups);
  }
  EXPECT_EQ(members, 5u);
}

// --- the concurrency primitives themselves -----------------------------------

TEST(FanOutSizing, BlockSizeHeuristic) {
  EXPECT_EQ(work_block_size(0, 1), 1u);
  EXPECT_EQ(work_block_size(100, 1), 25u);    // one worker: ~4 blocks too
  EXPECT_EQ(work_block_size(100, 4), 6u);     // ~4 blocks per worker
  EXPECT_EQ(work_block_size(3, 8), 1u);       // never zero
  EXPECT_EQ(work_block_size(5, 4), 1u);       // items barely >= workers
}

TEST(FanOutSizing, EveryWorkerGetsABlockWhenItemsReachWorkerCount) {
  // The rounding guarantee: items >= workers must split into at least
  // `workers` blocks, so no worker starts empty-handed.
  for (const std::size_t workers : {std::size_t{2}, std::size_t{4},
                                    std::size_t{8}, std::size_t{16}}) {
    for (const std::size_t items :
         {workers, workers + 1, 2 * workers - 1, std::size_t{100},
          std::size_t{1000}}) {
      if (items < workers) continue;
      const std::size_t size = work_block_size(items, workers);
      ASSERT_GE(size, 1u);
      const std::size_t blocks = (items + size - 1) / size;
      EXPECT_GE(blocks, workers)
          << "items=" << items << " workers=" << workers << " size=" << size;
    }
  }
}

TEST(EnginePool, HelpersNeverExceedItemsOrThreads) {
  // The arithmetic: a fan-out of `items` over `threads` uses
  // min(threads, items) worker slots, the calling thread among them, so
  // even the largest thread count spawns one helper per extra item.
  EXPECT_EQ(fan_out_workers(AtpgOptions::kMaxThreads, 3), 3u);
  EXPECT_EQ(fan_out_workers(AtpgOptions::kMaxThreads, 1), 1u);
  EXPECT_EQ(fan_out_workers(4, 0), 1u);
  EXPECT_EQ(fan_out_workers(1, 1000), 1u);
  EXPECT_EQ(fan_out_workers(8, 100), 8u);

  const auto synth = benchmark_circuit("mmu", SynthStyle::BoundedDelay);
  const auto faults = input_stuck_faults(synth.netlist);
  ASSERT_GE(faults.size(), 8u);
  // threads=1 runs on the calling thread and makes no pool.
  AtpgEngine serial(synth.netlist, synth.reset_state, determinism_options(1));
  serial.run(faults);
  EXPECT_EQ(serial.pool_threads(), 0u);
  // A two-fault universe needs one helper, however many threads are allowed.
  AtpgEngine two(synth.netlist, synth.reset_state, determinism_options(8));
  two.run({faults[0], faults[1]});
  EXPECT_EQ(two.pool_threads(), 1u);
  // The pool grows to the larger batch, then later runs reuse it.
  two.run(faults);
  EXPECT_EQ(two.pool_threads(), 7u);
  two.run({faults[0], faults[1]});
  EXPECT_EQ(two.pool_threads(), 7u);
}

TEST(ThreadPool, WaitIdleSeesAllSubmittedWork) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { done.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 100);
  // The pool stays usable after an idle barrier.
  for (int i = 0; i < 10; ++i) pool.submit([&] { done.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 110);
}

}  // namespace
}  // namespace xatpg
