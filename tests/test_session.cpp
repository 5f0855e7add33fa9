// Coverage for the public facade (xatpg::Session): typed-error taxonomy on
// every failure path, option validation at the boundary, the streaming
// observer contract, cooperative cancellation, incremental runs, and the
// export surface.  Everything here drives the library the way an
// out-of-tree consumer would — through include/xatpg only — with internal
// headers used solely to cross-check results.
#include "xatpg/xatpg.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <thread>

#include "atpg/engine.hpp"  // cross-checks + the loud legacy constructor
#include "fixtures.hpp"

namespace xatpg {
namespace {

AtpgOptions session_options(std::size_t threads = 1) {
  AtpgOptions options;
  options.random_budget = 24;
  options.random_walk_len = 6;
  options.seed = 5;
  options.threads = threads;
  return options;
}

// --- error taxonomy ----------------------------------------------------------

TEST(SessionErrors, MalformedXnlIsParseError) {
  const auto session = Session::from_xnl(".model broken\n.bogus x\n.end\n");
  ASSERT_FALSE(session.has_value());
  EXPECT_EQ(session.error().code, ErrorCode::ParseError);
  EXPECT_NE(session.error().message.find("unknown directive"),
            std::string::npos);
}

TEST(SessionErrors, UndrivenSignalIsParseError) {
  const auto session = Session::from_xnl(
      ".model broken\n.inputs A\n.outputs y\n.gate AND y A ghost\n.end\n");
  ASSERT_FALSE(session.has_value());
  EXPECT_EQ(session.error().code, ErrorCode::ParseError);
}

TEST(SessionErrors, UnsettlingCircuitIsResourceError) {
  // A self-inverting loop never settles from all-false: no reset state.
  const auto session = Session::from_xnl(
      ".model osc\n.inputs A\n.outputs q\n.gate NOT q q\n.end\n");
  ASSERT_FALSE(session.has_value());
  EXPECT_EQ(session.error().code, ErrorCode::ResourceError);
}

TEST(SessionErrors, UnknownBenchmarkIsOptionError) {
  const auto session = Session::from_benchmark("no-such-circuit");
  ASSERT_FALSE(session.has_value());
  EXPECT_EQ(session.error().code, ErrorCode::OptionError);
  EXPECT_NE(session.error().message.find("no-such-circuit"), std::string::npos);
}

TEST(SessionErrors, MissingFileIsResourceError) {
  const auto session = Session::from_xnl_file("/nonexistent/path.xnl");
  ASSERT_FALSE(session.has_value());
  EXPECT_EQ(session.error().code, ErrorCode::ResourceError);
}

TEST(SessionErrors, DegenerateOptionsAreOptionErrors) {
  AtpgOptions bad = session_options();
  bad.k = 0;
  bad.diff_depth = 0;
  const auto session = Session::from_benchmark("chu150",
                                               SynthStyle::SpeedIndependent,
                                               bad);
  ASSERT_FALSE(session.has_value());
  EXPECT_EQ(session.error().code, ErrorCode::OptionError);
  // validate() aggregates: both violations are named.
  EXPECT_NE(session.error().message.find("k = 0"), std::string::npos);
  EXPECT_NE(session.error().message.find("diff_depth = 0"),
            std::string::npos);
}

TEST(SessionErrors, InvalidFaultIsOptionError) {
  auto session = Session::from_benchmark("chu150",
                                         SynthStyle::SpeedIndependent,
                                         session_options());
  ASSERT_TRUE(session.has_value());
  Fault bogus;
  bogus.site = Fault::Site::SignalOutput;
  bogus.gate = 100000;  // far out of range
  const auto result = session->run({bogus});
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, ErrorCode::OptionError);
  EXPECT_EQ(session->describe(bogus), "<invalid fault>");
}

TEST(SessionErrors, ForeignSequenceExportIsOptionError) {
  auto session = Session::from_benchmark("chu150",
                                         SynthStyle::SpeedIndependent,
                                         session_options());
  ASSERT_TRUE(session.has_value());
  AtpgResult bogus;
  bogus.sequences.push_back(TestSequence{{{true}}});  // wrong input arity
  const auto program = session->test_program(bogus);
  ASSERT_FALSE(program.has_value());
  EXPECT_EQ(program.error().code, ErrorCode::OptionError);
}

// --- option validation (satellite: AtpgOptions::validate) --------------------

TEST(OptionValidation, DefaultsAreValid) {
  EXPECT_TRUE(AtpgOptions{}.validate().has_value());
}

TEST(OptionValidation, EachDegenerateKnobIsRejected) {
  const auto rejects = [](auto&& tweak) {
    AtpgOptions options;
    tweak(options);
    return !options.validate().has_value();
  };
  EXPECT_TRUE(rejects([](AtpgOptions& o) { o.k = 0; }));
  EXPECT_TRUE(rejects([](AtpgOptions& o) { o.diff_depth = 0; }));
  EXPECT_TRUE(rejects([](AtpgOptions& o) { o.diff_node_cap = 0; }));
  EXPECT_TRUE(rejects([](AtpgOptions& o) { o.random_walk_len = 0; }));
  EXPECT_TRUE(rejects([](AtpgOptions& o) { o.threads = 4097; }));
  EXPECT_TRUE(rejects([](AtpgOptions& o) { o.sim.k = 0; }));
  EXPECT_TRUE(rejects([](AtpgOptions& o) { o.sim.candidate_cap = 0; }));
  EXPECT_TRUE(rejects([](AtpgOptions& o) { o.k = (1u << 20) + 1; }));
  EXPECT_TRUE(rejects([](AtpgOptions& o) { o.sim.k = (1u << 20) + 1; }));
  EXPECT_TRUE(
      rejects([](AtpgOptions& o) { o.random_budget = (1u << 20) + 1; }));
  EXPECT_TRUE(
      rejects([](AtpgOptions& o) { o.diff_node_cap = (1u << 20) + 1; }));
  // Boundary values stay valid.
  EXPECT_FALSE(rejects([](AtpgOptions& o) { o.threads = 4096; }));
  EXPECT_FALSE(rejects([](AtpgOptions& o) { o.threads = 0; }));  // = hardware
  EXPECT_FALSE(rejects([](AtpgOptions& o) { o.k = 1; }));
  EXPECT_FALSE(rejects([](AtpgOptions& o) { o.k = o.sim.k = 1u << 20; }));
  EXPECT_FALSE(rejects([](AtpgOptions& o) { o.random_budget = 1u << 20; }));
  EXPECT_FALSE(rejects([](AtpgOptions& o) { o.diff_node_cap = 1u << 20; }));
}

TEST(OptionValidation, LegacyEngineConstructorRejectsLoudly) {
  const fixtures::Circuit c = fixtures::celem();
  AtpgOptions bad;
  bad.diff_depth = 0;
  EXPECT_THROW(AtpgEngine(c.netlist, c.reset, bad), CheckError);
  AtpgOptions huge;
  huge.threads = 100000;
  EXPECT_THROW(AtpgEngine(c.netlist, c.reset, huge), CheckError);
}

// --- lifecycle and results ----------------------------------------------------

TEST(SessionFlow, QuickstartOnBenchmark) {
  auto session = Session::from_benchmark("chu150",
                                         SynthStyle::SpeedIndependent,
                                         session_options(2));
  ASSERT_TRUE(session.has_value());
  EXPECT_EQ(session->circuit_name(), "chu150");
  EXPECT_GT(session->num_signals(), 0u);
  EXPECT_GT(session->num_pins(), 0u);
  EXPECT_GT(session->cssg_stats().stable_states, 0.0);
  EXPECT_FALSE(session->has_result());

  const auto faults = session->input_stuck_faults();
  EXPECT_EQ(faults.size(), 2 * session->num_pins());
  const auto result = session->run(faults);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(session->has_result());
  EXPECT_EQ(session->fault_universe().size(), faults.size());
  EXPECT_EQ(result->stats.total_faults, faults.size());
  EXPECT_GE(result->stats.coverage(), 0.9);
  EXPECT_EQ(session->last_result().stats.covered, result->stats.covered);

  const auto program = session->test_program(*result);
  ASSERT_TRUE(program.has_value());
  EXPECT_NE(program->find(".end"), std::string::npos);

  const ShardBddStats bdd = session->bdd_stats();
  EXPECT_GT(bdd.live_nodes, 0u);
  EXPECT_GE(bdd.peak_nodes, bdd.live_nodes);
}

TEST(SessionFlow, FromXnlMatchesInternalEngine) {
  // The facade and a hand-built internal engine must agree bit-for-bit on
  // the same circuit/options (facade construction adds nothing).
  const auto session = Session::from_xnl(fixtures::kCelemXnl,
                                         session_options());
  ASSERT_TRUE(session.has_value());
  const fixtures::Circuit c = fixtures::celem();
  AtpgEngine engine(c.netlist, c.reset, session_options());

  auto mutable_session = Session::from_xnl(fixtures::kCelemXnl,
                                           session_options());
  ASSERT_TRUE(mutable_session.has_value());
  const auto facade = mutable_session->run(mutable_session->input_stuck_faults());
  ASSERT_TRUE(facade.has_value());
  const AtpgResult internal = engine.run(input_stuck_faults(c.netlist));
  EXPECT_EQ(facade->outcomes, internal.outcomes);
  EXPECT_EQ(facade->sequences, internal.sequences);
}

TEST(SessionFlow, CircuitXnlRoundTrips) {
  auto session = Session::from_benchmark("ebergen");
  ASSERT_TRUE(session.has_value());
  const auto reparsed = Session::from_xnl(session->circuit_xnl());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->circuit_name(), session->circuit_name());
  EXPECT_EQ(reparsed->num_signals(), session->num_signals());
  EXPECT_EQ(reparsed->num_pins(), session->num_pins());
}

TEST(SessionFlow, CssgDotIsWellFormed) {
  // The session renders the engine's graph; a standalone Cssg built with the
  // session's options renders the same text.
  auto session = Session::from_benchmark("fig1a");
  ASSERT_TRUE(session.has_value());
  const fixtures::Circuit fix = fixtures::fig1a();
  ASSERT_EQ(session->reset_state(), fix.reset);
  CssgOptions options;
  options.k = session->options().k;
  options.order = session->options().order;
  options.reorder = session->options().reorder;
  const Cssg cssg(fix.netlist, fix.reset, options);
  const Expected<std::string> dot = session->cssg_dot();
  ASSERT_TRUE(dot.has_value());
  EXPECT_EQ(dot.value(), cssg.to_dot(cssg.extract_explicit()));
  EXPECT_NE(dot->find("digraph"), std::string::npos);
}

TEST(SessionFlow, FactoryLeavesTheExplicitGraphToItsFirstUse) {
  // Statistics never pay for the explicit graph: right after the factory
  // the engine's manager has done exactly a standalone Cssg's work, and
  // cssg_dot() adds exactly an extract_explicit() on top of it.
  const auto check = [](const Netlist& netlist, const auto& make) {
    auto stats_only = make();
    auto dot_first = make();
    ASSERT_TRUE(stats_only.has_value());
    ASSERT_TRUE(dot_first.has_value());
    CssgOptions options;
    options.k = stats_only->options().k;
    options.order = stats_only->options().order;
    options.reorder = stats_only->options().reorder;
    const Cssg cssg(netlist, stats_only->reset_state(), options);
    const BddManager& mgr = cssg.encoding().mgr();
    EXPECT_EQ(stats_only->bdd_stats().cache_lookups, mgr.cache_lookups());
    ASSERT_TRUE(dot_first->cssg_dot().has_value());
    (void)cssg.extract_explicit();
    EXPECT_EQ(dot_first->bdd_stats().cache_lookups, mgr.cache_lookups());
  };
  const SynthResult chu150 =
      benchmark_circuit("chu150", SynthStyle::SpeedIndependent);
  check(chu150.netlist, [] {
    return Session::from_benchmark("chu150", SynthStyle::SpeedIndependent,
                                   session_options());
  });
  check(parse_xnl_string(fixtures::kFig1bXnl), [] {
    return Session::from_xnl(fixtures::kFig1bXnl, session_options());
  });
}

TEST(SessionFlow, RunsLeaveNoBddNodeBehind) {
  // Every BDD root a run, an incremental run or an export makes dies with
  // it, so a long-lived Session (a serve worker's, say) holds after each
  // call exactly the nodes its factory left.
  using Factory = std::function<Expected<Session>(const AtpgOptions&)>;
  const std::vector<std::pair<std::string, Factory>> circuits{
      {"chu150/si",
       [](const AtpgOptions& o) {
         return Session::from_benchmark("chu150",
                                        SynthStyle::SpeedIndependent, o);
       }},
      {"chu150/bd",
       [](const AtpgOptions& o) {
         return Session::from_benchmark("chu150", SynthStyle::BoundedDelay,
                                        o);
       }},
      {"vbe10b/bd",
       [](const AtpgOptions& o) {
         return Session::from_benchmark("vbe10b", SynthStyle::BoundedDelay,
                                        o);
       }},
      {"parity-8.bench",
       [](const AtpgOptions& o) {
         return Session::from_bench(fixtures::parity_bench(8), o);
       }},
  };
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const auto& [name, make] : circuits) {
      SCOPED_TRACE(name + " threads=" + std::to_string(threads));
      AtpgOptions options;
      options.threads = threads;
      auto session = make(options);
      ASSERT_TRUE(session.has_value());
      const std::size_t live = session->bdd_stats().live_nodes;
      ASSERT_TRUE(session->run(session->output_stuck_faults()).has_value());
      EXPECT_EQ(session->bdd_stats().live_nodes, live) << "run(output)";
      const auto result = session->run(session->input_stuck_faults());
      ASSERT_TRUE(result.has_value());
      EXPECT_EQ(session->bdd_stats().live_nodes, live) << "run(input)";
      ASSERT_TRUE(session->add_faults({}).has_value());
      EXPECT_EQ(session->bdd_stats().live_nodes, live) << "add_faults({})";
      ASSERT_TRUE(session->test_program(*result).has_value());
      EXPECT_EQ(session->bdd_stats().live_nodes, live) << "test_program()";
    }
  }
}

// --- observer contract --------------------------------------------------------

class RecordingObserver : public RunObserver {
 public:
  void on_phase(RunPhase phase) override { phases.push_back(phase); }
  void on_fault_resolved(std::size_t index, const FaultOutcome& outcome) override {
    resolved.emplace_back(index, outcome);
    thread_ids.push_back(std::this_thread::get_id());
  }
  void on_progress(const RunProgress& progress) override {
    snapshots.push_back(progress);
    thread_ids.push_back(std::this_thread::get_id());
  }

  std::vector<RunPhase> phases;
  std::vector<std::pair<std::size_t, FaultOutcome>> resolved;
  std::vector<RunProgress> snapshots;
  std::vector<std::thread::id> thread_ids;
};

TEST(SessionObserver, EventsAreCompleteOrderedAndSingleThreaded) {
  auto session = Session::from_benchmark("mmu", SynthStyle::BoundedDelay,
                                         session_options(4));
  ASSERT_TRUE(session.has_value());
  RecordingObserver observer;
  const auto result = session->run(session->input_stuck_faults(), &observer);
  ASSERT_TRUE(result.has_value());

  // Phases in order, Done exactly once, at the end.
  ASSERT_FALSE(observer.phases.empty());
  EXPECT_EQ(observer.phases.front(), RunPhase::RandomTpg);
  EXPECT_EQ(observer.phases.back(), RunPhase::Done);
  EXPECT_TRUE(std::is_sorted(observer.phases.begin(), observer.phases.end()));

  // Exactly one resolution event per covered/redundant fault, with the
  // outcome the final result also reports.
  EXPECT_EQ(observer.resolved.size(),
            result->stats.covered + result->stats.proven_redundant);
  for (const auto& [index, outcome] : observer.resolved)
    EXPECT_EQ(result->outcomes[index], outcome) << "fault " << index;

  // Every callback arrived on the calling thread, even at threads=4.
  const std::thread::id self = std::this_thread::get_id();
  for (const std::thread::id id : observer.thread_ids) EXPECT_EQ(id, self);

  // Progress snapshots are monotone in resolved count and carry per-shard
  // BDD statistics; the final snapshot accounts for every sequence.
  std::size_t last = 0;
  for (const RunProgress& p : observer.snapshots) {
    EXPECT_GE(p.faults_resolved, last);
    last = p.faults_resolved;
    EXPECT_EQ(p.faults_total, result->stats.total_faults);
    ASSERT_FALSE(p.shards.empty());
    EXPECT_EQ(p.shards[0].shard, 0u);
  }
  ASSERT_FALSE(observer.snapshots.empty());
  EXPECT_EQ(observer.snapshots.back().sequences_committed,
            result->sequences.size());
  EXPECT_GT(observer.snapshots.back().shards[0].live_nodes, 0u);
}

TEST(SessionObserver, EventStreamIsThreadCountInvariant) {
  std::optional<std::vector<std::pair<std::size_t, FaultOutcome>>> base;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    auto session = Session::from_benchmark("mmu", SynthStyle::BoundedDelay,
                                           session_options(threads));
    ASSERT_TRUE(session.has_value());
    RecordingObserver observer;
    ASSERT_TRUE(session->run(session->input_stuck_faults(), &observer)
                    .has_value());
    if (!base) {
      base = observer.resolved;
    } else {
      EXPECT_EQ(*base, observer.resolved) << "threads=" << threads;
    }
  }
}

TEST(SessionObserver, OneWorkerBatchesReportProgressWhileTheyRun) {
  // A one-worker search batch splits into blocks like any other, and the
  // calling thread reports after each, so --progress and serve's per-job
  // time budget see the batch while it runs, not only once it ends.
  AtpgOptions options = session_options(1);
  options.random_budget = 0;  // every fault joins the search batch
  auto session = Session::from_benchmark("mmu", SynthStyle::BoundedDelay,
                                         options);
  ASSERT_TRUE(session.has_value());
  RecordingObserver observer;
  ASSERT_TRUE(
      session->run(session->input_stuck_faults(), &observer).has_value());
  // The batch's snapshots come before the phase's first commit.
  std::vector<std::size_t> done;
  for (const RunProgress& p : observer.snapshots)
    if (p.phase == RunPhase::ThreePhase && p.sequences_committed == 0)
      done.push_back(p.shards[0].faults_done);
  ASSERT_GE(done.size(), 2u);
  EXPECT_GE(done.back(), 8u);
  for (std::size_t s = 1; s < done.size(); ++s)
    EXPECT_LT(done[s - 1], done[s]) << "snapshot " << s;
}

// --- cancellation + incremental through the facade ----------------------------

class SessionCancelAtCommit : public RunObserver {
 public:
  SessionCancelAtCommit(CancelToken token, std::size_t commits)
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

TEST(SessionCancellation, PartialPrefixThenResumeMatchesFullRun) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto full_session = Session::from_benchmark(
        "mmu", SynthStyle::BoundedDelay, session_options(threads));
    ASSERT_TRUE(full_session.has_value());
    const auto full =
        full_session->run(full_session->input_stuck_faults());
    ASSERT_TRUE(full.has_value());
    ASSERT_GE(full->stats.by_three_phase, 3u);

    auto session = Session::from_benchmark("mmu", SynthStyle::BoundedDelay,
                                           session_options(threads));
    ASSERT_TRUE(session.has_value());
    CancelToken token;
    SessionCancelAtCommit observer(token, 2);
    const auto partial =
        session->run(session->input_stuck_faults(), &observer, &token);
    ASSERT_TRUE(partial.has_value());
    EXPECT_TRUE(partial->cancelled);
    EXPECT_EQ(partial->stats.by_three_phase, 2u);
    ASSERT_LT(partial->sequences.size(), full->sequences.size());
    for (std::size_t s = 0; s < partial->sequences.size(); ++s)
      EXPECT_EQ(partial->sequences[s], full->sequences[s]);

    // Resume: an empty delta re-runs the universe from the caches and must
    // land exactly on the uncancelled result.
    const auto resumed = session->add_faults({});
    ASSERT_TRUE(resumed.has_value());
    EXPECT_FALSE(resumed->cancelled);
    EXPECT_EQ(resumed->outcomes, full->outcomes);
    EXPECT_EQ(resumed->sequences, full->sequences);
  }
}

TEST(SessionIncremental, AddFaultsMatchesFromScratchUnion) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto fresh = Session::from_benchmark("mmu", SynthStyle::BoundedDelay,
                                         session_options(threads));
    ASSERT_TRUE(fresh.has_value());
    const auto faults = fresh->input_stuck_faults();
    const auto full = fresh->run(faults);
    ASSERT_TRUE(full.has_value());

    auto grown = Session::from_benchmark("mmu", SynthStyle::BoundedDelay,
                                         session_options(threads));
    ASSERT_TRUE(grown.has_value());
    const std::size_t half = faults.size() / 2;
    ASSERT_TRUE(grown
                    ->run(std::vector<Fault>(faults.begin(),
                                             faults.begin() + half))
                    .has_value());
    const auto incremental = grown->add_faults(
        std::vector<Fault>(faults.begin() + half, faults.end()));
    ASSERT_TRUE(incremental.has_value());
    EXPECT_EQ(grown->fault_universe().size(), faults.size());
    EXPECT_EQ(incremental->outcomes, full->outcomes);
    EXPECT_EQ(incremental->sequences, full->sequences);
    EXPECT_EQ(incremental->stats.by_fault_sim, full->stats.by_fault_sim);
  }
}

TEST(SessionCancellation, CrossThreadCancelStopsTheRun) {
  // Fire the token from another thread mid-run: the run must stop at some
  // between-faults checkpoint and still return a well-formed result.  (On
  // these small circuits it may also finish first — both are legal; the
  // assertion is only that nothing crashes and the result is consistent.)
  auto session = Session::from_benchmark("mmu", SynthStyle::BoundedDelay,
                                         session_options(2));
  ASSERT_TRUE(session.has_value());
  CancelToken token;
  std::thread firer([token]() mutable { token.request_cancel(); });
  const auto result =
      session->run(session->input_stuck_faults(), nullptr, &token);
  firer.join();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->stats.covered, result->stats.by_random +
                                       result->stats.by_three_phase +
                                       result->stats.by_fault_sim);
}

}  // namespace
}  // namespace xatpg
