// xatpg::Session — the stable public facade of the library.
//
// A Session owns one circuit, its test-mode reset state, and the symbolic
// ATPG engine (the CSSG abstraction on one BDD manager) built for it.  It
// is the supported way to drive the paper's flow from outside the library:
//
//   auto session = xatpg::Session::from_benchmark("chu150",
//                                                 xatpg::SynthStyle::SpeedIndependent);
//   if (!session) { /* session.error() is a typed xatpg::Error */ }
//   auto result = session->run(session->input_stuck_faults());
//   std::cout << result->stats.coverage();
//
// Lifecycle
// ---------
//  1. Construct through a factory (from_xnl / from_xnl_file /
//     from_benchmark).  All construction failures — malformed text, failed
//     synthesis, degenerate options, blown resource caps — come back as
//     typed errors; nothing aborts or exits.  The factory builds the
//     symbolic CSSG only; the explicit graph (every CSSG-reachable state
//     and its successors) is extracted by the first run(), cssg_dot() or
//     test_program(), so cssg_stats() and bdd_stats() never pay for it.  A
//     graph over the 200,000-state cap is therefore reported by that first
//     call, as a ResourceError, not by the factory.
//  2. run(faults) establishes the session's fault universe and runs the
//     full flow (random TPG -> 3-phase symbolic ATPG -> cross fault
//     simulation), optionally streaming progress to a RunObserver and
//     honouring a CancelToken (see xatpg/progress.hpp for the contract).
//  3. add_faults(more) grows the universe *incrementally*: it runs the full
//     flow on the union universe, reusing every 3-phase search an earlier
//     run on this Session completed, so only the faults no earlier run
//     searched pay for one.  The result and its observer events are
//     byte-identical to a from-scratch run on the union universe.
//     add_faults({}) after a cancelled run resumes it the same way, and the
//     final result is byte-identical to an uncancelled run.
//  4. Results, test-program export and statistics are read back at any
//     time; the expensive artifacts (CSSG, explicit graph, generated
//     tests) persist across runs on the same Session.
//
// Concurrency contract — ONE SESSION PER JOB
// ------------------------------------------
// A Session is single-threaded: at most one run()/add_faults() may be
// active on it at a time, and the accessors are only safe between runs on
// the thread that owns the Session.  Servers and worker pools must give
// every concurrent job its own Session (sessions for the same circuit are
// cheap relative to a run, and results are byte-identical across them) —
// sharing one Session across workers is NOT made safe by any external
// locking of run() alone, because accessors like bdd_stats() also touch
// engine state.  The only cross-thread operation supported is firing a run's
// CancelToken, which is safe from any thread at any time.
//
// Violations are loud, not UB: entering run()/add_faults() while another
// run is active on the same Session — from another thread, or reentrantly
// from inside an observer callback — throws xatpg::CheckError (a
// std::logic_error) instead of corrupting engine state.  Like BadExpectedAccess, this reports a
// programming error in the consumer, so it is deliberately an exception
// rather than a typed Error the caller might be tempted to retry.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "xatpg/error.hpp"
#include "xatpg/options.hpp"
#include "xatpg/progress.hpp"
#include "xatpg/types.hpp"

namespace xatpg {

class Session {
 public:
  // --- construction (typed-error factories) ---------------------------------

  /// Parse a circuit from .xnl text.  The reset state is the stable state
  /// reached by relaxing the all-false assignment; a circuit that cannot
  /// settle from there yields ResourceError.
  [[nodiscard]] static Expected<Session> from_xnl(const std::string& text,
                                    const AtpgOptions& options = {});

  /// Like from_xnl, reading the text from a file (missing/unreadable file
  /// yields ResourceError).
  [[nodiscard]] static Expected<Session> from_xnl_file(const std::string& path,
                                         const AtpgOptions& options = {});

  /// Parse a circuit from ISCAS-style .bench text (INPUT/OUTPUT/assignment
  /// lines).  DFF is rejected with ParseError — this library models
  /// asynchronous (clockless) logic; combinational .bench circuits settle
  /// and test like any other netlist.
  [[nodiscard]] static Expected<Session> from_bench(const std::string& text,
                                      const AtpgOptions& options = {});

  /// Like from_bench, reading the text from a file.
  [[nodiscard]] static Expected<Session> from_bench_file(const std::string& path,
                                           const AtpgOptions& options = {});

  /// Synthesize one of the named benchmark reconstructions (Table 1/2
  /// suites, fig1a/fig1b).  Unknown names yield OptionError; a failed
  /// synthesis yields SynthError.
  [[nodiscard]] static Expected<Session> from_benchmark(
      const std::string& name,
      SynthStyle style = SynthStyle::SpeedIndependent,
      const AtpgOptions& options = {});

  Session(Session&&) noexcept;
  Session& operator=(Session&&) noexcept;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  ~Session();

  // --- circuit --------------------------------------------------------------

  [[nodiscard]] const std::string& circuit_name() const;
  [[nodiscard]] std::size_t num_inputs() const;
  [[nodiscard]] std::size_t num_outputs() const;
  [[nodiscard]] std::size_t num_signals() const;
  /// Total gate input pins (the input stuck-at fault sites).
  [[nodiscard]] std::size_t num_pins() const;
  /// The circuit in native .xnl text (round-trips through from_xnl).
  [[nodiscard]] std::string circuit_xnl() const;
  /// The stable test-mode reset state (one bit per signal).
  [[nodiscard]] const std::vector<bool>& reset_state() const;

  [[nodiscard]] const AtpgOptions& options() const;

  // --- CSSG abstraction -----------------------------------------------------

  /// Figure-2-style statistics of the CSSG built for this circuit.
  [[nodiscard]] const CssgStats& cssg_stats() const;
  /// Graphviz dump of the explicit CSSG (stable states + valid vectors).
  /// ResourceError when the explicit graph exceeds its state cap.
  [[nodiscard]] Expected<std::string> cssg_dot() const;

  // --- fault universes ------------------------------------------------------

  /// All input (gate-pin) stuck-at faults: 2 per pin.
  [[nodiscard]] std::vector<Fault> input_stuck_faults() const;
  /// All output (signal) stuck-at faults: 2 per signal.
  [[nodiscard]] std::vector<Fault> output_stuck_faults() const;
  /// "pin c.1 s-a-0" / "out y s-a-1" style description.
  [[nodiscard]] std::string describe(const Fault& fault) const;

  // --- runs -----------------------------------------------------------------

  /// Run the full flow on `faults` (replacing any previous universe).
  /// Streams events to `observer` and stops cooperatively between faults
  /// when `cancel` fires (the partial result is deterministic and
  /// resumable).  Invalid faults (out-of-range ids) yield OptionError; an
  /// explicit graph over its state cap yields ResourceError.
  [[nodiscard]] Expected<AtpgResult> run(const std::vector<Fault>& faults,
                           RunObserver* observer = nullptr,
                           const CancelToken* cancel = nullptr);

  /// Grow the universe incrementally (see the file header).  The returned
  /// result covers the whole union universe and is byte-identical to a
  /// from-scratch run on it; cached searches are not paid for again.
  [[nodiscard]] Expected<AtpgResult> add_faults(const std::vector<Fault>& faults,
                                  RunObserver* observer = nullptr,
                                  const CancelToken* cancel = nullptr);

  /// The current fault universe (what run/add_faults accumulated).
  [[nodiscard]] const std::vector<Fault>& fault_universe() const;
  /// True once run() has produced a result on this session.
  [[nodiscard]] bool has_result() const;
  /// The last run's result.  Precondition: has_result().
  [[nodiscard]] const AtpgResult& last_result() const;

  // --- export & accounting --------------------------------------------------

  /// Tester-facing export of `result`'s sequences: vectors and expected
  /// primary-output responses per cycle.  Sequences that are not valid CSSG
  /// paths of this circuit yield OptionError; an explicit graph over its
  /// state cap yields ResourceError.
  [[nodiscard]] Expected<std::string> test_program(const AtpgResult& result) const;

  /// BDD accounting of the engine's one manager, after a garbage
  /// collection: shard_bdd_stats()[0] with live_nodes counting live nodes
  /// only.  peak_nodes is the manager's lifetime watermark, which includes
  /// the transient of CSSG construction.
  [[nodiscard]] ShardBddStats bdd_stats() const;

  /// One entry per worker slot of the most recent run, with the 3-phase
  /// searches each worker completed.  Entry 0 also carries the BDD
  /// accounting of the engine's one manager; worker threads hold no BDD
  /// state, so the other entries' node and cache counters stay 0.
  [[nodiscard]] std::vector<ShardBddStats> shard_bdd_stats() const;

 private:
  struct Impl;
  explicit Session(std::unique_ptr<Impl> impl);
  /// The text factories' one body: parse `text` with `parse`, settle the
  /// reset state and build the engine.
  static Expected<Session> from_text(Netlist (*parse)(const std::string&),
                                     const std::string& text,
                                     const AtpgOptions& options);
  std::unique_ptr<Impl> impl_;
};

}  // namespace xatpg
