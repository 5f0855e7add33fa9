// The paper's evidence as named families: Tables 1-2, Figures 1-2, the
// §6.1 virtual-FF baseline and the §4.1/§5.4/§6 ablations.  Each family
// prints the fixed-width table of one experiment; `xatpg bench --family
// NAME` runs it and `test_perf` pins the paper-shape facts of every one.
#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "atpg/engine.hpp"
#include "atpg/fault_sim.hpp"
#include "baseline/baseline.hpp"
#include "benchmarks/benchmarks.hpp"
#include "perf/perf.hpp"
#include "sgraph/cssg.hpp"
#include "sim/explicit.hpp"
#include "sim/ternary.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

namespace xatpg::perf {

namespace {

/// printf into `out`.
[[gnu::format(printf, 2, 3)]] void print(std::ostream& out,
                                         const char* format, ...) {
  std::va_list args;
  va_start(args, format);
  std::va_list again;
  va_copy(again, args);
  const int size = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  std::vector<char> text(static_cast<std::size_t>(std::max(size, 0)) + 1);
  std::vsnprintf(text.data(), text.size(), format, again);
  va_end(again);
  out.write(text.data(), static_cast<std::streamsize>(text.size() - 1));
}

double percent(std::size_t part, std::size_t whole) {
  return 100.0 * static_cast<double>(part) / static_cast<double>(whole);
}

// --- Tables 1 and 2 ---------------------------------------------------------

/// The full flow (random TPG -> 3-phase -> fault simulation) on every corpus
/// entry of `kind`, in the paper's columns: output/input stuck-at totals,
/// the input stuck-at faults by the phase that covered them, shard 0's BDD
/// nodes and sift passes, and the wall time from Session construction.
/// That last column stands in for the paper's CPU column; it is
/// steady-clock wall time, not process CPU time.
/// The caller's threads, seed, k and reorder apply; the random TPG budget
/// is the tables' own.
void print_table(const char* title, CorpusEntry::Kind kind,
                 const AtpgOptions& base, std::ostream& out) {
  AtpgOptions options;
  options.threads = base.threads;
  options.seed = base.seed;
  options.k = base.k;
  options.sim.k = base.sim.k;
  options.reorder.enabled = base.reorder.enabled;
  options.random_budget = 12;
  options.random_walk_len = 6;
  const char* rule =
      "-----------------+---------------+---------------+-------------------+-"
      "-----------------------+----------\n";
  print(out, "%s\n", title);
  print(out, "%-16s | %-13s | %-13s | %-17s | %-22s | %s\n", "", "output-s",
        "input-s", "input-s by phase", "BDD nodes", "");
  print(out, "%-16s | %5s %7s | %5s %7s | %5s %5s %5s | %8s %8s %4s | %9s\n",
        "example", "tot", "cov", "tot", "cov", "rnd", "3-ph", "sim", "peak",
        "live", "sift", "wall(ms)");
  print(out, "%s", rule);
  std::size_t out_tot = 0, out_cov = 0, in_tot = 0, in_cov = 0;
  std::size_t peak = 0, live = 0;
  double wall_ms = 0;
  for (const CorpusEntry& entry : default_corpus()) {
    if (entry.kind != kind) continue;
    const SessionRun run = run_session(entry, options);
    const AtpgStats& o = run.output_stuck.stats;
    const AtpgStats& i = run.input_stuck.stats;
    print(out,
          "%-16s | %5zu %7zu | %5zu %7zu | %5zu %5zu %5zu | %8zu %8zu %4zu | "
          "%9.1f\n",
          entry.name.c_str(), o.total_faults, o.covered, i.total_faults,
          i.covered, i.by_random, i.by_three_phase, i.by_fault_sim,
          run.bdd.peak_nodes, run.bdd.live_nodes, run.bdd.reorders,
          run.wall_ms);
    out_tot += o.total_faults;
    out_cov += o.covered;
    in_tot += i.total_faults;
    in_cov += i.covered;
    peak += run.bdd.peak_nodes;
    live += run.bdd.live_nodes;
    wall_ms += run.wall_ms;
  }
  print(out, "%s", rule);
  print(out,
        "%-16s | %5s %6.2f%% | %5s %6.2f%% | %17s | %8zu %8zu %4s | %9.1f\n",
        "Total FC", "", percent(out_cov, out_tot), "", percent(in_cov, in_tot),
        "", peak, live, "", wall_ms);
  print(out, "\n");
}

/// Table 1: the speed-independent suite (Petrify-style gC implementations).
/// Expected shape: 100% output stuck-at coverage (the Beerel/Meng
/// self-checking result preserved under synchronous testing), high input
/// stuck-at coverage, most faults covered by cheap random TPG, the rest by
/// 3-phase ATPG, and a small fault-simulation column.
void table1(const AtpgOptions& options, std::ostream& out) {
  print_table("Table 1: speed-independent circuits (input/output stuck-at "
              "ATPG)",
              CorpusEntry::Kind::SiBenchmark, options, out);
}

/// Table 2: hazard-free bounded-delay (SIS-style two-level + feedback)
/// implementations of the shared specifications.  Expected shape: most
/// circuits test like their speed-independent twins, but the three
/// redundant designs (trimos-send, vbe10b, vbe6a — aggressive
/// spurious-pulse consensus covers) drop to visibly lower input stuck-at
/// coverage and dominate the time column, because the ATPG exhausts its
/// search proving faults on redundant cubes undetectable.
void table2(const AtpgOptions& options, std::ostream& out) {
  print_table("Table 2: hazard-free bounded-delay circuits (input/output "
              "stuck-at ATPG)",
              CorpusEntry::Kind::BdBenchmark, options, out);
}

// --- Figures 1 and 2 --------------------------------------------------------

void print_races(const Netlist& netlist, const std::vector<bool>& reset,
                 std::ostream& out) {
  print(out, "circuit '%s'\n", netlist.name().c_str());
  print(out, "%-14s | %-8s | %-20s | %s\n", "stable state", "pattern",
        "exact analysis", "ternary");
  const auto stables = explicit_stable_reachable(netlist, reset, 32);
  TernarySim sim(netlist);
  const std::size_t m = netlist.inputs().size();
  for (const auto& state : stables) {
    for (std::uint64_t bits = 0; bits < (1ull << m); ++bits) {
      std::vector<bool> vec(m);
      bool same = true;
      for (std::size_t i = 0; i < m; ++i) {
        vec[i] = (bits >> i) & 1;
        same = same && (vec[i] == state[netlist.inputs()[i]]);
      }
      if (same) continue;
      const auto exact = explore_settling(netlist, state, vec, 32);
      const auto ternary = sim.settle(state, vec);
      std::string verdict;
      if (exact.confluent()) {
        verdict = "valid vector";
      } else if (exact.stable_states.size() > 1) {
        verdict = "NON-CONFLUENT (" +
                  std::to_string(exact.stable_states.size()) + " outcomes)";
      } else {
        verdict = "OSCILLATES/UNSETTLED";
      }
      std::string state_text, vec_text;
      for (const bool b : state) state_text += b ? '1' : '0';
      for (const bool b : vec) vec_text += b ? '1' : '0';
      print(out, "%-14s | %-8s | %-20s | %s\n", state_text.c_str(),
            vec_text.c_str(), verdict.c_str(),
            ternary.confluent ? "definite" : "has-X");
    }
  }
  print(out, "\n");
}

/// Figure 1: the two §2 motivation circuits.  (a) non-confluence: applying
/// AB=10 to stable state 01...0 settles to two different states depending
/// on gate delays (the y latch either captures the pulse on c or misses
/// it).  (b) oscillation: raising A with B=0 puts the NAND/OR ring into the
/// repeating c-,d-,c+,d+ cycle.  Every (reachable stable state, input
/// pattern) pair of both circuits, judged by exhaustive race analysis and
/// by conservative ternary simulation.
void fig1(const AtpgOptions& /*options*/, std::ostream& out) {
  std::vector<bool> reset_a, reset_b;
  const Netlist fig1a = fig1a_circuit(&reset_a);
  const Netlist fig1b = fig1b_circuit(&reset_b);
  print(out, "Figure 1: circuits showing (a) non-confluence and (b) "
             "oscillation\n\n");
  print_races(fig1a, reset_a, out);
  print_races(fig1b, reset_b, out);
}

void print_abstraction(const char* title,
                       const std::vector<std::string>& names, SynthStyle style,
                       const CssgOptions& options, std::ostream& out) {
  print(out, "%s\n", title);
  print(out, "%-16s | %7s %7s | %7s %9s %7s | %7s %9s\n", "example", "reach",
        "stable", "TCR_k", "non-conf", "osc", "edges", "CSSG-rch");
  print(out, "-----------------+-----------------+---------------------------"
             "+------------------\n");
  for (const std::string& name : names) {
    const SynthResult synth = benchmark_circuit(name, style);
    const Cssg cssg(synth.netlist, synth.reset_state, options);
    const CssgStats& s = cssg.stats();
    print(out, "%-16s | %7.0f %7.0f | %7.0f %9.0f %7.0f | %7.0f %9.0f\n",
          name.c_str(), s.reachable_states, s.stable_states, s.tcr_pairs,
          s.nonconfluent_pairs, s.unstable_pairs, s.cssg_edges,
          s.cssg_reachable_states);
  }
  print(out, "\n");
}

/// Figure 2: the TCSG -> CSSG abstraction.  The sizes along the §4 pipeline
/// for every benchmark — reachable test-mode states, stable states, TCR_k
/// pairs, pairs pruned for non-confluence and for oscillation/late
/// settling, and the surviving CSSG edges (the valid synchronous test
/// vectors) — then the figure's own example: the Figure 1(a) TCSG, in which
/// one vector races and one oscillates, and its CSSG.
void fig2(const AtpgOptions& /*options*/, std::ostream& out) {
  CssgOptions options;
  options.k = 24;
  print(out, "Figure 2: TCSG -> CSSG abstraction (k = %zu)\n\n", options.k);
  print_abstraction(
      "speed-independent suite (atomic gC implementations are race-free in "
      "test mode: nothing is pruned)",
      si_benchmark_names(), SynthStyle::SpeedIndependent, options, out);
  print_abstraction(
      "bounded-delay suite (two-level + feedback implementations race: the "
      "pruning does real work)",
      bd_benchmark_names(), SynthStyle::BoundedDelay, options, out);

  std::vector<bool> reset_a;
  const Netlist fig1a = fig1a_circuit(&reset_a);
  CssgOptions fig1a_options;
  fig1a_options.k = 20;
  const Cssg cssg(fig1a, reset_a, fig1a_options);
  print(out, "fig1a circuit: %d stable states, %.0f TCR pairs, %.0f "
             "non-confluent pruned, %.0f CSSG edges\n",
        static_cast<int>(cssg.stats().stable_states), cssg.stats().tcr_pairs,
        cssg.stats().nonconfluent_pairs, cssg.stats().cssg_edges);
  print(out, "CSSG as Graphviz:\n");
  out << cssg.to_dot(cssg.extract_explicit());
}

// --- §6.1 baseline ----------------------------------------------------------

/// The virtual-FF synchronous baseline [Banerjee et al.] against the CSSG
/// flow.  Expected shape: the baseline generates tests for most faults and
/// its unit-delay validation accepts most of them, but on the racy Figure
/// 1(a) circuit some accepted sequences hold vectors that exact race
/// analysis shows to be non-confluent — the "optimism" the paper
/// criticises.  The same audit runs over every sequence of the CSSG flow,
/// whose vectors are pre-validated, so its `racy` column is 0.
void baseline(const AtpgOptions& /*options*/, std::ostream& out) {
  AtpgOptions options;
  options.random_budget = 32;
  options.random_walk_len = 6;
  print(out, "Baseline comparison (input stuck-at, SI suite subset)\n\n");
  print(out, "%-14s | %6s | %-26s | %-16s\n", "", "", "virtual-FF baseline",
        "CSSG flow (ours)");
  print(out, "%-14s | %6s | %5s %6s %10s | %8s %7s\n", "example", "faults",
        "gen", "valid", "optimistic", "covered", "racy");
  print(out, "---------------+--------+----------------------------+--------"
             "---------\n");
  std::size_t total_optimistic = 0;
  const auto run_one = [&](const char* name, const Netlist& netlist,
                           const std::vector<bool>& reset) {
    const auto faults = input_stuck_faults(netlist);
    const BaselineResult theirs = run_baseline(netlist, reset, faults);
    total_optimistic += theirs.optimistic;
    AtpgEngine engine(netlist, reset, options);
    const AtpgResult ours = engine.run(faults);
    std::size_t racy = 0;
    for (const TestSequence& sequence : ours.sequences)
      if (has_racy_vector(netlist, reset, sequence)) ++racy;
    print(out, "%-14s | %6zu | %5zu %6zu %10zu | %8zu %7zu\n", name,
          faults.size(), theirs.generated, theirs.validated, theirs.optimistic,
          ours.stats.covered, racy);
  };
  for (const char* name : {"rpdft", "dff", "chu150", "converta", "rcv-setup",
                           "vbe5b", "ebergen", "nowick"}) {
    const SynthResult synth =
        benchmark_circuit(name, SynthStyle::SpeedIndependent);
    run_one(name, synth.netlist, synth.reset_state);
  }
  std::vector<bool> reset;
  const Netlist fig1a = fig1a_circuit(&reset);
  run_one("fig1a (racy)", fig1a, reset);
  print(out, "\n%zu baseline-validated sequences contain racy vectors; the "
             "CSSG flow emits none by construction.\n",
        total_optimistic);
}

// --- ablations --------------------------------------------------------------

/// The implementation architecture.  The paper's Petrify circuits are
/// gate-level implementations whose fault universes (Table 1 "tot", 36-140
/// faults) are larger than a one-complex-gate-per-signal mapping yields.
/// The standard-C architecture decomposes each signal into explicit
/// set/reset AND-OR networks feeding a 2-input C-element: fault counts grow
/// toward the paper's, and because the decomposition is not hazard-free
/// under unbounded delays, the CSSG prunes more and coverage can drop —
/// the price of the complex-gate assumption the atomic-gC mapping relies
/// on.  vbe5b shows it in full: its decomposition leaves only the reset
/// state CSSG-reachable (4 of its 7 TCR pairs are pruned as
/// non-confluent), so no test can leave reset and 0 of its 38 input
/// stuck-at faults are covered.
void ablation_architecture(const AtpgOptions& /*options*/,
                           std::ostream& out) {
  AtpgOptions options;
  options.random_budget = 24;
  options.random_walk_len = 6;
  print(out, "Ablation: atomic gC vs decomposed standard-C architecture "
             "(input stuck-at)\n\n");
  print(out, "%-14s | %-20s | %-20s\n", "", "atomic gC", "standard-C");
  print(out, "%-14s | %6s %6s %6s | %6s %6s %6s\n", "example", "pins", "cov",
        "cov%", "pins", "cov", "cov%");
  print(out,
        "---------------+----------------------+--------------------\n");
  struct Cell {
    std::size_t pins = 0, cov = 0, tot = 0;
  };
  for (const char* name : {"rpdft", "dff", "chu150", "converta", "rcv-setup",
                           "ebergen", "vbe5b", "nowick"}) {
    const StateGraph sg = expand_stg(benchmark_stg(name));
    const auto run_arch = [&](SiArchitecture arch) {
      SynthOptions synth_options;
      synth_options.style = SynthStyle::SpeedIndependent;
      synth_options.architecture = arch;
      const SynthResult synth = synthesize(sg, synth_options);
      AtpgEngine engine(synth.netlist, synth.reset_state, options);
      const AtpgResult result = engine.run(input_stuck_faults(synth.netlist));
      return Cell{synth.netlist.num_pins(), result.stats.covered,
                  result.stats.total_faults};
    };
    const Cell a = run_arch(SiArchitecture::AtomicGc);
    const Cell b = run_arch(SiArchitecture::StandardC);
    print(out, "%-14s | %6zu %6zu %5.1f%% | %6zu %6zu %5.1f%%\n", name,
          a.pins, a.cov, percent(a.cov, a.tot), b.pins, b.cov,
          percent(b.cov, b.tot));
  }
}

/// The §6 improvement the paper proposes but does not implement:
/// "classifying undetectable faults to avoid wasting time in covering
/// them".  The poor Table 2 circuits are slow because a test for an
/// undetectable fault tries every input pattern; the a-priori classifier
/// (a symbolic constant-line proof over the test-mode reachable states)
/// removes that work soundly — coverage must not change.
void ablation_classify(const AtpgOptions& /*options*/, std::ostream& out) {
  print(out, "Ablation: a-priori undetectable-fault classification "
             "(bounded-delay suite, input stuck-at)\n\n");
  print(out, "%-14s | %6s | %-22s | %-27s\n", "", "", "classifier off",
        "classifier on");
  print(out, "%-14s | %6s | %8s %11s | %8s %9s %11s\n", "example", "faults",
        "coverage", "3-ph ms", "coverage", "proven", "3-ph ms");
  print(out, "---------------+--------+------------------------+------------"
             "----------------\n");
  for (const std::string& name : bd_benchmark_names()) {
    const SynthResult synth = benchmark_circuit(name, SynthStyle::BoundedDelay);
    const auto faults = input_stuck_faults(synth.netlist);
    const auto run_once = [&](bool classify) {
      AtpgOptions options;
      options.random_budget = 12;
      options.random_walk_len = 6;
      options.classify_undetectable = classify;
      AtpgEngine engine(synth.netlist, synth.reset_state, options);
      return engine.run(faults);
    };
    const AtpgResult off = run_once(false);
    const AtpgResult on = run_once(true);
    print(out, "%-14s | %6zu | %7.1f%% %9.1f | %7.1f%% %9zu %9.1f\n",
          name.c_str(), faults.size(), 100.0 * off.stats.coverage(),
          off.stats.three_phase_seconds * 1e3, 100.0 * on.stats.coverage(),
          on.stats.proven_redundant, on.stats.three_phase_seconds * 1e3);
  }
  print(out, "\nThe classifier must never reduce coverage (it is sound); it "
             "removes the 3-phase time spent proving redundant faults "
             "undetectable by exhaustion.\n");
}

/// §5.4's conservativeness remark: the word-parallel ternary fault screen
/// vs the exact consistent-set detector.  The paper decides detection by
/// ternary simulation and accepts its conservativeness, because missed
/// equivalences are recovered by the 3-phase step.  On gC-style
/// implementations ternary analysis loses information through the
/// set/reset feedback, so the gap is visible: the same random vectors go
/// through both detectors, counting the faults each can *prove* detected.
void ablation_detector(const AtpgOptions& /*options*/, std::ostream& out) {
  print(out, "Ablation: ternary screen vs exact consistent-set detection\n"
             "(64 random valid vectors from reset, input stuck-at)\n\n");
  print(out, "%-16s | %6s | %12s | %10s\n", "example", "faults", "ternary-det",
        "exact-det");
  const char* rule = "-----------------+--------+--------------+-----------\n";
  print(out, "%s", rule);
  std::size_t total = 0, ternary_total = 0, exact_total = 0;
  for (const std::string& name : si_benchmark_names()) {
    const SynthResult synth =
        benchmark_circuit(name, SynthStyle::SpeedIndependent);
    const auto faults = input_stuck_faults(synth.netlist);

    // One shared random walk over valid vectors; the reset state is the
    // explicit graph's state 0.
    AtpgEngine engine(synth.netlist, synth.reset_state, AtpgOptions{});
    Rng rng(17);
    std::vector<std::vector<bool>> vectors;
    std::vector<std::vector<bool>> good_states;
    std::uint32_t good_id = 0;
    for (int step = 0; step < 64; ++step) {
      const auto& succs = engine.graph().edges[good_id];
      if (succs.empty()) break;
      const std::uint32_t to = succs[rng.below(succs.size())];
      vectors.push_back(engine.graph().inputs[to]);
      good_states.push_back(engine.graph().states[to]);
      good_id = to;
    }

    const std::size_t ternary_detected =
        ternary_screen(synth.netlist, synth.reset_state, faults, vectors)
            .size();

    std::size_t exact_detected = 0;
    for (const Fault& fault : faults) {
      FaultSimulator sim(synth.netlist, fault, synth.reset_state);
      for (std::size_t t = 0;
           t < vectors.size() && sim.status() == DetectStatus::Undetermined;
           ++t)
        sim.step(vectors[t], good_states[t]);
      if (sim.status() == DetectStatus::Detected) ++exact_detected;
    }

    print(out, "%-16s | %6zu | %12zu | %10zu\n", name.c_str(), faults.size(),
          ternary_detected, exact_detected);
    total += faults.size();
    ternary_total += ternary_detected;
    exact_total += exact_detected;
  }
  print(out, "%s", rule);
  print(out, "%-16s | %6zu | %11.1f%% | %9.1f%%\n", "Total", total,
        percent(ternary_total, total), percent(exact_total, total));
}

/// §4.1's test-cycle bound k.  A small k models a short test cycle:
/// settlements needing more gate transitions count as "too long
/// oscillation" and their vectors are pruned from the CSSG, shrinking the
/// reachable test space and eventually the coverage.  A large enough k
/// saturates once it covers the circuit's longest settlement.
void ablation_k(const AtpgOptions& /*options*/, std::ostream& out) {
  print(out, "Ablation: settle bound k vs CSSG size and input stuck-at "
             "coverage\n\n");
  print(out, "%-10s | %3s | %9s | %9s | %8s\n", "example", "k", "edges",
        "states", "coverage");
  print(out, "-----------+-----+-----------+-----------+---------\n");
  for (const char* name : {"rpdft", "chu150", "ebergen", "seq4", "mmu"}) {
    const SynthResult synth =
        benchmark_circuit(name, SynthStyle::SpeedIndependent);
    for (const std::size_t k : {1u, 2u, 3u, 4u, 6u, 8u, 16u, 32u}) {
      AtpgOptions options;
      options.k = k;
      options.sim.k = k;
      options.random_budget = 32;
      options.random_walk_len = 6;
      AtpgEngine engine(synth.netlist, synth.reset_state, options);
      const AtpgResult result = engine.run(input_stuck_faults(synth.netlist));
      print(out, "%-10s | %3zu | %9.0f | %9.0f | %7.1f%%\n", name, k,
            engine.cssg().stats().cssg_edges,
            engine.cssg().stats().cssg_reachable_states,
            100.0 * result.stats.coverage());
    }
    print(out, "\n");
  }
}

/// The §6 conclusion's "better variable ordering strategies in the use of
/// BDDs": the static orderings of the symbolic encoding, and dynamic
/// (Rudell sifting) reordering, on the CSSG construction that dominates
/// 3-phase ATPG cost.  Per configuration: the peak allocated-node
/// watermark, the final live count before and after one explicit sifting
/// pass, wall time, and the GC / auto-sift counters.  The `sifted` rows
/// start interleaved and reorder while the pipeline is built; `--reorder`
/// arms the auto-trigger on the three static layouts too, which measures
/// how much of the sifted row's win survives a bad starting order.
void ablation_ordering(const AtpgOptions& base, std::ostream& out) {
  const bool reorder_static = base.reorder.enabled;
  print(out, "Ablation: BDD variable ordering for the CSSG construction%s\n\n",
        reorder_static ? " (dynamic reordering on static orders too)" : "");
  print(out, "%-14s | %-20s | %10s | %10s | %10s | %9s | %4s | %4s\n",
        "example", "order", "peak nodes", "final live", "post-sift",
        "time(ms)", "GCs", "sift");
  print(out, "---------------+----------------------+------------+-----------"
             "-+------------+-----------+------+-----\n");
  // The three layouts, then the interleaved one with sifting always on.
  struct Row {
    const char* label;
    VarOrder order;
    bool reorder;
  };
  const Row rows[] = {
      {var_order_name(VarOrder::Interleaved), VarOrder::Interleaved,
       reorder_static},
      {var_order_name(VarOrder::Blocked), VarOrder::Blocked, reorder_static},
      {var_order_name(VarOrder::ReverseInterleaved),
       VarOrder::ReverseInterleaved, reorder_static},
      {"sifted", VarOrder::Interleaved, true}};
  for (const char* name :
       {"mr1", "seq4", "master-read", "sbuf-send-ctl", "mmu"}) {
    const SynthResult synth =
        benchmark_circuit(name, SynthStyle::SpeedIndependent);
    for (const Row& row : rows) {
      CssgOptions options;
      options.k = 24;
      options.order = row.order;
      options.reorder.enabled = row.reorder;
      Timer timer;
      Cssg cssg(synth.netlist, synth.reset_state, options);
      const double build_ms = timer.millis();
      BddManager& mgr = cssg.encoding().mgr();
      mgr.collect_garbage();
      const std::size_t final_live = mgr.allocated_nodes();
      // One explicit pass on the finished pipeline: how much table is left
      // on it regardless of the auto-trigger's timing.
      const ReorderStats pass = cssg.encoding().sift_now();
      print(out, "%-14s | %-20s | %10zu | %10zu | %10zu | %9.1f | %4zu | "
                 "%4zu\n",
            name, row.label, cssg.stats().peak_bdd_nodes,
            final_live, pass.size_after, build_ms, mgr.gc_count(),
            mgr.reorder_count());
    }
    print(out, "\n");
  }
}

/// §5.4: how much does random TPG buy before 3-phase ATPG?  Sweeps the
/// random vector budget and reports the share of input stuck-at faults the
/// random phase alone covers over the SI suite — the paper reports
/// "coverage ratios between 40% and 80%" for random TPG.
void ablation_random(const AtpgOptions& /*options*/, std::ostream& out) {
  print(out, "Ablation: random TPG budget vs faults covered by the random "
             "phase (input stuck-at, SI suite)\n\n");
  print(out, "%8s | %10s | %10s | %12s\n", "budget", "rnd-cov%", "final-cov%",
        "3-ph faults");
  print(out, "---------+------------+------------+-------------\n");
  for (const std::size_t budget : {0u, 2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    std::size_t total = 0, rnd = 0, covered = 0, three = 0;
    for (const std::string& name : si_benchmark_names()) {
      const SynthResult synth =
          benchmark_circuit(name, SynthStyle::SpeedIndependent);
      AtpgOptions options;
      options.random_budget = budget;
      options.random_walk_len = 6;
      options.seed = 1;
      AtpgEngine engine(synth.netlist, synth.reset_state, options);
      const AtpgResult result = engine.run(input_stuck_faults(synth.netlist));
      total += result.stats.total_faults;
      rnd += result.stats.by_random;
      covered += result.stats.covered;
      three += result.stats.by_three_phase;
    }
    print(out, "%8zu | %9.1f%% | %9.1f%% | %12zu\n", budget,
          percent(rnd, total), percent(covered, total), three);
  }
}

}  // namespace

const std::vector<Family>& families() {
  static const std::vector<Family> registry{
      {"table1", table1},
      {"table2", table2},
      {"fig1", fig1},
      {"fig2", fig2},
      {"baseline", baseline},
      {"ablation_architecture", ablation_architecture},
      {"ablation_classify", ablation_classify},
      {"ablation_detector", ablation_detector},
      {"ablation_k", ablation_k},
      {"ablation_ordering", ablation_ordering},
      {"ablation_random", ablation_random},
  };
  return registry;
}

const Family* find_family(const std::string& name) {
  for (const Family& family : families())
    if (name == family.name) return &family;
  return nullptr;
}

}  // namespace xatpg::perf
