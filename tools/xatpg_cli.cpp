// xatpg — command-line front end of the library.  The circuit commands
// (run/cssg/export) are driven exclusively through the installed public API
// (include/xatpg; no src/ internals), which makes them a living proof that
// the facade is complete; `bench` additionally links the paper
// reproductions (src/perf).
//
//   xatpg run    --circuit <name|file.xnl|file.bench> [--style si|bd]
//                [--faults input|output|both] [run option flags]
//                [--progress] [--json] [--out FILE]
//   xatpg cssg   --circuit ... [--style si|bd] [--k N] [--reorder]
//                [--json | --dot] [--out FILE]
//   xatpg export --circuit ... [--style si|bd] [--faults input|output|both]
//                [run option flags] [--progress] [--out FILE]
//   xatpg bench  --family NAME [--threads N] [--seed N] [--k N] [--reorder]
//                [--out FILE]
//   xatpg serve  (--pipe | --socket PATH) [--serve-workers N]
//                [--queue-capacity N] [--cache-bytes N]
//                [--max-job-seconds N] [run option flags as defaults]
//   xatpg client (--pipe | --socket PATH) --circuit ... [--style si|bd]
//                [--faults input|output|both] [--repeat N] [--progress]
//                [--shutdown op|sigterm] [run option flags]
//                [--serve-workers N] [--queue-capacity N] [--cache-bytes N]
//
// The run option flags are --threads N, --seed N, --k N, --random-budget N,
// --reorder and --classify.  A command refuses every flag its line does not
// list.
//
// `run --json` emits the paper's table columns (tot/cov per universe,
// rnd/3-ph/sim, BDD node accounting) and the command's build, run and wall
// times as a single JSON object.
// `bench --family NAME` prints one of the paper's tables, figures or
// ablations (src/perf/families.cpp) at the experiment's fixed settings:
// only table1/table2 read --threads --seed --k --reorder, and
// ablation_ordering reads --reorder.
// `serve` runs the long-lived ATPG daemon (src/serve, docs/PROTOCOL.md);
// `client` drives one — in --pipe mode it forks its own binary as the
// daemon, passing it --serve-workers, --queue-capacity and --cache-bytes —
// echoing every received frame to stdout (the CI smoke validates them) and
// propagating the daemon's exit status.
//
// Exit-code contract: every typed failure (xatpg::Error, any taxonomy code)
// prints ONE protocol error frame — {"v":1,"type":"error","error":{"code":
// ...,"message":...}} — to stderr and exits 1, so scripts can parse failure
// categories without scraping prose.  Usage errors exit 2.
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "perf/perf.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "xatpg/xatpg.hpp"

namespace {

using namespace xatpg;

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " <command> [flags]\n"
      << "\n"
      << "commands:\n"
      << "  run     full ATPG flow (random TPG -> 3-phase -> fault sim)\n"
      << "  cssg    CSSG abstraction statistics (--dot for graphviz)\n"
      << "  export  generate and print the synchronous test program\n"
      << "  bench   print one paper reproduction (--family NAME)\n"
      << "  serve   long-lived ATPG daemon (NDJSON protocol, see\n"
      << "          docs/PROTOCOL.md); --pipe serves stdin/stdout,\n"
      << "          --socket PATH serves an AF_UNIX socket\n"
      << "  client  drive a daemon (forks one in --pipe mode), echoing\n"
      << "          every received frame to stdout\n"
      << "\n"
      << "flags (a command refuses any flag it does not read):\n"
      << "  --circuit X        benchmark name (chu150, ebergen, fig1a, ...)\n"
      << "                     or a .xnl / .bench netlist file path\n"
      << "  --style si|bd      speed-independent (default) or bounded-delay\n"
      << "  --faults F         input|output|both (run default: both;\n"
      << "                     export default: input)\n"
      << "  --threads N        fault-parallel workers (0 = hardware)\n"
      << "  --seed N           random TPG seed\n"
      << "  --k N              settle bound per test cycle\n"
      << "  --random-budget N  vectors spent in random TPG\n"
      << "  --reorder          dynamic BDD variable reordering (sifting)\n"
      << "  --classify         a-priori undetectable-fault classification\n"
      << "  --progress         stream phase/progress events to stderr\n"
      << "  --json             machine-readable output\n"
      << "  --dot              cssg: graphviz dump instead of statistics\n"
      << "  --out FILE         write output to FILE instead of stdout\n"
      << "  --family NAME      bench: the paper reproduction to print\n"
      << "                     (table1, fig2, ablation_k, ...); a missing or\n"
      << "                     unknown NAME lists them all.  Each runs fixed\n"
      << "                     settings: table1/table2 read --threads --seed\n"
      << "                     --k --reorder, ablation_ordering reads\n"
      << "                     --reorder, and the rest read none of them\n"
      << "  --pipe             serve/client: daemon over stdin/stdout\n"
      << "  --socket PATH      serve/client: daemon over an AF_UNIX socket\n"
      << "  --serve-workers N  serve: worker pool size (default 1)\n"
      << "  --queue-capacity N serve: bounded job-queue depth (default 16)\n"
      << "  --cache-bytes N    serve: result-cache byte cap (default 8MiB);\n"
      << "                     client --pipe passes these three to its daemon\n"
      << "  --max-job-seconds N  serve: per-job time budget (0 = unlimited)\n"
      << "  --repeat N         client: submit the request N times (a repeat\n"
      << "                     exercises the daemon's result cache)\n"
      << "  --shutdown W       client: end the daemon via 'op' (a shutdown\n"
      << "                     request frame, default) or 'sigterm'\n";
  return 2;
}

struct CliArgs {
  std::string command;
  std::string circuit;
  SynthStyle style = SynthStyle::SpeedIndependent;
  std::string faults;  ///< resolved after parsing: run=both, export=input
  bool json = false;
  bool dot = false;
  bool progress = false;
  std::string out;
  std::string family;                  ///< bench: paper reproduction name
  bool pipe = false;                   ///< serve/client: stdin/stdout daemon
  std::string socket_path;             ///< serve/client: AF_UNIX daemon
  std::size_t serve_workers = 1;
  std::size_t queue_capacity = 16;
  std::size_t cache_bytes = std::size_t{8} << 20;
  double max_job_seconds = 0;
  std::size_t repeat = 1;              ///< client: submissions of the request
  std::string shutdown_mode = "op";    ///< client: "op" | "sigterm"
  AtpgOptions options;
};

std::optional<std::uint64_t> parse_u64(const std::string& text,
                                       std::uint64_t max_value) {
  if (text.empty() || text[0] == '-') return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    // Exact overflow guard: value*10+digit <= max_value, without wrapping
    // even when max_value is the full 2^64-1 range (--seed).
    if (value > (max_value - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
  }
  return value;
}

using FlagSet = std::set<std::string, std::less<>>;

/// The flags `command` reads — its usage line in the file header — or
/// nullptr for an unknown command.
const FlagSet* accepted_flags(const std::string& command) {
  // Adds the run option flags (the AtpgOptions fields).
  const auto with_options = [](FlagSet flags) {
    flags.insert({"--threads", "--seed", "--k", "--random-budget", "--reorder",
                  "--classify"});
    return flags;
  };
  static const std::map<std::string, FlagSet, std::less<>> kAccepted = {
      {"run", with_options({"--circuit", "--style", "--faults", "--progress",
                            "--json", "--out"})},
      {"cssg", {"--circuit", "--style", "--k", "--reorder", "--json", "--dot",
                "--out"}},
      {"export", with_options({"--circuit", "--style", "--faults",
                               "--progress", "--out"})},
      {"bench", {"--family", "--threads", "--seed", "--k", "--reorder",
                 "--out"}},
      {"serve", with_options({"--pipe", "--socket", "--serve-workers",
                              "--queue-capacity", "--cache-bytes",
                              "--max-job-seconds"})},
      {"client", with_options({"--pipe", "--socket", "--circuit", "--style",
                               "--faults", "--repeat", "--progress",
                               "--shutdown", "--serve-workers",
                               "--queue-capacity", "--cache-bytes"})},
  };
  const auto it = kAccepted.find(command);
  return it == kAccepted.end() ? nullptr : &it->second;
}

/// Parses argv into `args`; returns false (after a diagnostic) on bad input.
bool parse_args(int argc, char** argv, CliArgs& args) {
  args.command = argv[1];
  const FlagSet* accepted = accepted_flags(args.command);
  if (accepted == nullptr) {
    std::cerr << "unknown command '" << args.command << "'\n";
    return false;
  }
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (!accepted->contains(flag)) {
      std::cerr << args.command << " takes no flag '" << flag
                << "' (it reads";
      for (const std::string& known : *accepted) std::cerr << " " << known;
      std::cerr << ")\n";
      return false;
    }
    const auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        return std::nullopt;
      }
      return std::string(argv[++i]);
    };
    const auto count = [&](std::uint64_t max) -> std::optional<std::uint64_t> {
      const auto text = value();
      if (!text) return std::nullopt;
      const auto parsed = parse_u64(*text, max);
      if (!parsed)
        std::cerr << "invalid " << flag << " value '" << *text << "'\n";
      return parsed;
    };
    if (flag == "--circuit") {
      const auto v = value();
      if (!v) return false;
      args.circuit = *v;
    } else if (flag == "--style") {
      const auto v = value();
      if (!v) return false;
      if (*v == "si") {
        args.style = SynthStyle::SpeedIndependent;
      } else if (*v == "bd") {
        args.style = SynthStyle::BoundedDelay;
      } else {
        std::cerr << "invalid --style '" << *v << "' (want si or bd)\n";
        return false;
      }
    } else if (flag == "--faults") {
      const auto v = value();
      if (!v) return false;
      if (*v != "input" && *v != "output" && *v != "both") {
        std::cerr << "invalid --faults '" << *v
                  << "' (want input, output or both)\n";
        return false;
      }
      args.faults = *v;
    } else if (flag == "--threads") {
      const auto v = count(AtpgOptions::kMaxThreads);
      if (!v) return false;
      args.options.threads = static_cast<std::size_t>(*v);
    } else if (flag == "--seed") {
      const auto v = count(~std::uint64_t{0});
      if (!v) return false;
      args.options.seed = *v;
    } else if (flag == "--k") {
      const auto v = count(AtpgOptions::kMaxK);
      if (!v) return false;
      args.options.k = static_cast<std::size_t>(*v);
      args.options.sim.k = static_cast<std::size_t>(*v);
    } else if (flag == "--random-budget") {
      const auto v = count(1u << 30);
      if (!v) return false;
      args.options.random_budget = static_cast<std::size_t>(*v);
    } else if (flag == "--reorder") {
      args.options.reorder.enabled = true;
    } else if (flag == "--classify") {
      args.options.classify_undetectable = true;
    } else if (flag == "--progress") {
      args.progress = true;
    } else if (flag == "--json") {
      args.json = true;
    } else if (flag == "--dot") {
      args.dot = true;
    } else if (flag == "--out") {
      const auto v = value();
      if (!v) return false;
      args.out = *v;
    } else if (flag == "--family") {
      const auto v = value();
      if (!v) return false;
      args.family = *v;
    } else if (flag == "--pipe") {
      args.pipe = true;
    } else if (flag == "--socket") {
      const auto v = value();
      if (!v) return false;
      args.socket_path = *v;
    } else if (flag == "--serve-workers") {
      const auto v = count(1024);
      if (!v) return false;
      args.serve_workers = static_cast<std::size_t>(*v);
    } else if (flag == "--queue-capacity") {
      const auto v = count(1u << 20);
      if (!v) return false;
      args.queue_capacity = static_cast<std::size_t>(*v);
    } else if (flag == "--cache-bytes") {
      const auto v = count(std::uint64_t{1} << 40);
      if (!v) return false;
      args.cache_bytes = static_cast<std::size_t>(*v);
    } else if (flag == "--max-job-seconds") {
      const auto v = count(1u << 20);
      if (!v) return false;
      args.max_job_seconds = static_cast<double>(*v);
    } else if (flag == "--repeat") {
      const auto v = count(1u << 20);
      if (!v) return false;
      args.repeat = static_cast<std::size_t>(*v);
    } else if (flag == "--shutdown") {
      const auto v = value();
      if (!v) return false;
      if (*v != "op" && *v != "sigterm") {
        std::cerr << "invalid --shutdown '" << *v << "' (want op or sigterm)\n";
        return false;
      }
      args.shutdown_mode = *v;
    }
  }
  if (args.command == "serve" || args.command == "client") {
    if (args.pipe == !args.socket_path.empty()) {
      // Exactly one transport: neither or both is a usage error.
      std::cerr << args.command << " needs exactly one of --pipe or "
                   "--socket PATH\n";
      return false;
    }
    if (args.command == "client" && args.circuit.empty()) {
      std::cerr << "--circuit is required\n";
      return false;
    }
    if (args.command == "client" && args.shutdown_mode == "sigterm" &&
        !args.pipe) {
      std::cerr << "--shutdown sigterm needs --pipe (the client only owns "
                   "the daemon process it forked)\n";
      return false;
    }
  } else if (args.command == "bench") {
    if (perf::find_family(args.family) == nullptr) {
      if (args.family.empty())
        std::cerr << "bench needs --family NAME";
      else
        std::cerr << "unknown --family '" << args.family << "'";
      std::cerr << " (want one of";
      for (const perf::Family& family : perf::families())
        std::cerr << " " << family.name;
      std::cerr << ")\n";
      return false;
    }
  } else if (args.circuit.empty()) {
    std::cerr << "--circuit is required\n";
    return false;
  }
  if (args.faults.empty())
    args.faults = args.command == "export" ? "input" : "both";
  return true;
}

bool looks_like_file(const std::string& circuit) {
  return circuit.find('/') != std::string::npos ||
         circuit.find(".xnl") != std::string::npos ||
         circuit.find(".bench") != std::string::npos;
}

bool looks_like_bench_file(const std::string& circuit) {
  return circuit.size() >= 6 &&
         circuit.compare(circuit.size() - 6, 6, ".bench") == 0;
}

/// Stderr observer for --progress: phase transitions and a coarse heartbeat.
class StderrObserver : public RunObserver {
 public:
  void on_phase(RunPhase phase) override {
    std::cerr << "[xatpg] phase: " << run_phase_name(phase) << "\n";
  }
  void on_fault_resolved(std::size_t index, const FaultOutcome& outcome) override {
    std::cerr << "[xatpg] fault #" << index << " resolved: "
              << (outcome.proven_redundant ? "proven-redundant"
                                           : covered_by_name(outcome.covered_by))
              << "\n";
  }
  void on_progress(const RunProgress& progress) override {
    std::cerr << "[xatpg] " << run_phase_name(progress.phase) << ": "
              << progress.faults_resolved << "/" << progress.faults_total
              << " resolved, " << progress.sequences_committed
              << " sequences";
    for (const ShardBddStats& shard : progress.shards)
      if (shard.live_nodes != 0)
        std::cerr << " | shard" << shard.shard << " " << shard.live_nodes
                  << " nodes";
    std::cerr << "\n";
  }
};

void print_universe_json(std::ostream& out, const char* key,
                         const AtpgStats& stats) {
  out << "  \"" << key << "\": {\"total\": " << stats.total_faults
      << ", \"covered\": " << stats.covered << ", \"rnd\": " << stats.by_random
      << ", \"three_phase\": " << stats.by_three_phase
      << ", \"sim\": " << stats.by_fault_sim
      << ", \"undetected\": " << stats.undetected
      << ", \"proven_redundant\": " << stats.proven_redundant
      << ", \"gave_up\": " << stats.gave_up
      << ", \"coverage\": " << json::number(stats.coverage()) << "}";
}

void print_universe_text(std::ostream& out, const char* title,
                         const AtpgStats& stats) {
  out << title << ": " << stats.covered << "/" << stats.total_faults
      << " covered (" << 100.0 * stats.coverage() << "%)  rnd " << stats.by_random
      << "  3-ph " << stats.by_three_phase << "  sim " << stats.by_fault_sim;
  if (stats.proven_redundant != 0)
    out << "  redundant " << stats.proven_redundant;
  if (stats.gave_up != 0) out << "  gave-up " << stats.gave_up;
  out << "\n";
}

int fail(const Error& error) {
  // The exit-code contract (file header): one machine-readable protocol
  // error frame on stderr, exit 1, for EVERY taxonomy code.
  std::cerr << serve::error_frame("", error);
  return 1;
}

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// `started` is main's first instant; `build_ms` times the Session factory
/// (parse or synthesis and the symbolic CSSG).  The first run extracts the
/// explicit graph, so run_ms includes it.
int cmd_run(Session& session, const CliArgs& args, std::ostream& out,
            Clock::time_point started, double build_ms) {
  StderrObserver observer;
  RunObserver* obs = args.progress ? &observer : nullptr;

  const auto run_start = Clock::now();
  std::optional<AtpgResult> out_result, in_result;
  if (args.faults == "output" || args.faults == "both") {
    auto r = session.run(session.output_stuck_faults(), obs);
    if (!r) return fail(r.error());
    out_result = std::move(r.value());
  }
  if (args.faults == "input" || args.faults == "both") {
    auto r = session.run(session.input_stuck_faults(), obs);
    if (!r) return fail(r.error());
    in_result = std::move(r.value());
  }
  const double run_ms = ms_since(run_start);
  const double wall_ms = ms_since(started);
  const ShardBddStats bdd = session.bdd_stats();

  if (args.json) {
    out << "{\n  \"circuit\": \"" << json::escape(session.circuit_name())
        << "\",\n  \"style\": \""
        << (args.style == SynthStyle::SpeedIndependent ? "si" : "bd")
        << "\",\n  \"signals\": " << session.num_signals()
        << ",\n  \"inputs\": " << session.num_inputs()
        << ",\n  \"outputs\": " << session.num_outputs()
        << ",\n  \"pins\": " << session.num_pins() << ",\n";
    if (out_result) {
      print_universe_json(out, "output_stuck", out_result->stats);
      out << ",\n";
    }
    if (in_result) {
      print_universe_json(out, "input_stuck", in_result->stats);
      out << ",\n";
    }
    out << "  \"sequences\": "
        << (in_result   ? in_result->sequences.size()
            : out_result ? out_result->sequences.size()
                         : 0)
        << ",\n  \"cancelled\": "
        << (((in_result && in_result->cancelled) ||
             (out_result && out_result->cancelled))
                ? "true"
                : "false")
        << ",\n  \"bdd\": {\"peak_nodes\": " << bdd.peak_nodes
        << ", \"live_nodes\": " << bdd.live_nodes
        << ", \"reorders\": " << bdd.reorders
        << ", \"cache_lookups\": " << bdd.cache_lookups
        << ", \"cache_hits\": " << bdd.cache_hits
        << ", \"cache_hit_rate\": " << json::number(bdd.cache_hit_rate())
        << ", \"unique_load\": " << json::number(bdd.unique_load) << "}"
        << ",\n  \"timing\": {\"build_ms\": " << json::number(build_ms)
        << ", \"run_ms\": " << json::number(run_ms)
        << ", \"wall_ms\": " << json::number(wall_ms) << "}\n}\n";
  } else {
    out << "circuit '" << session.circuit_name() << "': "
        << session.num_inputs() << " inputs, " << session.num_outputs()
        << " outputs, " << session.num_signals() << " signals, "
        << session.num_pins() << " pins\n";
    if (out_result) print_universe_text(out, "output stuck-at", out_result->stats);
    if (in_result) print_universe_text(out, "input stuck-at", in_result->stats);
    out << "BDD: peak " << bdd.peak_nodes << " nodes, live " << bdd.live_nodes
        << ", sift passes " << bdd.reorders << ", cache hit rate "
        << 100.0 * bdd.cache_hit_rate() << "%, unique load "
        << bdd.unique_load << "\n";
    out << "time: build " << build_ms << " ms, run " << run_ms << " ms\n";
  }
  return 0;
}

int cmd_cssg(Session& session, const CliArgs& args, std::ostream& out) {
  if (args.dot) {
    const auto dot = session.cssg_dot();
    if (!dot) return fail(dot.error());
    out << dot.value();
    return 0;
  }
  const CssgStats& stats = session.cssg_stats();
  if (args.json) {
    // The counts are doubles (sat counts); json::number prints them exactly
    // where operator<< would round to six significant digits.
    out << "{\n  \"circuit\": \"" << json::escape(session.circuit_name())
        << "\",\n  \"reachable_states\": "
        << json::number(stats.reachable_states)
        << ",\n  \"stable_states\": " << json::number(stats.stable_states)
        << ",\n  \"tcr_pairs\": " << json::number(stats.tcr_pairs)
        << ",\n  \"nonconfluent_pairs\": "
        << json::number(stats.nonconfluent_pairs)
        << ",\n  \"unstable_pairs\": " << json::number(stats.unstable_pairs)
        << ",\n  \"cssg_edges\": " << json::number(stats.cssg_edges)
        << ",\n  \"cssg_reachable_states\": "
        << json::number(stats.cssg_reachable_states)
        << ",\n  \"peak_bdd_nodes\": " << stats.peak_bdd_nodes << "\n}\n";
  } else {
    out << "circuit '" << session.circuit_name() << "'\n"
        << "TCSG reachable states: " << stats.reachable_states << " ("
        << stats.stable_states << " stable)\n"
        << "TCR_k pairs:           " << stats.tcr_pairs << "\n"
        << "pruned non-confluent:  " << stats.nonconfluent_pairs << "\n"
        << "pruned oscillating:    " << stats.unstable_pairs << "\n"
        << "CSSG edges:            " << stats.cssg_edges << "\n"
        << "CSSG reachable states: " << stats.cssg_reachable_states << "\n"
        << "peak BDD nodes:        " << stats.peak_bdd_nodes << "\n";
  }
  return 0;
}

int cmd_bench(const CliArgs& args, std::ostream& out) {
  if (const Expected<void> valid = args.options.validate(); !valid)
    return fail(valid.error());
  try {
    perf::find_family(args.family)->run(args.options, out);
  } catch (const CheckError& e) {
    std::cerr << "xatpg bench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

int cmd_export(Session& session, const CliArgs& args, std::ostream& out) {
  // --faults selects the exported universe; "both" concatenates the input
  // and output models into one run (default: input, the paper's program).
  std::vector<Fault> universe;
  if (args.faults == "input" || args.faults == "both")
    universe = session.input_stuck_faults();
  if (args.faults == "output" || args.faults == "both") {
    const auto output = session.output_stuck_faults();
    universe.insert(universe.end(), output.begin(), output.end());
  }
  StderrObserver observer;
  auto result = session.run(universe, args.progress ? &observer : nullptr);
  if (!result) return fail(result.error());
  const auto program = session.test_program(result.value());
  if (!program) return fail(program.error());
  out << program.value();
  return 0;
}

// --- serve ------------------------------------------------------------------

/// The daemon a signal must reach.  request_shutdown() is async-signal-safe
/// (atomic store + self-pipe write), so the handler calls it directly.
serve::Server* g_server = nullptr;

extern "C" void handle_shutdown_signal(int) {
  if (g_server != nullptr) g_server->request_shutdown();
}

int cmd_serve(const CliArgs& args) {
  serve::ServeConfig config;
  config.workers = args.serve_workers;
  config.queue_capacity = args.queue_capacity;
  config.cache_bytes = args.cache_bytes;
  config.max_job_seconds = args.max_job_seconds;
  config.defaults = args.options;
  try {
    serve::Server server(config);
    g_server = &server;
    std::signal(SIGINT, handle_shutdown_signal);
    std::signal(SIGTERM, handle_shutdown_signal);
    const int code =
        args.pipe ? server.serve_pipe() : server.serve_unix(args.socket_path);
    g_server = nullptr;
    return code;
  } catch (const CheckError& e) {
    g_server = nullptr;
    return fail(Error{ErrorCode::ResourceError, e.what()});
  }
}

// --- client -----------------------------------------------------------------

/// Blocking newline-framed reader over a raw fd.
struct LineReader {
  int fd;
  std::string buffer;

  std::optional<std::string> next() {
    while (true) {
      const std::size_t nl = buffer.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer.substr(0, nl);
        buffer.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::read(fd, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return std::nullopt;
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
  }
};

bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Compose the submit frame for the CLI's circuit selection, mirroring the
/// run command's resolution (bench file / xnl file / benchmark name).
Expected<std::string> make_submit(const CliArgs& args, const std::string& id) {
  std::ostringstream os;
  os << "{\"op\":\"submit\",\"id\":\"" << json::escape(id)
     << "\",\"circuit\":{";
  if (looks_like_file(args.circuit)) {
    std::ifstream in(args.circuit);
    if (!in)
      return Error{ErrorCode::ResourceError,
                   "cannot open '" + args.circuit + "' for reading"};
    std::ostringstream text;
    text << in.rdbuf();
    os << "\"format\":\""
       << (looks_like_bench_file(args.circuit) ? "bench" : "xnl")
       << "\",\"text\":\"" << json::escape(text.str()) << '"';
  } else {
    os << "\"format\":\"benchmark\",\"name\":\"" << json::escape(args.circuit)
       << '"';
  }
  os << ",\"style\":\""
     << (args.style == SynthStyle::BoundedDelay ? "bd" : "si") << "\"}"
     << ",\"faults\":\"" << args.faults << "\",\"progress\":"
     << (args.progress ? "true" : "false")
     << ",\"options\":{\"threads\":" << args.options.threads
     << ",\"seed\":" << args.options.seed << ",\"k\":" << args.options.k
     << ",\"random_budget\":" << args.options.random_budget;
  if (args.options.reorder.enabled) os << ",\"reorder\":true";
  if (args.options.classify_undetectable) os << ",\"classify\":true";
  os << "}}\n";
  return os.str();
}

int cmd_client(const CliArgs& args) {
  int in_fd = -1;   // daemon -> client
  int out_fd = -1;  // client -> daemon
  pid_t daemon_pid = -1;

  if (args.pipe) {
    // Fork our own binary as the daemon: client stdin/stdout stay free for
    // the user, the daemon's stdin/stdout become the wire.
    int to_daemon[2];
    int from_daemon[2];
    if (::pipe(to_daemon) != 0 || ::pipe(from_daemon) != 0)
      return fail(Error{ErrorCode::ResourceError, "cannot create pipes"});
    daemon_pid = ::fork();
    if (daemon_pid < 0)
      return fail(Error{ErrorCode::ResourceError, "fork failed"});
    if (daemon_pid == 0) {
      ::dup2(to_daemon[0], STDIN_FILENO);
      ::dup2(from_daemon[1], STDOUT_FILENO);
      ::close(to_daemon[0]);
      ::close(to_daemon[1]);
      ::close(from_daemon[0]);
      ::close(from_daemon[1]);
      const std::string workers = std::to_string(args.serve_workers);
      const std::string capacity = std::to_string(args.queue_capacity);
      const std::string cache = std::to_string(args.cache_bytes);
      ::execl("/proc/self/exe", "xatpg", "serve", "--pipe", "--serve-workers",
              workers.c_str(), "--queue-capacity", capacity.c_str(),
              "--cache-bytes", cache.c_str(), static_cast<char*>(nullptr));
      std::perror("xatpg client: exec daemon");
      std::_Exit(127);
    }
    ::close(to_daemon[0]);
    ::close(from_daemon[1]);
    out_fd = to_daemon[1];
    in_fd = from_daemon[0];
  } else {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (fd < 0 || args.socket_path.size() >= sizeof(addr.sun_path))
      return fail(Error{ErrorCode::ResourceError, "cannot create socket"});
    std::strncpy(addr.sun_path, args.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
      return fail(Error{ErrorCode::ResourceError,
                        "cannot connect to '" + args.socket_path + "'"});
    in_fd = out_fd = fd;
  }

  LineReader reader{in_fd, {}};
  bool all_ok = true;
  // Echo every received frame verbatim: the client's stdout IS the
  // machine-readable transcript the CI smoke validates.
  const auto frame_type = [](const std::string& line) -> std::string {
    try {
      return json::string_field(json::parse(line), "type");
    } catch (const CheckError&) {
      return {};
    }
  };

  for (std::size_t i = 1; i <= args.repeat && all_ok; ++i) {
    const Expected<std::string> submit = make_submit(args, "job-" + std::to_string(i));
    if (!submit) return fail(submit.error());
    if (!write_all(out_fd, submit.value()))
      return fail(Error{ErrorCode::ResourceError, "daemon pipe closed"});
    while (true) {
      const std::optional<std::string> line = reader.next();
      if (!line) {
        return fail(Error{ErrorCode::ResourceError,
                          "daemon closed the stream mid-job"});
      }
      std::cout << *line << "\n";
      const std::string type = frame_type(*line);
      if (type == "error" || type == "cancelled") {
        all_ok = false;
        break;
      }
      if (type == "result") break;
    }
  }

  // One stats frame at the end so cache hit/miss behaviour is visible in
  // the transcript.
  if (write_all(out_fd, "{\"op\":\"stats\"}\n")) {
    for (std::optional<std::string> line = reader.next(); line;
         line = reader.next()) {
      std::cout << *line << "\n";
      if (frame_type(*line) == "stats") break;
    }
  }

  if (args.shutdown_mode == "sigterm") {
    ::kill(daemon_pid, SIGTERM);
  } else {
    write_all(out_fd, "{\"op\":\"shutdown\"}\n");
  }
  // Drain to EOF (echoing the bye frame), then collect the daemon.
  for (std::optional<std::string> line = reader.next(); line;
       line = reader.next())
    std::cout << *line << "\n";
  ::close(out_fd);
  if (in_fd != out_fd) ::close(in_fd);

  if (daemon_pid > 0) {
    int status = 0;
    ::waitpid(daemon_pid, &status, 0);
    const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    std::cerr << "xatpg client: daemon "
              << (clean ? "exited 0" : "exited abnormally") << "\n";
    if (!clean) return 1;
  }
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto started = Clock::now();
  if (argc < 2) return usage(argv[0]);
  CliArgs args;
  if (!parse_args(argc, argv, args)) return usage(argv[0]);

  std::ofstream file;
  if (!args.out.empty()) {
    file.open(args.out);
    if (!file)
      return fail(Error{ErrorCode::ResourceError,
                        "cannot open '" + args.out + "' for writing"});
  }
  std::ostream& out = args.out.empty() ? std::cout : file;

  if (args.command == "bench") return cmd_bench(args, out);
  if (args.command == "serve") return cmd_serve(args);
  if (args.command == "client") return cmd_client(args);

  const auto build_start = Clock::now();
  Expected<Session> session =
      looks_like_bench_file(args.circuit)
          ? Session::from_bench_file(args.circuit, args.options)
      : looks_like_file(args.circuit)
          ? Session::from_xnl_file(args.circuit, args.options)
          : Session::from_benchmark(args.circuit, args.style, args.options);
  const double build_ms = ms_since(build_start);
  if (!session) return fail(session.error());

  if (args.command == "run")
    return cmd_run(*session, args, out, started, build_ms);
  if (args.command == "cssg") return cmd_cssg(*session, args, out);
  return cmd_export(*session, args, out);
}
