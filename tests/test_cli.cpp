// CLI exit-code contract suite: every typed failure must exit 1 and print
// exactly one protocol error frame — {"v":1,"type":"error","error":{...}} —
// on stderr, with the taxonomy code a script can dispatch on; usage errors
// exit 2; successes exit 0 with stderr silent.  Drives the installed binary
// (XATPG_CLI_BIN, injected by CMake) as a subprocess, so what is tested is
// exactly what a shell sees.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "fixtures.hpp"
#include "serve/protocol.hpp"
#include "util/json.hpp"
#include "xatpg/session.hpp"

namespace {

using xatpg::json::parse;
using xatpg::json::string_field;
using xatpg::json::Value;

struct CliResult {
  int exit_code = -1;
  std::string out;
  std::string err;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Run `xatpg <args>` with stdout/stderr captured to temp files.
CliResult run_cli(const std::string& args) {
  const std::string out_path = ::testing::TempDir() + "cli_stdout.txt";
  const std::string err_path = ::testing::TempDir() + "cli_stderr.txt";
  const std::string command = std::string(XATPG_CLI_BIN) + " " + args + " >" +
                              out_path + " 2>" + err_path;
  const int status = std::system(command.c_str());
  CliResult result;
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  result.out = slurp(out_path);
  result.err = slurp(err_path);
  std::remove(out_path.c_str());
  std::remove(err_path.c_str());
  return result;
}

/// Assert stderr is one protocol error frame and return its taxonomy code.
std::string error_code_of(const CliResult& result) {
  const Value root = parse(result.err);
  EXPECT_EQ(root.type, Value::Type::Object) << result.err;
  EXPECT_EQ(xatpg::json::num_field(root, "v", 0), xatpg::serve::kProtocolVersion);
  EXPECT_EQ(string_field(root, "type"), "error");
  const Value* error = root.find("error");
  if (error == nullptr || error->type != Value::Type::Object) {
    ADD_FAILURE() << "no error object in: " << result.err;
    return {};
  }
  EXPECT_FALSE(string_field(*error, "message").empty());
  return string_field(*error, "code");
}

TEST(CliContract, SuccessExitsZeroWithSilentStderr) {
  const CliResult result = run_cli("run --circuit fig1a --json");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.err.empty()) << result.err;
  EXPECT_NE(result.out.find("\"coverage\""), std::string::npos);
}

TEST(CliContract, RunJsonTimesTheBuildTheRunsAndTheWall) {
  // build_ms covers the Session factory (synthesis, the symbolic CSSG and
  // the explicit graph); wall_ms runs from the start of main, so it holds
  // the build.
  const CliResult result = run_cli("run --circuit fig1a --json");
  ASSERT_EQ(result.exit_code, 0) << result.err;
  const Value root = parse(result.out);
  const Value* timing = root.find("timing");
  ASSERT_NE(timing, nullptr) << result.out;
  ASSERT_EQ(timing->type, Value::Type::Object) << result.out;
  for (const char* key : {"build_ms", "run_ms", "wall_ms"})
    EXPECT_NE(timing->find(key), nullptr) << key << " in " << result.out;
  const double build_ms = xatpg::json::num_field(*timing, "build_ms", -1);
  EXPECT_GT(build_ms, 0) << result.out;
  EXPECT_GE(xatpg::json::num_field(*timing, "wall_ms", -1), build_ms)
      << result.out;
  EXPECT_EQ(root.find("cpu_ms"), nullptr) << result.out;
}

TEST(CliContract, RunJsonReportsEachUniversesSimulationWork) {
  // The work counts (exact simulation, explicit lists) are deterministic,
  // so the CLI prints what a Session run of the same universes counts.
  const CliResult result = run_cli("run --circuit chu150 --json");
  ASSERT_EQ(result.exit_code, 0) << result.err;
  auto session = xatpg::Session::from_benchmark(
      "chu150", xatpg::SynthStyle::SpeedIndependent);
  ASSERT_TRUE(session.has_value());
  const auto out = session->run(session->output_stuck_faults());
  const auto in = session->run(session->input_stuck_faults());
  ASSERT_TRUE(out.has_value() && in.has_value());
  const Value root = parse(result.out);
  for (const auto& [key, stats] : {std::pair{"output_stuck", out->stats},
                                   std::pair{"input_stuck", in->stats}}) {
    const Value* universe = root.find(key);
    ASSERT_NE(universe, nullptr) << key << " in " << result.out;
    const Value* work = universe->find("work");
    ASSERT_NE(work, nullptr) << key << " in " << result.out;
    ASSERT_EQ(work->type, Value::Type::Object) << result.out;
    EXPECT_EQ(xatpg::json::num_field(*work, "sim_steps", -1),
              static_cast<double>(stats.sim_steps));
    EXPECT_EQ(xatpg::json::num_field(*work, "settles", -1),
              static_cast<double>(stats.settles));
    EXPECT_EQ(xatpg::json::num_field(*work, "settles_memoized", -1),
              static_cast<double>(stats.settles_memoized));
    EXPECT_EQ(xatpg::json::num_field(*work, "lists_built", -1),
              static_cast<double>(stats.lists_built));
    EXPECT_EQ(xatpg::json::num_field(*work, "list_ids", -1),
              static_cast<double>(stats.list_ids));
    EXPECT_GT(stats.settles_memoized, 0u) << key;
  }
  // So are the BDD manager's counters, read after both runs.
  const xatpg::ShardBddStats bdd = session->bdd_stats();
  const Value* bdd_json = root.find("bdd");
  ASSERT_NE(bdd_json, nullptr) << result.out;
  EXPECT_EQ(xatpg::json::num_field(*bdd_json, "cache_lookups", -1),
            static_cast<double>(bdd.cache_lookups));
  EXPECT_EQ(xatpg::json::num_field(*bdd_json, "cache_hits", -1),
            static_cast<double>(bdd.cache_hits));
  EXPECT_EQ(xatpg::json::num_field(*bdd_json, "collections", -1),
            static_cast<double>(bdd.collections));
}

TEST(CliContract, BenchFamilyPrintsTheReproductionWithSilentStderr) {
  const CliResult result = run_cli("bench --family fig1");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.err.empty()) << result.err;
  EXPECT_EQ(result.out.rfind("Figure 1: ", 0), 0u) << result.out;
}

TEST(CliContract, UnknownBenchmarkIsOptionErrorJson) {
  const CliResult result = run_cli("run --circuit no_such_benchmark");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_EQ(error_code_of(result), "OptionError");
}

TEST(CliContract, DegenerateOptionsAreOptionErrorJson) {
  // k = 0 makes every vector "oscillate"; AtpgOptions::validate rejects it.
  const CliResult result = run_cli("run --circuit fig1a --k 0");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_EQ(error_code_of(result), "OptionError");
  // The paper's tables take the same options and the same gate.
  const CliResult family = run_cli("bench --family table1 --k 0");
  EXPECT_EQ(family.exit_code, 1);
  EXPECT_EQ(error_code_of(family), "OptionError");
}

TEST(CliContract, MalformedCircuitIsParseErrorJson) {
  const std::string path = ::testing::TempDir() + "cli_malformed.xnl";
  std::ofstream(path) << "this is ( not a netlist\n";
  const CliResult result = run_cli("run --circuit " + path);
  std::remove(path.c_str());
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_EQ(error_code_of(result), "ParseError");
}

TEST(CliContract, MissingFileIsResourceErrorJson) {
  const CliResult result =
      run_cli("run --circuit /nonexistent/definitely_missing.xnl");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_EQ(error_code_of(result), "ResourceError");
}

// SynthError has no in-tree CLI trigger: every shipped benchmark satisfies
// CSC under both styles (verified by sweeping `cssg --style bd` over the
// full name list), so the synthesis-failure branch cannot be reached from
// the command line with checked-in inputs.  The frame shape for the code is
// covered here at the unit level so the printer's contract still holds the
// day a failing specification lands.
TEST(CliContract, SynthErrorFrameShapeIsWellFormed) {
  const std::string frame = xatpg::serve::error_frame(
      "", xatpg::Error{xatpg::ErrorCode::SynthError, "CSC violation"});
  const Value root = parse(frame);
  EXPECT_EQ(string_field(root, "type"), "error");
  EXPECT_EQ(string_field(*root.find("error"), "code"), "SynthError");
}

TEST(CliContract, CssgJsonPrintsCountsExactly) {
  // A 10-input parity tree has over a million CSSG edges: six significant
  // digits would round them.
  const std::string path = ::testing::TempDir() + "cli_parity10.xnl";
  std::ofstream(path) << xatpg::write_xnl_string(
      xatpg::fixtures::parity_tree(10).netlist);
  const CliResult result = run_cli("cssg --circuit " + path + " --json");
  const auto session = xatpg::Session::from_xnl_file(path);
  std::remove(path.c_str());
  ASSERT_EQ(result.exit_code, 0) << result.err;
  ASSERT_TRUE(session.has_value());
  const xatpg::CssgStats& stats = session->cssg_stats();
  ASSERT_GT(stats.cssg_edges, 1e6);
  const Value root = parse(result.out);
  EXPECT_EQ(xatpg::json::num_field(root, "cssg_edges", 0), stats.cssg_edges);
  EXPECT_EQ(xatpg::json::num_field(root, "tcr_pairs", 0), stats.tcr_pairs);
  EXPECT_EQ(xatpg::json::num_field(root, "reachable_states", 0),
            stats.reachable_states);
}

TEST(CliContract, CssgTextPrintsCountsExactly) {
  // The text output prints the counts as --json does: a 10-input parity
  // tree's million-plus CSSG edges in full, not in six significant digits.
  const std::string path = ::testing::TempDir() + "cli_parity10_text.xnl";
  std::ofstream(path) << xatpg::write_xnl_string(
      xatpg::fixtures::parity_tree(10).netlist);
  const CliResult result = run_cli("cssg --circuit " + path);
  const auto session = xatpg::Session::from_xnl_file(path);
  std::remove(path.c_str());
  ASSERT_EQ(result.exit_code, 0) << result.err;
  ASSERT_TRUE(session.has_value());
  const xatpg::CssgStats& stats = session->cssg_stats();
  ASSERT_GT(stats.cssg_edges, 1e6);
  const auto count = [](double value) {
    return std::to_string(static_cast<std::uint64_t>(value));
  };
  for (const std::string& line :
       {"TCSG reachable states: " + count(stats.reachable_states) + " (" +
            count(stats.stable_states) + " stable)",
        "TCR_k pairs:           " + count(stats.tcr_pairs),
        "CSSG edges:            " + count(stats.cssg_edges),
        "CSSG reachable states: " + count(stats.cssg_reachable_states)})
    EXPECT_NE(result.out.find(line + "\n"), std::string::npos)
        << line << "\n" << result.out;
}

TEST(CliContract, UsageErrorsExitTwo) {
  EXPECT_EQ(run_cli("run --no-such-flag").exit_code, 2);
  EXPECT_EQ(run_cli("frobnicate").exit_code, 2);
  // Transport selection for the daemon commands is a usage question too.
  EXPECT_EQ(run_cli("serve").exit_code, 2);
  EXPECT_EQ(run_cli("client --pipe").exit_code, 2);
  // A reproduction is a named fixed experiment; the flags no family reads
  // are refused, not dropped.
  EXPECT_EQ(run_cli("bench --family no_such_family").exit_code, 2);
  EXPECT_EQ(run_cli("bench --family fig1 --threads-sweep").exit_code, 2);
  EXPECT_EQ(run_cli("bench --family fig1 --filter si/").exit_code, 2);
  EXPECT_EQ(run_cli("bench --family fig1 --json").exit_code, 2);
  EXPECT_EQ(run_cli("bench --family fig1 --host ci").exit_code, 2);
  EXPECT_EQ(run_cli("bench --family table1 --random-budget 64").exit_code, 2);
  EXPECT_EQ(run_cli("run --circuit fig1a --random-budget 1048577").exit_code,
            2);
  EXPECT_EQ(run_cli("bench --family ablation_classify --classify").exit_code,
            2);
  EXPECT_EQ(run_cli("bench --family fig1 --progress").exit_code, 2);
  // Every command refuses a flag it does not read, naming the command.
  const CliResult dot = run_cli("run --circuit fig1a --dot");
  EXPECT_EQ(dot.exit_code, 2);
  EXPECT_EQ(dot.err.rfind("run takes no flag '--dot'", 0), 0u) << dot.err;
  EXPECT_EQ(run_cli("run --circuit fig1a --pipe").exit_code, 2);
  EXPECT_EQ(run_cli("cssg --circuit fig1a --repeat 3").exit_code, 2);
  EXPECT_EQ(run_cli("bench --family fig1 --style bd").exit_code, 2);
  // bench prints a reproduction; without --family it lists them.
  const CliResult bare = run_cli("bench");
  EXPECT_EQ(bare.exit_code, 2);
  EXPECT_NE(bare.err.find("table1"), std::string::npos) << bare.err;
  EXPECT_EQ(run_cli("bench-compare a.json b.json").exit_code, 2);
}

}  // namespace
