// write_test_program coverage: golden outputs for fig1a/chu150 plus a
// round-trip that re-parses the exported program and replays it through
// AtpgEngine::follow(), confirming every sequence is a valid CSSG path with
// matching expected primary-output responses.
#include <gtest/gtest.h>

#include <sstream>

#include "atpg/engine.hpp"
#include "benchmarks/benchmarks.hpp"
#include "fixtures.hpp"
#include "util/strings.hpp"

namespace xatpg {
namespace {

AtpgOptions export_options() {
  AtpgOptions options;
  options.random_budget = 24;
  options.random_walk_len = 6;
  options.seed = 5;
  return options;
}

std::string export_program(const Netlist& netlist, AtpgEngine& engine) {
  const AtpgResult result = engine.run(input_stuck_faults(netlist));
  std::ostringstream os;
  write_test_program(os, netlist, engine, result.sequences);
  return os.str();
}

TEST(TestProgramGolden, Fig1a) {
  const fixtures::Circuit c = fixtures::fig1a();
  AtpgEngine engine(c.netlist, c.reset, export_options());
  EXPECT_EQ(export_program(c.netlist, engine),
            "# xatpg synchronous test program for 'fig1a'\n"
            ".inputs A B\n"
            ".outputs y\n"
            ".sequence 0  # apply from reset\n"
            "00 / 0\n"
            "10 / 0\n"
            "11 / 1\n"
            "10 / 1\n"
            "01 / 1\n"
            "11 / 1\n"
            ".end\n");
}

TEST(TestProgramGolden, Chu150) {
  const SynthResult synth =
      benchmark_circuit("chu150", SynthStyle::SpeedIndependent);
  AtpgEngine engine(synth.netlist, synth.reset_state, export_options());
  EXPECT_EQ(export_program(synth.netlist, engine),
            "# xatpg synchronous test program for 'chu150'\n"
            ".inputs r0 r1\n"
            ".outputs ack\n"
            ".sequence 0  # apply from reset\n"
            "01 / 0\n"
            "10 / 0\n"
            "01 / 0\n"
            "11 / 1\n"
            "01 / 1\n"
            "11 / 1\n"
            ".end\n");
}

// --- round trip --------------------------------------------------------------

/// A parsed test program: per sequence, the input vectors and the expected
/// primary-output responses (strings of '0'/'1', one char per output).
struct ParsedProgram {
  std::vector<std::string> inputs;
  std::vector<std::string> outputs;
  std::vector<TestSequence> sequences;
  std::vector<std::vector<std::string>> expected;  ///< per seq, per cycle
  bool saw_end = false;
};

ParsedProgram parse_test_program(const std::string& text) {
  ParsedProgram program;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    const std::string trimmed(trim(line));
    if (trimmed.empty()) continue;
    const auto tokens = split_ws(trimmed);
    if (tokens[0] == ".inputs") {
      program.inputs.assign(tokens.begin() + 1, tokens.end());
    } else if (tokens[0] == ".outputs") {
      program.outputs.assign(tokens.begin() + 1, tokens.end());
    } else if (tokens[0] == ".sequence") {
      program.sequences.emplace_back();
      program.expected.emplace_back();
    } else if (tokens[0] == ".end") {
      program.saw_end = true;
    } else {
      // "vector / response"
      EXPECT_EQ(tokens.size(), 3u) << trimmed;
      EXPECT_EQ(tokens[1], "/");
      if (tokens.size() != 3 || program.sequences.empty()) continue;
      std::vector<bool> vec;
      for (const char c : tokens[0]) vec.push_back(c == '1');
      program.sequences.back().vectors.push_back(vec);
      program.expected.back().push_back(tokens[2]);
    }
  }
  return program;
}

void check_round_trip(const Netlist& netlist, const std::vector<bool>& reset) {
  AtpgEngine engine(netlist, reset, export_options());
  const AtpgResult result = engine.run(input_stuck_faults(netlist));
  std::ostringstream os;
  write_test_program(os, netlist, engine, result.sequences);

  const ParsedProgram program = parse_test_program(os.str());
  EXPECT_TRUE(program.saw_end);

  // Header names match the netlist, in order.
  ASSERT_EQ(program.inputs.size(), netlist.inputs().size());
  for (std::size_t i = 0; i < program.inputs.size(); ++i)
    EXPECT_EQ(program.inputs[i], netlist.signal_name(netlist.inputs()[i]));
  ASSERT_EQ(program.outputs.size(), netlist.outputs().size());
  for (std::size_t i = 0; i < program.outputs.size(); ++i)
    EXPECT_EQ(program.outputs[i], netlist.signal_name(netlist.outputs()[i]));

  // The exported sequences round-trip bit-exactly.
  ASSERT_EQ(program.sequences.size(), result.sequences.size());
  for (std::size_t s = 0; s < program.sequences.size(); ++s)
    EXPECT_EQ(program.sequences[s], result.sequences[s]) << "sequence " << s;

  // Every re-parsed sequence is a valid CSSG path from reset, and the
  // expected responses printed next to each vector are exactly the good
  // circuit's primary-output values along that path.
  for (std::size_t s = 0; s < program.sequences.size(); ++s) {
    const auto path = engine.follow(program.sequences[s]);
    ASSERT_TRUE(path.has_value()) << "sequence " << s << " is not CSSG-valid";
    ASSERT_EQ(program.expected[s].size(), program.sequences[s].vectors.size());
    for (std::size_t t = 0; t < program.expected[s].size(); ++t) {
      const auto& state = engine.graph().states[(*path)[t + 1]];
      std::string response;
      for (const SignalId po : netlist.outputs())
        response += state[po] ? '1' : '0';
      EXPECT_EQ(program.expected[s][t], response)
          << "sequence " << s << " cycle " << t;
    }
  }
}

TEST(TestProgramRoundTrip, Fig1a) {
  const fixtures::Circuit c = fixtures::fig1a();
  check_round_trip(c.netlist, c.reset);
}

TEST(TestProgramRoundTrip, Chu150) {
  const SynthResult synth =
      benchmark_circuit("chu150", SynthStyle::SpeedIndependent);
  check_round_trip(synth.netlist, synth.reset_state);
}

TEST(TestProgramRoundTrip, Pipeline2) {
  const fixtures::Circuit c = fixtures::pipeline2();
  check_round_trip(c.netlist, c.reset);
}

// Foreign sequences (not CSSG-valid) are rejected loudly rather than
// exported as an unreplayable program.
TEST(TestProgramExportErrors, InvalidSequenceThrows) {
  const fixtures::Circuit c = fixtures::celem();
  AtpgEngine engine(c.netlist, c.reset, export_options());
  TestSequence bogus;
  bogus.vectors.push_back(std::vector<bool>{true});  // wrong arity: not an edge
  std::ostringstream os;
  EXPECT_THROW(write_test_program(os, c.netlist, engine, {bogus}), CheckError);
}

}  // namespace
}  // namespace xatpg
