#include "perf/perf.hpp"

#include <utility>

#include "benchmarks/benchmarks.hpp"
#include "netlist/netlist.hpp"
#include "netlist/random_netlist.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"
#include "xatpg/session.hpp"

namespace xatpg::perf {

// ---------------------------------------------------------------------------
// Corpus
// ---------------------------------------------------------------------------

namespace {

// Embedded ISCAS-style workloads.  c17 is the classic NAND mesh; the parity
// tree is the complement-edge showcase shape (every subfunction and its
// negation share nodes); the mux covers AND/OR decode logic with inverted
// selects.
constexpr const char* kC17Bench = R"(# ISCAS-85 c17 (NAND-only mesh)
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
)";

constexpr const char* kParity5Bench = R"(# 5-input XOR parity tree
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
INPUT(e)
OUTPUT(p)
x1 = XOR(a, b)
x2 = XOR(c, d)
x3 = XOR(x1, x2)
p = XOR(x3, e)
)";

constexpr const char* kMux4Bench = R"(# 4:1 multiplexer with decoded selects
INPUT(s0)
INPUT(s1)
INPUT(d0)
INPUT(d1)
INPUT(d2)
INPUT(d3)
OUTPUT(y)
n0 = NOT(s0)
n1 = NOT(s1)
t0 = AND(d0, n0, n1)
t1 = AND(d1, s0, n1)
t2 = AND(d2, n0, s1)
t3 = AND(d3, s0, s1)
o1 = OR(t0, t1)
o2 = OR(t2, t3)
y = OR(o1, o2)
)";

struct RandomFamilyMember {
  std::uint64_t seed;
  std::size_t inputs, gates;
};

// Two shapes x several seeds: the default fixture shape and a wider/deeper
// one.  Deterministic across platforms (the generator draws only from Rng);
// seeds chosen so each member stays around a second even unoptimized — the
// corpus is a tier-1 gate (CorpusGolden.*), not a soak test.
constexpr RandomFamilyMember kRandomFamily[] = {
    {11, 3, 8}, {12, 3, 8}, {13, 3, 8}, {24, 4, 10}, {25, 4, 10},
};

}  // namespace

std::vector<CorpusEntry> default_corpus() {
  std::vector<CorpusEntry> corpus;
  for (const std::string& name : si_benchmark_names()) {
    CorpusEntry entry;
    entry.kind = CorpusEntry::Kind::SiBenchmark;
    entry.id = "si/" + name;
    entry.name = name;
    corpus.push_back(std::move(entry));
  }
  for (const std::string& name : bd_benchmark_names()) {
    CorpusEntry entry;
    entry.kind = CorpusEntry::Kind::BdBenchmark;
    entry.id = "bd/" + name;
    entry.name = name;
    corpus.push_back(std::move(entry));
  }
  for (const RandomFamilyMember& member : kRandomFamily) {
    CorpusEntry entry;
    entry.kind = CorpusEntry::Kind::RandomNetlist;
    entry.id = "rand/s" + std::to_string(member.seed);
    entry.name = "random" + std::to_string(member.seed);
    entry.seed = member.seed;
    entry.rand_inputs = member.inputs;
    entry.rand_gates = member.gates;
    corpus.push_back(std::move(entry));
  }
  const std::pair<const char*, const char*> bench_texts[] = {
      {"c17", kC17Bench}, {"parity5", kParity5Bench}, {"mux4", kMux4Bench}};
  for (const auto& [name, text] : bench_texts) {
    CorpusEntry entry;
    entry.kind = CorpusEntry::Kind::BenchText;
    entry.id = std::string("bench/") + name;
    entry.name = name;
    entry.text = text;
    corpus.push_back(std::move(entry));
  }
  return corpus;
}

// ---------------------------------------------------------------------------
// Running
// ---------------------------------------------------------------------------

SessionRun run_session(const CorpusEntry& entry, const AtpgOptions& options) {
  Timer timer;
  Expected<Session> session = [&]() -> Expected<Session> {
    switch (entry.kind) {
      case CorpusEntry::Kind::SiBenchmark:
        return Session::from_benchmark(entry.name,
                                       SynthStyle::SpeedIndependent, options);
      case CorpusEntry::Kind::BdBenchmark:
        return Session::from_benchmark(entry.name, SynthStyle::BoundedDelay,
                                       options);
      case CorpusEntry::Kind::RandomNetlist: {
        RandomNetlistOptions shape;
        shape.num_inputs = entry.rand_inputs;
        shape.num_gates = entry.rand_gates;
        return Session::from_xnl(
            write_xnl_string(random_netlist(entry.seed, shape)), options);
      }
      case CorpusEntry::Kind::BenchText:
        return Session::from_bench(entry.text, options);
    }
    return Error{ErrorCode::OptionError, "unknown corpus entry kind"};
  }();
  XATPG_CHECK_MSG(session.has_value(), "corpus entry '"
                                           << entry.id << "' failed to build: "
                                           << session.error().to_string());

  Expected<AtpgResult> out_result =
      session->run(session->output_stuck_faults());
  XATPG_CHECK_MSG(out_result.has_value(),
                  "corpus entry '" << entry.id << "' output-stuck run failed: "
                                   << out_result.error().to_string());
  Expected<AtpgResult> in_result = session->run(session->input_stuck_faults());
  XATPG_CHECK_MSG(in_result.has_value(),
                  "corpus entry '" << entry.id << "' input-stuck run failed: "
                                   << in_result.error().to_string());
  const double wall_ms = timer.millis();
  const ShardBddStats bdd = session->bdd_stats();
  return SessionRun{std::move(*session), std::move(*out_result),
                    std::move(*in_result), bdd, wall_ms};
}

}  // namespace xatpg::perf
