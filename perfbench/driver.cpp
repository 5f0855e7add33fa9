// Benchmark driver for the xatpg library.
//
//   perfbench_driver SPEC.json OUT.json
//
// SPEC (written by run.py from the workload seed) names the workload, the
// circuits, how long to measure (at least `min_passes` passes, then more
// while the next one would end within `seconds`) and, for `serve`, each
// client's request list.  The driver sets the workload up, runs the
// measured passes (each one over the same inputs), checks every output it
// can check without a reference, and writes raw measurements to OUT.
// run.py turns them into metrics and compares the digests against the
// recorded reference.
//
// Every layer is timed from outside, around calls into that module's
// public functions: benchmark_circuit (synth), parse_*_string +
// settle_to_stable (netlist), the AtpgEngine constructor (what the Session
// factories build once the circuit is loaded), AtpgEngine::run split by
// RunObserver::on_phase, write_test_program (what Session::test_program
// wraps), and serve::Server over socketpairs.  The driver makes the
// factories' calls itself because Session::from_benchmark synthesises
// inside the factory: timing synthesis apart would otherwise cost a second
// synthesis per circuit.
//
// Outside the timed windows the driver also samples the host's speed with
// a calibration kernel that calls nothing in the library (between circuits,
// and in batches around every pass and set-up batch; run.py scales the
// timings by it), and reads each pass's peak resident set.
//
// With "trace": 1 every second pass is traced.  A traced pass records
// spans in memory and, after each circuit's timed window, runs probes that
// only a traced pass pays for: a standalone Cssg + extract_explicit (the
// symbolic and explicit graph split that the engine constructor hides) and
// a FaultSimulator replay of every covering sequence.
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "atpg/engine.hpp"
#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "benchmarks/benchmarks.hpp"
#include "netlist/netlist.hpp"
#include "netlist/random_netlist.hpp"
#include "perf/perf.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sgraph/cssg.hpp"
#include "sim/explicit.hpp"
#include "sim/ternary.hpp"
#include "util/json.hpp"

namespace {

using namespace xatpg;
using Clock = std::chrono::steady_clock;

const Clock::time_point kOrigin = Clock::now();

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() - kOrigin)
      .count();
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what);
}

// --- host speed ----------------------------------------------------------------

/// One calibration sample: the wall time in ms of a fixed piece of work that
/// calls nothing in the library.  A chain of dependent probes walks a table
/// of `table_kib` KiB at pseudo-random slots (lookups like those into the
/// BDD unique tables and caches) with integer mixing at each step.  The
/// table fits in the core's own cache and is read through once, untimed,
/// before the probes, so the sample does not depend on what ran before it:
/// its time moves only with the host's speed, which on a shared host
/// drifts by tens of percent within a minute.  run.py scales each pass's
/// timings by the samples taken around it.
double calibration_ms(std::size_t table_kib, std::size_t probes) {
  static std::vector<std::uint64_t> table;
  static std::atomic<std::uint64_t> sink{0};
  std::size_t size = 1;
  while (size * 2 <= table_kib * 128) size *= 2;  // 128 words per KiB
  if (table.size() != size) table.assign(size, 0);
  std::uint64_t x = 0;
  for (const std::uint64_t word : table) x += word;
  x ^= 0x9e3779b97f4a7c15ULL;
  const double t0 = now_us();
  for (std::size_t i = 0; i < probes; ++i) {
    std::uint64_t& slot = table[x & (size - 1)];
    x ^= slot + i;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;  // splitmix64 finaliser
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
    slot = x;
  }
  const double ms = (now_us() - t0) / 1000.0;
  sink ^= x;
  return ms;
}

// --- memory ----------------------------------------------------------------------

/// Restarts the process's peak resident set from its current one (Linux:
/// clear_refs 5), so that a pass's peak can be read on its own.
void reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

/// The process's peak resident set in MB since the last reset (VmHWM), or
/// its lifetime peak where /proc does not say.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// --- tracing -----------------------------------------------------------------

struct Span {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  int parent = -1;
  std::string item;  ///< circuit or request id
};

/// In-memory span recorder; a disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  [[nodiscard]] bool on() const { return on_; }
  int open(const std::string& name, const std::string& item, int parent) {
    return open_at(name, item, parent, now_us());
  }
  int open_at(const std::string& name, const std::string& item, int parent,
              double start_us) {
    if (!on_) return -1;
    spans_.push_back({name, start_us, start_us, parent, item});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { close_at(id, now_us()); }
  void close_at(int id, double end_us) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_us = end_us;
  }
  std::vector<Span>& spans() { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
};

/// Opens one span per run phase under `parent`, from the engine's own phase
/// marks.
class PhaseSpans : public RunObserver {
 public:
  PhaseSpans(Tracer& tracer, const std::string& item, int parent)
      : tracer_(tracer), item_(item), parent_(parent) {}
  void on_phase(RunPhase phase) override {
    tracer_.close(open_);
    open_ = -1;
    if (phase == RunPhase::RandomTpg)
      open_ = tracer_.open("atpg.random_tpg", item_, parent_);
    else if (phase == RunPhase::Classify)
      open_ = tracer_.open("atpg.classify", item_, parent_);
    else if (phase == RunPhase::ThreePhase)
      open_ = tracer_.open("atpg.three_phase", item_, parent_);
  }

 private:
  Tracer& tracer_;
  const std::string& item_;
  int parent_;
  int open_ = -1;
};

using Counters = std::map<std::string, double>;

// --- workload inputs ---------------------------------------------------------

struct CircuitSpec {
  std::string id;
  std::string kind;  ///< benchmark | random | parity | embedded
  std::string name;  ///< benchmark / embedded circuit name
  SynthStyle style = SynthStyle::SpeedIndependent;
  std::uint64_t seed = 0;
  std::size_t inputs = 0;
  std::size_t gates = 0;
};

/// A circuit as the program receives it: a benchmark name, or netlist text.
struct Circuit {
  const CircuitSpec* spec = nullptr;
  std::string text;  ///< empty for named benchmarks
  bool xnl = false;  ///< text format: .xnl (true) or .bench
  std::string error;  ///< why the circuit could not be generated
};

/// `prefix` followed by the decimal `n` (a signal or job name).
std::string numbered(char prefix, std::size_t n) {
  std::string name(1, prefix);
  name += std::to_string(n);
  return name;
}

std::string parity_bench(std::size_t inputs) {
  std::ostringstream os;
  os << "# " << inputs << "-input XOR parity tree\n";
  std::vector<std::string> level;
  for (std::size_t i = 0; i < inputs; ++i) {
    level.push_back(numbered('x', i));
    os << "INPUT(" << level.back() << ")\n";
  }
  os << "OUTPUT(p)\n";
  std::size_t next = 0;
  while (level.size() > 1) {
    std::vector<std::string> up;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      up.push_back(level.size() == 2 ? std::string("p") : numbered('t', next++));
      os << up.back() << " = XOR(" << level[i] << ", " << level[i + 1] << ")\n";
    }
    if (level.size() % 2 == 1) up.push_back(level.back());
    level = std::move(up);
  }
  return os.str();
}

void materialise_into(Circuit& c) {
  const CircuitSpec& spec = *c.spec;
  if (spec.kind == "random") {
    RandomNetlistOptions shape;
    shape.num_inputs = spec.inputs;
    shape.num_gates = spec.gates;
    c.text = write_xnl_string(random_netlist(spec.seed, shape));
    c.xnl = true;
  } else if (spec.kind == "parity") {
    c.text = parity_bench(spec.inputs);
  } else if (spec.kind == "embedded") {
    for (const perf::CorpusEntry& e : perf::default_corpus())
      if (e.kind == perf::CorpusEntry::Kind::BenchText && e.name == spec.name)
        c.text = e.text;
    if (c.text.empty()) fail("unknown embedded circuit '" + spec.name + "'");
  } else if (spec.kind == "benchmark") {
    // Builds the STG specification: an unknown name fails here, before
    // anything is timed.
    (void)benchmark_stg(spec.name);
  } else {
    fail("unknown circuit kind '" + spec.kind + "'");
  }
}

Circuit materialise(const CircuitSpec& spec) {
  Circuit c;
  c.spec = &spec;
  try {
    materialise_into(c);
  } catch (const std::exception& e) {
    c.error = e.what();
  }
  return c;
}

// --- output checks -------------------------------------------------------------

std::string hex_digest(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a 64
  for (const unsigned char ch : bytes) {
    h ^= ch;
    h *= 1099511628211ULL;
  }
  std::ostringstream os;
  os << std::hex << h;
  return os.str();
}

std::vector<bool> bits(const std::string& s) {
  std::vector<bool> out;
  for (const char ch : s) out.push_back(ch == '1');
  return out;
}

/// Replays an exported test program from reset through explore_settling,
/// independently of the symbolic CSSG.  Every vector must settle
/// confluently, land on the engine's good state and produce the program's
/// expected outputs; the program must carry exactly `sequences`.  Returns
/// the number of violations.
std::size_t check_program(const std::string& program, const Netlist& netlist,
                          const std::vector<bool>& reset,
                          const AtpgEngine& engine,
                          const std::vector<TestSequence>& sequences,
                          Counters* counters) {
  std::size_t failures = 0, seen = 0;
  std::istringstream in(program);
  std::string line;
  std::size_t seq = 0, t = 0;
  bool in_sequence = false;
  std::vector<bool> state;
  std::optional<std::vector<std::uint32_t>> path;
  std::size_t calls = 0;
  double settle_us = 0;
  // A sequence must end after exactly its own vectors.
  const auto finish = [&] {
    if (in_sequence && t != sequences[seq].vectors.size()) ++failures;
    in_sequence = false;
  };
  while (std::getline(in, line)) {
    if (line.rfind(".sequence ", 0) == 0) {
      finish();
      seq = std::stoul(line.substr(10));
      if (seq != seen++ || seq >= sequences.size()) return failures + 1;
      in_sequence = true;
      t = 0;
      state = reset;
      path = engine.follow(sequences[seq]);
      if (!path) ++failures;
      continue;
    }
    if (!in_sequence || line.empty() || line[0] == '.' || line[0] == '#')
      continue;
    const std::size_t slash = line.find(" / ");
    if (slash == std::string::npos) {
      ++failures;
      continue;
    }
    const std::vector<bool> vector = bits(line.substr(0, slash));
    const std::vector<bool> expected = bits(line.substr(slash + 3));
    if (t >= sequences[seq].vectors.size() ||
        vector != sequences[seq].vectors[t]) {
      ++failures;
      in_sequence = false;
      continue;
    }
    const double t0 = now_us();
    const ExploreResult settled =
        explore_settling(netlist, state, vector, engine.options().k);
    settle_us += now_us() - t0;
    ++calls;
    if (!settled.confluent()) {
      ++failures;
      in_sequence = false;
      continue;
    }
    state = *settled.stable_states.begin();
    std::vector<bool> outputs;
    for (const SignalId po : netlist.outputs()) outputs.push_back(state[po]);
    if (outputs != expected) ++failures;
    if (path && state != engine.graph().states[(*path)[t + 1]]) ++failures;
    ++t;
  }
  finish();
  if (seen != sequences.size()) ++failures;
  if (counters != nullptr) {
    (*counters)["sim.settle_calls"] += static_cast<double>(calls);
    (*counters)["sim.settle_us_total"] += settle_us;
  }
  return failures;
}

std::size_t vector_count(const AtpgResult& result) {
  std::size_t n = 0;
  for (const TestSequence& s : result.sequences) n += s.vectors.size();
  return n;
}

// --- tables / netlists ---------------------------------------------------------

struct ItemRecord {
  std::string id;
  std::string faults;  ///< serve: the request's fault spec
  double ms = 0;
  double admit_ms = -1;  ///< serve: submit -> ack (queued requests only)
  double engine_ms = 0;  ///< serve: the result frame's engine_ms
  bool cached = false;
  std::string digest;
  std::size_t total = 0, covered = 0, vectors = 0, failures = 0;
  std::string error;
};

/// Traced-pass probes after a circuit's timed window: the CSSG split the
/// engine constructor hides, and an exact replay of every covering
/// sequence through a fresh FaultSimulator per fault.  Returns the number
/// of covered faults the replay does not detect (each one a failed check).
std::size_t probe_circuit(const Circuit& c, const Netlist& netlist,
                          const std::vector<bool>& reset,
                          const AtpgEngine& engine,
                          const std::vector<const AtpgResult*>& results,
                          Tracer& tracer, Counters& counters) {
  const AtpgOptions& options = engine.options();
  CssgOptions cssg_options;
  cssg_options.k = options.k;
  cssg_options.order = options.order;
  cssg_options.reorder = options.reorder;
  int span = tracer.open("sgraph.cssg", c.spec->id, -1);
  const Cssg cssg(netlist, {reset}, cssg_options);
  tracer.close(span);
  const CssgStats& stats = cssg.stats();
  counters["sgraph.tcr_pairs"] += stats.tcr_pairs;
  counters["sgraph.cssg_edges"] += stats.cssg_edges;
  counters["sgraph.traversal_iterations"] +=
      static_cast<double>(stats.traversal_iterations);

  span = tracer.open("sgraph.explicit", c.spec->id, -1);
  const ExplicitCssg graph = cssg.extract_explicit();
  tracer.close(span);
  counters["sgraph.explicit_states"] += static_cast<double>(graph.states.size());
  for (const auto& edges : graph.edges)
    counters["sgraph.explicit_edges"] += static_cast<double>(edges.size());

  span = tracer.open("sim.fault_sim", c.spec->id, -1);
  double step_us = 0;
  std::size_t steps = 0, undetected = 0;
  for (const AtpgResult* result : results) {
    for (const FaultOutcome& o : result->outcomes) {
      if (o.sequence_index < 0) continue;
      const TestSequence& seq =
          result->sequences[static_cast<std::size_t>(o.sequence_index)];
      const auto path = engine.follow(seq);
      FaultSimulator sim(netlist, o.fault, reset, options.sim);
      DetectStatus status = DetectStatus::Undetermined;
      for (std::size_t t = 0; path && t < seq.vectors.size(); ++t) {
        const double t0 = now_us();
        status = sim.step(seq.vectors[t], engine.graph().states[(*path)[t + 1]]);
        step_us += now_us() - t0;
        ++steps;
        if (status != DetectStatus::Undetermined) break;
      }
      if (status != DetectStatus::Detected) ++undetected;
    }
  }
  tracer.close(span);
  counters["sim.fault_sim_steps"] += static_cast<double>(steps);
  counters["sim.fault_sim_step_us_total"] += step_us;
  return undetected;
}

/// One circuit from its spec to exported test programs (the timed window),
/// then the untimed output check and, on traced passes, the probes.
ItemRecord run_circuit(const Circuit& c, const AtpgOptions& options,
                       Tracer& tracer, Counters& counters) {
  const std::string& id = c.spec->id;
  const double start = now_us();
  const int circuit_span = tracer.open("circuit", id, -1);

  Netlist netlist;
  std::vector<bool> reset;
  if (c.spec->kind == "benchmark") {
    const int span = tracer.open("synth", id, circuit_span);
    SynthResult synth = benchmark_circuit(c.spec->name, c.spec->style);
    tracer.close(span);
    netlist = std::move(synth.netlist);
    reset = std::move(synth.reset_state);
    if (tracer.on()) {
      counters["synth.calls"] += 1;
      counters["synth.cubes"] += static_cast<double>(synth.num_cubes);
    }
  } else {
    const int span = tracer.open("netlist.parse", id, circuit_span);
    netlist = c.xnl ? parse_xnl_string(c.text) : parse_bench_string(c.text);
    reset.assign(netlist.num_signals(), false);
    if (!settle_to_stable(netlist, reset)) fail(id + ": reset does not settle");
    tracer.close(span);
  }

  int span = tracer.open("atpg.build", id, circuit_span);
  AtpgEngine engine(netlist, reset, options);
  tracer.close(span);

  const double slots = static_cast<double>(std::max<std::size_t>(options.threads, 1));
  auto run = [&](const std::vector<Fault>& faults) {
    const int run_span = tracer.open("atpg.run", id, circuit_span);
    PhaseSpans phases(tracer, id, run_span);
    AtpgResult result =
        engine.run(faults, tracer.on() ? &phases : nullptr, nullptr);
    tracer.close(run_span);
    if (tracer.on()) {
      std::size_t total = 0, most = 0;
      for (const ShardBddStats& s : engine.shard_bdd_stats()) {
        total += s.faults_done;
        most = std::max(most, s.faults_done);
        counters["atpg.blocks_stolen"] += static_cast<double>(s.blocks_stolen);
      }
      counters["atpg.faults_searched"] += static_cast<double>(total);
      counters["atpg.search_critical_path"] += static_cast<double>(most);
      counters["atpg.search_balanced_path"] +=
          static_cast<double>(total) / slots;
    }
    return result;
  };
  const AtpgResult out = run(output_stuck_faults(netlist));
  const AtpgResult in = run(input_stuck_faults(netlist));

  span = tracer.open("atpg.export", id, circuit_span);
  std::ostringstream out_program, in_program;
  write_test_program(out_program, netlist, engine, out.sequences);
  write_test_program(in_program, netlist, engine, in.sequences);
  tracer.close(span);

  ItemRecord record;
  record.id = id;
  record.ms = (now_us() - start) / 1000.0;
  tracer.close(circuit_span);

  // Untimed from here on.
  record.digest = hex_digest(serve::serialize_result(netlist.name(), "output", out) +
                             "\n" +
                             serve::serialize_result(netlist.name(), "input", in));
  record.total = out.stats.total_faults + in.stats.total_faults;
  record.covered = out.stats.covered + in.stats.covered;
  record.vectors = vector_count(out) + vector_count(in);
  Counters* check_counters = tracer.on() ? &counters : nullptr;
  record.failures =
      check_program(out_program.str(), netlist, reset, engine, out.sequences,
                    check_counters) +
      check_program(in_program.str(), netlist, reset, engine, in.sequences,
                    check_counters);

  if (tracer.on()) {
    for (const AtpgResult* r : {&out, &in}) {
      counters["atpg.by_random"] += static_cast<double>(r->stats.by_random);
      counters["atpg.by_three_phase"] +=
          static_cast<double>(r->stats.by_three_phase);
      counters["atpg.by_fault_sim"] += static_cast<double>(r->stats.by_fault_sim);
      counters["atpg.gave_up"] += static_cast<double>(r->stats.gave_up);
    }
    const std::vector<ShardBddStats> shards = engine.shard_bdd_stats();
    double resident = shards.empty() ? 0 : static_cast<double>(shards[0].base_nodes);
    for (const ShardBddStats& s : shards) {
      resident += static_cast<double>(s.delta_peak);
      counters["bdd.cache_lookups"] += static_cast<double>(s.cache_lookups);
      counters["bdd.cache_hits"] += static_cast<double>(s.cache_hits);
    }
    counters["bdd.peak_resident_nodes"] += resident;
    record.failures +=
        probe_circuit(c, netlist, reset, engine, {&out, &in}, tracer, counters);
  }
  return record;
}

// --- serve ------------------------------------------------------------------------

struct ServeRequest {
  std::size_t circuit = 0;
  std::string faults;
  std::string line;
};

/// Blocking NDJSON client half of one socketpair connection.
class Client {
 public:
  explicit Client(int fd) : fd_(fd) {}
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void send(const std::string& line) {
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t n = ::write(fd_, line.data() + off, line.size() - off);
      if (n <= 0) fail("serve: client write failed");
      off += static_cast<std::size_t>(n);
    }
  }

  std::string next_line() {
    while (true) {
      const std::size_t nl = buffer_.find('\n', scanned_);
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        scanned_ = 0;
        return line;
      }
      scanned_ = buffer_.size();
      char chunk[65536];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n <= 0) fail("serve: daemon stream ended");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buffer_;
  std::size_t scanned_ = 0;
};

std::string frame_type(const std::string& frame) {
  const std::string key = "\"type\":\"";
  const std::size_t at = frame.find(key);
  if (at == std::string::npos) return "";
  const std::size_t from = at + key.size();
  return frame.substr(from, frame.find('"', from) - from);
}

std::string submit_line(const Circuit& c, const std::string& faults,
                        const std::string& id) {
  std::ostringstream os;
  os << "{\"op\":\"submit\",\"id\":\"" << id << "\",\"circuit\":";
  if (c.spec->kind == "benchmark")
    os << "{\"format\":\"benchmark\",\"name\":\"" << json::escape(c.spec->name)
       << "\",\"style\":\""
       << (c.spec->style == SynthStyle::BoundedDelay ? "bd" : "si") << "\"}";
  else
    os << "{\"format\":\"" << (c.xnl ? "xnl" : "bench") << "\",\"text\":\""
       << json::escape(c.text) << "\"}";
  os << ",\"faults\":\"" << faults << "\"}\n";
  return os.str();
}

struct Reply {
  double sent_us = 0, ack_us = -1, done_us = 0;
  std::string frame;  ///< terminal frame (result, error or cancelled)
};

/// One closed-loop client: the next request goes out only after the
/// previous one's terminal frame arrived.  Between the two, with nothing
/// in flight, it takes a calibration sample into `samples` and adds the
/// time that took to `sampled_us`.
void client_loop(Client& client, const std::vector<ServeRequest>& requests,
                 std::vector<Reply>& replies, std::size_t calibration_kib,
                 std::size_t calibration_probes, std::vector<double>& samples,
                 double& sampled_us) {
  replies.resize(requests.size());
  std::size_t i = 0;
  try {
    for (; i < requests.size(); ++i) {
      if (i > 0) {
        const double t0 = now_us();
        samples.push_back(calibration_ms(calibration_kib, calibration_probes));
        sampled_us += now_us() - t0;
      }
      Reply& r = replies[i];
      r.sent_us = now_us();
      client.send(requests[i].line);
      while (true) {
        std::string frame = client.next_line();
        const double at = now_us();
        const std::string type = frame_type(frame);
        if (type == "ack") {
          r.ack_us = at;
        } else if (type == "result" || type == "error" || type == "cancelled") {
          r.done_us = at;
          r.frame = std::move(frame);
          break;
        }
      }
    }
  } catch (const std::exception& e) {
    // The stream broke: this request and every later one failed.
    for (; i < requests.size(); ++i) {
      replies[i].frame = e.what();
      replies[i].sent_us = replies[i].done_us = now_us();
    }
  }
}

struct ServeSetup {
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<Client> client;
};

ServeSetup start_daemon(const AtpgOptions& options, std::size_t workers) {
  serve::ServeConfig config;
  config.workers = workers;
  config.cache_bytes = std::size_t{256} << 20;  // the whole stream stays resident
  config.defaults = options;
  ServeSetup s;
  s.server = std::make_unique<serve::Server>(config);
  s.server->start();
  int sv[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) fail("serve: socketpair failed");
  s.server->attach(sv[0], sv[0], /*owns_fds=*/true);
  s.client = std::make_unique<Client>(sv[1]);
  return s;
}

// --- output ---------------------------------------------------------------------

void write_item(std::ostream& os, const ItemRecord& r) {
  os << "{\"id\":\"" << json::escape(r.id) << "\",\"faults\":\"" << r.faults
     << "\",\"ms\":" << json::number(r.ms)
     << ",\"admit_ms\":" << json::number(r.admit_ms)
     << ",\"engine_ms\":" << json::number(r.engine_ms)
     << ",\"cached\":" << (r.cached ? "true" : "false") << ",\"digest\":\""
     << r.digest << "\",\"total\":" << r.total << ",\"covered\":" << r.covered
     << ",\"vectors\":" << r.vectors << ",\"failures\":" << r.failures
     << ",\"error\":\"" << json::escape(r.error) << "\"}";
}

struct Pass {
  bool traced = false;
  double wall_s = 0;
  std::vector<ItemRecord> items;
  Counters counters;
  std::vector<Span> spans;
  /// Calibration samples taken before, during (between circuits) and
  /// after the pass, outside its timed windows.
  std::vector<double> calibration_ms;
  double peak_rss_mb = 0;  ///< peak resident set during the pass
};

void write_numbers(std::ostream& os, const std::vector<double>& values) {
  os << '[';
  for (std::size_t i = 0; i < values.size(); ++i)
    os << (i ? "," : "") << json::number(values[i]);
  os << ']';
}

void write_pass(std::ostream& os, const Pass& p) {
  os << "{\"traced\":" << (p.traced ? "true" : "false")
     << ",\"wall_s\":" << json::number(p.wall_s)
     << ",\"peak_rss_mb\":" << json::number(p.peak_rss_mb) << ",\"calibration_ms\":";
  write_numbers(os, p.calibration_ms);
  os << ",\"items\":[";
  for (std::size_t i = 0; i < p.items.size(); ++i) {
    if (i) os << ',';
    write_item(os, p.items[i]);
  }
  os << "],\"counters\":{";
  bool first = true;
  for (const auto& [k, v] : p.counters) {
    os << (first ? "" : ",") << '"' << k << "\":" << json::number(v);
    first = false;
  }
  os << "},\"spans\":[";
  for (std::size_t i = 0; i < p.spans.size(); ++i) {
    const Span& s = p.spans[i];
    os << (i ? "," : "") << "{\"name\":\"" << s.name
       << "\",\"start_us\":" << json::number(s.start_us)
       << ",\"end_us\":" << json::number(s.end_us) << ",\"parent\":" << s.parent
       << ",\"item\":\"" << json::escape(s.item) << "\"}";
  }
  os << "]}";
}

// --- workloads --------------------------------------------------------------------

struct Spec {
  std::string workload;
  std::size_t min_passes = 1;
  double seconds = 0;  ///< measure for about this long, past min_passes
  bool trace = false;
  std::size_t threads = 1;
  std::size_t setup_batch = 1;  ///< set-ups timed together in one batch
  std::size_t workers = 2;
  /// Calibration: table size, probes per sample, samples per batch.
  std::size_t calibration_kib = 1;
  std::size_t calibration_probes = 1;
  std::size_t calibration_samples = 1;
  std::vector<CircuitSpec> circuits;
  /// tables/netlists: the circuit order of pass i is orders[i % size].
  std::vector<std::vector<std::size_t>> orders;
  /// serve: the request stream of pass i is streams[i % size].
  std::vector<std::vector<ServeRequest>> streams;
};

Spec read_spec(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot read spec '" + path + "'");
  std::stringstream text;
  text << in.rdbuf();
  const json::Value doc = json::parse(text.str());
  Spec spec;
  spec.workload = json::string_field(doc, "workload");
  spec.min_passes = std::max<std::size_t>(json::size_field(doc, "min_passes"), 1);
  spec.seconds = json::num_field(doc, "seconds", 0);
  spec.trace = json::bool_field(doc, "trace", false);
  spec.threads = json::size_field(doc, "threads");
  spec.setup_batch = std::max<std::size_t>(json::size_field(doc, "setup_batch"), 1);
  spec.workers = json::size_field(doc, "workers");
  spec.calibration_kib = std::max<std::size_t>(json::size_field(doc, "calibration_kib"), 1);
  spec.calibration_probes = json::size_field(doc, "calibration_probes");
  spec.calibration_samples =
      std::max<std::size_t>(json::size_field(doc, "calibration_samples"), 1);
  const json::Value* circuits = doc.find("circuits");
  if (circuits == nullptr) fail("spec has no circuits");
  for (const json::Value& c : circuits->array) {
    CircuitSpec cs;
    cs.id = json::string_field(c, "id");
    cs.kind = json::string_field(c, "kind");
    cs.name = json::string_field(c, "name");
    cs.style = json::string_field(c, "style") == "bd" ? SynthStyle::BoundedDelay
                                                      : SynthStyle::SpeedIndependent;
    cs.seed = static_cast<std::uint64_t>(json::num_field(c, "seed", 0));
    cs.inputs = json::size_field(c, "inputs");
    cs.gates = json::size_field(c, "gates");
    spec.circuits.push_back(cs);
  }
  if (const json::Value* orders = doc.find("orders")) {
    for (const json::Value& list : orders->array) {
      if (list.array.size() != spec.circuits.size())
        fail("a pass order must list every circuit once");
      spec.orders.emplace_back();
      for (const json::Value& i : list.array) {
        if (i.number < 0 || i.number >= static_cast<double>(spec.circuits.size()))
          fail("pass order index out of range");
        spec.orders.back().push_back(static_cast<std::size_t>(i.number));
      }
    }
  }
  if (const json::Value* streams = doc.find("streams")) {
    for (const json::Value& list : streams->array) {
      spec.streams.emplace_back();
      for (const json::Value& r : list.array) {
        ServeRequest req;
        req.circuit = json::size_field(r, "circuit");
        req.faults = json::string_field(r, "faults");
        if (req.circuit >= spec.circuits.size()) fail("request circuit out of range");
        spec.streams.back().push_back(req);
      }
    }
  }
  return spec;
}

std::vector<Circuit> setup_circuits(const Spec& spec) {
  std::vector<Circuit> out;
  out.reserve(spec.circuits.size());
  for (const CircuitSpec& c : spec.circuits) out.push_back(materialise(c));
  return out;
}

void calibration_sample(const Spec& spec, std::vector<double>& out) {
  out.push_back(calibration_ms(spec.calibration_kib, spec.calibration_probes));
}

/// A calibration sample after every circuit tracks the host's speed through
/// the pass.
Pass circuit_pass(const Spec& spec, const std::vector<Circuit>& circuits,
                  const std::vector<std::size_t>& order,
                  const AtpgOptions& options, bool traced) {
  Pass pass;
  pass.traced = traced;
  Tracer tracer(traced);
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    if (i > 0)
      calibration_sample(spec, pass.calibration_ms);
    const Circuit& c = circuits[order.empty() ? i : order[i]];
    ItemRecord item;
    try {
      if (!c.error.empty()) fail(c.error);
      item = run_circuit(c, options, tracer, pass.counters);
    } catch (const std::exception& e) {
      item.id = c.spec->id;
      item.error = e.what();
      item.failures = 1;
    }
    pass.wall_s += item.ms / 1000.0;
    pass.items.push_back(std::move(item));
  }
  pass.spans = std::move(tracer.spans());
  return pass;
}

/// Synthesis happens inside the daemon, out of the driver's sight, so a
/// serve pass records no synth spans or counters; the daemon's synthesis
/// time is part of each cold request's non-engine time.
Pass serve_pass(const Spec& spec, const std::vector<Circuit>& circuits,
                const std::vector<ServeRequest>& stream, ServeSetup setup,
                bool traced) {
  Pass pass;
  pass.traced = traced;
  std::vector<Reply> replies;
  double sampled_us = 0;
  const double start = now_us();
  client_loop(*setup.client, stream, replies, spec.calibration_kib,
              spec.calibration_probes, pass.calibration_ms, sampled_us);
  pass.wall_s = (now_us() - start - sampled_us) / 1e6;

  // Untimed: server counters, then drain and stop the daemon.
  setup.client->send("{\"op\":\"stats\"}\n");
  std::string stats_frame;
  do {
    stats_frame = setup.client->next_line();
  } while (frame_type(stats_frame) != "stats");
  const json::Value stats = json::parse(stats_frame);
  pass.counters["serve.rejected"] = json::num_field(stats, "rejected", 0);
  pass.counters["serve.failed"] = json::num_field(stats, "failed", 0);
  setup.server->shutdown();

  Tracer tracer(traced);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const ServeRequest& req = stream[i];
    const Reply& reply = replies[i];
    ItemRecord r;
    r.id = circuits[req.circuit].spec->id;
    r.faults = req.faults;
    r.ms = (reply.done_us - reply.sent_us) / 1000.0;
    if (reply.ack_us >= 0) r.admit_ms = (reply.ack_us - reply.sent_us) / 1000.0;
    const std::string type = frame_type(reply.frame);
    if (type != "result") {
      r.error = reply.frame;
      ++r.failures;
    } else {
      const json::Value frame = json::parse(reply.frame);
      r.cached = json::bool_field(frame, "cached", false);
      r.engine_ms = json::num_field(frame, "engine_ms", 0);
      const std::string key = ",\"result\":";
      const std::size_t at = reply.frame.rfind(key);
      r.digest = hex_digest(reply.frame.substr(
          at + key.size(), reply.frame.size() - at - key.size() - 1));
      const json::Value* result = frame.find("result");
      const json::Value* st = result ? result->find("stats") : nullptr;
      if (st == nullptr) fail("serve: result frame without stats");
      r.total = json::size_field(*st, "total");
      r.covered = json::size_field(*st, "covered");
      if (const json::Value* seqs = result->find("sequences"))
        for (const json::Value& s : seqs->array) r.vectors += s.array.size();
    }
    const int span = tracer.open_at("request", r.id, -1, reply.sent_us);
    if (reply.ack_us >= 0) {
      const int admit = tracer.open_at("serve.admit", r.id, span, reply.sent_us);
      tracer.close_at(admit, reply.ack_us);
    }
    tracer.close_at(span, reply.done_us);
    pass.items.push_back(std::move(r));
  }
  pass.spans = std::move(tracer.spans());
  return pass;
}

int run(const std::string& spec_path, const std::string& out_path) {
  Spec spec = read_spec(spec_path);
  const bool serve = spec.workload == "serve";
  if (!serve && spec.workload != "tables" && spec.workload != "netlists")
    fail("unknown workload '" + spec.workload + "'");
  if (serve && spec.streams.empty()) fail("serve spec has no request stream");
  AtpgOptions options;
  options.threads = spec.threads;

  // Set-up: materialise the inputs and, for serve, start a daemon.  One
  // set-up takes well under a millisecond, too little to time steadily, so
  // each batch times `setup_batch` of them (daemon shutdown excluded) and
  // reports their mean; run.py takes the median over the batches.
  auto set_up = [&](std::vector<Circuit>& circuits, ServeSetup* daemon,
                    std::vector<ServeRequest>* stream) {
    const double t0 = now_us();
    circuits = setup_circuits(spec);
    if (daemon != nullptr) {
      *daemon = start_daemon(options, spec.workers);
      for (std::size_t i = 0; i < stream->size(); ++i)
        (*stream)[i].line = submit_line(circuits[(*stream)[i].circuit],
                                        (*stream)[i].faults, numbered('q', i));
    }
    return now_us() - t0;
  };
  // A calibration batch before every set-up batch and after the last pass.
  const auto calibration_batch = [&] {
    std::vector<double> samples;
    for (std::size_t i = 0; i < spec.calibration_samples; ++i)
      calibration_sample(spec, samples);
    return samples;
  };
  std::vector<double> setup_s;
  std::vector<std::vector<double>> setup_calibration_ms;
  // A batch before every pass (the pass runs on the batch's last set-up)
  // and one after the last pass: the host's speed drifts over seconds, so
  // the batches sample it across the whole run, as the passes do.  Each
  // batch follows a calibration batch, by which run.py scales it.
  const auto setup_batch = [&](std::vector<Circuit>& circuits, ServeSetup& daemon,
                               std::size_t pass) {
    setup_calibration_ms.push_back(calibration_batch());
    std::vector<ServeRequest>* stream =
        serve ? &spec.streams[pass % spec.streams.size()] : nullptr;
    double batch_us = 0;
    for (std::size_t i = 0; i < spec.setup_batch; ++i) {
      if (daemon.server) daemon.server->shutdown();
      daemon = ServeSetup{};
      batch_us += set_up(circuits, serve ? &daemon : nullptr, stream);
    }
    setup_s.push_back(batch_us / static_cast<double>(spec.setup_batch) / 1e6);
  };

  // At least `min_passes` passes, then more while the next one, at the mean
  // pass time so far, would end within `seconds`.
  std::vector<Pass> passes;
  const double measure_start = now_us();
  const auto another = [&](std::size_t done) {
    if (done < spec.min_passes) return true;
    const double elapsed_s = (now_us() - measure_start) / 1e6;
    return elapsed_s / static_cast<double>(done) * static_cast<double>(done + 1) <=
           spec.seconds;
  };
  // A pass's calibration samples are the batches before and after it
  // (the latter taken before the next pass's set-up) and those within it.
  for (std::size_t i = 0; another(i); ++i) {
    const bool traced = spec.trace && i % 2 == 1;
    std::vector<Circuit> circuits;
    ServeSetup daemon;
    setup_batch(circuits, daemon, i);
    reset_peak_rss();
    Pass pass;
    if (serve) {
      pass = serve_pass(spec, circuits, spec.streams[i % spec.streams.size()],
                        std::move(daemon), traced);
    } else {
      const std::vector<std::size_t> given_order;
      pass = circuit_pass(
          spec, circuits,
          spec.orders.empty() ? given_order : spec.orders[i % spec.orders.size()],
          options, traced);
    }
    pass.peak_rss_mb = peak_rss_mb();
    const std::vector<double>& before = setup_calibration_ms.back();
    pass.calibration_ms.insert(pass.calibration_ms.end(), before.begin(), before.end());
    passes.push_back(std::move(pass));
  }
  {
    std::vector<Circuit> circuits;
    ServeSetup daemon;
    setup_batch(circuits, daemon, passes.size());
    if (daemon.server) daemon.server->shutdown();
  }
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const std::vector<double>& after = setup_calibration_ms[i + 1];
    passes[i].calibration_ms.insert(passes[i].calibration_ms.end(), after.begin(),
                                    after.end());
  }

  std::ofstream out(out_path);
  out << "{\"workload\":\"" << spec.workload << "\",\"setup_s\":";
  write_numbers(out, setup_s);
  out << ",\"setup_calibration_ms\":[";
  for (std::size_t i = 0; i < setup_calibration_ms.size(); ++i) {
    if (i) out << ',';
    write_numbers(out, setup_calibration_ms[i]);
  }
  out << "],\"passes\":[";
  for (std::size_t i = 0; i < passes.size(); ++i) {
    if (i) out << ',';
    write_pass(out, passes[i]);
  }
  out << "]}\n";
  if (!out) fail("cannot write '" + out_path + "'");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::cerr << "usage: perfbench_driver SPEC.json OUT.json\n";
    return 2;
  }
  // A daemon writing its bye frame to a closed client must not kill us.
  ::signal(SIGPIPE, SIG_IGN);
  try {
    return run(argv[1], argv[2]);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
}
