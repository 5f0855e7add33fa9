#include "serve/protocol.hpp"

#include <sstream>

#include "util/check.hpp"
#include "util/json.hpp"

namespace xatpg::serve {

namespace {

/// Longest client-chosen job id the server will echo back.  Ids ride on
/// every frame for the job, so an unbounded id would let one request inflate
/// every response; 256 bytes is generous for any correlation scheme.
constexpr std::size_t kMaxIdBytes = 256;

Error option_error(std::string message) {
  return Error{ErrorCode::OptionError, std::move(message)};
}

/// Read a non-negative integer option ("threads": 4).  Type errors and
/// negative/fractional values are OptionError-shaped CheckErrors caught by
/// the caller.
std::size_t count_option(const json::Value& options, const char* key,
                         std::size_t fallback) {
  const json::Value* value = options.find(key);
  if (value == nullptr) return fallback;
  XATPG_CHECK_MSG(value->type == json::Value::Type::Number,
                  "option '" << key << "' is not a number");
  // Bound BEFORE casting: for a hostile magnitude like 1e300 the size_t cast
  // itself is UB.  2^53 keeps the round-trip comparison below exact.
  XATPG_CHECK_MSG(value->number >= 0 && value->number <= 9007199254740992.0 &&
                      value->number == static_cast<double>(static_cast<std::size_t>(
                                           value->number)),
                  "option '" << key << "' is not a non-negative integer");
  return static_cast<std::size_t>(value->number);
}

Expected<void> parse_options(const json::Value& options, AtpgOptions& out) {
  // Reject unknown keys instead of ignoring them: an option typo silently
  // falling back to the default would change results with no diagnostic.
  static constexpr const char* kKnown[] = {
      "threads",       "seed",     "k",       "random_budget",
      "random_walk_len", "diff_depth", "diff_node_cap", "reorder",
      "classify"};
  for (const auto& [key, value] : options.object) {
    (void)value;
    bool known = false;
    for (const char* k : kKnown) known = known || key == k;
    if (!known)
      return option_error("unknown option '" + key +
                          "' (known: threads, seed, k, random_budget, "
                          "random_walk_len, diff_depth, diff_node_cap, "
                          "reorder, classify)");
  }
  out.threads = count_option(options, "threads", out.threads);
  out.seed = count_option(options, "seed", static_cast<std::size_t>(out.seed));
  out.k = count_option(options, "k", out.k);
  out.sim.k = out.k;
  out.random_budget = count_option(options, "random_budget", out.random_budget);
  out.random_walk_len =
      count_option(options, "random_walk_len", out.random_walk_len);
  out.diff_depth = count_option(options, "diff_depth", out.diff_depth);
  out.diff_node_cap = count_option(options, "diff_node_cap", out.diff_node_cap);
  out.reorder.enabled =
      json::bool_field(options, "reorder", out.reorder.enabled);
  out.classify_undetectable =
      json::bool_field(options, "classify", out.classify_undetectable);
  return {};
}

}  // namespace

Expected<Request> parse_request(const std::string& line,
                                const AtpgOptions& defaults) {
  json::Value root;
  try {
    root = json::parse(line);
  } catch (const CheckError& e) {
    return Error{ErrorCode::ParseError,
                 std::string("malformed request: ") + e.what()};
  }
  if (root.type != json::Value::Type::Object)
    return Error{ErrorCode::ParseError, "request is not a JSON object"};

  Request request;
  request.options = defaults;
  try {
    const std::string op = json::string_field(root, "op");
    request.id = json::string_field(root, "id");
    if (request.id.size() > kMaxIdBytes)
      return option_error("job id exceeds " + std::to_string(kMaxIdBytes) +
                          " bytes");
    if (op == "ping") {
      request.op = Request::Op::Ping;
      return request;
    }
    if (op == "stats") {
      request.op = Request::Op::Stats;
      return request;
    }
    if (op == "shutdown") {
      request.op = Request::Op::Shutdown;
      return request;
    }
    if (op == "cancel") {
      request.op = Request::Op::Cancel;
      if (request.id.empty()) return option_error("cancel needs a job 'id'");
      return request;
    }
    if (op != "submit")
      return option_error("unknown op '" + op +
                          "' (known: submit, cancel, stats, ping, shutdown)");

    request.op = Request::Op::Submit;
    if (request.id.empty()) return option_error("submit needs a job 'id'");

    const json::Value* circuit = root.find("circuit");
    if (circuit == nullptr || circuit->type != json::Value::Type::Object)
      return option_error("submit needs a 'circuit' object");
    const std::string format = json::string_field(*circuit, "format");
    if (format == "xnl" || format == "bench") {
      request.format = format == "xnl" ? Request::CircuitFormat::Xnl
                                       : Request::CircuitFormat::Bench;
      request.circuit_text = json::string_field(*circuit, "text");
      if (request.circuit_text.empty())
        return option_error("circuit format '" + format +
                            "' needs a non-empty 'text'");
    } else if (format == "benchmark") {
      request.format = Request::CircuitFormat::Benchmark;
      request.benchmark = json::string_field(*circuit, "name");
      if (request.benchmark.empty())
        return option_error("circuit format 'benchmark' needs a 'name'");
    } else {
      return option_error("unknown circuit format '" + format +
                          "' (known: xnl, bench, benchmark)");
    }
    const std::string style = json::string_field(*circuit, "style");
    if (style == "bd") {
      request.style = SynthStyle::BoundedDelay;
    } else if (!style.empty() && style != "si") {
      return option_error("unknown circuit style '" + style +
                          "' (known: si, bd)");
    }

    if (const json::Value* faults = root.find("faults")) {
      XATPG_CHECK_MSG(faults->type == json::Value::Type::String,
                      "field 'faults' is not a string");
      if (faults->string != "input" && faults->string != "output" &&
          faults->string != "both")
        return option_error("unknown fault universe '" + faults->string +
                            "' (known: input, output, both)");
      request.faults = faults->string;
    }
    request.progress = json::bool_field(root, "progress", false);
    if (const json::Value* options = root.find("options")) {
      if (options->type != json::Value::Type::Object)
        return option_error("'options' is not an object");
      if (const auto parsed = parse_options(*options, request.options);
          !parsed)
        return parsed.error();
    }
  } catch (const CheckError& e) {
    // Wrong-typed fields in a structurally valid frame: the client named a
    // real key but gave it a value of the wrong shape.
    return option_error(e.what());
  }
  return request;
}

// --- responses --------------------------------------------------------------

namespace {

std::ostringstream frame_head(const char* type, const std::string& id) {
  std::ostringstream os;
  os << "{\"v\":" << kProtocolVersion << ",\"type\":\"" << type << '"';
  if (!id.empty()) os << ",\"id\":\"" << json::escape(id) << '"';
  return os;
}

}  // namespace

std::string ack_frame(const std::string& id, std::size_t queue_depth) {
  std::ostringstream os = frame_head("ack", id);
  os << ",\"queue_depth\":" << queue_depth << "}\n";
  return os.str();
}

std::string error_frame(const std::string& id, const Error& error) {
  std::ostringstream os = frame_head("error", id);
  os << ",\"error\":{\"code\":\"" << error_code_name(error.code)
     << "\",\"message\":\"" << json::escape(error.message) << "\"}}\n";
  return os.str();
}

std::string progress_frame(const std::string& id,
                           const RunProgress& progress) {
  std::ostringstream os = frame_head("progress", id);
  os << ",\"phase\":\"" << run_phase_name(progress.phase)
     << "\",\"faults_total\":" << progress.faults_total
     << ",\"faults_resolved\":" << progress.faults_resolved
     << ",\"covered\":" << progress.covered
     << ",\"sequences\":" << progress.sequences_committed
     << ",\"elapsed_seconds\":" << json::number(progress.elapsed_seconds)
     << "}\n";
  return os.str();
}

std::string result_frame(const std::string& id, const std::string& payload,
                         bool cached, double engine_ms) {
  std::ostringstream os = frame_head("result", id);
  os << ",\"cached\":" << (cached ? "true" : "false")
     << ",\"engine_ms\":" << json::number(engine_ms) << ",\"result\":" << payload
     << "}\n";
  return os.str();
}

std::string cancelled_frame(const std::string& id, const std::string& reason) {
  std::ostringstream os = frame_head("cancelled", id);
  os << ",\"reason\":\"" << json::escape(reason) << "\"}\n";
  return os.str();
}

std::string pong_frame() { return frame_head("pong", "").str() + "}\n"; }
std::string bye_frame() { return frame_head("bye", "").str() + "}\n"; }

std::string serialize_result(const std::string& circuit_name,
                             const std::string& faults_spec,
                             const AtpgResult& result) {
  std::ostringstream os;
  const AtpgStats& s = result.stats;
  os << "{\"circuit\":\"" << json::escape(circuit_name) << "\",\"faults\":\""
     << json::escape(faults_spec) << "\",\"cancelled\":"
     << (result.cancelled ? "true" : "false") << ",\"stats\":{\"total\":"
     << s.total_faults << ",\"covered\":" << s.covered << ",\"rnd\":"
     << s.by_random << ",\"three_phase\":" << s.by_three_phase
     << ",\"sim\":" << s.by_fault_sim << ",\"undetected\":" << s.undetected
     << ",\"proven_redundant\":" << s.proven_redundant
     << ",\"gave_up\":" << s.gave_up
     << ",\"coverage\":" << json::number(s.coverage()) << "},\"outcomes\":[";
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    const FaultOutcome& o = result.outcomes[i];
    os << (i == 0 ? "" : ",") << '['
       << (o.fault.site == Fault::Site::GatePin ? 0 : 1) << ',' << o.fault.gate
       << ',' << o.fault.pin << ',' << (o.fault.stuck_value ? 1 : 0) << ','
       << static_cast<int>(o.covered_by) << ',' << o.sequence_index << ','
       << (o.proven_redundant ? 1 : 0) << ',' << (o.gave_up ? 1 : 0) << ']';
  }
  os << "],\"sequences\":[";
  for (std::size_t i = 0; i < result.sequences.size(); ++i) {
    os << (i == 0 ? "" : ",") << '[';
    const TestSequence& seq = result.sequences[i];
    for (std::size_t v = 0; v < seq.vectors.size(); ++v) {
      os << (v == 0 ? "" : ",") << '"';
      for (const bool bit : seq.vectors[v]) os << (bit ? '1' : '0');
      os << '"';
    }
    os << ']';
  }
  os << "]}";
  return os.str();
}

// --- cache keying -----------------------------------------------------------

std::string options_fingerprint(const AtpgOptions& options) {
  std::ostringstream os;
  // threads, order and the reorder policy are absent by design: the
  // determinism suites (test_parallel_atpg, test_differential) prove results
  // byte-identical across all of them, so including any would only fragment
  // the cache.
  os << "k=" << options.k << ";seed=" << options.seed
     << ";rb=" << options.random_budget << ";rwl=" << options.random_walk_len
     << ";dd=" << options.diff_depth << ";dnc=" << options.diff_node_cap
     << ";simk=" << options.sim.k << ";cc=" << options.sim.candidate_cap
     << ";cls=" << (options.classify_undetectable ? 1 : 0);
  return os.str();
}

std::string cache_key(const std::string& canonical_circuit,
                      const AtpgOptions& options,
                      const std::string& faults_spec) {
  // 0x1f (ASCII unit separator) cannot appear in canonical circuit text or
  // in the fingerprint, so concatenation is collision-free.
  return canonical_circuit + '\x1f' + options_fingerprint(options) + '\x1f' +
         faults_spec;
}

}  // namespace xatpg::serve
