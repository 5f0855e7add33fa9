// Implementation of the xatpg::Session facade (xatpg/session.hpp).
//
// This file is the typed-error boundary of the library: every internal
// failure mode (CheckError from the parser/synthesizer/engine, unknown
// benchmark names, degenerate options, invalid fault specs) is translated
// into an xatpg::Error here, so nothing below ever aborts a consumer's
// process.
#include "xatpg/session.hpp"

#include <fstream>
#include <sstream>
#include <utility>

#include "atpg/engine.hpp"
#include "atpg/fault.hpp"
#include "benchmarks/benchmarks.hpp"
#include "netlist/netlist.hpp"
#include "sim/ternary.hpp"
#include "synth/synth.hpp"
#include "util/check.hpp"

namespace xatpg {

struct Session::Impl {
  Netlist netlist;
  std::vector<bool> reset;
  AtpgOptions options;
  std::unique_ptr<AtpgEngine> engine;
  std::optional<AtpgResult> result;
  /// Reentrancy sentinel for the one-run-at-a-time contract (session.hpp).
  std::atomic<bool> running{false};
};

namespace {

/// Enforces the one-run-at-a-time contract: entering run()/add_faults()
/// while another run is active on the same Session (from another server
/// worker, or reentrantly from an observer callback) is a consumer
/// programming error, so it throws CheckError — deliberately constructed
/// BEFORE the typed-error try block so the violation stays loud instead of
/// being translated into a ResourceError the caller might retry.
class RunGuard {
 public:
  explicit RunGuard(std::atomic<bool>& running) : running_(running) {
    XATPG_CHECK_MSG(
        !running_.exchange(true, std::memory_order_acq_rel),
        "Session::run entered while another run is active on the same "
        "Session — a Session supports one run at a time (use one Session "
        "per job; see xatpg/session.hpp)");
  }
  ~RunGuard() { running_.store(false, std::memory_order_release); }
  RunGuard(const RunGuard&) = delete;
  RunGuard& operator=(const RunGuard&) = delete;

 private:
  std::atomic<bool>& running_;
};

/// Build the engine (the symbolic CSSG) for an already-loaded circuit,
/// translating internal failures into typed errors.
Expected<void> build_engine(const Netlist& netlist,
                            const std::vector<bool>& reset,
                            const AtpgOptions& options,
                            std::unique_ptr<AtpgEngine>& engine) {
  const Expected<void> valid = options.validate();
  if (!valid) return valid.error();
  try {
    engine = std::make_unique<AtpgEngine>(netlist, reset, options);
  } catch (const CheckError& e) {
    return Error{ErrorCode::ResourceError,
                 std::string("building the CSSG abstraction failed: ") +
                     e.what()};
  } catch (const std::bad_alloc&) {
    return Error{ErrorCode::ResourceError,
                 "out of memory building the CSSG abstraction"};
  }
  return {};
}

/// Extract the engine's explicit graph if no run has yet: a graph over the
/// state cap, or one that does not fit in memory, is a ResourceError.
Expected<void> extract_graph(const AtpgEngine& engine) {
  try {
    (void)engine.graph();
  } catch (const CheckError& e) {
    return Error{ErrorCode::ResourceError,
                 std::string("building the explicit CSSG failed: ") + e.what()};
  } catch (const std::bad_alloc&) {
    return Error{ErrorCode::ResourceError,
                 "out of memory building the explicit CSSG"};
  }
  return {};
}

Error invalid_fault_error(const Netlist& netlist, const Fault& fault,
                          std::size_t index) {
  std::ostringstream os;
  os << "fault #" << index << " is invalid for circuit '" << netlist.name()
     << "': ";
  if (fault.gate >= netlist.num_signals()) {
    os << "gate id " << fault.gate << " out of range (" << netlist.num_signals()
       << " signals)";
  } else {
    os << "pin " << fault.pin << " out of range for gate '"
       << netlist.signal_name(fault.gate) << "' ("
       << netlist.gate(fault.gate).fanins.size() << " fanins)";
  }
  return Error{ErrorCode::OptionError, os.str()};
}

/// nullopt when every fault names a real site.
std::optional<Error> validate_faults(const Netlist& netlist,
                                     const std::vector<Fault>& faults) {
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const Fault& f = faults[i];
    if (f.gate >= netlist.num_signals())
      return invalid_fault_error(netlist, f, i);
    if (f.site == Fault::Site::GatePin &&
        f.pin >= netlist.gate(f.gate).fanins.size())
      return invalid_fault_error(netlist, f, i);
  }
  return std::nullopt;
}

}  // namespace

Session::Session(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Session::Session(Session&&) noexcept = default;
Session& Session::operator=(Session&&) noexcept = default;
Session::~Session() = default;

namespace {

Expected<std::string> slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    return Error{ErrorCode::ResourceError,
                 "cannot open '" + path + "' for reading"};
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

Expected<Session> Session::from_text(Netlist (*parse)(const std::string&),
                                     const std::string& text,
                                     const AtpgOptions& options) {
  auto impl = std::make_unique<Impl>();
  impl->options = options;
  // `parse` throws CheckError on malformed input.
  try {
    impl->netlist = parse(text);
  } catch (const CheckError& e) {
    return Error{ErrorCode::ParseError, e.what()};
  } catch (const std::bad_alloc&) {
    return Error{ErrorCode::ResourceError, "out of memory parsing the circuit"};
  }
  impl->reset.assign(impl->netlist.num_signals(), false);
  if (!settle_to_stable(impl->netlist, impl->reset))
    return Error{ErrorCode::ResourceError,
                 "circuit '" + impl->netlist.name() +
                     "' does not settle to a stable state from the all-false "
                     "assignment; no test-mode reset state exists"};
  if (const auto built = build_engine(impl->netlist, impl->reset, impl->options, impl->engine); !built)
    return built.error();
  return Session(std::move(impl));
}

Expected<Session> Session::from_xnl(const std::string& text,
                                    const AtpgOptions& options) {
  return from_text(&parse_xnl_string, text, options);
}

Expected<Session> Session::from_xnl_file(const std::string& path,
                                         const AtpgOptions& options) {
  const Expected<std::string> text = slurp(path);
  if (!text) return text.error();
  return from_xnl(text.value(), options);
}

Expected<Session> Session::from_bench(const std::string& text,
                                      const AtpgOptions& options) {
  return from_text(&parse_bench_string, text, options);
}

Expected<Session> Session::from_bench_file(const std::string& path,
                                           const AtpgOptions& options) {
  const Expected<std::string> text = slurp(path);
  if (!text) return text.error();
  return from_bench(text.value(), options);
}

Expected<Session> Session::from_benchmark(const std::string& name,
                                          SynthStyle style,
                                          const AtpgOptions& options) {
  // "No such benchmark" is an option error (the caller named something
  // that does not exist); "the specification does not synthesize" is a
  // synthesis error.
  if (!is_named_circuit(name))
    return Error{ErrorCode::OptionError, "unknown benchmark '" + name + "'"};
  auto impl = std::make_unique<Impl>();
  impl->options = options;
  if (name == "fig1a" || name == "fig1b") {
    impl->netlist = name == "fig1a" ? fig1a_circuit(&impl->reset)
                                    : fig1b_circuit(&impl->reset);
  } else {
    try {
      SynthResult synth = benchmark_circuit(name, style);
      impl->netlist = std::move(synth.netlist);
      impl->reset = std::move(synth.reset_state);
    } catch (const CheckError& e) {
      return Error{ErrorCode::SynthError, e.what()};
    }
  }
  if (const auto built = build_engine(impl->netlist, impl->reset, impl->options, impl->engine); !built)
    return built.error();
  return Session(std::move(impl));
}

const std::string& Session::circuit_name() const {
  return impl_->netlist.name();
}
std::size_t Session::num_inputs() const {
  return impl_->netlist.inputs().size();
}
std::size_t Session::num_outputs() const {
  return impl_->netlist.outputs().size();
}
std::size_t Session::num_signals() const { return impl_->netlist.num_signals(); }
std::size_t Session::num_pins() const { return impl_->netlist.num_pins(); }
std::string Session::circuit_xnl() const {
  return write_xnl_string(impl_->netlist);
}
const std::vector<bool>& Session::reset_state() const { return impl_->reset; }
const AtpgOptions& Session::options() const { return impl_->options; }

const CssgStats& Session::cssg_stats() const {
  return impl_->engine->cssg().stats();
}
Expected<std::string> Session::cssg_dot() const {
  if (const auto built = extract_graph(*impl_->engine); !built)
    return built.error();
  return impl_->engine->cssg().to_dot(impl_->engine->graph());
}

std::vector<Fault> Session::input_stuck_faults() const {
  return xatpg::input_stuck_faults(impl_->netlist);
}
std::vector<Fault> Session::output_stuck_faults() const {
  return xatpg::output_stuck_faults(impl_->netlist);
}
std::string Session::describe(const Fault& fault) const {
  if (validate_faults(impl_->netlist, {fault}).has_value())
    return "<invalid fault>";
  return fault.describe(impl_->netlist);
}

Expected<AtpgResult> Session::run(const std::vector<Fault>& faults,
                                  RunObserver* observer,
                                  const CancelToken* cancel) {
  RunGuard guard(impl_->running);
  if (const auto invalid = validate_faults(impl_->netlist, faults))
    return *invalid;
  try {
    impl_->result = impl_->engine->run(faults, observer, cancel);
    return *impl_->result;
  } catch (const CheckError& e) {
    return Error{ErrorCode::ResourceError, e.what()};
  } catch (const std::bad_alloc&) {
    return Error{ErrorCode::ResourceError, "out of memory during the run"};
  }
}

Expected<AtpgResult> Session::add_faults(const std::vector<Fault>& faults,
                                         RunObserver* observer,
                                         const CancelToken* cancel) {
  RunGuard guard(impl_->running);
  if (const auto invalid = validate_faults(impl_->netlist, faults))
    return *invalid;
  try {
    impl_->result = impl_->engine->add_faults(faults, observer, cancel);
    return *impl_->result;
  } catch (const CheckError& e) {
    return Error{ErrorCode::ResourceError, e.what()};
  } catch (const std::bad_alloc&) {
    return Error{ErrorCode::ResourceError, "out of memory during the run"};
  }
}

const std::vector<Fault>& Session::fault_universe() const {
  return impl_->engine->universe();
}
bool Session::has_result() const { return impl_->result.has_value(); }
const AtpgResult& Session::last_result() const { return *impl_->result; }

Expected<std::string> Session::test_program(const AtpgResult& result) const {
  if (const auto built = extract_graph(*impl_->engine); !built)
    return built.error();
  std::ostringstream out;
  try {
    write_test_program(out, impl_->netlist, *impl_->engine, result.sequences);
  } catch (const CheckError& e) {
    return Error{ErrorCode::OptionError,
                 std::string("cannot export test program: ") + e.what()};
  } catch (const std::bad_alloc&) {
    return Error{ErrorCode::ResourceError,
                 "out of memory exporting the test program"};
  }
  return out.str();
}

ShardBddStats Session::bdd_stats() const {
  impl_->engine->cssg().encoding().mgr().collect_garbage();
  return impl_->engine->shard_bdd_stats().front();
}

std::vector<ShardBddStats> Session::shard_bdd_stats() const {
  return impl_->engine->shard_bdd_stats();
}

}  // namespace xatpg
