// Wire protocol of the xatpg ATPG daemon (`xatpg serve`): newline-delimited
// JSON frames over a byte stream (a local socket, or stdin/stdout in pipe
// mode).  docs/PROTOCOL.md is the normative spec; this header is the
// server's implementation of it (request parsing and every response frame).
// The `xatpg client` sender writes its submit frame itself (make_submit in
// tools/xatpg_cli.cpp), so a request-format change must update both.
//
// Requests (client -> server), one JSON object per line:
//   {"op":"submit","id":ID,"circuit":{...},"faults":F,"options":{...},
//    "progress":BOOL}
//   {"op":"cancel","id":ID} | {"op":"stats"} | {"op":"ping"} |
//   {"op":"shutdown"}
//
// Responses (server -> client), one JSON object per line, every one carrying
// the protocol version under "v":
//   ack | progress | result | cancelled | error | stats | pong | bye
//
// The result payload (serialize_result) is DETERMINISTIC: it contains the
// run's outcomes, sequences and integer statistics but none of the wall
// clocks (those ride on the frame as engine_ms), so a repeat request served
// from the cross-request cache is byte-identical to the cold response, and a
// daemon response is byte-identical to a direct Session run serialized the
// same way — the integration suite asserts exactly that.
#pragma once

#include <cstddef>
#include <string>

#include "xatpg/error.hpp"
#include "xatpg/options.hpp"
#include "xatpg/progress.hpp"
#include "xatpg/types.hpp"

namespace xatpg::serve {

/// Version stamped into every response frame.  Bump on any incompatible
/// frame change and record the history in docs/PROTOCOL.md.
inline constexpr int kProtocolVersion = 1;

// --- requests ---------------------------------------------------------------

struct Request {
  enum class Op { Submit, Cancel, Stats, Ping, Shutdown };
  enum class CircuitFormat { Xnl, Bench, Benchmark };

  Op op = Op::Ping;
  std::string id;  ///< client-chosen job id (submit/cancel)

  // Submit payload.
  CircuitFormat format = CircuitFormat::Benchmark;
  std::string circuit_text;  ///< xnl/bench source text
  std::string benchmark;     ///< benchmark name
  SynthStyle style = SynthStyle::SpeedIndependent;
  std::string faults = "both";  ///< "input" | "output" | "both"
  bool progress = false;        ///< stream progress frames for this job
  AtpgOptions options;          ///< request options over the given defaults
};

/// Parse one request line.  Malformed JSON -> ParseError; a structurally
/// valid frame with an unknown op / circuit format / fault spec / option key
/// -> OptionError (unknown keys inside "options" are rejected rather than
/// ignored: an option typo silently falling back to defaults would change
/// results without any diagnostic).  Unknown top-level keys are ignored for
/// forward compatibility.  `defaults` seeds the options a submit starts
/// from.
[[nodiscard]] Expected<Request> parse_request(const std::string& line,
                                              const AtpgOptions& defaults);

// --- responses --------------------------------------------------------------
// Each builder returns one complete frame including the trailing newline.

[[nodiscard]] std::string ack_frame(const std::string& id,
                                    std::size_t queue_depth);
[[nodiscard]] std::string error_frame(const std::string& id, const Error& error);
[[nodiscard]] std::string progress_frame(const std::string& id,
                                         const RunProgress& progress);
[[nodiscard]] std::string result_frame(const std::string& id,
                                       const std::string& payload, bool cached,
                                       double engine_ms);
[[nodiscard]] std::string cancelled_frame(const std::string& id,
                                          const std::string& reason);
[[nodiscard]] std::string pong_frame();
[[nodiscard]] std::string bye_frame();

/// Serialize a completed run: integer statistics, per-fault outcomes
/// (compact arrays: [site, gate, pin, stuck, covered_by, sequence_index,
/// proven_redundant, gave_up]) and test sequences (one bit-string per
/// vector).  Deliberately excludes every wall-clock field and the exact
/// simulation work counts (an add_faults run that reuses searches counts
/// less) so the payload is a pure function of (circuit, options, faults) —
/// the cache-identity contract above.
[[nodiscard]] std::string serialize_result(const std::string& circuit_name,
                                           const std::string& faults_spec,
                                           const AtpgResult& result);

// --- cache keying -----------------------------------------------------------

/// Fingerprint of every option that can change a run's outcome.  Knobs the
/// engine's determinism suites prove result-invariant — threads (byte-equal
/// results for any worker count), the BDD variable order and the reorder
/// policy (every symbolic query is canonicalized to be order-independent) —
/// are deliberately EXCLUDED, so requests differing only in those share a
/// cache entry.
[[nodiscard]] std::string options_fingerprint(const AtpgOptions& options);

/// Cross-request cache key: canonicalized circuit identity + options
/// fingerprint + fault-universe spec.  `canonical_circuit` is the
/// canonicalization produced by the server's admission path (re-emitted
/// .xnl for text formats; name+style for named benchmarks).
[[nodiscard]] std::string cache_key(const std::string& canonical_circuit,
                                    const AtpgOptions& options,
                                    const std::string& faults_spec);

}  // namespace xatpg::serve
