#include "benchmarks/benchmarks.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace xatpg {

// ---------------------------------------------------------------------------
// Template builders
// ---------------------------------------------------------------------------

Stg make_sequencer(const std::string& name, unsigned pairs,
                   const std::vector<unsigned>& internal_after,
                   unsigned fall_offset) {
  XATPG_CHECK(pairs >= 1);
  Stg stg(name);
  std::vector<std::uint32_t> req(pairs), ack(pairs);
  for (unsigned i = 0; i < pairs; ++i) {
    req[i] = stg.add_signal(indexed_name("r", i), SignalKind::Input, false);
    ack[i] = stg.add_signal(indexed_name("a", i), SignalKind::Output, false);
  }
  std::vector<std::uint32_t> internals;
  for (std::size_t j = 0; j < internal_after.size(); ++j)
    internals.push_back(
        stg.add_signal(indexed_name("x", j), SignalKind::Internal, false));

  // Build the event ring: rising phase r0+ a0+ r1+ a1+ ..., falling phase
  // r0- a0- r1- a1- ...; internal signals x_j+ are spliced after the
  // internal_after[j]-th rising event (and x_j- after the matching falling
  // event).
  std::vector<std::uint32_t> ring;
  const auto splice = [&](unsigned event_pos, bool rising) {
    for (std::size_t j = 0; j < internal_after.size(); ++j) {
      const unsigned want = rising ? internal_after[j]
                                   : (internal_after[j] + fall_offset) %
                                         (2 * pairs);
      if (want == event_pos)
        ring.push_back(stg.add_transition(internals[j], rising));
    }
  };
  for (unsigned i = 0; i < pairs; ++i) {
    ring.push_back(stg.add_transition(req[i], true));
    splice(2 * i, true);
    ring.push_back(stg.add_transition(ack[i], true));
    splice(2 * i + 1, true);
  }
  for (unsigned i = 0; i < pairs; ++i) {
    ring.push_back(stg.add_transition(req[i], false));
    splice(2 * i, false);
    ring.push_back(stg.add_transition(ack[i], false));
    splice(2 * i + 1, false);
  }
  for (std::size_t i = 0; i < ring.size(); ++i)
    stg.arc(ring[i], ring[(i + 1) % ring.size()], i + 1 == ring.size() ? 1 : 0);
  return stg;
}

Stg make_forkjoin(const std::string& name, unsigned branches,
                  bool internal_tail) {
  XATPG_CHECK(branches >= 1);
  Stg stg(name);
  const auto rin = stg.add_signal("rin", SignalKind::Input, false);
  const auto ain = stg.add_signal("ain", SignalKind::Output, false);
  std::vector<std::uint32_t> r(branches), a(branches);
  for (unsigned b = 0; b < branches; ++b) {
    r[b] = stg.add_signal(indexed_name("r", b), SignalKind::Output, false);
    a[b] = stg.add_signal(indexed_name("a", b), SignalKind::Input, false);
  }
  const auto rin_p = stg.add_transition(rin, true);
  const auto rin_m = stg.add_transition(rin, false);
  const auto ain_p = stg.add_transition(ain, true);
  const auto ain_m = stg.add_transition(ain, false);

  // Optional internal completion detector x: the branch joins route through
  // x+ (rising phase) and x- (falling phase) before acknowledging.
  std::uint32_t rise_join = ain_p, fall_join = ain_m;
  if (internal_tail) {
    const auto x = stg.add_signal("x", SignalKind::Internal, false);
    const auto x_p = stg.add_transition(x, true);
    const auto x_m = stg.add_transition(x, false);
    stg.arc(x_p, ain_p);
    stg.arc(x_m, ain_m);
    rise_join = x_p;
    fall_join = x_m;
  }

  for (unsigned b = 0; b < branches; ++b) {
    const auto r_p = stg.add_transition(r[b], true);
    const auto r_m = stg.add_transition(r[b], false);
    const auto a_p = stg.add_transition(a[b], true);
    const auto a_m = stg.add_transition(a[b], false);
    stg.arc(rin_p, r_p);
    stg.arc(r_p, a_p);
    stg.arc(a_p, rise_join);
    stg.arc(rin_m, r_m);
    stg.arc(r_m, a_m);
    stg.arc(a_m, fall_join);
  }
  stg.arc(ain_p, rin_m);
  stg.arc(ain_m, rin_p, 1);
  return stg;
}

Stg make_pipeline2(const std::string& name, bool deep_output) {
  Stg stg(name);
  const auto rin = stg.add_signal("rin", SignalKind::Input, false);
  const auto ain = stg.add_signal("ain", SignalKind::Output, false);
  const auto x = stg.add_signal("x", SignalKind::Internal, false);
  const auto rout = stg.add_signal("rout", SignalKind::Output, false);
  const auto aout = stg.add_signal("aout", SignalKind::Input, false);

  const auto rin_p = stg.add_transition(rin, true);
  const auto rin_m = stg.add_transition(rin, false);
  const auto ain_p = stg.add_transition(ain, true);
  const auto ain_m = stg.add_transition(ain, false);
  const auto x_p = stg.add_transition(x, true);
  const auto x_m = stg.add_transition(x, false);
  const auto rout_p = stg.add_transition(rout, true);
  const auto rout_m = stg.add_transition(rout, false);
  const auto aout_p = stg.add_transition(aout, true);
  const auto aout_m = stg.add_transition(aout, false);

  // Input side: rin+ -> x+ -> ain+ -> rin- -> x- -> ain- -> (rin+).
  // ain+ additionally waits for rout+ so the input side cannot wrap around
  // to the all-quiet code while the output request is still pending (that
  // would be a CSC violation).
  stg.arc(rin_p, x_p);
  stg.arc(x_p, ain_p);
  stg.arc(ain_p, rin_m);
  stg.arc(rin_m, x_m);
  stg.arc(x_m, ain_m);
  stg.arc(ain_m, rin_p, 1);
  // Output side handshake, decoupled: x+ also launches rout+, and rout+
  // must wait for the previous aout- (initial token).
  stg.arc(x_p, rout_p);
  stg.arc(rout_p, ain_p);
  // rout may not fall before the input side acknowledged: otherwise the
  // output handshake can complete entirely while ain+ is still pending and
  // the code loses the distinction (CSC).
  stg.arc(ain_p, rout_m);
  if (deep_output) {
    // Internal completion signal between the output request and its fall.
    const auto y = stg.add_signal("y", SignalKind::Internal, false);
    const auto y_p = stg.add_transition(y, true);
    const auto y_m = stg.add_transition(y, false);
    stg.arc(rout_p, aout_p);
    stg.arc(aout_p, y_p);
    stg.arc(y_p, rout_m);
    stg.arc(rout_m, aout_m);
    stg.arc(aout_m, y_m);
    stg.arc(y_m, rout_p, 1);
  } else {
    stg.arc(rout_p, aout_p);
    stg.arc(aout_p, rout_m);
    stg.arc(rout_m, aout_m);
    stg.arc(aout_m, rout_p, 1);
  }
  // Re-arm: x+ may not fire again until rout- acknowledged the previous
  // datum (conservatively couple the phases to keep CSC).
  stg.arc(rout_m, x_p, 1);
  return stg;
}

Stg make_celem(const std::string& name, unsigned inputs, bool tail) {
  XATPG_CHECK(inputs >= 2);
  Stg stg(name);
  std::vector<std::uint32_t> r(inputs);
  for (unsigned i = 0; i < inputs; ++i)
    r[i] = stg.add_signal(indexed_name("r", i), SignalKind::Input, false);
  const auto ack = stg.add_signal("ack", SignalKind::Output, false);
  std::uint32_t z = 0;
  if (tail) z = stg.add_signal("z", SignalKind::Internal, false);

  const auto ack_p = stg.add_transition(ack, true);
  const auto ack_m = stg.add_transition(ack, false);
  // The internal tail z is a completion detector *ahead of* the ack, so the
  // ack's next-state function genuinely depends on it (an internal signal
  // gating only input transitions would be dead logic after minimization —
  // unlike anything a synthesis tool emits).
  std::uint32_t join_p = ack_p, join_m = ack_m;
  if (tail) {
    const auto z_p = stg.add_transition(z, true);
    const auto z_m = stg.add_transition(z, false);
    stg.arc(z_p, ack_p);
    stg.arc(z_m, ack_m);
    join_p = z_p;
    join_m = z_m;
  }
  for (unsigned i = 0; i < inputs; ++i) {
    const auto r_p = stg.add_transition(r[i], true);
    const auto r_m = stg.add_transition(r[i], false);
    stg.arc(r_p, join_p);
    stg.arc(ack_p, r_m);
    stg.arc(r_m, join_m);
    stg.arc(ack_m, r_p, 1);
  }
  return stg;
}

Stg make_storage(const std::string& name) {
  Stg stg(name);
  const auto d = stg.add_signal("d", SignalKind::Input, false);
  const auto c = stg.add_signal("c", SignalKind::Input, false);
  const auto q = stg.add_signal("q", SignalKind::Output, false);

  const auto d_p = stg.add_transition(d, true);
  const auto d_m = stg.add_transition(d, false);
  const auto c_p = stg.add_transition(c, true);
  const auto c_m = stg.add_transition(c, false);
  const auto q_p = stg.add_transition(q, true);
  const auto q_m = stg.add_transition(q, false);

  // d+ -> c+ -> q+ -> c- -> d- -> q- -> (d+): a sequential sample-and-
  // release protocol.
  stg.arc(d_p, c_p);
  stg.arc(c_p, q_p);
  stg.arc(q_p, c_m);
  stg.arc(c_m, d_m);
  stg.arc(d_m, q_m);
  stg.arc(q_m, d_p, 1);
  return stg;
}

Stg make_toggle(const std::string& name, unsigned ways, bool pre_detector) {
  XATPG_CHECK(ways >= 2);
  Stg stg(name);
  const auto r = stg.add_signal("r", SignalKind::Input, false);
  std::vector<std::uint32_t> ack(ways);
  for (unsigned w = 0; w < ways; ++w)
    ack[w] = stg.add_signal(indexed_name("a", w), SignalKind::Output, false);
  std::vector<std::uint32_t> phase(ways - 1);
  for (unsigned j = 0; j + 1 < ways; ++j)
    phase[j] = stg.add_signal(indexed_name("x", j), SignalKind::Internal,
                              false);
  std::uint32_t z = 0;
  if (pre_detector) z = stg.add_signal("z", SignalKind::Internal, false);

  // Event ring: round j (j < ways-1):  r+ [z+] a_j+ x_j+ r- [z-] a_j-
  // last round:                        r+ [z+] a_last+ x_0- r- [z-] a_last-
  // followed by x_1- .. x_{ways-2}-, then the closing token.
  std::vector<std::uint32_t> ring;
  for (unsigned j = 0; j < ways; ++j) {
    ring.push_back(stg.add_transition(r, true));
    if (pre_detector) ring.push_back(stg.add_transition(z, true));
    ring.push_back(stg.add_transition(ack[j], true));
    if (j + 1 < ways) {
      ring.push_back(stg.add_transition(phase[j], true));
    } else {
      ring.push_back(stg.add_transition(phase[0], false));
    }
    ring.push_back(stg.add_transition(r, false));
    if (pre_detector) ring.push_back(stg.add_transition(z, false));
    ring.push_back(stg.add_transition(ack[j], false));
  }
  for (unsigned j = 1; j + 1 < ways; ++j)
    ring.push_back(stg.add_transition(phase[j], false));
  for (std::size_t i = 0; i < ring.size(); ++i)
    stg.arc(ring[i], ring[(i + 1) % ring.size()], i + 1 == ring.size() ? 1 : 0);
  return stg;
}

// ---------------------------------------------------------------------------
// Figure 1
// ---------------------------------------------------------------------------

Netlist fig1a_circuit(std::vector<bool>* initial_state) {
  Netlist n = parse_xnl_string(R"(
.model fig1a
.inputs A B
.outputs y
.gate BUF a A
.gate BUF b B
.gate AND c a b
.gate OR  y c y
.end
)");
  if (initial_state) {
    std::vector<bool> st(n.num_signals(), false);
    st[n.signal("B")] = true;
    st[n.signal("b")] = true;
    *initial_state = st;
  }
  return n;
}

Netlist fig1b_circuit(std::vector<bool>* initial_state) {
  Netlist n = parse_xnl_string(R"(
.model fig1b
.inputs A B
.outputs d
.gate BUF a A
.gate BUF b B
.gate NAND c a d
.gate OR d c b
.end
)");
  if (initial_state) {
    std::vector<bool> st(n.num_signals(), false);
    st[n.signal("c")] = true;
    st[n.signal("d")] = true;
    *initial_state = st;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Named benchmark registry
// ---------------------------------------------------------------------------

const std::vector<std::string>& si_benchmark_names() {
  static const std::vector<std::string> names{
      "alloc-outbound", "atod",          "chu150",        "converta",
      "dff",            "ebergen",       "hazard",        "master-read",
      "mmu",            "mp-forward-pkt", "mr1",          "nak-pa",
      "nowick",         "ram-read-sbuf", "rcv-setup",     "rpdft",
      "sbuf-ram-write", "sbuf-send-ctl", "sbuf-send-pkt2", "seq4",
      "trimos-send",    "vbe10b",        "vbe5b",         "vbe6a",
  };
  return names;
}

const std::vector<std::string>& bd_benchmark_names() {
  static const std::vector<std::string> names{
      "chu150", "converta", "ebergen",     "hazard", "nowick",
      "rpdft",  "trimos-send", "vbe10b",   "vbe6a",
  };
  return names;
}

bool benchmark_is_redundant(const std::string& name) {
  return name == "trimos-send" || name == "vbe10b" || name == "vbe6a";
}

bool is_named_circuit(const std::string& name) {
  const auto listed = [&name](const std::vector<std::string>& names) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  return name == "fig1a" || name == "fig1b" || listed(si_benchmark_names()) ||
         listed(bd_benchmark_names());
}

Stg benchmark_stg(const std::string& name) {
  // Controller family assignments; sizes chosen to mirror the paper's fault
  // totals (small circuits of 4-9 signals).
  if (name == "alloc-outbound") return make_forkjoin(name, 2);
  if (name == "atod") return make_sequencer(name, 3);
  if (name == "chu150") return make_celem(name, 2, /*tail=*/true);
  if (name == "converta") return make_sequencer(name, 2, {0});
  if (name == "dff") return make_storage(name);
  if (name == "ebergen") return make_sequencer(name, 2, {0, 2});
  if (name == "hazard") return make_forkjoin(name, 2, /*internal_tail=*/true);
  if (name == "master-read") return make_forkjoin(name, 3, /*internal_tail=*/true);
  if (name == "mmu") return make_forkjoin(name, 3);
  if (name == "mp-forward-pkt") return make_sequencer(name, 3, {2});
  if (name == "mr1") return make_sequencer(name, 5);
  if (name == "nak-pa") return make_sequencer(name, 2, {0, 2}, 2);
  if (name == "nowick") return make_sequencer(name, 2, {2});
  if (name == "ram-read-sbuf") return make_sequencer(name, 4, {2});
  if (name == "rcv-setup") return make_sequencer(name, 2);
  if (name == "rpdft") return make_celem(name, 2);
  if (name == "sbuf-ram-write") return make_sequencer(name, 3, {0}, 2);
  if (name == "sbuf-send-ctl") return make_sequencer(name, 4, {0, 4});
  if (name == "sbuf-send-pkt2") return make_sequencer(name, 3, {0, 2});
  if (name == "seq4") return make_sequencer(name, 4);
  if (name == "trimos-send") return make_toggle(name, 3);
  if (name == "vbe10b") return make_pipeline2(name, /*deep_output=*/true);
  if (name == "vbe5b") return make_toggle(name);
  if (name == "vbe6a") return make_toggle(name, 2, /*pre_detector=*/true);
  XATPG_CHECK_MSG(false, "unknown benchmark '" << name << "'");
  return Stg(name);
}

SynthResult benchmark_circuit(const std::string& name, SynthStyle style) {
  const Stg stg = benchmark_stg(name);
  const StateGraph sg = expand_stg(stg);
  SynthOptions options;
  options.style = style;
  options.extra_redundancy =
      style == SynthStyle::BoundedDelay && benchmark_is_redundant(name);
  return synthesize(sg, options);
}

}  // namespace xatpg
