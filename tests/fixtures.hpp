// Shared test rig: the tiny canonical circuits every suite exercises, plus a
// seeded random-netlist generator and a seeded random-BDD builder.
//
// Keeping these in one header stops the suites from hand-rolling their own
// copies of the Figure 1 circuits (which silently drifted apart in early
// drafts) and gives the golden-value regression tests a single definition of
// "the fixture circuits" to lock statistics against.
#pragma once

#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "benchmarks/benchmarks.hpp"
#include "netlist/netlist.hpp"
#include "netlist/random_netlist.hpp"
#include "sim/ternary.hpp"
#include "stg/stg.hpp"
#include "synth/synth.hpp"
#include "util/check.hpp"
#include "util/random.hpp"
#include "util/strings.hpp"

namespace xatpg::fixtures {

/// A netlist paired with a stable reset state — what nearly every simulation,
/// CSSG and ATPG test needs as its starting point.
struct Circuit {
  Netlist netlist;
  std::vector<bool> reset;
};

// --- canonical .xnl sources (exposed for parser/writer round-trip tests) -----

/// Figure 1(a): non-confluence.  From the stable state (A=0,B=1), applying
/// AB=10 races a rising `a` against a falling `b`; the pulse on c may or may
/// not latch y.
inline constexpr const char* kFig1aXnl = R"(
.model fig1a
.inputs A B
.outputs y
.gate BUF a A
.gate BUF b B
.gate AND c a b
.gate OR  y c y
.end
)";

/// Figure 1(b): oscillation.  With B=0, raising A makes the NAND/OR ring
/// unstable (c-, d-, c+, d+ repeats); B=1 breaks the ring.
inline constexpr const char* kFig1bXnl = R"(
.model fig1b
.inputs A B
.outputs d
.gate BUF a A
.gate BUF b B
.gate NAND c a d
.gate OR d c b
.end
)";

/// A hazard-free combinational circuit: two cascaded inverters.
inline constexpr const char* kChainXnl = R"(
.model chain
.inputs A
.outputs y
.gate NOT n A
.gate NOT y n
.end
)";

/// A single Muller C-element: all-1 sets q, all-0 resets q, otherwise holds.
inline constexpr const char* kCelemXnl = R"(
.model celem
.inputs A B
.outputs q
.gate C q A B
.end
)";

/// An asynchronous transparent latch as a generalized C-element: when the
/// enable C is high q follows D (set = D C, reset = D' C); when C is low q
/// holds its value.
inline constexpr const char* kLatchXnl = R"(
.model latch
.inputs D C
.outputs q
.gc q : D C : 11 : 01
.end
)";

// --- fixture circuits ---------------------------------------------------------

/// Parse a canonical source and settle the all-false state into a stable
/// reset state.  Used by chain/celem/async_latch, whose canonical reset is
/// the all-false settlement; fig1a/fig1b instead go through
/// fig1a_circuit()/fig1b_circuit() because the paper's initial states
/// (A=0,B=1 for fig1a; the quiet c=d=1 ring for fig1b) are NOT what
/// settling all-false produces.
inline Circuit from_xnl(const char* text) {
  Circuit c{parse_xnl_string(text), {}};
  c.reset.assign(c.netlist.num_signals(), false);
  XATPG_CHECK_MSG(settle_to_stable(c.netlist, c.reset),
                  "fixture circuit does not settle from the all-false state");
  return c;
}

/// Figure 1(a) with the paper's initial stable state (A=0, B=1).
inline Circuit fig1a() {
  Circuit c;
  c.netlist = fig1a_circuit(&c.reset);
  return c;
}

/// Figure 1(b) with its initial stable state (A=B=0, ring quiet).
inline Circuit fig1b() {
  Circuit c;
  c.netlist = fig1b_circuit(&c.reset);
  return c;
}

/// Two cascaded inverters, reset at A=0 (n=1, y=0).
inline Circuit chain() { return from_xnl(kChainXnl); }

/// Muller C-element, reset with both inputs and the output low.
inline Circuit celem() { return from_xnl(kCelemXnl); }

/// Asynchronous transparent latch, reset opaque with q=0.
inline Circuit async_latch() { return from_xnl(kLatchXnl); }

/// Two-stage decoupled pipeline controller: the `pipe2` STG template
/// synthesized as speed-independent gC logic, with its quiescent reset state.
inline Circuit pipeline2() {
  const StateGraph sg = expand_stg(make_pipeline2("pipe2"));
  SynthResult synth = synthesize(sg);
  return Circuit{std::move(synth.netlist), std::move(synth.reset_state)};
}

/// The .bench text of an `inputs`-input balanced XOR2 parity tree (output
/// p).
inline std::string parity_bench(std::size_t inputs) {
  std::string text = "OUTPUT(p)\n";
  std::vector<std::string> level;
  for (std::size_t i = 0; i < inputs; ++i) {
    level.push_back(indexed_name("x", i));
    text += "INPUT(" + level.back() + ")\n";
  }
  std::size_t next = 0;
  while (level.size() > 1) {
    std::vector<std::string> up;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      up.push_back(level.size() == 2 ? "p" : indexed_name("t", next++));
      text += up.back() + " = XOR(" + level[i] + ", " + level[i + 1] + ")\n";
    }
    if (level.size() % 2 == 1) up.push_back(level.back());
    level = std::move(up);
  }
  return text;
}

/// parity_bench(inputs) parsed, reset all-false.  At 40 inputs it has 79
/// signals, more than one 64-bit state word.
inline Circuit parity_tree(std::size_t inputs) {
  Circuit c{parse_bench_string(parity_bench(inputs)), {}};
  c.reset.assign(c.netlist.num_signals(), false);
  return c;
}

// --- seeded random-netlist generator -----------------------------------------

// The generator itself is a library facility now (src/netlist/
// random_netlist.hpp) so the perf-corpus harness can run seeded families;
// this wrapper keeps the fixture Circuit shape the suites consume.  The
// seed-7 shape stays locked by GeneratorGolden in test_golden.cpp.
using xatpg::RandomNetlistOptions;

inline Circuit random_netlist(std::uint64_t seed,
                              const RandomNetlistOptions& options = {}) {
  Circuit c;
  c.netlist = xatpg::random_netlist(seed, options, &c.reset);
  return c;
}

// --- seeded random BDD functions ---------------------------------------------

/// Random function over mgr's first `num_vars` variables: a depth-`depth`
/// balanced tree of and/or/xor over random literals.  Shared by the BDD
/// algebra sweeps in test_bdd and test_properties.
inline Bdd random_bdd(BddManager& mgr, Rng& rng, int depth,
                      std::uint32_t num_vars) {
  if (depth == 0)
    return rng.flip() ? mgr.var(rng.below(num_vars))
                      : !mgr.var(rng.below(num_vars));
  const Bdd a = random_bdd(mgr, rng, depth - 1, num_vars);
  const Bdd b = random_bdd(mgr, rng, depth - 1, num_vars);
  switch (rng.below(3)) {
    case 0: return a & b;
    case 1: return a | b;
    default: return a ^ b;
  }
}

/// The C-element STG specification used by the STG and synthesis suites:
/// (r0+ || r1+) -> a+ -> (r0- || r1-) -> a- -> repeat.
inline Stg celem_stg() {
  Stg stg("celem");
  const auto r0 = stg.add_signal("r0", SignalKind::Input, false);
  const auto r1 = stg.add_signal("r1", SignalKind::Input, false);
  const auto a = stg.add_signal("a", SignalKind::Output, false);
  const auto r0p = stg.add_transition(r0, true);
  const auto r0m = stg.add_transition(r0, false);
  const auto r1p = stg.add_transition(r1, true);
  const auto r1m = stg.add_transition(r1, false);
  const auto ap = stg.add_transition(a, true);
  const auto am = stg.add_transition(a, false);
  stg.arc(r0p, ap);
  stg.arc(r1p, ap);
  stg.arc(ap, r0m);
  stg.arc(ap, r1m);
  stg.arc(r0m, am);
  stg.arc(r1m, am);
  stg.arc(am, r0p, 1);
  stg.arc(am, r1p, 1);
  return stg;
}

}  // namespace xatpg::fixtures
