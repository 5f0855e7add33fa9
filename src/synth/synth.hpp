// State-graph -> gate-level synthesis, standing in for the tools that
// produced the paper's two benchmark suites:
//
//  * SpeedIndependent (Petrify's role): each non-input signal becomes one
//    generalized C-element (gC) whose set cover holds the signal's rising
//    excitation region and whose reset cover holds the falling one.  Under
//    the complex-gate assumption the result is speed-independent by
//    construction.
//  * BoundedDelay (SIS's role): each non-input signal becomes a two-level
//    AND-OR network (shared input inverters) computing the next-state
//    function, closed in combinational feedback.  The cover is closed
//    under consensus so single-variable transitions cannot glitch the OR
//    output — these extra cubes are logically
//    redundant, which is precisely what makes several SIS-suite circuits
//    poorly testable in Table 2.  `extra_redundancy` additionally keeps
//    *all* consensus terms even when subsumed, modeling the heavier
//    spurious-pulse covers the paper blames for trimos-send/vbe10b/vbe6a.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "stg/stg.hpp"
#include "synth/cover.hpp"
#include "xatpg/types.hpp"  // SynthStyle (public API type)

namespace xatpg {

/// Implementation architecture for the SpeedIndependent style.
enum class SiArchitecture : std::uint8_t {
  AtomicGc,   ///< one complex gC gate per signal (complex-gate assumption)
  StandardC,  ///< decomposed: 2-level set/reset networks + C-element
              ///< (more gates and fault sites; the decomposition is not
              ///< guaranteed hazard-free — the CSSG prunes what races)
};

struct SynthOptions {
  SynthStyle style = SynthStyle::SpeedIndependent;
  SiArchitecture architecture = SiArchitecture::AtomicGc;
  /// BoundedDelay: retain redundant consensus cubes aggressively.
  bool extra_redundancy = false;
};

struct SynthResult {
  Netlist netlist;
  /// A stable state of the netlist corresponding to a quiescent SG state
  /// (no non-input signal excited) — the test-mode reset state.
  std::vector<bool> reset_state;
  /// Synthesis statistics.
  std::size_t num_cubes = 0;
  std::size_t num_consensus_cubes = 0;
};

/// Synthesize a netlist from an expanded state graph.  Requires CSC to hold
/// (throws CheckError otherwise) and at least one quiescent SG state.
SynthResult synthesize(const StateGraph& sg, const SynthOptions& options = {});

/// Helper shared with tests: on/off minterm sets of signal `sig`'s
/// next-state function over the SG's signal variables (bit i = signal i).
/// Every code in neither set (unreachable, or free for a set/reset cover) is
/// a don't-care.  Throws CheckError for STGs over 32 signals.
struct NsFunction {
  std::vector<std::uint32_t> on, off;
  unsigned nvars = 0;
};
NsFunction next_state_function(const StateGraph& sg, std::uint32_t sig);

/// Rising/falling excitation-region functions for the gC mapper:
///   set:   on = {code : sig=0, NS=1},  off = {code : NS=0}
///   reset: on = {code : sig=1, NS=0},  off = {code : NS=1}
NsFunction set_function(const StateGraph& sg, std::uint32_t sig);
NsFunction reset_function(const StateGraph& sg, std::uint32_t sig);

}  // namespace xatpg
