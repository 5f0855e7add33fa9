#include "synth/synth.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "util/check.hpp"

namespace xatpg {

namespace {

std::uint32_t code_of(const StateGraph& sg, std::uint32_t state) {
  std::uint32_t m = 0;
  for (std::size_t i = 0; i < sg.codes[state].size(); ++i)
    if (sg.codes[state][i]) m |= 1u << i;
  return m;
}

/// Translate a MinCube over SG signal variables into a netlist Cube over
/// the given fanin signal list.
Cube to_netlist_cube(const MinCube& cube,
                     const std::vector<std::uint32_t>& fanin_signals) {
  Cube out;
  out.lits.reserve(fanin_signals.size());
  for (const std::uint32_t sig : fanin_signals) {
    if (cube.care & (1u << sig)) {
      out.lits.push_back((cube.value >> sig) & 1);
    } else {
      out.lits.push_back(-1);
    }
  }
  return out;
}

/// Signals appearing in any cube of the cover.
std::vector<std::uint32_t> cover_support(const std::vector<MinCube>& cover,
                                         unsigned nvars) {
  std::uint32_t mask = 0;
  for (const MinCube& c : cover) mask |= c.care;
  std::vector<std::uint32_t> out;
  for (unsigned i = 0; i < nvars; ++i)
    if (mask & (1u << i)) out.push_back(i);
  return out;
}

}  // namespace

NsFunction next_state_function(const StateGraph& sg, std::uint32_t sig) {
  NsFunction fn;
  fn.nvars = static_cast<unsigned>(sg.stg->num_signals());
  // Codes are 32-bit minterms (MinCube's width): refuse wider STGs before
  // code_of shifts past the word.
  XATPG_CHECK_MSG(fn.nvars <= 32, "'" << sg.stg->name() << "' has "
                                      << fn.nvars
                                      << " signals; synthesis supports 32");
  std::set<std::uint32_t> on, off;
  for (std::uint32_t st = 0; st < sg.num_states(); ++st) {
    const std::uint32_t code = code_of(sg, st);
    if (sg.next_value(st, sig)) {
      on.insert(code);
    } else {
      off.insert(code);
    }
  }
  for (const std::uint32_t m : on)
    XATPG_CHECK_MSG(!off.count(m),
                    "CSC violation reached synthesis for signal "
                        << sg.stg->signal(sig).name);
  fn.on.assign(on.begin(), on.end());
  fn.off.assign(off.begin(), off.end());
  return fn;
}

NsFunction set_function(const StateGraph& sg, std::uint32_t sig) {
  // on: rising excitation region (sig=0, NS=1); off: anything driving the
  // output low (NS=0); codes with sig=1 and NS=1 may be covered freely.
  NsFunction ns = next_state_function(sg, sig);
  NsFunction fn;
  fn.nvars = ns.nvars;
  for (const std::uint32_t m : ns.on)
    if (!(m & (1u << sig))) fn.on.push_back(m);
  fn.off = std::move(ns.off);
  return fn;
}

NsFunction reset_function(const StateGraph& sg, std::uint32_t sig) {
  // Dual: on = falling excitation region (sig=1, NS=0); off = NS=1.
  NsFunction ns = next_state_function(sg, sig);
  NsFunction fn;
  fn.nvars = ns.nvars;
  for (const std::uint32_t m : ns.off)
    if (m & (1u << sig)) fn.on.push_back(m);
  fn.off = std::move(ns.on);
  return fn;
}

namespace {

/// Builder for the BoundedDelay two-level implementation of one signal.
class TwoLevelBuilder {
 public:
  TwoLevelBuilder(Netlist& netlist, const StateGraph& sg)
      : netlist_(&netlist), sg_(&sg) {}

  /// Inverter output for an SG signal, created on first use.
  SignalId inverted(std::uint32_t sig) {
    const std::string inv_name = sg_->stg->signal(sig).name + "_inv";
    if (auto existing = netlist_->find_signal(inv_name);
        existing && netlist_->gate(*existing).type == GateType::Not)
      return *existing;
    return netlist_->add_gate(GateType::Not, inv_name,
                              {netlist_->signal(sg_->stg->signal(sig).name)});
  }

  /// Literal signal (plain or inverted) for a cared cube position.
  SignalId literal(std::uint32_t sig, bool positive) {
    if (positive) return netlist_->signal(sg_->stg->signal(sig).name);
    return inverted(sig);
  }

  /// Build AND-OR logic for `cover` and define signal `out_name` with it.
  void build(const std::string& out_name, const std::vector<MinCube>& cover,
             unsigned nvars) {
    XATPG_CHECK_MSG(!cover.empty(),
                    "constant-0 next-state function for " << out_name);
    std::vector<SignalId> terms;
    int cube_index = 0;
    for (const MinCube& cube : cover) {
      XATPG_CHECK_MSG(cube.care != 0,
                      "constant-1 next-state function for " << out_name);
      std::vector<SignalId> lits;
      for (unsigned sig = 0; sig < nvars; ++sig)
        if (cube.care & (1u << sig))
          lits.push_back(literal(sig, (cube.value >> sig) & 1));
      if (lits.size() == 1 && cover.size() > 1) {
        terms.push_back(lits[0]);
      } else if (cover.size() == 1) {
        // Single-cube cover: the term gate *is* the output signal.
        if (lits.size() == 1) {
          netlist_->add_gate(GateType::Buf, out_name, {lits[0]});
        } else {
          netlist_->add_gate(GateType::And, out_name, lits);
        }
        return;
      } else {
        terms.push_back(netlist_->add_gate(
            GateType::And, out_name + "_c" + std::to_string(cube_index),
            lits));
      }
      ++cube_index;
    }
    netlist_->add_gate(GateType::Or, out_name, terms);
  }

 private:
  Netlist* netlist_;
  const StateGraph* sg_;
};

/// Extra redundant consensus cubes: every pairwise consensus term, retained
/// even when contained in an existing cube (modeling SIS's conservative
/// spurious-pulse covers).  Exact duplicates are dropped.
std::size_t add_redundant_consensus(std::vector<MinCube>& cover) {
  std::size_t added = 0;
  const std::size_t original = cover.size();
  for (std::size_t i = 0; i < original; ++i) {
    for (std::size_t j = i + 1; j < original; ++j) {
      MinCube c;
      if (!consensus(cover[i], cover[j], &c)) continue;
      if (std::find(cover.begin(), cover.end(), c) != cover.end()) continue;
      cover.push_back(c);
      ++added;
    }
  }
  return added;
}

}  // namespace

SynthResult synthesize(const StateGraph& sg, const SynthOptions& options) {
  const auto violations = csc_violations(sg);
  XATPG_CHECK_MSG(violations.empty(),
                  "cannot synthesize '" << sg.stg->name()
                                        << "': " << violations.front());
  const unsigned n = static_cast<unsigned>(sg.stg->num_signals());

  SynthResult result;
  Netlist& netlist = result.netlist;
  netlist.set_name(sg.stg->name());

  // Interface first: input signals, then declarations of all logic signals
  // so feedback references resolve.
  for (std::uint32_t sig = 0; sig < n; ++sig)
    if (sg.stg->signal(sig).kind == SignalKind::Input)
      netlist.add_input(sg.stg->signal(sig).name);
  for (std::uint32_t sig = 0; sig < n; ++sig)
    if (sg.stg->signal(sig).kind != SignalKind::Input)
      netlist.declare_signal(sg.stg->signal(sig).name);

  for (std::uint32_t sig = 0; sig < n; ++sig) {
    if (sg.stg->signal(sig).kind == SignalKind::Input) continue;
    const std::string& name = sg.stg->signal(sig).name;

    if (options.style == SynthStyle::SpeedIndependent) {
      const NsFunction set_fn = set_function(sg, sig);
      const NsFunction reset_fn = reset_function(sg, sig);
      auto set_cover = minimize_sop(set_fn.on, set_fn.off, n);
      auto reset_cover = minimize_sop(reset_fn.on, reset_fn.off, n);
      XATPG_CHECK_MSG(!set_cover.empty() && !reset_cover.empty(),
                      "signal '" << name << "' never switches");
      result.num_cubes += set_cover.size() + reset_cover.size();

      if (options.architecture == SiArchitecture::StandardC) {
        // Decomposed standard-C architecture: the C-element rises when the
        // set function S is 1 and the reset function R is 0, and falls
        // when S=0 and R=1 — so its second input is the *complement* of R,
        // synthesized with R's on- and off-sets swapped (same don't-cares).
        auto rstn_cover = minimize_sop(reset_fn.off, reset_fn.on, n);
        XATPG_CHECK_MSG(!rstn_cover.empty(),
                        "reset of '" << name << "' is a tautology");
        TwoLevelBuilder builder(netlist, sg);
        builder.build(name + "_set", set_cover, n);
        builder.build(name + "_rstn", rstn_cover, n);
        netlist.add_gate(GateType::Celem, name,
                         {netlist.signal(name + "_set"),
                          netlist.signal(name + "_rstn")});
        continue;
      }

      std::vector<std::uint32_t> support = cover_support(set_cover, n);
      for (const std::uint32_t s : cover_support(reset_cover, n))
        support.push_back(s);
      std::sort(support.begin(), support.end());
      support.erase(std::unique(support.begin(), support.end()),
                    support.end());
      std::vector<SignalId> fanins;
      for (const std::uint32_t s : support)
        fanins.push_back(netlist.signal(sg.stg->signal(s).name));

      Cover set_cubes, reset_cubes;
      for (const MinCube& c : set_cover)
        set_cubes.push_back(to_netlist_cube(c, support));
      for (const MinCube& c : reset_cover)
        reset_cubes.push_back(to_netlist_cube(c, support));
      netlist.add_gc(name, fanins, std::move(set_cubes),
                     std::move(reset_cubes));
    } else {
      const NsFunction ns = next_state_function(sg, sig);
      auto cover = minimize_sop(ns.on, ns.off, n);
      XATPG_CHECK_MSG(!cover.empty(), "signal '" << name << "' is constant 0");
      if (options.hazard_consensus)
        result.num_consensus_cubes += add_consensus_cubes(cover);
      if (options.extra_redundancy)
        result.num_consensus_cubes += add_redundant_consensus(cover);
      result.num_cubes += cover.size();
      TwoLevelBuilder builder(netlist, sg);
      builder.build(name, cover, n);
    }
  }

  for (std::uint32_t sig = 0; sig < n; ++sig)
    if (sg.stg->signal(sig).kind == SignalKind::Output)
      netlist.set_output(sg.stg->signal(sig).name);
  netlist.check_invariants();

  // Reset state: a quiescent SG state (prefer the initial one), extended to
  // all netlist-internal gates by combinational relaxation.
  const auto quiescent = sg.quiescent_states();
  XATPG_CHECK_MSG(!quiescent.empty(),
                  "'" << sg.stg->name() << "' has no quiescent state to reset into");
  std::uint32_t reset_sg_state = quiescent.front();
  for (const std::uint32_t q : quiescent)
    if (q == sg.initial) reset_sg_state = q;

  std::vector<bool> state(netlist.num_signals(), false);
  for (std::uint32_t sig = 0; sig < n; ++sig)
    state[netlist.signal(sg.stg->signal(sig).name)] =
        sg.codes[reset_sg_state][sig];
  // Relax the auxiliary gates (inverters / AND terms / OR trees) until the
  // whole netlist is stable; bounded by the logic depth.
  for (std::size_t pass = 0; pass < netlist.num_signals() + 2; ++pass) {
    bool changed = false;
    for (SignalId s = 0; s < netlist.num_signals(); ++s) {
      if (netlist.is_input(s)) continue;
      const bool target = netlist.eval_gate_bool(s, state);
      if (state[s] != target) {
        state[s] = target;
        changed = true;
      }
    }
    if (!changed) break;
  }
  XATPG_CHECK_MSG(netlist.is_stable_state(state),
                  "'" << sg.stg->name()
                      << "': reset state failed to stabilize — "
                         "implementation disagrees with the SG");
  result.reset_state = std::move(state);
  return result;
}

}  // namespace xatpg
