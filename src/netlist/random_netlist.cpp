#include "netlist/random_netlist.hpp"

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>

#include "sim/ternary.hpp"
#include "util/check.hpp"
#include "util/random.hpp"
#include "util/strings.hpp"

namespace xatpg {

Netlist random_netlist(std::uint64_t seed, const RandomNetlistOptions& options,
                       std::vector<bool>* reset) {
  Rng rng(seed);
  Netlist netlist;
  netlist.set_name("random" + std::to_string(seed));
  std::vector<SignalId> pool;
  for (std::size_t i = 0; i < options.num_inputs; ++i)
    pool.push_back(netlist.add_input(indexed_name("in", i)));
  static constexpr GateType kCombinational[] = {
      GateType::And, GateType::Or,  GateType::Nand,
      GateType::Nor, GateType::Xor, GateType::Not};
  for (std::size_t g = 0; g < options.num_gates; ++g) {
    const std::string name = indexed_name("g", g);
    const bool state_holding = options.allow_state_holding && rng.below(4) == 0;
    const GateType type = state_holding
                              ? GateType::Celem
                              : kCombinational[rng.below(6)];
    std::size_t arity = (type == GateType::Not) ? 1 : 2 + rng.below(2);
    if (type == GateType::Celem) arity = 2;
    std::vector<SignalId> fanins;
    for (std::size_t i = 0; i < arity; ++i)
      fanins.push_back(pool[rng.below(pool.size())]);
    pool.push_back(netlist.add_gate(type, name, fanins));
  }
  netlist.set_output(pool.back());
  netlist.check_invariants();
  std::vector<bool> settled(netlist.num_signals(), false);
  XATPG_CHECK(settle_to_stable(netlist, settled));
  if (reset != nullptr) *reset = std::move(settled);
  return netlist;
}

// --- structure-aware mutation ------------------------------------------------

namespace {

/// Editable mirror of a Netlist.  Mutations edit this, then rebuild: the
/// Netlist construction API is append-only by design (ids are indices), so
/// "change gate 3's type" is expressed as "rebuild with gate 3 changed".
struct EditableCircuit {
  std::string name;
  std::vector<Gate> gates;  ///< index = signal id, same as in the Netlist
  std::vector<SignalId> outputs;

  static EditableCircuit from(const Netlist& netlist) {
    EditableCircuit c;
    c.name = netlist.name();
    c.gates = netlist.gates();
    c.outputs = netlist.outputs();
    return c;
  }

  /// Rebuild a Netlist.  Ids are preserved: gates are re-added in index
  /// order and fanins are passed as numeric ids, so interning assigns every
  /// gate its old index back.
  Netlist build() const {
    Netlist netlist(name);
    for (const Gate& g : gates) {
      switch (g.type) {
        case GateType::Input: netlist.add_input(g.name); break;
        case GateType::Sop: netlist.add_sop(g.name, g.fanins, g.cover); break;
        case GateType::Gc:
          netlist.add_gc(g.name, g.fanins, g.cover, g.reset_cover);
          break;
        default: netlist.add_gate(g.type, g.name, g.fanins); break;
      }
    }
    for (const SignalId out : outputs) netlist.set_output(out);
    netlist.check_invariants();
    return netlist;
  }

  /// Signal ids of the non-input gates (the mutable ones).
  std::vector<SignalId> editable_gates() const {
    std::vector<SignalId> ids;
    for (std::size_t s = 0; s < gates.size(); ++s)
      if (gates[s].type != GateType::Input)
        ids.push_back(static_cast<SignalId>(s));
    return ids;
  }

  /// A gate name not used by any existing signal ("m0", "m1", ...).
  std::string fresh_name() const {
    for (std::size_t i = 0;; ++i) {
      std::string candidate = indexed_name("m", i);
      const bool taken =
          std::any_of(gates.begin(), gates.end(),
                      [&](const Gate& g) { return g.name == candidate; });
      if (!taken) return candidate;
    }
  }
};

/// Gate types expressible at a given arity via add_gate (Sop/Gc covers are
/// excluded: swapping them means inventing covers, which is Splice's job).
std::vector<GateType> types_for_arity(std::size_t arity) {
  if (arity == 1) return {GateType::Buf, GateType::Not};
  std::vector<GateType> types{GateType::And,  GateType::Or,  GateType::Nand,
                              GateType::Nor,  GateType::Xor, GateType::Xnor,
                              GateType::Celem};
  if (arity == 3) types.push_back(GateType::Maj);
  return types;
}

/// Swap one gate's type for a different one of identical arity.
bool apply_gate_swap(EditableCircuit& circuit, Rng& rng) {
  std::vector<SignalId> candidates;
  for (const SignalId s : circuit.editable_gates()) {
    const GateType t = circuit.gates[s].type;
    if (t != GateType::Sop && t != GateType::Gc) candidates.push_back(s);
  }
  if (candidates.empty()) return false;
  const SignalId target = candidates[rng.below(candidates.size())];
  Gate& gate = circuit.gates[target];
  std::vector<GateType> types = types_for_arity(gate.fanins.size());
  types.erase(std::remove(types.begin(), types.end(), gate.type), types.end());
  if (types.empty()) return false;
  gate.type = types[rng.below(types.size())];
  return true;
}

/// Re-point one fanin pin at a different signal (feedback loops and
/// self-loops are legal outcomes — settling decides whether they stay).
bool apply_rewire(EditableCircuit& circuit, Rng& rng) {
  const std::vector<SignalId> candidates = circuit.editable_gates();
  if (candidates.empty() || circuit.gates.size() < 2) return false;
  const SignalId target = candidates[rng.below(candidates.size())];
  Gate& gate = circuit.gates[target];
  const std::size_t pin = rng.below(gate.fanins.size());
  const auto source = static_cast<SignalId>(rng.below(circuit.gates.size()));
  if (source == gate.fanins[pin]) return false;
  gate.fanins[pin] = source;
  return true;
}

/// Append a new gate over random existing signals, then either re-point a
/// random consumer pin at it (usually) or expose it as an extra output, so
/// the new logic always lands in an observed cone.
bool apply_splice(EditableCircuit& circuit, Rng& rng) {
  static constexpr GateType kSpliceTypes[] = {
      GateType::And, GateType::Or,    GateType::Nand, GateType::Nor,
      GateType::Xor, GateType::Not,   GateType::Buf,  GateType::Celem,
      GateType::Maj};
  const GateType type = kSpliceTypes[rng.below(std::size(kSpliceTypes))];
  std::size_t arity = 2;
  if (type == GateType::Not || type == GateType::Buf) arity = 1;
  if (type == GateType::Maj) arity = 3;

  Gate gate;
  gate.type = type;
  gate.name = circuit.fresh_name();
  for (std::size_t i = 0; i < arity; ++i)
    gate.fanins.push_back(static_cast<SignalId>(rng.below(circuit.gates.size())));
  const auto new_id = static_cast<SignalId>(circuit.gates.size());
  circuit.gates.push_back(std::move(gate));

  const std::vector<SignalId> consumers = circuit.editable_gates();
  // editable_gates() includes the gate just appended; exclude it so the
  // splice never just rewires itself into a dead self-loop.
  std::vector<SignalId> targets;
  for (const SignalId s : consumers)
    if (s != new_id) targets.push_back(s);
  if (!targets.empty() && rng.below(4) != 0) {
    Gate& consumer = circuit.gates[targets[rng.below(targets.size())]];
    consumer.fanins[rng.below(consumer.fanins.size())] = new_id;
  } else {
    circuit.outputs.push_back(new_id);
  }
  return true;
}

}  // namespace

const char* netlist_mutation_name(NetlistMutation m) {
  switch (m) {
    case NetlistMutation::GateSwap: return "gate-swap";
    case NetlistMutation::Rewire: return "rewire";
    case NetlistMutation::Splice: return "splice";
    case NetlistMutation::ResetPerturb: return "reset-perturb";
  }
  return "?";
}

std::optional<MutatedNetlist> mutate_netlist(const Netlist& base, Rng& rng,
                                             const MutateOptions& options) {
  for (std::size_t attempt = 0; attempt < options.max_attempts; ++attempt) {
    const auto kind = static_cast<NetlistMutation>(rng.below(4));

    if (kind == NetlistMutation::ResetPerturb) {
      // Structure unchanged; the mutation is the start state.  Settling from
      // a random corner reaches resets the all-false convention never sees.
      std::vector<bool> state(base.num_signals());
      for (std::size_t s = 0; s < state.size(); ++s) state[s] = rng.flip();
      if (!settle_to_stable(base, state)) continue;
      return MutatedNetlist{base, std::move(state), kind};
    }

    EditableCircuit circuit = EditableCircuit::from(base);
    bool edited = false;
    switch (kind) {
      case NetlistMutation::GateSwap: edited = apply_gate_swap(circuit, rng); break;
      case NetlistMutation::Rewire: edited = apply_rewire(circuit, rng); break;
      case NetlistMutation::Splice:
        edited = options.allow_growth && apply_splice(circuit, rng);
        break;
      case NetlistMutation::ResetPerturb: break;  // handled above
    }
    if (!edited) continue;

    Netlist mutant = circuit.build();
    std::vector<bool> reset(mutant.num_signals(), false);
    if (!settle_to_stable(mutant, reset)) continue;
    return MutatedNetlist{std::move(mutant), std::move(reset), kind};
  }
  return std::nullopt;
}

}  // namespace xatpg
