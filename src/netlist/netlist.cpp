#include "netlist/netlist.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace xatpg {

SignalId Netlist::intern(const std::string& name) {
  auto it = by_name_.find(name);
  if (it != by_name_.end()) return it->second;
  const auto id = static_cast<SignalId>(gates_.size());
  Gate g;
  g.name = name;
  gates_.push_back(std::move(g));
  defined_.push_back(false);
  by_name_.emplace(name, id);
  return id;
}

SignalId Netlist::declare_signal(const std::string& name) {
  return intern(name);
}

SignalId Netlist::add_input(const std::string& name) {
  const SignalId id = intern(name);
  XATPG_CHECK_MSG(!defined_[id], "signal '" << name << "' defined twice");
  gates_[id].type = GateType::Input;
  defined_[id] = true;
  inputs_.push_back(id);
  return id;
}

SignalId Netlist::add_gate(GateType type, const std::string& name,
                           const std::vector<SignalId>& fanins) {
  XATPG_CHECK_MSG(type != GateType::Input, "use add_input for primary inputs");
  XATPG_CHECK_MSG(type != GateType::Sop && type != GateType::Gc,
                  "use add_sop/add_gc for cover-based gates");
  const SignalId id = intern(name);
  XATPG_CHECK_MSG(!defined_[id], "signal '" << name << "' defined twice");
  gates_[id].type = type;
  gates_[id].fanins = fanins;
  defined_[id] = true;
  return id;
}

SignalId Netlist::add_sop(const std::string& name,
                          const std::vector<SignalId>& fanins, Cover cover) {
  const SignalId id = intern(name);
  XATPG_CHECK_MSG(!defined_[id], "signal '" << name << "' defined twice");
  gates_[id].type = GateType::Sop;
  gates_[id].fanins = fanins;
  gates_[id].cover = std::move(cover);
  defined_[id] = true;
  return id;
}

SignalId Netlist::add_gc(const std::string& name,
                         const std::vector<SignalId>& fanins, Cover set_cover,
                         Cover reset_cover) {
  const SignalId id = intern(name);
  XATPG_CHECK_MSG(!defined_[id], "signal '" << name << "' defined twice");
  gates_[id].type = GateType::Gc;
  gates_[id].fanins = fanins;
  gates_[id].cover = std::move(set_cover);
  gates_[id].reset_cover = std::move(reset_cover);
  defined_[id] = true;
  return id;
}

void Netlist::redirect_pin(SignalId gate, std::size_t pin,
                           SignalId new_source) {
  XATPG_CHECK(gate < gates_.size() && new_source < gates_.size());
  XATPG_CHECK(pin < gates_[gate].fanins.size());
  gates_[gate].fanins[pin] = new_source;
}

void Netlist::tie_constant(SignalId s, bool value) {
  XATPG_CHECK(s < gates_.size());
  Gate& g = gates_[s];
  if (g.type == GateType::Input)
    inputs_.erase(std::find(inputs_.begin(), inputs_.end(), s));
  g.type = GateType::Sop;
  g.fanins.clear();
  g.cover.clear();
  if (value) g.cover.push_back(Cube{});
  g.reset_cover.clear();
}

void Netlist::set_output(SignalId s) {
  XATPG_CHECK(s < gates_.size());
  if (std::find(outputs_.begin(), outputs_.end(), s) == outputs_.end())
    outputs_.push_back(s);
}

void Netlist::set_output(const std::string& name) { set_output(signal(name)); }

bool Netlist::is_output(SignalId s) const {
  return std::find(outputs_.begin(), outputs_.end(), s) != outputs_.end();
}

std::optional<SignalId> Netlist::find_signal(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

SignalId Netlist::signal(const std::string& name) const {
  auto s = find_signal(name);
  XATPG_CHECK_MSG(s.has_value(), "unknown signal '" << name << "'");
  return *s;
}

std::size_t Netlist::num_pins() const {
  std::size_t pins = 0;
  for (const Gate& g : gates_) pins += g.fanins.size();
  return pins;
}

void Netlist::check_invariants() const {
  for (SignalId s = 0; s < gates_.size(); ++s) {
    const Gate& g = gates_[s];
    XATPG_CHECK_MSG(defined_[s], "signal '" << g.name << "' has no driver");
    for (const SignalId f : g.fanins)
      XATPG_CHECK_MSG(f < gates_.size(),
                      "gate '" << g.name << "' has out-of-range fanin");
    switch (g.type) {
      case GateType::Input:
        XATPG_CHECK_MSG(g.fanins.empty(), "input '" << g.name << "' has fanins");
        break;
      case GateType::Buf:
      case GateType::Not:
        XATPG_CHECK_MSG(g.fanins.size() == 1,
                        "gate '" << g.name << "' needs exactly one fanin");
        break;
      case GateType::Maj:
        XATPG_CHECK_MSG(g.fanins.size() == 3,
                        "MAJ gate '" << g.name << "' needs three fanins");
        break;
      case GateType::Celem:
        XATPG_CHECK_MSG(g.fanins.size() >= 2,
                        "C-element '" << g.name << "' needs >= 2 fanins");
        break;
      case GateType::Sop:
        for (const Cube& c : g.cover)
          XATPG_CHECK_MSG(c.lits.size() == g.fanins.size(),
                          "SOP cube arity mismatch in '" << g.name << "'");
        break;
      case GateType::Gc:
        for (const Cube& c : g.cover)
          XATPG_CHECK_MSG(c.lits.size() == g.fanins.size(),
                          "GC set-cube arity mismatch in '" << g.name << "'");
        for (const Cube& c : g.reset_cover)
          XATPG_CHECK_MSG(c.lits.size() == g.fanins.size(),
                          "GC reset-cube arity mismatch in '" << g.name << "'");
        break;
      default:
        XATPG_CHECK_MSG(g.fanins.size() >= 2,
                        "gate '" << g.name << "' needs >= 2 fanins");
        break;
    }
  }
  // Note: a netlist may legitimately have zero primary inputs — e.g. the
  // faulty materialization of a circuit whose only input is stuck.
}

std::vector<std::vector<FeedbackArc>> Netlist::fanouts() const {
  std::vector<std::vector<FeedbackArc>> out(gates_.size());
  for (SignalId s = 0; s < gates_.size(); ++s)
    for (std::size_t pin = 0; pin < gates_[s].fanins.size(); ++pin)
      out[gates_[s].fanins[pin]].push_back(FeedbackArc{s, pin});
  return out;
}

std::vector<std::uint32_t> Netlist::scc_ids(std::uint32_t* num_sccs) const {
  // Iterative Tarjan over the signal graph (edges fanin -> gate).
  const auto n = static_cast<std::uint32_t>(gates_.size());
  std::vector<std::uint32_t> index(n, 0), low(n, 0), comp(n, 0);
  std::vector<bool> on_stack(n, false), visited(n, false);
  std::vector<std::uint32_t> stack;
  std::uint32_t next_index = 1, next_comp = 0;

  struct Frame {
    std::uint32_t node;
    std::size_t child;
  };
  const auto fo = fanouts();

  for (std::uint32_t root = 0; root < n; ++root) {
    if (visited[root]) continue;
    std::vector<Frame> frames{{root, 0}};
    visited[root] = true;
    index[root] = low[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      Frame& fr = frames.back();
      const std::uint32_t u = fr.node;
      if (fr.child < fo[u].size()) {
        const std::uint32_t v = fo[u][fr.child++].gate;
        if (!visited[v]) {
          visited[v] = true;
          index[v] = low[v] = next_index++;
          stack.push_back(v);
          on_stack[v] = true;
          frames.push_back({v, 0});
        } else if (on_stack[v]) {
          low[u] = std::min(low[u], index[v]);
        }
      } else {
        if (low[u] == index[u]) {
          while (true) {
            const std::uint32_t w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            comp[w] = next_comp;
            if (w == u) break;
          }
          ++next_comp;
        }
        frames.pop_back();
        if (!frames.empty())
          low[frames.back().node] = std::min(low[frames.back().node], low[u]);
      }
    }
  }
  if (num_sccs) *num_sccs = next_comp;
  return comp;
}

std::vector<FeedbackArc> Netlist::feedback_arcs() const {
  // DFS over the signal graph; a fanin pin is a feedback arc when the fanin
  // is grey (on the current DFS path) — plus self-loops (state-holding
  // gates reading their own output).  Restricting attention to back arcs
  // breaks every cycle.
  const auto n = static_cast<std::uint32_t>(gates_.size());
  enum : std::uint8_t { White, Grey, Black };
  std::vector<std::uint8_t> color(n, White);
  std::vector<FeedbackArc> cuts;

  struct Frame {
    std::uint32_t node;
    std::size_t pin;
  };
  for (std::uint32_t root = 0; root < n; ++root) {
    if (color[root] != White) continue;
    std::vector<Frame> frames{{root, 0}};
    color[root] = Grey;
    while (!frames.empty()) {
      Frame& fr = frames.back();
      const std::uint32_t u = fr.node;
      const auto& fanins = gates_[u].fanins;
      if (fr.pin < fanins.size()) {
        const std::size_t pin = fr.pin++;
        const std::uint32_t v = fanins[pin];
        if (v == u || color[v] == Grey) {
          cuts.push_back(FeedbackArc{u, pin});  // back arc: cut here
        } else if (color[v] == White) {
          color[v] = Grey;
          frames.push_back({v, 0});
        }
      } else {
        color[u] = Black;
        frames.pop_back();
      }
    }
  }
  return cuts;
}

std::vector<SignalId> Netlist::topo_order(
    const std::vector<FeedbackArc>& cuts) const {
  const auto n = static_cast<std::uint32_t>(gates_.size());
  // Effective fanin counts with cut pins removed.
  std::vector<std::uint32_t> pending(n, 0);
  std::vector<std::vector<bool>> cut_pin(n);
  for (std::uint32_t s = 0; s < n; ++s)
    cut_pin[s].assign(gates_[s].fanins.size(), false);
  for (const FeedbackArc& a : cuts) {
    XATPG_CHECK(a.gate < n && a.pin < gates_[a.gate].fanins.size());
    cut_pin[a.gate][a.pin] = true;
  }
  for (std::uint32_t s = 0; s < n; ++s)
    for (std::size_t pin = 0; pin < gates_[s].fanins.size(); ++pin)
      if (!cut_pin[s][pin]) ++pending[s];

  std::vector<SignalId> order;
  order.reserve(n);
  std::vector<SignalId> ready;
  for (std::uint32_t s = 0; s < n; ++s)
    if (pending[s] == 0) ready.push_back(s);
  const auto fo = fanouts();
  while (!ready.empty()) {
    const SignalId u = ready.back();
    ready.pop_back();
    order.push_back(u);
    for (const FeedbackArc& arc : fo[u]) {
      if (cut_pin[arc.gate][arc.pin]) continue;
      if (--pending[arc.gate] == 0) ready.push_back(arc.gate);
    }
  }
  XATPG_CHECK_MSG(order.size() == n,
                  "cycles remain after cutting " << cuts.size() << " arcs");
  return order;
}

bool Netlist::eval_gate_bool(SignalId s, const std::vector<bool>& state) const {
  const Gate& g = gates_[s];
  std::vector<bool> fanin_vals;
  fanin_vals.reserve(g.fanins.size());
  for (const SignalId f : g.fanins) fanin_vals.push_back(state[f]);
  return eval_gate(g, fanin_vals, static_cast<bool>(state[s]), BoolOps{});
}

bool Netlist::is_gate_stable(SignalId s, const std::vector<bool>& state) const {
  return eval_gate_bool(s, state) == state[s];
}

bool Netlist::is_stable_state(const std::vector<bool>& state) const {
  XATPG_CHECK(state.size() == gates_.size());
  for (SignalId s = 0; s < gates_.size(); ++s)
    if (!is_gate_stable(s, state)) return false;
  return true;
}

}  // namespace xatpg
