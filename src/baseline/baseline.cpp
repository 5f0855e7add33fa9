#include "baseline/baseline.hpp"

#include <deque>
#include <map>
#include <set>

#include "sim/explicit.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace xatpg {

namespace {
constexpr std::size_t kSyncDepthCap = 24;     ///< product-machine BFS depth
constexpr std::size_t kSyncNodeCap = 50000;   ///< product-machine BFS nodes
constexpr std::size_t kUnitDelayBound = 256;  ///< validation settle bound
constexpr std::size_t kExactRaceBound = 24;   ///< exact-race audit bound
}  // namespace

VffModel::VffModel(const Netlist& netlist) : netlist_(&netlist) {
  cuts_ = netlist.feedback_arcs();
  for (SignalId s = 0; s < netlist.num_signals(); ++s)
    if (is_state_holding(netlist.gate(s).type)) holding_gates_.push_back(s);
  topo_ = netlist.topo_order(cuts_);
}

std::vector<bool> VffModel::eval(const std::vector<bool>& input_values,
                                 const std::vector<bool>& state_bits) const {
  XATPG_CHECK(input_values.size() == netlist_->inputs().size());
  XATPG_CHECK(state_bits.size() == num_state_bits());

  // Cut-pin overrides: (gate, pin) -> state bit index.
  std::map<std::pair<SignalId, std::size_t>, std::size_t> cut_bit;
  for (std::size_t i = 0; i < cuts_.size(); ++i)
    cut_bit[{cuts_[i].gate, cuts_[i].pin}] = i;
  std::map<SignalId, std::size_t> own_bit;
  for (std::size_t i = 0; i < holding_gates_.size(); ++i)
    own_bit[holding_gates_[i]] = cuts_.size() + i;

  std::vector<bool> values(netlist_->num_signals(), false);
  for (std::size_t i = 0; i < input_values.size(); ++i)
    values[netlist_->inputs()[i]] = input_values[i];

  for (const SignalId s : topo_) {
    const Gate& g = netlist_->gate(s);
    if (g.type == GateType::Input) continue;
    std::vector<bool> fanin_vals;
    fanin_vals.reserve(g.fanins.size());
    for (std::size_t pin = 0; pin < g.fanins.size(); ++pin) {
      auto it = cut_bit.find({s, pin});
      fanin_vals.push_back(it != cut_bit.end() ? state_bits[it->second]
                                               : values[g.fanins[pin]]);
    }
    const bool own = own_bit.count(s) ? state_bits[own_bit.at(s)]
                                      : static_cast<bool>(values[s]);
    values[s] = eval_gate(g, fanin_vals, own, BoolOps{});
  }
  return values;
}

std::vector<bool> VffModel::next_state(const std::vector<bool>& signals) const {
  std::vector<bool> bits;
  bits.reserve(num_state_bits());
  for (const FeedbackArc& cut : cuts_)
    bits.push_back(signals[netlist_->gate(cut.gate).fanins[cut.pin]]);
  for (const SignalId s : holding_gates_) bits.push_back(signals[s]);
  return bits;
}

std::vector<bool> VffModel::state_bits_of(
    const std::vector<bool>& async_state) const {
  return next_state(async_state);
}

std::optional<std::vector<bool>> unit_delay_settle(
    const Netlist& netlist, const std::vector<bool>& from,
    const std::vector<bool>& input_values) {
  std::vector<bool> state = from;
  for (std::size_t i = 0; i < input_values.size(); ++i)
    state[netlist.inputs()[i]] = input_values[i];
  std::set<std::vector<bool>> seen;
  for (std::size_t step = 0; step < kUnitDelayBound; ++step) {
    if (!seen.insert(state).second) return std::nullopt;  // cycle
    std::vector<bool> next = state;
    bool changed = false;
    for (SignalId s = 0; s < netlist.num_signals(); ++s) {
      if (netlist.is_input(s)) continue;
      const bool target = netlist.eval_gate_bool(s, state);
      if (target != state[s]) {
        next[s] = target;
        changed = true;
      }
    }
    if (!changed) return state;
    state = std::move(next);
  }
  return std::nullopt;  // did not settle within the bound
}

bool has_racy_vector(const Netlist& netlist,
                     const std::vector<bool>& reset_state,
                     const TestSequence& sequence) {
  std::vector<bool> state = reset_state;
  for (const auto& vec : sequence.vectors) {
    const auto exact = explore_settling(netlist, state, vec, kExactRaceBound);
    if (!exact.confluent()) return true;
    state = *exact.stable_states.begin();
  }
  return false;
}

namespace {

/// Synchronous product-machine BFS on the virtual-FF models: find the
/// shortest input sequence making a primary output differ.
/// `faulty_netlist` is apply_fault(good_netlist, fault).
std::optional<TestSequence> sync_atpg(const Netlist& good_netlist,
                                      const Fault& fault,
                                      const Netlist& faulty_netlist,
                                      const std::vector<bool>& good_reset,
                                      const std::vector<bool>& faulty_reset) {
  const VffModel good(good_netlist);
  const VffModel faulty(faulty_netlist);
  const std::size_t m = good_netlist.inputs().size();
  XATPG_CHECK_MSG(m <= 12, "too many inputs for explicit synchronous ATPG");

  struct Node {
    std::vector<bool> good_bits, faulty_bits;
    std::vector<std::vector<bool>> path;
  };
  std::deque<Node> queue;
  std::set<std::pair<std::vector<bool>, std::vector<bool>>> visited;

  Node root{good.state_bits_of(good_reset), faulty.state_bits_of(faulty_reset),
            {}};
  visited.insert({root.good_bits, root.faulty_bits});
  queue.push_back(std::move(root));

  std::size_t expanded = 0;
  while (!queue.empty()) {
    const Node node = std::move(queue.front());
    queue.pop_front();
    if (node.path.size() >= kSyncDepthCap) continue;
    for (std::uint64_t bits = 0; bits < (1ull << m); ++bits) {
      if (++expanded > kSyncNodeCap) return std::nullopt;
      std::vector<bool> vec(m);
      for (std::size_t i = 0; i < m; ++i) vec[i] = (bits >> i) & 1;
      const auto good_vals = good.eval(vec, node.good_bits);
      const auto faulty_vals = faulty.eval(
          map_input_vector(good_netlist, fault, vec), node.faulty_bits);
      auto path = node.path;
      path.push_back(vec);
      // Observable difference at a primary output?  The faulty circuit
      // keeps every good signal id.
      bool differs = false;
      for (const SignalId po : good_netlist.outputs())
        if (good_vals[po] != faulty_vals[po]) {
          differs = true;
          break;
        }
      if (differs) {
        TestSequence seq;
        seq.vectors = std::move(path);
        return seq;
      }
      Node succ{good.next_state(good_vals), faulty.next_state(faulty_vals),
                std::move(path)};
      if (visited.insert({succ.good_bits, succ.faulty_bits}).second)
        queue.push_back(std::move(succ));
    }
  }
  return std::nullopt;
}

}  // namespace

BaselineResult run_baseline(const Netlist& netlist,
                            const std::vector<bool>& reset_state,
                            const std::vector<Fault>& faults) {
  Timer timer;
  BaselineResult result;
  result.per_fault.reserve(faults.size());

  for (const Fault& fault : faults) {
    BaselineFaultResult fr;
    fr.fault = fault;
    const Netlist faulty = apply_fault(netlist, fault);
    const std::vector<bool> faulty_reset =
        fault_initial_state(fault, reset_state);

    const auto seq =
        sync_atpg(netlist, fault, faulty, reset_state, faulty_reset);
    if (seq) {
      fr.generated = true;
      fr.sequence = *seq;
      ++result.generated;

      // Validation à la [2]: deterministic unit-delay re-simulation of the
      // real asynchronous circuits; accepted if everything settles and the
      // mismatch is still observed.
      bool ok = true;
      bool observed = false;
      std::vector<bool> good_state = reset_state;
      std::vector<bool> faulty_state = faulty_reset;
      if (auto settled = unit_delay_settle(faulty, faulty_state, [&] {
            std::vector<bool> in;
            for (const SignalId s : faulty.inputs())
              in.push_back(faulty_state[s]);
            return in;
          }())) {
        faulty_state = *settled;
      } else {
        ok = false;
      }
      for (const auto& vec : fr.sequence.vectors) {
        if (!ok) break;
        const auto g = unit_delay_settle(netlist, good_state, vec);
        const auto f = unit_delay_settle(faulty, faulty_state,
                                         map_input_vector(netlist, fault, vec));
        if (!g || !f) {
          ok = false;  // oscillation caught by validation
          break;
        }
        good_state = *g;
        faulty_state = *f;
        for (const SignalId po : netlist.outputs())
          if (good_state[po] != faulty_state[po]) observed = true;
      }
      fr.validated = ok && observed;
      if (fr.validated) ++result.validated;

      if (fr.validated) {
        fr.racy = has_racy_vector(netlist, reset_state, fr.sequence);
        if (fr.racy) ++result.optimistic;
      }
    }
    result.per_fault.push_back(std::move(fr));
  }
  result.seconds = timer.seconds();
  return result;
}

}  // namespace xatpg
