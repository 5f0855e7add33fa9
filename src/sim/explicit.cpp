#include "sim/explicit.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace xatpg {

namespace {

/// The values of fanins [first, min(first + 64, count)) as bits, fanin
/// position first at bit 0.
StateWord gather(const SignalId* fanins, std::size_t first, std::size_t count,
                 const StateWord* state) {
  StateWord bits = 0;
  const std::size_t end = std::min(count, first + 64);
  for (std::size_t i = first; i < end; ++i)
    bits |= static_cast<StateWord>(test_bit(state, fanins[i])) << (i - first);
  return bits;
}

}  // namespace

PackedCircuit::PackedCircuit(const Netlist& netlist)
    : num_signals_(netlist.num_signals()),
      words_(state_words(netlist.num_signals())),
      codes_(netlist.num_signals()) {
  const std::size_t n = num_signals_;
  std::vector<std::vector<SignalId>> affected(n);
  for (SignalId s = 0; s < n; ++s) {
    const Gate& gate = netlist.gate(s);
    GateCode& code = codes_[s];
    code.type = gate.type;
    // Inputs are driven by the environment and never excited.
    if (gate.type == GateType::Input) continue;
    gates_.push_back(s);
    const std::size_t arity = gate.fanins.size();
    switch (gate.type) {
      case GateType::Buf:
      case GateType::Not: XATPG_CHECK(arity == 1); break;
      case GateType::Maj: XATPG_CHECK(arity == 3); break;
      case GateType::Celem: XATPG_CHECK(arity >= 2); break;
      default: break;
    }
    code.fanin_begin = static_cast<std::uint32_t>(fanins_.size());
    code.fanin_count = static_cast<std::uint32_t>(arity);
    affected[s].push_back(s);
    for (const SignalId f : gate.fanins) {
      XATPG_CHECK_MSG(f < n,
                      "gate '" << gate.name << "' has out-of-range fanin");
      fanins_.push_back(f);
      affected[f].push_back(s);
    }
    code.chunks = static_cast<std::uint32_t>((arity + 63) / 64);
    code.cube_begin = static_cast<std::uint32_t>(cubes_.size());
    const auto add_cover = [&](const Cover& cover) {
      for (const Cube& cube : cover) {
        XATPG_CHECK(cube.lits.size() == arity);
        const std::size_t at = cubes_.size();
        cubes_.resize(at + 2 * code.chunks, 0);
        for (std::size_t i = 0; i < arity; ++i) {
          if (cube.lits[i] != 0 && cube.lits[i] != 1) continue;  // absent
          const std::size_t care = at + 2 * (i / 64);
          cubes_[care] |= StateWord{1} << (i % 64);
          if (cube.lits[i] == 1) cubes_[care + 1] |= StateWord{1} << (i % 64);
        }
      }
      return static_cast<std::uint32_t>(cover.size());
    };
    if (gate.type == GateType::Sop || gate.type == GateType::Gc)
      code.set_cubes = add_cover(gate.cover);
    if (gate.type == GateType::Gc)
      code.reset_cubes = add_cover(gate.reset_cover);
  }
  affect_begin_.reserve(n + 1);
  affect_begin_.push_back(0);
  for (std::vector<SignalId>& gates : affected) {
    std::sort(gates.begin(), gates.end());
    gates.erase(std::unique(gates.begin(), gates.end()), gates.end());
    affect_.insert(affect_.end(), gates.begin(), gates.end());
    affect_begin_.push_back(static_cast<std::uint32_t>(affect_.size()));
  }
}

bool PackedCircuit::cover_holds(const GateCode& code, std::size_t begin,
                                std::size_t count,
                                const StateWord* state) const {
  if (count == 0) return false;
  if (code.chunks == 0) return true;  // a cube over no fanins is constant 1
  const SignalId* fanins = fanins_.data() + code.fanin_begin;
  const StateWord* cube = cubes_.data() + begin;
  if (code.chunks == 1) {
    const StateWord bits = gather(fanins, 0, code.fanin_count, state);
    for (std::size_t c = 0; c < count; ++c, cube += 2)
      if ((bits & cube[0]) == cube[1]) return true;
    return false;
  }
  for (std::size_t c = 0; c < count; ++c, cube += 2 * code.chunks) {
    bool holds = true;
    for (std::size_t k = 0; k < code.chunks && holds; ++k)
      holds = (gather(fanins, 64 * k, code.fanin_count, state) &
               cube[2 * k]) == cube[2 * k + 1];
    if (holds) return true;
  }
  return false;
}

bool PackedCircuit::excited(SignalId gate, const StateWord* state) const {
  // The target value of eval_gate (netlist/gate.hpp), on packed words.
  const GateCode& code = codes_[gate];
  const bool own = test_bit(state, gate);
  if (code.type == GateType::Sop)
    return cover_holds(code, code.cube_begin, code.set_cubes, state) != own;
  if (code.type == GateType::Gc) {
    const std::size_t reset_begin =
        code.cube_begin + std::size_t{2} * code.chunks * code.set_cubes;
    const bool target =
        cover_holds(code, code.cube_begin, code.set_cubes, state) ||
        (own && !cover_holds(code, reset_begin, code.reset_cubes, state));
    return target != own;
  }
  const SignalId* fanins = fanins_.data() + code.fanin_begin;
  const std::size_t n = code.fanin_count;
  std::size_t ones = 0;
  for (std::size_t i = 0; i < n; ++i) ones += test_bit(state, fanins[i]);
  bool target = own;
  switch (code.type) {
    case GateType::Buf: target = ones == 1; break;
    case GateType::Not: target = ones == 0; break;
    case GateType::And: target = ones == n; break;
    case GateType::Nand: target = ones != n; break;
    case GateType::Or: target = ones != 0; break;
    case GateType::Nor: target = ones == 0; break;
    case GateType::Xor: target = (ones & 1) != 0; break;
    case GateType::Xnor: target = (ones & 1) == 0; break;
    case GateType::Maj: target = ones >= 2; break;
    case GateType::Celem: target = ones == n || (own && ones != 0); break;
    default: break;  // Input: the environment holds it
  }
  return target != own;
}

void PackedCircuit::push_successor(SettleScratch& scratch, SignalId flipped,
                                   std::size_t slot_mask) const {
  const std::size_t w = words_;
  StateWord* row = scratch.row_.data();
  std::size_t slot = hash_words(row, w) & slot_mask;
  for (; scratch.slots_[slot] != 0; slot = (slot + 1) & slot_mask) {
    const StateWord* other =
        scratch.next_.data() + (scratch.slots_[slot] - 1) * 2 * w;
    if (std::equal(row, row + w, other)) return;  // reached already
  }
  // Only the flipped gate and its readers can change excitation.
  StateWord* excitation = row + w;
  for (std::uint32_t i = affect_begin_[flipped]; i < affect_begin_[flipped + 1];
       ++i) {
    const SignalId gate = affect_[i];
    const StateWord bit = StateWord{1} << (gate % 64);
    if (excited(gate, row))
      excitation[gate / 64] |= bit;
    else
      excitation[gate / 64] &= ~bit;
  }
  scratch.slots_[slot] =
      static_cast<std::uint32_t>(scratch.next_.size() / (2 * w) + 1);
  scratch.next_.insert(scratch.next_.end(), row, row + 2 * w);
}

bool PackedCircuit::settle(const StateWord* start, std::size_t max_transitions,
                           SettleScratch& scratch,
                           std::vector<StateWord>& stable) const {
  const std::size_t w = words_;
  const std::size_t stride = 2 * w;  // state words, then excitation words
  std::vector<StateWord>& level = scratch.level_;
  level.assign(stride, 0);
  std::copy(start, start + w, level.begin());
  for (const SignalId gate : gates_)
    if (excited(gate, start)) set_bit(level.data() + w, gate);

  // Level-synchronous exploration: level d holds the distinct states
  // reachable in exactly d gate transitions after the input flip.  Stable
  // states are recorded and not expanded (they self-loop in R_delta).  This
  // matches the TCR_k semantics exactly: the pattern is valid iff one
  // stable state is reachable and no trajectory is still unstable after
  // max_transitions steps.
  bool settled = true;
  for (std::size_t depth = 0; !level.empty(); ++depth) {
    // Each excited gate of each state yields one successor, so this many
    // slots keep the next level's index at most half full.
    std::size_t successors = 0;
    if (depth < max_transitions)
      for (std::size_t r = 0; r < level.size(); r += stride)
        for (std::size_t j = 0; j < w; ++j)
          successors +=
              static_cast<std::size_t>(std::popcount(level[r + w + j]));
    const std::size_t capacity =
        std::bit_ceil(std::max<std::size_t>(16, 2 * successors));
    if (scratch.slots_.size() < capacity) scratch.slots_.resize(capacity);
    std::fill_n(scratch.slots_.begin(), capacity, 0);
    scratch.next_.clear();

    for (std::size_t r = 0; r < level.size(); r += stride) {
      const StateWord* state = level.data() + r;
      const StateWord* excitation = state + w;
      if (std::all_of(excitation, excitation + w,
                      [](StateWord x) { return x == 0; })) {
        stable.insert(stable.end(), state, state + w);
        continue;
      }
      if (depth == max_transitions) {
        // An unstable state survives at the transition bound: oscillation
        // or a settle time longer than the test cycle.
        settled = false;
        continue;
      }
      for (std::size_t j = 0; j < w; ++j)
        for (StateWord bits = excitation[j]; bits != 0; bits &= bits - 1) {
          const auto gate =
              static_cast<SignalId>(64 * j + std::countr_zero(bits));
          scratch.row_.assign(state, state + stride);
          flip_bit(scratch.row_.data(), gate);
          push_successor(scratch, gate, capacity - 1);
        }
    }
    if (depth == max_transitions) break;
    level.swap(scratch.next_);
  }
  return settled;
}

ExploreResult explore_settling(const Netlist& netlist,
                               const std::vector<bool>& stable_from,
                               const std::vector<bool>& input_values,
                               std::size_t max_transitions) {
  XATPG_CHECK(stable_from.size() == netlist.num_signals());
  XATPG_CHECK(input_values.size() == netlist.inputs().size());

  std::vector<bool> start = stable_from;
  for (std::size_t i = 0; i < input_values.size(); ++i)
    start[netlist.inputs()[i]] = input_values[i];
  const PackedCircuit circuit(netlist);
  SettleScratch scratch;
  std::vector<StateWord> stable;
  ExploreResult result;
  result.exceeded_bound = !circuit.settle(pack_state(start).data(),
                                          max_transitions, scratch, stable);
  for (std::size_t r = 0; r < stable.size(); r += circuit.words())
    result.stable_states.insert(
        unpack_state(stable.data() + r, netlist.num_signals()));
  return result;
}

std::set<std::vector<bool>> explicit_stable_reachable(
    const Netlist& netlist, const std::vector<bool>& reset_state,
    std::size_t max_transitions) {
  XATPG_CHECK_MSG(netlist.is_stable_state(reset_state),
                  "reset state must be stable");
  const std::size_t num_inputs = netlist.inputs().size();
  XATPG_CHECK_MSG(num_inputs <= 16, "too many inputs for explicit exploration");

  std::set<std::vector<bool>> stable_seen{reset_state};
  std::vector<std::vector<bool>> worklist{reset_state};
  while (!worklist.empty()) {
    const std::vector<bool> state = worklist.back();
    worklist.pop_back();
    for (std::uint64_t pattern = 0; pattern < (1ull << num_inputs); ++pattern) {
      std::vector<bool> input_values(num_inputs);
      bool same = true;
      for (std::size_t i = 0; i < num_inputs; ++i) {
        input_values[i] = (pattern >> i) & 1;
        same = same && (input_values[i] == state[netlist.inputs()[i]]);
      }
      if (same) continue;  // R_I requires at least one input to change
      const ExploreResult explored =
          explore_settling(netlist, state, input_values, max_transitions);
      for (const std::vector<bool>& st : explored.stable_states) {
        if (stable_seen.insert(st).second) worklist.push_back(st);
      }
    }
  }
  return stable_seen;
}

}  // namespace xatpg
